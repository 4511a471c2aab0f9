"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 7 checks the one-form bimodule Omega^1 = span{e[D,e], (1-e)[D,e]}
in the sense that holds for each operation: a gauge fluctuation leaves the
span literally equal, while a conformal rescaling D -> k_J D k_J transports
it to k_J Omega^1 k_J (k_J commutes with the algebra, so
[k_J D k_J, a] = k_J [D, a] k_J). The literal span moves under rescaling
exactly on C^4 with rho != 1/2, where the two hops pick up the different
weights rho^2 and (1-rho)^2; the test asserts that split too. See also
test_conformal.py for the targeted C^3/C^4 version.
"""

import math

import numpy as np

from twistriple.algebra import embed
from twistriple.axioms import check_all, check_grading, check_twisted_regularity, ko_dimension
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_UNTWISTED,
    build_c3,
    build_c4,
    build_c4_perm_conformal_composite,
    build_conformal,
    build_family,
    derive_family,
    fluctuated_distance_formula,
    fluctuation_orbit_params,
    identify_family,
    scan_c2_nonexistence,
)
from twistriple.conformal import (
    ConformalFactor,
    check_gauge_conformal_compat,
    equivalent_commutant_factor,
    rescale,
)
from twistriple.distance import distance_bruteforce, spectral_distance
from twistriple.forms import (
    antihermitian_one_form,
    fluctuate,
    fluctuate_chiral,
    is_fluctuation_of,
    omega1_equal,
    one_form,
    selfadjoint_one_form,
)
from twistriple.linalg import RANK_TOL, ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)
RHO_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
ZETA_GRID = (0.5, 1.0, 2.0)
ONE_HOP = (C3_UNTWISTED, C3_CONFORMAL)  # d2 is derived from d1
CONFORMAL = (C3_CONFORMAL, C4_CONFORMAL)


def verdict(number: int, ok: bool, label: str) -> bool:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    return ok


def rand_c(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def perm_c3_param(rng, eps):
    return (1.0 if eps == 1 else 1.0j) * rng.standard_normal()


def nondegenerate_phi(rng):
    while True:
        phi = rand_c(rng)
        if abs(1.0 - phi) > 0.05 and abs(1.0 - phi - np.conj(phi)) > 0.05:
            return phi


def omega1_basis(t):
    """The generators e[D,e] and (1-e)[D,e] of the one-form bimodule."""
    return [one_form(t, 1.0, 0.0).value, one_form(t, 0.0, 1.0).value]


def span_rank(matrices):
    """Rank of the span of the matrices, with omega1_equal's relative cutoff."""
    s = np.linalg.svd(np.array([m.ravel() for m in matrices]), compute_uv=False)
    cutoff = RANK_TOL * (s[0] if s[0] > RANK_TOL else 1.0)
    return int(np.sum(s > cutoff))


def same_span(first, second):
    return span_rank(first) == span_rank(second) == span_rank(first + second)


def member(family, eps, d1, d2, rho, zeta):
    """The family member; one-hop families take no d2, and only conformal ones take (rho, zeta)."""
    return build_family(family, eps, d1, None if family in ONE_HOP else d2,
                        *((rho, zeta) if family in CONFORMAL else ()))


def catalog_triples(rng):
    """(label, triple) for every catalog family, both signs, conformal grid."""
    out = []
    for eps in (1, -1):
        out.append((f"c3_untwisted eps'={eps}", build_c3(eps, rand_c(rng))))
        out.append((f"c3_perm eps'={eps}",
                    build_c3(eps, perm_c3_param(rng, eps), perm_c3_param(rng, eps), twist="perm")))
        out.append((f"c4_untwisted eps'={eps}", build_c4(eps, rand_c(rng), rand_c(rng))))
        out.append((f"c4_perm eps'={eps}",
                    build_c4(eps, rand_c(rng), rand_c(rng), twist="perm")))
        for rho in RHO_GRID:
            for zeta in ZETA_GRID:
                out.append((f"c3_conformal eps'={eps} rho={rho} zeta={zeta}",
                            build_conformal("c3", eps, rand_c(rng), rho=rho, zeta=zeta)))
                out.append((f"c4_conformal eps'={eps} rho={rho} zeta={zeta}",
                            build_conformal("c4", eps, rand_c(rng), rand_c(rng),
                                            rho=rho, zeta=zeta)))
    return out


def test_criterion_1_axiom_suite():
    rng = np.random.default_rng(101)
    failures = []
    for label, triple in catalog_triples(rng):
        report = check_all(triple, TOL12)
        if not report.passed:
            failures.append((label, report.failing()))
    ok = verdict(1, not failures, "all catalog triples pass every axiom at 1e-12")
    assert ok, failures


def test_criterion_2_negative_fixtures():
    bad = build_c4(1, 1.0 - 0.5j, twist="perm_bad")
    only_regularity = check_all(bad, TOL12).failing() == ["twisted_regularity"]
    composite_fails = all(
        not check_twisted_regularity(
            build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=rho)).passed
        for rho in RHO_GRID if rho != 0.5
    )
    composite_ok_at_half = check_twisted_regularity(
        build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=0.5), TOL12).passed
    ok = verdict(2, only_regularity and composite_fails and composite_ok_at_half,
                 "block-swap twist and conformal-permutation composite fail exactly as required")
    assert ok, (only_regularity, composite_fails, composite_ok_at_half)


def test_criterion_3_constraint_derivation():
    # the reality relation ties the C3 gamma-allowed slots together, so its
    # solution space is 2-real-dimensional; the C4 families keep 4
    expected = {C3_UNTWISTED: 2, C3_PERM: 2, C4_UNTWISTED: 4, C4_PERM: 4}
    problems = []
    for family_id, dim in expected.items():
        for eps in (1, -1):
            fam = derive_family(family_id, eps)  # raises if the solver
            # basis violates the closed-form relations beyond 1e-12
            if fam.real_dimension != dim:
                problems.append((family_id, eps, fam.real_dimension))
    ok = verdict(3, not problems,
                 "derived families reproduce the closed-form relations and dimensions (2,2,4,4)")
    assert ok, problems


def test_criterion_4_distance_formulas():
    rng = np.random.default_rng(104)
    rel_failures = []
    oracle_failures = []

    def draw(family):
        # draw order: eps', then (rho, zeta) for a conformal family, then its hops
        eps = 1 if rng.random() < 0.5 else -1
        rho, zeta = (rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)) if family in CONFORMAL else (None, None)
        hop = (lambda: perm_c3_param(rng, eps)) if family == C3_PERM else (lambda: rand_c(rng))
        d1 = hop()
        return member(family, eps, d1, None if family in ONE_HOP else hop(), rho, zeta)

    families = (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C3_CONFORMAL, C4_CONFORMAL)
    for family in families:
        for i in range(100):
            t = draw(family)
            ident = identify_family(t, TOL12)
            assert ident is not None and ident[0] == family
            # unfluctuated closed form (phi = 0) and a generic fluctuated one
            for phi in (0.0, nondegenerate_phi(rng)):
                ft = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
                expected = fluctuated_distance_formula(family, ident[1], phi)
                got = spectral_distance(ft).value
                if math.isinf(expected) or math.isinf(got):
                    if math.isinf(expected) != math.isinf(got):
                        rel_failures.append((family, phi))
                elif abs(got - expected) > 1e-9 * abs(expected):
                    rel_failures.append((family, phi, got, expected))
            if i < 12:  # brute-force oracle layer
                oracle = distance_bruteforce(t, samples=300, seed=1000 + i)
                closed = spectral_distance(t).value
                if abs(oracle - closed) > 1e-6 * abs(closed):
                    oracle_failures.append((family, oracle, closed))
    ok = verdict(4, not rel_failures and not oracle_failures,
                 "closed-form distances hold at 1e-9 over 100 draws per family; oracle within 1e-6")
    assert ok, (rel_failures[:5], oracle_failures[:5])


def test_criterion_5_fluctuation_orbits():
    rng = np.random.default_rng(105)
    worst = 0.0

    core = (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM)
    for family in core + CONFORMAL:
        n = 1000 if family in core else 200
        for _ in range(n):
            eps = 1 if rng.random() < 0.5 else -1
            if family == C3_PERM:
                d1, d2 = perm_c3_param(rng, eps), perm_c3_param(rng, eps)
            else:
                d1, d2 = rand_c(rng), rand_c(rng)
            rho, zeta = rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)
            phi = rand_c(rng)
            t = member(family, eps, d1, d2, rho, zeta)
            out = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
            nd1, nd2 = fluctuation_orbit_params(family, d1, d2, phi)
            ref = member(family, eps, nd1, nd2, rho, zeta)
            worst = max(worst, float(np.max(np.abs(out.dirac - ref.dirac))))
    semigroup_ok = True
    for _ in range(50):
        t = build_c4(1, rand_c(rng), rand_c(rng))
        f1 = fluctuate(t, selfadjoint_one_form(t, rand_c(rng)))
        f2 = fluctuate(f1, selfadjoint_one_form(f1, rand_c(rng)))
        if is_fluctuation_of(t, f2) is None:
            semigroup_ok = False
    ok = verdict(5, worst < 1e-12 and semigroup_ok,
                 f"matrix fluctuations match the closed-form maps (worst {worst:.2e}); composition stays in the orbit")
    assert ok, (worst, semigroup_ok)


def test_criterion_6_chiral_equivalence_on_c3():
    rng = np.random.default_rng(106)
    problems = []
    for eps in (1, -1):
        bases = [build_c3(eps, rand_c(rng)),
                 build_c3(eps, perm_c3_param(rng, eps), perm_c3_param(rng, eps), twist="perm")]
        for t in bases:
            for _ in range(25):
                phi = rand_c(rng)
                chiral = fluctuate_chiral(t, antihermitian_one_form(t, phi), TOL12)
                if is_fluctuation_of(t, chiral, TOL12) is None:
                    problems.append((eps, t.twist is not None, phi))
    ok = verdict(6, not problems,
                 "every chiral fluctuation on C^3 is reproduced by a plain gauge fluctuation")
    assert ok, problems[:5]


def test_criterion_7_one_form_bimodule_invariance():
    rng = np.random.default_rng(107)
    fluct_ok = True
    for label, t in catalog_triples(rng):
        if spectral_distance(t).unbounded:
            continue
        for _ in range(4):  # 4 draws x 60+ triples > 100 parameters overall
            phi = nondegenerate_phi(rng)
            if not omega1_equal(t, fluctuate(t, selfadjoint_one_form(t, phi), TOL12)):
                fluct_ok = False
    transport_failures = []
    literal_moved = set()
    for eps in (1, -1):
        for rho in RHO_GRID:
            for zeta in ZETA_GRID:
                k = ConformalFactor(zeta, rho)
                t3 = build_c3(eps, rand_c(rng))
                t4 = build_c4(eps, rand_c(rng), rand_c(rng))
                for space, t in (("c3", t3), ("c4", t4)):
                    rescaled = rescale(t, k, TOL12)
                    k_j = t.real.j.conjugate(embed(t.rep, k.values()))
                    transported = [k_j @ w @ k_j for w in omega1_basis(t)]
                    if not same_span(omega1_basis(rescaled), transported):
                        transport_failures.append((space, eps, rho, zeta))
                    if not omega1_equal(t, rescaled):
                        literal_moved.add((space, eps, rho, zeta))
    expected_moved = {("c4", eps, rho, zeta)
                      for eps in (1, -1) for rho in RHO_GRID for zeta in ZETA_GRID if rho != 0.5}
    ok = verdict(7, fluct_ok and not transport_failures and literal_moved == expected_moved,
                 "one-form bimodule preserved under fluctuation and conformal rescaling")
    assert ok, (
        "fluctuation leaves Omega^1 literally equal" if fluct_ok else "fluctuation moved Omega^1",
        f"rescaling by k not equal to k_J Omega^1 k_J in {len(transport_failures)} of 60 cases: "
        f"{transport_failures[:6]}",
        f"literal span moved in {len(literal_moved)} of 60 cases, expected the "
        f"{len(expected_moved)} C^4 cases with rho != 1/2; "
        f"unexpected: {sorted(literal_moved - expected_moved)[:6]}, "
        f"missing: {sorted(expected_moved - literal_moved)[:6]}",
    )


def test_criterion_8_conformal_identities():
    rng = np.random.default_rng(108)
    equiv_ok = True
    for _ in range(50):
        eps = 1 if rng.random() < 0.5 else -1
        t = build_c3(eps, rand_c(rng))
        k = ConformalFactor(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9))
        ra = rescale(t, k, TOL12)
        rc = rescale(t, equivalent_commutant_factor(k), TOL12)
        if np.max(np.abs(ra.dirac - rc.dirac)) > 1e-12 or np.max(np.abs(ra.nu - rc.nu)) > 1e-12:
            equiv_ok = False
    compat_ok = True
    for _ in range(50):
        k = ConformalFactor(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9))
        phi = rand_c(rng)
        if not check_gauge_conformal_compat(build_c3(1, rand_c(rng)), k, phi, TOL12):
            compat_ok = False
        if not check_gauge_conformal_compat(build_c4(-1, rand_c(rng), rand_c(rng)), k, phi, TOL12):
            compat_ok = False
    square_ok = True
    for rho in RHO_GRID:
        for zeta in ZETA_GRID:
            d1 = rand_c(rng)
            sq = rescale(build_c3(1, d1), ConformalFactor(zeta, rho), TOL12).dirac
            sq = sq @ sq
            z4d = zeta ** 4 * abs(d1) ** 2
            expected = np.array([
                z4d * rho ** 2 * ((1 - rho) ** 2 + rho ** 2),
                z4d * rho ** 2 * (1 - rho) ** 2,
                z4d * rho ** 4,
            ])
            if np.max(np.abs(np.diag(sq).real - expected)) > 1e-9:
                square_ok = False
    signs_ok = True
    for eps in (1, -1):
        t = build_c4(eps, rand_c(rng), rand_c(rng))
        out = rescale(t, ConformalFactor(1.5, 0.3), TOL12)
        if out.real.signs != t.real.signs or not all(e.passed for e in check_grading(out, TOL12)):
            signs_ok = False
        if eps == 1 and ko_dimension(out.real.signs) != ko_dimension(t.real.signs):
            signs_ok = False
    ok = verdict(8, equiv_ok and compat_ok and square_ok and signs_ok,
                 "factor equivalence, gauge/conformal compatibility, squared-Dirac diagonal, KO preservation")
    assert ok, (equiv_ok, compat_ok, square_ok, signs_ok)


def test_criterion_9_c2_nonexistence():
    report = scan_c2_nonexistence(1000, seed=20240811)
    scan_ok = (report.conclusion
               and report.failures_of_order_one == 1000 * len(report.j_shapes_tested))
    from twistriple.algebra import REP_C2
    from twistriple.axioms import SpectralTriple, is_irreducible

    rng = np.random.default_rng(109)
    irr_ok = True
    for _ in range(25):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d = m + m.conj().T
        if abs(d[0, 1]) < 0.1:
            continue
        if not is_irreducible(SpectralTriple(rep=REP_C2, dirac=d)):
            irr_ok = False
    ok = verdict(9, scan_ok and irr_ok,
                 "order-one fails for every sampled J on C^2; without J the triples are irreducible")
    assert ok, (report, irr_ok)


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    from twistriple.cli import main
    from twistriple.documents import load, save

    base = str(tmp_path / "c4.json")
    fluct = str(tmp_path / "c4_fluct.json")
    conf = str(tmp_path / "c3_conf.json")
    steps_ok = (
        main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", base]) == 0
        and main(["check", base]) == 0
        and main(["fluctuate", base, "--phi", "0.5,0", "-o", fluct]) == 0
        and main(["catalog", "c3", "--twist", "conformal", "--rho", "0.5",
                  "--zeta", "1", "--d1", "1,0", "-o", conf]) == 0
        and main(["check", conf]) == 0
    )
    capsys.readouterr()
    main(["distance", base])
    base_out = capsys.readouterr().out
    main(["distance", fluct])
    fluct_out = capsys.readouterr().out
    main(["distance", conf])
    conf_out = capsys.readouterr().out
    numbers_ok = ("distance: 0.25" in base_out
                  and "distance: 0.5" in fluct_out
                  and "distance: 4" in conf_out)
    resaved = str(tmp_path / "resave.json")
    save(load(fluct), resaved)
    with open(fluct, "rb") as f1, open(resaved, "rb") as f2:
        bytes_ok = f1.read() == f2.read()
    ok = verdict(10, steps_ok and numbers_ok and bytes_ok,
                 "catalog -> check -> fluctuate -> distance pipeline with bit-exact round trips")
    assert ok, (steps_ok, base_out, fluct_out, conf_out, bytes_ok)
