import math

import numpy as np
import pytest

from twistriple.algebra import REP_C2, projection_e
from twistriple.axioms import check_all, order_one_residual
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_UNTWISTED,
    C4_PERM_BAD,
    FAMILIES,
    _FAMILIES,
    _SCAN_BLOCK,
    _derived_family,
    CatalogConstraintError,
    build_c3,
    build_c4,
    build_conformal,
    build_family,
    catalog_family,
    derive_family,
    fluctuated_distance_formula,
    fluctuation_orbit_params,
    identify_family,
    ScanReport,
    scan_c2_nonexistence,
)
from twistriple.forms import fluctuate, selfadjoint_one_form
from twistriple.linalg import DEFAULT_TOL, Antiunitary, ToleranceConfig, commutator, operator_norm

TOL12 = ToleranceConfig(abs_tol=1e-12)
RNG = np.random.default_rng(2718)


def rand_c(rng=RNG):
    return complex(rng.standard_normal(), rng.standard_normal())


# -------------------------------------------------------------------- builders

def test_build_c3_untwisted_derives_slot():
    t = build_c3(1, 1.0)
    assert t.dirac[0, 1] == 1.0 and t.dirac[0, 2] == 1.0
    assert check_all(t, TOL12).passed


def test_build_c3_untwisted_rejects_wrong_slot():
    with pytest.raises(CatalogConstraintError):
        build_c3(1, 1.0, 2.0)


def test_build_c3_perm_accepts_reality_respecting_params():
    assert check_all(build_c3(1, 1.0, 2.0, twist="perm"), TOL12).passed
    assert check_all(build_c3(-1, 1.0j, twist="perm"), TOL12).passed


def test_build_c3_perm_rejects_wrong_reality():
    with pytest.raises(CatalogConstraintError):
        build_c3(1, 1.0j, twist="perm")
    with pytest.raises(CatalogConstraintError):
        build_c3(-1, 1.0, twist="perm")


def test_build_c4_families_pass():
    for eps in (1, -1):
        assert check_all(build_c4(eps, rand_c(), rand_c()), TOL12).passed
        assert check_all(build_c4(eps, rand_c(), rand_c(), twist="perm"), TOL12).passed


def test_build_c4_perm_layout():
    d1, d2, eps = 1.0 - 2.0j, 0.5j, -1
    t = build_c4(eps, d1, d2, twist="perm")
    assert t.dirac[0, 1] == eps * d2
    assert t.dirac[2, 3] == eps * d1


def test_build_c4_perm_bad_is_negative_fixture():
    t = build_c4(1, 1.0 - 0.5j, twist="perm_bad")  # d2 derived as conj(d1)
    report = check_all(t, TOL12)
    assert report.failing() == ["twisted_regularity"]


def test_build_c4_perm_bad_constraint_enforced():
    with pytest.raises(CatalogConstraintError):
        build_c4(1, 1.0, 2.0, twist="perm_bad")


@pytest.mark.parametrize("d1", [0.0, 1.0 - 0.5j, 3e3 + 2e3j, 1e6 * (1 + 1j)])
def test_build_c4_perm_bad_exists_only_for_eps_prime_plus_one(d1):
    with pytest.raises(CatalogConstraintError, match=r"exists only for eps' = \+1"):
        build_c4(-1, d1, twist="perm_bad")
    with pytest.raises(CatalogConstraintError, match=r"exists only for eps' = \+1"):
        build_c4(-1, d1, -np.conj(d1), twist="perm_bad")
    assert build_c4(1, d1, twist="perm_bad").eps_prime == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_builders_reject_non_finite_parameters(bad):
    with pytest.raises(ValueError):
        build_c3(1, bad)
    with pytest.raises(ValueError):
        build_c3(1, 1.0, bad, twist="perm")
    with pytest.raises(ValueError):
        build_c4(1, 1.0, complex(0.0, bad))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)])
def test_builders_reject_non_finite_hops_before_any_arithmetic(bad):
    # a RuntimeWarning from arithmetic on the hop fails the suite (pyproject filterwarnings)
    calls = [lambda: build_c3(1, bad), lambda: build_c3(-1, 1.0, bad),
             lambda: build_c3(1, 1.0, bad, twist="perm"), lambda: build_c4(1, bad),
             lambda: build_c4(-1, 1.0, bad), lambda: build_c4(1, bad, twist="perm"),
             lambda: build_c4(1, bad, twist="perm_bad"),
             lambda: build_conformal("c4", 1, 1.0, bad, rho=0.3)]
    for call in calls:
        with pytest.raises(ValueError, match="must be finite"):
            call()


def test_build_rejects_unknown_twist():
    with pytest.raises(ValueError):
        build_c3(1, 1.0, twist="perm_bad")
    with pytest.raises(ValueError):
        build_c4(1, 1.0, twist="spiral")


def test_catalog_family_names_every_buildable_family():
    named = {(space, twist): catalog_family(space, twist)
             for space in ("c3", "c4") for twist in ("none", "perm", "perm_bad", "conformal")
             if (space, twist) != ("c3", "perm_bad")}
    assert sorted(named.values()) == sorted(FAMILIES + (C4_PERM_BAD,))
    with pytest.raises(ValueError, match=r"unknown C\^3 twist 'perm_bad'"):
        catalog_family("c3", "perm_bad")
    with pytest.raises(ValueError, match=r"unknown C\^4 twist 'conformal'"):
        catalog_family("c4", "conformal", conformal=False)
    with pytest.raises(ValueError, match="unknown space 'c5'"):
        catalog_family("c5", "none")


def test_build_family_takes_rho_and_zeta_only_for_conformal_families():
    for fam in (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C4_PERM_BAD):
        with pytest.raises(ValueError, match="apply only to the conformal families"):
            build_family(fam, 1, 1.0, rho=0.3)
        with pytest.raises(ValueError, match="apply only to the conformal families"):
            build_family(fam, 1, 1.0, zeta=9.0)
    for fam in (C3_CONFORMAL, C4_CONFORMAL):
        with pytest.raises(ValueError, match="needs rho"):
            build_family(fam, 1, 1.0, zeta=2.0)
    with pytest.raises(ValueError, match="unknown family 'c5_untwisted'"):
        build_family("c5_untwisted", 1, 1.0)


def test_c3_conformal_checks_its_d2_like_c3_untwisted():
    for eps in (1, -1):
        d1 = 1.0 - 0.5j
        omitted = build_family(C3_CONFORMAL, eps, d1, rho=0.5)
        forced = build_family(C3_CONFORMAL, eps, d1, eps * np.conj(d1), rho=0.5)
        assert np.array_equal(omitted.dirac, forced.dirac)
        with pytest.raises(CatalogConstraintError, match=r"d3 = eps'\*conj\(d1\)"):
            build_family(C3_CONFORMAL, eps, d1, 7.0, rho=0.5)
        with pytest.raises(CatalogConstraintError, match=r"d3 = eps'\*conj\(d1\)"):
            build_family(C3_UNTWISTED, eps, d1, 7.0)


def test_conformal_builder_matches_manual_rescale():
    from twistriple.conformal import ConformalFactor, rescale

    t = build_conformal("c4", 1, 1.0, 2.0, rho=0.25, zeta=1.5)
    manual = rescale(build_c4(1, 1.0, 2.0), ConformalFactor(1.5, 0.25))
    assert np.allclose(t.dirac, manual.dirac)
    assert check_all(t, TOL12).passed


# ------------------------------------------------------------ derived families

@pytest.mark.parametrize("eps", [1, -1])
def test_derive_family_dimensions(eps):
    # C3 untwisted: one free complex entry once the reality relation ties the
    # two gamma-allowed slots together; both perm families keep their two
    # free parameters (real for C3, complex for C4)
    assert derive_family(C3_UNTWISTED, eps).real_dimension == 2
    assert derive_family(C3_PERM, eps).real_dimension == 2
    assert derive_family(C4_UNTWISTED, eps).real_dimension == 4
    assert derive_family(C4_PERM, eps).real_dimension == 4


@pytest.mark.parametrize("bad", [1.5, 2.0, -1.0000001, 0.5, "1", 3, True, False])
def test_family_builders_reject_signs_that_are_not_plus_or_minus_one(bad):
    with pytest.raises(ValueError, match="^signs must be \\+1 or -1$"):
        build_family(C3_UNTWISTED, bad, 2.0)
    with pytest.raises(ValueError, match="^signs must be \\+1 or -1$"):
        build_family(C4_PERM, bad, 1.0, 2.0)
    with pytest.raises(ValueError, match="^eps' must be \\+1 or -1$"):
        derive_family(C3_UNTWISTED, bad)


def test_family_builders_take_float_signs_as_ints():
    t = build_family(C3_UNTWISTED, -1.0, 2.0)
    assert type(t.eps_prime) is int and t.eps_prime == -1
    assert np.array_equal(t.dirac, build_family(C3_UNTWISTED, -1, 2.0).dirac)
    assert derive_family(C3_UNTWISTED, -1.0).eps_prime == -1


@pytest.mark.parametrize("eps", [1, -1])
def test_derive_family_matches_closed_forms(eps):
    fam = derive_family(C4_UNTWISTED, eps)
    for b in fam.basis:
        assert abs(b[0, 1] - eps * np.conj(b[0, 2])) < 1e-12
        assert abs(b[2, 3] - eps * np.conj(b[1, 3])) < 1e-12
    fam = derive_family(C4_PERM, eps)
    for b in fam.basis:
        assert abs(b[0, 1] - eps * b[1, 3]) < 1e-12
        assert abs(b[2, 3] - eps * b[0, 2]) < 1e-12
    fam = derive_family(C3_PERM, eps)
    for b in fam.basis:
        assert np.linalg.norm(np.conj(b) - eps * b) < 1e-12


def test_derive_family_members_build_valid_triples():
    # the solver pins each record's layout: a basis member b is rebuilt from
    # its d1 entry (0, 2) and the entry the record puts d2 in
    for fam_id in (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM):
        d2_entry = _FAMILIES[fam_id].hops[1]
        for eps in (1, -1):
            for b in derive_family(fam_id, eps).basis:
                t = build_family(fam_id, eps, b[0, 2], b[d2_entry])
                assert np.max(np.abs(t.dirac - b)) < 1e-12
                assert check_all(t, TOL12).passed


@pytest.mark.parametrize("fam_id", [C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM])
def test_derive_family_is_solved_once_with_a_read_only_basis(fam_id):
    for eps in (1, -1):
        fam = derive_family(fam_id, eps)
        again = derive_family(fam_id, float(eps))
        assert again is fam and type(again.eps_prime) is int and again.eps_prime == eps
        fresh = _derived_family.__wrapped__(fam_id, eps)  # a solve that bypasses the cache
        assert [b.tobytes() for b in fam.basis] == [b.tobytes() for b in fresh.basis]
        for b in fam.basis:
            with pytest.raises(ValueError):
                b[0, 2] = 7.0
    assert derive_family(fam_id, -1.0).eps_prime == -1


def test_derive_family_rejects_conformal_ids():
    with pytest.raises(ValueError):
        derive_family(C3_CONFORMAL, 1)


# -------------------------------------------------------------------- the scan

def test_scan_confirms_nonexistence():
    report = scan_c2_nonexistence(100, seed=42)
    assert report.conclusion
    assert report.trials == 100
    assert report.failures_of_order_one == 100 * len(report.j_shapes_tested)
    assert set(report.j_shapes_tested) == {
        "identity", "swap", "diag_phases", "antidiag_plus", "antidiag_minus",
    }


def test_scan_single_trial_runs():
    assert scan_c2_nonexistence(1, seed=0).trials == 1


def test_scan_is_deterministic():
    assert scan_c2_nonexistence(50, seed=7) == scan_c2_nonexistence(50, seed=7)


def _c2_j_candidates_reference(rng):
    t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    p1 = np.exp(1j * t1)
    return [
        ("identity", np.eye(2, dtype=complex)),
        ("swap", np.array([[0, 1], [1, 0]], dtype=complex)),
        ("diag_phases", np.diag([p1, np.exp(1j * t2)]).astype(complex)),
        ("antidiag_plus", np.array([[0, p1], [p1, 0]], dtype=complex)),
        ("antidiag_minus", np.array([[0, p1], [-p1, 0]], dtype=complex)),
    ]


def _order_one_residual_reference(dirac, j, nu, basis):
    nu2 = nu @ nu
    nu2_inv = np.linalg.inv(nu2)
    worst = 0.0
    for a in basis:
        da = commutator(dirac, a)
        for b in basis:
            lhs = da @ j.conjugate(nu2_inv @ b @ nu2)
            rhs = j.conjugate(b) @ da
            worst = max(worst, operator_norm(lhs - rhs))
    return worst


def _scan_reference(trials, seed, tol=DEFAULT_TOL):
    """The trial-by-trial scan: one scalar residual per (trial, J, nu)."""
    rng = np.random.default_rng(seed)
    e = projection_e(REP_C2)
    one = np.eye(2, dtype=complex)
    basis = [e, one - e]
    nu_candidates = [one, np.array([[0, 1], [1, 0]], dtype=complex)]
    failures = 0
    shapes = []
    total_pairs = 0
    for _ in range(trials):
        for _attempt in range(1000):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            d = m + m.conj().T
            if operator_norm(commutator(d, e)) > 0.1:
                break
        else:
            raise RuntimeError("sampler failed to find a nonzero calculus")
        for label, u in _c2_j_candidates_reference(rng):
            if label not in shapes:
                shapes.append(label)
            j = Antiunitary(u)
            total_pairs += 1
            worst_over_twists = [_order_one_residual_reference(d, j, nu, basis) for nu in nu_candidates]
            if min(worst_over_twists) > tol.abs_tol:
                failures += 1
    return ScanReport(trials=trials, failures_of_order_one=failures,
                      j_shapes_tested=tuple(shapes), conclusion=failures == total_pairs)


@pytest.mark.parametrize("trials,seed", [(1, 0), (14, 7), (50, 42), (_SCAN_BLOCK + 3, 20240811)])
def test_scan_matches_trial_by_trial_reference(trials, seed):
    assert scan_c2_nonexistence(trials, seed) == _scan_reference(trials, seed)


def test_scan_matches_reference_when_some_pairs_pass():
    # residuals are of order |D_01| > 0.1, so this tolerance lets some (trial, J) pairs pass
    tol = ToleranceConfig(abs_tol=1.5)
    report = scan_c2_nonexistence(40, 5, tol)
    assert 0 < report.failures_of_order_one < report.trials * len(report.j_shapes_tested)
    assert not report.conclusion
    assert report == _scan_reference(40, 5, tol)


def _scan_min_residuals(trials, seed):
    """The scan's residual min over nu per (trial, J), from order_one_residual on its draws."""
    from twistriple.catalog import _C2_NU_CANDIDATES

    rng = np.random.default_rng(seed)
    e = projection_e(REP_C2)
    basis = [e, np.eye(2) - e]
    values = []
    for _ in range(trials):
        for _attempt in range(1000):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            d = m + m.conj().T
            if operator_norm(commutator(d, e)) > 0.1:
                break
        us = np.array([u for _, u in _c2_j_candidates_reference(rng)])
        values += order_one_residual(d, us[:, None], _C2_NU_CANDIDATES, basis).min(axis=-1).tolist()
    return values


@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_scan_matches_reference_at_tolerances_on_its_own_residuals(seed):
    # the verdicts the entry bound cannot decide go to the SVD: each tolerance
    # sits on, one ulp around or 1e-13 around a residual the scan compares
    values = _scan_min_residuals(4, seed)
    for v in values[seed % 5::7]:
        for abs_tol in (v, np.nextafter(v, 0.0), np.nextafter(v, np.inf),
                        v * (1 + 1e-13), v * (1 - 1e-13)):
            tol = ToleranceConfig(abs_tol=float(abs_tol))
            report = scan_c2_nonexistence(4, seed, tol)
            assert report.failures_of_order_one == sum(r > abs_tol for r in values)
            assert report == _scan_reference(4, seed, tol)


def _count_svd_matrices(monkeypatch):
    """Record every stack that reaches linalg.operator_norms, with the step of the scan that sent it.

    Each record is (source, matrices). The sampler's resampling test passes
    one 2x2 commutator to _norms_exceed (source "commutator"); the kernel
    passes a stack of order-one differences (source "differences").
    """
    import twistriple.catalog as catalog
    import twistriple.linalg as linalg

    sent = []
    source = []
    kernel, exceed = linalg.operator_norms, catalog._norms_exceed

    def counting(stack):
        sent.append((source[-1], np.asarray(stack).reshape(-1, 2, 2)))
        return kernel(stack)

    def tagging(stack, bound):
        source.append("commutator" if np.ndim(stack) == 2 else "differences")
        try:
            return exceed(stack, bound)
        finally:
            source.pop()

    monkeypatch.setattr(linalg, "operator_norms", counting)
    monkeypatch.setattr(catalog, "_norms_exceed", tagging)
    return sent


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_default_tolerance_scan_takes_no_svd(monkeypatch, seed):
    sent = _count_svd_matrices(monkeypatch)
    assert scan_c2_nonexistence(50, seed).conclusion
    assert sent == []


def test_scan_sends_only_undecided_matrices_to_the_svd(monkeypatch):
    tol = ToleranceConfig(abs_tol=1.5)
    want = _scan_reference(40, 5, tol)
    sent = _count_svd_matrices(monkeypatch)
    assert scan_c2_nonexistence(40, 5, tol) == want
    commutators = [m for source, m in sent if source == "commutator"]
    differences = np.concatenate([m for source, m in sent if source == "differences"])
    # one commutator per undecided draw; the kernel runs for nu = 1 alone, so
    # at most 40 trials x 5 J x 4 basis pairs of differences
    assert all(len(m) == 1 for m in commutators)
    assert 0 < len(differences) < 40 * 5 * 4
    matrices = np.concatenate(commutators + [differences])
    assert (np.abs(matrices).max(axis=(-2, -1)) <= 1.5 * (1 + 1e-12)).all()


def test_scan_j_candidates_are_antiunitary_involutions_up_to_sign():
    from twistriple.catalog import _C2_J_SHAPES, _c2_j_stack
    from twistriple.linalg import Antiunitary

    rng = np.random.default_rng(3)
    for label, u in zip(_C2_J_SHAPES, _c2_j_stack(rng.uniform(0.0, 2.0 * np.pi, size=2))):
        j = Antiunitary(u)
        assert j.unitary_defect() < 1e-12
        _, residual = j.squared_sign()
        assert residual < 1e-12, label


# ------------------------------------------------------------------ orbit maps

def test_orbit_params_examples():
    assert fluctuation_orbit_params(C3_UNTWISTED, 1.0, 0j, 0.5)[0] == 0.5
    d1p, d2p = fluctuation_orbit_params(C3_PERM, 1.0, 2.0, 1.0j)
    assert d1p == 1.0 and d2p == 2.0  # phi + conj(phi) = 0
    for fam in (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM):
        assert fluctuation_orbit_params(fam, 1.5, -2.0, 0.0) == (1.5, -2.0)


def test_orbit_params_unknown_family():
    with pytest.raises(ValueError):
        fluctuation_orbit_params("c5_untwisted", 1.0, 1.0, 0.5)


@pytest.mark.parametrize("fam", [C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM])
def test_orbit_params_agree_with_matrix_fluctuation(fam):
    rng = np.random.default_rng(hash(fam) % 2 ** 32)
    for _ in range(250):
        eps = 1 if rng.random() < 0.5 else -1
        if fam == C3_PERM:
            unit = 1.0 if eps == 1 else 1.0j
            d1, d2 = unit * rng.standard_normal(), unit * rng.standard_normal()
        else:
            d1, d2 = rand_c(rng), rand_c(rng)
        phi = rand_c(rng)
        t = build_family(fam, eps, d1, None if fam == C3_UNTWISTED else d2)  # its d2 is derived
        out = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
        nd1, nd2 = fluctuation_orbit_params(fam, d1, d2, phi)
        ref = build_family(fam, eps, nd1, None if fam == C3_UNTWISTED else nd2)
        assert np.max(np.abs(out.dirac - ref.dirac)) < 1e-12


# -------------------------------------------------------------- identification

def test_identify_family_round_trips():
    from twistriple.axioms import Twist, _Structure, _triple
    from twistriple.linalg import _assembled, _exceeds

    cases = [
        (build_c3(1, 1.5 - 0.5j), C3_UNTWISTED),
        (build_c3(-1, 2.0j, 1.0j, twist="perm"), C3_PERM),
        (build_c4(1, 1.0, 2.0), C4_UNTWISTED),
        (build_c4(-1, 1.0 - 1.0j, 0.5, twist="perm"), C4_PERM),
        (build_conformal("c3", 1, 1.0, rho=0.25), C3_CONFORMAL),
        (build_conformal("c4", 1, 1.0, 2.0, rho=0.4, zeta=1.5), C4_CONFORMAL),
    ]
    for t, expected in cases:
        ident = identify_family(t)
        assert ident is not None and ident[0] == expected
    # perm twists perturbed about abs_tol: the fixed-twist shape test decides by an entry
    # bound before any SVD, and its verdicts must be linalg._exceeds' on the difference
    # from the family's nu, NaN included
    for tol in (DEFAULT_TOL, TOL12):
        for t, expected in cases[1:4:2]:
            for scale in (1 - 1e-12, 1 + 1e-12, 10.0, -(1 - 1e-12), -(1 + 1e-12), -10.0, math.nan):
                for entry in ((0, 1), (1, 1), (0, t.dim - 1), (1, 2)):
                    nu = t.nu.copy()
                    nu[entry] += scale * tol.abs_tol
                    # put together without the constructor, so that a NaN nu gets past its check
                    twist = _assembled(Twist, nu=nu, implements_algebra_automorphism=True)
                    probe = _triple(_Structure(t._structure.frame, twist), t.dirac)
                    match = not _exceeds(probe.nu - t.nu, tol.abs_tol)
                    if t.nu[entry] == 0:  # elsewhere the sum with 1 rounds the perturbation
                        assert match == (abs(scale) < 1)
                    ident = identify_family(probe, tol)
                    assert (ident is not None and ident[0] == expected) == match
                    assert ident == identify_family(probe, tol)  # warm: the structure's kept match


def test_identify_family_recovers_conformal_rho():
    t = build_conformal("c4", 1, 1.0, 2.0, rho=0.4, zeta=1.5)
    family, params = identify_family(t)
    assert params["rho"] == pytest.approx(0.4)
    assert params["hop1"] == pytest.approx(1.5 ** 2 * 0.4 ** 2 * 1.0)


def test_identify_family_reads_rho_from_real_twists_only():
    from dataclasses import replace

    for family in (C3_CONFORMAL, C4_CONFORMAL):
        for eps in (1, -1):
            for rho in np.linspace(0.05, 0.95, 19):
                t = build_family(family, eps, 1.0 - 0.5j, None, rho=float(rho), zeta=1.5)
                found, params = identify_family(t)
                assert found == family and params["rho"] == pytest.approx(rho, rel=1e-12)
                for i in (1, 2):  # an imaginary part on the diagonal: nu is not selfadjoint
                    nu = t.nu.copy()
                    nu[i, i] += 0.5j
                    probe = replace(t, twist=replace(t.twist, nu=nu))
                    assert "twist_selfadjoint" in check_all(probe).failing()
                    assert identify_family(probe) is None


def test_identify_family_rejects_foreign_triples():
    from twistriple.algebra import REP_C2
    from twistriple.axioms import SpectralTriple

    assert identify_family(SpectralTriple(rep=REP_C2, dirac=np.zeros((2, 2)))) is None
    t = build_c4(1, 1.0, 2.0)
    scrambled = t.with_dirac(t.dirac)
    from dataclasses import replace

    assert identify_family(replace(scrambled, grading=-t.grading)) is None


# ------------------------------------------------------------ distance formulas

def test_fluctuated_distance_formula_values():
    assert fluctuated_distance_formula(C3_UNTWISTED, {"d1": 1.0}, 0.5) == pytest.approx(2.0)
    assert fluctuated_distance_formula(
        C3_PERM, {"d1": 1.0, "d2": 3.0}, 0.25) == pytest.approx(1.0 / 3.0)
    assert fluctuated_distance_formula(
        C4_PERM, {"d1": 1.0, "d2": 2.0}, 0.5) == pytest.approx(1.0)
    assert np.isinf(fluctuated_distance_formula(C3_UNTWISTED, {"d1": 1.0}, 1.0))


@pytest.mark.parametrize("bad", [2.5, "3", True, 3.0])
def test_scan_trials_must_be_an_integer(bad):
    with pytest.raises(ValueError, match=f"^trials must be an integer, got {bad!r}$"):
        scan_c2_nonexistence(bad, 0)
    report = scan_c2_nonexistence(np.int64(3), 0)
    assert report.trials == 3 and type(report.trials) is int
