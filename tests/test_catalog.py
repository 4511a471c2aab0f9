import math

import numpy as np
import pytest

from twistriple.algebra import REP_C2, projection_e
from twistriple.axioms import check_all
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_UNTWISTED,
    _SCAN_BLOCK,
    CatalogConstraintError,
    build_c3,
    build_c4,
    build_conformal,
    derive_family,
    fluctuated_distance_formula,
    fluctuation_orbit_params,
    identify_family,
    ScanReport,
    scan_c2_nonexistence,
)
from twistriple.forms import fluctuate, selfadjoint_one_form
from twistriple.linalg import DEFAULT_TOL, Antiunitary, ToleranceConfig, commutator, operator_norm

TOL12 = ToleranceConfig(abs_tol=1e-12, rank_tol=1e-9)
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
    for fam_id, build in [
        (C3_UNTWISTED, lambda b, eps: build_c3(eps, b[0, 2], b[0, 1])),
        (C4_PERM, lambda b, eps: build_c4(eps, b[0, 2], b[1, 3], twist="perm")),
    ]:
        for eps in (1, -1):
            fam = derive_family(fam_id, eps)
            for b in fam.basis:
                assert check_all(build(b, eps), TOL12).passed


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
        if fam == C3_UNTWISTED:
            t = build_c3(eps, d1)
        elif fam == C3_PERM:
            t = build_c3(eps, d1, d2, twist="perm")
        elif fam == C4_UNTWISTED:
            t = build_c4(eps, d1, d2)
        else:
            t = build_c4(eps, d1, d2, twist="perm")
        out = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
        nd1, nd2 = fluctuation_orbit_params(fam, d1, d2, phi)
        if fam == C3_UNTWISTED:
            ref = build_c3(eps, nd1)
        elif fam == C3_PERM:
            ref = build_c3(eps, nd1, nd2, twist="perm")
        elif fam == C4_UNTWISTED:
            ref = build_c4(eps, nd1, nd2)
        else:
            ref = build_c4(eps, nd1, nd2, twist="perm")
        assert np.max(np.abs(out.dirac - ref.dirac)) < 1e-12


# -------------------------------------------------------------- identification

def test_identify_family_round_trips():
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


def test_identify_family_recovers_conformal_rho():
    t = build_conformal("c4", 1, 1.0, 2.0, rho=0.4, zeta=1.5)
    family, params = identify_family(t)
    assert params["rho"] == pytest.approx(0.4)
    assert params["hop1"] == pytest.approx(1.5 ** 2 * 0.4 ** 2 * 1.0)


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
