import math

import numpy as np
import pytest

from twistriple.algebra import embed
from twistriple.catalog import build_c3, build_c4, build_c4_perm_conformal_composite, build_conformal
from twistriple.distance import (
    _ORACLE_BLOCK,
    distance_bruteforce,
    fluctuated_distance_check,
    spectral_distance,
)
from twistriple.forms import fluctuate, selfadjoint_one_form
from twistriple.linalg import Antiunitary, ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)


def test_distance_c3():
    assert spectral_distance(build_c3(1, 2.0)).value == pytest.approx(0.5)


def test_distance_c4_max_of_hops():
    r = spectral_distance(build_c4(1, 3.0, 4.0))
    assert r.value == pytest.approx(0.25)
    assert r.norm_de == pytest.approx(4.0)


def test_distance_zero_dirac_unbounded():
    t = build_c4(1, 0.0, 0.0)
    r = spectral_distance(t)
    assert r.unbounded and math.isinf(r.value)


def test_distance_conformal_c3():
    # 1 / (rho^2 zeta^2 |d1|) over a parameter grid
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
        for zeta in (0.5, 1.0, 2.0):
            t = build_conformal("c3", 1, 1.25, rho=rho, zeta=zeta)
            expected = 1.0 / (rho ** 2 * zeta ** 2 * 1.25)
            assert spectral_distance(t).value == pytest.approx(expected, rel=1e-12)


def test_distance_scales_inversely_with_dirac():
    t = build_c4(1, 1.0 - 2.0j, 0.5)
    base = spectral_distance(t).value
    scaled = spectral_distance(t.with_dirac(3.0 * t.dirac)).value
    assert scaled == pytest.approx(base / 3.0)


def test_distance_unitary_conjugation_invariance():
    rng = np.random.default_rng(17)
    t = build_c4(1, 1.0 - 2.0j, 0.5 + 0.5j, twist="perm")
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(m)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    from dataclasses import replace

    from twistriple.axioms import RealStructure, Twist

    conj = replace(
        t,
        dirac=u @ t.dirac @ u.conj().T,
        grading=u @ t.grading @ u.conj().T,
        real=RealStructure(j=Antiunitary(u @ t.real.j.u @ u.T), signs=t.real.signs),
        twist=Twist(u @ t.twist.nu @ u.conj().T, implements_algebra_automorphism=True),
    )
    # the conjugated triple is no longer diagonal, so compute the effective
    # norms directly from the definition of the metric ball
    from twistriple.algebra import projection_e

    e = projection_e(t.rep)
    ec = u @ e @ u.conj().T
    plain = np.linalg.norm(conj.dirac @ ec - ec @ conj.dirac, 2)
    nu = conj.twist.nu
    twisted = np.linalg.norm(conj.dirac @ ec - nu @ ec @ np.linalg.inv(nu) @ conj.dirac, 2)
    got = 1.0 / max(plain, twisted)
    assert got == pytest.approx(spectral_distance(t).value, rel=1e-12)


def test_permutation_twist_distance_sees_both_parameters():
    # the twisted derivative D e - nu e nu^-1 D carries the block entry d2,
    # so the metric ball is cut by max(|d1|, |d2|)
    t = build_c3(1, 1.0, 3.0, twist="perm")
    r = spectral_distance(t)
    assert r.norm_de == pytest.approx(1.0)
    assert r.norm_twisted == pytest.approx(3.0)
    assert r.value == pytest.approx(1.0 / 3.0)


def test_conformal_twist_does_not_change_the_ball():
    t = build_conformal("c4", 1, 2.0, 1.0, rho=0.3, zeta=1.0)
    r = spectral_distance(t)
    assert r.norm_twisted == pytest.approx(r.norm_de, rel=1e-12)
    assert r.value == pytest.approx(1.0 / r.norm_de, rel=1e-12)


# ------------------------------------------------------------------ brute force

def test_bruteforce_matches_closed_form():
    t = build_c3(1, 1.0)
    assert distance_bruteforce(t, 1000, 7) == pytest.approx(1.0, rel=1e-6)
    t = build_c4(1, 1.0, 2.0)
    assert distance_bruteforce(t, 1000, 7) == pytest.approx(0.5, rel=1e-6)


def test_bruteforce_invariant_under_phase_of_d1():
    a = distance_bruteforce(build_c3(1, 1.5), 300, 3)
    b = distance_bruteforce(build_c3(1, 1.5 * np.exp(0.75j)), 300, 3)
    assert a == pytest.approx(b, rel=1e-9)


def test_bruteforce_rejects_degenerate_calculus():
    with pytest.raises(ValueError):
        distance_bruteforce(build_c4(1, 0.0, 0.0), 100, 1)


def test_bruteforce_agrees_on_twisted_triples():
    rng = np.random.default_rng(23)
    for _ in range(10):
        t = build_c3(1, rng.standard_normal(), rng.standard_normal(), twist="perm")
        expected = spectral_distance(t).value
        assert distance_bruteforce(t, 400, 11) == pytest.approx(expected, rel=1e-6)


def _bruteforce_reference(t, samples, seed):
    """The sample-by-sample oracle: one embedded element and one norm pair per sample."""
    nu_inv = None
    if t.twist is not None:
        nu_inv = np.linalg.inv(t.twist.nu)

    def boundary_value(cp, cm):
        a = embed(t.rep, (cp, cm))
        norms = [np.linalg.norm(t.dirac @ a - a @ t.dirac, 2)]
        if nu_inv is not None:
            nua = t.twist.nu @ a @ nu_inv
            norms.append(np.linalg.norm(t.dirac @ a - nua @ t.dirac, 2))
        worst = max(norms)
        if worst <= 0.0:
            return 0.0
        return abs(cp - cm) / worst

    rng = np.random.default_rng(seed)
    best = 0.0
    generic = min(samples, 50)
    for _ in range(generic):
        cp = complex(rng.standard_normal(), rng.standard_normal())
        cm = complex(rng.standard_normal(), rng.standard_normal())
        if abs(cp - cm) < 1e-12:
            continue
        best = max(best, boundary_value(cp, cm))
    for _ in range(samples - generic):
        w = complex(rng.standard_normal(), rng.standard_normal())
        if abs(w) < 1e-12:
            continue
        best = max(best, boundary_value(w / 2.0, -w / 2.0))
    if best == 0.0:
        raise ValueError("degenerate calculus: every sampled derivative vanished")
    return best


ORACLE_TRIPLES = [
    build_c3(1, 1.5 - 0.5j),
    build_c3(-1, 0.7j, -1.2j, twist="perm"),
    build_c4(-1, 2.0 + 1.0j, 0.3 - 0.4j),
    build_c4(1, 0.5 + 0.5j, -1.5j, twist="perm"),
    build_conformal("c3", -1, 1.0 - 2.0j, rho=0.3, zeta=1.7),
    build_conformal("c4", 1, 1.0, 2.0 + 1.0j, rho=0.8, zeta=0.6),
    build_c4(1, 1.0 - 0.5j, twist="perm_bad"),
    build_c4_perm_conformal_composite(1, 0.4 + 1.0j, 1.1, rho=0.2, zeta=1.3),
]


@pytest.mark.parametrize("samples", [1, 50, 51, 300, _ORACLE_BLOCK + 7])
def test_bruteforce_matches_sample_by_sample_reference(samples):
    for i, t in enumerate(ORACLE_TRIPLES):
        expected = _bruteforce_reference(t, samples, seed=100 + i)
        assert distance_bruteforce(t, samples, seed=100 + i) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("hop", [1e-200, 1e200])
def test_bruteforce_matches_reference_at_extreme_hops(hop):
    # the Gram matrices of these derivatives over- or underflow unless each
    # matrix is scaled first
    triples = [build_c4(1, hop * (0.5 + 0.5j), -1.5j * hop, twist="perm"),
               build_conformal("c4", 1, hop, (2.0 + 1.0j) * hop, rho=0.8, zeta=0.6),
               build_c3(-1, hop * (1.5 - 0.5j))]
    for i, t in enumerate(triples):
        expected = _bruteforce_reference(t, 300, seed=300 + i)
        assert distance_bruteforce(t, 300, seed=300 + i) == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------------- fluctuated forms

def test_fluctuated_distance_c3_untwisted():
    t = build_c3(1, 1.0)
    assert fluctuated_distance_check(t, 0.5, TOL12)
    out = fluctuate(t, selfadjoint_one_form(t, 0.5))
    assert spectral_distance(out).value == pytest.approx(2.0)


def test_fluctuated_distance_c3_perm_formula():
    t = build_c3(1, 1.0, 3.0, twist="perm")
    assert fluctuated_distance_check(t, 0.25, TOL12)
    out = fluctuate(t, selfadjoint_one_form(t, 0.25))
    assert spectral_distance(out).value == pytest.approx(1.0 / 3.0)


def test_fluctuated_distance_zero_phi_unchanged():
    for t in (build_c3(1, 1.25), build_c4(1, 1.0, 2.0),
              build_c3(1, 1.0, 3.0, twist="perm")):
        before = spectral_distance(t).value
        assert fluctuated_distance_check(t, 0.0, TOL12)
        after = spectral_distance(fluctuate(t, selfadjoint_one_form(t, 0.0))).value
        assert after == pytest.approx(before)


def test_fluctuated_distance_unknown_shape_rejected():
    from twistriple.axioms import SpectralTriple
    from twistriple.algebra import REP_C2

    t = SpectralTriple(rep=REP_C2, dirac=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        fluctuated_distance_check(t, 0.5)


def test_singular_twist_raises_a_linalg_error_naming_it():
    from dataclasses import replace

    from twistriple.axioms import Twist
    from twistriple.catalog import NU4_PERM

    t = replace(build_c4(1, 3.0, 4.0), twist=Twist(np.diag([1.0, 1.0, 0.0, 0.0])))
    with pytest.raises(np.linalg.LinAlgError, match="^the twist nu is singular") as info:
        spectral_distance(t)
    assert isinstance(info.value, ValueError)
    # the oracle inverts only a twist that does not commute with the point projections
    assert distance_bruteforce(t, 10, 0) == pytest.approx(0.25)
    t = replace(t, twist=Twist(NU4_PERM * [[1.0], [1.0], [1.0], [0.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="^the twist nu is singular"):
        distance_bruteforce(t, 10, 0)


@pytest.mark.parametrize("bad", [2.5, "3", True, 3.0])
def test_bruteforce_samples_must_be_an_integer(bad):
    t = build_c4(1, 1.0, 2.0)
    with pytest.raises(ValueError, match=f"^samples must be an integer, got {bad!r}$"):
        distance_bruteforce(t, bad, 0)
    assert distance_bruteforce(t, np.int64(3), 0) == distance_bruteforce(t, 3, 0)


def test_a_twist_that_fixes_the_points_has_the_plain_derivative_exactly():
    # nu e nu^-1 = e exactly for every conformal twist (algebra._fixes_points), so the
    # twisted derivative is [D, e] and its norm is norm_de, bit for bit
    from dataclasses import replace

    from twistriple.axioms import Twist
    from twistriple.catalog import C3_CONFORMAL, C4_CONFORMAL, build_family

    from twistriple.linalg import operator_norm

    rng = np.random.default_rng(17)
    rounded = 0
    for family in (C3_CONFORMAL, C4_CONFORMAL):
        for eps in (1, -1):
            for scale in (1e-6, 1.0, 1e6) * 10:
                d1, d2 = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                rho, zeta = rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)
                t = build_family(family, eps, d1, None if family == C3_CONFORMAL else d2, rho=rho, zeta=zeta)
                result = spectral_distance(t)
                assert result.norm_twisted == result.norm_de
                assert result.value == 1.0 / result.norm_de
                # the formula through nu^-1 rounds: it differs from norm_de on some members
                e = t.algebra_basis()[0]
                formula = operator_norm(t.dirac @ e - t.nu @ e @ np.linalg.inv(t.nu) @ t.dirac)
                assert formula == pytest.approx(result.norm_de, rel=1e-12)
                rounded += formula != result.norm_de
    assert rounded > 0
    # a singular diagonal twist still has no inverse, so no twisted derivative
    t = replace(build_c4(1, 3.0, 4.0), twist=Twist(np.diag([2.0, 2.0, 0.0, 1.0])))
    with pytest.raises(np.linalg.LinAlgError, match="^the twist nu is singular"):
        spectral_distance(t)
