import warnings

import numpy as np
import pytest

from twistriple.axioms import SpectralTriple, check_all
from twistriple.catalog import build_c3, build_c4, build_conformal
from twistriple.forms import (
    antihermitian_one_form,
    fluctuate,
    fluctuate_chiral,
    is_fluctuation_of,
    is_selfadjoint_form,
    omega1_equal,
    one_form,
    selfadjoint_one_form,
)
from twistriple.linalg import ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)
RNG = np.random.default_rng(815)


def rand_c(rng=RNG):
    return complex(rng.standard_normal(), rng.standard_normal())


# -------------------------------------------------------------------- one-forms

def test_zero_coefficients_give_zero_form():
    t = build_c3(1, 1.0)
    a = one_form(t, 0.0, 0.0)
    assert np.array_equal(a.value, np.zeros((3, 3)))
    assert is_selfadjoint_form(a)


def test_c3_one_form_entries():
    d1 = 1.5 - 0.5j
    t = build_c3(1, d1)
    phi1, phi2 = 0.25 + 1.0j, -2.0 + 0.5j
    a = one_form(t, phi1, phi2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2] = -phi1 * d1
    expected[2, 0] = phi2 * np.conj(d1)
    assert np.allclose(a.value, expected, atol=1e-14)


def test_c4_selfadjoint_form():
    t = build_c4(1, 1.0 - 1.0j, 0.5)
    phi = rand_c()
    a = one_form(t, phi, -np.conj(phi))
    assert is_selfadjoint_form(a, TOL12)
    assert np.allclose(a.value, a.value.conj().T)


def test_selfadjoint_criterion_matches_coefficients():
    t = build_c3(1, 1.0)
    assert not is_selfadjoint_form(one_form(t, 1.0, 1.0))
    # (1, 1) on d1 = 1: entries (0,2) = -1 and (2,0) = +1, not Hermitian
    a = one_form(t, 1.0, 1.0)
    assert a.value[0, 2] == -1.0 and a.value[2, 0] == 1.0
    for _ in range(20):
        phi = rand_c()
        assert is_selfadjoint_form(selfadjoint_one_form(t, phi), TOL12)


def test_one_form_off_diagonality():
    t = build_c4(-1, rand_c(), rand_c())
    e = np.diag([1.0, 1.0, 0.0, 0.0])
    a = one_form(t, rand_c(), rand_c()).value
    one = np.eye(4)
    assert np.allclose(e @ a @ e, 0.0, atol=1e-12)
    assert np.allclose((one - e) @ a @ (one - e), 0.0, atol=1e-12)


def test_one_form_needs_two_points():
    from twistriple.algebra import Representation
    from twistriple.axioms import SpectralTriple

    t = SpectralTriple(rep=Representation((0, 1, 2)), dirac=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        one_form(t, 1.0, 0.0)


# ----------------------------------------------------------------- fluctuations

def test_fluctuate_c3_untwisted_scales_d1():
    d1 = 1.25 - 0.5j
    phi = 0.5
    t = build_c3(1, d1)
    out = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
    assert out.dirac[0, 2] == pytest.approx((1 - phi) * d1)
    assert check_all(out, TOL12).passed


def test_fluctuate_c4_untwisted_scales_both():
    d1, d2 = rand_c(), rand_c()
    phi = rand_c()
    t = build_c4(1, d1, d2)
    out = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
    assert out.dirac[0, 2] == pytest.approx((1 - phi) * d1)
    assert out.dirac[1, 3] == pytest.approx((1 - phi) * d2)


def test_fluctuate_c3_perm_moves_only_d1_by_real_factor():
    t = build_c3(1, 1.0, 2.0, twist="perm")
    phi = 0.25 + 3.0j
    out = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
    factor = 1 - phi - np.conj(phi)
    assert out.dirac[0, 2] == pytest.approx(factor * 1.0)
    assert out.dirac[0, 1] == pytest.approx(2.0)


def test_fluctuate_requires_selfadjoint_form():
    t = build_c3(1, 1.0)
    with pytest.raises(ValueError):
        fluctuate(t, one_form(t, 1.0, 1.0))


def test_fluctuate_preserves_all_axioms():
    rng = np.random.default_rng(99)
    builders = [
        lambda: build_c3(1, rand_c(rng)),
        lambda: build_c3(-1, rand_c(rng)),
        lambda: build_c3(1, rng.standard_normal(), rng.standard_normal(), twist="perm"),
        lambda: build_c3(-1, 1j * rng.standard_normal(), 1j * rng.standard_normal(), twist="perm"),
        lambda: build_c4(1, rand_c(rng), rand_c(rng)),
        lambda: build_c4(-1, rand_c(rng), rand_c(rng), twist="perm"),
        lambda: build_conformal("c3", 1, rand_c(rng), rho=0.3, zeta=1.5),
        lambda: build_conformal("c4", -1, rand_c(rng), rand_c(rng), rho=0.7, zeta=0.5),
    ]
    for build in builders:
        t = build()
        out = fluctuate(t, selfadjoint_one_form(t, rand_c(rng)), TOL12)
        report = check_all(out, TOL12)
        assert report.passed, report.failing()
        assert np.allclose(out.dirac, out.dirac.conj().T, atol=1e-12)


# ----------------------------------------------------------- chiral fluctuations

def test_chiral_zero_form_is_identity():
    t = build_c4(1, 1.0, 2.0)
    out = fluctuate_chiral(t, antihermitian_one_form(t, 0.0))
    assert np.array_equal(out.dirac, t.dirac)


def test_chiral_requires_antihermitian_and_grading():
    t = build_c4(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        fluctuate_chiral(t, selfadjoint_one_form(t, 0.5))
    from dataclasses import replace

    ungraded = replace(t, grading=None)
    with pytest.raises(ValueError):
        fluctuate_chiral(ungraded, antihermitian_one_form(ungraded, 0.5))


def test_chiral_c3_coincides_with_gauge_family():
    # gamma maps the antihermitian form with coefficient phi to the
    # selfadjoint form with the same phi, so the orbits agree pointwise
    t = build_c3(1, 1.0 - 0.5j)
    phi = rand_c()
    chiral = fluctuate_chiral(t, antihermitian_one_form(t, phi), TOL12)
    plain = fluctuate(t, selfadjoint_one_form(t, phi), TOL12)
    assert np.allclose(chiral.dirac, plain.dirac, atol=1e-13)


def test_chiral_c4_parameters_from_direct_assembly():
    d1, d2 = 1.3 - 0.4j, 0.7 + 0.2j
    phi = 0.3 + 0.5j
    t = build_c4(1, d1, d2)
    out = fluctuate_chiral(t, antihermitian_one_form(t, phi), TOL12)
    assert out.dirac[0, 2] == pytest.approx((1 - phi) * d1)
    assert out.dirac[1, 3] == pytest.approx((1 + phi) * d2)
    assert check_all(out, TOL12).passed


# ------------------------------------------------------------------ omega1 span

def test_omega1_preserved_by_generic_fluctuation():
    t = build_c4(1, 1.0 - 2.0j, 0.5)
    out = fluctuate(t, selfadjoint_one_form(t, 0.25 - 0.125j))
    assert omega1_equal(t, out)


def test_omega1_preserved_by_conformal_rescaling_on_c3():
    from twistriple.conformal import ConformalFactor, rescale

    t = build_c3(1, 1.0 - 0.5j)
    assert omega1_equal(t, rescale(t, ConformalFactor(1.5, 0.3)))


def test_omega1_degenerates_at_phi_one():
    t = build_c3(1, 2.0)
    collapsed = fluctuate(t, selfadjoint_one_form(t, 1.0))
    assert np.allclose(collapsed.dirac, 0.0)
    assert not omega1_equal(t, collapsed)


def test_omega1_zero_calculus_differs():
    t = build_c3(1, 1.0)
    assert not omega1_equal(t, t.with_dirac(np.zeros((3, 3))))


# ------------------------------------------------------------- orbit membership

def test_is_fluctuation_of_round_trip():
    t = build_c4(1, 1.0 - 0.5j, 2.0)
    phi = 0.3 - 0.8j
    out = fluctuate(t, selfadjoint_one_form(t, phi))
    got = is_fluctuation_of(t, out)
    assert got is not None
    assert type(got[0]) is complex and type(got[1]) is complex
    assert got[0] == pytest.approx(phi)
    assert got[1] == pytest.approx(-np.conj(phi))


def test_fluctuations_compose_inside_the_orbit():
    rng = np.random.default_rng(31)
    t = build_c4(-1, rand_c(rng), rand_c(rng))
    for _ in range(20):
        f1 = fluctuate(t, selfadjoint_one_form(t, rand_c(rng)))
        f2 = fluctuate(f1, selfadjoint_one_form(f1, rand_c(rng)))
        assert is_fluctuation_of(t, f2) is not None


def test_composition_matches_phi_semigroup_law():
    t = build_c3(1, 1.0)
    p1, p2 = 0.3 + 0.1j, -0.5 + 0.25j
    f2 = fluctuate(fluctuate(t, selfadjoint_one_form(t, p1)),
                   selfadjoint_one_form(fluctuate(t, selfadjoint_one_form(t, p1)), p2))
    got = is_fluctuation_of(t, f2)
    assert got is not None
    assert got[0] == pytest.approx(p1 + p2 - p1 * p2)


def test_perturbing_only_d2_leaves_the_untwisted_orbit():
    t = build_c4(1, 1.0, 2.0)
    other = build_c4(1, 1.0, 2.5)
    assert is_fluctuation_of(t, other) is None


# --------------------------------------------------------- overflow and non-finite inputs

HUGE_C4 = (1, 1.7e308 * (1 + 0.5j), 1.7e308 * (0.3 - 1j))


@pytest.mark.parametrize("chiral", [False, True], ids=["fluctuate", "fluctuate_chiral"])
@pytest.mark.parametrize("phi,operation", [(-3 + 0.2j, "one_form"), (-0.9, None)])
def test_an_overflow_is_a_value_error_that_names_it_and_warns_nothing(chiral, phi, operation):
    # phi = -3+0.2j overflows the one-form itself; phi = -0.9 gives a finite one-form
    # whose fluctuation overflows (the chiral one does so for any phi here)
    t = build_c4(*HUGE_C4)
    make, fluctuation = (antihermitian_one_form, fluctuate_chiral) if chiral else (selfadjoint_one_form, fluctuate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            fluctuation(t, make(t, phi))
    assert str(info.value) == f"{operation or fluctuation.__name__} overflowed: " \
                              "its result has entries beyond the float range"


def test_a_one_form_of_a_non_finite_coefficient_keeps_the_constructors_message():
    t = build_c4(1, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            one_form(t, complex(np.inf, 0.0), 0.0)


@pytest.mark.parametrize("chiral", [False, True], ids=["fluctuate", "fluctuate_chiral"])
def test_a_form_test_whose_difference_overflows_gives_the_verdict_and_warns_nothing(chiral):
    # alpha - alpha^* of an antihermitian form (alpha + alpha^* of a selfadjoint one)
    # is 2 alpha, beyond the float range at these hops: far above any tolerance
    t = build_c4(*HUGE_C4)
    form = (selfadjoint_one_form if chiral else antihermitian_one_form)(t, 0.9)
    fluctuation = fluctuate_chiral if chiral else fluctuate
    kind = "an antihermitian" if chiral else "a selfadjoint"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_selfadjoint_form(antihermitian_one_form(t, 0.9))
        with pytest.raises(ValueError, match=f"requires {kind} one-form$"):
            fluctuation(t, form)
