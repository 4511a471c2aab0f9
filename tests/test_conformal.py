import warnings

import numpy as np
import pytest

from twistriple.axioms import SpectralTriple, check_all, check_grading, check_twisted_regularity, ko_dimension
from twistriple.catalog import (
    C3_CONFORMAL,
    C4_CONFORMAL,
    build_c3,
    build_c4,
    build_c4_perm_conformal_composite,
    build_family,
)
from twistriple.conformal import (
    ConformalFactor,
    TwistCompositionError,
    check_gauge_conformal_compat,
    equivalent_commutant_factor,
    rescale,
)
from twistriple.forms import omega1_equal
from twistriple.linalg import ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)
RNG = np.random.default_rng(4313)


def test_factor_validation():
    with pytest.raises(ValueError):
        ConformalFactor(zeta=1.0, rho=0.0)
    with pytest.raises(ValueError):
        ConformalFactor(zeta=1.0, rho=1.0)
    with pytest.raises(ValueError):
        ConformalFactor(zeta=-1.0, rho=0.5)
    with pytest.raises(ValueError):
        ConformalFactor(zeta=1.0, rho=0.5, side="elsewhere")


@pytest.mark.parametrize("zeta,rho", [(np.inf, 0.5), (np.nan, 0.5), (1.0, np.nan), (1.0, np.inf)])
def test_factor_rejects_non_finite(zeta, rho):
    with pytest.raises(ValueError):
        ConformalFactor(zeta=zeta, rho=rho)


def test_rescale_at_symmetric_point_is_central():
    # rho = 1/2 makes k a multiple of the identity: trivial twist, scalar rescale
    t = build_c3(1, 2.0)
    out = rescale(t, ConformalFactor(zeta=2.0, rho=0.5), TOL12)
    assert np.allclose(out.nu, np.eye(3), atol=1e-14)
    assert np.allclose(out.dirac, (2.0 ** 2) * 0.25 * t.dirac, atol=1e-12)


def test_rescale_c3_entries_and_twist():
    d1, eps, rho, zeta = 1.5 - 0.5j, 1, 0.25, 1.5
    t = build_c3(eps, d1)
    out = rescale(t, ConformalFactor(zeta=zeta, rho=rho), TOL12)
    z2 = zeta * zeta
    assert out.dirac[0, 2] == pytest.approx(z2 * rho * rho * d1)
    assert out.dirac[0, 1] == pytest.approx(z2 * rho * (1 - rho) * eps * np.conj(d1))
    assert np.allclose(out.nu, np.diag([1.0, (1 - rho) / rho, rho / (1 - rho)]), atol=1e-12)
    assert check_all(out, TOL12).passed


def test_rescale_c4_entries_and_computed_twist():
    d1, d2, eps, rho, zeta = 1.0 - 1.0j, 0.5 + 0.25j, -1, 0.4, 0.8
    t = build_c4(eps, d1, d2)
    out = rescale(t, ConformalFactor(zeta=zeta, rho=rho), TOL12)
    z2 = zeta * zeta
    assert out.dirac[0, 2] == pytest.approx(z2 * rho * rho * d1)
    assert out.dirac[1, 3] == pytest.approx(z2 * (1 - rho) * (1 - rho) * d2)
    assert out.dirac[0, 1] == pytest.approx(z2 * rho * (1 - rho) * eps * np.conj(d1))
    assert out.dirac[2, 3] == pytest.approx(z2 * rho * (1 - rho) * eps * np.conj(d2))
    # the twist comes out of embed(k)^-1 k_J, never from a printed table
    assert np.allclose(out.nu, np.diag([1.0, (1 - rho) / rho, rho / (1 - rho), 1.0]), atol=1e-12)
    assert check_all(out, TOL12).passed


def test_rescale_requires_real_structure():
    from dataclasses import replace

    t = replace(build_c3(1, 1.0), real=None)
    with pytest.raises(ValueError):
        rescale(t, ConformalFactor(1.0, 0.3))


def test_rescale_preserves_grading_and_ko_signs():
    t = build_c4(1, 1.0 - 0.25j, 0.5)
    out = rescale(t, ConformalFactor(1.25, 0.3), TOL12)
    assert np.array_equal(out.grading, t.grading)
    assert out.real is t.real
    assert ko_dimension(out.real.signs) == ko_dimension(t.real.signs)
    assert all(e.passed for e in check_grading(out, TOL12))


def test_squared_rescaled_dirac_diagonal_entries_c3():
    rng = np.random.default_rng(77)
    for _ in range(25):
        d1 = complex(rng.standard_normal(), rng.standard_normal())
        rho = rng.uniform(0.05, 0.95)
        zeta = rng.uniform(0.5, 2.0)
        t = build_c3(1, d1)
        out = rescale(t, ConformalFactor(zeta, rho))
        sq = out.dirac @ out.dirac
        z4d = zeta ** 4 * abs(d1) ** 2
        expected = [
            z4d * rho ** 2 * ((1 - rho) ** 2 + rho ** 2),
            z4d * rho ** 2 * (1 - rho) ** 2,
            z4d * rho ** 4,
        ]
        assert np.allclose(np.diag(sq).real, expected, atol=1e-9)


def test_derived_twist_is_selfadjoint_positive_and_regular():
    for space, build in (("c3", lambda: build_c3(1, 1.0 - 2.0j)),
                         ("c4", lambda: build_c4(1, 1.0 - 2.0j, 0.5 + 0.1j))):
        t = build()
        out = rescale(t, ConformalFactor(1.5, 0.2), TOL12)
        nu = out.nu
        assert np.allclose(nu, nu.conj().T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(nu) > 0)
        assert check_twisted_regularity(out, TOL12).passed


# ------------------------------------------------- algebra vs commutant factors

def test_equivalent_factor_symmetric_point():
    h = equivalent_commutant_factor(ConformalFactor(1.0, 0.5))
    assert h.zeta == pytest.approx(1.0)
    assert h.side == "commutant-image"


def test_equivalent_factor_xi_value():
    h = equivalent_commutant_factor(ConformalFactor(1.0, 0.8))
    assert h.zeta == pytest.approx(2.0)  # xi^2 = rho/(1-rho) = 4


def test_equivalent_factor_round_trip_identical_rescaling():
    rng = np.random.default_rng(21)
    for _ in range(20):
        eps = 1 if rng.random() < 0.5 else -1
        t = build_c3(eps, complex(rng.standard_normal(), rng.standard_normal()))
        k = ConformalFactor(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9))
        ra = rescale(t, k, TOL12)
        rc = rescale(t, equivalent_commutant_factor(k), TOL12)
        assert np.allclose(ra.dirac, rc.dirac, atol=1e-12)
        assert np.allclose(ra.nu, rc.nu, atol=1e-12)


def test_equivalent_factor_on_c4_needs_single_hop():
    # k_J has diagonal pattern (rho, 1-rho, rho, 1-rho); an embedded algebra
    # element is (x, x, y, y), so both hops cannot be matched at once. The
    # two-sided equivalence on C4 therefore requires d2 = 0 (or rho = 1/2).
    k = ConformalFactor(1.5, 0.3)
    h = equivalent_commutant_factor(k)
    single = build_c4(1, 1.0 - 0.5j, 0.0)
    assert np.allclose(rescale(single, k, TOL12).dirac, rescale(single, h, TOL12).dirac,
                       atol=1e-12)
    generic = build_c4(1, 1.0, 2.0)
    assert not np.allclose(rescale(generic, k, TOL12).dirac,
                           rescale(generic, h, TOL12).dirac, atol=1e-6)
    # each side is still a valid twisted triple on its own
    assert check_all(rescale(generic, h, TOL12), TOL12).passed


def test_equivalent_factor_requires_algebra_side():
    with pytest.raises(ValueError):
        equivalent_commutant_factor(ConformalFactor(1.0, 0.5, side="commutant-image"))


# ------------------------------------------------------------ twist composition

def test_two_conformal_steps_match_single_product_factor():
    t = build_c3(1, 1.5 - 0.5j)
    z1, r1, z2, r2 = 1.2, 0.3, 0.8, 0.6
    step = rescale(rescale(t, ConformalFactor(z1, r1), TOL12),
                   ConformalFactor(z2, r2), TOL12)
    top = r1 * r2
    bottom = (1 - r1) * (1 - r2)
    combined = ConformalFactor(z1 * z2 * (top + bottom), top / (top + bottom))
    single = rescale(t, combined, TOL12)
    assert np.allclose(step.dirac, single.dirac, atol=1e-12)
    assert np.allclose(step.nu, single.nu, atol=1e-12)


def test_perm_conformal_composition_rejected_off_symmetric_point():
    t = build_c4(1, 1.0, 2.0, twist="perm")
    with pytest.raises(TwistCompositionError):
        rescale(t, ConformalFactor(1.0, 0.3), TOL12)
    # at rho = 1/2 the conformal factor is central and composition is trivial
    ok = rescale(t, ConformalFactor(1.0, 0.5), TOL12)
    assert check_all(ok, TOL12).passed


@pytest.mark.parametrize("rho", [0.1, 0.25, 0.4, 0.6, 0.75, 0.9])
def test_product_of_conformal_and_permutation_twists_fails_regularity(rho):
    fixture = build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=rho)
    assert not check_twisted_regularity(fixture).passed


def test_product_twist_fixture_passes_at_symmetric_point():
    fixture = build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=0.5)
    assert check_twisted_regularity(fixture, TOL12).passed


# ---------------------------------------------- gauge/conformal compatibility

def test_compat_identity_with_zero_form():
    t = build_c3(1, 1.0 - 0.5j)
    assert check_gauge_conformal_compat(t, ConformalFactor(1.4, 0.35), 0.0, TOL12)


@pytest.mark.parametrize("space", ["c3", "c4"])
def test_compat_identity_random_parameters(space):
    rng = np.random.default_rng(53 if space == "c3" else 54)
    for _ in range(40):
        d1 = complex(rng.standard_normal(), rng.standard_normal())
        d2 = complex(rng.standard_normal(), rng.standard_normal())
        t = build_c3(1, d1) if space == "c3" else build_c4(1, d1, d2)
        k = ConformalFactor(rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.9))
        phi = complex(rng.standard_normal(), rng.standard_normal())
        assert check_gauge_conformal_compat(t, k, phi, TOL12)


def test_omega1_equal_under_rescaling_holds_on_c3_not_on_generic_c4():
    # a genuine asymmetry: on C4 the two hop entries pick up different
    # conformal weights (rho^2 vs (1-rho)^2), so the one-form span moves
    t3 = build_c3(1, 1.0 - 0.5j)
    assert omega1_equal(t3, rescale(t3, ConformalFactor(1.0, 0.3)))
    t4 = build_c4(1, 1.0, 2.0)
    assert not omega1_equal(t4, rescale(t4, ConformalFactor(1.0, 0.3)))
    # with a single nonzero hop the span cannot move
    t4single = build_c4(1, 1.0, 0.0)
    assert omega1_equal(t4single, rescale(t4single, ConformalFactor(1.0, 0.3)))


def test_rescaling_a_singular_twist_raises_a_linalg_error_naming_it():
    from dataclasses import replace

    from twistriple.axioms import Twist

    t = replace(build_c4(1, 3.0, 4.0), twist=Twist(np.diag([1.0, 1.0, 0.0, 0.0])))
    with pytest.raises(np.linalg.LinAlgError, match="^the twist nu is singular") as info:
        rescale(t, ConformalFactor(zeta=1.2, rho=0.3))
    assert isinstance(info.value, ValueError)


# --------------------------------------------------------- overflow and non-finite inputs

OVERFLOW = "^rescale overflowed: its result has entries beyond the float range$"
SIDES = ["algebra", "commutant-image"]


@pytest.mark.parametrize("side", SIDES)
def test_a_rescaling_that_overflows_is_a_value_error_that_names_it_and_warns_nothing(side):
    t = build_c4(1, 1e300 * (1 + 0.5j), 1e300 * (0.3 - 1j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            rescale(t, ConformalFactor(zeta=1e10, rho=0.3, side=side))


def test_a_twisted_rescaling_whose_invariance_test_overflows_names_it_and_warns_nothing():
    # k k_J is beyond the float range at zeta = 1e200, before any new D or nu is formed
    t = build_c4(1, 1.0, 2.0, twist="perm")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            rescale(t, ConformalFactor(zeta=1e200, rho=0.3))
        assert abs(rescale(t, ConformalFactor(zeta=1e100, rho=0.5)).dirac[0, 1]) == 2.0 * 0.25e200


@pytest.mark.parametrize("build", [
    lambda: build_family(C4_CONFORMAL, 1, 1e300 * (1 + 0.5j), 1e300 * (0.3 - 1j), rho=0.3, zeta=1e10),
    lambda: build_family(C3_CONFORMAL, -1, 1e300 * (1 + 0.5j), rho=0.3, zeta=1e10),
    lambda: build_c4_perm_conformal_composite(1, 1e300, 1e300, rho=0.3, zeta=1e10),
], ids=["c4_conformal", "c3_conformal", "composite"])
def test_catalog_members_that_overflow_name_the_rescaling(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            build()


@pytest.mark.parametrize("side", SIDES)
def test_a_rescaling_of_a_dirac_edited_to_nan_in_place_keeps_the_constructors_message(side):
    base = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j)
    t = SpectralTriple(base.rep, base.dirac.copy(), base.grading, base.real)
    t.dirac[0, 2] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            rescale(t, ConformalFactor(zeta=1.2, rho=0.3, side=side))
