import copy
import pickle

import numpy as np
import pytest

from twistriple.algebra import (
    REP_C2,
    REP_C3,
    REP_C4,
    _fixes_points,
    _point_projections,
    embed,
)
from twistriple.axioms import (
    RealStructure,
    SignTriple,
    SpectralTriple,
    Twist,
    _dirac_operands,
    check_all,
    check_epsilon_prime,
    check_grading,
    check_order_zero,
    check_twisted_order_one,
    check_twisted_regularity,
    is_irreducible,
    ko_dimension,
    order_one_residual,
)
from twistriple.catalog import (
    GAMMA3,
    GAMMA4,
    NU3_PERM,
    _C2_NU_CANDIDATES,
    _c2_j_stack,
    build_c3,
    build_c4,
    build_c4_perm_conformal_composite,
    build_conformal,
)
from twistriple.linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    Antiunitary,
    ToleranceConfig,
    commutant_dimension,
    commutator,
    operator_norm,
)

TOL12 = ToleranceConfig(abs_tol=1e-12)


def c2_triple(dirac, u=None, eps_prime=1, twist=None):
    real = None
    if u is not None:
        real = RealStructure(j=Antiunitary(u), signs=SignTriple(eps=1, eps_prime=eps_prime))
    return SpectralTriple(rep=REP_C2, dirac=np.asarray(dirac, dtype=complex),
                          real=real, twist=twist)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


# ------------------------------------------------------------ individual checks

def test_order_zero_c3_and_c4_catalog():
    assert check_order_zero(build_c3(1, 1.0 - 2.0j)).residual == 0.0
    assert check_order_zero(build_c4(1, 1.0 - 2.0j, 0.5 + 1.0j)).residual == 0.0


def test_order_zero_c2_identity_j():
    t = c2_triple(np.zeros((2, 2)), u=np.eye(2))
    assert check_order_zero(t).passed


def test_twisted_order_one_c4_catalog_any_parameters():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d1 = complex(rng.standard_normal(), rng.standard_normal())
        d2 = complex(rng.standard_normal(), rng.standard_normal())
        t = build_c4(-1, d1, d2, twist="perm")
        assert check_twisted_order_one(t, TOL12).passed


def test_involutive_twist_gives_identical_order_one_residual():
    rng = np.random.default_rng(2)
    d = random_hermitian(2, rng)
    untwisted = c2_triple(d, u=np.eye(2))
    twisted = c2_triple(d, u=np.eye(2),
                        twist=Twist(np.array([[0, 1], [1, 0]], dtype=complex),
                                    implements_algebra_automorphism=True))
    r1 = check_twisted_order_one(untwisted)
    r2 = check_twisted_order_one(twisted)
    assert r1.residual == r2.residual  # nu^2 = id exactly, so bitwise equality


def _catalog_stacks(rng):
    """Per dimension, the (D, U, nu) stacks of one member of every catalog family
    and fixture (random unit-scale parameters, both signs of eps'), followed by
    three random (Hermitian D, unitary U, Hermitian nu) so that residuals vary."""
    def c():
        return complex(rng.standard_normal(), rng.standard_normal())

    c3, c4 = [], []
    for eps in (1, -1):
        r = 1.0 if eps == 1 else 1j  # perm on C^3 needs conj(d) = eps' d
        c3 += [build_c3(eps, c()),
               build_c3(eps, r * rng.standard_normal(), r * rng.standard_normal(), twist="perm"),
               build_conformal("c3", eps, c(), rho=0.3, zeta=1.4)]
        c4 += [build_c4(eps, c(), c()),
               build_c4(eps, c(), c(), twist="perm"),
               build_conformal("c4", eps, c(), c(), rho=0.7, zeta=0.6),
               build_c4_perm_conformal_composite(eps, c(), c(), rho=0.2, zeta=1.1)]
    c4.append(build_c4(1, c(), twist="perm_bad"))
    for group in (c3, c4):
        n = group[0].dim
        extra = [(random_hermitian(n, rng), np.linalg.qr(random_hermitian(n, rng))[0],
                  random_hermitian(n, rng)) for _ in range(3)]
        ds, us, nus = zip(*[(t.dirac, t.real.j.u, t.nu) for t in group], *extra)
        yield group[0].algebra_basis(), np.array(ds), np.array(us), np.array(nus)


def test_stacked_order_one_residual_matches_per_matrix_calls():
    rng = np.random.default_rng(31)
    for basis, ds, us, nus in _catalog_stacks(rng):
        k = len(ds)
        aligned = order_one_residual(ds, us, nus, basis)
        # every D against every (U, nu): mismatched pairs give nonzero residuals
        crossed = order_one_residual(ds[:, None], us[None, :], nus[None, :], basis)
        single = np.array([[order_one_residual(ds[i], us[j], nus[j], basis) for j in range(k)]
                           for i in range(k)])
        assert isinstance(order_one_residual(ds[0], us[0], nus[0], basis), float)
        assert aligned.shape == (k,)
        assert crossed.shape == (k, k) and single.max() > 0.1
        atol = 1e-12 * single.max()
        np.testing.assert_allclose(aligned, np.diag(single), rtol=1e-12, atol=atol)
        np.testing.assert_allclose(crossed, single, rtol=1e-12, atol=atol)
    # the C^2 scan's layout: trial x J candidate x involutive twist
    d = np.array([random_hermitian(2, rng) for _ in range(4)])
    u = _c2_j_stack(rng.uniform(0.0, 2.0 * np.pi, size=(4, 2)))
    basis = c2_triple(d[0]).algebra_basis()
    stacked = order_one_residual(d[:, None, None], u[:, :, None], _C2_NU_CANDIDATES, basis)
    single = np.array([[[order_one_residual(d[i], u[i, j], nu, basis) for nu in _C2_NU_CANDIDATES]
                        for j in range(5)] for i in range(4)])
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-12 * single.max())


def test_order_one_fails_on_c2_with_nonzero_calculus():
    rng = np.random.default_rng(3)
    d = random_hermitian(2, rng)
    assert abs(d[0, 1]) > 1e-3
    t = c2_triple(d, u=np.eye(2))
    entry = check_twisted_order_one(t)
    # J e J^-1 = e, and [[D,e], e] has off-diagonal blocks of [D,e]
    assert not entry.passed


@pytest.mark.parametrize("eps_prime", [1, -1])
def test_epsilon_prime_c3_untwisted(eps_prime):
    t = build_c3(eps_prime, 0.5 - 1.5j)
    assert check_epsilon_prime(t, TOL12).passed


def test_epsilon_prime_c3_perm_real_parameters():
    t = build_c3(1, 1.0, 2.0, twist="perm")
    assert check_epsilon_prime(t, TOL12).passed


def test_epsilon_prime_c4_perm():
    t = build_c4(1, 2.0 - 1.0j, 1.0 + 1.0j, twist="perm")
    assert check_epsilon_prime(t, TOL12).passed
    # d3 = d2, d4 = d1 layout
    assert t.dirac[0, 1] == t.dirac[1, 3]
    assert t.dirac[2, 3] == t.dirac[0, 2]


def test_twisted_regularity_c4_antidiagonal_passes():
    t = build_c4(1, 1.0, 1.0, twist="perm")
    assert check_twisted_regularity(t, TOL12).passed


def test_twisted_regularity_block_swap_fails():
    t = build_c4(1, 1.0, 1.0, twist="perm_bad")
    assert not check_twisted_regularity(t).passed


def test_twisted_regularity_vacuous_untwisted():
    t = build_c3(1, 1.0)
    entry = check_twisted_regularity(t)
    assert entry.residual == 0.0 and entry.passed


def test_grading_c3_catalog():
    entries = check_grading(build_c3(1, 1.0 - 1.0j), TOL12)
    assert all(e.passed for e in entries)


def test_grading_c4_catalog():
    entries = check_grading(build_c4(1, 1.0, 2.0, twist="perm"), TOL12)
    assert all(e.passed for e in entries)


def test_grading_fails_for_diagonal_dirac_entry():
    t = build_c3(1, 1.0)
    bad = t.with_dirac(t.dirac + np.diag([1.0, 0, 0]))
    entries = check_grading(bad)
    failing = [e.condition for e in entries if not e.passed]
    assert failing == ["grading_anticommutes_dirac"]


# ------------------------------------------------------------------- check_all

def test_check_all_catalog_triples_pass():
    for eps in (1, -1):
        assert check_all(build_c3(eps, 1.0 - 0.5j), TOL12).passed
        assert check_all(build_c4(eps, 1.0 - 0.5j, 0.25 + 1.0j), TOL12).passed


def test_check_all_perm_bad_fails_exactly_regularity():
    report = check_all(build_c4(1, 1.0, 1.0, twist="perm_bad"), TOL12)
    assert report.failing() == ["twisted_regularity"]


def test_check_all_reports_non_selfadjoint_dirac():
    t = build_c3(1, 1.0)
    bad = t.with_dirac(t.dirac + np.array([[0, 0, 1j], [0, 0, 0], [0, 0, 0]]))
    report = check_all(bad)
    assert "dirac_selfadjoint" in report.failing()


def test_check_all_invariant_under_basis_permutation():
    rng = np.random.default_rng(4)
    t = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j, twist="perm")
    perm = rng.permutation(4)
    p = np.eye(4)[perm].astype(complex)
    conjugated = SpectralTriple(
        rep=t.rep if np.array_equal(perm, np.arange(4)) else t.rep.__class__(
            tuple(t.rep.point_of[j] for j in perm)),
        dirac=p @ t.dirac @ p.conj().T,
        grading=p @ t.grading @ p.conj().T,
        real=RealStructure(j=Antiunitary(p @ t.real.j.u @ p.T), signs=t.real.signs),
        twist=Twist(p @ t.twist.nu @ p.conj().T, implements_algebra_automorphism=True),
    )
    before = check_all(t, TOL12)
    after = check_all(conjugated, TOL12)
    assert before.passed and after.passed


def test_twist_flag_false_requires_involution():
    t = build_c3(1, 1.0, 2.0, twist="perm")
    report = check_all(t, TOL12)
    assert report.entry("twist_involutive").passed
    # breaking the involution must be flagged
    broken = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, real=t.real,
                            twist=Twist(2.0 * NU3_PERM, implements_algebra_automorphism=False))
    assert "twist_involutive" in check_all(broken).failing()


def test_twist_automorphism_flag_checked():
    # the C3 swap does not preserve the represented algebra, so with the flag
    # set the report must fail on exactly that entry
    t = build_c3(1, 1.0, 2.0, twist="perm")
    relabelled = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, real=t.real,
                                twist=Twist(NU3_PERM, implements_algebra_automorphism=True))
    assert "twist_preserves_algebra" in check_all(relabelled).failing()
    t4 = build_c4(1, 1.0, 2.0, twist="perm")
    assert check_all(t4, TOL12).entry("twist_preserves_algebra").passed


# ------------------------------------------- check_all against per-check norms

def _fixes_points_exactly(m, t):
    """Whether m is block diagonal over t's points, so that m^-1 b m = b for every point projection b."""
    point = np.asarray(t.rep.point_of)
    return not m[point[:, None] != point[None, :]].any()


def _reference_check_all(t, tol=DEFAULT_TOL, exact_twists=False):
    """check_all as it was written before the stacked norm: one operator_norm
    call per residual matrix. Returns the (condition, residual, tol_used) list.

    With exact_twists, a twist that fixes the points exactly takes the plain
    images: a nu^2 with a finite inverse the plain J-images in twisted order
    one, an invertible nu the exact 0.0 of twist_preserves_algebra."""
    entries = [("dirac_selfadjoint", operator_norm(t.dirac - t.dirac.conj().T), tol.abs_tol)]
    basis = t.algebra_basis()
    if t.grading is not None:
        g = t.grading
        eye = np.eye(t.dim, dtype=complex)
        entries += [
            ("grading_selfadjoint", operator_norm(g - g.conj().T), tol.abs_tol),
            ("grading_squares_to_identity", operator_norm(g @ g - eye), tol.abs_tol),
            ("grading_commutes_algebra", max(operator_norm(commutator(g, a)) for a in basis),
             tol.abs_tol),
            ("grading_anticommutes_dirac", operator_norm(g @ t.dirac + t.dirac @ g), tol.abs_tol),
        ]
        if t.twist is not None:
            nu2 = t.nu @ t.nu
            entries.append(("grading_commutes_nu_squared", operator_norm(commutator(nu2, g)),
                            tol.abs_tol))
        if t.real is not None:
            signs = t.real.signs
            if signs.eps_dprime is None:
                raise ValueError("graded triple with real structure needs the eps'' sign")
            u = t.real.j.u
            entries.append(("grading_j_sign",
                            operator_norm(g @ u - signs.eps_dprime * u @ np.conj(g)), tol.abs_tol))
    if t.real is not None:
        j = t.real.j
        entries.append(("j_unitary", j.unitary_defect(), tol.abs_tol))
        eps, eps_residual = j.squared_sign()
        entries.append(("j_squared_sign", eps_residual, tol.abs_tol))
        entries.append(("j_sign_matches", 0.0 if eps == t.real.signs.eps else 1.0, 0.5))
        worst = 0.0
        for a in basis:
            for b in basis:
                worst = max(worst, operator_norm(commutator(a, j.conjugate(b))))
        entries.append(("order_zero", worst, tol.abs_tol))
        try:
            nu2 = t.nu @ t.nu
            nu2_inv = np.linalg.inv(nu2)
            if exact_twists and _fixes_points_exactly(nu2, t) and np.isfinite(nu2_inv).all():
                nu2 = nu2_inv = np.eye(t.dim)
            worst = 0.0
            for a in basis:
                da = commutator(t.dirac, a)
                for b in basis:
                    diff = da @ j.conjugate(nu2_inv @ b @ nu2) - j.conjugate(b) @ da
                    worst = max(worst, operator_norm(diff))
            entries.append(("twisted_order_one", worst, tol.abs_tol))
        except np.linalg.LinAlgError:
            entries.append(("twisted_order_one", float("inf"), tol.abs_tol))
        u = j.u
        eps_res = t.dirac @ u @ np.conj(t.nu) - t.real.signs.eps_prime * t.nu @ u @ np.conj(t.dirac)
        entries.append(("epsilon_prime", operator_norm(eps_res), tol.abs_tol))
        if t.twist is None:
            entries.append(("twisted_regularity", 0.0, tol.abs_tol))
        else:
            nu = t.twist.nu
            entries.append(("twisted_regularity", operator_norm(nu @ u @ np.conj(nu) - u),
                            tol.abs_tol))
    if t.twist is not None:
        nu = t.twist.nu
        entries.append(("twist_selfadjoint", operator_norm(nu - nu.conj().T), tol.abs_tol))
        svals = np.linalg.svd(nu, compute_uv=False)
        invertible = svals[-1] > RANK_TOL * max(1.0, svals[0])
        entries.append(("twist_invertible", 0.0 if invertible else 1.0, 0.5))
        if t.twist.implements_algebra_automorphism:
            if invertible:
                nu_inv = np.linalg.inv(nu)
                worst = 0.0
                for a in basis:
                    m = nu_inv @ a @ nu
                    values = []
                    for p in range(t.rep.n_points):
                        idx = [i for i, q in enumerate(t.rep.point_of) if q == p]
                        values.append(np.mean([m[i, i] for i in idx]))
                    worst = max(worst, operator_norm(m - embed(t.rep, values)))
                if exact_twists and _fixes_points_exactly(nu, t):
                    worst = 0.0
                entries.append(("twist_preserves_algebra", worst, tol.abs_tol))
            else:
                entries.append(("twist_preserves_algebra", 1.0, 0.5))
        else:
            eye = np.eye(t.dim, dtype=complex)
            entries.append(("twist_involutive", operator_norm(nu @ nu - eye), tol.abs_tol))
    return entries


def _random_matrix(n, rng, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _reference_cases(rng):
    """Every family with both eps' at three scales, the two fixtures, the same
    triples with every matrix perturbed (so that every residual is nonzero and
    the worst basis pair matters), an ungraded C^2 triple without real
    structure, and exactly and nearly singular twists."""
    def c(scale):
        return scale * complex(rng.standard_normal(), rng.standard_normal())

    cases = []
    for scale in (1e-6, 1.0, 1e6):
        for eps in (1, -1):
            r = scale * (1.0 if eps == 1 else 1j)  # perm on C^3 needs conj(d) = eps' d
            cases += [build_c3(eps, c(scale)),
                      build_c3(eps, r * rng.standard_normal(), r * rng.standard_normal(),
                               twist="perm"),
                      build_c4(eps, c(scale), c(scale)),
                      build_c4(eps, c(scale), c(scale), twist="perm"),
                      build_conformal("c3", eps, c(scale), rho=0.3, zeta=1.4),
                      build_conformal("c4", eps, c(scale), c(scale), rho=0.7, zeta=0.6),
                      build_c4_perm_conformal_composite(eps, c(scale), c(scale), rho=0.2, zeta=1.1)]
        cases.append(build_c4(1, c(scale), twist="perm_bad"))
    perturbed = []
    for t in cases[:16]:
        n = t.dim
        perturbed.append(SpectralTriple(
            rep=t.rep, dirac=t.dirac + random_hermitian(n, rng) * 1e-3,
            grading=t.grading + _random_matrix(n, rng, 1e-3),
            real=RealStructure(j=Antiunitary(t.real.j.u + _random_matrix(n, rng, 1e-3)),
                               signs=t.real.signs),
            twist=Twist(t.nu + _random_matrix(n, rng, 1e-3),
                        implements_algebra_automorphism=t.twist is None
                        or t.twist.implements_algebra_automorphism)))
    cases += perturbed
    cases.append(c2_triple(random_hermitian(2, rng)))
    t4 = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j)
    for nu_diag in ([1, 1, 0, 0], [1, 1, 1e-160, 1e-160], [1, -1, 2, 1e-12]):
        for flag in (True, False):
            cases.append(SpectralTriple(rep=t4.rep, dirac=t4.dirac, grading=t4.grading,
                                        real=t4.real,
                                        twist=Twist(np.diag(nu_diag).astype(complex),
                                                    implements_algebra_automorphism=flag)))
    return cases


def _terms_norm(t, condition):
    """The larger operator norm of the two terms a condition equates (worst over
    basis pairs): test_oracle's band is 1e-12 times it."""
    d, basis = t.dirac, t.algebra_basis()
    if condition == "grading_anticommutes_dirac":
        return max(operator_norm(t.grading @ d), operator_norm(d @ t.grading))
    if condition == "twist_preserves_algebra":
        return max(max(operator_norm(np.linalg.inv(t.nu) @ a @ t.nu) for a in basis), 1.0)
    if condition == "epsilon_prime":
        u = t.real.j.u
        return max(operator_norm(d @ u @ np.conj(t.nu)), operator_norm(t.nu @ u @ np.conj(d)))
    nu2, j = t.nu @ t.nu, t.real.j
    return max(max(operator_norm(commutator(d, a) @ j.conjugate(np.linalg.inv(nu2) @ b @ nu2)),
                   operator_norm(j.conjugate(b) @ commutator(d, a))) for a in basis for b in basis)


def _assert_within_the_band(t, got, want):
    """got's residuals equal want's, or lie within test_oracle's band of them in
    the conditions the D map, the kept epsilon' factors or the exact twist rule
    compute, with equal verdicts wherever want lies outside the band around
    the tolerance."""
    for (c, r, used), (c_want, r_want, used_want) in zip(got, want):
        assert (c, used) == (c_want, used_want)
        if r != r_want:
            assert c in ("grading_anticommutes_dirac", "twisted_order_one", "epsilon_prime",
                         "twist_preserves_algebra")
            band = 1e-12 * _terms_norm(t, c)
            assert abs(r - r_want) <= band, (c, r, r_want, band)
            assert abs(r_want - used) <= band or (r <= used) == (r_want <= used)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, TOL12, ToleranceConfig(abs_tol=1e-3)])
def test_check_all_matches_per_check_reference(tol):
    # Bitwise, with the exact twist rule, except on the perturbed structures,
    # whose dense J-images and epsilon' factors check_all multiplies in another
    # order than the formulas: there the residuals lie within test_oracle's
    # band, with equal verdicts.
    cases = _reference_cases(np.random.default_rng(41))
    inf_cases = dense_cases = commuting_cases = 0
    for t in cases:
        want = _reference_check_all(t, tol)
        got = [(e.condition, e.residual, e.tol_used) for e in check_all(t, tol).entries]
        inf_cases += {c: r for c, r, _ in got}.get("twisted_order_one") == np.inf
        if t.grading is not None and (t.grading != np.diag(np.diagonal(t.grading))).any():
            dense_cases += 1
            _assert_within_the_band(t, got, want)
            continue
        assert got == _reference_check_all(t, tol, exact_twists=True)
        _assert_within_the_band(t, got, want)
        nu2 = t.nu @ t.nu
        commuting_cases += _fixes_points_exactly(nu2, t) and (nu2 != np.eye(t.dim)).any()
    assert inf_cases == 4  # exactly and nearly singular nu^2, both flags
    assert dense_cases == 16 and commuting_cases == 18  # 12 conformal members, 6 diagonal twists


def test_a_twist_whose_square_fixes_the_points_takes_the_plain_order_one_image():
    # a conformal twist's nu^2 is diagonal (the composite's is the identity),
    # so the twisted J-images are the plain ones, and twisted_order_one is
    # bitwise that of the untwisted triple; the formula through inv(nu^2)
    # leaves a roundoff residual that grows with |D| and fails at large hops
    rng = np.random.default_rng(3)
    fails_today = 0
    for scale in (1e-6, 1.0, 1e6, 1e150, 1e300):
        for eps in (1, -1, 1, -1):
            d1, d2 = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            rho, zeta = rng.uniform(0.1, 0.9, 2)
            for t in (build_conformal("c3", eps, d1, rho=rho, zeta=zeta),
                      build_conformal("c4", eps, d1, d2, rho=rho, zeta=zeta),
                      build_c4_perm_conformal_composite(eps, d1, d2, rho=rho, zeta=zeta)):
                got = check_all(t).entry("twisted_order_one")
                plain = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, real=t.real)
                assert got == check_all(plain).entry("twisted_order_one")
                today = dict((c, r) for c, r, _ in _reference_check_all(t))["twisted_order_one"]
                assert abs(got.residual - today) <= 1e-12 * _terms_norm(t, "twisted_order_one")
                fails_today += today > DEFAULT_TOL.abs_tol
    assert fails_today > 0


def _singular_twists():
    """c4_untwisted members twisted by an exactly or a nearly singular nu."""
    t4 = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j)
    return [SpectralTriple(rep=t4.rep, dirac=t4.dirac, grading=t4.grading, real=t4.real,
                           twist=Twist(np.diag(nu_diag).astype(complex)))
            for nu_diag in ([1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 1e-160, 1e-160])]


def test_public_checks_match_check_all():
    for t in _reference_cases(np.random.default_rng(42))[:40] + _singular_twists():
        report = check_all(t)
        singles = [check_order_zero(t), check_twisted_order_one(t), check_epsilon_prime(t),
                   check_twisted_regularity(t), *check_grading(t)]
        for e in singles:
            assert e == report.entry(e.condition)


def test_singular_twist_raises_in_the_order_one_kernel_only():
    for t in _singular_twists():
        with pytest.raises(np.linalg.LinAlgError):
            order_one_residual(t.dirac, t.real.j.u, t.nu, t.algebra_basis())
        assert check_twisted_order_one(t).residual == check_all(t).entry("twisted_order_one").residual == np.inf


def test_twist_inverse_is_a_fresh_writable_inverse():
    t = build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=0.3, zeta=1.2)
    twist = Twist(t.nu.copy())
    first, second = twist.inverse(), twist.inverse()
    assert first is not second
    for inverse in (first, second):
        assert inverse.flags.writeable and inverse.tobytes() == np.linalg.inv(twist.nu).tobytes()
    first[0, 0] = 99.0
    assert twist.inverse().tobytes() == second.tobytes()
    # a nu edited in place gives its own inverse
    twist.nu[0, 0] += 0.5
    assert twist.inverse().tobytes() == np.linalg.inv(twist.nu).tobytes() != second.tobytes()


def test_a_square_that_fixes_the_points_without_a_finite_inverse_gives_inf():
    # nu^2 commutes with every point projection, but is singular, or so nearly
    # singular that its inverse is not finite: twisted order one cannot be formed
    for t in _singular_twists()[1:]:
        nu2 = t.nu @ t.nu
        assert _fixes_points(nu2, REP_C4) and not (nu2 == np.eye(4)).all()
        with np.errstate(divide="ignore", over="ignore"):
            try:
                finite = np.isfinite(np.linalg.inv(nu2)).all()
            except np.linalg.LinAlgError:
                finite = False
        assert not finite
        for rescaled in (t, t.with_dirac(1e-12 * t.dirac), t.with_dirac(1e12 * t.dirac)):
            assert check_all(rescaled).entry("twisted_order_one").residual == np.inf


@pytest.mark.parametrize("kind", ["c3", "c4", "c3_perm", "c4_perm", "c3_conformal", "c4_conformal",
                                  "perm_bad", "composite", "moved", "ungraded", "unreal"])
def test_the_d_map_equals_the_term_formulas_on_the_unit_matrices(kind):
    # L is built as Kronecker forms; column m must be the residuals of the m-th
    # unit matrix E as the formulas give them: gamma E + E gamma and the order-one
    # differences of the J-images (the plain ones when nu^2 fixes the points)
    t = {"c3": lambda: build_c3(1, 1.0 - 0.5j), "c4": lambda: build_c4(-1, 1.0, 2.0),
         "c3_perm": lambda: build_c3(1, 1.0, 2.0, twist="perm"),
         "c4_perm": lambda: build_c4(1, 1.0, 2.0, twist="perm"),
         "c3_conformal": lambda: build_conformal("c3", -1, 1.0, rho=0.3, zeta=1.4),
         "c4_conformal": lambda: build_conformal("c4", 1, 1.0, 2.0, rho=0.7, zeta=0.6),
         "perm_bad": lambda: build_c4(1, 1.0, twist="perm_bad"),
         "composite": lambda: build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=0.2, zeta=1.1),
         }.get(kind, lambda: build_c4(1, 1.0, 2.0, twist="perm"))()
    if kind == "moved":  # a twist whose square moves the point projections
        t = SpectralTriple(t.rep, t.dirac, t.grading, t.real, Twist(t.nu + 0.3 * np.eye(4)))
    elif kind == "ungraded":
        t = SpectralTriple(t.rep, t.dirac, real=t.real, twist=t.twist)
    elif kind == "unreal":
        t = SpectralTriple(t.rep, t.dirac, t.grading, twist=t.twist)
    n, basis = t.dim, _point_projections(t.rep)
    dirac_map = _dirac_operands(t._structure)[0]
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    nu2 = t.nu @ t.nu
    nu = t.nu if (nu2 != np.eye(n)).any() and not _fixes_points_exactly(nu2, t) else np.eye(n)
    columns = []
    for e in units:
        parts = [] if t.grading is None else [t.grading @ e + e @ t.grading]
        if t.real is not None:
            u = t.real.j.u
            for a in basis:
                for b in basis:
                    j_twisted = u @ np.conj(np.linalg.inv(nu @ nu) @ b @ (nu @ nu)) @ u.conj().T
                    j_plain = u @ np.conj(b) @ u.conj().T
                    parts.append(commutator(e, a) @ j_twisted - j_plain @ commutator(e, a))
        columns.append(np.concatenate([p.ravel() for p in parts]) if parts else np.zeros(0))
    want = np.array(columns).T
    rows = n * n * ((t.grading is not None) + 4 * (t.real is not None))
    assert dirac_map.shape == want.shape == (rows, n * n)
    if kind == "moved":  # dense J-images, summed in another order
        np.testing.assert_allclose(dirac_map, want, rtol=0, atol=1e-15)
    else:
        assert (dirac_map == want).all()


def test_check_all_needs_eps_dprime_on_graded_real_triples():
    t = build_c3(1, 1.0 - 0.5j)
    unsigned = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading,
                              real=RealStructure(j=t.real.j, signs=SignTriple(eps=1, eps_prime=1)))
    for fn in (check_all, _reference_check_all, check_grading, check_order_zero,
               check_twisted_order_one, check_epsilon_prime, check_twisted_regularity):
        with pytest.raises(ValueError, match="eps''"):
            fn(unsigned)


def test_each_view_names_its_missing_structure():
    t = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j, twist="perm")
    unreal = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, twist=t.twist)
    for fn in (check_order_zero, check_twisted_order_one, check_epsilon_prime,
               check_twisted_regularity):
        with pytest.raises(ValueError, match="^triple has no real structure$"):
            fn(unreal)
    assert check_all(unreal, TOL12).passed  # check_all itself reports what applies
    ungraded = SpectralTriple(rep=t.rep, dirac=t.dirac, real=t.real, twist=t.twist)
    with pytest.raises(ValueError, match="^triple has no grading$"):
        check_grading(ungraded)
    assert check_twisted_order_one(ungraded) == check_all(ungraded).entry("twisted_order_one")


def _kron_commutant_dimension(gens, tol=DEFAULT_TOL):
    """The commutant dimension with one np.kron pair per generator."""
    n = gens[0].shape[0]
    eye = np.eye(n, dtype=complex)
    m = np.vstack([np.kron(eye, g) - np.kron(g.T, eye) for g in gens])
    s = np.linalg.svd(m, compute_uv=False)
    return n * n - int(np.sum(s > RANK_TOL * (s[0] if s[0] > RANK_TOL else 1.0)))


def test_is_irreducible_matches_kron_reference_on_every_family():
    verdicts = set()
    for t in _reference_cases(np.random.default_rng(43)):
        basis = t.algebra_basis()
        gens = ([] if t.grading is None else [t.grading]) + basis
        gens += [commutator(t.dirac, b) for b in basis]
        verdicts.add(is_irreducible(t))
        assert is_irreducible(t) == (_kron_commutant_dimension(gens) == 1)
        assert commutant_dimension(gens) == _kron_commutant_dimension(gens)
    assert verdicts == {True, False}


# ---------------------------------------------------------------- KO dimension

@pytest.mark.parametrize("signs,expected", [
    (SignTriple(1, 1, 1), 0),
    (SignTriple(1, -1), 1),
    (SignTriple(-1, 1, -1), 2),
    (SignTriple(-1, 1), 3),
    (SignTriple(-1, 1, 1), 4),
    (SignTriple(-1, -1), 5),
    (SignTriple(1, 1, -1), 6),
    (SignTriple(1, 1), 7),
])
def test_ko_dimension_table(signs, expected):
    assert ko_dimension(signs) == expected


def test_ko_dimension_parity_matches_grading():
    for signs, n in [
        (SignTriple(1, 1, 1), 0), (SignTriple(-1, 1, -1), 2),
        (SignTriple(-1, 1, 1), 4), (SignTriple(1, 1, -1), 6),
    ]:
        assert ko_dimension(signs) % 2 == 0
    for signs in [SignTriple(1, -1), SignTriple(-1, 1), SignTriple(-1, -1), SignTriple(1, 1)]:
        assert ko_dimension(signs) % 2 == 1


def test_ko_dimension_rejects_absent_combination():
    with pytest.raises(ValueError):
        ko_dimension(SignTriple(1, -1, 1))


def test_sign_triple_is_an_immutable_value():
    s = SignTriple(eps=1, eps_prime=1, eps_dprime=1)
    assert repr(s) == "SignTriple(eps=1, eps_prime=1, eps_dprime=1)"
    assert repr(SignTriple(-1, 1)) == "SignTriple(eps=-1, eps_prime=1, eps_dprime=None)"
    assert s == SignTriple(1.0, 1, 1.0) and hash(s) == hash(SignTriple(1, 1, 1))
    assert s != SignTriple(1, 1) and s != SignTriple(1, -1, 1) and s != (1, 1, 1)
    assert len({s, SignTriple(1, 1, 1), SignTriple(1, 1)}) == 2
    for name in ("eps", "eps_prime", "eps_dprime", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, -1)
    with pytest.raises(AttributeError):
        del s.eps
    assert (s.eps, s.eps_prime, s.eps_dprime) == (1, 1, 1)
    assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(ValueError, match="signs must be"):
        SignTriple(1, 0)
    with pytest.raises(ValueError, match="signs must be"):
        SignTriple(1, 1, 2)


@pytest.mark.parametrize("bad", [1.5, -1.0000001, 0.9999999, "1", "-1", float("nan"), True, False])
def test_sign_triple_rejects_values_that_are_not_plus_or_minus_one(bad):
    for args in ((bad, 1), (1, bad), (1, 1, bad)):
        with pytest.raises(ValueError, match="^signs must be \\+1 or -1$"):
            SignTriple(*args)


def test_sign_triple_stores_float_signs_as_ints():
    s = SignTriple(1.0, -1.0, np.float64(1.0))
    assert (s.eps, s.eps_prime, s.eps_dprime) == (1, -1, 1)
    assert all(type(v) is int for v in (s.eps, s.eps_prime, s.eps_dprime))


# -------------------------------------------------------------- irreducibility

def test_c2_with_nonzero_calculus_and_no_real_structure_is_irreducible():
    d = np.array([[0.5, 2.0], [2.0, -0.25]], dtype=complex)
    assert is_irreducible(c2_triple(d))


def test_zero_dirac_is_reducible():
    t = build_c3(1, 1.0).with_dirac(np.zeros((3, 3)))
    assert not is_irreducible(t)


def test_catalog_generators_leave_a_two_dimensional_commutant():
    # brute force (see test_linalg.brute_commutant_dim) gives dimension 2 for
    # the generator set {gamma, e, 1-e, [D, e]}: diag(a, b, a) commutes with
    # every generator, so the catalog triples are reducible in this sense.
    t = build_c3(1, 1.0 - 0.5j)
    assert not is_irreducible(t)
    t4 = build_c4(1, 1.0, 2.0)
    assert not is_irreducible(t4)


def test_irreducibility_verdicts_do_not_depend_on_the_scale_of_d():
    # The commutant is solved on the point-block unknowns, so no projection
    # row falls under the relative rank cutoff at large |D|. At s = 1e-12 the
    # [D, a] rows fall under the absolute cutoff RANK_TOL instead and the C^2
    # verdict is still False; that defect is not asserted here.
    d = np.array([[0.3, 1 + 0.5j], [1 - 0.5j, -0.2]])
    for s in (1e-6, 1.0, 1e6, 1e9, 1e12):
        assert is_irreducible(c2_triple(s * d)), s
    for s in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        for t in (build_c3(1, s * (1 - 0.5j)), build_c3(-1, s * 0.7j, s * 1.3j, twist="perm"),
                  build_c4(1, s * (1 + 0.2j), s * (0.5 - 1j)),
                  build_c4(-1, s * 1j, s * 2j, twist="perm")):
            assert not is_irreducible(t), (s, t.dirac)
            if s == 1.0:  # at |D| ~ 1 the full generator set gives the same verdict
                basis = t.algebra_basis()
                gens = [t.grading] + basis + [commutator(t.dirac, b) for b in basis]
                assert _kron_commutant_dimension(gens) > 1
    basis = c2_triple(d).algebra_basis()
    assert _kron_commutant_dimension(basis + [commutator(d, b) for b in basis]) == 1


def test_irreducibility_with_a_diagonal_grading_does_not_depend_on_the_scale_of_d(monkeypatch):
    # A diagonal grading restricts the unknowns to its eigenspaces in each
    # point block instead of adding rows, so its O(1) rows cannot fall under
    # the relative rank cutoff at large |D|.
    rng = np.random.default_rng(0)
    draws = []
    for rep, gamma in ((REP_C3, GAMMA3), (REP_C4, GAMMA4)):
        for _ in range(10):
            m = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
            draws.append((rep, gamma, m + m.conj().T))
    for rep, gamma, d in draws:
        for s in (1e-6, 1.0, 1e6, 1e9, 1e12):
            assert is_irreducible(SpectralTriple(rep, s * d, grading=gamma)), (rep, s)
        basis = list(_point_projections(rep))
        assert _kron_commutant_dimension([gamma] + basis + [commutator(d, b) for b in basis]) == 1
    for s in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        for t in (build_c3(1, s * (1 - 0.5j)), build_c3(-1, s * 0.7j, s * 1.3j, twist="perm"),
                  build_c4(1, s * (1 + 0.2j), s * (0.5 - 1j)), build_c4(-1, s * 1j, s * 2j, twist="perm")):
            assert not is_irreducible(t), (s, t.dirac)
    # a unitary that commutes with the algebra makes GAMMA4 non-diagonal and
    # sends the triple down the general path, which gives the same verdicts at s = 1
    v1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = np.block([[v1, np.zeros((2, 2))], [np.zeros((2, 2)), v2]])
    conj_gamma = u @ GAMMA4 @ u.conj().T
    assert np.count_nonzero(conj_gamma - np.diag(np.diagonal(conj_gamma))) > 0
    verdicts = set()
    for d in [d for rep, _, d in draws if rep is REP_C4] + [build_c4(1, 1 + 0.2j, 0.5 - 1j).dirac]:
        want = is_irreducible(SpectralTriple(REP_C4, d, grading=GAMMA4))
        assert is_irreducible(SpectralTriple(REP_C4, u @ d @ u.conj().T, grading=conj_gamma)) is want
        verdicts.add(want)
    assert verdicts == {True, False}
    # the C^4 commutant is solved on the 4 entries of the (point, grading) blocks, with no gamma rows
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    is_irreducible(build_c4(1, 1 + 0.2j, 0.5 - 1j))
    assert shapes == [(32, 4)]


# ------------------------------------------------------- boundary validation

def test_constructor_rejects_a_real_structure_or_twist_of_another_dimension():
    t = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j, twist="perm")
    with pytest.raises(ValueError, match="^real structure dimension mismatch$"):
        SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading,
                       real=RealStructure(j=Antiunitary(np.eye(3)), signs=t.real.signs))
    with pytest.raises(ValueError, match="^twist dimension mismatch$"):
        SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, real=t.real,
                       twist=Twist(np.eye(3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_constructors_reject_non_finite_entries(bad):
    # the kernels do not check finiteness, so every constructor must
    t = build_c3(1, 1.0, twist="perm")
    poisoned = t.dirac.copy()
    poisoned[0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        t.with_dirac(poisoned)
    # with_dirac's own path words its errors as the constructor does
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        t.with_dirac(poisoned)
    with pytest.raises(ValueError, match="^Dirac operator dimension does not match the representation$"):
        t.with_dirac(poisoned[:2, :2])
    grading = t.grading.copy()
    grading[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SpectralTriple(rep=t.rep, dirac=t.dirac, grading=grading)
    nu = NU3_PERM.copy()
    nu[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Twist(nu, implements_algebra_automorphism=False)
    u = t.real.j.u.copy()
    u[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Antiunitary(u)
