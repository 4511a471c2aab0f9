"""check_all's conditions against a high-precision statement of each.

Six conditions are written here from the docstrings that state them, in
mpmath at 30 significant digits: dirac_selfadjoint (D = D^*),
grading_anticommutes_dirac (gamma D = -D gamma), twisted_order_one
([D,a] J nu^-2 b nu^2 J^-1 = J b J^-1 [D,a] over basis pairs), epsilon_prime
(D U conj(nu) = eps' nu U conj(D)), order_zero ([a, J b J^-1] = 0 over basis
pairs) and twisted_regularity (nu U conj(nu) = U, vacuous untwisted), with
J x J^-1 = U conj(x) U^* and operator norms from mp.svd_c. numpy only hands
over the entries of the triple's matrices; no numpy arithmetic enters the
oracle.

Each condition equates two terms. check_all's residual must lie within
1e-12 times the larger operator norm of the two (the largest over the basis
pairs), and its verdict must equal the oracle's wherever the oracle's
residual lies outside that band around the tolerance. Unlike the bitwise
reference tests, this pins what each condition states, not the order of
its floating-point operations.
"""

import numpy as np
import pytest
from mpmath import mp

from test_axioms import _random_matrix, random_hermitian
from twistriple.algebra import _point_projections
from twistriple.axioms import RealStructure, SpectralTriple, Twist, check_all
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_PERM_BAD,
    C4_UNTWISTED,
    build_c4_perm_conformal_composite,
    build_family,
)
from twistriple.linalg import DEFAULT_TOL, Antiunitary, ToleranceConfig

DPS = 30
BAND = 1e-12
TOLS = (DEFAULT_TOL, ToleranceConfig(abs_tol=1e-12), ToleranceConfig(abs_tol=1e-3))
SCALES = (1e-6, 1.0, 1e6)
KINDS = (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C3_CONFORMAL, C4_CONFORMAL,
         "composite", C4_PERM_BAD)


def _mp(m):
    """The entries of a numpy matrix as an mpmath matrix; each double converts exactly."""
    return mp.matrix([[mp.mpc(x) for x in row] for row in np.asarray(m).tolist()])


def _norm(m):
    """The operator norm: the largest singular value, 0 for an exactly zero matrix."""
    if all(m[i, j] == 0 for i in range(m.rows) for j in range(m.cols)):
        return mp.mpf(0)
    return max(mp.svd_c(m, compute_uv=False))


def _largest_entry(m):
    """The largest entry modulus, which bounds the operator norm from below."""
    return max(abs(m[i, j]) for i in range(m.rows) for j in range(m.cols))


def _statements(t):
    """{condition: [(left, right), ...]}: the condition states left = right for every pair."""
    d = _mp(t.dirac)
    basis = [_mp(b) for b in _point_projections(t.rep)]
    out = {"dirac_selfadjoint": [(d, d.H)]}
    if t.grading is not None:
        g = _mp(t.grading)
        out["grading_anticommutes_dirac"] = [(g * d, -(d * g))]
    if t.real is not None:
        u, nu, eps_prime = _mp(t.real.j.u), _mp(t.nu), t.real.signs.eps_prime

        def j(x):  # J x J^-1
            return u * x.conjugate() * u.H

        nu2 = nu * nu
        nu2_inv = mp.inverse(nu2)
        plain = [j(b) for b in basis]
        twisted = [j(nu2_inv * b * nu2) for b in basis]
        out["order_zero"] = [(a * jb, jb * a) for a in basis for jb in plain]
        out["twisted_order_one"] = [(da * jt, jb * da) for da in (d * a - a * d for a in basis)
                                    for jb, jt in zip(plain, twisted)]
        out["epsilon_prime"] = [(d * u * nu.conjugate(), eps_prime * nu * u * d.conjugate())]
        out["twisted_regularity"] = [] if t.twist is None else [(nu * u * nu.conjugate(), u)]
    return out


def _member(kind, eps, scale, rng):
    d1, d2 = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    if kind == C3_PERM:  # conj(d) = eps' d
        unit = 1.0 if eps == 1 else 1j
        return build_family(kind, eps, unit * d1.real, unit * d2.real)
    if kind in (C3_CONFORMAL, C4_CONFORMAL):
        return build_family(kind, eps, d1, None if kind == C3_CONFORMAL else d2, rho=0.3, zeta=1.4)
    if kind == "composite":
        return build_c4_perm_conformal_composite(eps, d1, d2, rho=0.2, zeta=1.1)
    return build_family(kind, eps, d1, None if kind in (C3_UNTWISTED, C4_PERM_BAD) else d2)


def _perturbed(t, rng):
    """t with every matrix moved by about 1e-3, as test_axioms' reference cases do."""
    n = t.dim
    return SpectralTriple(
        rep=t.rep, dirac=t.dirac + random_hermitian(n, rng) * 1e-3,
        grading=t.grading + _random_matrix(n, rng, 1e-3),
        real=RealStructure(j=Antiunitary(t.real.j.u + _random_matrix(n, rng, 1e-3)),
                           signs=t.real.signs),
        twist=Twist(t.nu + _random_matrix(n, rng, 1e-3),
                    implements_algebra_automorphism=t.twist is None
                    or t.twist.implements_algebra_automorphism))


def _agrees(reports, condition, want, band):
    """Whether check_all's residual lies within band of want, and its verdict at
    each tolerance equals want's wherever want lies outside the band around it."""
    got = mp.mpf(reports[0].entry(condition).residual)
    return abs(got - want) <= band and all(
        report.entry(condition).passed == (want <= tol.abs_tol)
        for tol, report in zip(TOLS, reports) if abs(want - tol.abs_tol) > band)


def _assert_agrees_with_the_statements(t):
    with mp.workdps(DPS):
        reports = [check_all(t, tol) for tol in TOLS]
        for condition, pairs in _statements(t).items():
            want = max((_norm(left - right) for left, right in pairs), default=mp.mpf(0))
            if mp.mpf(reports[0].entry(condition).residual) == want:
                continue  # equal residuals give equal verdicts at every tolerance
            # a band from the largest entries asks more, so the norms are needed only when it fails
            if not _agrees(reports, condition, want, BAND * max(
                    max(_largest_entry(left), _largest_entry(right)) for left, right in pairs)):
                band = BAND * max(max(_norm(left), _norm(right)) for left, right in pairs)
                assert _agrees(reports, condition, want, band), (
                    condition, reports[0].entry(condition).residual, float(want), float(band))


@pytest.mark.parametrize("kind", KINDS)
def test_check_all_agrees_with_the_statements_on_every_family(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for scale in SCALES:
        for eps in ((1,) if kind == C4_PERM_BAD else (1, -1)):
            _assert_agrees_with_the_statements(_member(kind, eps, scale, rng))


@pytest.mark.parametrize("kind", KINDS)
def test_check_all_agrees_with_the_statements_on_perturbed_members(kind):
    # one perturbed member per kind, its hop scale and eps' taken in turn, so
    # that every residual is nonzero and the worst basis pair matters
    k = KINDS.index(kind)
    rng = np.random.default_rng(100 + k)
    eps = 1 if kind == C4_PERM_BAD else (1, -1)[k % 2]
    t = _perturbed(_member(kind, eps, SCALES[k % 3], rng), rng)
    _assert_agrees_with_the_statements(t)
