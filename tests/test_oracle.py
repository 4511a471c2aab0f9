"""check_all, the distance and the operations against a high-precision statement of each.

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

The distance, fluctuate, fluctuate_chiral and rescale are written the same
way, from their docstrings, in the last part of this file.
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
from twistriple.conformal import ConformalFactor, TwistCompositionError, rescale
from twistriple.distance import spectral_distance
from twistriple.forms import antihermitian_one_form, fluctuate, fluctuate_chiral, selfadjoint_one_form
from twistriple.linalg import DEFAULT_TOL, RANK_TOL, Antiunitary, ToleranceConfig

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


# ------------------------------------------------------- distance and operations
#
# The distance module's docstring: the plain derivative [D, e], with a twist
# also the twisted derivative D e - (nu e nu^-1) D, and the distance 1/max of
# their norms, unbounded when that norm lies below RANK_TOL. fluctuate:
# D + A + eps' nu J A J^-1 nu with A = (phi e - conj(phi)(1-e)) [D, e].
# fluctuate_chiral: gamma A in place of A, with the antihermitian
# A = (phi e + conj(phi)(1-e)) [D, e]. rescale (algebra side): k_J D k_J with
# k = zeta (rho e + (1-rho)(1-e)) and k_J = J k J^-1; the twist k^-1 k_J when
# untwisted, else k_J nu k^-1, which exists only when k k_J is nu-invariant to
# abs_tol (1 + ||k k_J||).



class _Operands:
    """A triple's matrices in mpmath, each converted once: D, e, 1 - e, [D, e], U, nu, nu^-1, gamma."""

    def __init__(self, t):
        self.d = _mp(t.dirac)
        self.e, self.not_e = (_mp(p) for p in _point_projections(t.rep))
        self.de = self.d * self.e - self.e * self.d
        self.twisted = t.twist is not None
        self.nu = _mp(t.nu)
        self.nu_inv = mp.inverse(self.nu) if self.twisted else self.nu  # nu = 1 untwisted
        self.u, self.eps_prime, self.gamma = _mp(t.real.j.u), t.real.signs.eps_prime, _mp(t.grading)

    def j(self, x):  # J x J^-1
        return self.u * x.conjugate() * self.u.H


def _assert_distance_agrees(t, ops):
    """spectral_distance's norms and value within BAND relative of the statement's."""
    got = spectral_distance(t)
    norms = [_norm(ops.de)]
    if ops.twisted:
        norms.append(_norm(ops.d * ops.e - ops.nu * ops.e * ops.nu_inv * ops.d))
    want = max(norms)
    assert abs(mp.mpf(got.norm_de) - norms[0]) <= BAND * norms[0], (got.norm_de, norms[0])
    assert (got.norm_twisted is None) == (len(norms) == 1)
    if got.norm_twisted is not None:
        assert abs(mp.mpf(got.norm_twisted) - norms[1]) <= BAND * norms[1], (got.norm_twisted, norms[1])
    if abs(want - RANK_TOL) > BAND * RANK_TOL:
        assert got.unbounded == (want < RANK_TOL), (got.value, want)
    if not got.unbounded and want >= RANK_TOL:
        assert abs(mp.mpf(got.value) - 1 / want) <= BAND / want, (got.value, 1 / want)


def _assert_matrix_agrees(got, terms):
    """got within BAND of the sum of the terms, relative to the largest norm among them."""
    gap = _mp(got) - sum(terms[1:], terms[0])
    if _largest_entry(gap) * len(terms) <= BAND * max(_largest_entry(x) for x in terms):
        return  # a bound from the largest entries asks more, so the norms are needed only when it fails
    assert _norm(gap) <= BAND * max(_norm(x) for x in terms), float(_norm(gap))


def _fluctuation_terms(ops, phi, chiral):
    """D, X and eps' nu J X J^-1 nu, with X = A (or gamma A, chiral) of coefficient phi."""
    phi = mp.mpc(phi)
    x = (phi * ops.e + (1 if chiral else -1) * mp.conj(phi) * ops.not_e) * ops.de
    if chiral:
        x = ops.gamma * x
    return [ops.d, x, ops.eps_prime * ops.nu * ops.j(x) * ops.nu]


def _rescale_statement(t, ops, k):
    """(k_J D k_J, twist) of an algebra-side factor, or None when k k_J is not nu-invariant."""
    zeta, rho = mp.mpf(k.zeta), mp.mpf(k.rho)
    kk = mp.diag([zeta * rho if p == 0 else zeta * (1 - rho) for p in t.rep.point_of])
    kk_inv = mp.diag([1 / kk[i, i] for i in range(t.dim)])
    kj = ops.j(kk)
    if not ops.twisted:
        return kj * ops.d * kj, kk_inv * kj
    prod = kk * kj
    defect = _norm(ops.nu * prod * ops.nu_inv - prod)
    bound = DEFAULT_TOL.abs_tol * (1 + _norm(prod))
    assert abs(defect - bound) > BAND * bound
    return None if defect > bound else (kj * ops.d * kj, kj * ops.nu * kk_inv)


@pytest.mark.parametrize("kind", KINDS)
def test_distance_and_operations_agree_with_the_statements(kind):
    rng = np.random.default_rng(200 + KINDS.index(kind))
    k = ConformalFactor(zeta=1.7, rho=0.3)
    with mp.workdps(DPS):
        for scale in SCALES:
            for eps in ((1,) if kind == C4_PERM_BAD else (1, -1)):
                t = _member(kind, eps, scale, rng)
                ops = _Operands(t)
                phi = complex(*rng.standard_normal(2))
                _assert_distance_agrees(t, ops)
                for p in (phi, 1.0):
                    got = fluctuate(t, selfadjoint_one_form(t, p))
                    _assert_matrix_agrees(got.dirac, _fluctuation_terms(ops, p, chiral=False))
                # phi = 1 collapses the calculus: an unbounded distance
                _assert_distance_agrees(got, _Operands(got))
                got = fluctuate_chiral(t, antihermitian_one_form(t, phi))
                _assert_matrix_agrees(got.dirac, _fluctuation_terms(ops, phi, chiral=True))
                want = _rescale_statement(t, ops, k)
                if want is None:
                    with pytest.raises(TwistCompositionError):
                        rescale(t, k)
                    continue
                got = rescale(t, k)
                _assert_matrix_agrees(got.dirac, [want[0]])
                _assert_matrix_agrees(got.twist.nu, [want[1]])
