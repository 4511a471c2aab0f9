"""Parity of the one-body paper operations with the bodies they replaced.

The earlier bodies are copied below as references:
- `rescale`, `compose_twist` and their 3-tuple `_factor_matrices`, which
  handed twisted triples to each other;
- `fluctuate`, `fluctuate_chiral` and `check_gauge_conformal_compat`, each
  with its own copy of the fluctuation formula;
- the nearest embedded element of `twist_preserves_algebra`, built from one
  boolean mask per point.

The operations are compared byte for byte: the Dirac and nu bytes, the twist
flag, and the (type, message) of every error, over every catalog family,
both fixtures, both eps', hops from 1e-12 to 1e12 and both factor sides. The
point-mask residual is compared through what `check_all` reports (exact
floats), since the zeros of the residual matrices may change sign; an
invertible twist that commutes with the point projections reports an exact
0.0 there, where the masks leave roundoff.
"""

import itertools
import zlib
from dataclasses import replace

import numpy as np
import pytest

from twistriple import axioms
from twistriple.algebra import Representation, embed
from twistriple.axioms import RealStructure, SignTriple, SpectralTriple, Twist, check_all
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_PERM_BAD,
    FAMILIES,
    build_c4_perm_conformal_composite,
    build_family,
)
from twistriple.conformal import (
    SIDE_ALGEBRA,
    SIDE_COMMUTANT,
    ConformalFactor,
    TwistCompositionError,
    check_gauge_conformal_compat,
    rescale,
)
from twistriple.forms import (
    _require_matching_base,
    antihermitian_one_form,
    fluctuate,
    fluctuate_chiral,
    is_selfadjoint_form,
    selfadjoint_one_form,
)
from twistriple.linalg import DEFAULT_TOL, RANK_TOL, Antiunitary, ToleranceConfig, operator_norm

# ------------------------------------------------------------------ references


def ref_factor_matrices(t, k):
    if t.real is None:
        raise ValueError("conformal rescaling needs a real structure")
    k_alg = embed(t.rep, k.values())
    k_j = t.real.j.conjugate(k_alg)
    sandwich = k_j if k.side == SIDE_ALGEBRA else k_alg
    return k_alg, k_j, sandwich


def ref_rescale(t, k, tol=DEFAULT_TOL):
    if t.twist is not None:
        return ref_compose_twist(t, k, tol)
    k_alg, k_j, sandwich = ref_factor_matrices(t, k)
    dirac = sandwich @ t.dirac @ sandwich
    if k.side == SIDE_ALGEBRA:
        nu = np.linalg.inv(k_alg) @ k_j
    else:
        nu = np.linalg.inv(k_j) @ k_alg
    return replace(t, dirac=dirac, twist=Twist(nu=nu, implements_algebra_automorphism=True))


def ref_compose_twist(t, k, tol=DEFAULT_TOL):
    if t.twist is None:
        return ref_rescale(t, k, tol)
    if k.side != SIDE_ALGEBRA:
        raise ValueError("composition with an existing twist uses algebra-side factors")
    k_alg, k_j, _ = ref_factor_matrices(t, k)
    nu = t.twist.nu
    kk = k_alg @ k_j
    defect = operator_norm(nu @ kk @ np.linalg.inv(nu) - kk)
    if defect > tol.abs_tol * (1.0 + operator_norm(kk)):
        raise TwistCompositionError(
            f"kk_J not twist-invariant (defect {defect:.3e}); composed datum would not be a twisted real triple"
        )
    dirac = k_j @ t.dirac @ k_j
    mu = k_j @ nu @ np.linalg.inv(k_alg)
    return replace(t, dirac=dirac,
                   twist=Twist(nu=mu, implements_algebra_automorphism=t.twist.implements_algebra_automorphism))


def ref_fluctuate(t, a, tol=DEFAULT_TOL):
    if t.real is None:
        raise ValueError("fluctuation needs a real structure")
    if not is_selfadjoint_form(a, tol):
        raise ValueError("fluctuation requires a selfadjoint one-form")
    _require_matching_base(t, a, tol)
    nu = t.nu
    alpha = a.value
    dirac = t.dirac + alpha + t.eps_prime * nu @ t.real.j.conjugate(alpha) @ nu
    return t.with_dirac(dirac)


def ref_fluctuate_chiral(t, a, tol=DEFAULT_TOL):
    if t.real is None:
        raise ValueError("chiral fluctuation needs a real structure")
    if t.grading is None:
        raise ValueError("chiral fluctuation needs a grading")
    if operator_norm(a.value + a.value.conj().T) > tol.abs_tol:
        raise ValueError("chiral fluctuation requires an antihermitian one-form")
    _require_matching_base(t, a, tol)
    nu = t.nu
    ga = t.grading @ a.value
    dirac = t.dirac + ga + t.eps_prime * nu @ t.real.j.conjugate(ga) @ nu
    return t.with_dirac(dirac)


def ref_check_gauge_conformal_compat(t, k, b_phi, tol=DEFAULT_TOL):
    if t.twist is not None:
        raise ValueError("compatibility identity starts from an untwisted triple")
    b = selfadjoint_one_form(t, b_phi)
    rescaled = ref_rescale(t, k, tol)
    _, k_j, sandwich = ref_factor_matrices(t, k)
    a_mat = sandwich @ b.value @ sandwich
    nu = rescaled.nu
    lhs = rescaled.dirac + a_mat + t.eps_prime * nu @ t.real.j.conjugate(a_mat) @ nu
    rhs = sandwich @ ref_fluctuate(t, b, tol).dirac @ sandwich
    return operator_norm(lhs - rhs) <= tol.abs_tol * (1.0 + operator_norm(rhs))


def ref_twist_terms(t, basis):
    """axioms._twist_terms with the twist_preserves_algebra means taken over point masks."""
    twist = t.twist
    nu = twist.nu
    u = t.real.j.u
    terms = [("twisted_regularity", nu @ u @ np.conj(nu) - u, None),
             ("twist_selfadjoint", nu - nu.conj().T, None)]
    if t.grading is not None:
        terms.append(("grading_commutes_nu_squared", nu @ nu @ t.grading - t.grading @ nu @ nu, None))
    svals = np.linalg.svd(nu, compute_uv=False)
    invertible = svals[-1] > RANK_TOL * max(1.0, svals[0])
    terms.append(("twist_invertible", 0.0 if invertible else 1.0, 0.5))
    if twist.implements_algebra_automorphism:
        if invertible:
            m = np.linalg.inv(nu) @ basis @ nu
            point = np.asarray(t.rep.point_of)
            diag = np.diagonal(m, axis1=-2, axis2=-1)
            means = np.stack([diag[:, point == p].mean(axis=-1) for p in range(t.rep.n_points)],
                             axis=-1)
            residual = m.copy()
            idx = np.arange(t.dim)
            residual[:, idx, idx] -= means[:, point]
            terms.append(("twist_preserves_algebra", residual, None))
        else:
            terms.append(("twist_preserves_algebra", 1.0, 0.5))
    else:
        eye = np.eye(t.dim, dtype=complex)
        terms.append(("twist_involutive", nu @ nu - eye, None))
    return terms


# ---------------------------------------------------------------------- inputs

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
RNG_SEED = 20260918


def _member(family, eps, scale, rng):
    d1, d2 = (scale * complex(*rng.standard_normal(2)) for _ in range(2))
    if family == C3_PERM:  # real hops for eps' = +1, imaginary for eps' = -1
        d1, d2 = (complex(d.real) if eps == 1 else complex(0.0, d.imag) for d in (d1, d2))
    if family in (C3_UNTWISTED, C3_CONFORMAL, C4_PERM_BAD):
        d2 = None
    extra = {}
    if family.endswith("_conformal"):
        extra = dict(rho=float(rng.uniform(0.1, 0.9)), zeta=float(rng.uniform(0.5, 2.0)))
    return build_family(family, eps, d1, d2, **extra)


def _triples():
    rng = np.random.default_rng(RNG_SEED)
    for scale in SCALES:
        for eps in (1, -1):
            for family in FAMILIES + (C4_PERM_BAD,):
                if family == C4_PERM_BAD and eps != 1:
                    continue
                yield f"{family} eps'={eps} |d|~{scale:g}", _member(family, eps, scale, rng)
            d1, d2 = (scale * complex(*rng.standard_normal(2)) for _ in range(2))
            yield (f"composite eps'={eps} |d|~{scale:g}",
                   build_c4_perm_conformal_composite(eps, d1, d2, rho=float(rng.uniform(0.1, 0.9))))


TRIPLES = list(_triples())


def _factors(rng):
    zeta, rho = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 0.9))
    return [ConformalFactor(zeta, rho, side) for side in (SIDE_ALGEBRA, SIDE_COMMUTANT)] + [
        ConformalFactor(zeta, 0.5)]  # central: twisted composition passes


def _outcome(call):
    try:
        out = call()
    except Exception as exc:  # the parity is over every exception, whatever its type
        return (type(exc), str(exc))
    if isinstance(out, SpectralTriple):
        flag = None if out.twist is None else out.twist.implements_algebra_automorphism
        return ("ok", out.dirac.tobytes(), out.nu.tobytes(), flag)
    return ("ok", out)


# ----------------------------------------------------------------------- tests


@pytest.mark.parametrize("label,t", TRIPLES, ids=[label for label, _ in TRIPLES])
def test_rescale_and_compose_twist_match_the_two_bodies(label, t):
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    variants = (t, replace(t, twist=None), replace(t, real=None))
    for k in _factors(rng):
        for s in variants:
            want = _outcome(lambda: ref_rescale(s, k))
            assert _outcome(lambda: rescale(s, k)) == want, (label, k)
            assert _outcome(lambda: ref_compose_twist(s, k)) == want, (label, k)


@pytest.mark.parametrize("label,t", TRIPLES, ids=[label for label, _ in TRIPLES])
def test_fluctuations_and_compat_match_their_own_formulas(label, t):
    rng = np.random.default_rng(zlib.crc32(label.encode()))
    phi = complex(*rng.standard_normal(2))
    ungraded, unreal = replace(t, grading=None), replace(t, real=None)
    for s in (t, ungraded, unreal):
        for form in (selfadjoint_one_form(t, phi), antihermitian_one_form(t, phi)):
            assert _outcome(lambda: fluctuate(s, form)) == _outcome(lambda: ref_fluctuate(s, form))
            assert (_outcome(lambda: fluctuate_chiral(s, form))
                    == _outcome(lambda: ref_fluctuate_chiral(s, form)))
    for k in _factors(rng):
        for s, tol in itertools.product((t, replace(t, twist=None), replace(unreal, twist=None)),
                                        (DEFAULT_TOL, ToleranceConfig(0.0))):  # 0: an exact match passes
            assert (_outcome(lambda: check_gauge_conformal_compat(s, k, phi, tol))
                    == _outcome(lambda: ref_check_gauge_conformal_compat(s, k, phi, tol))), (label, k)


def test_the_failure_cases_are_covered():
    outcomes = [_outcome(lambda: rescale(t, k)) for _, t in TRIPLES
                for k in _factors(np.random.default_rng(0))]
    kinds = {o[0] for o in outcomes}
    assert {"ok", TwistCompositionError, ValueError} <= kinds
    assert (ValueError, "composition with an existing twist uses algebra-side factors") in outcomes


def _random_twisted(rep, rng):
    """Real triples on rep with twists of every kind check_all distinguishes."""
    n = rep.dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dirac = m + m.conj().T
    real = RealStructure(Antiunitary(np.eye(n, dtype=complex)), SignTriple(1, 1))
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    perm = np.eye(n, dtype=complex)[::-1]
    diag = np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)
    singular = np.diag([1.0] * (n - 1) + [0.0]).astype(complex)
    for nu in (h + h.conj().T, perm, diag, diag @ perm @ diag, singular):
        for flag in (True, False):
            yield SpectralTriple(rep, dirac, real=real, twist=Twist(nu, implements_algebra_automorphism=flag))


REPS = [(0, 1), (0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 2, 1)]


@pytest.mark.parametrize("point_of", REPS, ids=[str(r) for r in REPS])
def test_projection_stack_means_match_the_point_masks(point_of, monkeypatch):
    rng = np.random.default_rng(sum(point_of) + 10 * len(point_of))
    rep = Representation(point_of)
    triples = [t for _ in range(5) for t in _random_twisted(rep, rng)]
    triples += [t for _, t in TRIPLES if t.rep == rep and t.twist is not None]
    got = [check_all(t).entries for t in triples]
    # new structures, since each structure keeps the nu-reading entries of the first pass
    monkeypatch.setattr(axioms, "_twist_terms", ref_twist_terms)
    want = [check_all(SpectralTriple(t.rep, t.dirac, t.grading, t.real, t.twist)).entries for t in triples]
    exact = 0
    for t, es, es_want in zip(triples, got, want):
        point = np.asarray(rep.point_of)
        if t.twist.implements_algebra_automorphism and not t.nu[point[:, None] != point[None, :]].any() \
                and np.linalg.matrix_rank(t.nu) == t.dim:
            # an invertible twist that commutes with the point projections fixes
            # them exactly (algebra._fixes_points): 0.0 where the masks gave roundoff
            i = [e.condition for e in es].index("twist_preserves_algebra")
            assert es[i].residual == 0.0 and es_want[i].residual <= 1e-15
            es, es_want, exact = es[:i] + es[i + 1:], es_want[:i] + es_want[i + 1:], exact + 1
        assert es == es_want
    assert exact > 0
    assert any(e.condition == "twist_preserves_algebra" and e.residual > 0.0 for es in got for e in es)
