"""Spectral distance between the two points.

The distance is sup |c_+ - c_-| over algebra elements whose derivatives have
norm at most one. For an untwisted triple the only derivative is [D, a] and
the supremum is 1/||[D, e]||. When a twist nu is present the twisted
derivative D a - (nu a nu^-1) D is bounded as well; for twists commuting
with the algebra (conformal ones, or none) it coincides with [D, a], so the
classical value is unchanged, while permutation twists genuinely tighten the
ball. norm_de always reports the plain ||[D, e]||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import embed, projection_e
from .axioms import SpectralTriple
from .linalg import DEFAULT_TOL, ToleranceConfig, commutator, operator_norm

__all__ = [
    "DistanceResult",
    "spectral_distance",
    "distance_bruteforce",
    "fluctuated_distance_check",
]


@dataclass(frozen=True)
class DistanceResult:
    value: float  # math.inf when the calculus is degenerate
    norm_de: float
    norm_twisted: Optional[float] = None

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)


def _twisted_derivative_of_e(t: SpectralTriple) -> Optional[np.ndarray]:
    if t.twist is None:
        return None
    e = projection_e(t.rep)
    nu = t.twist.nu
    return t.dirac @ e - nu @ e @ np.linalg.inv(nu) @ t.dirac


def spectral_distance(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> DistanceResult:
    """Distance between the two points, or an unbounded result."""
    if t.rep.n_points != 2:
        raise ValueError("spectral distance is defined for two-point representations")
    e = projection_e(t.rep)
    norm_de = operator_norm(commutator(t.dirac, e))
    norm_twisted = None
    effective = norm_de
    twisted = _twisted_derivative_of_e(t)
    if twisted is not None:
        norm_twisted = operator_norm(twisted)
        effective = max(effective, norm_twisted)
    if effective < tol.rank_tol:
        return DistanceResult(value=math.inf, norm_de=norm_de, norm_twisted=norm_twisted)
    return DistanceResult(value=1.0 / effective, norm_de=norm_de, norm_twisted=norm_twisted)


# Samples per stacked evaluation: bounds the oracle's memory for any sample count.
_ORACLE_BLOCK = 1024


def distance_bruteforce(t: SpectralTriple, samples: int, seed: int) -> float:
    """Maximise |c_+ - c_-| by sampling, independent of the closed form.

    Each sampled element is rescaled onto the constraint boundary (the
    derivative norms are linear in c_+ - c_-). A generic (c_+, c_-) sampler
    runs first as a sanity layer, then directional samples. The oracle's
    independence comes from sampling the algebra instead of using the
    closed-form derivative of e; its matrix norms are the same LAPACK norm
    as operator_norm.

    The samples are drawn in blocks of up to _ORACLE_BLOCK, in the order of
    one scalar draw after another (re c_+, im c_+, re c_-, im c_- per
    generic sample; re w, im w per directional one), and each block is
    evaluated as one stack of algebra elements c_+ E_+ + c_- E_-.
    """
    if t.rep.n_points != 2:
        raise ValueError("two-point representations only")
    if samples < 1:
        raise ValueError("need at least one sample")
    nu = nu_inv = None
    if t.twist is not None:
        nu = t.twist.nu
        nu_inv = np.linalg.inv(nu)
    e_plus = embed(t.rep, (1.0, 0.0))
    e_minus = embed(t.rep, (0.0, 1.0))

    def block_best(cp: np.ndarray, cm: np.ndarray) -> float:
        """Best boundary value of a block; samples with |c_+ - c_-| < 1e-12 are skipped."""
        a = cp[:, None, None] * e_plus + cm[:, None, None] * e_minus
        da = t.dirac @ a
        worst = np.linalg.norm(da - a @ t.dirac, 2, axis=(-2, -1))
        if nu is not None:
            worst = np.maximum(worst, np.linalg.norm(da - nu @ a @ nu_inv @ t.dirac, 2, axis=(-2, -1)))
        gap = np.abs(cp - cm)
        ratios = np.divide(gap, worst, out=np.zeros_like(worst), where=(gap >= 1e-12) & (worst > 0.0))
        return float(ratios.max())

    rng = np.random.default_rng(seed)
    generic = min(samples, 50)
    c = rng.standard_normal((generic, 4)).view(complex)  # rows (c_+, c_-)
    best = block_best(c[:, 0], c[:, 1])
    for start in range(generic, samples, _ORACLE_BLOCK):
        # directional samples (w/2, -w/2): c_+ - c_- = w exactly, so the skip rule is |w| < 1e-12
        w = rng.standard_normal((min(_ORACLE_BLOCK, samples - start), 2)).view(complex)[:, 0]
        best = max(best, block_best(w / 2.0, -w / 2.0))
    if best == 0.0:
        raise ValueError("degenerate calculus: every sampled derivative vanished")
    return best


def fluctuated_distance_check(t: SpectralTriple, phi: complex,
                              tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Compare the fluctuated distance against the family's closed formula."""
    from .catalog import fluctuated_distance_formula, identify_family
    from .forms import fluctuate, selfadjoint_one_form

    ident = identify_family(t, tol)
    if ident is None:
        raise ValueError("triple is not a recognised catalog shape")
    family, params = ident
    fluctuated = fluctuate(t, selfadjoint_one_form(t, phi), tol)
    expected = fluctuated_distance_formula(family, params, phi)
    result = spectral_distance(fluctuated, tol)
    if math.isinf(expected) or result.unbounded:
        return math.isinf(expected) and result.unbounded
    return abs(result.value - expected) <= tol.abs_tol * (1.0 + abs(expected))
