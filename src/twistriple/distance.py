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

from .algebra import _fixes_points, _integer, _two_point_projections
from .axioms import SpectralTriple
from .linalg import DEFAULT_TOL, ToleranceConfig, _gram_norms, _reciprocal, commutator, operator_norms

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


def spectral_distance(t: SpectralTriple) -> DistanceResult:
    """Distance between the two points: linalg._reciprocal of the larger derivative norm."""
    e = _two_point_projections(t.rep)[0]
    derivatives = [commutator(t.dirac, e)]
    if t.twist is not None:  # D e - (nu e nu^-1) D, which is [D, e] if nu _fixes_points
        nu, nu_inv = t.twist.nu, t.twist.inverse()  # a singular nu raises either way
        if not _fixes_points(nu, t.rep):
            derivatives.append(t.dirac @ e - nu @ e @ nu_inv @ t.dirac)
    norms = operator_norms(np.stack(derivatives)).tolist()
    return DistanceResult(value=_reciprocal(max(norms)),
                          norm_de=norms[0], norm_twisted=None if t.twist is None else norms[-1])


# Samples per stacked evaluation: bounds the oracle's memory for any sample count.
_ORACLE_BLOCK = 1024


def distance_bruteforce(t: SpectralTriple, samples: int, seed: int) -> float:
    """Maximise |c_+ - c_-| by sampling, independent of the closed form.

    Each sampled element is rescaled onto the constraint boundary (the
    derivative norms are linear in c_+ - c_-). A generic (c_+, c_-) sampler
    runs first as a sanity layer, then directional samples. The oracle's
    independence comes from sampling the algebra instead of using the
    closed-form derivative of e, and from its norm: spectral_distance takes
    LAPACK's SVD, while the oracle takes linalg._gram_norms, the largest
    eigenvalue of each derivative's Gram matrix, so the two values come from
    different algorithms.

    Both derivatives are linear in a, so each is computed once on each
    point projection before sampling: the plain D E - E D and, with a twist,
    D E - (nu E nu^-1) D, for E = E_+ and for E = E_- on its own (not as
    1 - E_+). A twist that algebra._fixes_points (a conformal one, even a
    singular one) gets no twisted stack, since nu E nu^-1 = E; permutation
    twists and their composites keep both. The derivatives of a sample
    c_+ E_+ + c_- E_- are then
    c_+ delta(E_+) + c_- delta(E_-), formed entrywise, and each sample's
    Gram matrix is formed from that combined matrix, never expanded in c_+
    and c_-, which would square the cancellation of a sample with
    c_+ ~ c_-.

    The samples are drawn in the order of one scalar draw after another
    (re c_+, im c_+, re c_-, im c_- per generic sample; re w, im w per
    directional one). The generic samples followed by the directional ones
    form one sequence, cut into blocks of up to _ORACLE_BLOCK samples, and
    each block's derivatives take their norms in one stacked call.

    On two points a = c_- 1 + (c_+ - c_-) e, so every derivative of a is
    (c_+ - c_-) times one fixed matrix, and every non-skipped sample lands
    on the same boundary value. The oracle therefore checks the derivative
    norms that the closed form uses, by an independent route; it does not
    search for a supremum.

    samples must be a positive integer (algebra._integer: not a bool, a
    float or a string).
    """
    projections = _two_point_projections(t.rep)  # (E_+, E_-)
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValueError("need at least one sample")
    d = t.dirac
    images = [d @ projections - projections @ d]
    if t.twist is not None:
        nu = t.twist.nu
        if not _fixes_points(nu, t.rep):
            images.append(d @ projections - nu @ projections @ t.twist.inverse() @ d)
    images = np.stack(images)  # (derivative, E_+/E_-, n, n)
    plus, minus = images[:, None, 0], images[:, None, 1]

    def block_best(cp: np.ndarray, cm: np.ndarray) -> float:
        """Best boundary value of a block; samples with |c_+ - c_-| < 1e-12 are skipped."""
        derivatives = cp[:, None, None] * plus + cm[:, None, None] * minus
        worst = _gram_norms(derivatives).max(axis=0)
        gap = np.abs(cp - cm)
        ratios = np.divide(gap, worst, out=np.zeros_like(worst), where=(gap >= 1e-12) & (worst > 0.0))
        return float(ratios.max())

    rng = np.random.default_rng(seed)
    generic = min(samples, 50)
    c = rng.standard_normal((generic, 4)).view(complex)  # rows (c_+, c_-)
    best = 0.0
    for start in range(0, samples, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, samples)
        # directional samples (w/2, -w/2): c_+ - c_- = w exactly, so the skip rule is |w| < 1e-12
        w = rng.standard_normal((stop - max(start, generic), 2)).view(complex)[:, 0]
        best = max(best, block_best(np.concatenate([c[start:stop, 0], w / 2.0]),
                                    np.concatenate([c[start:stop, 1], -w / 2.0])))
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
    result = spectral_distance(fluctuated)
    if math.isinf(expected) or result.unbounded:
        return math.isinf(expected) and result.unbounded
    return abs(result.value - expected) <= tol.abs_tol * (1.0 + abs(expected))
