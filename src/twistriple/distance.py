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


def distance_bruteforce(t: SpectralTriple, samples: int, seed: int) -> float:
    """Maximise |c_+ - c_-| by sampling, independent of the closed form.

    Each sampled element is rescaled onto the constraint boundary (the
    derivative norms are linear in c_+ - c_-). A generic (c_+, c_-) sampler
    runs first as a sanity layer, then directional samples. The oracle's
    independence comes from sampling the algebra instead of using the
    closed-form derivative of e; its matrix norms are the same LAPACK norm
    as operator_norm.
    """
    if t.rep.n_points != 2:
        raise ValueError("two-point representations only")
    if samples < 1:
        raise ValueError("need at least one sample")
    nu_inv = None
    if t.twist is not None:
        nu_inv = np.linalg.inv(t.twist.nu)

    def boundary_value(cp: complex, cm: complex) -> float:
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
