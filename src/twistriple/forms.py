"""One-forms of a two-point triple and gauge fluctuations.

The calculus of a two-point triple is generated by [D, e], so every one-form
is (phi1 e + phi2 (1-e)) [D, e] and is stored together with its generating
coefficients. Selfadjoint forms have phi2 = -conj(phi1); antihermitian ones
have phi2 = conj(phi1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import _two_point_projections
from .axioms import SpectralTriple, _derived
from .linalg import DEFAULT_TOL, ToleranceConfig, _as_square, _exceeds, _rank, commutator

__all__ = [
    "OneForm",
    "one_form",
    "selfadjoint_one_form",
    "antihermitian_one_form",
    "is_selfadjoint_form",
    "fluctuate",
    "fluctuate_chiral",
    "omega1_equal",
    "is_fluctuation_of",
]


@dataclass(frozen=True)
class OneForm:
    value: np.ndarray
    phi1: complex
    phi2: complex
    base_dirac: np.ndarray


def one_form(t: SpectralTriple, phi1: complex, phi2: complex) -> OneForm:
    """(phi1 e + phi2 (1-e)) [D, e] with its coefficients recorded.

    A value that overflows the float range raises a ValueError that says so
    (linalg._as_square).
    """
    e, not_e = _two_point_projections(t.rep)
    phi1, phi2 = complex(phi1), complex(phi2)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (phi1 * e + phi2 * not_e) @ commutator(t.dirac, e)
    value = _as_square(value, "one_form", (t.dirac, phi1, phi2))
    return OneForm(value=value, phi1=phi1, phi2=phi2, base_dirac=t.dirac.copy())


def selfadjoint_one_form(t: SpectralTriple, phi: complex) -> OneForm:
    return one_form(t, phi, -np.conj(phi))


def antihermitian_one_form(t: SpectralTriple, phi: complex) -> OneForm:
    return one_form(t, phi, np.conj(phi))


def is_selfadjoint_form(a: OneForm, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ||alpha - alpha*|| <= abs_tol; a difference beyond the float range is above it."""
    with np.errstate(over="ignore"):  # an inf entry exceeds any bound (linalg._exceeds)
        residual = a.value - a.value.conj().T
    return not _exceeds(residual, tol.abs_tol)


def _require_matching_base(t: SpectralTriple, a: OneForm, tol: ToleranceConfig):
    """Raise unless the form's Dirac is t's to abs_tol (1 + ||D||)."""
    if _exceeds(a.base_dirac - t.dirac, tol.abs_tol, t.dirac):
        raise ValueError("one-form was built from a different Dirac operator")


def _fluctuated_dirac(t: SpectralTriple, x: np.ndarray) -> np.ndarray:
    """D + X + eps' nu (J X J^-1) nu, the one fluctuation formula (t must be real)."""
    nu = t.nu
    return t.dirac + x + t.eps_prime * nu @ t.real.j.conjugate(x) @ nu


def _fluctuated(t: SpectralTriple, a: OneForm, operation: str) -> SpectralTriple:
    """t with _fluctuated_dirac's D for X = alpha ("fluctuate") or gamma alpha ("fluctuate_chiral").

    The new D is computed with numpy's overflow warnings off and checked by
    axioms._derived, whose error names an overflow; t's structure is kept.
    """
    x = a.value
    with np.errstate(over="ignore", invalid="ignore"):
        if operation == "fluctuate_chiral":
            x = t.grading @ x
        dirac = _fluctuated_dirac(t, x)
    inputs = (t.dirac, a.value, t.grading, t.real.j.u, None if t.twist is None else t.twist.nu)
    return _derived(t, dirac, operation, inputs)


def fluctuate(t: SpectralTriple, a: OneForm, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralTriple:
    """Gauge fluctuation D -> D + alpha + eps' nu (J alpha J^-1) nu.

    alpha must be selfadjoint; J, nu, gamma and the representation are kept,
    so the result is again a triple of the same kind. Only the new D is
    checked (axioms._derived); a D that overflows the float range raises a
    ValueError that names fluctuate.
    """
    if t.real is None:
        raise ValueError("fluctuation needs a real structure")
    if not is_selfadjoint_form(a, tol):
        raise ValueError("fluctuation requires a selfadjoint one-form")
    _require_matching_base(t, a, tol)
    return _fluctuated(t, a, "fluctuate")


def fluctuate_chiral(t: SpectralTriple, a: OneForm, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralTriple:
    """Chiral gauge fluctuation D -> D + gamma A + eps' nu (J gamma A J^-1) nu.

    A must be antihermitian (||A + A*|| <= abs_tol) and the triple graded.
    The nu factors make the twisted chiral orbit coincide with the twisted
    gauge orbit; untwisted they are the identity. The new D is checked as
    fluctuate's is.
    """
    if t.real is None:
        raise ValueError("chiral fluctuation needs a real structure")
    if t.grading is None:
        raise ValueError("chiral fluctuation needs a grading")
    with np.errstate(over="ignore"):  # as in is_selfadjoint_form
        residual = a.value + a.value.conj().T
    if _exceeds(residual, tol.abs_tol):
        raise ValueError("chiral fluctuation requires an antihermitian one-form")
    _require_matching_base(t, a, tol)
    return _fluctuated(t, a, "fluctuate_chiral")


def _omega1_span(t: SpectralTriple) -> np.ndarray:
    return np.array([one_form(t, 1.0, 0.0).value.ravel(), one_form(t, 0.0, 1.0).value.ravel()])


def omega1_equal(t1: SpectralTriple, t2: SpectralTriple) -> bool:
    """Whether span{e[D,e], (1-e)[D,e]} agrees for the two Dirac operators."""
    if t1.rep != t2.rep:
        raise ValueError("triples live on different representations")

    def rank(rows: np.ndarray) -> int:
        return _rank(np.linalg.svd(rows, compute_uv=False))

    s1 = _omega1_span(t1)
    s2 = _omega1_span(t2)
    return rank(s1) == rank(s2) == rank(np.vstack([s1, s2]))


def is_fluctuation_of(base: SpectralTriple, candidate: SpectralTriple,
                      tol: ToleranceConfig = DEFAULT_TOL) -> Optional[tuple[complex, complex]]:
    """Selfadjoint-form coefficients (phi1, phi2) with fluctuate(base) = candidate.

    J, gamma and nu must agree to abs_tol. The fluctuated Dirac is affine-linear
    in (re phi, im phi), so membership reduces to a real least-squares solve,
    accepted to abs_tol (1 + ||D||) of the candidate's D. The coefficients
    are Python complex numbers; None when the candidate is not in the gauge
    orbit.
    """
    if base.rep != candidate.rep or (base.real is None) != (candidate.real is None):
        return None
    if (base.grading is None) != (candidate.grading is None) or (
            base.real is not None and base.real.signs != candidate.real.signs):
        return None
    gaps = [base.nu - candidate.nu]
    if base.real is not None:
        gaps.append(base.real.j.u - candidate.real.j.u)
    if base.grading is not None:
        gaps.append(base.grading - candidate.grading)
    if _exceeds(np.stack(gaps), tol.abs_tol):
        return None

    def assembled(phi: complex) -> np.ndarray:
        return fluctuate(base, selfadjoint_one_form(base, phi), tol).dirac

    d0 = assembled(0.0)
    dx = assembled(1.0) - d0
    dy = assembled(1.0j) - d0
    target = (candidate.dirac - d0).ravel()
    a = np.array([
        np.concatenate([dx.ravel().real, dx.ravel().imag]),
        np.concatenate([dy.ravel().real, dy.ravel().imag]),
    ]).T
    b = np.concatenate([target.real, target.imag])
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    phi = complex(coeffs[0], coeffs[1])
    if _exceeds(assembled(phi) - candidate.dirac, tol.abs_tol, candidate.dirac):
        return None
    return (phi, -phi.conjugate())
