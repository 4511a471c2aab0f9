"""Conformal rescalings D -> k_J D k_J and the twists they induce.

A positive invertible element of the two-point algebra is k = zeta (rho e +
(1-rho)(1-e)) up to normalisation, so a conformal factor is the pair (zeta,
rho) plus a side: 'algebra' factors act through their commutant image
k_J = J k J^-1, 'commutant-image' factors act through the embedded element
directly. Both sides induce the same twist, computed here from the factor
matrices rather than read off any closed form. `rescale` also rescales
nu-twisted triples (algebra-side factors only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import embed
from .axioms import SpectralTriple, Twist, _derived, _twisted
from .forms import _fluctuated_dirac, fluctuate, selfadjoint_one_form
from .linalg import DEFAULT_TOL, RANK_TOL, ToleranceConfig, _as_square, _assembled, _exceeds

__all__ = [
    "ConformalFactor",
    "TwistCompositionError",
    "rescale",
    "equivalent_commutant_factor",
    "check_gauge_conformal_compat",
]

SIDE_ALGEBRA = "algebra"
SIDE_COMMUTANT = "commutant-image"


class TwistCompositionError(ValueError):
    """Raised when k k_J is not invariant under the existing twist."""


@dataclass(frozen=True)
class ConformalFactor:
    zeta: float
    rho: float
    side: str = SIDE_ALGEBRA

    def __post_init__(self):
        if self.side not in (SIDE_ALGEBRA, SIDE_COMMUTANT):
            raise ValueError(f"unknown side {self.side!r}")
        if not 0 < self.zeta < np.inf:
            raise ValueError("overall scale must be positive and finite")
        if not (RANK_TOL < self.rho < 1.0 - RANK_TOL):
            raise ValueError("rho must lie strictly inside (0, 1)")

    def values(self) -> tuple[float, float]:
        """Point values of the factor as an algebra element."""
        if self.side == SIDE_ALGEBRA:
            return (self.zeta * self.rho, self.zeta * (1.0 - self.rho))
        return (self.zeta * (1.0 - self.rho), self.zeta * self.rho)


def _factor_matrices(t: SpectralTriple, k: ConformalFactor) -> tuple[np.ndarray, np.ndarray]:
    """(a, s): s sandwiches D and nu = a^-1 s; (k, k_J) algebra side, (k_J, k) commutant side."""
    if t.real is None:
        raise ValueError("conformal rescaling needs a real structure")
    k_alg = embed(t.rep, k.values())
    k_j = t.real.j.conjugate(k_alg)
    return (k_alg, k_j) if k.side == SIDE_ALGEBRA else (k_j, k_alg)


def rescale(t: SpectralTriple, k: ConformalFactor,
            tol: ToleranceConfig = DEFAULT_TOL) -> SpectralTriple:
    """Rescaled triple with dirac = s D s and the induced twist.

    For an untwisted triple the twist is nu = k^-1 k_J (algebra side) or its
    mirror k_J^-1 k (commutant side). A nu-twisted triple takes algebra-side
    factors only and gets the twist mu = k_J nu k^-1, valid only when k k_J
    is invariant under conjugation by nu to abs_tol (1 + ||k k_J||); else the
    datum is not a twisted real triple and TwistCompositionError is raised.

    The twist-invariance residual, the new nu and then the new D are the
    matrices checked (linalg._as_square, axioms._derived); they are computed
    with numpy's overflow warnings off, and an overflow raises a ValueError
    that names rescale. The result pairs t's frame with the new twist.
    """
    if t.twist is not None and k.side != SIDE_ALGEBRA:
        raise ValueError("composition with an existing twist uses algebra-side factors")
    a, s = _factor_matrices(t, k)
    old = t.twist
    if old is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            kk = a @ s
            residual = _as_square(old.nu @ kk @ old.inverse() - kk, "rescale", (a, s, old.nu))
        if defect := _exceeds(residual, tol.abs_tol, kk):
            raise TwistCompositionError(f"kk_J not twist-invariant (defect {defect:.3e}); "
                                        "composed datum would not be a twisted real triple")
    with np.errstate(over="ignore", invalid="ignore"):
        nu = np.linalg.inv(a) @ s if old is None else s @ old.nu @ np.linalg.inv(a)
        dirac = s @ t.dirac @ s
    twist = _assembled(Twist, nu=_as_square(nu, "rescale", (a, s, None if old is None else old.nu)),
                       implements_algebra_automorphism=old is None or old.implements_algebra_automorphism)
    return _derived(t, dirac, "rescale", (t.dirac, s), _twisted(t._structure.frame, twist))


def equivalent_commutant_factor(k: ConformalFactor) -> ConformalFactor:
    """The commutant-image factor producing the identical rescaling on C^3.

    Matching the two sides on the single C^3 hop forces
    zeta^2 rho = xi^2 (1 - rho), i.e. xi = zeta sqrt(rho / (1 - rho)).
    On C^4 the two rescalings differ: the algebra side weights the two hops
    by rho^2 and (1-rho)^2 and moves the one-form span, while the
    commutant side leaves that span literally fixed.
    """
    if k.side != SIDE_ALGEBRA:
        raise ValueError("expected an algebra-side factor")
    xi = k.zeta * np.sqrt(k.rho / (1.0 - k.rho))
    return ConformalFactor(zeta=float(xi), rho=k.rho, side=SIDE_COMMUTANT)


def check_gauge_conformal_compat(t: SpectralTriple, k: ConformalFactor, b_phi: complex,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Fluctuating after rescaling agrees with rescaling after fluctuating.

    With B the selfadjoint one-form of D with coefficient b_phi and
    A = k_J B k_J, the rescaled-then-fluctuated Dirac
    D_{k_J} + A + eps' nu (J A J^-1) nu equals (D + B + eps' J B J^-1)_{k_J}
    to abs_tol (1 + ||rhs||).
    """
    if t.twist is not None:
        raise ValueError("compatibility identity starts from an untwisted triple")
    b = selfadjoint_one_form(t, b_phi)
    rescaled = rescale(t, k, tol)
    s = _factor_matrices(t, k)[1]
    lhs = _fluctuated_dirac(rescaled, s @ b.value @ s)
    rhs = s @ fluctuate(t, b, tol).dirac @ s
    return not _exceeds(lhs - rhs, tol.abs_tol, rhs)
