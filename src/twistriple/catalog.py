"""Builders for the concrete two-point triples on C^3 and C^4.

Matrix layout conventions (row/column indices start at 0):

C^3: grading diag(1,-1,-1), representation (+,+,-), J swaps basis vectors
1 and 2. The Dirac family has free entries at (0,1) and (0,2); the reality
conditions tie them together per family.

C^4: grading diag(1,-1,-1,1), representation (+,+,-,-), J swaps 1 and 2.
Free entries sit at (0,1), (0,2), (1,3), (2,3); d1 = (0,2) and d2 = (1,3)
are the entries the calculus sees.

Family constraints are both enforced by the builders and re-derived from
scratch by `derive_family`, which solves the linear conditions and checks
the solver's basis against the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import REP_C2, REP_C3, REP_C4, Representation, embed, projection_e
from .axioms import (
    RealStructure,
    SignTriple,
    SpectralTriple,
    Twist,
    epsilon_prime_residual,
    order_one_residual,
)
from .conformal import ConformalFactor, rescale
from .linalg import (
    DEFAULT_TOL,
    Antiunitary,
    ToleranceConfig,
    commutator,
    operator_norm,
    solve_linear_family,
)

__all__ = [
    "C3_UNTWISTED",
    "C3_PERM",
    "C4_UNTWISTED",
    "C4_PERM",
    "C3_CONFORMAL",
    "C4_CONFORMAL",
    "FAMILIES",
    "CatalogConstraintError",
    "DiracFamily",
    "ScanReport",
    "build_c3",
    "build_c4",
    "build_conformal",
    "build_c4_perm_conformal_composite",
    "derive_family",
    "scan_c2_nonexistence",
    "fluctuation_orbit_params",
    "fluctuated_distance_formula",
    "identify_family",
]

C3_UNTWISTED = "c3_untwisted"
C3_PERM = "c3_perm"
C4_UNTWISTED = "c4_untwisted"
C4_PERM = "c4_perm"
C3_CONFORMAL = "c3_conformal"
C4_CONFORMAL = "c4_conformal"
FAMILIES = (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C3_CONFORMAL, C4_CONFORMAL)

GAMMA3 = np.diag([1.0, -1.0, -1.0]).astype(complex)
GAMMA4 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
U3 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
U4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
NU3_PERM = U3.copy()
NU4_PERM = np.fliplr(np.eye(4)).astype(complex)          # reverses the basis order
NU4_PERM_BAD = np.block([[np.zeros((2, 2)), np.eye(2)],  # swaps the two 2-blocks
                         [np.eye(2), np.zeros((2, 2))]]).astype(complex)


@dataclass(frozen=True)
class _Family:
    """Everything the catalog knows about one family.

    twist is the fixed twist (None when untwisted, or when the twist is the
    rho-dependent conformal one). slots name the Dirac entries that
    identify_family reports. defect measures how far a solver basis member
    is from the closed-form relations; families without a constraint
    derivation (the conformal ones) have none. orbit maps (d1, d2, phi) to
    the fluctuated parameters and distance maps (params, phi) to the
    denominator of the fluctuated distance.
    """

    rep: Representation
    gamma: np.ndarray
    u: np.ndarray
    twist: Optional[Twist]
    slots: tuple[tuple[str, tuple[int, int]], ...]
    orbit: Callable[[complex, complex, complex], tuple[complex, complex]]
    distance: Callable[[dict, complex], float]
    conformal: bool = False
    free_params: tuple[str, ...] = ()
    constraints: tuple[str, ...] = ()
    defect: Optional[Callable[[int, np.ndarray], float]] = None

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def nu(self) -> np.ndarray:
        if self.twist is None:
            return np.eye(self.dim, dtype=complex)
        return self.twist.nu


def _scale_both(d1: complex, d2: complex, phi: complex) -> tuple[complex, complex]:
    return ((1.0 - phi) * d1, (1.0 - phi) * d2)


def _perm_c3_factor(phi: complex) -> complex:
    return 1.0 - phi - np.conj(phi)


def _c4_distance(p: dict, phi: complex) -> float:
    return abs(1.0 - phi) * max(abs(p["d1"]), abs(p["d2"]))


_C4_SLOTS = (("d1", (0, 2)), ("d2", (1, 3)))

_FAMILIES = {
    C3_UNTWISTED: _Family(
        rep=REP_C3, gamma=GAMMA3, u=U3, twist=None,
        slots=(("d1", (0, 2)), ("d3_slot", (0, 1))),
        orbit=lambda d1, d2, phi: ((1.0 - phi) * d1, d2),
        distance=lambda p, phi: abs(1.0 - phi) * abs(p["d1"]),
        free_params=("d1",),
        constraints=("d3 = eps'*conj(d1)",),
        defect=lambda eps, b: abs(b[0, 1] - eps * np.conj(b[0, 2])),
    ),
    C3_PERM: _Family(
        rep=REP_C3, gamma=GAMMA3, u=U3,
        twist=Twist(NU3_PERM, implements_algebra_automorphism=False),
        slots=(("d1", (0, 2)), ("d2", (0, 1))),
        orbit=lambda d1, d2, phi: (_perm_c3_factor(phi) * d1, d2),
        distance=lambda p, phi: max(abs(_perm_c3_factor(phi)) * abs(p["d1"]), abs(p["d2"])),
        free_params=("d1", "d2"),
        constraints=("conj(d1) = eps'*d1", "conj(d2) = eps'*d2"),
        defect=lambda eps, b: float(operator_norm(np.conj(b) - eps * b)),
    ),
    C4_UNTWISTED: _Family(
        rep=REP_C4, gamma=GAMMA4, u=U4, twist=None,
        slots=_C4_SLOTS + (("d3_slot", (0, 1)), ("d4_slot", (2, 3))),
        orbit=_scale_both,
        distance=_c4_distance,
        free_params=("d1", "d2"),
        constraints=("d3 = eps'*conj(d1)", "d4 = eps'*conj(d2)"),
        defect=lambda eps, b: max(abs(b[0, 1] - eps * np.conj(b[0, 2])),
                                  abs(b[2, 3] - eps * np.conj(b[1, 3]))),
    ),
    C4_PERM: _Family(
        rep=REP_C4, gamma=GAMMA4, u=U4,
        twist=Twist(NU4_PERM, implements_algebra_automorphism=True),
        slots=_C4_SLOTS,
        orbit=_scale_both,
        distance=_c4_distance,
        free_params=("d1", "d2"),
        constraints=("d3 = eps'*d2", "d4 = eps'*d1"),
        defect=lambda eps, b: max(abs(b[0, 1] - eps * b[1, 3]),
                                  abs(b[2, 3] - eps * b[0, 2])),
    ),
    C3_CONFORMAL: _Family(
        rep=REP_C3, gamma=GAMMA3, u=U3, twist=None, conformal=True,
        slots=(("hop1", (0, 2)), ("offdiag", (0, 1))),
        orbit=_scale_both,
        distance=lambda p, phi: abs(1.0 - phi) * abs(p["hop1"]),
    ),
    C4_CONFORMAL: _Family(
        rep=REP_C4, gamma=GAMMA4, u=U4, twist=None, conformal=True,
        slots=(("hop1", (0, 2)), ("hop2", (1, 3)), ("offdiag1", (0, 1)), ("offdiag2", (2, 3))),
        orbit=_scale_both,
        distance=lambda p, phi: abs(1.0 - phi) * max(abs(p["hop1"]), abs(p["hop2"])),
    ),
}

_PERM_BAD_TWIST = Twist(NU4_PERM_BAD, implements_algebra_automorphism=True)


def _family(family_id: str) -> _Family:
    if family_id not in _FAMILIES:
        raise ValueError(f"unknown family {family_id!r}")
    return _FAMILIES[family_id]


class CatalogConstraintError(ValueError):
    """Parameters violate the family's reality constraint."""


def _hermitian_from_slots(dim: int, slots: dict[tuple[int, int], complex]) -> np.ndarray:
    d = np.zeros((dim, dim), dtype=complex)
    for (i, j), v in slots.items():
        d[i, j] = v
        d[j, i] = np.conj(v)
    return d


def _build(fam: _Family, dirac: np.ndarray, eps_prime: int, twist: Optional[Twist],
           relation: str) -> SpectralTriple:
    """The family's triple with this Dirac, checked against the epsilon' relation."""
    real = RealStructure(j=Antiunitary(fam.u.copy()),
                         signs=SignTriple(eps=1, eps_prime=eps_prime, eps_dprime=1))
    triple = SpectralTriple(rep=fam.rep, dirac=dirac, grading=fam.gamma, real=real, twist=twist)
    residual = operator_norm(epsilon_prime_residual(triple.dirac, fam.u, triple.nu, eps_prime))
    if residual > 1e-12 * (1.0 + operator_norm(triple.dirac)):
        raise CatalogConstraintError(f"parameters violate {relation} (residual {residual:.3e})")
    return triple


def _finite_hops(d1: complex, d2: Optional[complex]) -> tuple[complex, Optional[complex]]:
    """d1 and d2 as complex numbers, rejected before any arithmetic when not finite."""
    hops = (complex(d1), None if d2 is None else complex(d2))
    if not all(math.isfinite(x) for h in hops if h is not None for x in (h.real, h.imag)):
        raise ValueError("the hops d1 and d2 must be finite")
    return hops


def build_c3(eps_prime: int, d1: complex, d2: Optional[complex] = None,
             twist: str = "none") -> SpectralTriple:
    """A C^3 triple of the requested family.

    Untwisted: the (0,1) entry is forced to eps'*conj(d1); passing d2 asserts
    that value. Permutation twist: d1 and d2 are free but must satisfy
    conj(d) = eps'*d (real for eps'=+1, imaginary for eps'=-1).
    """
    eps_prime = int(eps_prime)
    d1, d2 = _finite_hops(d1, d2)
    if twist == "none":
        fam = _FAMILIES[C3_UNTWISTED]
        slot = eps_prime * np.conj(d1) if d2 is None else d2
    elif twist == "perm":
        fam = _FAMILIES[C3_PERM]
        slot = 0j if d2 is None else d2
    else:
        raise ValueError(f"unknown C^3 twist {twist!r}")
    dirac = _hermitian_from_slots(3, {(0, 1): slot, (0, 2): d1})
    return _build(fam, dirac, eps_prime, fam.twist, " and ".join(fam.constraints))


def build_c4(eps_prime: int, d1: complex, d2: Optional[complex] = None,
             twist: str = "none") -> SpectralTriple:
    """A C^4 triple of the requested family.

    Untwisted: slots (0,1) and (2,3) are eps'*conj(d1) and eps'*conj(d2).
    Permutation twist (reversal nu): they are eps'*d2 and eps'*d1 instead.
    The block-swap twist 'perm_bad' keeps the permutation layout but its
    reality condition additionally forces d1 = conj(d2); it is the fixture
    that fails twisted regularity. It exists only for eps' = +1: with the
    block-swap twist, eps' = -1 and the grading admit only D = 0. An
    omitted d2 defaults to 0, except for perm_bad where it defaults to the
    derived conj(d1).
    """
    eps_prime = int(eps_prime)
    if twist == "perm_bad" and eps_prime != 1:
        raise CatalogConstraintError(
            "the perm_bad fixture exists only for eps' = +1: with the block-swap twist, "
            "eps' = -1 and the grading admit only D = 0")
    d1, d2 = _finite_hops(d1, d2)
    if d2 is None:
        d2 = complex(eps_prime * np.conj(d1)) if twist == "perm_bad" else 0j
    if twist == "none":
        fam = _FAMILIES[C4_UNTWISTED]
        upper = {(0, 1): eps_prime * np.conj(d1), (2, 3): eps_prime * np.conj(d2)}
    elif twist in ("perm", "perm_bad"):
        fam = _FAMILIES[C4_PERM]
        upper = {(0, 1): eps_prime * d2, (2, 3): eps_prime * d1}
    else:
        raise ValueError(f"unknown C^4 twist {twist!r}")
    dirac = _hermitian_from_slots(4, {(0, 2): d1, (1, 3): d2, **upper})
    if twist == "perm_bad":
        return _build(fam, dirac, eps_prime, _PERM_BAD_TWIST,
                      "d1 = eps'*conj(d2) (block-swap reality condition)")
    return _build(fam, dirac, eps_prime, fam.twist, ", ".join(fam.constraints))


def build_conformal(space: str, eps_prime: int, d1: complex, d2: complex = 0j,
                    rho: float = 0.5, zeta: float = 1.0,
                    side: str = "algebra") -> SpectralTriple:
    """Conformally rescaled untwisted triple on C^3 or C^4."""
    if space == "c3":
        base = build_c3(eps_prime, d1)
    elif space == "c4":
        base = build_c4(eps_prime, d1, d2)
    else:
        raise ValueError(f"unknown space {space!r}")
    return rescale(base, ConformalFactor(zeta=zeta, rho=rho, side=side))


def build_c4_perm_conformal_composite(eps_prime: int, d1: complex, d2: complex,
                                      rho: float, zeta: float = 1.0) -> SpectralTriple:
    """Permutation-twisted C^4 rescaled by k, carrying the product twist.

    The twist is nu_conformal . nu_permutation; for rho != 1/2 it fails the
    twisted regularity condition, which is the point of this fixture.
    """
    base = build_c4(eps_prime, d1, d2, twist="perm")
    k = ConformalFactor(zeta=zeta, rho=rho)
    k_alg = embed(REP_C4, k.values())
    k_j = base.real.j.conjugate(k_alg)
    nu_conf = np.linalg.inv(k_alg) @ k_j
    dirac = k_j @ base.dirac @ k_j
    return SpectralTriple(rep=REP_C4, dirac=dirac, grading=base.grading, real=base.real,
                          twist=Twist(nu_conf @ base.nu, implements_algebra_automorphism=True))


@dataclass(frozen=True)
class DiracFamily:
    family_id: str
    eps_prime: int
    free_params: tuple[str, ...]
    constraints: tuple[str, ...]
    basis: tuple[np.ndarray, ...]

    @property
    def real_dimension(self) -> int:
        return len(self.basis)


def derive_family(family_id: str, eps_prime: int,
                  tol: ToleranceConfig = DEFAULT_TOL) -> DiracFamily:
    """Solve the grading and reality constraints for the Dirac family.

    The basis comes out of the linear solver; afterwards every member is
    checked against the family's closed-form entry relations, so the solver
    and the closed forms validate each other.
    """
    fam = _FAMILIES.get(family_id)
    if fam is None or fam.defect is None:
        raise ValueError(f"no constraint derivation for family {family_id!r}")
    eps_prime = int(eps_prime)
    if eps_prime not in (1, -1):
        raise ValueError("eps' must be +1 or -1")
    gamma, u, nu = fam.gamma, fam.u, fam.nu
    basis = solve_linear_family(
        [lambda d: gamma @ d + d @ gamma, lambda d: epsilon_prime_residual(d, u, nu, eps_prime)],
        fam.dim, tol)
    for b in basis:
        defect = fam.defect(eps_prime, b)
        if defect > 1e-12:
            raise AssertionError(
                f"solver basis violates the closed-form relation for {family_id} (defect {defect:.3e})")
    return DiracFamily(family_id=family_id, eps_prime=eps_prime, free_params=fam.free_params,
                       constraints=fam.constraints, basis=tuple(basis))


@dataclass(frozen=True)
class ScanReport:
    trials: int
    failures_of_order_one: int
    j_shapes_tested: tuple[str, ...]
    conclusion: bool


_C2_J_SHAPES = ("identity", "swap", "diag_phases", "antidiag_plus", "antidiag_minus")
_C2_NU_CANDIDATES = np.array([np.eye(2), [[0, 1], [1, 0]]], dtype=complex)  # both involutive
# Trials per kernel call: bounds the scan's memory for any trial count.
_SCAN_BLOCK = 256


def _c2_j_stack(phases: np.ndarray) -> np.ndarray:
    """The candidate U's, in _C2_J_SHAPES order, per row (t1, t2) of phases: shape (..., 5, 2, 2)."""
    p1 = np.exp(1j * phases[..., 0])
    p2 = np.exp(1j * phases[..., 1])
    one, zero = np.ones_like(p1), np.zeros_like(p1)
    u = np.array([
        [[one, zero], [zero, one]],
        [[zero, one], [one, zero]],
        [[p1, zero], [zero, p2]],
        [[zero, p1], [p1, zero]],
        [[zero, p1], [-p1, zero]],
    ])
    return np.moveaxis(u, (0, 1, 2), (-3, -2, -1))


def scan_c2_nonexistence(trials: int, seed: int,
                         tol: ToleranceConfig = DEFAULT_TOL) -> ScanReport:
    """Sample C^2 triples with nonzero calculus and test order-one for each J.

    Every candidate antiunitary maps the diagonal algebra into itself, so
    order-one (twisted or not: the involutive twist candidates give the same
    residual) must fail whenever [D, e] is nonzero. Each (trial, J) pair that
    fails is counted; the conclusion holds iff they all fail.

    Each trial draws D (resampled until ||[D, e]|| > 0.1) and then the two
    phases of its J candidates, in that order, so a seed gives the same
    triples as a trial-by-trial loop. The draws of up to _SCAN_BLOCK trials
    are stacked, and one order_one_residual call evaluates every (trial, J,
    nu) of the block, so memory stays bounded for any trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    e = projection_e(REP_C2)
    basis = [e, np.eye(2, dtype=complex) - e]
    failures = 0
    for start in range(0, trials, _SCAN_BLOCK):
        size = min(_SCAN_BLOCK, trials - start)
        diracs = np.empty((size, 2, 2), dtype=complex)
        phases = np.empty((size, 2))
        for k in range(size):
            for _attempt in range(1000):
                m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                d = m + m.conj().T
                if operator_norm(commutator(d, e)) > 0.1:
                    break
            else:
                raise RuntimeError("sampler failed to find a nonzero calculus")
            diracs[k] = d
            phases[k] = rng.uniform(0.0, 2.0 * math.pi, size=2)
        residuals = order_one_residual(diracs[:, None, None], _c2_j_stack(phases)[:, :, None],
                                       _C2_NU_CANDIDATES, basis)  # (trial, J, nu)
        failures += int(np.count_nonzero(residuals.min(axis=-1) > tol.abs_tol))
    return ScanReport(trials=trials, failures_of_order_one=failures,
                      j_shapes_tested=_C2_J_SHAPES,
                      conclusion=failures == trials * len(_C2_J_SHAPES))


def fluctuation_orbit_params(family_id: str, d1: complex, d2: complex,
                             phi: complex) -> tuple[complex, complex]:
    """Closed-form parameter map of a gauge fluctuation with coefficient phi.

    c3_untwisted has a single free parameter; d2 is passed through untouched.
    """
    return _family(family_id).orbit(complex(d1), complex(d2), complex(phi))


def fluctuated_distance_formula(family_id: str, params: dict, phi: complex) -> float:
    """Distance of the phi-fluctuated family member, in closed form."""
    denom = _family(family_id).distance(params, complex(phi))
    if denom < DEFAULT_TOL.rank_tol:
        return math.inf
    return 1.0 / denom


def _matches(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> bool:
    return operator_norm(np.asarray(a) - np.asarray(b)) < tol.abs_tol


def _conformal_rho(nu: np.ndarray, tol: ToleranceConfig) -> Optional[float]:
    """Recover rho from a diagonal twist diag(1, (1-rho)/rho, rho/(1-rho)[, 1])."""
    dim = nu.shape[0]
    if operator_norm(nu - np.diag(np.diag(nu))) > tol.abs_tol:
        return None
    diag = np.diag(nu).real
    if abs(nu[0, 0] - 1.0) > tol.abs_tol:
        return None
    if dim == 4 and abs(nu[3, 3] - 1.0) > tol.abs_tol:
        return None
    x = diag[1]
    if x <= 0:
        return None
    rho = 1.0 / (1.0 + x)
    if abs(diag[2] - rho / (1.0 - rho)) > tol.abs_tol * (1.0 + abs(diag[2])):
        return None
    return float(rho)


def _twist_params(fam: _Family, twist: Optional[Twist], tol: ToleranceConfig) -> Optional[dict]:
    """Parameters the twist contributes if it has the family's shape, else None."""
    if fam.conformal:
        rho = None if twist is None else _conformal_rho(twist.nu, tol)
        return None if rho is None else {"rho": rho}
    if fam.twist is None:
        return {} if twist is None else None
    return {} if twist is not None and _matches(twist.nu, fam.twist.nu, tol) else None


def identify_family(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[tuple[str, dict]]:
    """Recognise a catalog shape, returning (family_id, parameters) or None."""
    if t.real is None or t.grading is None:
        return None
    for family_id, fam in _FAMILIES.items():
        if t.rep != fam.rep:
            continue
        params = _twist_params(fam, t.twist, tol)
        if params is None:
            continue
        if not _matches(t.grading, fam.gamma, tol) or not _matches(t.real.j.u, fam.u, tol):
            return None
        params.update((name, complex(t.dirac[i, j])) for name, (i, j) in fam.slots)
        return (family_id, params)
    return None
