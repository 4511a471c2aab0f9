"""Builders for the concrete two-point triples on C^3 and C^4.

Matrix layout conventions (row/column indices start at 0):

C^3: grading diag(1,-1,-1), representation (+,+,-), J swaps basis vectors
1 and 2. The Dirac family has free entries at (0,1) and (0,2); the reality
conditions tie them together per family.

C^4: grading diag(1,-1,-1,1), representation (+,+,-,-), J swaps 1 and 2.
Free entries sit at (0,1), (0,2), (1,3), (2,3); d1 = (0,2) and d2 = (1,3)
are the entries the calculus sees.

Family constraints are both enforced by the builders and re-derived from
scratch by `derive_family`, which solves check_all's four conditions on D
(axioms._dirac_terms; twisted order one included) and checks the solver's
basis against the closed forms. This module states no axiom itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .algebra import (
    REP_C2,
    REP_C3,
    REP_C4,
    Representation,
    _integer,
    _point_projections,
)
from .axioms import (
    RealStructure,
    SignTriple,
    SpectralTriple,
    Twist,
    _dirac_operands,
    _dirac_terms,
    _kept,
    _order_one_diffs,
    _order_one_images,
    _Structure,
    _triple,
    _twisted,
    epsilon_prime_residual,
)
from .conformal import ConformalFactor, rescale
from .linalg import (
    DEFAULT_TOL,
    _ENTRY_MARGIN,
    Antiunitary,
    ToleranceConfig,
    _as_square,
    _assembled,
    _exceeds,
    _norms_exceed,
    _reciprocal,
    commutator,
    operator_norm,
    solve_linear_family,
)
from .signs import _sign

__all__ = [
    "C3_UNTWISTED",
    "C3_PERM",
    "C4_UNTWISTED",
    "C4_PERM",
    "C3_CONFORMAL",
    "C4_CONFORMAL",
    "C4_PERM_BAD",
    "FAMILIES",
    "CatalogConstraintError",
    "DiracFamily",
    "ScanReport",
    "build_family",
    "catalog_family",
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
C4_PERM_BAD = "c4_perm_bad"  # the block-swap fixture: buildable, not one of FAMILIES
FAMILIES = (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C3_CONFORMAL, C4_CONFORMAL)

GAMMA3 = np.diag([1.0, -1.0, -1.0]).astype(complex)
GAMMA4 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
U3 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
U4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
NU3_PERM = U3.copy()
NU4_PERM = np.fliplr(np.eye(4)).astype(complex)          # reverses the basis order
NU4_PERM_BAD = np.block([[np.zeros((2, 2)), np.eye(2)],  # swaps the two 2-blocks
                         [np.eye(2), np.zeros((2, 2))]]).astype(complex)
for _m in (GAMMA3, GAMMA4, U3, U4, NU3_PERM, NU4_PERM, NU4_PERM_BAD):
    # the members' structures copy them, and identify_family's kept matches were
    # taken against them: an in-place edit raises instead
    _m.flags.writeable = False


@dataclass(frozen=True)
class _Family:
    """Everything the catalog knows about one family.

    twist is the fixed twist (None when untwisted, or when the twist is the
    rho-dependent conformal one), named twist_name in the builders and the
    CLI. The Dirac layout: d1 and d2 sit at the upper entries hops, derived
    maps (eps', d1, d2) to the other upper entries, and default_d2 gives an
    omitted d2; a conformal family rescales its base family instead. slots
    name the Dirac entries that identify_family reports. defect measures how
    far a solver basis member is from the closed-form relations (conformal
    families have none). orbit maps (d1, d2, phi) to the fluctuated
    parameters and distance maps (params, phi) to the denominator of the
    fluctuated distance.
    """

    rep: Representation
    gamma: np.ndarray
    u: np.ndarray
    twist: Optional[Twist]
    twist_name: str
    slots: tuple[tuple[str, tuple[int, int]], ...]
    orbit: Callable[[complex, complex, complex], tuple[complex, complex]]
    distance: Callable[[dict, complex], float]
    hops: tuple[tuple[int, int], tuple[int, int]] = ((0, 2), (0, 1))
    derived: Callable[[int, complex, complex], dict] = lambda eps, d1, d2: {}
    default_d2: Callable[[int, complex], complex] = lambda eps, d1: 0j
    base: Optional[str] = None
    plus_only: Optional[str] = None  # why eps' = -1 has no member, when it has none
    free_params: tuple[str, ...] = ()
    constraints: tuple[str, ...] = ()
    defect: Optional[Callable[[int, np.ndarray], float]] = None

    @property
    def dim(self) -> int:
        return self.rep.dim


def _scale_both(d1: complex, d2: complex, phi: complex) -> tuple[complex, complex]:
    return ((1.0 - phi) * d1, (1.0 - phi) * d2)


def _perm_c3_factor(phi: complex) -> complex:
    return 1.0 - phi - np.conj(phi)


def _c4_distance(p: dict, phi: complex) -> float:
    return abs(1.0 - phi) * max(abs(p["d1"]), abs(p["d2"]))


_C4_SLOTS = (("d1", (0, 2)), ("d2", (1, 3)))

_FAMILIES = {
    C3_UNTWISTED: _Family(
        rep=REP_C3, gamma=GAMMA3, u=U3, twist=None, twist_name="none",
        slots=(("d1", (0, 2)), ("d3_slot", (0, 1))),
        orbit=lambda d1, d2, phi: ((1.0 - phi) * d1, d2),
        distance=lambda p, phi: abs(1.0 - phi) * abs(p["d1"]),
        default_d2=lambda eps, d1: eps * np.conj(d1),
        free_params=("d1",),
        constraints=("d3 = eps'*conj(d1)",),
        defect=lambda eps, b: abs(b[0, 1] - eps * np.conj(b[0, 2])),
    ),
    C3_PERM: _Family(
        rep=REP_C3, gamma=GAMMA3, u=U3,
        twist=Twist(NU3_PERM, implements_algebra_automorphism=False), twist_name="perm",
        slots=(("d1", (0, 2)), ("d2", (0, 1))),
        orbit=lambda d1, d2, phi: (_perm_c3_factor(phi) * d1, d2),
        distance=lambda p, phi: max(abs(_perm_c3_factor(phi)) * abs(p["d1"]), abs(p["d2"])),
        free_params=("d1", "d2"),
        constraints=("conj(d1) = eps'*d1", "conj(d2) = eps'*d2"),
        defect=lambda eps, b: float(operator_norm(np.conj(b) - eps * b)),
    ),
    C4_UNTWISTED: _Family(
        rep=REP_C4, gamma=GAMMA4, u=U4, twist=None, twist_name="none",
        slots=_C4_SLOTS + (("d3_slot", (0, 1)), ("d4_slot", (2, 3))),
        orbit=_scale_both,
        distance=_c4_distance,
        hops=((0, 2), (1, 3)),
        derived=lambda eps, d1, d2: {(0, 1): eps * np.conj(d1), (2, 3): eps * np.conj(d2)},
        free_params=("d1", "d2"),
        constraints=("d3 = eps'*conj(d1)", "d4 = eps'*conj(d2)"),
        defect=lambda eps, b: max(abs(b[0, 1] - eps * np.conj(b[0, 2])),
                                  abs(b[2, 3] - eps * np.conj(b[1, 3]))),
    ),
    C4_PERM: _Family(
        rep=REP_C4, gamma=GAMMA4, u=U4,
        twist=Twist(NU4_PERM, implements_algebra_automorphism=True), twist_name="perm",
        slots=_C4_SLOTS,
        orbit=_scale_both,
        distance=_c4_distance,
        hops=((0, 2), (1, 3)),
        derived=lambda eps, d1, d2: {(0, 1): eps * d2, (2, 3): eps * d1},
        free_params=("d1", "d2"),
        constraints=("d3 = eps'*d2", "d4 = eps'*d1"),
        defect=lambda eps, b: max(abs(b[0, 1] - eps * b[1, 3]),
                                  abs(b[2, 3] - eps * b[0, 2])),
    ),
    C3_CONFORMAL: _Family(
        rep=REP_C3, gamma=GAMMA3, u=U3, twist=None, twist_name="conformal", base=C3_UNTWISTED,
        slots=(("hop1", (0, 2)), ("offdiag", (0, 1))),
        orbit=_scale_both,
        distance=lambda p, phi: abs(1.0 - phi) * abs(p["hop1"]),
    ),
    C4_CONFORMAL: _Family(
        rep=REP_C4, gamma=GAMMA4, u=U4, twist=None, twist_name="conformal", base=C4_UNTWISTED,
        slots=(("hop1", (0, 2)), ("hop2", (1, 3)), ("offdiag1", (0, 1)), ("offdiag2", (2, 3))),
        orbit=_scale_both,
        distance=lambda p, phi: abs(1.0 - phi) * max(abs(p["hop1"]), abs(p["hop2"])),
    ),
}

# The block-swap fixture: C4_PERM's layout with a twist that breaks twisted regularity.
# It is buildable but not in FAMILIES, so identify_family and derive_family never report it.
_BUILDABLE = {**_FAMILIES, C4_PERM_BAD: replace(
    _FAMILIES[C4_PERM], twist=Twist(NU4_PERM_BAD, implements_algebra_automorphism=True),
    twist_name="perm_bad", default_d2=lambda eps, d1: complex(eps * np.conj(d1)), defect=None,
    constraints=("d1 = eps'*conj(d2) (block-swap reality condition)",),
    plus_only="the perm_bad fixture exists only for eps' = +1: with the block-swap twist, "
              "eps' = -1 and the grading admit only D = 0")}
# (space, twist name) -> family id, as build_c3/build_c4/build_conformal and the CLI name them
_NAMED = {(f"c{fam.dim}", fam.twist_name): family_id for family_id, fam in _BUILDABLE.items()}


def _family(family_id: str, records: dict = _FAMILIES) -> _Family:
    if family_id not in records:
        raise ValueError(f"unknown family {family_id!r}")
    return records[family_id]


class CatalogConstraintError(ValueError):
    """Parameters violate the family's reality constraint."""


def _finite_hops(d1: complex, d2: Optional[complex]) -> tuple[complex, Optional[complex]]:
    """d1 and d2 as complex numbers, rejected before any arithmetic when not finite."""
    hops = (complex(d1), None if d2 is None else complex(d2))
    if not all(math.isfinite(x) for h in hops if h is not None for x in (h.real, h.imag)):
        raise ValueError("the hops d1 and d2 must be finite")
    return hops


def catalog_family(space: str, twist: str, conformal: bool = True) -> str:
    """The family `twistriple catalog SPACE --twist TWIST` builds; conformal=False refuses rescaled ones."""
    if space not in ("c3", "c4"):
        raise ValueError(f"unknown space {space!r}")
    family_id = _NAMED.get((space, twist))
    if family_id is None or (not conformal and _BUILDABLE[family_id].base is not None):
        raise ValueError(f"unknown C^{space[1:]} twist {twist!r}")
    return family_id


def build_family(family_id: str, eps_prime: int, d1: complex, d2: Optional[complex] = None,
                 rho: Optional[float] = None, zeta: Optional[float] = None) -> SpectralTriple:
    """The member (eps', d1, d2) of a catalog family (or C4_PERM_BAD), laid out by its record.

    An omitted d2 takes the family's default; the triple must satisfy the
    epsilon' relation to 1e-12 (1 + ||D||), else CatalogConstraintError. A
    conformal family rescales its base family's member by
    ConformalFactor(zeta, rho): it needs rho, and no other family takes rho or zeta.

    Of the member's matrices only D, which this call lays out, is checked
    (linalg._as_square): every member of (family, eps') shares one
    structure (_member_structure), made of the family's read-only constants.
    """
    fam = _family(family_id, _BUILDABLE)
    eps_prime = _sign(eps_prime)
    if fam.plus_only is not None and eps_prime != 1:
        raise CatalogConstraintError(fam.plus_only)
    d1, d2 = _finite_hops(d1, d2)
    if fam.base is not None:
        if rho is None:
            raise ValueError(f"the conformal family {family_id} needs rho")
        return rescale(build_family(fam.base, eps_prime, d1, d2),
                       ConformalFactor(zeta=1.0 if zeta is None else zeta, rho=rho))
    if rho is not None or zeta is not None:
        raise ValueError(f"rho and zeta apply only to the conformal families, not to {family_id}")
    if d2 is None:
        d2 = fam.default_d2(eps_prime, d1)
    dirac = np.zeros((fam.dim, fam.dim), dtype=complex)
    for (i, j), v in {fam.hops[0]: d1, fam.hops[1]: d2, **fam.derived(eps_prime, d1, d2)}.items():
        dirac[i, j], dirac[j, i] = v, np.conj(v)
    triple = _triple(_member_structure(family_id, eps_prime), _as_square(dirac))
    residual = epsilon_prime_residual(triple.dirac, fam.u, triple.nu, eps_prime)
    if norm := _exceeds(residual, 1e-12, triple.dirac):
        relation = (" and " if fam.dim == 3 else ", ").join(fam.constraints)  # the C^3 messages read "and"
        raise CatalogConstraintError(f"parameters violate {relation} (residual {norm:.3e})")
    return triple


@lru_cache(maxsize=16)
def _member_structure(family_id: str, eps_prime: int) -> _Structure:
    """The structure of the members (eps', ...) of a family that is not conformal."""
    fam = _BUILDABLE[family_id]
    real = RealStructure(Antiunitary(fam.u), SignTriple(eps=1, eps_prime=eps_prime, eps_dprime=1))
    return SpectralTriple(fam.rep, np.zeros((fam.dim, fam.dim)), fam.gamma, real, fam.twist)._structure


def build_c3(eps_prime: int, d1: complex, d2: Optional[complex] = None,
             twist: str = "none") -> SpectralTriple:
    """A C^3 triple of the requested family.

    Untwisted: the (0,1) entry is forced to eps'*conj(d1); passing d2 asserts
    that value. Permutation twist: d1 and d2 are free but must satisfy
    conj(d) = eps'*d (real for eps'=+1, imaginary for eps'=-1).
    """
    return build_family(catalog_family("c3", twist, conformal=False), eps_prime, d1, d2)


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
    return build_family(catalog_family("c4", twist, conformal=False), eps_prime, d1, d2)


def build_conformal(space: str, eps_prime: int, d1: complex, d2: complex = 0j,
                    rho: float = 0.5, zeta: float = 1.0) -> SpectralTriple:
    """Conformally rescaled untwisted triple on C^3 or C^4.

    The C^3 family has the single hop d1, so there a finite d2 is ignored
    (the (0,1) entry is eps'*conj(d1)); a non-finite d2 is still rejected.
    """
    family_id = catalog_family(space, "conformal")
    d1, d2 = _finite_hops(d1, d2)
    if "d2" not in _FAMILIES[_FAMILIES[family_id].base].free_params:
        d2 = None
    return build_family(family_id, eps_prime, d1, d2, rho=rho, zeta=zeta)


def build_c4_perm_conformal_composite(eps_prime: int, d1: complex, d2: complex,
                                      rho: float, zeta: float = 1.0) -> SpectralTriple:
    """Permutation-twisted C^4 rescaled by k, carrying the product twist.

    The twist is nu_conformal . nu_permutation; for rho != 1/2 it fails the
    twisted regularity condition, which is the point of this fixture. Only
    the matrices computed here are checked: rescale's D and nu, and the
    product twist (linalg._as_square). Every triple on the way shares the
    perm member's frame.
    """
    base = build_c4(eps_prime, d1, d2, twist="perm")
    frame = base._structure.frame
    rescaled = rescale(_triple(_Structure(frame), base.dirac), ConformalFactor(zeta=zeta, rho=rho))
    nu = _as_square(rescaled.nu @ base.nu)
    twist = _assembled(Twist, nu=nu, implements_algebra_automorphism=True)
    return _triple(_twisted(frame, twist), rescaled.dirac)


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


def derive_family(family_id: str, eps_prime: int) -> DiracFamily:
    """Solve check_all's four conditions on D for the Dirac family.

    The conditions are axioms._dirac_terms' (selfadjointness, the grading,
    twisted order one and epsilon'), evaluated with the structure of the
    family's member build_family(family_id, eps', 0). The basis comes out of
    the linear solver; afterwards every member is checked against the
    family's closed-form entry relations, so the solver and the closed forms
    validate each other. The conditions depend on no Dirac operator, so
    each (family, eps') is solved once per process and the same record,
    with read-only basis matrices, is returned after that.
    """
    fam = _FAMILIES.get(family_id)
    if fam is None or fam.defect is None:
        raise ValueError(f"no constraint derivation for family {family_id!r}")
    return _derived_family(family_id, _sign(eps_prime, "eps' must be +1 or -1"))


@lru_cache(maxsize=16)
def _derived_family(family_id: str, eps_prime: int) -> DiracFamily:
    """derive_family's record of a family that has a defect, for eps' = +1 or -1."""
    fam = _FAMILIES[family_id]
    member = build_family(family_id, eps_prime, 0)
    operands = _kept(member._structure, "dirac_operands", _dirac_operands)

    def conditions(stack: np.ndarray) -> np.ndarray:
        terms = _dirac_terms(member, stack, operands)
        return np.concatenate([r.reshape(len(stack), -1) for _, r, _ in terms], axis=1)

    basis = solve_linear_family([conditions], fam.dim)
    for b in basis:
        defect = fam.defect(eps_prime, b)
        if defect > 1e-12:
            raise AssertionError(
                f"solver basis violates the closed-form relation for {family_id} (defect {defect:.3e})")
        b.flags.writeable = False
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
    u = np.zeros(p1.shape + (5, 2, 2), dtype=p1.dtype)
    u[..., 0, 0, 0] = u[..., 0, 1, 1] = 1.0
    u[..., 1, 0, 1] = u[..., 1, 1, 0] = 1.0
    u[..., 2, 0, 0], u[..., 2, 1, 1] = p1, p2
    u[..., 3, 0, 1] = u[..., 3, 1, 0] = p1
    u[..., 4, 0, 1], u[..., 4, 1, 0] = p1, -p1
    return u


def _c2_diracs(normals: np.ndarray) -> np.ndarray:
    """D = m + m^H with m = re + i im, per pair (re, im) of normals (..., 2, 2, 2)."""
    m = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return m + np.conj(np.swapaxes(m, -1, -2))


def _calculus_exceeds(normals: np.ndarray) -> bool:
    """_norms_exceed(commutator(d, e), 0.1) for d = _c2_diracs(normals) and e = diag(1, 0).

    [d, e] = [[0, -d01], [conj(d01), 0]] exactly, with d01 = m01 + conj(m10),
    so its norm and its largest entry modulus are both |d01|, and the entry
    branch of _norms_exceed reduces to one scalar comparison against its
    margin, linalg._ENTRY_MARGIN. (np.abs and abs may round a modulus a few
    ulps apart, far inside that margin, so the verdict is the same.) Only a
    d01 that does not clear the margin goes to _norms_exceed.
    """
    (_, re01), (re10, _), (_, im01), (im10, _) = normals.reshape(4, 2).tolist()
    if abs(complex(re01 + re10, im01 - im10)) > 0.1 * _ENTRY_MARGIN:
        return True
    e = _point_projections(REP_C2)[0]
    return bool(_norms_exceed(commutator(_c2_diracs(normals), e), 0.1))


def scan_c2_nonexistence(trials: int, seed: int,
                         tol: ToleranceConfig = DEFAULT_TOL) -> ScanReport:
    """Sample C^2 triples with nonzero calculus and test order-one for each J.

    Every candidate antiunitary maps the diagonal algebra into itself, so
    order-one (twisted or not: the involutive twist candidates give the same
    residual) must fail whenever [D, e] is nonzero. Each (trial, J) pair that
    fails is counted; the conclusion holds iff they all fail.

    Each trial draws D = m + m^H (one standard_normal((2, 2, 2)) per attempt,
    resampled until ||[D, e]|| > 0.1) and then the two phases of its J
    candidates, in that order, so a seed gives the same triples as a
    trial-by-trial loop. The resampling test is decided from the scalar
    d01 = D[0, 1] by _calculus_exceeds, and only a |d01| within the 1e-12
    margin of 0.1 or below it goes to linalg._norms_exceed. The draws of up
    to _SCAN_BLOCK trials are stacked, and one _order_one_diffs call gives
    every basis-pair difference of every (trial, J) of the block, so memory
    stays bounded for any trial count. The differences depend on nu only
    through nu^2, and both involutive candidates in _C2_NU_CANDIDATES square
    to the identity exactly, so the kernel runs for nu = 1 alone and its
    verdict covers both. A pair fails iff some difference has norm above
    abs_tol, decided by _norms_exceed: a difference with an entry beyond the
    tolerance is decided without an SVD, the rest by the SVD, so every
    verdict is the one that comparing order_one_residual with abs_tol gives.
    """
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    basis = _point_projections(REP_C2)
    failures = 0
    for start in range(0, trials, _SCAN_BLOCK):
        size = min(_SCAN_BLOCK, trials - start)
        normals = np.empty((size, 2, 2, 2))  # (re, im) of m per trial, D = m + m^H
        phases = np.empty((size, 2))
        for k in range(size):
            for _attempt in range(1000):
                rng.standard_normal(out=normals[k])
                if _calculus_exceeds(normals[k]):
                    break
            else:
                raise RuntimeError("sampler failed to find a nonzero calculus")
            phases[k] = rng.uniform(0.0, 2.0 * math.pi, size=2)
        diracs = _c2_diracs(normals)
        # nu enters only through nu^2, which is exactly the identity for each
        # of _C2_NU_CANDIDATES, so nu = 1 gives every candidate's differences
        images = _order_one_images(_c2_j_stack(phases), _C2_NU_CANDIDATES[0], basis)
        diffs = _order_one_diffs(diracs[:, None], basis, *images)  # (trial, J, pair, 2, 2)
        fails = _norms_exceed(diffs, tol.abs_tol).any(axis=-1)
        failures += int(np.count_nonzero(fails))
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
    """Distance of the phi-fluctuated family member, in closed form: linalg._reciprocal of its norm."""
    return _reciprocal(_family(family_id).distance(params, complex(phi)))


def _conformal_rho(nu: np.ndarray, tol: ToleranceConfig) -> Optional[float]:
    """Recover rho from a diagonal twist diag(1, (1-rho)/rho, rho/(1-rho)[, 1])."""
    diag = np.diag(nu)
    if _exceeds(nu - np.diag(diag), tol.abs_tol) or abs(diag[0] - 1.0) > tol.abs_tol:
        return None
    if len(diag) == 4 and abs(diag[3] - 1.0) > tol.abs_tol:
        return None
    x = diag[1].real
    if x <= 0:
        return None
    rho = 1.0 / (1.0 + x)
    # the complex entries, so that an imaginary part counts against the match
    for entry, want in ((diag[1], x), (diag[2], rho / (1.0 - rho))):
        if abs(entry - want) > tol.abs_tol * (1.0 + abs(entry)):
            return None
    return float(rho)


def _twist_params(fam: _Family, twist: Optional[Twist], tol: ToleranceConfig) -> Optional[dict]:
    """Parameters the twist contributes if it has the family's shape, else None."""
    if fam.base is not None:
        rho = None if twist is None else _conformal_rho(twist.nu, tol)
        return None if rho is None else {"rho": rho}
    if fam.twist is None:
        return {} if twist is None else None
    # only a verdict is needed, so an entry beyond the bound settles it with no SVD
    return {} if twist is not None and not _norms_exceed(twist.nu - fam.twist.nu, tol.abs_tol) else None


def _shape_match(t: SpectralTriple, tol: ToleranceConfig) -> tuple:
    """identify_family's D-free part: (family_id, twist parameters) or ()."""
    for family_id, fam in _FAMILIES.items():
        if t.rep != fam.rep:
            continue
        params = _twist_params(fam, t.twist, tol)
        if params is None:
            continue
        if _exceeds(np.stack([t.grading - fam.gamma, t.real.j.u - fam.u]), tol.abs_tol):
            return ()
        return (family_id, params)
    return ()


def identify_family(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[tuple[str, dict]]:
    """Recognise a catalog shape, returning (family_id, parameters) or None.

    Which family matches depends only on the representation, the twist,
    the grading and J, so t's structure keeps the match as "shape", with the
    tol it was made at (the last a call used); the parameters read from D's
    slots are fresh on every call.
    """
    if t.real is None or t.grading is None:
        return None
    made_at, match = t._structure.__dict__.get("shape", (None, None))
    if made_at != tol:
        _, match = t._structure.__dict__["shape"] = (tol, _shape_match(t, tol))
    if not match:
        return None
    family_id, twist_params = match
    params = dict(twist_params)
    params.update((name, complex(t.dirac[i, j])) for name, (i, j) in _FAMILIES[family_id].slots)
    return (family_id, params)
