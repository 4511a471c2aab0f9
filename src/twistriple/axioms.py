"""Spectral triple data and the reality axioms.

A triple bundles a diagonal representation, a selfadjoint Dirac operator,
and optionally a grading, a real structure J = U o conj with its signs, and
a selfadjoint invertible twist nu. The check_* functions report residual
norms rather than booleans so that near-failures remain visible; check_all
aggregates every applicable condition plus the structural invariants of J
and nu.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .algebra import Representation, embed
from .linalg import (
    DEFAULT_TOL,
    Antiunitary,
    ToleranceConfig,
    _as_square,
    commutator,
    commutant_dimension,
    operator_norm,
)

__all__ = [
    "SignTriple",
    "Twist",
    "RealStructure",
    "SpectralTriple",
    "CheckEntry",
    "CheckReport",
    "order_one_residual",
    "epsilon_prime_residual",
    "check_order_zero",
    "check_twisted_order_one",
    "check_epsilon_prime",
    "check_twisted_regularity",
    "check_grading",
    "check_all",
    "ko_dimension",
    "is_irreducible",
]


def _sign(value: int) -> int:
    v = int(value)
    if v not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    return v


@dataclass(frozen=True)
class SignTriple:
    eps: int
    eps_prime: int
    eps_dprime: Optional[int] = None  # present exactly for graded triples

    def __post_init__(self):
        object.__setattr__(self, "eps", _sign(self.eps))
        object.__setattr__(self, "eps_prime", _sign(self.eps_prime))
        if self.eps_dprime is not None:
            object.__setattr__(self, "eps_dprime", _sign(self.eps_dprime))


@dataclass(frozen=True)
class Twist:
    """A twist operator nu.

    When implements_algebra_automorphism is set, nu^-1 a nu must stay inside
    the represented algebra; when it is not set, nu^2 = id is required
    instead (the only admissible relaxation). Both are verified by check_all,
    not at construction, so that broken twists can be used as negative
    fixtures; only shape and finiteness are enforced here.
    """

    nu: np.ndarray
    implements_algebra_automorphism: bool = True

    def __post_init__(self):
        object.__setattr__(self, "nu", _as_square(self.nu))


@dataclass(frozen=True)
class RealStructure:
    j: Antiunitary
    signs: SignTriple


@dataclass(frozen=True)
class SpectralTriple:
    rep: Representation
    dirac: np.ndarray
    grading: Optional[np.ndarray] = None
    real: Optional[RealStructure] = None
    twist: Optional[Twist] = None

    def __post_init__(self):
        d = np.asarray(self.dirac, dtype=complex)
        if d.shape != (self.rep.dim, self.rep.dim):
            raise ValueError("Dirac operator dimension does not match the representation")
        object.__setattr__(self, "dirac", _as_square(d))
        if self.grading is not None:
            g = np.asarray(self.grading, dtype=complex)
            if g.shape != d.shape:
                raise ValueError("grading dimension mismatch")
            object.__setattr__(self, "grading", _as_square(g))

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def nu(self) -> np.ndarray:
        """The twist matrix, identity when untwisted."""
        if self.twist is None:
            return np.eye(self.dim, dtype=complex)
        return self.twist.nu

    @property
    def eps_prime(self) -> int:
        if self.real is None:
            raise ValueError("triple has no real structure")
        return self.real.signs.eps_prime

    def with_dirac(self, dirac: np.ndarray) -> "SpectralTriple":
        return replace(self, dirac=np.asarray(dirac, dtype=complex))

    def algebra_basis(self) -> list[np.ndarray]:
        """Embedded basis {e, 1-e} (two points) or the point projections."""
        k = self.rep.n_points
        out = []
        for p in range(k):
            values = [1.0 if q == p else 0.0 for q in range(k)]
            out.append(embed(self.rep, values))
        return out


@dataclass(frozen=True)
class CheckEntry:
    condition: str
    residual: float
    tol_used: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol_used


@dataclass
class CheckReport:
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, condition: str, residual: float, tol_used: float):
        self.entries.append(CheckEntry(condition, float(residual), float(tol_used)))

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failing(self) -> list[str]:
        return [e.condition for e in self.entries if not e.passed]

    def entry(self, condition: str) -> CheckEntry:
        for e in self.entries:
            if e.condition == condition:
                return e
        raise KeyError(condition)


def _require_real(t: SpectralTriple) -> RealStructure:
    if t.real is None:
        raise ValueError("triple has no real structure")
    return t.real


def check_order_zero(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """[a, J b J^-1] = 0 over the algebra basis pairs."""
    real = _require_real(t)
    basis = t.algebra_basis()
    worst = 0.0
    for a in basis:
        for b in basis:
            worst = max(worst, operator_norm(commutator(a, real.j.conjugate(b))))
    return CheckEntry("order_zero", worst, tol.abs_tol)


def order_one_residual(dirac: np.ndarray, j: Antiunitary, nu: np.ndarray,
                       basis: list[np.ndarray]) -> float:
    """Worst ||[D,a] J nu^-2 b nu^2 J^-1 - J b J^-1 [D,a]|| over basis pairs (a, b)."""
    nu2 = nu @ nu
    nu2_inv = np.linalg.inv(nu2)
    worst = 0.0
    for a in basis:
        da = commutator(dirac, a)
        for b in basis:
            lhs = da @ j.conjugate(nu2_inv @ b @ nu2)
            rhs = j.conjugate(b) @ da
            worst = max(worst, operator_norm(lhs - rhs))
    return worst


def epsilon_prime_residual(dirac: np.ndarray, u: np.ndarray, nu: np.ndarray,
                           eps_prime: int) -> np.ndarray:
    """D U conj(nu) - eps' nu U conj(D), which vanishes iff D J nu = eps' nu J D."""
    return dirac @ u @ np.conj(nu) - eps_prime * nu @ u @ np.conj(dirac)


def check_twisted_order_one(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """[D,a] J nu^-2 b nu^2 J^-1 = J b J^-1 [D,a] over basis pairs (nu = id untwisted)."""
    real = _require_real(t)
    residual = order_one_residual(t.dirac, real.j, t.nu, t.algebra_basis())
    return CheckEntry("twisted_order_one", residual, tol.abs_tol)


def check_epsilon_prime(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """D J nu = eps' nu J D, as the matrix identity D U conj(nu) = eps' nu U conj(D)."""
    real = _require_real(t)
    residual = epsilon_prime_residual(t.dirac, real.j.u, t.nu, real.signs.eps_prime)
    return CheckEntry("epsilon_prime", operator_norm(residual), tol.abs_tol)


def check_twisted_regularity(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """nu J nu = J, i.e. nu U conj(nu) = U; vacuous (residual 0) when untwisted."""
    real = _require_real(t)
    if t.twist is None:
        return CheckEntry("twisted_regularity", 0.0, tol.abs_tol)
    u = real.j.u
    nu = t.twist.nu
    return CheckEntry("twisted_regularity", operator_norm(nu @ u @ np.conj(nu) - u), tol.abs_tol)


def check_grading(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> list[CheckEntry]:
    """All grading conditions; the J sign uses eps'' from the triple's signs."""
    if t.grading is None:
        raise ValueError("triple has no grading")
    g = t.grading
    eye = np.eye(t.dim, dtype=complex)
    entries = [
        CheckEntry("grading_selfadjoint", operator_norm(g - g.conj().T), tol.abs_tol),
        CheckEntry("grading_squares_to_identity", operator_norm(g @ g - eye), tol.abs_tol),
        CheckEntry(
            "grading_commutes_algebra",
            max(operator_norm(commutator(g, a)) for a in t.algebra_basis()),
            tol.abs_tol,
        ),
        CheckEntry(
            "grading_anticommutes_dirac",
            operator_norm(g @ t.dirac + t.dirac @ g),
            tol.abs_tol,
        ),
    ]
    if t.twist is not None:
        nu2 = t.nu @ t.nu
        entries.append(
            CheckEntry("grading_commutes_nu_squared", operator_norm(commutator(nu2, g)), tol.abs_tol)
        )
    if t.real is not None:
        signs = t.real.signs
        if signs.eps_dprime is None:
            raise ValueError("graded triple with real structure needs the eps'' sign")
        u = t.real.j.u
        entries.append(
            CheckEntry(
                "grading_j_sign",
                operator_norm(g @ u - signs.eps_dprime * u @ np.conj(g)),
                tol.abs_tol,
            )
        )
    return entries


def _twist_invariant_entries(t: SpectralTriple, tol: ToleranceConfig) -> list[CheckEntry]:
    twist = t.twist
    nu = twist.nu
    entries = [CheckEntry("twist_selfadjoint", operator_norm(nu - nu.conj().T), tol.abs_tol)]
    svals = np.linalg.svd(nu, compute_uv=False)
    invertible = svals[-1] > tol.rank_tol * max(1.0, svals[0])
    entries.append(CheckEntry("twist_invertible", 0.0 if invertible else 1.0, 0.5))
    if twist.implements_algebra_automorphism:
        if invertible:
            nu_inv = np.linalg.inv(nu)
            worst = 0.0
            for a in t.algebra_basis():
                m = nu_inv @ a @ nu
                # Nearest embedded element: average the diagonal over each point block.
                values = []
                for p in range(t.rep.n_points):
                    idx = [i for i, q in enumerate(t.rep.point_of) if q == p]
                    values.append(np.mean([m[i, i] for i in idx]))
                worst = max(worst, operator_norm(m - embed(t.rep, values)))
            entries.append(CheckEntry("twist_preserves_algebra", worst, tol.abs_tol))
        else:
            entries.append(CheckEntry("twist_preserves_algebra", 1.0, 0.5))
    else:
        eye = np.eye(t.dim, dtype=complex)
        entries.append(CheckEntry("twist_involutive", operator_norm(nu @ nu - eye), tol.abs_tol))
    return entries


def check_all(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckReport:
    """Every applicable axiom plus the structural invariants of J and nu."""
    report = CheckReport()
    report.add("dirac_selfadjoint", operator_norm(t.dirac - t.dirac.conj().T), tol.abs_tol)
    if t.grading is not None:
        report.entries.extend(check_grading(t, tol))
    if t.real is not None:
        j = t.real.j
        report.add("j_unitary", j.unitary_defect(), tol.abs_tol)
        eps, eps_residual = j.squared_sign()
        report.add("j_squared_sign", eps_residual, tol.abs_tol)
        report.add("j_sign_matches", 0.0 if eps == t.real.signs.eps else 1.0, 0.5)
        report.entries.append(check_order_zero(t, tol))
        try:
            report.entries.append(check_twisted_order_one(t, tol))
        except np.linalg.LinAlgError:
            # singular twist: the condition cannot even be formed
            report.add("twisted_order_one", float("inf"), tol.abs_tol)
        report.entries.append(check_epsilon_prime(t, tol))
        report.entries.append(check_twisted_regularity(t, tol))
    if t.twist is not None:
        report.entries.extend(_twist_invariant_entries(t, tol))
    return report


# KO-dimension table: signs (eps, eps') for odd n, (eps, eps', eps'') for even n.
_KO_EVEN = {
    (1, 1, 1): 0,
    (-1, 1, -1): 2,
    (-1, 1, 1): 4,
    (1, 1, -1): 6,
}
_KO_ODD = {
    (1, -1): 1,
    (-1, 1): 3,
    (-1, -1): 5,
    (1, 1): 7,
}


def ko_dimension(signs: SignTriple) -> int:
    """KO-dimension mod 8; graded sign triples map to even n, pairs to odd n."""
    if signs.eps_dprime is None:
        return _KO_ODD[(signs.eps, signs.eps_prime)]
    key = (signs.eps, signs.eps_prime, signs.eps_dprime)
    if key not in _KO_EVEN:
        raise ValueError(f"sign combination {key} is not in the KO-dimension table")
    return _KO_EVEN[key]


def is_irreducible(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Trivial commutant of the set {gamma} u {a} u {[D, b]} over the algebra basis."""
    gens: list[np.ndarray] = []
    if t.grading is not None:
        gens.append(t.grading)
    basis = t.algebra_basis()
    gens.extend(basis)
    gens.extend(commutator(t.dirac, b) for b in basis)
    return commutant_dimension(gens, tol) == 1
