"""Spectral triple data and the reality axioms.

A triple bundles a diagonal representation, a selfadjoint Dirac operator,
and optionally a grading, a real structure J = U o conj with its signs, and
a selfadjoint invertible twist nu. The check_* functions report residual
norms rather than booleans so that near-failures remain visible; check_all
aggregates every applicable condition plus the structural invariants of J
and nu.
"""

from __future__ import annotations

import math
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


# A check term is (condition, residual, tol_used). The residual is either a
# float or a stack (..., n, n) of residual matrices whose largest operator
# norm is the condition's residual; _entries takes every such norm of a
# report with one stacked LAPACK call.
_Term = tuple[str, "float | np.ndarray", float]


def _entries(terms: list[_Term]) -> list[CheckEntry]:
    """Check entries of the terms, in order, with one stacked operator norm."""
    stacks = [r.reshape(-1, *r.shape[-2:]) for _, r, _ in terms if isinstance(r, np.ndarray)]
    if stacks:
        norms = np.linalg.norm(np.concatenate(stacks), 2, axis=(-2, -1))
        starts = np.cumsum([0] + [len(s) for s in stacks[:-1]])
        worst = iter(np.maximum.reduceat(norms, starts).tolist())
    return [CheckEntry(c, next(worst) if isinstance(r, np.ndarray) else float(r), tol)
            for c, r, tol in terms]


def _order_zero_terms(t: SpectralTriple, basis: np.ndarray, tol: ToleranceConfig) -> list[_Term]:
    jb = _require_real(t).j.conjugate(basis)
    return [("order_zero", commutator(basis[:, None], jb[None, :]), tol.abs_tol)]


def _order_one_diffs(dirac: np.ndarray, u: np.ndarray, nu: np.ndarray,
                     basis) -> np.ndarray:
    """[D,a] J nu^-2 b nu^2 J^-1 - J b J^-1 [D,a] for every basis pair (a, b), on axis -3.

    The pairs are ordered a-major, as k a + b. Raises LinAlgError when nu^2
    is singular, and when a nearly singular nu^2 makes a residual NaN, where
    LAPACK's SVD would not converge.
    """
    b = np.asarray(basis)  # (k, n, n)
    k, n = b.shape[0], b.shape[-1]
    nu2 = (nu @ nu)[..., None, :, :]
    u = u[..., None, :, :]
    u_adj = np.conj(np.swapaxes(u, -1, -2))
    j_plain = u @ np.conj(b) @ u_adj
    j_twisted = u @ np.conj(np.linalg.inv(nu2) @ b @ nu2) @ u_adj
    da = commutator(dirac[..., None, :, :], b)[..., :, None, :, :]
    diffs = da @ j_twisted[..., None, :, :, :] - j_plain[..., None, :, :, :] @ da
    if np.isnan(diffs).any():
        raise np.linalg.LinAlgError("order-one residual is NaN")
    return diffs.reshape(*diffs.shape[:-4], k * k, n, n)


def order_one_residual(dirac: np.ndarray, u: np.ndarray, nu: np.ndarray,
                       basis: list[np.ndarray]) -> float | np.ndarray:
    """Worst ||[D,a] J nu^-2 b nu^2 J^-1 - J b J^-1 [D,a]|| over basis pairs (a, b), J = U o conj.

    dirac, u and nu may be stacks (..., n, n) that broadcast against each
    other; the result is the worst residual per stack entry, or a float when
    all three are single matrices. The basis is shared by every entry.
    """
    diffs = _order_one_diffs(dirac, u, nu, basis)
    worst = np.linalg.norm(diffs, 2, axis=(-2, -1)).max(axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def _order_one_terms(t: SpectralTriple, basis: np.ndarray, tol: ToleranceConfig) -> list[_Term]:
    diffs = _order_one_diffs(t.dirac, _require_real(t).j.u, t.nu, basis)
    return [("twisted_order_one", diffs, tol.abs_tol)]


def epsilon_prime_residual(dirac: np.ndarray, u: np.ndarray, nu: np.ndarray,
                           eps_prime: int) -> np.ndarray:
    """D U conj(nu) - eps' nu U conj(D), which vanishes iff D J nu = eps' nu J D."""
    return dirac @ u @ np.conj(nu) - eps_prime * nu @ u @ np.conj(dirac)


def _epsilon_prime_terms(t: SpectralTriple, tol: ToleranceConfig) -> list[_Term]:
    real = _require_real(t)
    residual = epsilon_prime_residual(t.dirac, real.j.u, t.nu, real.signs.eps_prime)
    return [("epsilon_prime", residual, tol.abs_tol)]


def _regularity_terms(t: SpectralTriple, tol: ToleranceConfig) -> list[_Term]:
    u = _require_real(t).j.u
    if t.twist is None:
        return [("twisted_regularity", 0.0, tol.abs_tol)]
    nu = t.twist.nu
    return [("twisted_regularity", nu @ u @ np.conj(nu) - u, tol.abs_tol)]


def _grading_terms(t: SpectralTriple, basis: np.ndarray, tol: ToleranceConfig) -> list[_Term]:
    if t.grading is None:
        raise ValueError("triple has no grading")
    g = t.grading
    eye = np.eye(t.dim, dtype=complex)
    terms = [
        ("grading_selfadjoint", g - g.conj().T, tol.abs_tol),
        ("grading_squares_to_identity", g @ g - eye, tol.abs_tol),
        ("grading_commutes_algebra", commutator(g, basis), tol.abs_tol),
        ("grading_anticommutes_dirac", g @ t.dirac + t.dirac @ g, tol.abs_tol),
    ]
    if t.twist is not None:
        nu2 = t.nu @ t.nu
        terms.append(("grading_commutes_nu_squared", commutator(nu2, g), tol.abs_tol))
    if t.real is not None:
        signs = t.real.signs
        if signs.eps_dprime is None:
            raise ValueError("graded triple with real structure needs the eps'' sign")
        u = t.real.j.u
        terms.append(("grading_j_sign", g @ u - signs.eps_dprime * u @ np.conj(g), tol.abs_tol))
    return terms


def _twist_invariant_terms(t: SpectralTriple, basis: np.ndarray,
                           tol: ToleranceConfig) -> list[_Term]:
    twist = t.twist
    nu = twist.nu
    terms = [("twist_selfadjoint", nu - nu.conj().T, tol.abs_tol)]
    svals = np.linalg.svd(nu, compute_uv=False)
    invertible = svals[-1] > tol.rank_tol * max(1.0, svals[0])
    terms.append(("twist_invertible", 0.0 if invertible else 1.0, 0.5))
    if twist.implements_algebra_automorphism:
        if invertible:
            m = np.linalg.inv(nu) @ basis @ nu
            # Nearest embedded element: average the diagonal over each point block.
            point = np.asarray(t.rep.point_of)
            diag = np.diagonal(m, axis1=-2, axis2=-1)
            means = np.stack([diag[:, point == p].mean(axis=-1) for p in range(t.rep.n_points)],
                             axis=-1)
            residual = m.copy()
            idx = np.arange(t.dim)
            residual[:, idx, idx] -= means[:, point]
            terms.append(("twist_preserves_algebra", residual, tol.abs_tol))
        else:
            terms.append(("twist_preserves_algebra", 1.0, 0.5))
    else:
        eye = np.eye(t.dim, dtype=complex)
        terms.append(("twist_involutive", nu @ nu - eye, tol.abs_tol))
    return terms


def check_order_zero(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """[a, J b J^-1] = 0 over the algebra basis pairs."""
    return _entries(_order_zero_terms(t, np.stack(t.algebra_basis()), tol))[0]


def check_twisted_order_one(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """[D,a] J nu^-2 b nu^2 J^-1 = J b J^-1 [D,a] over basis pairs (nu = id untwisted)."""
    return _entries(_order_one_terms(t, np.stack(t.algebra_basis()), tol))[0]


def check_epsilon_prime(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """D J nu = eps' nu J D, as the matrix identity D U conj(nu) = eps' nu U conj(D)."""
    return _entries(_epsilon_prime_terms(t, tol))[0]


def check_twisted_regularity(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """nu J nu = J, i.e. nu U conj(nu) = U; vacuous (residual 0) when untwisted."""
    return _entries(_regularity_terms(t, tol))[0]


def check_grading(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> list[CheckEntry]:
    """All grading conditions; the J sign uses eps'' from the triple's signs."""
    return _entries(_grading_terms(t, np.stack(t.algebra_basis()), tol))


def check_all(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckReport:
    """Every applicable axiom plus the structural invariants of J and nu.

    Each check contributes its residual matrices; the operator norms of the
    whole report are taken with one stacked LAPACK call and reduced to the
    worst residual per condition. j_unitary and j_squared_sign are Frobenius
    defects; a twist whose nu^2 is singular reports twisted_order_one = inf.
    """
    basis = np.stack(t.algebra_basis())
    terms: list[_Term] = [("dirac_selfadjoint", t.dirac - t.dirac.conj().T, tol.abs_tol)]
    if t.grading is not None:
        terms += _grading_terms(t, basis, tol)
    if t.real is not None:
        j = t.real.j
        eps, eps_residual = j.squared_sign()
        terms += [
            ("j_unitary", j.unitary_defect(), tol.abs_tol),
            ("j_squared_sign", eps_residual, tol.abs_tol),
            ("j_sign_matches", 0.0 if eps == t.real.signs.eps else 1.0, 0.5),
        ]
        terms += _order_zero_terms(t, basis, tol)
        try:
            terms += _order_one_terms(t, basis, tol)
        except np.linalg.LinAlgError:
            # singular twist: the condition cannot even be formed
            terms.append(("twisted_order_one", math.inf, tol.abs_tol))
        terms += _epsilon_prime_terms(t, tol)
        terms += _regularity_terms(t, tol)
    if t.twist is not None:
        terms += _twist_invariant_terms(t, basis, tol)
    return CheckReport(_entries(terms))


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
