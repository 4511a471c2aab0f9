"""Dense complex linear algebra for small operators.

Everything in this package lives on Hilbert spaces of dimension <= 8. The
operator norm is LAPACK's largest singular value, and rank/nullspace
decisions use a relative singular-value threshold. Inputs are checked for
shape and finiteness once, where matrices enter the package (triple, twist
and antiunitary constructors, documents, the CLI), not inside the kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Antiunitary",
    "commutator",
    "operator_norm",
    "commutant_dimension",
    "solve_linear_family",
    "hermitian_basis",
    "hermitian_from_coords",
    "coords_from_hermitian",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds.

    abs_tol governs residual comparisons (axiom checks, constraint
    satisfaction); rank_tol governs rank and nullspace decisions, applied
    relative to the largest singular value (or 1 if everything is tiny).
    """

    abs_tol: float = 1e-9
    rank_tol: float = 1e-9

    def __post_init__(self):
        if not (0 <= self.abs_tol < math.inf and 0 <= self.rank_tol < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")


DEFAULT_TOL = ToleranceConfig()


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def commutator(a, b) -> np.ndarray:
    """ab - ba for equally sized square matrices."""
    return a @ b - b @ a


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class Antiunitary:
    """An antiunitary operator J = U o conj acting as psi -> U conj(psi).

    A valid J has U*U = id (J is an isometry) and U conj(U) = eps id for a
    sign eps (J^2 = eps id). Only shape and finiteness are enforced at
    construction, so that deliberately broken operators can be inspected;
    use `unitary_defect` and `squared_sign` to check.
    """

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _as_square(self.u))

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def unitary_defect(self) -> float:
        return float(np.linalg.norm(self.u.conj().T @ self.u - np.eye(self.dim)))

    def squared_sign(self) -> tuple[int, float]:
        """Sign eps with J^2 = eps id, plus the residual of that identity."""
        m = self.u @ np.conj(self.u)
        eps = 1 if m[0, 0].real >= 0 else -1
        return eps, float(np.linalg.norm(m - eps * np.eye(self.dim)))

    def conjugate(self, m) -> np.ndarray:
        """The linear operator J m J^{-1} = U conj(m) U*."""
        return self.u @ np.conj(m) @ self.u.conj().T


def _rank(singular_values: np.ndarray, rank_tol: float) -> int:
    if singular_values.size == 0:
        return 0
    top = float(singular_values[0])
    cutoff = rank_tol * (top if top > rank_tol else 1.0)
    return int(np.sum(singular_values > cutoff))


def _commutation_operator(generators: np.ndarray) -> np.ndarray:
    """The (k n^2, n^2) stack of the maps X -> [G, X], one block per generator G.

    Each block is I (x) G - G^T (x) I (column-major vec convention), built
    for the whole stack (k, n, n) with one broadcast product per term.
    """
    k, n = generators.shape[0], generators.shape[-1]
    eye = np.eye(n, dtype=complex)
    # entry [k, i, a, j, b] sits at row i n + a, column j n + b of block k
    left = eye[None, :, None, :, None] * generators[:, None, :, None, :]
    right = np.swapaxes(generators, -1, -2)[:, :, None, :, None] * eye[None, None, :, None, :]
    return (left - right).reshape(k * n * n, n * n)


def commutant_dimension(generators: Sequence[np.ndarray],
                        tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Complex dimension of {X : [X, G] = 0 for every generator G}.

    The commutation constraints of all generators form one (k n^2, n^2)
    operator on the matrix space, built by broadcasting over the generator
    stack, and the nullspace dimension is read off its singular values.
    """
    gens = [np.asarray(g) for g in generators]
    if not gens:
        raise ValueError("need at least one generator (empty set has full commutant)")
    n = gens[0].shape[0]
    for g in gens:
        if g.shape != (n, n):
            raise ValueError("generators must share one dimension")
    s = np.linalg.svd(_commutation_operator(np.stack(gens)), compute_uv=False)
    return n * n - _rank(s, tol.rank_tol)


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthogonal real basis of Hermitian dim x dim matrices.

    Coordinate order: the dim real diagonal entries first, then (re, im) of
    each strictly upper entry in row-major order. This fixed order is what
    makes solve_linear_family deterministic.
    """
    basis = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = 1.0j
            m[j, i] = -1.0j
            basis.append(m)
    return basis


def hermitian_from_coords(coords: np.ndarray, dim: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} coordinates")
    m = np.zeros((dim, dim), dtype=complex)
    m[np.diag_indices(dim)] = coords[:dim]
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            m[i, j] = coords[k] + 1j * coords[k + 1]
            m[j, i] = coords[k] - 1j * coords[k + 1]
            k += 2
    return m


def coords_from_hermitian(m: np.ndarray) -> np.ndarray:
    dim = m.shape[0]
    coords = np.empty(dim * dim)
    coords[:dim] = m.diagonal().real
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            coords[k] = m[i, j].real
            coords[k + 1] = m[i, j].imag
            k += 2
    return coords


def _rref(rows: np.ndarray, tol: float) -> np.ndarray:
    """Reduced row echelon form; rows ordered by pivot column."""
    a = np.array(rows, dtype=float)
    nrow, ncol = a.shape
    r = 0
    for c in range(ncol):
        if r >= nrow:
            break
        pivot = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[pivot, c]) <= tol:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] / a[r, c]
        for i in range(nrow):
            if i != r:
                a[i] = a[i] - a[i, c] * a[r]
        r += 1
    return a[:r]


def solve_linear_family(constraints: Sequence[Callable[[np.ndarray], np.ndarray]],
                        dim: int,
                        tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Real basis of the Hermitian matrices annihilated by all constraints.

    Each constraint is a real-linear map taking a Hermitian dim x dim matrix
    to an arbitrary complex matrix; its kernel is computed over the real
    coordinates from `hermitian_basis`. The returned basis is orthonormal in
    those coordinates and deterministically ordered by reduced-row-echelon
    pivots, so repeated runs (and platforms) agree.
    """
    basis = hermitian_basis(dim)
    if not constraints:
        return [b.copy() for b in basis]
    cols = []
    for b in basis:
        pieces = []
        for f in constraints:
            y = np.asarray(f(b), dtype=complex).ravel()
            pieces.append(y.real)
            pieces.append(y.imag)
        cols.append(np.concatenate(pieces))
    a = np.array(cols).T  # (outputs, ncoord)
    _, s, vt = np.linalg.svd(a)
    rank = _rank(s, tol.rank_tol)
    kernel = vt[rank:]
    if kernel.shape[0] == 0:
        return []
    canon = _rref(kernel, tol.rank_tol)
    # Gram-Schmidt in pivot order keeps the ordering deterministic.
    ortho: list[np.ndarray] = []
    for row in canon:
        v = row.copy()
        for w in ortho:
            v -= np.dot(v, w) * w
        nv = np.linalg.norm(v)
        if nv > tol.rank_tol:
            ortho.append(v / nv)
    return [hermitian_from_coords(v, dim) for v in ortho]
