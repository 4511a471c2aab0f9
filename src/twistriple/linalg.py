"""Dense complex linear algebra for small operators.

Everything in this package lives on Hilbert spaces of dimension <= 8. The
operator norm is LAPACK's largest singular value, and rank/nullspace
decisions use the relative singular-value threshold `RANK_TOL`. Each matrix
is checked for shape and finiteness once, by `_as_square`, after its last
possible change, not inside the kernels: where it enters the package (the
triple, twist and antiunitary constructors, the CLI) and where an operation
computes it (a one-form's value, the D of a fluctuation, a rescaling or a
catalog member, a rescaling's nu), naming the operation if it overflowed.
Triples built from checked parts (`with_dirac`, the fluctuations,
`rescale`, the catalog builders, documents) are put together by
`_assembled`, which repeats no check, on a structure whose matrices are
read-only. A document's matrices are checked as they are parsed.
`axioms.is_irreducible` reads its commutation operator off a linear map in
D's entries, kept per frame (representation, grading, J) and built once
from the unit matrices by `_commutation_operator`, which
`commutant_dimension` uses.

Every operator norm in the package goes through one kernel,
`operator_norms(stack) = np.linalg.svd(stack, compute_uv=False)[..., 0]`:
LAPACK returns the singular values in descending order, so this is bitwise
what `np.linalg.norm(stack, 2, axis=(-2, -1))` computes, without that
wrapper's axis bookkeeping and its final `amax`. A matrix with no nonzero
entry gets 0.0 without the SVD, which returns exactly 0.0 for it: most
residuals of exact two-point data are exactly zero. `operator_norm` is the
same kernel on one matrix. Where only `norm > bound` is wanted,
`_norms_exceed` settles most matrices from their largest entry and sends
the rest to this kernel. Beside it sits the one residual test, `_exceeds`:
a residual's worst norm if above tol (1 + ||scale||), else 0.0; a distance
is `_reciprocal` of a derivative norm. The complex identity of each
dimension is built once, read-only (`_identity`).

The one deliberate second route is `_gram_norms`, the square root of the
largest eigenvalue of each matrix's Gram matrix M^H M, taken after an exact
power-of-two scaling. Only the distance oracle uses it: the oracle exists to
cross-check `spectral_distance`, and a norm from a different algorithm
checks that distance's SVD norm instead of repeating it. It is also
cheaper there: on a 300-sample oracle call's stack of 300 3x3 or 4x4
derivatives (2 x 300 for a twist that does not commute with the algebra)
it takes 0.5-0.8 of the SVD's time (2-core x86-64 VM, numpy 2.4,
OpenBLAS 0.3.31, one thread).

Broadcast products of large stacks go through `_matmul`. np.matmul makes
one BLAS call per product, so a stack of 1120 2x2 products costs ~0.3 ms
of call overhead. `_matmul` folds the stack axes along which only the left
factor varies into the rows of one taller left factor, and so makes every
product that shares a right factor in one call. Its result is bitwise
np.matmul's: a BLAS product computes each row from that row of the left
factor and the right factor alone. Stacking right factors as columns, or
computing the products entrywise, is not bitwise: OpenBLAS's complex
kernels accumulate with FMAs in an order that depends on the column count.
Stacks of fewer than `_FOLD_MIN` products go straight to np.matmul, and the
order-one kernel sends a single triple's products there directly;
tests/test_kernel_parity.py pins the equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "RANK_TOL",
    "Antiunitary",
    "commutator",
    "operator_norm",
    "operator_norms",
    "commutant_dimension",
    "solve_linear_family",
    "hermitian_basis",
    "hermitian_from_coords",
    "coords_from_hermitian",
]


# Threshold of rank, nullspace and "unbounded" decisions: relative to the
# largest singular value with an absolute floor in _rank, absolute in
# _reciprocal (an infinite distance) and in a conformal rho's margin.
RANK_TOL = 1e-9

# An entry modulus above bound * _ENTRY_MARGIN puts a norm above bound (_norms_exceed).
_ENTRY_MARGIN = 1 + 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """The residual threshold of checks and constraint satisfaction."""

    abs_tol: float = 1e-9

    def __post_init__(self):
        if not 0 <= self.abs_tol < math.inf:
            raise ValueError("tolerances must be finite and nonnegative")


DEFAULT_TOL = ToleranceConfig()


def _as_square(m, operation: Optional[str] = None, inputs: Iterable = ()) -> np.ndarray:
    """m as a complex square matrix; ValueError for another shape or a non-finite entry.

    The package's one matrix check. The constructors apply it to what they
    are given; a derivation (a one-form, a fluctuation, a rescaling) applies
    it to the matrix it computed, named by operation, with the matrices and
    scalars it computed that matrix from as inputs. Such a matrix is computed
    under np.errstate(over="ignore", invalid="ignore"), so no RuntimeWarning
    escapes: if it is not finite while every input is, the operation
    overflowed, and the error says so. The inputs are read only then.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        if operation is not None and all(np.isfinite(x).all() for x in inputs if x is not None):
            raise ValueError(f"{operation} overflowed: its result has entries beyond the float range")
        raise ValueError("matrix entries must be finite")
    return a


def _assembled(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, without cls.__post_init__.

    The private construction path beside the public constructors: its caller
    has checked every matrix it passes (with _as_square, or by reading it
    from a document), so the constructor's checks would only repeat them.
    The fields go straight into the instance's __dict__, as copy.copy does.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    """The read-only complex n x n identity, built once per dimension."""
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


def commutator(a, b) -> np.ndarray:
    """ab - ba for equally sized square matrices."""
    return a @ b - b @ a


# Broadcast stacks of fewer products than this go straight to np.matmul.
# Measured on complex 2x2 and 4x4 stacks (2-core x86-64 VM, numpy 2.4,
# OpenBLAS 0.3.31), folding wins from ~32 products when one right factor
# serves the whole stack and from ~64 when each serves only two products.
_FOLD_MIN = 64


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks (..., m, k) and (..., k, p) that broadcast, bitwise as np.matmul.

    np.matmul makes one BLAS call per product of a stack. Here the stack axes
    along which only a varies are folded into the rows of one taller left
    factor, so one call makes every product that shares a right factor. Row
    i of a BLAS product depends only on row i of the left factor and on the
    right factor, so the products are the ones np.matmul makes. Stacks of
    fewer than _FOLD_MIN products, and stacks with no such axis, go straight
    to np.matmul.
    """
    nd = max(a.ndim, b.ndim) - 2
    a_shape = (1,) * (nd + 2 - a.ndim) + a.shape
    b_shape = (1,) * (nd + 2 - b.ndim) + b.shape
    batch = [max(x, y) for x, y in zip(a_shape[:nd], b_shape[:nd])]
    rows = [i for i in range(nd) if b_shape[i] == 1 < a_shape[i]]
    if not rows or math.prod(batch) < _FOLD_MIN:
        return np.matmul(a, b)
    m, k, p = a_shape[-2], a_shape[-1], b_shape[-1]
    rest = [i for i in range(nd) if i not in rows]
    order = rest + rows
    left = a.reshape(a_shape).transpose(order + [nd, nd + 1])
    left = left.reshape([a_shape[i] for i in rest] + [-1, k])
    right = b.reshape([b_shape[i] for i in rest] + [k, p])
    out = np.matmul(left, right).reshape([batch[i] for i in order] + [m, p])
    return out.transpose(sorted(range(nd), key=order.__getitem__) + [nd, nd + 1])


def operator_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a stack (..., m, n).

    A matrix with no nonzero entry gets 0.0 without the SVD, which returns
    exactly 0.0 for it. NaN and inf count as nonzero, so a non-finite matrix
    still goes to the SVD: NaN raises LinAlgError, an inf entry gives a NaN
    norm. A stack with no zero matrix is one SVD call.
    """
    stack = np.asarray(stack)
    nonzero = (stack != 0).any(axis=(-2, -1))
    if nonzero.all():
        return np.linalg.svd(stack, compute_uv=False)[..., 0]
    norms = np.zeros(nonzero.shape)
    if nonzero.any():
        norms[nonzero] = np.linalg.svd(stack[nonzero], compute_uv=False)[..., 0]
    return norms


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(operator_norms(m))


def _exceeds(residual, tol: float, scale=None) -> float:
    """The worst operator norm of a residual stack (..., m, n) if above tol (1 + ||scale||), else 0.0.

    Without a scale the bound is tol; a NaN norm exceeds any bound. An
    all-zero residual takes no norm, not even the scale's, and one with an
    inf or NaN entry (a difference that overflowed) gets a NaN norm without
    the SVD; the others' and the scale's norms are one operator_norms call,
    bitwise operator_norm's.
    """
    residual = np.asarray(residual)
    if not residual.any():
        return 0.0
    if not np.isfinite(residual).all():
        return math.nan
    stack = residual.reshape(-1, *residual.shape[-2:])
    if scale is None:
        norm, bound = float(operator_norms(stack).max()), tol
    else:
        norms = operator_norms(np.concatenate([stack, np.asarray(scale)[None]]))
        norm, bound = float(norms[:-1].max()), tol * (1.0 + float(norms[-1]))
    return 0.0 if norm <= bound else norm


def _reciprocal(norm: float) -> float:
    """1 / norm, or math.inf for a norm below RANK_TOL: a distance from its derivative norm."""
    return math.inf if norm < RANK_TOL else 1.0 / norm


def _gram_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a finite stack (..., m, n), from its Gram matrix.

    Each matrix is first scaled by the power of two that brings its largest
    entry modulus into [1/2, 1). The scaling is exact, so no entry of M^H M
    overflows, and none that matters underflows, for any finite input. The
    norm is sqrt(max eigvalsh(M^H M)) scaled back, with the eigenvalue
    clamped at 0; the largest eigenvalue of a Gram matrix carries only
    O(n eps) relative error. The entries are moved to the leading axes, so
    the scaling and the Gram products are elementwise operations over the
    whole stack, with no per-matrix BLAS call. Raises LinAlgError on a
    non-finite stack (operator_norms raises on NaN, and gives NaN for a
    matrix with an inf entry).
    """
    x = np.ascontiguousarray(np.moveaxis(np.asarray(stack), (-2, -1), (0, 1)))  # (m, n, ...)
    top = np.abs(x).max(axis=(0, 1))
    if not np.isfinite(top).all():
        raise np.linalg.LinAlgError("norm of a non-finite matrix")
    _, exp = np.frexp(top)
    scaled = np.empty_like(x)
    scaled.real = np.ldexp(x.real, -exp)
    if np.iscomplexobj(x):
        scaled.imag = np.ldexp(x.imag, -exp)
    gram = (np.conj(scaled)[:, :, None] * scaled[:, None, :]).sum(axis=0)  # sum_k conj(M_ki) M_kj
    top_eigenvalue = np.linalg.eigvalsh(np.moveaxis(gram, (0, 1), (-2, -1)))[..., -1]
    return np.ldexp(np.sqrt(np.maximum(top_eigenvalue, 0.0)), exp)


def _norms_exceed(stack, bound: float) -> np.ndarray:
    """operator_norms(stack) > bound, per matrix of a stack (..., m, n); a matrix with a
    NaN entry exceeds any bound, as in _exceeds.

    ||M|| >= max_ij |M_ij|, so a matrix with an entry beyond
    bound * _ENTRY_MARGIN exceeds the bound with no SVD: the margin is far
    above the SVD's O(n eps) rounding, so each such verdict is the one the
    SVD gives. Only the other matrices go through operator_norms.
    """
    stack = np.asarray(stack)
    undecided = np.abs(stack).max(axis=(-2, -1)) <= bound * _ENTRY_MARGIN
    exceed = np.array(~undecided)
    if undecided.any():
        exceed[undecided] = operator_norms(stack[undecided]) > bound
    return exceed


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
        return float(np.linalg.norm(self.u.conj().T @ self.u - _identity(self.dim)))

    def squared_sign(self) -> tuple[int, float]:
        """Sign eps with J^2 = eps id, plus the residual of that identity."""
        m = self.u @ np.conj(self.u)
        eps = 1 if m[0, 0].real >= 0 else -1
        return eps, float(np.linalg.norm(m - eps * _identity(self.dim)))

    def conjugate(self, m) -> np.ndarray:
        """The linear operator J m J^{-1} = U conj(m) U*."""
        return self.u @ np.conj(m) @ self.u.conj().T


def _rank(singular_values: np.ndarray) -> int:
    if singular_values.size == 0:
        return 0
    top = float(singular_values[0])
    cutoff = RANK_TOL * (top if top > RANK_TOL else 1.0)
    return int(np.sum(singular_values > cutoff))


def _commutation_operator(generators: np.ndarray) -> np.ndarray:
    """The (k n^2, n^2) stack of the maps X -> [G, X], one block per generator G.

    Each block is I (x) G - G^T (x) I (column-major vec convention), built
    for the whole stack (k, n, n) with one broadcast product per term.
    """
    k, n = generators.shape[0], generators.shape[-1]
    eye = _identity(n)
    # entry [k, i, a, j, b] sits at row i n + a, column j n + b of block k
    left = eye[None, :, None, :, None] * generators[:, None, :, None, :]
    right = np.swapaxes(generators, -1, -2)[:, :, None, :, None] * eye[None, None, :, None, :]
    return (left - right).reshape(k * n * n, n * n)


def commutant_dimension(generators: Sequence[np.ndarray]) -> int:
    """Complex dimension of {X : [X, G] = 0 for every generator G}.

    The generators are a sequence of n x n matrices or one stack (k, n, n).
    The commutation constraints of all generators form one (k n^2, n^2)
    operator on the matrix space, built by broadcasting over the generator
    stack, and the nullspace dimension is read off its singular values.
    """
    if len(generators) == 0:
        raise ValueError("need at least one generator (empty set has full commutant)")
    try:
        gens = np.stack(generators)
    except ValueError:  # ragged shapes
        raise ValueError("generators must share one dimension") from None
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise ValueError("generators must share one dimension")
    n = gens.shape[-1]
    s = np.linalg.svd(_commutation_operator(gens), compute_uv=False)
    return n * n - _rank(s)


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


@lru_cache(maxsize=8)
def _hermitian_stack(dim: int) -> np.ndarray:
    """hermitian_basis(dim) as one read-only stack (dim^2, dim, dim), built once per dim."""
    stack = np.stack(hermitian_basis(dim))
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=8)
def _upper_coords(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows and columns of the strictly upper entries (row-major) and their re/im coordinates."""
    rows, cols = np.triu_indices(dim, 1)
    re = np.arange(dim, dim * dim, 2)
    index = (rows, cols, re, re + 1)
    for a in index:
        a.flags.writeable = False
    return index


def _hermitian_from_coord_rows(coords: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrices (k, dim, dim) of the coordinate rows (k, dim^2)."""
    rows, cols, re, im = _upper_coords(dim)
    m = np.zeros((coords.shape[0], dim, dim), dtype=complex)
    diag = np.arange(dim)
    m[:, diag, diag] = coords[:, :dim]
    m[:, rows, cols] = coords[:, re] + 1j * coords[:, im]
    m[:, cols, rows] = coords[:, re] - 1j * coords[:, im]
    return m


def hermitian_from_coords(coords: np.ndarray, dim: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} coordinates")
    return _hermitian_from_coord_rows(coords[None], dim)[0]


def coords_from_hermitian(m: np.ndarray) -> np.ndarray:
    dim = m.shape[0]
    rows, cols, re, im = _upper_coords(dim)
    coords = np.empty(dim * dim)
    coords[:dim] = m.diagonal().real
    coords[re] = m[rows, cols].real
    coords[im] = m[rows, cols].imag
    return coords


def _rref(rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form; rows ordered by pivot column."""
    a = np.array(rows, dtype=float)
    nrow, ncol = a.shape
    index = np.arange(nrow)
    r = 0
    for c in range(ncol):
        if r >= nrow:
            break
        below = np.abs(a[r:, c])
        pivot = int(below.argmax())
        if below[pivot] <= RANK_TOL:
            continue
        a[[r, r + pivot]] = a[[r + pivot, r]]
        a[r] = a[r] / a[r, c]
        others = index != r
        a[others] -= a[others, c, None] * a[r]
        r += 1
    return a[:r]


def solve_linear_family(constraints: Sequence[Callable[[np.ndarray], np.ndarray]],
                        dim: int) -> list[np.ndarray]:
    """Real basis of the Hermitian matrices annihilated by all constraints.

    Each constraint is a real-linear map taking Hermitian dim x dim matrices
    to arbitrary complex arrays, and it must broadcast over a leading stack
    axis: it is called once, on the read-only stack (dim^2, dim, dim) of
    `hermitian_basis(dim)`, and must return one output per basis matrix
    along axis 0 (`gamma @ d + d @ gamma` does; `d.T` and `np.trace(d)` do
    not, and raise ValueError). Its kernel is computed over the real
    coordinates from `hermitian_basis`. The returned basis is orthonormal in
    those coordinates and deterministically ordered by reduced-row-echelon
    pivots, so repeated runs (and platforms) agree.
    """
    if not constraints:
        return hermitian_basis(dim)
    basis = _hermitian_stack(dim)
    count = basis.shape[0]
    pieces = []
    for f in constraints:
        y = np.asarray(f(basis), dtype=complex)
        if y.shape[:1] != (count,):
            raise ValueError(f"a constraint mapped the stack of {count} basis matrices to shape "
                             f"{y.shape}; constraints must broadcast over the leading axis")
        y = y.reshape(count, -1)
        pieces += [y.real, y.imag]
    a = np.concatenate(pieces, axis=1).T  # (outputs, ncoord)
    _, s, vt = np.linalg.svd(a)
    rank = _rank(s)
    kernel = vt[rank:]
    if kernel.shape[0] == 0:
        return []
    canon = _rref(kernel)
    # Gram-Schmidt in pivot order keeps the ordering deterministic.
    ortho: list[np.ndarray] = []
    for row in canon:
        v = row.copy()
        for w in ortho:
            v -= np.dot(v, w) * w
        nv = math.sqrt(v @ v)
        if nv > RANK_TOL:
            ortho.append(v / nv)
    return list(_hermitian_from_coord_rows(np.array(ortho).reshape(-1, dim * dim), dim))
