"""The function algebra on k points and its diagonal representations.

Elements of the algebra are tuples of complex values, one per point; the
two-point algebra is spanned by the projection e = (1, 0) and the unit. All
calculus operations (one-forms, distances) require exactly two points.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, ToleranceConfig, _as_square, _exceeds, commutator

__all__ = ["Representation", "embed", "projection_e", "check_bimodule_relation", "permute"]


def _index(value) -> int:
    """operator.index(value), refusing a bool too (index(True) == 1), in its JSON spelling."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {'true' if value else 'false'}")
    return operator.index(value)


def _integer(value, name: str) -> int:
    """_index(value) for the argument called name; a bool or any non-integer raises ValueError naming it."""
    try:
        return _index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _indices(values, what: str) -> tuple[int, ...]:
    """The values as ints by _index; a bool or any non-integer raises ValueError naming `what`."""
    try:
        return tuple(map(_index, values))
    except TypeError:
        raise ValueError(f"{what} indices must be integers") from None


@dataclass(frozen=True)
class Representation:
    """Diagonal representation: basis vector i carries the point point_of[i].

    Faithfulness requires every point index to occur at least once, and the
    indices to cover 0..n_points-1.
    """

    point_of: tuple[int, ...]

    def __post_init__(self):
        pts = _indices(self.point_of, "point")
        object.__setattr__(self, "point_of", pts)
        if not pts:
            raise ValueError("representation must have positive dimension")
        if min(pts) < 0:
            raise ValueError("point indices must be nonnegative")
        if set(pts) != set(range(max(pts) + 1)):
            raise ValueError("every point must appear at least once (faithful representation)")

    @property
    def dim(self) -> int:
        return len(self.point_of)

    @property
    def n_points(self) -> int:
        return max(self.point_of) + 1


REP_C2 = Representation((0, 1))
REP_C3 = Representation((0, 0, 1))
REP_C4 = Representation((0, 0, 1, 1))


def embed(rep: Representation, a: Sequence[complex]) -> np.ndarray:
    """Diagonal matrix of the algebra element a in the given representation."""
    values = [complex(v) for v in a]
    if len(values) != rep.n_points:
        raise ValueError(f"element has {len(values)} values, representation has {rep.n_points} points")
    return np.diag([values[p] for p in rep.point_of]).astype(complex)


@lru_cache(maxsize=256)
def _point_projections(rep: Representation) -> np.ndarray:
    """The read-only stack (n_points, dim, dim) of the embedded point projections.

    Entry p is embed(rep, e_p) for the p-th unit element; it depends only on
    the representation, so it is built once per representation and shared.
    """
    k = rep.n_points
    stack = np.stack([embed(rep, [1.0 if q == p else 0.0 for q in range(k)]) for p in range(k)])
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=256)
def _between_points(rep: Representation) -> np.ndarray:
    """The read-only flat indices of the entries (i, j) of a matrix with point_of[i] != point_of[j]."""
    point = np.asarray(rep.point_of)
    index = np.flatnonzero(point[:, None] != point[None, :])
    index.flags.writeable = False
    return index


def _fixes_points(m: np.ndarray, rep: Representation, inverse=None) -> bool:
    """Whether m^-1 b m = b exactly for every point projection b of rep, so that a
    twisted image of b (under nu^2 in twisted order one, under nu in the twisted
    derivative and twist_preserves_algebra) is b: m b == b m exactly, which holds
    iff m has no nonzero entry between two points, and inverse, m's inverse if
    given, is finite."""
    return not np.count_nonzero(m.take(_between_points(rep))) and (
        inverse is None or bool(np.isfinite(inverse).all()))


def _two_point_projections(rep: Representation) -> np.ndarray:
    """The shared read-only stack (e, 1 - e); the calculus' one two-point check."""
    if rep.n_points != 2:
        raise ValueError("projection e is defined for two-point algebras only")
    return _point_projections(rep)


def projection_e(rep: Representation) -> np.ndarray:
    """The projection (1, 0) of a two-point representation, as a fresh array."""
    return _two_point_projections(rep)[0].copy()


def check_bimodule_relation(rep: Representation, d: np.ndarray,
                            tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether e [D, a] = [D, a] (1 - e) holds for the calculus of d.

    By linearity it suffices to test a = e. The residual, exactly zero for
    any finite d, takes linalg._exceeds' residual test.
    """
    e, not_e = _two_point_projections(rep)
    de = commutator(_as_square(d), e)
    return not _exceeds(e @ de - de @ not_e, tol.abs_tol)


def permute(rep: Representation, perm: Sequence[int], a: Sequence[complex]) -> tuple[complex, ...]:
    """Apply a point permutation to an algebra element: result[i] = a[perm[i]]."""
    p = _indices(perm, "permutation")
    values = tuple(complex(v) for v in a)
    if len(p) != rep.n_points or len(values) != rep.n_points:
        raise ValueError("permutation, element and representation sizes must agree")
    if sorted(p) != list(range(rep.n_points)):
        raise ValueError("not a permutation")
    return tuple(values[p[i]] for i in range(rep.n_points))
