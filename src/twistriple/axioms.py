"""Spectral triple data and the reality axioms.

A triple is a structure and a selfadjoint Dirac operator D. The structure
(_Structure) is a frame (_Frame: a diagonal representation and optionally a
grading and a real structure J = U o conj with its signs) and optionally a
selfadjoint invertible twist nu. The constructor checks every matrix it is
given and keeps read-only copies of the grading, U and nu; a triple derived
from another (with_dirac, the fluctuations) keeps that one's structure, and
rescale pairs its frame with the new twist, so each checks only its new
matrices (_derived). The checks report residual norms rather than booleans
so that near-failures remain visible. check_all aggregates every applicable
condition plus the structural invariants of J and nu, and its three term
builders (_nu_free_terms, _twist_terms, _dirac_terms) are the one statement
of each condition: check_order_zero, check_twisted_order_one,
check_epsilon_prime, check_twisted_regularity and check_grading return
entries of check_all's report, and catalog.derive_family solves
_dirac_terms' four conditions.

Only four of check_all's conditions read D. The check entries of the
others (at the last tol a call used), the linear map that gives the D
terms and is_irreducible's map are kept on the structure that they depend
on, made on first use (_kept); see check_all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebra import Representation, _fixes_points, _point_projections
from .linalg import (
    DEFAULT_TOL,
    RANK_TOL,
    Antiunitary,
    ToleranceConfig,
    _as_square,
    _assembled,
    _commutation_operator,
    _identity,
    _matmul,
    _rank,
    commutator,
    operator_norms,
)
from .signs import SignTriple, ko_dimension

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

    def inverse(self) -> np.ndarray:
        """nu^-1; a singular nu raises a LinAlgError (a ValueError) that says so."""
        try:
            return np.linalg.inv(self.nu)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("the twist nu is singular, so nu^-1 does not exist") from None


@dataclass(frozen=True)
class RealStructure:
    j: Antiunitary
    signs: SignTriple


def _frozen(m: np.ndarray) -> np.ndarray:
    """A read-only copy of a checked matrix, -0.0 folded into +0.0 as a document writes it."""
    m = m + 0.0
    m.flags.writeable = False
    return m


def _kept(owner, name: str, make: Callable):
    """owner's datum called name, made by make(owner) on first use; a race keeps the first stored."""
    try:
        return owner.__dict__[name]
    except KeyError:
        return owner.__dict__.setdefault(name, make(owner))


@dataclass(frozen=True, eq=False)
class _Frame:
    """A structure's nu-free part, its grading and U read-only (_frozen). It keeps (_kept) check_all's
    nu-free "entries", the "dirac_map", is_irreducible's "commutant" and the document's "template"."""

    rep: Representation
    grading: Optional[np.ndarray] = None
    real: Optional[RealStructure] = None


@dataclass(frozen=True, eq=False)
class _Structure:
    """A frame and a twist, its nu read-only: all of a triple but D. It keeps (_kept) check_all's
    nu "entries", the "dirac_operands", identify_family's "shape" and the document's "twist_text"."""

    frame: _Frame
    twist: Optional[Twist] = None


def _framed(rep: Representation, grading: Optional[np.ndarray], real: Optional[RealStructure]) -> _Frame:
    """The frame of rep and the checked grading and real structure, as read-only copies."""
    if real is not None:
        real = RealStructure(_assembled(Antiunitary, u=_frozen(real.j.u)), real.signs)
    return _Frame(rep, None if grading is None else _frozen(grading), real)


def _twisted(frame: _Frame, twist: Optional[Twist]) -> _Structure:
    """The structure of frame and the checked twist, its nu a read-only copy."""
    if twist is not None:
        twist = _assembled(Twist, nu=_frozen(twist.nu),
                           implements_algebra_automorphism=twist.implements_algebra_automorphism)
    return _Structure(frame, twist)


@dataclass(frozen=True)
class SpectralTriple:
    """A structure and a Dirac operator. The constructor checks every matrix and keeps read-only
    copies of the grading, U and nu in a new structure: an in-place edit of t.grading, t.real.j.u
    or t.twist.nu raises ValueError, and one of the caller's arrays changes nothing."""

    rep: Representation
    dirac: np.ndarray
    grading: Optional[np.ndarray] = None
    real: Optional[RealStructure] = None
    twist: Optional[Twist] = None

    def __post_init__(self):
        d = _dirac_matrix(self.dirac, self.rep.dim)
        real, twist = self.real, self.twist
        matrices = (self.grading, None if real is None else real.j.u, None if twist is None else twist.nu)
        for name, m in zip(("grading", "real structure", "twist"), matrices):
            if m is not None and np.shape(m) != d.shape:
                raise ValueError(f"{name} dimension mismatch")
        # U and nu too: the structure copies them, and they may have been edited since their checks
        grading, _, _ = (None if m is None else _as_square(m) for m in matrices)
        self.__dict__.update(_triple(_twisted(_framed(self.rep, grading, real), twist), d).__dict__)

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

    def __reduce__(self):  # copy and pickle rebuild through __init__, so the copies are read-only
        return SpectralTriple, (self.rep, self.dirac, self.grading, self.real, self.twist)

    def with_dirac(self, dirac: np.ndarray) -> "SpectralTriple":
        """This triple with another Dirac operator, checked as the constructor checks it (_derived)."""
        return _derived(self, dirac)

    def algebra_basis(self) -> list[np.ndarray]:
        """Embedded basis {e, 1-e} (two points) or the point projections, as fresh arrays."""
        return list(_point_projections(self.rep).copy())


def _triple(s: _Structure, dirac: np.ndarray) -> SpectralTriple:
    """The triple of the structure s and a checked Dirac operator, with no check again."""
    f = s.frame
    return _assembled(SpectralTriple, rep=f.rep, dirac=dirac, grading=f.grading, real=f.real,
                      twist=s.twist, _structure=s)


def _dirac_matrix(dirac, dim: int, operation: Optional[str] = None, inputs=()) -> np.ndarray:
    """dirac as a complex dim x dim matrix, checked by linalg._as_square (operation and inputs are its)."""
    d = np.asarray(dirac, dtype=complex)
    if d.shape != (dim, dim):
        raise ValueError("Dirac operator dimension does not match the representation")
    return _as_square(d, operation, inputs)


def _derived(t: SpectralTriple, dirac, operation: Optional[str] = None, inputs=(),
             structure: Optional[_Structure] = None) -> SpectralTriple:
    """The triple of t's structure, or of another, and the Dirac operator dirac: the one
    construction path of a triple derived from another.

    Only the new D is checked, by _dirac_matrix (a D that operation computed
    names its overflow, see linalg._as_square): the structure's matrices
    were checked when it was made, and cannot change.
    """
    d = _dirac_matrix(dirac, t.dim, operation, inputs)
    return _triple(t._structure if structure is None else structure, d)


@dataclass(frozen=True)
class CheckEntry:
    condition: str
    residual: float
    tol_used: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol_used


@dataclass
class CheckReport:
    entries: list[CheckEntry] = field(default_factory=list)

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


# A check term is (condition, residual, tol_used). The residual is either a
# float or a stack (..., n, n) of residual matrices whose largest operator
# norm is the condition's residual; _entries takes every such norm of a
# report with one stacked LAPACK call, or none when they are all zero.
# tol_used None stands for the call's abs_tol, as a float, so that terms do
# not depend on the tolerance; a pass/fail verdict term (residual 0.0 or
# 1.0) carries its own 0.5.
_Term = tuple[str, "float | np.ndarray", Optional[float]]

# The order of check_all's report (and of check_grading's entries). The terms
# are built in groups by what they read, then sorted into this order.
_REPORT_ORDER = {c: i for i, c in enumerate((
    "dirac_selfadjoint", "grading_selfadjoint", "grading_squares_to_identity",
    "grading_commutes_algebra", "grading_anticommutes_dirac", "grading_commutes_nu_squared",
    "grading_j_sign", "j_unitary", "j_squared_sign", "j_sign_matches", "order_zero",
    "twisted_order_one", "epsilon_prime", "twisted_regularity", "twist_selfadjoint",
    "twist_invertible", "twist_preserves_algebra", "twist_involutive"))}


def _entries(terms: list[_Term], tol: ToleranceConfig) -> list[CheckEntry]:
    """Check entries of the terms, in order, with one stacked operator norm; an all-zero
    stack (-0.0 entries too) gives 0.0 per condition with no norm, and a residual with
    an inf or NaN entry reads NaN with no LAPACK call, as in linalg._exceeds."""
    stacks = [r.reshape(-1, *r.shape[-2:]) for _, r, _ in terms if isinstance(r, np.ndarray)]
    worst = itertools.repeat(0.0)
    if stacks and (stack := np.concatenate(stacks)).any():
        starts = np.cumsum([0] + [len(s) for s in stacks[:-1]])
        finite = np.isfinite(stack).all(axis=(-2, -1))
        norms = np.full(len(stack), math.nan)
        norms[finite] = operator_norms(stack[finite])
        worst = iter(np.maximum.reduceat(norms, starts).tolist())
    return [CheckEntry(c, next(worst) if isinstance(r, np.ndarray) else float(r),
                       float(tol.abs_tol) if used is None else used)
            for c, r, used in terms]


def _in_report_order(entries: list[CheckEntry]) -> list[CheckEntry]:
    return sorted(entries, key=lambda e: _REPORT_ORDER[e.condition])


def _order_one_images(u: np.ndarray, nu: np.ndarray, basis) -> tuple[np.ndarray, np.ndarray]:
    """(J b J^-1, J nu^-2 b nu^2 J^-1) for every basis element b, on axis -3.

    Raises LinAlgError when nu^2 is singular. When every nu^2 equals the
    identity exactly (the C^2 scan's nu = 1), the twisted image is the plain
    one, broadcast to the shape the general formula gives: inv(I) and
    products with I are exact. check_all takes these images once per
    structure, into the rows of its D map (_dirac_map).
    """
    b = np.asarray(basis)  # (k, n, n)
    mm = np.matmul if u.ndim == nu.ndim == 2 else _matmul
    nu2 = mm(nu, nu)[..., None, :, :]
    u = u[..., None, :, :]
    u_adj = np.conj(np.swapaxes(u, -1, -2))
    j_plain = mm(mm(u, np.conj(b)), u_adj)
    if (nu2 == _identity(b.shape[-1])).all():
        return j_plain, np.broadcast_to(j_plain, np.broadcast_shapes(j_plain.shape, nu2.shape))
    return j_plain, mm(mm(u, np.conj(mm(mm(np.linalg.inv(nu2), b), nu2))), u_adj)


def _order_one_diffs(dirac: np.ndarray, basis, j_plain: np.ndarray,
                     j_twisted: np.ndarray) -> np.ndarray:
    """[D,a] J nu^-2 b nu^2 J^-1 - J b J^-1 [D,a] for every basis pair (a, b), on axis -3.

    The J-images are _order_one_images'; the pairs are ordered a-major, as
    k a + b. Raises LinAlgError when a nearly singular nu^2 makes a residual
    NaN, where LAPACK's SVD would not converge. Stacks take their products
    through linalg._matmul, a single triple's few products skip it.
    """
    b = np.asarray(basis)  # (k, n, n)
    k, n = b.shape[0], b.shape[-1]
    mm = np.matmul if dirac.ndim == 2 and j_twisted.ndim == 3 else _matmul
    d = dirac[..., None, :, :]
    da = (mm(d, b) - mm(b, d))[..., :, None, :, :]
    diffs = mm(da, j_twisted[..., None, :, :, :]) - mm(j_plain[..., None, :, :, :], da)
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
    diffs = _order_one_diffs(dirac, basis, *_order_one_images(u, nu, basis))
    worst = operator_norms(diffs).max(axis=-1)
    return float(worst) if worst.ndim == 0 else worst


def epsilon_prime_residual(dirac: np.ndarray, u: np.ndarray, nu: np.ndarray,
                           eps_prime: int) -> np.ndarray:
    """D U conj(nu) - eps' nu U conj(D), which vanishes iff D J nu = eps' nu J D."""
    return _epsilon_prime(dirac, *_epsilon_prime_factors(u, nu, eps_prime))


def _epsilon_prime_factors(u: np.ndarray, nu: np.ndarray, eps_prime: int) -> tuple[np.ndarray, np.ndarray]:
    """The D-free factors (U conj(nu), eps' nu U) of _epsilon_prime."""
    return u @ np.conj(nu), eps_prime * nu @ u


def _epsilon_prime(dirac: np.ndarray, u_nu: np.ndarray, nu_u: np.ndarray) -> np.ndarray:
    """epsilon_prime_residual from its factors: D (U conj(nu)) - (eps' nu U) conj(D)."""
    return dirac @ u_nu - nu_u @ np.conj(dirac)


def _dirac_map(frame: _Frame, nu: np.ndarray) -> np.ndarray:
    """_dirac_terms' map L for frame, read-only, with the order-one rows of the twist nu.

    On row-major vecs, gamma D + D gamma is kron(gamma, 1) + kron(1, gamma^T),
    [D, a] is diag(a_q - a_p) and X Jt - Jp X is kron(1, Jt^T) - kron(Jp, 1)
    for _order_one_images' (Jp, Jt), pairs a-major. A singular nu^2, or
    J-images that are not finite, leave no order-one rows.
    """
    n, basis = frame.rep.dim, _point_projections(frame.rep)
    eye, rows = np.eye(n), [np.zeros((0, n * n), dtype=complex)]
    if frame.grading is not None:
        rows.append(np.kron(frame.grading, eye) + np.kron(eye, frame.grading.T))
    try:
        images = None if frame.real is None else _order_one_images(frame.real.j.u, nu, basis)
    except np.linalg.LinAlgError:
        images = None
    if images is not None and np.isfinite(images[1]).all():
        per_b = np.einsum("ip,bqj->bijpq", eye, images[1]) - np.einsum("bip,jq->bijpq", images[0], eye)
        a = np.diagonal(basis, axis1=-2, axis2=-1).real
        rows.append((per_b[None] * (a[:, None, :] - a[:, :, None])[:, None, None, None]).reshape(-1, n * n))
    dirac_map = np.concatenate(rows)
    dirac_map.flags.writeable = False
    return dirac_map


def _dirac_operands(s: _Structure) -> tuple:
    """(L, U conj(nu), eps' nu U), _dirac_terms' map and _epsilon_prime's factors, for
    _kept(s, "dirac_operands"). L is the frame's map with the plain J-images, unless
    s's nu^2 fails _fixes_points with its inverse; then it is s's own."""
    frame = s.frame
    dirac_map = _kept(frame, "dirac_map", lambda f: _dirac_map(f, _identity(f.rep.dim)))
    if frame.real is None:
        return (dirac_map, None, None)
    nu = _identity(frame.rep.dim) if s.twist is None else s.twist.nu
    try:
        plain = s.twist is None or _fixes_points(nu2 := nu @ nu, frame.rep, np.linalg.inv(nu2))
    except np.linalg.LinAlgError:
        plain = False
    factors = _epsilon_prime_factors(frame.real.j.u, nu, frame.real.signs.eps_prime)
    for m in factors:
        m.flags.writeable = False
    return (dirac_map if plain else _dirac_map(frame, nu), *factors)


def _dirac_terms(t: SpectralTriple, dirac: np.ndarray, operands: tuple) -> list[_Term]:
    """check_all's terms that read D: dirac_selfadjoint, grading_anticommutes_dirac,
    twisted_order_one (inf when nu^2 is singular) and epsilon_prime.

    They are evaluated on dirac, with the rest of the structure taken from t
    and from operands, _dirac_operands' (L, U conj(nu), eps' nu U); dirac may
    be a stack (..., n, n), and every residual matrix then carries its
    leading axes. The row-major vecs of gamma D + D gamma and of the
    order-one differences are L @ vec D; D - D^H and epsilon_prime, two
    products with its factors, are formed directly. The products run with
    numpy's overflow warnings off: a residual that overflows has an inf or
    NaN entry, which _entries reads as NaN.
    """
    n, lead = t.dim, dirac.shape[:-2]
    with np.errstate(over="ignore", invalid="ignore"):
        linear = (dirac.reshape(*lead, n * n) @ operands[0].T).reshape(*lead, -1, n, n)
        epsilon_prime = None if t.real is None else _epsilon_prime(dirac, *operands[1:])
        terms = [("dirac_selfadjoint", dirac - dirac.conj().swapaxes(-1, -2), None)]
    if t.grading is not None:
        terms.append(("grading_anticommutes_dirac", linear[..., 0, :, :], None))
    if t.real is not None:
        order_one = linear[..., len(terms) - 1:, :, :]
        if not order_one.shape[-3] or np.isnan(order_one).any():  # nu^2 singular, or nearly so
            order_one = math.inf
        terms += [("twisted_order_one", order_one, None), ("epsilon_prime", epsilon_prime, None)]
    return terms


def _nu_free_terms(t: SpectralTriple, basis: np.ndarray) -> list[_Term]:
    """check_all's terms that read neither D nor nu: the grading, J and order zero."""
    g, real, terms = t.grading, t.real, []
    if g is not None:
        terms += [
            ("grading_selfadjoint", g - g.conj().T, None),
            ("grading_squares_to_identity", g @ g - _identity(t.dim), None),
            ("grading_commutes_algebra", commutator(g, basis), None),
        ]
        if real is not None:
            if real.signs.eps_dprime is None:
                raise ValueError("graded triple with real structure needs the eps'' sign")
            u = real.j.u
            terms.append(("grading_j_sign", g @ u - real.signs.eps_dprime * u @ np.conj(g), None))
    if real is not None:
        j = real.j
        eps, eps_residual = j.squared_sign()
        terms += [
            ("j_unitary", j.unitary_defect(), None),
            ("j_squared_sign", eps_residual, None),
            ("j_sign_matches", 0.0 if eps == real.signs.eps else 1.0, 0.5),
            ("order_zero", commutator(basis[:, None], j.conjugate(basis)[None, :]), None),
        ]
    return terms


def _twist_terms(t: SpectralTriple, basis: np.ndarray) -> list[_Term]:
    """check_all's terms that read nu but not D (twisted_regularity is 0.0 untwisted)."""
    twist, terms = t.twist, []
    if t.grading is not None and twist is not None:
        terms.append(("grading_commutes_nu_squared", commutator(twist.nu @ twist.nu, t.grading), None))
    if t.real is not None:
        u = t.real.j.u
        regularity = 0.0 if twist is None else twist.nu @ u @ np.conj(twist.nu) - u
        terms.append(("twisted_regularity", regularity, None))
    if twist is None:
        return terms
    nu = twist.nu
    terms.append(("twist_selfadjoint", nu - nu.conj().T, None))
    svals = np.linalg.svd(nu, compute_uv=False)
    invertible = svals[-1] > RANK_TOL * max(1.0, svals[0])
    terms.append(("twist_invertible", 0.0 if invertible else 1.0, 0.5))
    if not twist.implements_algebra_automorphism:
        terms.append(("twist_involutive", nu @ nu - _identity(t.dim), None))
    elif not invertible:
        terms.append(("twist_preserves_algebra", 1.0, 0.5))
    elif _fixes_points(nu, t.rep):  # invertible, so m^-1 b m = b exactly
        terms.append(("twist_preserves_algebra", 0.0, None))
    else:
        m = twist.inverse() @ basis @ nu
        # Nearest embedded element: the diagonal averaged over each point block (w marks them).
        w = np.diagonal(basis, axis1=-2, axis2=-1).real
        means = np.diagonal(m, axis1=-2, axis2=-1) @ w.T / w.sum(axis=-1)
        terms.append(("twist_preserves_algebra", m - np.einsum("kp,pij->kij", means, basis), None))
    return terms


def _real_entry(t: SpectralTriple, tol: ToleranceConfig, condition: str) -> CheckEntry:
    """check_all's entry for a condition that needs the real structure."""
    if t.real is None:
        raise ValueError("triple has no real structure")
    return check_all(t, tol).entry(condition)


def check_order_zero(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """[a, J b J^-1] = 0 over the algebra basis pairs: check_all's order_zero entry."""
    return _real_entry(t, tol, "order_zero")


def check_twisted_order_one(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """[D,a] J nu^-2 b nu^2 J^-1 = J b J^-1 [D,a] over basis pairs (nu = id untwisted):
    check_all's twisted_order_one entry, inf when nu^2 is singular."""
    return _real_entry(t, tol, "twisted_order_one")


def check_epsilon_prime(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """D J nu = eps' nu J D, as the matrix identity D U conj(nu) = eps' nu U conj(D):
    check_all's epsilon_prime entry."""
    return _real_entry(t, tol, "epsilon_prime")


def check_twisted_regularity(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckEntry:
    """nu J nu = J, i.e. nu U conj(nu) = U; vacuous (residual 0) when untwisted:
    check_all's twisted_regularity entry."""
    return _real_entry(t, tol, "twisted_regularity")


def check_grading(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> list[CheckEntry]:
    """All grading conditions, check_all's grading_* entries in report order; the J
    sign uses eps'' from the triple's signs."""
    if t.grading is None:
        raise ValueError("triple has no grading")
    return [e for e in check_all(t, tol).entries if e.condition.startswith("grading_")]


def check_all(t: SpectralTriple, tol: ToleranceConfig = DEFAULT_TOL) -> CheckReport:
    """Every applicable axiom plus the structural invariants of J and nu.

    Each check contributes its residual matrices; the operator norms of the
    whole report are taken with one stacked LAPACK call and reduced to the
    worst residual per condition. j_unitary and j_squared_sign are Frobenius
    defects; a twist whose nu^2 is singular reports twisted_order_one = inf.

    Only four conditions read D: dirac_selfadjoint,
    grading_anticommutes_dirac, twisted_order_one and epsilon_prime. The
    frozen entries of the others are kept as "entries", with the bits of the
    abs_tol they were made at (the last a call used), and every report at
    that tol shares them: those that read no nu (the grading's own
    conditions, J and order zero) on t's frame, those that read nu on its
    structure. A call builds its four D entries and whatever its frame and
    structure lack at its tol, with one stacked norm call; a new rho of a
    conformal twist is a new structure on its base's frame, so it builds the
    nu entries only, and another tol builds a part's entries again. The
    D-linear residuals are one product with a read-only map (_dirac_terms,
    _dirac_operands), kept on the frame and shared by every twist whose nu^2
    fixes the point projections (every rho of a conformal family); only
    another twist keeps its own, on its structure.
    """
    s = t._structure
    basis = _point_projections(t.rep)
    terms = _dirac_terms(t, t.dirac, _kept(s, "dirac_operands", _dirac_operands))
    bits = float(tol.abs_tol).hex()  # 0 and 0.0 are one tol, 0.0 and -0.0 two
    kept, new = [], []
    for part, build in ((s.frame, _nu_free_terms), (s, _twist_terms)):
        made_at, entries = part.__dict__.get("entries", (None, ()))
        if made_at == bits:
            kept += entries
        else:
            new.append((part, build(t, basis)))
    n = len(terms)
    entries = _entries(terms + [term for _, more in new for term in more], tol)
    for part, more in new:
        part.__dict__["entries"] = (bits, tuple(entries[n:n + len(more)]))
        n += len(more)
    return CheckReport(_in_report_order(entries + kept))


def is_irreducible(t: SpectralTriple) -> bool:
    """Trivial commutant of the set {gamma} u {a} u {[D, b]} over the algebra basis.

    The matrices that commute with every point projection are exactly the
    point-block-diagonal ones, so the commutant is solved on those unknowns
    alone: the commutation operator of {gamma} u {[D, b]} restricted to the
    columns of the point blocks. A diagonal grading (every off-diagonal
    entry exactly zero) is handled the same way: the unknowns are further
    restricted to the entries X[b, j] with gamma[b, b] == gamma[j, j], and
    gamma leaves the generators. With no projection or grading rows in the
    operator, the relative rank cutoff cannot drop them at large |D|, so the
    verdict holds from small to large scales of D. A grading with a nonzero
    off-diagonal entry stays among the generators, as the first rows.

    The operator is linear in D, and its layout depends only on the
    representation and the grading, so it is read off the map of
    _commutant_columns that t's frame keeps: one product with D's entries
    gives the [D, b] rows, after the grading's precomputed rows.
    """
    columns, gamma_rows, dirac_map = _kept(
        t._structure.frame, "commutant", lambda f: _commutant_columns(f.rep.point_of, f.grading))
    rows = (dirac_map @ t.dirac.ravel()).reshape(-1, len(columns))
    if gamma_rows is not None:
        rows = np.concatenate([gamma_rows, rows])
    s = np.linalg.svd(rows, compute_uv=False)
    return len(columns) - _rank(s) == 1


def _commutant_columns(point_of: tuple, grading
                       ) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """(columns, gamma rows, D map) of is_irreducible, each read-only, for point_of and
    the grading's entries as a buffer (a C-contiguous complex array or its bytes) or None.

    The columns are the indices j n + b, in increasing order, of the entries
    X[b, j] with labels[b] == labels[j] in the column-major vec of an n x n
    X: labels = point_of spans the point-block-diagonal matrices, the pairs
    (point, gamma[b, b]) of a diagonal grading span their intersection with
    the grading's commutant. The gamma rows are
    _commutation_operator(gamma[None])[:, columns] for a grading that stays
    a generator, else None.

    The D map A, of shape (k n^2 len(columns), n^2), takes D.ravel() to the
    rows of the [D, b]: (A @ D.ravel()).reshape(-1, len(columns)) is
    _commutation_operator(commutator(D, basis))[:, columns]. Its column m is
    that operator for the m-th unit matrix, built once by the same two
    functions, so the operator is stated once. Every row of A holds at most
    one nonzero, +1 or -1, so each entry of the product is exactly the
    operator's, up to the sign of a zero.
    """
    n = len(point_of)
    labels, gamma = point_of, None
    if grading is not None:
        gamma = np.frombuffer(grading, dtype=complex).reshape(n, n)
        diagonal = np.diagonal(gamma)
        if (gamma == np.diag(diagonal)).all():
            labels, gamma = tuple(zip(labels, diagonal.tolist())), None
    j, b = np.nonzero([[labels[b] == labels[j] for b in range(n)] for j in range(n)])
    columns = j * n + b
    basis = _point_projections(Representation(point_of))
    units = np.eye(n * n, dtype=complex).reshape(n * n, 1, n, n)
    per_unit = _commutation_operator(commutator(units, basis).reshape(-1, n, n))
    dirac_map = np.ascontiguousarray(per_unit.reshape(n * n, -1, n * n)[..., columns].reshape(n * n, -1).T)
    gamma_rows = None if gamma is None else _commutation_operator(gamma[None])[:, columns]
    for m in (columns, gamma_rows, dirac_map):
        if m is not None:
            m.flags.writeable = False
    return columns, gamma_rows, dirac_map
