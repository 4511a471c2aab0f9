"""Parity of the stacked kernels with the per-matrix code they replaced, and
isolation of the constants they cache.

- `operator_norms` / `operator_norm` against `np.linalg.norm(., 2)`, exactly,
  on random stacks of dims 1-8 from 1e-300 to 1e300 and on zero matrices;
  the zero-skipping kernel against one SVD call, bitwise, on stacks mixing
  all-zero, `-0.0`-only, subnormal and ordinary matrices, and on NaN
  (LinAlgError) and inf (NaN norm) entries.
- `_norms_exceed(stack, b)` against `operator_norms(stack) > b`, exactly, for
  bounds at, one ulp around and 1e-12 around each computed norm, including
  matrices whose norm is their largest entry.
- The product helper `_matmul` against `np.matmul`, bitwise, for n = 2-4,
  complex and real, on stacks either side of `_FOLD_MIN` (broadcast and
  stride-0 operands included), and `order_one_residual` on a scan-shaped
  stack against one call per (trial, J, nu).
- The oracle's Gram norm `_gram_norms` against `operator_norms`, to rel
  1e-13, for n = 2-4, complex and real, from 1e-300 to 1e300 on rank-one
  matrices plus a 1e-14 perturbation and on a combined derivative with
  c_- = c_+ (1 - 1e-6); exact zeros, stack shapes and LinAlgError on NaN.
- `distance_bruteforce` against a copy of the oracle with a twisted stack
  for every twist and separate generic and directional norm calls:
  bitwise on untwisted, permutation, `perm_bad` and composite triples, for
  sample counts on either side of 50 and of `_ORACLE_BLOCK`; on conformal
  triples bitwise against the plain-only copy and to rel 1e-15 against the
  twisted one. One `_gram_norms` call per block of up to `_ORACLE_BLOCK`
  samples, with one stack for a commuting twist and two otherwise.
- `_c2_j_stack`, filled by assignment, against the nested-list construction
  it replaced, in bytes, and C-contiguous.
- The C^2 scan's twist candidates: each squares to the identity exactly, and
  each gives the identity twist's order-one differences bitwise.
- `_order_one_images`, which skips the twisted J-image when every nu^2 is
  exactly the identity, against a copy of the general formula, in bytes and
  shape: I3, I4, the permutation twists, the block swap, a conformal nu,
  the C^2 swap and the stacked C^2 candidates.
- The C^2 scan's scalar resampling test against
  `_norms_exceed(commutator(d, e), 0.1)` at and one ulp around 0.1 and the
  entry bound 0.1 (1 + 1e-12).
- `solve_linear_family`, which evaluates each constraint once on the cached
  stack of Hermitian basis matrices, against the earlier solver (copied
  below) that called every constraint once per basis member: bitwise-equal
  bases for the four core families, both eps', and the constraint sets of
  tests/test_linalg.py; `derive_family` against that solver fed check_all's
  four conditions on D, written out per member.
- The solver's contract: a constraint must broadcast over the leading stack
  axis, else ValueError.
- `is_irreducible`'s D map, kept per (representation, grading), against
  the operator it replaced, `_commutation_operator(commutator(D, basis))`
  restricted to the commutant columns: every entry equal in absolute value,
  bitwise (only the sign of a zero may differ), for random D at scales
  1e-12 to 1e12 on C^2, C^3 and C^4, ungraded, with a diagonal grading and
  with one that has off-diagonal entries; the kept gamma rows equal the
  gamma block of the operator with gamma among the generators, bitwise;
  the verdicts equal those of the replaced construction.
- The cached point projections and Hermitian basis stack are read-only, and
  the public arrays (`projection_e`, `algebra_basis`) are fresh copies whose
  mutation changes no later result.
"""

import numpy as np
import pytest

from twistriple.algebra import REP_C2, REP_C3, REP_C4, Representation, _point_projections, projection_e
from twistriple.axioms import (
    SpectralTriple,
    _order_one_diffs,
    _order_one_images,
    check_all,
    epsilon_prime_residual,
    is_irreducible,
    order_one_residual,
)
from twistriple.catalog import (
    _C2_NU_CANDIDATES,
    GAMMA3,
    GAMMA4,
    NU3_PERM,
    NU4_PERM,
    NU4_PERM_BAD,
    U3,
    U4,
    _c2_j_stack,
    _calculus_exceeds,
    build_c3,
    build_c4,
    build_c4_perm_conformal_composite,
    build_conformal,
    derive_family,
)
from twistriple import axioms, distance
from twistriple.distance import _ORACLE_BLOCK, distance_bruteforce, spectral_distance
from twistriple.forms import fluctuate, selfadjoint_one_form
from twistriple.linalg import (
    _FOLD_MIN,
    DEFAULT_TOL,
    RANK_TOL,
    _gram_norms,
    _hermitian_stack,
    _matmul,
    _norms_exceed,
    _commutation_operator,
    _rank,
    commutator,
    operator_norm,
    operator_norms,
    solve_linear_family,
)


def same_bits(a, b) -> bool:
    """Equal shape and dtype and the same bytes: signed zeros must agree too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ------------------------------------------------------------ the norm kernel

SCALES = (0.0, 1e-300, 1e-150, 1e-20, 1e-3, 1.0, 1e3, 1e20, 1e150, 1e300)


@pytest.mark.parametrize("n", range(1, 9))
def test_operator_norms_equal_numpy_spectral_norm_exactly(n):
    rng = np.random.default_rng(500 + n)
    for scale in SCALES:
        for dtype in (complex, float):
            stack = rng.standard_normal((40, n, n)) * scale
            if dtype is complex:
                stack = stack + 1j * rng.standard_normal((40, n, n)) * scale
            stack[0] = 0.0
            want = np.linalg.norm(stack, 2, axis=(-2, -1))
            assert same_bits(operator_norms(stack), want)
            assert same_bits(operator_norms(stack.reshape(4, 10, n, n)), want.reshape(4, 10))
            for m in stack[:10]:
                assert operator_norm(m) == float(np.linalg.norm(m, 2))


def test_operator_norm_of_zero_matrices():
    for n in range(1, 9):
        z = np.zeros((n, n), dtype=complex)
        assert operator_norm(z) == 0.0 == float(np.linalg.norm(z, 2))
        assert same_bits(operator_norms(np.zeros((3, n, n))), np.zeros(3))


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("dtype", [complex, float])
def test_operator_norms_skipping_zero_matrices_equal_one_svd_call_bitwise(n, dtype):
    rng = np.random.default_rng(600 + n)
    stack = _random_stack(rng, (12, n, n), dtype)
    stack[1] = 0.0
    stack[4] = complex(-0.0, -0.0) if dtype is complex else -0.0
    stack[7] = 0.0
    stack[7, 0, -1] = 5e-324  # one subnormal entry
    stack[9] *= 1e-310  # every entry subnormal
    want = np.linalg.svd(stack, compute_uv=False)[..., 0]
    assert same_bits(operator_norms(stack), want)
    assert same_bits(operator_norms(stack.reshape(3, 4, n, n)), want.reshape(3, 4))
    for m in stack:
        assert same_bits(operator_norms(m), np.linalg.svd(m, compute_uv=False)[..., 0])
    for zeros in (stack[[1, 4]], stack[[4]]):
        assert same_bits(operator_norms(zeros), np.linalg.svd(zeros, compute_uv=False)[..., 0])


@pytest.mark.parametrize("bad", [np.nan, complex(np.nan, 0.0), np.inf, -np.inf, complex(0.0, np.inf)])
def test_operator_norms_of_non_finite_stacks_are_the_svds(bad):
    # with zero matrices in the stack, so the zero skip runs: NaN raises as the
    # SVD does, and an inf entry gives the SVD's NaN norm
    for n in (1, 3, 4):
        stack = np.zeros((4, n, n), dtype=complex)
        stack[2] = 1.0
        stack[1, 0, -1] = bad
        try:
            want = np.linalg.svd(stack, compute_uv=False)[..., 0]
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                operator_norms(stack)
            assert np.isnan(bad)
        else:
            assert same_bits(operator_norms(stack), want) and np.isnan(want[1])


def _entry_dominated(rng, n, count):
    """Diagonal and one-entry (rank one) matrices, whose norm is their largest entry."""
    diag = np.zeros((count, n, n))
    diag[:, np.arange(n), np.arange(n)] = rng.standard_normal((count, n))
    single = np.zeros((count, n, n))
    single[np.arange(count), rng.integers(n, size=count), rng.integers(n, size=count)] = (
        rng.standard_normal(count))
    return np.concatenate([diag, single])


@pytest.mark.parametrize("n", range(1, 5))
def test_norms_exceed_equals_the_svd_verdict(n):
    rng = np.random.default_rng(700 + n)
    for scale in SCALES:
        for dtype in (complex, float):
            stack = np.concatenate([rng.standard_normal((8, n, n)),
                                    _entry_dominated(rng, n, 4),
                                    np.outer(rng.standard_normal(n), rng.standard_normal(n))[None]])
            if dtype is complex:
                stack = stack * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, stack.shape))
            stack = stack * scale
            stack[0] = 0.0
            sigma = operator_norms(stack)
            for s in sigma:
                for bound in (0.0, s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf),
                              s * (1 + 1e-12), s * (1 - 1e-12)):
                    assert same_bits(_norms_exceed(stack, bound), sigma > bound), (scale, bound)
                    assert same_bits(_norms_exceed(stack.reshape(1, -1, n, n), bound),
                                     (sigma > bound)[None])
            for m, s in zip(stack, sigma):  # one matrix: a 0-d verdict
                for bound in (s, np.nextafter(s, -np.inf)):
                    assert same_bits(_norms_exceed(m, bound), operator_norms(m) > bound)


# ------------------------------------------------------------ the product helper

# (left stack shape, right stack shape): single products, stacks either side
# of _FOLD_MIN, and the broadcast shapes of the C^2 scan's order-one kernel
MATMUL_STACKS = [
    ((), ()), ((2,), (2,)), ((2, 1), (1, 2)), ((_FOLD_MIN - 1,), ()), ((_FOLD_MIN,), ()),
    ((_FOLD_MIN, 1), (1, 1)), ((_FOLD_MIN - 1, 1), (1,)), ((3 * _FOLD_MIN,), (3 * _FOLD_MIN,)),
    ((40, 1, 2), (40, 3, 1)), ((1, 70), (3, 1)), ((5, 1, 3), (2, 1)), ((2,), (_FOLD_MIN, 1, 1)),
    ((14, 1, 1, 1), (2,)), ((2,), (14, 1, 1, 1)), ((14, 5, 1, 1), (2,)),
    ((14, 5, 1, 2), (14, 5, 1, 1)), ((14, 5, 2, 2), (14, 5, 1, 1)),
    ((14, 1, 1, 2, 1), (14, 5, 2, 1, 2)), ((14, 5, 1, 1, 2), (14, 1, 1, 2, 1)),
]


def _random_stack(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if dtype is complex:
        x = x + 1j * rng.standard_normal(shape)
    return x


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("dtype", [complex, float])
def test_matmul_helper_equals_numpy_matmul_bitwise(n, dtype):
    rng = np.random.default_rng(800 + n)
    for left, right in MATMUL_STACKS:
        a = _random_stack(rng, left + (n, n), dtype)
        b = _random_stack(rng, right + (n, n), dtype)
        assert same_bits(_matmul(a, b), np.matmul(a, b)), (left, right)
        # stride-0 operands: views that repeat a stack along a new leading axis
        pad = max(len(left), len(right))
        a = a.reshape((1,) * (pad - len(left)) + a.shape)[None]
        b = b.reshape((1,) * (pad - len(right)) + b.shape)[None]
        a0, b0 = np.broadcast_to(a, (3,) + a.shape[1:]), np.broadcast_to(b, (3,) + b.shape[1:])
        for x, y in ((a0, b), (a, b0), (a0, b0), (a0[:, None], b0[None])):
            assert same_bits(_matmul(x, y), np.matmul(x, y)), (left, right, x.shape, y.shape)
    # non-contiguous factors and mixed dtypes
    a = _random_stack(rng, (2 * _FOLD_MIN, n, 2 * n), dtype)[..., ::2]
    b = _random_stack(rng, (n, n), complex)
    for x in (a, np.swapaxes(a, -1, -2)):
        assert same_bits(_matmul(x, b), np.matmul(x, b))
        assert same_bits(_matmul(x[:, None], b[None, None]), np.matmul(x[:, None], b[None, None]))


def test_order_one_residual_on_a_scan_shaped_stack_equals_per_matrix_calls():
    rng = np.random.default_rng(17)
    basis = list(_point_projections(REP_C2))
    m = rng.standard_normal((14, 2, 2)) + 1j * rng.standard_normal((14, 2, 2))
    diracs = m + np.conj(np.swapaxes(m, -1, -2))
    us = _c2_j_stack(rng.uniform(0.0, 2.0 * np.pi, (14, 2)))
    stacked = order_one_residual(diracs[:, None, None], us[:, :, None], _C2_NU_CANDIDATES, basis)
    want = [[[order_one_residual(d, u, nu, basis) for nu in _C2_NU_CANDIDATES] for u in row]
            for d, row in zip(diracs, us)]
    assert same_bits(stacked, np.array(want))


def _diffs(dirac, u, nu, basis):
    """_order_one_diffs with the J-images of _order_one_images, as order_one_residual takes them."""
    return _order_one_diffs(dirac, basis, *_order_one_images(u, nu, basis))


def test_scan_twist_candidates_give_the_identity_twists_differences_bitwise():
    one = np.eye(2, dtype=complex)
    for nu in _C2_NU_CANDIDATES:
        assert same_bits(nu @ nu, one)
    rng = np.random.default_rng(19)
    basis = _point_projections(REP_C2)
    m = rng.standard_normal((14, 2, 2)) + 1j * rng.standard_normal((14, 2, 2))
    diracs = m + np.conj(np.swapaxes(m, -1, -2))
    us = _c2_j_stack(rng.uniform(0.0, 2.0 * np.pi, (14, 2)))
    want = _diffs(diracs[:, None], us, one, basis)  # what the scan computes
    for nu in _C2_NU_CANDIDATES:
        assert same_bits(_diffs(diracs[:, None], us, nu, basis), want)
    both = _diffs(diracs[:, None, None], us[:, :, None], _C2_NU_CANDIDATES, basis)
    for i in range(len(_C2_NU_CANDIDATES)):
        assert same_bits(both[:, :, i], want)


def _ref_order_one_diffs(dirac, u, nu, basis):
    """_order_one_diffs without its nu^2 = 1 shortcut: the general formula for every nu."""
    b = np.asarray(basis)
    k, n = b.shape[0], b.shape[-1]
    mm = np.matmul if dirac.ndim == u.ndim == nu.ndim == 2 else _matmul
    nu2 = mm(nu, nu)[..., None, :, :]
    u = u[..., None, :, :]
    u_adj = np.conj(np.swapaxes(u, -1, -2))
    j_plain = mm(mm(u, np.conj(b)), u_adj)
    j_twisted = mm(mm(u, np.conj(mm(mm(np.linalg.inv(nu2), b), nu2))), u_adj)
    d = dirac[..., None, :, :]
    da = (mm(d, b) - mm(b, d))[..., :, None, :, :]
    diffs = mm(da, j_twisted[..., None, :, :, :]) - mm(j_plain[..., None, :, :, :], da)
    return diffs.reshape(*diffs.shape[:-4], k * k, n, n)


@pytest.mark.parametrize("rep,u,nu", [
    (REP_C3, U3, np.eye(3, dtype=complex)),
    (REP_C3, U3, NU3_PERM),
    (REP_C4, U4, np.eye(4, dtype=complex)),
    (REP_C4, U4, NU4_PERM),
    (REP_C4, U4, NU4_PERM_BAD),
    (REP_C4, U4, np.diag([1.0, 0.25, 4.0, 1.0]).astype(complex)),  # nu^2 != 1: the general formula
])
def test_order_one_diffs_with_nu_squared_one_equal_the_general_formula_bitwise(rep, u, nu):
    rng = np.random.default_rng(23)
    n = rep.dim
    basis = _point_projections(rep)
    m = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    diracs = m + np.conj(np.swapaxes(m, -1, -2))
    for d in diracs:
        assert same_bits(_diffs(d, u, nu, basis), _ref_order_one_diffs(d, u, nu, basis))
    stacked = (diracs[:, None], u, np.stack([nu, nu])[None])
    assert same_bits(_diffs(*stacked, basis), _ref_order_one_diffs(*stacked, basis))


def test_order_one_diffs_on_scan_stacks_equal_the_general_formula_bitwise():
    rng = np.random.default_rng(29)
    basis = _point_projections(REP_C2)
    m = rng.standard_normal((70, 2, 2)) + 1j * rng.standard_normal((70, 2, 2))
    diracs = m + np.conj(np.swapaxes(m, -1, -2))
    us = _c2_j_stack(rng.uniform(0.0, 2.0 * np.pi, (70, 2)))
    for nu in _C2_NU_CANDIDATES:  # the identity and the swap
        for d, u in ((diracs[0], us[0, 1]), (diracs[:, None], us)):
            assert same_bits(_diffs(d, u, nu, basis), _ref_order_one_diffs(d, u, nu, basis))
    stacked = (diracs[:, None, None], us[:, :, None], _C2_NU_CANDIDATES)
    got = _diffs(*stacked, basis)
    assert got.shape == (70, 5, 2, 4, 2, 2)
    assert same_bits(got, _ref_order_one_diffs(*stacked, basis))


# ------------------------------------------------------------ the oracle's Gram norm

GRAM_MAGNITUDES = (1e-300, 1e-200, 1.0, 1e200, 1e300)


def _assert_gram_agrees(stack):
    want = operator_norms(stack)
    got = _gram_norms(stack)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * want).all(), np.max(np.abs(got - want) / want)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("dtype", [complex, float])
def test_gram_norms_agree_with_operator_norms(n, dtype):
    rng = np.random.default_rng(900 + n)
    _assert_gram_agrees(_random_stack(rng, (200, n, n), dtype))
    for scale in GRAM_MAGNITUDES:
        rank_one = _random_stack(rng, (50, n, 1), dtype) @ _random_stack(rng, (50, 1, n), dtype)
        _assert_gram_agrees(scale * (rank_one + 1e-14 * _random_stack(rng, (50, n, n), dtype)))
        _assert_gram_agrees(scale * _random_stack(rng, (50, n, n), dtype))


@pytest.mark.parametrize("t", [build_c4(1, 0.5 + 0.5j, -1.5j, twist="perm"),
                               build_conformal("c4", 1, 1.0, 2.0 + 1.0j, rho=0.8, zeta=0.6),
                               build_c3(-1, 1.5 - 0.5j)])
def test_gram_norms_of_nearly_cancelling_combined_derivatives(t):
    # the oracle's derivatives c_+ delta(E_+) + c_- delta(E_-) with c_- = c_+ (1 - 1e-6)
    rng = np.random.default_rng(31)
    e = _point_projections(t.rep)
    images = [t.dirac @ e - e @ t.dirac]
    if t.twist is not None:
        images.append(t.dirac @ e - t.twist.nu @ e @ np.linalg.inv(t.twist.nu) @ t.dirac)
    images = np.stack(images)
    cp = rng.standard_normal(60).view(complex)
    for scale in GRAM_MAGNITUDES:
        derivatives = scale * (cp[:, None, None] * images[:, None, 0]
                               + (cp * (1 - 1e-6))[:, None, None] * images[:, None, 1])
        _assert_gram_agrees(derivatives)


def test_gram_norms_of_zero_matrices_and_stack_shapes():
    for n in (1, 2, 3, 4):
        for dtype in (complex, float):
            assert same_bits(_gram_norms(np.zeros((3, n, n), dtype)), np.zeros(3))
            assert _gram_norms(np.zeros((n, n), dtype)) == 0.0
    rng = np.random.default_rng(37)
    stack = _random_stack(rng, (3, 5, 4, 4), complex)
    assert _gram_norms(stack).shape == (3, 5)
    assert _gram_norms(stack[0, 0]).shape == ()
    assert same_bits(_gram_norms(stack).reshape(15), _gram_norms(stack.reshape(15, 4, 4)))


def test_gram_norms_reject_nan_as_the_svd_does():
    stack = np.ones((4, 3, 3), dtype=complex)
    stack[2, 1, 0] = np.nan
    for kernel in (operator_norms, _gram_norms):
        with pytest.raises(np.linalg.LinAlgError):
            kernel(stack)


# ------------------------------------------------------------ the oracle's stacks and blocks

def _ref_distance_bruteforce(t, samples, seed, twisted=True):
    """distance_bruteforce as it was before commuting twists lost their twisted
    stack: with twisted=True every twist gets one (with False, none does), the
    generic samples take one norm call and each block of directional samples
    another."""
    d = t.dirac
    projections = _point_projections(t.rep)
    images = [d @ projections - projections @ d]
    if t.twist is not None and twisted:
        nu = t.twist.nu
        images.append(d @ projections - nu @ projections @ np.linalg.inv(nu) @ d)
    images = np.stack(images)
    plus, minus = images[:, None, 0], images[:, None, 1]

    def block_best(cp, cm):
        derivatives = cp[:, None, None] * plus + cm[:, None, None] * minus
        worst = _gram_norms(derivatives).max(axis=0)
        gap = np.abs(cp - cm)
        ratios = np.divide(gap, worst, out=np.zeros_like(worst), where=(gap >= 1e-12) & (worst > 0.0))
        return float(ratios.max())

    rng = np.random.default_rng(seed)
    generic = min(samples, 50)
    c = rng.standard_normal((generic, 4)).view(complex)
    best = block_best(c[:, 0], c[:, 1])
    for start in range(generic, samples, _ORACLE_BLOCK):
        w = rng.standard_normal((min(_ORACLE_BLOCK, samples - start), 2)).view(complex)[:, 0]
        best = max(best, block_best(w / 2.0, -w / 2.0))
    return best


ORACLE_SAMPLES = [1, 49, 50, 51, 300, _ORACLE_BLOCK, _ORACLE_BLOCK + 49, _ORACLE_BLOCK + 50,
                  _ORACLE_BLOCK + 51, 2100]
NONCOMMUTING = [build_c3(1, 1.5 - 0.5j), build_c4(-1, 2.0 + 1.0j, 0.3 - 0.4j),
                build_c3(-1, 0.7j, -1.2j, twist="perm"), build_c4(1, 0.5, -1.5, twist="perm"),
                build_c4(1, 1.0 - 0.5j, twist="perm_bad"),
                build_c4_perm_conformal_composite(1, 0.4 + 1.0j, 1.1, rho=0.2, zeta=1.3)]
COMMUTING = [build_conformal("c3", -1, 1.0 - 2.0j, rho=0.3, zeta=1.7),
             build_conformal("c4", 1, 1.0, 2.0 + 1.0j, rho=0.8, zeta=0.6)]


def test_commuting_twist_test_splits_conformal_from_permutation_twists():
    for triples, commutes in ((NONCOMMUTING, False), (COMMUTING, True)):
        for t in triples:
            if t.twist is not None:
                e = _point_projections(t.rep)
                assert bool((t.twist.nu @ e == e @ t.twist.nu).all()) is commutes


@pytest.mark.parametrize("samples", ORACLE_SAMPLES)
def test_oracle_equals_the_separate_call_reference_bitwise(samples):
    for i, t in enumerate(NONCOMMUTING):
        got = distance_bruteforce(t, samples, seed=700 + i)
        assert same_bits(got, _ref_distance_bruteforce(t, samples, seed=700 + i)), t.twist


@pytest.mark.parametrize("samples", ORACLE_SAMPLES)
def test_oracle_on_commuting_twists_keeps_only_the_plain_stack(samples):
    for i, t in enumerate(COMMUTING):
        got = distance_bruteforce(t, samples, seed=800 + i)
        assert same_bits(got, _ref_distance_bruteforce(t, samples, seed=800 + i, twisted=False))
        assert got == pytest.approx(_ref_distance_bruteforce(t, samples, seed=800 + i), rel=1e-15, abs=0.0)


def test_oracle_makes_one_norm_call_per_block(monkeypatch):
    shapes = []

    def recording(stack):
        shapes.append(np.shape(stack))
        return _gram_norms(stack)

    monkeypatch.setattr(distance, "_gram_norms", recording)
    conformal = build_conformal("c4", 1, 1.0, 2.0 + 1.0j, rho=0.8, zeta=0.6)
    perm = build_c4(1, 0.5, -1.5, twist="perm")
    distance_bruteforce(conformal, 300, seed=5)
    distance_bruteforce(perm, 300, seed=5)
    assert shapes == [(1, 300, 4, 4), (2, 300, 4, 4)]
    shapes.clear()
    distance_bruteforce(perm, _ORACLE_BLOCK + 51, seed=5)
    assert shapes == [(2, _ORACLE_BLOCK, 4, 4), (2, 51, 4, 4)]


def _normals_with_d01(d01, rng, m10=0j):
    """Normals (re, im) of an m with m[1, 0] = m10 whose Dirac m + m^H has d01 at (0, 1).

    d01 is exact for m10 = 0; otherwise up to the rounding of d01 - conj(m10).
    """
    normals = rng.standard_normal((2, 2, 2))
    m01 = d01 - np.conj(m10)
    normals[:, 0, 1] = m01.real, m01.imag
    normals[:, 1, 0] = m10.real, m10.imag
    return normals


def test_scalar_resampling_test_equals_the_entry_bound_verdict():
    rng = np.random.default_rng(23)
    e = _point_projections(REP_C2)[0]
    bound = 0.1 * (1 + 1e-12)
    cases = [(0.05 + 0j, m10) for m10 in (0.5j, -0.5j, 0.5, -0.5, 0.25 + 0.25j)]
    for r in (0.1, bound):
        for x in (r, np.nextafter(r, 0.0), np.nextafter(r, 1.0)):
            d01s = [complex(x, 0.0), complex(-x, 0.0), complex(0.0, x), complex(0.0, -x)]
            d01s += [x * np.exp(1j * t) for t in rng.uniform(0.0, 2.0 * np.pi, 8)]
            cases += [(d01, m10) for d01 in d01s for m10 in (0j, complex(*rng.standard_normal(2)))]
    verdicts = []
    for d01, m10 in cases:
        normals = _normals_with_d01(d01, rng, m10)
        m = normals[0] + 1j * normals[1]
        d = m + m.conj().T
        if m10 == 0:
            assert d[0, 1] == d01
        want = bool(_norms_exceed(commutator(d, e), 0.1))
        assert _calculus_exceeds(normals) is want, (d01, m10)
        verdicts.append(want)
    assert not any(verdicts[:5]) and any(verdicts)
    # |d01| exact: from one ulp above 0.1 the commutator's norm exceeds 0.1
    assert not _calculus_exceeds(_normals_with_d01(0.1 + 0j, rng))
    for x in (np.nextafter(0.1, 1.0), bound, np.nextafter(bound, 1.0)):
        assert _calculus_exceeds(_normals_with_d01(complex(x, 0.0), rng))


def _ref_c2_j_stack(phases):
    """_c2_j_stack as nested lists of stacks, moved to the trailing axes."""
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


def test_c2_j_stack_by_assignment_equals_the_nested_list_construction():
    rng = np.random.default_rng(29)
    for shape in ((2,), (14, 2), (3, 4, 2)):
        phases = rng.uniform(0.0, 2.0 * np.pi, shape)
        phases.flat[0] = 0.0
        got = _c2_j_stack(phases)
        assert same_bits(got, _ref_c2_j_stack(phases))
        assert got.flags.c_contiguous


# ---------------------------------------------- the solver, as it was before

def _ref_hermitian_basis(dim):
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


def _ref_hermitian_from_coords(coords, dim):
    coords = np.asarray(coords, dtype=float)
    m = np.zeros((dim, dim), dtype=complex)
    m[np.diag_indices(dim)] = coords[:dim]
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            m[i, j] = coords[k] + 1j * coords[k + 1]
            m[j, i] = coords[k] - 1j * coords[k + 1]
            k += 2
    return m


def _ref_rref(rows, tol):
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


def _ref_solve_linear_family(constraints, dim, tol=DEFAULT_TOL):
    """One constraint call per basis member, one coordinate conversion per result."""
    basis = _ref_hermitian_basis(dim)
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
    a = np.array(cols).T
    _, s, vt = np.linalg.svd(a)
    rank = _rank(s)
    kernel = vt[rank:]
    if kernel.shape[0] == 0:
        return []
    canon = _ref_rref(kernel, RANK_TOL)
    ortho = []
    for row in canon:
        v = row.copy()
        for w in ortho:
            v -= np.dot(v, w) * w
        nv = np.linalg.norm(v)
        if nv > RANK_TOL:
            ortho.append(v / nv)
    return [_ref_hermitian_from_coords(v, dim) for v in ortho]


def assert_same_basis(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert same_bits(g, w)


# (family, gamma, U, nu): the data derive_family solves with
CORE_FAMILIES = {
    "c3_untwisted": (GAMMA3, U3, np.eye(3, dtype=complex)),
    "c3_perm": (GAMMA3, U3, NU3_PERM),
    "c4_untwisted": (GAMMA4, U4, np.eye(4, dtype=complex)),
    "c4_perm": (GAMMA4, U4, NU4_PERM),
}


def _four_conditions(gamma, u, nu, eps):
    """check_all's four conditions on one D, written out and flattened in the
    order derive_family stacks them: D - D^*, gamma D + D gamma, twisted order
    one over the basis pairs (a, b), a-major, and D U conj(nu) - eps' nu U conj(D)."""
    basis = _point_projections(REP_C3 if gamma.shape[0] == 3 else REP_C4)
    nu2 = nu @ nu

    def conditions(d):
        order_one = []
        for a in basis:
            da = d @ a - a @ d
            for b in basis:
                j_twisted = u @ np.conj(np.linalg.inv(nu2) @ b @ nu2) @ u.conj().T
                order_one.append(da @ j_twisted - u @ np.conj(b) @ u.conj().T @ da)
        eps_prime = d @ u @ np.conj(nu) - eps * nu @ u @ np.conj(d)
        return np.concatenate([m.ravel() for m in
                               (d - d.conj().T, gamma @ d + d @ gamma, *order_one, eps_prime)])
    return conditions


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("family", sorted(CORE_FAMILIES))
def test_stacked_solver_matches_per_member_solver_bitwise(family, eps):
    gamma, u, nu = CORE_FAMILIES[family]
    constraints = [lambda d: gamma @ d + d @ gamma, lambda d: epsilon_prime_residual(d, u, nu, eps)]
    dim = gamma.shape[0]
    assert_same_basis(solve_linear_family(constraints, dim), _ref_solve_linear_family(constraints, dim))
    assert_same_basis(derive_family(family, eps).basis,
                      _ref_solve_linear_family([_four_conditions(gamma, u, nu, eps)], dim))


def _test_linalg_constraint_sets():
    gamma3 = np.diag([1.0, -1.0, -1.0]).astype(complex)
    gamma4 = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    u4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    return {
        "gamma3": ([lambda d: gamma3 @ d + d @ gamma3], 3),
        "none3": ([], 3),
        "c4_reality": ([lambda d: gamma4 @ d + d @ gamma4, lambda d: d @ u4 - u4 @ np.conj(d)], 4),
        "traceless2": ([lambda d: np.trace(d, axis1=-2, axis2=-1)], 2),
    }


@pytest.mark.parametrize("name", sorted(_test_linalg_constraint_sets()))
def test_stacked_solver_matches_on_test_linalg_constraint_sets(name):
    constraints, dim = _test_linalg_constraint_sets()[name]
    got = solve_linear_family(constraints, dim)
    assert_same_basis(got, _ref_solve_linear_family(constraints, dim))
    for b in got:
        assert b.flags.writeable


@pytest.mark.parametrize("constraint", [lambda d: d.T, lambda d: np.trace(d), lambda d: d[0],
                                        lambda d: 0.0])
def test_solver_rejects_constraints_that_do_not_broadcast(constraint):
    with pytest.raises(ValueError, match="broadcast over the leading axis"):
        solve_linear_family([constraint], 3)


def test_solver_accepts_broadcasting_constraints_of_any_output_shape():
    # one complex number per member (trace) and one vector per member (first row)
    traceless = solve_linear_family([lambda d: np.trace(d, axis1=-2, axis2=-1)], 3)
    assert len(traceless) == 8
    assert all(abs(np.trace(b)) < 1e-12 for b in traceless)
    first_row_zero = solve_linear_family([lambda d: d[..., 0, :]], 3)
    assert len(first_row_zero) == 4
    assert all(np.abs(b[0]).max() == 0.0 for b in first_row_zero)


# ------------------------------------------------------------ cache isolation

def test_cached_stacks_are_read_only():
    for rep in (REP_C3, REP_C4, Representation((0, 1, 2))):
        stack = _point_projections(rep)
        assert stack.shape == (rep.n_points, rep.dim, rep.dim)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 5.0
        assert _point_projections(Representation(rep.point_of)) is stack  # keyed by value
    for dim in (2, 3, 4):
        assert not _hermitian_stack(dim).flags.writeable


def _results(t, phi):
    report = [(e.condition, e.residual) for e in check_all(t).entries]
    d = spectral_distance(t)
    fluct = fluctuate(t, selfadjoint_one_form(t, phi)).dirac
    return report, (d.value, d.norm_de, d.norm_twisted), fluct.tobytes()


@pytest.mark.parametrize("make", [
    lambda: build_c3(1, 1.5 - 0.5j),
    lambda: build_c4(-1, 2.0 + 1.0j, 0.5j, twist="perm"),
    lambda: build_conformal("c4", 1, 3.0, 4.0, rho=0.3, zeta=1.5),
])
def test_public_projections_are_fresh_and_writing_them_changes_nothing(make):
    t = make()
    before = _results(t, 0.25 + 0.5j)
    e = projection_e(t.rep)
    basis = t.algebra_basis()
    assert e.flags.writeable and all(b.flags.writeable for b in basis)
    assert same_bits(np.stack(basis), _point_projections(t.rep))
    e[...] = 7.0
    for b in basis:
        b[...] = -3.0
    assert same_bits(projection_e(t.rep), _point_projections(t.rep)[0])
    assert _results(t, 0.25 + 0.5j) == before


# ------------------------------------------------------ is_irreducible's D map

def _gradings(rep: Representation, rng) -> list:
    """None, the diagonal grading of rep's catalog shape (or diag(1, -1)), and a
    conjugate of it by a unitary inside each point block (off-diagonal entries)."""
    n = rep.dim
    diagonal = {2: np.diag([1.0, -1.0]), 3: GAMMA3, 4: GAMMA4}[n].astype(complex)
    u = np.zeros((n, n), dtype=complex)
    for p in range(rep.n_points):
        idx = [i for i in range(n) if rep.point_of[i] == p]
        q, _ = np.linalg.qr(rng.standard_normal((len(idx),) * 2) + 1j * rng.standard_normal((len(idx),) * 2))
        u[np.ix_(idx, idx)] = q
    return [None, diagonal, u @ diagonal @ u.conj().T]


@pytest.mark.parametrize("rep", [REP_C2, REP_C3, REP_C4], ids=["c2", "c3", "c4"])
def test_irreducibility_map_equals_the_commutation_operator_in_absolute_value_bitwise(rep):
    rng = np.random.default_rng(rep.dim)
    n, basis = rep.dim, _point_projections(rep)
    for g in _gradings(rep, rng):
        columns, gamma_rows, dirac_map = axioms._commutant_columns(
            rep.point_of, None if g is None else g.tobytes())
        assert dirac_map.shape == (len(basis) * n * n * len(columns), n * n)
        assert set(np.unique(dirac_map).tolist()) <= {-1, 0, 1}
        assert (np.count_nonzero(dirac_map, axis=1) <= 1).all()
        off_diagonal = g is not None and (g != np.diag(np.diagonal(g))).any()
        assert (gamma_rows is not None) == off_diagonal
        verdicts = []
        for scale in 10.0 ** np.arange(-12, 13, 3):
            d = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            d = d + d.conj().T
            gens = commutator(d, basis)
            want = _commutation_operator(gens)[:, columns]
            got = (dirac_map @ d.ravel()).reshape(want.shape)
            assert same_bits(np.abs([got.real, got.imag]), np.abs([want.real, want.imag])), scale
            if off_diagonal:
                rows = _commutation_operator(np.concatenate([g[None], gens]))[:, columns]
                assert same_bits(gamma_rows, rows[:n * n])
                want = rows
            s = np.linalg.svd(want, compute_uv=False)
            verdicts.append(is_irreducible(SpectralTriple(rep, d, grading=g)) == (len(columns) - _rank(s) == 1))
        assert all(verdicts)
