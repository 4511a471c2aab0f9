import mpmath
import numpy as np
import pytest

from twistriple import linalg
from twistriple.linalg import (
    Antiunitary,
    _commutation_operator,
    _exceeds,
    ToleranceConfig,
    commutant_dimension,
    commutator,
    coords_from_hermitian,
    hermitian_basis,
    hermitian_from_coords,
    operator_norm,
    operator_norms,
    solve_linear_family,
)

RNG = np.random.default_rng(20240811)


def random_complex_matrix(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n, rng=RNG):
    q, r = np.linalg.qr(random_complex_matrix(n, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- commutator

def test_commutator_with_identity_vanishes():
    m = random_complex_matrix(4)
    assert np.allclose(commutator(m, np.eye(4)), 0.0)


def test_self_commutator_vanishes():
    e = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert np.array_equal(commutator(e, e), np.zeros((3, 3)))


def test_commutator_c3_dirac_with_projection():
    # the C3 Dirac against e = diag(1,1,0): only the (0,2)/(2,0) hop survives
    d1, d2 = 1.5 - 0.5j, 0.75 + 2.0j
    d = np.array([[0, d2, d1], [np.conj(d2), 0, 0], [np.conj(d1), 0, 0]], dtype=complex)
    e = np.diag([1.0, 1.0, 0.0]).astype(complex)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 2] = -d1
    expected[2, 0] = np.conj(d1)
    assert np.allclose(commutator(d, e), expected)


def test_commutator_dimension_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


# -------------------------------------------------------------- operator norm

def test_operator_norm_identity():
    assert operator_norm(np.eye(3)) == pytest.approx(1.0)


def test_operator_norm_c4_commutator_is_max_entry():
    d1, d2 = 3.0, 4.0
    m = np.zeros((4, 4), dtype=complex)
    m[0, 2] = -d1
    m[2, 0] = d1
    m[1, 3] = -d2
    m[3, 1] = d2
    assert operator_norm(m) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_against_mpmath_oracle():
    # independent oracle: pure-Python singular values at 30 digits, no LAPACK
    rng = np.random.default_rng(7)
    with mpmath.workdps(30):
        for n in (1, 2, 3, 4, 6, 8):
            for _ in range(25):
                m = random_complex_matrix(n, rng)
                sv = mpmath.svd_c(mpmath.matrix(m.tolist()), compute_uv=False)
                expected = float(max(sv[i] for i in range(n)))
                assert operator_norm(m) == pytest.approx(expected, abs=1e-9)


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = random_complex_matrix(4, rng)
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), abs=1e-9)


def test_operator_norm_adjoint_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_complex_matrix(5, rng)
        assert operator_norm(m) == pytest.approx(operator_norm(m.conj().T), abs=1e-9)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((4, 4))) == 0.0


# ------------------------------------------------------------ residual test

def _residual_stacks(n, dtype, rng):
    """Residual stacks (..., n, n): one matrix, a stack with a zero matrix, a 2-axis stack."""
    def draw(*shape):
        m = rng.standard_normal(shape + (n, n))
        if dtype is complex:
            m = m + 1j * rng.standard_normal(shape + (n, n))
        return m
    with_zero = draw(3)
    with_zero[1] = 0.0
    return [draw(), with_zero, draw(2, 3)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", range(1, 5))
def test_exceeds_is_the_max_norm_against_the_scaled_bound_bitwise(n, dtype):
    rng = np.random.default_rng(100 * n + (dtype is complex))
    exponents = range(-300, 301, 75)
    for r0 in _residual_stacks(n, dtype, rng):
        s0 = _residual_stacks(n, dtype, rng)[0]
        for e_r in exponents:
            r = r0 * 10.0 ** e_r
            norm = float(operator_norms(r).max())
            for scale in [None] + [s0 * 10.0 ** e_s for e_s in exponents]:
                factor = 1.0 if scale is None else 1.0 + operator_norm(scale)
                at = norm / factor
                for tol in (np.nextafter(at, -np.inf), at, np.nextafter(at, np.inf)):
                    want = norm if norm > tol * factor else 0.0
                    got = _exceeds(r, float(tol), scale)
                    assert type(got) is float and got == want, (n, e_r, scale is None, tol)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", range(1, 5))
def test_exceeds_takes_no_norm_of_a_zero_residual(n, dtype, monkeypatch):
    def no_norm(stack):
        raise AssertionError("a norm was taken")

    monkeypatch.setattr(linalg, "operator_norms", no_norm)
    scale = np.ones((n, n), dtype=dtype)
    negative_zero = np.full((2, 3, n, n), dtype(-0.0 if dtype is float else complex(-0.0, -0.0)))
    assert np.signbit(negative_zero.view(float)).all()
    for r in (np.zeros((n, n), dtype), np.zeros((3, n, n), dtype), negative_zero, negative_zero[0, 0]):
        for tol in (0.0, 1e-300, 1.0):
            assert _exceeds(r, tol) == 0.0 and _exceeds(r, tol, scale) == 0.0


def test_exceeds_fails_a_nan_norm_wherever_it_sits_in_the_stack():
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = np.inf  # the SVD gives a NaN norm
    good = np.eye(3, dtype=complex)
    for r in (bad, np.stack([good, bad]), np.stack([bad, good])):
        for scale in (None, good):
            assert np.isnan(_exceeds(r, 1e300, scale))
    assert _exceeds(good, 1e300, bad) == 1.0  # a NaN bound passes nothing


# --------------------------------------------------- antiunitary conjugation

def test_conj_by_identity_fixes_real_matrices():
    j = Antiunitary(np.eye(3))
    m = RNG.standard_normal((3, 3)).astype(complex)
    assert np.allclose(j.conjugate(m), m)


def test_conj_by_c3_swap():
    u = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    j = Antiunitary(u)
    cp, cm = 1.0 + 2.0j, -0.5 + 0.25j
    a = np.diag([cp, cp, cm]).astype(complex)
    assert np.allclose(j.conjugate(a),
                       np.diag([np.conj(cp), np.conj(cm), np.conj(cp)]))
    astar = a.conj().T
    assert np.allclose(j.conjugate(astar), np.diag([cp, cm, cp]))


def test_conj_by_c4_swap_on_projection():
    u = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    # by hand: U conj(e) U^-1 permutes diagonal slots 1 and 2
    assert np.allclose(Antiunitary(u).conjugate(e), np.diag([1.0, 0.0, 1.0, 0.0]))


def test_conj_is_multiplicative():
    rng = np.random.default_rng(10)
    u = random_unitary(4, rng)
    j = Antiunitary(u)
    m = random_complex_matrix(4, rng)
    n = random_complex_matrix(4, rng)
    assert np.allclose(j.conjugate(m @ n),
                       j.conjugate(m) @ j.conjugate(n))


def test_antiunitary_squared_sign():
    swap = Antiunitary(np.array([[0, 1], [1, 0]], dtype=complex))
    eps, res = swap.squared_sign()
    assert (eps, res) == (1, pytest.approx(0.0))
    anti = Antiunitary(np.array([[0, 1], [-1, 0]], dtype=complex))
    eps, res = anti.squared_sign()
    assert eps == -1 and res == pytest.approx(0.0)


# ------------------------------------------------------- commutant dimension

def brute_commutant_dim(gens):
    """Row-reduce the real linear system [X, G] = 0 over (re X, im X)."""
    n = gens[0].shape[0]
    rows = []
    for g in gens:
        for i in range(n):
            for j in range(n):
                coef = np.zeros((n, n), dtype=complex)
                for k in range(n):
                    coef[i, k] += g[k, j]
                    coef[k, j] -= g[i, k]
                flat = coef.ravel()
                rows.append(np.concatenate([flat.real, -flat.imag]))
                rows.append(np.concatenate([flat.imag, flat.real]))
    a = np.array(rows)
    rank = np.linalg.matrix_rank(a, tol=1e-9)
    return (2 * n * n - rank) // 2


def test_commutant_identity_is_everything():
    assert commutant_dimension([np.eye(2)]) == 4


def test_commutant_projection_plus_swap():
    gens = [np.diag([1.0, 0.0]).astype(complex),
            np.array([[0, 1], [1, 0]], dtype=complex)]
    assert brute_commutant_dim(gens) == 1
    assert commutant_dimension(gens) == 1


def test_commutant_of_diagonal_algebra_is_itself():
    gens = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert commutant_dimension(gens) == 2


def test_commutant_full_matrix_algebra_is_scalars():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        gens = [random_complex_matrix(n, rng) for _ in range(2)]
        # two generic matrices generate M_n; their commutant should be scalars
        assert commutant_dimension(gens) == 1
        assert brute_commutant_dim(gens) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_commutation_operator_equals_kron_reference_bitwise(n):
    rng = np.random.default_rng(100 + n)
    eye = np.eye(n, dtype=complex)
    for k in range(1, 7):
        gens = [random_complex_matrix(n, rng) for _ in range(k)]
        gens[0][0, 0] = complex(-0.0, 0.0)  # signed zeros must come out the same too
        want = np.vstack([np.kron(eye, g) - np.kron(g.T, eye) for g in gens])
        got = _commutation_operator(np.stack(gens))
        assert got.shape == want.shape == (k * n * n, n * n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_commutant_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        commutant_dimension([])


# ------------------------------------------------------- linear family solve

def test_family_gamma_anticommutation_c3():
    gamma = np.diag([1.0, -1.0, -1.0]).astype(complex)
    fam = solve_linear_family([lambda d: gamma @ d + d @ gamma], 3)
    assert len(fam) == 4
    for b in fam:
        assert np.linalg.norm(gamma @ b + b @ gamma) < 1e-9
        assert np.linalg.norm(b - b.conj().T) < 1e-12


def test_family_no_constraints_is_full_hermitian_space():
    fam = solve_linear_family([], 3)
    assert len(fam) == 9


def test_family_c4_untwisted_reality():
    gamma = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    u = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    eps = 1

    def eps_cond(d):
        return d @ u - eps * u @ np.conj(d)

    fam = solve_linear_family([lambda d: gamma @ d + d @ gamma, eps_cond], 4)
    assert len(fam) == 4
    for b in fam:
        assert abs(b[0, 1] - eps * np.conj(b[0, 2])) < 1e-9
        assert abs(b[2, 3] - eps * np.conj(b[1, 3])) < 1e-9


def test_family_members_independent_and_orthonormal():
    gamma = np.diag([1.0, -1.0, -1.0]).astype(complex)
    fam = solve_linear_family([lambda d: gamma @ d + d @ gamma], 3)
    coords = np.array([coords_from_hermitian(b) for b in fam])
    assert np.allclose(coords @ coords.T, np.eye(len(fam)), atol=1e-12)


def test_family_solver_is_deterministic():
    gamma = np.diag([1.0, -1.0, -1.0]).astype(complex)
    fam1 = solve_linear_family([lambda d: gamma @ d + d @ gamma], 3)
    fam2 = solve_linear_family([lambda d: gamma @ d + d @ gamma], 3)
    for b1, b2 in zip(fam1, fam2):
        assert np.array_equal(b1, b2)


def test_hermitian_coords_round_trip():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        m = random_complex_matrix(n, rng)
        h = m + m.conj().T
        assert np.allclose(hermitian_from_coords(coords_from_hermitian(h), n), h)
    basis = hermitian_basis(3)
    assert len(basis) == 9


def test_tolerance_config_rejects_negative():
    with pytest.raises(ValueError):
        ToleranceConfig(abs_tol=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_tolerance_config_rejects_non_finite(value):
    with pytest.raises(ValueError):
        ToleranceConfig(abs_tol=value)


def test_tolerance_config_has_no_rank_tol():
    # rank decisions use the fixed RANK_TOL; only the residual tolerance is a setting
    with pytest.raises(TypeError):
        ToleranceConfig(rank_tol=1e-9)


def test_exceeds_gives_a_non_finite_residual_a_nan_norm_without_the_svd():
    # an overflowed difference (inf) or an inf - inf (NaN) exceeds every bound;
    # the SVD would raise on the NaN one
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.nan)):
        r = np.eye(3, dtype=complex)
        r[1, 2] = bad
        for scale in (None, np.eye(3)):
            assert np.isnan(_exceeds(r, 1e300, scale))
            assert np.isnan(_exceeds(np.stack([np.zeros((3, 3)), r]), 1e300, scale))
