import numpy as np
import pytest

from twistriple.algebra import REP_C2
from twistriple.axioms import (
    RealStructure,
    SignTriple,
    SpectralTriple,
    Twist,
    check_all,
    check_epsilon_prime,
    check_grading,
    check_order_zero,
    check_twisted_order_one,
    check_twisted_regularity,
    is_irreducible,
    ko_dimension,
)
from twistriple.catalog import NU3_PERM, build_c3, build_c4
from twistriple.linalg import Antiunitary, ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12, rank_tol=1e-9)


def c2_triple(dirac, u=None, eps_prime=1, twist=None):
    real = None
    if u is not None:
        real = RealStructure(j=Antiunitary(u), signs=SignTriple(eps=1, eps_prime=eps_prime))
    return SpectralTriple(rep=REP_C2, dirac=np.asarray(dirac, dtype=complex),
                          real=real, twist=twist)


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.conj().T


# ------------------------------------------------------------ individual checks

def test_order_zero_c3_and_c4_catalog():
    assert check_order_zero(build_c3(1, 1.0 - 2.0j)).residual == 0.0
    assert check_order_zero(build_c4(1, 1.0 - 2.0j, 0.5 + 1.0j)).residual == 0.0


def test_order_zero_c2_identity_j():
    t = c2_triple(np.zeros((2, 2)), u=np.eye(2))
    assert check_order_zero(t).passed


def test_twisted_order_one_c4_catalog_any_parameters():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d1 = complex(rng.standard_normal(), rng.standard_normal())
        d2 = complex(rng.standard_normal(), rng.standard_normal())
        t = build_c4(-1, d1, d2, twist="perm")
        assert check_twisted_order_one(t, TOL12).passed


def test_involutive_twist_gives_identical_order_one_residual():
    rng = np.random.default_rng(2)
    d = random_hermitian(2, rng)
    untwisted = c2_triple(d, u=np.eye(2))
    twisted = c2_triple(d, u=np.eye(2),
                        twist=Twist(np.array([[0, 1], [1, 0]], dtype=complex),
                                    implements_algebra_automorphism=True))
    r1 = check_twisted_order_one(untwisted)
    r2 = check_twisted_order_one(twisted)
    assert r1.residual == r2.residual  # nu^2 = id exactly, so bitwise equality


def test_order_one_fails_on_c2_with_nonzero_calculus():
    rng = np.random.default_rng(3)
    d = random_hermitian(2, rng)
    assert abs(d[0, 1]) > 1e-3
    t = c2_triple(d, u=np.eye(2))
    entry = check_twisted_order_one(t)
    # J e J^-1 = e, and [[D,e], e] has off-diagonal blocks of [D,e]
    assert not entry.passed


@pytest.mark.parametrize("eps_prime", [1, -1])
def test_epsilon_prime_c3_untwisted(eps_prime):
    t = build_c3(eps_prime, 0.5 - 1.5j)
    assert check_epsilon_prime(t, TOL12).passed


def test_epsilon_prime_c3_perm_real_parameters():
    t = build_c3(1, 1.0, 2.0, twist="perm")
    assert check_epsilon_prime(t, TOL12).passed


def test_epsilon_prime_c4_perm():
    t = build_c4(1, 2.0 - 1.0j, 1.0 + 1.0j, twist="perm")
    assert check_epsilon_prime(t, TOL12).passed
    # d3 = d2, d4 = d1 layout
    assert t.dirac[0, 1] == t.dirac[1, 3]
    assert t.dirac[2, 3] == t.dirac[0, 2]


def test_twisted_regularity_c4_antidiagonal_passes():
    t = build_c4(1, 1.0, 1.0, twist="perm")
    assert check_twisted_regularity(t, TOL12).passed


def test_twisted_regularity_block_swap_fails():
    t = build_c4(1, 1.0, 1.0, twist="perm_bad")
    assert not check_twisted_regularity(t).passed


def test_twisted_regularity_vacuous_untwisted():
    t = build_c3(1, 1.0)
    entry = check_twisted_regularity(t)
    assert entry.residual == 0.0 and entry.passed


def test_grading_c3_catalog():
    entries = check_grading(build_c3(1, 1.0 - 1.0j), TOL12)
    assert all(e.passed for e in entries)


def test_grading_c4_catalog():
    entries = check_grading(build_c4(1, 1.0, 2.0, twist="perm"), TOL12)
    assert all(e.passed for e in entries)


def test_grading_fails_for_diagonal_dirac_entry():
    t = build_c3(1, 1.0)
    bad = t.with_dirac(t.dirac + np.diag([1.0, 0, 0]))
    entries = check_grading(bad)
    failing = [e.condition for e in entries if not e.passed]
    assert failing == ["grading_anticommutes_dirac"]


# ------------------------------------------------------------------- check_all

def test_check_all_catalog_triples_pass():
    for eps in (1, -1):
        assert check_all(build_c3(eps, 1.0 - 0.5j), TOL12).passed
        assert check_all(build_c4(eps, 1.0 - 0.5j, 0.25 + 1.0j), TOL12).passed


def test_check_all_perm_bad_fails_exactly_regularity():
    report = check_all(build_c4(1, 1.0, 1.0, twist="perm_bad"), TOL12)
    assert report.failing() == ["twisted_regularity"]


def test_check_all_reports_non_selfadjoint_dirac():
    t = build_c3(1, 1.0)
    bad = t.with_dirac(t.dirac + np.array([[0, 0, 1j], [0, 0, 0], [0, 0, 0]]))
    report = check_all(bad)
    assert "dirac_selfadjoint" in report.failing()


def test_check_all_invariant_under_basis_permutation():
    rng = np.random.default_rng(4)
    t = build_c4(1, 1.0 - 0.5j, 0.25 + 1.0j, twist="perm")
    perm = rng.permutation(4)
    p = np.eye(4)[perm].astype(complex)
    conjugated = SpectralTriple(
        rep=t.rep if np.array_equal(perm, np.arange(4)) else t.rep.__class__(
            tuple(t.rep.point_of[j] for j in perm)),
        dirac=p @ t.dirac @ p.conj().T,
        grading=p @ t.grading @ p.conj().T,
        real=RealStructure(j=Antiunitary(p @ t.real.j.u @ p.T), signs=t.real.signs),
        twist=Twist(p @ t.twist.nu @ p.conj().T, implements_algebra_automorphism=True),
    )
    before = check_all(t, TOL12)
    after = check_all(conjugated, TOL12)
    assert before.passed and after.passed


def test_twist_flag_false_requires_involution():
    t = build_c3(1, 1.0, 2.0, twist="perm")
    report = check_all(t, TOL12)
    assert report.entry("twist_involutive").passed
    # breaking the involution must be flagged
    broken = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, real=t.real,
                            twist=Twist(2.0 * NU3_PERM, implements_algebra_automorphism=False))
    assert "twist_involutive" in check_all(broken).failing()


def test_twist_automorphism_flag_checked():
    # the C3 swap does not preserve the represented algebra, so with the flag
    # set the report must fail on exactly that entry
    t = build_c3(1, 1.0, 2.0, twist="perm")
    relabelled = SpectralTriple(rep=t.rep, dirac=t.dirac, grading=t.grading, real=t.real,
                                twist=Twist(NU3_PERM, implements_algebra_automorphism=True))
    assert "twist_preserves_algebra" in check_all(relabelled).failing()
    t4 = build_c4(1, 1.0, 2.0, twist="perm")
    assert check_all(t4, TOL12).entry("twist_preserves_algebra").passed


# ---------------------------------------------------------------- KO dimension

@pytest.mark.parametrize("signs,expected", [
    (SignTriple(1, 1, 1), 0),
    (SignTriple(1, -1), 1),
    (SignTriple(-1, 1, -1), 2),
    (SignTriple(-1, 1), 3),
    (SignTriple(-1, 1, 1), 4),
    (SignTriple(-1, -1), 5),
    (SignTriple(1, 1, -1), 6),
    (SignTriple(1, 1), 7),
])
def test_ko_dimension_table(signs, expected):
    assert ko_dimension(signs) == expected


def test_ko_dimension_parity_matches_grading():
    for signs, n in [
        (SignTriple(1, 1, 1), 0), (SignTriple(-1, 1, -1), 2),
        (SignTriple(-1, 1, 1), 4), (SignTriple(1, 1, -1), 6),
    ]:
        assert ko_dimension(signs) % 2 == 0
    for signs in [SignTriple(1, -1), SignTriple(-1, 1), SignTriple(-1, -1), SignTriple(1, 1)]:
        assert ko_dimension(signs) % 2 == 1


def test_ko_dimension_rejects_absent_combination():
    with pytest.raises(ValueError):
        ko_dimension(SignTriple(1, -1, 1))


# -------------------------------------------------------------- irreducibility

def test_c2_with_nonzero_calculus_and_no_real_structure_is_irreducible():
    d = np.array([[0.5, 2.0], [2.0, -0.25]], dtype=complex)
    assert is_irreducible(c2_triple(d))


def test_zero_dirac_is_reducible():
    t = build_c3(1, 1.0).with_dirac(np.zeros((3, 3)))
    assert not is_irreducible(t)


def test_catalog_generators_leave_a_two_dimensional_commutant():
    # brute force (see test_linalg.brute_commutant_dim) gives dimension 2 for
    # the generator set {gamma, e, 1-e, [D, e]}: diag(a, b, a) commutes with
    # every generator, so the catalog triples are reducible in this sense.
    t = build_c3(1, 1.0 - 0.5j)
    assert not is_irreducible(t)
    t4 = build_c4(1, 1.0, 2.0)
    assert not is_irreducible(t4)


# ------------------------------------------------------- boundary validation

@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_constructors_reject_non_finite_entries(bad):
    # the kernels do not check finiteness, so every constructor must
    t = build_c3(1, 1.0, twist="perm")
    poisoned = t.dirac.copy()
    poisoned[0, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        t.with_dirac(poisoned)
    grading = t.grading.copy()
    grading[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SpectralTriple(rep=t.rep, dirac=t.dirac, grading=grading)
    nu = NU3_PERM.copy()
    nu[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Twist(nu, implements_algebra_automorphism=False)
    u = t.real.j.u.copy()
    u[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        Antiunitary(u)
