import numpy as np
import pytest

from twistriple.algebra import (
    REP_C2,
    REP_C3,
    REP_C4,
    Representation,
    check_bimodule_relation,
    embed,
    permute,
    projection_e,
)
from twistriple.linalg import commutator


def test_embed_c3_projection():
    assert np.array_equal(embed(REP_C3, (1, 0)), np.diag([1.0, 1.0, 0.0]))


def test_embed_unit_is_identity():
    for rep in (REP_C2, REP_C3, REP_C4):
        assert np.array_equal(embed(rep, (1,) * rep.n_points), np.eye(rep.dim))


def test_embed_c4_general_element():
    cp, cm = 2.0 - 1.0j, 0.5 + 0.5j
    assert np.array_equal(embed(REP_C4, (cp, cm)), np.diag([cp, cp, cm, cm]))


def test_embed_size_mismatch():
    with pytest.raises(ValueError):
        embed(REP_C3, (1, 0, 0))


def test_embed_is_star_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ma, mb = embed(REP_C4, a), embed(REP_C4, b)
        assert np.allclose(embed(REP_C4, a * b), ma @ mb)
        assert np.allclose(embed(REP_C4, np.conj(a)), ma.conj().T)


def test_embed_decomposes_over_projection():
    cp, cm = 1.5 + 0.25j, -2.0j
    e = projection_e(REP_C3)
    one = np.eye(3)
    assert np.allclose(embed(REP_C3, (cp, cm)), cp * e + cm * (one - e))


@pytest.mark.parametrize("rep,expected", [
    (REP_C2, [1.0, 0.0]),
    (REP_C3, [1.0, 1.0, 0.0]),
    (REP_C4, [1.0, 1.0, 0.0, 0.0]),
])
def test_projection_e(rep, expected):
    e = projection_e(rep)
    assert np.array_equal(e, np.diag(expected))
    assert np.array_equal(e @ e, e)
    assert np.array_equal(e, e.conj().T)


def test_projection_needs_two_points():
    from twistriple.axioms import SpectralTriple
    from twistriple.distance import distance_bruteforce, spectral_distance
    from twistriple.forms import one_form

    rep = Representation((0, 1, 2))
    t = SpectralTriple(rep=rep, dirac=np.zeros((3, 3)))
    message = "^projection e is defined for two-point algebras only$"
    for call in (lambda: projection_e(rep), lambda: spectral_distance(t),
                 lambda: distance_bruteforce(t, 10, 0), lambda: one_form(t, 1.0, 0.0),
                 lambda: check_bimodule_relation(rep, t.dirac)):
        with pytest.raises(ValueError, match=message):
            call()


def test_commutator_linearity_in_element():
    # [D, a] = (c_+ - c_-) [D, e] for every Hermitian D
    rng = np.random.default_rng(6)
    for rep in (REP_C2, REP_C3, REP_C4):
        m = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
        d = m + m.conj().T
        cp, cm = complex(1.2, -0.7), complex(-0.3, 0.9)
        e = projection_e(rep)
        assert np.allclose(commutator(d, embed(rep, (cp, cm))), (cp - cm) * commutator(d, e))


def test_bimodule_relation_c3_catalog_shape():
    d = np.array([[0, 2.0, 1.0 - 1.0j], [2.0, 0, 0], [1.0 + 1.0j, 0, 0]], dtype=complex)
    assert check_bimodule_relation(REP_C3, d)


def test_bimodule_relation_rejects_non_finite_dirac():
    d = np.zeros((3, 3), dtype=complex)
    d[0, 2] = d[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        check_bimodule_relation(REP_C3, d)


def test_bimodule_relation_trivial_for_projection():
    assert check_bimodule_relation(REP_C3, projection_e(REP_C3))


def test_bimodule_relation_random_hermitian_c2():
    # expanding e[D,e] and [D,e](1-e) entrywise: both pick the upper hop of D
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d = m + m.conj().T
        assert check_bimodule_relation(REP_C2, d)
        e = projection_e(REP_C2)
        de = commutator(d, e)
        upper = np.zeros((2, 2), dtype=complex)
        upper[0, 1] = -d[0, 1]
        assert np.allclose(e @ de, upper)
        assert np.allclose(de @ (np.eye(2) - e), upper)


def test_permute_swap():
    assert permute(REP_C3, (1, 0), (1.0, 0.0)) == (0.0, 1.0)


def test_permute_identity():
    values = (1.25 + 1.0j, -0.5)
    assert permute(REP_C4, (0, 1), values) == values


def test_permute_is_involutive():
    values = (2.0 - 1.0j, 0.125)
    once = permute(REP_C2, (1, 0), values)
    assert permute(REP_C2, (1, 0), once) == values


def test_permute_rejects_non_bijection():
    # a float index is not truncated to a bijection, nor a bool read as 0 or 1
    for perm in ((0, 0), (1.9, 0.2), (True, False), (1, False)):
        with pytest.raises(ValueError):
            permute(REP_C2, perm, (1.0, 2.0))


def test_representation_requires_faithfulness():
    with pytest.raises(ValueError):
        Representation((0, 0, 2))


@pytest.mark.parametrize("point_of", [(0, 0, 1.7), ("0", "0", "1"), (0.0, 1.0), (0, None),
                                      (False, True), (0, 0, True)])
def test_representation_accepts_only_integers(point_of):
    with pytest.raises(ValueError, match="point indices must be integers"):
        Representation(point_of)
    assert Representation((np.int64(0), np.int32(1))).point_of == (0, 1)


def test_fixes_points_is_the_exact_commutation_with_every_point_projection():
    # no nonzero entry between two points iff m b == b m for every projection b,
    # whose products are exact (b's entries are 0 and 1); -0.0 counts as zero
    from twistriple.algebra import _fixes_points, _point_projections

    rng = np.random.default_rng(5)
    for point_of in [(0, 1), (0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 2, 1)]:
        rep = Representation(point_of)
        basis = _point_projections(rep)
        p = np.asarray(point_of)
        for _ in range(40):
            m = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
            m[(p[:, None] != p[None, :]) & (rng.random((rep.dim, rep.dim)) < 0.9)] = -0.0
            commutes = bool((m @ basis == basis @ m).all())
            assert _fixes_points(m, rep) == commutes
            inverse = np.linalg.inv(m)
            assert _fixes_points(m, rep, inverse) == commutes
            assert not _fixes_points(m, rep, np.full_like(inverse, np.inf))
