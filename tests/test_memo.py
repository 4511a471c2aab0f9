"""The memos of D-free work: check_all's residuals that read no nu and those
that read nu, identify_family's shape match, the document text before and
after D and the twist's text in documents.dumps, the parsed structure of a
known text in documents.loads, and check_all's order-one J-images.

Each memo is keyed by content (algebra._structure_key, or the text around
D), so a cold memo, a warm one and the unmemoized references must agree
bitwise.
"""

import json

from dataclasses import replace

import numpy as np
import pytest

from test_axioms import _reference_check_all
from test_documents import _reference_dumps, _triple_bits
from twistriple import algebra, axioms, catalog, documents
from twistriple.algebra import _Memo
from twistriple.axioms import check_all
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_UNTWISTED,
    build_c4,
    build_c4_perm_conformal_composite,
    build_family,
    identify_family,
)
from twistriple.documents import dumps, from_document, loads
from twistriple.linalg import DEFAULT_TOL, ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)
MEMOS = ((axioms, "_NU_FREE_RESIDUALS"), (axioms, "_TWIST_RESIDUALS"),
         (catalog, "_SHAPE_MATCHES"), (documents, "_TEMPLATES"), (documents, "_TWIST_TEXTS"),
         (documents, "_PARSED"), (axioms, "_J_IMAGES"))


@pytest.fixture
def cold(monkeypatch):
    """Empty memos for the test; returns them as (check_all without nu, check_all
    with nu, identify_family, dumps' templates, dumps' twist texts, loads,
    check_all's J-images)."""
    memos = []
    for module, name in MEMOS:
        memos.append(_Memo())
        monkeypatch.setattr(module, name, memos[-1])
    return tuple(memos)


def _member(kind, eps, rng):
    """A random member of a family or fixture; members of one kind and eps share their structure."""
    d1, d2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    if kind == C3_PERM:  # conj(d) = eps' d
        unit = 1.0 if eps == 1 else 1j
        return build_family(kind, eps, unit * d1.real, unit * d2.real)
    if kind in (C3_CONFORMAL, C4_CONFORMAL):
        return build_family(kind, eps, d1, None if kind == C3_CONFORMAL else d2, rho=0.3, zeta=1.4)
    if kind == "perm_bad":
        return build_c4(1, d1, twist="perm_bad")
    if kind == "perm_conformal":
        return build_c4_perm_conformal_composite(eps, d1, d2, rho=0.2, zeta=1.1)
    return build_family(kind, eps, d1, None if kind == C3_UNTWISTED else d2)


KINDS = [(k, e) for k in (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C3_CONFORMAL, C4_CONFORMAL,
                          "perm_conformal") for e in (1, -1)] + [("perm_bad", 1)]


def _bits(report):
    return [(e.condition, e.residual.hex(), e.tol_used) for e in report.entries]


def _reference_bits(t, tol):
    return [(c, float(r).hex(), used) for c, r, used in _reference_check_all(t, tol)]


@pytest.mark.parametrize("case", range(len(KINDS)))
def test_cold_and_warm_memos_match_the_references(case, cold):
    kind, eps = KINDS[case]
    rng = np.random.default_rng(case)
    first, second = _member(kind, eps, rng), _member(kind, eps, rng)
    assert algebra._structure_key(first) == algebra._structure_key(second)
    results = []
    for t in (first, second, second):  # cold, then warm with another D, then warm with the same D
        for tol in (DEFAULT_TOL, TOL12):
            assert _bits(check_all(t, tol)) == _reference_bits(t, tol)
        text = dumps(t)
        assert text == _reference_dumps(t)
        assert _triple_bits(loads(text)) == _triple_bits(from_document(json.loads(text)))
        results.append((identify_family(t), text))
    assert results[1] == results[2]
    assert all(len(memo) > 0 for memo in cold)
    # the warm identify_family result equals a cold one
    for memo in cold:
        memo._entries.clear()
    assert identify_family(second) == results[1][0]
    want = None if kind in ("perm_bad", "perm_conformal") else kind
    assert (results[0][0] or (None,))[0] == want


def test_memo_keeps_residuals_and_applies_each_calls_tol(cold):
    t = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    t = replace(t, grading=t.grading + 1e-10 * np.eye(4)[::-1])  # grading_selfadjoint stays 0
    for tol in (DEFAULT_TOL, TOL12, DEFAULT_TOL):
        report = check_all(t, tol)
        assert _bits(report) == _reference_bits(t, tol)
        assert report.entry("grading_squares_to_identity").passed == (tol is DEFAULT_TOL)
    assert len(cold[0]) == len(cold[1]) == 1
    # identify_family's match depends on tol, so tol is part of its key
    for tol in (DEFAULT_TOL, TOL12, DEFAULT_TOL):
        assert (identify_family(t, tol) is None) == (tol is TOL12)
    assert len(cold[2]) == 2


def test_editing_a_checked_grading_in_place_gives_the_new_residual(cold):
    t = build_family(C4_UNTWISTED, -1, 2.0 + 1j, 0.5 - 1j)
    t = replace(t, grading=t.grading.copy())
    assert check_all(t).passed
    before = dumps(t)
    t.grading[3, 3] = 2.0
    report = check_all(t)
    assert _bits(report) == _reference_bits(t, DEFAULT_TOL)
    assert "grading_squares_to_identity" in report.failing()
    assert dumps(t) == _reference_dumps(t) != before
    assert identify_family(t) is None


def test_a_new_twist_computes_only_the_terms_that_read_nu(cold, monkeypatch):
    calls = []
    for name in ("_nu_free_terms", "_twist_terms"):
        def counted(t, basis, _name=name, _terms=getattr(axioms, name)):
            calls.append(_name)
            return _terms(t, basis)
        monkeypatch.setattr(axioms, name, counted)
    for rho in (0.2, 0.3, 0.3):
        t = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=rho)
        assert _bits(check_all(t)) == _reference_bits(t, DEFAULT_TOL)
    assert calls == ["_nu_free_terms", "_twist_terms", "_twist_terms"]


def test_catalog_matrices_are_read_only():
    t = build_family(C4_PERM, 1, 1.0, 2.0)
    for m in (t.grading, t.nu):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
    assert t.grading is catalog.GAMMA4 and t.nu is catalog.NU4_PERM
    assert catalog.GAMMA4[0, 0] == 1.0 and catalog.NU4_PERM[0, 0] == 0.0
    assert t.real.j.u.flags.writeable  # U is the member's own copy


@pytest.mark.parametrize("kind", [C4_UNTWISTED, C4_CONFORMAL])
def test_memoized_j_images_and_columns_are_read_only(kind, cold):
    t = build_family(kind, 1, 1.0, 2.0, **({"rho": 0.3} if kind == C4_CONFORMAL else {}))
    check_all(t)
    images = cold[6].get(algebra._structure_key(t))
    columns, gamma_generates = axioms._commutant_columns(t.rep.point_of, t.grading.tobytes())
    assert len(images) == 2 and not gamma_generates
    for m in (*images, columns):
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1


def test_memos_never_hold_more_than_their_bound(cold):
    rhos = np.linspace(0.05, 0.95, algebra._MEMO_BOUND + 40)
    for rho in rhos:  # every rho is a new twist, so a new key in each memo
        t = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=float(rho))
        check_all(t)
        identify_family(t)
        loads(dumps(t))
        assert all(len(memo) <= algebra._MEMO_BOUND for memo in cold)
    # the residuals that read no nu, the text around D and its parse are one key for every rho
    bound = algebra._MEMO_BOUND
    assert [len(memo) for memo in cold] == [1, bound, bound, 1, bound, 1, bound]
    # the oldest keys were dropped, the newest kept
    first = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=float(rhos[0]))
    last = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=float(rhos[-1]))
    assert cold[1].get(algebra._structure_key(first)) is None
    assert cold[1].get(algebra._structure_key(last)) is not None


def test_a_recently_used_key_survives_new_ones():
    memo = _Memo()
    memo.put("kept", 1)
    for k in range(algebra._MEMO_BOUND):
        assert memo.get("kept") == 1
        memo.put(k, k)
    assert len(memo) == algebra._MEMO_BOUND and memo.get("kept") == 1 and memo.get(0) is None
