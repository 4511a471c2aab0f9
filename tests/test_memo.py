"""The memo of D-free work, algebra._memo: one record per content key.

check_all keeps its entries that read no nu, as "entries" with the abs_tol
they were made at, and the map L of its D-linear terms with the plain
J-images, in the record of algebra._structure_key's first part; its entries
that read nu, the map this twist uses (that same L, unless nu^2 moves the
point projections) and the two D-free factors of epsilon', in that of the
whole key. identify_family keeps its shape match per tol in the whole key's
record. documents.dumps keeps the text before and after D under the first
part, the twist's text and its parse ("twist") under the second part, and
the structure that loads reuses in the record of the text around D; loads
gives a text that dumps did not render no record.

Every key is a content key, so a cold memo, a warm one and the unmemoized
references must agree bitwise: test_axioms' reference with the exact twist
rule, and within test_oracle's band on the one dense grading below.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from test_axioms import _assert_within_the_band, _reference_check_all
from test_documents import _reference_dumps, _reference_loads, _triple_bits
from twistriple import algebra, axioms, catalog, documents
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
from twistriple.conformal import ConformalFactor, rescale
from twistriple.distance import distance_bruteforce, spectral_distance
from twistriple.documents import dumps, from_document, loads
from twistriple.linalg import DEFAULT_TOL, ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)
TOL0 = ToleranceConfig(abs_tol=0.0)


@pytest.fixture
def cold():
    """An empty memo for the test, emptied again after it."""
    algebra._memo.cache_clear()
    yield
    algebra._memo.cache_clear()


def _records(t, text):
    """The records of t's structure key's first part, of its whole key, of its second part
    and of the text around D."""
    key = algebra._structure_key(t)
    return (algebra._memo(key[0]), algebra._memo(key), algebra._memo(key[1]),
            algebra._memo(documents._split(text)[0::2]))


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
    return [(c, float(r).hex(), used) for c, r, used in _reference_check_all(t, tol, exact_twists=True)]


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
    nu_free, whole, twist, parsed = _records(second, results[2][1])
    assert set(nu_free) == {"entries", "template", "dirac_map"}
    assert set(whole) == {"entries", "dirac_operands", ("shape", DEFAULT_TOL)}
    # the entries of the last tol a call used
    assert nu_free["entries"][0] == whole["entries"][0] == TOL12.abs_tol.hex()
    # only a twist whose nu^2 moves the point projections keeps a map of its own
    assert whole["dirac_operands"][0] is nu_free["dirac_map"]
    # dumps keeps a twist's parse under its text for loads
    twisted = kind not in (C3_UNTWISTED, C4_UNTWISTED)
    assert set(twist) == {"twist_text"} | ({"twist"} if twisted else set()) and set(parsed) == {"structure"}
    # the warm identify_family result equals a cold one
    algebra._memo.cache_clear()
    assert identify_family(second) == results[1][0]
    want = None if kind in ("perm_bad", "perm_conformal") else kind
    assert (results[0][0] or (None,))[0] == want


def test_memo_keeps_residuals_and_applies_each_calls_tol(cold):
    t = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    t = replace(t, grading=t.grading + 1e-10 * np.eye(4)[::-1])  # grading_selfadjoint stays 0
    for tol in (DEFAULT_TOL, TOL12, DEFAULT_TOL):
        report = check_all(t, tol)
        got = [(e.condition, e.residual, e.tol_used) for e in report.entries]
        want = _reference_check_all(t, tol, exact_twists=True)
        # the grading has off-diagonal entries, whose products the D map sums in
        # another order than gamma D + D gamma: that residual lies within the band
        assert got[:4] + got[5:] == want[:4] + want[5:] and got[4][0] == "grading_anticommutes_dirac"
        _assert_within_the_band(t, got, want)
        assert report.entry("grading_squares_to_identity").passed == (tol is DEFAULT_TOL)
    assert algebra._memo.cache_info().currsize == 2  # the first part of the key and the whole key
    # identify_family's match depends on tol, so tol is part of its entry's name
    for tol in (DEFAULT_TOL, TOL12, DEFAULT_TOL):
        assert (identify_family(t, tol) is None) == (tol is TOL12)
    assert algebra._memo.cache_info().currsize == 2
    whole = algebra._memo(algebra._structure_key(t))
    assert {name for name in whole if isinstance(name, tuple)} == {("shape", DEFAULT_TOL), ("shape", TOL12)}


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
def test_memoized_maps_and_columns_are_read_only(kind, cold):
    t = build_family(kind, 1, 1.0, 2.0, **({"rho": 0.3} if kind == C4_CONFORMAL else {}))
    check_all(t)
    key = algebra._structure_key(t)
    dirac_map = algebra._memo(key[0])["dirac_map"]
    operands = algebra._memo(key)["dirac_operands"]
    assert operands[0] is dirac_map and len(operands) == 3  # nu^2 fixes the points, or there is no twist
    columns, gamma_rows, commutant_map = axioms._commutant_columns(t.rep.point_of, t.grading.tobytes())
    assert gamma_rows is None
    for m in (*operands, columns, commutant_map):
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1
    # a twist whose nu^2 moves the point projections keeps its own map, read-only too
    moved = replace(t, twist=axioms.Twist(t.nu + 0.1 * np.eye(4)[::-1]))
    check_all(moved)
    own = algebra._memo(algebra._structure_key(moved))["dirac_operands"]
    assert own[0] is not dirac_map and own[0].shape == dirac_map.shape
    for m in own:
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1
    # a grading with an off-diagonal entry keeps its own rows, read-only too
    v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gamma = np.kron(np.eye(2), v) @ t.grading @ np.kron(np.eye(2), v)
    assert gamma.any() and (gamma != np.diag(np.diagonal(gamma))).any()
    _, gamma_rows, commutant_map = axioms._commutant_columns(t.rep.point_of, gamma.astype(complex).tobytes())
    for m in (gamma_rows, commutant_map):
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1


def test_the_memo_never_holds_more_than_its_bound(cold):
    rhos = np.linspace(0.05, 0.95, algebra._MEMO_BOUND + 40)
    kept = None
    for rho in rhos:  # every rho is a new twist, so a new whole key
        t = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=float(rho))
        check_all(t)
        identify_family(t)
        text = dumps(t)
        loads(text)
        assert algebra._memo.cache_info().currsize <= algebra._MEMO_BOUND
        if kept is None:
            # no strong reference to the twist's record, which would keep it in _RENDERED
            kept, first_twist = _records(t, text)[0::3], documents._split(text)[3]
    assert algebra._memo.cache_info().currsize == algebra._MEMO_BOUND
    # the entries that read no nu, the text around D and its parse are one key for every
    # rho, used by every call, so their records survive all of them
    nu_free, _, _, parsed = _records(t, text)
    assert nu_free is kept[0] and parsed is kept[1]
    assert set(nu_free) == {"entries", "template", "dirac_map"} and set(parsed) == {"structure"}
    # the newest whole key and twist were kept, the oldest dropped
    assert documents._split(text)[3] in documents._RENDERED and first_twist not in documents._RENDERED
    first = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=float(rhos[0]))
    last = build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=float(rhos[-1]))
    assert "entries" in algebra._memo(algebra._structure_key(last))
    assert algebra._memo(algebra._structure_key(first)) == {}


def test_loads_gives_a_text_that_dumps_did_not_render_no_record(cold):
    # re-indented copies of a document parse in full and leave the memo as it was,
    # so the canonical text keeps the structure its dumps kept
    text = dumps(build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j))
    assert algebra._memo.cache_info().currsize == 3  # the key's two parts and the text around D
    doc = json.loads(text)
    for k in range(300):
        copy = json.dumps(doc, indent=k % 7 + 3, sort_keys=bool(k % 2)) + "\n"
        assert copy != text and _triple_bits(loads(copy)) == _triple_bits(loads(text))
    assert algebra._memo.cache_info().currsize == 3
    assert "structure" in algebra._memo(documents._split(text)[0::2])
    # a record the memo dropped takes its text out of documents' index with it
    algebra._memo.cache_clear()
    assert documents._split(text)[0::2] not in documents._RENDERED
    assert _triple_bits(loads(text)) == _triple_bits(from_document(doc))
    assert algebra._memo.cache_info().currsize == 0


def test_a_recently_used_key_survives_new_ones(cold):
    kept = algebra._memo("kept")
    kept["entry"] = 1
    records = []
    for k in range(algebra._MEMO_BOUND):
        assert algebra._memo("kept") is kept
        records.append(algebra._memo(k))
    assert algebra._memo.cache_info().currsize == algebra._MEMO_BOUND
    assert algebra._memo("kept") is kept and kept == {"entry": 1}
    assert algebra._memo(1) is records[1] and algebra._memo(0) is not records[0]


def _outputs(t):
    """What check_all at three tolerances, identify_family, dumps and loads give for t."""
    text = dumps(t)
    return (_bits(check_all(t)), _bits(check_all(t, TOL12)), _bits(check_all(t, TOL0)),
            repr(identify_family(t)), text, _triple_bits(loads(text)))


def test_concurrent_calls_match_the_single_threaded_references(cold):
    rng = np.random.default_rng(7)
    shared = [_member(kind, eps, rng) for kind, eps in KINDS]
    fresh = [build_family(C4_CONFORMAL, 1, 1.0 + k, 2.0, rho=float(rho)) if k % 2
             else build_family(C3_CONFORMAL, -1, 1.0 + k, None, rho=float(rho))
             for k, rho in enumerate(rng.uniform(0.1, 0.9, 12))]
    triples = shared + fresh
    matches = [repr(identify_family(t)) for t in triples]
    want = []
    for t, match in zip(triples, matches):
        text = _reference_dumps(t)
        want.append((_reference_bits(t, DEFAULT_TOL), _reference_bits(t, TOL12), _reference_bits(t, TOL0),
                     match, text, _triple_bits(_reference_loads(text))))

    def run(order, start):
        start.wait(timeout=60)
        return [_outputs(triples[i]) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they meet inside the memo
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):  # from a cold memo, the four threads take the same items at once
                algebra._memo.cache_clear()
                order = rng.permutation(len(triples))
                start = threading.Barrier(4)
                for got in pool.map(run, [order] * 4, [start] * 4):
                    assert got == [want[i] for i in order]
    finally:
        sys.setswitchinterval(interval)


# ------------------------------------------------------------ kept check entries

def _hex_bits(report):
    return [(e.condition, e.residual.hex(), e.tol_used.hex()) for e in report.entries]


def _fresh_rho(kind, eps, rng):
    """A member of a conformal kind at a rho no other call has used: a new whole key."""
    d1, d2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rho, zeta = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 2.0))
    if kind == "perm_conformal":
        return build_c4_perm_conformal_composite(eps, d1, d2, rho=rho, zeta=zeta)
    return build_family(kind, eps, d1, None if kind == C3_CONFORMAL else d2, rho=rho, zeta=zeta)


@pytest.mark.parametrize("case", range(len(KINDS)))
def test_kept_entries_give_the_cold_report_bitwise(case, cold):
    kind, eps = KINDS[case]
    rng = np.random.default_rng(100 + case)
    triples = []
    for hop in (1.0, 1e-6, 1e6, 1.0, 1e12, 1e-12):  # one structure, several D: warm keys
        t = _member(kind, eps, rng)
        triples.append(t.with_dirac(hop * t.dirac))
    if kind in (C3_CONFORMAL, C4_CONFORMAL, "perm_conformal"):
        triples += [_fresh_rho(kind, eps, rng) for _ in range(4)]
    # 0.0, -0.0 and an int 0 in a row: the kept entries are keyed by the float bits of
    # abs_tol, and tol_used is a float, so each report is the cold one bitwise
    tols = (DEFAULT_TOL, TOL12, TOL0, ToleranceConfig(-0.0), ToleranceConfig(0), TOL0)
    warm = []
    for k, t in enumerate(triples * 2):
        tol = tols[k % len(tols)]
        report = check_all(t, tol)
        key = algebra._structure_key(t)
        (nu_free_tol, nu_free), (twisted_tol, twisted) = algebra._memo(key[0])["entries"], algebra._memo(key)["entries"]
        assert nu_free_tol == twisted_tol == float(tol.abs_tol).hex()
        kept = nu_free + twisted
        # reports share the kept entries: only the four that read D are new objects
        new = [e for e in report.entries if not any(e is x for x in kept)]
        assert len(report.entries) == len(kept) + len(new)
        assert {e.condition for e in new} <= {"dirac_selfadjoint", "grading_anticommutes_dirac",
                                              "twisted_order_one", "epsilon_prime"}
        warm.append((t, tol, _hex_bits(report)))
    for t, tol, got in warm:
        algebra._memo.cache_clear()
        assert got == _hex_bits(check_all(t, tol))


def test_an_all_zero_residual_stack_reads_zero_and_a_nan_one_raises_as_before(monkeypatch):
    zero = np.full((3, 3), -0.0, dtype=complex)
    terms = [("dirac_selfadjoint", zero, None), ("twisted_order_one", np.stack([zero, zero]), None),
             ("j_sign_matches", 1.0, 0.5), ("epsilon_prime", -zero, None)]

    def no_norm(stack):
        raise AssertionError("an all-zero stack took a norm")

    with monkeypatch.context() as m:
        m.setattr(axioms, "operator_norms", no_norm)
        entries = axioms._entries(terms, DEFAULT_TOL)
    assert [(e.condition, e.residual.hex(), e.tol_used) for e in entries] == [
        ("dirac_selfadjoint", "0x0.0p+0", 1e-9), ("twisted_order_one", "0x0.0p+0", 1e-9),
        ("j_sign_matches", "0x1.0000000000000p+0", 0.5), ("epsilon_prime", "0x0.0p+0", 1e-9)]
    # a NaN residual takes the stacked norm, whose SVD does not converge on it
    nan = zero.copy()
    nan[0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
        axioms._entries(terms + [("grading_anticommutes_dirac", nan, None)], DEFAULT_TOL)


# ------------------------------------------------------------ singular twist

def test_a_singular_twist_raises_one_message_cold_and_warm(cold):
    t = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    nu = t.nu.copy()
    nu[0, 3] = 0.0  # a permutation twist with one entry gone: singular, and it moves the points
    singular = replace(t, twist=axioms.Twist(nu))
    message = "^the twist nu is singular, so nu\\^-1 does not exist$"
    for _ in range(2):  # cold, then with every other record of the structure warm
        for call in (lambda: spectral_distance(singular), lambda: distance_bruteforce(singular, 20, 3),
                     lambda: rescale(singular, ConformalFactor(1.2, 0.3)), singular.twist.inverse):
            with pytest.raises(np.linalg.LinAlgError, match=message):
                call()
        # check_all inverts no twist that its SVD finds singular: it reports it
        report = check_all(singular)
        assert report.entry("twist_invertible").residual == 1.0
        assert "twist_preserves_algebra" in report.failing()
