import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_PERM_BAD,
    FAMILIES,
    build_c3,
    build_c4,
    build_conformal,
    build_family,
)
from twistriple import documents
from twistriple.documents import DocumentError, dumps, from_document, load, loads, save, to_document


def all_fixtures():
    return [
        build_c3(1, 1.0 / 3.0 - 0.123456789012345j),
        build_c3(-1, 2.0j, 0.7j, twist="perm"),
        build_c4(1, np.pi, np.e),
        build_c4(-1, 1.0 - 1.0j, 0.5, twist="perm"),
        build_c4(1, 1.0, 1.0, twist="perm_bad"),
        build_conformal("c3", 1, 1.0, rho=0.1234567890123456, zeta=1.75),
        build_conformal("c4", -1, 0.25 - 0.125j, 2.0, rho=0.7, zeta=0.3),
    ]


def triples_entrywise_equal(a, b):
    if not np.array_equal(a.dirac, b.dirac):
        return False
    if (a.grading is None) != (b.grading is None):
        return False
    if a.grading is not None and not np.array_equal(a.grading, b.grading):
        return False
    if (a.real is None) != (b.real is None):
        return False
    if a.real is not None:
        if not np.array_equal(a.real.j.u, b.real.j.u) or a.real.signs != b.real.signs:
            return False
    if (a.twist is None) != (b.twist is None):
        return False
    if a.twist is not None:
        if not np.array_equal(a.twist.nu, b.twist.nu):
            return False
        if a.twist.implements_algebra_automorphism != b.twist.implements_algebra_automorphism:
            return False
    return a.rep == b.rep


@pytest.mark.parametrize("idx", range(7))
def test_round_trip_is_entrywise_exact(idx):
    t = all_fixtures()[idx]
    assert triples_entrywise_equal(loads(dumps(t)), t)


@pytest.mark.parametrize("idx", range(7))
def test_resave_is_byte_identical(idx):
    t = all_fixtures()[idx]
    text = dumps(t)
    assert dumps(loads(text)) == text


def test_file_round_trip(tmp_path):
    t = build_c4(1, 1.0 - 0.5j, 2.0, twist="perm")
    path = tmp_path / "triple.json"
    save(t, path)
    assert triples_entrywise_equal(load(path), t)
    again = tmp_path / "again.json"
    save(load(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_document_layout():
    doc = to_document(build_c3(1, 1.0))
    assert doc["dim"] == 3 and doc["points"] == 2
    assert doc["rep"] == [0, 0, 1]
    assert doc["dirac"][0][2] == [1.0, 0.0]
    assert doc["real"]["eps"] == 1 and doc["real"]["eps_dprime"] == 1
    assert doc["twist"] is None


def test_untwisted_ungraded_round_trip():
    from twistriple.algebra import REP_C2
    from twistriple.axioms import SpectralTriple

    t = SpectralTriple(rep=REP_C2, dirac=np.array([[0.5, 1.0j], [-1.0j, 0.25]]))
    back = loads(dumps(t))
    assert back.grading is None and back.real is None and back.twist is None
    assert np.array_equal(back.dirac, t.dirac)


def test_truncated_document_rejected():
    text = dumps(build_c3(1, 1.0))
    with pytest.raises(DocumentError):
        loads(text[: len(text) // 2])


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("dirac"),
    lambda d: d.__setitem__("rep", [0, 0]),
    lambda d: d.__setitem__("points", 3),
    lambda d: d["dirac"][0].__setitem__(0, [1.0]),
    lambda d: d["dirac"][0].__setitem__(0, [float("nan"), 0.0]),
    lambda d: d["real"].__setitem__("eps", 2),
    lambda d: d["real"].pop("unitary"),
])
def test_malformed_documents_rejected(mutate):
    doc = json.loads(dumps(build_c3(1, 1.0)))
    mutate(doc)
    with pytest.raises(DocumentError):
        loads(json.dumps(doc))


def test_non_selfadjoint_dirac_still_loads():
    # structural validity only; selfadjointness is reported by check_all
    doc = json.loads(dumps(build_c3(1, 1.0)))
    doc["dirac"][0][1] = [5.0, 5.0]
    t = loads(json.dumps(doc))
    from twistriple.axioms import check_all

    assert "dirac_selfadjoint" in check_all(t).failing()


# ------------------------------------------ dumps against the json.dumps encoder

def _reference_document(t):
    """The document dict as it was built before the direct emitter."""
    def matrix(m):
        return [[[float(v.real) + 0.0, float(v.imag) + 0.0] for v in row]
                for row in np.asarray(m, dtype=complex)]

    doc = {
        "dim": t.dim,
        "points": t.rep.n_points,
        "rep": list(t.rep.point_of),
        "dirac": matrix(t.dirac),
        "grading": None if t.grading is None else matrix(t.grading),
        "real": None,
        "twist": None,
    }
    if t.real is not None:
        doc["real"] = {
            "unitary": matrix(t.real.j.u),
            "eps": t.real.signs.eps,
            "eps_prime": t.real.signs.eps_prime,
            "eps_dprime": t.real.signs.eps_dprime,
        }
    if t.twist is not None:
        doc["twist"] = {
            "nu": matrix(t.twist.nu),
            "implements_automorphism": bool(t.twist.implements_algebra_automorphism),
        }
    return doc


def _reference_dumps(t):
    return json.dumps(_reference_document(t), sort_keys=True, indent=2) + "\n"


def _emitter_cases():
    from twistriple.algebra import REP_C2, REP_C4
    from twistriple.axioms import RealStructure, SignTriple, SpectralTriple, Twist
    from twistriple.catalog import build_c4_perm_conformal_composite
    from twistriple.linalg import Antiunitary

    rng = np.random.default_rng(51)
    cases = list(all_fixtures())
    for eps in (1, -1):
        r = 1.0 if eps == 1 else 1j
        cases += [build_c3(eps, 0.3 - 1.7j),
                  build_c3(eps, r * 0.6, r * 2.5, twist="perm"),
                  build_c4(eps, 1e-7 + 3e5j, -2.0),
                  build_c4(eps, 1.0 / 7.0, 1e12j, twist="perm"),
                  build_conformal("c3", eps, 1e-300 + 1j, rho=0.25, zeta=0.5),
                  build_conformal("c4", eps, 1e8, 1e-8j, rho=0.9, zeta=3.0),
                  build_c4_perm_conformal_composite(eps, 0.5 + 0.5j, 1.5, rho=0.2, zeta=1.1)]
    # ungraded, no real structure; and a real triple without eps''
    cases.append(SpectralTriple(rep=REP_C2, dirac=np.array([[0.5, 1.0j], [-1.0j, 0.25]])))
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    cases.append(SpectralTriple(rep=REP_C2, dirac=np.array([[1.0, 2.0], [2.0, -1.0]]),
                                real=RealStructure(Antiunitary(u),
                                                   SignTriple(eps=1, eps_prime=-1))))
    # a twist that does not implement an automorphism, a Fortran-ordered Dirac
    # operator, and the float extremes, with -0.0 in every matrix
    t = build_c4(1, 1.0, 2.0, twist="perm")
    extremes = np.array([[-0.0, 5e-324, 1e-300, 1.7976931348623157e308],
                         [complex(-0.0, -0.0), -5e-324j, -1e-300, -1.7976931348623157e308j],
                         [1e16, 1.0 / 3.0, complex(0.1, -0.0), 123456789.125],
                         [2.0 ** -1074, -2.5e-310, 1e-5, 1e21]], dtype=complex)
    cases.append(SpectralTriple(
        rep=REP_C4, dirac=(rng.standard_normal((4, 4)) + 0j).T,
        grading=extremes, real=RealStructure(Antiunitary(extremes.T), t.real.signs),
        twist=Twist(-extremes, implements_algebra_automorphism=False)))
    return cases


def test_dumps_is_byte_identical_to_json_encoder():
    cases = _emitter_cases()
    assert len(cases) == 24
    assert not cases[-1].dirac.flags.c_contiguous
    for t in cases:
        text = dumps(t)
        assert text == _reference_dumps(t)
        assert to_document(t) == json.loads(text) == _reference_document(t)
        assert dumps(loads(text)) == text


# ------------------------------------- matrix loading against the per-entry loader

def _reference_matrix_from_doc(obj, dim, name):
    """The loader as it was before the single-conversion path: entry by entry."""
    import math

    if not isinstance(obj, list) or len(obj) != dim:
        raise DocumentError(f"{name}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{name}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(x, (int, float)) for x in entry)):
                raise DocumentError(f"{name}: entry ({i},{j}) must be a [re, im] pair")
            re, im = float(entry[0]), float(entry[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise DocumentError(f"{name}: entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return out


# JSON numbers the loader must take exactly as float() does, including the
# int64/uint64 boundaries numpy converts natively and ints it cannot hold;
# the per-entry reference also takes true and false, which the loader rejects
VALID_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1e-300, 1.0 / 3.0, 0, 1, -7, True, False, 2 ** 53 + 1, -(2 ** 63),
                 2 ** 63 - 1, 2 ** 63 + 1025, 2 ** 64 - 1, 2 ** 64 + 1, -(2 ** 64) - 3, 10 ** 30,
                 10 ** 308]
BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), 10 ** 400, -(10 ** 400)]
BAD_VALUES = [None, "1.0", "", [], [1.0], [1.0, 2.0], {"re": 1.0}]


def _valid_matrices(rng):
    """JSON matrices of every dim, drawn from one number family or mixed across them."""
    pools = [VALID_NUMBERS, [True, False], [0, 1, -3, 2 ** 40],
             [2 ** 63, 2 ** 64 - 1, 2 ** 63 + 1025], [-0.0, 5e-324, 0.5]]
    out = []
    for dim in (1, 2, 3, 4):
        for pool in pools:
            for _ in range(6):
                out.append((dim, [[[pool[int(rng.integers(len(pool)))] for _ in range(2)]
                                   for _ in range(dim)] for _ in range(dim)]))
        out.append((dim, [[[rng.standard_normal(), rng.standard_normal()] for _ in range(dim)]
                          for _ in range(dim)]))
    return out


def _malformed_matrices(rng):
    """Every shape and value fault, at the first, last and a random position."""
    import copy

    out = []
    for dim in (1, 2, 3, 4):
        base = [[[float(rng.standard_normal()), float(rng.standard_normal())]
                 for _ in range(dim)] for _ in range(dim)]
        for whole in (None, {}, "m", 3.0, [], base[:-1], base + [base[0]],
                      [[[x] for x in row] for row in base]):
            out.append((dim, whole))
        # the same numbers shaped dim+1 square, and dim x dim x 3: consistent, wrong shape
        out.append((dim, [[[1.0, 2.0]] * (dim + 1)] * (dim + 1)))
        out.append((dim, [[[1.0, 2.0, 3.0]] * dim] * dim))
        out.append((dim, [[[[1.0], [2.0]]] * dim] * dim))
        positions = {(0, 0), (dim - 1, dim - 1), (int(rng.integers(dim)), int(rng.integers(dim)))}
        for i, j in sorted(positions):
            for row in (None, 1.0, "r", {}, base[i][:-1], base[i] + [[0.0, 0.0]], []):
                m = copy.deepcopy(base)
                m[i] = row
                out.append((dim, m))
            for entry in BAD_VALUES + [[1.0, 2.0, 3.0], [[1.0, 2.0], 3.0], 4.0]:
                m = copy.deepcopy(base)
                m[i][j] = copy.deepcopy(entry)
                out.append((dim, m))
            for bad in BAD_NUMBERS + BAD_VALUES:
                for k in (0, 1):
                    m = copy.deepcopy(base)
                    m[i][j][k] = bad
                    out.append((dim, m))
            # two faults: the first in row-major order names the message
            m = copy.deepcopy(base)
            m[i][j][0] = float("nan")
            m[dim - 1][dim - 1] = "x"
            out.append((dim, m))
    return out


def _load_outcome(fn, obj, dim):
    try:
        m = fn(obj, dim, "dirac")
    except (DocumentError, OverflowError) as exc:
        return type(exc), str(exc)
    return m.shape, m.dtype, m.tobytes()


def _first_boolean_entry(obj):
    """(i, j) of the first [re, im] pair, row-major, that holds a boolean, or None."""
    return next(((i, j) for i, row in enumerate(obj) for j, entry in enumerate(row)
                 if any(isinstance(x, bool) for x in entry)), None)


def test_matrix_loading_matches_the_per_entry_loader():
    from twistriple.documents import _matrix_from_doc

    rng = np.random.default_rng(20261018)
    valid, malformed = _valid_matrices(rng), _malformed_matrices(rng)
    assert len(valid) == 124 and len(malformed) == 422
    booleans = 0
    for dim, obj in valid + malformed:
        obj = json.loads(json.dumps(obj))  # only what a JSON document can hold
        got, want = _load_outcome(_matrix_from_doc, obj, dim), _load_outcome(
            _reference_matrix_from_doc, obj, dim)
        boolean = _first_boolean_entry(obj) if want[0] == (dim, dim) else None
        if want[0] is OverflowError:  # intended difference 1: see the next test
            assert got[0] is DocumentError and got[1].endswith("is not finite"), obj
        elif boolean is not None:  # intended difference 2: a boolean is not a number
            booleans += 1
            assert got == (DocumentError, "dirac: entry (%d,%d) must be a [re, im] pair" % boolean)
        else:
            assert got == want, obj
    assert 0 < booleans < len(valid)
    for dim, obj in valid:
        if _first_boolean_entry(obj) is None:
            assert _load_outcome(_matrix_from_doc, obj, dim)[0] == (dim, dim)


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400)], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("part", [0, 1])
def test_integer_beyond_float_range_is_a_document_error(value, part):
    doc = json.loads(dumps(build_c3(1, 1.0)))
    doc["dirac"][0][1][part] = value
    with pytest.raises(DocumentError, match=r"^dirac: entry \(0,1\) is not finite$"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("name", ["dirac", "grading"])
def test_boolean_matrix_entries_are_document_errors(name):
    doc = json.loads(dumps(build_c3(1, 1.0)))
    mixed = [[list(entry) for entry in row] for row in doc[name]]
    mixed[2][1] = [0.5, False]  # beside numbers, np.asarray makes it 0.0
    all_boolean = [[[True, False] for _ in range(3)] for _ in range(3)]  # a boolean array
    for matrix, where in ((mixed, r"\(2,1\)"), (all_boolean, r"\(0,0\)")):
        with pytest.raises(DocumentError, match=rf"^{name}: entry {where} must be a \[re, im\] pair$"):
            loads(json.dumps(dict(doc, **{name: matrix})))


# --------------------------------------------------- integer header fields

NON_INTEGER_HEADERS = [
    ("dim", 3.9), ("dim", "3"), ("points", 2.5), ("rep", [0, 0, 1.7]), ("rep", ["0", "0", "1"]),
    ("dim", True), ("points", True), ("rep", [False, False, True]),
]


@pytest.mark.parametrize("field,value", NON_INTEGER_HEADERS,
                         ids=[f"{f}={v!r}" for f, v in NON_INTEGER_HEADERS])
def test_non_integer_header_is_a_document_error(field, value):
    doc = json.loads(dumps(build_c3(1, 1.0)))
    doc[field] = value
    with pytest.raises(DocumentError):
        loads(json.dumps(doc))


# ------------------------------------------------------------- reality signs

NON_INTEGER_SIGNS = [True, 1.0, -1.0, "1"]


@pytest.mark.parametrize("field", ["eps", "eps_prime", "eps_dprime"])
@pytest.mark.parametrize("value", NON_INTEGER_SIGNS, ids=[repr(v) for v in NON_INTEGER_SIGNS])
def test_non_integer_sign_is_a_document_error(field, value):
    doc = json.loads(dumps(build_c3(1, 1.0)))
    doc["real"][field] = value
    with pytest.raises(DocumentError, match=rf"^real\.{field} must be 1 or -1$"):
        loads(json.dumps(doc))


# ------------------------------------------------- round trip as a property

@st.composite
def catalog_members(draw):
    family = draw(st.sampled_from(FAMILIES + (C4_PERM_BAD,)))
    eps = 1 if family == C4_PERM_BAD else draw(st.sampled_from((1, -1)))
    hop = st.builds(lambda m, e, s: s * m * 10.0 ** e,
                    st.floats(1.0, 10.0), st.integers(-12, 11), st.sampled_from((1.0, -1.0)))
    d1, d2 = complex(draw(hop), draw(hop)), complex(draw(hop), draw(hop))
    if family == C3_PERM:  # real hops for eps' = +1, imaginary for eps' = -1
        d1, d2 = (complex(d.real) if eps == 1 else complex(0.0, d.imag) for d in (d1, d2))
    if family in (C3_UNTWISTED, C3_CONFORMAL, C4_PERM_BAD):
        d2 = None
    extra = {}
    if family.endswith("_conformal"):
        extra = dict(rho=draw(st.floats(0.05, 0.95)), zeta=draw(st.floats(0.25, 4.0)))
    return build_family(family, eps, d1, d2, **extra)


@settings(max_examples=150, deadline=None)
@given(catalog_members())
def test_documents_round_trip_property(t):
    text = dumps(t)
    back = loads(text)
    assert triples_entrywise_equal(back, t)  # array_equal: dumps writes -0.0 as 0.0
    assert dumps(back) == text


# ------------------------------------------ loads with its structure memo warm

def _triple_bits(t):
    """Every array of a triple as bytes (so the signs of zeros count), with its signs and flag."""
    real, twist = t.real, t.twist
    return (t.rep, t.dirac.tobytes(), None if t.grading is None else t.grading.tobytes(),
            None if real is None else (real.signs, real.j.u.tobytes()),
            None if twist is None else (twist.implements_algebra_automorphism, twist.nu.tobytes()))


def _reference_loads(text):
    """loads as the full parse alone: json.loads, then from_document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def _outcome(fn, text):
    try:
        return _triple_bits(fn(text))
    except DocumentError as exc:
        return ("DocumentError", str(exc))


def _adversarial_texts(text, kept_twists=()):
    """Variants of a canonical text; those built from its pieces keep the pieces before D
    and from D to the twist, by which (with the twist's) loads finds a registered
    structure. kept_twists are twist texts of other triples, put in place of the text's own."""
    head, dirac, middle, twist = documents._split(text)

    def pieces(d=dirac, tw=twist):
        return head + d + middle + ',\n  "twist": ' + tw + "\n}\n"

    def edited_dirac(edit):
        d = json.loads(dirac)
        edit(d)
        return pieces(d=json.dumps(d))

    n = len(json.loads(dirac))
    nu_3x3 = json.dumps({"implements_automorphism": True, "nu": [[[1.0, 0.0]] * 3] * 3})
    return {
        "reindented": json.dumps(json.loads(text), indent=4, sort_keys=True) + "\n",
        "compact": json.dumps(json.loads(text), sort_keys=True),
        "extra key first": text.replace("{\n", '{\n  "extra": 1,\n', 1),
        "extra key before the twist": text.replace(',\n  "twist": ', ',\n  "zzz": 1,\n  "twist": ', 1),
        "extra key last": text[:-3] + ',\n  "zzz": 1\n}\n',
        "grading given again last": text[:-3] + ',\n  "grading": null\n}\n',
        "real given again last": text[:-3] + ',\n  "real": null\n}\n',
        "second dirac last": text[:-3] + ',\n  "dirac": ' + json.dumps([[[2, 0]] * n] * n) + "\n}\n",
        "earlier object with dirac": '{\n  "aaa": {\n  "dirac": 1},' + text[1:],
        "dirac object with grading": pieces(d='{"x": 1,\n  "grading": 2}'),
        "dirac true": edited_dirac(lambda d: d[0].__setitem__(0, [True, 0.0])),
        "dirac NaN": edited_dirac(lambda d: d[0].__setitem__(0, [float("nan"), 0.0])),
        "dirac ragged row": edited_dirac(lambda d: d[0].pop()),
        "dirac integers": pieces(d=json.dumps([[[k, 0] for k in range(n)]] * n)),
        "dirac and junk": pieces(d=dirac + ", 1"),
        "twist null": pieces(tw="null"),
        "twist nu 3x3": pieces(tw=nu_3x3),
        "twist with an earlier nu": pieces(tw='{"nu": [[0]],' + twist[1:]),
        **{f"kept twist {k}": pieces(tw=tw) for k, tw in enumerate(kept_twists)},
        "trailing junk": text + "junk",
        "trailing brace": text[:-3] + "\n}\n}\n",
        "trailing space": text + " ",
        "no final newline": text[:-1],
    }


def _split_twist(t):
    return documents._split(dumps(t))[3]


def _forget():
    """Empty the map by which loads finds what dumps rendered: the next loads is cold."""
    documents._STRUCTURES.clear()


def _rendered(text):
    """Whether loads finds a structure for the text's pieces other than D."""
    head, _, middle, twist = documents._split(text)
    return (head, middle, twist) in documents._STRUCTURES


@pytest.mark.parametrize("idx", range(len(all_fixtures())))
def test_loads_with_its_memo_cold_or_warm_equals_the_full_parse(idx):
    t = all_fixtures()[idx]
    text = dumps(t)
    # a text may pair the pieces around D with the twist of another triple that dumps
    # registered, of another dim or of this one
    twisted = [u for u in all_fixtures() if u.twist is not None and _split_twist(u) != _split_twist(t)]
    others = [next(u for u in twisted if u.dim != t.dim), next(u for u in twisted if u.dim == t.dim)]
    for name, variant in _adversarial_texts(text, [_split_twist(u) for u in others]).items():
        _forget()
        # the variant and the canonical text cold, then both after dumps registered the structures
        for s in (variant, text):
            assert _outcome(loads, s) == _outcome(_reference_loads, s), name
        assert dumps(t) == text and all(dumps(u) for u in others)
        assert _rendered(text)
        for s in (text, variant):
            assert _outcome(loads, s) == _outcome(_reference_loads, s), name


def test_a_cold_loads_renders_nothing(monkeypatch):
    texts = [dumps(t) for t in all_fixtures()]
    _forget()

    def no_rendering(*args):
        raise AssertionError("loads rendered a document")

    for name in ("dumps", "_template", "_twist_text", "_matrix_text", "_object_text", "_json_block"):
        monkeypatch.setattr(documents, name, no_rendering)
    for text in texts:
        assert _outcome(loads, text) == _outcome(_reference_loads, text)
        assert not _rendered(text)


def test_editing_a_loaded_triple_in_place_leaves_the_next_load_alone():
    _forget()
    text = dumps(build_conformal("c4", 1, 0.5 - 0.25j, 2.0, rho=0.3, zeta=1.2))
    want = _triple_bits(_reference_loads(text))
    for _ in range(3):  # the full parse, then two on the structure dumps registered
        t = loads(text)
        assert _triple_bits(t) == want
        for m in (t.grading, t.real.j.u, t.nu):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 7.0
        assert dumps(t) == _reference_dumps(t) == text


@pytest.mark.parametrize("path,name", [(("dirac",), "dirac"), (("grading",), "grading"),
                                       (("real", "unitary"), "real.unitary"), (("twist", "nu"), "twist.nu")])
def test_a_non_finite_matrix_is_refused_with_its_name_cold_and_warm(path, name):
    # 1e400 parses as inf: from_document and loads, with the memo cold and warm, refuse it
    # where _matrix_from_doc reads it, and nothing checks the parsed matrices again
    t = build_c4(-1, 1.0 - 1.0j, 0.5, twist="perm")
    doc = json.loads(dumps(t))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]][0][0][0] = 123.25  # a literal found nowhere else in the text
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert text.count("123.25") == 1
    text = text.replace("123.25", "1e400")
    message = f"^{name}: entry \\(0,0\\) is not finite$"
    with pytest.raises(DocumentError, match=message):
        from_document(json.loads(text))
    _forget()
    with pytest.raises(DocumentError, match=message):
        loads(text)
    assert dumps(t) and _rendered(dumps(t))
    with pytest.raises(DocumentError, match=message):
        loads(text)


def test_negative_zeros_load_as_the_full_parse_gives_them_cold_and_warm():
    # the text writes -0.0 as 0.0, so the structure, which loads hands out, must hold +0.0
    from twistriple.axioms import RealStructure, SpectralTriple, Twist
    from twistriple.catalog import C4_PERM
    from twistriple.linalg import Antiunitary

    base = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    grading, u, nu = base.grading.copy(), base.real.j.u.copy(), base.nu.copy()
    grading[0, 1] = complex(-0.0, -0.0)
    u[0, 1] = complex(-0.0, 0.0)
    nu[0, 0] = complex(0.0, -0.0)
    for m in (grading, u, nu):
        assert np.signbit(m.view(float)).any()
    t = SpectralTriple(base.rep, base.dirac, grading, RealStructure(Antiunitary(u), base.real.signs), Twist(nu))
    text = dumps(t)
    want = _reference_loads(text)
    _forget()
    for warm in (False, True, True):  # the full parse, then the structure dumps registered
        if warm:
            assert dumps(t) == text and _rendered(text)
        got = loads(text)
        assert (got._structure is t._structure) == warm
        assert _triple_bits(got) == _triple_bits(want) == _triple_bits(t)
