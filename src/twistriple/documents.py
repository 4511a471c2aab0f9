"""Flat-file format for spectral triples.

A triple document is JSON with complex numbers as [re, im] pairs and
matrices as row-major arrays of rows. Serialisation is canonical (sorted
keys, fixed indentation, shortest round-tripping float literals), so
save -> load is entrywise exact and load -> save reproduces the bytes.

Only the Dirac operator is rendered or parsed on every call: a triple's
frame keeps the text around D and its structure the twist's text, and
`dumps` registers the structure by those texts, so that `loads` returns a
triple on that structure for a text whose pieces other than D match.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from typing import Any, Optional

import numpy as np

from .algebra import Representation, _index
from .axioms import (RealStructure, SignTriple, SpectralTriple, Twist, _Frame, _framed, _kept, _Structure,
                     _triple, _twisted)
from .linalg import Antiunitary, _assembled
from .signs import _sign

__all__ = ["DocumentError", "to_document", "from_document", "dumps", "loads", "save", "load"]


class DocumentError(ValueError):
    """Raised when a triple document is malformed."""


def _json_block(brackets: str, items: list[str], indent: int) -> str:
    """Rendered items in "[]" or "{}", in json.dumps(indent=2) layout at this indent."""
    inner = "\n" + " " * (indent + 2)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * indent + brackets[1]


@functools.lru_cache(maxsize=16)
def _matrix_layout(n: int, indent: int) -> str:
    """Format string of an n x n complex matrix as rows of [re, im] pairs."""
    pair = _json_block("[]", ["{}", "{}"], indent + 4)
    return _json_block("[]", [_json_block("[]", [pair] * n, indent + 2)] * n, indent)


def _matrix_text(m: np.ndarray, indent: int) -> str:
    # + 0.0 folds -0.0 into +0.0, so that equal matrices give equal bytes
    entries = (np.ascontiguousarray(m).view(float) + 0.0).ravel().tolist()
    return _matrix_layout(m.shape[0], indent).format(*map(repr, entries))


def _object_text(fields: list[tuple[str, str]], indent: int) -> str:
    """A JSON object of rendered values, keys in the given (sorted) order."""
    return _json_block("{}", [f'"{key}": {value}' for key, value in fields], indent)


def _matrix_from_doc(obj: Any, dim: int, name: str) -> np.ndarray:
    # One conversion for a well-formed matrix; the entry walk words the error.
    try:
        pairs = np.asarray(obj)
    except ValueError:  # ragged rows or entries
        pairs = None
    # np.asarray turns true into 1 next to numbers, so booleans are looked for entry by entry
    if (pairs is not None and pairs.shape == (dim, dim, 2) and pairs.dtype.kind in "iuf"
            and bool not in {type(x) for row in obj for pair in row for x in pair}):
        pairs = pairs.astype(float)
        if np.isfinite(pairs).all():
            return pairs.view(complex).reshape(dim, dim)
    return _matrix_by_entry(obj, dim, name)


def _matrix_by_entry(obj: Any, dim: int, name: str) -> np.ndarray:
    """The matrix converted entry by entry, raising DocumentError at the first bad one."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise DocumentError(f"{name}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{name}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               for x in entry)):
                raise DocumentError(f"{name}: entry ({i},{j}) must be a [re, im] pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # an integer beyond the float range
                re = im = math.inf
            if not (math.isfinite(re) and math.isfinite(im)):
                raise DocumentError(f"{name}: entry ({i},{j}) is not finite")
            out[i, j] = complex(re, im)
    return out


def _sign_from_doc(obj: Any, name: str) -> int:
    """signs._sign of the JSON integer algebra._index reads; true, 1.0 and "1" raise DocumentError."""
    try:
        return _sign(_index(obj))
    except (TypeError, ValueError):
        raise DocumentError(f"{name} must be 1 or -1") from None


def to_document(t: SpectralTriple) -> dict:
    """The triple as the JSON object that `dumps` writes."""
    return json.loads(dumps(t))


def _twist_from_doc(tobj: Any, dim: int) -> Optional[Twist]:
    """The twist of a document's "twist" value, for from_document and loads.

    _matrix_from_doc has checked nu, so the Twist is put together by
    linalg._assembled, which does not check it again.
    """
    if tobj is None:
        return None
    if not isinstance(tobj, dict) or "nu" not in tobj:
        raise DocumentError("twist: expected an object with a nu matrix")
    flag = tobj.get("implements_automorphism")
    if not isinstance(flag, bool):
        raise DocumentError("twist.implements_automorphism must be a boolean")
    return _assembled(Twist, nu=_matrix_from_doc(tobj["nu"], dim, "twist.nu"),
                      implements_algebra_automorphism=flag)


def from_document(doc: Any) -> SpectralTriple:
    """The triple of a parsed document, or DocumentError naming what is malformed.

    Every matrix is checked once, by _matrix_from_doc, at the document's
    dim: a square complex matrix with finite entries. The header ties the
    representation to that dim, so the parts are put together with none of
    the constructors' checks again, in a new structure.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    try:
        dim = _index(doc["dim"])
        points = _index(doc["points"])
        rep_list = doc["rep"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"missing or malformed header field: {exc}") from exc
    if not isinstance(rep_list, list) or len(rep_list) != dim:
        raise DocumentError("rep must list one point index per basis vector")
    try:
        rep = Representation(tuple(map(_index, rep_list)))
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"invalid representation: {exc}") from exc
    if rep.n_points != points:
        raise DocumentError(f"rep uses {rep.n_points} points but document says {points}")
    if "dirac" not in doc:
        raise DocumentError("document has no dirac matrix")
    dirac = _matrix_from_doc(doc["dirac"], dim, "dirac")

    grading = None
    if doc.get("grading") is not None:
        grading = _matrix_from_doc(doc["grading"], dim, "grading")

    real: Optional[RealStructure] = None
    robj = doc.get("real")
    if robj is not None:
        if not isinstance(robj, dict) or "unitary" not in robj:
            raise DocumentError("real: expected an object with a unitary matrix")
        eps = _sign_from_doc(robj.get("eps"), "real.eps")
        eps_prime = _sign_from_doc(robj.get("eps_prime"), "real.eps_prime")
        eps_dprime = robj.get("eps_dprime")
        if eps_dprime is not None:
            eps_dprime = _sign_from_doc(eps_dprime, "real.eps_dprime")
        real = RealStructure(
            j=_assembled(Antiunitary, u=_matrix_from_doc(robj["unitary"], dim, "real.unitary")),
            signs=SignTriple(eps=eps, eps_prime=eps_prime, eps_dprime=eps_dprime),
        )

    twist = _twist_from_doc(doc.get("twist"), dim)
    return _triple(_twisted(_framed(rep, grading, real), twist), dirac)


# The top-level markers of a canonical text, which `loads` splits at.
_DIRAC, _GRADING, _TWIST, _END = '\n  "dirac": ', ',\n  "grading": ', ',\n  "twist": ', "\n}\n"


def _template(frame: _Frame) -> tuple[str, str]:
    """The text of a document before D and from D to the twist, for the frame."""
    real = "null"
    if frame.real is not None:
        signs = frame.real.signs
        real = _object_text([
            ("eps", str(signs.eps)),
            ("eps_dprime", "null" if signs.eps_dprime is None else str(signs.eps_dprime)),
            ("eps_prime", str(signs.eps_prime)),
            ("unitary", _matrix_text(frame.real.j.u, 4)),
        ], 2)
    text = _object_text([
        ("dim", str(frame.rep.dim)),
        ("dirac", "%"),
        ("grading", "null" if frame.grading is None else _matrix_text(frame.grading, 2)),
        ("points", str(frame.rep.n_points)),
        ("real", real),
        ("rep", _json_block("[]", [str(p) for p in frame.rep.point_of], 2)),
    ], 0)
    head, _, middle = text[:-2].partition("%")  # without the closing "\n}"
    return head, middle


def _twist_text(s: _Structure) -> str:
    """The "twist" value of a document, for the structure."""
    if s.twist is None:
        return "null"
    flag = s.twist.implements_algebra_automorphism
    return _object_text([
        ("implements_automorphism", "true" if flag else "false"),
        ("nu", _matrix_text(s.twist.nu, 4)),
    ], 2)


# What dumps rendered, for loads: a structure by its text before D, from D to the twist, and
# its twist's text. An entry lives as long as its structure.
_STRUCTURES: "weakref.WeakValueDictionary[tuple[str, str, str], _Structure]" = weakref.WeakValueDictionary()


def dumps(t: SpectralTriple) -> str:
    """The canonical text of a triple document.

    The text is emitted directly from the triple's arrays, byte for byte what
    json.dumps(doc, sort_keys=True, indent=2) gives for the document: keys
    sorted, two-space indentation, every float as its shortest round-trip
    repr, -0.0 written as 0.0, and a final newline.

    Only D is rendered on every call. t's frame keeps the text before D and
    from D to the twist (header, grading, points, real structure, rep), and
    its structure the twist's text; dumps registers the structure by those
    texts, for loads.
    """
    s = t._structure
    (head, middle), twist = _kept(s.frame, "template", _template), _kept(s, "twist_text", _twist_text)
    _STRUCTURES[head, middle, twist] = s
    return head + _matrix_text(t.dirac, 2) + middle + _TWIST + twist + _END


def _split(text: Any) -> Optional[tuple[str, str, str, str]]:
    """(head, D, middle, twist): the text cut at the first of each marker, or None."""
    if not isinstance(text, str) or not text.endswith(_END):
        return None
    i = text.find(_DIRAC) + len(_DIRAC)
    j = text.find(_GRADING, i)
    k = text.find(_TWIST, j)
    if i < len(_DIRAC) or j < 0 or k < 0:
        return None
    return text[:i], text[i:j], text[j:k], text[k + len(_TWIST):-len(_END)]


def loads(text: str) -> SpectralTriple:
    """The triple of a document text.

    When the text's pieces other than D (see _split) are those of a
    structure that `dumps` rendered, the triple is on that structure, and
    only D's block is parsed, with from_document's checks. Otherwise, and on
    any failure there, the text takes the full parse, which words every
    error. A structure's matrices hold no -0.0, as the text writes them, so
    every triple equals the full parse's byte for byte.
    """
    parts = _split(text)
    s = None if parts is None else _STRUCTURES.get((parts[0], parts[2], parts[3]))
    if s is not None:
        try:
            return _triple(s, _matrix_from_doc(json.loads(parts[1]), s.frame.rep.dim, "dirac"))
        except (ValueError, TypeError, RecursionError):  # DocumentError and JSONDecodeError are ValueErrors
            pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def save(t: SpectralTriple, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(t))


def load(path) -> SpectralTriple:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())
