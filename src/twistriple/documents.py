"""Flat-file format for spectral triples.

A triple document is JSON with complex numbers as [re, im] pairs and
matrices as row-major arrays of rows. Serialisation is canonical (sorted
keys, fixed indentation, shortest round-tripping float literals), so
save -> load is entrywise exact and load -> save reproduces the bytes.

Only the Dirac operator is rendered or parsed on every call: `dumps` keeps
the text around D, the structure under that text and the twist under its
own text in algebra._memo's records; `loads` only reads them, for a text
whose pieces around D match.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from typing import Any, Optional

import numpy as np

from .algebra import Representation, _index, _memo, _structure_key
from .axioms import RealStructure, SignTriple, SpectralTriple, Twist
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
    representation to that dim, so the parts are put together by
    linalg._assembled, with none of the constructors' checks again.
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
    return _assembled(SpectralTriple, rep=rep, dirac=dirac, grading=grading, real=real, twist=twist)


# The top-level markers of a canonical text, which `loads` splits at.
_DIRAC, _GRADING, _TWIST, _END = '\n  "dirac": ', ',\n  "grading": ', ',\n  "twist": ', "\n}\n"


def _template(t: SpectralTriple) -> tuple[str, str]:
    real = "null"
    if t.real is not None:
        signs = t.real.signs
        real = _object_text([
            ("eps", str(signs.eps)),
            ("eps_dprime", "null" if signs.eps_dprime is None else str(signs.eps_dprime)),
            ("eps_prime", str(signs.eps_prime)),
            ("unitary", _matrix_text(t.real.j.u, 4)),
        ], 2)
    text = _object_text([
        ("dim", str(t.dim)),
        ("dirac", "%"),
        ("grading", "null" if t.grading is None else _matrix_text(t.grading, 2)),
        ("points", str(t.rep.n_points)),
        ("real", real),
        ("rep", _json_block("[]", [str(p) for p in t.rep.point_of], 2)),
    ], 0)
    head, _, middle = text[:-2].partition("%")  # without the closing "\n}"
    return head, middle


def _twist_text(t: SpectralTriple) -> str:
    if t.twist is None:
        return "null"
    flag = t.twist.implements_algebra_automorphism
    return _object_text([
        ("implements_automorphism", "true" if flag else "false"),
        ("nu", _matrix_text(t.twist.nu, 4)),
    ], 2)


# The records of what dumps kept for loads, while algebra._memo keeps them: a structure by
# the text around D (a pair), a twist by its text (a string).
_RENDERED: "weakref.WeakValueDictionary[tuple[str, str] | str, dict]" = weakref.WeakValueDictionary()


def dumps(t: SpectralTriple) -> str:
    """The canonical text of a triple document.

    The text is emitted directly from the triple's arrays, byte for byte what
    json.dumps(doc, sort_keys=True, indent=2) gives for the document: keys
    sorted, two-space indentation, every float as its shortest round-trip
    repr, -0.0 written as 0.0, and a final newline.

    Only D is rendered on every call. The text before D and from D to the
    twist (header, grading, points, real structure, rep) is kept in the
    algebra._memo record of algebra._structure_key's first part, the
    twist's text and its parse, "twist" = (nu, flag), in that of its second
    part, and the structure loads reuses in that of the text around D:
    (dim, rep, grading, (U, signs)). The kept matrices are copies with -0.0
    folded into +0.0, as the text has them. loads hands out copies of them
    without a check, so they are checked once, here, when they are kept: a
    non-finite one (edited in place) is not kept, and loads parses that
    part of the text.
    """
    key = _structure_key(t)
    record, twist_record = _memo(key[0]), _memo(key[1])
    if (template := record.get("template")) is None:
        template = record["template"] = _template(t)
    if (twist := twist_record.get("twist_text")) is None:
        twist = twist_record["twist_text"] = _twist_text(t)
    if "structure" not in (document := _memo(template)):
        grading, u = (None if m is None else m + 0.0  # + 0.0 folds -0.0 into the text's 0.0
                      for m in (t.grading, None if t.real is None else t.real.j.u))
        if all(m is None or np.isfinite(m).all() for m in (grading, u)):
            document["structure"] = (t.dim, t.rep, grading, None if u is None else (u, t.real.signs))
            _RENDERED[template] = document
    if t.twist is not None and "twist" not in twist_record and np.isfinite(nu := t.twist.nu + 0.0).all():
        twist_record["twist"] = (nu, t.twist.implements_algebra_automorphism)
        _RENDERED[twist] = twist_record
    return template[0] + _matrix_text(t.dirac, 2) + template[1] + _TWIST + twist + _END


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

    When the text's pieces before D and between D and the twist (see
    _split) are those of a text `dumps` rendered, the structure `dumps`
    kept in their algebra._memo record is reused: its rep, and fresh copies
    of its grading and U, which dumps checked. So is the twist dumps kept
    under the twist's text, a fresh copy of its nu, when it has the dim;
    else the twist block is parsed. D's block is parsed, with
    from_document's checks. Otherwise, and on any failure there, the text
    takes the full parse, which words every error; loads stores nothing,
    and any other text gets no memo record (_RENDERED).
    """
    parts = _split(text)
    known = _memo(parts[0::2]).get("structure") if parts is not None and parts[0::2] in _RENDERED else None
    if known is not None:
        dim, rep, grading, real = known
        twist = _RENDERED.get(parts[3], {}).get("twist")
        try:
            return _assembled(
                SpectralTriple, rep=rep, dirac=_matrix_from_doc(json.loads(parts[1]), dim, "dirac"),
                grading=None if grading is None else grading.copy(),
                real=None if real is None else RealStructure(_assembled(Antiunitary, u=real[0].copy()),
                                                             real[1]),
                twist=_twist_from_doc(json.loads(parts[3]), dim) if twist is None or len(twist[0]) != dim
                else _assembled(Twist, nu=twist[0].copy(), implements_algebra_automorphism=twist[1]))
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
