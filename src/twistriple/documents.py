"""Flat-file format for spectral triples.

A triple document is JSON with complex numbers as [re, im] pairs and
matrices as row-major arrays of rows. Serialisation is canonical (sorted
keys, fixed indentation, shortest round-tripping float literals), so
save -> load is entrywise exact and load -> save reproduces the bytes.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, Optional

import numpy as np

from .algebra import Representation
from .axioms import RealStructure, SignTriple, SpectralTriple, Twist
from .linalg import Antiunitary

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


def _sign_from_doc(obj: Any, name: str) -> int:
    if obj not in (1, -1):
        raise DocumentError(f"{name} must be 1 or -1")
    return int(obj)


def to_document(t: SpectralTriple) -> dict:
    """The triple as the JSON object that `dumps` writes."""
    return json.loads(dumps(t))


def from_document(doc: Any) -> SpectralTriple:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    try:
        dim = int(doc["dim"])
        points = int(doc["points"])
        rep_list = doc["rep"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"missing or malformed header field: {exc}") from exc
    if not isinstance(rep_list, list) or len(rep_list) != dim:
        raise DocumentError("rep must list one point index per basis vector")
    try:
        rep = Representation(tuple(int(p) for p in rep_list))
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
            j=Antiunitary(_matrix_from_doc(robj["unitary"], dim, "real.unitary")),
            signs=SignTriple(eps=eps, eps_prime=eps_prime, eps_dprime=eps_dprime),
        )

    twist: Optional[Twist] = None
    tobj = doc.get("twist")
    if tobj is not None:
        if not isinstance(tobj, dict) or "nu" not in tobj:
            raise DocumentError("twist: expected an object with a nu matrix")
        flag = tobj.get("implements_automorphism")
        if not isinstance(flag, bool):
            raise DocumentError("twist.implements_automorphism must be a boolean")
        twist = Twist(nu=_matrix_from_doc(tobj["nu"], dim, "twist.nu"),
                      implements_algebra_automorphism=flag)

    try:
        return SpectralTriple(rep=rep, dirac=dirac, grading=grading, real=real, twist=twist)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def dumps(t: SpectralTriple) -> str:
    """The canonical text of a triple document.

    The text is emitted directly from the triple's arrays, byte for byte what
    json.dumps(doc, sort_keys=True, indent=2) gives for the document: keys
    sorted, two-space indentation, every float as its shortest round-trip
    repr, -0.0 written as 0.0, and a final newline.
    """
    real = twist = "null"
    if t.real is not None:
        signs = t.real.signs
        real = _object_text([
            ("eps", str(signs.eps)),
            ("eps_dprime", "null" if signs.eps_dprime is None else str(signs.eps_dprime)),
            ("eps_prime", str(signs.eps_prime)),
            ("unitary", _matrix_text(t.real.j.u, 4)),
        ], 2)
    if t.twist is not None:
        flag = t.twist.implements_algebra_automorphism
        twist = _object_text([
            ("implements_automorphism", "true" if flag else "false"),
            ("nu", _matrix_text(t.twist.nu, 4)),
        ], 2)
    return _object_text([
        ("dim", str(t.dim)),
        ("dirac", _matrix_text(t.dirac, 2)),
        ("grading", "null" if t.grading is None else _matrix_text(t.grading, 2)),
        ("points", str(t.rep.n_points)),
        ("real", real),
        ("rep", _json_block("[]", [str(p) for p in t.rep.point_of], 2)),
        ("twist", twist),
    ], 0) + "\n"


def loads(text: str) -> SpectralTriple:
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
