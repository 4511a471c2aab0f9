"""In-memory span recording for the traced run.

A span is one call: its name, start and end (perf_counter_ns), the span
that was open when it started (its parent, -1 at the top), the id of the
workload item it served, and a unit count (trials or samples for calls
that are reported per unit). Spans live in flat arrays so that a traced
run of a few hundred thousand calls stays small, and are written out once
when the run ends.

The benchmark records spans in two ways, both from its own files: around
each call it makes into the package (`Tracer.call`), and, while
`instrument` is active, around calls the package makes between its own
modules, by rebinding the public functions in the package's module
namespaces to recording wrappers. Nothing under src/ is edited.
"""

from __future__ import annotations

import contextlib
import inspect
import json
from array import array
from time import perf_counter_ns

import numpy as np

# Package modules, which are also the layers the per-layer metrics name.
MODULES = ("linalg", "algebra", "axioms", "forms", "conformal", "distance",
           "catalog", "documents", "cli")


class NullTracer:
    """Tracing off: `call` is a plain call, so untraced runs pay nothing."""

    item_id = -1

    def call(self, name, fn, *args, units=1, **kwargs):
        return fn(*args, **kwargs)

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.units = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.item_id = -1
        self.active = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, units: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.units.append(units)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, units=1, **kwargs):
        i = self._open(self.name_id(name), units)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    @contextlib.contextmanager
    def paused(self):
        """Package calls made inside (reference checks) record no spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "units": np.frombuffer(self.units, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer._open(nid, 1)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._close(i)

    return wrapper


def _wrap_operator_norm(tracer: Tracer, fn):
    # One span name per matrix size: the 2x2 closed form and the 3x3/4x4
    # Jacobi sweeps are different kernels with different callers.
    ids = {n: tracer.name_id(f"linalg.operator_norm.n{n}") for n in (2, 3, 4)}
    other = tracer.name_id("linalg.operator_norm.other")

    def wrapper(m):
        if not tracer.active:
            return fn(m)
        shape = getattr(m, "shape", None)
        i = tracer._open(ids.get(shape[0], other) if shape else other, 1)
        try:
            return fn(m)
        finally:
            tracer._close(i)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, package_modules: dict):
    """Rebind every public function of the package to a recording wrapper.

    `package_modules` maps a layer name (e.g. "linalg") to the imported
    module. Each public function is replaced wherever a package module
    binds it (``from .linalg import operator_norm`` makes one binding per
    importer), and `Antiunitary.conjugate` is wrapped on the class. All
    bindings are restored on exit.
    """
    saved: list[tuple[object, str, object]] = []
    wrappers: dict[int, object] = {}
    for layer, mod in package_modules.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr == "operator_norm":
                wrappers[id(fn)] = _wrap_operator_norm(tracer, fn)
            else:
                wrappers[id(fn)] = _wrap(tracer, fn, f"{layer}.{attr}")
    try:
        for mod in package_modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, w)
        antiunitary = package_modules["linalg"].Antiunitary
        conjugate = antiunitary.conjugate
        saved.append((antiunitary, "conjugate", conjugate))
        antiunitary.conjugate = _wrap(tracer, conjugate, "linalg.conjugate")
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def summarize(tracer: Tracer, failed_spans: set[tuple[int, str]], speed_factors: np.ndarray) -> dict:
    """Per span name and per layer: calls, self time, median latency, failures.

    Durations are scaled by the speed factor of the item each span served
    (see workloads.Phase). Self time is a span's duration minus the
    durations of its children. `us_p50` is the median inclusive duration
    per unit (per call, or per trial/sample for spans recorded with units).
    A span fails when the benchmark found its output wrong: `failed_spans`
    holds (item id, span name) pairs of top-level spans. Also returns the
    per-span failure mask.
    """
    a = tracer.arrays()
    dur = (a["end_ns"] - a["start_ns"]) * np.asarray(speed_factors)[a["item"]]
    has_parent = a["parent"] >= 0
    child_sum = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
    self_ns = dur - child_sum
    failed = np.zeros(dur.size, dtype=bool)
    if failed_spans:
        top = np.flatnonzero(~has_parent)
        lookup = {(int(a["item"][i]), int(a["name"][i])): i for i in top}
        for item, name in failed_spans:
            i = lookup.get((item, tracer._ids.get(name, -1)))
            if i is not None:
                failed[i] = True
    per_name: dict[str, dict] = {}
    per_layer = {m: {"calls": 0, "busy_s": 0.0, "fail": 0} for m in MODULES}
    for nid, name in enumerate(tracer.names):
        sel = a["name"] == nid
        if not sel.any():
            continue
        units = a["units"][sel]
        stats = {
            "calls": int(units.sum()),
            "busy_s": float(self_ns[sel].sum()) / 1e9,
            "us_p50": float(np.median(dur[sel] / units)) / 1e3,
            "fail": int(failed[sel].sum()),
        }
        per_name[name] = stats
        layer = per_layer.get(name.split(".", 1)[0])
        if layer is not None:
            layer["calls"] += int(sel.sum())
            layer["busy_s"] += stats["busy_s"]
            layer["fail"] += stats["fail"]
    return {"names": per_name, "layers": per_layer, "failed": failed}


def write_spans(path, tracer: Tracer, failed: np.ndarray, speed_factors: np.ndarray, meta: dict):
    """Spans (wall-clock) as compressed columns, the per-item speed factors,
    and the name table and run metadata as JSON beside them."""
    np.savez_compressed(path, failed=failed, item_speed_factor=np.asarray(speed_factors),
                        **tracer.arrays())
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, **meta}, fh, indent=1, sort_keys=True)
