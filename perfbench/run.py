"""twistriple benchmark: seeded sweep, sampling and cli workloads.

Run from the root of a twistriple checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
runs the same items twice for seconds/2 each, untraced then traced, and
reports the per-layer metrics from the traced half and the tracing
overhead from the difference. Every output is checked against the
benchmark's own reference answers. Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy is imported; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep", "sampling", "cli")

SETUP_REPEATS = 5      # set-up probes per run; setup_s is their median
BASELINE_REPEATS = 7   # interpreter/import probes per traced run

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
)

# Each workload's own names for the generic metrics.
WORKLOAD_NAMES = {
    "sweep": {"items_per_s": "triples_per_s", "item_ms_p50": "triple_ms_p50", "item_ms_p90": "triple_ms_p90"},
    "sampling": {"items_per_s": "rounds_per_s", "item_ms_p50": "round_ms_p50", "item_ms_p90": "round_ms_p90"},
    "cli": {"items_per_s": "cmds_per_s", "item_ms_p50": "cmd_ms_p50", "item_ms_p90": "cmd_ms_p90"},
}
ITEM_NOUN = {"sweep": "triples", "sampling": "rounds", "cli": "commands"}

# Calls reported one by one in the traced run (us_p50, calls, busy_s each).
NAMED_CALLS = (
    "linalg.operator_norm.n2", "linalg.operator_norm.n3", "linalg.operator_norm.n4",
    "linalg.conjugate", "linalg.commutator", "linalg.commutant_dimension",
    "linalg.solve_linear_family",
    *(f"axioms.check_all.{k}" for k in (
        "c3_untwisted", "c3_perm", "c4_untwisted", "c4_perm", "c3_conformal", "c4_conformal",
        "perm_bad", "perm_conformal")),
    "forms.fluctuate", "conformal.rescale", "distance.spectral_distance",
    "catalog.build", "catalog.identify_family",
    "distance.bruteforce_per_sample", "algebra.embed", "catalog.scan_per_trial",
    "documents.dumps", "documents.loads",
)
CLI_SUBCOMMANDS = ("check", "catalog", "fluctuate", "rescale", "distance", "kodim")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    from spans import MODULES
    spec = []
    for name in NAMED_CALLS:
        spec += [(f"{name}.us_p50", "us", "lower"), (f"{name}.calls", "count", "higher"),
                 (f"{name}.busy_s", "s", "lower")]
    for layer in MODULES:
        spec += [(f"{layer}.calls", "count", "higher"), (f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.fail", "count", "lower")]
    spec.append(("documents.bytes", "bytes", "lower"))
    spec += [(f"cli.{k}", "ms", "lower")
             for k in ("interpreter_ms", "numpy_import_ms", "package_import_ms")]
    spec += [(f"cli.{sub}_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS]
    spec += [("trace.overhead_pct", "%", "lower"),
             ("errors.mismatch_rate", "ratio", "lower"),
             ("errors.unit_dependent", "count", "lower"),
             ("errors.wrong", "count", "lower")]
    return spec


def _require_package():
    """Put the checkout's src/ first on the path; fail when the package is missing."""
    if not os.path.isfile(os.path.join(SRC, "twistriple", "__init__.py")):
        raise SystemExit(f"error: no twistriple package under {SRC}; run from a twistriple checkout")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def setup_probe(workload: str, seed: int) -> float:
    """Import the package and generate the inputs; the time it took."""
    t0 = perf_counter()
    _require_package()
    import workloads
    workloads.make(workload, seed, ROOT)
    return perf_counter() - t0


def measure_setup(workload: str, seed: int, repeats: int) -> tuple[float, float]:
    """Median set-up time over fresh processes, scaled and wall.

    One unmeasured probe warms the bytecode cache. Each measured probe sits
    between two `python -c pass` calibrations, like the items of a phase.
    """
    import workloads
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    env = workloads.child_env(ROOT)
    probes = workloads.Phase(cal_ref=workloads.PASS_REF_S)
    for i in range(repeats + 1):
        if i:
            probes.calibrations.append(workloads.interpreter_start(ROOT, env))
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=120, check=True)
        if i:
            probes.durations.append(float(proc.stdout.split()[-1]))
            probes.counted.append(True)
    probes.calibrations.append(workloads.interpreter_start(ROOT, env))
    return statistics.median(probes.latencies()), statistics.median(probes.latencies(scaled=False))


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu": cpu, "nproc": os.cpu_count(), "seed": seed, "commit": _commit(),
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _error_lines(wl_name: str, phase) -> list[str]:
    rate = phase.mismatched / phase.attempted
    lines = [f"{wl_name}.error_rate = {rate:.6f} ratio "
             f"({phase.mismatched} of {phase.attempted} items; {phase.wrong} wrong outside the defect windows; "
             f"{len(phase.pool_mismatches)} distinct items of the seed's pool)"]
    lines += [f"  {bucket}: {n}" for bucket, n in sorted(phase.buckets.items())]
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 expected=None) -> dict:
    """Measure one workload. Returns the result object plus report lines.

    `small` and `expected` serve the self-check: tiny input pools, and
    replacement reference verdicts.
    """
    _require_package()
    import numpy as np
    import references
    import spans
    import twistriple
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(twistriple.__file__))) != SRC:
        raise SystemExit(f"error: imported twistriple from {twistriple.__file__}, not from {SRC}")
    env = environment(seed)
    lines = ["env " + json.dumps(env, sort_keys=True)]
    setup = None if trace else measure_setup(name, seed, 1 if small else SETUP_REPEATS)
    wl = workloads.make(name, seed, ROOT, small=small,
                        expected=expected or references.EXPECTED_FAILING)
    workloads.warm_up(wl, wl.warm_up_items)
    if not trace:
        phase = workloads.run_phase(wl, spans.NullTracer(), seconds, 1 if small else wl.min_items)
        metrics, named = _end_to_end_metrics(name, wl, phase, setup, seconds, lines)
        phases = [phase]
    else:
        plain = workloads.run_phase(wl, spans.NullTracer(), seconds / 2)
        tracer = spans.Tracer()
        with spans.instrument(tracer, workloads.PACKAGE_MODULES):
            traced = workloads.run_phase(wl, tracer, seconds / 2)
        summary = spans.summarize(tracer, traced.failed_spans, traced.speed_factors)
        baselines = workloads.cli_baselines(ROOT, 1 if small else BASELINE_REPEATS)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.npz")
        spans.write_spans(spans_path, tracer, summary["failed"], traced.speed_factors,
                          {"env": env, "workload": name, "seconds": seconds / 2})
        metrics = named = _per_layer_metrics(summary, baselines, plain, traced)
        lines.append(f"tracing overhead: {metrics['trace.overhead_pct'][0]:.2f}% of items_per_s "
                     f"(untraced {plain.items_per_s():.6g}/s, traced {traced.items_per_s():.6g}/s, "
                     f"{int(np.sum(plain.counted))} and {int(np.sum(traced.counted))} {ITEM_NOUN[name]})")
        lines.append(f"spans: {len(tracer.name)} written to {os.path.relpath(spans_path, ROOT)}")
        for span_name, st in sorted(summary["names"].items()):
            lines.append(f"  {span_name}: calls={st['calls']} busy_s={st['busy_s']:.6f} "
                         f"us_p50={st['us_p50']:.3f} fail={st['fail']}")
        lines += [f"baseline {k} = {v:.6g} ms (median of {BASELINE_REPEATS}; interpreter wall, imports scaled)"
                  for k, v in baselines.items()]
        lines += _error_lines(name, plain) + _error_lines(name, traced)
        phases = [plain, traced]
    failed = sum(p.wrong for p in phases)
    return {"correct": failed == 0, "attempted": sum(p.attempted for p in phases), "failed": failed,
            "metrics": metrics, "named": named, "lines": lines}


def _end_to_end_metrics(name: str, wl, phase, setup, seconds: float, lines: list[str]):
    """The generic end-to-end metrics, and the same under the workload's own names."""
    import numpy as np

    def values(scaled: bool) -> dict:
        lat = phase.latencies(scaled)
        p50, p90 = np.percentile(lat, [50, 90]) * 1e3
        return {"setup_s": setup[0 if scaled else 1], "items_per_s": phase.items_per_s(scaled),
                "item_ms_p50": float(p50), "item_ms_p90": float(p90)}

    scaled_values, wall_values = values(True), values(False)
    metrics = {key: (scaled_values[key], unit) for key, unit in END_TO_END}
    named = {}
    for key, (value, unit) in metrics.items():
        own_name = f"{name}.{WORKLOAD_NAMES[name].get(key, key)}"
        named[own_name] = (value, unit)
        note = f"wall {wall_values[key]:.6g}"
        if key == "setup_s":
            note += f", median of {SETUP_REPEATS} probes"
        elif "_ms_" in key:
            note += f", n={int(np.sum(phase.counted))} {ITEM_NOUN[name]} in {seconds:g} s"
        lines.append(f"{own_name} = {value:.6g} {unit} ({note})  [{key}]")
    for key, (value, unit) in wl.extra_metrics(phase).items():
        named[f"{name}.{key}"] = (value, unit)
        lines.append(f"{name}.{key} = {value:.6g} {unit}")
    named[f"{name}.error_rate"] = (phase.mismatched / phase.attempted, "ratio")
    lines += _error_lines(name, phase)
    cal = np.asarray(phase.calibrations) * 1e3
    lines.append(f"calibration: median {np.median(cal):.4g} ms, range {cal.min():.4g}-{cal.max():.4g} ms "
                 f"(reference {phase.cal_ref * 1e3:g} ms)")
    return metrics, named


def _per_layer_metrics(summary, baselines, plain, traced) -> dict:
    import numpy as np
    from spans import MODULES
    names, layers = summary["names"], summary["layers"]
    values: dict[str, float] = {}
    for name in NAMED_CALLS:
        st = names.get(name, {"us_p50": 0.0, "calls": 0, "busy_s": 0.0})
        values.update({f"{name}.us_p50": st["us_p50"], f"{name}.calls": st["calls"],
                       f"{name}.busy_s": st["busy_s"]})
    for layer in MODULES:
        for key in ("calls", "busy_s", "fail"):
            values[f"{layer}.{key}"] = layers[layer][key]
    doc_bytes = [m["doc_bytes"] for m in traced.measures if "doc_bytes" in m]
    values["documents.bytes"] = float(np.mean(doc_bytes)) if doc_bytes else 0.0
    values.update(baselines)
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}_ms"] = names.get(f"cli.{sub}", {"us_p50": 0.0})["us_p50"] / 1e3
    values["trace.overhead_pct"] = 100.0 * (1.0 - traced.items_per_s() / plain.items_per_s())
    attempted = plain.attempted + traced.attempted
    values["errors.mismatch_rate"] = (plain.mismatched + traced.mismatched) / attempted
    values["errors.unit_dependent"] = sum(n for p in (plain, traced) for b, n in p.buckets.items()
                                          if b.startswith("unit_dependent:"))
    values["errors.wrong"] = plain.wrong + traced.wrong
    return {name: (values[name], unit) for name, unit, _ in per_layer_spec()}


def result_json(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_package()
    if args.setup_probe:
        print(f"{setup_probe(args.workload, args.seed):.9f}")
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})", flush=True)
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(results[name]["lines"]), flush=True)
    if args.workload == "all":
        merged = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {k: v for r in results.values() for k, v in r["named"].items()}}
        print(result_json(merged))
    else:
        print(result_json(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
