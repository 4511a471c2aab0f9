"""Self-check of the benchmark: a tiny run of every workload.

    python3 perfbench/selfcheck.py

Takes well under a minute. It asserts that

- every metric BENCHMARK.json names is emitted, with its unit, by the
  untraced (end-to-end) and the traced (per-layer) run of each workload,
  with a finite value, and nothing else is emitted;
- the result line has exactly the keys `correct`, `attempted`, `failed`
  and `metrics`;
- a deliberately wrong reference answer, `perm_bad` labelled as passing
  every check, is counted as a failure (by the sweep and by the shell
  session), not dropped;
- the two windows of the known scale defect take in only the documented
  patterns, so any other mismatch counts as wrong.

Exits 1 and lists the problems when any assertion fails.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace

import run


def main() -> int:
    problems: list[str] = []

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(what)

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expect(wanted[False] == dict(run.END_TO_END), "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(list(wanted[True].items()) == [(n, u) for n, u, _ in run.per_layer_spec()],
           "BENCHMARK.json per_layer differs from run.per_layer_spec()")

    for workload in run.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            res = run.run_workload(workload, seed=7, seconds=0.5, trace=trace, small=True)
            units = {name: unit for name, (_, unit) in res["metrics"].items()}
            expect(units == wanted[trace], f"{label}: metrics/units differ from BENCHMARK.json: "
                   f"missing {sorted(set(wanted[trace]) - set(units))}, "
                   f"extra {sorted(set(units) - set(wanted[trace]))}")
            bad = [n for n, (v, _) in res["metrics"].items()
                   if not isinstance(v, (int, float)) or not math.isfinite(v)]
            expect(not bad, f"{label}: non-finite values {bad}")
            line = json.loads(run.result_json(res))
            expect(sorted(line) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys {sorted(line)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{label}: correct={res['correct']} failed={res['failed']} attempted={res['attempted']}")

    import references
    import spans
    import workloads

    wrong_ref = dict(references.EXPECTED_FAILING, perm_bad=((), True))
    res = run.run_workload("sweep", seed=7, seconds=0.5, trace=False, small=True, expected=wrong_ref)
    expect(not res["correct"] and res["failed"] >= 1, f"sweep: wrong reference not counted ({res['failed']} failed)")
    expect(any("wrong:axioms.check_all.perm_bad" in ln for ln in res["lines"]),
           "sweep: wrong reference missing from the error buckets")

    cli = workloads.make("cli", 7, run.ROOT, small=True, expected=wrong_ref)
    cli.pool = [c for c in cli.pool if c.session.triple.kind == "perm_bad"][:2]  # catalog, check
    phase = workloads.run_phase(cli, spans.NullTracer(), 0.0, min_items=2)
    expect(phase.wrong == 1 and phase.buckets.get("wrong:cli.check") == 1,
           f"cli: wrong reference not counted ({dict(phase.buckets)})")

    # the defect windows take in only the two documented patterns
    conformal = references.Triple("c4_conformal", 1, 1e9 + 0j, 1e8 + 0j, rho=0.3, zeta=1.2)
    expect(references.below_rank_tol(math.inf, 1e10) and not references.below_rank_tol(math.inf, 1e8)
           and not references.below_rank_tol(2e10, 1e10), "below_rank_tol window is not exact")
    expect(references.rounding_failures(conformal, ["epsilon_prime", "dirac_selfadjoint"])
           and not references.rounding_failures(conformal, ["epsilon_prime", "twisted_regularity"])
           and not references.rounding_failures(replace(conformal, d1=1e3 + 0j, d2=1e2 + 0j), ["epsilon_prime"])
           and not references.rounding_failures(references.Triple("c4_perm", 1, 1e9 + 0j, 1e8 + 0j),
                                                ["epsilon_prime"]),
           "rounding_failures window is not exact")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
