"""The three workloads and the closed loop that measures them.

Each workload is one process running one item at a time: the next item
starts when the previous one returns, nothing is queued, and the package
gets only the generated inputs. After each item, outside the timed region,
its outputs are compared with the reference answers from `references`.

- sweep: the acceptance-style pipeline on catalog triples of all six
  families (both signs of eps') and the two negative fixtures, with hop
  magnitudes spread over 24 decades. 3x3 and 4x4 kernels dominate.
- sampling: the C^2 nonexistence scan and the brute-force distance oracle.
  Everything is 2x2 or a per-sample Python loop.
- cli: scripted shell sessions, one `python -m twistriple.cli` process at a
  time. Interpreter start, imports and document I/O dominate.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import twistriple as api  # the package namespace; instrumentation leaves it alone
from twistriple.documents import dumps  # not re-exported by the package; bound before any rebinding

import references as ref
from spans import MODULES, NullTracer

PACKAGE_MODULES = {m: importlib.import_module(f"twistriple.{m}") for m in MODULES if m != "cli"}


# The machine this runs on changes speed by tens of percent within seconds
# (other tenants share its cores). A calibration is therefore timed before
# every item and after the last, and times are reported scaled to the
# reference speed at which the calibration takes exactly CAL_REF_S,
# CAL_2X2_REF_S or PASS_REF_S: t * ref / (median of the calibrations around the item).
# The calibrations use numpy and the interpreter but not the package, so a
# change to the package moves the scaled times and a change of machine
# speed does not. Raw wall-clock values are reported alongside.
CAL_REF_S = 300e-6   # in-process 4x4 kernel: sweep items
CAL_2X2_REF_S = 1e-3  # in-process 2x2 kernel: sampling rounds
PASS_REF_S = 40e-3   # `python -c pass`: cli commands and set-up probes
CAL_WINDOW = 5       # calibrations (odd) whose median scales one item

_CAL_MATRIX = (np.arange(16).reshape(4, 4) * (1.0 + 1.0j)) / 50.0


def calibration_kernel() -> float:
    """Wall time of a fixed mix of 4x4 numpy calls and Python object work."""
    t0 = perf_counter()
    a = _CAL_MATRIX
    for _ in range(40):
        b = a @ a.conj().T
        a = b / (1.0 + float(np.abs(b).sum()))
        _ = {"row": [float(x.real) for x in a[0]]}
    return perf_counter() - t0


_CAL_2X2 = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, -0.4]])


def calibration_kernel_2x2() -> float:
    """Wall time of a Python loop over 2x2 arrays with LAPACK norms, the
    shape of the sampling oracle's per-sample work; it tracks the machine's
    speed for those rounds better than the 4x4 kernel."""
    t0 = perf_counter()
    for k in range(30):
        a = np.array([[1.0, k * 0.01], [0.5, 2.0]], dtype=complex)
        b = a @ _CAL_2X2 - _CAL_2X2 @ a
        _ = float(np.linalg.norm(b, 2)) + float(np.abs(np.diag(b)).max())
    return perf_counter() - t0


def interpreter_start(root: str, env: dict) -> float:
    """Wall time of `python -c pass` in the checkout."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                   stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
    return perf_counter() - t0


@dataclass
class Phase:
    """What one measured stretch of the closed loop did."""

    durations: list = field(default_factory=list)    # wall seconds per item
    counted: list = field(default_factory=list)      # item counts toward latency percentiles
    calibrations: list = field(default_factory=list)  # one before each item, one after the last
    cal_ref: float = CAL_REF_S
    attempted: int = 0
    mismatched: int = 0                            # items with any wrong output
    wrong: int = 0                                 # ... outside the known defect windows
    buckets: Counter = field(default_factory=Counter)
    failed_spans: set = field(default_factory=set)  # (item id, span name)
    pool_mismatches: set = field(default_factory=set)  # pool indices of mismatched items
    measures: list = field(default_factory=list)    # per item: workload-specific values

    @property
    def speed_factors(self) -> np.ndarray:
        """Per item: reference over the median of the CAL_WINDOW calibrations
        around it; the median drops a calibration that was itself preempted."""
        c = np.asarray(self.calibrations)
        half = CAL_WINDOW // 2
        padded = np.concatenate([np.full(half, c[0]), c, np.full(half, c[-1])])
        around = np.median(np.lib.stride_tricks.sliding_window_view(padded, CAL_WINDOW), axis=1)
        return self.cal_ref / around[:len(c) - 1]

    def latencies(self, scaled: bool = True) -> np.ndarray:
        d = np.asarray(self.durations) * (self.speed_factors if scaled else 1.0)
        return d[np.asarray(self.counted, dtype=bool)]

    def items_per_s(self, scaled: bool = True) -> float:
        busy = np.asarray(self.durations) * (self.speed_factors if scaled else 1.0)
        return int(np.sum(self.counted)) / float(busy.sum())


def run_phase(wl, tracer, seconds: float, min_items: int = 1) -> Phase:
    """Run items in a closed loop for `seconds`, and at least `min_items`."""
    phase = Phase(cal_ref=wl.cal_ref)
    pool = wl.pool
    deadline = perf_counter() + seconds
    i = 0
    while i < min_items or perf_counter() < deadline:
        item = pool[i % len(pool)]
        tracer.item_id = i
        phase.calibrations.append(wl.calibrate())
        t0 = perf_counter()
        out = wl.run(tracer, item)
        phase.durations.append(perf_counter() - t0)
        phase.counted.append(wl.counted(item))
        phase.measures.append(wl.measures(out))
        phase.attempted += 1
        with tracer.paused():
            wrong = wl.check(item, out)
            if wrong:
                _classify(wl, tracer, item, out, wrong, phase)
                phase.pool_mismatches.add(i % len(pool))
        i += 1
    phase.calibrations.append(wl.calibrate())
    return phase


def _classify(wl, tracer, item, out: dict, wrong: list[str], phase: Phase):
    """Bucket each wrong output: unit_dependent when it lies inside a window
    of the absolute-tolerance defect (ROADMAP item 4), wrong otherwise."""
    genuine = False
    for span in wrong:
        label = "unit_dependent" if wl.in_defect_window(item, out, span) else "wrong"
        genuine |= label == "wrong"
        phase.buckets[f"{label}:{span}"] += 1
        phase.failed_spans.add((tracer.item_id, span))
    phase.mismatched += 1
    phase.wrong += genuine


def warm_up(wl, count: int):
    for item in wl.pool[:count]:
        wl.run(NullTracer(), item)


# ----------------------------------------------------------------- sweep

DERIVE = "derive_family"  # pool entry: derive_family for the 4 x 2 (family, eps') pairs


@dataclass(frozen=True)
class SweepItem:
    triple: ref.Triple
    phi: complex
    rescale: tuple[float, float] | None  # (rho, zeta) for untwisted members


class Sweep:
    name = "sweep"
    warm_up_items = 15
    min_items = 1
    cal_ref = CAL_REF_S
    calibrate = staticmethod(calibration_kernel)

    def __init__(self, seed: int, passes: int = 64, expected=ref.EXPECTED_FAILING):
        self.expected = expected
        rng = np.random.default_rng([seed, 1])
        # one triple per family and sign and one of each fixture per pass;
        # the composite alternates its sign between passes
        slots = [(k, e) for k in ref.FAMILIES for e in (1, -1)] + [("perm_bad", 1), ("perm_conformal", 0)]
        mags = {slot: ref.stratified_magnitudes(rng, passes, ref.WIDE_DECADES) for slot in slots}
        self.pool: list = []
        for p in range(passes):
            for k in rng.permutation(len(slots)):
                kind, eps = slots[k]
                triple = ref.draw_triple(rng, kind, eps or (1 if p % 2 == 0 else -1), mags[slots[k]][p])
                rescale = None
                if kind in ref.UNTWISTED:
                    rescale = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.5, 2.0)))
                self.pool.append(SweepItem(triple, ref.nondegenerate_phi(rng), rescale))
            self.pool.append(DERIVE)

    def counted(self, item) -> bool:
        return item is not DERIVE

    def in_defect_window(self, item, out: dict, span: str) -> bool:
        """An infinite distance below rank_tol, or a conformal check_all
        failing on rounding past ROUNDING_FLOOR; nothing else."""
        if item is DERIVE:
            return False
        tri = item.triple
        if span == "distance.spectral_distance" and "distance" in out:
            return ref.below_rank_tol(out["distance"], self._distance_reference(tri, out["built"]))
        if span == f"axioms.check_all.{tri.kind}" and "failing" in out:
            return ref.rounding_failures(tri, out["failing"])
        return False

    @staticmethod
    def _distance_reference(tri: ref.Triple, built) -> float:
        if tri.kind == "perm_conformal":  # no closed form
            return ref.lapack_distance(built.dirac, built.twist.nu)
        return 1.0 / tri.max_hop()

    def run(self, tr, item) -> dict:
        if item is DERIVE:
            out = {"derived": []}
            try:
                for f in ref.CORE_FAMILIES:
                    for e in (1, -1):
                        out["derived"].append((f, e, tr.call("catalog.derive_family", api.derive_family, f, e)))
            except Exception as exc:  # the benchmark keeps going and counts the failure
                out["raised"] = ("catalog.derive_family", f"{type(exc).__name__}: {exc}")
            return out
        kind = item.triple.kind
        out: dict = {}
        step = "catalog.build"
        try:
            fn, args, kwargs = item.triple.builder(api)
            t = out["built"] = tr.call(step, fn, *args, **kwargs)
            step = f"axioms.check_all.{kind}"
            out["failing"] = tr.call(step, api.check_all, t).failing()
            step = "axioms.is_irreducible"
            out["irreducible"] = tr.call(step, api.is_irreducible, t)
            step = "axioms.ko_dimension"
            try:
                out["ko"] = tr.call(step, api.ko_dimension, t.real.signs)
            except ValueError:  # signs outside the KO table
                out["ko"] = None
            step = "distance.spectral_distance"
            out["distance"] = tr.call(step, api.spectral_distance, t).value
            step = "forms.selfadjoint_one_form"
            form = tr.call(step, api.selfadjoint_one_form, t, item.phi)
            step = "forms.fluctuate"
            f = tr.call(step, api.fluctuate, t, form)
            step = "catalog.identify_family"
            out["ident"] = tr.call(step, api.identify_family, f)
            if item.rescale is not None:
                step = "conformal.rescale"
                rho, zeta = item.rescale
                f = tr.call(step, api.rescale, f, api.ConformalFactor(zeta=zeta, rho=rho))
                out["rescaled"] = (complex(f.dirac[0, 2]), np.diag(f.nu).real.copy())
            step = "documents.dumps"
            text = tr.call(step, dumps, f)
            step = "documents.loads"
            again = tr.call(step, api.loads, text)
            step = "documents.dumps"
            out["doc"] = (text, tr.call(step, dumps, again))
        except Exception as exc:  # the benchmark keeps going and counts the failure
            out["raised"] = (step, f"{type(exc).__name__}: {exc}")
        return out

    def check(self, item, out: dict) -> list[str]:
        wrong = [out["raised"][0]] if "raised" in out else []
        if item is DERIVE:
            return wrong + ["catalog.derive_family" for f, _, fam in out["derived"]
                            if fam.real_dimension != ref.EXPECTED_FAMILY_DIMENSION[f]]
        tri = item.triple
        if "failing" in out:
            must, exact = self.expected[tri.kind]
            failing = set(out["failing"])
            if not set(must) <= failing or (exact and failing != set(must)):
                wrong.append(f"axioms.check_all.{tri.kind}")
        if "irreducible" in out and out["irreducible"] != ref.EXPECTED_IRREDUCIBLE:
            wrong.append("axioms.is_irreducible")
        if "ko" in out and out["ko"] != ref.ko_reference((1, tri.eps_prime, 1)):
            wrong.append("axioms.ko_dimension")
        if "distance" in out:
            if not ref.close(out["distance"], self._distance_reference(tri, out["built"])):
                wrong.append("distance.spectral_distance")
        if "ident" in out and not self._identified(tri.fluctuated(item.phi), out["ident"]):
            wrong.append("catalog.identify_family")
        if "rescaled" in out:
            want = tri.fluctuated(item.phi).rescaled(*item.rescale)
            entry, nu_diag = out["rescaled"]
            if not (ref.close(entry, want.entry02())
                    and np.allclose(nu_diag, want.conformal_twist_diagonal(), rtol=ref.REL_TOL, atol=0)):
                wrong.append("conformal.rescale")
        if "doc" in out and out["doc"][0] != out["doc"][1]:
            wrong.append("documents.loads")
        return wrong

    @staticmethod
    def _identified(want: ref.Triple, ident) -> bool:
        if want.kind in ref.FIXTURES:
            return ident is None
        if ident is None or ident[0] != want.kind:
            return False
        params = ident[1]
        if want.kind in ref.CONFORMAL:
            return ref.close(params["hop1"], want.entry02()) and abs(params["rho"] - want.rho) <= ref.REL_TOL
        return ref.close(params["d1"], want.d1)

    def measures(self, out: dict) -> dict:
        return {"doc_bytes": len(out["doc"][0])} if "doc" in out else {}

    def extra_metrics(self, phase: Phase) -> dict:
        return {"triple_ms_p99": (float(np.percentile(phase.latencies(), 99)) * 1e3, "ms")}


# -------------------------------------------------------------- sampling

@dataclass(frozen=True)
class SamplingItem:
    scan_seed: int
    triple: ref.Triple  # the oracle's triple, one of the six families
    oracle_seed: int


class Sampling:
    """Rounds of the acceptance suite's sampling mix.

    Criterion 9 runs 1000 scan trials and criterion 4 runs 72 oracle calls
    of 300 samples (12 per family), so a round is one scan call of 14 trials
    (1000/72) and one oracle call of 300 samples, the families in turn.
    The scan takes about 80 % of a round, as it takes most of that suite time.
    """

    name = "sampling"
    warm_up_items = 2
    min_items = 110  # round_ms_p90 needs ten samples beyond it
    cal_ref = CAL_2X2_REF_S
    calibrate = staticmethod(calibration_kernel_2x2)
    scan_trials = 14      # per round
    oracle_samples = 300  # per round

    def __init__(self, seed: int, items: int = 240):
        rng = np.random.default_rng([seed, 2])
        mags = ref.stratified_magnitudes(rng, items, ref.WIDE_DECADES)
        self.pool = []
        for i in range(items):
            family = ref.FAMILIES[i % len(ref.FAMILIES)]
            eps = 1 if (i // len(ref.FAMILIES)) % 2 == 0 else -1
            self.pool.append(SamplingItem(int(rng.integers(2 ** 31)), ref.draw_triple(rng, family, eps, mags[i]),
                                          int(rng.integers(2 ** 31))))

    def counted(self, item) -> bool:
        return True

    def in_defect_window(self, item, out: dict, span: str) -> bool:
        return False  # the oracle needs no rank threshold; every mismatch counts as wrong

    def run(self, tr, item) -> dict:
        out: dict = {}
        step = "catalog.scan_per_trial"
        try:
            t0 = perf_counter()
            report = tr.call(step, api.scan_c2_nonexistence, self.scan_trials, item.scan_seed,
                             units=self.scan_trials)
            t1 = perf_counter()
            out["scan"] = (report.conclusion, report.failures_of_order_one, len(report.j_shapes_tested))
            out["scan_s"] = t1 - t0
            step = "catalog.build"
            fn, args, kwargs = item.triple.builder(api)
            t = tr.call(step, fn, *args, **kwargs)
            step = "distance.bruteforce_per_sample"
            out["oracle"] = tr.call(step, api.distance_bruteforce, t, self.oracle_samples,
                                    item.oracle_seed, units=self.oracle_samples)
            out["oracle_s"] = perf_counter() - t1
        except Exception as exc:  # the benchmark keeps going and counts the failure
            out["raised"] = (step, f"{type(exc).__name__}: {exc}")
        return out

    def check(self, item, out: dict) -> list[str]:
        wrong = [out["raised"][0]] if "raised" in out else []
        if "scan" in out:
            conclusion, failures, shapes = out["scan"]
            if not (conclusion and shapes > 0 and failures == self.scan_trials * shapes):
                wrong.append("catalog.scan_per_trial")
        if "oracle" in out and not ref.close(out["oracle"], 1.0 / item.triple.max_hop(), ref.ORACLE_TOL):
            wrong.append("distance.bruteforce_per_sample")
        return wrong

    def measures(self, out: dict) -> dict:
        return {k: out[k] for k in ("scan_s", "oracle_s") if k in out}

    def extra_metrics(self, phase: Phase) -> dict:
        def rate(key: str, units: int) -> float:
            pairs = [(f, m[key]) for f, m in zip(phase.speed_factors, phase.measures) if key in m]
            return len(pairs) * units / sum(f * t for f, t in pairs)

        return {"scan_trials_per_s": (rate("scan_s", self.scan_trials), "1/s"),
                "oracle_samples_per_s": (rate("oracle_s", self.oracle_samples), "1/s")}


# ------------------------------------------------------------------- cli

@dataclass(frozen=True)
class Command:
    sub: str
    argv: tuple[str, ...]
    expect_exit: int
    session: "Session"


@dataclass(frozen=True)
class Session:
    triple: ref.Triple
    phi: complex
    rescale: tuple[float, float] | None
    base: str
    final: str
    signs: tuple[int, ...]  # for kodim


def _lit(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    name = "cli"
    warm_up_items = 1
    min_items = 110  # cmd_ms_p90 needs ten samples beyond it
    cal_ref = PASS_REF_S

    def __init__(self, seed: int, root: str, sessions: int = 28, expected=ref.EXPECTED_FAILING):
        self.root = root
        self.workdir = ".perfbench_out/cli"  # relative to the checkout root, the commands' cwd
        os.makedirs(os.path.join(root, self.workdir), exist_ok=True)
        self.env = child_env(root)
        self.expected = expected
        rng = np.random.default_rng([seed, 3])
        kinds = list(ref.FAMILIES) + ["perm_bad"]
        mags = ref.stratified_magnitudes(rng, sessions, ref.CLI_DECADES)
        ko_signs = list(ref.KO_EVEN) + list(ref.KO_ODD)
        self.pool = []
        for s in range(sessions):
            kind = kinds[s % len(kinds)]
            eps = 1 if (s // len(kinds)) % 2 == 0 else -1
            triple = ref.draw_triple(rng, kind, eps, mags[s])
            rescale = None
            if kind in ref.UNTWISTED:
                rescale = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.5, 2.0)))
            self.pool.extend(self._session(s, triple, ref.nondegenerate_phi(rng), rescale,
                                           ko_signs[int(rng.integers(len(ko_signs)))]))

    def _session(self, s: int, tri: ref.Triple, phi: complex, rescale, signs) -> list[Command]:
        base, fluct, resc = (f"{self.workdir}/s{s}_{tag}.json" for tag in ("base", "fluct", "rescaled"))
        final = resc if rescale else fluct
        session = Session(tri, phi, rescale, base, final, signs)
        must, _ = self.expected[tri.kind]
        check_exit = 1 if must else 0
        space = "c3" if tri.kind.startswith("c3") else "c4"
        # values go in --opt=value form: a leading minus would read as an option
        catalog = ["catalog", space, f"--eps-prime={tri.eps_prime}", f"--d1={_lit(tri.d1)}"]
        if space == "c4" or tri.kind == "c3_perm":
            catalog.append(f"--d2={_lit(tri.d2)}")
        twist = {"c3_perm": "perm", "c4_perm": "perm", "perm_bad": "perm_bad",
                 "c3_conformal": "conformal", "c4_conformal": "conformal"}.get(tri.kind)
        if twist:
            catalog.append(f"--twist={twist}")
        if twist == "conformal":
            catalog += [f"--rho={tri.rho!r}", f"--zeta={tri.zeta!r}"]
        cmds = [("catalog", catalog + ["-o", base], 0),
                ("check", ["check", base], check_exit),
                ("fluctuate", ["fluctuate", base, f"--phi={_lit(phi)}", "-o", fluct], 0)]
        if rescale:
            cmds.append(("rescale", ["rescale", fluct, f"--rho={rescale[0]!r}",
                                     f"--zeta={rescale[1]!r}", "-o", resc], 0))
        cmds.append(("distance", ["distance", final, "--json"], 0))
        cmds.append(("check", ["check", final, "--json"], check_exit))
        kodim = ["kodim", f"--eps={signs[0]}", f"--eps-prime={signs[1]}"]
        if len(signs) == 3:
            kodim.append(f"--eps-dprime={signs[2]}")
        cmds.append(("kodim", kodim, 0))
        return [Command(sub, tuple(argv), code, session) for sub, argv, code in cmds]

    def counted(self, item) -> bool:
        return True

    def in_defect_window(self, item, out: dict, span: str) -> bool:
        return False  # the sessions draw hops near 1; every mismatch counts as wrong

    def calibrate(self) -> float:
        return interpreter_start(self.root, self.env)

    def run(self, tr, cmd: Command) -> dict:
        try:
            proc = tr.call(f"cli.{cmd.sub}", subprocess.run,
                           [sys.executable, "-m", "twistriple.cli", *cmd.argv],
                           cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                           capture_output=True, text=True, timeout=120)
        except (OSError, subprocess.SubprocessError) as exc:
            return {"raised": (f"cli.{cmd.sub}", f"{type(exc).__name__}: {exc}")}
        return {"proc": proc}

    def check(self, cmd: Command, out: dict) -> list[str]:
        span = f"cli.{cmd.sub}"
        if "raised" in out or out["proc"].returncode != cmd.expect_exit:
            return [span]
        try:
            ok = self._output_ok(cmd, out["proc"].stdout)
        except (OSError, ValueError, KeyError, TypeError):  # unreadable output is a wrong output
            ok = False
        return [] if ok else [span]

    def _output_ok(self, cmd: Command, stdout: str) -> bool:
        s = cmd.session
        tri = s.triple
        if cmd.sub == "catalog":
            fn, args, kwargs = tri.builder(api)
            with open(os.path.join(self.root, s.base), encoding="ascii") as fh:
                return fh.read() == dumps(fn(*args, **kwargs))
        if cmd.sub == "distance":
            got = json.loads(stdout)["value"]
            final = api.load(os.path.join(self.root, s.final))
            if got != api.spectral_distance(final).value:
                return False
            if tri.kind == "perm_bad":  # no closed form after fluctuation
                want = ref.lapack_distance(final.dirac, final.twist.nu)
            else:
                want_tri = tri.fluctuated(s.phi)
                if s.rescale:
                    want_tri = want_tri.rescaled(*s.rescale)
                want = 1.0 / want_tri.max_hop()
            return ref.close(got, want)
        if cmd.sub == "check" and "--json" in cmd.argv:
            return json.loads(stdout)["overall_pass"] == (cmd.expect_exit == 0)
        if cmd.sub == "kodim":
            return int(stdout) == ref.ko_reference(s.signs)
        return True

    def measures(self, out: dict) -> dict:
        return {}

    def extra_metrics(self, phase: Phase) -> dict:
        return {}


def cli_baselines(root: str, repeats: int) -> dict[str, float]:
    """Split of a command's start-up: interpreter, numpy import, package import.

    `cli.interpreter_ms` is the wall-clock median of `python -c pass`. The
    two import increments are scaled like the commands: each is divided by
    the `python -c pass` of its own repeat and multiplied by PASS_REF_S, so
    a command's scaled time is PASS_REF_S + both increments + its own work.
    """
    env = child_env(root)
    probes = {"pass": "pass", "numpy": "import numpy", "package": "import twistriple"}
    times: dict[str, list[float]] = {k: [] for k in probes}
    for _ in range(repeats):
        for key, code in probes.items():  # interleaved, so drift hits all three alike
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                           stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
            times[key].append(perf_counter() - t0)
    t = {k: np.asarray(v) for k, v in times.items()}
    return {"cli.interpreter_ms": float(np.median(t["pass"])) * 1e3,
            "cli.numpy_import_ms": float(np.median((t["numpy"] - t["pass"]) / t["pass"])) * PASS_REF_S * 1e3,
            "cli.package_import_ms": float(np.median((t["package"] - t["numpy"]) / t["pass"])) * PASS_REF_S * 1e3}


def make(workload: str, seed: int, root: str, small: bool = False, expected=ref.EXPECTED_FAILING):
    """Generate a workload's inputs. `small` gives the self-check's tiny pools."""
    if workload == "sweep":
        return Sweep(seed, passes=2 if small else 64, expected=expected)
    if workload == "sampling":
        return Sampling(seed, items=6 if small else 240)
    if workload == "cli":
        return Cli(seed, root, sessions=7 if small else 28, expected=expected)
    raise ValueError(f"unknown workload {workload!r}")
