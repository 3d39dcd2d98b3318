#!/usr/bin/env python3
"""Benchmark of hapticbayes: end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload classify --seed 0 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 50

Workloads are described in ``workloads.py``.  Every run drives the public
API from one process and one thread in a closed loop: each call waits for
the previous one.  It repeats passes over the same seeded inputs for
``--seconds``, checks every output, prints a report of every metric with
its unit and sample count, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` patches nothing and reports the end-to-end metrics.
``touches_per_s`` is the touches of one pass over the time of that pass
with every piece of work at its fastest execution in the run; a piece is
one touch on the explore workloads and one chunk of trials (a few
milliseconds) on ``classify``.  On a shared machine whose speed swings by
tens of percent over seconds, yet leaves millisecond-scale gaps, that sum
repeats far better than any one pass does.  The median pass is printed
next to it.
``--trace 1`` alternates untraced passes with passes during which the
layers are wrapped (``tracing.py``), and reports the per-layer metrics and
the tracing overhead.  ``--workload all`` runs every workload both ways,
each in its own process.  The library is imported from the ``src/`` tree
next to this directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("classify", "explore_plane", "explore_volume")

#: Thread pools that BLAS and OpenMP builds of numpy/scipy may start.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Traced set-ups in the traced run, for the set-up layers.
TRACED_SETUPS = 3

#: End-to-end metrics: name -> (unit, what one sample is).  Only those
#: defined on every workload go into the JSON result
#: (``DECLARED_END_TO_END``); the rest are printed in the report, as n/a
#: where they do not apply.
END_TO_END = {
    "setup_s": ("s", "set-ups"),
    "touches_per_s": ("1/s", "executions"),
    "touches_per_s_median_pass": ("1/s", "passes"),
    "touch_us_p50": ("us", "intervals"),
    "touch_us_p95": ("us", "intervals"),
    "peak_rss_mib": ("MiB", "process"),
    "fail_frac": ("1", "trials"),
    "accuracy_mean": ("1", "sweep cells"),
    "closure_rate": ("1", "trials"),
    "gamma_per_l_cm": ("cm", "trials"),
}
DECLARED_END_TO_END = ("setup_s", "touches_per_s", "peak_rss_mib")

#: Per-layer metrics beyond the layers' own, reported by the traced run;
#: the ratios are printed only, since most are undefined on ``classify``.
TRACE_RATIOS = {
    "perception.degenerate_ratio": "updates",
    "attention.degenerate_ratio": "target posteriors",
    "attention.inhibition_field.changed_ratio": "entries",
    "attention.uncertainty_field.changed_ratio": "entries",
    "attention.omega_field.changed_ratio": "entries",
    "attention.saliency_field.changed_ratio": "entries",
    "simulator.revisit_ratio": "touches",
}
CHANGED_FIELDS = ("inhibition", "uncertainty", "omega", "saliency")


def declared_per_layer(tracing) -> tuple:
    """The per-layer metric names of the JSON result, in report order."""
    names = []
    for t in tracing.TARGETS:
        names += [f"{t.span}.calls", f"{t.span}.self_pct"]
    return tuple(names) + ("benchmark.pass.self_pct",
                           "benchmark.on_iteration.self_pct",
                           "trace.overhead_pct", "trace.us_per_touch",
                           "perception.degenerate_ratio")


# ---------------------------------------------------------------------------
# environment

def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import hapticbayes from this checkout's ``src/`` or stop."""
    if not (SRC / "hapticbayes" / "__init__.py").is_file():
        sys.exit(f"benchmark: no hapticbayes sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hapticbayes
    if Path(hapticbayes.__file__).resolve().parent != SRC / "hapticbayes":
        sys.exit(f"benchmark: hapticbayes imported from {hapticbayes.__file__}, "
                 f"not from {SRC}")


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if rev.returncode != 0:
        return None
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def provenance(w, seed: int) -> dict:
    import numpy
    import scipy
    h = hashlib.sha256()
    for path in sorted((SRC / "hapticbayes").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return {
        "git_revision": git_revision(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": w.name,
        "seed": seed,
        "inputs": w.inputs(),
    }


def setup_seconds(workload: str, seed: int, out_dir: Path, smoke: bool,
                  probes: int) -> list:
    """Time ``probes`` set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(out_dir)] + (["smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# measurement

class Runner:
    """Executes a workload's operations and keeps what the checks need.

    Each operation's first output is checked in full; every later
    execution of it must reproduce that output exactly.
    """

    def __init__(self, w):
        self.w = w
        n = len(w.ops)
        self.first = [None] * n
        self._fingerprint = [None] * n
        self.runs = [0] * n
        self.bad = [0] * n
        self.fastest = [None] * n
        self.errors: list = []
        self.intervals: list = []
        self._stamps: list = []

    def _tick(self, k, state) -> None:
        self._stamps.append(perf_counter_ns())

    def execute(self, i: int, on_iteration=None):
        """Run operation ``i``; return (wall ns, touches).

        Unless the caller observes the iterations itself, the execution is
        cut into pieces at its ``on_iteration`` callbacks (one piece per
        touch on the explore workloads, the whole call on ``classify``),
        and the fastest execution of every piece is kept.
        """
        import numpy as np
        self._stamps.clear()
        self.runs[i] += 1
        t0 = perf_counter_ns()
        try:
            out = self.w.ops[i](on_iteration or self._tick)
        except Exception as exc:   # counted as failed, the run goes on
            self.bad[i] += 1
            self.errors.append(f"operation {i}: {type(exc).__name__}: {exc}")
            return perf_counter_ns() - t0, 0
        t1 = perf_counter_ns()
        if on_iteration is None:
            pieces = np.diff(np.array([t0, *self._stamps, t1], dtype=np.int64))
            best = self.fastest[i]
            self.fastest[i] = (pieces if best is None or best.size != pieces.size
                               else np.minimum(best, pieces))
            if pieces.size > 2:
                self.intervals.append(pieces[1:-1])
        fp = self.w.fingerprint(out)
        if self.first[i] is None:
            self.first[i], self._fingerprint[i] = out, fp
        elif fp != self._fingerprint[i]:
            self.bad[i] += 1
            self.errors.append(f"operation {i}: output differs from its "
                               f"first execution")
        return t1 - t0, out.touches

    def run_pass(self, on_iteration=None):
        wall = touches = 0
        for i in range(len(self.w.ops)):
            dt, n = self.execute(i, on_iteration)
            wall += dt
            touches += n
        return wall, touches

    def finish(self):
        """Check first outputs; return (attempted, failed) trials."""
        attempted = failed = 0
        for i, trials in enumerate(self.w.op_trials):
            errs = self.w.check(i, self.first[i]) if self.first[i] else []
            self.errors += errs
            attempted += self.runs[i] * trials
            failed += (self.runs[i] if errs else self.bad[i]) * trials
        return attempted, failed

    def touch_intervals_us(self):
        import numpy as np
        if not self.intervals:
            return np.empty(0)
        return np.concatenate(self.intervals) / 1e3

    def fastest_pass_s(self):
        """One pass with every piece at its fastest execution, in seconds."""
        if any(best is None for best in self.fastest):
            return None
        return sum(int(best.sum()) for best in self.fastest) / 1e9


def percentile(values, q: float):
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else None


def measure_untraced(w, seconds: float):
    """Run whole passes until ``seconds`` have passed; return the runner
    and each pass's (wall ns, touches)."""
    runner = Runner(w)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return runner, passes


class FieldChanges:
    """``on_iteration`` observer of the traced passes: counts the field
    entries that changed since the previous iteration of the same trial."""

    def __init__(self):
        self.changed = dict.fromkeys(CHANGED_FIELDS, 0)
        self.compared = 0
        self.previous = None

    def reset(self) -> None:
        self.previous = None

    def __call__(self, k, state) -> None:
        current = {f: getattr(state, f).copy() for f in CHANGED_FIELDS}
        if self.previous is not None:
            self.compared += current["inhibition"].size
            for f in CHANGED_FIELDS:
                self.changed[f] += int((current[f] != self.previous[f]).sum())
        self.previous = current

    def ratios(self) -> dict:
        if not self.compared:
            return {}
        return {f"attention.{f}_field.changed_ratio": (n / self.compared,
                                                       self.compared)
                for f, n in self.changed.items()}


def measure_traced(w, seconds: float, tracing, tracer):
    """Alternate untraced and traced passes until ``seconds`` have passed
    (at least one of each)."""
    runner = Runner(w)
    changes = FieldChanges()
    traced_cb = tracer.wrap("benchmark.on_iteration", changes)
    plain, traced = [], []
    traced_touches = 0
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        plain.append(runner.run_pass()[0])
        wall = 0
        with tracer.installed(tracing.LOOP_TARGETS):
            with tracer.span("benchmark.pass"):
                for i in range(len(w.ops)):
                    changes.reset()
                    dt, touches = runner.execute(i, traced_cb)
                    wall += dt
                    traced_touches += touches
        traced.append(wall)
    return runner, plain, traced, traced_touches, changes


# ---------------------------------------------------------------------------
# report

def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def row(name: str, value, unit: str, n, what: str = "") -> str:
    n_text = "" if value is None else f"n={n} {what}"
    return f"  {name:<46} {fmt(value):>12} {unit:<5} {n_text}".rstrip()


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir=OUT,
        smoke: bool = False, probes: int = SETUP_PROBES):
    """One benchmark run; returns (report lines, result dict)."""
    use_source_tree()
    import numpy as np
    import tracing
    import workloads

    size = workloads.SMOKE if smoke else workloads.FULL
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {}      # name -> (value or None, unit, samples)
    lines: list = []

    if not trace:
        setups = setup_seconds(workload, seed, out_dir, smoke, probes)
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
        w = workloads.setup(workload, seed, out_dir, size)
    else:
        tracer = tracing.Tracer()
        for _ in range(TRACED_SETUPS):
            with tracer.installed(tracing.SETUP_TARGETS):
                with tracer.span("benchmark.setup"):
                    w = workloads.setup(workload, seed, out_dir, size)
    prov = provenance(w, seed)
    w.prepare()

    if not trace:
        runner, passes = measure_untraced(w, seconds)
        intervals = runner.touch_intervals_us()
        rates = [touches / (wall / 1e9) for wall, touches in passes]
        fastest = runner.fastest_pass_s()
        best = (sum(o.touches for o in runner.first) / fastest
                if fastest else None)
        metrics["touches_per_s"] = (best, "1/s", sum(runner.runs))
        metrics["touches_per_s_median_pass"] = (statistics.median(rates),
                                                "1/s", len(rates))
        metrics["touch_us_p50"] = (percentile(intervals, 50), "us", intervals.size)
        metrics["touch_us_p95"] = (percentile(intervals, 95), "us", intervals.size)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mib"] = (rss, "MiB", 1)
    else:
        runner, plain, traced, traced_touches, changes = measure_traced(
            w, seconds, tracing, tracer)

    attempted, failed = runner.finish()
    first = [o for o in runner.first if o is not None]
    quality = w.quality(first) if len(first) == len(w.ops) else {}
    metrics["fail_frac"] = (failed / attempted, "1", attempted)
    for name in ("accuracy_mean", "closure_rate", "gamma_per_l_cm"):
        value, unit, n = quality.get(name, (None, END_TO_END[name][0], 0))
        metrics[name] = (value, unit, n)
    digests = w.digests(first) if len(first) == len(w.ops) else {}
    correct = failed == 0 and not runner.errors and bool(digests)

    lines.append(f"# hapticbayes benchmark: workload {workload}, seed {seed}, "
                 f"trace {int(trace)}, {seconds:g} s")
    for key, value in prov.items():
        lines.append(f"# {key}: {json.dumps(value)}")
    for key, value in digests.items():
        lines.append(f"# {key}: {value}")

    if not trace:
        lines.append("end-to-end (untraced):")
        for name, (_, what) in END_TO_END.items():
            lines.append(row(name, *metrics[name], what))
        result_metrics = {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in DECLARED_END_TO_END}
    else:
        spans = tracer.arrays()
        layer, result_metrics = layer_report(
            tracing, tracer, spans, plain, traced, traced_touches, changes,
            quality, lines)
        np.savez(out_dir / f"{workload}.spans.npz", **spans)
        lines.append(f"# spans: {spans['name'].size} written to "
                     f"{out_dir / (workload + '.spans.npz')}")
        lines.append("end-to-end checks (traced run):")
        for name in ("fail_frac", "accuracy_mean", "closure_rate", "gamma_per_l_cm"):
            lines.append(row(name, *metrics[name], END_TO_END[name][1]))
        metrics.update(layer)

    lines.append(f"checks: {'pass' if correct else 'FAIL'} "
                 f"({attempted - failed}/{attempted} trials)")
    lines += [f"  error: {e}" for e in runner.errors[:20]]

    report = {
        "provenance": prov, "digests": digests, "errors": runner.errors,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
    }
    (out_dir / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    return lines, result


def layer_report(tracing, tracer, spans, plain, traced, traced_touches,
                 changes, quality, lines):
    """Per-layer metrics of a traced run, appended to ``lines``."""
    import numpy as np
    times = tracing.layer_times(spans)
    empty = {"calls": 0, "self_ns": 0.0, "durations_ns": np.empty(0)}

    def get(name):
        return times.get(name, empty)

    passes, setups = len(traced), TRACED_SETUPS
    pass_ns = get("benchmark.pass")["durations_ns"].sum()
    setup_ns = get("benchmark.setup")["durations_ns"].sum()
    layer: dict = {}
    lines.append(f"per layer (traced; self % of the traced passes, or of the "
                 f"traced set-ups for set-up layers; calls per pass or set-up):")
    lines.append(f"  {'layer':<46} {'calls':>10} {'self_ms':>10} {'self_pct':>9}"
                 f" {'us_p50':>10} {'n':>8}")
    loop_names = [t.span for t in tracing.LOOP_TARGETS] + [
        "benchmark.on_iteration", "benchmark.pass"]
    setup_names = [t.span for t in tracing.SETUP_TARGETS]
    accounted = 0.0
    for names, rounds, total in ((loop_names, passes, pass_ns),
                                 (setup_names, setups, setup_ns)):
        for name in names:
            t = get(name)
            calls = t["calls"] / rounds
            calls = int(calls) if calls == int(calls) else calls
            pct = 100.0 * t["self_ns"] / total if total else None
            p50 = percentile(t["durations_ns"], 50)
            p50 = p50 / 1e3 if p50 is not None else None
            self_ms = t["self_ns"] / rounds / 1e6
            if names is loop_names:
                accounted += t["self_ns"]
            layer[f"{name}.calls"] = (calls, "count", rounds)
            layer[f"{name}.self_pct"] = (pct, "%", rounds)
            layer[f"{name}.self_ms"] = (self_ms if t["calls"] else None, "ms", rounds)
            layer[f"{name}.us_p50"] = (p50, "us", t["calls"])
            note = " (absent)" if name in tracer.absent else ""
            lines.append(f"  {name:<46} {fmt(calls):>10} "
                         f"{fmt(self_ms if t['calls'] else None):>10} "
                         f"{fmt(pct):>9} {fmt(p50):>10} {t['calls']:>8}{note}")

    overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    layer["trace.overhead_pct"] = (overhead, "%", len(plain) + len(traced))
    layer["trace.us_per_touch"] = (pass_ns / 1e3 / traced_touches
                                   if traced_touches else None, "us", traced_touches)
    deg = tracer.degenerate
    updates = (get("perception.update_posterior")["calls"]
               + get("perception.PosteriorGrid.update")["calls"])
    n_deg = (deg.get("perception.update_posterior", 0)
             + deg.get("perception.PosteriorGrid.update", 0))
    layer["perception.degenerate_ratio"] = (
        n_deg / updates if updates else None, "1", updates)
    tp = get("attention.target_posterior")["calls"]
    layer["attention.degenerate_ratio"] = (
        deg.get("attention.target_posterior", 0) / tp if tp else None, "1", tp)
    ratios = changes.ratios()
    for f in CHANGED_FIELDS:
        name = f"attention.{f}_field.changed_ratio"
        value, n = ratios.get(name, (None, 0))
        layer[name] = (value, "1", n)
    layer["simulator.revisit_ratio"] = quality.get("revisit_ratio",
                                                   (None, "1", 0))

    lines.append(f"  accounted: layer self times + benchmark remainder = "
                 f"{100.0 * accounted / pass_ns:.4f}% of {passes} traced "
                 f"pass(es), {pass_ns / 1e9:.4g} s")
    lines.append(f"  tracing overhead: {overhead:+.3f}% (median traced pass "
                 f"{statistics.median(traced) / 1e9:.4g} s over {len(traced)}, "
                 f"untraced {statistics.median(plain) / 1e9:.4g} s over "
                 f"{len(plain)})")
    lines.append("ratios (traced):")
    for name, what in TRACE_RATIOS.items():
        lines.append(row(name, *layer[name], what))
    lines.append(row("trace.us_per_touch", *layer["trace.us_per_touch"],
                     "touches"))
    result_metrics = {name: {"value": layer[name][0], "unit": layer[name][1]}
                      for name in declared_per_layer(tracing)}
    return layer, result_metrics


# ---------------------------------------------------------------------------
# command line

def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def positive(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be > 0")
        return value

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--seconds", type=positive, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run "
                        "(ignored with --workload all, which runs both)")
    return p.parse_args(argv)


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=900)
            out = done.stdout.rstrip("\n").split("\n")
            print("\n".join(out[:-1]), flush=True)
            try:
                result = json.loads(out[-1])
            except json.JSONDecodeError:
                print(done.stderr, file=sys.stderr)
                return 2
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"][f"{workload}/trace{trace}"] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.workload == "all":
        use_source_tree()
        return run_all(args.seed, args.seconds)
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
