"""breglab benchmark: end-to-end timings, or a traced per-layer breakdown.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: mc_reproduce_exp, mc_risk_10m, oracle_battery (see
NOTES.md).  Operations run back to back in one closed loop until
``--seconds`` have passed and every operation kind has run at least once.

--trace 0 reports the end-to-end metrics, measured without any wrapper:
setup_s (median of fresh-process imports), wall_s (one workload body, from
per-kind medians), peak_rss_mb and ok_ops_share.  --trace 1
runs every operation twice with the same seed, once plain and once inside
spans.instrument, and reports the per-layer metrics of spans.LAYER_METRICS
plus the tracing overhead.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", ".out")

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from breglab.cli import main; main(['--help'])"
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_ops_share": "share"}
MACHINE_LIMITS = (
    "own processes only: no whole-machine tracing or hardware counters; "
    "RSS is this process's own peak (getrusage); setup_s times fresh child processes"
)


def setup_once() -> float:
    """Time from interpreter start to an imported breglab with its CLI parser built."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC],
        stdout=subprocess.DEVNULL, check=True, timeout=SETUP_TIMEOUT_S,
    )
    return time.perf_counter() - start


def op_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % (1 << 62)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def body_value(workload, per_kind: dict, reduce) -> float:
    """One workload body from per-kind samples: mean over kinds of reduce(samples) x body_ops.

    Summed first and divided last, so whole counts stay whole.
    """
    vals = [reduce(per_kind[k]) for k in range(len(workload.kinds))]
    return math.fsum(vals) * workload.body_ops / len(vals)


class Run:
    """Attempts, failures and self-check state of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.kind_ops = defaultdict(lambda: [0, 0])  # kind -> [attempted, failed]
        self.selfcheck = []  # messages for self-check failures

    def ok_share(self) -> float:
        """Share of one workload body's operations that succeed: per kind, then averaged."""
        return statistics.fmean(1.0 - failed / attempted for attempted, failed in self.kind_ops.values())

    def _fail(self, kind: int) -> None:
        self.failed += 1
        self.kind_ops[kind][1] += 1

    def op(self, kind: int, seed: int, context=None):
        """Run and gate one operation.

        Returns (seconds, output), or (None, None) when it raised.  An
        operation that raises or fails its gate is counted as failed; one
        that completed keeps its time either way.
        """
        self.attempted += 1
        self.kind_ops[kind][0] += 1
        wl = self.workload
        label = f"{wl.kinds[kind]} seed {seed}"
        try:
            start = time.perf_counter()
            with context or contextlib.nullcontext():
                out = wl.run(kind, seed)
            seconds = time.perf_counter() - start
        except Exception:  # counted as failed; the run goes on
            self._fail(kind)
            print(f"operation {label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None, None
        try:
            ok = wl.check(kind, out)
        except Exception:  # a malformed output fails its gate
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self._fail(kind)
            print(f"operation {label} failed its gate", file=sys.stderr)
        return seconds, out


def timed_run(wl, seed: int, seconds: float, setup_runs: int = SETUP_RUNS):
    """Operations and set-up spawns for `seconds`, the spawns spread evenly between operations.

    Spreading the spawns over the run samples the machine's slow drift the
    same way the operations do.
    """
    run = Run(wl)
    samples = defaultdict(list)
    start = time.perf_counter()
    setups = [setup_once()]
    i = 0
    while i < len(wl.kinds) or time.perf_counter() - start < seconds:
        kind = i % len(wl.kinds)
        dt, _ = run.op(kind, op_seed(seed, i))
        if dt is not None:
            samples[kind].append(dt)
        i += 1
        if len(setups) < setup_runs and time.perf_counter() - start >= seconds * len(setups) / setup_runs:
            setups.append(setup_once())
    while len(setups) < setup_runs:
        setups.append(setup_once())
    complete = len(samples) == len(wl.kinds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": body_value(wl, samples, statistics.median) if complete else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_share": run.ok_share(),
    }
    print(f"failed_ops_share = {1.0 - metrics['ok_ops_share']!r} share")
    print("set-up spawns (s):", " ".join(f"{t:.4f}" for t in setups))
    if complete:
        counts = [len(v) for v in samples.values()]
        print(f"body time from per-kind median {metrics['wall_s']:.4f} s, minimum "
              f"{body_value(wl, samples, min):.4f} s, 90th percentile "
              f"{body_value(wl, samples, p90):.4f} s; {min(counts)}-{max(counts)} operations per kind")
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced_run(wl, seed: int, seconds: float):
    import spans

    from workloads import BATTERY_ESTIMATORS

    run = Run(wl)
    rec = spans.Recorder()
    plain, traced = defaultdict(list), defaultdict(list)
    layers = defaultdict(list)  # kind -> per-op snapshots
    spans_incl = defaultdict(lambda: defaultdict(float))  # group -> span -> seconds
    first_counts = None

    def traced_op(kind, s):
        rec.reset()
        dt, out = run.op(kind, s, spans.instrument(rec, BATTERY_ESTIMATORS))
        return dt, out, rec.snapshot(), dict(rec.incl_s)

    start = time.perf_counter()
    i = 0
    while i < len(wl.kinds) or time.perf_counter() - start < seconds:
        kind, s = i % len(wl.kinds), op_seed(seed, i)
        out_plain = out_traced = None
        # alternate which mode goes first, so warm caches favour neither
        for mode in ((0, 1) if i % 2 == 0 else (1, 0)):
            if mode == 0:
                dt, out_plain = run.op(kind, s)
                if dt is not None:
                    plain[kind].append(dt)
            else:
                dt, out_traced, snap, incl = traced_op(kind, s)
                if dt is not None:
                    traced[kind].append(dt)
                    layers[kind].append(snap)
                    group = wl.groups[kind]
                    spans_incl[group]["(operation)"] += dt
                    for name, v in incl.items():
                        spans_incl[group][name] += v
                    if i == 0:
                        first_counts = {k: snap[k] for k in spans.COUNTERS}
        if out_plain is not None and out_traced is not None and wl.digest(out_plain) != wl.digest(out_traced):
            run.selfcheck.append(f"traced output differs from untraced for {wl.kinds[kind]}")
        i += 1

    # the counters of the first operation must repeat on a second run of its seed
    _, _, snap, _ = traced_op(0, op_seed(seed, 0))
    again = {k: snap[k] for k in spans.COUNTERS}
    if first_counts is not None and again != first_counts:
        diff = {k: (first_counts[k], again[k]) for k in again if again[k] != first_counts[k]}
        run.selfcheck.append(f"counters differ between two runs of one seed: {diff}")

    complete = all(plain[k] and traced[k] for k in range(len(wl.kinds)))
    metrics = {}
    for name, unit in spans.LAYER_METRICS.items():
        if name == "bench.trace_overhead_s":
            value = (body_value(wl, traced, statistics.median)
                     - body_value(wl, plain, statistics.median)) if complete else None
        else:
            value = body_value(wl, {k: [snap[name] for snap in v] for k, v in layers.items()},
                               statistics.fmean) if complete else None
        if value is not None and unit != "s" and float(value).is_integer():
            value = int(value)
        metrics[name] = (value, unit)

    for group, incl in spans_incl.items():
        total = incl["(operation)"]
        print(f"[{group}] traced operations {total:.4f} s; inclusive span time and share:")
        for name, v in sorted(incl.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<42} {v:10.4f} s  {v / total:7.1%}")
    return run, metrics


def machine_facts(seed) -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(e for e in os.listdir(base) if e.startswith("index")):
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = size
    except OSError:
        caches = {"L2": "unknown", "L3": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **caches,
        "workload_seed": seed,
        "limits": MACHINE_LIMITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "breglab", "__init__.py")):
        print(f"error: no breglab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as out_dir:
        wl = workloads.build(args.workload, out_dir)
        if args.trace:
            run, metrics = traced_run(wl, args.seed, args.seconds)
        else:
            run, metrics = timed_run(wl, args.seed, args.seconds)

    print("machine:", json.dumps(machine_facts(args.seed), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for msg in run.selfcheck:
        print(f"self-check failed: {msg}", file=sys.stderr)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        print(f"error: no successful operation of some kind, cannot report {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0 and not run.selfcheck,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
