"""Run one workload in this (fresh) interpreter and print its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--setup-only]

The set-up (imports and input construction) ends at ``ready``, a
``time.monotonic()`` reading the parent compares with its own clock. Then
whole passes of the workload's operations run until ``--seconds`` have
passed (at least MIN_PASSES of them). Untraced, the result carries the
median pass time, at the box's nominal speed (see ``probe``), and the
process's peak resident memory. Traced, untraced
and traced runs of each pass alternate. Count metrics come from the traced
pass 0, whose inputs depend on the seed alone, so they repeat exactly;
times are medians over the traced passes, and the difference of the traced
and untraced medians is the tracing overhead. The spans of pass 0 are
written to ``perfbench/_out/trace-<workload>-seed<seed>.jsonl``. The last line
of standard output is the result as JSON; ``perfbench/run.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "_out")
MIN_PASSES = 3

# The box's effective CPU speed swings by up to a factor of two within
# seconds, because other tenants share its cores; raw pass times of one
# workload then differ by 15-20% between runs. So a fixed burst of the
# benchmark's own work, nothing of trajlab's, is timed before each pass and
# after every PROBE_EVERY_S of operations, and a pass time is scaled by
# PROBE_NOMINAL_S / (mean probe time of the pass): seconds at the box's
# usual speed. PROBE_NOMINAL_S is the probe's median on the box the
# reference figures in README.md come from.
PROBE_NOMINAL_S = 0.006
PROBE_EVERY_S = 0.2


def load_program():
    """Import trajlab from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import trajlab

    if not os.path.abspath(trajlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"trajlab was imported from {trajlab.__file__}, "
                         f"not from {src}")


def probe() -> float:
    """Time a fixed burst of plain Python and small numpy calls."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    a = np.arange(64.0)
    for _ in range(1_000):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - start


def probe_speed() -> float:
    """The box's speed now, relative to its usual: PROBE_NOMINAL_S over the
    mean of three probes."""
    return PROBE_NOMINAL_S / statistics.fmean(probe() for _ in range(3))


def _describe(exc):
    # keep no exception object: its traceback would hold the failed call's
    # frames, and their arrays, until the cyclic collector runs
    return f"{type(exc).__name__}: {exc}"


def run_pass(ops, k, tracer=None):
    """Run pass ``k`` of ``ops``; return (seconds, speed, failures).

    Only the calls are timed. ``speed`` is PROBE_NOMINAL_S over the mean
    probe time of the pass, so ``seconds * speed`` is the pass time at the
    box's usual speed. A call that raises or a result that fails its check
    makes that operation fail; the pass goes on. ``failures`` holds
    (op, message) pairs.
    """
    results = []
    probes = [probe()]
    elapsed = since_probe = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            results.append((True, op.call(k)))
        except Exception as exc:  # a failed operation; record it, go on
            results.append((False, _describe(exc)))
        took = time.perf_counter() - start
        elapsed += took
        since_probe += took
        if since_probe >= PROBE_EVERY_S or i == len(ops) - 1:
            probes.append(probe())
            since_probe = 0.0
    speed = PROBE_NOMINAL_S / statistics.fmean(probes)
    failures = []
    for op, (ok, value) in zip(ops, results):
        if ok:
            try:
                op.check(value)
            except Exception as exc:  # CheckFailed, or a malformed result
                ok, value = False, _describe(exc)
        if not ok:
            failures.append((op, value))
    return elapsed, speed, failures


class Tally:
    """Operations attempted and failed over a run, by label."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.unexpected = False

    def add(self, failures):
        self.attempted += len(self.ops)
        self.failed += len(failures)
        for op, message in failures:
            self.errors.setdefault(op.label, message)
            if op.known_fault is None:
                self.unexpected = True


def measure(ops, seconds):
    tally = Tally(ops)
    raw, scaled = [], []
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed, speed, failures = run_pass(ops, len(raw))
        raw.append(elapsed)
        scaled.append(elapsed * speed)
        tally.add(failures)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(raw)} passes, median {statistics.median(raw):.4f} s as "
          f"measured, {statistics.median(scaled):.4f} s at nominal speed",
          file=sys.stderr)
    metrics = {"wall_s": (statistics.median(scaled), "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    return tally, metrics


def measure_traced(ops, seconds, trace_path):
    import tracing

    tally = Tally(ops)
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    first_spans = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        k = len(traced)
        elapsed, speed, failures = run_pass(ops, k)
        untraced.append(elapsed * speed)
        tally.add(failures)
        tracer.install()
        try:
            elapsed, speed, failures = run_pass(ops, k, tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed * speed)
        tally.add(failures)
        spans, calls, counts = tracer.end_pass()
        if first_spans is None:
            first_spans = spans
        layers.append(tracing.layer_metrics(spans, calls, counts, speed))

    values = {name: (layers[0][name] if name in tracing.COUNT_METRICS
                     else statistics.median(layer[name] for layer in layers))
              for name in layers[0]}
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    with open(trace_path, "w", encoding="utf-8") as f:
        for sid, parent, op, name, start, end, own in first_spans:
            f.write(json.dumps({"id": sid, "parent": parent,
                                "op": ops[op].label, "name": name,
                                "start": start, "end": end,
                                "self_s": own}) + "\n")
    metrics = {name: (values[name], unit)
               for name, unit in tracing.UNITS.items()}
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        speed = probe_speed()
        if args.setup_only:
            print(json.dumps({"ready": ready, "speed": speed}))
            return 0
        if args.trace:
            trace_path = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tally, metrics = measure_traced(workload.ops, args.seconds,
                                            trace_path)
        else:
            tally, metrics = measure(workload.ops, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, message in tally.errors.items():
        print(f"{args.workload}: {label} failed: {message}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "speed": speed,
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
