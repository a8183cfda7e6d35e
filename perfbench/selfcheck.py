"""Fast self-check of the benchmark's own arithmetic and determinism.

    python3 perfbench/selfcheck.py

1. Self time: spans timed with a scripted clock must come out as their
   duration minus the durations of their children, at every depth and
   also when a child raises.
2. Metric list: the tracer computes exactly the per-layer metrics that
   BENCHMARK.json lists.
3. Count metrics: two traced runs of ``cli-catalog``, which reaches every
   counted layer, must report identical count metrics.

Run from the root of a checkout. Exits 0 when all three hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def check_self_time() -> list[str]:
    # run_scenario [0, 10] > scenarios.bernoulli [1, 7] > format [2, 3],
    # format [4, 6] raising; load_config [8, 9.5] beside the scenario
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.5, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def fail():
        raise ValueError("child failure")

    fmt = tracer.wrap("scenarios.format", lambda: None)
    bad_fmt = tracer.wrap("scenarios.format", fail)

    def scenario():
        fmt()
        try:
            bad_fmt()
        except ValueError:
            pass

    scen = tracer.wrap("scenarios.bernoulli", scenario)
    load = tracer.wrap("cli.load_config", lambda: None)

    def run():
        scen()
        load()

    tracer.wrap("cli.run_scenario", run)()
    spans, calls, counts = tracer.end_pass()
    got = tracing.layer_metrics(spans, calls, counts)
    want = {"cli.run_scenario.self_s": 10.0 - 6.0 - 1.5,
            "scenarios.bernoulli.s": 6.0,
            "scenarios.format.self_s": 1.0 + 2.0,
            "cli.load_config.self_s": 1.5}
    errors = [f"{name}: got {got[name]}, want {value}"
              for name, value in want.items() if got[name] != value]
    by_name = {name: (sid, parent) for sid, parent, _, name, *_ in spans}
    if by_name["scenarios.bernoulli"][1] != by_name["cli.run_scenario"][0]:
        errors.append("scenario span does not point at run_scenario")
    if tracer._stack:
        errors.append("span stack not empty after the calls returned")
    return errors


def check_metric_list() -> list[str]:
    # trace.overhead_s comes from the worker, which also times untraced
    # passes
    computed = set(tracing.layer_metrics([], Counter(), Counter()))
    computed.add("trace.overhead_s")
    listed = set(tracing.UNITS)
    return ([f"{name}: listed in BENCHMARK.json, not computed"
             for name in sorted(listed - computed)]
            + [f"{name}: computed, not listed in BENCHMARK.json"
               for name in sorted(computed - listed)])


def traced_counts() -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "cli-catalog", "--seed", "7", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"traced run failed:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracing.COUNT_METRICS}


def main() -> int:
    errors = check_self_time() + check_metric_list()
    first, second = traced_counts(), traced_counts()
    errors += [f"{name}: {first[name]} then {second[name]}"
               for name in first if first[name] != second[name]]
    for line in errors:
        print(f"FAIL {line}")
    print("self-check", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
