"""trajlab benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py [--workload NAME] --seed N [--seconds S]
        [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src``.
Each workload runs in fresh interpreters started by this script
(``perfbench/worker.py``). Untraced (``--trace 0``) it reports

* ``setup_s``: median, over SETUP_SAMPLES fresh interpreters, of the time
  from starting the interpreter to the first timed pass (imports and the
  construction of inputs);
* ``wall_s``: median time of one pass of the workload's fixed operations;
* ``peak_rss_mb``: peak resident memory of the measuring process.

``setup_s`` and ``wall_s`` are scaled to the box's usual speed (see
``worker.py``).

Traced (``--trace 1``) it reports the per-layer metrics instead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Without ``--workload`` every workload runs in
turn, one result line each, and the last line sums them up with metric
names prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("flipper-ensemble", "bernoulli-ensemble", "solvers",
             "cli-catalog")
SETUP_SAMPLES = 7
# one process, one thread per BLAS call: the box has 2 cores and the
# benchmark's load should not depend on how many other processes run
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class WorkerFailed(Exception):
    pass


def spawn(workload, seed, seconds, trace, setup_only):
    """Run one worker; return its result with ``setup_s`` filled in.

    Set-up time is scaled to the box's usual speed by the mean of two speed
    readings that bracket it: probes run here just before the worker starts
    and by the worker right after its set-up (see worker.py). One reading
    alone, taken after a second of imports, misses speed changes during it.
    """
    argv = [sys.executable, WORKER, "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **THREAD_CAPS)
    before = worker.probe_speed()
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=seconds + 150)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = ((result.pop("ready") - start)
                         * (before + result.pop("speed")) / 2)
    return result


def run_workload(workload, seed, seconds, trace):
    result = spawn(workload, seed, seconds, trace, setup_only=False)
    setup = result.pop("setup_s")
    if not trace:
        samples = [setup] + [
            spawn(workload, seed, seconds, trace, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result["metrics"] = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            **result["metrics"]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "trajlab", "__init__.py")):
        print(f"no trajlab sources under {ROOT}/src; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace) for name in names}
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
