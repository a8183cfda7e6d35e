"""Span tracing for the benchmark's traced runs.

No file of the program changes: a :class:`Tracer` wraps public functions
at the names where their callers look them up (every ``trajlab.*`` module
attribute bound to the function, plus a few class attributes) and restores
them on :meth:`Tracer.uninstall`. Each call of a wrapped function is one
span: its name, start, end, the span that caused it, and the operation it
belongs to. Spans are kept in memory; the runner writes them out when the
traced run ends.

A span's self time is its duration minus the durations of its child spans.
The program is single threaded, so children never overlap and their sum is
the part of the parent's interval they cover.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import os
import sys
import time
from collections import Counter

# (module, attribute, span name): module-level functions, wrapped wherever
# a trajlab module holds a reference to them
FUNCTIONS = (
    ("rng", "trajectory_stream", "rng.trajectory_stream"),
    ("core", "ensemble_statistics", "core.ensemble_statistics"),
    ("core", "evaluate_rates", "core.evaluate_rates"),
    ("bernoulli", "orbit_rate", "bernoulli.orbit_rate"),
    ("scattering", "trace_flipper", "scattering.trace_flipper"),
    ("scattering", "random_scene", "scattering.random_scene"),
    ("scattering", "transfer_density", "scattering.transfer_density"),
    ("decay", "solve_decay_vertex", "decay.solve_decay_vertex"),
    ("decay", "mean_life", "decay.mean_life"),
    ("spin_epr", "propagate_sg", "spin_epr.propagate_sg"),
    ("spin_epr", "sample_epr_counts", "spin_epr.sample_epr_counts"),
    ("spin_epr", "chsh_value", "spin_epr.chsh_value"),
    ("interference", "emission_measure_from_screen",
     "interference.emission_measure_from_screen"),
    ("interference", "screen_density_from_emission",
     "interference.screen_density_from_emission"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "run_scenario", "cli.run_scenario"),
)

# (module, class, method, span name)
METHODS = (
    ("scattering", "DeflectionFunction", "__call__", "scattering.deflection"),
    ("bernoulli", "BernoulliTrajectory", "__init__", "bernoulli.build"),
    ("interference", "NBodySystem", "integrate", "interference.integrate"),
    ("interference", "NBodySystem", "accelerations",
     "interference.accelerations"),
    ("scenarios", "OutputBundle", "add_csv", "scenarios.format"),
    ("scenarios", "OutputBundle", "add_dat", "scenarios.format"),
)

SCENARIO_NAMES = ("bernoulli", "scattering", "flipper", "decay",
                  "stern-gerlach", "epr", "two-slit", "bigbang")

CALL_COUNTED = ("rng.trajectory_stream", "core.sampler", "core.evaluate_rates",
                "scattering.trace_flipper", "scattering.deflection",
                "decay.solve_decay_vertex", "spin_epr.chsh_value",
                "interference.integrate", "interference.accelerations")

SELF_TIMED = ("rng.trajectory_stream", "core.ensemble_statistics",
              "core.sampler", "core.evaluate_rates", "bernoulli.build",
              "bernoulli.orbit_rate", "scattering.trace_flipper",
              "scattering.random_scene", "scattering.deflection",
              "scattering.transfer_density", "decay.solve_decay_vertex",
              "decay.mean_life", "spin_epr.propagate_sg",
              "spin_epr.sample_epr_counts", "spin_epr.chsh_value",
              "interference.emission_measure_from_screen",
              "interference.screen_density_from_emission",
              "interference.integrate", "scenarios.format",
              "cli.load_config", "cli.run_scenario")

# name -> unit of every per-layer metric a traced run reports; the metrics
# are listed once, in BENCHMARK.json, and selfcheck.py checks that
# layer_metrics computes exactly these (with trace.overhead_s from the
# worker)
with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json"), encoding="utf-8") as f:
    UNITS = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}

# per-layer metrics that are not times but counts or ratios of counts; they
# must repeat exactly for a seed
COUNT_METRICS = tuple(name for name, unit in UNITS.items() if unit != "s")


def _module(name):
    return importlib.import_module(f"trajlab.{name}")


class Tracer:
    """In-memory span recorder that can wrap and unwrap trajlab's layers.

    ``clock`` is injectable so the self-time arithmetic can be checked
    against known durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (id, parent id, op, name, start, end, self time)
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._undo: list = []
        self._deflections_before = 0

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, prepare=None, record=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``prepare(args, kwargs)`` may return replacement arguments and runs
        inside the span; ``record(args, kwargs, result)`` runs after it.
        """
        stack, spans, calls, clock = self._stack, self.spans, self.calls, \
            self.clock

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if prepare is not None:
                    args, kwargs = prepare(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, parent, self.op, name, start, end,
                              duration - frame[1]))
                calls[name] += 1
            if record is not None:
                record(args, kwargs, result)
            return result

        return traced

    def end_pass(self) -> tuple[list, Counter, Counter]:
        """Hand over the spans, call counts and counters of one pass."""
        out = (list(self.spans), Counter(self.calls), Counter(self.counts))
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()
        return out

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname != "trajlab" and not modname.startswith("trajlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self):
        """Wrap every traced layer; call :meth:`uninstall` to restore."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "core.ensemble_statistics": (self._wrap_sampler,
                                         self._count_kept),
            "scattering.trace_flipper": (None, self._count_encounters),
            "scattering.transfer_density": (self._mark_deflections,
                                            self._count_thetas),
            "cli.run_scenario": (None, self._count_bytes),
        }
        for mod, attr, name in FUNCTIONS:
            original = getattr(_module(mod), attr)
            prepare, record = hooks.get(name, (None, None))
            self._patch_everywhere(original,
                                   self.wrap(name, original, prepare, record))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(_module(mod), cls_name)
            prepare = self._count_rows if name == "scenarios.format" else None
            self._patch(cls, attr, self.wrap(name, vars(cls)[attr], prepare))
        catalog = _module("scenarios").SCENARIOS
        for key in SCENARIO_NAMES:
            scen = catalog[key]
            wrapped = dataclasses.replace(
                scen, run=self.wrap(f"scenarios.{key}", scen.run))
            self._undo.append((catalog, key, scen))
            catalog[key] = wrapped

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- hooks -------------------------------------------------------------

    def _wrap_sampler(self, args, kwargs):
        # boundary sampling is a per-instance attribute; trace it through
        # a shallow copy of the measure so the caller's object is untouched
        if args:
            measure, rest = args[0], args[1:]
        else:
            measure, rest = kwargs.pop("measure"), ()
        proxy = copy.copy(measure)
        proxy.sampler = self.wrap("core.sampler", measure.sampler)
        return (proxy,) + tuple(rest), kwargs

    def _count_kept(self, args, kwargs, stats):
        self.counts["kept"] += stats.n_trajectories
        self.counts["built"] += stats.n_trajectories + stats.n_excluded

    def _count_encounters(self, args, kwargs, trajectory):
        self.counts["scattering.encounters"] += len(trajectory.encounters)

    def _mark_deflections(self, args, kwargs):
        self._deflections_before = self.calls["scattering.deflection"]
        return args, kwargs

    def _count_thetas(self, args, kwargs, result):
        self.counts["transfer.thetas"] += len(result)
        self.counts["transfer.deflection_calls"] += (
            self.calls["scattering.deflection"] - self._deflections_before)

    def _count_rows(self, args, kwargs):
        # add_csv/add_dat(self, name, header_or_comments, rows)
        if len(args) >= 4:
            rows = list(args[3])
            args = args[:3] + (rows,) + args[4:]
        else:
            rows = list(kwargs["rows"])
            kwargs["rows"] = rows
        self.counts["scenarios.format.rows"] += len(rows)
        return args, kwargs

    def _count_bytes(self, args, kwargs, code):
        if code != 0:
            return
        config = args[0] if args else kwargs["config"]
        with os.scandir(config.out_dir) as entries:
            self.counts["cli.bytes_written"] += sum(
                e.stat().st_size for e in entries if e.is_file())


def layer_metrics(spans, calls, counts, speed=1.0) -> dict[str, float]:
    """Per-layer metrics of one pass, from its spans and counters.

    Times are multiplied by ``speed``, the pass's factor to the box's usual
    speed. ``trace.overhead_s`` is not included: it needs the untraced
    passes.
    """
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    for _sid, _parent, _op, name, start, end, own in spans:
        self_s[name] += own * speed
        inclusive[name] += (end - start) * speed
    out = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s[name]
    for name in SCENARIO_NAMES:
        out[f"scenarios.{name}.s"] = inclusive[f"scenarios.{name}"]
    built = counts["built"]
    out["core.kept_fraction"] = counts["kept"] / built if built else 0.0
    traces = calls["scattering.trace_flipper"]
    out["scattering.encounters"] = counts["scattering.encounters"]
    out["scattering.encounters_per_trace"] = (
        counts["scattering.encounters"] / traces if traces else 0.0)
    thetas = counts["transfer.thetas"]
    out["scattering.deflection_calls_per_theta"] = (
        counts["transfer.deflection_calls"] / thetas if thetas else 0.0)
    out["scenarios.format.rows"] = counts["scenarios.format.rows"]
    out["cli.bytes_written"] = counts["cli.bytes_written"]
    return out
