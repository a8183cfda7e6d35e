"""Command-line driver: config-driven scenario runs with file outputs.

``trajlab run <scenario> --config <file> [--seed N] [--out DIR]`` executes
one catalog scenario; ``trajlab list-scenarios`` prints the catalog with
each scenario's parameter schema. Configs are YAML mappings validated
strictly: unknown keys are rejected with the offending key path and line.

Exit codes: 0 success, 1 runtime computation error, 2 config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import yaml

from . import __version__
from .errors import SchemaError, TrajlabError
from .scenarios import SCENARIOS, OutputBundle, validate_params

ENV_OUT = "TRAJLAB_OUT"

_TOP_KEYS = ("scenario", "seed", "out", "parameters")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved run request."""

    scenario: str
    parameters: dict
    seed: int | None
    out_dir: str


# ---------------------------------------------------------------------------
# config loading with line tracking
# ---------------------------------------------------------------------------


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads every exponent form (``1e-8``, ``1.0e10``,
    ``.5e3``) as a float.

    YAML 1.1, which PyYAML implements, needs a dot and a signed exponent in
    a float, so the plain SafeLoader reads ``1e-8`` and ``1.0e10`` as
    strings. Quoted scalars stay strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)"
               r"[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def _construct_scalar(node):
    loader = _Loader("")
    try:
        return loader.construct_object(node, deep=True)
    finally:
        loader.dispose()


def _build(node, path, lines):
    if isinstance(node, yaml.MappingNode):
        out = {}
        for k_node, v_node in node.value:
            key = str(k_node.value)
            if key in out:
                raise SchemaError(f"duplicate key {key!r}",
                                  key_path=".".join(path + (key,)),
                                  line=k_node.start_mark.line + 1)
            lines[path + (key,)] = k_node.start_mark.line + 1
            out[key] = _build(v_node, path + (key,), lines)
        return out
    if isinstance(node, yaml.SequenceNode):
        return [_build(v, path + (str(i),), lines)
                for i, v in enumerate(node.value)]
    return _construct_scalar(node)


def load_config(path: str) -> tuple[dict, dict]:
    """Parse a YAML config, returning (data, key-path -> line map)."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        node = yaml.compose(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise SchemaError(f"config is not parseable: {exc}",
                          line=None if mark is None else mark.line + 1)
    if node is None:
        return {}, {}
    if not isinstance(node, yaml.MappingNode):
        raise SchemaError("config root must be a mapping",
                          line=node.start_mark.line + 1)
    lines: dict = {}
    data = _build(node, (), lines)
    return data, lines


def resolve_config(name: str, data: dict, lines: dict,
                   cli_seed: int | None = None,
                   cli_out: str | None = None) -> ScenarioConfig:
    """Merge a parsed config with command-line overrides for one scenario."""
    scen = SCENARIOS[name]
    for key in data:
        if key not in _TOP_KEYS:
            raise SchemaError(f"unknown top-level key {key!r}; allowed keys "
                              f"are {list(_TOP_KEYS)}", key_path=key,
                              line=lines.get((key,)))
    if "scenario" in data:
        declared = data["scenario"]
        if declared != name:
            raise SchemaError(
                f"config names scenario {declared!r} but {name!r} was "
                f"requested", key_path="scenario", line=lines.get(("scenario",)))

    seed, seed_line = cli_seed, None
    if seed is None and "seed" in data:
        seed, seed_line = data["seed"], lines.get(("seed",))
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                             or seed < 0):
        raise SchemaError(f"seed must be a nonnegative integer, got {seed!r}",
                          key_path="seed", line=seed_line)
    if scen.stochastic and seed is None:
        raise SchemaError(f"seed is required for the stochastic scenario "
                          f"{name!r}; set it in the config or pass --seed",
                          key_path="seed")

    out_dir = cli_out
    if out_dir is None and "out" in data:
        raw = data["out"]
        if not isinstance(raw, str):
            raise SchemaError(f"out must be a directory path, got {raw!r}",
                              key_path="out", line=lines.get(("out",)))
        out_dir = raw
    if out_dir is None:
        base = os.environ.get(ENV_OUT)
        out_dir = os.path.join(base, name) if base else os.path.join("runs",
                                                                     name)

    params = validate_params(scen.schema, data.get("parameters"), lines)
    return ScenarioConfig(scenario=name, parameters=params, seed=seed,
                          out_dir=out_dir)


# ---------------------------------------------------------------------------
# running and writing
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    os.replace(tmp, path)


def run_scenario(config: ScenarioConfig) -> int:
    """Execute one resolved scenario run; returns the process exit code.

    All output files are built in memory first and written atomically
    afterwards, results before the manifest, so an interrupted or failed
    run leaves no partial files. ``config`` comes from
    :func:`resolve_config`, which has checked the scenario name, the
    parameters and the seed.
    """
    scen = SCENARIOS[config.scenario]
    params = config.parameters
    seed = 0 if config.seed is None else config.seed
    try:
        bundle = OutputBundle()
        # a failed run's stderr is its one error line, so numpy's
        # floating-point warnings on the way to the error stay silent
        with np.errstate(all="ignore"):
            scen.run(params, seed, bundle)
    except (TrajlabError, ValueError, ArithmeticError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1

    os.makedirs(config.out_dir, exist_ok=True)
    written = []
    for fname, text in bundle.files():
        _atomic_write(os.path.join(config.out_dir, fname), text)
        written.append(fname)
    manifest = {
        "scenario": scen.name,
        "version": __version__,
        "seed": seed,
        "parameters": params,
        "outputs": sorted(written),
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
    }
    _atomic_write(os.path.join(config.out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def render_scenario_listing() -> str:
    """Stable text listing of every scenario and its parameter schema."""
    parts = []
    for scen in SCENARIOS.values():
        parts.append(f"{scen.name}: {scen.summary}")
        parts.append("  seed: " + ("required" if scen.stochastic
                                   else "unused (deterministic)"))
        parts.append("  parameters:")
        width = max(len(k) for k in scen.schema)
        for key, p in scen.schema.items():
            kind = p.kind if p.choices is None else \
                "choice(" + "|".join(p.choices) + ")"
            if p.min is not None:
                kind += f" >= {p.min}"
            if p.max is not None:
                kind += f" <= {p.max}"
            if p.above is not None:
                kind += f" > {p.above}"
            d = f"default {p.default}"
            parts.append(f"    {key:<{width}}  {kind:<32} {d:<24} {p.help}")
        parts.append("")
    return "\n".join(parts) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajlab",
        description="run trajectory-ensemble scenarios from config files")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", help="scenario name (see list-scenarios)")
    run_p.add_argument("--config", required=True, help="YAML config file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out", default=None,
                       help=f"output directory (default: config 'out', then "
                            f"${ENV_OUT}/<scenario>, then runs/<scenario>)")
    sub.add_parser("list-scenarios",
                   help="print every scenario and its parameter schema")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "list-scenarios":
        sys.stdout.write(render_scenario_listing())
        return 0
    if args.command is None:
        print("config error: no command given; choose run or list-scenarios",
              file=sys.stderr)
        return 2

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; choose from: "
              f"{', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    try:
        data, lines = load_config(args.config)
        config = resolve_config(args.scenario, data, lines,
                                cli_seed=args.seed, cli_out=args.out)
    except (SchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
