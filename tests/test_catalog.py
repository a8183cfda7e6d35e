"""The run list of ``scripts/catalog.py``, checked and run with ``--rerun``."""

import re
import runpy
import subprocess
import sys
from pathlib import Path

from trajlab.cli import _TOP_KEYS
from trajlab.scenarios import SCENARIOS

SCRIPT = Path(__file__).parent.parent / "scripts/catalog.py"
RUNS = runpy.run_path(SCRIPT)["RUNS"]
# a config error's key path, a runtime error's "key = value", the bins advice
NAMED = r"(?<=at key ')[\w.]+|\w+(?= = )|(?<=raise )\w+"


def stray_keys(run):
    """Keys ``run`` sets or its refusal line names that its schema lacks."""
    schema = SCENARIOS[run.scenario].schema
    known = set(_TOP_KEYS) | set(schema) | {f"parameters.{k}" for k in schema}
    keys = {f"parameters.{k}" for k in run.params}
    named = set(re.findall(NAMED, run.refused[1])) if run.refused else set()
    return (keys | named) - known - (keys & named)  # bar a refused unknown


def test_names_are_unique():
    assert len({run.name for run in RUNS}) == len(RUNS)


def test_every_scenario_has_a_defaults_entry_at_seed_7():
    assert {run.scenario for run in RUNS if not run.params
            and not run.refused and run.seed == 7} == set(SCENARIOS)


def test_refused_and_config_keys_are_in_the_schema():
    assert [run.name for run in RUNS if stray_keys(run)] == []
    for run in RUNS:
        if run.refused:
            code, line = run.refused
            assert re.search(NAMED, line), run.name
            bogus = (code, re.sub(NAMED, "bogus", line))
            assert stray_keys(run._replace(refused=bogus)), run.name


def test_every_choice_is_run():
    # the defaults entries run each default
    chosen = {(run.scenario, key, str(value)) for run in RUNS
              if not run.refused for key, value in run.params.items()}
    assert {(name, key, choice) for name, scen in SCENARIOS.items()
            for key, spec in scen.schema.items() for choice in spec.choices
            or () if choice != spec.default} - chosen == set()


def test_rerun_passes():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--rerun"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
