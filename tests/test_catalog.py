"""The run list of ``scripts/catalog.py``, checked and run with ``--rerun``."""

import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from trajlab.cli import _TOP_KEYS
from trajlab.scenarios import SCENARIOS

SCRIPT = Path(__file__).parent.parent / "scripts/catalog.py"
CATALOG = runpy.run_path(SCRIPT)
RUNS, Run, contract = CATALOG["RUNS"], CATALOG["Run"], CATALOG["contract"]
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


def biased_result(outputs=("results.csv",), seed=7, cell="0.8", **files):
    """The catalog child's result for a `bernoulli` run at ``bias: 0.8``:
    a results.csv holding ``cell``, ``files``, and a manifest listing
    ``outputs`` at ``seed``."""
    schema = SCENARIOS["bernoulli"].schema
    manifest = {"outputs": list(outputs),
                "parameters": {k: spec.default for k, spec in schema.items()}
                | {"bias": 0.8},
                "scenario": "bernoulli", "seed": seed, "version": "0.1.0"}
    files = {"manifest.json": json.dumps(manifest, indent=2) + "\n",
             "results.csv": f"quantity,value\nrate_mean,{cell}\n", **files}
    return 0, "", files, [list(schema), {"bias": 0.8}]


@pytest.mark.parametrize("result, fault", [
    (biased_result(outputs=("rates.dat", "results.csv")), "manifest outputs"),
    (biased_result(**{"results.csv.tmp1": ""}), "manifest outputs"),
    (biased_result(seed=0), "manifest seed"),
    (biased_result(cell="nan"), "nan or inf in results.csv"),
    (biased_result(cell="-inf"), "nan or inf in results.csv"),
], ids=["unwritten-output", "stray-tmp", "wrong-seed", "nan", "minus-inf"])
def test_contract_refuses_a_manifest_or_cell_at_fault(result, fault):
    run = Run("biased", "bernoulli", {"bias": 0.8})
    assert contract(run, biased_result(), {}) == (True, "")
    assert contract(run, result, {}) == (False, f"bad {fault}")
