"""The run list of ``scripts/catalog.py`` against the scenario schemas."""

import runpy
from pathlib import Path

from trajlab.cli import _TOP_KEYS
from trajlab.scenarios import SCENARIOS

RUNS = runpy.run_path(Path(__file__).parent.parent / "scripts/catalog.py")[
    "RUNS"]


def stray_keys(run):
    """Keys ``run`` sets or names that its scenario lacks, bar refused ones."""
    schema = SCENARIOS[run.scenario].schema
    known = set(_TOP_KEYS) | set(schema) | {f"parameters.{k}" for k in schema}
    keys = {f"parameters.{k}" for k in run.params}
    _, text = run.refused or (0, None)
    named = {text.split()[0]} if text else set()
    return (keys | named) - known - (keys & {text})


def test_names_are_unique():
    assert len({run.name for run in RUNS}) == len(RUNS)


def test_every_scenario_has_a_defaults_entry_at_seed_7():
    assert {run.scenario for run in RUNS if not run.params
            and not run.refused and run.seed == 7} == set(SCENARIOS)


def test_refused_and_config_keys_are_in_the_schema():
    assert [run.name for run in RUNS if stray_keys(run)] == []
    for run in RUNS:
        if run.refused and run.refused[1]:
            bogus = (run.refused[0], "parameters.bogus")
            assert stray_keys(run._replace(refused=bogus)), run.name
