"""The benchmark's tracer wraps trajlab functions and methods by name.

Deleting or renaming one of them breaks every traced benchmark run, so the
tracer's install and uninstall are exercised here against the package as it
stands.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    tracing = load_tracing()
    functions = [(tracing._module(mod), attr)
                 for mod, attr, _ in tracing.FUNCTIONS]
    methods = [(getattr(tracing._module(mod), cls), attr)
               for mod, cls, attr, _ in tracing.METHODS]
    before = [vars(owner)[attr] for owner, attr in functions + methods]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [vars(owner)[attr] for owner, attr in functions + methods]
    finally:
        tracer.uninstall()
    assert all(a is not b for a, b in zip(before, during))
    assert [vars(owner)[attr] for owner, attr in functions + methods] \
        == before
