"""The package's public surface: every ``__all__`` entry exists, and
``trajlab/__init__.py`` re-exports exactly the public names of the library
modules."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import trajlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(trajlab.__path__))


def public_names(module):
    """``__all__``, or else every name the module defines without a leading
    underscore."""
    if hasattr(module, "__all__"):
        return set(module.__all__)
    return {name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__}


def reexports():
    """``(module, name)`` for every ``from .module import name`` in the
    package's ``__init__``."""
    tree = ast.parse(inspect.getsource(trajlab))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"trajlab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def test_reexports_are_public_in_their_module():
    """``__init__`` re-exports each public name of every library module
    once, and nothing else; ``cli`` and ``scenarios`` are the command-line
    layer and stay out."""
    pairs = reexports()
    assert len(pairs) == len(set(pairs))
    public = {(mod, name) for mod in MODULES
              if mod not in ("cli", "scenarios")
              for name in public_names(
                  importlib.import_module(f"trajlab.{mod}"))}
    assert set(pairs) == public
