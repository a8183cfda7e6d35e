"""The package's public surface: every ``__all__`` entry exists, and the
package root defines no public name but ``__version__``, so each name is
imported from the one module whose ``__all__`` declares it."""

import importlib
import pkgutil
import types

import pytest

import trajlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(trajlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    module = importlib.import_module(f"trajlab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def test_root_defines_only_the_version():
    """Once every submodule is imported, the root's public names are
    ``__version__`` and the submodules Python binds on import."""
    for name in MODULES:
        importlib.import_module(f"trajlab.{name}")
    public = {name for name, obj in vars(trajlab).items()
              if not (name.startswith("_")
                      or isinstance(obj, types.ModuleType)
                      and obj.__name__ == f"trajlab.{name}")}
    assert public == set()
    assert isinstance(trajlab.__version__, str)
