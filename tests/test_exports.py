"""Every name a module exports in ``__all__`` exists on it."""

import importlib
import pkgutil

import pytest

import expwell

MODULES = ["expwell"] + [
    f"expwell.{info.name}" for info in pkgutil.iter_modules(expwell.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
