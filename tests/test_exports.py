"""Every name a module exports in ``__all__`` exists on it, the kernel
caches keep the interface the benchmark worker reads, and the package
imports no more than its declared dependencies."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import expwell
from expwell import crum, specfun

MODULES = ["expwell"] + [
    f"expwell.{info.name}" for info in pkgutil.iter_modules(expwell.__path__)
]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("cached", [specfun._series_cached,
                                    crum._wronskian_det_mp])
def test_kernel_caches_keep_lru_interface(cached):
    # perfbench/worker.py refuses to start unless both caches are empty and
    # reads its per-layer miss counts from cache_info()
    cached.cache_clear()
    info = cached.cache_info()
    assert info.currsize == 0
    assert info.hits == info.misses == 0


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package runs on numpy and mpmath
    src = os.path.dirname(os.path.dirname(expwell.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import expwell, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
