"""Every exported name resolves: each module's __all__ names only objects
that exist, and every public name of the package is listed in the __all__ of
a module that defines it."""
import importlib

import pytest

import specthresh

MODULES = ["model", "symmetry", "kernels", "birman_schwinger", "jordan",
           "series", "grushin", "propagator", "models", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"specthresh.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing


def test_package_names_are_module_exports():
    mods = [importlib.import_module(f"specthresh.{m}") for m in MODULES]
    public = [n for n in vars(specthresh)
              if not n.startswith("_") and n not in MODULES]
    unlisted = [n for n in public
                if not any(n in m.__all__ and getattr(m, n) is
                           getattr(specthresh, n) for m in mods)]
    assert not unlisted
