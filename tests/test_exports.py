"""Every exported name resolves: each module's __all__ names only objects
that exist, and every public name of the package is listed in the __all__ of
a module that defines it; no module imports a name it never reads."""
import ast
import importlib
from pathlib import Path

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


def _unused_imports(path):
    """(line, name) of each module-level import of `path` that no Name in
    the module reads and its __all__ does not list."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set(getattr(importlib.import_module(
        f"specthresh.{path.stem}"), "__all__", ()))
    return [(line, name) for line, name in bound
            if name not in read | exported]


@pytest.mark.parametrize("path", sorted(
    p for p in Path(specthresh.__file__).parent.glob("*.py")
    if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_module_imports_are_read(path):
    assert not _unused_imports(path)
