"""Every exported name resolves: each module's __all__ names only objects
that exist, and every public name of the package is listed in the __all__ of
a module that defines it; no module imports a name it never reads, none
imports scipy beyond scipy.linalg, only `model` searches the grid for node
maps, and every entry point the benchmark's tracer wraps exists."""
import ast
import importlib
import importlib.util
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


_HEAVY_SCIPY = ("scipy.optimize", "scipy.spatial", "scipy.special",
                "scipy.sparse")


def _heavy_scipy_imports(path):
    """(line, module) of each import anywhere in `path`, function bodies
    included, of scipy.optimize, spatial, special or sparse (or a module
    under them), whether as `import scipy.x`, `from scipy.x import ...` or
    `from scipy import x`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        found += [(node.lineno, n) for n in names
                  if ".".join(n.split(".")[:2]) in _HEAVY_SCIPY]
    return found


def test_heavy_scipy_guard_sees_every_import_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import scipy.linalg as sla\n"
                    "from scipy import linalg\n"
                    "def f():\n"
                    "    from scipy.optimize import root\n"
                    "    import scipy.sparse.linalg\n"
                    "    from scipy import special\n")
    assert _heavy_scipy_imports(path) == [
        (4, "scipy.optimize.root"), (5, "scipy.sparse.linalg"),
        (6, "scipy.special")]


@pytest.mark.parametrize("path", sorted(
    Path(specthresh.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_no_scipy_beyond_linalg(path):
    # the pipeline's import floor is numpy, scipy.linalg and click
    assert not _heavy_scipy_imports(path)


def _method_calls(path, name):
    """Line of each call `<expression>.name(...)` anywhere in `path`."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name]


def test_node_maps_are_searched_only_in_model():
    # one symmetry search: the grid finds its reflections and axis
    # permutations (`QuadratureGrid.node_map`), and every other module
    # takes them from the grid or from `Discretization.sectors`
    calls = {p.stem: _method_calls(p, "node_map")
             for p in Path(specthresh.__file__).parent.glob("*.py")}
    assert {stem for stem, lines in calls.items() if lines} == {"model"}


def _tracing():
    """bench/tracing.py, loaded from its file (it imports no third-party
    module and installs nothing on import)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_entry_points_resolve():
    # a traced run (`bench/run.py --trace 1`) wraps each of these by
    # getattr: a deletion in the package must not break it
    tracing = _tracing()
    missing = [f"{m}.{f}" for m, f, *_ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(
                   f"specthresh.{m}"), f, None))]
    missing += [f"{m}.{c}.{f}" for m, c, f, *_ in tracing.METHODS
                if not callable(getattr(getattr(importlib.import_module(
                    f"specthresh.{m}"), c, None), f, None))]
    assert not missing


def test_traced_hooks_read_live_attributes():
    # the span hooks read attributes of the objects they trace: the
    # `jump` and `poles` of a built CutPropagator (`_jump_bytes`,
    # `_n_poles`) and the node count of a grid (`_grid_n`)
    from specthresh.birman_schwinger import Discretization
    from specthresh.grushin import threshold_resolvent_expansion
    from specthresh.model import build_grid
    from specthresh.models import first_kind_model
    from specthresh.propagator import CutPropagator

    tracing = _tracing()
    hooked = {(c, f) for _, c, f, _, after in tracing.METHODS if after}
    assert {("CutPropagator", "__init__"),
            ("CutPropagator", "_scan_poles")} <= hooked
    disc = Discretization(first_kind_model(build_grid(3.0, 4)))
    cp = CutPropagator(disc, threshold_resolvent_expansion(disc))
    assert tracing._jump_bytes((cp,), {}, None) == 0
    assert tracing._n_poles((cp,), {}, None) == len(cp.poles)
    assert tracing._grid_n((disc.grid,), {}, None) == disc.grid.n
