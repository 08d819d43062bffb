"""Exported names resolve: every name in a qglue module's __all__ exists,
and every name the package re-exports is exported by its home module.  No
module imports a name it never uses, and the command line loads neither
SciPy nor jsonschema until a command factors a band."""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import qglue

MODULES = sorted(m.name for m in
                 pkgutil.iter_modules(qglue.__path__, "qglue."))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


def test_package_reexports_are_exported_by_their_module():
    reexports = [(name, obj.__module__) for name, obj in vars(qglue).items()
                 if not name.startswith("_")
                 and getattr(obj, "__module__", "").startswith("qglue.")]
    assert reexports
    for name, home in reexports:
        assert name in importlib.import_module(home).__all__, (name, home)


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    # MODULES leaves out the package __init__, whose imports are its
    # re-exports; a name a module lists in __all__ counts as used
    mod = importlib.import_module(name)
    tree = ast.parse(pathlib.Path(mod.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    # an attribute chain such as np.linalg.solve is rooted in a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(mod, "__all__", ()))
    assert not unused, sorted(unused)


def _loaded_after(code):
    """Names in sys.modules of a fresh interpreter after running code, with
    this checkout's qglue on the path."""
    src = pathlib.Path(qglue.__file__).parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); {code}; "
            f"print(sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def _package(modules, name):
    """The modules of package name among modules."""
    return sorted(m for m in modules if m.split(".")[0] == name)


def test_cli_import_leaves_out_heavy_scipy():
    # SciPy loads at the first banded factorization, and the manifests and
    # summaries are checked in the tree, so `import qglue.cli` alone loads
    # neither SciPy nor jsonschema
    loaded = _loaded_after("import qglue.cli")
    assert "qglue.corrector" in loaded
    assert _package(loaded, "scipy") == []
    assert _package(loaded, "jsonschema") == []


def test_commands_without_a_factorization_leave_out_scipy(tmp_path):
    # orbit, sweep, indicial, jacobi and glue factor nothing
    config = {"n": 5, "eps": 0.5, "m": 1, "end1": {"perturbation": [
        {"l": 0, "A": 1e-3, "beta": 2.0}]}, "end2": {}}
    runs = [("orbit", {"n": 5, "eps": 0.5}),
            ("sweep", {"n": 5, "epsList": [0.5]}),
            ("indicial", {"n": 5, "eps": 0.5, "modes": [0]}),
            ("jacobi", {"n": 5, "eps": 0.5, "gridPerPeriod": 32}),
            ("glue", {"config": config, "gridPerPeriod": 32})]
    manifests = [{"command": c, "params": p, "out": str(tmp_path / c)}
                 for c, p in runs]
    loaded = _loaded_after(f"from qglue.cli import execute; "
                           f"[execute(m) for m in {manifests!r}]")
    assert _package(loaded, "scipy") == []
    assert all((tmp_path / c / "summary.json").exists() for c, _ in runs)
