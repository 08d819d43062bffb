"""Exported names resolve: every name in a qglue module's __all__ exists,
and every name the package re-exports is exported by its home module.  No
module imports a name it never uses, and the command line loads neither
SciPy nor jsonschema until a command factors a band, and then only SciPy's
compiled LAPACK module.  No command loads numpy.random, and no module of the
package names it.  Every function the benchmark's tracer wraps by name
exists."""

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


PACKAGE_FILES = sorted(pathlib.Path(qglue.__file__).parent.glob("*.py"))


def _dotted(node):
    """The dotted name of an attribute chain rooted in a Name, such as
    np.random.default_rng; '' for any other root."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_module_names_no_numpy_random(path):
    # the program's one seeded draw is diagnose's Lanczos start vector, from
    # the standard library's random.Random
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Attribute, ast.Name)):
            names.add(_dotted(node))
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {f"{node.module}.{a.name}" for a in node.names}
    hits = [n for n in names
            if any(n == r or n.startswith(r + ".")
                   for r in ("np.random", "numpy.random"))
            or "default_rng" in n.split(".")]
    assert not hits, sorted(hits)


def test_traced_names_resolve():
    # qbench/tracing.py wraps its LAYERS functions by name, a dotted one as
    # a method of its class; it is compiled from its source, so nothing is
    # written under qbench
    path = pathlib.Path(__file__).parents[1] / "qbench" / "tracing.py"
    tracing = {}
    exec(compile(path.read_text(), str(path), "exec"), tracing)
    targets = [t for ts in tracing["LAYERS"].values() for t in ts]
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), (module, attr)


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
    # SciPy's LAPACK module loads at the first banded factorization, and the
    # manifests and summaries are checked in the tree, so `import qglue.cli`
    # alone loads neither SciPy nor jsonschema
    loaded = _loaded_after("import qglue.cli")
    assert "qglue.corrector" in loaded
    assert _package(loaded, "scipy") == []
    assert _package(loaded, "jsonschema") == []


def test_commands_without_a_factorization_leave_out_scipy(tmp_path):
    # orbit, sweep, indicial, jacobi and glue factor nothing, and no command
    # draws from NumPy's global generator
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
    assert "numpy.random" not in loaded
    assert all((tmp_path / c / "summary.json").exists() for c, _ in runs)


# the bordered-system config: tails in modes 0 and 1 at end 1 and in mode 0
# at end 2, both ends phase-shifted
BORDERED_CONFIG = {"n": 5, "eps": 0.5, "m": 2,
                   "end1": {"T0": 0.2, "perturbation": [
                       {"l": 0, "A": 1e-3, "beta": 2.0},
                       {"l": 1, "A": 1e-3, "beta": 2.0}]},
                   "end2": {"T0": 0.1, "perturbation": [
                       {"l": 0, "A": -1e-3, "beta": 1.8}]}}


def test_correct_and_diagnose_load_only_the_lapack_module(tmp_path):
    # the factorizations and Schur forms reach LAPACK through SciPy's
    # compiled module alone, never through the scipy.linalg package
    manifests = [{"command": c, "out": str(tmp_path / c),
                  "params": {"config": BORDERED_CONFIG, "modes": [0, 1]}}
                 for c in ("correct", "diagnose")]
    loaded = _loaded_after(f"from qglue.cli import execute; "
                           f"[execute(m) for m in {manifests!r}]")
    assert _package(loaded, "scipy") == ["scipy.linalg._flapack"]
    # diagnose's Lanczos start vector comes from the standard library
    assert "numpy.random" not in loaded
    assert all((tmp_path / c / "summary.json").exists()
               for c in ("correct", "diagnose"))


def test_correct_leaves_out_numpy_random(tmp_path):
    # correct alone, in a fresh interpreter, never reaches numpy.random
    manifest = {"command": "correct", "out": str(tmp_path / "correct"),
                "params": {"config": BORDERED_CONFIG, "modes": [0, 1]}}
    loaded = _loaded_after(f"from qglue.cli import execute; "
                           f"execute({manifest!r})")
    assert "numpy.random" not in loaded
    assert (tmp_path / "correct" / "summary.json").exists()


@pytest.mark.parametrize("first", ["factor", "scipy.linalg"])
def test_lapack_routines_are_scipy_linalg_lapack_routines(first):
    # one module object whichever loads first, and scipy.linalg still
    # works around it
    factor = ("import numpy as np; from qglue.corrector import BandLU, "
              "BandedOperator; lu = BandLU(BandedOperator(kl=0, ku=0, "
              "band=np.array([[2.0], [1.0]]), cols=np.array([[1.0], [1.0]]), "
              "rows=np.array([[1.0, 1.0]])), np.ones(3)); "
              "assert not lu.singular")
    load = "import scipy.linalg, scipy.linalg.lapack"
    check = ("from qglue.corrector import _lapack; "
             "assert all(getattr(scipy.linalg.lapack, r) is getattr("
             "_lapack(), r) for r in ('dgbtrf', 'dgbtrs', 'dgetrf', "
             "'dgetrs', 'dgees')); "
             "lu, piv = scipy.linalg.lu_factor([[2.0, 1.0], [1.0, 3.0]]); "
             "x = scipy.linalg.lu_solve((lu, piv), [3.0, 4.0]); "
             "assert np.allclose(x, [1.0, 1.0]), x")
    steps = [factor, load] if first == "factor" else [load, factor]
    loaded = _loaded_after("; ".join(steps + [check]))
    assert "scipy.linalg._decomp_lu" in loaded


def test_missing_lapack_module_names_its_path(tmp_path, monkeypatch):
    import importlib.machinery
    import importlib.util
    import re
    from qglue.corrector import _lapack
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    # the uncached loader, so the process keeps its loaded module
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        _lapack.__wrapped__()
