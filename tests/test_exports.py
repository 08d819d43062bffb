"""Exported names resolve: every name in a qglue module's __all__ exists,
and every name the package re-exports is exported by its home module.  No
module imports a name it never uses, and the command line loads neither
SciPy nor jsonschema until a command factors a band, and then only SciPy's
compiled LAPACK module.  The corrector executes at the first correct or
diagnose, once per process, and never in one that only runs the other
commands.  No command loads numpy.random, and no module of the package
names it.  Every function the benchmark's tracer wraps by name exists, and
is wrapped when the corrector has not executed yet."""

import ast
import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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


def _fresh(code, result):
    """The value of the literal expression result in a fresh interpreter
    after running code, with this checkout's qglue on the path."""
    src = pathlib.Path(qglue.__file__).parents[1]
    code = (f"import sys\nsys.path.insert(0, {str(src)!r})\n{code}\n"
            f"print(repr(({result})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def _loaded_after(code):
    """Names in sys.modules of a fresh interpreter after running code."""
    return set(_fresh(code, "sorted(sys.modules)"))


def _package(modules, name):
    """The modules of package name among modules."""
    return sorted(m for m in modules if m.split(".")[0] == name)


def test_cli_import_leaves_out_heavy_scipy():
    # SciPy's LAPACK module loads at the first banded factorization, and the
    # manifests and summaries are checked in the tree, so `import qglue.cli`
    # alone loads neither SciPy nor jsonschema; the corrector's name is
    # registered, though its module has not executed
    loaded = _loaded_after("import qglue.cli")
    assert "qglue.corrector" in loaded
    assert _package(loaded, "scipy") == []
    assert _package(loaded, "jsonschema") == []


SMALL_CONFIG = {"n": 5, "eps": 0.5, "m": 1, "end1": {"perturbation": [
    {"l": 0, "A": 1e-3, "beta": 2.0}]}, "end2": {}}

# small runs of the commands that solve nothing
NON_SOLVING = [("constants", {"n": 5}),
               ("orbit", {"n": 5, "eps": 0.5}),
               ("sweep", {"n": 5, "epsList": [0.5]}),
               ("indicial", {"n": 5, "eps": 0.5, "modes": [0]}),
               ("jacobi", {"n": 5, "eps": 0.5, "gridPerPeriod": 32}),
               ("glue", {"config": SMALL_CONFIG, "gridPerPeriod": 32})]
SOLVING = [(c, {"config": SMALL_CONFIG, "gridPerPeriod": 32})
           for c in ("correct", "diagnose")]


def _manifests(runs, out):
    return [{"command": c, "params": p, "out": str(out / c)} for c, p in runs]


def test_commands_without_a_factorization_leave_out_scipy(tmp_path):
    # orbit, sweep, indicial, jacobi and glue factor nothing, and no command
    # draws from NumPy's global generator
    loaded = _loaded_after(f"from qglue.cli import execute; "
                           f"[execute(m) for m in "
                           f"{_manifests(NON_SOLVING, tmp_path)!r}]")
    assert _package(loaded, "scipy") == []
    assert "numpy.random" not in loaded
    assert all((tmp_path / c / "summary.json").exists()
               for c, _ in NON_SOLVING)


# counts the executions of corrector.py's module code in `runs`
COUNT_CORRECTOR_RUNS = (
    "import types; runs = []; sys.addaudithook(lambda event, args: "
    "runs.append(event) if event == 'exec' and getattr(args[0], "
    "'co_filename', '').endswith('corrector.py') else None)")


@pytest.mark.parametrize("way", ["execute", "batch"])
def test_only_solving_commands_execute_the_corrector(tmp_path, way):
    # through execute, one manifest at a time, or as `qglue run` batches:
    # the commands that solve nothing leave the corrector unexecuted, and
    # correct then diagnose execute it once
    quiet, solving = (_manifests(r, tmp_path) for r in (NON_SOLVING, SOLVING))
    if way == "execute":
        steps = [f"[execute(m) for m in {ms!r}]" for ms in (quiet, solving)]
    else:
        for name, ms in (("quiet", quiet), ("solving", solving)):
            (tmp_path / f"{name}.json").write_text(json.dumps(ms))
        steps = [f"assert main(['run', {str(tmp_path / name)!r}]) == 0"
                 for name in ("quiet.json", "solving.json")]
    state = ("(len(runs), type(sys.modules['qglue.corrector']) "
             "is types.ModuleType)")
    before, after = _fresh(
        f"{COUNT_CORRECTOR_RUNS}; from qglue.cli import execute, main; "
        f"{steps[0]}; before = {state}; {steps[1]}", f"before, {state}")
    assert before == (0, False)
    assert after == (1, True)
    assert all((tmp_path / c / "summary.json").exists()
               for c, _ in NON_SOLVING + SOLVING)


@pytest.mark.parametrize("first", ["corrector", "cli"])
def test_cli_calls_the_one_corrector_module(first):
    # whichever is imported first, cli, the package and sys.modules hold
    # one corrector module, executed once
    imports = ["import qglue.corrector", "import qglue.cli"]
    if first == "cli":
        imports.reverse()
    assert _fresh(
        f"{COUNT_CORRECTOR_RUNS}; {'; '.join(imports)}; "
        f"from qglue.corrector import iterate; import qglue",
        "(qglue.cli.corrector is sys.modules['qglue.corrector'] "
        "is qglue.corrector, qglue.cli.corrector.iterate is iterate, "
        "type(qglue.corrector) is types.ModuleType, len(runs))") == (
        True, True, True, 1)


def test_tracer_wraps_every_layer_before_the_corrector_executes(tmp_path):
    # the benchmark's tracer installs after a round of commands that solve
    # nothing: its own lookups execute the corrector, and every LAYERS
    # target, and every binding of one in a qglue module, is its wrapper,
    # so a correct after it is traced
    path = pathlib.Path(__file__).parents[1] / "qbench" / "tracing.py"
    code = textwrap.dedent(f"""\
        import functools, types
        from qglue.cli import execute
        for m in {_manifests(NON_SOLVING, tmp_path)!r}:
            execute(m)
        lazy = type(sys.modules["qglue.corrector"]) is not types.ModuleType
        path = {str(path)!r}
        tracing = {{}}
        exec(compile(open(path).read(), path, "exec"), tracing)
        tracer = tracing["Tracer"]()
        tracer.install()
        targets = [t for ts in tracing["LAYERS"].values() for t in ts]
        names = {{attr for _, attr in targets}}
        found = [(f"{{m}}.{{a}}", functools.reduce(
            getattr, a.split("."), sys.modules[m])) for m, a in targets]
        found += [(f"{{m}}.{{k}}", v) for m, mod in list(sys.modules.items())
                  if m.startswith("qglue.") for k, v in vars(mod).items()
                  if k in names and callable(v)]
        unwrapped = sorted(name for name, fn in found
                           if fn.__code__.co_filename != path)
        sys.modules["qglue.cli"].execute(
            {_manifests(SOLVING[:1], tmp_path)[0]!r})
        calls = {{k: c for k, (c, _) in tracer.self_times().items()}}""")
    lazy, unwrapped, calls = _fresh(code, "lazy, unwrapped, calls")
    assert lazy
    assert unwrapped == []
    assert calls["corrector.iterate"] == calls["corrector.verify"] == 1
    assert calls["cli.self"] == 1


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
