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


def _numpy_exports_lapack():
    """Whether NumPy's linalg extension exports the ILP64 LAPACK of
    NumPy's Linux and macOS x86_64 wheels."""
    import ctypes
    import numpy as np
    try:
        ctypes.CDLL(np.linalg._umath_linalg.__file__)["scipy_dgbtrf_64_"]
    except (OSError, AttributeError):
        return False
    return True


def test_correct_and_diagnose_load_only_the_lapack_module(tmp_path):
    # the factorizations and Schur forms call the LAPACK of NumPy's own
    # OpenBLAS, which the process loaded with NumPy: no SciPy module, and
    # no mapping of SciPy's OpenBLAS; a NumPy without it loads SciPy's
    manifests = [{"command": c, "out": str(tmp_path / c),
                  "params": {"config": BORDERED_CONFIG, "modes": [0, 1]}}
                 for c in ("correct", "diagnose")]
    loaded, maps = _fresh(
        f"import pathlib; from qglue.cli import execute; "
        f"[execute(m) for m in {manifests!r}]; "
        f"maps = pathlib.Path('/proc/self/maps'); "
        f"maps = maps.read_text() if maps.exists() else ''",
        "sorted(sys.modules), maps")
    if _numpy_exports_lapack():
        assert _package(loaded, "scipy") == []
        assert "libscipy_openblas-" not in maps
    else:
        assert "scipy.linalg._flapack" in loaded
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


# qglue's LAPACK bindings against scipy.linalg.lapack: a banded LU and its
# solves, a dense LU and its solves, and sorted real Schur forms with one
# real multiplier and with a complex pair beyond 2.  `exact` names the
# results that must agree bit for bit; the dense LU runs in each
# OpenBLAS's own getrf, which orders its operations differently, so
# `rounding` holds the largest difference of its factors and solves over
# 4 n eps times the largest factor and solution.
LAPACK_ORACLE = textwrap.dedent("""
    import numpy as np
    from qglue.corrector import _lapack
    import scipy.linalg.lapack as theirs
    ours = _lapack()
    rng = np.random.default_rng(5)
    exact = {"bound from NumPy": type(ours).__name__ == "_Lapack"}
    # NumPy's bound routines keep LAPACK's 1-based pivots, SciPy's shift them
    base = int(exact["bound from NumPy"])

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    kl, ku, n = 3, 2, 40
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = rng.standard_normal((kl + ku + 1, n))
    lu, piv, info = ours.dgbtrf(ab, kl, ku)
    lu2, piv2, info2 = theirs.dgbtrf(ab, kl, ku)
    exact["dgbtrf"] = (same(lu, lu2) and np.array_equal(piv, piv2 + base)
                       and info == info2 == 0)
    b = rng.standard_normal((n, 3))
    for trans in (0, 1):
        for rhs in (b[:, 0], b):
            exact[f"dgbtrs trans {trans}, {rhs.ndim}-d"] = same(
                ours.solver("dgbtrs", lu, piv, kl, ku)(rhs, trans),
                theirs.dgbtrs(lu2, kl, ku, rhs, piv2, trans=trans)[0])

    basis = rng.standard_normal((4, 4))
    for k, block in ((1, np.diag([5.0, 1.5, 0.5, -0.3])),
                     (2, np.array([[3.0, 2.0, 0, 0], [-2.0, 3.0, 0, 0],
                                   [0, 0, 1.2, 0], [0, 0, 0, 0.4]]))):
        M = basis @ block @ np.linalg.inv(basis)
        big = lambda re, im: np.hypot(re, im) > 2.0
        lwork = int(ours.dgees(big, M, lwork=-1)[-2][0])
        lwork2 = theirs.dgees(lambda x: None, M, lwork=-1)[-2][0]
        t, sdim, wr, wi, vs, _, info = ours.dgees(big, M, lwork=lwork,
                                                  sort_t=1)
        t2, sdim2, wr2, wi2, vs2, _, info2 = theirs.dgees(
            big, M, lwork=lwork, sort_t=1)
        exact[f"dgees k = {k}"] = (
            lwork == lwork2 and sdim == sdim2 == k and info == info2 == 0
            and all(map(same, (t, wr, wi, vs), (t2, wr2, wi2, vs2))))

    a = rng.standard_normal((8, 8))
    lu, piv, info = ours.dgetrf(a)
    lu2, piv2, info2 = theirs.dgetrf(a)
    exact["dgetrf pivots"] = np.array_equal(piv, piv2 + base) and info == 0
    unit = 4 * len(a) * np.finfo(float).eps
    rounding = {"dgetrf": np.max(np.abs(lu - lu2)) / np.max(np.abs(lu2))
                / unit}
    for trans in (0, 1):
        x = ours.solver("dgetrs", lu, piv)(b[:8], trans)
        x2 = theirs.dgetrs(lu2, piv2, b[:8], trans=trans)[0]
        rounding[f"dgetrs trans {trans}"] = float(
            np.max(np.abs(x - x2)) / np.max(np.abs(x2)) / unit
            / np.linalg.cond(a, 1))
""")


@pytest.mark.parametrize("first", ["factor", "scipy.linalg"])
def test_lapack_routines_are_scipy_linalg_lapack_routines(first):
    # whichever OpenBLAS a process loads first, NumPy's with a
    # factorization or SciPy's with scipy.linalg, the routines bound from
    # NumPy's give scipy.linalg.lapack's results
    factor = ("import numpy as np; from qglue.corrector import _lapack; "
              "assert _lapack().dgetrf(np.eye(2))[2] == 0")
    load = "import scipy.linalg.lapack"
    steps = [factor, load] if first == "factor" else [load, factor]
    exact, rounding = _fresh("\n".join(steps + [LAPACK_ORACLE]),
                             "exact, {k: float(v) for k, v in "
                             "rounding.items()}")
    # the routines are NumPy's wherever NumPy exports them
    assert exact.pop("bound from NumPy") or not _numpy_exports_lapack()
    assert len(exact) == 8 and all(exact.values()), exact
    assert all(0.0 <= v <= 1.0 for v in rounding.values()), rounding


def _without_numpy_lapack(monkeypatch):
    """_lapack()'s routines, uncached, for a NumPy whose library exports
    none of them under the name looked for."""
    from qglue import corrector
    monkeypatch.setattr(corrector, "_SYMBOL", "absent_{}_")
    return corrector._lapack.__wrapped__()


def test_lapack_without_numpy_symbols_is_scipys(monkeypatch):
    # a NumPy whose library exports no ILP64 LAPACK symbol gets SciPy's
    # routines, whose factors solve as NumPy's do
    import numpy as np
    from qglue import corrector
    ours = corrector._lapack()
    theirs = _without_numpy_lapack(monkeypatch)
    assert type(theirs).__name__ == "_SciPyLapack"
    rng = np.random.default_rng(3)
    kl, ku, n = 2, 1, 12
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = rng.standard_normal((kl + ku + 1, n))
    a, b = rng.standard_normal((5, 5)), rng.standard_normal((n, 2))
    solves = []
    for lapack in (ours, theirs):
        lu, piv, info = lapack.dgbtrf(ab, kl, ku)
        assert info == 0
        band = lapack.solver("dgbtrs", lu, piv, kl, ku)
        lu, piv, info = lapack.dgetrf(a)
        assert info == 0
        dense = lapack.solver("dgetrs", lu, piv)
        solves.append([f(rhs, trans) for trans in (0, 1)
                       for f, rhs in ((band, b), (band, b[:, 0]),
                                      (dense, b[:5]))])
    for x, y in zip(*solves):
        assert x.shape == y.shape
        assert np.allclose(x, y, rtol=1e-10, atol=0)


def test_missing_lapack_module_names_its_path(monkeypatch):
    # without the symbols and without SciPy, the error names the library,
    # every symbol looked for, and SciPy
    import numpy as np
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError) as err:
        _without_numpy_lapack(monkeypatch)
    message = str(err.value)
    assert np.linalg._umath_linalg.__file__ in message
    assert "SciPy" in message
    for routine in ("dgbtrf", "dgbtrs", "dgetrf", "dgetrs", "dgees"):
        assert f"absent_{routine}_" in message


def test_correct_and_diagnose_on_scipys_lapack(tmp_path):
    # the commands that factor run on SciPy's LAPACK where NumPy exports
    # none, loading SciPy's module, and give NumPy's LAPACK's results to
    # the rounding of the dense LU
    outputs = {}
    for name, before in (("numpy", ""),
                         ("scipy", "corrector._SYMBOL = 'absent_{}_'; ")):
        manifests = [{"command": c, "out": str(tmp_path / name / c),
                      "params": {"config": BORDERED_CONFIG, "modes": [0, 1]}}
                     for c in ("correct", "diagnose")]
        loaded, kind = _fresh(
            f"from qglue import corrector; {before}"
            f"from qglue.cli import execute; "
            f"[execute(m) for m in {manifests!r}]",
            "sorted(sys.modules), type(corrector._lapack()).__name__")
        outputs[name] = {f: json.loads((tmp_path / name / f).read_text())
                         for f in ("correct/summary.json",
                                   "correct/corrected.json",
                                   "diagnose/summary.json")}
    assert kind == "_SciPyLapack" and "scipy.linalg._flapack" in loaded
    ours, theirs = outputs["numpy"], outputs["scipy"]
    assert theirs["correct/summary.json"]["converged"] is True
    for a, b in zip(ours["correct/corrected.json"]["modes"],
                    theirs["correct/corrected.json"]["modes"]):
        assert a["l"] == b["l"]
        assert max(abs(x - y) for x, y in zip(a["samples"], b["samples"])) \
            <= 1e-12 * max(map(abs, a["samples"]))
    pm, pm2 = (o["diagnose/summary.json"]["perMode"] for o in (ours, theirs))
    assert pm.keys() == pm2.keys()
    assert all(abs(pm[k] - pm2[k]) <= 1e-9 * pm[k] for k in pm)
