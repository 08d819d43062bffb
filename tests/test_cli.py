import collections
import copy
import csv
import json
import math
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import jsonschema
import numpy as np
import pytest

from qglue import schemas
from qglue.cli import HANDLERS, _json_text, execute, main
from qglue.errors import DomainError, ManifestError, QGlueError
from qglue.gauges import derive_constants
from qglue.schemas import (BATCH_STATUS_SCHEMA, GLUING_CONFIG,
                           MANIFEST_SCHEMA, PARAMS_SCHEMAS, SUMMARY_SCHEMAS,
                           SummaryError, iter_errors, validate_manifest,
                           validate_summary)
from conftest import cold_orbits


# the README's reference config
README_CONFIG = {"n": 5, "eps": 0.5, "m": 2,
                 "end1": {"T0": 0.0, "perturbation": [
                     {"l": 0, "A": 1e-3, "beta": 2.0}]},
                 "end2": {}}


def run_manifest(tmp_path, command, params, seed=0):
    out = tmp_path / command
    summary, _ = execute({"command": command, "params": params,
                          "out": str(out), "seed": seed})
    return summary, out


class TestManifestValidation:
    def test_unknown_keys_rejected_with_pointer(self):
        with pytest.raises(ManifestError) as exc:
            validate_manifest({"command": "constants", "params": {"n": 5},
                               "bogus": 1})
        assert "bogus" in str(exc.value) or "/" in str(exc.value)

    def test_unknown_param_rejected(self):
        with pytest.raises(ManifestError) as exc:
            validate_manifest({"command": "constants",
                               "params": {"n": 5, "extra": 2}})
        assert "extra" in str(exc.value)

    def test_nested_pointer(self):
        with pytest.raises(ManifestError) as exc:
            validate_manifest({
                "command": "glue",
                "params": {"config": {"n": 5, "eps": 0.5, "m": 2,
                                      "end1": {"perturbation": [
                                          {"l": 0, "A": 1e-3, "beta": 0.5}]}}}})
        # the pointer is into the manifest, not into its params
        assert "at /params/config/end1/perturbation/0/beta: " in str(
            exc.value)

    @pytest.mark.parametrize("command, params", [
        ("sweep", {"n": 5, "epsList": [0.5], "gridPerPeriod": 64}),
        ("glue", {"config": {"n": 5, "eps": 0.5, "m": 2, "r0": 1.0}}),
        ("glue", {"config": {"n": 5, "eps": 0.5, "m": 2,
                             "end1": {"eps": 0.5}}}),
        ("glue", {"config": {"n": 5, "eps": 0.5, "m": 2,
                             "end1": {"a": [0.0]}}}),
    ])
    def test_unread_keys_rejected(self, tmp_path, command, params):
        # sweep.gridPerPeriod, the config's r0 and the per-end eps and a
        # set nothing, so no manifest may carry them
        manifest = {"command": command, "params": params,
                    "out": str(tmp_path / "x")}
        with pytest.raises(ManifestError):
            execute(manifest)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["run", str(path)]) == 1

    @pytest.mark.parametrize("content", [None, "not json", '{"n": 5,',
                                         b"\xff\xfe"])
    @pytest.mark.parametrize("command", ["glue", "run"])
    def test_unreadable_file_is_a_manifest_error(self, tmp_path, capsys,
                                                 command, content):
        # a missing file, or one that is not JSON, as --config or as the
        # manifest of `run`: exit 1 naming the file, not a traceback
        path = tmp_path / "in.json"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            path.write_bytes(content)
        argv = (["run", str(path)] if command == "run" else
                ["glue", "--config", str(path), "--m", "3",
                 "--out", str(tmp_path / "x")])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and str(path) in err
        assert "Traceback" not in err

    def test_config_that_is_no_object_is_a_manifest_error(self, tmp_path,
                                                          capsys):
        path = tmp_path / "in.json"
        path.write_text("[1]")
        assert main(["correct", "--config", str(path), "--m", "3",
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "manifest error: manifest invalid at /params/config: [1] is not "
            "of type 'object'\n")

    def test_invalid_summary_is_a_program_fault(self):
        # a summary its schema rejects is a bug, not an exit code
        with pytest.raises(SummaryError, match="at /: 'n' is a required") \
                as exc:
            validate_summary({"command": "constants", "c2": 1.0, "c0": 1.0,
                              "cN": 1.0, "p": 1.0, "qTarget": 1.0,
                              "epsBar": 0.5})
        assert isinstance(exc.value, ValueError)
        assert not isinstance(exc.value, QGlueError)

    def test_domain_error_not_schema_error(self, tmp_path):
        # schema-valid but mathematically out of range: domain error, exit 2
        rc = main(["orbit", "--n", "5", "--eps", "0.99",
                   "--out", str(tmp_path / "x")])
        assert rc == 2


class SpyStop(Exception):
    """Raised by a test's stand-in for a function a handler calls."""


class TestCommands:
    def test_constants(self, tmp_path):
        summary, out = run_manifest(tmp_path, "constants", {"n": 5})
        validate_summary(summary)
        assert summary["epsBar"] == pytest.approx(0.8357835878, rel=1e-9)
        assert (out / "summary.json").exists()

    def test_orbit_summary_and_artifact(self, tmp_path):
        summary, out = run_manifest(tmp_path, "orbit", {"n": 5, "eps": 0.5})
        validate_summary(summary)
        assert summary["residualSup"] < 1e-7
        assert summary["hamiltonianDrift"] < 1e-8
        assert 0.0 < summary["seriesResidual"] <= 1e-10
        assert summary["seriesTail"] <= 1e-16
        doc = json.loads((out / "orbit.json").read_text())
        assert doc["eps"] == 0.5

    def test_sweep_rows_carry_shooting_mismatch(self, tmp_path):
        eps_bar = derive_constants(5).epsBar
        summary, _ = run_manifest(tmp_path, "sweep",
                                  {"n": 5, "epsList": [0.5, eps_bar]})
        validate_summary(summary)
        residual = [row["seriesResidual"] for row in summary["rows"]]
        assert 0.0 < residual[0] <= 1e-10
        # the constant orbit at epsBar is not collocated
        assert residual[1] == 0.0
        assert summary["rows"][1]["seriesTail"] == 0.0

    @pytest.mark.parametrize("n, eps", [(6, 0.4393), (9, 0.3070)])
    def test_jacobi_residuals_relative_and_rates_exponential(self, tmp_path,
                                                             n, eps):
        # residuals relative to each field's size: the growing fields reach
        # |w| ~ 1e3 over [-T, 2T], where absolute residuals read 3.5e-3
        summary, _ = run_manifest(tmp_path, "jacobi", {"n": n, "eps": eps})
        validate_summary(summary)
        residuals = summary["generatorResiduals"]
        assert sorted(residuals) == ["0+", "0-", "l+", "l-"]
        assert all(0.0 < r <= 1e-4 for r in residuals.values())
        # the degree-0 fields, periodic and linearly growing, have no
        # exponential rate
        assert sorted(summary["measuredRates"]) == ["l+", "l-"]

    def test_sweep_of_one_necksize_has_no_direction(self):
        # one necksize is trivially monotone and has no direction; both
        # keys come from one test
        summary, _ = HANDLERS["sweep"]({"n": 5, "epsList": [0.5]})
        validate_summary(summary)
        assert summary["hamiltonianMonotone"] is True
        assert "hamiltonianDirection" not in summary

    def test_sweep_rows_in_input_order(self):
        # solved from epsBar downwards, reported in input order; a repeated
        # necksize gives the same row
        eps_bar = derive_constants(5).epsBar
        summary, _ = HANDLERS["sweep"](
            {"n": 5, "epsList": [0.3, 0.7, eps_bar, 0.3]})
        rows = summary["rows"]
        assert [r["eps"] for r in rows] == [0.3, 0.7, eps_bar, 0.3]
        assert rows[0] == rows[3]
        assert summary["hamiltonianMonotone"] is False

    def test_sweep_checks_every_necksize_first(self, monkeypatch):
        # 0.0 would be solved last; it fails before any orbit is continued
        from qglue import delaunay
        monkeypatch.setattr(delaunay, "_continue", None)
        with pytest.raises(DomainError, match="got 0.0"):
            HANDLERS["sweep"]({"n": 5, "epsList": [0.5, 0.0]})

    def test_sweep_csv_cells_are_numbers(self, tmp_path):
        eps_bar = derive_constants(5).epsBar
        _, out = run_manifest(tmp_path, "sweep",
                              {"n": 5, "epsList": [0.5, eps_bar]})
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert list(row) == ["eps", "period", "hamiltonian",
                                 "residualSup"]
            for cell in row.values():
                float(cell)

    @pytest.mark.parametrize("command", ["orbit", "sweep", "indicial"])
    def test_orbit_tolerance_key_rejected(self, command):
        params = {"n": 5, "tol": 1e-11}
        params.update({"epsList": [0.5]} if command == "sweep"
                      else {"eps": 0.5})
        with pytest.raises(ManifestError):
            validate_manifest({"command": command, "params": params})

    def test_orbit_rerun_byte_identical(self, tmp_path):
        _, out1 = run_manifest(tmp_path / "a", "orbit", {"n": 5, "eps": 0.6})
        with cold_orbits():
            _, out2 = run_manifest(tmp_path / "b", "orbit",
                                   {"n": 5, "eps": 0.6})
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()
        assert (out1 / "orbit.json").read_bytes() == \
            (out2 / "orbit.json").read_bytes()

    def test_correct_rerun_byte_identical(self, tmp_path):
        params = {
            "config": {"n": 5, "eps": 0.5, "m": 2,
                       "end1": {"perturbation": [
                           {"l": 0, "A": 1e-3, "beta": 2.0}]},
                       "end2": {}},
            "gridPerPeriod": 32,
        }
        _, out1 = run_manifest(tmp_path / "a", "correct", params)
        with cold_orbits():
            _, out2 = run_manifest(tmp_path / "b", "correct", params)
        for name in ("summary.json", "trace.csv", "corrected.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["correct", "diagnose"])
    def test_seed_changes_no_output(self, tmp_path, command):
        params = {"config": README_CONFIG, "gridPerPeriod": 32}
        _, out1 = run_manifest(tmp_path / "a", command, params, seed=0)
        _, out2 = run_manifest(tmp_path / "b", command, params, seed=12345)
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_indicial_contains_translation_rates(self, tmp_path):
        summary, out = run_manifest(tmp_path, "indicial",
                                    {"n": 5, "eps": 0.7, "modes": [0, 1, 2]})
        validate_summary(summary)
        mode1 = [m for m in summary["modes"] if m["l"] == 1][0]
        exps = np.array(mode1["exponents"])
        assert np.min(np.abs(exps - 1.0)) < 1e-6
        assert np.min(np.abs(exps + 1.0)) < 1e-6

    def test_glue_with_study(self, tmp_path):
        params = {
            "config": {"n": 5, "eps": 0.5, "m": 2,
                       "end1": {"perturbation": [
                           {"l": 0, "A": 1e-3, "beta": 2.0}]},
                       "end2": {}},
            "gridPerPeriod": 48,
            "mList": [1, 2, 3, 4],
        }
        summary, out = run_manifest(tmp_path, "glue", params)
        validate_summary(summary)
        assert summary["study"]["betaHat"] == pytest.approx(2.0, abs=0.1)
        lines = (out / "study.csv").read_text().strip().splitlines()
        assert lines[0] == "m,supPsi,weightedPsi,fitBeta"
        assert len(lines) == 5

    def test_glue_builds_each_overlap_once(self, cold_memo, monkeypatch):
        # the command's own blend and defect at m = 2 serve the study's
        # m = 2: a hit on the kept ones evaluates no defect
        from qglue import gluing
        evaluated = []
        original = gluing._defect

        def counting(approx, delta):
            evaluated.append(approx.config.m)
            return original(approx, delta)

        params = {"config": README_CONFIG, "gridPerPeriod": 32,
                  "mList": [1, 2, 3]}
        with monkeypatch.context() as mp:
            mp.setattr(gluing, "_defect", counting)
            summary, artifacts = HANDLERS["glue"](params)
        assert sorted(evaluated) == [1, 2, 3]
        # the same study as one that builds every overlap itself
        cfg = gluing.GluingConfig.from_json(README_CONFIG)
        st = gluing.decay_study(cfg, [1, 2, 3], grid_per_period=32)
        assert artifacts["study.csv"][1] == st.rows()

    def test_every_default_weight_rate_is_weight_rate(self):
        # the very object, not an equal float: a literal 1.5 written in
        # another module is another object
        import inspect
        from qglue import corrector, gluing
        for fn in (gluing.defect, gluing.decay_study,
                   corrector.nondegeneracy_diag):
            default = inspect.signature(fn).parameters["delta"].default
            assert default is gluing.WEIGHT_RATE
        for command in ("glue", "diagnose"):
            summary, _ = HANDLERS[command]({"config": SMALL_CONFIG,
                                            "gridPerPeriod": 32})
            assert summary["delta"] is gluing.WEIGHT_RATE

    def test_every_default_grid_is_grid_per_period(self, monkeypatch):
        import ast
        import inspect
        from qglue import cli, gluing
        for fn in (gluing.build_approximate, gluing.decay_study):
            args = ast.parse(inspect.getsource(fn)).body[0].args
            names = [a.arg for a in args.args][-len(args.defaults):]
            default = args.defaults[names.index("grid_per_period")]
            assert ast.unparse(default) == "GRID_PER_PERIOD"
        # 17, not a small int that CPython shares, so a literal default in
        # a handler cannot pass for the constant
        monkeypatch.setattr(cli, "GRID_PER_PERIOD", 17)
        grids = []

        def build(cfg, grid_per_period):
            grids.append(grid_per_period)
            raise SpyStop

        def apply(op, t, w):
            grids.append((len(t) - 1) // 3)
            raise SpyStop
        monkeypatch.setattr(cli, "build_approximate", build)
        monkeypatch.setattr(cli, "mode_apply", apply)
        for command, params in (("jacobi", {"n": 5, "eps": 0.5}),
                                ("glue", {"config": SMALL_CONFIG}),
                                ("correct", {"config": SMALL_CONFIG}),
                                ("diagnose", {"config": SMALL_CONFIG})):
            with pytest.raises(SpyStop):
                HANDLERS[command](params)
        assert grids == [17] * 4

    def test_correct_passes_iterate_only_the_manifest_keys(self,
                                                           monkeypatch):
        # iterate's own defaults serve the keys a manifest leaves out
        from qglue import cli
        calls = []

        def iterate(approx, **kwargs):
            calls.append(kwargs)
            raise SpyStop
        # cli calls the corrector through its module
        monkeypatch.setattr(cli.corrector, "iterate", iterate)
        for params in ({}, {"scheme": "newton", "tol": 1e-12, "maxIter": 9,
                            "minIter": 2}):
            with pytest.raises(SpyStop):
                HANDLERS["correct"]({"config": SMALL_CONFIG,
                                     "gridPerPeriod": 32, **params})
        assert calls == [{"degrees": (0,)},
                         {"degrees": (0,), "scheme": "newton", "tol": 1e-12,
                          "max_iter": 9, "min_iter": 2}]

    @pytest.mark.parametrize("m_list", ["2,2,2", "2,2,3"])
    def test_glue_study_rejects_repeated_lengths(self, tmp_path, m_list):
        # a fit needs three distinct overlap lengths: exit 2
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(README_CONFIG))
        assert main(["glue", "--config", str(path), "--m-list", m_list,
                     "--out", str(tmp_path / "x")]) == 2

    def test_floor_level_defect_converges_without_a_system(self, tmp_path):
        # at m = 6 the README config's initial defect is below iterate's
        # 1e-30 floor: converged after 0 iterations, with no system
        # assembled, so no cond, solveResidual or condition estimate
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(README_CONFIG))
        args = ["--config", str(path), "--m", "6", "--modes", "0,1,2"]
        assert main(["correct", *args, "--out", str(tmp_path / "c")]) == 0
        doc = json.loads((tmp_path / "c" / "summary.json").read_text())
        validate_summary(doc)
        assert doc["initialDefect"] <= 1e-30
        assert doc["iterations"] == 0 and doc["converged"] is True
        assert "cond" not in doc and "solveResidual" not in doc
        assert main(["diagnose", *args, "--out", str(tmp_path / "d")]) == 0
        doc = json.loads((tmp_path / "d" / "summary.json").read_text())
        assert doc["corrected"] is True and doc["condEstimates"] == {}

    def test_min_iter_above_max_iter_is_a_domain_error(self, tmp_path):
        # such an iteration could never stop as converged: exit 2, before
        # any solve, rather than exit 0 with converged false
        params = {"config": README_CONFIG, "maxIter": 1, "minIter": 3}
        with pytest.raises(DomainError, match="min_iter 3 exceeds max_iter 1"):
            run_manifest(tmp_path, "correct", params)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "correct", "params": params,
                                    "out": str(tmp_path / "run")}))
        assert main(["run", str(path)]) == 2
        assert not (tmp_path / "run").exists()
        params["minIter"] = 1
        summary, _ = run_manifest(tmp_path, "correct", params)
        assert summary["converged"] and summary["iterations"] == 1

    def test_correct_emits_trace(self, tmp_path):
        params = {
            "config": {"n": 5, "eps": 0.5, "m": 2,
                       "end1": {"perturbation": [
                           {"l": 0, "A": 1e-3, "beta": 2.0}]},
                       "end2": {}},
            "gridPerPeriod": 48,
            "scheme": "picard",
            "tol": 1e-9,
        }
        summary, out = run_manifest(tmp_path, "correct", params)
        validate_summary(summary)
        assert summary["finalDefect"] < 1e-9
        assert summary["converged"]
        assert 0.0 <= summary["solveResidual"] < 1e-6
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "k,defectSup,corrSup,ratio"
        assert float(lines[-1].split(",")[1]) < 1e-9
        corrected = json.loads((out / "corrected.json").read_text())
        assert corrected["nT"] > 0

    def test_correct_exact_ends_writes_strict_json(self, tmp_path):
        # exact ends: iterate returns before assembling a bordered system,
        # so there is no condition estimate to report
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        params = {"config": {"n": 5, "eps": 0.5, "m": 2},
                  "gridPerPeriod": 32}
        summary, out = run_manifest(tmp_path, "correct", params)
        doc = json.loads((out / "summary.json").read_text(),
                         parse_constant=reject)
        assert doc["iterations"] == 0
        assert doc["converged"]
        assert "cond" not in doc
        assert "solveResidual" not in doc

    @pytest.mark.parametrize("scheme", ["picard", "newton"])
    def test_correct_exact_ends_keep_the_requested_degrees(self, tmp_path,
                                                           scheme):
        # the blend is exact, so no step runs; the corrected field still
        # spans the requested modes, mode 1 zero and mode 0 the blend
        config = {"n": 5, "eps": 0.5, "m": 2}
        summary, out = run_manifest(tmp_path, "correct", {
            "config": config, "scheme": scheme, "modes": [0, 1]})
        _, glue = run_manifest(tmp_path, "glue", {"config": config})
        assert summary["iterations"] == 0
        assert "cond" not in summary
        corrected = json.loads((out / "corrected.json").read_text())
        blend = json.loads((glue / "field.json").read_text())
        assert [m["l"] for m in corrected["modes"]] == [0, 1]
        assert [m["l"] for m in blend["modes"]] == [0]
        assert corrected["modes"][0]["samples"] == blend["modes"][0]["samples"]
        assert not any(corrected["modes"][1]["samples"])

    def test_diagnose(self, tmp_path):
        params = {
            "config": {"n": 5, "eps": 0.5, "m": 2,
                       "end1": {"perturbation": [
                           {"l": 0, "A": 1e-3, "beta": 2.0}]},
                       "end2": {}},
            "gridPerPeriod": 48,
            "delta": 1.5,
        }
        summary, out = run_manifest(tmp_path, "diagnose", params)
        validate_summary(summary)
        assert summary["sigmaMin"] > 0
        assert (out / "diagnostics.json").exists()


# a batch: two commands on one config, one manifest that exits 2 (a dEps
# whose stencil rounds to eps), and one other command
BATCH = [
    ("correct", {"config": README_CONFIG, "gridPerPeriod": 32,
                 "scheme": "newton"}),
    ("diagnose", {"config": README_CONFIG, "gridPerPeriod": 32}),
    ("jacobi", {"n": 5, "eps": 0.5, "dEps": 1e-300}),
    ("orbit", {"n": 5, "eps": 0.6}),
]


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestBatch:
    def test_batch_matches_lone_runs(self, tmp_path, capsys):
        lone = []
        for i, (command, params) in enumerate(BATCH):
            manifest = tmp_path / f"{i}.json"
            manifest.write_text(json.dumps({
                "command": command, "params": params,
                "out": str(tmp_path / "lone" / str(i))}))
            with cold_orbits():  # as in a process of its own
                lone.append(main(["run", str(manifest)]))
        assert lone == [0, 0, 2, 0]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([
            {"command": c, "params": p,
             "out": str(tmp_path / "batch" / str(i))}
            for i, (c, p) in enumerate(BATCH)]))
        capsys.readouterr()
        with cold_orbits():
            assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        status = json.loads((tmp_path / "batch.status.json").read_text())
        assert json.loads(out) == status
        assert not list(iter_errors(BATCH_STATUS_SCHEMA, status))
        jsonschema.validate(status, BATCH_STATUS_SCHEMA)
        assert status["exitCode"] == 2
        assert [e["exitCode"] for e in status["manifests"]] == lone
        assert status["manifests"][2]["error"].startswith("domain error: ")
        assert err == f"manifest 2: {status['manifests'][2]['error']}\n"
        for i, code in enumerate(lone):
            batch = tmp_path / "batch" / str(i)
            alone = tmp_path / "lone" / str(i)
            assert alone.exists() == batch.exists() == (code == 0)
            if code == 0:
                assert _files(batch) == _files(alone)

    def test_exit_code_is_the_largest(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        path.write_text(json.dumps([
            {"command": "orbit", "params": {"n": 5, "eps": 0.99}},
            {"command": "orbit", "params": {"n": 5}},
            {"command": "constants", "params": {"n": 5},
             "out": str(tmp_path / "c")}]))
        assert main(["run", str(path)]) == 2
        status = json.loads((tmp_path / "b.status.json").read_text())
        assert [e["exitCode"] for e in status["manifests"]] == [2, 1, 0]
        path.write_text("[]")
        assert main(["run", str(path)]) == 0
        assert json.loads((tmp_path / "b.status.json").read_text()) == {
            "exitCode": 0, "manifests": []}

    def test_picard_and_newton_share_the_orbit_side(self, tmp_path,
                                                    cold_memo, monkeypatch):
        # the orbit, its generators, its end flows and their frames are
        # computed by the first command on a config; the second computes none
        from qglue import corrector, delaunay, jacobi
        calls = collections.Counter()
        for module, name in ((delaunay, "_solve"), (jacobi, "_tangent"),
                             (jacobi, "_monodromy"),
                             (corrector, "_invariant_subspace")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        params = {"config": README_CONFIG, "gridPerPeriod": 32,
                  "modes": [0, 1]}
        run_manifest(tmp_path / "p", "correct", dict(params, scheme="picard"))
        first = dict(calls)
        assert first == {"_solve": 1, "_tangent": 1, "_monodromy": 4,
                         "_invariant_subspace": 8}
        run_manifest(tmp_path / "n", "correct", dict(params, scheme="newton"))
        assert calls == first

    def test_a_run_is_the_same_after_unrelated_ones(self, tmp_path,
                                                   cold_memo):
        params = {"config": README_CONFIG, "gridPerPeriod": 32,
                  "modes": [0, 1]}
        _, before = run_manifest(tmp_path / "a", "correct", params)
        other = dict(README_CONFIG, eps=0.4)
        run_manifest(tmp_path / "x", "correct",
                     {"config": other, "gridPerPeriod": 32})
        run_manifest(tmp_path / "x", "sweep", {"n": 5, "epsList": [0.3, 0.5]})
        run_manifest(tmp_path / "x", "jacobi", {"n": 5, "eps": 0.5})
        run_manifest(tmp_path / "x", "indicial", {"n": 5, "eps": 0.5})
        _, after = run_manifest(tmp_path / "b", "correct", params)
        assert _files(after) == _files(before)

    @pytest.mark.parametrize("t0", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_diagnose_after_correct_matches_lone_runs(self, tmp_path,
                                                      monkeypatch, t0):
        # on one config diagnose takes correct's blend, its defect and its
        # factored system; end 1 at T0 = -0.0 is another blend
        from qglue import corrector
        runs = [(command, dict(params, config=dict(
                    README_CONFIG, end1=dict(README_CONFIG["end1"], T0=t)),
                    gridPerPeriod=32, modes=[0, 1]))
                for (command, params), t in zip(
                    [("correct", {"scheme": "newton"}), ("diagnose", {})], t0)]
        lone = []
        for i, (command, params) in enumerate(runs):
            with cold_orbits():  # as in a process of its own
                lone.append(_files(run_manifest(
                    tmp_path / "lone" / str(i), command, params)[1]))
        assembled = []
        real = corrector._assemble
        monkeypatch.setattr(corrector, "_assemble", lambda *args: (
            assembled.append(args[1]), real(*args))[1])
        with cold_orbits():
            together = [_files(run_manifest(
                tmp_path / "one" / str(i), command, params)[1])
                for i, (command, params) in enumerate(runs)]
        assert together == lone
        shared = repr(t0[0]) == repr(t0[1])
        assert assembled == [(0, 1)] * (1 if shared else 2)


class TestCliProcess:
    def test_constants_subprocess(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "qglue.cli", "constants", "--n", "6",
             "--out", str(tmp_path / "c6")],
            capture_output=True, text=True)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["cN"] == 24.0

    def test_epsbar_literal(self, tmp_path):
        r = subprocess.run(
            [sys.executable, "-m", "qglue.cli", "indicial", "--n", "5",
             "--eps", "epsbar", "--modes", "0..1",
             "--out", str(tmp_path / "ib")],
            capture_output=True, text=True)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        mode1 = [m for m in doc["modes"] if m["l"] == 1][0]
        assert min(abs(x - 1.0) for x in mode1["exponents"]) < 1e-6

    def test_run_manifest_file(self, tmp_path):
        mf = tmp_path / "m.json"
        mf.write_text(json.dumps({
            "command": "constants", "params": {"n": 7},
            "out": str(tmp_path / "c7")}))
        r = subprocess.run([sys.executable, "-m", "qglue.cli", "run",
                            str(mf)], capture_output=True, text=True)
        assert r.returncode == 0

    def test_bad_manifest_exit_code(self, tmp_path):
        mf = tmp_path / "bad.json"
        mf.write_text(json.dumps({"command": "constants",
                                  "params": {"n": 5}, "oops": True}))
        r = subprocess.run([sys.executable, "-m", "qglue.cli", "run",
                            str(mf)], capture_output=True, text=True)
        assert r.returncode == 1
        assert "manifest" in r.stderr


    @pytest.mark.parametrize("eps", ["0.05", "0.02"])
    def test_small_necksize_orbit(self, tmp_path, eps):
        # the residual grid keeps its spacing on the long periods of small
        # necksizes
        out = tmp_path / "o"
        assert main(["orbit", "--n", "5", "--eps", eps,
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["residualSup"] < 1e-7

    @pytest.mark.parametrize("flag, value", [("--eps", "abc"),
                                             ("--eps-list", "0.5,abc")])
    def test_malformed_necksize_is_a_usage_error(self, tmp_path, flag,
                                                 value):
        command = "sweep" if flag == "--eps-list" else "orbit"
        r = subprocess.run(
            [sys.executable, "-m", "qglue.cli", command, "--n", "5", flag,
             value, "--out", str(tmp_path / "bad")],
            capture_output=True, text=True)
        assert r.returncode == 2
        assert "usage:" in r.stderr and "'abc'" in r.stderr
        assert "Traceback" not in r.stderr

    def test_jacobi_next_to_eps_bar(self, tmp_path):
        # eps + dEps passes epsBar = 0.835784, so the cross-check takes the
        # one-sided difference
        out = tmp_path / "j"
        assert main(["jacobi", "--n", "5", "--eps", "0.8357",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["crossValidationError"] < 1e-4


    @pytest.mark.parametrize("eps, deps", [("0.5", "nan"), ("0.5", "inf"),
                                           ("0.5", "0.5"), ("0.1", "0.1"),
                                           ("0.835", "0.5")])
    def test_jacobi_deps_outside_the_family(self, tmp_path, capsys, eps,
                                            deps):
        # dEps not finite, or a difference stencil leaving (0, epsBar]: the
        # error names dEps, not the necksize of a neighbouring orbit
        assert main(["jacobi", "--n", "5", "--eps", eps, "--deps", deps,
                     "--out", str(tmp_path / "j")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: dEps ") and deps in err

    def test_jacobi_deps_below_rounding(self, tmp_path, capsys):
        # eps +- 1e-300 rounds to eps: no orbit is solved, no summary is
        # written, and the error names dEps
        out = tmp_path / "j"
        assert main(["jacobi", "--n", "5", "--eps", "0.5", "--deps",
                     "1e-300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: dEps ") and "1e-300" in err
        assert not (out / "summary.json").exists()

    def test_jacobi_one_sided_difference_with_deps(self, tmp_path):
        # eps + dEps passes epsBar, eps - 2 dEps does not leave the family
        out = tmp_path / "j"
        assert main(["jacobi", "--n", "5", "--eps", "0.835", "--deps",
                     "1e-3", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["crossValidationError"] < 1e-3


def _reject_constant(token):
    raise ValueError(f"summary holds {token}")


class TestNonFiniteFigures:
    """A parameter that is not finite is a domain error naming it (exit 2),
    a figure that overflows a numerical failure (exit 3), and no summary
    holds NaN or Infinity.  The config is the README's reference config."""

    def _run(self, tmp_path, capsys, argv, code, named):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err
        for path in tmp_path.rglob("summary.json"):
            json.loads(path.read_text(), parse_constant=_reject_constant)

    @pytest.mark.parametrize("command, flag, value, code, named", [
        ("glue", "--delta", "nan", 2, "domain error: delta must be finite"),
        ("glue", "--delta", "inf", 2, "domain error: delta must be finite"),
        # the weight overflows where psi is nonzero: inf, never NaN
        ("glue", "--delta", "1000", 3, "weightedPsi is not finite: inf"),
        ("glue", "--delta", "60", 3, "weightedPsi is not finite: inf"),
        ("diagnose", "--delta-prime", "nan", 2,
         "domain error: deltaPrime must be finite"),
    ], ids=["delta-nan", "delta-inf", "delta-1000", "delta-60",
            "delta-prime-nan"])
    def test_flag(self, tmp_path, capsys, command, flag, value, code, named):
        config = tmp_path / "glue.json"
        config.write_text(json.dumps(README_CONFIG))
        self._run(tmp_path, capsys, [command, "--config", str(config), flag,
                                     value, "--out", str(tmp_path / "out")],
                  code, named)

    @pytest.mark.parametrize("key, value, named", [
        ("A", math.nan, "config.end1.perturbation[0].A must be finite"),
        ("A", math.inf, "config.end1.perturbation[0].A must be finite"),
        ("T0", math.nan, "config.end1.T0 must be finite"),
    ], ids=["A-nan", "A-inf", "T0-nan"])
    def test_manifest_config(self, tmp_path, capsys, key, value, named):
        config = copy.deepcopy(README_CONFIG)
        end = config["end1"]
        (end["perturbation"][0] if key == "A" else end)[key] = value
        manifest = tmp_path / "glue-manifest.json"
        manifest.write_text(json.dumps({
            "command": "glue", "params": {"config": config},
            "out": str(tmp_path / "out")}))
        self._run(tmp_path, capsys, ["run", str(manifest)], 2,
                  f"domain error: {named}")


def test_overlap_override_flag(tmp_path):
    import json as _json
    cfg = tmp_path / "g.json"
    cfg.write_text(_json.dumps({
        "n": 5, "eps": 0.5, "m": 1,
        "end1": {"perturbation": [{"l": 0, "A": 1e-3, "beta": 2.0}]},
        "end2": {}}))
    r = subprocess.run(
        [sys.executable, "-m", "qglue.cli", "glue", "--config", str(cfg),
         "--m", "3", "--grid-per-period", "32",
         "--out", str(tmp_path / "g3")],
        capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["m"] == 3


class RecordingParams(dict):
    """A params dict that records every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


SMALL_CONFIG = {"n": 5, "eps": 0.5, "m": 1,
                "end1": {"perturbation": [{"l": 0, "A": 1e-3, "beta": 2.0}]},
                "end2": {}}

# every params key of every command, on small inputs
EVERY_KEY = {
    "constants": {"n": 5},
    "orbit": {"n": 5, "eps": 0.5},
    "sweep": {"n": 5, "epsList": [0.5]},
    "indicial": {"n": 5, "eps": 0.5, "modes": [0]},
    "jacobi": {"n": 5, "eps": 0.5, "dEps": 1e-4, "gridPerPeriod": 32},
    "glue": {"config": SMALL_CONFIG, "gridPerPeriod": 32, "delta": 1.5,
             "mList": [1, 2, 3]},
    "correct": {"config": SMALL_CONFIG, "gridPerPeriod": 32,
                "scheme": "picard", "tol": 1e-9, "maxIter": 25,
                "minIter": 1, "modes": [0]},
    "diagnose": {"config": SMALL_CONFIG, "gridPerPeriod": 32, "delta": 1.5,
                 "deltaPrime": 1.25, "modes": [0], "applyCorrection": True},
}


@pytest.mark.parametrize("command", sorted(PARAMS_SCHEMAS))
def test_every_manifest_key_is_read(command):
    # a key the schema accepts but the command never reads is a setting
    # that silently does nothing; the handler runs directly, because schema
    # validation itself looks up every key
    keys = set(PARAMS_SCHEMAS[command]["properties"])
    assert set(EVERY_KEY[command]) == keys
    validate_manifest({"command": command, "params": EVERY_KEY[command]})
    params = RecordingParams(EVERY_KEY[command])
    if "config" in keys:
        params["config"] = RecordingParams(params["config"])
    HANDLERS[command](params)
    assert params.read == keys
    if "config" in keys:
        assert params["config"].read == set(GLUING_CONFIG["properties"])


JSON_CASES = [
    {}, [], "", 0, -7, 2 ** 70, 0.0, -0.0, 1e-300, 5e-324, 1.5e300, True,
    False, None, math.inf, -math.inf, math.nan,
    "h\u00e9 \u03c8 \U0001f600 \"q\"\n\t\\",
    [1.0, -2.5e-17, 3.0], [1.0, math.nan, 2.0], [1.0, math.inf, -math.inf],
    [1, 2.0, True, None, "x"], (0.5, 1), [[], {}, [[]], [{}]],
    [np.float64(0.1), 1.0 / 3.0], {"b": {"a": [0.1, {"z": None}]}, "a": []},
    {"\u00fc": 1, "u": 2, "U": {"": ""}}, {"n": [math.nan]},
    {"samples": [float(x) for x in np.linspace(-1.0, 1.0, 257)],
     "modes": [{"l": 0, "lambda": 0.0, "samples": [1e-320, -5e-324]}]},
]


@pytest.mark.parametrize("doc", JSON_CASES)
def test_json_text_is_that_of_json(doc):
    assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=1)


@pytest.mark.parametrize("doc", [np.int64(1), [object()], {(1, 2): 0},
                                 {"a": np.bool_(True)}])
def test_json_text_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=1)
    with pytest.raises(TypeError):
        _json_text(doc)


def test_published_schemas_are_valid():
    # the validators are built once, without checking their schemas, so
    # every published schema is checked against its metaschema here
    schemas = [MANIFEST_SCHEMA, *PARAMS_SCHEMAS.values(),
               *SUMMARY_SCHEMAS.values(), BATCH_STATUS_SCHEMA]
    for schema in schemas:
        jsonschema.Draft202012Validator.check_schema(schema)


# ----------------------------------------------------------------------
# the in-tree schema checker, with jsonschema as its oracle

ALL_SCHEMAS = {"manifest": MANIFEST_SCHEMA,
               **{f"params/{k}": v for k, v in PARAMS_SCHEMAS.items()},
               **{f"summary/{k}": v for k, v in SUMMARY_SCHEMAS.items()},
               "batch-status": BATCH_STATUS_SCHEMA}


_KEYWORDS = {"type", "properties", "required", "additionalProperties",
             "items", "minItems", "minimum", "exclusiveMinimum", "enum",
             "description"}


def _check_schema(schema):
    """Raise ValueError if schema uses a keyword, a type name or an
    additionalProperties value the checker does not implement."""
    unknown = set(schema) - _KEYWORDS
    unknown |= set(schemas._names(schema.get("type", []))) - set(
        schemas._TYPES)
    if unknown or schema.get("additionalProperties", False) is not False:
        raise ValueError(f"schema checker cannot enforce {sorted(unknown)} "
                         f"in {schema!r}")
    for sub in schema.get("properties", {}).values():
        _check_schema(sub)
    if "items" in schema:
        _check_schema(schema["items"])


@pytest.mark.parametrize("name", sorted(ALL_SCHEMAS))
def test_schema_checker_enforces_every_published_schema(name):
    # every keyword, type name and additionalProperties value the schema
    # uses is one the checker implements
    _check_schema(ALL_SCHEMAS[name])


def _valid_example(schema):
    """A document with every property the schema names, which it accepts."""
    if "enum" in schema:
        return schema["enum"][0]
    kind = schema["type"]
    kind = kind[0] if isinstance(kind, list) else kind
    if kind == "object":
        return {k: _valid_example(sub)
                for k, sub in schema.get("properties", {}).items()}
    if kind == "array":
        return [_valid_example(schema["items"])
                for _ in range(schema.get("minItems", 1))]
    if kind in ("number", "integer"):
        return schema.get("minimum", schema.get("exclusiveMinimum", 0)) + 1
    return {"string": "s", "boolean": True, "null": None}[kind]


VALID = {name: _valid_example(schema) for name, schema in ALL_SCHEMAS.items()}

# replacement values: every JSON type, bool next to 1, 5.0 for an integer,
# non-finite numbers, empty containers, and NumPy scalars
POOL = [None, True, False, 0, 1, -1, 5, 5.0, 5.5, "s", "", [], {}, [1],
        {"a": 1}, math.nan, math.inf, -math.inf, np.int64(5),
        np.float64(5.0)]


def _bound_values(schema):
    """Values at, and just past, the schema's minimum or exclusiveMinimum."""
    out = []
    for key in ("minimum", "exclusiveMinimum"):
        if key in schema:
            b = schema[key]
            out += [b, float(b), b - 1, math.nextafter(b, -math.inf),
                    math.nextafter(b, math.inf)]
    return out


def _locations(schema, doc, path=()):
    """(path, subschema) of every node of doc the schema describes."""
    yield path, schema
    if isinstance(doc, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in doc:
                yield from _locations(sub, doc[key], path + (key,))
    elif isinstance(doc, list) and "items" in schema:
        for index, item in enumerate(doc):
            yield from _locations(schema["items"], item, path + (index,))


@st.composite
def mutated_documents(draw):
    """(schema, document): a valid document after 0 to 3 mutations."""
    name = draw(st.sampled_from(sorted(ALL_SCHEMAS)))
    schema = ALL_SCHEMAS[name]
    doc = copy.deepcopy(VALID[name])
    for _ in range(draw(st.integers(0, 3))):
        path, sub = draw(st.sampled_from(list(_locations(schema, doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        kind = draw(st.sampled_from(["drop", "add", "clear", "replace"]))
        if kind == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "clear" and isinstance(node, (dict, list)):
            node.clear()
        elif kind == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["bogus", "Eps", ""]))] = \
                copy.deepcopy(draw(st.sampled_from(POOL)))
        else:
            # a copy, as a later mutation may change it in place
            value = copy.deepcopy(draw(st.sampled_from(
                POOL + _bound_values(sub) + sub.get("enum", []))))
            if path:
                parent[path[-1]] = value
            else:
                doc = value
    return schema, doc


@settings(max_examples=400, deadline=None)
@given(case=mutated_documents())
def test_schema_checker_matches_jsonschema(case):
    # the two accept and reject the same documents and report errors at
    # the same paths, so the pointer a validate_* call reports, that of the
    # first error, is one that jsonschema's iter_errors reports too
    schema, doc = case
    ours = [path for path, _ in iter_errors(schema, doc)]
    theirs = [tuple(e.absolute_path) for e in
              jsonschema.Draft202012Validator(schema).iter_errors(doc)]
    assert collections.Counter(ours) == collections.Counter(theirs)


@pytest.mark.parametrize("schema, value, accepted", [
    ({"type": "integer"}, 5.0, True),
    ({"type": "integer"}, 5.5, False),
    ({"type": "integer"}, True, False),
    # jsonschema's integer is a Python int or an integral float, so NumPy
    # integers are numbers but not integers; json.dump cannot write them
    ({"type": "integer"}, np.int64(5), False),
    ({"type": "number"}, np.int64(5), True),
    ({"type": "number"}, False, False),
    ({"enum": [1]}, True, False),
    ({"enum": [1]}, 1.0, True),
    ({"type": "number", "minimum": 0}, math.nan, True),
    ({"type": "number", "exclusiveMinimum": 0}, math.nan, True),
    ({"type": "number", "exclusiveMinimum": 0}, 0.0, False),
    ({"type": ["number", "null"]}, None, True),
    ({"type": "array", "minItems": 1}, [], False),
])
def test_schema_checker_type_semantics(schema, value, accepted):
    assert (not any(iter_errors(schema, value))) is accepted
    assert jsonschema.Draft202012Validator(schema).is_valid(value) is accepted


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"type": "int"},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "object", "properties": {"a": {"maximum": 1}}},
    {"type": "array", "items": {"type": "number", "multipleOf": 2}},
])
def test_schema_checker_rejects_what_it_cannot_enforce(schema):
    # every published schema passes this check
    # (test_schema_checker_enforces_every_published_schema)
    with pytest.raises(ValueError):
        _check_schema(schema)
