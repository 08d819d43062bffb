"""Known defects as strict expected failures (ROADMAP item 22).

Each test asserts the bound its ROADMAP item's "done when" names, through
the command line's exit codes, and carries xfail(strict=True): the suite
fails the moment a defect is mended, and the change that mends it removes
the marker and says so in CHANGES.md.  raises=AssertionError keeps a crash
of another kind from passing for the known defect."""

import json

import pytest

from qglue.cli import main


def readme_config(m, l):
    """The README config: n = 5, eps = 0.5, end 1 at T0 = 0.2 with l = 0
    and l tails of 1e-3 at rate 2, end 2 at T0 = 0.1 with a -1e-3 mode-0
    tail at rate 1.8."""
    return {"n": 5, "eps": 0.5, "m": m,
            "end1": {"T0": 0.2, "perturbation": [
                {"l": 0, "A": 1e-3, "beta": 2.0},
                {"l": l, "A": 1e-3, "beta": 2.0}]},
            "end2": {"T0": 0.1, "perturbation": [
                {"l": 0, "A": -1e-3, "beta": 1.8}]}}


def exit_code(tmp_path, command, config, modes):
    """main's exit code for `command` on config in `modes`."""
    name = f"{command}-{config['m']}-{modes.replace(',', '')}"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--modes", modes,
                 "--out", str(tmp_path / name)])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 10: the one-period flow's product puts rounding on the "
    "small multipliers, so assembly of an l >= 4 mode stops with 'expected "
    "2 multipliers beyond 2.530e+04, found 3' (dgees)"))
def test_modes_beyond_three_assemble(tmp_path):
    # done when correct --modes 0,4 and 0,5 exit 0 with l = 4 and 5 tails
    assert [exit_code(tmp_path, "correct", readme_config(2, l), f"0,{l}")
            for l in (4, 5)] == [0, 0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 11: from m = 20 mode 0's Lanczos iterates overflow, and "
    "diagnose exits 3 with a banded solve of a right-hand side that is not "
    "finite (dgbtrs)"))
def test_diagnose_at_long_necks(tmp_path):
    # done when diagnose on the README config exits 0 at every m up to 32;
    # m = 20 is the first that fails today, and 32 the last of the range
    assert [exit_code(tmp_path, "diagnose", readme_config(m, 2), "0,2")
            for m in (20, 32)] == [0, 0]
