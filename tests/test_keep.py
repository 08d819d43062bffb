"""What the process keeps: every memo and cache hands out read-only
arrays, through qglue.keep's one rule."""

import dataclasses

import numpy as np
import pytest

from qglue import delaunay, fd, gauges, gluing, jacobi
from qglue.cli import execute
from qglue.gluing import STENCIL_ORDER
from qglue.keep import get_or_compute, read_only


def arrays_in(root):
    """Every array reached from root through tuples, lists, dict values and
    attributes, frozen dataclasses included."""
    seen, found, todo = set(), [], [root]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif hasattr(x, "__dict__"):
            todo.extend(vars(x).values())
    return found


def writable_arrays(root):
    return [a for a in arrays_in(root) if a.flags.writeable]


REACH = fd.stencil_size(4, STENCIL_ORDER) - 1


@pytest.mark.parametrize("cached", [
    lambda: fd._unit_weights((-1, 0, 1), 2),
    lambda: fd._end_rows(4, STENCIL_ORDER, REACH),
    lambda: delaunay._cosines(8),
    lambda: jacobi._panel_integrals(jacobi.PANEL_DEGREE),
    lambda: gauges.angular_basis(5, (0, 1), 16),
], ids=["unit_weights", "end_rows", "cosines", "panel_integrals",
        "angular_basis"])
def test_caches_hand_out_read_only_arrays(cached):
    value = cached()
    assert cached() is value
    arrays = arrays_in(value)
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 1.0


CONFIG = {"n": 5, "eps": 0.5, "m": 2,
          "end1": {"T0": 0.2, "perturbation": [
              {"l": 0, "A": 1e-3, "beta": 2.0},
              {"l": 1, "A": 1e-3, "beta": 2.0}]},
          "end2": {"T0": 0.1, "perturbation": [
              {"l": 0, "A": -1e-3, "beta": 1.8}]}}


def test_a_process_keeps_no_writable_array(cold_memo, tmp_path):
    def run(command, **params):
        execute({"command": command, "out": str(tmp_path / command),
                 "params": {"config": CONFIG, **params}})

    run("correct", scheme="picard", modes=[0, 1])
    run("diagnose", modes=[0, 1])
    run("correct", scheme="newton", modes=[0, 1])
    # the blend's kept system is factored
    assert gluing._LAST[2][("system", (0, 1))]._lu is not None
    assert not writable_arrays(gluing._LAST)
    run("glue", mList=[1, 2, 3])
    assert ("defect", "1.5") in gluing._LAST[2]
    assert not writable_arrays(gluing._LAST)
    # the orbit's flows, end frames and generators
    (orbit,) = delaunay._ORBITS.values()
    assert "generators" in orbit.memo
    assert any(data.frames for key, data in orbit.memo.items()
               if key != "generators")
    assert not writable_arrays(delaunay._ORBITS)


def test_a_failed_compute_is_not_kept():
    store = {}

    def fail():
        raise ValueError("no result")
    with pytest.raises(ValueError):
        get_or_compute(store, "key", fail)
    assert not store
    assert get_or_compute(store, "key", lambda: [np.zeros(2)]) is store["key"]
    assert not store["key"][0].flags.writeable


def test_read_only_does_not_enter_frozen_dataclasses():
    @dataclasses.dataclass(frozen=True)
    class Input:
        values: np.ndarray

    @dataclasses.dataclass(frozen=True)
    class Result:
        source: Input
        values: np.ndarray

    result = read_only(Result(Input(np.zeros(2)), np.zeros(2)))
    assert not result.values.flags.writeable
    assert result.source.values.flags.writeable
