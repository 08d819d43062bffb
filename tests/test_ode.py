"""The mode equation's flow from monodromy_data against SciPy's
solve_ivp(method="DOP853") near its tolerance floor: over the first
subinterval of the monodromy run, and over border windows either side of
a start point."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qglue import derive_constants
from qglue.jacobi import MONODROMY_SUBINTERVALS, ModeOperator, monodromy_data
from conftest import mode_potential

CASES = [(n, frac) for n in (5, 6, 9) for frac in (0.3, 0.9, 0.05)]


def orbit_at(orbit_cache, n, frac):
    return orbit_cache(frac * derive_constants(n).epsBar, n)


def reference_flow(op, t0, nodes):
    """Phi(t; t0) at the ascending nodes from t0, (len(nodes), 4, 4), by
    one solve_ivp run at tolerance 2.3e-14 with steps capped at 1/64 of
    the node spacing."""
    def rhs(t, y):
        Y = y.reshape(4, 4)
        return np.concatenate(
            [Y[1:], [op.A * Y[2] - mode_potential(op, t) * Y[0]]]).reshape(-1)

    sol = solve_ivp(rhs, (t0, nodes[-1]), np.eye(4).reshape(-1),
                    method="DOP853", rtol=2.3e-14, atol=1e-18, t_eval=nodes,
                    max_step=(nodes[1] - nodes[0]) / 64)
    assert sol.success
    return sol.y.T.reshape(-1, 4, 4)


def assert_flows_match(op, t0, nodes, bound):
    """monodromy_data's window flows at the nodes against reference_flow,
    each node's error relative to the largest entry of its reference."""
    window = monodromy_data(op, t0=t0, offsets=nodes - t0).window
    ref = reference_flow(op, t0, nodes)
    assert window.shape == ref.shape
    err = max(np.max(np.abs(w - r)) / np.max(np.abs(r))
              for w, r in zip(window, ref))
    assert err <= bound, err


@pytest.mark.parametrize("n,frac", CASES)
@pytest.mark.parametrize("l", [0, 1, 2])
def test_monodromy_batch(orbit_cache, n, frac, l):
    # the first subinterval, at its two ends and five interior points;
    # measured errors are below 2.3e-15
    orb = orbit_at(orbit_cache, n, frac)
    op = ModeOperator(orb, orb.constants.lam(l))
    t_end = orb.period / MONODROMY_SUBINTERVALS
    assert_flows_match(op, 0.0, np.linspace(0.0, t_end, 7), 1e-14)


@pytest.mark.parametrize("n,frac", CASES)
def test_windows_either_side(orbit_cache, n, frac):
    # a border window of 10 nodes below t0 and one above it, each from the
    # monodromy run that starts at its first node and spanning 0.45 of a
    # period; measured errors are below 2.2e-14
    orb = orbit_at(orbit_cache, n, frac)
    op = ModeOperator(orb, orb.constants.lam(1))
    T = orb.period
    t0 = 0.37 * T
    for nodes in (np.linspace(t0 - 0.5 * T, t0 - 0.05 * T, 10),
                  np.linspace(t0 + 0.05 * T, t0 + 0.5 * T, 10)):
        assert_flows_match(op, nodes[0], nodes, 1e-13)
