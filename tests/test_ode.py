"""The in-tree DOP853 integrator against SciPy's solve_ivp(method="DOP853")
at the same tolerance, on the one flow qglue integrates: the batched
monodromy run, with its dense output."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qglue import derive_constants
from qglue.delaunay import _mode_flow_rhs
from qglue.errors import NumericalError
from qglue.jacobi import MONODROMY_SUBINTERVALS
from qglue.ode import TOL, dop853

CASES = [(n, frac) for n in (5, 6, 9) for frac in (0.3, 0.9, 0.05)]


def assert_same(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)


def orbit_at(orbit_cache, n, frac):
    return orbit_cache(frac * derive_constants(n).epsBar, n)


def batched_run(orb, l, t0):
    """The state monodromy_data integrates from t0, and its right-hand
    side: every subinterval's orbit jet with the identity flow, one column
    each."""
    n_sub, T = MONODROMY_SUBINTERVALS, orb.period
    flow = _mode_flow_rhs(orb.constants, orb.constants.lam(l), 4)
    y0 = np.empty((20, n_sub))
    y0[:4] = orb.jet(t0 + np.linspace(0.0, T, n_sub + 1)[:-1])
    y0[4:] = np.eye(4).reshape(-1, 1)

    def rhs(t, y):
        return flow(t, y.reshape(20, n_sub)).reshape(-1)

    return rhs, y0.reshape(-1)


def assert_matches_solve_ivp(rhs, y0, t_end, t_eval):
    """dop853's end state and its dense output at t_eval against
    solve_ivp's, at the same tolerance."""
    end, samples = dop853(rhs, y0, t_end, t_eval)
    for ref_eval, got in ((None, end), (t_eval, samples)):
        ref = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=TOL,
                        atol=TOL, t_eval=ref_eval)
        assert ref.success
        assert_same(got, ref.y[:, -1] if ref_eval is None else ref.y)
    assert samples.shape == (len(y0), len(t_eval))


@pytest.mark.parametrize("n,frac", CASES)
@pytest.mark.parametrize("l", [0, 1, 2])
def test_monodromy_batch(orbit_cache, n, frac, l):
    orb = orbit_at(orbit_cache, n, frac)
    rhs, y0 = batched_run(orb, l, 0.0)
    t_end = orb.period / MONODROMY_SUBINTERVALS
    assert_matches_solve_ivp(rhs, y0, t_end, np.linspace(0.0, t_end, 7))


@pytest.mark.parametrize("n,frac", CASES)
def test_windows_either_side(orbit_cache, n, frac):
    # a border window of 10 nodes below t0 and one above it, each sampled
    # by the dense output of the batched run that starts at its first node,
    # at its nodes' local times in their subintervals
    orb = orbit_at(orbit_cache, n, frac)
    T = orb.period
    t_end = T / MONODROMY_SUBINTERVALS
    t0 = 0.37 * T
    for nodes in (np.linspace(t0 - 0.5 * T, t0 - 0.05 * T, 10),
                  np.linspace(t0 + 0.05 * T, t0 + 0.5 * T, 10)):
        rhs, y0 = batched_run(orb, 1, nodes[0])
        local = np.unique(np.mod(nodes - nodes[0], t_end))
        assert_matches_solve_ivp(rhs, y0, t_end, local)


@pytest.mark.parametrize("bad_from", [0.0, 0.5])
def test_nan_right_hand_side_raises(bad_from):
    # nan from the start, or from t = 0.5 on inside a smooth run
    def rhs(t, y):
        return -y if t < bad_from else np.full_like(y, np.nan)

    with pytest.raises(NumericalError, match="below ten ulps"):
        dop853(rhs, np.ones(3), 1.0, np.linspace(0.0, 1.0, 9))
