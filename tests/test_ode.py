"""The in-tree DOP853 integrator against SciPy's solve_ivp(method="DOP853")
at the same tolerances, on the two flows qglue integrates: the batched
monodromy run and the sampled mode-flow windows."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qglue import derive_constants
from qglue.delaunay import _mode_flow_rhs, sample_contiguous
from qglue.errors import NumericalError
from qglue.jacobi import MONODROMY_SUBINTERVALS, MONODROMY_TOL
from qglue.ode import dop853

CASES = [(n, frac) for n in (5, 6, 9) for frac in (0.3, 0.9, 0.05)]


def assert_same(got, ref):
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)


def orbit_at(orbit_cache, n, frac):
    return orbit_cache(frac * derive_constants(n).epsBar, n)


@pytest.mark.parametrize("n,frac", CASES)
@pytest.mark.parametrize("l", [0, 1, 2])
def test_monodromy_batch(orbit_cache, n, frac, l):
    # the state monodromy_data integrates: every subinterval's orbit jet
    # with the identity flow, one column each
    orb = orbit_at(orbit_cache, n, frac)
    n_sub, T = MONODROMY_SUBINTERVALS, orb.period
    flow = _mode_flow_rhs(orb.constants, orb.constants.lam(l), 4)
    y0 = np.empty((20, n_sub))
    y0[:4] = orb.jet(np.linspace(0.0, T, n_sub + 1)[:-1])
    y0[4:] = np.eye(4).reshape(-1, 1)

    def rhs(t, y):
        return flow(t, y.reshape(20, n_sub)).reshape(-1)

    end, samples = dop853(rhs, 0.0, y0.reshape(-1), T / n_sub,
                          MONODROMY_TOL, np.inf, (), "failed")
    ref = solve_ivp(rhs, (0.0, T / n_sub), y0.reshape(-1), method="DOP853",
                    rtol=MONODROMY_TOL, atol=MONODROMY_TOL)
    assert ref.success and samples.shape == (20 * n_sub, 0)
    assert_same(end, ref.y[:, -1])


@pytest.mark.parametrize("n,frac", CASES)
def test_windows_either_side(orbit_cache, n, frac):
    # a border window of 10 nodes on each side of t0, steps capped at half
    # the node spacing as corrector's windows are
    orb = orbit_at(orbit_cache, n, frac)
    T = orb.period
    rhs = _mode_flow_rhs(orb.constants, orb.constants.lam(1), 2)
    t0 = 0.37 * T
    y0 = np.concatenate([orb.jet(t0), np.eye(4)[:, :2].reshape(-1)])
    below = np.linspace(t0 - 0.5 * T, t0 - 0.05 * T, 10)
    above = np.linspace(t0 + 0.05 * T, t0 + 0.5 * T, 10)
    max_step = 0.5 * (above[1] - above[0])
    got = sample_contiguous(rhs, t0, y0, np.r_[below, above], max_step,
                            "failed")
    for side, te in ((slice(0, 10), below[::-1]), (slice(10, 20), above)):
        ref = solve_ivp(rhs, (t0, te[-1]), y0, method="DOP853", rtol=1e-13,
                        atol=1e-13, t_eval=te, max_step=max_step)
        assert ref.success
        cols = got[:, side]
        assert_same(cols if te[0] < te[-1] else cols[:, ::-1], ref.y)


@pytest.mark.parametrize("bad_from", [0.0, 0.5])
def test_nan_right_hand_side_raises(bad_from):
    # nan from the start, or from t = 0.5 on inside a smooth run
    def rhs(t, y):
        return -y if t < bad_from else np.full_like(y, np.nan)

    with pytest.raises(NumericalError, match="^window flow failed$"):
        sample_contiguous(rhs, 0.0, np.ones(3), np.linspace(-1.0, 1.0, 9),
                          0.1, "window flow failed")
