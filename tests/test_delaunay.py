import json

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp

from qglue import delaunay
from qglue.cli import HANDLERS, _sweep_orbits
from qglue.delaunay import hamiltonian, solve_orbit
from qglue.errors import DomainError
from qglue.gauges import CylField, derive_constants, q_residual
from qglue.jacobi import generators
from conftest import expansion_error, exponents


@pytest.mark.parametrize("n_val", [5, 6, 7, 9, 12])
def test_energy_is_conserved_symbolically(n_val):
    # differentiate the energy along the flow and reduce with the equation;
    # the implementation is only trusted because this vanishes identically
    n = sp.Integer(n_val)
    t = sp.symbols("t")
    v = sp.Function("v")(t)
    c2 = sp.Rational(n * (n - 4) + 8, 2)
    c0 = sp.Rational(n ** 2 * (n - 4) ** 2, 16)
    cN = sp.Rational(n * (n ** 2 - 4) * (n - 4), 16)
    p = sp.Rational(n + 4, n - 4)
    H = (-sp.diff(v, t) * sp.diff(v, t, 3)
         + sp.Rational(1, 2) * sp.diff(v, t, 2) ** 2
         + c2 / 2 * sp.diff(v, t) ** 2 - c0 / 2 * v ** 2
         + sp.Rational((n - 4) ** 2 * (n ** 2 - 4), 32) * v ** sp.Rational(2 * n, n - 4))
    dH = sp.diff(H, t).subs(sp.diff(v, t, 4),
                            c2 * sp.diff(v, t, 2) - c0 * v + cN * v ** p)
    assert sp.simplify(dH) == 0


def spherical_state(consts, t_val):
    """Jet of (cosh t)^((4-n)/2) by symbolic differentiation."""
    t = sp.symbols("t")
    prof = sp.cosh(t) ** sp.Rational(4 - consts.n, 2)
    return [float(sp.diff(prof, t, k).subs(t, t_val)) for k in range(5)]


def orbit_rhs(consts):
    """The necksize ODE v^(4) = c2 v'' - c0 v + cN v^p as a first-order
    system in the state (v, v', v'', v''')."""
    c2, c0, cN, p = consts.c2, consts.c0, consts.cN, consts.p

    def rhs(_, y):
        return np.array([y[1], y[2], y[3],
                         c2 * y[2] - c0 * y[0] + cN * y[0] ** p])

    return rhs


def rhs_at(consts, y):
    """The necksize ODE's first-order right-hand side at the state y."""
    return orbit_rhs(consts)(0.0, np.asarray(y, dtype=float))


class TestRhsAndEnergy:
    def test_equilibrium(self, consts5):
        d = rhs_at(consts5, [consts5.epsBar, 0, 0, 0])
        assert np.max(np.abs(d)) < 1e-14

    def test_unit_state(self, consts5):
        d = rhs_at(consts5, [1.0, 0, 0, 0])
        assert d[3] == pytest.approx(-1.5625 + 6.5625, abs=1e-14)
        assert d[3] == pytest.approx(5.0, abs=1e-14)

    def test_spherical_profile_satisfies_ode(self, consts5):
        # symbolic oracle: jets of the profile satisfy the equation pointwise
        js0 = spherical_state(consts5, 0.0)
        assert js0[:4] == pytest.approx([1.0, 0.0, (4 - consts5.n) / 2.0, 0.0])
        for tv in (0.0, 0.7, 1.9):
            js = spherical_state(consts5, tv)
            d = rhs_at(consts5, js[:4])
            assert d[3] == pytest.approx(js[4], rel=1e-12)

    def test_energy_values(self, consts5):
        assert hamiltonian((0, 0, 0, 0), consts5) == 0.0
        eb = consts5.epsBar
        expect = -(25.0 / 32.0) * eb ** 2 + (21.0 / 32.0) * eb ** 10
        got = hamiltonian((eb, 0, 0, 0), consts5)
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(-0.4366, abs=5e-4)


class TestModeFlow:
    """The series' jets of orders 4 and 5 against the ODE applied to its
    jets of orders 0..3."""

    def test_jet_extends_by_the_ode(self, orbit05, consts5, orbit_cache):
        # orders 4 and 5 are the series' own derivatives; off the
        # collocation nodes they match the ODE applied to orders 0..3 up to
        # the series' residual
        c = consts5
        t = np.linspace(-3.0, 9.0, 97)
        v, v1, v2, v3, v4, v5 = orbit05.jet(t, 5)
        assert np.array_equal(orbit05.jet(t, 3), [v, v1, v2, v3])
        ode4 = c.c2 * v2 - c.c0 * v + c.cN * v ** c.p
        ode5 = c.c2 * v3 - c.c0 * v1 + c.cN * c.p * v ** (c.p - 1) * v1
        assert np.max(np.abs(v4 - ode4)) <= 1e-12 * np.max(np.abs(v4))
        assert np.max(np.abs(v5 - ode5)) <= 1e-12 * np.max(np.abs(v5))
        const = orbit_cache(c.epsBar).jet(t, 5)
        assert np.all(const[0] == c.epsBar) and np.all(const[1:] == 0.0)


def integrate(consts, y0, ts):
    """States of the necksize ODE from y(0) = y0 at the ascending points
    ts >= 0, by the dense output of solve_ivp's DOP853 at 3e-14."""
    sol = solve_ivp(orbit_rhs(consts), (0.0, ts[-1]), y0, method="DOP853",
                    rtol=3e-14, atol=3e-14, t_eval=ts)
    assert sol.success
    return sol.y


class TestIntegrate:
    def test_equilibrium_drift(self, consts5, orbit_cache):
        # the equilibrium is hyperbolic (indicial roots +-2.84 at epsBar), so
        # raw integration amplifies the one-ulp residual of the float
        # equilibrium at that rate: the drift contract holds on the horizon
        # the growth allows, and the constant-orbit representation holds it
        # exactly on any horizon
        ts = np.linspace(0, 4, 100)
        v = integrate(consts5, [consts5.epsBar, 0, 0, 0], ts)[0]
        assert np.max(np.abs(v - consts5.epsBar)) < 1e-10
        orb = orbit_cache(consts5.epsBar)
        ts = np.linspace(0, 100, 200)
        assert np.max(np.abs(orb.eval(ts, 0) - consts5.epsBar)) == 0.0

    def test_spherical_profile_reproduced(self, consts5):
        js = spherical_state(consts5, 0.0)
        ts = np.linspace(0, 5, 100)
        v = integrate(consts5, js[:4], ts)[0]
        ref = np.cosh(ts) ** ((4 - consts5.n) / 2.0)
        assert np.max(np.abs(v - ref)) < 1e-8

    def test_energy_drift_along_orbit(self, consts5, orbit05):
        ts = np.linspace(0, orbit05.period, 150)
        states = integrate(consts5, [orbit05.eps, 0, orbit05.vDdot0, 0], ts)
        H = np.array([hamiltonian(y, consts5) for y in states.T])
        assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-8


class TestSolveOrbit:
    def test_basic_properties(self, orbit05):
        o = orbit05
        assert o.eval(0.0, 0) == pytest.approx(0.5, abs=0)
        assert o.eval(o.period, 0) == pytest.approx(0.5, abs=1e-9)
        assert abs(o.eval(o.period / 2, 1)) < 1e-9
        assert o.diagnostics["minDefect"] < 1e-9

    def test_energy_between_equilibrium_and_zero(self, orbit05, consts5):
        Hbar = hamiltonian((consts5.epsBar, 0, 0, 0), consts5)
        assert Hbar < orbit05.hamiltonianValue < 0.0

    def test_orbit_solves_equation(self, orbit05):
        pad, npts = 8, 128
        h = orbit05.period / npts
        t = np.arange(-pad, npts + pad + 1) * h
        fld = CylField.mode0(orbit05.constants, t, orbit05.sample_exact(t))
        assert q_residual(fld, acc=10, trim=pad).supResidual < 1e-7

    def test_constant_orbit(self, consts5, orbit_cache):
        o = orbit_cache(consts5.epsBar)
        assert o.isConstant
        # linearization frequency from the constant-coefficient quartic
        assert o.diagnostics["omega0"] == pytest.approx(1.24593, abs=1e-5)
        assert o.period == pytest.approx(5.0429, abs=1e-4)
        assert o.eval(3.7, 0) == consts5.epsBar
        assert o.eval(3.7, 2) == 0.0

    def test_domain_errors(self, consts5):
        with pytest.raises(DomainError):
            solve_orbit(5, consts5.epsBar * 1.01)
        with pytest.raises(DomainError):
            solve_orbit(5, 0.0)

    def test_energy_ordering_of_family(self, sweep_orbits):
        H = [o.hamiltonianValue for o in sweep_orbits]
        diffs = np.diff(H)
        assert np.all(diffs < 0) or np.all(diffs > 0)
        # direction recorded: energy decreases as the necksize grows
        assert np.all(diffs < 0)

    def test_derivative_order_capped(self, orbit05):
        with pytest.raises(DomainError):
            orbit05.eval(0.0, 4)

    def test_json_round_trip(self, orbit05):
        # the orbit artifact's keys, through a JSON dump and load
        doc = json.loads(json.dumps(orbit05.to_json()))
        assert {"n", "eps", "period", "vDdot0", "hamiltonian", "nSamples",
                "t", "v", "vDot", "vDdot", "vDddot"} <= set(doc)

    @pytest.mark.parametrize("n, eps", [(5, 0.5), (9, 0.3), (6, 0.05)])
    def test_json_jets_are_the_eval_rows(self, orbit_cache, n, eps):
        # to_json takes the four rows from one jet; a row does not depend
        # on the highest order evaluated with it
        orb = orbit_cache(eps, n=n)
        doc = orb.to_json()
        ts = np.array(doc["t"])
        for k, key in enumerate(("v", "vDot", "vDdot", "vDddot")):
            assert np.array_equal(doc[key], orb.eval(ts, k)), key


def assert_closed(orb):
    """The series solves the ODE between its nodes, has its minimum at
    t = 0, and conserves the energy over a period."""
    assert 0.0 < orb.diagnostics["seriesResidual"] <= 1e-10
    assert orb.diagnostics["minDefect"] < 1e-9
    ts = np.linspace(0.0, orb.period, 129)
    H = np.array([hamiltonian(orb.jet(t), orb.constants) for t in ts])
    assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-8


class TestOrbitFamily:
    @pytest.mark.parametrize("n", [5, 6, 7, 9])
    @pytest.mark.parametrize("frac", [0.1, 0.3, 0.6, 0.9])
    def test_shooting_closes_the_orbit(self, orbit_cache, n, frac):
        assert_closed(orbit_cache(frac * derive_constants(n).epsBar, n=n))

    @pytest.mark.parametrize("eps", [0.05, 0.02])
    def test_small_necksize_closes_the_orbit(self, orbit_cache, eps):
        assert_closed(orbit_cache(eps))

    def test_small_necksizes(self):
        # toward eps -> 0, s/eps -> ((n-4)/2)^2 and the period grows like
        # (4/(n-4)) log(1/eps)
        orb = solve_orbit(5, 0.02)
        assert abs(orb.vDdot0 / orb.eps - 0.25) < 1e-6
        dT = solve_orbit(5, 0.05).period - solve_orbit(5, 0.1).period
        assert dT == pytest.approx(4.0 * np.log(2.0), abs=0.02)


def full_series_orbit(consts, eps):
    """(a, omega) of the orbit continued from epsBar on SERIES_START cosines
    all the way, then padded to twice as many and solved again while its
    tail exceeds SERIES_TAIL: the oracle of the short continuation path."""
    N = delaunay.SERIES_START
    x = delaunay._continue(consts, eps, N)
    while delaunay._tail(eps, x[:-1]) > delaunay.SERIES_TAIL:
        x = delaunay._newton(consts, eps, np.concatenate([x[:-1], np.zeros(N),
                                                          x[-1:]]))
        N *= 2
    return x[:-1], x[-1]


class TestShortPath:
    # the continuation path runs on PATH_N cosines, and only the landing
    # point is solved on the full series
    @pytest.mark.parametrize("n", [5, 6, 9, 12])
    @pytest.mark.parametrize("frac", [0.003, 0.1, 0.5, 0.9, 0.99])
    def test_matches_the_full_series_path(self, n, frac):
        consts = derive_constants(n)
        eps = frac * consts.epsBar
        orb = solve_orbit(consts, eps)
        a, omega = full_series_orbit(consts, eps)
        assert orb.coeffs.size == a.size
        assert (np.max(np.abs(orb.coeffs - a))
                <= 1e-13 * np.max(np.abs(a)))
        assert abs(orb.period / (2.0 * np.pi / omega) - 1.0) <= 1e-13


class TestStartOrbit:
    # necksizes within 1e-2 of epsBar, other than epsBar itself, are left
    # out: the period there is fixed only to rounding over the amplitude
    # epsBar - eps (ROADMAP item 7), and two paths to one necksize agree to
    # about 1e-14 at 0.999 epsBar and 1e-13 at 0.9999 epsBar
    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([5, 6, 9]),
           fracs=st.lists(st.floats(0.05, 0.99) | st.just(1.0),
                          min_size=1, max_size=3)
           .flatmap(lambda xs: st.just(xs) | st.permutations(xs + xs[:1])))
    def test_sweep_path_matches_independent_solves(self, n, fracs):
        consts = derive_constants(n)
        eps_list = [f * consts.epsBar for f in fracs]
        for eps, orb in zip(eps_list, _sweep_orbits(consts, eps_list)):
            alone = solve_orbit(consts, eps)
            assert orb.coeffs.size == alone.coeffs.size
            assert orb.period == pytest.approx(alone.period, rel=1e-14,
                                               abs=0)
            scale = np.max(np.abs(alone.coeffs), initial=0.0)
            assert np.max(np.abs(orb.coeffs - alone.coeffs),
                          initial=0.0) <= 1e-13 * scale

    @pytest.mark.parametrize("frac", [0.9999, 1 - 1e-6])
    def test_upward_path_keeps_the_period(self, consts5, frac):
        # a long step up toward epsBar can land on the orbit traversed twice
        # or more, which the small amplitude there hides from _relative
        eps = frac * consts5.epsBar
        start = solve_orbit(consts5, 0.2 * consts5.epsBar)
        assert solve_orbit(consts5, eps, start=start).period == pytest.approx(
            solve_orbit(consts5, eps).period, rel=1e-9)

    @pytest.mark.parametrize("command, params", [
        ("sweep", {"n": 5, "epsList": [0.3, 0.7, 0.5]}),
        ("jacobi", {"n": 5, "eps": 0.5}),
        ("jacobi", {"n": 5, "eps": 0.8357})])  # one-sided stencil
    def test_one_continuation_from_eps_bar(self, monkeypatch, command,
                                           params):
        starts = []
        original = delaunay._continue

        def counting(consts, eps, N, start=None):
            starts.append(start)
            return original(consts, eps, N, start)

        monkeypatch.setattr(delaunay, "_continue", counting)
        HANDLERS[command](params)
        assert len(starts) == 3
        assert sum(s is None for s in starts) == 1


class TestFamily:
    TS = np.linspace(2, 8, 40)

    def test_expansion_zero_translation(self, orbit05):
        assert expansion_error(generators(orbit05), 0.0, self.TS).max() == 0.0

    def test_expansion_quadratic_in_a(self, orbit05):
        basis, amag = generators(orbit05), 0.02
        e1 = expansion_error(basis, amag, self.TS).max()
        e2 = expansion_error(basis, amag / 2, self.TS).max()
        assert e1 / e2 == pytest.approx(4.0, abs=0.4)

    def test_expansion_decay_rate(self, orbit05):
        ts = np.linspace(2, 8, 61)
        per = expansion_error(generators(orbit05), 0.02, ts)
        # the deviation envelope oscillates with the orbit; fit the peaks
        slope = np.polyfit(ts, np.log(per), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)


class TestOtherDimensions:
    def test_n6_orbit_and_residual(self, orbit_cache):
        orb = orbit_cache(0.5, n=6)
        pad, npts = 8, 128
        h = orb.period / npts
        t = np.arange(-pad, npts + pad + 1) * h
        fld = CylField.mode0(orb.constants, t, orb.sample_exact(t))
        assert q_residual(fld, acc=10, trim=pad).supResidual < 1e-7

    def test_n6_translation_exponents(self, orbit_cache):
        from qglue.jacobi import indicial_roots
        spec = indicial_roots(orbit_cache(0.5, n=6), [1])
        exps = exponents(spec, 1)
        assert exps[1] == pytest.approx(-1.0, abs=1e-6)
        assert exps[2] == pytest.approx(+1.0, abs=1e-6)


class TestSampleWindow:
    @pytest.mark.parametrize("eps", [0.5, 0.02])
    def test_three_periods_either_side(self, orbit_cache, eps):
        # the series samples any window; over [-3T, 3T] the samples are the
        # jets, even about t = 0 and T-periodic
        orb = orbit_cache(eps)
        T = orb.period
        t = np.linspace(-3.0 * T, 3.0 * T, 193)
        states = orb.sample_states(t)
        assert states.shape == (4, len(t))
        assert np.array_equal(states, orb.jet(t))
        assert np.array_equal(orb.sample_exact(t), states[0])
        scale = np.max(np.abs(states[0]))
        assert np.max(np.abs(states[0] - states[0][::-1])) <= 1e-13 * scale
        assert (np.max(np.abs(states[0, 32:] - states[0, :-32]))
                <= 1e-13 * scale)


class TestSharedSampler:
    """The orbit's jet at t = 0 is the minimum's state (eps, 0, s, 0) of
    the family, bit for bit."""

    @pytest.mark.parametrize("n", [5, 6, 9])
    @pytest.mark.parametrize("frac", [0.3, 0.6, 0.9])
    def test_start_is_the_shooting_state(self, orbit_cache, n, frac):
        orb = orbit_cache(frac * derive_constants(n).epsBar, n=n)
        y0 = np.array([orb.eps, 0.0, orb.vDdot0, 0.0])
        assert orb.jet(0.0).tobytes() == y0.tobytes()


def trig_table_jet(at_zero, a, omega, t, max_deriv):
    """Test-local oracle of delaunay._series_jet: the derivatives of
    at_zero + sum_k a_k (cos(k omega t) - 1) from tables of np.cos and
    np.sin of k omega t."""
    k = np.arange(1, len(a) + 1)
    theta = np.outer(np.mod(omega * t, 2.0 * np.pi), k)
    rows = [at_zero + (np.cos(theta) - 1.0) @ a]
    for d in range(1, max_deriv + 1):
        trig = np.sin(theta) if d % 2 else np.cos(theta)
        sign = 1.0 if d % 4 in (0, 3) else -1.0
        rows.append(sign * (trig @ (a * (k * omega) ** d)))
    return np.stack(rows)


class TestSeriesJet:
    """The split-power evaluation of the cosine series against a table of
    cosines and sines, up to 20 periods either side of t = 0."""

    # N = 13 ends in a partial block, a_9..a_13, of order 1e-6 of max |a_k|
    @pytest.mark.parametrize("eps, N", [(0.5, 0), (0.5, 13), (0.5, 64),
                                        (0.02, 128)])
    def test_matches_trig_table(self, orbit_cache, eps, N):
        orb = orbit_cache(eps)
        assert len(orb.coeffs) >= N
        a, T = orb.coeffs[:N], orb.period
        t = np.concatenate([[0.0, -20.0 * T, 20.0 * T], np.random.default_rng(
            N).uniform(-20.0 * T, 20.0 * T, 400)])
        got = delaunay._series_jet(orb.eps, a, orb.omega, t, 4)
        ref = trig_table_jet(orb.eps, a, orb.omega, t, 4)
        assert got.shape == ref.shape
        for d in range(5):
            assert (np.max(np.abs(got[d] - ref[d]))
                    <= 1e-14 * np.max(np.abs(ref[d]))), d
        # at t = 0 the value is at_zero and the odd rows +0.0, exactly
        assert got[0, 0] == orb.eps
        assert np.all(got[1::2, 0] == 0.0)
        assert not np.any(np.signbit(got[1::2, 0]))


def reference_jets(consts, y0, half, t):
    """States at t in [0, half] of the orbit jointly with one solution of its
    linearization (components 4..7), from a tight DOP853 run: tolerance
    2.3e-14 and step cap half / 8192."""
    c2, c0, cN, p, K = consts.c2, consts.c0, consts.cN, consts.p, consts.K

    def rhs(_, y):
        v = y[0]
        return [y[1], y[2], y[3], c2 * y[2] - c0 * v + cN * v ** p,
                y[5], y[6], y[7], c2 * y[6] - (c0 - K * v ** (p - 1)) * y[4]]

    sol = solve_ivp(rhs, (0.0, half), y0, method="DOP853", rtol=2.3e-14,
                    atol=2.3e-14, t_eval=t, max_step=half / 8192)
    assert sol.success
    return sol.y


def assert_jet_close(jet, ref):
    for k, bound in ((0, 1e-11), (3, 1e-9)):
        scale = np.max(np.abs(ref[k]))
        assert np.max(np.abs(jet[k] - ref[k])) <= bound * scale, k


class TestHalfPeriodNodes:
    """The jets of the orbit's series and of its necksize field on a half
    period, against a tight integration from their states at t = 0."""

    @pytest.mark.parametrize("frac", [None, 0.3])
    def test_orbit_jets(self, orbit_cache, consts5, frac):
        orb = orbit_cache(0.5 if frac is None else frac * consts5.epsBar)
        half = orb.period / 2
        t = np.linspace(0.0, half, 3001)
        ref = reference_jets(orb.constants,
                             [orb.eps, 0.0, orb.vDdot0, 0.0] + [0.0] * 4,
                             half, t)
        assert_jet_close(orb.jet(t), ref[:4])

    def test_variational_field_jets(self, orbit05):
        from qglue.jacobi import generators
        basis = generators(orbit05)
        half = orbit05.period / 2
        t = np.linspace(0.0, half, 3001)
        ref = reference_jets(orbit05.constants,
                             [orbit05.eps, 0.0, orbit05.vDdot0, 0.0,
                              1.0, 0.0, basis.dsdEps, 0.0], half, t)
        assert_jet_close(basis.jet(0, "-", t), ref[4:])
