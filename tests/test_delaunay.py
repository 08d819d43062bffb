import json

import numpy as np
import pytest
import sympy as sp

from qglue.delaunay import (OdeState, ode_rhs, hamiltonian, integrate,
                            DelaunayOrbit, solve_orbit, FamilyParams,
                            eval_family, expansion_error)
from qglue.errors import DomainError
from qglue.gauges import CylField, q_residual


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


class TestRhsAndEnergy:
    def test_equilibrium(self, consts5):
        d = ode_rhs(OdeState(consts5.epsBar, 0, 0, 0), consts5)
        assert np.max(np.abs(d.array())) < 1e-14

    def test_unit_state(self, consts5):
        d = ode_rhs(OdeState(1.0, 0, 0, 0), consts5)
        assert d.vDddot == pytest.approx(-1.5625 + 6.5625, abs=1e-14)
        assert d.vDddot == pytest.approx(5.0, abs=1e-14)

    def test_spherical_profile_satisfies_ode(self, consts5):
        # symbolic oracle: jets of the profile satisfy the equation pointwise
        js0 = spherical_state(consts5, 0.0)
        assert js0[:4] == pytest.approx([1.0, 0.0, (4 - consts5.n) / 2.0, 0.0])
        for tv in (0.0, 0.7, 1.9):
            js = spherical_state(consts5, tv)
            d = ode_rhs(OdeState(*js[:4]), consts5)
            assert d.vDddot == pytest.approx(js[4], rel=1e-12)

    def test_positivity_enforced(self, consts5):
        with pytest.raises(DomainError):
            ode_rhs(OdeState(-0.1, 0, 0, 0), consts5)

    def test_energy_values(self, consts5):
        assert hamiltonian(OdeState(0, 0, 0, 0), consts5) == 0.0
        eb = consts5.epsBar
        expect = -(25.0 / 32.0) * eb ** 2 + (21.0 / 32.0) * eb ** 10
        got = hamiltonian(OdeState(eb, 0, 0, 0), consts5)
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(-0.4366, abs=5e-4)


class TestIntegrate:
    def test_equilibrium_drift(self, consts5, orbit_cache):
        # the equilibrium is hyperbolic (indicial roots +-2.84 at epsBar), so
        # raw integration amplifies the one-ulp residual of the float
        # equilibrium at that rate: the drift contract holds on the horizon
        # the growth allows, and the constant-orbit representation holds it
        # exactly on any horizon
        traj = integrate(OdeState(consts5.epsBar, 0, 0, 0), (0.0, 4.0),
                         consts5, tol=1e-13)
        assert traj.escaped is None
        ts = np.linspace(0, 4, 100)
        assert np.max(np.abs(traj(ts) - consts5.epsBar)) < 1e-10
        orb = orbit_cache(consts5.epsBar)
        ts = np.linspace(0, 100, 200)
        assert np.max(np.abs(orb.eval(ts, 0) - consts5.epsBar)) == 0.0

    def test_spherical_profile_reproduced(self, consts5):
        js = spherical_state(consts5, 0.0)
        traj = integrate(OdeState(*js[:4]), (0.0, 5.0), consts5, tol=1e-13)
        ts = np.linspace(0, 5, 100)
        ref = np.cosh(ts) ** ((4 - consts5.n) / 2.0)
        assert np.max(np.abs(traj(ts) - ref)) < 1e-8

    def test_energy_drift_along_orbit(self, consts5, orbit05):
        traj = integrate(OdeState(orbit05.eps, 0, orbit05.vDdot0, 0),
                         (0.0, orbit05.period), consts5, tol=1e-12)
        ts = np.linspace(0, orbit05.period, 150)
        H = np.array([hamiltonian(traj.state(t), consts5) for t in ts])
        assert np.max(np.abs(H - H[0])) / abs(H[0]) < 1e-8

    def test_escape_result(self, consts5):
        # far-too-small curvature at the minimum dives below the floor
        traj = integrate(OdeState(0.5, 0, 1e-4, 0), (0.0, 100.0), consts5,
                         floor=0.4, ceil=1.6)
        assert traj.escaped == "down"
        assert traj.tEscape is not None and traj.tEscape > 0


class TestSolveOrbit:
    def test_basic_properties(self, orbit05):
        o = orbit05
        assert o.eval(0.0, 0) == pytest.approx(0.5, abs=0)
        assert o.eval(o.period, 0) == pytest.approx(0.5, abs=1e-9)
        assert abs(o.eval(o.period / 2, 1)) < 1e-9
        assert o.diagnostics["minDefect"] < 1e-9
        assert o.diagnostics["periodicityDefect"] < 1e-7

    def test_energy_between_equilibrium_and_zero(self, orbit05, consts5):
        Hbar = hamiltonian(OdeState(consts5.epsBar, 0, 0, 0), consts5)
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

    def test_json_round_trip(self, orbit05, tmp_path):
        path = tmp_path / "orbit.json"
        orbit05.dump(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert {"n", "eps", "period", "vDdot0", "hamiltonian", "nSamples",
                "t", "v", "vDot", "vDdot", "vDddot"} <= set(doc)
        back = DelaunayOrbit.load(path)
        ts = np.linspace(0, 2 * orbit05.period, 50)
        for k in range(4):
            np.testing.assert_allclose(back.eval(ts, k), orbit05.eval(ts, k),
                                       rtol=0, atol=1e-10)


class TestFamily:
    def test_base_member(self, orbit05):
        n = orbit05.constants.n
        params = FamilyParams(eps=orbit05.eps)
        for x in ([0.3, 0.0, 0.0, 0.0, 0.0], [0.0, 1.7, 0.0, 0.0, 0.0]):
            x = np.asarray(x)
            r = np.linalg.norm(x)
            expect = r ** ((4 - n) / 2.0) * orbit05.eval(-np.log(r), 0)
            assert eval_family(params, orbit05, x) == pytest.approx(
                expect, rel=1e-12)

    def test_scaling_law(self, orbit05):
        n = orbit05.constants.n
        R = 1.9
        x = np.array([0.21, -0.4, 0.1, 0.0, 0.05])
        lhs = R ** ((n - 4) / 2.0) * eval_family(
            FamilyParams(eps=orbit05.eps), orbit05, R * x)
        rhs = eval_family(FamilyParams(eps=orbit05.eps, T=-np.log(R)),
                          orbit05, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_singular_points(self, orbit05):
        with pytest.raises(DomainError):
            eval_family(FamilyParams(eps=0.5), orbit05, np.zeros(5))
        a = (0.5, 0, 0, 0, 0)
        x = np.array([1 / 0.5, 0, 0, 0, 0])  # a / |a|^2
        with pytest.raises(DomainError):
            eval_family(FamilyParams(eps=0.5, a=a), orbit05, x)

    def test_expansion_zero_translation(self, orbit05):
        st = expansion_error(FamilyParams(eps=0.5, a=()), orbit05, (2, 8))
        assert st.maxDeviation == 0.0

    def test_expansion_quadratic_in_a(self, orbit05):
        amag = 0.02
        e1 = expansion_error(FamilyParams(eps=0.5, a=(amag, 0, 0, 0, 0)),
                             orbit05, (2, 8)).maxDeviation
        e2 = expansion_error(FamilyParams(eps=0.5, a=(amag / 2, 0, 0, 0, 0)),
                             orbit05, (2, 8)).maxDeviation
        assert e1 / e2 == pytest.approx(4.0, abs=0.4)

    def test_expansion_decay_rate(self, orbit05):
        st = expansion_error(FamilyParams(eps=0.5, a=(0.02, 0, 0, 0, 0)),
                             orbit05, (2, 8), n_t=61)
        # the deviation envelope oscillates with the orbit; fit the peaks
        per = st.perT
        slope = np.polyfit(st.t, np.log(per), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)


class TestOtherDimensions:
    def test_n6_orbit_and_residual(self, orbit_cache):
        orb = orbit_cache(0.5, n=6)
        assert orb.diagnostics["periodicityDefect"] < 1e-7
        pad, npts = 8, 128
        h = orb.period / npts
        t = np.arange(-pad, npts + pad + 1) * h
        fld = CylField.mode0(orb.constants, t, orb.sample_exact(t))
        assert q_residual(fld, acc=10, trim=pad).supResidual < 1e-7

    def test_n6_translation_exponents(self, orbit_cache):
        from qglue.jacobi import indicial_roots
        spec = indicial_roots(orbit_cache(0.5, n=6), [1])
        exps = spec.exponents(1)
        assert exps[1] == pytest.approx(-1.0, abs=1e-6)
        assert exps[2] == pytest.approx(+1.0, abs=1e-6)


class TestSampleWindow:
    def test_one_and_a_half_periods_from_zero(self, orbit05):
        T = orbit05.period
        t = np.linspace(0.0, 1.5 * T, 97)
        states = orbit05.sample_states(t)
        assert states.shape == (4, len(t))
        assert np.all(np.isfinite(states))
        first = t <= T
        assert np.max(np.abs(states[0, first]
                             - orbit05.eval(t[first], 0))) < 1e-6
