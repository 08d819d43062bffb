import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from qglue import derive_constants, solve_orbit
from qglue.cli import HANDLERS
from qglue.errors import DomainError, NumericalError
import qglue.jacobi as jacobi
from qglue.jacobi import (ModeOperator, mode_apply, monodromy_data,
                          indicial_roots, generators, symplectic_pairing,
                          smooth_step, _pairing_matrix)
from conftest import exponents, mode_potential


@pytest.fixture(scope="module")
def basis05(orbit05):
    return generators(orbit05)


def quartic_roots(consts, lam):
    q0 = (lam ** 2 + consts.n * (consts.n - 4) / 2.0 * lam + consts.c0
          - consts.K * consts.epsBar ** (consts.p - 1))
    return np.roots([1.0, 0.0, -(2 * lam + consts.c2), 0.0, q0])


class TestModeApply:
    def test_constant_orbit_exponentials(self, orbit_cache, consts5):
        orb = orbit_cache(consts5.epsBar)
        for lam, mu in ((0.0, 0.9), (4.0, 1.1)):
            op = ModeOperator(orb, lam)
            h = 0.25
            t = h * np.arange(-14, 15)
            w = np.exp(mu * t)
            out = mode_apply(op, t, w, acc=10)
            # characteristic quartic of the linearized operator
            q0 = (lam ** 2 + 2.5 * lam + consts5.c0
                  - consts5.K * consts5.epsBar ** 8)
            expect = (mu ** 4 - (2 * lam + consts5.c2) * mu ** 2 + q0) * w
            sl = slice(7, len(t) - 7)
            assert np.max(np.abs(out[sl] - expect[sl])
                          / np.abs(expect[sl])) < 1e-8

    def test_phase_derivative_in_kernel(self, orbit05, basis05):
        op = ModeOperator(orbit05, 0.0)
        T = orbit05.period
        h = T / 128
        t = h * np.arange(-8, 128 + 9)
        w = basis05.profile(0, "+", t)
        r = mode_apply(op, t, w, acc=10)
        assert np.max(np.abs(r[8:-8])) < 1e-6

    def test_translation_fields_in_kernel(self, orbit05, basis05):
        lam = float(orbit05.constants.n - 1)
        op = ModeOperator(orbit05, lam)
        T = orbit05.period
        h = T / 128
        t = h * np.arange(-8, 128 + 9)
        for sign in ("+", "-"):
            w = basis05.profile(1, sign, t)
            r = mode_apply(op, t, w, acc=10)
            scale = max(1.0, np.max(np.abs(w[8:-8])))
            assert np.max(np.abs(r[8:-8])) / scale < 1e-6


class TestGenerators:
    def test_all_slots_solve_linearized_equation(self, orbit05, basis05):
        # degrees 0 and 1 (the n translations share the degree-1 pair), each
        # carrying its +/- pair, over a full period
        T = orbit05.period
        h = T / 128
        t = h * np.arange(-8, 128 + 9)
        for l in (0, 1):
            op = ModeOperator(orbit05, orbit05.constants.lam(l))
            for sign in ("+", "-"):
                w = basis05.profile(l, sign, t)
                r = mode_apply(op, t, w, acc=10)
                scale = max(1.0, np.max(np.abs(w[8:-8])))
                assert np.max(np.abs(r[8:-8])) / scale < 1e-6, (l, sign)

    def test_phase_field_periodic(self, orbit05, basis05):
        t = np.linspace(0, orbit05.period, 40)
        a = basis05.profile(0, "+", t)
        b = basis05.profile(0, "+", t + orbit05.period)
        assert np.max(np.abs(a - b)) < 1e-7

    def test_necksize_field_grows_linearly(self, orbit05, basis05,
                                           monkeypatch):
        # one-period increments are -dT/deps * vdot: linear growth, rate ~ 0
        T = orbit05.period
        t = np.linspace(0.2, 0.2 + T, 30)
        inc1 = basis05.profile(0, "-", t + T) - basis05.profile(0, "-", t)
        inc2 = basis05.profile(0, "-", t + 2 * T) - basis05.profile(0, "-", t + T)
        np.testing.assert_allclose(inc1, inc2, rtol=0, atol=1e-7)
        np.testing.assert_allclose(
            inc1, -basis05.dTdEps * orbit05.eval(t, 1), rtol=0, atol=1e-7)
        # small against the unit rates of the translation pair
        monkeypatch.setattr(jacobi, "RATE_T0", 1.0)
        monkeypatch.setattr(jacobi, "RATE_PERIODS", 4)
        assert abs(basis05.measured_rate(0, "-")) < 0.1

    def test_translation_rates(self, basis05):
        assert basis05.measured_rate(1, "+") == pytest.approx(-1.0, abs=0.01)
        assert basis05.measured_rate(1, "-") == pytest.approx(+1.0, abs=0.01)

    def test_cross_validation_against_orbit_differences(self):
        summary, _ = HANDLERS["jacobi"]({"n": 5, "eps": 0.5})
        assert summary["crossValidationError"] < 1e-4

    def test_sensitivities_match_finite_differences(self, orbit05,
                                                    orbit_cache):
        d = 1e-5
        hi = orbit_cache(orbit05.eps + d)
        lo = orbit_cache(orbit05.eps - d)
        ds_fd = (hi.vDdot0 - lo.vDdot0) / (2 * d)
        dT_fd = (hi.period - lo.period) / (2 * d)
        assert basis_ds(orbit05) == pytest.approx(ds_fd, abs=5e-7)
        assert basis_dT(orbit05) == pytest.approx(dT_fd, abs=5e-6)

    def test_constant_orbit_rejected(self, orbit_cache, consts5):
        with pytest.raises(DomainError):
            generators(orbit_cache(consts5.epsBar))


def basis_ds(orbit):
    return generators(orbit).dsdEps


def basis_dT(orbit):
    return generators(orbit).dTdEps


def richardson_sensitivities(n, eps):
    """(ds/deps, dT/deps) from centred differences of solve_orbit at
    h = 2e-3 eps and h / 2, Richardson-extrapolated."""
    def centred(h):
        hi, lo = solve_orbit(n, eps + h), solve_orbit(n, eps - h)
        return np.array([hi.vDdot0 - lo.vDdot0,
                         hi.period - lo.period]) / (2 * h)

    h = 2e-3 * eps
    return (4 * centred(h / 2) - centred(h)) / 3


class TestSensitivities:
    # the implicit function theorem on the collocation equations; the
    # one-period monodromy route was off by up to 7e-7 at (5, 0.3 epsBar)
    @pytest.mark.parametrize("n, frac", [(5, 0.3), (7, 0.1)])
    def test_match_richardson_differences(self, orbit_cache, n, frac):
        eps = frac * derive_constants(n).epsBar
        basis = generators(orbit_cache(eps, n=n))
        ds, dT = richardson_sensitivities(n, eps)
        assert basis.dsdEps == pytest.approx(ds, rel=1e-9, abs=0)
        assert basis.dTdEps == pytest.approx(dT, rel=1e-9, abs=0)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(5, 9), frac=st.floats(0.1, 0.9))
    def test_across_family(self, n, frac):
        eps = frac * derive_constants(n).epsBar
        basis = generators(solve_orbit(n, eps))
        ds, dT = richardson_sensitivities(n, eps)
        assert basis.dsdEps == pytest.approx(ds, rel=1e-8, abs=0)
        assert basis.dTdEps == pytest.approx(dT, rel=1e-8, abs=0)


def across_family(*extra):
    """Parameters (*extra, n, eps) beyond n = 5 at eps = 0.5: n = 6 and the
    necksize 0.05 epsBar, with ids naming eps / epsBar."""
    return [pytest.param(*extra, n, frac * derive_constants(n).epsBar,
                         id="-".join(map(str, (*extra, n, frac))))
            for n, frac in ((6, 0.3), (6, 0.9), (5, 0.05), (6, 0.05),
                            (9, 0.05))]


class TestMonodromy:
    @pytest.mark.parametrize("n, eps", [pytest.param(5, eps, id=str(eps))
                                        for eps in (0.3, 0.5, 0.7)]
                             + across_family())
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_determinant_one(self, orbit_cache, n, eps, l):
        orb = orbit_cache(eps, n=n)
        data = monodromy_data(ModeOperator(orb, orb.constants.lam(l)))
        assert data.detFactored == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("frac", [0.0, 0.7])
    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_matches_tight_reference(self, orbit_cache, n, l, frac):
        # the 24 spectral panels against 96 separate runs near solve_ivp's
        # tolerance floor; a reference at 1e-12 differed by 4e-13 to 3e-12
        eps = 0.5 * derive_constants(n).epsBar
        orb = orbit_cache(eps, n=n)
        op = ModeOperator(orb, orb.constants.lam(l))
        t0 = frac * orb.period
        data = monodromy_data(op, t0=t0)
        M_ref = integrated_flow(op, t0, +1, n_sub=96, tol=3e-14)
        assert (np.linalg.norm(data.matrix - M_ref, 2)
                <= 2e-13 * np.linalg.norm(M_ref, 2))
        assert abs(data.detFactored - 1.0) <= 1e-13

    @pytest.mark.parametrize("bad", ["nan-coefficient", "negative-v"])
    def test_non_finite_flow_raises(self, orbit_cache, bad):
        # a nan in the series, or v < 0 under the fractional power
        # v^{p-1} = v^{8/3} of n = 7: the potential is nan, and the flow
        # must fail loudly instead of handing nan to the Schur forms
        orb = orbit_cache(0.5 * derive_constants(7).epsBar, n=7)
        if bad == "nan-coefficient":
            orb = dataclasses.replace(orb, coeffs=np.append(orb.coeffs[:-1],
                                                            np.nan))
        else:
            orb = dataclasses.replace(orb, eps=-0.1)
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericalError, match="not finite"):
            monodromy_data(ModeOperator(orb, 0.0), offsets=[0.1])

    def test_phase_direction_is_fixed(self, orbit05):
        # multiplier-one eigenvector proportional to the vdot jet at t0;
        # measured in the backward-error scale |M| |jet| (the flow matrix
        # norm is e^{gamma T} ~ 1e8, which sets the achievable absolute size)
        M = monodromy_data(ModeOperator(orbit05, 0.0)).matrix
        jet = orbit05.jet(0.0, max_deriv=4)[1:5]
        r = (M - np.eye(4)) @ jet
        scale = np.linalg.norm(M, 2) * np.linalg.norm(jet)
        assert np.linalg.norm(r) / scale < 1e-10

    def test_constant_orbit_multipliers(self, orbit_cache, consts5):
        # multipliers outside the unit circle are the computable half (the
        # tiny ones drown in eps * |M|); they must match e^{mu T} and the
        # factored determinant certifies the reciprocal pairing
        orb = orbit_cache(consts5.epsBar)
        T = orb.period
        for lam in (0.0, 4.0):
            data = monodromy_data(ModeOperator(orb, lam))
            got = np.sort(np.abs(np.linalg.eigvals(data.matrix)))[2:]
            mu = quartic_roots(consts5, lam)
            expect = np.sort(np.abs(np.exp(mu * T)))[2:]
            np.testing.assert_allclose(got, expect, rtol=1e-6)
            assert data.detFactored == pytest.approx(1.0, abs=1e-8)


def integrated_flow(op, t0, direction, n_sub=24, tol=1e-12):
    """One-period flow of the mode system from t0, forward (direction +1)
    or backward (-1), integrated over n_sub subintervals, one solve_ivp
    each, with the orbit's series in the right-hand side."""
    def rhs(t, y):
        Y = y.reshape(4, 4)
        return np.concatenate(
            [Y[1:], [op.A * Y[2] - mode_potential(op, t) * Y[0]]]).reshape(-1)

    edges = t0 + direction * np.linspace(0.0, op.orbit.period, n_sub + 1)
    M = np.eye(4)
    for k in range(n_sub):
        r = solve_ivp(rhs, (edges[k], edges[k + 1]), np.eye(4).reshape(-1),
                      method="DOP853", rtol=tol, atol=tol)
        assert r.success
        M = r.y[:, -1].reshape(4, 4) @ M
    return M


def dominant_exponents(M, T):
    """log|mu| / T of the two largest multipliers of M, largest first."""
    return np.log(np.sort(np.abs(np.linalg.eigvals(M)))[::-1][:2]) / T


class TestSymplecticInverse:
    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("frac", [0.0, 0.7])
    def test_backward_matches_integrated_sweep(self, orbit05, l, frac):
        op = ModeOperator(orbit05, orbit05.constants.lam(l))
        t0 = frac * orbit05.period
        data = monodromy_data(op, t0=t0)
        # the reference runs near solve_ivp's tolerance floor, so its own
        # error sits well below the bound
        Mb = integrated_flow(op, t0, -1, tol=3e-14)
        scale = np.linalg.norm(data.matrix, 2)
        assert np.linalg.norm(data.backward - Mb, 2) <= 1e-12 * scale

    @pytest.mark.parametrize("l, n, eps", [pytest.param(l, 5, 0.5, id=str(l))
                                           for l in (0, 1, 2)]
                             + [p for l in (0, 1, 2)
                                for p in across_family(l)])
    def test_flow_preserves_pairing(self, orbit_cache, l, n, eps):
        orb = orbit_cache(eps, n=n)
        op = ModeOperator(orb, orb.constants.lam(l))
        M = monodromy_data(op, t0=0.7 * orb.period).matrix
        Om = _pairing_matrix(op.A)
        assert (np.linalg.norm(M.T @ Om @ M - Om, 2)
                <= 1e-15 * np.linalg.norm(M, 2) ** 2)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(5, 9), frac=st.floats(0.3, 0.9))
    def test_floquet_structure_across_family(self, n, frac):
        # det M = 1, and the dominant multipliers of the forward flow are
        # those of the independently integrated backward flow, i.e. the
        # multipliers come in reciprocal pairs.  Mode 0's second pair is a
        # Jordan block at 1, which rounding of size d splits by sqrt(d).
        consts = derive_constants(n)
        orbit = solve_orbit(consts, frac * consts.epsBar)
        T = orbit.period
        for l in (0, 1, 2):
            op = ModeOperator(orbit, consts.lam(l))
            data = monodromy_data(op)
            assert abs(data.detFactored - 1.0) <= 1e-8
            fw = dominant_exponents(data.matrix, T)
            bw = dominant_exponents(integrated_flow(op, 0.0, -1), T)
            assert fw[0] == pytest.approx(bw[0], rel=1e-6)
            if l == 0:
                assert max(abs(fw[1]), abs(bw[1])) <= 1e-3
            else:
                assert fw[1] == pytest.approx(bw[1], rel=1e-5)


class TestIndicialRoots:
    def test_constant_orbit_closed_forms(self, orbit_cache, consts5):
        orb = orbit_cache(consts5.epsBar)
        spec = indicial_roots(orb, [0, 1])
        np.testing.assert_allclose(
            exponents(spec, 0), [-2.8376651, 0.0, 0.0, 2.8376651], atol=1e-6)
        np.testing.assert_allclose(
            exponents(spec, 1), [-3.6742346, -1.0, 1.0, 3.6742346], atol=1e-6)
        e = [x for x in spec.to_json()["modes"] if x["l"] == 0][0]
        assert e["frequencies"].count(pytest.approx(1.2459306, abs=1e-6)) >= 2

    def test_monodromy_path_matches_quartic_at_constant_orbit(
            self, orbit_cache, consts5):
        # non-circular: drive the Floquet route over the constant orbit and
        # compare against the closed-form quartic rates
        orb = orbit_cache(consts5.epsBar)
        T = orb.period
        for lam, expect in ((0.0, 2.8376651), (4.0, 3.6742346)):
            data = monodromy_data(ModeOperator(orb, lam))
            mu = np.sort(np.abs(np.linalg.eigvals(data.matrix)))[::-1]
            assert np.log(mu[0]) / T == pytest.approx(expect, abs=1e-6)
        data = monodromy_data(ModeOperator(orb, 4.0))
        mu = np.sort(np.abs(np.linalg.eigvals(data.matrix)))[::-1]
        assert np.log(mu[1]) / T == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
    def test_translation_exponents_every_necksize(self, orbit_cache, eps):
        spec = indicial_roots(orbit_cache(eps), [1])
        exps = exponents(spec, 1)
        assert exps[1] == pytest.approx(-1.0, abs=1e-6)
        assert exps[2] == pytest.approx(+1.0, abs=1e-6)

    @pytest.mark.parametrize("frac", [0.4, 0.6, 0.9])
    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_translation_exponents_across_family(self, orbit_cache, n, frac):
        eps = frac * derive_constants(n).epsBar
        exps = exponents(indicial_roots(orbit_cache(eps, n=n), [1]), 1)
        assert exps[1] == pytest.approx(-1.0, abs=1e-6)
        assert exps[2] == pytest.approx(+1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_constant_orbit_pairs_exact(self, orbit_cache, n):
        # the epsBar exponents are +-sqrt of the quadratic's roots mu^2:
        # exact pairs, an exact 0.0 for the oscillatory pair of mode 0,
        # and the np.roots quartic as the independent reference
        consts = derive_constants(n)
        spec = indicial_roots(orbit_cache(consts.epsBar, n=n), range(5))
        for entry in spec.perMode:
            e = entry["exponents"]
            assert e[0] == -e[3] and e[1] == -e[2]
            mu = np.sort(np.real(quartic_roots(consts, entry["lambda"])))
            np.testing.assert_allclose(e, mu, rtol=0, atol=1e-12)
        assert exponents(spec, 0)[1:3] == [0.0, 0.0]

    def test_spectrum_symmetry(self, orbit05):
        spec = indicial_roots(orbit05, [0, 1, 2, 3, 4])
        for entry in spec.perMode:
            e = np.array(entry["exponents"])
            np.testing.assert_allclose(np.sort(e), np.sort(-e), atol=1e-9)

    def test_neutral_pair_has_zero_frequency(self, orbit05):
        entry = indicial_roots(orbit05, [0]).perMode[0]
        neutral = [f for x, f in zip(entry["exponents"], entry["frequencies"])
                   if x == 0.0]
        assert len(neutral) == 2 and neutral == [0.0, 0.0]

    def test_frequencies_follow_exponents_at_constant_orbit(
            self, orbit_cache, consts5):
        # mode 0 at epsBar: real roots +-2.8376651, imaginary +-1.2459306 i
        entry = indicial_roots(orbit_cache(consts5.epsBar), [0]).perMode[0]
        np.testing.assert_allclose(entry["frequencies"],
                                   [0.0, 1.2459306, 1.2459306, 0.0],
                                   atol=1e-6)

    def test_det_defect(self, orbit05, orbit_cache, consts5):
        spec = indicial_roots(orbit05, [0, 1, 2])
        for entry in spec.to_json()["modes"]:
            assert 0.0 <= entry["detDefect"] <= 1e-8
        const = indicial_roots(orbit_cache(consts5.epsBar), [0])
        assert const.to_json()["modes"][0]["detDefect"] is None

    def test_jordan_flag_at_interior_orbit(self, orbit05):
        spec = indicial_roots(orbit05, [0])
        entry = spec.perMode[0]
        flagged = [f for x, f in zip(entry["exponents"], entry["jordanFlags"])
                   if x == 0.0]
        assert flagged and all(flagged)

    def test_admissible_weight_window(self, orbit_cache, consts5):
        # smallest degree-2 rate bounds the weight window from above
        spec = indicial_roots(orbit_cache(consts5.epsBar), [2])
        gamma = min(x for x in exponents(spec, 2) if x > 0)
        assert gamma == pytest.approx(2.3044, abs=1e-3)
        assert 1.5 < gamma


class TestPairing:
    def test_antisymmetry(self, orbit05, basis05):
        op = ModeOperator(orbit05, 0.0)
        jet = basis05.jet(0, "+", 0.7)[:, 0]
        assert symplectic_pairing(op, jet, jet) == 0.0

    def test_columns_match_single_jets(self, orbit05):
        # a^T Omega b per column, exactly antisymmetric, and a batch of
        # columns gives each column's own value
        op = ModeOperator(orbit05, orbit05.constants.lam(2))
        a, b = np.random.default_rng(3).standard_normal((2, 4, 7))
        om = symplectic_pairing(op, a, b)
        assert om.shape == (7,)
        for k in range(7):
            assert om[k] == symplectic_pairing(op, a[:, k], b[:, k])
            assert om[k] == pytest.approx(
                a[:, k] @ _pairing_matrix(op.A) @ b[:, k], rel=1e-14)
        assert np.array_equal(symplectic_pairing(op, b, a), -om)
        assert np.all(symplectic_pairing(op, a, a) == 0.0)

    def test_kernel_pair_conserved(self, orbit05, basis05):
        op = ModeOperator(orbit05, 0.0)
        ts = np.linspace(0, orbit05.period, 41)
        vals = symplectic_pairing(op, basis05.jet(0, "-", ts),
                                  basis05.jet(0, "+", ts))
        assert np.max(np.abs(vals - vals[0])) < 1e-7

    def test_translation_pair_conserved(self, orbit05, basis05):
        lam = float(orbit05.constants.n - 1)
        op = ModeOperator(orbit05, lam)
        ts = np.linspace(0, orbit05.period, 41)
        vals = symplectic_pairing(op, basis05.jet(1, "+", ts),
                                  basis05.jet(1, "-", ts))
        assert np.max(np.abs(vals - vals[0])) < 1e-7

    def test_pairing_equals_energy_derivative(self, orbit05, basis05,
                                              orbit_cache):
        # finite-difference oracle for dH/deps
        d = 1e-5
        hi = orbit_cache(orbit05.eps + d)
        lo = orbit_cache(orbit05.eps - d)
        dH = (hi.hamiltonianValue - lo.hamiltonianValue) / (2 * d)
        op = ModeOperator(orbit05, 0.0)
        om = symplectic_pairing(op, basis05.jet(0, "-", 1.3)[:, 0],
                                basis05.jet(0, "+", 1.3)[:, 0])
        ratio = om / dH
        assert ratio == pytest.approx(1.0, abs=0.02)


class TestDeficiency:
    def test_smooth_step(self):
        x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        vals = smooth_step(x)
        assert vals[0] == 1.0 and vals[1] == 1.0
        assert vals[2] == pytest.approx(0.5, abs=1e-15)
        assert vals[3] == 0.0 and vals[4] == 0.0
        xs = np.linspace(-0.5, 1.5, 101)
        assert np.all(np.diff(smooth_step(xs)) <= 1e-15)
