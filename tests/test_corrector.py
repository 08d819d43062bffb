import dataclasses

import numpy as np
import pytest

from qglue.errors import DomainError, IllConditionedError
from qglue.gauges import CylField
from qglue.gluing import build_approximate
from qglue.jacobi import ModeOperator, mode_apply, smooth_step
from qglue.corrector import (discretize, linear_apply, bordered_system,
                             solve_right_inverse, estimate_g_norm, remainder,
                             iterate, verify_correction, nondegeneracy_diag)
from conftest import make_config


@pytest.fixture(scope="module")
def exact_approx(orbit05):
    return build_approximate(make_config(orbit05, m=2), grid_per_period=48)


@pytest.fixture(scope="module")
def ref_sys(reference_approx):
    return bordered_system(reference_approx, degrees=(0,))


def bump_probe(s, center=0.0, width=2.0):
    prof = np.exp(-((s - center) ** 2) / width) * np.cos(1.3 * (s - center))
    return prof * smooth_step((np.abs(s - center) - 4.0) / 2.0)


def gauge_orthogonalize(sys, prof):
    """Shift a compact probe into the gauge slice (orthogonal to the
    weighted kernel rows) with two auxiliary bumps; recovery is then exact
    rather than exact-modulo-bounded-null-space."""
    s = sys.approx.s
    G = sys.borders[0].rows[-2:]      # the two gauge rows of mode 0
    z1 = np.exp(-((s - 1.5) ** 2) / 1.5) * smooth_step(
        (np.abs(s - 1.5) - 3.5) / 2.0)
    z2 = np.exp(-((s + 1.7) ** 2) / 1.2) * smooth_step(
        (np.abs(s + 1.7) - 3.5) / 2.0)
    M = np.stack([G @ z1, G @ z2], axis=1)
    c = np.linalg.solve(M, -(G @ prof))
    return prof + c[0] * z1 + c[1] * z2


class TestDiscretize:
    def test_interior_rows_match_mode_apply(self, exact_approx, orbit05):
        D = discretize(exact_approx, degrees=(0,))
        s = exact_approx.s
        probe = bump_probe(s)
        # the blend equals the orbit here, so the matrix action must agree
        # with the mode operator about the orbit
        got = D[:len(s), :len(s)] @ probe
        t_arg = s + (exact_approx.config.m + 0.5) * orbit05.period
        expect = mode_apply(ModeOperator(orbit05, 0.0), s, probe)
        # replace the potential argument: mode_apply evaluates the orbit at
        # grid t, the blend's phase matches t_arg; compare via linear_apply
        L = linear_apply(exact_approx.field, CylField.mode0(
            exact_approx.config.constants, s, probe))
        interior = slice(4, len(s) - 4)
        rel = (np.max(np.abs(got[interior] - L.mode(0).samples[interior]))
               / np.max(np.abs(L.mode(0).samples)))
        assert rel < 1e-12
        # and linear_apply itself agrees with the orbit mode operator
        op_vals = mode_apply(ModeOperator(orbit05, 0.0), t_arg, probe)
        rel2 = (np.max(np.abs(op_vals[interior] - L.mode(0).samples[interior]))
                / np.max(np.abs(op_vals)))
        assert rel2 < 1e-8

    def test_clamp_rows_present(self, exact_approx):
        D = discretize(exact_approx, degrees=(0,))
        s = exact_approx.s
        N = len(s)
        # rows 0, 1, N-2 and N-1 clamp w and w' at the ends
        w = np.linspace(0.0, 1.0, N) ** 2
        assert D[0] @ w == pytest.approx(w[0], abs=1e-12)
        assert D[N - 1] @ w == pytest.approx(w[-1], abs=1e-12)
        slope = 2.0 / (s[-1] - s[0])     # w' at the right end; 0 at the left
        assert D[1] @ w == pytest.approx(0.0, abs=1e-12 * slope)
        assert D[N - 2] @ w == pytest.approx(slope, rel=1e-12)

    def test_constant_background_matches_quartic(self, orbit_cache, consts5):
        orb = orbit_cache(consts5.epsBar)
        ap = build_approximate(make_config(orb, m=1), grid_per_period=48)
        D = discretize(ap, degrees=(0,))
        s = ap.s
        mu = 0.8
        w = np.exp(mu * (s - s[0]))
        got = D[:len(s), :len(s)] @ w
        q0 = consts5.c0 - consts5.K * consts5.epsBar ** 8
        expect = (mu ** 4 - consts5.c2 * mu ** 2 + q0) * w
        interior = slice(6, len(s) - 6)
        rel = np.max(np.abs(got[interior] - expect[interior])
                     / np.abs(expect[interior]))
        assert rel < 1e-5

    def test_symmetric_config_gives_symmetric_matrix(self, exact_approx):
        D = discretize(exact_approx, degrees=(0,))
        N = len(exact_approx.s)
        A = D[:N, :N]
        interior = A[2:N - 2, :]
        flipped = interior[::-1, ::-1]
        assert np.max(np.abs(interior - flipped)) < 1e-10 * np.max(
            np.abs(interior))


class TestRightInverse:
    def test_probe_recovery(self, ref_sys, reference_approx):
        s = reference_approx.s
        probe = gauge_orthogonalize(ref_sys, bump_probe(s))
        pf = CylField.mode0(reference_approx.config.constants, s, probe)
        f = linear_apply(reference_approx.field, pf)
        res = solve_right_inverse(ref_sys, f)
        rec = res.u.mode(0).samples
        rel = np.max(np.abs(rec - probe)) / np.max(np.abs(probe))
        assert rel < 1e-7
        assert all(abs(a) < 1e-7 for a in res.alpha.values())

    def test_zero_rhs_gives_zero(self, ref_sys, reference_approx):
        s = reference_approx.s
        f = CylField.mode0(reference_approx.config.constants, s,
                           np.zeros(len(s)))
        res = solve_right_inverse(ref_sys, f)
        assert res.u.sup_norm() == 0.0
        assert all(a == 0.0 for a in res.alpha.values())

    def test_right_inverse_identity(self, ref_sys, reference_approx):
        # L(G f) = f on the interior collocation points for seeded smooth f
        s = reference_approx.s
        rng = np.random.default_rng(7)
        co = rng.standard_normal(8)
        prof = np.exp(-0.3 * np.abs(s)) * sum(
            co[k] * np.cos((k + 1) * 0.37 * s + co[7 - k]) for k in range(4))
        f = CylField.mode0(reference_approx.config.constants, s, prof)
        res = solve_right_inverse(ref_sys, f)
        assert res.relResidual < 1e-8

    def test_multimode_right_inverse(self, orbit05):
        cfg = make_config(orbit05, m=1, pert1=((1, 1e-3, 2.0),))
        ap = build_approximate(cfg, grid_per_period=32)
        sysm = bordered_system(ap, degrees=(0, 1, 2))
        s = ap.s
        rng = np.random.default_rng(3)
        modes = {}
        for l in (0, 1, 2):
            co = rng.standard_normal(4)
            modes[l] = np.exp(-0.4 * np.abs(s)) * (
                co[0] * np.cos(0.5 * s + co[1])
                + co[2] * np.cos(1.1 * s + co[3]))
        f = CylField.from_modes(cfg.constants, s, modes)
        res = solve_right_inverse(sysm, f)
        assert res.relResidual < 1e-8

    def test_uniform_boundedness_in_overlap(self, reference_config):
        vals = []
        for m in (2, 3, 4):
            cfg = dataclasses.replace(reference_config, m=m)
            ap = build_approximate(cfg, grid_per_period=48)
            vals.append(estimate_g_norm(ap, degrees=(0,)))
        vals = np.array(vals)
        assert (vals.max() - vals.min()) / vals.min() < 0.25

    def test_ill_conditioning_reported(self, ref_sys, reference_approx):
        s = reference_approx.s
        f = CylField.mode0(reference_approx.config.constants, s,
                           np.ones(len(s)))
        with pytest.raises(IllConditionedError) as exc:
            solve_right_inverse(ref_sys, f, cond_limit=1.0)
        assert exc.value.cond_estimate > 1.0


class TestRemainder:
    def test_zero_correction(self, reference_approx):
        z = CylField.mode0(reference_approx.config.constants,
                           reference_approx.s,
                           np.zeros(len(reference_approx.s)))
        assert remainder(reference_approx, z).sup_norm() == 0.0

    def test_quadratic_scaling(self, reference_approx):
        s = reference_approx.s
        v = CylField.mode0(reference_approx.config.constants, s,
                           0.01 * np.cos(0.7 * s) * np.exp(-0.1 * np.abs(s)))
        norms = []
        scales = (1e-2, 1e-3, 1e-4)
        for sc in scales:
            norms.append(remainder(reference_approx, v * sc).sup_norm())
        ratios = [n / sc ** 2 for n, sc in zip(norms, scales)]
        assert max(ratios) / min(ratios) < 1.1
        # fitted order in the scale
        slope = np.polyfit(np.log(scales), np.log(norms), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_lipschitz_on_small_pairs(self, reference_approx):
        s = reference_approx.s
        consts = reference_approx.config.constants
        rng = np.random.default_rng(11)
        for _ in range(4):
            a = rng.uniform(1e-4, 1e-3)
            v1 = CylField.mode0(consts, s, a * np.cos(rng.uniform(0.3, 1) * s))
            v2 = CylField.mode0(consts, s, a * np.sin(rng.uniform(0.3, 1) * s))
            lhs = (remainder(reference_approx, v1)
                   - remainder(reference_approx, v2)).sup_norm()
            bound = max(v1.sup_norm(), v2.sup_norm()) * (v1 - v2).sup_norm()
            p, cN = consts.p, consts.cN
            C = 2 * cN * p * (p - 1)  # generous constant at background ~ 1
            assert lhs <= C * bound

    def test_positivity_guard(self, reference_approx):
        s = reference_approx.s
        v = CylField.mode0(reference_approx.config.constants, s,
                           -np.ones(len(s)))
        with pytest.raises(DomainError):
            remainder(reference_approx, v)


class TestIterate:
    def test_exact_ends_no_iterations(self, exact_approx):
        out = iterate(exact_approx, degrees=(0,))
        assert out.converged
        assert len(out.trace.rows) == 1
        assert out.correction.sup_norm() == 0.0
        assert out.initialDefect == 0.0

    def test_reference_picard_run(self, reference_approx):
        out = iterate(reference_approx, scheme="picard", degrees=(0,),
                      min_iter=2)
        assert out.converged
        assert out.finalDefect < 1e-9
        assert out.finalDefect <= 1e-3 * out.initialDefect
        ratios = [r[3] for r in out.trace.rows if np.isfinite(r[3])]
        assert ratios and max(ratios) < 0.5
        res_sup, psi_sup = verify_correction(reference_approx,
                                             out.correction)
        assert psi_sup < 1e-8

    def test_newton_contracts_fast(self, orbit05):
        cfg = make_config(orbit05, m=1, pert1=((0, 5e-2, 1.5),),
                          pert2=((0, -3e-2, 1.5),))
        ap = build_approximate(cfg, grid_per_period=48)
        out = iterate(ap, scheme="newton", degrees=(0,), tol=1e-18,
                      min_iter=2)
        defects = [r[1] for r in out.trace.rows]
        # quadratic-type contraction: the log-defect drop grows until the
        # floor (here one genuine doubling before hitting it)
        d0, d1, d2 = np.log10(defects[0]), np.log10(defects[1]), \
            np.log10(defects[2])
        assert (d1 - d2) > 0.5 * (d0 - d1) or defects[2] < 1e-18

    def test_newton_and_picard_report_the_same_amplitudes(self, orbit05):
        # Newton's alpha sums its increments' amplitudes, so both schemes
        # report the amplitudes of the whole correction
        cfg = make_config(orbit05, m=2, pert1=((0, 1e-3, 2.0), (1, 1e-3, 2.0)),
                          pert2=((0, -1e-3, 1.8),), T01=0.2, T02=0.1)
        ap = build_approximate(cfg, grid_per_period=64)
        pic, new = (iterate(ap, scheme=scheme, tol=1e-15, min_iter=2,
                            degrees=(0, 1)) for scheme in ("picard", "newton"))
        assert pic.alpha.keys() == new.alpha.keys()
        biggest = max(abs(a) for a in pic.alpha.values())
        assert biggest > 0.0
        assert max(abs(pic.alpha[key] - new.alpha[key])
                   for key in pic.alpha) <= 1e-8 * biggest

    def test_invalid_scheme(self, reference_approx):
        with pytest.raises(DomainError):
            iterate(reference_approx, scheme="broyden")


class TestNondegeneracy:
    def test_sigma_min_positive_and_grid_stable(self, reference_config):
        vals = {}
        for gpp in (48, 96):
            ap = build_approximate(reference_config, grid_per_period=gpp)
            out = iterate(ap, degrees=(0,))
            diag = nondegeneracy_diag(ap, out.correction, delta=1.5,
                                      degrees=(0,))
            assert diag.sigmaMin > 0
            vals[gpp] = diag.sigmaMin
        change = abs(vals[96] - vals[48]) / vals[48]
        assert change < 0.2

    def test_weight_window_validated(self, reference_approx):
        with pytest.raises(DomainError):
            nondegeneracy_diag(reference_approx, None, delta=0.9)

    def test_translation_probe_separation(self, reference_approx, orbit05):
        """Sanity separation of deficiency directions: a translation-type
        solution passes the interior (uncut) residual like any solution, but
        the strict-decay closure rows flag it by orders of magnitude, while
        a genuinely fast-decaying solution passes both."""
        from qglue.jacobi import generators, ModeOperator, monodromy_data
        from qglue.corrector import _mode_border, _invariant_subspace
        from scipy.integrate import solve_ivp
        basis = generators(orbit05, validate=False)
        ap = reference_approx
        s = ap.s
        N = len(s)
        h = ap.field.h
        T = orbit05.period
        phase = (ap.config.m + 0.5) * T
        consts = ap.config.constants
        lam = consts.lam(1)
        # the rows' order-8 jet extraction keeps the fast-decaying probe's
        # one-sided truncation ((gamma h)^8) far below the separation being
        # demonstrated (8e9 here, against 9e8 at order 12)
        border = _mode_border(ap, basis, 1)
        left_rows = border.rows[:3]

        # translation field, normalized at the left end where it peaks
        probe = basis.profile(1, "+", s + phase)
        probe = probe / np.abs(probe[0])

        # fast-decaying solution: integrate the backward-dominant direction
        # backward from 1.5 periods in (stable direction of that sweep)
        op = ModeOperator(orbit05, lam)
        k = int(round(1.5 * T / h))
        t_hi = s[k]
        backward = monodromy_data(op, t0=t_hi + phase).backward
        d = _invariant_subspace(backward, 1, np.exp(1.5 * T))[:, 0]

        def rhs(t, y):
            return (y[1], y[2], y[3],
                    op.A * y[2] - op.potential(t + phase) * y[0])

        sol = solve_ivp(rhs, (t_hi, s[0]), d, method="DOP853", rtol=1e-12,
                        atol=1e-14, t_eval=s[:k + 1][::-1], max_step=h / 2)
        wdec = np.zeros(N)
        wdec[:k + 1] = sol.y[0][::-1]
        wdec = wdec / np.abs(wdec[0])

        viol_probe = np.max(np.abs(left_rows @ probe))
        viol_dec = np.max(np.abs(left_rows @ wdec))
        assert viol_probe > 1e4 * viol_dec
        assert viol_probe > 0


class TestSpecExamples:
    def test_matrix_kills_phase_derivative(self, exact_approx, orbit05):
        # the blend equals the orbit, so the sampled phase derivative is a
        # solution of the linearized equation and the interior rows see it
        # at discretization-error level
        D = discretize(exact_approx, degrees=(0,))
        s = exact_approx.s
        N = len(s)
        phase = (exact_approx.config.m + 0.5) * orbit05.period
        w = orbit05.eval(s + phase, 1)
        got = D[:N, :N] @ w
        # (limited by the interpolant's reduction seams under the stencil
        # amplification; tiny against the operator scale |w|/h^4 ~ 6e2)
        assert np.max(np.abs(got[4:N - 4])) < 1e-3

    def test_defect_response_stable_in_overlap(self, reference_config):
        # solve with the actual gluing defect as data; the solution-to-data
        # ratio, in the annulus-weighted norms, stays comparable across
        # overlap lengths
        from qglue.gluing import defect as gdefect, weighted_norm
        ratios = []
        for m in (2, 3, 4):
            cfg = dataclasses.replace(reference_config, m=m)
            ap = build_approximate(cfg, grid_per_period=48)
            sys_ = bordered_system(ap, degrees=(0,))
            f = gdefect(ap).residual
            res = solve_right_inverse(sys_, f)
            scale = m * cfg.period
            nu = weighted_norm(res.u, 1.5, scale) + sum(
                abs(v) for v in res.alpha.values())
            ratios.append(nu / weighted_norm(f, 1.5, scale))
        ratios = np.array(ratios)
        assert (ratios.max() - ratios.min()) / ratios.min() < 0.25

    def test_multimode_iteration(self, orbit05):
        cfg = make_config(orbit05, m=2, pert1=((0, 1e-3, 2.0), (1, 5e-4, 1.6)),
                          pert2=((2, 4e-4, 1.8),))
        ap = build_approximate(cfg, grid_per_period=48)
        out = iterate(ap, scheme="picard", degrees=(0, 1, 2), min_iter=2)
        assert out.converged
        assert out.finalDefect < 1e-9
        assert out.finalDefect <= 1e-3 * out.initialDefect
        _, psi_sup = verify_correction(ap, out.correction)
        assert psi_sup < 1e-8


class TestSharedOperator:
    """linear_apply, discretize, bordered_system and nondegeneracy_diag reach
    the mode operator through one apply form and one matrix form; they must
    agree in every mode, not only in mode 0."""

    DEGREES = (0, 1, 2)

    @pytest.fixture(scope="class")
    def multimode(self, orbit05):
        cfg = make_config(orbit05, m=1,
                          pert1=((0, 1e-3, 2.0), (1, 5e-4, 1.6)),
                          pert2=((2, 4e-4, 1.8),))
        return build_approximate(cfg, grid_per_period=32)

    @pytest.fixture(scope="class")
    def probe(self, multimode):
        s = multimode.s
        return CylField.from_modes(
            multimode.config.constants, s,
            {l: (l + 1) * bump_probe(s, center=0.8 * l - 0.8)
             for l in self.DEGREES})

    def test_apply_and_matrix_forms_agree(self, multimode, probe):
        N = len(multimode.s)
        x = probe.coeff_matrix().reshape(-1)
        Lu = linear_apply(multimode.field, probe)
        got_d = discretize(multimode, degrees=self.DEGREES) @ x
        sysm = bordered_system(multimode, degrees=self.DEGREES)
        got_b = sysm.matrix[:, :len(self.DEGREES) * N] @ x
        for a, l in enumerate(self.DEGREES):
            expect = Lu.mode(l).samples[2:N - 2]
            tol = 1e-12 * np.max(np.abs(expect))
            assert np.max(np.abs(got_d[a * N + 2:(a + 1) * N - 2]
                                 - expect)) <= tol
            assert np.max(np.abs(got_b[a * N + 2:(a + 1) * N - 2]
                                 - expect)) <= tol

    def test_nondegeneracy_factors_discretize_tiles(self, multimode, probe,
                                                    monkeypatch):
        import qglue.corrector as corrector
        factored = []
        real = corrector.lu_factor

        def capture(a, *args, **kwargs):
            factored.append(np.array(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(corrector, "lu_factor", capture)
        correction = probe * 1e-3
        nondegeneracy_diag(multimode, correction, degrees=self.DEGREES)
        shifted = dataclasses.replace(multimode,
                                      field=multimode.field + correction)
        D = discretize(shifted, degrees=self.DEGREES)
        N = len(multimode.s)
        assert len(factored) == len(self.DEGREES)
        for a, tile in enumerate(factored):
            assert np.array_equal(tile, D[a * N:(a + 1) * N,
                                                 a * N:(a + 1) * N])


class TestConditionEstimate:
    """BorderedSystem.factor: LU of the row-equilibrated matrix in place and
    a 1-norm condition estimate from the same factors."""

    @pytest.fixture
    def fresh_sys(self, reference_approx):
        return bordered_system(reference_approx, degrees=(0,))

    def test_factor_leaves_matrix_unchanged(self, fresh_sys):
        before = fresh_sys.matrix.copy()
        fresh_sys.factor()
        assert np.array_equal(fresh_sys.matrix, before)

    def test_estimate_within_one_norm_condition(self, fresh_sys):
        _, cond = fresh_sys.factor()
        Aeq = fresh_sys.matrix / fresh_sys.row_scale[:, None]
        kappa1 = np.linalg.cond(Aeq, 1)
        assert kappa1 / 3 <= cond <= kappa1 * (1 + 1e-10)

    def test_estimate_agrees_with_lapack_gecon(self, fresh_sys):
        from scipy.linalg.lapack import dgecon
        (lu, _), cond = fresh_sys.factor()
        Aeq = fresh_sys.matrix / fresh_sys.row_scale[:, None]
        rcond, info = dgecon(lu, np.linalg.norm(Aeq, 1), norm="1")
        assert info == 0
        assert cond == pytest.approx(1.0 / rcond, rel=1e-8)

    def test_estimate_repeats_bit_for_bit(self, fresh_sys):
        # gecon's estimate of one matrix can move in the last digit with the
        # heap address of its work array; the estimate here must not
        conds = []
        held = []
        for k in range(20):
            held.append(np.ones(97 * k + 5))
            again = dataclasses.replace(fresh_sys, _lu=None, _cond=None)
            conds.append(again.factor()[1])
        assert len(set(conds)) == 1

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_reports_infinite_condition(
            self, fresh_sys, reference_approx):
        # zero an interior row of mode 0
        matrix = fresh_sys.matrix.copy()
        matrix[12] = 0.0
        scale = fresh_sys.row_scale.copy()
        scale[12] = 1.0
        singular = dataclasses.replace(fresh_sys, matrix=matrix,
                                       row_scale=scale)
        assert singular.factor()[1] == float("inf")
        s = reference_approx.s
        f = CylField.mode0(reference_approx.config.constants, s,
                           bump_probe(s))
        with pytest.raises(IllConditionedError) as exc:
            solve_right_inverse(singular, f)
        assert exc.value.cond_estimate == float("inf")

    def test_refined_residual_on_reference_system(self, fresh_sys,
                                                  reference_approx):
        s = reference_approx.s
        f = CylField.mode0(reference_approx.config.constants, s,
                           bump_probe(s))
        res = solve_right_inverse(fresh_sys, f)
        assert res.relResidual < 1e-8
        assert 1.0 <= res.cond <= 1e13


class TestRoundingFloor:
    """iterate with a tolerance below the defect's rounding floor (~1e-18):
    the defect stops decreasing, which is stagnation, not divergence."""

    @pytest.fixture(scope="class")
    def two_mode(self, orbit_cache):
        orbit = orbit_cache(0.6747)
        cfg = make_config(orbit, m=2,
                          pert1=((0, -1.777e-3, 2.31), (1, 1.828e-3, 1.72)),
                          pert2=((0, 1.167e-3, 2.49), (1, 1.323e-3, 2.25)),
                          T01=0.131, T02=0.157)
        return build_approximate(cfg, grid_per_period=64)

    @pytest.mark.parametrize("scheme", ["picard", "newton"])
    def test_tolerance_below_floor_converges(self, two_mode, scheme):
        out = iterate(two_mode, scheme=scheme, tol=1e-20, min_iter=2,
                      degrees=(0, 1))
        assert out.converged
        assert len(out.trace.rows) - 1 < 25
        assert out.finalDefect < 1e-16

    def test_iteration_count_above_floor(self, two_mode):
        out = iterate(two_mode, scheme="picard", tol=1e-15, min_iter=2,
                      degrees=(0, 1))
        assert out.converged
        assert len(out.trace.rows) - 1 == 2


class TestBorderSplit:
    """bordered_system = orbit-side border (_mode_border per mode) plus the
    background rows; Newton re-assembles only the latter."""

    DEGREES = (0, 1)

    @pytest.fixture(scope="class")
    def two_mode(self, orbit05):
        cfg = make_config(orbit05, m=1,
                          pert1=((0, 1e-3, 2.0), (1, 5e-4, 1.6)))
        return build_approximate(cfg, grid_per_period=32)

    @pytest.fixture(scope="class")
    def shift(self, two_mode):
        s = two_mode.s
        return CylField.from_modes(
            two_mode.config.constants, s,
            {l: 1e-3 * (l + 1) * bump_probe(s, center=0.8 * l - 0.4)
             for l in self.DEGREES})

    def test_newton_builds_each_mode_border_once(self, two_mode,
                                                 monkeypatch):
        import qglue.corrector as corrector
        built = []
        real = corrector._mode_border

        def count(approx, basis, l):
            built.append(l)
            return real(approx, basis, l)

        monkeypatch.setattr(corrector, "_mode_border", count)
        out = iterate(two_mode, scheme="newton", degrees=self.DEGREES,
                      min_iter=2)
        assert len(out.trace.rows) - 1 >= 2
        assert sorted(built) == list(self.DEGREES)

    def test_background_rows_match_full_assembly(self, two_mode, shift):
        from qglue.corrector import _background_system
        sys0 = bordered_system(two_mode, degrees=self.DEGREES)
        shifted = dataclasses.replace(two_mode, field=two_mode.field + shift)
        got = _background_system(shifted, self.DEGREES, sys0.borders)
        full = bordered_system(shifted, degrees=self.DEGREES)
        assert np.array_equal(got.matrix, full.matrix)
        assert np.array_equal(got.row_scale, full.row_scale)

    def test_deficiency_columns_match_linear_apply(self, two_mode):
        sysm = bordered_system(two_mode, degrees=self.DEGREES)
        s = two_mode.s
        N = len(s)
        col = len(self.DEGREES) * N
        checked = 0
        for bb in sysm.borders:
            if bb.Bcols is None:
                continue
            for j in range(bb.Bcols.shape[1]):
                u = CylField.from_modes(
                    two_mode.config.constants, s,
                    {l: bb.Bcols[:, j] if l == bb.l else np.zeros(N)
                     for l in self.DEGREES})
                Lu = linear_apply(two_mode.field, u)
                expect = [Lu.mode(l).samples[2:N - 2] for l in self.DEGREES]
                tol = 1e-12 * max(np.max(np.abs(e)) for e in expect)
                for a in range(len(self.DEGREES)):
                    got = sysm.matrix[a * N + 2:(a + 1) * N - 2, col]
                    assert np.max(np.abs(got - expect[a])) <= tol
                col += 1
                checked += 1
        assert checked == 4 * len(self.DEGREES)
        assert col == sysm.matrix.shape[1]


class TestWindowSolution:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_multi_jet_matches_one_jet_runs(self, reference_approx, orbit05,
                                            l):
        # one flow with k jets against k one-jet flows, on the left end's
        # forward window and the right end's backward window
        from qglue.corrector import _window_solution
        from qglue.fd import stencil_size
        from qglue.gluing import STENCIL_ORDER
        s = reference_approx.s
        phase = (reference_approx.config.m + 0.5) * orbit05.period
        op = ModeOperator(orbit05, orbit05.constants.lam(l))
        win = stencil_size(3, STENCIL_ORDER)
        jets = np.random.default_rng(l).standard_normal((4, 4))
        for t0, nodes in ((s[0], s[:win]), (s[-1], s[-win:])):
            block = _window_solution(op, t0 + phase, nodes + phase, jets)
            assert block.shape == (4, win)
            for j in range(4):
                one = _window_solution(op, t0 + phase, nodes + phase,
                                       jets[:, [j]])
                assert one.shape == (1, win)
                assert (np.max(np.abs(block[j] - one[0]))
                        <= 1e-12 * np.max(np.abs(one[0])))
