import collections
import dataclasses

import numpy as np
import pytest

from qglue.errors import DomainError, IllConditionedError, NumericalError
from qglue.gauges import CylField, paneitz_mode_apply
from qglue.gluing import (STENCIL_ORDER, GluingConfig, build_approximate,
                          defect, log_annulus_weight, smooth_step)
from qglue.jacobi import ModeOperator, mode_apply
from qglue.corrector import (discretize, linear_apply, bordered_system,
                             solve_right_inverse, remainder, iterate,
                             verify_correction, nondegeneracy_diag,
                             BandedOperator, BandLU, BorderedSystem)
from conftest import estimate_g_norm, make_config, mode_potential, sup_norm


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


class DenseLU:
    """Test-local dense oracle with BandLU's interface: the LU of the
    reconstructed, row-equilibrated matrix."""

    def __init__(self, op, row_scale):
        from scipy.linalg import lu_factor
        self.matrix = op.toarray() / row_scale[:, None]
        self.n = len(self.matrix)
        self.norm1 = np.linalg.norm(self.matrix, 1)
        self.singular = False
        self.lu = lu_factor(self.matrix)

    def solve(self, b, trans=0):
        from scipy.linalg import lu_solve
        return lu_solve(self.lu, b, trans=trans)


class TestDiscretize:
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_interior_rows_match_mode_apply(self, exact_approx, orbit05, l):
        D = discretize(exact_approx, degrees=(l,)).toarray()
        s = exact_approx.s
        consts = exact_approx.config.constants
        probe = bump_probe(s)
        # the blend equals the orbit here, so its coupling is diagonal and
        # the matrix action must agree with mode l's operator about the orbit
        got = D[:len(s), :len(s)] @ probe
        L = linear_apply(exact_approx.field,
                         CylField.from_modes(consts, s, {l: probe}))
        interior = slice(4, len(s) - 4)
        rel = (np.max(np.abs(got[interior] - L.mode(l)[interior]))
               / np.max(np.abs(L.mode(l))))
        assert rel < 1e-12
        # mode_apply evaluates the orbit at its argument; the blend's phase
        # puts grid point s at orbit time s + (m + 1/2) T
        t_arg = s + (exact_approx.config.m + 0.5) * orbit05.period
        op_vals = mode_apply(ModeOperator(orbit05, consts.lam(l)), t_arg,
                             probe)
        for vals in (got, L.mode(l)):
            rel2 = (np.max(np.abs(op_vals[interior] - vals[interior]))
                    / np.max(np.abs(op_vals)))
            assert rel2 < 1e-8

    def test_clamp_rows_present(self, exact_approx):
        D = discretize(exact_approx, degrees=(0,)).toarray()
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
        D = discretize(ap, degrees=(0,)).toarray()
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
        D = discretize(exact_approx, degrees=(0,)).toarray()
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
        rec = res.u.mode(0)
        rel = np.max(np.abs(rec - probe)) / np.max(np.abs(probe))
        assert rel < 1e-7
        assert all(abs(a) < 1e-7 for a in res.alpha.values())

    def test_zero_rhs_gives_zero(self, ref_sys, reference_approx):
        s = reference_approx.s
        f = CylField.mode0(reference_approx.config.constants, s,
                           np.zeros(len(s)))
        res = solve_right_inverse(ref_sys, f)
        assert sup_norm(res.u) == 0.0
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

    def test_ill_conditioning_reported(self, ref_sys, reference_approx,
                                       monkeypatch):
        import qglue.corrector as corrector
        s = reference_approx.s
        f = CylField.mode0(reference_approx.config.constants, s,
                           np.ones(len(s)))
        monkeypatch.setattr(corrector, "COND_LIMIT", 1.0)
        with pytest.raises(IllConditionedError) as exc:
            solve_right_inverse(ref_sys, f)
        assert exc.value.cond_estimate > 1.0


class TestRemainder:
    def test_zero_correction(self, reference_approx):
        z = CylField.mode0(reference_approx.config.constants,
                           reference_approx.s,
                           np.zeros(len(reference_approx.s)))
        assert sup_norm(remainder(reference_approx, z)) == 0.0

    def test_quadratic_scaling(self, reference_approx):
        s = reference_approx.s
        v = CylField.mode0(reference_approx.config.constants, s,
                           0.01 * np.cos(0.7 * s) * np.exp(-0.1 * np.abs(s)))
        norms = []
        scales = (1e-2, 1e-3, 1e-4)
        for sc in scales:
            norms.append(sup_norm(remainder(reference_approx, v * sc)))
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
            lhs = sup_norm(remainder(reference_approx, v1)
                           - remainder(reference_approx, v2))
            bound = max(sup_norm(v1), sup_norm(v2)) * sup_norm(v1 - v2)
            p, cN = consts.p, consts.cN
            C = 2 * cN * p * (p - 1)  # generous constant at background ~ 1
            assert lhs <= C * bound

    def test_positivity_guard(self, reference_approx):
        s = reference_approx.s
        v = CylField.mode0(reference_approx.config.constants, s,
                           -np.ones(len(s)))
        with pytest.raises(DomainError):
            remainder(reference_approx, v)

    def test_keeps_modes_the_blend_lacks(self, reference_approx):
        # the blend has mode 0 only; u also carries mode 2, so the remainder
        # must equal the one about the blend padded with a zero mode 2
        s = reference_approx.s
        consts = reference_approx.config.constants
        prof = 0.05 * np.exp(-0.1 * s ** 2)
        u = CylField.from_modes(consts, s, {0: prof, 2: prof * np.cos(s)})
        zero2 = CylField.from_modes(consts, s, {2: np.zeros(len(s))})
        padded = dataclasses.replace(reference_approx,
                                     field=reference_approx.field + zero2)
        got = remainder(reference_approx, u)
        want = remainder(padded, u)
        assert tuple(got.degrees) == tuple(want.degrees) == (0, 2)
        assert np.max(np.abs(want.mode(2))) > 1e-5
        for l in (0, 2):
            np.testing.assert_array_equal(got.mode(l), want.mode(l))


class TestIterate:
    def test_exact_ends_no_iterations(self, exact_approx):
        out = iterate(exact_approx, degrees=(0,))
        assert out.converged
        assert len(out.trace.rows) == 1
        assert sup_norm(out.correction) == 0.0
        assert out.initialDefect == 0.0

    def test_reference_picard_run(self, reference_approx):
        out = iterate(reference_approx, scheme="picard", degrees=(0,),
                      min_iter=2)
        assert out.converged
        assert out.finalDefect < 1e-9
        assert out.finalDefect <= 1e-3 * out.initialDefect
        ratios = [r[3] for r in out.trace.rows if np.isfinite(r[3])]
        assert ratios and max(ratios) < 0.5
        res_sup, psi_sup = verify_correction(out)
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

    @pytest.mark.parametrize("scheme", ["picard", "newton"])
    def test_solve_residual_is_the_largest_over_the_solves(
            self, reference_approx, scheme, monkeypatch):
        import qglue.corrector as corrector
        solves = []
        real = corrector.solve_right_inverse

        def capture(sys, f):
            solves.append(real(sys, f))
            return solves[-1]

        monkeypatch.setattr(corrector, "solve_right_inverse", capture)
        out = iterate(reference_approx, scheme=scheme, degrees=(0,),
                      min_iter=2)
        assert len(solves) == len(out.trace.rows) - 1 >= 2
        assert out.solveResidual == max(r.relResidual for r in solves)

    def test_invalid_scheme(self, reference_approx):
        with pytest.raises(DomainError):
            iterate(reference_approx, scheme="broyden")


class TestOneEvaluation:
    """correct evaluates the corrected field once: iterate's last total
    defect f0 + L u + R(u) is what verify_correction reads.  README config,
    modes 0 and 1."""

    CONFIG = {"n": 5, "eps": 0.5, "m": 2,
              "end1": {"T0": 0.2, "perturbation": [
                  {"l": 0, "A": 1e-3, "beta": 2.0},
                  {"l": 1, "A": 1e-3, "beta": 2.0}]},
              "end2": {"T0": 0.1, "perturbation": [
                  {"l": 0, "A": -1e-3, "beta": 1.8}]}}

    @pytest.mark.parametrize("scheme", ["picard", "newton"])
    def test_correct_evaluates_each_piece_once(self, scheme, monkeypatch,
                                               cold_memo):
        import qglue.cli as cli
        import qglue.corrector as corrector
        calls = collections.Counter()

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for name in ("defect", "_linearization", "remainder"):
            count(corrector, name)
        count(cli, "defect")
        verify = corrector.verify_correction

        def verify_counted(result):
            before = dict(calls)
            out = verify(result)
            assert calls == before
            calls["verify_correction"] += 1
            return out
        # cli calls it through the corrector module, the one imported here
        monkeypatch.setattr(corrector, "verify_correction", verify_counted)
        doc, _ = cli.cmd_correct({"config": self.CONFIG, "scheme": scheme,
                                  "modes": [0, 1], "minIter": 2})
        steps = doc["iterations"]
        assert steps >= 2 and calls["verify_correction"] == 1
        assert calls["defect"] == 1
        # the blend's linearization once; Newton one more per re-assembly
        assert calls["_linearization"] == (1 if scheme == "picard" else steps)
        # once per iterate u_1 .. u_steps: R(u_0) = R(0) is never needed
        assert calls["remainder"] == steps
        assert doc["residualSup"] == doc["finalDefect"]

    @pytest.mark.parametrize("scheme", ["picard", "newton"])
    def test_final_defect_matches_an_oracle(self, scheme):
        ap = build_approximate(GluingConfig.from_json(self.CONFIG),
                               grid_per_period=64)
        out = iterate(ap, scheme=scheme, degrees=(0, 1), min_iter=2)
        u = out.correction
        oracle = (defect(ap).residual.padded(u.degrees)
                  + linear_apply(ap.field, u) + remainder(ap, u))
        assert out.defectField.degrees == oracle.degrees == (0, 1)
        assert np.array_equal(out.defectField.coeffs, oracle.coeffs)
        res_sup, psi_sup = verify_correction(out)
        assert res_sup == out.finalDefect
        consts = ap.config.constants
        psi = ((2.0 / (consts.n - 4))
               * (ap.field + u).point_values() ** -consts.p
               * oracle.point_values())
        assert psi_sup == np.max(np.abs(psi[2:len(u.t) - 2]))


class TestChordStep:
    """Picard's step is Newton's with the blend's system frozen, the chord
    method: G reads only interior rows, where L G = I, so on G's range
    u - G(f0 + L u + R(u)) = -G(f0 + R(u)), Picard's map.  A test-local
    oracle runs that map on the same bordered system, through this module's
    own, unpatched solve_right_inverse."""

    @staticmethod
    def picard_map(ap, degrees, steps):
        sys = bordered_system(ap, degrees=degrees)
        f0 = defect(ap).residual.padded(degrees)
        u = CylField(f0.constants, f0.t, degrees,
                     np.zeros((len(degrees), len(f0.t))))
        out = []
        for _ in range(steps):
            res = solve_right_inverse(sys, (f0 + remainder(ap, u)) * -1.0)
            u = res.u
            out.append((u, res.alpha))
        return out

    @staticmethod
    def chord_steps(ap, degrees, monkeypatch, **kwargs):
        """iterate's picard run, with its iterates and amplitudes per step
        summed from the solves it made."""
        import qglue.corrector as corrector
        real = corrector.solve_right_inverse
        solves = []

        def capture(sys, f):
            solves.append(real(sys, f))
            return solves[-1]
        monkeypatch.setattr(corrector, "solve_right_inverse", capture)
        out = iterate(ap, scheme="picard", degrees=degrees, **kwargs)
        steps, u, alpha = [], None, {}
        for res in solves:
            u = res.u if u is None else u + res.u
            alpha = {key: alpha.get(key, 0.0) + a
                     for key, a in res.alpha.items()}
            steps.append((u, alpha))
        return out, steps

    @pytest.mark.parametrize("amp, rate", [(0.1, 1.2), (0.4, 1.01)])
    def test_matches_picard_map(self, orbit05, amp, rate, monkeypatch):
        cfg = make_config(orbit05, m=1, pert1=((0, amp, rate),),
                          pert2=((0, -amp, rate),))
        ap = build_approximate(cfg, grid_per_period=64)
        out, chord = self.chord_steps(ap, (0,), monkeypatch, tol=1e-15,
                                      min_iter=2)
        # the result is the sum of the steps, in u and in alpha
        assert np.array_equal(out.correction.coeffs, chord[-1][0].coeffs)
        assert out.alpha == chord[-1][1]
        oracle = self.picard_map(ap, (0,), len(chord))
        checked = 0
        # steps taken from a defect above 1e-13; below, both maps step in
        # rounding noise
        for (u, alpha), (v, beta), row in zip(chord, oracle, out.trace.rows):
            if row[1] <= 1e-13:
                continue
            checked += 1
            assert np.max(np.abs(u.coeffs - v.coeffs)) \
                <= 1e-9 * np.max(np.abs(v.coeffs))
            assert alpha.keys() == beta.keys()
            biggest = max(abs(b) for b in beta.values())
            assert max(abs(alpha[key] - beta[key]) for key in beta) \
                <= 1e-9 * biggest
        assert checked >= 2

    def test_first_step_is_bit_for_bit(self, monkeypatch):
        # R(0) = 0 exactly, so both maps solve for -f0
        ap = build_approximate(
            GluingConfig.from_json(TestOneEvaluation.CONFIG),
            grid_per_period=64)
        _, chord = self.chord_steps(ap, (0, 1), monkeypatch, min_iter=2)
        (u, alpha), = self.picard_map(ap, (0, 1), 1)
        assert np.array_equal(chord[0][0].coeffs, u.coeffs)
        assert chord[0][1] == alpha


class TestDivergence:
    """Three consecutive contraction ratios >= 1 end the iteration with
    NumericalError, exit code 3 through the command line.  The reference
    defect starts at 4e-16, so tol 1e-30 keeps the first steps going."""

    @pytest.fixture
    def growing_steps(self, monkeypatch):
        import qglue.corrector as corrector
        real = corrector.solve_right_inverse
        solves = []

        def growing(sys, f):
            # each correction three times the size of the one before
            solves.append(real(sys, f))
            res = solves[-1]
            return dataclasses.replace(res, u=res.u * 3.0 ** len(solves))
        monkeypatch.setattr(corrector, "solve_right_inverse", growing)
        return solves

    def test_iterate_raises(self, reference_approx, growing_steps):
        with pytest.raises(NumericalError, match="iteration diverged"):
            iterate(reference_approx, degrees=(0,), tol=1e-30)
        # ratios >= 1 at steps 2, 3 and 4
        assert len(growing_steps) == 4

    def test_cli_exit_code(self, tmp_path, capsys, growing_steps):
        import json
        from qglue.cli import main
        config = tmp_path / "glue.json"
        config.write_text(json.dumps({
            "n": 5, "eps": 0.5, "m": 2, "end1": {"T0": 0.0, "perturbation": [
                {"l": 0, "A": 1e-3, "beta": 2.0}]}, "end2": {}}))
        out = tmp_path / "out"
        assert main(["correct", "--config", str(config), "--tol", "1e-30",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: iteration diverged")
        assert "Traceback" not in err and not out.exists()


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
        basis = generators(orbit05)
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
        left_rows = np.vstack([border.slots[:2], border.rows[:1]])

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
                    op.A * y[2] - mode_potential(op, t + phase) * y[0])

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
        D = discretize(exact_approx, degrees=(0,)).toarray()
        s = exact_approx.s
        N = len(s)
        phase = (exact_approx.config.m + 0.5) * orbit05.period
        w = orbit05.eval(s + phase, 1)
        got = D[:N, :N] @ w
        # (limited by the stencils' truncation and rounding; tiny against
        # the operator scale |w|/h^4 ~ 6e2)
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
        _, psi_sup = verify_correction(out)
        assert psi_sup < 1e-8


class TestSharedOperator:
    """linear_apply, discretize, bordered_system and nondegeneracy_diag reach
    the mode operator through one point-major band; they must agree with a
    mode-by-mode reference in every mode, not only in mode 0."""

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

    @staticmethod
    def reference_apply(background, u):
        """The linearization about background applied to u, mode by mode:
        gauges.paneitz_mode_apply minus K sum_b C[a, b] u_b, with C the
        coupling tensor of the projected potential."""
        from qglue.corrector import _coupling_tensor
        consts = background.constants
        C = _coupling_tensor(background, u.degrees)
        return np.stack([
            paneitz_mode_apply(consts, consts.lam(l), u.coeffs[a], u.h,
                               acc=STENCIL_ORDER)
            - consts.K * sum(C[a, b] * u.coeffs[b]
                             for b in range(len(u.degrees)))
            for a, l in enumerate(u.degrees)])

    def test_linear_apply_matches_mode_by_mode_reference(self, multimode):
        # every row, the one-sided end rows included, on a field that does
        # not vanish there
        s = multimode.s
        u = CylField.from_modes(
            multimode.config.constants, s,
            {l: (l + 1) * np.cos(0.9 * s + l) / np.cosh(0.2 * s)
             for l in self.DEGREES})
        expect = self.reference_apply(multimode.field, u)
        got = linear_apply(multimode.field, u)
        assert got.degrees == u.degrees
        for a in range(len(self.DEGREES)):
            tol = 1e-12 * np.max(np.abs(expect[a]))
            assert np.max(np.abs(got.coeffs[a] - expect[a])) <= tol

    def test_apply_and_matrix_forms_agree(self, multimode, probe):
        N, L = len(multimode.s), len(self.DEGREES)
        x = probe.coeffs.T.reshape(-1)        # point-major: i L + a
        ref = self.reference_apply(multimode.field, probe)
        got_d = discretize(multimode, degrees=self.DEGREES).matvec(x)
        sysm = bordered_system(multimode, degrees=self.DEGREES)
        got_b = sysm.matrix.toarray()[:, :L * N] @ x
        for a in range(L):
            expect = ref[a][2:N - 2]
            tol = 1e-12 * np.max(np.abs(expect))
            assert np.max(np.abs(got_d[a::L][2:N - 2] - expect)) <= tol
            assert np.max(np.abs(got_b[a::L][2:N - 2] - expect)) <= tol

    def test_nondegeneracy_factors_discretize_tiles(self, multimode, probe,
                                                    monkeypatch):
        import qglue.corrector as corrector
        lapack = corrector._lapack()
        factored = []
        real = lapack.dgbtrf

        def capture(ab, kl, ku, **kwargs):
            factored.append((kl, ku))
            return real(ab, kl, ku, **kwargs)

        tiles = []

        class Capture(corrector.BandLU):
            def __init__(self, op, row_scale):
                tiles.append(op)
                super().__init__(op, row_scale)

        # BandLU calls dgbtrf on the module _lapack() loads when it factors
        monkeypatch.setattr(lapack, "dgbtrf", capture)
        monkeypatch.setattr(corrector, "BandLU", Capture)
        correction = probe * 1e-3
        nondegeneracy_diag(multimode, correction, degrees=self.DEGREES)
        shifted = dataclasses.replace(multimode,
                                      field=multimode.field + correction)
        D = discretize(shifted, degrees=self.DEGREES).toarray()
        L = len(self.DEGREES)
        # one banded LU per mode, of that mode's clamped tile
        assert factored == [(8, 8)] * len(self.DEGREES)
        assert len(tiles) == len(self.DEGREES)
        for a, tile in enumerate(tiles):
            assert tile.shape == (len(multimode.s),) * 2
            assert np.array_equal(tile.toarray(), D[a::L, a::L])


class TestConditionEstimate:
    """BorderedSystem.factor: LU of the row-equilibrated matrix in place and
    a 1-norm condition estimate from the same factors."""

    @pytest.fixture
    def fresh_sys(self, cold_memo, reference_approx):
        return bordered_system(reference_approx, degrees=(0,))

    def test_factor_leaves_matrix_unchanged(self, fresh_sys):
        before = fresh_sys.matrix.toarray()
        fresh_sys.factor()
        assert np.array_equal(fresh_sys.matrix.toarray(), before)

    def test_estimate_within_one_norm_condition(self, fresh_sys):
        # a lower estimate of the condition its own factors give; a dense
        # LU's differs from that by rounding times kappa, either way
        lu, cond = fresh_sys.factor()
        Aeq = fresh_sys.matrix.toarray() / fresh_sys.row_scale[:, None]
        kappa_band = lu.norm1 * np.linalg.norm(lu.solve(np.eye(len(Aeq))), 1)
        kappa1 = np.linalg.cond(Aeq, 1)
        assert cond <= kappa_band * (1 + 1e-10)
        assert kappa1 / 3 <= cond
        assert abs(cond / kappa1 - 1.0) <= np.finfo(float).eps * kappa1

    def test_estimate_agrees_with_lapack_gecon(self, fresh_sys):
        # the estimator is gecon's iteration: over the dense LU of the
        # reconstructed matrix both read the same number, and the banded
        # factors' estimate differs from it by rounding times kappa
        from scipy.linalg.lapack import dgecon
        from qglue.corrector import _inv_norm1
        oracle = DenseLU(fresh_sys.matrix, fresh_sys.row_scale)
        rcond, info = dgecon(oracle.lu[0], oracle.norm1, norm="1")
        assert info == 0
        assert oracle.norm1 * _inv_norm1(oracle) == pytest.approx(
            1.0 / rcond, rel=1e-8)
        _, cond = fresh_sys.factor()
        assert abs(cond * rcond - 1.0) <= np.finfo(float).eps / rcond

    def test_estimate_repeats_bit_for_bit(self, fresh_sys):
        # gecon's estimate of one matrix can move in the last digit with the
        # heap address of its work array; the estimate here must not
        conds = []
        held = []
        for k in range(20):
            held.append(np.ones(97 * k + 5))
            again = dataclasses.replace(fresh_sys)
            conds.append(again.factor()[1])
        assert len(set(conds)) == 1

    def test_a_replaced_system_factors_its_own_matrix(self, fresh_sys):
        # replace starts without factors: a factored system's LU and cond
        # belong to its matrix, not to the one put in its place
        assert np.isfinite(fresh_sys.factor()[1])
        zero = dataclasses.replace(
            fresh_sys.matrix, band=np.zeros_like(fresh_sys.matrix.band))
        singular = dataclasses.replace(fresh_sys, matrix=zero)
        assert singular.factor()[1] == float("inf")

    def test_singular_system_reports_infinite_condition(
            self, fresh_sys, reference_approx):
        # zero an interior row of mode 0 (point-major row 12 is point 12)
        band = fresh_sys.matrix.band.copy()
        cols = fresh_sys.matrix.cols.copy()
        band[12] = cols[12] = 0.0
        scale = fresh_sys.row_scale.copy()
        scale[12] = 1.0
        singular = dataclasses.replace(
            fresh_sys, matrix=dataclasses.replace(fresh_sys.matrix, band=band,
                                                  cols=cols),
            row_scale=scale)
        assert not singular.matrix.toarray()[12].any()
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


class TestNonFiniteFactors:
    """Non-finite numbers in a factorization end in a NumericalError (exit
    3), not in an error of the LAPACK layer."""

    # A = diag(1e-310, 1) is nonsingular, but A^{-1} C overflows, so the
    # Schur complement -R A^{-1} C is -inf
    OVERFLOW = BandedOperator(kl=0, ku=0, band=np.array([[1e-310], [1.0]]),
                              cols=np.array([[1.0], [1.0]]),
                              rows=np.array([[1.0, 1.0]]))

    def test_non_finite_complement_reads_singular(self):
        assert BandLU(self.OVERFLOW, np.ones(3)).singular
        system = BorderedSystem(approx=None, degrees=(0,),
                                matrix=self.OVERFLOW, row_scale=np.ones(3),
                                borders=[])
        assert system.factor()[1] == float("inf")

    def test_non_finite_complement_exits_3(self, tmp_path, monkeypatch):
        import json
        import qglue.corrector as corrector
        from qglue.cli import main

        class Overflow(corrector.BandLU):
            def __init__(self, op, row_scale):
                super().__init__(dataclasses.replace(
                    op, cols=np.full_like(op.cols, np.inf)), row_scale)

        monkeypatch.setattr(corrector, "BandLU", Overflow)
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(
            {"n": 5, "eps": 0.5, "m": 2, "end1": {"perturbation": [
                {"l": 0, "A": 1e-3, "beta": 2.0}]}, "end2": {}}))
        assert main(["correct", "--config", str(path), "--out",
                     str(tmp_path / "c")]) == 3

    def test_non_finite_right_hand_side_raises(self):
        op = dataclasses.replace(self.OVERFLOW,
                                 band=np.array([[2.0], [1.0]]))
        lu = BandLU(op, np.ones(3))
        assert not lu.singular
        assert np.all(np.isfinite(lu.solve(np.ones(3))))
        for bad in ([1.0, np.nan, 1.0], [1.0, 1.0, np.inf]):
            for trans in (0, 1):
                with pytest.raises(NumericalError):
                    lu.solve(np.array(bad), trans=trans)

    def test_schur_form_failure_raises(self, monkeypatch):
        import qglue.corrector as corrector
        lapack = corrector._lapack()
        real = lapack.dgees

        def fail(select, a, **kwargs):
            *out, info = real(select, a, **kwargs)
            return (*out, len(a) + 1 if kwargs.get("sort_t") else info)

        M = np.diag([4.0, 3.0, 0.5, 0.25])
        assert corrector._invariant_subspace(M, 2, 2.0).shape == (4, 2)
        monkeypatch.setattr(lapack, "dgees", fail)
        with pytest.raises(NumericalError, match="dgees info 5"):
            corrector._invariant_subspace(M, 2, 2.0)

    def test_non_finite_flow_raises(self):
        import qglue.corrector as corrector
        M = np.diag([4.0, np.inf, 0.5, 0.25])
        with pytest.raises(NumericalError, match="not finite"):
            corrector._invariant_subspace(M, 2, 2.0)


class TestDegreeCoverage:
    """A correction over fewer degrees than the blend carries leaves the
    missing modes' defect untouched, which the iteration would report as
    its floor; both entry points refuse it."""

    @pytest.fixture(scope="class")
    def two_mode_blend(self, orbit05):
        cfg = make_config(orbit05, m=2,
                          pert1=((0, 1e-3, 2.0), (1, 1e-3, 2.0)))
        return build_approximate(cfg, grid_per_period=64)

    def test_iterate_requires_every_blend_degree(self, two_mode_blend):
        with pytest.raises(DomainError):
            iterate(two_mode_blend, degrees=(0,), tol=1e-20, min_iter=2)

    def test_solve_rejects_modes_outside_the_system(self, ref_sys,
                                                    reference_approx):
        s = reference_approx.s
        prof = bump_probe(s)
        consts = reference_approx.config.constants
        f = CylField.from_modes(consts, s, {0: prof, 1: prof})
        with pytest.raises(DomainError):
            solve_right_inverse(ref_sys, f)
        # zero rows outside the system's degrees carry nothing to drop
        res = solve_right_inverse(
            ref_sys, CylField.from_modes(consts, s, {0: prof, 1: 0 * prof}))
        assert res.u.degrees == (0,)
        assert res.relResidual < 1e-8


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
        assert np.array_equal(got.matrix.toarray(), full.matrix.toarray())
        assert np.array_equal(got.row_scale, full.row_scale)

    def test_live_diagonals_are_the_nonzero_ones(self, two_mode, shift):
        # the builders find them once; matvec applies only those, and the
        # linearization's slot rows are kept on its own live diagonals
        from qglue.corrector import _linearization
        shifted = dataclasses.replace(two_mode, field=two_mode.field + shift)
        sys = bordered_system(shifted, degrees=self.DEGREES)
        lin = _linearization(shifted.field, self.DEGREES)
        for op in (sys.matrix, lin):
            assert np.array_equal(op.live,
                                  np.flatnonzero(op.band.any(axis=0)))
        assert len(lin.live) < lin.band.shape[1]
        patch = sys.operator
        assert patch.matrix is sys.matrix
        index = patch.at - lin.kl + lin.live[:, None]
        inside = (index >= 0) & (index < len(lin.band))
        assert np.array_equal(patch.edge,
                              np.where(inside, lin.band[patch.at].T[lin.live],
                                       0.0))
        assert np.array_equal(patch.index, np.where(inside, index, 0))

    def test_solve_residual_is_that_of_the_reconstructed_field(
            self, two_mode, shift):
        # relResidual measures u = v + B alpha, not v alone, with the
        # linearization about the system's own field: here a Newton
        # iterate's, not the blend's
        from qglue.corrector import _background_system
        sys0 = bordered_system(two_mode, degrees=self.DEGREES)
        shifted = dataclasses.replace(two_mode, field=two_mode.field + shift)
        sysk = _background_system(shifted, self.DEGREES, sys0.borders)
        s = two_mode.s
        N = len(s)
        f = CylField.from_modes(
            two_mode.config.constants, s,
            {l: bump_probe(s, center=0.5 * l) for l in self.DEGREES})
        res = solve_right_inverse(sysk, f)
        assert max(abs(a) for a in res.alpha.values()) > 0.0
        Lu = linear_apply(shifted.field, res.u)
        num = np.max(np.abs(Lu.coeffs[:, 2:N - 2] - f.coeffs[:, 2:N - 2]))
        assert res.relResidual == num / np.max(np.abs(f.coeffs))

    def test_deficiency_columns_match_linear_apply(self, two_mode):
        # both come from one apply kernel, so the interior rows agree bit
        # for bit
        sysm = bordered_system(two_mode, degrees=self.DEGREES)
        s = two_mode.s
        N, L = len(s), len(self.DEGREES)
        dense = sysm.matrix.toarray()
        col = L * N
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
                for a, l in enumerate(self.DEGREES):
                    got = dense[a::L, col][2:N - 2]
                    assert np.array_equal(got, Lu.mode(l)[2:N - 2])
                col += 1
                checked += 1
        assert checked == 4 * len(self.DEGREES)
        assert col == sysm.matrix.shape[1] == dense.shape[1]


def same_bits(a, b):
    """a and b hold the same float64 bit patterns (signed zeros and NaN
    payloads told apart)."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestOneBand:
    """A bordered system holds one band.  Its linearization shares the
    system's band and keeps each mode's slot rows apart; the LU fills
    LAPACK's storage without a scaled copy; the remainder works its point
    values in place.  Every figure equals that of the store before
    (conftest's two_band_system, scaled_copy_band_lu and
    out_of_place_remainder) bit for bit."""

    @pytest.fixture(scope="class")
    def blend(self, orbit05):
        cfg = make_config(orbit05, m=1,
                          pert1=((0, 1e-3, 2.0), (1, 5e-4, 1.6)),
                          pert2=((2, 4e-4, 1.8),))
        return build_approximate(cfg, grid_per_period=32)

    @staticmethod
    def probe(approx, degrees, scale=1.0):
        # nonzero on every row, the one-sided end rows included
        s = approx.s
        return CylField.from_modes(
            approx.config.constants, s,
            {l: scale * (l + 1) * np.cos(0.9 * s + l) / np.cosh(0.2 * s)
             for l in degrees})

    @pytest.fixture(scope="class", params=[(0,), (0, 1), (0, 2)],
                    ids=["modes0", "modes01", "modes02"])
    def systems(self, request, blend):
        """The blend's system in the given modes, and the system Newton
        re-assembles about a shifted field with the same borders."""
        from qglue.corrector import _background_system
        sys0 = bordered_system(blend, degrees=request.param)
        shifted = dataclasses.replace(
            blend, field=blend.field + self.probe(blend, request.param, 1e-3))
        return sys0, _background_system(shifted, request.param, sys0.borders)

    @pytest.fixture(scope="class")
    def clamped(self, blend):
        """The systems discretize builds for its clamped tiles, one mode
        each, as nondegeneracy_diag factors them."""
        import qglue.corrector as corrector
        built, real = [], corrector._background_system

        def capture(approx, degrees, borders):
            built.append(real(approx, degrees, borders))
            return built[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corrector, "_background_system", capture)
            tiles = [discretize(blend, degrees=(l,)) for l in (0, 1, 2)]
        assert all(b.matrix is tile for b, tile in zip(built, tiles))
        return built

    @staticmethod
    def each(systems, clamped):
        return list(systems) + clamped

    def test_linearization_is_linear_apply_on_every_row(self, systems,
                                                        clamped):
        from qglue.corrector import _apply
        for sys in self.each(systems, clamped):
            u = self.probe(sys.approx, sys.degrees)
            got = _apply(sys.operator, u)
            want = linear_apply(sys.approx.field, u)
            assert got.degrees == want.degrees
            assert same_bits(got.coeffs, want.coeffs)

    def test_matrix_and_row_scale_are_the_two_band_stores(self, systems,
                                                          clamped):
        from conftest import two_band_system
        for sys in self.each(systems, clamped):
            op, scale = two_band_system(sys.approx, sys.degrees,
                                        sys.borders)
            assert (sys.matrix.kl, sys.matrix.ku) == (op.kl, op.ku)
            for name in ("band", "cols", "rows", "live"):
                assert same_bits(getattr(sys.matrix, name),
                                 getattr(op, name))
            assert same_bits(sys.row_scale, scale)

    def test_factors_and_cond_are_the_scaled_copys(self, systems, clamped):
        from conftest import scaled_copy_band_lu
        from qglue.corrector import BandLU, _inv_norm1
        # the bordered systems through factor(), the clamped tiles
        # unscaled, as nondegeneracy_diag factors them
        cases = [(sys, sys.row_scale) for sys in systems]
        cases += [(sys, np.ones(len(sys.row_scale))) for sys in clamped]
        for sys, scale in cases:
            lu = BandLU(sys.matrix, scale)
            cond = lu.norm1 * _inv_norm1(lu)
            if scale is sys.row_scale:
                assert sys.factor()[1] == cond
            ref = scaled_copy_band_lu(sys.matrix, scale)
            assert not lu.singular and not ref.singular
            assert lu.norm1 == ref.norm1
            for name in ("lu", "piv", "cols", "rows"):
                assert same_bits(getattr(lu, name), getattr(ref, name))
            if len(lu.rows):
                for got, want in zip(lu.schur, ref.schur):
                    assert same_bits(got, want)
            assert cond == ref.norm1 * _inv_norm1(ref)

    def test_norm1_blocks_cover_every_column(self, systems, monkeypatch):
        # blocks of a few columns, the last one short, give the same sums
        from conftest import scaled_copy_band_lu
        import qglue.corrector as corrector
        sys = systems[0]
        monkeypatch.setattr(corrector.BandLU, "BLOCK", 7)
        assert len(sys.row_scale) % 7
        lu = corrector.BandLU(sys.matrix, sys.row_scale)
        assert lu.norm1 == scaled_copy_band_lu(sys.matrix,
                                               sys.row_scale).norm1

    def test_row_max_is_the_stacked_one(self):
        from conftest import stacked_row_max
        rng = np.random.default_rng(3)
        band = rng.standard_normal((9, 5)) * 10.0 ** rng.integers(-5, 5, 5)
        band[2] = -0.0
        cols, rows = rng.standard_normal((9, 2)), rng.standard_normal((2, 9))
        for op in (BandedOperator(kl=2, ku=2, band=band, cols=cols,
                                  rows=rows),
                   BandedOperator(kl=2, ku=2, band=band,
                                  cols=np.zeros((9, 0)),
                                  rows=np.zeros((0, 9)))):
            assert same_bits(op.row_max(), stacked_row_max(op))
        band[4, 3] = np.nan
        op = BandedOperator(kl=2, ku=2, band=band, cols=cols, rows=rows)
        assert np.isnan(op.row_max()[4])
        assert same_bits(op.row_max(), stacked_row_max(op))

    def test_remainder_is_the_out_of_place_one(self, blend):
        from conftest import out_of_place_remainder
        s = blend.s
        # |u / b| from 1e-7 to 0.3 along the neck, both signs, in every
        # mode of the blend and in one it lacks
        ramp = 10.0 ** np.interp(s, (s[0], s[-1]), (-7.0, -0.5))
        u = CylField.from_modes(
            blend.config.constants, s,
            {l: ramp * np.cos(1.1 * s + l) / (l + 1) for l in (0, 1, 2, 3)})
        bg = blend.field.padded(u.degrees)
        ratio = np.abs(u.point_values() / bg.point_values())
        assert (ratio < 1e-3).any() and (ratio >= 1e-3).any()
        got, want = remainder(blend, u), out_of_place_remainder(blend, u)
        assert got.degrees == want.degrees
        assert same_bits(got.coeffs, want.coeffs)

    def test_remainder_still_guards_positivity(self, blend):
        u = blend.field * -2.0
        with pytest.raises(DomainError, match="corrected conformal factor "
                                              "is not positive"):
            remainder(blend, u)

    @pytest.mark.parametrize("p", [9.0, 5.0, 11 / 3, 3.0, 13 / 5, 2.0])
    def test_power_remainder_is_the_out_of_place_one(self, p):
        from conftest import out_of_place_power_remainder
        from qglue.gluing import stable_power_remainder
        rng = np.random.default_rng(int(p * 100))
        x = rng.uniform(-1.0, 1.0, (40, 16)) * 10.0 ** rng.uniform(
            -9.0, 0.5, (40, 16))
        x = np.clip(x, -0.95, 1.9)
        x[0, :3] = (-0.0, 0.0, 1e-3)
        for arg in (x, x[:, 0], np.stack([x, -0.5 * x]), 2e-4):
            assert same_bits(stable_power_remainder(arg, p),
                             out_of_place_power_remainder(arg, p))


def frame_gauge_rows(approx, basis, l):
    """Test-local oracle of mode l's two gauge rows by the frame route: the
    discrete-jet coordinates of each generator's end asymptotics, expressed
    as amplitudes of the sup-normalized deficiency columns and subtracted
    from the generator, times the squared annulus weight."""
    from qglue.corrector import _invariant_subspace
    from qglue.fd import jet_rows, stencil_size
    from qglue.jacobi import monodromy_data
    cfg = approx.config
    s = approx.s
    N, h, T = len(s), approx.field.h, cfg.orbit.period
    phase = (cfg.m + 0.5) * T
    op = ModeOperator(cfg.orbit, cfg.constants.lam(l))
    gens = [basis.profile(l, sign, s + phase) for sign in "+-"]
    chiL = smooth_step((s - (s[0] + T / 2)) / (T / 2))
    chiR = smooth_step(((s[-1] - T / 2) - s) / (T / 2))
    raw = [chi * g for chi in (chiL, chiR) for g in gens]
    scales = [np.max(np.abs(c)) for c in raw]
    B = np.stack([c / sc for c, sc in zip(raw, scales)], axis=1)
    win = stencil_size(3, STENCIL_ORDER)
    pattern = np.zeros((2, 4))
    for k, i0, at in ((0, 0, 0), (2, N - win, N - 1)):
        nodes = s[i0:i0 + win]
        data = monodromy_data(op, t0=nodes[0] + phase,
                              offsets=nodes - nodes[0])
        frame = [data.window[:, 0, :] @ _invariant_subspace(
            M, 1, np.exp(1.5 * T))[:, 0] for M in (data.backward, data.matrix)]
        samples = [frame[0]] + [basis.profile(l, sign, nodes + phase)
                                for sign in "+-"] + [frame[1]]
        jet = jet_rows(N, h, at, 3, STENCIL_ORDER)[:, i0:i0 + win]
        S = np.stack([jet @ w for w in samples], axis=1)
        col_scale = np.max(np.abs(S), axis=0)
        Sinv = np.linalg.inv(S / col_scale)
        for j, g in enumerate(gens):
            coords = Sinv @ (jet @ g[i0:i0 + win])
            pattern[j, k] = coords[1] / col_scale[1] * scales[k]
            pattern[j, k + 1] = coords[2] / col_scale[2] * scales[k + 1]
    log_w = log_annulus_weight(s, 1.5, cfg.m * T)
    w2 = np.exp(2.0 * (log_w - np.max(log_w)))
    return np.stack([g - B @ p for g, p in zip(gens, pattern)]) * w2


class TestGaugeRows:
    # at 16 points per period the 11-point end window reaches past the
    # plateau of the cutoffs
    @pytest.mark.parametrize("gpp", [16, 64])
    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_gauge_rows_match_frame_oracle(self, orbit_cache, n, gpp):
        # each generator's frame coordinates are a unit on its own column,
        # so the closed form g (1 - chiL - chiR) w2 is the frame route's
        from qglue.corrector import _mode_border
        from qglue.gauges import derive_constants
        from qglue.jacobi import generators
        epsBar = derive_constants(n).epsBar
        for frac in (0.3, 0.6, 0.9):
            orbit = orbit_cache(frac * epsBar, n=n)
            basis = generators(orbit)
            for m in (1, 3):
                for T01, T02 in ((0.0, 0.0), (0.2, 0.1), (1.7, 3.1)):
                    ap = build_approximate(
                        make_config(orbit, m=m, T01=T01, T02=T02),
                        grid_per_period=gpp)
                    for l in (0, 1):
                        got = _mode_border(ap, basis, l).rows[-2:]
                        want = frame_gauge_rows(ap, basis, l)
                        err = (np.max(np.abs(got - want), axis=1)
                               / np.max(np.abs(want), axis=1))
                        assert np.all(err <= 1e-13), (frac, m, T01, l, err)


def tight_flow(op, t0, nodes):
    """Phi(t; t0) at the ascending nodes after t0, (len(nodes), 4, 4), by
    solve_ivp on the mode equation with the orbit's series potential, at
    tolerance 2.3e-14 with steps capped at 1/64 of the node spacing."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        Y = y.reshape(4, 4)
        out = np.empty_like(Y)
        out[:3] = Y[1:]
        out[3] = op.A * Y[2] - mode_potential(op, t) * Y[0]
        return out.reshape(-1)

    h = nodes[1] - nodes[0]
    sol = solve_ivp(rhs, (t0, nodes[-1]), np.eye(4).reshape(-1),
                    method="DOP853", rtol=2.3e-14, atol=1e-18, t_eval=nodes,
                    max_step=h / 64)
    assert sol.success
    return sol.y.T.reshape(-1, 4, 4)


class TestWindowSolution:
    # the smallest errors, over l = 0..2 and both ends, of a separate
    # per-end DOP853 run from the end point at tolerance 1e-13, steps
    # capped at half the node spacing, against the same reference
    BOUND = {16: 1.6e-13, 64: 1.2e-13}

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_window_matches_tight_reference(self, orbit05, l):
        # each border window's flows from the monodromy run that starts at
        # its first node, at the coarsest grid (the window spans 10/16 of a
        # period) and a fine one; the offsets sample the run without
        # changing it
        from qglue.fd import stencil_size
        from qglue.gluing import STENCIL_ORDER
        from qglue.jacobi import monodromy_data
        cfg = make_config(orbit05, m=2, pert1=((0, 1e-3, 2.0),))
        op = ModeOperator(orbit05, orbit05.constants.lam(l))
        phase = (cfg.m + 0.5) * orbit05.period
        win = stencil_size(3, STENCIL_ORDER)
        for gpp, bound in self.BOUND.items():
            s = build_approximate(cfg, grid_per_period=gpp).s
            for nodes in (s[:win] + phase, s[-win:] + phase):
                t0 = nodes[0]
                data = monodromy_data(op, t0=t0, offsets=nodes - t0)
                bare = monodromy_data(op, t0=t0)
                for name in ("matrix", "backward", "detFactored"):
                    assert (np.asarray(getattr(data, name)).tobytes()
                            == np.asarray(getattr(bare, name)).tobytes())
                assert data.window.shape == (win, 4, 4)
                assert bare.window.shape == (0, 4, 4)
                assert np.array_equal(data.window[0], np.eye(4))
                ref = tight_flow(op, t0, nodes)
                err = max(np.max(np.abs(w - r)) / np.max(np.abs(r))
                          for w, r in zip(data.window, ref))
                assert err <= bound, (gpp, err)


class TestDenseOracle:
    """The banded factors (band LU plus Schur-complement border) against a
    dense LU of the reconstructed matrix: refined residual, condition
    estimate and the diagnostic's per-mode values."""

    @pytest.fixture(scope="class")
    def blends(self, orbit05):
        cfgs = {m: make_config(orbit05, m=m,
                               pert1=((0, 1e-3, 2.0), (1, 5e-4, 1.6)),
                               pert2=((2, 4e-4, 1.8),)) for m in (1, 2, 3, 4)}
        return {m: build_approximate(cfg, grid_per_period=32)
                for m, cfg in cfgs.items()}

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("degrees", [(0, 1), (0, 2), (0, 1, 2)])
    def test_banded_matches_dense(self, blends, degrees, m, monkeypatch):
        import qglue.corrector as corrector
        approx = blends[m]
        sysm = bordered_system(approx, degrees=degrees)
        lu, cond = sysm.factor()
        oracle = DenseLU(sysm.matrix, sysm.row_scale)
        Aeq = oracle.matrix
        n, N, L = len(Aeq), len(approx.s), len(degrees)
        # refined residuals on one seeded interior right-hand side
        rng = np.random.default_rng(m)
        b = np.zeros(n)
        b[:L * N].reshape(N, L)[2:N - 2] = (
            rng.standard_normal((L, N - 4))
            * np.exp(-0.3 * np.abs(approx.s[2:N - 2]))).T
        b /= sysm.row_scale
        x_band = corrector._refined_solve(
            lu.solve, lambda y: sysm.matrix.matvec(y) / sysm.row_scale, b)
        x_dense = corrector._refined_solve(oracle.solve, lambda y: Aeq @ y, b)
        assert (np.linalg.norm(Aeq @ x_band - b)
                <= 10.0 * np.linalg.norm(Aeq @ x_dense - b))
        # each estimate within the bracket of the 1-norm condition its own
        # factors give; the two factorizations agree to rounding times kappa
        inv_band = lu.solve(np.eye(n))
        kappa_band = oracle.norm1 * np.linalg.norm(inv_band, 1)
        kappa1 = np.linalg.cond(Aeq, 1)
        assert kappa_band / 3 <= cond <= kappa_band * (1 + 1e-10)
        assert kappa1 / 3 <= cond
        assert abs(cond / kappa1 - 1.0) <= np.finfo(float).eps * kappa1
        monkeypatch.setattr(corrector, "BandLU", DenseLU)
        dense_sys = dataclasses.replace(sysm)
        dense_cond = dense_sys.factor()[1]
        assert kappa1 / 3 <= dense_cond <= kappa1 * (1 + 1e-10)
        # the diagnostic's Lanczos over either factors
        dense_modes = nondegeneracy_diag(approx, degrees=degrees).perMode
        monkeypatch.undo()
        band_modes = nondegeneracy_diag(approx, degrees=degrees).perMode
        for l in degrees:
            assert band_modes[l] == pytest.approx(dense_modes[l], rel=1e-8)


def weighted_tile(approx, l, delta, delta_prime):
    """Test-local oracle input: mode l's clamped tile of `discretize`,
    conjugated by the diagnostic's weight as W = D_rho^{-1} A D_rho, dense,
    with rho rebuilt from its definition."""
    cfg = approx.config
    s = approx.s
    scale = cfg.m * cfg.period
    neck = (cfg.m + 0.5) * cfg.period
    rho = np.exp(np.where(
        np.abs(s) <= neck, log_annulus_weight(s, delta, scale),
        log_annulus_weight(neck, delta, scale)
        - delta_prime * (np.abs(s) - neck)))
    A = discretize(approx, degrees=(l,)).toarray()
    return A * rho[None, :] / rho[:, None]


class TestLanczosDiagnostic:
    """The diagnostic reports a converged figure or none.  On a long neck
    (n = 5, eps = 0.5, m = 6, tails in modes 0 and 2 at rates near 1.1) the
    top two eigenvalues of mode 2's W^{-T} W^{-1} lie within a few percent,
    where a 200-step power iteration stopped 1e-3 short."""

    @pytest.fixture(scope="class")
    def long_neck(self, orbit05):
        cfg = make_config(orbit05, m=6,
                          pert1=((0, 1.3e-3, 1.135), (2, -1.7e-3, 1.143)),
                          pert2=((0, 1.85e-3, 1.109), (2, 6.3e-4, 1.053)),
                          T01=0.42, T02=0.32)
        return build_approximate(cfg, grid_per_period=64)

    def test_mode2_matches_dense_svd(self, long_neck):
        diag = nondegeneracy_diag(long_neck, degrees=(0, 2))
        W = weighted_tile(long_neck, 2, diag.delta, diag.deltaPrime)
        sigma = np.linalg.svd(W, compute_uv=False)
        # the dense SVD's own error, eps sigma_max / sigma_min, is 4e-10 here
        assert np.finfo(float).eps * sigma[0] / sigma[-1] <= 1e-9
        assert diag.perMode[2] == pytest.approx(sigma[-1], rel=1e-9)

    def test_top_of_a_clustered_spectrum(self):
        import qglue.corrector as corrector
        # the top pair 0.2% apart, the rest decaying geometrically
        n = 300
        lam = np.concatenate([[1.0, 0.998], 0.5 * 0.7 ** np.arange(n - 2)])
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((n, n)))[0]
        B = (Q * lam) @ Q.T
        top = corrector._lanczos_top(lambda z: B @ z, n)
        assert top == pytest.approx(np.linalg.eigvalsh(B)[-1], rel=1e-13)

    @pytest.mark.parametrize("spectrum", ["geometric", "linear", "cluster"])
    def test_growing_basis_is_the_preallocated_one(self, spectrum):
        # 33 to 64 steps (the basis grows twice), the 100-step cap (three
        # times), and no convergence within it: the same figure, bit for
        # bit, after the same applies, or the same error
        import qglue.corrector as corrector
        from conftest import preallocated_lanczos_top
        n = 200
        lam = {"geometric": 0.97 ** np.arange(n),
               "linear": np.linspace(1.0, 0.01, n),
               "cluster": np.concatenate([[1.0, 0.9999],
                                          np.linspace(0.99, 0.01, n - 2)])}
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))[0]
        B = (Q * lam[spectrum]) @ Q.T
        calls = collections.Counter()

        def counted(key):
            def apply(z):
                calls[key] += 1
                return B @ z
            return apply
        try:
            want = preallocated_lanczos_top(counted("preallocated"), n)
        except NumericalError as err:
            with pytest.raises(NumericalError, match=str(err)):
                corrector._lanczos_top(counted("growing"), n)
        else:
            got = corrector._lanczos_top(counted("growing"), n)
            assert same_bits(got, want)
        assert calls["growing"] == calls["preallocated"]
        if spectrum == "geometric":
            assert 32 < calls["growing"] <= 64
        else:
            assert calls["growing"] == corrector.LANCZOS_STEPS

    def test_unconverged_lanczos_raises(self, long_neck, monkeypatch):
        import qglue.corrector as corrector
        monkeypatch.setattr(corrector, "LANCZOS_STEPS", 1)
        with pytest.raises(NumericalError, match="Lanczos"):
            nondegeneracy_diag(long_neck, degrees=(0, 2))

    def test_unconverged_lanczos_exits_3(self, tmp_path, monkeypatch, capsys):
        import json
        import qglue.corrector as corrector
        from qglue.cli import main
        path = tmp_path / "glue.json"
        path.write_text(json.dumps(
            {"n": 5, "eps": 0.5, "m": 2, "end1": {"T0": 0.0, "perturbation": [
                {"l": 0, "A": 1e-3, "beta": 2.0}]}, "end2": {}}))
        monkeypatch.setattr(corrector, "LANCZOS_STEPS", 1)
        assert main(["diagnose", "--config", str(path),
                     "--out", str(tmp_path / "d")]) == 3
        assert "Lanczos did not converge" in capsys.readouterr().err
        assert not (tmp_path / "d" / "summary.json").exists()
