import dataclasses
import gc
import weakref

import numpy as np
import pytest

from qglue import gluing
from qglue.corrector import bordered_system
from qglue.errors import DomainError
from qglue.fd import stencil_size
from qglue.gauges import CylField
from qglue.cli import HANDLERS
from qglue.gluing import (STENCIL_ORDER, EndData, GluingConfig, Perturbation,
                          smooth_step, cutoff_chi, build_approximate, defect,
                          weighted_norm, decay_study, stable_power_remainder)
from conftest import make_config, whole_grid_defect

HALF = stencil_size(4, STENCIL_ORDER) // 2
# tails in degrees 0, 1 and 2 at both ends
TAILS1 = ((0, 1e-3, 2.0), (1, -7e-4, 1.6), (2, 5e-4, 1.3))
TAILS2 = ((0, -8e-4, 1.8), (1, 6e-4, 2.2), (2, -4e-4, 1.1))


class TestCutoff:
    def test_plateaus_exact_and_midpoint(self, reference_config):
        cfg = reference_config
        T = cfg.period
        lo = cfg.end1.T0 + (cfg.m + 0.25) * T
        hi = cfg.end1.T0 + (cfg.m + 0.75) * T
        assert cutoff_chi(lo - 0.3, cfg) == 1.0
        assert cutoff_chi(0.0, cfg) == 1.0
        assert cutoff_chi(hi + 0.3, cfg) == 0.0
        assert cutoff_chi(0.5 * (lo + hi), cfg) == pytest.approx(0.5,
                                                                 abs=1e-14)
        ts = np.linspace(lo - 1, hi + 1, 301)
        assert np.all(np.diff(cutoff_chi(ts, cfg)) <= 1e-15)

    def test_smooth_step(self):
        x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        vals = smooth_step(x)
        assert vals[0] == 1.0 and vals[1] == 1.0
        assert vals[2] == pytest.approx(0.5, abs=1e-15)
        assert vals[3] == 0.0 and vals[4] == 0.0
        xs = np.linspace(-0.5, 1.5, 101)
        assert np.all(np.diff(smooth_step(xs)) <= 1e-15)


class TestEndData:
    def test_slow_rates_rejected(self):
        with pytest.raises(DomainError):
            EndData(perturbation=(Perturbation(0, 1e-3, 0.9),))

    def test_config_from_json(self, orbit05):
        doc = {"n": 5, "eps": 0.5, "m": 2,
               "end1": {"T0": 0.0,
                        "perturbation": [{"l": 0, "A": 1e-3, "beta": 2.0}]},
               "end2": {}}
        cfg = GluingConfig.from_json(doc)
        assert cfg.m == 2
        assert cfg.end1.perturbation[0].beta == 2.0
        assert cfg.orbit.eps == pytest.approx(0.5)


class TestBuild:
    def test_compatible_ends_reduce_to_orbit(self, orbit05):
        cfg = make_config(orbit05, m=2)
        ap = build_approximate(cfg, grid_per_period=48)
        np.testing.assert_array_equal(ap.field.mode(0), ap.backbone)
        d = defect(ap)
        assert d.supPsi == 0.0
        assert d.supOutsideBand == 0.0

    def test_plateau_equality_is_bitwise(self, reference_approx):
        ap = reference_approx
        chi = ap.cutoffRecord
        v1 = ap.backbone + ap.w1.mode(0)  # the end-1 field in mode 0
        on = chi == 1.0
        assert on.sum() > 10
        np.testing.assert_array_equal(ap.field.mode(0)[on], v1[on])
        off = chi == 0.0
        v2 = ap.backbone  # end 2 unperturbed here
        np.testing.assert_array_equal(ap.field.mode(0)[off],
                                      v2[off])

    def test_deviation_bounded_by_injected_tail(self, orbit05):
        A, beta = 1e-3, 2.0
        cfg = make_config(orbit05, m=2, pert1=((0, A, beta),))
        ap = build_approximate(cfg, grid_per_period=48)
        dev = np.abs(ap.field.mode(0) - ap.backbone)
        t_depth = ap.s - cfg.sMin
        bound = A * np.exp(-beta * t_depth)
        # the subtraction (backbone + w) - backbone rounds at machine level
        assert np.all(dev <= bound * (1 + 1e-10) + 1e-16)
        band = ap.cutoffRecord * (1 - ap.cutoffRecord) > 0
        assert dev[band].max() <= A * np.exp(
            -beta * (cfg.end1.T0 + cfg.m * cfg.period))

    def test_positivity_sweep(self, orbit05):
        for A in (1e-2, -1e-2, 5e-3):
            cfg = make_config(orbit05, m=1, pert1=((0, A, 1.5),),
                              pert2=((0, -A / 2, 2.5),))
            ap = build_approximate(cfg, grid_per_period=32)
            assert np.all(ap.field.point_values() > 0)

    def test_positivity_enforced(self, orbit05):
        cfg = make_config(orbit05, m=1, pert1=((0, -2.0, 1.1),))
        with pytest.raises(DomainError):
            build_approximate(cfg, grid_per_period=32)

    def test_multimode_blend(self, orbit05):
        cfg = make_config(orbit05, m=1, pert1=((1, 1e-3, 2.0),),
                          pert2=((2, 5e-4, 1.5),))
        ap = build_approximate(cfg, grid_per_period=32)
        assert ap.field.degrees == (0, 1, 2)
        d = defect(ap)
        assert d.supPsi > 0
        assert d.supOutsideBand < 1e-10 * max(d.supPsi, 1.0)


class TestDefect:
    def test_support_in_transition_band(self, reference_approx):
        d = defect(reference_approx)
        assert d.supOutsideBand < 1e-10
        assert d.supOutsideBand < 1e-2 * d.supPsi

    def test_scale_tracks_overlap_length(self, reference_config):
        # supPsi ~ A e^{-beta m T}: consecutive ratios near e^{-beta T}
        cfg = reference_config
        sups = []
        for m in (1, 2, 3, 4):
            ap = build_approximate(dataclasses.replace(cfg, m=m),
                                   grid_per_period=48)
            sups.append(defect(ap).supPsi)
        ratios = np.array(sups[1:]) / np.array(sups[:-1])
        expect = np.exp(-2.0 * cfg.period)
        assert np.all(ratios / expect > 1 / 3) and np.all(ratios / expect < 3)

    def test_residual_and_psi_are_consistent(self, reference_approx):
        # psi = (2/(n-4)) v^{-p} residual pointwise
        d = defect(reference_approx)
        consts = reference_approx.config.constants
        vm = reference_approx.field.point_values()
        r = d.residual.point_values()
        psi = d.psi.point_values()
        np.testing.assert_allclose(
            psi, (2.0 / (consts.n - 4)) * vm ** (-consts.p) * r,
            rtol=5e-7, atol=1e-30)


def assert_is_the_whole_grid(ap, delta=1.5):
    """The defect equals the whole-grid reference bit for bit, signed zeros
    included, and the reference reads +0.0 on every row the window skips."""
    got, ref = defect(ap, delta), whole_grid_defect(ap, delta)
    for name in ("psi", "residual"):
        a, b = getattr(got, name).coeffs, getattr(ref, name).coeffs
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
    for name in ("supPsi", "weightedPsi", "supResidual", "supOutsideBand",
                 "delta"):
        assert getattr(got, name) == getattr(ref, name), name
    kept, _ = gluing._window(ap.cutoffRecord)
    skipped = np.ones(len(ap.s), dtype=bool)
    skipped[kept] = False
    for f in (ref.psi, ref.residual):
        off = f.coeffs[:, skipped]
        assert not np.any(off) and not np.any(np.signbit(off))


class TestDefectWindow:
    """defect evaluates the cutoff ramp widened by two stencil half-widths
    and leaves the exact zeros elsewhere."""

    # (end-1 tails, end-2 tails, T0s as fractions of T): blends over the
    # degrees {0}, {0, 1}, {0, 2} and {0, 1, 2}, T0 spread over [0, T)
    CASES = [((), (), (0.0, 0.0)),
             ((), (), (0.45, 0.8)),
             (TAILS1[:1], TAILS2[:1], (0.0, 0.5)),
             (TAILS1[1:2], TAILS2[:1], (0.25, 0.75)),
             (TAILS1[2:], TAILS2[2:], (0.6, 0.1)),
             (TAILS1, TAILS2, (0.95, 0.35))]

    @pytest.mark.parametrize("n, eps", [(5, 0.5), (6, 0.4), (9, 0.3)])
    def test_equals_the_whole_grid(self, orbit_cache, n, eps):
        # the CASES, then three with mode-0 tails of drawn amplitude and
        # rate at both ends and T0s drawn in [0, T).  A window one
        # half-width narrower fails on the drawn ones: its last rows are
        # nonzero, and the matrix products of reconstruct and project round
        # the tail rows of a block in other last digits
        orbit = orbit_cache(eps, n=n)
        T = orbit.period
        rng = np.random.default_rng(n)
        for gpp in (16, 48, 64):
            for m in (1, 2, 6):
                drawn = []
                for _ in range(3):
                    pert1, pert2 = (((0, rng.uniform(-2e-3, 2e-3),
                                      rng.uniform(1.05, 2.5)),)
                                    for _ in range(2))
                    drawn.append((pert1, pert2, rng.uniform(0.0, 1.0, 2)))
                for pert1, pert2, (f1, f2) in self.CASES + drawn:
                    assert_is_the_whole_grid(build_approximate(make_config(
                        orbit, m=m, pert1=pert1, pert2=pert2, T01=f1 * T,
                        T02=f2 * T), grid_per_period=gpp))

    @pytest.mark.parametrize("gpp, f1, f2", [
        (16, 0.01, 0.0), (16, 0.07, 0.0), (16, 0.52, 0.01),
        (8, 0.0, 0.0), (8, 0.5, 0.2)])
    def test_read_rows_clipped_at_a_domain_end(self, orbit05, gpp, f1, f2):
        # at 16 points per period and m = 1, with end 2's T0 near 0, the
        # read rows reach the last one; at 8 (below what the manifests
        # accept) the operator's reach is clipped at both ends
        T = orbit05.period
        ap = build_approximate(make_config(
            orbit05, m=1, pert1=TAILS1, pert2=TAILS2, T01=f1 * T,
            T02=f2 * T), grid_per_period=gpp)
        kept, read = gluing._window(ap.cutoffRecord)
        assert read.stop == len(ap.s)
        if gpp == 8:
            assert read.start == 0 and kept.start < 2 * HALF
            assert kept.stop + 2 * HALF > len(ap.s)
        assert_is_the_whole_grid(ap)

    @pytest.mark.parametrize("gpp, m, f", [(1, 12, 0.0), (1, 20, 0.0),
                                           (2, 8, 0.25)])
    def test_no_row_inside_the_ramp(self, orbit05, gpp, m, f):
        # chi jumps from 1 to 0 between two rows: the window is centred on
        # the jump
        T = orbit05.period
        ap = build_approximate(make_config(
            orbit05, m=m, pert1=TAILS1, pert2=TAILS2, T01=f * T, T02=f * T),
            grid_per_period=gpp)
        chi = ap.cutoffRecord
        assert not np.any((chi > 0) & (chi < 1))
        kept, _ = gluing._window(chi)
        jump = int(np.flatnonzero(np.diff(chi))[0])
        assert kept.start == max(jump + 1 - 2 * HALF, 0)
        assert kept.stop == min(jump + 1 + 2 * HALF, len(chi))
        assert_is_the_whole_grid(ap)

    def test_smallest_grid_of_the_manifests(self, orbit05):
        # 16 points per period, m = 1, no phase
        ap = build_approximate(make_config(orbit05, m=1, pert1=TAILS1,
                                           pert2=TAILS2),
                               grid_per_period=16)
        assert len(ap.s) == 49
        assert_is_the_whole_grid(ap)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_the_strip_outside_the_band_shows_leakage(self, reference_approx,
                                                      side):
        ap = reference_approx
        cfg = ap.config
        kept, _ = gluing._window(ap.cutoffRecord)
        depth = ap.s[kept] - cfg.sMin
        lo, hi = gluing._blend_band(cfg)
        margin = HALF * ap.field.h
        strip = kept.start + np.flatnonzero(
            depth < lo - margin if side == "below" else depth > hi + margin)
        assert 3 <= len(strip) <= HALF + 1
        assert defect(ap).supOutsideBand == 0.0
        for row in strip:
            coeffs = ap.blend.coeffs.copy()
            coeffs[0, row] += 1e-9
            bumped = dataclasses.replace(
                ap, blend=dataclasses.replace(ap.blend, coeffs=coeffs))
            assert defect(bumped).supOutsideBand > 0


class TestStablePower:
    def test_matches_direct_for_moderate_x(self):
        x = np.array([0.3, -0.2, 0.05, 0.9])
        p = 9.0
        direct = (1 + x) ** p - 1 - p * x
        np.testing.assert_allclose(stable_power_remainder(x, p), direct,
                                   rtol=1e-12)

    def test_keeps_relative_accuracy_for_tiny_x(self):
        x = np.array([1e-9, -1e-12, 1e-15])
        p = 9.0
        expect = p * (p - 1) / 2 * x ** 2  # leading term
        got = stable_power_remainder(x, p)
        np.testing.assert_allclose(got, expect, rtol=1e-5)


class TestNorms:
    def test_constant_field_delta_zero(self, consts5):
        t = np.linspace(-3, 3, 61)
        fld = CylField.mode0(consts5, t, np.ones(61))
        assert weighted_norm(fld, 0.0, scale=10.0) == pytest.approx(1.0)

    def test_weight_cancellation(self, consts5):
        t = np.linspace(-9, 9, 121)
        delta, scale = 1.5, 7.0
        prof = (np.cosh(t) / np.cosh(scale)) ** delta
        fld = CylField.mode0(consts5, t, prof)
        assert weighted_norm(fld, delta, scale) == pytest.approx(1.0,
                                                                 rel=1e-10)

    def test_weighted_defect_decreases_in_m(self, reference_config):
        vals = []
        for m in (1, 2, 3):
            ap = build_approximate(
                dataclasses.replace(reference_config, m=m),
                grid_per_period=48)
            vals.append(defect(ap, delta=1.5).weightedPsi)
        assert vals[0] > vals[1] > vals[2] > 0


class TestDecayStudy:
    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_recovers_injected_rate(self, orbit05, beta):
        cfg = make_config(orbit05, m=1, pert1=((0, 1e-3, beta),),
                          pert2=((0, 5e-4, beta),))
        st = decay_study(cfg, [1, 2, 3, 4, 5], grid_per_period=48)
        assert not st.exact
        assert st.betaHat == pytest.approx(beta, abs=0.1)
        assert st.betaHat > 1.0

    def test_mixed_rates_fit_the_slowest(self, orbit05):
        cfg = make_config(orbit05, m=1, pert1=((0, 1e-3, 1.6),),
                          pert2=((0, 1e-3, 2.4),))
        st = decay_study(cfg, [1, 2, 3, 4], grid_per_period=48)
        assert st.betaHat == pytest.approx(1.6, abs=0.1)

    def test_exact_ends_report_exact(self, orbit05):
        cfg = make_config(orbit05, m=1)
        st = decay_study(cfg, [1, 2, 3], grid_per_period=32)
        assert st.exact and st.betaHat is None

    @pytest.mark.parametrize("m, evaluations", [(2, 3), (5, 4)])
    def test_glue_evaluates_each_overlap_once(self, cold_memo, monkeypatch,
                                              m, evaluations):
        # the study takes cfg.m first, a hit on the command's own defect
        seen = []
        original = gluing._defect

        def counting(approx, delta):
            seen.append(approx.config.m)
            return original(approx, delta)

        monkeypatch.setattr(gluing, "_defect", counting)
        config = {"n": 5, "eps": 0.5, "m": m,
                  "end1": {"perturbation": [{"l": 0, "A": 1e-3,
                                             "beta": 2.0}]}}
        HANDLERS["glue"]({"config": config, "gridPerPeriod": 32,
                          "mList": [1, 2, 3]})
        assert len(seen) == evaluations
        assert sorted(set(seen)) == sorted({1, 2, 3, m})

    def test_too_few_points_rejected(self, reference_config):
        # repeated lengths count once, and none may be weighted twice
        for m_list in ([1, 2], [2, 2, 2], [2, 2, 3], [1, 2, 3, 3]):
            with pytest.raises(DomainError):
                decay_study(reference_config, m_list, grid_per_period=32)


class TestBlendMemo:
    """build_approximate keeps the last blend of the process, with the
    defects and bordered systems computed on it."""

    @pytest.fixture
    def cfg(self, orbit05):
        return make_config(orbit05, m=1,
                           pert1=((0, 1e-3, 2.0), (1, 1e-3, 2.0)),
                           pert2=((0, -1e-3, 1.8),), T01=0.2, T02=0.1)

    def test_a_hit_is_the_same_object(self, cold_memo, cfg):
        ap = build_approximate(cfg, grid_per_period=32)
        d, sys = defect(ap), bordered_system(ap, degrees=(1, 0))
        # equal inputs, not the same objects
        same = dataclasses.replace(cfg, end1=dataclasses.replace(cfg.end1))
        assert build_approximate(same, grid_per_period=32) is ap
        assert defect(ap) is d and defect(ap, delta=1.5) is d
        assert bordered_system(ap, degrees=[0, 1, 1]) is sys
        assert sys.factor()[0] is bordered_system(ap, (0, 1)).factor()[0]
        assert defect(ap, delta=2.0) is not d
        assert bordered_system(ap, degrees=(0,)) is not sys

    @pytest.mark.parametrize("change", [
        "T0", "signed zero", "amplitude", "rate", "degree", "m",
        "gridPerPeriod", "orbit"])
    def test_a_changed_input_is_a_miss(self, cold_memo, cfg, change):
        r = dataclasses.replace
        if change == "signed zero":
            cfg = r(cfg, end2=EndData(T0=0.0))
        pert = cfg.end1.perturbation

        def tail(**changes):
            return r(cfg, end1=r(cfg.end1, perturbation=(
                r(pert[0], **changes),) + pert[1:]))

        other, gpp = {
            "T0": (r(cfg, end1=r(cfg.end1, T0=0.3)), 32),
            # equal to cfg, as -0.0 == 0.0
            "signed zero": (r(cfg, end2=EndData(T0=-0.0)), 32),
            "amplitude": (tail(A=2e-3), 32),
            "rate": (tail(beta=2.1), 32),
            "degree": (tail(l=2), 32),
            "m": (r(cfg, m=2), 32),
            "gridPerPeriod": (cfg, 48),
            "orbit": (r(cfg, orbit=r(cfg.orbit)), 32),
        }[change]
        ap = build_approximate(cfg, grid_per_period=32)
        new = build_approximate(other, grid_per_period=gpp)
        assert new is not ap and gluing._LAST[1] is new

    def test_an_evicted_blend_is_freed_at_once(self, cold_memo, cfg):
        # no reference cycle holds the old blend, its defect, its system or
        # its factors: with the cycle collector off they go at eviction
        gc.disable()
        try:
            ap = build_approximate(cfg, grid_per_period=32)
            sys = bordered_system(ap, degrees=(0, 1))
            lu, _ = sys.factor()
            refs = [weakref.ref(x) for x in (ap, defect(ap), sys, lu)]
            del ap, sys, lu
            assert all(r() is not None for r in refs)
            build_approximate(dataclasses.replace(cfg, m=2),
                              grid_per_period=32)
            assert [r() for r in refs] == [None] * 4
        finally:
            gc.enable()

    def test_kept_arrays_are_read_only(self, cold_memo, cfg):
        ap = build_approximate(cfg, grid_per_period=32)
        d = defect(ap)
        sys = bordered_system(ap, degrees=(0, 1))
        lu, _ = sys.factor()
        arrays = [ap.cutoffRecord, ap.backbone, ap.s]
        arrays += [f.coeffs for f in (ap.field, ap.w1, ap.w2, ap.blend,
                                      d.psi, d.residual)]
        arrays += [getattr(sys.matrix, name)
                   for name in ("band", "cols", "rows", "live")]
        arrays += [sys.row_scale, sys.operator.band]
        arrays += [lu.lu, lu.piv, lu.cols, lu.rows, lu.colsolve, lu.rowsolve,
                   *lu.schur]
        for array in arrays:
            assert array.size
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0
