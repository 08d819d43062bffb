"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them on success).

Desk scale throughout: dimension 5; correction/diagnostic runs on 64 points
per period; residual-grade orbit sampling on 128 points per period with
order-10 stencils (the grid/order needed to sit below the stated residual
tolerances, cf. tests/test_gauges.py).  Glued-field residuals are measured
relative to the end fields, which model exact summand solutions;
corrector.verify_correction reads them from the iteration's own final total
defect, and tests/test_corrector.py checks that defect against an
independent recomputation.
"""

import dataclasses

import numpy as np
import pytest

from qglue.gauges import CylField, q_residual
from qglue.delaunay import hamiltonian
from qglue.jacobi import (ModeOperator, mode_apply, monodromy_data,
                          indicial_roots, generators, symplectic_pairing)
from qglue.gluing import build_approximate, decay_study
from qglue.corrector import (bordered_system, solve_right_inverse, remainder,
                             iterate, verify_correction, nondegeneracy_diag)
from conftest import (estimate_g_norm, expansion_error, exponents,
                      make_config, sup_norm)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def basis05(orbit05):
    return generators(orbit05)


def orbit_residual_sup(orbit, grid_per_period=128, acc=10, pad=8):
    h = orbit.period / grid_per_period
    t = np.arange(-pad, grid_per_period + pad + 1) * h
    fld = CylField.mode0(orbit.constants, t, orbit.sample_exact(t))
    return q_residual(fld, acc=acc, trim=pad).supResidual


def test_criterion_1_exact_solution_residuals(consts5, sweep_orbits):
    t = np.linspace(-5, 5, 129)
    const_fld = CylField.mode0(consts5, t, np.full(129, consts5.epsBar))
    r_const = q_residual(const_fld).supResidual

    pad = 8
    h = 10.0 / 192
    tp = np.linspace(-5 - pad * h, 5 + pad * h, 193 + 2 * pad)
    sph = CylField.mode0(consts5, tp,
                         np.cosh(tp) ** ((4 - consts5.n) / 2.0))
    r_sph = q_residual(sph, acc=10, trim=pad).supResidual

    sweep = {o.eps: orbit_residual_sup(o) for o in sweep_orbits}
    ok = (r_const < 1e-8 and r_sph < 1e-8
          and all(v < 1e-7 for v in sweep.values()))
    report(1, ok,
           f"constant residual {r_const:.2e} (<1e-8), spherical profile "
           f"{r_sph:.2e} (<1e-8) on [-5,5], sweep "
           + ", ".join(f"eps={e:.4g}: {v:.2e}" for e, v in sweep.items())
           + " (<1e-7)")


def test_criterion_2_conservation(sweep_orbits, orbit05, basis05):
    drifts = {}
    for orbit in sweep_orbits:
        ts = np.linspace(0.0, orbit.period, 129)
        H = np.array([hamiltonian(orbit.jet(tv), orbit.constants)
                      for tv in ts])
        drifts[orbit.eps] = float(np.max(np.abs(H - H[0]))
                                  / max(abs(H[0]), 1e-300))
    op0 = ModeOperator(orbit05, 0.0)
    ts = np.linspace(0.0, orbit05.period, 41)
    pair_drifts = []
    for a, b, op in [
            ((0, "-"), (0, "+"), op0),
            ((1, "+"), (1, "-"),
             ModeOperator(orbit05, orbit05.constants.lam(1)))]:
        vals = symplectic_pairing(op, basis05.jet(a[0], a[1], ts),
                                  basis05.jet(b[0], b[1], ts))
        pair_drifts.append(float(np.max(np.abs(vals - vals[0]))))
    ok = (all(d < 1e-8 for d in drifts.values())
          and all(d < 1e-7 for d in pair_drifts))
    report(2, ok,
           "energy drift per period "
           + ", ".join(f"{e:.4g}: {d:.2e}" for e, d in drifts.items())
           + f" (<1e-8); pairing variation {pair_drifts[0]:.2e}, "
           f"{pair_drifts[1]:.2e} (<1e-7)")


def test_criterion_3_indicial_identities(orbit_cache, consts5):
    ok = True
    details = []
    for eps in (0.3, 0.5, 0.7):
        exps = exponents(indicial_roots(orbit_cache(eps), [1]), 1)
        err = max(abs(exps[1] + 1.0), abs(exps[2] - 1.0))
        details.append(f"eps={eps}: |mode-1 exponents -+1| = {err:.2e}")
        ok = ok and err < 1e-6
    orb = orbit_cache(consts5.epsBar)
    T = orb.period
    # Floquet route over the constant orbit vs the closed-form quartets
    for lam, expect_big, expect_small in ((0.0, 2.8376651, None),
                                          (4.0, 3.6742346, 1.0)):
        mu = np.sort(np.abs(np.linalg.eigvals(
            monodromy_data(ModeOperator(orb, lam)).matrix)))[::-1]
        e1 = abs(np.log(mu[0]) / T - expect_big)
        ok = ok and e1 < 1e-6
        details.append(f"epsBar lam={lam:g}: |gamma - {expect_big}| = {e1:.2e}")
        if expect_small is not None:
            e2 = abs(np.log(mu[1]) / T - expect_small)
            ok = ok and e2 < 1e-6
            details.append(f"epsBar lam={lam:g}: |gamma2 - 1| = {e2:.2e}")
    spec = indicial_roots(orb, [0, 1])
    closed = {0: [-2.8376651, 0.0, 0.0, 2.8376651],
              1: [-3.6742346, -1.0, 1.0, 3.6742346]}
    for l, expect in closed.items():
        err = float(np.max(np.abs(np.array(exponents(spec, l)) - expect)))
        ok = ok and err < 1e-6
        details.append(f"epsBar mode {l} vs quartic: {err:.2e}")
    report(3, ok, "; ".join(details) + " (all <1e-6)")


def test_criterion_4_generators(orbit05, basis05):
    T = orbit05.period
    h = T / 128
    t = h * np.arange(-8, 128 + 9)
    worst = 0.0
    for l in (0, 1):
        op = ModeOperator(orbit05, orbit05.constants.lam(l))
        for sign in ("+", "-"):
            w = basis05.profile(l, sign, t)
            r = mode_apply(op, t, w, acc=10)
            scale = max(1.0, np.max(np.abs(w[8:-8])))
            worst = max(worst, np.max(np.abs(r[8:-8])) / scale)
    rate_p = basis05.measured_rate(1, "+")
    rate_m = basis05.measured_rate(1, "-")
    ts = np.linspace(0, T, 40)
    per = float(np.max(np.abs(basis05.profile(0, "+", ts + T)
                              - basis05.profile(0, "+", ts))))
    ok = (worst < 1e-6 and abs(rate_p + 1) < 0.01 and abs(rate_m - 1) < 0.01
          and per < 1e-7)
    report(4, ok,
           f"worst generator residual {worst:.2e} (<1e-6) over all "
           f"degrees 0 and 1; translation rates {rate_p:+.4f}/"
           f"{rate_m:+.4f} (-+1 within 0.01); phase field periodicity "
           f"{per:.2e} (<1e-7)")


def test_criterion_5_defect_decay(orbit05):
    details = []
    ok = True
    for beta in (1.5, 2.0):
        cfg = make_config(orbit05, m=1, pert1=((0, 1e-3, beta),),
                          pert2=((0, 5e-4, beta),))
        st = decay_study(cfg, [1, 2, 3, 4, 5], grid_per_period=64)
        good = st.betaHat is not None and abs(st.betaHat - beta) < 0.1 \
            and st.betaHat > 1.0
        ok = ok and good
        details.append(f"beta={beta}: betaHat={st.betaHat:.4f}")
    report(5, ok, "; ".join(details) + " (|betaHat-beta|<0.1, betaHat>1)")


def test_criterion_6_right_inverse(reference_config):
    approx = build_approximate(reference_config, grid_per_period=64)
    sys_ = bordered_system(approx, degrees=(0,))
    s = approx.s
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        co = rng.standard_normal(8)
        prof = np.exp(-0.3 * np.abs(s)) * sum(
            co[k] * np.cos((k + 1) * 0.37 * s + co[7 - k]) for k in range(4))
        f = CylField.mode0(reference_config.constants, s, prof)
        worst = max(worst, solve_right_inverse(sys_, f).relResidual)
    norms = []
    for m in (2, 3, 4):
        cfg = dataclasses.replace(reference_config, m=m)
        ap = build_approximate(cfg, grid_per_period=64)
        norms.append(estimate_g_norm(ap, degrees=(0,)))
    norms = np.array(norms)
    variation = float((norms.max() - norms.min()) / norms.min())
    ok = worst < 1e-8 and variation < 0.25
    report(6, ok,
           f"|L(Gf)-f|/|f| = {worst:.2e} (<1e-8); right-inverse norm across "
           f"m=2,3,4: {np.array2string(norms, precision=4)} "
           f"variation {variation:.1%} (<25%)")


def test_criterion_7_contraction_and_fixed_point(reference_approx):
    out = iterate(reference_approx, scheme="picard", degrees=(0,),
                  min_iter=2)
    ratios = [r[3] for r in out.trace.rows if np.isfinite(r[3])]
    res_sup, psi_sup = verify_correction(out)
    reduction = out.initialDefect / max(out.finalDefect, 1e-300)
    ok = (out.converged and ratios and max(ratios) < 0.5
          and psi_sup < 1e-8 and reduction >= 1e3)
    report(7, ok,
           f"picard ratios max {max(ratios):.2e} (<0.5); final curvature "
           f"deviation {psi_sup:.2e} (<1e-8, relative to modeled-exact "
           f"ends); defect reduced {reduction:.1e}x (>=1e3x)")


def test_criterion_8_quadratic_remainder(reference_approx):
    s = reference_approx.s
    v = CylField.mode0(reference_approx.config.constants, s,
                       0.01 * np.cos(0.7 * s) * np.exp(-0.1 * np.abs(s)))
    scales = np.array([1e-2, 1e-3, 1e-4])
    norms = np.array([sup_norm(remainder(reference_approx, v * sc))
                      for sc in scales])
    slope = float(np.polyfit(np.log(scales), np.log(norms), 1)[0])
    ok = abs(slope - 2.0) < 0.05
    report(8, ok, f"measured remainder order {slope:.4f} (2 +- 0.05)")


def test_criterion_9_nondegeneracy_diagnostic(reference_config):
    vals = {}
    for gpp in (64, 128):
        ap = build_approximate(reference_config, grid_per_period=gpp)
        out = iterate(ap, degrees=(0,))
        vals[gpp] = nondegeneracy_diag(ap, out.correction, delta=1.5,
                                       degrees=(0,)).sigmaMin
    change = abs(vals[128] - vals[64]) / vals[64]
    ok = vals[64] > 0 and vals[128] > 0 and change < 0.2
    report(9, ok,
           f"sigmaMin = {vals[64]:.4e} at 64/period (recorded; no reference "
           f"value exists), {change:.1%} change under grid doubling (<20%)")


def test_criterion_10_expansion_order(basis05):
    amag = 0.02
    ts = np.linspace(2, 8, 40)
    ratio = (expansion_error(basis05, amag, ts).max()
             / expansion_error(basis05, amag / 2, ts).max())
    ts = np.linspace(2, 8, 61)
    slope = float(np.polyfit(
        ts, np.log(expansion_error(basis05, amag, ts)), 1)[0])
    ok = abs(ratio - 4.0) < 0.4 and abs(slope + 2.0) < 0.1
    report(10, ok,
           f"halving |a| changes the first-order defect by {ratio:.3f}x "
           f"(4 +- 0.4); decay slope in t: {slope:.4f} (-2 +- 0.1)")
