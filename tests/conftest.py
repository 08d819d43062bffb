import contextlib
import dataclasses
import os

import numpy as np
import pytest

from qglue import delaunay, derive_constants, gluing, solve_orbit
from qglue.corrector import bordered_system, solve_right_inverse
from qglue.errors import DomainError
from qglue.fd import stencil_size
from qglue.gauges import CylField, paneitz_mode_apply
from qglue.gluing import (STENCIL_ORDER, DefectResult, EndData, GluingConfig,
                          Perturbation, build_approximate,
                          stable_power_remainder, weighted_norm)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Let the `python -m qglue.cli` subprocesses of the CLI tests import
    this checkout's package when it is not installed; pyproject.toml puts
    src on the path of the test process only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        yield


@contextlib.contextmanager
def cold_orbits():
    """solve_orbit and build_approximate from empty memos, as in a new
    process: every orbit is solved again, with no mode flows on it, and
    every blend built again, with no defect or system kept on it.  The
    process's memos are back afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delaunay, "_ORBITS", {})
        mp.setattr(gluing, "_LAST", [])
        yield


@pytest.fixture
def cold_memo():
    """The test runs under cold_orbits."""
    with cold_orbits():
        yield


@pytest.fixture(scope="session")
def consts5():
    return derive_constants(5)


@pytest.fixture(scope="session")
def orbit_cache():
    cache = {}

    def get(eps, n=5):
        key = (n, round(float(eps), 12))
        if key not in cache:
            cache[key] = solve_orbit(n, eps)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def orbit05(orbit_cache):
    return orbit_cache(0.5)


@pytest.fixture(scope="session")
def sweep_orbits(orbit_cache, consts5):
    return [orbit_cache(e) for e in (0.3, 0.5, 0.7, consts5.epsBar)]


def mode_potential(op, t):
    """Zeroth-order coefficient lam^2 + B - K v^{p-1}(t) of the mode
    operator op, for reference right-hand sides of its flow.  v is the
    direct sum eps + sum_k a_k (cos(k omega t) - 1) of the orbit's
    coefficients, independent of the jets under test and cheap at one
    point."""
    c = op.constants
    orbit = op.orbit
    kw = np.arange(1, len(orbit.coeffs) + 1) * orbit.omega
    v = orbit.eps + (np.cos(np.multiply.outer(t, kw)) - 1.0) @ orbit.coeffs
    return op.lam ** 2 + c.mode_coefficients(op.lam)[1] - c.K * v ** (c.p - 1)


def sup_norm(field):
    """Pointwise sup of a CylField over its t grid and the angular
    quadrature set."""
    return float(np.max(np.abs(field.point_values())))


def exponents(spec, l):
    """The Floquet exponents of degree l in an IndicialSpectrum."""
    (entry,) = [e for e in spec.perMode if e["l"] == l]
    return entry["exponents"]


def estimate_g_norm(approx, degrees=(0,)):
    """Operator-norm estimate of the right inverse from seeded smooth probe
    data, both norms weighted with the annulus weight at rate 1.5.

    Probe bumps sit at fixed distances from the domain ends (plus one at the
    neck middle) so the probe family is geometrically comparable across
    overlap lengths; three seeded draws of phase and frequency each.  The
    estimate is a lower bound on the true norm, which is what the
    stability-in-m comparison needs.
    """
    sys = bordered_system(approx, degrees=degrees)
    s = approx.s
    cfg = approx.config
    T = cfg.period
    scale = cfg.m * cfg.period
    rng = np.random.default_rng(1234)
    anchors = [s[0] + 0.7 * T, s[0] + 1.5 * T, 0.0,
               s[-1] - 1.5 * T, s[-1] - 0.7 * T]
    best = 0.0
    # one localized bump per solve, with the oscillation phased relative to
    # the anchor: each bump then sees the same local problem at every m
    # (the backbone phase at a fixed end offset, and at s = 0, is
    # m-independent), so ratios are comparable across overlap lengths
    for _ in range(3):
        phase = rng.uniform(0.0, 2 * np.pi)
        freq = rng.uniform(0.5, 1.2)
        for a in anchors:
            prof = (np.exp(-((s - a) / (0.5 * T)) ** 2)
                    * np.cos(freq * (s - a) + phase))
            f = CylField.from_modes(cfg.constants, s,
                                    {l: prof for l in sys.degrees})
            res = solve_right_inverse(sys, f)
            nf = weighted_norm(f, 1.5, scale)
            nu = weighted_norm(res.u, 1.5, scale) + sum(
                abs(v) for v in res.alpha.values())
            best = max(best, nu / nf)
    return best


def whole_grid_defect(approx, delta=1.5):
    """gluing.defect evaluated on every row of the grid, as it was before
    the defect was restricted to the cutoff ramp: the reference the window
    must equal bit for bit, and the source of the fact it rests on, that
    every row away from the ramp is an exact +0.0."""
    cfg = approx.config
    consts = cfg.constants
    s = approx.s
    h = approx.field.h
    chi = approx.cutoffRecord
    vB = approx.backbone
    pieces = (approx.blend, approx.w1, approx.w2)

    commutator = np.empty_like(approx.blend.coeffs)
    for k, l in enumerate(approx.field.degrees):
        Lw, La, Lb = paneitz_mode_apply(
            consts, consts.lam(l), np.stack([w.coeffs[k] for w in pieces], 1),
            h, acc=STENCIL_ORDER).T
        commutator[k] = Lw - chi * La - (1.0 - chi) * Lb

    basis = approx.field.basis()
    Wp, w1p, w2p = (basis.reconstruct(w.coeffs) for w in pieces)
    vBcol = vB[:, None]
    rW = stable_power_remainder(Wp / vBcol, consts.p)
    r1 = stable_power_remainder(w1p / vBcol, consts.p)
    r2 = stable_power_remainder(w2p / vBcol, consts.p)
    chic = chi[:, None]
    nonlinear = -consts.cN * vBcol ** consts.p * (rW - chic * r1
                                                  - (1.0 - chic) * r2)

    res_point = basis.reconstruct(commutator) + nonlinear
    vm_point = approx.field.point_values()
    if np.any(vm_point <= 0):
        raise DomainError("blended conformal factor is not positive")
    psi_point = (2.0 / (consts.n - 4)) * vm_point ** (-consts.p) * res_point

    residual = dataclasses.replace(approx.field,
                                   coeffs=basis.project(res_point))
    psi = dataclasses.replace(approx.field, coeffs=basis.project(psi_point))

    t_depth = s - cfg.sMin
    lo, hi = [cfg.end1.T0 + (cfg.m + f) * cfg.period for f in (0.25, 0.75)]
    margin = (stencil_size(4, STENCIL_ORDER) // 2) * h
    band = (t_depth >= lo - margin) & (t_depth <= hi + margin)
    outside = float(np.max(np.abs(psi_point[~band]))) if (~band).any() else 0.0
    return DefectResult(
        psi=psi, residual=residual,
        supPsi=float(np.max(np.abs(psi_point))),
        weightedPsi=weighted_norm(psi, delta, scale=cfg.m * cfg.period),
        supResidual=float(np.max(np.abs(res_point))),
        supOutsideBand=outside, delta=delta)


def expansion_error(basis, amag, ts):
    """Deviation of the translated family from its first-order expansion at
    the points ts: per t, the max over directions of
    |v_{eps,a}(t, theta) - v_eps(t) - <theta, a> w(t)|, with |a| = amag and
    w = e^{-t}((n-4)/2 v_eps - v'_eps) the decaying degree-1 generator.
    Fields depend on theta only through c = <theta, a/|a|>, so directions
    are sampled as 9 cosine values from -1 to 1."""
    orbit = basis.orbit
    n = orbit.constants.n
    v0 = orbit.eval(ts, 0)
    w = basis.profile(1, "+", ts)
    per_t = np.zeros(len(ts))
    for c in np.linspace(-1.0, 1.0, 9):
        rho = np.sqrt(1.0 - 2.0 * np.exp(-ts) * c * amag
                      + np.exp(-2.0 * ts) * amag ** 2)
        full = rho ** ((4 - n) / 2.0) * orbit.eval(ts + np.log(rho), 0)
        per_t = np.maximum(per_t, np.abs(full - (v0 + c * amag * w)))
    return per_t


def make_config(orbit, m=2, pert1=(), pert2=(), T01=0.0, T02=0.0):
    return GluingConfig(
        EndData(T0=T01, perturbation=tuple(Perturbation(*p) for p in pert1)),
        EndData(T0=T02, perturbation=tuple(Perturbation(*p) for p in pert2)),
        m=m, orbit=orbit)


@pytest.fixture(scope="session")
def reference_config(orbit05):
    """The reference perturbed gluing: mode-0 tail A=1e-3 at rate 2, m=2."""
    return make_config(orbit05, m=2, pert1=((0, 1e-3, 2.0),))


@pytest.fixture(scope="session")
def reference_approx(reference_config):
    return build_approximate(reference_config, grid_per_period=64)
