from dataclasses import replace
import json
from math import factorial, gamma, pi
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, strategies as st
from scipy.special import eval_gegenbauer, roots_gegenbauer

from qglue import derive_constants, gauges
from qglue.errors import DomainError
from qglue.gauges import (AngularBasis, CylField, paneitz_mode_apply,
                          q_residual)


def symbolic_constants(n_val):
    """Independent oracle: substitute n into the coefficient formulas of the
    fourth-order cylindrical equation symbolically and evaluate."""
    n = sp.Integer(n_val)
    return {
        "c2": sp.Rational(1, 2) * (n * (n - 4) + 8),
        "c0": sp.Rational(1, 16) * n ** 2 * (n - 4) ** 2,
        "cN": sp.Rational(1, 16) * n * (n ** 2 - 4) * (n - 4),
        "p": sp.Rational(n + 4, n - 4),
        "qTarget": sp.Rational(1, 8) * n * (n ** 2 - 4),
        "epsBar": (n * (n - 4) / (n ** 2 - 4)) ** sp.Rational(n - 4, 8),
    }


class TestConstants:
    def test_n5_against_symbolic_oracle(self):
        c = derive_constants(5)
        sym = symbolic_constants(5)
        assert c.c2 == pytest.approx(float(sym["c2"]), abs=0)
        assert c.c0 == pytest.approx(float(sym["c0"]), abs=0)
        assert c.cN == pytest.approx(float(sym["cN"]), abs=0)
        assert c.p == pytest.approx(float(sym["p"]), abs=0)
        assert c.qTarget == pytest.approx(float(sym["qTarget"]), abs=0)
        assert c.epsBar == pytest.approx(float(sym["epsBar"].evalf(30)),
                                         rel=1e-14)
        # frozen values computed from the oracle
        assert (c.c2, c.c0, c.cN, c.p, c.qTarget) == (6.5, 1.5625, 6.5625,
                                                      9.0, 13.125)
        assert c.epsBar == pytest.approx(0.8357835878132627, rel=1e-14)

    def test_n6_against_symbolic_oracle(self):
        c = derive_constants(6)
        sym = symbolic_constants(6)
        assert (c.c2, c.c0, c.cN, c.p) == (10.0, 9.0, 24.0, 5.0)
        assert c.epsBar == pytest.approx((3.0 / 8.0) ** 0.25, rel=1e-14)
        assert c.epsBar == pytest.approx(float(sym["epsBar"].evalf(30)),
                                         rel=1e-14)

    @given(st.integers(min_value=5, max_value=14))
    def test_constant_solution_identity(self, n):
        # the constant epsBar zeroes the equation: cN epsBar^(p-1) = c0
        c = derive_constants(n)
        assert c.cN * c.epsBar ** (c.p - 1) == pytest.approx(c.c0, rel=1e-13)

    def test_low_dimension_rejected(self):
        with pytest.raises(DomainError):
            derive_constants(4)
        with pytest.raises(DomainError):
            derive_constants(5.5)


class TestAngularBasis:
    """The in-tree Gauss-Gegenbauer rule and zonal polynomials against
    scipy.special as the reference."""

    @pytest.mark.parametrize("n", range(5, 13))
    @pytest.mark.parametrize("nquad", [16, 24, 32])
    def test_rule_and_modes_match_scipy(self, n, nquad):
        alpha = (n - 2) / 2.0
        basis = AngularBasis(n, range(13), nquad)
        nodes, weights = roots_gegenbauer(nquad, alpha)
        np.testing.assert_allclose(basis.nodes, nodes, rtol=1e-14, atol=0)
        np.testing.assert_allclose(basis.weights, weights, rtol=1e-14,
                                   atol=0)
        ref = np.array([eval_gegenbauer(l, alpha, nodes)
                        / eval_gegenbauer(l, alpha, 1.0) for l in range(13)])
        np.testing.assert_allclose(basis.phi, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(5, 13))
    @pytest.mark.parametrize("nquad", [16, 24, 32])
    def test_rule_is_exact_on_the_gram_matrix(self, n, nquad):
        # ||phi_l||^2 = h_l / C_l(1)^2 in the Gegenbauer weight, with
        # h_l = pi 2^(1 - 2a) Gamma(l + 2a) / (l! (l + a) Gamma(a)^2) and
        # C_l(1) = Gamma(l + 2a) / (l! Gamma(2a))
        a = (n - 2) / 2.0
        basis = AngularBasis(n, range(5), nquad)
        gram = (basis.phi * basis.weights) @ basis.phi.T
        exact = np.diag([pi * 2 ** (1 - 2 * a) * factorial(l)
                         * gamma(2 * a) ** 2
                         / ((l + a) * gamma(a) ** 2 * gamma(l + 2 * a))
                         for l in range(5)])
        np.testing.assert_allclose(gram, exact, rtol=0,
                                   atol=1e-15 * exact.max())
        np.testing.assert_allclose(basis.norm2, np.diag(exact), rtol=1e-14)


class TestCylField:
    def test_json_round_trip(self, consts5):
        # the field artifacts' keys, through a JSON dump and load
        t = np.linspace(-1.0, 2.0, 31)
        fld = CylField.from_modes(consts5, t,
                                  {0: np.sin(t), 1: np.cos(t)})
        doc = json.loads(json.dumps(fld.to_json()))
        assert set(doc) == {"n", "tMin", "tMax", "nT", "modes"}
        assert doc["modes"][0]["l"] == 0
        assert doc["modes"][1]["lambda"] == consts5.lam(1)
        for l in (0, 1):
            assert doc["modes"][l]["samples"] == list(fld.mode(l))

    def test_grid_must_be_uniform(self, consts5):
        with pytest.raises(DomainError):
            CylField.from_modes(consts5, np.array([0.0, 1.0, 3.0]),
                                {0: np.zeros(3)})

    @pytest.mark.parametrize("off, ok", [(1e-12, True), (3e-12, False),
                                         (np.nan, False)])
    def test_uniform_grid_tolerance(self, consts5, off, ok):
        # one step longer by off * h: the bound is 2e-12 h, and a NaN grid
        # is never uniform
        h = 0.1
        t = h * np.arange(11)
        t[6:] += off * h
        if ok:
            CylField.mode0(consts5, t, np.zeros(11))
        else:
            with pytest.raises(DomainError):
                CylField.mode0(consts5, t, np.zeros(11))

    @pytest.mark.parametrize("read_only", [False, True])
    @pytest.mark.parametrize("grid", [[0.0, 0.25, 0.5, 0.8, 1.0],
                                      [0.0, 0.25, np.nan, 0.75, 1.0],
                                      [0.0]])
    def test_every_constructor_rejects_a_bad_grid(self, consts5, grid,
                                                  read_only):
        # uneven, NaN and one-point grids, writable or read-only, through
        # each constructor and each time
        t = np.array(grid)
        t.flags.writeable = not read_only
        n = len(t)
        fld = CylField.mode0(consts5, np.linspace(0.0, 1.0, 5), np.ones(5))
        builds = (lambda: CylField(consts5, t, (0,), np.zeros((1, n))),
                  lambda: CylField.from_modes(consts5, t, {0: np.zeros(n)}),
                  lambda: CylField.mode0(consts5, t, np.zeros(n)),
                  lambda: replace(fld, t=t, coeffs=np.zeros((1, n))))
        for build in builds * 2:
            with pytest.raises(DomainError, match="t grid"):
                build()

    def test_a_read_only_grid_is_checked_once(self, consts5, monkeypatch):
        t = np.linspace(0.0, 1.0, 5)
        t.flags.writeable = False
        fld = CylField.mode0(consts5, t, np.ones(5))
        checked = []
        check = gauges._check_grid
        monkeypatch.setattr(gauges, "_check_grid",
                            lambda grid: checked.append(grid) or check(grid))
        kept = [replace(fld, coeffs=2.0 * fld.coeffs), fld * 2.0, fld + fld,
                fld - fld, fld.padded((1,)), CylField.mode0(consts5, t,
                                                            np.zeros(5))]
        assert checked == []
        assert all(k.t is t for k in kept)
        # a writable grid is checked at every field on it, and its verdict
        # is not kept for when it is read-only
        w = np.linspace(0.0, 1.0, 5)
        replace(CylField.mode0(consts5, w, np.ones(5)), coeffs=fld.coeffs)
        assert len(checked) == 2 and all(g is w for g in checked)
        w[2] = 0.7
        w.flags.writeable = False
        with pytest.raises(DomainError, match="uniform"):
            CylField.mode0(consts5, w, np.ones(5))
        # and a kept grid made writable again is checked again
        t.flags.writeable = True
        t[2] = 0.7
        with pytest.raises(DomainError, match="uniform"):
            replace(fld, coeffs=fld.coeffs)
        # the verdict does not keep the grid alive
        grid = weakref.ref(t)
        del t, fld, kept, checked[:]
        assert grid() is None

    def test_layout_checked(self, consts5):
        t = np.linspace(0, 1, 5)
        for degrees in ((1, 0), (1, 1)):
            with pytest.raises(DomainError):
                CylField(consts5, t, degrees, np.zeros((2, 5)))
        for shape in ((2, 4), (1, 5), (10,)):
            with pytest.raises(DomainError):
                CylField(consts5, t, (0, 2), np.zeros(shape))

    def test_rows_and_padding(self, consts5):
        t = np.linspace(-1.0, 2.0, 31)
        fld = CylField.from_modes(consts5, t, {0: np.sin(t), 2: np.cos(t)})
        rows = fld.rows((1, 2, 0))
        np.testing.assert_array_equal(rows[0], 0.0)
        np.testing.assert_array_equal(rows[1], np.cos(t))
        np.testing.assert_array_equal(rows[2], np.sin(t))
        assert fld.padded((2, 0)) is fld
        wide = fld.padded((3, 1))
        assert wide.degrees == (0, 1, 2, 3)
        for l in (1, 3):
            np.testing.assert_array_equal(wide.mode(l), 0.0)
        for l in (0, 2):
            np.testing.assert_array_equal(wide.mode(l), fld.mode(l))
        empty = CylField.from_modes(consts5, t, {})
        assert empty.coeffs.shape == (0, 31)
        assert empty.padded((0,)).degrees == (0,)


def characteristic_quartic(consts, lam, mu):
    """Action of the mode operator on e^{mu t}, by symbolic differentiation."""
    t, m = sp.symbols("t m")
    w = sp.exp(m * t)
    expr = (sp.diff(w, t, 4) + lam ** 2 * w - 2 * lam * sp.diff(w, t, 2)
            - sp.Rational(consts.n * (consts.n - 4) + 8, 2) * sp.diff(w, t, 2)
            + sp.Rational(consts.n * (consts.n - 4), 2) * lam * w
            + sp.Rational(consts.n ** 2 * (consts.n - 4) ** 2, 16) * w)
    poly = sp.simplify(expr / w)
    return float(poly.subs(m, mu))


class TestPaneitz:
    def test_constant_field(self, consts5):
        t = np.linspace(-2, 2, 41)
        out = paneitz_mode_apply(consts5, 0.0, np.full(41, consts5.epsBar),
                                 t[1] - t[0], acc=8)
        expect = consts5.c0 * consts5.epsBar
        # biased end stencils carry dot-product rounding at the 1e-9 level;
        # interior centered stencils sit well below
        assert np.max(np.abs(out - expect)) < 1e-8
        assert np.max(np.abs(out[6:-6] - expect)) < 1e-10

    @pytest.mark.parametrize("mu,l", [(0.6, 0), (1.0, 0), (-1.0, 1),
                                      (0.8, 1), (1.2, 2)])
    def test_exponential_matches_quartic(self, consts5, mu, l):
        lam = consts5.lam(l)
        h = 0.25
        half = 8
        t = h * np.arange(-16, 17)
        w = np.exp(mu * t)
        out = paneitz_mode_apply(consts5, lam, w, h, acc=12)
        expect = characteristic_quartic(consts5, lam, mu) * w
        sl = slice(half, len(t) - half)
        rel = np.max(np.abs(out[sl] - expect[sl]) / np.abs(expect[sl]))
        assert rel < 1e-10

    def test_grid_too_coarse(self, consts5):
        with pytest.raises(ValueError):
            paneitz_mode_apply(consts5, 0.0, np.ones(6), 0.2, acc=8)


class TestQResidual:
    def test_constant_solution(self, consts5):
        t = np.linspace(-5, 5, 129)
        fld = CylField.mode0(consts5, t, np.full(129, consts5.epsBar))
        res = q_residual(fld)
        assert res.supResidual < 1e-8
        assert res.supQ < 1e-8

    def test_spherical_profile(self, consts5):
        # (cosh t)^((4-n)/2) solves the equation; padded grid so the
        # reported window [-5, 5] only sees centered stencils
        pad = 8
        h = 10.0 / 192
        t = np.linspace(-5 - pad * h, 5 + pad * h, 193 + 2 * pad)
        v = np.cosh(t) ** ((4 - consts5.n) / 2.0)
        fld = CylField.mode0(consts5, t, v)
        res = q_residual(fld, acc=10, trim=pad)
        assert res.supResidual < 1e-8

    def test_orbit_residual(self, orbit05):
        pad = 8
        npts = 128
        h = orbit05.period / npts
        t = np.arange(-pad, npts + pad + 1) * h
        fld = CylField.mode0(orbit05.constants, t, orbit05.sample_exact(t))
        res = q_residual(fld, acc=10, trim=pad)
        assert res.supResidual < 1e-7

    def test_positivity_required(self, consts5):
        t = np.linspace(-1, 1, 33)
        fld = CylField.mode0(consts5, t, np.linspace(-0.1, 1.0, 33))
        with pytest.raises(DomainError):
            q_residual(fld)

    def test_q_deviation_of_constant_background(self, consts5):
        # constant 1 has curvature deviation (2/(n-4)) c0 - qTarget
        t = np.linspace(-2, 2, 65)
        fld = CylField.mode0(consts5, t, np.ones(65))
        res = q_residual(fld)
        expect = 2.0 / (consts5.n - 4) * consts5.c0 - consts5.qTarget
        mid = res.qField.mode(0)[32]
        assert mid == pytest.approx(expect, rel=1e-10)
