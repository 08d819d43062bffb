"""The finite-difference layer against independent references: the band
rows against stencil_at row by row, band_apply against a dense product,
jet_rows against Fornberg weights on h-scaled nodes, and the mode operator
against exact derivatives of polynomials."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qglue.fd import (band_apply, derivative_band, fd_weights, jet_rows,
                      stencil_at, stencil_size)
from qglue.gauges import derive_constants, paneitz_mode_apply, \
    paneitz_mode_band


@pytest.mark.parametrize("acc", [8, 10, 12])
@pytest.mark.parametrize("deriv", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [-1, 0, 1, 27, 287])
def test_band_rows_are_stencil_at(deriv, acc, extra):
    # a grid one point short of a stencil is refused, by the band and the
    # jet rows alike; one of a stencil's size builds both
    npts = stencil_size(deriv, acc)
    N = npts + extra
    if extra < 0:
        with pytest.raises(ValueError, match="too coarse"):
            derivative_band(N, deriv, acc, npts - 1)
        with pytest.raises(ValueError, match="too coarse"):
            jet_rows(N, 0.1, 0, deriv, acc)
        return
    assert jet_rows(N, 0.1, N - 1, deriv, acc).shape == (deriv + 1, N)
    for reach in (npts - 1, npts + 3):
        band = derivative_band(N, deriv, acc, reach)
        expect = np.zeros_like(band)
        for i in range(N):
            nodes, w = stencil_at(i, N, deriv, acc)
            expect[i, nodes - i + reach] = w
        assert np.array_equal(band, expect)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_band_apply_is_the_dense_product(shape):
    n, kl, ku = 30, 3, 5
    rng = np.random.default_rng(5)
    band = rng.standard_normal((n, kl + ku + 1))
    A = np.zeros((n, n))
    for p in range(n):
        for q in range(kl + ku + 1):
            if 0 <= p - kl + q < n:
                A[p, p - kl + q] = band[p, q]
    x = rng.standard_normal((n,) + shape)
    got = band_apply(band, x, kl)
    assert got.shape == x.shape
    np.testing.assert_allclose(got, A @ x, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_band_apply_on_live_diagonals_is_bit_identical(shape):
    # the live diagonals a band's builder passes leave out only all-zero
    # ones, whose products would add +-0.0 to a sum that is never -0.0
    n, kl = 30, 4
    rng = np.random.default_rng(7)
    band = rng.standard_normal((n, 2 * kl + 1))
    band[:, [0, 3, 7]] = 0.0
    x = rng.standard_normal((n,) + shape)
    live = np.flatnonzero(band.any(axis=0))
    assert band_apply(band, x, kl, live).tobytes() == \
        band_apply(band, x, kl).tobytes()


@pytest.mark.parametrize("h", [0.05, 0.3])
@pytest.mark.parametrize("i", [0, 3, 20, 39])
def test_jet_rows_are_scaled_fornberg_weights(h, i):
    N, max_deriv, acc = 40, 3, 8
    rows = jet_rows(N, h, i, max_deriv, acc)
    nodes = stencil_at(i, N, max_deriv, acc)[0]
    w = fd_weights(0.0, (nodes - i) * h, max_deriv)
    expect = np.zeros_like(rows)
    expect[:, nodes] = w
    for k in range(max_deriv + 1):
        assert (np.max(np.abs(rows[k] - expect[k]))
                <= 1e-12 * np.max(np.abs(expect[k])))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), acc=st.sampled_from([8, 10, 12]),
       h=st.floats(0.02, 0.5), l=st.integers(0, 4))
def test_mode_operator_exact_on_polynomials(data, acc, h, l):
    """Every row, end rows included, is exact on polynomials of degree <=
    acc (the shifted second-derivative stencils have acc + 1 nodes); the
    centred interior rows also on degree acc + 1.  Exact up to rounding,
    judged against the row's sum of |weight * sample|."""
    N = data.draw(st.integers(stencil_size(4, acc), 400), label="N")
    deg = data.draw(st.integers(0, acc + 1), label="degree")
    # subnormal coefficients leave no relative precision to judge
    coef = data.draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                              min_size=deg + 1, max_size=deg + 1),
                     label="coefficients")
    consts = derive_constants(5)
    lam = consts.lam(l)
    A, B = consts.mode_coefficients(lam)
    t = h * (np.arange(N) - (N - 1) / 2)
    span = float(np.max(np.abs(t)))
    p = np.polynomial.Polynomial(coef)
    w = p(t / span)
    exact = (p.deriv(4)(t / span) / span ** 4
             - A * p.deriv(2)(t / span) / span ** 2 + (lam ** 2 + B) * w)
    reach = stencil_size(4, acc) - 1
    size = band_apply(np.abs(paneitz_mode_band(consts, lam, N, h, acc, reach)),
                      np.abs(w), reach)
    err = np.abs(paneitz_mode_apply(consts, lam, w, h, acc) - exact)
    rows = slice(None) if deg <= acc else slice(reach // 2, N - reach // 2)
    assert np.all(err[rows] <= 1e-9 * size[rows])
