"""High-order finite differences on uniform grids.

Stencil weights come from Fornberg's recurrence (Math. Comp. 51, 1988), so
any derivative order and accuracy are available, centered in the interior
and biased (same order) near the ends of a non-periodic grid.  Fourth-order
operators need the full jet up to w'''', which is why everything here is
parameterized by the derivative order rather than hard-coded.  An operator
exists in one form, as band rows in LAPACK's layout (derivative_band), and
band_apply is the one product with a band.
"""

import numpy as np

from .keep import frozen_cache


def fd_weights(z, x, m):
    """Fornberg weights.

    Returns an (m+1, len(x)) array w with f^(k)(z) ~= sum_j w[k, j] f(x[j])
    for k = 0..m.  Nodes x need not be uniform.
    """
    x = np.asarray(x, dtype=float)
    nn = len(x)
    if nn < m + 1:
        raise ValueError(f"need at least {m + 1} nodes for derivative {m}")
    w = np.zeros((m + 1, nn))
    c1 = 1.0
    c4 = x[0] - z
    w[0, 0] = 1.0
    for i in range(1, nn):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = (c4 * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = c4 * w[0, j] / c3
        c1 = c2
    return w


def stencil_size(deriv, acc):
    """Number of points of the order-`acc` stencil for derivative `deriv`."""
    npts = deriv + acc - 1
    if npts % 2 == 0:
        npts += 1
    return npts


@frozen_cache
def _unit_weights(offsets, deriv):
    """Weights on integer offsets for derivative `deriv`, h = 1.

    For deriv >= 1 the weights are re-centered to sum to exactly zero so
    constants differentiate to exact zeros (the analytic sum vanishes; the
    floating-point one only almost does)."""
    w = fd_weights(0.0, np.array(offsets, dtype=float), deriv)[deriv]
    if deriv >= 1:
        w = w - w.sum() / len(w)
    return w


def stencil_at(i, npoints, deriv, acc):
    """Node indices and unit-spacing weights for derivative `deriv` at grid
    index i of a grid with `npoints` points.

    Centered where the stencil fits, shifted (biased, same order) otherwise.
    Scale the weights by h**(-deriv) for spacing h.
    """
    npts = stencil_size(deriv, acc)
    if npts > npoints:
        raise ValueError(
            f"grid with {npoints} points too coarse for derivative {deriv} "
            f"at accuracy {acc} ({npts} stencil points needed)")
    lo = min(max(i - npts // 2, 0), npoints - npts)
    nodes = np.arange(lo, lo + npts)
    return nodes, _unit_weights(tuple(nodes - i), deriv)


@frozen_cache
def _end_rows(deriv, acc, reach):
    """Band rows of the stencil_size // 2 points at each end, the first
    ones then the last ones.  Their shifted stencils do not depend on the
    number of points, so the smallest grid gives them."""
    npts = stencil_size(deriv, acc)
    half = npts // 2
    rows = np.zeros((2 * half, 2 * reach + 1))
    for k, i in enumerate([*range(half), *range(npts - half, npts)]):
        nodes, w = stencil_at(i, npts, deriv, acc)
        rows[k, nodes - i + reach] = w
    return rows


def derivative_band(npoints, deriv, acc, reach):
    """stencil_at's unit-spacing weights of derivative `deriv` as an
    (npoints, 2 reach + 1) band: row i holds row i's weights on points
    i - reach .. i + reach, so reach must be at least the stencil size
    minus one.  The interior rows copy the first centred row; the end rows
    come from _end_rows.  Scale by h**(-deriv) for spacing h."""
    ends = _end_rows(deriv, acc, reach)
    half = len(ends) // 2
    band = np.zeros((npoints, 2 * reach + 1))
    band[half:npoints - half, reach - half:reach + half + 1] = stencil_at(
        half, npoints, deriv, acc)[1]
    band[:half], band[npoints - half:] = ends[:half], ends[half:]
    return band


def band_apply(band, x, kl, live=None):
    """A x for the (n, kl + ku + 1) band of a square A, A[p, p - kl + q] =
    band[p, q], and x a vector or (n, k) columns; band entries that fall
    outside A multiply zeros.  Only the diagonals q in live are applied,
    every one without it: the builder of a band that is applied more than
    once finds its nonzero diagonals once and passes them.  Skipping
    all-zero diagonals changes no bit: y starts at +0.0 and never reaches
    -0.0, so adding their zero products would not change it (for finite
    x)."""
    n, width = band.shape
    pad = np.zeros((n + width - 1,) + x.shape[1:])
    pad[kl:kl + n] = x
    band = band.reshape(band.shape + (1,) * (x.ndim - 1))
    y = np.zeros(x.shape)
    for q in range(width) if live is None else live:
        y += band[:, q] * pad[q:q + n]
    return y


def jet_rows(npoints, h, i, max_deriv, acc):
    """Rows extracting (f, f', ..., f^(max_deriv)) at grid index i.

    Returns a (max_deriv+1, npoints) matrix with h-scaled weights on the one
    node set stencil_at picks for derivative max_deriv at order `acc`.
    """
    nodes = stencil_at(i, npoints, max_deriv, acc)[0]
    rows = np.zeros((max_deriv + 1, npoints))
    for k in range(max_deriv + 1):
        rows[k, nodes] = _unit_weights(tuple(nodes - i), k) * h ** -k
    return rows
