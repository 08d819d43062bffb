"""High-order finite differences on uniform grids.

Stencil weights come from Fornberg's recurrence, so any derivative order and
accuracy are available, centered in the interior and biased (same order) near
the ends of a non-periodic grid.  Fourth-order operators need the full jet up
to w'''', which is why everything here is parameterized by the derivative
order rather than hard-coded.
"""

from functools import lru_cache

import numpy as np


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


@lru_cache(maxsize=None)
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
    half = npts // 2
    if i - half < 0:
        lo = 0
    elif i + half >= npoints:
        lo = npoints - npts
    else:
        lo = i - half
    nodes = np.arange(lo, lo + npts)
    w = _unit_weights(tuple(nodes - i), deriv)
    return nodes, w


def apply_derivative(vals, h, deriv, acc):
    """Differentiate uniformly spaced samples; centered stencils in the
    interior, shifted same-order stencils near the ends."""
    vals = np.asarray(vals, dtype=float)
    N = vals.shape[-1]
    npts = stencil_size(deriv, acc)
    half = npts // 2
    if npts > N:
        raise ValueError(
            f"{N} samples too few for derivative {deriv} at accuracy {acc}")
    scale = h ** (-deriv)
    offs = np.arange(-half, half + 1)
    w = _unit_weights(tuple(offs), deriv)
    out = np.zeros_like(vals)
    core = slice(half, N - half)
    seg = np.zeros_like(vals[..., core])
    for k, o in enumerate(offs):
        seg += w[k] * vals[..., half + o:N - half + o]
    out[..., core] = seg
    for i in list(range(half)) + list(range(N - half, N)):
        nodes, wi = stencil_at(i, N, deriv, acc)
        out[..., i] = vals[..., nodes] @ wi
    return out * scale


def derivative_band(npoints, deriv, acc, reach):
    """apply_derivative's unit-spacing weights as an (npoints, 2 reach + 1)
    band: row i holds the weights on points i - reach .. i + reach.  The
    interior rows share one centred weight vector; only the end rows go
    through stencil_at, so reach must be at least the stencil size minus
    one.  Scale by h**(-deriv) for spacing h."""
    half = stencil_size(deriv, acc) // 2
    band = np.zeros((npoints, 2 * reach + 1))
    band[half:npoints - half, reach - half:reach + half + 1] = _unit_weights(
        tuple(range(-half, half + 1)), deriv)
    for i in list(range(half)) + list(range(npoints - half, npoints)):
        nodes, w = stencil_at(i, npoints, deriv, acc)
        band[i, nodes - i + reach] = w
    return band


def jet_rows(npoints, h, i, max_deriv, acc):
    """Rows extracting (f, f', ..., f^(max_deriv)) at grid index i.

    Returns a (max_deriv+1, npoints) matrix with h-scaled weights on the one
    node set stencil_at picks for derivative max_deriv at order `acc`.
    """
    nodes = stencil_at(i, npoints, max_deriv, acc)[0]
    w = fd_weights(0.0, (nodes - i) * h, max_deriv)
    rows = np.zeros((max_deriv + 1, npoints))
    for k in range(max_deriv + 1):
        wk = w[k]
        if k >= 1:
            wk = wk - wk.sum() / len(wk)
        rows[k, nodes] = wk
    return rows
