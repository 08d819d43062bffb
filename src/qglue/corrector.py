"""Discrete linearized operator of the blended solution, the bordered right
inverse with deficiency amplitudes, the correction iteration, and the
injectivity diagnostic of the corrected solution.

The linearization about a field is written once (_linearization), as a
borderless BandedOperator: its grid values, like those of every vector, are
interleaved point-major, so the bands of gauges.paneitz_mode_band and the
pointwise mode coupling form one band, and linear_apply is its product.
One assembly serves both closures: each mode's rows {0, 1, N-2, N-1} take
clamp rows (discretize) or the mode's border rows (the bordered right
inverse), and LAPACK's banded LU factors the band.  The bordered right
inverse keeps two condition rows per end in the band; its other border rows
and its deficiency columns (the linearization times the cutoff generator
columns) form a dense border, eliminated through one small Schur
complement.  A system keeps its linearization for the residuals it reports.

Boundary closure of the right inverse (per mode, per end): the interior
unknown may only carry asymptotics that decay into the domain faster than
the weight rate gluing.WEIGHT_RATE.  This is expressed as jet conditions in
a frame of the multiplier > e^{WEIGHT_RATE T} subspaces of the one-period
flow and its inverse (one sorted Schur form each) and, in modes 0 and 1, the
generator pair, all realized as discrete jets (window solutions from the
spectral panels of the monodromy flow that starts at the window's first
node, differentiated with the same one-sided stencils as the condition rows,
so sampled solutions are annihilated exactly).  Slow and neutral directions
are carried by amplitudes of cutoff generator fields anchored at each end;
two gauge rows per deficiency-carrying mode make the system square and kill
the bounded null space by minimizing the annulus-weighted size of the
decaying part over kernel shifts.  The gauge rows vanish on solutions with
zero kernel content, so consistent compactly supported problems are
reproduced exactly.

LAPACK comes from SciPy's compiled wrapper module scipy.linalg._flapack,
loaded alone by _lapack() at the first factorization or Schur form, without
the scipy and scipy.linalg packages around it.  Its routines are the objects
scipy.linalg.lapack exports, so results are those of scipy.linalg: BandLU
calls dgbtrf/dgbtrs for the band and dgetrf/dgetrs for the Schur
complement, and _invariant_subspace calls dgees.  A command that factors
nothing, such as orbit, sweep, indicial, jacobi or glue, loads none of it.
"""

from dataclasses import dataclass, field, replace
import functools
import importlib.machinery
import importlib.util
import os
import random
import sys

import numpy as np

from .errors import DomainError, IllConditionedError, NumericalError
from .fd import band_apply, jet_rows, stencil_size
from .gauges import CylField, angular_basis, paneitz_mode_band
from .jacobi import ModeOperator, generators, monodromy_data
from .gluing import STENCIL_ORDER, WEIGHT_RATE, ApproxSolution, defect, \
    kept, log_annulus_weight, smooth_step, stable_power_remainder
from .keep import get_or_compute, read_only

__all__ = [
    "discretize", "BandedOperator", "BandLU", "BorderedSystem",
    "bordered_system",
    "solve_right_inverse", "RightInverseResult", "remainder", "iterate",
    "IterationTrace", "IterateResult", "nondegeneracy_diag",
    "NondegeneracyResult", "linear_apply", "verify_correction",
]


# The first and last EDGE rows of each mode hold boundary rows and carry no
# equation; the INTERIOR rows are the rest.
EDGE = 2
INTERIOR = slice(EDGE, -EDGE)


# ----------------------------------------------------------------------
# the linearized operator, with the angular coupling of its potential


def _coupling_tensor(background, degrees):
    """C[a, b, i]: mode-a projection of v^{p-1}(t_i, .) times phi_b, the exact
    Jacobian of the projected nonlinearity under quadrature."""
    consts = background.constants
    basis = background.basis()
    vp1 = basis.reconstruct(background.coeffs) ** (consts.p - 1.0)
    # evaluate phi on the shared quadrature nodes for the requested degrees
    full = angular_basis(consts.n, tuple(degrees), len(basis.nodes))
    L1 = len(degrees)
    C = np.empty((L1, L1, len(background.t)))
    for a in range(L1):
        for b in range(L1):
            integ = (vp1 * (full.phi[a] * full.phi[b] * full.weights)).sum(axis=1)
            C[a, b] = integ / full.norm2[a]
    return C


def _linearization(background, degrees):
    """The linearization of the curvature operator about `background` in
    `degrees` as a borderless point-major BandedOperator: on every row, each
    mode's paneitz_mode_band at the reach of the shifted end stencils minus
    K times the coupling tensor."""
    consts, h = background.constants, background.h
    N, L1 = len(background.t), len(degrees)
    reach = stencil_size(4, STENCIL_ORDER) - 1
    C = _coupling_tensor(background, degrees)
    # point-major: point offset o of mode a is diagonal kl + o L1, the
    # coupling of modes a and b at one point is diagonal kl + b - a
    kl, n = reach * L1, N * L1
    core = np.zeros((N, L1, 2 * kl + 1))
    for a, l in enumerate(degrees):
        core[:, a, ::L1] = paneitz_mode_band(consts, consts.lam(l), N, h,
                                             STENCIL_ORDER, reach)
        for b in range(L1):
            core[:, a, kl + b - a] -= consts.K * C[a, b]
    band = core.reshape(n, -1)
    return BandedOperator(kl=kl, ku=kl, band=band, cols=np.zeros((n, 0)),
                          rows=np.zeros((0, n)),
                          live=np.flatnonzero(band.any(axis=0)))


def _apply(op, u):
    """The borderless operator op times the field u, in u's degrees."""
    y = op.matvec(u.coeffs.T.reshape(-1))
    return replace(u, coeffs=y.reshape(len(u.t), -1).T.copy())


def linear_apply(background, u):
    """Linearization of the curvature operator about `background` applied to
    u: per-mode derivative parts minus K times the pointwise-potential
    coupling (quadrature projected)."""
    return _apply(_linearization(background, u.degrees), u)


# ----------------------------------------------------------------------
# the operator store: a point-major band with a dense border


@dataclass
class BandedOperator:
    """A square matrix over L modes on one grid of N points, in point-major
    order: unknown i L + a is mode a at point i, so that the stencils and
    the pointwise coupling of the modes form one band core, stored in the
    layout of fd.band_apply; plus a dense border of k columns on the right
    and k rows below, with a zero k x k corner.  Vectors and toarray() use
    the same order, the k border unknowns last."""

    kl: int                  # sub-diagonals of the core
    ku: int                  # super-diagonals of the core
    band: np.ndarray         # (L N, kl + ku + 1): A[p, p - kl + q]
    cols: np.ndarray         # (L N, k) border columns
    rows: np.ndarray         # (k, L N) border rows
    live: np.ndarray = None  # the band's nonzero diagonals q; None: all

    @property
    def shape(self):
        n = len(self.band) + len(self.rows)
        return (n, n)

    def matvec(self, x):
        """The matrix times x (a vector or columns)."""
        nc = len(self.band)
        top = (band_apply(self.band, x[:nc], self.kl, self.live)
               + self.cols @ x[nc:])
        return np.concatenate([top, self.rows @ x[:nc]])

    def row_max(self):
        """Largest |entry| of each row."""
        return np.concatenate([
            np.max(np.abs(np.hstack([self.band, self.cols])), axis=1),
            np.max(np.abs(self.rows), axis=1)])

    def toarray(self):
        """The dense matrix."""
        return self.matvec(np.eye(self.shape[0]))


@functools.cache
def _lapack():
    """SciPy's compiled LAPACK wrappers, the extension module
    scipy.linalg._flapack, loaded by itself: find_spec locates SciPy without
    importing it, and the module is registered under its own name, so a
    later import of scipy.linalg reuses it and its routines are the ones
    scipy.linalg.lapack exports, in either import order."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    path = os.path.join(
        scipy.submodule_search_locations[0] if scipy else "scipy", "linalg")
    spec = importlib.machinery.FileFinder(path, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no LAPACK extension _flapack in {path}",
                          name=name, path=path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class BandLU:
    """LU factors of a BandedOperator whose rows are divided by row_scale:
    LAPACK's banded LU (dgbtrf) of the core A, and block elimination of
    the border rows R and columns C through the k x k Schur complement
    S = -R A^{-1} C (Govaerts, SIAM J. Matrix Anal. Appl. 12, 1991), by
    dgetrf.  The routines come from _lapack(), which loads SciPy's LAPACK
    module at the first factorization.  `norm1` is the exact 1-norm of the
    scaled matrix; `singular` flags an exactly singular core or complement,
    or a complement that is not finite.  solve() uses the operator's order
    and raises NumericalError on a right-hand side that is not finite."""

    def __init__(self, op, row_scale):
        lapack = _lapack()
        kl, ku, nc = op.kl, op.ku, len(op.band)
        self.kl, self.ku, self.n = kl, ku, op.shape[0]
        scale = row_scale[:, None]
        band, self.cols = op.band / scale[:nc], op.cols / scale[:nc]
        self.rows = op.rows / scale[nc:]
        # LAPACK band storage, ab[kl + ku + p - c, c] = A[p, c], with kl
        # spare rows for the fill-in of pivoting
        ab = np.zeros((2 * kl + ku + 1, nc), order="F")
        for q in range(kl + ku + 1):
            lo, hi = max(0, kl - q), min(nc, nc + kl - q)
            ab[2 * kl + ku - q, lo - kl + q:hi - kl + q] = band[lo:hi, q]
        self.norm1 = float(max(
            np.max(np.sum(np.abs(ab), axis=0)
                   + np.sum(np.abs(self.rows), axis=0)),
            np.max(np.sum(np.abs(self.cols), axis=0), initial=0.0)))
        self.lu, self.piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        self.singular = info > 0
        if self.singular or not len(self.rows):
            return
        self.colsolve = self._core(self.cols, 0)        # A^{-1} C
        self.rowsolve = self._core(self.rows.T, 1)      # A^{-T} R^T
        complement = -(self.rows @ self.colsolve)
        if not np.all(np.isfinite(complement)):
            self.singular = True
            return
        lu, piv, info = lapack.dgetrf(complement)
        self.schur, self.singular = (lu, piv), info > 0

    def _core(self, b, trans):
        return _lapack().dgbtrs(self.lu, self.kl, self.ku, b, self.piv,
                                trans=trans)[0]

    def solve(self, b, trans=0):
        """x with A x = b (trans=0) or A^T x = b (trans=1), for a vector
        or the columns of b."""
        if not np.all(np.isfinite(b)):
            raise NumericalError("banded solve of a right-hand side that "
                                 "is not finite")
        nc = self.lu.shape[1]
        y = self._core(b[:nc], trans)
        amp = b[nc:]
        if len(amp):
            inner, back = ((self.rows, self.colsolve) if trans == 0
                           else (self.cols.T, self.rowsolve))
            amp = _lapack().dgetrs(*self.schur, amp - inner @ y,
                                   trans=trans)[0]
            y = y - back @ amp
        return np.concatenate([y, amp])


def _inv_norm1(lu):
    """Hager-Higham lower estimate of ||A^{-1}||_1 from the factors of A:
    the iteration of LAPACK's dlacn2 (Higham 1988, Alg. 4.1) behind gecon,
    written over BandLU.solve and its transpose.  gecon itself sums with BLAS
    dasum, whose rounding depends on the heap address of its work array, so
    its estimate of one matrix can differ in the last digit from call to
    call within a process."""
    n = lu.n
    x = np.full(n, 1.0 / n)
    est, sign = 0.0, None
    for _ in range(5):
        y = lu.solve(x)
        new_est = float(np.sum(np.abs(y)))
        new_sign = np.where(y >= 0.0, 1.0, -1.0)
        if new_est <= est or (sign is not None
                              and np.array_equal(new_sign, sign)):
            est = max(est, new_est)
            break
        est, sign = new_est, new_sign
        z = lu.solve(sign, trans=1)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    # Higham's extra probe with alternating signs and growing magnitudes
    alt = 1.0 + np.arange(n) / max(n - 1, 1)
    alt[1::2] *= -1.0
    return max(est, 2.0 * float(np.sum(np.abs(lu.solve(alt)))) / (3 * n))


# ----------------------------------------------------------------------
# bordered system


def _end_frames(data, k, thresh):
    """Orthonormal bases of the invariant subspaces of the k multipliers
    beyond thresh of data's backward and forward one-period flows, kept
    with data (so with its orbit)."""
    flows = (data.backward, data.matrix)
    return get_or_compute(data.frames, (k, thresh), lambda: tuple(
        _invariant_subspace(M, k, thresh) for M in flows))


def _invariant_subspace(M, k, thresh):
    """Orthonormal basis of the invariant subspace of the k multipliers with
    |mu| > thresh, via a sorted real Schur form."""
    if not np.all(np.isfinite(M)):
        raise NumericalError("one-period flow is not finite")
    dgees = _lapack().dgees

    def big(re, im):
        return np.hypot(re, im) > thresh

    # the workspace query and the sorted call of scipy.linalg.schur
    lwork = dgees(lambda x: None, M, lwork=-1)[-2][0].real.astype(np.int_)
    _, sdim, _, _, Z, _, info = dgees(big, M, lwork=lwork, sort_t=1)
    if info > 0:
        raise NumericalError(f"sorted real Schur form failed (dgees info "
                             f"{info})")
    if sdim != k:
        raise NumericalError(
            f"expected {k} multipliers beyond {thresh:.3e}, found {sdim}")
    return Z[:, :k]


# (side, sign) of the four deficiency columns of a mode, in column order
_DEFICIENCY_LABELS = (("L", "+"), ("L", "-"), ("R", "+"), ("R", "-"))


@dataclass
class _ModeBorder:
    l: int
    slots: np.ndarray          # (4, N) rows of the band slots {0, 1, N-2, N-1}
    rows: np.ndarray           # dense border rows, gauge rows last, on v
    Bcols: np.ndarray | None   # deficiency columns (N, 4), normalized


@dataclass
class BorderedSystem:
    """Square linear system in the unknowns (grid values point-major, then
    deficiency amplitudes per mode), stored as a BandedOperator: each mode's
    band slots {0, 1, N-2, N-1} hold two condition rows per end, and its
    other border rows (with the deficiency columns) form the dense border."""

    approx: ApproxSolution
    degrees: tuple
    matrix: BandedOperator
    row_scale: np.ndarray
    borders: list             # per mode: _ModeBorder, orbit side only
    operator: BandedOperator = None   # the linearization it was built from
    _lu: BandLU = field(default=None, init=False, repr=False)
    _cond: float = field(default=None, init=False, repr=False)

    def factor(self):
        """Factors of the row-equilibrated matrix and its 1-norm condition
        estimate from the same factors, computed once and read-only; a
        singular core or Schur complement reads cond = inf.
        dataclasses.replace starts a system that is not factored."""
        if self._lu is None:
            self._lu = read_only(BandLU(self.matrix, self.row_scale))
            cond = float("inf")
            if not self._lu.singular:
                cond = self._lu.norm1 * _inv_norm1(self._lu)
            self._cond = cond if np.isfinite(cond) else float("inf")
        return self._lu, self._cond


def _mode_border(approx, basis, l):
    """Band slot rows, dense border rows and deficiency columns of mode l:
    the orbit side of the bordered system, which depends on the orbit, the
    overlap and the grid but not on the background field.  The end flows
    and their frames are kept with the orbit (monodromy_data, _end_frames).

    Frames are built from discrete jets: each frame direction is sampled as
    an actual solution over the end window, by the monodromy flow that
    starts at the window's first node, and its jet extracted with the
    same one-sided stencils the condition rows use, so the rows annihilate
    sampled solutions exactly.  (With analytic jets the extraction truncation
    of the steep directions, (gamma h)^8, lets the solve hide an amplified
    spurious boundary layer of that relative size.)  Each end's conditions
    kill the components of v that do not strictly decay; the band slots
    take its first and last, and the middle one of modes 0 and 1 joins the
    dense border.

    Gauge rows fix the bounded-null-space freedom by minimizing the
    annulus-weighted norm of the decaying part over kernel shifts (normal
    equations of that quadratic in the kernel coordinates); this keeps
    neutral content out of the neck middle, where the weight would amplify
    it, and selects the representative whose amplitudes sit at the end the
    data actually excites.  A kernel field is a generator g on the grid.
    Each end's frame has g's own window jet as a column, so g's frame
    coordinates there are that column's alone: its amplitude is 1 on the
    cutoff field chi g at both ends, and its grid part is g (1 - chiL -
    chiR).
    """
    cfg = approx.config
    orbit = cfg.orbit
    s = approx.s
    N = len(s)
    h = approx.field.h
    T = orbit.period
    op = ModeOperator(orbit, cfg.constants.lam(l))
    # fast directions: multipliers beyond e^{WEIGHT_RATE T}; the slow and
    # neutral ones of modes 0 and 1 are the analytic generators
    thresh = np.exp(WEIGHT_RATE * T)
    gens = [basis.profile(l, sign, s + cfg.neck) for sign in "+-" if l <= 1]
    n_dec = 1 if gens else 2

    win = stencil_size(3, STENCIL_ORDER)
    ends = []
    for i0, at in ((0, 0), (N - win, N - 1)):
        sl = slice(i0, i0 + win)
        nodes = s[sl]
        # each end's flow starts at its window's first node
        data = monodromy_data(op, t0=nodes[0] + cfg.neck,
                              offsets=nodes - nodes[0])
        dec, grow = _end_frames(data, n_dec, thresh)
        # a window is a stencil wide: growing directions stay representable
        sol = list((data.window[:, 0, :]
                    @ np.concatenate([dec, grow], axis=1)).T)
        samples = sol[:n_dec] + [g[sl] for g in gens] + sol[n_dec:]
        # discrete jets: extract with the same stencils the rows use
        jet = jet_rows(N, h, at, 3, STENCIL_ORDER)
        S = np.stack([jet[:, sl] @ w for w in samples], axis=1)
        cond = np.linalg.inv(S / np.max(np.abs(S), axis=0))[n_dec:] @ jet
        ends.append(cond / np.max(np.abs(cond), axis=1, keepdims=True))
    slots = np.concatenate([e[[0, -1]] for e in ends])
    rows = [e[1:-1] for e in ends]
    if not gens:
        return _ModeBorder(l=l, slots=slots, rows=np.concatenate(rows),
                           Bcols=None)

    # deficiency columns: cutoff global generator profiles at each end
    chiL = smooth_step((s - (s[0] + T / 2)) / (T / 2))
    chiR = smooth_step(((s[-1] - T / 2) - s) / (T / 2))
    raw = [chi * g for chi in (chiL, chiR) for g in gens]
    B = np.stack([c / max(np.max(np.abs(c)), 1e-300) for c in raw], axis=1)
    # gauge rows: the kernel fields' grid parts, weighted
    log_w = log_annulus_weight(s, WEIGHT_RATE, cfg.weightScale)
    w2 = np.exp(2.0 * (log_w - np.max(log_w)))
    rows.append(np.stack(gens) * (1.0 - chiL - chiR) * w2)
    return _ModeBorder(l=l, slots=slots, rows=np.concatenate(rows), Bcols=B)


def _degrees(approx, degrees):
    """The requested degrees as a sorted tuple, by default the blend's."""
    if degrees is None:
        return approx.field.degrees
    return tuple(sorted(set(int(d) for d in degrees)))


def bordered_system(approx, degrees=None):
    """Assemble the bordered right-inverse system about the blend: the
    orbit-side border of every mode, then the background rows.  The last
    blend built keeps its system in each sorted degree tuple
    (gluing.build_approximate), factors included once factored."""
    degrees = _degrees(approx, degrees)
    return kept(approx, ("system", degrees),
                lambda: _assemble(approx, degrees))


def _assemble(approx, degrees):
    if approx.config.orbit.isConstant:
        raise DomainError("the bordered closure needs an interior orbit")
    basis = generators(approx.config.orbit)
    borders = [_mode_border(approx, basis, l) for l in degrees]
    return _background_system(approx, degrees, borders)


def _background_system(approx, degrees, borders):
    """The bordered system about approx.field with the given borders: the
    linearization in the band, each mode's slot rows in place of its
    boundary rows, and the dense border of the deficiency columns (the
    linearization applied to them) and the remaining border rows; with the
    row scale and the linearization itself."""
    N, L1 = len(approx.s), len(degrees)
    lin = _linearization(approx.field, degrees)
    slots = np.delete(np.arange(N), INTERIOR)
    reach = lin.kl // L1    # slot rows are end jets: they fit in the band
    core = lin.band.reshape(N, L1, -1).copy()
    core[slots] = 0.0
    for a, bb in enumerate(borders):
        for i, row in zip(slots, bb.slots):
            nodes = np.arange(max(0, i - reach), min(N, i + reach + 1))
            core[i, a, lin.kl + (nodes - i) * L1] = row[nodes]
    # clamp rows reach less far than the end stencils: drop empty diagonals
    band = core.reshape(N * L1, -1)
    used = np.flatnonzero(np.any(band != 0.0, axis=0))

    defic = [(a, w) for a, bb in enumerate(borders) if bb.Bcols is not None
             for w in bb.Bcols.T]
    gen = np.zeros((N, L1, len(defic)))
    for j, (a, w) in enumerate(defic):
        gen[:, a, j] = w
    cols = lin.matvec(gen.reshape(N * L1, -1)).reshape(N, L1, -1)
    cols[slots] = 0.0
    extra = [(a, r) for a, bb in enumerate(borders) for r in bb.rows]
    rows = np.zeros((len(extra), N, L1))
    for k, (a, r) in enumerate(extra):
        rows[k, :, a] = r

    op = BandedOperator(kl=lin.kl - used[0], ku=used[-1] - lin.kl,
                        band=band[:, used[0]:used[-1] + 1],
                        cols=cols.reshape(N * L1, -1),
                        rows=rows.reshape(len(extra), N * L1),
                        live=used - used[0])
    scale = op.row_max()
    scale[scale == 0] = 1.0
    return BorderedSystem(approx=approx, degrees=degrees, matrix=op,
                          row_scale=scale, borders=borders, operator=lin)


def discretize(approx, degrees):
    """The linearized operator about the blended solution on the grid, as a
    BandedOperator without border.

    Derivative terms are mode-diagonal; the potential couples modes through
    the quadrature projection of v_m^{p-1}.  Rows {0, 1, N-2, N-1} of each
    mode are replaced by clamp conditions on (w, w') at the two ends, as
    clamp borders of the bordered system's assembly.
    """
    degrees = _degrees(approx, degrees)
    N = len(approx.s)
    h = approx.field.h
    if N < stencil_size(4, STENCIL_ORDER):
        raise DomainError("grid too coarse for the requested stencil order")
    # w and its first EDGE - 1 derivatives at each end, in the slots' order
    jl, jr = (jet_rows(N, h, at, EDGE - 1, STENCIL_ORDER) for at in (0, N - 1))
    clamps = np.concatenate([jl, jr[::-1]])
    borders = [_ModeBorder(l, clamps, np.zeros((0, N)), None)
               for l in degrees]
    return _background_system(approx, degrees, borders).matrix


@dataclass
class RightInverseResult:
    u: CylField                  # v + sum alpha * basis field
    alpha: dict                  # (l, side, sign) -> amplitude (normalized cols)
    relResidual: float
    cond: float


COND_LIMIT = 1e13  # largest condition estimate a solve accepts


def _refined_solve(solve, matvec, b):
    """solve(b) and up to two steps of iterative refinement, each kept only
    while it reduces the residual b - matvec(x): in working precision the
    correction bottoms out at the residual-evaluation noise floor and can
    otherwise bounce."""
    x = solve(b)
    r = b - matvec(x)
    best = float(np.linalg.norm(r))
    for _ in range(2):
        cand = x + solve(r)
        r_cand = b - matvec(cand)
        n_cand = float(np.linalg.norm(r_cand))
        if n_cand >= best:
            break
        x, r, best = cand, r_cand, n_cand
    return x


def solve_right_inverse(sys, f):
    """Solve the bordered system for rhs field f; returns the correction
    u = v + B alpha with its amplitudes, the interior relative residual of
    u under sys.operator, and the condition estimate.

    The estimate is the 1-norm condition estimate (Hager-Higham, as in
    LAPACK gecon) of the row-equilibrated bordered matrix, taken from its
    LU factors; up to rounding it is a lower bound of the exact 1-norm
    condition.  Above COND_LIMIT (1e13) the solve raises
    IllConditionedError, and f with a nonzero mode outside sys.degrees,
    which the solve cannot reach, raises DomainError."""
    degrees = sys.degrees
    outside = [l for l, row in zip(f.degrees, f.coeffs)
               if l not in degrees and np.any(row)]
    if outside:
        raise DomainError(f"right-hand side has modes {outside} outside "
                          f"the system's degrees {degrees}")
    L, N = len(degrees), len(sys.approx.s)
    frows = f.rows(degrees)
    rhs = np.zeros(sys.matrix.shape[0])
    rhs[:L * N].reshape(N, L)[INTERIOR] = frows[:, INTERIOR].T
    lu, cond = sys.factor()
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError("bordered system is numerically singular",
                                  cond)
    x = _refined_solve(lu.solve,
                       lambda y: sys.matrix.matvec(y) / sys.row_scale,
                       rhs / sys.row_scale)
    uparts = x[:L * N].reshape(N, L).T.copy()
    alpha = {}
    amps = iter(x[L * N:].reshape(-1, 4))
    for a, b in enumerate(sys.borders):
        if b.Bcols is not None:
            al = next(amps)
            uparts[a] += b.Bcols @ al
            alpha.update(((b.l, side, sign), float(v))
                         for (side, sign), v in zip(_DEFICIENCY_LABELS, al))
    ufield = CylField(f.constants, f.t, degrees, uparts)
    # interior residual of the reconstructed solution
    Lu = _apply(sys.operator, ufield)
    sup_f = float(np.max(np.abs(frows)))
    num = float(np.max(np.abs(Lu.coeffs[:, INTERIOR] - frows[:, INTERIOR])))
    rel = num / sup_f if sup_f > 0 else num
    return RightInverseResult(u=ufield, alpha=alpha,
                              relResidual=rel, cond=cond)


# ----------------------------------------------------------------------
# nonlinear pieces


def remainder(approx, correction):
    """Quadratic remainder of the curvature operator:
    R(v) = N(b + v) - N(b) - L_b(v) = -cN b^p r(v/b) with
    r(x) = (1+x)^p - 1 - p x, evaluated pointwise with the stable series and
    projected back to modes.  Derivative terms cancel exactly, so only the
    power remainder survives.  It acts on the union of the blend's and the
    correction's degrees, so the nonlinearity's products of correction modes
    the blend lacks are kept."""
    consts = approx.config.constants
    bg = approx.field.padded(correction.degrees)
    basis = bg.basis()
    bvals = basis.reconstruct(bg.coeffs)
    if np.any(bvals <= 0):
        raise DomainError("background must be positive")
    cvals = basis.reconstruct(correction.rows(bg.degrees))
    tot = bvals + cvals
    if np.any(tot <= 0):
        raise DomainError("corrected conformal factor is not positive")
    rvals = -consts.cN * bvals ** consts.p * stable_power_remainder(
        cvals / bvals, consts.p)
    return replace(bg, coeffs=basis.project(rvals))


@dataclass
class IterationTrace:
    rows: list  # (k, defectSup, corrSup, ratio)


@dataclass
class IterateResult:
    solution: CylField
    correction: CylField
    defectField: CylField        # f0 + L u + R(u) at the correction u
    trace: IterationTrace
    initialDefect: float
    finalDefect: float
    converged: bool
    scheme: str
    alpha: dict                  # amplitudes of the whole correction
    cond: float
    solveResidual: float         # largest relResidual of the run's solves


def _interior_sup(fld):
    """Sup norm over the INTERIOR rows, where the discrete equation holds."""
    return float(np.max(np.abs(fld.point_values()[INTERIOR])))


def iterate(approx, scheme="picard", tol=1e-9, max_iter=25, degrees=None,
            min_iter=1):
    """Drive the blend to a numerically constant-curvature field.

    Both schemes step u += G(-(f0 + L u + R(u))), the bordered right inverse
    of the total defect, and sum the steps' amplitudes into alpha.  picard
    keeps the blend's system: the chord method, which is Picard's map
    u_{k+1} = -G(f0 + R(u_k)), since G reads only interior rows, where
    L G = I, so G L u = u on G's range, which holds every iterate.  newton
    re-assembles the background rows about each iterate; the orbit-side
    border is built once.  The defect is the curvature residual relative to
    the modeled-exact end fields, evaluated in perturbation form throughout
    (see gluing.defect) and measured on the interior collocation points;
    below 1e-30 it counts as zero, and a blend there takes no step and
    builds no system (cond and solveResidual NaN).  The correction carries
    the requested degrees (default the blend's), padded into the defect as
    zero modes; leaving out a blend degree raises DomainError, as no step
    would touch its defect.  min_iter forces extra steps so contraction
    ratios are observable even when the first step already reaches the
    floor; one above max_iter raises DomainError; three consecutive
    contraction ratios >= 1 raise NumericalError.  f0 is evaluated once and
    each iterate's remainder once; the blend system's linearization serves
    every total defect, and the last one (f0 when no step runs) is returned
    as defectField, whose interior sup is finalDefect.  f0 and the blend's
    system, factors included, are those the last blend built keeps
    (gluing.build_approximate).
    """
    degrees = _degrees(approx, degrees)
    missing = sorted(set(approx.field.degrees) - set(degrees))
    if missing:
        raise DomainError(f"the correction must carry every blend degree; "
                          f"{missing} missing from {degrees}")
    if scheme not in ("picard", "newton"):
        raise DomainError(f"unknown scheme {scheme!r}")
    if min_iter > max_iter:
        raise DomainError(f"min_iter {min_iter} exceeds max_iter {max_iter}")
    f0 = defect(approx).residual.padded(degrees)
    u = CylField(f0.constants, f0.t, degrees,
                 np.zeros((len(degrees), len(f0.t))))
    d0 = _interior_sup(f0)
    rows = [(0, d0, 0.0, float("nan"))]
    # below the floor the blend is exact: no system is built, no step taken
    steps = range(1, max_iter + 1) if d0 > 1e-30 else range(0)
    converged = not steps
    sys0 = sys_k = bordered_system(approx, degrees=degrees) if steps else None
    alpha, resids, prev_corr, bad = {}, [], None, 0
    defect_now, total = d0, f0     # the total defect at u = 0 is f0
    for k in steps:
        # Newton re-assembles the background rows about the current iterate
        # (the orbit-side border does not depend on the field); its first
        # step starts from u = 0, the blend itself, where sys0 serves.
        if scheme == "newton" and k > 1:
            sys_k = _background_system(
                replace(approx, field=approx.field + u), degrees, sys0.borders)
        res = solve_right_inverse(sys_k, total * -1.0)
        resids.append(res.relResidual)
        u_next = u + res.u
        # the correction sums the increments, and alpha their amplitudes
        alpha = {key: alpha.get(key, 0.0) + a for key, a in res.alpha.items()}
        corr = _interior_sup(u_next - u)
        u = u_next
        # N(v_m + u) - blended end defects = f0 + L_m(u) + R_m(u)
        total = f0 + _apply(sys0.operator, u) + remainder(approx, u)
        defect_now = _interior_sup(total)
        ratio = corr / prev_corr if prev_corr not in (None, 0.0) else float("nan")
        rows.append((k, defect_now, corr, ratio))
        # Stagnation: the step is negligible next to the iterate, or the
        # defect stopped decreasing while the steps are still smaller than
        # the first one.  The latter is the defect's rounding floor, where
        # contraction ratios are noise; a diverging iteration has steps
        # growing past the first and is caught below.
        stagnated = (corr <= 1e-13 * max(_interior_sup(u), 1e-300)
                     or (k >= 2 and defect_now >= rows[-2][1]
                         and corr < rows[1][2]))
        if k >= min_iter and (defect_now < tol or defect_now < 1e-30
                              or stagnated):
            converged = True
            break
        if np.isfinite(ratio) and ratio >= 1.0:
            bad += 1
            if bad >= 3:
                raise NumericalError(
                    f"iteration diverged: contraction ratio >= 1 for three "
                    f"consecutive steps (trace: {rows})")
        else:
            bad = 0
        prev_corr = corr
    return IterateResult(solution=approx.field + u, correction=u,
                         defectField=total, trace=IterationTrace(rows),
                         initialDefect=d0, finalDefect=defect_now,
                         converged=converged, scheme=scheme, alpha=alpha,
                         cond=sys0.factor()[1] if steps else float("nan"),
                         solveResidual=max(resids, default=float("nan")))


def verify_correction(result):
    """Curvature residual of iterate's corrected field v relative to the
    modeled-exact end fields, read from the iteration's own final total
    defect r = result.defectField, without evaluating it again.  Returns the
    interior sups of r (result.finalDefect) and of the curvature deviation
    psi = (2/(n-4)) v^{-p} r, v over r's degrees."""
    total = result.defectField
    consts = total.constants
    tv = total.point_values()
    vm = result.solution.point_values()
    psi = (2.0 / (consts.n - 4)) * vm ** (-consts.p) * tv
    return (float(np.max(np.abs(tv[INTERIOR]))),
            float(np.max(np.abs(psi[INTERIOR]))))


# ----------------------------------------------------------------------
# injectivity diagnostic


LANCZOS_STEPS = 100  # step cap of _lanczos_top; reaching it is an error


def _lanczos_top(apply, n):
    """Largest eigenvalue of the symmetric positive definite operator
    `apply` on R^n, by Lanczos with full reorthogonalization: two
    classical Gram-Schmidt passes against the stored basis (Golub and Van
    Loan, Matrix Computations, 4th ed., secs. 10.1 and 10.3).  The start
    vector is uniform on [-1, 1): n little-endian 32-bit words, drawn as
    one block of bytes from the standard library's random.Random(42), so
    the diagnostic loads no numpy.random.  Each step takes the eigenvalues
    theta of the tridiagonal T_k and stops once the top Ritz pair's
    residual beta_k |y_k[-1]| is at most 1e-12 theta; NumericalError if
    min(n, LANCZOS_STEPS) steps do not get there."""
    steps = min(n, LANCZOS_STEPS)
    Q = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    words = np.frombuffer(random.Random(42).randbytes(4 * n), dtype="<u4")
    q = words * 2.0 ** -31 - 1.0
    Q[0] = q / np.linalg.norm(q)
    for k in range(steps):
        w = apply(Q[k])
        alpha[k] = Q[k] @ w
        for _ in range(2):
            w -= Q[:k + 1].T @ (Q[:k + 1] @ w)
        beta[k] = np.linalg.norm(w)
        T = (np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1)
             + np.diag(beta[:k], -1))
        theta, Y = np.linalg.eigh(T)
        if beta[k] * abs(Y[-1, -1]) <= 1e-12 * theta[-1]:
            return float(theta[-1])
        if k + 1 < steps:
            Q[k + 1] = w / beta[k]
    raise NumericalError(f"Lanczos did not converge in {steps} steps")


@dataclass
class NondegeneracyResult:
    sigmaMin: float
    perMode: dict
    delta: float
    deltaPrime: float


def nondegeneracy_diag(approx, correction=None, delta=WEIGHT_RATE,
                       delta_prime=None, degrees=None):
    """Smallest singular value of the weighted linearized operator of the
    corrected solution restricted to decaying boundary conditions.

    The weight follows the injectivity normalization: a cosh-power profile
    cosh^delta(mT)/cosh^delta(s) on the neck, matched to e^{-delta' (|s|-mT')}
    decay on the end strips beyond the overlap; delta' defaults to the
    midpoint of (1, delta).  No reference value exists; the number is a
    resolution-stable measurement.

    Decay at the truncated ends is imposed in the clamped form (w = w' = 0):
    each mode factors its own tile of `discretize`, a band of half-width 8
    at the stencil order 8, with LAPACK's banded LU (BandLU).  The softer
    spectral closure (jets restricted to the strictly decaying directions)
    admits the one-end decaying solution, whose far-end violation
    e^{-gamma(2m+1)T} underflows: the smallest singular value would then
    measure truncation noise of that near-kernel mode instead of an
    injectivity modulus.

    The conjugated matrix is strongly graded (the weight spans e^{delta m T}),
    so its smallest singular value is computed as 1/|W^{-1}|, with |W^{-1}|^2
    the largest eigenvalue of W^{-T} W^{-1}, from backward-stable banded LU
    solves and Lanczos (_lanczos_top) to a converged Ritz value; a direct SVD
    bottoms out at eps times the largest singular value and reports grading
    noise.  A Lanczos that does not converge raises NumericalError.
    """
    if delta <= 1:
        raise DomainError("the weight rate must exceed 1")
    if delta_prime is None:
        delta_prime = 0.5 * (1.0 + delta)
    degrees = _degrees(approx, degrees)
    cfg = approx.config
    background = approx if correction is None else replace(
        approx, field=approx.field + correction)
    s = approx.s
    N = len(s)
    neck, scale = cfg.neck, cfg.weightScale
    rho = np.exp(np.where(
        np.abs(s) <= neck, log_annulus_weight(s, delta, scale),
        log_annulus_weight(neck, delta, scale)
        - delta_prime * (np.abs(s) - neck)))
    inv_rho = 1.0 / rho

    per_mode = {}
    for l in degrees:
        lu = BandLU(discretize(background, degrees=(l,)), np.ones(N))

        def apply_inv(z):          # W^{-1} z with W = D_rho^{-1} A D_rho
            return inv_rho * lu.solve(rho * z)

        def apply_inv_t(z):
            return rho * lu.solve(inv_rho * z, trans=1)

        per_mode[l] = float(1.0 / np.sqrt(
            _lanczos_top(lambda z: apply_inv_t(apply_inv(z)), N)))
    return NondegeneracyResult(sigmaMin=min(per_mode.values()),
                               perMode=per_mode, delta=delta,
                               deltaPrime=delta_prime)
