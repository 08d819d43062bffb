"""Discrete linearized operator of the blended solution, the bordered right
inverse with deficiency amplitudes, the correction iteration, and the
injectivity diagnostic of the corrected solution.

One operator matrix serves both closures: its boundary rows {0, 1, N-2, N-1}
per mode take clamp rows (discretize) or the mode's border rows (the
bordered right inverse).  Boundary closure of the right inverse (per mode,
per end): the interior unknown may only carry asymptotics that decay into
the domain faster than the weight rate 1.5.  This is expressed as jet
conditions in a frame of the multiplier > e^{1.5 T} subspaces of the
one-period flow and its inverse (one sorted Schur form each) and, in modes
0 and 1, the generator pair, all realized as discrete jets (window solutions
sampled by integration and differentiated with the same one-sided stencils
as the condition rows, so sampled solutions are annihilated exactly).  Slow
and neutral directions are carried by amplitudes of cutoff generator fields
anchored at each end; two gauge rows per deficiency-carrying mode make the
system square and kill the bounded null space by minimizing the
annulus-weighted size of the decaying part over kernel shifts.  The gauge
rows vanish on solutions with zero kernel content, so consistent compactly
supported problems are reproduced exactly.
"""

from dataclasses import dataclass, replace
import numpy as np
from scipy.linalg import lu_factor, lu_solve, schur

from .errors import DomainError, IllConditionedError, NumericalError
from .fd import jet_rows, stencil_size
from .gauges import (CylField, angular_basis, paneitz_mode_apply,
                     paneitz_mode_matrix)
from .delaunay import _mode_flow_rhs, sample_contiguous
from .jacobi import ModeOperator, generators, monodromy_data, smooth_step
from .gluing import STENCIL_ORDER, ApproxSolution, defect, \
    log_annulus_weight, stable_power_remainder, weighted_norm

__all__ = [
    "discretize", "BorderedSystem", "bordered_system",
    "solve_right_inverse", "RightInverseResult", "remainder", "iterate",
    "IterationTrace", "IterateResult", "estimate_g_norm",
    "nondegeneracy_diag", "NondegeneracyResult", "linear_apply",
    "verify_correction",
]


# ----------------------------------------------------------------------
# pointwise potential with angular coupling


def _coupling_tensor(background, degrees):
    """C[a, b, i]: mode-a projection of v^{p-1}(t_i, .) times phi_b, the exact
    Jacobian of the projected nonlinearity under quadrature."""
    consts = background.constants
    basis = background.basis()
    vp1 = basis.reconstruct(background.coeff_matrix()) ** (consts.p - 1.0)
    # evaluate phi on the shared quadrature nodes for the requested degrees
    full = angular_basis(consts.n, tuple(degrees), len(basis.nodes))
    L1 = len(degrees)
    C = np.empty((L1, L1, len(background.t)))
    for a in range(L1):
        for b in range(L1):
            integ = (vp1 * (full.phi[a] * full.phi[b] * full.weights)).sum(axis=1)
            C[a, b] = integ / full.norm2[a]
    return C


def linear_apply(background, u):
    """Linearization of the curvature operator about `background` applied to
    u: per-mode derivative parts minus K times the pointwise-potential
    coupling (quadrature projected)."""
    consts = background.constants
    degrees = u.degrees
    C = _coupling_tensor(background, degrees)
    coeff = u.coeff_matrix()
    out = {}
    for a, l in enumerate(degrees):
        lin = paneitz_mode_apply(consts, consts.lam(l), coeff[a], u.h,
                                 acc=STENCIL_ORDER)
        pot = np.zeros_like(coeff[a])
        for b in range(len(degrees)):
            pot += C[a, b] * coeff[b]
        out[l] = lin - consts.K * pot
    return u.like(out)


# ----------------------------------------------------------------------
# operator matrix and its clamped closure


def _operator_matrix(field, degrees, extra=0):
    """Dense matrix of linear_apply about `field`, one mode-operator block
    per mode minus K times the coupling on the block diagonals, padded by
    `extra` zero rows and columns."""
    consts = field.constants
    N = len(field.t)
    C = _coupling_tensor(field, degrees)
    L1 = len(degrees)
    matrix = np.zeros((L1 * N + extra, L1 * N + extra))
    diag = np.arange(N)
    for a, l in enumerate(degrees):
        block = slice(a * N, (a + 1) * N)
        matrix[block, block] = paneitz_mode_matrix(consts, consts.lam(l), N,
                                                   field.h, acc=STENCIL_ORDER)
        for b in range(L1):
            matrix[a * N + diag, b * N + diag] -= consts.K * C[a, b]
    return matrix


def discretize(approx, degrees=None):
    """The square matrix of the linearized operator about the blended
    solution on the grid, one banded block per mode.

    Derivative terms are mode-diagonal; the potential couples modes through
    the quadrature projection of v_m^{p-1}.  Rows {0, 1, N-2, N-1} of each
    mode block are replaced by clamp conditions on (w, w') at the two ends.
    """
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    N = len(approx.s)
    h = approx.field.h
    if N < stencil_size(4, STENCIL_ORDER):
        raise DomainError("grid too coarse for the requested stencil order")
    matrix = _operator_matrix(approx.field, degrees)
    jl = jet_rows(N, h, 0, max_deriv=1, acc=STENCIL_ORDER)
    jr = jet_rows(N, h, N - 1, max_deriv=1, acc=STENCIL_ORDER)
    clamps = np.stack([jl[0], jl[1], jr[1], jr[0]])
    for a in range(len(degrees)):
        boundary = a * N + np.array([0, 1, N - 2, N - 1])
        matrix[boundary] = 0.0
        matrix[boundary, a * N:(a + 1) * N] = clamps
    return matrix


# ----------------------------------------------------------------------
# bordered system


def _invariant_subspace(M, k, thresh):
    """Orthonormal basis of the invariant subspace of the k multipliers with
    |mu| > thresh, via a sorted real Schur form."""
    def big(re, im):
        return np.hypot(re, im) > thresh

    _, Z, sdim = schur(M, output="real", sort=big)
    if sdim != k:
        raise NumericalError(
            f"expected {k} multipliers beyond {thresh:.3e}, found {sdim}")
    return Z[:, :k]


# (side, sign) of the four deficiency columns of a mode, in column order
_DEFICIENCY_LABELS = (("L", "+"), ("L", "-"), ("R", "+"), ("R", "-"))


@dataclass
class _ModeBorder:
    l: int
    rows: np.ndarray           # jet-condition rows, then gauge rows, on v
    Bcols: np.ndarray | None   # deficiency columns (N, 4), normalized


@dataclass
class BorderedSystem:
    """Square linear system in the unknowns (grid values per mode,
    deficiency amplitudes per mode): the operator matrix whose boundary rows
    {0, 1, N-2, N-1} of each mode hold that mode's first four border rows,
    with the remaining border rows appended below."""

    approx: ApproxSolution
    degrees: tuple
    matrix: np.ndarray
    row_scale: np.ndarray
    borders: list             # per mode: _ModeBorder, orbit side only
    _lu: tuple = None
    _cond: float = None

    def factor(self):
        """LU factors of the row-equilibrated matrix and its 1-norm
        condition estimate from the same factors, computed once.  The
        equilibrated matrix lives in one Fortran-order buffer: it first
        holds |A|/row_scale for the 1-norm, then A/row_scale, which is
        factored in place."""
        if self._lu is None:
            scale = self.row_scale[:, None]
            buf = np.empty_like(self.matrix, order="F")
            np.divide(np.abs(self.matrix, out=buf), scale, out=buf)
            anorm = float(np.max(np.sum(buf, axis=0)))
            np.divide(self.matrix, scale, out=buf)
            self._lu = lu_factor(buf, overwrite_a=True)
            cond = float("inf")
            if np.all(np.diagonal(buf) != 0.0):
                cond = anorm * _inv_norm1(self._lu)
            self._cond = cond if np.isfinite(cond) else float("inf")
        return self._lu, self._cond


def _inv_norm1(lu):
    """Hager-Higham lower estimate of ||A^{-1}||_1 from the LU factors of A
    in O(N^2): the iteration of LAPACK's dlacn2 (Higham 1988, Alg. 4.1)
    behind gecon, written over lu_solve.  gecon itself sums with BLAS dasum,
    whose rounding depends on the heap address of its work array, so its
    estimate of one matrix can differ in the last digit from call to call
    within a process."""
    n = len(lu[1])
    x = np.full(n, 1.0 / n)
    est, sign = 0.0, None
    for _ in range(5):
        y = lu_solve(lu, x)
        new_est = float(np.sum(np.abs(y)))
        new_sign = np.where(y >= 0.0, 1.0, -1.0)
        if new_est <= est or (sign is not None
                              and np.array_equal(new_sign, sign)):
            est = max(est, new_est)
            break
        est, sign = new_est, new_sign
        z = lu_solve(lu, sign, trans=1)
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:
            break
        x = np.zeros(n)
        x[j] = 1.0
    # Higham's extra probe with alternating signs and growing magnitudes
    alt = 1.0 + np.arange(n) / max(n - 1, 1)
    alt[1::2] *= -1.0
    return max(est, 2.0 * float(np.sum(np.abs(lu_solve(lu, alt)))) / (3 * n))


def _window_solution(op, t0, t_nodes, jet0):
    """Sample the mode-ODE solutions with the initial jets `jet0` (4, k) at
    t0 over the window nodes (any direction), as one flow of the orbit from
    its jet at t0 with k jets; returns (k, len(t_nodes)).  Windows are about
    a stencil wide, so both decaying and growing directions stay
    representable."""
    y0 = np.concatenate([op.orbit.jet(t0, max_deriv=3), jet0.reshape(-1)])
    k = jet0.shape[1]
    return sample_contiguous(_mode_flow_rhs(op.constants, op.lam, k), t0, y0,
                             t_nodes, np.inf,
                             "window sampling of a frame solution failed"
                             )[4:4 + k]


def _mode_border(approx, basis, l):
    """Jet-condition rows, deficiency columns and gauge rows of mode l: the
    orbit side of the bordered system, which depends on the orbit, the
    overlap and the grid but not on the background field.

    Frames are built from discrete jets: each frame direction is sampled as
    an actual solution over the end window and its jet extracted with the
    same one-sided stencils the condition rows use, so the rows annihilate
    sampled solutions exactly.  (With analytic jets the extraction truncation
    of the steep directions, (gamma h)^8, lets the solve hide an amplified
    spurious boundary layer of that relative size.)

    Gauge rows fix the bounded-null-space freedom by minimizing the
    annulus-weighted norm of the decaying part over kernel shifts (normal
    equations of that quadratic in the kernel coordinates); this keeps
    neutral content out of the neck middle, where the weight would amplify
    it, and selects the representative whose amplitudes sit at the end the
    data actually excites.
    """
    cfg = approx.config
    orbit = cfg.orbit
    consts = cfg.constants
    s = approx.s
    N = len(s)
    h = approx.field.h
    T = orbit.period
    phase = (cfg.m + 0.5) * T
    op = ModeOperator(orbit, consts.lam(l))
    # fast directions: multipliers beyond the weight rate e^{1.5 T}
    thresh = np.exp(1.5 * T)

    jl = jet_rows(N, h, 0, max_deriv=3, acc=STENCIL_ORDER)
    jr = jet_rows(N, h, N - 1, max_deriv=3, acc=STENCIL_ORDER)

    has_deficiency = l <= 1
    n_dec = 1 if has_deficiency else 2

    win = stencil_size(3, STENCIL_ORDER)
    frames = {}
    for side, i_end, jet in (("L", 0, jl), ("R", N - 1, jr)):
        end_s = s[i_end]
        t0 = end_s + phase
        win_nodes = (s[:win] if side == "L" else s[N - win:]) + phase
        data = monodromy_data(op, t0=t0)
        # fast directions from both one-period flows; the slow and neutral
        # ones of modes 0 and 1 from the analytic generators
        dec = _invariant_subspace(data.backward, n_dec, thresh)
        grow = _invariant_subspace(data.matrix, n_dec, thresh)
        sol = list(_window_solution(op, t0, win_nodes,
                                    np.concatenate([dec, grow], axis=1)))
        samples = sol[:n_dec]
        if has_deficiency:
            samples += [basis.jet(l, sign, win_nodes)[0] for sign in "+-"]
        samples += sol[n_dec:]
        # discrete jets: extract with the same stencils the rows will use
        jet_win = jet[:, :win] if side == "L" else jet[:, N - win:]
        S = np.stack([jet_win @ w for w in samples], axis=1)
        col_scale = np.max(np.abs(S), axis=0)
        S = S / col_scale
        frames[side] = (np.linalg.inv(S), jet, col_scale)

    # conditions: kill all non-(strictly decaying) jet components of v
    rowsL = frames["L"][0][n_dec:, :] @ frames["L"][1]
    rowsR = frames["R"][0][n_dec:, :] @ frames["R"][1]
    cond = np.concatenate([rowsL, rowsR], axis=0)
    cond = cond / np.max(np.abs(cond), axis=1, keepdims=True)

    if not has_deficiency:
        return _ModeBorder(l=l, rows=cond, Bcols=None)

    # deficiency columns: cutoff global generator profiles at each end
    chiL = smooth_step((s - (s[0] + T / 2)) / (T / 2))
    chiR = smooth_step(((s[-1] - T / 2) - s) / (T / 2))
    plus_prof = basis.jet(l, "+", s + phase)[0]
    minus_prof = basis.jet(l, "-", s + phase)[0]
    raw = [chiL * plus_prof, chiL * minus_prof,
           chiR * plus_prof, chiR * minus_prof]
    scales = np.array([max(np.max(np.abs(c)), 1e-300) for c in raw])
    B = np.stack([c / sc for c, sc in zip(raw, scales)], axis=1)

    def pattern(samples):
        # discrete-jet coordinates of a kernel field's end asymptotics,
        # expressed as amplitudes of the sup-normalized deficiency columns
        out = np.zeros(4)
        for k, (side, sl) in ((0, ("L", slice(0, win))),
                              (2, ("R", slice(N - win, N)))):
            Sinv, jet, col_scale = frames[side]
            jet_win = jet[:, sl]
            coords = Sinv @ (jet_win @ samples[sl])
            out[k] = coords[1] / col_scale[1] * scales[k]
            out[k + 1] = coords[2] / col_scale[2] * scales[k + 1]
        return out

    patP = pattern(plus_prof)
    patM = pattern(minus_prof)
    # kernel fields in their canonical (v, alpha) split; gauge rows are the
    # weighted normal equations over kernel shifts, acting on v
    log_w = log_annulus_weight(s, 1.5, cfg.m * T)
    w2 = np.exp(2.0 * (log_w - np.max(log_w)))
    Kv = np.stack([plus_prof - B @ patP, minus_prof - B @ patM], axis=0)
    return _ModeBorder(l=l, rows=np.concatenate([cond, Kv * w2[None, :]]),
                       Bcols=B)


def bordered_system(approx, degrees=None):
    """Assemble the bordered right-inverse system about the blend: the
    orbit-side border of every mode, then the background rows."""
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    if approx.config.orbit.isConstant:
        raise DomainError("the bordered closure needs an interior orbit")
    basis = generators(approx.config.orbit, validate=False)
    borders = [_mode_border(approx, basis, l) for l in degrees]
    return _background_system(approx, degrees, borders)


def _background_system(approx, degrees, borders):
    """The bordered system about approx.field with the given orbit-side
    borders: the operator matrix padded by the deficiency amplitudes, the
    operator applied to the deficiency columns, then each mode's border rows
    in place of its boundary rows, and the row scale."""
    consts = approx.config.constants
    N = len(approx.s)
    h = approx.field.h
    extra = sum(4 for b in borders if b.Bcols is not None)
    A = _operator_matrix(approx.field, degrees, extra)
    C = _coupling_tensor(approx.field, degrees)

    # operator applied to the deficiency columns, in the stencil form
    # linear_apply uses (the matrix product differs from it by rounding);
    # written before the border rows, which overwrite their boundary rows
    col = len(degrees) * N
    for b, bb in enumerate(borders):
        if bb.Bcols is None:
            continue
        for w in bb.Bcols.T:
            A[b * N:(b + 1) * N, col] = paneitz_mode_apply(
                consts, consts.lam(bb.l), w, h, acc=STENCIL_ORDER)
            for a in range(len(degrees)):
                A[a * N:(a + 1) * N, col] -= consts.K * (C[a, b] * w)
            col += 1

    row = len(degrees) * N
    for a, bb in enumerate(borders):
        boundary = a * N + np.array([0, 1, N - 2, N - 1])
        A[boundary] = 0.0
        A[boundary, a * N:(a + 1) * N] = bb.rows[:4]
        rest = len(bb.rows) - 4
        A[row:row + rest, a * N:(a + 1) * N] = bb.rows[4:]
        row += rest

    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    return BorderedSystem(approx=approx, degrees=degrees,
                          matrix=A, row_scale=scale, borders=borders)


@dataclass
class RightInverseResult:
    u: CylField                  # v + sum alpha * basis field
    alpha: dict                  # (l, side, sign) -> amplitude (normalized cols)
    relResidual: float
    cond: float


def solve_right_inverse(sys, f, cond_limit=1e13):
    """Solve the bordered system for rhs field f; returns the correction with
    its deficiency amplitudes, the interior relative residual, and the
    condition estimate.

    The estimate is the 1-norm condition estimate (Hager-Higham, as in
    LAPACK gecon) of the row-equilibrated bordered matrix, taken from its
    LU factors; up to rounding it is a lower bound of the exact 1-norm
    condition.  Above cond_limit (1e13) the solve raises
    IllConditionedError."""
    degrees = sys.degrees
    N = len(sys.approx.s)
    have = {m.l: m.samples for m in f.modes}
    zeros = np.zeros(N)
    rhs = np.zeros(sys.matrix.shape[0])
    for a, l in enumerate(degrees):
        rhs[a * N + 2:(a + 1) * N - 2] = have.get(l, zeros)[2:N - 2]
    lu, cond = sys.factor()
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditionedError("bordered system is numerically singular",
                                  cond)
    beq = rhs / sys.row_scale
    x = lu_solve(lu, beq)
    # iterative refinement, kept only while it actually reduces the
    # residual: in working precision the correction bottoms out at the
    # residual-evaluation noise floor and can otherwise bounce
    r = beq - (sys.matrix @ x) / sys.row_scale
    best = float(np.linalg.norm(r))
    for _ in range(2):
        cand = x + lu_solve(lu, r)
        r_cand = beq - (sys.matrix @ cand) / sys.row_scale
        n_cand = float(np.linalg.norm(r_cand))
        if n_cand >= best:
            break
        x, r, best = cand, r_cand, n_cand
    uparts = {l: x[a * N:(a + 1) * N].copy() for a, l in enumerate(degrees)}
    alpha = {}
    off = len(degrees) * N
    for a, b in enumerate(sys.borders):
        if b.Bcols is None:
            continue
        al = x[off:off + 4]
        off += 4
        uparts[b.l] = uparts[b.l] + b.Bcols @ al
        for k, (side, sign) in enumerate(_DEFICIENCY_LABELS):
            alpha[(b.l, side, sign)] = float(al[k])
    ufield = CylField.from_modes(f.constants, f.t, uparts)
    # interior residual of the reconstructed solution
    Lu = linear_apply(sys.approx.field, ufield)
    sup_f = max(np.max(np.abs(fv)) for fv in
                ([have.get(l, zeros) for l in degrees]))
    num = 0.0
    for l in degrees:
        r = Lu.mode(l).samples[2:N - 2] - have.get(l, zeros)[2:N - 2]
        num = max(num, float(np.max(np.abs(r))))
    rel = num / sup_f if sup_f > 0 else num
    return RightInverseResult(u=ufield, alpha=alpha,
                              relResidual=rel, cond=cond)


def estimate_g_norm(approx, degrees=(0,), delta=1.5):
    """Operator-norm estimate of the right inverse from seeded smooth probe
    data, both norms weighted with the annulus weight at rate delta.

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
            nf = weighted_norm(f, delta, scale)
            nu = weighted_norm(res.u, delta, scale) + sum(
                abs(v) for v in res.alpha.values())
            best = max(best, nu / nf)
    return best


# ----------------------------------------------------------------------
# nonlinear pieces


def remainder(approx, correction):
    """Quadratic remainder of the curvature operator:
    R(v) = N(b + v) - N(b) - L_b(v) = -cN b^p r(v/b) with
    r(x) = (1+x)^p - 1 - p x, evaluated pointwise with the stable series and
    projected back to modes.  Derivative terms cancel exactly, so only the
    power remainder survives."""
    consts = approx.config.constants
    bg = approx.field
    basis = bg.basis()
    bvals = basis.reconstruct(bg.coeff_matrix())
    if np.any(bvals <= 0):
        raise DomainError("background must be positive")
    have = {m.l: m.samples for m in correction.modes}
    zeros = np.zeros_like(bg.t)
    cvals = basis.reconstruct(np.stack(
        [have.get(l, zeros) for l in bg.degrees], axis=0))
    tot = bvals + cvals
    if np.any(tot <= 0):
        raise DomainError("corrected conformal factor is not positive")
    rvals = -consts.cN * bvals ** consts.p * stable_power_remainder(
        cvals / bvals, consts.p)
    coeffs = basis.project(rvals)
    return bg.like(dict(zip(bg.degrees, coeffs)))


@dataclass
class IterationTrace:
    rows: list  # (k, defectSup, corrSup, ratio)


@dataclass
class IterateResult:
    solution: CylField
    correction: CylField
    trace: IterationTrace
    initialDefect: float
    finalDefect: float
    converged: bool
    scheme: str
    alpha: dict                  # amplitudes of the whole correction
    cond: float = float("nan")


def _zero_like(fld, degrees):
    return CylField.from_modes(fld.constants, fld.t,
                               {l: np.zeros_like(fld.t) for l in degrees})


def _total_defect(approx, f0, u):
    """N(v_m + u) - blended end defects = f0 + L_m(u) + R_m(u), each piece at
    perturbation scale."""
    Lu = linear_apply(approx.field, u)
    Ru = remainder(approx, u)
    return f0 + Lu + Ru


def _interior_sup(fld, trim=2):
    """Sup norm over the interior collocation points (the discrete equation
    is not imposed on the trimmed boundary slots)."""
    vals = fld.point_values()
    return float(np.max(np.abs(vals[trim:len(fld.t) - trim])))


def iterate(approx, scheme="picard", tol=1e-9, max_iter=25, degrees=None,
            min_iter=1):
    """Drive the blend to a numerically constant-curvature field.

    picard: u_{k+1} = -G(f0 + R(u_k)) with the right inverse frozen at the
    blend; newton: only the background rows of the bordered system are
    re-assembled at each iterate, the orbit-side border is built once.  The
    defect is the curvature residual relative to the modeled-exact end
    fields, evaluated in perturbation form throughout (see gluing.defect) and
    measured on the interior collocation points; below 1e-30 it counts as
    zero.  min_iter forces extra steps so contraction ratios are observable
    even when the first step already reaches the floor.
    """
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    if scheme not in ("picard", "newton"):
        raise DomainError(f"unknown scheme {scheme!r}")
    f0 = defect(approx).residual
    missing = [l for l in degrees if l not in f0.degrees]
    if missing:
        f0 = f0 + _zero_like(approx.field, missing)
    u = _zero_like(approx.field, degrees)
    d0 = _interior_sup(f0)
    rows = [(0, d0, 0.0, float("nan"))]
    if d0 <= 1e-30:
        return IterateResult(solution=approx.field.copy(), correction=u,
                             trace=IterationTrace(rows), initialDefect=d0,
                             finalDefect=d0, converged=True, scheme=scheme,
                             alpha={}, cond=float("nan"))
    sys0 = bordered_system(approx, degrees=degrees)
    alpha = {}
    prev_corr = None
    bad = 0
    defect_now = d0
    converged = False
    for k in range(1, max_iter + 1):
        if scheme == "picard":
            rhs = f0 + remainder(approx, u)
            res = solve_right_inverse(sys0, rhs * -1.0)
            u_next = res.u
            alpha = res.alpha
        else:
            if k == 1:  # later steps reuse the defect of the previous one
                total = _total_defect(approx, f0, u)
            # re-assemble the background rows about the current iterate;
            # the orbit-side border does not depend on the field.  The
            # first step starts from u = 0, the blend itself: sys0 serves.
            sys_k = sys0 if k == 1 else _background_system(
                replace(approx, field=approx.field + u), degrees, sys0.borders)
            res = solve_right_inverse(sys_k, total * -1.0)
            u_next = u + res.u
            # the correction sums the increments, and alpha their amplitudes
            alpha = {key: alpha.get(key, 0.0) + a
                     for key, a in res.alpha.items()}
        corr = _interior_sup(u_next - u)
        u = u_next
        total = _total_defect(approx, f0, u)
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
                              or corr == 0.0 or stagnated):
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
                         trace=IterationTrace(rows), initialDefect=d0,
                         finalDefect=defect_now, converged=converged,
                         scheme=scheme, alpha=alpha,
                         cond=sys0.factor()[1])


def verify_correction(approx, correction):
    """Independent curvature residual of the corrected field, relative to the
    modeled-exact end fields (recomputed from scratch in perturbation form).
    Returns (residual sup, deviation-units sup)."""
    f0 = defect(approx).residual
    missing = [l for l in correction.degrees if l not in f0.degrees]
    if missing:
        f0 = f0 + _zero_like(approx.field, missing)
    total = _total_defect(approx, f0, correction)
    consts = approx.config.constants
    tv = total.point_values()
    vm = (approx.field + correction).point_values()
    if tv.shape != vm.shape:
        raise NumericalError("quadrature node sets differ between fields")
    psi = (2.0 / (consts.n - 4)) * vm ** (-consts.p) * tv
    sl = slice(2, len(approx.field.t) - 2)
    return float(np.max(np.abs(tv[sl]))), float(np.max(np.abs(psi[sl])))


# ----------------------------------------------------------------------
# injectivity diagnostic


@dataclass
class NondegeneracyResult:
    sigmaMin: float
    perMode: dict
    delta: float
    deltaPrime: float


def nondegeneracy_diag(approx, correction=None, delta=1.5, delta_prime=None,
                       degrees=None):
    """Smallest singular value of the weighted linearized operator of the
    corrected solution restricted to decaying boundary conditions.

    The weight follows the injectivity normalization: a cosh-power profile
    cosh^delta(mT)/cosh^delta(s) on the neck, matched to e^{-delta' (|s|-mT')}
    decay on the end strips beyond the overlap; delta' defaults to the
    midpoint of (1, delta).  No reference value exists; the number is a
    resolution-stable measurement.

    Decay at the truncated ends is imposed in the clamped form (w = w' = 0):
    each mode factors its own tile of `discretize`.  The softer spectral
    closure (jets restricted to the strictly decaying directions) admits the
    one-end decaying solution, whose far-end violation e^{-gamma(2m+1)T}
    underflows: the smallest singular value would then measure truncation
    noise of that near-kernel mode instead of an injectivity modulus.

    The conjugated matrix is strongly graded (the weight spans e^{delta m T}),
    so its smallest singular value is computed as 1/|W^{-1}| via backward-
    stable LU solves and inverse power iteration; a direct SVD bottoms out at
    eps times the largest singular value and reports grading noise.
    """
    if delta <= 1:
        raise DomainError("the weight rate must exceed 1")
    if delta_prime is None:
        delta_prime = 0.5 * (1.0 + delta)
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    cfg = approx.config
    background = approx if correction is None else replace(
        approx, field=approx.field + correction)
    s = approx.s
    N = len(s)
    scale = cfg.m * cfg.period
    neck = (cfg.m + 0.5) * cfg.period
    rho = np.exp(np.where(
        np.abs(s) <= neck, log_annulus_weight(s, delta, scale),
        log_annulus_weight(neck, delta, scale)
        - delta_prime * (np.abs(s) - neck)))
    inv_rho = 1.0 / rho

    per_mode = {}
    for l in degrees:
        lu = lu_factor(discretize(background, degrees=(l,)))

        def apply_inv(z):          # W^{-1} z with W = D_rho^{-1} A D_rho
            return inv_rho * lu_solve(lu, rho * z)

        def apply_inv_t(z):
            return rho * lu_solve(lu, inv_rho * z, trans=1)

        rng = np.random.default_rng(42)
        z = rng.standard_normal(N)
        z /= np.linalg.norm(z)
        lam_prev = 0.0
        lam = 0.0
        for _ in range(200):
            w = apply_inv_t(apply_inv(z))
            lam = np.linalg.norm(w)
            z = w / lam
            if abs(lam - lam_prev) <= 1e-10 * lam:
                break
            lam_prev = lam
        per_mode[l] = float(1.0 / np.sqrt(lam))
    return NondegeneracyResult(sigmaMin=min(per_mode.values()),
                               perMode=per_mode, delta=delta,
                               deltaPrime=delta_prime)
