"""Discrete linearized operator of the blended solution, the bordered right
inverse with deficiency amplitudes, the correction iteration, and the
injectivity diagnostic of the corrected solution.

Boundary closure of the right inverse (per mode, per end): the interior
unknown may only carry asymptotics that decay into the domain faster than
the weight rate.  This is expressed as jet conditions in a frame whose
directions are the fast invariant subspaces of the one-period flow and the
generator pair, all realized as discrete jets (window solutions sampled by
integration and differentiated with the same one-sided stencils as the
condition rows, so sampled solutions are annihilated exactly).  Slow and
neutral directions are carried by amplitudes of cutoff generator fields
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
from .delaunay import sample_contiguous
from .jacobi import (CutoffSpec, ModeOperator, monodromy_data, generators,
                     JacobiBasis, dominant_direction)
from .gluing import ApproxSolution, defect, log_annulus_weight, \
    stable_power_remainder, weighted_norm

__all__ = [
    "DiscreteJacobi", "discretize", "BorderedSystem", "bordered_system",
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


def linear_apply(background, u, acc=8):
    """Linearization of the curvature operator about `background` applied to
    u: per-mode derivative parts minus K times the pointwise-potential
    coupling (quadrature projected)."""
    consts = background.constants
    degrees = u.degrees
    C = _coupling_tensor(background, degrees)
    coeff = u.coeff_matrix()
    out = {}
    for a, l in enumerate(degrees):
        lin = paneitz_mode_apply(consts, consts.lam(l), coeff[a], u.h, acc=acc)
        pot = np.zeros_like(coeff[a])
        for b in range(len(degrees)):
            pot += C[a, b] * coeff[b]
        out[l] = lin - consts.K * pot
    return u.like(out)


# ----------------------------------------------------------------------
# clamped discretization


@dataclass
class DiscreteJacobi:
    """Per-mode banded matrices of the linearized operator on the grid, with
    boundary rows clamping w and w' at both ends."""

    approx: ApproxSolution
    degrees: tuple
    acc: int
    matrix: np.ndarray        # assembled square matrix with clamp rows
    clamp_rows: tuple         # row indices replaced by boundary conditions

    @property
    def npoints(self):
        return len(self.approx.s)


def _clamp_rows(N, h, acc):
    """(row, condition) pairs of one mode block that clamp w and w' at both
    ends of the grid."""
    jl = jet_rows(N, h, 0, max_deriv=1, acc=acc)
    jr = jet_rows(N, h, N - 1, max_deriv=1, acc=acc)
    return ((0, jl[0]), (1, jl[1]), (N - 2, jr[1]), (N - 1, jr[0]))


def discretize(approx, degrees=None, acc=8):
    """Assemble the per-mode operator matrices about the blended solution.

    Derivative terms are mode-diagonal; the potential couples modes through
    the quadrature projection of v_m^{p-1}.  Rows {0, 1, N-2, N-1} of each
    mode block are replaced by clamp conditions on (w, w') at the two ends.
    """
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    consts = approx.config.constants
    N = len(approx.s)
    h = approx.field.h
    if N < stencil_size(4, acc):
        raise DomainError("grid too coarse for the requested stencil order")
    C = _coupling_tensor(approx.field, degrees)
    L1 = len(degrees)
    matrix = np.zeros((L1 * N, L1 * N))
    diag = np.arange(N)
    clamp = []
    for a, l in enumerate(degrees):
        base = a * N
        block = slice(base, base + N)
        matrix[block, block] = paneitz_mode_matrix(consts, consts.lam(l), N,
                                                   h, acc=acc)
        for b in range(L1):
            matrix[base + diag, b * N + diag] -= consts.K * C[a, b]
        for i, cond in _clamp_rows(N, h, acc):
            matrix[base + i, :] = 0.0
            matrix[base + i, block] = cond
            clamp.append(base + i)
    return DiscreteJacobi(approx=approx, degrees=degrees, acc=acc,
                          matrix=matrix, clamp_rows=tuple(clamp))


# ----------------------------------------------------------------------
# bordered system


def _invariant_subspace(M, k, thresh):
    """Orthonormal basis of the invariant subspace of the k multipliers with
    |mu| > thresh, via a sorted real Schur form."""
    def big(re, im):
        return np.hypot(re, im) > thresh

    T, Z, sdim = schur(M, output="real", sort=big)
    if sdim != k:
        raise NumericalError(
            f"expected {k} multipliers beyond {thresh:.3e}, found {sdim}")
    return Z[:, :k]


@dataclass
class _ModeBorder:
    l: int
    cond_rows: np.ndarray      # jet-condition rows acting on v (k, N)
    Bcols: np.ndarray | None   # deficiency columns (N, 4), normalized
    gauge_v: np.ndarray | None  # (2, N) gauge rows acting on v
    labels: tuple


@dataclass
class BorderedSystem:
    """Square linear system [interior rows; jet rows; gauge rows] in the
    unknowns (grid values per mode, deficiency amplitudes per mode)."""

    approx: ApproxSolution
    degrees: tuple
    acc: int
    matrix: np.ndarray
    row_scale: np.ndarray
    borders: list
    n_alpha: int
    interior_slices: list     # per mode: (row range in the stacked system)
    basisJets: JacobiBasis
    _lu: tuple = None
    _cond: float = None

    @property
    def npoints(self):
        return len(self.approx.s)

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


def _window_solution(op, t0, t_nodes, jet0, tol=1e-13):
    """Sample the mode-ODE solution with initial jet `jet0` at t0 over the
    window nodes (any direction); windows are about a stencil wide, so both
    decaying and growing directions stay representable."""
    return sample_contiguous(op.rhs, t0, jet0, t_nodes, tol, np.inf,
                             "window sampling of a frame solution failed")[0]


def _mode_border(approx, basis, l, acc, gauge_delta=1.5):
    """Jet-condition rows, deficiency columns and gauge rows of mode l.

    Frames are built from discrete jets: each frame direction is sampled as
    an actual solution over the end window and its jet extracted with the
    same one-sided stencils the condition rows use, so the rows annihilate
    sampled solutions exactly.  (With analytic jets the extraction truncation
    of the steep directions, (gamma h)^acc, lets the solve hide an amplified
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
    thresh = np.exp(T / 2.0)

    jl = jet_rows(N, h, 0, max_deriv=3, acc=acc)
    jr = jet_rows(N, h, N - 1, max_deriv=3, acc=acc)

    has_deficiency = l <= 1
    n_dec = 1 if has_deficiency else 2

    win = stencil_size(3, acc)
    frames = {}
    for side, i_end, jet in (("L", 0, jl), ("R", N - 1, jr)):
        end_s = s[i_end]
        t0 = end_s + phase
        win_nodes = (s[:win] if side == "L" else s[N - win:]) + phase
        data = monodromy_data(op, t0=t0)
        if has_deficiency:
            # slow directions from the analytic generators, fast ones from
            # the simple dominant eigenvectors of the two one-period flows
            dirs = [dominant_direction(data.backward),
                    None, None,
                    dominant_direction(data.matrix)]
            samples = []
            for k, d in enumerate(dirs):
                if d is None:
                    sign = "+" if k == 1 else "-"
                    samples.append(basis.jet(l, sign, win_nodes)[0])
                else:
                    samples.append(_window_solution(op, t0, win_nodes, d))
        else:
            dec = _invariant_subspace(data.backward, n_dec, thresh)
            grow = _invariant_subspace(data.matrix, n_dec, thresh)
            samples = [
                _window_solution(op, t0, win_nodes, dec[:, 0]),
                _window_solution(op, t0, win_nodes, dec[:, 1]),
                _window_solution(op, t0, win_nodes, grow[:, 0]),
                _window_solution(op, t0, win_nodes, grow[:, 1]),
            ]
        # discrete jets: extract with the same stencils the rows will use
        jet_win = jet[:, :win] if side == "L" else jet[:, N - win:]
        S = np.stack([jet_win @ w for w in samples], axis=1)
        col_scale = np.max(np.abs(S), axis=0)
        S = S / col_scale
        frames[side] = (S, np.linalg.inv(S), jet, col_scale)

    # conditions: kill all non-(strictly decaying) jet components of v
    rowsL = frames["L"][1][n_dec:, :] @ frames["L"][2]
    rowsR = frames["R"][1][n_dec:, :] @ frames["R"][2]
    cond = np.concatenate([rowsL, rowsR], axis=0)
    cond = cond / np.max(np.abs(cond), axis=1, keepdims=True)

    if not has_deficiency:
        return _ModeBorder(l=l, cond_rows=cond, Bcols=None, gauge_v=None,
                           labels=())

    # deficiency columns: cutoff global generator profiles at each end
    chiL = CutoffSpec("left", T / 2, T / 2).samples(s)
    chiR = CutoffSpec("right", T / 2, T / 2).samples(s)
    plus_prof = basis.jet(l, "+", s + phase)[0]
    minus_prof = basis.jet(l, "-", s + phase)[0]
    raw = [chiL * plus_prof, chiL * minus_prof,
           chiR * plus_prof, chiR * minus_prof]
    scales = np.array([max(np.max(np.abs(c)), 1e-300) for c in raw])
    B = np.stack([c / sc for c, sc in zip(raw, scales)], axis=1)
    labels = (("L", "+"), ("L", "-"), ("R", "+"), ("R", "-"))

    def pattern(samples):
        # discrete-jet coordinates of a kernel field's end asymptotics,
        # expressed as amplitudes of the sup-normalized deficiency columns
        out = np.zeros(4)
        for k, (side, sl) in ((0, ("L", slice(0, win))),
                              (2, ("R", slice(N - win, N)))):
            _, Sinv, jet, col_scale = frames[side]
            jet_win = jet[:, sl]
            coords = Sinv @ (jet_win @ samples[sl])
            out[k] = coords[1] / col_scale[1] * scales[k]
            out[k + 1] = coords[2] / col_scale[2] * scales[k + 1]
        return out

    patP = pattern(plus_prof)
    patM = pattern(minus_prof)
    # kernel fields in their canonical (v, alpha) split; gauge rows are the
    # weighted normal equations over kernel shifts, acting on v
    log_w = log_annulus_weight(s, gauge_delta, cfg.m * T)
    w2 = np.exp(2.0 * (log_w - np.max(log_w)))
    Kv = np.stack([plus_prof - B @ patP, minus_prof - B @ patM], axis=0)
    gauge_v = Kv * w2[None, :]
    return _ModeBorder(l=l, cond_rows=cond, Bcols=B, gauge_v=gauge_v,
                       labels=labels)


def bordered_system(approx, degrees=None, acc=8, basis=None):
    """Assemble the bordered right-inverse system about the blend."""
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    cfg = approx.config
    if cfg.orbit.isConstant:
        raise DomainError("the bordered closure needs an interior orbit")
    consts = cfg.constants
    s = approx.s
    N = len(s)
    h = approx.field.h
    if basis is None:
        basis = generators(cfg.orbit, validate=False)
    C = _coupling_tensor(approx.field, degrees)

    borders = []
    sizes = []
    for l in degrees:
        b = _mode_border(approx, basis, l, acc)
        borders.append(b)
        sizes.append(4 if b.Bcols is not None else 0)
    n_alpha = sum(sizes)
    dim = len(degrees) * N + n_alpha
    A = np.zeros((dim, dim))
    interior_slices = []

    # column layout: [v blocks][alpha blocks]
    def vcol(a):
        return slice(a * N, (a + 1) * N)

    alpha_off = len(degrees) * N
    alpha_cols = []
    off = alpha_off
    for size in sizes:
        alpha_cols.append(slice(off, off + size))
        off += size

    row = 0
    pick = slice(2, N - 2)
    diag = np.arange(N - 4)
    for a, l in enumerate(degrees):
        block = paneitz_mode_matrix(consts, consts.lam(l), N, h, acc=acc)
        interior = slice(row, row + N - 4)
        interior_slices.append(interior)
        A[interior, vcol(a)] = block[pick]
        for b in range(len(degrees)):
            A[row + diag, b * N + 2 + diag] += -consts.K * C[a, b][pick]
        # operator applied to the deficiency columns of every mode
        for b, bb in enumerate(borders):
            if bb.Bcols is None:
                continue
            LB = np.zeros((N, 4))
            if bb.l == l:
                LB += block @ bb.Bcols
            # potential coupling from the column's degree channel into mode a
            bidx = degrees.index(bb.l)
            LB += -consts.K * (C[a, bidx][:, None] * bb.Bcols)
            A[interior, alpha_cols[b]] += LB[pick]
        row += N - 4
        nc = len(borders[a].cond_rows)
        A[row:row + nc, vcol(a)] = borders[a].cond_rows
        row += nc
        if borders[a].gauge_v is not None:
            A[row:row + 2, vcol(a)] = borders[a].gauge_v
            row += 2
    if row != dim:
        raise NumericalError(f"bordered assembly mismatch: {row} != {dim}")

    scale = np.max(np.abs(A), axis=1)
    scale[scale == 0] = 1.0
    return BorderedSystem(approx=approx, degrees=degrees, acc=acc,
                          matrix=A, row_scale=scale, borders=borders,
                          n_alpha=n_alpha, interior_slices=interior_slices,
                          basisJets=basis)


@dataclass
class RightInverseResult:
    u: CylField                  # v + sum alpha * basis field
    v: CylField                  # strictly decaying part
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
    N = sys.npoints
    have = {m.l: m.samples for m in f.modes}
    zeros = np.zeros(N)
    rhs = np.zeros(sys.matrix.shape[0])
    for a, l in enumerate(degrees):
        rhs[sys.interior_slices[a]] = have.get(l, zeros)[2:N - 2]
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
    vparts = {l: x[a * N:(a + 1) * N] for a, l in enumerate(degrees)}
    uparts = {l: vol.copy() for l, vol in vparts.items()}
    alpha = {}
    off = len(degrees) * N
    for a, b in enumerate(sys.borders):
        if b.Bcols is None:
            continue
        al = x[off:off + 4]
        off += 4
        uparts[b.l] = uparts[b.l] + b.Bcols @ al
        for k, (side, sign) in enumerate(b.labels):
            alpha[(b.l, side, sign)] = float(al[k])
    vfield = CylField.from_modes(f.constants, f.t, vparts)
    ufield = CylField.from_modes(f.constants, f.t, uparts)
    # interior residual of the reconstructed solution
    Lu = linear_apply(sys.approx.field, ufield, acc=sys.acc)
    sup_f = max(np.max(np.abs(fv)) for fv in
                ([have.get(l, zeros) for l in degrees]))
    num = 0.0
    for l in degrees:
        r = Lu.mode(l).samples[2:N - 2] - have.get(l, zeros)[2:N - 2]
        num = max(num, float(np.max(np.abs(r))))
    rel = num / sup_f if sup_f > 0 else num
    return RightInverseResult(u=ufield, v=vfield, alpha=alpha,
                              relResidual=rel, cond=cond)


def estimate_g_norm(approx, degrees=(0,), acc=8, n_probes=4, seed=1234,
                    delta=1.5, sys=None):
    """Operator-norm estimate of the right inverse from seeded smooth probe
    data, both norms weighted with the annulus weight at rate delta.

    Probe bumps sit at fixed distances from the domain ends (plus one at the
    neck middle) so the probe family is geometrically comparable across
    overlap lengths; the estimate is a lower bound on the true norm, which is
    what the stability-in-m comparison needs.
    """
    if sys is None:
        sys = bordered_system(approx, degrees=degrees, acc=acc)
    s = approx.s
    cfg = approx.config
    T = cfg.period
    scale = cfg.m * cfg.period
    rng = np.random.default_rng(seed)
    anchors = [s[0] + 0.7 * T, s[0] + 1.5 * T, 0.0,
               s[-1] - 1.5 * T, s[-1] - 0.7 * T]
    best = 0.0
    # one localized bump per solve, with the oscillation phased relative to
    # the anchor: each bump then sees the same local problem at every m
    # (the backbone phase at a fixed end offset, and at s = 0, is
    # m-independent), so ratios are comparable across overlap lengths
    for _ in range(n_probes):
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


def remainder(approx, correction, background=None):
    """Quadratic remainder of the curvature operator:
    R(v) = N(b + v) - N(b) - L_b(v) = -cN b^p r(v/b) with
    r(x) = (1+x)^p - 1 - p x, evaluated pointwise with the stable series and
    projected back to modes.  Derivative terms cancel exactly, so only the
    power remainder survives."""
    cfg = approx.config
    consts = cfg.constants
    bg = background if background is not None else approx.field
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

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("k,defectSup,corrSup,ratio\n")
            for k, d, c, r in self.rows:
                fh.write(f"{k},{d!r},{c!r},{r!r}\n")


@dataclass
class IterateResult:
    solution: CylField
    correction: CylField
    trace: IterationTrace
    initialDefect: float
    finalDefect: float
    converged: bool
    scheme: str
    alpha: dict
    cond: float = float("nan")


def _zero_like(fld, degrees):
    return CylField.from_modes(fld.constants, fld.t,
                               {l: np.zeros_like(fld.t) for l in degrees})


def _total_defect(approx, f0, u, acc):
    """N(v_m + u) - blended end defects = f0 + L_m(u) + R_m(u), each piece at
    perturbation scale."""
    Lu = linear_apply(approx.field, u, acc=acc)
    Ru = remainder(approx, u)
    return f0 + Lu + Ru


def _interior_sup(fld, trim=2):
    """Sup norm over the interior collocation points (the discrete equation
    is not imposed on the trimmed boundary slots)."""
    vals = fld.point_values()
    return float(np.max(np.abs(vals[trim:len(fld.t) - trim])))


def iterate(approx, scheme="picard", tol=1e-9, max_iter=25, degrees=None,
            acc=8, floor=1e-30, min_iter=1):
    """Drive the blend to a numerically constant-curvature field.

    picard: u_{k+1} = -G(f0 + R(u_k)) with the right inverse frozen at the
    blend; newton: the linearization is re-discretized at each iterate.  The
    defect is the curvature residual relative to the modeled-exact end
    fields, evaluated in perturbation form throughout (see gluing.defect) and
    measured on the interior collocation points.  min_iter forces extra
    steps so contraction ratios are observable even when the first step
    already reaches the floor.
    """
    if degrees is None:
        degrees = tuple(approx.field.degrees)
    degrees = tuple(sorted(set(int(d) for d in degrees)))
    if scheme not in ("picard", "newton"):
        raise DomainError(f"unknown scheme {scheme!r}")
    f0 = defect(approx, acc=acc).residual
    missing = [l for l in degrees if l not in f0.degrees]
    if missing:
        f0 = f0 + _zero_like(approx.field, missing)
    u = _zero_like(approx.field, degrees)
    d0 = _interior_sup(f0)
    rows = [(0, d0, 0.0, float("nan"))]
    if d0 <= max(floor, 0.0):
        return IterateResult(solution=approx.field.copy(), correction=u,
                             trace=IterationTrace(rows), initialDefect=d0,
                             finalDefect=d0, converged=True, scheme=scheme,
                             alpha={}, cond=float("nan"))
    sys0 = bordered_system(approx, degrees=degrees, acc=acc)
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
        else:
            dnow = _total_defect(approx, f0, u, acc)
            # re-discretize about the current iterate; only the field (the
            # linearization potential) and the config (boundary asymptotics)
            # matter to the assembly, the tail bookkeeping rides along.  The
            # first step starts from u = 0, the blend itself: sys0 serves.
            sys_k = sys0 if k == 1 else bordered_system(
                replace(approx, field=approx.field + u), degrees=degrees,
                acc=acc, basis=sys0.basisJets)
            res = solve_right_inverse(sys_k, dnow * -1.0)
            u_next = u + res.u
        alpha = res.alpha
        corr = _interior_sup(u_next - u)
        u = u_next
        defect_now = _interior_sup(_total_defect(approx, f0, u, acc))
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
        if k >= min_iter and (defect_now < tol or defect_now < floor
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


def verify_correction(approx, correction, acc=8):
    """Independent curvature residual of the corrected field, relative to the
    modeled-exact end fields (recomputed from scratch in perturbation form).
    Returns (residual sup, deviation-units sup)."""
    f0 = defect(approx, acc=acc).residual
    missing = [l for l in correction.degrees if l not in f0.degrees]
    if missing:
        f0 = f0 + _zero_like(approx.field, missing)
    total = _total_defect(approx, f0, correction, acc)
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
                       degrees=None, acc=8):
    """Smallest singular value of the weighted linearized operator of the
    corrected solution restricted to decaying boundary conditions.

    The weight follows the injectivity normalization: a cosh-power profile
    cosh^delta(mT)/cosh^delta(s) on the neck, matched to e^{-delta' (|s|-mT')}
    decay on the end strips beyond the overlap; delta' defaults to the
    midpoint of (1, delta).  No reference value exists; the number is a
    resolution-stable measurement.

    Decay at the truncated ends is imposed in the clamped form (w = w' = 0),
    the same closure the plain discretization uses.  The softer spectral
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
    consts = cfg.constants
    background = approx.field if correction is None else \
        approx.field + correction
    s = approx.s
    N = len(s)
    h = approx.field.h
    scale = cfg.m * cfg.period
    neck = (cfg.m + 0.5) * cfg.period
    rho = np.exp(np.where(
        np.abs(s) <= neck, log_annulus_weight(s, delta, scale),
        log_annulus_weight(neck, delta, scale)
        - delta_prime * (np.abs(s) - neck)))
    inv_rho = 1.0 / rho

    C = _coupling_tensor(background, degrees)
    clamps = _clamp_rows(N, h, acc)
    per_mode = {}
    for a, l in enumerate(degrees):
        A = paneitz_mode_matrix(consts, consts.lam(l), N, h, acc=acc)
        A[np.diag_indices(N)] -= consts.K * C[a, a]
        for i, cond in clamps:
            A[i] = cond
        lu = lu_factor(A)

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
