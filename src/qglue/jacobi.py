"""Linearization about a periodic orbit: per-mode operators, the generator
solutions of degrees 0 and 1 from the deformation families, Floquet
analysis of the mode flows (Chebyshev spectral integration of the linear
mode equation over panels of one period, with the orbit's series as its
coefficient; the panels' interpolants also give the flow on a window after
the start), the conserved boundary pairing, and the smooth step that every
cutoff is built from.  JacobiBasis holds every generator; its necksize
field is the eps-derivative of the orbit's cosine series, in closed form,
and its decaying translation field is the first-order term of the
translated family.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import DomainError, NumericalError
from .gauges import paneitz_mode_apply
from .delaunay import DelaunayOrbit, _epsbar_symbol, _series_jet, _tangent

__all__ = [
    "ModeOperator", "mode_apply", "MonodromyData", "monodromy_data",
    "IndicialSpectrum", "indicial_roots", "JacobiBasis",
    "generators", "symplectic_pairing",
]


@dataclass(frozen=True)
class ModeOperator:
    """Mode-l linearized operator about an orbit:
    w -> w'''' - (2 lam + c2) w''
         + (lam^2 + (n(n-4)/2) lam + c0 - K v_eps^{p-1}) w."""

    orbit: DelaunayOrbit
    lam: float

    @property
    def constants(self):
        return self.orbit.constants

    @property
    def A(self):
        """Coefficient of -w''."""
        return self.constants.mode_coefficients(self.lam)[0]


def mode_apply(op, t, w, acc=8):
    """Apply the mode operator to samples w on the uniform grid t: the
    cylindrical operator of gauges.paneitz_mode_apply minus K v^{p-1} w."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    c = op.constants
    return (paneitz_mode_apply(c, op.lam, w, t[1] - t[0], acc)
            - c.K * op.orbit.eval(t, 0) ** (c.p - 1) * w)


# ----------------------------------------------------------------------
# Floquet analysis


def _pairing_matrix(A):
    """Matrix Omega of symplectic_pairing: omega(a, b) = a^T Omega b for
    jets a, b of a mode operator whose -w'' coefficient is A."""
    return np.array([[0.0, -A, 0.0, 1.0],
                     [A, 0.0, -1.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0],
                     [-1.0, 0.0, 0.0, 0.0]])


@dataclass
class MonodromyData:
    matrix: np.ndarray          # forward flow over one period
    backward: np.ndarray        # Omega^{-1} M^T Omega, the inverse of matrix
    detFactored: float          # det from subinterval factors
    period: float
    window: np.ndarray          # (k, 4, 4) flows from t0 to t0 + offsets


MONODROMY_SUBINTERVALS = 24
PANEL_DEGREE = 16  # K: each panel has the K + 1 nodes (1 - cos(pi j / K)) / 2


@lru_cache(maxsize=None)
def _panel_integrals(K):
    """Nodes x_j = (1 - cos(pi j / K)) / 2 of [0, 1], and the powers S^m,
    m = 0..4, of the spectral integration matrix S: values at the nodes ->
    Chebyshev coefficients of their interpolant -> its integral from 0, at
    the nodes (Greengard, SIAM J. Numer. Anal. 28, 1991).  In xi = 2 x - 1,
    T_k(xi_j) = cos(k (pi - pi j / K)), and T_k integrates to T_1 (k = 0),
    T_2 / 4 (k = 1) and T_{k+1} / (2(k+1)) - T_{k-1} / (2(k-1))."""
    k = np.arange(K + 1)
    x = 0.5 * (1.0 - np.cos(np.pi * k / K))
    cheb = np.cos(np.outer(np.pi - np.pi * k / K, np.arange(K + 2)))
    integral = np.zeros((K + 2, K + 1))
    integral[k + 1, k] = 0.5 / (k + 1)
    integral[1, 0] = 1.0
    integral[k[2:] - 1, k[2:]] = -0.5 / (k[2:] - 1)
    lifted = cheb @ integral
    lifted -= lifted[0]  # node 0 is xi = -1
    S = 0.5 * np.linalg.solve(cheb[:, :K + 1].T, lifted.T).T
    powers = [np.eye(K + 1)]
    for _ in range(4):
        powers.append(S @ powers[-1])
    return x, np.array(powers)


def _barycentric(x, at):
    """(len(at), len(x)) weights of the interpolant through the Lobatto
    nodes x at the points at (Berrut & Trefethen, SIAM Rev. 46, 2004); a
    point on a node takes that node's value."""
    w = (-1.0) ** np.arange(len(x))
    w[[0, -1]] *= 0.5
    diff = at[:, None] - x
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = w / diff
        out /= out.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    out[on_node] = hit[on_node]
    return out


def monodromy_data(op, t0=0.0, offsets=()):
    """One-period flow of the mode system from t0, its inverse, its
    determinant accumulated over subintervals (the direct determinant of the
    assembled matrix is destroyed by the dynamic range of the multipliers),
    and the flows Phi(t0 + offset; t0) for each of the offsets in [0, T).

    The mode equation w'''' = A w'' + q w, q = K v^{p-1} - lam^2 - B, is
    linear with coefficients from the orbit's series, so each of the
    MONODROMY_SUBINTERVALS panels of length h is solved by Chebyshev
    spectral integration of degree PANEL_DEGREE.  The unknown is u = w''''
    at the panel's nodes; w^(d) = P_d + (h S)^{4-d} u, with P_d the Taylor
    part of the four identity initial jets, turns the equation into one
    square system with four right-hand sides per panel, and all panels are
    solved in one batch.  A panel's factor is its jets at the panel's end.
    An offset's flow is the barycentric interpolant of the jets on its
    panel times the product of the earlier panels' factors, so matrix,
    backward and detFactored do not depend on the offsets.  The flow
    preserves symplectic_pairing, M^T Omega M = Omega, so the backward flow
    is Omega^{-1} M^T Omega and needs no second sweep.  Raises
    NumericalError when the flow is not finite."""
    T = op.orbit.period
    n_sub = MONODROMY_SUBINTERVALS
    h = T / n_sub
    x, S = _panel_integrals(PANEL_DEGREE)
    c, A = op.constants, op.A
    t = t0 + h * (np.arange(n_sub)[:, None] + x)
    q = (c.K * op.orbit.eval(t.ravel(), 0).reshape(t.shape) ** (c.p - 1)
         - op.lam ** 2 - c.mode_coefficients(op.lam)[1])
    # taylor[d, :, j] = (h x)^(j - d) / (j - d)!: the part of w^(d) that
    # the initial jet e_j fixes
    taylor = np.zeros((4, len(x), 4))
    for d in range(4):
        for j in range(d, 4):
            taylor[d, :, j] = (h * x) ** (j - d) / factorial(j - d)
    hS = h ** np.arange(5)[:, None, None] * S
    u = np.linalg.solve(hS[0] - A * hS[2] - q[:, :, None] * hS[4],
                        A * taylor[2] + q[:, :, None] * taylor[0])
    # jets[k, d]: w^(d) at panel k's nodes, one column per initial jet
    jets = taylor + hS[4:0:-1] @ u[:, None]
    factors = jets[:, :, -1]
    # partial[j]: the flow over the first j subintervals
    partial = [np.eye(4)]
    for F in factors:
        partial.append(F @ partial[-1])
    M = partial[-1]
    sub, local = np.divmod(np.asarray(offsets, dtype=float), h)
    sub = sub.astype(int)
    window = (np.einsum("mi,mdij->mdj", _barycentric(x, local / h),
                        jets[sub]) @ np.array(partial)[sub])
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(window))):
        raise NumericalError("mode flow is not finite")
    det = np.prod(np.linalg.det(factors))
    Om = _pairing_matrix(A)
    backward = np.linalg.solve(Om, M.T @ Om)
    return MonodromyData(matrix=M, backward=backward, detFactored=det,
                         period=T, window=window)


@dataclass
class IndicialSpectrum:
    eps: float
    n: int
    perMode: list  # entries: dict(l, lambda, exponents, jordanFlags,
                   #                frequencies, detDefect)

    def to_json(self):
        return {
            "eps": self.eps,
            "n": self.n,
            "modes": [
                {"l": e["l"], "lambda": e["lambda"],
                 "exponents": [float(x) for x in e["exponents"]],
                 "jordanFlags": [bool(b) for b in e["jordanFlags"]],
                 "frequencies": [float(x) for x in e["frequencies"]],
                 "detDefect": e["detDefect"]}
                for e in self.perMode
            ],
        }


def _constant_mode_exponents(consts, lam):
    """Exponents +-mu of the roots mu^2 of delaunay._epsbar_symbol, each
    frequency at its exponent's position; + 0.0 turns -0.0 into 0.0."""
    root = np.sqrt(_epsbar_symbol(consts, lam).astype(complex))
    mu = sorted(np.concatenate([-root, root]), key=np.real)
    exps = [float(np.real(m)) + 0.0 for m in mu]
    freqs = [float(abs(np.imag(m))) for m in mu]
    return exps, [False] * 4, freqs


def indicial_roots(orbit, degrees):
    """Per-mode Floquet exponents (exponential growth rates).

    Exponents are extracted from the two multipliers outside the unit circle
    and mirrored (the flow preserves the boundary pairing, so multipliers come
    in reciprocal pairs); multiplier clusters at |mu| = 1 are snapped to
    exponent 0 with a Jordan flag when the cluster is numerically defective.
    Frequencies |arg mu| / T sit at the positions of their exponents; a
    Jordan-flagged pair gets 0 (pi / T at multiplier -1), because rounding
    of size d splits a Jordan block into a complex pair of angle sqrt(d).
    detDefect is |detFactored - 1| of the one-period flow.
    For the constant orbit the exponents come from the characteristic quartic
    as a quadratic in mu^2 (the values the monodromy path reproduces, with
    oscillation frequencies resolvable there) and detDefect is None.
    """
    consts = orbit.constants
    entries = []
    for l in sorted(set(int(d) for d in degrees)):
        lam = consts.lam(l)
        if orbit.isConstant:
            exps, flags, freqs = _constant_mode_exponents(consts, lam)
            det_defect = None
        else:
            data = monodromy_data(ModeOperator(orbit, lam))
            M, T = data.matrix, data.period
            ev = np.linalg.eigvals(M)
            order = np.argsort(-np.abs(ev))
            ev = ev[order]
            big = ev[:2]
            # adaptive neutral-cluster tolerance from the matrix scale
            tau = max(1e-8, 10.0 * np.sqrt(np.finfo(float).eps
                                           * np.linalg.norm(M, 2)))
            gam = []
            flags_pos = []
            freqs_pos = []
            for mu in big:
                if abs(abs(mu) - 1.0) <= tau:
                    gam.append(0.0)
                    defective = (np.linalg.matrix_rank(
                        M - np.eye(4) * np.real(mu), tol=tau) > 2)
                    flags_pos.append(bool(defective))
                else:
                    gam.append(float(np.log(np.abs(mu)) / T))
                    flags_pos.append(False)
                if flags_pos[-1]:
                    freqs_pos.append(0.0 if np.real(mu) > 0 else np.pi / T)
                else:
                    freqs_pos.append(float(abs(np.angle(mu)) / T))
            exps = sorted([-gam[0], -gam[1], gam[1], gam[0]])
            flags = [flags_pos[0], flags_pos[1], flags_pos[1], flags_pos[0]]
            freqs = [freqs_pos[0], freqs_pos[1], freqs_pos[1], freqs_pos[0]]
            det_defect = float(abs(data.detFactored - 1.0))
        entries.append({"l": l, "lambda": lam, "exponents": exps,
                        "jordanFlags": flags, "frequencies": freqs,
                        "detDefect": det_defect})
    return IndicialSpectrum(eps=orbit.eps, n=consts.n, perMode=entries)


# ----------------------------------------------------------------------
# generator fields


def _exp_profile_jet(orbit, t, sign, max_deriv):
    """Jets of e^{-sigma t} ((n-4)/2 sigma v - vdot) with sigma = +1 for the
    decaying translation field and sigma = -1 for the growing one."""
    c = orbit.constants
    sigma = 1.0 if sign == "+" else -1.0
    a = sigma * (c.n - 4) / 2.0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vj = orbit.jet(t, max_deriv=max_deriv + 1)
    q = [a * vj[k] - vj[k + 1] for k in range(max_deriv + 1)]
    e = np.exp(-sigma * t)
    out = np.empty((max_deriv + 1, len(t)))
    for k in range(max_deriv + 1):
        acc = np.zeros(len(t))
        for j in range(k + 1):
            acc += comb(k, j) * (-sigma) ** (k - j) * q[j]
        out[k] = e * acc
    return out


RATE_T0 = 0.5      # start and length in periods of measured_rate's ratio
RATE_PERIODS = 3


@dataclass
class JacobiBasis:
    """Generator solutions of the linearized equation, a +/- pair per degree
    l = 0, 1 (the n translations of degree 1 share one profile pair).

    Degree 0 holds the phase derivative vdot (bounded, periodic) and the
    necksize derivative d v_eps / d eps at fixed t (linear growth; see
    generators); degree 1 holds the translation profiles
    e^{-t}((n-4)/2 v - vdot) (decaying) and e^{+t}((4-n)/2 v - vdot)
    (growing)."""

    orbit: DelaunayOrbit
    dCoeffs: np.ndarray  # d a_k / d eps of the orbit's series
    dOmega: float        # d omega / d eps

    @property
    def dsdEps(self):
        return float(self._necksize_jet(0.0, 2)[2, 0])

    @property
    def dTdEps(self):
        return -self.orbit.period * self.dOmega / self.orbit.omega

    def _necksize_jet(self, t, max_deriv):
        """Derivatives 0..max_deriv at t of the eps-derivative of the series
        eps + sum a_k (cos(k omega t) - 1):
          1 + sum a_k' (cos(k omega t) - 1) + (omega' / omega) t vdot(t)."""
        o = self.orbit
        t = np.atleast_1d(np.asarray(t, dtype=float))
        vj = o.jet(t, max_deriv=max_deriv + 1)
        out = _series_jet(1.0, self.dCoeffs, o.omega, t, max_deriv)
        r = self.dOmega / o.omega
        for d in range(max_deriv + 1):
            out[d] += r * (t * vj[d + 1] + d * vj[d])
        return out

    def jet(self, l, sign, t, max_deriv=3):
        """Jets of the degree-l generator (l = 0 or 1) with the given sign."""
        if l == 0:
            if sign == "+":
                t = np.atleast_1d(np.asarray(t, dtype=float))
                return self.orbit.jet(t, max_deriv=max_deriv + 1)[1:max_deriv + 2]
            return self._necksize_jet(t, max_deriv)
        return _exp_profile_jet(self.orbit, t, sign, max_deriv=max_deriv)

    def profile(self, l, sign, t):
        res = self.jet(l, sign, t, max_deriv=0)[0]
        return float(res[0]) if np.ndim(t) == 0 else res

    def fields(self):
        """The distinct (tag, degree) profile pairs."""
        return [("0", "+", 0), ("0", "-", 0), ("l", "+", 1), ("l", "-", 1)]

    def measured_rate(self, l, sign):
        """Growth rate from the exact ratio |w(t0 + K T) / w(t0)| with
        t0 = RATE_T0 and K = RATE_PERIODS."""
        T = self.orbit.period
        w0 = self.profile(l, sign, RATE_T0)
        wK = self.profile(l, sign, RATE_T0 + RATE_PERIODS * T)
        return float(np.log(abs(wK / w0)) / (RATE_PERIODS * T))


def generators(orbit):
    """All generator solutions of the linearized equation about the orbit.
    (a', omega') along the family is one back-solve (delaunay._tangent),
    after which the necksize field and ds/deps, dT/deps are closed-form."""
    if orbit.isConstant:
        raise DomainError("generators need an interior orbit; the constant "
                          "orbit has a degenerate phase derivative")
    x = _tangent(orbit.constants, orbit.eps, orbit.coeffs, orbit.omega)
    return JacobiBasis(orbit, x[:-1], float(x[-1]))


# ----------------------------------------------------------------------
# conserved boundary pairing


def symplectic_pairing(op, a, b):
    """Bilinear concomitant a^T Omega b of the mode operator (Omega of
    _pairing_matrix) per column of the (4, k) or (4,) jet arrays a, b, from
    integrating v L w - w L v by parts in t once; constant in t when v and w
    solve the mode equation.  Summed elementwise over Omega's upper
    triangle, so omega(b, a) = -omega(a, b) exactly and a batch of columns
    rounds as each column alone."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    Om = _pairing_matrix(op.A)
    return sum(Om[i, j] * (a[i] * b[j] - a[j] * b[i])
               for i in range(4) for j in range(i + 1, 4))


# ----------------------------------------------------------------------
# the smooth step of the cutoffs


def smooth_step(x):
    """C-infinity ramp: 1 for x <= 0, 0 for x >= 1, antisymmetric about 1/2,
    built from the e^{-1/x} mollifier pair."""
    x = np.asarray(x, dtype=float)

    def f(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    fx = f(1.0 - x)
    gx = f(x)
    return fx / (fx + gx)
