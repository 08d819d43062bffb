"""Linearization about a periodic orbit: per-mode operators, the generator
solutions of degrees 0 and 1 from the deformation families, Floquet
analysis of the flows of delaunay._mode_flow_rhs, the conserved boundary
pairing, and the smooth step that every cutoff is built from.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, NumericalError
from .fd import apply_derivative
from .delaunay import (DelaunayOrbit, _half_period_nodes, _mode_flow_rhs,
                       _shooting_jacobian, quintic_hermite, sample_contiguous,
                       solve_orbit)

__all__ = [
    "ModeOperator", "mode_apply", "MonodromyData", "monodromy_data",
    "IndicialSpectrum", "indicial_roots", "VariationalField", "JacobiBasis",
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

    def potential(self, t):
        """Zeroth-order coefficient Q(t)."""
        c = self.constants
        v = self.orbit.eval(t, 0)
        return (self.lam ** 2 + c.mode_coefficients(self.lam)[1]
                - c.K * v ** (c.p - 1))


def mode_apply(op, t, w, acc=8):
    """Apply the mode operator to samples w on the uniform grid t."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    h = t[1] - t[0]
    d4 = apply_derivative(w, h, 4, acc=acc)
    d2 = apply_derivative(w, h, 2, acc=acc)
    return d4 - op.A * d2 + op.potential(t) * w


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


MONODROMY_SUBINTERVALS = 24
# rtol = atol of the batched run, just above solve_ivp's floor of 100 eps:
# its error norm is an RMS over all subintervals' components, so one
# component may carry about sqrt(MONODROMY_SUBINTERVALS) times the average
MONODROMY_TOL = 3e-14


def monodromy_data(op, t0=0.0):
    """One-period flow of the mode system from t0, its inverse, and its
    determinant accumulated over subintervals (the direct determinant of the
    assembled matrix is destroyed by the dynamic range of the multipliers).

    The flow is autonomous, so the MONODROMY_SUBINTERVALS subintervals all
    start at local time 0 and run together over their common length as one
    batched DOP853 run at tolerance MONODROMY_TOL: each column of the
    (20, MONODROMY_SUBINTERVALS) state is the identity flow jointly with the
    orbit, restarted from orbit.jet at its subinterval's left edge (a
    carried orbit would drift along its unstable directions over a period).
    The flow preserves symplectic_pairing, M^T Omega M = Omega, so the
    backward flow is Omega^{-1} M^T Omega and needs no second sweep."""
    T = op.orbit.period
    n_sub = MONODROMY_SUBINTERVALS
    flow = _mode_flow_rhs(op.constants, op.lam, 4)
    edges = t0 + np.linspace(0.0, T, n_sub + 1)
    y0 = np.empty((20, n_sub))
    y0[:4] = op.orbit.jet(edges[:-1], max_deriv=3)
    y0[4:] = np.eye(4).reshape(-1, 1)
    r = solve_ivp(lambda t, y: flow(t, y.reshape(20, n_sub)).reshape(-1),
                  (0.0, T / n_sub), y0.reshape(-1), method="DOP853",
                  rtol=MONODROMY_TOL, atol=MONODROMY_TOL)
    if not r.success:
        raise NumericalError("monodromy integration failed")
    factors = r.y[4 * n_sub:, -1].reshape(4, 4, n_sub).transpose(2, 0, 1)
    M = np.eye(4)
    for F in factors:
        M = F @ M
    det = np.prod(np.linalg.det(factors))
    Om = _pairing_matrix(op.A)
    backward = np.linalg.solve(Om, M.T @ Om)
    return MonodromyData(matrix=M, backward=backward, detFactored=det,
                         period=T)


@dataclass
class IndicialSpectrum:
    eps: float
    n: int
    perMode: list  # entries: dict(l, lambda, exponents, jordanFlags,
                   #                frequencies, detDefect)

    def exponents(self, l):
        for entry in self.perMode:
            if entry["l"] == l:
                return entry["exponents"]
        raise KeyError(f"no mode of degree {l}")

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
    """Characteristic-quartic exponents about the equilibrium orbit, with
    each root's frequency at the position of its exponent."""
    A, B = consts.mode_coefficients(lam)
    q0 = lam ** 2 + B - consts.K * consts.epsBar ** (consts.p - 1)
    mu = sorted(np.roots([1.0, 0.0, -A, 0.0, q0]), key=np.real)
    exps = [float(np.real(m)) for m in mu]
    freqs = [float(abs(np.imag(m))) for m in mu]
    return exps, [False] * 4, freqs


def indicial_roots(orbit, degrees=None):
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
    (the same values the monodromy path reproduces, with oscillation
    frequencies resolvable there) and detDefect is None.
    """
    consts = orbit.constants
    if degrees is None:
        degrees = range(5)
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
# family sensitivities and the variational solution


class VariationalField:
    """The necksize derivative of the orbit as a function of t, with full
    jets, and the family sensitivities dsdEps = ds/deps, dTdEps = dT/deps.

    One pass over delaunay's half-period nodes integrates the orbit from
    (eps, 0, s, 0) jointly with its eps-derivative w_eps from (1, 0, 0, 0)
    and its s-derivative w_s from (0, 0, 1, 0).  At tau = T/2 the implicit
    function theorem on the half-period conditions v'(tau) = v'''(tau) = 0
    gives J (ds/deps, dtau/deps) = -(w_eps'(tau), w_eps'''(tau)), with J
    the shooting Jacobian, and dT/deps = 2 dtau/deps.  The field's nodes
    are w_eps + (ds/deps) w_s; it is extended by the family structure:
      phi(t + kT) = phi(t) - k T' vdot(t)
      phi(t)      = phi(T-t) + T' vdot(T-t)   for t in [T/2, T].
    """

    def __init__(self, orbit):
        self.orbit = orbit
        c = orbit.constants
        y0 = [orbit.eps, 0.0, orbit.vDdot0, 0.0,
              1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        tg, y = _half_period_nodes(_mode_flow_rhs(c, 0.0, 2),
                                   y0, orbit.period / 2.0,
                                   "variational integration failed")
        v = y[:4]
        # jet rows are (4, 2): column 0 is w_eps, column 1 is w_s
        w_eps, w_s = np.moveaxis(y[4:].reshape(4, 2, -1), 1, 0)
        ds_deps, dtau_deps = np.linalg.solve(
            _shooting_jacobian(c, v[:, -1], w_s[:, -1]), -w_eps[[1, 3], -1])
        self.dsdEps = float(ds_deps)
        self.dTdEps = 2.0 * float(dtau_deps)
        w, w1, w2, w3 = w_eps + ds_deps * w_s
        pot = c.c0 - c.K * v[0] ** (c.p - 1)
        potdot = -c.K * (c.p - 1) * v[0] ** (c.p - 2) * v[1]
        w4 = c.c2 * w2 - pot * w
        w5 = c.c2 * w3 - pot * w1 - potdot * w
        comps = [(w, w1, w2), (w1, w2, w3), (w2, w3, w4), (w3, w4, w5)]
        # per-component quintic Hermite keeps each derivative at sample-level
        # accuracy instead of amplifying integrator noise
        self._interp = [quintic_hermite(tg, j) for j in comps]

    def sample_states(self, tgrid):
        """Contiguous joint (orbit + variational) integration over the
        window; seam-free but only trustworthy while e^{gamma |t|} times the
        initial-data error stays small (about a half period of margin), which
        is all residual-grade checks need."""
        orbit = self.orbit
        y0 = [orbit.eps, 0.0, orbit.vDdot0, 0.0, 1.0, 0.0, self.dsdEps, 0.0]
        return sample_contiguous(_mode_flow_rhs(orbit.constants, 0.0, 1),
                                 0.0, y0, tgrid, orbit.period / 512.0,
                                 "variational sampling failed")[4:]

    def jet(self, t, max_deriv=3):
        """Stacked derivatives 0..max_deriv (max 3) at t."""
        T = self.orbit.period
        Tp = self.dTdEps
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.floor(t / T)
        x = t - k * T
        refl = x > T / 2
        xr = np.where(refl, T - x, x)
        out = np.empty((max_deriv + 1, len(t)))
        vj = self.orbit.jet(xr, max_deriv=max_deriv + 1)
        # periodic shift uses the derivative of vdot at the reduced point
        vjx = self.orbit.jet(x, max_deriv=max_deriv + 1)
        for d in range(max_deriv + 1):
            base = self._interp[d](xr)
            sign = (-1.0) ** d
            reflected = sign * (base + Tp * vj[d + 1])
            val = np.where(refl, reflected, base)
            out[d] = val - k * Tp * vjx[d + 1]
        return out


# ----------------------------------------------------------------------
# generator fields


def _exp_profile_jet(orbit, t, sign, max_deriv=3):
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


@dataclass
class JacobiBasis:
    """Generator solutions of the linearized equation, a +/- pair per degree
    l = 0, 1 (the n translations of degree 1 share one profile pair).

    Degree 0 holds the phase derivative (bounded, periodic) and the necksize
    derivative (linear growth); degree 1 holds the translation profiles
    e^{-t}((n-4)/2 v - vdot) (decaying) and e^{+t}((4-n)/2 v - vdot)
    (growing)."""

    orbit: DelaunayOrbit
    varField: VariationalField | None
    dsdEps: float
    dTdEps: float
    crossValidationError: float
    dHdEps: float     # centered difference; nan unless validated

    def jet(self, l, sign, t, max_deriv=3):
        """Jets of the degree-l generator (l = 0 or 1) with the given sign."""
        if l == 0:
            if sign == "+":
                t = np.atleast_1d(np.asarray(t, dtype=float))
                return self.orbit.jet(t, max_deriv=max_deriv + 1)[1:max_deriv + 2]
            return self.varField.jet(t, max_deriv=max_deriv)
        return _exp_profile_jet(self.orbit, t, sign, max_deriv=max_deriv)

    def profile(self, l, sign, t):
        res = self.jet(l, sign, t, max_deriv=0)[0]
        return float(res[0]) if np.ndim(t) == 0 else res

    def fields(self):
        """The distinct (tag, degree) profile pairs."""
        return [("0", "+", 0), ("0", "-", 0), ("l", "+", 1), ("l", "-", 1)]

    def measured_rate(self, l, sign, t0=0.5, periods=3):
        """Growth rate from the exact per-period ratio |w(t0 + KT)/w(t0)|."""
        T = self.orbit.period
        w0 = self.profile(l, sign, t0)
        wK = self.profile(l, sign, t0 + periods * T)
        return float(np.log(abs(wK / w0)) / (periods * T))

    def sample_profile(self, l, sign, tgrid):
        """Seam-free generator samples for residual-grade checks, from
        contiguous integrations (the periodic/reflected evaluation in jet()
        is globally accurate but carries derivative kinks of the size of the
        shooting defect at the reduction seams, which high-order difference
        stencils amplify)."""
        tgrid = np.asarray(tgrid, dtype=float)
        if l == 0 and sign == "-":
            return self.varField.sample_states(tgrid)[0]
        states = self.orbit.sample_states(tgrid)
        if l == 0:
            return states[1]
        c = self.orbit.constants
        sigma = 1.0 if sign == "+" else -1.0
        a = sigma * (c.n - 4) / 2.0
        return np.exp(-sigma * tgrid) * (a * states[0] - states[1])


def generators(orbit, d_eps=1e-4, validate=True):
    """All generator solutions of the linearized equation about the orbit.

    The necksize derivative and the sensitivities dsdEps, dTdEps come from
    one VariationalField pass (the shooting Jacobian and the implicit
    function theorem, no monodromy).  When `validate` is set, the field is
    cross-checked against centered differences of neighboring shooting
    orbits; the max discrepancy over one period is recorded, with the
    centered difference of the energy along the family.
    """
    if orbit.isConstant:
        raise DomainError("generators need an interior orbit; the constant "
                          "orbit has a degenerate phase derivative")
    var = VariationalField(orbit)
    cross = dH = float("nan")
    if validate:
        consts = orbit.constants
        eps = orbit.eps
        hi = solve_orbit(consts, eps + d_eps)
        lo = solve_orbit(consts, eps - d_eps)
        ts = np.linspace(0.0, orbit.period, 60)
        fd = (hi.eval(ts, 0) - lo.eval(ts, 0)) / (2.0 * d_eps)
        cross = float(np.max(np.abs(var.jet(ts, 0)[0] - fd)))
        dH = (hi.hamiltonianValue - lo.hamiltonianValue) / (2.0 * d_eps)
    return JacobiBasis(orbit=orbit, varField=var, dsdEps=var.dsdEps,
                       dTdEps=var.dTdEps, crossValidationError=cross,
                       dHdEps=dH)


# ----------------------------------------------------------------------
# conserved boundary pairing


def symplectic_pairing(op, vjet, wjet, t):
    """Bilinear concomitant of the mode operator at cross-section t:
    omega(v, w) = v w''' - w v''' - v' w'' + w' v'' - A (v w' - w v'),
    obtained by integrating v L w - w L v by parts in t once; constant in t
    when v and w both solve the mode equation.

    vjet/wjet: callables t -> array of derivatives 0..3, or such arrays.
    """
    a = vjet(t) if callable(vjet) else np.asarray(vjet)
    b = wjet(t) if callable(wjet) else np.asarray(wjet)
    A = op.A
    return float(a[0] * b[3] - b[0] * a[3] - a[1] * b[2] + b[1] * a[2]
                 - A * (a[0] * b[1] - b[0] * a[1]))


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
