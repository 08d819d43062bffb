"""The fourth-order necksize ODE: periodic orbits, conserved energy, and the
translated/deformed solution family.

An orbit solves the symmetric half-period boundary value problem
v(0) = eps, v'(0) = v'''(0) = 0 at the minimum and v'(T/2) = v'''(T/2) = 0
at the maximum.  Its unknowns s = v''(0) and T/2 are found by Newton
shooting, started from a bisection bracket on the kind of the first turning
point.  The orbit is stored on a half period as quintic Hermite
interpolants; evaluation extends by evenness and periodicity, so the stored
object is exactly symmetric and exactly periodic while the raw shooting
mismatch is kept as a diagnostic.  sample_flow, started from orbit.jet, is
the one sampler of the orbit and of solutions of its linearizations.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly
import scipy.special as spec
from scipy.special import comb

from .errors import DomainError, NumericalError
from .gauges import GaugeConstants, derive_constants

__all__ = [
    "hamiltonian", "sample_contiguous", "sample_flow", "quintic_hermite",
    "jet_interpolants", "half_period_grid", "DelaunayOrbit", "solve_orbit",
    "FamilyParams", "expansion_error", "ExpansionStudy",
]


def hamiltonian(jet, consts):
    """Conserved energy of the jet (v, v', v'', v''') at one point:
    H = -v' v''' + v''^2/2 + (c2/2) v'^2 - (c0/2) v^2 + cH |v|^(2n/(n-4)).

    d/dt H = -v'(v'''' - c2 v'' + c0 v - cN v^p) vanishes along solutions
    because cH * (2n/(n-4)) = cN; checked symbolically in the test suite.
    One point per call, in scalar arithmetic: NumPy's array power rounds
    differently from scalar power in a few percent of elements.
    """
    v, v1, v2, v3 = jet
    return (-v1 * v3 + 0.5 * v2 ** 2 + 0.5 * consts.c2 * v1 ** 2
            - 0.5 * consts.c0 * v ** 2 + consts.cH * abs(v) ** consts.qExp)


def _ode_jet45(consts, v, v1, v2, v3):
    """(v'''', v''''') of a solution of the necksize ODE from its jet
    (v, v', v'', v''')."""
    c2, c0, cN, p = consts.c2, consts.c0, consts.cN, consts.p
    return (c2 * v2 - c0 * v + cN * v ** p,
            c2 * v3 - c0 * v1 + cN * p * v ** (p - 1) * v1)


def _mode_flow_rhs(consts, lam, k):
    """Right-hand side of the orbit (components 0..3) jointly with k jets of
    its mode-lam linearization (components 4.., flattened from (4, k)).

    The potential lam^2 + B - K v^(p-1) is taken from the carried v, so the
    flow makes no interpolant evaluations; callers start the orbit from
    orbit.jet at the initial time.  y may also be a (4 + 4k, batch) array of
    independent states, one per column, with the result of the same shape."""
    c2, c0, cN, p, K = consts.c2, consts.c0, consts.cN, consts.p, consts.K
    A, B = consts.mode_coefficients(lam)
    base = lam ** 2 + B
    # one gather shifts every jet by one derivative order; the equations
    # then overwrite the fourth-derivative rows 3 and w4
    idx = np.r_[1, 2, 3, 3, 4 + k:4 + 4 * k, 4:4 + k]
    w2, w4 = slice(4 + k, 4 + 2 * k), slice(4 + 3 * k, 4 + 4 * k)

    def rhs(t, y):
        v = y[0]
        out = y[idx]
        out[3] = c2 * y[2] - c0 * v + cN * v ** p
        if k:  # arithmetic on the empty rows would triple the orbit's cost
            out[w4] = A * out[w2] + (K * v ** (p - 1) - base) * out[w4]
        return out

    return rhs


def sample_contiguous(rhs, t0, y0, tgrid, max_step, failure):
    """States at every point of tgrid of the solution with y(t0) = y0, from
    one contiguous DOP853 run at tolerance 1e-13 below t0 and one above it,
    with steps capped at max_step.

    Returns a (len(y0), len(tgrid)) array; raises NumericalError(failure)
    when a run fails."""
    tgrid = np.asarray(tgrid, dtype=float)
    out = np.empty((len(y0), len(tgrid)))
    out[:, tgrid == t0] = np.asarray(y0, dtype=float)[:, None]
    for mask, direction in ((tgrid < t0, -1), (tgrid > t0, +1)):
        if not mask.any():
            continue
        cols = np.where(mask)[0]
        cols = cols[np.argsort(tgrid[cols], kind="stable")][::direction]
        te = tgrid[cols]
        sol = solve_ivp(rhs, (t0, float(te[-1])), y0, method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=te,
                        max_step=max_step)
        if not sol.success:
            raise NumericalError(failure)
        out[:, cols] = sol.y
    return out


def sample_flow(orbit, lam, t0, jets, tgrid, max_step, failure):
    """States at tgrid of the orbit and of the k solutions of its mode-lam
    linearization whose jets at t0 are the columns of `jets` (4, k), by
    sample_contiguous from orbit.jet(t0): the (4 + 4k, len(tgrid)) state of
    _mode_flow_rhs, whose row 4 + d k + j is derivative d of solution j.
    Unstable directions amplify the error with the distance from t0."""
    jets = np.asarray(jets, dtype=float)
    rhs = _mode_flow_rhs(orbit.constants, lam, jets.shape[1])
    y0 = np.concatenate([orbit.jet(t0), jets.reshape(-1)])
    return sample_contiguous(rhs, t0, y0, tgrid, max_step, failure)


def quintic_hermite(x, jets):
    """Piecewise quintic in Bernstein form matching the samples (f, f', f'')
    of `jets` at both ends of every interval of x.

    The coefficients are bit-identical to BPoly.from_derivatives(x,
    np.stack(jets, 1)): the same recurrence with the same scalars in the same
    order, applied to all intervals at once instead of one by one."""
    x = np.asarray(x, dtype=float)
    ya = [np.asarray(f, dtype=float)[:-1] for f in jets]
    yb = [np.asarray(f, dtype=float)[1:] for f in jets]
    h = x[1:] - x[:-1]
    na = nb = len(jets)
    n = na + nb
    c = np.empty((n, len(h)))
    # walk left-to-right from the values at the left ends ...
    for q in range(na):
        c[q] = ya[q] / spec.poch(n - q, q) * h ** q
        for j in range(q):
            c[q] -= (-1) ** (j + q) * comb(q, j) * c[j]
    # ... and right-to-left from those at the right ends
    for q in range(nb):
        c[-q - 1] = yb[q] / spec.poch(n - q, q) * (-1) ** q * h ** q
        for j in range(q):
            c[-q - 1] -= (-1) ** (j + 1) * comb(q, j + 1) * c[-q + j]
    return BPoly(c, x)


def jet_interpolants(x, jets):
    """Interpolants of derivatives 0..3 from node jets of orders 0..5, one
    quintic Hermite each from orders d..d+2: differentiating one value
    interpolant would amplify integrator noise by powers of the spacing."""
    return [quintic_hermite(x, jets[d:d + 3]) for d in range(4)]


# ----------------------------------------------------------------------
# the periodic orbit family


@dataclass
class DelaunayOrbit:
    """One periodic orbit, stored on [0, T/2] and extended by symmetry.

    eval(t, k) returns the k-th t-derivative (k <= 3); jet extends it to
    orders 4 and 5 by the ODE.  The representation is even about t = 0 and
    T/2 and exactly T-periodic.
    """

    constants: GaugeConstants
    eps: float
    period: float
    vDdot0: float
    hamiltonianValue: float
    isConstant: bool = False
    diagnostics: dict = field(default_factory=dict)
    nSamples: int = 0
    _interp: list = None  # BPoly for derivatives 0..3 on [0, T/2]

    # -- evaluation -------------------------------------------------------

    def _reduce(self, t):
        """Map t to (y in [0, T/2], parity sign for odd derivatives)."""
        T = self.period
        x = np.mod(np.asarray(t, dtype=float), T)
        refl = x > T / 2
        y = np.where(refl, T - x, x)
        sign = np.where(refl, -1.0, 1.0)
        return y, sign

    def eval(self, t, deriv=0):
        if deriv < 0 or deriv > 3:
            raise DomainError("derivative order must be 0..3")
        scalar = np.ndim(t) == 0
        if self.isConstant:
            out = np.full(np.shape(np.atleast_1d(t)), self.eps if deriv == 0 else 0.0)
            return float(out[0]) if scalar else out
        y, sign = self._reduce(t)
        vals = self._interp[deriv](y)
        if deriv % 2 == 1:
            vals = sign * vals
        return float(vals) if scalar else vals

    def jet(self, t, max_deriv=3):
        """Stacked derivatives 0..max_deriv at t (max_deriv <= 5); orders 4
        and 5 come from the ODE applied to orders 0..3."""
        rows = [self.eval(t, k) for k in range(min(max_deriv, 3) + 1)]
        if max_deriv >= 4:
            # the constant orbit's higher derivatives are exact zeros
            high = ((rows[1], rows[1]) if self.isConstant
                    else _ode_jet45(self.constants, *rows))
            rows += high[:max_deriv - 3]
        return np.stack(rows)

    def sample_states(self, tgrid):
        """Sample the full jet (v, v', v'', v''') by sample_flow from the
        minimum at t = 0, with steps capped at T/512.

        The reflected-periodic representation is ideal for evaluation but its
        reduction seams (the shooting-level derivative kink at the turning
        points) get amplified by high-order difference stencils; a contiguous
        trajectory has no seams and its integration error varies smoothly in
        t, which residual-grade sampling needs.

        The orbit's unstable directions amplify the integration error with
        the distance from t = 0, so tgrid must stay within about 1.5
        periods of it on either side: farther points raise NumericalError
        ("orbit sampling failed").  At eps = 0.5, [0, 1.5T] and [-1.5T,
        1.5T] succeed and [0, 2T] fails.  The samples drift from the
        periodic orbit on the way, at eps = 0.5 by 9e-8 at one period and
        6e-4 at 1.5 periods."""
        tgrid = np.asarray(tgrid, dtype=float)
        if self.isConstant:
            out = np.zeros((4, len(tgrid)))
            out[0] = self.eps
            return out
        return sample_flow(self, 0.0, 0.0, np.empty((4, 0)), tgrid,
                           self.period / 512.0, "orbit sampling failed")

    def sample_exact(self, tgrid):
        """Seam-free samples of v; see sample_states, including its limit
        of about 1.5 periods from t = 0."""
        return self.sample_states(tgrid)[0]

    # -- serialization ------------------------------------------------------

    def to_json(self):
        ts = np.linspace(0.0, self.period, 257)
        return {
            "n": self.constants.n,
            "eps": self.eps,
            "period": self.period,
            "vDdot0": self.vDdot0,
            "hamiltonian": self.hamiltonianValue,
            "isConstant": self.isConstant,
            "nSamples": self.nSamples,
            "t": [float(x) for x in ts],
            "v": [float(x) for x in self.eval(ts, 0)],
            "vDot": [float(x) for x in self.eval(ts, 1)],
            "vDdot": [float(x) for x in self.eval(ts, 2)],
            "vDddot": [float(x) for x in self.eval(ts, 3)],
            "diagnostics": self.diagnostics,
        }


HALF_PERIOD_NODES = 1025  # interpolation nodes on a half period
STEP_NODES = 8            # node spacings per integrator step, at most


def half_period_grid(half):
    """The nodes of [0, half] and their sampling's step cap of STEP_NODES
    spacings: without it the dense output at the nodes is far less
    accurate than the steps themselves."""
    return (np.linspace(0.0, half, HALF_PERIOD_NODES),
            STEP_NODES * half / (HALF_PERIOD_NODES - 1))


def _half_period_interp(consts, eps, s, T):
    """jet_interpolants on half_period_grid(T/2) of the orbit with v(0) =
    eps and v''(0) = s, and its state at T/2."""
    tgrid, max_step = half_period_grid(T / 2.0)
    y = sample_contiguous(_mode_flow_rhs(consts, 0.0, 0), 0.0,
                          [eps, 0.0, s, 0.0], tgrid, max_step,
                          "half-period integration failed")
    v, v1, v2, v3 = (c.copy() for c in y)
    # symmetry pins the odd derivatives at both ends of a half period
    v1[0] = v3[0] = 0.0
    v1[-1] = v3[-1] = 0.0
    interp = jet_interpolants(tgrid, [v, v1, v2, v3,
                                      *_ode_jet45(consts, v, v1, v2, v3)])
    return interp, y[:, -1]


def _constant_orbit(consts):
    """The equilibrium orbit at the maximal necksize; its period is the
    linearization period 2 pi / omega0 from the constant-coefficient quartic
    mu^4 - c2 mu^2 + (c0 - K epsBar^(p-1))."""
    eb = consts.epsBar
    A, B = consts.mode_coefficients(0.0)
    musq = np.roots([1.0, -A, B - consts.K * eb ** (consts.p - 1)])
    neg = musq[musq < 0]
    if neg.size != 1:
        raise NumericalError("unexpected linearization spectrum at epsBar")
    omega0 = float(np.sqrt(-neg[0]))
    return DelaunayOrbit(
        constants=consts, eps=eb, period=2 * np.pi / omega0, vDdot0=0.0,
        hamiltonianValue=hamiltonian((eb, 0.0, 0.0, 0.0), consts),
        isConstant=True,
        diagnostics={"omega0": omega0}, nSamples=0, _interp=None)


def _first_max(consts, eps, s):
    """Integrate until the first interior maximum (vdot = 0 crossing downward)
    or an escape, up to t = 120; returns (kind, t).  Only the kind steers the
    bisection and Newton refines the time, so the tolerance 1e-9 is loose."""
    rhs = _mode_flow_rhs(consts, 0.0, 0)

    def ev_max(t, y):
        return y[1]

    ev_max.terminal = True
    ev_max.direction = -1

    def ev_low(t, y):
        return y[0] - eps * (1 - 1e-9)

    ev_low.terminal = True
    ev_low.direction = -1

    def ev_high(t, y):
        return y[0] - 1.6

    ev_high.terminal = True
    ev_high.direction = 1

    sol = solve_ivp(rhs, (0.0, 120.0), [eps, 0.0, s, 0.0], method="DOP853",
                    rtol=1e-9, atol=1e-9, events=[ev_max, ev_low, ev_high])
    for kind, times in zip(("max", "down", "up"), sol.t_events):
        if times.size:
            return kind, float(times[0])
    return "none", None


def _joint_rhs(consts):
    """The orbit (components 0..3) jointly with one solution of its
    linearization (components 4..7): _mode_flow_rhs(consts, 0.0, 1) written
    out, because at one jet its gather made solve_orbit 8% slower."""
    c2, c0, cN, p, K = consts.c2, consts.c0, consts.cN, consts.p, consts.K

    def rhs(t, y):
        v = y[0]
        pot = c0 - K * v ** (p - 1)
        return (y[1], y[2], y[3], c2 * y[2] - c0 * v + cN * v ** p,
                y[5], y[6], y[7], c2 * y[6] - pot * y[4])

    return rhs


def _shooting_jacobian(consts, v, w):
    """Jacobian of the half-period conditions (v'(tau), v'''(tau)) in
    (s, tau), [[w'(tau), v''(tau)], [w'''(tau), v''''(tau)]], from the jets
    v of the orbit and w of its s-derivative at tau."""
    v4 = _ode_jet45(consts, *v)[0]
    return np.array([[w[1], v[2]], [w[3], v4]])


def _newton_shoot(consts, eps, s, tau):
    """Newton's method on the half-period conditions v'(tau) = v'''(tau) = 0
    for the orbit with v(0) = eps, v''(0) = s and v'(0) = v'''(0) = 0.

    Each step integrates the orbit with its s-derivative w from 0 to tau;
    the Jacobian in (s, tau) is _shooting_jacobian.  Stops when the relative
    step falls below 1e-15, or stops decreasing after falling below 1e-10
    (the integration's rounding floor).  Returns (s, tau), or None when an
    integration fails or the steps do not settle within 40 iterations."""
    c = consts
    rhs = _joint_rhs(c)
    prev = np.inf
    for _ in range(40):
        sol = solve_ivp(rhs, (0.0, tau),
                        [eps, 0.0, s, 0.0, 0.0, 0.0, 1.0, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-13)
        y = sol.y[:, -1]
        if not sol.success or not np.all(np.isfinite(y)) or y[0] <= 0:
            return None
        try:
            ds, dtau = np.linalg.solve(_shooting_jacobian(c, y[:4], y[4:]),
                                       [-y[1], -y[3]])
        except np.linalg.LinAlgError:
            return None
        s, tau = s + ds, tau + dtau
        if tau <= 0:  # collapsed onto the trivial root tau = 0
            return None
        step = max(abs(ds / s), abs(dtau / tau))
        if step < 1e-15 or (prev < 1e-10 and step >= prev):
            return s, tau
        prev = step
    return None


def _build_orbit(consts, eps, s, T):
    interp, end_state = _half_period_interp(consts, eps, s, T)
    vmin = float(np.min(interp[0](np.linspace(0, T / 2, 4097))))
    diags = {
        # symmetry mismatch at the turning point: size of the odd derivatives
        "halfTurnOddDerivs": [float(abs(end_state[1])),
                              float(abs(end_state[3]))],
        "minDefect": float(abs(vmin - eps)),
    }
    return DelaunayOrbit(
        constants=consts, eps=eps, period=T, vDdot0=s,
        hamiltonianValue=hamiltonian((eps, 0.0, s, 0.0), consts),
        isConstant=False, diagnostics=diags, nSamples=HALF_PERIOD_NODES,
        _interp=interp)


def solve_orbit(n_or_consts, eps):
    """The periodic orbit with minimum eps, by Newton shooting on the half
    period.

    The unknowns are s = v''(0) and tau = T/2, the conditions
    v'(tau) = v'''(tau) = 0; by the reflection symmetry of the equation
    they close the orbit.  Bisection on the kind of _first_max (an interior
    maximum below the orbit's s, an upward escape above it), classified by
    integrations at tolerance 1e-9, brackets s to relative width 1e-4, and
    Newton, whose integrations run at 1e-13, starts from the lower end and
    the time of its first maximum.  tau = 0 solves the conditions for every
    s, so a result counts only if tau stays within a factor 2 of that
    start; otherwise the bracket is tightened 100-fold and Newton restarts.
    eps = epsBar returns the constant orbit with the linearization period.
    """
    consts = (n_or_consts if isinstance(n_or_consts, GaugeConstants)
              else derive_constants(n_or_consts))
    if not (0 < eps <= consts.epsBar * (1 + 1e-12)):
        raise DomainError(
            f"necksize must lie in (0, {consts.epsBar:.6f}], got {eps}")
    if abs(eps - consts.epsBar) <= 1e-12 * consts.epsBar:
        return _constant_orbit(consts)

    lo, hi = 1e-6, 2.0
    kind, t_lo = _first_max(consts, eps, lo)
    if kind != "max":
        raise NumericalError(f"shooting bracket not found for eps={eps}")
    for width in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        while hi - lo > width * hi:
            mid = 0.5 * (lo + hi)
            kind, t_mid = _first_max(consts, eps, mid)
            if kind == "max":
                lo, t_lo = mid, t_mid
            else:
                hi = mid
        found = _newton_shoot(consts, eps, lo, t_lo)
        if found is not None and 0.5 * t_lo <= found[1] <= 2.0 * t_lo:
            s, tau = found
            return _build_orbit(consts, eps, s, 2.0 * tau)
    raise NumericalError(f"Newton shooting did not converge for eps={eps}")


# ----------------------------------------------------------------------
# deformed family


@dataclass(frozen=True)
class FamilyParams:
    """Necksize and the translation a of the point at infinity."""

    eps: float
    a: tuple = ()

    def a_vec(self, n):
        a = np.zeros(n)
        if len(self.a):
            a[:len(self.a)] = self.a
        return a


@dataclass
class ExpansionStudy:
    maxDeviation: float
    t: np.ndarray
    perT: np.ndarray


def expansion_error(params, orbit, t_range, n_t=40):
    """Deviation of the translated family from its first-order expansion:
    max over t and directions of
    |v_{eps,a}(t,theta) - v_eps(t)
       - e^{-t} <theta, a> ((n-4)/2 v_eps(t) - v'_eps(t))|.

    Fields depend on theta only through c = <theta, a/|a|>, so directions are
    sampled as 9 cosine values from -1 to 1.
    """
    n = orbit.constants.n
    a = params.a_vec(n)
    amag = float(np.linalg.norm(a))
    ts = np.linspace(t_range[0], t_range[1], n_t)
    v0 = orbit.eval(ts, 0)
    v1 = orbit.eval(ts, 1)
    per_t = np.zeros(n_t)
    if amag == 0.0:
        return ExpansionStudy(0.0, ts, per_t)
    for c in np.linspace(-1.0, 1.0, 9):
        rho = np.sqrt(1.0 - 2.0 * np.exp(-ts) * c * amag
                      + np.exp(-2.0 * ts) * amag ** 2)
        full = rho ** ((4 - n) / 2.0) * orbit.eval(
            ts + np.log(rho), 0)
        first = v0 + np.exp(-ts) * c * amag * ((n - 4) / 2.0 * v0 - v1)
        per_t = np.maximum(per_t, np.abs(full - first))
    return ExpansionStudy(float(per_t.max()), ts, per_t)
