"""The fourth-order necksize ODE: periodic orbits, conserved energy, and the
translated/deformed solution family.

Orbits are found by shooting in the second derivative at the minimum and are
stored on a half period; evaluation extends by evenness and periodicity, so
the stored object is exactly symmetric and exactly periodic while the raw
shooting mismatch is kept as a diagnostic.
"""

from dataclasses import dataclass, field
import json

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly
from scipy.optimize import brentq

from .errors import DomainError, NumericalError
from .gauges import GaugeConstants, derive_constants

__all__ = [
    "OdeState", "ode_rhs", "hamiltonian", "integrate", "Trajectory",
    "sample_contiguous", "DelaunayOrbit", "solve_orbit", "FamilyParams",
    "eval_family", "expansion_error", "ExpansionStudy",
]

DEFAULT_TOL = 1e-11


@dataclass(frozen=True)
class OdeState:
    v: float
    vDot: float
    vDdot: float
    vDddot: float

    def array(self):
        return np.array([self.v, self.vDot, self.vDdot, self.vDddot])

    @classmethod
    def from_array(cls, y):
        return cls(*map(float, y))


def ode_rhs(state, consts):
    """Right-hand side of the first-order system for
    v'''' = c2 v'' - c0 v + cN v^p.  Requires v > 0."""
    if state.v <= 0:
        raise DomainError(f"v must be positive, got {state.v}")
    return OdeState(
        state.vDot, state.vDdot, state.vDddot,
        consts.c2 * state.vDdot - consts.c0 * state.v
        + consts.cN * state.v ** consts.p)


def hamiltonian(state, consts):
    """Conserved energy
    H = -v' v''' + v''^2/2 + (c2/2) v'^2 - (c0/2) v^2 + cH v^(2n/(n-4)).

    d/dt H = -v'(v'''' - c2 v'' + c0 v - cN v^p) vanishes along solutions
    because cH * (2n/(n-4)) = cN; checked symbolically in the test suite.
    """
    v, v1, v2, v3 = state.v, state.vDot, state.vDdot, state.vDddot
    pot = consts.cH * v ** consts.qExp if v > 0 else (
        0.0 if v == 0 else consts.cH * abs(v) ** consts.qExp)
    return (-v1 * v3 + 0.5 * v2 ** 2 + 0.5 * consts.c2 * v1 ** 2
            - 0.5 * consts.c0 * v ** 2 + pot)


def _rhs_arrays(consts):
    c2, c0, cN, p = consts.c2, consts.c0, consts.cN, consts.p

    def rhs(t, y):
        v = y[0]
        return (y[1], y[2], y[3], c2 * y[2] - c0 * v + cN * v ** p)

    return rhs


@dataclass
class Trajectory:
    """Result of an adaptive integration with dense output."""

    tSpan: tuple
    escaped: str | None
    tEscape: float | None
    constants: GaugeConstants
    _sol: object

    def __call__(self, t, deriv=0):
        vals = self._sol(np.atleast_1d(np.asarray(t, dtype=float)))
        out = vals[deriv]
        return out if np.ndim(t) else float(out[0])

    def state(self, t):
        return OdeState.from_array(self._sol(np.array([t]))[:, 0])


def integrate(state0, t_span, consts, tol=DEFAULT_TOL,
              floor=1e-10, ceil=1e3, max_step=np.inf):
    """Adaptive high-order integration of the necksize ODE with dense output.

    Escape (v crossing `floor` downward or `ceil` upward) terminates the run;
    the returned Trajectory records the escape time and direction instead of
    raising, so shooting loops can classify.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    rhs = _rhs_arrays(consts)

    def ev_low(t, y):
        return y[0] - floor

    ev_low.terminal = True
    ev_low.direction = -1

    def ev_high(t, y):
        return y[0] - ceil

    ev_high.terminal = True
    ev_high.direction = 1

    sol = solve_ivp(rhs, t_span, state0.array(), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True,
                    events=[ev_low, ev_high], max_step=max_step)
    escaped, t_esc = None, None
    if sol.t_events[0].size:
        escaped, t_esc = "down", float(sol.t_events[0][0])
    elif sol.t_events[1].size:
        escaped, t_esc = "up", float(sol.t_events[1][0])
    return Trajectory(tSpan=t_span, escaped=escaped, tEscape=t_esc,
                      constants=consts, _sol=sol.sol)


def sample_contiguous(rhs, t0, y0, tgrid, tol, max_step, failure):
    """States at every point of tgrid of the solution with y(t0) = y0, from
    one contiguous DOP853 run below t0 and one above it.

    Steps are capped at max_step and at half the smallest spacing of tgrid.
    Returns a (len(y0), len(tgrid)) array; raises NumericalError(failure)
    when a run fails."""
    tgrid = np.asarray(tgrid, dtype=float)
    if len(tgrid) > 1:
        max_step = min(max_step, 0.5 * float(np.min(np.diff(np.sort(tgrid)))))
    out = np.empty((len(y0), len(tgrid)))
    out[:, tgrid == t0] = np.asarray(y0, dtype=float)[:, None]
    for mask, direction in ((tgrid < t0, -1), (tgrid > t0, +1)):
        if not mask.any():
            continue
        te = np.sort(tgrid[mask])[::direction]
        sol = solve_ivp(rhs, (t0, float(te[-1])), y0, method="DOP853",
                        rtol=tol, atol=tol, t_eval=te, max_step=max_step)
        if not sol.success:
            raise NumericalError(failure)
        lookup = {t: sol.y[:, i] for i, t in enumerate(te)}
        for j in np.where(mask)[0]:
            out[:, j] = lookup[tgrid[j]]
    return out


# ----------------------------------------------------------------------
# the periodic orbit family


@dataclass
class DelaunayOrbit:
    """One periodic orbit, stored on [0, T/2] and extended by symmetry.

    eval(t, k) returns the k-th t-derivative (k <= 3 for callers; 4 and 5 are
    derived from the ODE internally).  The representation is even about t = 0
    and T/2 and exactly T-periodic.
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
        return self._eval_any(t, deriv)

    def _eval_any(self, t, deriv):
        scalar = np.ndim(t) == 0
        if self.isConstant:
            out = np.full(np.shape(np.atleast_1d(t)), self.eps if deriv == 0 else 0.0)
            return float(out[0]) if scalar else out
        if deriv >= 4:
            c = self.constants
            v = self._eval_any(t, 0)
            if deriv == 4:
                v2 = self._eval_any(t, 2)
                return c.c2 * v2 - c.c0 * v + c.cN * v ** c.p
            if deriv == 5:
                v1 = self._eval_any(t, 1)
                v3 = self._eval_any(t, 3)
                return (c.c2 * v3 - c.c0 * v1
                        + c.cN * c.p * v ** (c.p - 1) * v1)
            raise DomainError("derivative order must be 0..5")
        y, sign = self._reduce(t)
        vals = self._interp[deriv](y)
        if deriv % 2 == 1:
            vals = sign * vals
        return float(vals) if scalar else vals

    def state(self, t):
        return OdeState(self.eval(t, 0), self.eval(t, 1),
                        self.eval(t, 2), self.eval(t, 3))

    def jet(self, t, max_deriv=3):
        """Stacked derivatives 0..max_deriv at t (max_deriv <= 5)."""
        return np.stack([self._eval_any(t, k) for k in range(max_deriv + 1)])

    def sample_states(self, tgrid, tol=1e-13):
        """Sample the full jet (v, v', v'', v''') by one contiguous
        step-capped integration from the minimum at t = 0.

        The reflected-periodic representation is ideal for evaluation but its
        reduction seams (periodicity defect at multiples of the period, the
        shooting-level derivative kink at the turning points) get amplified
        by high-order difference stencils; a contiguous trajectory has no
        seams and its integration error varies smoothly in t, which residual-
        grade sampling needs.

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
        return sample_contiguous(
            _rhs_arrays(self.constants), 0.0,
            [self.eps, 0.0, self.vDdot0, 0.0], tgrid, tol,
            self.period / 512.0, "orbit sampling failed")

    def sample_exact(self, tgrid, tol=1e-13):
        """Seam-free samples of v; see sample_states, including its limit
        of about 1.5 periods from t = 0."""
        return self.sample_states(tgrid, tol=tol)[0]

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

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json(), f, sort_keys=True)

    @classmethod
    def from_json(cls, doc, tol=DEFAULT_TOL):
        """Rebuild an evaluable orbit; re-solves the half-period interpolant
        from the stored shooting data so evaluation quality matches a fresh
        solve."""
        consts = derive_constants(doc["n"])
        if doc["isConstant"]:
            return _constant_orbit(consts, tol)
        return _build_orbit(consts, doc["eps"], doc["vDdot0"],
                            doc["period"], tol, diagnostics=doc.get("diagnostics", {}))

    @classmethod
    def load(cls, path, tol=DEFAULT_TOL):
        with open(path) as f:
            return cls.from_json(json.load(f), tol=tol)


def _half_period_interp(consts, eps, s, T, nodes=1025, tol=1e-13):
    """Quintic Hermite interpolants of derivatives 0..3 on [0, T/2].

    Each component gets its own interpolant built from its sampled value and
    the next two sampled (or ODE-supplied) derivatives, so every component
    keeps sample-level accuracy; differentiating a single value interpolant
    would amplify integrator noise by a power of the node spacing."""
    half = T / 2.0
    tgrid = np.linspace(0.0, half, nodes)
    rhs = _rhs_arrays(consts)
    sol = solve_ivp(rhs, (0.0, half), [eps, 0.0, s, 0.0], method="DOP853",
                    rtol=tol, atol=tol, t_eval=tgrid,
                    max_step=half / (nodes - 1))
    if not sol.success or sol.y.shape[1] != nodes:
        raise NumericalError("half-period integration failed")
    v, v1, v2, v3 = (c.copy() for c in sol.y)
    # symmetry pins the odd derivatives at both ends of a half period
    v1[0] = v3[0] = 0.0
    v1[-1] = v3[-1] = 0.0
    v4 = consts.c2 * v2 - consts.c0 * v + consts.cN * v ** consts.p
    v5 = (consts.c2 * v3 - consts.c0 * v1
          + consts.cN * consts.p * v ** (consts.p - 1) * v1)
    comps = [(v, v1, v2), (v1, v2, v3), (v2, v3, v4), (v3, v4, v5)]
    interp = [BPoly.from_derivatives(tgrid, np.stack(jets, axis=1))
              for jets in comps]
    return interp, sol.y[:, -1]


def _constant_orbit(consts, tol):
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
    state = OdeState(eb, 0.0, 0.0, 0.0)
    return DelaunayOrbit(
        constants=consts, eps=eb, period=2 * np.pi / omega0, vDdot0=0.0,
        hamiltonianValue=hamiltonian(state, consts), isConstant=True,
        diagnostics={"omega0": omega0}, nSamples=0, _interp=None)


def _first_max(consts, eps, s, tmax=120.0, tol=1e-13):
    """Integrate until the first interior maximum (vdot = 0 crossing downward)
    or an escape; returns (kind, t, state)."""
    rhs = _rhs_arrays(consts)

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

    sol = solve_ivp(rhs, (0.0, tmax), [eps, 0.0, s, 0.0], method="DOP853",
                    rtol=tol, atol=tol, events=[ev_max, ev_low, ev_high])
    if sol.t_events[0].size:
        return "max", float(sol.t_events[0][0]), sol.y_events[0][0]
    if sol.t_events[1].size:
        return "down", float(sol.t_events[1][0]), None
    if sol.t_events[2].size:
        return "up", float(sol.t_events[2][0]), None
    return "none", None, None


def _escape_direction(consts, eps, s, tmax=150.0, tol=1e-12):
    traj = integrate(OdeState(eps, 0.0, s, 0.0), (0.0, tmax), consts,
                     tol=tol, floor=eps * (1 - 1e-7), ceil=1.6)
    if traj.escaped == "down":
        return -1
    if traj.escaped == "up":
        return +1
    return 0


def _build_orbit(consts, eps, s, T, tol, diagnostics=None):
    interp, end_state = _half_period_interp(consts, eps, s, T)
    state0 = OdeState(eps, 0.0, s, 0.0)
    H = hamiltonian(state0, consts)
    diags = dict(diagnostics or {})
    # symmetry mismatch at the turning point: size of the odd derivatives
    diags.setdefault("halfTurnOddDerivs",
                     [float(abs(end_state[1])), float(abs(end_state[3]))])
    orbit = DelaunayOrbit(
        constants=consts, eps=eps, period=T, vDdot0=s,
        hamiltonianValue=H, isConstant=False, diagnostics=diags,
        nSamples=1025, _interp=interp)
    # round-trip periodicity of the representation
    st_T = orbit.state(T).array()
    diags["periodicityDefect"] = float(np.max(np.abs(st_T - state0.array())))
    vmin = float(np.min(interp[0](np.linspace(0, T / 2, 4097))))
    diags["minDefect"] = float(abs(vmin - eps))
    return orbit


def solve_orbit(n_or_consts, eps, tol=DEFAULT_TOL, s_bracket=(1e-6, 2.0)):
    """Shooting solver for the periodic orbit with minimum eps.

    Bisection classifies trajectories by escape direction (too small a
    curvature at the minimum escapes downward, too large upward), then the
    root of the third derivative at the first interior maximum polishes the
    shooting unknown to machine precision.  eps = epsBar returns the constant
    orbit with the linearization period.
    """
    consts = (n_or_consts if isinstance(n_or_consts, GaugeConstants)
              else derive_constants(n_or_consts))
    if not (0 < eps <= consts.epsBar * (1 + 1e-12)):
        raise DomainError(
            f"necksize must lie in (0, {consts.epsBar:.6f}], got {eps}")
    if abs(eps - consts.epsBar) <= 1e-12 * consts.epsBar:
        return _constant_orbit(consts, tol)

    lo, hi = s_bracket
    if _escape_direction(consts, eps, lo) >= 0:
        raise NumericalError("lower shooting bracket does not escape downward")
    if _escape_direction(consts, eps, hi) <= 0:
        raise NumericalError("upper shooting bracket does not escape upward")
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        d = _escape_direction(consts, eps, mid)
        if d < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break

    def g(s):
        kind, _, ym = _first_max(consts, eps, s)
        return ym[3] if kind == "max" else None

    glo, ghi = g(lo), g(hi)
    tries = 0
    while (glo is None or ghi is None or glo * ghi > 0) and tries < 60:
        w = max(hi - lo, 1e-12)
        if glo is None or (ghi is not None and glo * ghi > 0):
            lo -= w
            glo = g(lo)
        else:
            hi += w
            ghi = g(hi)
        tries += 1
    if glo is None or ghi is None or glo * ghi > 0:
        raise NumericalError(
            f"shooting bracket not found for eps={eps} "
            f"(bisection window [{lo}, {hi}])")
    s_star = brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16, maxiter=200)
    kind, t_max, _ = _first_max(consts, eps, s_star)
    if kind != "max":
        raise NumericalError(f"polished shooting value escaped for eps={eps}")
    return _build_orbit(consts, eps, s_star, 2.0 * t_max, tol)


# ----------------------------------------------------------------------
# deformed family


@dataclass(frozen=True)
class FamilyParams:
    """Necksize, phase T (dilation parameter R = e^{-T}) and the translation
    a of the point at infinity."""

    eps: float
    T: float = 0.0
    a: tuple = ()

    def a_vec(self, n):
        a = np.zeros(n)
        if len(self.a):
            a[:len(self.a)] = self.a
        return a


def eval_family(params, orbit, x):
    """Deformed solution in the Euclidean gauge:
    u(x) = |x|^{(4-n)/2} |x/|x| - |x| a|^{(4-n)/2}
           v_eps(-log|x| + log|x/|x| - |x| a| + T)."""
    n = orbit.constants.n
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x)
    if r == 0:
        raise DomainError("evaluation at the singular point x = 0")
    a = params.a_vec(n)[:len(x)]
    w = x / r - r * a
    rho = np.linalg.norm(w)
    if rho < 1e-14:
        raise DomainError("evaluation at the second singular point a/|a|^2")
    t_arg = -np.log(r) + np.log(rho) + params.T
    return float(r ** ((4 - n) / 2.0) * rho ** ((4 - n) / 2.0)
                 * orbit.eval(t_arg, 0))


@dataclass
class ExpansionStudy:
    maxDeviation: float
    t: np.ndarray
    perT: np.ndarray


def expansion_error(params, orbit, t_range, n_t=40, cos_values=None):
    """Deviation of the translated family from its first-order expansion:
    max over t and directions of
    |v_{eps,T,a}(t,theta) - v_{eps,T}(t)
       - e^{-t} <theta, a> ((n-4)/2 v_{eps,T}(t) - v'_{eps,T}(t))|.

    Fields depend on theta only through c = <theta, a/|a|>, so directions are
    sampled as cosine values.
    """
    n = orbit.constants.n
    a = params.a_vec(n)
    amag = float(np.linalg.norm(a))
    ts = np.linspace(t_range[0], t_range[1], n_t)
    if cos_values is None:
        cos_values = np.linspace(-1.0, 1.0, 9)
    v0 = orbit.eval(ts + params.T, 0)
    v1 = orbit.eval(ts + params.T, 1)
    per_t = np.zeros(n_t)
    if amag == 0.0:
        return ExpansionStudy(0.0, ts, per_t)
    for c in cos_values:
        rho = np.sqrt(1.0 - 2.0 * np.exp(-ts) * c * amag
                      + np.exp(-2.0 * ts) * amag ** 2)
        full = rho ** ((4 - n) / 2.0) * orbit.eval(
            ts + params.T + np.log(rho), 0)
        first = v0 + np.exp(-ts) * c * amag * ((n - 4) / 2.0 * v0 - v1)
        per_t = np.maximum(per_t, np.abs(full - first))
    return ExpansionStudy(float(per_t.max()), ts, per_t)
