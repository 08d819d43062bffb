"""The fourth-order necksize ODE: periodic orbits and conserved energy.

An orbit is stored as the cosine series
v(t) = eps + sum_{k=1..N} a_k (cos(k omega t) - 1), even about its minimum
v(0) = eps and exactly periodic with T = 2 pi / omega, so evaluation has no
seams and no window limit.  (a_1..a_N, omega) solve the ODE collocated at
N + 1 points of a half period (Boyd, Chebyshev and Fourier Spectral
Methods, 2nd ed., chs. 2-4), by Newton's method continued in log eps from
the linearization at epsBar or from an orbit already solved.  The path runs
on a short series, whose points only feed the predictor (Allgower and
Georg, Introduction to Numerical Continuation Methods, ch. 2); at eps the
series is padded and solved again until it is resolved.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError
from .gauges import GaugeConstants, derive_constants
from .keep import frozen_cache, get_or_compute

__all__ = ["hamiltonian", "DelaunayOrbit", "solve_orbit"]


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


# ----------------------------------------------------------------------
# the periodic orbit family


SPLIT = 8  # block length B of _series_jet's split powers


def _series_jet(at_zero, a, omega, t, max_deriv):
    """Derivatives 0..max_deriv at the points of the 1-d array t, one row
    each, of the series at_zero + sum_k a_k (cos(k omega t) - 1), k = 1..N.
    At t = 0 the value row is at_zero and the odd rows are +0.0 exactly.

    The powers z^k of z = e^{i omega t} are split as z^j w^m with
    k = j + B m, j = 1..B, w = z^B (B = SPLIT; a is padded with zeros to a
    multiple of B): E1 = (z^1..z^B) and E2 = (w^0..w^(M-1)) are cumulative
    products, and row d is the real part of i^d sum_k a_k (k omega)^d z^k =
    i^d sum_m w^m sum_j z^j A_d[j, m], one matrix product per row, with A_d
    the (B, M) reshape of a_k (k omega)^d.  One complex exponential per
    point replaces N cosines and N sines.  The value row sums
    a_k ((z^j - 1) w^m + (w^m - 1)), which vanishes exactly at z = 1."""
    rows = np.zeros((max_deriv + 1, len(t)))
    rows[0] = at_zero
    if not len(a):
        return rows
    M = -(-len(a) // SPLIT)
    coeffs = np.zeros(M * SPLIT)
    coeffs[:len(a)] = a
    kw = np.arange(1, M * SPLIT + 1) * omega
    z = np.exp(1j * np.mod(omega * t, 2.0 * np.pi))
    E1 = np.cumprod(np.repeat(z[:, None], SPLIT, axis=1), axis=1)
    E2 = np.ones((len(t), M), dtype=complex)
    E2[:, 1:] = np.cumprod(np.repeat(E1[:, -1:], M - 1, axis=1), axis=1)
    A0 = coeffs.reshape(M, SPLIT).T
    rows[0] += (((E1 - 1.0) @ A0) * E2).sum(1).real + (
        (E2 - 1.0) @ A0.sum(0)).real
    for d in range(1, max_deriv + 1):
        S = ((E1 @ (coeffs * kw ** d).reshape(M, SPLIT).T) * E2).sum(1)
        # Re(i^d S) is -Im, -Re, Im, Re for d = 1, 2, 3, 0 mod 4; adding
        # 0.0 turns the -0.0 of a vanishing row into +0.0
        part = S.imag if d % 2 else S.real
        rows[d] = (1.0 if d % 4 in (0, 3) else -1.0) * part + 0.0
    return rows


@dataclass(frozen=True)
class DelaunayOrbit:
    """One periodic orbit as the cosine series
    v(t) = eps + sum_{k=1..N} a_k (cos(k omega t) - 1) of period
    T = 2 pi / omega.  eval(t, k) returns the k-th t-derivative (k <= 3),
    jet any number of them.  The constant orbit at epsBar has N = 0.

    solve_orbit hands one orbit to every caller with the same inputs, so
    it is frozen.  memo keeps what jacobi computes from the orbit alone,
    its mode flows (monodromy_data) and its generators;
    dataclasses.replace starts a new orbit with an empty one."""

    constants: GaugeConstants
    eps: float
    omega: float
    coeffs: np.ndarray  # a_1..a_N
    diagnostics: dict
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    @property
    def isConstant(self):
        return self.coeffs.size == 0

    @property
    def vDdot0(self):
        return self.eval(0.0, 2)

    @property
    def hamiltonianValue(self):
        return hamiltonian((self.eps, 0.0, self.vDdot0, 0.0), self.constants)

    # -- evaluation -------------------------------------------------------

    def eval(self, t, deriv=0):
        if deriv < 0 or deriv > 3:
            raise DomainError("derivative order must be 0..3")
        out = self.jet(t, deriv)[deriv]
        return float(out) if np.ndim(t) == 0 else out

    def jet(self, t, max_deriv=3):
        """Stacked derivatives 0..max_deriv at t."""
        rows = _series_jet(self.eps, self.coeffs, self.omega,
                           np.atleast_1d(np.asarray(t, dtype=float)),
                           max_deriv)
        return rows[:, 0] if np.ndim(t) == 0 else rows

    def sample_states(self, tgrid):
        """The (4, len(tgrid)) jets (v, v', v'', v''') on any window."""
        return self.jet(np.asarray(tgrid, dtype=float))

    def sample_exact(self, tgrid):
        """v at every point of tgrid."""
        return self.eval(np.asarray(tgrid, dtype=float), 0)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        ts = np.linspace(0.0, self.period, 257)
        v, vDot, vDdot, vDddot = self.jet(ts)
        return {
            "n": self.constants.n,
            "eps": self.eps,
            "period": self.period,
            "vDdot0": self.vDdot0,
            "hamiltonian": self.hamiltonianValue,
            "isConstant": self.isConstant,
            "nSamples": self.coeffs.size + 1,  # a_0..a_N
            "t": [float(x) for x in ts],
            "v": [float(x) for x in v],
            "vDot": [float(x) for x in vDot],
            "vDdot": [float(x) for x in vDdot],
            "vDddot": [float(x) for x in vDddot],
            "diagnostics": self.diagnostics,
        }


PATH_N = 8           # cosines of the continuation path
SERIES_START = 64    # cosines of the first full series; doubled while
                     # unresolved
SERIES_MAX = 1024
SERIES_TAIL = 1e-16  # |a_N| / max |a_k| at which the doubling stops
CONTINUE_MISS = 0.05  # largest relative predictor miss of a continuation step
NEWTON_FLOOR = 1e-10  # _relative step of the rounding floor; a continuation
                      # point short of the requested necksize stops there


@frozen_cache
def _cosines(N):
    """cos(pi j k / N) for j = 0..N (rows) and k = 1..N (columns), with
    j k reduced mod 2 N so that every argument is exact."""
    return np.cos(np.pi * (np.outer(np.arange(N + 1), np.arange(1, N + 1))
                           % (2 * N)) / N)


def _collocation(consts, eps, a, omega):
    """The ODE v'''' - c2 v'' + c0 v - cN v^p of the series (eps, a, omega)
    at the nodes t_j = j pi / (N omega), j = 0..N, where cos(k omega t_j) =
    cos(pi j k / N) does not depend on omega: the residual, its Jacobian in
    (a_1..a_N, omega), shared by Newton and the necksize field, and its
    eps-derivative."""
    c2, c0, cN, p = consts.c2, consts.c0, consts.cN, consts.p
    C = _cosines(len(a))
    kw2 = (np.arange(1, len(a) + 1) * omega) ** 2
    # symbol of d^4 - c2 d^2 + c0 on cos(k omega t), and its omega-derivative
    L = kw2 * (kw2 + c2) + c0
    dL = (4.0 * kw2 + 2.0 * c2) * kw2 / omega
    v = eps + (C - 1.0) @ a
    vp = v ** (p - 1)
    res = c0 * eps + C @ (L * a) - c0 * np.sum(a) - cN * vp * v
    pot = cN * p * vp
    jac = np.empty((len(a) + 1, len(a) + 1))
    jac[:, :-1] = C * L - c0 - pot[:, None] * (C - 1.0)
    jac[:, -1] = C @ (dL * a)
    return res, jac, c0 - pot


def _relative(dx, x, eps):
    """Change dx of x = (a, omega) as the order of the change of v over a
    period, max(|da_k|, |d omega / omega| max |a_k|), relative to
    max(eps, max |a_k|).  (Near epsBar omega itself is only determined to
    rounding over the amplitude max |a_k|.)"""
    amp = np.max(np.abs(x[:-1]))
    return (max(np.max(np.abs(dx[:-1])), abs(dx[-1] / x[-1]) * amp)
            / max(eps, amp))


def _newton(consts, eps, x, tol=1e-15):
    """Newton's method on the collocation equations from x = (a, omega),
    until the _relative step falls below tol or stops decreasing below
    NEWTON_FLOOR; None if a step is not finite or 40 do not settle."""
    prev = np.inf
    for _ in range(40):
        # a diverging iterate may reach v <= 0 (v^p is nan) or overflow
        with np.errstate(invalid="ignore", over="ignore"):
            res, jac, _ = _collocation(consts, eps, x[:-1], x[-1])
            dx = np.linalg.solve(jac, -res)
        if not np.all(np.isfinite(dx)):
            return None
        x = x + dx
        step = _relative(dx, x, eps)
        if step < tol or (prev < NEWTON_FLOOR and step >= prev):
            return x
        prev = step
    return None


def _tangent(consts, eps, a, omega):
    """d(a, omega)/deps along the family at the series (a, omega) that
    solves the collocation equations G(a, omega, eps) = 0: J x = -dG/deps
    with J their Jacobian (the implicit function theorem)."""
    _, jac, res_eps = _collocation(consts, eps, a, omega)
    return np.linalg.solve(jac, -res_eps)


def _epsbar_symbol(consts, lam):
    """Roots mu^2 of mu^4 - A mu^2 + (lam^2 + B - K epsBar^(p-1)), the
    symbol of the mode-lam linearization about the constant orbit."""
    A, B = consts.mode_coefficients(lam)
    return np.roots([1.0, -A, lam ** 2 + B
                     - consts.K * consts.epsBar ** (consts.p - 1)])


def _omega0(consts):
    """Linearization frequency at epsBar: sqrt(-mu^2), mode 0's mu^2 < 0."""
    musq = _epsbar_symbol(consts, 0.0)
    neg = musq[musq < 0]
    if neg.size != 1:
        raise NumericalError("unexpected linearization spectrum at epsBar")
    return float(np.sqrt(-neg[0]))


def _continue(consts, eps, N, start=None):
    """(a, omega) of the N-cosine series with minimum eps, by Newton's
    method continued in u = log eps.  Without a start orbit (or from the
    constant one) the path leaves the constant orbit (a = 0, omega0) along
    its tangent a_1 = eps - epsBar; from an interior start orbit, truncated
    to N cosines, it runs in either direction.  Each point is predicted to
    second order in u, from the tangent d(a, omega)/du at the last point
    (_tangent) and its change over the last step.  A step counts if Newton
    moves its predictor by at most CONTINUE_MISS, in _relative and in
    omega / omega_pred - 1; a longer one may land on the orbit traversed
    twice (omega halved), which near epsBar, where the amplitude is small,
    only omega shows.  Points short of eps stop Newton at NEWTON_FLOOR.
    The step in u starts at 0.04 toward eps, quarters on failure and
    doubles after a miss below CONTINUE_MISS / 5."""
    if start is None or start.isConstant:
        u = np.log(consts.epsBar)
        x = np.zeros(N + 1)
        x[-1] = _omega0(consts)
        tangent = np.zeros(N + 1)
        tangent[0] = consts.epsBar
    else:
        u = np.log(start.eps)
        x = np.append(start.coeffs[:N], start.omega)
        tangent = start.eps * _tangent(consts, start.eps, x[:-1], x[-1])
    bend = np.zeros(N + 1)  # d tangent / du over the last step
    u_end = np.log(eps)
    h = np.copysign(0.04, u_end - u)
    while True:
        last = abs(h) >= abs(u_end - u)
        if last:
            h = u_end - u
        pred = x + h * tangent + 0.5 * h * h * bend
        e = eps if last else np.exp(u + h)
        new = _newton(consts, e, pred, 1e-15 if last else NEWTON_FLOOR)
        miss = np.inf if new is None else max(
            _relative(new - pred, new, e), abs(new[-1] / pred[-1] - 1.0))
        if miss > CONTINUE_MISS:
            h /= 4.0
            if abs(h) < 1e-8:
                raise NumericalError(
                    f"orbit continuation stalled at eps={np.exp(u):.6g}")
            continue
        if last:
            return new
        new_tangent = e * _tangent(consts, e, new[:-1], new[-1])
        bend = (new_tangent - tangent) / h
        x, tangent = new, new_tangent
        u += h
        if miss < CONTINUE_MISS / 5.0:
            h *= 2.0


def _tail(eps, a):
    """|a_N| / max |a_k| over k = 0..N, with a_0 = eps - sum a_k."""
    return float(abs(a[-1]) / max(abs(eps - np.sum(a)), np.max(np.abs(a))))


def _diagnostics(consts, eps, a, omega):
    """seriesResidual, the ODE residual at the midpoints between the
    collocation nodes relative to max |v''''| there; seriesTail; and
    minDefect, |min v - eps| over nodes and midpoints."""
    t = np.pi * np.arange(2 * len(a) + 1) / (2 * len(a) * omega)
    v, _, v2, _, v4 = _series_jet(eps, a, omega, t, 4)
    res = v4 - consts.c2 * v2 + consts.c0 * v - consts.cN * v ** consts.p
    return {"seriesResidual": float(np.max(np.abs(res[1::2]))
                                    / np.max(np.abs(v4[1::2]))),
            "seriesTail": _tail(eps, a),
            "minDefect": float(abs(np.min(v) - eps))}


def _check_necksize(consts, eps):
    if not (0 < eps <= consts.epsBar * (1 + 1e-12)):
        raise DomainError(
            f"necksize must lie in (0, {consts.epsBar:.6f}], got {eps}")


# solve_orbit's memo for the life of the process: its exact inputs -> the
# orbit.  Orbits are a few kB each, and nothing grid-sized is kept.
_ORBITS = {}


def solve_orbit(n_or_consts, eps, start=None):
    """The periodic orbit with minimum eps, as a cosine series: _continue
    reaches eps with PATH_N cosines, from epsBar or, given one, from the
    start orbit of the same dimension truncated to them.  At eps alone the
    series is padded to twice as many cosines and solved again by Newton,
    through SERIES_START and on while its tail exceeds SERIES_TAIL.  Either
    way the orbit is a Newton solution at eps with the N it gets alone, so
    a start only shortens the path.  eps = epsBar returns the constant
    orbit, of the linearization period.

    Kept for the life of the process on its exact inputs: the constants,
    eps and, given one, the start orbit's eps, omega and coefficient bytes
    (a start moves the result by rounding, so a started and a start-free
    solve are separate entries).  A repeat returns the same DelaunayOrbit,
    with what jacobi keeps on it."""
    consts = (n_or_consts if isinstance(n_or_consts, GaugeConstants)
              else derive_constants(n_or_consts))
    _check_necksize(consts, eps)
    key = (consts, float(eps), None if start is None else
           (start.eps, start.omega, start.coeffs.tobytes()))
    return get_or_compute(_ORBITS, key, lambda: _solve(consts, eps, start))


def _solve(consts, eps, start):
    """solve_orbit without its memo."""
    if abs(eps - consts.epsBar) <= 1e-12 * consts.epsBar:
        omega0 = _omega0(consts)
        return DelaunayOrbit(consts, consts.epsBar, omega0, np.zeros(0),
                             {"omega0": omega0})
    N = PATH_N
    x = _continue(consts, eps, N, start)
    while N < SERIES_START or _tail(eps, x[:-1]) > SERIES_TAIL:
        x = (_newton(consts, eps, np.concatenate([x[:-1], np.zeros(N),
                                                  x[-1:]]))
             if 2 * N <= SERIES_MAX else None)
        if x is None:
            raise NumericalError(f"orbit series did not resolve for eps={eps}")
        N *= 2
    a, omega = x[:-1], float(x[-1])
    return DelaunayOrbit(consts, eps, omega, a,
                         _diagnostics(consts, eps, a, omega))
