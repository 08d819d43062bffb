"""Dimension constants, cylinder fields, the cylindrical fourth-order
conformal operator and the constant-curvature residual.

Conventions fixed here and used everywhere else:

* cylindrical coordinate t = -log(dist/r0), so t grows toward the puncture;
* angular Laplacian sign Delta_theta phi = -lambda phi with lambda = l(l+n-2);
* a field on the cylinder is stored as one (degrees x points) array of
  angular-mode coefficients: v(t, theta) = sum_l w_l(t) phi_l(theta) with
  phi_l the degree-l zonal polynomial normalized by phi_l(1) = 1 (so
  phi_0 == 1 and phi_1 = <theta, e>).
"""

from dataclasses import dataclass, replace
from math import gamma, pi, sqrt

import numpy as np

from .errors import DomainError
from .fd import band_apply, derivative_band, stencil_size
from .keep import frozen_cache

__all__ = [
    "GaugeConstants", "derive_constants", "CylField", "AngularBasis",
    "angular_basis", "paneitz_mode_apply", "paneitz_mode_band",
    "q_residual", "QResidual",
]


@dataclass(frozen=True)
class GaugeConstants:
    """All dimension-dependent coefficients of the cylindrical problem.

    c2, c0   second- and zeroth-order ODE coefficients,
    cN       coefficient of the critical nonlinearity v^p,
    p        critical exponent (n+4)/(n-4),
    qTarget  the constant curvature value n(n^2-4)/8,
    epsBar   largest necksize; the constant solution of the ODE,
    K        linearized potential coefficient n(n+4)(n^2-4)/16,
    cH       coefficient of v^(2n/(n-4)) in the conserved energy.
    """

    n: int
    c2: float
    c0: float
    cN: float
    p: float
    qTarget: float
    epsBar: float
    K: float
    cH: float

    @property
    def qExp(self):
        """Exponent 2n/(n-4) of the energy's potential term."""
        return 2.0 * self.n / (self.n - 4)

    def lam(self, l):
        """Angular eigenvalue of the degree-l zonal mode."""
        return float(l * (l + self.n - 2))

    def mode_coefficients(self, lam):
        """(A, B) of the mode-lam operator w'''' - A w'' + (lam^2 + B) w,
        with A = 2 lam + c2 and B = (n(n-4)/2) lam + c0; callers add
        lam^2 + B."""
        return (2 * lam + self.c2,
                self.n * (self.n - 4) / 2.0 * lam + self.c0)


def derive_constants(n):
    """Constants of the cylindrical equation in dimension n >= 5."""
    if int(n) != n or n < 5:
        raise DomainError(f"dimension must be an integer >= 5, got {n}")
    n = int(n)
    return GaugeConstants(
        n=n,
        c2=(n * (n - 4) + 8) / 2.0,
        c0=n ** 2 * (n - 4) ** 2 / 16.0,
        cN=n * (n ** 2 - 4) * (n - 4) / 16.0,
        p=(n + 4) / (n - 4),
        qTarget=n * (n ** 2 - 4) / 8.0,
        epsBar=(n * (n - 4) / (n ** 2 - 4)) ** ((n - 4) / 8.0),
        K=n * (n + 4) * (n ** 2 - 4) / 16.0,
        cH=(n - 4) ** 2 * (n ** 2 - 4) / 32.0,
    )


# ----------------------------------------------------------------------
# angular machinery: zonal modes on S^{n-1}


def _zonal(L, alpha, c):
    """Rows phi_l = C_l^alpha / C_l^alpha(1), l = 0..L, at the points c, by
    the three-term recurrence written for d_l = phi_l - phi_{l-1}, which
    rounds less near c = 1: (l + 2 alpha) d_{l+1} = 2 (l + alpha) (c - 1)
    phi_l + l d_l."""
    phi = np.empty((L + 1, len(c)))
    phi[0] = 1.0
    if L:
        phi[1] = c
    d = c - 1.0
    for l in range(1, L):
        d = (2 * (l + alpha) / (l + 2 * alpha)) * (c - 1) * phi[l] \
            + (l / (l + 2 * alpha)) * d
        phi[l + 1] = d + phi[l]
    return phi


def _gauss_gegenbauer(N, alpha):
    """The N-point Gauss rule for the weight (1 - c^2)^(alpha - 1/2) on
    [-1, 1]: the eigenvalues of the Jacobi matrix (Golub & Welsch 1969),
    each polished by one Newton step with (1 - c^2) phi_N' = N (phi_{N-1} -
    c phi_N), and the weights 1 / (phi_{N-1} phi_N'), phi_N' taken before
    the step as SciPy's roots_gegenbauer does, made symmetric and scaled to
    the weight's mass sqrt(pi) Gamma(alpha + 1/2) / Gamma(alpha + 1)."""
    k = np.arange(1, N)
    off = np.sqrt(k * (k + 2 * alpha - 1)
                  / (4 * (k + alpha) * (k + alpha - 1)))
    c = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    phi = _zonal(N, alpha, c)
    slope = N * (phi[N - 1] - c * phi[N]) / (1 - c ** 2)
    c = c - phi[N] / slope
    w = 1.0 / (_zonal(N - 1, alpha, c)[N - 1] * slope)
    c, w = (c - c[::-1]) / 2, (w + w[::-1]) / 2
    return c, w * (sqrt(pi) * gamma(alpha + 0.5) / gamma(alpha + 1) / w.sum())


class AngularBasis:
    """Zonal harmonics of degree 0..L on S^{n-1} sampled at Gauss-Gegenbauer
    quadrature nodes in c = cos(polar angle).

    phi_l(c) is the degree-l Gegenbauer polynomial C_l^{(n-2)/2} normalized to
    phi_l(1) = 1; projection uses the sphere measure factor (1-c^2)^{(n-3)/2}.
    """

    def __init__(self, n, degrees, nquad):
        self.n = n
        self.degrees = tuple(int(l) for l in degrees)
        alpha = (n - 2) / 2.0
        # the Gauss weight (1-c^2)^(alpha - 1/2) is (1-c^2)^((n-3)/2)
        self.nodes, self.weights = _gauss_gegenbauer(nquad, alpha)
        self.phi = _zonal(max(self.degrees, default=0), alpha,
                          self.nodes)[list(self.degrees)]
        self.norm2 = np.sum(self.weights * self.phi ** 2, axis=1)

    def reconstruct(self, coeffs):
        """Point values on the quadrature nodes from mode coefficients.

        coeffs: (nmodes, nt) -> (nt, nquad) array.
        """
        return np.asarray(coeffs).T @ self.phi

    def project(self, point_vals):
        """Mode coefficients from (nt, nquad) point values."""
        out = (point_vals * self.weights) @ self.phi.T
        return (out / self.norm2).T


@frozen_cache
def angular_basis(n, degrees, nquad):
    """The shared AngularBasis of (n, degrees, nquad)."""
    return AngularBasis(n, degrees, nquad)


# ----------------------------------------------------------------------
# cylinder fields


@dataclass
class CylField:
    """Function on a truncated cylinder stored as zonal-mode coefficients on a
    uniform t-grid: row k of `coeffs` samples the degree-`degrees[k]` mode,
    and the degrees strictly increase."""

    constants: GaugeConstants
    t: np.ndarray
    degrees: tuple
    coeffs: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if len(self.t) < 2:
            raise DomainError("t grid needs at least two points")
        dt = np.diff(self.t)
        # allclose's bound at rtol = atol / |dt[0]| = 1e-12, in one pass; a
        # NaN step fails the comparison
        if not np.max(np.abs(dt - dt[0])) <= 2e-12 * abs(dt[0]):
            raise DomainError("t grid must be uniform")
        self.degrees = tuple(int(l) for l in self.degrees)
        if any(b <= a for a, b in zip(self.degrees, self.degrees[1:])):
            raise DomainError("mode degrees must be strictly increasing")
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (len(self.degrees), len(self.t)):
            raise DomainError("need one coefficient row per degree, each "
                              "as long as the t grid")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_modes(cls, constants, t, samples_by_degree):
        degrees = sorted(samples_by_degree)
        rows = [samples_by_degree[l] for l in degrees]
        return cls(constants, t, degrees,
                   np.stack(rows) if rows else np.empty((0, len(t))))

    @classmethod
    def mode0(cls, constants, t, samples):
        return cls.from_modes(constants, t, {0: samples})

    # -- basic accessors ------------------------------------------------

    @property
    def h(self):
        return float(self.t[1] - self.t[0])

    def mode(self, l):
        if l not in self.degrees:
            raise KeyError(f"no mode of degree {l}")
        return self.coeffs[self.degrees.index(l)]

    def rows(self, degrees):
        """(len(degrees), nt) rows of the given degrees, zero where the field
        has no mode of that degree."""
        out = np.zeros((len(degrees), len(self.t)))
        for k, l in enumerate(degrees):
            if l in self.degrees:
                out[k] = self.mode(l)
        return out

    def padded(self, degrees):
        """The field over its own degrees and `degrees`, zero in the added
        modes; the field itself when it already has every one."""
        both = sorted(set(self.degrees) | set(degrees))
        if len(both) == len(self.degrees):
            return self
        return replace(self, degrees=both, coeffs=self.rows(both))

    def basis(self):
        """The angular basis of the field's degrees on max(16, 2L + 12)
        quadrature nodes, L the largest degree."""
        return angular_basis(self.constants.n, self.degrees,
                             max(16, 2 * max(self.degrees, default=0) + 12))

    def point_values(self):
        """(nt, nquad) samples of the field on the angular quadrature set."""
        return self.basis().reconstruct(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other):
        if len(other.t) != len(self.t) or abs(other.t[0] - self.t[0]) > 1e-12 \
                or abs(other.h - self.h) > 1e-14:
            raise DomainError("fields live on different grids")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(zip(self.degrees, self.coeffs))
        for l, c in zip(other.degrees, other.coeffs):
            out[l] = out.get(l, 0.0) + c
        return CylField.from_modes(self.constants, self.t, out)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        return replace(self, coeffs=self.coeffs * float(scalar))

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "n": self.constants.n,
            "tMin": float(self.t[0]),
            "tMax": float(self.t[-1]),
            "nT": int(len(self.t)),
            "modes": [
                {"l": l, "lambda": self.constants.lam(l),
                 "samples": [float(x) for x in row]}
                for l, row in zip(self.degrees, self.coeffs)
            ],
        }


# ----------------------------------------------------------------------
# the fourth-order operator and the residual


def paneitz_mode_apply(consts, lam, w, h, acc):
    """The cylindrical fourth-order conformal operator on one mode,
    w -> w'''' + lam^2 w - (2 lam + c2) w'' + ((n(n-4)/2) lam + c0) w, on
    samples w of spacing h (or on (points, k) columns of them): the product
    with paneitz_mode_band at the reach of the shifted end stencils."""
    reach = stencil_size(4, acc) - 1
    return band_apply(paneitz_mode_band(consts, lam, len(w), h, acc, reach),
                      w, reach)


def paneitz_mode_band(consts, lam, npoints, h, acc, reach):
    """The mode operator as an (npoints, 2 reach + 1) band: row i holds the
    weights on points i - reach .. i + reach (fd.derivative_band)."""
    A, B = consts.mode_coefficients(lam)
    band = derivative_band(npoints, 4, acc, reach) * h ** -4.0
    band -= (A * h ** -2.0) * derivative_band(npoints, 2, acc, reach)
    band[:, reach] += lam ** 2 + B
    return band


@dataclass
class QResidual:
    residual: CylField
    qField: CylField
    supResidual: float
    supQ: float


def q_residual(v, acc=8, trim=None):
    """Constant-curvature residual and pointwise curvature deviation.

    residual = P_cyl(v) - cN v^p re-projected to modes;
    qField   = (2/(n-4)) v^{-p} P_cyl(v) - qTarget, the deviation of the
               curvature of v^{4/(n-4)} g_cyl from its target value.

    Sup norms are taken over the t-grid and the angular quadrature set; the
    reported sups skip `trim` points at each end (the one-sided-stencil
    zone, default one stencil width) while the returned fields cover the
    full grid.
    """
    consts = v.constants
    basis = v.basis()
    vals = basis.reconstruct(v.coeffs)
    if np.any(vals <= 0):
        raise DomainError("conformal factor must be positive on the "
                          "angular quadrature set")
    Pvals = basis.reconstruct(np.stack(
        [paneitz_mode_apply(consts, consts.lam(l), w, v.h, acc=acc)
         for l, w in zip(v.degrees, v.coeffs)]))
    res_vals = Pvals - consts.cN * vals ** consts.p
    q_vals = (2.0 / (consts.n - 4)) * vals ** (-consts.p) * Pvals - consts.qTarget
    residual = replace(v, coeffs=basis.project(res_vals))
    qfield = replace(v, coeffs=basis.project(q_vals))
    if trim is None:
        trim = stencil_size(4, acc) // 2
    sl = slice(trim, len(v.t) - trim) if trim else slice(None)
    return QResidual(
        residual=residual,
        qField=qfield,
        supResidual=float(np.max(np.abs(res_vals[sl]))),
        supQ=float(np.max(np.abs(q_vals[sl]))),
    )
