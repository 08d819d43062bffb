"""End-to-end approximate solutions on a truncated cylinder: the cutoff blend
of the two ends, the curvature defect of the blend, weighted norms, and decay
studies in the overlap length.

The computational domain is the extended annulus in the centered coordinate
s in [-T01-(m+1/2)T, T02+(m+1/2)T]; the end-1 depth coordinate is
t = s - sMin and the end-2 depth coordinate is tau = sMax - s.  The common
Delaunay backbone is v_eps(s + (m+1/2)T): by evenness and periodicity this
equals both ends' phase-shifted orbits exactly, so the blend differs from the
backbone only by the injected end perturbations.

Injected perturbations stand in for the decaying tails of exact summand
solutions.  The defect is therefore evaluated relative to the end fields
(each treated as an exact solution), organized so the backbone contribution
cancels analytically; this keeps the defect meaningful down to machine-
relative size, far below the absolute floor of differencing two full
curvature evaluations.  Off the cutoff ramp the blend equals an end field
bit for bit, so every term of the defect cancels exactly there: it is
evaluated on the ramp widened by two stencil half-widths, and every other
row holds the exact zero it would read.

The annulus geometry is written once, here: WEIGHT_RATE, GluingConfig.neck
and .weightScale, and smooth_step, which every cutoff is built from.
"""

from dataclasses import dataclass, replace
import numpy as np

from .errors import DomainError, NumericalError
from .fd import stencil_size
from .gauges import CylField, paneitz_mode_apply
from .delaunay import DelaunayOrbit, solve_orbit
from .keep import get_or_compute, read_only

__all__ = [
    "EndData", "GluingConfig", "smooth_step", "cutoff_chi",
    "build_approximate", "ApproxSolution", "defect", "DefectResult",
    "log_annulus_weight", "weighted_norm", "decay_study", "DecayStudy",
    "stable_power_remainder",
]

# accuracy order of every finite-difference stencil of the blend and the
# correction (defect, linearization, bordered system, diagnostic)
STENCIL_ORDER = 8
# grid points per orbit period of a blend by default
GRID_PER_PERIOD = 64
# delta of the annulus weight (cosh(mT)/cosh s)^delta by default, and the
# rate the right inverse's decaying directions must beat
WEIGHT_RATE = 1.5


@dataclass(frozen=True)
class Perturbation:
    l: int
    A: float
    beta: float


@dataclass(frozen=True)
class EndData:
    """Asymptotic data of one glued end: phase and the decaying tail
    w0(t, theta) = sum A e^{-beta t} phi_l in that end's depth coordinate.
    Both ends share the config's necksize and carry no translation."""

    T0: float = 0.0
    perturbation: tuple = ()

    def __post_init__(self):
        for pert in self.perturbation:
            if pert.beta <= 1.0:
                raise DomainError(
                    f"perturbation rates must exceed 1, got {pert.beta}")

    @classmethod
    def from_json(cls, doc):
        return cls(
            T0=float(doc.get("T0", 0.0)),
            perturbation=tuple(Perturbation(int(p["l"]), float(p["A"]),
                                            float(p["beta"]))
                               for p in doc.get("perturbation", ())),
        )


@dataclass(frozen=True)
class GluingConfig:
    end1: EndData
    end2: EndData
    m: int
    orbit: DelaunayOrbit

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("overlap index m must be >= 1")

    @property
    def period(self):
        return self.orbit.period

    @property
    def constants(self):
        return self.orbit.constants

    @property
    def neck(self):
        """(m+1/2) T: the neck's half-length, and the backbone's phase."""
        return (self.m + 0.5) * self.period

    @property
    def weightScale(self):
        """m T: the scale of the annulus weight (log_annulus_weight)."""
        return self.m * self.period

    @property
    def sMin(self):
        return -self.end1.T0 - self.neck

    @property
    def sMax(self):
        return self.end2.T0 + self.neck

    @classmethod
    def from_json(cls, doc):
        """Build from the manifest schema
        {n, eps, m, end1: {...}, end2: {...}}."""
        orbit = solve_orbit(int(doc["n"]), float(doc["eps"]))
        return cls(end1=EndData.from_json(doc.get("end1", {})),
                   end2=EndData.from_json(doc.get("end2", {})),
                   m=int(doc["m"]), orbit=orbit)


def _blend_band(cfg):
    """End-1 depths T01 + (m+1/4) T, T01 + (m+3/4) T of the blend band."""
    return [cfg.end1.T0 + (cfg.m + f) * cfg.period for f in (0.25, 0.75)]


def smooth_step(x):
    """C-infinity ramp: 1 for x <= 0, 0 for x >= 1, antisymmetric about 1/2,
    built from the e^{-1/x} mollifier pair; every cutoff is built from it."""
    x = np.asarray(x, dtype=float)

    def f(u):
        out = np.zeros_like(u)
        pos = u > 0
        out[pos] = np.exp(-1.0 / u[pos])
        return out

    fx = f(1.0 - x)
    gx = f(x)
    return fx / (fx + gx)


def cutoff_chi(t, cfg):
    """Blend cutoff in end-1 coordinates: 1 below the blend band, 0 above
    it, a mollifier smoothstep across it, 1/2 at its midpoint."""
    lo, hi = _blend_band(cfg)
    return smooth_step((np.asarray(t, dtype=float) - lo) / (hi - lo))


# ----------------------------------------------------------------------
# stable evaluation of power remainders


def stable_power_remainder(x, p):
    """r(x) = (1+x)^p - 1 - p x with relative accuracy preserved for tiny x.

    For |x| < 1e-3 the binomial series from the quadratic term through
    x^12 is used; otherwise the direct expm1 form (which loses at most a few
    digits near the cut).  Each part is worked in place, in the order of
    those formulas: besides x and the result, the only arrays made are each
    part's values and its running value, two arrays of x's size in all."""
    terms = 12
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x, out=out) < 1e-3
    xs = x[small]
    acc = np.zeros_like(xs)
    # sum_{k>=2} C(p, k) x^k via Horner from the highest retained term
    coeffs = []
    c = 1.0
    for k in range(1, terms + 1):
        c *= (p - (k - 1)) / k
        coeffs.append(c)  # C(p, k)
    for k in range(terms, 1, -1):
        acc += coeffs[k - 1]     # acc = (acc + C(p, k)) x
        acc *= xs
    acc *= xs
    out[small] = acc
    big = ~small
    xb = x[big]
    direct = np.log1p(xb)        # expm1(p log1p(x)) - p x
    direct *= p
    np.expm1(direct, out=direct)
    xb *= p
    direct -= xb
    out[big] = direct
    return out


# ----------------------------------------------------------------------
# the approximate solution


@dataclass
class ApproxSolution:
    """Cutoff blend of the two end fields over the extended annulus.

    `field` is the blended conformal factor; the backbone and the mode-wise
    perturbation pieces, all over the blend's degrees, are kept so defect
    evaluation can cancel the backbone analytically.
    """

    field: CylField
    config: GluingConfig
    cutoffRecord: np.ndarray
    backbone: np.ndarray                  # v_eps(s + (m+1/2)T) on the grid
    w1: CylField                          # end-1 tail
    w2: CylField                          # end-2 tail (in s)
    blend: CylField                       # chi w1 + (1-chi) w2

    @property
    def s(self):
        return self.field.t


# The last blend built in the process, as [key, blend, kept]; kept maps
# what defect and corrector.bordered_system computed on it to the result.
_LAST = []


def kept(approx, what, compute):
    """compute(), kept under `what` while approx is the last blend built,
    and computed at every call for any other blend."""
    if not _LAST or _LAST[1] is not approx:
        return compute()
    return get_or_compute(_LAST[2], what, compute)


def build_approximate(cfg, grid_per_period=GRID_PER_PERIOD):
    """Assemble the blended approximate solution on the extended annulus.

    The blend is computed literally as chi * v1 + (1-chi) * v2 per mode, so on
    the plateaus the field equals the corresponding end field bit-for-bit.

    The process keeps the last blend built and what defect and
    corrector.bordered_system compute on it.  The key is the ends, m and
    grid_per_period, exactly (by repr, so -0.0 is not 0.0), and the orbit
    object; a repeat returns the same blend.  Any other blend first
    releases that one and all that is kept with it.
    """
    key = repr((cfg.end1, cfg.end2, cfg.m, grid_per_period))
    if _LAST and _LAST[0] == key and _LAST[1].config.orbit is cfg.orbit:
        return _LAST[1]
    _LAST.clear()
    s_min, s_max = cfg.sMin, cfg.sMax
    npoints = int(round((s_max - s_min) / (cfg.period / grid_per_period))) + 1
    # read-only from the start, so its fields check it once (CylField)
    s = read_only(np.linspace(s_min, s_max, npoints))
    t_depth = s - s_min          # end-1 coordinate
    tau_depth = s_max - s        # end-2 coordinate
    chi = cutoff_chi(t_depth, cfg)
    backbone = cfg.orbit.eval(s + cfg.neck, 0)

    def tails(end, depth):
        out = {}
        for pert in end.perturbation:
            prof = pert.A * np.exp(-pert.beta * depth)
            out[pert.l] = out.get(pert.l, 0.0) + prof
        return CylField.from_modes(cfg.constants, s, out)

    w1 = tails(cfg.end1, t_depth)
    w2 = tails(cfg.end2, tau_depth)
    degrees = set(w1.degrees) | set(w2.degrees) | {0}
    w1, w2 = w1.padded(degrees), w2.padded(degrees)
    blend = replace(w1, coeffs=chi * w1.coeffs + (1.0 - chi) * w2.coeffs)
    fld = blend + CylField.mode0(cfg.constants, s, backbone)
    if np.any(fld.point_values() <= 0):
        raise DomainError("blended conformal factor is not positive")
    approx = read_only(ApproxSolution(
        field=fld, config=cfg, cutoffRecord=chi, backbone=backbone, w1=w1,
        w2=w2, blend=blend))
    _LAST[:] = [key, approx, {}]
    return approx


# ----------------------------------------------------------------------
# defect of the blend


@dataclass
class DefectResult:
    psi: CylField            # curvature deviation field
    residual: CylField       # equation residual (psi times (n-4)/2 v^p)
    supPsi: float
    weightedPsi: float
    supResidual: float
    supOutsideBand: float
    delta: float


def defect(approx, delta=WEIGHT_RATE):
    """Curvature defect of the blend relative to its end fields.

    The end fields model exact solutions (their tails stand in for the decay
    of true summand solutions), so the defect is
        r = N(v_m) - chi N(v_1) - (1-chi) N(v_2),
    each end field in its own depth coordinate,
    with the backbone contribution cancelled analytically: only cutoff
    commutators on the tails and the blended-power remainder survive, both of
    which vanish identically on the plateaus and carry full relative accuracy
    at any magnitude.  psi = (2/(n-4)) v_m^{-p} r is the pointwise deviation
    of the curvature from its target, up to the ends' own modeled deviations.

    Where chi and its neighbours are all 1 (or all 0) the blend is the end
    field and the three terms cancel exactly, so r is evaluated on the
    ramp widened by two stencil half-widths (_window) and psi and residual
    are exact zeros elsewhere.  supOutsideBand reads the evaluated rows
    outside the band widened by one half-width: a strip of four or five
    rows on each side, which shows leakage if the plateaus stop cancelling.

    The last blend built keeps its defect at each delta (build_approximate).
    """
    return kept(approx, ("defect", repr(delta)),
                lambda: _defect(approx, delta))


def _window(chi):
    """(kept, read) row slices of the defect.  kept is the rows where
    0 < chi < 1 widened by two stencil half-widths, found from where chi
    changes between neighbours, so a grid with no row inside the ramp
    widens about the jump; read pads kept by the operator's reach, so every
    kept row gets the stencil it gets on the whole grid.  Both are clipped
    to the grid, whose ends have the same shifted stencils."""
    nt = len(chi)
    widen = 2 * (stencil_size(4, STENCIL_ORDER) // 2)
    reach = stencil_size(4, STENCIL_ORDER) - 1
    steps = np.flatnonzero(np.diff(chi))
    lo = max(int(steps[0]) + 1 - widen, 0)
    hi = min(int(steps[-1]) + 1 + widen, nt)
    return slice(lo, hi), slice(max(lo - reach, 0), min(hi + reach, nt))


def _defect(approx, delta):
    cfg = approx.config
    consts = cfg.constants
    h = approx.field.h
    kept, read = _window(approx.cutoffRecord)
    chi = approx.cutoffRecord[kept]
    vB = approx.backbone[kept]
    pieces = (approx.blend, approx.w1, approx.w2)
    inner = slice(kept.start - read.start, kept.stop - read.start)

    # linear cutoff commutators, mode by mode
    commutator = np.empty((len(approx.field.degrees), len(chi)))
    for k, l in enumerate(approx.field.degrees):
        Lw, La, Lb = paneitz_mode_apply(
            consts, consts.lam(l),
            np.stack([w.coeffs[k, read] for w in pieces], 1),
            h, acc=STENCIL_ORDER)[inner].T
        commutator[k] = Lw - chi * La - (1.0 - chi) * Lb

    # pointwise nonlinear part: -cN vB^p [r(W/vB) - chi r(w1/vB) - (1-chi) r(w2/vB)]
    basis = approx.field.basis()
    vBcol = vB[:, None]
    rW, r1, r2 = stable_power_remainder(np.stack(
        [basis.reconstruct(w.coeffs[:, kept]) for w in pieces]) / vBcol,
        consts.p)
    chic = chi[:, None]
    nonlinear = -consts.cN * vBcol ** consts.p * (rW - chic * r1
                                                  - (1.0 - chic) * r2)

    res_point = basis.reconstruct(commutator) + nonlinear
    vm_point = basis.reconstruct(approx.field.coeffs[:, kept])
    psi_point = (2.0 / (consts.n - 4)) * vm_point ** (-consts.p) * res_point

    def scattered(point_vals):
        coeffs = np.zeros_like(approx.field.coeffs)
        coeffs[:, kept] = basis.project(point_vals)
        return replace(approx.field, coeffs=coeffs)

    residual, psi = scattered(res_point), scattered(psi_point)

    t_depth = approx.s[kept] - cfg.sMin
    lo, hi = _blend_band(cfg)
    # the discrete operator widens support by one stencil half-width; pad the
    # band by that margin so the outside sup measures genuine leakage
    margin = (stencil_size(4, STENCIL_ORDER) // 2) * h
    band = (t_depth >= lo - margin) & (t_depth <= hi + margin)
    outside = float(np.max(np.abs(psi_point[~band]))) if (~band).any() else 0.0
    wnorm = weighted_norm(replace(psi, t=approx.s[kept],
                                  coeffs=psi.coeffs[:, kept]),
                          delta, scale=cfg.weightScale)
    return DefectResult(
        psi=psi, residual=residual,
        supPsi=float(np.max(np.abs(psi_point))),
        weightedPsi=wnorm,
        supResidual=float(np.max(np.abs(res_point))),
        supOutsideBand=outside, delta=delta)


# ----------------------------------------------------------------------
# norms and decay studies


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)


def log_annulus_weight(s, delta, scale):
    """Log of the annulus weight (cosh(scale)/cosh(s))^delta, overflow-free."""
    return delta * (_log_cosh(scale) - _log_cosh(s))


def weighted_norm(fld, delta, scale):
    """Discrete analogue of the annulus norm: sup over the grid of
    (cosh(scale)/cosh(s))^delta |field| (function values only).  A zero
    value counts 0 also where the weight overflows; a nonzero one there
    makes the norm inf."""
    vals = np.abs(fld.point_values())
    with np.errstate(over="ignore"):
        w = np.exp(log_annulus_weight(fld.t, delta, scale))
    return float(np.max(np.multiply(vals, w[:, None], where=vals != 0.0,
                                    out=np.zeros_like(vals))))


@dataclass
class DecayStudy:
    mList: list
    supPsi: list
    weightedPsi: list
    betaHat: float | None
    fitResidual: float | None
    exact: bool

    def rows(self):
        fit = self.betaHat if self.betaHat is not None else float("nan")
        return [(m, s, w, fit) for m, s, w in
                zip(self.mList, self.supPsi, self.weightedPsi)]


def decay_study(cfg, m_list, grid_per_period=GRID_PER_PERIOD,
                delta=WEIGHT_RATE):
    """Fit the exponential decay of the blend defect in the overlap length.

    Builds the approximate solution for each m in m_list (at least three,
    none repeated, so no length is weighted twice), measures the defect
    sup norm and fits log sup against m T; returns the fitted rate betaHat
    (the negated slope per unit m T) and the max log-residual of the fit.
    cfg.m, if listed, is evaluated first: when cfg's blend at this grid is
    the last one built, that is the blend and defect it keeps
    (build_approximate), so neither is computed again.
    Compatible exact ends (every sup at or below 1e-280) report exact=True
    instead of a fit.
    """
    floor = 1e-280
    m_list = sorted(int(m) for m in m_list)
    if len(m_list) < 3 or len(set(m_list)) < len(m_list):
        raise DomainError("need at least three overlap lengths for a fit, "
                          "none repeated")
    found = {m: defect(build_approximate(replace(cfg, m=m),
                                         grid_per_period=grid_per_period),
                       delta=delta)
             for m in sorted(m_list, key=lambda m: m != cfg.m)}
    sups = [found[m].supPsi for m in m_list]
    weighteds = [found[m].weightedPsi for m in m_list]
    if all(sv <= floor for sv in sups):
        return DecayStudy(m_list, sups, weighteds, None, None, True)
    if any(sv <= floor for sv in sups):
        raise NumericalError("defect crossed the floor inside the sweep; "
                             "fit would be degenerate")
    x = np.array(m_list, dtype=float) * cfg.period
    y = np.log(np.array(sups))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayStudy(m_list, sups, weighteds, float(-slope), resid, False)
