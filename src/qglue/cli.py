"""Batch front end: subcommands wiring the numerical modules, JSON/CSV
emission, and manifest-driven runs, one manifest or a batch of them in one
process.

Only correct and diagnose solve, so the corrector is a lazy module here:
it executes at the first of them, once per process, a batch included, and
a process that runs only the other commands never executes it.

Exit codes: 0 success, 1 manifest/schema violation or a config/manifest
file that cannot be read as JSON, 2 domain error (a parameter that is not
finite among them), 3 numerical failure (escape, divergence,
ill-conditioning, a summary figure that is not finite).  A batch exits
with the largest code of its manifests.
"""

import argparse
import importlib.util
import json
from json.encoder import encode_basestring_ascii
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, ManifestError, NumericalError
from .gauges import derive_constants, q_residual, CylField
from .delaunay import solve_orbit, hamiltonian, _check_necksize
from .jacobi import (ModeOperator, mode_apply, indicial_roots, generators,
                     symplectic_pairing)
from .gluing import (GRID_PER_PERIOD, WEIGHT_RATE, GluingConfig,
                     build_approximate, defect, decay_study)
from .keep import read_only
from .schemas import validate_manifest, validate_summary


def _lazy_module(name):
    """The module name, executed at its first attribute access (importlib's
    LazyLoader): registered in sys.modules and on its package at once, or
    the module already there if it was imported before."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


corrector = _lazy_module(f"{__package__}.corrector")


# float.__repr__ of the floats JSON spells otherwise
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(doc, pad=""):
    """json.dumps(doc, sort_keys=True, indent=1) of a document with string
    keys, without json's pure-Python encoder (its C encoder serves no
    indent): a list of finite floats is one join of float.__repr__, whose
    finite results hold no 'n'."""
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if doc is None or isinstance(doc, bool):
        return "null" if doc is None else "true" if doc else "false"
    if isinstance(doc, int):
        return int.__repr__(doc)
    if isinstance(doc, float):
        text = float.__repr__(doc)
        return _NON_FINITE.get(text, text)
    inner = pad + " "
    sep = ",\n" + inner
    if isinstance(doc, dict):
        brackets = "{}"
        body = sep.join(encode_basestring_ascii(k) + ": "
                        + _json_text(v, inner) for k, v in sorted(doc.items()))
    elif isinstance(doc, (list, tuple)):
        brackets = "[]"
        try:
            body = sep.join(map(float.__repr__, doc))
        except TypeError:       # an item that is not a float
            body = None
        if body is None or "n" in body:
            body = sep.join(_json_text(x, inner) for x in doc)
    else:
        raise TypeError(f"Object of type {type(doc).__name__} is not JSON "
                        f"serializable")
    if not body:
        return brackets
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(_json_text(doc) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) if isinstance(x, float)
                              else str(x) for x in row) + "\n")


RESIDUAL_SPACING = 6.7591 / 128  # T/128 of the n = 5, eps = 0.5 orbit


def _orbit_residual(orbit):
    """Sup residual of the orbit over one period, from order-10 centred
    stencils with padding at max(128, ceil(T / RESIDUAL_SPACING)) points
    per period, so that long periods keep the stencils' spacing."""
    consts = orbit.constants
    T = orbit.period
    npts = max(128, int(np.ceil(T / RESIDUAL_SPACING)))
    h = T / npts
    pad = 8
    # read-only, so its fields check it once (CylField)
    tg = read_only(np.arange(-pad, npts + pad + 1) * h)
    vals = orbit.sample_exact(tg)
    fld = CylField.mode0(consts, tg, vals)
    res = q_residual(fld, acc=10, trim=pad)
    return res.supResidual


def _series_figures(orbit):
    """seriesResidual and seriesTail; 0 for the constant orbit."""
    return {key: float(orbit.diagnostics.get(key, 0.0))
            for key in ("seriesResidual", "seriesTail")}


def _orbit_summary(orbit):
    jets = orbit.jet(np.linspace(0.0, orbit.period, 129)).T.tolist()
    H = np.array([hamiltonian(j, orbit.constants) for j in jets])
    return {
        "command": "orbit",
        "n": orbit.constants.n,
        "eps": orbit.eps,
        "period": orbit.period,
        "vDdot0": orbit.vDdot0,
        "hamiltonian": orbit.hamiltonianValue,
        "isConstant": orbit.isConstant,
        "minDefect": float(orbit.diagnostics.get("minDefect", 0.0)),
        **_series_figures(orbit),
        "residualSup": _orbit_residual(orbit),
        "hamiltonianDrift": float(np.max(np.abs(H - H[0]))
                                  / max(abs(H[0]), 1e-300)),
    }


def cmd_constants(params):
    c = derive_constants(params["n"])
    doc = {"command": "constants", "n": c.n, "c2": c.c2, "c0": c.c0,
           "cN": c.cN, "p": c.p, "qTarget": c.qTarget, "epsBar": c.epsBar,
           "K": c.K, "cH": c.cH}
    return doc, {}


def cmd_orbit(params):
    orbit = solve_orbit(params["n"], params["eps"])
    doc = _orbit_summary(orbit)
    return doc, {"orbit.json": orbit.to_json()}


def _sweep_orbits(consts, eps_list):
    """The orbits at eps_list, in its order.  Every necksize is checked
    before any is solved; then the distinct ones are solved from epsBar
    downwards, each continued from the one before."""
    for eps in eps_list:
        _check_necksize(consts, eps)
    orbits, start = {}, None
    for eps in sorted(set(eps_list), reverse=True):
        start = orbits[eps] = solve_orbit(consts, eps, start=start)
    return [orbits[eps] for eps in eps_list]


def cmd_sweep(params):
    rows = []
    H = []
    for orbit in _sweep_orbits(derive_constants(params["n"]),
                               params["epsList"]):
        rows.append({
            "eps": orbit.eps, "period": orbit.period,
            "hamiltonian": orbit.hamiltonianValue,
            "residualSup": _orbit_residual(orbit),
            **_series_figures(orbit),
        })
        H.append(orbit.hamiltonianValue)
    dH = np.diff(H)
    doc = {"command": "sweep", "n": params["n"], "rows": rows,
           "hamiltonianMonotone": True}
    if len(dH):  # one necksize has no direction
        direction = ("increasing" if np.all(dH > 0) else
                     "decreasing" if np.all(dH < 0) else "non-monotone")
        doc.update(hamiltonianMonotone=direction != "non-monotone",
                   hamiltonianDirection=direction)
    csv_rows = [(r["eps"], r["period"], r["hamiltonian"], r["residualSup"])
                for r in rows]
    return doc, {"sweep.csv": ("eps,period,hamiltonian,residualSup",
                               csv_rows)}


def cmd_indicial(params):
    orbit = solve_orbit(params["n"], params["eps"])
    spec = indicial_roots(orbit, params.get("modes", [0, 1, 2])).to_json()
    doc = {"command": "indicial", "n": spec["n"], "eps": spec["eps"],
           "modes": spec["modes"]}
    csv_rows = [(e["l"], e["lambda"],
                 ";".join(repr(x) for x in e["exponents"]))
                for e in doc["modes"]]
    return doc, {"spectrum.json": spec,
                 "spectrum.csv": ("l,lambda,exponents", csv_rows)}


def _family_difference(orbit, d, ts):
    """d/deps of (v on ts, the energy) along the family, from the orbits at
    eps +- d by centred differences, or, where eps + d passes epsBar, from
    those at eps - d and eps - 2 d by the second-order one-sided formula
    (3 f(eps) - 4 f(eps - d) + f(eps - 2 d)) / (2 d).  The neighbours are
    Newton solutions of their own, continued from the orbit.  A d that is
    not finite, takes the stencil out of (0, epsBar] or leaves a point of it
    at eps by rounding is a DomainError."""
    consts, eps = orbit.constants, orbit.eps
    centred = eps + d <= consts.epsBar
    # (weight, offset in units of d) of each neighbour
    stencil = ([(1.0, 1.0), (-1.0, -1.0)] if centred
               else [(-4.0, -1.0), (1.0, -2.0)])
    if not all(0.0 < eps + k * d <= consts.epsBar and eps + k * d != eps
               for _, k in stencil):
        raise DomainError(
            f"dEps must be finite and keep the difference stencil about "
            f"eps = {eps!r} inside (0, {consts.epsBar:.6f}] and apart from "
            f"eps, got {d!r}")
    terms = [] if centred else [(3.0, orbit)]
    terms += [(w, solve_orbit(consts, eps + k * d, start=orbit))
              for w, k in stencil]
    return (sum(w * o.eval(ts, 0) for w, o in terms) / (2.0 * d),
            sum(w * o.hamiltonianValue for w, o in terms) / (2.0 * d))


def cmd_jacobi(params):
    orbit = solve_orbit(params["n"], params["eps"])
    basis = generators(orbit)
    # cross-check of the necksize field against differences of
    # neighbouring orbits, and the energy's derivative along the family
    T = orbit.period
    ts = np.linspace(0.0, T, 60)
    fd, dH = _family_difference(orbit, params.get("dEps", 1e-4), ts)
    cross = float(np.max(np.abs(basis.profile(0, "-", ts) - fd)))
    gpp = params.get("gridPerPeriod", GRID_PER_PERIOD)
    tg = np.linspace(-T, 2 * T, 3 * gpp + 1)
    residuals = {}
    rates = {}
    trim = slice(8, -8)
    for tag, sign, deg in basis.fields():
        op = ModeOperator(orbit, orbit.constants.lam(deg))
        w = basis.profile(deg, sign, tg)
        r = mode_apply(op, tg, w)
        residuals[tag + sign] = float(np.max(np.abs(r[trim]))
                                      / np.max(np.abs(w[trim])))
        # degree 0 has no exponential rate: the phase field v' is periodic
        # and the necksize field grows linearly
        if deg == 1:
            rates[tag + sign] = basis.measured_rate(deg, sign)
    ts = np.linspace(0.0, T, 33)
    om = symplectic_pairing(ModeOperator(orbit, 0.0), basis.jet(0, "-", ts),
                            basis.jet(0, "+", ts))
    doc = {"command": "jacobi", "n": orbit.constants.n, "eps": orbit.eps,
           "dsdEps": basis.dsdEps, "dTdEps": basis.dTdEps,
           "crossValidationError": cross,
           "generatorResiduals": residuals, "measuredRates": rates,
           "pairingRatio": float(np.mean(om) / dH),
           "pairingDrift": float(np.max(np.abs(om - om[0])))}
    return doc, {}


def cmd_glue(params):
    cfg = GluingConfig.from_json(params["config"])
    gpp = params.get("gridPerPeriod", GRID_PER_PERIOD)
    delta = params.get("delta", WEIGHT_RATE)
    approx = build_approximate(cfg, grid_per_period=gpp)
    d = defect(approx, delta=delta)
    doc = {"command": "glue", "n": cfg.constants.n, "eps": cfg.orbit.eps,
           "m": cfg.m, "supPsi": d.supPsi, "weightedPsi": d.weightedPsi,
           "supResidual": d.supResidual,
           "supOutsideBand": d.supOutsideBand, "delta": delta}
    artifacts = {"field.json": approx.field.to_json(),
                 "psi.json": d.psi.to_json()}
    if "mList" in params:
        st = decay_study(cfg, params["mList"], grid_per_period=gpp,
                         delta=delta)
        doc["study"] = {"mList": st.mList, "supPsi": st.supPsi,
                        "weightedPsi": st.weightedPsi, "betaHat": st.betaHat,
                        "fitResidual": st.fitResidual, "exact": st.exact}
        artifacts["study.csv"] = ("m,supPsi,weightedPsi,fitBeta", st.rows())
    return doc, artifacts


def cmd_correct(params):
    cfg = GluingConfig.from_json(params["config"])
    gpp = params.get("gridPerPeriod", GRID_PER_PERIOD)
    approx = build_approximate(cfg, grid_per_period=gpp)
    options = {arg: params[key] for key, arg in (
        ("scheme", "scheme"), ("tol", "tol"), ("maxIter", "max_iter"),
        ("minIter", "min_iter")) if key in params}
    result = corrector.iterate(approx,
                               degrees=tuple(params.get("modes", [0])),
                               **options)
    res_sup, psi_sup = corrector.verify_correction(result)
    ratios = [r[3] for r in result.trace.rows if np.isfinite(r[3])]
    doc = {"command": "correct", "n": cfg.constants.n, "eps": cfg.orbit.eps,
           "m": cfg.m, "scheme": result.scheme,
           "initialDefect": result.initialDefect,
           "finalDefect": result.finalDefect,
           "residualSup": res_sup, "psiSup": psi_sup,
           "converged": result.converged,
           "iterations": len(result.trace.rows) - 1,
           "maxRatio": max(ratios) if ratios else None,
           "alpha": {f"{l}:{side}{sign}": val
                     for (l, side, sign), val in result.alpha.items()}}
    if np.isfinite(result.cond):
        doc["cond"] = result.cond
        doc["solveResidual"] = result.solveResidual
    return doc, {"corrected.json": result.solution.to_json(),
                 "trace.csv": ("k,defectSup,corrSup,ratio",
                               result.trace.rows)}


def cmd_diagnose(params):
    cfg = GluingConfig.from_json(params["config"])
    gpp = params.get("gridPerPeriod", GRID_PER_PERIOD)
    approx = build_approximate(cfg, grid_per_period=gpp)
    degrees = tuple(params.get("modes", [0]))
    correction = None
    conds = {}
    corrected = bool(params.get("applyCorrection", True))
    if corrected:
        result = corrector.iterate(approx, degrees=degrees)
        correction = result.correction
        if np.isfinite(result.cond):
            conds["borderedSystem"] = result.cond
    diag = corrector.nondegeneracy_diag(
        approx, correction, delta=params.get("delta", WEIGHT_RATE),
        delta_prime=params.get("deltaPrime"), degrees=degrees)
    doc = {"command": "diagnose", "n": cfg.constants.n, "eps": cfg.orbit.eps,
           "m": cfg.m, "sigmaMin": diag.sigmaMin, "delta": diag.delta,
           "deltaPrime": diag.deltaPrime,
           "perMode": {str(l): v for l, v in diag.perMode.items()},
           "corrected": corrected, "condEstimates": conds}
    return doc, {"diagnostics.json": doc}


HANDLERS = {
    "constants": cmd_constants,
    "orbit": cmd_orbit,
    "sweep": cmd_sweep,
    "indicial": cmd_indicial,
    "jacobi": cmd_jacobi,
    "glue": cmd_glue,
    "correct": cmd_correct,
    "diagnose": cmd_diagnose,
}


def _non_finite(doc, path=""):
    """(path, value) of the first NaN or infinite float in the JSON document
    doc, or None; the path joins keys with '.' and indexes with [i]."""
    if isinstance(doc, dict):
        parts = ((f"{path}.{k}" if path else str(k), v) for k, v in doc.items())
    elif isinstance(doc, list):
        parts = ((f"{path}[{i}]", v) for i, v in enumerate(doc))
    else:
        return (path, doc) if isinstance(doc, float) and not np.isfinite(
            doc) else None
    return next(filter(None, (_non_finite(v, p) for p, v in parts)), None)


def execute(manifest):
    """Validate and run a manifest; returns (summary, artifacts).  A
    parameter that is not finite is a DomainError naming it, and a summary
    figure that is not finite a NumericalError: nothing is written."""
    validate_manifest(manifest)
    bad = _non_finite(manifest["params"])
    if bad:
        raise DomainError(f"{bad[0]} must be finite, got {bad[1]!r}")
    out = manifest.get("out", "qglue_out")
    summary, artifacts = HANDLERS[manifest["command"]](manifest["params"])
    validate_summary(summary)
    bad = _non_finite(summary)
    if bad:
        raise NumericalError(f"summary figure {bad[0]} is not finite: "
                             f"{bad[1]!r}")
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "summary.json"), summary)
    for name, payload in artifacts.items():
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            header, rows = payload
            _write_csv(path, header.split(","), rows)
        else:
            _write_json(path, payload)
    return summary, artifacts


def _necksize(token):
    """A float, or the literal 'epsbar' kept until n is known."""
    if token.strip().lower() == "epsbar":
        return "epsbar"
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"necksize must be a number or 'epsbar', got {token!r}") from None


def _resolve_eps(n, token):
    """Necksize of a _necksize token; 'epsbar' is the family maximum (its
    printed rounding exceeds the exact value, so a literal is cleaner)."""
    return derive_constants(n).epsBar if token == "epsbar" else token


def _parse_modes(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return _int_list(text)


def _int_list(text):
    return [int(x) for x in text.split(",")]


def build_parser():
    """The command line.  Each option's dest is its manifest key, and an
    option left out is left out of the manifest, so no default lives here
    (README, CLI); only --out and --seed have their own, and no output
    depends on --seed."""
    ap = argparse.ArgumentParser(
        prog="qglue",
        description="constant-curvature gluing on punctured spheres: "
                    "orbits, linear analysis, blends and corrections")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS,
                              **kwargs)

    def common(p):
        p.add_argument("--out", default="qglue_out")
        p.add_argument("--seed", type=int, default=0)

    p = command("constants", help="dimension-dependent coefficients")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = command("orbit", help="solve one periodic orbit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True, type=_necksize,
                   help="necksize; the literal 'epsbar' selects the maximum")
    common(p)

    p = command("sweep", help="orbit family sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-list", dest="epsList", required=True,
                   type=lambda text: [_necksize(tok)
                                      for tok in text.split(",")],
                   help="comma-separated necksizes; 'epsbar' allowed")
    common(p)

    p = command("indicial", help="Floquet exponents per mode")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True, type=_necksize)
    p.add_argument("--modes", type=_parse_modes)
    common(p)

    p = command("jacobi", help="generator fields and pairing checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True, type=_necksize)
    p.add_argument("--deps", dest="dEps", type=float)
    common(p)

    for name, extra in (("glue", ("delta", "m-list")),
                        ("correct", ("scheme", "tol", "modes")),
                        ("diagnose", ("delta", "delta-prime", "modes"))):
        p = command(name)
        p.add_argument("--config", required=True,
                       help="gluing configuration JSON file")
        p.add_argument("--m", type=int,
                       help="override the config's overlap length")
        p.add_argument("--grid-per-period", dest="gridPerPeriod", type=int)
        if "delta" in extra:
            p.add_argument("--delta", type=float)
        if "delta-prime" in extra:
            p.add_argument("--delta-prime", dest="deltaPrime", type=float)
        if "m-list" in extra:
            p.add_argument("--m-list", dest="mList", type=_int_list,
                           help="overlap sweep for the decay study, e.g. "
                                "1,2,3,4,5")
        if "scheme" in extra:
            p.add_argument("--scheme", choices=["picard", "newton"])
        if "tol" in extra:
            p.add_argument("--tol", type=float)
        if "modes" in extra:
            p.add_argument("--modes", type=_parse_modes)
        common(p)

    p = command("run", help="execute a run manifest, or a JSON array of "
                            "them in one process")
    p.add_argument("manifest")
    return ap


def _load_json(path):
    """The JSON document in the file at path; ManifestError naming the file
    if it cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot load {path!r}: {exc}") from None


def _manifest_from_args(args):
    params = dict(vars(args))
    cmd = params.pop("command")
    if cmd == "run":
        return _load_json(args.manifest)
    out, seed = params.pop("out"), params.pop("seed")
    if "eps" in params:
        params["eps"] = _resolve_eps(params["n"], params["eps"])
    if "epsList" in params:
        params["epsList"] = [_resolve_eps(params["n"], tok)
                             for tok in params["epsList"]]
    if "config" in params:
        config = params["config"] = _load_json(params["config"])
        if "m" in params:
            m = params.pop("m")
            if isinstance(config, dict):  # else the schema rejects it
                config["m"] = m
    return {"command": cmd, "params": params, "out": out, "seed": seed}


# exit code and standard-error label of each error a run reports; any other
# exception is a program fault and propagates
_FAILURES = {ManifestError: (1, "manifest error"),
             DomainError: (2, "domain error"),
             NumericalError: (3, "numerical failure")}


def _failure(exc):
    """(exit code, message) of one of the _FAILURES."""
    code, label = next(v for cls, v in _FAILURES.items()
                       if isinstance(exc, cls))
    return code, f"{label}: {exc}"


def _run_batch(manifests, path):
    """Execute the manifests in order, each as alone; a failure is reported
    and the next one runs.  Writes and prints the status document
    (schemas.BATCH_STATUS_SCHEMA) and returns the batch's exit code."""
    entries = []
    for i, manifest in enumerate(manifests):
        entry = {"exitCode": 0}
        try:
            execute(manifest)
        except tuple(_FAILURES) as exc:
            entry["exitCode"], entry["error"] = _failure(exc)
            print(f"manifest {i}: {entry['error']}", file=sys.stderr)
        entries.append(entry)
    status = {"exitCode": max((e["exitCode"] for e in entries), default=0),
              "manifests": entries}
    _write_json(os.path.splitext(path)[0] + ".status.json", status)
    print(_json_text(status))
    return status["exitCode"]


def main(argv=None):
    """Run the command line; returns the exit code: 0 success, 1 manifest
    error, 2 domain error, 3 numerical failure, with the error on standard
    error and, on success, the summary on standard output.

    `run` takes one manifest or a JSON array of manifests, a batch.  A
    batch runs in this one process, in order, and each manifest writes its
    own `out`, byte-identical to a run of it alone; a failing manifest does
    not stop the rest.  Its manifests share what the process keeps: each
    orbit with its mode flows, and the last blend with its defect and
    factored system (README, "What the process keeps").
    The batch exits with the largest exit code of its manifests (0 for an
    empty array), and writes that code and each manifest's, in the batch's
    order, to <file>.status.json beside the batch file <file>.json, and
    to standard output."""
    args = build_parser().parse_args(argv)
    try:
        manifest = _manifest_from_args(args)
        if isinstance(manifest, list):
            return _run_batch(manifest, args.manifest)
        summary, _ = execute(manifest)
    except tuple(_FAILURES) as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code
    print(_json_text(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
