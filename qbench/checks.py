"""Output checks of every benchmark command.

Each check takes the summary an ``execute`` call returned (and, where
needed, the artifacts it wrote) and returns a list of problems; an empty
list means the output is correct.  The checks test properties the method
must have, or compare with values computed here independently of qglue;
none compares with saved output of an earlier run.
"""

import csv
import json
import math
import os
import sys

from workloads import eps_bar

PSI_TOL = 1e-8          # corrected field: deviation-units residual
COND_LIMIT = 1e13       # the program's own bordered-condition limit
RESIDUAL_TOL = 1e-7     # orbit residual
EXPONENT_TOL = 1e-6
RATE_TOL = 0.01         # measured translation rates against -+1
DRIFT_TOL = 1e-7        # boundary-pairing drift over one period
BETA_TOL = 0.1          # decay-study rate against the injected tail rate
AGREE_TOL = 1e-6        # picard vs newton, relative to the correction size
ROUNDING_ULPS = 8       # ... plus the rounding of the stored field


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def closed_form_exponents(n, l):
    """Sorted real parts of the roots of
    r^4 - (2 lam + c2) r^2 + (lam^2 + n(n-4) lam / 2 + c0 - K epsBar^(p-1)),
    the indicial polynomial of the constant orbit, from the closed-form
    constants of dimension n."""
    lam = l * (l + n - 2)
    c2 = (n * (n - 4) + 8) / 2.0
    c0 = n ** 2 * (n - 4) ** 2 / 16.0
    K = n * (n + 4) * (n ** 2 - 4) / 16.0
    p = (n + 4) / (n - 4)
    b = 2 * lam + c2
    q = lam ** 2 + n * (n - 4) / 2.0 * lam + c0 - K * eps_bar(n) ** (p - 1)
    disc = complex(b * b - 4 * q) ** 0.5
    roots = []
    for r2 in ((b + disc) / 2, (b - disc) / 2):
        r = complex(r2) ** 0.5
        roots += [r.real, -r.real]
    return sorted(roots)


def check_correct(summary, params, expect):
    bad = []
    if summary.get("scheme") != params["scheme"]:
        bad.append(f"scheme {summary.get('scheme')!r} != {params['scheme']!r}")
    if summary.get("converged") is not True:
        bad.append("did not converge")
    if not summary.get("iterations", 0) >= expect.get("minIterations", 1):
        bad.append(f"iterations {summary.get('iterations')} below "
                   f"{expect.get('minIterations', 1)} (a no-op correction)")
    psi = summary.get("psiSup")
    if not (_finite(psi) and psi < PSI_TOL):
        bad.append(f"psiSup {psi} not below {PSI_TOL}")
    cond = summary.get("cond")
    if not (_finite(cond) and 1.0 <= cond <= COND_LIMIT):
        bad.append(f"cond {cond} outside [1, {COND_LIMIT}]")
    if "contraction" in expect:
        ratio = summary.get("maxRatio")
        if not (_finite(ratio) and ratio < expect["contraction"]):
            bad.append(f"max contraction ratio {ratio} not below "
                       f"{expect['contraction']}")
    return bad


def check_diagnose(summary, params, expect):
    bad = []
    per_mode = summary.get("perMode", {})
    if sorted(per_mode) != sorted(str(l) for l in params["modes"]):
        bad.append(f"perMode keys {sorted(per_mode)} != modes "
                   f"{params['modes']}")
    sigma = summary.get("sigmaMin")
    if not (_finite(sigma) and sigma > 0):
        bad.append(f"sigmaMin {sigma} not finite and positive")
    elif per_mode and sigma != min(per_mode.values()):
        bad.append(f"sigmaMin {sigma} != min(perMode) "
                   f"{min(per_mode.values())}")
    return bad


def check_sweep(summary, params, expect):
    bad = []
    rows = summary.get("rows", [])
    if len(rows) != len(params["epsList"]):
        bad.append(f"{len(rows)} rows for {len(params['epsList'])} necksizes")
    for row in rows:
        res = row.get("residualSup")
        if not (_finite(res) and res < RESIDUAL_TOL):
            bad.append(f"eps={row.get('eps')}: residualSup {res} not below "
                       f"{RESIDUAL_TOL}")
    if summary.get("hamiltonianMonotone") is not True:
        bad.append("Hamiltonian not monotone along the sweep")
    return bad


def check_indicial(summary, params, expect):
    bad = []
    modes = {m["l"]: m["exponents"] for m in summary.get("modes", [])}
    if sorted(modes) != sorted(params["modes"]):
        bad.append(f"modes {sorted(modes)} != {params['modes']}")
    for l, exps in modes.items():
        e = sorted(exps)
        if len(e) != 4 or not all(_finite(x) for x in e):
            bad.append(f"mode {l}: exponents {exps}")
            continue
        if abs(e[0] + e[3]) > EXPONENT_TOL or abs(e[1] + e[2]) > EXPONENT_TOL:
            bad.append(f"mode {l}: exponents {e} not in +- pairs")
        if l == 1 and not (abs(e[1] + 1.0) <= EXPONENT_TOL
                           and abs(e[2] - 1.0) <= EXPONENT_TOL):
            bad.append(f"mode 1: exponents {e} miss the translation pair -+1")
        if expect.get("closedForm"):
            ref = closed_form_exponents(params["n"], l)
            if max(abs(a - b) for a, b in zip(e, ref)) > EXPONENT_TOL:
                bad.append(f"mode {l}: exponents {e} != closed form {ref}")
    return bad


def check_jacobi(summary, params, expect):
    bad = []
    rates = summary.get("measuredRates", {})
    for key, want in (("l+", -1.0), ("l-", 1.0)):
        got = rates.get(key)
        if not (_finite(got) and abs(got - want) <= RATE_TOL):
            bad.append(f"translation rate {key} = {got}, expected {want}")
    drift = summary.get("pairingDrift")
    if not (_finite(drift) and drift < DRIFT_TOL):
        bad.append(f"pairingDrift {drift} not below {DRIFT_TOL}")
    return bad


def check_glue(summary, params, expect):
    beta = summary.get("study", {}).get("betaHat")
    want = expect["tailRate"]
    if not (_finite(beta) and abs(beta - want) <= BETA_TOL):
        return [f"decay-study betaHat {beta} not within {BETA_TOL} of the "
                f"tail rate {want}"]
    return []


CHECKS = {
    "correct": check_correct,
    "diagnose": check_diagnose,
    "sweep": check_sweep,
    "indicial": check_indicial,
    "jacobi": check_jacobi,
    "glue": check_glue,
}


def check_op(op, summary):
    """Problems with one command's summary."""
    if summary.get("command") != op.command:
        return [f"summary of {summary.get('command')!r}, ran {op.command!r}"]
    return CHECKS[op.command](summary, op.params, op.expect)


def _read_field(out):
    with open(os.path.join(out, "corrected.json")) as fh:
        doc = json.load(fh)
    return {m["l"]: m["samples"] for m in doc["modes"]}


def _correction_steps(out):
    """corrSup of every iteration step, from the iteration trace."""
    with open(os.path.join(out, "trace.csv")) as fh:
        return [float(row["corrSup"]) for row in csv.DictReader(fh)][1:]


def check_schemes_agree(picard_out, newton_out):
    """Picard and Newton reach one fixed point: their corrected fields, read
    back from corrected.json, agree to AGREE_TOL of the correction size
    (the first step's corrSup) plus what each iteration left unresolved.

    A contraction with ratio below 1/2 (checked per scheme) is within its
    last step of its fixed point, so each scheme's last corrSup is added:
    Picard stops once the defect is below tol, which can leave it ratio x
    last step (measured up to 3.5e-6 of the correction) from the fixed
    point.  corrected.json stores blend + correction, so a floor of a few
    ulps of the O(1) field is added as well."""
    a, b = _read_field(picard_out), _read_field(newton_out)
    if sorted(a) != sorted(b) or any(len(a[l]) != len(b[l]) for l in a):
        return ["picard and newton corrected fields differ in layout"]
    diff = max(abs(x - y) for l in a for x, y in zip(a[l], b[l]))
    size = max(abs(x) for l in a for x in a[l])
    steps_p, steps_n = _correction_steps(picard_out), _correction_steps(
        newton_out)
    scale = steps_p[0]
    tol = (AGREE_TOL * scale + steps_p[-1] + steps_n[-1]
           + ROUNDING_ULPS * sys.float_info.epsilon * size)
    if not (scale > 0 and diff <= tol):
        return [f"picard/newton corrected fields differ by {diff:.3e}, "
                f"allowed {tol:.3e} (correction size {scale:.3e})"]
    return []
