"""Seeded inputs of the benchmark workloads.

A workload is a fixed list of cases.  A case is a group of qglue commands
(run manifests for ``qglue.cli.execute``) on one generated input, and every
case of a workload has the same command shape, so case times cluster.
Quantities that set the amount of work (necksize, phases) are drawn
stratified: case k draws from the k-th of K equal sub-intervals, so the
total work of a run barely depends on the seed while no two cases share an
input.

Ranges are chosen so that every command succeeds on every seed; see the
README for the measured margins (bordered condition below the 1e13 limit,
orbit residual below 1e-7).
"""

import random
from dataclasses import dataclass, field


@dataclass
class Op:
    """One ``execute`` call and the values its output is checked against."""

    command: str
    params: dict
    expect: dict = field(default_factory=dict)


@dataclass
class Case:
    label: str
    ops: list
    agree: tuple = ()   # indices of two `correct` ops that share a fixed point


def eps_bar(n):
    """Largest necksize (the constant orbit) in dimension n, in closed form:
    (n(n-4)/(n^2-4))^((n-4)/8)."""
    return (n * (n - 4) / (n ** 2 - 4)) ** ((n - 4) / 8.0)


def _stratum(rng, lo, hi, k, count):
    width = (hi - lo) / count
    return lo + width * (k + rng.random())


def _tail(rng, l, beta_lo, beta_hi, amp_lo=5e-4, amp_hi=2e-3):
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return {"l": l, "A": sign * rng.uniform(amp_lo, amp_hi),
            "beta": rng.uniform(beta_lo, beta_hi)}


# reference_correct: the paper's reference gluing, one orbit per case.
REF_CASES = 2
REF_EPS = (0.42, 0.75)     # cond(0.42, T0 = 0.5 at both ends) ~ 4e12 < 1e13
REF_PHASE = 0.5


def reference_correct(rng):
    cases = []
    for k in range(REF_CASES):
        eps = _stratum(rng, *REF_EPS, k, REF_CASES)
        config = {
            "n": 5, "eps": eps, "m": 2,
            "end1": {"T0": rng.uniform(0.0, REF_PHASE),
                     "perturbation": [_tail(rng, 0, 1.5, 2.5),
                                      _tail(rng, 1, 1.5, 2.5)]},
            "end2": {"T0": rng.uniform(0.0, REF_PHASE),
                     "perturbation": [_tail(rng, 0, 1.5, 2.5),
                                      _tail(rng, 1, 1.5, 2.5)]},
        }
        # minIter 2 makes a contraction ratio observable.  tol 1e-15 (the
        # defect's rounding floor is ~1e-18) resolves both fixed points well
        # below the 1e-6 agreement check; at the default 1e-9 Picard may
        # stop with a remaining error of ratio^2 |u|, up to 7e-5 |u| here.
        ops = [Op("correct", {"config": config, "scheme": scheme,
                              "modes": [0, 1], "minIter": 2, "tol": 1e-15},
                  {"minIterations": 2, "contraction": 0.5})
               for scheme in ("picard", "newton")]
        cases.append(Case(f"eps={eps:.4f}", ops, agree=(0, 1)))
    return cases


# long_neck: one shared orbit at one long overlap length.
NECK_CASES = 1
NECK_M = 6
NECK_PHASE = 0.5


def long_neck(rng):
    cases = []
    for k in range(NECK_CASES):
        def end():
            return {"T0": rng.uniform(0.0, NECK_PHASE),
                    "perturbation": [_tail(rng, 0, 1.05, 1.2),
                                     _tail(rng, 2, 1.05, 1.2)]}
        config = {"n": 5, "eps": 0.5, "m": NECK_M, "end1": end(),
                  "end2": end()}
        ops = [Op("correct", {"config": config, "scheme": "newton",
                              "modes": [0, 2]}, {"minIterations": 1}),
               Op("diagnose", {"config": config, "modes": [0, 2]})]
        cases.append(Case(f"case{k}", ops))
    return cases


# orbit_family: one case per dimension, no linear algebra.
FAMILY_DIMS = (6, 9)
FAMILY_SWEEP = 3            # necksizes per sweep, stratified in SWEEP_RANGE
SWEEP_RANGE = (0.3, 0.9)    # in units of epsBar
INTERIOR_RANGE = (0.4, 0.8)


def orbit_family(rng):
    cases = []
    for n in FAMILY_DIMS:
        bar = eps_bar(n)
        sweep = [bar * _stratum(rng, *SWEEP_RANGE, k, FAMILY_SWEEP)
                 for k in range(FAMILY_SWEEP)]
        eps = bar * rng.uniform(*INTERIOR_RANGE)
        tail = _tail(rng, 0, 1.5, 2.5)
        config = {"n": n, "eps": eps, "m": 2,
                  "end1": {"T0": rng.uniform(0.0, 0.5),
                           "perturbation": [tail]},
                  "end2": {"T0": rng.uniform(0.0, 0.5)}}
        ops = [Op("sweep", {"n": n, "epsList": sweep}),
               Op("indicial", {"n": n, "eps": eps, "modes": [0, 1, 2]}),
               Op("indicial", {"n": n, "eps": bar, "modes": [0, 1, 2]},
                  {"closedForm": True}),
               Op("jacobi", {"n": n, "eps": eps}),
               Op("glue", {"config": config, "mList": [1, 2, 3, 4, 5]},
                  {"tailRate": tail["beta"]})]
        cases.append(Case(f"n={n}", ops))
    return cases


WORKLOADS = {
    "reference_correct": reference_correct,
    "long_neck": long_neck,
    "orbit_family": orbit_family,
}


def build(workload, seed):
    """The case list of `workload` for `seed`; the same seed gives the same
    inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

