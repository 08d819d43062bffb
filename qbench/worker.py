"""The workload process: imports qglue, builds the seeded case list, runs it
through ``qglue.cli.execute`` and checks every output.

It prints ``ready`` as soon as the first case could start (the parent times
set-up up to that line) and, as its last line, one JSON object with the raw
measurements.  run.py starts it with the BLAS/OpenMP pools fixed at one
thread and ``src`` on PYTHONPATH.

A run makes ROUNDS rounds of the case list and reports each case's best
time.  In a traced run the last round is traced; its difference to the
first round is the tracing overhead.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

import qglue.cli
from qglue.errors import QGlueError

import checks
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
# The host's speed wanders by 15-20% over tens of seconds, so each case is
# timed in two rounds, half a run apart, and its faster time is kept.
ROUNDS = 2


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Round:
    """One pass over the case list: times, then checks."""

    def __init__(self, cases, root, run_op):
        self.case_s = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.artifact_bytes = 0
        start = time.perf_counter()
        results = []
        for k, case in enumerate(cases):
            t0 = time.perf_counter()
            outs = []
            for i, op in enumerate(case.ops):
                out = os.path.join(root, f"case{k}", f"{i}-{op.command}")
                self.attempted += 1
                try:
                    summary, _ = run_op({"command": op.command,
                                         "params": op.params, "out": out,
                                         "seed": 0})
                except QGlueError as exc:
                    self.failed += 1
                    summary = None
                    print(f"{case.label} {op.command} failed: {exc}",
                          file=sys.stderr)
                outs.append((op, summary, out))
            self.case_s.append(time.perf_counter() - t0)
            results.append((case, outs))
        self.wall_s = time.perf_counter() - start
        for case, outs in results:
            for op, summary, out in outs:
                if summary is None:
                    continue
                self.artifact_bytes += _dir_bytes(out)
                self.problems += [f"{case.label} {op.command}: {p}"
                                  for p in checks.check_op(op, summary)]
            if case.agree and all(outs[i][1] for i in case.agree):
                a, b = (outs[i][2] for i in case.agree)
                self.problems += [f"{case.label}: {p}"
                                  for p in checks.check_schemes_agree(a, b)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cases = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    root = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(root, ignore_errors=True)
    rounds = []
    tracer = Tracer()
    for k in range(ROUNDS):
        if args.trace and k == ROUNDS - 1:
            tracer.install()
        rounds.append(Round(cases, os.path.join(root, f"r{k}"),
                            qglue.cli.execute))

    for r in rounds:
        for p in r.problems:
            print(p, file=sys.stderr)
    result = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": sum(len(r.problems) for r in rounds),
        "case_s": [min(times) for times in zip(*(r.case_s for r in rounds))],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}"
                                      ".json"))
        layers = tracer.metrics()
        layers["cli.artifact_bytes"] = (rounds[-1].artifact_bytes, "bytes")
        layers["trace.overhead_s"] = (rounds[-1].wall_s - rounds[0].wall_s,
                                      "s")
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
