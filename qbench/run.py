"""Benchmark of record for qglue.

    python3 qbench/run.py --workload reference_correct --seed 1 \\
        --seconds 30 --trace 0

Runs one workload in a fresh Python process (worker.py) with the BLAS and
OpenMP thread pools fixed at one thread, and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics (setup_s, wall_s,
case_p50_s, peak_rss_mb), --trace 1 the per-layer metrics of a traced run.

setup_s is the median over SETUPS processes of the time from process start
until the first case is ready: SETUPS - 1 processes that only set up, then
the workload process itself.

Exits 2 without a result when the checkout has no qglue sources next to
the benchmark, and 1 when the workload process fails or overruns.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 3
DEADLINE_S = 170.0
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    for var in SINGLE_THREAD:
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(args, deadline):
    """Start worker.py with `args`; return (seconds until it printed
    'ready', its remaining standard output lines)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(),
                                               1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("workload process overran the deadline")
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"workload process exited {proc.returncode}")
    return setup, rest.splitlines()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="nominal run length; a run always makes two rounds "
                         "of its case list, which is sized to about 30 s")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qglue", "cli.py")):
        print(f"no qglue sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace)]
    try:
        setups = [_spawn(common + ["--setup-only"], deadline)[0]
                  for _ in range(SETUPS - 1)]
        setup, lines = _spawn(common, deadline)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    setups.append(setup)
    raw = json.loads(lines[-1])
    if args.trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(sum(raw["case_s"]), "s"),
            "case_p50_s": _metric(statistics.median(raw["case_s"]), "s"),
            "peak_rss_mb": _metric(raw["peak_rss_mb"], "MiB"),
        }
    print(json.dumps({"correct": raw["problems"] == 0,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
