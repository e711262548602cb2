"""Benchmark entry point for lpdim; see README.md in this directory.

  python3 perfbench/run.py --jobs 1 --blas-threads 1 \\
      --workload hilbert_ladder --seed 0 --seconds 35 --trace 0

Runs from the root of a source checkout and imports the package from its
src/ directory.  Every measurement happens in fresh worker processes whose
BLAS thread count and LPDIM_JOBS are fixed by the flags above:

  --trace 0  as many one-pass workers as fit in --seconds, each timing its
             set-up and one pass over the workload, interleaved with
             set-up-only workers; wall_s and peak_rss_mb are medians over
             the passes, setup_s over at least SETUP_SAMPLES set-ups;
             both are in reference seconds (see worker.py), set-up
             scaled by the speed the passes of the run measured
  --trace 1  one worker runs a warm-up pass, then an untraced, a traced and
             an untraced pass, and reports the per-layer metrics of the
             traced one

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds each pass's reference and wall
time, CPU time and peak memory, and the set-up samples.  Exits nonzero without that line when the checkout
has no package source or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
# the whole run, set-up samples included, must end well inside 180 s
DEADLINE_S = 170.0
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description="lpdim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--jobs", type=int, required=True, help="LPDIM_JOBS and --jobs for the program")
    parser.add_argument("--blas-threads", type=int, required=True)
    args = parser.parse_args(argv)
    cores = len(os.sched_getaffinity(0))
    if not 1 <= args.jobs * args.blas_threads <= cores:
        parser.error(f"jobs x blas threads must lie in [1, {cores}] on this machine")
    if args.trace and args.jobs != 1:
        parser.error("the tracer keeps one span stack, so traced runs need --jobs 1")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({var: str(args.blas_threads) for var in BLAS_VARS})
    env["LPDIM_JOBS"] = str(args.jobs)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    # set-up should load cached bytecode, as an installed package does, not
    # compile the sources in every process
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--jobs", str(args.jobs),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for a {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker overran the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def _timed_runs(args, deadline: float) -> tuple[list, list]:
    """Fresh one-pass workers, as many as fit in --seconds (at least one),
    each preceded by a set-up-only worker; then set-up-only workers until
    there are SETUP_SAMPLES set-up samples.  Interleaving spreads both kinds
    of sample over the whole run."""
    runs, samples = [], []
    spent = 0.0
    while not runs or spent + spent / len(runs) <= args.seconds:
        samples.append(_worker(args, "setup", deadline)["setup_s"])
        t0 = time.monotonic()
        runs.append(_worker(args, "run", deadline))
        spent += time.monotonic() - t0
        samples.append(runs[-1]["setup_s"])
    while len(samples) < SETUP_SAMPLES:
        samples.append(_worker(args, "setup", deadline)["setup_s"])
    return runs, samples


def main(argv=None) -> int:
    args = _parse(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "lpdim" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            workers = [_worker(args, "trace", deadline)]
            metrics = {name: tuple(pair) for name, pair in workers[0]["metrics"].items()}
            detail = {"untraced_wall_s": workers[0]["untraced_wall_s"], "self_times": workers[0]["self_times"]}
        else:
            workers, samples = _timed_runs(args, deadline)
            # reference seconds per CPU second of the passes: the machine's
            # speed over this run, which scales set-up too.  Single set-ups
            # are too short for a probe of their own to track it.
            speed = statistics.median(w["ref_s"] / w["cpu_s"] for w in workers)
            metrics = {
                "wall_s": (statistics.median(w["ref_s"] for w in workers), "s"),
                "setup_s": (statistics.median(samples) * speed, "s"),
                "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers), "MB"),
            }
            detail = {
                "passes": [
                    {key: w[key] for key in ("ref_s", "wall_s", "cpu_s", "peak_rss_mb")} for w in workers
                ],
                "setup_samples_s": samples,
            }
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    problems = [msg for w in workers for msg in w["problems"]]
    fingerprints: dict = {}
    for w in workers:
        for name, fingerprint in w["fingerprints"].items():
            if fingerprints.setdefault(name, fingerprint) != fingerprint:
                problems.append(f"{name}: result differs between processes over the same inputs")
    for msg in [msg for w in workers for msg in w["errors"]] + problems:
        print(msg, file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
