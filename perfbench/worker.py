"""One fresh benchmark process: set-up alone, set-up and one timed pass, or a trace.

Started by run.py with the package's source directory and this directory on
PYTHONPATH and with the BLAS thread count and LPDIM_JOBS fixed.  Prints one
JSON object on its last stdout line.

  --mode setup   time the set-up a process pays before its first cell
  --mode run     set up, then time one pass
  --mode trace   set up, one untimed pass, then a traced pass between two
                 untraced ones

The host shares its CPUs with other processes, and its speed drifts by tens
of percent for seconds to minutes at a time.  CPU time leaves out the waits
for a CPU, and a speed probe tracks the drift, so a timed pass gives each
operation in reference seconds: its CPU time, less the probes run inside it,
times REF_PROBE_S over the median CPU time of a speed probe sampled every
PROBE_PERIOD_S while it ran.  The package runs on one thread (jobs 1,
single-threaded BLAS), so on an idle machine of the reference speed this is
its wall time.  Set-up is timed in CPU seconds; run.py scales it by the
speed the run's passes measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from functools import cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
# median probe time on the reference machine of README.md; it only scales
# reference seconds and is the same for every commit measured
REF_PROBE_S = 0.0035
PROBE_PERIOD_S = 0.1


@cache
def _probe_matrix():
    # numpy is imported here, after set-up, so that set-up still pays for it
    import numpy as np

    return np.random.default_rng(0).standard_normal((60, 60))


def _probe() -> float:
    """CPU seconds of this thread for a fixed mix of interpreter and LAPACK
    work that calls no lpdim code, so a change to the package cannot move
    it: how fast the machine runs right now.  Thread time leaves out waits
    for the GIL, should the program run work on other threads."""
    import numpy as np

    matrix = _probe_matrix()
    t0 = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(2):
        np.linalg.svd(matrix, compute_uv=False)
        np.linalg.eigh(matrix @ matrix.T)
    return time.thread_time() - t0


def _sampled(run):
    """Call run() with the probe sampled every PROBE_PERIOD_S of wall time
    and once after it; returns (value, wall, cpu, probe median), the times
    without the probes.  The timer interrupts Python code only, so a long
    call into C delays the next sample until it returns."""
    samples: list = []
    spent = [0.0, 0.0]

    def on_alarm(signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        samples.append(_probe())
        spent[0] += time.perf_counter() - w0
        spent[1] += time.process_time() - c0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    w0, c0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        value = run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        signal.signal(signal.SIGALRM, previous)
    samples.append(_probe())
    return value, wall - spent[0], cpu - spent[1], statistics.median(samples)


def _setup(workload: str, seed: int, jobs: int, out_dir: Path):
    """Import the package, the lazy scipy.optimize import where the workload
    reaches it, and the workload's inputs; returns (CPU seconds, ops)."""
    c0 = time.process_time()
    import workloads

    ops = workloads.build_ops(workload, seed, jobs, out_dir)
    if workload in workloads.NEEDS_OPTIMIZE:
        import scipy.optimize  # noqa: F401 - the import inscribed_l1_radius makes
    return time.process_time() - c0, ops


def _check_source() -> None:
    import lpdim

    src = (HERE.parent / "src").resolve()
    if not Path(lpdim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lpdim was imported from {lpdim.__file__}, not from {src}")


def _unsampled(run):
    w0, c0 = time.perf_counter(), time.process_time()
    value = run()
    return value, time.perf_counter() - w0, time.process_time() - c0, None


def _run_pass(ops, tally: dict, sample: bool = True) -> tuple[float, float, float]:
    """Run every operation once; returns (wall, cpu, reference seconds)
    summed over operations, reference seconds 0 when not sampled.

    Checks run outside the timed region.  An operation that raises counts as
    failed and is neither timed nor checked.  Each result's fingerprint must
    equal the one of every other pass over the same inputs.
    """
    measure = _sampled if sample else _unsampled
    wall = cpu = ref = 0.0
    for op in ops:
        tally["attempted"] += 1
        try:
            value, op_wall, op_cpu, probe_s = measure(op.run)
        except Exception as err:  # noqa: BLE001 - counted and reported, the pass goes on
            tally["failed"] += 1
            tally["errors"].append(f"{op.name}: {type(err).__name__}: {err}")
            continue
        wall += op_wall
        cpu += op_cpu
        if probe_s is not None:
            ref += op_cpu * REF_PROBE_S / probe_s
        tally["problems"].extend(op.problems(value))
        fingerprint = op.fingerprint(value)
        if tally["fingerprints"].setdefault(op.name, fingerprint) != fingerprint:
            tally["problems"].append(f"{op.name}: result differs between passes over the same inputs")
    return wall, cpu, ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args(argv)

    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        setup_s, ops = _setup(args.workload, args.seed, args.jobs, Path(tmp))
        _check_source()
        result: dict = {"setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        tally = {"attempted": 0, "failed": 0, "errors": [], "problems": [], "fingerprints": {}}
        if args.mode == "run":
            _probe()  # warm-up: its first call pays numpy's one-time costs
            result["wall_s"], result["cpu_s"], result["ref_s"] = _run_pass(ops, tally)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            from tracer import Tracer

            # a process's first pass can be slower than later ones, so it is
            # left out; untraced passes on both sides of the traced one make a
            # drift in machine speed cancel out of the overhead
            _run_pass(ops, tally, sample=False)
            before = _run_pass(ops, tally, sample=False)[0]
            tracer = Tracer()
            tracer.install()
            try:
                traced = _run_pass(ops, tally, sample=False)[0]
            finally:
                tracer.uninstall()
            after = _run_pass(ops, tally, sample=False)[0]
            untraced = (before + after) / 2.0
            metrics = tracer.layer_metrics(traced)
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            covered = metrics["trace.self_sum_s"][0] + metrics["trace.uncovered_s"][0]
            if abs(covered - traced) > 1e-6:
                raise SystemExit(f"span self times and uncovered time add to {covered}, not {traced}")
            result["metrics"] = metrics
            result["self_times"] = tracer.self_times_by_name()
            result["untraced_wall_s"] = untraced
        result.update(tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
