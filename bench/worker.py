"""One workload in one fresh process; started by run.py, not by hand.

Set-up is the import of numpy and `lefschetz` (from this checkout's `src/`)
plus generation of the first round's inputs; the worker prints READY when it
is done, so run.py can time set-up from process start.  With --setup-only it
stops there.  Otherwise it runs
whole rounds of the workload's operations: at least the workload's minimum,
and more while another round fits in --seconds.  Every round draws fresh
inputs of the same shapes, between rounds and outside every timing.  Each
operation is timed alone; its outputs are checked right after, outside the
timing.  The last line on stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True, help="directory for generated spec files")
    parser.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import lefschetz

    if Path(lefschetz.__file__).resolve().parent != (SRC / "lefschetz").resolve():
        print(f"error: imported lefschetz from {lefschetz.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.make_round(args.seed, 0, scratch)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer().install()
        result = run_rounds(ops, lambda k: workload.make_round(args.seed, k, scratch),
                            workload.min_rounds, args.seconds, tracer)
        result["min_ops"] = len(ops) * workload.min_rounds
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result.update(
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(result["rounds"], result["raw_round_s"], result["raw_first_round_s"])
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


# Op time between two runs of the speed kernel, and the kernel duration that
# scaled times refer to: about the usual one on a 2-CPU Xeon at 2.1 GHz.
KERNEL_EVERY_S = 0.1
KERNEL_NOMINAL_S = 0.0050
KERNEL_WINDOW = 5
_KERNEL_RATIONAL = [[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)]


def speed_kernel() -> float:
    """Seconds for a fixed piece of work of the same kinds as the workloads':
    exact Fraction elimination and int64 numpy row operations mod p.  It uses
    nothing from lefschetz, so only the machine's speed changes its time."""
    import numpy as np

    start = time.perf_counter()
    for _ in range(3):
        reference.elimination_det(_KERNEL_RATIONAL)
    a = (np.arange(96 * 96, dtype=np.int64).reshape(96, 96) * 7919) % 32003
    for c in range(0, 96, 2):
        a = (a - np.outer(a[:, c], a[c])) % 32003
    return time.perf_counter() - start


def run_rounds(ops, next_round, min_rounds: int, seconds: float, tracer) -> dict:
    """Whole rounds of ops, `ops` first and then `next_round(k)` for round k;
    every op is timed alone and checked after.

    The host's speed swings by tens of percent over seconds, so between ops
    the speed kernel runs about every KERNEL_EVERY_S of op time, and each op
    time is also reported scaled by KERNEL_NOMINAL_S over the median of the
    KERNEL_WINDOW kernel times around it.
    """
    times, ok, batch_of, kernels = [], [], [], []
    problems = []
    rounds = 0
    since = 0.0
    while rounds < min_rounds or sum(times) * (rounds + 1) / rounds <= seconds:
        if rounds:
            ops = next_round(rounds)
        for op_id, op in enumerate(ops):
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.op(op_id):
                        out = op.run()
                error = None
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            batch_of.append(len(kernels))
            found = [f"raised\n{error}"] if error else op.check(out)
            ok.append(not found)
            if found:
                problems.append(f"round {rounds} {op.kind} #{op_id}: " + "; ".join(found[:3]))
            since += elapsed
            if since >= KERNEL_EVERY_S:
                kernels.append(speed_kernel())
                since = 0.0
        rounds += 1
        if tracer is not None and rounds == 1:
            tracer.end_first_round()
    if since or not kernels:
        kernels.append(speed_kernel())

    half = KERNEL_WINDOW // 2
    factor = [KERNEL_NOMINAL_S / statistics.median(kernels[max(0, j - half): j + half + 1])
              for j in range(len(kernels))]
    scaled = [t * factor[b] for t, b in zip(times, batch_of)]
    per_round = len(ops)
    # Seconds per round: the first round alone, and the mean of the others.
    # A cache that lives across rounds shows as a first round slower than the rest.
    first, rest = sum(times[:per_round]), sum(times[per_round:])
    return {
        "attempted": len(times),
        "failed": ok.count(False),
        "rounds": rounds,
        "ops_per_round": per_round,
        "section_s": sum(scaled),
        "latencies": scaled,
        "raw_section_s": sum(times),
        "raw_latencies": times,
        "raw_round_s": sum(times) / rounds,
        "raw_first_round_s": first,
        "raw_later_round_s": rest / (rounds - 1) if rounds > 1 else None,
        "kernel_median_s": statistics.median(kernels),
        "speed_factor": KERNEL_NOMINAL_S / statistics.median(kernels),
        "problems": problems[:20],
    }


if __name__ == "__main__":
    sys.exit(main())
