"""Benchmark of the lefschetz engine: three exact-certification workloads.

    python3 bench/run.py --workload mci-qq --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own fresh Python process (bench/worker.py), one
thread of Python, with BLAS threads held to the number of CPUs.  Set-up, the
time from process start to the first operation, is measured in SETUP_PROBES
processes that only set up, each started right after a reference process
that starts Python, imports numpy and does a fixed piece of exact Fraction
elimination; `setup_s` is the median of the probes' set-up times, each
scaled by SETUP_NOMINAL_S over the time of the reference process before
it.  With --trace 0 the run reports the end-to-end metrics, with --trace 1
the per-layer metrics of bench/tracer.py.  The workloads and the default run
length come from BENCHMARK.json.  Every run
writes a record with the metrics, op counts, seed, commit and machine to
bench/results/, and prints as its last line one JSON object: correct,
attempted, failed, metrics.  `correct` is false when any op raised or failed
a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
CONFIG = ROOT / "BENCHMARK.json"
SETUP_PROBES = 11
# The reference process mirrors set-up's make-up: process start, the import
# of numpy, and pure-Python work (exact Fraction elimination).  Scaled set-up
# times refer to its usual time on a 2-CPU Xeon at 2.1 GHz.
SETUP_NOMINAL_S = 0.20
REFERENCE_START = """\
from fractions import Fraction
import numpy
import reference
m = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(9)]
for _ in range(25):
    reference.elimination_det(m)
print("READY", flush=True)
"""
RUN_TIMEOUT_S = 170


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile that leaves at least ten of `min_ops` ops
    beyond it; `min_ops` is the fewest ops a run of the workload makes."""
    return int(100 * (1 - 10 / min_ops))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ)
    threads = str(_nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def load_config() -> dict:
    """BENCHMARK.json: the workload names and the run length."""
    return json.loads(CONFIG.read_text())


def _reference_start_s() -> float:
    """Seconds from start to READY of the reference process, with the workers'
    environment: the machine's speed at the kinds of work set-up does, from
    a process that uses nothing of lefschetz."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", REFERENCE_START], stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=BENCH)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    _stop(proc)
    if line.strip() != "READY":
        raise RuntimeError(f"reference process did not start (exit {proc.returncode})")
    return elapsed


def _start_worker(args, extra):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload_name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", str(RESULTS / f"scratch-{os.getpid()}"), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        raise RuntimeError(f"worker for {args.workload_name} did not finish set-up (exit {proc.returncode})")
    return proc, setup


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run_workload(args) -> dict:
    """Set-up probes, then the measured worker; returns the record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups, references = [], []
    for _ in range(SETUP_PROBES):
        references.append(_reference_start_s())
        proc, setup = _start_worker(args, ["--setup-only"])
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {args.workload_name} exited with {proc.returncode}")
        setups.append(setup)
    spans = RESULTS / f"{args.workload_name}-seed{args.seed}-spans.tsv"
    proc, _ = _start_worker(args, ["--spans", str(spans)] if args.trace else [])
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        _stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker for {args.workload_name} exited with {proc.returncode}")
    worker = json.loads(out.strip().splitlines()[-1])

    pct = tail_percentile(worker["min_ops"])
    timed = {kind: _op_metrics(worker[lat], worker[section], worker["attempted"], pct)
             for kind, lat, section in (("scaled", "latencies", "section_s"),
                                        ("raw", "raw_latencies", "raw_section_s"))}
    if args.trace:
        metrics = worker["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s * SETUP_NOMINAL_S / r for s, r in zip(setups, references)),
                        "unit": "s"},
            **timed["scaled"],
            "peak_rss_mb": {"value": worker["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    return {
        "workload": args.workload_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
        "rounds": worker["rounds"],
        "ops_per_round": worker["ops_per_round"],
        "round_s": worker["raw_round_s"],
        "first_round_s": worker["raw_first_round_s"],
        "later_round_s": worker["raw_later_round_s"],
        "raw_metrics": timed["raw"],
        "kernel_median_s": worker["kernel_median_s"],
        "tail_percentile": pct,
        "setup_samples_s": setups,
        "setup_reference_s": references,
        "speed_factor": worker["speed_factor"],
        "problems": worker["problems"],
        "commit": git_commit(),
        "machine": {
            "python": worker["python"],
            "numpy": worker["numpy"],
            "nproc": _nproc(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
        },
    }


def _op_metrics(latencies, section_s, attempted, pct) -> dict:
    return {
        "ops_per_s": {"value": attempted / section_s, "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "op_tail_s": {"value": statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1], "unit": "s"},
    }


def git_commit():
    """Commit of this checkout, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _print_record(rec) -> None:
    print(f"{rec['workload']}: attempted {rec['attempted']} ops, failed {rec['failed']}, "
          f"{rec['rounds']} rounds of {rec['ops_per_round']}, correct {rec['correct']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for problem in rec["problems"]:
        print(f"  problem: {problem}")


def main() -> int:
    try:
        config = load_config()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {CONFIG.name}: {exc}", file=sys.stderr)
        return 2
    workloads = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "lefschetz" / "__init__.py").is_file():
        print(f"error: no lefschetz package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    records = []
    for name in workloads if args.workload == "all" else (args.workload,):
        args.workload_name = name
        try:
            rec = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
        _print_record(rec)
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
