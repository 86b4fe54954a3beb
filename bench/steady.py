"""Steadiness of the benchmark: repeat each workload in fresh processes.

    python3 bench/steady.py --runs 10 --first-seed 1 --traced

Run i uses seed first-seed + i and runs the workloads in order, reversed on
every other run.  For every end-to-end metric the command reports the median,
the quartiles and the spread (q3 - q1) / median, flags a spread above a third
of the metric's bound in BENCHMARK.json, and reports the share of failed ops.
With --traced it adds one traced run per workload and reports the tracing
overhead: traced seconds per round over the untraced median.  The summary is
written to bench/results/steady-<first seed>x<runs>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    for key in ("round_s", "first_round_s", "later_round_s"):
        result[key] = record[key]
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in config["workloads"])
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            res = run_once(w, args.first_seed + i, seconds, 0)
            runs[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)

    summary = {"runs": args.runs, "first_seed": args.first_seed, "seconds": seconds, "workloads": {}}
    for w, results in runs.items():
        entry = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
            "attempted": [r["attempted"] for r in results],
            "first_over_later_round": statistics.median(
                r["first_round_s"] / r["later_round_s"] for r in results if r["later_round_s"]),
            "metrics": {},
        }
        for name in results[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bounds.get(name)
            entry["metrics"][name] = stats
        if args.traced:
            traced = run_once(w, args.first_seed, seconds, 1)
            untraced = statistics.median(r["round_s"] for r in results)
            entry["trace_overhead"] = traced["round_s"] / untraced
        summary["workloads"][w] = entry

    print(f"\n{args.runs} runs of {seconds} s per workload, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    steady = True
    for w, entry in summary["workloads"].items():
        print(f"{w}: failed share {entry['failed_share']}, first round over later rounds "
              f"{entry['first_over_later_round']:.2f}"
              + (f", trace overhead {entry['trace_overhead']:.2f}x" if "trace_overhead" in entry else ""))
        for name, s in entry["metrics"].items():
            flag = ""
            if s["bound"] is not None and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"  {name:12s} median {s['median']:.5g} {s['unit']}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {100 * s['spread']:.1f}%{flag}")
    out = RESULTS / f"steady-{args.first_seed}x{args.runs}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"written to {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
