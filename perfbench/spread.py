"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
                                [--seeds 1-10] [--out FILE]

Untraced runs of BENCHMARK.json's run_seconds each, one after another,
from the root of a checkout.  For each workload
and metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the quartile distance as a share of the median, which is the
spread the metric's bound in BENCHMARK.json has to cover.  ``--out``
writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    report = {}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["exit"] = proc.returncode
            runs.append(result)
            print(f"{workload} seed {seed}: exit {proc.returncode} "
                  f"correct {result['correct']} failed {result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name]["unit"] = runs[0]["metrics"][name]["unit"]
        ratios = [r["failed"] / r["attempted"] for r in runs]
        summary["fail_ratio"] = {"median": statistics.median(ratios),
                                 "min": min(ratios), "max": max(ratios), "unit": "ratio"}
        for name, s in summary.items():
            print(f"  {workload:22s} {name:28s} " + "  ".join(
                f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                for k, v in s.items()), flush=True)
        report[workload] = {"seeds": args.seeds, "seconds": seconds,
                            "runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
