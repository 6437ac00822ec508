"""Steadiness check: run workloads over several seeds, each in a fresh process.

    python3 perfbench/steady.py --workloads catalog,padic --seeds 1..10 --out runs.json

Runs ``perfbench/run.py`` once per (workload, seed) with the run length
from BENCHMARK.json, one run at a time, and prints for each end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the quartile spread as a share of the median, against the metric's
bound.  Run from the root of a checkout.  ``--out`` also keeps every run's
metrics (and the raw, unscaled figures run.py prints) as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="'a..b' or a comma-separated list")
    parser.add_argument("--out", type=Path, help="write every run's metrics and the summary here")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            run = {"seed": seed, "correct": result["correct"],
                   "attempted": result["attempted"], "metrics": metrics}
            # "speed factor F from K samples; raw: name value, ..."
            speed = next((line for line in lines if line.startswith("speed factor ")), None)
            if speed:
                head, _, raw = speed.partition("; raw: ")
                run["speed_factor"] = float(head.split()[2])
                run["raw"] = {k: float(v) for k, v in (item.split() for item in raw.split(", "))}
            runs.append(run)
            print(f"{workload} seed {seed}: {result['attempted']} requests, correct={result['correct']}",
                  file=sys.stderr)
        report["runs"][workload] = runs
        summary = {}
        for name in bounds:
            stats = summarize([run["metrics"][name] for run in runs])
            stats["bound"] = bounds[name]
            summary[name] = stats
            print(f"{workload:8s} {name:12s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f} bound {bounds[name]}")
        if all("raw" in run for run in runs):
            summary["raw"] = {name: summarize([run["raw"][name] for run in runs]) for name in bounds}
        report["summary"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
