"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads census count_exact --seeds 1-10

Runs `run.py` once per workload and seed, one run at a time, with the run
length from BENCHMARK.json unless --seconds is given. For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread, (Q3 - Q1) / median, beside a third of the metric's bound. All
values go to perfbench/out/repeat.json. Runs use --trace 0: the bounds are on
the end-to-end metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "repeat.json")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="a range such as 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary: dict[str, dict] = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                return 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: {result['attempted']} requests", file=sys.stderr)
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread,
            }
            bound = bounds.get(name)
            limit = f"{bound / 3:.3f}" if bound else "-"
            print(f"{workload:14} {name:40} median {med:12.6g} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:.3f} (bound/3 {limit})")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "seeds": args.seeds, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
