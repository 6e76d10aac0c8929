"""Run one cdslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload perm_sort --seed 1 --seconds 30 --trace 0

Run from the repository root. The workload runs in a fresh interpreter
(worker.py) with `--threads 1` and without CDSLAB_THREADS, so no memo or
cache carries over from another run. Set-up is also timed in SETUP_RUNS - 1
more fresh interpreters, and its median is reported. With --trace 0 the
metrics are the end-to-end ones in BENCHMARK.json, times at reference
speed (see clock.py), with --trace 1 the per-layer ones. Every line but the
last is for people; the last is one JSON object with `correct`, `attempted`, `failed` and `metrics`. A record of the
run, with the git SHA, Python version, core count, seed and request count,
goes to perfbench/out/; a traced run also writes its spans there.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 3
# Time allowed beyond --seconds for the set-up runs, the warm-up, input
# generation, checking and calibration, before the workers are stopped.
MARGIN_S = 140.0


class RunError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CDSLAB_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"run went past --seconds + {MARGIN_S:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cdslab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _end_to_end(setups: list[float], loop: dict, peak_rss_mb: float) -> dict[str, float]:
    lat = loop["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(result: dict) -> dict[str, float]:
    untraced = result["untraced"]["latencies"]
    traced = result["traced"]["latencies"]
    metrics = dict(result["layers"])
    metrics["trace.untraced_ops_per_s"] = len(untraced) / sum(untraced)
    metrics["trace.traced_ops_per_s"] = len(traced) / sum(traced)
    metrics["trace.overhead_ratio"] = (
        metrics["trace.untraced_ops_per_s"] / metrics["trace.traced_ops_per_s"]
    )
    metrics["trace.spans_per_op"] = result["spans"] / len(traced)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 2:
        ap.error("--seconds must be at least 2")
    if not os.path.isfile(os.path.join(ROOT, "src", "cdslab", "cli.py")):
        print(f"error: no cdslab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = monotonic() + args.seconds + MARGIN_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup_results = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_results.append(_worker([*common, "--seconds", "0", "--setup-only"], deadline))
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        main_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = _worker(main_args + (["--spans", spans] if args.trace else []), deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_results.append(result)

    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(len(loop["latencies"]) for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    problems = [p for r in setup_results for p in r["warmup_problems"]]
    problems += [p for loop in loops for p in loop["problems"]]
    if args.trace:
        metrics = _per_layer(result)
        declared = spec["per_layer"]
    else:
        setups = [r["setup_s"] for r in setup_results]
        metrics = _end_to_end(setups, result["untraced"], result["peak_rss_mb"])
        declared = spec["end_to_end"]
    report = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}

    requests = len(result["untraced"]["latencies"])
    wall = result["untraced"]["wall"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": requests,
        "p90_samples_beyond": requests - int(0.9 * requests),
        "fail_ratio": failed / attempted,
        "wall_ops_per_s": len(wall) / sum(wall),
        "wall_latency_p50_ms": 1e3 * statistics.median(wall),
        "wall_setup_s": statistics.median([r["setup_wall_s"] for r in setup_results]),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            **context, "problems": problems, "metrics": report,
            "setups_s": [r["setup_s"] for r in setup_results],
            "latencies_s": result["untraced"]["latencies"],
            "wall_latencies_s": wall,
        }, fh, indent=1)

    for key, value in context.items():
        print(f"# {key}: {value}")
    for problem in problems[:5]:
        print(f"# problem: {problem.strip()}", file=sys.stderr)
    for name, entry in report.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
