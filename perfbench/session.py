"""The rest of one workload run, after worker.py has timed `import cdslab.cli`.

Finishes set-up with one warm-up request on a fixed input, timed on the same
clock as the import, then sends requests in a closed loop, one at a time
from this one client, until their summed wall-clock latency reaches the
run's seconds. Each request is a list of in-process
`cdslab.cli.run([...] + ["--json", "--threads", "1"])` calls with stdout
captured. Every invocation is timed on the wall clock and at reference speed
(see clock.py). Inputs are made and answers checked outside the timer.

With --trace 1 the first half of the time runs untraced and the second half
traced, so the traced run can report its own overhead. Prints one JSON
object on stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import traceback
from typing import Any, Iterator

import tracing
from clock import Clock
from workloads import WORKLOADS, Result, Workload

FLAGS = ["--json", "--threads", "1"]


def _invoke(cli: Any, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv + FLAGS)
    return code, out.getvalue()


def _parse(code: int, text: str) -> Result:
    try:
        return code, json.loads(text)
    except ValueError:
        return code, None


def _request(cli: Any, workload: Workload, inp: Any, clock: Clock) -> list[str]:
    """Times one request on `clock`; returns the problems found, where an
    exception is a problem."""
    try:
        raw = [clock.step(_invoke, cli, argv) for argv in workload.requests(inp)]
        return workload.check(inp, [_parse(code, text) for code, text in raw])
    except Exception:
        return [traceback.format_exc(limit=3)]


def _loop(cli: Any, workload: Workload, inputs: Iterator[Any], seconds: float, tracer: tracing.Tracer | None) -> dict:
    latencies: list[float] = []
    wall: list[float] = []
    problems: list[str] = []
    failed = 0
    while sum(wall) < seconds:
        if tracer is not None:
            tracer.request = len(latencies)
        inp = next(inputs)
        clock = Clock()
        found = _request(cli, workload, inp, clock)
        latencies.append(clock.scaled)
        wall.append(clock.wall)
        if found:
            failed += 1
            problems.extend(found[:3])
    return {"latencies": latencies, "wall": wall, "failed": failed, "problems": problems[:10]}


def main(cli: Any, clock: Clock) -> int:
    """Runs the workload named on the command line; `clock` holds the time
    of the import of `cli`."""
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    warmup = workload.warmup_input()
    warmup_problems = _request(cli, workload, warmup, clock)
    result: dict[str, Any] = {
        "setup_s": clock.scaled,
        "setup_wall_s": clock.wall,
        "warmup_problems": warmup_problems,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    inputs = workload.inputs(args.seed)
    if args.trace:
        half = args.seconds / 2
        result["untraced"] = _loop(cli, workload, inputs, half, None)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = _loop(cli, workload, inputs, half, tracer)
        result["traced"] = traced
        result["layers"] = tracing.layer_metrics(tracer, len(traced["latencies"]))
        result["spans"] = len(tracer.names)
        if args.spans:
            tracer.write(args.spans)
    else:
        result["untraced"] = _loop(cli, workload, inputs, args.seconds, None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0

