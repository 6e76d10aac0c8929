"""Spans around cdslab's public functions, recorded from outside the package.

`install` wraps each function in TRACED wherever a cdslab module binds it,
and each method on its class (so `isinstance` still holds). A wrapper
records one span: name, start, end, parent span and request id, plus a
count for the few functions whose work is not one unit per call. Spans stay
in memory until `Tracer.write`; `layer_metrics` derives self time, call
counts and ratios from them.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

TRACED = {
    "cli": ["run", "build_parser"],
    "formats": [
        "parse_permutation",
        "format_permutation",
        "parse_matrix",
        "format_matrix",
        "parse_graph",
        "format_graph",
    ],
    "perms": [
        "sort_moves",
        "cds_contexts",
        "apply_cds",
        "pointer_slots",
        "strategic_pile",
        "overlap_graph",
        "move_graph",
    ],
    "graphs": ["RootedGraph.__init__", "gcds", "is_gcds_sortable"],
    "f2": [
        "F2Matrix.transpose",
        "rank",
        "mcds",
        "is_mcds_sortable",
        "mcds_distance",
        "central_submatrix",
    ],
    "convert": [
        "realize_move_graph",
        "adjacency_to_precedence",
        "is_precedence_matrix",
        "permutation_from_precedence",
    ],
    "counting": [
        "count_sortable",
        "count_sortable_rank_sum",
        "macwilliams_count",
        "CountReport.build",
    ],
    "oracle": ["census_bruteforce"],
}

SPAN_NAMES = [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]

# Work counted per span, from the arguments and the result.
_COUNTS: dict[str, Callable[[tuple, Any], int]] = {
    "perms.cds_contexts": lambda args, result: len(result),
    "convert.realize_move_graph": lambda args, result: int(result is not None),
    "oracle.census_bruteforce": lambda args, result: 1 << (args[0] * (args[0] - 1) // 2),
}


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counts: list[int] = []
        self.request = 0
        self._open = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1])
            self.requests.append(self.request)
            self.counts.append(1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._open.pop()
            if count is not None:
                self.counts[idx] = count(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """One JSON list per span: name, start, end, parent, request, count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.requests, self.counts):
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED; cdslab must already be imported."""
    for module_name, fns in TRACED.items():
        module = importlib.import_module(f"cdslab.{module_name}")
        for fn in fns:
            name = f"{module_name}.{fn}"
            if "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, tracer.wrap(name, raw))
                continue
            original = getattr(module, fn)
            wrapped = tracer.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "cdslab":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op call counts and self time per function, and the layer ratios.

    A span's self time is its duration minus its children's; calls nest on
    one thread, so the children never overlap.
    """
    child = [0.0] * len(tracer.names)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += tracer.ends[i] - tracer.starts[i]
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    counted: Counter[str] = Counter()
    moves_made = 0
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_s[name] += tracer.ends[i] - tracer.starts[i] - child[i]
        counted[name] += tracer.counts[i]
        parent = tracer.parents[i]
        if name == "perms.apply_cds" and parent >= 0 and tracer.names[parent] == "perms.sort_moves":
            moves_made += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_op"] = calls[name] / ops
        out[f"{name}.self_ms_per_op"] = 1e3 * self_s[name] / ops
    contexts = counted["perms.cds_contexts"]
    out["perms.moves_made_per_op"] = moves_made / ops
    out["perms.contexts_listed_per_op"] = contexts / ops
    out["perms.context_use_ratio"] = ratio(moves_made, contexts)
    witnesses = counted["convert.realize_move_graph"]
    out["convert.witnesses_per_op"] = witnesses / ops
    out["convert.candidate_hit_ratio"] = ratio(witnesses, calls["convert.adjacency_to_precedence"])
    out["convert.overlap_builds_per_realize"] = ratio(
        calls["perms.move_graph"], calls["convert.realize_move_graph"]
    )
    graphs = counted["oracle.census_bruteforce"]
    out["oracle.census.graphs_per_op"] = graphs / ops
    out["oracle.census.graphs_per_s"] = ratio(graphs, self_s["oracle.census_bruteforce"])
    return out
