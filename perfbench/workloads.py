"""The benchmark's four workloads: seeded inputs, requests and checkers.

A workload turns a seed into a stream of inputs, each input into a list of
`cdslab` command lines (one request), and the results of those command
lines into a list of problems, empty when every answer is right. Input
generation and checking run outside the request timer; this module does
not import cdslab.

Why these four (see README.md for the layer each one stresses):

* perm_sort: the paper's headline use, the greedy sorting loop in perms.
* graph_realize: realize's succeeding and failing paths, the two
  implementations of one swap (graphs.gcds and f2.mcds), and matrix text.
* count_exact: counting's big-rational arithmetic, nothing else.
* census: the oracle's independent enumeration, no analytic kernel.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import reference as ref

PERM_N = 128
GRAPH_N = 64
COUNT_NS = range(64, 161, 24)
CENSUS_N = 6
# The census of sortable two-rooted graphs on 6 vertices, plain and Eulerian,
# as the rank-sum formula gives them.
CENSUS_EXPECTED = {False: 7729, True: 589}

# One invocation's outcome: its exit code and parsed --json payload (None
# when it printed no JSON).
Result = tuple[int, "dict[str, Any] | None"]


def _perm_text(perm: Sequence[int]) -> str:
    return "[" + ",".join(map(str, perm)) + "]"


def _distinct_perms(rng: random.Random, n: int) -> Iterator[tuple[int, ...]]:
    """Uniformly random permutations of 1..n, none repeated."""
    seen: set[tuple[int, ...]] = set()
    while True:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        perm = tuple(values)
        if perm not in seen:
            seen.add(perm)
            yield perm


def _expect(problems: list[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def _payload(results: Sequence[Result], i: int, code: int, problems: list[str]) -> dict:
    """The JSON payload of invocation i, checking its exit code."""
    got, payload = results[i]
    _expect(problems, got == code, f"invocation {i}: exit code {got}, expected {code}")
    if payload is None:
        problems.append(f"invocation {i}: no JSON output")
        return {}
    return payload


# ---------------------------------------------------------------------------
# perm_sort


def perm_sort_inputs(seed: int) -> Iterator[tuple[int, ...]]:
    return _distinct_perms(random.Random(f"perm_sort:{seed}"), PERM_N)


def perm_sort_requests(perm: tuple[int, ...]) -> list[list[str]]:
    text = _perm_text(perm)
    return [["perm", "sort", text], ["perm", "check", text]]


def perm_sort_check(perm: tuple[int, ...], results: Sequence[Result]) -> list[str]:
    problems: list[str] = []
    rows = ref.overlap_rows(perm)
    sortable = ref.kernel_reaches_roots(rows)
    sort = _payload(results, 0, 0 if sortable else 1, problems)
    check = _payload(results, 1, 0, problems)
    _expect(problems, sort.get("sortable") == sortable, "sort verdict differs from the kernel criterion")
    _expect(problems, check.get("sortable") == sortable, "check verdict differs from the kernel criterion")
    pile = ref.strategic_pile(perm)
    _expect(problems, check.get("strategic_pile") == pile, "check reports a wrong strategic pile")
    if not sortable:
        _expect(problems, bool(pile) and sort.get("strategic_pile") == pile, "sort reports a wrong or empty pile")
        return problems
    moves, trace = sort.get("moves") or [], sort.get("trace") or []
    _expect(problems, len(moves) == ref.distance(rows), "move count differs from the swap distance")
    _expect(problems, len(trace) == len(moves) + 1 and tuple(trace[0]) == perm, "trace does not start at the input")
    cur = perm
    for k, (p, q) in enumerate(moves):
        try:
            cur = ref.block_swap(cur, p, q)
        except ValueError as exc:
            problems.append(f"move {k}: {exc}")
            break
        if k + 1 >= len(trace) or tuple(trace[k + 1]) != cur:
            problems.append(f"move {k}: trace step differs from the block swap")
            break
    _expect(problems, cur == tuple(range(1, len(perm) + 1)), "moves do not end at the identity")
    return problems


# ---------------------------------------------------------------------------
# graph_realize


@dataclass(frozen=True)
class GraphInput:
    """A permutation, its move graph M, M with one pair flipped, its overlap
    adjacency A, and one context (p, q) of A, 1-based."""

    perm: tuple[int, ...]
    move: tuple[int, ...]
    flipped: tuple[int, ...]
    overlap: tuple[int, ...]
    p: int
    q: int


def graph_input(rng: random.Random, perm: tuple[int, ...]) -> GraphInput | None:
    move = ref.move_rows(perm)
    k = len(move)
    i, j = rng.sample(range(k), 2)
    flipped = list(move)
    flipped[i] ^= 1 << j
    flipped[j] ^= 1 << i
    overlap = ref.overlap_rows(perm)
    contexts = [(p, q) for p, q in ref.edges(overlap) if 1 < p and q < len(overlap)]
    if not contexts:
        return None
    p, q = rng.choice(contexts)
    return GraphInput(perm, tuple(move), tuple(flipped), tuple(overlap), p, q)


def graph_realize_inputs(seed: int) -> Iterator[GraphInput]:
    rng = random.Random(f"graph_realize:{seed}")
    for perm in _distinct_perms(rng, GRAPH_N):
        inp = graph_input(rng, perm)
        if inp is not None:
            yield inp


def graph_realize_requests(inp: GraphInput) -> list[list[str]]:
    a = ref.matrix_text(inp.overlap)
    return [
        ["realize", ref.matrix_text(inp.move)],
        ["realize", ref.matrix_text(inp.flipped)],
        ["graph", "check", a],
        ["graph", "gcds", a, str(inp.p), str(inp.q)],
        ["matrix", "mcds", a, str(inp.p), str(inp.q)],
    ]


def _check_witness(problems: list[str], payload: dict, rows: Sequence[int], name: str) -> None:
    witness = payload.get("witness")
    ok = (
        isinstance(witness, list)
        and sorted(witness) == list(range(1, len(rows) + 2))
        and ref.move_rows(witness) == list(rows)
    )
    _expect(problems, ok, f"witness for {name} does not reproduce it")


def graph_realize_check(inp: GraphInput, results: Sequence[Result]) -> list[str]:
    problems: list[str] = []
    _check_witness(problems, _payload(results, 0, 0, problems), inp.move, "M")
    code = results[1][0]
    flipped = _payload(results, 1, code, problems)
    if code == 0:
        _check_witness(problems, flipped, inp.flipped, "M'")
    else:
        _expect(problems, code == 1 and flipped.get("realizable") is False, "M' neither realized nor refused")
    check = _payload(results, 2, 0, problems)
    _expect(problems, check.get("sortable") == (not ref.strategic_pile(inp.perm)), "check verdict differs from the strategic pile")
    _expect(problems, check.get("distance") == ref.distance(inp.overlap), "check reports a wrong distance")
    gcds = _payload(results, 3, 0, problems)
    mcds = _payload(results, 4, 0, problems)
    gcds_edges = [tuple(e) for e in gcds.get("edges") or []]
    mcds_edges = ref.edges(ref.parse_matrix_lines(mcds.get("rows") or []))
    _expect(problems, gcds_edges == mcds_edges, "gcds and mcds outputs differ")
    expected = ref.edges(ref.mcds_rows(inp.overlap, inp.p - 1, inp.q - 1))
    _expect(problems, mcds_edges == expected, "mcds output differs from A + AEA")
    return problems


# ---------------------------------------------------------------------------
# count_exact


def count_exact_inputs(seed: int) -> Iterator[int]:
    """Each N in COUNT_NS once per round, in a seeded order. Five evenly
    spaced sizes put the median request in the middle size's cluster and the
    90th percentile in the top size's, so neither jumps between sizes whose
    costs differ by a third or more (cost grows about as N**4). Counting
    keeps no cache, so a repeat costs what the first request did."""
    rng = random.Random(f"count_exact:{seed}")
    ns = list(COUNT_NS)
    while True:
        rng.shuffle(ns)
        yield from ns


_COUNT_VARIANTS = [
    (method, eulerian) for method in ("closed_formula", "rank_sum") for eulerian in (False, True)
]


def count_exact_requests(n: int) -> list[list[str]]:
    return [
        ["count", "--n", str(n), "--method", method] + (["--eulerian"] if eulerian else [])
        for method, eulerian in _COUNT_VARIANTS
    ]


def count_exact_check(n: int, results: Sequence[Result]) -> list[str]:
    """The two general counts must agree. The Eulerian pair is not compared:
    the two methods are known to disagree from n = 6 on."""
    problems: list[str] = []
    counts = {}
    for i, (method, eulerian) in enumerate(_COUNT_VARIANTS):
        payload = _payload(results, i, 0, problems)
        counts[method, eulerian] = payload.get("count")
        _expect(problems, payload.get("total") == 1 << (n * (n - 1) // 2), f"{method} reports a wrong total")
    general = counts["closed_formula", False]
    _expect(problems, isinstance(general, int) and general == counts["rank_sum", False], "general counts disagree")
    return problems


# ---------------------------------------------------------------------------
# census


def census_inputs(seed: int) -> Iterator[tuple[bool, bool]]:
    """The census size is fixed at n = 6; the seed only orders the plain and
    the Eulerian census within each request. The oracle keeps no memo
    across censuses, so a repeat costs what the first one did."""
    rng = random.Random(f"census:{seed}")
    while True:
        yield (False, True) if rng.random() < 0.5 else (True, False)


def census_requests(order: tuple[bool, bool]) -> list[list[str]]:
    base = ["count", "--n", str(CENSUS_N), "--method", "brute_force"]
    return [base + (["--eulerian"] if eulerian else []) for eulerian in order]


def census_check(order: tuple[bool, bool], results: Sequence[Result]) -> list[str]:
    problems: list[str] = []
    for i, eulerian in enumerate(order):
        count = _payload(results, i, 0, problems).get("count")
        _expect(problems, count == CENSUS_EXPECTED[eulerian], f"census (eulerian={eulerian}) gave {count}")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], Iterator[Any]]
    requests: Callable[[Any], list[list[str]]]
    check: Callable[[Any, Sequence[Result]], list[str]]

    def warmup_input(self) -> Any:
        """A fixed input for the untimed warm-up request, the same for every
        seed, so that set-up time does not depend on the seed."""
        return next(self.inputs(-1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("perm_sort", perm_sort_inputs, perm_sort_requests, perm_sort_check),
        Workload("graph_realize", graph_realize_inputs, graph_realize_requests, graph_realize_check),
        Workload("count_exact", count_exact_inputs, count_exact_requests, count_exact_check),
        Workload("census", census_inputs, census_requests, census_check),
    )
}
