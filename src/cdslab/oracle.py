"""Brute-force reference implementations, built from definitions only.

Nothing here calls into the analytic modules: moves are applied by cutting
and swapping blocks, sortability is decided by exhaustive search, ranks come
from a local elimination routine, and move graphs are rebuilt by scanning
pointer occurrences. The point is that the two sides can adjudicate each
other at small sizes.

The census runs in one process and visits its blocks in order. It is
bit-sliced: each block of 2^CENSUS_BLOCK_BITS graphs is tested at once,
graph i of the block in bit lane i of a Python int, with a GF(2)
elimination of its own that treats every lane alike.

Each search memoizes by exact state in a table that lives for one call.
Move relations here strictly shrink an invariant, so the state graph is
acyclic; a cycle guard raises instead of looping if that ever failed to
hold.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ContractError, InternalInvariantError, SizeLimitError
from .f2 import F2Matrix
from .graphs import RootedGraph
from .perms import Permutation

__all__ = [
    "SearchStats",
    "cds_move",
    "gcds_move",
    "cds_sortable_bruteforce",
    "gcds_sortable_bruteforce",
    "gcds_sortable_search",
    "gcds_fixed_point_profile",
    "graph_rows",
    "census_bruteforce",
    "parity_cuts_bruteforce",
    "n0_bruteforce",
    "move_graph_bruteforce",
    "realizable_bruteforce",
]

SEARCH_LIMIT = 8
CENSUS_LIMIT = 7
CENSUS_BLOCK_BITS = 12  # 2^12 graphs per census block, one per bit lane
CUTS_LIMIT = 16
N0_LIMIT = 5
REALIZE_LIMIT = 6

_FLAVORS = ("two_sided_root_even", "generalized")


@dataclass(frozen=True)
class SearchStats:
    """Exhaustive-search outcome with its size telemetry."""

    states_visited: int
    max_depth: int
    result: bool | int


# ---------------------------------------------------------------------------
# permutations: occurrences, contexts, block swap


def _occurrences(framed: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Occurrence positions of each pointer (i, i+1) along the framed word.

    An occurrence sits in the gap after a word position; within one gap the
    occurrence belonging to the left element precedes the one belonging to
    the right element. Keys (gap, side) compare lexicographically.
    """
    pos = {v: i for i, v in enumerate(framed)}
    n = len(framed) - 2
    return [
        ((pos[p], 0), (pos[p + 1] - 1, 1)) for p in range(n + 1)
    ]


def _interleaved(a: tuple, b: tuple) -> bool:
    a0, a1 = sorted(a)
    b0, b1 = sorted(b)
    return a0 < b0 < a1 < b1 or b0 < a0 < b1 < a1


def _swap_blocks(framed: tuple[int, ...], occ_p, occ_q) -> tuple[int, ...]:
    cuts = sorted(key[0] + 1 for key in (*occ_p, *occ_q))
    c1, c2, c3, c4 = cuts
    return (
        framed[:c1] + framed[c3:c4] + framed[c2:c3] + framed[c1:c2] + framed[c4:]
    )


def cds_move(values: Sequence[int], p: int, q: int) -> tuple[int, ...] | None:
    """The swap on pointers p and q of a one-line permutation, from the
    definition: when their occurrences interleave as p..q..p..q, the block
    between the first two and the block between the last two trade places.
    None when the occurrences do not interleave."""
    framed = (0, *values, len(values) + 1)
    occ = _occurrences(framed)
    if not _interleaved(occ[p], occ[q]):
        return None
    return _swap_blocks(framed, occ[p], occ[q])[1:-1]


def _perm_children(state: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(state)
    children = []
    for p in range(1, n):
        for q in range(p + 1, n):
            child = cds_move(state, p, q)
            if child is not None:
                children.append(child)
    return children


def _cds_sortable(state: tuple[int, ...], path: set, memo: dict) -> bool:
    cached = memo.get(state)
    if cached is not None:
        return cached
    if state in path:
        raise InternalInvariantError("swap moves formed a cycle")
    if state == tuple(range(1, len(state) + 1)):
        result = True
    else:
        path.add(state)
        result = any(_cds_sortable(c, path, memo) for c in _perm_children(state))
        path.remove(state)
    memo[state] = result
    return result


def cds_sortable_bruteforce(pi: Permutation) -> bool:
    """Whether the identity is reachable by swap moves; memoized search."""
    if len(pi) > SEARCH_LIMIT:
        raise SizeLimitError(f"search limited to n <= {SEARCH_LIMIT}, got {len(pi)}")
    return _cds_sortable(tuple(pi), set(), {})


# ---------------------------------------------------------------------------
# graphs: definitional move application and search


def _graph_contexts(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    n = len(rows)
    return [
        (p, q)
        for p in range(1, n - 1)
        for q in range(p + 1, n - 1)
        if (rows[p] >> q) & 1
    ]


def gcds_move(rows: Sequence[int], p: int, q: int) -> tuple[int, ...]:
    """The graph swap on adjacent non-root vertices p and q, entry by entry
    from the edge rule: u ~ v afterwards (u, v outside {p, q}) iff
    adj(p,u)*adj(q,v) + adj(q,u)*adj(p,v) + adj(u,v) is odd; p and q end
    isolated. Rows are bit masks; the caller supplies a valid context."""
    n = len(rows)
    fp, fq = rows[p], rows[q]
    out = []
    for u in range(n):
        if u in (p, q):
            out.append(0)
            continue
        new = 0
        for v in range(n):
            if v == u or v in (p, q):
                continue
            s = (
                ((fp >> u) & 1) * ((fq >> v) & 1)
                + ((fq >> u) & 1) * ((fp >> v) & 1)
                + ((rows[u] >> v) & 1)
            )
            new |= (s & 1) << v
        out.append(new)
    return tuple(out)


def _gcds_sortable(rows: tuple[int, ...], path: set, memo: dict) -> bool:
    cached = memo.get(rows)
    if cached is not None:
        return cached
    if rows in path:
        raise InternalInvariantError("graph moves formed a cycle")
    if not any(rows):
        result = True
    else:
        path.add(rows)
        result = any(
            _gcds_sortable(gcds_move(rows, p, q), path, memo)
            for p, q in _graph_contexts(rows)
        )
        path.remove(rows)
    memo[rows] = result
    return result


def gcds_sortable_bruteforce(g: RootedGraph) -> bool:
    """Whether the edgeless graph is reachable by moves; memoized search."""
    if g.n > SEARCH_LIMIT:
        raise SizeLimitError(f"search limited to n <= {SEARCH_LIMIT}, got {g.n}")
    return _gcds_sortable(g.adjacency.rows, set(), {})


def gcds_sortable_search(g: RootedGraph) -> SearchStats:
    """Breadth-first exploration of every graph reachable by moves."""
    if g.n > SEARCH_LIMIT:
        raise SizeLimitError(f"search limited to n <= {SEARCH_LIMIT}, got {g.n}")
    start = g.adjacency.rows
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        nxt = []
        for rows in frontier:
            for p, q in _graph_contexts(rows):
                child = gcds_move(rows, p, q)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        if nxt:
            depth += 1
        frontier = nxt
    return SearchStats(len(seen), depth, tuple(0 for _ in start) in seen)


def _profile(
    rows: tuple[int, ...], path: set, memo: dict
) -> frozenset[tuple[int, bool]]:
    cached = memo.get(rows)
    if cached is not None:
        return cached
    if rows in path:
        raise InternalInvariantError("graph moves formed a cycle")
    contexts = _graph_contexts(rows)
    if not contexts:
        result = frozenset({(0, not any(rows))})
    else:
        path.add(rows)
        acc = set()
        for p, q in contexts:
            for length, edgeless in _profile(gcds_move(rows, p, q), path, memo):
                acc.add((length + 1, edgeless))
        path.remove(rows)
        result = frozenset(acc)
    memo[rows] = result
    return result


def gcds_fixed_point_profile(g: RootedGraph) -> frozenset[tuple[int, bool]]:
    """All (length, ends-edgeless) pairs over maximal move sequences from g.

    A maximal sequence applies moves until no context remains. The profile
    collects every achievable (number of moves, final graph is edgeless)
    pair; sequence lengths are expected to be an invariant of g.
    """
    if g.n > SEARCH_LIMIT:
        raise SizeLimitError(f"search limited to n <= {SEARCH_LIMIT}, got {g.n}")
    return _profile(g.adjacency.rows, set(), {})


# ---------------------------------------------------------------------------
# local elimination: rank


def _rows_rank(rows) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            other = basis.get(lead)
            if other is None:
                basis[lead] = cur
                break
            cur ^= other
    return len(basis)


# ---------------------------------------------------------------------------
# censuses


def graph_rows(
    n: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Adjacency rows of the graphs on n vertices whose edge masks lie in
    [start, stop); stop defaults to 2^C(n,2), so by default every graph.

    Bit k of a mask selects the k-th pair of itertools.combinations(range(n), 2).
    """
    pairs = list(itertools.combinations(range(n), 2))
    if stop is None:
        stop = 1 << len(pairs)
    for mask in range(start, stop):
        rows = [0] * n
        m = mask
        for u, v in pairs:
            if m & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            m >>= 1
        yield tuple(rows)


def _lane_patterns(bits: int) -> list[int]:
    """Entry k has lane i set iff bit k of i is set, for 2^bits lanes."""
    lanes = 1 << bits
    full = (1 << lanes) - 1
    patterns = []
    for k in range(bits):
        half = 1 << k
        period = ((1 << half) - 1) << half  # 2^k clear lanes, then 2^k set
        patterns.append(full // ((1 << 2 * half) - 1) * period)
    return patterns


def _block_lanes(n: int, lo: int, patterns: list[int]) -> tuple[int, int]:
    """Lane masks (sortable, even degree) of the graphs with edge masks
    lo + i, one graph per lane i, for i below 2^len(patterns).

    Sortable is the kernel criterion: with x_0, x_{n-1} pinned to (1, 0) and
    to (0, 1), A x = 0 becomes B y = a_0 and B y = a_{n-1}, where B holds
    the non-root columns of A. Both systems are eliminated at once, in every
    lane, without branching on a lane.
    """
    bits = len(patterns)
    full = (1 << (1 << bits)) - 1
    adj = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        lane = patterns[k] if k < bits else full * ((lo >> k) & 1)
        adj[u][v] = adj[v][u] = lane
    even = full
    for row in adj:
        parity = 0
        for lane in row:
            parity ^= lane
        even &= ~parity
    # row r: the n - 2 entries of B, then a_0 and a_{n-1}: n columns
    system = [row[1 : n - 1] + [row[0], row[n - 1]] for row in adj]
    used = [0] * n
    for c in range(n - 2):
        free = full
        pivot = [0] * n
        for r, row in enumerate(system):
            # each lane pivots on its first unused row with a 1 in column c
            sel = row[c] & free & ~used[r]
            if sel:
                free ^= sel
                used[r] |= sel
                for j in range(c + 1, n):
                    pivot[j] |= sel & row[j]
        for r, row in enumerate(system):
            hit = row[c] & ~used[r]
            if hit:
                for j in range(c + 1, n):
                    row[j] ^= hit & pivot[j]
    inconsistent = 0
    for r, row in enumerate(system):
        inconsistent |= (row[-2] | row[-1]) & ~used[r]
    return full & ~inconsistent, even


def census_bruteforce(n: int, eulerian: bool = False) -> int:
    """Count sortable two-rooted graphs on n vertices by full enumeration.

    Every one of the 2^(n(n-1)/2) labeled graphs (roots first and last) is
    tested by the kernel criterion, with an elimination local to this
    module; the exhaustive move search validates that criterion elsewhere at
    n <= 6. The test is bit-sliced: a block of 2^CENSUS_BLOCK_BITS
    consecutive edge masks is one Python int per matrix entry, bit i of it
    for mask lo + i, and the elimination runs on all lanes at once. The
    Eulerian census adds an even-degree lane mask. One process visits the
    blocks in order; n = 7 is 512 blocks and takes about 0.1 s.
    """
    if n < 2:
        raise ContractError(f"census needs n >= 2, got {n}")
    if n > CENSUS_LIMIT:
        raise SizeLimitError(f"census limited to n <= {CENSUS_LIMIT}, got {n}")
    pairs = n * (n - 1) // 2
    bits = min(CENSUS_BLOCK_BITS, pairs)
    patterns = _lane_patterns(bits)
    count = 0
    for lo in range(0, 1 << pairs, 1 << bits):
        sortable, even = _block_lanes(n, lo, patterns)
        count += (sortable & even if eulerian else sortable).bit_count()
    return count


def parity_cuts_bruteforce(
    g: RootedGraph, flavor: str = "two_sided_root_even"
) -> list[frozenset[int]]:
    """All vertex subsets passing the flavor's definition, by full scan.

    Flavors: "generalized" asks that every vertex has an even number of
    neighbors inside the subset; "two_sided_root_even" asks that every
    vertex has even degree across the bipartition.
    """
    if flavor not in _FLAVORS:
        raise ContractError(f"unknown parity-cut flavor {flavor!r}")
    n = g.n
    if n > CUTS_LIMIT:
        raise SizeLimitError(f"cut scan limited to n <= {CUTS_LIMIT}, got {n}")
    rows = g.adjacency.rows
    full = (1 << n) - 1
    out = []
    for mask in range(1 << n):
        ok = True
        for v in range(n):
            if flavor == "generalized":
                cross = rows[v] & mask
            else:
                side = mask if not (mask >> v) & 1 else full & ~mask
                cross = rows[v] & side
            if cross.bit_count() & 1:
                ok = False
                break
        if ok:
            out.append(frozenset(v for v in range(n) if (mask >> v) & 1))
    return out


def n0_bruteforce(t: int, r: int) -> int:
    """Count symmetric zero-diagonal t x t matrices of rank r by enumeration."""
    if t < 0 or r < 0:
        raise ContractError(f"sizes must be nonnegative, got t={t}, r={r}")
    if t > N0_LIMIT:
        raise SizeLimitError(f"enumeration limited to t <= {N0_LIMIT}, got {t}")
    return sum(_rows_rank(rows) == r for rows in graph_rows(t))


# ---------------------------------------------------------------------------
# move-graph realization


def _move_graph_rows(values: tuple[int, ...]) -> tuple[int, ...]:
    n = len(values)
    framed = (0, *values, n + 1)
    occ = _occurrences(framed)
    rows = [0] * (n - 1)
    for p in range(1, n):
        for q in range(p + 1, n):
            if _interleaved(occ[p], occ[q]):
                rows[p - 1] |= 1 << (q - 1)
                rows[q - 1] |= 1 << (p - 1)
    return tuple(rows)


def move_graph_bruteforce(pi: Permutation) -> F2Matrix:
    """Pairwise-interleaving graph of the non-root pointers, from scratch."""
    if len(pi) < 2:
        raise ContractError("move graphs need permutations of length >= 2")
    return F2Matrix.from_row_bits(_move_graph_rows(tuple(pi)), len(pi) - 1)


@lru_cache(maxsize=None)
def _move_graph_table(length: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for values in itertools.permutations(range(1, length + 1)):
        table.setdefault(_move_graph_rows(values), values)
    return table


def realizable_bruteforce(m: F2Matrix) -> Permutation | None:
    """First permutation (in one-line lexicographic order) whose move graph
    equals m, or None; decided by scanning all (k+1)! permutations."""
    if not m.is_square:
        raise ContractError(f"move-graph instance must be square, got {m.shape}")
    if not m.is_symmetric() or not m.is_zero_diagonal():
        raise ContractError("move-graph instance must be symmetric with zero diagonal")
    length = m.nrows + 1
    if length > REALIZE_LIMIT:
        raise SizeLimitError(
            f"realization scan limited to permutations of length <= {REALIZE_LIMIT}"
        )
    witness = _move_graph_table(length).get(m.rows)
    return None if witness is None else Permutation(witness)
