"""The brute-force census of sortable two-rooted graphs, built from
definitions only.

Nothing here calls into the analytic modules: the census decides each graph
by the kernel criterion with a GF(2) elimination of its own, so it can
adjudicate the counting formulas at small sizes. It runs in one process and
visits its blocks in order. It is bit-sliced: each block of
2^CENSUS_BLOCK_BITS graphs is tested at once, graph i of the block in bit
lane i of a Python int. One kernel, _lane_eliminate, decides every lane
alike; two lane builders fill the lanes:

* _edge_mask_lanes: all 2^C(n,2) graphs, by consecutive edge masks (the
  plain census, n <= 7, about 0.6 ms at n = 6 and 0.05 s at n = 7);
* _even_degree_lanes: only the 2^C(n-1,2) graphs with every degree even,
  each the completion of one graph on the first n - 1 vertices (the
  Eulerian census, n <= 8, about 0.05 ms at n = 6, 1 ms at n = 7 and
  0.07 s at n = 8).

The times are single-process runs on one core of an x86 host, Python 3.11.

The searches and scans over single permutations, graphs and matrices are in
cdslab.oracle_search, so ``cdslab count --method brute_force`` compiles only
the census.
"""
from __future__ import annotations

import itertools

from .errors import ContractError, SizeLimitError

__all__ = ["census_bruteforce"]

CENSUS_LIMIT = 7
EULERIAN_CENSUS_LIMIT = 8  # 2^21 even-degree graphs, as many as all graphs at 7
CENSUS_BLOCK_BITS = 12  # 2^12 graphs per census block, one per bit lane


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


def _edge_mask_lanes(
    n: int, lo: int, patterns: list[int], full: int
) -> list[list[int]]:
    """Adjacency lanes of the graphs on n vertices with edge masks lo + i,
    graph lo + i in lane i, for i below 2^len(patterns).

    Bit k of a mask is the k-th pair of itertools.combinations(range(n), 2):
    pair k < len(patterns) is the periodic pattern of bit k of i, a later
    pair is all ones or all zeros by bit k of lo.
    """
    bits = len(patterns)
    adj = [[0] * n for _ in range(n)]
    for k, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        lane = patterns[k] if k < bits else full * ((lo >> k) & 1)
        adj[u][v] = adj[v][u] = lane
    return adj


def _even_degree_lanes(
    n: int, lo: int, patterns: list[int], full: int
) -> list[list[int]]:
    """Adjacency lanes of the even-degree graphs on n vertices, one per lane.

    Lane i holds the graph with edge mask lo + i on vertices 0..n-2, laid out
    as _edge_mask_lanes lays it out, completed by the edges to vertex n-1
    that make every degree even: edge (u, n-1) is the XOR of u's other edge
    lanes, and then vertex n-1's degree is even too. Each even-degree graph
    on n vertices is the completion of exactly one graph on n - 1 vertices.
    """
    adj = _edge_mask_lanes(n - 1, lo, patterns, full)
    for row in adj:
        parity = 0
        for lane in row:
            parity ^= lane
        row.append(parity)
    adj.append([row[-1] for row in adj] + [0])
    return adj


def _lane_eliminate(n: int, adj: list[list[int]], full: int) -> int:
    """The lane mask of the sortable graphs among the lanes of adj.

    Sortable is the kernel criterion: with x_0, x_{n-1} pinned to (1, 0) and
    to (0, 1), A x = 0 becomes B y = a_0 and B y = a_{n-1}, where B holds
    the non-root columns of A. Both systems are eliminated at once, in every
    lane of full, without branching on a lane. adj is left as it was.
    """
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
    return full & ~inconsistent


def check_census_size(n: int, eulerian: bool = False) -> None:
    """Raise SizeLimitError if the census of that kind cannot reach n."""
    limit = EULERIAN_CENSUS_LIMIT if eulerian else CENSUS_LIMIT
    if n > limit:
        kind = "Eulerian census" if eulerian else "census"
        raise SizeLimitError(f"{kind} limited to n <= {limit}, got {n}")


def census_bruteforce(n: int, eulerian: bool = False) -> int:
    """Count sortable two-rooted graphs on n vertices by full enumeration.

    The plain census tests every one of the 2^(n(n-1)/2) labeled graphs
    (roots first and last); the Eulerian census tests only the
    2^((n-1)(n-2)/2) graphs with every degree even, built as completions of
    the graphs on the first n - 1 vertices. Each graph is decided by the
    kernel criterion, with an elimination local to this module; the
    exhaustive move search validates that criterion elsewhere at n <= 6.

    The test is bit-sliced: a lane builder lays out a block of
    2^CENSUS_BLOCK_BITS consecutive edge masks as one Python int per
    adjacency entry, bit i of it for mask lo + i, and _lane_eliminate runs
    on all lanes at once. One process visits the blocks in order. Both
    limits mean 2^21 graphs in 512 blocks, 0.05-0.07 s: the plain census
    up to n = CENSUS_LIMIT = 7, the Eulerian one up to
    n = EULERIAN_CENSUS_LIMIT = 8.
    """
    if n < 2:
        raise ContractError(f"census needs n >= 2, got {n}")
    check_census_size(n, eulerian)
    # the vertices whose pairs the lanes enumerate
    free = n - 1 if eulerian else n
    pairs = free * (free - 1) // 2
    bits = min(CENSUS_BLOCK_BITS, pairs)
    patterns = _lane_patterns(bits)
    full = (1 << (1 << bits)) - 1
    build = _even_degree_lanes if eulerian else _edge_mask_lanes
    count = 0
    for lo in range(0, 1 << pairs, 1 << bits):
        count += _lane_eliminate(n, build(n, lo, patterns, full), full).bit_count()
    return count
