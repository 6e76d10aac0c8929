"""The brute-force census of sortable two-rooted graphs, built from
definitions only.

Nothing here calls into the analytic modules: the census decides each graph
by the kernel criterion with a GF(2) elimination of its own, so it can
adjudicate the counting formulas at small sizes. It runs in one process and
visits its blocks in order. It is bit-sliced: each block of
2^CENSUS_BLOCK_BITS graphs is tested at once, graph i of the block in bit
lane i of a Python int, with an elimination that treats every lane alike.

The searches and scans over single permutations, graphs and matrices are in
cdslab.oracle_search, so ``cdslab count --method brute_force`` compiles only
the census.
"""
from __future__ import annotations

import itertools

from .errors import ContractError, SizeLimitError

__all__ = ["census_bruteforce"]

CENSUS_LIMIT = 7
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

