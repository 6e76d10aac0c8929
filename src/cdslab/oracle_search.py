"""Brute-force searches and scans over single objects, built from
definitions only.

Nothing here calls into the analytic modules: moves are applied by cutting
and swapping blocks, sortability is decided by exhaustive search, ranks come
from a local elimination routine, and move graphs are rebuilt by scanning
pointer occurrences. The point is that the two sides can adjudicate each
other at small sizes. The bit-sliced census lives in cdslab.oracle, so that
``cdslab count --method brute_force`` compiles none of this; the two
modules share no code.

Every search is one depth-first walk, memoized by exact state in a table
that lives for one call. Move relations here strictly shrink an invariant,
so the state graph is acyclic; the walk's cycle guard raises instead of
looping if that ever failed to hold.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Sequence

from .errors import ContractError, InternalInvariantError, SizeLimitError

# The two entry points that return a matrix or a permutation import its type
# themselves, so this module loads no cdslab module but errors.
if TYPE_CHECKING:
    from .f2 import F2Matrix
    from .graphs import RootedGraph
    from .perms import Permutation

__all__ = [
    "cds_move",
    "gcds_move",
    "cds_sortable_bruteforce",
    "gcds_sortable_bruteforce",
    "gcds_fixed_point_profile",
    "graph_rows",
    "parity_cuts_bruteforce",
    "n0_bruteforce",
    "move_graph_bruteforce",
    "realizable_bruteforce",
]

SEARCH_LIMIT = 8
CUTS_LIMIT = 16
N0_LIMIT = 5
REALIZE_LIMIT = 6

_FLAVORS = ("two_sided_root_even", "generalized")


def _check_search_size(n: int) -> None:
    if n > SEARCH_LIMIT:
        raise SizeLimitError(f"search limited to n <= {SEARCH_LIMIT}, got {n}")


def _walk(
    start: Hashable,
    value: Callable[[Any, Callable[[Hashable], Any]], Any],
) -> Any:
    """The value of start, by depth-first search memoized by state.

    value(state, walk) computes one state's value, calling walk(child) for
    each child value it needs, so it can stop at the first child that
    decides it. Values must not be None.
    """
    memo: dict[Hashable, Any] = {}
    path: set[Hashable] = set()

    def walk(state: Hashable) -> Any:
        cached = memo.get(state)
        if cached is not None:
            return cached
        if state in path:
            raise InternalInvariantError("moves formed a cycle")
        path.add(state)
        result = value(state, walk)
        path.remove(state)
        memo[state] = result
        return result

    return walk(start)


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


def cds_sortable_bruteforce(pi: Permutation) -> bool:
    """Whether the identity is reachable by swap moves; memoized search."""
    _check_search_size(len(pi))
    identity = tuple(range(1, len(pi) + 1))
    return _walk(
        tuple(pi),
        lambda values, walk: values == identity
        or any(map(walk, _perm_children(values))),
    )


# ---------------------------------------------------------------------------
# graphs: definitional move application and search


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


def _graph_children(rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The graph after each move, contexts (p, q) taken in ascending order."""
    n = len(rows)
    for p in range(1, n - 1):
        for q in range(p + 1, n - 1):
            if (rows[p] >> q) & 1:
                yield gcds_move(rows, p, q)


def gcds_sortable_bruteforce(g: RootedGraph) -> bool:
    """Whether the edgeless graph is reachable by moves; memoized search."""
    _check_search_size(g.n)
    return _walk(
        g.adjacency.rows,
        lambda rows, walk: not any(rows) or any(map(walk, _graph_children(rows))),
    )


def gcds_fixed_point_profile(g: RootedGraph) -> frozenset[tuple[int, bool]]:
    """All (length, ends-edgeless) pairs over maximal move sequences from g.

    A maximal sequence applies moves until no context remains. The profile
    collects every achievable (number of moves, final graph is edgeless)
    pair; sequence lengths are expected to be an invariant of g.
    """
    _check_search_size(g.n)

    def profile(rows, walk):
        # a child's profile is never empty, so neither is a non-final one
        pairs = {
            (length + 1, edgeless)
            for child in _graph_children(rows)
            for length, edgeless in walk(child)
        }
        return frozenset(pairs or {(0, not any(rows))})

    return _walk(g.adjacency.rows, profile)


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
# enumeration and scans


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


def parity_cuts_bruteforce(
    g: RootedGraph, flavor: str = "two_sided_root_even"
) -> list[int]:
    """All vertex subsets passing the flavor's definition, by full scan, as
    vertex bit masks in ascending order.

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
            out.append(mask)
    return out


def n0_bruteforce(t: int, r: int) -> int:
    """Count symmetric zero-diagonal t x t matrices of rank r by enumeration."""
    if t < 0 or not 0 <= r <= t:
        raise ContractError(f"rank {r} out of range for size {t}")
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
    from .f2 import F2Matrix

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
    n, rows = m.nrows, m.rows
    if not n:
        raise ContractError("move-graph instance must be non-empty")
    if n + 1 > REALIZE_LIMIT:
        raise SizeLimitError(
            f"realization scan limited to permutations of length <= {REALIZE_LIMIT}"
        )
    # entry by entry, so that the oracle shares no kernel with f2
    if any((r >> i) & 1 for i, r in enumerate(rows)) or any(
        (rows[i] >> j) & 1 != (rows[j] >> i) & 1 for i in range(n) for j in range(i)
    ):
        raise ContractError("move-graph instance must be symmetric with zero diagonal")
    from .perms import Permutation

    witness = _move_graph_table(n + 1).get(rows)
    return None if witness is None else Permutation(witness)

