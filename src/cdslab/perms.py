"""Permutations, context-directed swaps (cds), and derived representations.

A permutation of n is stored 1-based as a tuple of the values 1..n. The
framed form prepends 0 and appends n+1. Pointer i (0 <= i <= n) sits between
the values i and i+1; pointers 0 and n are the roots and cannot be used in a
swap. Pointer i occurs twice in the framed permutation: right of the value i
and left of the value i+1. In the gap after framed position k, the right
pointer of framed[k] comes before the left pointer of framed[k+1]; with two
slots per gap, pointer occurrences get slots 2k and 2k+1. Two pointers
overlap iff their occurrence slots strictly alternate.
"""
from __future__ import annotations

from itertools import accumulate
from operator import xor
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import ContractError, InvalidMoveError

# The three functions that build a matrix or a graph import f2 and graphs
# themselves, so the perm commands load neither.
if TYPE_CHECKING:
    from .f2 import F2Matrix
    from .graphs import RootedGraph

__all__ = [
    "Permutation",
    "CycleNotation",
    "pointer_slots",
    "cds_contexts",
    "apply_cds",
    "cycle_notation",
    "strategic_pile",
    "is_cds_sortable",
    "overlap_graph",
    "move_graph",
    "alternating_cycle_vectors",
    "precedence_matrix",
    "sort_moves",
]


class Permutation:
    """Immutable permutation of {1..n} in one-line notation."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        elems = tuple(int(x) for x in elements)
        n = len(elems)
        if sorted(elems) != list(range(1, n + 1)):
            raise ContractError(
                f"not a permutation of 1..{n}: {list(elems)!r}"
            )
        object.__setattr__(self, "elements", elems)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def is_identity(self) -> bool:
        return self.elements == tuple(range(1, self.n + 1))

    def framed(self) -> tuple[int, ...]:
        return (0,) + self.elements + (self.n + 1,)

    def positions(self) -> list[int]:
        """positions()[v] = index of value v in the framed permutation."""
        pos = [0] * (self.n + 2)
        for i, v in enumerate(self.framed()):
            pos[v] = i
        return pos

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> int:
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"Permutation({list(self.elements)})"


def pointer_slots(pi: Permutation) -> tuple[tuple[int, int], ...]:
    """Occurrence slots (lo, hi) of each pointer 0..n, per the gap scheme."""
    pos = pi.positions()
    out = []
    for i in range(pi.n + 1):
        right = 2 * pos[i]
        left = 2 * pos[i + 1] - 1
        out.append((right, left) if right < left else (left, right))
    return tuple(out)


def _alternate(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def _overlap_rows(pi: Permutation) -> list[int]:
    """Bit rows of the overlap graph on the n+1 pointers.

    With prefix[s] the XOR of the pointers at slots before s, row a is
    prefix[hi_a] ^ prefix[lo_a + 1]: the pointers with exactly one slot
    strictly between a's two slots, which are those alternating with a.
    """
    slots = pointer_slots(pi)
    at_slot = [0] * (2 * len(slots))
    for a, (lo, hi) in enumerate(slots):
        at_slot[lo] = at_slot[hi] = 1 << a
    prefix = list(accumulate(at_slot, xor, initial=0))
    return [prefix[hi] ^ prefix[lo + 1] for lo, hi in slots]


def _context_pairs(rows: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Adjacent non-root pairs (p, q), p < q, of symmetric bit rows, in
    lexicographic order, scanned lazily: the first pair costs one masked row
    per p up to its own. Shared with graphs.context_pairs."""
    n = len(rows)
    inner = (1 << (n - 1)) - 1  # columns below the last root
    for p in range(1, n - 1):
        r = rows[p] & inner & ~((2 << p) - 1)  # columns q > p
        while r:
            low = r & -r
            yield p, low.bit_length() - 1
            r ^= low


def cds_contexts(pi: Permutation) -> list[tuple[int, int]]:
    """Usable contexts: non-root pointer pairs (p, q), p < q, that alternate."""
    return list(_context_pairs(_overlap_rows(pi)))


def apply_cds(pi: Permutation, p: int, q: int) -> Permutation:
    """Context-directed swap on pointers p and q (0-based pointer indices;
    pointer i is the value pair (i, i+1)).

    With the four occurrence slots in order p1 < q1 < p2 < q2, the blocks
    between p1..q1 and p2..q2 trade places.
    """
    n = pi.n
    if not (1 <= p <= n - 1 and 1 <= q <= n - 1):
        raise InvalidMoveError(
            f"pointers ({p}, {q}) must be non-root: 1..{n - 1}"
        )
    if p == q:
        raise InvalidMoveError("a context needs two distinct pointers")
    slots = pointer_slots(pi)
    if not _alternate(slots[p], slots[q]):
        raise InvalidMoveError(
            f"pointers {p} and {q} do not alternate in {list(pi.elements)!r}; "
            "the occurrence pattern must be p..q..p..q"
        )
    cuts = sorted((*slots[p], *slots[q]))
    g1, g2, g3, g4 = (s // 2 for s in cuts)
    framed = pi.framed()
    head = framed[: g1 + 1]
    block1 = framed[g1 + 1 : g2 + 1]
    middle = framed[g2 + 1 : g3 + 1]
    block2 = framed[g3 + 1 : g4 + 1]
    tail = framed[g4 + 1 :]
    out = head + block2 + middle + block1 + tail
    return Permutation(out[1:-1])


class CycleNotation(NamedTuple):
    """The composed cycle map on {0..n}: first the +1 rotation, then the
    inverse walk of the framed permutation."""

    mapping: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]


def _cycle_map(pi: Permutation) -> tuple[int, ...]:
    n = pi.n
    # rot(i) = i + 1 mod n+1; walk sends a_n -> a_(n-1) -> ... -> a_1 -> 0
    # and 0 -> a_n. The composite applies rot first.
    walk = [0] * (n + 1)
    seq = (0,) + pi.elements  # 0, a_1, ..., a_n
    for idx in range(n + 1):
        walk[seq[(idx + 1) % (n + 1)]] = seq[idx]
    return tuple(walk[(i + 1) % (n + 1)] for i in range(n + 1))


def cycle_notation(pi: Permutation) -> CycleNotation:
    mapping = _cycle_map(pi)
    seen = [False] * len(mapping)
    cycles = []
    for start in range(len(mapping)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = mapping[start]
        while cur != start:
            seen[cur] = True
            cyc.append(cur)
            cur = mapping[cur]
        cycles.append(tuple(cyc))
    return CycleNotation(mapping, tuple(cycles))


class _Pile(tuple):
    """A plain tuple, but for `ordered`, which the benchmark's own tests
    (perfbench/tests) still read; it goes when they read the tuple."""

    __slots__ = ()

    @property
    def ordered(self) -> tuple[int, ...]:
        return tuple(self)


def strategic_pile(pi: Permutation) -> tuple[int, ...]:
    """Elements trapped between n and 0 in the cycle of the composed map, in
    the order of the walk from n to 0; empty when the walk comes back to n
    first (0 is not in the cycle of n, so nothing separates them)."""
    n = pi.n
    mapping = _cycle_map(pi)
    pile = []
    cur = mapping[n]
    while cur != 0:
        if cur == n:
            return _Pile()
        pile.append(cur)
        cur = mapping[cur]
    return _Pile(pile)


def is_cds_sortable(pi: Permutation) -> bool:
    """A permutation sorts to the identity iff its strategic pile is empty."""
    return not strategic_pile(pi)


def overlap_graph(pi: Permutation) -> RootedGraph:
    """Pointer-overlap graph: vertices are the n+1 pointers, the roots are
    pointers 0 and n, and two pointers are adjacent iff their occurrence
    slots strictly alternate."""
    from .f2 import F2Matrix
    from .graphs import RootedGraph

    return RootedGraph(F2Matrix.from_row_bits(_overlap_rows(pi), pi.n + 1))


def move_graph(pi: Permutation) -> F2Matrix:
    """Adjacency of the non-root pointers only: the central part of the
    overlap adjacency, an (n-1) x (n-1) matrix (vertex i is pointer i+1)."""
    if pi.n < 2:
        raise ContractError("move graph needs n >= 2")
    from . import f2

    overlap = f2.F2Matrix.from_row_bits(_overlap_rows(pi), pi.n + 1)
    return f2.central_submatrix(overlap, "both")


def alternating_cycle_vectors(pi: Permutation) -> list[int]:
    """Characteristic vectors of the alternating cycles (the composed-map
    cycles), as bit masks over the n+1 pointers, listed by smallest member
    as cycle_notation lists the cycles; they form an orthogonal basis of
    the overlap kernel."""
    return [sum(1 << v for v in cyc) for cyc in cycle_notation(pi).cycles]


def precedence_matrix(pi: Permutation) -> F2Matrix:
    """(n+2) x (n+2) matrix over the framed values: entry (r, c) is 1 iff
    value r appears before value c in the framed permutation."""
    from .f2 import F2Matrix

    framed = pi.framed()
    rows = [0] * len(framed)
    after = 0
    for v in reversed(framed):
        rows[v] = after
        after |= 1 << v
    return F2Matrix.from_row_bits(rows, len(framed))


def sort_moves(pi: Permutation) -> list[tuple[int, int]] | None:
    """Greedy sorting: repeatedly apply the lexicographically smallest
    context. Returns the move list when the walk ends at the identity, else
    None (swaps apply until no context is left either way).

    Each move costs O(n) big-int operations on n-bit rows: the overlap rows
    are rebuilt, the context scan stops at the first non-root row with a
    neighbour above it, and apply_cds rebuilds the pointer slots.
    """
    moves = []
    cur = pi
    while True:
        ctx = next(_context_pairs(_overlap_rows(cur)), None)
        if ctx is None:
            break
        moves.append(ctx)
        cur = apply_cds(cur, *ctx)
    return moves if cur.is_identity else None
