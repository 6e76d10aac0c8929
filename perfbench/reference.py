"""Reference math for the benchmark's correctness checks, from definitions.

Nothing here imports cdslab, so a defect in the program cannot hide behind
the same defect in its checker. Permutations are tuples of the values
1..n; matrices are lists of int rows, bit j of a row being column j.

Pointer i (0 <= i <= n) sits between the values i and i+1 of the framed
permutation 0, pi_1, ..., pi_n, n+1. It occurs twice: right of the value
i and left of the value i+1. In the gap after framed position k, a right
occurrence comes before a left one, so the occurrences get slots 2k and
2k - 1 respectively. Two pointers overlap iff their slots interleave.
"""
from __future__ import annotations

from typing import Sequence


def framed(perm: Sequence[int]) -> tuple[int, ...]:
    return (0, *perm, len(perm) + 1)


def pointer_slots(perm: Sequence[int]) -> list[tuple[int, int]]:
    """Sorted occurrence slots of each pointer 0..n."""
    pos = [0] * (len(perm) + 2)
    for k, v in enumerate(framed(perm)):
        pos[v] = k
    out = []
    for i in range(len(perm) + 1):
        right, left = 2 * pos[i], 2 * pos[i + 1] - 1
        out.append((min(right, left), max(right, left)))
    return out


def interleaved(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def overlap_rows(perm: Sequence[int]) -> list[int]:
    """Adjacency rows of the pointer-overlap graph, roots 0 and n included."""
    slots = pointer_slots(perm)
    rows = [0] * len(slots)
    for a in range(len(slots)):
        for b in range(a + 1, len(slots)):
            if interleaved(slots[a], slots[b]):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def central(rows: Sequence[int]) -> list[int]:
    """Drop the first and last row and column."""
    inner = (1 << (len(rows) - 1)) - 2
    return [(r & inner) >> 1 for r in rows[1:-1]]


def move_rows(perm: Sequence[int]) -> list[int]:
    """Move graph: overlap adjacency of the non-root pointers 1..n-1."""
    return central(overlap_rows(perm))


def block_swap(perm: Sequence[int], p: int, q: int) -> tuple[int, ...]:
    """Swap on pointers p, q: with occurrences ordered p..q..p..q, the block
    between the first two and the block between the last two trade places.
    Raises ValueError when (p, q) is not a context."""
    n = len(perm)
    if not (1 <= p < n and 1 <= q < n) or p == q:
        raise ValueError(f"({p}, {q}) is not a pair of non-root pointers")
    slots = pointer_slots(perm)
    if not interleaved(slots[p], slots[q]):
        raise ValueError(f"pointers {p} and {q} do not interleave")
    g1, g2, g3, g4 = (s // 2 for s in sorted((*slots[p], *slots[q])))
    f = framed(perm)
    out = f[: g1 + 1] + f[g3 + 1 : g4 + 1] + f[g2 + 1 : g3 + 1] + f[g1 + 1 : g2 + 1] + f[g4 + 1 :]
    return out[1:-1]


def rank(rows: Sequence[int]) -> int:
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def _solvable(equations: Sequence[int], nvars: int) -> bool:
    """Whether a GF(2) system has a solution; bit nvars of each equation is
    its right-hand side."""
    rhs = 1 << nvars
    basis: dict[int, int] = {}
    for eq in equations:
        while eq & (rhs - 1):
            lead = (eq & (rhs - 1)).bit_length() - 1
            if lead not in basis:
                basis[lead] = eq
                break
            eq ^= basis[lead]
        else:
            if eq:
                return False
    return True


def kernel_reaches_roots(rows: Sequence[int]) -> bool:
    """Kernel criterion: some x with Ax = 0 has x_first = 1, x_last = 0, and
    some other has x_first = 0, x_last = 1."""
    m = len(rows)
    first, last, rhs = 1, 1 << (m - 1), 1 << m
    return _solvable([*rows, first | rhs, last], m) and _solvable(
        [*rows, first, last | rhs], m
    )


def distance(rows: Sequence[int]) -> int:
    """Swaps needed to sort: half the rank of the central part."""
    return rank(central(rows)) // 2


def strategic_pile(perm: Sequence[int]) -> list[int]:
    """Elements met walking the composed cycle map from n until 0; empty when
    0 is not on the cycle of n. The map first adds 1 (mod n+1), then steps
    one place left in the cyclic sequence 0, pi_1, ..., pi_n."""
    n = len(perm)
    seq = (0, *perm)
    left_of = [0] * (n + 1)
    for k in range(n + 1):
        left_of[seq[(k + 1) % (n + 1)]] = seq[k]
    step = [left_of[(i + 1) % (n + 1)] for i in range(n + 1)]
    pile = []
    cur = step[n]
    while cur not in (0, n):
        pile.append(cur)
        cur = step[cur]
    return pile if cur == 0 else []


def mcds_rows(rows: Sequence[int], p: int, q: int) -> list[int]:
    """The swap as a matrix update, A + A E A with E = e_p e_q^T + e_q e_p^T."""
    rp, rq = rows[p], rows[q]
    return [
        r ^ (rq if (r >> p) & 1 else 0) ^ (rp if (r >> q) & 1 else 0) for r in rows
    ]


def edges(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, 1-based, in row-major order."""
    return [
        (u + 1, v + 1)
        for u, r in enumerate(rows)
        for v in range(u + 1, len(rows))
        if (r >> v) & 1
    ]


def matrix_text(rows: Sequence[int]) -> str:
    m = len(rows)
    return "".join(
        "".join("1" if (r >> j) & 1 else "0" for j in range(m)) + "\n" for r in rows
    )


def parse_matrix_lines(lines: Sequence[str]) -> list[int]:
    return [int(line[::-1], 2) for line in lines]
