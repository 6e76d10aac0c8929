"""Conversions between overlap-adjacency and precedence representations.

The overlap adjacency of a permutation of n is (n+1) x (n+1) (one row per
pointer); its precedence matrix is (n+2) x (n+2) (one row per framed value,
entry (r, c) = 1 iff value r comes before value c). The two are linked by a
small transform calculus: an upper-bidiagonal ones matrix, a corner
embedding, a 2x2-window XOR, and a running prefix XOR.
"""
from __future__ import annotations

from typing import Iterable

from . import f2, perms
from .errors import ContractError

__all__ = [
    "bidiagonal_ones",
    "corner_embed",
    "window_xor",
    "prefix_xor",
    "adjacency_to_precedence",
    "precedence_to_adjacency",
    "is_precedence_matrix",
    "permutation_from_precedence",
    "realize_move_graph",
]


def bidiagonal_ones(n: int) -> f2.F2Matrix:
    """n x n matrix with ones exactly on the diagonal and superdiagonal."""
    if n < 1:
        raise ContractError(f"size must be >= 1, got {n}")
    rows = [(1 << i) | (1 << (i + 1)) for i in range(n - 1)]
    rows.append(1 << (n - 1))
    return f2.F2Matrix.from_row_bits(rows, n)


def corner_embed(a: f2.F2Matrix) -> f2.F2Matrix:
    """Grow n x n to (n+1) x (n+1): a 1 in the new top-left corner, zeros in
    the rest of the new first row and column, the input shifted down-right."""
    if not a.is_square:
        raise ContractError(f"need a square matrix, got {a.shape}")
    rows = [1] + [r << 1 for r in a.rows]
    return f2.F2Matrix.from_row_bits(rows, a.ncols + 1)


def window_xor(a: f2.F2Matrix) -> f2.F2Matrix:
    """Shrink n x n to (n-1) x (n-1): entry (i, j) is the XOR of the 2x2
    window of the input at (i, j)."""
    if not a.is_square or a.nrows < 2:
        raise ContractError(f"need a square matrix of size >= 2, got {a.shape}")
    n = a.nrows
    rows = []
    for i in range(n - 1):
        w = a.rows[i] ^ a.rows[i + 1]
        rows.append((w ^ (w >> 1)) & ((1 << (n - 1)) - 1))
    return f2.F2Matrix.from_row_bits(rows, n - 1)


def prefix_xor(a: f2.F2Matrix) -> f2.F2Matrix:
    """Entry (i, j) becomes the XOR of the input rectangle [0..i] x [0..j].

    This is a bijection on square GF(2) matrices; window_xor of the output,
    suitably aligned, recovers the input.
    """
    if not a.is_square:
        raise ContractError(f"need a square matrix, got {a.shape}")
    n = a.nrows
    rows = []
    acc = 0
    mask = (1 << n) - 1
    for r in a.rows:
        acc ^= r
        # Prefix XOR along the row: fold the accumulated column bits left.
        p = acc
        shift = 1
        while shift < n:
            p ^= (p << shift) & mask
            shift <<= 1
        rows.append(p & mask)
    return f2.F2Matrix.from_row_bits(rows, n)


def adjacency_to_precedence(a: f2.F2Matrix) -> f2.F2Matrix:
    """Precedence matrix of the permutation whose overlap adjacency is `a`.

    Input: symmetric zero-diagonal (n+1) x (n+1); output (n+2) x (n+2).
    """
    if not a.is_square:
        raise ContractError(f"adjacency must be square, got {a.shape}")
    if not a.is_symmetric() or not a.is_zero_diagonal():
        raise ContractError("adjacency must be symmetric with a zero diagonal")
    z = corner_embed(a)
    return prefix_xor(z + bidiagonal_ones(z.nrows))


def precedence_to_adjacency(p: f2.F2Matrix) -> f2.F2Matrix:
    """Overlap adjacency recovered from a precedence matrix.

    Input (n+2) x (n+2) with n >= 0; output (n+1) x (n+1).
    """
    if not p.is_square or p.nrows < 2:
        raise ContractError(f"precedence matrix must be square >= 2, got {p.shape}")
    return window_xor(p) + bidiagonal_ones(p.nrows - 1)


def _total_order(c: f2.F2Matrix) -> list[int] | None:
    """The total order whose precedence matrix is c, earliest first, or None.

    Rows sorted by falling weight give the only candidate order; c is its
    precedence matrix iff every row is the mask of the rows after it.
    """
    if not c.is_square:
        return None
    order = sorted(range(c.nrows), key=lambda r: -c.rows[r].bit_count())
    after = 0
    for r in reversed(order):
        if c.rows[r] != after:
            return None
        after |= 1 << r
    return order


def is_precedence_matrix(c: f2.F2Matrix) -> bool:
    """Membership test for precedence matrices of total orders (equivalently:
    zero diagonal, exactly one of (i,j)/(j,i) set for i != j, and the
    INTEGER row sums a permutation of 0..n-1)."""
    return _total_order(c) is not None


def permutation_from_precedence(p: f2.F2Matrix) -> perms.Permutation:
    """Rebuild the permutation from a full framed precedence matrix.

    Row r holds value r; larger integer row sum means earlier position. The
    framed order must start at 0 and end at n+1.
    """
    order = _total_order(p)
    if order is None:
        raise ContractError("not a precedence matrix of a total order")
    m = p.nrows
    if m < 2:
        raise ContractError("framed precedence matrix needs size >= 2")
    if order[0] != 0 or order[-1] != m - 1:
        raise ContractError("order does not frame 0 first and n+1 last")
    return perms.Permutation(order[1:-1])


def _realize_candidates(m: f2.F2Matrix) -> "Iterable[tuple[int, f2.F2Matrix]]":
    """Candidate full adjacencies for a move graph, in tie-break order.

    Hypothesis i in 1..n: value i is the last element of the witness. The
    first-column central part v is then forced: v_j = (sum of column j of the
    move graph over rows < i) + [j == i], the last column follows from the
    even-row closure u = v + M*1, and only the corner bit x remains free.
    """
    k = m.nrows  # move graph size, = n - 1
    n = k + 1
    ones = (1 << k) - 1
    mu = m.mat_vec(f2.F2Vector.from_bits(ones, k)).bits if k else 0
    for i in range(1, n + 1):
        v = 0
        for row in range(min(i - 1, k)):
            v ^= m.rows[row]
        if i <= k:
            v ^= 1 << (i - 1)
        u = v ^ mu
        for x in (0, 1):
            # Assemble [[0, v^T, x], [v, M, u], [x, u^T, 0]].
            rows = [0] * (n + 1)
            rows[0] = (v << 1) | (x << n)
            for j in range(k):
                rows[j + 1] = (
                    ((v >> j) & 1)
                    | (m.rows[j] << 1)
                    | (((u >> j) & 1) << n)
                )
            rows[n] = x | (u << 1)
            yield i * 2 + x, f2.F2Matrix.from_row_bits(rows, n + 1)


def realize_move_graph(m: f2.F2Matrix) -> perms.Permutation | None:
    """Find a permutation whose move graph (non-root pointer overlap
    adjacency) equals the given (n-1) x (n-1) matrix, or None.

    Vertex i of the move graph is pointer i+1. Every returned witness is
    re-verified against the input, so a wrong candidate can only cost
    completeness, never soundness; candidates are tried in ascending
    tie-break order and the first verified one wins. Runs in polynomial time
    (O(n) candidates, O(n^2) work each).
    """
    if not m.is_square or m.nrows < 1:
        raise ContractError(f"move graph must be square and non-empty, got {m.shape}")
    if not m.is_symmetric() or not m.is_zero_diagonal():
        raise ContractError("move graph must be symmetric with a zero diagonal")
    for _, cand in _realize_candidates(m):
        try:
            pi = permutation_from_precedence(adjacency_to_precedence(cand))
        except ContractError:
            continue
        if perms.move_graph(pi) == m:
            return pi
    return None
