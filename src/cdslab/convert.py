"""Conversions between overlap-adjacency and precedence representations.

The overlap adjacency of a permutation of n is (n+1) x (n+1) (one row per
pointer); its precedence matrix is (n+2) x (n+2) (one row per framed value,
entry (r, c) = 1 iff value r comes before value c). Both directions work on
int bit rows. With rp(w) the prefix XOR along a row (bit j of rp(w) is the
XOR of bits 0..j of w) and e_j the unit row:

- precedence row i is rp(A_i << 1) ^ e_{i+1} ^ ... ^ e_{n+1}, where A_i is
  the XOR of the adjacency rows 0..i-1 (`_precedence_rows`);
- adjacency row i is w ^ (w >> 1) ^ e_i ^ e_{i+1}, cut to n+1 columns, where
  w is the XOR of the precedence rows i and i+1.

Realization rests on the first map being affine over GF(2): the precedence
rows of a sum of adjacencies are those of one plus the linear part
rp(A_i << 1) of the other. The candidate adjacencies of a move graph M of
size n-1 differ only in their border (v, u, x), so with S the precedence
rows of the fixed part (M shifted in, zero border), V = rp(v << 2) and
U = rp(u << 2), the candidate's precedence row i >= 1 is

    S_i ^ V ^ [V_i] ones(1..n+1) ^ [U_i ^ x] e_{n+1}
        ^ [i = n+1] (U ^ [x] ones(1..n+1))

and row 0 is S_0. Bit i of V is the parity of v_0..v_{i-2} (the border
entries of rows 1..i-1 of the adjacency), and bit i of U likewise of u, so
each candidate costs O(n) big-int operations.
"""
from __future__ import annotations

from itertools import accumulate
from operator import xor
from typing import Sequence

from . import f2, perms
from .errors import ContractError

__all__ = [
    "adjacency_to_precedence",
    "precedence_to_adjacency",
    "is_precedence_matrix",
    "permutation_from_precedence",
    "realize_move_graph",
]


def _row_prefix(w: int, width: int) -> int:
    """Prefix XOR along one row: bit j becomes the XOR of bits 0..j of w,
    for w below 2^width."""
    mask = (1 << width) - 1
    shift = 1
    while shift < width:
        w ^= (w << shift) & mask
        shift <<= 1
    return w


def _precedence_rows(adjacency_rows: Sequence[int]) -> list[int]:
    """Precedence rows of the adjacency with these bit rows, by the row
    identity in the module docstring; the rows are not checked."""
    size = len(adjacency_rows) + 1
    full = (1 << size) - 1
    return [
        _row_prefix(above << 1, size) ^ (full >> (i + 1) << (i + 1))
        for i, above in enumerate(accumulate(adjacency_rows, xor, initial=0))
    ]


def adjacency_to_precedence(a: f2.F2Matrix) -> f2.F2Matrix:
    """Precedence matrix of the permutation whose overlap adjacency is `a`.

    Input: symmetric zero-diagonal (n+1) x (n+1); output (n+2) x (n+2).
    """
    f2.check_adjacency(a, "adjacency")
    return f2.F2Matrix.from_row_bits(_precedence_rows(a.rows), a.nrows + 1)


def precedence_to_adjacency(p: f2.F2Matrix) -> f2.F2Matrix:
    """Overlap adjacency recovered from a precedence matrix.

    Input (n+2) x (n+2) with n >= 0; output (n+1) x (n+1).
    """
    if not p.is_square or p.nrows < 2:
        raise ContractError(f"precedence matrix must be square >= 2, got {p.shape}")
    size = p.nrows - 1
    mask = (1 << size) - 1
    rows = []
    for i in range(size):
        w = p.rows[i] ^ p.rows[i + 1]
        rows.append((w ^ (w >> 1) ^ (3 << i)) & mask)
    return f2.F2Matrix.from_row_bits(rows, size)


def _total_order(rows: Sequence[int]) -> list[int] | None:
    """The total order whose precedence matrix has these rows, earliest
    first, or None.

    Rows sorted by falling weight give the only candidate order; the rows
    form its precedence matrix iff every row is the mask of the rows after it.
    """
    order = sorted(range(len(rows)), key=lambda r: -rows[r].bit_count())
    after = 0
    for r in reversed(order):
        if rows[r] != after:
            return None
        after |= 1 << r
    return order


def is_precedence_matrix(c: f2.F2Matrix) -> bool:
    """Membership test for precedence matrices of total orders (equivalently:
    zero diagonal, exactly one of (i,j)/(j,i) set for i != j, and the
    INTEGER row sums a permutation of 0..n-1)."""
    return c.is_square and _total_order(c.rows) is not None


def permutation_from_precedence(p: f2.F2Matrix) -> perms.Permutation:
    """Rebuild the permutation from a full framed precedence matrix.

    Row r holds value r; larger integer row sum means earlier position. The
    framed order must start at 0 and end at n+1.
    """
    order = _total_order(p.rows) if p.is_square else None
    if order is None:
        raise ContractError("not a precedence matrix of a total order")
    m = p.nrows
    if m < 2:
        raise ContractError("framed precedence matrix needs size >= 2")
    if order[0] != 0 or order[-1] != m - 1:
        raise ContractError("order does not frame 0 first and n+1 last")
    return perms.Permutation(order[1:-1])


def realize_move_graph(m: f2.F2Matrix) -> perms.Permutation | None:
    """Find a permutation whose move graph (non-root pointer overlap
    adjacency) equals the given (n-1) x (n-1) matrix, or None.

    Vertex i of the move graph is pointer i+1. Hypothesis i in 1..n: value
    i is the last element of the witness. The first-column central part v
    of the full adjacency is then forced: v_j = (sum of column j of the
    move graph over rows < i) + [j == i], the last column follows from the
    even-row closure u = v + M*1, and the corner bit x is the parity of v:
    the framed order needs an all-zero last precedence row, and that row is
    zero only when every adjacency row, row 0 = [0, v^T, x] included, has
    even weight. Each candidate [[0, v^T, x], [v, M, u], [x, u^T, 0]] goes
    to precedence rows by the shared-prefix identity in the module
    docstring.

    Every returned witness is re-verified against the input, so a wrong
    candidate can only cost completeness, never soundness; candidates are
    tried in ascending i order and the first verified one wins. Cost: one
    O(n^2) check of the input, n candidates of O(n) big-int operations
    each, and an O(n^2) witness check for each candidate that passes the
    order test.
    """
    f2.check_adjacency(m, "move graph")
    if not m.nrows:
        raise ContractError("move graph must be non-empty")
    k = m.nrows  # move graph size, = n - 1
    n = k + 1
    size = n + 2  # framed precedence size
    last = 1 << (size - 1)
    from_one = (1 << size) - 2
    shared = _precedence_rows([0, *(r << 1 for r in m.rows), 0])
    mu = m.mat_vec((1 << k) - 1)
    above = 0  # XOR of the move graph's rows above hypothesis i
    for i in range(1, n + 1):
        if i >= 2:
            above ^= m.rows[i - 2]
        v = above ^ (1 << (i - 1)) if i <= k else above
        vp = _row_prefix(v << 2, size)
        up = _row_prefix((v ^ mu) << 2, size)
        x = v.bit_count() & 1
        rows = [shared[0]]
        for r in range(1, size):
            row = shared[r] ^ vp
            if vp >> r & 1:
                row ^= from_one
            if (up >> r ^ x) & 1:
                row ^= last
            rows.append(row)
        rows[-1] ^= up ^ (from_one if x else 0)
        order = _total_order(rows)
        if order is None or order[0] != 0 or order[-1] != n + 1:
            continue
        pi = perms.Permutation(order[1:-1])
        if perms.move_graph(pi) == m:
            return pi
    return None
