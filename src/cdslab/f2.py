"""Dense GF(2) linear algebra on bit-packed rows.

Vectors and matrix rows are Python ints used as bitsets: bit j is coordinate
j, and a row's coordinates are its columns. A vector's length is that of the
matrix it goes with, and a function that takes one refuses a mask with a
negative value or a bit at or past that length. All indices are 0-based.

The kernels work a machine word's worth of bits, or more, per big-int
operation, rather than one bit per Python step:

- `F2Matrix.transpose` cuts the matrix into one row of square tiles whose
  side N is the next power of two of the row count, at least 8, and packs
  them end to end into one int, N * N bits per tile with entry (i, j) at
  bit i * N + j. A matrix of more than 1024 rows is cut into bands of 1024
  rows first, each transposed on its own, so N is at most 1024.
  log2 N masked block swaps, t = ((x >> s) ^ x) & mask; x ^= t ^ (t << s),
  with s = k (N - 1) for k = N/2, ..., 1, transpose every tile at once
  (H. S. Warren, *Hacker's Delight*, 2nd ed., section 7-3, "Transposing a
  bit matrix"). Rows are packed and read back through bytes. A square or
  wide matrix needs memory within a small factor of its own size; a tall
  one needs at most one 1024 * 1024 tile (128 KB) per band beyond that.
  The masks of every tile side, 8 to 1024, are kept, under 2 MB in all.
- `rank` runs only the forward pass of Gaussian elimination, which clears
  each pivot column below its pivot row and steps over each run of columns
  without a pivot in one jump. `kernel_basis` and `solve_linear` share that
  pass and add back-substitution, giving the reduced row echelon form.
  The pivot order is the same as in full elimination, and the reduced form
  is unique, so kernel bases and solutions are those of full elimination
  bit for bit.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ContractError, InternalInvariantError, InvalidMoveError

__all__ = [
    "F2Matrix",
    "check_adjacency",
    "rank",
    "kernel_basis",
    "span",
    "solve_linear",
    "central_submatrix",
    "mcds",
    "is_mcds_sortable",
    "mcds_distance",
]


def _mask_from_bits(bits: Iterable[int]) -> tuple[int, int]:
    mask = 0
    n = 0
    for b in bits:
        if b not in (0, 1):
            raise ContractError(f"GF(2) entries must be 0 or 1, got {b!r}")
        mask |= b << n
        n += 1
    return mask, n


# the columns j with j & s set, as one byte, for block sizes s below a byte
_LOW_PATTERN = {1: 0xAA, 2: 0xCC, 4: 0xF0}
# the largest tile side of the transpose
_TILE_CAP = 1024


@lru_cache(maxsize=None)
def _tile_rounds(side: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each round of the block-swap transpose of one tile.

    The round for block size s swaps the bit of weight s in the row index
    with the one in the column index: entry (i, j) with i & s clear and
    j & s set, at bit i * side + j of the tile, trades places with entry
    (i + s, j - s), which sits shift = s * (side - 1) bits higher. The masks
    are built from repeated bytes and kept for the process: every side up
    to _TILE_CAP takes under 2 MB in all.
    """
    width = side // 8
    rounds = []
    s = side // 2
    while s:
        if s < 8:
            row = bytes([_LOW_PATTERN[s]]) * width
        else:
            row = (bytes(s // 8) + b"\xff" * (s // 8)) * (side // (2 * s))
        block = row * s + bytes(width * s)
        mask = int.from_bytes(block * (side // (2 * s)), "little")
        rounds.append((s * (side - 1), mask))
        s //= 2
    return tuple(rounds)


def _block_swap(x: int, rounds: Iterable[tuple[int, int]]) -> int:
    """Transpose every tile packed in x, by the rounds of _tile_rounds."""
    for shift, mask in rounds:
        t = ((x >> shift) ^ x) & mask
        x ^= t ^ (t << shift)
    return x


def _check_mask(x: int, n: int) -> None:
    """Refuse x unless it is the mask of a vector of length n."""
    if x < 0 or x >> n:
        raise ContractError(f"bit mask {x:#x} does not fit in {n} bits")


class F2Matrix:
    """Immutable matrix over GF(2); each row is an int bitset."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: int | None = None):
        packed: list[int] = []
        width = ncols
        for row in rows:
            mask, n = _mask_from_bits(row)
            if width is None:
                width = n
            elif n != width:
                raise ContractError(f"ragged rows: {n} vs {width}")
            packed.append(mask)
        if width is None:
            raise ContractError("cannot infer column count of an empty matrix")
        object.__setattr__(self, "rows", tuple(packed))
        object.__setattr__(self, "nrows", len(packed))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("F2Matrix is immutable")

    @classmethod
    def from_row_bits(cls, rows: Iterable[int], ncols: int) -> "F2Matrix":
        m = cls.__new__(cls)
        packed = tuple(rows)
        if ncols < 0 or packed and (min(packed) < 0 or max(packed) >> ncols):
            raise ContractError("row mask does not fit the column count")
        object.__setattr__(m, "rows", packed)
        object.__setattr__(m, "nrows", len(packed))
        object.__setattr__(m, "ncols", ncols)
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "F2Matrix":
        return cls.from_row_bits([0] * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls.from_row_bits([1 << j for j in range(n)], n)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError(key)
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        bits = 0
        for i, r in enumerate(self.rows):
            bits |= ((r >> j) & 1) << i
        return bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def transpose(self) -> "F2Matrix":
        nrows, ncols = self.nrows, self.ncols
        if nrows > _TILE_CAP:
            # bands of _TILE_CAP rows, each transposed on its own; output
            # row j joins row j of every band's transpose
            cols = [0] * ncols
            for k in range(0, nrows, _TILE_CAP):
                band = F2Matrix.from_row_bits(self.rows[k : k + _TILE_CAP], ncols)
                cols = [c | (b << k) for c, b in zip(cols, band.transpose().rows)]
            return F2Matrix.from_row_bits(cols, nrows)
        # one row of square tiles side by side; tile k holds columns
        # k*side .. k*side + side - 1, so the output rows come out in order
        side = 8 if nrows <= 8 else 1 << (nrows - 1).bit_length()
        width = side // 8
        tiles = -(-ncols // side)
        full = tiles * width
        rows = [r.to_bytes(full, "little") for r in self.rows]
        rows += [bytes(full)] * (side - nrows)
        data = b"".join(
            [row[k : k + width] for k in range(0, full, width) for row in rows]
        )
        rounds = _tile_rounds(side)
        if tiles > 1:
            size = side * width
            rounds = (
                (shift, int.from_bytes(mask.to_bytes(size, "little") * tiles, "little"))
                for shift, mask in rounds
            )
        x = _block_swap(int.from_bytes(data, "little"), rounds)
        y = x.to_bytes(len(data), "little")
        cols = y[:ncols] if width == 1 else [
            int.from_bytes(y[k : k + width], "little")
            for k in range(0, ncols * width, width)
        ]
        return F2Matrix.from_row_bits(cols, nrows)

    def mat_vec(self, x: int) -> int:
        """The product of this matrix and the vector x, nrows bits long."""
        _check_mask(x, self.ncols)
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r & x).bit_count() & 1) << i
        return out

    def is_symmetric(self) -> bool:
        return self.is_square and self.rows == self.transpose().rows

    def is_zero_diagonal(self) -> bool:
        return self.is_square and all(
            not (r >> i) & 1 for i, r in enumerate(self.rows)
        )

    def is_eulerian_rows(self) -> bool:
        """True when every row has even weight."""
        return all(r.bit_count() % 2 == 0 for r in self.rows)

    def __repr__(self) -> str:
        body = ", ".join(
            repr([(r >> j) & 1 for j in range(self.ncols)]) for r in self.rows
        )
        return f"F2Matrix([{body}])"


def check_adjacency(m: F2Matrix, noun: str) -> None:
    """Refuse m unless it is square, symmetric and zero on the diagonal.

    The ContractError names the caller's noun and the first of the three
    properties that fails, in that order.
    """
    if not m.is_square:
        raise ContractError(f"{noun} must be square, got {m.nrows}x{m.ncols}")
    if not m.is_symmetric():
        raise ContractError(f"{noun} must be symmetric")
    if not m.is_zero_diagonal():
        raise ContractError(f"{noun} must have a zero diagonal")


def _forward(rows: Sequence[int], ncols: int) -> tuple[list[int], list[int]]:
    """Row echelon form by the forward pass; returns (pivot columns, rows).

    Pivots are chosen as the first nonzero column scanning left to right, rows
    scanned top down, so the result is deterministic. Only the rows below a
    pivot are cleared; the returned rows are the nonzero ones, in pivot order.

    The rows not yet used as pivots have no bit below the current column, so
    after a column without a pivot the pass jumps to the lowest bit of their
    OR, and a sparse or low-rank matrix costs O(rank) scans, not O(ncols).
    """
    pivots: list[int] = []
    work = list(rows)
    n = len(work)
    r = 0
    col = 0
    while col < ncols and r < n:
        bit = 1 << col
        for i in range(r, n):
            if work[i] & bit:
                break
        else:
            rest = 0
            for k in range(r, n):
                rest |= work[k]
            if not rest:
                break
            col = (rest & -rest).bit_length() - 1
            continue
        pivot = work[i]
        work[i] = work[r]
        work[r] = pivot
        r += 1
        for k in range(r, n):
            if work[k] & bit:
                work[k] ^= pivot
        pivots.append(col)
        col += 1
    return pivots, work[:r]


def _back_substitute(pivots: list[int], red: list[int]) -> None:
    """Clear each pivot column above its pivot row, in place.

    This turns the forward pass's rows into the reduced row echelon form,
    which is unique, so it does not depend on how the pivots were cleared.
    """
    for i in range(len(red) - 1, 0, -1):
        bit = 1 << pivots[i]
        pivot = red[i]
        for k in range(i):
            if red[k] & bit:
                red[k] ^= pivot


def rank(m: F2Matrix) -> int:
    """Rank of a matrix over GF(2)."""
    return len(_forward(m.rows, m.ncols)[0])


def kernel_basis(m: F2Matrix) -> list[int]:
    """Basis of the null space, one vector per free column, ascending."""
    ncols = m.ncols
    pivots, red = _forward(m.rows, ncols)
    _back_substitute(pivots, red)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        mask = 1 << f
        for i, p in enumerate(pivots):
            if (red[i] >> f) & 1:
                mask |= 1 << p
        basis.append(mask)
    return basis


def span(vectors: Iterable[int]) -> set[int]:
    """Every XOR of a subset of the vectors, 0 included: their span over
    GF(2). Dependent and zero vectors add nothing."""
    out = {0}
    for v in vectors:
        out |= {m ^ v for m in out}
    return out


def _solve_mask(rows: Sequence[int], ncols: int, rhs: int) -> int | None:
    # Eliminate on [A | b] with b stored at bit position ncols; a pivot in
    # that extra column means the system is inconsistent.
    aug = [r | (((rhs >> i) & 1) << ncols) for i, r in enumerate(rows)]
    pivots, red = _forward(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    _back_substitute(pivots, red)
    sol = 0
    for i, p in enumerate(pivots):
        if (red[i] >> ncols) & 1:
            sol |= 1 << p
    return sol


def solve_linear(m: F2Matrix, b: int) -> int | None:
    """One solution of m @ x = b, or None when the system is inconsistent.

    Free variables are set to 0, so the returned solution is deterministic.
    """
    _check_mask(b, m.nrows)
    return _solve_mask(m.rows, m.ncols, b)


def central_submatrix(m: F2Matrix, mode: str = "both") -> F2Matrix:
    """Drop the first and last rows and/or columns.

    mode is one of "rows", "cols", "both".
    """
    if mode not in ("rows", "cols", "both"):
        raise ContractError(f"unknown mode {mode!r}")
    rows = list(m.rows)
    ncols = m.ncols
    if mode in ("rows", "both"):
        if m.nrows < 2:
            raise ContractError("need at least 2 rows to take the central part")
        rows = rows[1:-1]
    if mode in ("cols", "both"):
        if ncols < 2:
            raise ContractError("need at least 2 columns to take the central part")
        inner = (1 << (ncols - 1)) - 2  # bits 1..ncols-2
        rows = [(r & inner) >> 1 for r in rows]
        ncols -= 2
    return F2Matrix.from_row_bits(rows, ncols)


def mcds(m: F2Matrix, p: int, q: int) -> F2Matrix:
    """Matrix context-directed swap at row/column indices p, q (0-based).

    Returns m + m @ e @ m over GF(2), where e has ones exactly at (p, q) and
    (q, p). Requires a square matrix, p != q, and m[p, q] == 1.
    """
    if not m.is_square:
        raise ContractError(f"mcds needs a square matrix, got {m.shape}")
    n = m.nrows
    if not (0 <= p < n and 0 <= q < n):
        raise ContractError(f"indices ({p}, {q}) out of range for size {n}")
    if p == q:
        raise InvalidMoveError("mcds needs two distinct indices")
    if not (m.rows[p] >> q) & 1:
        raise InvalidMoveError(f"entry ({p}, {q}) is 0; no context to swap on")
    row_p, row_q = m.rows[p], m.rows[q]
    out = []
    for r in m.rows:
        new = r
        if (r >> p) & 1:
            new ^= row_q
        if (r >> q) & 1:
            new ^= row_p
        out.append(new)
    return F2Matrix.from_row_bits(out, n)


def is_mcds_sortable(m: F2Matrix) -> bool:
    """Kernel criterion: some kernel vector starts with 1 and ends with 0,
    and some other starts with 0 and ends with 1.

    The projection of the kernel onto the (first, last) coordinate pair is
    spanned by the projections of any basis, so one kernel basis suffices;
    a projection holds the first coordinate in bit 0 and the last in bit 1.
    """
    if not m.is_square or m.nrows < 2:
        raise ContractError("sortability needs a square matrix of size >= 2")
    last = m.nrows - 1
    ends = span((v & 1) | ((v >> last) & 1) << 1 for v in kernel_basis(m))
    return {0b01, 0b10} <= ends


def mcds_distance(m: F2Matrix) -> int:
    """Number of swaps needed to sort: half the rank of the central part.

    Requires a symmetric, zero-diagonal square matrix of size >= 2. The
    central rank of such a matrix is always even; an odd value indicates a
    bug and raises InternalInvariantError.
    """
    check_adjacency(m, "matrix")
    if m.nrows < 2:
        raise ContractError(f"distance needs size >= 2, got {m.nrows}")
    r = rank(central_submatrix(m, "both"))
    if r % 2:
        raise InternalInvariantError(
            f"central rank {r} is odd for a symmetric zero-diagonal matrix"
        )
    return r // 2

