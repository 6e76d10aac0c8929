"""GF(2) matrices, elimination, and the matrix swap move."""

import functools
import random
import time

import pytest

from cdslab.counting import block_construct
from cdslab.errors import ContractError, InvalidMoveError
from cdslab.f2 import (
    F2Matrix,
    central_submatrix,
    is_mcds_sortable,
    kernel_basis,
    mcds,
    mcds_distance,
    rank,
    solve_linear,
)

# adjacency matrix of the pointer-interleaving graph of [3, 2, 5, 1, 4]
EXAMPLE_ROWS = (
    (0, 1, 0, 1, 1, 1),
    (1, 0, 1, 0, 1, 1),
    (0, 1, 0, 1, 0, 0),
    (1, 0, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 1),
    (1, 1, 0, 1, 1, 0),
)


def example() -> F2Matrix:
    return F2Matrix(EXAMPLE_ROWS)


class TestMatrix:
    def test_shape_and_entries(self):
        m = example()
        assert m.shape == (6, 6)
        assert m[0, 1] == 1 and m[0, 2] == 0
        assert m.rows[5] == 0b011011
        assert m.column(0) == 0b111010
        assert repr(F2Matrix([[0, 1], [1, 1]])) == "F2Matrix([[0, 1], [1, 1]])"

    def test_from_row_bits(self):
        m = F2Matrix.from_row_bits([0b01, 0b10], 2)
        assert m == F2Matrix([[1, 0], [0, 1]])
        with pytest.raises(ContractError):
            F2Matrix.from_row_bits([0b100], 2)

    def test_ragged_rejected(self):
        with pytest.raises(ContractError):
            F2Matrix([[1, 0], [1]])

    def test_add_and_matmul(self):
        # matrix-vector products; the sum of two vectors is their XOR
        ident = F2Matrix.identity(6)
        m = example()
        for j in range(6):
            assert ident.mat_vec(1 << j) == 1 << j
            assert m.mat_vec(1 << j) == m.column(j)
        assert m.mat_vec(0b11) == m.column(0) ^ m.column(1)

    def test_masks_that_do_not_fit_are_refused(self):
        wide = F2Matrix.zeros(2, 3)
        center = F2Matrix([[0, 1], [1, 0]])
        for bad in (-1, 0b1000):
            with pytest.raises(ContractError, match="does not fit in 3 bits"):
                wide.mat_vec(bad)
        for bad in (-1, 0b100):
            with pytest.raises(ContractError, match="does not fit in 2 bits"):
                solve_linear(wide, bad)
            with pytest.raises(ContractError, match="does not fit in 2 bits"):
                block_construct(center, bad, 0)
            with pytest.raises(ContractError, match="does not fit in 2 bits"):
                block_construct(center, 0, bad)
        # the widest masks that fit are accepted
        assert wide.mat_vec(0b111) == 0
        assert solve_linear(wide, 0b11) is None
        assert block_construct(center, 0b11, 0b11).shape == (4, 4)

    def test_transpose_and_predicates(self):
        m = example()
        assert m.transpose() == m
        assert m.is_symmetric()
        assert m.is_zero_diagonal()
        assert not F2Matrix([[0, 1], [0, 0]]).is_symmetric()
        assert not F2Matrix([[1]]).is_zero_diagonal()

    def test_eulerian_rows(self):
        assert example().is_eulerian_rows()
        assert not F2Matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]]).is_eulerian_rows()


class TestElimination:
    def test_rank(self):
        assert rank(F2Matrix.identity(4)) == 4
        assert rank(F2Matrix.zeros(3, 5)) == 0
        assert rank(example()) == 4
        m = F2Matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert rank(m) == 2
        assert rank(m.transpose()) == 2

    def test_kernel(self):
        m = example()
        basis = kernel_basis(m)
        assert len(basis) == 6 - rank(m)
        assert basis == [0b001010, 0b110101]
        for v in basis:
            assert m.mat_vec(v) == 0
        assert kernel_basis(F2Matrix.identity(3)) == []

    def test_solve(self):
        m = example()
        b = m.column(3)
        x = solve_linear(m, b)
        assert x is not None
        assert m.mat_vec(x) == b
        # the zero matrix only solves b = 0
        assert solve_linear(F2Matrix.zeros(2, 2), 0b01) is None
        assert solve_linear(F2Matrix.zeros(2, 2), 0) == 0

    def test_central_submatrix_modes(self):
        m = F2Matrix([[0, 1, 0, 1], [1, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 0]])
        assert central_submatrix(m, "both") == F2Matrix([[0, 1], [1, 0]])
        assert central_submatrix(m, "rows") == F2Matrix(
            [[1, 0, 1, 1], [0, 1, 0, 0]]
        )
        assert central_submatrix(m, "cols") == F2Matrix(
            [[1, 0], [0, 1], [1, 0], [1, 0]]
        )
        with pytest.raises(ContractError):
            central_submatrix(m, "middle")


class TestMcds:
    def test_rows_zeroed_and_symmetric(self):
        m = example()
        out = mcds(m, 1, 4)
        assert out.rows[1] == 0
        assert out.rows[4] == 0
        assert out.is_symmetric() and out.is_zero_diagonal()
        assert rank(out) == rank(m) - 2

    def test_kernel_grows(self):
        m = example()
        out = mcds(m, 1, 4)
        for v in kernel_basis(m):
            assert out.mat_vec(v) == 0
        assert len(kernel_basis(out)) == len(kernel_basis(m)) + 2

    def test_requires_unit_entry(self):
        m = example()
        with pytest.raises(InvalidMoveError):
            mcds(m, 0, 2)  # entry is 0
        with pytest.raises(InvalidMoveError):
            mcds(m, 3, 3)

    def test_index_bounds(self):
        with pytest.raises(ContractError):
            mcds(example(), 0, 6)

    def test_sortable_decision(self):
        # [3,2,5,1,4] has a nonempty strategic pile, so its graph is stuck
        assert not is_mcds_sortable(example())
        # edgeless graphs are already sorted
        assert is_mcds_sortable(F2Matrix.zeros(3, 3))
        # triangle on a root, a middle vertex, and the other root: [2,1]
        assert not is_mcds_sortable(F2Matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        # triangle on the non-root side of an isolated root: [1,3,2]
        assert is_mcds_sortable(
            F2Matrix(
                [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
            )
        )

    def test_distance(self):
        m = example()
        assert mcds_distance(m) == 1
        assert mcds_distance(m) == rank(central_submatrix(m, "both")) // 2
        assert mcds_distance(F2Matrix.zeros(4, 4)) == 0


# The per-bit kernels that the word-parallel ones replaced, kept as references.


def reference_transpose(rows, ncols):
    cols = [0] * ncols
    for i, r in enumerate(rows):
        while r:
            j = (r & -r).bit_length() - 1
            cols[j] |= 1 << i
            r &= r - 1
    return cols


def reference_eliminate(rows, ncols):
    """Reduced row echelon form by full elimination at every pivot."""
    pivots = []
    work = list(rows)
    r = 0
    for col in range(ncols):
        sel = -1
        for i in range(r, len(work)):
            if (work[i] >> col) & 1:
                sel = i
                break
        if sel < 0:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return pivots, work[:r]


# Kernel bases and solutions depend only on the row space of the matrix (of
# the augmented matrix, for a solution), not on the row order, so the
# exhaustive test memoizes the references on the sorted rows.


def reference_kernel(rows, ncols):
    return _reference_kernel(tuple(sorted(rows)), ncols)


@functools.lru_cache(maxsize=None)
def _reference_kernel(rows, ncols):
    pivots, red = reference_eliminate(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        mask = 1 << f
        for i, p in enumerate(pivots):
            if (red[i] >> f) & 1:
                mask |= 1 << p
        basis.append(mask)
    return basis


def reference_solve(rows, ncols, rhs):
    aug = [r | (((rhs >> i) & 1) << ncols) for i, r in enumerate(rows)]
    return _reference_solve(tuple(sorted(aug)), ncols)


@functools.lru_cache(maxsize=None)
def _reference_solve(aug, ncols):
    pivots, red = reference_eliminate(aug, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    sol = 0
    for i, p in enumerate(pivots):
        if (red[i] >> ncols) & 1:
            sol |= 1 << p
    return sol


def assert_matches_references(rows, ncols, rhs_values):
    m = F2Matrix.from_row_bits(rows, ncols)
    assert list(m.transpose().rows) == reference_transpose(rows, ncols)
    basis = reference_kernel(rows, ncols)
    assert rank(m) == ncols - len(basis)
    assert kernel_basis(m) == basis
    for rhs in rhs_values:
        assert solve_linear(m, rhs) == reference_solve(rows, ncols, rhs)


class TestWordParallelKernels:
    def test_every_matrix_up_to_4x4(self):
        for nrows in range(1, 5):
            for ncols in range(1, 5):
                width = (1 << ncols) - 1
                family = [
                    [(bits >> (i * ncols)) & width for i in range(nrows)]
                    for bits in range(1 << (nrows * ncols))
                ]
                ms = [F2Matrix.from_row_bits(rows, ncols) for rows in family]
                assert [list(m.transpose().rows) for m in ms] == [
                    reference_transpose(rows, ncols) for rows in family
                ]
                bases = [reference_kernel(rows, ncols) for rows in family]
                assert [rank(m) for m in ms] == [ncols - len(b) for b in bases]
                if nrows * ncols == 16:
                    # every row multiset once, which keeps the test inside
                    # its time budget; rank covered every row order above
                    pick = [k for k, rows in enumerate(family) if rows == sorted(rows)]
                    family = [family[k] for k in pick]
                    ms = [ms[k] for k in pick]
                    bases = [bases[k] for k in pick]
                assert [kernel_basis(m) for m in ms] == bases
                # bit i of the right-hand side says whether row i is at most 4:
                # a rule on each row alone keeps the reference memo small, and
                # as it is not linear, a third of the systems are inconsistent
                rhs = [
                    sum((r <= 4) << i for i, r in enumerate(rows)) for rows in family
                ]
                assert [solve_linear(m, b) for m, b in zip(ms, rhs)] == [
                    reference_solve(rows, ncols, b) for rows, b in zip(family, rhs)
                ]

    def test_seeded_shapes_up_to_300(self):
        rng = random.Random(14)
        shapes = [(1, 1), (1, 300), (300, 1), (2, 3), (7, 9), (8, 8), (9, 7)]
        shapes += [(16, 17), (33, 31), (64, 64), (65, 100), (100, 65)]
        shapes += [(127, 128), (129, 255), (255, 129), (200, 300), (300, 300)]
        for nrows, ncols in shapes:
            # low rank, so kernels are wide and half the systems inconsistent
            rank_at_most = max(1, min(nrows, ncols) // 3)
            base = [rng.getrandbits(ncols) for _ in range(rank_at_most)]
            rows = []
            for _ in range(nrows):
                r = 0
                for b in base:
                    if rng.getrandbits(1):
                        r ^= b
                rows.append(r)
            solvable = F2Matrix.from_row_bits(rows, ncols).mat_vec(
                rng.getrandbits(ncols)
            )
            rhs_values = [solvable, rng.getrandbits(nrows)]
            assert_matches_references(rows, ncols, rhs_values)
            dense = [rng.getrandbits(ncols) for _ in range(nrows)]
            t = F2Matrix.from_row_bits(dense, ncols).transpose()
            assert list(t.rows) == reference_transpose(dense, ncols)

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_large_transpose_by_its_own_rules(self, n):
        rng = random.Random(n)
        m = F2Matrix.from_row_bits([rng.getrandbits(n) for _ in range(n)], n)
        t = m.transpose()
        assert t.transpose() == m
        for _ in range(500):
            i, j = rng.randrange(n), rng.randrange(n)
            assert t[j, i] == m[i, j]

    @pytest.mark.parametrize("shape", [(1100, 1100), (2100, 1030)])
    def test_sides_past_the_tile_cap_cut_into_a_grid(self, shape):
        nrows, ncols = shape
        rng = random.Random(nrows * ncols)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        m = F2Matrix.from_row_bits(rows, ncols)
        t = m.transpose()
        assert t.shape == (ncols, nrows)
        assert t.transpose() == m
        # both sides of the first band's edge, the corners, then random entries
        edge = [(i, j) for i in (0, 1023, 1024, nrows - 1) for j in (0, ncols - 1)]
        rand = [(rng.randrange(nrows), rng.randrange(ncols)) for _ in range(500)]
        for i, j in edge + rand:
            assert t[j, i] == m[i, j]

    @pytest.mark.parametrize(
        "shape", [(1024, 5), (1025, 3), (1023, 1025), (2049, 70), (0, 5), (5, 0)]
    )
    def test_shapes_at_the_band_edges(self, shape):
        nrows, ncols = shape
        rng = random.Random(nrows * 4099 + ncols)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        m = F2Matrix.from_row_bits(rows, ncols)
        t = m.transpose()
        assert t.shape == (ncols, nrows)
        assert list(t.rows) == reference_transpose(rows, ncols)
        assert t.transpose() == m

    @pytest.mark.parametrize("shape", [(1, 100000), (100000, 1), (3, 70)])
    def test_thin_shapes_tile_by_the_short_side(self, shape):
        nrows, ncols = shape
        rng = random.Random(nrows)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        m = F2Matrix.from_row_bits(rows, ncols)
        start = time.perf_counter()
        t = m.transpose()
        assert time.perf_counter() - start < 1.0
        assert t.shape == (ncols, nrows)
        # column j of the row texts, read back as a row
        text = [format(r, f"0{ncols}b")[::-1] for r in rows]
        assert list(t.rows) == [int("".join(col)[::-1], 2) for col in zip(*text)]
