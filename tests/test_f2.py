"""GF(2) vectors, matrices, elimination, and the matrix swap move."""

import pytest

from cdslab.errors import ContractError, InvalidMoveError
from cdslab.f2 import (
    F2Matrix,
    F2Vector,
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


class TestVector:
    def test_roundtrip(self):
        v = F2Vector([1, 0, 1, 1])
        assert list(v) == [1, 0, 1, 1]
        assert len(v) == 4
        assert v == F2Vector.from_bits(0b1101, 4)

    def test_entries_validated(self):
        with pytest.raises(ContractError):
            F2Vector([0, 2, 1])
        with pytest.raises(ContractError):
            F2Vector.from_bits(0b100, 2)

    def test_dot_xor_weight(self):
        u = F2Vector([1, 1, 0, 1])
        v = F2Vector([0, 1, 1, 1])
        assert u.dot(v) == 0
        assert (u ^ v) == F2Vector([1, 0, 1, 0])
        assert u.weight() == 3
        assert u.support() == (0, 1, 3)

    def test_complement(self):
        v = F2Vector([1, 0, 0, 1])
        assert v.complement() == F2Vector([0, 1, 1, 0])

    def test_unit_and_zeros(self):
        assert F2Vector.unit(3, 1) == F2Vector([0, 1, 0])
        assert F2Vector.zeros(3).weight() == 0
        with pytest.raises(ContractError):
            F2Vector.unit(3, 3)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            F2Vector([1]).dot(F2Vector([1, 0]))

    def test_immutable_and_hashable(self):
        v = F2Vector([1, 0])
        with pytest.raises(AttributeError):
            v.bits = 3
        assert len({v, F2Vector([1, 0]), F2Vector([0, 1])}) == 2


class TestMatrix:
    def test_shape_and_entries(self):
        m = example()
        assert m.shape == (6, 6)
        assert m[0, 1] == 1 and m[0, 2] == 0
        assert m.row(5) == F2Vector([1, 1, 0, 1, 1, 0])
        assert m.column(0) == F2Vector([0, 1, 0, 1, 1, 1])

    def test_from_row_bits(self):
        m = F2Matrix.from_row_bits([0b01, 0b10], 2)
        assert m == F2Matrix([[1, 0], [0, 1]])
        with pytest.raises(ContractError):
            F2Matrix.from_row_bits([0b100], 2)

    def test_ragged_rejected(self):
        with pytest.raises(ContractError):
            F2Matrix([[1, 0], [1]])

    def test_add_and_matmul(self):
        ident = F2Matrix.identity(6)
        m = example()
        assert m + m == F2Matrix.zeros(6, 6)
        assert ident @ m == m
        assert m @ F2Vector.unit(6, 2) == m.column(2)
        assert m.mat_vec([1, 0, 0, 0, 0, 0]) == m.column(0)

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
        for v in basis:
            assert m.mat_vec(v) == F2Vector.zeros(6)
        assert kernel_basis(F2Matrix.identity(3)) == []

    def test_solve(self):
        m = example()
        b = m.column(3)
        x = solve_linear(m, b)
        assert x is not None
        assert m.mat_vec(x) == b
        # the zero matrix only solves b = 0
        assert solve_linear(F2Matrix.zeros(2, 2), [1, 0]) is None

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
        assert out.row(1).weight() == 0
        assert out.row(4).weight() == 0
        assert out.is_symmetric() and out.is_zero_diagonal()
        assert rank(out) == rank(m) - 2

    def test_kernel_grows(self):
        m = example()
        out = mcds(m, 1, 4)
        zero = F2Vector.zeros(6)
        for v in kernel_basis(m):
            assert out.mat_vec(v) == zero
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
