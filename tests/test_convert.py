"""Adjacency/precedence conversions and move-graph realization."""

import math
import os
import random
import statistics
import time
from itertools import permutations

import pytest

from cdslab import convert, f2, formats, oracle_search, perms
from cdslab.errors import ContractError

DATA = os.path.join(os.path.dirname(__file__), "data")
EXAMPLE_8 = perms.Permutation([4, 5, 2, 6, 1, 7, 3, 8])


def golden(name: str) -> f2.F2Matrix:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return formats.parse_matrix(fh.read())


def random_symmetric(n: int, rng: random.Random) -> f2.F2Matrix:
    """A seeded symmetric zero-diagonal n x n matrix."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return f2.F2Matrix.from_row_bits(rows, n)


def reference_precedence(a: f2.F2Matrix) -> f2.F2Matrix:
    """The precedence matrix by its matrix definition, entry by entry: grow
    a by a 1 in a new top-left corner (a shifted down-right), add ones on
    the diagonal and the superdiagonal, then make entry (i, j) the XOR of
    the rectangle [0..i] x [0..j]."""
    size = a.nrows + 1
    z = [[0] * size for _ in range(size)]
    z[0][0] = 1
    for i in range(a.nrows):
        for j in range(a.nrows):
            z[i + 1][j + 1] = a[i, j]
    for i in range(size):
        z[i][i] ^= 1
        if i + 1 < size:
            z[i][i + 1] ^= 1
    out = [[0] * (size + 1) for _ in range(size + 1)]  # a zero row and column
    for i in range(size):
        for j in range(size):
            out[i + 1][j + 1] = z[i][j] ^ out[i][j + 1] ^ out[i + 1][j] ^ out[i][j]
    return f2.F2Matrix([row[1:] for row in out[1:]])


def reference_adjacency(p: f2.F2Matrix) -> f2.F2Matrix:
    """The inverse by definition: entry (i, j) is the XOR of the 2x2 window
    of p at (i, j), plus the diagonal and superdiagonal ones."""
    size = p.nrows - 1
    return f2.F2Matrix(
        [
            [
                p[i, j] ^ p[i + 1, j] ^ p[i, j + 1] ^ p[i + 1, j + 1] ^ (j in (i, i + 1))
                for j in range(size)
            ]
            for i in range(size)
        ]
    )


class TestRoundtrip:
    def test_golden_example(self):
        adjacency = golden("overlap_9.txt")
        precedence = golden("precedence_10.txt")
        assert perms.overlap_graph(EXAMPLE_8).adjacency == adjacency
        assert perms.precedence_matrix(EXAMPLE_8) == precedence
        assert convert.adjacency_to_precedence(adjacency) == precedence
        assert convert.precedence_to_adjacency(precedence) == adjacency

    def test_all_small_permutations(self):
        for n in range(1, 6):
            for tup in permutations(range(1, n + 1)):
                pi = perms.Permutation(tup)
                a = perms.overlap_graph(pi).adjacency
                p = convert.adjacency_to_precedence(a)
                assert p == perms.precedence_matrix(pi)
                assert convert.precedence_to_adjacency(p) == a
                assert convert.permutation_from_precedence(p) == pi

    def test_matches_the_definition_on_random_matrices(self):
        rng = random.Random("convert")
        for n in (1, 2, 3, 5, 8, 13, 40, 200):
            a = random_symmetric(n, rng)
            p = convert.adjacency_to_precedence(a)
            assert p == reference_precedence(a)
            assert convert.precedence_to_adjacency(p) == a
            # prec2adj takes any square matrix of size >= 2
            q = f2.F2Matrix.from_row_bits(
                [rng.getrandbits(n + 1) for _ in range(n + 1)], n + 1
            )
            assert convert.precedence_to_adjacency(q) == reference_adjacency(q)

    def test_rejects_non_adjacency(self):
        with pytest.raises(ContractError):
            convert.adjacency_to_precedence(f2.F2Matrix([[0, 1], [0, 0]]))
        with pytest.raises(ContractError):
            convert.precedence_to_adjacency(f2.F2Matrix([[0]]))


def is_tournament_with_distinct_scores(c: f2.F2Matrix) -> bool:
    """The reference definition of a precedence matrix: zero diagonal,
    exactly one of (i,j)/(j,i) set for i != j, and the integer row sums a
    permutation of 0..n-1."""
    if not c.is_square or not c.is_zero_diagonal():
        return False
    n = c.nrows
    for i in range(n):
        for j in range(i + 1, n):
            if c[i, j] == c[j, i]:
                return False
    return sorted(r.bit_count() for r in c.rows) == list(range(n))


class TestPrecedencePredicate:
    def test_matches_definition_on_every_small_matrix(self):
        for n in range(1, 5):
            for bits in range(1 << (n * n)):
                c = f2.F2Matrix.from_row_bits(
                    [(bits >> (n * i)) & ((1 << n) - 1) for i in range(n)], n
                )
                assert convert.is_precedence_matrix(
                    c
                ) == is_tournament_with_distinct_scores(c)

    def test_accepts_permutation_matrices(self):
        for tup in permutations(range(1, 5)):
            p = perms.precedence_matrix(perms.Permutation(tup))
            assert convert.is_precedence_matrix(p)

    def test_rejects_broken_matrices(self):
        good = perms.precedence_matrix(EXAMPLE_8)
        assert convert.is_precedence_matrix(good)
        # symmetric pair both set
        bad = f2.F2Matrix.from_row_bits(good.rows[:9] + (good.rows[9] ^ 1,), 10)
        assert not convert.is_precedence_matrix(bad)
        assert not convert.is_precedence_matrix(f2.F2Matrix([[0, 1]]))
        # a cyclic "order": pairwise antisymmetric but not a total order
        cyc = f2.F2Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert not convert.is_precedence_matrix(cyc)

    def test_unframed_order_rejected(self):
        # a genuine total order that does not start at 0: row sums say the
        # framed walk begins elsewhere
        p = perms.precedence_matrix(perms.Permutation([2, 1]))
        flipped = p.transpose()
        assert convert.is_precedence_matrix(flipped)
        with pytest.raises(ContractError):
            convert.permutation_from_precedence(flipped)


def _reference_realize(m: f2.F2Matrix) -> perms.Permutation | None:
    """Reference for realize_move_graph: every candidate adjacency is built
    in full, in (i, x) order, and goes through the public, checked
    conversions; the first verified witness wins."""
    k = m.nrows
    n = k + 1
    mu = m.mat_vec((1 << k) - 1)
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
            cand = f2.F2Matrix.from_row_bits(rows, n + 1)
            try:
                pi = convert.permutation_from_precedence(
                    convert.adjacency_to_precedence(cand)
                )
            except ContractError:
                continue
            if perms.move_graph(pi) == m:
                return pi
    return None


def flip_one_pair(m: f2.F2Matrix, rng: random.Random) -> f2.F2Matrix:
    """m with one random off-diagonal pair flipped, as the benchmark's M'."""
    i, j = rng.sample(range(m.nrows), 2)
    rows = list(m.rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return f2.F2Matrix.from_row_bits(rows, m.nrows)


def seeded_move_graphs(n: int, count: int, seed: str):
    """(M, M') pairs: the move graph of a seeded permutation of n, and M
    with one pair flipped."""
    rng = random.Random(seed)
    for _ in range(count):
        elements = list(range(1, n + 1))
        rng.shuffle(elements)
        m = perms.move_graph(perms.Permutation(elements))
        yield m, flip_one_pair(m, rng)


class TestRealize:
    def test_matches_the_reference_on_every_small_matrix(self):
        for k in range(1, 6):
            for rows in oracle_search.graph_rows(k):
                m = f2.F2Matrix.from_row_bits(rows, k)
                assert convert.realize_move_graph(m) == _reference_realize(m)

    def test_matches_the_reference_at_larger_n(self):
        for n in (16, 32, 64, 100):
            for m, flipped in seeded_move_graphs(n, 3, f"realize:{n}"):
                witness = convert.realize_move_graph(m)
                assert witness is not None
                assert witness == _reference_realize(m)
                assert convert.realize_move_graph(flipped) == _reference_realize(
                    flipped
                )

    def test_large_inputs(self):
        (m, flipped), = seeded_move_graphs(400, 1, "realize:400")
        witness = convert.realize_move_graph(m)
        assert witness is not None and perms.move_graph(witness) == m
        answer = convert.realize_move_graph(flipped)
        assert answer is None or perms.move_graph(answer) == flipped

    def test_roundtrip_on_derived_graphs(self):
        for tup in permutations(range(1, 6)):
            pi = perms.Permutation(tup)
            m = perms.move_graph(pi)
            witness = convert.realize_move_graph(m)
            assert witness is not None
            assert perms.move_graph(witness) == m

    def test_unrealizable(self):
        # a path centered on the first vertex admits no witness
        m = f2.F2Matrix([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert convert.realize_move_graph(m) is None

    def test_witness_for_the_edgeless_instance(self):
        m = f2.F2Matrix.zeros(3, 3)
        witness = convert.realize_move_graph(m)
        assert witness == perms.Permutation([2, 3, 4, 1])

    def test_runtime_grows_polynomially(self):
        rng = random.Random(11)
        sizes = (8, 16, 32, 64)
        medians = []
        for k in sizes:
            repeats = []
            for _ in range(5):
                elements = list(range(1, k))
                rng.shuffle(elements)
                m = perms.move_graph(perms.Permutation(elements))
                t0 = time.perf_counter()
                witness = convert.realize_move_graph(m)
                repeats.append(time.perf_counter() - t0)
                assert witness is not None
                assert perms.move_graph(witness) == m
            medians.append(statistics.median(repeats))
        xs = [math.log2(k) for k in sizes]
        ys = [math.log2(t) for t in medians]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = sum(
            (x - xbar) * (y - ybar) for x, y in zip(xs, ys)
        ) / sum((x - xbar) ** 2 for x in xs)
        assert slope < 6.0, f"runtime exponent {slope:.2f} looks superpolynomial"
