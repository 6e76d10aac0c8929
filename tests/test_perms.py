"""Permutations, pointer contexts, swaps, piles, and derived graphs."""

import random
from itertools import permutations

import pytest

from cdslab import f2
from cdslab.errors import ContractError, InvalidMoveError
from cdslab.perms import (
    Permutation,
    alternating_cycle_vectors,
    apply_cds,
    cds_contexts,
    cycle_notation,
    is_cds_sortable,
    move_graph,
    overlap_graph,
    pointer_slots,
    precedence_matrix,
    sort_moves,
    strategic_pile,
)
from test_formats_cli import fresh_interpreter

EXAMPLE = Permutation([3, 2, 5, 1, 4])


def reference_sort_moves(pi):
    """The greedy loop that lists every context and applies the first."""
    moves = []
    cur = pi
    while True:
        ctx = cds_contexts(cur)
        if not ctx:
            break
        moves.append(ctx[0])
        cur = apply_cds(cur, *ctx[0])
    return moves if cur.is_identity else None


def seeded_permutations(n, seed):
    """Seeded uniform permutations of n, each tagged with its sortability."""
    rng = random.Random(seed)
    values = list(range(1, n + 1))
    while True:
        rng.shuffle(values)
        pi = Permutation(values)
        yield pi, is_cds_sortable(pi)


class TestPermutation:
    def test_basics(self):
        p = EXAMPLE
        assert p.n == 5
        assert list(p) == [3, 2, 5, 1, 4]
        assert p[0] == 3
        assert p.framed() == (0, 3, 2, 5, 1, 4, 6)
        assert p.positions()[5] == 3

    def test_validation(self):
        with pytest.raises(ContractError):
            Permutation([1, 1, 2])
        with pytest.raises(ContractError):
            Permutation([2, 3])
        with pytest.raises(ContractError):
            Permutation([0, 1])

    def test_identity(self):
        assert Permutation.identity(3) == Permutation([1, 2, 3])
        assert Permutation.identity(3).is_identity
        assert not EXAMPLE.is_identity

    def test_immutable(self):
        with pytest.raises(AttributeError):
            EXAMPLE.elements = (1, 2, 3, 4, 5)


class TestContexts:
    def test_slots(self):
        assert pointer_slots(Permutation([2, 1])) == ((0, 3), (1, 4), (2, 5))
        assert pointer_slots(EXAMPLE) == (
            (0, 7),
            (3, 8),
            (1, 4),
            (2, 9),
            (5, 10),
            (6, 11),
        )

    def test_contexts(self):
        assert cds_contexts(EXAMPLE) == [(1, 2), (1, 4), (2, 3), (3, 4)]
        assert cds_contexts(Permutation.identity(4)) == []
        # the single non-root pointer of [2,1] cannot pair with anything
        assert cds_contexts(Permutation([2, 1])) == []

    def test_apply(self):
        assert apply_cds(EXAMPLE, 1, 4) == Permutation([3, 4, 5, 1, 2])
        out = apply_cds(Permutation([1, 3, 2]), 1, 2)
        assert out.is_identity

    def test_apply_is_a_block_interchange(self):
        p = EXAMPLE
        for ctx in cds_contexts(p):
            out = apply_cds(p, *ctx)
            assert sorted(out) == [1, 2, 3, 4, 5]
            assert out != p

    def test_apply_rejects_roots(self):
        with pytest.raises(InvalidMoveError):
            apply_cds(EXAMPLE, 0, 2)
        with pytest.raises(InvalidMoveError):
            apply_cds(EXAMPLE, 1, 5)

    def test_apply_rejects_non_alternating(self):
        with pytest.raises(InvalidMoveError):
            apply_cds(EXAMPLE, 2, 4)


class TestCycles:
    def test_notation(self):
        note = cycle_notation(EXAMPLE)
        assert note.mapping == (5, 3, 0, 1, 2, 4)
        assert note.cycles == ((0, 5, 4, 2), (1, 3))

    def test_identity_mapping_is_all_fixed(self):
        note = cycle_notation(Permutation.identity(4))
        assert all(len(c) == 1 for c in note.cycles)


class TestStrategicPile:
    def test_example(self):
        pile = strategic_pile(EXAMPLE)
        assert isinstance(pile, tuple)
        assert pile == (4, 2)
        assert list(pile) == [4, 2]
        assert pile
        assert len(pile) == 2

    def test_matches_the_run_after_n_in_its_cycle(self):
        """The pile is the run of values after n up to 0 in the cycle of n
        from cycle_notation, and empty when that cycle has no 0."""
        for n in range(1, 8):
            for tup in permutations(range(1, n + 1)):
                p = Permutation(tup)
                cyc = next(c for c in cycle_notation(p).cycles if n in c)
                want = ()
                if 0 in cyc:
                    at = cyc.index(n)
                    after = cyc[at + 1 :] + cyc[:at]
                    want = after[: after.index(0)]
                pile = strategic_pile(p)
                assert pile == want
                assert len(pile) == len(want)
                assert bool(pile) == bool(want)

    def test_empty_iff_sortable(self):
        for tup in permutations(range(1, 6)):
            p = Permutation(tup)
            assert (not strategic_pile(p)) == is_cds_sortable(p)

    def test_known_values(self):
        assert is_cds_sortable(Permutation.identity(5))
        assert not is_cds_sortable(Permutation([2, 1]))
        assert is_cds_sortable(Permutation([1, 3, 2]))
        # one swap away from the example, yet unsortable: the pile survives
        assert not is_cds_sortable(Permutation([3, 4, 5, 1, 2]))

    def test_sortable_counts(self):
        for n, expected in ((1, 1), (2, 1), (3, 4), (4, 13), (5, 72)):
            got = sum(
                is_cds_sortable(Permutation(t))
                for t in permutations(range(1, n + 1))
            )
            assert got == expected


class TestSortMoves:
    def test_unsortable_returns_none(self):
        assert sort_moves(EXAMPLE) is None

    def test_identity_needs_nothing(self):
        assert sort_moves(Permutation.identity(4)) == []

    def test_two_move_sort(self):
        p = Permutation([1, 4, 2, 5, 3])
        moves = sort_moves(p)
        assert moves == [(1, 3), (2, 4)]
        for ctx in moves:
            p = apply_cds(p, *ctx)
        assert p.is_identity

    def test_replay_always_reaches_identity(self):
        for tup in permutations(range(1, 6)):
            p = Permutation(tup)
            moves = sort_moves(p)
            if moves is None:
                assert not is_cds_sortable(p)
                continue
            for ctx in moves:
                p = apply_cds(p, *ctx)
            assert p.is_identity

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_full_context_list_loop(self, n):
        for tup in permutations(range(1, n + 1)):
            p = Permutation(tup)
            assert sort_moves(p) == reference_sort_moves(p)

    @pytest.mark.parametrize("n,sortable", [(200, True), (200, False), (300, True)])
    def test_seeded_large_matches_the_full_context_list_loop(self, n, sortable):
        p = next(p for p, s in seeded_permutations(n, n) if s == sortable)
        moves = sort_moves(p)
        assert (moves is not None) == sortable
        assert moves == reference_sort_moves(p)

    def test_move_count_is_the_block_interchange_distance(self):
        # (n + 1 - c) / 2 block interchanges, with c the cycles of the
        # composed map; sort_moves fails exactly on a non-empty pile
        sortable = 0
        for n in range(1, 8):
            for tup in permutations(range(1, n + 1)):
                p = Permutation(tup)
                moves = sort_moves(p)
                assert (moves is None) == bool(strategic_pile(p))
                if moves is not None:
                    sortable += 1
                    cycles = len(cycle_notation(p).cycles)
                    assert len(moves) * 2 == n + 1 - cycles
        assert sortable == 1 + 1 + 4 + 13 + 72 + 390 + 2880

    def test_replay_at_n_1000(self):
        p = next(p for p, sortable in seeded_permutations(1000, 1000) if sortable)
        moves = sort_moves(p)
        assert moves is not None
        for ctx in moves:
            p = apply_cds(p, *ctx)
        assert p.is_identity


class TestDerivedGraphs:
    def test_overlap_graph_shape(self):
        g = overlap_graph(EXAMPLE)
        assert g.n == 6
        assert g.roots == (0, 5)
        assert g.has_edge(1, 4)
        assert not g.has_edge(0, 2)

    def test_overlap_edges_match_contexts(self):
        for tup in permutations(range(1, 6)):
            p = Permutation(tup)
            g = overlap_graph(p)
            edges = {
                (a, b)
                for a in range(1, p.n)
                for b in range(a + 1, p.n)
                if g.has_edge(a, b)
            }
            assert sorted(edges) == cds_contexts(p)

    def test_move_graph_is_the_non_root_block(self):
        mg = move_graph(EXAMPLE)
        assert mg == f2.central_submatrix(
            overlap_graph(EXAMPLE).adjacency, "both"
        )
        assert mg == f2.F2Matrix(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
        )

    def test_alternating_cycles(self):
        # the cycles {0, 2, 4, 5} and {1, 3}, listed by smallest member
        vectors = alternating_cycle_vectors(EXAMPLE)
        adj = overlap_graph(EXAMPLE).adjacency
        assert vectors == [0b110101, 0b001010]
        for u in vectors:
            assert adj.mat_vec(u) == 0
        for u in vectors:
            for v in vectors:
                if u != v:
                    assert (u & v).bit_count() % 2 == 0
        # on every small permutation: the cycles of the composed map, so
        # disjoint and covering the n+1 pointers, listed by smallest member
        for n in range(1, 7):
            for tup in permutations(range(1, n + 1)):
                p = Permutation(tup)
                vectors = alternating_cycle_vectors(p)
                want = sorted(
                    (sum(1 << v for v in c) for c in cycle_notation(p).cycles),
                    key=lambda mask: mask & -mask,
                )
                assert vectors == want
                assert sum(vectors) == (1 << (n + 1)) - 1

    def test_precedence_matrix(self):
        prec = precedence_matrix(Permutation([1, 3, 2]))
        assert prec == f2.F2Matrix(
            [
                [0, 1, 1, 1, 1],
                [0, 0, 1, 1, 1],
                [0, 0, 0, 0, 1],
                [0, 0, 1, 0, 1],
                [0, 0, 0, 0, 0],
            ]
        )
        # identity precedence is strictly upper triangular ones
        n = 3
        prec = precedence_matrix(Permutation.identity(n))
        for i in range(n + 2):
            for j in range(n + 2):
                assert prec[i, j] == (1 if i < j else 0)


class TestImports:
    def test_perms_loads_no_matrix_or_graph_code(self):
        code = (
            "import cdslab.perms, sys; print(sorted(m for m in sys.modules "
            "if m.startswith('cdslab.')))"
        )
        assert fresh_interpreter(code) == "['cdslab.errors', 'cdslab.perms']"
