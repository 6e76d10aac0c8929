"""Two-rooted graphs, the graph swap move, parity cuts, and properties."""

from itertools import combinations

import pytest

from cdslab import f2, oracle_search, perms
from cdslab.errors import ContractError, InvalidMoveError, SizeLimitError
from cdslab.graphs import (
    RootedGraph,
    context_pairs,
    gcds,
    generalized_parity_cuts,
    has_property,
    is_eulerian,
    is_gcds_sortable,
)


def triangle() -> RootedGraph:
    # triangle on {1,2,3} with root 0 isolated; the derived graph of [1,3,2]
    return RootedGraph.from_edges(4, [(1, 2), (1, 3), (2, 3)])


def example_graph() -> RootedGraph:
    return perms.overlap_graph(perms.Permutation([3, 2, 5, 1, 4]))


def all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield RootedGraph.from_edges(
            n, [e for k, e in enumerate(pairs) if (mask >> k) & 1]
        )


class TestRootedGraph:
    def test_accessors(self):
        g = triangle()
        assert g.n == 4
        assert g.roots == (0, 3)
        assert g.degree(0) == 0 and g.degree(2) == 2
        assert g.has_edge(2, 3) and not g.has_edge(0, 1)
        assert g.edges() == ((1, 2), (1, 3), (2, 3))
        assert any(g.adjacency.rows)
        assert not any(RootedGraph.from_edges(2, []).adjacency.rows)

    def test_validation(self):
        with pytest.raises(ContractError):
            RootedGraph(f2.F2Matrix([[0, 1], [0, 0]]))  # not symmetric
        with pytest.raises(ContractError):
            RootedGraph(f2.F2Matrix([[1, 1], [1, 0]]))  # diagonal entry
        with pytest.raises(ContractError):
            RootedGraph.from_edges(3, [(0, 0)])
        with pytest.raises(ContractError):
            RootedGraph.from_edges(3, [(0, 3)])
        for repeat in ((0, 1), (1, 0)):
            with pytest.raises(ContractError, match="edge 3 of the list"):
                RootedGraph.from_edges(3, [(0, 1), (1, 2), repeat])

    def test_relabeling_moves_roots_to_the_ends(self):
        g = RootedGraph.from_edges(4, [(1, 2), (1, 3), (2, 3)], 1, 2)
        # roots 1 and 2 land on 0 and 3, and 0 and 3 keep their order as 1, 2
        assert g.roots == (0, 3)
        assert g.edges() == ((0, 2), (0, 3), (2, 3))
        for roots in ((2, 2), (0, 4), (-1, 3)):
            with pytest.raises(ContractError, match="two distinct vertices"):
                RootedGraph.from_edges(4, [], *roots)


class TestGcds:
    def test_contexts_are_adjacent_non_root_pairs(self):
        g = example_graph()
        assert context_pairs(g) == [(1, 2), (1, 4), (2, 3), (3, 4)]
        assert context_pairs(triangle()) == [(1, 2)]

    def test_matches_the_permutation_move(self):
        before = perms.Permutation([3, 2, 5, 1, 4])
        after = perms.apply_cds(before, 1, 4)
        assert gcds(example_graph(), 1, 4) == perms.overlap_graph(after)

    def test_sorts_the_triangle(self):
        out = gcds(triangle(), 1, 2)
        assert not any(out.adjacency.rows)

    def test_isolates_the_context(self):
        out = gcds(example_graph(), 1, 4)
        assert out.degree(1) == 0 and out.degree(4) == 0

    def test_rejects_bad_contexts(self):
        g = example_graph()
        with pytest.raises(InvalidMoveError):
            gcds(g, 0, 1)  # root
        with pytest.raises(InvalidMoveError):
            gcds(g, 2, 4)  # not adjacent
        with pytest.raises(InvalidMoveError):
            gcds(g, 3, 3)
        with pytest.raises(InvalidMoveError):
            gcds(g, 1, 6)

    def test_involution(self):
        g = example_graph()
        # the move isolates its context, so it cannot be undone by a move,
        # but applying the rule twice from scratch is consistent with once
        once = gcds(g, 1, 4)
        assert once != g
        assert gcds(g, 1, 4) == once


class TestSortability:
    def test_known_cases(self):
        assert is_gcds_sortable(triangle())
        assert not is_gcds_sortable(example_graph())
        assert is_gcds_sortable(RootedGraph.from_edges(2, []))

    def test_matches_bruteforce_exhaustively(self):
        for g in all_graphs(4):
            assert is_gcds_sortable(g) == oracle_search.gcds_sortable_bruteforce(g)

    def test_eulerian(self):
        assert is_eulerian(triangle())
        assert is_eulerian(example_graph())
        assert not is_eulerian(RootedGraph.from_edges(3, [(0, 1), (1, 2)]))


class TestParityCuts:
    def test_flavors_on_a_path(self):
        path = RootedGraph.from_edges(3, [(0, 1), (1, 2)])
        root_even = oracle_search.parity_cuts_bruteforce(path, "two_sided_root_even")
        generalized = oracle_search.parity_cuts_bruteforce(path, "generalized")
        rows = [
            (0, True, True),
            (0b101, False, True),
            (0b010, False, False),
        ]
        for cut, in_root_even, in_generalized in rows:
            assert (cut in root_even) == in_root_even
            assert (cut in generalized) == in_generalized
        with pytest.raises(ContractError):
            oracle_search.parity_cuts_bruteforce(path, "one_sided")

    def test_generalized_cuts_are_the_kernel(self):
        g = example_graph()
        cuts = generalized_parity_cuts(g)
        # the nontrivial proper cuts are the alternating cycles of the
        # source: {1, 3} and {0, 2, 4, 5}
        assert cuts == [0, 0b001010, 0b110101, 0b111111]
        for c in cuts:
            assert g.adjacency.mat_vec(c) == 0

    def test_generalized_cuts_match_scan(self):
        for g in all_graphs(4):
            assert generalized_parity_cuts(g) == oracle_search.parity_cuts_bruteforce(
                g, "generalized"
            )

    def test_size_limit(self):
        big = RootedGraph.from_edges(25, [])
        with pytest.raises(SizeLimitError):
            generalized_parity_cuts(big)


class TestProperties:
    def test_pinned_values(self):
        assert [has_property(triangle(), w) for w in "abc"] == [
            True,
            False,
            False,
        ]
        assert [has_property(example_graph(), w) for w in "abc"] == [
            False,
            False,
            True,
        ]
        with pytest.raises(ContractError):
            has_property(triangle(), "d")

    def test_eulerian_dichotomy(self):
        # Eulerian graphs have exactly one of a and c, and a means sortable
        for g in all_graphs(4):
            if not is_eulerian(g):
                continue
            a = has_property(g, "a")
            assert a != has_property(g, "c")
            assert a == is_gcds_sortable(g)
