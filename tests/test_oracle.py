"""Brute-force oracles: search, census, scans, and realization tables."""

import random
from itertools import combinations, permutations

import pytest

from cdslab import f2, graphs, oracle, perms
from cdslab.errors import ContractError, SizeLimitError

EXAMPLE = perms.Permutation([3, 2, 5, 1, 4])


def triangle() -> graphs.RootedGraph:
    return graphs.RootedGraph.from_edges(4, [(1, 2), (1, 3), (2, 3)])


def consistent(equations: list[int], n: int) -> bool:
    """Solvability of a GF(2) system; bit n of each equation is its rhs."""
    rhs_bit = 1 << n
    basis: dict[int, int] = {}
    for eq in equations:
        cur = eq
        while cur & (rhs_bit - 1):
            lead = (cur & (rhs_bit - 1)).bit_length() - 1
            other = basis.get(lead)
            if other is None:
                basis[lead] = cur
                cur = 0
                break
            cur ^= other
        if cur == rhs_bit:
            return False
    return True


def kernel_reaches_ends(rows: tuple[int, ...], n: int) -> bool:
    """The census criterion graph by graph, as two feasibility problems:
    some kernel vector is 1 at the first root and 0 at the last, and some
    other is 0 at the first and 1 at the last. The bit-sliced census is
    checked against this reference."""
    first, last, rhs = 1, 1 << (n - 1), 1 << n
    base = list(rows)
    return consistent(base + [first | rhs, last], n) and consistent(
        base + [first, last | rhs], n
    )


def lane_verdicts(n: int, lo: int) -> tuple[int, int, int]:
    """(lanes, sortable mask, even-degree mask) of the census block at lo."""
    bits = min(oracle.CENSUS_BLOCK_BITS, n * (n - 1) // 2)
    sortable, even = oracle._block_lanes(n, lo, oracle._lane_patterns(bits))
    return 1 << bits, sortable, even


def is_even(rows: tuple[int, ...]) -> bool:
    return not any(r.bit_count() & 1 for r in rows)


class TestSearch:
    def test_pinned_permutations(self):
        assert not oracle.cds_sortable_bruteforce(EXAMPLE)
        assert oracle.cds_sortable_bruteforce(perms.Permutation([1, 3, 2]))
        assert oracle.cds_sortable_bruteforce(perms.Permutation.identity(3))

    def test_matches_pile_criterion(self):
        for n in range(1, 6):
            for tup in permutations(range(1, n + 1)):
                p = perms.Permutation(tup)
                assert oracle.cds_sortable_bruteforce(p) == perms.is_cds_sortable(p)

    def test_search_stats(self):
        sortable = oracle.gcds_sortable_search(triangle())
        assert sortable.result is True
        assert sortable.max_depth >= 1

    def test_graph_search_matches_permutation_search(self):
        for tup in permutations(range(1, 5)):
            p = perms.Permutation(tup)
            assert oracle.gcds_sortable_bruteforce(
                perms.overlap_graph(p)
            ) == oracle.cds_sortable_bruteforce(p)

    def test_size_limits(self):
        with pytest.raises(SizeLimitError):
            oracle.cds_sortable_bruteforce(perms.Permutation.identity(9))
        with pytest.raises(SizeLimitError):
            oracle.gcds_sortable_bruteforce(graphs.RootedGraph.from_edges(9, []))
        with pytest.raises(SizeLimitError):
            oracle.gcds_fixed_point_profile(graphs.RootedGraph.from_edges(9, []))


class TestProfile:
    def test_pinned_profiles(self):
        assert oracle.gcds_fixed_point_profile(triangle()) == {(1, True)}
        og = perms.overlap_graph(EXAMPLE)
        assert oracle.gcds_fixed_point_profile(og) == {(1, False)}
        edgeless = graphs.RootedGraph.from_edges(3, [])
        assert oracle.gcds_fixed_point_profile(edgeless) == {(0, True)}

    def test_length_is_the_distance(self):
        for tup in permutations(range(1, 6)):
            g = perms.overlap_graph(perms.Permutation(tup))
            profile = oracle.gcds_fixed_point_profile(g)
            lengths = {length for length, _ in profile}
            assert lengths == {f2.mcds_distance(g.adjacency)}


class TestCensus:
    def test_pinned_counts(self):
        assert oracle.census_bruteforce(4) == 17
        assert oracle.census_bruteforce(4, eulerian=True) == 5
        assert oracle.census_bruteforce(5) == 113

    def test_pinned_counts_at_the_limit(self):
        """At n = 7 the 2^21 edge masks span 512 lane blocks."""
        assert oracle.census_bruteforce(7) == 224689
        assert oracle.census_bruteforce(7, eulerian=True) == 14509

    def test_lanes_match_the_scalar_criterion(self):
        for n in range(2, 7):
            total = 1 << (n * (n - 1) // 2)
            lanes = lane_verdicts(n, 0)[0]
            for lo in range(0, total, lanes):
                _, sortable, even = lane_verdicts(n, lo)
                for i, rows in enumerate(oracle.graph_rows(n, lo, lo + lanes)):
                    assert (sortable >> i) & 1 == kernel_reaches_ends(rows, n)
                    assert (even >> i) & 1 == is_even(rows)

    def test_lanes_match_the_move_search(self):
        for n in range(2, 6):
            _, sortable, _ = lane_verdicts(n, 0)
            for i, rows in enumerate(oracle.graph_rows(n)):
                g = graphs.RootedGraph(f2.F2Matrix.from_row_bits(rows, n))
                assert (sortable >> i) & 1 == oracle.gcds_sortable_bruteforce(g)

    def test_lanes_match_the_scalar_criterion_at_n7(self):
        rng = random.Random(7)
        lanes = 1 << oracle.CENSUS_BLOCK_BITS
        blocks = {}
        for _ in range(2000):
            mask = rng.getrandbits(21)
            lo = mask - mask % lanes
            if lo not in blocks:
                blocks[lo] = lane_verdicts(7, lo)
            _, sortable, even = blocks[lo]
            (rows,) = oracle.graph_rows(7, mask, mask + 1)
            assert (sortable >> (mask - lo)) & 1 == kernel_reaches_ends(rows, 7)
            assert (even >> (mask - lo)) & 1 == is_even(rows)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            oracle.census_bruteforce(8)


class TestGraphRows:
    def test_bit_k_selects_the_kth_pair(self):
        for n in range(0, 6):
            pairs = list(combinations(range(n), 2))
            listed = list(oracle.graph_rows(n))
            assert len(listed) == 1 << len(pairs)
            for mask, rows in enumerate(listed):
                edges = {
                    (u, v)
                    for u in range(n)
                    for v in range(n)
                    if (rows[u] >> v) & 1
                }
                want = {pairs[k] for k in range(len(pairs)) if (mask >> k) & 1}
                assert edges == want | {(v, u) for u, v in want}

    def test_mask_range(self):
        everything = list(oracle.graph_rows(4))
        assert list(oracle.graph_rows(4, 5, 9)) == everything[5:9]
        assert list(oracle.graph_rows(4, 60)) == everything[60:]


class TestCutScan:
    def test_bad_flavor_and_size(self):
        with pytest.raises(ContractError):
            oracle.parity_cuts_bruteforce(triangle(), "sideways")
        with pytest.raises(SizeLimitError):
            oracle.parity_cuts_bruteforce(
                graphs.RootedGraph.from_edges(17, []), "generalized"
            )


class TestRealization:
    def test_move_graph_matches_library(self):
        for n in range(2, 8):
            for tup in permutations(range(1, n + 1)):
                p = perms.Permutation(tup)
                assert oracle.move_graph_bruteforce(p) == perms.move_graph(p)

    @pytest.mark.parametrize("n", [200, 300])
    def test_bit_rows_match_definitions_at_large_n(self, n):
        rng = random.Random(n)
        values = list(range(1, n + 1))
        rng.shuffle(values)
        p = perms.Permutation(values)
        brute = oracle.move_graph_bruteforce(p)
        assert perms.move_graph(p) == brute
        contexts = perms.cds_contexts(p)
        assert contexts == [
            (a + 1, b + 1)
            for a in range(n - 1)
            for b in range(a + 1, n - 1)
            if brute[a, b]
        ]
        g = perms.overlap_graph(p)
        for a, b in rng.sample(contexts, 3):
            moved = graphs.gcds(g, a, b).adjacency.rows
            assert moved == oracle.gcds_move(g.adjacency.rows, a, b)

    def test_first_witness_is_lexicographic(self):
        found = oracle.realizable_bruteforce(f2.F2Matrix.zeros(3, 3))
        assert found == perms.Permutation([1, 2, 3, 4])

    def test_realizable_count_is_factorial(self):
        import math

        from itertools import combinations

        for k in (2, 3, 4):
            pairs = list(combinations(range(k), 2))
            realizable = 0
            for mask in range(1 << len(pairs)):
                rows = [0] * k
                for bit, (u, v) in enumerate(pairs):
                    if (mask >> bit) & 1:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                m = f2.F2Matrix.from_row_bits(rows, k)
                if oracle.realizable_bruteforce(m) is not None:
                    realizable += 1
            assert realizable == math.factorial(k)

    def test_unrealizable_instance(self):
        m = f2.F2Matrix([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert oracle.realizable_bruteforce(m) is None

    def test_validation(self):
        with pytest.raises(ContractError):
            oracle.realizable_bruteforce(f2.F2Matrix([[0, 1], [0, 0]]))
        with pytest.raises(SizeLimitError):
            oracle.realizable_bruteforce(f2.F2Matrix.zeros(6, 6))
