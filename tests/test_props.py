"""Property-based invariants across random permutations, graphs, matrices."""

import json

from hypothesis import assume, given, settings, strategies as st

from cdslab import convert, f2, formats, graphs, perms
from test_convert import _reference_realize, flip_one_pair


@st.composite
def random_permutations(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    return perms.Permutation(draw(st.permutations(range(1, n + 1))))


@st.composite
def symmetric_matrices(draw, min_n: int = 2, max_n: int = 10):
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << npairs) - 1))
    rows = [0] * n
    bit = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (mask >> bit) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    return f2.F2Matrix.from_row_bits(rows, n)


@st.composite
def rooted_graphs(draw, min_n: int = 2, max_n: int = 10):
    return graphs.RootedGraph(draw(symmetric_matrices(min_n, max_n)))


@settings(deadline=None)
@given(random_permutations(min_n=2), st.data())
def test_apply_cds_permutes(pi, data):
    contexts = perms.cds_contexts(pi)
    assume(contexts)
    p, q = data.draw(st.sampled_from(contexts))
    out = perms.apply_cds(pi, p, q)
    assert sorted(out) == list(range(1, pi.n + 1))
    assert perms.is_cds_sortable(out) == perms.is_cds_sortable(pi)


@settings(deadline=None)
@given(random_permutations(min_n=2), st.data())
def test_moves_commute_with_the_overlap_graph(pi, data):
    contexts = perms.cds_contexts(pi)
    assume(contexts)
    p, q = data.draw(st.sampled_from(contexts))
    lifted = graphs.gcds(perms.overlap_graph(pi), p, q)
    assert lifted == perms.overlap_graph(perms.apply_cds(pi, p, q))


@settings(deadline=None)
@given(random_permutations(min_n=1, max_n=12))
def test_sortability_criteria_agree(pi):
    flags = {
        perms.is_cds_sortable(pi),
        graphs.is_gcds_sortable(perms.overlap_graph(pi)),
        f2.is_mcds_sortable(perms.overlap_graph(pi).adjacency),
    }
    assert len(flags) == 1


@settings(deadline=None)
@given(random_permutations(min_n=2, max_n=7))
def test_sort_moves_replay(pi):
    moves = perms.sort_moves(pi)
    if moves is None:
        assert not perms.is_cds_sortable(pi)
    else:
        out = pi
        for p, q in moves:
            out = perms.apply_cds(out, p, q)
        assert out.is_identity


@settings(deadline=None)
@given(rooted_graphs(), st.data())
def test_gcds_isolates_and_preserves(g, data):
    contexts = graphs.context_pairs(g)
    assume(contexts)
    p, q = data.draw(st.sampled_from(contexts))
    out = graphs.gcds(g, p, q)
    assert out.degree(p) == 0 and out.degree(q) == 0
    assert out.adjacency.is_symmetric() and out.adjacency.is_zero_diagonal()
    assert graphs.is_gcds_sortable(out) == graphs.is_gcds_sortable(g)
    if graphs.is_eulerian(g):
        assert graphs.is_eulerian(out)


@settings(deadline=None)
@given(symmetric_matrices(), st.data())
def test_mcds_shrinks_rank_by_two(m, data):
    ones = [
        (p, q)
        for p in range(m.nrows)
        for q in range(p + 1, m.nrows)
        if m[p, q]
    ]
    assume(ones)
    p, q = data.draw(st.sampled_from(ones))
    out = f2.mcds(m, p, q)
    assert f2.rank(out) == f2.rank(m) - 2
    for v in f2.kernel_basis(m):
        assert out.mat_vec(v) == 0


@settings(deadline=None)
@given(symmetric_matrices())
def test_precedence_conversion_is_a_bijection(m):
    p = convert.adjacency_to_precedence(m)
    assert convert.precedence_to_adjacency(p) == m


@settings(deadline=None)
@given(random_permutations(min_n=2, max_n=16))
def test_realize_inverts_the_move_graph(pi):
    m = perms.move_graph(pi)
    witness = convert.realize_move_graph(m)
    assert witness is not None
    assert perms.move_graph(witness) == m


@settings(deadline=None)
@given(random_permutations(min_n=2, max_n=12), st.data())
def test_realize_matches_the_reference(pi, data):
    m = perms.move_graph(pi)
    if m.nrows >= 2 and data.draw(st.booleans()):
        m = flip_one_pair(m, data.draw(st.randoms(use_true_random=False)))
    assert convert.realize_move_graph(m) == _reference_realize(m)


@settings(deadline=None)
@given(symmetric_matrices())
def test_matrix_text_roundtrip(m):
    assert formats.parse_matrix(formats.format_matrix(m)) == m


# Everything json.dumps writes: its scalars, lists and tuples (both become
# arrays, so tuples sit beside lists of plain ints), and dicts whose keys may
# be any scalar, which json.dumps turns into strings.
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=8)
    | st.dictionaries(json_scalars, inner, max_size=4),
    max_leaves=12,
)


@settings(deadline=None, max_examples=50)
@given(json_values)
def test_json_text_is_json_dumps(value):
    assert formats.format_json(value) == json.dumps(value, indent=2)


@settings(deadline=None)
@given(rooted_graphs())
def test_graph_text_roundtrip(g):
    assert formats.parse_graph(formats.format_graph(g)) == g


@settings(deadline=None)
@given(random_permutations())
def test_permutation_text_roundtrip(pi):
    assert formats.parse_permutation(formats.format_permutation(pi)) == pi


@settings(deadline=None)
@given(random_permutations(min_n=2, max_n=10))
def test_alternating_cycle_vectors_span_the_kernel(pi):
    adjacency = perms.overlap_graph(pi).adjacency
    vectors = perms.alternating_cycle_vectors(pi)
    for v in vectors:
        assert adjacency.mat_vec(v) == 0
    assert len(vectors) == len(f2.kernel_basis(adjacency))
