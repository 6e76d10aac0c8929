"""The benchmark's own tests: seeded generators, checkers and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import copy
import itertools

import pytest

import cdslab.cli as cli
import reference as ref
from cdslab import graphs, perms
from cdslab.errors import InvalidMoveError
import tracing
import session
from workloads import WORKLOADS, perm_sort_inputs


def first(workload, seed, k=5):
    return list(itertools.islice(WORKLOADS[workload].inputs(seed), k))


def answers(workload, inp):
    return [session._parse(*session._invoke(cli, argv)) for argv in WORKLOADS[workload].requests(inp)]


def check(workload, inp, results):
    return WORKLOADS[workload].check(inp, results)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    k = 40 if workload == "census" else 5
    assert first(workload, 7, k) == first(workload, 7, k)
    assert first(workload, 7, k) != first(workload, 8, k)


def test_inputs_do_not_repeat_within_a_run_or_round():
    assert len(set(first("perm_sort", 3, 50))) == 50
    ns = first("count_exact", 3, 10)
    assert sorted(ns[:5]) == sorted(ns[5:]) == [64, 88, 112, 136, 160]


def test_reference_agrees_with_the_program_on_every_small_permutation():
    for n in range(2, 6):
        for values in itertools.permutations(range(1, n + 1)):
            pi = perms.Permutation(values)
            rows = ref.overlap_rows(values)
            assert rows == list(perms.overlap_graph(pi).adjacency.rows)
            assert ref.kernel_reaches_roots(rows) == perms.is_cds_sortable(pi)
            assert ref.strategic_pile(values) == list(perms.strategic_pile(pi).ordered)
            for p, q in itertools.permutations(range(1, n), 2):
                try:
                    expected = perms.apply_cds(pi, p, q).elements
                except InvalidMoveError:
                    with pytest.raises(ValueError):
                        ref.block_swap(values, p, q)
                else:
                    assert ref.block_swap(values, p, q) == expected


def sortable_perm():
    for perm in perm_sort_inputs(11):
        if ref.kernel_reaches_roots(ref.overlap_rows(perm)):
            return perm


def unsortable_perm():
    for perm in perm_sort_inputs(11):
        if not ref.kernel_reaches_roots(ref.overlap_rows(perm)):
            return perm


def test_perm_sort_checker_rejects_an_altered_move():
    perm = sortable_perm()
    good = answers("perm_sort", perm)
    assert check("perm_sort", perm, good) == []
    moves = good[0][1]["moves"]
    for k in (0, len(moves) // 2, len(moves) - 1):
        bad = copy.deepcopy(good)
        p, q = moves[k]
        bad[0][1]["moves"][k] = [p + 1, q] if p + 1 < q else [p, q + 1]
        assert check("perm_sort", perm, bad)


def test_perm_sort_checker_rejects_a_wrong_verdict_or_pile():
    perm = unsortable_perm()
    good = answers("perm_sort", perm)
    assert check("perm_sort", perm, good) == []
    bad = copy.deepcopy(good)
    bad[1][1]["sortable"] = True
    assert check("perm_sort", perm, bad)
    bad = copy.deepcopy(good)
    bad[0] = (0, bad[0][1])
    assert check("perm_sort", perm, bad)
    bad = copy.deepcopy(good)
    bad[1][1]["strategic_pile"] = []
    assert check("perm_sort", perm, bad)


@pytest.fixture(scope="module")
def graph_case():
    inp = first("graph_realize", 5, 1)[0]
    return inp, answers("graph_realize", inp)


def test_graph_realize_checker_accepts_the_program(graph_case):
    inp, good = graph_case
    assert check("graph_realize", inp, good) == []


def test_graph_realize_checker_rejects_a_witness_with_two_values_swapped(graph_case):
    inp, good = graph_case
    bad = copy.deepcopy(good)
    witness = bad[0][1]["witness"]
    witness[3], witness[40] = witness[40], witness[3]
    assert check("graph_realize", inp, bad)


def test_graph_realize_checker_rejects_a_gcds_edge_flipped(graph_case):
    inp, good = graph_case
    for edge in ([1, 2], good[3][1]["edges"][0]):
        bad = copy.deepcopy(good)
        edges = bad[3][1]["edges"]
        if edge in edges:
            edges.remove(edge)
        else:
            edges.insert(0, edge)
        assert check("graph_realize", inp, bad)


def test_graph_realize_checker_rejects_a_wrong_verdict(graph_case):
    inp, good = graph_case
    bad = copy.deepcopy(good)
    bad[2][1]["sortable"] = not bad[2][1]["sortable"]
    assert check("graph_realize", inp, bad)


def test_count_exact_checker_rejects_a_wrong_count():
    n = 70
    good = answers("count_exact", n)
    assert check("count_exact", n, good) == []
    for i in (0, 2):
        bad = copy.deepcopy(good)
        bad[i][1]["count"] += 1
        assert check("count_exact", n, bad)


def test_census_checker_rejects_a_wrong_count():
    order = (True, False)
    good = [(0, {"count": 589}), (0, {"count": 7729})]
    assert check("census", order, good) == []
    assert check("census", order, [(0, {"count": 589}), (0, {"count": 7728})])
    assert check("census", order, [(0, {"count": 589}), (1, None)])


def test_census_checker_accepts_the_program():
    order = (False, True)
    assert check("census", order, answers("census", order)) == []


class FakeCli:
    """Answers every census with a wrong count."""

    @staticmethod
    def run(argv):
        print('{"count": 1}')
        return 0


def test_session_counts_a_wrong_answer_as_a_failure():
    loop = session._loop(FakeCli, WORKLOADS["census"], WORKLOADS["census"].inputs(1), 1e-9, None)
    assert len(loop["latencies"]) == 1 and loop["failed"] == 1


def test_self_time_subtracts_children_and_moves_count_under_sort():
    t = tracing.Tracer()
    # sort_moves [0, 10] holds apply_cds [1, 3] and cds_contexts [4, 8];
    # a top-level apply_cds [20, 21] is not a move of the greedy loop.
    for name, start, end, parent, count in (
        ("perms.sort_moves", 0.0, 10.0, -1, 1),
        ("perms.apply_cds", 1.0, 3.0, 0, 1),
        ("perms.cds_contexts", 4.0, 8.0, 0, 4),
        ("perms.apply_cds", 20.0, 21.0, -1, 1),
    ):
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
        t.requests.append(0)
        t.counts.append(count)
    m = tracing.layer_metrics(t, ops=1)
    assert m["perms.sort_moves.self_ms_per_op"] == pytest.approx(4e3)
    assert m["perms.apply_cds.calls_per_op"] == 2
    assert m["perms.apply_cds.self_ms_per_op"] == pytest.approx(3e3)
    assert m["perms.moves_made_per_op"] == 1
    assert m["perms.context_use_ratio"] == pytest.approx(0.25)


def test_install_wraps_calls_without_breaking_isinstance():
    # Runs last: the wrappers stay installed for the rest of the process.
    t = tracing.Tracer()
    tracing.install(t)
    g = perms.overlap_graph(perms.Permutation([2, 1, 3]))
    assert isinstance(g, graphs.RootedGraph)
    assert session._invoke(cli, ["perm", "sort", "[2,1,3]"])[0] in (0, 1)
    assert {"perms.overlap_graph", "perms.pointer_slots", "graphs.RootedGraph.__init__",
            "cli.run", "perms.sort_moves", "perms.cds_contexts"} <= set(t.names)
