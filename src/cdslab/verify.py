"""Cross-check suites connecting the analytic code to the brute-force oracles.

Each suite re-derives one family of results in two independent ways and
reports one :class:`CheckLine` per check. The ``verify`` command line
subcommand and the acceptance tests both run these suites, so the two stay
in lockstep.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Iterable, Iterator, NamedTuple

from . import convert, counting, f2, formats, graphs, oracle, perms
from .errors import ContractError, InvalidMoveError

__all__ = [
    "CheckLine",
    "SuiteReport",
    "SUITE_NAMES",
    "eulerian_adjudication",
    "run_suite",
]


class CheckLine(NamedTuple):
    """One verification outcome: a named pass/fail with optional detail."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}" + (f": {self.detail}" if self.detail else "")


class SuiteReport(NamedTuple):
    """All check lines of one suite run, with the wall-clock time spent."""

    suite: str
    max_n: int | None
    checks: tuple[CheckLine, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        good = sum(c.passed for c in self.checks)
        lines.append(
            f"suite {self.suite}: {good}/{len(self.checks)} checks passed "
            f"in {self.elapsed:.2f}s"
        )
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "suite": self.suite,
            "max_n": self.max_n,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# frozen reference data


class _TableRow(NamedTuple):
    total: int
    sortable: int
    ratio_digits: str
    eulerian: int


# Expected table values for n = 3..10. The n <= 6 sortable entries are
# confirmed exhaustively by the census suite; the rest pin the counting
# formulas against regressions. The eulerian column is the closed formula's
# Eulerian variant, pinned against regressions only: the Eulerian census
# refutes it from n = 6 on (589 graphs at n = 6, not 365).
_TABLE = {
    3: _TableRow(8, 1, "0.125", 1),
    4: _TableRow(64, 17, "0.266", 5),
    5: _TableRow(1024, 113, "0.110", 29),
    6: _TableRow(32768, 7729, "0.236", 365),
    7: _TableRow(2097152, 224689, "0.107", 7565),
    8: _TableRow(268435456, 61562033, "0.229", 259533),
    9: _TableRow(68719476736, 7309130417, "0.106", 16766541),
    10: _TableRow(35184372088832, 8013328398001, "0.228", 1695913805),
}

# Census results for Eulerian graphs at the sizes where both counting
# methods are known to agree.
_EULERIAN_SMALL = {3: 1, 4: 5, 5: 29}

# Overlap adjacency (9x9) and precedence matrix (10x10) of [4,5,2,6,1,7,3,8],
# both hand-checked against the definitions.
_EXAMPLE_PERM = (4, 5, 2, 6, 1, 7, 3, 8)

_OVERLAP_9 = """
011100100
101001100
110001010
100000010
000000000
011000000
110000000
001100000
000000000
"""

_PRECEDENCE_10 = """
0111111111
0001000111
0101001111
0000000011
0111011111
0111001111
0101000111
0001000011
0000000001
0000000000
"""


# ---------------------------------------------------------------------------
# helpers


def _all_perms(n: int) -> Iterator[perms.Permutation]:
    for values in itertools.permutations(range(1, n + 1)):
        yield perms.Permutation(values)


def _graph(rows: tuple[int, ...]) -> graphs.RootedGraph:
    return graphs.RootedGraph(f2.F2Matrix.from_row_bits(rows, len(rows)))


def _span_masks(basis: Iterable[int]) -> set[int]:
    out = {0}
    for b in basis:
        out |= {m ^ b for m in out}
    return out


def _cut_masks(cuts: Iterable[frozenset[int]]) -> set[int]:
    return {sum(1 << v for v in cut) for cut in cuts}


def _random_symmetric_rows(
    rng: random.Random, n: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """Random symmetric zero-diagonal rows plus the list of present edges."""
    rows = [0] * n
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
                edges.append((u, v))
    return rows, edges


# ---------------------------------------------------------------------------
# suites


def _suite_table(max_n: int) -> list[CheckLine]:
    counting.check_table_size(max_n)
    out = []
    for n in range(3, min(max_n, 10) + 1):
        row = _TABLE[n]
        rep = counting.count_sortable(n)
        ranks = counting.count_sortable_rank_sum(n)
        eul = counting.count_sortable(n, eulerian=True)
        digits = formats.format_ratio(rep.ratio)
        ok = (
            rep.total == row.total
            and rep.count == row.sortable == ranks.count
            and digits == row.ratio_digits
            and eul.count == row.eulerian
        )
        out.append(
            CheckLine(
                f"table n={n}",
                ok,
                f"total={rep.total} sortable={rep.count} ratio={digits} "
                f"eulerian={eul.count}",
            )
        )
    wide = max(max_n, 30)
    agree = all(
        counting.count_sortable(n).count
        == counting.count_sortable_rank_sum(n).count
        for n in range(3, wide + 1)
    )
    out.append(CheckLine(f"closed formula equals rank sum n<={wide}", agree, ""))
    return out


def _suite_census(max_n: int) -> list[CheckLine]:
    out = []
    for n in range(3, min(max_n, oracle.CENSUS_LIMIT) + 1):
        t0 = time.perf_counter()
        brute = oracle.census_bruteforce(n)
        dt = time.perf_counter() - t0
        closed = counting.count_sortable(n).count
        ranks = counting.count_sortable_rank_sum(n).count
        out.append(
            CheckLine(
                f"census n={n}",
                brute == closed == ranks,
                f"brute={brute} closed={closed} rank_sum={ranks} ({dt:.2f}s)",
            )
        )
    return out


def eulerian_adjudication(max_n: int = 6) -> list[dict[str, object]]:
    """Exhaustive Eulerian census against both counting methods, per size.

    Each row records the census count, the two computed counts, and which
    methods agree with the census. The caller draws the conclusion; nothing
    here assumes a winner.
    """
    rows: list[dict[str, object]] = []
    for n in range(3, min(max_n, oracle.CENSUS_LIMIT) + 1):
        t0 = time.perf_counter()
        census = oracle.census_bruteforce(n, eulerian=True)
        dt = time.perf_counter() - t0
        closed = counting.count_sortable(n, eulerian=True).count
        ranks = counting.count_sortable_rank_sum(n, eulerian=True).count
        matches = tuple(
            name
            for name, value in (("closed_formula", closed), ("rank_sum", ranks))
            if value == census
        )
        rows.append(
            {
                "n": n,
                "census": census,
                "closed_formula": closed,
                "rank_sum": ranks,
                "matches": matches,
                "seconds": dt,
            }
        )
    return rows


def _suite_eulerian(max_n: int) -> list[CheckLine]:
    out = []
    rows = eulerian_adjudication(max_n)
    for row in rows:
        n = row["n"]
        matches = row["matches"]
        ok = bool(matches)
        if n in _EULERIAN_SMALL:
            ok = row["census"] == _EULERIAN_SMALL[n] and matches == (
                "closed_formula",
                "rank_sum",
            )
        out.append(
            CheckLine(
                f"eulerian census n={n}",
                ok,
                f"census={row['census']} closed={row['closed_formula']} "
                f"rank_sum={row['rank_sum']} "
                f"matches={','.join(matches) or 'none'}",
            )
        )
    always = [
        name
        for name in ("closed_formula", "rank_sum")
        if all(name in row["matches"] for row in rows)
    ]
    out.append(
        CheckLine(
            "eulerian adjudication",
            bool(always),
            "methods matching the census at every size: "
            + (",".join(always) or "none"),
        )
    )
    return out


def _suite_sortability(max_n: int) -> list[CheckLine]:
    out = []
    for n in range(1, min(max_n, oracle.SEARCH_LIMIT) + 1):
        sortable = 0
        bad = 0
        total = 0
        for pi in _all_perms(n):
            og = perms.overlap_graph(pi)
            flags = {
                perms.is_cds_sortable(pi),
                oracle.cds_sortable_bruteforce(pi),
                graphs.is_gcds_sortable(og),
                oracle.gcds_sortable_bruteforce(og),
            }
            total += 1
            if len(flags) == 1:
                sortable += flags.pop()
            else:
                bad += 1
        out.append(
            CheckLine(
                f"sortability agreement n={n}",
                bad == 0,
                f"{sortable}/{total} sortable, four criteria",
            )
        )
    return out


def _suite_commuting(max_n: int) -> list[CheckLine]:
    out = []
    for n in range(2, min(max_n, 7) + 1):
        moves = 0
        bad = 0
        for pi in _all_perms(n):
            og = perms.overlap_graph(pi)
            ctx = set(perms.cds_contexts(pi))
            # by the definition, a non-root pair is a context iff it has a swap
            swaps = {}
            for p in range(1, n):
                for q in range(p + 1, n):
                    child = oracle.cds_move(pi.elements, p, q)
                    if child is not None:
                        swaps[p, q] = child
            if ctx != swaps.keys():
                bad += 1
                continue
            for p, q in ctx:
                sigma = perms.apply_cds(pi, p, q)
                if sigma.elements != swaps[p, q]:
                    bad += 1
                moved = graphs.gcds(og, p, q)
                if perms.overlap_graph(sigma).adjacency != moved.adjacency:
                    bad += 1
                rule = oracle.gcds_move(og.adjacency.rows, p, q)
                if rule != moved.adjacency.rows:
                    bad += 1
                moves += 1
            if n <= 5:
                # non-contexts must be rejected on both sides
                for p in range(1, n):
                    for q in range(p + 1, n):
                        if (p, q) in ctx:
                            continue
                        for attempt in (
                            lambda: perms.apply_cds(pi, p, q),
                            lambda: graphs.gcds(og, p, q),
                        ):
                            try:
                                attempt()
                            except InvalidMoveError:
                                pass
                            else:
                                bad += 1
        out.append(
            CheckLine(
                f"commuting squares n={n}", bad == 0, f"{moves} moves checked"
            )
        )
    for n in range(2, min(max_n, 6) + 1):
        moves = 0
        bad = 0
        for rows in oracle.graph_rows(n):
            g = _graph(rows)
            for p, q in graphs.context_pairs(g):
                moved = graphs.gcds(g, p, q).adjacency.rows
                if moved != oracle.gcds_move(rows, p, q):
                    bad += 1
                moves += 1
        out.append(
            CheckLine(
                f"graph swap equals the oracle edge rule n={n}",
                bad == 0,
                f"{moves} moves checked",
            )
        )
    return out


def _suite_distance(max_n: int) -> list[CheckLine]:
    sequences, depths = [], []
    for n in range(2, min(max_n, 6) + 1):
        count = bad = depth_bad = sortable_count = 0
        for rows in oracle.graph_rows(n):
            g = _graph(rows)
            dist = f2.mcds_distance(g.adjacency)
            sortable = graphs.is_gcds_sortable(g)
            profile = oracle.gcds_fixed_point_profile(g)
            lengths = {length for length, _ in profile}
            ends = {edgeless for _, edgeless in profile}
            if lengths != {dist} or ends != {sortable}:
                bad += 1
            if n <= 5:
                depth = oracle.gcds_sortable_search(g).max_depth
                depth_bad += depth > dist or depth > n // 2
            sortable_count += sortable
            count += 1
        sequences.append(
            CheckLine(
                f"maximal sequences n={n}",
                bad == 0,
                f"{count} graphs, {sortable_count} sortable; every maximal "
                f"sequence has length rank/2, ends edgeless iff sortable",
            )
        )
        if n <= 5:
            depths.append(CheckLine(f"search depth bound n={n}", depth_bad == 0, ""))
    return sequences + depths


def _suite_conversion(max_n: int) -> list[CheckLine]:
    out = []
    for n in range(1, min(max_n, 8) + 1):
        bad = 0
        count = 0
        for pi in _all_perms(n):
            adj = perms.overlap_graph(pi).adjacency
            prec = perms.precedence_matrix(pi)
            ok = (
                convert.adjacency_to_precedence(adj) == prec
                and convert.precedence_to_adjacency(prec) == adj
                and convert.is_precedence_matrix(prec)
                and convert.permutation_from_precedence(prec) == pi
            )
            bad += not ok
            count += 1
        out.append(
            CheckLine(
                f"conversion roundtrip n={n}", bad == 0, f"{count} permutations"
            )
        )
    pi = perms.Permutation(_EXAMPLE_PERM)
    adj = formats.parse_matrix(_OVERLAP_9)
    prec = formats.parse_matrix(_PRECEDENCE_10)
    ok = (
        perms.overlap_graph(pi).adjacency == adj
        and perms.precedence_matrix(pi) == prec
        and convert.adjacency_to_precedence(adj) == prec
        and convert.precedence_to_adjacency(prec) == adj
    )
    out.append(
        CheckLine(
            "frozen example matrices",
            ok,
            "overlap 9x9 and precedence 10x10 of [4,5,2,6,1,7,3,8]",
        )
    )
    return out


def _suite_realize(max_n: int) -> list[CheckLine]:
    out = []
    top = min(max_n, oracle.REALIZE_LIMIT - 1)
    for k in range(1, top + 1):
        realizable = 0
        total = 0
        bad = 0
        for rows in oracle.graph_rows(k):
            m = f2.F2Matrix.from_row_bits(rows, k)
            got = convert.realize_move_graph(m)
            ref = oracle.realizable_bruteforce(m)
            if (got is None) != (ref is None):
                bad += 1
            elif got is not None:
                realizable += 1
                if got.n != k + 1 or perms.move_graph(got) != m:
                    bad += 1
            total += 1
        out.append(
            CheckLine(
                f"realization size {k}",
                bad == 0,
                f"{realizable}/{total} realizable, witnesses verified",
            )
        )
    length = min(max_n + 1, oracle.REALIZE_LIMIT)
    bad = 0
    count = 0
    for pi in _all_perms(length):
        m = perms.move_graph(pi)
        got = convert.realize_move_graph(m)
        if got is None or perms.move_graph(got) != m:
            bad += 1
        count += 1
    out.append(
        CheckLine(
            f"realization of derived graphs length {length}",
            bad == 0,
            f"{count} permutations",
        )
    )
    return out


def _suite_kernel(max_n: int) -> list[CheckLine]:
    gn = min(max_n, 6)
    pn = min(max_n, 8)
    scan_lines, space_lines, swap_lines, root_lines = [], [], [], []
    for n in range(2, gn + 1):
        # one pass: every graph with its kernel (= generalized cut) masks
        table: dict[tuple[int, ...], tuple[graphs.RootedGraph, set[int]]] = {}
        scan_bad = space_bad = root_bad = count = 0
        for rows in oracle.graph_rows(n):
            g = _graph(rows)
            cuts = set(graphs.generalized_parity_cuts(g))
            table[rows] = (g, cuts)
            if n <= 5:
                scanned = oracle.parity_cuts_bruteforce(g, "generalized")
                scan_bad += cuts != _cut_masks(scanned)
            if not graphs.is_eulerian(g):
                continue
            # on even-degree graphs the root-even two-sided cuts are the
            # kernel, and exactly one root placement is feasible
            scanned = oracle.parity_cuts_bruteforce(g, "two_sided_root_even")
            space_bad += cuts != _cut_masks(scanned)
            a = graphs.has_property(g, "a")
            c = graphs.has_property(g, "c")
            root_bad += a == c or a != graphs.is_gcds_sortable(g)
            count += 1
        if n <= 5:
            scan_lines.append(
                CheckLine(f"generalized cuts vs scan n={n}", scan_bad == 0, "")
            )
        space_lines.append(
            CheckLine(
                f"eulerian cut space equals kernel n={n}",
                space_bad == 0,
                f"{count} graphs",
            )
        )
        root_lines.append(
            CheckLine(
                f"eulerian root placement n={n}",
                root_bad == 0,
                f"{count} graphs: separation xor containment, "
                f"separation iff sortable",
            )
        )

        # a swap changes cuts only at the two swapped vertices
        bad = moves = 0
        for g, cuts in table.values():
            eulerian = graphs.is_eulerian(g)
            for p, q in graphs.context_pairs(g):
                moved = graphs.gcds(g, p, q)
                strip = ((1 << n) - 1) ^ (1 << p) ^ (1 << q)
                moved_cuts = table[moved.adjacency.rows][1]
                if {m & strip for m in cuts} != {m & strip for m in moved_cuts}:
                    bad += 1
                if eulerian and (
                    not graphs.is_eulerian(moved)
                    or graphs.has_property(moved, "a")
                    != graphs.has_property(g, "a")
                ):
                    bad += 1
                moves += 1
        swap_lines.append(
            CheckLine(
                f"cut correspondence under swaps n={n}",
                bad == 0,
                f"{moves} moves; even degrees and root separation preserved",
            )
        )

    # permutation-side kernel structure
    ortho_bad = span_bad = union_bad = pile_bad = end_rows_bad = odd_sep_bad = 0
    piles = 0
    sortable_perms = 0
    total_perms = 0
    for n in range(1, pn + 1):
        for pi in _all_perms(n):
            m = n + 1
            og = perms.overlap_graph(pi)
            adj = og.adjacency
            rows = adj.rows
            full = (1 << m) - 1
            masks = perms.alternating_cycle_vectors(pi)
            total_perms += 1
            if any(
                (masks[i] & masks[j]).bit_count() & 1
                for i in range(len(masks))
                for j in range(i + 1, len(masks))
            ):
                ortho_bad += 1
            if any(adj.mat_vec(v) for v in masks) or len(masks) != (
                m - f2.rank(adj)
            ):
                span_bad += 1
            # the cycles are disjoint, so their XOR span is their unions
            if any(
                (r & (full ^ union if (union >> v) & 1 else union)).bit_count() & 1
                for union in _span_masks(masks)
                for v, r in enumerate(rows)
            ):
                union_bad += 1
            pile = perms.strategic_pile(pi)
            if not pile:
                sortable_perms += 1
                if f2.rank(f2.central_submatrix(adj, "rows")) != f2.rank(adj):
                    end_rows_bad += 1
            else:
                piles += 1
                x = 0
                for v in pile:
                    x |= 1 << v
                if (
                    x & (1 | (1 << n))
                    or f2.central_submatrix(adj, "rows").mat_vec(x)
                    or not adj.mat_vec(x)
                ):
                    pile_bad += 1
            if graphs.has_property(og, "b"):
                odd_sep_bad += 1
    perm_lines = [
        CheckLine(f"cycle vectors orthogonal n<={pn}", ortho_bad == 0, ""),
        CheckLine(
            f"cycle vectors span overlap kernel n<={pn}",
            span_bad == 0,
            f"{total_perms} permutations",
        ),
        CheckLine(f"cycle unions are root-even cuts n<={pn}", union_bad == 0, ""),
        CheckLine(
            f"pile vector central-kernel membership n<={pn}",
            pile_bad == 0,
            f"{piles} nonempty piles",
        ),
        CheckLine(
            f"sortable kernels need no end rows n<={pn}",
            end_rows_bad == 0,
            f"{sortable_perms} sortable permutations",
        ),
        CheckLine(
            f"no overlap graph separates roots oddly n<={pn}", odd_sep_bad == 0, ""
        ),
    ]
    return scan_lines + space_lines + swap_lines + perm_lines + root_lines


def _suite_macwilliams(max_n: int) -> list[CheckLine]:
    out = []
    for t in range(0, min(max_n, oracle.N0_LIMIT) + 1):
        bad = 0
        total = 0
        for r in range(0, t + 1):
            counted = counting.macwilliams_count(t, r)
            if counted != oracle.n0_bruteforce(t, r):
                bad += 1
            if r % 2 and counted:
                bad += 1
            total += counted
        if total != 1 << (t * (t - 1) // 2):
            bad += 1
        out.append(
            CheckLine(
                f"rank census t={t}",
                bad == 0,
                f"sum over ranks = 2^{t * (t - 1) // 2}",
            )
        )
    return out


def _decomposes(adj: f2.F2Matrix) -> bool:
    """Rebuild a sortable matrix from its center and two solved borders."""
    n = adj.nrows
    center = f2.central_submatrix(adj, "both")
    mid = f2.central_submatrix(adj, "rows")
    u1 = f2.solve_linear(center, mid.column(0))
    u2 = f2.solve_linear(center, mid.column(n - 1))
    if u1 is None or u2 is None:
        return False
    if counting.block_construct(center, u1, u2) != adj:
        return False
    if adj.is_eulerian_rows():
        full = (1 << center.nrows) - 1
        return counting.block_construct(center, u1, u1 ^ full) == adj
    return True


def _suite_blocks(max_n: int) -> list[CheckLine]:
    gn = min(max_n, 6)

    form_bad = offset_bad = 0
    for t in range(0, 4):
        for rows in oracle.graph_rows(t):
            a = f2.F2Matrix.from_row_bits(rows, t)
            kernel = _span_masks(f2.kernel_basis(a))
            images = []
            for u in range(1 << t):
                au = a.mat_vec(u)
                form_bad += (au & u).bit_count() & 1
                for v in range(1 << t):
                    form = (au & v).bit_count() & 1
                    form_bad += form != (a.mat_vec(v) & u).bit_count() & 1
                    image = counting.block_construct(a, u, v)
                    # the root-to-root corner is the border form (A u1) . u2
                    form_bad += image[0, t + 1] != form
                    images.append((u, v, image))
            for u1, u2, m1 in images:
                for v1, v2, m2 in images:
                    same = (u1 ^ v1) in kernel and (u2 ^ v2) in kernel
                    offset_bad += (m1 == m2) != same
    out = [
        CheckLine("border form symmetric t<=3", form_bad == 0, ""),
        CheckLine(
            "bordering equality matches kernel offsets t<=3", offset_bad == 0, ""
        ),
    ]

    # one pass over the sortable graphs of each size; graph <-> (center,
    # border) is a bijection, so tallying the sortable and even-degree
    # sortable graphs by center gives every center's extension counts
    complement_bad = solvable = 0
    decomposition, extensions = [], []
    for n in range(2, gn + 1):
        bad = count = 0
        sortable: dict[tuple[int, ...], int] = {}
        even: dict[tuple[int, ...], int] = {}
        for rows in oracle.graph_rows(n):
            adj = f2.F2Matrix.from_row_bits(rows, n)
            if not f2.is_mcds_sortable(adj):
                continue
            count += 1
            bad += not _decomposes(adj)
            center = f2.central_submatrix(adj, "both").rows
            sortable[center] = sortable.get(center, 0) + 1
            if not adj.is_eulerian_rows():
                continue
            even[center] = even.get(center, 0) + 1
            cc = f2.central_submatrix(adj, "cols")
            u0 = f2.solve_linear(cc, adj.column(0))
            if u0 is None:
                continue
            solvable += 1
            last = adj.column(n - 1)
            full = (1 << (n - 2)) - 1
            for k in _span_masks(f2.kernel_basis(cc)):
                complement_bad += cc.mat_vec(u0 ^ k ^ full) != last
        decomposition.append(
            CheckLine(
                f"sortable decomposition n={n}",
                bad == 0,
                f"{count} sortable graphs",
            )
        )
        t = n - 2
        bad = 0
        for rows in oracle.graph_rows(t):
            center = f2.F2Matrix.from_row_bits(rows, t)
            want = counting.sortable_extensions_count(center)
            want_eul = counting.sortable_extensions_count(center, eulerian=True)
            bad += sortable.get(rows, 0) != want or even.get(rows, 0) != want_eul
        extensions.append(
            CheckLine(
                f"extension counts t={t}",
                bad == 0,
                "4^rank sortable, 2^rank even-degree sortable",
            )
        )
    out.append(
        CheckLine(
            f"complement bordering rule n<={gn}",
            complement_bad == 0 and solvable > 0,
            f"{solvable} solvable instances",
        )
    )
    out += decomposition

    rng = random.Random(8)
    sample_bad = 0
    samples = 0
    for n in range(gn + 1, min(max_n, 8) + 1):
        t = n - 2
        for _ in range(200):
            rows, _edges = _random_symmetric_rows(rng, t)
            center = f2.F2Matrix.from_row_bits(rows, t)
            u1 = rng.getrandbits(t)
            u2 = rng.getrandbits(t)
            built = counting.block_construct(center, u1, u2)
            samples += 1
            if (
                not f2.is_mcds_sortable(built)
                or f2.central_submatrix(built, "both") != center
                or not _decomposes(built)
            ):
                sample_bad += 1
    out.append(
        CheckLine(
            f"sampled decomposition n<={min(max_n, 8)}",
            sample_bad == 0,
            f"{samples} random bordered graphs",
        )
    )
    return out + extensions


def _suite_convergence(max_n: int) -> list[CheckLine]:
    rep = counting.convergence_report(max(10, max_n))
    details = {
        "x100_above_one_fifth": f"x_100 = {float(rep.x100):.12f}",
        "limit_positive_margin": f"limit >= {float(rep.limit_lower):.12f}",
        "delta_geometric": f"tail bound {float(rep.tail_high):.3e}",
    }
    return [
        CheckLine(f"convergence {name}", passed, details.get(name, ""))
        for name, passed in rep.checks.items()
    ]


_RANDOM_CASES = 2500


def _random_family(
    name: str,
    top: int,
    draw: Callable[[], "tuple | None"],
    check: Callable[..., bool],
) -> CheckLine:
    """Check _RANDOM_CASES drawn cases (draw returns None to skip a draw).

    A check that raises counts as a failure; the first exception's type and
    message go into the detail.
    """
    bad = done = attempts = 0
    error = ""
    while done < _RANDOM_CASES and attempts < _RANDOM_CASES * 40:
        attempts += 1
        case = draw()
        if case is None:
            continue
        try:
            ok = check(*case)
        except Exception as exc:
            ok = False
            error = error or f"; first error {type(exc).__name__}: {exc}"
        bad += not ok
        done += 1
    return CheckLine(
        name,
        bad == 0 and done == _RANDOM_CASES,
        f"{done} moves at sizes <= {top}{error}",
    )


def _suite_random(max_n: int) -> list[CheckLine]:
    top = max(3, min(max_n, 16))
    rng = random.Random(20260819)

    def perm_move() -> tuple[perms.Permutation, int, int] | None:
        n = rng.randint(2, top)
        values = list(range(1, n + 1))
        rng.shuffle(values)
        pi = perms.Permutation(values)
        ctx = perms.cds_contexts(pi)
        return (pi, *rng.choice(ctx)) if ctx else None

    def keeps_permutation(pi: perms.Permutation, p: int, q: int) -> bool:
        sigma = perms.apply_cds(pi, p, q)
        return sorted(sigma.elements) == list(range(1, pi.n + 1))

    def matches_oracle(pi: perms.Permutation, p: int, q: int) -> bool:
        return oracle.cds_move(pi, p, q) == perms.apply_cds(pi, p, q).elements

    def graph_move() -> tuple[graphs.RootedGraph, int, int] | None:
        n = rng.randint(3, top)
        rows, _edges = _random_symmetric_rows(rng, n)
        g = _graph(tuple(rows))
        ctx = graphs.context_pairs(g)
        return (g, *rng.choice(ctx)) if ctx else None

    def keeps_rooted_graph(g: graphs.RootedGraph, p: int, q: int) -> bool:
        moved = graphs.gcds(g, p, q)
        adj = moved.adjacency
        return (
            adj.is_symmetric()
            and adj.is_zero_diagonal()
            and moved.degree(p) == 0
            and moved.degree(q) == 0
            and moved.roots == (0, g.n - 1)
        )

    def matrix_move() -> tuple[f2.F2Matrix, int, int] | None:
        n = rng.randint(2, top)
        rows, edges = _random_symmetric_rows(rng, n)
        if not edges:
            return None
        return (f2.F2Matrix.from_row_bits(rows, n), *rng.choice(edges))

    def grows_kernel(m: f2.F2Matrix, p: int, q: int) -> bool:
        moved = f2.mcds(m, p, q)
        return (
            moved.is_symmetric()
            and moved.is_zero_diagonal()
            and moved.rows[p] == 0
            and moved.rows[q] == 0
            and f2.rank(moved) == f2.rank(m) - 2
            and not any(moved.mat_vec(v) for v in f2.kernel_basis(m))
        )

    return [
        _random_family(name, top, draw, check)
        for name, draw, check in (
            ("random swaps keep permutations", perm_move, keeps_permutation),
            ("random swaps match the oracle", perm_move, matches_oracle),
            (
                "random graph swaps keep two-rooted graphs",
                graph_move,
                keeps_rooted_graph,
            ),
            ("random matrix swaps grow the kernel", matrix_move, grows_kernel),
        )
    ]


# ---------------------------------------------------------------------------
# registry


_SuiteFn = Callable[[int], "list[CheckLine]"]

# name -> (suite, default max_n); the one-line descriptions are the verify
# subcommand's help, in cli._SUITES.
_SUITES: dict[str, tuple[_SuiteFn, int]] = {
    "table": (_suite_table, 10),
    "census": (_suite_census, 6),
    "eulerian": (_suite_eulerian, 6),
    "sortability": (_suite_sortability, 7),
    "commuting": (_suite_commuting, 6),
    "distance": (_suite_distance, 6),
    "conversion": (_suite_conversion, 7),
    "realize": (_suite_realize, 5),
    "kernel": (_suite_kernel, 7),
    "macwilliams": (_suite_macwilliams, 5),
    "blocks": (_suite_blocks, 8),
    "convergence": (_suite_convergence, 50),
    "random": (_suite_random, 16),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, max_n: int | None = None) -> SuiteReport:
    """Run one named suite and collect its check lines.

    ``all`` runs every suite at its default size; since the sizes mean
    different things per suite, a max_n with ``all`` raises ContractError
    rather than being ignored. Unknown names raise ContractError too.
    """
    start = time.perf_counter()
    if name == "all":
        if max_n is not None:
            raise ContractError("--max-n applies to a single suite, not to all")
        checks: list[CheckLine] = []
        for sub, (fn, default) in _SUITES.items():
            for line in fn(default):
                checks.append(
                    CheckLine(f"{sub}: {line.name}", line.passed, line.detail)
                )
        return SuiteReport(
            suite="all",
            max_n=None,
            checks=tuple(checks),
            elapsed=time.perf_counter() - start,
        )
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ContractError(f"unknown suite {name!r}; available: {known}")
    fn, default = _SUITES[name]
    effective = default if max_n is None else max_n
    if effective < 1:
        raise ContractError(f"max_n must be positive, got {effective}")
    checks = fn(effective)
    return SuiteReport(
        suite=name,
        max_n=effective,
        checks=tuple(checks),
        elapsed=time.perf_counter() - start,
    )
