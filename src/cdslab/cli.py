"""Command line interface for the cdslab toolkit.

Exit codes: 0 on success (including queries whose answer is negative, such
as an UNSORTABLE verdict from ``perm check``), 1 on domain failures
(invalid moves, unrealizable inputs, failed verification, malformed data),
2 on usage errors. ``--json`` swaps the text output for one stable JSON
object per invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

# convert, counting, f2, graphs, oracle, perms and verify are imported by the
# commands that use them, so a fresh process loads only what its subcommand
# needs: perm loads perms alone, and count none of the three views.
from . import formats
from .errors import CdsLabError, ContractError, InvalidMoveError, SizeLimitError

if TYPE_CHECKING:
    from . import f2, graphs, perms

__all__ = ["build_parser", "main", "run"]

_DATA_HELP = "literal text, a file path, or - for stdin (default: stdin)"

# The verify subcommand's help, in verify's suite order, and the count
# methods: kept here so that building the parser imports neither verify nor
# counting. Tests pin them to verify.SUITE_NAMES and counting.COUNT_METHODS.
_SUITES = (
    ("table", "count table, ratio digits, and both counting methods"),
    ("census", "exhaustive sortable census against both counting methods"),
    ("eulerian", "census adjudication of the two Eulerian counting methods"),
    ("sortability", "four sortability criteria agree on every permutation"),
    ("commuting", "swaps commute across the permutation, graph, and matrix views"),
    ("distance", "every maximal swap sequence has length rank/2"),
    ("conversion", "adjacency/precedence conversions round-trip exactly"),
    ("realize", "realization agrees with exhaustive search, witnesses verified"),
    ("kernel", "parity cuts, kernels, pile vectors, and root placements"),
    ("macwilliams", "rank census of symmetric zero-diagonal matrices"),
    ("blocks", "bordered block construction, decomposition, extension counts"),
    ("convergence", "exact rational certificates for the density limit"),
    ("random", "randomized structural properties of all three swap kinds"),
    ("all", "every suite at its default size"),
)
_COUNT_METHODS = ("closed_formula", "rank_sum", "brute_force")


def _read_text(data: str | None) -> str:
    if data is None or data == "-":
        return sys.stdin.read()
    if os.path.isfile(data):
        with open(data, "r", encoding="utf-8") as fh:
            return fh.read()
    return data


def _emit(args: argparse.Namespace, text: str, payload: dict[str, object]) -> None:
    if args.json:
        print(formats.format_json(payload))
    else:
        print(text.rstrip("\n"))


def _pile_text(pile: perms.StrategicPile) -> str:
    return "(" + ",".join(map(str, pile)) + ")"


def _matrix_lines(m: f2.F2Matrix) -> list[str]:
    return formats.format_matrix(m).splitlines()


# ---------------------------------------------------------------------------
# permutation commands


def _cmd_perm_check(args: argparse.Namespace) -> int:
    from . import perms

    pi = formats.parse_permutation(_read_text(args.data))
    pile = perms.strategic_pile(pi)
    text = "SORTABLE" if pile.is_empty else f"UNSORTABLE SP={_pile_text(pile)}"
    _emit(
        args,
        text,
        {
            "command": "perm.check",
            "permutation": list(pi.elements),
            "sortable": pile.is_empty,
            "strategic_pile": list(pile),
        },
    )
    return 0


def _cmd_perm_sort(args: argparse.Namespace) -> int:
    from . import perms

    pi = formats.parse_permutation(_read_text(args.data))
    moves = perms.sort_moves(pi)
    if moves is None:
        pile = perms.strategic_pile(pi)
        _emit(
            args,
            f"UNSORTABLE SP={_pile_text(pile)}",
            {
                "command": "perm.sort",
                "permutation": list(pi.elements),
                "sortable": False,
                "strategic_pile": list(pile),
                "moves": None,
            },
        )
        return 1
    trace = [pi]
    for p, q in moves:
        trace.append(perms.apply_cds(trace[-1], p, q))
    lines = [formats.format_permutation(pi)]
    for (p, q), after in zip(moves, trace[1:]):
        lines.append(f"swap {p} {q} -> {formats.format_permutation(after)}")
    lines.append(f"SORTED in {len(moves)} moves")
    _emit(
        args,
        "\n".join(lines),
        {
            "command": "perm.sort",
            "permutation": list(pi.elements),
            "sortable": True,
            "moves": [list(mv) for mv in moves],
            "trace": [list(t.elements) for t in trace],
        },
    )
    return 0


def _cmd_perm_cycles(args: argparse.Namespace) -> int:
    from . import perms

    pi = formats.parse_permutation(_read_text(args.data))
    note = perms.cycle_notation(pi)
    text = "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in note.cycles)
    _emit(
        args,
        text,
        {
            "command": "perm.cycles",
            "permutation": list(pi.elements),
            "mapping": list(note.mapping),
            "cycles": [list(cyc) for cyc in note.cycles],
        },
    )
    return 0


def _cmd_perm_pile(args: argparse.Namespace) -> int:
    from . import perms

    pi = formats.parse_permutation(_read_text(args.data))
    pile = perms.strategic_pile(pi)
    _emit(
        args,
        f"SP={_pile_text(pile)}",
        {
            "command": "perm.pile",
            "permutation": list(pi.elements),
            "strategic_pile": list(pile),
            "empty": pile.is_empty,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# graph commands


def _graph_payload(command: str, g: graphs.RootedGraph) -> dict[str, object]:
    return {
        "command": command,
        "n": g.n,
        "roots": [1, g.n],
        "edges": [[u + 1, v + 1] for u, v in g.edges()],
    }


def _cmd_graph_check(args: argparse.Namespace) -> int:
    from . import f2, graphs

    g = formats.parse_graph(_read_text(args.data))
    sortable = graphs.is_gcds_sortable(g)
    dist = f2.mcds_distance(g.adjacency)
    text = f"{'SORTABLE' if sortable else 'UNSORTABLE'} distance={dist}"
    _emit(
        args,
        text,
        {
            "command": "graph.check",
            "n": g.n,
            "roots": [1, g.n],
            "sortable": sortable,
            "distance": dist,
            "eulerian": graphs.is_eulerian(g),
        },
    )
    return 0


def _swap(args: argparse.Namespace, swap, target, nouns: str):
    """swap(target, p, q) at the 1-based p, q of the command line."""
    if args.p < 1 or args.q < 1:
        raise InvalidMoveError(f"{nouns} are numbered from 1")
    try:
        return swap(target, args.p - 1, args.q - 1)
    except InvalidMoveError as exc:
        raise InvalidMoveError(
            f"cannot swap on {nouns} {args.p}, {args.q}: {exc}"
        ) from exc


def _cmd_graph_gcds(args: argparse.Namespace) -> int:
    from . import graphs

    g = formats.parse_graph(_read_text(args.data))
    moved = _swap(args, graphs.gcds, g, "vertices")
    _emit(args, formats.format_graph(moved), _graph_payload("graph.gcds", moved))
    return 0


def _cmd_graph_cuts(args: argparse.Namespace) -> int:
    from . import graphs

    g = formats.parse_graph(_read_text(args.data))
    cuts = graphs.generalized_parity_cuts(g)
    lines = [f"{len(cuts)} cuts"]
    listed = []
    for cut in cuts:
        verts = [v + 1 for v in range(g.n) if (cut >> v) & 1]
        listed.append(verts)
        lines.append("{" + ",".join(map(str, verts)) + "}")
    _emit(
        args,
        "\n".join(lines),
        {"command": "graph.cuts", "n": g.n, "count": len(cuts), "cuts": listed},
    )
    return 0


def _cmd_graph_props(args: argparse.Namespace) -> int:
    from . import graphs

    g = formats.parse_graph(_read_text(args.data))
    flags = {
        "eulerian": graphs.is_eulerian(g),
        "a": graphs.has_property(g, "a"),
        "b": graphs.has_property(g, "b"),
        "c": graphs.has_property(g, "c"),
    }
    text = " ".join(f"{k}={'yes' if v else 'no'}" for k, v in flags.items())
    _emit(args, text, {"command": "graph.props", "n": g.n, **flags})
    return 0


# ---------------------------------------------------------------------------
# matrix commands


def _cmd_matrix_mcds(args: argparse.Namespace) -> int:
    from . import f2

    m = formats.parse_matrix(_read_text(args.data))
    moved = _swap(args, f2.mcds, m, "indices")
    _emit(
        args,
        formats.format_matrix(moved),
        {"command": "matrix.mcds", "rows": _matrix_lines(moved)},
    )
    return 0


def _cmd_matrix_rank(args: argparse.Namespace) -> int:
    from . import f2

    m = formats.parse_matrix(_read_text(args.data))
    r = f2.rank(m)
    _emit(
        args,
        str(r),
        {"command": "matrix.rank", "shape": [m.nrows, m.ncols], "rank": r},
    )
    return 0


def _cmd_matrix_kernel(args: argparse.Namespace) -> int:
    from . import f2

    m = formats.parse_matrix(_read_text(args.data))
    basis = f2.kernel_basis(m)
    # as format_matrix writes a row: column 0 first
    top = 1 << m.ncols
    strings = [bin(v | top)[:2:-1] for v in basis]
    lines = [f"dimension {len(basis)}"] + strings
    _emit(
        args,
        "\n".join(lines),
        {"command": "matrix.kernel", "dimension": len(basis), "basis": strings},
    )
    return 0


# ---------------------------------------------------------------------------
# conversion, realization, counting


def _cmd_convert(args: argparse.Namespace) -> int:
    from . import convert

    m = formats.parse_matrix(_read_text(args.data))
    if args.convert_command == "adj2prec":
        out = convert.adjacency_to_precedence(m)
    else:
        out = convert.precedence_to_adjacency(m)
    _emit(
        args,
        formats.format_matrix(out),
        {
            "command": f"convert.{args.convert_command}",
            "rows": _matrix_lines(out),
        },
    )
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    from . import convert

    m = formats.parse_matrix(_read_text(args.data))
    witness = convert.realize_move_graph(m)
    if witness is None:
        _emit(
            args,
            "UNREALIZABLE",
            {"command": "realize", "realizable": False, "witness": None},
        )
        return 1
    _emit(
        args,
        formats.format_permutation(witness),
        {
            "command": "realize",
            "realizable": True,
            "witness": list(witness.elements),
        },
    )
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from . import counting

    if args.method == "brute_force":
        from . import oracle

        counting.check_count_floor(args.n)
        raw = oracle.census_bruteforce(args.n, eulerian=args.eulerian)
        rep = counting.CountReport.build(args.n, "brute_force", args.eulerian, raw)
    elif args.method == "rank_sum":
        rep = counting.count_sortable_rank_sum(args.n, eulerian=args.eulerian)
    else:
        rep = counting.count_sortable(args.n, eulerian=args.eulerian)
    _emit(
        args,
        formats.format_int(rep.count),
        {
            "command": "count",
            "n": rep.n,
            "method": rep.method,
            "eulerian": rep.eulerian,
            "count": rep.count,
            "total": rep.total,
            "ratio": "/".join(map(formats.format_int, rep.reduced)),
        },
    )
    return 0


def _table_rows(max_n: int, brute: bool) -> list[dict[str, object]]:
    from . import counting

    if brute:
        from . import oracle

    rows: list[dict[str, object]] = []
    for n in range(3, max_n + 1):
        rep = counting.count_sortable(n)
        eu_formula = counting.count_sortable(n, eulerian=True)
        eu_ranksum = counting.count_sortable_rank_sum(n, eulerian=True)
        row: dict[str, object] = {
            "n": n,
            "total": rep.total,
            "sortable": rep.count,
            "ratio": formats.format_ratio(rep.ratio),
            "eulerian_sortable_formula": eu_formula.count,
            "eulerian_sortable_ranksum": eu_ranksum.count,
        }
        if brute:
            row["brute_force"] = oracle.census_bruteforce(n)
        rows.append(row)
    return rows


def _render_table(rows: list[dict[str, object]]) -> str:
    headers = list(rows[0])
    cells = [
        [v if isinstance(v, str) else formats.format_int(v) for v in r.values()]
        for r in rows
    ]
    widths = [
        max(len(h), *(len(line[i]) for line in cells))
        for i, h in enumerate(headers)
    ]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for line in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(line, widths)))
    return "\n".join(lines)


def _cmd_table(args: argparse.Namespace) -> int:
    from . import counting

    if args.max_n < 3:
        raise ContractError(f"the table starts at n=3, got max-n {args.max_n}")
    # checked before the first row, so a table that cannot finish fails at once
    if args.max_n > counting.TABLE_LIMIT:
        raise SizeLimitError(
            f"table limited to max-n <= {counting.TABLE_LIMIT}, got {args.max_n}"
        )
    if args.brute_force:
        from . import oracle

        if args.max_n > oracle.CENSUS_LIMIT:
            raise SizeLimitError(
                f"census limited to n <= {oracle.CENSUS_LIMIT}, got {args.max_n}"
            )
    rows = _table_rows(args.max_n, args.brute_force)
    _emit(
        args,
        _render_table(rows),
        {"command": "table", "max_n": args.max_n, "rows": rows},
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    report = verify.run_suite(args.suite, max_n=args.max_n)
    if args.json:
        print(formats.format_json({"command": "verify", **report.to_json()}))
    else:
        print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser

_GROUPS = {
    "perm": "permutation queries",
    "graph": "two-rooted graph queries",
    "matrix": "GF(2) matrix queries",
    "convert": "adjacency/precedence conversions",
}
# (group, command, handler, help), in help order
_COMMANDS = (
    ("perm", "sort", _cmd_perm_sort, "emit a full sorting move sequence"),
    ("perm", "check", _cmd_perm_check, "sortability verdict with the pile"),
    ("perm", "cycles", _cmd_perm_cycles, "cycle form of the composed map"),
    ("perm", "pile", _cmd_perm_pile, "the strategic pile"),
    ("graph", "check", _cmd_graph_check, "sortability verdict and distance"),
    ("graph", "gcds", _cmd_graph_gcds, "apply one swap on vertices p, q"),
    ("graph", "cuts", _cmd_graph_cuts, "list every generalized parity cut"),
    ("graph", "props", _cmd_graph_props, "root-placement properties a, b, c"),
    ("matrix", "mcds", _cmd_matrix_mcds, "apply one swap at indices p, q"),
    ("matrix", "rank", _cmd_matrix_rank, "rank over GF(2)"),
    ("matrix", "kernel", _cmd_matrix_kernel, "kernel basis vectors"),
    ("convert", "adj2prec", _cmd_convert, "overlap adjacency to precedence matrix"),
    ("convert", "prec2adj", _cmd_convert, "precedence matrix to overlap adjacency"),
)
# the commands that take two 1-based indices p and q, with the indices' noun
_INDEX_NOUNS = {"gcds": "vertex", "mcds": "index"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object instead of text",
    )
    # ignored: kept only so existing command lines, the benchmark's too, parse
    common.add_argument("--threads", type=int, help=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="cdslab",
        description="Context-directed swap sorting on permutations, "
        "two-rooted graphs, and GF(2) matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    groups = {
        group: sub.add_parser(group, help=help_text).add_subparsers(
            dest=f"{group}_command", required=True
        )
        for group, help_text in _GROUPS.items()
    }
    for group, name, fn, help_text in _COMMANDS:
        p = groups[group].add_parser(name, parents=[common], help=help_text)
        p.add_argument("data", nargs="?", help=_DATA_HELP)
        noun = _INDEX_NOUNS.get(name)
        if noun:
            p.add_argument("p", type=int, help=f"first {noun} (1-based)")
            p.add_argument("q", type=int, help=f"second {noun} (1-based)")
        p.set_defaults(func=fn)

    realize = sub.add_parser(
        "realize",
        parents=[common],
        help="find a permutation whose move graph is the given matrix",
    )
    realize.add_argument("data", nargs="?", help=_DATA_HELP)
    realize.set_defaults(func=_cmd_realize)

    count = sub.add_parser(
        "count", parents=[common], help="number of sortable two-rooted graphs"
    )
    count.add_argument("--n", type=int, required=True, help="vertex count")
    count.add_argument(
        "--eulerian",
        action="store_true",
        help="count only graphs with all degrees even",
    )
    count.add_argument(
        "--method",
        choices=_COUNT_METHODS,
        default="closed_formula",
        help="counting method (default: closed_formula)",
    )
    count.set_defaults(func=_cmd_count)

    table = sub.add_parser(
        "table", parents=[common], help="count table for n = 3..max-n"
    )
    table.add_argument(
        "--max-n", type=int, default=10, help="largest size (default: 10)"
    )
    table.add_argument(
        "--brute-force",
        action="store_true",
        help="add an exhaustive-census column (needs max-n <= 7)",
    )
    table.set_defaults(func=_cmd_table)

    verify_parser = sub.add_parser(
        "verify",
        parents=[common],
        help="run a verification suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="suites:\n"
        + "\n".join(f"  {name:<12} {desc}" for name, desc in _SUITES),
    )
    verify_parser.add_argument(
        "--suite",
        required=True,
        choices=[name for name, _ in _SUITES],
        metavar="NAME",
        help="suite name (see list below)",
    )
    verify_parser.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="override the suite's default size bound",
    )
    verify_parser.set_defaults(func=_cmd_verify)
    return parser


def run(argv: "list[str] | None" = None) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except CdsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
