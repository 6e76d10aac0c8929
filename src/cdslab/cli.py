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

from . import convert, counting, f2, formats, graphs, oracle, perms, verify
from .errors import CdsLabError, ContractError, InvalidMoveError, SizeLimitError

__all__ = ["build_parser", "main", "run"]

_DATA_HELP = "literal text, a file path, or - for stdin (default: stdin)"

# The table computes three counts for every n up to max-n. On two cores it
# takes about 7 s at max-n 350, text or JSON, 10 s at 400 and 30 s at 500.
TABLE_LIMIT = 350


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
    return "(" + ",".join(map(str, pile.ordered)) + ")"


def _matrix_lines(m: f2.F2Matrix) -> list[str]:
    return formats.format_matrix(m).splitlines()


# ---------------------------------------------------------------------------
# permutation commands


def _cmd_perm_check(args: argparse.Namespace) -> int:
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
            "strategic_pile": list(pile.ordered),
        },
    )
    return 0


def _cmd_perm_sort(args: argparse.Namespace) -> int:
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
                "strategic_pile": list(pile.ordered),
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
    pi = formats.parse_permutation(_read_text(args.data))
    pile = perms.strategic_pile(pi)
    _emit(
        args,
        f"SP={_pile_text(pile)}",
        {
            "command": "perm.pile",
            "permutation": list(pi.elements),
            "strategic_pile": list(pile.ordered),
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


def _cmd_graph_gcds(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read_text(args.data))
    if args.p < 1 or args.q < 1:
        raise InvalidMoveError("vertices are numbered from 1")
    try:
        moved = graphs.gcds(g, args.p - 1, args.q - 1)
    except InvalidMoveError as exc:
        raise InvalidMoveError(
            f"cannot swap on vertices {args.p}, {args.q}: {exc}"
        ) from exc
    _emit(args, formats.format_graph(moved), _graph_payload("graph.gcds", moved))
    return 0


def _cmd_graph_cuts(args: argparse.Namespace) -> int:
    g = formats.parse_graph(_read_text(args.data))
    cuts = graphs.generalized_parity_cuts(g)
    lines = [f"{len(cuts)} cuts"]
    listed = []
    for cut in cuts:
        verts = [v + 1 for v in cut.vertices]
        listed.append(verts)
        lines.append("{" + ",".join(map(str, verts)) + "}")
    _emit(
        args,
        "\n".join(lines),
        {"command": "graph.cuts", "n": g.n, "count": len(cuts), "cuts": listed},
    )
    return 0


def _cmd_graph_props(args: argparse.Namespace) -> int:
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
    m = formats.parse_matrix(_read_text(args.data))
    if args.p < 1 or args.q < 1:
        raise InvalidMoveError("indices are numbered from 1")
    try:
        moved = f2.mcds(m, args.p - 1, args.q - 1)
    except InvalidMoveError as exc:
        raise InvalidMoveError(
            f"cannot swap on indices {args.p}, {args.q}: {exc}"
        ) from exc
    _emit(
        args,
        formats.format_matrix(moved),
        {"command": "matrix.mcds", "rows": _matrix_lines(moved)},
    )
    return 0


def _cmd_matrix_rank(args: argparse.Namespace) -> int:
    m = formats.parse_matrix(_read_text(args.data))
    r = f2.rank(m)
    _emit(
        args,
        str(r),
        {"command": "matrix.rank", "shape": [m.nrows, m.ncols], "rank": r},
    )
    return 0


def _cmd_matrix_kernel(args: argparse.Namespace) -> int:
    m = formats.parse_matrix(_read_text(args.data))
    basis = f2.kernel_basis(m)
    strings = [
        "".join("1" if (v.bits >> j) & 1 else "0" for j in range(m.ncols))
        for v in basis
    ]
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
    if args.method == "brute_force":
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
            "ratio": f"{formats.format_int(rep.ratio.numerator)}/"
            f"{formats.format_int(rep.ratio.denominator)}",
        },
    )
    return 0


def _table_rows(max_n: int, brute: bool) -> list[dict[str, object]]:
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
    if args.max_n < 3:
        raise ContractError(f"the table starts at n=3, got max-n {args.max_n}")
    # checked before the first row, so a table that cannot finish fails at once
    if args.max_n > counting.COUNT_LIMIT:
        raise SizeLimitError(
            f"counts limited to n <= {counting.COUNT_LIMIT}, got {args.max_n}"
        )
    if args.max_n > TABLE_LIMIT:
        raise SizeLimitError(
            f"table limited to max-n <= {TABLE_LIMIT}, got {args.max_n}"
        )
    if args.brute_force and args.max_n > oracle.CENSUS_LIMIT:
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
    report = verify.run_suite(args.suite, max_n=args.max_n)
    if args.json:
        print(formats.format_json({"command": "verify", **report.to_json()}))
    else:
        print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


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

    perm = sub.add_parser("perm", help="permutation queries")
    perm_sub = perm.add_subparsers(dest="perm_command", required=True)
    for name, fn, help_text in (
        ("sort", _cmd_perm_sort, "emit a full sorting move sequence"),
        ("check", _cmd_perm_check, "sortability verdict with the pile"),
        ("cycles", _cmd_perm_cycles, "cycle form of the composed map"),
        ("pile", _cmd_perm_pile, "the strategic pile"),
    ):
        p = perm_sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("data", nargs="?", help=_DATA_HELP)
        p.set_defaults(func=fn)

    graph = sub.add_parser("graph", help="two-rooted graph queries")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    for name, fn, wants_context, help_text in (
        ("check", _cmd_graph_check, False, "sortability verdict and distance"),
        ("gcds", _cmd_graph_gcds, True, "apply one swap on vertices p, q"),
        ("cuts", _cmd_graph_cuts, False, "list every generalized parity cut"),
        ("props", _cmd_graph_props, False, "root-placement properties a, b, c"),
    ):
        p = graph_sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("data", nargs="?", help=_DATA_HELP)
        if wants_context:
            p.add_argument("p", type=int, help="first vertex (1-based)")
            p.add_argument("q", type=int, help="second vertex (1-based)")
        p.set_defaults(func=fn)

    matrix = sub.add_parser("matrix", help="GF(2) matrix queries")
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)
    for name, fn, wants_context, help_text in (
        ("mcds", _cmd_matrix_mcds, True, "apply one swap at indices p, q"),
        ("rank", _cmd_matrix_rank, False, "rank over GF(2)"),
        ("kernel", _cmd_matrix_kernel, False, "kernel basis vectors"),
    ):
        p = matrix_sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("data", nargs="?", help=_DATA_HELP)
        if wants_context:
            p.add_argument("p", type=int, help="first index (1-based)")
            p.add_argument("q", type=int, help="second index (1-based)")
        p.set_defaults(func=fn)

    conv = sub.add_parser("convert", help="adjacency/precedence conversions")
    conv_sub = conv.add_subparsers(dest="convert_command", required=True)
    for name, help_text in (
        ("adj2prec", "overlap adjacency to precedence matrix"),
        ("prec2adj", "precedence matrix to overlap adjacency"),
    ):
        p = conv_sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("data", nargs="?", help=_DATA_HELP)
        p.set_defaults(func=_cmd_convert)

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
        choices=counting.COUNT_METHODS,
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

    suites = verify.available_suites()
    verify_parser = sub.add_parser(
        "verify",
        parents=[common],
        help="run a verification suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="suites:\n"
        + "\n".join(f"  {name:<12} {desc}" for name, desc in suites),
    )
    verify_parser.add_argument(
        "--suite",
        required=True,
        choices=[name for name, _ in suites],
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
