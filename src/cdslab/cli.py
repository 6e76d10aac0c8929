"""Command line interface for the cdslab toolkit.

Exit codes: 0 on success (including queries whose answer is negative, such
as an UNSORTABLE verdict from ``perm check``), 1 on domain failures
(invalid moves, unrealizable inputs, failed verification, malformed data),
2 on usage errors. ``--json`` swaps the text output for one stable JSON
object per invocation.

This module holds the parser and the count, table and verify commands. The
perm commands are in ``cli_perm`` and the graph, matrix, convert and realize
commands in ``cli_gf2``; the parser names each handler by module and
function, and ``run`` imports the module when it dispatches, so a process
compiles only the handlers of its own command.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

# counting, oracle and verify are imported by the commands that use them, and
# the view modules by the handlers in cli_perm and cli_gf2, so a fresh
# process loads only what its subcommand needs: count loads none of the
# three views.
from . import formats
from .errors import CdsLabError

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


# ---------------------------------------------------------------------------
# counting and verification


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

    counting.check_table_size(args.max_n)
    if args.brute_force:
        from . import oracle

        oracle.check_census_size(args.max_n)
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
# (group, command, handler module, handler, help), in help order; run imports
# the handler's module when it dispatches
_COMMANDS = (
    ("perm", "sort", "cli_perm", "_cmd_perm_sort",
     "emit a full sorting move sequence"),
    ("perm", "check", "cli_perm", "_cmd_perm_check",
     "sortability verdict with the pile"),
    ("perm", "cycles", "cli_perm", "_cmd_perm_cycles",
     "cycle form of the composed map"),
    ("perm", "pile", "cli_perm", "_cmd_perm_pile",
     "the strategic pile"),
    ("graph", "check", "cli_gf2", "_cmd_graph_check",
     "sortability verdict and distance"),
    ("graph", "gcds", "cli_gf2", "_cmd_graph_gcds",
     "apply one swap on vertices p, q"),
    ("graph", "cuts", "cli_gf2", "_cmd_graph_cuts",
     "list every generalized parity cut"),
    ("graph", "props", "cli_gf2", "_cmd_graph_props",
     "root-placement properties a, b, c"),
    ("matrix", "mcds", "cli_gf2", "_cmd_matrix_mcds",
     "apply one swap at indices p, q"),
    ("matrix", "rank", "cli_gf2", "_cmd_matrix_rank",
     "rank over GF(2)"),
    ("matrix", "kernel", "cli_gf2", "_cmd_matrix_kernel",
     "kernel basis vectors"),
    ("convert", "adj2prec", "cli_gf2", "_cmd_convert",
     "overlap adjacency to precedence matrix"),
    ("convert", "prec2adj", "cli_gf2", "_cmd_convert",
     "precedence matrix to overlap adjacency"),
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
    for group, name, module, fn, help_text in _COMMANDS:
        p = groups[group].add_parser(name, parents=[common], help=help_text)
        p.add_argument("data", nargs="?", help=_DATA_HELP)
        noun = _INDEX_NOUNS.get(name)
        if noun:
            p.add_argument("p", type=int, help=f"first {noun} (1-based)")
            p.add_argument("q", type=int, help=f"second {noun} (1-based)")
        p.set_defaults(handler=(module, fn))

    realize = sub.add_parser(
        "realize",
        parents=[common],
        help="find a permutation whose move graph is the given matrix",
    )
    realize.add_argument("data", nargs="?", help=_DATA_HELP)
    realize.set_defaults(handler=("cli_gf2", "_cmd_realize"))

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
    count.set_defaults(handler=("cli", "_cmd_count"))

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
    table.set_defaults(handler=("cli", "_cmd_table"))

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
    verify_parser.set_defaults(handler=("cli", "_cmd_verify"))
    return parser


def run(argv: "list[str] | None" = None) -> int:
    """Parse and execute one invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    module, name = args.handler
    handler = getattr(importlib.import_module(f"{__package__}.{module}"), name)
    try:
        return handler(args)
    except CdsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        # flush here, so that a reader that closed the pipe is seen now
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        # so that flush does not fail too, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
