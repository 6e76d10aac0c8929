"""The commands of the graph and matrix views: ``cdslab graph``,
``matrix``, ``convert`` and ``realize``.

``cli.run`` imports this module when it dispatches one of these commands,
so no other command compiles these handlers. Each handler imports the view
modules it runs, so ``matrix`` loads f2 alone.
"""

from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

from . import formats
from .cli import _emit, _read_text
from .errors import ContractError, InvalidMoveError

if TYPE_CHECKING:
    from . import f2, graphs


def _matrix_lines(m: f2.F2Matrix) -> list[str]:
    # split(), not splitlines(): a matrix with no rows has no lines
    return formats.format_matrix(m).split()


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
    from . import graphs

    g = formats.parse_graph(_read_text(args.data))
    sortable, dist = graphs.sortability(g)
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


def _swap(args: argparse.Namespace, swap, target, size: int, nouns: str):
    """swap(target, p, q) at the 1-based p, q of the command line, both
    checked against the target's size before the 0-based swap sees them."""
    if args.p < 1 or args.q < 1:
        raise InvalidMoveError(f"{nouns} are numbered from 1")
    if args.p > size or args.q > size:
        raise InvalidMoveError(
            f"cannot swap on {nouns} {args.p}, {args.q}: "
            f"{nouns} run from 1 to {size}"
        )
    try:
        return swap(target, args.p - 1, args.q - 1)
    except InvalidMoveError as exc:
        raise InvalidMoveError(
            f"cannot swap on {nouns} {args.p}, {args.q}: {exc}"
        ) from exc


def _cmd_graph_gcds(args: argparse.Namespace) -> int:
    from . import graphs

    g = formats.parse_graph(_read_text(args.data))
    moved = _swap(args, graphs.gcds, g, g.n, "vertices")
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
    placement = graphs.root_placement(g)
    flags = {"eulerian": graphs.is_eulerian(g), **{w: placement == w for w in "abc"}}
    text = " ".join(f"{k}={'yes' if v else 'no'}" for k, v in flags.items())
    _emit(args, text, {"command": "graph.props", "n": g.n, **flags})
    return 0


# ---------------------------------------------------------------------------
# matrix commands


def _cmd_matrix_mcds(args: argparse.Namespace) -> int:
    from . import f2

    m = formats.parse_matrix(_read_text(args.data))
    # the shape comes first: the indices of a non-square matrix have no range
    if not m.is_square:
        raise ContractError(f"mcds needs a square matrix, got {m.shape}")
    moved = _swap(args, f2.mcds, m, m.nrows, "indices")
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
    strings = _matrix_lines(f2.F2Matrix.from_row_bits(basis, m.ncols))
    lines = [f"dimension {len(basis)}"] + strings
    _emit(
        args,
        "\n".join(lines),
        {"command": "matrix.kernel", "dimension": len(basis), "basis": strings},
    )
    return 0


# ---------------------------------------------------------------------------
# conversion and realization


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
