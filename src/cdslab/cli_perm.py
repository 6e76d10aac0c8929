"""The ``cdslab perm`` commands: sort, check, cycles and pile.

``cli.run`` imports this module when it dispatches a perm command, so no
other command compiles these handlers.
"""

from __future__ import annotations

import argparse

from . import formats, perms
from .cli import _emit, _read_text


def _pile_text(pile: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, pile)) + ")"


def _cmd_perm_check(args: argparse.Namespace) -> int:
    pi = formats.parse_permutation(_read_text(args.data))
    pile = perms.strategic_pile(pi)
    text = f"UNSORTABLE SP={_pile_text(pile)}" if pile else "SORTABLE"
    _emit(
        args,
        text,
        {
            "command": "perm.check",
            "permutation": list(pi.elements),
            "sortable": not pile,
            "strategic_pile": list(pile),
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
            "strategic_pile": list(pile),
            "empty": not pile,
        },
    )
    return 0
