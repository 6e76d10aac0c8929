"""Context-directed swap sorting on permutations, graphs, and matrices.

The swap operation acts on three equivalent representations:

* one-line permutations (:mod:`cdslab.perms`),
* two-rooted simple graphs (:mod:`cdslab.graphs`),
* symmetric zero-diagonal GF(2) matrices (:mod:`cdslab.f2`).

:mod:`cdslab.convert` moves between adjacency and precedence forms and
realizes abstract move graphs as permutations, :mod:`cdslab.counting`
counts the sortable population and :mod:`cdslab.convergence` certifies its
limiting density, :mod:`cdslab.oracle` (the census) and
:mod:`cdslab.oracle_search` (searches and scans) hold definitions-only
brute-force re-implementations, and :mod:`cdslab.verify` cross-checks the
two sides against each other.

Importing the package loads none of these modules. Each submodule, and
each name in ``__all__``, is imported on first access (PEP 562), so a
``cdslab`` command pays only for the modules it uses: the ``perm`` commands
load ``perms`` alone of the three views, and ``count`` loads ``counting``
(with the census in ``oracle`` for its brute-force method) but none of
``f2``, ``graphs``, ``perms``, ``oracle_search`` and ``convergence``, and no
``fractions``. No module uses dataclasses, and JSON output is written
without the ``json`` package. ``from cdslab import X`` and
``from cdslab import *`` work as before.
"""

from __future__ import annotations

import importlib

# The names in __all__ that are not modules, by the module that defines them.
_EXPORTS = {
    "convergence": ("ConvergenceReport", "convergence_report"),
    "counting": ("CountReport", "count_sortable", "count_sortable_rank_sum"),
    "convert": (
        "adjacency_to_precedence",
        "precedence_to_adjacency",
        "realize_move_graph",
    ),
    "errors": (
        "CdsLabError",
        "ContractError",
        "InternalInvariantError",
        "InvalidMoveError",
        "SizeLimitError",
    ),
    "f2": ("F2Matrix", "is_mcds_sortable", "mcds", "mcds_distance"),
    "graphs": ("RootedGraph", "gcds", "is_gcds_sortable"),
    "perms": (
        "Permutation",
        "apply_cds",
        "cds_contexts",
        "is_cds_sortable",
        "move_graph",
        "overlap_graph",
        "sort_moves",
        "strategic_pile",
    ),
    "verify": ("run_suite",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"formats", "oracle", "oracle_search"}

__version__ = "0.1.0"

# The errors module stays out: its classes are exported by name.
__all__ = sorted({"__version__", *_HOMES, *_MODULES - {"errors"}})


def __getattr__(name: str) -> object:
    """Import a submodule, or the module a public name lives in, on first use."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
