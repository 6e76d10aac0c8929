"""Context-directed swap sorting on permutations, graphs, and matrices.

The swap operation acts on three equivalent representations:

* one-line permutations (:mod:`cdslab.perms`),
* two-rooted simple graphs (:mod:`cdslab.graphs`),
* symmetric zero-diagonal GF(2) matrices (:mod:`cdslab.f2`).

:mod:`cdslab.convert` moves between adjacency and precedence forms and
realizes abstract move graphs as permutations, :mod:`cdslab.counting`
counts and bounds the sortable population, :mod:`cdslab.oracle` holds
definitions-only brute-force re-implementations, and :mod:`cdslab.verify`
cross-checks the two against each other.
"""

from __future__ import annotations

from . import convert, counting, f2, formats, graphs, oracle, perms, verify
from .counting import (
    ConvergenceReport,
    CountReport,
    convergence_report,
    count_sortable,
    count_sortable_rank_sum,
)
from .convert import (
    adjacency_to_precedence,
    precedence_to_adjacency,
    realize_move_graph,
)
from .errors import (
    CdsLabError,
    ContractError,
    InternalInvariantError,
    InvalidMoveError,
    SizeLimitError,
)
from .f2 import F2Matrix, F2Vector, is_mcds_sortable, mcds, mcds_distance
from .graphs import RootedGraph, gcds, is_gcds_sortable
from .perms import (
    Permutation,
    apply_cds,
    cds_contexts,
    is_cds_sortable,
    move_graph,
    overlap_graph,
    sort_moves,
    strategic_pile,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "CdsLabError",
    "ContractError",
    "ConvergenceReport",
    "CountReport",
    "F2Matrix",
    "F2Vector",
    "InternalInvariantError",
    "InvalidMoveError",
    "Permutation",
    "RootedGraph",
    "SizeLimitError",
    "__version__",
    "adjacency_to_precedence",
    "apply_cds",
    "cds_contexts",
    "convergence_report",
    "convert",
    "count_sortable",
    "count_sortable_rank_sum",
    "counting",
    "f2",
    "formats",
    "gcds",
    "graphs",
    "is_cds_sortable",
    "is_gcds_sortable",
    "is_mcds_sortable",
    "mcds",
    "mcds_distance",
    "move_graph",
    "oracle",
    "overlap_graph",
    "perms",
    "precedence_to_adjacency",
    "realize_move_graph",
    "run_suite",
    "sort_moves",
    "strategic_pile",
    "verify",
]
