"""Two-rooted simple graphs and graph context-directed swaps (gcds).

Vertices are 0-based; the two roots are always pinned at indices 0 and n-1.
Use RootedGraph.from_edges with explicit roots to relabel arbitrary input.
"""
from __future__ import annotations

from typing import Iterable

from . import f2
from .errors import ContractError, InvalidMoveError, SizeLimitError

__all__ = [
    "RootedGraph",
    "gcds",
    "context_pairs",
    "is_eulerian",
    "is_gcds_sortable",
    "generalized_parity_cuts",
    "has_property",
]

GENERALIZED_CUT_LIMIT = 24


class RootedGraph:
    """Simple graph with two distinguished roots at vertex 0 and vertex n-1."""

    __slots__ = ("adjacency",)

    def __init__(self, adjacency: f2.F2Matrix):
        if not adjacency.is_square:
            raise ContractError(
                "adjacency matrix must be square, got "
                f"{adjacency.nrows}x{adjacency.ncols}"
            )
        if adjacency.nrows < 2:
            raise ContractError("a two-rooted graph needs at least 2 vertices")
        if not adjacency.is_symmetric():
            raise ContractError("adjacency matrix must be symmetric")
        if not adjacency.is_zero_diagonal():
            raise ContractError("adjacency matrix must have a zero diagonal")
        object.__setattr__(self, "adjacency", adjacency)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RootedGraph is immutable")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        root1: int = 0,
        root2: int | None = None,
    ) -> "RootedGraph":
        """The graph on vertices 0..n-1 with these edges, relabelled so that
        root1 becomes vertex 0 and root2 vertex n-1, the other vertices
        keeping their relative order."""
        if root2 is None:
            root2 = n - 1
        if root1 == root2 or not (0 <= root1 < n and 0 <= root2 < n):
            raise ContractError("roots must be two distinct vertices")
        order = [root1] + [v for v in range(n) if v not in (root1, root2)] + [root2]
        relabel = [0] * n
        for new, old in enumerate(order):
            relabel[old] = new
        rows = [0] * n
        for k, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ContractError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise ContractError(f"self-loop at vertex {u} not allowed")
            a, b = relabel[u], relabel[v]
            if (rows[a] >> b) & 1:
                raise ContractError(f"edge {k + 1} of the list repeats an earlier one")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(f2.F2Matrix.from_row_bits(rows, n))

    @property
    def n(self) -> int:
        return self.adjacency.nrows

    @property
    def roots(self) -> tuple[int, int]:
        return (0, self.n - 1)

    def degree(self, v: int) -> int:
        return self.adjacency.rows[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency.rows[u] >> v) & 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.n):
            r = self.adjacency.rows[u] >> (u + 1)
            v = u + 1
            while r:
                if r & 1:
                    out.append((u, v))
                r >>= 1
                v += 1
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootedGraph):
            return NotImplemented
        return self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"RootedGraph(n={self.n}, edges={list(self.edges())})"


def _check_non_root_pair(g: RootedGraph, p: int, q: int) -> None:
    n = g.n
    if not (0 <= p < n and 0 <= q < n):
        raise InvalidMoveError(f"vertices ({p}, {q}) out of range for size {n}")
    if p == q:
        raise InvalidMoveError("a context needs two distinct vertices")
    if p in g.roots or q in g.roots:
        raise InvalidMoveError("root vertices cannot be used as a context")
    if not g.has_edge(p, q):
        raise InvalidMoveError(f"vertices {p} and {q} are not adjacent")


def gcds(g: RootedGraph, p: int, q: int) -> RootedGraph:
    """Graph context-directed swap on adjacent non-root vertices p, q.

    The new edge rule, evaluated mod 2 over the old graph: u ~ v afterwards
    iff  adj(p,u)*adj(q,v) + adj(q,u)*adj(p,v) + adj(u,v)  is odd. The rule
    isolates p and q and complements edges between the p-side and q-side
    neighborhoods. It is the matrix swap A + AEA of f2.mcds.
    """
    _check_non_root_pair(g, p, q)
    return RootedGraph(f2.mcds(g.adjacency, p, q))


def context_pairs(g: RootedGraph) -> list[tuple[int, int]]:
    """All usable contexts: adjacent non-root vertex pairs (p, q), p < q."""
    from .perms import _context_pairs

    return list(_context_pairs(g.adjacency.rows))


def is_eulerian(g: RootedGraph) -> bool:
    """True when every vertex has even degree."""
    return g.adjacency.is_eulerian_rows()


def is_gcds_sortable(g: RootedGraph) -> bool:
    """Kernel criterion: the kernel of the adjacency matrix must contain a
    vector picking up root 0 but not root n-1, and one the other way round."""
    if g.n < 2:
        raise ContractError("sortability needs at least 2 vertices")
    return f2.is_mcds_sortable(g.adjacency)


def generalized_parity_cuts(g: RootedGraph) -> list[int]:
    """Every generalized parity cut, i.e. the whole kernel of the adjacency
    matrix, as vertex bit masks in ascending order.

    Limited to n <= 24 vertices; above that use f2.kernel_basis directly.
    """
    n = g.n
    if n > GENERALIZED_CUT_LIMIT:
        raise SizeLimitError(
            f"enumeration limited to n <= {GENERALIZED_CUT_LIMIT}; "
            "use f2.kernel_basis for a compact description"
        )
    members = {0}
    for b in f2.kernel_basis(g.adjacency):
        members |= {m ^ b for m in members}
    return sorted(members)


def has_property(g: RootedGraph, which: str) -> bool:
    """Feasibility of the three root-placement properties.

    a: some partition with even cross-degree everywhere separates the roots.
    b: some partition with even cross-degree at non-roots and odd cross-degree
       at both roots separates the roots.
    c: some partition with even cross-degree at non-roots and odd cross-degree
       at both roots keeps the roots together.

    Each reduces to an affine linear system over GF(2): the cross-degree
    parity of vertex v for a subset x is ((A + D) x)_v with D = diag(deg mod 2).
    """
    if which not in ("a", "b", "c"):
        raise ContractError(f"unknown property {which!r}")
    n = g.n
    if n < 2:
        raise ContractError("properties need at least 2 vertices")
    # Row v of (A + D): the adjacency row with the degree parity on the
    # diagonal (the diagonal of A itself is zero).
    sys_rows = [
        r | ((r.bit_count() & 1) << v) for v, r in enumerate(g.adjacency.rows)
    ]
    r1, r2 = 0, n - 1
    rhs = 0
    if which in ("b", "c"):
        rhs |= (1 << r1) | (1 << r2)
    # Pin the root coordinates with two extra unit-row equations.
    pin_rows = [1 << r1, 1 << r2]
    pin_rhs_bits = {
        "a": (1, 0),
        "b": (1, 0),
        "c": (1, 1),
    }[which]
    all_rows = sys_rows + pin_rows
    full_rhs = rhs | (pin_rhs_bits[0] << n) | (pin_rhs_bits[1] << (n + 1))
    sol = f2._solve_mask(all_rows, n, full_rhs)
    return sol is not None
