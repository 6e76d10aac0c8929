"""Counting sortable two-rooted graphs.

Everything here is exact. Counts are arbitrary-precision ints, each list
built by its own integer ratio recurrence with exact division. A count's
density is kept as its count and total, and CountReport.ratio builds the
lowest-terms fractions.Fraction only when read, so the counts never import
fractions. The certificate for the limiting sortable density, which reads
the closed formula's term recurrence, is in cdslab.convergence.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractError, InternalInvariantError, SizeLimitError

# Only the two center functions use f2, and only the ratio uses fractions,
# and each imports what it needs, so the counts load neither matrix code nor
# fractions (with decimal and numbers).
if TYPE_CHECKING:
    from fractions import Fraction

    from .f2 import F2Matrix

__all__ = [
    "CountReport",
    "COUNT_METHODS",
    "COUNT_LIMIT",
    "TABLE_LIMIT",
    "check_count_floor",
    "check_table_size",
    "block_construct",
    "sortable_extensions_count",
    "macwilliams_count",
    "count_sortable",
    "count_sortable_rank_sum",
]

COUNT_METHODS = ("closed_formula", "rank_sum", "brute_force")
COUNT_LIMIT = 2000
# The count table and the verify table suite count every n up to their max-n;
# on two cores the table takes about 7 s at max-n 350, 10 s at 400, 30 s at 500.
TABLE_LIMIT = 350


class _CountFields(NamedTuple):
    n: int
    method: str
    eulerian: bool
    count: int
    total: int


class CountReport(_CountFields):
    """A sortable-graph count together with its population and density.

    The population is 2**C(n, 2) graphs, so the total must be a power of two.
    A report is a tuple of its fields, so it also compares equal to a plain
    tuple of the same values; building one by any route validates it. The
    density count/total is derived from them, never stored.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, method: str, eulerian: bool, count: int, total: int
    ) -> "CountReport":
        if method not in COUNT_METHODS:
            raise ContractError(f"unknown counting method {method!r}")
        if not 0 <= count <= total:
            raise ContractError(f"count {count} outside [0, {total}]")
        if total < 1 or total & (total - 1):
            raise ContractError(f"total {total} is not a power of two")
        return super().__new__(cls, n, method, eulerian, count, total)

    @classmethod
    def _make(cls, iterable) -> "CountReport":
        # NamedTuple's _make, and _replace through it, skip __new__
        return cls(*iterable)

    @classmethod
    def build(cls, n: int, method: str, eulerian: bool, count: int) -> "CountReport":
        return cls(n, method, eulerian, count, 1 << (n * (n - 1) // 2))

    @property
    def reduced(self) -> tuple[int, int]:
        """count/total in lowest terms, as (numerator, denominator).

        The total is a power of two, so the gcd is 2 to count's trailing
        zeros: shifting them out reduces the ratio without a full gcd, which
        takes seconds at n = 2000.
        """
        count, edges = self.count, self.total.bit_length() - 1
        shift = min((count & -count).bit_length() - 1, edges) if count else edges
        return count >> shift, 1 << (edges - shift)

    @property
    def ratio(self) -> Fraction:
        """count/total as a Fraction in lowest terms, built when read."""
        from fractions import Fraction

        # the two slots are set as Fraction's own coprime constructor does
        ratio = object.__new__(Fraction)
        ratio._numerator, ratio._denominator = self.reduced
        return ratio


def block_construct(a: F2Matrix, u1: int, u2: int) -> F2Matrix:
    """Extend an n x n center to an (n+2) x (n+2) two-rooted adjacency matrix.

    The two border rows are a @ u1 and a @ u2, and the root-to-root corner
    entry is (a @ u1) . u2. The borders are n-bit masks, refused by mat_vec
    when they do not fit. The center must be symmetric with zero diagonal;
    the output then is too, and is always swap-sortable.
    """
    from . import f2

    f2.check_adjacency(a, "center")
    n = a.nrows
    b1 = a.mat_vec(u1)
    b2 = a.mat_vec(u2)
    corner = (b1 & u2).bit_count() & 1
    rows = [(b1 << 1) | (corner << (n + 1))]
    for i, r in enumerate(a.rows):
        rows.append((b1 >> i & 1) | (r << 1) | ((b2 >> i & 1) << (n + 1)))
    rows.append(corner | (b2 << 1))
    return f2.F2Matrix.from_row_bits(rows, n + 2)


def sortable_extensions_count(a: F2Matrix, eulerian: bool = False) -> int:
    """Number of sortable two-rooted extensions of a given center.

    Each center of rank r admits 4**r sortable extensions, of which 2**r
    are Eulerian.
    """
    from . import f2

    f2.check_adjacency(a, "center")
    base = 2 if eulerian else 4
    return base ** f2.rank(a)


def _rank_counts(t: int) -> list[int]:
    """N(t, s) = macwilliams_count(t, 2s) for s = 0 .. t // 2, by the ratio
    N(t, s+1) / N(t, s) = 2^{2s} (2^{t-2s}-1)(2^{t-2s-1}-1) / (4^{s+1}-1).
    Every N(t, s) is an integer, so each division is exact."""
    counts = [1]
    for s in range(t // 2):
        pair = ((1 << (t - 2 * s)) - 1) * ((1 << (t - 2 * s - 1)) - 1)
        count, rem = divmod((counts[-1] << 2 * s) * pair, (4 << 2 * s) - 1)
        if rem:
            raise InternalInvariantError(f"rank count N({t}, {s + 1}) is not integral")
        counts.append(count)
    return counts


def macwilliams_count(t: int, r: int) -> int:
    """Number of symmetric zero-diagonal t x t GF(2) matrices of rank r.

    Such matrices have even rank, so the count is 0 for odd r. For r = 2s
    the count is prod_{i=1}^{s} 2^{2i-2}/(2^{2i}-1) * prod_{i=0}^{2s-1}
    (2^{t-i}-1), which is always an integer. Sizes above COUNT_LIMIT raise
    SizeLimitError.
    """
    if t < 0 or not 0 <= r <= t:
        raise ContractError(f"rank {r} out of range for size {t}")
    if t > COUNT_LIMIT:
        raise SizeLimitError(f"counts limited to t <= {COUNT_LIMIT}, got {t}")
    return 0 if r % 2 else _rank_counts(t)[r // 2]


def _closed_formula_terms(n: int, eulerian: bool) -> list[int]:
    """Terms s = 0 .. n // 2 - 1 of the closed formula on n vertices.

    With t = n - 2, term s is 2^{e(s)} prod_{i=0}^{2s-1} (2^{t-i}-1) /
    prod_{i=1}^{s} (4^i-1), where e(s) = s(s+3), or s(s+3)/2 in the
    Eulerian variant. Term 0 is 1; term s+1 is term s times 2^{e(s+1)-e(s)}
    (2^{t-2s}-1)(2^{t-2s-1}-1) / (4^{s+1}-1), an exact division.
    """
    t = n - 2
    terms = [1]
    for s in range(n // 2 - 1):
        shift = s + 2 if eulerian else 2 * s + 4
        pair = ((1 << (t - 2 * s)) - 1) * ((1 << (t - 2 * s - 1)) - 1)
        term, rem = divmod((terms[-1] << shift) * pair, (4 << 2 * s) - 1)
        if rem:
            raise InternalInvariantError(
                f"closed-form term {s + 1} for n={n} is not integral"
            )
        terms.append(term)
    return terms


def check_count_floor(n: int) -> None:
    """Refuse sizes below the formulas' domain, which every count method shares."""
    if n < 3:
        raise ContractError(f"counting needs n >= 3, got {n}")


def check_table_size(max_n: int) -> None:
    """Refuse a count table that starts no row (max_n below 3) or runs past
    TABLE_LIMIT, before its first row, so a table that cannot finish fails
    at once."""
    if max_n < 3:
        raise ContractError(f"the table starts at n=3, got max-n {max_n}")
    if max_n > TABLE_LIMIT:
        raise SizeLimitError(f"table limited to max-n <= {TABLE_LIMIT}, got {max_n}")


def _check_count_size(n: int) -> None:
    check_count_floor(n)
    if n > COUNT_LIMIT:
        raise SizeLimitError(f"counts limited to n <= {COUNT_LIMIT}, got {n}")


def count_sortable(n: int, eulerian: bool = False) -> CountReport:
    """Closed-form count of sortable two-rooted graphs on n vertices.

    The general and Eulerian variants differ only in the power-of-two
    factor per term (2^{s(s+3)} vs 2^{s(s+3)/2}). The general variant
    agrees with the rank-sum aggregation for every n; the Eulerian variant
    does not from n = 6 on, so both are reported and the brute-force census
    adjudicates at small sizes. Sizes above COUNT_LIMIT raise
    SizeLimitError.
    """
    _check_count_size(n)
    return CountReport.build(
        n, "closed_formula", eulerian, sum(_closed_formula_terms(n, eulerian))
    )


def count_sortable_rank_sum(n: int, eulerian: bool = False) -> CountReport:
    """Count sortable two-rooted graphs by summing extensions over centers.

    Aggregates sortable_extensions_count over all possible centers by rank:
    sum over s of coeff^{2s} * macwilliams_count(n-2, 2s) with coeff 4 in
    general and 2 in the Eulerian case. Sizes above COUNT_LIMIT raise
    SizeLimitError.
    """
    _check_count_size(n)
    shift = 2 if eulerian else 4
    count = sum(c << (shift * s) for s, c in enumerate(_rank_counts(n - 2)))
    return CountReport.build(n, "rank_sum", eulerian, count)
