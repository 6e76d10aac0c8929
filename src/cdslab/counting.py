"""Counting sortable two-rooted graphs and the limiting sortable density.

Everything here is exact. Counts and series terms are arbitrary-precision
ints, each list built by its own integer ratio recurrence with exact
division; fractions.Fraction appears only where the answer is a ratio (the
densities, their series terms, and the convergence bounds). A count's
density is kept as its count and total, and CountReport.ratio builds the
Fraction only when read, so the counts never import fractions. The
irrational constants entering the convergence bounds (sqrt(2) and
quantities derived from it) are handled by rational sandwiching so every
reported inequality is a certified one.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractError, InternalInvariantError, SizeLimitError

# Only the two center functions use f2, and only the ratio and the
# convergence bounds use fractions, and each imports what it needs, so the
# counts load neither matrix code nor fractions (with decimal and numbers).
if TYPE_CHECKING:
    from fractions import Fraction

    from .f2 import F2Matrix

__all__ = [
    "CountReport",
    "ConvergenceReport",
    "COUNT_METHODS",
    "COUNT_LIMIT",
    "TABLE_LIMIT",
    "CONVERGENCE_LIMIT",
    "check_count_floor",
    "check_table_size",
    "block_construct",
    "sortable_extensions_count",
    "macwilliams_count",
    "count_sortable",
    "count_sortable_rank_sum",
    "sqrt2_bounds",
    "convergence_report",
]

COUNT_METHODS = ("closed_formula", "rank_sum", "brute_force")
COUNT_LIMIT = 2000
# The count table and the verify table suite count every n up to their max-n;
# on two cores the table takes about 7 s at max-n 350, 10 s at 400, 30 s at 500.
TABLE_LIMIT = 350
# convergence_report's time grows about as max_n^5, to seconds at max_n = 120
CONVERGENCE_LIMIT = 120


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


def _check_center(a: F2Matrix) -> None:
    """Refuse a center that is not a symmetric zero-diagonal square."""
    if not a.is_square:
        raise ContractError(f"center must be square, got {a.shape}")
    if not a.is_symmetric():
        raise ContractError("center must be symmetric")
    if not a.is_zero_diagonal():
        raise ContractError("center must have a zero diagonal")


def block_construct(a: F2Matrix, u1: int, u2: int) -> F2Matrix:
    """Extend an n x n center to an (n+2) x (n+2) two-rooted adjacency matrix.

    The two border rows are a @ u1 and a @ u2, and the root-to-root corner
    entry is (a @ u1) . u2. The borders are n-bit masks, refused by mat_vec
    when they do not fit. The center must be symmetric with zero diagonal;
    the output then is too, and is always swap-sortable.
    """
    _check_center(a)
    from .f2 import F2Matrix

    n = a.nrows
    b1 = a.mat_vec(u1)
    b2 = a.mat_vec(u2)
    corner = (b1 & u2).bit_count() & 1
    rows = [(b1 << 1) | (corner << (n + 1))]
    for i, r in enumerate(a.rows):
        rows.append((b1 >> i & 1) | (r << 1) | ((b2 >> i & 1) << (n + 1)))
    rows.append(corner | (b2 << 1))
    return F2Matrix.from_row_bits(rows, n + 2)


def sortable_extensions_count(a: F2Matrix, eulerian: bool = False) -> int:
    """Number of sortable two-rooted extensions of a given center.

    Each center of rank r admits 4**r sortable extensions, of which 2**r
    are Eulerian.
    """
    _check_center(a)
    from . import f2

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
    """Refuse a count table past TABLE_LIMIT before its first row, so a table
    that cannot finish fails at once."""
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


def _even_terms(n: int) -> tuple[list[int], int]:
    """Numerators of the series terms of x_n and their common denominator,
    the number of graphs on 2n vertices."""
    return _closed_formula_terms(2 * n, False), 1 << (n * (2 * n - 1))


def sqrt2_bounds(bits: int = 70) -> tuple[Fraction, Fraction]:
    """Rational sandwich lo < sqrt(2) < hi with hi - lo = 2**-bits."""
    if bits < 1:
        raise ContractError(f"need at least 1 bit of precision, got {bits}")
    from fractions import Fraction

    scale = 1 << bits
    root = math.isqrt(2 * scale * scale)
    lo = Fraction(root, scale)
    hi = Fraction(root + 1, scale)
    if not lo * lo < 2 < hi * hi:
        raise InternalInvariantError("sqrt(2) sandwich failed")
    return lo, hi


class ConvergenceReport(NamedTuple):
    """Exact diagnostics for the convergence of the sortable density.

    x_n denotes the density on 2n vertices. decay_base and decay_scale
    bound the constants c = 4 - 2*sqrt(2) and T = 6*(sqrt(2) + 1) of the
    geometric tail bound |x_{n+1} - x_n| < T * c^-n. limit_lower is a
    certified lower bound for lim x_n.
    """

    max_n: int
    even_proportions: dict[int, Fraction]
    sqrt2_low: Fraction
    sqrt2_high: Fraction
    decay_base_low: Fraction
    decay_base_high: Fraction
    decay_scale_low: Fraction
    decay_scale_high: Fraction
    x100: Fraction
    tail_high: Fraction
    limit_lower: Fraction
    checks: dict[str, bool]
    failures: tuple[str, ...]

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


def convergence_report(max_n: int = 50) -> ConvergenceReport:
    """Certify the convergence bounds for the sortable density, exactly.

    Checks, for 10 <= n <= max_n, with k replaced by its rational sandwich
    in the direction that makes each check at least as strong as the claim:

    - ratio_bounds: 1 - k^-n < term(n+1, s+1)/term(n, s) < 1 + k^-n for
      ceil(n/3) <= s <= n - 1 (the s = n term is zero, so the ratio is
      only formed where the denominator is nonzero).
    - term_bounds: term(n, s) < k^-n for 0 <= s <= floor(2n/3).
    - delta_linear: |x_{n+1} - x_n| <= 3n * k^-n.
    - delta_geometric: |x_{n+1} - x_n| <= T * c^-n.
    - series_consistent: the terms re-sum to the rank-sum density, an
      independent formula, for 2 <= n <= min(max_n, 12).
    - constants: the rational sandwiches are valid and c > 1, T > 0.
    - x100_above_one_fifth and limit_positive_margin: x_100 > 1/5 and
      x_100 minus a certified tail upper bound is at least 4/25.

    Sizes above CONVERGENCE_LIMIT raise SizeLimitError.
    """
    if max_n < 10:
        raise ContractError(f"convergence report needs max_n >= 10, got {max_n}")
    if max_n > CONVERGENCE_LIMIT:
        raise SizeLimitError(
            f"convergence report limited to max_n <= {CONVERGENCE_LIMIT}, got {max_n}"
        )
    from fractions import Fraction

    k_lo, k_hi = sqrt2_bounds()
    c_lo, c_hi = 4 - 2 * k_hi, 4 - 2 * k_lo
    t_lo, t_hi = 6 * (k_lo + 1), 6 * (k_hi + 1)

    terms: dict[tuple[int, int], Fraction] = {}
    even: dict[int, Fraction] = {}
    for n in range(1, max_n + 2):
        row, total = _even_terms(n)
        for s, value in enumerate(row):
            terms[(n, s)] = Fraction(value, total)
        even[n] = Fraction(sum(row), total)

    checks: dict[str, bool] = {}
    failures: list[str] = []

    ok = True
    for n in range(10, max_n + 1):
        margin = k_hi ** -n
        for s in range((n + 2) // 3, n):
            ratio = terms[(n + 1, s + 1)] / terms[(n, s)]
            if not 1 - margin < ratio < 1 + margin:
                ok = False
                failures.append(f"ratio bound fails at n={n}, s={s}")
    checks["ratio_bounds"] = ok

    ok = True
    for n in range(10, max_n + 1):
        bound = k_hi ** -n
        for s in range(2 * n // 3 + 1):
            if not terms[(n, s)] < bound:
                ok = False
                failures.append(f"term bound fails at n={n}, s={s}")
    checks["term_bounds"] = ok

    ok_linear = True
    ok_geometric = True
    for n in range(10, max_n + 1):
        delta = abs(even[n + 1] - even[n])
        if not delta <= 3 * n * k_hi ** -n:
            ok_linear = False
            failures.append(f"linear delta bound fails at n={n}")
        if not delta <= t_lo * c_hi ** -n:
            ok_geometric = False
            failures.append(f"geometric delta bound fails at n={n}")
    checks["delta_linear"] = ok_linear
    checks["delta_geometric"] = ok_geometric

    ok = True
    for n in range(2, min(max_n, 12) + 1):
        if even[n] != count_sortable_rank_sum(2 * n).ratio:
            ok = False
            failures.append(f"series terms do not re-sum at n={n}")
    checks["series_consistent"] = ok

    checks["constants"] = (
        k_lo * k_lo < 2 < k_hi * k_hi and c_lo > 1 and t_lo > 0
    )

    if 100 <= max_n + 1:
        x100 = even[100]
    else:
        row, total = _even_terms(100)
        x100 = Fraction(sum(row), total)
    tail_high = t_hi * c_lo ** -100 * c_lo / (c_lo - 1)
    limit_lower = x100 - tail_high
    checks["x100_above_one_fifth"] = x100 > Fraction(1, 5)
    checks["limit_positive_margin"] = limit_lower >= Fraction(4, 25)

    return ConvergenceReport(
        max_n=max_n,
        even_proportions=even,
        sqrt2_low=k_lo,
        sqrt2_high=k_hi,
        decay_base_low=c_lo,
        decay_base_high=c_hi,
        decay_scale_low=t_lo,
        decay_scale_high=t_hi,
        x100=x100,
        tail_high=tail_high,
        limit_lower=limit_lower,
        checks=checks,
        failures=tuple(failures),
    )
