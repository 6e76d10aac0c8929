"""Counting sortable two-rooted graphs and the limiting sortable density.

Everything here is exact. Counts and series terms are arbitrary-precision
ints, each list built by its own integer ratio recurrence with exact
division; fractions.Fraction appears only where the answer is a ratio (the
densities, their series terms, and the convergence bounds). The irrational
constants entering the convergence bounds (sqrt(2) and quantities derived
from it) are handled by rational sandwiching so every reported inequality
is a certified one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import f2
from .errors import ContractError, InternalInvariantError, SizeLimitError
from .f2 import F2Matrix, F2Vector

__all__ = [
    "CountReport",
    "ConvergenceReport",
    "COUNT_METHODS",
    "COUNT_LIMIT",
    "block_construct",
    "sortable_extensions_count",
    "macwilliams_count",
    "count_sortable",
    "count_sortable_rank_sum",
    "proportion",
    "sqrt2_bounds",
    "convergence_report",
]

COUNT_METHODS = ("closed_formula", "rank_sum", "brute_force")
COUNT_LIMIT = 2000


@dataclass(frozen=True)
class CountReport:
    """A sortable-graph count together with its population and density."""

    n: int
    method: str
    eulerian: bool
    count: int
    total: int
    ratio: Fraction

    def __post_init__(self) -> None:
        if self.method not in COUNT_METHODS:
            raise ContractError(f"unknown counting method {self.method!r}")
        if not 0 <= self.count <= self.total:
            raise ContractError(
                f"count {self.count} outside [0, {self.total}]"
            )
        # cross-multiplied, so the check costs no second gcd
        if self.ratio.numerator * self.total != self.count * self.ratio.denominator:
            raise ContractError("ratio does not equal count/total")

    @classmethod
    def build(cls, n: int, method: str, eulerian: bool, count: int) -> "CountReport":
        total = 1 << (n * (n - 1) // 2)
        return cls(n, method, eulerian, count, total, Fraction(count, total))


def block_construct(a: F2Matrix, u1: F2Vector, u2: F2Vector) -> F2Matrix:
    """Extend an n x n center to an (n+2) x (n+2) two-rooted adjacency matrix.

    The two border rows are a @ u1 and a @ u2, and the root-to-root corner
    entry is (a @ u1) . u2. The center must be symmetric with zero diagonal;
    the output then is too, and is always swap-sortable.
    """
    if not a.is_square:
        raise ContractError(f"center must be square, got {a.shape}")
    if not a.is_symmetric():
        raise ContractError("center must be symmetric")
    if not a.is_zero_diagonal():
        raise ContractError("center must have a zero diagonal")
    n = a.nrows
    if len(u1) != n or len(u2) != n:
        raise ContractError(
            f"border vectors must have length {n}, got {len(u1)} and {len(u2)}"
        )
    b1 = a.mat_vec(u1)
    b2 = a.mat_vec(u2)
    corner = b1.dot(u2)
    rows = [(b1.bits << 1) | (corner << (n + 1))]
    for i, r in enumerate(a.rows):
        rows.append(b1[i] | (r << 1) | (b2[i] << (n + 1)))
    rows.append(corner | (b2.bits << 1))
    return F2Matrix.from_row_bits(rows, n + 2)


def sortable_extensions_count(a: F2Matrix, eulerian: bool = False) -> int:
    """Number of sortable two-rooted extensions of a given center.

    Each center of rank r admits 4**r sortable extensions, of which 2**r
    are Eulerian.
    """
    if not a.is_square:
        raise ContractError(f"center must be square, got {a.shape}")
    if not a.is_symmetric():
        raise ContractError("center must be symmetric")
    if not a.is_zero_diagonal():
        raise ContractError("center must have a zero diagonal")
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
    (2^{t-i}-1), which is always an integer.
    """
    if t < 0 or not 0 <= r <= t:
        raise ContractError(f"rank {r} out of range for size {t}")
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


def _check_count_size(n: int) -> None:
    if n < 3:
        raise ContractError(f"counting needs n >= 3, got {n}")
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


def proportion(n: int) -> Fraction:
    """Exact density of sortable two-rooted graphs among all on n vertices."""
    report = count_sortable(n)
    return report.ratio


def _even_terms(n: int) -> tuple[list[int], int]:
    """Numerators of the series terms of x_n and their common denominator,
    the number of graphs on 2n vertices."""
    return _closed_formula_terms(2 * n, False), 1 << (n * (2 * n - 1))


def sqrt2_bounds(bits: int = 70) -> tuple[Fraction, Fraction]:
    """Rational sandwich lo < sqrt(2) < hi with hi - lo = 2**-bits."""
    if bits < 1:
        raise ContractError(f"need at least 1 bit of precision, got {bits}")
    scale = 1 << bits
    root = math.isqrt(2 * scale * scale)
    lo = Fraction(root, scale)
    hi = Fraction(root + 1, scale)
    if not lo * lo < 2 < hi * hi:
        raise InternalInvariantError("sqrt(2) sandwich failed")
    return lo, hi


@dataclass(frozen=True)
class ConvergenceReport:
    """Exact diagnostics for the convergence of the sortable density.

    x_n denotes the density on 2n vertices; terms[(n, s)] its s-th series
    term. decay_base and decay_scale bound the constants c = 4 - 2*sqrt(2)
    and T = 6*(sqrt(2) + 1) of the geometric tail bound |x_{n+1} - x_n| <
    T * c^-n. limit_lower is a certified lower bound for lim x_n.
    """

    max_n: int
    terms: dict[tuple[int, int], Fraction]
    even_proportions: dict[int, Fraction]
    odd_proportions: dict[int, Fraction]
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
    """
    if max_n < 10:
        raise ContractError(f"convergence report needs max_n >= 10, got {max_n}")
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
    odd = {n: proportion(2 * n + 1) for n in range(1, max_n + 1)}

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
        terms=terms,
        even_proportions=even,
        odd_proportions=odd,
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
