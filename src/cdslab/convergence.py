"""Exact certificates for the convergence of the sortable density.

x_n is the density of sortable two-rooted graphs on 2n vertices. Its series
terms are the closed formula's terms over the 2^C(2n, 2) graphs, read from
counting's own term recurrence, so the certificate checks the same numbers
that count_sortable sums. Everything is exact: the densities and terms are
fractions.Fraction, and the irrational constants entering the bounds
(sqrt(2) and quantities derived from it) are handled by rational sandwiching,
so every reported inequality is a certified one.

The certificate is its own module so that the counts, and ``cdslab count``,
compile none of it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import counting
from .errors import ContractError, InternalInvariantError, SizeLimitError

__all__ = [
    "ConvergenceReport",
    "CONVERGENCE_LIMIT",
    "sqrt2_bounds",
    "convergence_report",
]

# convergence_report's time grows about as max_n^5, to seconds at max_n = 120
CONVERGENCE_LIMIT = 120


def _even_terms(n: int) -> tuple[list[int], int]:
    """Numerators of the series terms of x_n and their common denominator,
    the number of graphs on 2n vertices."""
    return counting._closed_formula_terms(2 * n, False), 1 << (n * (2 * n - 1))


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
        if even[n] != counting.count_sortable_rank_sum(2 * n).ratio:
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
