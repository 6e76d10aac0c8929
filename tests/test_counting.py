"""Closed-form counts, rank sums, extension laws, and convergence."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from cdslab import counting, f2, oracle_search
from cdslab.convergence import CONVERGENCE_LIMIT, convergence_report, sqrt2_bounds
from cdslab.counting import (
    COUNT_LIMIT,
    CountReport,
    _closed_formula_terms,
    block_construct,
    count_sortable,
    count_sortable_rank_sum,
    macwilliams_count,
    sortable_extensions_count,
)
from cdslab.errors import ContractError, SizeLimitError
from test_formats_cli import fresh_interpreter

SORTABLE = {
    3: 1,
    4: 17,
    5: 113,
    6: 7729,
    7: 224689,
    8: 61562033,
    9: 7309130417,
    10: 8013328398001,
}
EULERIAN_FORMULA = {
    3: 1,
    4: 5,
    5: 29,
    6: 365,
    7: 7565,
    8: 259533,
    9: 16766541,
    10: 1695913805,
}
EULERIAN_RANK_SUM = {
    3: 1,
    4: 5,
    5: 29,
    6: 589,
    7: 14509,
    8: 1183085,
    9: 118183661,
    10: 38582643181,
}


# Reference products, one Fraction per factor, as the counts were first
# computed; the integer recurrences in cdslab.counting must reproduce them.


def ref_macwilliams(t: int, r: int) -> int:
    if r % 2:
        return 0
    s = r // 2
    value = Fraction(1)
    for i in range(1, s + 1):
        value *= Fraction(1 << (2 * i - 2), (1 << (2 * i)) - 1)
    for i in range(2 * s):
        value *= (1 << (t - i)) - 1
    assert value.denominator == 1
    return value.numerator


def ref_closed_formula(n: int, eulerian: bool) -> int:
    total = Fraction(0)
    for s in range(n // 2):
        exponent = s * (s + 3) // 2 if eulerian else s * (s + 3)
        term = Fraction(1 << exponent)
        for i in range(2 * s):
            term *= (1 << (n - 2 - i)) - 1
        for i in range(1, s + 1):
            term /= (1 << (2 * i)) - 1
        total += term
    assert total.denominator == 1
    return total.numerator


def ref_rank_sum(n: int, eulerian: bool) -> int:
    base = 2 if eulerian else 4
    return sum(
        base ** (2 * s) * ref_macwilliams(n - 2, 2 * s) for s in range(n // 2)
    )


def ref_proportion_term(n: int, s: int) -> Fraction:
    num = 1 << (s * (s + 3))
    for i in range(2 * s):
        num *= (1 << (2 * n - 2 - i)) - 1
    den = 1 << (n * (2 * n - 1))
    for i in range(1, s + 1):
        den *= (1 << (2 * i)) - 1
    return Fraction(num, den)


def all_centers(t: int):
    pairs = list(combinations(range(t), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * t
        for k, (u, v) in enumerate(pairs):
            if (mask >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield f2.F2Matrix.from_row_bits(rows, t)


class TestCounts:
    def test_pinned_values(self):
        for n, expected in SORTABLE.items():
            report = count_sortable(n)
            assert report.count == expected
            assert report.total == 1 << (n * (n - 1) // 2)
            assert report.ratio == Fraction(expected, report.total)
        with pytest.raises(AttributeError):
            report.count = 0
        # the ratio follows the count, and a replaced field is validated
        assert report._replace(count=1).ratio == Fraction(1, report.total)
        with pytest.raises(ContractError, match="outside"):
            report._replace(count=report.total + 1)

    def test_methods_agree_without_degree_restriction(self):
        for n in range(3, 26):
            assert count_sortable_rank_sum(n).count == count_sortable(n).count

    def test_eulerian_methods_disagree_from_six(self):
        for n in range(3, 11):
            assert count_sortable(n, eulerian=True).count == EULERIAN_FORMULA[n]
            got = count_sortable_rank_sum(n, eulerian=True).count
            assert got == EULERIAN_RANK_SUM[n]
        assert EULERIAN_FORMULA[6] != EULERIAN_RANK_SUM[6]

    def test_matches_the_fraction_products(self):
        for n in range(3, 61):
            for eulerian in (False, True):
                want = ref_closed_formula(n, eulerian)
                assert count_sortable(n, eulerian).count == want
                want = ref_rank_sum(n, eulerian)
                assert count_sortable_rank_sum(n, eulerian).count == want

    def test_ratio_is_count_over_total_in_lowest_terms(self):
        # the ratio, reduced by shifting, is the gcd-reduced Fraction; every
        # n up to 60, then a stride to 300 (through 160, the largest size the
        # benchmark counts), keeps the test well under a second
        for n in [*range(3, 61), *range(64, 300, 12), 299, 300]:
            for count in (count_sortable, count_sortable_rank_sum):
                for eulerian in (False, True):
                    report = count(n, eulerian)
                    want = Fraction(report.count, report.total)
                    got = report.ratio
                    assert report.reduced == (want.numerator, want.denominator)
                    assert (got.numerator, got.denominator) == report.reduced
                    assert got == want and hash(got) == hash(want)

    def test_small_sizes_rejected(self):
        with pytest.raises(ContractError):
            count_sortable(2)

    def test_large_sizes_rejected(self):
        for count in (count_sortable, count_sortable_rank_sum):
            with pytest.raises(SizeLimitError, match="n <= 2000, got 2001"):
                count(COUNT_LIMIT + 1)

    def test_report_validation(self):
        with pytest.raises(ContractError):
            CountReport.build(4, "guesswork", False, 17)
        for count in (0, 16, 17, 64):
            report = CountReport(4, "closed_formula", False, count, 64)
            assert report.ratio == Fraction(count, 64)
        for count, total in (
            (65, 64),  # count above the total
            (-1, 64),
            (2, 6),  # total not a power of two
            (6, 12),
            (0, 0),
        ):
            with pytest.raises(ContractError):
                CountReport(4, "closed_formula", False, count, total)


class TestImports:
    def test_counting_loads_no_matrix_code(self):
        code = (
            "import cdslab.counting, sys; print(sorted(m for m in sys.modules "
            "if m.startswith('cdslab.')))"
        )
        assert fresh_interpreter(code) == "['cdslab.counting', 'cdslab.errors']"


class TestExtensions:
    def test_counts_per_center(self):
        center = f2.F2Matrix([[0, 1], [1, 0]])
        assert sortable_extensions_count(center) == 16
        assert sortable_extensions_count(center, eulerian=True) == 4
        assert sortable_extensions_count(f2.F2Matrix.zeros(3, 3)) == 1

    def test_sum_over_centers_is_the_rank_sum_count(self):
        for t in range(1, 5):
            total = sum(sortable_extensions_count(a) for a in all_centers(t))
            assert total == count_sortable(t + 2).count
            eulerian = sum(
                sortable_extensions_count(a, eulerian=True)
                for a in all_centers(t)
            )
            assert eulerian == count_sortable_rank_sum(t + 2, eulerian=True).count

    def test_block_construct_layout(self):
        center = f2.F2Matrix([[0, 1], [1, 0]])
        u1, u2 = 0b01, 0b10
        out = block_construct(center, u1, u2)
        assert out.shape == (4, 4)
        assert out.is_symmetric() and out.is_zero_diagonal()
        assert f2.central_submatrix(out, "both") == center
        # the borders are the center's images of u1 and u2; the corner is
        # the pairing of u1 with the image of u2
        av1 = center.mat_vec(u1)
        av2 = center.mat_vec(u2)
        corner = (u1 & av2).bit_count() & 1
        assert (av1, av2, corner) == (0b10, 0b01, 1)
        assert out.column(0) == av1 << 1 | corner << 3
        assert out.column(3) == corner | av2 << 1

    def test_both_center_functions_refuse_the_same_centers(self):
        bad = (
            (f2.F2Matrix.zeros(2, 3), "center must be square, got 2x3"),
            (f2.F2Matrix([[0, 1], [0, 0]]), "center must be symmetric"),
            (f2.F2Matrix([[1, 0], [0, 0]]), "center must have a zero diagonal"),
        )
        for center, message in bad:
            with pytest.raises(ContractError, match=message):
                block_construct(center, 0, 0)
            with pytest.raises(ContractError, match=message):
                sortable_extensions_count(center)


class TestMacWilliams:
    def test_matches_enumeration(self):
        for t in range(0, 5):
            for r in range(0, t + 1):
                assert macwilliams_count(t, r) == oracle_search.n0_bruteforce(t, r)

    def test_matches_the_fraction_product(self):
        for t in range(0, 31):
            for r in range(0, t + 1):
                assert macwilliams_count(t, r) == ref_macwilliams(t, r)

    def test_odd_rank_is_empty(self):
        for t in range(0, 8):
            for s in range(1, t + 1, 2):
                assert macwilliams_count(t, s) == 0

    def test_column_sums(self):
        for t in range(0, 8):
            total = sum(macwilliams_count(t, r) for r in range(t + 1))
            assert total == 1 << (t * (t - 1) // 2)

    def test_bad_arguments(self):
        with pytest.raises(ContractError):
            macwilliams_count(-1, 0)
        with pytest.raises(ContractError):
            macwilliams_count(3, 4)
        with pytest.raises(SizeLimitError):
            oracle_search.n0_bruteforce(6, 2)

    def test_large_sizes_rejected(self, monkeypatch):
        def no_counts(*args):
            raise AssertionError("a count was computed")

        monkeypatch.setattr(counting, "_rank_counts", no_counts)
        with pytest.raises(SizeLimitError, match="t <= 2000, got 2001"):
            macwilliams_count(COUNT_LIMIT + 1, 2)


def even_terms(n: int) -> list[Fraction]:
    """The series terms of the density on 2n vertices."""
    total = 1 << (n * (2 * n - 1))
    return [Fraction(t, total) for t in _closed_formula_terms(2 * n, False)]


class TestConvergence:
    def test_terms_sum_to_the_density(self):
        for n in range(2, 7):
            total = sum(even_terms(n), Fraction(0))
            assert total == count_sortable(2 * n).ratio
            assert total == count_sortable_rank_sum(2 * n).ratio

    def test_terms_match_the_fraction_products(self):
        for n in range(1, 21):
            assert even_terms(n) == [ref_proportion_term(n, s) for s in range(n)]

    def test_sqrt2_sandwich(self):
        lo, hi = sqrt2_bounds()
        assert lo < hi
        assert lo * lo < 2 < hi * hi
        assert hi - lo <= Fraction(1, 1 << 70)

    def test_report(self):
        report = convergence_report(max_n=20)
        assert report.all_checks_pass
        assert set(report.checks) == {
            "ratio_bounds",
            "term_bounds",
            "delta_linear",
            "delta_geometric",
            "series_consistent",
            "constants",
            "x100_above_one_fifth",
            "limit_positive_margin",
        }
        assert report.even_proportions[2] == Fraction(17, 64)
        assert report.x100 > Fraction(1, 5)
        assert report.limit_lower >= Fraction(16, 100)
        assert report.failures == ()
        with pytest.raises(AttributeError):
            report.max_n = 30

    def test_report_needs_room(self):
        with pytest.raises(ContractError):
            convergence_report(max_n=9)

    def test_report_size_limit(self, monkeypatch):
        def no_terms(*args):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(counting, "_closed_formula_terms", no_terms)
        with pytest.raises(SizeLimitError, match="max_n <= 120, got 121"):
            convergence_report(max_n=CONVERGENCE_LIMIT + 1)

    def test_scan_script_past_the_limit_prints_one_error_line(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(counting.__file__))
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(root, "scripts", "convergence_scan.py"),
                "--max-n",
                str(CONVERGENCE_LIMIT + 1),
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: convergence report limited to max_n <= 120, got 121\n"
        )
