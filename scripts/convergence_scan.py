"""Scan the sortable-density sequence and certify its convergence.

Prints the exact density x_n of sortable two-rooted graphs on 2n
vertices for a range of n, the certified geometric bound on successive
gaps, and a certified lower bound for the limit.  All arithmetic is
rational; floats appear only in the printout.
"""

from __future__ import annotations

import argparse
import sys

from cdslab.convergence import convergence_report
from cdslab.errors import CdsLabError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Certify convergence of the sortable density."
    )
    parser.add_argument("--max-n", type=int, default=50)
    parser.add_argument(
        "--show-densities",
        type=int,
        default=8,
        metavar="K",
        help="print the first K densities (0 to suppress)",
    )
    args = parser.parse_args(argv)

    try:
        report = convergence_report(max_n=args.max_n)
    except CdsLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shown = sorted(report.even_proportions)[: args.show_densities]
    for n in shown:
        print(f"x_{n} = {float(report.even_proportions[n]):.12f}")
    if shown:
        print()
    print(f"sqrt(2) sandwich width {float(report.sqrt2_high - report.sqrt2_low):.3e}")
    print(
        "gap bound |x_(n+1) - x_n| < T * c^-n with "
        f"c in [{float(report.decay_base_low):.12f}, "
        f"{float(report.decay_base_high):.12f}], "
        f"T < {float(report.decay_scale_high):.12f}"
    )
    print(f"x_100        = {float(report.x100):.12f}")
    print(f"tail above n = {report.max_n}: < {float(report.tail_high):.3e}")
    print(f"limit        > {float(report.limit_lower):.12f}")
    print()
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    if report.failures:
        for line in report.failures:
            print(f"  {line}")
    return 0 if report.all_checks_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
