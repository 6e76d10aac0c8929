"""Acceptance gate: every release criterion as one pass/fail line.

Each criterion runs a named verification suite from cdslab.verify at its
default exhaustive size and must finish inside its runtime budget. Run
with -s (or look at the live output) for the one-line-per-criterion
summary; any failed check line is reported through the assertion.
"""

import os
import subprocess
import sys

import pytest

from cdslab.verify import run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CRITERIA = (
    (1, "table", 1.0),
    (2, "census", 10.0),
    (3, "eulerian", 10.0),
    (4, "sortability", 60.0),
    (5, "commuting", 60.0),
    (6, "distance", 300.0),
    (7, "conversion", 30.0),
    (8, "realize", 300.0),
    (9, "kernel", 300.0),
    (10, "macwilliams", 5.0),
    (11, "blocks", 300.0),
    (12, "convergence", 120.0),
    (13, "random", 60.0),
)


@pytest.mark.parametrize(
    "number,suite,budget",
    CRITERIA,
    ids=[f"criterion_{num:02d}_{name}" for num, name, _ in CRITERIA],
)
def test_criterion(number, suite, budget, capsys):
    report = run_suite(suite)
    ok = report.passed and report.elapsed < budget
    good = sum(c.passed for c in report.checks)
    with capsys.disabled():
        print(
            f"{'PASS' if ok else 'FAIL'} criterion {number} ({suite}): "
            f"{good}/{len(report.checks)} checks in {report.elapsed:.2f}s "
            f"(budget {budget:.0f}s)"
        )
    for check in report.checks:
        assert check.passed, check.render()
    assert report.elapsed < budget, (
        f"criterion {number} took {report.elapsed:.2f}s, budget {budget:.0f}s"
    )


def test_criterion_3_artifact(tmp_path, capsys):
    """The even-degree adjudication report regenerates byte for byte."""
    script = os.path.join(ROOT, "scripts", "adjudicate_eulerian.py")
    committed = os.path.join(ROOT, "reports", "eulerian_adjudication.md")
    out_path = tmp_path / "eulerian_adjudication.md"
    proc = subprocess.run(
        [sys.executable, script, "--out", str(out_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    text = out_path.read_text(encoding="utf-8")
    assert "| 6 | 1024 | 589 | 365 | 589 | rank_sum |" in text
    assert "| 5 | 64 | 29 | 29 | 29 | closed_formula, rank_sum |" in text
    assert "| 8 | 2097152 | 1183085 | 259533 | 1183085 | rank_sum |" in text
    with open(committed, encoding="utf-8") as fh:
        assert text == fh.read(), "committed report is stale; rerun the script"
    with capsys.disabled():
        print(f"PASS criterion 3 artifact: {os.path.relpath(committed, ROOT)}")
