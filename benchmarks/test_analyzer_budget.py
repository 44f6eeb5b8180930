"""Analyzer budget: the lint CI runs on every push stays in lint territory.

One strict scan of the default corpus (the ``repro`` package plus
``examples/`` and ``scripts/``: parse, every rule, baseline matching)
takes under 5 s, so a rule gone accidentally quadratic fails here, and
finds nothing the baseline does not justify.
"""

import time

from benchmarks.conftest import fmt, print_table
from repro.tools import analyze as cli
from repro.tools.analysis import Baseline, analyze

BUDGET_S = 5.0


def test_full_scan_within_budget_and_clean():
    started = time.perf_counter()
    report = analyze(cli.default_scan_paths(), base=cli.default_scan_base(),
                     baseline=Baseline.load(cli.default_baseline_path()))
    elapsed = time.perf_counter() - started
    print_table(
        "Analyzer: one strict scan of the default corpus",
        ["files", "findings", "new", "scan", "budget"],
        [(report.files_scanned, len(report.findings), len(report.new),
          fmt(elapsed, " s"), fmt(BUDGET_S, " s"))],
    )
    assert elapsed < BUDGET_S
    assert not report.new, [finding.format() for finding in report.new]
