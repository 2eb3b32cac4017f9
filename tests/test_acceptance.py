"""Acceptance suite: every cross-pipeline criterion at its stated tolerance.

All arithmetic is exact, so the tolerance is structural equality; each
criterion also carries a wall-clock budget.  One PASS/FAIL line is printed
per criterion (run pytest with -s to see them on success).
"""

import time

from torushom import verify


def _run(number: int, suite_name: str, budget_seconds: float):
    start = time.perf_counter()
    report = verify.run_verifications(suite_name)[0]
    elapsed = time.perf_counter() - start
    status = "PASS" if report.all_passed else "FAIL"
    print(f"{status} criterion {number} [{suite_name}] ({elapsed:.2f}s)")
    if not report.all_passed:
        print(report.render())
    assert report.all_passed, f"criterion {number} [{suite_name}] failed"
    assert elapsed < budget_seconds, (
        f"criterion {number} [{suite_name}] took {elapsed:.1f}s, "
        f"budget {budget_seconds}s"
    )


def test_criterion_01_hm_paper_tables():
    _run(1, "hm-paper-tables", 1.0)


def test_criterion_02_two_strand_oracle():
    _run(2, "two-strand-oracle", 5.0)


def test_criterion_03_braid_variety_closed_forms():
    _run(3, "braid-variety-closed-forms", 1.0)


def test_criterion_04_hecke_vs_brute():
    _run(4, "hecke-vs-brute", 300.0)


def test_criterion_05_knot_divisibility():
    _run(5, "knot-divisibility", 60.0)


def test_criterion_06_catalan_triple():
    _run(6, "catalan-triple", 30.0)


def test_criterion_07_jacobian_cells():
    _run(7, "jacobian-cells", 60.0)


def test_criterion_08_hilb_series():
    _run(8, "hilb-series", 120.0)


def test_criterion_09_ors_maulik():
    _run(9, "ors-maulik", 120.0)


def test_criterion_10_qt_symmetry():
    _run(10, "qt-symmetry", 10.0)


def test_criterion_11_cells_vs_homology():
    _run(11, "cells-vs-homology", 2.0)
