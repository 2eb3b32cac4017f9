import time

import pytest

from torushom import verify

SUITES = {
    "knot-divisibility": (verify.suite_knot_divisibility, 1),
    "catalan-triple": (verify.suite_catalan_triple, 2),
    "hecke-vs-brute": (
        lambda: verify.suite_hecke_vs_brute(max_strands=3, max_len=4, primes=(2, 3)),
        3,
    ),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_check_seconds_cover_suite_time(name):
    """The work of a suite runs inside its checks, so their times add up to
    nearly all of the suite's wall time."""
    suite, checks = SUITES[name]
    start = time.perf_counter()
    report = suite()
    wall = time.perf_counter() - start
    assert report.all_passed
    assert len(report.checks) == checks
    assert sum(c.seconds for c in report.checks) >= 0.8 * wall


def test_cells_vs_homology_computes_each_pair_once(monkeypatch):
    """Both checks of a pair read one set of cells and one numerator."""
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(verify.curves, "jacobian_cells")
    count(verify.recursion, "reduced_knot_poly")
    report = verify.suite_cells_vs_homology()
    assert report.all_passed and len(report.checks) == 8
    assert calls == {"jacobian_cells": 4, "reduced_knot_poly": 4}
