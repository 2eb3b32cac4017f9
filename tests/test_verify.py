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
