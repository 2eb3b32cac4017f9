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


def test_qt_symmetry_computes_each_knot_once(monkeypatch):
    """Both checks of a knot read one numerator and one census."""
    calls = {}
    for name in ("reduced_knot_poly", "term_census_a"):
        def counted(*args, name=name, original=getattr(verify.recursion, name)):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(verify.recursion, name, counted)
    report = verify.suite_qt_symmetry()
    assert report.all_passed and len(report.checks) == 10
    assert calls == {"reduced_knot_poly": 5, "term_census_a": 5}


def small_hecke_vs_brute():
    return verify.suite_hecke_vs_brute(max_strands=3, max_len=4, primes=(2, 3))


def mutate_fold(monkeypatch, strands, letters, change):
    """Make hecke._fold apply change to the fold of one word, which the
    suite folds as its last letter onto its prefix's fold."""
    fold, word_of = verify.hecke._fold, {}

    def spy(b, held=0, start=None):
        f = fold(b, held, start)
        word_of[id(f)] = (word_of[id(start)] if start is not None else ()) + b.letters
        if (b.strands, word_of[id(f)]) == (strands, letters):
            change(f)
        return f

    monkeypatch.setattr(verify.hecke, "_fold", spy)


def failed_checks(report):
    return [c.name for c in report.checks if not c.passed]


def test_hecke_vs_brute_catches_a_coefficient_below_q_len(monkeypatch):
    # The fold of sigma_1 holds q at s_1; a constant term there is not
    # divisible by q^len(s_1) = q.
    def change(f):
        f.arr[f.perms().index((2, 1)), 0] = 1

    mutate_fold(monkeypatch, 2, (1,), change)
    report = small_hecke_vs_brute()
    assert "q^len(w) divides every transfer coefficient" in failed_checks(report)
    assert "(2, 1)" in report.checks[1].actual


def test_hecke_vs_brute_catches_a_brute_count_off_by_one(monkeypatch):
    walk = verify.hecke._enumerate_counts

    def off_by_one(words, targets, p):
        counts = walk(words, targets, p)
        counts[-1][0] += 1
        return counts

    monkeypatch.setattr(verify.hecke, "_enumerate_counts", off_by_one)
    report = small_hecke_vs_brute()
    assert failed_checks(report) == [report.checks[0].name]
    assert report.checks[0].name.startswith("brute force = transfer count")


def test_hecke_vs_brute_catches_a_changed_rotation_row(monkeypatch):
    # sigma_1 sigma_2 and sigma_2 sigma_1 have one e-row; change the first.
    def change(f):
        f.arr[f.perms().index((1, 2, 3)), -1] += 1

    mutate_fold(monkeypatch, 3, (1, 2), change)
    report = small_hecke_vs_brute()
    assert "e-count is invariant under cyclic rotation" in failed_checks(report)
    assert "('1,2', 1)" in report.checks[2].actual
