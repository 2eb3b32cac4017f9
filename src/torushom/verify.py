"""Cross-verification suites binding the three pipelines together.

Each suite runs a batch of named checks; a failing check is recorded and
never aborts the rest of the suite.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field
from math import gcd
from typing import Callable, Iterable

import numpy as np

from . import curves, hecke, recursion, soergel
from .algebra import A, LaurentPoly, ONE, Q, RatFunc, T, render_descending, series_truncate
from .braid import (
    BraidWord,
    closure_components,
    half_twist,
    longest_permutation,
    identity_permutation,
    inverse_permutation,
    permutation_length,
    torus_braid,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str
    seconds: float

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{status}] {self.name}"
        if not self.passed:
            line += f"\n    expected: {self.expected}\n    actual:   {self.actual}"
        return line + f"  ({self.seconds:.2f}s)"


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    def check(self, name: str, expected, actual) -> None:
        """Record whether expected equals actual, calling either that is
        callable; an exception fails the check without ending the suite."""
        start = time.perf_counter()
        try:
            exp_val = expected() if callable(expected) else expected
            act_val = actual() if callable(actual) else actual
            passed = exp_val == act_val
            exp_str, act_str = repr(exp_val), repr(act_val)
        except Exception as exc:  # a failed check must not abort the suite
            passed = False
            exp_str = repr(expected)
            act_str = f"raised {type(exc).__name__}: {exc}"
        self.checks.append(
            CheckResult(name, passed, exp_str, act_str, time.perf_counter() - start)
        )

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        passed = sum(c.passed for c in self.checks)
        lines.append(f"{self.suite}: {passed}/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "passed": self.all_passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "expected": c.expected,
                        "actual": c.actual,
                        "seconds": round(c.seconds, 3),
                    }
                    for c in self.checks
                ],
            }
        )


# -- suite 1: recursion against the displayed tables --------------------------

def suite_hm_paper_tables() -> VerificationReport:
    s = VerificationReport("hm-paper-tables")
    t_inv = LaurentPoly.monomial(1, et=-1)
    s.check(
        "hhh(2,2) = t^-1 (1+a)(t+q-qt+a)/(1-q)^2",
        RatFunc.of(t_inv * (ONE + A) * (T + Q - Q * T + A), 2),
        lambda: recursion.hhh_torus(2, 2),
    )
    for k in range(1, 6):
        geom = LaurentPoly(
            {(0, i, -i): 1 for i in range(k + 1)}
        )
        s.check(
            f"hhh_a0(2,{2 * k + 1}) = (sum q^i t^-i, i<={k})/(1-q)",
            RatFunc.of(geom, 1),
            lambda m=2 * k + 1: recursion.hhh_a0(2, m),
        )
    s.check(
        "term_census_a(3,4) = [(0,5),(1,5),(2,1)]",
        [(0, 5), (1, 5), (2, 1)],
        lambda: recursion.term_census_a(3, 4),
    )
    return s


# -- suite 2: two-strand Soergel oracle ---------------------------------------

def suite_two_strand_oracle() -> VerificationReport:
    s = VerificationReport("two-strand-oracle")
    for m in range(0, 13):
        s.check(
            f"hhh0_two_strand({m}) = series of hhh_a0(2,{m}), internal deg <= 20",
            lambda m=m: soergel.qt_table_within(recursion.hhh_a0(2, m), 20, -m),
            lambda m=m: soergel.two_strand_qt_dims(m, 20),
        )
    return s


# -- suite 3: braid variety closed forms --------------------------------------

def suite_braid_variety_closed_forms() -> VerificationReport:
    s = VerificationReport("braid-variety-closed-forms")
    e = identity_permutation(2)
    s.check(
        "#X(s^3) = q^2 - q",
        Q**2 - Q,
        lambda: hecke.point_count(torus_braid(2, 3), e),
    )
    s.check(
        "#X(s^4) = q^3 - q^2 + q",
        Q**3 - Q**2 + Q,
        lambda: hecke.point_count(torus_braid(2, 4), e),
    )
    s.check(
        "#X(s^5) = q (q^3 - q^2 + q - 1)",
        Q * (Q**3 - Q**2 + Q - ONE),
        lambda: hecke.point_count(torus_braid(2, 5), e),
    )
    return s


# -- suite 4: Hecke transfer vs brute force -----------------------------------

def _positive_words(max_strands: int, max_len: int) -> Iterable[BraidWord]:
    for n in range(1, max_strands + 1):
        gens = range(1, n)
        for ell in range(0, max_len + 1):
            if ell > 0 and n == 1:
                continue
            for word in itertools.product(gens, repeat=ell):
                yield BraidWord(n, word)


def suite_hecke_vs_brute(
    max_strands: int = 3, max_len: int = 7, primes=(2, 3, 5)
) -> VerificationReport:
    s = VerificationReport("hecke-vs-brute")
    words = list(_positive_words(max_strands, max_len))
    # Each word is folded once, as its last letter folded onto its prefix's
    # fold, and every check reads its rows from that fold.  Every cyclic
    # rotation of a word is itself one of the words.
    folds: dict[tuple, hecke._Fold] = {}

    def fold(n: int, letters: tuple) -> hecke._Fold:
        f = folds.get((n, letters))
        if f is None:
            start = fold(n, letters[:-1]) if letters else None
            f = folds[n, letters] = hecke._fold(BraidWord(n, letters[-1:]), start=start)
        return f

    @functools.cache
    def row(n: int, letters: tuple, w: tuple) -> tuple:
        """The coefficients of the fold's row at w, to its last nonzero one:
        q^len(w^-1) times #X(word; w^-1), as a polynomial in q."""
        coeffs = fold(n, letters).row(w).tolist()
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs)

    def brute_mismatches():
        # One trie walk per strand count and prime covers all of its words,
        # against the fold's rows at q = p: each is p^len(target) times the
        # count.
        mismatches = []
        for n in range(1, max_strands + 1):
            group = [b for b in words if b.strands == n]
            targets = (identity_permutation(n), longest_permutation(n))
            shifts = [permutation_length(t) for t in targets]
            polys = [[row(n, b.letters, inverse_permutation(t)) for t in targets] for b in group]
            for p in primes:
                brute = hecke._enumerate_counts(group, targets, p)
                for b, rows, got in zip(group, polys, brute):
                    for target, ell, coeffs, c in zip(targets, shifts, rows, got):
                        at_p = sum(k * p**e for e, k in enumerate(coeffs))
                        if c * p**ell != at_p:
                            mismatches.append((b.word_str(), n, target, p, c, at_p))
        return mismatches

    def divisibility_failures():
        # The count at target w^-1 is the fold's row at w divided by
        # q^len(w), so every coefficient of that row below q^len(w) must
        # vanish.
        failures = []
        for b in words:
            f = fold(b.strands, b.letters)
            low = np.arange(f.arr.shape[1]) < f.lengths()[:, None]
            bad = np.flatnonzero(((f.arr != 0) & low).any(axis=1))
            if len(bad):
                perms = f.perms()
                failures += [(b.word_str(), perms[r]) for r in bad]
        return failures

    def rotation_failures():
        failures = []
        for b in words:
            n, letters = b.strands, b.letters
            e = identity_permutation(n)
            for k in range(1, len(letters)):
                if row(n, letters[k:] + letters[:k], e) != row(n, letters, e):
                    failures.append((b.word_str(), k))
        return failures

    s.check(
        f"brute force = transfer count on {len(words)} words, "
        f"len <= {max_len}, strands <= {max_strands}, p in {tuple(primes)}",
        [],
        brute_mismatches,
    )
    s.check("q^len(w) divides every transfer coefficient", [], divisibility_failures)
    s.check("e-count is invariant under cyclic rotation", [], rotation_failures)
    return s


# -- suite 5: knot divisibility ------------------------------------------------

def suite_knot_divisibility() -> VerificationReport:
    s = VerificationReport("knot-divisibility")

    def failures():
        out = []
        for m, kmax in ((2, 9), (3, 7)):
            for k in range(kmax + 1):
                for b in (torus_braid(m, k), torus_braid(m, k).concat(half_twist(m))):
                    if closure_components(b) != 1:
                        continue
                    count = hecke.point_count(b, identity_permutation(m))
                    if RatFunc.of(count, m - 1).denom_pow:
                        out.append((m, k, render_descending(count)))
        return out

    s.check(
        "(q-1)^(n-1) divides #X for the T(2,k<=9) and T(3,k<=7) words, "
        "with and without a half twist, that close to knots",
        [],
        failures,
    )
    return s


# -- suite 6: Catalan triple -----------------------------------------------------

def suite_catalan_triple() -> VerificationReport:
    s = VerificationReport("catalan-triple")
    pairs = [
        (m, n) for m in range(1, 14) for n in range(m + 1, 15 - m) if gcd(m, n) == 1
    ]

    def failures():
        out = []
        for m, n in pairs:
            modules = len(curves.enumerate_jacobian_modules(m, n))
            catalan = curves.rational_catalan(m, n)
            paths = curves.lattice_path_count(m, n)
            if not modules == catalan == paths:
                out.append((m, n, modules, catalan, paths))
        return out

    s.check(
        f"module count = rational Catalan = path count on {len(pairs)} coprime pairs, m+n <= 14",
        [],
        failures,
    )
    s.check("c(3,4) = 5", 5, lambda: curves.rational_catalan(3, 4))
    return s


# -- suite 7: Jacobian cells ---------------------------------------------------

def suite_jacobian_cells() -> VerificationReport:
    s = VerificationReport("jacobian-cells")
    for k in range(1, 5):
        s.check(
            f"jac(2,{2 * k + 1}) cell dimensions are 0..{k}",
            sorted(range(k + 1)),
            lambda k=k: sorted(c.dimension for c in curves.jacobian_cells(2, 2 * k + 1)),
        )
    s.check(
        "jac(3,4) cell dimensions are {3,2,2,1,0}",
        [0, 1, 2, 2, 3],
        lambda: sorted(c.dimension for c in curves.jacobian_cells(3, 4)),
    )
    for m, n in ((2, 3), (2, 5), (2, 7), (2, 9), (3, 4)):
        s.check(
            f"max jac({m},{n}) cell dimension = delta",
            curves.semigroup(m, n).delta,
            lambda m=m, n=n: max(c.dimension for c in curves.jacobian_cells(m, n)),
        )
    return s


# -- suite 8: Hilbert scheme series ---------------------------------------------

def suite_hilb_series() -> VerificationReport:
    s = VerificationReport("hilb-series")
    for k in (1, 2):
        num = LaurentPoly({(0, 2 * i, 2 * i): 1 for i in range(k + 1)})
        s.check(
            f"hilb(2,{2 * k + 1}) series = (1 + ... + q^{2 * k} t^{2 * k})/(1-q), kmax=8",
            series_truncate(RatFunc.of(num, 1), 8),
            lambda m=2 * k + 1: curves.hilb_poincare_series(2, m, 8),
        )
    node_expected = RatFunc.of(ONE, 1) + RatFunc.of(
        LaurentPoly.monomial(1, eq=2, et=2), 2
    )
    s.check(
        "node series = 1/(1-q) + q^2 t^2/(1-q)^2, kmax=8",
        series_truncate(node_expected, 8),
        lambda: curves.node_hilb(8),
    )
    # The checks of a pair read levels 2 delta, 2 delta + 1 and 2 delta + 2
    # of one series.
    @functools.cache
    def stable_levels(m, n, delta):
        rows = [{}, {}, {}]
        for (k, td, _), c in curves.hilb_poincare_series(m, n, 2 * delta + 2).entries:
            if k >= 2 * delta:
                rows[k - 2 * delta][td] = c
        return rows

    for m, n in ((2, 3), (2, 5), (2, 7), (3, 4)):
        delta = curves.semigroup(m, n).delta
        s.check(
            f"hilb({m},{n}) levels stabilize for k >= 2 delta = {2 * delta}",
            lambda m=m, n=n, d=delta: stable_levels(m, n, d)[:1] * 3,
            lambda m=m, n=n, d=delta: stable_levels(m, n, d),
        )
        s.check(
            f"stable hilb({m},{n}) level = jacobian cell table",
            lambda m=m, n=n: curves.jacobian_poincare(m, n),
            lambda m=m, n=n, d=delta: stable_levels(m, n, d)[0],
        )
    return s


# -- suite 9: ORS and Euler comparisons -----------------------------------------

def suite_ors_maulik() -> VerificationReport:
    s = VerificationReport("ors-maulik")
    # The two checks of a pair read one report.
    ors_compare = functools.cache(curves.ors_compare)
    for m, n in ((2, 3), (2, 5), (2, 7), (3, 4)):
        s.check(
            f"ors({m},{n}) kmax=10: regraded homology matches hilb series",
            True,
            lambda m=m, n=n: ors_compare(m, n, 10).success,
        )
        s.check(
            f"euler({m},{n}) kmax=10: hilb series at t=1 matches euler_a0",
            True,
            lambda m=m, n=n: ors_compare(m, n, 10).euler_success,
        )
    return s


# -- suite 10: q-t symmetry -------------------------------------------------------

def suite_qt_symmetry() -> VerificationReport:
    s = VerificationReport("qt-symmetry")
    # The checks of a knot read one numerator and one census.
    reduced_knot_poly = functools.cache(recursion.reduced_knot_poly)
    term_census_a = functools.cache(recursion.term_census_a)
    for m, n in ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5)):
        s.check(
            f"reduced({m},{n}) is symmetric in q and t",
            lambda m=m, n=n: reduced_knot_poly(m, n),
            lambda m=m, n=n: reduced_knot_poly(m, n).swap_qt(),
        )
        s.check(
            f"reduced({m},{n}) at q=t=1 = a=0 census count",
            lambda m=m, n=n: dict(term_census_a(m, n)).get(0, 0),
            lambda m=m, n=n: sum(reduced_knot_poly(m, n).evaluate_qt1().values()),
        )
    return s


# -- suite 11: cells vs homology --------------------------------------------------

def suite_cells_vs_homology() -> VerificationReport:
    """The Jacobian cells, counted by codimension, against the reduced knot
    numerator of the recursion specialized at q = 1 and at t = 1."""
    s = VerificationReport("cells-vs-homology")
    # Both checks of a pair read the same cells and the same numerator.
    jacobian_cells = functools.cache(curves.jacobian_cells)
    reduced_knot_poly = functools.cache(recursion.reduced_knot_poly)

    def codimensions(m: int, n: int) -> dict[int, int]:
        delta = curves.semigroup(m, n).delta
        out: dict[int, int] = {}
        for cell in jacobian_cells(m, n):
            out[delta - cell.dimension] = out.get(delta - cell.dimension, 0) + 1
        return dict(sorted(out.items()))

    def specialized(m: int, n: int, var: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for exp, c in reduced_knot_poly(m, n).items():
            out[exp[var]] = out.get(exp[var], 0) + c
        return {d: c for d, c in sorted(out.items()) if c}

    for m, n in ((4, 7), (5, 6), (5, 7), (6, 7)):
        s.check(
            f"jac({m},{n}) sum t^(delta - dim) = reduced({m},{n}) at q=1",
            lambda m=m, n=n: specialized(m, n, 2),
            lambda m=m, n=n: codimensions(m, n),
        )
        s.check(
            f"jac({m},{n}) sum q^(delta - dim) = reduced({m},{n}) at t=1",
            lambda m=m, n=n: specialized(m, n, 1),
            lambda m=m, n=n: codimensions(m, n),
        )
    return s


SUITES: dict[str, Callable[[], VerificationReport]] = {
    "hm-paper-tables": suite_hm_paper_tables,
    "two-strand-oracle": suite_two_strand_oracle,
    "braid-variety-closed-forms": suite_braid_variety_closed_forms,
    "hecke-vs-brute": suite_hecke_vs_brute,
    "knot-divisibility": suite_knot_divisibility,
    "catalan-triple": suite_catalan_triple,
    "jacobian-cells": suite_jacobian_cells,
    "hilb-series": suite_hilb_series,
    "ors-maulik": suite_ors_maulik,
    "qt-symmetry": suite_qt_symmetry,
    "cells-vs-homology": suite_cells_vs_homology,
}


def run_verifications(suite: str = "all") -> list[VerificationReport]:
    """Run one named suite, or all of them in a fixed order."""
    if suite == "all":
        return [run() for run in SUITES.values()]
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(SUITES)} or all")
    return [SUITES[suite]()]
