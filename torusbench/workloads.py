"""The benchmark workloads: inputs made from a seed, the jobs, and their checks.

A job's output is compared with the reference recorded from the seed program
(``reference.json``) and, where one exists, with an independent property of
the right answer that the benchmark computes itself.  The seed only picks
among inputs that must give the same output: the orientation of a torus knot
or a semigroup, the cyclic rotation of a braid word, and the job order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

from torushom import braid, curves, hecke, recursion, verify

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


@dataclass
class Job:
    name: str  # the call, with the inputs this pass uses
    key: str  # reference entry; inputs that must agree share a key
    run: Callable[[], object]
    canonical: Callable[[object], object]
    independent: Callable[[object], str | None] | None = None

    def check(self, output) -> list[str]:
        """Problems with ``output``; empty when it is correct."""
        problems = []
        got = self.canonical(output)
        want = REFERENCE[self.key]
        if got != want:
            problems.append(f"{self.key}: got {_short(got)}, reference {_short(want)}")
        if self.independent is not None:
            problem = self.independent(output)
            if problem:
                problems.append(f"{self.key}: {problem}")
        return problems


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 160 else text[:157] + "..."


# -- canonical forms ---------------------------------------------------------------

def _poly_digest(p) -> dict:
    text = ";".join(f"{a},{q},{t},{c}" for (a, q, t), c in sorted(p.items()))
    return {"terms": len(p), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def ratfunc_form(r) -> dict:
    return {"denom_pow": r.denom_pow, **_poly_digest(r.num)}


def qpoly_form(x) -> dict:
    return {str(e): c for e, c in sorted(x.coeffs.items())}


def census_form(census) -> list:
    return [list(pair) for pair in census]


def cells_form(cells) -> list:
    return sorted([c.module.bits_str(), c.dimension] for c in cells)


def reports_form(reports) -> dict:
    return {r.suite: {"checks": len(r.checks), "passed": r.all_passed} for r in reports}


# -- independent checks --------------------------------------------------------------

def _qt_symmetric(p) -> str | None:
    terms = dict(p.items())
    swapped = {(a, t, q): c for (a, q, t), c in terms.items()}
    return None if swapped == terms else "not symmetric under q <-> t"


def _divisible_by_q_minus_1(k: int):
    """(q-1)^k divides f exactly when f and its first k-1 derivatives vanish
    at q = 1, i.e. sum_e c_e C(e, j) = 0 for j < k."""

    def check(x) -> str | None:
        coeffs = x.coeffs
        for j in range(k):
            if sum(c * comb(e, j) for e, c in coeffs.items()):
                return f"(q-1)^{k} does not divide the count"
        return None

    return check


def _suites_pass(reports) -> str | None:
    failed = [r.suite for r in reports if not r.all_passed]
    return f"suites failed: {failed}" if failed else None


def _cells_match(m: int, n: int):
    """c(m,n) = (m+n-1)!/(m! n!) modules, and the largest cell has dimension
    delta = (m-1)(n-1)/2."""
    catalan = comb(m + n, m) // (m + n)
    delta = (m - 1) * (n - 1) // 2

    def check(cells) -> str | None:
        if len(cells) != catalan:
            return f"{len(cells)} modules, rational Catalan number is {catalan}"
        top = max(c.dimension for c in cells)
        if top != delta:
            return f"largest cell dimension {top}, delta is {delta}"
        return None

    return check


def _recorded_suites(reports) -> dict:
    """The form of the suites recorded at the seed; a suite added later is
    left to the independent check, which only asks that it passes."""
    form = reports_form(reports)
    return {name: form.get(name) for name in REFERENCE["run_verifications(all)"]}


# -- workloads ---------------------------------------------------------------------

def _cold(fn, cold_start):
    def run():
        cold_start()
        return fn()

    return run


def torus_series(rng: random.Random, cold_start) -> list[Job]:
    """Cold T(11,12) with its reduced numerator and a-census, then cold
    T(9,9) with its a = 0 part.  T(m,n) = T(n,m): the seed picks the
    orientation of the knot."""
    m, n = (11, 12) if rng.random() < 0.5 else (12, 11)
    return [
        Job(f"hhh_torus({m},{n})", "hhh_torus(11,12)",
            _cold(lambda: recursion.hhh_torus(m, n), cold_start), ratfunc_form),
        Job(f"reduced_knot_poly({m},{n})", "reduced_knot_poly(11,12)",
            lambda: recursion.reduced_knot_poly(m, n), _poly_digest, _qt_symmetric),
        Job(f"term_census_a({m},{n})", "term_census_a(11,12)",
            lambda: recursion.term_census_a(m, n), census_form),
        Job("hhh_torus(9,9)", "hhh_torus(9,9)",
            _cold(lambda: recursion.hhh_torus(9, 9), cold_start), ratfunc_form),
        Job("hhh_a0(9,9)", "hhh_a0(9,9)", lambda: recursion.hhh_a0(9, 9), ratfunc_form),
    ]


def hecke_fold(rng: random.Random, cold_start) -> list[Job]:
    """#X(T(8,9); e) on a seed-chosen cyclic rotation of the word (the e-count
    is rotation invariant), and #X(T(7,8) half_twist(7); w0)."""
    knot = braid.torus_braid(8, 9)
    k = rng.randrange(len(knot.letters))
    rotated = braid.cyclic_rotate(knot, k)
    e8 = braid.identity_permutation(8)
    twisted = braid.torus_braid(7, 8).concat(braid.half_twist(7))
    w0 = braid.longest_permutation(7)
    jobs = [
        Job(f"point_count(rot{k}(T(8,9)),e)", "point_count(T(8,9),e)",
            lambda: hecke.point_count(rotated, e8), qpoly_form, _divisible_by_q_minus_1(7)),
        Job("point_count(T(7,8)*half_twist(7),w0)", "point_count(T(7,8)*half_twist(7),w0)",
            lambda: hecke.point_count(twisted, w0), qpoly_form, _divisible_by_q_minus_1(6)),
    ]
    rng.shuffle(jobs)
    return jobs


def verify_all(rng: random.Random, cold_start) -> list[Job]:
    """``torushom verify``: every suite, in the program's fixed order."""
    return [Job("run_verifications(all)", "run_verifications(all)",
                lambda: verify.run_verifications("all"), _recorded_suites, _suites_pass)]


def curve_cells(rng: random.Random, cold_start) -> list[Job]:
    """Compactified Jacobian cells of x^3 = y^7 and x^4 = y^5; the seed picks
    the order of each semigroup's generators and of the two jobs."""
    jobs = []
    for m, n in ((3, 7), (4, 5)):
        a, b = (m, n) if rng.random() < 0.5 else (n, m)
        jobs.append(Job(f"jacobian_cells({a},{b})", f"jacobian_cells({m},{n})",
                        lambda a=a, b=b: curves.jacobian_cells(a, b), cells_form,
                        _cells_match(m, n)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "torus-series": torus_series,
    "hecke-fold": hecke_fold,
    "verify-all": verify_all,
    "curve-cells": curve_cells,
}


def build(workload: str, seed: int, pass_index: int, cold_start) -> list[Job]:
    """The jobs of one pass; pass k of a given seed always gets the same inputs."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    return WORKLOADS[workload](rng, cold_start)
