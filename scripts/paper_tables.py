#!/usr/bin/env python3
"""Reproduce the worked desk-scale tables from all three pipelines.

Prints homology series of small torus links, the reduced T(3,4) data,
braid-variety point counts, compactified Jacobian cells, and the
Hilbert-scheme comparisons, so the outputs can be eyeballed side by side.
"""

import argparse

from torushom import (
    euler_a0,
    hhh_a0,
    hhh_torus,
    jacobian_cells,
    ors_compare,
    point_count,
    rational_catalan,
    reduced_knot_poly,
    term_census_a,
    torus_braid,
)
from torushom.algebra import render_descending, render_poly, render_ratfunc
from torushom.braid import identity_permutation
from torushom.curves import node_hilb


MAX_TWO_STRAND = 7   # largest T(2, n) to print
MAX_SIGMA_POWER = 6  # largest X(sigma^k) count
KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5))
CURVES = ((2, 3), (2, 5), (3, 4))


def homology_tables() -> None:
    print("== torus link Poincare series ==")
    for n in range(0, MAX_TWO_STRAND + 1):
        print(f"HHH(T(2,{n}))      = {render_ratfunc(hhh_torus(2, n))}")
        print(f"HHH^0(T(2,{n}))    = {render_ratfunc(hhh_a0(2, n))}")
    print()
    print("== reduced knot data ==")
    for m, n in KNOTS:
        poly = reduced_knot_poly(m, n)
        census = term_census_a(m, n)
        total = sum(c for _, c in census)
        print(f"T({m},{n}): reduced a=0 numerator {render_poly(poly)}")
        print(f"         census {census} ({total} generators), "
              f"euler {render_ratfunc(euler_a0(m, n))}")


def braid_variety_tables() -> None:
    print("== braid variety point counts ==")
    e = identity_permutation(2)
    for k in range(1, MAX_SIGMA_POWER + 1):
        count = point_count(torus_braid(2, k), e)
        print(f"#X(sigma^{k}) = {render_descending(count)}")


def curve_tables(ors_kmax: int) -> None:
    print("== compactified Jacobian cells ==")
    for m, n in CURVES:
        cells = jacobian_cells(m, n)
        dims = sorted((c.dimension for c in cells), reverse=True)
        print(f"Jac({m},{n}): {len(cells)} cells (catalan "
              f"{rational_catalan(m, n)}), dimensions {dims}")
    print()
    print("== Hilbert scheme series and comparisons ==")
    for m, n in CURVES:
        report = ors_compare(m, n, ors_kmax)
        print(f"hilb({m},{n}) entries: {dict(report.hilb_table.entries)}")
        print(report.render())
    print(f"node series: {dict(node_hilb(6).entries)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ors-kmax", type=int, default=10)
    args = parser.parse_args()
    homology_tables()
    print()
    braid_variety_tables()
    print()
    curve_tables(args.ors_kmax)


if __name__ == "__main__":
    main()
