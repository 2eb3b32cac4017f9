"""Exact-arithmetic toolkit for torus-link homology and its geometric models.

Three independent pipelines cross-check each other:

* the binary-pair recursion for triply graded Poincare series of positive
  torus links (``torushom.recursion``);
* Hecke-algebra and brute-force point counts of braid varieties
  (``torushom.hecke``);
* cell data of Hilbert schemes and compactified Jacobians of plane curve
  singularities (``torushom.curves``).
"""

import os as _os

# All arithmetic here is exact and integer, so numpy never calls BLAS.  OpenBLAS
# reads OPENBLAS_NUM_THREADS once, when numpy loads it, and otherwise starts one
# worker thread per core, which spins after start-up.  Load numpy with one
# thread, then put the environment back as it was.  A value the user set is
# kept, and if numpy was already imported this changes nothing.
if "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .algebra import (
    GradedTable,
    LaurentPoly,
    RatFunc,
    qta_degree_from_QTA,
    series_truncate,
)
from .braid import (
    BraidWord,
    closure_components,
    cyclic_rotate,
    half_twist,
    permutation_of,
    positive_stabilize,
    torus_braid,
)
from .curves import (
    GammaModule,
    Semigroup,
    cell_dimension,
    enumerate_hilb_ideals,
    enumerate_jacobian_modules,
    hilb_poincare_series,
    jacobian_cells,
    lattice_path_count,
    node_hilb,
    ors_compare,
    rational_catalan,
    semigroup,
)
from .hecke import (
    brute_force_count,
    point_count,
)
from .recursion import (
    euler_a0,
    hhh_a0,
    hhh_torus,
    pair_series,
    reduced_knot_poly,
    term_census_a,
)
from .soergel import hhh0_two_strand, hom_complex_two_strand, two_strand_qt_dims

__version__ = "0.1.0"
