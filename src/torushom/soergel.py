"""Independent two-strand oracle: explicit complexes and their homology.

For the k-th power of the positive crossing on two strands, the relevant
complex of free modules over R = C[x1, x2] (deg x_i = 2) is

    R(-2k) -> R(-2k+2) -> ... -> R(-2) -> R

with k+1 terms, the map into the rightmost R being multiplication by
x1 - x2 and the labels alternating (zero, x1-x2, zero, ...) leftwards.
Homology is computed degreewise by exact integer linear algebra on monomial
bases, independently of the recursion pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .algebra import RatFunc, qta_degree_from_QTA, series_truncate

MULT = "x1-x2"
ZERO = "zero"

# Admission budget for hhh0_two_strand, in steps, as ``_steps`` counts them:
# one per entry update of a Bareiss rank, and _POSITION_STEPS per position
# visited, above the ~200 bytes of peak RSS that the table entry a position
# may add costs, so the table stays under MAX_TWO_STRAND_STEPS bytes.  On
# 2 cores an update cost 70-115 ns: `soergel2 1 --cutoff 294` (6.0e7 steps)
# took 4.2-6.8 s at 30 MB, and `soergel2 0 --cutoff 468749` (6.0e7) 0.7-0.9 s
# at 75 MB, so this bounds one call near 7 s and 80 MB.
_POSITION_STEPS = 256
MAX_TWO_STRAND_STEPS = 60_000_000


@dataclass(frozen=True)
class TwoStrandComplex:
    length: int                 # k, the crossing power
    shifts: tuple[int, ...]     # internal shifts, leftmost first: -2k .. 0
    labels: tuple[str, ...]     # labels[j] is the map out of position j+1

    def label_out_of(self, position: int) -> str:
        """Differential leaving `position` (counted from the right, 0-based)."""
        return self.labels[position - 1]


def hom_complex_two_strand(k: int) -> TwoStrandComplex:
    if k < 0:
        raise ValueError("crossing power must be >= 0")
    shifts = tuple(-2 * j for j in range(k, -1, -1))
    labels = tuple(MULT if j % 2 == 1 else ZERO for j in range(1, k + 1))
    return TwoStrandComplex(k, shifts, labels)


def _monomials(degree: int) -> list[tuple[int, int]]:
    """Monomials x1^a x2^b of internal degree `degree` (deg x_i = 2)."""
    if degree < 0 or degree % 2 != 0:
        return []
    s = degree // 2
    return [(a, s - a) for a in range(s + 1)]


def _mult_matrix(degree: int) -> list[list[int]]:
    """Matrix of multiplication by x1 - x2 from degree to degree + 2."""
    src = _monomials(degree)
    dst = {mono: i for i, mono in enumerate(_monomials(degree + 2))}
    rows = [[0] * len(src) for _ in dst]
    for col, (a, b) in enumerate(src):
        rows[dst[(a + 1, b)]][col] += 1
        rows[dst[(a, b + 1)]][col] -= 1
    return rows


def _rank(matrix: list[list[int]]) -> int:
    """Exact rank by fraction-free (Bareiss) elimination: after each pivot
    the rows below hold minors of the matrix, so every division is exact."""
    m = [list(row) for row in matrix]
    rank, prev = 0, 1
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], m[rank])]
        prev = p
        rank += 1
    return rank


def _steps(m: int, cutoff: int) -> int:
    """The steps of hhh0_two_strand(m, cutoff): _POSITION_STEPS for each
    position visited and one for each entry update of each rank run.
    Position j is visited in each degree 2D with j <= D <= h = cutoff // 2,
    so over j <= L = min(m, h) there are (h + 1) + L (L + 1) / 2 + L (h - L)
    visits.  If m >= 1 they rank x1 - x2 out of each degree 2s, s < h, once:
    a (s + 2) x (s + 1) matrix of rank s + 1, whose elimination updates
    (s + 1)^2 (s + 2) / 2 entries.  Over s < h these sum to half of
    S3 + S2, S_k = 1^k + ... + h^k."""
    h = cutoff // 2
    top = min(m, h)
    positions = h + 1 + top * (top + 1) // 2 + top * (h - top)
    ranks = 0
    if m >= 1:
        ranks = ((h * (h + 1) // 2) ** 2 + h * (h + 1) * (2 * h + 1) // 6) // 2
    return positions * _POSITION_STEPS + ranks


@dataclass(frozen=True)
class BigradedDims:
    """Map (internal degree, homological degree) -> dim, complete for
    internal degrees <= cutoff."""

    dims: tuple[tuple[tuple[int, int], int], ...]
    cutoff: int

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.dims)


def hhh0_two_strand(m: int, cutoff: int) -> BigradedDims:
    """Bigraded homology dimensions of the two-strand complex for T(2, m).

    Keys are (internal degree, homological degree); the homological degree
    of position j from the right is -j.  Raises ValueError before computing
    when its steps could pass MAX_TWO_STRAND_STEPS.
    """
    if cutoff < 0:
        raise ValueError("internal degree cutoff must be >= 0")
    if _steps(m, cutoff) > MAX_TWO_STRAND_STEPS:
        raise ValueError(
            f"the T(2,{m}) table to internal degree {cutoff} needs more than "
            f"{MAX_TWO_STRAND_STEPS} steps (the two-strand budget)"
        )
    # Position j sits in internal degrees >= 2j, so only the positions up to
    # cutoff / 2 are built and visited.
    cx = hom_complex_two_strand(min(m, cutoff // 2))
    # The rank of x1 - x2 out of a degree is the same at every position.
    rank = functools.cache(lambda degree: _rank(_mult_matrix(degree)))
    dims = []
    for d in range(0, cutoff + 1, 2):
        # j runs downward, so the keys (d, -j) come out sorted.
        for j in range(min(cx.length, d // 2), -1, -1):
            local = d - 2 * j  # internal degree inside R(-2j)
            ker = local // 2 + 1  # the monomials of degree local
            # Outgoing differential (position j -> j-1).
            if j and cx.label_out_of(j) == MULT:
                ker -= rank(local)
            # Incoming differential (position j+1 -> j).
            img = 0
            if j + 1 <= cx.length and cx.labels[j] == MULT and local >= 2:
                img = rank(local - 2)
            h = ker - img
            if h:
                dims.append(((d, -j), h))
    return BigradedDims(tuple(dims), cutoff)


def bigraded_to_qt(table: BigradedDims) -> dict[tuple[int, int], int]:
    """Convert (internal degree, homological degree) keys to (e_q, e_t)."""
    out: dict[tuple[int, int], int] = {}
    for (d, hom), dim in table.dims:
        eq, et, _ = qta_degree_from_QTA(d, hom, 0)
        out[(eq, et)] = out.get((eq, et), 0) + dim
    return out


def qt_table_within(r: RatFunc, internal_cutoff: int, min_hom: int) -> dict[tuple[int, int], int]:
    """Truncated expansion of r restricted to the window where the two-strand
    table with the given cutoff is complete: internal degree <= cutoff and
    homological degree >= min_hom."""
    depth = internal_cutoff // 2  # e_q = (d + hom)/2 <= d/2
    table = series_truncate(r, depth)
    out = {}
    for (eq, et, ea), c in table.entries:
        if ea != 0:
            raise ValueError("two-strand comparison expects an a=0 series")
        d = 2 * eq - 2 * et
        hom = 2 * et
        if d <= internal_cutoff and hom >= min_hom:
            out[(eq, et)] = c
    return out


def two_strand_qt_dims(m: int, internal_cutoff: int) -> dict[tuple[int, int], int]:
    """Homology table of T(2, m) in (e_q, e_t) coordinates."""
    return bigraded_to_qt(hhh0_two_strand(m, internal_cutoff))
