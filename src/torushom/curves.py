"""Hilbert schemes and compactified Jacobians of x^m = y^n, combinatorially.

Torus-fixed points of both moduli spaces are subsets of Z>=0 invariant under
adding m and n; their attracting cells are affine spaces whose dimension is
read off the subset by a gap count.  The node xy = 0 is special-cased from
its known classification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd
from typing import Optional

from .algebra import GradedTable, series_truncate, table_monomial_ratio

JACOBIAN = "jacobian"
HILB = "hilb"

# Admission budget for enumerating modules: their number times their window
# length, in bits (see ``_admit``).  Measured on 2 cores, Jacobian cells cost
# 0.8-1.6 us and up to 20 bytes of peak RSS per bit over the 28 MB start-up,
# Hilbert levels 0.5-0.8 us and almost no memory, so this bounds one command
# near 6 s and 110 MB; (10,11), with 1.7 million bits, takes 1.4-1.8 s at 56 MB.
MAX_MODULE_BITS = 4_000_000

# Admission budget for the node series, in levels (colengths 0..kmax).  Each
# level holds two table entries; `curve node --max-k 99999 --json` measured
# 1.1 s at 118 MB peak RSS on 2 cores, so this too bounds one command near
# 130 MB.
MAX_NODE_LEVELS = 100_000


@dataclass(frozen=True)
class Semigroup:
    """Numerical semigroup generated by coprime m, n."""

    m: int
    n: int
    conductor: int
    delta: int
    gaps: tuple[int, ...]

    @staticmethod
    def check_generators(m: int, n: int) -> None:
        if m < 1 or n < 1:
            raise ValueError("semigroup generators must be positive")
        if gcd(m, n) != 1:
            raise ValueError(f"generators must be coprime, gcd({m},{n})={gcd(m, n)}")

    @staticmethod
    def of(m: int, n: int) -> "Semigroup":
        Semigroup.check_generators(m, n)
        conductor = (m - 1) * (n - 1)
        member = [False] * (conductor + 1)
        member[0] = True
        for j in range(1, conductor + 1):
            member[j] = (j >= m and member[j - m]) or (j >= n and member[j - n])
        gaps = tuple(j for j in range(conductor) if not member[j])
        assert len(gaps) == conductor // 2
        return Semigroup(m, n, conductor, conductor // 2, gaps)

    def member(self, j: int) -> bool:
        if j < 0:
            return False
        if j >= self.conductor:
            return True
        return j not in self._gap_set

    @cached_property
    def _gap_set(self) -> frozenset:
        return frozenset(self.gaps)


def semigroup(m: int, n: int) -> Semigroup:
    return Semigroup.of(m, n)


def rational_catalan(m: int, n: int) -> int:
    """(m+n-1)! / (m! n!) = C(m+n, m) / (m+n), exactly."""
    if m < 0 or n < 0:
        raise ValueError("rational Catalan numbers need non-negative arguments")
    if gcd(m, n) != 1:
        raise ValueError("rational Catalan numbers need coprime arguments")
    value, rem = divmod(comb(m + n, m), m + n)
    assert rem == 0
    return value


def lattice_path_count(m: int, n: int) -> int:
    """Monotone paths NW -> SE across the m x n rectangle staying weakly
    below the diagonal, by dynamic programming."""
    if gcd(m, n) != 1:
        raise ValueError("lattice path count needs coprime arguments")
    bound = m * n

    def ok(x, y):
        return m * x + n * y <= bound

    counts = {(0, m): 1}
    for x in range(0, n + 1):
        for y in range(m, -1, -1):
            if (x, y) == (0, m) or not ok(x, y):
                continue
            counts[(x, y)] = counts.get((x - 1, y), 0) + counts.get((x, y + 1), 0)
    return counts.get((n, 0), 0)


@dataclass(frozen=True)
class GammaModule:
    """Subset of Z>=0 closed under adding m and n, over window [0, span);
    every ambient exponent >= span belongs to the module."""

    sem: Semigroup
    mode: str
    bits: tuple[bool, ...]

    def __post_init__(self):
        if self.mode not in (JACOBIAN, HILB):
            raise ValueError(f"unknown mode {self.mode!r}")
        m, n = self.sem.m, self.sem.n
        # Canonical window: extend with ambient membership, then trim the
        # all-present tail to conductor/last-gap + max(m, n), so that equal
        # modules built over different windows compare equal.
        bits = list(self.bits)
        last_missing = max(
            (j for j, b in enumerate(bits) if not b), default=-1
        )
        required = max(self.sem.conductor, last_missing + 1) + max(m, n)
        while len(bits) < required:
            j = len(bits)
            bits.append(True if self.mode == JACOBIAN else self.sem.member(j))
        object.__setattr__(self, "bits", tuple(bits[:required]))
        span = len(self.bits)
        for j in range(span):
            if not self.bits[j]:
                continue
            for s in (m, n):
                if j + s < span and not self.bits[j + s]:
                    raise ValueError(f"not closed: {j} in module but {j + s} not")
        if self.mode == JACOBIAN:
            if not self.bits or not self.bits[0]:
                raise ValueError("jacobian modules must contain 0")
        else:
            for j in range(span):
                if self.bits[j] and not self.sem.member(j):
                    raise ValueError("hilb ideals must sit inside the semigroup")

    @property
    def span(self) -> int:
        return len(self.bits)

    def member(self, j: int) -> bool:
        if j < 0:
            return False
        if j >= self.span:
            return True
        return self.bits[j]

    def minimal_generators(self) -> tuple[int, ...]:
        """The j in the module with neither j - m nor j - n in it."""
        m, n, bits = self.sem.m, self.sem.n, self.bits
        return tuple(
            j
            for j, present in enumerate(bits)
            if present and not (j >= m and bits[j - m]) and not (j >= n and bits[j - n])
        )

    def colength(self) -> int:
        """|Gamma \\ Delta| in hilb mode; number of missing ambient exponents
        in jacobian mode."""
        if self.mode == HILB:
            return sum(
                1 for j in range(self.span) if self.sem.member(j) and not self.bits[j]
            )
        return sum(1 for j in range(self.span) if not self.bits[j])

    def bits_str(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def _admit(m: int, n: int, kmax: Optional[int] = None) -> Semigroup:
    """The semigroup <m, n>, once enumerating its Jacobian modules (or, given
    kmax, its ideals of colength 0..kmax) fits ``MAX_MODULE_BITS``.

    There are c(m, n) Jacobian modules, each a window of conductor +
    max(m, n) bits.  A Hilbert level holds at most c(m, n) ideals, since
    Delta -> Delta - min(Delta) is injective on it, and every element of
    Gamma \\ Delta lies below conductor + k for an ideal of colength k, so
    its window is at most k bits longer.  The window is checked first, so
    that a huge pair is refused before its Catalan number or its semigroup
    is built."""
    Semigroup.check_generators(m, n)
    levels, window = 1, (m - 1) * (n - 1) + max(m, n)
    if kmax is not None:
        if kmax < 0:
            raise ValueError("colength must be >= 0")
        levels, window = kmax + 1, window + kmax
    bits = window
    if bits <= MAX_MODULE_BITS:
        bits = levels * rational_catalan(m, n) * window
    if bits > MAX_MODULE_BITS:
        what = "modules" if kmax is None else f"ideals of colength <= {kmax}"
        raise ValueError(
            f"the {what} of x^{m} = y^{n} need more than {MAX_MODULE_BITS} "
            f"window bits (the module budget)"
        )
    return Semigroup.of(m, n)


def enumerate_jacobian_modules(m: int, n: int) -> list[GammaModule]:
    """All 0-normalized (m, n)-invariant subsets of Z>=0."""
    sem = _admit(m, n)
    span = sem.conductor + max(m, n)
    base = [sem.member(j) for j in range(span)]
    gaps_desc = sorted(sem.gaps, reverse=True)
    results: list[GammaModule] = []
    # Depth-first over the gaps, largest first: a gap may join the module
    # once both of its shifts are in it.  Iterative, since the depth is delta.
    stack: list[tuple[int, frozenset]] = [(0, frozenset())]
    while stack:
        idx, chosen = stack.pop()
        if idx == len(gaps_desc):
            bits = list(base)
            for h in chosen:
                bits[h] = True
            results.append(GammaModule(sem, JACOBIAN, tuple(bits)))
            continue
        h = gaps_desc[idx]
        stack.append((idx + 1, chosen))
        if all(sem.member(h + s) or (h + s) in chosen for s in (m, n)):
            stack.append((idx + 1, chosen | {h}))
    return sorted(results, key=lambda d: d.bits)


def _hilb_levels(sem: Semigroup, kmax: int):
    """Yield, for k = 0, ..., kmax, the ideals of colength k as their sets
    Gamma \\ Delta, each level grown from the one before by removing one
    more element."""
    m, n = sem.m, sem.n
    level: set[frozenset] = {frozenset()}
    for k in range(kmax + 1):
        if k:
            nxt: set[frozenset] = set()
            for removed in level:
                candidates = {0} if not removed else set()
                for r in removed:
                    for s in (m, n):
                        candidates.add(r + s)
                for x in candidates:
                    if x in removed or not sem.member(x):
                        continue
                    if all(not sem.member(x - s) or (x - s) in removed for s in (m, n)):
                        nxt.add(removed | {x})
            level = nxt
        yield level


def _hilb_ideal(sem: Semigroup, removed: frozenset) -> GammaModule:
    top = max(removed) if removed else 0
    span = max(sem.conductor, top + 1) + max(sem.m, sem.n)
    bits = tuple(sem.member(j) and j not in removed for j in range(span))
    return GammaModule(sem, HILB, bits)


def enumerate_hilb_ideals(m: int, n: int, k: int) -> list[GammaModule]:
    """All semigroup ideals Delta of colength k."""
    sem = _admit(m, n, k)
    for level in _hilb_levels(sem, k):
        pass
    return sorted((_hilb_ideal(sem, r) for r in level), key=lambda d: d.bits)


@dataclass(frozen=True)
class CellRecord:
    module: GammaModule
    generators: tuple[int, ...]
    dimension: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta_bits": self.module.bits_str(),
                "generators": list(self.generators),
                "dimension": self.dimension,
            }
        )


def cell_dimension(mod: GammaModule) -> CellRecord:
    """Dimension of the attracting cell of the fixed point Delta.

    With a_r the least element of Delta congruent to r mod m (its
    m-generators), the cell has dimension
        sum_r #{x in A \\ Delta : a_r < x < a_r + n},
    where A is Z>=0 for a Jacobian module and Gamma for a Hilbert ideal
    (Piontkowski; Gorsky-Mazin).  One pass over the window reads the a_r
    and the running count below[j] = #{x in A \\ Delta : x < j}; each term
    is a difference of two counts, as Delta holds every x past the window."""
    m, n, bits = mod.sem.m, mod.sem.n, mod.bits
    ambient = mod.mode == JACOBIAN
    below, least = [0], []
    for j, present in enumerate(bits):
        if present and (j < m or not bits[j - m]):
            least.append(j)
        below.append(below[-1] + (not present and (ambient or mod.sem.member(j))))
    dimension = sum(below[min(a + n, len(bits))] - below[a + 1] for a in least)
    return CellRecord(mod, mod.minimal_generators(), dimension)


def jacobian_cells(m: int, n: int) -> list[CellRecord]:
    return [cell_dimension(mod) for mod in enumerate_jacobian_modules(m, n)]


def _cell_poincare(mods) -> dict[int, int]:
    """t-degree 2 dim -> number of cells of that dimension."""
    out: dict[int, int] = {}
    for mod in mods:
        key = 2 * cell_dimension(mod).dimension
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def jacobian_poincare(m: int, n: int) -> dict[int, int]:
    """t-degree -> count over the cells of the compactified Jacobian."""
    return _cell_poincare(enumerate_jacobian_modules(m, n))


def hilb_level_poincare(m: int, n: int, k: int) -> dict[int, int]:
    """t-degree -> count over the cells of Hilb^k."""
    return _cell_poincare(enumerate_hilb_ideals(m, n, k))


def hilb_poincare_series(m: int, n: int, kmax: int) -> GradedTable:
    """sum_k q^k (sum_cells t^{2 dim}) for 0 <= k <= kmax."""
    sem = _admit(m, n, kmax)
    entries: dict[tuple[int, int, int], int] = {}
    for k, level in enumerate(_hilb_levels(sem, kmax)):
        for td, c in _cell_poincare(_hilb_ideal(sem, r) for r in level).items():
            entries[(k, td, 0)] = c
    return GradedTable.build(entries, kmax)


def node_hilb(kmax: int) -> GradedTable:
    """Hilbert scheme series of the node xy = 0: points in sizes 0 and 1,
    a chain of k-1 projective lines in size k >= 2."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if kmax >= MAX_NODE_LEVELS:
        raise ValueError(
            f"the node series up to colength {kmax} needs more than "
            f"{MAX_NODE_LEVELS} levels (the level budget)"
        )
    entries: dict[tuple[int, int, int], int] = {}
    for k in range(kmax + 1):
        entries[(k, 0, 0)] = 1
        if k >= 2:
            entries[(k, 2, 0)] = k - 1
    return GradedTable.build(entries, kmax)


# Documented regrading between the Hilbert-scheme series and the a=0 homology
# series: t -> 1/(q t^2), given as the exponents (e_q, e_t) of the image, with
# any leftover normalization reported as an overall monomial ratio.
ORS_T_IMAGE = (-1, -2)


@dataclass(frozen=True)
class OrsReport:
    m: int
    n: int
    kmax: int
    success: bool
    ratio: Optional[tuple[int, int, int]]
    hilb_table: GradedTable
    homology_table: GradedTable

    def render(self) -> str:
        status = "match" if self.success else "MISMATCH"
        ratio = (
            f" ratio q^{self.ratio[0]}*t^{self.ratio[1]}"
            if self.success and self.ratio is not None
            else ""
        )
        return f"ors({self.m},{self.n}) kmax={self.kmax}: {status}{ratio}"


def ors_compare(m: int, n: int, kmax: int) -> OrsReport:
    """Compare the Hilbert scheme series with the regraded a=0 homology
    series on the common truncation window."""
    from .recursion import hhh_a0

    hilb = hilb_poincare_series(m, n, kmax)
    regraded = hhh_a0(m, n).regrade_t(*ORS_T_IMAGE)
    homology = series_truncate(regraded, kmax)
    ratio = table_monomial_ratio(hilb, homology)
    return OrsReport(m, n, kmax, ratio is not None, ratio, hilb, homology)


def euler_compare(
    m: int, n: int, kmax: int
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Check the point-count (Euler characteristic) shadow: the Hilbert
    series at t=1 against the q-only homology specialization."""
    from .recursion import euler_a0

    hilb = hilb_poincare_series(m, n, kmax)
    flat = GradedTable.build(
        {(eq, 0, 0): c for eq, c in hilb.specialize_t1().items()}, kmax
    )
    target = series_truncate(euler_a0(m, n), kmax)
    ratio = table_monomial_ratio(flat, target)
    return ratio is not None, ratio


def node_euler(kmax: int) -> dict[int, int]:
    return node_hilb(kmax).specialize_t1()
