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

from .algebra import GradedTable, series_truncate

JACOBIAN = "jacobian"
HILB = "hilb"

# Admission budget for enumerating modules: their number times their window
# length, in bits (see ``_admit``).  Measured on 2 cores through the CLI with
# --json, Jacobian cells cost 0.06-0.16 us and up to 8 bytes of peak RSS per
# bit over the 29 MB start-up, Hilbert levels 0.04-0.06 us and at most 1 byte,
# so this bounds one command near 0.7 s and 62 MB; (10,11), with 1.7 million
# bits, takes 0.2-0.27 s at 42 MB.
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
        return j >= 0 and not self._gap_mask >> j & 1

    @cached_property
    def _gap_mask(self) -> int:
        """Bit j set exactly when j is a gap.  Below the conductor, Gamma is
        the union of the multiples of the smaller generator shifted by each
        multiple of the larger: one base-2^lo repunit, OR-ed in lo - 1 times
        or fewer."""
        lo, hi = sorted((self.m, self.n))
        c = self.conductor
        row = ((1 << lo * (c // lo + 1)) - 1) // ((1 << lo) - 1)
        gamma = 0
        for shift in range(0, c, hi):
            gamma |= row << shift
        return ((1 << c) - 1) & ~gamma


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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class GammaModule:
    """Subset Delta of Z>=0 closed under adding m and n, over window
    [0, span); every ambient exponent >= span belongs to the module.

    Delta is held as the integer ``mask`` whose bit j is set exactly when
    j is in Delta on the window.  The window is canonical, trimmed to
    max(conductor, last missing exponent + 1) + max(m, n), so its top bit
    is always set, span is ``mask.bit_length()``, and equal modules built
    over different windows compare equal.  ``bits`` reads the window back
    as a tuple of bools."""

    sem: Semigroup
    mode: str
    mask: int

    def __init__(self, sem: Semigroup, mode: str, bits: tuple[bool, ...]):
        if mode not in (JACOBIAN, HILB):
            raise ValueError(f"unknown mode {mode!r}")
        m, n = sem.m, sem.n
        given = len(bits)
        # Byte j of the bools is hex digit 2j + 1, so the odd digits read
        # backwards are the binary numeral of the mask.
        mask = int(bytes(map(bool, bits)).hex()[::-2] or "0", 2)
        # Canonical window: extend with ambient membership, then trim the
        # all-present tail.
        last_missing = (((1 << given) - 1) ^ mask).bit_length() - 1
        span = max(sem.conductor, last_missing + 1) + max(m, n)
        window = (1 << span) - 1
        if given < span:
            ambient = window if mode == JACOBIAN else window & ~sem._gap_mask
            mask |= ambient >> given << given
        mask &= window
        # j in Delta with j + s < span outside it: name the lowest such j,
        # and for that j try m before n.
        open_m = mask & ~(mask >> m) & window >> m
        open_n = mask & ~(mask >> n) & window >> n
        if open_m | open_n:
            low = (open_m | open_n) & -(open_m | open_n)
            j = low.bit_length() - 1
            raise ValueError(
                f"not closed: {j} in module but {j + (m if open_m & low else n)} not"
            )
        if mode == JACOBIAN:
            if not mask & 1:
                raise ValueError("jacobian modules must contain 0")
        elif mask & sem._gap_mask:
            raise ValueError("hilb ideals must sit inside the semigroup")
        object.__setattr__(self, "sem", sem)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _of_mask(cls, sem: Semigroup, mode: str, mask: int) -> "GammaModule":
        """The module whose canonical mask is ``mask``, built unchecked."""
        mod = object.__new__(cls)
        object.__setattr__(mod, "sem", sem)
        object.__setattr__(mod, "mode", mode)
        object.__setattr__(mod, "mask", mask)
        return mod

    def __repr__(self) -> str:
        return f"GammaModule(sem={self.sem!r}, mode={self.mode!r}, bits={self.bits!r})"

    @property
    def bits(self) -> tuple[bool, ...]:
        return tuple(map("1".__eq__, self.bits_str()))

    @property
    def span(self) -> int:
        return self.mask.bit_length()

    def member(self, j: int) -> bool:
        return j >= 0 and (j >= self.span or bool(self.mask >> j & 1))

    def minimal_generators(self) -> tuple[int, ...]:
        """The j in the module with neither j - m nor j - n in it."""
        d = self.mask
        return _positions(d & ~(d << self.sem.m) & ~(d << self.sem.n))

    def colength(self) -> int:
        """|Gamma \\ Delta| in hilb mode; number of missing ambient exponents
        in jacobian mode."""
        missing = ((1 << self.span) - 1) ^ self.mask
        if self.mode == HILB:
            missing &= ~self.sem._gap_mask
        return missing.bit_count()

    def bits_str(self) -> str:
        return bin(self.mask)[:1:-1]


def _positions(mask: int) -> tuple[int, ...]:
    """The j with bit j of ``mask`` set, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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
    level = [((1 << sem.conductor + max(m, n)) - 1) & ~sem._gap_mask]
    # Gaps largest first: gap h may join a module once h + m and h + n are
    # in it.  Each pass appends the modules that gain h after those that do
    # not, so the list stays sorted by the bits tuple: the gaps are the only
    # bits that differ, and a smaller gap weighs more.
    for h in reversed(sem.gaps):
        need = 1 << h + m | 1 << h + n
        level += [d | 1 << h for d in level if d & need == need]
    return [GammaModule._of_mask(sem, JACOBIAN, d) for d in level]


def _hilb_levels(sem: Semigroup, kmax: int):
    """Yield, for k = 0, ..., kmax, the ideals of colength k as the masks of
    Gamma \\ Delta, each level grown from the one before by removing one
    more element: 0 first, then a shift by m or n of one already removed
    whose own shifts back by m and n are outside Delta."""
    m, n = sem.m, sem.n
    # Gamma \ Delta lies below conductor + k at colength k (see _admit).
    gamma = ((1 << sem.conductor + kmax + max(m, n)) - 1) & ~sem._gap_mask
    level = {0}
    for k in range(kmax + 1):
        if k:
            nxt = set()
            for removed in level:
                kept = gamma & ~removed
                grow = (
                    (removed << m | removed << n or 1)
                    & kept & ~(kept << m) & ~(kept << n)
                )
                while grow:
                    low = grow & -grow
                    nxt.add(removed | low)
                    grow ^= low
            level = nxt
        yield level


def _hilb_ideal(sem: Semigroup, removed: int) -> GammaModule:
    span = max(sem.conductor, removed.bit_length()) + max(sem.m, sem.n)
    return GammaModule._of_mask(
        sem, HILB, ((1 << span) - 1) & ~sem._gap_mask & ~removed
    )


def enumerate_hilb_ideals(m: int, n: int, k: int) -> list[GammaModule]:
    """All semigroup ideals Delta of colength k."""
    sem = _admit(m, n, k)
    for level in _hilb_levels(sem, k):
        pass
    return sorted((_hilb_ideal(sem, r) for r in level), key=GammaModule.bits_str)


@dataclass(frozen=True)
class CellRecord:
    module: GammaModule
    generators: tuple[int, ...]
    dimension: int

    def to_dict(self) -> dict:
        return {
            "delta_bits": self.module.bits_str(),
            "generators": list(self.generators),
            "dimension": self.dimension,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def cell_dimension(mod: GammaModule) -> CellRecord:
    """Dimension of the attracting cell of the fixed point Delta.

    With a_r the least element of Delta congruent to r mod m (its
    m-generators), the cell has dimension
        sum_r #{x in A \\ Delta : a_r < x < a_r + n},
    where A is Z>=0 for a Jacobian module and Gamma for a Hilbert ideal
    (Piontkowski; Gorsky-Mazin).  On masks the a_r are Delta & ~(Delta << m),
    and the sum is sum_{d=1}^{n-1} |(A \\ Delta) & (a << d)|, one popcount per
    offset; A \\ Delta lies inside the window, as Delta holds every x past it."""
    m, n, delta = mod.sem.m, mod.sem.n, mod.mask
    missing = ((1 << delta.bit_length()) - 1) ^ delta
    if mod.mode == HILB:
        missing &= ~mod.sem._gap_mask
    least = delta & ~(delta << m)
    dimension = sum((missing & least << d).bit_count() for d in range(1, n))
    return CellRecord(mod, _positions(least & ~(delta << n)), dimension)


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
# series: t -> 1/(q t^2), given as the exponents (e_q, e_t) of the image.  The
# two tables must then be equal, with no shift.
ORS_T_IMAGE = (-1, -2)


@dataclass(frozen=True)
class OrsReport:
    m: int
    n: int
    kmax: int
    success: bool
    euler_success: bool
    hilb_table: GradedTable
    homology_table: GradedTable

    def render(self) -> str:
        head = f"({self.m},{self.n}) kmax={self.kmax}: "
        return "\n".join(
            f"{name}{head}{'match' if ok else 'MISMATCH'}"
            for name, ok in (("ors", self.success), ("euler", self.euler_success))
        )


def ors_compare(m: int, n: int, kmax: int) -> OrsReport:
    """Compare the Hilbert scheme series with the regraded a=0 homology
    series on q-degrees <= kmax, and its t=1 specialization with the Euler
    characteristic series (a -> 0, then t -> 1/q, as ``euler_a0``)."""
    from .recursion import hhh_a0

    hilb = hilb_poincare_series(m, n, kmax)
    a0 = hhh_a0(m, n)
    homology = series_truncate(a0.regrade_t(*ORS_T_IMAGE), kmax)
    flat = GradedTable.build(
        {(eq, 0, 0): c for eq, c in hilb.specialize_t1().items()}, kmax
    )
    euler = series_truncate(a0.regrade_t(-1, 0), kmax)
    return OrsReport(m, n, kmax, hilb == homology, flat == euler, hilb, homology)
