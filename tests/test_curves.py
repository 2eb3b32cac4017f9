import inspect
import itertools
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from math import gcd

from torushom import curves, recursion
from torushom.algebra import LaurentPoly, Q, RatFunc, T, series_truncate
from torushom.curves import (
    CellRecord,
    GammaModule,
    HILB,
    JACOBIAN,
    cell_dimension,
    enumerate_hilb_ideals,
    enumerate_jacobian_modules,
    hilb_poincare_series,
    jacobian_cells,
    jacobian_poincare,
    lattice_path_count,
    node_hilb,
    ors_compare,
    rational_catalan,
    semigroup,
)


# -- the assignment counter, kept as the oracle for the gap formula -------------

CELL_PRIMES = (2, 3, 5)
_ASSIGNMENT_BUDGET = 10**6


def _parameters(cell: CellRecord) -> tuple[tuple[int, int], ...]:
    """The cell's parameters in canonical form, read off the module's bits:
    each generator g paired with every exponent h > g outside Delta (and
    inside Gamma for a Hilbert ideal)."""
    mod = cell.module
    outside = [
        h
        for h, present in enumerate(mod.bits)
        if not present and (mod.mode == JACOBIAN or mod.sem.member(h))
    ]
    return tuple((g, h) for g in cell.generators for h in outside if h > g)


def _module_closes(mod: GammaModule, gens, assignment: dict, p: int) -> bool:
    """Whether the span of the parametrized generators is closed with order
    set exactly the module: build a triangular basis, reducing each product
    by t^m, t^n; any leading exponent outside the module is a failure."""
    m, n = mod.sem.m, mod.sem.n
    span = mod.span
    basis: dict[int, dict[int, int]] = {}

    def reduce(vec: dict[int, int]) -> dict[int, int]:
        while vec:
            lead = min(vec)
            hit = basis.get(lead)
            if hit is None:
                return vec
            c = vec[lead]
            for e, v in hit.items():
                s = (vec.get(e, 0) - c * v) % p
                if s:
                    vec[e] = s
                else:
                    vec.pop(e, None)
        return vec

    def insert(vec: dict[int, int]) -> bool:
        vec = reduce(vec)
        if not vec:
            return True
        lead = min(vec)
        if not mod.member(lead):
            return False
        inv = pow(vec[lead], -1, p)
        basis[lead] = {e: (v * inv) % p for e, v in vec.items()}
        pending.append(lead)
        return True

    pending: list[int] = []
    vecs = {g: {g: 1} for g in gens}
    for (g, h), c in assignment.items():
        if c % p:
            vecs[g][h] = c % p
    for vec in vecs.values():
        if not insert(vec):
            return False
    while pending:
        d = pending.pop()
        for s in (m, n):
            if d + s >= span:
                continue
            shifted = {e + s: c for e, c in basis[d].items() if e + s < span}
            if not insert(shifted):
                return False
    return True


def counted_dimension(cell: CellRecord, p_set=CELL_PRIMES) -> int:
    """Certify the attracting cell of a fixed point as an affine space by
    counting closed parameter assignments over each prime field, and return
    its dimension."""
    mod, gens, params = cell.module, cell.generators, _parameters(cell)
    dims = []
    for p in p_set:
        if p ** len(params) > _ASSIGNMENT_BUDGET:
            raise ValueError(
                f"parameter space {p}^{len(params)} exceeds the counting budget"
            )
        count = 0
        for values in itertools.product(range(p), repeat=len(params)):
            assignment = dict(zip(params, values))
            if _module_closes(mod, gens, assignment, p):
                count += 1
        d = next((e for e in range(len(params) + 1) if p**e == count), None)
        if d is None:
            raise ArithmeticError(
                f"cell not affine as computed: count {count} over F_{p}"
            )
        dims.append(d)
    if len(set(dims)) > 1:
        raise ArithmeticError(
            f"cell not affine as computed: dimensions {dims} disagree across primes"
        )
    return dims[0]


# -- the per-bit code the masks replaced, kept as references -------------------

def _in_gamma(sem, j: int) -> bool:
    return j >= 0 and j not in sem.gaps


def _ref_canonical(sem, mode: str, bits) -> tuple[bool, ...]:
    """The canonical window of the module given by ``bits``, or the
    ValueError that building it must raise, checked bit by bit."""
    if mode not in (JACOBIAN, HILB):
        raise ValueError(f"unknown mode {mode!r}")
    m, n = sem.m, sem.n
    bits = [bool(b) for b in bits]
    last_missing = max((j for j, b in enumerate(bits) if not b), default=-1)
    required = max(sem.conductor, last_missing + 1) + max(m, n)
    while len(bits) < required:
        bits.append(mode == JACOBIAN or _in_gamma(sem, len(bits)))
    bits = tuple(bits[:required])
    for j in range(required):
        if not bits[j]:
            continue
        for s in (m, n):
            if j + s < required and not bits[j + s]:
                raise ValueError(f"not closed: {j} in module but {j + s} not")
    if mode == JACOBIAN:
        if not bits[0]:
            raise ValueError("jacobian modules must contain 0")
    elif any(b and not _in_gamma(sem, j) for j, b in enumerate(bits)):
        raise ValueError("hilb ideals must sit inside the semigroup")
    return bits


def _ref_generators(sem, bits) -> tuple[int, ...]:
    m, n = sem.m, sem.n
    return tuple(
        j
        for j, present in enumerate(bits)
        if present and not (j >= m and bits[j - m]) and not (j >= n and bits[j - n])
    )


def _ref_colength(sem, mode: str, bits) -> int:
    if mode == HILB:
        return sum(1 for j, b in enumerate(bits) if _in_gamma(sem, j) and not b)
    return sum(1 for b in bits if not b)


def _ref_dimension(sem, mode: str, bits) -> int:
    """The gap formula by one running count over the window."""
    m, n = sem.m, sem.n
    below, least = [0], []
    for j, present in enumerate(bits):
        if present and (j < m or not bits[j - m]):
            least.append(j)
        below.append(below[-1] + (not present and (mode == JACOBIAN or _in_gamma(sem, j))))
    return sum(below[min(a + n, len(bits))] - below[a + 1] for a in least)


def _ref_jacobian_bits(sem) -> list[tuple[bool, ...]]:
    """Depth first over the gaps, largest first; sorted."""
    m, n = sem.m, sem.n
    span = sem.conductor + max(m, n)
    gaps_desc = sorted(sem.gaps, reverse=True)
    out = []
    stack = [(0, frozenset())]
    while stack:
        idx, chosen = stack.pop()
        if idx == len(gaps_desc):
            out.append(tuple(_in_gamma(sem, j) or j in chosen for j in range(span)))
            continue
        h = gaps_desc[idx]
        stack.append((idx + 1, chosen))
        if all(_in_gamma(sem, h + s) or h + s in chosen for s in (m, n)):
            stack.append((idx + 1, chosen | {h}))
    return sorted(out)


def _ref_hilb_levels(sem, kmax: int):
    """The sets Gamma \\ Delta of colength k = 0, ..., kmax, as frozensets."""
    m, n = sem.m, sem.n
    level = {frozenset()}
    for k in range(kmax + 1):
        if k:
            nxt = set()
            for removed in level:
                candidates = {0} if not removed else {r + s for r in removed for s in (m, n)}
                for x in candidates:
                    if x in removed or not _in_gamma(sem, x):
                        continue
                    if all(not _in_gamma(sem, x - s) or (x - s) in removed for s in (m, n)):
                        nxt.add(removed | {x})
            level = nxt
        yield level


def _ref_hilb_bits(sem, removed: frozenset) -> tuple[bool, ...]:
    top = max(removed) if removed else 0
    span = max(sem.conductor, top + 1) + max(sem.m, sem.n)
    bits = tuple(_in_gamma(sem, j) and j not in removed for j in range(span))
    return _ref_canonical(sem, HILB, bits)


def _assert_matches_reference(mod: GammaModule) -> None:
    sem, mode, bits = mod.sem, mod.mode, mod.bits
    assert _ref_canonical(sem, mode, bits) == bits
    assert GammaModule(sem, mode, bits) == mod
    assert len(bits) == mod.span and mod.bits_str() == "".join("01"[b] for b in bits)
    generators = _ref_generators(sem, bits)
    assert mod.minimal_generators() == generators
    assert mod.colength() == _ref_colength(sem, mode, bits)
    cell = cell_dimension(mod)
    assert (cell.generators, cell.dimension) == (generators, _ref_dimension(sem, mode, bits))


def _pairs(total: int) -> list[tuple[int, int]]:
    """Every coprime (m, n) with m + n <= total, both orders."""
    return [
        (m, n) for m in range(1, total) for n in range(1, total + 1 - m) if gcd(m, n) == 1
    ]


coprime_pairs = st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(
    lambda p: gcd(*p) == 1 and p[0] + p[1] <= 12
)


class TestSemigroup:
    def test_cusp(self):
        s = semigroup(2, 3)
        assert s.gaps == (1,)
        assert s.conductor == 2
        assert s.delta == 1

    def test_2_5(self):
        s = semigroup(2, 5)
        assert s.gaps == (1, 3)
        assert s.conductor == 4
        assert s.delta == 2

    def test_3_4(self):
        s = semigroup(3, 4)
        assert s.gaps == (1, 2, 5)
        assert s.conductor == 6
        assert s.delta == 3

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            semigroup(2, 4)

    @given(coprime_pairs)
    def test_membership_definition(self, pair):
        m, n = pair
        s = semigroup(m, n)
        members = {a * m + b * n for a in range(n + 2) for b in range(m + 2)}
        for j in range(s.conductor + 3):
            assert s.member(j) == (j in members)
        assert len(s.gaps) == s.delta


class TestCatalanCounts:
    def test_values(self):
        assert rational_catalan(2, 3) == 2
        assert rational_catalan(3, 4) == 5
        assert rational_catalan(1, 7) == 1

    def test_lattice_paths(self):
        assert lattice_path_count(3, 4) == 5
        assert lattice_path_count(2, 3) == 2
        assert lattice_path_count(1, 5) == 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            rational_catalan(2, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            rational_catalan(1, -1)

    @given(coprime_pairs)
    def test_triple_equality(self, pair):
        m, n = pair
        assert (
            len(enumerate_jacobian_modules(m, n))
            == rational_catalan(m, n)
            == lattice_path_count(m, n)
        )


class TestModuleEnumeration:
    def test_cusp_modules(self):
        mods = enumerate_jacobian_modules(2, 3)
        assert len(mods) == 2
        gen_sets = sorted(m.minimal_generators() for m in mods)
        assert gen_sets == [(0,), (0, 1)]

    def test_3_4_modules_match_displayed_families(self):
        mods = enumerate_jacobian_modules(3, 4)
        gen_sets = sorted(m.minimal_generators() for m in mods)
        assert gen_sets == [(0,), (0, 1), (0, 1, 2), (0, 2), (0, 5)]

    def test_2_5_modules(self):
        assert len(enumerate_jacobian_modules(2, 5)) == 3

    @given(coprime_pairs)
    def test_closure_and_conductor_tail(self, pair):
        m, n = pair
        for mod in enumerate_jacobian_modules(m, n):
            for j in range(mod.span):
                if mod.member(j):
                    assert mod.member(j + m) and mod.member(j + n)
            assert all(mod.member(j) for j in range(mod.sem.conductor, mod.span + 3))

    def test_hilb_colength_zero(self):
        mods = enumerate_hilb_ideals(2, 3, 0)
        assert len(mods) == 1
        assert mods[0].colength() == 0

    def test_hilb_colength_one(self):
        mods = enumerate_hilb_ideals(2, 3, 1)
        assert len(mods) == 1
        assert mods[0].minimal_generators() == (2, 3)

    def test_hilb_colength_two(self):
        mods = enumerate_hilb_ideals(2, 3, 2)
        assert len(mods) == 2
        gens = sorted(m.minimal_generators() for m in mods)
        assert gens == [(2,), (3, 4)]

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])
    def test_minimal_generators_by_membership(self, m, n):
        # every Jacobian module in both orders, and every Hilbert ideal up to
        # colength 2 delta + 2, the range the counter sweep covers
        mods = enumerate_jacobian_modules(m, n) + enumerate_jacobian_modules(n, m)
        for k in range(2 * semigroup(m, n).delta + 3):
            mods += enumerate_hilb_ideals(m, n, k)
        assert {mod.mode for mod in mods} == {JACOBIAN, HILB}
        for mod in mods:
            a, b = mod.sem.m, mod.sem.n
            expected = tuple(
                j
                for j in range(mod.span)
                if mod.member(j) and not mod.member(j - a) and not mod.member(j - b)
            )
            assert mod.minimal_generators() == expected, (mod.mode, mod.bits_str())

    @given(coprime_pairs, st.integers(0, 5))
    @settings(deadline=None)
    def test_hilb_colength_bookkeeping(self, pair, k):
        m, n = pair
        for mod in enumerate_hilb_ideals(m, n, k):
            assert mod.colength() == k

    def test_cusp_family_levels(self):
        # principal family (t^k + lambda t^{k+1}) has order set k + Gamma and
        # colength k; the 2-generated family (t^k, t^{k+1}) has colength k-1
        s = semigroup(2, 3)
        for k in range(2, 7):
            span = k + 2 + max(2, 3)
            principal = GammaModule(
                s, HILB, tuple(j >= k and j != k + 1 for j in range(span))
            )
            two_gen = GammaModule(s, HILB, tuple(j >= k for j in range(span)))
            assert principal.colength() == k
            assert two_gen.colength() == k - 1
            assert principal in enumerate_hilb_ideals(2, 3, k)
            assert two_gen in enumerate_hilb_ideals(2, 3, k - 1)

    def test_mode_validation(self):
        s = semigroup(2, 3)
        with pytest.raises(ValueError, match="closed"):
            GammaModule(s, JACOBIAN, (True, True, False, True, True))
        with pytest.raises(ValueError, match="contain 0"):
            GammaModule(s, JACOBIAN, (False, False, True, True, True))
        with pytest.raises(ValueError, match="inside the semigroup"):
            GammaModule(s, HILB, (True, True, True, True, True))


class TestCellDimensions:
    def test_jacobian_3_4_full_semigroup_cell(self):
        mods = enumerate_jacobian_modules(3, 4)
        by_gens = {m.minimal_generators(): m for m in mods}
        cell = cell_dimension(by_gens[(0,)])
        assert cell.dimension == 3
        assert [h for (_, h) in _parameters(cell)] == [1, 2, 5]

    def test_jacobian_3_4_fourth_family(self):
        mods = enumerate_jacobian_modules(3, 4)
        by_gens = {m.minimal_generators(): m for m in mods}
        assert cell_dimension(by_gens[(0, 1)]).dimension == 2

    def test_hilb_cusp_colength_two_cell(self):
        mods = enumerate_hilb_ideals(2, 3, 2)
        by_gens = {m.minimal_generators(): m for m in mods}
        cell = cell_dimension(by_gens[(2,)])
        assert cell.dimension == 1
        assert _parameters(cell) == ((2, 3),)

    def test_jacobian_cell_tables(self):
        assert sorted(c.dimension for c in jacobian_cells(2, 3)) == [0, 1]
        assert sorted(c.dimension for c in jacobian_cells(2, 5)) == [0, 1, 2]
        assert sorted(c.dimension for c in jacobian_cells(3, 4)) == [0, 1, 2, 2, 3]

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (2, 7), (3, 4)])
    def test_max_dimension_and_cell_count(self, m, n):
        cells = jacobian_cells(m, n)
        assert max(c.dimension for c in cells) == semigroup(m, n).delta
        assert len(cells) == rational_catalan(m, n)

    def test_cell_json(self):
        import json

        cell = jacobian_cells(2, 3)[0]
        data = json.loads(cell.to_json())
        assert set(data) == {"delta_bits", "generators", "dimension"}
        assert set(data["delta_bits"]) <= {"0", "1"}


class TestAgainstCounter:
    """The gap formula of ``cell_dimension`` against the assignment counter."""

    # The counter shifts by both generators and reads no order of them, so
    # each module is counted once and compared with the formula of both
    # (m, n) and (n, m).  (4, 7) is left out: its sweep takes about 300 s.
    @pytest.mark.parametrize(
        "m,n",
        [(m, n) for m in range(1, 5) for n in range(m + 1, 10 - m) if gcd(m, n) == 1]
        + [(3, 7)],
    )
    def test_jacobian_modules_both_orders(self, m, n):
        counted = {}
        for cell in jacobian_cells(m, n):
            counted[cell.module.bits] = counted_dimension(cell)
            assert cell.dimension == counted[cell.module.bits], cell.module.bits_str()
        assert {c.module.bits: c.dimension for c in jacobian_cells(n, m)} == counted

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)])
    def test_hilb_ideals(self, m, n):
        delta = semigroup(m, n).delta
        for k in range(2 * delta + 3):
            for mod in enumerate_hilb_ideals(m, n, k):
                cell = cell_dimension(mod)
                assert cell.dimension == counted_dimension(cell), (k, mod.bits_str())


class TestAgainstPerBitCode:
    """The masks against the per-bit code they replaced."""

    @pytest.mark.parametrize("m,n", _pairs(13))
    def test_jacobian_modules(self, m, n):
        mods = enumerate_jacobian_modules(m, n)
        assert [mod.bits for mod in mods] == _ref_jacobian_bits(semigroup(m, n))
        for mod in mods:
            _assert_matches_reference(mod)

    @pytest.mark.parametrize("m,n", _pairs(11))
    def test_hilb_ideals(self, m, n):
        sem = semigroup(m, n)
        kmax = 2 * sem.delta + 2
        for k, level in enumerate(_ref_hilb_levels(sem, kmax)):
            mods = enumerate_hilb_ideals(m, n, k)
            assert [mod.bits for mod in mods] == sorted(
                _ref_hilb_bits(sem, removed) for removed in level
            )
            for mod in mods:
                assert mod.colength() == k
                _assert_matches_reference(mod)

    @given(
        coprime_pairs,
        st.sampled_from([JACOBIAN, HILB, "node"]),
        st.lists(st.booleans(), max_size=24).map(tuple),
    )
    @settings(max_examples=300)
    def test_drawn_bits(self, pair, mode, bits):
        # Accept or refuse as the per-bit checks do, with the same message.
        sem = semigroup(*pair)
        try:
            expected = _ref_canonical(sem, mode, bits)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                GammaModule(sem, mode, bits)
            assert str(caught.value) == str(err)
        else:
            mod = GammaModule(sem, mode, bits)
            assert mod.bits == expected
            _assert_matches_reference(mod)

    def test_lowest_offender_named_with_m_first(self):
        # 0 + 3 and 1 + 2 both miss 3: the lowest j is named, not the first
        # failure of a pass over m alone.
        bits = (True, True, True, False, True)
        message = "not closed: 0 in module but 3 not"
        with pytest.raises(ValueError, match=f"^{message}$"):
            GammaModule(semigroup(2, 3), JACOBIAN, bits)
        with pytest.raises(ValueError, match=f"^{message}$"):
            _ref_canonical(semigroup(2, 3), JACOBIAN, bits)


class TestModuleBudget:
    def test_jacobian_boundary(self, monkeypatch):
        # c(3, 4) = 5 modules in windows of conductor 6 + 4 = 10 bits
        monkeypatch.setattr(curves, "MAX_MODULE_BITS", 50)
        assert len(enumerate_jacobian_modules(3, 4)) == 5
        monkeypatch.setattr(curves, "MAX_MODULE_BITS", 49)
        with pytest.raises(ValueError, match=r"x\^3 = y\^4 .*module budget"):
            enumerate_jacobian_modules(3, 4)

    def test_hilb_boundary(self, monkeypatch):
        # 4 levels of at most c(2, 3) = 2 ideals in windows of 2 + 3 + 3 bits
        monkeypatch.setattr(curves, "MAX_MODULE_BITS", 64)
        assert hilb_level(2, 3, 3) == {0: 1, 2: 1}
        assert len(hilb_poincare_series(2, 3, 3).entries) == 6
        monkeypatch.setattr(curves, "MAX_MODULE_BITS", 63)
        for call in (hilb_poincare_series, enumerate_hilb_ideals):
            with pytest.raises(ValueError, match="colength <= 3 .*module budget"):
                call(2, 3, 3)

    def test_node_boundary(self, monkeypatch):
        # colengths 0..4 are 5 levels
        monkeypatch.setattr(curves, "MAX_NODE_LEVELS", 5)
        assert curves.node_hilb(4).as_dict()[(4, 2, 0)] == 3
        with pytest.raises(ValueError, match="colength 5 needs more than 5 levels"):
            curves.node_hilb(5)

    @pytest.mark.parametrize("m,n", [(2, 1999999), (10**8, 10**8 + 1)])
    def test_refused_before_building(self, m, n):
        # (2, 1999999) has a window just under the budget and c = 10^6, so
        # its Catalan number is computed: by factorials of 2 * 10^6 that took
        # 49 s.  (10^8, 10^8 + 1) is refused on its window alone.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="module budget"):
            curves._admit(m, n)
        assert time.perf_counter() - start < 2.0

    def test_enumeration_depth_does_not_grow_with_delta(self):
        # (2, 301) has delta = 150 gaps, each one level of the search; past
        # Python's default limit of 1000 a recursive search raised
        # RecursionError for admitted pairs such as (2, 1999).
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            modules = enumerate_jacobian_modules(2, 301)
        finally:
            sys.setrecursionlimit(limit)
        assert len(modules) == rational_catalan(2, 301) == 151


def hilb_level(m, n, k):
    """t-degree -> count over the cells of Hilb^k, enumerated on its own."""
    return curves._cell_poincare(enumerate_hilb_ideals(m, n, k))


class TestSeries:
    def test_cusp_series(self):
        expected = series_truncate(
            RatFunc.of(LaurentPoly({(0, 0, 0): 1, (0, 2, 2): 1}), 1), 4
        )
        assert hilb_poincare_series(2, 3, 4) == expected

    def test_2_5_series(self):
        num = LaurentPoly({(0, 2 * i, 2 * i): 1 for i in range(3)})
        expected = series_truncate(RatFunc.of(num, 1), 5)
        assert hilb_poincare_series(2, 5, 5) == expected

    def test_negative_colength_refused(self):
        for call in (hilb_poincare_series, enumerate_hilb_ideals):
            with pytest.raises(ValueError, match="colength must be >= 0"):
                call(2, 3, -1)

    def test_series_kmax_zero(self):
        assert hilb_poincare_series(3, 4, 0).as_dict() == {(0, 0, 0): 1}

    def test_node_table(self):
        assert node_hilb(3).as_dict() == {
            (0, 0, 0): 1,
            (1, 0, 0): 1,
            (2, 0, 0): 1,
            (2, 2, 0): 1,
            (3, 0, 0): 1,
            (3, 2, 0): 2,
        }

    def test_node_kmax_zero(self):
        assert node_hilb(0).as_dict() == {(0, 0, 0): 1}

    @pytest.mark.parametrize("m,n,kmax", [(2, 3, 12), (3, 4, 14), (5, 6, 24)])
    def test_series_rows_are_levels(self, m, n, kmax):
        rows = {}
        for (k, td, _), c in hilb_poincare_series(m, n, kmax).entries:
            rows.setdefault(k, {})[td] = c
        assert [rows.get(k, {}) for k in range(kmax + 1)] == [
            hilb_level(m, n, k) for k in range(kmax + 1)
        ]

    def test_series_grows_levels_once(self):
        # rebuilding each level from colength 0 took 3.8 s here: O(kmax^2) levels
        start = time.perf_counter()
        series = hilb_poincare_series(2, 3, 300)
        assert time.perf_counter() - start < 1.0
        assert sum(c for (k, _, _), c in series.entries if k == 300) == 2

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (2, 7), (3, 4)])
    def test_stabilization(self, m, n):
        delta = semigroup(m, n).delta
        stable = hilb_level(m, n, 2 * delta)
        assert stable == hilb_level(m, n, 2 * delta + 1)
        assert stable == jacobian_poincare(m, n)


class TestComparisons:
    @pytest.mark.parametrize("m,n,kmax", [(2, 3, 6), (2, 5, 8), (3, 4, 10)])
    def test_ors_match(self, m, n, kmax):
        report = ors_compare(m, n, kmax)
        assert report.success
        assert report.hilb_table == report.homology_table
        assert report.render() == (
            f"ors({m},{n}) kmax={kmax}: match\neuler({m},{n}) kmax={kmax}: match"
        )

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (2, 7), (3, 4)])
    def test_euler_match(self, m, n):
        assert ors_compare(m, n, 8).euler_success

    @pytest.mark.parametrize("shift", [Q, T], ids=["q", "t"])
    def test_shifted_homology_fails_both(self, monkeypatch, shift):
        # A monomial shift of the a=0 series is a wrong answer, not a match.
        hhh_a0 = recursion.hhh_a0
        monkeypatch.setattr(recursion, "hhh_a0", lambda m, n: hhh_a0(m, n) * shift)
        report = ors_compare(3, 4, 10)
        assert (report.success, report.euler_success) == (False, False)
        assert report.render() == (
            "ors(3,4) kmax=10: MISMATCH\neuler(3,4) kmax=10: MISMATCH"
        )
