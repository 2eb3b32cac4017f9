import hashlib
import sys
import tracemalloc
from functools import cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom.algebra import (
    A,
    LaurentPoly,
    ONE,
    Q,
    RatFunc,
    T,
    series_truncate,
)
from torushom import recursion
from torushom.curves import ORS_T_IMAGE, ors_compare
from torushom.recursion import (
    euler_a0,
    hhh_a0,
    hhh_torus,
    pair_series,
    reduced_knot_poly,
    reduced_numerator,
    term_census_a,
)


def mono(c, ea=0, eq=0, et=0):
    return LaurentPoly.monomial(c, ea, eq, et)


BASE = RatFunc(ONE + A, 1)


def as_num(p: LaurentPoly, d: int = 0) -> recursion._Num:
    """p / (1 - q)^d as an int16 numerator, its a- and q-axes from exponent 0
    and its t-axis from p's least t-exponent."""
    lo = min(et for _, _, et in p.terms)
    shape = [max(e[k] for e in p.terms) + 1 for k in range(2)]
    arr = np.zeros(shape + [max(et for _, _, et in p.terms) - lo + 1], dtype=np.int16)
    for (ea, eq, et), c in p.items():
        arr[ea, eq, et - lo] = c
    return recursion._Num(arr, lo, d, max(abs(c) for _, c in p.items()))


class TestPairSeries:
    def test_empty_pair(self):
        assert pair_series("", "") == RatFunc(ONE)

    def test_unknot(self):
        assert pair_series("0", "0") == BASE

    def test_base_rule(self):
        assert pair_series("", "000") == RatFunc((ONE + A) ** 3, 3)
        assert pair_series("00", "") == RatFunc((ONE + A) ** 2, 2)

    def test_trefoil_pair(self):
        expected = RatFunc(
            (ONE + A) * (ONE + mono(1, ea=1, et=-1) + mono(1, eq=1, et=-1)), 1
        )
        assert pair_series("00", "000") == expected

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError, match="unbalanced"):
            pair_series("1", "0")

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            pair_series("012", "012")

    def test_length_guard(self):
        with pytest.raises(ValueError, match="length"):
            pair_series("0" * 40, "0" * 40)

    def test_memo_determinism(self):
        first = hhh_torus(3, 5)
        assert hhh_torus(3, 5) == first
        assert pair_series("01", "10") == pair_series("01", "10")

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(deadline=None)
    def test_symmetry(self, m, n):
        assert pair_series("0" * m, "0" * n) == pair_series("0" * n, "0" * m)

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(deadline=None)
    def test_terminates_on_balanced_zero_pairs(self, m, n):
        pair_series("0" * m, "0" * n)  # must not hang or raise

    @given(
        st.lists(st.sampled_from("01"), max_size=8).map("".join),
        st.lists(st.sampled_from("01"), max_size=8).map("".join),
    )
    @settings(deadline=None)
    def test_terminates_on_general_pairs(self, v, w):
        if v.count("1") == w.count("1"):
            pair_series(v, w)


def lowest_terms(num: LaurentPoly, d: int) -> bool:
    """Whether num / (1 - q)^d is in lowest terms: d = 0, or num does not
    vanish at q = 1, so its coefficients sum to a nonzero value over q for
    some (a, t) label."""
    sums = {}
    for (ea, _, et), c in num.items():
        sums[ea, et] = sums.get((ea, et), 0) + c
    return not d or any(sums.values())


def reference_series(v: str, w: str) -> RatFunc:
    """The five rules evaluated directly on pairs (num, d) that stand for
    num / (1 - q)^d, memoised per call.  Every pair is checked to be in
    lowest terms, so its record is the function's canonical form."""

    @cache
    def p(v: str, w: str) -> tuple[LaurentPoly, int]:
        if not v or not w:
            n = len(v) + len(w)
            return (ONE + A) ** n, n
        last = (v[-1], w[-1])
        if last == ("0", "1"):
            return p(v[:-1], "1" + w[:-1])
        if last == ("1", "0"):
            return p("1" + v[:-1], w[:-1])
        if last == ("1", "1"):
            num, d = p(v[:-1], w[:-1])
            value = (mono(1, et=v.count("1") - 1) + A) * num, d
        elif "1" not in v and "1" not in w:
            num, d = p("1" + v[:-1], "1" + w[:-1])
            value = num, d + 1
        else:
            (head, hd), (tail, td) = p("1" + v[:-1], "1" + w[:-1]), p("0" + v[:-1], "0" + w[:-1])
            d = max(hd, td)
            lifted = head * (ONE - Q) ** (d - hd) + Q * tail * (ONE - Q) ** (d - td)
            value = mono(1, et=-v.count("1")) * lifted, d
        assert lowest_terms(*value)
        return value

    return RatFunc(*p(v, w))


def reference_plan(v: str, w: str):
    """The plan on strings, kept as a reference: a breadth-first walk over
    every distinct pair, then a depth-first post-order from the root,
    (1v', 1w') child first.  Returns the pairs, their steps (rule, argument,
    child ids) and the post-order."""

    def step(v: str, w: str):
        if not v or not w:
            return "base", len(v) + len(w), ()
        last = (v[-1], w[-1])
        if last == ("1", "1"):
            return "mul", v.count("1") - 1, ((v[:-1], w[:-1]),)
        if last == ("0", "1"):
            return "pass", 0, ((v[:-1], "1" + w[:-1]),)
        if last == ("1", "0"):
            return "pass", 0, (("1" + v[:-1], w[:-1]),)
        ones = ("1" + v[:-1], "1" + w[:-1])
        if "1" not in v and "1" not in w:
            return "div", 0, (ones,)
        return "sum", v.count("1"), (ones, ("0" + v[:-1], "0" + w[:-1]))

    ids = {(v, w): 0}
    pairs = [(v, w)]
    steps = []
    for pair in pairs:  # grows while iterating
        rule, arg, kids = step(*pair)
        for kid in kids:
            if kid not in ids:
                ids[kid] = len(pairs)
                pairs.append(kid)
        steps.append((rule, arg, tuple(ids[kid] for kid in kids)))
    order, done, stack = [], {0}, [(0, 0)]
    while stack:
        i, k = stack.pop()
        kids = steps[i][2]
        if k < len(kids):
            stack.append((i, k + 1))
            if kids[k] not in done:
                done.add(kids[k])
                stack.append((kids[k], 0))
        else:
            order.append(i)
    return pairs, steps, order


def step_key(rule: int, arg: int, kids: tuple[int, ...]):
    return rule, arg, kids


def expected_plan(v: str, w: str, key=step_key):
    """What recursion._plan must return for (v, w): the reference post-order
    with every PASS pair dropped and read through to the pair its chain
    reaches, and every step whose key (rule, argument, child ids) an earlier
    step has dropped and read as that one; then consumer counts and the
    root's id."""
    _, steps, order = reference_plan(v, w)

    def target(i: int) -> int:
        while steps[i][0] == "pass":
            i = steps[i][2][0]
        return i

    rules = {"base": recursion._BASE, "mul": recursion._MUL,
             "div": recursion._DIV, "sum": recursion._SUM}
    plan, first, position = [], {}, {}
    for i in order:
        rule, arg, kids = steps[i]
        if rule == "pass":
            continue
        step = (rules[rule], arg, tuple(position[target(j)] for j in kids))
        k = key(*step)
        if k not in first:
            first[k] = len(plan)
            plan.append(step)
        position[i] = first[k]
    consumers = [0] * len(plan)
    for _, _, kids in plan:
        for j in kids:
            consumers[j] += 1
    return plan, consumers, position[target(0)]


def poly_digest(p: LaurentPoly) -> str:
    text = ";".join(f"{a},{q},{t},{c}" for (a, q, t), c in sorted(p.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def series_pin(r: RatFunc) -> tuple[int, int, str]:
    return r.denom_pow, len(r.num), poly_digest(r.num)


# (denominator power, term count, digest) of hhh_torus(m, n).
PINNED = {
    (9, 9): (9, 5011, "02f44a4d5aa43d8b8fc2dc3e6f0ad7a57ede3db8b505b81f9fc133f201c84fef"),
    (10, 11): (1, 5698, "6d0b3858959b6a02610248bb6853de05f64645f6c82854e0743c3ffdf82c9c0f"),
}

# The same for series whose largest coefficients have 15 bits, so part of
# each evaluation leaves int16.
PAST_INT16 = {
    (10, 10): (10, 8282, "db86e7d328dadd17fb0954a2f210966e27508b3fca81769c05c2705aa5125d16"),
    (12, 13): (1, 14315, "fc0b488d2a87b4960006045469d91f9905b8a12cf04027e351d5d70d1add2f4f"),
}


@st.composite
def balanced_pairs(draw):
    """Two binary strings of length <= 9 with equally many 1s."""
    ones = draw(st.integers(0, 9))

    def word() -> str:
        zeros = draw(st.integers(0, 9 - ones))
        return "".join(draw(st.permutations("1" * ones + "0" * zeros)))

    return word(), word()


def assert_lowest_terms(x: recursion._Num) -> None:
    """The facts of recursion's module docstring that keep a stored value
    in lowest terms: positive at a = q = t = 1 and in its q^0 slice there,
    and no zero border slice."""
    arr = x.arr
    assert arr.sum() > 0 and arr[:, 0].sum() > 0
    for axis in range(3):
        assert np.take(arr, 0, axis).any() and np.take(arr, -1, axis).any()


def spy_lowest_terms(monkeypatch) -> list[int]:
    """Check every value the evaluation stores with assert_lowest_terms, as
    it is stored; the list counts them."""
    seen = []
    nbytes = recursion._nbytes

    def spy(x):
        assert_lowest_terms(x)
        seen.append(1)
        return nbytes(x)

    monkeypatch.setattr(recursion, "_nbytes", spy)
    return seen


class TestAgainstReference:
    @given(balanced_pairs())
    @settings(deadline=None, max_examples=150)
    def test_random_balanced_pairs(self, pair):
        v, w = pair
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = spy_lowest_terms(monkeypatch)
            assert pair_series(v, w) == reference_series(v, w)
        assert seen

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(0, 14) for n in range(0, 14) if m + n <= 13]
    )
    def test_small_torus_links(self, monkeypatch, m, n):
        seen = spy_lowest_terms(monkeypatch)
        assert hhh_torus(m, n) == reference_series("0" * m, "0" * n)
        assert seen

    @pytest.mark.parametrize("m,n,denom_pow,terms,digest",
                             [(*mn, *pin) for mn, pin in PINNED.items()])
    def test_pinned_digests(self, m, n, denom_pow, terms, digest):
        assert series_pin(hhh_torus(m, n)) == (denom_pow, terms, digest)

    @pytest.mark.parametrize("m,n", PAST_INT16)
    def test_pinned_digests_past_int16(self, m, n):
        assert series_pin(hhh_torus(m, n)) == PAST_INT16[m, n]


class TestPlanAgainstReference:
    @staticmethod
    def check(monkeypatch, v: str, w: str) -> None:
        plan = recursion._plan(v, w)
        assert plan == expected_plan(v, w)
        assert len(set(plan[0])) == len(plan[0])
        # The walk counts every distinct pair, PASS pairs included, and their
        # characters: the budgets admit exactly the reference's totals.
        pairs = reference_plan(v, w)[0]
        if len(pairs) == 1:
            return  # the root alone is never refused
        chars = sum(len(a) + len(b) for a, b in pairs)
        for name, total, message in [("MAX_STATES", len(pairs), "recursion states"),
                                     ("MAX_PLAN_CHARS", chars, "characters")]:
            monkeypatch.setattr(recursion, name, total)
            recursion._plan(v, w)
            monkeypatch.setattr(recursion, name, total - 1)
            with pytest.raises(ValueError, match=f"needs more than {total - 1} {message}"):
                recursion._plan(v, w)
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "v,w", [("0" * 6, "0" * 7), ("0" * 7, "0" * 7), ("0" * 11, "0" * 12), ("01", "10")]
    )
    def test_torus_roots_and_a_pass_root(self, monkeypatch, v, w):
        self.check(monkeypatch, v, w)

    @given(balanced_pairs())
    @settings(deadline=None, max_examples=100)
    def test_random_balanced_pairs(self, pair):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(monkeypatch, *pair)

    @pytest.mark.parametrize("m,n,size", [(11, 12, 1478), (12, 13, 2703), (9, 9, 1023)])
    def test_distinct_steps(self, m, n, size):
        # Knots repeat steps (T(11,12) has 3,062 pairs that are not PASS
        # pairs); the link T(9,9) repeats none of its 1,023.
        steps = recursion._plan("0" * m, "0" * n)[0]
        assert len(steps) == len(set(steps)) == size

    @pytest.mark.parametrize("m,n", PINNED)
    def test_a_key_without_the_children_fails_the_pins(self, monkeypatch, m, n):
        # Steps that differ only in what they read have different values.
        # (Dropping the argument instead merges nothing: on every pair of
        # strings of up to 8 characters each, and on these roots, it follows
        # from the rule and the children.)
        def childless(rule, arg, kids):
            return rule, arg

        monkeypatch.setattr(recursion, "_plan", lambda v, w: expected_plan(v, w, childless))
        assert series_pin(hhh_torus(m, n)) != PINNED[m, n]


class TestEngineKernels:
    # Every value the rules build is in lowest terms (recursion's module
    # docstring), so its top q-slice is the only border slice a sum can
    # cancel.  The sums here are checked on made-up numerators.
    def test_sum_cancels_the_high_q_border(self):
        # (1 + q) + q * (-1): the q^1 slices cancel.
        x = recursion._sum_with_q(as_num(ONE + Q), as_num(-ONE), 0)
        assert x.arr.shape == (1, 1, 1)
        assert recursion._to_ratfunc(x) == RatFunc(ONE)

    def test_sum_lifts_unequal_denominators(self):
        # 1 + q / (1 - q) = 1 / (1 - q): the head is lifted to (1 - q) / (1 - q).
        x = recursion._sum_with_q(as_num(ONE), as_num(ONE, 1), 0)
        assert recursion._to_ratfunc(x) == RatFunc(ONE, 1)


class TestEngineLimits:
    def test_bignum_base(self):
        # C(70, 35) is about 1.1e20, past int64.
        assert pair_series("", "0" * 70) == RatFunc((ONE + A) ** 70, 70)

    def test_python_int_fallback_matches(self, monkeypatch):
        expected = {mn: hhh_torus(*mn) for mn in [(5, 5), (6, 7)]}
        roots = []
        to_ratfunc = recursion._to_ratfunc

        def spy(x):
            roots.append(x.arr.dtype)
            return to_ratfunc(x)

        # Coefficients of these series stay below 32, so a headroom of 16
        # sends part of each evaluation, the root included, to Python ints.
        monkeypatch.setattr(recursion, "INT64_HEADROOM", 2**4)
        monkeypatch.setattr(recursion, "_to_ratfunc", spy)
        for mn, value in expected.items():
            assert hhh_torus(*mn) == value
        assert roots == [object, object]

    def test_room_converts_a_copy(self, monkeypatch):
        # A stored value keeps its dtype, so its accounted size stays right.
        monkeypatch.setattr(recursion, "INT64_HEADROOM", 2**4)
        x = recursion._base(3)
        assert recursion._room(x, 8).dtype == object
        assert x.arr.dtype == np.int16

    @staticmethod
    def built_types(monkeypatch):
        """Record the type of every value the evaluation stores, in order."""
        types = []
        nbytes = recursion._nbytes
        monkeypatch.setattr(recursion, "_nbytes", lambda x: types.append(x.arr.dtype) or nbytes(x))
        return types

    def test_widens_through_every_rung(self, monkeypatch):
        # The largest coefficient of T(10,10) is past 2^14, so limits of 4, 64
        # and 1024 on int16, int32 and int64 send its values up every rung.
        table = list(recursion._INT_TYPES)
        for k, limit in enumerate([4, 64, 1024], 1):
            table[k] = (table[k][0], limit)
        monkeypatch.setattr(recursion, "_INT_TYPES", tuple(table))
        types = self.built_types(monkeypatch)
        assert series_pin(hhh_torus(10, 10)) == PAST_INT16[10, 10]
        assert list(dict.fromkeys(types)) == [np.int16, np.int32, np.int64, object]

    def test_mixed_sum_is_exact(self):
        # An int16 head and an int32 tail: the sum is held in the wider type,
        # so the tail is not cast into int16 where the two overlap.
        head = recursion._Num(np.full((1, 2, 1), 16000, dtype=np.int16), 0, 0, 16000)
        tail = recursion._Num(np.full((1, 1, 1), 1 << 20, dtype=np.int32), 0, 0, 1 << 20)
        x = recursion._sum_with_q(head, tail, 3)
        assert x.arr.dtype == np.int32
        expected = (mono(16000) + mono(16000 + (1 << 20), eq=1)) * mono(1, et=-3)
        assert recursion._to_ratfunc(x) == RatFunc(expected)

    def test_t1112_stays_int16(self, monkeypatch):
        # The largest coefficient of this series has 13 bits, and no value
        # on the way needs more than int16.
        types = self.built_types(monkeypatch)
        hhh_torus(11, 12)
        assert set(types) == {np.dtype(np.int16)}

    def test_state_budget(self, monkeypatch):
        monkeypatch.setattr(recursion, "MAX_STATES", 10)
        with pytest.raises(ValueError, match="total length 11 needs more than 10 recursion states"):
            hhh_torus(5, 6)
        assert hhh_torus(1, 2) == reference_series("0", "00")

    def test_state_boundary(self, monkeypatch):
        # T(6,7) reaches 185 distinct pairs, PASS pairs included.
        monkeypatch.setattr(recursion, "MAX_STATES", 185)
        assert hhh_torus(6, 7) == reference_series("0" * 6, "0" * 7)
        monkeypatch.setattr(recursion, "MAX_STATES", 184)
        with pytest.raises(ValueError, match="length 13 needs more than 184 recursion states"):
            hhh_torus(6, 7)

    def test_plan_character_budget(self, monkeypatch):
        # T(1, 40) has 42 states but strings of up to 40 characters.
        monkeypatch.setattr(recursion, "MAX_PLAN_CHARS", 200)
        with pytest.raises(ValueError, match="total length 41 needs more than 200 characters"):
            hhh_torus(1, 40)
        assert hhh_torus(1, 3) == reference_series("0", "000")

    @pytest.mark.parametrize("series", [hhh_a0, hhh_torus])
    def test_root_refused_before_its_strings_are_built(self, series):
        # "0" * 10**8 alone would take 100 MB.
        tracemalloc.start()
        try:
            with pytest.raises(
                ValueError,
                match=f"total length 100000000 needs more than {recursion.MAX_PLAN_CHARS} "
                "characters of recursion states \\(the admission budget\\)",
            ):
                series(0, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_root_character_boundary(self, monkeypatch):
        monkeypatch.setattr(recursion, "MAX_PLAN_CHARS", 200)
        assert hhh_a0(0, 200).denom_pow == 200
        with pytest.raises(ValueError, match="total length 201 needs more than 200 characters"):
            hhh_a0(0, 201)

    def test_base_refused_before_it_is_built(self, monkeypatch):
        built = []
        base = recursion._base
        monkeypatch.setattr(recursion, "_base", lambda n: built.append(n) or base(n))
        with pytest.raises(ValueError, match="total length 100000 needs more than 768 MiB"):
            pair_series("", "0" * 100_000)
        assert built == []

    def test_python_int_entries_counted_by_size(self):
        x = recursion._base(200)
        assert x.arr.dtype == object
        real = sum(8 + sys.getsizeof(c) for c in x.arr.flat)
        assert real <= recursion._nbytes(x) <= recursion._base_bytes(200) < 2 * real

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", 4096)
        with pytest.raises(ValueError, match="total length 80 needs more than 0 MiB"):
            pair_series("1" * 40, "1" * 40)
        assert hhh_torus(2, 3) == reference_series("00", "000")


class TestTorusSeries:
    def test_hopf(self):
        expected = RatFunc(
            mono(1, et=-1) * (ONE + A) * (T + Q - Q * T + A), 2
        )
        assert hhh_torus(2, 2) == expected

    def test_two_strand_trivial(self):
        assert hhh_torus(2, 0) == RatFunc((ONE + A) ** 2, 2)

    def test_trefoil_a0(self):
        assert hhh_a0(2, 3) == RatFunc(ONE + mono(1, eq=1, et=-1), 1)

    def test_two_strand_knot_family(self):
        for k in range(1, 6):
            expected = RatFunc(LaurentPoly({(0, i, -i): 1 for i in range(k + 1)}), 1)
            assert hhh_a0(2, 2 * k + 1) == expected

    def test_hopf_a0(self):
        expected = RatFunc(mono(1, et=-1) * (Q + T - Q * T), 2)
        assert hhh_a0(2, 2) == expected

    def test_unknot_a0(self):
        assert hhh_a0(1, 1) == RatFunc(ONE, 1)

    @given(st.integers(0, 10))
    @settings(deadline=None)
    def test_two_strand_skein_recursion(self, m):
        # t^-1 (t + a)(1 + a) / (1 - q) + q t^-1 hhh(2, m), over the common
        # denominator (1 - q)^d.
        r = hhh_torus(2, m)
        d = max(1, r.denom_pow)
        step = mono(1, et=-1) * (T + A) * (ONE + A) * (ONE - Q) ** (d - 1)
        rest = mono(1, eq=1, et=-1) * r.num * (ONE - Q) ** (d - r.denom_pow)
        assert hhh_torus(2, m + 2) == RatFunc(step + rest, d)

    def test_effectivity(self):
        for m in range(1, 10):
            for n in range(1, 10):
                if m + n > 10:
                    continue
                series_truncate(hhh_torus(m, n), 12)  # raises on negatives


class TestSpecializations:
    def test_euler_trefoil(self):
        assert euler_a0(2, 3) == RatFunc(ONE + mono(1, eq=2), 1)

    def test_euler_hopf(self):
        assert euler_a0(2, 2) == RatFunc(ONE - Q + Q * Q, 2)

    def test_euler_unknot(self):
        assert euler_a0(1, 1) == RatFunc(ONE, 1)

    def test_census_t34(self):
        assert term_census_a(3, 4) == [(0, 5), (1, 5), (2, 1)]

    def test_census_trefoil(self):
        assert term_census_a(2, 3) == [(0, 2), (1, 1)]

    def test_census_unknot(self):
        assert term_census_a(1, 1) == [(0, 1)]

    def test_census_total_is_reduced_dimension(self):
        # 11 generators in three a-degrees for T(3,4)
        assert sum(c for _, c in term_census_a(3, 4)) == 11

    def test_census_rejects_links(self):
        with pytest.raises(ValueError, match="not a knot"):
            term_census_a(2, 4)

    def test_reduced_trefoil(self):
        assert reduced_knot_poly(2, 3) == Q + T

    def test_reduced_t25(self):
        assert reduced_knot_poly(2, 5) == Q * Q + Q * T + T * T

    def test_reduced_t34(self):
        p = reduced_knot_poly(3, 4)
        assert len(p.terms) == 5
        assert p.swap_qt() == p
        assert sum(p.evaluate_qt1().values()) == 5

    def test_reduced_rejects_links(self):
        with pytest.raises(ValueError, match="not a knot"):
            reduced_knot_poly(2, 2)

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)])
    def test_qt_symmetry(self, m, n):
        p = reduced_knot_poly(m, n)
        assert p.swap_qt() == p
        assert sum(p.evaluate_qt1().values()) == dict(term_census_a(m, n))[0]


def divide_by_one_plus_a(p: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient p / (1 + a), or None if (1 + a) does not divide p: the
    oracle for reduced_numerator's division on arrays."""
    by_label: dict[tuple[int, int], dict[int, int]] = {}
    for (ea, eq, et), c in p.items():
        by_label.setdefault((eq, et), {})[ea] = c
    out = {}
    for (eq, et), coeffs in by_label.items():
        hi = max(coeffs)
        prev = 0
        for k in range(hi):
            prev = coeffs.get(k, 0) - prev
            if prev:
                out[(k, eq, et)] = prev
        if coeffs.get(hi, 0) - prev != 0:
            return None
    return LaurentPoly._of_clean(out)


exponents = st.tuples(st.integers(0, 3), st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(LaurentPoly)


class TestOnePlusA:
    def test_oracle(self):
        assert divide_by_one_plus_a((ONE + A) * (T + Q)) == T + Q
        assert divide_by_one_plus_a(ONE + A + A * A) is None

    @given(polys, exponents, st.integers(1, 9))
    def test_oracle_round_trip(self, p, exp, c):
        # The quotient is built without a cleaning pass, so its stored map
        # must already hold no zero coefficient.
        quotient = divide_by_one_plus_a((ONE + A) * p)
        assert quotient == p
        assert 0 not in quotient.terms.values()
        # A monomial is no multiple of 1 + a, so neither is the sum.
        assert divide_by_one_plus_a((ONE + A) * p + LaurentPoly({exp: c})) is None

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(16) for n in range(16) if m + n <= 15 and gcd(m, n) == 1]
    )
    def test_knots_match_the_oracle(self, m, n):
        r = hhh_torus(m, n)
        assert r.denom_pow == 1
        assert reduced_numerator(m, n) == divide_by_one_plus_a(r.num)

    @pytest.mark.parametrize("d", [0, 2])
    @pytest.mark.parametrize("numerator", [reduced_numerator, reduced_knot_poly])
    def test_knot_series_needs_one_factor_of_one_minus_q(self, monkeypatch, numerator, d):
        monkeypatch.setattr(recursion, "_evaluate", lambda v, w, a0=False: as_num(ONE + A, d))
        with pytest.raises(ArithmeticError, match=rf"denominator \(1-q\)\^{d}, not 1-q"):
            numerator(2, 3)

    @staticmethod
    def reduced(monkeypatch, num: LaurentPoly) -> LaurentPoly:
        """reduced_numerator of a made-up series num / (1 - q).  The numerator
        is shifted by q^4 and the result back, so that q-exponents down to
        -4 fit an array whose q-axis starts at exponent 0."""
        shifted = num * mono(1, eq=4)
        monkeypatch.setattr(recursion, "_evaluate", lambda v, w: as_num(shifted, 1))
        return reduced_numerator(2, 3) * mono(1, eq=-4)

    def test_refuses_what_one_plus_a_does_not_divide(self, monkeypatch):
        num = ONE + A + A * A
        assert divide_by_one_plus_a(num) is None
        with pytest.raises(ArithmeticError, match=r"\(1\+a\) does not divide the T\(2,3\)"):
            self.reduced(monkeypatch, num)

    @given(polys.filter(bool), exponents, st.integers(1, 9))
    def test_array_round_trip(self, p, exp, c):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert self.reduced(monkeypatch, (ONE + A) * p) == p
            with pytest.raises(ArithmeticError):
                self.reduced(monkeypatch, (ONE + A) * p + LaurentPoly({exp: c}))

    def test_divides_in_a_wider_type(self, monkeypatch):
        # Every coefficient of the numerator fits int16, but the quotient
        # reaches 36,000: the alternating sums are taken in int32.
        quotient = LaurentPoly({(k, 0, 0): 12000 * c for k, c in enumerate([1, -2, 3, -2, 1])})
        assert self.reduced(monkeypatch, (ONE + A) * quotient) == quotient


def a0_part(r: RatFunc) -> RatFunc:
    """The full series with its a > 0 terms dropped: the oracle for every
    evaluation in the quotient by a, where the series stays in lowest terms
    (recursion's module docstring)."""
    return RatFunc(LaurentPoly({e: c for e, c in r.num.items() if e[0] == 0}), r.denom_pow)


class TestAZeroQuotient:
    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(0, 15) for n in range(0, 15) if m + n <= 14] + [(10, 10)]
    )
    def test_matches_full_series(self, m, n):
        assert hhh_a0(m, n) == a0_part(hhh_torus(m, n))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (2, 5), (4, 6), (5, 7), (6, 6)])
    def test_euler_matches_full_series(self, m, n):
        assert euler_a0(m, n) == a0_part(hhh_torus(m, n)).regrade_t(-1, 0)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 4), (5, 7), (8, 9), (9, 8)])
    def test_reduced_matches_full_series(self, m, n):
        num = a0_part(hhh_torus(m, n)).num
        assert reduced_knot_poly(m, n) == num * mono(1, et=-num.min_t_degree())

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (2, 5), (3, 5), (4, 5)])
    def test_ors_matches_full_series(self, m, n):
        regraded = a0_part(hhh_torus(m, n)).regrade_t(*ORS_T_IMAGE)
        assert ors_compare(m, n, 8).homology_table == series_truncate(regraded, 8)

    @pytest.mark.parametrize("m", range(9))
    def test_regrades_are_in_lowest_terms(self, m):
        # regrade_t refuses an image that 1 - q divides; fact (i) of the
        # module docstring says no a = 0 series gives one.
        for n in range(11):
            d = hhh_a0(m, n).denom_pow
            assert euler_a0(m, n).denom_pow == d
            assert hhh_a0(m, n).regrade_t(*ORS_T_IMAGE).denom_pow == d

    def test_pinned_digest_a0(self):
        r = hhh_a0(14, 14)
        digest = "3200725395ebeb499552c85dff73634579083a1f8ed0c18a55a3a0e5f6dc4726"
        assert (r.denom_pow, len(r.num), poly_digest(r.num)) == (14, 4245, digest)

    def test_pinned_digest_reduced(self):
        p = reduced_knot_poly(12, 13)
        digest = "bc4a218b0fa06895ee41700c1657258fb6336534e51a8d2ec0e8f382791763e2"
        assert (len(p), poly_digest(p)) == (1608, digest)

    def test_quotient_multiply_is_an_offset(self):
        x = recursion._base(4, a0=True)
        y = recursion._times_t_plus_a(x, 3, a0=True)
        assert y.arr is x.arr and (y.ot, y.d) == (3, 4)

    def test_quotient_base_has_no_a(self):
        x = recursion._base(200, a0=True)
        assert (x.arr.shape, x.arr.dtype, x.d) == ((1, 1, 1), np.int16, 200)
