import itertools
import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom import hecke, recursion
from torushom.algebra import (
    ONE,
    ONE_MINUS_Q,
    Q,
    LaurentPoly,
    RatFunc,
    q_poly_from_json,
    q_poly_to_json,
    render_descending,
)
from torushom.braid import (
    BraidWord,
    apply_gen,
    cyclic_rotate,
    half_twist,
    identity_permutation,
    inverse_permutation,
    longest_permutation,
    permutation_length,
    permutation_of,
    torus_braid,
)
from torushom.hecke import brute_force_count, point_count


def qp(coeffs):
    """The polynomial in q with coefficients {e_q: c}."""
    return LaurentPoly({(0, e, 0): c for e, c in coeffs.items()})


def at(p, x):
    """The value of a polynomial in q at q = x."""
    return sum(c * x**e for e, c in p.coeffs.items())


def divisible_by_q_minus_1_power(p, k):
    return RatFunc.of(p, k).denom_pow == 0


def words(max_strands=3, max_len=6):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), min_size=1, max_size=max_len).map(
            lambda ls: BraidWord(n, ls)
        )
    )


@st.composite
def word_sets(draw, max_strands=4, max_len=4):
    """Positive words on one strand count, with the empty word, a duplicate
    and every prefix of one of them among them, in a random order."""
    n = draw(st.integers(1, max_strands))
    letters = st.lists(st.integers(1, max(n - 1, 1)), max_size=max_len if n > 1 else 0)
    base = draw(st.lists(letters, min_size=1, max_size=5))
    ws = base + [base[0][:k] for k in range(len(base[0]))] + [base[-1], []]
    return [BraidWord(n, w) for w in draw(st.permutations(ws))]


def grid(r, values=range(3)):
    return itertools.product(values, repeat=r)


# -- braid matrices over Z: the definitional oracle ---------------------------

def _identity_matrix(n: int) -> list[list[int]]:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def _elementary_matrix(n: int, i: int, z: int) -> list[list[int]]:
    """Identity with the 2x2 block [[0,1],[1,z]] at rows/cols i, i+1."""
    m = _identity_matrix(n)
    m[i - 1][i - 1], m[i - 1][i], m[i][i - 1], m[i][i] = 0, 1, 1, z
    return m


def braid_matrix(b: BraidWord, z: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Exact product over Z of the elementary matrices B_{i_k}(z_k) in word
    order."""
    if len(z) != len(b.letters):
        raise ValueError(f"need {len(b.letters)} values of z, got {len(z)}")
    n = b.strands
    m = _identity_matrix(n)
    for idx, zk in zip(b.letters, z):
        e = _elementary_matrix(n, idx, zk)
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*e)] for row in m]
    return tuple(map(tuple, m))


def check_braid_matrix_relation(i: int, n: int) -> bool:
    """B_i(z1) B_{i+1}(z2) B_i(z3) == B_{i+1}(z3) B_i(z2 - z1 z3) B_{i+1}(z1).

    Every entry of either side is a polynomial of degree <= 2 in each z_j
    (z1 and z3 enter the right side twice, everything else once), and such a
    polynomial that vanishes on S^3 for a set S of three values is zero. So
    agreement on the grid {0,1,2}^3 proves the identity over Z.
    """
    if not 1 <= i <= n - 2:
        raise ValueError("need 1 <= i <= n-2")
    lhs_word = BraidWord(n, [i, i + 1, i])
    rhs_word = BraidWord(n, [i + 1, i, i + 1])
    return all(
        braid_matrix(lhs_word, (z1, z2, z3))
        == braid_matrix(rhs_word, (z3, z2 - z1 * z3, z1))
        for z1, z2, z3 in itertools.product(range(3), repeat=3)
    )


class TestSymbolicMatrices:
    """Braid matrix entries are polynomials of degree <= 1 in each z_k, so
    their values on the grid {0,1,2}^r pin them down."""

    def test_sigma_cubed(self):
        for z1, z2, z3 in grid(3):
            assert braid_matrix(torus_braid(2, 3), (z1, z2, z3)) == (
                (z2, 1 + z2 * z3),
                (1 + z1 * z2, z1 + z3 + z1 * z2 * z3),
            )

    def test_empty_word(self):
        assert braid_matrix(BraidWord(3, ()), ()) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_sigma_fourth_lower_left(self):
        for z1, z2, z3, z4 in grid(4):
            m = braid_matrix(torus_braid(2, 4), (z1, z2, z3, z4))
            assert m[1][0] == z1 + z3 + z1 * z2 * z3

    def test_negative_word_rejected(self):
        # The inverse letter is refused where the word is built.
        with pytest.raises(ValueError, match="braid words are positive"):
            braid_matrix(BraidWord(2, [-1]), (0,))

    def test_z_count_must_match_word_length(self):
        with pytest.raises(ValueError, match="values of z"):
            braid_matrix(torus_braid(2, 3), (0, 1))

    @pytest.mark.parametrize("i,n", [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)])
    def test_matrix_braid_relation(self, i, n):
        assert check_braid_matrix_relation(i, n)

    @pytest.mark.parametrize("i,n", [(1, 3), (2, 4)])
    def test_wrong_relation_differs_on_grid(self, i, n):
        # Flipping the sign of z1 z3 in the middle factor breaks the relation,
        # and the grid used by check_braid_matrix_relation sees it.
        lhs, rhs = BraidWord(n, [i, i + 1, i]), BraidWord(n, [i + 1, i, i + 1])
        assert any(
            braid_matrix(lhs, (z1, z2, z3)) != braid_matrix(rhs, (z3, z2 + z1 * z3, z1))
            for z1, z2, z3 in grid(3)
        )


def fold_rows(f):
    """A finished fold read as {w: {e: c}} over its nonzero rows."""
    return {
        w: {e: c for e, c in enumerate(row) if c}
        for w, row in zip(f.perms(), f.arr.tolist())
        if any(row)
    }


class TestHeckeProduct:
    """The fold of b holds T_b: its row at w is q^len(w) times the T-basis
    coefficient of T_w."""

    def test_unit_times_gen(self):
        # T_e T_s = T_s
        assert fold_rows(hecke._fold(torus_braid(2, 1))) == {(2, 1): {1: 1}}

    def test_quadratic_rule(self):
        # T_s^2 = (q-1) T_s + q
        assert fold_rows(hecke._fold(torus_braid(2, 2))) == {
            (2, 1): {2: 1, 1: -1},
            (1, 2): {1: 1},
        }

    def test_two_rule_applications(self):
        # T_s^3 = ((q-1)^2 + q) T_s + q(q-1) T_e
        rows = fold_rows(hecke._fold(torus_braid(2, 3)))
        assert rows[(2, 1)] == {3: 1, 2: -1, 1: 1}
        assert rows[(1, 2)] == {2: 1, 1: -1}

    def test_braid_product_examples(self):
        assert fold_rows(hecke._fold(torus_braid(2, 3))) == {
            (2, 1): {3: 1, 2: -1, 1: 1},
            (1, 2): {2: 1, 1: -1},
        }
        assert fold_rows(hecke._fold(BraidWord(2, ()))) == {(1, 2): {0: 1}}
        # T_1 T_2 T_1 = T_w0
        assert fold_rows(hecke._fold(BraidWord(3, [1, 2, 1]))) == {(3, 2, 1): {3: 1}}


class TestPointCount:
    def test_closed_forms(self):
        e = identity_permutation(2)
        assert point_count(torus_braid(2, 3), e) == qp({2: 1, 1: -1})
        assert point_count(torus_braid(2, 4), e) == qp({3: 1, 2: -1, 1: 1})
        expected5 = qp({1: 1}) * qp({3: 1, 2: -1, 1: 1, 0: -1})
        assert point_count(torus_braid(2, 5), e) == expected5

    def test_w0_from_half_twist_factorization(self):
        # X(s^3) = X(s^2; w0) x C  forces  #X(s^2; w0) = q - 1.
        assert point_count(torus_braid(2, 2), (2, 1)) == qp({1: 1, 0: -1})

    def test_empty_word(self):
        assert point_count(BraidWord(2, ()), (1, 2)) == qp({0: 1})
        assert point_count(BraidWord(2, ()), (2, 1)) == qp({})

    def test_negative_word_rejected(self):
        # The inverse letter is refused where the word is built.
        with pytest.raises(ValueError, match="braid words are positive"):
            point_count(BraidWord(2, [-1]), (1, 2))

    def test_remainder_below_q_ell_raises(self, monkeypatch):
        # Every reading divides a row by q^ell through one check, which a
        # correct fold always passes.
        assert hecke._poly(np.array([0, 0, 3, -1]), 2) == qp({0: 3, 1: -1})
        refused = r"divisibility violated: q\^2 - q is not divisible by q\^2"
        with pytest.raises(ArithmeticError, match=refused):
            hecke._poly(np.array([0, -1, 1]), 2)
        # sigma^3: the transfer coefficient at (2,1) is q^3 - q^2 + q.
        f = hecke._fold(torus_braid(2, 3))
        f.arr[f.keys == 2, 0] = 1
        with pytest.raises(ArithmeticError, match="not divisible by q\\^1"):
            hecke._count(f, (2, 1))
        monkeypatch.setattr(hecke, "_trace", lambda f, g: np.array([1, -1, 1]))
        with pytest.raises(ArithmeticError, match="not divisible by q\\^1"):
            hecke._split_count(2, (1,) * 4, 2, 1)

    @given(words(max_strands=3, max_len=5), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_trace_rotation_invariance(self, b, k):
        e = identity_permutation(b.strands)
        assert point_count(cyclic_rotate(b, k), e) == point_count(b, e)

    @given(words(max_strands=4, max_len=5))
    @settings(max_examples=30, deadline=None)
    def test_braid_relation_invariance(self, b):
        e = identity_permutation(b.strands)
        base = point_count(b, e)
        letters = list(b.letters)
        for k in range(len(letters) - 2):
            i, j, l = letters[k : k + 3]
            if i == l and abs(i - j) == 1:
                rewritten = letters[:k] + [j, i, j] + letters[k + 3 :]
                assert point_count(BraidWord(b.strands, rewritten), e) == base
        for k in range(len(letters) - 1):
            if abs(letters[k] - letters[k + 1]) > 1:
                swapped = list(letters)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                assert point_count(BraidWord(b.strands, swapped), e) == base


def dict_fold(b):
    """The dict-of-polynomials transfer fold that the array fold replaced,
    kept as the oracle: {w: {e: c}}, one letter at a time."""
    support = {identity_permutation(b.strands): {0: 1}}
    for i in b.letters:
        out = {}

        def bump(w, poly, shift=0, sign=1):
            acc = out.setdefault(w, {})
            for e, c in poly.items():
                acc[e + shift] = acc.get(e + shift, 0) + sign * c

        for w, c in support.items():
            ws = apply_gen(w, i)
            if w[i - 1] < w[i]:  # length goes up
                bump(ws, c, shift=1)
            else:
                bump(w, c, shift=1)
                bump(w, c, sign=-1)
                bump(ws, c)
        support = {w: {e: v for e, v in c.items() if v} for w, c in out.items()}
        support = {w: c for w, c in support.items() if c}
    return support


class TestAgainstDictFold:
    """The array fold against the dict fold, on every nonzero row and point
    count."""

    @staticmethod
    def check(b):
        mass = dict_fold(b)
        assert fold_rows(hecke._fold(b)) == mass
        # Each row is q^len(w) times a T-basis coefficient, a polynomial.
        assert all(min(c) >= permutation_length(w) for w, c in mass.items())
        n = b.strands
        for target in (identity_permutation(n), longest_permutation(n),
                       tuple(range(2, n + 1)) + (1,)):
            coeff = mass.get(inverse_permutation(target), {})
            ell = permutation_length(target)
            assert point_count(b, target) == qp({e - ell: c for e, c in coeff.items()})

    @given(words(max_strands=5, max_len=12))
    @settings(max_examples=150, deadline=None)
    def test_random_words(self, b):
        self.check(b)

    @pytest.mark.parametrize("twisted", [False, True])
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 7) for n in range(8)])
    def test_torus_words(self, m, n, twisted):
        b = torus_braid(m, n)
        self.check(b.concat(half_twist(m)) if twisted else b)

    def test_half_twist_12(self):
        # 66 letters each lengthen the permutation: one nonzero row at a
        # time, so the fold holds 67 rows, all but one of them zero.
        b = half_twist(12)
        self.check(b)
        assert len(hecke._fold(b).keys) == 67
        tail = b.concat(BraidWord(12, [1, 1, 3, 3]))
        self.check(tail)
        assert len(fold_rows(hecke._fold(tail))) == 4


class TestTraceSplit:
    """point_count as the trace of two folds that meet at a letter k of b
    followed by a reduced word of the target: every k gives the count."""

    @staticmethod
    def word(b, target):
        return b.letters + tuple(hecke._reduced_word(target))

    @given(words(max_strands=5, max_len=12), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_every_split(self, b, rnd):
        n = b.strands
        mass, f = dict_fold(b), hecke._fold(b)
        for target in (identity_permutation(n), longest_permutation(n),
                       tuple(range(2, n + 1)) + (1,), tuple(rnd.sample(range(1, n + 1), n))):
            ell = permutation_length(target)
            coeff = mass.get(inverse_permutation(target), {})
            expected = qp({e - ell: c for e, c in coeff.items()})
            assert hecke._count(f, target) == expected
            word = self.word(b, target)
            for k in range(len(word) + 1):
                assert hecke._split_count(n, word, k, ell) == expected
            assert point_count(b, target) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reduced_words(self, n):
        for x in itertools.permutations(range(1, n + 1)):
            word = hecke._reduced_word(x)
            assert len(word) == permutation_length(x)
            assert permutation_of(BraidWord(n, word)) == x

    @given(words(max_strands=4, max_len=8))
    @settings(max_examples=100, deadline=None)
    def test_demazure_product(self, b):
        # The Demazure product is w0 exactly when some subword multiplies to w0.
        n, w0 = b.strands, longest_permutation(b.strands)
        reaches = any(
            permutation_of(BraidWord(n, tuple(itertools.compress(b.letters, keep)))) == w0
            for keep in itertools.product((0, 1), repeat=len(b.letters))
        )
        assert hecke._demazure_is_w0(n, b.letters) == reaches

    @pytest.mark.parametrize("m", [8, 9])
    def test_rotations_agree(self, m):
        # The e-count is a trace, so every cyclic rotation gives it, whatever
        # split each rotation's word falls at.
        b, e = torus_braid(m, m + 1), identity_permutation(m)
        counts = {point_count(cyclic_rotate(b, k), e) for k in (0, 1, 13, 31, 50)}
        assert len(counts) == 1
        assert divisible_by_q_minus_1_power(counts.pop(), m - 1)

    def test_t89_against_the_full_fold(self):
        b, e = torus_braid(8, 9), identity_permutation(8)
        assert point_count(b, e) == hecke._count(hecke._fold(b), e)

    def test_combine_past_int16(self):
        # Crossings on six disjoint strand pairs: the variety is the product of
        # six two-strand ones, and its count has coefficients of 24 bits.  No
        # half reaches w0, so the two folds always meet.
        b = BraidWord(12, [1, 3, 5, 7, 9, 11] * 31)
        two = point_count(torus_braid(2, 31), identity_permutation(2))
        assert point_count(b, identity_permutation(12)) == two * two * two * two * two * two

    @pytest.mark.parametrize("m", [10, 12])
    def test_past_the_full_fold(self, m):
        # The fold of T(10,11) alone would hold 10! rows, past the budget.
        # For every m <= 9 that fold gives q^(m(m-1)/2) (q - 1)^(m-1).
        b, e = torus_braid(m, m + 1), identity_permutation(m)
        count = point_count(b, e)
        assert divisible_by_q_minus_1_power(count, m - 1)
        expected = qp({m * (m - 1) // 2: 1})
        for _ in range(m - 1):
            expected = expected * qp({1: 1, 0: -1})
        assert count == expected
        word = self.word(b, e)
        assert hecke._split_count(m, word, len(word) // 2 + 5, 0) == count


class TestRecursionBridge:
    """With c = gcd(m, n) and N(q) the numerator of euler_a0(m, n) over
    (1 - q)^c, #X(T(m,n) half_twist(m); w0) = (q - 1)^(m - c) N(q)."""

    @pytest.mark.parametrize("m,n", [
        (2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7), (6, 7), (7, 8),
        (2, 2), (2, 4), (3, 3), (3, 6), (4, 4), (4, 6), (5, 5), (6, 6), (6, 8), (7, 7),
    ])
    def test_lowest_a_degree(self, m, n):
        c = math.gcd(m, n)
        series = recursion.euler_a0(m, n)
        assert series.denom_pow <= c
        assert all(ea == et == 0 for ea, _, et in series.num.terms)
        right = series.num * ONE_MINUS_Q ** (c - series.denom_pow) * (Q - ONE) ** (m - c)
        b = torus_braid(m, n).concat(half_twist(m))
        assert point_count(b, longest_permutation(m)) == right


class TestFoldLimits:
    def test_python_int_fallback_matches(self, monkeypatch):
        b = torus_braid(4, 5)
        expected = dict_fold(b)
        f = hecke._fold(b)
        assert f.arr.dtype == np.int16
        assert fold_rows(f) == expected
        # The largest coefficient of this fold is past 16 / 3, so a headroom of
        # 16 sends it to Python ints.
        monkeypatch.setattr(recursion, "INT64_HEADROOM", 2**4)
        f = hecke._fold(b)
        assert f.arr.dtype == object
        assert fold_rows(f) == expected

    @staticmethod
    def short_ladder(monkeypatch, *limits):
        """Give the fold's first rungs, int16, int32, ..., the limits given."""
        types = list(recursion._INT_TYPES)
        for k, limit in enumerate(limits, 1):
            types[k] = (types[k][0], limit)
        monkeypatch.setattr(recursion, "_INT_TYPES", tuple(types))

    @staticmethod
    def dtypes(b):
        """The types the fold of b holds after each letter, without repeats."""
        seen = []
        for k in range(1, len(b.letters) + 1):
            dtype = hecke._fold(BraidWord(b.strands, b.letters[:k])).arr.dtype
            if dtype not in seen:
                seen.append(dtype)
        return seen

    def test_widens_through_every_rung(self, monkeypatch):
        # The largest coefficient of T(5,6) grows 1, 2, ..., 11, ..., 19: past
        # 4 / 3 it leaves int16, past 16 / 3 int32, and past 32 / 3 int64.
        b = torus_braid(5, 6)
        self.short_ladder(monkeypatch, 4, 16, 32)
        assert self.dtypes(b) == [np.int16, np.int32, np.int64, object]
        TestAgainstDictFold.check(b)

    def test_tightened_bound_keeps_the_type(self, monkeypatch):
        # The tracked bound 3^24 passes every patched limit, but the true
        # maximum, 19, times 3 fits below 64.
        self.short_ladder(monkeypatch, 64, 64, 64)
        assert self.dtypes(torus_braid(5, 6)) == [np.int16]

    @given(words(max_strands=5, max_len=12), st.integers(2, 6), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_words_on_a_short_ladder(self, b, low, step):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.short_ladder(monkeypatch, low, low << step, low << 2 * step)
            TestAgainstDictFold.check(b)

    def test_t89_stays_int16(self):
        # The largest coefficient of this fold is 416.
        assert hecke._fold(torus_braid(8, 9)).arr.dtype == np.int16

    @pytest.mark.parametrize("limits,dtype", [((), np.int16), ((4, 16), np.int64)])
    def test_memory_budget_boundary(self, monkeypatch, limits, dtype):
        # Rows and entry width only grow, so the last letter is the dearest:
        # its rows, priced at the width of the type it runs in.  Both halves
        # of T(7,8) and the word of w0 reach w0, so point_count folds b alone.
        self.short_ladder(monkeypatch, *limits)
        b, w0 = torus_braid(7, 8), longest_permutation(7)
        f = hecke._fold(b)
        assert f.arr.dtype == dtype
        need = len(f.keys) * (5 * 49 * f.arr.itemsize // 2 + 72)
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", need)
        assert point_count(b, w0) == hecke._count(f, w0)
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", need - 1)
        refused = f"braid word of 48 letters on 7 strands needs more than {need >> 20} MiB"
        with pytest.raises(ValueError, match=refused):
            point_count(b, w0)
        with pytest.raises(ValueError, match=refused):
            hecke._fold(b)
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", need)
        with pytest.raises(ValueError, match=refused):
            hecke._fold(b, held=1)

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", 1 << 20)
        refused = "braid word of 48 letters on 7 strands needs more than 1 MiB"
        with pytest.raises(ValueError, match=refused):
            point_count(torus_braid(7, 8), longest_permutation(7))
        assert point_count(torus_braid(2, 3), identity_permutation(2)) == qp({2: 1, 1: -1})

    def test_one_budget_for_fold_and_recursion(self, monkeypatch):
        # The fold reads the recursion's MAX_LIVE_BYTES when it runs, so one
        # patch of it refuses both engines.
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", 1 << 20)
        with pytest.raises(ValueError, match="48 letters on 7 strands needs more than 1 MiB"):
            point_count(torus_braid(7, 8), longest_permutation(7))
        with pytest.raises(ValueError, match="length 20 needs more than 1 MiB of live numerators"):
            recursion.hhh_torus(10, 10)

    def test_split_refusal_names_the_word(self, monkeypatch):
        # T(8,9) at e is split; its first half alone passes a 1 KiB budget,
        # and the refusal names the caller's 56 letters, not the half's.
        b, e = torus_braid(8, 9), identity_permutation(8)
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", 1 << 10)
        with pytest.raises(ValueError, match="needs more than") as refused:
            hecke._fold(BraidWord(8, b.letters[: len(b) // 2]))
        assert f"of {len(b) // 2} letters" in str(refused.value)
        with pytest.raises(ValueError, match=f"braid word of {len(b)} letters on 8 strands"):
            point_count(b, e)

    def test_split_folds_are_admitted_together(self, monkeypatch):
        # The second fold is admitted beside the bytes the first one holds.
        seen, fold = [], hecke._fold

        def spy(b, held=0):
            f = fold(b, held)
            seen.extend((held, recursion._nbytes(f) + f.keys.nbytes))
            return f

        monkeypatch.setattr(hecke, "_fold", spy)
        point_count(torus_braid(8, 9), identity_permutation(8))
        assert len(seen) == 4 and seen[0] == 0 and seen[2] == seen[1] > 0


class TestFoldFromStart:
    """_fold(suffix, start=_fold(prefix)) is _fold(prefix + suffix), and
    leaves its start as it was."""

    @staticmethod
    def check_every_split(b):
        n, whole = b.strands, hecke._fold(b)
        types = set()
        for k in range(len(b.letters) + 1):
            start = hecke._fold(BraidWord(n, b.letters[:k]))
            arr, keys, bound = start.arr.copy(), start.keys.copy(), start.bound
            f = hecke._fold(BraidWord(n, b.letters[k:]), start=start)
            assert f.arr.dtype == whole.arr.dtype and f.arr.shape == whole.arr.shape
            assert np.array_equal(f.keys, whole.keys) and np.array_equal(f.arr, whole.arr)
            assert f.arr is not start.arr
            assert start.arr.dtype == arr.dtype and np.array_equal(start.arr, arr)
            assert np.array_equal(start.keys, keys) and start.bound == bound
            types.add(start.arr.dtype)
        return types

    @given(words(max_strands=5, max_len=10))
    @settings(max_examples=60, deadline=None)
    def test_every_split(self, b):
        self.check_every_split(b)

    def test_start_past_int16_keeps_climbing(self, monkeypatch):
        # On this ladder the fold of T(5,6) climbs int16, int32, int64 and
        # Python ints, so starts of every type are folded onward.
        TestFoldLimits.short_ladder(monkeypatch, 4, 16, 32)
        b = torus_braid(5, 6)
        assert self.check_every_split(b) == {np.dtype(t) for t in (np.int16, np.int32, np.int64, object)}
        assert hecke._fold(b).arr.dtype == object
        TestAgainstDictFold.check(b)

    def test_memory_budget_boundary(self, monkeypatch):
        # Every row is priced at the final width, start's width plus the
        # suffix's letters; the refusal names both together.
        b, n = torus_braid(7, 8), 7
        start = hecke._fold(BraidWord(n, b.letters[:24]))
        suffix = BraidWord(n, b.letters[24:])
        f = hecke._fold(suffix, start=start)
        assert f.arr.shape[1] == 49
        need = len(f.keys) * (5 * 49 * f.arr.itemsize // 2 + 72)
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", need)
        assert np.array_equal(hecke._fold(suffix, start=start).arr, f.arr)
        refused = "braid word of 48 letters on 7 strands needs more than"
        with pytest.raises(ValueError, match=refused):
            hecke._fold(suffix, held=1, start=start)
        monkeypatch.setattr(recursion, "MAX_LIVE_BYTES", need - 1)
        with pytest.raises(ValueError, match=refused):
            hecke._fold(suffix, start=start)


def whole_group(n):
    """A fold over all of S_n, its keys in lexicographic order and one
    zero column."""
    f = hecke._Fold(n)
    f.keys = np.array(list(itertools.permutations(range(n)))).reshape(-1, n) @ f.weight
    f.arr = np.zeros((len(f.keys), 1), dtype=np.int16)
    return f


def block_counter(monkeypatch):
    """Count the letters _fold hands to _lex_letter, and the types they run in."""
    calls, lex = [], hecke._lex_letter

    def spy(arr, n, j, cols):
        calls.append(arr.dtype)
        lex(arr, n, j, cols)

    monkeypatch.setattr(hecke, "_lex_letter", spy)
    return calls


def sparse_fold(b):
    """The fold of b with every letter on the sparse path, the reference for
    the whole-group blocks."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(hecke, "_whole", lambda f: False)
        return hecke._fold(b)


def assert_same_fold(f, g):
    assert f.arr.dtype == g.arr.dtype and f.arr.shape == g.arr.shape
    assert np.array_equal(f.keys, g.keys) and np.array_equal(f.arr, g.arr)
    assert f.bound == g.bound


class TestWholeGroupLetters:
    """Once a fold holds all n! rows, each letter runs as strided block views
    of its array (_lex_letter) with no partner lookup; the sparse path,
    which looks up every partner, is the reference."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_blocks_pair_each_row_with_its_partner(self, n):
        f = whole_group(n)
        assert hecke._whole(f)
        for j in range(n - 1):
            up, _, hit, found = f.partners(j)
            assert found.all()
            rows = np.arange(len(f.keys))[:, None]
            blocks = list(hecke._lex_blocks(rows, n, j))
            u = np.concatenate([a.ravel() for a, _ in blocks])
            d = np.concatenate([b.ravel() for _, b in blocks])
            # Every row is addressed once, as an up row or as its partner.
            assert sorted(np.concatenate([u, d]).tolist()) == rows.ravel().tolist()
            order = np.argsort(u)
            assert np.array_equal(u[order], np.flatnonzero(up & found))
            assert np.array_equal(d[order], hit[u[order]])

    @pytest.mark.parametrize("dtype", [np.int16, object])
    def test_blocks_are_views(self, dtype):
        # A reshape that copied would fold the letter into the copy and
        # leave the array as it was.
        n = 5
        arr = np.zeros((math.factorial(n), 3), dtype=dtype)
        for j in range(n - 1):
            for up, down in hecke._lex_blocks(arr, n, j):
                assert np.shares_memory(up, arr) and np.shares_memory(down, arr)
        arr[:, 0] = 1
        hecke._lex_letter(arr, n, 0, 1)
        assert sorted(map(tuple, arr.tolist())) == [(-1, 2, 0)] * 60 + [(1, 0, 0)] * 60

    @pytest.mark.parametrize("b, letters", [
        (torus_braid(7, 8).concat(half_twist(7)), 27),
        (BraidWord(8, torus_braid(8, 9).concat(half_twist(8)).letters[:60]), 4),
    ])
    def test_big_folds_match_the_sparse_path(self, monkeypatch, b, letters):
        calls = block_counter(monkeypatch)
        f = hecke._fold(b)
        assert len(calls) == letters and hecke._whole(f)
        assert_same_fold(f, sparse_fold(b))

    @given(words(max_strands=6, max_len=40))
    @settings(max_examples=60, deadline=None)
    def test_random_words_match_the_sparse_path(self, b):
        assert_same_fold(hecke._fold(b), sparse_fold(b))

    def test_every_rung_matches_the_sparse_path(self, monkeypatch):
        # On this ladder the fold of T(4,9) holds all 24 rows while it
        # climbs from int16 through int32 and int64 to Python ints.
        TestFoldLimits.short_ladder(monkeypatch, 16, 24, 32)
        b = torus_braid(4, 9)
        calls = block_counter(monkeypatch)
        f = hecke._fold(b)
        assert list(dict.fromkeys(calls)) == [np.dtype(t) for t in (np.int16, np.int32, np.int64, object)]
        assert_same_fold(f, sparse_fold(b))
        assert fold_rows(f) == dict_fold(b)

    def test_full_start_gets_one_more_letter(self, monkeypatch):
        # The hecke-vs-brute suite folds a word's last letter onto its
        # prefix's fold; here that fold already holds all of S_4.
        prefix = torus_braid(4, 5).concat(half_twist(4))
        start = hecke._fold(prefix)
        assert hecke._whole(start)
        arr, keys, bound = start.arr.copy(), start.keys.copy(), start.bound
        expected = {idx: hecke._fold(prefix.concat(BraidWord(4, [idx]))) for idx in (1, 2, 3)}
        calls = block_counter(monkeypatch)
        for idx, whole in expected.items():
            f = hecke._fold(BraidWord(4, [idx]), start=start)
            assert_same_fold(f, whole)
            assert f.arr is not start.arr
            assert start.arr.dtype == arr.dtype and np.array_equal(start.arr, arr)
            assert np.array_equal(start.keys, keys) and start.bound == bound
        assert len(calls) == 3

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(3, 7) for n in range(m - 1, 8)])
    def test_dict_oracle_covers_the_blocks(self, monkeypatch, m, n):
        # The twisted torus words of TestAgainstDictFold.test_torus_words
        # reach all of S_m, so the dict fold checks the block path too.
        calls = block_counter(monkeypatch)
        TestAgainstDictFold.check(torus_braid(m, n).concat(half_twist(m)))
        assert calls


class TestSparseMerge:
    """A letter that reaches new permutations merges their zero rows into
    the sorted keys and array in one pass."""

    @staticmethod
    def check_every_letter(b):
        """Fold b one letter at a time; return the row counts after each."""
        f, sizes = hecke._Fold(b.strands), []
        for k in range(1, len(b.letters) + 1):
            f = hecke._fold(BraidWord(b.strands, b.letters[k - 1 : k]), start=f)
            assert (np.diff(f.keys) > 0).all()
            assert fold_rows(f) == dict_fold(BraidWord(b.strands, b.letters[:k]))
            sizes.append(len(f.keys))
        return sizes

    def test_half_twist_12(self):
        # Each of the 66 letters lengthens the one nonzero row, and adds the
        # row it moves to.
        sizes = self.check_every_letter(half_twist(12))
        assert sizes == list(range(2, 68))
        tail = half_twist(12).concat(BraidWord(12, [1, 1, 3, 3]))
        # At w0 the first s_3 adds the partners of w0 and w0 s_1 at once.
        assert self.check_every_letter(tail)[66:] == [67, 67, 69, 69]

    @given(words(max_strands=6, max_len=14))
    @settings(max_examples=60, deadline=None)
    def test_random_words(self, b):
        self.check_every_letter(b)


class TestBruteForce:
    def test_sigma3_over_f3(self):
        b = torus_braid(2, 3)
        assert brute_force_count(b, identity_permutation(2), 3) == 6

    def test_single_crossing_never_triangular(self):
        assert brute_force_count(torus_braid(2, 1), identity_permutation(2), 5) == 0

    def test_sigma4_over_f2(self):
        assert brute_force_count(torus_braid(2, 4), identity_permutation(2), 2) == 6

    def test_budget(self):
        b = torus_braid(2, 20)
        with pytest.raises(ValueError, match="budget"):
            brute_force_count(b, identity_permutation(2), 13)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            brute_force_count(torus_braid(2, 2), identity_permutation(2), 4)

    def test_threads_agree_across_batches(self):
        # 5^8 tuples on 3 strands fill several batches, whose counts add up.
        b = torus_braid(3, 4)
        assert 5**8 > hecke._BATCH_BYTES // 9
        for w in (identity_permutation(3), longest_permutation(3)):
            want = at(point_count(b, w), 5)
            assert brute_force_count(b, w, 5) == want

    @pytest.mark.parametrize(
        "p, dtype, b",
        [
            # p^6 is above the batch size, so these two fill several batches.
            (11, np.int8, torus_braid(2, 6)),
            (13, np.int16, torus_braid(2, 6)),
            (181, np.int16, BraidWord(3, [1, 2])),
            (191, np.int32, BraidWord(3, [1, 2])),
            (46337, np.int32, BraidWord(2, [1])),
            (46349, np.int64, BraidWord(2, [1])),
        ],
    )
    def test_entry_dtype_boundaries(self, p, dtype, b):
        # (p - 1) + (p - 1)^2 fits int8 up to p = 11, int16 up to 181 and
        # int32 up to 46337.
        assert hecke._entry_dtype(p) == np.dtype(dtype)
        # The largest entry a letter can form, (p - 1) + (p - 1) * (p - 1),
        # computed in the narrow type against Python integers.
        batch = np.full((2, 2, 1), p - 1, dtype=dtype)
        zs = np.arange(p, dtype=dtype)[:, None]
        out = hecke._extend(batch, 0, zs, p)
        assert out.dtype == np.dtype(dtype)
        assert out[:, 1].tolist() == [[(p - 1 + z * (p - 1)) % p for z in range(p)]] * 2
        assert out[:, 0].tolist() == [[p - 1] * p] * 2
        # A last letter is counted without building it: at w0 on 2 strands
        # its test is A + z B = (p - 1) + z (p - 1) on row 1, zero at one z.
        tests = [hecke._leaf_test(longest_permutation(2), 0)]
        assert tests == [([], [1])]
        want = sum((p - 1 + z * (p - 1)) % p == 0 for z in range(p))
        assert want == 1
        assert hecke._leaf_counts(batch, 0, tests, zs, p, p).tolist() == [[want]]
        for w in (identity_permutation(b.strands), longest_permutation(b.strands)):
            assert brute_force_count(b, w, p) == at(point_count(b, w), p)

    @pytest.mark.parametrize("batch_bytes", [1, 24, 200, 1 << 20])
    @pytest.mark.parametrize(
        "b, p",
        [(torus_braid(2, 3), 13), (torus_braid(3, 4), 2), (BraidWord(3, [1, 2, 2, 1, 1]), 5)],
    )
    def test_batch_size_does_not_change_counts(self, monkeypatch, batch_bytes, b, p):
        # Small batches split a letter's z values into runs, down to one
        # z value per batch, in the inner nodes and the last letter alike.
        monkeypatch.setattr(hecke, "_BATCH_BYTES", batch_bytes)
        targets = (identity_permutation(b.strands), longest_permutation(b.strands))
        want = [at(point_count(b, w), p) for w in targets]
        assert hecke._enumerate_counts([b], targets, p) == [want]
        prefixes = [BraidWord(b.strands, b.letters[:k]) for k in range(len(b.letters) + 1)]
        assert hecke._enumerate_counts(prefixes, targets, p) == [
            [at(point_count(c, w), p) for w in targets] for c in prefixes
        ]

    @pytest.mark.parametrize("n, r", [(2, 18), (12, 16)])
    def test_batches_held_to_the_byte_budget(self, monkeypatch, n, r):
        # No batch the kernel builds, on any strand count, holds more than
        # _BATCH_BYTES of matrix entries, and the deepest ones fill it.
        monkeypatch.setattr(hecke, "_BATCH_BYTES", 1 << 16)
        calls = extend_spy(monkeypatch)
        b = BraidWord(n, [k % (n - 1) + 1 for k in range(r)])
        e = identity_permutation(n)
        assert brute_force_count(b, e, 2) == at(point_count(b, e), 2)
        assert (1 << 15) < max(size for _, _, size in calls) <= 1 << 16

    def test_long_word_holds_one_full_batch(self, monkeypatch):
        # sigma_1^22 at F_2 builds its deepest letter in full batches of
        # 2^14 matrices and the letters before it in runs that halve toward
        # the front, so the peak stays near two batches and the leaf test's
        # temporaries.  One full batch per letter after the first full one
        # peaked near 10 batches.
        monkeypatch.setattr(hecke, "_BATCH_BYTES", 1 << 16)
        b, e = BraidWord(2, [1] * 22), identity_permutation(2)
        want = at(point_count(b, e), 2)
        tracemalloc.start()
        try:
            got = brute_force_count(b, e, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 5 << 16

    def test_entry_dtype_refuses_what_int64_cannot_hold(self):
        with pytest.raises(ValueError, match="too large"):
            hecke._entry_dtype(2**32 + 15)

    @given(words(max_strands=3, max_len=4), st.sampled_from([2, 3, 5]))
    @settings(max_examples=25, deadline=None)
    def test_matches_transfer_count(self, b, p):
        for target in (identity_permutation(b.strands), longest_permutation(b.strands)):
            assert brute_force_count(b, target, p) == at(point_count(b, target), p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_definitional_count(self, p):
        # Count z with B_b(z) P_w upper triangular mod p straight from the
        # definition, with P_w[w_j - 1][j] = 1, sharing no code with the
        # column-operation kernel behind brute_force_count.
        for n in range(1, 4):
            for r in range(5 if p < 5 else 4):
                for letters in itertools.product(range(1, n), repeat=r):
                    b = BraidWord(n, letters)
                    for w in (identity_permutation(n), longest_permutation(n)):
                        perm = [[int(w[j] == i + 1) for j in range(n)] for i in range(n)]
                        count = 0
                        for z in grid(r, range(p)):
                            m = braid_matrix(b, z)
                            bp = [[sum(m[i][k] * perm[k][j] for k in range(n)) for j in range(n)]
                                  for i in range(n)]
                            count += all(bp[i][j] % p == 0 for i in range(n) for j in range(i))
                        assert count == brute_force_count(b, w, p), (letters, w, p)

    @given(word_sets(), st.sampled_from([2, 3, 5, 7]), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_trie_matches_one_word_counts(self, words, p, rnd):
        # Duplicates, the empty word and prefixes of other words share the
        # trie; each count equals the word's own walk and its Hecke count.
        n = words[0].strands
        targets = [identity_permutation(n), longest_permutation(n)]
        skew = [w for w in itertools.permutations(range(1, n + 1)) if inverse_permutation(w) != w]
        if skew:
            targets.append(rnd.choice(skew))
        got = hecke._enumerate_counts(words, targets, p)
        assert got == [[brute_force_count(b, w, p) for w in targets] for b in words]
        assert got == [[at(point_count(b, w), p) for w in targets] for b in words]

    @pytest.mark.parametrize("n, r", [(3, 5), (4, 3)])
    def test_full_trie_at_every_target(self, n, r):
        # Every word up to r letters: each inner node has n - 1 children,
        # and every permutation is a target.
        words = [BraidWord(n, ls) for k in range(r + 1)
                 for ls in itertools.product(range(1, n), repeat=k)]
        targets = list(itertools.permutations(range(1, n + 1)))
        got = hecke._enumerate_counts(words, targets, 3)
        for b, counts in zip(words, got):
            f = hecke._fold(b)
            assert counts == [at(hecke._count(f, w), 3) for w in targets], b.word_str()

    def test_non_involutive_target(self):
        # B_1(z1) B_2(z2) P_w upper triangular only for w = (3,1,2), z = 0.
        b = BraidWord(3, [1, 2])
        assert brute_force_count(b, (3, 1, 2), 3) == 1
        assert point_count(b, (3, 1, 2)) == qp({0: 1})
        assert brute_force_count(b, (2, 3, 1), 3) == 0
        assert point_count(b, (2, 3, 1)) == qp({})


def depth_first_counts(words, targets, p):
    """The trie walk that hecke._enumerate_counts replaced, kept as its
    oracle: one node at a time, depth first, each inner node's batch its
    parent's extended by one letter in z runs of at most _BATCH_BYTES of
    entries, each last letter counted from its parent's batch."""
    if not words:
        return []
    n = words[0].strands
    empty, trie = [], {}
    for k, b in enumerate(words):
        ends, kids = empty, trie
        for idx in b.letters:
            ends, kids = kids.setdefault(idx, ([], {}))
        ends.append(k)
    dtype = hecke._entry_dtype(p)
    zs = np.arange(p, dtype=dtype)[:, None]
    limit = max(1, hecke._BATCH_BYTES // (n * n * dtype.itemsize))
    tests = [[hecke._leaf_test(w, i) for w in targets] for i in range(n - 1)]
    counts = [[0] * len(targets) for _ in words]

    def walk(batch, node):
        for idx, (ends, kids) in node.items():
            i = idx - 1
            if ends:
                got = hecke._leaf_counts(batch, i, tests[i], zs, p, limit)[:, 0].tolist()
                for k in ends:
                    counts[k] = [c + g for c, g in zip(counts[k], got)]
            if kids:
                step = max(1, limit // batch.shape[2])
                for lo in range(0, p, step):
                    walk(hecke._extend(batch, i, zs[lo : lo + step], p), kids)

    eye = np.eye(n, dtype=dtype)[:, :, None]
    for k in empty:
        counts[k] = [int(hecke._zero(eye, hecke._below(w))[0]) for w in targets]
    walk(eye, trie)
    return counts


def extend_spy(monkeypatch):
    """Record (nodes, z values, output entries) of every _extend call."""
    calls, extend = [], hecke._extend

    def spy(batch, i, z, p, nodes=1, into=None):
        out = extend(batch, i, z, p, nodes, into)
        calls.append((nodes, len(z), out.nbytes))
        return out

    monkeypatch.setattr(hecke, "_extend", spy)
    return calls


class TestGroupWalk:
    """The trie walk in same-depth groups against the depth-first walk."""

    @given(
        word_sets(max_strands=4, max_len=6),
        st.sampled_from([2, 3, 5, 7]),
        st.sampled_from([200, 1 << 12, 1 << 20]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_depth_first_walk(self, words, p, batch_bytes, rnd):
        # Mixed tries with shared prefixes, duplicates and the empty word;
        # small batches split the groups and run single nodes' z values.
        n = words[0].strands
        targets = [identity_permutation(n), longest_permutation(n)]
        skew = [w for w in itertools.permutations(range(1, n + 1)) if inverse_permutation(w) != w]
        if skew:
            targets.append(rnd.choice(skew))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hecke, "_BATCH_BYTES", batch_bytes)
            assert hecke._enumerate_counts(words, targets, p) == depth_first_counts(words, targets, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_full_tries(self, p):
        for n in (2, 3, 4):
            words = [BraidWord(n, ls) for k in range(6 if n < 4 else 5)
                     for ls in itertools.product(range(1, n), repeat=k)]
            targets = [identity_permutation(n), longest_permutation(n), (2, 3, 1, 4)[:n] if n > 2 else (2, 1)]
            if n == 3:
                targets[2] = (2, 3, 1)
            assert hecke._enumerate_counts(words, targets, p) == depth_first_counts(words, targets, p)

    def test_one_extend_per_letter_and_depth(self, monkeypatch):
        # All 255 words of up to 7 letters on 3 strands at F_2: each of the
        # six inner depths fits one group, extended once per letter.
        calls = extend_spy(monkeypatch)
        leaves, leaf_counts = [], hecke._leaf_counts

        def leaf_spy(*args):
            leaves.append(args[-1])
            return leaf_counts(*args)

        monkeypatch.setattr(hecke, "_leaf_counts", leaf_spy)
        words = [BraidWord(3, ls) for k in range(8) for ls in itertools.product((1, 2), repeat=k)]
        targets = [identity_permutation(3), longest_permutation(3)]
        assert hecke._enumerate_counts(words, targets, 2) == depth_first_counts(words, targets, 2)
        del calls[12:]  # the oracle's own extends
        assert [nodes for nodes, _, _ in calls] == [1, 1] + [2**d for d in range(1, 6) for _ in "ab"]
        assert leaves[:14] == [2**d for d in range(7) for _ in "ab"]

    def test_groups_split_and_single_nodes_run(self, monkeypatch):
        # Batches of 250 matrices at F_5.  The 3-strand trie of up to four
        # letters holds its two depth-1 nodes in one group, and its depth-2
        # and depth-3 nodes two to a group, each built by one extend.  A single word outgrows the room
        # and builds its deeper letters in runs of fewer than five z values.
        monkeypatch.setattr(hecke, "_BATCH_BYTES", 250 * 9)
        calls = extend_spy(monkeypatch)
        targets = [identity_permutation(3), longest_permutation(3), (2, 3, 1)]
        words = [BraidWord(3, ls) for k in range(5) for ls in itertools.product((1, 2), repeat=k)]
        got = hecke._enumerate_counts(words, targets, 5)
        # The root's one group by letter, then two groups per depth below.
        assert [nodes for nodes, _, _ in calls] == [1, 1] + [2] * 6
        assert max(size for _, _, size in calls) == 250 * 9
        assert got == depth_first_counts(words, targets, 5)
        del calls[:]
        words = [BraidWord(3, [1, 2, 1, 2, 1, 2])]
        got = hecke._enumerate_counts(words, targets, 5)
        assert {nodes for nodes, _, _ in calls} == {1} and min(z for _, z, _ in calls) < 5
        assert max(size for _, _, size in calls) <= 250 * 9
        assert got == depth_first_counts(words, targets, 5)



class TestQPolyJson:
    def test_roundtrip(self):
        p = qp({2: 1, 1: -1})
        assert q_poly_from_json(q_poly_to_json(p)) == p
        assert q_poly_to_json(p) == '{"q_poly": {"0": "0", "1": "-1", "2": "1"}}'

    def test_render(self):
        assert render_descending(qp({2: 1, 1: -1})) == "q^2 - q"
        assert render_descending(qp({})) == "0"
        assert render_descending(qp({0: -3, 1: 2})) == "2*q - 3"
