import json
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from torushom import algebra
from torushom.algebra import (
    A,
    GradedTable,
    LaurentPoly,
    ONE,
    Q,
    RatFunc,
    T,
    divide_by_one_minus_q,
    q_poly_from_json,
    q_poly_to_json,
    qta_degree_from_QTA,
    ratfunc_from_json,
    ratfunc_normalize,
    ratfunc_to_json,
    render_descending,
    render_poly,
    render_ratfunc,
    series_truncate,
    table_from_json,
    table_to_json,
)


def mono(c, ea=0, eq=0, et=0):
    return LaurentPoly.monomial(c, ea, eq, et)


exponents = st.tuples(
    st.integers(0, 3), st.integers(-4, 4), st.integers(-4, 4)
)
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=6).map(LaurentPoly)


class TestLaurentArithmetic:
    def test_distributivity_example(self):
        lhs = (ONE + mono(1, eq=1, et=-1)) * (ONE - Q)
        expected = LaurentPoly(
            {(0, 0, 0): 1, (0, 1, 0): -1, (0, 1, -1): 1, (0, 2, -1): -1}
        )
        assert lhs == expected

    def test_zero_absorbs(self):
        p = ONE + Q * T
        assert p * LaurentPoly.zero() == LaurentPoly.zero()
        assert (p * LaurentPoly.zero()).terms == {}

    def test_cancellation(self):
        assert (T + Q) + (-Q) == T

    def test_coeffs_in_q_alone(self):
        p = Q * Q - Q
        assert p.coeffs == {2: 1, 1: -1}
        p.coeffs[0] = 7
        assert p.coeffs == {2: 1, 1: -1} and LaurentPoly.zero().coeffs == {}
        with pytest.raises(AttributeError):
            p.coeffs = {}
        for p in (A, T, Q + A * Q, mono(1, eq=1, et=-1)):
            with pytest.raises(ValueError, match="not a polynomial in q alone"):
                p.coeffs

    def test_negative_a_exponent_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly({(-1, 0, 0): 1})

    @given(polys, polys, polys)
    def test_ring_axioms(self, p1, p2, p3):
        assert p1 + p2 == p2 + p1
        assert p1 * p2 == p2 * p1
        assert (p1 + p2) + p3 == p1 + (p2 + p3)
        assert (p1 * p2) * p3 == p1 * (p2 * p3)
        assert p1 * (p2 + p3) == p1 * p2 + p1 * p3


class TestSubstitution:
    """RatFunc.regrade_t: t -> q^eq t^et, the one substitution kept."""

    def test_t_to_q_inverse(self):
        r = RatFunc.of(ONE + mono(1, eq=1, et=-1), 1)
        assert r.regrade_t(-1, 0) == RatFunc.of(ONE + mono(1, eq=2), 1)

    def test_identity(self):
        r = RatFunc.of((ONE + A) * (T + Q), 2)
        assert r.regrade_t(0, 1) == r

    def test_ors_image_keeps_a(self):
        # t -> q^-1 t^-2 on (1 + a)(t + a t^-1)
        r = RatFunc.of((ONE + A) * (T + mono(1, ea=1, et=-1)), 0)
        expected = (ONE + A) * (mono(1, eq=-1, et=-2) + mono(1, ea=1, eq=1, et=2))
        assert r.regrade_t(-1, -2) == RatFunc.of(expected, 0)

    def test_colliding_terms_add(self):
        # q t and q^2 t^2 both land on q^0 under t -> q^-1, as do 1 and -1.
        r = RatFunc.of(Q * T + mono(3, eq=2, et=2) + ONE, 0)
        assert r.regrade_t(-1, 0) == RatFunc.of(mono(5), 0)

    def test_cancellation_renormalises(self):
        # (1 - t^-1) / (1 - q) -> (1 - q) / (1 - q) = 1
        r = RatFunc.of(ONE - mono(1, et=-1), 1)
        assert r.regrade_t(-1, 0) == RatFunc.one()

    @given(polys, st.integers(0, 3), st.integers(-2, 2), st.integers(-2, 2))
    def test_matches_evaluation(self, num, d, eq, et):
        # The regrade is a ring map: compare with composing on the numerator.
        r = RatFunc.of(num, d)
        image = mono(1, eq=eq, et=et)
        direct = LaurentPoly.zero()
        for (ea, q, t), c in num.items():
            power = image ** t if t >= 0 else mono(1, eq=-eq, et=-et) ** -t
            direct = direct + mono(c, ea=ea, eq=q) * power
        assert r.regrade_t(eq, et) == RatFunc.of(direct, d)


class TestRatFunc:
    def test_exact_cancellation(self):
        assert ratfunc_normalize(ONE - Q, 1) == RatFunc(ONE, 0)

    def test_non_divisible_numerator(self):
        num = ONE + mono(1, eq=1, et=-1)
        assert ratfunc_normalize(num, 1) == RatFunc(num, 1)

    def test_square_cancels_once(self):
        assert ratfunc_normalize((ONE - Q) ** 2, 1) == RatFunc(ONE - Q, 0)

    def test_mul(self):
        base = RatFunc.of(ONE + A, 1)
        sq = base * base
        assert sq == RatFunc((ONE + A) ** 2, 2)

    def test_two_strand_sum(self):
        # t^-1 (t+a)(1+a)/(1-q) + q t^-1 (1+a)^2/(1-q)^2
        #   = t^-1 (1+a)(t+q-qt+a)/(1-q)^2
        t_inv = mono(1, et=-1)
        lhs = RatFunc.of(t_inv * (T + A) * (ONE + A), 1) + RatFunc.of(
            Q * t_inv * (ONE + A) ** 2, 2
        )
        rhs = RatFunc.of(t_inv * (ONE + A) * (T + Q - Q * T + A), 2)
        assert lhs == rhs

    def test_add_zero(self):
        x = RatFunc.of(ONE + A, 1)
        assert x + RatFunc.zero() == x

    @given(polys, st.integers(0, 3))
    def test_normalize_idempotent(self, num, d):
        r = ratfunc_normalize(num, d)
        assert ratfunc_normalize(r.num, r.denom_pow) == r

    @given(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.sampled_from([1, -1]),
        st.integers(0, 3),
    )
    def test_monomial_inverse(self, exps, coeff, d):
        eq, et = exps
        num = LaurentPoly({(0, eq, et): coeff})
        x = RatFunc.of(num, d)
        inv_num = LaurentPoly({(0, -eq, -et): coeff}) * (ONE - Q) ** d
        assert x * RatFunc.of(inv_num, 0) == RatFunc.one()

    def test_division_helpers(self):
        assert divide_by_one_minus_q((ONE - Q) * (T + A)) == T + A
        assert divide_by_one_minus_q(ONE + Q) is None

    @given(polys, exponents, st.integers(1, 9))
    def test_division_round_trip(self, p, exp, c):
        # The quotient is built without a cleaning pass, so its stored map
        # must already hold no zero coefficient.
        quotient = divide_by_one_minus_q((ONE - Q) * p)
        assert quotient == p
        assert 0 not in quotient.terms.values()
        # A monomial is no multiple of 1 - q, so neither is the sum.
        assert divide_by_one_minus_q((ONE - Q) * p + LaurentPoly({exp: c})) is None


class TestSeriesTruncate:
    def test_geometric(self):
        table = series_truncate(RatFunc.of(ONE, 1), 3)
        assert table.as_dict() == {(k, 0, 0): 1 for k in range(4)}

    def test_t23_series(self):
        r = RatFunc.of(ONE + mono(1, eq=1, et=-1), 1)
        table = series_truncate(r, 2)
        assert table.as_dict() == {
            (0, 0, 0): 1,
            (1, 0, 0): 1,
            (2, 0, 0): 1,
            (1, -1, 0): 1,
            (2, -1, 0): 1,
        }

    def test_binomial_expansion(self):
        r = RatFunc.of(mono(1, eq=1, et=-1), 2)
        table = series_truncate(r, 2)
        assert table.as_dict() == {(1, -1, 0): 1, (2, -1, 0): 2}

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            series_truncate(RatFunc.of(-ONE, 1), 2)

    @given(
        st.dictionaries(exponents, st.integers(1, 5), min_size=1, max_size=4),
        st.integers(0, 2),
        st.integers(1, 6),
    )
    def test_restriction_consistency(self, terms, d, depth):
        r = RatFunc.of(LaurentPoly(terms), d)
        big = series_truncate(r, depth)
        small = series_truncate(r, depth - 1) if depth > 0 else None
        if small is not None:
            assert tuple(e for e in big.entries if e[0][0] <= depth - 1) == small.entries


    @given(
        st.dictionaries(exponents, st.integers(-5, 5), min_size=1, max_size=4),
        st.integers(0, 3),
        st.integers(0, 6),
    )
    def test_matches_binomial_formula(self, terms, d, depth):
        # 1/(1-q)^d = sum_k C(k+d-1, d-1) q^k, term by term.
        r = RatFunc(LaurentPoly(terms), d)
        want = {}
        for (ea, eq, et), c in r.num.terms.items():
            for k in range(depth - eq + 1 if d else min(1, depth - eq + 1)):
                key = (eq + k, et, ea)
                want[key] = want.get(key, 0) + c * (comb(k + d - 1, d - 1) if d else 1)
        want = {key: c for key, c in want.items() if c}
        if any(c < 0 for c in want.values()):
            with pytest.raises(ValueError, match="negative"):
                series_truncate(r, depth)
        else:
            assert series_truncate(r, depth).as_dict() == want

    def test_budget_boundary(self, monkeypatch):
        # 1/(1-q) to q^3: four one-word products and four table entries.
        r = RatFunc.of(ONE, 1)
        monkeypatch.setattr(algebra, "MAX_SERIES_WORDS", 4 + 4 * algebra._ENTRY_WORDS)
        assert series_truncate(r, 3).as_dict() == {(k, 0, 0): 1 for k in range(4)}
        monkeypatch.setattr(algebra, "MAX_SERIES_WORDS", 3 + 4 * algebra._ENTRY_WORDS)
        with pytest.raises(ValueError, match="needs 148 words, past the series budget"):
            series_truncate(r, 3)

    def test_budget_prices_the_binomials(self):
        # One term and 20,001 products, 740,037 words at one word each; but
        # the binomials C(k + 10^6 - 1, k) reach 142,010 bits by k = 20,000.
        with pytest.raises(ValueError, match="series budget"):
            series_truncate(RatFunc.of(ONE, 10**6), 20000)


class TestDegreeDictionary:
    def test_paper_example(self):
        assert qta_degree_from_QTA(4, -2, 0) == (1, -1, 0)

    def test_identity(self):
        assert qta_degree_from_QTA(0, 0, 0) == (0, 0, 0)

    def test_leftmost_t34_generator(self):
        assert qta_degree_from_QTA(-6, 0, 0) == (-3, 0, 0)

    def test_q_square(self):
        assert qta_degree_from_QTA(2, 0, 0) == (1, 0, 0)

    def test_parity_violation(self):
        with pytest.raises(ValueError):
            qta_degree_from_QTA(1, 1, 0)
        with pytest.raises(ValueError):
            qta_degree_from_QTA(3, 1, 0)

    @given(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3)),
        st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 3)),
    )
    def test_injective(self, x, y):
        def admissible(v):
            return v[1] % 2 == 0 and (v[0] + v[1]) % 2 == 0

        if admissible(x) and admissible(y) and x != y:
            assert qta_degree_from_QTA(*x) != qta_degree_from_QTA(*y)


class TestRendering:
    def test_canonical_text(self):
        r = RatFunc(ONE + A + mono(1, eq=1, et=-1), 2)
        assert render_ratfunc(r) == "(1 + a + q*t^-1) / (1-q)^2"

    def test_poly_only(self):
        assert render_poly(Q + T) == "t + q"
        assert render_poly(LaurentPoly.zero()) == "0"

    def test_json_roundtrip_ratfunc(self):
        r = RatFunc(ONE + A + mono(-2, eq=1, et=-1), 2)
        assert ratfunc_from_json(ratfunc_to_json(r)) == r
        payload = json.loads(ratfunc_to_json(r))
        assert payload["denom_pow"] == 2
        assert all(isinstance(t["c"], str) for t in payload["num"])

    def test_q_descending_text(self):
        # render_poly's monomials, from the top q-degree down.
        p = Q * Q - Q - ONE
        assert render_poly(p) == "-1 - q + q^2"
        assert render_descending(p) == "q^2 - q - 1"
        assert render_descending(mono(-2, eq=3) + mono(5, eq=-1)) == "-2*q^3 + 5*q^-1"

    @given(st.dictionaries(st.integers(-3, 5), st.integers(-9, 9), max_size=6))
    def test_json_roundtrip_q_poly(self, coeffs):
        p = LaurentPoly({(0, e, 0): c for e, c in coeffs.items()})
        assert q_poly_from_json(q_poly_to_json(p)) == p

    def test_json_roundtrip_table(self):
        t = GradedTable.build({(0, 0, 0): 1, (2, -1, 1): 3}, 4)
        assert table_from_json(table_to_json(t)) == t
