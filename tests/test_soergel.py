from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torushom import soergel
from torushom.recursion import hhh_a0
from torushom.soergel import (
    MULT,
    ZERO,
    _rank,
    hhh0_two_strand,
    hom_complex_two_strand,
    qt_table_within,
    two_strand_qt_dims,
)


class TestComplexShape:
    def test_k2(self):
        cx = hom_complex_two_strand(2)
        assert cx.shifts == (-4, -2, 0)
        # out of position 1 (into R): multiplication; out of position 2: zero
        assert cx.label_out_of(1) == MULT
        assert cx.label_out_of(2) == ZERO

    def test_k3(self):
        cx = hom_complex_two_strand(3)
        assert cx.shifts == (-6, -4, -2, 0)
        assert [cx.label_out_of(j) for j in (1, 2, 3)] == [MULT, ZERO, MULT]

    def test_k0(self):
        cx = hom_complex_two_strand(0)
        assert cx.shifts == (0,)
        assert cx.labels == ()

    @given(st.integers(0, 12))
    def test_d_squared_zero(self, k):
        cx = hom_complex_two_strand(k)
        # adjacent labels never both multiplication, so d^2 = 0 structurally
        for j in range(1, k):
            assert (cx.label_out_of(j), cx.label_out_of(j + 1)) != (MULT, MULT)

    def test_shifts_match_stated_pattern(self):
        for k in range(8):
            cx = hom_complex_two_strand(k)
            assert cx.shifts == tuple(range(-2 * k, 1, 2))


class TestHomology:
    def test_t22_table(self):
        # Q^4 T^-2/(1-Q^2)^2 + 1/(1-Q^2), truncated at internal degree 8
        dims = hhh0_two_strand(2, 8).as_dict()
        expected = {
            (0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1, (8, 0): 1,
            (4, -2): 1, (6, -2): 2, (8, -2): 3,
        }
        assert dims == expected

    def test_t23_table(self):
        dims = hhh0_two_strand(3, 8).as_dict()
        expected = {
            (0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1, (8, 0): 1,
            (4, -2): 1, (6, -2): 1, (8, -2): 1,
        }
        assert dims == expected

    def test_negative_cutoff_refused(self):
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            hhh0_two_strand(3, -5)

    def test_m0_is_free_module(self):
        dims = hhh0_two_strand(0, 6).as_dict()
        assert dims == {(0, 0): 1, (2, 0): 2, (4, 0): 3, (6, 0): 4}

    def test_odd_positions_vanish(self):
        for m in range(1, 8):
            assert all(h % 2 == 0 for (_, h) in hhh0_two_strand(m, 16).as_dict())

    def test_interior_even_positions_are_cyclic(self):
        # quotient positions contribute exactly one dimension per even degree
        dims = hhh0_two_strand(6, 16).as_dict()
        for j in (2, 4):
            for d in range(2 * j, 17, 2):
                assert dims[(d, -j)] == 1

    def test_leftmost_even_position_is_free(self):
        dims = hhh0_two_strand(6, 20).as_dict()
        for d in range(12, 21, 2):
            assert dims[(d, -6)] == (d - 12) // 2 + 1

    @pytest.mark.parametrize("m", range(0, 13))
    def test_oracle_agreement(self, m):
        assert two_strand_qt_dims(m, 20) == qt_table_within(hhh_a0(2, m), 20, -m)


class TestBudget:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 6, 40])
    def test_steps_bound_the_work(self, monkeypatch, m):
        # What _steps prices: _POSITION_STEPS for every position (d, j) the
        # table visits, j <= min(length, d / 2) on the complex it builds,
        # and the entry updates of each rank, (rows - 1 - i) * cols at the
        # i-th pivot.  Each degree is ranked once.
        work, ranked = [0], []
        build, mult, rank = soergel.hom_complex_two_strand, soergel._mult_matrix, soergel._rank

        def count_positions(k):
            cx = build(k)
            work[0] += soergel._POSITION_STEPS * sum(
                min(cx.length, d // 2) + 1 for d in range(0, cutoff + 1, 2)
            )
            return cx

        def count_degrees(degree):
            ranked.append(degree)
            return mult(degree)

        def count_rank(matrix):
            r = rank(matrix)
            work[0] += sum(len(matrix) - 1 - i for i in range(r)) * len(matrix[0])
            return r

        monkeypatch.setattr(soergel, "hom_complex_two_strand", count_positions)
        monkeypatch.setattr(soergel, "_mult_matrix", count_degrees)
        monkeypatch.setattr(soergel, "_rank", count_rank)
        for cutoff in range(0, 41, 3):
            work[0], ranked[:] = 0, []
            hhh0_two_strand(m, cutoff)
            assert 0 < work[0] <= soergel._steps(m, cutoff)
            assert len(ranked) == len(set(ranked))

    def test_budget_boundary(self, monkeypatch):
        table = hhh0_two_strand(3, 40)
        monkeypatch.setattr(soergel, "MAX_TWO_STRAND_STEPS", soergel._steps(3, 40))
        assert hhh0_two_strand(3, 40) == table
        monkeypatch.setattr(soergel, "MAX_TWO_STRAND_STEPS", soergel._steps(3, 40) - 1)
        with pytest.raises(ValueError, match="internal degree 40 needs more than"):
            hhh0_two_strand(3, 40)

    @pytest.mark.parametrize("cutoff", [0, 4, 9, 20])
    def test_positions_past_half_the_cutoff_add_nothing(self, cutoff):
        # Every complex at least cutoff / 2 long gives the same table.
        tables = {hhh0_two_strand(m, cutoff).dims for m in (cutoff // 2, cutoff // 2 + 1, 10**9)}
        assert len(tables) == 1


def fraction_rank(matrix):
    """Rank by Gauss-Jordan elimination over the rationals, kept as the
    oracle of the fraction-free rank."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 8x8: a product of a rows x k and a k x cols
    factor, so of rank at most k, with some columns then set to zero."""
    rows, cols, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 8))
    entry = st.integers(-6, 6)
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=k, max_size=k))
    zero = draw(st.sets(st.integers(0, cols - 1)))
    return [
        [0 if c in zero else sum(a * right[i][c] for i, a in enumerate(row)) for c in range(cols)]
        for row in left
    ]


class TestRank:
    @given(integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_elimination(self, matrix):
        assert _rank(matrix) == fraction_rank(matrix)

    def test_edge_shapes(self):
        assert _rank([]) == 0
        assert _rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert _rank([[0, 2], [0, 4], [0, 7]]) == 1
        assert _rank([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
