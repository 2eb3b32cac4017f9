import pytest
from hypothesis import given
from hypothesis import strategies as st

from torushom.braid import (
    BraidWord,
    closure_components,
    cyclic_rotate,
    half_twist,
    identity_permutation,
    longest_permutation,
    parse_word,
    permutation_length,
    permutation_of,
    positive_stabilize,
    torus_braid,
)
from math import gcd


def braid_words(max_strands=4, max_len=8):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1), max_size=max_len
        ).map(lambda ls: BraidWord(n, ls))
    )


class TestConstructors:
    def test_torus_2_3(self):
        b = torus_braid(2, 3)
        assert b.strands == 2
        assert b.letters == (1,) * 3

    def test_torus_3_4(self):
        b = torus_braid(3, 4)
        assert b.strands == 3
        assert len(b.letters) == 8
        assert b.letters == (1, 2) * 4

    def test_torus_trivial(self):
        assert torus_braid(5, 0).letters == ()

    def test_half_twist_small(self):
        assert half_twist(2).letters == (1,)
        assert half_twist(3).letters == (1, 2, 1)

    def test_full_twist_2(self):
        # The full twist on n strands is T(n, n); its permutation is e.
        assert torus_braid(2, 2).letters == (1, 1)
        for n in range(1, 6):
            assert permutation_of(torus_braid(n, n)) == identity_permutation(n)

    def test_strand_bound(self):
        with pytest.raises(ValueError):
            torus_braid(13, 1)

    def test_letters_stored_as_a_tuple(self):
        b = BraidWord(3, iter([1, 2, 1]))
        assert b.letters == (1, 2, 1) and b == BraidWord(3, (1, 2, 1))
        assert hash(b) == hash(BraidWord(3, [1, 2, 1]))

    def test_bad_letters(self):
        # Only sigma_1 .. sigma_(n-1) are letters: inverses, 0 and n are refused.
        for strands in (2, 3, 5):
            for letter in (-1, 0, strands):
                with pytest.raises(ValueError, match="braid words are positive"):
                    BraidWord(strands, [1, letter])

    def test_parse_word(self):
        assert parse_word(3, "1,2,1").letters == (1, 2, 1)
        assert parse_word(3, " 2 , 1 ,").letters == (2, 1)
        assert parse_word(3, "").letters == ()
        with pytest.raises(ValueError, match="braid letter -2 .*positive"):
            parse_word(3, "1,-2,1")

    @given(braid_words())
    def test_parse_word_round_trip(self, b):
        assert parse_word(b.strands, b.word_str()) == b


class TestPermutations:
    def test_involution_squared(self):
        assert permutation_of(torus_braid(2, 2)) == (1, 2)

    def test_transposition(self):
        assert permutation_of(torus_braid(2, 3)) == (2, 1)

    def test_three_cycle(self):
        assert permutation_of(torus_braid(3, 4)) == (2, 3, 1)

    def test_half_twist_is_longest(self):
        for n in range(1, 7):
            w = permutation_of(half_twist(n))
            assert w == longest_permutation(n)
            assert len(half_twist(n)) == n * (n - 1) // 2
            assert permutation_length(w) == n * (n - 1) // 2

    @given(braid_words())
    def test_braid_relation_far_commutation(self, b):
        letters = list(b.letters)
        for k in range(len(letters) - 1):
            i, j = letters[k], letters[k + 1]
            if abs(i - j) > 1:
                swapped = letters[:k] + [letters[k + 1], letters[k]] + letters[k + 2:]
                assert permutation_of(BraidWord(b.strands, tuple(swapped))) == \
                    permutation_of(b)

    @given(st.integers(2, 5), st.lists(st.integers(0, 10), max_size=4))
    def test_braid_relation_yang_baxter(self, n, positions):
        if n < 3:
            return
        for i in range(1, n - 1):
            left = BraidWord(n, [i, i + 1, i])
            right = BraidWord(n, [i + 1, i, i + 1])
            assert permutation_of(left) == permutation_of(right)

    @given(st.integers(1, 6), st.integers(0, 8))
    def test_torus_cycle_structure(self, m, n):
        b = torus_braid(m, n)
        assert closure_components(b) == gcd(m, n)  # gcd(m, 0) = m strands
        if n > 0:
            assert (closure_components(b) == 1) == (gcd(m, n) == 1)


class TestClosureAndMoves:
    def test_hopf_components(self):
        assert closure_components(torus_braid(2, 2)) == 2

    def test_trefoil_components(self):
        assert closure_components(torus_braid(2, 3)) == 1

    def test_unlink(self):
        assert closure_components(BraidWord(3, ())) == 3

    def test_rotate_examples(self):
        b = BraidWord(3, [1, 2, 1])
        assert cyclic_rotate(b, 1).letters == (2, 1, 1)
        assert cyclic_rotate(b, 0) == b
        assert cyclic_rotate(b, 3) == b

    def test_stabilize_examples(self):
        b = positive_stabilize(BraidWord(1, ()))
        assert b.strands == 2 and b.letters == (1,)
        b2 = positive_stabilize(torus_braid(2, 3))
        assert b2.strands == 3 and b2.letters == (1, 1, 1, 2)

    @given(braid_words(), st.integers(0, 16))
    def test_rotation_preserves_components(self, b, k):
        assert closure_components(cyclic_rotate(b, k)) == closure_components(b)

    @given(braid_words())
    def test_stabilize_preserves_components(self, b):
        assert closure_components(positive_stabilize(b)) == closure_components(b)
