"""Positive braid words, their permutations, and torus/twist constructors.

A word is a tuple of generator indices i, each standing for sigma_i, on a
fixed number of strands; only positive words are built.  Permutations use
one-line notation with values 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass

# Not measured.  A Hecke fold keys a permutation of n by its base-n digits,
# so every key is below n^n, and int64 keys would admit up to 15 strands:
# 15^15 is about 4.4e17 < 2^63, 16^16 about 1.8e19.  The memory budget
# bounds a fold; setting this limit from measured capacity is ROADMAP item 10.
MAX_STRANDS = 12

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]  # any iterable of indices is stored as a tuple

    def __post_init__(self):
        if not 1 <= self.strands <= MAX_STRANDS:
            raise ValueError(f"strand count must be in 1..{MAX_STRANDS}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for idx in letters:
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(
                    f"braid letter {idx} is out of range 1..{self.strands - 1}: braid words "
                    "are positive, each letter a generator index i for sigma_i"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def concat(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def word_str(self) -> str:
        return ",".join(map(str, self.letters))


def parse_word(strands: int, text: str) -> BraidWord:
    """CLI word syntax: comma-separated positive generator indices, e.g. '1,2,1'."""
    letters = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(
                f"braid letter {tok!r} is not an integer generator index such as 2"
            ) from None
    return BraidWord(strands, letters)


def torus_braid(m: int, n: int) -> BraidWord:
    """(sigma_1 ... sigma_{m-1})^n on m strands."""
    if m < 1 or n < 0:
        raise ValueError("torus braid needs m >= 1, n >= 0")
    return BraidWord(m, tuple(range(1, m)) * n)


def half_twist(n: int) -> BraidWord:
    """Standard reduced word (s1)(s2 s1)(s3 s2 s1)... with n(n-1)/2 letters."""
    if n < 1:
        raise ValueError("half twist needs n >= 1")
    return BraidWord(n, (i for j in range(1, n) for i in range(j, 0, -1)))


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def longest_permutation(n: int) -> Permutation:
    return tuple(range(n, 0, -1))


def apply_gen(p: Permutation, i: int) -> Permutation:
    """Right multiplication by the transposition s_i (1-indexed)."""
    out = list(p)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def permutation_of(b: BraidWord) -> Permutation:
    p = identity_permutation(b.strands)
    for idx in b.letters:
        p = apply_gen(p, idx)
    return p


def inverse_permutation(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def permutation_length(p: Permutation) -> int:
    """Inversion count = reduced-word length."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def cycle_count(p: Permutation) -> int:
    seen = [False] * len(p)
    cycles = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
    return cycles


def closure_components(b: BraidWord) -> int:
    return cycle_count(permutation_of(b))


def cyclic_rotate(b: BraidWord, k: int) -> BraidWord:
    if not b.letters:
        return b
    k %= len(b.letters)
    return BraidWord(b.strands, b.letters[k:] + b.letters[:k])


def positive_stabilize(b: BraidWord) -> BraidWord:
    return BraidWord(b.strands + 1, b.letters + (b.strands,))
