"""Braid words, their permutations, and torus/twist constructors.

Words are sequences of (generator index, sign) pairs on a fixed number of
strands; permutations use one-line notation with values 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_STRANDS = 12  # Hecke fold keys of permutations fit int64; its memory budget bounds a fold

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= self.strands <= MAX_STRANDS:
            raise ValueError(f"strand count must be in 1..{MAX_STRANDS}")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(f"generator index {idx} out of range")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")

    @staticmethod
    def make(strands: int, letters: Iterable[int | tuple[int, int]]) -> "BraidWord":
        """Letters given as signed indices (3 means sigma_3, -3 its inverse)
        or as explicit (index, sign) pairs."""
        out = []
        for let in letters:
            if isinstance(let, tuple):
                out.append(let)
            elif let == 0:
                raise ValueError("generator index 0 is not a braid letter")
            else:
                out.append((abs(let), 1 if let > 0 else -1))
        return BraidWord(strands, tuple(out))

    def __len__(self) -> int:
        return len(self.letters)

    def is_positive(self) -> bool:
        return all(sign == 1 for _, sign in self.letters)

    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.letters)

    def concat(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise ValueError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def word_str(self) -> str:
        return ",".join(str(idx * sign) for idx, sign in self.letters)


def parse_word(strands: int, text: str) -> BraidWord:
    """CLI word syntax: comma-separated signed indices, e.g. '1,1,1'."""
    letters = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(
                f"braid letter {tok!r} is not a signed integer such as 2 or -2"
            ) from None
    return BraidWord.make(strands, letters)


def torus_braid(m: int, n: int) -> BraidWord:
    """(sigma_1 ... sigma_{m-1})^n on m strands."""
    if m < 1 or n < 0:
        raise ValueError("torus braid needs m >= 1, n >= 0")
    block = [(i, 1) for i in range(1, m)]
    return BraidWord(m, tuple(block * n))


def half_twist(n: int) -> BraidWord:
    """Standard reduced word (s1)(s2 s1)(s3 s2 s1)... with n(n-1)/2 letters."""
    if n < 1:
        raise ValueError("half twist needs n >= 1")
    letters = []
    for j in range(1, n):
        letters.extend((i, 1) for i in range(j, 0, -1))
    return BraidWord(n, tuple(letters))


def full_twist(n: int) -> BraidWord:
    if n < 1:
        raise ValueError("full twist needs n >= 1")
    return torus_braid(n, n)


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
    for idx, _ in b.letters:
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
    return BraidWord(b.strands + 1, b.letters + ((b.strands, 1),))
