"""Point counting for braid varieties.

Two independent methods:

* a transfer computation in the Iwahori-Hecke algebra of S_n, folding one
  braid letter at a time (fast, output is a polynomial in q);
* brute-force enumeration of the defining matrix equations over a small
  prime field (slow, output is an integer, ground truth).

The variety X(beta; w) consists of tuples (z_1, ..., z_r) such that
B_beta(z) * P_w is upper triangular, where B_beta is the product of the
elementary crossing matrices and P_w the permutation matrix of the target.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .braid import (
    BraidWord,
    Permutation,
    apply_gen,
    identity_permutation,
    inverse_permutation,
    permutation_length,
)


class QPoly:
    """Polynomial in q with integer coefficients and exponents >= 0."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c == 0:
                    continue
                if e < 0:
                    raise ValueError("negative q-exponent in a point-count polynomial")
                clean[e] = c
        self._coeffs = clean

    @staticmethod
    def const(c: int) -> "QPoly":
        return QPoly({0: c})

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        return max(self._coeffs) if self._coeffs else -1

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        res = QPoly.__new__(QPoly)
        res._coeffs = out
        return res

    def __mul__(self, other: "QPoly") -> "QPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        res = QPoly.__new__(QPoly)
        res._coeffs = out
        return res

    def shift(self, k: int) -> "QPoly":
        """Multiply by q**k (k may be negative only if exactly divisible)."""
        if k >= 0:
            return QPoly({e + k: v for e, v in self._coeffs.items()})
        if any(e + k < 0 for e in self._coeffs):
            raise ValueError(f"not divisible by q^{-k}")
        return QPoly({e + k: v for e, v in self._coeffs.items()})

    def divisible_by_power_of_q(self, k: int) -> bool:
        return all(e >= k for e in self._coeffs)

    def evaluate(self, x: int) -> int:
        return sum(c * x**e for e, c in self._coeffs.items())

    def divide_by_q_minus_1(self) -> Optional["QPoly"]:
        """Exact quotient by (q - 1), or None."""
        if self.is_zero():
            return QPoly()
        if self.evaluate(1) != 0:
            return None
        deg = self.degree()
        out: dict[int, int] = {}
        carry = 0  # quotient coefficient at current degree
        for e in range(deg, 0, -1):
            carry = self._coeffs.get(e, 0) + carry
            if carry:
                out[e - 1] = carry
        return QPoly(out)

    def divisible_by_q_minus_1_power(self, k: int) -> bool:
        f: Optional[QPoly] = self
        for _ in range(k):
            f = f.divide_by_q_minus_1()
            if f is None:
                return False
        return True

    def render(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def to_json(self) -> str:
        dense = {str(e): str(self._coeffs.get(e, 0)) for e in range(self.degree() + 1)}
        return json.dumps({"q_poly": dense})

    @staticmethod
    def from_json(text: str) -> "QPoly":
        data = json.loads(text)["q_poly"]
        return QPoly({int(e): int(c) for e, c in data.items()})

    def __repr__(self) -> str:
        return f"QPoly({self.render()!r})"


@dataclass(frozen=True)
class HeckeElement:
    """Sparse map Permutation -> QPoly; all keys share one strand count."""

    strands: int
    support: tuple[tuple[Permutation, QPoly], ...]

    @staticmethod
    def build(strands: int, support: dict[Permutation, QPoly]) -> "HeckeElement":
        clean = {w: c for w, c in support.items() if not c.is_zero()}
        for w in clean:
            if len(w) != strands:
                raise ValueError("permutation size does not match strand count")
        return HeckeElement(strands, tuple(sorted(clean.items())))

    def as_dict(self) -> dict[Permutation, QPoly]:
        return dict(self.support)

    def coefficient(self, w: Permutation) -> QPoly:
        return self.as_dict().get(w, QPoly())


_Q = QPoly({1: 1})
_Q_MINUS_1 = QPoly({1: 1, 0: -1})


def _mul_gen(support: dict[Permutation, QPoly], i: int) -> dict[Permutation, QPoly]:
    """Right multiplication by the generator at index i under the geometric
    transfer rule: each crossing sums over the q points of an affine line of
    flags, so the coefficients are q^len(w) times the T-basis ones."""
    out: dict[Permutation, QPoly] = {}

    def bump(w, c):
        prev = out.get(w)
        out[w] = c if prev is None else prev + c

    for w, c in support.items():
        ws = apply_gen(w, i)
        if w[i - 1] < w[i]:  # length goes up
            bump(ws, c * _Q)
        else:
            bump(w, c * _Q_MINUS_1)
            bump(ws, c)
    return {w: c for w, c in out.items() if not c.is_zero()}


def braid_transfer_product(b: BraidWord) -> HeckeElement:
    """Geometric transfer fold: the coefficient at w counts the z-tuples with
    B_beta(z) in the Bruhat cell of w, and equals q^len(w) times the T-basis
    coefficient."""
    if not b.is_positive():
        raise ValueError("point counting requires a positive braid word")
    support = {identity_permutation(b.strands): QPoly.const(1)}
    for idx, _ in b.letters:
        support = _mul_gen(support, idx)
    return HeckeElement.build(b.strands, support)


def braid_hecke_product(b: BraidWord) -> HeckeElement:
    """T-basis product T_e T_{i_1} ... T_{i_r}: the transfer fold with the
    coefficient at w divided exactly by q^len(w)."""
    mass = braid_transfer_product(b)
    support = tuple((w, c.shift(-permutation_length(w))) for w, c in mass.support)
    return HeckeElement(b.strands, support)


def point_count(b: BraidWord, target: Permutation) -> QPoly:
    """#X(b; target) over F_q as a polynomial in q.

    Extracts the transfer-product coefficient at target^{-1} and divides it
    exactly by q^len(target): the cell count spreads evenly over the
    q^len(target) cosets refining the cell, and the variety picks the coset
    of the permutation matrix itself.
    """
    if len(target) != b.strands:
        raise ValueError("target permutation size does not match strand count")
    mass = braid_transfer_product(b)
    coeff = mass.coefficient(inverse_permutation(target))
    ell = permutation_length(target)
    if not coeff.divisible_by_power_of_q(ell):
        raise ArithmeticError(
            f"divisibility violated: transfer coefficient {coeff.render()} "
            f"is not divisible by q^{ell}"
        )
    return coeff.shift(-ell)


# -- braid matrices over Z ----------------------------------------------------

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
    if not b.is_positive():
        raise ValueError("braid matrices are defined for positive words")
    if len(z) != len(b.letters):
        raise ValueError(f"need {len(b.letters)} values of z, got {len(z)}")
    n = b.strands
    m = _identity_matrix(n)
    for (idx, _), zk in zip(b.letters, z):
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
    lhs_word = BraidWord.make(n, [i, i + 1, i])
    rhs_word = BraidWord.make(n, [i + 1, i, i + 1])
    return all(
        braid_matrix(lhs_word, (z1, z2, z3))
        == braid_matrix(rhs_word, (z3, z2 - z1 * z3, z1))
        for z1, z2, z3 in itertools.product(range(3), repeat=3)
    )


# -- brute force over a prime field ------------------------------------------

BRUTE_BUDGET = 10**9
_CHUNK_BITS = 16


def worker_count(threads: int) -> int:
    """Brute-force worker threads for a requested count: at least one, and
    no more than the CPUs, since a pool may start one thread per prefix."""
    return max(1, min(threads, os.cpu_count() or 1))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _count_chunk(
    prefix: np.ndarray,
    suffix_indices: Sequence[int],
    z_patterns: list[np.ndarray],
    p: int,
    targets_cols: list[np.ndarray],
    tril: tuple[np.ndarray, np.ndarray],
) -> list[int]:
    size = len(z_patterns[0]) if z_patterns else 1
    arr = np.broadcast_to(prefix, (size,) + prefix.shape).copy()
    for idx, zs in zip(suffix_indices, z_patterns):
        i = idx - 1
        old_i = arr[:, :, i].copy()
        arr[:, :, i] = arr[:, :, i + 1]
        arr[:, :, i + 1] = (old_i + zs[:, None] * arr[:, :, i + 1]) % p
    rows, cols = tril
    counts = []
    for col_order in targets_cols:
        below = arr[:, :, col_order][:, rows, cols]
        counts.append(int((below % p == 0).all(axis=1).sum()))
    return counts


def _enumerate_counts(
    b: BraidWord, targets: Sequence[Permutation], p: int, threads: int = 1
) -> list[int]:
    n = b.strands
    r = len(b.letters)
    indices = [idx for idx, _ in b.letters]
    # Split the word into a sequentially-enumerated prefix and a vectorized
    # suffix small enough to hold in memory.
    suffix_len = r
    while p**suffix_len > (1 << _CHUNK_BITS) and suffix_len > 0:
        suffix_len -= 1
    prefix_len = r - suffix_len
    size = p**suffix_len
    z_patterns = [
        (np.arange(size, dtype=np.int64) // p ** (suffix_len - 1 - j)) % p
        for j in range(suffix_len)
    ]
    targets_cols = [np.array([w - 1 for w in t], dtype=np.intp) for t in targets]
    tril = np.tril_indices(n, -1)

    def prefix_products():
        base = np.eye(n, dtype=np.int64)
        if prefix_len == 0:
            yield base
            return
        for code in range(p**prefix_len):
            m = base.copy()
            rem = code
            digits = []
            for _ in range(prefix_len):
                digits.append(rem % p)
                rem //= p
            digits.reverse()
            for idx, z in zip(indices[:prefix_len], digits):
                i = idx - 1
                old_i = m[:, i].copy()
                m[:, i] = m[:, i + 1]
                m[:, i + 1] = (old_i + z * m[:, i + 1]) % p
            yield m

    work = lambda m: _count_chunk(
        m, indices[prefix_len:], z_patterns, p, targets_cols, tril
    )
    workers = worker_count(threads)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(work, prefix_products()))
    else:
        partials = [work(m) for m in prefix_products()]
    return [sum(part[k] for part in partials) for k in range(len(targets))]


def brute_force_count(
    b: BraidWord, target: Permutation, p: int, threads: int = 1
) -> int:
    """Count tuples z in F_p^r with B_b(z) * P_target upper triangular."""
    if not b.is_positive():
        raise ValueError("brute force requires a positive braid word")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if len(target) != b.strands:
        raise ValueError("target permutation size does not match strand count")
    r = len(b.letters)
    if p**r > BRUTE_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: need {p**r} > {BRUTE_BUDGET} tuples"
        )
    return _enumerate_counts(b, [target], p, threads)[0]
