"""Exact Laurent polynomial arithmetic in a, q, t, and the rational functions
N / (1 - q)^d built from it.

Everything here is integer-exact: coefficients are Python ints, denominators
are restricted to powers of (1 - q).  Values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lgamma, log
from typing import Mapping, Optional

Exponent = tuple[int, int, int]  # (e_a, e_q, e_t); e_a >= 0 always

# Admission budget for series_truncate, in 64-bit words of the coefficient
# products it makes plus _ENTRY_WORDS (about 290 bytes) per table entry.  On
# 2 cores a word cost 17-212 ns and at most 10 bytes of peak RSS, from 19-bit
# to 14,000-bit coefficients, so this bounds one call near 1.7 s and 80 MB.
MAX_SERIES_WORDS = 8_000_000
_ENTRY_WORDS = 36


class LaurentPoly:
    """Laurent polynomial in q, t and ordinary polynomial in a, over Z.

    Terms are kept as a map (e_a, e_q, e_t) -> nonzero int; the zero
    polynomial has an empty map.  Equality and hashing are structural.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Exponent, int] | None = None):
        clean: dict[Exponent, int] = {}
        if terms:
            for exp, c in terms.items():
                if c == 0:
                    continue
                ea, eq, et = exp
                if ea < 0:
                    raise ValueError(f"negative a-exponent in term {exp}")
                clean[(ea, eq, et)] = c
        self._terms = clean
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _of_clean(terms: dict[Exponent, int]) -> "LaurentPoly":
        """The polynomial whose map is ``terms`` itself, not a copy: every
        coefficient is nonzero and every a-exponent is >= 0."""
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = terms
        res._hash = None
        return res

    @staticmethod
    def monomial(coeff: int, ea: int = 0, eq: int = 0, et: int = 0) -> "LaurentPoly":
        return LaurentPoly({(ea, eq, et): coeff})

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.monomial(1)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, int]:
        return dict(self._terms)

    @property
    def coeffs(self) -> dict[int, int]:
        """{e_q: coefficient} of a polynomial in q alone, such as a point count."""
        if any(ea or et for ea, _, et in self._terms):
            raise ValueError(f"{render_poly(self)} is not a polynomial in q alone")
        return {eq: c for (_, eq, _), c in self._terms.items()}

    def items(self):
        """Terms in canonical order: lexicographic on (e_a, e_q, e_t)."""
        return sorted(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def min_t_degree(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no t-degree")
        return min(e[2] for e in self._terms)

    def a_degrees(self) -> dict[int, int]:
        """Number of terms per a-degree."""
        out: dict[int, int] = {}
        for (ea, _, _) in self._terms:
            out[ea] = out.get(ea, 0) + 1
        return dict(sorted(out.items()))

    # -- ring structure ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self.items()))
        return self._hash

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for exp, c in other._terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPoly._of_clean(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Exponent, int] = {}
        for (a1, q1, t1), c1 in self._terms.items():
            for (a2, q2, t2), c2 in other._terms.items():
                exp = (a1 + a2, q1 + q2, t1 + t2)
                s = out.get(exp, 0) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return LaurentPoly._of_clean(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        acc = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def evaluate_qt1(self) -> dict[int, int]:
        """Sum of coefficients per a-degree at q = t = 1."""
        out: dict[int, int] = {}
        for (ea, _, _), c in self._terms.items():
            out[ea] = out.get(ea, 0) + c
        return {k: v for k, v in sorted(out.items()) if v != 0}

    def swap_qt(self) -> "LaurentPoly":
        return LaurentPoly({(ea, et, eq): c for (ea, eq, et), c in self._terms.items()})

    def __repr__(self) -> str:
        return f"LaurentPoly({render_poly(self)!r})"


# Shared atoms.
ONE = LaurentPoly.one()
A = LaurentPoly.monomial(1, ea=1)
Q = LaurentPoly.monomial(1, eq=1)
T = LaurentPoly.monomial(1, et=1)


@dataclass(frozen=True)
class RatFunc:
    """num / (1 - q)**denom_pow, a plain record built in lowest terms: the
    recursion keeps its numerators prime to 1 - q (recursion's module
    docstring), regrade_t refuses an image that is not, and the closed forms
    that the suites and tests write are reduced by hand."""

    num: LaurentPoly
    denom_pow: int = 0

    def __post_init__(self):
        if self.denom_pow < 0:
            raise ValueError("denominator power must be >= 0")

    def regrade_t(self, eq: int, et: int) -> "RatFunc":
        """Replace t by q^eq * t^et; a and q, and so the denominator, stay.

        With denom_pow > 0 the image is in lowest terms unless 1 - q divides
        its numerator N', that is unless N'(a, 1, t) = 0.  For an input N in
        lowest terms that happens only when et = 0 and N(a, 1, 1) = 0: for
        et != 0, N'(a, 1, t) = N(a, 1, t^et) is not 0.  No recursion output
        has N(a, 1, 1) = 0, by fact (i) of recursion's module docstring.
        This raises ArithmeticError exactly when denom_pow > 0 and the
        image's coefficients sum to 0 over q for every (a, t) label.
        """
        out: dict[Exponent, int] = {}
        sums: dict[tuple[int, int], int] = {}  # the image at q = 1
        for (ea, q, t), c in self.num._terms.items():
            exp = (ea, q + t * eq, t * et)
            out[exp] = out.get(exp, 0) + c
            sums[ea, t * et] = sums.get((ea, t * et), 0) + c
        if self.denom_pow and not any(sums.values()):
            raise ArithmeticError(
                f"t -> q^{eq} t^{et} maps {render_ratfunc(self)} to a value "
                "that is not in lowest terms"
            )
        return RatFunc(LaurentPoly(out), self.denom_pow)

    def __repr__(self) -> str:
        return f"RatFunc({render_ratfunc(self)!r})"


@dataclass(frozen=True)
class GradedTable:
    """Finite table (e_q, e_t, e_a) -> positive count, complete up to q-degree
    ``truncation``."""

    entries: tuple[tuple[Exponent, int], ...]
    truncation: int

    @staticmethod
    def build(entries: Mapping[tuple[int, int, int], int], truncation: int) -> "GradedTable":
        clean = {}
        for (eq, et, ea), c in entries.items():
            if c < 0:
                raise ValueError(f"negative count at (q^{eq}, t^{et}, a^{ea})")
            if c == 0:
                continue
            if eq > truncation:
                raise ValueError("entry beyond the truncation bound")
            clean[(eq, et, ea)] = c
        return GradedTable(tuple(sorted(clean.items())), truncation)

    def as_dict(self) -> dict[tuple[int, int, int], int]:
        return dict(self.entries)

    def specialize_t1(self) -> dict[int, int]:
        """Collapse t (per-q Euler-type count; all entries are even-t here)."""
        out: dict[int, int] = {}
        for (eq, _, _), c in self.entries:
            out[eq] = out.get(eq, 0) + c
        return dict(sorted(out.items()))


def series_truncate(r: RatFunc, depth: int) -> GradedTable:
    """Expand r as a q-series and keep q-degrees <= depth.

    1/(1-q)**d expands as sum_k C(k+d-1, d-1) q^k.  Raises if any retained
    coefficient is negative (the series is then not a rank series), and,
    before expanding, if its coefficient products would pass
    MAX_SERIES_WORDS.
    """
    if depth < 0:
        raise ValueError("truncation depth must be >= 0")
    d = r.denom_pow
    terms = [(exp, c) for exp, c in r.num.terms.items() if exp[1] <= depth]
    # A term q^eq meets the binomials of k = 0 .. depth - eq (only k = 0 when
    # d = 0).  Each product costs a word plus its factors' words, sizing
    # every binomial as the largest, C(top + d - 1, top), by lgamma.
    spans = [depth - eq + 1 if d else 1 for (_, eq, _), _ in terms]
    top = max(spans, default=1) - 1
    binomial_bits = (lgamma(top + d) - lgamma(top + 1) - lgamma(d)) / log(2) if d else 0
    entries = len({(ea, et) for (ea, _, et), _ in terms}) * (top + 1) if d else len(terms)
    words = entries * _ENTRY_WORDS + sum(
        span * (1 + int(abs(c).bit_length() + binomial_bits) // 64)
        for (_, c), span in zip(terms, spans)
    )
    if words > MAX_SERIES_WORDS:
        raise ValueError(
            f"truncating at q-degree {depth} needs {words} words, "
            f"past the series budget of {MAX_SERIES_WORDS} words"
        )
    binomials = [1]
    for k in range(1, top + 1):
        binomials.append(binomials[-1] * (k + d - 1) // k)
    acc: dict[tuple[int, int, int], int] = {}
    for ((ea, eq, et), c), span in zip(terms, spans):
        for k in range(span):
            key = (eq + k, et, ea)
            acc[key] = acc.get(key, 0) + c * binomials[k]
    acc = {k: v for k, v in acc.items() if v != 0}
    for (eq, et, ea), c in acc.items():
        if c < 0:
            raise ValueError(
                f"negative series coefficient {c} at q^{eq} t^{et} a^{ea}"
            )
    return GradedTable.build(acc, depth)


def qta_degree_from_QTA(deg_big_q: int, deg_big_t: int, deg_big_a: int) -> Exponent:
    """Convert (Q, T, A)-degrees to (e_q, e_t, e_a) via q=Q^2, t=T^2/Q^2, a=A/Q^2.

    Returned in (e_q, e_t, e_a) order.
    """
    if deg_big_t % 2 != 0 or (deg_big_q + deg_big_t) % 2 != 0:
        raise ValueError(
            f"parity violation: (Q^{deg_big_q}, T^{deg_big_t}) is not in the image"
        )
    return (
        (deg_big_q + deg_big_t) // 2 + deg_big_a,
        deg_big_t // 2,
        deg_big_a,
    )


# -- rendering / JSON --------------------------------------------------------

def _render_monomial(exp: Exponent, coeff: int) -> str:
    ea, eq, et = exp
    parts = []
    if coeff == -1 and (ea or eq or et):
        sign = "-"
        mag = ""
    else:
        sign = "-" if coeff < 0 else ""
        mag = str(abs(coeff)) if (abs(coeff) != 1 or not (ea or eq or et)) else ""
    if mag:
        parts.append(mag)
    for name, e in (("a", ea), ("q", eq), ("t", et)):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return sign + "*".join(parts)


def _render_terms(p: LaurentPoly, reverse: bool) -> str:
    """Terms ordered by (e_q, e_a, e_t), or the reverse."""
    if p.is_zero():
        return "0"
    terms = sorted(p.terms.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2]), reverse=reverse)
    out = _render_monomial(*terms[0])
    for exp, c in terms[1:]:
        s = _render_monomial(exp, abs(c))
        out += (" - " if c < 0 else " + ") + s
    return out


def render_poly(p: LaurentPoly) -> str:
    """Human-readable form, terms ordered by (e_q, e_a, e_t)."""
    return _render_terms(p, reverse=False)


def render_descending(p: LaurentPoly) -> str:
    """render_poly's form from the top q-degree down, as point counts print."""
    return _render_terms(p, reverse=True)


def render_ratfunc(r: RatFunc) -> str:
    num = render_poly(r.num)
    if r.denom_pow == 0:
        return num
    return f"({num}) / (1-q)^{r.denom_pow}"


def ratfunc_to_json(r: RatFunc) -> str:
    num = [
        {"a": ea, "q": eq, "t": et, "c": str(c)}
        for (ea, eq, et), c in r.num.items()
    ]
    return json.dumps({"num": num, "denom_pow": r.denom_pow})


def ratfunc_from_json(text: str) -> RatFunc:
    data = json.loads(text)
    terms = {
        (int(t["a"]), int(t["q"]), int(t["t"])): int(t["c"]) for t in data["num"]
    }
    return RatFunc(LaurentPoly(terms), int(data["denom_pow"]))


def q_poly_to_json(p: LaurentPoly) -> str:
    """{"q_poly": {e: c}} for a polynomial in q alone, dense from q^0 (or its
    lowest degree, if negative) to its degree."""
    coeffs = p.coeffs
    lo, hi = min(0, min(coeffs, default=0)), max(coeffs, default=-1)
    return json.dumps({"q_poly": {str(e): str(coeffs.get(e, 0)) for e in range(lo, hi + 1)}})


def q_poly_from_json(text: str) -> LaurentPoly:
    data = json.loads(text)["q_poly"]
    return LaurentPoly({(0, int(e), 0): int(c) for e, c in data.items()})


def table_to_json(t: GradedTable) -> str:
    return json.dumps(
        {
            "truncation": t.truncation,
            "entries": [
                {"q": eq, "t": et, "a": ea, "c": c} for (eq, et, ea), c in t.entries
            ],
        }
    )


def table_from_json(text: str) -> GradedTable:
    data = json.loads(text)
    entries = {
        (int(e["q"]), int(e["t"]), int(e["a"])): int(e["c"]) for e in data["entries"]
    }
    return GradedTable.build(entries, int(data["truncation"]))
