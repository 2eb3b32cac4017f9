"""Poincare series of positive torus links via the binary-pair recursion.

The series p(v, w) is indexed by pairs of 0/1 strings with equally many 1s
and is pinned down by five rewriting rules; p(0^m, 0^n) is the graded rank
of the triply graded homology of the torus link T(m, n).  The all-zero pair
is self-referential under the last rule and is resolved algebraically,
which keeps every denominator a power of (1 - q).

Evaluation is planned, then run without a cache.  The plan is one
depth-first walk over the distinct pairs reachable from the root, each
string held as an integer with a leading 1 bit, and it counts how many
steps read each pair.  A pair whose strings end in different bits is
rewritten by the PASS rule to a single other pair; it is counted against
the budgets but gets no step of its own, and its readers read the pair its
chain reaches.  A pair whose step (rule, argument and the values it reads)
repeats an earlier one is an alias for it too, so each distinct step is
evaluated once.  The steps are evaluated children first, and each value is
dropped as soon as its last reader has read it.  A numerator is a dense
integer array indexed [a, q, t], its a- and q-axes from exponent 0 and its
t-axis from an offset, so the rules become offset changes, slot shifts and
shift-subtracts along q (multiplying by 1 - q).  Each array is built in
the narrowest of int16, int32 and int64 that holds a tracked bound on its
coefficients, each capped at ``INT64_HEADROOM``, and in Python ints past
them; the arithmetic is exact either way.

Every stored value x = N / (1 - q)^d is in lowest terms by construction,
so nothing is cancelled at run time.  Write a nonzero rational function of
q as (1 - q)^-e * g with g(1) != 0, and call it positive when g(1) > 0.
The rules keep four facts:

  (i)   N(1, 1, 1) > 0, that is x at a = t = 1 is positive with e = d;
  (ii)  N's lowest and highest a-slices are positive at t = 1;
  (iii) N's lowest and highest t-slices are positive at a = 1;
  (iv)  N's q^0 coefficient is > 0 at a = t = 1.

The base is (1 + a)^n, or 1, over (1 - q)^n.  MUL by t^ell + a, ell >= 0,
multiplies N by it and each border slice by a, by t^ell or by 1 + a.  DIV
keeps N and raises d.  SUM, t^-ell (head + q * tail), lifts each summand
to the common denominator.  Lifting multiplies each function above by a
power of 1 - q, the factor q multiplies it by q, and t^-ell only shifts
t-slices, so no g(1) changes; and a sum of two positive functions is
positive, since the larger pole wins and equal poles add.  At a = t = 1
one summand is not lifted, which gives (i).  Each border slice of the sum
is one summand's or the sum of both, and its q^0 slice is the head's
alone, which gives (ii) to (iv).  Hence 1 - q never divides N, so DIV and
SUM never divide; the a- and q-axes start at exponent 0; and no border
slice but the top q-slice can cancel.  When both summands reach it, SUM
drops the zero q-slices at the top, which leaves N as it is.

Setting a = 0 is a ring map that commutes with the five rules, since a
enters only through the base (1 + a)^n and the factor t^ell + a.  The a = 0
queries therefore evaluate in the quotient by a: the base is its a^0 slice
and t^ell + a acts as t^ell, an offset change.  The facts above hold there
as they stand, with one a-slice and MUL a multiplication by t^ell.
"""

from __future__ import annotations

import sys
from math import gcd

import numpy as np

from .algebra import LaurentPoly, RatFunc

# Admission budget of one evaluation, about 1 GB of memory in all.  The plan
# stops past MAX_STATES distinct pairs: peak RSS per state measured 1.1 kB on
# T(14,15) (49,137 states) and 0.8 kB on T(16,17) (196,591 states, admitted),
# about half of them PASS pairs and most of the rest repeated steps, none of
# which holds a numerator.  It also stops once its pairs hold MAX_PLAN_CHARS
# characters, since few states may still have long strings (T(1, n) has
# about n^2 / 2); T(16,17) holds 6.0 million.  Links have neither and need
# more per state (7.9 kB on T(14,14), 11 kB on T(15,15)), so evaluation also
# stops before the numerators it holds would pass MAX_LIVE_BYTES.  T(16,17)
# peaks at 83 MiB of them and T(15,15) at 589 MiB; T(16,16) (131,071 states)
# passes the budget.  The Hecke fold reads the same MAX_LIVE_BYTES when it
# runs.
MAX_STATES = 250_000
MAX_PLAN_CHARS = 8_000_000
MAX_LIVE_BYTES = 768 << 20

# Coefficient bound past which numerators and Hecke fold rows hold Python
# ints rather than int64.
INT64_HEADROOM = 2**62

# Signed integer types, narrowest first, each with the least positive value
# it cannot hold.  The numerators here and the Hecke fold rows climb them
# from int16 (_rung); brute force reads them from int8.
_INT_TYPES = tuple(
    (np.dtype(t), 1 << (8 * np.dtype(t).itemsize - 1))
    for t in (np.int8, np.int16, np.int32, np.int64)
)


def _rung(bound: int) -> np.dtype:
    """The narrowest type that holds every |coefficient| up to bound: the
    types of _INT_TYPES from int16 up, each with its limit capped at
    INT64_HEADROOM, then Python ints."""
    if bound < INT64_HEADROOM:
        for dtype, limit in _INT_TYPES[1:]:
            if bound < limit:
                return dtype
    return np.dtype(object)


def _widen(arr, bound: int, factor: int) -> tuple[np.dtype, int]:
    """The type that arithmetic growing arr's coefficients, bounded by
    ``bound``, by ``factor`` needs, and the bound to keep.  That is arr's own
    type while it holds bound * factor.  Otherwise the bound is first
    tightened to the true maximum, and the type is the narrowest rung that
    holds the product and is no narrower than arr's."""
    dtype = np.promote_types(_rung(bound * factor), arr.dtype)
    if dtype != arr.dtype:
        bound = int(np.abs(arr).max())
        dtype = np.promote_types(_rung(bound * factor), arr.dtype)
    return dtype, bound


def _entry_bytes(dtype: np.dtype, bits: int) -> int:
    """Memory of an array entry of dtype below 2^bits: the itemsize of a
    fixed-width type, and for Python ints an upper bound on the pointer and
    the int object."""
    if dtype != object:
        return dtype.itemsize
    info = sys.int_info
    return 8 + sys.getsizeof(1) + info.sizeof_digit * (bits // info.bits_per_digit)


class _Num:
    """numerator / (1 - q)**d with numerator sum arr[i, j, k] a^i q^j t^(k+ot).

    ``bound`` bounds every |coefficient|.  A value the rules build is in
    lowest terms (module docstring): the array has no zero border slice and,
    when d > 0, is not divisible by 1 - q.
    """

    __slots__ = ("arr", "ot", "d", "bound")

    def __init__(self, arr, ot, d, bound):
        self.arr = arr
        self.ot = ot
        self.d = d
        self.bound = bound


def _room(x: _Num, factor: int):
    """x.arr, ready for arithmetic that grows its coefficients by ``factor``:
    a copy in a wider type when its own is not enough.  The stored value is
    never converted, so its accounted size stays right."""
    dtype, x.bound = _widen(x.arr, x.bound, factor)
    return x.arr if dtype == x.arr.dtype else x.arr.astype(dtype)


def _base(n: int, a0: bool = False) -> _Num:
    """(1 + a)^n / (1 - q)^n, or its a^0 slice 1 / (1 - q)^n."""
    if a0:
        return _Num(np.ones((1, 1, 1), dtype=_rung(1)), 0, n, 1)
    coeffs = [1]
    for k in range(n):  # math.comb per entry would cost a factor of n more
        coeffs.append(coeffs[-1] * (n - k) // (k + 1))
    bound = coeffs[n // 2]
    arr = np.array(coeffs, dtype=_rung(bound)).reshape(n + 1, 1, 1)
    return _Num(arr, 0, n, bound)


def _times_t_plus_a(x: _Num, ell: int, a0: bool = False) -> _Num:
    """(t^ell + a) * x for ell >= 0.  In the quotient by a it is t^ell * x,
    which shares x's array."""
    if a0:
        return _Num(x.arr, x.ot + ell, x.d, x.bound)
    arr = x.arr if _rung(2 * x.bound) <= x.arr.dtype else _room(x, 2)
    na, nq, nt = arr.shape
    out = np.zeros((na + 1, nq, nt + ell), dtype=arr.dtype)
    out[:na, :, ell:] = arr
    view = out[1:, :, :nt]
    view += arr  # in place, as in _sum_with_q
    return _Num(out, x.ot, x.d, 2 * x.bound)


def _lift(arr, k: int):
    """arr * (1 - q)^k, as k shift-subtracts along q."""
    for _ in range(k):
        na, nq, nt = arr.shape
        out = np.zeros((na, nq + 1, nt), dtype=arr.dtype)
        out[:, :nq] = arr
        out[:, 1:] -= arr
        arr = out
    return arr


def _sum_with_q(head: _Num, tail: _Num, ell: int) -> _Num:
    """t^-ell * (head + q * tail), over the common denominator."""
    d = max(head.d, tail.d)
    kh, kt = d - head.d, d - tail.d
    harr, tarr = head.arr, tail.arr
    dtype = np.result_type(harr, tarr)
    # Unless the denominators differ or the sum may outgrow dtype, neither
    # summand is lifted or widened.
    if kh or kt or not _rung(head.bound + tail.bound) <= dtype:
        harr, tarr = _lift(_room(head, 2 << kh), kh), _lift(_room(tail, 2 << kt), kt)
        dtype = np.result_type(harr, tarr)
    (hna, hnq, hnt), (tna, tnq, tnt) = harr.shape, tarr.shape
    ht, tt = head.ot, tail.ot
    ot = min(ht, tt)
    out = np.zeros((max(hna, tna), max(hnq, tnq + 1), max(ht + hnt, tt + tnt) - ot), dtype=dtype)
    out[:hna, :hnq, ht - ot:ht - ot + hnt] = harr
    view = out[:tna, 1:tnq + 1, tt - ot:tt - ot + tnt]
    view += tarr  # in place: out[...] += tarr would also copy the view back
    # The top q-slice is the only border slice that can cancel (module
    # docstring), and only when both summands reach it.
    if hnq == tnq + 1 and not np.count_nonzero(out[:, -1]):
        out = out[:, :np.flatnonzero(np.count_nonzero(out, axis=(0, 2)))[-1] + 1]
    return _Num(out, ot - ell, d, (head.bound << kh) + (tail.bound << kt))


# Plan steps: (rule, argument, ids of the values it reads).
_BASE, _MUL, _DIV, _SUM = range(4)


def _refusal(length: int, need: str) -> ValueError:
    return ValueError(f"pair of total length {length} needs more than {need}")


def _chars_refusal(length: int) -> ValueError:
    return _refusal(
        length, f"{MAX_PLAN_CHARS} characters of recursion states (the admission budget)"
    )


def _plan(v: str, w: str):
    """Steps in evaluation order (children first), consumer counts, and the
    id of the root's value.

    One depth-first walk over the pairs reachable from (v, w), (1v', 1w')
    child first; the other order held 1.9x as many live bytes at the peak of
    T(14,15).  A string s is held as the integer int("1" + s, 2), so s[:-1]
    is x >> 1 and s has x.bit_count() - 1 ones.  A PASS pair, whose strings
    end in different bits, gets no step: it is an alias for the first other
    pair its chain reaches.  Nor does a pair whose step (rule, argument, child
    ids) equals an earlier one, since a value depends on nothing else: it is
    an alias for that step.  Knots repeat many steps (T(11,12) plans 1,478 of
    its 3,062 other pairs, T(16,17) 29,996 of 98,289), links none.  Raises
    ValueError as soon as more than MAX_STATES distinct pairs, PASS pairs and
    repeated steps included, or pairs of more than MAX_PLAN_CHARS characters,
    are reachable, before any series is evaluated.
    """
    length = len(v) + len(w)
    root = (int("1" + v, 2), int("1" + w, 2))
    ids = {}  # pair -> id of its value; None while its walk is open
    steps, consumers = [], []
    step_ids = {}  # step -> its id
    chars = 0
    stack = [root]
    while stack:
        item = stack.pop()
        if len(item) == 5:  # every child of the pair has its id
            pair, rule, arg, kids, chain = item
            step = (rule, arg, tuple([ids[kid] for kid in kids]))
            i = step_ids.get(step)
            if i is None:
                i = step_ids[step] = len(steps)
                for j in step[2]:
                    consumers[j] += 1
                steps.append(step)
                consumers.append(0)
            ids[pair] = i
            for alias in chain:
                ids[alias] = i
            continue
        chain = []  # the PASS pairs walked to reach item
        while item not in ids:
            x, y = item
            lx, ly = x.bit_length() - 1, y.bit_length() - 1
            chars += lx + ly
            if ids:  # each pair past the root is checked as it is reached
                if len(ids) >= MAX_STATES:
                    need = f"{MAX_STATES} recursion states (the admission budget)"
                    raise _refusal(length, need)
                if chars > MAX_PLAN_CHARS:
                    raise _chars_refusal(length)
            ids[item] = None
            if not lx or not ly:
                rule, arg, kids = _BASE, lx + ly, ()
            elif (x ^ y) & 1:  # PASS: (v'0, w'1) -> (v', 1w'), (v'1, w'0) -> (1v', w')
                chain.append(item)
                item = ((x >> 1) | 1 << lx, y >> 1) if x & 1 else (x >> 1, (y >> 1) | 1 << ly)
                continue
            elif x & 1:
                rule, arg, kids = _MUL, x.bit_count() - 2, ((x >> 1, y >> 1),)
            elif x.bit_count() == 1:
                # Self-referential case: p = p(1v', 1w') + q p  =>  p = p(1v', 1w')/(1-q).
                rule, arg, kids = _DIV, 0, (((x >> 1) | 1 << lx, (y >> 1) | 1 << ly),)
            else:
                ones = ((x >> 1) | 1 << lx, (y >> 1) | 1 << ly)
                zeros = ((x >> 1) + (1 << lx - 1), (y >> 1) + (1 << ly - 1))
                rule, arg, kids = _SUM, x.bit_count() - 1, (ones, zeros)
            stack.append((item, rule, arg, kids, chain))
            stack.extend(reversed(kids))
            break
        else:  # the chain reached a pair with an id
            for alias in chain:
                ids[alias] = ids[item]
    return steps, consumers, ids[root]


def _nbytes(x) -> int:
    """Memory held by the array ``arr`` of x, whose |entries| are at most
    ``x.bound``: a numerator or a Hecke fold.  An upper bound for Python ints."""
    return x.arr.size * _entry_bytes(x.arr.dtype, x.bound.bit_length())


def _base_bytes(n: int) -> int:
    """Upper bound on _nbytes(_base(n)), known before it is built: the
    entries are below 2^n, and 2^64 is past every fixed-width rung."""
    return (n + 1) * _entry_bytes(_rung(1 << min(n, 64)), n)


def _evaluate(v: str, w: str, a0: bool = False) -> _Num:
    """The series of (v, w), or with ``a0`` its a = 0 part."""
    steps, consumers, root = _plan(v, w)
    values: list[_Num | None] = [None] * len(steps)
    held = [0] * len(steps)
    live = 0  # bytes held by stored values; a shared value may count twice
    memory = f"{MAX_LIVE_BYTES >> 20} MiB of live numerators (the memory budget)"
    for i, (rule, arg, kids) in enumerate(steps):
        if rule == _SUM:
            res = _sum_with_q(values[kids[0]], values[kids[1]], arg)
        elif rule == _MUL:
            res = _times_t_plus_a(values[kids[0]], arg, a0)
        elif rule == _DIV:
            x = values[kids[0]]
            res = _Num(x.arr, x.ot, x.d + 1, x.bound)
        else:
            if not a0 and live + _base_bytes(arg) > MAX_LIVE_BYTES:
                raise _refusal(len(v) + len(w), memory)
            res = _base(arg, a0)
        values[i] = res
        held[i] = _nbytes(res)
        live += held[i]
        if live > MAX_LIVE_BYTES:
            raise _refusal(len(v) + len(w), memory)
        for j in kids:
            consumers[j] -= 1
            if not consumers[j]:
                values[j] = None
                live -= held[j]
    return values[root]


def _to_ratfunc(x: _Num) -> RatFunc:
    # np.nonzero drops the zero terms that LaurentPoly would otherwise filter
    # out.
    ia, iq, it = np.nonzero(x.arr)
    coeffs = x.arr[ia, iq, it].tolist()  # Python ints, whatever the dtype
    exps = zip(ia.tolist(), iq.tolist(), (it + x.ot).tolist())
    return RatFunc(LaurentPoly._of_clean(dict(zip(exps, coeffs))), x.d)


def _validate(v: str, w: str) -> None:
    if set(v) - {"0", "1"} or set(w) - {"0", "1"}:
        raise ValueError("binary sequences must consist of 0s and 1s")
    if v.count("1") != w.count("1"):
        raise ValueError(f"unbalanced pair: {v!r} has {v.count('1')} ones, "
                         f"{w!r} has {w.count('1')}")


def pair_series(v: str, w: str) -> RatFunc:
    """The rational function attached to a balanced pair of binary strings."""
    _validate(v, w)
    return _to_ratfunc(_evaluate(v, w))


def _torus_pair(m: int, n: int) -> tuple[str, str]:
    if m < 0 or n < 0:
        raise ValueError("torus link indices must be >= 0")
    # The root pair is refused before its strings are built.
    if m + n > MAX_PLAN_CHARS:
        raise _chars_refusal(m + n)
    return "0" * m, "0" * n


def hhh_torus(m: int, n: int) -> RatFunc:
    """Graded rank of the triply graded homology of T(m, n)."""
    return pair_series(*_torus_pair(m, n))


def hhh_a0(m: int, n: int) -> RatFunc:
    """The a=0 (Hochschild degree zero) specialization, evaluated in the
    quotient by a."""
    return _to_ratfunc(_evaluate(*_torus_pair(m, n), a0=True))


def euler_a0(m: int, n: int) -> RatFunc:
    """Euler-characteristic specialization: a -> 0 then t -> 1/q."""
    return hhh_a0(m, n).regrade_t(-1, 0)


def _check_knot(m: int, n: int) -> None:
    """Refuse T(m, n) unless it is a knot, gcd(m, n) = 1, before it is evaluated."""
    if gcd(m, n) != 1:
        raise ValueError(f"T({m},{n}) is not a knot: gcd={gcd(m, n)}")


def _knot_numerator(x: _Num, m: int, n: int) -> _Num:
    """(1-q) * x for the series x of the knot T(m, n), whose denominator is
    1 - q."""
    if x.d != 1:
        raise ArithmeticError(f"the T({m},{n}) series has denominator (1-q)^{x.d}, not 1-q")
    return _Num(x.arr, x.ot, 0, x.bound)


def reduced_numerator(m: int, n: int) -> LaurentPoly:
    """The finite-dimensional (reduced) part of the knot homology: clear the
    (1-q) series factor and the unknot factor (1+a)."""
    _check_knot(m, n)
    x = _knot_numerator(_evaluate(*_torus_pair(m, n)), m, n)
    # The quotient's a^k slice is the alternating sum of the slices up to k,
    # and the remainder is that sum over every slice.
    na = x.arr.shape[0]
    sums = _room(x, na).copy()
    sums[1::2] *= -1
    sums = np.cumsum(sums, axis=0, dtype=sums.dtype)
    sums[1::2] *= -1
    if sums[-1].any():
        raise ArithmeticError(f"(1+a) does not divide the T({m},{n}) numerator")
    return _to_ratfunc(_Num(sums[:-1], x.ot, 0, x.bound * na)).num


def term_census_a(m: int, n: int) -> list[tuple[int, int]]:
    """Monomial counts of the reduced knot numerator per a-degree."""
    return list(reduced_numerator(m, n).a_degrees().items())


def reduced_knot_poly(m: int, n: int) -> LaurentPoly:
    """(1-q) * hhh_a0(m, n), renormalized so the minimal t-degree is zero."""
    _check_knot(m, n)
    x = _knot_numerator(_evaluate(*_torus_pair(m, n), a0=True), m, n)
    # x's lowest t-slice is nonzero, so x.ot is its least t-exponent.
    return _to_ratfunc(_Num(x.arr, 0, 0, x.bound)).num
