"""Point counting for braid varieties.

Two independent methods:

* a transfer computation in the Iwahori-Hecke algebra of S_n, folding one
  braid letter at a time into an integer array with a row per permutation
  and a column per power of q (fast, output is a polynomial in q);
* brute-force enumeration of the defining matrix equations over a small
  prime field (slow, output is an integer, ground truth).

The variety X(beta; w) consists of tuples (z_1, ..., z_r) such that
B_beta(z) * P_w is upper triangular, where B_beta is the product of the
elementary crossing matrices and P_w the permutation matrix of the target.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import recursion
from .algebra import LaurentPoly, render_descending
from .braid import BraidWord, Permutation, inverse_permutation, permutation_length


# -- transfer fold -------------------------------------------------------------

class _Fold:
    """Transfer coefficients: row r holds the polynomial at the permutation
    with key keys[r], column e its q^e coefficient, and ``bound`` bounds
    every |coefficient|.  The key of w is sum (w_j - 1) n^(n-1-j): its
    base-n digits are w - 1, and keys order as the permutations do.  Rows
    are sorted by key; one is added when the fold reaches its permutation
    with a nonzero coefficient, and is never dropped.  A new fold is e."""

    __slots__ = ("weight", "keys", "arr", "bound")

    def __init__(self, n: int):
        self.weight = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.keys = np.arange(n)[None] @ self.weight
        self.arr = np.ones((1, 1), dtype=recursion._rung(1))
        self.bound = 1

    def copy(self, width: int, dtype: np.dtype, new=()) -> "_Fold":
        """A fold of the same rows and zero rows at the keys ``new``, sorted
        and held by no row, its array copied into ``width`` columns of
        ``dtype``.  Without new rows the keys array is shared, since no fold
        writes into it."""
        f = object.__new__(_Fold)
        f.weight, f.keys, f.bound = self.weight, self.keys, self.bound
        f.arr = np.zeros((len(self.keys) + len(new), width), dtype=dtype)
        if len(new):
            # One merge: row i moves down by the new keys below its own.
            at = np.searchsorted(self.keys, new) + np.arange(len(new))
            old = np.arange(len(self.keys)) + np.searchsorted(new, self.keys)
            f.keys = np.empty(len(f.arr), dtype=self.keys.dtype)
            f.keys[at], f.keys[old] = new, self.keys
            f.arr[old, : self.arr.shape[1]] = self.arr
        else:
            f.arr[:, : self.arr.shape[1]] = self.arr
        return f

    def partners(self, j: int):
        """For s = s_(j+1) and each row w: whether ws is longer, the key of
        ws, its row and whether that row exists."""
        n, wj, wk = len(self.weight), self.weight[j], self.weight[j + 1]
        lo, hi = self.keys // wj % n, self.keys // wk % n
        keys = self.keys + (hi - lo) * (wj - wk)
        hit = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return lo < hi, keys, hit, self.keys[hit] == keys

    def perms(self) -> list[Permutation]:
        """The permutations of the rows, in row order."""
        n = len(self.weight)
        return list(map(tuple, (self.keys[:, None] // self.weight % n + 1).tolist()))

    def lengths(self, rows=slice(None)) -> np.ndarray:
        """The lengths of the permutations of the rows, by default all."""
        digits = self.keys[rows, None] // self.weight % len(self.weight)
        return np.triu(digits[:, :, None] > digits[:, None, :]).sum(axis=(1, 2))

    def row(self, x: Permutation) -> np.ndarray:
        """The coefficients at the permutation x; none if it has no row."""
        key = (np.array(x) - 1) @ self.weight
        i = np.searchsorted(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return self.arr[i]
        return np.zeros(0, dtype=np.int64)


class _OverBudget(ValueError):
    """A fold refused under the memory budget, named by the size of a word."""

    def __init__(self, letters: int, strands: int):
        budget = recursion.MAX_LIVE_BYTES >> 20
        super().__init__(f"braid word of {letters} letters on {strands} strands needs more "
                         f"than {budget} MiB for its Hecke fold (the memory budget)")


def _fold(b: BraidWord, held: int = 0, start: _Fold | None = None) -> _Fold:
    """Fold the letters of b onto the finished fold ``start``, by default e,
    under the geometric transfer rule: each crossing sums over the q points
    of an affine line of flags, so the coefficients are q^len(w) times the
    T-basis ones.  For a generator s, c'[w] = c[ws] where ws is longer than
    w, and q (c[w] + c[ws]) - c[w] where it is shorter.  The result is a new
    fold, as wide as start plus len(b) columns; start is never written.

    A letter grows the coefficient bound at most 3x.  The array starts as
    int16, or as start's type; before a letter could pass its type, the
    bound is tightened to the true maximum, and only if three times that
    still does not fit is the array widened up the recursion's ladder
    (recursion._rung): int32, int64 and then Python ints.

    A letter runs on one of two paths.  While the fold lacks a permutation,
    each row looks up its partner's row by key (_Fold.partners), and the
    partners that nonzero rows reach for the first time are merged in as
    zero rows, all in one pass (_Fold.copy).  Once the fold holds all n!
    rows, they are S_n in lexicographic order, and the letter runs in place
    on strided block views of the array with no lookup (_lex_letter).

    Raises ValueError before the rows, beside ``held`` bytes held elsewhere,
    would pass the recursion's MAX_LIVE_BYTES: each letter is priced as the
    coefficient array and three half-size temporaries, each row at the final
    width (recursion._entry_bytes), and each row also has its key and about
    eight index entries.  A sparse letter holds two such temporaries, and a
    whole-group letter at most one, at the same price.  The old array, held
    beside the new one while it is copied or widened, is no larger than the
    new one, so that price covers it.  The refusal names the letters of
    start and b together.
    """
    n, r = b.strands, len(b.letters)
    f = start if start is not None else _Fold(n)
    first = f.arr.shape[1]  # degrees are below this before b's first letter
    width = first + r
    for k, idx in enumerate(b.letters):
        j, cols = idx - 1, first + k
        whole, new = _whole(f), ()
        if not whole:
            up, keys, hit, found = f.partners(j)
            if not found.all():
                # Nonzero rows whose partner has no row yet.
                missing = np.flatnonzero(~found)
                new = np.sort(keys[missing[(f.arr[missing, :cols] != 0).any(axis=1)]])
        dtype, bound = recursion._widen(f.arr, f.bound, 3)
        # Past int64, size each entry by the bound after the last letter,
        # which is below 4^(r - k) times the present one.
        entry = recursion._entry_bytes(dtype, bound.bit_length() + 2 * (r - k))
        peak = (len(f.keys) + len(new)) * (5 * width * entry // 2 + 72)
        if held + peak > recursion.MAX_LIVE_BYTES:
            raise _OverBudget(width - 1, n)
        if len(new) or k == 0 or f.arr.dtype != dtype:
            f = f.copy(width, dtype, new)  # zero rows for the new partners
        f.bound = bound
        if whole:
            _lex_letter(f.arr, n, j, cols)
        else:
            if len(new):
                up, keys, hit, found = f.partners(j)
            # The pairs (w, ws) with ws longer: w takes c[ws], and ws becomes
            # q (c[w] + c[ws]) - c[ws], formed in place in its gathered rows.
            # A row whose partner is missing holds zero and keeps it.
            u = np.flatnonzero(up & found)
            d = hit[u]
            cu, cd = f.arr[u, :cols], f.arr[d, : cols + 1]
            f.arr[u, :cols] = cd[:, :cols]
            cu += cd[:, :cols]
            np.subtract(cu, cd[:, 1:], out=cd[:, 1:])
            cd[:, 0] *= -1
            f.arr[d, : cols + 1] = cd
            del cu, cd, up, keys, hit, found, u, d  # before the next letter allocates
        f.bound *= 3
    return f.copy(width, f.arr.dtype) if f is start else f


def _whole(f: _Fold) -> bool:
    """Whether f holds a row for every permutation, so that its rows are
    all of S_n in lexicographic order."""
    return len(f.keys) == math.factorial(len(f.weight))


def _lex_blocks(arr: np.ndarray, n: int, j: int):
    """Views (up, down) of arr, the rows of all of S_n in lexicographic
    order, that pair each w where w s_(j+1) is longer with w s_(j+1).

    With m = n - j, arr is viewed as (n!/m!, m, m - 1, (m - 2)!, width):
    w_1 ... w_j, the rank a of w_(j+1) among the m values left, the rank of
    w_(j+2) among the m - 1 left after that, and the order of the rest.  For
    ranks a < b, block [:, a, b - 1] holds the w with w_(j+1) < w_(j+2) and
    block [:, b, a] their partners, so for each a the blocks of every b > a
    make one strided view on either side."""
    m = n - j
    g = arr.reshape(-1, m, m - 1, math.factorial(m - 2), arr.shape[1])
    for a in range(m - 1):
        yield g[:, a, a:], g[:, a + 1 :, a]


def _lex_letter(arr: np.ndarray, n: int, j: int, cols: int) -> None:
    """Fold s_(j+1) into arr, the rows of all of S_n in lexicographic order
    with their degrees below cols, in place: for w with ws longer, row w
    takes c[ws] and row ws becomes q (c[w] + c[ws]) - c[ws].  Each block
    pair holds one temporary, the sum s = c[w] + c[ws]; every write is a
    ufunc whose output is also its input, since an assignment between two
    views of one array would copy its source first."""
    for up, down in _lex_blocks(arr, n, j):
        s = up[..., :cols] + down[..., :cols]
        np.subtract(s, up[..., :cols], out=up[..., :cols])
        np.subtract(s, down[..., 1 : cols + 1], out=down[..., 1 : cols + 1])
        down[..., 0] *= -1


def _poly(row, ell: int = 0) -> LaurentPoly:
    """The polynomial in q of a coefficient row, divided exactly by q^ell.
    Raises ArithmeticError where q^ell does not divide it, which a correct
    fold never gives."""
    coeffs = row.tolist()
    if any(coeffs[:ell]):
        raise ArithmeticError(
            f"divisibility violated: {render_descending(_poly(row))} is not divisible by q^{ell}"
        )
    return LaurentPoly({(0, e - ell, 0): c for e, c in enumerate(coeffs) if c})


def point_count(b: BraidWord, target: Permutation) -> LaurentPoly:
    """#X(b; target) over F_q as a polynomial in q.

    It is the T-basis coefficient of T_b at target^-1, which the symmetrising
    trace, tau(T_x T_y) = q^len(x) when xy = e and 0 otherwise (Geck-Pfeiffer,
    section 8.1), reads as q^-len(target) tau(T_L) for L = b followed by a
    reduced word of target.  Split L = P S anywhere and fold P and the
    reversed S from e.  The anti-involution T_w -> T_(w^-1) turns T_S into
    the T-basis coefficients of the reversed fold at equal keys, so
    tau(T_P T_S) is the sum over the rows u both folds hold of their product
    divided by q^len(u) (each is q^len(u) times its T-basis coefficient).

    Every split gives the same count; they differ in cost.  L is split in
    the middle, where two short folds hold far fewer rows than the fold of
    b.  Two cases fold b alone and read its row at target^-1 instead, the
    split at len(b): when the middle falls in the target's word, and when
    both halves have the Demazure product w0, so that both may reach every
    permutation and the combine, which costs rows x columns^2, is dearer
    than the one fold.  Both folds are held together under the memory budget,
    and a refusal names b, not the half that passed the budget.
    """
    if len(target) != b.strands:
        raise ValueError("target permutation size does not match strand count")
    n = b.strands
    word = b.letters + tuple(_reduced_word(target))
    k = len(word) // 2
    if k >= len(b.letters) or _demazure_is_w0(n, word[:k]) and _demazure_is_w0(n, word[k:]):
        return _count(_fold(b), target)
    try:
        return _split_count(n, word, k, permutation_length(target))
    except _OverBudget:
        raise _OverBudget(len(b), n) from None


def _split_count(n: int, word, k: int, ell: int) -> LaurentPoly:
    """q^-ell tau(T_word) from the folds of word[:k] and of word[k:] reversed."""
    front = _fold(BraidWord(n, word[:k]))
    held = recursion._nbytes(front) + front.keys.nbytes
    back = _fold(BraidWord(n, word[k:][::-1]), held=held)
    return _poly(_trace(front, back), ell)


def _reduced_word(x: Permutation) -> list[int]:
    """The indices of a reduced word s_i1 ... s_il = x: strip right descents
    of x until e is left, and read them backwards."""
    x, stripped = list(x), []
    while i := next((i for i in range(1, len(x)) if x[i - 1] > x[i]), 0):
        x[i - 1], x[i] = x[i], x[i - 1]
        stripped.append(i)
    return stripped[::-1]


def _demazure_is_w0(n: int, letters) -> bool:
    """Whether the Demazure product of the letters, the longest permutation
    that a subword multiplies to, is the longest permutation w0."""
    w, ell, top = list(range(n)), 0, n * (n - 1) // 2
    for i in letters:
        if ell == top:
            break
        if w[i - 1] < w[i]:
            w[i - 1], w[i] = w[i], w[i - 1]
            ell += 1
    return ell == top


def _trace(f: _Fold, g: _Fold) -> np.ndarray:
    """Coefficients of sum_u f[u] g[u] / q^len(u) over the keys u of the rows
    that both folds hold, in the narrowest type that holds the bound
    max|f| max|g| min(columns) rows.  The rows of one length go through one
    matrix product, whose antidiagonals sum their polynomial products; only
    that class is copied into the wider type at a time."""
    _, i, j = np.intersect1d(f.keys, g.keys, assume_unique=True, return_indices=True)
    live = f.arr[i].any(axis=1) & g.arr[j].any(axis=1)
    a, c = f.arr[i[live]], g.arr[j[live]]
    wa, wc = a.shape[1], c.shape[1]
    if not len(a):
        return np.zeros(wa + wc - 1, dtype=np.int64)
    bound = int(np.abs(a).max()) * int(np.abs(c).max()) * min(wa, wc) * len(a)
    dtype = recursion._rung(bound)
    lengths = f.lengths(i[live])
    out = np.zeros(wa + wc - 1, dtype=dtype)
    for ell in range(int(lengths.max()) + 1):
        rows = lengths == ell
        if not rows.any():
            continue
        # grid[y, x] = sum_u c[u, y] a[u, x + ell].  Laid out in rows of
        # len(out) + 1 and read back in rows of len(out), row y moves right
        # by y, so the column sums are the antidiagonal sums.
        grid = c[rows].T.astype(dtype) @ a[rows, ell:].astype(dtype)
        shifted = np.zeros((wc, len(out) + 1), dtype=dtype)
        shifted[:, : wa - ell] = grid
        out += shifted.ravel()[: wc * len(out)].reshape(wc, len(out)).sum(axis=0, dtype=dtype)
    return out


def _count(f: _Fold, target: Permutation) -> LaurentPoly:
    """#X(b; target) read from the finished fold f of b.

    Extracts the transfer-product coefficient at target^{-1} and divides it
    exactly by q^len(target): the cell count spreads evenly over the
    q^len(target) cosets refining the cell, and the variety picks the coset
    of the permutation matrix itself.
    """
    return _poly(f.row(inverse_permutation(target)), permutation_length(target))


# -- brute force over a prime field ------------------------------------------

BRUTE_BUDGET = 10**9
# Bytes of matrix entries in one brute-force batch, whatever the strand count.
_BATCH_BYTES = 1 << 20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _entry_dtype(p: int) -> np.dtype:
    """Narrowest signed integer type holding a + z*b for a, b, z in [0, p)."""
    for dtype, limit in recursion._INT_TYPES:
        if (p - 1) + (p - 1) ** 2 < limit:
            return dtype
    raise ValueError(f"p = {p} is too large for brute force")


def _extend(batch: np.ndarray, i: int, z: np.ndarray, p: int, nodes: int = 1,
            into=None) -> np.ndarray:
    """The products M * B_(i+1)(z) mod p for every matrix M of the
    entry-major batch (n, n, B) and every z of the column z, as one
    (n, n, len(z) * B) batch.  The batch is ``nodes`` equal runs, one per
    trie node, and the products keep them apart: each node's run becomes
    len(z) runs of its matrices, z-major.  They are written into ``into``
    if given, a slice of the last axis of a larger batch."""
    n, _, size = batch.shape
    if into is None:
        into = np.empty((n, n, len(z) * size), batch.dtype)
    # Splitting the last axis, whose stride is one entry, is always a view.
    src = batch.reshape(n, n, nodes, 1, size // nodes)
    out = into.reshape(n, n, nodes, len(z), size // nodes)
    out[:, :i] = src[:, :i]
    out[:, i + 2 :] = src[:, i + 2 :]
    # Right multiplication by B_(i+1)(z): column i takes column i + 1, and
    # column i + 1 becomes column i plus z times column i + 1.
    out[:, i] = src[:, i + 1]
    col = out[:, i + 1]
    np.multiply(z, src[:, i + 1], out=col)
    col += src[:, i]
    _reduce(col, p)
    return into


def _reduce(v: np.ndarray, p: int) -> None:
    """v mod p in place, for v >= 0, as v - p (v // p): numpy divides by a
    scalar many times faster than it takes a remainder."""
    q = v // p
    q *= p
    v -= q


def _below(target: Permutation) -> list[tuple[int, int]]:
    """The entries (r, c) of M that must vanish for M P_target to be upper
    triangular: P_w puts column w_k - 1 of M in column k, so those are
    (r, w_k - 1) for every r > k."""
    n = len(target)
    return [(r, target[k] - 1) for k in range(n) for r in range(k + 1, n)]


def _leaf_test(target: Permutation, i: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Split the test of M B_(i+1)(z) P_target against the entries of M:
    the entries that must vanish whatever z is (column i of the product is
    column i + 1 of M, and every other column but i + 1 is M's own), and the
    rows r where column i + 1 of the product, M[r, i] + z M[r, i + 1], must."""
    free, rows = [], []
    for r, c in _below(target):
        if c == i + 1:
            rows.append(r)
        else:
            free.append((r, i + 1 if c == i else c))
    return free, rows


def _zero(batch: np.ndarray, entries) -> np.ndarray:
    """Which matrices of the batch vanish at every one of the entries."""
    ok = np.ones(batch.shape[2], dtype=bool)
    for r, c in entries:
        ok &= batch[r, c] == 0
    return ok


def _leaf_counts(batch, i: int, tests, zs: np.ndarray, p: int, limit: int,
                 nodes: int = 1) -> np.ndarray:
    """For each (free, rows) test of _leaf_test, and each of the ``nodes``
    equal runs of the batch, the number of pairs (M, z), M in the run and z
    in F_p, with M B_(i+1)(z) P_target upper triangular, as an int64 array
    (tests, nodes).  They are found without building the products: A + z B
    is formed, for every z, only on the rows where it is tested and only
    for the matrices that pass the z-free entries.  The z values run in runs
    of at most max(limit, matrices) entries."""
    out = np.zeros((len(tests), nodes), dtype=np.int64)
    for t, (free, rows) in enumerate(tests):
        live = _zero(batch, free)
        per = live.reshape(nodes, -1).sum(axis=1)  # in each run
        if not rows:
            out[t] = p * per
            continue
        m = int(per.sum())
        if not m:
            continue
        # Only the matrices that pass the z-free entries, where some fail;
        # those of run j are the columns [first, last) of hit.
        pick = slice(None) if m == len(live) else live
        cols = [(batch[r, i][pick], batch[r, i + 1][pick]) for r in rows]
        ends = np.cumsum(per).tolist()
        runs = [(j, last - c, last) for j, (c, last) in enumerate(zip(per.tolist(), ends)) if c]
        step = max(1, limit // m)
        for lo in range(0, p, step):
            z = zs[lo : lo + step]
            hit = np.ones((len(z), m), dtype=bool)
            for a, b in cols:
                v = z * b
                v += a
                _reduce(v, p)
                hit &= v == 0
            for j, first, last in runs:
                out[t, j] += np.count_nonzero(hit[:, first:last])
    return out


def _pick(batch: np.ndarray, nodes: int, js: list[int]) -> np.ndarray:
    """The runs js, ascending, of a batch of ``nodes`` equal runs: a view
    when they are consecutive."""
    size = batch.shape[2] // nodes
    if js[-1] - js[0] + 1 == len(js):
        return batch[:, :, js[0] * size : (js[-1] + 1) * size]
    n = batch.shape[0]
    return batch.reshape(n, n, nodes, size)[:, :, js].reshape(n, n, -1)


def _enumerate_counts(
    words: Sequence[BraidWord], targets: Sequence[Permutation], p: int
) -> list[list[int]]:
    """For each word, on one strand count, and each target, the number of z
    with B_word(z) P_target upper triangular mod p.

    The words' trie is walked from the identity in groups of nodes of one
    depth, depth first.  A group's batch is its nodes' batches side by side,
    all of one size.  For each letter, one _leaf_counts pass counts, per
    node, the words whose last letter it is, which are never built, and one
    _extend builds the children of the nodes that the letter leads on from.
    The children are packed, in order, into groups of at most a room of
    matrices; where one child alone would pass the room, each child is
    built in runs of its letter's z values, each run a group of its own.
    The room is _BATCH_BYTES of entries for a group that is extended no
    further, and shrinks by p for each letter still to be extended below
    it, down to 1/64 of that, so that a long word holds one full batch and
    not one per letter.  The cost is the sum over the trie's inner nodes of
    their batch sizes."""
    if not words:
        return []
    n = words[0].strands
    # A node maps each next letter to the words ending there and its own node.
    empty, trie = [], {}
    for k, b in enumerate(words):
        ends, kids = empty, trie
        for idx in b.letters:
            ends, kids = kids.setdefault(idx, ([], {}))
        ends.append(k)
    heights: dict[int, int] = {}

    def height(node) -> int:
        """How many more times a group holding the node is extended."""
        if id(node) not in heights:
            heights[id(node)] = max((1 + height(kids) for _, kids in node.values() if kids), default=0)
        return heights[id(node)]

    dtype = _entry_dtype(p)
    zs = np.arange(p, dtype=dtype)[:, None]
    limit = max(1, _BATCH_BYTES // (n * n * dtype.itemsize))
    tests = [[_leaf_test(w, i) for w in targets] for i in range(n - 1)]
    counts = [[0] * len(targets) for _ in words]

    def walk(batch, nodes):
        size = batch.shape[2] // len(nodes)
        # The nodes that each letter ends words at, and the (letter, node)
        # pairs whose child has children of its own, in letter order.
        enders: dict[int, list[int]] = {}
        kids = []
        for j, node in enumerate(nodes):
            for idx, (done, more) in node.items():
                if done:
                    enders.setdefault(idx, []).append(j)
                if more:
                    kids.append((idx, j))
        for idx, js in enders.items():
            got = _leaf_counts(_pick(batch, len(nodes), js), idx - 1, tests[idx - 1],
                               zs, p, limit, len(js))
            for j, add in zip(js, got.T.tolist()):
                for k in nodes[j][idx][0]:
                    counts[k] = [c + g for c, g in zip(counts[k], add)]
        if not kids:
            return
        kids.sort()
        # The room is only worked out where the children pass its floor.
        room = max(limit >> 6, 1)
        if p * size * len(kids) > room:
            room = max(limit // p ** (max(map(height, nodes)) - 1), room)
        # Each child batch is passed straight on, so that it is freed before
        # the next one is built.
        if p * size > room:
            step = max(1, room // size)
            for idx, j in kids:
                for lo in range(0, p, step):
                    walk(_extend(_pick(batch, len(nodes), [j]), idx - 1, zs[lo : lo + step], p),
                         [nodes[j][idx][1]])
            return
        per = max(1, room // (p * size))
        for lo in range(0, len(kids), per):
            chunk = kids[lo : lo + per]
            walk(grow(batch, len(nodes), chunk), [nodes[j][idx][1] for idx, j in chunk])

    def grow(batch, nodes, chunk):
        """One batch of the children (letter, node) of the chunk, in order:
        one _extend per letter."""
        size = batch.shape[2] // nodes
        out, at = np.empty((n, n, len(chunk) * p * size), dtype), 0
        for idx, run in itertools.groupby(chunk, key=lambda kid: kid[0]):
            js = [j for _, j in run]
            m = len(js) * p * size
            _extend(_pick(batch, nodes, js), idx - 1, zs, p, len(js), out[:, :, at : at + m])
            at += m
        return out

    eye = np.eye(n, dtype=dtype)[:, :, None]
    for k in empty:
        counts[k] = [int(_zero(eye, _below(w))[0]) for w in targets]
    if trie:
        walk(eye, [trie])
    return counts


def brute_force_count(b: BraidWord, target: Permutation, p: int) -> int:
    """Count tuples z in F_p^r with B_b(z) * P_target upper triangular.

    p is tested for primality, by trial division up to sqrt(p), only once
    the entry type and the tuple budget admit it, so below about 3.04e9."""
    if len(target) != b.strands:
        raise ValueError("target permutation size does not match strand count")
    _entry_dtype(p)
    r = len(b.letters)
    if p**r > BRUTE_BUDGET:
        raise ValueError(
            f"enumeration budget exceeded: need {p**r} > {BRUTE_BUDGET} tuples"
        )
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _enumerate_counts([b], [target], p)[0][0]
