"""Ordinary and affine permutations of type A, and their Stanley symmetric
functions.

Ordinary permutations are tuples in one-line notation on 1..n.  An affine
permutation is stored by its window, the images of 1..n; it acts on all of Z
by f(i + n) = f(i) + n.  Windows need not have average shift zero: every
operation that needs the Coxeter structure first subtracts the average shift
from the window, so arbitrary bounded windows are legal inputs everywhere.

Decreasing-factorization counting follows the usual convention in which the
word of a permutation multiplies as function composition left to right; with
this convention the Stanley function of a single row-shaped inversion
pattern comes out as a complete homogeneous function, matching the Specht
module of its Rothe diagram.  Factorizations are counted on raw windows by
peeling simple reflections off the left, and the length is Shi's formula.

The ordinary Stanley function is computed apart from factorizations, by
Lascoux-Schuetzenberger transition, one step on 1 x w per node, down to
vexillary (2143-avoiding) leaves w, whose inversion diagram rows, sorted by
size, form a chain: F_w = s_lambda(w), lambda(w) the row sizes: F_312 = s_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import index

from .errors import ParseError
from .partitions import Partition, box_partitions, contains, partition
from .symfunc import MonomialExpansion, SchurExpansion

Permutation = tuple[int, ...]


def check_permutation(w) -> Permutation:
    """Validate one-line notation on 1..n.

    >>> check_permutation((3, 1, 5, 2, 4))
    (3, 1, 5, 2, 4)
    """
    w = tuple(map(index, w))
    if not w or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not one-line notation on 1..n: {w}")
    return w


def inversions(w: Permutation) -> int:
    """Ordinary inversion count."""
    # a pair count apart from _rothe_rows, so the verify suites can check it
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def direct_sum(w: Permutation, v: Permutation) -> Permutation:
    """Concatenation w x v: w on the first block, v shifted past it.

    >>> direct_sum((2, 1), (1, 2, 3))
    (2, 1, 3, 4, 5)
    """
    w = check_permutation(w)
    v = check_permutation(v)
    return w + tuple(x + len(w) for x in v)


def permutation_text(w: Permutation) -> str:
    """Digits when n <= 9, comma-separated otherwise."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    try:
        if "," in text:
            return check_permutation(int(tok) for tok in text.split(","))
        return check_permutation(int(ch) for ch in text)
    except ValueError as exc:
        raise ParseError(f"bad permutation text {text!r}: {exc}") from None


@dataclass(frozen=True)
class AffinePermutation:
    """A bijection of Z commuting with the shift by n, stored by its window.
    The public constructor validates the window; _trusted does not."""

    window: tuple[int, ...]

    @classmethod
    def _trusted(cls, window: tuple[int, ...]) -> AffinePermutation:
        """No checks: the caller guarantees a nonempty tuple of ints that are
        pairwise distinct modulo its length."""
        self = object.__new__(cls)
        self.__dict__.update(window=window)
        return self

    def __post_init__(self):
        window = tuple(map(index, self.window))
        object.__setattr__(self, "window", window)
        n = len(window)
        if n == 0:
            raise ValueError("empty window")
        if len({x % n for x in window}) != n:
            raise ValueError(f"window entries collide modulo {n}: {window}")

    @property
    def n(self) -> int:
        return len(self.window)

    def __repr__(self) -> str:
        return f"AffinePermutation({self.window!r})"


def affine_identity(n: int) -> AffinePermutation:
    return AffinePermutation(tuple(range(1, n + 1)))


def embed(w: Permutation) -> AffinePermutation:
    """View an ordinary permutation as an affine one with the same window."""
    return AffinePermutation(check_permutation(w))


def evaluate(f: AffinePermutation, i: int) -> int:
    """f(i) for any integer i, by periodic extension.

    >>> evaluate(AffinePermutation((6, 4, 5, 8, 7)), 6)
    11
    """
    window = f.window
    n = len(window)
    q, r = divmod(i - 1, n)
    return window[r] + q * n


def av(f: AffinePermutation) -> int:
    """The integer average shift (1/n) * sum(f(i) - i)."""
    total = sum(f.window) - f.n * (f.n + 1) // 2
    shift, rem = divmod(total, f.n)
    if rem:
        raise AssertionError(f"window sum not divisible by n: {f.window}")
    return shift


def is_bounded(f: AffinePermutation) -> bool:
    """True iff i <= f(i) <= i + n for all i (window check suffices)."""
    n = len(f.window)
    return all(i <= x <= i + n for i, x in enumerate(f.window, start=1))


def tau_shift(f: AffinePermutation, left: int, right: int) -> AffinePermutation:
    """Compose with powers of the shift: i -> f(i + right) + left."""
    return AffinePermutation(
        tuple(evaluate(f, i + right) + left for i in range(1, f.n + 1))
    )


@lru_cache(maxsize=1024)
def _length(window: tuple[int, ...]) -> int:
    # Shi's formula: sum over i < j in [n] of |floor((f(j) - f(i)) / n)|
    n = len(window)
    return sum(abs((y - x) // n) for x, y in combinations(window, 2))


def length(f: AffinePermutation) -> int:
    """Number of inversion classes i < j, f(i) > f(j) with i in [n].

    >>> length(AffinePermutation((6, 4, 5, 8, 7)))
    3
    """
    return _length(f.window)


def northeast_count(f: AffinePermutation, i: int, j: int) -> int:
    """Number of p < i with f(p) > j.

    This counts the ones strictly northeast of (i, j) in the permutation
    matrix.  Since f(p) <= p + max(window shift), only finitely many p
    qualify and the count is always finite.
    """
    max_shift = max(x - (k + 1) for k, x in enumerate(f.window))
    lo = j - max_shift + 1
    if lo >= i:
        return 0
    return sum(1 for p in range(lo, i) if evaluate(f, p) > j)


@lru_cache(maxsize=None)
def _factorization_count(window: tuple[int, ...], lam: Partition) -> int:
    """Number of ways to write the element as a product of cyclically
    decreasing left factors of sizes lam[0], lam[1], ... with lengths adding.

    The sizes must sum to the length of the window.  A factor with support s
    is s_b ... s_a over each maximal cyclic run a..b of s, so it is peeled
    off by left multiplication with s_b, ..., s_a in turn: s_i adds 1 to the
    entry congruent to i and subtracts 1 from the one congruent to i + 1
    (mod n).  The lengths add exactly when every peel is a left descent,
    f^-1(i) > f^-1(i + 1); then the leaf, of length 0, is the identity.
    """
    if not lam:
        return 1
    n = len(window)
    pos = [0] * n  # pos[v]: the index of the entry congruent to v mod n
    for p, x in enumerate(window):
        pos[x % n] = p
    total = 0
    # r is the largest residue the support omits, so r + 1, ..., n - 1 are in
    # it; walking down from r - 1 meets every run from its top
    for r in range(max(n - 1 - lam[0], 0), n):
        above = tuple(range(n - 1, r, -1))
        for below in combinations(range(r - 1, -1, -1), lam[0] - len(above)):
            w, at = list(window), pos[:]
            for i in below + above:
                p, q = at[i], at[(i + 1) % n]
                # f^-1(i) = p + 1 + i - w[p] against f^-1(i + 1)
                if p - w[p] <= q - w[q] + 1:
                    break
                w[p] += 1
                w[q] -= 1
                at[i], at[(i + 1) % n] = q, p
            else:
                total += _factorization_count(tuple(w), lam[1:])
    return total


def affine_stanley(f: AffinePermutation) -> MonomialExpansion:
    """Generating function of cyclically decreasing factorizations.

    The coefficient of m_lam counts factorizations whose i-th factor is
    cyclically decreasing of length lam[i]; the result is homogeneous of
    degree l(f).  The window is first recentred to average shift zero.

    >>> affine_stanley(affine_identity(3)).text()
    '1*m[-]'
    """
    shift = av(f)
    f0 = AffinePermutation._trusted(tuple(x - shift for x in f.window))
    total = _length(f0.window)
    # a cyclically decreasing factor omits a residue, so its length is < n
    lams = box_partitions(total, total, f0.n - 1)
    return MonomialExpansion._trusted({lam: _factorization_count(f0.window, lam) for lam in lams})


def _rothe_rows(w: Permutation) -> list[int]:
    """The inversion (Rothe) diagram of w by rows: row i has bit w(j) set for
    each inversion i < j, so its popcount is the Lehmer code c_i."""
    rows, seen = [0] * len(w), 0
    for i in range(len(w) - 1, -1, -1):
        rows[i], seen = seen & ((1 << w[i]) - 1), seen | 1 << w[i]
    return rows


def _normalized(w) -> Permutation:
    """w less its leading fixed points (the rest shifted down) and trailing
    ones; F_w does not change."""
    lo, hi = 0, len(w)
    while lo < hi and w[lo] == lo + 1:
        lo += 1
    while hi > lo and w[hi - 1] == hi:
        hi -= 1
    return tuple(x - lo for x in w[lo:hi])


def _step(w: Permutation) -> tuple[tuple[Partition, int], ...] | list[Permutation]:
    """A vexillary w's terms, else the normalized children of its step on 1 x w."""
    rows = _rothe_rows(w)
    chain = sorted(filter(None, rows), key=int.bit_count, reverse=True)
    # w avoids 2143 exactly when its rows, sorted by size, form a chain
    if all(a & b == b for a, b in zip(chain, chain[1:])):
        return ((tuple(map(int.bit_count, chain)), 1),)
    v = [1] + [x + 1 for x in w]  # 1 x w, whose 1 is met last (see stanley)
    r = len(w)  # v rises past r, so row r of v (r - 1 of w) holds v(r + 1..s)
    while not rows[r - 1]:
        r -= 1
    s = r + rows[r - 1].bit_count()
    v[r], v[s] = v[s], v[r]
    kids = []
    low = 0  # the largest v(k) < v(r) met so far, for i < k < r
    for i in range(r - 1, -1, -1):
        if low < v[i] < v[r]:
            v[i], v[r] = v[r], v[i]
            kids.append(_normalized(v))
            v[i], v[r] = v[r], v[i]
            low = v[i]
    return kids


def _transition(w: Permutation) -> tuple[tuple[Partition, int], ...]:
    """Schur terms of F_w for a normalized w (see stanley): a postorder walk
    that steps each node once and holds the terms of its done children."""
    if (terms := _terms.get(w)) is not None:
        return terms
    stack = [(w, iter((w,)), [])]  # a root frame whose one child is w
    while True:
        u, rest, done = stack[-1]
        for x in rest:
            if (terms := _terms.get(x)) is None:
                if type(step := _step(x)) is list:
                    stack.append((x, iter(step), []))
                    break
                terms = _terms[x] = step  # a leaf
            done.append(terms)
        else:
            stack.pop()
            if not stack:
                return done[0]
            terms = done[0]  # a lone child's terms are shared, not copied
            if len(done) > 1:
                total = dict(terms)
                for kid in done[1:]:
                    for mu, c in kid:
                        total[mu] = total.get(mu, 0) + c
                terms = tuple(total.items())
            _terms[u] = terms
            stack[-1][2].append(terms)


# Schur terms by normalized w.  clear_caches() empties it through
# _transition.cache_clear; a walk under way keeps what it needs on its stack.
_terms: dict = {}
_transition.cache_clear = _terms.clear


def stanley(w: Permutation) -> SchurExpansion:
    """Stanley symmetric function of an ordinary permutation, in Schur form.

    Transition: let r be the last descent of w, s the last j > r with
    w(j) < w(r), and v = w t_rs.  Then F_w is the sum of F_{v t_ir} over the
    i < r with v(i) < v(r) such that no v(k), i < k < r, lies between them.
    One step runs on 1 x w, whose leading 1 is such an i just when w has none.
    r and s come from the inversion diagram rows: r is the last nonempty row
    and s - r its size.  A vexillary w, whose rows form a chain, is a leaf,
    F_w = s_lambda(w) with lambda(w) the row sizes.  Results are memoized per
    permutation with leading and trailing fixed points dropped, and a node
    with one child shares that child's terms.

    >>> stanley((3, 2, 1)).text()
    '1*s[2,1]'
    >>> stanley((2, 1, 4, 3)).text()
    '1*s[1,1] + 1*s[2]'
    """
    return SchurExpansion._trusted(dict(_transition(_normalized(check_permutation(w)))))


def skew_schur(outer: Partition, inner: Partition) -> SchurExpansion:
    """s_{outer/inner} in the Schur basis, as F_w for the 321-avoiding w =
    v_outer v_inner^-1 (Billey-Jockusch-Stanley): v_lam in S_{k + outer_1},
    k = l(outer), sends i <= k to i + lam_{k+1-i}, later i to the rest in order.

    >>> skew_schur((2, 1), (1,)).text()
    '1*s[1,1] + 1*s[2]'
    """
    if partition(outer) != outer:
        raise ValueError(f"not a partition: {outer}")
    if not contains(outer, inner := partition(inner)):
        return SchurExpansion()
    k, m = len(outer), len(outer) + sum(outer[:1])
    def grassmannian(lam: Partition) -> list[int]:
        top = [i + p for i, p in enumerate(reversed(lam + (0,) * (k - len(lam))), 1)]
        return top + sorted(set(range(1, m + 1)).difference(top))
    v, u = grassmannian(outer), grassmannian(inner)
    w = [v[i] for i in sorted(range(m), key=u.__getitem__)]
    return SchurExpansion._trusted(dict(_transition(_normalized(w))))


def window_text(f: AffinePermutation) -> str:
    return ",".join(str(x) for x in f.window) + f";n={f.n}"


def parse_window(text: str) -> AffinePermutation:
    text = text.strip()
    if ";n=" not in text:
        raise ParseError(f"window text must end with ';n=N': {text!r}")
    body, _, ntext = text.partition(";n=")
    try:
        n = int(ntext)
        window = tuple(int(tok) for tok in body.split(","))
        if len(window) != n:
            raise ValueError(f"window has {len(window)} entries, n={n}")
        return AffinePermutation(window)
    except ValueError as exc:
        raise ParseError(f"bad window text {text!r}: {exc}") from None
