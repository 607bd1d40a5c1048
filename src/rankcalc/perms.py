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
module of its Rothe diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ParseError
from .partitions import Partition, box_partitions
from .symfunc import MonomialExpansion, SchurExpansion, monomial_to_schur

Permutation = tuple[int, ...]


def check_permutation(w) -> Permutation:
    """Validate one-line notation on 1..n.

    >>> check_permutation((3, 1, 5, 2, 4))
    (3, 1, 5, 2, 4)
    """
    w = tuple(int(x) for x in w)
    if not w or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not one-line notation on 1..n: {w}")
    return w


def inversions(w: Permutation) -> int:
    """Ordinary inversion count."""
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
    """A bijection of Z commuting with the shift by n, stored by its window."""

    window: tuple[int, ...]

    def __post_init__(self):
        window = tuple(int(x) for x in self.window)
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
    q, r = divmod(i - 1, f.n)
    return f.window[r] + q * f.n


def av(f: AffinePermutation) -> int:
    """The integer average shift (1/n) * sum(f(i) - i)."""
    total = sum(f.window) - f.n * (f.n + 1) // 2
    shift, rem = divmod(total, f.n)
    if rem:
        raise AssertionError(f"window sum not divisible by n: {f.window}")
    return shift


def is_bounded(f: AffinePermutation) -> bool:
    """True iff i <= f(i) <= i + n for all i (window check suffices)."""
    return all(i <= x <= i + f.n for i, x in enumerate(f.window, start=1))


def compose(f: AffinePermutation, g: AffinePermutation) -> AffinePermutation:
    """The affine permutation i -> f(g(i))."""
    if f.n != g.n:
        raise ValueError("period mismatch")
    return AffinePermutation(tuple(evaluate(f, x) for x in g.window))


def inverse(f: AffinePermutation) -> AffinePermutation:
    out = [0] * f.n
    for j, image in enumerate(f.window, start=1):
        r = (image - 1) % f.n
        out[r] = j + (r + 1 - image)
    return AffinePermutation(tuple(out))


def tau_shift(f: AffinePermutation, left: int, right: int) -> AffinePermutation:
    """Compose with powers of the shift: i -> f(i + right) + left."""
    return AffinePermutation(
        tuple(evaluate(f, i + right) + left for i in range(1, f.n + 1))
    )


@lru_cache(maxsize=None)
def _length(window: tuple[int, ...]) -> int:
    n = len(window)
    lo, hi = min(window), max(window)
    # Inversions (i, j), i in [n], j > i, f(i) > f(j).  For j > i + n*b with
    # b = (hi - lo)//n + 2 we have f(j) = window[r] + (j - r - 1 rounded to a
    # multiple of n) >= lo + j - n > lo + i + (hi - lo) = hi + i >= f(i), so
    # no inversion occurs there and the scan below is exhaustive.
    b = (hi - lo) // n + 2
    count = 0
    for i in range(1, n + 1):
        fi = window[i - 1]
        for j in range(i + 1, i + n * b + 1):
            q, r = divmod(j - 1, n)
            if window[r] + q * n < fi:
                count += 1
    return count


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


def simple_reflection(i: int, n: int) -> AffinePermutation:
    """The affine generator swapping i + pn and i + 1 + pn for all p."""
    window = list(range(1, n + 1))
    r = i % n
    if r == 0:
        window[0] = 0
        window[n - 1] = n + 1
    else:
        window[r - 1], window[r] = r + 1, r
    return AffinePermutation(tuple(window))


def _cyclic_runs(s: frozenset[int], n: int) -> list[tuple[int, int, int]]:
    """Maximal cyclic runs (start, top, length) of a proper residue set."""
    runs = []
    for a in sorted(s):
        if (a - 1) % n in s:
            continue
        b, size = a, 1
        while (b + 1) % n in s:
            b = (b + 1) % n
            size += 1
        runs.append((a, b, size))
    return runs


def cyclically_decreasing(s: frozenset[int], n: int) -> AffinePermutation:
    """The cyclically decreasing element with support ``s`` (a proper subset
    of the residues): each maximal run a..b contributes the factor
    s_b s_{b-1} ... s_a, and distinct runs commute."""
    if len(s) >= n:
        raise ValueError("support must be a proper subset of the residues")
    window = list(range(1, n + 1))
    for a, _b, size in _cyclic_runs(s, n):
        for p in range(1, n + 1):
            off = (p - a) % n
            if off == 0:
                window[p - 1] = p + size
            elif off <= size:
                window[p - 1] = p - 1
    return AffinePermutation(tuple(window))


def left_descents(f: AffinePermutation) -> frozenset[int]:
    """Residues i with l(s_i f) < l(f), i.e. f^{-1}(i) > f^{-1}(i+1)."""
    g = inverse(f)
    return frozenset(
        i for i in range(f.n) if evaluate(g, i) > evaluate(g, i + 1)
    )


@lru_cache(maxsize=None)
def _factorization_count(window: tuple[int, ...], lam: Partition) -> int:
    """Number of ways to write the element as a product of cyclically
    decreasing left factors of sizes lam[0], lam[1], ... with lengths adding."""
    if not lam:
        return 1 if _length(window) == 0 else 0
    f = AffinePermutation(window)
    n = f.n
    target = _length(window) - lam[0]
    if target < 0:
        return 0
    lds = left_descents(f)
    total = 0
    for subset in combinations(range(n), lam[0]):
        s = frozenset(subset)
        # every run top of a left factor must be a left descent
        if any(b not in lds for _a, b, _sz in _cyclic_runs(s, n)):
            continue
        d = cyclically_decreasing(s, n)
        rest = compose(inverse(d), f)
        if _length(rest.window) == target:
            total += _factorization_count(rest.window, lam[1:])
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
    f0 = AffinePermutation(tuple(x - shift for x in f.window))
    total = _length(f0.window)
    # a cyclically decreasing factor omits a residue, so its length is < n
    return MonomialExpansion(
        (lam, _factorization_count(f0.window, lam))
        for lam in box_partitions(total, total, f0.n - 1)
    )


def stanley(w: Permutation) -> SchurExpansion:
    """Stanley symmetric function of an ordinary permutation, in Schur form.

    >>> stanley((3, 2, 1)).text()
    '1*s[2,1]'
    """
    return monomial_to_schur(affine_stanley(embed(w)))


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
