"""Rank sets, their bounded affine permutations, stretching, and the
extraction of an ordinary permutation representing the rank variety class.

A rank set is a finite collection of integer intervals [a, b] inside [1, n]
with all left endpoints distinct and all right endpoints distinct.  Sorted
by right endpoint, it corresponds to the bounded affine permutation sending
each b_i to a_i + n and the leftover positions increasingly onto the
leftover small values; that correspondence and its inverse, the dimension
count, and the stretching loop that makes the window of an ordinary
permutation visible are all here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, compress
from operator import index, itemgetter
from typing import Iterator

from .errors import (
    EmptyRankSet,
    InvalidRankSet,
    NotBounded,
    NotRankSetShaped,
    ParseError,
)
from .perms import (
    AffinePermutation,
    Permutation,
    check_permutation,
)

Interval = tuple[int, int]


@dataclass(frozen=True)
class RankSet:
    """Intervals stored sorted by right endpoint, plus the ambient n.
    The public constructor validates both; _trusted does not."""

    intervals: tuple[Interval, ...]
    ambient_n: int

    @classmethod
    def _trusted(cls, intervals: tuple[Interval, ...], ambient_n: int) -> RankSet:
        """No checks: the caller guarantees an int ambient_n >= 0 and int pairs
        1 <= a <= b <= ambient_n sorted by b, lefts distinct, rights distinct."""
        self = object.__new__(cls)
        self.__dict__.update(intervals=intervals, ambient_n=ambient_n)
        return self

    def __post_init__(self):
        ivs = tuple(
            sorted(((index(a), index(b)) for a, b in self.intervals), key=itemgetter(1))
        )
        object.__setattr__(self, "intervals", ivs)
        n = index(self.ambient_n)
        object.__setattr__(self, "ambient_n", n)
        if n < 0:
            raise InvalidRankSet(f"ambient n must be nonnegative: {n}")
        for a, b in ivs:
            if not (1 <= a <= b <= n):
                raise InvalidRankSet(f"interval [{a},{b}] out of range for n={n}")
        if len({a for a, _ in ivs}) != len(ivs):
            raise InvalidRankSet(f"duplicate left endpoints in {ivs}")
        if len({b for _, b in ivs}) != len(ivs):
            raise InvalidRankSet(f"duplicate right endpoints in {ivs}")

    @property
    def k(self) -> int:
        return len(self.intervals)

    def __repr__(self) -> str:
        return f"RankSet({self.intervals!r}, n={self.ambient_n})"


def rank_set(intervals, ambient_n: int) -> RankSet:
    return RankSet(tuple((a, b) for a, b in intervals), ambient_n)


def containment_count(m: RankSet, interval: Interval) -> int:
    """Number of intervals of m contained in the given interval.

    >>> containment_count(rank_set([(1, 1), (3, 4), (2, 5)], 5), (2, 5))
    2
    """
    r, s = interval
    return sum(1 for a, b in m.intervals if r <= a and b <= s)


def dimension(m: RankSet) -> int:
    """Dimension of the rank variety: sum over intervals of size minus the
    number of intervals contained in it."""
    # sorted by right end, an interval [r, s] holds besides itself only
    # intervals before it, those whose left end is at least r
    dim = 0
    lefts = []
    for r, s in m.intervals:
        dim += s - r
        for a in lefts:
            if r <= a:
                dim -= 1
        lefts.append(r)
    return dim


def codimension(m: RankSet) -> int:
    k, n = m.k, m.ambient_n
    return k * (n - k) - dimension(m)


def affine_of_rank_set(m: RankSet) -> AffinePermutation:
    """The bounded affine permutation of a rank set.

    Right endpoints go to their left endpoints plus n; the remaining
    positions carry the remaining small values in increasing order.

    >>> affine_of_rank_set(rank_set([(1, 1), (3, 4), (2, 5)], 5)).window
    (6, 4, 5, 8, 7)
    """
    n = m.ambient_n
    if n == 0:
        raise InvalidRankSet("ambient n must be positive for the correspondence")
    window = [0] * n
    free = [False] + [True] * n  # free[v]: no interval starts at v
    for a, b in m.intervals:
        window[b - 1] = a + n
        free[a] = False
    # the spare positions, the zeros left, take the free values in order
    spare = compress(range(n + 1), free)
    for p, x in enumerate(window):
        if not x:
            window[p] = next(spare)
    return AffinePermutation._trusted(tuple(window))


def rank_set_of_affine(f: AffinePermutation) -> RankSet:
    """Inverse of affine_of_rank_set.

    >>> rank_set_of_affine(AffinePermutation((6, 4, 5, 8, 7))).intervals
    ((1, 1), (3, 4), (2, 5))
    """
    window = f.window
    n = len(window)
    intervals = []
    last = 0  # the last entry met in [n], while they increase
    shaped = True
    for p, x in enumerate(window, start=1):
        if not p <= x <= p + n:
            raise NotBounded(f"window {window} is not bounded")
        if x > n:
            # boundedness puts x - n in [1, p]; distinct residues make the
            # left ends distinct
            intervals.append((x - n, p))
        elif x < last:
            shaped = False
        else:
            last = x
    if not shaped:
        raise NotRankSetShaped(
            f"entries of {window} lying in [n] are not increasing"
        )
    return RankSet._trusted(tuple(intervals), n)


def stretch(m: RankSet) -> RankSet:
    """Extend every interval one step right, growing the ambient by one."""
    return RankSet._trusted(
        tuple((a, b + 1) for a, b in m.intervals), m.ambient_n + 1
    )


def minimal_stretch(m: RankSet) -> int:
    """Smallest nonnegative number of stretches after which the rank set is
    stretched, that is, min(S) < max(T) for every ordered pair of intervals
    S, T: max(0, 1 + max over pairs of (left end minus right end)).

    >>> minimal_stretch(rank_set([(1, 3), (3, 6), (4, 5)], 6))
    2
    """
    if not m.intervals:
        raise EmptyRankSet("minimal_stretch requires a nonempty rank set")
    max_a = max(a for a, _ in m.intervals)
    min_b = min(b for _, b in m.intervals)
    return max(0, 1 + max_a - min_b)


def w_of_rank_set(m: RankSet) -> Permutation:
    """Ordinary permutation whose Stanley function represents the class.

    Stretch minimally, take the least right endpoint b of the stretched
    set, put y = f(b-1), and read the window of the shifted permutation:
    w(i) = f(b-2+i) - y + 1.

    >>> w_of_rank_set(rank_set([(1, 3), (3, 6), (4, 5)], 6))
    (1, 3, 2, 6, 5, 4, 7, 8)
    """
    if not m.intervals:
        raise EmptyRankSet("w_of_rank_set requires a nonempty rank set")
    steps = minimal_stretch(m)
    n2 = m.ambient_n + steps
    stretched = RankSet._trusted(tuple((a, b + steps) for a, b in m.intervals), n2)
    window = affine_of_rank_set(stretched).window
    # stretched, every left end is below b, so b >= 2 and f(b - 1), ...,
    # f(b + n2 - 2) are the window from index b - 2 on, then its head + n2
    s = stretched.intervals[0][1] - 2
    y = window[s] - 1
    return tuple(x - y for x in window[s:] + tuple(x + n2 for x in window[:s]))


def rank_set_of_permutation(w: Permutation) -> RankSet:
    """The rank set {[w(i), i+n]} in ambient 2n.

    >>> rank_set_of_permutation((2, 4, 1, 5, 3)).intervals
    ((2, 6), (4, 7), (1, 8), (5, 9), (3, 10))
    """
    w = check_permutation(w)
    n = len(w)
    return RankSet(tuple((w[i], i + 1 + n) for i in range(n)), 2 * n)


def all_rank_sets(k: int, n: int) -> Iterator[RankSet]:
    """All rank sets with exactly k intervals in [1, n], deterministically.

    Right-endpoint sets run over sorted k-subsets.  For each, a stack walk
    places at each right end b in turn any unused left end a <= b, pushing
    the greatest a first, so the left-end tuples come in lexicographic
    order; since the i-th right end is at least i, no branch dies.
    """
    n = RankSet((), n).ambient_n  # RankSet's own check on n, made once
    for rights in combinations(range(1, n + 1), k):
        stack = [((), 0)]  # (intervals placed, bit a set for each left end a used)
        while stack:
            placed, used = stack.pop()
            if len(placed) == k:
                yield RankSet._trusted(placed, n)
                continue
            b = rights[len(placed)]
            stack.extend(
                (placed + ((a, b),), used | 1 << a)
                for a in range(b, 0, -1)
                if not used >> a & 1
            )


def rank_set_text(m: RankSet) -> str:
    body = ",".join(f"[{a},{b}]" for a, b in m.intervals)
    return f"{body};n={m.ambient_n}"


def parse_rank_set(text: str) -> RankSet:
    text = text.strip()
    if ";n=" not in text:
        raise ParseError(f"rank set text must end with ';n=N': {text!r}")
    body, _, ntext = text.partition(";n=")
    try:
        n = int(ntext)
    except ValueError:
        raise ParseError(f"bad ambient n in {text!r}") from None
    body = body.strip()
    intervals = []
    if body:
        if not re.fullmatch(r"\[\d+,\d+\](,\[\d+,\d+\])*", body):
            raise ParseError(f"bad rank set body {body!r}")
        for pair in re.findall(r"\[(\d+),(\d+)\]", body):
            intervals.append((int(pair[0]), int(pair[1])))
    try:
        return RankSet(tuple(intervals), n)
    except InvalidRankSet as exc:
        raise ParseError(f"bad rank set {text!r}: {exc}") from None
