"""Integer partitions and the exact arithmetic built on them.

A partition is a plain tuple of weakly decreasing positive integers, e.g.
``(4, 4, 2, 2)``; ``()`` is the empty partition.  All counting here is exact
integer arithmetic: the hook length product is formed as an integer and
asserted to divide n!, Littlewood-Richardson coefficients come from one
iterative strip-by-strip walk that yields a whole product at once, and
characters come from the border-strip recursion.  Kostka numbers are not
counted here: symfunc gets them from horizontal strips.

The text form writes parts separated by commas ("4,4,2,2"); the empty
partition renders as "-".
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import ge, index
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError, ShapeTooLarge, SizeMismatch

Partition = tuple[int, ...]


class RectangleContext(NamedTuple):
    """A bounding rectangle with ``rows`` rows and ``cols`` columns."""

    rows: int
    cols: int


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts`` into a partition, dropping trailing zeros.

    >>> partition([4, 4, 2, 2, 0])
    (4, 4, 2, 2)
    >>> partition(())
    ()
    """
    out = tuple(map(index, parts))
    cut = len(out)
    while cut and out[cut - 1] == 0:
        cut -= 1
    out = out[:cut]
    if out and out[-1] < 0:
        raise ValueError(f"negative part in {out}")
    if not all(map(ge, out, out[1:])):
        raise ValueError(f"parts not weakly decreasing: {out}")
    return out


def sort_key(lam: Partition) -> tuple[int, Partition]:
    """Total order used everywhere for printing: degree, then the part
    tuples compared lexicographically."""
    return (sum(lam), lam)


def fits(lam: Partition, rows: int, cols: int) -> bool:
    """True if ``lam`` has at most ``rows`` parts, each at most ``cols``."""
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def box_partitions(n: int, rows: int, cols: int) -> Iterator[Partition]:
    """The partitions of ``n`` that fit in ``rows`` x ``cols``, in the fixed
    total order, generated iteratively without a discarded branch: one list
    steps in place from the least partition to each lexicographic successor.

    >>> list(box_partitions(4, 2, 3))
    [(2, 2), (3, 1)]
    """
    n, rows, cols = index(n), index(rows), index(cols)
    if n == 0:
        yield ()
    # a negative side must stop here, or the fill below would never end
    if not (cols > 0 and 0 < n <= rows * cols):
        return
    parts, i, rem = [], -1, n
    while True:
        # fill the rows after part i with the least partition of rem
        left = rows - i - 1
        while rem:
            p = -(-rem // left)
            parts.append(p)
            rem, left = rem - p, left - 1
        yield tuple(parts)
        # the rightmost part but the last below its cap takes one cell more
        i, rem = len(parts) - 2, parts[-1] - 1
        while i >= 0 and parts[i] == (parts[i - 1] if i else cols):
            rem += parts[i]
            i -= 1
        if i < 0:
            return
        parts[i] += 1
        del parts[i + 1:]


@lru_cache(maxsize=None)
def all_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in the fixed total order.

    >>> all_partitions(4)
    ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    """
    return tuple(box_partitions(n, n, n))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((4, 2))
    (2, 2, 1, 1)
    >>> conjugate(())
    ()
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def contains(outer: Partition, inner: Partition) -> bool:
    """True if inner fits inside outer row by row."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def complement(lam: Partition, ctx: RectangleContext) -> Partition:
    """The 180-degree rotated complement of ``lam`` inside ``ctx``.

    >>> complement((2, 2), RectangleContext(4, 4))
    (4, 4, 2, 2)
    >>> complement((3, 1), RectangleContext(2, 3))
    (2,)
    """
    rows, cols = ctx
    if not fits(lam, rows, cols):
        raise ShapeTooLarge(f"{lam} does not fit in {rows}x{cols}")
    # a partition of ints (a float or Fraction part leaves a non-int sum) in
    # a box with columns: its complement is a partition, built directly
    if (
        type(cols) is int
        and cols > 0
        and (not lam or lam[-1] > 0)
        and type(sum(lam)) is int
        and all(map(ge, lam, lam[1:]))
    ):
        # the parts of lam equal to cols leave the complement's empty rows
        return (cols,) * (rows - len(lam)) + tuple(
            [cols - p for p in reversed(lam) if p != cols]
        )
    # anything else, including an empty box with no columns, takes the
    # checks of partition()
    return partition([cols] * (rows - len(lam)) + [cols - p for p in reversed(lam)])


@lru_cache(maxsize=None)
def syt_count(lam: Partition) -> int:
    """Number of standard fillings of ``lam``, via the hook length product.

    The hook product is asserted to divide n! exactly, which guards against
    a corrupted hook computation.

    >>> syt_count((4, 4, 2, 2))
    2640
    """
    if partition(lam) != lam:
        raise ValueError(f"not a partition: {lam}")
    n = sum(lam)
    conj = conjugate(lam)
    hooks = prod(p + conj[j] - i - j - 1 for i, p in enumerate(lam) for j in range(p))
    count, rest = divmod(factorial(n), hooks)
    if rest:
        raise AssertionError(f"hook product does not divide {n}! for {lam}")
    return count


@lru_cache(maxsize=None)
def _lr_walk(
    mu: Partition, nu: Partition, rows: int, cols: int
) -> tuple[tuple[Partition, int], ...]:
    """The nonzero c^lam_{mu nu} with lam in rows x cols, as (lam, c), by
    Buch's strip-by-strip rule (lrcalc).  The rows of nu join mu as
    horizontal strips, strip i labelled i, and the reverse reading word is
    ballot when, through every row r, strip i + 1 holds no more cells than
    strip i holds through row r - 1.  Equal states merge."""
    # a state is a shape and its limit: limit[r] (past the end, limit[-1]) is
    # the most cells the next strip may hold through row r; the first strip
    # is bounded by its own size
    states = {(mu, (sum(nu[:1]),)): 1} if fits(mu, rows, cols) else {}
    for size in nu:
        after: dict[tuple[Partition, tuple[int, ...]], int] = {}
        for (shape, limit), mult in states.items():
            strips = [(0, ())]  # (cells held, (row, cells) of each row used)
            # only rows with room: row 0 up to cols, row r up to old row r - 1
            for r, (top, low) in enumerate(zip(((cols,) + shape)[:rows], shape + (0,))):
                if top > low:
                    bound = limit[min(r, len(limit) - 1)]
                    strips = [
                        (held + c, cells + ((r, c),) if c else cells)
                        for held, cells in strips
                        for c in range(min(top - low, bound - held, size - held) + 1)
                    ]
            for held, cells in strips:
                if held == size:
                    grown, steps = list(shape) + [0], [0] * (cells[-1][0] + 2)
                    for r, c in cells:
                        grown[r] += c
                        steps[r + 1] = c
                    key = tuple(grown if grown[-1] else grown[:-1]), tuple(accumulate(steps))
                    after[key] = after.get(key, 0) + mult
        states = after
    out: dict[Partition, int] = {}
    for (shape, _), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    return tuple(out.items())


@lru_cache(maxsize=None)
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient c^lam_{mu nu}, read off the walk of
    s_mu s_nu in lam's box.

    >>> lr_coefficient((4, 3, 2, 1), (3, 2, 1), (2, 1, 1))
    3
    """
    for p in (lam, mu, nu):
        if partition(p) != p:
            raise ValueError(f"not a partition: {p}")
    return dict(_lr_walk(mu, nu, len(lam), sum(lam[:1]))).get(lam, 0)


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value on the class of cycle type ``mu``.

    Border-strip recursion on beta numbers: removing a strip of size t from
    lam is moving some beta number down by t into an unoccupied slot, with
    sign given by the number of beta numbers jumped over.

    >>> mn_character((2, 2), (1, 1, 1, 1))
    2
    >>> mn_character((1, 1, 1, 1), (2, 1, 1))
    -1
    """
    for p in (lam, mu):
        if partition(p) != p:
            raise ValueError(f"not a partition: {p}")
    if sum(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| != |{mu}|")
    if not lam:
        return 1
    t, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        new_lam = partition(new_beta[i] - (ell - 1 - i) for i in range(ell))
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu: the
    product of p^m m! over the distinct parts p, each m times in mu."""
    return prod(p ** mu.count(p) * factorial(mu.count(p)) for p in set(mu))


def partition_text(lam: Partition) -> str:
    """Render in the documented text form ("-" for the empty partition)."""
    return ",".join(str(p) for p in lam) if lam else "-"


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text == "-":
        return ()
    try:
        return partition(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad partition text {text!r}: {exc}") from None
