"""Diagrams (finite cell sets), column-transfer moves, permutation diagram
degenerations, and Specht module decompositions.

Two independent routes to the Schur expansion of a diagram module live
here.  specht_schur handles the recognized families, all by transition in
perms: literal skew shapes after sorting rows by leftmost cell, block
products of skew shapes among them and box duals of skew shapes, through
skew_schur; permutation diagrams given with their permutation, by stanley.
specht_bruteforce builds the module from its definition, the span of the
polytabloids inside the tabloid module, takes its character from
integer-scaled traces in an exact echelon basis, and reads multiplicities
off against the irreducible characters; it is the safety net the family
rules are checked against, memoized on the cell set in a bounded table.

Diagram text form: "(1,1),(2,2);box=4x4" (box optional).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial, gcd, lcm
from operator import index
from typing import Iterable

from .errors import (
    NegativeMultiplicity,
    ParseError,
    ShapeTooLarge,
    TooLarge,
    UnsupportedDiagram,
)
from .partitions import (
    Partition,
    RectangleContext,
    all_partitions,
    centralizer_order,
    complement,
    mn_character,
    partition,
    syt_count,
)
from .perms import (
    Permutation,
    _rothe_rows,
    check_permutation,
    inversions,
    parse_permutation,
    skew_schur,
    stanley,
)
from .symfunc import SchurExpansion

Cell = tuple[int, int]


@dataclass(frozen=True)
class Diagram:
    """A finite set of (row, col) cells, optionally with a bounding box.
    The public constructor validates the cells; _trusted does not."""

    cells: frozenset[Cell]
    ctx: RectangleContext | None = None

    @classmethod
    def _trusted(cls, cells: frozenset[Cell], ctx: RectangleContext | None = None) -> Diagram:
        """No checks: the caller guarantees a frozenset of int pairs (r, c)
        with r, c >= 1, inside ctx when ctx is given."""
        self = object.__new__(cls)
        self.__dict__.update(cells=cells, ctx=ctx)
        return self

    def __post_init__(self):
        cells = frozenset((index(r), index(c)) for r, c in self.cells)
        object.__setattr__(self, "cells", cells)
        for r, c in cells:
            if r < 1 or c < 1:
                raise ValueError(f"cell coordinates must be positive: {(r, c)}")
            if self.ctx is not None and (r > self.ctx.rows or c > self.ctx.cols):
                raise ValueError(f"cell {(r, c)} outside box {self.ctx}")

    def __repr__(self) -> str:
        return f"Diagram({sorted(self.cells)!r}, ctx={self.ctx!r})"


def diagram(cells: Iterable[Cell], ctx: RectangleContext | None = None) -> Diagram:
    return Diagram(frozenset((r, c) for r, c in cells), ctx)


def complement_rotate(d: Diagram, ctx: RectangleContext) -> Diagram:
    """Complement within the box, rotated 180 degrees; an involution.

    >>> sorted(complement_rotate(diagram([]), RectangleContext(1, 2)).cells)
    [(1, 1), (1, 2)]
    """
    rows, cols = ctx
    for r, c in d.cells:
        if r > rows or c > cols:
            raise ShapeTooLarge(f"cell {(r, c)} outside {rows}x{cols}")
    out = frozenset(
        (rows + 1 - r, cols + 1 - c)
        for r in range(1, rows + 1)
        for c in range(1, cols + 1)
        if (r, c) not in d.cells
    )
    return Diagram._trusted(out, ctx)


def diagram_of_permutation(w: Permutation) -> Diagram:
    """Inversion diagram: a cell (i, w(j)) for each inversion i < j.

    >>> sorted(diagram_of_permutation((2, 4, 1, 5, 3)).cells)
    [(1, 1), (2, 1), (2, 3), (4, 3)]
    """
    w = check_permutation(w)
    cells = [(i, c) for i, row in enumerate(_rothe_rows(w), 1) for c in w[i:] if row >> c & 1]
    return Diagram._trusted(frozenset(cells))


def staircase_pattern(w: Permutation) -> Diagram:
    """Row i carries the interval of columns w(i) .. i + n, inside [n] x [2n]."""
    w = check_permutation(w)
    n = len(w)
    cells = {(i, c) for i in range(1, n + 1) for c in range(w[i - 1], i + n + 1)}
    return Diagram._trusted(frozenset(cells), RectangleContext(n, 2 * n))


def _transfer(rows: list[int], i: int, j: int) -> None:
    """Move, in place, bit i to bit j in every row mask whose bit j is clear:
    the column transfer i -> j, i != j, on a diagram stored one int per row."""
    bit_i, both = 1 << i, 1 << i | 1 << j
    for r, mask in enumerate(rows):
        if mask & both == bit_i:
            rows[r] = mask ^ both


def james_peel_move(d: Diagram, i: int, j: int) -> Diagram:
    """Column transfer: in every row whose column-j slot is empty, the cell
    in column i (if any) moves to column j.

    >>> sorted(james_peel_move(diagram([(1, 1), (3, 1), (2, 2), (3, 2)]), 1, 2).cells)
    [(1, 2), (2, 2), (3, 1), (3, 2)]
    """
    if i == j:
        raise ValueError("source and target columns must differ")
    moved = [r for r, c in d.cells if c == i and (r, j) not in d.cells]
    if not moved:
        return d
    # the moved cells differ from cells of d only in their column j, so the
    # public check of one of them checks them all
    ((_, j),) = Diagram({(moved[0], j)}, d.ctx).cells
    cells = d.cells.difference([(r, i) for r in moved]).union([(r, j) for r in moved])
    return Diagram._trusted(cells, d.ctx)


def degeneration_check(w: Permutation) -> bool:
    """Apply the column transfers n+i -> w(i), rightmost first, to the
    staircase pattern of w, and test the two structure properties: inside
    the first n columns the result is the complement of the inversion
    diagram, and any surviving cell (i, j) with j > n forces row j - n of
    the inversion diagram to contain row i.
    """
    w = check_permutation(w)
    n = len(w)
    # row i as a mask with bit c for column c: columns w(i) .. i + n
    pattern = [(2 << (i + n)) - (1 << w[i - 1]) for i in range(1, n + 1)]
    for i in range(n, 0, -1):
        _transfer(pattern, n + i, w[i - 1])
    return _degeneration_holds(w, pattern)


def _degeneration_holds(w: Permutation, pattern: list[int]) -> bool:
    """The two structure properties degeneration_check tests, on row masks."""
    n, inv = len(w), _rothe_rows(w)
    square = (2 << n) - 2  # columns 1..n
    for row, inv_row in zip(pattern, inv):
        if row & square != square ^ inv_row:
            return False
        high = row >> (n + 1)  # bit t: column n + 1 + t, of inversion row t + 1
        while high:
            low = high & -high
            if inv_row & ~inv[low.bit_length() - 1]:
                return False
            high ^= low
    return True


def product_diagram(d1: Diagram, ctx1: RectangleContext, d2: Diagram) -> Diagram:
    """Disjoint block product: d1 in its box, d2 shifted past the corner.

    >>> sorted(product_diagram(diagram([(1, 1)]), RectangleContext(1, 1), diagram([(1, 1)])).cells)
    [(1, 1), (2, 2)]
    """
    a, b = ctx1
    for r, c in d1.cells:
        if r > a or c > b:
            raise ShapeTooLarge(f"cell {(r, c)} outside {a}x{b}")
    shifted = {(r + a, c + b) for r, c in d2.cells}
    return Diagram(frozenset(d1.cells) | shifted)


def _as_skew(d: Diagram) -> SchurExpansion | None:
    """Recognize the cells as a literal skew shape after deleting empty
    columns and sorting rows by leftmost cell (descending, ties by
    rightmost), neither of which changes the module.  The sort leaves the
    inner shape decreasing, and a block product of skew shapes passes: its
    lower block's rows come first."""
    col_index = {c: i for i, c in enumerate(sorted({c for _, c in d.cells}), 1)}
    rows: dict[int, list[int]] = {}
    for r, c in d.cells:
        rows.setdefault(r, []).append(col_index[c])
    spans = []
    for row in rows.values():
        lo, hi = min(row), max(row)
        if len(row) != hi - lo + 1:
            return None
        spans.append((lo, hi))
    spans.sort(key=lambda span: (-span[0], -span[1]))
    outer = [hi for _, hi in spans]
    if any(a < b for a, b in zip(outer, outer[1:])):
        return None
    return skew_schur(partition(outer), tuple(lo - 1 for lo, _ in spans))


def _has_block_split(d: Diagram) -> bool:
    """Whether some row cut leaves cells on both sides with every cell
    below it right of every cell above it."""
    rows = sorted({r for r, _ in d.cells})
    return any(
        max(c for r, c in d.cells if r <= cut) < min(c for r, c in d.cells if r > cut)
        for cut in rows[:-1]
    )


# The message raised, per shape family, when the diagram is not recognized.
_UNRECOGNIZED = {
    None: "no decomposition rule for {}",
    "skew": "{} is not a skew shape",
    "product": "{} admits no block split",
}


def specht_schur(d: Diagram, family: str | None = None) -> SchurExpansion:
    """Schur expansion of the diagram module for a recognized family.

    family may be None or "skew" (a skew shape), "product" (a block split
    whose cells form a skew shape), "dual" (requires the diagram's box), or
    "perm:<one-line>".  No rule is guessed for anything else.

    >>> specht_schur(diagram([(1, 1), (2, 2)])).text()
    '1*s[1,1] + 1*s[2]'
    """
    if family == "dual":
        if d.ctx is None:
            raise UnsupportedDiagram("dual family needs the diagram's box")
        primal = specht_schur(complement_rotate(d, d.ctx))
        return SchurExpansion({complement(lam, d.ctx): c for lam, c in primal.items()})
    if isinstance(family, str) and family.startswith("perm:"):
        w = parse_permutation(family[len("perm:"):])
        if d.cells != diagram_of_permutation(w).cells:
            raise UnsupportedDiagram(
                f"{sorted(d.cells)} is not the inversion diagram of {w}"
            )
        return stanley(w)
    if family not in _UNRECOGNIZED:
        raise ParseError(f"unknown family {family!r}")
    if not d.cells:
        return SchurExpansion.one()
    found = _as_skew(d) if family != "product" or _has_block_split(d) else None
    if found is None:
        raise UnsupportedDiagram(_UNRECOGNIZED[family].format(sorted(d.cells)))
    return found


def specht_dim(e: SchurExpansion) -> int:
    """Dimension of a decomposition: sum of multiplicities times standard
    tableau counts.  Rejects negative multiplicities.

    >>> specht_dim(SchurExpansion.basis((1,)))
    1
    """
    total = 0
    for lam, c in e.items():
        if c < 0:
            raise NegativeMultiplicity(f"coefficient {c} on {lam}")
        total += c * syt_count(lam)
    return total


# ---------------------------------------------------------------------------
# Brute-force oracle: the span of the polytabloids.

# A tabloid gives each label 0..m-1 the row of its cell; a Row is a sparse
# integer vector over tabloids.
Tabloid = tuple[int, ...]
Row = dict[Tabloid, int]


def _cycle_type_rep(mu: Partition, m: int) -> tuple[int, ...]:
    rep = list(range(m))
    pos = 0
    for part in mu:
        for offset in range(part):
            rep[pos + offset] = pos + (offset + 1) % part
        pos += part
    return tuple(rep)


def _normalized_row(r: Row) -> Row:
    g = 0
    for v in r.values():
        g = gcd(g, v)
    if r[min(r)] < 0:
        g = -g
    return {c: v // g for c, v in r.items()}


def _combine_rows(r1: Row, r2: Row, col: Tabloid) -> Row:
    # r1 * r2[col] - r2 * r1[col], which zeroes column col
    a, b = r2[col], r1[col]
    out = {c: v * a for c, v in r1.items()}
    for c, v in r2.items():
        w = out.get(c, 0) - v * b
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return out


def _rref_insert(pivot_rows: dict[Tabloid, Row], row: Row) -> None:
    """Insert a sparse integer row into a fully reduced echelon basis.

    Rows are gcd-normalized integer vectors; every stored row vanishes on
    all pivot columns except its own, so coordinates in the spanned space
    can be read off the pivot entries.
    """
    while row:
        hit = min((c for c in row if c in pivot_rows), default=None)
        if hit is None:
            break
        row = _combine_rows(row, pivot_rows[hit], hit)
    if not row:
        return
    row = _normalized_row(row)
    lead = min(row)
    for pc, prow in list(pivot_rows.items()):
        if lead in prow:
            pivot_rows[pc] = _normalized_row(_combine_rows(prow, row, lead))
    pivot_rows[lead] = row


def _polytabloids(cells: frozenset[Cell]) -> Iterable[Row]:
    """The polytabloid of each column-increasing filling, up to sign.

    A filling puts label x in cell filling[x].  The fillings that put every
    label in the same column differ by permutations within columns, so
    together, signed by parity, they make one polytabloid: the signed sum
    of the tabloids they produce.
    """
    ordered = sorted(cells)
    rows, cols = [r for r, _ in ordered], [c for _, c in ordered]
    vectors: dict[tuple[int, ...], Row] = {}
    for perm, sign in _signed_permutations(len(cells)):
        vector = vectors.setdefault(tuple(cols[x] for x in perm), {})
        vector[tuple(rows[x] for x in perm)] = sign
    return vectors.values()


@lru_cache(maxsize=8)
def _signed_permutations(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each permutation of range(m), in lexicographic order, with its sign."""
    return tuple((p, (-1) ** inversions(p)) for p in iter_permutations(range(m)))


def specht_bruteforce(d: Diagram) -> SchurExpansion:
    """Decompose the diagram module from its definition, the span of the
    polytabloids inside the tabloid module.

    Reduces the polytabloids of all column-increasing fillings to an exact
    integer echelon basis, takes the character from integer-scaled traces
    in that basis, and pairs it against the irreducible characters.  Limited
    to diagrams with at most 6 cells; memoized, in a bounded table, on the
    exact cell set (not the box).

    >>> specht_bruteforce(diagram([(1, 1), (1, 2), (1, 3)])).text()
    '1*s[3]'
    """
    m = len(d.cells)
    if m > 6:
        raise TooLarge(f"{m} cells; the polytabloid route stops at 6")
    return _polytabloid_expansion(d.cells)


@lru_cache(maxsize=4096)
def _polytabloid_expansion(cells: frozenset[Cell]) -> SchurExpansion:
    m = len(cells)
    pivot_rows: dict[Tabloid, Row] = {}
    for vector in _polytabloids(cells):
        _rref_insert(pivot_rows, vector)
    # Each pivot row contributes row[t o sigma] / row[lead] to the trace of
    # sigma (any action convention gives the same class function); scale by
    # the lcm of the pivot entries and by the class size m!/z_mu.
    scale = lcm(*(row[lead] for lead, row in pivot_rows.items()))
    traces = {}
    for mu in all_partitions(m):
        sigma = _cycle_type_rep(mu, m)
        trace = sum(
            row.get(tuple(lead[x] for x in sigma), 0) * (scale // row[lead])
            for lead, row in pivot_rows.items()
        )
        traces[mu] = trace * (factorial(m) // centralizer_order(mu))
    data, denominator = {}, scale * factorial(m)
    for lam in all_partitions(m):
        total = sum(t * mn_character(lam, mu) for mu, t in traces.items())
        mult, rest = divmod(total, denominator)
        if rest or mult < 0:
            raise AssertionError(f"bad multiplicity {total}/{denominator} on {lam}")
        if mult:
            data[lam] = mult
    expansion = SchurExpansion(data)
    assert specht_dim(expansion) == len(pivot_rows)
    return expansion


_DIAGRAM_RE = re.compile(r"\((\d+),(\d+)\)")


def diagram_text(d: Diagram) -> str:
    body = ",".join(f"({r},{c})" for r, c in sorted(d.cells))
    if d.ctx is not None:
        return f"{body};box={d.ctx.rows}x{d.ctx.cols}"
    return body


def parse_diagram(text: str) -> Diagram:
    text = text.strip()
    ctx = None
    body = text
    if ";box=" in text:
        body, _, boxtext = text.partition(";box=")
        match = re.fullmatch(r"(\d+)x(\d+)", boxtext.strip())
        if not match:
            raise ParseError(f"bad box spec in {text!r}")
        ctx = RectangleContext(int(match.group(1)), int(match.group(2)))
    body = body.strip()
    cells = []
    if body:
        if not re.fullmatch(r"\(\d+,\d+\)(,\(\d+,\d+\))*", body):
            raise ParseError(f"bad diagram body {body!r}")
        cells = [(int(r), int(c)) for r, c in _DIAGRAM_RE.findall(body)]
    try:
        return diagram(cells, ctx)
    except ValueError as exc:
        raise ParseError(f"bad diagram {text!r}: {exc}") from None
