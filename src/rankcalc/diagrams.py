"""Diagrams (finite cell sets), column-transfer moves, permutation diagram
degenerations, and Specht module decompositions.

Two independent routes to the Schur expansion of a diagram module live
here.  specht_schur handles the recognized families: literal skew shapes
(after sorting rows by leftmost cell), permutation diagrams given with
their permutation, block products of supported parts, and box duals of
supported diagrams.  specht_bruteforce builds the left ideal generated by
the signed column-row symmetrizer inside the group algebra, extracts its
character from traces in an exact echelon basis, and reads multiplicities
off against the irreducible characters; it is the safety net the family
rules are checked against.

Diagram text form: "(1,1),(2,2);box=4x4" (box optional).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from math import gcd
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
    check_permutation,
    inversions,
    parse_permutation,
    stanley,
)
from .symfunc import SchurExpansion, schur_product, skew_schur

Cell = tuple[int, int]


@dataclass(frozen=True)
class Diagram:
    """A finite set of (row, col) cells, optionally with a bounding box."""

    cells: frozenset[Cell]
    ctx: RectangleContext | None = None

    def __post_init__(self):
        cells = frozenset((int(r), int(c)) for r, c in self.cells)
        object.__setattr__(self, "cells", cells)
        for r, c in cells:
            if r < 1 or c < 1:
                raise ValueError(f"cell coordinates must be positive: {(r, c)}")
            if self.ctx is not None and (r > self.ctx.rows or c > self.ctx.cols):
                raise ValueError(f"cell {(r, c)} outside box {self.ctx}")

    def size(self) -> int:
        return len(self.cells)

    def row(self, r: int) -> frozenset[int]:
        return frozenset(c for rr, c in self.cells if rr == r)

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
    return Diagram(out, ctx)


def diagram_of_permutation(w: Permutation) -> Diagram:
    """Inversion diagram: a cell (i, w(j)) for each inversion i < j.

    >>> sorted(diagram_of_permutation((2, 4, 1, 5, 3)).cells)
    [(1, 1), (2, 1), (2, 3), (4, 3)]
    """
    w = check_permutation(w)
    n = len(w)
    cells = frozenset(
        (i + 1, w[j])
        for i in range(n)
        for j in range(i + 1, n)
        if w[i] > w[j]
    )
    return Diagram(cells)


def staircase_pattern(w: Permutation) -> Diagram:
    """Row i carries the interval of columns w(i) .. i + n, inside [n] x [2n]."""
    w = check_permutation(w)
    n = len(w)
    cells = frozenset(
        (i, c) for i in range(1, n + 1) for c in range(w[i - 1], i + n + 1)
    )
    return Diagram(cells, RectangleContext(n, 2 * n))


def james_peel_move(d: Diagram, i: int, j: int) -> Diagram:
    """Column transfer: in every row whose column-j slot is empty, the cell
    in column i (if any) moves to column j.

    >>> sorted(james_peel_move(diagram([(1, 1), (3, 1), (2, 2), (3, 2)]), 1, 2).cells)
    [(1, 2), (2, 2), (3, 1), (3, 2)]
    """
    if i == j:
        raise ValueError("source and target columns must differ")
    cells = set(d.cells)
    rows = {r for r, _ in cells}
    for r in rows:
        if (r, j) not in cells and (r, i) in cells:
            cells.discard((r, i))
            cells.add((r, j))
    return Diagram(frozenset(cells), d.ctx)


def degeneration_check(w: Permutation) -> bool:
    """Apply the column transfers n+i -> w(i), rightmost first, to the
    staircase pattern of w, and test the two structure properties: inside
    the first n columns the result is the complement of the inversion
    diagram, and any surviving cell (i, j) with j > n forces row j - n of
    the inversion diagram to contain row i.
    """
    w = check_permutation(w)
    n = len(w)
    pattern = staircase_pattern(w)
    for i in range(n, 0, -1):
        pattern = james_peel_move(pattern, n + i, w[i - 1])
    inv = diagram_of_permutation(w)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if ((i, j) in pattern.cells) == ((i, j) in inv.cells):
                return False
    for i, j in pattern.cells:
        if j > n and not (inv.row(i) <= inv.row(j - n)):
            return False
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


def _compressed_rows(d: Diagram) -> list[frozenset[int]]:
    """Delete empty rows and columns, returning the rows as column sets."""
    if not d.cells:
        return []
    row_index = {r: i for i, r in enumerate(sorted({r for r, _ in d.cells}))}
    col_index = {c: i + 1 for i, c in enumerate(sorted({c for _, c in d.cells}))}
    rows: list[set[int]] = [set() for _ in row_index]
    for r, c in d.cells:
        rows[row_index[r]].add(col_index[c])
    return [frozenset(row) for row in rows]


def _as_skew(d: Diagram) -> tuple[Partition, Partition] | None:
    """Recognize the cells as a literal skew shape after compressing away
    empty rows and columns and sorting rows by leftmost cell (descending,
    ties by rightmost).  Row sorting is a permutation of the rows, which
    leaves the module unchanged."""
    rows = _compressed_rows(d)
    if not rows:
        return ((), ())
    spans = []
    for row in rows:
        lo, hi = min(row), max(row)
        if len(row) != hi - lo + 1:
            return None
        spans.append((lo, hi))
    spans.sort(key=lambda span: (-span[0], -span[1]))
    outer, inner = [], []
    for lo, hi in spans:
        outer.append(hi)
        inner.append(lo - 1)
    if any(a < b for a, b in zip(outer, outer[1:])):
        return None
    if any(a < b for a, b in zip(inner, inner[1:])):
        return None
    return (partition(outer), tuple(inner))


def _try_product_split(d: Diagram) -> SchurExpansion | None:
    rows = sorted({r for r, _ in d.cells})
    for cut_index in range(1, len(rows)):
        cut = rows[cut_index - 1]
        top = {(r, c) for r, c in d.cells if r <= cut}
        bottom = {(r, c) for r, c in d.cells if r > cut}
        col_cut = max(c for _, c in top)
        if any(c <= col_cut for _, c in bottom):
            continue
        d2 = diagram((r - cut, c - col_cut) for r, c in bottom)
        try:
            top_exp = specht_schur(diagram(top))
            bottom_exp = specht_schur(d2)
        except UnsupportedDiagram:
            continue
        return schur_product(top_exp, bottom_exp)
    return None


def specht_schur(d: Diagram, family=None) -> SchurExpansion:
    """Schur expansion of the diagram module for a recognized family.

    family may be None (recognize a skew shape or a block product), "skew",
    "product", "dual" (requires the diagram's box), or "perm:<one-line>".
    No rule is guessed for anything else.

    >>> specht_schur(diagram([(1, 1), (2, 2)])).text()
    '1*s[1,1] + 1*s[2]'
    """
    if family is None:
        if not d.cells:
            return SchurExpansion.one()
        skew = _as_skew(d)
        if skew is not None:
            return skew_schur(*skew)
        product = _try_product_split(d)
        if product is not None:
            return product
        raise UnsupportedDiagram(f"no decomposition rule for {sorted(d.cells)}")
    if family == "skew":
        skew = _as_skew(d)
        if skew is None:
            raise UnsupportedDiagram(f"{sorted(d.cells)} is not a skew shape")
        return skew_schur(*skew)
    if family == "product":
        if not d.cells:
            return SchurExpansion.one()
        product = _try_product_split(d)
        if product is None:
            raise UnsupportedDiagram(f"{sorted(d.cells)} admits no block split")
        return product
    if family == "dual":
        if d.ctx is None:
            raise UnsupportedDiagram("dual family needs the diagram's box")
        primal = specht_schur(complement_rotate(d, d.ctx))
        return SchurExpansion({complement(lam, d.ctx): c for lam, c in primal.items()})
    if isinstance(family, str) and family.startswith("perm:"):
        family = ("perm", parse_permutation(family[len("perm:"):]))
    if isinstance(family, tuple) and family and family[0] == "perm":
        w = check_permutation(family[1])
        if d.cells != diagram_of_permutation(w).cells:
            raise UnsupportedDiagram(
                f"{sorted(d.cells)} is not the inversion diagram of {w}"
            )
        return stanley(w)
    raise UnsupportedDiagram(f"unknown family {family!r}")


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
# Brute-force oracle through the group algebra.


def _perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(x) = p(q(x)), 0-indexed tuples
    return tuple(p[x] for x in q)


def _block_subgroup(blocks: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """All permutations of 0..m-1 preserving each block pointwise-setwise."""
    members = [tuple(range(m))]
    for block in blocks:
        if len(block) < 2:
            continue
        extended = []
        for base in members:
            for image in iter_permutations(block):
                g = list(base)
                for slot, val in zip(block, image):
                    g[slot] = base[val]
                extended.append(tuple(g))
        members = extended
    return members


def _cycle_type_rep(mu: Partition, m: int) -> tuple[int, ...]:
    rep = list(range(m))
    pos = 0
    for part in mu:
        for offset in range(part):
            rep[pos + offset] = pos + (offset + 1) % part
        pos += part
    return tuple(rep)


def _normalized_row(r: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in r.values():
        g = gcd(g, v)
    if r[min(r)] < 0:
        g = -g
    return {c: v // g for c, v in r.items()}


def _combine_rows(r1: dict[int, int], r2: dict[int, int], col: int) -> dict[int, int]:
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


def _rref_insert(pivot_rows: dict[int, dict[int, int]], row: dict[int, int]) -> None:
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


def specht_bruteforce(d: Diagram) -> SchurExpansion:
    """Decompose the diagram module by explicit group algebra computation.

    Fixes the row-reading bijective filling, forms the element
    sum_{p in R} sum_{q in C} sgn(q) q p, spans its left ideal by exact
    integer row reduction, takes the character from traces of left
    multiplication in the echelon basis, and pairs against the irreducible
    characters.  Limited to diagrams with at most 6 cells.

    >>> specht_bruteforce(diagram([(1, 1), (1, 2), (1, 3)])).text()
    '1*s[3]'
    """
    m = d.size()
    if m > 6:
        raise TooLarge(f"{m} cells; the group algebra route stops at 6")
    if m == 0:
        return SchurExpansion.one()
    filling = {cell: idx for idx, cell in enumerate(sorted(d.cells))}
    return _bruteforce_from_filling(d, filling)


def _bruteforce_from_filling(d: Diagram, filling: dict[Cell, int]) -> SchurExpansion:
    m = len(filling)
    elements = sorted(iter_permutations(range(m)))
    index = {g: i for i, g in enumerate(elements)}

    def blocks_by(axis: int) -> list[list[int]]:
        groups: dict[int, list[int]] = {}
        for (r, c), label in filling.items():
            groups.setdefault((r, c)[axis], []).append(label)
        return [sorted(v) for _, v in sorted(groups.items())]

    row_group = _block_subgroup(blocks_by(0), m)
    col_group = _block_subgroup(blocks_by(1), m)

    generator: dict[int, int] = {}
    for q in col_group:
        sq = (-1) ** inversions(q)
        for p in row_group:
            idx = index[_perm_compose(q, p)]
            generator[idx] = generator.get(idx, 0) + sq
    generator = {i: v for i, v in generator.items() if v}

    # left cosets of the column group scale the generator by a sign, so one
    # spanning row per coset is enough
    pivot_rows: dict[int, dict[int, int]] = {}
    covered = [False] * len(elements)
    for gi, g in enumerate(elements):
        if covered[gi]:
            continue
        for q in col_group:
            covered[index[_perm_compose(g, q)]] = True
        row = {index[_perm_compose(g, elements[x])]: v for x, v in generator.items()}
        _rref_insert(pivot_rows, row)

    def character(sigma: tuple[int, ...]) -> Fraction:
        sigma_inv = tuple(sorted(range(m), key=lambda x: sigma[x]))
        total = Fraction(0)
        for pc, prow in pivot_rows.items():
            shifted = index[_perm_compose(sigma_inv, elements[pc])]
            val = prow.get(shifted, 0)
            if val:
                total += Fraction(val, prow[pc])
        return total

    char_values = {
        mu: character(_cycle_type_rep(mu, m)) for mu in all_partitions(m)
    }
    data = {}
    for lam in all_partitions(m):
        mult = sum(
            char_values[mu] * mn_character(lam, mu) / centralizer_order(mu)
            for mu in all_partitions(m)
        )
        if mult.denominator != 1 or mult < 0:
            raise AssertionError(f"bad multiplicity {mult} on {lam}")
        if mult:
            data[lam] = int(mult)
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
