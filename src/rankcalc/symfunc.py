"""Sparse symmetric-function expansions in the Schur and monomial bases.

An expansion is a finite integer combination of basis elements indexed by
partitions; zero coefficients are never stored and iteration follows the
fixed partition order, so printing is deterministic.  Basis conversion goes
through Kostka rows built by horizontal strips, and monomial_to_schur
inverts that unitriangular system by eliminating dominance-maximal terms.
Products read the LR walk of partitions, each pair of terms in the
cheapest of its four readings.

Text form: "1*s[2,2] + 1*s[3,1] - 1*s[4]" (letter 'm' for the monomial
basis); the zero expansion renders as "0".
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache
from itertools import count, product
from operator import index, mul

from .errors import NotHomogeneous, ParseError
from .partitions import (
    Partition,
    _lr_walk,
    conjugate,
    partition,
    partition_text,
    parse_partition,
    sort_key,
)


def _term_key(term: tuple[Partition, int]) -> tuple[int, Partition]:
    return sort_key(term[0])


class _Expansion:
    """Shared mechanics for expansions in a fixed basis.

    The public constructor validates every term; _trusted does not.
    Subclasses hook in at two points: _key turns each incoming index into a
    partition (and may reject it), and _like builds the result of +, -,
    unary - and scalar * (and may check the other operand).
    """

    basis_letter = "?"
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Partition, int] | Iterable[tuple[Partition, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Partition, int] = {}
        for lam, c in items:
            lam = self._key(lam)
            c = index(c)
            if c:
                data[lam] = data.get(lam, 0) + c
        self._terms = {lam: c for lam, c in sorted(data.items(), key=_term_key) if c}

    @classmethod
    def _trusted(cls, terms: Mapping[Partition, int]):
        """Drop zeros and sort, with no checks: the caller guarantees int
        values and keys that _key would return unchanged."""
        self = object.__new__(cls)
        self._terms = {lam: c for lam, c in sorted(terms.items(), key=_term_key) if c}
        return self

    def _key(self, lam) -> Partition:
        return partition(lam)

    def _like(self, terms: Mapping[Partition, int], other=None):
        return self._trusted(terms)

    @classmethod
    def basis(cls, lam: Partition):
        return cls({partition(lam): 1})

    @classmethod
    def one(cls):
        """The constant 1: coefficient 1 on the empty partition."""
        return cls({(): 1})

    def terms(self) -> dict[Partition, int]:
        return dict(self._terms)

    def coeff(self, lam: Partition) -> int:
        return self._terms.get(partition(lam), 0)

    def items(self) -> Iterator[tuple[Partition, int]]:
        return iter(self._terms.items())

    def degree(self) -> int:
        """Top degree of the support (0 for the zero expansion)."""
        return max((sum(lam) for lam in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_nonnegative(self) -> bool:
        """True iff every stored coefficient is nonnegative."""
        return all(c >= 0 for c in self._terms.values())

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(self._terms.items())))

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self._terms)
        for lam, c in other.items():
            data[lam] = data.get(lam, 0) + sign * c
        return self._like(data, other)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._like({lam: -c for lam, c in self.items()})

    def __mul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return self._like({lam: scalar * c for lam, c in self.items()})

    __rmul__ = __mul__

    def text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for i, (lam, c) in enumerate(self.items()):
            body = f"{abs(c)}*{self.basis_letter}[{partition_text(lam)}]"
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"


class SchurExpansion(_Expansion):
    basis_letter = "s"


class MonomialExpansion(_Expansion):
    basis_letter = "m"


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape lam and content mu; the
    content is any nonnegative ints, in any order, zeros ignored.

    >>> kostka((2, 1), (1, 1, 1))
    2
    """
    lam = partition(lam)
    content = partition(sorted(mu, reverse=True))
    return dict(_schur_monomial_row(lam)).get(content, 0)


@lru_cache(maxsize=None)
def _schur_monomial_row(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """The nonzero K_{lam mu} as (mu, K) in sort_key order, by horizontal
    strips (Macdonald I.5): the r > 0 cells of the largest entry form a
    strip lam/nu, lam[i + 1] <= nu[i] <= lam[i], and each K_{nu mu'} with
    mu' = () or mu'[-1] >= r adds to K_{lam, mu' + (r,)}."""
    if not lam:
        return (((), 1),)
    size = sum(lam)
    spans = [range(low, top + 1) for top, low in zip(lam, lam[1:] + (0,))]
    row: dict[Partition, int] = {}
    for nu in product(*spans):
        r = size - sum(nu)
        if not r:
            continue
        # nu[i] >= lam[i + 1] > 0 above the last row, so only nu[-1] can be 0
        for mu, k in _schur_monomial_row(nu if nu[-1] else nu[:-1]):
            if not mu or mu[-1] >= r:
                key = mu + (r,)
                row[key] = row.get(key, 0) + k
    return tuple(sorted(row.items()))


def schur_to_monomial(s: SchurExpansion) -> MonomialExpansion:
    """Expand into monomial symmetric functions via Kostka numbers.

    >>> schur_to_monomial(SchurExpansion.basis((2,))).text()
    '1*m[1,1] + 1*m[2]'
    """
    data: dict[Partition, int] = {}
    for lam, c in s.items():
        for mu, k in _schur_monomial_row(lam):
            data[mu] = data.get(mu, 0) + c * k
    return MonomialExpansion._trusted(data)


def monomial_to_schur(m: MonomialExpansion) -> SchurExpansion:
    """Invert the Kostka system; requires a homogeneous input.

    The Kostka matrix is unitriangular with respect to dominance, and the
    lexicographic comparison on part tuples linearly extends dominance, so
    the lex-greatest support element is dominance-maximal and stripping it
    repeatedly terminates.

    >>> monomial_to_schur(MonomialExpansion.basis((2,))).text()
    '-1*s[1,1] + 1*s[2]'
    """
    degrees = {sum(lam) for lam, _ in m.items()}
    if len(degrees) > 1:
        raise NotHomogeneous(f"mixed degrees {sorted(degrees)}")
    work = m.terms()
    out: dict[Partition, int] = {}
    while work:
        lam = max(work)
        c = work.pop(lam)
        out[lam] = c
        for mu, k in _schur_monomial_row(lam):
            if mu == lam:
                continue
            v = work.get(mu, 0) - c * k
            if v:
                work[mu] = v
            else:
                work.pop(mu, None)
    return SchurExpansion._trusted(out)


def schur_product(
    a: _Expansion, b: _Expansion, box: tuple[int, int] | None = None
) -> SchurExpansion:
    """Product via the Littlewood-Richardson rule, extended bilinearly: one
    walk per pair of terms, each read as a Schur function, inside
    ``box=(rows, cols)`` if given, else in the l(mu) + l(nu) rows of
    mu_1 + nu_1 columns outside which c^lam_{mu nu} vanishes.  As
    c^lam_{mu nu} = c^lam_{nu mu} = c^lam'_{mu' nu'}, each pair walks the
    cheapest of four readings: it strips the factor of least n(.), n(lam) =
    sum (i - 1) lam_i and n(lam') = sum lam_i (lam_i - 1) / 2, trying nu on
    mu, mu on nu, nu' on mu' and mu' on nu' in that order; a conjugate
    reading walks the transposed box and conjugates what it returns.

    >>> schur_product(SchurExpansion.basis((1,)), SchurExpansion.basis((1,))).text()
    '1*s[1,1] + 1*s[2]'
    >>> schur_product(SchurExpansion.basis((1,)), SchurExpansion.basis((1,)), box=(1, 2)).text()
    '1*s[2]'
    """
    data: dict[Partition, int] = {}
    for mu, cm in a.items():
        for nu, cn in b.items():
            rows, cols = box or (len(mu) + len(nu), sum(mu[:1]) + sum(nu[:1]))
            costs = [sum(map(mul, count(), nu)), sum(map(mul, count(), mu))]
            costs += [sum(p * (p - 1) // 2 for p in nu), sum(p * (p - 1) // 2 for p in mu)]
            pick = costs.index(min(costs))
            first, second = (mu, nu) if pick % 2 == 0 else (nu, mu)
            if pick < 2:
                walk = _lr_walk(first, second, rows, cols)
            else:
                walk = _lr_walk(conjugate(first), conjugate(second), cols, rows)
                walk = [(conjugate(lam), c) for lam, c in walk]
            for lam, c in walk:
                data[lam] = data.get(lam, 0) + cm * cn * c
    return SchurExpansion._trusted(data)


_TERM_RE = re.compile(r"^(\d+)\*([a-z])\[([^\[\]]*)\]$")


def parse_expansion(text: str, cls=SchurExpansion):
    """Parse the documented text form back into an expansion.

    >>> parse_expansion("1*s[2,2] + 1*s[3,1] - 1*s[4]").coeff((4,))
    -1
    """
    return cls(_parse_terms(text, cls.basis_letter))


def _parse_terms(text: str, letter: str) -> dict[Partition, int]:
    """The nonzero coefficients of an expansion text in the basis `letter`."""
    body = text.strip()
    if body == "0":
        return {}
    if body.startswith("-"):
        body = body[1:].lstrip()
        signs = [-1]
    else:
        signs = [1]
    chunks = re.split(r"\s+([+-])\s+", body)
    terms = [chunks[0]]
    for i in range(1, len(chunks), 2):
        signs.append(1 if chunks[i] == "+" else -1)
        terms.append(chunks[i + 1])
    data: dict[Partition, int] = {}
    for sign, term in zip(signs, terms):
        match = _TERM_RE.match(term.strip())
        if not match:
            raise ParseError(f"bad expansion term {term!r}")
        coeff, found, inner = match.groups()
        if found != letter:
            raise ParseError(f"expected basis {letter!r}, got {found!r}")
        lam = parse_partition(inner)
        data[lam] = data.get(lam, 0) + sign * int(coeff)
    return {lam: c for lam, c in data.items() if c}
