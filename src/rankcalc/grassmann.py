"""The cohomology ring of the Grassmannian Gr(k, n) in the Schubert basis.

A SchubertClass carries its (k, n) context inline and refuses arithmetic
against another context: every change of Grassmannian must go through
symmetric functions (read the terms as a SchurExpansion) followed by a
fresh truncation, which is exactly how restriction along an inclusion of
Grassmannians acts on the Schubert basis.

Text form mirrors the Schur expansion with letter 'o' and a context suffix:
"1*o[2,2]@Gr(2,4)"; the zero class renders as "0@Gr(2,4)".
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from operator import index

from .errors import ContextMismatch, ParseError, ShapeTooLarge
from .partitions import (
    Partition,
    RectangleContext,
    complement,
    contains,
    fits,
    partition,
    syt_count,
)
from .perms import skew_schur
from .symfunc import SchurExpansion, _Expansion, _parse_terms, schur_product


class SchubertClass(_Expansion):
    """An integer combination of Schubert classes in a fixed Gr(k, n); the
    public constructor also checks that k and n are integers, 0 <= k <= n."""

    basis_letter = "o"
    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int, terms: Mapping[Partition, int] = ()):
        k, n = index(k), index(n)
        if not (0 <= k <= n):
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        self.k, self.n = k, n
        super().__init__(terms)

    @classmethod
    def _trusted(cls, k: int, n: int, terms: Mapping[Partition, int]) -> SchubertClass:
        """No checks: the caller guarantees ints 0 <= k <= n and terms that
        _Expansion._trusted accepts, each fitting in k x (n-k)."""
        self = super()._trusted(terms)
        self.k, self.n = k, n
        return self

    def _key(self, lam) -> Partition:
        lam = partition(lam)
        if not fits(lam, self.k, self.n - self.k):
            raise ValueError(f"{lam} does not fit in {self.k}x{self.n - self.k}")
        return lam

    def _like(self, terms: Mapping[Partition, int], other=None) -> SchubertClass:
        if other is not None:
            _same_context(self, other)
        return SchubertClass._trusted(self.k, self.n, terms)

    @classmethod
    def basis(cls, lam: Partition, k: int, n: int):
        return cls(k, n, {partition(lam): 1})

    @classmethod
    def one(cls, k: int, n: int):
        """The fundamental class: coefficient 1 on the empty partition."""
        return cls(k, n, {(): 1})

    def context(self) -> tuple[int, int]:
        return (self.k, self.n)

    def __eq__(self, other) -> bool:
        return super().__eq__(other) and self.context() == other.context()

    def __hash__(self) -> int:
        return hash((self.k, self.n, tuple(self._terms.items())))

    def text(self) -> str:
        return f"{super().text()}@Gr({self.k},{self.n})"


def phi(s: SchurExpansion, k: int, n: int) -> SchubertClass:
    """Truncate a Schur expansion to the classes fitting in k x (n-k).

    >>> not phi(SchurExpansion.basis((5,)), 4, 8)
    True
    """
    k, n = SchubertClass(k, n).context()  # the constructor's checks on k and n
    return SchubertClass._trusted(k, n, {lam: c for lam, c in s.items() if fits(lam, k, n - k)})


def _same_context(a: SchubertClass, b: SchubertClass) -> None:
    if a.context() != b.context():
        raise ContextMismatch(f"{a.context()} vs {b.context()}")


def class_product(a: SchubertClass, b: SchubertClass) -> SchubertClass:
    """Product: multiply the terms as Schur functions by the
    Littlewood-Richardson rule, computing only the terms that fit in
    k x (n-k); phi being a ring map, this is phi of the whole product."""
    _same_context(a, b)
    clipped = schur_product(a, b, box=(a.k, a.n - a.k))
    return SchubertClass._trusted(a.k, a.n, clipped.terms())


def class_degree(x: SchubertClass) -> int:
    """Degree of the class: sum of coefficients times the standard tableau
    count of the complementary shape.

    >>> class_degree(schubert_class((2, 2), 4, 8))
    2640
    """
    ctx = RectangleContext(x.k, x.n - x.k)
    return sum(c * syt_count(complement(lam, ctx)) for lam, c in x.items())


def schubert_class(lam: Partition, k: int, n: int) -> SchubertClass:
    return SchubertClass.basis(lam, k, n)


def point_class(k: int, n: int) -> SchubertClass:
    """The class of a point: the complement of the empty partition."""
    return SchubertClass(k, n, {complement((), RectangleContext(k, n - k)): 1})


def skew_complement_class(
    lam: Partition, mu: Partition, k: int, n: int
) -> SchubertClass:
    """Class of the rotated-complement skew locus: sum over nu of
    c^lam_{mu nu} times the class of the complement of nu.

    >>> skew_complement_class((4, 3, 2, 1), (3, 2, 1), 4, 8).coeff((4, 4, 2, 2))
    2
    """
    lam, mu = partition(lam), partition(mu)
    if not fits(lam, k, n - k):
        raise ShapeTooLarge(f"{lam} does not fit in {k}x{n - k}")
    if not contains(lam, mu):
        raise ShapeTooLarge(f"{mu} does not fit inside {lam}")
    ctx = RectangleContext(k, n - k)
    return SchubertClass(
        k, n, {complement(nu, ctx): c for nu, c in skew_schur(lam, mu).items()}
    )


_CLASS_RE = re.compile(r"^(.*)@Gr\((\d+),(\d+)\)$")


def parse_class(text: str) -> SchubertClass:
    match = _CLASS_RE.match(text.strip())
    if not match:
        raise ParseError(f"class text must end with '@Gr(k,n)': {text!r}")
    body, ktext, ntext = match.groups()
    k, n = int(ktext), int(ntext)
    terms = _parse_terms(body, SchubertClass.basis_letter)
    try:
        return SchubertClass(k, n, terms)
    except ValueError as exc:
        raise ParseError(f"bad class {text!r}: {exc}") from None
