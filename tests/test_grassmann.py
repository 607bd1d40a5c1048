import random

import pytest

from rankcalc.errors import ContextMismatch, ParseError, ShapeTooLarge
from rankcalc.grassmann import (
    SchubertClass,
    class_degree,
    class_product,
    parse_class,
    phi,
    point_class,
    schubert_class,
    skew_complement_class,
)
from rankcalc.partitions import all_partitions, box_partitions, conjugate
from rankcalc.perms import AffinePermutation, affine_stanley, stanley
from rankcalc.symfunc import (
    MonomialExpansion,
    SchurExpansion,
    monomial_to_schur,
    schur_product,
    schur_to_monomial,
)


def s(*parts):
    return SchurExpansion.basis(tuple(parts))


def sigma1_power(k, n, power):
    out = schubert_class((1,), k, n)
    for _ in range(power - 1):
        out = class_product(out, schubert_class((1,), k, n))
    return out


def test_phi_truncation():
    assert not phi(s(5), 4, 8)
    mixed = s(2, 2) + s(3, 1) - s(4)
    assert phi(mixed, 2, 4) == schubert_class((2, 2), 2, 4)
    assert not phi(SchurExpansion(), 3, 6)
    assert not phi(s(2, 1, 1), 2, 6)  # too many rows
    for k, n in ((5, 4), (-1, 3)):
        with pytest.raises(ValueError):
            phi(s(1), k, n)


def test_schubert_class_constructor_rejects_overflow():
    with pytest.raises(ValueError):
        SchubertClass(2, 4, {(3,): 1})
    with pytest.raises(ValueError):
        SchubertClass(2, 4, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        SchubertClass(3, 2)


def _validated(x):
    if isinstance(x, SchubertClass):
        return SchubertClass(x.k, x.n, x.terms())
    return type(x)(x.terms())


def test_derived_expansions_equal_their_validated_construction():
    # arithmetic and the expansion producers build their results without
    # re-checking the terms; each must equal, term order and text included,
    # what the public constructor makes of the same terms
    rng = random.Random(13)

    def schur(degree):
        parts = all_partitions(degree)
        return SchurExpansion(
            {lam: rng.randint(-3, 3) for lam in rng.sample(parts, min(3, len(parts)))}
        )

    results = []
    for _ in range(40):
        a, b = schur(rng.randint(0, 5)), schur(rng.randint(0, 4))
        mono = schur_to_monomial(a)
        k = rng.randint(0, 4)
        n = rng.randint(k, 7)
        x, y = phi(a, k, n), phi(b, k, n)
        results += [a + b, a - b, -a, 3 * a, mono * -2, mono + mono]
        results += [schur_product(a, b), schur_product(a, b, box=(2, 3))]
        results += [mono, monomial_to_schur(mono), monomial_to_schur(MonomialExpansion())]
        results += [x, y, x + y, x - y, -x, 2 * x, class_product(x, y)]
        w = list(range(1, rng.randint(1, 7) + 1))
        rng.shuffle(w)
        results.append(stanley(tuple(w)))
        m = rng.randint(1, 4)
        window = [v + m * rng.randint(-1, 1) for v in rng.sample(range(1, m + 1), m)]
        results.append(affine_stanley(AffinePermutation(tuple(window))))
    for r in results:
        again = _validated(r)
        assert r == again and list(r.items()) == list(again.items()), r
        assert r.text() == again.text()


def test_class_product_sigma1_fourth_power():
    result = sigma1_power(4, 8, 4)
    assert result.terms() == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 3,
        (2, 2): 2,
        (3, 1): 3,
        (4,): 1,
    }


def test_class_product_identity_and_truncation():
    x = schubert_class((2, 1), 3, 6)
    one = SchubertClass(3, 6, {(): 1})
    assert class_product(one, x) == x
    tiny = class_product(schubert_class((1,), 1, 2), schubert_class((1,), 1, 2))
    assert not tiny


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        class_product(schubert_class((1,), 2, 4), schubert_class((1,), 2, 5))
    with pytest.raises(ContextMismatch):
        schubert_class((1,), 2, 4) - schubert_class((1,), 3, 6)
    x, y = schubert_class((1,), 2, 4), schubert_class((1,), 2, 5)
    with pytest.raises(ContextMismatch):
        x + y
    with pytest.raises(ContextMismatch):
        x - y
    # negation and scalars keep the context
    assert (-x).context() == (2, 4) and (-x).coeff((1,)) == -1
    assert (2 * x).context() == (2, 4) and (2 * x).coeff((1,)) == 2
    assert x * 2 == 2 * x and (x * 2).context() == (2, 4)
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(TypeError):
        x * x
    assert 2 * x == x + x and -x == SchubertClass(2, 4) - x
    # equal terms in another context or another basis are not equal
    assert x != SchubertClass(2, 5, {(1,): 1})
    assert x != s(1) and s(1) != x
    assert x == SchubertClass(2, 4, {(1,): 1}) and hash(x) == hash(schubert_class((1,), 2, 4))
    assert SchubertClass.basis((1,), 2, 4) == x
    assert SchubertClass.one(2, 4) == schubert_class((), 2, 4)


def test_class_degree():
    assert class_degree(point_class(4, 8)) == 1
    assert class_degree(schubert_class((2, 2), 4, 8)) == 2640
    y = sigma1_power(4, 8, 4)
    assert class_degree(y) == 24024
    x = y - schubert_class((2, 2), 4, 8)
    assert class_degree(x) == 21384


def test_class_difference_and_nonnegativity():
    x = schubert_class((2, 2), 4, 8)
    assert not (x - x)
    assert (x - x).is_nonnegative()
    y = sigma1_power(4, 8, 4)
    difference = y - x
    assert difference.terms() == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 3,
        (2, 2): 1,
        (3, 1): 3,
        (4,): 1,
    }
    assert difference.is_nonnegative()
    assert not (
        schubert_class((2, 2), 4, 8) - schubert_class((3, 1), 4, 8)
    ).is_nonnegative()


def test_degree_additivity():
    a = schubert_class((2, 2), 4, 8)
    b = schubert_class((3, 1), 4, 8)
    assert class_degree(a + b) == class_degree(a) + class_degree(b)


def test_skew_complement_class():
    # only the empty inner summand survives when the shapes coincide
    assert skew_complement_class((2, 1), (2, 1), 2, 4) == point_class(2, 4)
    display = skew_complement_class((4, 3, 2, 1), (3, 2, 1), 4, 8)
    assert display.terms() == {
        (3, 3, 3, 3): 1,
        (4, 3, 3, 2): 3,
        (4, 4, 2, 2): 2,
        (4, 4, 3, 1): 3,
        (4, 4, 4): 1,
    }
    assert skew_complement_class((3, 1), (), 2, 5) == schubert_class((2,), 2, 5)
    with pytest.raises(ShapeTooLarge):
        skew_complement_class((5,), (), 2, 4)
    with pytest.raises(ShapeTooLarge):
        skew_complement_class((2, 2), (3,), 2, 6)


def test_phi_is_ring_map_small():
    for k, n in ((2, 4), (2, 5), (3, 6)):
        shapes = [lam for d in (1, 2, 3) for lam in all_partitions(d)]
        for mu in shapes:
            for nu in shapes:
                a, b = SchurExpansion.basis(mu), SchurExpansion.basis(nu)
                assert phi(schur_product(a, b), k, n) == class_product(
                    phi(a, k, n), phi(b, k, n)
                )


def test_clipped_product_matches_unclipped_beyond_exhaustive_sizes():
    # class_product never leaves k x (n-k); the oracle runs the LR rule over
    # the whole support box and truncates afterwards.  Products of total
    # degree about k^2/2 in Gr(k,2k) are the richest.
    rng = random.Random(9)
    sizes = []
    for k in (5, 6, 7):
        n, half = 2 * k, k * k // 2
        for _ in range(4):
            d = rng.randint(half // 2 - 1, half // 2 + 1)
            mu = rng.choice(list(box_partitions(d, k, k)))
            nu = rng.choice(list(box_partitions(half - d, k, k)))
            a = schubert_class(mu, k, n)
            b = schubert_class(nu, k, n) - 2 * schubert_class(conjugate(nu), k, n)
            product = class_product(a, b)
            assert product == phi(schur_product(a, b), k, n), (k, mu, nu)
            sizes.append(len(product.terms()))
    assert max(sizes) >= 30


def test_clipped_product_in_edge_contexts():
    # Gr(0,n) and Gr(n,n) clip to a box without rows or without columns,
    # Gr(1,n) to a single row; past the top degree k(n-k) a product is zero
    for k, n in ((0, 0), (0, 3), (3, 3), (1, 4), (2, 4)):
        top = k * (n - k)
        shapes = [lam for d in range(top + 1) for lam in box_partitions(d, k, n - k)]
        for mu in shapes:
            for nu in shapes:
                a, b = schubert_class(mu, k, n), schubert_class(nu, k, n)
                product = class_product(a, b)
                assert product == phi(schur_product(a, b), k, n), (k, n, mu, nu)
                if sum(mu) + sum(nu) > top:
                    assert not product
    one = SchubertClass.one(0, 3)
    assert class_product(one, one).text() == "1*o[-]@Gr(0,3)"
    sigma = schubert_class((2,), 1, 4), schubert_class((1,), 1, 4)
    assert class_product(*sigma) == point_class(1, 4)
    for box in ((0, 3), (3, 0), (0, 0)):
        assert not schur_product(s(1), s(1), box=box)
        assert schur_product(s(), s(), box=box) == s()


def test_pieri_iteration_reaches_degree_times_point():
    for k, n in ((2, 4), (2, 5)):
        for size in range(k * (n - k) + 1):
            for lam in all_partitions(size):
                if len(lam) > k or (lam and lam[0] > n - k):
                    continue
                x = schubert_class(lam, k, n)
                expected = class_degree(x)
                for _ in range(k * (n - k) - size):
                    x = class_product(x, schubert_class((1,), k, n))
                assert x == SchubertClass(
                    k, n, {tuple([n - k] * k): expected}
                ) or (expected == 0 and not x)


def test_lift_round_trip():
    # a class read as a Schur expansion truncates back to itself, and the
    # product reads the terms of its factors the same way
    x = schubert_class((2, 1), 3, 6)
    lifted = SchurExpansion(x.terms())
    assert phi(lifted, 3, 6) == x
    assert schur_product(x, x) == schur_product(lifted, lifted)
    assert class_product(x, x) == phi(schur_product(lifted, lifted), 3, 6)


def test_class_text():
    x = schubert_class((2, 2), 2, 4) - schubert_class((1, 1), 2, 4)
    assert x.text() == "-1*o[1,1] + 1*o[2,2]@Gr(2,4)"
    assert SchubertClass(2, 4).text() == "0@Gr(2,4)"
    assert parse_class("-1*o[1,1] + 1*o[2,2]@Gr(2,4)") == x
    assert parse_class("0@Gr(2,4)") == SchubertClass(2, 4)
    with pytest.raises(ParseError):
        parse_class("1*o[2,2]")
    with pytest.raises(ParseError):
        parse_class("1*o[3]@Gr(2,4)")  # does not fit the rectangle
    with pytest.raises(ParseError):
        parse_class("1*s[1]@Gr(2,4)")  # wrong basis letter
    for size in range(2 * 3 + 1):
        for lam in all_partitions(size):
            if len(lam) <= 2 and (not lam or lam[0] <= 3):
                single = schubert_class(lam, 2, 5)
                assert parse_class(single.text()) == single
    mixed = (
        schubert_class((3, 1), 2, 5)
        + 3 * schubert_class((1,), 2, 5)
        - 2 * schubert_class((2, 2), 2, 5)
    )
    assert mixed.text() == "3*o[1] - 2*o[2,2] + 1*o[3,1]@Gr(2,5)"
    assert parse_class(mixed.text()) == mixed
    assert repr(mixed) == f"SchubertClass({mixed.text()!r})"
