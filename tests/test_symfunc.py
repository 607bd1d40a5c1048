from itertools import product
from random import Random

from hypothesis import given, settings, strategies as st
import pytest

from rankcalc import symfunc
from rankcalc.errors import NotHomogeneous, ParseError
from rankcalc.partitions import all_partitions, box_partitions, sort_key
from rankcalc.perms import skew_schur
from rankcalc.symfunc import (
    MonomialExpansion,
    SchurExpansion,
    _schur_monomial_row,
    kostka,
    monomial_to_schur,
    parse_expansion,
    schur_product,
    schur_to_monomial,
)

from oracles import (
    kostka_by_tableaux,
    lr_by_ballot_tableaux,
    schur_product_by_ballots,
    schur_product_one_reading,
    skew_schur_by_lr,
)


def s(*parts):
    return SchurExpansion.basis(tuple(parts))


def m(*parts):
    return MonomialExpansion.basis(tuple(parts))


@st.composite
def schur_expansions_st(draw, degree=None, max_size=6):
    n = degree if degree is not None else draw(st.integers(0, max_size))
    parts = all_partitions(n)
    chosen = draw(st.lists(st.sampled_from(parts), min_size=0, max_size=3))
    coeffs = draw(
        st.lists(st.integers(-4, 4), min_size=len(chosen), max_size=len(chosen))
    )
    data = {}
    for lam, c in zip(chosen, coeffs):
        data[lam] = data.get(lam, 0) + c
    return SchurExpansion(data)


def test_expansion_mechanics():
    e = SchurExpansion({(2, 1): 2, (3,): 0, (1, 1, 1): -1})
    assert e.terms() == {(1, 1, 1): -1, (2, 1): 2}
    assert e.coeff((3,)) == 0
    assert (e - e) == SchurExpansion()
    assert not SchurExpansion()
    assert 2 * s(1) == SchurExpansion({(1,): 2}) == s(1) * 2
    assert m(2) * -3 == -3 * m(2) == MonomialExpansion({(2,): -3})
    for bad in (1.5, "2", s(1)):
        with pytest.raises(TypeError):
            s(1) * bad
    assert SchurExpansion() != MonomialExpansion()
    with pytest.raises(ValueError):
        SchurExpansion({(1, 2): 1})
    with pytest.raises(ValueError):
        MonomialExpansion([((2, -1), 1)])


def test_schur_product_matches_unboxed_lr_loop():
    # the product walks only the LR support box; the oracle counts the
    # ballot tableaux of every partition of the total size
    singles = [lam for size in range(5) for lam in all_partitions(size)]
    for mu in singles:
        for nu in singles:
            want = SchurExpansion(
                {
                    lam: lr_by_ballot_tableaux(lam, mu, nu)
                    for lam in all_partitions(sum(mu) + sum(nu))
                }
            )
            assert schur_product(s(*mu), s(*nu)) == want, (mu, nu)


def test_schur_product_matches_the_one_reading_loop():
    # every pair with |mu| + |nu| <= 10, in the support box and in every box
    # up to 5 x 5: the cheapest of the four readings against nu's rows
    # walked onto mu
    parts = [lam for size in range(11) for lam in all_partitions(size)]
    boxes = [None, *product(range(6), repeat=2)]
    pairs = [(mu, nu) for mu in parts for nu in parts if sum(mu) + sum(nu) <= 10]
    assert len(pairs) == 1215
    for mu, nu in pairs:
        a, b = s(*mu), s(*nu)
        for box in boxes:
            want = schur_product_one_reading(a, b, box)
            assert schur_product(a, b, box=box) == want, (mu, nu, box)


def test_a_product_strips_the_factor_of_least_n(monkeypatch):
    # the two product walls: for (7,6,5,4,3,3) times (7,5,5,3,2,2,2,1,1,1),
    # n(nu), n(mu), n(nu'), n(mu') are 78, 55, 47, 58, so it walks nu' on
    # mu' in the transposed box; 6^6 times the staircase ties n(nu) = n(nu')
    # = 56 below n(mu) = n(mu') = 90 and keeps the first, nu on mu
    calls = []
    monkeypatch.setattr(symfunc, "_lr_walk", lambda *args: calls.append(args) or ())
    schur_product(s(7, 6, 5, 4, 3, 3), s(7, 5, 5, 3, 2, 2, 2, 1, 1, 1), box=(10, 10))
    schur_product(s(6, 6, 6, 6, 6, 6), s(7, 6, 5, 4, 3, 2, 1), box=(12, 12))
    assert calls == [
        ((6, 6, 6, 4, 3, 2, 1), (10, 7, 4, 3, 3, 1, 1), 10, 10),
        ((6, 6, 6, 6, 6, 6), (7, 6, 5, 4, 3, 2, 1), 12, 12),
    ]


def test_clipped_products_match_the_per_lam_ballot_product():
    # seeded two-term expansions in Gr(k, 2k), k <= 6, whose products reach
    # degree k^2 / 2, clipped to the k x k box: the walk against one ballot
    # count per partition of the box
    rng = Random(2028)
    for k in range(1, 7):
        half, box = k * k // 2, (k, k)

        def pick(size):
            return rng.choice(list(box_partitions(size, k, k)))

        for _ in range(4):
            d, e = rng.randint(0, half), rng.randint(0, half)
            a = SchurExpansion({pick(d): 2, pick(e): -1})
            b = SchurExpansion({pick(half - d): 1, pick(half - e): 3})
            assert schur_product(a, b, box=box) == schur_product_by_ballots(a, b, box), (a, b)


def test_skew_schur_by_transition_matches_the_lr_route():
    # every mu inside every lam with 1 <= |lam| <= 9, against the route that
    # counted LR ballot tableaux for each nu
    pairs = [
        (lam, mu)
        for size in range(1, 10)
        for lam in all_partitions(size)
        for inner in range(size + 1)
        for mu in all_partitions(inner)
        if len(mu) <= len(lam) and all(a >= b for a, b in zip(lam, mu))
    ]
    assert len(pairs) == 1591
    for lam, mu in pairs:
        assert skew_schur(lam, mu) == skew_schur_by_lr(lam, mu), (lam, mu)


@pytest.mark.parametrize(
    "outer, inner, want",
    [
        ((), (), "1*s[-]"),
        ((2,), (3,), "0"),
        ((2, 1), (1, 1, 1), "0"),
        ((), (1,), "0"),
        ((3, 1), (2, 0, 0), "1*s[1,1] + 1*s[2]"),
        ((1, 2), (), ValueError),
        ((2.0,), (), TypeError),
    ],
)
def test_skew_schur_edges(outer, inner, want):
    for route in (skew_schur, skew_schur_by_lr):
        if isinstance(want, str):
            assert route(outer, inner).text() == want, route
        else:
            with pytest.raises(want):
                route(outer, inner)


def test_kostka_values():
    assert kostka((2,), (2,)) == 1
    assert kostka((2,), (1, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 1), (2, 1, 1)) == 2
    # the content's order and zeros do not matter
    assert kostka((), ()) == kostka((), (0,)) == 1
    assert kostka((2, 1), (2, 0, 1)) == kostka((2, 1), (1, 2)) == 1
    assert kostka((2, 1), (0, 1, 0, 1, 1)) == 2
    assert kostka((2,), (1, 2)) == 0
    # the shape is a partition, the content nonnegative ints
    for lam, mu in (((1, 2), (1, 1, 1)), ((1,), (2, -1)), ((2, -1), (1,))):
        with pytest.raises(ValueError):
            kostka(lam, mu)
    for lam, mu in (((1.5, 0.5), (2,)), ((2,), (1.5, 0.5))):
        with pytest.raises(TypeError):
            kostka(lam, mu)
    # horizontal-strip rows against tableaux built entry by entry
    for n in range(9):
        for lam in all_partitions(n):
            for mu in all_partitions(n):
                assert kostka(lam, mu) == kostka_by_tableaux(lam, mu), (lam, mu)


def test_kostka_rows_unitriangular_in_dominance():
    # monomial_to_schur eliminates the lex-greatest term, so each row must
    # end at lam with 1 and hold exactly the mu that lam dominates
    def dominates(lam, mu):
        return all(sum(lam[:i]) >= sum(mu[:i]) for i in range(1, len(mu) + 1))

    for n in range(11):
        for lam in all_partitions(n):
            row = _schur_monomial_row(lam)
            support = [mu for mu, _ in row]
            assert support == sorted(support, key=sort_key), lam
            assert support[-1] == lam and row[-1][1] == 1, lam
            assert support == [mu for mu in all_partitions(n) if dominates(lam, mu)], lam
            assert all(k > 0 for _, k in row), lam


def test_schur_to_monomial_examples():
    assert schur_to_monomial(s(1, 1)) == m(1, 1)
    assert schur_to_monomial(s(2)) == m(2) + m(1, 1)
    assert schur_to_monomial(s(2, 1)) == m(2, 1) + 2 * m(1, 1, 1)


def test_monomial_to_schur_examples():
    assert monomial_to_schur(m(1, 1)) == s(1, 1)
    assert monomial_to_schur(m(2)) == s(2) - s(1, 1)
    # the expansion with monomial coefficients (-1, 1, 2, 4) on
    # (4), (2,2), (2,1,1), (1,1,1,1) is exactly s22 + s31 - s4
    mixed = MonomialExpansion({(4,): -1, (2, 2): 1, (2, 1, 1): 2, (1, 1, 1, 1): 4})
    assert monomial_to_schur(mixed) == s(2, 2) + s(3, 1) - s(4)


def test_monomial_to_schur_requires_homogeneous():
    with pytest.raises(NotHomogeneous):
        monomial_to_schur(m(1) + m(2))
    assert monomial_to_schur(MonomialExpansion()) == SchurExpansion()
    assert monomial_to_schur(MonomialExpansion.one()) == SchurExpansion.one()


@settings(max_examples=80, deadline=None)
@given(e=schur_expansions_st())
def test_round_trip_schur_monomial(e):
    assert monomial_to_schur(schur_to_monomial(e)) == e


def test_round_trip_exhaustive_basis_degree_8():
    for n in range(9):
        for lam in all_partitions(n):
            e = SchurExpansion.basis(lam)
            assert monomial_to_schur(schur_to_monomial(e)) == e


def test_schur_product_examples():
    assert schur_product(s(1), s(1)) == s(2) + s(1, 1)
    assert schur_product(SchurExpansion.one(), s(3, 1)) == s(3, 1)
    power = s(1)
    for _ in range(3):
        power = schur_product(power, s(1))
    assert power == s(1, 1, 1, 1) + 3 * s(2, 1, 1) + 2 * s(2, 2) + 3 * s(3, 1) + s(4)


@settings(max_examples=40, deadline=None)
@given(a=schur_expansions_st(max_size=3), b=schur_expansions_st(max_size=3))
def test_schur_product_commutes(a, b):
    assert schur_product(a, b) == schur_product(b, a)


def test_schur_product_associative_small():
    basis = [s(1), s(2), s(1, 1), s(2, 1)]
    for a in basis:
        for b in basis:
            for c in basis:
                assert schur_product(schur_product(a, b), c) == schur_product(
                    a, schur_product(b, c)
                )


@settings(max_examples=30, deadline=None)
@given(
    a=schur_expansions_st(degree=2),
    b=schur_expansions_st(degree=3),
)
def test_degree_additivity(a, b):
    product = schur_product(a, b)
    if a and b:
        assert all(sum(lam) == 5 for lam in product.terms())


def test_is_nonnegative():
    assert (s(2, 2) + s(3, 1)).is_nonnegative()
    assert not (s(2, 2) + s(3, 1) - s(4)).is_nonnegative()
    assert SchurExpansion().is_nonnegative()


def test_text_rendering():
    e = s(2, 2) + s(3, 1) - s(4)
    assert e.text() == "1*s[2,2] + 1*s[3,1] - 1*s[4]"
    assert SchurExpansion().text() == "0"
    assert SchurExpansion.one().text() == "1*s[-]"
    assert (-1 * s(1)).text() == "-1*s[1]"
    assert (m(2, 1) + 2 * m(1, 1, 1)).text() == "2*m[1,1,1] + 1*m[2,1]"


@settings(max_examples=60, deadline=None)
@given(e=schur_expansions_st())
def test_text_parse_round_trip(e):
    assert parse_expansion(e.text(), SchurExpansion) == e


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expansion("1*m[2]", SchurExpansion)
    with pytest.raises(ParseError):
        parse_expansion("garbage", SchurExpansion)
