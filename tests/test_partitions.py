from fractions import Fraction
from functools import lru_cache
from itertools import product

from hypothesis import given, settings, strategies as st
import pytest

from rankcalc.diagrams import Diagram
from rankcalc.errors import ParseError, ShapeTooLarge, SizeMismatch
from rankcalc.grassmann import SchubertClass, phi, schubert_class
from rankcalc.partitions import (
    RectangleContext,
    _lr_walk,
    all_partitions,
    box_partitions,
    centralizer_order,
    complement,
    conjugate,
    contains,
    lr_coefficient,
    mn_character,
    parse_partition,
    partition,
    partition_text,
    syt_count,
)
from rankcalc.perms import AffinePermutation, check_permutation
from rankcalc.rankset import RankSet
from rankcalc import symfunc
from rankcalc.perms import skew_schur
from rankcalc.symfunc import SchurExpansion, schur_product

from oracles import (
    box_complement,
    box_partitions_by_recursion,
    lr_by_ballot_tableaux,
    skew_syt_by_filling,
    syt_by_filling,
    transpose_cells,
)


@st.composite
def partitions_st(draw, max_size=8, min_size=0):
    n = draw(st.integers(min_size, max_size))
    return draw(st.sampled_from(all_partitions(n)))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda x: partition([2, x]), id="partition"),
        pytest.param(lambda x: check_permutation((3, x, 2)), id="check_permutation"),
        pytest.param(lambda x: AffinePermutation((3, x, 2)), id="AffinePermutation"),
        pytest.param(lambda x: Diagram(frozenset({(1, x)})), id="Diagram"),
        pytest.param(lambda x: RankSet(((x, 2),), 3), id="RankSet"),
        pytest.param(lambda x: RankSet(((1, 1),), x), id="RankSet-ambient_n"),
        pytest.param(lambda x: SchurExpansion({(2,): x}), id="SchurExpansion"),
        pytest.param(lambda x: SchubertClass(x, 2), id="SchubertClass-k"),
        pytest.param(lambda x: SchubertClass(0, x), id="SchubertClass-n"),
        pytest.param(lambda x: schubert_class((1,), x, 4), id="schubert_class"),
        pytest.param(lambda x: phi(SchurExpansion(), 1, x), id="phi"),
    ],
)
def test_constructors_reject_non_integers(build):
    # each value constructor takes an integer and refuses to truncate a float
    # or to parse a string
    build(1)
    for bad in (1.0, 1.5, "1"):
        with pytest.raises(TypeError):
            build(bad)


def test_partition_canonicalization():
    assert partition([4, 4, 2, 2, 0, 0]) == (4, 4, 2, 2)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_all_partitions_order():
    assert all_partitions(0) == ((),)
    assert all_partitions(4) == ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
    # partition numbers p(0..12); each table sorted, distinct and canonical
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, count in enumerate(counts):
        parts = all_partitions(n)
        assert len(parts) == count and list(parts) == sorted(set(parts))
        assert all(partition(lam) == lam and sum(lam) == n for lam in parts)


def test_box_partitions_filter_all_partitions():
    for n in range(13):
        for rows in range(7):
            for cols in range(7):
                want = tuple(
                    lam
                    for lam in all_partitions(n)
                    if len(lam) <= rows and (not lam or lam[0] <= cols)
                )
                assert tuple(box_partitions(n, rows, cols)) == want, (n, rows, cols)


def test_partition_enumerators_reject_non_integers():
    # box_partitions(2.5, 3, 3) used to raise ZeroDivisionError, and a cold
    # all_partitions(2.0) to list float parts; a warm cache still answers
    # 2.0 as 2, since lru_cache keys them alike
    for args in ((2.5, 3, 3), (2, 3.0, 3), (2, 3, "3")):
        with pytest.raises(TypeError):
            list(box_partitions(*args))
    with pytest.raises(TypeError):
        all_partitions.__wrapped__(2.0)


def test_box_partitions_match_the_recursive_enumerator():
    # order included; a negative side or size yields nothing, except that
    # the empty partition is the one partition of 0 in any box
    for n in range(-2, 31):
        for rows in range(-2, 9):
            for cols in range(-2, 9):
                want = list(box_partitions_by_recursion(n, rows, cols))
                assert list(box_partitions(n, rows, cols)) == want, (n, rows, cols)


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 4, 2, 2)) == (4, 4, 2, 2)
    assert conjugate((4, 4, 2, 2)) == transpose_cells((4, 4, 2, 2))


@given(lam=partitions_st())
def test_conjugate_matches_cell_transpose(lam):
    assert conjugate(lam) == transpose_cells(lam)
    assert conjugate(conjugate(lam)) == lam


def test_complement_examples():
    box = RectangleContext(4, 4)
    assert complement((), box) == (4, 4, 4, 4)
    assert complement((2, 2), box) == (4, 4, 2, 2)
    assert complement((3, 1), RectangleContext(2, 3)) == (2,)
    with pytest.raises(ShapeTooLarge):
        complement((5,), box)
    with pytest.raises(ShapeTooLarge):
        complement((1, 1, 1, 1, 1), box)


def _outcome(fn, *args):
    """The result with the type of each part, or the type of the exception."""
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc)
    return out, tuple(map(type, out))


def test_complement_matches_its_partition_route():
    # every box partition of every box up to 7 x 7, 0-row and 0-column boxes
    # included, against the route through partition()
    for rows in range(8):
        for cols in range(8):
            box = RectangleContext(rows, cols)
            for size in range(rows * cols + 1):
                for lam in box_partitions(size, rows, cols):
                    assert complement(lam, box) == box_complement(lam, rows, cols)
    # malformed input: increasing, zero, negative and non-integer parts,
    # negative and non-integer sides; the result or the exception type agree
    tuples = [()] + [
        lam
        for length in range(1, 4)
        for lam in product(range(-2, 5), repeat=length)
    ]
    tuples += [(1.5,), (2.0, 1), (3, 0.5), (Fraction(1, 2),), (True, 1), (3.0,)]
    sides = [-1, 0, 1, 2, 3, 4, 2.0, True]
    for lam in tuples:
        for rows in sides:
            for cols in sides:
                assert _outcome(complement, lam, RectangleContext(rows, cols)) == (
                    _outcome(box_complement, lam, rows, cols)
                ), (lam, rows, cols)


@given(lam=partitions_st(max_size=6), rows=st.integers(0, 5), cols=st.integers(0, 5))
def test_complement_involution(lam, rows, cols):
    box = RectangleContext(rows, cols)
    if len(lam) > rows or (lam and lam[0] > cols):
        with pytest.raises(ShapeTooLarge):
            complement(lam, box)
        return
    assert complement(complement(lam, box), box) == lam


def test_syt_count_examples():
    assert syt_count((1,)) == 1
    assert syt_count((2, 1)) == 2 == syt_by_filling((2, 1))
    assert syt_count((4, 4, 2, 2)) == 2640


def test_syt_dimension_sum():
    total = (
        syt_count((3, 3, 3, 3))
        + 3 * syt_count((4, 3, 3, 2))
        + 2 * syt_count((4, 4, 2, 2))
        + 3 * syt_count((4, 4, 3, 1))
        + syt_count((4, 4, 4))
    )
    assert total == 24024


def test_syt_count_matches_enumeration_through_size_8():
    for n in range(9):
        for lam in all_partitions(n):
            assert syt_count(lam) == syt_by_filling(lam), lam


def test_lr_examples():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((3, 2), (3, 2), ()) == 1
    assert lr_coefficient((4, 3, 2, 1), (3, 2, 1), (2, 1, 1)) == 3
    assert lr_coefficient((2,), (1,), (1, 1)) == 0  # size mismatch
    assert lr_coefficient((2, 2), (2, 1), (1, 1)) == 0


def test_lr_rejects_non_partitions():
    for bad in ((1, 2), (2, 1, 0)):
        for args in ((bad, (1,), (1, 1)), ((2, 1), bad, (1,)), ((2, 1), (1,), bad)):
            with pytest.raises(ValueError):
                lr_coefficient(*args)


def test_syt_count_and_mn_character_reject_non_partitions():
    # syt_count((1, 2)) used to raise IndexError and mn_character((1, 2),
    # (3,)) to return 0
    for bad in ((1, 2), (2, 1, 0)):
        with pytest.raises(ValueError):
            syt_count(bad)
        for args in ((bad, (3,)), ((3,), bad)):
            with pytest.raises(ValueError):
                mn_character(*args)


def test_lr_diagonal_skew_is_regular_representation():
    # the 4-cell diagonal equals the staircase skew shape, whose
    # multiplicities are the standard tableau counts
    for nu in all_partitions(4):
        assert lr_coefficient((4, 3, 2, 1), (3, 2, 1), nu) == syt_count(nu)


def walk_coefficient(lam, mu, nu):
    """c^lam_{mu nu} off the LR walk of s_mu s_nu in its support box."""
    walk = _lr_walk(mu, nu, len(mu) + len(nu), sum(mu[:1]) + sum(nu[:1]))
    return dict(walk).get(lam, 0)


def lr_mismatches(max_size, routes=(walk_coefficient,)):
    """The number of triples lam, mu, nu with |mu| + |nu| = |lam| <= max_size,
    and those on which some route(lam, mu, nu) differs from the ballot
    oracle."""
    cases, bad = 0, []
    for size in range(max_size + 1):
        for a in range(size + 1):
            for mu, nu in product(all_partitions(a), all_partitions(size - a)):
                for lam in all_partitions(size):
                    cases += 1
                    want = lr_by_ballot_tableaux(lam, mu, nu)
                    if any(route(lam, mu, nu) != want for route in routes):
                        bad.append((lam, mu, nu))
    return cases, bad


def product_routes():
    """c^lam_{mu nu} off schur_product(s_mu, s_nu): the whole product, one
    per pair, and the product clipped to lam's own box."""
    basis = SchurExpansion.basis
    whole = lru_cache(maxsize=None)(lambda mu, nu: schur_product(basis(mu), basis(nu)))
    return (
        lambda lam, mu, nu: whole(mu, nu).coeff(lam),
        lambda lam, mu, nu: schur_product(
            basis(mu), basis(nu), box=(len(lam), sum(lam[:1]))
        ).coeff(lam),
    )


def test_lr_walk_and_its_readers_match_the_ballot_oracle(monkeypatch):
    # every triple with |lam| <= 9: the walk in the support box, the public
    # lr_coefficient (the walk in lam's box), skew_schur, by transition, and
    # schur_product whole and clipped to lam's box, whose walks between them
    # take all four readings: nu on mu, mu on nu, nu' on mu', mu' on nu'
    walk, calls, readings = symfunc._lr_walk, [], set()
    monkeypatch.setattr(symfunc, "_lr_walk", lambda *args: calls.append(args) or walk(*args))

    def traced(route):
        def read(lam, mu, nu):
            calls.clear()
            value = route(lam, mu, nu)
            pairs = [(mu, nu), (nu, mu), (conjugate(mu), conjugate(nu))]
            pairs.append(pairs[2][::-1])
            for args in calls:
                # a walk that two readings share names neither
                found = [i for i, pair in enumerate(pairs) if pair == args[:2]]
                assert found, (mu, nu, args)
                readings.update(found if len(found) == 1 else ())
            return value

        return read

    skew = lru_cache(maxsize=None)(skew_schur)
    routes = (
        walk_coefficient,
        lr_coefficient,
        lambda lam, mu, nu: skew(lam, mu).coeff(nu),
        *map(traced, product_routes()),
    )
    cases, bad = lr_mismatches(9, routes)
    assert (cases, bad[:5]) == (15830, [])
    assert readings == {0, 1, 2, 3}


@settings(max_examples=60, deadline=None)
@given(
    mu=partitions_st(max_size=4),
    nu=partitions_st(max_size=4),
    lam=partitions_st(max_size=8),
)
def test_lr_symmetry(mu, nu, lam):
    assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)


@settings(max_examples=40, deadline=None)
@given(lam=partitions_st(max_size=6, min_size=1), mu=partitions_st(max_size=4))
def test_lr_totals_count_skew_standard_fillings(lam, mu):
    # summing c^lam_{mu nu} over nu weighted by standard counts gives the
    # number of standard fillings of the skew shape lam/mu
    if not contains(lam, mu) or sum(mu) >= sum(lam):
        return
    rest = sum(lam) - sum(mu)
    total = sum(
        lr_coefficient(lam, mu, nu) * syt_count(nu) for nu in all_partitions(rest)
    )
    assert total == skew_syt_by_filling(lam, mu)
    # the skew Schur expansion, by transition, has the same terms
    skew = skew_schur(lam, mu)
    assert sum(c * syt_count(nu) for nu, c in skew.items()) == skew_syt_by_filling(
        lam, mu
    )
    assert skew.terms() == {
        nu: lr_coefficient(lam, mu, nu)
        for nu in all_partitions(rest)
        if lr_coefficient(lam, mu, nu)
    }


@pytest.mark.parametrize("outer", [(1, 2), (1, 3), (3, 1, 2)])
def test_skew_schur_rejects_an_outer_shape_that_is_not_a_partition(outer):
    # read as outer shapes, these build no Grassmannian permutation, so
    # skew_schur's own check of outer must refuse them
    with pytest.raises(ValueError):
        skew_schur(outer, ())


def test_mn_character_examples():
    for mu in all_partitions(5):
        assert mn_character((5,), mu) == 1
    assert mn_character((1, 1, 1, 1), (2, 1, 1)) == -1
    assert mn_character((2, 2), (1, 1, 1, 1)) == 2 == syt_count((2, 2))
    with pytest.raises(SizeMismatch):
        mn_character((2, 1), (2, 2))


def test_mn_character_dimension_column():
    for n in range(1, 7):
        ones = tuple([1] * n)
        for lam in all_partitions(n):
            assert mn_character(lam, ones) == syt_count(lam)


def test_character_column_orthogonality():
    for m in range(1, 7):
        parts = all_partitions(m)
        for mu in parts:
            for nu in parts:
                total = sum(
                    mn_character(lam, mu) * mn_character(lam, nu) for lam in parts
                )
                assert total == (centralizer_order(mu) if mu == nu else 0)


def test_text_round_trip():
    assert partition_text(()) == "-"
    assert partition_text((4, 4, 2, 2)) == "4,4,2,2"
    assert parse_partition("-") == ()
    assert parse_partition("4,4,2,2") == (4, 4, 2, 2)
    with pytest.raises(ParseError):
        parse_partition("1,2")
    with pytest.raises(ParseError):
        parse_partition("a,b")
