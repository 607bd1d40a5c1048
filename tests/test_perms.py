from itertools import permutations as iter_permutations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from rankcalc.errors import ParseError
from rankcalc.partitions import all_partitions
from rankcalc.perms import (
    AffinePermutation,
    affine_identity,
    affine_stanley,
    av,
    check_permutation,
    direct_sum,
    embed,
    evaluate,
    is_bounded,
    length,
    northeast_count,
    parse_permutation,
    parse_window,
    permutation_text,
    stanley,
    tau_shift,
    window_text,
)
from rankcalc.symfunc import (
    MonomialExpansion,
    SchurExpansion,
    is_schur_nonnegative,
    monomial_to_schur,
)

from oracles import (
    bounded_windows,
    cyclically_decreasing_windows,
    factorization_counts,
    inversion_count,
    reflection_window,
    window_compose,
    window_eval,
    window_inverse,
    window_length,
)


def s(*parts):
    return SchurExpansion.basis(tuple(parts))


def test_check_permutation():
    assert check_permutation((3, 1, 2)) == (3, 1, 2)
    with pytest.raises(ValueError):
        check_permutation((1, 3))
    with pytest.raises(ValueError):
        check_permutation(())


def test_direct_sum():
    assert direct_sum((2, 1), (1,)) == (2, 1, 3)
    assert direct_sum((2, 4, 1, 5, 3), (1, 2, 3, 4, 5)) == (
        2, 4, 1, 5, 3, 6, 7, 8, 9, 10,
    )
    assert direct_sum((1,), (1,)) == (1, 2)


def test_affine_permutation_validation():
    with pytest.raises(ValueError):
        AffinePermutation((1, 5))  # residues collide mod 2
    with pytest.raises(ValueError):
        AffinePermutation(())


def test_evaluate():
    f = AffinePermutation((6, 4, 5, 8, 7))
    assert evaluate(f, 1) == 6
    assert evaluate(f, 6) == 11
    assert evaluate(f, 0) == 7 - 5
    ident = affine_identity(4)
    assert all(evaluate(ident, i) == i for i in range(-5, 10))


def test_av():
    assert av(affine_identity(3)) == 0
    assert av(AffinePermutation((6, 4, 5, 8, 7))) == 3
    assert av(AffinePermutation((5, 2, 7, 4))) == 2


def test_is_bounded():
    assert is_bounded(AffinePermutation((5, 2, 7, 4)))
    assert is_bounded(affine_identity(6))
    # a valid window with f(1) = 0 < 1
    assert not is_bounded(AffinePermutation((0, 3, 2, 5)))


def test_length():
    assert length(affine_identity(5)) == 0
    assert length(AffinePermutation((6, 4, 5, 8, 7))) == 3
    assert length(embed((2, 1))) == 1
    assert length(AffinePermutation((5, 2, 7, 4))) == 4


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_embedded_length_is_inversion_count(n, data):
    w = tuple(data.draw(st.permutations(tuple(range(1, n + 1)))))
    assert length(embed(w)) == inversion_count(w)


def test_length_matches_oracle_on_bounded_windows():
    for n in (1, 2, 3, 4, 5):
        for window in bounded_windows(n):
            assert length(AffinePermutation(window)) == window_length(window)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_length_matches_oracle_on_shifted_windows(n, data):
    # distinct residues, each entry moved by its own multiple of n in [-4n, 4n]
    w = data.draw(st.permutations(tuple(range(1, n + 1))))
    shifts = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    window = tuple(x + n * k for x, k in zip(w, shifts))
    assert length(AffinePermutation(window)) == window_length(window)


def test_northeast_count():
    ident = affine_identity(5)
    assert northeast_count(ident, 1, 5) == 0
    f = AffinePermutation((6, 4, 5, 8, 7))
    # p < 6 with f(p) > 6: positions 4 and 5
    assert northeast_count(f, 6, 6) == 2
    assert northeast_count(f, 3, 100) == 0


def test_tau_shift():
    f = AffinePermutation((6, 4, 5, 8, 7))
    assert tau_shift(f, 0, 0) == f
    assert tau_shift(affine_identity(4), 1, -1) == affine_identity(4)
    stretched = AffinePermutation((2, 5, 6, 7, 9, 8, 12, 11))
    assert tau_shift(stretched, -6, 3).window == (1, 3, 2, 6, 5, 4, 7, 8)


def test_compose_inverse():
    f = (5, 2, 7, 4)
    g = window_inverse(f)
    assert window_compose(f, g) == affine_identity(4).window
    assert window_compose(g, f) == affine_identity(4).window
    assert length(AffinePermutation(g)) == length(AffinePermutation(f)) == 4


def test_cyclically_decreasing_elements_have_their_size_as_length():
    for n in (2, 3, 4, 5):
        elements = cyclically_decreasing_windows(n)
        # one distinct element per nonempty proper residue subset
        assert len(elements) == 2**n - 2
        for window, size in elements.items():
            assert length(AffinePermutation(window)) == size, (window, n)


def test_simple_reflection_properties():
    for n in (2, 3, 4):
        for i in range(n):
            s = reflection_window(i, n)
            assert length(AffinePermutation(s)) == 1
            assert window_compose(s, s) == affine_identity(n).window
            assert window_eval(s, i) == i + 1 and window_eval(s, i + 1) == i
    # the window-wrapping generator agrees with the run construction
    assert cyclically_decreasing_windows(2)[reflection_window(0, 2)] == 1


def test_affine_stanley_identity_and_single_reflection():
    assert affine_stanley(affine_identity(3)) == MonomialExpansion.one()
    # the affine generator wrapping around the window, for n = 2
    wrap = AffinePermutation((0, 3))
    assert affine_stanley(wrap) == MonomialExpansion.basis((1,))


def test_affine_stanley_window_5274():
    # frozen from exhaustive reduced-word analysis, and confirmed by the
    # definition-transcribing oracle below: no single cyclically
    # decreasing factor can have size 4 when n = 4, so m[4] is absent
    expansion = affine_stanley(AffinePermutation((5, 2, 7, 4)))
    assert expansion == MonomialExpansion(
        {(2, 2): 1, (2, 1, 1): 2, (1, 1, 1, 1): 4}
    )
    assert monomial_to_schur(expansion) == s(2, 2) + s(2, 1, 1) - s(1, 1, 1, 1)


def test_affine_stanley_degree_is_length():
    for n in (2, 3):
        for window in bounded_windows(n):
            f = AffinePermutation(window)
            expansion = affine_stanley(f)
            assert expansion.degree() == length(f)


def test_affine_stanley_matches_factorization_oracle():
    rng = Random(2014)
    # every bounded window for n <= 5, and a seeded sample of S_6
    windows = [w for n in (1, 2, 3, 4, 5) for w in bounded_windows(n)]
    assert len(windows) == 2 + 4 + 17 + 65 + 326
    windows += [tuple(rng.sample(range(1, 7), 6)) for _ in range(30)]
    for window in windows:
        f = AffinePermutation(window)
        expansion = affine_stanley(f)
        for lam in all_partitions(length(f)):
            assert expansion.coeff(lam) == factorization_counts(window, lam), (
                window,
                lam,
            )


def test_tau_invariance_of_affine_stanley():
    for n in (2, 3):
        for window in bounded_windows(n):
            f = AffinePermutation(window)
            base = affine_stanley(f)
            assert affine_stanley(tau_shift(f, 1, 0)) == base
            assert affine_stanley(tau_shift(f, -1, 1)) == base


def test_stanley_examples():
    assert stanley((1,)) == SchurExpansion.one()
    assert stanley((3, 2, 1)) == s(2, 1)
    assert stanley((3, 1, 5, 2, 4)) == s(2, 2) + s(3, 1)
    # single-row and single-column inversion diagrams
    assert stanley((3, 1, 2)) == s(2)
    assert stanley((2, 3, 1)) == s(1, 1)


def test_stanley_agrees_with_embedded_oracle_small():
    for n in (2, 3, 4):
        for w in iter_permutations(range(1, n + 1)):
            expansion = affine_stanley(embed(w))
            for lam in all_partitions(length(embed(w))):
                assert expansion.coeff(lam) == factorization_counts(w, lam)


def test_stanley_stability_and_positivity():
    for n in (1, 2, 3, 4, 5):
        for w in iter_permutations(range(1, n + 1)):
            f = stanley(w)
            assert f == stanley(direct_sum(w, (1,)))
            assert is_schur_nonnegative(f)


def test_affine_stanley_accepts_shifted_windows():
    # average shift and window position are normalized away, so heavily
    # shifted windows are legal inputs and give the same expansion
    f = AffinePermutation((5, 2, 7, 4))
    base = affine_stanley(f)
    assert affine_stanley(tau_shift(f, 9, 0)) == base
    assert affine_stanley(tau_shift(f, -13, 0)) == base
    assert affine_stanley(tau_shift(f, -3, 2)) == base
    shifted = tau_shift(f, -13, 0)
    assert min(shifted.window) < 0 and av(shifted) == -11


def test_permutation_text():
    assert permutation_text((2, 4, 1, 5, 3)) == "24153"
    assert permutation_text(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    assert parse_permutation("24153") == (2, 4, 1, 5, 3)
    assert parse_permutation("2,4,1,5,3") == (2, 4, 1, 5, 3)
    with pytest.raises(ParseError):
        parse_permutation("xy")
    with pytest.raises(ParseError):
        parse_permutation("11")


def test_window_text():
    f = AffinePermutation((6, 4, 5, 8, 7))
    assert window_text(f) == "6,4,5,8,7;n=5"
    assert parse_window("6,4,5,8,7;n=5") == f
    with pytest.raises(ParseError):
        parse_window("6,4,5")
    with pytest.raises(ParseError):
        parse_window("6,4;n=3")
    with pytest.raises(ParseError):
        parse_window("1,5;n=2")
