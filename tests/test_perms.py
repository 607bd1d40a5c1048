from itertools import combinations, count, islice, permutations as iter_permutations
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rankcalc import perms
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
    monomial_to_schur,
)

from oracles import (
    bounded_windows,
    cyclically_decreasing_windows,
    dominates,
    factorization_counts,
    inversion_count,
    reflection_window,
    shape_by_code,
    stanley as stanley_oracle,
    stanley_by_increasing_tableaux,
    transpose_cells,
    vexillary_by_conjugate,
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
        AffinePermutation((7, 2, 4))  # 7 and 4 collide mod 3
    with pytest.raises(ValueError):
        AffinePermutation(())
    with pytest.raises(ParseError):
        parse_window("1,5;n=2")


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


def drawn_permutations(seed, sizes, keep, each):
    """each uniform permutations of every size n in sizes whose inversion
    count l passes keep(l, n), drawn by rejection from one Random(seed)."""
    rng, out = Random(seed), []
    for n in sizes:
        sample = (tuple(rng.sample(range(1, n + 1), n)) for _ in count())
        out += islice((w for w in sample if keep(inversion_count(w), n)), each)
    return out


def test_stanley_matches_kostka_inverted_factorizations():
    # transition against factorization counting and Kostka inversion:
    # every permutation of S_1..S_6, and a seeded sample of S_7 and S_8
    perms = [w for n in range(1, 7) for w in iter_permutations(range(1, n + 1))]
    assert len(perms) == 873
    perms += drawn_permutations(1985, (7, 8), lambda l, n: l <= 14, 20)
    assert len(perms) == 913
    for w in perms:
        assert stanley(w).terms() == stanley_oracle(w), w


def tableau_mismatches(perms):
    """The number of permutations, and those whose Edelman-Greene count of
    increasing tableaux differs from transition."""
    cases, bad = 0, []
    for w in perms:
        cases += 1
        if stanley_by_increasing_tableaux(w) != stanley(w).terms():
            bad.append(w)
    return cases, bad


def test_stanley_matches_increasing_tableaux():
    # transition against reduced words read off increasing tableaux: every
    # permutation of S_7, and seeded ones of S_9 and S_10 with at most 20
    # inversions
    perms = list(iter_permutations(range(1, 8)))
    perms += drawn_permutations(1987, (9, 10), lambda l, n: l <= 20, 40)
    cases, bad = tableau_mismatches(perms)
    assert (cases, bad[:5]) == (5040 + 80, [])


def symmetry_mismatches(perms):
    """The number of permutations, and those w for which F_{w^-1} is not
    omega F_w, omega the conjugation lam -> lam', or F_{w0 w^-1 w0} is not
    F_w (Stanley 1984): each side walks its own transition tree."""
    cases, bad = 0, []
    for w in perms:
        cases += 1
        n = len(w)
        inverse = tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))
        flipped = tuple(n + 1 - x for x in reversed(inverse))
        f = stanley(w)
        omega = SchurExpansion({transpose_cells(lam): c for lam, c in f.items()})
        if stanley(inverse) != omega or stanley(flipped) != f:
            bad.append(w)
    return cases, bad


def dominance_mismatches(perms):
    """The number of permutations, and those w for which some term s_lam of
    F_w lies outside lambda(w) <= lam <= lambda(w^-1)' in dominance order,
    or an end of that interval has a coefficient other than 1 (Stanley
    1984; Edelman-Greene 1987): one walk, and no second tree."""
    cases, bad = 0, []
    for w in perms:
        cases += 1
        inverse = tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))
        low, high = shape_by_code(w), transpose_cells(shape_by_code(inverse))
        f = stanley(w).terms()
        inside = all(dominates(lam, low) and dominates(high, lam) for lam in f)
        if not inside or f.get(low) != 1 or f.get(high) != 1:
            bad.append(w)
    return cases, bad


def test_stanley_symmetries_on_every_permutation_through_s7():
    # both symmetries and the dominance bounds check stanley where no oracle
    # reaches: every permutation of S_1..S_7, and seeded uniform ones of
    # S_12..S_14 with exactly 2n inversions; tests/ci_checks.py adds the
    # S_14..S_16 transition walls
    perms = [w for n in range(1, 8) for w in iter_permutations(range(1, n + 1))]
    perms += drawn_permutations(1984, (12, 13, 14), lambda l, n: l == 2 * n, 4)
    results = symmetry_mismatches(perms), dominance_mismatches(perms)
    assert [(cases, bad[:5]) for cases, bad in results] == [(5913 + 12, [])] * 2


def test_increasing_tableaux_lie_between_the_shapes_of_w_and_its_inverse():
    # searched over every shape, the tableaux of F_w have shapes lam with
    # lambda(w) <= lam <= lambda(w^-1)' in dominance, the bound the count
    # otherwise assumes
    for n in range(1, 7):
        for w in iter_permutations(range(1, n + 1)):
            inverse = tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))
            low, high = shape_by_code(w), transpose_cells(shape_by_code(inverse))
            found = stanley_by_increasing_tableaux(w, filtered=False)
            assert found == stanley(w).terms(), w
            assert all(dominates(lam, low) and dominates(high, lam) for lam in found), w


def test_stanley_leaves_and_branches():
    # w0 is vexillary, and its leaf is the staircase
    for n in range(1, 12):
        w0 = tuple(range(n, 0, -1))
        assert stanley(w0) == SchurExpansion.basis(tuple(range(n - 1, 0, -1)))
    # 2143 is the smallest non-vexillary permutation: one transition step
    assert stanley((2, 1, 4, 3)) == s(2) + s(1, 1)
    assert stanley((1, 3, 2, 5, 4)) == s(2) + s(1, 1)
    for n in range(1, 8):
        for w in iter_permutations(range(1, n + 1)):
            f = stanley(w)
            assert stanley(direct_sum((1,), w)) == f  # F_{1 x w} = F_w
            # F_w is a single Schur function exactly at the 2143-avoiders
            avoids = not any(
                w[b] < w[a] < w[d] < w[c]
                for a, b, c, d in combinations(range(n), 4)
            )
            assert (list(f.terms().values()) == [1]) == avoids, w


def leaf_mismatches(n):
    """One transition step on every w in S_n, with each child standing for
    itself: the number of leaves, and the w whose leaf verdict or shape
    differs from the conjugate-shape test and the sorted Lehmer code, or
    whose children differ from those of the retry step.  A child sums to
    more than l(w), so it never reads as the leaf."""
    step, retry = perms._transition.__wrapped__, oracles.transition_with_retry.__wrapped__
    leaves, bad = 0, []
    stub = lambda u: ((u, 1),)
    with mock.patch.object(perms, "_transition", stub), \
            mock.patch.object(oracles, "transition_with_retry", stub):
        for w in iter_permutations(range(1, n + 1)):
            got, leaf = step(w), ((shape_by_code(w), 1),)
            if vexillary_by_conjugate(w):
                leaves += 1
                right = got == leaf
            else:
                right = got != leaf and got == retry(w)
            if not right:
                bad.append(w)
    return leaves, bad


def test_leaf_test_reads_the_rothe_rows_as_a_chain():
    # the vexillary permutations of S_n number 1, 2, 6, 23, ... (A005802)
    counts = [1, 1, 2, 6, 23, 103, 513, 2761, 15767]
    for n in range(1, 9):
        leaves, bad = leaf_mismatches(n)
        assert (leaves, bad[:5]) == (counts[n], []), n


def walked_permutations(seed, sizes, length, each):
    """each permutations of every size in sizes with length inversions,
    drawn by a walk of adjacent swaps that each add one."""
    rng, out = Random(seed), []
    for n in sizes:
        for _ in range(each):
            w = list(range(1, n + 1))
            for _ in range(length):
                i = rng.choice([i for i in range(n - 1) if w[i] < w[i + 1]])
                w[i], w[i + 1] = w[i + 1], w[i]
            out.append(tuple(w))
    return out


def test_stanley_matches_the_retry_transition():
    # one step on 1 x w against the step that retried on 1 x w when w gave no
    # child: every permutation of S_1..S_7, and seeded ones of S_12..S_14
    # with 16 inversions
    cases = [w for n in range(1, 8) for w in iter_permutations(range(1, n + 1))]
    cases += walked_permutations(2003, (12, 13, 14), 16, 40)
    assert len(cases) == 5913 + 120
    for w in cases:
        want = oracles.transition_with_retry(oracles.normalized_by_moved(w))
        assert stanley(w).terms() == dict(want), w


def test_stanley_matches_the_merge_transition():
    # the step that shares a lone child's terms and reads r and s off the
    # Rothe rows, against the step that merged every node into a fresh dict:
    # every permutation of S_1..S_7, and seeded ones of S_12..S_16 with 18
    # inversions
    cases = [w for n in range(1, 8) for w in iter_permutations(range(1, n + 1))]
    cases += walked_permutations(1982, (12, 13, 14, 15, 16), 18, 16)
    assert len(cases) == 5913 + 80
    for w in cases:
        want = oracles.transition_by_merge(oracles.normalized_by_moved(w))
        assert stanley(w).terms() == dict(want), w


def test_a_step_with_one_child_shares_its_terms():
    # a node with one child returns that child's memoized terms, not a copy,
    # so a chain of such nodes holds one expansion, not one per node
    step, shared = perms._transition.__wrapped__, 0
    for n in range(1, 7):
        for w in iter_permutations(range(1, n + 1)):
            if w != oracles.normalized_by_moved(w) or vexillary_by_conjugate(w):
                continue
            kids = []
            with mock.patch.object(perms, "_transition", lambda u: kids.append(u) or ((u, 1),)):
                step(w)
            if len(kids) == 1:
                shared += 1
                assert perms._transition(w) is perms._transition(kids[0]), w
    assert shared == 61  # of the 190 normalized non-leaves


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
            assert f.is_nonnegative()


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
