from itertools import combinations, permutations as iter_permutations, product
from random import Random

import pytest

from rankcalc.errors import (
    EmptyRankSet,
    InvalidRankSet,
    NotBounded,
    NotRankSetShaped,
    ParseError,
)
from rankcalc.grassmann import class_degree, phi
from rankcalc.perms import (
    AffinePermutation,
    affine_identity,
    affine_stanley,
    direct_sum,
    embed,
    length,
    northeast_count,
    stanley,
    tau_shift,
    window_text,
)
from rankcalc.rankset import (
    RankSet,
    affine_of_rank_set,
    all_rank_sets,
    codimension,
    containment_count,
    dimension,
    minimal_stretch,
    parse_rank_set,
    rank_set,
    rank_set_of_affine,
    rank_set_of_permutation,
    rank_set_text,
    stretch,
    w_of_rank_set,
)
from rankcalc.symfunc import monomial_to_schur

from oracles import (
    intervals_of_window,
    rank_variety_dimension,
    w_by_stretching,
    window_of_intervals,
)


def test_rank_set_validation_and_canonical_order():
    m = rank_set([(2, 5), (1, 1), (3, 4)], 5)
    assert m.intervals == ((1, 1), (3, 4), (2, 5))
    assert m.k == 3
    with pytest.raises(InvalidRankSet):
        rank_set([(1, 2), (1, 3)], 4)  # duplicate lefts
    with pytest.raises(InvalidRankSet):
        rank_set([(1, 3), (2, 3)], 4)  # duplicate rights
    with pytest.raises(InvalidRankSet):
        rank_set([(3, 2)], 4)
    with pytest.raises(InvalidRankSet):
        rank_set([(1, 5)], 4)
    with pytest.raises(InvalidRankSet):
        rank_set([], -1)
    with pytest.raises(InvalidRankSet):
        next(all_rank_sets(0, -1))


def test_containment_count():
    m = rank_set([(1, 1), (3, 4), (2, 5)], 5)
    assert containment_count(m, (2, 5)) == 2
    assert containment_count(m, (1, 1)) == 1
    assert containment_count(m, (3, 1)) == 0  # empty range


def test_dimension():
    m = rank_set([(1, 1), (3, 4), (2, 5)], 5)
    assert dimension(m) == 3
    assert codimension(m) == 3
    singles = rank_set([(1, 1), (2, 2), (3, 3)], 3)
    assert dimension(singles) == 0
    m2 = rank_set([(1, 3), (3, 6), (4, 5)], 6)
    assert dimension(m2) == 5


def test_affine_of_rank_set():
    m = rank_set([(1, 1), (3, 4), (2, 5)], 5)
    assert affine_of_rank_set(m).window == (6, 4, 5, 8, 7)
    m2 = rank_set([(1, 1), (3, 3)], 4)
    assert affine_of_rank_set(m2).window == (5, 2, 7, 4)
    assert affine_of_rank_set(rank_set([], 2)) == affine_identity(2)


def test_rank_set_of_affine():
    assert rank_set_of_affine(AffinePermutation((6, 4, 5, 8, 7))) == rank_set(
        [(1, 1), (3, 4), (2, 5)], 5
    )
    assert rank_set_of_affine(affine_identity(3)) == rank_set([], 3)
    assert rank_set_of_affine(AffinePermutation((5, 2, 7, 4))) == rank_set(
        [(1, 1), (3, 3)], 4
    )
    with pytest.raises(NotBounded):
        rank_set_of_affine(AffinePermutation((0, 3, 2, 5)))
    with pytest.raises(NotRankSetShaped):
        # bounded, but the in-window small entries 3, 2 are not increasing
        rank_set_of_affine(AffinePermutation((3, 2, 4)))
    with pytest.raises(InvalidRankSet):
        affine_of_rank_set(rank_set([], 0))


def test_derived_values_equal_their_validated_construction():
    # all_rank_sets, stretch, rank_set_of_affine and affine_of_rank_set build
    # their results without re-checking them; each must equal, field types
    # and text included, what the public constructor makes of its fields
    for n in range(1, 7):
        for k in range(n + 1):
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                for r in (m, stretch(m), rank_set_of_affine(f)):
                    again = RankSet(r.intervals, r.ambient_n)
                    assert r == again and rank_set_text(r) == rank_set_text(again)
                again = AffinePermutation(f.window)
                assert f == again and window_text(f) == window_text(again)


def test_kernels_match_their_earlier_formulas_through_n7():
    for n in range(1, 8):
        for k in range(n + 1):
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                assert f.window == window_of_intervals(m.intervals, n)
                assert rank_set_of_affine(f).intervals == m.intervals
                assert dimension(m) == rank_variety_dimension(m.intervals)


def test_rank_set_of_affine_matches_its_earlier_formula_on_every_window():
    # every window with entries in [0, 2n + 1] and distinct residues: the
    # unbounded and the unshaped ones raise what the earlier formula raised
    def outcome(fn, arg):
        try:
            return fn(arg)
        except (NotBounded, NotRankSetShaped) as exc:
            return type(exc)

    raised = set()
    for n in range(1, 5):
        for window in product(range(2 * n + 2), repeat=n):
            if len({x % n for x in window}) < n:
                continue
            want = outcome(intervals_of_window, window)
            if not isinstance(want, type):
                want = RankSet(want, n)
            assert outcome(rank_set_of_affine, AffinePermutation(window)) == want
            raised.add(want if isinstance(want, type) else None)
    assert raised == {NotBounded, NotRankSetShaped, None}


def test_round_trip_exhaustive_through_n6():
    for n in range(1, 7):
        for k in range(n + 1):
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                assert rank_set_of_affine(f) == m
                small = [x for x in f.window if x <= n]
                assert small == sorted(small)


def test_stretch():
    m = rank_set([(1, 3), (3, 6), (4, 5)], 6)
    m2 = stretch(stretch(m))
    assert m2 == rank_set([(1, 5), (3, 8), (4, 7)], 8)
    assert stretch(rank_set([], 3)) == rank_set([], 4)
    assert stretch(rank_set([(1, 1)], 1)) == rank_set([(1, 2)], 2)


def _pairwise_stretched(m):
    """The definition: min(S) < max(T) for every ordered pair of intervals."""
    return all(a < b for a, _ in m.intervals for _, b in m.intervals)


def test_stretched_iff_minimal_stretch_zero():
    for m, stretched in (
        (rank_set([(1, 5), (3, 8), (4, 7)], 8), True),
        (rank_set([(1, 3), (3, 6), (4, 5)], 6), False),
        (rank_set([(1, 2)], 3), True),
        (rank_set([(2, 2)], 3), False),
    ):
        assert _pairwise_stretched(m) == stretched
        assert (minimal_stretch(m) == 0) == stretched


def test_minimal_stretch():
    assert minimal_stretch(rank_set([(1, 3), (3, 6), (4, 5)], 6)) == 2
    assert minimal_stretch(rank_set([(1, 5), (3, 8), (4, 7)], 8)) == 0
    assert minimal_stretch(rank_set([(2, 2)], 3)) == 1
    with pytest.raises(EmptyRankSet):
        minimal_stretch(rank_set([], 3))
    # the closed form agrees with iterating the predicate
    for n in range(1, 5):
        for k in range(1, n + 1):
            for m in all_rank_sets(k, n):
                steps = minimal_stretch(m)
                probe = m
                for _ in range(steps):
                    probe = stretch(probe)
                assert _pairwise_stretched(probe)
                if steps:
                    back = m
                    for _ in range(steps - 1):
                        back = stretch(back)
                    assert not _pairwise_stretched(back)


def test_w_of_rank_set_worked_example():
    m = rank_set([(1, 3), (3, 6), (4, 5)], 6)
    assert w_of_rank_set(m) == (1, 3, 2, 6, 5, 4, 7, 8)
    with pytest.raises(EmptyRankSet):
        w_of_rank_set(rank_set([], 4))


def test_w_of_rank_set_matches_the_stretch_loop_through_n8():
    count = 0
    for n in range(1, 9):
        for k in range(1, n + 1):
            for m in all_rank_sets(k, n):
                w = w_of_rank_set(m)
                assert w == w_by_stretching(m.intervals, n), m
                assert sorted(w) == list(range(1, n + minimal_stretch(m) + 1)), m
                count += 1
    assert count == 26433


def test_w_of_rank_set_class_is_sigma22():
    m = rank_set([(1, 1), (3, 3)], 4)
    cls = phi(stanley(w_of_rank_set(m)), 2, 4)
    assert cls.terms() == {(2, 2): 1}
    other = phi(monomial_to_schur(affine_stanley(affine_of_rank_set(m))), 2, 4)
    assert cls == other


def test_w_of_rank_set_singletons_give_point():
    for k in (1, 2, 3):
        m = rank_set([(i, i) for i in range(1, k + 1)], k)
        cls = phi(stanley(w_of_rank_set(m)), k, k)
        assert class_degree(cls) == 1
        oracle = phi(
            monomial_to_schur(affine_stanley(affine_of_rank_set(m))), k, k
        )
        assert cls == oracle


def theorem_mismatches(n):
    """Check the paper's theorem on every rank set m in every Gr(k, n),
    k >= 1: the class of w_M equals the class read off the affine Stanley
    function of f_M.  Returns the number of rank sets checked and the list
    of those where the two differ."""
    cases, bad = 0, []
    for k in range(1, n + 1):
        for m in all_rank_sets(k, n):
            cases += 1
            via_w = phi(stanley(w_of_rank_set(m)), k, n)
            via_f = phi(monomial_to_schur(affine_stanley(affine_of_rank_set(m))), k, n)
            if via_w != via_f:
                bad.append(m)
    return cases, bad


def test_paper_theorem_on_every_rank_set_through_n7():
    # the verify suite stops at n = 5; CI runs theorem_mismatches(8) as well
    results = [theorem_mismatches(n) for n in range(1, 8)]
    assert sum(cases for cases, _ in results) == 5287
    assert [m for _, bad in results for m in bad] == []


def mirror_breaks(m):
    """Whether m and its mirror {[n+1-b, n+1-a]} have different classes:
    reversing the basis of C^n is an element of GL_n, which acts trivially
    on H*(Gr(k, n)), and maps the rank variety of one to that of the other,
    whose w_M walks another transition tree."""
    n = m.ambient_n
    mirror = rank_set([(n + 1 - b, n + 1 - a) for a, b in m.intervals], n)
    return phi(stanley(w_of_rank_set(m)), m.k, n) != phi(
        stanley(w_of_rank_set(mirror)), m.k, n
    )


def mirror_mismatches(n):
    """The number of rank sets in every Gr(k, n), k >= 1, and those whose
    mirror has another class."""
    cases = [m for k in range(1, n + 1) for m in all_rank_sets(k, n)]
    return len(cases), [m for m in cases if mirror_breaks(m)]


def drawn_rank_sets(seed, sizes, each):
    """each rank sets of codimension 2n in Gr(n // 2, n) for every n in
    sizes: lefts and rights drawn at random, each right matched to a random
    unused left at most it, a draw rejected if one is left without."""
    rng, out = Random(seed), []
    for n in sizes:
        k, drawn = n // 2, []
        while len(drawn) < each:
            lefts, pairs = rng.sample(range(1, n + 1), k), []
            for b in sorted(rng.sample(range(1, n + 1), k)):
                options = [a for a in lefts if a <= b]
                if not options:
                    break
                a = rng.choice(options)
                lefts.remove(a)
                pairs.append((a, b))
            else:
                m = rank_set(pairs, n)
                if codimension(m) == 2 * n:
                    drawn.append(m)
        out += drawn
    return out


def test_a_rank_set_and_its_mirror_have_one_class_through_n7():
    # every rank set with n <= 7, and three seeded ones of codimension 2n
    # for each n = 12..16 (past that a draw can take a minute); CI runs
    # mirror_mismatches(8) as well
    results = [mirror_mismatches(n) for n in range(1, 8)]
    seeded = drawn_rank_sets(1991, range(12, 17), 3)
    bad = [m for _, found in results for m in found] + list(filter(mirror_breaks, seeded))
    assert (sum(cases for cases, _ in results), len(seeded), bad[:5]) == (5287, 15, [])


def test_stretching_a_stretched_rank_set_keeps_its_class_through_n7():
    # when minimal_stretch(m) >= 1, w_of_rank_set stretches m first, so m and
    # stretch(m) give one w and the verify suite's stretch check holds by
    # construction; on the rank sets already stretched the two w differ, and
    # only the theorem makes their classes in Gr(k, n) agree
    cases = 0
    for n in range(1, 8):
        for k in range(1, n + 1):
            for m in all_rank_sets(k, n):
                if minimal_stretch(m):
                    continue
                cases += 1
                w, stretched_w = w_of_rank_set(m), w_of_rank_set(stretch(m))
                assert w != stretched_w, m
                assert phi(stanley(w), k, n) == phi(stanley(stretched_w), k, n), m
    assert cases == 216


def test_rank_set_of_permutation():
    m = rank_set_of_permutation((2, 4, 1, 5, 3))
    assert m.intervals == ((2, 6), (4, 7), (1, 8), (5, 9), (3, 10))
    assert m.ambient_n == 10
    assert rank_set_of_permutation((1,)) == rank_set([(1, 2)], 2)


def test_rank_set_of_permutation_affine_identity():
    for n in (1, 2, 3):
        for w in iter_permutations(range(1, n + 1)):
            f = affine_of_rank_set(rank_set_of_permutation(w))
            expected = tuple(range(n + 1, 2 * n + 1)) + tuple(
                x + 2 * n for x in w
            )
            assert f.window == expected
            # equal, after recentring, to the shifted embedded direct sum
            shifted = tau_shift(
                embed(direct_sum(w, tuple(range(1, n + 1)))), 2 * n, -n
            )
            assert f == shifted
            assert monomial_to_schur(affine_stanley(f)) == stanley(w)


def test_interval_rank_identity_small():
    for n in range(1, 5):
        for k in range(n + 1):
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                for r in range(1, n + 1):
                    for s in range(r, n + 1):
                        assert containment_count(m, (r, s)) == northeast_count(
                            f, s + 1, n + r - 1
                        )


def test_codim_equals_length_small():
    for n in range(1, 5):
        for k in range(n + 1):
            for m in all_rank_sets(k, n):
                assert codimension(m) == length(affine_of_rank_set(m))


def test_correspondence_is_a_bijection():
    # rank sets for (k, n) biject with bounded windows of average shift k
    # whose entries in [n] appear in increasing order
    from oracles import bounded_windows

    from rankcalc.perms import av

    for n in (2, 3, 4):
        eligible = {}
        for window in bounded_windows(n):
            small = [x for x in window if x <= n]
            if small == sorted(small):
                eligible.setdefault(
                    (sum(window) - n * (n + 1) // 2) // n, set()
                ).add(window)
        for k in range(n + 1):
            images = set()
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                assert av(f) == k
                images.add(f.window)
            assert images == eligible.get(k, set()), (k, n)


def test_all_rank_sets_matches_the_filter():
    # the oracle filters every tuple of distinct left ends, lexicographically
    # within each right set, keeping those with each left at most its right
    for n in range(8):
        for k in range(n + 1):
            filtered = [
                tuple(zip(lefts, rights))
                for rights in combinations(range(1, n + 1), k)
                for lefts in iter_permutations(range(1, n + 1), k)
                if all(a <= b for a, b in zip(lefts, rights))
            ]
            generated = [m.intervals for m in all_rank_sets(k, n)]
            assert generated == filtered, (k, n)


def test_text_round_trip():
    m = rank_set([(1, 3), (3, 6), (4, 5)], 6)
    # rendering follows the canonical storage order (increasing right
    # endpoints); parsing accepts any order
    assert rank_set_text(m) == "[1,3],[4,5],[3,6];n=6"
    assert parse_rank_set("[1,3],[3,6],[4,5];n=6") == m
    assert parse_rank_set(rank_set_text(m)) == m
    assert parse_rank_set(";n=4") == rank_set([], 4)
    with pytest.raises(ParseError):
        parse_rank_set("[1,3]")
    with pytest.raises(ParseError):
        parse_rank_set("[3,1];n=4")
