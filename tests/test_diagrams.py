from itertools import combinations, permutations as iter_permutations, product
from random import Random

import pytest

import oracles
from rankcalc import diagrams, partitions, symfunc
from rankcalc.diagrams import (
    Diagram,
    complement_rotate,
    degeneration_check,
    diagram,
    diagram_of_permutation,
    diagram_text,
    james_peel_move,
    parse_diagram,
    product_diagram,
    specht_bruteforce,
    specht_dim,
    specht_schur,
    staircase_pattern,
)
from rankcalc.errors import (
    NegativeMultiplicity,
    ParseError,
    ShapeTooLarge,
    TooLarge,
    UnsupportedDiagram,
)
from rankcalc.grassmann import skew_complement_class
from rankcalc.partitions import RectangleContext, all_partitions, conjugate, syt_count
from rankcalc.perms import stanley
from rankcalc.symfunc import SchurExpansion, schur_product


def s(*parts):
    return SchurExpansion.basis(tuple(parts))


def box_diagrams(rows, cols, max_size):
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for size in range(max_size + 1):
        for chosen in combinations(cells, size):
            yield diagram(chosen)


def test_diagram_validation():
    with pytest.raises(ValueError):
        diagram([(0, 1)])
    with pytest.raises(ValueError):
        diagram([(3, 1)], RectangleContext(2, 2))
    d = diagram([(1, 2), (2, 1)], RectangleContext(2, 2))
    assert len(d.cells) == 2


def test_complement_rotate():
    full = complement_rotate(diagram([]), RectangleContext(2, 2))
    assert full.cells == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
    box = RectangleContext(3, 3)
    for d in box_diagrams(3, 3, 4):
        assert complement_rotate(complement_rotate(d, box), box).cells == d.cells
    with pytest.raises(ShapeTooLarge):
        complement_rotate(diagram([(3, 3)]), RectangleContext(2, 2))


def test_diagram_of_permutation():
    assert diagram_of_permutation((2, 4, 1, 5, 3)).cells == frozenset(
        {(1, 1), (2, 1), (2, 3), (4, 3)}
    )
    assert diagram_of_permutation((1, 2, 3)).cells == frozenset()
    assert diagram_of_permutation((2, 1, 4, 3, 6, 5, 8, 7)).cells == frozenset(
        {(1, 1), (3, 3), (5, 5), (7, 7)}
    )


def test_staircase_pattern():
    d = staircase_pattern((2, 4, 1, 5, 3))
    assert {c for r, c in d.cells if r == 1} == {2, 3, 4, 5, 6}
    assert staircase_pattern((1,)).cells == frozenset({(1, 1), (1, 2)})
    for n in (2, 3, 4):
        for w in iter_permutations(range(1, n + 1)):
            pattern = staircase_pattern(w)
            for i in range(1, n + 1):
                assert len([c for r, c in pattern.cells if r == i]) == i + n - w[i - 1] + 1


def test_james_peel_move_matrix_example():
    before = diagram([(1, 1), (3, 1), (2, 2), (3, 2)])
    after = james_peel_move(before, 1, 2)
    assert after.cells == frozenset({(1, 2), (2, 2), (3, 1), (3, 2)})
    assert james_peel_move(diagram([]), 1, 2).cells == frozenset()
    with pytest.raises(ValueError):
        james_peel_move(before, 2, 2)


def test_james_peel_idempotent_on_3x3():
    for d in box_diagrams(3, 3, 9):
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                once = james_peel_move(d, i, j)
                assert james_peel_move(once, i, j).cells == once.cells


def test_degeneration_check():
    assert degeneration_check((2, 4, 1, 5, 3))
    assert degeneration_check((1,))
    for n in (2, 3, 4):
        for w in iter_permutations(range(1, n + 1)):
            assert degeneration_check(w)


def _cells_of_rows(pattern):
    """The cells of row masks: bit c of pattern[i - 1] is the cell (i, c)."""
    return frozenset(
        (i, c)
        for i, mask in enumerate(pattern, start=1)
        for c in range(mask.bit_length())
        if mask >> c & 1
    )


def test_diagram_of_permutation_matches_the_pair_comprehension():
    def check(w):
        assert diagram_of_permutation(w).cells == oracles.rothe_cells_by_pairs(w), w

    for n in range(1, 8):
        for w in iter_permutations(range(1, n + 1)):
            check(w)
    rng = Random(23)
    for _ in range(200):
        w = list(range(1, rng.randint(10, 20) + 1))
        rng.shuffle(w)
        check(tuple(w))


def _rows_of_cells(cells, n):
    pattern = [0] * n
    for i, c in cells:
        pattern[i - 1] |= 1 << c
    return pattern


def test_degeneration_transfers_match_james_peel_fold(monkeypatch):
    # degeneration_check is True on every permutation, so compare the
    # pattern it tests, cell for cell, with two folds over the staircase
    seen = []
    monkeypatch.setattr(
        diagrams,
        "_degeneration_holds",
        lambda w, pattern: seen.append(_cells_of_rows(pattern)) or True,
    )
    for n in range(1, 7):
        for w in iter_permutations(range(1, n + 1)):
            seen.clear()
            assert degeneration_check(w)
            by_moves = staircase_pattern(w)
            by_oracle = by_moves.cells
            for i in range(n, 0, -1):
                by_moves = james_peel_move(by_moves, n + i, w[i - 1])
                by_oracle = oracles.column_transfer(by_oracle, n + i, w[i - 1])
            assert seen == [by_moves.cells] == [by_oracle], w


def test_degeneration_structure_rejects_broken_patterns():
    # w = 21: the transfers leave the staircase pattern of w as it is
    w = (2, 1)
    good = {(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4)}
    assert good == staircase_pattern(w).cells

    def holds(cells):
        return diagrams._degeneration_holds(w, _rows_of_cells(cells, 2))

    assert holds(good)
    # (1, 4) needs row 1 of the inversion diagram, {1}, inside row 2, {}
    assert not holds(good | {(1, 4)})
    # the first two columns must be the complement of the inversion diagram
    assert not holds(good - {(1, 2)})
    assert not holds(good | {(1, 1)})


def test_degeneration_predicate_matches_cell_sets():
    # every permutation passes, so toggle each cell of [n] x [2n] in the
    # transferred pattern, one at a time, to reach the reject branches
    verdicts = set()
    for n in range(1, 6):
        for w in iter_permutations(range(1, n + 1)):
            pattern = staircase_pattern(w).cells
            for i in range(n, 0, -1):
                pattern = oracles.column_transfer(pattern, n + i, w[i - 1])
            for cell in product(range(1, n + 1), range(1, 2 * n + 1)):
                toggled = pattern ^ {cell}
                want = oracles.degeneration_holds(w, toggled)
                got = diagrams._degeneration_holds(w, _rows_of_cells(toggled, n))
                assert got == want, (w, cell)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_james_peel_move_matches_cell_transfer():
    # columns below 1 included: no cell moves out of one, and a cell moved
    # into one is rejected by Diagram, as on the cell set
    def outcome(fn):
        try:
            return fn().cells
        except ValueError:
            return ValueError

    for d in box_diagrams(2, 3, 6):
        for i, j in product(range(-1, 5), repeat=2):
            if i != j:
                want = outcome(lambda: diagram(oracles.column_transfer(d.cells, i, j)))
                assert outcome(lambda: james_peel_move(d, i, j)) == want, (d, i, j)


def test_derived_diagrams_equal_their_validated_construction():
    # these build their results without re-checking them; each must equal,
    # cell types and hash included, what the public constructor makes of
    # its fields, and a boxed transfer out of the box must still raise
    def same(d):
        again = Diagram(d.cells, d.ctx)
        assert type(d.cells) is frozenset and d == again and hash(d) == hash(again)
        assert all(type(r) is int and type(c) is int for r, c in d.cells), d

    for n in range(1, 6):
        for w in iter_permutations(range(1, n + 1)):
            same(diagram_of_permutation(w))
            same(staircase_pattern(w))
    box = RectangleContext(2, 3)
    for d in box_diagrams(2, 3, 6):
        boxed = diagram(d.cells, box)
        same(complement_rotate(d, box))
        for i, j in product(range(1, 5), repeat=2):
            if i == j:
                continue
            same(james_peel_move(d, i, j))
            cells = oracles.column_transfer(d.cells, i, j)
            if all(c <= 3 for _, c in cells):
                same(james_peel_move(boxed, i, j))
            else:
                with pytest.raises(ValueError):
                    james_peel_move(boxed, i, j)


def test_product_diagram():
    d = diagram([(1, 1), (2, 2)])
    assert product_diagram(diagram([]), RectangleContext(0, 0), d).cells == d.cells
    assert product_diagram(
        diagram([(1, 1)]), RectangleContext(1, 1), diagram([(1, 1)])
    ).cells == frozenset({(1, 1), (2, 2)})
    with pytest.raises(ShapeTooLarge):
        product_diagram(diagram([(2, 1)]), RectangleContext(1, 1), diagram([]))


def test_specht_schur_diagonal_is_regular_representation():
    diag = diagram([(1, 1), (2, 2), (3, 3), (4, 4)])
    expected = SchurExpansion({lam: syt_count(lam) for lam in all_partitions(4)})
    assert specht_schur(diag) == expected
    # the same cells as a permutation diagram, in a bigger grid
    w = (2, 1, 4, 3, 6, 5, 8, 7)
    spread = diagram_of_permutation(w)
    assert specht_schur(spread) == expected
    assert specht_schur(spread, "perm:21436587") == expected
    assert stanley(w) == expected


def test_specht_schur_families():
    assert specht_schur(diagram([(1, 1), (1, 2), (1, 3)])) == s(3)
    assert specht_schur(diagram([(1, 2), (2, 1), (2, 2)])) == s(2, 1)
    assert specht_schur(diagram([]), None) == SchurExpansion.one()
    # explicit hints
    assert specht_schur(diagram([(1, 2), (2, 1), (2, 2)]), "skew") == s(2, 1)
    split = diagram([(1, 1), (2, 2), (2, 3)])
    assert specht_schur(split, "product") == schur_product(s(1), s(2))
    with pytest.raises(UnsupportedDiagram):
        specht_schur(diagram([(1, 1), (1, 3), (2, 2)]))
    with pytest.raises(UnsupportedDiagram):
        specht_schur(diagram([(1, 1)]), "dual")  # needs a box
    with pytest.raises(UnsupportedDiagram):
        specht_schur(diagram([(1, 1)]), "perm:12")
    with pytest.raises(ParseError):
        specht_schur(diagram([(1, 1)]), "nonsense")


def test_specht_schur_dual_family():
    box = RectangleContext(4, 4)
    diag = diagram([(1, 1), (2, 2), (3, 3), (4, 4)], box)
    dual = complement_rotate(diag, box)
    expansion = specht_schur(dual, "dual")
    assert expansion.terms() == {
        (3, 3, 3, 3): 1,
        (4, 3, 3, 2): 3,
        (4, 4, 2, 2): 2,
        (4, 4, 3, 1): 3,
        (4, 4, 4): 1,
    }
    assert specht_dim(expansion) == 24024


def test_specht_schur_rejects_near_misses():
    # a gap over an occupied column breaks the interval condition
    with pytest.raises(UnsupportedDiagram):
        specht_schur(diagram([(1, 1), (1, 3), (2, 2)]), "skew")
    # interval rows whose spans cannot be ordered with both endpoints
    # weakly decreasing: {2} over {1,2,3}
    with pytest.raises(UnsupportedDiagram):
        specht_schur(diagram([(1, 2), (2, 1), (2, 2), (2, 3)]), "skew")
    # a gap over an empty column is just a deleted column, so this one is
    # recognized, and the row sort plus compression must match the oracle
    gapped = diagram([(1, 2), (1, 4), (2, 1), (2, 2)])
    assert specht_schur(gapped) == specht_bruteforce(gapped)


def test_specht_schur_zigzag_after_row_sort():
    # rows {1}, {1,2}, {2} sort into the skew shape (2,2,1)/(1)
    zigzag = diagram([(1, 1), (2, 1), (2, 2), (3, 2)])
    assert specht_schur(zigzag) == specht_bruteforce(zigzag)


def _outcome(route, d, family):
    try:
        return route(d, family)
    except Exception as exc:
        return type(exc), str(exc)


def test_shape_families_match_the_block_split_search():
    # every cell subset of 3x3 and of 2x4, in each shape family and the dual
    # one: the same expansion, or the same exception and message, as the
    # route that searched block splits and multiplied the parts
    for rows, cols in ((3, 3), (2, 4)):
        box = RectangleContext(rows, cols)
        cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
        for size in range(len(cells) + 1):
            for chosen in combinations(cells, size):
                d = diagram(chosen, box)
                for family in (None, "skew", "product", "dual"):
                    assert _outcome(specht_schur, d, family) == _outcome(
                        oracles.specht_schur_by_splits, d, family
                    ), (chosen, family)


def test_skew_families_reach_no_littlewood_richardson_count(monkeypatch):
    # the skew, product and dual families and the skew complement class read
    # skew Schur functions off transition, so with the LR walk refused they
    # still answer as the split-search oracle did without it
    box = RectangleContext(3, 3)
    cells = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    cases = [
        (diagram(chosen, box), family)
        for size in range(len(cells) + 1)
        for chosen in combinations(cells, size)
        for family in (None, "skew", "product", "dual")
    ]
    want = [_outcome(oracles.specht_schur_by_splits, d, family) for d, family in cases]
    classes = [((4, 3, 2, 1), (3, 2, 1), 4, 8), ((3, 1), (), 2, 5), ((5, 3, 1), (2, 1), 3, 8)]
    want_classes = [skew_complement_class(*args) for args in classes]

    def refuse(*args):
        raise AssertionError(f"_lr_walk{args}")

    # lr_coefficient reads the walk through the partitions module; a memo
    # hit would answer without reaching it
    partitions.lr_coefficient.cache_clear()
    monkeypatch.setattr(partitions, "_lr_walk", refuse)
    monkeypatch.setattr(symfunc, "_lr_walk", refuse)
    for (d, family), expected in zip(cases, want):
        assert _outcome(specht_schur, d, family) == expected, (sorted(d.cells), family)
    assert [skew_complement_class(*args) for args in classes] == want_classes
    with pytest.raises(AssertionError, match="_lr_walk"):
        schur_product(s(1), s(1))


def test_product_family_needs_a_block_split_of_a_skew_shape():
    # a skew shape with no block split
    with pytest.raises(UnsupportedDiagram, match="admits no block split"):
        specht_schur(diagram([(1, 2), (2, 1), (2, 2)]), "product")
    # a block split whose lower block is not a skew shape
    with pytest.raises(UnsupportedDiagram, match="admits no block split"):
        specht_schur(diagram([(1, 1), (2, 3), (2, 5), (3, 4)]), "product")


def test_specht_schur_reads_a_block_product_without_a_search(monkeypatch):
    calls = []
    skew_schur = diagrams.skew_schur
    monkeypatch.setattr(
        diagrams, "skew_schur", lambda outer, inner: calls.append(outer) or skew_schur(outer, inner)
    )
    # a chain of diagonal blocks over one that is not a skew shape: rejected
    # before any expansion, where a search over its block splits expanded
    # every run of diagonal cells it cut off
    chain = diagram([(i, i) for i in range(1, 9)] + [(9, 10), (10, 9), (10, 11)])
    with pytest.raises(UnsupportedDiagram, match="no decomposition rule"):
        specht_schur(chain)
    assert calls == []
    # the diagonal is one skew shape, in the product family too
    regular = SchurExpansion({lam: syt_count(lam) for lam in all_partitions(3)})
    assert specht_schur(diagram([(1, 1), (2, 2), (3, 3)]), "product") == regular
    assert calls == [(3, 2, 1)]


def test_product_multiplicativity_cross_check():
    d1 = diagram([(1, 1), (1, 2)])
    d2 = diagram([(1, 1), (2, 1)])
    combined = product_diagram(d1, RectangleContext(1, 2), d2)
    assert specht_schur(combined) == schur_product(
        specht_schur(d1), specht_schur(d2)
    )


def test_specht_dim():
    assert specht_dim(s(1)) == 1
    diag = diagram([(1, 1), (2, 2), (3, 3), (4, 4)])
    assert specht_dim(specht_schur(diag)) == 24
    with pytest.raises(NegativeMultiplicity):
        specht_dim(s(2) - s(1, 1))


def test_specht_bruteforce_small_shapes():
    assert specht_bruteforce(diagram([])) == SchurExpansion.one()
    assert specht_bruteforce(diagram([(1, 1), (1, 2), (1, 3)])) == s(3)
    assert specht_bruteforce(diagram([(1, 1), (2, 1), (3, 1)])) == s(1, 1, 1)
    assert specht_bruteforce(diagram([(1, 1), (2, 2), (3, 3)])) == (
        s(1, 1, 1) + 2 * s(2, 1) + s(3)
    )
    assert specht_bruteforce(diagram([(1, 2), (2, 1), (2, 2)])) == s(2, 1)
    with pytest.raises(TooLarge):
        specht_bruteforce(diagram([(1, c) for c in range(1, 8)]))


def test_specht_bruteforce_matches_fraction_pairing():
    # every diagram of the 3x3 box with at most 5 cells, and the Rothe
    # diagrams of S_<=4, which reach the 6-cell bound
    sweep = [*box_diagrams(3, 3, 5)] + [
        diagram_of_permutation(w)
        for n in range(1, 5)
        for w in iter_permutations(range(1, n + 1))
    ]
    assert len(sweep) == 382 + 33
    for d in sweep:
        expected = oracles.specht_by_fractions(d.cells)
        assert specht_bruteforce(d).terms() == expected, sorted(d.cells)


def test_polytabloids_match_signs_by_inversion_count():
    # the sign table against counting each filling's inversions, order of
    # vectors and of their entries included: every diagram of the 3x3 box
    # with at most 5 cells and a 6-cell one
    sweep = [d.cells for d in box_diagrams(3, 3, 5)] + [
        frozenset({(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)})
    ]
    for cells in sweep:
        got = [list(v.items()) for v in diagrams._polytabloids(cells)]
        want = [list(v.items()) for v in oracles.polytabloids_by_inversions(cells)]
        assert got == want, sorted(cells)
    assert diagrams._signed_permutations.cache_info().currsize == 7


def test_specht_bruteforce_memo():
    memo = diagrams._polytabloid_expansion
    assert memo.cache_info().maxsize is not None
    memo.cache_clear()
    cells = [(1, 1), (2, 2), (2, 3)]
    plain = specht_bruteforce(diagram(cells))
    boxed = specht_bruteforce(diagram(cells, RectangleContext(3, 3)))
    assert boxed == plain == s(2, 1) + s(3)
    info = memo.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    # the size bound fires before the table is looked at
    with pytest.raises(TooLarge):
        specht_bruteforce(diagram([(1, c) for c in range(1, 8)]))
    assert memo.cache_info() == info


def test_specht_bruteforce_agrees_with_rules_in_3x3():
    for d in box_diagrams(3, 3, 4):
        try:
            ruled = specht_schur(d)
        except UnsupportedDiagram:
            continue
        assert specht_bruteforce(d) == ruled, sorted(d.cells)


def test_specht_bruteforce_agrees_with_rules_in_wide_boxes():
    # aspect ratios the 3x3 sweep cannot see
    for rows, cols in ((2, 4), (4, 2)):
        for d in box_diagrams(rows, cols, 6):
            try:
                ruled = specht_schur(d)
            except UnsupportedDiagram:
                continue
            assert specht_bruteforce(d) == ruled, sorted(d.cells)


def test_specht_bruteforce_permutation_diagrams():
    for n in (2, 3, 4):
        for w in iter_permutations(range(1, n + 1)):
            d = diagram_of_permutation(w)
            if len(d.cells) > 5:
                continue
            assert specht_bruteforce(d) == stanley(w), w


def test_specht_bruteforce_six_cells():
    # the documented bound is six cells; exercise it on three shapes
    staircase = diagram(
        [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    )
    assert specht_bruteforce(staircase) == s(3, 2, 1)
    zigzag = diagram([(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)])
    assert specht_bruteforce(zigzag) == specht_schur(zigzag)
    diag6 = diagram([(i, i) for i in range(1, 7)])
    expected = SchurExpansion({lam: syt_count(lam) for lam in all_partitions(6)})
    assert specht_bruteforce(diag6) == expected
    assert specht_schur(diag6) == expected


def test_transpose_tensors_with_sign():
    # S^{D transposed} is S^D tensored with the sign module, which conjugates
    # every partition of the decomposition
    def conjugated(e):
        return SchurExpansion({conjugate(lam): c for lam, c in e.items()})

    ruled_pairs = 0
    for d in [*box_diagrams(3, 3, 4), *box_diagrams(2, 3, 6)]:
        t = diagram((c, r) for r, c in d.cells)
        brute = specht_bruteforce(d)
        assert specht_bruteforce(t) == conjugated(brute), sorted(d.cells)
        try:
            ruled, ruled_t = specht_schur(d), specht_schur(t)
        except UnsupportedDiagram:
            continue
        ruled_pairs += 1
        assert ruled_t == conjugated(ruled), sorted(d.cells)
    assert ruled_pairs == 237  # pairs where a rule recognizes both diagrams


def test_specht_bruteforce_row_column_permutation_invariance():
    base = diagram([(1, 1), (1, 2), (2, 2), (3, 1)])
    reference = specht_bruteforce(base)
    for rows in iter_permutations((1, 2, 3)):
        for cols in iter_permutations((1, 2)):
            moved = diagram(
                (rows[r - 1], cols[c - 1]) for r, c in base.cells
            )
            assert specht_bruteforce(moved) == reference


def test_diagram_text():
    d = diagram([(1, 1), (2, 2)], RectangleContext(4, 4))
    assert diagram_text(d) == "(1,1),(2,2);box=4x4"
    assert parse_diagram("(1,1),(2,2);box=4x4") == d
    assert parse_diagram("(1,1),(2,2)") == diagram([(1, 1), (2, 2)])
    with pytest.raises(ParseError):
        parse_diagram("(1,1),(2,2);box=4")
    with pytest.raises(ParseError):
        parse_diagram("nonsense")
    with pytest.raises(ParseError):
        parse_diagram("(0,1)")
