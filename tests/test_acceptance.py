"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line; all comparisons are exact integer or
expansion equality (no tolerances).  Stated runtime ceilings are asserted
with time.perf_counter.

The externally computed degree 21384 enters only through the pinned class
identity in rankcalc.verify; check 4 validates it purely by class
arithmetic, which is the documented substitute for recomputing that degree
from defining equations.
"""

import time
from itertools import combinations, permutations as iter_permutations

from rankcalc.diagrams import (
    degeneration_check,
    diagram,
    diagram_of_permutation,
    james_peel_move,
    specht_bruteforce,
    specht_schur,
)
from rankcalc.errors import UnsupportedDiagram
from rankcalc.grassmann import class_degree, phi, schubert_class
from rankcalc.partitions import all_partitions, syt_count
from rankcalc.perms import (
    AffinePermutation,
    affine_stanley,
    direct_sum,
    embed,
    length,
    northeast_count,
    permutation_text,
    stanley,
    tau_shift,
)
from rankcalc.rankset import (
    affine_of_rank_set,
    all_rank_sets,
    codimension,
    containment_count,
    minimal_stretch,
    rank_set,
    rank_set_of_permutation,
    stretch,
    w_of_rank_set,
)
from rankcalc.symfunc import (
    MonomialExpansion,
    SchurExpansion,
    monomial_to_schur,
    parse_expansion,
    schur_to_monomial,
)
from rankcalc.verify import known_diagonal_class, replay_counterexample

from oracles import factorization_counts, transpose_cells


def _line(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_1_rank_set_correspondence():
    start = time.perf_counter()
    window = affine_of_rank_set(rank_set([(1, 1), (3, 4), (2, 5)], 5)).window
    elapsed = time.perf_counter() - start
    ok = window == (6, 4, 5, 8, 7) and elapsed < 0.001
    _line(1, ok, f"rank set correspondence window={window} in {elapsed * 1e3:.3f} ms")
    assert window == (6, 4, 5, 8, 7)
    assert elapsed < 0.001


def test_criterion_2_example_triple():
    window = (5, 2, 7, 4)
    f = AffinePermutation(window)
    # independent transcription of the definition, kept out of the timing
    oracle = {lam: factorization_counts(window, lam) for lam in all_partitions(4)}

    start = time.perf_counter()
    affine_monomial = affine_stanley(f)
    affine_schur = monomial_to_schur(affine_monomial)
    ordinary = stanley((3, 1, 5, 2, 4))
    phi_affine = phi(affine_schur, 2, 4)
    phi_ordinary = phi(ordinary, 2, 4)
    elapsed = time.perf_counter() - start

    # affine_stanley is the generating function of cyclically decreasing
    # factorizations, so each coefficient is a count: it must match the
    # oracle on every partition of l(f) = 4.  No cyclically decreasing
    # element on 4 residues has length 4 (its letters are distinct and the
    # full residue set admits none), so the count on m[4] is 0, and the
    # unique Schur form is s22 + s211 - s1111.
    #
    # The stated form s22 + s31 - s4 expands with coefficient -1 on m[4],
    # which no count can take, so it is kept as three relations, not as
    # the expected value: it is the computed form with every partition
    # transposed (omega), it differs from the computed monomial form by
    # exactly -m[4] (so the two agree modulo <m_lam : lam_1 >= 4>), and it
    # truncates to the same class sigma_22 in Gr(2,4).  The paper's printed
    # form is not in the repository, so which representative it used
    # cannot be read off here.
    sigma22 = schubert_class((2, 2), 2, 4)
    expected_affine = parse_expansion("1*s[2,2] + 1*s[2,1,1] - 1*s[1,1,1,1]")
    stated_affine = parse_expansion("1*s[2,2] + 1*s[3,1] - 1*s[4]")
    ordinary_ok = ordinary == parse_expansion("1*s[2,2] + 1*s[3,1]")
    phi_ok = phi_affine == sigma22 == phi_ordinary
    counts = {lam: affine_monomial.coeff(lam) for lam in oracle}
    affine_ok = counts == oracle and affine_schur == expected_affine
    transposed = SchurExpansion(
        {transpose_cells(lam): c for lam, c in affine_schur.items()}
    )
    stated_gap = schur_to_monomial(stated_affine) - affine_monomial
    phi_stated = phi(stated_affine, 2, 4)
    stated_ok = (
        stated_affine == transposed
        and stated_gap == -MonomialExpansion.basis((4,))
        and phi_stated == sigma22
    )

    _line(
        2,
        ordinary_ok and phi_ok and affine_ok and stated_ok and elapsed < 1.0,
        f"expansion triple in {elapsed:.3f} s "
        f"(ordinary={'ok' if ordinary_ok else 'BAD'}, phi={'ok' if phi_ok else 'BAD'}, "
        f"affine={'ok' if affine_ok else 'BAD: got ' + affine_schur.text()}, "
        f"stated={'ok' if stated_ok else 'BAD'})",
    )
    assert ordinary_ok
    assert phi_ok
    assert elapsed < 1.0
    assert counts == oracle, affine_monomial.text()
    assert affine_schur == expected_affine, affine_schur.text()
    assert stated_affine == transposed, transposed.text()
    assert stated_gap == -MonomialExpansion.basis((4,)), stated_gap.text()
    assert phi_stated == sigma22


def test_criterion_3_stretching_algorithm():
    start = time.perf_counter()
    m = rank_set([(1, 3), (3, 6), (4, 5)], 6)
    steps = minimal_stretch(m)
    stretched = m
    for _ in range(steps):
        stretched = stretch(stretched)
    w = w_of_rank_set(m)
    elapsed = time.perf_counter() - start
    ok = (
        w == (1, 3, 2, 6, 5, 4, 7, 8)
        and steps == 2
        and stretched == rank_set([(1, 5), (3, 8), (4, 7)], 8)
        and elapsed < 1.0
    )
    _line(3, ok, f"stretching algorithm w={''.join(map(str, w))} in {elapsed:.3f} s")
    assert steps == 2
    assert stretched == rank_set([(1, 5), (3, 8), (4, 7)], 8)
    assert w == (1, 3, 2, 6, 5, 4, 7, 8)
    assert elapsed < 1.0


def test_criterion_4_counterexample_replay():
    start = time.perf_counter()
    reports = replay_counterexample()
    diag = diagram([(1, 1), (2, 2), (3, 3), (4, 4)])
    regular = SchurExpansion({lam: syt_count(lam) for lam in all_partitions(4)})
    actual_class = known_diagonal_class()
    degree = class_degree(actual_class)
    predicted = phi(specht_schur(diag), 4, 8)
    difference = predicted - actual_class
    elapsed = time.perf_counter() - start
    ok = (
        all(r.passed for r in reports)
        and specht_schur(diag) == regular
        and degree == 21384
        and 24024 - 21384 == 2640 == syt_count((4, 4, 2, 2))
        and difference == schubert_class((2, 2), 4, 8)
        and elapsed < 5.0
    )
    _line(4, ok, f"counterexample replay ({len(reports)} checks) in {elapsed:.3f} s")
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    assert degree == 21384
    assert difference == schubert_class((2, 2), 4, 8)
    assert elapsed < 5.0


def test_criterion_5_class_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    for n in range(1, 6):
        for k in range(1, n + 1):
            for m in all_rank_sets(k, n):
                cases += 1
                via_w = phi(stanley(w_of_rank_set(m)), k, n)
                via_f = phi(
                    monomial_to_schur(affine_stanley(affine_of_rank_set(m))),
                    k,
                    n,
                )
                assert via_w == via_f, m
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    _line(5, ok, f"class oracle equivalence over {cases} rank sets in {elapsed:.1f} s")
    assert cases == 272
    assert elapsed < 300.0


def test_criterion_6_codimension_equals_length():
    start = time.perf_counter()
    cases = 0
    for n in range(1, 7):
        for k in range(0, n + 1):
            for m in all_rank_sets(k, n):
                cases += 1
                assert codimension(m) == length(affine_of_rank_set(m)), m
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    _line(6, ok, f"codimension = length over {cases} rank sets in {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_7_interval_rank_identity():
    start = time.perf_counter()
    cases = 0
    for n in range(1, 6):
        for k in range(0, n + 1):
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                for r in range(1, n + 1):
                    for s in range(r, n + 1):
                        cases += 1
                        assert containment_count(m, (r, s)) == northeast_count(
                            f, s + 1, n + r - 1
                        ), (m, r, s)
    elapsed = time.perf_counter() - start
    _line(7, True, f"interval/rank identity over {cases} checks in {elapsed:.1f} s")


def test_criterion_8_degeneration_combinatorics():
    start = time.perf_counter()
    for n in range(1, 7):
        for w in iter_permutations(range(1, n + 1)):
            assert degeneration_check(w), w
    for n in range(1, 5):
        for w in iter_permutations(range(1, n + 1)):
            f = affine_of_rank_set(rank_set_of_permutation(w))
            expected = tuple(range(n + 1, 2 * n + 1)) + tuple(x + 2 * n for x in w)
            assert f.window == expected, w
            shifted = tau_shift(
                embed(direct_sum(w, tuple(range(1, n + 1)))), 2 * n, -n
            )
            assert f == shifted, w
            assert monomial_to_schur(affine_stanley(f)) == stanley(w), w
    elapsed = time.perf_counter() - start
    _line(8, True, f"degeneration combinatorics, S_1..S_6 + identities in {elapsed:.1f} s")


def test_criterion_9_specht_oracle_and_james_peel():
    start = time.perf_counter()
    cache = {}

    def brute(d):
        if d.cells not in cache:
            cache[d.cells] = specht_bruteforce(d)
        return cache[d.cells]

    cells = [(r, c) for r in range(1, 4) for c in range(1, 4)]
    agreements = moves = 0
    for size in range(6):
        for chosen in combinations(cells, size):
            d = diagram(chosen)
            base = brute(d)
            try:
                ruled = specht_schur(d)
            except UnsupportedDiagram:
                ruled = None
            if ruled is not None:
                agreements += 1
                assert ruled == base, sorted(d.cells)
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    moves += 1
                    moved = brute(james_peel_move(d, i, j))
                    assert all(
                        c <= base.coeff(lam) for lam, c in moved.items()
                    ), (sorted(d.cells), i, j)
    # permutation diagrams of size at most 5, against the polytabloid span
    for n in (2, 3, 4):
        for w in iter_permutations(range(1, n + 1)):
            d = diagram_of_permutation(w)
            if len(d.cells) > 5:
                continue
            agreements += 1
            assert specht_schur(d, f"perm:{permutation_text(w)}") == brute(d), w
    elapsed = time.perf_counter() - start
    ok = elapsed < 600.0
    _line(
        9,
        ok,
        f"specht oracle ({agreements} diagrams) and james-peel ({moves} moves) "
        f"in {elapsed:.1f} s",
    )
    assert elapsed < 600.0
