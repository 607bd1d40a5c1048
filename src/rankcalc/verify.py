"""End-to-end consistency checks exposed as callable operations.

replay_counterexample reproduces, purely by exact class arithmetic, the
known failure of the predicted diagram-variety class for the four-cell
diagonal in the 4 x 8 setting.  The geometric inputs that cannot be derived
combinatorially (the actual degree of that diagram variety, and its class
as a complete-intersection class minus one Schubert class) are pinned as
module constants below; everything checked against them is recomputed.

run_all aggregates the cross-module invariant suites at a scale up to
MAX_SCALE; each suite yields a violation count per case over an enumerated
or seeded deterministic family, and run_all counts and reports them.  Checks
that share a family and its costly intermediates (a rank set's window, the
class of w_M) share one suite, which yields one count per report per case.
Each entry of _SUITES holds its report names, its suite and its scale cap.
Every suite walks one slice n, the cases new at scale n, and run_all sums
slices 0..min(max_n, cap).  An append-only memo holds each slice's tally, at
most the slices of run_all(MAX_SCALE), so no case is walked twice in one
process and concurrent calls are safe.  When a second CPU is free, a forked
helper walks some slices not yet tallied; the reports are the same either way.
"""

from __future__ import annotations

import marshal
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations as iter_permutations, product

from .diagrams import (
    diagram,
    complement_rotate,
    degeneration_check,
    diagram_of_permutation,
    james_peel_move,
    specht_bruteforce,
    specht_dim,
    specht_schur,
)
from .errors import TooLarge, UnsupportedDiagram
from .grassmann import (
    SchubertClass,
    class_degree,
    class_product,
    phi,
    point_class,
    schubert_class,
)
from .partitions import (
    RectangleContext,
    _lr_walk,
    all_partitions,
    box_partitions,
    centralizer_order,
    complement,
    mn_character,
    syt_count,
)
from .perms import (
    AffinePermutation,
    Permutation,
    affine_stanley,
    direct_sum,
    embed,
    inversions,
    length,
    northeast_count,
    permutation_text,
    stanley,
    tau_shift,
)
from .rankset import (
    affine_of_rank_set,
    all_rank_sets,
    codimension,
    containment_count,
    rank_set_of_affine,
    rank_set_of_permutation,
    stretch,
    w_of_rank_set,
)
from .symfunc import (
    SchurExpansion,
    kostka,
    monomial_to_schur,
    schur_product,
    schur_to_monomial,
)


@dataclass
class CheckReport:
    """One named check with rendered expected/actual values."""

    name: str
    expected: str
    actual: str
    passed: bool


def _report(name: str, expected, actual) -> CheckReport:
    """Every report is built here: it passes when the two texts agree."""
    e, a = str(expected), str(actual)
    return CheckReport(name, e, a, e == a)


# Externally computed geometric inputs for the replay.  The degree of the
# diagram variety of the four-cell diagonal in Gr(4, 8) is not derivable by
# the combinatorics in this package; it and the identification of the class
# as (first Chern class)^4 minus the [2,2] Schubert class are taken as data.
DIAGONAL_CELLS = frozenset({(1, 1), (2, 2), (3, 3), (4, 4)})
DIAGONAL_BOX = RectangleContext(4, 4)
KNOWN_DIAGONAL_DEGREE = 21384


def known_diagonal_class() -> SchubertClass:
    """The actual class of the diagonal diagram variety in Gr(4, 8)."""
    sigma1 = schubert_class((1,), 4, 8)
    power = sigma1
    for _ in range(3):
        power = class_product(power, sigma1)
    return power - schubert_class((2, 2), 4, 8)


def replay_counterexample() -> list[CheckReport]:
    """Five checks around the diagonal-diagram class discrepancy."""
    diag = diagram(DIAGONAL_CELLS, DIAGONAL_BOX)
    regular_rep = SchurExpansion(
        {lam: syt_count(lam) for lam in all_partitions(4)}
    )
    s_d = specht_schur(diag)
    dual = complement_rotate(diag, DIAGONAL_BOX)
    dual_dim = specht_dim(specht_schur(dual, family="dual"))
    actual_class = known_diagonal_class()
    degree = class_degree(actual_class)
    return [
        _report("diagonal-specht-regular-rep", regular_rep.text(), s_d.text()),
        _report("box-dual-dimension", 24024, dual_dim),
        _report("variety-degree-by-class-arithmetic", KNOWN_DIAGONAL_DEGREE, degree),
        _report(
            "degree-discrepancy-is-f4422", syt_count((4, 4, 2, 2)), dual_dim - degree
        ),
        _report(
            "predicted-class-minus-actual-is-sigma22",
            schubert_class((2, 2), 4, 8).text(),
            (phi(s_d, 4, 8) - actual_class).text(),
        ),
    ]


def check_class_bound(
    w: Permutation, k: int, n: int, actual_class: SchubertClass
) -> CheckReport:
    """Report whether the Stanley class of w dominates the supplied actual
    class coefficientwise in Gr(k, n)."""
    difference = phi(stanley(w), k, n) - actual_class
    expected = actual = "nonnegative difference"
    if not difference.is_nonnegative():
        actual = f"negative coefficients in {difference.text()}"
    return _report(f"class-bound-{permutation_text(w)}", expected, actual)


# ---------------------------------------------------------------------------
# Invariant suites.  Each takes a slice n and yields one violation count per
# case new at scale n (a bool, or an int where a case checks several things),
# or a tuple of such counts when its entry in _SUITES names several reports;
# run_all counts the cases, sums each report's violations and reports.


def _permutations(n: int):
    """Every permutation of [1, n]; none for n = 0."""
    return iter_permutations(range(1, n + 1)) if n else ()


def _rank_sets(n: int, min_k: int = 0):
    """(k, m) for every rank set m in [1, n] with min_k <= k; none for n = 0."""
    if n:
        for k in range(min_k, n + 1):
            for m in all_rank_sets(k, n):
                yield k, m


def _suite_syt(n: int):
    for lam in all_partitions(n):
        yield syt_count(lam) != kostka(lam, (1,) * n)


def _suite_lr_symmetry(total: int):
    for a in range(total + 1):
        for mu in all_partitions(a):
            for nu in all_partitions(total - a):
                box = len(mu) + len(nu), sum(mu[:1]) + sum(nu[:1])
                left, right = dict(_lr_walk(mu, nu, *box)), dict(_lr_walk(nu, mu, *box))
                for lam in all_partitions(total):
                    yield left.get(lam, 0) != right.get(lam, 0)


def _suite_complement_involution(n: int):
    """One complement per box partition of each box with max(rows, cols) = n;
    a complement that is not itself a box partition counts as a violation."""
    for rows, cols in [(n, c) for c in range(n + 1)] + [(r, n) for r in range(n)]:
        ctx = RectangleContext(rows, cols)
        comp = {
            lam: complement(lam, ctx)
            for size in range(rows * cols + 1)
            for lam in box_partitions(size, rows, cols)
        }
        for lam, image in comp.items():
            yield comp.get(image) != lam


def _suite_orthogonality(n: int):
    parts = all_partitions(n) if n else ()
    for mu in parts:
        for nu in parts:
            total = sum(
                mn_character(lam, mu) * mn_character(lam, nu)
                for lam in parts
            )
            yield total != (centralizer_order(mu) if mu == nu else 0)


def _suite_kostka_round_trip(n: int):
    """Degree n; the random expansions are seeded by n, not earlier slices."""
    rng = random.Random(20240 + 1000 * n)
    parts = all_partitions(n)
    for lam in parts:
        s = SchurExpansion.basis(lam)
        yield monomial_to_schur(schur_to_monomial(s)) != s
    for _ in range(3):
        s = SchurExpansion(
            {lam: rng.randint(-3, 3) for lam in rng.sample(parts, min(3, len(parts)))}
        )
        yield monomial_to_schur(schur_to_monomial(s)) != s


def _suite_product_laws(n: int):
    """Slice 0: associativity on 27 small triples.  Slice n: commutativity
    and degree of s_a s_b over |a|, |b| <= n with n among them.  The product
    runs one reading for s_a s_b and s_b s_a alike, so commutativity holds it
    to the raw walk in both orders, in the support box."""
    if not n:
        small = [SchurExpansion.basis(lam) for lam in ((2,), (1, 1), (1,))]
        for a, b, c in product(small, repeat=3):
            yield schur_product(schur_product(a, b), c) != schur_product(
                a, schur_product(b, c)
            )
    singles = [lam for size in range(1, n + 1) for lam in all_partitions(size)]
    for mu, nu in product(singles, repeat=2):
        if n in (sum(mu), sum(nu)):
            left = schur_product(SchurExpansion.basis(mu), SchurExpansion.basis(nu)).terms()
            box = len(mu) + len(nu), mu[0] + nu[0]
            walks = dict(_lr_walk(mu, nu, *box)), dict(_lr_walk(nu, mu, *box))
            yield (not left == walks[0] == walks[1]) + sum(
                sum(lam) != sum(mu) + sum(nu) for lam in left
            )


def _bounded_affine_permutations(n: int):
    """All bounded windows for period n, any average shift: distinct residues."""
    for window in product(*(range(i, i + n + 1) for i in range(1, n + 1))):
        if len({value % n for value in window}) == n:
            yield AffinePermutation(window)


def _suite_stanley_stability_positive(n: int):
    """Per w in S_n: the affine route on w + 1 against stanley(w), and its Schur positivity."""
    for w in _permutations(n):
        a = affine_stanley(embed(direct_sum(w, (1,))))
        yield schur_to_monomial(stanley(w)) != a, not monomial_to_schur(a).is_nonnegative()


def _suite_tau_invariance(n: int):
    """Period n: every bounded window, but a seeded sample of 40 at n = 5."""
    family = _bounded_affine_permutations(n) if n else ()
    if n == 5:
        family = random.Random(20243).sample(list(family), 40)
    for f in family:
        base = affine_stanley(f)
        yield (
            (affine_stanley(tau_shift(f, 1, 0)) != base)
            + (affine_stanley(tau_shift(f, -1, 1)) != base)
            + (base.degree() != length(f))
        )


def _suite_embedded_length(n: int):
    for w in _permutations(n):
        yield length(embed(w)) != inversions(w)


def _suite_rank_round_trip_codim(n: int):
    """Per rank set in [1, n]: the round trip through its window, and
    codimension against the window's length."""
    for _, m in _rank_sets(n):
        f = affine_of_rank_set(m)
        yield rank_set_of_affine(f) != m, codimension(m) != length(f)


def _suite_interval_rank(n: int):
    for _, m in _rank_sets(n):
        f = affine_of_rank_set(m)
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                yield containment_count(m, (r, s)) != northeast_count(
                    f, s + 1, n + r - 1
                )


def _suite_class_oracle_stretch(n: int):
    """Per rank set: the class of w_M against the class from its affine
    Stanley function, and against the class from the affine Stanley function
    of its stretch (w_of_rank_set stretches first, so w of the stretch is
    most often w_M itself, and would check nothing)."""
    for k, m in _rank_sets(n, min_k=1):
        from_w = phi(stanley(w_of_rank_set(m)), k, n)
        from_f = phi(
            monomial_to_schur(affine_stanley(affine_of_rank_set(m))), k, n
        )
        from_stretch = phi(
            monomial_to_schur(affine_stanley(affine_of_rank_set(stretch(m)))), k, n
        )
        yield from_w != from_f, from_w != from_stretch


def _suite_mw_identity(n: int):
    for w in _permutations(n):
        f = affine_of_rank_set(rank_set_of_permutation(w))
        expected_window = tuple(range(n + 1, 2 * n + 1)) + tuple(
            x + 2 * n for x in w
        )
        shifted = tau_shift(embed(direct_sum(w, tuple(range(1, n + 1)))), 2 * n, -n)
        yield (
            (f.window != expected_window)
            + (f != shifted)
            + (monomial_to_schur(affine_stanley(f)) != stanley(w))
        )


def _suite_phi_ring_map(n: int):
    """phi is a ring map: truncating the unclipped Schur product equals
    class_product, which runs the LR rule only inside k x (n-k).  The
    random factors are seeded by n, not earlier slices."""
    rng = random.Random(20241 + 1000 * n)
    parts = [lam for size in range(1, 4) for lam in all_partitions(size)]
    for k in range(1, n):
        for _ in range(4):
            a = SchurExpansion.basis(rng.choice(parts))
            b = SchurExpansion.basis(rng.choice(parts))
            yield phi(schur_product(a, b), k, n) != class_product(
                phi(a, k, n), phi(b, k, n)
            )


def _suite_pieri_degree(n: int):
    for k in range(1, n):
        sigma1 = schubert_class((1,), k, n)
        point = point_class(k, n)
        for size in range(0, k * (n - k) + 1):
            for lam in box_partitions(size, k, n - k):
                x = schubert_class(lam, k, n)
                for _ in range(k * (n - k) - size):
                    x = class_product(x, sigma1)
                want = class_degree(schubert_class(lam, k, n))
                yield x != want * point or class_degree(x) != want


def _suite_rothe_degeneration(n: int):
    """Per w in S_n: its inversion diagram's size, and its staircase degeneration."""
    for w in _permutations(n):
        yield len(diagram_of_permutation(w).cells) != inversions(w), not degeneration_check(w)


def _box_diagrams(rows: int, cols: int, size: int):
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for chosen in combinations(cells, size):
        yield diagram(chosen)


def _suite_james_peel(n: int):
    for d in _box_diagrams(3, 3, n):
        base = specht_bruteforce(d)
        for i in range(1, 4):
            for j in range(1, 4):
                if i == j:
                    continue
                moved = specht_bruteforce(james_peel_move(d, i, j))
                yield any(c > base.coeff(lam) for lam, c in moved.items())


def _suite_specht_oracle(n: int):
    for d in _box_diagrams(3, 3, n):
        try:
            ruled = specht_schur(d)
        except UnsupportedDiagram:
            continue
        yield ruled != specht_bruteforce(d)
    for size in range(2, 5):
        for w in iter_permutations(range(1, size + 1)):
            d = diagram_of_permutation(w)
            if len(d.cells) == n:
                ruled = specht_schur(d, f"perm:{permutation_text(w)}")
                yield ruled != specht_bruteforce(d)


def _suite_box_duality(n: int):
    boxes = [RectangleContext(2, 2), RectangleContext(2, 3), RectangleContext(3, 2)]
    for ctx in boxes:
        for d in _box_diagrams(ctx.rows, ctx.cols, n):
            boxed = diagram(d.cells, ctx)
            dual_cells = complement_rotate(boxed, ctx)
            if len(dual_cells.cells) > 5:
                continue
            try:
                via_rule = specht_schur(dual_cells, family="dual")
            except UnsupportedDiagram:
                continue
            yield via_rule != specht_bruteforce(dual_cells)


def _suite_row_col_invariance(n: int):
    """Slice 1: the nine one-cell diagrams of 3 x 3; slice 2: 16 seeded
    draws from its diagrams of 2 to 4 cells.  Each is checked against a
    seeded shuffle of its rows and columns."""
    rng = random.Random(20242 + 1000 * n)
    if n == 1:
        family = _box_diagrams(3, 3, 1)
    elif n == 2:
        family = rng.sample([d for s in (2, 3, 4) for d in _box_diagrams(3, 3, s)], 16)
    else:
        return
    for d in family:
        base = specht_bruteforce(d)
        perm_rows = rng.sample(range(1, 4), 3)
        perm_cols = rng.sample(range(1, 4), 3)
        shuffled = diagram(
            (perm_rows[r - 1], perm_cols[c - 1]) for r, c in d.cells
        )
        yield specht_bruteforce(shuffled) != base


MAX_SCALE = 10  # each scale costs about 5x the last: 11 s at 10, 7.7 s with a helper

_SUITES = (
    ("partitions/syt-hook-vs-enumeration", _suite_syt, MAX_SCALE),
    ("partitions/lr-symmetry", _suite_lr_symmetry, MAX_SCALE),
    ("partitions/complement-involution", _suite_complement_involution, MAX_SCALE),
    ("partitions/character-orthogonality", _suite_orthogonality, 6),
    ("symfunc/kostka-round-trip", _suite_kostka_round_trip, MAX_SCALE),
    ("symfunc/product-laws", _suite_product_laws, 4),
    (
        ("perms/stanley-stability", "perms/stanley-schur-positive"),
        _suite_stanley_stability_positive,
        5,
    ),
    ("perms/tau-invariance-and-degree", _suite_tau_invariance, 5),
    ("perms/embedded-length", _suite_embedded_length, 5),
    (
        ("rankset/round-trip", "rankset/codim-equals-length"),
        _suite_rank_round_trip_codim,
        MAX_SCALE,
    ),
    ("rankset/interval-rank-identity", _suite_interval_rank, 5),
    (
        ("rankset/class-oracle-equivalence", "rankset/stretch-compatibility"),
        _suite_class_oracle_stretch,
        5,
    ),
    ("rankset/permutation-rank-set-identity", _suite_mw_identity, 4),
    ("grassmann/phi-ring-map", _suite_phi_ring_map, 5),
    ("grassmann/pieri-degree", _suite_pieri_degree, 5),
    (
        ("diagrams/rothe-inversions", "diagrams/degeneration"),
        _suite_rothe_degeneration,
        6,
    ),
    ("diagrams/james-peel-monotonicity", _suite_james_peel, 4),
    ("diagrams/specht-oracle-agreement", _suite_specht_oracle, 4),
    ("diagrams/box-duality", _suite_box_duality, 4),
    ("diagrams/row-col-invariance", _suite_row_col_invariance, 2),
)


def _tally(suite, width: int, n: int) -> tuple[int, tuple[int, ...]]:
    """Walk slice n of suite, streaming its verdicts into a Counter: its case
    count and the violations of each of its width reports."""
    counts = Counter(suite(n) if width > 1 else zip(suite(n)))
    bad = [sum(w[i] * times for w, times in counts.items()) for i in range(width)]
    return counts.total(), tuple(bad)


# Slice tallies by (suite, width, n), append-only: at most one per slice of
# run_all(MAX_SCALE).  clear_caches() empties it through _tally.cache_clear.
_tallies: dict = {}
_tally.cache_clear = _tallies.clear


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tally_missing(slices: list) -> dict:
    """Memoize and return the tally of each of slices.  When the process can
    fork, runs one thread, may use two CPUs and has two slices or more, it
    shares them with one forked helper: both claim indices, largest scale
    first, from one pipe, and the helper sends back what it finished.  Then
    every slice not yet tallied is walked here, so a suite that raises
    raises here, after any helper is killed and reaped."""
    import threading

    tallies = {}
    if len(slices) > 1 and hasattr(os, "fork") and threading.active_count() == 1 and _cpus() > 1:
        slices.sort(key=lambda key: -key[2])
        queue, fill = os.pipe()
        os.write(fill, b"".join(i.to_bytes(2, "big") for i in range(len(slices))))
        os.close(fill)
        reply, send = os.pipe()
        pid = os.fork()
        if not pid:  # the helper never returns
            done = {}
            try:
                while claim := os.read(queue, 2):
                    i = int.from_bytes(claim, "big")
                    done[i] = _tally(*slices[i])
            finally:
                try:
                    os.write(send, marshal.dumps(done))
                finally:
                    os._exit(0)
        os.close(send)
        try:
            while claim := os.read(queue, 2):
                key = slices[int.from_bytes(claim, "big")]
                tallies[key] = _tally(*key)
            data = b"".join(iter(lambda: os.read(reply, 1 << 16), b""))
            tallies.update((slices[i], t) for i, t in (marshal.loads(data) if data else {}).items())
        except BaseException:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)
            os.close(queue)
            os.close(reply)
    tallies.update((key, _tally(*key)) for key in slices if key not in tallies)
    _tallies.update(tallies)
    return tallies


def run_all(max_n: int) -> list[CheckReport]:
    """Run every invariant suite at the given scale; deterministic order.

    An entry naming one report yields one violation count per case; an
    entry naming a tuple of reports walks its cases once and yields a tuple
    of counts per case, one for each name, summed apart into one report
    each.  Every suite takes one slice n, the cases new at scale n, and its
    reports sum slices 0..min(max_n, cap): the cap is MAX_SCALE, or less for
    a suite whose cost grows fast with degree or size.  Each slice's tally
    is memoized, so a case is walked once per process however the scales
    rise or fall; the memo is append-only, holds at most the slices of
    run_all(MAX_SCALE) and is emptied by clear_caches().  The reports come
    from this call's own tallies, so concurrent calls are safe.  When a
    second CPU is free, a forked helper walks some slices not yet tallied,
    with the same reports.  max_n = 0 runs nothing; a max_n above MAX_SCALE
    raises TooLarge before any walk.
    """
    if max_n > MAX_SCALE:
        raise TooLarge(f"scale {max_n}; the verify suites stop at {MAX_SCALE}")
    if max_n <= 0:
        return []
    entries = [
        ((names,) if isinstance(names, str) else names, suite, range(min(max_n, cap) + 1))
        for names, suite, cap in _SUITES
    ]
    keys = [(suite, len(names), s) for names, suite, scales in entries for s in scales]
    tallies = {key: _tallies.get(key) for key in keys}
    tallies.update(_tally_missing([key for key, t in tallies.items() if t is None]))
    reports = []
    for names, suite, scales in entries:
        slices = [tallies[suite, len(names), s] for s in scales]
        cases = sum(c for c, _ in slices)
        bad = map(sum, zip(*(b for _, b in slices)))
        tail = f" violations in {cases} cases"
        reports.extend(
            _report(name, f"0{tail}", f"{b}{tail}") for name, b in zip(names, bad)
        )
    return reports
