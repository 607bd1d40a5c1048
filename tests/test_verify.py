import contextlib
import io
import os
import pkgutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from importlib import import_module

import pytest

import rankcalc
from oracles import CUMULATIVE_SUITES
from rankcalc import diagrams, partitions, perms, symfunc, verify
from rankcalc.cli import main
from rankcalc.diagrams import diagram, diagram_of_permutation
from rankcalc.errors import TooLarge
from rankcalc.grassmann import phi, schubert_class
from rankcalc.perms import stanley
from rankcalc.symfunc import SchurExpansion, monomial_to_schur
from rankcalc.verify import (
    MAX_SCALE,
    CheckReport,
    _tally,
    check_class_bound,
    known_diagonal_class,
    replay_counterexample,
    run_all,
)


def test_replay_counterexample_all_pass():
    reports = replay_counterexample()
    assert [r.name for r in reports] == [
        "diagonal-specht-regular-rep",
        "box-dual-dimension",
        "variety-degree-by-class-arithmetic",
        "degree-discrepancy-is-f4422",
        "predicted-class-minus-actual-is-sigma22",
    ]
    for report in reports:
        assert report.passed, (report.name, report.expected, report.actual)
    assert all(r.expected == r.actual for r in reports)


def test_known_diagonal_class_terms():
    cls = known_diagonal_class()
    assert cls.terms() == {
        (1, 1, 1, 1): 1,
        (2, 1, 1): 3,
        (2, 2): 1,
        (3, 1): 3,
        (4,): 1,
    }


def test_check_class_bound():
    w = (2, 1, 4, 3, 6, 5, 8, 7)
    actual = known_diagonal_class()
    report = check_class_bound(w, 4, 8, actual)
    assert report.passed
    # difference exactly sigma_22
    predicted = phi(stanley(w), 4, 8)
    assert predicted - actual == schubert_class((2, 2), 4, 8)

    exact = check_class_bound(w, 4, 8, predicted)
    assert exact.passed

    inflated = predicted + schubert_class((4,), 4, 8)
    assert not check_class_bound(w, 4, 8, inflated).passed


def test_run_all_scales():
    assert run_all(0) == []
    reports = run_all(2)
    assert reports and all(isinstance(r, CheckReport) for r in reports)
    for report in reports:
        assert report.passed, (report.name, report.actual)


# Suite names, order and case counts of run_all(4), pinned byte for byte.
RUN_ALL_4_CASES = [
    ("partitions/syt-hook-vs-enumeration", 12),
    ("partitions/lr-symmetry", 143),
    ("partitions/complement-involution", 251),
    ("partitions/character-orthogonality", 39),
    ("symfunc/kostka-round-trip", 27),
    ("symfunc/product-laws", 148),
    ("perms/stanley-stability", 33),
    ("perms/stanley-schur-positive", 33),
    ("perms/tau-invariance-and-degree", 88),
    ("perms/embedded-length", 33),
    ("rankset/round-trip", 74),
    ("rankset/codim-equals-length", 74),
    ("rankset/interval-rank-identity", 627),
    ("rankset/class-oracle-equivalence", 70),
    ("rankset/stretch-compatibility", 70),
    ("rankset/permutation-rank-set-identity", 33),
    ("grassmann/phi-ring-map", 24),
    ("grassmann/pieri-degree", 22),
    ("diagrams/rothe-inversions", 33),
    ("diagrams/degeneration", 33),
    ("diagrams/james-peel-monotonicity", 1536),
    ("diagrams/specht-oracle-agreement", 245),
    ("diagrams/box-duality", 120),
    ("diagrams/row-col-invariance", 25),
]


def test_run_all_at_stated_scales():
    reports = run_all(4)
    assert [(r.name, r.expected, r.actual) for r in reports] == [
        (name, f"0 violations in {cases} cases", f"0 violations in {cases} cases")
        for name, cases in RUN_ALL_4_CASES
    ]
    for report in reports:
        assert report.passed, (report.name, report.actual)
    for report in run_all(5):
        assert report.passed, (report.name, report.actual)


def _run_entry(name, max_n):
    """run_all(max_n) restricted to the _SUITES entry reporting name: each
    report's actual text, by report name, through the capped, memoized
    tally run_all uses."""
    entry = next(
        e for e in verify._SUITES if name in ((e[0],) if isinstance(e[0], str) else e[0])
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_SUITES", (entry,))
        return {r.name: r.actual for r in run_all(max_n)}


def test_complement_involution_at_scale_7():
    # case count recorded at scale 7 before the suite enumerated inside the box
    assert _run_entry("partitions/complement-involution", 7) == {
        "partitions/complement-involution": "0 violations in 12869 cases"
    }


def test_syt_suite_at_scales_7_and_8():
    # case counts recorded before kostka became the suite's second count
    for scale, cases in ((7, 45), (8, 67)):
        assert _run_entry("partitions/syt-hook-vs-enumeration", scale) == {
            "partitions/syt-hook-vs-enumeration": f"0 violations in {cases} cases"
        }, scale


def test_sliced_suites_sum_to_the_cumulative_walks():
    # each suite walks one slice; its slices 0..min(max_n, cap) add up to the
    # case and violation counts of the cumulative walk it replaced, for
    # every max_n in 0..7
    firsts = [names if isinstance(names, str) else names[0] for names, _, _ in verify._SUITES]
    assert firsts == list(CUMULATIVE_SUITES)
    for names, suite, cap in verify._SUITES:
        name = names if isinstance(names, str) else names[0]
        width = 1 if isinstance(names, str) else len(names)
        oracle = CUMULATIVE_SUITES[name]
        slices = [_tally(suite, width, s) for s in range(min(7, cap) + 1)]
        for scale in range(min(7, cap) + 1):
            tallies = slices[: scale + 1]
            got = (
                sum(c for c, _ in tallies),
                tuple(map(sum, zip(*(b for _, b in tallies)))),
            )
            walked = list(oracle(scale) if width > 1 else zip(oracle(scale)))
            want = (len(walked), tuple(map(sum, zip(*walked))) or (0,) * width)
            assert got == want, (name, scale)


def test_rank_set_suites_at_scale_7():
    # case counts recorded at scale 7 before rank sets were generated
    # directly, when round-trip and codim-equals-length were two walks
    assert _run_entry("rankset/round-trip", 7) == {
        "rankset/round-trip": "0 violations in 5294 cases",
        "rankset/codim-equals-length": "0 violations in 5294 cases",
    }
    # class-oracle-equivalence and stretch-compatibility cap their scale at 5
    assert _run_entry("rankset/class-oracle-equivalence", 7) == {
        "rankset/class-oracle-equivalence": "0 violations in 272 cases",
        "rankset/stretch-compatibility": "0 violations in 272 cases",
    }


def test_stanley_stability_suite_can_fail(monkeypatch):
    # the stable side runs the affine route on the longer window, so a fault
    # in stanley shows; two stanley calls would share one memo entry and
    # shift together
    rankcalc.clear_caches()
    monkeypatch.setattr(verify, "stanley", lambda w: stanley(w) + SchurExpansion.basis((1,)))
    assert _run_entry("perms/stanley-stability", 5) == {
        "perms/stanley-stability": "153 violations in 153 cases",
        "perms/stanley-schur-positive": "0 violations in 153 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("perms/stanley-stability", 5) == {
        "perms/stanley-stability": "0 violations in 153 cases",
        "perms/stanley-schur-positive": "0 violations in 153 cases",
    }


def test_lr_symmetry_suite_can_fail(monkeypatch):
    # the suite reads s_mu s_nu and s_nu s_mu off two walks, so a walk that
    # favours the larger factor breaks the symmetry wherever it has a term
    walk = verify._lr_walk

    def lopsided(mu, nu, rows, cols):
        return tuple((lam, c + (mu > nu)) for lam, c in walk(mu, nu, rows, cols))

    rankcalc.clear_caches()
    monkeypatch.setattr(verify, "_lr_walk", lopsided)
    assert _run_entry("partitions/lr-symmetry", 4) == {
        "partitions/lr-symmetry": "48 violations in 143 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("partitions/lr-symmetry", 4) == {
        "partitions/lr-symmetry": "0 violations in 143 cases",
    }


def test_product_laws_suite_can_fail(monkeypatch):
    # the same lopsided walk, in every module that binds it: a product runs
    # one reading for s_a s_b and s_b s_a alike, so the commutativity half
    # holds it to the raw walk in both orders, one of which favours the
    # larger factor wherever the two differ
    walk = partitions._lr_walk

    def lopsided(mu, nu, rows, cols):
        return tuple((lam, c + (mu > nu)) for lam, c in walk(mu, nu, rows, cols))

    rankcalc.clear_caches()
    for module in (partitions, symfunc, verify):
        monkeypatch.setattr(module, "_lr_walk", lopsided)
    assert _run_entry("symfunc/product-laws", 4) == {
        "symfunc/product-laws": "134 violations in 148 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("symfunc/product-laws", 4) == {
        "symfunc/product-laws": "0 violations in 148 cases",
    }


def test_stanley_schur_positive_suite_can_fail(monkeypatch):
    # the positivity half reads the Schur form of the affine route, which a
    # fault there can make negative (other windows have affine Stanley
    # functions that are not Schur positive); stanley(w), a sum of leaves
    # with coefficient 1, could not fail it.  Negated, every form fails.
    rankcalc.clear_caches()
    monkeypatch.setattr(verify, "monomial_to_schur", lambda f: -monomial_to_schur(f))
    assert _run_entry("perms/stanley-schur-positive", 5) == {
        "perms/stanley-stability": "0 violations in 153 cases",
        "perms/stanley-schur-positive": "153 violations in 153 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("perms/stanley-schur-positive", 5) == {
        "perms/stanley-stability": "0 violations in 153 cases",
        "perms/stanley-schur-positive": "0 violations in 153 cases",
    }


def test_rothe_inversions_suite_can_fail(monkeypatch):
    # an inversion diagram that loses a cell is one cell short of l(w) for
    # every w but the six identities of S_1..S_6
    def short(w):
        return diagram(sorted(diagram_of_permutation(w).cells)[1:])

    rankcalc.clear_caches()
    monkeypatch.setattr(verify, "diagram_of_permutation", short)
    assert _run_entry("diagrams/rothe-inversions", 6) == {
        "diagrams/rothe-inversions": "867 violations in 873 cases",
        "diagrams/degeneration": "0 violations in 873 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("diagrams/rothe-inversions", 6) == {
        "diagrams/rothe-inversions": "0 violations in 873 cases",
        "diagrams/degeneration": "0 violations in 873 cases",
    }


def test_degeneration_suite_can_fail(monkeypatch):
    # with no column transfer the staircase pattern stays as it is, and only
    # w0, the longest permutation of each S_1..S_6, passes the structure test
    rankcalc.clear_caches()
    monkeypatch.setattr(diagrams, "_transfer", lambda rows, i, j: None)
    assert _run_entry("diagrams/degeneration", 6) == {
        "diagrams/rothe-inversions": "0 violations in 873 cases",
        "diagrams/degeneration": "867 violations in 873 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("diagrams/degeneration", 6) == {
        "diagrams/rothe-inversions": "0 violations in 873 cases",
        "diagrams/degeneration": "0 violations in 873 cases",
    }


def test_stretch_compatibility_suite_can_fail(monkeypatch):
    # the stretched side reads the affine route, which does not call
    # w_of_rank_set, so a w with its first two entries swapped shows on
    # every rank set; read by w of the stretch, both sides took the same
    # swap and the report stayed at 0
    rank_w = verify.w_of_rank_set

    def swapped(m):
        w = rank_w(m)
        return (w[1], w[0], *w[2:])

    rankcalc.clear_caches()
    monkeypatch.setattr(verify, "w_of_rank_set", swapped)
    assert _run_entry("rankset/stretch-compatibility", 5) == {
        "rankset/class-oracle-equivalence": "272 violations in 272 cases",
        "rankset/stretch-compatibility": "272 violations in 272 cases",
    }
    monkeypatch.undo()
    rankcalc.clear_caches()
    assert _run_entry("rankset/stretch-compatibility", 5) == {
        "rankset/class-oracle-equivalence": "0 violations in 272 cases",
        "rankset/stretch-compatibility": "0 violations in 272 cases",
    }


def test_run_all_sums_each_report_of_a_shared_walk(monkeypatch):
    # the stubs yield the cases of one slice: slice 0 for single, and
    # slice n the n-th case for shared
    def shared(n):
        yield from [(0, 1), (2, 0), (False, True)][n - 1 : n] if n else []

    monkeypatch.setattr(
        verify,
        "_SUITES",
        (
            ("single", lambda n: iter([1, 0] if n == 0 else []), MAX_SCALE),
            (("left", "right"), shared, MAX_SCALE),
        ),
    )
    assert [(r.name, r.actual, r.passed) for r in run_all(3)] == [
        ("single", "1 violations in 2 cases", False),
        ("left", "2 violations in 3 cases", False),
        ("right", "2 violations in 3 cases", False),
    ]
    assert [r.actual for r in run_all(1)][1:] == [
        "0 violations in 1 cases",
        "1 violations in 1 cases",
    ]


def test_run_all_counts_each_repeat_of_a_verdict(monkeypatch):
    # the tally merges equal verdicts; each still counts once per case
    def repeats(n):
        yield from [(1, 0), (1, 0), (0, 2), (0, 0), (True, True)] if n == 1 else []

    monkeypatch.setattr(verify, "_SUITES", ((("left", "right"), repeats, MAX_SCALE),))
    assert [r.actual for r in run_all(2)] == [
        "3 violations in 5 cases",
        "3 violations in 5 cases",
    ]


def test_diagram_suites_at_scale_7():
    # rothe-inversions and degeneration share one walk, capped at scale 6:
    # every permutation of up to 6 letters
    assert _run_entry("diagrams/degeneration", 7) == {
        "diagrams/rothe-inversions": "0 violations in 873 cases",
        "diagrams/degeneration": "0 violations in 873 cases",
    }
    # the Specht suites cap their diagrams at 4 cells, so at scale 7 they
    # keep the case counts of run_all(4), however much the oracle's memo
    # already holds
    cases = dict(RUN_ALL_4_CASES)
    for name in (
        "diagrams/james-peel-monotonicity",
        "diagrams/specht-oracle-agreement",
        "diagrams/box-duality",
        "diagrams/row-col-invariance",
    ):
        assert _run_entry(name, 7) == {name: f"0 violations in {cases[name]} cases"}


def test_run_all_walks_a_capped_suite_once_per_scale(monkeypatch):
    # a capped suite walks slices 0..cap once, whatever scale asks past it;
    # with one CPU no helper walks a slice out of this process's sight
    walks = []

    def stub(n):
        walks.append(n)
        return iter([False] * n)

    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    monkeypatch.setattr(verify, "_SUITES", (("stub", stub, 2),))
    for max_n in (2, 3, 5):
        assert [r.actual for r in run_all(max_n)] == ["0 violations in 3 cases"]
    assert walks == [0, 1, 2]
    rankcalc.clear_caches()
    run_all(3)
    assert walks == [0, 1, 2] * 2


def test_run_all_walks_each_slice_once(monkeypatch):
    # run_all walks slices 0..max_n of a suite, each once per process, until
    # clear_caches() empties the memo
    walks = []

    def stub(n):
        walks.append(n)
        return iter([False] * n)

    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    monkeypatch.setattr(verify, "_SUITES", (("stub", stub, MAX_SCALE),))
    for max_n, cases in ((2, 3), (3, 6), (5, 15)):
        assert [r.actual for r in run_all(max_n)] == [f"0 violations in {cases} cases"]
    assert walks == [0, 1, 2, 3, 4, 5]
    assert [r.actual for r in run_all(4)] == ["0 violations in 10 cases"]
    assert walks == [0, 1, 2, 3, 4, 5]
    rankcalc.clear_caches()
    run_all(3)
    assert walks == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]


def _stub_suites(entries):
    """_SUITES with each entry's suite replaced by one that yields nothing and
    records the slices it walks, and the list of those slices."""
    walks = []
    return walks, tuple(
        (names, lambda n: walks.append(n) or iter(()), cap) for names, _, cap in entries
    )


def test_tally_memo_holds_every_slice_up_to_the_bound(monkeypatch):
    # run_all(MAX_SCALE) tallies one slice per scale 0..cap of each entry;
    # the memo must hold them all, or a rising verify stream re-walks some
    walks, suites = _stub_suites(verify._SUITES)
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    monkeypatch.setattr(verify, "_SUITES", suites)
    rankcalc.clear_caches()
    run_all(MAX_SCALE)
    slices = sum(min(MAX_SCALE, cap) + 1 for _, _, cap in verify._SUITES)
    assert len(verify._tallies) == len(walks) == slices
    run_all(MAX_SCALE)
    assert len(verify._tallies) == len(walks) == slices == 139
    rankcalc.clear_caches()


def memo_mismatches(scales):
    """The number of scales, and those at which verify suite --max-n prints
    other bytes in this interpreter, after the scales before it, than in a
    fresh process: run_all memoizes each tally per slice, so a scale below
    the largest cached one is a sum of cached slices."""
    bad = []
    for n in scales:
        args = ["verify", "suite", "--max-n", str(n)]
        memoized = io.StringIO()
        with contextlib.redirect_stdout(memoized):
            main(args)
        fresh = subprocess.run(
            [sys.executable, "-m", "rankcalc.cli", *args],
            capture_output=True, text=True, check=True,
        ).stdout
        if memoized.getvalue() != fresh:
            bad.append(n)
    return len(scales), bad


def test_concurrent_run_all_beside_clear_caches(monkeypatch):
    # the memo is append-only and each call sums its own tallies, so threads
    # running run_all beside one looping clear_caches() all get the reports
    # of one thread, and none raises; with threads alive no helper forks
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(
        verify,
        "_SUITES",
        (
            ("stub", lambda n: iter([n % 2] * n), MAX_SCALE),
            (("left", "right"), lambda n: iter([(n % 3, 1)] * n), 3),
        ),
    )
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    rankcalc.clear_caches()
    alone = run_all(5)
    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", refuse, raising=False)
    failures, stop = [], threading.Event()

    def call():
        try:
            for _ in range(300):
                assert run_all(5) == alone
        except BaseException as exc:
            failures.append(exc)

    def clear():
        while not stop.is_set():
            rankcalc.clear_caches()

    threads = [threading.Thread(target=clear)] + [threading.Thread(target=call) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join()
    finally:
        stop.set()
        threads[0].join()
        sys.setswitchinterval(interval)
    assert failures == []
    rankcalc.clear_caches()


def test_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert verify._cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert verify._cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._cpus() == 1


def _reports(max_ns, cpus):
    """The reports of run_all at each of max_ns in turn, from an empty tally
    memo, where run_all sees cpus CPUs."""
    verify._tallies.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_cpus", lambda: cpus)
        return [run_all(max_n) for max_n in max_ns]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_reports_are_the_same_with_the_helper_and_without(monkeypatch):
    # each slice's tally crosses the helper's pipe intact: a rising run of
    # scales 1..7, and the falling and repeated scales of one process
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for max_ns in (range(1, 8), (5, 6, 7, 8, 4, 2, 1)):
        alone = _reports(max_ns, 1)
        assert not forks
        assert _reports(max_ns, 2) == alone, max_ns
        assert forks
        forks.clear()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_suite_that_raises_leaves_no_helper(monkeypatch):
    # the parent walks every slice the helper did not report, so a slice
    # that raises raises in the parent, whichever process claimed it, and
    # the helper is reaped before it propagates
    def stub(n):
        if n == 3:
            raise ZeroDivisionError(n)
        return iter([False] * n)

    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_SUITES", (("stub", stub, MAX_SCALE),))
    rankcalc.clear_caches()
    for _ in range(5):
        with pytest.raises(ZeroDivisionError):
            run_all(6)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    rankcalc.clear_caches()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_raise_in_the_parent_kills_the_helper(monkeypatch):
    # the helper is killed, not waited for through the slice it walks
    parent = os.getpid()

    def stub(n):
        if os.getpid() != parent:
            time.sleep(40)
        raise ZeroDivisionError(n)

    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_SUITES", (("stub", stub, MAX_SCALE),))
    rankcalc.clear_caches()
    start = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        run_all(6)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    rankcalc.clear_caches()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_slice_the_helper_drops_is_walked_by_the_parent(monkeypatch):
    # a slice that raises in the helper alone is walked again here
    parent = os.getpid()

    def stub(n):
        if os.getpid() != parent:
            raise ZeroDivisionError(n)
        return iter([n % 2] * n)

    monkeypatch.setattr(verify, "_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_SUITES", (("stub", stub, MAX_SCALE),))
    rankcalc.clear_caches()
    assert [r.actual for r in run_all(6)] == ["9 violations in 21 cases"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    rankcalc.clear_caches()


def test_no_helper_with_one_cpu_or_a_second_thread(monkeypatch):
    # one CPU, or a thread alive beside this one, keeps every walk here
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse, raising=False)
    monkeypatch.setattr(verify, "_SUITES", (("stub", lambda n: iter([False] * n), 3),))
    rankcalc.clear_caches()
    for cpus in (1, 2):
        monkeypatch.setattr(verify, "_cpus", lambda: cpus)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if cpus == 2:
            thread.start()
        try:
            assert [r.actual for r in run_all(3)] == ["0 violations in 6 cases"]
        finally:
            stop.set()
            if cpus == 2:
                thread.join()
        rankcalc.clear_caches()


def test_memoized_run_all_matches_a_fresh_one():
    # rising scales add slices to the memo; falling ones sum a prefix of it
    for order in ((4, 5, 6), (6, 5, 4)):
        rankcalc.clear_caches()
        in_sequence = [run_all(max_n) for max_n in order]
        for max_n, reports in zip(order, in_sequence):
            rankcalc.clear_caches()
            assert run_all(max_n) == reports, (order, max_n)


def test_run_all_rejects_a_scale_past_its_bound(monkeypatch):
    walks = []
    monkeypatch.setattr(
        verify, "_SUITES", (("stub", lambda n: walks.append(n) or iter(()), MAX_SCALE),)
    )
    with pytest.raises(TooLarge, match=f"stop at {MAX_SCALE}"):
        run_all(MAX_SCALE + 1)
    assert walks == []


def _memo_tables():
    """Every lru_cache table in the package, found by walking its modules."""
    tables = {}
    for info in pkgutil.iter_modules(rankcalc.__path__, "rankcalc."):
        for value in vars(import_module(info.name)).values():
            if hasattr(value, "cache_info"):
                tables[value.__module__ + "." + value.__qualname__] = value
    return tables


def test_clear_caches_empties_every_table(monkeypatch):
    tables = _memo_tables()
    oracle = tables["rankcalc.diagrams._polytabloid_expansion"]
    walk = tables["rankcalc.partitions._lr_walk"]
    # a memo hit left by an earlier run_all would skip the Specht suites,
    # and a helper could walk them out of this process's sight
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    rankcalc.clear_caches()
    run_all(3)
    assert oracle.cache_info().currsize and walk.cache_info().currsize
    assert verify._tallies and perms._terms
    rankcalc.clear_caches()
    sizes = {name: table.cache_info().currsize for name, table in tables.items()}
    assert sizes == dict.fromkeys(tables, 0)
    assert verify._tallies == {} == perms._terms


def test_report_serialization():
    # verify --json prints asdict(report); its key order is the field order
    report = CheckReport("demo", "1", "1", True)
    assert list(asdict(report)) == ["name", "expected", "actual", "passed"]
    assert asdict(report) == {
        "name": "demo",
        "expected": "1",
        "actual": "1",
        "passed": True,
    }
