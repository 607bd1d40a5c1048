"""Seeded inputs for the four workloads, as argv lists for ``rankcalc``.

Everything here is generated by the benchmark from a seed; the program only
ever sees the argv strings.  The stream of each workload is stratified over
fixed cells (size and shape classes), so that two seeds draw the same mix of
easy and hard queries and only the concrete inputs inside each cell differ.
A ladder is a list of rungs of increasing size, run after the stream.
"""

from __future__ import annotations

import random

WORKLOADS = ("stanley", "rank-class", "schubert-specht", "verify")

# Per-rung time budget of each ladder, in reference seconds (speed.py).
# Each sits near the geometric middle between the last rung that finishes
# and the first that does not (measured on a 2-core shared box at the seed
# commit), so that a slow or fast phase of the machine does not move reach
# by itself, while a speed-up of 1.4x to 2x moves it by a rung.
RUNG_BUDGET_S = {"stanley": 3.0, "rank-class": 3.4, "schubert-specht": 4.0}


# ---------------------------------------------------------------------------
# Text forms, written here rather than imported so that the benchmark's
# inputs do not depend on the code it measures.


def perm_text(w) -> str:
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def part_text(lam) -> str:
    return ",".join(str(p) for p in lam) if lam else "-"


def rank_set_text(intervals, n: int) -> str:
    body = ",".join(f"[{a},{b}]" for a, b in sorted(intervals, key=lambda iv: iv[1]))
    return f"{body};n={n}"


def diagram_text(cells, box=None) -> str:
    body = ",".join(f"({r},{c})" for r, c in sorted(cells))
    return f"{body};box={box[0]}x{box[1]}" if box else body


# ---------------------------------------------------------------------------
# Generators.


def perm_of_length(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A permutation of 1..n with ``length`` inversions, by a random walk
    that only ever applies an adjacent swap creating an inversion."""
    w = list(range(1, n + 1))
    for _ in range(length):
        ascents = [i for i in range(n - 1) if w[i] < w[i + 1]]
        i = rng.choice(ascents)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def rank_set_codim(intervals, n: int) -> int:
    """k(n-k) minus the interval dimension formula."""
    k = len(intervals)
    dim = sum(
        (b - a + 1) - sum(1 for c, d in intervals if a <= c and d <= b)
        for a, b in intervals
    )
    return k * (n - k) - dim


def stretch_steps(intervals) -> int:
    return max(0, 1 + max(a for a, _ in intervals) - min(b for _, b in intervals))


def rank_set_of(rng: random.Random, n: int, codim: int, max_steps: int):
    """A rank set in [1, n] with the given codimension whose minimal stretch
    is at most ``max_steps``, by rejection sampling."""
    ks = [j for j in range(1, n) if j * (n - j) >= codim]
    while True:
        kk = rng.choice(ks)
        rights = sorted(rng.sample(range(1, n + 1), kk))
        lefts = rng.sample(range(1, n + 1), kk)
        pairs, used = [], set()
        for b in rights:
            options = [a for a in lefts if a <= b and a not in used]
            if not options:
                break
            a = rng.choice(options)
            used.add(a)
            pairs.append((a, b))
        else:
            if stretch_steps(pairs) <= max_steps and rank_set_codim(pairs, n) == codim:
                return tuple(pairs)


def partition_in_box(rng: random.Random, rows: int, cols: int, size: int):
    """A partition of ``size`` inside rows x cols, by a random walk that
    adds one cell at a time at an addable corner."""
    lam = [0] * rows
    for _ in range(size):
        addable = [
            i for i in range(rows)
            if lam[i] < cols and (i == 0 or lam[i - 1] > lam[i])
        ]
        lam[rng.choice(addable)] += 1
    return tuple(p for p in lam if p)


def skew_cells(rng: random.Random, rows: int, cols: int, size: int):
    """Cells of a skew shape lam/mu with |lam/mu| = size inside rows x cols."""
    while True:
        outer = partition_in_box(rng, rows, cols, rng.randint(size, rows * cols))
        inner = partition_in_box(rng, rows, cols, sum(outer) - size)
        inner_p = inner + (0,) * (rows - len(inner))
        if all(inner_p[i] <= (outer[i] if i < len(outer) else 0) for i in range(rows)):
            return {
                (r + 1, c + 1)
                for r in range(len(outer))
                for c in range(inner_p[r], outer[r])
            }


# ---------------------------------------------------------------------------
# Streams and ladders.


def _stanley_stream(rng):
    out = []
    for n in range(6, 10):
        for length in range(5, 10):
            for _ in range(10):
                out.append(["stanley", perm_text(perm_of_length(rng, n, length))])
    return out


def _stanley_ladder(rng):
    """One growing chain in S_10 that adds one inversion at a time; every
    length from 8 is a rung."""
    n, rungs = 10, []
    w = list(range(1, n + 1))
    for length in range(1, n * (n - 1) // 2 + 1):
        ascents = [i for i in range(n - 1) if w[i] < w[i + 1]]
        i = rng.choice(ascents)
        w[i], w[i + 1] = w[i + 1], w[i]
        if length >= 8:
            rungs.append((length, [["stanley", perm_text(w)]]))
    return rungs


def _rank_class_stream(rng):
    out = []
    for n in range(6, 11):
        for codim in range(4, 9):
            for _ in range(6):
                m = rank_set_of(rng, n, codim, max_steps=2)
                out.append(["rank-class", rank_set_text(m, n)])
    return out


def _rank_class_ladder(rng):
    """One shrinking chain in Gr(6,12): start from the six intervals
    [i, i+6] (codimension 0) and shorten one interval end by one cell at a
    time, keeping only moves that raise the codimension by exactly one.
    Every codimension from 7 is a rung."""
    n, k, rungs = 12, 6, []
    intervals = [(i, i + k) for i in range(1, k + 1)]
    for codim in range(1, k * (n - k) + 1):
        moves = []
        for j, (a, b) in enumerate(intervals):
            others = intervals[:j] + intervals[j + 1:]
            for cand in ((a + 1, b), (a, b - 1)):
                if cand[0] > cand[1]:
                    continue
                if any(c == cand[0] or d == cand[1] for c, d in others):
                    continue
                trial = others + [cand]
                if rank_set_codim(trial, n) == codim:
                    moves.append(trial)
        if not moves:
            break
        intervals = rng.choice(moves)
        if codim >= 7:
            rungs.append((codim, [["rank-class", rank_set_text(intervals, n)]]))
    return rungs


def _schubert_stream(rng):
    out = []
    for k, top in ((4, 16), (5, 22), (6, 24)):
        n, box = 2 * k, k * k
        for total in range(2, top + 1, 2):
            for _ in range(3):
                a = rng.randint(1, total - 1)
                lam = partition_in_box(rng, k, k, a)
                mu = partition_in_box(rng, k, k, total - a)
                out.append(["schubert", "mult", part_text(lam), part_text(mu), "--gr", f"{k},{n}"])
            lam = partition_in_box(rng, k, k, rng.randint(0, box))
            out.append(["schubert", "degree", part_text(lam), "--gr", f"{k},{n}"])
    for size in range(3, 11):
        for _ in range(2):
            cells = skew_cells(rng, 4, 4, size)
            out.append(["diagram-specht", diagram_text(cells)])
        top = skew_cells(rng, 2, 3, min(size, 6) // 2 + 1)
        bottom = skew_cells(rng, 2, 3, min(size, 6) - min(size, 6) // 2)
        cells = top | {(r + 2, c + 3) for r, c in bottom}
        out.append(["diagram-specht", diagram_text(cells), "--family", "product"])
        primal = skew_cells(rng, 3, 4, min(size, 11))
        dual = {(4 - r, 5 - c) for r in range(1, 4) for c in range(1, 5) if (r, c) not in primal}
        out.append(["diagram-specht", diagram_text(dual, (3, 4)), "--family", "dual"])
    return out


def _schubert_ladder(rng):
    """Gr(k, 2k) for growing k: one product of two classes of half the
    top degree each, which expands over every partition of k*k."""
    rungs = []
    for k in range(4, 10):
        half = k * k // 2
        lam = partition_in_box(rng, k, k, half)
        mu = partition_in_box(rng, k, k, k * k - half)
        rungs.append((k, [["schubert", "mult", part_text(lam), part_text(mu), "--gr", f"{k},{2 * k}"]]))
    return rungs


def stream(workload: str, seed: int, round_: int = 0) -> list[list[str]]:
    """Round ``round_`` of the stream of ``workload`` for ``seed``, in the
    order it is sent.  Each round draws fresh inputs over the same cells.
    The verify stream is the paper replay and then the invariant suites at
    --max-n 5, 6 and 7, as a user raising the scale would run them; it has
    no random part.  Scales below 5 take milliseconds, and a percentile
    that landed on one of them would be too short to time steadily."""
    if workload == "verify":
        return [["verify", "paper"]] + [["verify", "suite", "--max-n", str(n)] for n in (5, 6, 7)]
    rng = random.Random(f"{workload}/{seed}/{round_}")
    out = {
        "stanley": _stanley_stream,
        "rank-class": _rank_class_stream,
        "schubert-specht": _schubert_stream,
    }[workload](rng)
    rng.shuffle(out)
    return out


def ladder(workload: str) -> list[tuple[int, list[list[str]]]]:
    """Rungs (size, queries) of ``workload``, smallest first.

    The ladder does not depend on the seed.  Two random chains of the same
    length can differ threefold in cost (rung 12 of the stanley chain took
    2.2 s on one draw and more than 8 s on another), which would make reach
    measure the draw instead of the program; a fixed chain keeps the rung
    costs, and so the rung at which the budget runs out, the same on every
    run.  The verify workload has no ladder of its own: its stream climbs
    the suite scales 5 to 7.  The scale stops at 7 because at 8 the
    complement suite would enumerate every partition up to size 64 and
    exhaust memory."""
    if workload == "verify":
        return []
    rng = random.Random(f"{workload}/ladder")
    return {
        "stanley": _stanley_ladder,
        "rank-class": _rank_class_ladder,
        "schubert-specht": _schubert_ladder,
    }[workload](rng)
