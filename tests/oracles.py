"""Independent brute-force reference implementations used only by tests.

Everything here works on raw tuples and dicts and re-derives values
straight from definitions (cell sets, explicit fillings, exhaustive
factorization enumeration), deliberately avoiding the library's own
algorithms so the two sides can check each other.
"""

from functools import lru_cache
from itertools import combinations


def transpose_cells(lam):
    """Conjugate partition computed by flipping the cell set."""
    cells = {(i, j) for i, row in enumerate(lam) for j in range(row)}
    flipped = {(j, i) for i, j in cells}
    rows = {}
    for i, _ in flipped:
        rows[i] = rows.get(i, 0) + 1
    return tuple(rows[i] for i in sorted(rows))


def syt_by_filling(lam):
    """Count standard fillings of a straight shape by backtracking."""
    return skew_syt_by_filling(lam, ())


def skew_syt_by_filling(outer, inner):
    """Count standard fillings of outer/inner by backtracking."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [
        (i, j) for i, row in enumerate(outer) for j in range(inner[i], row)
    ]
    shape = set(cells)
    filled = set()

    def place(v):
        if v > len(cells):
            return 1
        total = 0
        for i, j in cells:
            if (i, j) in filled:
                continue
            if (i, j - 1) in shape and (i, j - 1) not in filled:
                continue
            if (i - 1, j) in shape and (i - 1, j) not in filled:
                continue
            filled.add((i, j))
            total += place(v + 1)
            filled.discard((i, j))
        return total

    return place(1)


def inversion_count(w):
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


# --- affine permutation helpers on raw windows ---


def window_eval(window, i):
    n = len(window)
    q, r = divmod(i - 1, n)
    return window[r] + q * n


def window_compose(f, g):
    return tuple(window_eval(f, x) for x in g)


def window_inverse(f):
    n = len(f)
    out = [0] * n
    for j, image in enumerate(f, start=1):
        r = (image - 1) % n
        out[r] = j + (r + 1 - image)
    return tuple(out)


@lru_cache(maxsize=None)
def window_length(window):
    n = len(window)
    lo, hi = min(window), max(window)
    bound = (hi - lo) // n + 2
    count = 0
    for i in range(1, n + 1):
        for j in range(i + 1, i + n * bound + 1):
            if window_eval(window, j) < window[i - 1]:
                count += 1
    return count


def reflection_window(i, n):
    window = list(range(1, n + 1))
    r = i % n
    if r == 0:
        window[0] = 0
        window[n - 1] = n + 1
    else:
        window[r - 1], window[r] = r + 1, r
    return tuple(window)


@lru_cache(maxsize=None)
def cyclically_decreasing_windows(n):
    """All cyclically decreasing elements, as a dict window -> support size.

    Each proper residue subset is split into maximal cyclic runs, and each
    run a..b contributes the word s_b s_{b-1} ... s_a; the words of the
    runs are composed left to right.
    """
    out = {}
    for size in range(1, n):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            word = []
            for a in sorted(chosen):
                if (a - 1) % n in chosen:
                    continue
                run = [a]
                while (run[-1] + 1) % n in chosen:
                    run.append((run[-1] + 1) % n)
                word.extend(reversed(run))
            window = tuple(range(1, n + 1))
            for letter in word:
                window = window_compose(window, reflection_window(letter, n))
            out[window] = size
    return out


def factorization_counts(window, lam):
    """Number of tuples of cyclically decreasing elements with support
    sizes lam whose composition equals the given window.  The caller must
    pass lam summing to the length of the window.  Then every factorization
    is length-additive at each step, so a branch whose remainder does not
    drop in length by the size of the factor is pruned."""
    n = len(window)
    shift = (sum(window) - n * (n + 1) // 2) // n
    return _count_factorizations(tuple(x - shift for x in window), tuple(lam))


@lru_cache(maxsize=None)
def _count_factorizations(remaining, parts):
    if not parts:
        return 1 if remaining == tuple(range(1, len(remaining) + 1)) else 0
    target = window_length(remaining) - parts[0]
    total = 0
    for d, size in cyclically_decreasing_windows(len(remaining)).items():
        if size != parts[0]:
            continue
        rest = window_compose(window_inverse(d), remaining)
        if window_length(rest) == target:
            total += _count_factorizations(rest, parts[1:])
    return total


def bounded_windows(n):
    """All bounded affine permutation windows for period n."""

    def build(i, used, window):
        if i > n:
            yield tuple(window)
            return
        for value in range(i, i + n + 1):
            if value % n in used:
                continue
            used.add(value % n)
            window.append(value)
            yield from build(i + 1, used, window)
            window.pop()
            used.discard(value % n)

    yield from build(1, set(), [])
