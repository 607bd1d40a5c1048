"""Independent brute-force reference implementations used only by tests.

Everything here works on raw tuples and dicts and re-derives values
straight from definitions (cell sets, explicit fillings, exhaustive
factorization enumeration), deliberately avoiding the library's own
algorithms so the two sides can check each other.  Two exceptions start
from library pieces.  ``stanley`` starts from the library's factorization
counts: it is the route ``rankcalc.perms.stanley`` took before transition,
kept to check transition against an unrelated algorithm.
``transition_with_retry`` is the transition kernel as it was when a step
that found no child ran again on 1 x w, and ``transition_by_merge`` as it
was before a node with one child shared that child's terms and read r and
s off the Rothe rows; both read the library's Rothe rows, and both drop
fixed points with ``normalized_by_moved``, the library's earlier helper.
``specht_by_fractions`` starts from the library's polytabloid echelon basis
and pairs characters in ``Fraction`` arithmetic, the route
``rankcalc.diagrams.specht_bruteforce`` took before its integer pairing.
``specht_schur_by_splits`` is ``rankcalc.diagrams.specht_schur`` as it was
before it read block products as skew shapes: it searches the block splits
and multiplies the parts' expansions with ``schur_product``.  It reads each
skew shape through ``skew_schur_by_lr``, ``rankcalc.perms.skew_schur`` as
it was before transition (then in symfunc), which counts the LR ballot
tableaux of each nu with ``lr_by_ballot_tableaux``; so that route never
reaches transition.
``lr_by_ballot_tableaux`` is the recursive count of ballot tableaux that
``rankcalc.partitions.lr_coefficient`` ran before the strip-by-strip walk,
and ``schur_product_by_ballots`` is ``rankcalc.symfunc.schur_product`` as it
was then, one count per partition of the clipped box; they check the walk
from outside it.  ``schur_product_one_reading`` is
``rankcalc.symfunc.schur_product`` as it was before it chose among the four
readings of the walk: it always walks nu's rows onto mu.
``stanley_by_increasing_tableaux`` is the Edelman-Greene count, apart from
transition, factorizations and Kostka numbers alike.
The rank-set and complement formulas at the end are the library's earlier
set-difference, two-pass and ``partition()`` routes, kept as differential
references for the single-pass kernels that replaced them; the complement
keeps its use of ``partition()`` so that it raises what the library raised.
So are the earlier recursive box enumerator, the degeneration predicate on
cell sets and the stretch-loop extraction of w from a rank set, and so are
the inversion diagram by comparing pairs, the shape by the sorted Lehmer
code and the vexillary test by conjugate shapes, which rankcalc used before
it read all three off one set of Rothe row masks.  The
polytabloids signed by counting each filling's inversions, and the
cumulative verify suites, one per _SUITES entry, are the library's routes
before its sign table and its per-slice suites; they walk each family
whole, with the library's own kernels (``stanley_by_transition`` is
``rankcalc.perms.stanley``) except the LR symmetry walk, which counts
ballot tableaux as the library did then, and the Kostka round trip, the
ring-map check and the row-column shuffles keep one seed for all scales.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from rankcalc.diagrams import (
    _cycle_type_rep,
    _polytabloids,
    _rref_insert,
    complement_rotate,
    degeneration_check,
    diagram,
    diagram_of_permutation,
    james_peel_move,
    specht_bruteforce,
    specht_schur,
)
from rankcalc.errors import (
    NotBounded,
    NotRankSetShaped,
    ShapeTooLarge,
    UnsupportedDiagram,
)
from rankcalc.grassmann import class_degree, class_product, phi, point_class, schubert_class
from rankcalc.partitions import (
    RectangleContext,
    _lr_walk,
    all_partitions,
    box_partitions,
    centralizer_order,
    complement,
    contains,
    fits,
    mn_character,
    partition,
    syt_count,
)
from rankcalc.perms import (
    AffinePermutation,
    _rothe_rows,
    affine_stanley,
    direct_sum,
    embed,
    inversions,
    length,
    northeast_count,
    permutation_text,
    stanley as stanley_by_transition,
    tau_shift,
)
from rankcalc.rankset import (
    affine_of_rank_set,
    all_rank_sets,
    codimension,
    containment_count,
    rank_set_of_affine,
    rank_set_of_permutation,
    stretch,
    w_of_rank_set,
)
from rankcalc.symfunc import (
    SchurExpansion,
    kostka,
    monomial_to_schur,
    schur_product,
    schur_to_monomial,
)


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


def rothe_cells_by_pairs(w):
    """The inversion diagram of w: a cell (i, w(j)) for each pair i < j
    with w(i) > w(j)."""
    n = len(w)
    return {(i + 1, w[j]) for i in range(n) for j in range(i + 1, n) if w[i] > w[j]}


def shape_by_code(w):
    """lambda(w): the Lehmer code of w, entry i counting the later entries
    below w(i), sorted into decreasing order with its zeros dropped."""
    code = (sum(1 for y in w[i + 1:] if y < x) for i, x in enumerate(w))
    return tuple(c for c in sorted(code, reverse=True) if c)


def vexillary_by_conjugate(w):
    """Whether w avoids 2143, read as lambda(w^-1) being the conjugate of
    lambda(w)."""
    inverse = tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))
    return shape_by_code(inverse) == transpose_cells(shape_by_code(w))


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


@lru_cache(maxsize=None)
def partitions_of(n, top=None):
    """All partitions of n with parts at most top, as a tuple."""
    top = n if top is None else top
    if n == 0:
        return ((),)
    return tuple(
        (p,) + rest
        for p in range(min(n, top), 0, -1)
        for rest in partitions_of(n - p, p)
    )


@lru_cache(maxsize=None)
def kostka_by_tableaux(lam, mu):
    """Semistandard tableaux of shape lam and content mu, built one entry at
    a time in the order 1, ..., 1, 2, ..., 2, ...: each entry fills a cell
    that keeps the filled cells a partition inside lam, and the entries of
    one value go left to right, each in a column right of the one before,
    since equal entries never share a column.  How many ways there are to
    finish depends only on the filled shape, the step and that column, so
    the count is memoized on them."""
    if sum(lam) != sum(mu):
        return 0
    values = [v for v, m in enumerate(mu) for _ in range(m)]

    @lru_cache(maxsize=None)
    def finish(shape, step, col):
        if step == len(values):
            return 1
        same = step and values[step] == values[step - 1]
        total = 0
        for r, c in enumerate(shape):
            if c < lam[r] and (not r or shape[r - 1] > c) and (not same or c > col):
                total += finish(shape[:r] + (c + 1,) + shape[r + 1:], step + 1, c)
        return total

    return finish((0,) * len(lam), 0, -1)


def stanley(w):
    """F_w in the Schur basis, as {lam: coefficient}, by the route rankcalc
    used before transition: the monomial coefficients count decreasing
    factorizations (affine_stanley of the embedded window, itself checked
    against factorization_counts), and the unitriangular Kostka system is
    inverted by stripping the lex-greatest term, with Kostka numbers from
    kostka_by_tableaux instead of the library's horizontal-strip rows."""
    work = affine_stanley(AffinePermutation(w)).terms()
    out = {}
    while work:
        lam = max(work)
        out[lam] = c = work.pop(lam)
        for mu in partitions_of(sum(lam)):
            if mu != lam and (k := kostka_by_tableaux(lam, mu)):
                work[mu] = work.get(mu, 0) - c * k
                if not work[mu]:
                    del work[mu]
    return out


def normalized_by_moved(w):
    """w less its leading fixed points (the rest shifted down) and trailing
    ones; F_w does not change."""
    moved = [i for i, x in enumerate(w) if x != i + 1]
    return tuple(x - moved[0] for x in w[moved[0]:moved[-1] + 1]) if moved else ()


@lru_cache(maxsize=None)
def transition_by_merge(w):
    """Schur terms of F_w for a normalized w, the route rankcalc took before
    a node with one child shared that child's terms: every node merges its
    children's terms into a fresh dict, r and s come from scans of 1 x w,
    and each child is a copy.  It keeps a memo of its own."""
    rows = sorted(_rothe_rows(w), key=int.bit_count, reverse=True)
    # w avoids 2143 exactly when its rows, sorted by size, form a chain
    if all(a & b == b for a, b in zip(rows, rows[1:])):
        return ((partition(map(int.bit_count, rows)), 1),)
    v = [1] + [x + 1 for x in w]  # 1 x w, whose 1 is met last (see stanley)
    r = max(i for i in range(len(w)) if v[i] > v[i + 1])
    s = max(j for j in range(r + 1, len(v)) if v[j] < v[r])
    v[r], v[s] = v[s], v[r]
    total = {}
    low = 0  # the largest v(k) < v(r) met so far, for i < k < r
    for i in range(r - 1, -1, -1):
        if low < v[i] < v[r]:
            u = v[:]
            u[i], u[r] = u[r], u[i]
            for mu, c in transition_by_merge(normalized_by_moved(u)):
                total[mu] = total.get(mu, 0) + c
            low = v[i]
    return tuple(total.items())


@lru_cache(maxsize=None)
def transition_with_retry(w):
    """Schur terms of F_w for a normalized w, the route rankcalc took before
    its transition step ran once on 1 x w: the step runs on w, and again on
    1 x w only when w gives no child.  It keeps a memo of its own."""
    rows = sorted(_rothe_rows(w), key=int.bit_count, reverse=True)
    # w avoids 2143 exactly when its rows, sorted by size, form a chain
    if all(a & b == b for a, b in zip(rows, rows[1:])):
        return ((partition(map(int.bit_count, rows)), 1),)
    children = []
    while not children:
        r = max(i for i in range(len(w) - 1) if w[i] > w[i + 1])
        s = max(j for j in range(r + 1, len(w)) if w[j] < w[r])
        v = list(w)
        v[r], v[s] = v[s], v[r]
        low = 0  # the largest v(k) < v(r) met so far, for i < k < r
        for i in range(r - 1, -1, -1):
            if low < v[i] < v[r]:
                u = v[:]
                u[i], u[r] = u[r], u[i]
                children.append(normalized_by_moved(u))
                low = v[i]
        w = (1,) + tuple(x + 1 for x in w)  # 1 x w, used if there is no child
    total = {}
    for u in children:
        for mu, c in transition_with_retry(u):
            total[mu] = total.get(mu, 0) + c
    return tuple(total.items())


def dominates(lam, mu):
    """Whether lam >= mu in dominance order (equal sizes)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def stanley_by_increasing_tableaux(w, filtered=True):
    """F_w in the Schur basis, as {lam: coefficient}, by Edelman-Greene
    ("Balanced tableaux", 1987): the coefficient of s_lam counts the
    increasing tableaux of shape lam (rows and columns strictly increasing)
    whose rows, read from the bottom up and each left to right, spell a
    reduced word of w^-1.  The cells are filled in that reading order.  The
    prefix word spells u, and letter i may follow it exactly when
    u(i) < u(i + 1) and that pair of values is an inversion of w^-1, so the
    word stays reduced and below w^-1.  With ``filtered`` only the shapes
    lambda(w) <= lam <= lambda(w^-1)' in dominance are searched."""
    n = len(w)
    inverse = tuple(sorted(range(1, n + 1), key=lambda i: w[i - 1]))
    wanted = {
        (inverse[j], inverse[i])
        for i in range(n)
        for j in range(i + 1, n)
        if inverse[i] > inverse[j]
    }
    low, high = shape_by_code(w), transpose_cells(shape_by_code(inverse))
    out = {}
    for lam in partitions_of(len(wanted)):
        if filtered and not (dominates(lam, low) and dominates(high, lam)):
            continue
        cells = [(r, c) for r in reversed(range(len(lam))) for c in range(lam[r])]
        grid = [[0] * p for p in lam]
        u = list(range(1, n + 1))

        def fill(idx):
            if idx == len(cells):
                return 1
            r, c = cells[idx]
            lo = grid[r][c - 1] + 1 if c else 1
            hi = grid[r + 1][c] - 1 if r + 1 < len(lam) and c < lam[r + 1] else n - 1
            total = 0
            for i in range(lo, hi + 1):
                if u[i - 1] < u[i] and (u[i - 1], u[i]) in wanted:
                    u[i - 1], u[i] = u[i], u[i - 1]
                    grid[r][c] = i
                    total += fill(idx + 1)
                    u[i - 1], u[i] = u[i], u[i - 1]
            return total

        if count := fill(0):
            out[lam] = count
    return out


def lr_by_ballot_tableaux(lam, mu, nu):
    """c^lam_{mu nu}: the fillings of lam/mu with content nu whose reverse
    reading word is a ballot word, placed in that order (rows top to
    bottom, right to left) so the ballot test runs as each is placed."""
    for p in (lam, mu, nu):
        if partition(p) != p:
            raise ValueError(f"not a partition: {p}")
    if sum(mu) + sum(nu) != sum(lam) or not (contains(lam, mu) and contains(lam, nu)):
        return 0
    inner = mu + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r] - 1, inner[r] - 1, -1)]
    counts = [0] * (len(nu) + 1)
    grid = [[0] * p for p in lam]

    def place(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = grid[r][c + 1] if c + 1 < lam[r] else len(nu)
        above = grid[r - 1][c] if r > 0 and inner[r - 1] <= c < lam[r - 1] else 0
        total = 0
        for v in range(above + 1, right + 1):
            if counts[v] < nu[v - 1] and (v == 1 or counts[v] < counts[v - 1]):
                counts[v] += 1
                grid[r][c] = v
                total += place(idx + 1)
                counts[v] -= 1
                grid[r][c] = 0
        return total

    return place(0)


def schur_product_by_ballots(a, b, box=None):
    """The Schur product as rankcalc formed it before the LR walk: for each
    pair of terms, one ballot count per partition of the support box,
    clipped to ``box=(rows, cols)`` if given."""
    data = {}
    for mu, cm in a.items():
        for nu, cn in b.items():
            rows, cols = len(mu) + len(nu), sum(mu[:1]) + sum(nu[:1])
            if box is not None:
                rows, cols = min(rows, box[0]), min(cols, box[1])
            for lam in box_partitions(sum(mu) + sum(nu), rows, cols):
                data[lam] = data.get(lam, 0) + cm * cn * lr_by_ballot_tableaux(lam, mu, nu)
    return SchurExpansion(data)


def schur_product_one_reading(a, b, box=None):
    """The Schur product as rankcalc formed it before it chose among the
    four readings of the LR walk: each pair of terms walks nu's rows as
    strips onto mu, inside ``box=(rows, cols)`` if given, else in the
    support box."""
    data = {}
    for mu, cm in a.items():
        for nu, cn in b.items():
            support = len(mu) + len(nu), sum(mu[:1]) + sum(nu[:1])
            for lam, c in _lr_walk(mu, nu, *(box or support)):
                data[lam] = data.get(lam, 0) + cm * cn * c
    return SchurExpansion(data)


def skew_schur_by_lr(outer, inner):
    """s_{outer/inner} in the Schur basis, the route rankcalc took before
    transition: c^outer_{inner nu} on s_nu, with each coefficient a count of
    LR ballot tableaux (``lr_by_ballot_tableaux``), for every nu that fits
    in outer."""
    if partition(outer) != outer:
        raise ValueError(f"not a partition: {outer}")
    inner = partition(inner)
    nus = box_partitions(sum(outer) - sum(inner), len(outer), sum(outer[:1]))
    return SchurExpansion((nu, lr_by_ballot_tableaux(outer, inner, nu)) for nu in nus)


def specht_by_fractions(cells):
    """The diagram module of a cell set as {lam: multiplicity}: traces of
    the echelon basis summed as fractions, paired with the irreducible
    characters divided by the centralizer orders."""
    m = len(cells)
    pivot_rows = {}
    for vector in _polytabloids(frozenset(cells)):
        _rref_insert(pivot_rows, vector)

    def character(sigma):
        total = Fraction(0)
        for lead, row in pivot_rows.items():
            total += Fraction(row.get(tuple(lead[x] for x in sigma), 0), row[lead])
        return total

    chars = {mu: character(_cycle_type_rep(mu, m)) for mu in all_partitions(m)}
    out = {}
    for lam in all_partitions(m):
        mult = sum(
            chars[mu] * mn_character(lam, mu) / centralizer_order(mu)
            for mu in chars
        )
        assert mult.denominator == 1 and mult >= 0, (lam, mult)
        if mult:
            out[lam] = int(mult)
    return out


def _skew_of_compressed_rows(d):
    """A skew shape's expansion, or None: delete empty rows and columns,
    and sort the rows, all intervals, with both endpoints decreasing."""
    row_index = {r: i for i, r in enumerate(sorted({r for r, _ in d.cells}))}
    col_index = {c: i + 1 for i, c in enumerate(sorted({c for _, c in d.cells}))}
    rows = [set() for _ in row_index]
    for r, c in d.cells:
        rows[row_index[r]].add(col_index[c])
    spans = []
    for row in rows:
        if len(row) != max(row) - min(row) + 1:
            return None
        spans.append((min(row), max(row)))
    spans.sort(key=lambda span: (-span[0], -span[1]))
    outer = [hi for _, hi in spans]
    inner = [lo - 1 for lo, _ in spans]
    if any(a < b for a, b in zip(outer, outer[1:])):
        return None
    if any(a < b for a, b in zip(inner, inner[1:])):
        return None
    return skew_schur_by_lr(partition(outer), tuple(inner))


def _product_of_split(d):
    """The product of the parts' expansions at the first block split whose
    parts both decompose (by specht_schur_by_splits), or None."""
    rows = sorted({r for r, _ in d.cells})
    for cut in rows[:-1]:
        top = {(r, c) for r, c in d.cells if r <= cut}
        bottom = {(r, c) for r, c in d.cells if r > cut}
        col_cut = max(c for _, c in top)
        if any(c <= col_cut for _, c in bottom):
            continue
        try:
            top_exp = specht_schur_by_splits(diagram(top))
            bottom_exp = specht_schur_by_splits(
                diagram((r - cut, c - col_cut) for r, c in bottom)
            )
        except UnsupportedDiagram:
            continue
        return schur_product(top_exp, bottom_exp)
    return None


def specht_schur_by_splits(d, family=None):
    """specht_schur for the families None, "skew", "product" and "dual", by
    the library's route before it read block products as skew shapes: the
    skew recognizer, then a recursive search over block splits that
    multiplies the parts' expansions."""
    if family == "dual":
        if d.ctx is None:
            raise UnsupportedDiagram("dual family needs the diagram's box")
        primal = specht_schur_by_splits(complement_rotate(d, d.ctx))
        return SchurExpansion({complement(lam, d.ctx): c for lam, c in primal.items()})
    rules, message = {
        None: ((_skew_of_compressed_rows, _product_of_split), "no decomposition rule for {}"),
        "skew": ((_skew_of_compressed_rows,), "{} is not a skew shape"),
        "product": ((_product_of_split,), "{} admits no block split"),
    }[family]
    if not d.cells:
        return SchurExpansion.one()
    for rule in rules:
        found = rule(d)
        if found is not None:
            return found
    raise UnsupportedDiagram(message.format(sorted(d.cells)))


def column_transfer(cells, i, j):
    """The cells after moving each cell of column i to column j in every
    row whose column j is empty."""
    return frozenset(
        (r, j) if c == i and (r, j) not in cells else (r, c) for r, c in cells
    )


# --- rank sets and box complements, by the library's earlier formulas ---


def window_of_intervals(intervals, n):
    """Window of the bounded affine permutation of a rank set: right ends b
    go to a + n, the spare positions take the spare values in order."""
    window = [0] * n
    for a, b in intervals:
        window[b - 1] = a + n
    spare = iter(sorted(set(range(1, n + 1)).difference(a for a, _ in intervals)))
    return tuple(x or next(spare) for x in window)


def intervals_of_window(window):
    """Rank-set intervals of a bounded window whose entries in [n]
    increase, sorted by right end; raises as rank_set_of_affine does."""
    n = len(window)
    if not all(i <= x <= i + n for i, x in enumerate(window, start=1)):
        raise NotBounded(window)
    small = [x for x in window if x <= n]
    if small != sorted(small):
        raise NotRankSetShaped(window)
    return tuple((x - n, p) for p, x in enumerate(window, start=1) if x > n)


def rank_variety_dimension(intervals):
    """Sum over intervals of size minus the number of intervals inside."""
    return sum(b - a + 1 for a, b in intervals) - sum(
        r <= a and b <= s for r, s in intervals for a, b in intervals
    )


def box_complement(lam, rows, cols):
    """Rotated complement of lam in rows x cols, put through partition()."""
    if not fits(lam, rows, cols):
        raise ShapeTooLarge(lam)
    return partition([cols] * (rows - len(lam)) + [cols - p for p in reversed(lam)])


def w_by_stretching(intervals, n):
    """The permutation of a nonempty rank set: stretch one step at a time
    until every left end is below every right end, then read the window
    from the least right end b on: w(i) = f(b-2+i) - f(b-1) + 1."""
    while max(a for a, _ in intervals) >= min(b for _, b in intervals):
        intervals = tuple((a, b + 1) for a, b in intervals)
        n += 1
    window = window_of_intervals(intervals, n)
    b = min(b for _, b in intervals)
    y = window_eval(window, b - 1)
    return tuple(window_eval(window, b - 2 + i) - y + 1 for i in range(1, n + 1))


def box_partitions_by_recursion(n, rows, cols):
    """The partitions of n in rows x cols, least first part first, each
    followed by the partitions of the rest below it, one frame per part."""
    if n == 0:
        yield ()
    elif 0 < n <= rows * cols:
        for first in range(max(1, -(-n // rows)), min(n, cols) + 1):
            for rest in box_partitions_by_recursion(n - first, rows - 1, first):
                yield (first,) + rest


def degeneration_holds(w, pattern):
    """The structure properties of a transferred staircase pattern, given
    as a cell set: inside the first n columns it is the complement of the
    inversion diagram, and a cell (i, j) with j > n needs row j - n of the
    inversion diagram to contain row i."""
    n = len(w)
    inv = rothe_cells_by_pairs(w)
    rows = [{c for r, c in inv if r == i} for i in range(n + 1)]
    square = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    return pattern & square == square - inv and all(
        rows[i] <= rows[j - n] for i, j in pattern if j > n
    )


def polytabloids_by_inversions(cells):
    """The polytabloids of a cell set, each filling of the sorted cells
    signed by counting its inversions."""
    vectors = {}
    for filling in permutations(sorted(cells)):
        vector = vectors.setdefault(tuple(c for _, c in filling), {})
        vector[tuple(r for r, _ in filling)] = (-1) ** inversions(filling)
    return vectors.values()


def suite_syt_cumulative(max_n):
    for n in range(max_n + 1):
        for lam in all_partitions(n):
            yield syt_count(lam) != kostka(lam, (1,) * n)


def suite_lr_symmetry_cumulative(max_n):
    for total in range(max_n + 1):
        for a in range(total + 1):
            for mu in all_partitions(a):
                for nu in all_partitions(total - a):
                    for lam in all_partitions(total):
                        yield lr_by_ballot_tableaux(lam, mu, nu) != lr_by_ballot_tableaux(
                            lam, nu, mu
                        )


def suite_complement_involution_cumulative(max_n):
    for rows in range(max_n + 1):
        for cols in range(max_n + 1):
            ctx = RectangleContext(rows, cols)
            comp = {
                lam: complement(lam, ctx)
                for size in range(rows * cols + 1)
                for lam in box_partitions(size, rows, cols)
            }
            for lam, image in comp.items():
                yield comp.get(image) != lam


def suite_kostka_round_trip_cumulative(max_n):
    rng = random.Random(20240)
    for n in range(max_n + 1):
        for lam in all_partitions(n):
            s = SchurExpansion.basis(lam)
            yield monomial_to_schur(schur_to_monomial(s)) != s
        parts = all_partitions(n)
        if parts:
            for _ in range(3):
                s = SchurExpansion(
                    {lam: rng.randint(-3, 3) for lam in rng.sample(parts, min(3, len(parts)))}
                )
                yield monomial_to_schur(schur_to_monomial(s)) != s


def suite_rank_round_trip_codim_cumulative(max_n):
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            for m in all_rank_sets(k, n):
                f = affine_of_rank_set(m)
                yield rank_set_of_affine(f) != m, codimension(m) != length(f)


def _permutations_through(top):
    for n in range(1, top + 1):
        yield from permutations(range(1, n + 1))


def _rank_sets_through(top, min_k=0):
    for n in range(1, top + 1):
        for k in range(min_k, n + 1):
            for m in all_rank_sets(k, n):
                yield k, n, m


def _box_diagrams_through(rows, cols, max_size):
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for size in range(max_size + 1):
        for chosen in combinations(cells, size):
            yield diagram(chosen)


def suite_orthogonality_cumulative(max_n):
    for m in range(1, max_n + 1):
        parts = all_partitions(m)
        for mu in parts:
            for nu in parts:
                total = sum(mn_character(lam, mu) * mn_character(lam, nu) for lam in parts)
                yield total != (centralizer_order(mu) if mu == nu else 0)


def suite_product_laws_cumulative(max_n):
    singles = [
        SchurExpansion.basis(lam) for size in range(1, max_n + 1) for lam in all_partitions(size)
    ]
    for a in singles:
        for b in singles:
            left = schur_product(a, b)
            yield (left != schur_product(b, a)) + sum(
                sum(lam) != a.degree() + b.degree() for lam in left.terms()
            )
    small = [SchurExpansion.basis(lam) for lam in all_partitions(2)] + [
        SchurExpansion.basis((1,))
    ]
    for a in small:
        for b in small:
            for c in small:
                yield schur_product(schur_product(a, b), c) != schur_product(
                    a, schur_product(b, c)
                )


def suite_stanley_stability_positive_cumulative(max_n):
    for w in _permutations_through(max_n):
        a = affine_stanley(embed(direct_sum(w, (1,))))
        yield (
            schur_to_monomial(stanley_by_transition(w)) != a,
            not monomial_to_schur(a).is_nonnegative(),
        )


def suite_tau_invariance_cumulative(max_n):
    for n in range(1, max_n + 1):
        family = [AffinePermutation(window) for window in bounded_windows(n)]
        if n == 5:
            family = random.Random(20243).sample(family, 40)
        for f in family:
            base = affine_stanley(f)
            yield (
                (affine_stanley(tau_shift(f, 1, 0)) != base)
                + (affine_stanley(tau_shift(f, -1, 1)) != base)
                + (base.degree() != length(f))
            )


def suite_embedded_length_cumulative(max_n):
    for w in _permutations_through(max_n):
        yield length(embed(w)) != inversions(w)


def suite_interval_rank_cumulative(max_n):
    for _, n, m in _rank_sets_through(max_n):
        f = affine_of_rank_set(m)
        for r in range(1, n + 1):
            for s in range(r, n + 1):
                yield containment_count(m, (r, s)) != northeast_count(f, s + 1, n + r - 1)


def suite_class_oracle_stretch_cumulative(max_n):
    for k, n, m in _rank_sets_through(max_n, min_k=1):
        from_w = phi(stanley_by_transition(w_of_rank_set(m)), k, n)
        from_f = phi(monomial_to_schur(affine_stanley(affine_of_rank_set(m))), k, n)
        yield (
            from_w != from_f,
            from_w != phi(stanley_by_transition(w_of_rank_set(stretch(m))), k, n),
        )


def suite_mw_identity_cumulative(max_n):
    for w in _permutations_through(max_n):
        n = len(w)
        f = affine_of_rank_set(rank_set_of_permutation(w))
        expected_window = tuple(range(n + 1, 2 * n + 1)) + tuple(x + 2 * n for x in w)
        shifted = tau_shift(embed(direct_sum(w, tuple(range(1, n + 1)))), 2 * n, -n)
        yield (
            (f.window != expected_window)
            + (f != shifted)
            + (monomial_to_schur(affine_stanley(f)) != stanley_by_transition(w))
        )


def suite_phi_ring_map_cumulative(max_n):
    rng = random.Random(20241)
    for n in range(2, max_n + 1):
        for k in range(1, n):
            parts = [lam for size in range(1, 4) for lam in all_partitions(size)]
            for _ in range(4):
                a = SchurExpansion.basis(rng.choice(parts))
                b = SchurExpansion.basis(rng.choice(parts))
                yield phi(schur_product(a, b), k, n) != class_product(
                    phi(a, k, n), phi(b, k, n)
                )


def suite_pieri_degree_cumulative(max_n):
    for n in range(2, max_n + 1):
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


def suite_rothe_degeneration_cumulative(max_n):
    for w in _permutations_through(max_n):
        yield len(diagram_of_permutation(w).cells) != inversions(w), not degeneration_check(w)


def suite_james_peel_cumulative(max_n):
    for d in _box_diagrams_through(3, 3, max_n):
        base = specht_bruteforce(d)
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    moved = specht_bruteforce(james_peel_move(d, i, j))
                    yield any(c > base.coeff(lam) for lam, c in moved.items())


def suite_specht_oracle_cumulative(max_n):
    for d in _box_diagrams_through(3, 3, max_n):
        try:
            ruled = specht_schur(d)
        except UnsupportedDiagram:
            continue
        yield ruled != specht_bruteforce(d)
    for n in range(2, 5):
        for w in permutations(range(1, n + 1)):
            d = diagram_of_permutation(w)
            if len(d.cells) <= max_n:
                ruled = specht_schur(d, f"perm:{permutation_text(w)}")
                yield ruled != specht_bruteforce(d)


def suite_box_duality_cumulative(max_n):
    for ctx in (RectangleContext(2, 2), RectangleContext(2, 3), RectangleContext(3, 2)):
        for d in _box_diagrams_through(ctx.rows, ctx.cols, max_n):
            dual_cells = complement_rotate(diagram(d.cells, ctx), ctx)
            if len(dual_cells.cells) > 5:
                continue
            try:
                via_rule = specht_schur(dual_cells, family="dual")
            except UnsupportedDiagram:
                continue
            yield via_rule != specht_bruteforce(dual_cells)


def suite_row_col_invariance_cumulative(max_n):
    rng = random.Random(20242)
    pool = [d for d in _box_diagrams_through(3, 3, max_n) if d.cells]
    for d in rng.sample(pool, min(25, len(pool))):
        base = specht_bruteforce(d)
        perm_rows = rng.sample(range(1, 4), 3)
        perm_cols = rng.sample(range(1, 4), 3)
        shuffled = diagram((perm_rows[r - 1], perm_cols[c - 1]) for r, c in d.cells)
        yield specht_bruteforce(shuffled) != base


# The cumulative suites by the first report of their _SUITES entry, each
# walking its whole family up to the scale it is given.
CUMULATIVE_SUITES = {
    "partitions/syt-hook-vs-enumeration": suite_syt_cumulative,
    "partitions/lr-symmetry": suite_lr_symmetry_cumulative,
    "partitions/complement-involution": suite_complement_involution_cumulative,
    "partitions/character-orthogonality": suite_orthogonality_cumulative,
    "symfunc/kostka-round-trip": suite_kostka_round_trip_cumulative,
    "symfunc/product-laws": suite_product_laws_cumulative,
    "perms/stanley-stability": suite_stanley_stability_positive_cumulative,
    "perms/tau-invariance-and-degree": suite_tau_invariance_cumulative,
    "perms/embedded-length": suite_embedded_length_cumulative,
    "rankset/round-trip": suite_rank_round_trip_codim_cumulative,
    "rankset/interval-rank-identity": suite_interval_rank_cumulative,
    "rankset/class-oracle-equivalence": suite_class_oracle_stretch_cumulative,
    "rankset/permutation-rank-set-identity": suite_mw_identity_cumulative,
    "grassmann/phi-ring-map": suite_phi_ring_map_cumulative,
    "grassmann/pieri-degree": suite_pieri_degree_cumulative,
    "diagrams/rothe-inversions": suite_rothe_degeneration_cumulative,
    "diagrams/james-peel-monotonicity": suite_james_peel_cumulative,
    "diagrams/specht-oracle-agreement": suite_specht_oracle_cumulative,
    "diagrams/box-duality": suite_box_duality_cumulative,
    "diagrams/row-col-invariance": suite_row_col_invariance_cumulative,
}
