"""Output checks, run after the timed window.

Each check takes a query's argv, exit code and stdout and returns None when
the output satisfies an invariant that this file computes with its own code
(hook lengths, reduced-word counts, skew tableau counts), or a one-line
reason when it does not.  Only the diagram check calls into the program, for
its brute-force Specht oracle, as the workload definition asks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

_TERM = re.compile(r"^(\d+)\*([a-z])\[([^\[\]]*)\]$")


# ---------------------------------------------------------------------------
# Parsing of the documented text forms.


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    return () if text == "-" else tuple(int(t) for t in text.split(","))


def parse_terms(text: str, letter: str) -> dict[tuple[int, ...], int]:
    """Parse "1*s[2,2] + 1*s[3,1] - 1*s[4]" into {partition: coefficient}."""
    body = text.strip()
    if body == "0":
        return {}
    sign = 1
    if body.startswith("-"):
        sign, body = -1, body[1:].lstrip()
    chunks = re.split(r"\s+([+-])\s+", body)
    signs = [sign] + [1 if s == "+" else -1 for s in chunks[1::2]]
    out: dict[tuple[int, ...], int] = {}
    for s, term in zip(signs, chunks[0::2]):
        match = _TERM.match(term.strip())
        if not match or match.group(2) != letter:
            raise ValueError(f"bad term {term!r}")
        lam = parse_partition(match.group(3))
        if lam in out:
            raise ValueError(f"repeated term {term!r}")
        out[lam] = s * int(match.group(1))
    return out


def parse_class(text: str):
    match = re.fullmatch(r"(.*)@Gr\((\d+),(\d+)\)", text.strip())
    if not match:
        raise ValueError(f"bad class text {text!r}")
    return parse_terms(match.group(1), "o"), int(match.group(2)), int(match.group(3))


def parse_perm(text: str) -> tuple[int, ...]:
    text = text.strip()
    w = tuple(int(t) for t in text.split(",")) if "," in text else tuple(int(c) for c in text)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation: {text!r}")
    return w


# ---------------------------------------------------------------------------
# Counting, independent of the program.


def syt(lam) -> int:
    """Hook length formula."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = prod(lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i]))
    return factorial(sum(lam)) // hooks


def complement(lam, rows: int, cols: int) -> tuple[int, ...]:
    padded = tuple(lam) + (0,) * (rows - len(lam))
    return tuple(p for p in (cols - padded[rows - 1 - i] for i in range(rows)) if p)


def fits(lam, rows: int, cols: int) -> bool:
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def linear_extensions(cells) -> int:
    """Standard fillings of a cell set ordered by (row, col) <= (row', col'):
    for a skew shape, its number of standard tableaux."""

    @lru_cache(maxsize=None)
    def count(rest: frozenset) -> int:
        if not rest:
            return 1
        return sum(
            count(rest - {c})
            for c in rest
            if not any(d != c and d[0] <= c[0] and d[1] <= c[1] for d in rest)
        )

    return count(frozenset(cells))


def skew_syt(outer, inner) -> int:
    """Aitken's determinant: f^{outer/inner} = n! det[1/(outer_i - inner_j - i + j)!]."""
    rows = len(outer)
    if len(inner) > rows or any(inner[i] > outer[i] for i in range(len(inner))):
        return 0
    inner = tuple(inner) + (0,) * (rows - len(inner))
    m = [
        [Fraction(1, factorial(d)) if (d := outer[i] - inner[j] - i + j) >= 0 else Fraction(0)
         for j in range(rows)]
        for i in range(rows)
    ]
    det = Fraction(1)
    for c in range(rows):
        pivot = next((r for r in range(c, rows) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, rows):
            f = m[r][c] / m[c][c]
            for j in range(c, rows):
                m[r][j] -= f * m[c][j]
    value = det * factorial(sum(outer) - sum(inner))
    assert value.denominator == 1
    return int(value)


def inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


@lru_cache(maxsize=None)
def reduced_words(w: tuple[int, ...]) -> int:
    """Number of reduced words, by removing one descent at a time."""
    total = 0
    for i in range(len(w) - 1):
        if w[i] > w[i + 1]:
            v = list(w)
            v[i], v[i + 1] = v[i + 1], v[i]
            total += reduced_words(tuple(v))
    return total or 1


def rank_set_codim(intervals, n: int) -> int:
    """k(n-k) minus the interval dimension formula.  The generator has its
    own copy on purpose: a slip in one cannot then pass its own check."""
    k = len(intervals)
    dim = sum((b - a + 1) - sum(1 for c, d in intervals if a <= c and d <= b) for a, b in intervals)
    return k * (n - k) - dim


def parse_cells(text: str):
    body, _, box = text.partition(";box=")
    cells = {(int(r), int(c)) for r, c in re.findall(r"\((\d+),(\d+)\)", body)}
    if box:
        rows, cols = box.split("x")
        return cells, (int(rows), int(cols))
    return cells, None


# ---------------------------------------------------------------------------
# The checks, one per command.


def check_stanley(argv, rc, out):
    w = parse_perm(argv[1])
    terms = parse_terms(out, "s")
    ell = inversions(w)
    if rc != 0 or not terms:
        return f"exit {rc} or empty expansion"
    if any(sum(lam) != ell for lam in terms):
        return f"a term has degree other than l(w) = {ell}"
    if any(c <= 0 for c in terms.values()):
        return "a coefficient is not positive"
    total = sum(c * syt(lam) for lam, c in terms.items())
    if total != reduced_words(w):
        return f"sum c f^lam = {total} but w has {reduced_words(w)} reduced words"
    return None


def check_rank_class(argv, rc, out):
    text = argv[1]
    body, _, ntext = text.partition(";n=")
    n = int(ntext)
    intervals = [(int(a), int(b)) for a, b in re.findall(r"\[(\d+),(\d+)\]", body)]
    lines = out.strip().split("\n")
    if rc != 0 or len(lines) != 3:
        return f"exit {rc} or not three lines"
    w = parse_perm(lines[0].removeprefix("w_M = "))
    terms, k, nn = parse_class(lines[1].removeprefix("class = "))
    degree = int(lines[2].removeprefix("degree = "))
    codim = rank_set_codim(intervals, n)
    if inversions(w) != codim:
        return f"l(w_M) = {inversions(w)} but the interval formula gives codim {codim}"
    if (k, nn) != (len(intervals), n):
        return f"class lives in Gr({k},{nn}), expected Gr({len(intervals)},{n})"
    if any(sum(lam) != codim or not fits(lam, k, n - k) or c <= 0 for lam, c in terms.items()):
        return "a class term has the wrong degree, leaves the box or is not positive"
    want = sum(c * syt(complement(lam, k, n - k)) for lam, c in terms.items())
    if degree != want:
        return f"degree = {degree} but sum c f^(lam complement) = {want}"
    return None


def check_schubert(argv, rc, out):
    k, n = (int(x) for x in argv[-1].split(","))
    if rc != 0:
        return f"exit {rc}"
    if argv[1] == "degree":
        lam = parse_partition(argv[2])
        want = syt(complement(lam, k, n - k))
        return None if out.strip() == str(want) else f"degree {out.strip()} != f^(lam complement) = {want}"
    lam, mu = parse_partition(argv[2]), parse_partition(argv[3])
    terms, kk, nn = parse_class(out)
    if (kk, nn) != (k, n):
        return f"product lives in Gr({kk},{nn})"
    if any(sum(nu) != sum(lam) + sum(mu) or not fits(nu, k, n - k) for nu in terms):
        return "a product term has the wrong degree or leaves the box"
    got = sum(c * syt(complement(nu, k, n - k)) for nu, c in terms.items())
    want = skew_syt(complement(lam, k, n - k), mu)
    if got != want:
        return f"sum c f^(nu complement) = {got} but f^(lam complement / mu) = {want}"
    return None


def _block_split(cells):
    """The two blocks of a block-diagonal cell set, if it has a split."""
    rows = sorted({r for r, _ in cells})
    for cut in rows[:-1]:
        top = {x for x in cells if x[0] <= cut}
        bottom = cells - top
        if max(c for _, c in top) < min(c for _, c in bottom):
            return top, bottom
    return None


def check_specht(argv, rc, out, oracle=None):
    cells, box = parse_cells(argv[1])
    family = argv[3] if len(argv) > 3 else None
    if rc != 0:
        return f"exit {rc}"
    terms = parse_terms(out, "s")
    if any(sum(lam) != len(cells) or c <= 0 for lam, c in terms.items()):
        return "a term has the wrong size or a nonpositive multiplicity"
    if len(cells) <= 6 and oracle is not None:
        want = oracle(cells, box)
        return None if want == terms else f"brute force gives {want}"
    if family == "dual":
        rows, cols = box
        primal = {(rows + 1 - r, cols + 1 - c) for r in range(1, rows + 1)
                  for c in range(1, cols + 1) if (r, c) not in cells}
        got = sum(c * syt(complement(lam, rows, cols)) for lam, c in terms.items())
        want = linear_extensions(primal)
    else:
        got = sum(c * syt(lam) for lam, c in terms.items())
        split = _block_split(cells) if family == "product" else None
        if split:
            top, bottom = split
            want = comb(len(cells), len(top)) * linear_extensions(top) * linear_extensions(bottom)
        else:
            want = linear_extensions(cells)
    return None if got == want else f"dimension {got} != standard fillings {want}"


def check_verify(argv, rc, out):
    lines = out.strip().split("\n")
    want = 5 if argv[1] == "paper" else 24
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if rc != 0 or passed != want or len(lines) != want:
        return f"exit {rc}, {passed} PASS lines of {len(lines)}, expected {want}"
    return None


CHECKS = {
    "stanley": check_stanley,
    "rank-class": check_rank_class,
    "schubert": check_schubert,
    "verify": check_verify,
}


def make_oracle(src: str):
    """The program's group-algebra Specht oracle, imported from ``src``."""
    import sys

    sys.path.insert(0, src)
    from rankcalc.diagrams import diagram, specht_bruteforce

    def oracle(cells, box):
        return dict(specht_bruteforce(diagram(cells)).items())

    return oracle


def check(argv, rc, out, oracle=None):
    """None if the output of ``rankcalc *argv`` passes, else the reason."""
    try:
        if argv[0] == "diagram-specht":
            return check_specht(argv, rc, out, oracle)
        return CHECKS[argv[0]](argv, rc, out)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"unparseable output: {exc!r}"
