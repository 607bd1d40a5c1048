"""The checks CI makes beyond tier-1, as one table of named rows.

    PYTHONPATH=src python tests/ci_checks.py [NAME ...]

runs the named rows (every row by default), each in a child process killed
at its timeout, and prints one JSON line per row: name, passed, wall_s,
peak_rss_mb (the child's, which Linux floors at the RSS of this runner when
it spawns the child, about 17 MB) and digest (sha256 of its stdout); it
exits 1 if any row fails.  A CLI row pins the exit code, stdout (text or sha256)
and start of stderr of ``python -m rankcalc.cli ARGV``.  A helper row
evaluates a call such as ``test_rankset.theorem_mismatches(8)`` in its test
module and pins the (count, bad) it returns: the count, and no bad.
"""
import hashlib
import json
import os
import signal
import sys
import tempfile
import time
from typing import NamedTuple

TESTS = os.path.dirname(os.path.abspath(__file__))


class Row(NamedTuple):
    argv: tuple  # after the interpreter
    out: str  # the expected stdout, or its sha256
    timeout: float
    code: int = 0
    err: str = ""  # the expected start of stderr


def cli(*argv, out, timeout, code=0, err=""):
    return Row(("-m", "rankcalc.cli", *argv), out, timeout, code, err)


# a helper row's child, given the call and the tests directory
_CALL = """import sys
sys.path.insert(0, sys.argv[2])
module, _, call = sys.argv[1].partition(".")
cases, bad = eval(call, vars(__import__(module)))
print(cases, bad[:5])
"""


def helper(call, count, timeout):
    return Row(("-c", _CALL, call, TESTS), f"{count} []\n", timeout)


S14 = "8,5,4,12,10,3,2,14,7,1,13,11,9,6"  # the stanley walls, from
S15 = "8,5,4,12,15,3,2,7,1,14,13,11,6,10,9"  # perm_of_length(Random(7), n, l)
S16 = "7,10,5,8,4,15,16,6,3,2,13,1,14,12,11,9"  # in perfbench/workloads.py
N18 = "[1,3],[3,4],[4,10],[8,13],[14,14],[9,15],[15,16],[17,17],[7,18];n=18"
N24 = "[1,5],[2,9],[3,14],[6,17],[8,20],[11,22],[13,23],[16,24];n=24"
STANLEY_JSON = '{"command": "stanley", "w": "31524", "schur": "1*s[2,2] + 1*s[3,1]"}\n'
# the perm: and skew families print the same for these cells from two different
# permutations: 2,1,4,3,...,10,9 and the 321-avoider of (5,4,3,2,1)/(4,3,2,1)
SPARSE = "(1,1),(3,3),(5,5),(7,7),(9,9)"
SPARSE_SHA = "b900b695fdf60ad6305a44a82de404e3b1730f2266dd04429afae6bf9b886184"
DIAGONAL = ",".join(f"({i},{i})" for i in range(1, 18))

ROWS = {
    # a lone "-" (the empty partition) is read on the plain path; an
    # abbreviated flag and an = form go through argparse
    "stanley-json": cli("stanley", "31524", "--json", out=STANLEY_JSON, timeout=2),
    "stanley-js": cli("stanley", "31524", "--js", out=STANLEY_JSON, timeout=2),
    "paper-json": cli("verify", "paper", "--json", timeout=2,
                      out="61662c7e2efda75a24072ecfb818b331407fbd8ee49f4e9608ab79fbebbe9361"),
    "mult-empty": cli("schubert", "mult", "-", "1", "--gr", "2,4", out="1*o[1]@Gr(2,4)\n",
                      timeout=2),
    "suite-2": cli("verify", "suite", "--max-n=2", timeout=2,
                   out="a86a21ddef71c489a60026f3c696fa4e0cf749b9a3b169b13df668c1b3537854"),
    "sparse-perm": cli("diagram-specht", SPARSE, "--family", "perm:2,1,4,3,6,5,8,7,10,9",
                       out=SPARSE_SHA, timeout=2),
    "sparse-skew": cli("diagram-specht", SPARSE, out=SPARSE_SHA, timeout=2),
    "paper": cli("verify", "paper", timeout=2,
                 out="ac659899aba4ecfb52432445b5bb201dc4646ba5cd4dc08a8c16dd0b1ebed8f7"),
    "suite-7": cli("verify", "suite", "--max-n", "7", timeout=3,
                   out="67c123168002e39d842d75fd1b6995d0c16f5fd94f1497df8b9825179398edcb"),
    # the required, choices and type keywords of the grammar table exit 2
    "stanley-xx": cli("stanley", "xx", out="", code=2, timeout=2),
    "mult-no-gr": cli("schubert", "mult", "1", "1", out="", code=2, timeout=2),
    "verify-bogus": cli("verify", "bogus", out="", code=2, timeout=2),
    "suite-max-n-x": cli("verify", "suite", "--max-n", "x", out="", code=2, timeout=2),
    # past its bound of 10, verify suite refuses at once with exit 3
    "suite-11": cli("verify", "suite", "--max-n", "11", out="", code=3, timeout=2),
    # a 19-cell chain of diagonal blocks over a block that is not a skew
    # shape is rejected at once, without a search of its splits
    "chain-19": cli("diagram-specht", DIAGONAL.rpartition(",(")[0] + ",(17,18),(18,17),(18,19)",
                    out="", code=3, err="error: no decomposition rule", timeout=10),
    # the 17-cell diagonal, a skew shape, answers by transition in the 297
    # terms printed when skew_schur lived in symfunc
    "diagonal-17": cli("diagram-specht", DIAGONAL, timeout=10,
                       out="866a8c6f199f79670ec1aacd72e1070ecd027d0f12c054c0fcbd9d14cd570567"),
    # a 999-row class: the LR walk adds one strip per row, visits only the
    # rows with room, and prints one term
    "product-999-rows": cli("schubert", "mult", "1", ",".join(["1"] * 999), "--gr", "1000,1001",
                            timeout=10,
                            out="9367a9a4f8654d10a72cffe0dbd5476cd65e8f819e4d2a180142fe0b438cefc2"),
    # run_all memoizes each tally per slice: scales 5..8, then 4, 2, 1, in
    # one interpreter print what a fresh process prints at each scale
    "verify-memo": helper("test_verify.memo_mismatches((5, 6, 7, 8, 4, 2, 1))", 7, 15),
    # every suite through scale 9, its slices shared with a forked helper
    # where a second CPU is free: the reports of one process walking them all
    "verify-9": cli("verify", "suite", "--max-n", "9", timeout=60,
                    out="b4f384e519c38af77b244a771b62d38f8120cb6f19975435d0a881eb1de57097"),
    # the transition walls, in the bytes printed before a node with one
    # child shared its child's terms: 18,495 terms at S_16
    "stanley-s16": cli("stanley", S16, timeout=20,
                       out="aab6689fc9af22576df713691f9e8cae004dcb59dcfcf27cc8019d03355f381f"),
    "rank-class-n18": cli("rank-class", N18, timeout=20,
                          out="380b109f5af2cd1229727a51052f53f8e03dc59d4b000130919970d0d44c0c7f"),
    # past tier-1's n <= 7: the paper's theorem and the mirror relation on
    # the 21,146 rank sets with n = 8, and the mirror at the rank-class walls
    "theorem-8": helper("test_rankset.theorem_mismatches(8)", 21146, 150),
    "mirror-8": helper("test_rankset.mirror_mismatches(every_rank_set(8))", 21146, 120),
    "mirror-n18": helper(f'test_rankset.mirror_mismatches([parse_rank_set("{N18}")])', 1, 30),
    "mirror-n24": helper(f'test_rankset.mirror_mismatches([parse_rank_set("{N24}")])', 1, 100),
    # both Stanley symmetries, each side its own transition tree, and the
    # dominance bounds, past what tier-1 reaches
    "symmetry-s16": helper(f"test_perms.symmetry_mismatches([({S16})])", 1, 180),
    "symmetry-s14": helper(f"test_perms.symmetry_mismatches([({S14})])", 1, 15),
    "symmetry-s15": helper(f"test_perms.symmetry_mismatches([({S15})])", 1, 45),
    "dominance-s14-s16": helper(
        f"test_perms.dominance_mismatches([({S14}), ({S15}), ({S16})])", 3, 40),
    # the transition leaf test on the 362,880 permutations of S_9; each
    # step that is not a leaf gives the children of the retry step
    "leaves-s9": helper("test_perms.leaf_mismatches(9)", 94359, 100),
    # transition against the Edelman-Greene count on S_8, and on 100 uniform
    # permutations of S_11 with 24 inversions
    "tableaux-s8": helper(
        "test_perms.tableau_mismatches(iter_permutations(range(1, 9)))", 40320, 120),
    "tableaux-s11": helper("test_perms.tableau_mismatches(drawn_permutations("
                           "2011, (11,), lambda l, n: l == 24, 100))", 100, 25),
    # the LR walk and both products against the ballot oracle on every
    # triple with |lam| <= 11
    "lr-11": helper(
        "test_partitions.lr_mismatches(11, (walk_coefficient, *product_routes()))", 78144, 20),
    # the product walls: 21,722 terms in Gr(12,24), the bytes of the
    # per-partition ballot count; 2,510 in Gr(10,20), where the cheapest
    # reading is a conjugate one
    "product-gr12": cli("schubert", "mult", "6,6,6,6,6,6", "7,6,5,4,3,2,1", "--gr", "12,24",
                        timeout=20,
                        out="b9dddac26322e23cc2f57487bc53719c36f79f25af1ae6078b50a0f84920b2b7"),
    "product-gr10": cli("schubert", "mult", "7,6,5,4,3,3", "7,5,5,3,2,2,2,1,1,1", "--gr", "10,20",
                        timeout=20,
                        out="d47964735bcc570b50bb328aaf7e03fd94e2c95590ece4346095f8ab18106cb3"),
}


def run(row):
    """passed, wall seconds, peak RSS in MB and the stdout digest of one row."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *row.argv], os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        # poll rather than block, so that the child is not reaped before a kill
        while not (done := os.wait4(pid, os.WNOHANG))[0]:
            if time.perf_counter() - start > row.timeout:
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.01)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read().decode(errors="replace")
    digest = hashlib.sha256(stdout).hexdigest()
    text = stdout.decode(errors="replace")
    code = os.waitstatus_to_exitcode(done[1])
    passed = code == row.code and row.out in (text, digest) and stderr.startswith(row.err)
    if not passed:
        print(f"exit {code}", text[:500], stderr[-2000:], sep="\n", file=sys.stderr)
    return passed, wall, done[2].ru_maxrss / 1024, digest  # ru_maxrss is in KiB on Linux


def main(names):
    if unknown := [name for name in names if name not in ROWS]:
        sys.exit(f"no such rows: {' '.join(unknown)}")
    failed = False
    for name in names or ROWS:
        passed, wall, rss, digest = run(ROWS[name])
        failed |= not passed
        print(json.dumps({"name": name, "passed": passed, "wall_s": round(wall, 3),
                          "peak_rss_mb": round(rss, 1), "digest": digest}), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
