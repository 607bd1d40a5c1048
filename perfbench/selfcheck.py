"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  Checks that the same seed gives the same
query list (by hash) and another seed a different one, that real outputs of
small queries pass every output check, and that a corrupted copy of each
output trips its check, the golden comparison included.  Prints one line per
check and exits 1 if any of them fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import check_all, output_digest  # noqa: E402


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def run_cli(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


# (query, corruptions): each corruption maps the real stdout to a wrong one.
CASES = [
    (["stanley", "2143"], [
        lambda o: o.replace("1*s[2]", "2*s[2]"),
        lambda o: o.replace("1*s[2]", "1*s[3]"),
        lambda o: "-" + o,
    ]),
    (["rank-class", "[1,3],[3,6],[4,5];n=6"], [
        lambda o: o.replace("degree = ", "degree = 1"),
        lambda o: o.replace("w_M = 13265478", "w_M = 12365478"),
        lambda o: o.replace("@Gr(3,6)", "@Gr(2,6)"),
    ]),
    (["schubert", "mult", "1", "2,1", "--gr", "3,6"], [
        lambda o: o.replace("1*o[2,2]", "2*o[2,2]"),
        lambda o: o.replace(" + 1*o[3,1]", ""),
    ]),
    (["schubert", "degree", "2,2", "--gr", "4,8"], [
        lambda o: o.replace("2640", "2641"),
    ]),
    (["diagram-specht", "(1,1),(2,2),(3,3)"], [
        lambda o: o.replace("2*s[2,1]", "1*s[2,1]"),
    ]),
    (["diagram-specht", "(1,2),(1,3),(1,4),(2,1),(2,2),(2,3),(3,1)"], [
        lambda o: o.replace("1*", "2*", 1),
    ]),
    (["diagram-specht", "(1,1),(1,2),(2,1),(3,4),(3,5),(4,4),(4,5)", "--family", "product"], [
        lambda o: o.replace("1*", "3*", 1),
    ]),
    (["diagram-specht", "(1,2),(1,3),(1,4),(2,1),(2,2),(2,3),(2,4);box=2x4",
      "--family", "dual"], [
        lambda o: o.replace("1*", "2*", 1),
    ]),
    (["verify", "paper"], [
        lambda o: o.replace("PASS", "FAIL", 1),
        lambda o: o.split("\n", 1)[1],
    ]),
]


def main() -> int:
    results = []

    def report(name, ok):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}")

    for w in workloads.WORKLOADS:
        report(f"{w}: same seed, same query list",
               digest(workloads.stream(w, 7)) == digest(workloads.stream(w, 7)))
        if w != "verify":
            report(f"{w}: another seed, another query list",
                   digest(workloads.stream(w, 7)) != digest(workloads.stream(w, 8)))
        report(f"{w}: the ladder is the same on every call",
               digest(workloads.ladder(w)) == digest(workloads.ladder(w)))

    src = str(Path.cwd() / "src")
    sys.path.insert(0, src)
    from rankcalc.cli import main as cli_main

    oracle = checks.make_oracle(src)
    for argv, corruptions in CASES:
        rc, out = run_cli(cli_main, argv)
        report(f"{' '.join(argv)}: real output passes", checks.check(argv, rc, out, oracle) is None)
        for i, corrupt in enumerate(corruptions):
            bad = corrupt(out)
            report(f"{' '.join(argv)}: corruption {i + 1} is caught",
                   bad != out and checks.check(argv, rc, bad, oracle) is not None)
        report(f"{' '.join(argv)}: nonzero exit is caught",
               checks.check(argv, 1, out, oracle) is not None)
        record = {"argv": argv, "rc": rc, "out": out + " ", "err": ""}
        golden = {" ".join(argv): output_digest(rc, out)}
        report(f"{' '.join(argv)}: a byte off the golden output is caught",
               bool(check_all([record], golden, oracle)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
