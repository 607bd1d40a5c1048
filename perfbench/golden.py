"""Record the outputs of the default seed, for the byte-for-byte comparison.

    python3 perfbench/golden.py [workload ...]

Run from the root of a checkout at the commit whose outputs are the
reference.  Writes ``perfbench/golden/<workload>.json`` with a SHA-256 of
the exit code and stdout of every query in the first MIN_ROUNDS rounds of
the stream (the rounds every run makes) and of every ladder rung that
finishes within its budget.  Every output is checked before it is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SEED, MIN_ROUNDS, output_digest, run_client  # noqa: E402


def record(root: Path, workload: str) -> dict:
    queries = []
    for i in range(MIN_ROUNDS):
        out = run_client(root, {"stream": workloads.stream(workload, DEFAULT_SEED, i),
                                "ladder": [], "budget_s": 0, "trace": False})
        queries += out["results"]
    out = run_client(root, {"stream": [], "ladder": workloads.ladder(workload),
                            "budget_s": workloads.RUNG_BUDGET_S.get(workload, 0),
                            "trace": False})
    queries += [q for r in out["rungs"] if r["reached"] for q in r["queries"]]
    oracle = checks.make_oracle(str(root / "src"))
    for q in queries:
        reason = checks.check(q["argv"], q["rc"], q["out"], oracle)
        if reason is not None:
            raise SystemExit(f"not recording a failing output: {q['argv']}: {reason}")
    digests = {" ".join(q["argv"]): output_digest(q["rc"], q["out"]) for q in queries}
    return {"seed": DEFAULT_SEED, "sha256": dict(sorted(digests.items()))}


def main(argv: list[str]) -> int:
    root = Path.cwd()
    (HERE / "golden").mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        data = record(root, workload)
        path = HERE / "golden" / f"{workload}.json"
        path.write_text(json.dumps(data, indent=0) + "\n")
        print(f"{path}: {len(data['sha256'])} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
