"""Replay the recorded perfbench outputs in-process, byte for byte.

``perfbench/golden/<workload>.json`` maps each query, its argv joined by
spaces, to the SHA-256 of ``f"{exit code}\\n{stdout}"`` as recorded from the
seed-1 stream and ladder.  Any change to a CLI output fails here, the
``verify`` workload's four reports (the paper replay and the suites at
``--max-n`` 5, 6 and 7) included.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rankcalc.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


@pytest.mark.parametrize(
    "workload", ["stanley", "rank-class", "schubert-specht", "verify"]
)
def test_golden_outputs_replay_unchanged(capsys, workload):
    digests = json.loads((GOLDEN / f"{workload}.json").read_text())["sha256"]
    assert digests
    changed = []
    for query, digest in digests.items():
        rc = main(query.split(" "))
        out = capsys.readouterr().out
        if hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest() != digest:
            changed.append(query)
    assert not changed, f"{len(changed)} of {len(digests)} outputs changed: {changed[:5]}"
