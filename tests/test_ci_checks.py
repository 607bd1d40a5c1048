"""The table of CI checks: the workflow names each row once, and a row fails
on a wrong digest, a wrong count or its timeout."""
import hashlib
import json
from pathlib import Path

import ci_checks

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_the_workflow_names_every_row_once():
    # read as text, its line continuations joined: no YAML library is needed
    lines = WORKFLOW.read_text().replace("\\\n", " ").splitlines()
    commands = [line for line in lines if not line.lstrip().startswith("#")]
    names = [name for line in commands for name in line.partition("ci_checks.py ")[2].split()]
    assert sorted(names) == sorted(ci_checks.ROWS)


def test_a_row_fails_on_a_planted_digest(capsys, monkeypatch):
    assert ci_checks.main(["stanley-json"]) == 0
    line = json.loads(capsys.readouterr().out)
    assert list(line) == ["name", "passed", "wall_s", "peak_rss_mb", "digest"]
    assert line["passed"] and line["peak_rss_mb"] > 0
    assert line["digest"] == hashlib.sha256(ci_checks.STANLEY_JSON.encode()).hexdigest()
    planted = ci_checks.ROWS["stanley-json"]._replace(out="0" * 64)
    monkeypatch.setitem(ci_checks.ROWS, "stanley-json", planted)
    assert ci_checks.main(["stanley-json"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_a_helper_row_fails_on_a_wrong_count(capsys, monkeypatch):
    # the child exits 0 and finds the 4 rank sets with n <= 2 and no
    # mismatch, where 5 are expected
    row = ci_checks.helper("test_rankset.mirror_mismatches(every_rank_set(2))", 5, 60)
    monkeypatch.setitem(ci_checks.ROWS, "mirror-2", row)
    assert ci_checks.main(["mirror-2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["passed"] is False
    assert err.startswith("exit 0\n4 []\n")


def test_a_row_is_killed_at_its_timeout(capsys, monkeypatch):
    row = ci_checks.ROWS["stanley-s16"]._replace(timeout=0.1)
    monkeypatch.setitem(ci_checks.ROWS, "stanley-s16", row)
    assert ci_checks.main(["stanley-s16"]) == 1
    out, err = capsys.readouterr()
    line = json.loads(out)
    assert not line["passed"] and line["wall_s"] < 1
    assert err.startswith("exit -9\n")
