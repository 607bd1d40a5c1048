"""rankcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stanley --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
run times a few bare imports of ``rankcalc.cli`` (set-up), then runs rounds
of the workload's seeded stream, each in a fresh interpreter (``client.py``)
that sends the queries to ``rankcalc.cli.main`` one at a time, for
``--seconds``, then climbs the workload's ladder in one more interpreter.
Outputs are checked afterwards (``checks.py``); on seed 1 they are also
compared byte for byte, by digest, with ``golden/<workload>.json``.  Times
are in reference seconds (``speed.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` two traced rounds of the stream run, and the last line carries
the per-layer metrics.  The line before it is the run record:
seed, git sha, Python version, nproc, load average and every per-run value.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from client import CACHE_TABLES, SPANS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_ROUNDS = 3
TRACE_ROUNDS = 2
STREAM_CAP_S = 90
CHILD_TIMEOUT_S = 90


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def git_sha(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONHOME", None)
    return env


def measure_setup(root: Path) -> list[float]:
    """Reference seconds from starting a fresh interpreter to rankcalc.cli
    imported and the interpreter gone, several times."""
    cmd = [sys.executable, "-c", "import rankcalc.cli"]
    env = child_env(root)
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=60)  # writes bytecode
    samples = []
    for _ in range(SETUP_REPEATS):
        before = min(speed.sample() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, timeout=60)
        raw = time.perf_counter() - t0
        after = min(speed.sample() for _ in range(3))
        samples.append(raw * speed.REFERENCE_S * 2 / (before + after))
    return samples


def run_client(root: Path, job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "client.py")],
        input=json.dumps({"root": str(root), **job}),
        capture_output=True,
        text=True,
        env=child_env(root),
        cwd=root,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"client exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def output_digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def load_golden(workload: str, seed: int) -> dict | None:
    """Query text to output digest, recorded at the seed commit for seed 1."""
    path = HERE / "golden" / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())["sha256"]


def check_all(records, golden, oracle) -> list[dict]:
    """Every failed query with its reason."""
    failures = []
    for rec in records:
        argv = rec["argv"]
        reason = checks.check(argv, rec["rc"], rec["out"], oracle)
        if reason is None and golden is not None:
            want = golden.get(" ".join(argv))
            if want is not None and want != output_digest(rec["rc"], rec["out"]):
                reason = "output differs from the recorded golden output"
        if reason is not None:
            failures.append({"argv": argv, "reason": reason, "err": rec["err"][-500:]})
    return failures


def reach(rungs, ladder) -> int:
    reached = [r["rung"] for r in rungs if r["reached"]]
    return max(reached) if reached else ladder[0][0] - 1


def stream_rounds(root: Path, workload: str, seed: int, seconds: float) -> list[dict]:
    """Rounds of the stream, each in a fresh interpreter with empty memo
    tables and fresh inputs from the same cells, until ``seconds`` have
    passed and at least MIN_ROUNDS are done; no round starts that would
    end past STREAM_CAP_S."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(one_round(root, workloads.stream(workload, seed, len(rounds)), trace=False))
        now = time.perf_counter()
        if now - t0 + (now - start) > STREAM_CAP_S:
            return rounds
        if len(rounds) >= MIN_ROUNDS and now - t0 >= seconds:
            return rounds


def one_round(root: Path, queries, trace: bool) -> dict:
    return run_client(root, {"stream": queries, "ladder": [], "budget_s": 0, "trace": trace})


def scaled(rec: dict, seconds: float) -> float:
    """Raw seconds measured around ``rec`` in reference seconds."""
    return seconds * speed.REFERENCE_S / rec["speed_s"]


def latencies(rounds) -> list[float]:
    """Every query of every round, in reference seconds."""
    return [scaled(q, q["s"]) for r in rounds for q in r["results"]]


def end_to_end(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(root)
    rounds = stream_rounds(root, workload, seed, seconds)
    ladder = workloads.ladder(workload)
    climb = run_client(root, {"stream": [], "ladder": ladder,
                              "budget_s": workloads.RUNG_BUDGET_S.get(workload, 0),
                              "trace": False})
    records = [q for r in rounds for q in r["results"]]
    records += [q for r in climb["rungs"] if r["reached"] for q in r["queries"]]
    failures = check_all(records, load_golden(workload, seed), checks.make_oracle(str(root / "src")))
    pooled = latencies(rounds)
    if ladder:
        top = reach(climb["rungs"], ladder)
    else:  # verify: the stream is its own ladder of suite scales
        failed = {tuple(f["argv"]) for f in failures}
        top = max((int(q["argv"][-1]) for q in records
                   if q["argv"][1] == "suite" and tuple(q["argv"]) not in failed), default=0)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(sum(latencies([r])) for r in rounds), "s"),
        "query_p50_ms": (1000 * percentile(pooled, 0.5), "ms"),
        "query_p90_ms": (1000 * percentile(pooled, 0.9), "ms"),
        "reach": (top, "rung"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }
    record = {
        "setup_samples_s": setup,
        "rounds": [{"wall_s": sum(latencies([r])), "stream_s": r["stream_s"], "rss_kb": r["rss_kb"],
                    "query_s": [q["s"] for q in r["results"]],
                    "speed_s": [q["speed_s"] for q in r["results"]]} for r in rounds],
        "rungs": [{"rung": r["rung"], "reached": r["reached"], "s": r["s"]} for r in climb["rungs"]],
        "rung_budget_s": workloads.RUNG_BUDGET_S.get(workload),
        "attempted": len(records),
        "failures": failures,
        "failed_ratio": len(failures) / len(records),
    }
    return metrics, record


def per_layer(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Counts are totals over TRACE_ROUNDS traced rounds, so they repeat
    exactly for a seed.  ``seconds`` does not apply."""
    traced = [one_round(root, workloads.stream(workload, seed, i), trace=True)
              for i in range(TRACE_ROUNDS)]
    results = [q for r in traced for q in r["results"]]
    failures = check_all(results, load_golden(workload, seed), checks.make_oracle(str(root / "src")))

    def busy(r, name=None):
        return sum(scaled(q, sum(v for k, v in q["busy_s"].items() if name in (None, k)))
                   for q in r["results"])

    metrics = {}
    for _attr, name in SPANS:
        metrics[f"{name}.busy_s"] = (sum(busy(r, name) for r in traced), "s")
    overhead = sum(latencies(traced)) - sum(busy(r) for r in traced)
    metrics["cli.overhead_ms"] = (1000 * overhead / len(results), "ms")

    totals = {name: [0, 0] for name, _m, _a in CACHE_TABLES}
    for r in results:
        for name, (hits, misses, _size) in r["cache"].items():
            totals[name][0] += hits
            totals[name][1] += misses
    for name, (hits, misses) in totals.items():
        metrics[f"{name}.cache_misses"] = (misses, "count")
        metrics[f"{name}.cache_hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    metrics["partitions.all_partitions.cached_entries"] = (
        max(r["cache_final"]["partitions.all_partitions"][2] for r in traced), "count")

    def waste(command, table):
        """Computations in ``table`` per term of the printed classes."""
        work = terms = 0
        for r in results:
            if r["argv"][:len(command)] == command and r["rc"] == 0:
                work += r["cache"][table][1]
                line = r["out"].strip().split("\n")[-2 if command == ["rank-class"] else -1]
                terms += len(checks.parse_class(line.removeprefix("class = "))[0])
        return work / max(1, terms)

    metrics["rankset.rank_class.factorizations_per_term"] = (
        waste(["rank-class"], "perms.factorization_count"), "ratio")
    metrics["grassmann.class_product.lr_evals_per_term"] = (
        waste(["schubert", "mult"], "partitions.lr_coefficient"), "ratio")
    # Traced query time over the same time less what the wrappers add: each
    # wrapped call costs the wrapper's time, measured on a no-op.
    raw = sum(q["s"] for q in results)
    wrappers = sum(r["wrapper_s"] * sum(r["span_calls"].values()) for r in traced)
    metrics["trace.overhead_ratio"] = (raw / (raw - wrappers), "ratio")

    record = {
        "traced_rounds_s": [r["stream_s"] for r in traced],
        "wrapper_s": [r["wrapper_s"] for r in traced],
        "span_calls": [r["span_calls"] for r in traced],
        "query_s": latencies(traced),
        "attempted": len(results),
        "failures": failures,
        "failed_ratio": len(failures) / len(results),
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rankcalc" / "cli.py").is_file():
        print(f"no rankcalc sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    started = time.time()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, record = measure(root, args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:48s} {value:14.6g} {unit}")
    for failure in record["failures"]:
        print(f"FAILED {failure['argv']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({"record": {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
        "started_unix": started,
        "elapsed_s": time.time() - started,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
        **record,
    }}))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
