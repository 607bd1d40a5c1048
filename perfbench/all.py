"""Every workload, one table.

    python3 perfbench/all.py [--seeds 1,2,3] [--trace 0|1|both] [--out FILE]

Runs ``run.py`` once per workload, seed and mode, from the root of a
checkout, and prints every metric by workload and name with its unit: the
median over the seeds, and the spread (interquartile range over median)
when there are four seeds or more.  ``--out`` saves every run record
without its per-query values: each run's metrics, rounds, rungs and failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def summary(record: dict) -> dict:
    """The run record without its per-query lists."""
    out = {k: v for k, v in record.items() if k != "query_s"}
    if "rounds" in out:
        out["rounds"] = [{k: v for k, v in r.items() if k not in ("query_s", "speed_s")}
                         for r in out["rounds"]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = ("0", "1") if args.trace == "both" else (args.trace,)

    records, status = [], 0
    for mode in modes:
        for workload in workloads.WORKLOADS:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            failed = attempted = 0
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--trace", mode],
                    capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    status = 1
                    continue
                lines = proc.stdout.strip().split("\n")
                result = json.loads(lines[-1])
                records.append(summary(json.loads(lines[-2])["record"]))
                failed += result["failed"]
                attempted += result["attempted"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            print(f"# {workload}, trace {mode}: {len(seeds)} seeds, "
                  f"failed {failed} of {attempted}")
            for name, vals in values.items():
                median = statistics.median(vals)
                spread = ""
                if len(vals) >= 4 and median:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    spread = f"  spread {(q3 - q1) / median:.3f}"
                print(f"{workload:16s} {name:48s} {median:14.6g} {units[name]}{spread}")
            if failed:
                status = 1
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
