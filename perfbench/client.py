"""The benchmark's client: one fresh interpreter, one query at a time.

Reads a job from stdin as JSON::

    {"root": ..., "stream": [argv, ...], "ladder": [[rung, [argv, ...]], ...],
     "budget_s": float, "trace": bool}

imports ``rankcalc.cli`` from ``<root>/src``, sends every stream query to
``rankcalc.cli.main(argv)`` in order (closed loop, no threads), then climbs
the ladder with a budget in reference seconds per rung (``speed.Probe``),
and writes one JSON object with every output and timing to stdout.  Each
stream query carries the reference loop's speed around it (``speed.py``);
the reference samples that fire inside a query are taken out of its time,
and out of the traced spans.  Memo tables start empty and fill as the run
goes.  Nothing is checked here; the parent checks outputs afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from itertools import repeat

import speed

# The memo tables whose cache_info() the traced run reports.
CACHE_TABLES = (
    ("perms.factorization_count", "perms", "_factorization_count"),
    ("perms.length", "perms", "_length"),
    ("symfunc.kostka", "symfunc", "kostka"),
    ("symfunc.schur_monomial_row", "symfunc", "_schur_monomial_row"),
    ("partitions.lr_coefficient", "partitions", "lr_coefficient"),
    ("partitions.mn_character", "partitions", "mn_character"),
    ("partitions.syt_count", "partitions", "syt_count"),
    ("partitions.all_partitions", "partitions", "all_partitions"),
)

# Public calls the CLI handlers make, by the name rankcalc.cli binds them to,
# with the span name each is reported under.
SPANS = (
    ("stanley", "perms.stanley"),
    ("w_of_rank_set", "rankset.w_of_rank_set"),
    ("phi", "grassmann.phi"),
    ("class_degree", "grassmann.class_degree"),
    ("class_product", "grassmann.class_product"),
    ("specht_schur", "diagrams.specht_schur"),
    ("run_all", "verify.run_all"),
    ("replay_counterexample", "verify.replay_counterexample"),
)


def _timed(fn, name, busy: dict, calls: dict, probe):
    """``fn`` with its time, less the reference samples taken meanwhile,
    added to ``busy[name]``, and its calls counted in ``calls[name]``."""

    def timed(*args, **kwargs):
        spent = probe.spent_s
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            busy[name] = busy.get(name, 0.0) + t1 - t0 - (probe.spent_s - spent)
            calls[name] = calls.get(name, 0) + 1

    return timed


def _install_spans(cli, busy: dict, calls: dict, probe) -> None:
    """Rebind each public call in the cli namespace to a timing wrapper.

    Only calls made by the cli handlers go through the wrappers; library
    functions call each other through their own module references, so the
    busy times never overlap."""
    for attr, name in SPANS:
        setattr(cli, attr, _timed(getattr(cli, attr), name, busy, calls, probe))


def _wrapper_cost_s(probe, n: int = 20000) -> float:
    """Seconds a timing wrapper adds to one call: a wrapped no-op against
    the bare one, the least of five tries."""

    def noop():
        return None

    timed = _timed(noop, "noop", {}, {}, probe)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in repeat(None, n):
            noop()
        t1 = time.perf_counter()
        for _ in repeat(None, n):
            timed()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def _cache_snapshot(modules) -> dict:
    out = {}
    for name, mod, attr in CACHE_TABLES:
        info = getattr(modules[mod], attr).cache_info()
        out[name] = [info.hits, info.misses, info.currsize]
    return out


def _call(main, argv, probe=None):
    """Run one query; its time leaves out the reference samples of ``probe``."""
    out, err = io.StringIO(), io.StringIO()
    spent = probe.spent_s if probe else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a crash is a failed query, recorded with its traceback
        rc = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    sampling = (probe.spent_s if probe else 0.0) - spent
    return {"argv": argv, "rc": rc, "out": out.getvalue(), "err": err.getvalue(),
            "s": t1 - t0 - sampling, "t0": t0, "t1": t1}


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import rankcalc.cli as cli
    from rankcalc import partitions, perms, symfunc

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"rankcalc imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = {"partitions": partitions, "perms": perms, "symfunc": symfunc}

    trace = job["trace"]
    busy: dict = {}
    calls: dict = {}
    probe = speed.Probe()
    if trace:
        _install_spans(cli, busy, calls, probe)

    results = []
    stream_t0 = time.perf_counter()
    with probe:
        for argv in job["stream"]:
            before = _cache_snapshot(modules) if trace else None
            busy_before = dict(busy)
            rec = _call(cli.main, argv, probe)
            if trace:
                after = _cache_snapshot(modules)
                rec["cache"] = {k: [a - b for a, b in zip(after[k], before[k])] for k in after}
                rec["busy_s"] = {k: v - busy_before.get(k, 0.0) for k, v in busy.items()}
            probe.take()
            results.append(rec)
    for rec in results:
        rec["speed_s"] = probe.speed_over(rec.pop("t0"), rec.pop("t1"))
    stream_s = time.perf_counter() - stream_t0
    wrapper_s = _wrapper_cost_s(probe) if trace else 0.0

    rungs = []
    for rung, queries in job["ladder"]:
        done = []
        rung_probe = speed.Probe(budget_s=job["budget_s"])
        try:
            with rung_probe:
                for argv in queries:
                    done.append(_call(cli.main, argv, rung_probe))
        except speed.OverBudget:
            rungs.append({"rung": rung, "reached": False, "s": rung_probe.reference_s()})
            break
        rungs.append({"rung": rung, "reached": True, "s": rung_probe.reference_s(),
                      "queries": done})

    final = _cache_snapshot(modules)
    json.dump(
        {
            "stream_s": stream_s,
            "results": results,
            "rungs": rungs,
            "busy_s": busy,
            "span_calls": calls,
            "wrapper_s": wrapper_s,
            "cache_final": final,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
