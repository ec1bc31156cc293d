"""Compile-then-scan benchmark: set-up, scan, correctness, per-layer split.

Run from the repository root::

    python3 scanbench/run.py --workload regexlib_stream --seed 1 --seconds 35 --trace 0
    python3 scanbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` times set-up and scanning through ``PatternSet`` with all
instrumentation off and prints the end-to-end metrics; ``--trace 1``
alternates timed and traced repetitions and prints the per-layer
metrics plus the tracing overhead.  Both check every operation's events
against the reference (``reference.py``).  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "scan_mbps": "MB/s",
    "record_p50_us": "us",
    "record_p99_us": "us",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer a workload
#: never runs reads 0.
PER_LAYER = {
    "rulesets.import_s": "s",
    "pipeline.compile_s": "s",
    "parser.parse_s": "s",
    "rewrite.rewrite_s": "s",
    "translate.translate_s": "s",
    "reduce.reduce_s": "s",
    "anchors.anchor_s": "s",
    "pipeline.scan_nfa_s": "s",
    "pipeline.scan_nfa_states": "count",
    "fused.fuse_s": "s",
    "fused.states": "count",
    "fused.init_s": "s",
    "fused.prefilter_skipped_share": "ratio",
    "fused.prefilter_armed_share": "ratio",
    "fused.table_step_share": "ratio",
    "fused.table_s": "s",
    "fused.table_states": "count",
    "fused.table_bytes": "bytes",
    "fused.table_fallback_mb": "MB",
    "fused.lru_hit_ratio": "ratio",
    "fused.lru_bytes": "bytes",
    "fused.bitset_steps": "count",
    "fused.bitset_s": "s",
    "fused.bitset_ns_per_step": "ns",
    "fused.finish_s": "s",
    "engine.wrap_us": "us",
    "sharded.start_s": "s",
    "sharded.feed_s": "s",
    "sharded.busy_share": "ratio",
    "sharded.round_trips": "count",
    "sharded.bytes_out": "bytes",
    "sharded.restarts": "count",
    "trace.setup_overhead_s": "s",
    "trace.scan_overhead_s": "s",
}

#: Timed repetitions per run at least, each a cold set-up and a scan.
MIN_REPS = 3


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    without it, so a directory holding only the benchmark fails."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"scanbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# -- provenance ------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _source_sha256() -> str:
    """One digest over the program and benchmark sources, so a result
    names its code even where there is no git checkout."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def probe_s() -> float:
    """A fixed allocation-heavy loop: the host's speed at this moment."""
    started = perf_counter()
    junk = [{"key": i, "value": [i] * 4} for i in range(200_000)]
    junk.sort(key=lambda item: -item["key"])
    del junk
    return perf_counter() - started


def provenance(seed: int, inputs) -> Dict[str, Any]:
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": revision.strip() if revision else None,
        "dirty": None if status is None else bool(status.strip()),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_avg_before": os.getloadavg(),
        "seed": seed,
        "inputs": inputs.digests(),
    }


# -- statistics --------------------------------------------------------------


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# -- the two kinds of run ----------------------------------------------------


def timed_run(inputs, expected: List[str], seconds: float) -> Dict[str, Any]:
    import measure

    fastest = measure.FastestTimes(inputs.operations)
    reps: List[Dict[str, Any]] = []
    deadline = perf_counter() + seconds
    # Another repetition starts only if one like the last ends in time.
    while len(reps) < MIN_REPS or (
        perf_counter() + reps[-1]["setup_s"] + reps[-1]["scan_s"] <= deadline
    ):
        reps.append(measure.in_child(measure.timed_rep, inputs, expected, fastest))
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    # Each operation's time is its fastest over the run's repetitions.
    # The host's speed swings by a third and more in phases of 10 s to a
    # minute, so a median lands in whichever phase held most of a run,
    # while an operation's fastest time is the one its neighbours
    # disturbed least.  A fresh scanner in a fresh fork does the same
    # work in the same order every time, so a cost the program pays on
    # every repetition, collection pauses included, stays in the
    # fastest time too.
    op_s = fastest.values.tolist()
    calls = op_s if inputs.spec.kind == "records" else op_s[:-1]
    # Linear interpolation between order statistics: on a stream's 64
    # calls p99 leans on the slowest call without being only that call.
    p99 = (
        statistics.quantiles(calls, n=100, method="inclusive")[98]
        if len(calls) > 1
        else calls[0]
    )
    beyond = sum(1 for x in calls if x > p99)
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "scan_mbps": inputs.scan_bytes / sum(op_s) / 1e6,
        "record_p50_us": statistics.median(calls) * 1e6,
        "record_p99_us": p99 * 1e6,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    op = "scan()" if inputs.spec.kind == "records" else "64 KiB feed()"
    per_op = f"{len(calls)} {op} calls, each the fastest of {len(reps)} repetitions"
    notes = {
        "setup_s": f"median of {len(reps)} cold set-ups",
        "scan_mbps": f"{inputs.scan_bytes} bytes over the summed per-call times",
        "record_p50_us": per_op,
        "record_p99_us": f"{per_op}, {beyond} beyond",
        "peak_rss_mb": "median growth over set-up plus scan, workers included",
    }
    return {
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "errors": sum(rep["errors"] for rep in reps),
        "metrics": {k: _metric(v, END_TO_END[k]) for k, v in values.items()},
        "notes": notes,
    }


def traced_run(inputs, expected: List[str], seconds: float) -> Dict[str, Any]:
    import measure

    pairs = []
    diverged = 0
    started = perf_counter()
    while not pairs or perf_counter() - started < seconds:
        plain = measure.in_child(measure.timed_rep, inputs, expected)
        traced = measure.in_child(measure.traced_rep, inputs, expected)
        diverged += traced["stream_digest"] != plain["stream_digest"]
        pairs.append((plain, traced))
    attempted = sum(p["attempted"] + t["attempted"] for p, t in pairs)
    failed = sum(p["failed"] + t["failed"] for p, t in pairs)
    values = {
        name: float(statistics.median(t["layers"].get(name, 0.0) for _p, t in pairs))
        for name in PER_LAYER
        if not name.startswith("trace.")
    }
    values["trace.setup_overhead_s"] = statistics.median(
        t["setup_s"] - p["setup_s"] for p, t in pairs
    )
    values["trace.scan_overhead_s"] = statistics.median(
        t["scan_s"] - p["scan_s"] for p, t in pairs
    )
    return {
        "reps": len(pairs),
        "attempted": attempted,
        "failed": failed,
        "errors": sum(p["errors"] for p, _t in pairs),
        "diverged": diverged,
        "metrics": {k: _metric(v, PER_LAYER[k]) for k, v in values.items()},
        "notes": {},
    }


# -- entry point -------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    import measure
    import reference
    import workloads

    # Generating inputs (or loading them from the cache), the reference
    # and the probe all run in children: this process's heap, which every
    # repetition inherits, then looks the same on every run.
    inputs = measure.in_child(workloads.build, name, seed)
    expected = measure.in_child(reference.expected_digests, inputs)
    prov = provenance(seed, inputs)
    prov["probe_s"] = measure.in_child(probe_s)
    # The inputs and the reference leave the collector's view: a set-up
    # or scan then collects only the program's own objects, not the
    # benchmark's hundred thousand records and digests.
    gc.collect()
    gc.freeze()
    run = (traced_run if trace else timed_run)(inputs, expected, seconds)
    prov["load_avg_after"] = os.getloadavg()
    spec = inputs.spec
    print(f"workload {name}  engine {spec.engine}  seed {seed}  trace {trace}  "
          f"repetitions {run['reps']}")
    for metric, body in run["metrics"].items():
        note = run["notes"].get(metric, "")
        print(f"  {metric:<30} {body['value']:>14.6g} {body['unit']:<6} {note}")
    share = run["failed"] / run["attempted"]
    print(f"  {'failed_share':<30} {share:>14.6g} {'ratio':<6} "
          f"{run['failed']} of {run['attempted']} operations "
          f"({run['errors']} raised)")
    if trace:
        print(f"  traced events differ from untraced in {run['diverged']} of "
              f"{run['reps']} repetitions")
    print("provenance " + json.dumps(prov, sort_keys=True))
    return {
        "correct": run["failed"] == 0 and run.get("diverged", 0) == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }


def run_all(seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Every workload, each in its own process (peak memory is per
    process); prints each report and returns the combined result."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.SPECS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"scanbench: workload {name} failed")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, body in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    return combined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.workload in workloads.SPECS:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.SPECS)} or all")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
