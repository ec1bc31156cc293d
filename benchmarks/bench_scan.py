#!/usr/bin/env python
"""Emit the fused-scan perf record (``BENCH_scan.json``).

Times the fused multi-pattern engine against the per-pattern engines on
a pattern-count × input-size grid over one workload profile, and writes
a machine-readable JSON record to track the scan-performance trajectory
across PRs.  The headline figure is the fused speedup over the
per-pattern ``nfa`` loop at the largest pattern count (16 by default).

Usage::

    PYTHONPATH=src python benchmarks/bench_scan.py                 # full grid
    PYTHONPATH=src python benchmarks/bench_scan.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/bench_scan.py --check 2.0     # enforce

``--check X`` exits non-zero unless the headline speedup is at least X
(the tracked regression bound is 2x; the measured margin is far larger).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.matching import ENGINES  # noqa: E402
from repro.matching.bench import (  # noqa: E402
    bench_compile_cache,
    bench_grid,
    bench_reduction,
    bench_workloads,
    format_grid,
    write_record,
)
from repro.workloads import DATASET_NAMES  # noqa: E402

DEFAULT_OUT = "BENCH_scan.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--profile", default="RegexLib", choices=DATASET_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--engines", default="all",
        help="comma-separated engine list (default: all five)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid / fewer repeats for CI smoke runs",
    )
    parser.add_argument(
        "--shards", default="1,2,4",
        help="comma-separated worker counts for the shard-scaling grid "
             "(measured on the largest cell; empty string disables)",
    )
    parser.add_argument(
        "--check", type=float, default=None, metavar="FACTOR",
        help="fail unless the headline fused speedup is >= FACTOR",
    )
    parser.add_argument(
        "--recovery", action="store_true",
        help="add the supervised-recovery latency cell (clean sharded "
             "scan vs one with a mid-stream worker kill)",
    )
    parser.add_argument(
        "--match-rates", default="0.0,0.01,0.5", dest="match_rates",
        help="comma-separated plant rates for the fused-tier match-rate "
             "axis (measured at the largest pattern count; empty string "
             "disables)",
    )
    parser.add_argument(
        "--check-table", type=float, default=None, metavar="FACTOR",
        dest="check_table",
        help="fail unless the table-vs-bitset speedup at the lowest "
             "match rate is >= FACTOR",
    )
    parser.add_argument(
        "--check-prefilter", type=float, default=None, metavar="FACTOR",
        dest="check_prefilter",
        help="fail unless the prefilter-vs-bitset speedup at the 0%% "
             "match-rate cell is >= FACTOR",
    )
    parser.add_argument(
        "--compile-patterns", type=int, default=64, dest="compile_patterns",
        help="ruleset size for the cold/warm compile-cache cell "
             "(0 disables the cell)",
    )
    parser.add_argument(
        "--check-compile", type=float, default=None, metavar="FACTOR",
        dest="check_compile",
        help="fail unless the warm-cache compile speedup is >= FACTOR",
    )
    parser.add_argument(
        "--workload-records", type=int, default=512, dest="workload_records",
        help="records per anchored-workload cell (log_scan/ids/pii "
             "per-record scans; 0 disables the section)",
    )
    parser.add_argument(
        "--check-workload-prefilter", type=float, default=None,
        metavar="FACTOR", dest="check_workload_prefilter",
        help="fail unless the prefilter-vs-bitset speedup on the ids "
             "workload's 0%% match-rate cell is >= FACTOR",
    )
    parser.add_argument(
        "--reduction-patterns", type=int, default=64,
        dest="reduction_patterns",
        help="ruleset size for the reduced-vs-unreduced reduction cell "
             "(0 disables the cell)",
    )
    parser.add_argument(
        "--check-reduction", type=float, default=None, metavar="FRACTION",
        dest="check_reduction",
        help="fail unless the fused state-count reduction is >= FRACTION "
             "(e.g. 0.10 for 10%%)",
    )
    args = parser.parse_args(argv)

    engines = (
        list(ENGINES)
        if args.engines == "all"
        else [e.strip() for e in args.engines.split(",") if e.strip()]
    )
    if args.quick:
        pattern_counts = (4, 16)
        input_sizes = (4096,)
        repeats = 1
    else:
        pattern_counts = (1, 4, 16)
        input_sizes = (4096, 16384)
        repeats = args.repeats

    shard_counts = tuple(
        int(s) for s in args.shards.split(",") if s.strip()
    )
    match_rates = tuple(
        float(s) for s in args.match_rates.split(",") if s.strip()
    )
    record = bench_grid(
        profile_name=args.profile,
        pattern_counts=pattern_counts,
        input_sizes=input_sizes,
        engines=engines,
        repeats=repeats,
        seed=args.seed,
        shard_counts=shard_counts or None,
        match_rates=match_rates or None,
        recovery=args.recovery,
    )
    if args.compile_patterns:
        record["compile_cache"] = bench_compile_cache(
            profile_name=args.profile,
            num_patterns=args.compile_patterns,
            repeats=repeats,
            seed=args.seed,
        )
    if args.workload_records:
        record["workloads"] = bench_workloads(
            num_records=(
                min(args.workload_records, 128)
                if args.quick
                else args.workload_records
            ),
            # A quick cell lasts a few milliseconds: timed once, host
            # noise alone moves --check-workload-prefilter across 1.0.
            repeats=max(repeats, 3),
            seed=args.seed,
        )
    if args.reduction_patterns:
        record["reduction"] = bench_reduction(
            profile_name=args.profile,
            num_patterns=args.reduction_patterns,
            repeats=repeats,
            seed=args.seed,
        )
    print(format_grid(record))
    write_record(record, args.out)
    print(f"wrote {args.out}")

    headline = record.get("fused_speedup_max_patterns")
    if headline is not None:
        print(
            f"headline: fused is {headline:.2f}x the per-pattern "
            f"{record['baseline_engine']} loop at "
            f"{max(pattern_counts)} patterns"
        )
    if args.check is not None:
        if headline is None or headline < args.check:
            print(
                f"FAIL: headline speedup {headline} below --check {args.check}",
                file=sys.stderr,
            )
            return 1
    table_speedup = record.get("table_speedup_low_match")
    prefilter_speedup = record.get("prefilter_speedup_zero_match")
    if table_speedup is not None:
        print(
            f"tiers: table-driven fused is {table_speedup:.2f}x bitset "
            f"fused at the lowest match rate; prefiltered scan is "
            f"{prefilter_speedup or 0:.2f}x at 0% match rate"
        )
    if args.check_table is not None:
        if table_speedup is None or table_speedup < args.check_table:
            print(
                f"FAIL: table speedup {table_speedup} below "
                f"--check-table {args.check_table}",
                file=sys.stderr,
            )
            return 1
    if args.check_prefilter is not None:
        if prefilter_speedup is None or prefilter_speedup < args.check_prefilter:
            print(
                f"FAIL: prefilter speedup {prefilter_speedup} below "
                f"--check-prefilter {args.check_prefilter}",
                file=sys.stderr,
            )
            return 1
    reduction_cell = record.get("reduction")
    if reduction_cell is not None:
        print(
            f"reduction: {reduction_cell['state_reduction']:.1%} fewer "
            f"fused states at level {reduction_cell['reduce_level']} "
            f"({reduction_cell['unreduced']['fused_states']} -> "
            f"{reduction_cell['reduced']['fused_states']})"
        )
    if args.check_reduction is not None:
        shrink = (reduction_cell or {}).get("state_reduction")
        if shrink is None or shrink < args.check_reduction:
            print(
                f"FAIL: state reduction {shrink} below "
                f"--check-reduction {args.check_reduction}",
                file=sys.stderr,
            )
            return 1
    workload_cells = record.get("workloads") or []
    for cell in workload_cells:
        if cell["match_rate"] == 0.0:
            print(
                f"workload {cell['workload']}: table "
                f"{cell.get('table_speedup', 0):.2f}x / prefilter "
                f"{cell.get('prefilter_speedup', 0):.2f}x bitset at "
                f"0% record match rate"
            )
    if args.check_workload_prefilter is not None:
        ids_zero = next(
            (
                c for c in workload_cells
                if c["workload"] == "ids" and c["match_rate"] == 0.0
            ),
            None,
        )
        speedup = (ids_zero or {}).get("prefilter_speedup")
        if speedup is None or speedup < args.check_workload_prefilter:
            print(
                f"FAIL: ids workload prefilter speedup {speedup} below "
                f"--check-workload-prefilter {args.check_workload_prefilter}",
                file=sys.stderr,
            )
            return 1
    compile_cell = record.get("compile_cache")
    if compile_cell is not None:
        print(
            f"compile cache: warm recompile of "
            f"{compile_cell['num_patterns']} patterns is "
            f"{compile_cell.get('warm_speedup', 0):.1f}x faster than cold"
        )
    if args.check_compile is not None:
        warm = (compile_cell or {}).get("warm_speedup")
        if warm is None or warm < args.check_compile:
            print(
                f"FAIL: warm compile speedup {warm} below "
                f"--check-compile {args.check_compile}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
