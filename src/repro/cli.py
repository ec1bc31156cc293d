"""Command-line interface: compile, scan, simulate, trace, and generate.

Usage::

    python -m repro.cli compile  PATTERNS... -o config.json
    python -m repro.cli scan     PATTERNS... -i input.bin
    python -m repro.cli profile  PATTERNS... -i input.bin --profile-out p.json
    python -m repro.cli simulate PATTERNS... -i input.bin --arch BVAP
    python -m repro.cli trace    PATTERNS... -i input.bin --trace-out t.json
    python -m repro.cli dataset  Snort -n 20

``PATTERNS...`` are PCRE-subset regexes, or ``@file`` to read one pattern
per line from a file.

Every verb accepts ``--trace-out`` / ``--metrics-out`` (with
``--metrics-format json|prometheus``) to capture the telemetry of the
run, ``--serve-metrics PORT`` for a live ``/metrics`` endpoint,
``--flight-dir DIR`` to arm the flight recorder (failures leave a JSON
postmortem), ``--seed`` for reproducible randomness, and ``-v`` for
debug logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import random
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from . import telemetry
from .telemetry import flight as flight_recorder
from .telemetry import profiler as scan_profiler
from .compiler import (
    DEFAULT_REDUCE_LEVEL,
    REDUCE_LEVELS,
    CompilerOptions,
    compile_ruleset,
    dump_config,
)
from .hardware.report import SimulationReport
from .hardware.simulator import (
    BaselineSimulator,
    BVAPSimulator,
    compile_baseline,
)
from .hardware.specs import CA_SPEC, CAMA_SPEC, EAP_SPEC
from .matching import DEFAULT_TABLE_STATES, ENGINES, PatternSet
from .resilience import (
    Budget,
    ChaosSpec,
    FaultSpec,
    ReproError,
    RestartPolicy,
    format_chaos_report,
    format_report,
    run_campaign,
    run_chaos,
)
from .telemetry.export import (
    METRICS_FORMATS,
    MetricsServer,
    TRACE_FORMATS,
    write_metrics,
    write_trace,
)
from .workloads import DATASET_NAMES, PROFILES, dataset_stream, load_dataset

log = logging.getLogger("repro.cli")

ARCH_CHOICES = ("BVAP", "BVAP-S", "CAMA", "eAP", "CA")

#: One consistent format for every repro logger (-v switches the level).
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


def configure_logging(verbose: bool = False) -> None:
    """Configure stdlib logging for the CLI (idempotent; rebinds the
    handler to the current stderr so redirected streams are honoured)."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format=LOG_FORMAT,
        force=True,
    )


def _load_patterns(
    arguments: Sequence[str], fmt: str = "pcre"
) -> List[str]:
    patterns: List[str] = []
    for argument in arguments:
        if argument.startswith("@"):
            with open(argument[1:]) as handle:
                patterns.extend(
                    line.rstrip("\n") for line in handle if line.strip()
                )
        else:
            patterns.append(argument)
    if fmt == "prosite":
        from .workloads.prosite import prosite_to_pcre

        patterns = [prosite_to_pcre(p) for p in patterns]
    elif fmt == "snort":
        from .workloads.snort import rules_to_patterns

        patterns = rules_to_patterns(patterns)
    if not patterns:
        raise SystemExit("no patterns given")
    return patterns


def _read_input(path: Optional[str]) -> bytes:
    if path is None or path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _restart_policy(args: argparse.Namespace) -> Optional[RestartPolicy]:
    """``--max-restarts`` arms supervised recovery for sharded scans."""
    max_restarts = getattr(args, "max_restarts", None)
    if max_restarts is None:
        return None
    kwargs = {"max_restarts": max_restarts}
    checkpoint_chunks = getattr(args, "checkpoint_chunks", None)
    if checkpoint_chunks is not None:
        kwargs["checkpoint_chunks"] = checkpoint_chunks
    return RestartPolicy(**kwargs)


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(
        max_states=getattr(args, "max_states", None),
        max_unfold=getattr(args, "max_unfold", None),
        max_bv_width=getattr(args, "max_bv_width", None),
        max_cache_bytes=getattr(args, "max_cache_bytes", None),
        max_table_states=getattr(args, "table_states", None),
        deadline_s=getattr(args, "deadline", None),
        restart=_restart_policy(args),
    )


def _reduce_level(args: argparse.Namespace) -> int:
    if getattr(args, "no_reduce", False):
        return 0
    return getattr(args, "reduce_level", DEFAULT_REDUCE_LEVEL)


def _compiler_options(args: argparse.Namespace) -> CompilerOptions:
    return CompilerOptions(
        bv_size=args.bv_size,
        unfold_threshold=args.unfold_threshold,
        reduce_level=_reduce_level(args),
        budget=_budget(args),
    )


def _compile_cache(args: argparse.Namespace):
    """The on-disk compile cache when ``--cache-dir`` was given."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        return None
    from .compiler.cache import CompileCache

    return CompileCache(cache_dir=cache_dir)


def _jobs(args: argparse.Namespace) -> int:
    return getattr(args, "jobs", None) or 1


@contextmanager
def _telemetry_session(args: argparse.Namespace) -> Iterator[None]:
    """Enable telemetry for one command when the args ask for exports;
    the trace/metrics files are written after the command body.

    ``--flight-dir`` additionally arms the flight recorder (bounded ring
    of engine events, auto-dumped on any failure), and
    ``--serve-metrics`` keeps a live ``/metrics`` endpoint up for the
    duration of the command.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    serve_port = getattr(args, "serve_metrics", None)
    flight_dir = getattr(args, "flight_dir", None)
    if flight_dir is not None:
        flight_recorder.enable(dump_dir=flight_dir)
    if not (trace_out or metrics_out or serve_port is not None):
        yield
        return
    server: Optional[MetricsServer] = None
    with telemetry.session():
        if serve_port is not None:
            server = MetricsServer(port=serve_port).start()
            log.info(
                "serving live metrics on http://127.0.0.1:%d/metrics",
                server.port,
            )
        try:
            yield
        finally:
            if server is not None:
                server.stop()
        if trace_out:
            write_trace(trace_out, getattr(args, "trace_format", "chrome"))
            log.info("wrote trace -> %s", trace_out)
        if metrics_out:
            fmt = getattr(args, "metrics_format", "json")
            write_metrics(metrics_out, fmt=fmt)
            log.info("wrote metrics (%s) -> %s", fmt, metrics_out)


def _warn_quarantined(ruleset) -> None:
    """One structured warning per quarantined/rejected pattern."""
    for pattern_id, report in sorted(ruleset.quarantined.items()):
        log.warning(
            "rejected pattern %d [%s in %s]: %s",
            pattern_id,
            report.error_code,
            report.phase or "compile",
            report.error,
        )


def cmd_compile(args: argparse.Namespace) -> int:
    patterns = _load_patterns(args.patterns, args.fmt)
    ruleset = compile_ruleset(
        patterns,
        _compiler_options(args),
        cache=_compile_cache(args),
        jobs=_jobs(args),
    )
    _warn_quarantined(ruleset)
    dump_config(ruleset, args.output)
    quarantined = ruleset.quarantined
    suffix = f", {len(quarantined)} quarantined" if quarantined else ""
    print(
        f"compiled {len(ruleset.regexes)} patterns -> {args.output}  "
        f"({ruleset.num_stes} STEs, {ruleset.num_bv_stes} BV-STEs, "
        f"{ruleset.mapping.num_tiles} tiles{suffix})"
    )
    if getattr(args, "json_mode", False):
        print(json.dumps({"reports": [r.to_json() for r in ruleset.reports]}))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    patterns = _load_patterns(args.patterns, args.fmt)
    data = _read_input(args.input)
    matcher = PatternSet(
        patterns,
        options=_compiler_options(args),
        engine=args.engine,
        on_error="quarantine" if args.quarantine else "raise",
        shards=getattr(args, "shards", None),
        cache=_compile_cache(args),
        prefilter=not getattr(args, "no_prefilter", False),
    )
    with matcher:
        for pattern_id, report in sorted(matcher.quarantined.items()):
            log.warning(
                "rejected pattern %d [%s in %s]: %s",
                pattern_id,
                report.error_code,
                report.phase or "compile",
                report.error,
            )
        matches = matcher.scan(data)
        for match in matches:
            print(f"{match.end}\t{patterns[match.pattern_id]}")
        for failure in matcher.shard_failures:
            log.warning(
                "shard %d degraded (%s); patterns %s unreported",
                failure.shard,
                failure.reason,
                list(failure.pattern_ids),
            )
        log.info("%d matches in %d bytes", len(matches), len(data))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time the scan engines on one workload cell; optionally dump JSON."""
    from .matching import bench as bench_mod

    engines = (
        list(ENGINES)
        if args.engines == "all"
        else [e.strip() for e in args.engines.split(",") if e.strip()]
    )
    for engine in engines:
        if engine not in ENGINES:
            raise SystemExit(f"unknown engine {engine!r}; choose from {ENGINES}")
    if args.patterns:
        patterns = _load_patterns(args.patterns, args.fmt)
    else:
        patterns = load_dataset(args.dataset, args.num_patterns, args.seed)
    if args.input:
        data = _read_input(args.input)
    else:
        data = dataset_stream(
            patterns,
            random.Random(args.seed),
            args.input_size,
            PROFILES[args.dataset].literal_pool,
        )
    cell = bench_mod.bench_cell(
        patterns, data, engines, _compiler_options(args), args.repeats,
        shards=args.shards,
        prefilter=not getattr(args, "no_prefilter", False),
    )
    record = {
        "benchmark": "fused_scan",
        "profile": args.dataset if not args.patterns else None,
        "seed": args.seed,
        "repeats": args.repeats,
        "engines": engines,
        "baseline_engine": bench_mod.BASELINE_ENGINE,
        "grid": [cell],
    }
    if not args.patterns and (
        getattr(args, "cache_dir", None) is not None or _jobs(args) > 1
    ):
        record["compile_cache"] = bench_mod.bench_compile_cache(
            args.dataset,
            len(patterns),
            _compiler_options(args),
            args.repeats,
            args.seed,
            cache_dir=args.cache_dir,
            jobs=_jobs(args),
        )
    print(bench_mod.format_grid(record))
    if args.json_out:
        bench_mod.write_record(record, args.json_out)
        log.info("wrote bench record -> %s", args.json_out)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile the fused scan path and emit a ``ScanProfile`` artifact.

    Runs the scan with the sampling profiler active (stride-sampled
    per-pattern activation/time attribution, memo hit-ratio series,
    offset heatmap, stepping tiers), writes the JSON artifact, and prints
    the "hottest pattern" summary table.
    """
    if args.patterns:
        patterns = _load_patterns(args.patterns, args.fmt)
    else:
        patterns = load_dataset(args.dataset, args.num_patterns, args.seed)
    if args.input:
        data = _read_input(args.input)
    else:
        data = dataset_stream(
            patterns,
            random.Random(args.seed),
            args.input_size,
            PROFILES[args.dataset].literal_pool,
        )
    matcher = PatternSet(
        patterns,
        options=_compiler_options(args),
        engine=args.engine,
        on_error="quarantine" if args.quarantine else "raise",
        shards=getattr(args, "shards", None),
        # The profiler instruments in-process matchers; the sharded
        # engine is profiled through its inline backend (one fused
        # binding per shard, merged by global pattern id).
        shard_backend="inline",
        cache=_compile_cache(args),
        prefilter=not getattr(args, "no_prefilter", False),
    )
    with matcher:
        for pattern_id, report in sorted(matcher.quarantined.items()):
            log.warning(
                "rejected pattern %d [%s in %s]: %s",
                pattern_id,
                report.error_code,
                report.phase or "compile",
                report.error,
            )
        with scan_profiler.profile_session(
            stride=args.stride,
            input_len=len(data),
            heatmap_buckets=args.heatmap_buckets,
        ) as prof:
            matches = matcher.scan(data)
        profile = prof.finish(
            patterns={i: p for i, p in enumerate(patterns)},
            engine=args.engine,
        )
    profile.write(args.profile_out)
    log.info("wrote profile -> %s", args.profile_out)
    from .analysis.report import profile_summary_table

    print(profile_summary_table(profile.to_json()))
    log.info(
        "%d matches in %d bytes (%d samples at stride %d)",
        len(matches),
        len(data),
        profile.samples,
        profile.stride,
    )
    return 0


def _run_simulation(args: argparse.Namespace) -> SimulationReport:
    """Shared compile+simulate flow of the simulate and trace verbs."""
    data = _read_input(args.input)
    if args.config:
        if args.arch not in ("BVAP", "BVAP-S"):
            raise SystemExit("--config only programs BVAP / BVAP-S")
        from .hardware.simulator import simulator_from_config

        return simulator_from_config(
            args.config, streaming=args.arch == "BVAP-S"
        ).run(data)
    if args.arch in ("BVAP", "BVAP-S"):
        patterns = _load_patterns(args.patterns, args.fmt)
        ruleset = compile_ruleset(
            patterns,
            _compiler_options(args),
            cache=_compile_cache(args),
            jobs=_jobs(args),
        )
        _warn_quarantined(ruleset)
        simulator = BVAPSimulator(ruleset, streaming=args.arch == "BVAP-S")
        return simulator.run(data)
    patterns = _load_patterns(args.patterns, args.fmt)
    spec = {"CAMA": CAMA_SPEC, "eAP": EAP_SPEC, "CA": CA_SPEC}[args.arch]
    return BaselineSimulator(spec, compile_baseline(patterns)).run(data)


def _print_report(report: SimulationReport) -> None:
    print(f"architecture     : {report.architecture}")
    print(f"symbols          : {report.symbols}")
    print(f"matches          : {report.matches}")
    print(f"tiles            : {report.num_tiles}")
    print(f"area             : {report.area_mm2:.4f} mm2")
    print(f"energy/symbol    : {report.energy_per_symbol_nj * 1e3:.3f} pJ")
    print(f"throughput       : {report.throughput_gbps:.2f} Gbps")
    print(f"compute density  : {report.compute_density_gbps_mm2:.1f} Gbps/mm2")
    print(f"power            : {report.power_w * 1e3:.2f} mW")
    print(f"FoM              : {report.fom:.3e} mJ*mm2/Gbps")


def cmd_simulate(args: argparse.Namespace) -> int:
    report = _run_simulation(args)
    _print_report(report)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Simulate with telemetry always on and print the span breakdown.

    ``--trace-out`` defaults to ``trace.json`` here; the session wrapper
    in :func:`main` does the actual export.
    """
    report = _run_simulation(args)
    _print_report(report)
    from .analysis.report import span_summary_table

    print()
    print(span_summary_table(telemetry.snapshot()))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a seeded fault-injection campaign against the cycle simulator.

    Replays a golden (fault-free) run next to a faulty one and reports
    the first cycle where the architectural state diverges plus the
    missed/spurious matches.  Exit status 1 when ``--expect-divergence``
    was given but the injected faults were all masked.
    """
    patterns = _load_patterns(args.patterns, args.fmt)
    ruleset = compile_ruleset(
        patterns,
        _compiler_options(args),
        cache=_compile_cache(args),
        jobs=_jobs(args),
    )
    _warn_quarantined(ruleset)
    if args.input:
        data = _read_input(args.input)
    else:
        data = dataset_stream(
            patterns,
            random.Random(args.seed),
            args.input_size,
            PROFILES[args.dataset].literal_pool,
        )
    if args.chaos:
        return _run_chaos_campaign(args, ruleset, data)
    spec = FaultSpec(
        seed=args.seed,
        cam_rate=args.cam_rate,
        bv_rate=args.bv_rate,
        counter_rate=args.counter_rate,
    )
    report = run_campaign(ruleset, data, spec)
    if getattr(args, "json_mode", False):
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(format_report(report))
    log.info(
        "%d faults injected, %s",
        len(report.injected),
        f"diverged at cycle {report.first_divergence_cycle}"
        if report.diverged
        else "no architectural divergence",
    )
    if args.expect_divergence and not report.diverged:
        log.error("expected divergence but the faults were all masked")
        return 1
    return 0


def _run_chaos_campaign(args: argparse.Namespace, ruleset, data: bytes) -> int:
    """``faults --chaos``: seeded process-level faults against a live
    sharded scan, asserting stream parity with a fault-free oracle."""
    kinds = tuple(
        kind.strip() for kind in args.chaos_kinds.split(",") if kind.strip()
    )
    spec = ChaosSpec(
        seed=args.seed,
        kinds=kinds,
        num_faults=args.chaos_faults,
        shards=args.shards,
        chunk_bytes=args.chunk_bytes,
        max_restarts=(
            args.max_restarts if args.max_restarts is not None else 1
        ),
        checkpoint_chunks=(
            args.checkpoint_chunks if args.checkpoint_chunks is not None else 4
        ),
    )
    report = run_chaos(ruleset.regexes, data, spec)
    if getattr(args, "json_mode", False):
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(format_chaos_report(report))
    if report.diverged:
        log.error(
            "chaos campaign diverged at stream offset %d",
            report.first_divergence,
        )
        return 1
    log.info(
        "%d chaos faults injected, %d restarts, %d failovers, "
        "stream byte-identical",
        len(report.faults),
        report.restarts,
        report.failovers,
    )
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    patterns = load_dataset(args.name, args.count, args.seed)
    for pattern in patterns:
        print(pattern)
    if args.stream:
        data = dataset_stream(
            patterns,
            random.Random(args.seed),
            args.stream,
            PROFILES[args.name].literal_pool,
        )
        with open(args.stream_output, "wb") as handle:
            handle.write(data)
        log.info(
            "wrote %d input bytes -> %s", len(data), args.stream_output
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BVAP compiler / matcher / simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_flags(
        p: argparse.ArgumentParser, json_flag: bool = True
    ) -> None:
        p.add_argument("-v", "--verbose", action="store_true",
                       help="debug-level logging")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for every random choice (reproducible runs)")
        p.add_argument("--trace-out", default=None, dest="trace_out",
                       help="write a telemetry trace of this run")
        p.add_argument("--trace-format", default="chrome",
                       dest="trace_format", choices=TRACE_FORMATS,
                       help="trace file format (chrome://tracing or JSONL)")
        p.add_argument("--metrics-out", default=None, dest="metrics_out",
                       help="write the metrics snapshot of this run")
        p.add_argument("--metrics-format", default="json",
                       dest="metrics_format", choices=METRICS_FORMATS,
                       help="metrics file format (JSON snapshot or "
                            "Prometheus text exposition)")
        p.add_argument("--serve-metrics", type=int, default=None,
                       dest="serve_metrics", metavar="PORT",
                       help="serve live metrics at "
                            "http://127.0.0.1:PORT/metrics for the "
                            "duration of the command (0 = ephemeral port)")
        p.add_argument("--flight-dir", default=None, dest="flight_dir",
                       help="arm the flight recorder; failures dump a "
                            "JSON postmortem into this directory")
        if json_flag:
            # bench keeps its historical `--json PATH` spelling instead.
            p.add_argument("--json", action="store_true", dest="json_mode",
                           help="machine-readable output; errors become "
                                "structured JSON objects")

    def add_compiler_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--bv-size", type=int, default=64, dest="bv_size",
                       choices=(8, 16, 32, 64))
        p.add_argument("--unfold-threshold", type=int, default=4,
                       dest="unfold_threshold")
        p.add_argument("--reduce-level", type=int,
                       default=DEFAULT_REDUCE_LEVEL, dest="reduce_level",
                       choices=REDUCE_LEVELS,
                       help="automaton reduction: 0 = prune only, 1 = + "
                            "follow merges, 2 = + left merges (default)")
        p.add_argument("--no-reduce", action="store_true", dest="no_reduce",
                       help="shorthand for --reduce-level 0")
        p.add_argument("--format", default="pcre", dest="fmt",
                       choices=("pcre", "prosite", "snort"),
                       help="pattern syntax of PATTERNS/@files")
        p.add_argument("--max-states", type=int, default=None,
                       dest="max_states",
                       help="budget: AH-NBVA states per pattern")
        p.add_argument("--max-unfold", type=int, default=None,
                       dest="max_unfold",
                       help="budget: symbols one {m,n} unfolding may create")
        p.add_argument("--max-bv-width", type=int, default=None,
                       dest="max_bv_width",
                       help="budget: widest virtual bit vector per pattern")
        p.add_argument("--max-cache-bytes", type=int, default=None,
                       dest="max_cache_bytes",
                       help="budget: fused-engine bitset-tier lazy-DFA "
                            "cache bytes (also caps each dense "
                            "transition table)")
        p.add_argument("--table-states", type=int, default=None,
                       dest="table_states",
                       help="budget: dense-table states for the fused "
                            "engine; a full table is flushed and refilled "
                            "(0 disables the table tier; default "
                            f"{DEFAULT_TABLE_STATES})")
        p.add_argument("--deadline", type=float, default=None,
                       dest="deadline",
                       help="budget: cooperative wall-clock deadline (s)")
        p.add_argument("--max-restarts", type=int, default=None,
                       dest="max_restarts",
                       help="supervise sharded scan workers: restart a "
                            "dead shard up to N times (with backoff) "
                            "before the parent runs it in-process")
        p.add_argument("--checkpoint-chunks", type=int, default=None,
                       dest="checkpoint_chunks",
                       help="snapshot shard state every N chunks for "
                            "checkpointed recovery (with --max-restarts; "
                            "default 8)")
        p.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="on-disk compile cache directory (content-"
                            "addressed; reused across runs)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel compile workers for rule sets "
                            "(default 1 = serial)")

    p_compile = sub.add_parser("compile", help="emit a JSON hardware config")
    p_compile.add_argument("patterns", nargs="+")
    p_compile.add_argument("-o", "--output", default="bvap_config.json")
    add_compiler_flags(p_compile)
    add_common_flags(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_scan = sub.add_parser("scan", help="match patterns over input bytes")
    p_scan.add_argument("patterns", nargs="+")
    p_scan.add_argument("-i", "--input", default="-",
                        help="input file ('-' = stdin)")
    p_scan.add_argument("--engine", default="fused", choices=ENGINES,
                        help="scan engine (default: fused; ah, nbva, nca "
                             "and nfa are the paper-model references)")
    p_scan.add_argument("--shards", type=int, default=None,
                        help="worker processes for --engine sharded "
                             "(default: one per CPU core)")
    p_scan.add_argument("--quarantine", action="store_true",
                        help="isolate bad patterns instead of aborting")
    p_scan.add_argument("--no-prefilter", action="store_true",
                        dest="no_prefilter",
                        help="disable the fused engine's literal prefilter")
    add_compiler_flags(p_scan)
    add_common_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_profile = sub.add_parser(
        "profile",
        help="profile the fused scan path (ScanProfile artifact)",
    )
    p_profile.add_argument("patterns", nargs="*",
                           help="patterns/@files; omitted = --dataset rules")
    p_profile.add_argument("-i", "--input", default=None,
                           help="input file; omitted = synthetic stream")
    p_profile.add_argument("--dataset", default="RegexLib",
                           choices=DATASET_NAMES,
                           help="profile for generated patterns/input")
    p_profile.add_argument("--num-patterns", type=int, default=16,
                           dest="num_patterns")
    p_profile.add_argument("--input-size", type=int, default=16384,
                           dest="input_size")
    p_profile.add_argument("--engine", default="fused",
                           choices=("fused", "sharded"),
                           help="scan engine to profile (sharded uses the "
                                "inline backend: one binding per shard)")
    p_profile.add_argument("--shards", type=int, default=None,
                           help="shard count for --engine sharded")
    p_profile.add_argument("--stride", type=int, default=64,
                           help="probe the activation on every N-th "
                           "stream byte (the scan itself is unchanged)")
    p_profile.add_argument("--heatmap-buckets", type=int, default=64,
                           dest="heatmap_buckets",
                           help="offset buckets in the activation heatmap")
    p_profile.add_argument("--profile-out", default="profile.json",
                           dest="profile_out",
                           help="where to write the ScanProfile JSON")
    p_profile.add_argument("--quarantine", action="store_true",
                           help="isolate bad patterns instead of aborting")
    p_profile.add_argument("--no-prefilter", action="store_true",
                           dest="no_prefilter",
                           help="disable the fused engine's literal "
                                "prefilter")
    add_compiler_flags(p_profile)
    add_common_flags(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_bench = sub.add_parser(
        "bench", help="time the scan engines (fused vs per-pattern)"
    )
    p_bench.add_argument("patterns", nargs="*",
                         help="patterns/@files; omitted = --dataset rules")
    p_bench.add_argument("-i", "--input", default=None,
                         help="input file; omitted = synthetic stream")
    p_bench.add_argument("--dataset", default="RegexLib",
                         choices=DATASET_NAMES,
                         help="profile for generated patterns/input")
    p_bench.add_argument("--num-patterns", type=int, default=16,
                         dest="num_patterns")
    p_bench.add_argument("--input-size", type=int, default=16384,
                         dest="input_size")
    p_bench.add_argument("--engines", default="fused,nfa,ah",
                         help="comma-separated engine list, or 'all'")
    p_bench.add_argument("--shards", type=int, default=None,
                         help="worker processes when timing the sharded "
                              "engine (default: one per CPU core)")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--no-prefilter", action="store_true",
                         dest="no_prefilter",
                         help="disable the fused engine's literal prefilter")
    p_bench.add_argument("--json", default=None, dest="json_out",
                         help="also write the record as JSON")
    add_compiler_flags(p_bench)
    add_common_flags(p_bench, json_flag=False)
    p_bench.set_defaults(func=cmd_bench, json_mode=False)

    def add_simulate_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("patterns", nargs="*")
        p.add_argument("-i", "--input", default="-")
        p.add_argument("--arch", default="BVAP", choices=ARCH_CHOICES)
        p.add_argument("--config", default=None,
                       help="program the simulator from a JSON config "
                            "instead of compiling PATTERNS")
        add_compiler_flags(p)
        add_common_flags(p)

    p_sim = sub.add_parser("simulate", help="cycle-level simulation")
    add_simulate_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_trace = sub.add_parser(
        "trace",
        help="simulate with telemetry on; write trace + span breakdown",
    )
    add_simulate_args(p_trace)
    p_trace.set_defaults(func=cmd_trace, trace_out="trace.json")

    p_faults = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign on the cycle simulator",
    )
    p_faults.add_argument("patterns", nargs="+")
    p_faults.add_argument("-i", "--input", default=None,
                          help="input file; omitted = synthetic stream")
    p_faults.add_argument("--dataset", default="RegexLib",
                          choices=DATASET_NAMES,
                          help="profile for the synthetic input stream")
    p_faults.add_argument("--input-size", type=int, default=4096,
                          dest="input_size",
                          help="bytes of synthetic input when no -i")
    p_faults.add_argument("--cam-rate", type=float, default=0.0,
                          dest="cam_rate",
                          help="per-cycle CAM match-vector bit-flip rate")
    p_faults.add_argument("--bv-rate", type=float, default=0.0,
                          dest="bv_rate",
                          help="per-cycle BVM bit-vector bit-flip rate")
    p_faults.add_argument("--counter-rate", type=float, default=0.0,
                          dest="counter_rate",
                          help="per-cycle Active Vector bit-flip rate")
    p_faults.add_argument("--chaos", action="store_true",
                          help="process-level chaos campaign against a "
                               "live sharded scan (kill/hang workers) "
                               "instead of simulator bit flips; exit 1 "
                               "on stream divergence")
    p_faults.add_argument("--chaos-kinds", default="kill,stop",
                          dest="chaos_kinds",
                          help="comma list of chaos fault kinds "
                               "(kill, die, stop, corrupt, slow)")
    p_faults.add_argument("--chaos-faults", type=int, default=2,
                          dest="chaos_faults",
                          help="number of faults to inject per campaign")
    p_faults.add_argument("--shards", type=int, default=2,
                          help="worker shards for the chaos scan")
    p_faults.add_argument("--chunk-bytes", type=int, default=1024,
                          dest="chunk_bytes",
                          help="streaming chunk size for the chaos scan")
    p_faults.add_argument("--expect-divergence", action="store_true",
                          dest="expect_divergence",
                          help="exit 1 when the faults were all masked")
    add_compiler_flags(p_faults)
    add_common_flags(p_faults)
    p_faults.set_defaults(func=cmd_faults)

    p_data = sub.add_parser("dataset", help="generate a synthetic dataset")
    p_data.add_argument("name", choices=DATASET_NAMES)
    p_data.add_argument("-n", "--count", type=int, default=20)
    p_data.add_argument("--stream", type=int, default=0,
                        help="also generate this many input bytes")
    p_data.add_argument("--stream-output", default="stream.bin")
    add_common_flags(p_data)
    p_data.set_defaults(func=cmd_dataset)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", False))
    seed = getattr(args, "seed", None)
    if seed is not None:
        # One root seed for anything that reaches for the global RNG; the
        # dataset/input generators additionally derive their own
        # random.Random(seed) streams from it.
        random.seed(seed)
    try:
        with _telemetry_session(args):
            return args.func(args)
    except ReproError as error:
        # Structured failure: syntax errors carry a caret diagnostic in
        # str(); --json swaps both for one machine-readable object.
        dump_path = flight_recorder.auto_dump("cli-error", error)
        if dump_path is not None:
            log.error("flight postmortem -> %s", dump_path)
        if getattr(args, "json_mode", False):
            print(json.dumps({"error": error.to_json()}))
        else:
            print(f"error[{error.code}]: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
