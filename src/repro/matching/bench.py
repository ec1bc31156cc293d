"""Scan-engine micro-benchmark helpers (the ``bench`` CLI verb and
``benchmarks/bench_scan.py`` both build on these).

The measurement of record is a *patterns × input-size grid* over a
workload-profile rule set, timing the fused engine against the
per-pattern engines and deriving fused speedups.  Results serialise to a
plain-JSON perf record (``BENCH_scan.json``) so successive PRs can track
the scan trajectory.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..compiler import CompilerOptions
from ..workloads import PROFILES, dataset_stream, load_dataset, match_rate_stream
from .engine import ENGINES, PatternSet

#: The engine every speedup is quoted against: the per-pattern loop over
#: the same automaton class the fused engine executes.
BASELINE_ENGINE = "nfa"

#: The three fused stepping tiers, benched as pseudo-engines on the
#: match-rate axis.  ``table_states=None`` means "engine default".
FUSED_VARIANTS: Dict[str, Dict[str, object]] = {
    "fused-bitset": {"table_states": 0, "prefilter": False},
    "fused-table": {"table_states": None, "prefilter": False},
    "fused-prefilter": {"table_states": None, "prefilter": True},
}

_STATIC_PROVENANCE: Optional[Dict[str, object]] = None


def provenance() -> Dict[str, object]:
    """Machine/revision context stamped into every bench cell.

    A throughput number is only comparable to another run when both were
    taken on the same code and comparable hardware — so every cell
    carries the git revision, CPU count, Python version, and the
    1-minute load average at measurement time (the noise indicator the
    regression comparator surfaces when a drop looks machine-induced).
    The static parts are probed once per process; the load average is
    re-read per cell.
    """
    global _STATIC_PROVENANCE
    if _STATIC_PROVENANCE is None:
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
        _STATIC_PROVENANCE = {
            "git_revision": rev,
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        }
    out = dict(_STATIC_PROVENANCE)
    try:
        out["load_avg_1m"] = round(os.getloadavg()[0], 2)
    except (OSError, AttributeError):  # pragma: no cover - platform
        out["load_avg_1m"] = None
    return out


@dataclass
class EngineTiming:
    """Best-of-N wall time of one engine over one workload cell."""

    engine: str
    seconds: float
    matches: int
    input_bytes: int

    @property
    def throughput_mbps(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.input_bytes / self.seconds / 1e6

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "seconds": self.seconds,
            "matches": self.matches,
            "throughput_mbps": round(self.throughput_mbps, 3),
        }


def _best_of(func, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def time_engine(
    patterns: Sequence[str],
    data: bytes,
    engine: str,
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    shards: Optional[int] = None,
    table_states: Optional[int] = None,
    prefilter: bool = True,
) -> EngineTiming:
    """Compile once, scan ``repeats`` times, keep the best wall time.

    ``shards`` sizes the worker pool for ``engine="sharded"`` (ignored
    elsewhere); the workers are torn down before returning so bench runs
    never leak processes.  ``table_states`` (via the budget) and
    ``prefilter`` pin the fused stepping tier — ``table_states=0`` with
    ``prefilter=False`` forces pure bitset stepping.
    """
    kwargs: Dict[str, object] = {"shards": shards} if engine == "sharded" else {}
    if engine in ("fused", "sharded"):
        kwargs["prefilter"] = prefilter
        if table_states is not None:
            kwargs["budget"] = replace(
                options.budget, max_table_states=table_states
            )
    pattern_set = PatternSet(patterns, options=options, engine=engine, **kwargs)
    try:
        matches = pattern_set.scan(data)  # warm caches/workers before timing
        seconds = _best_of(lambda: pattern_set.scan(data), repeats)
    finally:
        pattern_set.close()
    return EngineTiming(
        engine=engine,
        seconds=seconds,
        matches=len(matches),
        input_bytes=len(data),
    )


def bench_cell(
    patterns: Sequence[str],
    data: bytes,
    engines: Sequence[str],
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    shards: Optional[int] = None,
    prefilter: bool = True,
) -> Dict[str, object]:
    """One grid cell: every engine over the same patterns and input.

    Also asserts that every engine produced the same match count — a
    cheap differential tripwire inside the perf harness itself.
    """
    timings = [
        time_engine(
            patterns, data, engine, options, repeats,
            shards=shards, prefilter=prefilter,
        )
        for engine in engines
    ]
    counts = {t.engine: t.matches for t in timings}
    if len(set(counts.values())) > 1:
        raise AssertionError(f"engines disagree on match count: {counts}")
    cell: Dict[str, object] = {
        "num_patterns": len(patterns),
        "input_bytes": len(data),
        "timings": {t.engine: t.to_dict() for t in timings},
        "provenance": provenance(),
    }
    baseline = next(
        (t for t in timings if t.engine == BASELINE_ENGINE), None
    )
    fused = next((t for t in timings if t.engine == "fused"), None)
    if baseline and fused and fused.seconds > 0:
        cell["fused_speedup"] = round(baseline.seconds / fused.seconds, 2)
    return cell


def bench_shard_scaling(
    patterns: Sequence[str],
    data: bytes,
    shard_counts: Sequence[int] = (1, 2, 4),
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
) -> Dict[str, object]:
    """Shard-scaling cell: sharded at each worker count vs fused.

    ``speedup_vs_fused`` > 1 means the worker pool beat the
    single-process fused engine in wall time.  ``cpus`` records the
    machine's core count — on a single-core box the sharded engine
    cannot beat fused (K workers redo the per-byte step K times with no
    parallel hardware), so scaling records are only comparable across
    machines via this field.
    """
    fused = time_engine(patterns, data, "fused", options, repeats)
    rows: List[Dict[str, object]] = []
    for count in shard_counts:
        timing = time_engine(
            patterns, data, "sharded", options, repeats, shards=count
        )
        if timing.matches != fused.matches:
            raise AssertionError(
                f"sharded@{count} found {timing.matches} matches, "
                f"fused found {fused.matches}"
            )
        row = timing.to_dict()
        row["shards"] = count
        if timing.seconds > 0:
            row["speedup_vs_fused"] = round(fused.seconds / timing.seconds, 2)
        rows.append(row)
    return {
        "num_patterns": len(patterns),
        "input_bytes": len(data),
        "cpus": os.cpu_count(),
        "fused": fused.to_dict(),
        "shards": rows,
    }


def _supervised_scan(
    compiled,
    ids: Sequence[int],
    data: bytes,
    shards: int,
    chunk_bytes: int,
    checkpoint_chunks: int,
    kill_chunk: Optional[int],
) -> Dict[str, object]:
    """One supervised sharded pass; ``kill_chunk`` injects a worker death.

    Worker spawn happens outside the timed region so the figure is the
    steady-state scan cost (clean) or scan-plus-recovery cost (faulted),
    not process start-up.
    """
    from ..resilience.budget import RestartPolicy
    from .sharded import ShardedScanner

    chunks = [
        data[base : base + chunk_bytes]
        for base in range(0, len(data), chunk_bytes)
    ]
    policy = RestartPolicy(
        max_restarts=2,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        checkpoint_chunks=checkpoint_chunks,
    )
    matches: List[tuple] = []
    with ShardedScanner(
        list(compiled),
        list(ids),
        shards,
        chunk_bytes=chunk_bytes,
        restart_policy=policy,
        seed=0,
    ) as scanner:
        pos = 0
        start = time.perf_counter()
        for index, chunk in enumerate(chunks):
            if index == kill_chunk:
                scanner.inject_fault(0, "die")
            matches.extend(
                (pid, pos + end) for pid, end in scanner.feed(chunk)
            )
            pos += len(chunk)
        seconds = time.perf_counter() - start
        restarts = list(scanner.restarts)
    return {
        "seconds": seconds,
        "matches": matches,
        "restarts": len(restarts),
        "replayed_bytes": sum(r.replayed_bytes for r in restarts),
    }


def bench_recovery(
    patterns: Sequence[str],
    data: bytes,
    options: CompilerOptions = CompilerOptions(),
    shards: int = 2,
    chunk_bytes: int = 1024,
    checkpoint_chunks: int = 4,
    repeats: int = 3,
) -> Dict[str, object]:
    """Recovery-latency cell: supervised sharded scan, clean vs killed.

    The faulted pass injects one worker death (cooperative ``die``, so
    the schedule is deterministic) at the mid-stream chunk; supervision
    restarts the shard from its checkpoint and replays the buffered
    tail.  ``recovery_overhead_s`` is the wall-clock price of that heal
    (faulted minus clean, best-of-``repeats`` each), and the cell
    asserts the two match streams are identical — the bench doubles as
    a recovery-parity tripwire.
    """
    from ..compiler.pipeline import compile_ruleset

    ruleset = compile_ruleset(list(patterns), options)
    compiled = ruleset.regexes
    ids = [regex.regex_id for regex in compiled]
    num_chunks = max(1, (len(data) + chunk_bytes - 1) // chunk_bytes)
    kill_chunk = num_chunks // 2

    def best(kill: Optional[int]) -> Dict[str, object]:
        runs = [
            _supervised_scan(
                compiled, ids, data, shards, chunk_bytes,
                checkpoint_chunks, kill,
            )
            for _ in range(repeats)
        ]
        return min(runs, key=lambda r: r["seconds"])

    clean = best(None)
    faulted = best(kill_chunk)
    if clean["matches"] != faulted["matches"]:
        raise AssertionError(
            f"recovery changed the match stream: clean "
            f"{len(clean['matches'])} events, faulted "
            f"{len(faulted['matches'])}"
        )
    return {
        "num_patterns": len(patterns),
        "input_bytes": len(data),
        "shards": shards,
        "chunk_bytes": chunk_bytes,
        "checkpoint_chunks": checkpoint_chunks,
        "kill_chunk": kill_chunk,
        "matches": len(clean["matches"]),
        "clean_s": round(clean["seconds"], 6),
        "faulted_s": round(faulted["seconds"], 6),
        "recovery_overhead_s": round(
            max(0.0, faulted["seconds"] - clean["seconds"]), 6
        ),
        "restarts": faulted["restarts"],
        "replayed_bytes": faulted["replayed_bytes"],
        "provenance": provenance(),
    }


def _variant_timing(
    name: str,
    patterns: Sequence[str],
    data: bytes,
    options: CompilerOptions,
    repeats: int,
) -> EngineTiming:
    cfg = FUSED_VARIANTS[name]
    timing = time_engine(
        patterns,
        data,
        "fused",
        options,
        repeats,
        table_states=cfg["table_states"],  # type: ignore[arg-type]
        prefilter=bool(cfg["prefilter"]),
    )
    timing.engine = name
    return timing


def bench_match_rates(
    profile_name: str = "RegexLib",
    num_patterns: int = 16,
    input_size: int = 1 << 16,
    rates: Sequence[float] = (0.0, 0.01, 0.5),
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    seed: int = 1,
) -> List[Dict[str, object]]:
    """The match-rate axis: the three fused tiers at each plant rate.

    The prefilter's win shrinks as the match rate rises (more of the
    input sits inside armed windows), so each cell times pure bitset
    stepping, the dense table, and table+prefilter over the same input
    and quotes ``table_speedup`` / ``prefilter_speedup`` against the
    bitset tier.  Before timing, the three variants' *full match
    streams* (not just counts) are compared — the bench doubles as a
    differential tripwire for the tiers.
    """
    profile = PROFILES[profile_name]
    patterns = load_dataset(profile_name, num_patterns, seed)
    cells: List[Dict[str, object]] = []
    for rate in rates:
        data = match_rate_stream(
            patterns,
            random.Random(seed + int(rate * 10_000)),
            input_size,
            profile.literal_pool,
            rate,
        )
        streams = {}
        for name, cfg in FUSED_VARIANTS.items():
            budget = replace(
                options.budget,
                max_table_states=cfg["table_states"],  # type: ignore[arg-type]
            )
            ps = PatternSet(
                patterns,
                options=options,
                engine="fused",
                budget=budget,
                prefilter=bool(cfg["prefilter"]),
            )
            try:
                streams[name] = ps.scan(data)
            finally:
                ps.close()
        if len({tuple(s) for s in streams.values()}) > 1:
            counts = {name: len(s) for name, s in streams.items()}
            raise AssertionError(
                f"fused tiers disagree at match rate {rate}: {counts}"
            )
        timings = {
            name: _variant_timing(name, patterns, data, options, repeats)
            for name in FUSED_VARIANTS
        }
        cell: Dict[str, object] = {
            "num_patterns": len(patterns),
            "input_bytes": len(data),
            "match_rate": rate,
            "matches": len(streams["fused-bitset"]),
            "timings": {n: t.to_dict() for n, t in timings.items()},
            "provenance": provenance(),
        }
        bitset = timings["fused-bitset"]
        if bitset.seconds > 0:
            for name, key in (
                ("fused-table", "table_speedup"),
                ("fused-prefilter", "prefilter_speedup"),
            ):
                if timings[name].seconds > 0:
                    cell[key] = round(
                        bitset.seconds / timings[name].seconds, 2
                    )
        cells.append(cell)
    return cells


def bench_workloads(
    profiles: Sequence[str] = ("log_scan", "ids", "pii"),
    num_records: int = 512,
    match_rates: Sequence[float] = (0.0, 0.05),
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    seed: int = 1,
) -> List[Dict[str, object]]:
    """Per-record scan cells over the anchored workload profiles.

    The ruleset-importer workloads (:data:`repro.workloads.rulesets.
    WORKLOAD_PROFILES`) pair anchored rule sets with framed-traffic
    generators; since ``^``/``$`` are *stream* anchors, realistic
    deployment scans one record (log line, request line, document) per
    ``scan()`` call — which is exactly what these cells time.  Each cell
    runs the three fused stepping tiers over the identical record list,
    compares their full match streams (the anchored differential
    tripwire), and quotes ``table_speedup`` / ``prefilter_speedup``
    against pure bitset stepping.  The 0%%-match-rate cells are the
    acceptance evidence that gated (anchored) automatons still get the
    table and prefilter wins.
    """
    from ..workloads.rulesets import WORKLOAD_PROFILES

    cells: List[Dict[str, object]] = []
    for name in profiles:
        profile = WORKLOAD_PROFILES[name]
        patterns = list(profile.patterns)
        for rate in match_rates:
            rng = random.Random(seed + int(rate * 10_000))
            records = profile.records(rng, num_records, rate)
            total_bytes = sum(len(record) for record in records)
            streams: Dict[str, List] = {}
            timings: Dict[str, EngineTiming] = {}
            for variant, cfg in FUSED_VARIANTS.items():
                budget = replace(
                    options.budget,
                    max_table_states=cfg["table_states"],  # type: ignore[arg-type]
                )
                ps = PatternSet(
                    patterns,
                    options=options,
                    engine="fused",
                    budget=budget,
                    prefilter=bool(cfg["prefilter"]),
                )
                try:
                    stream = [
                        (index, match.pattern_id, match.end)
                        for index, record in enumerate(records)
                        for match in ps.scan(record)
                    ]
                    streams[variant] = stream
                    seconds = _best_of(
                        lambda: [ps.scan(record) for record in records],
                        repeats,
                    )
                finally:
                    ps.close()
                timings[variant] = EngineTiming(
                    engine=variant,
                    seconds=seconds,
                    matches=len(stream),
                    input_bytes=total_bytes,
                )
            if len({tuple(s) for s in streams.values()}) > 1:
                counts = {v: len(s) for v, s in streams.items()}
                raise AssertionError(
                    f"fused tiers disagree on workload {name!r} at "
                    f"match rate {rate}: {counts}"
                )
            cell: Dict[str, object] = {
                "workload": name,
                "num_patterns": len(patterns),
                "records": num_records,
                "input_bytes": total_bytes,
                "match_rate": rate,
                "matches": len(streams["fused-bitset"]),
                "timings": {v: t.to_dict() for v, t in timings.items()},
                "provenance": provenance(),
            }
            bitset = timings["fused-bitset"]
            if bitset.seconds > 0:
                for variant, key in (
                    ("fused-table", "table_speedup"),
                    ("fused-prefilter", "prefilter_speedup"),
                ):
                    if timings[variant].seconds > 0:
                        cell[key] = round(
                            bitset.seconds / timings[variant].seconds, 2
                        )
            cells.append(cell)
    return cells


def bench_grid(
    profile_name: str = "RegexLib",
    pattern_counts: Sequence[int] = (1, 4, 16),
    input_sizes: Sequence[int] = (4096, 16384),
    engines: Sequence[str] = ENGINES,
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    seed: int = 1,
    shard_counts: Optional[Sequence[int]] = None,
    match_rates: Optional[Sequence[float]] = None,
    recovery: bool = False,
) -> Dict[str, object]:
    """The full perf record: pattern-count × input-size grid.

    With ``shard_counts`` the record additionally carries a
    ``shard_scaling`` section measured on the largest grid cell; with
    ``match_rates`` a ``match_rate_grid`` timing the fused stepping
    tiers (bitset / table / table+prefilter) at each plant rate, plus
    the ``table_speedup_low_match`` and ``prefilter_speedup_zero_match``
    headline keys.  ``recovery`` adds the supervised-recovery latency
    cell (:func:`bench_recovery`) on the largest workload.
    """
    profile = PROFILES[profile_name]
    max_patterns = max(pattern_counts)
    all_patterns = load_dataset(profile_name, max_patterns, seed)
    grid: List[Dict[str, object]] = []
    for count in pattern_counts:
        patterns = all_patterns[:count]
        for size in input_sizes:
            data = dataset_stream(
                patterns,
                random.Random(seed + size),
                size,
                profile.literal_pool,
            )
            grid.append(bench_cell(patterns, data, engines, options, repeats))
    record: Dict[str, object] = {
        "benchmark": "fused_scan",
        "profile": profile_name,
        "seed": seed,
        "repeats": repeats,
        "engines": list(engines),
        "baseline_engine": BASELINE_ENGINE,
        "python": sys.version.split()[0],
        "provenance": provenance(),
        "grid": grid,
    }
    # Headline number: fused speedup on the largest-pattern-count cells.
    headline = [
        cell["fused_speedup"]
        for cell in grid
        if cell["num_patterns"] == max_patterns and "fused_speedup" in cell
    ]
    if headline:
        record["fused_speedup_max_patterns"] = max(headline)
    if shard_counts:
        size = max(input_sizes)
        data = dataset_stream(
            all_patterns,
            random.Random(seed + size),
            size,
            profile.literal_pool,
        )
        record["shard_scaling"] = bench_shard_scaling(
            all_patterns, data, shard_counts, options, repeats
        )
    if recovery:
        size = max(input_sizes)
        data = dataset_stream(
            all_patterns,
            random.Random(seed + size),
            size,
            profile.literal_pool,
        )
        record["recovery"] = bench_recovery(
            all_patterns, data, options, repeats=repeats
        )
    if match_rates:
        cells = bench_match_rates(
            profile_name,
            num_patterns=max_patterns,
            input_size=max(input_sizes),
            rates=match_rates,
            options=options,
            repeats=repeats,
            seed=seed,
        )
        record["match_rate_grid"] = cells
        low = min(cells, key=lambda c: c["match_rate"])
        if "table_speedup" in low:
            record["table_speedup_low_match"] = low["table_speedup"]
        zero = next((c for c in cells if c["match_rate"] == 0.0), None)
        if zero and "prefilter_speedup" in zero:
            record["prefilter_speedup_zero_match"] = zero["prefilter_speedup"]
    return record


def bench_compile_cache(
    profile_name: str = "RegexLib",
    num_patterns: int = 64,
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    seed: int = 1,
    cache_dir: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    """Cold-vs-warm ruleset compile through the content-addressed cache.

    *Cold* is the first :func:`~repro.compiler.pipeline.compile_ruleset`
    against a fresh cache (every pattern misses and compiles); *warm* is
    the best of ``repeats`` immediate recompiles of the same rule set
    (every pattern hits).  The ratio is the compile-reuse headline the
    perf record tracks alongside the scan grid.
    """
    from ..compiler.cache import CompileCache
    from ..compiler.pipeline import compile_ruleset

    patterns = load_dataset(profile_name, num_patterns, seed)
    cache = CompileCache(cache_dir=cache_dir)
    start = time.perf_counter()
    cold_ruleset = compile_ruleset(patterns, options, cache=cache, jobs=jobs)
    cold_s = time.perf_counter() - start
    warm_s = _best_of(
        lambda: compile_ruleset(patterns, options, cache=cache, jobs=jobs),
        repeats,
    )
    info = cache.cache_info()
    record: Dict[str, object] = {
        "profile": profile_name,
        "num_patterns": num_patterns,
        "compiled": len(cold_ruleset.regexes),
        "jobs": jobs,
        "disk_cache": cache_dir is not None,
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "cache_hits": info["hits"],
        "cache_misses": info["misses"],
    }
    if warm_s > 0:
        record["warm_speedup"] = round(cold_s / warm_s, 2)
    return record


def bench_reduction(
    profile_name: str = "RegexLib",
    num_patterns: int = 64,
    input_size: int = 1 << 16,
    options: CompilerOptions = CompilerOptions(),
    repeats: int = 3,
    seed: int = 1,
) -> Dict[str, object]:
    """The ``reduction`` cell: what the ``compiler.reduce`` pass buys.

    Compiles the profile rule set twice — at the requested
    ``reduce_level`` and with reduction off — and measures the state
    count of the fused scan automaton (its combined bitset width, the
    quantity every per-byte step pays for), the AH-NBVA STE/BV-STE
    totals that size the hardware mapping, and the fused scan
    throughput over the same input both ways.  The two full match
    streams are compared first: the cell doubles as a
    reduced-vs-unreduced differential tripwire.
    """
    from ..compiler.pipeline import compile_ruleset
    from .fused import fuse_patterns

    profile = PROFILES[profile_name]
    patterns = load_dataset(profile_name, num_patterns, seed)
    data = dataset_stream(
        patterns, random.Random(seed + input_size), input_size,
        profile.literal_pool,
    )
    reduced_options = options
    if reduced_options.reduce_level == 0:
        raise ValueError("bench_reduction needs a reduced configuration")
    unreduced_options = replace(options, reduce_level=0)

    variants: Dict[str, Dict[str, object]] = {}
    streams: Dict[str, List[tuple]] = {}
    for name, opts in (
        ("reduced", reduced_options), ("unreduced", unreduced_options)
    ):
        ruleset = compile_ruleset(patterns, opts)
        fused = fuse_patterns(ruleset.regexes)
        ps = PatternSet(patterns, options=opts, engine="fused")
        try:
            streams[name] = ps.scan(data)  # also warms the matcher
            seconds = _best_of(lambda: ps.scan(data), repeats)
        finally:
            ps.close()
        variants[name] = {
            "seconds": seconds,
            "throughput_mbps": round(
                len(data) / seconds / 1e6 if seconds > 0 else float("inf"), 3
            ),
            "fused_states": fused.num_states,
            "stes": ruleset.num_stes,
            "bv_stes": ruleset.num_bv_stes,
        }
    if streams["reduced"] != streams["unreduced"]:
        raise AssertionError(
            f"reduction changed the match stream: "
            f"{len(streams['reduced'])} events reduced, "
            f"{len(streams['unreduced'])} unreduced"
        )
    before = variants["unreduced"]["fused_states"]
    after = variants["reduced"]["fused_states"]
    cell: Dict[str, object] = {
        "num_patterns": num_patterns,
        "input_bytes": len(data),
        "reduce_level": reduced_options.reduce_level,
        "matches": len(streams["reduced"]),
        "reduced": variants["reduced"],
        "unreduced": variants["unreduced"],
        "state_reduction": round(
            (before - after) / before if before else 0.0, 4
        ),
        "provenance": provenance(),
    }
    unreduced_s = variants["unreduced"]["seconds"]
    reduced_s = variants["reduced"]["seconds"]
    if isinstance(reduced_s, float) and reduced_s > 0:
        cell["reduction_speedup"] = round(unreduced_s / reduced_s, 2)
    return cell


def format_grid(record: Dict[str, object]) -> str:
    """Human-readable table of a :func:`bench_grid` record."""
    lines = [
        f"scan bench — profile {record['profile']}, "
        f"seed {record['seed']}, best of {record['repeats']}",
        f"{'patterns':>9} {'bytes':>8} "
        + " ".join(f"{e:>10}" for e in record["engines"])
        + f" {'fused-vs-' + str(record['baseline_engine']):>12}",
    ]
    for cell in record["grid"]:
        timings = cell["timings"]
        row = f"{cell['num_patterns']:>9} {cell['input_bytes']:>8} "
        row += " ".join(
            f"{timings[e]['throughput_mbps']:>8.2f}MB" if e in timings else f"{'-':>10}"
            for e in record["engines"]
        )
        speedup = cell.get("fused_speedup")
        row += f" {speedup:>11.2f}x" if speedup is not None else f" {'-':>12}"
        lines.append(row)
    scaling = record.get("shard_scaling")
    if scaling:
        lines.append(
            f"shard scaling — {scaling['num_patterns']} patterns, "
            f"{scaling['input_bytes']} bytes, {scaling['cpus']} cpus "
            f"(fused {scaling['fused']['throughput_mbps']:.2f}MB/s)"
        )
        for row in scaling["shards"]:
            speedup = row.get("speedup_vs_fused")
            lines.append(
                f"{row['shards']:>9} workers {row['throughput_mbps']:>8.2f}MB"
                + (f" {speedup:>11.2f}x vs fused" if speedup else "")
            )
    recovery = record.get("recovery")
    if recovery:
        lines.append(
            f"recovery — {recovery['shards']} shards, kill at chunk "
            f"{recovery['kill_chunk']}: clean "
            f"{recovery['clean_s'] * 1e3:.1f}ms, faulted "
            f"{recovery['faulted_s'] * 1e3:.1f}ms "
            f"(+{recovery['recovery_overhead_s'] * 1e3:.1f}ms heal, "
            f"{recovery['replayed_bytes']} bytes replayed)"
        )
    rate_cells = record.get("match_rate_grid")
    if rate_cells:
        lines.append(
            f"match-rate axis — {rate_cells[0]['num_patterns']} patterns, "
            f"{rate_cells[0]['input_bytes']} bytes"
        )
        for cell in rate_cells:
            timings = cell["timings"]
            row = f"{cell['match_rate']:>8.1%} "
            row += " ".join(
                f"{timings[n]['throughput_mbps']:>8.2f}MB"
                for n in FUSED_VARIANTS
                if n in timings
            )
            table = cell.get("table_speedup")
            pref = cell.get("prefilter_speedup")
            if table is not None:
                row += f"  table {table:.2f}x"
            if pref is not None:
                row += f"  prefilter {pref:.2f}x"
            lines.append(row)
    reduction = record.get("reduction")
    if reduction:
        red = reduction["reduced"]
        unred = reduction["unreduced"]
        lines.append(
            f"reduction — {reduction['num_patterns']} patterns at level "
            f"{reduction['reduce_level']}: {unred['fused_states']} -> "
            f"{red['fused_states']} fused states "
            f"({reduction['state_reduction']:.1%} fewer), "
            f"{unred['throughput_mbps']:.2f} -> "
            f"{red['throughput_mbps']:.2f}MB/s fused scan"
        )
    cache = record.get("compile_cache")
    if cache:
        lines.append(
            f"compile cache — {cache['num_patterns']} patterns: "
            f"cold {cache['cold_s'] * 1e3:.1f}ms, "
            f"warm {cache['warm_s'] * 1e3:.1f}ms"
            + (
                f" ({cache['warm_speedup']:.1f}x warm speedup)"
                if "warm_speedup" in cache
                else ""
            )
        )
    return "\n".join(lines)


def write_record(record: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")


def read_record(path: str) -> Optional[Dict[str, object]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
