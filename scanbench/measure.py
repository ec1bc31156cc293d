"""Timed and traced repetitions of one workload.

Every repetition runs in a child forked from the benchmark process, so
each starts from the same memory image: the inputs and reference
digests are shared, nothing a previous repetition warmed survives (the
dense table and LRU outlive ``reset()``, so a reused scanner would
measure a warm cache), and the child's peak resident memory is its own.

A timed repetition goes through the public ``PatternSet`` API with all
instrumentation off.  A traced repetition calls each layer's public
functions itself, wrapped in the benchmark's own spans, builds the
``FusedMatcher`` with the arguments ``PatternSet`` would use, and must
emit exactly the timed repetition's events.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import statistics
import sys
import traceback
import tracemalloc
import uuid
from array import array
from dataclasses import replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import PatternSet, telemetry
from repro.automata.ah import is_counter_free
from repro.compiler import CompilerOptions
from repro.compiler.pipeline import build_scan_nfa, compile_pattern
from repro.matching.fused import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_SIZE,
    DEFAULT_TABLE_STATES,
    FusedMatcher,
    fuse_nfas,
)
from repro.matching.sharded import ShardedScanner
from repro.resilience.budget import Budget, RestartPolicy
from repro.telemetry import flight, profiler
from repro.workloads import import_rules

import reference
from spans import Recorder
from workloads import SHARDS, Inputs

#: Where traced runs write their spans, inside the benchmark directory.
TRACE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Records timed through both ``PatternSet.scan`` and ``FusedMatcher.scan``
#: for ``engine.wrap_us``.
WRAP_RECORDS = 30_000


class GuardError(RuntimeError):
    """A measurement-path guard failed; the run measures nothing."""


# -- forked repetitions ----------------------------------------------------


def in_child(func: Callable[..., Any], *args: Any) -> Any:
    """``func(*args)`` in a forked child; its result or a re-raised error."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps(("ok", func(*args)))
            except BaseException:
                payload = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"repetition died with wait status {status}")
    kind, value = pickle.loads(payload)
    if kind == "error":
        raise RuntimeError(f"repetition failed:\n{value}")
    return value


class FastestTimes:
    """Each operation's fastest time over a run's repetitions.

    The times live in a shared anonymous mapping that every forked
    repetition folds its own times into, so the runner receives a few
    numbers per repetition and its heap, which every later repetition
    inherits, stays as it was: a heap holding freed space would let a
    repetition grow without new pages and read low on memory.
    """

    def __init__(self, operations: int) -> None:
        self._map = mmap.mmap(-1, 8 * operations)
        self.values = memoryview(self._map).cast("d")
        for index in range(operations):
            self.values[index] = math.inf

    def fold(self, times: Sequence[float]) -> None:
        values = self.values
        for index, took in enumerate(times):
            if took < values[index]:
                values[index] = took


# -- guards ----------------------------------------------------------------


def instrumentation_off() -> None:
    """Telemetry, the flight recorder or the profiler would route
    ``PatternSet.feed`` through ``_feed_instrumented``; tracemalloc
    slows every allocation by an order of magnitude."""
    if telemetry.enabled() or flight.flight_enabled() or profiler.profiling_enabled():
        raise GuardError("telemetry, flight recorder or profiler is on")
    if tracemalloc.is_tracing():
        raise GuardError("tracemalloc is tracing")


def check_no_quarantine(imported: Sequence[Any], sets: Sequence[PatternSet]) -> None:
    """A dropped rule makes the scan faster, so it fails the run."""
    for ruleset in imported:
        if ruleset.summary.quarantined:
            raise GuardError(f"{ruleset.summary.quarantined} rule lines quarantined")
    for pattern_set in sets:
        if pattern_set.quarantined:
            raise GuardError(f"patterns quarantined: {sorted(pattern_set.quarantined)}")


def budget_for(inputs: Inputs) -> Budget:
    """``RestartPolicy()`` defaults arm supervision on the sharded engine."""
    return Budget(restart=RestartPolicy()) if inputs.spec.engine == "sharded" else Budget()


def matcher_args(budget: Budget) -> Dict[str, Any]:
    """The ``FusedMatcher`` arguments ``PatternSet`` derives from ``budget``."""
    limit = budget.max_table_states
    return {
        "cache_size": DEFAULT_CACHE_SIZE,
        "cache_bytes": budget.max_cache_bytes or DEFAULT_CACHE_BYTES,
        "table_states": DEFAULT_TABLE_STATES if limit is None else limit,
        "table_bytes": budget.max_cache_bytes,
        "prefilter": True,
    }


# -- resident memory -------------------------------------------------------


def _status(pid: str = "self") -> Dict[str, int]:
    """VmRSS and VmHWM of a process, in kB (empty once it has exited)."""
    out: Dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                key, _sep, rest = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    out[key] = int(rest.split()[0])
    except OSError:
        pass
    return out


def _children() -> List[str]:
    """Pids of this process's live children (the shard workers)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(entry)
    return found


def _touch(inputs: Inputs) -> int:
    """Fault the shared input pages in before the memory baseline."""
    return sum(chunk.count(0) for chunk in inputs.chunks) + sum(
        record.count(0) for record in inputs.records
    )


# -- timed repetition ------------------------------------------------------


def _setup(inputs: Inputs):
    """Pattern strings or rule lines to scanners ready for their first
    byte; also returns the imported rulesets for the quarantine check."""
    spec = inputs.spec
    if spec.kind == "records":
        imported = [import_rules(lines) for lines in inputs.rule_lines]
        sets = [PatternSet(r.accepted_patterns, engine=spec.engine) for r in imported]
        return sets, imported
    if spec.engine == "sharded":
        ps = PatternSet(
            inputs.patterns, engine="sharded", shards=SHARDS, budget=budget_for(inputs)
        )
        ps.feed(b"")  # starts the workers
        return [ps], []
    return [PatternSet(inputs.patterns, engine=spec.engine)], []


def _events(matches) -> List[tuple]:
    return [(m.pattern_id, m.end) for m in matches]


def timed_rep(
    inputs: Inputs, expected: Sequence[str], fastest: Optional[FastestTimes] = None
) -> Dict[str, Any]:
    """One set-up plus one scan through ``PatternSet``, timed and checked
    against ``expected``; the per-call times are folded into
    ``fastest``."""
    instrumentation_off()
    _touch(inputs)
    stream = inputs.spec.kind == "stream"
    # Bookkeeping is allocated before the memory baseline, so the peak
    # growth is the engine's: per-call times go into a preallocated
    # array and only non-empty event lists are kept.
    op_s = array("d", bytes(8 * inputs.operations))
    raw: List[Optional[list]] = [None] * inputs.operations
    raised: List[int] = []
    rss0 = _status()["VmRSS"]
    started = perf_counter()
    sets, imported = _setup(inputs)
    setup_s = perf_counter() - started
    workers = {pid: _status(pid).get("VmRSS", 0) for pid in _children()}
    try:
        check_no_quarantine(imported, sets)
        for pattern_set in sets:
            if pattern_set.engine != inputs.spec.engine:
                raise GuardError(f"engine {pattern_set.engine!r} is not {inputs.spec.engine!r}")
        instrumentation_off()
        if stream:
            ps = sets[0]
            for index, chunk in enumerate(inputs.chunks):
                t0 = perf_counter()
                try:
                    out = ps.feed(chunk)
                except Exception:  # counted in failed_share, never fatal
                    out = None
                    raised.append(index)
                op_s[index] = perf_counter() - t0
                if out:
                    raw[index] = out
            t0 = perf_counter()
            try:
                out = ps.finish()
            except Exception:
                out = None
                raised.append(len(inputs.chunks))
            op_s[-1] = perf_counter() - t0
            raw[-1] = out or None
        else:
            owners = inputs.owner
            for index, record in enumerate(inputs.records):
                ps = sets[owners[index]]
                t0 = perf_counter()
                try:
                    out = ps.scan(record)
                except Exception:
                    out = None
                    raised.append(index)
                op_s[index] = perf_counter() - t0
                if out:
                    raw[index] = out
        instrumentation_off()
        grown = _status()["VmHWM"] - rss0
        for pid, start in workers.items():
            grown += max(0, _status(pid).get("VmHWM", start) - start)
    finally:
        for pattern_set in sets:
            pattern_set.close()
    digests: List[Optional[str]] = [
        reference.digest(_events(out or ())) for out in raw
    ]
    for index in raised:
        digests[index] = None
    if fastest is not None:
        fastest.fold(op_s)
    return {
        "setup_s": setup_s,
        "scan_s": sum(op_s),
        "peak_rss_mb": grown * 1024 / 1e6,
        "errors": len(raised),
        **reference.checked(digests, expected),
    }


# -- traced repetition -----------------------------------------------------


def _traced_compile(rec: Recorder, patterns, options, tallies: Dict[str, float]):
    """``compile_pattern`` per pattern, with telemetry on so the
    existing ``compile.*`` spans split the time by phase (summed into
    ``tallies``)."""
    clock = options.budget.start()
    compiled = []
    with telemetry.session(trace=True, metrics=False):
        for regex_id, pattern in enumerate(patterns):
            with rec.span("pipeline.compile_pattern"):
                compiled.append(compile_pattern(pattern, regex_id, options, clock=clock))
        for name, agg in telemetry.tracer().summary().items():
            tallies[name] = tallies.get(name, 0.0) + agg["total_us"] * 1e-6
    telemetry.reset()
    return compiled


def _traced_fused(rec: Recorder, patterns, options, tallies) -> FusedMatcher:
    compiled = _traced_compile(rec, patterns, options, tallies)
    nfas = []
    for regex in compiled:
        with rec.span("pipeline.build_scan_nfa"):
            nfas.append(build_scan_nfa(regex))
    tallies["pipeline.scan_nfa_states"] = tallies.get(
        "pipeline.scan_nfa_states", 0
    ) + sum(nfa.num_states for nfa in nfas)
    with rec.span("fused.fuse_nfas"):
        fused = fuse_nfas(nfas, literals=[regex.literals for regex in compiled])
        fused.sources = [
            "ah" if r.anchors is None and is_counter_free(r.ah) else "unfolded"
            for r in compiled
        ]
    with rec.span("fused.FusedMatcher"):
        return FusedMatcher(fused, **matcher_args(options.budget))


def _traced_sharded(rec: Recorder, patterns, options, tallies) -> ShardedScanner:
    compiled = _traced_compile(rec, patterns, options, tallies)
    budget = options.budget
    args = matcher_args(budget)
    with rec.span("sharded.ShardedScanner"):
        scanner = ShardedScanner(
            compiled,
            list(range(len(compiled))),
            SHARDS,
            backend="process",
            cache_bytes=args["cache_bytes"],
            table_states=args["table_states"],
            prefilter=args["prefilter"],
            restart_policy=budget.restart,
        )
    with rec.span("sharded.start"):
        scanner.start()
    return scanner


class _TierWatch:
    """Peak table size and the offset of the first table fallback,
    read from ``table_info()`` between operations."""

    def __init__(self) -> None:
        self.states = 0
        self.bytes = 0
        self.fallback_offset = -1

    def observe(self, matchers: Sequence[FusedMatcher], offset: int) -> None:
        infos = [m.table_info() for m in matchers]
        self.states = max(self.states, sum(i["states"] for i in infos))
        self.bytes = max(self.bytes, sum(i["bytes"] for i in infos))
        if self.fallback_offset < 0 and any(i["fallbacks"] for i in infos):
            self.fallback_offset = offset


def _fused_layers(
    matchers: Sequence[FusedMatcher], watch: _TierWatch, scan_bytes: int
) -> Dict[str, float]:
    tables = [m.table_info() for m in matchers]
    caches = [m.cache_info() for m in matchers]
    table_steps = sum(t["steps_table"] for t in tables)
    bitset_steps = sum(t["steps_bitset"] for t in tables)
    bitset_s = sum(t["seconds_bitset"] for t in tables)
    hits = sum(c["hits"] for c in caches)
    lookups = hits + sum(c["misses"] for c in caches)
    plans = [m.prefilter_info() or {} for m in matchers]
    return {
        "fused.states": sum(m.fused.num_states for m in matchers),
        "fused.prefilter_skipped_share": sum(p.get("skipped_bytes", 0) for p in plans) / scan_bytes,
        "fused.prefilter_armed_share": sum(p.get("armed_bytes", 0) for p in plans) / scan_bytes,
        "fused.table_step_share": table_steps / max(1, table_steps + bitset_steps),
        "fused.table_s": sum(t["seconds_table"] for t in tables),
        "fused.table_states": watch.states,
        "fused.table_bytes": watch.bytes,
        "fused.table_fallback_mb": (
            -1.0 if watch.fallback_offset < 0 else watch.fallback_offset / 1e6
        ),
        "fused.lru_hit_ratio": hits / lookups if lookups else 0.0,
        "fused.lru_bytes": sum(c["bytes"] for c in caches),
        "fused.bitset_steps": bitset_steps,
        "fused.bitset_s": bitset_s,
        "fused.bitset_ns_per_step": bitset_s / bitset_steps * 1e9 if bitset_steps else 0.0,
    }


def _wrap_us(inputs: Inputs, imported, matchers: Sequence[FusedMatcher]) -> float:
    """Median ``PatternSet.scan`` minus median ``FusedMatcher.scan`` on
    the same records, interleaved call by call."""
    sets = [PatternSet(r.accepted_patterns, engine="fused") for r in imported]
    wrapped: List[float] = []
    bare: List[float] = []
    pairs = list(zip(inputs.records, inputs.owner))[:WRAP_RECORDS]
    for record, owner in pairs:
        t0 = perf_counter()
        sets[owner].scan(record)
        t1 = perf_counter()
        matchers[owner].scan(record)
        t2 = perf_counter()
        wrapped.append(t1 - t0)
        bare.append(t2 - t1)
    return (statistics.median(wrapped) - statistics.median(bare)) * 1e6


def traced_rep(inputs: Inputs, expected: Sequence[str]) -> Dict[str, Any]:
    """One set-up plus one scan through the layers, inside spans,
    checked against ``expected``."""
    instrumentation_off()
    spec = inputs.spec
    rec = Recorder(uuid.uuid4().hex[:12])
    options = replace(CompilerOptions(), budget=budget_for(inputs))
    tallies: Dict[str, float] = {}
    imported: List[Any] = []
    matchers: List[FusedMatcher] = []
    scanner: Optional[ShardedScanner] = None
    with rec.span("setup"):
        if spec.kind == "records":
            for lines in inputs.rule_lines:
                with rec.span("rulesets.import_rules"):
                    imported.append(import_rules(lines))
                matchers.append(
                    _traced_fused(rec, imported[-1].accepted_patterns, options, tallies)
                )
        elif spec.engine == "sharded":
            scanner = _traced_sharded(rec, inputs.patterns, options, tallies)
        else:
            matchers.append(_traced_fused(rec, inputs.patterns, options, tallies))
    check_no_quarantine(imported, [])
    raw: List[list] = []
    watch = _TierWatch()
    offset = 0
    sharded: Dict[str, float] = {}
    try:
        if spec.kind == "records":
            for record, owner in zip(inputs.records, inputs.owner):
                matcher = matchers[owner]
                with rec.span("fused.scan"):
                    matcher.reset()  # FusedMatcher.scan, split at finish()
                    with rec.span("fused.feed"):
                        out = matcher.feed(record)
                    with rec.span("fused.finish"):
                        final = matcher.finish()
                    if final:
                        out.extend((slot, len(record) - 1) for slot, _end in final)
                        out.sort(key=lambda event: (event[1], event[0]))
                raw.append(out)
                watch.observe(matchers, offset)
                offset += len(record)
        elif scanner is None:
            matcher = matchers[0]
            for chunk in inputs.chunks:
                with rec.span("fused.feed"):
                    raw.append(matcher.feed(chunk))
                watch.observe(matchers, offset)
                offset += len(chunk)
            with rec.span("fused.finish"):
                final = matcher.finish()
            raw.append(sorted((slot, offset - 1) for slot, _end in final))
        else:
            sharded = _traced_sharded_scan(rec, scanner, inputs, raw)
    finally:
        if scanner is not None:
            scanner.close()
    scan_names = ("fused.scan",) if spec.kind == "records" else (
        "fused.feed", "fused.finish", "sharded.feed"
    )
    layers = _layer_metrics(rec, tallies)
    layers.update(sharded)
    if matchers:
        layers.update(_fused_layers(matchers, watch, inputs.scan_bytes))
    if spec.kind == "records":
        layers["engine.wrap_us"] = _wrap_us(inputs, imported, matchers)
    os.makedirs(TRACE_DIR, exist_ok=True)
    # One file per workload and seed: the latest traced repetition's spans.
    rec.write(os.path.join(TRACE_DIR, f"{spec.name}-seed{inputs.seed}.jsonl.gz"))
    return {
        "setup_s": rec.total("setup"),
        "scan_s": sum(rec.total(name) for name in scan_names),
        **reference.checked([reference.digest(out) for out in raw], expected),
        "layers": layers,
    }


def _traced_sharded_scan(
    rec: Recorder, scanner: ShardedScanner, inputs: Inputs, raw: List[list]
) -> Dict[str, float]:
    """Feed through the shards with metrics on (never tracing), reading
    the existing ``scan.shard.*`` instruments after every chunk."""
    busy = wall = 0.0
    round_trips = 0
    telemetry.reset()
    telemetry.enable(trace=False, metrics=True)
    try:
        for chunk in inputs.chunks:
            with rec.span("sharded.feed"):
                raw.append(scanner.feed(chunk))
            took = rec.spans[-1].duration
            live = scanner.live_shards()
            busy += took * sum(
                telemetry.gauge("scan.shard.occupancy", shard=i).value for i in live
            )
            wall += took * len(live)
            round_trips += math.ceil(len(chunk) / scanner.chunk_bytes) * len(live)
        with rec.span("sharded.finish"):
            final = scanner.finish()
        round_trips += len(scanner.live_shards())
        raw.append(sorted((pid, inputs.scan_bytes - 1) for pid, _end in final))
        bytes_out = telemetry.counter("scan.shard.bytes").value
    finally:
        telemetry.disable()
        telemetry.reset()
    stats = scanner.stats()["worker_stats"].values()
    hits = sum(s.get("cache_hits", 0) for s in stats)
    lookups = hits + sum(s.get("cache_misses", 0) for s in stats)
    return {
        "sharded.busy_share": busy / wall if wall else 0.0,
        "sharded.round_trips": round_trips,
        "sharded.bytes_out": bytes_out,
        "sharded.restarts": len(scanner.restarts),
        "fused.lru_hit_ratio": hits / lookups if lookups else 0.0,
        "fused.table_fallback_mb": -1.0,  # the tables live in the workers
    }


#: Per-layer metric -> the benchmark spans whose self times it sums.
_SPAN_LAYERS = {
    "rulesets.import_s": ("rulesets.import_rules",),
    "pipeline.compile_s": ("pipeline.compile_pattern",),
    "pipeline.scan_nfa_s": ("pipeline.build_scan_nfa",),
    "fused.fuse_s": ("fused.fuse_nfas",),
    "fused.init_s": ("fused.FusedMatcher",),
    "fused.finish_s": ("fused.finish", "sharded.finish"),
    "sharded.start_s": ("sharded.ShardedScanner", "sharded.start"),
    "sharded.feed_s": ("sharded.feed",),
}
#: Per-layer metric -> the ``compile.*`` telemetry span it sums.
_PHASE_LAYERS = {
    "parser.parse_s": "compile.parse",
    "rewrite.rewrite_s": "compile.rewrite",
    "translate.translate_s": "compile.translate",
    "reduce.reduce_s": "compile.reduce",
    "anchors.anchor_s": "compile.anchor",
}


def _layer_metrics(rec: Recorder, tallies: Dict[str, float]) -> Dict[str, float]:
    own = rec.self_times()
    out = {
        metric: sum(own.get(name, 0.0) for name in names)
        for metric, names in _SPAN_LAYERS.items()
    }
    out.update({metric: tallies.get(name, 0.0) for metric, name in _PHASE_LAYERS.items()})
    out["pipeline.scan_nfa_states"] = tallies.get("pipeline.scan_nfa_states", 0)
    return out
