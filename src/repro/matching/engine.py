"""High-level pattern-matching API over the compiled automata.

:class:`PatternSet` is the library's front door: compile a list of PCRE
patterns once, then scan byte streams with any of the five execution
engines (functional models, not the cycle-accurate simulator):

* ``"ah"``    — AH-NBVA, the model BVAP executes (default);
* ``"nbva"``  — the pre-transformation NBVA (naïve design, Fig. 3(b));
* ``"nca"``   — counter automaton with explicit counter-value sets;
* ``"nfa"``   — fully unfolded Glushkov NFA (the baselines' model);
* ``"fused"`` — all patterns merged into one shared state space and
  advanced with a single bitset step per byte plus a lazy-DFA successor
  cache (:mod:`repro.matching.fused`) — the fast software scan path;
* ``"sharded"`` — the pattern set cost-partitioned onto K worker
  processes, each running a fused shard over broadcast input chunks,
  merged deterministically (:mod:`repro.matching.sharded`) — the
  multi-core scan path.

The first four step each pattern's matcher independently; ``"fused"``
executes the whole set at once and ``"sharded"`` spreads it over
processes.  All six produce identical match streams; the test suite
enforces this and checks them against the brute-force oracle.

Resilience hooks (:mod:`repro.resilience`):

* ``on_error="quarantine"`` isolates per-pattern compile failures into
  :class:`~repro.resilience.report.CompileReport` entries instead of
  aborting the whole set — the surviving patterns scan normally and
  keep their original pattern ids in reported matches;
* a :class:`~repro.resilience.budget.Budget` with ``deadline_s`` makes
  every engine check the wall clock every ``check_bytes`` scanned bytes
  and raise ``BudgetExceededError`` cooperatively;
* a :class:`DegradationPolicy` lets the fused engine shed patterns at
  run time: when the lazy-DFA cache thrashes or the combined active
  mask grows too wide, the widest-active pattern is demoted onto a
  per-pattern fallback engine (state-preserving for ``"nfa"``) and the
  fused automaton is rebuilt without it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .. import telemetry
from ..telemetry import flight, profiler
from .._bits import popcount
from ..automata.nca import NCAMatcher
from ..compiler.pipeline import (
    CompiledRegex,
    CompilerOptions,
    build_unfolded_nfa,
    compile_pattern,
    compile_pattern_isolated,
)
from ..resilience.budget import Budget
from ..resilience.report import (
    STATUS_DEGRADED,
    CompileReport,
)
from .fused import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_SIZE,
    DEFAULT_TABLE_STATES,
    FusedMatcher,
    fuse_patterns,
    remap_active,
    remap_slot_mask,
    subset_fused,
)
from .sharded import ShardedScanner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler.cache import CompileCache

ENGINES = ("ah", "nbva", "nca", "nfa", "fused", "sharded")

ON_ERROR_MODES = ("raise", "quarantine")

#: ``engine.fused.*`` telemetry counters and the :class:`FusedMatcher`
#: attributes whose per-feed deltas they accumulate.
_FUSED_COUNTERS = (
    ("engine.fused.cache_hits", "cache_hits"),
    ("engine.fused.cache_misses", "cache_misses"),
    ("engine.fused.table_hits", "table_hits"),
    ("engine.fused.table_misses", "table_misses"),
    ("engine.fused.skipped_bytes", "prefilter_skipped"),
)


def _per_pattern_events(
    data: bytes, base: int, matchers
) -> List[Tuple[int, int]]:
    """``(end, pattern id)`` events of ``(pattern id, matcher)`` pairs
    over ``data``.  Anchored patterns ride on single-pattern fused
    matchers, which must see whole chunks (their gates are positional);
    the step engines advance one byte at a time."""
    events: List[Tuple[int, int]] = []
    for pattern_id, matcher in matchers:
        if isinstance(matcher, FusedMatcher):
            events.extend(
                (base + offset, pattern_id)
                for _slot, offset in matcher.feed(data)
            )
        else:
            step = matcher.step
            events.extend(
                (base + offset, pattern_id)
                for offset, symbol in enumerate(data)
                if step(symbol)
            )
    return events


@dataclass(frozen=True)
class Match:
    """One reported match: which pattern matched ending at which index.

    ``end`` is chunk-relative in :meth:`PatternSet.feed` output and may
    be ``-1`` there when a ``\\b``-adjusted match straddles a chunk seam
    (the match ended on the previous chunk's final byte);
    :meth:`PatternSet.scan` and :meth:`PatternSet.finish` report absolute
    non-negative offsets.
    """

    pattern_id: int
    end: int  # 0-based index of the last matched byte


@dataclass(frozen=True)
class DegradationPolicy:
    """When and how the fused engine sheds patterns at run time.

    Checked every ``check_bytes`` scanned bytes.  Two triggers:

    * *cache thrash* — the successor cache is full
      (:meth:`~repro.matching.fused.FusedMatcher.cache_full`) and the
      hit rate over the last window dropped below ``min_hit_rate``.
      The cache is the bitset tier's LRU, which serves bytes only once
      the dense table is off or abandoned (and per-byte steps): table
      fills bypass it, and a full table flushes instead of thrashing;
    * *wide activation* — the combined active mask covers more than
      ``max_active_fraction`` of a fused space of at least
      ``min_states_for_width`` states, so every step pays near-worst-case
      big-int work and the cache cannot help.

    Either way the pattern with the widest active slice is demoted onto
    the first workable engine in ``fallback_chain`` and the fused
    automaton is rebuilt without it.  The rebuilt set keeps the
    prefilter and the dense table; only the demoted pattern steps one
    byte at a time.  The ``"nfa"`` fallback transfers
    the pattern's live state bits, so no in-flight match is lost; other
    engines restart the pattern from the empty activation.
    """

    check_bytes: int = 4096
    min_window: int = 1024
    min_hit_rate: float = 0.5
    max_active_fraction: float = 0.75
    min_states_for_width: int = 64
    fallback_chain: Tuple[str, ...] = ("nfa",)
    max_demotions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.check_bytes < 1:
            raise ValueError("check_bytes must be >= 1")
        if self.min_window < 1:
            raise ValueError("min_window must be >= 1")
        if not 0.0 <= self.min_hit_rate <= 1.0:
            raise ValueError("min_hit_rate must be in [0, 1]")
        if not 0.0 < self.max_active_fraction <= 1.0:
            raise ValueError("max_active_fraction must be in (0, 1]")
        if not self.fallback_chain:
            raise ValueError("fallback_chain must name at least one engine")
        for engine in self.fallback_chain:
            if engine not in ENGINES or engine == "fused":
                raise ValueError(
                    f"fallback_chain entries must be per-pattern engines, "
                    f"got {engine!r}"
                )
        if self.max_demotions is not None and self.max_demotions < 0:
            raise ValueError("max_demotions must be >= 0 or None")


@dataclass(frozen=True)
class DegradationEvent:
    """One runtime demotion: which pattern fell back to which engine."""

    pattern_id: int
    engine: str
    reason: str  # "cache_thrash" or "wide_active"


class PatternSet:
    """A set of compiled patterns with a uniform scanning interface.

    >>> ps = PatternSet(["ab{3}c", "xy"])
    >>> [(m.pattern_id, m.end) for m in ps.scan(b"zabbbc xy")]
    [(0, 5), (1, 8)]

    With ``on_error="quarantine"`` a bad pattern no longer aborts the
    batch; it is isolated into :attr:`reports` and the survivors keep
    their original pattern ids:

    >>> ps = PatternSet(["ab", "bad(", "cd"], on_error="quarantine")
    >>> [r.pattern_id for r in ps.reports if r.quarantined]
    [1]
    >>> [(m.pattern_id, m.end) for m in ps.scan(b"ab cd")]
    [(0, 1), (2, 4)]
    """

    def __init__(
        self,
        patterns: Sequence[str],
        options: CompilerOptions = CompilerOptions(),
        engine: str = "ah",
        budget: Optional[Budget] = None,
        on_error: str = "raise",
        degradation: Optional[DegradationPolicy] = None,
        shards: Optional[int] = None,
        shard_backend: str = "process",
        cache: "Optional[CompileCache]" = None,
        prefilter: bool = True,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
            )
        if budget is not None:
            options = replace(options, budget=budget)
        self.options = options
        self.engine = engine
        self.budget = options.budget
        self.on_error = on_error
        self.degradation = degradation
        self._cache = cache
        self.reports: List[CompileReport] = []
        self.degradations: List[DegradationEvent] = []
        self.compiled: List[CompiledRegex] = []
        self._pattern_ids: List[int] = []
        self._next_id = len(patterns)
        self._compile(patterns)
        self._demoted: List[Tuple[int, object]] = []
        self._deg_hits = 0
        self._deg_misses = 0
        self._fused: Optional[FusedMatcher] = None
        self._fused_ids: List[int] = []
        self._fused_compiled: List[CompiledRegex] = []
        self._sharded: Optional[ShardedScanner] = None
        self._prefilter = bool(prefilter)
        self._stream_len = 0
        if engine == "fused":
            self._fused = self._build_fused_matcher(fuse_patterns(self.compiled))
            self._fused_ids = list(self._pattern_ids)
            self._fused_compiled = list(self.compiled)
            self._matchers = []
        elif engine == "sharded":
            cache_bytes = self.budget.max_cache_bytes or DEFAULT_CACHE_BYTES
            self._sharded = ShardedScanner(
                self.compiled,
                self._pattern_ids,
                shards,
                backend=shard_backend,
                cache_bytes=cache_bytes,
                table_states=self._table_states(),
                table_bytes=self.budget.max_cache_bytes,
                prefilter=self._prefilter,
                restart_policy=self.budget.restart,
            )
            self._matchers = []
        else:
            self._matchers = [self._make_matcher(c) for c in self.compiled]

    # -- fused-matcher construction ------------------------------------

    def _table_states(self) -> int:
        """Dense-table state budget: ``Budget.max_table_states`` when set
        (0 disables the table), else the fused default."""
        limit = self.budget.max_table_states
        return DEFAULT_TABLE_STATES if limit is None else limit

    def _build_fused_matcher(
        self, automaton, old: Optional[FusedMatcher] = None
    ) -> FusedMatcher:
        """A :class:`FusedMatcher` over ``automaton`` honouring the set's
        budget and prefilter settings; ``old`` carries cache sizing across
        incremental rebuilds."""
        cache_bytes = self.budget.max_cache_bytes or DEFAULT_CACHE_BYTES
        return FusedMatcher(
            automaton,
            cache_size=old._cache_size if old is not None else DEFAULT_CACHE_SIZE,
            cache_bytes=(
                old._cache_byte_limit if old is not None else cache_bytes
            ),
            table_states=self._table_states(),
            table_bytes=self.budget.max_cache_bytes,
            prefilter=self._prefilter,
        )

    def _rebuild_fused(
        self,
        automaton,
        keep: Sequence[int],
        added: Sequence[CompiledRegex] = (),
    ) -> None:
        """Swap in a matcher over ``automaton``: the old automaton's
        slots ``keep``, in order, then the ``added`` patterns.  The kept
        slots' activation and stream bookkeeping carry across, and an
        added pattern starts empty without re-arming its ``^`` gate
        (offset 0 has already passed)."""
        old = self._fused
        matcher = self._build_fused_matcher(automaton, old=old)
        matcher.active = remap_active(old.fused, keep, old.active)
        matcher._at_start = old._at_start
        matcher._tail_emits = remap_slot_mask(old._tail_emits, keep)
        self._fused = matcher
        self._fused_ids = [self._fused_ids[s] for s in keep] + [
            c.regex_id for c in added
        ]
        self._fused_compiled = [self._fused_compiled[s] for s in keep] + list(
            added
        )

    # -- compilation ---------------------------------------------------

    def _compile(
        self, patterns: Sequence[str], id_base: int = 0
    ) -> List[CompiledRegex]:
        """Compile ``patterns`` (assigned ids ``id_base`` onward) into the
        set; shares :func:`compile_pattern_isolated` with
        :func:`repro.compiler.pipeline.compile_ruleset`, so quarantine
        semantics and cache behaviour are identical.  Returns the newly
        compiled survivors in id order."""
        clock = self.budget.start()
        quarantined = 0
        fresh: List[CompiledRegex] = []
        for offset, pattern in enumerate(patterns):
            regex_id = id_base + offset
            if self.on_error == "raise":
                started = time.perf_counter()
                compiled = (
                    self._cache.get(pattern, self.options, regex_id)
                    if self._cache is not None
                    else None
                )
                if compiled is None:
                    compiled = compile_pattern(
                        pattern, regex_id, self.options, clock=clock
                    )
                    if self._cache is not None:
                        self._cache.put(pattern, self.options, compiled)
                report = CompileReport(
                    pattern_id=regex_id,
                    pattern=pattern,
                    elapsed_s=time.perf_counter() - started,
                )
            else:
                compiled, report = compile_pattern_isolated(
                    pattern, regex_id, self.options,
                    clock=clock, cache=self._cache,
                )
                if report.phase is None and report.quarantined:
                    report.phase = "compile"
            self.reports.append(report)
            if compiled is None:
                quarantined += 1
                if flight.flight_enabled():
                    flight.record(
                        "quarantine",
                        pattern_id=regex_id,
                        error_code=report.error_code,
                        phase=report.phase,
                    )
                continue
            self.compiled.append(compiled)
            self._pattern_ids.append(regex_id)
            fresh.append(compiled)
        if quarantined and telemetry.metrics_enabled():
            telemetry.registry().counter("compile.quarantined").inc(quarantined)
        return fresh

    def _make_matcher(self, compiled: CompiledRegex, engine: Optional[str] = None):
        engine = engine or self.engine
        if compiled.anchors is not None:
            # Anchor gates are positional (stream offset 0 / end of
            # input); the per-pattern step engines have no notion of
            # where the stream is, so every engine hosts an anchored
            # pattern on a single-pattern fused matcher driven through
            # feed()/finish().
            return self._build_fused_matcher(fuse_patterns([compiled]))
        if engine == "ah":
            return compiled.ah.matcher()
        if engine == "nbva":
            return compiled.nbva.matcher()
        if engine == "nca":
            return NCAMatcher(compiled.nbva)
        return build_unfolded_nfa(compiled.parsed).matcher()

    # -- incremental updates -------------------------------------------

    def add_patterns(self, patterns: Sequence[str]) -> List[int]:
        """Compile and add patterns without rebuilding the whole set.

        Returns the pattern ids assigned to ``patterns`` in order (ids
        keep ascending monotonically across the set's lifetime, so they
        never collide with existing or previously removed ids; a
        quarantined addition still consumes its id).  Only the delta is
        integrated: the fused engine appends the new scan NFAs to the
        combined state space (existing activation preserved bit for
        bit), the sharded engine routes each new pattern to the lightest
        shard and restarts only the touched shards, and the per-pattern
        engines just grow their matcher lists.  The resulting match
        stream is byte-identical to a from-scratch build over the same
        patterns with the same ids.
        """
        id_base = self._next_id
        self._next_id += len(patterns)
        fresh = self._compile(patterns, id_base=id_base)
        new_ids = [c.regex_id for c in fresh]
        if fresh:
            if self._sharded is not None:
                self._sharded.add_patterns(fresh, new_ids)
            elif self._fused is not None:
                self._rebuild_fused(
                    fuse_patterns(fresh, base=self._fused.fused),
                    range(len(self._fused_ids)),
                    fresh,
                )
            else:
                self._matchers.extend(
                    self._make_matcher(c) for c in fresh
                )
        return list(range(id_base, self._next_id))

    def remove_patterns(self, pattern_ids: Sequence[int]) -> None:
        """Remove patterns by id without rebuilding the whole set.

        Surviving patterns keep their ids and — on the fused engine —
        their in-flight activation (the active mask is remapped onto the
        re-fused state space).  The sharded engine re-fuses and restarts
        only the shards that held a removed pattern; shards left empty
        are retired.  Removing a quarantined id just drops its report.
        Raises ``ValueError`` for ids the set never assigned.
        """
        remove = set(pattern_ids)
        unknown = remove - {r.pattern_id for r in self.reports}
        if unknown:
            raise ValueError(f"unknown pattern ids: {sorted(unknown)}")
        engine_present = remove.intersection(self._pattern_ids)
        keep_idx = [
            i for i, pid in enumerate(self._pattern_ids)
            if pid not in remove
        ]
        self.reports = [
            r for r in self.reports if r.pattern_id not in remove
        ]
        if self._sharded is not None:
            if engine_present:
                self._sharded.remove_patterns(sorted(engine_present))
        elif self._fused is not None:
            self._demoted = [
                (pid, m) for pid, m in self._demoted if pid not in remove
            ]
            keep_slots = [
                slot for slot, pid in enumerate(self._fused_ids)
                if pid not in remove
            ]
            if len(keep_slots) < len(self._fused_ids):
                self._rebuild_fused(
                    subset_fused(self._fused.fused, keep_slots), keep_slots
                )
        else:
            self._matchers = [self._matchers[i] for i in keep_idx]
        self.compiled = [self.compiled[i] for i in keep_idx]
        self._pattern_ids = [self._pattern_ids[i] for i in keep_idx]

    @property
    def patterns(self) -> List[str]:
        return [c.pattern for c in self.compiled]

    @property
    def quarantined(self) -> Dict[int, CompileReport]:
        """Quarantined patterns by original pattern id."""
        return {r.pattern_id: r for r in self.reports if r.quarantined}

    def reset(self) -> None:
        self._stream_len = 0
        if self._sharded is not None:
            self._sharded.reset()
            return
        if self._fused is not None:
            self._fused.reset()
            for _pattern_id, matcher in self._demoted:
                matcher.reset()
            return
        for matcher in self._matchers:
            matcher.reset()

    def close(self) -> None:
        """Release engine resources (the sharded workers); idempotent.

        The in-process engines hold nothing worth freeing, so plain
        ``with PatternSet(...) as ps:`` is safe for every engine.
        """
        if self._sharded is not None:
            self._sharded.close()

    def __enter__(self) -> "PatternSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def shard_failures(self):
        """Degraded shards (sharded engine only; empty otherwise)."""
        return list(self._sharded.failures) if self._sharded else []

    @property
    def shard_restarts(self):
        """Supervised worker restarts (sharded engine only)."""
        return list(self._sharded.restarts) if self._sharded else []

    @property
    def shard_failovers(self):
        """Shards taken over in-process once their restart budget ran
        out (sharded engine only)."""
        return list(self._sharded.failovers) if self._sharded else []

    # -- scanning ------------------------------------------------------

    def scan(self, data: bytes) -> List[Match]:
        """Scan from a fresh state; report every (pattern, end) event.

        For anchored sets this is ``reset`` + ``feed`` + ``finish``: the
        whole input is the stream, so ``$`` matches deferred to end of
        input are included, merged in (end, pattern id) order.
        """
        self.reset()
        if telemetry.enabled():
            with telemetry.span(
                "engine.scan", "engine", engine=self.engine, symbols=len(data)
            ):
                out = self.feed(data)
        else:
            out = self.feed(data)
        out.extend(self.finish())
        # Chunked engines (sharded's broadcast chunks, budget-stepped
        # feeds) rebase a \b-adjusted seam event to the previous chunk's
        # final byte, which lands out of order in the concatenated feed
        # output; one sort restores the canonical (end, id) stream.
        out.sort(key=lambda m: (m.end, m.pattern_id))
        return out

    def feed(self, data: bytes) -> List[Match]:
        """Continue scanning from the current state (streaming use).

        Reported end offsets are relative to this chunk, for every
        engine (streaming callers track the absolute base themselves);
        a ``\\b``-adjusted match that straddles the seam reports ``-1``,
        i.e. the previous chunk's final byte.  Anchored sets defer their
        ``$`` matches — call :meth:`finish` once the stream ends to
        collect them.  With a ``deadline_s`` budget the clock starts at
        each call and
        is checked every ``check_bytes`` bytes; with a
        :class:`DegradationPolicy` the fused engine re-evaluates its
        thrash/width triggers on the same cadence.
        """
        self._stream_len += len(data)
        feed_block = (
            self._feed_instrumented
            if telemetry.enabled()
            or flight.flight_enabled()
            or profiler.profiling_enabled()
            else self._feed_block
        )
        clock = (
            self.budget.start() if self.budget.deadline_s is not None else None
        )
        degrade = self._fused is not None and self.degradation is not None
        if clock is None and not degrade:
            return feed_block(data, 0)
        step = self.budget.check_bytes
        if degrade:
            step = min(step, self.degradation.check_bytes)
        out: List[Match] = []
        for base in range(0, len(data), step):
            if clock is not None:
                clock.check("scan")
            out.extend(feed_block(data[base : base + step], base))
            if degrade:
                self._maybe_degrade()
        if clock is not None:
            clock.check("scan")
        return out

    def finish(self) -> List[Match]:
        """Finalise the stream: report matches held for the ``$`` gate.

        End-anchored candidates survive as live automaton states until
        end of input; calling ``finish`` declares the stream over and
        reports them.  Ends are absolute — the offset of the stream's
        final byte, counted from the last :meth:`reset` across every
        ``feed`` chunk.  Non-mutating and idempotent: the stream state is
        left intact and un-anchored sets always return ``[]``.
        """
        last = self._stream_len - 1
        pattern_ids: List[int] = []
        if self._sharded is not None:
            pattern_ids = [pid for pid, _end in self._sharded.finish()]
        elif self._fused is not None:
            ids = self._fused_ids
            pattern_ids = [
                ids[slot] for slot, _end in self._fused.finish()
            ]
        else:
            for slot, matcher in enumerate(self._matchers):
                if isinstance(matcher, FusedMatcher) and matcher.finish():
                    pattern_ids.append(self._pattern_ids[slot])
        pattern_ids.sort()
        return [Match(pattern_id, last) for pattern_id in pattern_ids]

    def _feed_block(
        self,
        data: bytes,
        base: int,
        prof: "Optional[profiler.ScanProfiler]" = None,
    ) -> List[Match]:
        """One uninterrupted stretch of the feed loop, and the one scan
        dispatch, instrumented or not: the sharded scanner, the fused
        matcher (sampled by ``prof`` when profiling) merged with any
        demoted patterns, or the per-pattern matchers."""
        if self._sharded is not None:
            return [
                Match(pattern_id, base + end)
                for pattern_id, end in self._sharded.feed(data)
            ]
        fused = self._fused
        if fused is not None:
            ids = self._fused_ids
            fused_events = (
                fused.feed(data) if prof is None
                else prof.feed(fused, data, ids)
            )
            if not self._demoted:
                return [
                    Match(ids[slot], base + offset)
                    for slot, offset in fused_events
                ]
            events = [
                (base + offset, ids[slot]) for slot, offset in fused_events
            ]
            events.extend(_per_pattern_events(data, base, self._demoted))
        else:
            events = _per_pattern_events(
                data, base, zip(self._pattern_ids, self._matchers)
            )
        events.sort()
        return [Match(pattern_id, end) for end, pattern_id in events]

    def _active_count(self) -> int:
        """Active states summed over the fused matcher, the demoted and
        the per-pattern matchers."""
        matchers = [m for _pid, m in self._demoted] + self._matchers
        if self._fused is not None:
            matchers.append(self._fused)
        return sum(m.active_count() for m in matchers)

    def _feed_instrumented(self, data: bytes, base: int = 0) -> List[Match]:
        """:meth:`_feed_block` plus telemetry: the ``engine.feed`` span,
        symbols scanned, matches emitted, the fused matcher's tier
        counters as deltas, one active-state occupancy observation per
        block (the activation left at its end), and the flight record."""
        collect = telemetry.metrics_enabled()
        fused = self._fused
        if fused is not None:
            before = [getattr(fused, attr) for _name, attr in _FUSED_COUNTERS]
        with telemetry.span(
            "engine.feed", "engine", engine=self.engine, symbols=len(data)
        ) as sp:
            out = self._feed_block(data, base, profiler.active_profiler())
            sp.set(matches=len(out))
        if collect:
            registry = telemetry.registry()
            registry.counter("engine.symbols_scanned").inc(len(data))
            registry.counter("engine.matches_emitted").inc(len(out))
            if fused is not None:
                for (name, attr), value in zip(_FUSED_COUNTERS, before):
                    registry.counter(name).inc(getattr(fused, attr) - value)
            # Occupancy lives worker-side on the sharded engine; its
            # orchestrator records the scan.shard.* instruments itself.
            if data and self._sharded is None:
                registry.histogram("engine.active_states").observe(
                    self._active_count()
                )
        if flight.flight_enabled():
            flight.record(
                "scan_chunk",
                engine=self.engine,
                base=base,
                symbols=len(data),
                matches=len(out),
            )
            if fused is not None:
                flight.note_state(
                    engine=self.engine,
                    active_states=self._active_count(),
                    cache_hits=fused.cache_hits,
                    cache_misses=fused.cache_misses,
                    demoted=[pid for pid, _m in self._demoted],
                )
            elif self._sharded is not None:
                flight.note_state(
                    engine=self.engine,
                    shards=self._sharded.num_shards,
                    live_shards=self._sharded.live_shards(),
                    failed_shards=[
                        f.shard for f in self._sharded.failures
                    ],
                    restarts=len(self._sharded.restarts),
                    failovers=len(self._sharded.failovers),
                )
            else:
                flight.note_state(
                    engine=self.engine, active_states=self._active_count()
                )
        return out

    # -- graceful degradation ------------------------------------------

    def _maybe_degrade(self) -> None:
        """Evaluate the degradation triggers at a chunk boundary."""
        fused = self._fused
        policy = self.degradation
        if fused is None or policy is None or not self._fused_ids:
            return
        if (
            policy.max_demotions is not None
            and len(self.degradations) >= policy.max_demotions
        ):
            return
        window_hits = fused.cache_hits - self._deg_hits
        window_misses = fused.cache_misses - self._deg_misses
        self._deg_hits = fused.cache_hits
        self._deg_misses = fused.cache_misses
        window = window_hits + window_misses
        thrash = (
            window >= policy.min_window
            and fused.cache_full()
            and window_hits < policy.min_hit_rate * window
        )
        num_states = fused.fused.num_states
        wide = (
            num_states >= policy.min_states_for_width
            and fused.active_count() >= policy.max_active_fraction * num_states
        )
        if thrash or wide:
            self._demote_widest("cache_thrash" if thrash else "wide_active")

    def _demote_widest(self, reason: str) -> None:
        fused = self._fused
        automaton = fused.fused
        active = fused.active
        best_slot, best_width = 0, -1
        for slot in range(len(self._fused_ids)):
            if self._fused_compiled[slot].anchors is not None:
                # Anchored slots stay fused: the per-pattern fallback
                # engines cannot honour positional gates, and the gated
                # slice drains to a near-empty activation anyway.
                continue
            width = popcount(active & automaton.pattern_mask(slot))
            if width > best_width:
                best_slot, best_width = slot, width
        if best_width < 0:
            return
        self._demote(best_slot, reason)

    def _demote(self, slot: int, reason: str) -> None:
        """Move one fused slot onto a per-pattern fallback engine and
        rebuild the fused automaton without it."""
        fused = self._fused
        automaton = fused.fused
        pattern_id = self._fused_ids[slot]
        compiled = self._fused_compiled[slot]
        base, end = automaton.pattern_slice(slot)
        local_active = (fused.active >> base) & ((1 << (end - base)) - 1)
        matcher = None
        engine_used = None
        for engine in self.degradation.fallback_chain:
            try:
                if engine == "nfa" and automaton.nfas:
                    # The fused slice IS this pattern's scan-NFA activation,
                    # so the handoff preserves every in-flight partial match.
                    matcher = automaton.nfas[slot].matcher()
                    matcher.reset()
                    matcher.active = local_active
                else:
                    matcher = self._make_matcher(compiled, engine)
                    matcher.reset()  # fresh state: in-flight partials drop
                engine_used = engine
                break
            except ValueError:
                matcher = None
        if matcher is None:
            return  # nothing in the chain can host it; stay fused
        keep = [i for i in range(len(self._fused_ids)) if i != slot]
        self._rebuild_fused(subset_fused(automaton, keep), keep)
        self._demoted.append((pattern_id, matcher))
        self._demoted.sort(key=lambda item: item[0])
        self._deg_hits = 0
        self._deg_misses = 0
        self.degradations.append(
            DegradationEvent(pattern_id=pattern_id, engine=engine_used, reason=reason)
        )
        for report in self.reports:
            if report.pattern_id == pattern_id:
                report.status = STATUS_DEGRADED
                report.phase = "scan"
                break
        if telemetry.metrics_enabled():
            telemetry.registry().counter("scan.degraded").inc()
        if flight.flight_enabled():
            flight.record(
                "degradation",
                pattern_id=pattern_id,
                engine=engine_used,
                reason=reason,
            )

    # -- conveniences --------------------------------------------------

    def match_ends(self, data: bytes, pattern_id: int = 0) -> List[int]:
        """End indices for one pattern (fresh scan)."""
        return [m.end for m in self.scan(data) if m.pattern_id == pattern_id]

    def count_matches(self, data: bytes) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for match in self.scan(data):
            counts[match.pattern_id] = counts.get(match.pattern_id, 0) + 1
        return counts
