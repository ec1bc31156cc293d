"""Sharded parallel scan orchestrator: fused shards on worker processes.

The fused engine (:mod:`repro.matching.fused`) collapses a whole pattern
set into one bitset step per byte, but it is single-process — on a
multi-core machine every other core idles.  BVAP itself scales the other
way (§8): many patterns are packed onto independent tiles/arrays/banks
that all consume the same input stream in parallel.  This module is the
software analogue of that decomposition:

1. **Planning** (:func:`plan_shards`): the compiled patterns are
   partitioned into *K* shards by a compile-time cost model
   (:func:`estimate_cost`) combining the scan-NFA state count, the
   widest virtual bit vector, and an activation-ratio hint derived from
   the character-class density of the automaton — the same signals
   :mod:`repro.analysis.characterize` aggregates over rule sets.
   Shards are balanced greedily (longest-processing-time first), the
   classic bank-partitioning heuristic CAMA applies at the hardware
   level.

2. **Execution** (:class:`ShardedScanner`): each shard runs the fused
   engine in a long-lived worker process.  Input chunks are broadcast
   to every worker, and up to :data:`MAX_INFLIGHT_CHUNKS` chunks are in
   flight at once — the software mirror of §6's ping-pong I/O
   buffering: while the workers chew on chunk *i*, chunk *i+1* is
   already in their pipes.

3. **Deterministic merge**: every worker reports ``(pattern_id, end)``
   events per chunk; the orchestrator merges them in ``(end,
   pattern_id)`` order, which is byte-identical to the stream the
   single-process fused engine emits (a dedicated parity test enforces
   this on the golden corpus and the differential fuzzer).

Resilience is a supervised state machine per shard — **healthy →
restarting(backoff) → taken over**:

* Without a :class:`~repro.resilience.budget.RestartPolicy` the
  behaviour is the original degrade-only one: a shard whose worker dies
  (crash, SIGKILL, poisoned automaton) or stops answering is *degraded*,
  never fatal — its patterns stop reporting, the scan completes on the
  surviving shards, the failure is recorded in
  :attr:`ShardedScanner.failures`, and the ``scan.shard.failed`` counter
  is incremented when telemetry is on.
* With a policy (``Budget(restart=RestartPolicy())``) recovery is
  *lossless*.  Every ``checkpoint_chunks`` broadcast chunks each shard
  ships its fused activation snapshot back with the chunk reply; the
  parent holds it as a :class:`ShardCheckpoint` and buffers the tail
  chunks since the oldest live checkpoint.  A failed worker is
  restarted with exponential backoff, seeded from its checkpoint, and
  replays only the buffered tail.  A shard merges each chunk's events
  whole and remembers the last chunk it emitted, so replay emits only
  the chunks after it and the merged stream stays byte-identical to an
  uninterrupted run (the simultaneous-finite-automata seam argument: a
  chunk re-executed from a known entry state composes exactly).  Once
  the policy's restart budget is exhausted the parent *takes the shard
  over*: it runs the shard in-process from the same checkpoint, through
  the same tail replay, and records a :class:`ShardFailover`.

Every shard answers one command protocol (:class:`_ShardCommands`): a
worker process over its pipe, an in-process shard
(:class:`_InlineShard`) behind the same ``send``/``poll``/``recv``
connection interface.  The ``inline`` backend runs every shard that way
— the degenerate single-machine mode used for unit-testing the merge
logic and on platforms without multiprocessing — and a takeover runs
one shard that way.
"""

from __future__ import annotations

import logging
import math
import os
import random
import signal
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..telemetry import flight, profiler
from ..automata.ah import is_counter_free
from ..compiler.pipeline import CompiledRegex
from ..resilience.budget import RestartPolicy
from .fused import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_TABLE_STATES,
    FusedAutomaton,
    FusedMatcher,
    fuse_patterns,
)

log = logging.getLogger("repro.matching.sharded")

#: Default broadcast-chunk size.  Large enough that one pickle
#: round-trip per worker amortises over tens of thousands of scanned
#: bytes, small enough that two in-flight chunks stay cache-friendly.
DEFAULT_CHUNK_BYTES = 1 << 16

#: Ping-pong depth: how many broadcast chunks may be in flight before
#: the orchestrator blocks on the oldest one (§6 I/O double buffering).
MAX_INFLIGHT_CHUNKS = 2

#: How long the orchestrator waits for one shard's chunk reply before
#: declaring the worker hung and degrading the shard.
DEFAULT_RECV_TIMEOUT_S = 60.0

BACKENDS = ("process", "inline")


# ---------------------------------------------------------------------------
# Compile-time cost planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardCost:
    """Cost estimate for scanning one compiled pattern.

    Attributes:
        slot: index into the compiled-pattern list being planned.
        states: estimated scan-NFA state count — the AH-NBVA size for
            counter-free patterns (the graph the fused engine reuses),
            else the fully unfolded Glushkov size.
        bv_width: widest virtual bit vector the pattern demands (0 when
            counter-free after rewriting).
        activation_ratio: mean character-class density of the states in
            ``[0, 1]`` — dense classes keep more states live per byte,
            the activation-ratio signal of ``analysis.characterize``.
        cost: the scalar the planner balances.
    """

    slot: int
    states: int
    bv_width: int
    activation_ratio: float
    cost: float


def estimate_cost(compiled: CompiledRegex, slot: int = 0) -> ShardCost:
    """Estimate the per-byte scan cost one pattern adds to a shard.

    The model is deliberately simple and fully compile-time: cost grows
    linearly with the scan-NFA state count (mask width and closure work),
    is scaled up by the activation ratio (dense classes stay live and
    defeat the lazy-DFA cache), and pays a logarithmic surcharge for wide
    bit vectors (their unfolded scan NFAs branch more).
    """
    ah = compiled.ah
    if is_counter_free(ah):
        states = ah.num_states
        bv_width = 0
    else:
        states = compiled.unfolded_states or 4 * ah.num_states
        bv_width = max(compiled.virtual_widths(), default=0)
    if ah.num_states:
        density = sum(state.cc.size() for state in ah.states) / ah.num_states
        activation = density / 256.0
    else:
        activation = 0.0
    cost = float(max(states, 1)) * (1.0 + activation)
    if bv_width:
        cost *= 1.0 + math.log2(1 + bv_width) / 8.0
    return ShardCost(
        slot=slot,
        states=states,
        bv_width=bv_width,
        activation_ratio=activation,
        cost=cost,
    )


@dataclass
class ShardPlan:
    """The planner's output: which pattern slots land on which shard."""

    shards: List[List[int]]
    costs: List[float]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def balance(self) -> float:
        """Max shard cost over mean shard cost (1.0 = perfectly even)."""
        if not self.costs or not sum(self.costs):
            return 1.0
        mean = sum(self.costs) / len(self.costs)
        return max(self.costs) / mean

    def to_json(self) -> Dict[str, object]:
        return {
            "shards": [list(s) for s in self.shards],
            "costs": [round(c, 3) for c in self.costs],
            "balance": round(self.balance(), 4),
        }


def plan_shards(
    compiled: Sequence[CompiledRegex],
    num_shards: int,
    costs: Optional[Sequence[ShardCost]] = None,
) -> ShardPlan:
    """Partition patterns into at most ``num_shards`` balanced shards.

    Greedy LPT (longest processing time first): sort patterns by
    descending cost, always assign to the currently lightest shard.
    Deterministic — ties break on slot index — so the same pattern set
    always yields the same plan.  Empty shards (more shards than
    patterns) are dropped.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if costs is None:
        costs = [estimate_cost(c, slot) for slot, c in enumerate(compiled)]
    buckets: List[List[int]] = [[] for _ in range(min(num_shards, max(len(compiled), 1)))]
    totals = [0.0] * len(buckets)
    for item in sorted(costs, key=lambda c: (-c.cost, c.slot)):
        lightest = min(range(len(buckets)), key=lambda i: (totals[i], i))
        buckets[lightest].append(item.slot)
        totals[lightest] += item.cost
    shards = [sorted(bucket) for bucket in buckets if bucket]
    totals = [t for bucket, t in zip(buckets, totals) if bucket]
    # Stable shard numbering: order shards by their first (lowest) slot.
    order = sorted(range(len(shards)), key=lambda i: shards[i][0])
    return ShardPlan(
        shards=[shards[i] for i in order], costs=[totals[i] for i in order]
    )


# ---------------------------------------------------------------------------
# Shard side: one command handler, in a worker process or in-process
# ---------------------------------------------------------------------------


class _ShardCommands:
    """The shard end of the worker protocol: one fused matcher.

    Protocol (parent -> shard / shard -> parent):

    * ``("feed", seq, data, want_ckpt)`` -> ``("events", seq,
      [(pattern_id, end), ...], busy_s, stats, snapshot)`` —
      fused-engine feed over one chunk; end offsets are chunk-relative,
      pattern ids are the *original* set ids.  ``stats`` is how far the
      matcher's :meth:`~repro.matching.fused.FusedMatcher.counters` grew
      over this chunk, plus the chunk's ``symbols`` — a dozen ints per
      reply, so shipping it costs nothing measurable; the parent adds
      it up and publishes it under a ``shard`` label.
      ``snapshot`` is the matcher's
      :meth:`~repro.matching.fused.FusedMatcher.state_snapshot` when the
      parent asked for a checkpoint (``want_ckpt``), else ``None``.
    * ``("restore", snapshot)`` -> ``("ok",)`` — adopt a parent-held
      checkpoint (or ``("error", message)`` on an incompatible one);
      ``None`` is the empty activation.  How a reset rewinds a shard
      and how a recovering shard is seeded before replaying the tail.
    * ``("finish",)`` -> ``("finished", [(pattern_id, -1), ...])`` —
      end-of-input finalisation: matches the ``$`` gate held as live
      candidates, reported with the
      :meth:`~repro.matching.fused.FusedMatcher.finish` ``-1``
      convention (the stream's final byte).  Non-mutating.
    * ``("ping", nonce)`` -> ``("pong", nonce)`` — watchdog heartbeat;
      the nonce echo distinguishes a live reply from stale pipe data.
    * ``("corrupt",)`` -> one junk frame (the pipe-corruption chaos
      fault); the shard then continues normally.
    * ``("hang", seconds)`` -> ``("ok",)`` after sleeping that long.

    A worker process also obeys the two commands only a process can:
    see :func:`_shard_worker_main`.
    """

    def __init__(
        self,
        automaton: FusedAutomaton,
        report_ids: Sequence[int],
        cache_bytes: int,
        table_states: int,
        table_bytes: Optional[int],
        prefilter: bool,
    ) -> None:
        self.matcher = FusedMatcher(
            automaton,
            cache_bytes=cache_bytes,
            table_states=table_states,
            table_bytes=table_bytes,
            prefilter=prefilter,
        )
        self.ids = list(report_ids)

    def _scan(self, data: bytes) -> List[Tuple[int, int]]:
        return self.matcher.feed(data)

    def answer(self, message: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The reply to one command."""
        op = message[0]
        matcher = self.matcher
        if op == "feed":
            _, seq, data, want_ckpt = message
            started = time.perf_counter()
            before = matcher.counters()
            ids = self.ids
            events = [(ids[slot], end) for slot, end in self._scan(data)]
            stats = {
                key: value - before[key]
                for key, value in matcher.counters().items()
            }
            stats["symbols"] = len(data)
            return (
                "events",
                seq,
                events,
                time.perf_counter() - started,
                stats,
                matcher.state_snapshot() if want_ckpt else None,
            )
        if op == "restore":
            try:
                if message[1] is None:
                    matcher.reset()
                else:
                    matcher.restore_state(message[1])
            except ValueError as error:
                return ("error", str(error))
            return ("ok",)
        if op == "finish":
            ids = self.ids
            final = [(ids[slot], end) for slot, end in matcher.finish()]
            return ("finished", final)
        if op == "ping":
            return ("pong", message[1])
        if op == "corrupt":
            return ("junk", "corrupted-frame")
        if op == "hang":
            time.sleep(message[1])
            return ("ok",)
        raise ValueError(f"unknown shard command {op!r}")


def _shard_worker_main(conn, *args) -> None:
    """Command loop of one shard worker process.

    :class:`_ShardCommands` (built from ``args``) answers every command
    except the two only a process can obey: ``("fail",)`` hard-exits(1),
    the fault-injection hook tests use to kill a shard deterministically
    mid-stream, and ``("stop",)`` shuts down cleanly.
    """
    shard = _ShardCommands(*args)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; die quietly
            if message[0] == "fail":
                os._exit(1)
            if message[0] == "stop":
                return
            conn.send(shard.answer(message))
    finally:
        conn.close()


class _InlineShard(_ShardCommands):
    """An in-process shard behind the connection interface.

    ``send`` queues a command and ``recv`` answers the oldest one, so
    worker shards sent the same chunk keep stepping in parallel while
    the parent steps this one.  Runs every shard of the ``inline``
    backend and each shard the parent took over.
    """

    def __init__(self, *args, label: str = "shard") -> None:
        super().__init__(*args)
        self.label = label
        self._inbox: deque = deque()

    def _scan(self, data: bytes) -> List[Tuple[int, int]]:
        prof = profiler.active_profiler()
        if prof is None:
            return self.matcher.feed(data)
        # In-process shards are the profiler's multi-binding case: every
        # shard walks the same input, so tallies merge by global pattern
        # id and heatmap buckets line up.
        return prof.feed(self.matcher, data, self.ids, label=self.label)

    def send(self, message: Tuple[Any, ...]) -> None:
        self._inbox.append(message)

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._inbox)

    def recv(self) -> Tuple[Any, ...]:
        try:
            return self.answer(self._inbox.popleft())
        except Exception as error:
            # A crash must not take the parent down: the shard is dead,
            # exactly as a worker whose pipe hit EOF.
            log.exception("in-process %s crashed", self.label)
            raise EOFError(str(error)) from error

    def close(self) -> None:
        self._inbox.clear()


# ---------------------------------------------------------------------------
# Orchestrator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFailure:
    """One degraded shard: which patterns stopped reporting and why."""

    shard: int
    pattern_ids: Tuple[int, ...]
    reason: str  # "died", "timeout", or "send_failed"


@dataclass(frozen=True)
class ShardRestart:
    """One successful supervised worker restart."""

    shard: int
    attempt: int  # 1-based restart attempt that succeeded
    reason: str  # what killed the previous worker
    backoff_s: float
    replayed_bytes: int  # buffered tail re-scanned from the checkpoint


@dataclass(frozen=True)
class ShardFailover:
    """One shard whose restart budget ran out: the parent took it over
    in-process from its checkpoint, so its patterns keep reporting."""

    shard: int
    pattern_ids: Tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class ShardCheckpoint:
    """Parent-held recovery point for one shard.

    ``snapshot`` is the shard's fused activation snapshot after chunk
    ``seq`` (``None`` means the empty activation — the floor checkpoint
    installed at start, reset or re-fuse, before any chunk was
    acknowledged).
    """

    shard: int
    seq: int
    snapshot: Optional[Dict[str, int]]


#: Sentinel a supervised ``_recv_reply`` returns instead of degrading:
#: the caller (the per-seq collector) owns the heal decision.
_FAILED = object()


@dataclass
class _Shard:
    """Parent-side bookkeeping for one shard."""

    index: int
    pattern_ids: List[int]
    automaton: FusedAutomaton
    #: The shard's compiled patterns, kept so incremental add/remove can
    #: re-fuse just this shard without the whole-set compiled list.
    compiled: List[CompiledRegex] = field(default_factory=list)
    #: Running cost-model total; the incremental planner assigns new
    #: patterns to the currently lightest shard by this number.
    cost: float = 0.0
    #: Run by the parent (the inline backend, or a takeover) instead of
    #: a worker process.
    in_process: bool = False
    process: Optional[object] = None  # multiprocessing.Process
    #: Parent end of the duplex pipe, or the :class:`_InlineShard`.
    conn: Optional[object] = None
    alive: bool = True
    events_total: int = 0
    busy_s: float = 0.0
    #: The current worker's counters, summed from the per-chunk growth
    #: each reply ships (see :meth:`ShardedScanner._absorb`); a replaced
    #: worker starts again from empty.
    worker_stats: Dict[str, int] = field(default_factory=dict)
    # Replies can momentarily run ahead of the collector when a chunk's
    # answer arrives while a later chunk is being sent; buffer by seq.
    pending: Dict[int, Tuple[Any, ...]] = field(default_factory=dict)
    #: Last chunk whose events were merged; a replay emits only the
    #: chunks after it.
    emitted: int = -1
    # -- supervision state (unused without a RestartPolicy) ------------
    ckpt: Optional[ShardCheckpoint] = None
    #: Restart-budget spend against ``RestartPolicy.max_restarts``.
    restarts_used: int = 0
    #: Failure noticed but not yet healed ("died"/"timeout"/...).
    fault: Optional[str] = None


class ShardedScanner:
    """Scan a compiled pattern set on K fused shards in parallel.

    The streaming contract is the per-engine one: :meth:`feed` reports
    chunk-relative end offsets and state persists across calls;
    :meth:`reset` rewinds every shard.  Workers are started lazily on
    first use and torn down by :meth:`close` (also via the context
    manager protocol and, best-effort, on garbage collection).

    Args:
        compiled: the compiled patterns (quarantine survivors).
        pattern_ids: original set ids to report, one per compiled entry.
        num_shards: target shard count; defaults to ``os.cpu_count()``
            capped at the pattern count.
        backend: ``"process"`` (default) or ``"inline"``.
        chunk_bytes: broadcast granularity (see module docstring).
        cache_bytes: per-shard lazy-DFA cache budget.
        table_states: per-shard dense-table state budget (0: no table).
        table_bytes: per-shard dense-table byte budget; ``None`` is
            :data:`~repro.matching.fused.DEFAULT_TABLE_BYTES`.
        recv_timeout_s: per-chunk reply deadline before a shard is
            declared hung (the watchdog) and healed or degraded.
        mp_context: a ``multiprocessing`` context; defaults to ``fork``
            where available (cheap start, no automaton re-pickle) else
            the platform default.
        restart_policy: a :class:`~repro.resilience.budget.RestartPolicy`
            arming supervised recovery (checkpoints, bounded restarts
            with backoff, then an in-process takeover); ``None`` keeps
            the original degrade-only behaviour.
        seed: seeds the supervision RNG (backoff jitter) so recovery
            schedules replay deterministically.
    """

    def __init__(
        self,
        compiled: Sequence[CompiledRegex],
        pattern_ids: Optional[Sequence[int]] = None,
        num_shards: Optional[int] = None,
        *,
        backend: str = "process",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        recv_timeout_s: float = DEFAULT_RECV_TIMEOUT_S,
        mp_context=None,
        table_states: int = DEFAULT_TABLE_STATES,
        table_bytes: Optional[int] = None,
        prefilter: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        seed: int = 0,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        if recv_timeout_s <= 0:
            raise ValueError("recv_timeout_s must be positive")
        if pattern_ids is None:
            pattern_ids = [c.regex_id for c in compiled]
        if len(pattern_ids) != len(compiled):
            raise ValueError("pattern_ids and compiled must align")
        if num_shards is None:
            num_shards = max(1, min(len(compiled), os.cpu_count() or 1))
        self.backend = backend
        self.chunk_bytes = chunk_bytes
        self.cache_bytes = cache_bytes
        if table_states < 0:
            raise ValueError("table_states must be >= 0")
        self.table_states = table_states
        self.table_bytes = table_bytes
        self.prefilter = bool(prefilter)
        self.recv_timeout_s = recv_timeout_s
        self._mp_context = mp_context
        self.restart_policy = restart_policy
        self.seed = seed
        self._rng = random.Random(seed)
        self.plan = plan_shards(compiled, num_shards)
        self.failures: List[ShardFailure] = []
        self.restarts: List[ShardRestart] = []
        self.failovers: List[ShardFailover] = []
        self._started = False
        self._closed = False
        #: Next broadcast sequence number since the last reset; persistent
        #: across feeds so checkpoint boundaries stay uniform over the
        #: whole stream.
        self._seq = 0
        #: Buffered tail chunks ``seq -> bytes`` since the oldest live
        #: checkpoint (supervised runs only; bounded by
        #: ``checkpoint_chunks`` plus the in-flight window).
        self._tail: "OrderedDict[int, bytes]" = OrderedDict()
        self._hb_nonce = 0
        ids = list(pattern_ids)
        self._shards: List[_Shard] = [
            self._new_shard(
                index,
                [ids[slot] for slot in slots],
                [compiled[slot] for slot in slots],
                self.plan.costs[index],
            )
            for index, slots in enumerate(self.plan.shards)
        ]

    def _new_shard(self, index, pattern_ids, compiled, cost=0.0) -> _Shard:
        return _Shard(
            index=index,
            pattern_ids=pattern_ids,
            automaton=fuse_patterns(compiled),
            compiled=compiled,
            cost=cost,
            in_process=self.backend == "inline",
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def _supervised(self) -> bool:
        """Supervised recovery is armed."""
        return self.restart_policy is not None

    def _want_ckpt(self, seq: int) -> bool:
        """Whether chunk ``seq`` ends on a checkpoint boundary."""
        policy = self.restart_policy
        return policy is not None and (seq + 1) % policy.checkpoint_chunks == 0

    def _floor_checkpoint(self, shard: _Shard) -> ShardCheckpoint:
        """The empty-activation checkpoint at the current stream point —
        what a shard recovers from before its first real snapshot."""
        return ShardCheckpoint(
            shard=shard.index, seq=self._seq - 1, snapshot=None
        )

    def live_shards(self) -> List[int]:
        return [s.index for s in self._shards if s.alive]

    def worker_pids(self) -> List[Optional[int]]:
        """One pid per shard (None: in-process shard or not started)."""
        return [
            s.process.pid if s.process is not None else None
            for s in self._shards
        ]

    def _context(self):
        if self._mp_context is not None:
            return self._mp_context
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            return multiprocessing.get_context()

    def _start_shard(self, shard: _Shard) -> None:
        """Launch one shard: a worker process, or an in-process shard."""
        args = (
            shard.automaton,
            shard.pattern_ids,
            self.cache_bytes,
            self.table_states,
            self.table_bytes,
            self.prefilter,
        )
        if shard.in_process:
            shard.conn = _InlineShard(*args, label=f"shard-{shard.index}")
            return
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, *args),
            daemon=True,
            name=f"repro-shard-{shard.index}",
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn

    def _stop_shard(self, shard: _Shard) -> None:
        """Tear down one shard's backend, leaving its bookkeeping alone."""
        if shard.conn is not None:
            try:
                if shard.alive:
                    shard.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        if shard.process is not None:
            shard.process.join(timeout=2.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2.0)
            shard.process = None

    def start(self) -> None:
        """Start the workers (idempotent; feed/reset call this lazily)."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        self._started = True
        for shard in self._shards:
            self._start_shard(shard)
            shard.ckpt = self._floor_checkpoint(shard)
        if telemetry.metrics_enabled():
            telemetry.registry().gauge("scan.shard.workers").set(
                len(self.live_shards())
            )

    def close(self) -> None:
        """Tear down every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for shard in self._shards:
            self._stop_shard(shard)
            shard.alive = False

    def __enter__(self) -> "ShardedScanner":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    # -- incremental updates -------------------------------------------

    def _restart_shard(self, shard: _Shard) -> None:
        """Re-fuse one shard after its pattern list changed and relaunch
        only its backend.  The restarted shard resumes from the empty
        activation; untouched shards keep their workers and state.  A
        mid-stream restart also rewinds the shard's stream position, so
        anchored patterns on it re-arm their ``^`` gates at the next
        chunk — the streaming-exactness contract only covers shards
        whose pattern list did not change."""
        shard.automaton = fuse_patterns(shard.compiled)
        shard.pending.clear()
        shard.worker_stats = {}
        shard.ckpt = self._floor_checkpoint(shard)
        if self._started and shard.alive:
            self._stop_shard(shard)
            self._start_shard(shard)

    def add_patterns(
        self,
        compiled: Sequence[CompiledRegex],
        pattern_ids: Optional[Sequence[int]] = None,
    ) -> None:
        """Add compiled patterns, re-fusing only the shards that receive
        them.

        Each pattern is assigned to the currently lightest live shard by
        the running cost totals — the online counterpart of the greedy
        LPT plan — so an add touches (and restarts) as few shards as
        possible.  When every shard has degraded, a fresh shard is
        created to host the new patterns.
        """
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        if pattern_ids is None:
            pattern_ids = [c.regex_id for c in compiled]
        if len(pattern_ids) != len(compiled):
            raise ValueError("pattern_ids and compiled must align")
        touched = []
        for regex, pattern_id in zip(compiled, pattern_ids):
            cost = estimate_cost(regex).cost
            live = [s for s in self._shards if s.alive]
            if not live:
                shard = self._new_shard(len(self._shards), [], [])
                self._shards.append(shard)
                live = [shard]
            shard = min(live, key=lambda s: (s.cost, s.index))
            shard.compiled.append(regex)
            shard.pattern_ids.append(pattern_id)
            shard.cost += cost
            if shard not in touched:
                touched.append(shard)
        for shard in touched:
            self._restart_shard(shard)

    def remove_patterns(self, pattern_ids: Sequence[int]) -> None:
        """Drop patterns, re-fusing only the shards that held them.

        Shards left empty are retired entirely (worker stopped, shard
        removed from the rotation).  Raises ``ValueError`` if any id is
        unknown to the scanner.
        """
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        remove = set(pattern_ids)
        known = {pid for s in self._shards for pid in s.pattern_ids}
        unknown = remove - known
        if unknown:
            raise ValueError(f"unknown pattern ids: {sorted(unknown)}")
        survivors = []
        for shard in self._shards:
            if not remove.intersection(shard.pattern_ids):
                survivors.append(shard)
                continue
            keep = [
                i for i, pid in enumerate(shard.pattern_ids)
                if pid not in remove
            ]
            shard.compiled = [shard.compiled[i] for i in keep]
            shard.pattern_ids = [shard.pattern_ids[i] for i in keep]
            shard.cost = sum(
                estimate_cost(c).cost for c in shard.compiled
            )
            if shard.compiled:
                self._restart_shard(shard)
                survivors.append(shard)
            else:
                self._stop_shard(shard)
        self._shards = survivors

    # -- failure handling ----------------------------------------------

    def _teardown_worker(self, shard: _Shard) -> None:
        """Kill one shard's worker process (SIGKILL — SIGTERM stays
        pending on a SIGSTOPped worker) and drop its counters, leaving
        the shard's plan/checkpoint bookkeeping alone."""
        if shard.conn is not None:
            try:
                shard.conn.close()
            except OSError:
                pass
            shard.conn = None
        if shard.process is not None:
            if shard.process.is_alive():
                shard.process.kill()
            shard.process.join(timeout=2.0)
            shard.process = None
        shard.pending.clear()
        shard.worker_stats = {}

    @staticmethod
    def _exited(shard: _Shard) -> bool:
        """Whether the shard's worker process has exited."""
        return shard.process is not None and not shard.process.is_alive()

    def _degrade(self, shard: _Shard, reason: str) -> None:
        """Mark one shard failed; the scan continues without it."""
        if not shard.alive:
            return
        shard.alive = False
        shard.fault = None
        self._teardown_worker(shard)
        failure = ShardFailure(
            shard=shard.index,
            pattern_ids=tuple(shard.pattern_ids),
            reason=reason,
        )
        self.failures.append(failure)
        log.warning(
            "shard %d degraded (%s); patterns %s stop reporting",
            shard.index,
            reason,
            list(shard.pattern_ids),
        )
        if telemetry.metrics_enabled():
            registry = telemetry.registry()
            registry.counter("scan.shard.failed").inc()
            registry.gauge("scan.shard.workers").set(len(self.live_shards()))
        if flight.flight_enabled():
            flight.record(
                "shard_failure",
                shard=shard.index,
                reason=reason,
                pattern_ids=list(shard.pattern_ids),
            )
            flight.auto_dump(f"shard-{shard.index}-{reason}")

    def _fail_shard(self, shard: _Shard, reason: str):
        """Route one observed worker failure: under supervision mark it
        for healing at the collect barrier, else degrade immediately."""
        if self._supervised:
            if shard.fault is None:
                shard.fault = reason
            return _FAILED
        self._degrade(shard, reason)
        return None

    # -- supervised recovery -------------------------------------------

    def _absorb(
        self,
        shard: _Shard,
        seq: int,
        reply: Tuple[Any, ...],
        gathered: List[Tuple[int, int]],
    ) -> None:
        """Consume one ``events`` reply for chunk ``seq``: add up and
        publish the counter growth it carries, install its checkpoint,
        and merge its events whole, unless the shard already emitted
        that chunk (a replay, whose work still counts)."""
        events, busy_s, stats, snapshot = reply
        shard.busy_s += busy_s
        registry = telemetry.registry() if telemetry.metrics_enabled() else None
        totals = shard.worker_stats
        for key, delta in stats.items():
            totals[key] = totals.get(key, 0) + delta
            if registry is not None and delta:
                registry.counter(f"scan.shard.{key}", shard=shard.index).inc(
                    delta
                )
        if snapshot is not None:
            shard.ckpt = ShardCheckpoint(
                shard=shard.index, seq=seq, snapshot=snapshot
            )
        if seq > shard.emitted:
            shard.emitted = seq
            shard.events_total += len(events)
            gathered.extend(events)
            if registry is not None:
                registry.counter(
                    "scan.shard.events", shard=shard.index
                ).inc(len(events))

    def _prune_tail(self) -> None:
        """Drop buffered tail chunks every live shard has checkpointed
        past; the buffer stays bounded by the checkpoint cadence plus
        the in-flight window."""
        floors = [
            s.ckpt.seq
            for s in self._shards
            if s.alive and s.ckpt is not None
        ]
        if not floors:
            self._tail.clear()
            return
        floor = min(floors)
        while self._tail and next(iter(self._tail)) <= floor:
            self._tail.popitem(last=False)

    def _heal(
        self, shard: _Shard, seq: int, gathered: List[Tuple[int, int]]
    ) -> None:
        """Recover one failed shard at chunk ``seq``: up to the policy's
        ``max_restarts`` worker restarts with backoff, then the parent
        takes the shard over in-process.  Both seed from the shard's
        checkpoint and replay the buffered tail, merging the chunks the
        shard has not emitted yet into ``gathered``.  Degrades only if
        the takeover itself fails."""
        policy = self.restart_policy
        while shard.alive:
            reason = shard.fault or "died"
            shard.fault = None
            self._teardown_worker(shard)
            if shard.in_process:  # nothing left to fall back on
                self._degrade(shard, reason)
                return
            backoff = None
            if shard.restarts_used < policy.max_restarts:
                shard.restarts_used += 1
                backoff = policy.backoff_s(shard.restarts_used, self._rng)
                log.warning(
                    "shard %d worker failed (%s); restart attempt %d/%d "
                    "after %.3fs backoff",
                    shard.index, reason, shard.restarts_used,
                    policy.max_restarts, backoff,
                )
                if backoff > 0:
                    time.sleep(backoff)
            else:
                shard.in_process = True
            ckpt_seq = shard.ckpt.seq
            replayed = self._revive(shard, seq, gathered)
            if replayed is not None:
                self._record_recovery(
                    shard, reason, backoff, replayed, ckpt_seq
                )
                return

    def _revive(
        self, shard: _Shard, seq: int, gathered: List[Tuple[int, int]]
    ) -> Optional[int]:
        """One recovery attempt: relaunch the shard, seed it from its
        checkpoint, replay the buffered tail through chunk ``seq``, and
        re-send the in-flight chunks beyond it (their replies died with
        the old worker).  Returns the replayed byte count, or None when
        the attempt itself failed (``shard.fault`` set)."""
        ckpt = shard.ckpt
        self._start_shard(shard)
        reply = self._ask(shard, ("restore", ckpt.snapshot), "ok", "error")
        if reply is None:
            shard.fault = "restore_failed"
            return None
        if reply[0] != "ok":
            shard.fault = "restore_rejected"
            return None
        replayed = 0
        for s in range(ckpt.seq + 1, seq + 1):
            chunk = self._tail.get(s)
            if chunk is None:  # pruned past a live checkpoint: impossible
                shard.fault = "tail_gap"  # unless bookkeeping broke; bail
                return None
            if not self._send(shard, ("feed", s, chunk, self._want_ckpt(s))):
                return None
            reply = self._recv_reply(shard, s)
            if reply is None or reply is _FAILED:
                return None
            self._absorb(shard, s, reply, gathered)
            replayed += len(chunk)
        # Best-effort: the replay through chunk ``seq`` succeeded and its
        # events are merged, so a resend failure only notes the fault
        # and the next collect heals again from here.
        for later in range(seq + 1, self._seq):
            message = ("feed", later, self._tail[later], self._want_ckpt(later))
            if not self._send(shard, message):
                break
        return replayed

    def _record_recovery(
        self,
        shard: _Shard,
        reason: str,
        backoff: Optional[float],
        replayed: int,
        ckpt_seq: int,
    ) -> None:
        """Record one completed recovery: a worker restart, or (no
        ``backoff``) the parent's takeover of the shard."""
        if backoff is None:
            counter, kind = "scan.shard.failovers", "shard_failover"
            detail = {"pattern_ids": list(shard.pattern_ids)}
            self.failovers.append(
                ShardFailover(
                    shard=shard.index,
                    pattern_ids=tuple(shard.pattern_ids),
                    reason=reason,
                )
            )
            log.warning(
                "shard %d failed permanently (%s); the parent took over "
                "patterns %s in-process, replaying %d tail bytes",
                shard.index, reason, list(shard.pattern_ids), replayed,
            )
        else:
            counter, kind = "scan.shard.restarts", "shard_restart"
            detail = {"attempt": shard.restarts_used}
            self.restarts.append(
                ShardRestart(
                    shard=shard.index,
                    attempt=shard.restarts_used,
                    reason=reason,
                    backoff_s=backoff,
                    replayed_bytes=replayed,
                )
            )
            log.info(
                "shard %d restarted (attempt %d, %s); replayed %d tail bytes",
                shard.index, shard.restarts_used, reason, replayed,
            )
        if telemetry.metrics_enabled():
            registry = telemetry.registry()
            registry.counter(counter).inc()
            registry.counter("scan.shard.replayed_bytes").inc(replayed)
        if flight.flight_enabled():
            flight.record(
                kind,
                shard=shard.index,
                reason=reason,
                replayed_bytes=replayed,
                checkpoint_seq=ckpt_seq,
                **detail,
            )

    def heartbeat(self) -> Dict[int, bool]:
        """Watchdog probe: nonced ping to every live shard.

        Detects a hung (e.g. SIGSTOPped) worker while the stream is
        idle, without waiting for the next chunk's reply deadline.  A
        failed probe marks the shard faulted; under supervision the next
        :meth:`feed` heals it, otherwise it degrades immediately.  Not
        for use with chunks in flight (call between feeds).
        """
        self.start()
        status: Dict[int, bool] = {}
        for shard in self._shards:
            ok = False
            if shard.alive:
                self._hb_nonce += 1
                ping = ("ping", self._hb_nonce)
                ok = self._ask(shard, ping, "pong") is not None
                if not ok:
                    self._fail_shard(
                        shard, "died" if self._exited(shard) else "heartbeat"
                    )
            status[shard.index] = ok
        return status

    def inject_fault(self, shard_index: int, mode: str = "die") -> None:
        """Fault-injection hook for chaos tests.

        * ``"die"`` — the worker hard-exits before its next reply;
        * ``"kill"`` — SIGKILL from outside, no cooperation at all;
        * ``"hang"`` — it sleeps past the reply deadline (watchdog trip);
        * ``"stop"`` — SIGSTOP, the OS-level hang (also a watchdog trip,
          and the restart path must SIGKILL through it);
        * ``"corrupt"`` — one junk frame on the reply pipe;
        * ``"slow"`` — a short stall well under the deadline (must be
          tolerated, not healed).

        Without a :class:`RestartPolicy` the next :meth:`feed`/
        :meth:`reset` degrades the faulted shard; with one it heals.  A
        no-op on an in-process shard (the ``inline`` backend, or a shard
        the parent took over): it has no worker to fault.
        """
        modes = ("die", "kill", "hang", "stop", "corrupt", "slow")
        if mode not in modes:
            raise ValueError(f"mode must be one of {modes}, got {mode!r}")
        self.start()
        shard = self._shards[shard_index]
        if not shard.alive or shard.process is None:
            return
        if mode in ("stop", "kill"):
            if shard.process.is_alive():
                os.kill(
                    shard.process.pid,
                    signal.SIGSTOP if mode == "stop" else signal.SIGKILL,
                )
            return
        message = {
            "die": ("fail",),
            "hang": ("hang", 4 * self.recv_timeout_s),
            "corrupt": ("corrupt",),
            "slow": ("hang", min(0.05, self.recv_timeout_s / 4)),
        }[mode]
        self._send(shard, message)

    # -- scanning ------------------------------------------------------

    def _send(self, shard: _Shard, message) -> bool:
        try:
            shard.conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            self._fail_shard(shard, "send_failed")
            return False
        return True

    def _ask(self, shard: _Shard, message, *tags) -> Optional[Tuple[Any, ...]]:
        """Send one command and wait for its reply, tagged one of
        ``tags`` (a ping's must echo its nonce).  Chunk replies arriving
        meanwhile are kept in ``pending``; stale and junk frames are
        skipped.  None when the pipe broke or the deadline passed."""
        try:
            shard.conn.send(message)
            deadline = time.monotonic() + self.recv_timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                if not shard.conn.poll(min(remaining, 0.25)):
                    continue
                reply = shard.conn.recv()
                if reply[0] in tags and (
                    message[0] != "ping" or reply[1] == message[1]
                ):
                    return reply
                if reply[0] == "events":
                    shard.pending[reply[1]] = tuple(reply[2:])
        except (EOFError, OSError, ValueError, BrokenPipeError):
            return None

    def _recv_reply(self, shard: _Shard, seq: int):
        """One shard's reply for chunk ``seq``.

        Returns the ``(events, busy_s, stats, snapshot)`` payload, None
        once the shard degraded, or :data:`_FAILED` when a supervised
        shard needs healing (the collector owns that decision)."""
        if not shard.alive:
            return None
        if shard.fault is not None:
            return _FAILED
        if seq in shard.pending:
            return shard.pending.pop(seq)
        deadline = time.monotonic() + self.recv_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return self._fail_shard(shard, "timeout")
            try:
                if not shard.conn.poll(min(remaining, 0.25)):
                    continue
                message = shard.conn.recv()
            except (EOFError, OSError):
                return self._fail_shard(shard, "died")
            if message[0] != "events":
                continue  # stale ok / junk frame from an interleaved op
            _, got_seq, events, busy_s, stats, snapshot = message
            if got_seq == seq:
                return events, busy_s, stats, snapshot
            shard.pending[got_seq] = (events, busy_s, stats, snapshot)

    def _collect(self, seq: int, base: int) -> List[Tuple[int, int]]:
        """Merge all live shards' events for one chunk, rebased to the
        chunk offset, in the fused engine's ``(end, pattern_id)`` order.

        Supervised shards that failed this chunk are healed (restart →
        takeover) right here, so the merge already contains their
        replayed events."""
        gathered: List[Tuple[int, int]] = []
        failed: List[_Shard] = []
        for shard in self._shards:
            reply = self._recv_reply(shard, seq)
            if reply is _FAILED:
                failed.append(shard)
            elif reply is not None:
                self._absorb(shard, seq, reply, gathered)
        for shard in failed:
            self._heal(shard, seq, gathered)
        if self._supervised:
            self._prune_tail()
        gathered.sort(key=lambda event: (event[1], event[0]))
        return [(pattern_id, base + end) for pattern_id, end in gathered]

    def feed(self, data: bytes) -> List[Tuple[int, int]]:
        """Scan one chunk stream from the current state.

        Returns ``(pattern_id, end)`` events with ends relative to
        ``data`` — the same contract as
        :meth:`repro.matching.fused.FusedMatcher.feed`.
        """
        self.start()
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        if not data:
            return []
        wall_started = time.perf_counter()
        busy_before = [s.busy_s for s in self._shards]
        out: List[Tuple[int, int]] = []
        inflight: deque = deque()
        for base in range(0, len(data), self.chunk_bytes):
            chunk = data[base : base + self.chunk_bytes]
            seq = self._seq
            if self._supervised:
                # Buffer the tail chunk *before* broadcasting, so a
                # send-time failure can already replay it.
                self._tail[seq] = chunk
            message = ("feed", seq, chunk, self._want_ckpt(seq))
            for shard in self._shards:
                # A faulted shard gets its missed chunks replayed from
                # the buffered tail when the collector heals it.
                if shard.alive and shard.fault is None:
                    self._send(shard, message)
            inflight.append((seq, base))
            self._seq += 1
            if len(inflight) >= MAX_INFLIGHT_CHUNKS:
                out.extend(self._collect(*inflight.popleft()))
        while inflight:
            out.extend(self._collect(*inflight.popleft()))
        self._record_metrics(data, out, wall_started, busy_before)
        return out

    def finish(self) -> List[Tuple[int, int]]:
        """Finalise the stream: matches every shard held for the ``$``
        gate, merged in pattern-id order.

        Events follow the
        :meth:`repro.matching.fused.FusedMatcher.finish` convention —
        ``(pattern_id, -1)``, the stream's final byte.  Non-mutating and
        only valid between feeds (no chunks in flight).  A supervised
        shard that is faulted or fails to answer is healed (its
        checkpoint + tail replay restore the end-of-stream activation)
        and asked again; an unsupervised one degrades.
        """
        self.start()
        if self._closed:
            raise RuntimeError("ShardedScanner is closed")
        out: List[Tuple[int, int]] = []
        for shard in self._shards:
            while shard.alive:
                reply = None
                if shard.fault is None:
                    reply = self._ask(shard, ("finish",), "finished")
                if reply is not None:
                    out.extend(reply[1])
                    break
                if self._fail_shard(shard, "finish_failed") is _FAILED:
                    # Healing replays through the last broadcast chunk,
                    # which the shard already emitted: nothing new.
                    self._heal(shard, self._seq - 1, [])
        out.sort()
        return out

    def _record_metrics(
        self,
        data: bytes,
        out: List[Tuple[int, int]],
        wall_started: float,
        busy_before: List[float],
    ) -> None:
        if not telemetry.metrics_enabled():
            return
        wall = time.perf_counter() - wall_started
        registry = telemetry.registry()
        registry.counter("scan.shard.bytes").inc(
            len(data) * len(self.live_shards())
        )
        registry.counter("scan.shard.matches").inc(len(out))
        registry.gauge("scan.shard.workers").set(len(self.live_shards()))
        if wall > 0:
            for shard, before in zip(self._shards, busy_before):
                registry.gauge(
                    "scan.shard.occupancy", shard=shard.index
                ).set(min((shard.busy_s - before) / wall, 1.0))

    def reset(self) -> None:
        """Rewind every live shard to the empty activation.

        A supervised shard that is faulted or fails to acknowledge gets
        a brand-new backend instead; that spends nothing from the
        restart budget, since the empty activation *is* the target
        state and there is no tail to replay.
        """
        if self._closed or not self._started:
            return  # fresh scanners are already at the empty activation
        self._tail.clear()
        self._seq = 0
        for shard in self._shards:
            if not shard.alive:
                continue
            shard.pending.clear()
            shard.emitted = -1
            shard.ckpt = self._floor_checkpoint(shard)
            if shard.fault is None and self._ask(
                shard, ("restore", None), "ok"
            ) is not None:
                continue
            reason = "died" if self._exited(shard) else "timeout"
            if self._fail_shard(shard, reason) is _FAILED:
                shard.fault = None
                self._teardown_worker(shard)
                self._start_shard(shard)

    def scan(self, data: bytes) -> List[Tuple[int, int]]:
        """Fresh-state :meth:`feed` plus end-of-input finalisation, as
        :meth:`repro.matching.fused.FusedMatcher.scan` does: ``$``
        candidates report at the last byte, and the stream comes out in
        ``(end, pattern_id)`` order."""
        self.reset()
        out = self.feed(data)
        last = len(data) - 1
        out.extend((pattern_id, last) for pattern_id, _end in self.finish())
        out.sort(key=lambda event: (event[1], event[0]))
        return out

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Orchestrator statistics for telemetry/bench reporting."""
        return {
            "num_shards": self.num_shards,
            "live_shards": len(self.live_shards()),
            "plan": self.plan.to_json(),
            "failures": [
                {
                    "shard": f.shard,
                    "pattern_ids": list(f.pattern_ids),
                    "reason": f.reason,
                }
                for f in self.failures
            ],
            "restarts": [
                {
                    "shard": r.shard,
                    "attempt": r.attempt,
                    "reason": r.reason,
                    "backoff_s": round(r.backoff_s, 4),
                    "replayed_bytes": r.replayed_bytes,
                }
                for r in self.restarts
            ],
            "failovers": [
                {
                    "shard": f.shard,
                    "pattern_ids": list(f.pattern_ids),
                    "reason": f.reason,
                }
                for f in self.failovers
            ],
            "events_per_shard": {
                s.index: s.events_total for s in self._shards
            },
            "worker_stats": {
                s.index: dict(s.worker_stats) for s in self._shards
            },
        }
