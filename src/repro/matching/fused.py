"""Fused multi-pattern scan engine: one bitset step for the whole set.

The per-pattern engines in :mod:`repro.matching.engine` dispatch into
every pattern's matcher for every input byte — a 100-pattern rule set
costs 100 Python calls per byte.  This module merges all compiled
patterns into **one** shared state space and advances the whole set with
a single big-int bitset step per byte, the software analogue of how BVAP
maps many regexes onto one tile array (§8) and of simultaneous-automata
style data-parallel matching (see PAPERS.md).

Construction (:func:`fuse_patterns`):

* every pattern contributes its scanning NFA — the pruned AH-NBVA state
  graph when it is counter-free, else the fully unfolded Glushkov NFA
  (:func:`repro.compiler.pipeline.build_scan_nfa`);
* each pattern's states are offset-remapped into one combined
  ``classes`` / ``transitions`` / ``initial`` / ``final`` space;
* a ``final state -> pattern_id`` report map recovers which pattern
  fired from the combined active mask.

Execution (:class:`FusedMatcher`) layers three stepping tiers, fastest
first, all producing byte-identical match streams:

1. **Literal prefilter** — when every gated pattern *requires* some
   literal (:mod:`repro.compiler.prefilter`), each chunk is swept with
   C-speed ``bytes.find`` probes and the automaton's gated start states
   are only armed inside ``[occurrence - pre, occurrence]`` windows
   around the hits (plus an unconditional tail window covering
   occurrences that straddle into the next chunk).  Outside those
   windows the activation decays with *reduced* start-state injection
   and, once empty, the remaining gap is skipped outright.
2. **Dense transition table** — hot activation masks are interned as
   dense state ids and stepped through flat ``array``-backed rows keyed
   by byte-equivalence classes (two bytes are equivalent iff they select
   the same fused match mask), with a precomputed fired-pattern tuple
   per state.  Missing entries are filled lazily by the uncached bitset
   step.  The table is bounded by a state-count and byte budget
   (:class:`repro.resilience.budget.Budget`): a full table is emptied
   in place and refilled from the current mask, as RE2 resets its DFA
   cache, and is abandoned for tier 3 only when the interval since the
   previous flush scanned fewer than :data:`MIN_BYTES_PER_FILL` bytes
   per fill.
3. **Bitset stepping with a lazy-DFA cache** — the big-int closure step
   memoised as ``(active_mask, byte) -> (next_mask, fired pattern ids)``
   in a bounded LRU.  It serves scans with the table off
   (``table_states=0``) or abandoned, and per-byte :meth:`step` calls.

Soundness of the prefilter rests on a monotone-arming argument: arming
start states at a *superset* of the true match-start positions never
changes the reported stream (extra partials either die or re-derive
matches the full stepping would also report, and NFA set semantics
dedupes them), and the find-plus-tail windows provably cover every true
match start of a gated pattern.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from .._bits import popcount
from ..automata.ah import is_counter_free
from ..automata.nfa import NFA, build_match_masks, mask_to_states, states_to_mask
from ..compiler.pipeline import CompiledRegex, build_scan_nfa
from ..compiler.prefilter import PatternLiterals
from ..telemetry import flight
from ..telemetry.profiler import byte_class_ids

#: Default bound on the bitset tier's lazy-DFA successor cache.  Entries
#: are a handful of Python ints each; 1<<15 keeps even adversarial
#: streams far below the footprint of the automata themselves.
DEFAULT_CACHE_SIZE = 1 << 15

#: Default byte budget for the successor cache.  Entry cost is estimated
#: from the *bit length of the masks* (a 10k-state fused set stores ~2.5kB
#: of big-int per entry, a 100-state set ~100B), so wide pattern sets are
#: bounded by memory footprint, not entry count.
DEFAULT_CACHE_BYTES = 16 << 20

#: Default bound on interned dense-DFA states for the table tier; 0
#: disables the table.  A stream's working set of activation masks is
#: far smaller than the states it visits overall, so a full table is
#: flushed and refilled rather than abandoned.
DEFAULT_TABLE_STATES = 4096

#: Default byte budget for the dense table (rows + interned masks).
DEFAULT_TABLE_BYTES = 8 << 20

#: A full table is abandoned for the bitset tier when the interval since
#: the previous flush scanned fewer bytes than this per table fill.  Not
#: a knob: RegexLib-64 streams measure 34-142 bytes per fill, far above
#: it, while sets that mint a new mask every few bytes (RegexLib-16 with
#: 50% planted matches, about 5.5; sliding gaps such as ``a.{6}b``,
#: about 1) fall under it.  The table breaks even with the bitset tier
#: nearer 2 bytes per fill (docs/matching.md), so the bar errs toward
#: the bitset tier.
MIN_BYTES_PER_FILL = 10

#: Estimated fixed overhead per cache entry (dict slot, key/value tuples,
#: int headers) in bytes, on top of the mask payloads.
_ENTRY_OVERHEAD_BYTES = 200

#: Estimated fixed overhead per interned table state (dict slot, mask,
#: fired tuple) in bytes, on top of the transition rows.
_STATE_OVERHEAD_BYTES = 120

#: Cap on the total number of distinct literals one prefilter plan may
#: sweep per chunk; beyond this the ``bytes.find`` probes stop paying
#: for themselves and the hint-heaviest patterns stay always-on.
MAX_PLAN_LITERALS = 32


def entry_bytes(active: int, next_mask: int, report_len: int = 0) -> int:
    """Estimated resident bytes of one ``(active, symbol) -> (next, fired)``
    cache entry, keyed on the bit length of both masks."""
    return (
        _ENTRY_OVERHEAD_BYTES
        + active.bit_length() // 8
        + next_mask.bit_length() // 8
        + 32 * report_len
    )


@dataclass
class FusedAutomaton:
    """All patterns of a set remapped into one shared NFA state space.

    Attributes:
        classes: per-state character class over the combined space.
        transitions: per-state successor lists (combined indices).
        initial: start-anywhere states, re-armed every symbol.
        state_pattern: owning ``pattern_id`` for every combined state.
        finals: reporting state -> ``pattern_id`` report map.
        offsets: first combined state index of each pattern (the remap
            base; ``offsets[i+1] - offsets[i]`` is pattern *i*'s size).
        sources: per-pattern automaton provenance, ``"ah"`` when the
            counter-free AH-NBVA graph was reused, ``"unfolded"`` for
            the Glushkov fallback.
        nfas: the original per-pattern NFAs (kept so the set can be
            re-fused without recompiling: a pattern peeled back out for
            runtime demotion or removal, or new patterns appended).
        literals: per-pattern prefilter contracts
            (:class:`repro.compiler.prefilter.PatternLiterals`; ``None``
            entries stay always-on).  Empty when unknown, which disables
            prefiltering entirely.
        boi: combined initial states armed *only at stream offset 0*
            (the ``^`` start gate from anchor lowering).
        eoi_finals: candidate-final state -> ``pattern_id`` for ``$``
            variants; reported only by end-of-input finalisation.
        adjust_finals: final state -> ``pattern_id`` for ``\\b`` confirm
            variants; reported per-byte at ``end - 1``.
    """

    classes: List
    transitions: List[List[int]]
    initial: Set[int]
    state_pattern: List[int]
    finals: Dict[int, int]
    offsets: List[int]
    sources: List[str] = field(default_factory=list)
    nfas: List[NFA] = field(default_factory=list)
    literals: List[Optional[PatternLiterals]] = field(default_factory=list)
    boi: Set[int] = field(default_factory=set)
    eoi_finals: Dict[int, int] = field(default_factory=dict)
    adjust_finals: Dict[int, int] = field(default_factory=dict)

    @property
    def anchored(self) -> bool:
        """True when any pattern carries positional (anchor) gates."""
        return bool(self.boi or self.eoi_finals or self.adjust_finals)

    @property
    def num_states(self) -> int:
        return len(self.classes)

    @property
    def num_patterns(self) -> int:
        return len(self.offsets)

    def pattern_slice(self, pattern_id: int) -> Tuple[int, int]:
        """Half-open combined-state index range owned by ``pattern_id``."""
        base = self.offsets[pattern_id]
        end = (
            self.offsets[pattern_id + 1]
            if pattern_id + 1 < len(self.offsets)
            else self.num_states
        )
        return base, end

    def pattern_mask(self, pattern_id: int) -> int:
        """Bit mask selecting ``pattern_id``'s states in a combined mask."""
        base, end = self.pattern_slice(pattern_id)
        return ((1 << (end - base)) - 1) << base


def fuse_nfas(
    nfas: Sequence[NFA],
    literals: Optional[Sequence[Optional[PatternLiterals]]] = None,
) -> FusedAutomaton:
    """Offset-remap a list of per-pattern NFAs into one combined space."""
    classes: List = []
    transitions: List[List[int]] = []
    initial: Set[int] = set()
    state_pattern: List[int] = []
    finals: Dict[int, int] = {}
    offsets: List[int] = []
    boi: Set[int] = set()
    eoi_finals: Dict[int, int] = {}
    adjust_finals: Dict[int, int] = {}
    for pattern_id, nfa in enumerate(nfas):
        base = len(classes)
        offsets.append(base)
        classes.extend(nfa.classes)
        transitions.extend(
            [base + dst for dst in dsts] for dsts in nfa.transitions
        )
        initial.update(base + state for state in nfa.initial)
        state_pattern.extend([pattern_id] * nfa.num_states)
        for state in nfa.final:
            finals[base + state] = pattern_id
        boi.update(base + state for state in nfa.boi)
        for state in nfa.eoi:
            eoi_finals[base + state] = pattern_id
        for state in nfa.adjust:
            adjust_finals[base + state] = pattern_id
    if literals is not None and len(literals) != len(nfas):
        raise ValueError("literals and nfas must align")
    return FusedAutomaton(
        classes=classes,
        transitions=transitions,
        initial=initial,
        state_pattern=state_pattern,
        finals=finals,
        offsets=offsets,
        nfas=list(nfas),
        literals=list(literals) if literals is not None else [],
        boi=boi,
        eoi_finals=eoi_finals,
        adjust_finals=adjust_finals,
    )


def subset_fused(fused: FusedAutomaton, keep: Sequence[int]) -> FusedAutomaton:
    """Re-fuse only the pattern slots in ``keep`` (in the given order).

    The slot -> combined-state remap of the dropped automaton is undone
    by re-fusing the kept per-pattern NFAs, which is cheap because the
    originals are retained on :attr:`FusedAutomaton.nfas` — no pattern
    recompiles.  Pair with :func:`remap_active` to carry a live
    activation across the rebuild.
    """
    out = fuse_nfas([fused.nfas[slot] for slot in keep])
    if fused.sources:
        out.sources = [fused.sources[slot] for slot in keep]
    if fused.literals:
        out.literals = [fused.literals[slot] for slot in keep]
    return out


def remap_slot_mask(mask: int, keep: Sequence[int]) -> int:
    """Translate a per-slot bitmask across a ``subset_fused`` rebuild.

    Bit ``keep[i]`` of ``mask`` becomes bit ``i``; dropped slots' bits
    vanish.  Used to carry :class:`FusedMatcher` stream bookkeeping that
    is indexed by pattern slot (``_tail_emits``) across incremental
    removes and runtime demotions.
    """
    out = 0
    for index, slot in enumerate(keep):
        if (mask >> slot) & 1:
            out |= 1 << index
    return out


def remap_active(fused: FusedAutomaton, keep: Sequence[int], active: int) -> int:
    """Translate an ``fused`` active mask onto ``subset_fused(fused, keep)``.

    Kept slots' state bits shift down to their new combined offsets;
    dropped slots' bits vanish.  In-flight partial matches of surviving
    patterns are therefore preserved exactly.
    """
    new_active = 0
    shift = 0
    for slot in keep:
        low, high = fused.pattern_slice(slot)
        new_active |= ((active >> low) & ((1 << (high - low)) - 1)) << shift
        shift += high - low
    return new_active


def fuse_patterns(
    compiled: Sequence[CompiledRegex], base: Optional[FusedAutomaton] = None
) -> FusedAutomaton:
    """Fuse a whole compiled pattern set (see module docstring).

    With ``base``, its retained patterns come first and keep their
    combined state indices, so an in-flight activation of ``base`` stays
    valid and the appended patterns start from the empty activation
    (incremental ``add_patterns``).  ``base`` is not modified.
    """
    nfas: List[NFA] = []
    sources: List[str] = []
    literals: List[Optional[PatternLiterals]] = []
    if base is not None:
        # A base fused without provenance or prefilter contracts (plain
        # fuse_nfas) keeps its slots "unknown" and always-on.
        nfas = list(base.nfas)
        sources = list(base.sources) or ["unknown"] * len(nfas)
        literals = list(base.literals) or [None] * len(nfas)
    for regex in compiled:
        nfas.append(build_scan_nfa(regex))
        # Anchored patterns execute the gated per-variant unfolded union
        # regardless of counter-freeness.
        sources.append(
            "ah"
            if regex.anchors is None and is_counter_free(regex.ah)
            else "unfolded"
        )
        literals.append(regex.literals)
    fused = fuse_nfas(nfas, literals=literals)
    fused.sources = sources
    return fused


def build_fused(
    compiled: Sequence[CompiledRegex],
    cache_size: int = DEFAULT_CACHE_SIZE,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    table_states: int = DEFAULT_TABLE_STATES,
    table_bytes: Optional[int] = None,
    prefilter: bool = True,
) -> "FusedMatcher":
    """Convenience: fuse and wrap in a matcher in one call."""
    return FusedMatcher(
        fuse_patterns(compiled),
        cache_size=cache_size,
        cache_bytes=cache_bytes,
        table_states=table_states,
        table_bytes=table_bytes,
        prefilter=prefilter,
    )


class _PrefilterPlan:
    """The merged, chunk-time view of a pattern set's literal contracts.

    ``hints`` is the deduplicated ``(literal, pre)`` sweep list;
    ``open_initial`` the injection mask of the always-on (non-gated)
    patterns; ``tail`` the unconditional end-of-chunk arming width that
    covers literal occurrences straddling into the next chunk; and
    ``skippable`` whether a drained activation allows skipping bytes at
    all (only when *every* pattern is gated).
    """

    __slots__ = ("hints", "open_initial", "tail", "gated", "skippable")

    def __init__(
        self,
        hints: Tuple[Tuple[bytes, int], ...],
        open_initial: int,
        tail: int,
        gated: FrozenSet[int],
    ) -> None:
        self.hints = hints
        self.open_initial = open_initial
        self.tail = tail
        self.gated = gated
        self.skippable = open_initial == 0


def _build_plan(fused: FusedAutomaton) -> Optional[_PrefilterPlan]:
    """Build the prefilter plan for ``fused``; None when nothing is gated."""
    literals = fused.literals
    if not literals or len(literals) != fused.num_patterns:
        return None
    entries = [
        (slot, lits) for slot, lits in enumerate(literals) if lits is not None
    ]
    if not entries:
        return None
    # Cap the per-chunk find sweep: un-gate the hint-heaviest patterns
    # until the combined literal set is small enough to pay off.
    total = sum(len(lits.hints) for _, lits in entries)
    if total > MAX_PLAN_LITERALS:
        entries.sort(key=lambda entry: len(entry[1].hints))
        while entries and total > MAX_PLAN_LITERALS:
            _, dropped = entries.pop()
            total -= len(dropped.hints)
    if not entries:
        return None
    gated = frozenset(slot for slot, _ in entries)
    open_initial = 0
    state_pattern = fused.state_pattern
    for state in fused.initial:
        if state_pattern[state] not in gated:
            open_initial |= 1 << state
    merged: Dict[bytes, int] = {}
    for _, lits in entries:
        for hint in lits.hints:
            prev = merged.get(hint.literal)
            if prev is None or hint.pre > prev:
                merged[hint.literal] = hint.pre
    hints = tuple(
        sorted(merged.items(), key=lambda item: (-len(item[0]), item[0]))
    )
    tail = max(pre + len(literal) for literal, pre in hints) - 1
    return _PrefilterPlan(hints, open_initial, tail, gated)


class FusedMatcher:
    """Tiered simulator for a :class:`FusedAutomaton` (see module docstring).

    The streaming contract mirrors the per-pattern engines: state
    persists across :meth:`feed` calls, reported end offsets are
    relative to the current chunk, and :meth:`reset` rewinds to the
    empty activation (the dense table and lazy-DFA cache survive resets
    — they memoise the automaton, not the stream).
    """

    def __init__(
        self,
        fused: FusedAutomaton,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        table_states: int = DEFAULT_TABLE_STATES,
        table_bytes: Optional[int] = None,
        prefilter: bool = True,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        if cache_bytes < 1:
            raise ValueError("cache_bytes must be positive")
        if table_states < 0:
            raise ValueError("table_states must be >= 0")
        if table_bytes is None:
            table_bytes = DEFAULT_TABLE_BYTES
        if table_bytes < 1:
            raise ValueError("table_bytes must be positive")
        self.fused = fused
        self._match_masks = build_match_masks(fused.classes)
        self._initial_mask = states_to_mask(fused.initial)
        self._final_mask = states_to_mask(fused.finals)
        self._succ_masks = [states_to_mask(dsts) for dsts in fused.transitions]
        self._state_pattern = fused.state_pattern
        # -- anchor gates --------------------------------------------------
        self._boi_mask = states_to_mask(fused.boi)
        self._eoi_mask = states_to_mask(fused.eoi_finals)
        self._adjust_mask = states_to_mask(fused.adjust_finals)
        self._anchored = fused.anchored
        #: Per-byte injection mask: ``^``-gated start states are armed
        #: only by the dedicated stream-offset-0 step, never per byte.
        self._inject_initial = self._initial_mask & ~self._boi_mask
        self._cache_size = cache_size
        self._cache_byte_limit = cache_bytes
        self._cache_bytes = 0
        #: ``(active_mask, symbol) -> (next_mask, fired, fired_adjust)``
        #: pattern-id tuples; reduced-injection entries share the dict
        #: under ``symbol | 256``.
        self._cache: "OrderedDict[Tuple[int, int], Tuple[int, Tuple[int, ...], Tuple[int, ...]]]"
        self._cache = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        # -- prefilter tier ------------------------------------------------
        self._prefilter = bool(prefilter)
        self._plan = _build_plan(fused) if prefilter else None
        self._open_initial = (
            self._plan.open_initial
            if self._plan is not None
            else self._initial_mask
        ) & ~self._boi_mask
        #: Start-state injection per memo key: full, then reduced
        #: (``symbol | 256``, the prefilter's unarmed spans).
        self._injections = (self._inject_initial, self._open_initial)
        self.prefilter_skipped = 0
        self.prefilter_armed = 0
        # -- table tier ----------------------------------------------------
        self._table_states = table_states
        self._table_byte_limit = table_bytes
        self._table_bytes = 0
        self.table_hits = 0
        self.table_misses = 0
        self.table_promotes = 0
        self.table_flushes = 0
        self.table_fallbacks = 0
        self.table_steps = 0
        self.bitset_steps = 0
        self.table_seconds = 0.0
        self.bitset_seconds = 0.0
        #: ``table_steps`` and ``table_misses`` at the previous flush.
        self._flush_steps = 0
        self._flush_misses = 0
        self._table_live = table_states > 0
        self._num_classes = 0
        self._state_ids: Dict[int, int] = {}
        self._state_masks: List[int] = []
        #: Per state: ``(slot, back)`` reports, ending ``back`` bytes early.
        self._state_emits: List[Tuple[Tuple[int, int], ...]] = []
        self._tab_full = array("i")
        self._tab_open: Optional[array] = None
        if self._table_live:
            class_of_byte, num_classes = byte_class_ids(self._match_masks)
            self._class_table = bytes(class_of_byte)
            self._num_classes = num_classes
            reps = [0] * num_classes
            for byte in range(255, -1, -1):
                reps[class_of_byte[byte]] = byte
            self._class_rep = reps
            self._blank_row = array("i", [-1]) * num_classes
            if self._plan is not None:
                self._tab_open = array("i")
            self._intern(0)
        self.reset()

    def reset(self) -> None:
        self.active = 0
        #: True until the first stream byte is consumed — the window in
        #: which ``^``-gated start states may be armed.
        self._at_start = True
        #: Slot mask of patterns that emitted an event ending exactly at
        #: the previous feed's final byte; suppresses cross-chunk and
        #: finalisation duplicates of the same match end.
        self._tail_emits = 0

    # -- state snapshot / restore -------------------------------------

    #: Snapshot document version, bumped on shape changes (v2 added the
    #: anchor-gate stream state: ``at_start`` and ``tail_emits``).
    STATE_VERSION = 2

    def state_snapshot(self) -> Dict[str, int]:
        """The matcher's complete stream-dependent state, picklable.

        The activation mask *is* the whole story: counters are unfolded
        away in the scan NFAs, and the dense table / lazy-DFA cache
        memoise the automaton, not the stream, so a fresh matcher
        restored from this snapshot produces a byte-identical event
        stream from here on.  This is what makes checkpointed crash
        recovery in :mod:`repro.matching.sharded` lossless: snapshot at
        a chunk boundary, replay the tail from the snapshot, and the
        seam composes exactly (the simultaneous-finite-automata
        argument).
        """
        return {
            "version": self.STATE_VERSION,
            "active": self.active,
            "num_states": self.fused.num_states,
            "at_start": int(self._at_start),
            "tail_emits": self._tail_emits,
        }

    def restore_state(self, snapshot: Dict[str, int]) -> None:
        """Adopt a :meth:`state_snapshot` taken on a compatible matcher.

        Raises ``ValueError`` on a version mismatch or an activation
        mask that does not fit this automaton's state space.
        """
        version = snapshot.get("version")
        if version != self.STATE_VERSION:
            raise ValueError(
                f"unsupported fused snapshot version {version!r}"
            )
        active = snapshot["active"]
        if active < 0 or active >> self.fused.num_states:
            raise ValueError(
                f"snapshot activation does not fit {self.fused.num_states} "
                "states"
            )
        self.active = active
        self._at_start = bool(snapshot["at_start"])
        self._tail_emits = snapshot["tail_emits"]

    # -- one combined transition -------------------------------------

    def _step(self, active: int, symbol: int, inject: int) -> int:
        """The raw bitset step: OR the successor masks of every active
        state onto ``inject`` (the start states armed at this byte), then
        keep the states whose class accepts ``symbol``.  Uncached."""
        succ = self._succ_masks
        while active:
            low = active & -active
            inject |= succ[low.bit_length() - 1]
            active ^= low
        return inject & self._match_masks[symbol]

    def _reports(self, mask: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Pattern ids of the final and ``\\b`` confirm states in ``mask``."""
        fired = mask & self._final_mask
        fired_adj = mask & self._adjust_mask
        return (
            self._report_ids(fired) if fired else (),
            self._report_ids(fired_adj) if fired_adj else (),
        )

    def _advance(
        self, active: int, symbol: int
    ) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
        """The bitset tier's memoised step: :meth:`_step` behind the LRU.
        ``symbol | 256`` selects the reduced injection of the prefilter's
        unarmed spans, where only the always-on patterns' start states
        re-arm."""
        cache = self._cache
        key = (active, symbol)
        hit = cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            cache.move_to_end(key)
            return hit
        self.cache_misses += 1
        next_mask = self._step(
            active, symbol & 255, self._injections[symbol >> 8]
        )
        entry = (next_mask, *self._reports(next_mask))
        cache[key] = entry
        self._cache_bytes += entry_bytes(
            active, next_mask, len(entry[1]) + len(entry[2])
        )
        while (
            len(cache) > self._cache_size
            or self._cache_bytes > self._cache_byte_limit
        ) and cache:
            old_key, old_entry = cache.popitem(last=False)
            self._cache_bytes -= entry_bytes(
                old_key[0], old_entry[0], len(old_entry[1]) + len(old_entry[2])
            )
        return entry

    def _report_ids(self, fired: int) -> Tuple[int, ...]:
        """Pattern ids firing in ``fired``, deduplicated, ascending."""
        owners = self._state_pattern
        ids = set()
        while fired:
            low = fired & -fired
            ids.add(owners[low.bit_length() - 1])
            fired ^= low
        return tuple(sorted(ids))

    # -- dense table tier ---------------------------------------------
    #
    # State ``sid`` owns the row ``sid * num_classes`` of ``_tab_full``
    # and ``_tab_open``.  An entry is -1 until filled, else the row of
    # the successor, bit-inverted when that successor reports (state 0,
    # the empty activation, never reports, so ``~row`` never reads -1).
    # The inner loops then test one sign per byte instead of looking up
    # the successor's reports.

    def _intern(self, mask: int, served: int = 0) -> int:
        """Dense id of ``mask``, interning it on first sight.  A full
        table is flushed first (``served``: the current span's table
        bytes so far); -1 when it was abandoned instead."""
        sid = self._state_ids.get(mask)
        if sid is not None:
            return sid
        if (
            len(self._state_masks) >= self._table_states
            or self._table_bytes >= self._table_byte_limit
        ) and not self._flush(served):
            return -1
        sid = len(self._state_masks)
        self._state_ids[mask] = sid
        self._state_masks.append(mask)
        report, report_adj = self._reports(mask)
        self._state_emits.append(
            tuple((slot, 0) for slot in report)
            + tuple((slot, 1) for slot in report_adj)
        )
        self._tab_full.extend(self._blank_row)
        rows = 1
        if self._tab_open is not None:
            self._tab_open.extend(self._blank_row)
            rows = 2
        self._table_bytes += (
            _STATE_OVERHEAD_BYTES
            + rows * 4 * self._num_classes
            + mask.bit_length() // 8
        )
        self.table_promotes += 1
        return sid

    def _fill(self, row: int, cls: int, armed: bool, served: int) -> int:
        """Compute one missing table entry with the uncached bitset step
        and return it.  Returns -1 once the table is abandoned, with
        ``self.active`` set to ``row``'s mask for the bitset tier to
        resume from."""
        self.table_misses += 1
        nc = self._num_classes
        mask = self._state_masks[row // nc]
        flushes = self.table_flushes
        inject = self._injections[not armed]  # unarmed: reduced injection
        sid = self._intern(
            self._step(mask, self._class_rep[cls], inject), served
        )
        if sid < 0:
            self.active = mask
            return -1
        entry = ~(sid * nc) if self._state_emits[sid] else sid * nc
        if self.table_flushes == flushes:  # else ``row`` is gone
            (self._tab_full if armed else self._tab_open)[row + cls] = entry
        return entry

    def _flush(self, served: int) -> bool:
        """Empty the full table in place so scanning continues through
        it; False, having abandoned the table, when the interval since
        the previous flush scanned fewer than :data:`MIN_BYTES_PER_FILL`
        bytes per fill (refilling would cost more than bitset stepping)."""
        steps = self.table_steps + served
        fills = self.table_misses - self._flush_misses
        if steps - self._flush_steps < MIN_BYTES_PER_FILL * fills:
            self._table_blowup()
            return False
        self._flush_steps = steps
        self._flush_misses = self.table_misses
        self.table_flushes += 1
        self._clear_table()
        self._intern(0)
        if telemetry.metrics_enabled():
            telemetry.registry().counter("scan.table.flush").inc()
        return True

    def _clear_table(self) -> None:
        """Drop every interned state, keeping the containers the table
        loop holds references to."""
        self._state_ids.clear()
        self._state_masks.clear()
        self._state_emits.clear()
        del self._tab_full[:]
        if self._tab_open is not None:
            del self._tab_open[:]
        self._table_bytes = 0

    def _table_blowup(self) -> None:
        """Permanent mid-scan fallback to bitset stepping: refilling the
        table no longer pays, so stop paying intern costs, free the
        table, and record the event."""
        self.table_fallbacks += 1
        states = len(self._state_masks)
        table_bytes = self._table_bytes
        self._table_live = False
        self._clear_table()
        if telemetry.metrics_enabled():
            telemetry.registry().counter("scan.table.fallback").inc()
        if flight.flight_enabled():
            flight.record(
                "table_fallback",
                states=states,
                table_bytes=table_bytes,
                state_capacity=self._table_states,
                byte_capacity=self._table_byte_limit,
            )

    # -- span runners --------------------------------------------------

    def _run_span(
        self,
        data: bytes,
        translated: Optional[bytes],
        start: int,
        end: int,
        armed: bool,
        out: List[Tuple[int, int]],
    ) -> int:
        """Advance over ``data[start:end]`` appending ``(slot, end)``
        events.  Returns the position reached: ``end``, or earlier for an
        unarmed span whose activation provably drained to empty (the
        caller skips the rest of the gap)."""
        if start >= end:
            return end
        if self._table_live and translated is not None:
            return self._run_table(data, translated, start, end, armed, out)
        return self._run_bitset(data, start, end, armed, out)

    def _run_table(
        self,
        data: bytes,
        translated: bytes,
        start: int,
        end: int,
        armed: bool,
        out: List[Tuple[int, int]],
    ) -> int:
        t0 = perf_counter()
        state = self._intern(self.active)
        if state < 0:
            self.table_seconds += perf_counter() - t0
            return self._run_bitset(data, start, end, armed, out)
        nc = self._num_classes
        row = state * nc
        emits = self._state_emits
        miss0 = self.table_misses
        append = out.append
        pos = end
        seg = (
            translated
            if start == 0 and end == len(translated)
            else translated[start:end]
        )
        if armed:
            tab = self._tab_full
            for off, cls in enumerate(seg, start):
                nxt = tab[row + cls]
                if nxt < 0:
                    if nxt == -1:
                        nxt = self._fill(row, cls, True, off - start)
                        if nxt == -1:
                            return self._abort_span(
                                data, start, off, end, True, miss0, t0, out
                            )
                    if nxt < 0:
                        nxt = ~nxt
                        for slot, back in emits[nxt // nc]:
                            append((slot, off - back))
                row = nxt
        else:
            tab = self._tab_open
            can_die = self._plan.skippable
            for off, cls in enumerate(seg, start):
                nxt = tab[row + cls]
                if nxt < 0:
                    if nxt == -1:
                        nxt = self._fill(row, cls, False, off - start)
                        if nxt == -1:
                            return self._abort_span(
                                data, start, off, end, False, miss0, t0, out
                            )
                    if nxt < 0:
                        nxt = ~nxt
                        for slot, back in emits[nxt // nc]:
                            append((slot, off - back))
                row = nxt
                if can_die and not row:  # drained to the empty activation
                    pos = off + 1
                    break
        self.active = self._state_masks[row // nc]
        served = pos - start
        self.table_steps += served
        self.table_hits += max(0, served - (self.table_misses - miss0))
        self.table_seconds += perf_counter() - t0
        return pos

    def _abort_span(
        self,
        data: bytes,
        start: int,
        off: int,
        end: int,
        armed: bool,
        miss0: int,
        t0: float,
        out: List[Tuple[int, int]],
    ) -> int:
        """The table was abandoned mid-span (:meth:`_fill` left the
        activation before byte ``off`` in ``self.active``): account the
        bytes served so far and finish the span on tier 3."""
        served = off - start
        self.table_steps += served
        self.table_hits += max(0, served - (self.table_misses - miss0))
        self.table_seconds += perf_counter() - t0
        return self._run_bitset(data, off, end, armed, out)

    def _run_bitset(
        self,
        data: bytes,
        start: int,
        end: int,
        armed: bool,
        out: List[Tuple[int, int]],
    ) -> int:
        t0 = perf_counter()
        active = self.active
        advance = self._advance
        append = out.append
        tag = 0 if armed else 256
        can_die = not armed and self._plan.skippable
        pos = end
        seg = data if start == 0 and end == len(data) else data[start:end]
        for off, symbol in enumerate(seg, start):
            active, report, report_adj = advance(active, symbol | tag)
            if report:
                for slot in report:
                    append((slot, off))
            if report_adj:
                for slot in report_adj:
                    append((slot, off - 1))
            if can_die and not active:
                pos = off + 1
                break
        self.active = active
        self.bitset_steps += pos - start
        self.bitset_seconds += perf_counter() - t0
        return pos

    # -- matcher API ---------------------------------------------------

    def step(self, symbol: int) -> bool:
        """Consume one symbol; True iff *some* pattern's match ends here.

        Per-byte stepping has no anchor semantics — gated automatons
        must be driven through :meth:`feed`/:meth:`finish`.
        """
        self.active, report, _report_adj = self._advance(self.active, symbol)
        return bool(report)

    def feed(self, data: bytes) -> List[Tuple[int, int]]:
        """Scan a chunk from the current state.

        Returns ``(pattern_id, end)`` events with chunk-relative end
        offsets, ordered by offset then pattern id — exactly the stream
        the per-pattern ``PatternSet.feed`` loop produces, whichever
        stepping tier serves each byte.  On anchored automatons a ``\\b``
        confirm byte can report across a chunk seam: the event end is
        then ``-1``, meaning the final byte of the *previous* chunk.
        """
        if self._anchored:
            return self._feed_gated(data)
        if data:
            self._at_start = False
        return self._feed_inner(data)

    def _feed_inner(self, data: bytes) -> List[Tuple[int, int]]:
        """Tier dispatch shared by the gated and un-gated feed paths."""
        if self._plan is not None:
            return self._feed_prefiltered(data)
        out: List[Tuple[int, int]] = []
        translated = (
            data.translate(self._class_table) if self._table_live else None
        )
        self._run_span(data, translated, 0, len(data), True, out)
        return out

    def _step_start(
        self, symbol: int, out: List[Tuple[int, int]]
    ) -> None:
        """The one transition consuming stream offset 0: full injection
        including the ``^``-gated start states.  Uncached — it runs at
        most once per stream."""
        self.active = self._step(self.active, symbol, self._initial_mask)
        self.bitset_steps += 1
        report, report_adj = self._reports(self.active)
        out.extend((slot, 0) for slot in report)
        out.extend((slot, -1) for slot in report_adj)

    def _feed_gated(self, data: bytes) -> List[Tuple[int, int]]:
        """Anchored feed: byte 0 of the stream gets the full-injection
        start step, the rest runs through the normal tiers, and the
        event stream is sorted and deduplicated (a normal final at byte
        ``k`` and a ``\\b`` confirm final at byte ``k + 1`` report the
        same match end; ``_tail_emits`` extends the dedup across the
        previous chunk seam and against :meth:`finish`)."""
        n = len(data)
        if not n:
            return []
        raw: List[Tuple[int, int]] = []
        if self._at_start:
            self._at_start = False
            self._step_start(data[0], raw)
            if n > 1:
                raw.extend(
                    (slot, off + 1)
                    for slot, off in self._feed_inner(data[1:])
                )
        else:
            raw = self._feed_inner(data)
        raw.sort(key=lambda event: (event[1], event[0]))
        out: List[Tuple[int, int]] = []
        previous: Optional[Tuple[int, int]] = None
        tail = 0
        suppressed = self._tail_emits
        last = n - 1
        for slot, end in raw:
            if end == -1 and (suppressed >> slot) & 1:
                continue
            event = (slot, end)
            if event == previous:
                continue
            previous = event
            out.append(event)
            if end == last:
                tail |= 1 << slot
        self._tail_emits = tail
        return out

    def finish(self) -> List[Tuple[int, int]]:
        """End-of-input finalisation: report the ``$``-gated candidates
        still alive, as ``(pattern_id, -1)`` events (the match ended at
        the final byte of the stream consumed so far).  Non-mutating and
        idempotent; patterns that already reported that end (a normal or
        confirm final at the last byte) are suppressed.
        """
        fired = self.active & self._eoi_mask
        if not fired:
            return []
        suppressed = self._tail_emits
        return [
            (slot, -1)
            for slot in self._report_ids(fired)
            if not (suppressed >> slot) & 1
        ]

    def _feed_prefiltered(self, data: bytes) -> List[Tuple[int, int]]:
        """Tier-1 feed: sweep the chunk for required-literal occurrences,
        arm gated start states only inside the windows around them (plus
        the straddle-covering tail window), and run everything between
        with reduced injection — skipping outright once drained."""
        out: List[Tuple[int, int]] = []
        n = len(data)
        if not n:
            return out
        plan = self._plan
        spans: List[Tuple[int, int]] = []
        for literal, pre in plan.hints:
            idx = data.find(literal)
            while idx >= 0:
                lo = idx - pre
                spans.append((lo if lo > 0 else 0, idx + 1))
                idx = data.find(literal, idx + 1)
        tail_lo = n - plan.tail
        spans.append((tail_lo if tail_lo > 0 else 0, n))
        spans.sort()
        merged: List[Tuple[int, int]] = []
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo <= cur_hi:
                if hi > cur_hi:
                    cur_hi = hi
            else:
                merged.append((cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        merged.append((cur_lo, cur_hi))
        translated = (
            data.translate(self._class_table) if self._table_live else None
        )
        pos = 0
        for lo, hi in merged:
            if pos < lo:
                reached = self._run_span(data, translated, pos, lo, False, out)
                if reached < lo:
                    self.prefilter_skipped += lo - reached
            self._run_span(data, translated, lo, hi, True, out)
            self.prefilter_armed += hi - lo
            pos = hi
        # The tail window always ends at n, so no trailing gap remains.
        return out

    def scan(self, data: bytes) -> List[Tuple[int, int]]:
        """Fresh-state :meth:`feed`, plus end-of-input finalisation on
        anchored automatons (``$`` candidates report at the last byte)."""
        self.reset()
        out = self.feed(data)
        if self._anchored:
            final = self.finish()
            if final:
                last = len(data) - 1
                out.extend((slot, last) for slot, _end in final)
                out.sort(key=lambda event: (event[1], event[0]))
        return out

    def match_ends(self, data: bytes) -> List[int]:
        """End indices over all patterns (fresh scan, deduplicated)."""
        return sorted({end for _pattern_id, end in self.scan(data)})

    def active_states(self) -> Set[int]:
        return mask_to_states(self.active)

    def active_count(self) -> int:
        return popcount(self.active)

    def cache_info(self) -> Dict[str, int]:
        """Statistics of the bitset tier's lazy-DFA cache (telemetry /
        bench reporting).  Table fills bypass it, so it stays empty while
        the table serves the scan."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "bytes": self._cache_bytes,
            "byte_capacity": self._cache_byte_limit,
        }

    def cache_full(self) -> bool:
        """True once either cache bound (entries or bytes) is saturated.

        Used by degradation policies: a low hit rate only signals thrash
        when the cache has actually filled — cold caches miss by design —
        and only the bitset tier fills it.
        """
        return (
            len(self._cache) >= self._cache_size
            or self._cache_bytes >= self._cache_byte_limit
        )

    def table_info(self) -> Dict[str, object]:
        """Dense-table tier statistics (telemetry / bench reporting)."""
        return {
            "live": self._table_live,
            "states": len(self._state_masks),
            "state_capacity": self._table_states,
            "bytes": self._table_bytes,
            "byte_capacity": self._table_byte_limit,
            "hits": self.table_hits,
            "misses": self.table_misses,
            "promotes": self.table_promotes,
            "flushes": self.table_flushes,
            "fallbacks": self.table_fallbacks,
            "steps_table": self.table_steps,
            "steps_bitset": self.bitset_steps,
            "seconds_table": self.table_seconds,
            "seconds_bitset": self.bitset_seconds,
            "skipped_bytes": self.prefilter_skipped,
            "armed_bytes": self.prefilter_armed,
        }

    def prefilter_info(self) -> Optional[Dict[str, object]]:
        """The active prefilter plan, or None when every pattern is
        always-on (no usable required literals, or prefilter disabled)."""
        plan = self._plan
        if plan is None:
            return None
        return {
            "literals": [
                {"literal": literal.decode("latin-1"), "pre": pre}
                for literal, pre in plan.hints
            ],
            "gated_patterns": len(plan.gated),
            "open_patterns": self.fused.num_patterns - len(plan.gated),
            "tail_bytes": plan.tail,
            "skippable": plan.skippable,
            "skipped_bytes": self.prefilter_skipped,
            "armed_bytes": self.prefilter_armed,
        }
