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
  graph when it is counter-free, else the Glushkov NFA with each
  ``r{m,n}`` unfolded nested, ``r^m (r(r(…)?)?)?``, whose edges grow
  linearly in ``n`` (:func:`repro.compiler.pipeline.build_scan_nfa`);
* each pattern's states are offset-remapped into one combined
  ``classes`` / ``transitions`` / ``initial`` / ``final`` space;
* a ``final state -> pattern_id`` report map recovers which pattern
  fired from the combined active mask.

Execution (:class:`FusedMatcher`) layers three stepping tiers, fastest
first, all producing byte-identical match streams:

1. **Literal prefilter** — every pattern that *requires* some literal
   (:mod:`repro.compiler.prefilter`) is gated: each chunk is swept for
   the literals and the automaton's gated start states are only armed
   inside ``[occurrence - pre, occurrence]`` windows around the hits
   (plus an unconditional tail window covering occurrences that
   straddle into the next chunk).  A sweep of at least
   :data:`UNIT_SWEEP_MIN_LITERALS` literals searches them all together,
   the chunk read as UTF-16 code units by a few compiled ``re``
   alternations grouped by each literal's first code unit
   (:class:`_UnitSweep`); a smaller one makes one ``bytes.find`` pass
   per literal.  Outside the windows the activation decays with
   *reduced* start-state injection and, once empty, the remaining gap
   is skipped outright.  A pattern whose every start state is
   ``^``-gated is start-only: no window can arm it, so it is neither
   swept nor in the way of a skip.  The case spellings of a ``(?i)``
   literal are swept once, over the lower-cased chunk.
2. **Dense transition table** — hot activation masks are interned as
   dense state ids and stepped through one successor column per
   byte-equivalence class (two bytes are equivalent iff they select the
   same fused match mask), a list indexed by state id, with a
   precomputed fired-pattern tuple per state: a byte costs one list
   lookup and one sign test.  Missing entries are filled lazily by the
   uncached bitset step.  The table is bounded by a state-count and
   byte budget (:class:`repro.resilience.budget.Budget`): a full table
   is emptied in place and refilled from the current mask, as RE2
   resets its DFA cache, however often that happens.  A start column,
   one entry per byte class, serves the stream-offset-0 step.
3. **Bitset stepping with a lazy-DFA cache** — the big-int closure step
   (one shift moves every chain, one OR reads each live group:
   :class:`repro.automata.nfa.ShiftPlan`) memoised as
   ``(active_mask, byte) -> (next_mask, fired pattern ids)`` in a
   bounded LRU.  It serves only scans with the table off
   (``table_states=0``), the reference the other tiers are tested
   against.

A feed is one ordered list of segments, the armed windows and unarmed
gaps of tier 1 (after the stream-offset-0 step of an anchored set), and
one loop walks all of it on the table, the row in a local, or on the
bitset tier when the table is off.  Only a profiler's probes and a
deadline's clock checks cut the list further.

Soundness of the prefilter rests on a monotone-arming argument: arming
start states at a *superset* of the true match-start positions never
changes the reported stream (extra partials either die or re-derive
matches the full stepping would also report, and NFA set semantics
dedupes them), and the sweep-plus-tail windows provably cover every true
match start of a gated pattern.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from .._bits import popcount
from ..automata.ah import is_counter_free
from ..automata.nfa import (
    NFA,
    build_match_masks,
    build_shift_plan,
    byte_class_ids,
    mask_to_states,
    states_to_mask,
)
from ..compiler.pipeline import CompiledRegex, build_scan_nfa
from ..compiler.prefilter import PatternLiterals

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
#: flushed and refilled.
DEFAULT_TABLE_STATES = 4096

#: Default byte budget for the dense table (rows + interned masks).
DEFAULT_TABLE_BYTES = 8 << 20

#: Estimated fixed overhead per cache entry (dict slot, key/value tuples,
#: int headers) in bytes, on top of the mask payloads.
_ENTRY_OVERHEAD_BYTES = 200

#: Estimated fixed overhead per interned table state (dict slot, mask,
#: fired tuple) in bytes, on top of its column entries.
_STATE_OVERHEAD_BYTES = 120

#: States added to every column at once when the table outgrows them.
_COLUMN_BLOCK = 256

#: Column entry of a drain to the empty activation; below every ``~sid``.
_DRAIN = -(1 << 62)

#: The walks' cut stack when nothing observes a feed: one sentinel cut
#: past every offset, never fired.
_NO_CUTS = ((1 << 62, None),)

#: Literals from which one sweep of a chunk searches them all together
#: as code units (:class:`_UnitSweep`) instead of one ``bytes.find``
#: pass each.  Per 64 KiB a find pass costs 45-60 us, the code-unit
#: sweep 0.45-0.9 ms for 12-26 RegexLib literals; below 16 it saves at
#: most 0.25 ms and costs twice the finds on a chunk of literal heads
#: (docs/matching.md, *The literal sweep*).
UNIT_SWEEP_MIN_LITERALS = 16

#: Byte map of the code-unit sweep: bytes 0xD8-0xDF, the high bytes of
#: UTF-16 surrogates, become 0xC8-0xCF, so every 2-byte window decodes
#: to exactly one code unit.  A window the map merges with another is
#: only a candidate, which the literal check on the real bytes rejects.
_UNIT_MAP = bytes(
    byte ^ 0x10 if 0xD8 <= byte <= 0xDF else byte for byte in range(256)
)

#: The bytes :data:`_UNIT_MAP` yields: every high byte of a code unit.
_UNIT_HIGHS = sorted(set(_UNIT_MAP))


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
            the nested-unfolded Glushkov NFA.
        nfas: the original per-pattern NFAs (kept so the set can be
            re-fused without recompiling: a pattern removed, or new
            patterns appended).
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
    removes.
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


class _UnitSweep:
    """Every literal of one sweep searched together, the way a CAM
    compares each input window with all its entries at once.

    The chunk, mapped through :data:`_UNIT_MAP`, is decoded as UTF-16-LE
    at both byte parities, so each 2-byte window is one code unit.  A
    literal's *head* is its first code unit and its *key* the literal's
    whole code units.  A 3-byte literal's key ends in the class of the
    248 units its last byte is the low byte of, or in the end of the
    chunk; a longer odd literal's last byte is left to the check (a
    248-unit class costs about 0.4 ms to parse).  The keys sit in a few
    compiled alternations grouped by head, each head once with its
    literals' tails after it: ``re`` skips in C to the next code unit
    that is one of a group's heads and matches the tails there in C, so
    a partial occurrence reaches Python only when it holds a whole key
    that omits a byte.  Each match is checked
    against its head's literals with ``startswith`` on the unmapped
    text, since the byte map merges a few bytes and a key may omit one,
    and the search resumes one code unit later, so every occurrence of
    every literal is found, as one ``find`` pass per literal finds them.

    A group repeats the C scan over the whole chunk, while a candidate
    tries every head of its group before its own, so at least 16 and
    about ``2 * sqrt(heads)`` heads per group keep both costs low when
    every code unit is a head.
    """

    __slots__ = ("searches", "by_head")

    def __init__(self, literals: Tuple[Tuple[bytes, int], ...]) -> None:
        #: Mapped head -> its ``(literal, pre)`` pairs.
        self.by_head: Dict[str, List[Tuple[bytes, int]]] = {}
        tails: Dict[str, Set[str]] = {}
        for literal, pre in literals:
            mapped = literal.translate(_UNIT_MAP)
            head = mapped[:2].decode("utf-16-le")
            self.by_head.setdefault(head, []).append((literal, pre))
            if len(literal) == 3:
                low = mapped[2]
                units = "".join(chr(low | high << 8) for high in _UNIT_HIGHS)
                tail = "(?:[%s]|\\Z)" % re.escape(units)
            else:
                even = len(literal) & ~1
                tail = re.escape(mapped[2:even].decode("utf-16-le"))
            tails.setdefault(head, set()).add(tail)
        heads = sorted(tails)
        alternatives = [
            # A bare head (a 2-byte literal) needs no tail.
            re.escape(head)
            if "" in tails[head]
            else "%s(?:%s)" % (re.escape(head), "|".join(sorted(tails[head])))
            for head in heads
        ]
        size = max(16, math.ceil(2 * math.sqrt(len(heads))))
        self.searches = tuple(
            re.compile("|".join(alternatives[first : first + size])).search
            for first in range(0, len(heads), size)
        )

    def sweep(
        self, text: bytes, start: int, spans: List[Tuple[int, int]]
    ) -> None:
        """Append the ``(lo, idx + 1)`` window of each literal occurring
        at ``idx >= start`` in ``text``, ``lo`` clamped to ``start``."""
        mapped = memoryview(text.translate(_UNIT_MAP))
        n = len(text)
        by_head = self.by_head
        for parity in (0, 1):
            end = n - ((n - parity) & 1)
            units = str(mapped[parity:end], "utf-16-le")
            first = (start - parity + 1) // 2
            for search in self.searches:
                found = search(units, first)
                while found is not None:
                    unit = found.start()
                    idx = 2 * unit + parity
                    for literal, pre in by_head[units[unit]]:
                        if text.startswith(literal, idx):
                            lo = idx - pre
                            spans.append(
                                (lo if lo > start else start, idx + 1)
                            )
                    found = search(units, unit + 1)
            del units  # freed before the other parity is decoded


class _PrefilterPlan:
    """The merged, chunk-time view of a pattern set's literal contracts.

    ``hints`` is the deduplicated ``(literal, pre)`` sweep list, and
    ``folded`` the lower-case literals that stand for all their ASCII
    case spellings, swept over the lower-cased chunk; ``open_initial``
    the per-byte injection mask of the always-on (non-gated) patterns;
    ``tail`` the unconditional end-of-chunk arming width that covers
    literal occurrences straddling into the next chunk; ``start_only``
    the number of patterns no window can arm (no per-byte start state);
    and ``skippable`` whether a drained activation allows skipping bytes
    at all (only when *every* pattern with per-byte start states is
    gated).
    """

    __slots__ = (
        "hints", "folded", "sweeps", "open_initial", "tail", "gated",
        "start_only", "skippable",
    )

    def __init__(
        self,
        hints: Tuple[Tuple[bytes, int], ...],
        folded: Tuple[Tuple[bytes, int], ...],
        open_initial: int,
        tail: int,
        gated: FrozenSet[int],
        start_only: int,
    ) -> None:
        self.hints = hints
        self.folded = folded
        #: ``(folded, literals, units)`` per sweep of a chunk: ``units``
        #: searches a sweep of at least ``UNIT_SWEEP_MIN_LITERALS``
        #: literals all together, None keeps one ``find`` per literal.
        self.sweeps = tuple(
            (
                is_folded,
                literals,
                _UnitSweep(literals)
                if len(literals) >= UNIT_SWEEP_MIN_LITERALS
                else None,
            )
            for is_folded, literals in ((False, hints), (True, folded))
            if literals
        )
        self.open_initial = open_initial
        self.tail = tail
        self.gated = gated
        self.start_only = start_only
        self.skippable = open_initial == 0


def _build_plan(fused: FusedAutomaton) -> Optional[_PrefilterPlan]:
    """Build the prefilter plan for ``fused`` from each pattern's
    per-byte start states (``initial - boi``); None when it would
    neither sweep a literal nor skip a byte.

    A pattern without per-byte start states is *start-only*: only the
    stream-offset-0 step arms it (every start is ``^``-gated), so no
    window can.  Its literals are not swept and it never blocks
    skipping.  Every other pattern is gated by its literals or open."""
    literals = fused.literals
    if not literals or len(literals) != fused.num_patterns:
        return None
    state_pattern = fused.state_pattern
    per_byte = fused.initial - fused.boi
    armable = {state_pattern[state] for state in per_byte}
    entries = [
        (slot, lits)
        for slot, lits in enumerate(literals)
        if lits is not None and slot in armable
    ]
    gated = frozenset(slot for slot, _ in entries)
    open_initial = 0
    for state in per_byte:
        if state_pattern[state] not in gated:
            open_initial |= 1 << state
    if not gated and open_initial:
        return None
    merged: Dict[bytes, int] = {}
    for _, lits in entries:
        for hint in lits.hints:
            prev = merged.get(hint.literal)
            if prev is None or hint.pre > prev:
                merged[hint.literal] = hint.pre
    tail = max((pre + len(lit) for lit, pre in merged.items()), default=1) - 1
    # ``(?i)`` spells a literal with k letters 2**k ways; a group holding
    # every spelling is swept once, over the lower-cased chunk
    # (``bytes.lower`` folds exactly A-Z, as the parser's case fold does).
    spellings: Dict[bytes, List[bytes]] = {}
    for literal in merged:
        spellings.setdefault(literal.lower(), []).append(literal)
    folded: Dict[bytes, int] = {}
    for lower, group in spellings.items():
        letters = sum(97 <= byte <= 122 for byte in lower)
        if letters and len(group) == 1 << letters:
            folded[lower] = max(merged.pop(literal) for literal in group)
    hints, folded_hints = (
        tuple(sorted(lits.items(), key=lambda item: (-len(item[0]), item[0])))
        for lits in (merged, folded)
    )
    return _PrefilterPlan(
        hints, folded_hints, open_initial, tail, gated,
        fused.num_patterns - len(armable),
    )


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
        #: One step's successors: a shift per chain, an OR per live group.
        self._successors = build_shift_plan(fused.transitions).successors
        self._state_pattern = fused.state_pattern
        # -- anchor gates --------------------------------------------------
        self._boi_mask = states_to_mask(fused.boi)
        self._eoi_mask = states_to_mask(fused.eoi_finals)
        self._adjust_mask = states_to_mask(fused.adjust_finals)
        #: States whose activation interns a reporting table state.
        self._report_mask = self._final_mask | self._adjust_mask
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
            else self._inject_initial
        )
        #: Start-state injection per memo key: full, then reduced
        #: (``symbol | 256``, the prefilter's unarmed spans).
        self._injections = (self._inject_initial, self._open_initial)
        #: Whether an unarmed segment may skip its bytes once drained.
        self._skip = self._plan is not None and self._plan.skippable
        self.prefilter_skipped = 0
        self.prefilter_armed = 0
        #: ``(first, stride, fire)`` while a profiler observes a feed
        #: (:meth:`repro.telemetry.profiler.ScanProfiler.feed`): the walk
        #: cuts its segments after the chunk offsets ``first + k * stride``,
        #: where ``fire(offset, active)`` reads the activation.  None
        #: otherwise.
        self._probe = None
        #: The same for a ``deadline_s`` budget (``PatternSet.feed``):
        #: ``fire`` checks the clock every ``check_bytes`` bytes.
        self._deadline = None
        # -- table tier ----------------------------------------------------
        self._table_states = table_states
        self._table_byte_limit = table_bytes
        self._table_bytes = 0
        self.table_hits = 0
        self.table_misses = 0
        self.table_promotes = 0
        self.table_flushes = 0
        self.table_steps = 0
        self.bitset_steps = 0
        self.table_seconds = 0.0
        self.bitset_seconds = 0.0
        self._num_classes = 0
        self._state_ids: Dict[int, int] = {}
        self._state_masks: List[int] = []
        #: Per state: ``(slot, back)`` reports, ending ``back`` bytes early.
        self._state_emits: List[Tuple[Tuple[int, int], ...]] = []
        #: ``_cols[mode][cls][sid]``: mode 0 full injection, 1 reduced.
        self._cols: List[List[List[int]]] = []
        #: ``_start_col[cls]``: the id the stream-offset-0 step reaches
        #: from the empty activation (the ``^``-gated start states
        #: injected too), -1 until filled.
        self._start_col: List[int] = []
        if table_states:
            class_of_byte, num_classes = byte_class_ids(self._match_masks)
            self._class_table = bytes(class_of_byte)
            self._num_classes = num_classes
            reps = [0] * num_classes
            for byte in range(255, -1, -1):
                reps[class_of_byte[byte]] = byte
            self._class_rep = reps
            modes = 1 if self._plan is None else 2
            self._cols = [[[] for _ in reps] for _ in range(modes)]
            self._start_col = [-1] * num_classes
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
        """The raw bitset step: the successors of the active states
        (:class:`repro.automata.nfa.ShiftPlan`: one shift moves every
        chain, one OR reads each live group) onto ``inject`` (the start
        states armed at this byte), then keep the states whose class
        accepts ``symbol``.  Uncached."""
        return (inject | self._successors(active)) & self._match_masks[symbol]

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
    # ``_cols[mode][cls]`` is a list indexed by state id, one per
    # injection mode and byte class.  Entry ``sid`` holds the successor's
    # id, the very int ``_state_ids`` maps its mask to, so a lookup
    # allocates nothing.  Entries the walk must act on are negative: -1
    # until filled, ``~sid`` when the successor reports (state 0, the
    # empty activation, never does), and :data:`_DRAIN`.  A list slot is
    # 8 bytes, twice an ``array("i")`` entry: filled to 4,111 states, a
    # RegexLib-64 table traces at 3.78 MB, against 2.57 MB as arrays that
    # box a fresh int per lookup.

    def _intern(self, mask: int) -> int:
        """Dense id of ``mask``, interning it on first sight.  A full
        table is flushed first.  The mask is hashed once, by
        ``setdefault``, unless that flush empties the dict."""
        sid = len(self._state_masks)
        found = self._state_ids.setdefault(mask, sid)
        if found != sid:
            return found
        if (
            sid >= self._table_states
            or self._table_bytes >= self._table_byte_limit
        ):
            self._flush()
            sid = len(self._state_masks)
            self._state_ids[mask] = sid
        self._state_masks.append(mask)
        if mask & self._report_mask:
            report, report_adj = self._reports(mask)
            self._state_emits.append(
                tuple((slot, 0) for slot in report)
                + tuple((slot, 1) for slot in report_adj)
            )
        else:
            self._state_emits.append(())
        if sid == len(self._cols[0][0]):
            block = [-1] * _COLUMN_BLOCK
            for cols in self._cols:
                for col in cols:
                    col.extend(block)
        self._table_bytes += (
            _STATE_OVERHEAD_BYTES
            + 8 * len(self._cols) * self._num_classes  # list slots
            + mask.bit_length() // 8
        )
        self.table_promotes += 1
        return sid

    def _fill(self, sid: int, cls: int, mode: int) -> int:
        """Compute one missing table entry with the uncached bitset step
        and return it."""
        self.table_misses += 1
        mask = self._state_masks[sid]
        flushes = self.table_flushes
        nxt = self._intern(
            self._step(mask, self._class_rep[cls], self._injections[mode])
        )
        entry = ~nxt if self._state_emits[nxt] else nxt
        if not nxt and mode and self._skip:
            entry = _DRAIN
        if self.table_flushes == flushes:  # else ``sid`` is gone
            self._cols[mode][cls][sid] = entry
        return entry

    def _flush(self) -> None:
        """Empty the full table in place, keeping the containers the walk
        holds references to, and re-intern the empty activation as
        state 0 so scanning continues through the table."""
        self.table_flushes += 1
        self._state_ids.clear()
        self._state_masks.clear()
        self._state_emits.clear()
        for cols in self._cols:
            for col in cols:
                col.clear()
        self._start_col = [-1] * self._num_classes
        self._table_bytes = 0
        self._intern(0)
        if telemetry.metrics_enabled():
            telemetry.registry().counter("scan.table.flush").inc()

    # -- the segment walk ----------------------------------------------
    #
    # A feed's segments are ``(lo, hi, mode)``: mode 0 steps with full
    # start-state injection (an armed window, or every byte when there is
    # no plan), mode 1 with the reduced injection of an unarmed gap, and
    # mode 2 is the stream-offset-0 step of an anchored set.

    def _segments(self, data: bytes, start: int) -> List[Tuple[int, int, int]]:
        """The segments of ``data``: the start step when ``start`` is 1,
        then ``[start, n)`` cut by the literal sweep and the tail window
        into armed windows and the unarmed gaps between them (one armed
        segment when there is no plan).  Counts the armed bytes."""
        n = len(data)
        segs = [(0, 1, 2)] if start else []
        plan = self._plan
        if start >= n:
            return segs
        if plan is None:
            segs.append((start, n, 0))
            return segs
        spans = [(max(n - plan.tail, start), n)]
        for folded, hints, units in plan.sweeps:
            text = data.lower() if folded else data
            if units is not None:
                units.sweep(text, start, spans)
                continue
            for literal, pre in hints:
                idx = text.find(literal, start)
                while idx >= 0:
                    lo = idx - pre
                    spans.append((lo if lo > start else start, idx + 1))
                    idx = text.find(literal, idx + 1)
        spans.sort()
        lo, hi = spans[0]
        if start < lo:
            segs.append((start, lo, 1))
        armed = n - lo
        for next_lo, next_hi in spans:
            if next_lo > hi:
                segs.append((lo, hi, 0))
                segs.append((hi, next_lo, 1))
                armed -= next_lo - hi
                lo, hi = next_lo, next_hi
            elif next_hi > hi:
                hi = next_hi
        segs.append((lo, hi, 0))
        self.prefilter_armed += armed
        return segs

    def _cut(self, segs, n: int):
        """Cut ``segs`` after every offset at which the profiler's probe
        or the deadline check fires, so that each cut point ends a
        segment.  Returns the pieces and the cut stack: ``(offset,
        fire)`` last first, above the sentinel of :data:`_NO_CUTS`."""
        observers = [obs for obs in (self._probe, self._deadline) if obs]
        cuts = [
            (offset, fire)
            for first, stride, fire in observers
            for offset in range(first, n, stride)
        ]
        cuts.sort(key=lambda cut: cut[0], reverse=True)
        ends = [offset + 1 for offset, _fire in cuts]
        pieces = []
        for lo, hi, mode in segs:
            while ends and ends[-1] < hi:
                end = ends.pop()
                if end > lo:
                    pieces.append((lo, end, mode))
                    lo = end
            pieces.append((lo, hi, mode))
        return pieces, [*_NO_CUTS, *cuts]

    def _walk(
        self, data: bytes, segs, cuts, out: List[Tuple[int, int]]
    ) -> None:
        """Walk ``segs`` on the table tier, appending ``(slot, end)``
        events.  The row stays in a local across every segment.  An
        unarmed segment entered at row 0 under a skippable plan is
        skipped without a lookup, unless it starts the chunk (its first
        byte drains); a drain ends its segment; at each cut point the
        walk writes ``self.active`` and its counts, then fires."""
        t0 = perf_counter()
        row = self._intern(self.active) if self.active else 0
        translated = data.translate(self._class_table)
        masks = self._state_masks
        emits = self._state_emits
        modes = self._cols
        skip = self._skip
        append = out.append
        miss0 = self.table_misses
        served = 0  # bytes served since the counts were last written
        cut = cuts[-1][0]
        for lo, hi, mode in segs:
            if mode == 1 and skip and lo and not row:
                self.prefilter_skipped += hi - lo
            elif mode == 2:
                # The ``^``-gated start states injected too: from the
                # empty activation through the start column, from a
                # restored live one by one uncached step.
                cls = translated[0]
                nxt = -1 if row else self._start_col[cls]
                if nxt < 0:
                    self.table_misses += 1
                    rep = self._class_rep[cls]
                    nxt = self._intern(
                        self._step(masks[row], rep, self._initial_mask)
                    )
                    if not row:
                        self._start_col[cls] = nxt
                row = nxt
                for slot, back in emits[row]:
                    append((slot, -back))
                served += 1
            else:
                cols = modes[mode]
                it = iter(translated[lo:hi])
                for cls in it:
                    nxt = cols[cls][row]
                    if nxt < 0:
                        off = hi - 1 - it.__length_hint__()
                        if nxt == -1:
                            nxt = self._fill(row, cls, mode)
                        if nxt == _DRAIN:  # drained to the empty activation
                            self.prefilter_skipped += hi - off - 1
                            row = 0
                            hi = off + 1
                            break
                        if nxt < 0:
                            nxt = ~nxt
                            for slot, back in emits[nxt]:
                                append((slot, off - back))
                    row = nxt
                served += hi - lo
            if cut < hi:
                self.active = masks[row]
                self.table_steps += served
                self.table_hits += served - (self.table_misses - miss0)
                miss0 = self.table_misses
                served = 0
                while cut < hi:
                    offset, fire = cuts.pop()
                    fire(offset, self.active)
                    cut = cuts[-1][0]
        self.active = masks[row]
        self.table_steps += served
        self.table_hits += served - (self.table_misses - miss0)
        self.table_seconds += perf_counter() - t0

    def _walk_bitset(
        self, data: bytes, segs, cuts, out: List[Tuple[int, int]]
    ) -> None:
        """:meth:`_walk` on the bitset tier, which serves only
        ``table_states=0``: the same skips, drains and cut points, each
        byte through the LRU-memoised :meth:`_advance`, and the
        stream-offset-0 step uncached (it runs once a stream)."""
        t0 = perf_counter()
        active = self.active
        advance = self._advance
        append = out.append
        skip = self._skip
        stepped = 0  # bytes stepped since the count was last written
        cut = cuts[-1][0]
        for lo, hi, mode in segs:
            if mode == 1 and skip and lo and not active:
                self.prefilter_skipped += hi - lo
            elif mode == 2:
                active = self._step(active, data[0], self._initial_mask)
                report, report_adj = self._reports(active)
                out += [(slot, 0) for slot in report]
                out += [(slot, -1) for slot in report_adj]
                stepped += 1
            else:
                tag = mode << 8
                can_die = mode == 1 and skip
                for off, symbol in enumerate(data[lo:hi], lo):
                    active, report, report_adj = advance(active, symbol | tag)
                    if report:
                        for slot in report:
                            append((slot, off))
                    if report_adj:
                        for slot in report_adj:
                            append((slot, off - 1))
                    if can_die and not active:
                        self.prefilter_skipped += hi - off - 1
                        hi = off + 1
                        break
                stepped += hi - lo
            if cut < hi:
                self.active = active
                self.bitset_steps += stepped
                stepped = 0
                while cut < hi:
                    offset, fire = cuts.pop()
                    fire(offset, active)
                    cut = cuts[-1][0]
        self.active = active
        self.bitset_steps += stepped
        self.bitset_seconds += perf_counter() - t0

    # -- matcher API ---------------------------------------------------

    def feed(self, data: bytes) -> List[Tuple[int, int]]:
        """Scan a chunk from the current state.

        Returns ``(pattern_id, end)`` events with chunk-relative end
        offsets, ordered by offset then pattern id — exactly the stream
        the per-pattern ``PatternSet.feed`` loop produces, whichever
        stepping tier serves each byte.  On anchored automatons a ``\\b``
        confirm byte can report across a chunk seam: the event end is
        then ``-1``, meaning the final byte of the *previous* chunk.
        """
        n = len(data)
        if not n:
            return []
        start = 0
        if self._at_start:
            self._at_start = False
            start = 1 if self._anchored else 0
        segs = self._segments(data, start)
        cuts = _NO_CUTS
        if self._probe is not None or self._deadline is not None:
            segs, cuts = self._cut(segs, n)
        out: List[Tuple[int, int]] = []
        if self._table_states:
            self._walk(data, segs, cuts, out)
        else:
            self._walk_bitset(data, segs, cuts, out)
        if not self._anchored:
            return out
        # Sort and deduplicate: a normal final at byte ``k`` and a ``\b``
        # confirm final at byte ``k + 1`` report the same match end, and
        # ``_tail_emits`` extends the dedup across the previous chunk
        # seam and against :meth:`finish`.
        if not out:
            self._tail_emits = 0
            return out
        if len(out) > 1:
            out.sort(key=lambda event: (event[1], event[0]))
        events: List[Tuple[int, int]] = []
        tail = 0
        suppressed = self._tail_emits
        for event in out:
            slot, end = event
            if end == -1 and (suppressed >> slot) & 1 or (
                events and events[-1] == event
            ):
                continue
            events.append(event)
            if end == n - 1:
                tail |= 1 << slot
        self._tail_emits = tail
        return events

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
        bench reporting).  Table fills bypass it, so it stays empty
        unless the table is off."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "bytes": self._cache_bytes,
            "byte_capacity": self._cache_byte_limit,
        }

    def counters(self) -> Dict[str, int]:
        """The integer tier counts, cumulative since construction, under
        the names telemetry publishes them (``engine.fused.<key>``,
        ``scan.shard.<key>``): the one record instruments diff across a
        feed.  ``steps_table + steps_bitset + skipped_bytes`` counts
        every byte :meth:`feed` consumed."""
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "table_promotes": self.table_promotes,
            "table_flushes": self.table_flushes,
            "steps_table": self.table_steps,
            "steps_bitset": self.bitset_steps,
            "skipped_bytes": self.prefilter_skipped,
            "armed_bytes": self.prefilter_armed,
        }

    def table_info(self) -> Dict[str, object]:
        """Dense-table tier statistics (telemetry / bench reporting)."""
        return {
            "live": self._table_states > 0,
            "states": len(self._state_masks),
            "state_capacity": self._table_states,
            "bytes": self._table_bytes,
            "byte_capacity": self._table_byte_limit,
            "hits": self.table_hits,
            "misses": self.table_misses,
            "promotes": self.table_promotes,
            "flushes": self.table_flushes,
            # Always 0 since a full table always flushes; kept only for
            # scanbench/measure.py, which still reads it.
            "fallbacks": 0,
            "steps_table": self.table_steps,
            "steps_bitset": self.bitset_steps,
            "seconds_table": self.table_seconds,
            "seconds_bitset": self.bitset_seconds,
            "skipped_bytes": self.prefilter_skipped,
            "armed_bytes": self.prefilter_armed,
        }

    def prefilter_info(self) -> Optional[Dict[str, object]]:
        """The active prefilter plan, or None when it could neither
        sweep a literal nor skip a byte (prefilter disabled, or always-on
        patterns and no usable required literal).  ``literals`` are swept
        as spelled, ``folded_literals`` over the lower-cased chunk, one
        for all the case spellings of a ``(?i)`` literal.
        ``gated_patterns + open_patterns + start_only_patterns`` is the
        set's size."""
        plan = self._plan
        if plan is None:
            return None
        literals, folded = (
            [
                {"literal": literal.decode("latin-1"), "pre": pre}
                for literal, pre in hints
            ]
            for hints in (plan.hints, plan.folded)
        )
        return {
            "literals": literals,
            "folded_literals": folded,
            "gated_patterns": len(plan.gated),
            "open_patterns": (
                self.fused.num_patterns - len(plan.gated) - plan.start_only
            ),
            "start_only_patterns": plan.start_only,
            "tail_bytes": plan.tail,
            "skippable": plan.skippable,
            "skipped_bytes": self.prefilter_skipped,
            "armed_bytes": self.prefilter_armed,
        }
