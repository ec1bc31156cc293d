"""Homogeneous (Glushkov-style) NFAs and their simulation.

A Glushkov NFA (§2) is ε-free and *homogeneous*: every transition entering a
state carries the same character class, so the class can be pushed onto the
state itself (the hardware's STE predicate, Fig. 2(b)).  States are dense
integers and state sets are represented as int bitsets, so a simulation
step is a handful of big-int operations: the step moves every edge
s -> s+1 of every live state with one shift, as BVAP's bit-vector
module shifts a whole repetition (§4–5), and reads each group of states
that share their other successors once (:class:`ShiftPlan`).

These NFAs are the execution substrate of the baseline processors (AP, CA,
eAP, CAMA), which handle bounded repetitions by unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .._bits import popcount
from ..regex.charclass import ALPHABET_SIZE, CharClass


@dataclass
class NFA:
    """A homogeneous NFA with integer states.

    Attributes:
        classes: per-state character class (the STE predicate).
        transitions: per-state list of successor states.
        initial: states re-activated for start-anywhere matching.
        final: reporting states.
        boi: initial states armed *only at stream offset 0* (the ``^``
            start gate produced by anchor lowering).  Always a subset of
            ``initial``; empty for un-anchored automata.
        eoi: candidate-final states whose report is deferred until
            end-of-input finalisation (the ``$`` gate).  Disjoint from
            ``final`` — a state reports per-byte or at EOI, never both.
        adjust: final states that report ``end - 1`` — the variant
            consumed a one-byte ``\\b`` confirm byte past the real match
            end.  Disjoint from ``final`` and ``eoi``.
    """

    classes: List[CharClass]
    transitions: List[List[int]]
    initial: Set[int]
    final: Set[int]
    boi: Set[int] = field(default_factory=set)
    eoi: Set[int] = field(default_factory=set)
    adjust: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        count = len(self.classes)
        if len(self.transitions) != count:
            raise ValueError("transitions length must match state count")
        for src, dsts in enumerate(self.transitions):
            for dst in dsts:
                if not 0 <= dst < count:
                    raise ValueError(f"transition {src}->{dst} out of range")
        for state in self.initial | self.final | self.boi | self.eoi | self.adjust:
            if not 0 <= state < count:
                raise ValueError(f"state {state} out of range")
        if self.boi - self.initial:
            raise ValueError("boi gate states must be initial states")
        if (self.eoi | self.adjust) & self.final or self.eoi & self.adjust:
            raise ValueError("final/eoi/adjust state sets must be disjoint")

    @property
    def gated(self) -> bool:
        """True when anchor gates are present (positional semantics)."""
        return bool(self.boi or self.eoi or self.adjust)

    @property
    def num_states(self) -> int:
        return len(self.classes)

    def num_transitions(self) -> int:
        return sum(len(dsts) for dsts in self.transitions)

    def predecessors(self) -> List[List[int]]:
        preds: List[List[int]] = [[] for _ in range(self.num_states)]
        for src, dsts in enumerate(self.transitions):
            for dst in dsts:
                preds[dst].append(src)
        return preds

    def is_homogeneous(self) -> bool:
        """Always true by construction; verified for arbitrary instances."""
        return True

    def matcher(self) -> "NFAMatcher":
        return NFAMatcher(self)

    def match_ends(self, data: bytes) -> List[int]:
        """Indices ``i`` such that some match ends at ``data[i]`` (0-based).

        Start-anywhere, report-all semantics: this is what an AP-style
        reporting STE produces (§3).
        """
        return self.matcher().match_ends(data)


def union_nfas(parts: Sequence[NFA]) -> NFA:
    """Disjoint union of homogeneous NFAs (one pattern, many variants).

    States are renumbered by offsetting each part past its predecessors;
    gate sets are carried through.  The union matches whatever any part
    matches — used to assemble the gated variants of one anchored
    pattern into a single scan automaton.
    """
    classes: List[CharClass] = []
    transitions: List[List[int]] = []
    initial: Set[int] = set()
    final: Set[int] = set()
    boi: Set[int] = set()
    eoi: Set[int] = set()
    adjust: Set[int] = set()
    for part in parts:
        offset = len(classes)
        classes.extend(part.classes)
        transitions.extend(
            [dst + offset for dst in dsts] for dsts in part.transitions
        )
        initial |= {state + offset for state in part.initial}
        final |= {state + offset for state in part.final}
        boi |= {state + offset for state in part.boi}
        eoi |= {state + offset for state in part.eoi}
        adjust |= {state + offset for state in part.adjust}
    return NFA(classes, transitions, initial, final, boi, eoi, adjust)


class NFAMatcher:
    """Bitset-based simulator for a homogeneous NFA."""

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa
        # symbol -> bitset of states whose class matches the symbol
        self._match_masks = _build_match_masks(nfa.classes)
        self._initial_mask = _to_mask(nfa.initial)
        self._final_mask = _to_mask(nfa.final)
        # who becomes available when a set of states is active
        self._successors = build_shift_plan(nfa.transitions).successors
        self.reset()

    def reset(self) -> None:
        self.active = 0

    def step(self, symbol: int) -> bool:
        """Consume one input symbol; True iff a match ends here.

        Implements the two-phase cycle of AP-style processors (§3): the
        available set is the union of successors of active states plus the
        always-available initial states; intersecting with the states whose
        predicate matches the symbol yields the new active set.
        """
        available = self._initial_mask | self._successors(self.active)
        self.active = available & self._match_masks[symbol]
        return bool(self.active & self._final_mask)

    def match_ends(self, data: bytes) -> List[int]:
        self.reset()
        out = []
        for index, symbol in enumerate(data):
            if self.step(symbol):
                out.append(index)
        return out

    def active_states(self) -> Set[int]:
        return _from_mask(self.active)

    def active_count(self) -> int:
        return popcount(self.active)


def _to_mask(states: Iterable[int]) -> int:
    mask = 0
    for state in states:
        mask |= 1 << state
    return mask


def _from_mask(mask: int) -> Set[int]:
    out = set()
    index = 0
    while mask:
        if mask & 1:
            out.add(index)
        mask >>= 1
        index += 1
    return out


def _build_match_masks(classes: Sequence[CharClass]) -> List[int]:
    """Per byte, the mask of the states whose class accepts it.

    States are grouped by class first, so each distinct class ORs one
    union of its states into each of its bytes.  On RegexLib-64's fused
    set (1,944 states, 33 distinct classes) that is 419 ORs, where one
    per (state, byte) was 74,922.
    """
    groups: Dict[int, Tuple[CharClass, List[int]]] = {}
    for state, cc in enumerate(classes):
        group = groups.get(cc.mask)
        if group is None:
            group = groups[cc.mask] = (cc, [])
        group[1].append(state)
    masks = [0] * ALPHABET_SIZE
    for cc, states in groups.values():
        union = _to_mask(states)
        for symbol in cc:
            masks[symbol] |= union
    return masks


class ShiftPlan:
    """An NFA's edges split into the actions of BVAP's bit-vector module.

    The states of an unfolded ``r{m,n}`` are the bits of the vector the
    hardware keeps for it, and its edges fall into three kinds:

    * ``forward`` holds every state with the edge s -> s+1.  All of them
      move at once, as ``(active & forward) << 1``: the BVM ``shift``
      (§4–5), one copy of the repetition along per byte;
    * ``keep`` holds the states with a self-loop, kept as
      ``active & keep``;
    * every other edge belongs to a *group*, a run of neighbouring
      states with the same remaining targets.  One live bit anywhere in
      the group ORs those targets once and the read jumps past the
      group, as ``rAll`` reads a whole vector and ``r(n)`` one bit.

    A nested chain ``a.{0,n}b`` is one group whatever ``n`` is, so a
    step costs one shift plus one OR per *live group*, where a per-state
    step ORs one successor mask per live state.  On a flat
    ``r^m (r?)^(n-m)`` every optional copy has its own targets, each
    group is one state, and the step does the per-state work.
    ``groups[state]`` is the ``(targets, end)`` of the state's group
    (``end`` one past its last state), shared by its members, or None.
    """

    __slots__ = ("forward", "keep", "grouped", "groups")

    def __init__(
        self,
        forward: int,
        keep: int,
        grouped: int,
        groups: List[Optional[Tuple[int, int]]],
    ) -> None:
        self.forward = forward
        self.keep = keep
        self.grouped = grouped
        self.groups = groups

    @property
    def num_groups(self) -> int:
        """Distinct groups: runs of states sharing their other targets."""
        return len({id(group) for group in self.groups if group})

    def successors(self, active: int) -> int:
        """The union of the successors of every state in ``active``."""
        if not active:
            return 0
        out = ((active & self.forward) << 1) | (active & self.keep)
        live = active & self.grouped
        groups = self.groups
        while live:
            targets, end = groups[(live & -live).bit_length() - 1]
            out |= targets
            live = live >> end << end
        return out


def build_shift_plan(transitions: Sequence[Sequence[int]]) -> ShiftPlan:
    """Split ``transitions`` (per-state successor lists) into a
    :class:`ShiftPlan`; its :meth:`ShiftPlan.successors` equals the OR
    of the successor sets of the active states."""
    forward = keep = 0
    others: List[int] = []
    for state, dsts in enumerate(transitions):
        rest = 0
        for dst in dsts:
            if dst == state + 1:
                forward |= 1 << state
            elif dst == state:
                keep |= 1 << state
            else:
                rest |= 1 << dst
        others.append(rest)
    count = len(others)
    grouped = 0
    groups: List[Optional[Tuple[int, int]]] = [None] * count
    first = 0
    while first < count:
        rest = others[first]
        end = first + 1
        if rest:
            while end < count and others[end] == rest:
                end += 1
            grouped |= ((1 << (end - first)) - 1) << first
            groups[first:end] = [(rest, end)] * (end - first)
        first = end
    return ShiftPlan(forward, keep, grouped, groups)


#: Public names for the bitset plumbing, reused by the fused scan engine
#: (``repro.matching.fused``) over its combined state space.
build_match_masks = _build_match_masks
states_to_mask = _to_mask
mask_to_states = _from_mask


def byte_class_ids(match_masks: Sequence[int]) -> Tuple[List[int], int]:
    """Group the 256 symbols into transition-equivalence classes.

    Two bytes belong to the same class iff they select the same match
    mask (:func:`build_match_masks`) — they are indistinguishable to the
    automaton, so the fused engine's dense table keys its rows on the
    class and the profiler pools their stepping cost.  Returns
    ``(class_of_byte, num_classes)`` with class ids assigned in
    first-appearance order.
    """
    ids: Dict[int, int] = {}
    out: List[int] = []
    for mask in match_masks:
        class_id = ids.get(mask)
        if class_id is None:
            class_id = ids[mask] = len(ids)
        out.append(class_id)
    return out, len(ids)
