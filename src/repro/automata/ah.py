"""The Action-Homogeneous transformation (§4) and AH-NBVA simulation.

An NBVA is *action-homogeneous* (AH) when, for every control state, all
incoming transitions are labelled with the same action — the bit-vector
analogue of Glushkov homogeneity for character classes.  The AH property is
what lets BVAP attach one instruction to each BV-STE and aggregate incoming
vectors *before* executing the action (Fig. 3(c)); by linearity of the
actions this is equivalent to the naïve act-then-aggregate design
(Fig. 3(b)).

The transformation splits each offending state into one copy per distinct
incoming action; each copy receives the incoming transitions of its action
and inherits *all* outgoing transitions, the finalisation condition, and
(for the start-anywhere injection, which behaves like an incoming ``set1``)
the initial vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..regex.charclass import CharClass
from .actions import COPY, SET1, Action
from .nbva import NBVA, Scope
from .nfa import NFA


def injection_kind(width: int) -> Action:
    """The virtual incoming action realising the start-anywhere injection."""
    return SET1 if width > 1 else COPY


def incoming_action_kinds(nbva: NBVA, state: int) -> List[Action]:
    """Distinct incoming actions of a state, counting initial injection.

    Ordered by first appearance among ``nbva.transitions``, the
    injection last, so state copies are numbered alike in every process:
    a set of actions iterates in an order that varies with
    ``PYTHONHASHSEED``."""
    kinds = [t.action for t in nbva.transitions if t.dst == state]
    if nbva.initial.get(state):
        kinds.append(injection_kind(nbva.states[state].width))
    return list(dict.fromkeys(kinds))


@dataclass
class AHState:
    """A state of an AH-NBVA: its predicate and its single action."""

    cc: CharClass
    action: Action
    width: int
    in_width: int = 1
    scope: Optional[int] = None
    origin: int = -1  # index of the NBVA state this copy came from

    def is_bv_ste(self) -> bool:
        """True iff this state occupies a BV slot in the hardware (§3).

        Counting states hold a live bit vector; read-destination states
        (e.g. STE4 in Fig. 3(c)) hold a read instruction and occupy a
        (gated) BV as well.
        """
        return self.width > 1 or self.action.reads_source


@dataclass
class AHNBVA:
    """An action-homogeneous NBVA.

    ``preds[q]`` lists the predecessor states of ``q``; the action lives on
    the state, so edges are bare.  ``injected`` states receive a constant
    activity-1 input every symbol (start-anywhere matching).
    """

    states: List[AHState]
    preds: List[List[int]]
    scopes: List[Scope] = field(default_factory=list)
    injected: Set[int] = field(default_factory=set)
    final: Dict[int, Action] = field(default_factory=dict)
    match_empty: bool = False

    @property
    def num_states(self) -> int:
        return len(self.states)

    def num_bv_stes(self) -> int:
        return sum(1 for s in self.states if s.is_bv_ste())

    def num_plain_stes(self) -> int:
        return self.num_states - self.num_bv_stes()

    def num_edges(self) -> int:
        return sum(len(p) for p in self.preds)

    def matcher(self) -> "AHMatcher":
        return AHMatcher(self)

    def match_ends(self, data: bytes) -> List[int]:
        return self.matcher().match_ends(data)


def to_action_homogeneous(nbva: NBVA) -> AHNBVA:
    """Transform an NBVA into an equivalent AH-NBVA (§4)."""
    incoming = nbva.incoming()

    # Decide the copies of each state: one per distinct incoming action.
    copy_ids: Dict[Tuple[int, Action], int] = {}
    states: List[AHState] = []
    injected: Set[int] = set()
    final: Dict[int, Action] = {}

    def add_copy(origin: int, kind: Action) -> int:
        key = (origin, kind)
        if key in copy_ids:
            return copy_ids[key]
        source = nbva.states[origin]
        index = len(states)
        states.append(
            AHState(
                cc=source.cc,
                action=kind,
                width=source.width,
                scope=source.scope,
                origin=origin,
            )
        )
        copy_ids[key] = index
        if origin in nbva.final:
            final[index] = nbva.final[origin]
        return index

    for origin, _ in enumerate(nbva.states):
        kinds = incoming_action_kinds(nbva, origin)
        if not kinds:
            # Unreachable state: keep a single inert copy for structure.
            kinds = [injection_kind(nbva.states[origin].width)]
        for kind in kinds:
            add_copy(origin, kind)

    for origin, injection in nbva.initial.items():
        if injection:
            kind = injection_kind(nbva.states[origin].width)
            injected.add(add_copy(origin, kind))

    # Each original edge (p -> q, a) becomes (p_b -> q_a) for every copy
    # p_b of p; copies inherit all outgoing transitions of their original.
    preds: List[List[int]] = [[] for _ in states]
    copies_of: Dict[int, List[int]] = {}
    for (origin, _), index in copy_ids.items():
        copies_of.setdefault(origin, []).append(index)
    for t in nbva.transitions:
        dst_copy = copy_ids[(t.dst, t.action)]
        for src_copy in copies_of[t.src]:
            if src_copy not in preds[dst_copy]:
                preds[dst_copy].append(src_copy)

    for index, state in enumerate(states):
        pred_widths = [states[p].width for p in preds[index]]
        state.in_width = max(pred_widths, default=1)

    return AHNBVA(
        states=states,
        preds=preds,
        scopes=list(nbva.scopes),
        injected=injected,
        final=final,
        match_empty=nbva.match_empty,
    )


def is_counter_free(ah: AHNBVA) -> bool:
    """True when no state carries a live bit vector.

    Every state is then a plain width-1 STE whose action preserves the
    single activity bit (``copy``/``set1`` both map 1 to 1), so the whole
    AH-NBVA is a homogeneous NFA in disguise — see :func:`to_nfa`.
    """
    return all(
        state.width == 1
        and not state.action.reads_source
        and state.action.apply(1, 1, 1) == 1
        for state in ah.states
    )


def to_nfa(ah: AHNBVA) -> NFA:
    """Project a counter-free AH-NBVA onto the equivalent homogeneous NFA.

    With every vector one bit wide, aggregation is plain bitwise OR and
    the per-state action is the identity on activity, so the AH step
    (gate by predicate, OR the predecessors plus the injection) *is* the
    two-phase NFA bitset step.  A final state reports iff its
    finalisation condition fires on an active width-1 vector.

    Raises ``ValueError`` when the automaton holds live bit vectors
    (use :func:`is_counter_free` to pre-check).
    """
    if not is_counter_free(ah):
        raise ValueError("AH-NBVA holds live bit vectors; cannot project")
    transitions: List[List[int]] = [[] for _ in ah.states]
    for dst, sources in enumerate(ah.preds):
        for src in sources:
            transitions[src].append(dst)
    final = {
        state
        for state, condition in ah.final.items()
        if condition.apply(1, 1, 1)
    }
    nfa = NFA(
        classes=[state.cc for state in ah.states],
        transitions=[sorted(set(dsts)) for dsts in transitions],
        initial=set(ah.injected),
        final=final,
    )
    nfa.match_empty = ah.match_empty  # type: ignore[attr-defined]
    return nfa


class AHMatcher:
    """Simulator implementing the BVAP order: aggregate, then act (§3)."""

    def __init__(self, ah: AHNBVA) -> None:
        self.ah = ah
        self.reset()

    def reset(self) -> None:
        self.vectors = [0] * self.ah.num_states

    def step(self, symbol: int) -> bool:
        ah = self.ah
        old = self.vectors
        new = [0] * len(old)
        for dst, state in enumerate(ah.states):
            if symbol not in state.cc:
                continue
            agg = 1 if dst in ah.injected else 0
            for src in ah.preds[dst]:
                agg |= old[src]
            if agg:
                new[dst] = state.action.apply(agg, state.in_width, state.width)
        self.vectors = new
        return self.matched()

    def matched(self) -> bool:
        for state, condition in self.ah.final.items():
            value = self.vectors[state]
            if value and condition.apply(value, self.ah.states[state].width, 1):
                return True
        return False

    def match_ends(self, data: bytes) -> List[int]:
        self.reset()
        out = []
        for index, symbol in enumerate(data):
            if self.step(symbol):
                out.append(index)
        return out

    def active_states(self) -> List[int]:
        return [q for q, v in enumerate(self.vectors) if v]

    def active_count(self) -> int:
        """Number of active states (telemetry occupancy accounting)."""
        return sum(1 for v in self.vectors if v)
