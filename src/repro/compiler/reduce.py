"""Position-automaton reduction: follow/left quotients over the AH-NBVA.

Glushkov position automata are famously larger than necessary; Gouveia,
Moreira and Reis (*Small NFAs from Regular Expressions*, PAPERS.md) show
they shrink substantially under **follow equivalence** and the classical
left-/right-invariant quotients.  This pass applies both to the AH-NBVA
produced by :func:`repro.compiler.translate.translate` +
:func:`repro.automata.ah.to_action_homogeneous`, composed with the
dead-state elimination in :func:`repro.automata.optimize.prune`:

* **follow (right) merges** — a forward-bisimulation quotient: states
  with the same predicate, action, width, reporting behaviour, and
  block-equivalent successor sets are merged, unioning their incoming
  edges and injection flags;
* **left merges** — a backward-bisimulation quotient: states with the
  same predicate, action, width, injection flag, reporting behaviour,
  and block-equivalent predecessor sets are merged, unioning their
  outgoing edges.

Both quotients are *exactly* match-stream preserving — not just
language-preserving — because every NBVA action is linear with respect
to bitwise OR (``f(a | b) == f(a) | f(b)``, see
``repro.automata.actions``): the merged state's vector is provably the
OR of its members' vectors (follow merges) or their common value (left
merges) at every step, so aggregation downstream sees exactly the bits
it saw before.

**Counter scopes are merge barriers.**  Only *plain* states — width 1,
non-reading action, no counting scope — are merge candidates; every
counting state (and every read-exit state) keeps its own identity, so
bounded-repetition semantics are untouched and states in distinct
``ah.scopes`` can never merge.  Counter-free projections
(:func:`repro.automata.ah.is_counter_free`) therefore reduce fully,
while counting automata reduce their plain regions only.

``reduce_level`` semantics (the :class:`CompilerOptions` knob):

* ``0`` — reduction off: dead-state pruning only (the pre-pass
  behaviour, bit-for-bit);
* ``1`` — pruning + follow (right) merges, iterated to a fixpoint;
* ``2`` — pruning + follow + left merges, iterated to a fixpoint
  (the default).

:func:`reduce_nfa` applies the same two quotients (plus
reachable/co-reachable pruning) to a plain homogeneous NFA — the
unfolded-Glushkov scan path that the fused software engine executes for
counting patterns (see :func:`repro.compiler.pipeline.build_scan_nfa`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..automata.ah import AHNBVA, AHState
from ..automata.nfa import NFA
from ..automata.optimize import prune

#: The default (and maximum) reduction level.
DEFAULT_REDUCE_LEVEL = 2

#: Valid values of the ``reduce_level`` knob.
REDUCE_LEVELS = (0, 1, 2)


def _empty_summary(ah: AHNBVA, level: int) -> Dict[str, int]:
    return {
        "level": level,
        "states_before": ah.num_states,
        "states_after": ah.num_states,
        "bv_stes_before": ah.num_bv_stes(),
        "bv_stes_after": ah.num_bv_stes(),
        "edges_before": ah.num_edges(),
        "edges_after": ah.num_edges(),
        "pruned": 0,
        "merged_follow": 0,
        "merged_left": 0,
        "passes": 0,
    }


def reduce_ah(
    ah: AHNBVA, level: int = DEFAULT_REDUCE_LEVEL
) -> Tuple[AHNBVA, Dict[str, int]]:
    """Reduce an AH-NBVA; returns ``(reduced, summary)``.

    The summary folds the :func:`~repro.automata.optimize.pruning_summary`
    counts and the per-rule merge counts into one structure::

        {"level", "states_before", "states_after",
         "bv_stes_before", "bv_stes_after", "edges_before", "edges_after",
         "pruned", "merged_follow", "merged_left", "passes"}
    """
    if level not in REDUCE_LEVELS:
        raise ValueError(f"reduce_level must be one of {REDUCE_LEVELS}")
    summary = _empty_summary(ah, level)
    current = ah
    changed = True
    while changed:
        changed = False
        summary["passes"] += 1
        pruned = prune(current)
        if pruned.num_states != current.num_states:
            summary["pruned"] += current.num_states - pruned.num_states
            changed = True
        current = pruned
        if level >= 1:
            partition = _ah_partition(current, backward=False)
            if len(partition) != current.num_states:
                summary["merged_follow"] += current.num_states - len(partition)
                current = _ah_quotient(current, partition)
                changed = True
        if level >= 2:
            partition = _ah_partition(current, backward=True)
            if len(partition) != current.num_states:
                summary["merged_left"] += current.num_states - len(partition)
                current = _ah_quotient(current, partition)
                changed = True
    summary["states_after"] = current.num_states
    summary["bv_stes_after"] = current.num_bv_stes()
    summary["edges_after"] = current.num_edges()
    return current, summary


# -- partition refinement ----------------------------------------------


_MASK64 = (1 << 64) - 1

#: Hash salts :func:`_refine` tries before giving up; each retry needs a
#: fresh 64-bit collision, so the first salt all but always stands.
_MAX_SALTS = 4


def _block_hash(block_id: int, salt: int) -> int:
    """A 64-bit hash of a block id (the splitmix64 finaliser)."""
    z = ((block_id + (salt << 32)) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _refine(
    seeds: List[object], adjacency: List[List[int]], frozen: Sequence[bool]
) -> List[List[int]]:
    """Coarsest partition refining ``seeds`` and stable under ``adjacency``.

    ``seeds[q]`` is the initial signature of state ``q``; ``frozen[q]``
    states are forced into singleton blocks (they are never merge
    candidates, but still participate as refinement context).  Two
    non-frozen states stay together only while they share a seed and
    their adjacent states fall into the same set of blocks — i.e. the
    quotient is a bisimulation with respect to ``adjacency``.

    Blocks are listed by their smallest state, members ascending.  The
    refinement is a worklist (see :func:`_refine_salted`): a pass over
    every edge per round would rescan the O(N²) edges of an unfolded
    ``.{1,N}`` gap once for each state it splits off.
    """
    groups: Dict[object, List[int]] = {}
    for q in range(len(seeds)):
        key = ("frozen", q) if frozen[q] else ("seed", seeds[q])
        groups.setdefault(key, []).append(q)
    incoming: List[List[int]] = [[] for _ in seeds]
    for q, adjacent in enumerate(adjacency):
        for n in adjacent:
            incoming[n].append(q)
    # A hash collision leaves a block unstable; another salt re-hashes.
    for salt in range(_MAX_SALTS):
        blocks = _refine_salted(
            list(groups.values()), adjacency, incoming, frozen, salt
        )
        if blocks is not None:
            return blocks
    raise RuntimeError("partition refinement found no stable partition")


def _refine_salted(
    initial: List[List[int]],
    adjacency: List[List[int]],
    incoming: List[List[int]],
    frozen: Sequence[bool],
    salt: int,
) -> Optional[List[List[int]]]:
    """One worklist refinement of the ``initial`` blocks, or ``None``
    when a hash collision left the result unstable.

    Each state counts its adjacent states per block and keeps the sum
    of its adjacent blocks' hashes as its signature, so moving a state
    costs only its incoming edges.  A round regroups, block by block,
    the states with an adjacent state that moved; a split block keeps
    its largest group, and the others move to new blocks, so each state
    moves O(log n) times: O(E log n) in all.  A hash collision can only
    keep states with different adjacent block sets together, never
    split equal ones, so the result is the coarsest stable partition
    exactly when the final check finds every block stable.
    """
    block_of = [0] * len(adjacency)
    members: List[Set[int]] = []
    for block_id, group in enumerate(initial):
        members.append(set(group))
        for q in group:
            block_of[q] = block_id
    hashes = [_block_hash(block_id, salt) for block_id in range(len(members))]
    counts: List[Dict[int, int]] = []
    signature: List[int] = []
    for adjacent in adjacency:
        per_block: Dict[int, int] = {}
        for n in adjacent:
            block_id = block_of[n]
            per_block[block_id] = per_block.get(block_id, 0) + 1
        counts.append(per_block)
        signature.append(sum(hashes[b] for b in per_block) & _MASK64)
    # The signature shared by a block's members, once it is known.
    block_signature: List[Optional[int]] = [None] * len(members)
    pending = {q for q in range(len(adjacency)) if not frozen[q]}
    while pending:
        touched: Dict[int, List[int]] = {}
        for q in pending:
            touched.setdefault(block_of[q], []).append(q)
        moves: List[Tuple[int, int, int]] = []
        for block_id, states in touched.items():
            block = members[block_id]
            by_signature: Dict[int, List[int]] = {}
            for q in states:
                by_signature.setdefault(signature[q], []).append(q)
            sizes = {sig: len(group) for sig, group in by_signature.items()}
            untouched = len(block) - len(states)
            shared = block_signature[block_id]
            if untouched:
                # The untouched members still carry the shared signature.
                sizes[shared] = sizes.get(shared, 0) + untouched
            keep = max(sizes, key=sizes.__getitem__)
            if untouched and keep != shared:
                by_signature.setdefault(shared, []).extend(
                    block.difference(states)
                )
            by_signature.pop(keep, None)
            block_signature[block_id] = keep
            for sig, moved in by_signature.items():
                new_id = len(members)
                members.append(set(moved))
                block_signature.append(sig)
                hashes.append(_block_hash(new_id, salt))
                block.difference_update(moved)
                for q in moved:
                    block_of[q] = new_id
                    moves.append((q, block_id, new_id))
        pending = set()
        for q, old, new in moves:
            for p in incoming[q]:
                per_block = counts[p]
                if per_block[old] == 1:
                    del per_block[old]
                    signature[p] = (signature[p] - hashes[old]) & _MASK64
                else:
                    per_block[old] -= 1
                if new in per_block:
                    per_block[new] += 1
                else:
                    per_block[new] = 1
                    signature[p] = (signature[p] + hashes[new]) & _MASK64
                if not frozen[p]:
                    pending.add(p)
    for block in members:
        if len({frozenset(counts[q]) for q in block}) > 1:
            return None
    blocks = [sorted(block) for block in members]
    blocks.sort(key=lambda block: block[0])
    return blocks


def _successors(ah: AHNBVA) -> List[List[int]]:
    succs: List[List[int]] = [[] for _ in range(ah.num_states)]
    for dst, sources in enumerate(ah.preds):
        for src in sources:
            succs[src].append(dst)
    return succs


def _mergeable(state: AHState) -> bool:
    """Merge candidates are the plain states only.

    Counting states (``width > 1``), read-exit states
    (``action.reads_source``), and anything attached to a counter scope
    stay in singleton blocks — the counter-scope merge barrier.
    """
    return (
        state.width == 1
        and not state.action.reads_source
        and state.scope is None
    )


def _final_effect(ah: AHNBVA, q: int) -> Optional[int]:
    """Reporting behaviour of a plain state: fires-on-active, or None."""
    condition = ah.final.get(q)
    if condition is None:
        return None
    return 1 if condition.apply(1, 1, 1) else 0


def _ah_partition(ah: AHNBVA, backward: bool) -> List[List[int]]:
    frozen = [not _mergeable(state) for state in ah.states]
    seeds: List[object] = []
    for q, state in enumerate(ah.states):
        if frozen[q]:
            seeds.append(None)  # singleton block; the seed is unused
            continue
        seed = [state.cc, state.action, state.width, state.in_width,
                _final_effect(ah, q)]
        if backward:
            # Injection behaves like an incoming edge: left-equivalent
            # states must agree on it so their vectors stay identical.
            seed.append(q in ah.injected)
        seeds.append(tuple(seed))
    adjacency = list(ah.preds) if backward else _successors(ah)
    return _refine(seeds, adjacency, frozen)


def _ah_quotient(ah: AHNBVA, blocks: List[List[int]]) -> AHNBVA:
    """Rebuild the AH-NBVA with each block collapsed to one state."""
    block_of = [0] * ah.num_states
    for block_id, members in enumerate(blocks):
        for q in members:
            block_of[q] = block_id

    states: List[AHState] = []
    preds: List[List[int]] = []
    injected: Set[int] = set()
    final: Dict[int, object] = {}
    for block_id, members in enumerate(blocks):
        rep = ah.states[members[0]]
        merged_preds = sorted(
            {block_of[p] for q in members for p in ah.preds[q]}
        )
        states.append(
            AHState(
                cc=rep.cc,
                action=rep.action,
                width=rep.width,
                scope=rep.scope,
                origin=rep.origin,
            )
        )
        preds.append(merged_preds)
        if any(q in ah.injected for q in members):
            injected.add(block_id)
        for q in members:
            if q in ah.final:
                final[block_id] = ah.final[q]
                break
    for block_id, state in enumerate(states):
        pred_widths = [states[p].width for p in preds[block_id]]
        state.in_width = max(pred_widths, default=1)
    return AHNBVA(
        states=states,
        preds=preds,
        scopes=list(ah.scopes),
        injected=injected,
        final=final,  # type: ignore[arg-type]
        match_empty=ah.match_empty,
    )


# -- plain-NFA reduction (the unfolded scan path) ----------------------


def reduce_nfa(nfa: NFA, level: int = DEFAULT_REDUCE_LEVEL) -> NFA:
    """Apply the same quotients to a plain homogeneous NFA.

    Used by :func:`repro.compiler.pipeline.build_scan_nfa` on the
    fully unfolded Glushkov automaton of counting patterns, so the fused
    engine's combined bitset (and each ``pattern_slice``) narrows for
    those patterns too.  ``match_empty`` (set dynamically by
    :func:`repro.automata.ah.to_nfa`) is preserved when present.
    """
    if level not in REDUCE_LEVELS:
        raise ValueError(f"reduce_level must be one of {REDUCE_LEVELS}")
    current = _prune_nfa(nfa)
    if level >= 1:
        changed = True
        while changed:
            changed = False
            partition = _nfa_partition(current, backward=False)
            if len(partition) != current.num_states:
                current = _nfa_quotient(current, partition)
                changed = True
            if level >= 2:
                partition = _nfa_partition(current, backward=True)
                if len(partition) != current.num_states:
                    current = _nfa_quotient(current, partition)
                    changed = True
    _carry_match_empty(nfa, current)
    return current


def _prune_nfa(nfa: NFA) -> NFA:
    """Drop states that are unreachable or cannot reach a final state."""
    reachable: Set[int] = set()
    frontier = [q for q in nfa.initial if not nfa.classes[q].is_empty()]
    while frontier:
        q = frontier.pop()
        if q in reachable:
            continue
        reachable.add(q)
        for nxt in nfa.transitions[q]:
            if nxt not in reachable and not nfa.classes[nxt].is_empty():
                frontier.append(nxt)
    preds = nfa.predecessors()
    useful: Set[int] = set()
    frontier = [q for q in nfa.final if q in reachable]
    while frontier:
        q = frontier.pop()
        if q in useful:
            continue
        useful.add(q)
        for prev in preds[q]:
            if prev in reachable and prev not in useful:
                frontier.append(prev)
    if len(useful) == nfa.num_states:
        return nfa
    remap = {old: new for new, old in enumerate(sorted(useful))}
    pruned = NFA(
        classes=[nfa.classes[q] for q in sorted(useful)],
        transitions=[
            sorted(remap[d] for d in nfa.transitions[q] if d in useful)
            for q in sorted(useful)
        ],
        initial={remap[q] for q in nfa.initial if q in useful},
        final={remap[q] for q in nfa.final if q in useful},
    )
    _carry_match_empty(nfa, pruned)
    return pruned


def _nfa_partition(nfa: NFA, backward: bool) -> List[List[int]]:
    frozen = [False] * nfa.num_states
    seeds: List[object] = []
    for q in range(nfa.num_states):
        seed = [nfa.classes[q]]
        if backward:
            seed.append(q in nfa.initial)
        else:
            seed.append(q in nfa.final)
        seeds.append(tuple(seed))
    adjacency = nfa.predecessors() if backward else nfa.transitions
    return _refine(seeds, adjacency, frozen)


def _nfa_quotient(nfa: NFA, blocks: List[List[int]]) -> NFA:
    block_of = [0] * nfa.num_states
    for block_id, members in enumerate(blocks):
        for q in members:
            block_of[q] = block_id
    quotient = NFA(
        classes=[nfa.classes[members[0]] for members in blocks],
        transitions=[
            sorted({block_of[d] for q in members for d in nfa.transitions[q]})
            for members in blocks
        ],
        initial={block_of[q] for q in nfa.initial},
        final={block_of[q] for q in nfa.final},
    )
    _carry_match_empty(nfa, quotient)
    return quotient


def _carry_match_empty(source: NFA, target: NFA) -> None:
    if target is source:
        return
    match_empty = getattr(source, "match_empty", None)
    if match_empty is not None:
        target.match_empty = match_empty  # type: ignore[attr-defined]
