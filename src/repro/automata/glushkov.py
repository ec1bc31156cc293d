"""Glushkov construction: regex AST → homogeneous ε-free NFA (§2).

The construction linearises the regex (one *position* per character-class
occurrence) and computes the classical ``nullable`` / ``first`` / ``last`` /
``follow`` sets.  The resulting automaton has exactly one state per
position, is ε-free, and is homogeneous — all incoming transitions of a
position carry that position's character class — which is the property
AP-style hardware exploits by storing the predicate in the STE.

Bounded repetitions must be removed (unfolded) before calling
:func:`glushkov`; this mirrors the baseline processors' compilation flow,
whose flat unfolding ``r^m (r?)^(n-m)`` links every optional copy to
every later one: O((n-m)²) edges.  :func:`nested_glushkov` unfolds each
``r{m,n}`` inside the construction instead, as the nested
``r^m (r(r(…)?)?)?``: the same positions and language, O(n) edges.  It
is the software scan engine's automaton.  The counting-aware
generalisation lives in ``repro.compiler.translate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from ..regex import ast
from ..regex.charclass import CharClass
from ..regex.rewrite import DEFAULT_MAX_UNFOLD, check_unfold_budget
from .nfa import NFA


@dataclass
class _Fragment:
    """Glushkov data for a subtree: nullability and boundary positions."""

    nullable: bool
    first: Set[int]
    last: Set[int]


def glushkov(node: ast.Regex) -> NFA:
    """Build the Glushkov NFA of a Repeat-free regex AST.

    Raises ``ValueError`` if a bounded repetition survives in the AST.

    The NFA's start-anywhere initial set is ``first`` and its reporting set
    is ``last``; a nullable regex matches the empty string, which AP-style
    reporting cannot express, so nullability is surfaced via the
    ``match_empty`` attribute set on the returned NFA.
    """
    return _construct(node, False)


def nested_glushkov(node: ast.Regex) -> NFA:
    """The Glushkov NFA of ``node`` with every ``r{m,n}`` unfolded nested.

    Each repetition becomes ``n`` copies of ``r``'s positions (``m + 1``
    for ``r{m,}``, the last one looping), chained so that only the last
    positions of copy ``k`` link to the first ones of copy ``k + 1``:
    the Glushkov automaton of ``r^m (r(r(…)?)?)?``.  A copy is linked as the
    non-empty words of ``r``, so a nullable ``r`` reads as the equal
    ``(r \\ ε){0,n}`` and no copy is skipped by an edge over it.  The
    copies are made in a loop, not by recursion, so an ``{m,n}`` of any
    width costs no stack depth.

    The positions, their classes and the language equal those of
    ``glushkov(unfold_all(node))``; the edges fall from O((n-m)²) to
    O(n) per repetition.  Each unfolding is bounded by
    :data:`repro.regex.rewrite.DEFAULT_MAX_UNFOLD` symbols, as in
    :func:`repro.regex.rewrite.unfold_all`.
    """
    return _construct(node, True)


def _construct(node: ast.Regex, repeats: bool) -> NFA:
    """The shared construction; ``repeats`` admits ``Repeat`` nodes."""
    positions: List[CharClass] = []
    follow: List[List[int]] = []

    def visit(sub: ast.Regex) -> _Fragment:
        if isinstance(sub, ast.Epsilon):
            return _Fragment(True, set(), set())
        if isinstance(sub, ast.Symbol):
            index = len(positions)
            positions.append(sub.cc)
            follow.append([])
            return _Fragment(False, {index}, {index})
        if isinstance(sub, ast.Concat):
            left = visit(sub.left)
            right = visit(sub.right)
            _link(follow, left.last, right.first)
            return _Fragment(
                left.nullable and right.nullable,
                left.first | (right.first if left.nullable else set()),
                right.last | (left.last if right.nullable else set()),
            )
        if isinstance(sub, ast.Alternation):
            left = visit(sub.left)
            right = visit(sub.right)
            return _Fragment(
                left.nullable or right.nullable,
                left.first | right.first,
                left.last | right.last,
            )
        if isinstance(sub, ast.Star):
            inner = visit(sub.inner)
            _link(follow, inner.last, inner.first)
            return _Fragment(True, inner.first, inner.last)
        if isinstance(sub, ast.Plus):
            inner = visit(sub.inner)
            _link(follow, inner.last, inner.first)
            return _Fragment(inner.nullable, inner.first, inner.last)
        if isinstance(sub, ast.Optional_):
            inner = visit(sub.inner)
            return _Fragment(True, inner.first, inner.last)
        if isinstance(sub, ast.Repeat):
            if not repeats:
                raise ValueError(
                    "glushkov() requires an unfolded AST; "
                    f"found bounded repetition {sub}"
                )
            check_unfold_budget(
                sub.inner, sub.low, sub.high, DEFAULT_MAX_UNFOLD
            )
            return nested(sub)
        raise TypeError(f"unknown node: {sub!r}")

    def nested(sub: ast.Repeat) -> _Fragment:
        copies = sub.high if sub.high is not None else sub.low + 1
        if copies == 0:
            return _Fragment(True, set(), set())
        base = len(positions)
        inner = visit(sub.inner)
        size = len(positions) - base
        # Copy 0 is the block just built; its follow lists hold only
        # edges inside it, so the other copies are shifted clones.
        classes = positions[base:]
        edges = [[dst - base for dst in dsts] for dsts in follow[base:]]
        for copy in range(1, copies):
            offset = base + copy * size
            positions.extend(classes)
            follow.extend([offset + dst for dst in dsts] for dsts in edges)
        first = [q - base for q in inner.first]
        last = [q - base for q in inner.last]
        for copy in range(copies - 1):
            here, there = base + copy * size, base + (copy + 1) * size
            targets = [there + q for q in first]
            for q in last:
                follow[here + q].extend(targets)
        tail = base + (copies - 1) * size
        if sub.high is None:
            for q in last:
                follow[tail + q].extend(tail + f for f in first)
        # A nullable ``r`` repeats as ``(r \ ε){0,n}``: every copy may end
        # the word.  Otherwise the word ends after copy m at the earliest.
        mandatory = 0 if inner.nullable else sub.low
        ends = range(max(mandatory, 1) - 1, copies)
        return _Fragment(
            mandatory == 0,
            {base + q for q in first},
            {base + copy * size + q for copy in ends for q in last},
        )

    fragment = visit(node)
    nfa = NFA(
        classes=positions,
        transitions=[sorted(set(dsts)) for dsts in follow],
        initial=fragment.first,
        final=fragment.last,
    )
    nfa.match_empty = fragment.nullable  # type: ignore[attr-defined]
    return nfa


def _link(follow: List[List[int]], sources: Set[int], targets: Set[int]) -> None:
    for src in sources:
        follow[src].extend(targets)
