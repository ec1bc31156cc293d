"""Compile-time required-literal extraction for scan prefiltering.

The fused scan engine (:mod:`repro.matching.fused`) can skip the
automaton over stretches of input that provably contain no match — but
only for patterns that *require* some literal byte string to appear in
every match.  This module derives that guarantee from the parsed AST.

The contract is a :class:`PatternLiterals` bundle of
:class:`LiteralHint`\\ s ``(literal, pre)`` meaning:

    every match of the pattern contains at least one of the hint
    literals, starting at most ``pre`` bytes after the match start.

That "pre" bound is what lets the matcher arm the pattern's start
states only inside ``[occurrence - pre, occurrence]`` windows around
each literal occurrence (see ``docs/matching.md``).  Soundness rules:

* a nullable subtree requires nothing (the empty match has no bytes);
* ``X{0,n}``, ``X*``, ``X?`` contribute **no** required literal, even
  when ``X`` is a literal — the repetition may match zero times;
* ``X{m,n}`` with ``m >= 1`` and ``X+`` require whatever ``X`` requires
  (the first iteration starts at offset 0);
* alternations require literals only when *both* branches do;
* a literal inside ``Concat(left, right)`` shifts its ``pre`` by the
  *maximum* match length of ``left`` — unbounded lefts (``.*lit``)
  therefore disqualify the right-hand literal.

Truncating a required literal to a prefix is always sound (a superset
of positions is armed), which keeps the sweep's literal checks short.

Extraction is intentionally conservative: ``extract_literals`` returns
``None`` whenever no *useful* guarantee exists (literals too short, too
many alternatives, or an unbounded ``pre``), and the engine keeps such
patterns always-on.  Among a node's candidate guarantees, one these
acceptance rules pass is always preferred, so a longer literal that
sits too far into the match never hides a usable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..regex.ast import (
    Alternation,
    Anchor,
    Concat,
    Epsilon,
    Optional_,
    Plus,
    Regex,
    Repeat,
    Star,
    Symbol,
    nullable,
)

__all__ = [
    "LiteralHint",
    "PatternLiterals",
    "extract_literals",
    "max_match_len",
    "MIN_LITERAL_LEN",
    "MAX_LITERAL_LEN",
    "MAX_LITERAL_ALTS",
    "MAX_PREFIX_DISTANCE",
]

#: Literals shorter than this are useless as filters (single bytes fire
#: roughly every ``256/size`` input bytes) and disqualify the pattern.
MIN_LITERAL_LEN = 2
#: Required literals are truncated to this many bytes before matching;
#: longer probes buy nothing once the false-positive rate is tiny.
MAX_LITERAL_LEN = 16
#: Maximum number of distinct hint literals per pattern.  It bounds what
#: one pattern adds to a chunk's sweep: a ``bytes.find`` pass per hint
#: in a small plan, a key (often a head of its own) in a code-unit sweep
#: (:class:`repro.matching.fused._UnitSweep`), whose groups each scan
#: the chunk once.  It also keeps out patterns whose literals are so
#: many alternatives of one class that they arm nearly everywhere.  The
#: bound dates from when every hint cost a ``find`` pass of 40-65 us per
#: 64 KiB; it has not been re-tuned for the code-unit sweep.
MAX_LITERAL_ALTS = 8
#: Maximum allowed ``pre`` (arming window) per hint.  Patterns whose
#: literal can sit arbitrarily far into the match stay always-on.
MAX_PREFIX_DISTANCE = 256

#: Character classes wider than this are not expanded into literal
#: alternatives during exact-language computation.
_EXACT_CLASS_LIMIT = 4
#: Caps on the exact-literal-language helper: alternative count and
#: total byte length per alternative.
_EXACT_MAX_ALTS = 16
_EXACT_MAX_LEN = 64


@dataclass(frozen=True)
class LiteralHint:
    """One required literal: occurs in every match, starting at most
    ``pre`` bytes after the match start."""

    literal: bytes
    pre: int


@dataclass(frozen=True)
class PatternLiterals:
    """The prefilter contract for one pattern (see module docstring)."""

    hints: Tuple[LiteralHint, ...]

    @property
    def max_literal_len(self) -> int:
        return max(len(hint.literal) for hint in self.hints)

    @property
    def max_reach(self) -> int:
        """Widest ``pre + len(literal)`` over the hints — how far past a
        match start the latest required byte can sit."""
        return max(hint.pre + len(hint.literal) for hint in self.hints)


# ----------------------------------------------------------------------
# Maximum match length (None = unbounded)


def max_match_len(node: Regex) -> Optional[int]:
    """Longest possible match of ``node`` in bytes, ``None`` if unbounded."""
    return _max_len(node, {})


# The memos below key on ``id(node)``: the nodes are frozen dataclasses,
# whose hash walks the whole subtree on every lookup.  The tree being
# walked keeps every node, and so its id, alive for the memo's lifetime.


def _max_len(node: Regex, memo: Dict[int, Optional[int]]) -> Optional[int]:
    key = id(node)
    if key in memo:
        return memo[key]
    result: Optional[int]
    if isinstance(node, Epsilon):
        result = 0
    elif isinstance(node, Anchor):
        # Zero-width, but anchor lowering may prepend/append one byte to
        # a ``\b`` variant; budgeting 1 keeps shifted ``pre`` windows
        # sound when hints are derived from the pre-lowering AST.
        result = 1 if node.kind == Anchor.WORD else 0
    elif isinstance(node, Symbol):
        result = 1
    elif isinstance(node, Concat):
        left = _max_len(node.left, memo)
        right = _max_len(node.right, memo)
        result = None if left is None or right is None else left + right
    elif isinstance(node, Alternation):
        left = _max_len(node.left, memo)
        right = _max_len(node.right, memo)
        result = None if left is None or right is None else max(left, right)
    elif isinstance(node, Optional_):
        result = _max_len(node.inner, memo)
    elif isinstance(node, (Star, Plus)):
        inner = _max_len(node.inner, memo)
        result = 0 if inner == 0 else None
    elif isinstance(node, Repeat):
        inner = _max_len(node.inner, memo)
        if inner == 0:
            result = 0
        elif node.high is None or inner is None:
            result = None
        else:
            result = inner * node.high
    else:  # pragma: no cover - future node kinds stay conservative
        result = None
    memo[key] = result
    return result


def _nullable(node: Regex, memo: Dict[int, bool]) -> bool:
    """:func:`repro.regex.ast.nullable`, memoised per node."""
    key = id(node)
    result = memo.get(key)
    if result is None:
        if isinstance(node, Concat):
            result = _nullable(node.left, memo) and _nullable(node.right, memo)
        elif isinstance(node, Alternation):
            result = _nullable(node.left, memo) or _nullable(node.right, memo)
        elif isinstance(node, Plus):
            result = _nullable(node.inner, memo)
        elif isinstance(node, Repeat):
            result = node.low == 0 or _nullable(node.inner, memo)
        else:
            result = nullable(node)
        memo[key] = result
    return result


# ----------------------------------------------------------------------
# Exact literal language (None when not a small finite set of literals)


def _exact(
    node: Regex, memo: Dict[int, Optional[FrozenSet[bytes]]]
) -> Optional[FrozenSet[bytes]]:
    """The complete match language of ``node`` as a small set of byte
    strings, or ``None`` when it is not exactly such a set (within the
    ``_EXACT_*`` caps).  Used to join literal runs — ``literal("abc")``
    parses to a Concat tree of single-byte symbols — and to turn small
    alternations of literals into hint alternatives."""
    key = id(node)
    if key in memo:
        return memo[key]
    result: Optional[FrozenSet[bytes]] = None
    if isinstance(node, Epsilon):
        result = frozenset((b"",))
    elif isinstance(node, Anchor):
        # ``^``/``$`` only constrain position: treating them as the empty
        # string keeps the literal join sound.  ``\b`` lowering can add a
        # neighbouring byte, so it contributes no exact language.
        if node.kind != Anchor.WORD:
            result = frozenset((b"",))
    elif isinstance(node, Symbol):
        if node.cc.size() <= _EXACT_CLASS_LIMIT:
            result = frozenset(bytes((byte,)) for byte in node.cc)
    elif isinstance(node, Concat):
        left = _exact(node.left, memo)
        right = _exact(node.right, memo) if left is not None else None
        if left is not None and right is not None:
            joined = set()
            for a in left:
                for b in right:
                    if len(a) + len(b) > _EXACT_MAX_LEN:
                        joined = None
                        break
                    joined.add(a + b)
                if joined is None or len(joined) > _EXACT_MAX_ALTS:
                    joined = None
                    break
            result = frozenset(joined) if joined is not None else None
    elif isinstance(node, Alternation):
        left = _exact(node.left, memo)
        right = _exact(node.right, memo) if left is not None else None
        if left is not None and right is not None:
            union = left | right
            result = union if len(union) <= _EXACT_MAX_ALTS else None
    elif isinstance(node, Optional_):
        inner = _exact(node.inner, memo)
        if inner is not None and len(inner) + 1 <= _EXACT_MAX_ALTS:
            result = inner | {b""}
    elif isinstance(node, Repeat) and node.high is not None:
        inner = _exact(node.inner, memo)
        if inner is not None:
            tiers = frozenset((b"",))
            language = set() if node.low > 0 else {b""}
            ok = True
            for count in range(1, node.high + 1):
                joined = set()
                for a in tiers:
                    for b in inner:
                        if len(a) + len(b) > _EXACT_MAX_LEN:
                            ok = False
                            break
                        joined.add(a + b)
                    if not ok or len(joined) > _EXACT_MAX_ALTS:
                        ok = False
                        break
                if not ok:
                    break
                tiers = frozenset(joined)
                if count >= node.low:
                    language |= tiers
                if len(language) > _EXACT_MAX_ALTS:
                    ok = False
                    break
            result = frozenset(language) if ok else None
    # Star / Plus: infinite languages, stay None.
    memo[key] = result
    return result


# ----------------------------------------------------------------------
# Required-literal alternatives


@dataclass(frozen=True)
class _Limits:
    """The acceptance rules of :func:`extract_literals`."""

    min_len: int = MIN_LITERAL_LEN
    max_len: int = MAX_LITERAL_LEN
    max_alts: int = MAX_LITERAL_ALTS
    max_pre: int = MAX_PREFIX_DISTANCE


class _Memos:
    """One extraction's limits and memos, each memo keyed on
    ``id(node)``."""

    __slots__ = ("limits", "required", "exact", "max_len", "nullable")

    def __init__(self, limits: _Limits) -> None:
        self.limits = limits
        self.required: Dict[int, Optional[Tuple[Tuple[bytes, int], ...]]] = {}
        self.exact: Dict[int, Optional[FrozenSet[bytes]]] = {}
        self.max_len: Dict[int, Optional[int]] = {}
        self.nullable: Dict[int, bool] = {}


def _accept(
    candidate: Tuple[Tuple[bytes, int], ...], limits: _Limits
) -> Optional[Dict[bytes, int]]:
    """``candidate`` truncated to ``max_len``-byte prefixes, duplicates
    merged on the widest ``pre``; None when it breaks an acceptance rule.
    Truncation to a prefix is sound."""
    merged: Dict[bytes, int] = {}
    for literal, pre in candidate:
        prefix = literal[: limits.max_len]
        prev = merged.get(prefix)
        if prev is None or pre > prev:
            merged[prefix] = pre
    if len(merged) > limits.max_alts:
        return None
    for literal, pre in merged.items():
        if len(literal) < limits.min_len or pre > limits.max_pre:
            return None
    return merged


def _required(
    node: Regex, memos: _Memos
) -> Optional[Tuple[Tuple[bytes, int], ...]]:
    """A tuple of ``(literal, pre)`` alternatives such that every match
    of ``node`` contains one of the literals starting at most ``pre``
    bytes after the match start — or ``None`` when no finite guarantee
    exists.  The best of :func:`_candidates`: one the acceptance rules
    pass if any does, as a parent only widens ``pre`` and adds
    alternatives, so a rejected candidate stays rejected above."""
    memo = memos.required
    key = id(node)
    if key in memo:
        return memo[key]
    candidates = _candidates(node, memos)
    result = max(candidates, key=_candidate_score, default=None)
    limits = memos.limits
    if len(candidates) > 1 and _accept(result, limits) is None:
        result = max(
            candidates,
            key=lambda candidate: (
                _accept(candidate, limits) is not None,
                *_candidate_score(candidate),
            ),
        )
    memo[key] = result
    return result


def _candidates(
    node: Regex, memos: _Memos
) -> List[Tuple[Tuple[bytes, int], ...]]:
    """Every required-literal alternative tuple derived for ``node`` from
    its own exact language and its children's choices; empty when
    ``node`` is nullable (the empty match contains no literal at all)."""
    if _nullable(node, memos.nullable):
        return []
    candidates = []
    exact = _exact(node, memos.exact)
    if exact and all(exact):
        candidates.append(tuple((lit, 0) for lit in sorted(exact)))

    if isinstance(node, Concat):
        left = _required(node.left, memos)
        if left is not None:
            candidates.append(left)
        left_max = _max_len(node.left, memos.max_len)
        if left_max is not None:
            right = _required(node.right, memos)
            if right is not None:
                candidates.append(
                    tuple((lit, pre + left_max) for lit, pre in right)
                )
    elif isinstance(node, Alternation):
        left = _required(node.left, memos)
        right = _required(node.right, memos) if left is not None else None
        if left is not None and right is not None:
            merged: Dict[bytes, int] = {}
            for lit, pre in left + right:
                prev = merged.get(lit)
                if prev is None or pre > prev:
                    merged[lit] = pre
            candidates.append(tuple(sorted(merged.items())))
    elif isinstance(node, Plus):
        inner = _required(node.inner, memos)
        if inner is not None:
            candidates.append(inner)
    elif isinstance(node, Repeat) and node.low >= 1:
        # The first of the >= 1 mandatory iterations starts at offset 0.
        inner = _required(node.inner, memos)
        if inner is not None:
            candidates.append(inner)
    # Star / Optional_ / Repeat{0,n} are nullable and returned above;
    # Symbol and Epsilon are covered by the exact-language candidate.
    return candidates


def _candidate_score(
    candidate: Tuple[Tuple[bytes, int], ...]
) -> Tuple[int, int, int]:
    """Prefer longer literals, then fewer alternatives, then tighter
    arming windows."""
    shortest = min(len(lit) for lit, _ in candidate)
    widest_pre = max(pre for _, pre in candidate)
    return (shortest, -len(candidate), -widest_pre)


# ----------------------------------------------------------------------
# Public entry point


def extract_literals(
    node: Regex,
    *,
    min_len: int = MIN_LITERAL_LEN,
    max_len: int = MAX_LITERAL_LEN,
    max_alts: int = MAX_LITERAL_ALTS,
    max_pre: int = MAX_PREFIX_DISTANCE,
) -> Optional[PatternLiterals]:
    """Derive the prefilter contract for one parsed pattern.

    Returns ``None`` when the pattern has no usable required literal —
    the engine then keeps its start states always armed.
    """
    limits = _Limits(min_len, max_len, max_alts, max_pre)
    required = _required(node, _Memos(limits))
    merged = None if required is None else _accept(required, limits)
    if merged is None:
        return None
    hints = tuple(
        LiteralHint(literal, pre)
        for literal, pre in sorted(
            merged.items(), key=lambda item: (-len(item[0]), item[0])
        )
    )
    return PatternLiterals(hints)
