"""Expected events per operation, from Python ``re`` instead of an automaton.

The engines report every ``(pattern, end)`` such that some non-empty
substring ending at ``end`` matches the pattern.  Python's ``re`` finds
one match per start, so the reference searches the *reversed* pattern
over the *reversed* bytes: every start found there is an end here.
Only the repository's parser is shared with the timed path; no
automaton, table, cache or prefilter code runs.

Two rewrites keep backtracking linear on the ClamAV shapes, and both
preserve the language:

* adjacent loops over one class merge (``C+C{40,}`` is ``C{41,}``);
* a trailing loop over one class, ``Q C{a,b}``, is peeled off: its ends
  are ``e' + t`` for every end ``e'`` of ``Q`` and every ``a <= t <= b``
  that stays inside the run of ``C`` bytes after ``e'``.

Digests are computed once per input and stored under ``.cache`` beside
this file, keyed by the rule sets and the input bytes.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.regex import ast
from repro.regex.parser import parse
from repro.workloads import WORKLOAD_PROFILES

from workloads import CACHE_DIR, CHUNK_BYTES, RECORD_PROFILES, Inputs

#: Bumped whenever the reference semantics or digest format change.
VERSION = "1"

Event = Tuple[int, int]  # (pattern_id, end), as PatternSet reports them


def digest(events: Sequence[Event]) -> str:
    """Digest of one operation's events in emitted order."""
    return hashlib.sha256(repr(list(events)).encode()).hexdigest()[:16]


def mismatches(got: Sequence[Optional[str]], want: Sequence[str]) -> int:
    """Operations whose digests differ from ``want`` (``None``: raised)."""
    return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))


def checked(digests: Sequence[Optional[str]], want: Sequence[str]) -> Dict[str, object]:
    """Operations attempted and failed, and one digest of the whole
    event stream, so a repetition returns a few bytes however many
    operations it ran."""
    return {
        "attempted": len(digests),
        "failed": mismatches(digests, want),
        "stream_digest": hashlib.sha256(repr(list(digests)).encode()).hexdigest(),
    }


# -- rendering a reversed AST as a Python bytes regex ---------------------


def _class(cc) -> str:
    if cc.is_empty():
        return "(?!)"
    parts = [
        f"\\x{lo:02x}" if lo == hi else f"\\x{lo:02x}-\\x{hi:02x}"
        for lo, hi in cc.ranges()
    ]
    return "[" + "".join(parts) + "]"


def _loop(node: ast.Regex) -> Optional[Tuple[object, int, Optional[int]]]:
    """``(class, low, high)`` when ``node`` repeats a single class."""
    inner = getattr(node, "inner", None)
    if not isinstance(inner, ast.Symbol):
        return None
    if isinstance(node, ast.Star):
        return inner.cc, 0, None
    if isinstance(node, ast.Plus):
        return inner.cc, 1, None
    if isinstance(node, ast.Optional_):
        return inner.cc, 0, 1
    if isinstance(node, ast.Repeat):
        return inner.cc, node.low, node.high
    return None


def _parts(node: ast.Regex) -> List[ast.Regex]:
    """A concatenation flattened left to right, adjacent class loops
    merged."""
    if isinstance(node, ast.Concat):
        flat = _parts(node.left) + _parts(node.right)
    else:
        return [node]
    out: List[ast.Regex] = []
    for part in flat:
        mine, prev = _loop(part), _loop(out[-1]) if out else None
        if mine and prev and mine[0] == prev[0]:
            high = (
                None if mine[2] is None or prev[2] is None
                else mine[2] + prev[2]
            )
            out[-1] = ast.Repeat(ast.Symbol(mine[0]), mine[1] + prev[1], high)
        else:
            out.append(part)
    return out


def _reversed(node: ast.Regex) -> str:
    """``node``'s reversal as Python bytes-regex source."""
    if isinstance(node, ast.Epsilon):
        return "(?:)"
    if isinstance(node, ast.Symbol):
        return _class(node.cc)
    if isinstance(node, ast.Anchor):
        # Reversal swaps the stream ends; \b is symmetric.
        return {"start": r"\Z", "end": r"\A", "word": r"\b"}[node.kind]
    if isinstance(node, ast.Concat):
        return "".join(_reversed(part) for part in reversed(_parts(node)))
    if isinstance(node, ast.Alternation):
        return f"(?:{_reversed(node.left)}|{_reversed(node.right)})"
    loop = {ast.Star: "*", ast.Plus: "+", ast.Optional_: "?"}
    if type(node) in loop:
        return f"(?:{_reversed(node.inner)}){loop[type(node)]}"
    if isinstance(node, ast.Repeat):
        high = "" if node.high is None else str(node.high)
        return f"(?:{_reversed(node.inner)}){{{node.low},{high}}}"
    raise TypeError(f"unknown node: {node!r}")


# -- match ends ------------------------------------------------------------


def _extend(
    ends: List[int], cc, low: int, high: Optional[int], data: bytes
) -> List[int]:
    """Ends of ``Q C{low,high}`` from the ends of ``Q``."""
    run = re.compile(_class(cc).encode("latin-1") + b"*", re.DOTALL)
    out: List[int] = []
    reach = -1  # furthest end emitted so far
    run_from, run_to = -1, -1  # last C-run looked up: [run_from, run_to)
    for end in ends:
        start = end + 1
        if not run_from <= start <= run_to:
            run_from, run_to = start, run.match(data, start).end()
        top = run_to - 1 if high is None else min(end + high, run_to - 1)
        lo = max(end + low, reach + 1)
        if lo <= top:
            out.extend(range(lo, top + 1))
            reach = top
    return out


class PatternReference:
    """One pattern's reversed search regex plus its peeled tail loops."""

    def __init__(self, pattern: str) -> None:
        node = parse(pattern)
        if ast.nullable(node):
            raise ValueError(f"reference cannot rank empty matches: {pattern!r}")
        self.anchored = ast.has_anchors(node)
        parts = _parts(node)
        self.tail: List[Tuple[object, int, Optional[int]]] = []
        while len(parts) > 1 and _loop(parts[-1]):
            if ast.nullable(ast.balanced_concat(parts[:-1])):
                break
            self.tail.append(_loop(parts.pop()))
        self.tail.reverse()
        head = ast.balanced_concat(parts)
        self.search = re.compile(_reversed(head).encode("latin-1"))

    def ends(self, data: bytes, backward: bytes) -> List[int]:
        """Sorted end offsets of every non-empty match in ``data``
        (``backward`` is ``data`` reversed)."""
        last = len(data) - 1
        ends: List[int] = []
        pos = 0
        while True:
            found = self.search.search(backward, pos)
            if found is None:
                break
            ends.append(last - found.start())
            pos = found.start() + 1
        ends.reverse()
        for cc, low, high in self.tail:
            ends = _extend(ends, cc, low, high, data)
        return ends


def stream_events(patterns: Sequence[str], stream: bytes) -> List[List[Event]]:
    """Per-operation events of a chunked stream scan: one list per
    ``CHUNK_BYTES`` feed (chunk-relative ends), then ``finish()``."""
    backward = stream[::-1]
    by_end: List[Tuple[int, int]] = []
    for pattern_id, pattern in enumerate(patterns):
        ref = PatternReference(pattern)
        if ref.anchored:  # finish() below assumes no $ candidates
            raise ValueError(f"stream patterns must be unanchored: {pattern!r}")
        by_end.extend((end, pattern_id) for end in ref.ends(stream, backward))
    by_end.sort()
    keys = [end for end, _pid in by_end]
    ops: List[List[Event]] = []
    for base in range(0, len(stream), CHUNK_BYTES):
        lo = bisect.bisect_left(keys, base)
        hi = bisect.bisect_left(keys, base + CHUNK_BYTES)
        ops.append([(pid, end - base) for end, pid in by_end[lo:hi]])
    ops.append([])  # finish()
    return ops


def record_events(
    rule_sets: Sequence[Sequence[str]], records: Sequence[bytes], owner: Sequence[int]
) -> List[List[Event]]:
    """Per-record events of one ``scan()`` per record."""
    refs = [[PatternReference(p) for p in rules] for rules in rule_sets]
    memo: Dict[Tuple[int, bytes], List[Event]] = {}
    ops: List[List[Event]] = []
    for record, index in zip(records, owner):
        key = (index, record)
        if key not in memo:
            backward = record[::-1]
            events = [
                (end, pid)
                for pid, ref in enumerate(refs[index])
                for end in ref.ends(record, backward)
            ]
            memo[key] = [(pid, end) for end, pid in sorted(events)]
        ops.append(memo[key])
    return ops


def expected_events(inputs: Inputs) -> List[List[Event]]:
    if inputs.spec.kind == "stream":
        return stream_events(inputs.patterns, b"".join(inputs.chunks))
    rule_sets = [WORKLOAD_PROFILES[name].patterns for name in RECORD_PROFILES]
    return record_events(rule_sets, inputs.records, inputs.owner)


def _cache_key(inputs: Inputs) -> str:
    h = hashlib.sha256(f"v{VERSION}/{inputs.spec.kind}/{CHUNK_BYTES}".encode())
    if inputs.spec.kind == "stream":
        h.update(repr(inputs.patterns).encode())
        for chunk in inputs.chunks:
            h.update(chunk)
    else:
        for name in RECORD_PROFILES:
            h.update(repr(WORKLOAD_PROFILES[name].patterns).encode())
        h.update(repr(inputs.owner).encode())
        for record in inputs.records:
            h.update(len(record).to_bytes(4, "little"))
            h.update(record)
    return h.hexdigest()[:24]


def expected_digests(inputs: Inputs) -> List[str]:
    """Per-operation reference digests, computed once per input and
    stored beside the benchmark."""
    path = os.path.join(CACHE_DIR, f"reference-{_cache_key(inputs)}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["digests"]
    except (OSError, ValueError, KeyError):
        pass
    digests = [digest(events) for events in expected_events(inputs)]
    os.makedirs(CACHE_DIR, exist_ok=True)
    scratch = f"{path}.{os.getpid()}.tmp"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump({"workload": inputs.spec.name, "seed": inputs.seed,
                   "digests": digests}, handle)
    os.replace(scratch, path)
    return digests
