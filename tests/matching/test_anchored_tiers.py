"""Anchored sets through every stepping tier, differentially.

The stream-offset-0 step of an anchored set is served from the dense
table's start column, the prefilter plan leaves ``^``-only patterns
unswept, and an unarmed gap whose activation is already empty is
skipped without a table call.  Random mixes of ``^``-only, partly-``^``,
``\\b``-led, ``$``-ended, plain and literal-free patterns must therefore
scan exactly as the bitset tier does (``table_states=0,
prefilter=False``), on whole ``scan()`` calls and on 1-, 7- and 64-byte
feeds, with every byte served once by the table or a skip.  Tables of
one and two states flush the start entry at byte 0.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_pattern
from repro.matching import build_fused

OPTIONS = CompilerOptions(bv_size=16, unfold_threshold=2)

#: Pattern shapes: ``x`` and ``y`` are random cores.
TEMPLATES = {
    "start_only": "^{x}",
    "partly_start": "^{x}|{y}",
    "boundary": r"\b{x}",
    "end": "{x}$",
    "plain": "{x}",
    # No required literal: always on, so the plan cannot skip.
    "no_literal": "[ab][bc]{{1,2}}",
}

_WORD = st.text(alphabet="abc", min_size=1, max_size=3)


@st.composite
def _core(draw):
    """``(regex, sample)``: a word, or a word and a bounded repetition,
    with one string the regex matches."""
    word = draw(_WORD)
    if draw(st.booleans()):
        return word, word
    letter = draw(st.sampled_from("abc"))
    low = draw(st.integers(min_value=1, max_value=2))
    high = low + draw(st.integers(min_value=0, max_value=2))
    count = draw(st.integers(min_value=low, max_value=high))
    return f"{word}{letter}{{{low},{high}}}", word + letter * count


@st.composite
def anchored_sets(draw):
    """``(patterns, data)``: one to four patterns of random shapes, and
    data built from their cores' samples, word breaks and random bytes,
    so that records often start or end on a match."""
    patterns = []
    samples = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        (x, x_sample), (y, y_sample) = draw(_core()), draw(_core())
        kind = draw(st.sampled_from(sorted(TEMPLATES)))
        patterns.append(TEMPLATES[kind].format(x=x, y=y))
        samples += [x_sample.encode(), y_sample.encode()]
    pieces = draw(
        st.lists(
            st.one_of(
                st.sampled_from(samples),
                st.sampled_from([b" ", b".", b"ab", b"bc"]),
                st.binary(min_size=1, max_size=3),
            ),
            max_size=30,
        )
    )
    return patterns, b"".join(pieces)


#: ``build_fused`` arguments of the tiers under test.  One- and
#: two-state tables fill up at the start step or right after it.
TIERS = ({}, {"table_states": 1}, {"table_states": 2})


def _feed_in(matcher, data, size):
    """``data`` through ``matcher.feed`` in ``size``-byte chunks, then
    ``finish()``, as absolute ``(slot, end)`` events in scan order."""
    events = []
    for base in range(0, len(data), size):
        for slot, end in matcher.feed(data[base : base + size]):
            events.append((slot, base + end))
    events.extend((slot, len(data) - 1) for slot, _end in matcher.finish())
    events.sort(key=lambda event: (event[1], event[0]))
    return events


def _compile(patterns):
    return [
        compile_pattern(pattern, regex_id, OPTIONS)
        for regex_id, pattern in enumerate(patterns)
    ]


def _check_tiers(compiled, data, prefilter):
    """Every tier and feed size against the bitset tier's scan."""
    expected = build_fused(compiled, table_states=0, prefilter=False).scan(
        data
    )
    for kwargs in TIERS:
        for size in (None, 1, 7, 64):
            matcher = build_fused(compiled, prefilter=prefilter, **kwargs)
            if size is None:
                got = matcher.scan(data)
            else:
                got = _feed_in(matcher, data, size)
            assert got == expected, (kwargs, size)
            counters = matcher.counters()
            assert counters["steps_bitset"] == 0, (kwargs, size)
            assert (
                counters["steps_table"] + counters["skipped_bytes"]
            ) == len(data), (kwargs, size)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=anchored_sets())
@pytest.mark.parametrize("prefilter", (False, True))
def test_anchored_sets_scan_as_the_bitset_tier(prefilter, case):
    """With and without the prefilter plan; the small tables flush the
    start entry and keep serving every byte."""
    patterns, data = case
    _check_tiers(_compile(patterns), data, prefilter)


class TestStartColumn:
    PATTERNS = ["^ab{1,3}", r"\bcd", "e$"]
    RECORDS = [b"abbx cd e", b"zz cd", b"ab", b"cdcd e", b"e"]

    def test_table_serves_the_start_step(self):
        matcher = build_fused(_compile(self.PATTERNS), prefilter=False)
        for record in self.RECORDS:
            matcher.scan(record)
        counters = matcher.counters()
        assert counters["steps_bitset"] == 0
        assert counters["steps_table"] == sum(map(len, self.RECORDS))
        # The records start with ``a``, ``z``, ``a``, ``c`` and ``e``:
        # four byte classes fill the start column, the second ``a`` hits.
        assert sum(sid >= 0 for sid in matcher._start_col) == 4
        hits = counters["table_hits"]
        assert hits + counters["table_misses"] == counters["steps_table"]

    def test_start_entry_flushed_at_byte_0(self):
        # A one-state table holds only the empty activation: the start
        # step's fill flushes it, and the table serves on from there.
        compiled = _compile(self.PATTERNS)
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(b"abbx cd e")
        matcher = build_fused(compiled, table_states=1)
        assert matcher.scan(b"abbx cd e") == expected
        info = matcher.table_info()
        assert info["flushes"] >= 1 and info["live"]
        assert info["steps_bitset"] == 0
        assert info["steps_table"] + info["skipped_bytes"] == len(b"abbx cd e")

    def test_flush_empties_the_start_column(self):
        compiled = _compile(self.PATTERNS)
        reference = build_fused(compiled, table_states=0, prefilter=False)
        matcher = build_fused(compiled, table_states=2)
        for record in self.RECORDS:
            assert matcher.scan(record) == reference.scan(record)
        info = matcher.table_info()
        assert info["flushes"] >= 1 and info["live"]
        assert info["steps_bitset"] == 0
        live = [sid for sid in matcher._start_col if sid >= 0]
        assert all(sid < info["states"] for sid in live)

    @pytest.mark.parametrize("size", (None, 1))
    def test_restored_live_activation_steps_byte_0_on_the_table(self, size):
        # A snapshot still at stream offset 0 but with a live ``^ab``
        # partial: the start step runs from that activation with the
        # ``^`` starts injected, uncached, and leaves the start column
        # (which serves the empty activation only) untouched.
        compiled = _compile(self.PATTERNS)
        source = build_fused(compiled, prefilter=False)
        source.feed(b"ab")
        snapshot = dict(source.state_snapshot(), at_start=1)
        assert snapshot["active"]
        data = b"bab cd e"
        matcher = build_fused(compiled)
        reference = build_fused(compiled, table_states=0, prefilter=False)
        results = []
        for tier in (matcher, reference):
            tier.restore_state(snapshot)
            results.append(_feed_in(tier, data, size or len(data)))
        # Byte 0 completes the restored ``ab`` as ``abb``; the later
        # ``ab`` lies past offset 0 and stays silent.
        assert results[0] == results[1] == [(0, 0), (1, 5), (2, 7)]
        counters = matcher.counters()
        assert counters["steps_bitset"] == 0
        assert counters["steps_table"] + counters["skipped_bytes"] == len(data)
        assert all(sid < 0 for sid in matcher._start_col)
