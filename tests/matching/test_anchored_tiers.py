"""Anchored sets through every stepping tier, differentially.

The stream-offset-0 step of an anchored set is served from the dense
table's start column, the prefilter plan leaves ``^``-only patterns
unswept, and an unarmed gap whose activation is already empty is
skipped without a table call.  Random mixes of ``^``-only, partly-``^``,
``\\b``-led, ``$``-ended, plain and literal-free patterns must therefore
scan exactly as the bitset tier does (``table_states=0,
prefilter=False``), on whole ``scan()`` calls and on 1-, 7- and 64-byte
feeds, with every byte served once by the table, the bitset step or a
skip.  Tables of one and two states flush or abandon the start entry at
byte 0.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_pattern
from repro.matching import build_fused
from repro.matching import fused as fused_module

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


def _check_tiers(compiled, data):
    """Every tier and feed size against the bitset tier's scan."""
    expected = build_fused(compiled, table_states=0, prefilter=False).scan(
        data
    )
    for kwargs in TIERS:
        for size in (None, 1, 7, 64):
            matcher = build_fused(compiled, **kwargs)
            if size is None:
                got = matcher.scan(data)
            else:
                got = _feed_in(matcher, data, size)
            assert got == expected, (kwargs, size)
            counters = matcher.counters()
            assert (
                counters["steps_table"]
                + counters["steps_bitset"]
                + counters["skipped_bytes"]
            ) == len(data), (kwargs, size)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=anchored_sets())
@pytest.mark.parametrize("flush", (False, True))
def test_anchored_sets_scan_as_the_bitset_tier(flush, case):
    """With ``flush`` a full table always empties and refills, so the
    small tables flush the start entry instead of abandoning it."""
    patterns, data = case
    compiled = _compile(patterns)
    with pytest.MonkeyPatch.context() as patch:
        if flush:
            patch.setattr(fused_module, "MIN_BYTES_PER_FILL", 0)
        _check_tiers(compiled, data)


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

    def test_start_entry_abandoned_at_byte_0(self):
        compiled = _compile(self.PATTERNS)
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(b"abbx cd e")
        matcher = build_fused(compiled, table_states=1)
        assert matcher.scan(b"abbx cd e") == expected
        info = matcher.table_info()
        assert info["fallbacks"] == 1 and not info["live"]
        # The abandoning fill served no byte: the bitset tier took all.
        assert info["misses"] == 1 and info["steps_table"] == 0
        assert info["steps_bitset"] == len(b"abbx cd e")

    def test_flush_empties_the_start_column(self, always_flush):
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
