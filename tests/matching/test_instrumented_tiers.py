"""Instrumented scans run the plain scan's stepping tiers.

Telemetry and the flight recorder both wrap the same
``FusedMatcher.feed`` a plain scan runs.  Turning either on must
change neither the match stream nor which tier serves a byte: every fed
byte is counted once, by the dense table, the bitset step or a
prefilter skip, and the bitset tier's LRU sees no probe while the table
is live.  The golden and the anchored corpus are each fused as one set,
and so are the golden entries the prefilter gates: with every pattern
gated, a drained activation skips the rest of a gap, so skipped bytes
enter the count (both full corpora keep always-on patterns).
"""

import sys

import pytest

from repro import telemetry
from repro.matching import PatternSet
from repro.matching.fused import FusedMatcher
from repro.telemetry import flight, profiler

from .test_anchored_corpus import CORPUS as ANCHORED_CORPUS
from .test_anchored_corpus import OPTIONS as ANCHORED_OPTIONS
from .test_golden_corpus import CORPUS, OPTIONS


def _patterns_and_stream(corpus):
    return (
        [pattern for pattern, _ in corpus],
        b" ".join(data for _, data in corpus),
    )


def _set(name):
    """``(patterns, stream, options)`` of one fused set.  The anchored
    set also carries one unanchored pattern, so gated and ungated slots
    share its fused automaton."""
    if name == "anchored":
        patterns, data = _patterns_and_stream(ANCHORED_CORPUS)
        return patterns + ["[a-z]{3}"], data, ANCHORED_OPTIONS
    patterns, data = _patterns_and_stream(CORPUS)
    if name == "gated":
        full = PatternSet(patterns, options=OPTIONS, engine="fused")
        patterns, data = _patterns_and_stream(
            [CORPUS[slot] for slot in sorted(full._fused._plan.gated)]
        )
    return patterns, data, OPTIONS


@pytest.fixture(autouse=True)
def instrumentation_off():
    yield
    telemetry.disable()
    telemetry.reset()
    flight.disable()


def _tier_bytes(matcher):
    info = matcher.table_info()
    return info["steps_table"] + info["steps_bitset"] + info["skipped_bytes"]


@pytest.mark.parametrize("mode", ("telemetry", "flight"))
@pytest.mark.parametrize("corpus", ("golden", "gated", "anchored"))
def test_instrumented_scan_keeps_stream_and_tiers(corpus, mode):
    patterns, data, options = _set(corpus)
    reference = PatternSet(patterns, options=options, engine="fused")
    plain = reference.scan(data)
    assert plain
    if corpus == "gated":
        assert reference._fused.table_info()["skipped_bytes"] > 0
    ps = PatternSet(patterns, options=options, engine="fused")
    if mode == "telemetry":
        with telemetry.session():
            got = ps.scan(data)
            counters = telemetry.snapshot()["counters"]
        assert counters["engine.symbols_scanned"] == len(data)
        assert counters["engine.fused.cache_hits"] == 0
        assert counters["engine.fused.cache_misses"] == 0
    else:
        flight.enable()
        got = ps.scan(data)
        kinds = [event["kind"] for event in flight.recorder().events()]
        assert "scan_chunk" in kinds
    assert got == plain
    matcher = ps._fused
    assert _tier_bytes(matcher) == len(data)
    assert matcher.table_info()["live"]
    cache = matcher.cache_info()
    assert cache["hits"] + cache["misses"] == 0


@pytest.mark.parametrize("mode", ("flight", "profiler"))
def test_counter_record_built_only_for_its_readers(monkeypatch, mode):
    """Only the metrics branch diffs ``counters()`` across a block, so
    the instrumented feed builds the record once per block for the
    flight recorder's state note, and never for the profiler alone."""
    patterns, data, options = _set("golden")
    ps = PatternSet(patterns, options=options, engine="fused")
    calls = []
    counters = FusedMatcher.counters

    def counting(matcher):
        # The profiler reads the record itself (at bind time and for
        # its memo series): count only the feed wrapper's calls.
        if sys._getframe(1).f_code.co_name == "_feed_instrumented":
            calls.append(matcher)
        return counters(matcher)

    monkeypatch.setattr(FusedMatcher, "counters", counting)
    blocks = [data[base : base + 64] for base in range(0, len(data), 64)]
    assert len(blocks) > 1
    if mode == "flight":
        flight.enable()
        for block in blocks:
            ps.feed(block)
        assert len(calls) == len(blocks)
    else:
        with profiler.profile_session(stride=16):
            for block in blocks:
                ps.feed(block)
        assert calls == []
