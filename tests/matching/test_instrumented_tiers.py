"""Instrumented and degraded scans run the plain scan's stepping tiers.

Telemetry, the flight recorder and a runtime demotion all wrap the same
``FusedMatcher.feed`` a plain scan runs.  Turning any of them on must
change neither the match stream nor which tier serves a byte: every fed
byte is counted once, by the dense table, the bitset step or a
prefilter skip, and the bitset tier's LRU sees no probe while the table
is live.  The golden and the anchored corpus are each fused as one set,
and so are the golden entries the prefilter gates: with every pattern
gated, a drained activation skips the rest of a gap, so skipped bytes
enter the count (both full corpora keep always-on patterns).
"""

from dataclasses import replace

import pytest

from repro import telemetry
from repro.matching import PatternSet
from repro.telemetry import flight

from ..resilience.test_degradation import AGGRESSIVE
from .test_anchored_corpus import CORPUS as ANCHORED_CORPUS
from .test_anchored_corpus import OPTIONS as ANCHORED_OPTIONS
from .test_golden_corpus import CORPUS, OPTIONS

#: AGGRESSIVE demotes the widest slot at its first check; here only
#: once, and checked every 64 bytes so it lands early in either stream.
ONE_DEMOTION = replace(AGGRESSIVE, check_bytes=64, max_demotions=1)


def _patterns_and_stream(corpus):
    return (
        [pattern for pattern, _ in corpus],
        b" ".join(data for _, data in corpus),
    )


def _set(name):
    """``(patterns, stream, options)`` of one fused set.  Anchored slots
    stay fused, so the anchored set carries one unanchored pattern for
    the demotion."""
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


@pytest.mark.parametrize("mode", ("telemetry", "flight", "demotion"))
@pytest.mark.parametrize("corpus", ("golden", "gated", "anchored"))
def test_instrumented_scan_keeps_stream_and_tiers(corpus, mode):
    patterns, data, options = _set(corpus)
    reference = PatternSet(patterns, options=options, engine="fused")
    plain = reference.scan(data)
    assert plain
    if corpus == "gated":
        assert reference._fused.table_info()["skipped_bytes"] > 0
    ps = PatternSet(
        patterns,
        options=options,
        engine="fused",
        degradation=ONE_DEMOTION if mode == "demotion" else None,
    )
    first = ps._fused
    if mode == "telemetry":
        with telemetry.session():
            got = ps.scan(data)
            counters = telemetry.snapshot()["counters"]
        assert counters["engine.symbols_scanned"] == len(data)
        assert counters["engine.fused.cache_hits"] == 0
        assert counters["engine.fused.cache_misses"] == 0
    elif mode == "flight":
        flight.enable()
        got = ps.scan(data)
        kinds = [event["kind"] for event in flight.recorder().events()]
        assert "scan_chunk" in kinds
    else:
        got = ps.scan(data)
        assert len(ps.degradations) == 1
    assert got == plain
    # A demotion rebuilds the fused matcher: the bytes split across both.
    matchers = [first] if ps._fused is first else [first, ps._fused]
    assert sum(_tier_bytes(matcher) for matcher in matchers) == len(data)
    for matcher in matchers:
        assert matcher.table_info()["live"]
        cache = matcher.cache_info()
        assert cache["hits"] + cache["misses"] == 0
