"""Graceful-degradation tests: the fused engine sheds patterns onto
per-pattern fallbacks without changing the match stream."""

import random

import pytest

from repro import telemetry
from repro.matching import DegradationPolicy, PatternSet
from repro.resilience import Budget

PATTERNS = ["ab{3}c", "x[0-9]{2}y", "q+r", "m{2,5}n"]


def _stream(size=8192, seed=1):
    rng = random.Random(seed)
    noise = bytes(rng.randrange(97, 123) for _ in range(size))
    return noise + b" abbbc x42y qqr mmn abbbc"


#: Triggers on the first checkpoint: every hit rate is "too low" and any
#: non-empty activation counts as "too wide".
AGGRESSIVE = DegradationPolicy(
    check_bytes=256,
    min_window=64,
    min_hit_rate=1.0,
    min_states_for_width=1,
    max_active_fraction=0.01,
)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"check_bytes": 0},
            {"min_window": 0},
            {"min_hit_rate": 1.5},
            {"max_active_fraction": 0.0},
            {"fallback_chain": ()},
            {"fallback_chain": ("fused",)},
            {"fallback_chain": ("quantum",)},
            {"max_demotions": -1},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DegradationPolicy(**kwargs)

    def test_defaults_valid(self):
        policy = DegradationPolicy()
        assert policy.fallback_chain == ("nfa",)


class TestDemotion:
    def test_degradation_preserves_match_stream(self):
        data = _stream()
        reference = PatternSet(PATTERNS, engine="fused").scan(data)
        degraded_ps = PatternSet(
            PATTERNS, engine="fused", degradation=AGGRESSIVE
        )
        assert degraded_ps.scan(data) == reference
        assert degraded_ps.degradations  # something actually demoted

    def test_demotion_is_state_preserving(self):
        # Force the only demotion checkpoint to land mid-pattern: the
        # match straddles the chunk boundary at 256 bytes.
        pad = b"z" * 254
        data = pad + b"abbbc"
        ps = PatternSet(["ab{3}c"], engine="fused", degradation=AGGRESSIVE)
        matches = [(m.pattern_id, m.end) for m in ps.scan(data)]
        assert ps.degradations, "demotion did not trigger"
        assert matches == [(0, len(data) - 1)]

    def test_reports_marked_degraded(self):
        ps = PatternSet(PATTERNS, engine="fused", degradation=AGGRESSIVE)
        ps.scan(_stream(2048))
        demoted_ids = {event.pattern_id for event in ps.degradations}
        assert demoted_ids
        for report in ps.reports:
            if report.pattern_id in demoted_ids:
                assert report.status == "degraded"
                assert report.phase == "scan"

    def test_max_demotions_honoured(self):
        policy = DegradationPolicy(
            check_bytes=256,
            min_window=64,
            min_hit_rate=1.0,
            min_states_for_width=1,
            max_active_fraction=0.01,
            max_demotions=1,
        )
        ps = PatternSet(PATTERNS, engine="fused", degradation=policy)
        ps.scan(_stream())
        assert len(ps.degradations) == 1

    def test_no_policy_never_degrades(self):
        ps = PatternSet(PATTERNS, engine="fused")
        ps.scan(_stream())
        assert ps.degradations == []

    def test_degraded_set_keeps_streaming(self):
        ps = PatternSet(["ab{3}c", "xy"], engine="fused",
                        degradation=AGGRESSIVE)
        ps.scan(_stream(1024))
        assert ps.degradations
        ps.reset()
        first = ps.feed(b"zab")
        second = ps.feed(b"bbc xy")
        assert first == []
        assert [(m.pattern_id, m.end) for m in second] == [(0, 2), (1, 5)]

    def test_cache_thrash_reason_possible(self):
        # A tiny cache plus random input forces misses once full.  The
        # cache is the bitset tier's memo, so the table is off.
        policy = DegradationPolicy(
            check_bytes=256, min_window=16, min_hit_rate=1.0
        )
        ps = PatternSet(
            PATTERNS,
            engine="fused",
            degradation=policy,
            budget=Budget(max_table_states=0),
        )
        ps._fused._cache_size = 4  # force permanent thrash
        ps.scan(_stream(4096))
        reasons = {event.reason for event in ps.degradations}
        assert reasons <= {"cache_thrash", "wide_active"}
        assert "cache_thrash" in reasons

    def test_telemetry_counts_degradations(self):
        with telemetry.session():
            ps = PatternSet(PATTERNS, engine="fused", degradation=AGGRESSIVE)
            ps.scan(_stream(2048))
            snap = telemetry.snapshot()
        assert snap["counters"].get("scan.degraded", 0) == len(ps.degradations)
        assert ps.degradations
