"""Scan-path profiler tests: parity, attribution invariants, artifact.

The profiler's cardinal rule is that profiling must never change the
match stream — every test here scans the same input with and without an
active profiler and compares streams exactly — and its attribution
invariants (shares sum to ~1, heatmap covers the input) are what the
``profile`` CLI verb's acceptance rests on.
"""

import json

import pytest

from repro.matching import DegradationPolicy, PatternSet
from repro.telemetry import profiler
from repro.telemetry.profiler import (
    ScanProfile,
    ScanProfiler,
    byte_class_ids,
    load_profile,
)
from repro.workloads import PROFILES, dataset_stream, load_dataset

import random

PATTERNS = ["ab{3}c", "x[0-9]{2}y", "zq+", "[a-f]{4}"]
DATA = b"zabbbc x12y zqqq abcdef " * 80


@pytest.fixture(autouse=True)
def no_leftover_profiler():
    profiler.stop_profile()
    yield
    profiler.stop_profile()


def _scan(engine="fused", prof=False, **kwargs):
    ps = PatternSet(PATTERNS, engine=engine, **kwargs)
    with ps:
        if prof:
            with profiler.profile_session(
                stride=16, input_len=len(DATA)
            ) as active:
                matches = ps.scan(DATA)
            return matches, active.finish(engine=engine)
        return ps.scan(DATA), None


class TestByteClasses:
    def test_identical_masks_pool(self):
        classes, count = byte_class_ids([0, 1, 0, 1, 2])
        assert classes == [0, 1, 0, 1, 2]
        assert count == 3

    def test_all_256_bytes_covered(self):
        ps = PatternSet(PATTERNS, engine="fused")
        classes, count = byte_class_ids(ps._fused._match_masks)
        assert len(classes) == 256
        assert count >= 2
        assert set(classes) == set(range(count))


class TestMatchParity:
    def test_fused_stream_unchanged_by_profiling(self):
        plain, _ = _scan("fused")
        profiled, _ = _scan("fused", prof=True)
        assert [(m.pattern_id, m.end) for m in profiled] == [
            (m.pattern_id, m.end) for m in plain
        ]

    def test_sharded_inline_stream_unchanged(self):
        plain, _ = _scan("sharded", shards=2, shard_backend="inline")
        profiled, _ = _scan(
            "sharded", prof=True, shards=2, shard_backend="inline"
        )
        assert [(m.pattern_id, m.end) for m in profiled] == [
            (m.pattern_id, m.end) for m in plain
        ]

    def test_streaming_feed_parity(self):
        """Chunked feeds sample at stream offsets, same match stream."""
        ps_plain = PatternSet(PATTERNS, engine="fused")
        plain = []
        base = 0
        for start in range(0, len(DATA), 77):
            chunk = DATA[start : start + 77]
            plain += [
                (m.pattern_id, base + m.end) for m in ps_plain.feed(chunk)
            ]
            base += len(chunk)
        ps_prof = PatternSet(PATTERNS, engine="fused")
        profiled = []
        base = 0
        with profiler.profile_session(stride=16):
            for start in range(0, len(DATA), 77):
                chunk = DATA[start : start + 77]
                profiled += [
                    (m.pattern_id, base + m.end)
                    for m in ps_prof.feed(chunk)
                ]
                base += len(chunk)
        assert profiled == plain

    def test_demoted_stream_unchanged_by_profiling(self):
        """Events of the profiled fused matcher merge with a demoted
        pattern's per-byte matcher into the plain scan's stream."""
        plain, _ = _scan("fused")
        policy = DegradationPolicy(
            check_bytes=256,
            min_window=64,
            min_hit_rate=1.0,
            min_states_for_width=1,
            max_active_fraction=0.01,
            max_demotions=1,
        )
        ps = PatternSet(PATTERNS, engine="fused", degradation=policy)
        with profiler.profile_session(stride=16) as active:
            profiled = ps.scan(DATA)
        assert len(ps.degradations) == 1
        assert active.samples > 0
        assert profiled == plain

    def test_anchored_stream_unchanged_by_profiling(self):
        """Anchored automata take the gated sampled-step path (one-byte
        ``feed``); start gates, ``$`` finalisation, and ``\\b`` seam
        dedup must survive profiling byte-for-byte."""
        patterns = ["^zab{3}c", r"\bx[0-9]{2}y\b", "zq+$", "[a-f]{4}"]
        data = b"zabbbc x12y zqqq abcdef " * 40 + b"zqq"
        plain_ps = PatternSet(patterns, engine="fused")
        with plain_ps:
            plain = [(m.pattern_id, m.end) for m in plain_ps.scan(data)]
        assert plain  # the corpus must actually fire through the gates
        prof_ps = PatternSet(patterns, engine="fused")
        with prof_ps:
            with profiler.profile_session(stride=16) as active:
                profiled = [
                    (m.pattern_id, m.end) for m in prof_ps.scan(data)
                ]
                profile = active.finish(engine="fused")
        assert profiled == plain
        assert profile.samples > 0


class TestAttribution:
    def test_shares_sum_to_one(self):
        _, profile = _scan("fused", prof=True)
        shares = sum(r["activation_share"] for r in profile.patterns)
        times = sum(r["time_share"] for r in profile.patterns)
        assert shares == pytest.approx(1.0)
        assert times == pytest.approx(1.0)

    def test_rows_sorted_by_activation(self):
        _, profile = _scan("fused", prof=True)
        shares = [r["activation_share"] for r in profile.patterns]
        assert shares == sorted(shares, reverse=True)

    def test_every_pattern_has_a_row(self):
        _, profile = _scan("fused", prof=True)
        assert {r["pattern_id"] for r in profile.patterns} == set(
            range(len(PATTERNS))
        )

    def test_heatmap_nonempty_and_covers_input(self):
        _, profile = _scan("fused", prof=True)
        density = profile.heatmap["density"]
        assert density
        bucket = profile.heatmap["bucket_bytes"]
        assert (len(density) - 1) * bucket < len(DATA)
        assert any(d > 0 for d in density)

    def test_cache_series_recorded(self):
        _, profile = _scan("fused", prof=True)
        series = profile.cache["series"]
        assert series
        assert profile.cache["hits"] + profile.cache["misses"] > 0
        assert 0.0 <= profile.cache["hit_ratio"] <= 1.0
        offsets = [p["offset"] for p in series]
        assert offsets == sorted(offsets)

    def test_byte_classes_have_costs(self):
        _, profile = _scan("fused", prof=True)
        assert profile.byte_classes
        for row in profile.byte_classes:
            assert row["sampled"] >= 1
            assert row["mean_us"] >= 0.0
        totals = [c["total_us"] for c in profile.byte_classes]
        assert totals == sorted(totals, reverse=True)

    def test_sharded_inline_merges_by_global_id(self):
        _, profile = _scan(
            "sharded", prof=True, shards=2, shard_backend="inline"
        )
        assert {r["pattern_id"] for r in profile.patterns} == set(
            range(len(PATTERNS))
        )
        assert sum(
            r["activation_share"] for r in profile.patterns
        ) == pytest.approx(1.0)
        scopes = {c["scope"] for c in profile.byte_classes}
        assert all(s.startswith("shard-") for s in scopes)
        assert len(scopes) == 2

    def test_series_stays_bounded(self):
        prof = ScanProfiler(stride=1, input_len=1 << 16)
        ps = PatternSet(["ab"], engine="fused")
        data = b"ab" * (1 << 15)
        profiler._active = prof
        try:
            ps.scan(data)
        finally:
            profiler.stop_profile()
        assert len(prof._series) <= profiler.MAX_SERIES_POINTS + 1


class TestArtifact:
    def test_round_trip(self, tmp_path):
        _, profile = _scan("fused", prof=True)
        path = str(tmp_path / "profile.json")
        profile.write(path)
        loaded = load_profile(path)
        assert loaded.to_json() == profile.to_json()
        raw = json.load(open(path))
        assert raw["artifact"] == "ScanProfile"
        assert raw["version"] == 1

    def test_pattern_sources_included(self):
        ps = PatternSet(PATTERNS, engine="fused")
        with profiler.profile_session(stride=16) as prof:
            ps.scan(DATA)
        profile = prof.finish(patterns=dict(enumerate(PATTERNS)))
        by_id = {r["pattern_id"]: r for r in profile.patterns}
        for i, pattern in enumerate(PATTERNS):
            assert by_id[i]["pattern"] == pattern


class TestCLI:
    def test_profile_verb_regexlib(self, tmp_path):
        """The acceptance flow: profile a RegexLib workload, shares sum
        to ~1.0, heatmap non-empty."""
        from repro.cli import main

        patterns = load_dataset("RegexLib", 8, 1)
        data = dataset_stream(
            patterns,
            random.Random(1),
            8192,
            PROFILES["RegexLib"].literal_pool,
        )
        input_path = tmp_path / "input.bin"
        input_path.write_bytes(data)
        patterns_path = tmp_path / "patterns.txt"
        patterns_path.write_text("\n".join(patterns) + "\n")
        out = tmp_path / "p.json"
        assert (
            main(
                [
                    "profile",
                    f"@{patterns_path}",
                    "-i",
                    str(input_path),
                    "--profile-out",
                    str(out),
                ]
            )
            == 0
        )
        profile = json.load(open(out))
        assert profile["artifact"] == "ScanProfile"
        shares = sum(
            r["activation_share"] for r in profile["patterns"]
        )
        assert shares == pytest.approx(1.0, abs=1e-6)
        assert any(d > 0 for d in profile["heatmap"]["density"])

    def test_profile_summary_table_renders(self):
        from repro.analysis.report import profile_summary_table

        _, profile = _scan("fused", prof=True)
        table = profile_summary_table(profile.to_json())
        assert "activation" in table
        assert "lazy-DFA cache" in table

    def test_join_profile_metrics(self):
        from repro import telemetry
        from repro.analysis.report import join_profile_metrics

        with telemetry.session():
            _, profile = _scan("fused", prof=True)
            snapshot = telemetry.snapshot()
        joined = join_profile_metrics(profile.to_json(), snapshot)
        assert joined["profile.pattern.0.activation_share"] >= 0.0
        assert "telemetry.engine.symbols_scanned" in joined
