"""Scan-path profiler tests: parity, attribution invariants, artifact.

The profiler's cardinal rule is that profiling must never change the
scan — every test here scans the same input with and without an active
profiler and compares streams exactly, and the tier parity tests also
compare the matchers' counter records — and its attribution invariants
(shares sum to ~1, heatmap covers the input) are what the ``profile``
CLI verb's acceptance rests on.
"""

import contextlib
import functools
import json

import pytest

from repro.automata.nfa import byte_class_ids
from repro.matching import PatternSet
from repro.telemetry import profiler
from repro.telemetry.profiler import (
    ScanProfile,
    ScanProfiler,
    load_profile,
)
from repro.workloads import PROFILES, dataset_stream, load_dataset

from ..matching.test_instrumented_tiers import _set

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

    def test_anchored_stream_unchanged_by_profiling(self):
        """Anchored automata take the gated feed (the offset-0 start
        step, then the tiers from byte 1); start gates, ``$``
        finalisation, and ``\\b`` seam dedup must survive profiling
        byte-for-byte."""
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


@functools.lru_cache(maxsize=None)
def _parity_set(name):
    """``(patterns, stream, PatternSet kwargs)`` of one tier parity set:
    the golden corpus, its prefilter-gated subset (every pattern gated,
    so unarmed spans drain and skip), the anchored corpus plus one
    unanchored pattern, RegexLib-16 over 256 KiB, and the golden corpus
    on two inline shards."""
    if name == "regexlib16":
        patterns = load_dataset("RegexLib", 16, 1)
        data = dataset_stream(
            patterns,
            random.Random(7),
            256 * 1024,
            PROFILES["RegexLib"].literal_pool,
        )
        return patterns, data, {}
    if name == "sharded":
        patterns, data, options = _set("golden")
        return patterns, data, dict(
            options=options, engine="sharded", shards=2,
            shard_backend="inline",
        )
    patterns, data, options = _set(name)
    return patterns, data, {"options": options}


def _tier_counters(ps):
    """The fused matcher's counter record, or each inline shard's."""
    if ps._sharded is not None:
        return [dict(shard.worker_stats) for shard in ps._sharded._shards]
    return [ps._fused.counters()]


def _parity_run(name, feed, stride=None):
    """Events (absolute ends) and counter records of one scan: a whole
    ``scan()`` when ``feed`` is None, else ``feed``-byte feeds and
    ``finish()``; profiled at ``stride`` when given."""
    patterns, data, kwargs = _parity_set(name)
    session = (
        profiler.profile_session(stride=stride, input_len=len(data))
        if stride else contextlib.nullcontext()
    )
    with PatternSet(patterns, **kwargs) as ps, session as prof:
        if feed is None:
            events = [(m.pattern_id, m.end) for m in ps.scan(data)]
        else:
            events = []
            for base in range(0, len(data), feed):
                events += [
                    (m.pattern_id, base + m.end)
                    for m in ps.feed(data[base : base + feed])
                ]
            events += [(m.pattern_id, m.end) for m in ps.finish()]
        profile = prof.finish() if stride else None
        return events, _tier_counters(ps), profile


@functools.lru_cache(maxsize=None)
def _plain_run(name, feed):
    events, counters, _ = _parity_run(name, feed)
    return events, counters


class TestTierParity:
    """A profiled scan runs the plain scan's tiers: the same events, the
    same counter records, every fed byte served once by the table, the
    bitset step or a prefilter skip, and one probe per ``stride`` bytes
    (skipped bytes and the anchored start step included)."""

    @pytest.mark.parametrize("stride", (1, 7, 64))
    @pytest.mark.parametrize("feed", (None, 1, 7, 64, 4096))
    @pytest.mark.parametrize(
        "name", ("golden", "gated", "anchored", "regexlib16", "sharded")
    )
    def test_profiled_scan_keeps_events_and_counters(self, name, feed, stride):
        size = len(_parity_set(name)[1])
        plain_events, plain_counters = _plain_run(name, feed)
        assert plain_events
        events, counters, profile = _parity_run(name, feed, stride)
        assert events == plain_events
        assert counters == plain_counters
        for record in counters:
            assert (
                record["steps_table"]
                + record["steps_bitset"]
                + record["skipped_bytes"]
            ) == size
        assert profile.samples == len(counters) * (size // stride)
        assert profile.input_bytes == size
        for key in ("steps_table", "steps_bitset", "skipped_bytes",
                    "armed_bytes"):
            assert profile.stepping[key] == sum(r[key] for r in counters)

    def test_gated_and_regexlib_sets_skip(self):
        for name in ("gated", "regexlib16"):
            (record,) = _plain_run(name, None)[1]
            assert record["skipped_bytes"] > 0, name

    def test_drain_on_probe_byte_skips_the_rest_of_the_gap(self):
        """``abbbc`` at offsets 10-14 is armed only at 10; the unarmed
        span after it drains on byte 15, the 16th stream byte, which is
        a probe byte at stride 16.  The span still ends there and the
        rest of the gap is skipped, as in a plain scan."""
        data = b"." * 10 + b"abbbc" + b"." * 40
        plain = PatternSet(["ab{3}c"])
        expected = plain.scan(data)
        assert expected and plain._fused.counters()["skipped_bytes"] == 44
        ps = PatternSet(["ab{3}c"])
        with profiler.profile_session(stride=16) as prof:
            assert ps.scan(data) == expected
        assert ps._fused.counters() == plain._fused.counters()
        assert prof.finish().samples == len(data) // 16


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
        # Each shard walks the whole input under its own label.
        assert profile.input_bytes == len(DATA)
        assert profile.samples == 2 * (len(DATA) // 16)

    def test_rebuilt_matcher_continues_stream_offset(self):
        """``add_patterns`` swaps in a new fused matcher mid-stream; its
        binding picks up the stream offset under the same label, so the
        second half lands in the second half of the heatmap."""
        data = b"abbc xy by zz " * 258
        with profiler.profile_session(
            stride=16, input_len=3600, heatmap_buckets=8
        ) as prof:
            ps = PatternSet(["ab{2,4}c", "xy"])
            ps.feed(data[:1800])
            ps.add_patterns(["by"])
            ps.feed(data[1800:3600])
        profile = prof.finish()
        assert profile.input_bytes == 3600
        assert profile.samples == 3600 // 16
        density = profile.heatmap["density"]
        assert len(density) == 8
        assert all(d > 0 for d in density)

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
        assert raw["version"] == 2
        assert "byte_classes" not in raw

    def test_loads_version_1(self):
        _, profile = _scan("fused", prof=True)
        raw = dict(profile.to_json(), version=1, byte_classes=[{"class_id": 0}])
        loaded = ScanProfile.from_json(raw)
        assert loaded.patterns == profile.patterns
        assert "byte_classes" not in loaded.to_json()

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
        to ~1.0, heatmap non-empty.  The scan skips all but 33 of the
        8,192 bytes, and no 64th byte is among the live ones, so every
        byte is probed."""
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
                    "--stride",
                    "1",
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
