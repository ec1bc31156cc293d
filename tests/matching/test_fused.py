"""Unit tests for the fused multi-pattern scan engine."""

import functools
import gc
import random
import tracemalloc

import pytest

from repro.automata.ah import is_counter_free, to_nfa
from repro.compiler import CompilerOptions, compile_pattern
from repro.compiler.pipeline import build_scan_nfa, build_unfolded_nfa
from repro.matching import Match, PatternSet, build_fused, fuse_patterns
from repro.matching.fused import FusedMatcher, fuse_nfas
from repro.matching.oracle import match_ends as oracle_ends
from repro.resilience import Budget
from repro.workloads import (
    PROFILES,
    WORKLOAD_PROFILES,
    dataset_stream,
    import_rules,
    load_dataset,
    match_rate_stream,
)

OPTIONS = CompilerOptions(bv_size=8, unfold_threshold=2)


def compile_all(patterns, options=OPTIONS):
    return [
        compile_pattern(p, regex_id, options)
        for regex_id, p in enumerate(patterns)
    ]


class TestFusion:
    def test_offsets_partition_the_state_space(self):
        fused = fuse_patterns(compile_all(["abc", "x{4}y", "(pq|rs)t"]))
        assert fused.num_patterns == 3
        assert fused.offsets[0] == 0
        assert sorted(set(fused.state_pattern)) == [0, 1, 2]
        # offsets are the cumulative per-pattern sizes
        for pattern_id in range(1, 3):
            lo = fused.offsets[pattern_id]
            assert fused.state_pattern[lo] == pattern_id
            assert fused.state_pattern[lo - 1] == pattern_id - 1

    def test_transitions_stay_within_owner(self):
        """Offset-remapping must never link two patterns' state spaces."""
        fused = fuse_patterns(compile_all(["ab{3}c", "xy", "a{2,}b"]))
        owners = fused.state_pattern
        for src, dsts in enumerate(fused.transitions):
            for dst in dsts:
                assert owners[src] == owners[dst]

    def test_report_map_points_at_owner(self):
        fused = fuse_patterns(compile_all(["ab", "cd"]))
        assert set(fused.finals.values()) == {0, 1}
        for state, pattern_id in fused.finals.items():
            assert fused.state_pattern[state] == pattern_id

    def test_sources_prefer_counter_free_ah_graph(self):
        fused = fuse_patterns(compile_all(["abc", "a.{6}b"]))
        assert fused.sources == ["ah", "unfolded"]

    def test_base_patterns_come_first(self):
        """Fusing onto ``base`` equals fusing the whole set at once."""
        compiled = compile_all(["ab{3}c", "x[0-9]y", "q+r"])
        whole = fuse_patterns(compiled)
        appended = fuse_patterns(compiled[1:], base=fuse_patterns(compiled[:1]))
        assert appended.transitions == whole.transitions
        assert appended.sources == whole.sources
        assert appended.literals == whole.literals
        # A base without provenance or literal contracts (plain
        # fuse_nfas) keeps its slot "unknown" and always-on.
        bare = fuse_patterns(
            compiled[1:], base=fuse_nfas([build_scan_nfa(compiled[0])])
        )
        assert bare.sources == ["unknown"] + whole.sources[1:]
        assert bare.literals == [None] + whole.literals[1:]
        data = b"abbbc x5y qqr"
        assert FusedMatcher(bare).scan(data) == FusedMatcher(whole).scan(data)

    def test_empty_pattern_set(self):
        matcher = FusedMatcher(fuse_nfas([]))
        assert matcher.scan(b"anything") == []
        assert matcher.active_count() == 0


class TestAHProjection:
    def test_counter_free_projection_matches_oracle(self):
        compiled = compile_pattern("a(b|c)d*e", options=OPTIONS)
        assert is_counter_free(compiled.ah)
        data = b"abde ace abdddde"
        assert to_nfa(compiled.ah).match_ends(data) == oracle_ends(
            compiled.parsed, data
        )

    def test_counting_automaton_rejected(self):
        compiled = compile_pattern("a{6}", options=OPTIONS)
        assert not is_counter_free(compiled.ah)
        with pytest.raises(ValueError):
            to_nfa(compiled.ah)

    def test_build_scan_nfa_falls_back_to_unfolding(self):
        compiled = compile_pattern("a{6}b", options=OPTIONS)
        nfa = build_scan_nfa(compiled)
        assert nfa.num_states == build_unfolded_nfa(compiled.parsed).num_states
        data = b"aaaaaab aaab"
        assert nfa.match_ends(data) == oracle_ends(compiled.parsed, data)


class TestFusedMatcher:
    def test_multi_pattern_report_ids_and_order(self):
        ps = PatternSet(["ab", "b", "a+b"], engine="fused")
        matches = ps.scan(b"aab")
        # all three end at offset 2, reported in pattern-id order
        assert matches == [Match(0, 2), Match(1, 2), Match(2, 2)]

    def test_streaming_state_persists_across_feeds(self):
        matcher = build_fused(compile_all(["ab{3}c"]))
        matcher.reset()
        assert matcher.feed(b"zab") == []
        assert matcher.feed(b"bbc") == [(0, 2)]  # chunk-relative end
        matcher.reset()
        assert matcher.feed(b"bbc") == []

    def test_active_count_tracks_occupancy(self):
        matcher = build_fused(compile_all(["ab", "ac"]))
        matcher.reset()
        assert matcher.active_count() == 0
        matcher.feed(b"a")
        assert matcher.active_count() == 2  # both 'a' heads live
        assert matcher.active_states()

    def test_cache_amortizes_repeated_contexts(self):
        # Pin the bitset tier: with the dense table on, the lazy cache
        # only sees row fills, not one probe per byte.
        matcher = build_fused(
            compile_all(["ab"]), table_states=0, prefilter=False
        )
        matcher.scan(b"abcabcabc")
        info = matcher.cache_info()
        assert info["hits"] + info["misses"] == 9
        assert info["hits"] >= 6  # only 3 distinct (state, byte) contexts

    def test_table_amortizes_repeated_contexts(self):
        # The table tier serves repeated contexts from dense rows: the
        # second period of the input is all table hits, no cache probes.
        matcher = build_fused(compile_all(["ab"]), prefilter=False)
        matcher.scan(b"abcabcabc")
        info = matcher.table_info()
        assert info["live"]
        assert info["hits"] + info["misses"] == 9
        assert info["hits"] >= 6
        assert info["promotes"] == info["states"]

    def test_cache_stays_bounded(self):
        matcher = build_fused(
            compile_all(["ab"]), cache_size=2, table_states=0, prefilter=False
        )
        matcher.scan(b"abcabcabc")
        info = matcher.cache_info()
        assert info["entries"] <= 2
        assert info["hits"] + info["misses"] == 9

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            build_fused(compile_all(["ab"]), cache_size=0)

    def test_cached_and_uncached_agree(self):
        compiled = compile_all(["ab{2,4}c", "x(yz){2}", "q+r"])
        data = b"abbc xyzyz qqr abbbbc" * 3
        # The cache is the bitset tier's memo: pin that tier.
        cold = build_fused(compiled, cache_size=1, table_states=0)  # ~no reuse
        warm = build_fused(compiled, table_states=0)
        assert cold.scan(data) == warm.scan(data)
        assert warm.scan(data) == warm.scan(data)  # warm rerun stable


class TestPatternSetIntegration:
    def test_engine_listed(self):
        from repro.matching import ENGINES

        assert "fused" in ENGINES

    def test_scan_resets_state(self):
        ps = PatternSet(["ab"], engine="fused")
        assert ps.scan(b"a") == []
        assert ps.scan(b"b") == []

    def test_matches_default_engine(self):
        patterns = ["ab{3}c", "x[0-9]{2}y", "zq"]
        data = b"abbbc x42y zq abbc x4y"
        fused = PatternSet(patterns, engine="fused").scan(data)
        default = PatternSet(patterns).scan(data)
        assert fused == default

    def test_telemetry_histogram_uses_fused_occupancy(self):
        from repro import telemetry

        with telemetry.session():
            ps = PatternSet(["ab", "ac"], engine="fused")
            ps.scan(b"aab")
            snap = telemetry.snapshot()
        occupancy = snap["histograms"]["engine.active_states"]
        assert occupancy["count"] == 1  # one observation per feed block
        counters = snap["counters"]
        assert counters["engine.fused.table_misses"] > 0
        # Instrumented scans run the table tier: no LRU probe.
        assert counters["engine.fused.cache_hits"] == 0
        assert counters["engine.fused.cache_misses"] == 0


class TestTableBlowup:
    """A pathological set exceeding the table budget flushes and refills
    the table every few bytes — identical output, a telemetry counter
    bump per flush, never a budget error and never the bitset tier."""

    PATTERNS = ["a.{6}b", "c.{6}d"]  # sliding gaps: many distinct masks

    def _data(self):
        rng = random.Random(3)
        return bytes(rng.choice(b"acbdxyz") for _ in range(2000))

    def test_state_budget_blowup_identical_output(self):
        compiled = compile_all(self.PATTERNS)
        data = self._data()
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        assert expected  # the workload must actually match
        tight = build_fused(compiled, table_states=2, prefilter=False)
        assert tight.scan(data) == expected
        info = tight.table_info()
        assert info["live"] and info["flushes"] >= 1
        assert info["steps_bitset"] == 0  # the table served every byte
        # Later scans stay correct and keep flushing on the table.
        assert tight.scan(data) == expected
        again = tight.table_info()
        assert again["flushes"] > info["flushes"]
        assert again["steps_bitset"] == 0

    def test_byte_budget_blowup_identical_output(self):
        compiled = compile_all(self.PATTERNS)
        data = self._data()
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        tight = build_fused(compiled, table_bytes=1, prefilter=False)
        assert tight.scan(data) == expected
        info = tight.table_info()
        assert info["live"] and info["flushes"] >= 1
        assert info["steps_bitset"] == 0

    def test_flush_counter_and_no_flight_event(self):
        # Matcher-level, where the flushes happen: each one bumps the
        # telemetry counter, and none is a flight event (a flush is
        # routine, not an incident).
        from repro import telemetry
        from repro.telemetry import flight

        compiled = compile_all(self.PATTERNS)
        data = self._data()
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        flight.disable()
        try:
            flight.enable()
            with telemetry.session():
                tight = build_fused(compiled, table_states=2, prefilter=False)
                matches = tight.scan(data)
                snap = telemetry.snapshot()
            info = tight.table_info()
            assert info["flushes"] >= 1 and info["steps_bitset"] == 0
            assert snap["counters"]["scan.table.flush"] == info["flushes"]
            assert flight.recorder().events() == []
        finally:
            flight.disable()
        assert matches == expected

    def test_blowup_is_not_a_budget_error(self):
        # on_error="raise" still must not see an error: the table budget
        # bounds the table, it never rejects the scan.
        ps = PatternSet(
            self.PATTERNS,
            engine="fused",
            budget=Budget(max_table_states=1),
            on_error="raise",
        )
        assert ps.scan(self._data())  # no exception
        assert ps._fused.counters()["steps_bitset"] == 0

    def test_table_states_zero_disables_table(self):
        matcher = build_fused(
            compile_all(self.PATTERNS), table_states=0, prefilter=False
        )
        matcher.scan(self._data())
        info = matcher.table_info()
        assert not info["live"]
        assert info["steps_bitset"] == len(self._data())
        assert info["hits"] == info["misses"] == 0


def _regexlib(count, length, rate=None):
    """RegexLib-``count`` and a seeded stream: mostly background with
    rare, mostly truncated plants, or complete plants at ``rate``."""
    patterns = load_dataset("RegexLib", count, 1)
    compiled = compile_all(patterns, CompilerOptions())
    pool = PROFILES["RegexLib"].literal_pool
    rng = random.Random(7)
    if rate is None:
        return compiled, dataset_stream(patterns, rng, length, pool)
    return compiled, match_rate_stream(patterns, rng, length, pool, rate)


class TestTableFlush:
    """A full table is emptied in place and refilled from the current
    mask, however few bytes each fill serves."""

    def _working_set_budget(self):
        """A 64 KiB RegexLib-16 stream, its bitset-tier events, and a
        state budget of half the distinct states the stream visits."""
        compiled, data = _regexlib(16, 1 << 16)
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        unbounded = build_fused(compiled, table_states=1 << 20, prefilter=False)
        assert unbounded.scan(data) == expected
        return compiled, data, expected, unbounded.table_info()["states"] // 2

    def _assert_flushed_on_table(self, matcher):
        info = matcher.table_info()
        assert info["flushes"] >= 1
        assert info["live"] and info["steps_bitset"] == 0
        assert info["states"] <= info["state_capacity"]
        # Fills take the uncached step: the bitset tier's LRU stays empty.
        assert matcher.cache_info()["entries"] == 0

    def test_budget_above_working_set_flushes_and_stays(self):
        compiled, data, expected, budget = self._working_set_budget()
        matcher = build_fused(compiled, table_states=budget, prefilter=False)
        assert matcher.scan(data) == expected
        self._assert_flushed_on_table(matcher)

    @pytest.mark.parametrize("chunk", (7, 4096))
    def test_chunked_feed_flushes_identically(self, chunk):
        compiled, data, expected, budget = self._working_set_budget()
        matcher = build_fused(compiled, table_states=budget, prefilter=False)
        got = []
        for start in range(0, len(data), chunk):
            for slot, end in matcher.feed(data[start:start + chunk]):
                got.append((slot, start + end))
        assert got == expected
        self._assert_flushed_on_table(matcher)

    def test_flush_counter(self):
        from repro import telemetry

        compiled, data, expected, budget = self._working_set_budget()
        with telemetry.session():
            matcher = build_fused(compiled, table_states=budget, prefilter=False)
            assert matcher.scan(data) == expected
            counters = telemetry.snapshot()["counters"]
        assert counters["scan.table.flush"] == matcher.table_info()["flushes"]

    @pytest.mark.parametrize("prefilter", (False, True))
    def test_fill_every_few_bytes_keeps_flushing(self, prefilter):
        # Complete plants at a 50% rate mint a new mask every few bytes.
        compiled, data = _regexlib(16, 1 << 14, rate=0.5)
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        matcher = build_fused(compiled, table_states=512, prefilter=prefilter)
        assert matcher.scan(data) == expected
        info = matcher.table_info()
        assert info["flushes"] >= 1
        assert info["live"] and info["steps_bitset"] == 0


def _feed_in(matcher, data, size):
    """``data`` through ``matcher.feed`` in ``size``-byte chunks, then
    ``finish()``, as absolute ``(slot, end)`` events in scan order."""
    events = []
    for base in range(0, len(data), size):
        for slot, end in matcher.feed(data[base:base + size]):
            events.append((slot, base + end))
    events.extend((slot, len(data) - 1) for slot, _end in matcher.finish())
    events.sort(key=lambda event: (event[1], event[0]))
    return events


class TestTableSlowPath:
    """Every column entry that leaves the table walk's fast path, one
    set and stream apiece: each run equals the bitset tier's events on
    the whole input and on 1-, 7- and 64-byte feeds, and accounts every
    byte to exactly one tier."""

    def _run(self, patterns, data, **kwargs):
        """The whole-input matcher, after checking every feed size."""
        compiled = compile_all(patterns)
        expected = build_fused(
            compiled, table_states=0, prefilter=False
        ).scan(data)
        assert expected
        whole = None
        for size in (None, 1, 7, 64):
            matcher = build_fused(compiled, **kwargs)
            if size is None:
                whole = matcher
                assert matcher.scan(data) == expected
            else:
                assert _feed_in(matcher, data, size) == expected, size
            counters = matcher.counters()
            assert (
                counters["steps_table"]
                + counters["steps_bitset"]
                + counters["skipped_bytes"]
            ) == len(data)
        return whole

    def test_fill(self):
        info = self._run(
            ["ab{2,4}c", "xy"], b"abbbc xy abbc zq " * 8, prefilter=False
        ).table_info()
        assert info["misses"] > 0 and info["hits"] > 0
        assert info["steps_bitset"] == 0

    def test_reporting_successor(self):
        # 8 matches, all reported by the table: it served every byte.
        matcher = self._run(["ab{2,4}c"], b"abbbc zq " * 8, prefilter=False)
        info = matcher.table_info()
        assert info["steps_table"] == 72 and info["steps_bitset"] == 0

    def test_confirm_report(self):
        # ``\bend\b`` reports from its confirm state one byte past the
        # match (``back`` 1); the table serves stream byte 0 too, from
        # its start column.
        matcher = self._run(
            [r"\bend\b", "xy"], b"the end, ended; end xy " * 4,
            prefilter=False,
        )
        assert matcher.table_info()["steps_bitset"] == 0
        assert any(
            back == 1 for emits in matcher._state_emits for _, back in emits
        )

    def test_drain_then_skip(self):
        # Every pattern is gated, so an unarmed span that drains to the
        # empty activation skips the rest of its gap.
        data = (b"hello" + b"z" * 50 + b"worrld" + b"q" * 50) * 3
        matcher = self._run(["hello", "wor+ld"], data)
        assert matcher.prefilter_info()["skippable"]
        info = matcher.table_info()
        assert info["skipped_bytes"] > 0 and info["steps_bitset"] == 0

    def test_flush_mid_span(self):
        # The ``abbc`` phase needs 5 states, 2 more than the ``xy``
        # phase left room for: one flush, then the table serves on.
        data = b"xy " * 40 + b"abbc " * 40
        info = self._run(
            ["ab{2,4}c", "xy"], data, table_states=5, prefilter=False
        ).table_info()
        assert info["flushes"] == 1
        assert info["live"] and info["steps_bitset"] == 0

    def test_flush_every_few_bytes_mid_span(self):
        # Two states hold only the empty activation and one other: the
        # ``abbbc xy abbc`` phase flushes at nearly every fill.
        data = b"z" * 40 + b"abbbc xy abbc"
        info = self._run(
            ["ab{2,4}c", "xy"], data, table_states=2, prefilter=False
        ).table_info()
        assert info["flushes"] >= 1
        assert info["live"] and info["steps_bitset"] == 0
        assert info["hits"] + info["misses"] == info["steps_table"]


@functools.lru_cache(maxsize=None)
def _walk_case(name):
    """``(compiled, records, stream)``: a workload profile's rule lines
    and 150 records (30% matching), scanned one by one and joined into
    one stream, or RegexLib-16 and a 6,000-byte stream at a 0% or 50%
    plant rate."""
    if name.startswith("regexlib"):
        patterns = load_dataset("RegexLib", 16, 1)
        pool = PROFILES["RegexLib"].literal_pool
        rate = int(name[len("regexlib"):]) / 100
        rng = random.Random(7)
        stream = match_rate_stream(patterns, rng, 6000, pool, rate)
        return compile_all(patterns, CompilerOptions()), (), stream
    profile = WORKLOAD_PROFILES[name]
    patterns = import_rules(profile.ruleset_lines()).accepted_patterns
    records = tuple(profile.records(random.Random(1), 150, 0.3))
    compiled = compile_all(patterns, CompilerOptions())
    return compiled, records, b"\n".join(records)


class TestWalkParity:
    """One segment walk per feed on the workload rule sets: with the
    prefilter plan each set gets (none for pii), on the table, on the
    bitset tier alone and on a two-state table that flushes every few
    bytes, every scan and feed equals the unfiltered bitset tier's, and
    every fed byte is served once by the table, the bitset step or a
    skip, never by the bitset step while the table is on.
    ``TestTableSlowPath`` covers the walk without a plan."""

    CONFIGS = {"default": {}, "bitset": {"table_states": 0},
               "flushing": {"table_states": 2}}

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("feed", (None, 1, 7, 4096))
    @pytest.mark.parametrize(
        "name", ("log_scan", "ids", "pii", "regexlib0", "regexlib50")
    )
    def test_walk_matches_bitset_tier(self, name, feed, config):
        compiled, records, stream = _walk_case(name)
        reference = build_fused(compiled, table_states=0, prefilter=False)
        matcher = build_fused(compiled, **self.CONFIGS[config])
        assert (matcher.prefilter_info() is None) == (name == "pii")
        fed = len(stream)
        if feed is None:
            for record in records:
                assert matcher.scan(record) == reference.scan(record)
            fed += sum(map(len, records))
            assert matcher.scan(stream) == reference.scan(stream)
        else:
            assert _feed_in(matcher, stream, feed) == reference.scan(stream)
        counters = matcher.counters()
        assert (
            counters["steps_table"]
            + counters["steps_bitset"]
            + counters["skipped_bytes"]
        ) == fed
        if config == "bitset":
            assert counters["steps_table"] == 0
        else:
            assert counters["steps_bitset"] == 0
        if config == "flushing":
            assert counters["table_flushes"] >= 1

    @pytest.mark.parametrize("name", ("log_scan", "ids", "regexlib50"))
    def test_cut_points_read_the_same_activation_on_every_tier(self, name):
        # A probe every 7 bytes and a deadline check every 5 cut the
        # segments; each tier fires them in order with the activation a
        # plain walk leaves there, and keeps its unobserved counters.
        compiled, _records, stream = _walk_case(name)
        fired = {}
        for config, kwargs in self.CONFIGS.items():
            plain = build_fused(compiled, **kwargs)
            expected = plain.scan(stream)
            matcher = build_fused(compiled, **kwargs)
            cuts = fired[config] = []
            matcher._probe = (3, 7, lambda at, active: cuts.append((at, active)))
            matcher._deadline = (4, 5, lambda at, _: cuts.append((at, None)))
            assert matcher.scan(stream) == expected
            assert matcher.counters() == plain.counters()
            probes = [at for at, active in cuts if active is not None]
            assert probes == list(range(3, len(stream), 7))
            assert len(cuts) == len(probes) + len(range(4, len(stream), 5))
        assert fired["default"] == fired["bitset"] == fired["flushing"]

    @pytest.mark.parametrize("name", ("log_scan", "ids", "regexlib0"))
    def test_flushing_table_walks_the_whole_list(self, name):
        # One scan, one walk: the two-state table flushes every few
        # bytes, and still steps and skips every segment of the
        # prefiltered list itself.
        compiled, _records, stream = _walk_case(name)
        matcher = build_fused(compiled, table_states=2)
        expected = build_fused(compiled, table_states=0, prefilter=False)
        assert matcher.scan(stream) == expected.scan(stream)
        counters = matcher.counters()
        assert counters["table_flushes"] >= 1
        assert counters["steps_table"] > 0 and counters["steps_bitset"] == 0
        assert counters["skipped_bytes"] > 0


class TestTableBytes:
    """``table_info()["bytes"]``, the figure ``max_cache_bytes`` bounds,
    tracks what the table really holds.  Counting 4 bytes per column
    entry where a list holds 8 reads about 0.54 here."""

    def test_bytes_track_traced_growth(self):
        # 50% plants mint a new mask every few bytes: thousands of states.
        compiled, data = _regexlib(16, 1 << 16, rate=0.5)
        matcher = build_fused(compiled, table_states=1 << 20)
        gc.collect()
        tracemalloc.start()
        try:
            before = matcher.table_info()["bytes"]
            traced = tracemalloc.get_traced_memory()[0]
            matcher.scan(data)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - traced
        finally:
            tracemalloc.stop()
        info = matcher.table_info()
        assert info["live"] and info["flushes"] == 0
        assert info["states"] > 1000
        assert info["bytes"] < info["byte_capacity"]
        assert 0.75 <= (info["bytes"] - before) / grown <= 1.25


class TestCacheBytes:
    """Satellite: the successor cache is bounded by estimated bytes,
    keyed on mask bit length, not just entry count.  The cache is the
    bitset tier's memo (table fills bypass it), so the matchers here run
    with the table off."""

    def test_entry_bytes_scale_with_mask_width(self):
        from repro.matching.fused import entry_bytes

        narrow = entry_bytes(1 << 10, 1 << 10)
        wide = entry_bytes(1 << 100_000, 1 << 100_000)
        assert wide > narrow
        assert wide - narrow >= 2 * (100_000 - 10) // 8 - 16

    def test_cache_info_reports_bytes(self):
        matcher = build_fused(compile_all(["ab"]), table_states=0)
        matcher.scan(b"abcabc")
        info = matcher.cache_info()
        assert info["bytes"] > 0
        assert info["bytes"] <= info["byte_capacity"]
        assert info["entries"] * 100 < info["byte_capacity"]

    def test_byte_budget_evicts(self):
        from repro.matching.fused import entry_bytes

        # Room for roughly two narrow entries only.
        budget = entry_bytes(0, 0) * 2 + 10
        matcher = build_fused(
            compile_all(["ab"]), cache_bytes=budget, table_states=0
        )
        matcher.scan(b"abcabcabc" * 4)
        info = matcher.cache_info()
        assert info["bytes"] <= budget
        assert info["entries"] <= 3

    def test_byte_accounting_balances_after_evictions(self):
        from repro.matching.fused import entry_bytes

        matcher = build_fused(
            compile_all(["ab{3}c", "xy"]), cache_size=4, table_states=0
        )
        matcher.scan(b"abbbc xy zq abbc xbbz" * 3)
        info = matcher.cache_info()
        recomputed = sum(
            entry_bytes(key[0], value[0], len(value[1]))
            for key, value in matcher._cache.items()
        )
        assert info["bytes"] == recomputed

    def test_cache_bytes_validated(self):
        with pytest.raises(ValueError):
            build_fused(compile_all(["ab"]), cache_bytes=0)

    def test_results_unchanged_by_byte_pressure(self):
        compiled = compile_all(["ab{2,4}c", "x(yz){2}", "q+r"])
        data = b"abbc xyzyz qqr abbbbc" * 3
        tight = build_fused(compiled, cache_bytes=500, table_states=0)
        roomy = build_fused(compiled, table_states=0)
        assert tight.scan(data) == roomy.scan(data)

    def test_pattern_mask_selects_slice(self):
        fused = fuse_patterns(compile_all(["abc", "x{4}y"]))
        for pattern_id in range(fused.num_patterns):
            lo, hi = fused.pattern_slice(pattern_id)
            mask = fused.pattern_mask(pattern_id)
            assert mask == ((1 << (hi - lo)) - 1) << lo
        assert fused.pattern_mask(0) & fused.pattern_mask(1) == 0

    def test_nfas_retained_for_demotion(self):
        fused = fuse_patterns(compile_all(["abc", "x{4}y"]))
        assert len(fused.nfas) == 2
        lo, hi = fused.pattern_slice(1)
        assert fused.nfas[1].num_states == hi - lo
