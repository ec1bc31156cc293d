"""Sharded scan orchestrator: planner, parity, streaming, degradation.

The determinism guarantee under test: the sharded engine's merged match
stream is **byte-identical** to the single-process fused engine's, on
the golden corpus and on profile-shaped differential-fuzz rule sets
(200 seeded cases).  The resilience guarantee: a killed, fault-injected,
or hung shard degrades — the scan completes on the survivors and the
failure is recorded and counted — instead of failing the scan.
"""

import os
import random
import signal
import time

import pytest

from repro import telemetry
from repro.compiler import CompilerOptions, compile_pattern
from repro.matching import (
    PatternSet,
    ShardedScanner,
    estimate_cost,
    plan_shards,
)
from repro.matching.bench import bench_shard_scaling
from repro.matching.fused import DEFAULT_TABLE_BYTES
from repro.resilience import Budget
from repro.workloads import (
    DATASET_NAMES,
    PROFILES,
    dataset_stream,
    generate_pattern,
)

from .test_anchored_corpus import CORPUS as ANCHORED_CORPUS
from .test_anchored_corpus import OPTIONS as ANCHORED_OPTIONS
from .test_golden_corpus import CORPUS
from .test_golden_corpus import OPTIONS as GOLDEN_OPTIONS

OPTIONS = CompilerOptions(bv_size=8, unfold_threshold=2)

PATTERNS = ["ab{2,4}c", "a(ba){2}", "c{3,}", "(a|b){4}c", "bc"]


def compile_all(patterns, options=OPTIONS):
    return [
        compile_pattern(p, regex_id, options)
        for regex_id, p in enumerate(patterns)
    ]


# ---------------------------------------------------------------------------
# Cost planner
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_plan_covers_every_slot_exactly_once(self):
        compiled = compile_all(PATTERNS)
        plan = plan_shards(compiled, 3)
        seen = sorted(slot for shard in plan.shards for slot in shard)
        assert seen == list(range(len(PATTERNS)))

    def test_plan_is_deterministic(self):
        compiled = compile_all(PATTERNS)
        first = plan_shards(compiled, 3)
        second = plan_shards(compiled, 3)
        assert first.shards == second.shards
        assert first.costs == second.costs

    def test_more_shards_than_patterns_drops_empties(self):
        compiled = compile_all(["ab", "cd"])
        plan = plan_shards(compiled, 8)
        assert plan.num_shards == 2
        assert all(shard for shard in plan.shards)

    def test_equal_cost_patterns_spread_evenly(self):
        compiled = compile_all(["ab", "cd", "ef", "gh"])
        plan = plan_shards(compiled, 2)
        assert sorted(len(shard) for shard in plan.shards) == [2, 2]
        assert plan.balance() == pytest.approx(1.0)

    def test_lpt_balances_uneven_costs(self):
        # One heavy pattern plus three light ones: the heavy one must
        # sit alone-ish, not stacked with another heavy slot.
        compiled = compile_all(["[a-z]{2,8}x", "ab", "cd", "ef"])
        plan = plan_shards(compiled, 2)
        heavy = estimate_cost(compiled[0], 0).cost
        assert heavy > estimate_cost(compiled[1], 1).cost
        assert plan.balance() < 2.0

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            plan_shards([], 0)

    def test_cost_model_signals(self):
        counting, plain = compile_all(["a{8}", "a"])
        cost_counting = estimate_cost(counting, 0)
        cost_plain = estimate_cost(plain, 1)
        assert cost_counting.cost > cost_plain.cost
        assert 0.0 <= cost_plain.activation_ratio <= 1.0
        dense = estimate_cost(compile_pattern(".", 0, OPTIONS), 0)
        assert dense.activation_ratio > cost_plain.activation_ratio

    def test_plan_json_roundtrip_fields(self):
        plan = plan_shards(compile_all(PATTERNS), 2)
        blob = plan.to_json()
        assert set(blob) == {"shards", "costs", "balance"}
        assert len(blob["shards"]) == len(blob["costs"])


# ---------------------------------------------------------------------------
# Determinism parity with the fused engine
# ---------------------------------------------------------------------------


class TestFusedParity:
    def test_golden_corpus_byte_identical(self):
        """Full golden corpus as ONE pattern set over the concatenated
        inputs: sharded == fused, match for match, in order.  The
        anchored corpus is one more input: its ``$`` matches at the
        final byte must come out of ``scan`` on both backends."""
        for corpus, options in (
            (CORPUS, GOLDEN_OPTIONS),
            (ANCHORED_CORPUS, ANCHORED_OPTIONS),
        ):
            patterns = [pattern for pattern, _data in corpus]
            data = b" ".join(data for _pattern, data in corpus)
            fused = PatternSet(patterns, options=options, engine="fused")
            expected = [(m.pattern_id, m.end) for m in fused.scan(data)]
            assert expected, "corpus produced no matches; parity check is vacuous"
            for num_shards in (2, 3):
                for backend in ("process", "inline"):
                    with ShardedScanner(
                        fused.compiled, num_shards=num_shards, backend=backend
                    ) as scanner:
                        assert scanner.scan(data) == expected, (
                            num_shards,
                            backend,
                        )

    def test_differential_fuzz_200_seeded_cases(self):
        """Profile-shaped rule sets × seeded streams: 40 pattern sets ×
        5 streams = 200 cases, every one byte-identical to fused."""
        cases = 0
        for set_seed in range(40):
            profile = PROFILES[DATASET_NAMES[set_seed % len(DATASET_NAMES)]]
            rng = random.Random(set_seed)
            patterns = [generate_pattern(rng, profile) for _ in range(3)]
            fused = PatternSet(patterns, options=OPTIONS, engine="fused")
            with ShardedScanner(fused.compiled, num_shards=2) as scanner:
                for stream_seed in range(5):
                    stream = dataset_stream(
                        patterns,
                        random.Random(1000 * set_seed + stream_seed),
                        160,
                        profile.literal_pool,
                        plant_rate=0.05,
                    )
                    expected = [
                        (m.pattern_id, m.end) for m in fused.scan(stream)
                    ]
                    assert scanner.scan(stream) == expected, (
                        set_seed,
                        stream_seed,
                        patterns,
                    )
                    cases += 1
        assert cases == 200

    def test_single_shard_equals_fused(self):
        compiled = compile_all(PATTERNS)
        data = b"abbcc abbbbc a ba ba cccc aabbc" * 8
        fused = PatternSet(PATTERNS, options=OPTIONS, engine="fused")
        expected = [(m.pattern_id, m.end) for m in fused.scan(data)]
        with ShardedScanner(compiled, num_shards=1) as scanner:
            assert scanner.num_shards == 1
            assert scanner.scan(data) == expected

    def test_inline_backend_equals_process_backend(self):
        compiled = compile_all(PATTERNS)
        data = b"ab c abbc ababc ccc bcbc" * 20
        with ShardedScanner(compiled, num_shards=2) as process_backend:
            with ShardedScanner(
                compiled, num_shards=2, backend="inline"
            ) as inline_backend:
                assert process_backend.scan(data) == inline_backend.scan(data)

    @pytest.mark.parametrize("max_cache_bytes", (4096, None))
    def test_budget_caps_every_shard_table(self, max_cache_bytes):
        """``Budget.max_cache_bytes`` caps each shard's dense table as it
        caps the fused engine's; unset keeps the default.  The inline
        shards run the worker's command handler in-process."""
        budget = Budget(max_cache_bytes=max_cache_bytes)
        data = b"ab c abbc ababc ccc bcbc" * 20
        fused = PatternSet(
            PATTERNS, options=OPTIONS, engine="fused", budget=budget
        )
        with PatternSet(
            PATTERNS,
            options=OPTIONS,
            engine="sharded",
            shards=2,
            shard_backend="inline",
            budget=budget,
        ) as ps:
            assert ps.scan(data) == fused.scan(data)
            shards = ps._sharded._shards
            assert len(shards) == 2
            for shard in shards:
                info = shard.conn.matcher.table_info()
                assert info["byte_capacity"] == (
                    max_cache_bytes or DEFAULT_TABLE_BYTES
                )
        assert fused._fused.table_info()["byte_capacity"] == (
            max_cache_bytes or DEFAULT_TABLE_BYTES
        )

    def test_quarantine_preserves_original_ids(self):
        ps = PatternSet(
            ["ab", "bad(", "cd"],
            engine="sharded",
            shards=2,
            on_error="quarantine",
        )
        with ps:
            assert [r.pattern_id for r in ps.reports if r.quarantined] == [1]
            assert [(m.pattern_id, m.end) for m in ps.scan(b"ab cd")] == [
                (0, 1),
                (2, 4),
            ]

    def test_all_patterns_quarantined_scans_empty(self):
        with PatternSet(
            ["bad(", "also["], engine="sharded", on_error="quarantine"
        ) as ps:
            assert ps.scan(b"anything") == []


# ---------------------------------------------------------------------------
# Streaming contract
# ---------------------------------------------------------------------------


class TestStreaming:
    def test_chunked_feed_equals_scan_across_chunk_sizes(self):
        compiled = compile_all(PATTERNS)
        data = b"abbcc abbbbc a ba ba cccc" * 12
        with ShardedScanner(compiled, num_shards=2) as scanner:
            whole = scanner.scan(data)
            for chunk in (1, 3, 7, 64, len(data)):
                scanner.reset()
                rebased = []
                base = 0
                while base < len(data):
                    piece = data[base : base + chunk]
                    rebased.extend(
                        (pid, base + end) for pid, end in scanner.feed(piece)
                    )
                    base += len(piece)
                assert rebased == whole, chunk

    def test_internal_chunking_is_invisible(self):
        """The broadcast chunk size must not affect the stream."""
        compiled = compile_all(PATTERNS)
        data = b"abbc bc ccc ababc " * 30
        streams = []
        for chunk_bytes in (5, 17, 1 << 16):
            with ShardedScanner(
                compiled, num_shards=2, chunk_bytes=chunk_bytes
            ) as scanner:
                streams.append(scanner.scan(data))
        assert streams[0] == streams[1] == streams[2]

    def test_empty_feed_is_a_noop(self):
        with ShardedScanner(compile_all(["ab"]), num_shards=1) as scanner:
            assert scanner.feed(b"") == []
            assert scanner.feed(b"ab") == [(0, 1)]


# ---------------------------------------------------------------------------
# Failure degradation
# ---------------------------------------------------------------------------


class TestShardFailure:
    def _patterns_and_data(self):
        # Two shards with disjoint, easily recognisable patterns.
        return ["ax", "bx"], b"ax bx " * 50

    def test_sigkilled_shard_degrades_scan_completes(self):
        patterns, data = self._patterns_and_data()
        with telemetry.session():
            with PatternSet(patterns, engine="sharded", shards=2) as ps:
                healthy = ps.scan(data)
                assert {m.pattern_id for m in healthy} == {0, 1}
                victim_pid = ps._sharded.worker_pids()[0]
                os.kill(victim_pid, signal.SIGKILL)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    try:
                        os.kill(victim_pid, 0)
                    except ProcessLookupError:
                        break
                    time.sleep(0.01)
                degraded = ps.scan(data)
                assert degraded, "scan must complete on the surviving shard"
                failures = ps.shard_failures
                assert len(failures) == 1
                dead_ids = set(failures[0].pattern_ids)
                assert {m.pattern_id for m in degraded} == {0, 1} - dead_ids
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["scan.shard.failed"] == 1

    def test_fault_injected_shard_degrades_mid_stream(self):
        patterns, data = self._patterns_and_data()
        with telemetry.session():
            compiled = compile_all(patterns)
            with ShardedScanner(compiled, num_shards=2) as scanner:
                before = scanner.feed(data)
                assert {pid for pid, _ in before} == {0, 1}
                scanner.inject_fault(0, mode="die")
                after = scanner.feed(data)
                assert len(scanner.failures) == 1
                assert scanner.failures[0].reason in ("died", "send_failed")
                dead_ids = set(scanner.failures[0].pattern_ids)
                assert {pid for pid, _ in after} == {0, 1} - dead_ids
                assert scanner.live_shards() != []
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["scan.shard.failed"] == 1

    def test_hung_shard_times_out_and_degrades(self):
        patterns, data = self._patterns_and_data()
        compiled = compile_all(patterns)
        with ShardedScanner(
            compiled, num_shards=2, recv_timeout_s=0.5
        ) as scanner:
            scanner.feed(data)
            scanner.inject_fault(1, mode="hang")
            out = scanner.feed(data)
            assert [f.reason for f in scanner.failures] == ["timeout"]
            assert out, "surviving shard keeps reporting"

    def test_surviving_stream_stays_deterministic_after_failure(self):
        """Post-degradation output equals a fused scan of the surviving
        patterns only — the failure never reorders or duplicates."""
        patterns, data = self._patterns_and_data()
        compiled = compile_all(patterns)
        with ShardedScanner(compiled, num_shards=2) as scanner:
            scanner.scan(data)
            scanner.inject_fault(0, mode="die")
            degraded = scanner.scan(data)
            dead_ids = set(scanner.failures[0].pattern_ids)
        survivors = [c for c in compiled if c.regex_id not in dead_ids]
        with ShardedScanner(survivors, num_shards=1) as reference:
            assert degraded == reference.scan(data)

    def test_in_process_crash_degrades_instead_of_raising(self):
        """An in-process shard that raises is dead like a worker whose
        pipe hit EOF: it degrades, and the scan goes on without it."""
        compiled = compile_all(["ax", "bx"])
        with ShardedScanner(
            compiled, num_shards=2, backend="inline"
        ) as scanner:

            def poisoned(data):
                raise RuntimeError("poisoned automaton")

            scanner._shards[0].conn.matcher.feed = poisoned
            out = scanner.feed(b"ax bx")
            assert [f.reason for f in scanner.failures] == ["died"]
            dead_ids = set(scanner.failures[0].pattern_ids)
            assert out and {pid for pid, _ in out} == {0, 1} - dead_ids

    def test_stats_report_failures(self):
        compiled = compile_all(["ax", "bx"])
        with ShardedScanner(compiled, num_shards=2) as scanner:
            scanner.feed(b"ax bx")
            scanner.inject_fault(0, mode="die")
            scanner.feed(b"ax bx")
            stats = scanner.stats()
        assert stats["num_shards"] == 2
        assert stats["live_shards"] == 1
        assert stats["failures"] and stats["failures"][0]["reason"] in (
            "died",
            "send_failed",
        )


# ---------------------------------------------------------------------------
# Lifecycle and telemetry
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_close_is_idempotent_and_feed_after_close_raises(self):
        scanner = ShardedScanner(compile_all(["ab"]), num_shards=1)
        assert scanner.feed(b"ab") == [(0, 1)]
        scanner.close()
        scanner.close()
        with pytest.raises(RuntimeError):
            scanner.feed(b"ab")

    def test_workers_are_reaped_on_close(self):
        scanner = ShardedScanner(compile_all(["ab", "cd"]), num_shards=2)
        scanner.feed(b"ab")
        pids = [pid for pid in scanner.worker_pids() if pid is not None]
        assert len(pids) == 2
        scanner.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(not _pid_alive(pid) for pid in pids):
                break
            time.sleep(0.01)
        assert all(not _pid_alive(pid) for pid in pids)

    def test_invalid_arguments_rejected(self):
        compiled = compile_all(["ab"])
        with pytest.raises(ValueError):
            ShardedScanner(compiled, backend="threads")
        with pytest.raises(ValueError):
            ShardedScanner(compiled, chunk_bytes=0)
        with pytest.raises(ValueError):
            ShardedScanner(compiled, recv_timeout_s=0)
        with pytest.raises(ValueError):
            ShardedScanner(compiled, pattern_ids=[1, 2])

    def test_telemetry_counters_and_gauges(self):
        with telemetry.session():
            with PatternSet(
                ["ab{2,4}c", "bc"], engine="sharded", shards=2
            ) as ps:
                ps.scan(b"abbc bc " * 100)
            snapshot = telemetry.snapshot()
        counters = snapshot["counters"]
        assert counters["scan.shard.bytes"] == 2 * 800
        assert counters["scan.shard.matches"] > 0
        assert any(k.startswith("scan.shard.events") for k in counters)
        gauges = snapshot["gauges"]
        assert gauges["scan.shard.workers"]["value"] == 2
        assert any(k.startswith("scan.shard.occupancy") for k in gauges)

    def test_event_counters_publish_each_chunk_once(self):
        """Each merged chunk's events count once, so after any number of
        feeds the per-shard event counters sum to the merged matches."""
        compiled = compile_all(["ax", "bx"])
        data = b"ax bx " * 20
        with telemetry.session():
            with ShardedScanner(compiled, num_shards=2) as scanner:
                for _ in range(4):
                    scanner.feed(data)
            counters = telemetry.snapshot()["counters"]
        events = sum(
            value
            for key, value in counters.items()
            if key.startswith("scan.shard.events{")
        )
        assert counters["scan.shard.matches"] == 4 * 40
        assert events == counters["scan.shard.matches"]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# ---------------------------------------------------------------------------
# Bench helper
# ---------------------------------------------------------------------------


def test_bench_shard_scaling_record_shape():
    patterns = ["ab{2,4}c", "bc", "c{3,}"]
    data = b"abbc bc ccc " * 40
    record = bench_shard_scaling(patterns, data, (1, 2), repeats=1)
    assert record["num_patterns"] == 3
    assert record["cpus"] == os.cpu_count()
    assert [row["shards"] for row in record["shards"]] == [1, 2]
    for row in record["shards"]:
        assert row["matches"] == record["fused"]["matches"]
        assert "speedup_vs_fused" in row


# ---------------------------------------------------------------------------
# Worker telemetry aggregation (satellite of the observability PR)
# ---------------------------------------------------------------------------


class TestWorkerStats:
    """Worker-side counters cross the process boundary with each reply
    and merge into the parent registry as monotone per-shard deltas."""

    def test_process_workers_ship_stats(self):
        compiled = compile_all(["ax", "bx"])
        data = b"ax bx " * 50
        with telemetry.session():
            with ShardedScanner(compiled, num_shards=2) as scanner:
                scanner.scan(data)
                worker_stats = scanner.stats()["worker_stats"]
            snapshot = telemetry.snapshot()
        assert set(worker_stats) == {0, 1}
        for stats in worker_stats.values():
            assert stats["symbols"] == len(data)
            assert set(stats) >= {
                "cache_hits",
                "cache_misses",
                "table_hits",
                "table_misses",
                "table_flushes",
                "steps_bitset",
                "symbols",
            }
        counters = snapshot["counters"]
        assert counters["scan.shard.symbols{shard=0}"] == len(data)
        assert counters["scan.shard.symbols{shard=1}"] == len(data)
        for shard in (0, 1):
            # The worker's table served the scan: its fills and hits
            # reach the parent registry.
            assert counters[f"scan.shard.table_misses{{shard={shard}}}"] > 0
            assert counters[f"scan.shard.table_hits{{shard={shard}}}"] > 0
            assert worker_stats[shard]["steps_bitset"] == 0

    def test_inline_backend_ships_stats(self):
        compiled = compile_all(["ax", "bx"])
        data = b"ax bx " * 50
        with telemetry.session():
            with ShardedScanner(
                compiled, num_shards=2, backend="inline"
            ) as scanner:
                scanner.scan(data)
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["scan.shard.symbols{shard=0}"] == len(
            data
        )

    def test_deltas_stay_monotone_across_feeds(self):
        """Workers ship cumulative totals; the parent publishes only the
        delta, so N feeds sum to exactly N x the per-feed work."""
        compiled = compile_all(["ax", "bx"])
        data = b"ax bx " * 20
        with telemetry.session():
            with ShardedScanner(compiled, num_shards=2) as scanner:
                scanner.feed(data)
                scanner.feed(data)
                scanner.feed(data)
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["scan.shard.symbols{shard=0}"] == 3 * len(
            data
        )

    def test_restart_resets_worker_baselines(self):
        """A restarted worker's counters begin again at zero; the parent
        clears its published baseline so the next delta is not negative
        (and not silently dropped)."""
        data = b"ax bx cx " * 20
        with telemetry.session():
            with ShardedScanner(
                compile_all(["ax", "bx"]), num_shards=2
            ) as scanner:
                scanner.feed(data)
                # add_patterns restarts the receiving shard: its fresh
                # worker's cumulative counters begin again at zero.
                scanner.add_patterns(
                    compile_all(["cx"]), pattern_ids=[2]
                )
                scanner.feed(data)
                restarted = {
                    index: stats["symbols"]
                    for index, stats in scanner.stats()[
                        "worker_stats"
                    ].items()
                }
            snapshot = telemetry.snapshot()
        # The restarted worker's cumulative count covers one feed; the
        # untouched worker's covers both.
        assert sorted(restarted.values()) == [len(data), 2 * len(data)]
        counters = snapshot["counters"]
        total = sum(
            value
            for key, value in counters.items()
            if key.startswith("scan.shard.symbols{")
        )
        # Every shard scanned every feed: 2 shards x 2 feeds, nothing
        # dropped and nothing double-published across the restart.
        assert total == 4 * len(data)

    def test_stats_survive_without_telemetry_session(self):
        compiled = compile_all(["ax", "bx"])
        with ShardedScanner(compiled, num_shards=2) as scanner:
            scanner.scan(b"ax bx " * 10)
            worker_stats = scanner.stats()["worker_stats"]
        assert all(s["symbols"] == 60 for s in worker_stats.values())
