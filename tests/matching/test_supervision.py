"""Supervised recovery for the sharded scan orchestrator.

The guarantee under test is the strongest one the supervision layer
makes: a scan that loses workers mid-stream — killed, hung, or crash-
looped past its restart budget — produces a merged match stream
**byte-identical** to an uninterrupted run.  The mechanisms behind it
(checkpoint snapshots, tail replay deduplicated by chunk, the parent
taking an exhausted shard over in-process) are each pinned here, plus
the bookkeeping: monotone per-shard counter deltas across restarts and
restart/failover records for every recovery.
"""

import os
import random
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.compiler import CompilerOptions, compile_pattern
from repro.matching import ShardedScanner
from repro.matching.fused import FusedMatcher, fuse_patterns
from repro.resilience import ChaosSpec, RestartPolicy, run_chaos

from .test_golden_corpus import CORPUS
from .test_golden_corpus import OPTIONS as GOLDEN_OPTIONS

OPTIONS = CompilerOptions(bv_size=8, unfold_threshold=2)

PATTERNS = ["ab{2,4}c", "a(ba){2}", "c{3,}", "(a|b){4}c", "bc"]

#: Fast supervision policy for tests: tight backoff, frequent
#: checkpoints (every 2 chunks) so replays stay short.
POLICY = RestartPolicy(
    max_restarts=2,
    backoff_base_s=0.01,
    backoff_cap_s=0.02,
    checkpoint_chunks=2,
)


def compile_all(patterns, options=OPTIONS):
    return [
        compile_pattern(p, regex_id, options)
        for regex_id, p in enumerate(patterns)
    ]


def make_data(seed, size=2048):
    rng = random.Random(seed)
    pool = [b"abbc", b"ababa", b"cccc", b"abab", b"bc", b"xy", b" "]
    out = bytearray()
    while len(out) < size:
        out += pool[rng.randrange(len(pool))]
    return bytes(out[:size])


def fused_stream(compiled, data, chunk_bytes):
    """The oracle: single-process fused engine over the same chunking."""
    matcher = FusedMatcher(fuse_patterns(compiled))
    ids = [c.regex_id for c in compiled]
    events, pos = [], 0
    for base in range(0, len(data), chunk_bytes):
        chunk = data[base : base + chunk_bytes]
        events.extend(
            (ids[slot], pos + end) for slot, end in matcher.feed(chunk)
        )
        pos += len(chunk)
    return events


def supervised_stream(
    compiled,
    data,
    chunk_bytes,
    faults=(),
    policy=POLICY,
    num_shards=2,
    recv_timeout_s=5.0,
):
    """Feed ``data`` through a supervised scanner, injecting ``faults``
    (``(chunk_index, shard, mode)`` triples) before the named chunks.
    Returns the absolute merged stream plus the scanner's recovery
    records."""
    events = []
    with ShardedScanner(
        compiled,
        num_shards=num_shards,
        chunk_bytes=chunk_bytes,
        recv_timeout_s=recv_timeout_s,
        restart_policy=policy,
        seed=0,
    ) as scanner:
        pos = 0
        for index in range(0, len(data), chunk_bytes):
            chunk_index = index // chunk_bytes
            for at, shard, mode in faults:
                if at == chunk_index:
                    scanner.inject_fault(shard, mode)
            chunk = data[index : index + chunk_bytes]
            events.extend(
                (pid, pos + end) for pid, end in scanner.feed(chunk)
            )
            pos += len(chunk)
        return events, {
            "restarts": list(scanner.restarts),
            "failovers": list(scanner.failovers),
            "failures": list(scanner.failures),
        }


# ---------------------------------------------------------------------------
# Checkpoint snapshot -> restore -> replay
# ---------------------------------------------------------------------------


class TestSnapshotReplay:
    """The recovery primitive: restoring a snapshot and replaying the
    tail regenerates exactly the events the original run produced."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        split=st.integers(min_value=0, max_value=2048),
    )
    def test_fused_restore_replays_random_tail_identically(self, seed, split):
        compiled = compile_all(PATTERNS)
        data = make_data(seed)
        split = min(split, len(data))
        matcher = FusedMatcher(fuse_patterns(compiled))
        matcher.feed(data[:split])
        snapshot = matcher.state_snapshot()
        expected = matcher.feed(data[split:])

        clone = FusedMatcher(fuse_patterns(compiled))
        clone.restore_state(snapshot)
        assert clone.feed(data[split:]) == expected

    def test_snapshot_version_mismatch_rejected(self):
        compiled = compile_all(PATTERNS)
        matcher = FusedMatcher(fuse_patterns(compiled))
        snapshot = matcher.state_snapshot()
        snapshot["version"] = 999
        with pytest.raises(ValueError):
            matcher.restore_state(snapshot)

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        kill_chunk=st.integers(min_value=0, max_value=15),
    )
    def test_sharded_restart_at_random_chunk_byte_identical(
        self, seed, kill_chunk
    ):
        """Kill a worker before a random chunk; the supervised scanner's
        merged stream must match the fault-free fused oracle exactly."""
        compiled = compile_all(PATTERNS)
        data = make_data(seed)
        golden = fused_stream(compiled, data, 128)
        observed, outcome = supervised_stream(
            compiled, data, 128, faults=[(kill_chunk, 0, "die")]
        )
        assert observed == golden
        assert len(outcome["restarts"]) == 1
        assert not outcome["failures"]


# ---------------------------------------------------------------------------
# Watchdog: hung workers trip the heartbeat deadline
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_sigstopped_worker_is_restarted_byte_identically(self):
        """SIGSTOP freezes a worker without killing it — only the recv
        deadline can notice.  The watchdog must declare it dead, restart
        it from the checkpoint, and keep the stream identical."""
        compiled = compile_all(PATTERNS)
        data = make_data(3)
        golden = fused_stream(compiled, data, 256)
        observed, outcome = supervised_stream(
            compiled,
            data,
            256,
            faults=[(4, 0, "stop")],
            recv_timeout_s=1.0,
        )
        assert observed == golden
        assert len(outcome["restarts"]) == 1
        assert outcome["restarts"][0].reason == "timeout"
        assert not outcome["failures"]

    def test_slow_worker_within_deadline_is_tolerated(self):
        compiled = compile_all(PATTERNS)
        data = make_data(4)
        golden = fused_stream(compiled, data, 256)
        observed, outcome = supervised_stream(
            compiled, data, 256, faults=[(2, 0, "slow")]
        )
        assert observed == golden
        assert not outcome["restarts"]
        assert not outcome["failures"]

    def test_heartbeat_reports_worker_health(self):
        compiled = compile_all(PATTERNS)
        with ShardedScanner(
            compiled, num_shards=2, restart_policy=POLICY, seed=0
        ) as scanner:
            assert scanner.heartbeat() == {0: True, 1: True}
            os.kill(scanner._shards[0].process.pid, signal.SIGKILL)
            scanner._shards[0].process.join(2.0)
            beat = scanner.heartbeat()
            assert beat[0] is False
            assert beat[1] is True


# ---------------------------------------------------------------------------
# Failover: an exhausted restart budget hands the shard to the parent
# ---------------------------------------------------------------------------


class TestFailover:
    def test_failover_refuses_patterns_onto_survivor(self):
        """With a zero restart budget the parent takes a killed shard
        over in-process; no pattern is lost and no shard degrades."""
        compiled = compile_all(PATTERNS)
        data = make_data(5)
        golden = fused_stream(compiled, data, 128)
        policy = RestartPolicy(
            max_restarts=0,
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            checkpoint_chunks=2,
        )
        observed, outcome = supervised_stream(
            compiled, data, 128, faults=[(6, 0, "die")], policy=policy
        )
        assert observed == golden
        assert len(outcome["failovers"]) == 1
        assert not outcome["failures"]
        failover = outcome["failovers"][0]
        assert failover.shard == 0
        assert failover.pattern_ids

    def test_failover_parity_on_golden_corpus(self):
        patterns = [pattern for pattern, _ in CORPUS]
        compiled = [
            compile_pattern(pattern, regex_id, GOLDEN_OPTIONS)
            for regex_id, pattern in enumerate(patterns)
        ]
        data = b" ".join(sample for _, sample in CORPUS) * 4
        golden = fused_stream(compiled, data, 64)
        policy = RestartPolicy(
            max_restarts=0,
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            checkpoint_chunks=2,
        )
        observed, outcome = supervised_stream(
            compiled,
            data,
            64,
            faults=[(4, 0, "die")],
            policy=policy,
            num_shards=3,
        )
        assert observed == golden
        assert len(outcome["failovers"]) == 1
        assert not outcome["failures"]

    def test_restart_budget_spent_before_failover(self):
        """Repeated kills: the policy's restart budget is consumed
        first, then the shard fails over — and the stream still
        matches the oracle."""
        compiled = compile_all(PATTERNS)
        data = make_data(6, size=4096)
        golden = fused_stream(compiled, data, 128)
        observed, outcome = supervised_stream(
            compiled,
            data,
            128,
            faults=[(2, 0, "die"), (8, 0, "die"), (14, 0, "die")],
        )
        assert observed == golden
        assert len(outcome["restarts"]) == POLICY.max_restarts
        assert len(outcome["failovers"]) == 1
        assert not outcome["failures"]


# ---------------------------------------------------------------------------
# Takeover: no surviving worker needed, replay deduplicated by chunk
# ---------------------------------------------------------------------------

NO_RESTARTS = RestartPolicy(
    max_restarts=0,
    backoff_base_s=0.01,
    backoff_cap_s=0.02,
    checkpoint_chunks=2,
)


class TestTakeover:
    """The parent runs an exhausted shard itself, from the same
    checkpoint through the same tail replay, so recovery needs no
    surviving worker and loses no event."""

    @pytest.mark.parametrize(
        "faults,num_shards",
        [
            ([(6, 0, "kill"), (6, 1, "kill")], 2),
            ([(3, 0, "kill"), (9, 1, "kill")], 2),
            ([(5, 0, "kill")], 1),
        ],
        ids=["both-at-one-chunk", "both-at-two-chunks", "only-shard"],
    )
    def test_every_worker_killed_without_restarts(self, faults, num_shards):
        compiled = compile_all(PATTERNS)
        data = make_data(12)
        golden = fused_stream(compiled, data, 128)
        observed, outcome = supervised_stream(
            compiled,
            data,
            128,
            faults=faults,
            policy=NO_RESTARTS,
            num_shards=num_shards,
        )
        assert observed == golden
        assert outcome["failures"] == []
        assert [f.shard for f in outcome["failovers"]] == [
            shard for _chunk, shard, _mode in faults
        ]

    def test_word_boundary_seam_event_survives_replay(self):
        """``x\\b`` confirms on the byte after the seam and reports at
        the previous chunk's last byte, after ``x`` already reported
        there: a replay must still emit it."""
        compiled = compile_all([r"x\b", "x"])
        data = b"aaax bbbccccdddd"
        golden = fused_stream(compiled, data, 4)
        assert golden == [(1, 3), (0, 3)]
        policy = RestartPolicy(
            max_restarts=2,
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            checkpoint_chunks=1,
        )
        observed, outcome = supervised_stream(
            compiled,
            data,
            4,
            faults=[(1, 0, "kill")],
            policy=policy,
            num_shards=1,
        )
        assert observed == golden
        assert outcome["failures"] == []

    def test_finish_heals_worker_killed_after_last_feed(self):
        """A worker that dies between the last feed and ``finish`` is
        healed, not degraded: its ``$`` candidate still reports."""
        compiled = compile_all(["ab{2,4}c", "end$", "bc"])
        data = make_data(14, size=1024) + b" the end"
        matcher = FusedMatcher(fuse_patterns(compiled))
        golden = fused_stream(compiled, data, 128)
        matcher.feed(data)
        golden.extend((slot, len(data) - 1) for slot, _ in matcher.finish())
        assert (1, len(data) - 1) in golden
        with ShardedScanner(
            compiled,
            num_shards=2,
            chunk_bytes=128,
            recv_timeout_s=5.0,
            restart_policy=POLICY,
            seed=0,
        ) as scanner:
            events = []
            for base in range(0, len(data), 128):
                events.extend(
                    (pid, base + end)
                    for pid, end in scanner.feed(data[base : base + 128])
                )
            victim = next(
                index
                for index, slots in enumerate(scanner.plan.shards)
                if 1 in slots
            )
            os.kill(scanner._shards[victim].process.pid, signal.SIGKILL)
            scanner._shards[victim].process.join(2.0)
            events.extend(
                (pid, len(data) - 1) for pid, _end in scanner.finish()
            )
            failures = list(scanner.failures)
            restarts = list(scanner.restarts)
        assert events == golden
        assert failures == []
        assert [r.shard for r in restarts] == [victim]


# ---------------------------------------------------------------------------
# Telemetry across recovery: monotone counters, flight events
# ---------------------------------------------------------------------------


class TestRecoveryTelemetry:
    def test_counter_deltas_stay_monotone_across_restart(self):
        """The restarted worker's counters begin again at zero; the
        parent folds the dead worker's totals into a carry so published
        per-shard deltas never go negative and never drop work.  The
        restarted shard's symbol count lands between ``len(data)``
        (nothing double-counted) and ``len(data) + replayed`` (the
        replayed tail recounted)."""
        compiled = compile_all(["ax", "bx"])
        data = b"ax bx cx " * 40
        chunks = [data[i : i + 64] for i in range(0, len(data), 64)]
        with telemetry.session():
            with ShardedScanner(
                compiled,
                num_shards=2,
                chunk_bytes=64,
                restart_policy=POLICY,
                seed=0,
            ) as scanner:
                for index, chunk in enumerate(chunks):
                    if index == 3:
                        scanner.inject_fault(0, "die")
                    scanner.feed(chunk)
                replayed = sum(r.replayed_bytes for r in scanner.restarts)
                assert len(scanner.restarts) == 1
            counters = telemetry.snapshot()["counters"]
        assert counters["scan.shard.symbols{shard=1}"] == len(data)
        restarted = counters["scan.shard.symbols{shard=0}"]
        assert len(data) <= restarted <= len(data) + replayed
        assert counters["scan.shard.restarts"] == 1
        assert counters["scan.shard.replayed_bytes"] == replayed

    def test_restarts_and_failovers_recorded_in_flight_ring(self):
        from repro.telemetry import flight

        compiled = compile_all(PATTERNS)
        data = make_data(7)
        policy = RestartPolicy(
            max_restarts=1,
            backoff_base_s=0.01,
            backoff_cap_s=0.02,
            checkpoint_chunks=2,
        )
        flight.enable()
        try:
            supervised_stream(
                compiled,
                data,
                128,
                faults=[(2, 0, "die"), (6, 0, "die")],
                policy=policy,
            )
            kinds = [e["kind"] for e in flight.recorder().events()]
        finally:
            flight.disable()
        assert "shard_restart" in kinds
        assert "shard_failover" in kinds
        restart = next(
            e
            for e in flight.recorder().events()
            if e["kind"] == "shard_restart"
        )
        assert restart["shard"] == 0
        assert restart["attempt"] == 1

    def test_restart_records_carry_replay_accounting(self):
        compiled = compile_all(PATTERNS)
        data = make_data(8)
        _, outcome = supervised_stream(
            compiled, data, 128, faults=[(5, 0, "die")]
        )
        (restart,) = outcome["restarts"]
        assert restart.shard == 0
        assert restart.attempt == 1
        assert restart.backoff_s >= 0.0
        assert restart.replayed_bytes % 128 == 0
        assert 0 < restart.replayed_bytes <= 128 * POLICY.checkpoint_chunks


# ---------------------------------------------------------------------------
# Chaos campaigns: the pinned restart and failover parity seeds
# ---------------------------------------------------------------------------


class TestChaosCampaign:
    def test_pinned_seed_kill_restart_path_byte_identical(self):
        compiled = compile_all(PATTERNS)
        data = make_data(9, size=8192)
        spec = ChaosSpec(
            seed=7,
            kinds=("kill",),
            num_faults=1,
            shards=2,
            chunk_bytes=512,
            max_restarts=2,
            checkpoint_chunks=2,
        )
        report = run_chaos(compiled, data, spec)
        assert not report.diverged
        assert report.restarts == 1
        assert report.failovers == 0
        assert report.chaos_matches == report.golden_matches

    def test_pinned_seed_kill_failover_path_byte_identical(self):
        compiled = compile_all(PATTERNS)
        data = make_data(9, size=8192)
        spec = ChaosSpec(
            seed=7,
            kinds=("kill",),
            num_faults=1,
            shards=2,
            chunk_bytes=512,
            max_restarts=0,
            checkpoint_chunks=2,
        )
        report = run_chaos(compiled, data, spec)
        assert not report.diverged
        assert report.restarts == 0
        assert report.failovers == 1
        assert report.degraded == 0

    def test_mixed_kill_stop_campaign_is_lossless(self):
        compiled = compile_all(PATTERNS)
        data = make_data(10, size=8192)
        spec = ChaosSpec(
            seed=3,
            kinds=("kill", "stop"),
            num_faults=2,
            shards=2,
            chunk_bytes=512,
            max_restarts=2,
            checkpoint_chunks=2,
            recv_timeout_s=1.0,
        )
        report = run_chaos(compiled, data, spec)
        assert not report.diverged
        assert report.restarts + report.failovers >= 1


# ---------------------------------------------------------------------------
# Unsupervised scanners keep the old degrade-only contract
# ---------------------------------------------------------------------------


class TestUnsupervisedUnchanged:
    def test_no_policy_still_degrades(self):
        compiled = compile_all(PATTERNS)
        data = make_data(11)
        golden = fused_stream(compiled, data, 256)
        observed, outcome = supervised_stream(
            compiled, data, 256, faults=[(2, 0, "die")], policy=None
        )
        assert not outcome["restarts"]
        assert not outcome["failovers"]
        assert len(outcome["failures"]) == 1
        # Fail-soft, not fail-silent: the stream loses only events owned
        # by the degraded shard's patterns, and loses some of those.
        dead_ids = set(outcome["failures"][0].pattern_ids)
        missing = set(golden) - set(observed)
        assert set(observed) <= set(golden)
        assert {pid for pid, _ in missing} <= dead_ids
