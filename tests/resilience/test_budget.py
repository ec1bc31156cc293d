"""Budget tests: validation, compile-time limits, unfold bounding, and
the cooperative scan deadline on every engine."""

import contextlib
import functools
import random

import pytest

from repro.compiler.pipeline import CompilerOptions, compile_pattern
from repro.matching import ENGINES, PatternSet
from repro.regex.parser import parse
from repro.regex.rewrite import DEFAULT_MAX_UNFOLD, unfold_all, unfold_repeat
from repro.resilience import Budget, BudgetExceededError
from repro.telemetry import profiler
from repro.workloads import PROFILES, dataset_stream, load_dataset


class TestBudgetObject:
    def test_default_is_unlimited(self):
        assert Budget().unlimited()

    def test_any_limit_disables_unlimited(self):
        assert not Budget(max_states=10).unlimited()
        assert not Budget(deadline_s=1.0).unlimited()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_states": 0},
            {"max_unfold": -1},
            {"max_bv_width": 0},
            {"max_cache_bytes": 0},
            {"deadline_s": -0.5},
            {"check_bytes": 0},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_charge_states(self):
        Budget(max_states=10).charge_states(10)  # at the limit: fine
        with pytest.raises(BudgetExceededError) as exc:
            Budget(max_states=10).charge_states(11, "a{9}")
        assert exc.value.kind == "states"
        assert exc.value.limit == 10
        assert exc.value.actual == 11

    def test_charge_bv_width(self):
        with pytest.raises(BudgetExceededError) as exc:
            Budget(max_bv_width=64).charge_bv_width(100)
        assert exc.value.kind == "bv_width"

    def test_clock_without_deadline_never_expires(self):
        clock = Budget().start()
        assert not clock.expired()
        clock.check("anything")  # no-op

    def test_zero_deadline_expires_immediately(self):
        clock = Budget(deadline_s=0.0).start()
        assert clock.expired()
        with pytest.raises(BudgetExceededError) as exc:
            clock.check("parse")
        assert exc.value.kind == "deadline"
        assert exc.value.phase == "parse"


class TestCompileBudgets:
    def test_max_states_quarantinable(self):
        # States are charged after the quotient pass, so the budget
        # judges the machine that would actually be deployed.
        options = CompilerOptions(budget=Budget(max_states=5))
        with pytest.raises(BudgetExceededError) as exc:
            compile_pattern("abcdefghij", options=options)
        assert exc.value.kind == "states"
        assert exc.value.phase == "reduce"

    def test_max_bv_width_enforced(self):
        options = CompilerOptions(budget=Budget(max_bv_width=32))
        with pytest.raises(BudgetExceededError) as exc:
            compile_pattern("ab{60}c", options=options)
        assert exc.value.kind == "bv_width"

    def test_deadline_aborts_compile(self):
        options = CompilerOptions(budget=Budget(deadline_s=0.0))
        with pytest.raises(BudgetExceededError) as exc:
            compile_pattern("ab", options=options)
        assert exc.value.kind == "deadline"

    def test_unaffected_patterns_compile_normally(self):
        options = CompilerOptions(budget=Budget(max_states=100))
        compiled = compile_pattern("ab{3}c", options=options)
        assert compiled.ah.num_states <= 100


class TestUnfoldBudget:
    """Satellite: ``{m,n}`` unfolding is bounded by ``max_unfold``."""

    def test_unfold_repeat_respects_limit(self):
        with pytest.raises(BudgetExceededError) as exc:
            unfold_repeat(parse("a"), 1, 100, limit=50)
        assert exc.value.kind == "unfold"
        assert exc.value.limit == 50

    def test_unfold_all_respects_limit(self):
        with pytest.raises(BudgetExceededError):
            unfold_all(parse("a{1000}"), 100)

    def test_default_limit_blocks_pathological_bounds(self):
        # At the default limit a hundred-million-wide bound errors
        # instead of exhausting memory.
        with pytest.raises(BudgetExceededError):
            unfold_all(parse("x{1,100000000}y"), DEFAULT_MAX_UNFOLD)

    def test_split_path_is_bounded_too(self):
        # Bound *splitting* (Example 7.2) creates ~n/64 pieces; it must
        # respect the same budget instead of recursing to death.
        options = CompilerOptions(budget=Budget(max_unfold=10_000))
        with pytest.raises(BudgetExceededError) as exc:
            compile_pattern("x{1,100000000}y", options=options)
        assert exc.value.phase == "rewrite"

    def test_small_unfolds_unchanged(self):
        assert unfold_all(parse("a{3}"), DEFAULT_MAX_UNFOLD) is not None


class TestScanDeadline:
    """Every engine checks the budget clock every ``check_bytes``."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadline_raises_mid_scan(self, engine):
        ps = PatternSet(["ab{2,4}c"], engine=engine)
        ps.budget = Budget(deadline_s=0.0, check_bytes=16)
        with pytest.raises(BudgetExceededError) as exc:
            ps.scan(b"abbc" * 64)
        assert exc.value.kind == "deadline"
        assert exc.value.phase == "scan"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_generous_deadline_passes(self, engine):
        ps = PatternSet(["ab{2,4}c"], engine=engine)
        ps.budget = Budget(deadline_s=300.0, check_bytes=16)
        matches = ps.scan(b"zabbc")
        assert [(m.pattern_id, m.end) for m in matches] == [(0, 4)]

    def test_chunked_feed_matches_unchunked(self):
        data = b"abbc xabbbcx abbbbc" * 9
        plain = PatternSet(["ab{2,4}c"], engine="fused").scan(data)
        chunked_ps = PatternSet(["ab{2,4}c"], engine="fused")
        chunked_ps.budget = Budget(deadline_s=300.0, check_bytes=7)
        assert chunked_ps.scan(data) == plain


@functools.lru_cache(maxsize=None)
def _regexlib16_stream(length=1 << 16):
    """RegexLib-16 and a sparse stream the prefilter mostly skips."""
    patterns = load_dataset("RegexLib", 16, 1)
    pool = PROFILES["RegexLib"].literal_pool
    return patterns, dataset_stream(patterns, random.Random(1), length, pool)


class TestDeadlineKeepsTiers:
    """The fused walk checks the clock at its cut points instead of the
    feed being cut into ``check_bytes`` blocks, each re-arming the
    prefilter's tail window: a deadline changes no tier, profiled or
    not."""

    @staticmethod
    def _run(budget=None, stride=None, feed=None):
        patterns, data = _regexlib16_stream()
        session = (
            profiler.profile_session(stride=stride, input_len=len(data))
            if stride else contextlib.nullcontext()
        )
        with PatternSet(patterns, budget=budget) as ps, session:
            if feed is None:
                events = [(m.pattern_id, m.end) for m in ps.scan(data)]
            else:
                events = [
                    (m.pattern_id, base + m.end)
                    for base in range(0, len(data), feed)
                    for m in ps.feed(data[base : base + feed])
                ]
            return events, ps._fused.counters()

    @pytest.mark.parametrize("feed", (None, 10_000))
    @pytest.mark.parametrize("stride", (None, 64))
    @pytest.mark.parametrize("check_bytes", (4096, 7))
    def test_counters_and_events_unchanged(self, check_bytes, stride, feed):
        plain_events, plain = self._run(feed=feed)
        assert plain_events and plain["skipped_bytes"] > 0
        budget = Budget(deadline_s=600, check_bytes=check_bytes)
        assert self._run(budget, stride, feed) == (plain_events, plain)


class TestShardedDeadlineKeepsChunks:
    """A sharded feed under a deadline is cut into whole broadcast
    chunks, so every block seam is a chunk seam the scanner cuts anyway:
    the workers scan the same chunks and tail windows, with or without a
    deadline."""

    #: Three whole 64 KiB broadcast chunks and a partial one.
    LENGTH = 3 * (1 << 16) + 5000

    @classmethod
    def _run(cls, budget=None, feed=None):
        patterns, data = _regexlib16_stream(cls.LENGTH)
        with PatternSet(
            patterns,
            engine="sharded",
            shards=2,
            shard_backend="inline",
            budget=budget,
        ) as ps:
            if feed is None:
                events = [(m.pattern_id, m.end) for m in ps.scan(data)]
            else:
                events = [
                    (m.pattern_id, base + m.end)
                    for base in range(0, len(data), feed)
                    for m in ps.feed(data[base : base + feed])
                ]
            return events, ps._sharded.stats()["worker_stats"]

    @pytest.mark.parametrize("feed", (None, 10_000))
    @pytest.mark.parametrize("check_bytes", (4096, 7))
    def test_worker_stats_and_events_unchanged(self, check_bytes, feed):
        plain_events, plain = self._run(feed=feed)
        assert plain_events and len(plain) == 2
        assert all(stats["armed_bytes"] > 0 for stats in plain.values())
        budget = Budget(deadline_s=600, check_bytes=check_bytes)
        assert self._run(budget, feed) == (plain_events, plain)


class TestRestartPolicy:
    """Supervised-restart parameters: validation and backoff shape."""

    def test_defaults_are_valid(self):
        from repro.resilience import RestartPolicy

        policy = RestartPolicy()
        assert policy.max_restarts >= 0
        assert policy.checkpoint_chunks >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": -1},
            {"backoff_base_s": -0.1},
            {"backoff_base_s": 1.0, "backoff_cap_s": 0.5},
            {"jitter": -0.1},
            {"jitter": 1.5},
            {"checkpoint_chunks": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        from repro.resilience import RestartPolicy

        with pytest.raises(ValueError):
            RestartPolicy(**kwargs)

    def test_backoff_doubles_then_caps(self):
        from repro.resilience import RestartPolicy

        policy = RestartPolicy(
            backoff_base_s=0.1, backoff_cap_s=0.5, jitter=0.0
        )
        delays = [policy.backoff_s(attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_bounded_and_seeded(self):
        import random

        from repro.resilience import RestartPolicy

        policy = RestartPolicy(
            backoff_base_s=0.1, backoff_cap_s=1.0, jitter=0.5
        )
        delays = [
            policy.backoff_s(1, random.Random(seed)) for seed in range(50)
        ]
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert policy.backoff_s(1, random.Random(7)) == policy.backoff_s(
            1, random.Random(7)
        )

    def test_attempt_must_be_positive(self):
        from repro.resilience import RestartPolicy

        with pytest.raises(ValueError):
            RestartPolicy().backoff_s(0)

    def test_budget_carries_policy(self):
        from repro.resilience import RestartPolicy

        policy = RestartPolicy(max_restarts=1)
        assert Budget(restart=policy).restart is policy
        assert Budget().restart is None
