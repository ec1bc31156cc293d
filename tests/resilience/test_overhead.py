"""Acceptance guard: with budgets disabled, the fused scan hot loop
must stay within 1.15x of the raw fused matcher."""

from repro import telemetry
from repro.matching import PatternSet
from repro.matching.fused import FusedMatcher, fuse_patterns

from .._perf import measure_pair, skip_if_loaded

PATTERNS = ["ab{10}c", "x[0-9]{4}y", "zq"]
DATA = b"abbbbbbbbbbc x0123y zq padding " * 40
ROUNDS = 7


def _raw_fused_scan(matcher, data):
    """The un-wrapped baseline: FusedMatcher.feed from a fresh state."""
    matcher.reset()
    return matcher.feed(data)


def test_disabled_budgets_fused_overhead_within_bound():
    skip_if_loaded()
    assert not telemetry.enabled()
    ps = PatternSet(PATTERNS, engine="fused")
    assert ps.budget.unlimited()
    raw = FusedMatcher(fuse_patterns(ps.compiled))

    # Warm both paths (allocation, successor caches) before timing.
    ps.scan(DATA)
    _raw_fused_scan(raw, DATA)

    wrapped, baseline = measure_pair(
        lambda: ps.scan(DATA),
        lambda: _raw_fused_scan(raw, DATA),
        rounds=ROUNDS,
    )

    # The disabled path adds one budget test per feed call
    # (not per byte) plus Match construction; 1.15x leaves ample noise
    # margin and the epsilon guards very fast machines.
    assert wrapped <= baseline * 1.15 + 1e-3, (
        f"budget-disabled fused scan {wrapped * 1e3:.3f} ms vs raw fused "
        f"baseline {baseline * 1e3:.3f} ms"
    )


def test_wrapped_and_raw_agree():
    ps = PatternSet(PATTERNS, engine="fused")
    raw = FusedMatcher(fuse_patterns(ps.compiled))
    assert [(m.pattern_id, m.end) for m in ps.scan(DATA)] == _raw_fused_scan(
        raw, DATA
    )
