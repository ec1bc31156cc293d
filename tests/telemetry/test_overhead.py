"""Micro-overhead guard: disabled telemetry must be (nearly) free.

``PatternSet.feed`` keeps the pre-telemetry scan loop as its disabled
fast path, so scanning with telemetry off must stay within a small
factor of an un-instrumented copy of that loop timed in the same test
run (same machine, same load, interleaved samples).  The same contract
covers the flight recorder and the scan-path profiler: all three share
the per-call enablement check in ``PatternSet.feed``.
"""

from repro import telemetry
from repro.telemetry import flight, profiler
from repro.matching import PatternSet

from .._perf import measure_pair, skip_if_loaded

PATTERNS = ["ab{10}c", "x[0-9]{4}y", "zq"]
DATA = (b"abbbbbbbbbbc x0123y zq padding " * 40)
ROUNDS = 7


def _raw_scan(pattern_set, data):
    """The un-instrumented baseline: PatternSet.feed's original loop."""
    for matcher in pattern_set._matchers:
        matcher.reset()
    out = []
    matchers = pattern_set._matchers
    for offset, symbol in enumerate(data):
        for pattern_id, matcher in enumerate(matchers):
            if matcher.step(symbol):
                out.append((pattern_id, offset))
    return out


def test_disabled_scan_overhead_within_bound():
    skip_if_loaded()
    assert not telemetry.enabled()
    ps = PatternSet(PATTERNS, engine="ah")

    # Warm both paths (allocation, caches) before timing.
    ps.scan(DATA)
    _raw_scan(ps, DATA)

    instrumented, baseline = measure_pair(
        lambda: ps.scan(DATA),
        lambda: _raw_scan(ps, DATA),
        rounds=ROUNDS,
    )

    # The disabled path is the identical loop plus one enabled() check per
    # scan, so 1.15x leaves ample room for timer noise; the absolute
    # epsilon guards tiny workloads on very fast machines.
    assert instrumented <= baseline * 1.15 + 1e-3, (
        f"disabled-telemetry scan {instrumented * 1e3:.3f} ms vs "
        f"uninstrumented baseline {baseline * 1e3:.3f} ms"
    )


def test_scan_results_match_baseline():
    ps = PatternSet(PATTERNS, engine="ah")
    scanned = [(m.pattern_id, m.end) for m in ps.scan(DATA)]
    assert scanned == _raw_scan(ps, DATA)


def _raw_fused_scan(pattern_set, data):
    """Un-instrumented fused baseline: FusedMatcher.feed from scratch."""
    fused = pattern_set._fused
    fused.reset()
    return fused.feed(data)


def test_disabled_profiler_and_flight_overhead_within_bound():
    """With profiler + flight off, the fused scan is the identical loop
    plus the shared per-chunk enablement check."""
    skip_if_loaded()
    assert not telemetry.enabled()
    assert not flight.flight_enabled()
    assert not profiler.profiling_enabled()
    ps = PatternSet(PATTERNS, engine="fused")

    ps.scan(DATA)
    _raw_fused_scan(ps, DATA)

    instrumented, baseline = measure_pair(
        lambda: ps.scan(DATA),
        lambda: _raw_fused_scan(ps, DATA),
        rounds=ROUNDS,
    )

    assert instrumented <= baseline * 1.15 + 1e-3, (
        f"disabled-profiler/flight fused scan {instrumented * 1e3:.3f} ms "
        f"vs uninstrumented baseline {baseline * 1e3:.3f} ms"
    )
