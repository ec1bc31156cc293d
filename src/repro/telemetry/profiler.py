"""Scan-path profiler: sampled attribution for the fused hot loop.

The fused engine advances every pattern with one big-int step per byte,
which makes the usual telemetry counters blind to *which* patterns and
*which* input regions burn the cycles — exactly the per-tile activity
attribution BVAP (§6/§8) and CAMA use to make their energy case in
hardware.  This module is the software lens for the same question:

* **per-pattern activation share** — how much of the combined active
  bitset each pattern keeps hot (the patterns that defeat the lazy-DFA
  cache and dominate the big-int work);
* **per-pattern time attribution** — the scan time between two probes
  split across the patterns active at the later one;
* **memo hit ratio over time** — a bounded series of (offset, hits,
  misses) points of the memo that served the bytes, the dense table
  plus the bitset tier's LRU, showing warm-up and thrash;
* **active-state-density heatmap over input offsets** — which byte
  regions of the input light the automaton up.

:meth:`ScanProfiler.feed` hands each chunk to the matcher's own
:meth:`~repro.matching.fused.FusedMatcher.feed` once, with a probe
installed: the matcher's walk cuts its segments after every
``stride``-th stream byte, passes the activation there to the probe, and
resumes with the same injection.  Cutting a segment and resuming from
the same activation is exact, as a chunk seam is (the
simultaneous-automata argument), so a profiled scan steps the same bytes
on the same tiers, and leaves the same
:meth:`~repro.matching.fused.FusedMatcher.counters`, as a plain one.  A
``deadline_s`` budget's clock checks cut the same walk, so the two
compose.  The extra cost is the pieces and one decomposition
per probe, a step per live state: at the default stride of 64, 256 KiB
scans on a 2-vCPU host read 1.4-2.2x (RegexLib-64) and 1.8-2.7x
(RegexLib-16, whose plain scan skips 99% of its bytes) the time of a
plain scan (best of 5 scans, three runs).  When no profiler is active the
engines never reach this module: the scan path pays only the single
``profiling_enabled()`` check it already shares with telemetry, and the
matcher one ``_probe`` test per feed.

Typical use (the ``profile`` CLI verb wraps exactly this)::

    from repro.telemetry import profiler

    with profiler.profile_session(stride=64, input_len=len(data)) as prof:
        ps = PatternSet(patterns, engine="fused")
        ps.scan(data)
    profile = prof.finish(patterns={i: p for i, p in enumerate(patterns)})
    profile.write("profile.json")
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Default sampling stride in bytes: a 16 KiB input is probed 256
#: times, plenty for shares and heatmaps.  Each probe cuts a segment and
#: decomposes the activation per pattern, so a smaller stride costs
#: more (see the module docstring).
DEFAULT_STRIDE = 64

#: Default number of offset buckets in the activation heatmap.
DEFAULT_HEATMAP_BUCKETS = 64

#: Memo series points are decimated 2:1 whenever they exceed this
#: bound, so profiles stay small on huge inputs.
MAX_SERIES_POINTS = 512

#: v2 dropped ``byte_classes`` and counts the dense table in ``cache``.
PROFILE_VERSION = 2


def _memo_counts(record: Mapping[str, float]) -> Tuple[float, float]:
    """Hits and misses of the memo that served the bytes in a counter
    record: the dense table's plus the bitset tier's LRU."""
    return (
        record.get("table_hits", 0) + record.get("cache_hits", 0),
        record.get("table_misses", 0) + record.get("cache_misses", 0),
    )


@dataclass
class ScanProfile:
    """One profiling run, JSON-serialisable (the ``ScanProfile`` artifact).

    ``patterns`` rows are sorted by descending ``activation_share`` —
    the first row is the pattern that keeps the combined bitset hottest.
    ``activation_share`` and ``time_share`` each sum to ~1.0 whenever
    any probe saw a live state.
    """

    engine: str
    stride: int
    input_bytes: int
    samples: int
    wall_s: float
    patterns: List[Dict[str, Any]] = field(default_factory=list)
    cache: Dict[str, Any] = field(default_factory=dict)
    heatmap: Dict[str, Any] = field(default_factory=dict)
    stepping: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": PROFILE_VERSION,
            "artifact": "ScanProfile",
            "engine": self.engine,
            "stride": self.stride,
            "input_bytes": self.input_bytes,
            "samples": self.samples,
            "wall_s": self.wall_s,
            "patterns": self.patterns,
            "cache": self.cache,
            "heatmap": self.heatmap,
            "stepping": self.stepping,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "ScanProfile":
        """Load a v2 artifact, or a v1 one without its ``byte_classes``."""
        return cls(
            engine=obj.get("engine", "fused"),
            stride=obj["stride"],
            input_bytes=obj["input_bytes"],
            samples=obj["samples"],
            wall_s=obj.get("wall_s", 0.0),
            patterns=list(obj.get("patterns", [])),
            cache=dict(obj.get("cache", {})),
            heatmap=dict(obj.get("heatmap", {})),
            stepping=dict(obj.get("stepping", {})),
        )


def load_profile(path: str) -> ScanProfile:
    with open(path) as handle:
        return ScanProfile.from_json(json.load(handle))


def _tier_record(matcher) -> Dict[str, float]:
    """``matcher``'s counter record plus its two tier clocks."""
    return dict(
        matcher.counters(),
        table_s=matcher.table_seconds,
        bitset_s=matcher.bitset_seconds,
    )


class _Binding:
    """Per-matcher profiling state (one per fused matcher observed).

    The profiler can observe several matchers in one run — the inline
    sharded backend runs one fused matcher per shard over the same
    input, and a rebuilt set swaps in a new one — so per-pattern tallies
    key on *global* pattern ids.  A binding keeps its matcher alive for
    the profiler's lifetime, so the profile counts a replaced matcher's
    work too.
    """

    __slots__ = ("matcher", "owners", "slot_ids", "carry_s", "first")

    def __init__(self, matcher, slot_ids: Sequence[int]) -> None:
        self.matcher = matcher
        self.slot_ids = list(slot_ids)
        #: Global pattern id owning each combined state.
        self.owners = [
            self.slot_ids[slot] for slot in matcher.fused.state_pattern
        ]
        #: Scan time since the last probe, carried into the next feed.
        self.carry_s = 0.0
        #: The tier record when bound; the profile counts the growth.
        self.first = _tier_record(matcher)


class ScanProfiler:
    """Collects sampled attribution while the engines feed through it.

    The engine-facing API is :meth:`feed` — a drop-in replacement for
    :meth:`FusedMatcher.feed` that probes every ``stride`` bytes — plus
    :meth:`bind` to register a matcher.  :meth:`finish` freezes the run
    into a :class:`ScanProfile`.
    """

    def __init__(
        self,
        stride: int = DEFAULT_STRIDE,
        input_len: Optional[int] = None,
        heatmap_buckets: int = DEFAULT_HEATMAP_BUCKETS,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if heatmap_buckets < 1:
            raise ValueError("heatmap_buckets must be >= 1")
        self.stride = stride
        if input_len:
            self.bucket_bytes = max(1, -(-input_len // heatmap_buckets))
        else:
            self.bucket_bytes = max(self.stride, 1) * 64
        self._lock = threading.Lock()
        self._bindings: Dict[int, _Binding] = {}
        #: Stream bytes fed under each label, across matcher rebuilds.
        self._offsets: Dict[str, int] = {}
        # global pattern id -> [active_sum, time_us, peak, samples_active]
        self._pattern: Dict[int, List[float]] = {}
        self._heat_sum: List[float] = []
        self._heat_n: List[int] = []
        self._series: List[List[float]] = []  # [offset, hits, misses]
        self._series_every = 1
        self._series_countdown = 1
        self.samples = 0
        self.wall_s = 0.0
        self._sampled_us = 0.0

    # -- engine-facing API ---------------------------------------------

    def bind(self, matcher, slot_ids: Sequence[int]) -> _Binding:
        """Register ``matcher`` (idempotent).  A rebuilt matcher, after
        an incremental add or remove, gets a binding of its own; its
        feeds continue the stream offset of their label."""
        binding = self._bindings.get(id(matcher))
        if binding is None:
            with self._lock:
                binding = self._bindings[id(matcher)] = _Binding(
                    matcher, slot_ids
                )
        return binding

    def feed(self, matcher, data: bytes, slot_ids: Sequence[int],
             label: str = "fused") -> List[Tuple[int, int]]:
        """Profiled :meth:`FusedMatcher.feed`: one ``matcher.feed(data)``
        with a probe on every ``stride``-th byte of the stream under
        ``label``, so the match stream, the tiers that serve each byte
        and the matcher's counters are those of an unprofiled feed.

        Each probe reads the activation the matcher left on its byte and
        attributes the scan time since the previous probe by it.
        Returns ``(slot, end)`` events exactly as ``matcher.feed`` does;
        the caller maps slots to global pattern ids as usual.
        """
        binding = self.bind(matcher, slot_ids)
        stride = self.stride
        base = self._offsets.get(label, 0)
        clock = time.perf_counter
        started = clock()
        mark = started - binding.carry_s

        def probe(offset: int, active: int) -> None:
            nonlocal mark
            self._sample(binding, active, clock() - mark, base + offset)
            mark = clock()

        matcher._probe = ((stride - 1 - base) % stride, stride, probe)
        try:
            out = matcher.feed(data)
        finally:
            matcher._probe = None
        binding.carry_s = clock() - mark
        self._offsets[label] = base + len(data)
        self.wall_s += clock() - started
        return out

    def _growth(self) -> Dict[str, float]:
        """Run-wide tier record growth, summed over the bound matchers."""
        totals: Dict[str, float] = {}
        for binding in self._bindings.values():
            for key, value in _tier_record(binding.matcher).items():
                totals[key] = totals.get(key, 0) + value - binding.first[key]
        return totals

    # -- sampling -------------------------------------------------------

    def _sample(
        self, binding: _Binding, active: int, elapsed_s: float,
        abs_offset: int,
    ) -> None:
        """Fold one probe: the activation ``active`` on stream byte
        ``abs_offset``, reached ``elapsed_s`` of scanning after the
        previous probe."""
        elapsed_us = elapsed_s * 1e6
        with self._lock:
            self.samples += 1
            self._sampled_us += elapsed_us
            # Per-pattern activation and time attribution, one step per
            # live state (activations are sparse).
            widths: Dict[int, int] = {}
            owners = binding.owners
            while active:
                low = active & -active
                pattern_id = owners[low.bit_length() - 1]
                widths[pattern_id] = widths.get(pattern_id, 0) + 1
                active ^= low
            total_active = sum(widths.values())
            for pattern_id, width in widths.items():
                row = self._pattern.get(pattern_id)
                if row is None:
                    row = self._pattern[pattern_id] = [0.0, 0.0, 0.0, 0]
                row[0] += width
                row[1] += elapsed_us * (width / total_active)
                if width > row[2]:
                    row[2] = width
                row[3] += 1
            # Offset heatmap (offsets are per-label; in the inline
            # sharded case every shard walks the same input, so the
            # buckets line up and densities add).
            bucket = abs_offset // self.bucket_bytes
            while bucket >= len(self._heat_sum):
                self._heat_sum.append(0.0)
                self._heat_n.append(0)
            self._heat_sum[bucket] += total_active
            self._heat_n[bucket] += 1
            # Memo series (decimated to stay bounded).
            self._series_countdown -= 1
            if self._series_countdown <= 0:
                self._series_countdown = self._series_every
                hits, misses = _memo_counts(self._growth())
                self._series.append([float(abs_offset), hits, misses])
                if len(self._series) > MAX_SERIES_POINTS:
                    self._series = self._series[::2]
                    self._series_every *= 2

    # -- finalisation ---------------------------------------------------

    def finish(
        self,
        patterns: Optional[Mapping[int, str]] = None,
        engine: str = "fused",
    ) -> ScanProfile:
        """Freeze the run into a :class:`ScanProfile`.

        ``patterns`` optionally maps pattern ids to their source text so
        the artifact is self-describing.  Patterns that were bound but
        never active still appear, with zero share.
        """
        with self._lock:
            known = set(self._pattern)
            for binding in self._bindings.values():
                known.update(binding.slot_ids)
            total_active = sum(row[0] for row in self._pattern.values())
            total_us = sum(row[1] for row in self._pattern.values())
            rows: List[Dict[str, Any]] = []
            for pattern_id in sorted(known):
                row = self._pattern.get(pattern_id, [0.0, 0.0, 0.0, 0])
                entry: Dict[str, Any] = {
                    "pattern_id": pattern_id,
                    "activation_share": (
                        row[0] / total_active if total_active else 0.0
                    ),
                    "time_share": row[1] / total_us if total_us else 0.0,
                    "sampled_time_us": round(row[1], 3),
                    "mean_active": row[0] / row[3] if row[3] else 0.0,
                    "peak_active": int(row[2]),
                    "samples_active": row[3],
                }
                if patterns is not None and pattern_id in patterns:
                    entry["pattern"] = patterns[pattern_id]
                rows.append(entry)
            rows.sort(key=lambda r: (-r["activation_share"], r["pattern_id"]))

            series = [
                {
                    "offset": int(offset),
                    "hits": int(hits),
                    "misses": int(misses),
                    "hit_ratio": (
                        hits / (hits + misses) if hits + misses else 0.0
                    ),
                }
                for offset, hits, misses in self._series
            ]
            growth = self._growth()
            hits, misses = _memo_counts(growth)
            cache = {
                "hits": int(hits),
                "misses": int(misses),
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "series": series,
            }

            density = [
                s / n if n else 0.0
                for s, n in zip(self._heat_sum, self._heat_n)
            ]
            heatmap = {"bucket_bytes": self.bucket_bytes, "density": density}

            table_s = growth.get("table_s", 0.0)
            bitset_s = growth.get("bitset_s", 0.0)
            tier_total = table_s + bitset_s
            stepping = {
                "table_s": round(table_s, 6),
                "bitset_s": round(bitset_s, 6),
                "sampled_s": round(self._sampled_us / 1e6, 6),
                "table_share": table_s / tier_total if tier_total else 0.0,
                "bitset_share": bitset_s / tier_total if tier_total else 0.0,
                "steps_table": int(growth.get("steps_table", 0)),
                "steps_bitset": int(growth.get("steps_bitset", 0)),
                "skipped_bytes": int(growth.get("skipped_bytes", 0)),
                "armed_bytes": int(growth.get("armed_bytes", 0)),
            }

            return ScanProfile(
                engine=engine,
                stride=self.stride,
                input_bytes=max(self._offsets.values(), default=0),
                samples=self.samples,
                wall_s=round(self.wall_s, 6),
                patterns=rows,
                cache=cache,
                heatmap=heatmap,
                stepping=stepping,
            )


# ---------------------------------------------------------------------------
# Module-global profiler (the facade the engines check)
# ---------------------------------------------------------------------------

_active: Optional[ScanProfiler] = None


def profiling_enabled() -> bool:
    """True when a profiler is active — the engine-side gate."""
    return _active is not None


def active_profiler() -> Optional[ScanProfiler]:
    return _active


def start_profile(
    stride: int = DEFAULT_STRIDE,
    input_len: Optional[int] = None,
    heatmap_buckets: int = DEFAULT_HEATMAP_BUCKETS,
) -> ScanProfiler:
    """Install a fresh global profiler and return it."""
    global _active
    _active = ScanProfiler(
        stride=stride, input_len=input_len, heatmap_buckets=heatmap_buckets
    )
    return _active


def stop_profile() -> Optional[ScanProfiler]:
    """Deactivate and return the current profiler (if any)."""
    global _active
    profiler, _active = _active, None
    return profiler


@contextmanager
def profile_session(
    stride: int = DEFAULT_STRIDE,
    input_len: Optional[int] = None,
    heatmap_buckets: int = DEFAULT_HEATMAP_BUCKETS,
) -> Iterator[ScanProfiler]:
    """Activate a profiler for a ``with`` block::

        with profiler.profile_session(stride=64) as prof:
            PatternSet(patterns, engine="fused").scan(data)
        profile = prof.finish()
    """
    profiler = start_profile(
        stride=stride, input_len=input_len, heatmap_buckets=heatmap_buckets
    )
    try:
        yield profiler
    finally:
        stop_profile()
