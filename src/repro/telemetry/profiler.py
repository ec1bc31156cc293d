"""Scan-path profiler: sampled attribution for the fused hot loop.

The fused engine advances every pattern with one big-int step per byte,
which makes the usual telemetry counters blind to *which* patterns and
*which* input regions burn the cycles — exactly the per-tile activity
attribution BVAP (§6/§8) and CAMA use to make their energy case in
hardware.  This module is the software lens for the same question:

* **per-pattern activation share** — how much of the combined active
  bitset each pattern keeps hot (the patterns that defeat the lazy-DFA
  cache and dominate the big-int work);
* **per-pattern time attribution** — sampled step time split across the
  patterns active during the step;
* **lazy-DFA cache hit ratio over time** — a bounded series of
  (offset, hits, misses) points showing warm-up and thrash;
* **active-state-density heatmap over input offsets** — which byte
  regions of the input light the automaton up;
* **per-byte-class stepping cost** — the 256 input symbols grouped into
  transition-equivalence classes (identical fused match masks), each
  with its sampled mean step cost.

Sampling happens every ``stride`` bytes: the stretches between samples
go through the matcher's own
:meth:`~repro.matching.fused.FusedMatcher.feed`, and each sampled byte
costs one timed step plus an O(num_patterns) mask decomposition.  That
is far from free, because each ``stride - 1``-byte feed arms the
prefilter's end-of-chunk tail window again, so most of the skipped and
unarmed bytes that carry a plain scan are lost.  At the default stride
of 64, 256 KiB scans on a 2-vCPU host read 4.6-6.4x slower than a
plain scan on RegexLib-64 and 11-19x slower on RegexLib-16 (best of 5
repeats, five runs), whose plain scan skips 99% of its bytes (17% when
profiled, with 80% armed).
Profile to see where a scan's time goes, not to time it.  When no
profiler is active the engines never reach this module: the scan path
pays only the single ``profiling_enabled()`` check it already shares
with telemetry, and the disabled-overhead guard covers it.

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

from .._bits import popcount
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Default sampling stride in bytes: a 16 KiB input is sampled 256
#: times, plenty for shares and heatmaps.  The profiled scan runs several
#: times slower than a plain one (see the module docstring).
DEFAULT_STRIDE = 64

#: Default number of offset buckets in the activation heatmap.
DEFAULT_HEATMAP_BUCKETS = 64

#: Cache-ratio series points are decimated 2:1 whenever they exceed
#: this bound, so profiles stay small on huge inputs.
MAX_SERIES_POINTS = 512

PROFILE_VERSION = 1


def byte_class_ids(match_masks: Sequence[int]) -> Tuple[List[int], int]:
    """Group the 256 symbols into transition-equivalence classes.

    Two bytes belong to the same class iff they select the same fused
    match mask — they are indistinguishable to the automaton, so their
    stepping cost is pooled.  Returns ``(class_of_byte, num_classes)``
    with class ids assigned in first-appearance order.
    """
    ids: Dict[int, int] = {}
    out: List[int] = []
    for mask in match_masks:
        class_id = ids.get(mask)
        if class_id is None:
            class_id = ids[mask] = len(ids)
        out.append(class_id)
    return out, len(ids)


def _byte_ranges(values: Sequence[int], limit: int = 6) -> str:
    """Compact human label for a set of byte values (``"a-z,0-9"``)."""

    def show(b: int) -> str:
        if 0x21 <= b <= 0x7E:
            return chr(b)
        return f"\\x{b:02x}"

    ranges: List[Tuple[int, int]] = []
    for value in sorted(values):
        if ranges and value == ranges[-1][1] + 1:
            ranges[-1] = (ranges[-1][0], value)
        else:
            ranges.append((value, value))
    parts = [
        show(lo) if lo == hi else f"{show(lo)}-{show(hi)}"
        for lo, hi in ranges[:limit]
    ]
    if len(ranges) > limit:
        parts.append("...")
    return ",".join(parts)


@dataclass
class ScanProfile:
    """One profiling run, JSON-serialisable (the ``ScanProfile`` artifact).

    ``patterns`` rows are sorted by descending ``activation_share`` —
    the first row is the pattern that keeps the combined bitset hottest.
    ``activation_share`` and ``time_share`` each sum to ~1.0 whenever
    any state was ever active.
    """

    engine: str
    stride: int
    input_bytes: int
    samples: int
    wall_s: float
    patterns: List[Dict[str, Any]] = field(default_factory=list)
    cache: Dict[str, Any] = field(default_factory=dict)
    heatmap: Dict[str, Any] = field(default_factory=dict)
    byte_classes: List[Dict[str, Any]] = field(default_factory=list)
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
            "byte_classes": self.byte_classes,
            "stepping": self.stepping,
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "ScanProfile":
        return cls(
            engine=obj.get("engine", "fused"),
            stride=obj["stride"],
            input_bytes=obj["input_bytes"],
            samples=obj["samples"],
            wall_s=obj.get("wall_s", 0.0),
            patterns=list(obj.get("patterns", [])),
            cache=dict(obj.get("cache", {})),
            heatmap=dict(obj.get("heatmap", {})),
            byte_classes=list(obj.get("byte_classes", [])),
            stepping=dict(obj.get("stepping", {})),
        )


def load_profile(path: str) -> ScanProfile:
    with open(path) as handle:
        return ScanProfile.from_json(json.load(handle))


class _Binding:
    """Per-matcher profiling state (one per fused automaton observed).

    The profiler can observe several matchers in one run — the inline
    sharded backend runs one fused matcher per shard over the same
    input — so per-pattern tallies key on *global* pattern ids while
    byte-class tables stay per binding (class ids are automaton-local).
    """

    __slots__ = (
        "automaton", "label", "slices", "slot_ids", "class_of_byte",
        "num_classes", "class_us", "class_samples", "offset",
        "last_hits", "last_misses", "last_table_s", "last_bitset_s",
        "last_table_steps", "last_bitset_steps", "last_skipped",
        "last_armed",
    )

    def __init__(self, matcher, slot_ids: Sequence[int], label: str) -> None:
        automaton = matcher.fused
        self.automaton = automaton
        self.label = label
        self.slices = [
            automaton.pattern_slice(slot)
            for slot in range(automaton.num_patterns)
        ]
        self.slot_ids = list(slot_ids)
        self.class_of_byte, self.num_classes = byte_class_ids(
            matcher._match_masks
        )
        self.class_us = [0.0] * self.num_classes
        self.class_samples = [0] * self.num_classes
        self.offset = 0
        self.last_hits = matcher.cache_hits
        self.last_misses = matcher.cache_misses
        self.last_table_s = getattr(matcher, "table_seconds", 0.0)
        self.last_bitset_s = getattr(matcher, "bitset_seconds", 0.0)
        self.last_table_steps = getattr(matcher, "table_steps", 0)
        self.last_bitset_steps = getattr(matcher, "bitset_steps", 0)
        self.last_skipped = getattr(matcher, "prefilter_skipped", 0)
        self.last_armed = getattr(matcher, "prefilter_armed", 0)


class ScanProfiler:
    """Collects sampled attribution while the engines feed through it.

    The engine-facing API is :meth:`feed` — a drop-in replacement for
    :meth:`FusedMatcher.feed` that samples every ``stride`` bytes — plus
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
        # global pattern id -> [active_sum, time_us, peak, samples_active]
        self._pattern: Dict[int, List[float]] = {}
        self._heat_sum: List[float] = []
        self._heat_n: List[int] = []
        self._series: List[List[float]] = []  # [offset, hits, misses]
        self._series_every = 1
        self._series_countdown = 1
        self.samples = 0
        self.wall_s = 0.0
        self._idle_us = 0.0
        self._sampled_us = 0.0
        # Run-wide tier accounting, folded in from each matcher's own
        # counters (deltas per feed, so rebuilt matchers don't double).
        self._stepping: Dict[str, float] = {
            "table_s": 0.0,
            "bitset_s": 0.0,
            "steps_table": 0,
            "steps_bitset": 0,
            "skipped_bytes": 0,
            "armed_bytes": 0,
        }

    # -- engine-facing API ---------------------------------------------

    def bind(self, matcher, slot_ids: Sequence[int], label: str = "fused") -> _Binding:
        """Register ``matcher`` (idempotent; re-binds after a rebuild,
        e.g. a degradation re-fuse, preserving accumulated tallies)."""
        key = id(matcher.fused)
        binding = self._bindings.get(key)
        if binding is None or binding.automaton is not matcher.fused:
            with self._lock:
                binding = _Binding(matcher, slot_ids, label)
                self._bindings[key] = binding
        return binding

    def feed(self, matcher, data: bytes, slot_ids: Sequence[int],
             label: str = "fused") -> List[Tuple[int, int]]:
        """Profiled :meth:`FusedMatcher.feed`: identical match stream,
        sampled attribution on the side.

        The stretches *between* sampled bytes are delegated to
        ``matcher.feed`` so they take the matcher's real tier path
        (prefilter skip loop, dense table, or bitset stepping) and the
        profile's tier shares reflect production behaviour.  Only the
        sampled byte itself is stepped here — on anchor-free automata
        through the fully-armed ``matcher._advance`` (sound because
        arming start states at extra positions only adds partials that
        die or re-derive the same matches; NFA set semantics dedupe
        them), on anchored automata through a one-byte ``matcher.feed``
        (the gated path owns the offset-0 start step, seam dedup, and
        end-of-input candidate bookkeeping, and byte-at-a-time feeding
        is stream-exact by the streaming property) — so the match
        stream stays byte-identical to an unprofiled feed either way.

        Returns ``(slot, end)`` events exactly as ``matcher.feed`` does;
        the caller maps slots to global pattern ids as usual.
        """
        binding = self.bind(matcher, slot_ids, label)
        out: List[Tuple[int, int]] = []
        stride = self.stride
        clock = time.perf_counter
        gated = matcher.fused.anchored
        # Bytes until (and including) the next sampled byte; recomputed
        # from the persistent offset so sampling stays periodic across
        # chunk boundaries.
        countdown = stride - (binding.offset % stride)
        started = clock()
        n = len(data)
        pos = 0
        while pos < n:
            sample_at = pos + countdown - 1
            if sample_at >= n:
                for slot, end in matcher.feed(data[pos:]):
                    out.append((slot, pos + end))
                break
            if sample_at > pos:
                for slot, end in matcher.feed(data[pos:sample_at]):
                    out.append((slot, pos + end))
            symbol = data[sample_at]
            if gated:
                t0 = clock()
                events = matcher.feed(data[sample_at : sample_at + 1])
                step_us = (clock() - t0) * 1e6
                active = matcher.active
                # A \b confirm event carries end == -1 (the previous
                # byte); rebasing keeps that exact, -1 only surviving
                # when the seam is this profiled chunk's own start.
                for slot, end in events:
                    out.append((slot, sample_at + end))
            else:
                t0 = clock()
                active, report, report_adj = matcher._advance(
                    matcher.active, symbol
                )
                step_us = (clock() - t0) * 1e6
                matcher.active = active
                for slot in report:
                    out.append((slot, sample_at))
                for slot in report_adj:  # pragma: no cover - gated only
                    out.append((slot, sample_at - 1))
            self._sample(
                matcher, binding, active, symbol, step_us,
                binding.offset + sample_at,
            )
            pos = sample_at + 1
            countdown = stride
        binding.offset += n
        binding.last_hits = matcher.cache_hits
        binding.last_misses = matcher.cache_misses
        self._absorb_stepping(matcher, binding)
        self.wall_s += clock() - started
        return out

    def _absorb_stepping(self, matcher, binding: _Binding) -> None:
        """Fold the matcher's tier counters into the run-wide totals,
        as deltas since this binding's last feed."""
        table_s = getattr(matcher, "table_seconds", 0.0)
        bitset_s = getattr(matcher, "bitset_seconds", 0.0)
        table_steps = getattr(matcher, "table_steps", 0)
        bitset_steps = getattr(matcher, "bitset_steps", 0)
        skipped = getattr(matcher, "prefilter_skipped", 0)
        armed = getattr(matcher, "prefilter_armed", 0)
        with self._lock:
            step = self._stepping
            step["table_s"] += table_s - binding.last_table_s
            step["bitset_s"] += bitset_s - binding.last_bitset_s
            step["steps_table"] += table_steps - binding.last_table_steps
            step["steps_bitset"] += bitset_steps - binding.last_bitset_steps
            step["skipped_bytes"] += skipped - binding.last_skipped
            step["armed_bytes"] += armed - binding.last_armed
        binding.last_table_s = table_s
        binding.last_bitset_s = bitset_s
        binding.last_table_steps = table_steps
        binding.last_bitset_steps = bitset_steps
        binding.last_skipped = skipped
        binding.last_armed = armed

    # -- sampling -------------------------------------------------------

    def _sample(
        self, matcher, binding: _Binding, active: int, symbol: int,
        step_us: float, abs_offset: int,
    ) -> None:
        with self._lock:
            self.samples += 1
            self._sampled_us += step_us
            # Per-byte-class stepping cost (automaton-local classes).
            class_id = binding.class_of_byte[symbol]
            binding.class_us[class_id] += step_us
            binding.class_samples[class_id] += 1
            # Per-pattern activation and time attribution.
            total_active = 0
            widths: List[Tuple[int, int]] = []  # (pattern_id, width)
            for slot, (low, high) in enumerate(binding.slices):
                width = popcount((active >> low) & ((1 << (high - low)) - 1))
                if width:
                    total_active += width
                    widths.append((binding.slot_ids[slot], width))
            for pattern_id, width in widths:
                row = self._pattern.get(pattern_id)
                if row is None:
                    row = self._pattern[pattern_id] = [0.0, 0.0, 0.0, 0]
                row[0] += width
                row[1] += step_us * (width / total_active)
                if width > row[2]:
                    row[2] = width
                row[3] += 1
            if not widths:
                self._idle_us += step_us
            # Offset heatmap (offsets are per-binding; in the inline
            # sharded case every binding walks the same input, so the
            # buckets line up and densities add).
            bucket = abs_offset // self.bucket_bytes
            while bucket >= len(self._heat_sum):
                self._heat_sum.append(0.0)
                self._heat_n.append(0)
            self._heat_sum[bucket] += total_active
            self._heat_n[bucket] += 1
            # Cache-ratio series (decimated to stay bounded).
            self._series_countdown -= 1
            if self._series_countdown <= 0:
                self._series_countdown = self._series_every
                hits = sum(
                    b.last_hits for b in self._bindings.values()
                    if b is not binding
                ) + matcher.cache_hits
                misses = sum(
                    b.last_misses for b in self._bindings.values()
                    if b is not binding
                ) + matcher.cache_misses
                binding.last_hits = matcher.cache_hits
                binding.last_misses = matcher.cache_misses
                self._series.append(
                    [float(abs_offset), float(hits), float(misses)]
                )
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
            hits = sum(
                b.last_hits for b in self._bindings.values()
            )
            misses = sum(
                b.last_misses for b in self._bindings.values()
            )
            cache = {
                "hits": hits,
                "misses": misses,
                "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "series": series,
            }

            density = [
                s / n if n else 0.0
                for s, n in zip(self._heat_sum, self._heat_n)
            ]
            heatmap = {"bucket_bytes": self.bucket_bytes, "density": density}

            classes: List[Dict[str, Any]] = []
            for binding in self._bindings.values():
                members: Dict[int, List[int]] = {}
                for byte, class_id in enumerate(binding.class_of_byte):
                    members.setdefault(class_id, []).append(byte)
                for class_id in range(binding.num_classes):
                    sampled = binding.class_samples[class_id]
                    if not sampled:
                        continue
                    total = binding.class_us[class_id]
                    classes.append(
                        {
                            "scope": binding.label,
                            "class_id": class_id,
                            "members": len(members[class_id]),
                            "example": _byte_ranges(members[class_id]),
                            "sampled": sampled,
                            "total_us": round(total, 3),
                            "mean_us": round(total / sampled, 4),
                        }
                    )
            classes.sort(key=lambda c: -c["total_us"])

            table_s = self._stepping["table_s"]
            bitset_s = self._stepping["bitset_s"]
            tier_total = table_s + bitset_s
            stepping = {
                "table_s": round(table_s, 6),
                "bitset_s": round(bitset_s, 6),
                "sampled_s": round(self._sampled_us / 1e6, 6),
                "table_share": table_s / tier_total if tier_total else 0.0,
                "bitset_share": bitset_s / tier_total if tier_total else 0.0,
                "steps_table": int(self._stepping["steps_table"]),
                "steps_bitset": int(self._stepping["steps_bitset"]),
                "skipped_bytes": int(self._stepping["skipped_bytes"]),
                "armed_bytes": int(self._stepping["armed_bytes"]),
            }

            input_bytes = max(
                (b.offset for b in self._bindings.values()), default=0
            )
            return ScanProfile(
                engine=engine,
                stride=self.stride,
                input_bytes=input_bytes,
                samples=self.samples,
                wall_s=round(self.wall_s, 6),
                patterns=rows,
                cache=cache,
                heatmap=heatmap,
                byte_classes=classes,
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
