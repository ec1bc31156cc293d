"""Flight recorder: a bounded ring buffer of recent engine events.

When a scan fails — a :class:`~repro.resilience.errors.ReproError`, a
shard worker dying mid-stream, a fault-injection campaign diverging —
the metrics snapshot says *how much* happened but not *what the engine
was doing right before*.  The flight recorder closes that gap the way
an aircraft recorder does: a fixed-size ring of the most recent engine
events (scan chunk closures, match summaries, quarantine decisions,
shard failures and recoveries, budget transitions) plus the last
engine-state snapshot, dumped to a deterministic JSON *postmortem* the
moment something goes wrong.

Design rules, mirrored from the rest of :mod:`repro.telemetry`:

* **off by default, one check when off** — every producer call site
  gates on :func:`flight_enabled` (a module-global boolean read), so
  the disabled hot path costs nothing beyond the check it already pays
  for metrics;
* **bounded** — the ring holds :data:`DEFAULT_CAPACITY` events
  (``collections.deque(maxlen=...)``); recording never allocates beyond
  it, so the recorder is safe to leave on in long-running scans;
* **deterministic** — event payloads carry only deterministic engine
  facts; wall-clock values live in the dedicated keys listed in
  :data:`TIMING_KEYS` so two identical failing runs produce
  byte-identical postmortems once those keys are stripped (a test
  enforces this).

Typical wiring (the CLI's ``--flight-dir`` does all of this)::

    from repro.telemetry import flight

    flight.enable(dump_dir="flight-dumps")
    try:
        matches = pattern_set.scan(data)
    except ReproError as error:
        path = flight.auto_dump("scan_error", error=error)
        ...

The sharded orchestrator and the fault-injection harness call
:func:`auto_dump` themselves on shard failure / divergence, so with a
dump dir configured every failure leaves a postmortem behind without
any caller cooperation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

#: Ring capacity: enough to cover the tail of a large scan (every chunk
#: closure plus the failure cascade) while keeping dumps small.
DEFAULT_CAPACITY = 256

#: JSON keys whose values are wall-clock readings and therefore exempt
#: from the byte-identical determinism contract.  Everything else in a
#: postmortem must be reproducible run-to-run.
TIMING_KEYS = ("wall_s", "dumped_at_s", "elapsed_s", "busy_s")

#: Postmortem document version, bumped on shape changes.
POSTMORTEM_VERSION = 1

#: Default cap on ``flight-*.json`` files kept per dump directory.  A
#: crash-looping worker (or a long chaos campaign) dumps a postmortem
#: per failure; without a cap the dump dir grows without bound.  Oldest
#: files rotate out first; ``None`` disables rotation.
DEFAULT_MAX_DUMPS = 64


def strip_timing(obj: Any) -> Any:
    """A deep copy of ``obj`` with every :data:`TIMING_KEYS` key removed.

    The determinism tests (and any tooling that diffs postmortems)
    compare ``strip_timing(dump_a) == strip_timing(dump_b)``.
    """
    if isinstance(obj, dict):
        return {
            key: strip_timing(value)
            for key, value in obj.items()
            if key not in TIMING_KEYS
        }
    if isinstance(obj, list):
        return [strip_timing(item) for item in obj]
    return obj


class FlightRecorder:
    """Bounded event ring with deterministic postmortem dumps.

    Producers call :meth:`record` (one event) and :meth:`note_state`
    (overwrite the "last known engine state" slot); consumers call
    :meth:`postmortem` for the document or :meth:`dump` to write it.
    All methods are thread-safe; the ring is shared across engines in
    one process, which is exactly what a postmortem wants (compile,
    scan, and resilience events interleaved in causal order).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: Optional[str] = None,
        max_dumps: Optional[int] = DEFAULT_MAX_DUMPS,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if max_dumps is not None and max_dumps < 1:
            raise ValueError("max_dumps must be >= 1 or None")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.max_dumps = max_dumps
        self._lock = threading.Lock()
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = 0
        self._dump_seq = 0
        self._last_state: Optional[Dict[str, Any]] = None

    # -- producer side --------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event to the ring.

        ``fields`` must be JSON-serialisable and deterministic; put
        wall-clock values only under keys in :data:`TIMING_KEYS`.
        """
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "kind": kind, "wall_s": time.time()}
            event.update(fields)
            self._events.append(event)

    def note_state(self, **state: Any) -> None:
        """Overwrite the last-engine-state snapshot (not a ring event).

        Called at chunk boundaries so the postmortem always carries the
        most recent activation/cache picture even when the ring has
        rolled over.
        """
        with self._lock:
            self._last_state = dict(state)

    # -- consumer side --------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(e) for e in self._events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._dump_seq = 0
            self._last_state = None

    def postmortem(
        self, reason: str, error: Optional[BaseException] = None
    ) -> Dict[str, Any]:
        """The deterministic postmortem document (JSON-serialisable)."""
        with self._lock:
            events = [dict(e) for e in self._events]
            last_state = dict(self._last_state) if self._last_state else None
            total = self._seq
        error_obj: Optional[Dict[str, Any]] = None
        if error is not None:
            to_json = getattr(error, "to_json", None)
            if callable(to_json):
                error_obj = to_json()
            else:
                error_obj = {
                    "code": "E_UNSTRUCTURED",
                    "type": type(error).__name__,
                    "message": str(error),
                }
        return {
            "version": POSTMORTEM_VERSION,
            "reason": reason,
            "error": error_obj,
            "capacity": self.capacity,
            "events_recorded": total,
            "events": events,
            "last_engine_state": last_state,
            "dumped_at_s": time.time(),
        }

    def dump(
        self,
        reason: str,
        error: Optional[BaseException] = None,
        path: Optional[str] = None,
    ) -> str:
        """Write the postmortem to ``path`` (default: a numbered file in
        :attr:`dump_dir`) and return the path written."""
        if path is None:
            if self.dump_dir is None:
                raise ValueError("no dump path and no dump_dir configured")
            os.makedirs(self.dump_dir, exist_ok=True)
            with self._lock:
                self._dump_seq += 1
                index = self._dump_seq
            safe = "".join(
                c if c.isalnum() or c in "-_" else "_" for c in reason
            )
            path = os.path.join(
                self.dump_dir, f"flight-{safe}-{index:03d}.json"
            )
        document = self.postmortem(reason, error)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        if self.dump_dir is not None:
            self._rotate_dumps()
        return path

    def _rotate_dumps(self) -> None:
        """Delete the oldest ``flight-*.json`` files beyond the cap.

        Age is modification time with filename as the tiebreaker, so
        rotation is deterministic even when a burst of dumps lands
        within one timestamp granule.  Unreadable or already-deleted
        files are skipped — rotation is best-effort housekeeping and
        must never turn a successful dump into a failure.
        """
        if self.max_dumps is None:
            return
        try:
            names = [
                name
                for name in os.listdir(self.dump_dir)
                if name.startswith("flight-") and name.endswith(".json")
            ]
        except OSError:
            return
        if len(names) <= self.max_dumps:
            return
        def age(name: str):
            try:
                mtime = os.path.getmtime(os.path.join(self.dump_dir, name))
            except OSError:
                mtime = 0.0
            return (mtime, name)
        names.sort(key=age)
        for name in names[: len(names) - self.max_dumps]:
            try:
                os.remove(os.path.join(self.dump_dir, name))
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Module-global recorder (the facade the engines talk to)
# ---------------------------------------------------------------------------

_lock = threading.Lock()
_enabled = False
_recorder = FlightRecorder()


def enable(
    dump_dir: Optional[str] = None,
    capacity: int = DEFAULT_CAPACITY,
    max_dumps: Optional[int] = DEFAULT_MAX_DUMPS,
) -> FlightRecorder:
    """Turn the flight recorder on (fresh ring) and return it.

    ``dump_dir`` arms :func:`auto_dump`: failure paths that call it will
    leave a postmortem file there without any further configuration.
    At most ``max_dumps`` ``flight-*.json`` files are kept per dump
    directory (oldest rotate out first; ``None`` disables rotation).
    """
    global _enabled, _recorder
    with _lock:
        _recorder = FlightRecorder(
            capacity=capacity, dump_dir=dump_dir, max_dumps=max_dumps
        )
        _enabled = True
        return _recorder


def disable() -> None:
    """Turn the flight recorder off; the ring keeps its events."""
    global _enabled
    with _lock:
        _enabled = False


def flight_enabled() -> bool:
    """True when the recorder is armed — the producer-side gate."""
    return _enabled


def recorder() -> FlightRecorder:
    """The current global recorder (always present; fed while enabled)."""
    return _recorder


def record(kind: str, **fields: Any) -> None:
    """Record one event iff the recorder is enabled (producer helper)."""
    if _enabled:
        _recorder.record(kind, **fields)


def note_state(**state: Any) -> None:
    """Update the last-engine-state snapshot iff enabled."""
    if _enabled:
        _recorder.note_state(**state)


def auto_dump(
    reason: str, error: Optional[BaseException] = None
) -> Optional[str]:
    """Dump a postmortem if the recorder is enabled *and* has a dump
    dir; returns the path written, or None when not armed for dumping.

    This is the one call failure paths make unconditionally (after their
    own ``flight_enabled()`` gate): whether a file appears is purely a
    configuration question.
    """
    if not _enabled or _recorder.dump_dir is None:
        return None
    return _recorder.dump(reason, error)
