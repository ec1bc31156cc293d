"""Resource budgets threaded through compilation and scanning.

A :class:`Budget` is an immutable bundle of limits.  ``None`` disables a
limit; the default ``Budget()`` is fully unlimited, so the hot paths pay
nothing unless a caller opts in (the overhead guard tests enforce this).

Compile-time limits (checked at phase boundaries by
:mod:`repro.compiler.pipeline` and inside :mod:`repro.regex.rewrite`):

* ``max_states`` — AH-NBVA state count of one compiled pattern;
* ``max_unfold`` — symbols a single ``{m,n}`` unfolding may create;
* ``max_bv_width`` — widest virtual bit vector a pattern may demand.

Run-time limits (checked by the scan engines in
:mod:`repro.matching.engine` / :mod:`repro.matching.fused`):

* ``max_cache_bytes`` — footprint of the fused engine's bitset-tier
  lazy-DFA successor cache (estimated bytes, see
  :func:`repro.matching.fused.entry_bytes`); when set it also caps the
  dense transition table, of the fused engine and of every sharded
  worker;
* ``max_table_states`` — dense-DFA states the fused engine's
  table-driven inner loop may intern at once.  A full table is flushed
  and refilled, however often.  ``0`` disables the table entirely (pure
  bitset stepping); ``None`` uses
  :data:`repro.matching.fused.DEFAULT_TABLE_STATES`;
* ``deadline_s`` — cooperative wall-clock deadline.  The clock starts
  when work starts (:meth:`Budget.start`) and is checked at compile phase
  boundaries and every ``check_bytes`` scanned bytes, so exceeding it
  raises :class:`~repro.resilience.errors.BudgetExceededError` promptly
  without a per-symbol timestamp in the hot loop.  The sharded engine
  checks between whole broadcast chunks instead: once every
  ``ceil(check_bytes / chunk_bytes)`` chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceededError

#: Default deadline granularity for the scan loops (bytes between checks).
DEFAULT_CHECK_BYTES = 4096

#: Default supervised-restart backoff base/cap and checkpoint cadence.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0
DEFAULT_CHECKPOINT_CHUNKS = 8


@dataclass(frozen=True)
class RestartPolicy:
    """Supervised-restart parameters for the sharded scan workers.

    Attached to :class:`Budget` (``Budget(restart=RestartPolicy())``)
    and threaded through ``CompilerOptions`` to
    :class:`repro.matching.sharded.ShardedScanner`, which turns the
    degrade-only failure handling into a restart → takeover state
    machine:

    * ``max_restarts`` — bounded retry: how many times one shard's
      worker may be restarted before the parent takes the shard over,
      running it in-process from the same checkpoint and tail replay
      (``0`` goes straight to the takeover);
    * ``backoff_base_s`` / ``backoff_cap_s`` — exponential backoff
      between restart attempts (``base * 2**(attempt-1)``, capped);
    * ``jitter`` — symmetric fractional jitter on each backoff delay,
      drawn from the scanner's seeded RNG so campaigns stay replayable;
    * ``checkpoint_chunks`` — how often (in broadcast chunks) every
      live worker ships its activation snapshot back to the parent; the
      parent buffers at most this many tail chunks for replay.
    """

    max_restarts: int = 2
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S
    jitter: float = 0.1
    checkpoint_chunks: int = DEFAULT_CHECKPOINT_CHUNKS

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.checkpoint_chunks < 1:
            raise ValueError("checkpoint_chunks must be >= 1")

    def backoff_s(self, attempt: int, rng=None) -> float:
        """Delay before restart ``attempt`` (1-based), jittered by ``rng``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 1))
        if rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return delay


@dataclass(frozen=True)
class Budget:
    """Immutable resource limits; ``None`` means unlimited."""

    max_states: Optional[int] = None
    max_unfold: Optional[int] = None
    max_bv_width: Optional[int] = None
    max_cache_bytes: Optional[int] = None
    deadline_s: Optional[float] = None
    check_bytes: int = DEFAULT_CHECK_BYTES
    max_table_states: Optional[int] = None
    #: Supervised-restart policy for the sharded engine's workers;
    #: ``None`` keeps the degrade-only behaviour (no checkpoints, no
    #: tail buffering — the hot path pays nothing).
    restart: Optional[RestartPolicy] = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_unfold", "max_bv_width",
                     "max_cache_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value}")
        # 0 is meaningful here: it disables the dense table outright.
        if self.max_table_states is not None and self.max_table_states < 0:
            raise ValueError(
                "max_table_states must be >= 0 or None, "
                f"got {self.max_table_states}"
            )
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be >= 0 or None")
        if self.check_bytes < 1:
            raise ValueError("check_bytes must be >= 1")

    # ------------------------------------------------------------------

    def unlimited(self) -> bool:
        """True when every limit is disabled (the default)."""
        return (
            self.max_states is None
            and self.max_unfold is None
            and self.max_bv_width is None
            and self.max_cache_bytes is None
            and self.deadline_s is None
        )

    def start(self) -> "BudgetClock":
        """Start the cooperative deadline clock for one unit of work."""
        return BudgetClock(self)

    # -- compile-time checks -------------------------------------------

    def charge_states(self, states: int, pattern: str = "") -> None:
        if self.max_states is not None and states > self.max_states:
            where = f" for {pattern!r}" if pattern else ""
            raise BudgetExceededError(
                f"automaton needs {states} states{where}, exceeding "
                f"max_states={self.max_states}",
                kind="states",
                limit=self.max_states,
                actual=states,
            )

    def charge_bv_width(self, width: int, pattern: str = "") -> None:
        if self.max_bv_width is not None and width > self.max_bv_width:
            where = f" for {pattern!r}" if pattern else ""
            raise BudgetExceededError(
                f"bit vector of width {width}{where} exceeds "
                f"max_bv_width={self.max_bv_width}",
                kind="bv_width",
                limit=self.max_bv_width,
                actual=width,
            )


class BudgetClock:
    """The running side of a :class:`Budget`: a started deadline.

    Cheap to create; :meth:`check` is a no-op attribute test when no
    deadline is configured.
    """

    __slots__ = ("budget", "expiry")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.expiry: Optional[float] = (
            time.monotonic() + budget.deadline_s
            if budget.deadline_s is not None
            else None
        )

    def expired(self) -> bool:
        return self.expiry is not None and time.monotonic() >= self.expiry

    def check(self, phase: str) -> None:
        """Raise :class:`BudgetExceededError` when the deadline passed."""
        if self.expiry is not None and time.monotonic() >= self.expiry:
            error = BudgetExceededError(
                f"deadline of {self.budget.deadline_s:g}s exceeded "
                f"during {phase}",
                kind="deadline",
                limit=self.budget.deadline_s,
            )
            error.phase = phase
            from ..telemetry import flight

            if flight.flight_enabled():
                flight.record(
                    "budget_exceeded",
                    phase=phase,
                    budget_kind="deadline",
                    limit=self.budget.deadline_s,
                )
            raise error
