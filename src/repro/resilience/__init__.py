"""Resilience layer: error taxonomy, resource budgets, fault isolation,
and fault injection.

Four pillars (see ``docs/robustness.md``):

* **Error taxonomy** (:mod:`repro.resilience.errors`) — every deliberate
  failure derives from :class:`ReproError` and carries a stable ``code``;
* **Resource budgets** (:mod:`repro.resilience.budget`) — opt-in limits
  on automaton size, ``{m,n}`` unfolding, BV width, lazy-DFA cache bytes,
  and a cooperative wall-clock deadline, threaded through
  ``compile_pattern``/``compile_ruleset`` and all five scan engines;
* **Fault isolation** (:mod:`repro.resilience.report`) — batch compiles
  quarantine bad patterns into per-pattern :class:`CompileReport` objects
  instead of aborting;
* **Fault injection** (:mod:`repro.resilience.faults`) — seeded bit flips
  in CAM match vectors, BVM bit vectors, and counter state, with golden
  replay and first-divergence reporting (CLI verb ``faults``);
* **Supervision** (:class:`RestartPolicy` + the chaos harness in
  :mod:`repro.resilience.faults`) — bounded restart-with-backoff and
  checkpointed recovery for the sharded scan workers, exercised by
  seeded process-level chaos campaigns (``repro faults --chaos``).
"""

from .budget import DEFAULT_CHECK_BYTES, Budget, BudgetClock, RestartPolicy
from .errors import (
    ERROR_CODES,
    BudgetExceededError,
    CapacityError,
    ReproError,
    RegexSyntaxError,
    SimulationFaultError,
    UnsupportedFeatureError,
)
from .report import (
    STATUS_OK,
    STATUS_QUARANTINED,
    CompileReport,
    QuarantineSummary,
    report_from_error,
    summarize,
)
from .faults import (
    CHAOS_KINDS,
    FAULT_KINDS,
    ChaosFault,
    ChaosReport,
    ChaosSpec,
    FaultReport,
    FaultSpec,
    InjectedFault,
    chaos_schedule,
    format_chaos_report,
    format_report,
    run_campaign,
    run_chaos,
)

__all__ = [
    "Budget",
    "BudgetClock",
    "BudgetExceededError",
    "CHAOS_KINDS",
    "CapacityError",
    "ChaosFault",
    "ChaosReport",
    "ChaosSpec",
    "CompileReport",
    "DEFAULT_CHECK_BYTES",
    "ERROR_CODES",
    "FAULT_KINDS",
    "FaultReport",
    "FaultSpec",
    "InjectedFault",
    "QuarantineSummary",
    "ReproError",
    "RegexSyntaxError",
    "RestartPolicy",
    "STATUS_OK",
    "STATUS_QUARANTINED",
    "SimulationFaultError",
    "UnsupportedFeatureError",
    "chaos_schedule",
    "format_chaos_report",
    "format_report",
    "report_from_error",
    "run_campaign",
    "run_chaos",
    "summarize",
]
