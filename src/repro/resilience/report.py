"""Per-pattern fault-isolation reports for batch compilation.

:func:`repro.compiler.pipeline.compile_ruleset` and
:class:`repro.matching.PatternSet` (``on_error="quarantine"``) never let
one bad pattern abort a batch: each pattern gets a :class:`CompileReport`
recording whether it compiled, and if not, the structured error code,
the phase that failed, and the elapsed wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .errors import ReproError

STATUS_OK = "ok"
STATUS_QUARANTINED = "quarantined"


@dataclass
class CompileReport:
    """Outcome of compiling one pattern within a batch."""

    pattern_id: int
    pattern: str
    status: str = STATUS_OK
    error_code: Optional[str] = None
    error: Optional[str] = None
    phase: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def quarantined(self) -> bool:
        return self.status == STATUS_QUARANTINED

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "pattern_id": self.pattern_id,
            "pattern": self.pattern,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
        }
        if self.error_code is not None:
            out["error_code"] = self.error_code
        if self.error is not None:
            out["error"] = self.error
        if self.phase is not None:
            out["phase"] = self.phase
        return out


def report_from_error(
    pattern_id: int,
    pattern: str,
    error: Exception,
    elapsed_s: float = 0.0,
    default_phase: Optional[str] = None,
) -> CompileReport:
    """Build a quarantine report from a caught compile error."""
    code = error.code if isinstance(error, ReproError) else "E_REPRO"
    phase = getattr(error, "phase", None) or default_phase
    return CompileReport(
        pattern_id=pattern_id,
        pattern=pattern,
        status=STATUS_QUARANTINED,
        error_code=code,
        error=str(error).splitlines()[0] if str(error) else repr(error),
        phase=phase,
        elapsed_s=elapsed_s,
    )


@dataclass
class QuarantineSummary:
    """Roll-up over a batch's :class:`CompileReport` list."""

    reports: List[CompileReport] = field(default_factory=list)

    @property
    def compiled(self) -> int:
        return sum(1 for r in self.reports if r.ok)

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.reports if r.quarantined)

    def by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            if report.error_code:
                counts[report.error_code] = counts.get(report.error_code, 0) + 1
        return counts


def summarize(reports: Sequence[CompileReport]) -> QuarantineSummary:
    return QuarantineSummary(reports=list(reports))
