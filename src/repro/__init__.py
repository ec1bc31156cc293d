"""BVAP reproduction: bit-vector automata processing for regexes with
bounded repetitions (ASPLOS 2024).

The package is organised by layer:

* :mod:`repro.regex` — PCRE-subset parser, character classes, and the §7
  rewrite rules (unfolding, bound splitting);
* :mod:`repro.automata` — NFA (Glushkov), NCA, NBVA, and the
  action-homogeneous transformation;
* :mod:`repro.compiler` — regex → AH-NBVA translation, symbol encoding,
  tile mapping, and JSON hardware configurations;
* :mod:`repro.matching` — the high-level :class:`~repro.matching.PatternSet`
  API and the brute-force consistency oracle;
* :mod:`repro.hardware` — Table 4 circuit models, the BVM, and the
  cycle-level simulators for BVAP, BVAP-S, CA, eAP, CAMA, and CNT;
* :mod:`repro.workloads` — synthetic dataset and input generators;
* :mod:`repro.analysis` — metrics, design-space exploration, reporting;
* :mod:`repro.resilience` — error taxonomy, resource budgets, per-pattern
  fault isolation, and the fault-injection harness.

Quickstart::

    from repro import PatternSet
    matches = PatternSet(["ab{100}c"]).scan(data)
"""

from . import telemetry
from .compiler import CompilerOptions, compile_pattern, compile_ruleset
from .matching import Match, PatternSet
from .resilience import (
    Budget,
    BudgetExceededError,
    CapacityError,
    CompileReport,
    ReproError,
    RegexSyntaxError,
    SimulationFaultError,
    UnsupportedFeatureError,
)

__version__ = "1.2.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CapacityError",
    "CompileReport",
    "CompilerOptions",
    "Match",
    "PatternSet",
    "ReproError",
    "RegexSyntaxError",
    "SimulationFaultError",
    "UnsupportedFeatureError",
    "compile_pattern",
    "compile_ruleset",
    "telemetry",
    "__version__",
]
