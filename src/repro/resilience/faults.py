"""Deterministic fault injection for the cycle simulator (soft errors).

The energy/reliability-critical structures CAMA and the in-memory codesign
literature identify — the CAM match vectors, the BVM's SRAM bit vectors,
and the Active Vector / counter state — are modelled functionally by
:class:`repro.hardware.activity.AHStepper`.  This harness replays a
**golden** (fault-free) run of a compiled rule set over an input stream,
then re-runs it while injecting seeded bit flips into those structures,
and reports:

* the **first-divergence cycle** — the first symbol at which the faulty
  machine's architectural state (all per-state values of every automaton)
  differs from the golden run;
* the **match-set delta** — matches the faulty run missed and matches it
  spuriously reported.

Three fault classes, each with an independent per-cycle injection rate:

``cam``
    One state's CAM match-vector bit flips for one cycle: the state sees
    the current symbol as matching when it does not (or vice versa).
``bv``
    One stored bit of one BV-STE's bit vector flips (SRAM soft error).
``counter``
    One state's Active Vector bit (counter-state LSB) flips.

All randomness flows from one ``random.Random(seed)`` whose draw sequence
depends only on the spec and the input length, so a fixed seed replays
bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import SimulationFaultError

FAULT_KINDS = ("cam", "bv", "counter")


@dataclass(frozen=True)
class FaultSpec:
    """Seeded fault-injection configuration."""

    seed: int = 0
    cam_rate: float = 0.0
    bv_rate: float = 0.0
    counter_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cam_rate", "bv_rate", "counter_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationFaultError(
                    f"{name} must be within [0, 1], got {rate}"
                )

    def any_faults(self) -> bool:
        return bool(self.cam_rate or self.bv_rate or self.counter_rate)


@dataclass(frozen=True)
class InjectedFault:
    """One injected bit flip."""

    cycle: int
    kind: str  # one of FAULT_KINDS
    regex_index: int  # index into the rule set's automata
    state: int
    bit: int

    def to_json(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "regex_index": self.regex_index,
            "state": self.state,
            "bit": self.bit,
        }


@dataclass
class FaultReport:
    """Outcome of one fault campaign (golden run vs faulty replay)."""

    spec: FaultSpec
    symbols: int
    injected: List[InjectedFault] = field(default_factory=list)
    first_divergence_cycle: Optional[int] = None
    golden_matches: List[Tuple[int, int]] = field(default_factory=list)
    faulty_matches: List[Tuple[int, int]] = field(default_factory=list)
    missed: List[Tuple[int, int]] = field(default_factory=list)
    spurious: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.first_divergence_cycle is not None

    def injected_by_kind(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in FAULT_KINDS}
        for fault in self.injected:
            counts[fault.kind] += 1
        return counts

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.spec.seed,
            "rates": {
                "cam": self.spec.cam_rate,
                "bv": self.spec.bv_rate,
                "counter": self.spec.counter_rate,
            },
            "symbols": self.symbols,
            "injected": [fault.to_json() for fault in self.injected],
            "injected_by_kind": self.injected_by_kind(),
            "first_divergence_cycle": self.first_divergence_cycle,
            "golden_matches": len(self.golden_matches),
            "faulty_matches": len(self.faulty_matches),
            "missed": [list(event) for event in self.missed],
            "spurious": [list(event) for event in self.spurious],
            "diverged": self.diverged,
        }


def _make_steppers(ruleset):
    """AH steppers plus their regex ids for anything shaped like a
    :class:`repro.compiler.pipeline.CompiledRuleset`."""
    # Imported here (not at module level) to keep ``repro.resilience``
    # importable from the bottom layers without a circular import.
    from ..hardware.activity import AHStepper

    steppers = [AHStepper(regex.ah) for regex in ruleset.regexes]
    ids = [regex.regex_id for regex in ruleset.regexes]
    if not steppers:
        raise SimulationFaultError("rule set has no compiled automata")
    return steppers, ids


def _digest(steppers: Sequence) -> int:
    """Hash of the full architectural state after one cycle.

    Integers hash by value in CPython, so this is stable across
    processes (``PYTHONHASHSEED`` only perturbs str/bytes hashing).
    """
    return hash(tuple(tuple(s.values) for s in steppers))


def _run(
    ruleset,
    data: bytes,
    spec: Optional[FaultSpec],
) -> Tuple[List[int], List[Tuple[int, int]], List[InjectedFault]]:
    """One replay; ``spec=None`` (or all-zero rates) is the golden run."""
    from ..hardware.activity import StepStats

    steppers, ids = _make_steppers(ruleset)
    bv_sites: List[Tuple[int, int, int]] = []  # (stepper, state, width)
    all_sites: List[Tuple[int, int]] = []
    for index, stepper in enumerate(steppers):
        for q, state in enumerate(stepper.ah.states):
            all_sites.append((index, q))
            if state.width > 1:
                bv_sites.append((index, q, state.width))

    inject = spec is not None and spec.any_faults()
    rng = random.Random(spec.seed) if spec is not None else None

    digests: List[int] = []
    matches: List[Tuple[int, int]] = []
    injected: List[InjectedFault] = []
    for cycle, symbol in enumerate(data):
        cam_patch = None  # (stepper, original CAM row) during this cycle
        if inject and rng.random() < spec.cam_rate:
            index, q = all_sites[rng.randrange(len(all_sites))]
            stepper = steppers[index]
            table = stepper._by_symbol
            original = table[symbol]
            if q in original:
                table[symbol] = tuple(x for x in original if x != q)
            else:
                table[symbol] = original + (q,)
            cam_patch = (stepper, original)
            injected.append(
                InjectedFault(cycle, "cam", index, q, symbol)
            )

        stats = StepStats()
        for index, stepper in enumerate(steppers):
            if stepper.step(symbol, stats):
                matches.append((cycle, ids[index]))

        if cam_patch is not None:  # transient fault: restore the CAM row
            stepper, original = cam_patch
            stepper._by_symbol[symbol] = original

        if inject and rng.random() < spec.bv_rate and bv_sites:
            index, q, width = bv_sites[rng.randrange(len(bv_sites))]
            bit = rng.randrange(width)
            steppers[index].values[q] ^= 1 << bit
            injected.append(InjectedFault(cycle, "bv", index, q, bit))
        if inject and rng.random() < spec.counter_rate:
            index, q = all_sites[rng.randrange(len(all_sites))]
            steppers[index].values[q] ^= 1
            injected.append(InjectedFault(cycle, "counter", index, q, 0))

        digests.append(_digest(steppers))
    return digests, matches, injected


def run_campaign(
    ruleset,
    data: bytes,
    spec: FaultSpec,
    verify_golden: bool = False,
) -> FaultReport:
    """Golden run, faulty replay, and divergence analysis.

    ``ruleset`` is a :class:`repro.compiler.pipeline.CompiledRuleset` (or
    any object with ``.regexes`` carrying ``.ah`` / ``.regex_id``).  With
    ``verify_golden`` the golden run is executed twice and any mismatch —
    which would invalidate the whole comparison — raises
    :class:`SimulationFaultError`.
    """
    golden_digests, golden_matches, _ = _run(ruleset, data, None)
    if verify_golden:
        replay_digests, replay_matches, _ = _run(ruleset, data, None)
        if replay_digests != golden_digests or replay_matches != golden_matches:
            raise SimulationFaultError(
                "golden run is nondeterministic; fault comparison is invalid"
            )
    faulty_digests, faulty_matches, injected = _run(ruleset, data, spec)

    first_divergence: Optional[int] = None
    for cycle, (gold, fault) in enumerate(zip(golden_digests, faulty_digests)):
        if gold != fault:
            first_divergence = cycle
            break

    golden_set = set(golden_matches)
    faulty_set = set(faulty_matches)
    report = FaultReport(
        spec=spec,
        symbols=len(data),
        injected=injected,
        first_divergence_cycle=first_divergence,
        golden_matches=golden_matches,
        faulty_matches=faulty_matches,
        missed=sorted(golden_set - faulty_set),
        spurious=sorted(faulty_set - golden_set),
    )
    if report.diverged:
        from ..telemetry import flight

        if flight.flight_enabled():
            flight.record(
                "fault_divergence",
                seed=spec.seed,
                first_divergence_cycle=first_divergence,
                injected=len(injected),
                missed=len(report.missed),
                spurious=len(report.spurious),
            )
            flight.auto_dump("fault-divergence")
    return report


# ---------------------------------------------------------------------------
# Process-level chaos campaigns (the sharded engine's supervision layer)
# ---------------------------------------------------------------------------

#: Process-level fault kinds ``ChaosCampaign`` can inject into live
#: sharded-scan workers (mapped onto
#: :meth:`repro.matching.sharded.ShardedScanner.inject_fault` modes).
CHAOS_KINDS = ("kill", "die", "stop", "corrupt", "slow")

_CHAOS_MODES = {
    "kill": "kill",  # SIGKILL from outside, no cooperation
    "die": "die",  # worker hard-exits before its next reply
    "stop": "stop",  # SIGSTOP: the OS-level hang (watchdog trip)
    "corrupt": "corrupt",  # one junk frame on the reply pipe
    "slow": "slow",  # sub-deadline stall (must be tolerated)
}


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded process-level chaos configuration.

    The schedule (which chunk, which shard, which fault kind) is drawn
    from ``random.Random(seed)`` and depends only on the spec and the
    chunk count, so a fixed seed replays the same campaign — including
    the supervised recovery it provokes (backoff jitter flows from the
    scanner's own RNG, seeded with the same value).
    """

    seed: int = 0
    kinds: Tuple[str, ...] = ("kill", "stop")
    num_faults: int = 2
    shards: int = 2
    chunk_bytes: int = 1024
    max_restarts: int = 1
    checkpoint_chunks: int = 4
    recv_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        unknown = set(self.kinds) - set(CHAOS_KINDS)
        if unknown:
            raise SimulationFaultError(
                f"unknown chaos kinds {sorted(unknown)}; "
                f"choose from {CHAOS_KINDS}"
            )
        if not self.kinds:
            raise SimulationFaultError("kinds must name at least one fault")
        if self.num_faults < 0:
            raise SimulationFaultError("num_faults must be >= 0")
        if self.shards < 1:
            raise SimulationFaultError("shards must be >= 1")
        if self.chunk_bytes < 1:
            raise SimulationFaultError("chunk_bytes must be >= 1")
        if self.max_restarts < 0:
            raise SimulationFaultError("max_restarts must be >= 0")
        if self.checkpoint_chunks < 1:
            raise SimulationFaultError("checkpoint_chunks must be >= 1")
        if self.recv_timeout_s <= 0:
            raise SimulationFaultError("recv_timeout_s must be positive")


@dataclass(frozen=True)
class ChaosFault:
    """One scheduled process-level fault."""

    chunk: int
    shard: int
    kind: str

    def to_json(self) -> Dict[str, Any]:
        return {"chunk": self.chunk, "shard": self.shard, "kind": self.kind}


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign: supervised scan vs. fused oracle."""

    spec: ChaosSpec
    symbols: int
    faults: List[ChaosFault] = field(default_factory=list)
    golden_matches: int = 0
    chaos_matches: int = 0
    #: Stream offset of the first mismatching event, None when the
    #: merged stream is byte-identical to the fault-free run.
    first_divergence: Optional[int] = None
    restarts: int = 0
    #: Shards the parent took over once their restart budget ran out.
    failovers: int = 0
    degraded: int = 0
    replayed_bytes: int = 0

    @property
    def diverged(self) -> bool:
        return self.first_divergence is not None

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.spec.seed,
            "kinds": list(self.spec.kinds),
            "shards": self.spec.shards,
            "symbols": self.symbols,
            "faults": [fault.to_json() for fault in self.faults],
            "golden_matches": self.golden_matches,
            "chaos_matches": self.chaos_matches,
            "first_divergence": self.first_divergence,
            "diverged": self.diverged,
            "restarts": self.restarts,
            "failovers": self.failovers,
            "degraded": self.degraded,
            "replayed_bytes": self.replayed_bytes,
        }


def chaos_schedule(spec: ChaosSpec, num_chunks: int, num_shards: int
                   ) -> List[ChaosFault]:
    """The campaign's seeded fault schedule, sorted by chunk."""
    rng = random.Random(spec.seed)
    faults = [
        ChaosFault(
            chunk=rng.randrange(num_chunks),
            shard=rng.randrange(num_shards),
            kind=spec.kinds[rng.randrange(len(spec.kinds))],
        )
        for _ in range(spec.num_faults)
    ]
    return sorted(faults, key=lambda f: (f.chunk, f.shard))


def run_chaos(compiled, data: bytes, spec: ChaosSpec) -> ChaosReport:
    """Run one seeded chaos campaign against a live supervised scan.

    ``compiled`` is a sequence of
    :class:`repro.compiler.pipeline.CompiledRegex`.  The oracle is the
    single-process fused engine over the same chunking; the chaos run is
    a :class:`~repro.matching.sharded.ShardedScanner` armed with a
    :class:`~repro.resilience.budget.RestartPolicy`, with the scheduled
    faults injected into its workers mid-stream.  The report's
    ``first_divergence`` stays ``None`` exactly when supervised recovery
    was lossless (no event missed, duplicated, or reordered).
    """
    from ..matching.fused import FusedMatcher, fuse_patterns
    from ..matching.sharded import ShardedScanner
    from .budget import RestartPolicy

    compiled = list(compiled)
    if not compiled:
        raise SimulationFaultError("chaos campaign needs compiled patterns")
    if not data:
        raise SimulationFaultError("chaos campaign needs input data")
    ids = [regex.regex_id for regex in compiled]
    step = spec.chunk_bytes
    chunks = [data[base : base + step] for base in range(0, len(data), step)]

    oracle = FusedMatcher(fuse_patterns(compiled))
    golden: List[Tuple[int, int]] = []
    pos = 0
    for chunk in chunks:
        golden.extend(
            (ids[slot], pos + end) for slot, end in oracle.feed(chunk)
        )
        pos += len(chunk)
    # End-of-input finalisation: anchored ($-gated) patterns hold their
    # candidate matches until the stream ends, so both the oracle and
    # the chaos run must be finalised for the comparison to cover them.
    golden.extend((ids[slot], pos + end) for slot, end in oracle.finish())

    policy = RestartPolicy(
        max_restarts=spec.max_restarts,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        checkpoint_chunks=spec.checkpoint_chunks,
    )
    observed: List[Tuple[int, int]] = []
    with ShardedScanner(
        compiled,
        ids,
        spec.shards,
        chunk_bytes=spec.chunk_bytes,
        recv_timeout_s=spec.recv_timeout_s,
        restart_policy=policy,
        seed=spec.seed,
    ) as scanner:
        faults = chaos_schedule(spec, len(chunks), scanner.num_shards)
        by_chunk: Dict[int, List[ChaosFault]] = {}
        for fault in faults:
            by_chunk.setdefault(fault.chunk, []).append(fault)
        pos = 0
        for index, chunk in enumerate(chunks):
            for fault in by_chunk.get(index, ()):
                scanner.inject_fault(fault.shard, _CHAOS_MODES[fault.kind])
            observed.extend(
                (pid, pos + end) for pid, end in scanner.feed(chunk)
            )
            pos += len(chunk)
        observed.extend(
            (pid, pos + end) for pid, end in scanner.finish()
        )
        restarts = list(scanner.restarts)
        failovers = list(scanner.failovers)
        failures = list(scanner.failures)

    first_divergence: Optional[int] = None
    for gold, seen in zip(golden, observed):
        if gold != seen:
            first_divergence = min(gold[1], seen[1])
            break
    else:
        if len(golden) != len(observed):
            shorter = min(len(golden), len(observed))
            longer = golden if len(golden) > len(observed) else observed
            first_divergence = longer[shorter][1]

    report = ChaosReport(
        spec=spec,
        symbols=len(data),
        faults=faults,
        golden_matches=len(golden),
        chaos_matches=len(observed),
        first_divergence=first_divergence,
        restarts=len(restarts),
        failovers=len(failovers),
        degraded=len(failures),
        replayed_bytes=sum(r.replayed_bytes for r in restarts),
    )
    from ..telemetry import flight

    if flight.flight_enabled():
        flight.record(
            "chaos_campaign",
            seed=spec.seed,
            faults=[fault.to_json() for fault in faults],
            diverged=report.diverged,
            restarts=report.restarts,
            failovers=report.failovers,
            degraded=report.degraded,
        )
        if report.diverged:
            flight.auto_dump("chaos-divergence")
    return report


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable chaos summary (``repro faults --chaos``)."""
    injected = ", ".join(
        f"{fault.kind}@chunk{fault.chunk}/shard{fault.shard}"
        for fault in report.faults
    ) or "none"
    lines = [
        f"symbols          : {report.symbols}",
        f"seed             : {report.spec.seed}",
        f"shards           : {report.spec.shards}",
        f"injected faults  : {injected}",
        f"golden matches   : {report.golden_matches}",
        f"chaos matches    : {report.chaos_matches}",
        "stream parity    : "
        + (
            f"DIVERGED at offset {report.first_divergence}"
            if report.diverged
            else "byte-identical"
        ),
        f"restarts         : {report.restarts}",
        f"failovers        : {report.failovers}",
        f"degraded shards  : {report.degraded}",
        f"replayed bytes   : {report.replayed_bytes}",
    ]
    return "\n".join(lines)


def format_report(report: FaultReport) -> str:
    """Human-readable campaign summary (the ``faults`` CLI verb)."""
    by_kind = report.injected_by_kind()
    lines = [
        f"symbols          : {report.symbols}",
        f"seed             : {report.spec.seed}",
        "injected faults  : "
        + ", ".join(f"{kind}={by_kind[kind]}" for kind in FAULT_KINDS)
        + f" (total {len(report.injected)})",
        "first divergence : "
        + (
            f"cycle {report.first_divergence_cycle}"
            if report.diverged
            else "none"
        ),
        f"golden matches   : {len(report.golden_matches)}",
        f"faulty matches   : {len(report.faulty_matches)}",
        f"missed matches   : {len(report.missed)}",
        f"spurious matches : {len(report.spurious)}",
    ]
    return "\n".join(lines)
