"""End-to-end regex-to-hardware compilation (§7).

The pipeline follows the paper's five steps:

1. parse the regex (unfolding of bounds <= 2 is subsumed by step 3);
2. analyse the character classes and build the symbol encoding schema;
3. rewrite: unfold small repetitions, split large ones (Examples 7.1/7.2);
4. construct the NBVA and transform it into an AH-NBVA;
5. emit a JSON configuration describing the automata and their mapping
   (``repro.compiler.config``).

The result objects also carry the statistics the evaluation needs: STE and
BV-STE counts, virtual BV widths and their Swap-word counts, and the
unfolded baseline size for CAMA/CA/eAP comparisons.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from .. import telemetry
from ..automata.ah import AHNBVA, is_counter_free, to_action_homogeneous
from ..automata.ah import to_nfa as ah_to_nfa
from ..automata.glushkov import glushkov, nested_glushkov
from ..automata.nbva import NBVA
from ..automata.nfa import NFA, union_nfas
from ..regex import ast as ast_mod
from ..regex.anchors import Variant, lower_anchors
from ..regex.charclass import CharClass
from ..regex.parser import parse
from ..regex.rewrite import (
    DEFAULT_MAX_UNFOLD,
    VIRTUAL_SIZES,
    RewriteParams,
    rewrite,
    unfold_all,
)
from ..resilience.budget import Budget, BudgetClock
from ..resilience.errors import CapacityError, ReproError
from ..resilience.report import CompileReport, report_from_error

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a hard import
    from .cache import CompileCache
from .encoding import EncodingSchema, build_encoding
from .prefilter import PatternLiterals, extract_literals
from .mapping import ArchParams, AutomatonDemand, MappingError, MappingResult, map_automata
from .reduce import DEFAULT_REDUCE_LEVEL, REDUCE_LEVELS, reduce_ah, reduce_nfa
from .translate import translate


@dataclass(frozen=True)
class CompilerOptions:
    """All user-facing compiler knobs."""

    bv_size: int = 64
    unfold_threshold: int = 4
    arch: ArchParams = ArchParams()
    #: Resource budget enforced at phase boundaries (default: unlimited).
    budget: Budget = Budget()
    #: Automaton reduction level (``compiler.reduce``): 0 disables the
    #: pass (dead-state pruning only), 1 adds follow (right) merges, 2
    #: (the default) adds left merges as well.
    reduce_level: int = DEFAULT_REDUCE_LEVEL

    def __post_init__(self) -> None:
        self.rewrite_params  # validate bv_size / threshold eagerly
        if self.reduce_level not in REDUCE_LEVELS:
            raise ValueError(
                f"reduce_level must be one of {REDUCE_LEVELS}, "
                f"got {self.reduce_level!r}"
            )

    @property
    def rewrite_params(self) -> RewriteParams:
        max_unfold = (
            self.budget.max_unfold
            if self.budget.max_unfold is not None
            else DEFAULT_MAX_UNFOLD
        )
        return RewriteParams(
            bv_size=self.bv_size,
            unfold_threshold=self.unfold_threshold,
            max_unfold=max_unfold,
        )


def virtual_width(scope_high: int) -> int:
    """Smallest realisable virtual BV size covering a scope (§5)."""
    for size in VIRTUAL_SIZES:
        if size >= scope_high:
            return size
    raise CapacityError(f"scope bound {scope_high} exceeds the hardware BV")


def swap_words(virtual_size: int, word_bits: int = 8) -> int:
    """Swap-step word count for a virtual BV (§5 semi-parallel routing)."""
    return (virtual_size + word_bits - 1) // word_bits


@dataclass
class AnchorInfo:
    """Anchor-lowering artifacts attached to a compiled pattern.

    ``source`` is the parsed AST *with* its positional assertions;
    ``variants`` are the gated anchor-free alternatives produced by
    :func:`repro.regex.anchors.lower_anchors`; ``scan_nfa`` is their
    assembled union with per-state ``boi``/``eoi``/``adjust`` gates —
    the automaton the fused scan engine executes for this pattern.
    A pattern whose anchors are unsatisfiable (``a$b``) has zero
    variants and a never-matching one-state ``scan_nfa``.
    """

    source: ast_mod.Regex
    variants: Tuple[Variant, ...]
    scan_nfa: NFA


@dataclass
class CompiledRegex:
    """One regex compiled through the whole pipeline."""

    regex_id: int
    pattern: str
    parsed: ast_mod.Regex
    rewritten: ast_mod.Regex
    nbva: NBVA
    ah: AHNBVA
    #: Size of the Glushkov NFA of the fully unfolded regex (the footprint
    #: on unfolding-based baselines); None if unfolding would exceed `cap`.
    unfolded_states: Optional[int] = None
    #: Required-literal prefilter contract (see repro.compiler.prefilter);
    #: None when the pattern has no usable required literal and must stay
    #: always-on in the fused scan engine.
    literals: Optional[PatternLiterals] = None
    #: What the ``compiler.reduce`` pass saved (states/BV-STEs/edges
    #: before and after, pruned and merged counts per rule, and the
    #: ``reduce_level`` it ran at); None only on artifacts produced
    #: before the pass existed.
    reduction: Optional[Dict[str, int]] = None
    #: Anchor-lowering artifacts (:class:`AnchorInfo`); None for
    #: un-anchored patterns.  When set, ``parsed`` holds the anchor-free
    #: union of the variant cores (so literal extraction, cost models
    #: and demand statistics keep working) and the fused engine executes
    #: ``anchors.scan_nfa`` instead of re-deriving an automaton.
    anchors: Optional[AnchorInfo] = None

    @property
    def reduction_summary(self) -> Dict[str, int]:
        """The reduction pass's savings (empty dict when unavailable)."""
        return dict(self.reduction) if self.reduction else {}

    @property
    def num_stes(self) -> int:
        return self.ah.num_states

    @property
    def num_bv_stes(self) -> int:
        return self.ah.num_bv_stes()

    @property
    def num_plain_stes(self) -> int:
        return self.ah.num_plain_stes()

    def virtual_widths(self) -> List[int]:
        return [virtual_width(scope.high) for scope in self.ah.scopes]

    def max_swap_words(self) -> int:
        widths = self.virtual_widths()
        return max((swap_words(w) for w in widths), default=0)

    def demand(self) -> AutomatonDemand:
        return AutomatonDemand(
            regex_id=self.regex_id,
            plain_stes=self.num_plain_stes,
            bv_stes=self.num_bv_stes,
            max_swap_words=self.max_swap_words(),
        )


@dataclass
class CompiledRuleset:
    """A full rule set compiled and mapped onto the hardware."""

    options: CompilerOptions
    regexes: List[CompiledRegex]
    encoding: EncodingSchema
    mapping: MappingResult
    #: Patterns rejected by the mapper (too large even after rewriting).
    rejected: Dict[int, str] = field(default_factory=dict)
    #: Per-pattern fault-isolation reports, one per input pattern in
    #: order (status, error code, failing phase, elapsed seconds).
    reports: List[CompileReport] = field(default_factory=list)

    @property
    def quarantined(self) -> Dict[int, CompileReport]:
        """Quarantine reports keyed by pattern id."""
        return {r.pattern_id: r for r in self.reports if r.quarantined}

    @property
    def num_stes(self) -> int:
        return sum(r.num_stes for r in self.regexes)

    @property
    def num_bv_stes(self) -> int:
        return sum(r.num_bv_stes for r in self.regexes)

    def bv_ste_ratio(self) -> float:
        total = self.num_stes
        return self.num_bv_stes / total if total else 0.0


def _tag_phase(error: Exception, phase: str) -> None:
    """Record the failing compile phase on a structured error (once)."""
    if isinstance(error, ReproError) and error.phase is None:
        error.phase = phase


def compile_pattern(
    pattern: str,
    regex_id: int = 0,
    options: CompilerOptions = CompilerOptions(),
    unfolded_cap: int = 200_000,
    clock: Optional[BudgetClock] = None,
) -> CompiledRegex:
    """Compile one pattern string into its AH-NBVA.

    ``options.budget`` is enforced at every phase boundary; ``clock`` lets
    batch callers share one running deadline across patterns.
    """
    clock = clock if clock is not None else options.budget.start()
    try:
        with telemetry.span("compile.parse", "compile", regex_id=regex_id):
            parsed = parse(pattern)
        clock.check("parse")
    except ReproError as error:
        _tag_phase(error, "parse")
        raise
    return compile_ast(parsed, pattern, regex_id, options, unfolded_cap,
                       clock=clock)


def compile_ast(
    parsed: ast_mod.Regex,
    pattern: str,
    regex_id: int = 0,
    options: CompilerOptions = CompilerOptions(),
    unfolded_cap: int = 200_000,
    force_unfold: bool = False,
    clock: Optional[BudgetClock] = None,
) -> CompiledRegex:
    """Compile an already-parsed AST (used by the workload generators).

    ``force_unfold`` compiles with every bounded repetition unfolded —
    the §6 fallback for regexes whose bit-vector demand exceeds the
    hardware ("unsupported regexes can be executed via partial
    unfolding").

    Anchored ASTs are lowered first (:mod:`repro.regex.anchors`) and
    compiled through :func:`_compile_anchored`; unsupported anchor
    placements raise :class:`UnsupportedFeatureError` here, which the
    fault-isolation wrappers quarantine as ``E_UNSUPPORTED``.
    """
    params = options.rewrite_params
    budget = options.budget
    clock = clock if clock is not None else budget.start()
    try:
        lowered = lower_anchors(parsed, pattern)
        clock.check("lower")
    except ReproError as error:
        _tag_phase(error, "lower")
        raise
    if lowered is not None:
        return _compile_anchored(
            parsed, lowered, pattern, regex_id, options, unfolded_cap,
            force_unfold, clock,
        )
    try:
        with telemetry.span("compile.rewrite", "compile", regex_id=regex_id):
            rewritten = (
                unfold_all(parsed, params.max_unfold)
                if force_unfold
                else rewrite(parsed, params)
            )
        clock.check("rewrite")
    except ReproError as error:
        _tag_phase(error, "rewrite")
        raise
    try:
        with telemetry.span(
            "compile.translate", "compile", regex_id=regex_id
        ) as sp:
            nbva = translate(rewritten, params)
            ah = to_action_homogeneous(nbva)
            sp.set(states=ah.num_states, bv_stes=ah.num_bv_stes())
        clock.check("translate")
    except ReproError as error:
        _tag_phase(error, "translate")
        raise
    try:
        with telemetry.span(
            "compile.reduce", "compile", regex_id=regex_id
        ) as sp:
            ah, reduction = reduce_ah(ah, level=options.reduce_level)
            removed = reduction["states_before"] - reduction["states_after"]
            sp.set(states=ah.num_states, removed=removed)
        if removed and telemetry.metrics_enabled():
            telemetry.registry().counter(
                "compile.reduce.states_removed"
            ).inc(removed)
        budget.charge_states(ah.num_states, pattern)
        for scope in ah.scopes:
            budget.charge_bv_width(scope.high, pattern)
        clock.check("reduce")
    except ReproError as error:
        _tag_phase(error, "reduce")
        raise
    unfolded_states = _unfolded_size(parsed, unfolded_cap)
    return CompiledRegex(
        regex_id=regex_id,
        pattern=pattern,
        parsed=parsed,
        rewritten=rewritten,
        nbva=nbva,
        ah=ah,
        unfolded_states=unfolded_states,
        literals=extract_literals(parsed),
        reduction=reduction,
    )


def _gate_nfa(nfa: NFA, variant: Variant) -> NFA:
    """Attach one variant's positional gates to its reduced core NFA."""
    boi = set(nfa.initial) if variant.boi else set()
    if variant.eoi:
        return NFA(nfa.classes, nfa.transitions, nfa.initial, set(),
                   boi, set(nfa.final), set())
    if variant.adjust:
        return NFA(nfa.classes, nfa.transitions, nfa.initial, set(),
                   boi, set(), set(nfa.final))
    return NFA(nfa.classes, nfa.transitions, nfa.initial, set(nfa.final),
               boi, set(), set())


#: Anchor-free core whose language is empty — what an unsatisfiable
#: anchored pattern (``a$b``) compiles to: a real automaton that can
#: never report, not a silently-rewritten one.
_EMPTY_CORE = ast_mod.Symbol(CharClass.empty())


def _compile_anchored(
    parsed: ast_mod.Regex,
    variants: Tuple[Variant, ...],
    pattern: str,
    regex_id: int,
    options: CompilerOptions,
    unfolded_cap: int,
    force_unfold: bool,
    clock: BudgetClock,
) -> CompiledRegex:
    """Compile a pattern whose AST carried positional assertions.

    The anchor-free *union* of the variant cores runs through the
    normal pipeline — that is what sizing, mapping, literal extraction
    and the cost models see.  The executable artifact is the gated
    union NFA: each variant core is Glushkov-translated with its
    repetitions unfolded nested (as :func:`build_scan_nfa` does) and
    reduced independently, its gates are attached post-reduce (gates
    are uniform within one variant, so reduction cannot merge states
    with different positional semantics), and the parts are unioned.
    """
    if variants:
        union = variants[0].core
        for variant in variants[1:]:
            union = ast_mod.alternation(union, variant.core)
    else:
        union = _EMPTY_CORE
    compiled = compile_ast(
        union, pattern, regex_id, options, unfolded_cap,
        force_unfold=force_unfold, clock=clock,
    )
    level = (compiled.reduction or {}).get("level", 0)
    try:
        with telemetry.span(
            "compile.anchor", "compile", regex_id=regex_id,
            variants=len(variants),
        ):
            parts = [
                _gate_nfa(_nested_nfa(variant.core, level), variant)
                for variant in variants
            ]
            scan_nfa = (
                union_nfas(parts)
                if parts
                else NFA([CharClass.empty()], [[]], {0}, set())
            )
        options.budget.charge_states(scan_nfa.num_states, pattern)
        clock.check("anchor")
    except ReproError as error:
        _tag_phase(error, "anchor")
        raise
    compiled.anchors = AnchorInfo(
        source=parsed, variants=variants, scan_nfa=scan_nfa
    )
    return compiled


def compile_pattern_isolated(
    pattern: str,
    regex_id: int = 0,
    options: CompilerOptions = CompilerOptions(),
    clock: Optional[BudgetClock] = None,
    cache: "Optional[CompileCache]" = None,
) -> Tuple[Optional[CompiledRegex], CompileReport]:
    """Compile one pattern, converting failures into a quarantine report.

    The shared fault-isolation primitive under :func:`compile_ruleset`
    and :class:`repro.matching.PatternSet`: a malformed, unsupported,
    budget-busting, or oversized pattern yields ``(None, report)``
    instead of raising.  Only a batch-wide deadline expiry
    (``kind == "deadline"``) propagates, since nothing compiled after it
    could succeed either.  When ``cache`` is given, a hit skips the
    pipeline entirely and a successful compile is stored back.
    """
    started = time.perf_counter()
    if cache is not None:
        hit = cache.get(pattern, options, regex_id)
        if hit is not None:
            return hit, CompileReport(
                pattern_id=regex_id,
                pattern=pattern,
                elapsed_s=time.perf_counter() - started,
            )
    try:
        compiled = compile_pattern(pattern, regex_id, options, clock=clock)
    except ReproError as error:
        if getattr(error, "kind", None) == "deadline":
            raise  # batch-wide budget: nothing later can succeed
        return None, report_from_error(
            regex_id, pattern, error, elapsed_s=time.perf_counter() - started
        )
    except ValueError as error:
        return None, report_from_error(
            regex_id, pattern, error, elapsed_s=time.perf_counter() - started
        )
    if cache is not None:
        cache.put(pattern, options, compiled)
    return compiled, CompileReport(
        pattern_id=regex_id,
        pattern=pattern,
        elapsed_s=time.perf_counter() - started,
    )


# Per-worker compiler options, installed by the pool initializer so job
# payloads stay small (one (id, pattern) tuple per task).
_WORKER_OPTIONS: Optional[CompilerOptions] = None


def _parallel_init(options: CompilerOptions) -> None:
    global _WORKER_OPTIONS
    _WORKER_OPTIONS = options


def _parallel_compile(
    job: Tuple[int, str],
) -> Tuple[int, Optional[CompiledRegex], CompileReport]:
    regex_id, pattern = job
    compiled, report = compile_pattern_isolated(
        pattern, regex_id, _WORKER_OPTIONS
    )
    return regex_id, compiled, report


def _pool_context() -> multiprocessing.context.BaseContext:
    # Fork keeps worker start-up cheap and inherits the imported compiler;
    # platforms without it (Windows, some macOS configs) spawn instead.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def _compile_batch(
    patterns: Sequence[str],
    options: CompilerOptions,
    clock: BudgetClock,
    cache: "Optional[CompileCache]",
    jobs: int,
) -> Tuple[List[CompiledRegex], Dict[int, str], List[CompileReport]]:
    """Compile every pattern (serially or on a process pool), preserving
    input order in the outputs."""
    slots: List[Optional[CompiledRegex]] = [None] * len(patterns)
    reports: List[Optional[CompileReport]] = [None] * len(patterns)

    pending: List[Tuple[int, str]] = []
    for regex_id, pattern in enumerate(patterns):
        if cache is not None:
            hit = cache.get(pattern, options, regex_id)
            if hit is not None:
                slots[regex_id] = hit
                reports[regex_id] = CompileReport(
                    pattern_id=regex_id, pattern=pattern
                )
                continue
        pending.append((regex_id, pattern))

    workers = min(jobs, len(pending))
    if workers > 1:
        # Workers compile with the deadline stripped: the batch-wide
        # deadline is enforced here in the parent, which can time out a
        # straggler without a clock race across processes.
        worker_options = dataclasses.replace(
            options,
            budget=dataclasses.replace(options.budget, deadline_s=None),
        )
        if telemetry.metrics_enabled():
            telemetry.registry().gauge("compile.parallel.workers").set(workers)
        with _pool_context().Pool(
            processes=workers,
            initializer=_parallel_init,
            initargs=(worker_options,),
        ) as pool:
            results = pool.imap(_parallel_compile, pending)
            for _ in pending:
                try:
                    if clock.expiry is not None:
                        remaining = clock.expiry - time.monotonic()
                        if remaining <= 0:
                            clock.check("compile")
                        regex_id, compiled, report = results.next(
                            timeout=remaining
                        )
                    else:
                        regex_id, compiled, report = next(results)
                except multiprocessing.TimeoutError:
                    pool.terminate()
                    clock.check("compile")  # raises: expiry has passed
                slots[regex_id] = compiled
                reports[regex_id] = report
                if compiled is not None and cache is not None:
                    cache.put(patterns[regex_id], options, compiled)
    else:
        # Cache lookups already happened above; compile misses directly
        # and store the results, so each pattern costs one get + one put.
        for regex_id, pattern in pending:
            compiled, report = compile_pattern_isolated(
                pattern, regex_id, options, clock=clock
            )
            slots[regex_id] = compiled
            reports[regex_id] = report
            if compiled is not None and cache is not None:
                cache.put(pattern, options, compiled)

    compiled_list = [regex for regex in slots if regex is not None]
    final_reports = [report for report in reports if report is not None]
    rejected = {
        report.pattern_id: report.error or ""
        for report in final_reports
        if report.quarantined
    }
    return compiled_list, rejected, final_reports


def compile_ruleset(
    patterns: Sequence[str],
    options: CompilerOptions = CompilerOptions(),
    cache: "Optional[CompileCache]" = None,
    jobs: int = 1,
) -> CompiledRuleset:
    """Compile and map a whole rule set with per-pattern fault isolation.

    A malformed, unsupported, budget-busting, or oversized pattern never
    aborts the batch: it is quarantined into its
    :class:`~repro.resilience.report.CompileReport` (``reports``; the
    legacy ``rejected`` dict mirrors the messages) and the remaining
    patterns compile normally (§6).  Only a batch-wide budget deadline
    (``options.budget.deadline_s``) aborts the whole call, since an
    expired deadline would starve every later pattern anyway.

    ``cache`` short-circuits per-pattern compilation through a
    :class:`repro.compiler.cache.CompileCache`; ``jobs > 1`` compiles
    cache misses on a process pool (deterministic output order, same
    quarantine semantics, deadline still enforced batch-wide).
    """
    clock = options.budget.start()
    with telemetry.span("compile.ruleset", "compile", patterns=len(patterns)):
        compiled, rejected, reports = _compile_batch(
            patterns, options, clock, cache, jobs
        )

        classes = [
            state.cc for regex in compiled for state in regex.ah.states
        ]
        with telemetry.span("compile.encode", "compile", classes=len(classes)):
            encoding = build_encoding(classes)
        clock.check("encode")

        by_id = {report.pattern_id: report for report in reports}
        demands = []
        mappable = []
        for regex in compiled:
            demand = regex.demand()
            if demand.bv_stes > options.arch.bvs_per_array:
                # §6 fallback: more BVs than an array holds — re-compile
                # with the repetitions unfolded into plain STEs.
                unfolded = _try_unfold_fallback(regex, options)
                if unfolded is not None:
                    regex = unfolded
                    demand = regex.demand()
            if (
                demand.total_stes > options.arch.stes_per_array
                or demand.bv_stes > options.arch.bvs_per_array
            ):
                message = (
                    f"automaton too large: {demand.total_stes} STEs / "
                    f"{demand.bv_stes} BVs"
                )
                rejected[regex.regex_id] = message
                report = by_id[regex.regex_id]
                report.status = "quarantined"
                report.error_code = "E_CAPACITY"
                report.error = message
                report.phase = "mapping"
                continue
            demands.append(demand)
            mappable.append(regex)
        with telemetry.span("compile.map", "compile", automata=len(demands)) as sp:
            mapping = map_automata(demands, options.arch)
            sp.set(tiles=mapping.num_tiles, arrays=mapping.num_arrays)
        clock.check("map")

    quarantined = sum(1 for report in reports if report.quarantined)
    if telemetry.metrics_enabled():
        registry = telemetry.registry()
        registry.counter("compile.patterns").inc(len(patterns))
        registry.counter("compile.compiled").inc(len(mappable))
        registry.counter("compile.rejected").inc(len(rejected))
        registry.counter("compile.quarantined").inc(quarantined)
        registry.gauge("compile.tiles").set(mapping.num_tiles)
        registry.gauge("compile.stes").set(
            sum(r.num_stes for r in mappable)
        )
        registry.gauge("compile.bv_stes").set(
            sum(r.num_bv_stes for r in mappable)
        )

    return CompiledRuleset(
        options=options,
        regexes=mappable,
        encoding=encoding,
        mapping=mapping,
        rejected=rejected,
        reports=reports,
    )


def _try_unfold_fallback(
    regex: CompiledRegex, options: CompilerOptions
) -> Optional[CompiledRegex]:
    """Re-compile with full unfolding when that fits the hardware."""
    if (
        regex.unfolded_states is None
        or regex.unfolded_states > options.arch.stes_per_array
    ):
        return None
    try:
        unfolded = compile_ast(
            regex.parsed,
            regex.pattern,
            regex.regex_id,
            options,
            force_unfold=True,
        )
    except ReproError:
        # The unfolding itself blew a budget — no fallback available; the
        # caller will quarantine the original automaton on size instead.
        return None
    # Anchored patterns recompile from the anchor-free union core, so
    # the gated artifacts must be carried over (the scan NFA is already
    # unfolded per variant and does not change under force_unfold).
    unfolded.anchors = regex.anchors
    return unfolded


def _unfolded_size(parsed: ast_mod.Regex, cap: int) -> Optional[int]:
    """Glushkov size after full unfolding, or None when it would exceed cap.

    The symbol count of the unfolded AST *is* the Glushkov state count, so
    the NFA itself need not be built for large regexes.
    """
    estimated = _unfolded_symbols(parsed)
    if estimated > cap:
        return None
    return estimated


def _unfolded_symbols(node: ast_mod.Regex) -> int:
    if isinstance(node, ast_mod.Symbol):
        return 1
    if isinstance(node, ast_mod.Repeat):
        inner = _unfolded_symbols(node.inner)
        bound = node.high if node.high is not None else node.low + 1
        return inner * max(bound, 1)
    return sum(_unfolded_symbols(child) for child in node.children())


def build_unfolded_nfa(parsed: ast_mod.Regex) -> NFA:
    """The baseline processors' automaton: unfold, then Glushkov (§2).

    The unfolding is the flat ``r^m (r?)^(n-m)`` of :func:`unfold_all`,
    O((n-m)²) edges per ``r{m,n}``: the ``nfa`` engine and the
    CA/eAP/CAMA/CNT figures are taken on it.
    """
    return glushkov(unfold_all(parsed))


def build_scan_nfa(compiled: CompiledRegex) -> NFA:
    """The per-pattern NFA the fused software engine executes.

    Counter-free patterns reuse the reduced AH-NBVA state graph directly
    (pruned and quotient-merged by :mod:`repro.compiler.reduce`).
    Patterns that kept live bit vectors after rewriting get the Glushkov
    NFA of the parsed pattern with every ``r{m,n}`` unfolded nested, as
    ``r^m (r(r(…)?)?)?``
    (:func:`repro.automata.glushkov.nested_glushkov`), reduced by the
    same quotients at the level the pattern was compiled with, so
    ``pattern_slice`` narrows on that path too.  It has the positions
    of :func:`build_unfolded_nfa`'s flat unfolding, so the same state
    count, but O(n) edges where the flat one has O((n-m)²), and it is
    built in a loop, at any width, within the default recursion limit.

    Anchored patterns short-circuit to the gated union NFA assembled at
    compile time from the same nested construction, one part per
    variant — the two paths above would re-derive an automaton for the
    *un-gated* union core and lose the positional semantics.
    """
    if compiled.anchors is not None:
        return compiled.anchors.scan_nfa
    if is_counter_free(compiled.ah):
        try:
            return ah_to_nfa(compiled.ah)
        except ValueError:  # malformed finalisation; unfold instead
            pass
    return _nested_nfa(
        compiled.parsed, (compiled.reduction or {}).get("level", 0)
    )


def _nested_nfa(node: ast_mod.Regex, level: int) -> NFA:
    """The nested-unfolded Glushkov NFA of ``node``, reduced at ``level``."""
    nfa = nested_glushkov(node)
    return reduce_nfa(nfa, level=level) if level else nfa
