"""The scan NFA's nested ``{m,n}`` unfolding.

:func:`repro.compiler.pipeline.build_scan_nfa` unfolds every bounded
repetition as ``r^m (r(r(…)?)?)?`` inside the Glushkov construction
(:func:`repro.automata.glushkov.nested_glushkov`): the positions of the
flat ``r^m (r?)^(n-m)`` that :func:`build_unfolded_nfa` gives the ``nfa``
engine and the baselines, the same language, and O(n) edges instead of
O((n-m)²).  These tests hold the two constructions to the same streams
and positions, bound the nested edges, and pin the flat edges so the
baselines provably keep their unfolding.  They also hold the shift step
(:class:`repro.automata.nfa.ShiftPlan`) to the per-state step it
replaced, which the library no longer keeps: the reference is here.
"""

import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.automata.glushkov import glushkov, nested_glushkov
from repro.automata.nfa import (
    NFAMatcher,
    build_match_masks,
    build_shift_plan,
    states_to_mask,
)
from repro.compiler import CompilerOptions
from repro.compiler.pipeline import (
    build_scan_nfa,
    build_unfolded_nfa,
    compile_pattern,
)
from repro.matching import Match, PatternSet
from repro.matching.fused import FusedMatcher, fuse_patterns
from repro.matching.oracle import match_ends as oracle_ends
from repro.regex import ast
from repro.regex.charclass import CharClass
from repro.regex.rewrite import unfold_all
from repro.regex.parser import parse
from repro.resilience.errors import BudgetExceededError, ReproError
from repro.workloads.datasets import load_dataset

#: A small BV and unfold threshold send every range wider than 2 down
#: the unfolded scan path rather than the counter-free AH-NBVA graph.
OPTIONS = CompilerOptions(bv_size=8, unfold_threshold=2)

#: Repetition bodies: plain, multi-byte, classes, nullable (``a?``,
#: ``a?b?``), alternations, a nested range and a starred prefix.
INNERS = [
    "a", "ab", "[ab]", ".", "a?", "(a?b?)", "(ab|c)", "(a|b?)",
    "(a{1,3}b)", "(a*b)", "(ab?)",
]
PREFIXES = ["", "x", "xa", "[ac]"]
SUFFIXES = ["", "c", "b", "cx"]
#: ``(start, end)`` anchor spellings around the pattern.
ANCHORS = [
    ("", ""), ("^", ""), ("", "$"), ("^", "$"), (r"\b", ""), ("", r"\b"),
]

#: The ClamAV signature whose ``.{1,1575}`` gap the flat unfolding
#: turns into 1,241,155 edges.
CLAMAV_GAP = (
    "(ef4f0e7ab9|e75957a043f51e420d190e4)[0-9a-f]+.{1,1575}"
    "c62dc0bf15344d8910a77"
)


@st.composite
def ranged_patterns(draw):
    low = draw(st.integers(min_value=0, max_value=5))
    if draw(st.booleans()):
        bounds = f"{{{low},}}"
    else:
        high = draw(st.integers(min_value=max(low, 1), max_value=low + 9))
        bounds = f"{{{low},{high}}}"
    start, end = draw(st.sampled_from(ANCHORS))
    return "".join((
        start,
        draw(st.sampled_from(PREFIXES)),
        "(" + draw(st.sampled_from(INNERS)) + ")",
        bounds,
        draw(st.sampled_from(SUFFIXES)),
        end,
    ))


def cores(compiled):
    """The anchor-free ASTs the scan NFA unfolds: one per variant."""
    if compiled.anchors is None:
        return [compiled.parsed]
    return [variant.core for variant in compiled.anchors.variants]


def repeat_depth(node):
    """How many ``Repeat`` nodes nest at the deepest point."""
    below = max((repeat_depth(child) for child in node.children()), default=0)
    return below + isinstance(node, ast.Repeat)


def degree_bound(core):
    """Most successors one nested-unfolded position may have.

    A successor sharing the position's copy of every enclosing
    repetition is fixed by its symbol; any other starts the next copy
    of (or loops back into) one enclosing repetition, which fixes the
    copy too.  So each of the AST's symbols appears at most
    ``depth + 1`` times among the successors, whatever the bounds.
    """
    return (repeat_depth(core) + 1) * ast.symbol_count(core)


def per_state_successors(transitions, active):
    """The step the shift plan replaced: OR every live state's
    successors, one state at a time."""
    out = 0
    for state, dsts in enumerate(transitions):
        if active >> state & 1:
            for dst in dsts:
                out |= 1 << dst
    return out


def compile_or_reject(patterns):
    try:
        return [
            compile_pattern(pattern, index, OPTIONS)
            for index, pattern in enumerate(patterns)
        ]
    except ReproError:
        assume(False)  # an unsupported anchor placement


def events_fed(pattern_set, stream, step):
    pattern_set.reset()
    out = []
    for base in range(0, len(stream), step):
        for match in pattern_set.feed(stream[base:base + step]):
            out.append(Match(match.pattern_id, base + match.end))
    out.extend(pattern_set.finish())
    return sorted(out, key=lambda match: (match.end, match.pattern_id))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    patterns=st.lists(ranged_patterns(), min_size=1, max_size=3),
    stream=st.lists(st.sampled_from(list(b"aabbcx -")), max_size=40),
)
def test_nested_scan_nfa_matches_flat_and_oracle(patterns, stream):
    stream = bytes(stream)
    compiled = compile_or_reject(patterns)
    expected = []
    for index, regex in enumerate(compiled):
        source = regex.anchors.source if regex.anchors else regex.parsed
        expected.extend(
            Match(index, end) for end in oracle_ends(source, stream)
        )
        scan = build_scan_nfa(regex)
        edge_budget = 0
        for core in cores(regex):
            flat = build_unfolded_nfa(core)
            nested = nested_glushkov(core)
            assert nested.classes == flat.classes, regex.pattern
            assert nested.match_ends(stream) == flat.match_ends(stream)
            assert nested.match_empty == flat.match_empty
            bound = degree_bound(core)
            assert max(map(len, nested.transitions), default=0) <= bound
            edge_budget += bound * nested.num_states
        if regex.anchors is None:
            flat = build_unfolded_nfa(regex.parsed)
            assert scan.match_ends(stream) == flat.match_ends(stream)
        assert scan.num_transitions() <= edge_budget, regex.pattern
    expected.sort(key=lambda match: (match.end, match.pattern_id))

    fused = PatternSet(patterns, options=OPTIONS, engine="fused")
    reference = PatternSet(patterns, options=OPTIONS, engine="nfa")
    try:
        assert fused.scan(stream) == expected, patterns
        assert reference.scan(stream) == expected, patterns
        for step in (1, 7):
            assert events_fed(fused, stream, step) == expected, (patterns, step)
    finally:
        fused.close()
        reference.close()


STEP_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STREAMS = st.lists(st.sampled_from(list(b"aabbcx -")), max_size=40)


@STEP_SETTINGS
@given(
    patterns=st.lists(ranged_patterns(), min_size=1, max_size=3),
    stream=STREAMS,
    data=st.data(),
)
def test_fused_shift_step_equals_per_state_step(patterns, stream, data):
    """Every activation of a fused set: the shift step equals the
    per-state step under the full injection, the prefilter's reduced
    one and the stream-offset-0 step's, along a walk that switches
    between them at random and from random activations."""
    matcher = FusedMatcher(fuse_patterns(compile_or_reject(patterns)))
    transitions = matcher.fused.transitions
    injections = (
        matcher._inject_initial,
        matcher._open_initial,
        matcher._initial_mask,
    )

    def assert_steps_equal(active, symbol):
        steps = []
        for inject in injections:
            expected = (
                inject | per_state_successors(transitions, active)
            ) & matcher._match_masks[symbol]
            assert matcher._step(active, symbol, inject) == expected
            steps.append(expected)
        return steps

    active = 0
    for symbol in stream:
        active = assert_steps_equal(active, symbol)[
            data.draw(st.integers(0, 2), label="injection")
        ]
    everything = (1 << matcher.fused.num_states) - 1
    for _ in range(4):
        assert_steps_equal(
            data.draw(st.integers(0, everything), label="activation"),
            data.draw(st.sampled_from(b"abcx-"), label="symbol"),
        )


@STEP_SETTINGS
@given(
    patterns=st.lists(ranged_patterns(), min_size=1, max_size=2),
    stream=STREAMS,
    data=st.data(),
)
def test_nfa_matcher_shift_step_equals_per_state_step(patterns, stream, data):
    """The ``nfa`` engine's flat unfoldings, stepped by ``NFAMatcher``:
    every activation equals the per-state step's."""
    for regex in compile_or_reject(patterns):
        for core in cores(regex):
            nfa = build_unfolded_nfa(core)
            matcher = NFAMatcher(nfa)
            masks = build_match_masks(nfa.classes)
            initial = states_to_mask(nfa.initial)
            active = 0
            for symbol in stream:
                active = (
                    initial | per_state_successors(nfa.transitions, active)
                ) & masks[symbol]
                matcher.step(symbol)
                assert matcher.active == active, regex.pattern
            plan = build_shift_plan(nfa.transitions)
            mask = data.draw(st.integers(0, (1 << nfa.num_states) - 1))
            assert plan.successors(mask) == per_state_successors(
                nfa.transitions, mask
            )


class TestNestedConstruction:
    @pytest.mark.parametrize(
        "pattern", ["(a?){2,5}", "(ab|c){0,7}d", "(a{1,3}b){0,4}", "a{3,}b",
                    "(a?b?){2,}c", "x(a*b){1,6}"],
    )
    def test_same_positions_and_language_as_flat(self, pattern):
        node = parse(pattern)
        flat = glushkov(unfold_all(node))
        nested = nested_glushkov(node)
        assert nested.classes == flat.classes
        assert nested.match_empty == flat.match_empty
        data = b"xaabcabbbcab ab abababcd aaaaab xbbab"
        assert nested.match_ends(data) == flat.match_ends(data)
        assert oracle_ends(node, data) == nested.match_ends(data)
        assert nested.num_transitions() <= flat.num_transitions()

    def test_a_wide_gap_is_a_chain(self):
        nested = nested_glushkov(parse("a.{0,40}b"))
        # a links to the first gap copy and to b, each copy to the next
        # one and to b: one chain, no copy skipped over.
        assert nested.num_states == 42
        assert nested.num_transitions() == 2 + 40 + 39

    def test_zero_copies_build_nothing(self):
        node = ast.concat(
            ast.Repeat(ast.symbol(CharClass.from_char(97)), 0, 0),
            ast.symbol(CharClass.from_char(98)),
        )
        assert nested_glushkov(node).num_states == 1

    def test_unfold_budget_still_applies(self):
        # 1,001,000 symbols, past DEFAULT_MAX_UNFOLD (1,000,000): refused
        # before a copy is built, as unfold_all refuses it.
        node = parse("(a{1000}){1001}")
        with pytest.raises(BudgetExceededError):
            unfold_all(node)
        with pytest.raises(BudgetExceededError):
            nested_glushkov(node)


class TestWideGaps:
    """Wide gaps build in linear time and stack depth."""

    @pytest.mark.parametrize(
        "pattern,states,max_edges",
        [("a.{0,5000}b", 5002, 3 * 5002), (CLAMAV_GAP, 1629, 10_000)],
    )
    def test_builds_at_the_default_recursion_limit(
        self, pattern, states, max_edges
    ):
        limit = sys.getrecursionlimit()
        nfa = build_scan_nfa(compile_pattern(pattern))
        assert sys.getrecursionlimit() == limit
        assert nfa.num_states == states
        assert nfa.num_transitions() < max_edges

    def test_gaps_match_as_before(self):
        gap = build_scan_nfa(compile_pattern("a.{0,5000}b"))
        assert gap.match_ends(b"zab-a" + b"z" * 40 + b"b") == [2, 45]
        clamav = build_scan_nfa(compile_pattern(CLAMAV_GAP))
        hit = b"ef4f0e7ab9" + b"0f" + b"-" * 30 + b"c62dc0bf15344d8910a77"
        assert clamav.match_ends(hit) == [len(hit) - 1]
        assert clamav.match_ends(hit.replace(b"0f-", b"-0-")) == []


class TestFlatBaselineUnchanged:
    """``build_unfolded_nfa`` keeps the flat ``r^m (r?)^(n-m)``, whose
    edge counts the baselines' figures rest on."""

    @pytest.mark.parametrize(
        "pattern,states,edges",
        [
            ("ab{2,40}c", 42, 782),
            ("x.{1,30}y", 32, 466),
            ("(ab|c){0,7}d", 22, 105),
            ("(a{1,3}b){0,4}", 16, 30),
            ("(a?){2,5}", 5, 10),
            ("a{3,}b", 5, 6),
        ],
    )
    def test_flat_edge_counts(self, pattern, states, edges):
        flat = build_unfolded_nfa(compile_pattern(pattern).parsed)
        assert (flat.num_states, flat.num_transitions()) == (states, edges)


class TestDatasetScanNFAs:
    """The fused state count is the flat one; the edges are not.  Nearly
    every edge is a forward one, so the shift step reads only a few
    groups."""

    @pytest.mark.parametrize(
        "name,count,states,edges,forward,loops,groups",
        [
            ("RegexLib", 64, 1944, 2345, 1765, 12, 150),
            ("ClamAV", 16, 4025, 4173, 4006, 10, 8),
            ("YARA", 16, 3102, 4144, 3080, 3, 11),
            ("Snort", 16, 1717, 1772, 1696, 8, 11),
        ],
    )
    def test_states_and_edges(
        self, name, count, states, edges, forward, loops, groups
    ):
        compiled = [
            compile_pattern(pattern, index)
            for index, pattern in enumerate(load_dataset(name, count, 1))
        ]
        fused = fuse_patterns(compiled)
        plan = build_shift_plan(fused.transitions)
        assert fused.num_states == states
        assert sum(len(dsts) for dsts in fused.transitions) == edges
        assert bin(plan.forward).count("1") == forward
        assert bin(plan.keep).count("1") == loops
        assert plan.num_groups == groups

    @pytest.mark.parametrize("width", [16, 256, 1024])
    def test_a_chain_is_one_group(self, width):
        """Per-byte time grows with the number of chains, not with their
        length: however wide the gap, ``a.{0,n}b`` is one group, and each
        further chain adds one."""
        chain = compile_pattern(f"a.{{0,{width}}}b")
        plan = build_shift_plan(fuse_patterns([chain]).transitions)
        assert bin(plan.forward).count("1") == width + 1
        assert plan.num_groups == 1
        two = fuse_patterns([chain, compile_pattern(f"c.{{0,{width}}}d", 1)])
        assert build_shift_plan(two.transitions).num_groups == 2
