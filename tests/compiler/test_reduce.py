"""Reduction-equivalence battery for ``compiler.reduce``.

The quotient pass (follow/right and left merges over the position
automaton, composed with dead-state pruning) must be *exactly* match
stream preserving: pinned worked examples verify the individual merge
rules and the counter-scope merge barrier, a Hypothesis fuzzer checks
the reduced pipeline against the unreduced one across every engine, and
an accept/reject differential checks both against Python's ``re``.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.automata import NFA
from repro.automata.ah import is_counter_free
from repro.regex import CharClass
from repro.compiler import (
    DEFAULT_REDUCE_LEVEL,
    REDUCE_LEVELS,
    CompilerOptions,
    build_scan_nfa,
    compile_ast,
    compile_pattern,
    reduce_ah,
    reduce_nfa,
)
from repro.compiler import reduce as reduce_module
from repro.compiler.pipeline import build_unfolded_nfa
from repro.matching import ENGINES, PatternSet
from repro.regex.generate import random_regex

REDUCED = CompilerOptions(bv_size=8, unfold_threshold=2)
UNREDUCED = CompilerOptions(bv_size=8, unfold_threshold=2, reduce_level=0)

SUMMARY_KEYS = {
    "level",
    "states_before",
    "states_after",
    "bv_stes_before",
    "bv_stes_after",
    "edges_before",
    "edges_after",
    "pruned",
    "merged_follow",
    "merged_left",
    "passes",
}


class TestWorkedExamples:
    def test_follow_equivalent_states_merge(self):
        """``(ab|cb)d``: the two ``b`` positions share their follow set
        and reporting behaviour — a follow (right) merge collapses them."""
        compiled = compile_pattern("(ab|cb)d", options=REDUCED)
        summary = compiled.reduction_summary
        assert summary["merged_follow"] == 1
        assert summary["states_after"] == summary["states_before"] - 1
        assert compiled.ah.num_states == summary["states_after"]

    def test_left_equivalent_states_merge(self):
        """``ab|ac``: the two ``a`` positions have identical predecessor
        sets — only the left quotient (level 2) can merge them."""
        compiled = compile_pattern("ab|ac", options=REDUCED)
        summary = compiled.reduction_summary
        assert summary["merged_left"] == 1
        assert summary["states_after"] == summary["states_before"] - 1

    def test_level_1_performs_follow_but_not_left_merges(self):
        level1 = CompilerOptions(bv_size=8, unfold_threshold=2, reduce_level=1)
        follow = compile_pattern("(ab|cb)d", options=level1)
        assert follow.reduction_summary["merged_follow"] == 1
        left_only = compile_pattern("ab|ac", options=level1)
        assert left_only.reduction_summary["merged_left"] == 0
        assert (
            left_only.reduction_summary["states_after"]
            == left_only.reduction_summary["states_before"]
        )

    def test_shared_affix_alternation_collapses(self):
        """The unfactored ``(coamz|cobmz|cocmz)`` group: both affix
        copies collapse, leaving one spelled-out prefix/suffix plus the
        three distinguishing middles."""
        reduced = compile_pattern("(coamz|cobmz|cocmz)", options=REDUCED)
        plain = compile_pattern("(coamz|cobmz|cocmz)", options=UNREDUCED)
        assert reduced.ah.num_states == plain.ah.num_states - 8
        for data in (b"coamz", b"cocmz", b"codmz", b"xcobmzy"):
            assert reduced.ah.match_ends(data) == plain.ah.match_ends(data)

    @pytest.mark.parametrize("pattern", ["x{2,60}y", "ab{2,4}c", "a.{3}b"])
    def test_counter_scope_is_a_merge_barrier(self, pattern):
        """Counting states never merge: scopes, state count, and the
        match stream are identical with the pass on and off."""
        reduced = compile_pattern(pattern, options=REDUCED)
        plain = compile_pattern(pattern, options=UNREDUCED)
        summary = reduced.reduction_summary
        assert summary["merged_follow"] == 0
        assert summary["merged_left"] == 0
        assert reduced.ah.num_states == plain.ah.num_states
        assert len(reduced.ah.scopes) == len(plain.ah.scopes)
        for mine, theirs in zip(reduced.ah.scopes, plain.ah.scopes):
            assert (mine.low, mine.high) == (theirs.low, theirs.high)
        data = b"xx" + b"ab" * 30 + b"abbbc" + b"y"
        assert reduced.ah.match_ends(data) == plain.ah.match_ends(data)

    def test_counter_free_projection_reduces_to_fixpoint(self):
        """Counter-free automata have no frozen states, so a second
        application of the pass finds nothing left to merge."""
        compiled = compile_pattern("(ab|cb)d|ab|ac", options=REDUCED)
        assert is_counter_free(compiled.ah)
        again, summary = reduce_ah(compiled.ah)
        assert again.num_states == compiled.ah.num_states
        assert summary["merged_follow"] == 0
        assert summary["merged_left"] == 0
        assert summary["pruned"] == 0


class TestSummary:
    def test_summary_fields_and_property(self):
        compiled = compile_pattern("(ab|cb)d", options=REDUCED)
        summary = compiled.reduction_summary
        assert set(summary) == SUMMARY_KEYS
        assert summary["level"] == DEFAULT_REDUCE_LEVEL
        assert summary["passes"] >= 1
        assert summary["edges_after"] <= summary["edges_before"]
        # The property returns a copy: mutating it cannot corrupt the
        # compiled artifact.
        summary["states_after"] = -1
        assert compiled.reduction_summary["states_after"] != -1

    def test_level_0_reports_prune_only_summary(self):
        compiled = compile_pattern("(ab|cb)d", options=UNREDUCED)
        summary = compiled.reduction_summary
        assert summary["level"] == 0
        assert summary["merged_follow"] == 0
        assert summary["merged_left"] == 0
        assert summary["states_after"] == summary["states_before"]

    def test_pruned_counts_fold_into_summary(self):
        """Dead states dropped by ``automata.optimize.prune`` are folded
        into the same summary as the merge counts."""
        compiled = compile_pattern("ab|ac", options=REDUCED)
        summary = compiled.reduction_summary
        assert summary["pruned"] >= 0
        assert (
            summary["states_before"]
            - summary["pruned"]
            - summary["merged_follow"]
            - summary["merged_left"]
            == summary["states_after"]
        )


class TestLevelValidation:
    @pytest.mark.parametrize("level", [-1, 3, 99])
    def test_reduce_ah_rejects_unknown_levels(self, level):
        compiled = compile_pattern("ab", options=UNREDUCED)
        with pytest.raises(ValueError):
            reduce_ah(compiled.ah, level=level)

    @pytest.mark.parametrize("level", [-1, 3])
    def test_reduce_nfa_rejects_unknown_levels(self, level):
        nfa = build_unfolded_nfa(compile_pattern("ab", options=UNREDUCED).parsed)
        with pytest.raises(ValueError):
            reduce_nfa(nfa, level=level)

    @pytest.mark.parametrize("level", [-1, 3])
    def test_compiler_options_reject_unknown_levels(self, level):
        with pytest.raises(ValueError):
            CompilerOptions(reduce_level=level)

    def test_every_declared_level_compiles(self):
        for level in REDUCE_LEVELS:
            compiled = compile_pattern(
                "ab|ac", options=CompilerOptions(reduce_level=level)
            )
            assert compiled.reduction_summary["level"] == level


class TestReduceNFA:
    def test_unfolded_nfa_quotient_preserves_matches(self):
        parsed = compile_pattern("ab|ac", options=UNREDUCED).parsed
        nfa = build_unfolded_nfa(parsed)
        reduced = reduce_nfa(nfa)
        assert reduced.num_states < nfa.num_states
        for data in (b"ab", b"ac", b"aa", b"xaby", b"abac"):
            assert reduced.match_ends(data) == nfa.match_ends(data)

    def test_level_0_only_prunes(self):
        parsed = compile_pattern("ab|ac", options=UNREDUCED).parsed
        nfa = build_unfolded_nfa(parsed)
        assert reduce_nfa(nfa, level=0).num_states == nfa.num_states

    def test_dead_states_are_pruned(self):
        a, b = CharClass.from_char(ord("a")), CharClass.from_char(ord("b"))
        # 0 -a-> 1(final); 2 is reachable but dead, 3 is unreachable.
        nfa = NFA(
            classes=[a, b, a, b],
            transitions=[[1, 2], [], [], [1]],
            initial={0},
            final={1},
        )
        reduced = reduce_nfa(nfa)
        assert reduced.num_states == 2
        assert reduced.match_ends(b"ab") == nfa.match_ends(b"ab")

    def test_match_empty_flag_is_carried(self):
        parsed = compile_pattern("a?b|a?c", options=UNREDUCED).parsed
        nfa = build_unfolded_nfa(parsed)
        nfa.match_empty = True
        assert getattr(reduce_nfa(nfa), "match_empty", False)

    def test_build_scan_nfa_respects_compiled_level(self):
        """The counting scan path reduces exactly when the artifact was
        compiled with reduction on."""
        pattern = "(ab|cb)dz{2,9}(ab|cb)d"
        reduced = build_scan_nfa(compile_pattern(pattern, options=REDUCED))
        plain = build_scan_nfa(compile_pattern(pattern, options=UNREDUCED))
        assert reduced.num_states < plain.num_states
        data = b"abd" + b"z" * 5 + b"cbd"
        assert reduced.match_ends(data) == plain.match_ends(data)


def _fixpoint_refine(seeds, adjacency, frozen):
    """Reference partition: split every block by its states' adjacent
    block sets, one pass over all edges per round, until none splits."""
    block_of = [
        ("frozen", q) if frozen[q] else ("seed", seeds[q])
        for q in range(len(seeds))
    ]
    while True:
        refined = [
            (block_of[q], frozenset(block_of[n] for n in adjacency[q]))
            for q in range(len(seeds))
        ]
        if len(set(refined)) == len(set(block_of)):
            break
        block_of = refined
    blocks = {}
    for q, block in enumerate(block_of):
        blocks.setdefault(block, []).append(q)
    return sorted(blocks.values())


class TestRefine:
    """The worklist partition refinement behind both quotients."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fixpoint_reference(self, seed):
        """Random graphs with duplicate edges, self loops and frozen
        states: the same coarsest stable partition as the reference."""
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randint(1, 30)
            adjacency = [
                [rng.randrange(n) for _ in range(rng.randint(0, 4))]
                for _ in range(n)
            ]
            seeds = [rng.randrange(3) for _ in range(n)]
            frozen = [rng.random() < 0.15 for _ in range(n)]
            assert reduce_module._refine(
                seeds, adjacency, frozen
            ) == _fixpoint_refine(seeds, adjacency, frozen)

    def test_hash_collision_is_retried(self, monkeypatch):
        """A salt under which every block hash collides leaves a block
        unstable; the final check rejects it and the next salt refines
        exactly."""
        real = reduce_module._block_hash
        salts = []

        def colliding(block_id, salt):
            salts.append(salt)
            return 0 if salt == 0 else real(block_id, salt)

        monkeypatch.setattr(reduce_module, "_block_hash", colliding)
        # A chain of three same-class states into a final one: every
        # state is distinguishable by its distance to the final state.
        blocks = reduce_module._refine(
            [0, 0, 0, 1], [[1], [2], [3], []], [False] * 4
        )
        assert blocks == [[0], [1], [2], [3]]
        assert max(salts) == 1


# --- property fuzz: reduced pipeline == unreduced pipeline --------------


def _stream(data):
    return bytes(
        data.draw(
            st.lists(
                st.sampled_from([ord("a"), ord("b"), ord("c")]),
                min_size=0,
                max_size=30,
            )
        )
    )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_reduced_streams_identical_on_every_engine(seed, data):
    """The headline property: for random regexes and inputs, every
    engine produces a byte-identical match stream with the reduction
    pass on and off."""
    rng = random.Random(seed)
    node = random_regex(rng, alphabet=b"ab", depth=3, max_bound=7)
    pattern = str(node)
    stream = _stream(data)
    for engine in ENGINES:
        reduced = PatternSet([pattern], options=REDUCED, engine=engine)
        plain = PatternSet([pattern], options=UNREDUCED, engine=engine)
        assert reduced.scan(stream) == plain.scan(stream), (pattern, engine)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_reduced_matcher_end_sets_are_exact(seed, data):
    """Denser variant on the in-process matchers: the *end position
    sets* (not just accept/reject) agree at every reduction level, and
    counter scopes survive untouched."""
    rng = random.Random(seed)
    node = random_regex(rng, alphabet=b"ab", depth=3, max_bound=7)
    stream = _stream(data)
    plain = compile_ast(node, str(node), options=UNREDUCED)
    expected = plain.ah.match_ends(stream)
    for level in (1, 2):
        options = CompilerOptions(bv_size=8, unfold_threshold=2, reduce_level=level)
        compiled = compile_ast(node, str(node), options=options)
        assert compiled.ah.match_ends(stream) == expected, (str(node), level)
        assert len(compiled.ah.scopes) == len(plain.ah.scopes)
    reduced_nfa = reduce_nfa(build_unfolded_nfa(plain.parsed))
    assert reduced_nfa.match_ends(stream) == build_unfolded_nfa(
        plain.parsed
    ).match_ends(stream)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_reduced_accepts_iff_python_re(seed, data):
    """Accept/reject differential against an independent oracle: the
    reduced automaton finds a match iff Python's ``re`` does."""
    rng = random.Random(seed)
    node = random_regex(rng, alphabet=b"ab", depth=3, max_bound=7)
    pattern = str(node)
    try:
        oracle = re.compile(pattern.encode(), re.DOTALL)
    except re.error:
        assume(False)
    # Empty-width matches are reported through a separate flag by the
    # engines; keep the differential on non-nullable patterns.
    assume(oracle.match(b"") is None)
    stream = _stream(data)
    compiled = compile_ast(node, pattern, options=REDUCED)
    assert bool(compiled.ah.match_ends(stream)) == bool(
        oracle.search(stream)
    ), pattern


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_reduction_is_idempotent(seed):
    rng = random.Random(seed)
    node = random_regex(rng, alphabet=b"ab", depth=3, max_bound=7)
    compiled = compile_ast(node, str(node), options=REDUCED)
    again, summary = reduce_ah(compiled.ah)
    assert again.num_states == compiled.ah.num_states, str(node)
    assert summary["merged_follow"] == summary["merged_left"] == 0
