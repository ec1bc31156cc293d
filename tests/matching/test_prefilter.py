"""The compile-time literal prefilter: extraction pins and the
never-drop-a-match property.

The extractor's contract is *soundness*, not completeness: when
``extract_literals`` returns hints, **every** match of the pattern must
contain one of the hint literals starting at most ``pre`` bytes after
the match start.  Patterns with no usable literal return ``None`` and
the engine keeps their start states always armed, so an extractor that
returns ``None`` too often only costs speed — one that over-claims
loses matches.  The Hypothesis suites below attack both layers: the
extraction contract directly (via ``random_match``) and the fused
engine end to end (prefiltered vs pure-bitset scan of the same rules).
"""

import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compiler import CompilerOptions, compile_pattern
from repro.compiler.prefilter import (
    LiteralHint,
    PatternLiterals,
    extract_literals,
    max_match_len,
)
from repro.matching import PatternSet, build_fused
from repro.regex.generate import random_match, random_regex
from repro.regex.parser import parse
from repro.workloads import (
    PROFILES,
    WORKLOAD_PROFILES,
    dataset_stream,
    generate_pattern,
    import_rules,
    load_dataset,
)

OPTIONS = CompilerOptions(bv_size=8, unfold_threshold=2)


def hints_of(pattern):
    literals = extract_literals(parse(pattern))
    if literals is None:
        return None
    return {(hint.literal, hint.pre) for hint in literals.hints}


class TestExtractionPins:
    def test_plain_literal(self):
        assert hints_of("needle") == {(b"needle", 0)}

    def test_exact_join_through_bounded_repeat(self):
        # b{3} is exact, so the whole concat joins into one literal.
        assert hints_of("ab{3}c") == {(b"abbbc", 0)}

    def test_literal_under_zero_lower_bound_not_required(self):
        """The pin: a literal under ``{0,n}`` (or ``*`` / ``?``) occurs
        in *some* matches, not all — it must never become a hint."""
        assert hints_of("(needle){0,3}") is None
        # With a required suffix the repeat expands exactly: "needle"
        # alone is never a hint, but the unrolled forms (which every
        # match IS one of) are.
        hints = hints_of("(needle){0,3}zz")
        assert (b"zz", 0) in hints
        assert (b"needle", 0) not in hints

    def test_star_prefix_blocks_shifting(self):
        # Unbounded prefix: the suffix literal's offset is unbounded, so
        # no arming window exists and the pattern stays always-on.
        assert hints_of(".*needle") is None
        assert hints_of("a*needle") is None

    def test_nullable_pattern_has_no_requirement(self):
        assert hints_of("(abc)?") is None
        assert hints_of("x*") is None

    def test_alternation_requires_union_of_both_sides(self):
        assert hints_of("needle|haystack") == {(b"needle", 0), (b"haystack", 0)}

    def test_alternation_with_nullable_side_is_unfiltered(self):
        assert hints_of("needle|x*") is None

    def test_small_charclass_expands(self):
        assert hints_of("[ab]cde") == {(b"acde", 0), (b"bcde", 0)}

    def test_wide_charclass_shifts_suffix(self):
        # [0-9] is too wide to expand; a suffix literal arms with a
        # window covering the class bytes instead.
        ((literal, pre),) = hints_of("[0-9]cde")
        assert literal in (b"cde", b"de")
        assert pre + len(literal) <= 4  # within every 4-byte match

    def test_optional_head_keeps_both_forms(self):
        assert hints_of("a?bcd") == {(b"abcd", 0), (b"bcd", 0)}

    def test_plus_requires_one_copy(self):
        hints = hints_of("(abc)+x")
        assert hints is not None
        assert any(literal.startswith(b"abc") for literal, _ in hints)

    def test_long_literal_truncated_to_prefix(self):
        hints = hints_of("a" * 64 + "b")
        assert hints is not None
        ((literal, pre),) = hints
        assert len(literal) <= 16 and pre == 0

    def test_far_alternation_yields_to_an_acceptable_prefix(self):
        # The alternation's 4-byte literals outscore ``ab`` but sit past
        # MAX_PREFIX_DISTANCE; ranking acceptable candidates first keeps
        # the prefix, where the pattern would otherwise stay always-on.
        assert hints_of("ab.{300}(efgh|ijkl)") == {(b"ab", 0)}
        assert hints_of("ab.{200}(efgh|ijkl)") == {
            (b"efgh", 202), (b"ijkl", 202)
        }

    def test_max_match_len(self):
        assert max_match_len(parse("abc")) == 3
        assert max_match_len(parse("a{2,5}")) == 5
        assert max_match_len(parse("a*")) is None
        assert max_match_len(parse("(ab){3}c?")) == 7

    def test_hints_are_picklable(self):
        import pickle

        literals = extract_literals(parse("ab{3}c|xyz"))
        clone = pickle.loads(pickle.dumps(literals))
        assert clone == literals
        assert isinstance(clone, PatternLiterals)
        assert all(isinstance(h, LiteralHint) for h in clone.hints)


class TestCompiledIntegration:
    def test_compiled_regex_carries_literals(self):
        compiled = compile_pattern("needle", options=OPTIONS)
        assert compiled.literals is not None
        assert compiled.literals.hints[0].literal == b"needle"

    def test_unfilterable_pattern_compiles_without_literals(self):
        compiled = compile_pattern(".*ab", options=OPTIONS)
        assert compiled.literals is None

    def test_compile_cache_roundtrips_literals(self, tmp_path):
        from repro.compiler.cache import CompileCache
        from repro.compiler.pipeline import compile_ruleset

        patterns = ["needle", "ab{3}c", ".*x"]
        cache = CompileCache(cache_dir=str(tmp_path))
        cold = compile_ruleset(patterns, OPTIONS, cache=cache)
        # Fresh in-memory layer: force the disk pickles to be loaded.
        warm = compile_ruleset(
            patterns, OPTIONS, cache=CompileCache(cache_dir=str(tmp_path))
        )
        for before, after in zip(cold.regexes, warm.regexes):
            assert before.literals == after.literals

    def test_unfiltered_patterns_stay_always_on(self):
        compiled = [
            compile_pattern(p, i, OPTIONS)
            for i, p in enumerate(["needle", ".*rror"])
        ]
        matcher = build_fused(compiled)
        info = matcher.prefilter_info()
        assert info is not None
        assert info["gated_patterns"] == 1
        assert info["open_patterns"] == 1
        assert info["literals"] == [{"literal": "needle", "pre": 0}]
        # The always-on pattern keeps matching inside unarmed gaps.
        assert matcher.scan(b"zz error zz needle") == [(1, 7), (0, 17)]


class TestStartOnlyPatterns:
    """A pattern whose every start state is ``^``-gated is armed only by
    the stream-offset-0 step: its literals are not swept and it never
    blocks skipping, and ``prefilter_info()`` counts it apart."""

    @staticmethod
    def _info(patterns):
        info = PatternSet(patterns, engine="fused")._fused.prefilter_info()
        if info is not None:
            assert (
                info["gated_patterns"]
                + info["open_patterns"]
                + info["start_only_patterns"]
            ) == len(patterns)
        return info

    @staticmethod
    def _profile(name):
        lines = WORKLOAD_PROFILES[name].ruleset_lines()
        return import_rules(lines).accepted_patterns

    def test_log_scan_plan(self):
        info = self._info(self._profile("log_scan"))
        counts = (
            info["gated_patterns"],
            info["open_patterns"],
            info["start_only_patterns"],
        )
        assert counts == (1, 0, 3)
        assert info["skippable"] and info["tail_bytes"] == 15
        assert info["literals"] == [{"literal": "connection timed", "pre": 0}]

    def test_ids_plan(self):
        info = self._info(self._profile("ids"))
        counts = (
            info["gated_patterns"],
            info["open_patterns"],
            info["start_only_patterns"],
        )
        assert counts == (2, 0, 2)
        # ``(?i)cmd\.exe$`` spells ``cmd.`` eight ways: one folded sweep.
        assert info["literals"] == [{"literal": "../..", "pre": 0}]
        assert info["folded_literals"] == [{"literal": "cmd.", "pre": 0}]
        assert info["tail_bytes"] == 4 and info["skippable"]

    def test_pii_has_no_plan(self):
        assert self._info(self._profile("pii")) is None

    def test_partly_anchored_pattern_stays_gated(self):
        # ``^ab|cd`` arms ``cd`` at every byte, so its literals gate it.
        info = self._info(["^ab|cd", "^xyz"])
        assert (info["gated_patterns"], info["start_only_patterns"]) == (1, 1)

    def test_start_only_set_skips_without_literals(self):
        info = self._info([r"^\d{4}-", "^WARN"])
        assert info["literals"] == [] and info["skippable"]
        assert info["start_only_patterns"] == 2
        ps = PatternSet([r"^\d{4}-", "^WARN"], engine="fused")
        data = b"WARN disk " + b"x" * 40
        assert [(m.pattern_id, m.end) for m in ps.scan(data)] == [(1, 3)]
        counters = ps._fused.counters()
        assert counters["skipped_bytes"] > 0
        assert (
            counters["steps_table"]
            + counters["steps_bitset"]
            + counters["skipped_bytes"]
        ) == len(data)


class TestGatedProfiles:
    """Every pattern of these dataset sets has an acceptable required
    literal, so each plan gates them all and can skip."""

    @pytest.mark.parametrize("name", ["ClamAV", "YARA", "Prosite"])
    def test_sixteen_gated(self, name):
        patterns = load_dataset(name, 16, 1)
        info = PatternSet(patterns, engine="fused")._fused.prefilter_info()
        assert (info["gated_patterns"], info["open_patterns"]) == (16, 0)
        assert info["skippable"]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    max_len=st.integers(min_value=2, max_value=5),
    max_alts=st.integers(min_value=1, max_value=4),
    max_pre=st.integers(min_value=0, max_value=6),
)
def test_an_acceptable_root_candidate_is_never_lost(
    seed, max_len, max_alts, max_pre
):
    """``extract_literals`` returns hints exactly when one of the root's
    candidates passes the acceptance rules: a candidate the rules reject
    never shadows one they pass, at any depth."""
    from repro.compiler.prefilter import _accept, _candidates, _Limits, _Memos

    node = random_regex(
        random.Random(seed), alphabet=b"abcd", depth=3, max_bound=6
    )
    limits = _Limits(max_len=max_len, max_alts=max_alts, max_pre=max_pre)
    acceptable = [
        candidate
        for candidate in _candidates(node, _Memos(limits))
        if _accept(candidate, limits) is not None
    ]
    literals = extract_literals(
        node, max_len=max_len, max_alts=max_alts, max_pre=max_pre
    )
    assert (literals is not None) == bool(acceptable), str(node)


# --- extraction soundness: every match contains a hint in-window --------


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    sample_seed=st.integers(min_value=0, max_value=1_000),
)
def test_every_match_contains_a_hint_in_window(seed, sample_seed):
    node = random_regex(
        random.Random(seed), alphabet=b"abcd", depth=3, max_bound=6
    )
    literals = extract_literals(node)
    assume(literals is not None)
    rng = random.Random(sample_seed)
    for _ in range(5):
        try:
            match = random_match(node, rng, 3)
        except ValueError:
            return
        assert any(
            match.find(hint.literal, 0, hint.pre + len(hint.literal)) != -1
            for hint in literals.hints
        ), (str(node), match, literals.hints)


# --- end-to-end: prefiltered engine never drops (or invents) a match ----


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    name=st.sampled_from(sorted(PROFILES)),
    seed=st.integers(min_value=0, max_value=5_000),
    stream_seed=st.integers(min_value=0, max_value=1_000),
    chunk=st.integers(min_value=1, max_value=17),
)
def test_prefiltered_stream_identical_to_bitset(name, seed, stream_seed, chunk):
    profile = PROFILES[name]
    rng = random.Random(seed)
    patterns = [generate_pattern(rng, profile) for _ in range(3)]
    compiled = [
        compile_pattern(p, i, OPTIONS) for i, p in enumerate(patterns)
    ]
    stream = dataset_stream(
        patterns,
        random.Random(stream_seed),
        200,
        profile.literal_pool,
        plant_rate=0.03,
    )
    expected = build_fused(compiled, table_states=0, prefilter=False).scan(
        stream
    )
    prefiltered = build_fused(compiled)
    assert prefiltered.scan(stream) == expected
    # Same rules, chunked feeds: boundaries land inside arming windows.
    prefiltered.reset()
    got = []
    for start in range(0, len(stream), chunk):
        for slot, end in prefiltered.feed(stream[start:start + chunk]):
            got.append((slot, start + end))
    assert got == expected


# --- case-folded sweep: one find per (?i) literal, the same windows -----


def _windows(spans):
    """Merge ``(lo, hi)`` spans as the plan does (touching ones join)."""
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(window) for window in merged]


@st.composite
def _case_mixed(draw):
    """``(pattern, data)``: a ``(?i)`` literal with one to three letters
    (at most the eight spellings a pattern's hints may hold), and
    mixed-case bytes built from its random-case spellings, case variants
    of its bytes and noise."""
    word = draw(
        st.text(alphabet="abxy.-", min_size=2, max_size=5).filter(
            lambda text: 1 <= sum(char.isalpha() for char in text) <= 3
        )
    )
    piece = st.one_of(
        st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
            lambda upper: "".join(
                char.upper() if up else char for char, up in zip(word, upper)
            )
        ),
        st.text(alphabet="abxyABXY.- z", max_size=4),
    )
    data = "".join(draw(st.lists(piece, max_size=12))).encode()
    return "(?i)" + word.replace(".", r"\."), data


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=_case_mixed(),
    other=st.sampled_from(["xab", "b-y", "[aA]x", "(?i)b-x", None]),
)
def test_folded_sweep_arms_every_spelling(case, other):
    """The folded plan sweeps the lower-cased chunk once per ``(?i)``
    literal, yet arms exactly the windows a ``bytes.find`` sweep of every
    spelling arms, and scans as the unfiltered bitset tier does.  Only a
    complete set of spellings folds: ``[aA]x`` spells ``ax`` two of four
    ways and is swept as spelled."""
    pattern, data = case
    patterns = [pattern] + ([other] if other else [])
    compiled = [compile_pattern(p, i, OPTIONS) for i, p in enumerate(patterns)]
    matcher = build_fused(compiled)
    plan = matcher._plan
    assume(plan is not None)
    spelled = {}
    for slot in plan.gated:
        for hint in compiled[slot].literals.hints:
            spelled[hint.literal] = max(hint.pre, spelled.get(hint.literal, 0))
    assert plan.folded and len(plan.hints) < len(spelled)
    n = len(data)
    spans = [(max(n - plan.tail, 0), n)] if n else []
    for literal, pre in spelled.items():
        idx = data.find(literal)
        while idx >= 0:
            spans.append((max(idx - pre, 0), idx + 1))
            idx = data.find(literal, idx + 1)
    armed = [
        (lo, hi) for lo, hi, mode in matcher._segments(data, 0) if mode == 0
    ]
    assert armed == _windows(spans)
    expected = build_fused(compiled, table_states=0, prefilter=False)
    assert matcher.scan(data) == expected.scan(data)


def test_folded_literal_arms_at_the_widest_pre():
    # ``[0-9](ab)`` needs ``ab`` one byte after its start, ``(?i)ab``
    # none: the folded ``ab`` arms every spelling one byte early.
    compiled = [
        compile_pattern(p, i, OPTIONS)
        for i, p in enumerate(["(?i)ab", "[0-9](ab)"])
    ]
    matcher = build_fused(compiled)
    info = matcher.prefilter_info()
    assert info["literals"] == []
    assert info["folded_literals"] == [{"literal": "ab", "pre": 1}]
    data = b"zz7ab 1Ab 2aB x AB9ab"
    expected = build_fused(compiled, table_states=0, prefilter=False)
    assert matcher.scan(data) == expected.scan(data)
    assert (1, 4) in matcher.scan(data)


def test_only_a_complete_set_of_spellings_folds():
    # ``[aA]x`` holds two of the four spellings of ``ax``: folding them
    # would arm ``aX`` and ``AX`` too, so both are swept as spelled.
    info = PatternSet(["[aA]x", "(?i)b-x"])._fused.prefilter_info()
    assert info["literals"] == [
        {"literal": "Ax", "pre": 0}, {"literal": "ax", "pre": 0}
    ]
    assert info["folded_literals"] == [{"literal": "b-x", "pre": 0}]


# --- the code-unit sweep: every literal at once, the windows of find ----

#: Bytes of the sweep tests: 0xD8-0xDF (the high bytes of UTF-16
#: surrogates), 0xC8-0xCF (what the sweep's byte map merges them with)
#: and a few letters, so that heads are shared and occurrences overlap.
_UNIT_ALPHABET = b"\xc8\xcf\xd8\xd9\xdfaAbB-"


def _find_windows(text, literals, start):
    """The reference: one ``bytes.find`` pass per literal."""
    spans = []
    for literal, pre in literals:
        idx = text.find(literal, start)
        while idx >= 0:
            spans.append((max(idx - pre, start), idx + 1))
            idx = text.find(literal, idx + 1)
    return sorted(spans)


_unit_literal = st.lists(
    st.sampled_from(_UNIT_ALPHABET), min_size=2, max_size=16
).map(bytes)


@st.composite
def _unit_case(draw):
    """``(literals, data, start)``: 1-12 distinct literals of 2-16 bytes
    with their ``pre``, and a chunk built from whole literals, their
    heads and noise, or, in one case of four, from heads alone, so that
    every code unit at even offsets is a key head."""
    literals = draw(
        st.lists(
            st.tuples(_unit_literal, st.integers(0, 5)),
            min_size=1,
            max_size=12,
            unique_by=lambda hint: hint[0],
        )
    )
    heads = [literal[:2] for literal, _ in literals]
    if draw(st.integers(0, 3)) == 0:
        piece = st.sampled_from(heads)
    else:
        piece = st.one_of(
            st.sampled_from([literal for literal, _ in literals]),
            st.sampled_from(heads),
            st.lists(st.sampled_from(_UNIT_ALPHABET), max_size=3).map(bytes),
        )
    data = b"".join(draw(st.lists(piece, max_size=24)))
    return tuple(literals), data, draw(st.integers(0, 1))


@settings(max_examples=300, deadline=None)
@given(case=_unit_case())
def test_unit_sweep_finds_what_find_finds(case):
    """Searched as code units at both byte parities, every literal yields
    exactly the windows of its own ``find`` pass: overlapping, adjacent
    and chunk-final occurrences, 2- and 3-byte literals, shared heads
    and bytes the map merges."""
    from repro.matching.fused import _UnitSweep

    literals, data, start = case
    spans = []
    _UnitSweep(literals).sweep(data, start, spans)
    assert sorted(spans) == _find_windows(data, literals, start)


def test_unit_sweep_every_unit_a_head():
    """A chunk of nothing but key heads, at both parities, with many
    heads per group: each candidate is checked, none is invented."""
    from repro.matching.fused import _UnitSweep

    rng = random.Random(5)
    words = {
        bytes(rng.choice(b"\xd8\xdc\xdfab-") for _ in range(rng.randint(2, 9)))
        for _ in range(120)
    }
    literals = tuple((word, 3) for word in sorted(words))
    heads = sorted({literal[:2] for literal, _ in literals})
    sweep = _UnitSweep(literals)
    assert len(sweep.searches) > 1
    data = b"".join(rng.choice(heads) for _ in range(600))
    for chunk in (data, data[1:], b"x" + data):
        for start in (0, 1):
            spans = []
            sweep.sweep(chunk, start, spans)
            assert sorted(spans) == _find_windows(chunk, literals, start)


def _escaped(literal):
    return "".join(f"\\x{byte:02x}" for byte in literal)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(case=_unit_case(), fold=st.booleans())
def test_unit_sweep_plan_arms_the_find_windows(case, fold):
    """Through a plan whose every sweep searches code units (the
    crossover lowered to one literal), the armed windows equal those of
    one ``find`` per literal, folded ``(?i)`` literals over the
    lower-cased chunk, and the scan equals the unfiltered bitset tier's."""
    from unittest import mock

    from repro.matching import fused as fused_module

    literals, data, start = case
    patterns = [_escaped(literal) for literal, _ in literals]
    if fold:
        patterns[:3] = ["(?i)" + pattern for pattern in patterns[:3]]
    compiled = [compile_pattern(p, i, OPTIONS) for i, p in enumerate(patterns)]
    with mock.patch.object(fused_module, "UNIT_SWEEP_MIN_LITERALS", 1):
        matcher = build_fused(compiled)
    plan = matcher._plan
    assume(plan is not None)
    assert all(units is not None for _, _, units in plan.sweeps)
    n = len(data)
    spans = [(max(n - plan.tail, start), n)] if n > start else []
    spans += _find_windows(data, plan.hints, start)
    spans += _find_windows(data.lower(), plan.folded, start)
    segments = matcher._segments(data, start)
    armed = [(lo, hi) for lo, hi, mode in segments if mode == 0]
    assert armed == _windows(spans)
    expected = build_fused(compiled, table_states=0, prefilter=False)
    assert matcher.scan(data) == expected.scan(data)


class TestUnitSweepPlans:
    """Which plans search code units, and RegexLib-64's fully gated plan."""

    def test_regexlib_64_is_fully_gated(self):
        patterns = load_dataset("RegexLib", 64, 1)
        matcher = PatternSet(patterns, engine="fused")._fused
        info = matcher.prefilter_info()
        counts = (info["gated_patterns"], info["open_patterns"])
        assert counts == (64, 0) and info["skippable"]
        ((folded, literals, units),) = matcher._plan.sweeps
        assert not folded and len(literals) == 113
        assert len(units.by_head) == 66 and len(units.searches) == 4

    def test_small_plans_keep_the_find_loop(self):
        for name in ("log_scan", "ids"):
            lines = WORKLOAD_PROFILES[name].ruleset_lines()
            patterns = import_rules(lines).accepted_patterns
            plan = PatternSet(patterns, engine="fused")._fused._plan
            assert plan.sweeps
            assert all(units is None for _, _, units in plan.sweeps)
