"""Golden corpus: realistic mixed patterns through every engine.

A hand-curated set of rule-like patterns spanning the supported feature
space, each run over a crafted input that exercises its matches and
near-misses, verified across all engines (including the fused
multi-pattern engine) and against the oracle.
"""

import pytest

from repro.compiler import CompilerOptions, compile_pattern
from repro.compiler.pipeline import build_unfolded_nfa
from repro.hardware.activity import AHStepper
from repro.hardware.naive import NaiveMachine
from repro.matching import PatternSet, build_fused
from repro.matching.oracle import match_ends as oracle_ends
from repro.resilience import Budget

OPTIONS = CompilerOptions(bv_size=16, unfold_threshold=2)

#: (pattern, input) pairs. Inputs are sized for the O(n^3) oracle.
CORPUS = [
    # network-rule shapes
    ("GET /[a-z]{4,12}", b"GET /admin GET /x"),
    ("Host: .{6}end", b"Host: 123456end"),
    ("(?i)select.{4}from", b"SELECT ---FROM x"),
    ("\\x00{4}[\\x80-\\xff]", b"\x00\x00\x00\x00\x90"),
    # malware-signature shapes
    ("aa(bb|cc){3}dd", b"aabbccbbdd aaccccccdd"),
    ("[0-9a-f]{8}", b"deadbeef cafe0123"),
    ("x{4,}y", b"xxxxy xxxy xxxxxxy"),
    # bio-motif shapes
    ("C.{2,4}C.{3}H", b"CaaCxyzH CaaaaaCxxxH"),
    ("L.{6}L.{6}L", b"LabcdefLghijklL"),
    # general regex-library shapes
    ("[a-z]+@[a-z]{2,8}\\.com", b"bob@mail.com a@b.com"),
    ("\\d{3}-\\d{4}", b"555-1234 55-123"),
    ("a(b?c){2,5}d", b"abcbccd acbcd"),
    ("(ab){2}(cd){2}", b"ababcdcd abcdcd"),
    ("[^x]{5}x", b"abcdex yyyyx"),
    ("q(.q){3}", b"qaqbqcq qq"),
    # bounded-repetition rewrite edge cases (paper Examples 7.1/7.2)
    ("(bc){2}", b"bcbc bc bcbcbc"),  # Ex. 7.1: small exact, unfolded
    ("d{1,3}", b"dddd d"),  # Ex. 7.1: d d? d?
    ("f{2,}", b"ff f ffff"),  # Ex. 7.1: f f f*
    ("b{17}", b"b" * 20),  # Ex. 7.2: 17 > bv_size 16, split
    ("b{2,18}", b"b" * 24),  # Ex. 7.2: range split over read widths
    ("a{1,20}", b"x" + b"a" * 23 + b"x"),  # Ex. 7.2: trailing optionals
    ("xa{0,5}y", b"xy xaaay xaaaaaay"),  # {0,n}: nullable counting block
    ("t{0,3}u", b"u ttu ttttu"),  # {0,n} with zero-width prefix match
    ("((ab){2}|c{3})d", b"ababd cccd abd ccd"),  # counting under alternation
    ("(a{3}b){2}", b"aaabaaab aab aaabaab"),  # nested counting, flattened
    ("aba{2,4}", b"abaa abaaaaab aba"),  # counting after overlapping literal
    ("(ab){2}ab", b"ababab abab"),  # counted body overlaps its own tail
]


@pytest.mark.parametrize("pattern,data", CORPUS)
def test_golden_corpus_all_engines(pattern, data):
    compiled = compile_pattern(pattern, options=OPTIONS)
    expected = oracle_ends(compiled.parsed, data)
    assert compiled.nbva.match_ends(data) == expected, "nbva"
    assert compiled.ah.match_ends(data) == expected, "ah"
    assert build_unfolded_nfa(compiled.parsed).match_ends(data) == expected, "nfa"
    assert build_fused([compiled]).match_ends(data) == expected, "fused"
    assert AHStepper(compiled.ah).match_ends(data) == expected, "stepper"
    assert NaiveMachine(compiled.nbva).match_ends(data) == expected, "naive"


@pytest.mark.parametrize("pattern,data", CORPUS)
def test_golden_corpus_has_matches(pattern, data):
    """Each corpus entry actually exercises the matcher."""
    compiled = compile_pattern(pattern, options=OPTIONS)
    assert oracle_ends(compiled.parsed, data), (pattern, data)


# --- fused stepping tiers over the whole corpus as one rule set ---------
#
# The corpus doubles as the differential bed for the fused engine's
# stepping tiers: bitset (table_states=0, no prefilter), dense table,
# table+prefilter, and a flushing table (a budget of a few states,
# emptied and refilled every few bytes) must produce byte-identical
# match streams on a mixed rule set whose literals, charclasses, and
# counting blocks stress the literal extractor and the lazy table
# together.

#: State budget of the flushing tier.
FLUSH_STATES = 4


def _compile_corpus():
    return [
        compile_pattern(pattern, regex_id, OPTIONS)
        for regex_id, (pattern, _) in enumerate(CORPUS)
    ]


def _corpus_stream():
    return b" ".join(data for _, data in CORPUS)


def _flushing_tiers(compiled):
    return [
        build_fused(compiled, table_states=FLUSH_STATES, prefilter=prefilter)
        for prefilter in (True, False)
    ]


def _assert_flushed(matcher):
    info = matcher.table_info()
    assert info["flushes"] >= 1
    assert info["live"] and info["steps_bitset"] == 0


def _assert_every_byte_counted(matcher, fed):
    """Each fed byte is served once: by the table, by the bitset step,
    or skipped by the prefilter."""
    info = matcher.table_info()
    served = info["steps_table"] + info["steps_bitset"]
    assert served + info["skipped_bytes"] == fed


def test_golden_corpus_fused_tiers_byte_identical():
    compiled = _compile_corpus()
    data = _corpus_stream()
    bitset = build_fused(compiled, table_states=0, prefilter=False)
    expected = bitset.scan(data)
    assert expected  # the combined stream must exercise matches
    table = build_fused(compiled, prefilter=False)
    assert table.scan(data) == expected
    assert table.table_info()["live"]
    prefiltered = build_fused(compiled)
    assert prefiltered.scan(data) == expected
    flushing_tiers = _flushing_tiers(compiled)
    for flushing in flushing_tiers:
        assert flushing.scan(data) == expected
        _assert_flushed(flushing)
    for matcher in (bitset, table, prefiltered, *flushing_tiers):
        _assert_every_byte_counted(matcher, len(data))
    for matcher in (table, prefiltered):
        assert matcher.table_info()["steps_bitset"] == 0


@pytest.mark.parametrize("chunk", (1, 3, 7, 16))
def test_golden_corpus_chunked_feed_straddles_windows(chunk):
    """Mid-stream ``feed()`` boundaries must not change the stream even
    when a chunk cut lands inside a prefilter arming window (the tail
    re-arming covers literal occurrences straddling the boundary) or
    the flushing tier empties its table at a seam."""
    compiled = _compile_corpus()
    data = _corpus_stream()
    expected = build_fused(compiled, table_states=0, prefilter=False).scan(data)
    flushing = _flushing_tiers(compiled)
    for matcher in (
        build_fused(compiled), build_fused(compiled, prefilter=False), *flushing
    ):
        matcher.reset()
        got = []
        for start in range(0, len(data), chunk):
            for slot, end in matcher.feed(data[start:start + chunk]):
                got.append((slot, start + end))
        assert got == expected, chunk
        _assert_every_byte_counted(matcher, len(data))
        assert matcher.table_info()["steps_bitset"] == 0
    for matcher in flushing:
        _assert_flushed(matcher)


# --- reduced-vs-unreduced axis ------------------------------------------
#
# ``OPTIONS`` compiles with the default reduction level, so every test
# above already runs the reduced pipeline; this axis pins the unreduced
# pipeline (reduce_level=0) as the reference and re-checks the corpus,
# including mid-stream ``feed()`` boundaries on the reduced matcher.

NO_REDUCE = CompilerOptions(bv_size=16, unfold_threshold=2, reduce_level=0)


@pytest.mark.parametrize("pattern,data", CORPUS)
def test_golden_corpus_reduced_matches_unreduced(pattern, data):
    reduced = compile_pattern(pattern, options=OPTIONS)
    plain = compile_pattern(pattern, options=NO_REDUCE)
    assert reduced.ah.num_states <= plain.ah.num_states
    assert reduced.ah.match_ends(data) == plain.ah.match_ends(data), pattern
    assert build_fused([reduced]).match_ends(data) == build_fused(
        [plain]
    ).match_ends(data), pattern


def test_golden_corpus_reduction_saves_states_somewhere():
    """The corpus must actually exercise the quotient pass."""
    saved = sum(
        compile_pattern(p, options=NO_REDUCE).ah.num_states
        - compile_pattern(p, options=OPTIONS).ah.num_states
        for p, _ in CORPUS
    )
    assert saved > 0


@pytest.mark.parametrize("chunk", (1, 3, 7, 16))
def test_golden_corpus_reduced_chunked_feed_matches_unreduced(chunk):
    """Chunked feeds over the *reduced* fused rule set, with boundaries
    straddling matches, against the unreduced one-shot reference."""
    data = _corpus_stream()
    plain = [
        compile_pattern(pattern, regex_id, NO_REDUCE)
        for regex_id, (pattern, _) in enumerate(CORPUS)
    ]
    expected = build_fused(plain, table_states=0, prefilter=False).scan(data)
    matcher = build_fused(_compile_corpus())
    got = []
    for start in range(0, len(data), chunk):
        for slot, end in matcher.feed(data[start:start + chunk]):
            got.append((slot, start + end))
    assert got == expected, chunk


def test_golden_corpus_sharded_and_oracle_agree():
    patterns = [pattern for pattern, _ in CORPUS]
    data = _corpus_stream()
    fused = PatternSet(patterns, options=OPTIONS, engine="fused").scan(data)
    bitset = PatternSet(
        patterns,
        options=OPTIONS,
        engine="fused",
        budget=Budget(max_table_states=0),
        prefilter=False,
    ).scan(data)
    with PatternSet(
        patterns, options=OPTIONS, engine="sharded", shards=2
    ) as sharded_set:
        sharded = sharded_set.scan(data)
    assert bitset == fused
    assert sharded == fused
    compiled = _compile_corpus()
    for regex_id, regex in enumerate(compiled):
        expected = oracle_ends(regex.parsed, data)
        got = sorted(m.end for m in fused if m.pattern_id == regex_id)
        assert got == expected, patterns[regex_id]
