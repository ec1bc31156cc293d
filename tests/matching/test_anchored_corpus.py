"""Anchored golden corpus: ^/$/\\b patterns through every engine.

The anchored counterpart of ``test_golden_corpus``: a hand-curated set
of anchored rule-like patterns, each over an input crafted to exercise
both the gated matches and the near-misses the gates must reject
(interior occurrences of ``^``-patterns, non-final occurrences of
``$``-patterns, unbounded ``\\b`` contexts).  Verified across every
engine against the brute-force oracle, one-shot and chunked with
end-of-input finalisation, through sharded scans with kill/restart
recovery, and differentially against Python ``re``.
"""

import random
import re as pyre

import pytest

from repro.compiler import CompilerOptions, compile_pattern
from repro.matching import ENGINES, Match, PatternSet
from repro.matching.oracle import match_ends as oracle_ends
from repro.regex.generate import random_regex
from repro.regex.parser import parse
from repro.resilience import Budget, ChaosSpec, RestartPolicy, run_chaos

OPTIONS = CompilerOptions(bv_size=16, unfold_threshold=2)

#: (pattern, input) pairs.  Inputs are sized for the O(n^3) oracle and
#: crafted so every gate has both a firing and a rejected occurrence.
CORPUS = [
    # ^ start gates: an interior occurrence must stay silent
    ("^GET /[a-z]{4,8}", b"GET /admin GET /x"),
    ("^a{2,4}b", b"aaab aab"),
    ("^ab$", b"ab"),
    ("^(a|b){2}c", b"abc bac"),
    (r"^\d{2,4}-\d{2}", b"2026-08 end"),
    # $ end gates: deferred candidates, only the final one reports
    ("c{3}$", b"ccc cc ccc"),
    ("end$", b"the end ended end"),
    ("^x{2,}y$", b"xxxxy"),
    # \b word boundaries: offset-0, confirm-byte, and end-of-input forms
    (r"\bcat\b", b"cat catalog my cat"),
    (r"\b\d{3}-\d{2}\b", b"123-45 1234-56 a123-45"),
    (r"ERROR\b", b"ERROR: disk ERRORS ERROR"),
    (r"\bx{2,3}\b", b"xx xxxx xxx."),
    # anchors under alternation: variants with different gates
    ("(^ab|cd)e", b"abe cde xabe"),
    ("a$|^b", b"bxa"),
]

#: Patterns whose anchors are unsatisfiable: the empty matcher.
IMPOSSIBLE = ["a$b", "a^b", "a\\bb", "x$y{1,3}z"]


def _ends(matches, pattern_id=0):
    return sorted(m.end for m in matches if m.pattern_id == pattern_id)


@pytest.mark.parametrize("pattern,data", CORPUS)
def test_anchored_corpus_has_matches(pattern, data):
    """Each corpus entry actually exercises the gated matcher."""
    assert oracle_ends(parse(pattern), data), (pattern, data)


@pytest.mark.parametrize("pattern,data", CORPUS)
@pytest.mark.parametrize("engine", ENGINES)
def test_anchored_corpus_all_engines(pattern, data, engine):
    expected = oracle_ends(parse(pattern), data)
    kwargs = {"shards": 2} if engine == "sharded" else {}
    with PatternSet(
        [pattern], options=OPTIONS, engine=engine, **kwargs
    ) as ps:
        assert _ends(ps.scan(data)) == expected, (pattern, engine)


#: State budget of the flushing tier: the empty activation plus one
#: more, so nearly every new mask empties and refills the table.
FLUSH_STATES = 2


def _flushing(patterns, prefilter):
    return PatternSet(
        patterns,
        options=OPTIONS,
        engine="fused",
        budget=Budget(max_table_states=FLUSH_STATES),
        prefilter=prefilter,
    )


@pytest.mark.parametrize("pattern,data", CORPUS)
def test_anchored_corpus_fused_tiers_byte_identical(pattern, data):
    """Bitset, dense-table, prefiltered and flushing-table stepping must
    agree on the gated automata (the tiers share the start-gate and
    finalisation logic)."""
    expected = oracle_ends(parse(pattern), data)
    bitset = PatternSet(
        [pattern],
        options=OPTIONS,
        engine="fused",
        budget=Budget(max_table_states=0),
        prefilter=False,
    )
    table = PatternSet(
        [pattern], options=OPTIONS, engine="fused", prefilter=False
    )
    prefiltered = PatternSet([pattern], options=OPTIONS, engine="fused")
    assert _ends(bitset.scan(data)) == expected
    assert _ends(table.scan(data)) == expected
    assert _ends(prefiltered.scan(data)) == expected
    for tier in (table, prefiltered):
        assert tier._fused.counters()["steps_bitset"] == 0
    for prefilter in (False, True):
        flushing = _flushing([pattern], prefilter)
        assert _ends(flushing.scan(data)) == expected
        info = flushing._fused.table_info()
        assert info["flushes"] >= 1 and info["steps_bitset"] == 0


@pytest.mark.parametrize("pattern", IMPOSSIBLE)
@pytest.mark.parametrize("engine", ("nfa", "fused"))
def test_impossible_anchors_compile_to_empty_matcher(pattern, engine):
    with PatternSet([pattern], options=OPTIONS, engine=engine) as ps:
        assert ps.scan(b"ab ab xyz x yyy z ab") == []


# --- streaming: chunk cuts straddling offset 0 and end-of-input ---------


@pytest.mark.parametrize("chunk", (1, 2, 3, 7))
@pytest.mark.parametrize("engine", ENGINES)
def test_anchored_chunked_feed_plus_finish_equals_scan(engine, chunk):
    """Chunked ``feed`` + ``finish`` must reproduce ``scan`` exactly:
    the first cut lands right after offset 0 (the ^ gate must not
    re-arm) and the last cut severs the ``$`` candidates from their
    finalisation."""
    patterns = [pattern for pattern, _ in CORPUS]
    data = b" ".join(sample for _, sample in CORPUS)
    kwargs = {"shards": 2} if engine == "sharded" else {}
    with PatternSet(
        patterns, options=OPTIONS, engine=engine, **kwargs
    ) as ps:
        whole = ps.scan(data)
        assert whole  # the combined stream must exercise matches
        ps.reset()
        rebased = []
        base = 0
        for start in range(0, len(data), chunk):
            piece = data[start : start + chunk]
            for match in ps.feed(piece):
                rebased.append(Match(match.pattern_id, base + match.end))
            base += len(piece)
        rebased.extend(ps.finish())
        assert sorted(rebased, key=lambda m: (m.end, m.pattern_id)) == whole


@pytest.mark.parametrize("chunk", (1, 2, 3, 7))
@pytest.mark.parametrize("prefilter", (False, True))
def test_anchored_flushing_table_chunked_feed(prefilter, chunk):
    """The flushing tier, fed in chunks and finished, reproduces the
    bitset tier's scan: flushes land on the offset-0 start step, the
    ``\\b`` confirm seams and the ``$`` candidates alike."""
    patterns = [pattern for pattern, _ in CORPUS]
    data = b" ".join(sample for _, sample in CORPUS)
    expected = PatternSet(
        patterns,
        options=OPTIONS,
        engine="fused",
        budget=Budget(max_table_states=0),
        prefilter=False,
    ).scan(data)
    ps = _flushing(patterns, prefilter)
    assert ps.scan(data) == expected
    ps.reset()
    rebased = []
    for start in range(0, len(data), chunk):
        rebased.extend(
            Match(match.pattern_id, start + match.end)
            for match in ps.feed(data[start : start + chunk])
        )
    rebased.extend(ps.finish())
    assert sorted(rebased, key=lambda m: (m.end, m.pattern_id)) == expected
    info = ps._fused.table_info()
    assert info["flushes"] >= 1 and info["steps_bitset"] == 0


@pytest.mark.parametrize("engine", ("fused", "sharded"))
def test_finish_is_idempotent_and_scan_resets(engine):
    patterns = ["c{3}$", "^ab"]
    kwargs = {"shards": 2} if engine == "sharded" else {}
    with PatternSet(
        patterns, options=OPTIONS, engine=engine, **kwargs
    ) as ps:
        first = ps.scan(b"ab ccc")
        assert [(m.pattern_id, m.end) for m in first] == [(1, 1), (0, 5)]
        # finish() after scan() reports the same end-of-input candidates
        # again without mutating state; a fresh scan is unaffected.
        assert [(m.pattern_id, m.end) for m in ps.finish()] == [(0, 5)]
        assert ps.scan(b"ab ccc") == first


# --- supervised recovery and chaos over the anchored rule set -----------


def _compile_corpus():
    return [
        compile_pattern(pattern, regex_id, OPTIONS)
        for regex_id, (pattern, _) in enumerate(CORPUS)
    ]


def _corpus_stream(copies=6):
    return b" ".join(sample for _, sample in CORPUS) * copies


def test_anchored_faultfree_chaos_run_is_lossless():
    """A chaos campaign with zero faults pins the supervised scanner's
    anchored steady state: the merged stream (including end-of-input
    finalisation) must be byte-identical to the fused oracle."""
    report = run_chaos(
        _compile_corpus(),
        _corpus_stream(),
        ChaosSpec(seed=1, num_faults=0, shards=2, chunk_bytes=64),
    )
    assert not report.diverged
    assert report.golden_matches == report.chaos_matches > 0
    assert report.restarts == report.failovers == report.degraded == 0


def test_anchored_kill_restart_chaos_byte_identical():
    report = run_chaos(
        _compile_corpus(),
        _corpus_stream(),
        ChaosSpec(
            seed=5,
            kinds=("kill",),
            num_faults=1,
            shards=2,
            chunk_bytes=64,
            max_restarts=2,
            checkpoint_chunks=2,
        ),
    )
    assert not report.diverged
    assert report.restarts == 1
    assert report.degraded == 0


def test_anchored_kill_failover_chaos_byte_identical():
    report = run_chaos(
        _compile_corpus(),
        _corpus_stream(),
        ChaosSpec(
            seed=5,
            kinds=("kill",),
            num_faults=1,
            shards=2,
            chunk_bytes=64,
            max_restarts=0,
            checkpoint_chunks=2,
        ),
    )
    assert not report.diverged
    assert report.failovers == 1
    assert report.degraded == 0


# --- differential fuzz: random anchored patterns vs the oracle and re ---

ANCHOR_PREFIXES = ("", "^", r"\b")
ANCHOR_SUFFIXES = ("", "$", r"\b")


def _random_anchored_patterns(count=30, seed=1234):
    """Random cores wrapped in random anchor combinations; combinations
    the compiler rejects (e.g. ``\\b`` beside a nullable core) are
    skipped — their rejection is pinned elsewhere."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        core = str(random_regex(rng, alphabet=b"ab", depth=2, max_bound=4))
        pattern = (
            rng.choice(ANCHOR_PREFIXES) + core + rng.choice(ANCHOR_SUFFIXES)
        )
        try:
            compiled = compile_pattern(pattern, options=OPTIONS)
        except ValueError:
            continue
        out.append((pattern, compiled))
    return out


def test_anchored_differential_fuzz_oracle_and_re():
    rng = random.Random(99)
    patterns = _random_anchored_patterns()
    texts = [
        bytes(rng.choice(b"ab ") for _ in range(rng.randrange(0, 18)))
        for _ in range(12)
    ]
    for pattern, compiled in patterns:
        with PatternSet([pattern], options=OPTIONS, engine="fused") as ps:
            parsed = parse(pattern)
            for text in texts:
                got = _ends(ps.scan(text))
                # exact ends against the brute-force oracle
                assert got == oracle_ends(parsed, text), (pattern, text)
                # boolean agreement with re.search on non-empty matches
                # (the engines never report empty matches)
                re_hit = any(
                    m.end() > m.start()
                    for m in pyre.finditer(
                        pattern.encode("latin-1"), text
                    )
                )
                assert bool(got) == re_hit, (pattern, text)
