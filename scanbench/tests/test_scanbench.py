"""Self-tests of the benchmark; run with ``python3 -m pytest scanbench/tests``."""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import PatternSet  # noqa: E402
from repro.compiler import CompilerOptions  # noqa: E402
from repro.matching import engine as engine_module  # noqa: E402
from repro.matching.oracle import match_ends  # noqa: E402
from repro.regex.parser import parse  # noqa: E402
from repro.resilience.budget import Budget  # noqa: E402
from repro.workloads import WORKLOAD_PROFILES  # noqa: E402
from spans import Recorder  # noqa: E402

TINY = 0.01


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_seeded_inputs_are_byte_identical(name):
    spec = workloads.SPECS[name]
    first = workloads._generate(spec, 7, TINY)
    again = workloads._generate(spec, 7, TINY)
    other = workloads._generate(spec, 8, TINY)
    assert first.digests() == again.digests()
    assert first.digests() != other.digests()
    cached = workloads.build(name, 7, TINY)
    assert workloads.build(name, 7, TINY).digests() == cached.digests()
    assert cached.digests() == first.digests()
    assert cached.patterns == first.patterns
    assert cached.owner == first.owner


def test_metric_names_and_counts_fit_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    assert len(run.END_TO_END) <= 16 and len(run.PER_LAYER) <= 128
    assert not set(run.END_TO_END) & set(run.PER_LAYER)
    for metric in [*run.END_TO_END, *run.PER_LAYER]:
        assert name.match(metric), metric
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize(
    "pattern",
    [
        "ab[0-9a-f]*",
        "ab[0-4]+[0-9a-f]{2,}",
        "x.{3}y[a-c]{2,4}",
        "(ab|b)c[a-c]?",
        r"\bab\b",
        "^a[ab]*$",
        "a[ab]+b",
    ],
)
def test_reference_agrees_with_the_oracle(pattern):
    rng = random.Random(pattern)
    node = parse(pattern)
    ref = reference.PatternReference(pattern)
    for _ in range(40):
        data = bytes(rng.choice(b"abcxy0149f ") for _ in range(rng.randrange(1, 40)))
        assert ref.ends(data, data[::-1]) == match_ends(node, data), data


def test_reference_agrees_with_the_oracle_on_records():
    inputs = workloads.build("anchored_records", 3, TINY)
    expected = reference.expected_events(inputs)
    for record, owner, events in list(zip(inputs.records, inputs.owner, expected))[:300]:
        patterns = WORKLOAD_PROFILES[workloads.RECORD_PROFILES[owner]].patterns
        oracle = sorted(
            (end, pid)
            for pid, pattern in enumerate(patterns)
            for end in match_ends(parse(pattern), record)
        )
        assert [(pid, end) for end, pid in oracle] == events


def test_traced_matcher_takes_the_pattern_set_arguments():
    patterns = workloads.build("regexlib_stream", 1, TINY).patterns
    pattern_set = PatternSet(patterns, engine="fused")
    inner = pattern_set._fused  # the matcher PatternSet would scan with
    traced = measure._traced_fused(
        Recorder("test"), patterns, replace(CompilerOptions(), budget=Budget()), {}
    )
    assert traced.cache_info() == inner.cache_info()
    assert traced.table_info() == inner.table_info()
    assert traced.prefilter_info() == inner.prefilter_info()
    assert traced.fused.num_states == inner.fused.num_states
    assert traced.fused.sources == inner.fused.sources


def test_corrupted_events_give_failed_share(monkeypatch):
    inputs = workloads.build("anchored_records", 1, TINY)
    expected = reference.expected_digests(inputs)
    scan = engine_module.PatternSet.scan

    def shifted(self, data):
        return [engine_module.Match(m.pattern_id, m.end + 1) for m in scan(self, data)]

    monkeypatch.setattr(engine_module.PatternSet, "scan", shifted)
    result = run.timed_run(inputs, expected, seconds=0)
    assert result["failed"] > 0
    assert 0 < result["failed"] / result["attempted"] <= 1


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_each_workload_completes_at_a_tiny_size(name):
    inputs = workloads.build(name, 1, TINY)
    expected = reference.expected_digests(inputs)
    timed = run.timed_run(inputs, expected, seconds=0)
    assert timed["failed"] == 0 and timed["attempted"] == 3 * inputs.operations
    assert set(timed["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in timed["metrics"].values())
    traced = run.traced_run(inputs, expected, seconds=0)
    assert traced["failed"] == 0 and traced["diverged"] == 0
    assert set(traced["metrics"]) == set(run.PER_LAYER)
