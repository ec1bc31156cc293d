"""Flight recorder tests: bounded ring, determinism, failure postmortems.

The contract under test is the one the module docstring promises: the
ring never grows past its capacity, postmortems from two identical
failing runs are byte-identical once :data:`TIMING_KEYS` are stripped,
and every failure path — ReproError in the CLI, a killed shard worker,
a quarantined pattern — leaves a parseable postmortem naming the
culprit when a dump dir is armed.
"""

import json
import os

import pytest

from repro.compiler import CompilerOptions, compile_pattern
from repro.matching import PatternSet, ShardedScanner
from repro.resilience.errors import ReproError
from repro.telemetry import flight
from repro.telemetry.flight import FlightRecorder, strip_timing


@pytest.fixture(autouse=True)
def flight_off():
    flight.disable()
    yield
    flight.disable()


def _compile_all(patterns):
    options = CompilerOptions(bv_size=8, unfold_threshold=2)
    return [
        compile_pattern(p, options=options, regex_id=i)
        for i, p in enumerate(patterns)
    ]


class TestRing:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(100):
            recorder.record("tick", index=i)
        events = recorder.events()
        assert len(recorder) == 8
        assert [e["index"] for e in events] == list(range(92, 100))
        # Total recorded count survives rollover.
        assert recorder.postmortem("test")["events_recorded"] == 100

    def test_events_carry_seq_and_kind(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("a", x=1)
        recorder.record("b", y=2)
        events = recorder.events()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert [e["seq"] for e in events] == [1, 2]
        assert all("wall_s" in e for e in events)

    def test_note_state_is_a_slot_not_an_event(self):
        recorder = FlightRecorder(capacity=4)
        recorder.note_state(active=3)
        recorder.note_state(active=7)
        assert len(recorder) == 0
        assert recorder.postmortem("x")["last_engine_state"] == {"active": 7}

    def test_disabled_facade_is_inert(self, tmp_path):
        assert not flight.flight_enabled()
        before = len(flight.recorder())
        flight.record("ignored")
        flight.note_state(ignored=True)
        assert len(flight.recorder()) == before
        assert flight.auto_dump("nope") is None
        assert list(tmp_path.iterdir()) == []

    def test_auto_dump_requires_dump_dir(self):
        flight.enable(dump_dir=None)
        flight.record("something")
        assert flight.auto_dump("no-dir") is None


class TestStripTiming:
    def test_removes_timing_keys_deeply(self):
        doc = {
            "wall_s": 1.0,
            "dumped_at_s": 2.0,
            "events": [
                {"seq": 1, "wall_s": 3.0, "busy_s": 0.5, "kind": "a"},
                {"seq": 2, "elapsed_s": 4.0, "nested": {"wall_s": 5.0}},
            ],
            "keep": "me",
        }
        stripped = strip_timing(doc)
        assert stripped == {
            "events": [
                {"seq": 1, "kind": "a"},
                {"seq": 2, "nested": {}},
            ],
            "keep": "me",
        }
        # Original is untouched (deep copy semantics).
        assert doc["events"][0]["wall_s"] == 3.0


class TestEngineEvents:
    def test_quarantine_recorded(self):
        flight.enable()
        PatternSet(["ab", "(ab"], on_error="quarantine")
        kinds = [e["kind"] for e in flight.recorder().events()]
        assert "quarantine" in kinds
        event = next(
            e for e in flight.recorder().events()
            if e["kind"] == "quarantine"
        )
        assert event["pattern_id"] == 1
        assert event["error_code"] == "E_SYNTAX"

    def test_scan_chunk_and_state_recorded(self):
        flight.enable()
        ps = PatternSet(["ab{2}c"], engine="fused")
        ps.scan(b"xabbc" * 10)
        events = flight.recorder().events()
        chunk = next(e for e in events if e["kind"] == "scan_chunk")
        assert chunk["engine"] == "fused"
        assert chunk["symbols"] == 50
        assert chunk["matches"] == 10
        state = flight.recorder().postmortem("x")["last_engine_state"]
        assert state is not None
        assert "cache_hits" in state

    def test_fused_state_names_the_serving_tier(self):
        """The fused state notes the matcher's whole counter record, so
        a postmortem shows which tier ran: here the dense table served
        every byte and the LRU saw no probe."""
        flight.enable()
        ps = PatternSet(
            ["ab{2,4}c", "x[0-9]y", "q+r"], engine="fused", prefilter=False
        )
        data = b"abbbc x5y qqr abbc xy abbbbc qr " * 100
        ps.scan(data)
        state = flight.recorder().postmortem("x")["last_engine_state"]
        assert state["steps_table"] == len(data)
        assert state["steps_bitset"] == 0
        assert state["cache_hits"] + state["cache_misses"] == 0

    def test_shard_failure_dumps_postmortem_naming_shard(self, tmp_path):
        """Acceptance: SIGKILL a shard worker under --flight-dir and the
        postmortem parses and names the failed shard."""
        flight.enable(dump_dir=str(tmp_path))
        compiled = _compile_all(["ax", "bx"])
        with ShardedScanner(compiled, num_shards=2) as scanner:
            scanner.feed(b"ax bx " * 20)
            scanner.inject_fault(1, mode="die")
            scanner.feed(b"ax bx " * 20)
            assert scanner.failures
        dumps = sorted(tmp_path.iterdir())
        assert dumps, "shard failure must leave a postmortem"
        doc = json.loads(dumps[0].read_text())
        assert doc["reason"].startswith("shard-1-")
        failure = next(
            e for e in doc["events"] if e["kind"] == "shard_failure"
        )
        assert failure["shard"] == 1
        assert failure["pattern_ids"] == [1]
        assert "shard-1" in dumps[0].name

    def test_budget_deadline_recorded(self):
        from repro.resilience.budget import Budget

        flight.enable()
        clock = Budget(deadline_s=0.0).start()
        with pytest.raises(ReproError):
            clock.check("scan")
        events = flight.recorder().events()
        event = next(e for e in events if e["kind"] == "budget_exceeded")
        assert event["phase"] == "scan"
        assert event["budget_kind"] == "deadline"
        assert event["limit"] == 0.0


class TestDeterminism:
    def _failing_run(self, tmp_path, name):
        """One CLI scan that fails with E_SYNTAX under --flight-dir."""
        from repro.cli import main

        dump_dir = tmp_path / name
        input_path = tmp_path / "input.bin"
        if not input_path.exists():
            input_path.write_bytes(b"ab " * 50)
        code = main(
            [
                "scan",
                "ab",
                "(ab",
                "-i",
                str(input_path),
                "--flight-dir",
                str(dump_dir),
            ]
        )
        assert code != 0
        dumps = sorted(dump_dir.iterdir())
        assert len(dumps) == 1
        return dumps[0]

    def test_identical_failing_scans_dump_identically(self, tmp_path):
        first = self._failing_run(tmp_path, "run-a")
        second = self._failing_run(tmp_path, "run-b")
        assert first.name == second.name
        doc_a = json.loads(first.read_text())
        doc_b = json.loads(second.read_text())
        assert strip_timing(doc_a) == strip_timing(doc_b)
        assert doc_a["error"]["code"] == "E_SYNTAX"

    def test_postmortem_document_shape(self, tmp_path):
        flight.enable(dump_dir=str(tmp_path))
        flight.record("scan_chunk", engine="fused", symbols=10, matches=0)
        error = ReproError("boom")
        path = flight.auto_dump("unit-test", error)
        doc = json.loads(open(path).read())
        assert doc["version"] == flight.POSTMORTEM_VERSION
        assert doc["reason"] == "unit-test"
        assert doc["error"]["code"] == "E_REPRO"
        assert doc["error"]["message"] == "boom"
        assert doc["capacity"] == flight.DEFAULT_CAPACITY
        assert doc["events"][0]["kind"] == "scan_chunk"

    def test_dump_filenames_are_deterministic(self, tmp_path):
        flight.enable(dump_dir=str(tmp_path))
        first = flight.auto_dump("shard-0-died")
        second = flight.auto_dump("shard-0-died")
        assert os.path.basename(first) == "flight-shard-0-died-001.json"
        assert os.path.basename(second) == "flight-shard-0-died-002.json"


class TestDumpRotation:
    """``flight-*.json`` files per dump dir are capped; oldest go first."""

    def test_rotation_keeps_only_newest(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), max_dumps=3)
        paths = []
        for i in range(6):
            recorder.record("tick", index=i)
            path = recorder.dump(f"reason{i}")
            os.utime(path, (i, i))  # deterministic ages
            paths.append(os.path.basename(path))
        kept = sorted(
            n for n in os.listdir(tmp_path) if n.startswith("flight-")
        )
        assert len(kept) == 3
        assert set(kept) == set(paths[3:])

    def test_rotation_ignores_foreign_files(self, tmp_path):
        (tmp_path / "flight-manual.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("keep me")
        recorder = FlightRecorder(dump_dir=str(tmp_path), max_dumps=1)
        os.utime(tmp_path / "flight-manual.json", (0, 0))
        recorder.dump("crash")
        names = sorted(os.listdir(tmp_path))
        assert "notes.txt" in names
        assert "flight-manual.json" not in names
        assert sum(n.startswith("flight-") for n in names) == 1

    def test_max_dumps_none_disables_rotation(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), max_dumps=None)
        for i in range(5):
            recorder.dump(f"r{i}")
        assert (
            sum(n.startswith("flight-") for n in os.listdir(tmp_path)) == 5
        )

    def test_max_dumps_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_dumps=0)

    def test_enable_passes_max_dumps_through(self, tmp_path):
        recorder = flight.enable(dump_dir=str(tmp_path), max_dumps=2)
        try:
            assert recorder.max_dumps == 2
            for i in range(4):
                flight.record("tick", index=i)
                flight.auto_dump(f"r{i}")
            kept = [
                n for n in os.listdir(tmp_path) if n.startswith("flight-")
            ]
            assert len(kept) == 2
        finally:
            flight.disable()
