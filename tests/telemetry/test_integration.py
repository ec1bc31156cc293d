"""End-to-end telemetry: CLI exports and stack instrumentation.

The first test is the PR's acceptance criterion: one `simulate` run with
``--trace-out``/``--metrics-out`` must yield a valid Chrome trace and a
metrics snapshot carrying per-phase compile spans, per-tile BVM
activations, per-array stall cycles, and an occupancy histogram.
"""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.compiler import compile_ruleset
from repro.hardware.simulator import (
    BaselineSimulator,
    BVAPSimulator,
    compile_baseline,
)
from repro.hardware.specs import CAMA_SPEC
from repro.hardware.tile import TileEngine
from repro.matching import PatternSet

COMPILE_PHASES = (
    "compile.parse",
    "compile.encode",
    "compile.rewrite",
    "compile.translate",
    "compile.map",
)


@pytest.fixture()
def input_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"xx" + b"a" + b"b" * 20 + b"c" + b"yy")
    return str(path)


class TestCLIAcceptance:
    def test_simulate_writes_trace_and_metrics(self, tmp_path, input_file):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "simulate", "ab{20}c", "-i", input_file, "--arch", "BVAP",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert exit_code == 0

        # --- valid Chrome trace-event JSON ---
        trace = json.loads(trace_path.read_text())
        assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
        names = {event["name"] for event in trace["traceEvents"]}
        assert set(COMPILE_PHASES) <= names
        assert "sim.run" in names

        # --- metrics snapshot with the required keys ---
        snap = json.loads(metrics_path.read_text())
        for phase in COMPILE_PHASES:
            assert phase in snap["spans"], phase
            assert snap["spans"][phase]["count"] >= 1
        counters = snap["counters"]
        tile_keys = [
            k for k in counters if k.startswith("sim.tile.bvm_activations")
        ]
        assert tile_keys, counters
        assert any(counters[k] > 0 for k in tile_keys)  # ab{20} activates BVs
        array_keys = [
            k for k in counters if k.startswith("sim.array.stall_cycles")
        ]
        assert array_keys, counters
        occupancy = snap["histograms"]["sim.active_states"]
        assert occupancy["count"] == 26  # one observation per symbol
        assert len(occupancy["counts"]) == len(occupancy["bounds"]) + 1

    def test_trace_verb(self, tmp_path, input_file, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # default trace.json lands here
        assert main(["trace", "ab{20}c", "-i", input_file]) == 0
        out = capsys.readouterr().out
        assert "compile.ruleset" in out  # span breakdown table printed
        assert (tmp_path / "trace.json").exists()

    def test_jsonl_trace_format(self, tmp_path, input_file):
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "scan", "ab{20}c", "-i", input_file,
                "--trace-out", str(trace_path), "--trace-format", "jsonl",
            ]
        )
        names = [
            json.loads(line)["name"]
            for line in trace_path.read_text().splitlines()
        ]
        assert "compile.parse" in names
        assert "engine.scan" in names

    def test_telemetry_disabled_after_cli_run(self, tmp_path, input_file):
        main(
            [
                "simulate", "a", "-i", input_file,
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        assert not telemetry.enabled()


class TestLibraryInstrumentation:
    def test_compile_phases_traced(self):
        with telemetry.session():
            compile_ruleset(["ab{5}c", "x{3}"])
            snap = telemetry.snapshot()
        for phase in COMPILE_PHASES:
            assert phase in snap["spans"], phase
        # parse/rewrite/translate run once per pattern
        assert snap["spans"]["compile.parse"]["count"] == 2
        assert snap["counters"]["compile.patterns"] == 2
        assert snap["counters"]["compile.rejected"] == 0

    def test_rejected_patterns_counted(self):
        with telemetry.session():
            compile_ruleset(["ok", "((("])
            snap = telemetry.snapshot()
        assert snap["counters"]["compile.rejected"] == 1

    @pytest.mark.parametrize("engine", ["ah", "nbva", "nca", "nfa"])
    def test_engine_metrics(self, engine):
        ps = PatternSet(["ab{3}c"], engine=engine)
        data = b"zabbbc zabbbc"
        with telemetry.session():
            matches = ps.scan(data)
            snap = telemetry.snapshot()
        assert len(matches) == 2
        assert snap["counters"]["engine.symbols_scanned"] == len(data)
        assert snap["counters"]["engine.matches_emitted"] == 2
        occupancy = snap["histograms"]["engine.active_states"]
        assert occupancy["count"] == 1  # one observation per feed block
        assert occupancy["max"] >= 1  # something was active mid-pattern
        assert snap["spans"]["engine.scan"]["count"] == 1

    def test_engine_match_stream_unchanged_by_telemetry(self):
        ps = PatternSet(["ab{3}c", "zz"])
        data = b"xabbbc zz abbbc"
        plain = [(m.pattern_id, m.end) for m in ps.scan(data)]
        with telemetry.session():
            traced = [(m.pattern_id, m.end) for m in ps.scan(data)]
        assert plain == traced

    def test_simulator_report_carries_snapshot(self):
        ruleset = compile_ruleset(["ab{20}c"])
        data = b"a" + b"b" * 20 + b"c"
        with telemetry.session():
            report = BVAPSimulator(ruleset).run(data)
        snap = report.metrics_snapshot
        assert snap is not None
        assert snap["counters"]["sim.symbols"] == len(data)
        assert snap["counters"]["sim.matches"] == 1
        # the snapshot survives a JSON round trip through notes
        restored = json.loads(json.dumps(report.notes))["metrics"]
        assert restored == snap

    def test_simulator_live_progress_gauge(self):
        ruleset = compile_ruleset(["ab{4}c"])
        with telemetry.session():
            BVAPSimulator(ruleset).run(b"abbbbc")
            gauge = telemetry.registry().gauge("sim.progress_symbols")
        assert gauge.value == 6

    def test_baseline_simulator_snapshot(self):
        with telemetry.session():
            report = BaselineSimulator(
                CAMA_SPEC, compile_baseline(["ab{5}c"])
            ).run(b"abbbbbc")
        snap = report.metrics_snapshot
        assert snap["counters"]["sim.symbols"] == 7
        assert "sim.active_states" in snap["histograms"]

    def test_tile_engine_occupancy(self):
        from repro.compiler.pipeline import compile_pattern

        compiled = compile_pattern("ab{3}c")
        tile = TileEngine([(0, compiled.ah)], tile_index=4)
        with telemetry.session():
            tile.match_stream(b"abbbc")
            hist = telemetry.registry().get("tile.occupancy", tile=4)
        assert hist is not None
        assert hist["count"] == 5

    def test_disabled_runs_leave_no_trace(self):
        assert not telemetry.enabled()
        ruleset = compile_ruleset(["ab{4}c"])
        report = BVAPSimulator(ruleset).run(b"abbbbc")
        assert report.metrics_snapshot is None
        assert len(telemetry.tracer()) == 0
        assert telemetry.registry().snapshot()["counters"] == {}
