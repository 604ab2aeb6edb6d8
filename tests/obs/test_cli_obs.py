"""CLI-level observability tests: --trace/--metrics, `repro stats`, determinism."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import RECORDER


@pytest.fixture(autouse=True)
def clean_recorder():
    RECORDER.enabled = False
    RECORDER.reset()
    yield
    RECORDER.enabled = False
    RECORDER.reset()


def snapshot_after(argv, capsys):
    """Run the CLI with --metrics and return the deterministic counter snapshot.

    The recording session only disables the recorder on exit (it does not
    reset), so the final state is observable after main() returns.
    """
    assert main(argv + ["--metrics"]) == 0
    capsys.readouterr()
    return RECORDER.counters_snapshot()


class TestParser:
    def test_obs_flags_on_batch_commands(self):
        parser = build_parser()
        for command in ("sweep", "ablation", "suite", "simulate"):
            args = parser.parse_args([command, "--trace", "t.jsonl", "--metrics"])
            assert args.trace == "t.jsonl"
            assert args.metrics is True

    def test_stats_arguments(self):
        args = build_parser().parse_args(
            ["stats", "t.jsonl", "--chrome", "c.json", "--check", "--salvage"]
        )
        assert args.trace_file == "t.jsonl"
        assert args.chrome == "c.json"
        assert args.check is True
        assert args.salvage is True

    def test_trace_sync_flag(self):
        parser = build_parser()
        for command in ("sweep", "ablation", "suite", "simulate"):
            args = parser.parse_args([command, "--trace", "t.jsonl", "--trace-sync"])
            assert args.trace_sync is True
            assert parser.parse_args([command]).trace_sync is False

    def test_obs_diff_arguments(self):
        args = build_parser().parse_args(
            ["obs", "diff", "a.jsonl", "b.jsonl", "--strict", "--salvage", "--all"]
        )
        assert args.obs_command == "diff"
        assert args.trace_a == "a.jsonl" and args.trace_b == "b.jsonl"
        assert args.strict and args.salvage and args.show_all


class TestTraceAndMetricsFlags:
    ARGV = ["suite", "--run", "--scenarios", "g3",
            "--algorithms", "all-fastest", "iterative"]

    def test_metrics_prints_summary_tables(self, capsys):
        assert main(self.ARGV + ["--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "engine.jobs.executed" in out

    def test_trace_written_and_valid(self, tmp_path, capsys):
        from repro.obs.report import validate_trace

        trace = tmp_path / "suite.jsonl"
        assert main(self.ARGV + ["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"wrote trace {trace}" in out
        assert validate_trace(trace) == []
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        counter_lines = [line for line in lines if line["type"] == "counters"]
        assert counter_lines[0]["counts"]["engine.jobs.executed"] == 2

    def test_untraced_run_leaves_recorder_disabled(self, capsys):
        assert main(self.ARGV) == 0
        capsys.readouterr()
        assert not RECORDER.enabled
        assert RECORDER.counters_snapshot()["counters"] == {}


class TestStatsCommand:
    @pytest.fixture
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["simulate", "--scenarios", "g3-jitter10",
                     "--policies", "deadline-slack", "--replications", "1",
                     "--seed", "4", "--trace", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_summary(self, trace_path, capsys):
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "sim.decisions[deadline-slack]" in out

    def test_check_ok(self, trace_path, capsys):
        assert main(["stats", str(trace_path), "--check"]) == 0
        assert "trace check OK" in capsys.readouterr().out

    def test_check_rejects_corrupt_trace(self, trace_path, capsys):
        trace_path.write_text(trace_path.read_text() + "not json\n")
        assert main(["stats", str(trace_path), "--check"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["not json", "[1, 2]"])
    def test_malformed_trace_is_one_error_line(self, trace_path, capsys, line):
        trace_path.write_text(trace_path.read_text() + line + "\n")
        assert main(["stats", str(trace_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {trace_path}:")
        assert captured.err.count("\n") == 1

    def test_chrome_export_is_loadable_json(self, trace_path, tmp_path, capsys):
        chrome = tmp_path / "chrome.json"
        assert main(["stats", str(trace_path), "--chrome", str(chrome)]) == 0
        assert f"wrote {chrome}" in capsys.readouterr().out
        with open(chrome, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert any(event["ph"] == "X" for event in data["traceEvents"])


class TestObsDiffCommand:
    """`repro obs diff` on real serial-vs-parallel traces of one workload."""

    ARGV = ["simulate", "--scenarios", "g3-jitter10", "--policies",
            "static-replay", "deadline-slack", "--replications", "2",
            "--seed", "9"]

    @pytest.fixture
    def traces(self, tmp_path, capsys):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(self.ARGV + ["--trace", str(serial)]) == 0
        assert main(self.ARGV + ["--jobs", "2", "--trace", str(parallel)]) == 0
        capsys.readouterr()
        return serial, parallel

    def test_serial_vs_parallel_matches_strict(self, traces, capsys):
        serial, parallel = traces
        assert main(["obs", "diff", str(serial), str(parallel), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "deterministic metrics: MATCH" in out

    def test_strict_flags_drift(self, traces, tmp_path, capsys):
        serial, _ = traces
        other = tmp_path / "other.jsonl"
        assert main(["simulate", "--scenarios", "g3-jitter10", "--policies",
                     "static-replay", "--replications", "1", "--seed", "9",
                     "--trace", str(other)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(serial), str(other), "--strict"]) == 1
        captured = capsys.readouterr()
        assert "obs diff FAILED" in captured.err
        # non-strict mode reports the same drift but exits zero
        assert main(["obs", "diff", str(serial), str(other)]) == 0
        assert "DRIFT" in capsys.readouterr().out

    def test_trace_sync_runs_record_identical_metrics(self, traces, tmp_path, capsys):
        serial, _ = traces
        synced = tmp_path / "synced.jsonl"
        assert main(self.ARGV + ["--trace", str(synced), "--trace-sync"]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(serial), str(synced), "--strict"]) == 0
        capsys.readouterr()


class TestCounterDeterminism:
    """Same seed => bitwise-identical snapshots, serial vs --jobs 2."""

    def test_suite(self, capsys):
        argv = ["suite", "--run", "--scenarios", "g3", "crossbar-4x3",
                "--algorithms", "annealing", "iterative", "--seed", "11"]
        serial = snapshot_after(argv, capsys)
        parallel = snapshot_after(argv + ["--jobs", "2"], capsys)
        assert serial == parallel
        assert serial["counters"]["engine.jobs.executed"] == 4
        assert serial["counters"]["eval.apply"] > 0

    def test_simulate(self, capsys):
        argv = ["simulate", "--scenarios", "g3-jitter10", "g2-jitter10-uniform",
                "--replications", "2", "--seed", "2"]
        serial = snapshot_after(argv, capsys)
        parallel = snapshot_after(argv + ["--jobs", "2"], capsys)
        assert serial == parallel
        assert serial["counters"]["engine.simjobs.executed"] == 16
        assert any(key.startswith("sim.decisions[") for key in serial["counters"])

    def test_sweep(self, capsys):
        argv = ["sweep", "--graph", "g2", "--points", "3", "--seed", "3"]
        serial = snapshot_after(argv, capsys)
        parallel = snapshot_after(argv + ["--jobs", "2"], capsys)
        assert serial == parallel
        assert serial["counters"]


def store_rows(path):
    """Store lines as dicts, minus the pre-existing wall-clock field.

    ``elapsed_s`` is wall time and differs between any two runs (traced or
    not); every other byte of every row must be identical.
    """
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        row.pop("elapsed_s", None)
        rows.append(json.dumps(row, sort_keys=True))
    return rows


class TestTracedRunsDoNotPerturbResults:
    """Instrumentation must never enter job keys or result bytes."""

    CASES = {
        "suite": ["suite", "--run", "--scenarios", "g3", "g3-kibam",
                  "--algorithms", "all-fastest", "iterative", "--seed", "5"],
        "simulate": ["simulate", "--scenarios", "g3-jitter10",
                     "--replications", "2", "--seed", "5"],
        "sweep": ["sweep", "--graph", "g2", "--points", "3", "--seed", "5"],
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_store_identical_traced_vs_untraced(self, command, tmp_path, capsys):
        argv = self.CASES[command]
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        assert main(argv + ["--results-dir", str(plain_dir)]) == 0
        assert main(argv + ["--results-dir", str(traced_dir),
                            "--trace", str(tmp_path / "t.jsonl"),
                            "--metrics"]) == 0
        capsys.readouterr()
        plain = store_rows(plain_dir / f"{command}.jsonl")
        traced = store_rows(traced_dir / f"{command}.jsonl")
        assert plain and plain == traced
