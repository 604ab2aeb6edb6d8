"""The benchmark observatory (repro.obs.bench): gates, history, CLI checks."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    REGISTRY,
    GateSpec,
    append_history,
    check_report,
    extract_metric,
    gated_metrics,
    get_bench,
    load_history,
    render_benchmarks_md,
    repo_root,
    run_observatory,
)


@pytest.fixture(scope="module")
def baselines():
    """The committed BENCH_*.json reports, keyed by bench name."""
    out = {}
    for spec in REGISTRY:
        with open(repo_root() / spec.report, "r", encoding="utf-8") as handle:
            out[spec.name] = json.load(handle)
    return out


class TestRegistry:
    def test_names_unique(self):
        names = [spec.name for spec in REGISTRY]
        assert len(set(names)) == len(names)

    def test_get_bench(self):
        assert get_bench("cost").script == "bench_cost.py"
        with pytest.raises(KeyError):
            get_bench("nope")

    def test_scripts_and_baselines_exist(self):
        root = repo_root()
        for spec in REGISTRY:
            assert (root / "benchmarks" / spec.script).exists(), spec.script
            assert (root / spec.report).exists(), spec.report

    def test_every_gate_resolves_in_its_committed_baseline(self, baselines):
        """A gate path that rots out of the report schema must fail loudly."""
        for spec in REGISTRY:
            for gate in spec.gates:
                value = extract_metric(baselines[spec.name], gate.path)
                assert value is not None, f"{spec.name}: {gate.path}"
                assert value > 0


class TestExtractMetric:
    REPORT = {"a": {"b": [10, {"c": 2.5}]}, "flag": True, "label": "x"}

    def test_nested_path(self):
        assert extract_metric(self.REPORT, "a/b/1/c") == 2.5

    def test_list_index(self):
        assert extract_metric(self.REPORT, "a/b/0") == 10.0

    def test_missing_hops_return_none(self):
        assert extract_metric(self.REPORT, "a/zzz") is None
        assert extract_metric(self.REPORT, "a/b/9") is None
        assert extract_metric(self.REPORT, "a/b/x") is None

    def test_non_numeric_leaves_return_none(self):
        assert extract_metric(self.REPORT, "flag") is None  # bool is not a metric
        assert extract_metric(self.REPORT, "label") is None
        assert extract_metric(self.REPORT, "a") is None

    def test_gated_metrics_maps_every_gate(self):
        spec = get_bench("cost")
        metrics = gated_metrics(spec, {"refine": {"speedup": 40.0}})
        assert metrics["refine/speedup"] == 40.0
        assert metrics["annealing/rakhmatov/speedup"] is None


def doctor(baseline, path, factor):
    """Copy of a report with one gate metric scaled by ``factor``."""
    report = json.loads(json.dumps(baseline))
    node = report
    parts = path.split("/")
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = node[parts[-1]] * factor
    return report


class TestCheckReport:
    def test_self_check_passes(self, baselines, tmp_path):
        for spec in REGISTRY:
            verdict = check_report(spec, repo_root() / spec.report, repo_root() / spec.report)
            assert verdict["status"] == "pass", verdict["problems"]
            assert len(verdict["deltas"]) == len(spec.gates)
            assert not any(d["regressed"] for d in verdict["deltas"])

    def test_injected_slowdown_is_a_regression(self, baselines, tmp_path):
        spec = get_bench("cost")
        gate = spec.gates[0]  # higher-is-better speedup, threshold 0.4
        report = doctor(baselines["cost"], gate.path, 1.0 - gate.threshold - 0.1)
        path = tmp_path / spec.report
        path.write_text(json.dumps(report))
        verdict = check_report(spec, path, repo_root() / spec.report)
        assert verdict["status"] == "regression"
        assert any(gate.path in problem for problem in verdict["problems"])
        regressed = [d for d in verdict["deltas"] if d["regressed"]]
        assert [d["path"] for d in regressed] == [gate.path]

    def test_improvement_passes(self, baselines, tmp_path):
        spec = get_bench("cost")
        report = doctor(baselines["cost"], spec.gates[0].path, 3.0)
        path = tmp_path / spec.report
        path.write_text(json.dumps(report))
        verdict = check_report(spec, path, repo_root() / spec.report)
        assert verdict["status"] == "pass"
        assert verdict["deltas"][0]["change_frac"] == pytest.approx(2.0)

    def test_lower_is_better_gate(self, baselines, tmp_path):
        spec = get_bench("obs")
        gate = spec.gates[0]
        assert not gate.higher_is_better
        report = doctor(baselines["obs"], gate.path, 1.0 + gate.threshold + 0.1)
        path = tmp_path / spec.report
        path.write_text(json.dumps(report))
        verdict = check_report(spec, path, repo_root() / spec.report)
        assert verdict["status"] == "regression"

    def test_missing_report_is_error(self, tmp_path):
        spec = get_bench("cost")
        verdict = check_report(spec, tmp_path / "nope.json", repo_root() / spec.report)
        assert verdict["status"] == "error"
        assert "missing or unreadable" in verdict["problems"][0]

    def test_baseline_without_gate_path_is_error(self, baselines, tmp_path):
        spec = get_bench("cost")
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(baselines["cost"]))
        bad_baseline = json.loads(json.dumps(baselines["cost"]))
        del bad_baseline["refine"]
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(bad_baseline))
        verdict = check_report(spec, report_path, baseline_path)
        assert verdict["status"] == "error"
        assert any("refine/speedup" in p for p in verdict["problems"])

    def test_smoke_report_skips_deltas_but_validates_baseline(self, baselines, tmp_path):
        spec = get_bench("cost")
        smoke_report = json.loads(json.dumps(baselines["cost"]))
        smoke_report["mode"] = "smoke"
        # a smoke report's numbers are from tiny workloads: never compared
        smoke_report["refine"]["speedup"] = 0.001
        path = tmp_path / spec.report
        path.write_text(json.dumps(smoke_report))
        verdict = check_report(spec, path, repo_root() / spec.report)
        assert verdict["status"] == "pass"
        assert verdict["deltas"] == []
        assert any("smoke mode" in p for p in verdict["problems"])
        # ... but a gate missing from the baseline still errors in smoke mode
        bad_baseline = json.loads(json.dumps(baselines["cost"]))
        del bad_baseline["annealing"]
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(bad_baseline))
        verdict = check_report(spec, path, baseline_path)
        assert verdict["status"] == "error"


class TestHistory:
    def test_append_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_history.jsonl"
        append_history(path, {"bench": "cost", "verdict": "pass"})
        append_history(path, {"bench": "sim", "verdict": "regression"})
        entries = load_history(path)
        assert [e["bench"] for e in entries] == ["cost", "sim"]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_history(path, {"bench": "cost"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"bench": "si')  # crashed mid-append
        assert [e["bench"] for e in load_history(path)] == ["cost"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []


class TestRenderDocs:
    def test_empty_history_renders_gate_table(self):
        page = render_benchmarks_md([])
        assert "# Benchmark trajectory" in page
        assert "_No observatory runs recorded yet._" in page
        for spec in REGISTRY:
            for gate in spec.gates:
                assert f"`{gate.path}`" in page

    def test_history_rows_rendered(self):
        entry = {
            "bench": "cost",
            "mode": "full",
            "verdict": "pass",
            "git_sha": "abc123def456",
            "started_unix": 1754000000,
            "metrics": {
                "annealing/rakhmatov/speedup": 5074.0,
                "refine/speedup": 42.2,
            },
        }
        page = render_benchmarks_md([entry])
        assert "abc123def456" in page
        assert "5,074" in page
        assert "42.2" in page


class TestRunObservatory:
    def test_check_only_against_committed_baselines(self):
        lines = []
        assert run_observatory(check=True, log=lines.append) == 0
        text = "\n".join(lines)
        for spec in REGISTRY:
            assert f"bench {spec.name}: check PASS" in text

    def test_check_flags_doctored_reports_dir(self, baselines, tmp_path):
        spec = get_bench("cost")
        gate = spec.gates[0]
        report = doctor(baselines["cost"], gate.path, 0.1)
        (tmp_path / spec.report).write_text(json.dumps(report))
        lines = []
        code = run_observatory(
            names=["cost"], check=True, reports_dir=tmp_path, log=lines.append
        )
        assert code == 1
        assert any("REGRESSED" in line for line in lines)

    def test_unknown_bench_name_raises(self):
        with pytest.raises(KeyError):
            run_observatory(names=["nope"], check=True, log=lambda _line: None)

    def test_render_docs_without_running(self, tmp_path):
        history = tmp_path / "h.jsonl"
        append_history(history, {"bench": "cost", "mode": "full",
                                 "verdict": "pass", "metrics": {}})
        target = tmp_path / "docs" / "benchmarks.md"
        assert run_observatory(history=history, render_docs=target,
                               log=lambda _line: None) == 0
        assert "# Benchmark trajectory" in target.read_text()


class TestObservatoryRunsDriver(object):
    """One real smoke run through run_bench + history append."""

    def test_smoke_run_obs(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        code = run_observatory(
            names=["obs"], smoke=True, run=True, check=True,
            history=history, reports_dir=tmp_path, log=lambda _line: None,
        )
        capsys.readouterr()  # the driver prints its own tables
        assert code == 0
        report = json.loads((tmp_path / "BENCH_obs.json").read_text())
        assert report["mode"] == "smoke"
        (entry,) = load_history(history)
        assert entry["bench"] == "obs"
        assert entry["mode"] == "smoke"
        assert entry["driver_exit"] == 0
        assert entry["verdict"] == "pass"
        assert entry["env"]["python"]
        assert entry["metrics"]["overhead/overhead_factor"] > 0


class TestBenchCLI:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for spec in REGISTRY:
            assert spec.name in out
        assert "annealing/rakhmatov/speedup" in out

    def test_check_exits_zero_on_committed_baselines(self, capsys):
        assert main(["bench", "--check"]) == 0
        assert "check PASS" in capsys.readouterr().out

    def test_check_exits_nonzero_on_injected_slowdown(self, baselines, tmp_path, capsys):
        spec = get_bench("sim")
        gate = spec.gates[0]
        report = doctor(baselines["sim"], gate.path, 0.2)
        (tmp_path / spec.report).write_text(json.dumps(report))
        assert main(["bench", "--check", "--only", "sim",
                     "--reports-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "check REGRESSION" in out

    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["bench", "--run", "--smoke", "--check"])
        assert args.run_benches and args.smoke and args.check
        assert args.history is None and args.reports_dir is None
        assert args.render_docs is None
        args = build_parser().parse_args(["bench", "--render-docs"])
        assert args.render_docs == "docs/benchmarks.md"
