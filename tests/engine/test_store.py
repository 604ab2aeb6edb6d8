"""Tests for the append-only JSONL result store."""

import json

import pytest

from repro import SchedulingProblem
from repro.engine import Job, JobResult, ResultStore, SimulationRecord, build_jobs
from repro.errors import ConfigurationError
from repro.taskgraph import build_g2


def make_result(key: str, cost: float = 1.0, error: str = None) -> JobResult:
    if error is not None:
        return JobResult(key=key, algorithm="iterative", problem_name="p", error=error)
    return JobResult(
        key=key,
        algorithm="iterative",
        problem_name="p",
        cost=cost,
        makespan=10.0,
        feasible=True,
        sequence=("a",),
        assignment={"a": 0},
    )


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result("k1", cost=1.5))
        store.append(make_result("k2", cost=2.5))
        loaded = store.load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"].cost == 1.5
        assert len(store) == 2

    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent.jsonl")
        assert store.load() == {}
        assert not store.exists()

    def test_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result("k", cost=1.0))
        store.append(make_result("k", cost=9.0))
        assert store.load()["k"].cost == 9.0

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = ResultStore(path)
        store.append(make_result("k1"))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"torn line without a closing brace\n')
            handle.write("not json at all\n")
        store.append(make_result("k2"))
        loaded = store.load()
        assert set(loaded) == {"k1", "k2"}
        assert store.corrupt_lines == 2

    @pytest.mark.parametrize(
        "line, field",
        [
            ("[1, 2]", "JSON object"),
            ("5", "JSON object"),
            ("null", "JSON object"),
            ('"x"', "JSON object"),
            ('{"scenario": "s", "policy": "p", "algorithm": "a"}', "'key'"),
        ],
        ids=["list", "number", "null", "string", "missing-key"],
    )
    @pytest.mark.parametrize(
        "record",
        [
            make_result("k"),
            SimulationRecord(key="k", scenario="s", policy="p", cost=1.0),
        ],
        ids=["job-result", "simulation-record"],
    )
    def test_non_record_lines_are_counted_and_skipped(self, tmp_path, line, field, record):
        record_type = type(record)
        with pytest.raises(ConfigurationError, match=field):
            record_type.from_dict(json.loads(line))
        path = tmp_path / "results.jsonl"
        store = ResultStore(path, record_type=record_type)
        store.append(record)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        assert set(store.load()) == {"k"}
        assert store.corrupt_lines == 1

    def test_append_many_writes_every_row(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append_many([make_result("a"), make_result("b"), make_result("c")])
        assert len(store.load()) == 3

    def test_parent_directory_created_on_demand(self, tmp_path):
        store = ResultStore(tmp_path / "deep" / "nested" / "results.jsonl")
        store.append(make_result("k"))
        assert store.exists()

    def test_completed_keys_excludes_failures_by_default(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result("ok"))
        store.append(make_result("bad", error="ValueError: boom"))
        assert store.completed_keys() == {"ok"}
        assert store.completed_keys(include_failed=True) == {"ok", "bad"}

    def test_lines_are_valid_json_objects(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).append(make_result("k"))
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == "k"


class TestSplitPending:
    def test_partitions_jobs_by_stored_success(self, tmp_path):
        problems = [
            SchedulingProblem(graph=build_g2(), deadline=d, name=f"G2@{d:g}")
            for d in (75.0, 95.0)
        ]
        jobs = build_jobs(problems, ["all-fastest"])
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result(jobs[0].key(), cost=42.0))

        pending, done = store.split_pending(jobs)
        assert [job.key() for job in pending] == [jobs[1].key()]
        assert set(done) == {jobs[0].key()}

    def test_failed_results_are_retried(self, tmp_path):
        problem = SchedulingProblem(graph=build_g2(), deadline=75.0, name="G2@75")
        job = Job(problem=problem, algorithm="all-fastest")
        store = ResultStore(tmp_path / "results.jsonl")
        store.append(make_result(job.key(), error="TimeoutError: flaky"))

        pending, done = store.split_pending([job])
        assert pending == [job]
        assert done == {}
