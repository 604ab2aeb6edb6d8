"""Tests for the serial and process-parallel executors."""

import os
import time

import pytest

from repro import BatterySpec, SchedulingProblem
from repro.engine import (
    Job,
    ParallelExecutor,
    SerialExecutor,
    build_jobs,
    default_executor,
    execute_job,
)
from repro.errors import ConfigurationError
from repro.experiments import SWEEP_ALGORITHMS
from repro.taskgraph import build_g2
from repro.workloads import suite_problems

ALGORITHMS = ["iterative", "dp-energy+greedy", "all-fastest"]


@pytest.fixture(scope="module")
def jobs():
    problems = suite_problems(tightness_levels=(0.3, 0.7), names=["g2", "diamond-3"])
    return build_jobs(problems, ALGORITHMS)


def _comparable(results):
    """Result rows minus the fields that legitimately vary between runs."""
    return [
        result.to_dict() | {"elapsed_s": 0.0}
        for result in results
    ]


class TestExecuteJob:
    def test_success_carries_schedule_essentials(self):
        problem = SchedulingProblem(
            graph=build_g2(), deadline=75.0, battery=BatterySpec(), name="G2@75"
        )
        result = execute_job(Job(problem=problem, algorithm="iterative"))
        assert result.ok
        assert result.feasible
        assert result.cost > 0
        assert result.makespan <= 75.0 + 1e-9
        assert len(result.sequence) == 9
        assert set(result.assignment) == set(problem.graph.task_names())

    def test_failure_is_captured_not_raised(self):
        infeasible = SchedulingProblem(
            graph=build_g2(), deadline=40.0, battery=BatterySpec(), name="G2@40"
        )
        result = execute_job(Job(problem=infeasible, algorithm="iterative"))
        assert not result.ok
        assert "InfeasibleDeadlineError" in result.error
        assert result.cost is None


class TestSerialExecutor:
    def test_runs_all_jobs_in_order(self, jobs):
        results = SerialExecutor().run(jobs)
        assert len(results) == len(jobs)
        assert [r.key for r in results] == [job.key() for job in jobs]
        assert all(result.ok for result in results)

    def test_progress_callback_counts_up(self, jobs):
        seen = []
        SerialExecutor().run(jobs, progress=lambda done, total, result: seen.append((done, total)))
        assert seen == [(i + 1, len(jobs)) for i in range(len(jobs))]

    def test_failing_job_does_not_abort_batch(self):
        good = SchedulingProblem(graph=build_g2(), deadline=75.0, name="good")
        bad = SchedulingProblem(graph=build_g2(), deadline=40.0, name="bad")
        results = SerialExecutor().run(build_jobs([bad, good], ["iterative"]))
        assert not results[0].ok
        assert results[1].ok


class TestParallelExecutor:
    def test_matches_serial_results_exactly(self, jobs):
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(max_workers=2).run(jobs)
        assert _comparable(parallel) == _comparable(serial)

    def test_single_worker_falls_back_to_serial(self, jobs):
        results = ParallelExecutor(max_workers=1).run(jobs[:2])
        assert len(results) == 2
        assert all(result.ok for result in results)

    def test_empty_batch(self):
        assert ParallelExecutor(max_workers=2).run([]) == []

    def test_error_capture_across_processes(self):
        good = SchedulingProblem(graph=build_g2(), deadline=75.0, name="good")
        bad = SchedulingProblem(graph=build_g2(), deadline=40.0, name="bad")
        jobs = build_jobs([bad, good, good.with_deadline(95.0)], ["iterative"])
        results = ParallelExecutor(max_workers=2).run(jobs)
        assert [result.ok for result in results] == [False, True, True]

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(max_workers=0)

    @pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs at least 4 cores")
    def test_four_workers_at_least_halve_the_wall_time(self):
        jobs = build_jobs(
            suite_problems(tightness_levels=(0.2, 0.4, 0.6, 0.8)),
            [engine for _, engine in SWEEP_ALGORITHMS],
        )
        started = time.perf_counter()
        serial = SerialExecutor().run(jobs)
        serial_wall = time.perf_counter() - started
        if serial_wall < 1.0:
            pytest.skip(
                f"serial batch too short to amortise pool start-up ({serial_wall:.2f} s)"
            )
        started = time.perf_counter()
        parallel = ParallelExecutor(max_workers=4).run(jobs)
        parallel_wall = time.perf_counter() - started
        assert _comparable(parallel) == _comparable(serial)
        assert serial_wall >= 2.0 * parallel_wall, (
            f"serial {serial_wall:.2f} s vs 4 workers {parallel_wall:.2f} s"
        )


class TestDefaultExecutor:
    def test_one_means_serial(self):
        assert isinstance(default_executor(1), SerialExecutor)
        assert isinstance(default_executor(None), SerialExecutor)

    def test_many_means_parallel(self):
        executor = default_executor(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 4
