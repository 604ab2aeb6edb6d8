"""Tests for the simulation-suite driver and the robustness analysis."""

import pytest

from repro.analysis import (
    compute_robustness,
    degradation_leaderboard,
    degradation_table,
    robustness_table,
)
from repro.engine import (
    ParallelExecutor,
    ResultStore,
    SimulationJob,
    SimulationRecord,
    run_simulation_jobs,
)
from repro.errors import ConfigurationError
from repro.experiments import DEFAULT_SIM_POLICIES, run_simulation_suite


@pytest.fixture(scope="module")
def small_suite():
    return run_simulation_suite(
        scenarios=["g3-jitter10", "g3-jitter10-fail5"],
        replications=2,
        seed=5,
    )


class TestRunSimulationSuite:
    def test_grid_shape(self, small_suite):
        assert len(small_suite.specs) == 2
        assert small_suite.policies == DEFAULT_SIM_POLICIES
        assert len(small_suite.run.records) == 2 * len(DEFAULT_SIM_POLICIES) * 2
        assert small_suite.run.ok

    def test_offline_anchor_per_scenario(self, small_suite):
        # Both scenarios share one offline problem (they differ only in the
        # stochastic tier), yet each must get its own anchor entry.
        assert set(small_suite.offline_costs) == {"g3-jitter10", "g3-jitter10-fail5"}
        costs = list(small_suite.offline_costs.values())
        assert costs[0] == costs[1] > 0

    def test_default_selection_is_stochastic_tier(self):
        result = run_simulation_suite(
            policies=["static-replay"], replications=1, seed=0
        )
        assert all(spec.has_perturbation for spec in result.specs)
        assert len(result.specs) >= 10

    def test_replications_validated(self):
        with pytest.raises(ConfigurationError):
            run_simulation_suite(scenarios=["g3-jitter10"], replications=0)

    def test_parallel_resume_byte_identical(self, small_suite, tmp_path):
        store = ResultStore(tmp_path / "sim.jsonl", record_type=SimulationRecord)
        parallel = run_simulation_suite(
            scenarios=["g3-jitter10", "g3-jitter10-fail5"],
            replications=2,
            seed=5,
            executor=ParallelExecutor(max_workers=2),
            store=store,
            resume=True,
        )
        resumed = run_simulation_suite(
            scenarios=["g3-jitter10", "g3-jitter10-fail5"],
            replications=2,
            seed=5,
            store=store,
            resume=True,
        )
        assert resumed.run.executed == 0
        assert resumed.run.skipped == len(resumed.run.records)
        reference = small_suite.robustness_table().to_text()
        assert parallel.robustness_table().to_text() == reference
        assert resumed.robustness_table().to_text() == reference
        assert resumed.leaderboard_table().to_text() == (
            small_suite.leaderboard_table().to_text()
        )

    def test_deterministic_scenario_replay_matches_offline(self):
        result = run_simulation_suite(
            scenarios=["g3"], policies=["static-replay"], replications=1
        )
        row = result.robustness_rows()[0]
        # Conformance through the whole driver stack: zero perturbation,
        # replayed offline schedule, bitwise-equal sigma.
        assert row.mean_cost == row.offline_cost
        assert row.degradation_percent == 0.0


class TestResumeAcrossConstructionPaths:
    """The suite builds each cell's jobs as shared-stem replications; a store
    written by individually built jobs must resume through it (and back)."""

    SUITE = dict(scenarios=["g3-jitter10", "g3-jitter10-fail5"], replications=2, seed=5)

    @staticmethod
    def individually_built(jobs):
        return [
            SimulationJob(
                spec=job.spec,
                policy=job.policy,
                params=dict(job.params),
                seed=job.seed,
                replication=job.replication,
                evaluate_at=job.evaluate_at,
            )
            for job in jobs
        ]

    @staticmethod
    def rows(path):
        return len(path.read_text().splitlines())

    def test_individual_scalar_store_resumes_through_suite(self, small_suite, tmp_path):
        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        jobs = self.individually_built(small_suite.run.jobs)
        written = run_simulation_jobs(jobs, store=store, resume=True, batch=False)
        assert written.executed == len(jobs)
        resumed = run_simulation_suite(store=store, resume=True, **self.SUITE)
        assert (resumed.run.executed, resumed.run.skipped) == (0, len(jobs))
        assert self.rows(path) == len(jobs)
        assert [record.to_dict() for record in resumed.run.records] == [
            record.to_dict() for record in written.records
        ]

    def test_suite_store_resumes_through_individual_scalar_jobs(self, small_suite, tmp_path):
        path = tmp_path / "sim.jsonl"
        store = ResultStore(path, record_type=SimulationRecord)
        written = run_simulation_suite(store=store, resume=True, **self.SUITE)
        assert written.run.executed == len(written.run.jobs)
        jobs = self.individually_built(small_suite.run.jobs)
        resumed = run_simulation_jobs(jobs, store=store, resume=True, batch=False)
        assert (resumed.executed, resumed.skipped) == (0, len(jobs))
        assert self.rows(path) == len(jobs)


class TestRobustnessAnalysis:
    def test_rows_and_degradation(self, small_suite):
        rows = small_suite.robustness_rows()
        cells = {(row.scenario, row.policy) for row in rows}
        assert len(cells) == len(rows) == 8
        for row in rows:
            assert row.replications == 2
            assert row.min_cost <= row.mean_cost <= row.max_cost
            assert 0.0 <= row.feasible_rate <= 1.0
        failing = [r for r in rows if r.scenario == "g3-jitter10-fail5"]
        assert all(row.mean_retries > 0 for row in failing)

    def test_leaderboard_ranks_all_policies(self, small_suite):
        standings = small_suite.leaderboard()
        assert len(standings) == len(DEFAULT_SIM_POLICIES)
        assert {s.policy for s in standings} == set(DEFAULT_SIM_POLICIES)
        degradations = [s.mean_degradation_percent for s in standings]
        assert degradations == sorted(degradations)

    def test_tables_render(self, small_suite):
        text = small_suite.robustness_table().to_text()
        assert "g3-jitter10" in text and "degr %" in text
        board = small_suite.leaderboard_table().to_text()
        assert "rank" in board and "static-replay" in board

    def test_missing_anchor_surfaces_not_fake_perfect(self):
        records = [
            SimulationRecord(
                key="a", scenario="anchored", policy="p", cost=12.0, feasible=True
            ),
            SimulationRecord(
                key="b", scenario="orphan", policy="p", cost=10.0, feasible=True
            ),
        ]
        rows = compute_robustness(records, {"anchored": 10.0})
        by_scenario = {row.scenario: row for row in rows}
        assert by_scenario["orphan"].offline_cost is None
        assert by_scenario["orphan"].degradation_percent is None
        assert "-" in robustness_table([by_scenario["orphan"]]).to_text()
        # The leaderboard only counts anchored rows.
        standings = degradation_leaderboard(rows)
        assert standings[0].scenarios == 1
        assert standings[0].mean_degradation_percent == pytest.approx(20.0)
        # A policy with no anchored rows at all is omitted entirely.
        assert degradation_leaderboard([by_scenario["orphan"]]) == []

    def test_static_replay_jobs_carry_explicit_schedule(self, small_suite):
        replay_jobs = [
            job for job in small_suite.run.jobs if job.policy == "static-replay"
        ]
        assert replay_jobs
        for job in replay_jobs:
            assert "sequence" in job.params and "columns" in job.params

    def test_failed_records_excluded(self):
        records = [
            SimulationRecord(
                key="a", scenario="s", policy="p", cost=10.0, feasible=True
            ),
            SimulationRecord(key="b", scenario="s", policy="p", error="boom"),
        ]
        rows = compute_robustness(records, {"s": 8.0})
        assert rows[0].replications == 1
        assert rows[0].degradation_percent == pytest.approx(25.0)

    def test_empty_input(self):
        assert compute_robustness([], {}) == []
        assert degradation_leaderboard([]) == []
        assert "rank" in degradation_table([]).to_text()
        assert "scenario" in robustness_table([]).to_text()
