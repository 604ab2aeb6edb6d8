"""Result stores written before the battery-cost cache was removed.

``legacy_store/`` holds one line of each record type as older versions
wrote them, with the ``cache_hits``/``cache_misses`` fields this version
no longer writes: ``suite.jsonl`` is a ``suite --run --scenarios g3
--algorithms all-fastest`` row, ``simulate.jsonl`` a ``simulate
--scenarios g3-jitter10 --policies greedy-energy --replications 1`` row
carrying the counters as well.  Both must load, and ``--resume`` over a
directory holding them must run nothing.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import JobResult, ResultStore, SimulationRecord

LEGACY = Path(__file__).parent / "legacy_store"


@pytest.fixture
def results_dir(tmp_path):
    target = tmp_path / "results"
    shutil.copytree(LEGACY, target)
    return target


def test_job_result_line_loads(results_dir):
    store = ResultStore(results_dir / "suite.jsonl")
    loaded = store.load()
    assert store.corrupt_lines == 0
    (result,) = loaded.values()
    assert isinstance(result, JobResult)
    assert result.ok and result.algorithm == "all-fastest" and result.problem_name == "g3"
    assert result.cost == 74448.4618975113
    assert "cache_hits" not in result.to_dict()


def test_simulation_record_line_loads(results_dir):
    store = ResultStore(results_dir / "simulate.jsonl", record_type=SimulationRecord)
    loaded = store.load()
    assert store.corrupt_lines == 0
    (record,) = loaded.values()
    assert record.ok and record.scenario == "g3-jitter10"
    assert record.cost == 46295.72886889616
    assert "cache_hits" not in record.to_dict()


@pytest.mark.parametrize(
    "argv, store_name, summary",
    [
        (
            ["suite", "--run", "--scenarios", "g3", "--algorithms", "all-fastest"],
            "suite.jsonl",
            "1 jobs (0 executed, 1 resumed), 0 failed",
        ),
        (
            ["simulate", "--scenarios", "g3-jitter10", "--policies", "greedy-energy",
             "--replications", "1"],
            "simulate.jsonl",
            "1 simulations (0 executed, 1 resumed), 0 failed",
        ),
    ],
    ids=["suite", "simulate"],
)
def test_resume_skips_legacy_rows(results_dir, capsys, argv, store_name, summary):
    before = (results_dir / store_name).read_bytes()
    assert main(argv + ["--results-dir", str(results_dir), "--resume"]) == 0
    assert summary in capsys.readouterr().out
    assert (results_dir / store_name).read_bytes() == before


@pytest.mark.parametrize(
    "store_name, record_type",
    [("suite.jsonl", JobResult), ("simulate.jsonl", SimulationRecord)],
    ids=["job-result", "simulation-record"],
)
def test_cache_counters_are_dropped_on_round_trip(store_name, record_type):
    (line,) = (LEGACY / store_name).read_text().splitlines()
    old = json.loads(line)
    assert {"cache_hits", "cache_misses"} <= set(old)
    record = record_type.from_dict(old)
    current = {k: v for k, v in old.items() if k not in ("cache_hits", "cache_misses")}
    assert record.to_dict() == current
    assert record_type.from_dict(current) == record
