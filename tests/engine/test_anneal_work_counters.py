"""Zero-noise gate: annealing walks the same evaluator trajectory.

A 2000-move annealing job at seed 0, run through the engine, on one
Rakhmatov and one KiBaM catalogue scenario.  The evaluator's deterministic
work counters — commits, undos and the recompute-window histogram — are a
pure function of the proposal stream, so any change to how a job's battery
model is built or probed must leave them exactly equal.  The values are
literal; print the current ones with::

    PYTHONPATH=src python -m tests.engine.test_anneal_work_counters
"""

import pytest

from repro.engine import Job, execute_job
from repro.obs import RECORDER, recording
from repro.scenarios import default_registry

#: scenario -> (eval.apply, eval.undo, recompute-window count, window sum).
#: Annealing builds its evaluator with ``track_undo=False``, so undo is 0.
GOLDEN_COUNTERS = {
    "g3": (886, 0, 1181, 9358.0),
    "g3-kibam": (891, 0, 1203, 9679.0),
}


def work_counters(scenario: str):
    """The evaluator counters of one 2000-move, seed-0 annealing job."""
    problem = default_registry().get(scenario).build_problem()
    job = Job(problem=problem, algorithm="annealing", params={"iterations": 2000, "seed": 0})
    with recording() as rec:
        result = execute_job(job)
    assert result.ok, result.error
    snapshot = rec.counters_snapshot()
    counters = snapshot["counters"]
    window = snapshot["histograms"]["eval.recompute_window"]
    return (
        counters.get("eval.apply", 0),
        counters.get("eval.undo", 0),
        window["count"],
        window["total"],
    )


@pytest.fixture(autouse=True)
def clean_recorder():
    RECORDER.enabled = False
    RECORDER.reset()
    yield
    RECORDER.enabled = False
    RECORDER.reset()


@pytest.mark.parametrize("scenario", sorted(GOLDEN_COUNTERS))
def test_annealing_work_counters_are_pinned(scenario):
    assert work_counters(scenario) == GOLDEN_COUNTERS[scenario]


if __name__ == "__main__":
    for name in sorted(GOLDEN_COUNTERS):
        print(f"    {name!r}: {work_counters(name)},")
