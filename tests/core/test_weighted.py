"""Unit tests for repro.core.weighted (Equation 4 re-sequencing)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import equation4_weights, find_weighted_sequence
from repro.scheduling import DesignPointAssignment
from repro.taskgraph import validate_sequence


class TestEquation4Weights:
    def test_weights_sum_chosen_currents_over_subgraph(self, diamond4):
        assignment = DesignPointAssignment.all_fastest(diamond4)
        weights = equation4_weights(diamond4, assignment)
        current = {
            name: assignment.design_point(diamond4, name).current
            for name in diamond4.task_names()
        }
        assert weights["D"] == pytest.approx(current["D"])
        assert weights["B"] == pytest.approx(current["B"] + current["D"])
        assert weights["A"] == pytest.approx(sum(current.values()))

    def test_weights_depend_on_assignment(self, diamond4):
        fast = equation4_weights(diamond4, DesignPointAssignment.all_fastest(diamond4))
        slow = equation4_weights(diamond4, DesignPointAssignment.all_slowest(diamond4))
        assert fast["A"] > slow["A"]

    def test_root_weight_largest_in_g3(self, g3):
        weights = equation4_weights(g3, DesignPointAssignment.all_slowest(g3))
        assert weights["T1"] == max(weights.values())


class TestFindWeightedSequence:
    def test_produces_valid_sequence(self, g3):
        assignment = DesignPointAssignment.all_slowest(g3)
        sequence = find_weighted_sequence(g3, assignment)
        validate_sequence(g3, sequence)

    def test_heavier_subtree_scheduled_first(self, diamond4):
        # Give B a much larger chosen current than C: B should come first.
        assignment = DesignPointAssignment({"A": 0, "B": 0, "C": 2, "D": 0})
        sequence = find_weighted_sequence(diamond4, assignment)
        assert sequence.index("B") < sequence.index("C")

    def test_deterministic(self, g3):
        assignment = DesignPointAssignment.all_slowest(g3)
        assert find_weighted_sequence(g3, assignment) == find_weighted_sequence(g3, assignment)


# Scenarios whose Equation 4 sums, taken in set-iteration order, rounded
# differently under PYTHONHASHSEED=0 and =1 before the sums used math.fsum.
_HASH_SENSITIVE = ("fpga-map-reduce-4x2", "fpga-series-parallel-d3")

_HISTORY_SCRIPT = """
import dataclasses, json, sys
from repro.baselines import rakhmatov_baseline
from repro.core import battery_aware_schedule
from repro.scenarios import default_registry
from tests.core.test_golden import solution_record

registry = default_registry()
out = {}
for name in sys.argv[1:]:
    out[name] = solution_record(battery_aware_schedule(registry.get(name).build_problem()))
# The Equation 5 baseline on a graph where its set-order sum used to flip
# two equally ranked tasks.
spec = registry.get("fpga-layered-5x3")
spec = dataclasses.replace(spec, seed=spec.seed + 2000)
out["dp-energy+greedy"] = list(rakhmatov_baseline(spec.build_problem()).sequence)
print(json.dumps(out, sort_keys=True))
"""


def _histories_under_hash_seed(seed: str) -> dict:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", _HISTORY_SCRIPT, *_HASH_SENSITIVE],
        env=env, cwd=str(root), capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout)


def test_iteration_histories_independent_of_hash_seed():
    first = _histories_under_hash_seed("0")
    second = _histories_under_hash_seed("1")
    assert set(first) == set(_HASH_SENSITIVE) | {"dp-energy+greedy"}
    assert first == second
