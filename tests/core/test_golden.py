"""Golden fixture for the paper's iterative heuristic (``repro.core``).

``golden_iterative.json`` pins, bit for bit, what ``battery_aware_schedule``
produces on every scenario of the default catalogue and on the paper's
Tables 2-4 instances: the final sequence, assignment, sigma and makespan,
and per iteration every window's label, cost and feasibility plus the
weighted sequence and its cost.  Floats are stored as ``float.hex`` so the
comparison is exact.

Any change to ``core`` that is meant to be a pure optimisation must leave
this file untouched.  A change that is meant to alter results regenerates
it with::

    PYTHONPATH=src python -m tests.core.test_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.core import SchedulerConfig, SchedulingSolution, battery_aware_schedule
from repro.experiments.illustrative import g3_problem
from repro.experiments.table4 import table4_problems
from repro.scenarios import default_registry

GOLDEN_PATH = Path(__file__).with_name("golden_iterative.json")


def solution_record(solution: SchedulingSolution) -> Dict[str, Any]:
    """The bitwise-comparable digest of one solution."""
    iterations: List[Dict[str, Any]] = []
    for record in solution.iterations:
        iterations.append(
            {
                "sequence": list(record.sequence),
                "windows": [
                    [window.label, window.cost.hex(), window.makespan.hex(), window.feasible]
                    for window in record.windows.records
                ],
                "weighted_sequence": list(record.weighted_sequence),
                "weighted_cost": record.weighted_cost.hex(),
            }
        )
    return {
        "sequence": list(solution.sequence),
        "assignment": [solution.assignment[name] for name in solution.sequence],
        "sigma": solution.cost.hex(),
        "makespan": solution.makespan.hex(),
        "converged": solution.converged,
        "iterations": iterations,
    }


def golden_records() -> Dict[str, Dict[str, Any]]:
    """Regenerate the fixture: catalogue scenarios, then Tables 2-4."""
    config = SchedulerConfig()
    records: Dict[str, Dict[str, Any]] = {}
    for spec in default_registry():
        records[f"catalogue/{spec.name}"] = solution_record(
            battery_aware_schedule(spec.build_problem(), config=config)
        )
    # Tables 2 and 3 are the illustrative example's iteration history.
    records["tables2-3/G3@230"] = solution_record(
        battery_aware_schedule(g3_problem(), config=config)
    )
    for problem in table4_problems():
        records[f"table4/{problem.name}"] = solution_record(
            battery_aware_schedule(problem, config=config)
        )
    return records


def dump(records: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_iterative_matches_golden_fixture():
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = golden_records()
    assert sorted(actual) == sorted(expected)
    mismatched = [name for name in sorted(expected) if actual[name] != expected[name]]
    assert not mismatched, f"{len(mismatched)} solutions differ: {mismatched[:5]}"


def test_fixture_covers_catalogue_and_tables():
    expected = json.loads(GOLDEN_PATH.read_text())
    catalogue = [name for name in expected if name.startswith("catalogue/")]
    assert len(catalogue) == len(default_registry())
    assert "tables2-3/G3@230" in expected
    assert sum(name.startswith("table4/") for name in expected) == 6


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_golden --write")
    GOLDEN_PATH.write_text(dump(golden_records()))
    print(f"wrote {GOLDEN_PATH}")
