"""Deadline and battery sweeps (extension experiment E9).

Two sweeps extend the paper's point comparisons into curves:

* :func:`deadline_sweep` — for one graph, scan the deadline from just above
  the all-fastest makespan to the all-slowest makespan and record the
  battery cost of the iterative heuristic and the baselines at every point.
  The paper's Table 4 rows are three samples of this curve per graph.
* :func:`beta_sweep` — fix the deadline and scan the battery's diffusion
  parameter ``beta``: as the battery approaches ideal behaviour the gap
  between battery-aware and energy-only scheduling should close, which is
  the motivating claim of Section 3.

Both sweeps submit their (coordinate, algorithm) grid to the experiment
engine (:mod:`repro.engine`), so they fan out across worker processes via
``executor=`` and resume from a :class:`~repro.engine.ResultStore` when
asked.  A failed cell surfaces as ``inf`` instead of aborting the sweep.  Passing an explicit
``algorithms`` mapping of callables bypasses the engine and evaluates them
in-process (the legacy path, kept for ad-hoc algorithm experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis import TextTable
from ..baselines import (
    all_fastest_baseline,
    best_uniform_baseline,
    chowdhury_baseline,
    rakhmatov_baseline,
)
from ..battery import BatterySpec
from ..core import SchedulerConfig, battery_aware_schedule
from ..engine import ResultStore, run_experiments
from ..errors import ConfigurationError
from ..scheduling import SchedulingProblem
from ..taskgraph import TaskGraph

__all__ = [
    "SweepPoint",
    "SweepResult",
    "SWEEP_ALGORITHMS",
    "default_algorithms",
    "deadline_sweep",
    "beta_sweep",
]

#: The sweep's algorithm set as (display label, engine registry name) pairs.
SWEEP_ALGORITHMS: Tuple[Tuple[str, str], ...] = (
    ("iterative (ours)", "iterative"),
    ("dp-energy+greedy", "dp-energy+greedy"),
    ("last-task-first", "last-task-first"),
    ("best-uniform", "best-uniform"),
    ("all-fastest", "all-fastest"),
)


@dataclass(frozen=True)
class SweepPoint:
    """Costs of every algorithm at one sweep coordinate."""

    coordinate: float
    """The swept value (a deadline or a beta)."""

    costs: Dict[str, float]
    """Algorithm name -> battery cost sigma (inf when the algorithm failed)."""


@dataclass(frozen=True)
class SweepResult:
    """A labelled series of sweep points."""

    parameter: str
    graph_name: str
    points: Tuple[SweepPoint, ...]
    algorithms: Tuple[str, ...]

    def to_table(self) -> TextTable:
        """One row per sweep coordinate, one sigma column per algorithm."""
        table = TextTable(
            title=f"{self.parameter} sweep on {self.graph_name}",
            headers=(self.parameter, *self.algorithms),
        )
        for point in self.points:
            table.add_row(point.coordinate, *(point.costs[name] for name in self.algorithms))
        return table

    def series(self, algorithm: str) -> Tuple[float, ...]:
        """The cost curve of one algorithm across the sweep."""
        return tuple(point.costs[algorithm] for point in self.points)


def default_algorithms(
    config: Optional[SchedulerConfig] = None,
) -> Dict[str, Callable[[SchedulingProblem], object]]:
    """The sweep's algorithm set as in-process callables (legacy path)."""
    scheduler_config = config or SchedulerConfig()
    return {
        "iterative (ours)": lambda problem: battery_aware_schedule(problem, config=scheduler_config),
        "dp-energy+greedy": rakhmatov_baseline,
        "last-task-first": chowdhury_baseline,
        "best-uniform": best_uniform_baseline,
        "all-fastest": all_fastest_baseline,
    }


def _evaluate(problem: SchedulingProblem, algorithms: Mapping[str, Callable]) -> Dict[str, float]:
    costs: Dict[str, float] = {}
    for name, algorithm in algorithms.items():
        try:
            result = algorithm(problem)
            costs[name] = float(result.cost)
        except Exception:
            costs[name] = float("inf")
    return costs


def _engine_points(
    problems: Sequence[SchedulingProblem],
    coordinates: Sequence[float],
    executor,
    store: Optional[ResultStore],
    resume: bool,
    seed: Optional[int] = None,
) -> List[SweepPoint]:
    """Run the sweep grid through the engine and fold results into points."""
    engine_names = [engine for _, engine in SWEEP_ALGORITHMS]
    run = run_experiments(
        problems,
        engine_names,
        executor=executor,
        store=store,
        resume=resume,
        params={"seed": int(seed)} if seed is not None else None,
    )
    per_problem = len(engine_names)
    points: List[SweepPoint] = []
    for index, coordinate in enumerate(coordinates):
        row = run.results[index * per_problem : (index + 1) * per_problem]
        costs = {
            display: float(result.cost) if result.ok else float("inf")
            for (display, _), result in zip(SWEEP_ALGORITHMS, row)
        }
        points.append(SweepPoint(coordinate=coordinate, costs=costs))
    return points


def deadline_sweep(
    graph: TaskGraph,
    num_points: int = 8,
    battery: Optional[BatterySpec] = None,
    algorithms: Optional[Mapping[str, Callable]] = None,
    margin: float = 0.02,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    seed: Optional[int] = None,
) -> SweepResult:
    """Scan the deadline between the all-fastest and all-slowest makespans.

    ``margin`` keeps the tightest point slightly above the all-fastest
    makespan so every algorithm has at least a sliver of slack to work with.
    ``seed`` is merged into every engine job's parameters: stochastic
    algorithms consume it, deterministic ones record it in their job keys
    (so stores keep per-seed results apart).
    """
    if num_points < 2:
        raise ConfigurationError("num_points must be >= 2")
    battery = battery or BatterySpec()
    lo = graph.min_makespan()
    hi = graph.max_makespan()
    span = hi - lo
    deadlines: List[float] = []
    problems: List[SchedulingProblem] = []
    for index in range(num_points):
        fraction = margin + (1.0 - margin) * index / (num_points - 1)
        deadline = lo + fraction * span
        deadlines.append(deadline)
        problems.append(
            SchedulingProblem(
                graph=graph, deadline=deadline, battery=battery, name=f"{graph.name}@{deadline:.1f}"
            )
        )

    if algorithms is not None:
        algorithms = dict(algorithms)
        points = [
            SweepPoint(coordinate=deadline, costs=_evaluate(problem, algorithms))
            for deadline, problem in zip(deadlines, problems)
        ]
        labels = tuple(algorithms)
    else:
        points = _engine_points(
            problems, deadlines, executor, store, resume, seed=seed
        )
        labels = tuple(display for display, _ in SWEEP_ALGORITHMS)
    return SweepResult(
        parameter="deadline",
        graph_name=graph.name or "graph",
        points=tuple(points),
        algorithms=labels,
    )


def beta_sweep(
    graph: TaskGraph,
    deadline: float,
    betas: Sequence[float] = (0.1, 0.2, 0.273, 0.4, 0.8, 1.6, 5.0),
    algorithms: Optional[Mapping[str, Callable]] = None,
    executor=None,
    store: Optional[ResultStore] = None,
    resume: bool = False,
    seed: Optional[int] = None,
) -> SweepResult:
    """Scan the battery diffusion parameter at a fixed deadline."""
    if not betas:
        raise ConfigurationError("at least one beta value is required")
    problems = [
        SchedulingProblem(
            graph=graph,
            deadline=deadline,
            battery=BatterySpec(beta=beta),
            name=f"{graph.name}@beta={beta:g}",
        )
        for beta in betas
    ]

    if algorithms is not None:
        algorithms = dict(algorithms)
        points = [
            SweepPoint(coordinate=float(beta), costs=_evaluate(problem, algorithms))
            for beta, problem in zip(betas, problems)
        ]
        labels = tuple(algorithms)
    else:
        points = _engine_points(
            problems,
            [float(beta) for beta in betas],
            executor,
            store,
            resume,
            seed=seed,
        )
        labels = tuple(display for display, _ in SWEEP_ALGORITHMS)
    return SweepResult(
        parameter="beta",
        graph_name=graph.name or "graph",
        points=tuple(points),
        algorithms=labels,
    )
