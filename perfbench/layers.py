"""Per-layer attribution measured from outside the program.

A :class:`Tracer` wraps public functions and methods of each layer of
``repro`` with spans (calls, inclusive and self seconds) or plain call
counters, runs a workload, and puts every original back.  Nothing in
``src/`` is instrumented for this: the wrappers live here, and the
program runs unmodified when no tracer is installed.

Rules the wrappers follow:

* A name is patched where callers look it up.  A function is replaced in
  its defining module *and* in every loaded ``repro`` module that bound
  the same object with ``from .x import f`` (or only in the listed
  ``sites``, when a boundary names them); a method is replaced on its
  class, which every instance looks it up through.
* Targets are resolved by dotted name at install time.  A target that no
  longer exists is skipped and reported, so refactors of the program never
  force an edit here; its metrics read zero.
* Leaf calls made hundreds of thousands of times per pass are count-only:
  timing each would inflate the self time of their callers.
* A span's self time is its duration minus the time of the spans it
  encloses; ``total_s`` counts only the outermost span of a name, so a
  re-entrant boundary is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Boundary", "Stat", "Tracer", "boundaries", "DEFAULT_POLICIES", "CHEMISTRY_NAMES"]

#: The policies and chemistries whose per-layer metrics are always reported
#: (the simulation suite's default policies; the four battery chemistries).
DEFAULT_POLICIES = ("static-replay", "greedy-energy", "deadline-slack", "battery-reactive")
CHEMISTRY_NAMES = ("rakhmatov", "peukert", "kibam", "ideal")


@dataclass
class Stat:
    """What one boundary recorded."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    """Boundary-specific work count (kernel intervals, cache hits)."""
    depth: int = 0


@dataclass(frozen=True)
class Boundary:
    """One wrapped name.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.  ``name``
    is the metric prefix, or a callable ``(args) -> prefix`` for a method
    shared by several subclasses.  ``mode`` is ``"span"`` or ``"count"``;
    ``items`` optionally maps ``(args, result)`` to a work count.
    """

    name: Union[str, Callable[[tuple], str]]
    target: str
    mode: str = "span"
    sites: Tuple[str, ...] = ()
    items: Optional[Callable[[tuple, object], int]] = None


def _policy_name(args: tuple) -> str:
    return "sim.policy." + str(getattr(type(args[0]), "name", type(args[0]).__name__))


def _intervals(args: tuple, result) -> int:
    return len(args[1])


def _cache_hit(args: tuple, result) -> int:
    return result is not None


def boundaries() -> List[Boundary]:
    """The layer boundaries, resolved against the running program."""
    table = [
        # core: the paper's iterative heuristic
        Boundary("core.solve", "repro.core.iterative:BatteryAwareScheduler.solve"),
        Boundary("core.windows", "repro.core.windows:evaluate_windows"),
        Boundary("core.choose", "repro.core.choose:choose_design_points"),
        Boundary("core.dpf", "repro.core.choose:calculate_dpf"),
        Boundary("core.weighted", "repro.core.weighted:find_weighted_sequence"),
        Boundary(
            "core.matrices.total_time",
            "repro.core.matrices:SequencedMatrices.total_time",
            mode="count",
        ),
        # scheduling: full and incremental cost evaluation
        Boundary("scheduling.evaluate", "repro.scheduling.evaluator:evaluate_schedule"),
        Boundary(
            "scheduling.evaluate",
            "repro.scheduling.evaluator:IncrementalCostEvaluator.__init__",
        ),
        Boundary(
            "scheduling.propose",
            "repro.scheduling.evaluator:IncrementalCostEvaluator.propose_design_point",
        ),
        Boundary(
            "scheduling.propose",
            "repro.scheduling.evaluator:IncrementalCostEvaluator.propose_relocate",
        ),
        Boundary("scheduling.apply", "repro.scheduling.evaluator:IncrementalCostEvaluator.apply"),
        # engine: cache, job keys, run loop
        Boundary(
            "engine.cache", "repro.engine.cache:BatteryCostCache.lookup",
            mode="count", items=_cache_hit,
        ),
        Boundary("engine.job_key", "repro.engine.jobs:Job.key"),
        Boundary("engine.job_key", "repro.engine.simjobs:SimulationJob.key"),
        Boundary("engine.run", "repro.engine.api:run_jobs"),
        Boundary("engine.run", "repro.engine.simjobs:run_simulation_jobs"),
        # baselines
        Boundary("baselines.anneal", "repro.baselines.annealing:simulated_annealing_baseline"),
        # simulation
        # Constructing a simulator counts as running it: batch lanes are
        # built inside BatchSimulator.__init__, scalar ones by the engine.
        Boundary("sim.run", "repro.sim.runtime:Simulator.__init__"),
        Boundary("sim.run", "repro.sim.runtime:Simulator.run"),
        Boundary("sim.run", "repro.sim.batch:BatchSimulator.__init__"),
        Boundary("sim.run", "repro.sim.batch:BatchSimulator.run"),
        Boundary(
            "sim.anchor", "repro.engine.api:run_experiments",
            sites=("repro.experiments.simulate",),
        ),
        # scenarios
        Boundary("scenarios.build_problem", "repro.scenarios.spec:ScenarioSpec.build_problem"),
    ]
    table.extend(_chemistry_kernels())
    table.extend(_policy_schedules())
    return table


def _chemistry_kernels() -> List[Boundary]:
    """One kernel boundary per battery chemistry, found through its spec.

    A chemistry the program no longer builds gets an unresolvable target,
    so it is reported as skipped like any other missing name.
    """
    from repro.battery import BatterySpec

    found = []
    for chemistry in CHEMISTRY_NAMES:
        try:
            cls = type(BatterySpec(chemistry=chemistry).model())
            target = f"{cls.__module__}:{cls.__qualname__}.interval_contributions"
        except Exception:  # noqa: BLE001 - any failure means "target missing"
            target = f"repro.battery:{chemistry}"
        found.append(Boundary(f"battery.{chemistry}.kernel", target, items=_intervals))
    return found


def _policy_schedules() -> List[Boundary]:
    """``schedule`` of every scheduler class that defines its own."""
    try:
        from repro.sim.schedulers import Scheduler
    except ImportError:
        return [Boundary(_policy_name, "repro.sim.schedulers:Scheduler.schedule")]
    found = []
    pending = [Scheduler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not Scheduler and "schedule" in vars(cls):
            found.append(
                Boundary(_policy_name, f"{cls.__module__}:{cls.__qualname__}.schedule")
            )
    return found


def _resolve(target: str):
    """``(owner, attr, original)`` for a target string; raises LookupError."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(str(exc)) from None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}:{part} not found")
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise LookupError(f"{target} not defined on its class")
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        raise LookupError(f"{target} not found")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs boundary wrappers, accumulates :class:`Stat` per metric prefix.

    ``inject`` = ``(prefix, fraction)`` adds a busy-wait of ``fraction`` of
    each call's own self time inside that boundary's span: a synthetic
    slowdown confined to one layer, for the attribution self-test.
    """

    def __init__(self, inject: Optional[Tuple[str, float]] = None) -> None:
        self.stats: Dict[str, Stat] = {}
        self.skipped: List[str] = []
        self._stack: List[List[float]] = []
        #: ``(owner, attr, original)`` of every name currently replaced.
        self.patches: List[Tuple[object, str, object]] = []
        self._inject = inject

    def stat(self, name: str) -> Stat:
        found = self.stats.get(name)
        if found is None:
            found = self.stats[name] = Stat()
        return found

    def reset(self) -> None:
        """Zero every stat in place (wrappers hold references to them)."""
        for stat in self.stats.values():
            stat.calls = stat.items = stat.depth = 0
            stat.total_s = stat.self_s = 0.0

    # ------------------------------------------------------------------
    def install(self, table: Sequence[Boundary]) -> None:
        """Wrap every resolvable boundary; list the rest in ``skipped``."""
        self.skipped = []
        for boundary in table:
            try:
                owner, attr, original = _resolve(boundary.target)
            except LookupError:
                self.skipped.append(boundary.target)
                continue
            wrapper = self._wrap(boundary, original)
            if isinstance(owner, type):
                owners = [owner]
            elif boundary.sites:
                owners = [sys.modules[site] for site in boundary.sites if site in sys.modules]
            else:
                owners = [
                    module
                    for name, module in list(sys.modules.items())
                    if name.startswith("repro")
                ]
            for site in owners:
                if vars(site).get(attr) is original:
                    self.patches.append((site, attr, original))
                    setattr(site, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _wrap(self, boundary: Boundary, fn):
        if boundary.mode == "count":
            return self._counter(boundary, fn)
        return self._span(boundary, fn)

    def _counter(self, boundary: Boundary, fn):
        stat = self.stat(boundary.name)
        items = boundary.items

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stat.calls += 1
            if items is not None:
                stat.items += items(args, result)
            return result

        return counted

    def _span(self, boundary: Boundary, fn):
        stack = self._stack
        clock = time.perf_counter
        name = boundary.name
        items = boundary.items
        lookup = self.stat
        inject = None
        if self._inject is not None and self._inject[0] == name:
            inject = self._inject[1]

        fixed = None if callable(name) else lookup(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stat = fixed if fixed is not None else lookup(name(args))
            frame = [0.0]
            stack.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if items is not None:
                    stat.items += items(args, result)
                return result
            finally:
                if inject is not None:
                    until = clock() + inject * (clock() - start - frame[0])
                    while clock() < until:
                        pass
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stat.depth == 0:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return spanned
