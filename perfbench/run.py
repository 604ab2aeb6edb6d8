"""End-to-end benchmark of ``suite --run``, annealing and ``simulate``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload catalog-offline --seed 0 --seconds 25 --trace 0

Each run takes the committed catalogue's scenarios (``--seed`` seeds
annealing and the simulation's perturbations), warms up on a few
scenarios, then repeats whole passes through the public entry points
``repro.experiments.suite.run_suite`` / ``run_simulation_suite`` for about
``--seconds``.  Every pass gets fresh specs, so no per-graph memo carries
over, and every pass is checked outside the timed region.  With
``--trace 0`` the program runs unmodified and the end-to-end metrics are
reported, every time in reference seconds (``hostspeed.py``); with
``--trace 1`` traced passes (wrappers from ``layers.py``) alternate with
untraced ones and the per-layer metrics are reported.  The last line of
standard output is one JSON object; the lines before it are a
human-readable report, including the result digest that two commits must
share.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Annealing moves per job on ``anneal-evaluator``.
ANNEAL_ITERATIONS = 2000
#: Monte Carlo replications per (scenario, policy) cell on ``sim-montecarlo``:
#: enough that simulation outweighs the offline anchor solves.
REPLICATIONS = 100
#: Set-up is measured this many times, each in a fresh interpreter.
SETUP_SAMPLES = 5
#: Scenarios in the warm-up pass (lazy imports and first calls, untimed).
WARMUP_SCENARIOS = 4


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def scenario_specs(stochastic: bool):
    """Fresh copies of the catalogue's specs, in catalogue order.

    These are the scenarios ``suite --run`` and ``simulate`` run.  The seed
    is not applied to them: re-seeding the graphs moved the work of a pass
    by up to 30 % from seed to seed, and shuffling their order by the seed
    moved the median solve latency on ``catalog-offline`` between two
    levels 7 % apart.  The seed drives annealing and the simulation's
    perturbations instead (see :data:`WORKLOADS`).
    """
    from repro.scenarios import default_registry

    return tuple(replace(spec) for spec in default_registry().select(stochastic=stochastic))


# ----------------------------------------------------------------------
# one checked pass
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What the checker extracted from one pass."""

    attempted: int = 0
    failed: int = 0
    rows: List[tuple] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    events: int = 0
    retries: int = 0
    misses: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def check_offline(jobs, refs: Dict[str, tuple], primary: str) -> Outcome:
    """Every job ok, feasible, precedence-valid, and re-costed bitwise."""
    from repro.errors import ReproError
    from repro.scheduling import DesignPointAssignment, evaluate_schedule
    from repro.taskgraph import validate_sequence

    outcome = Outcome()
    for job in jobs:
        outcome.attempted += 1
        label = f"{job.problem_name}/{job.algorithm}"
        outcome.rows.append(
            (
                job.problem_name, job.algorithm, _hex(job.cost), _hex(job.makespan),
                list(job.sequence or ()), sorted((job.assignment or {}).items()),
            )
        )
        if not job.ok or not job.feasible:
            outcome.fail(f"{label}: not ok/feasible ({job.error})")
            continue
        problem, fastest_sigma = refs[job.problem_name]
        try:
            validate_sequence(problem.graph, job.sequence)
            cost = evaluate_schedule(
                problem.graph, job.sequence, DesignPointAssignment(job.assignment),
                problem.model(), deadline=problem.deadline,
            ).cost
        except ReproError as exc:
            outcome.fail(f"{label}: {exc}")
            continue
        if cost != job.cost:
            outcome.fail(f"{label}: re-costed sigma {cost!r} != {job.cost!r}")
            continue
        if job.algorithm == primary:
            outcome.costs.append(job.cost / fastest_sigma)
    return outcome


def check_simulation(result, refs: Dict[str, tuple]) -> Outcome:
    """Every replication completed with a finite sigma and events > 0."""
    outcome = Outcome()
    for name, anchor in result.offline_costs.items():
        if not math.isfinite(anchor):
            outcome.fail(f"anchor {name}: sigma {anchor!r}")
    for record in result.run.records:
        outcome.attempted += 1
        outcome.rows.append(
            (
                record.scenario, record.policy, record.replication, _hex(record.cost),
                _hex(record.makespan), record.feasible, record.retries, record.events,
                _hex(record.depletion_time),
            )
        )
        label = f"{record.scenario}/{record.policy}#{record.replication}"
        if not record.ok or record.cost is None or not math.isfinite(record.cost):
            outcome.fail(f"{label}: {record.error or record.cost}")
            continue
        if record.events <= 0:
            outcome.fail(f"{label}: no events")
            continue
        outcome.events += record.events
        outcome.retries += record.retries
        outcome.misses += not record.feasible
        if record.policy == "static-replay":
            outcome.costs.append(record.cost / refs[record.scenario][1])
    return outcome


def _hex(value) -> Optional[str]:
    return None if value is None else float(value).hex()


class Progress:
    """``progress`` callback splitting a pass into one segment per job.

    The engine calls it after every job (after every batch of same-cell
    replications in simulation), so consecutive calls bracket exactly one
    job; the pass start and end close the first and last segment.  Each
    primary job is a latency sample: its own time (``Workload.own_time``)
    where the result records one, else its segment's, which leaves out the
    first segment because that one also holds the pass's preamble.
    """

    def __init__(self, workload: "Workload") -> None:
        self.primary = workload.primary
        self.own_time = workload.own_time
        self.sampled: List[Tuple[int, Optional[float]]] = []
        self.marks: List[Tuple[float, float]] = []

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time()))

    def __call__(self, done, total, result) -> None:
        self.mark()
        segment = len(self.marks) - 2
        if self.primary(result):
            if self.own_time is not None:
                self.sampled.append((segment, self.own_time(result)))
            elif segment > 0:
                self.sampled.append((segment, None))


@dataclass(frozen=True)
class Workload:
    name: str
    stochastic: bool
    primary: Callable[[object], bool]
    run: Callable  # (specs, seed, progress) -> result
    check: Callable  # (result, refs) -> Outcome
    own_time: Optional[Callable[[object], float]] = None
    """A primary result's own seconds, when the result records them."""


def _run_catalog(specs, seed, progress):
    from repro.experiments.suite import run_suite
    from repro.scenarios import ScenarioRegistry

    return run_suite(registry=ScenarioRegistry(specs), progress=progress)


def _run_anneal(specs, seed, progress):
    from repro.experiments.suite import run_suite
    from repro.scenarios import ScenarioRegistry

    return run_suite(
        registry=ScenarioRegistry(specs),
        algorithms={"annealing": {"iterations": ANNEAL_ITERATIONS}},
        seed=seed,
        progress=progress,
    )


def _run_simulation(specs, seed, progress):
    from repro.experiments.simulate import run_simulation_suite
    from repro.scenarios import ScenarioRegistry

    return run_simulation_suite(
        registry=ScenarioRegistry(specs),
        replications=REPLICATIONS,
        seed=seed,
        progress=progress,
    )


WORKLOADS = {
    "catalog-offline": Workload(
        "catalog-offline", False,
        lambda job: job.algorithm == "iterative",
        _run_catalog,
        lambda result, refs: check_offline(result.run.results, refs, "iterative"),
        lambda job: job.elapsed_s,
    ),
    "anneal-evaluator": Workload(
        "anneal-evaluator", False,
        lambda job: job.algorithm == "annealing",
        _run_anneal,
        lambda result, refs: check_offline(result.run.results, refs, "annealing"),
        lambda job: job.elapsed_s,
    ),
    "sim-montecarlo": Workload(
        "sim-montecarlo", True,
        lambda batch: True,
        _run_simulation,
        check_simulation,
    ),
}


@dataclass
class Pass:
    walls: List[float]
    """Wall seconds of each job segment (see :class:`Progress`)."""
    cpus: List[float]
    sampled: List[Tuple[int, Optional[float]]]
    """Primary jobs: (segment, own seconds or None for the segment's)."""
    scales: List[float]
    """Each segment's factor to reference seconds (empty if not sampled)."""
    layers: Optional[Dict[str, float]] = None

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def reference(self, clock: str) -> List[float]:
        """Segments of ``walls`` or ``cpus`` in reference seconds."""
        return [value * factor for value, factor in zip(getattr(self, clock), self.scales)]


def measure(progress: Progress, sampler: Optional[hostspeed.Sampler]) -> Pass:
    """The pass's segments, net of the sampler's own time, and their factors."""
    walls, cpus, scales = [], [], []
    for (wall0, cpu0), (wall1, cpu1) in zip(progress.marks, progress.marks[1:]):
        taken_wall, taken_cpu = sampler.taken(wall0, wall1) if sampler else (0.0, 0.0)
        walls.append(wall1 - wall0 - taken_wall)
        cpus.append(cpu1 - cpu0 - taken_cpu)
        if sampler:
            scales.append(sampler.factor(wall0, wall1))
    # A job's own time ends where its segment does (the engine reports it
    # right after the job), so only the samples inside that tail are its.
    sampled = []
    for segment, own in progress.sampled:
        if own is not None and sampler:
            end = progress.marks[segment + 1][0]
            own -= sampler.taken(end - own, end)[0]
        sampled.append((segment, own))
    return Pass(walls, cpus, sampled, scales)


class Ledger:
    """Check totals over a run.

    The first measured pass is the reference: its digest is reported, and
    every later pass must reproduce its results exactly (each differing
    result counts as failed).  Rows are dropped once compared, so the heap
    does not grow from pass to pass.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.reference: Optional[Outcome] = None
        self.digest = ""

    def record(self, outcome: Outcome, compare: bool = True) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.errors.extend(outcome.errors)
        if compare and self.reference is None:
            self.reference = outcome
            self.digest = hashlib.sha256(json.dumps(outcome.rows).encode("utf-8")).hexdigest()[:16]
        elif compare:
            rows, reference = outcome.rows, self.reference.rows
            differing = sum(a != b for a, b in zip(rows, reference))
            differing += abs(len(rows) - len(reference))
            if differing:
                self.failed += differing
                self.errors.append(f"{differing} results differ from the first pass")
            outcome.rows = []


def run_pass(workload: Workload, seed: int, refs, ledger: Ledger, tracer=None,
             specs=None, compare: bool = True) -> Pass:
    """One timed pass on fresh specs.

    Untraced passes are timed against the host's speed (``hostspeed.py``);
    traced ones are not, and tracing is installed only inside the pass.
    """
    import layers

    if specs is None:
        specs = scenario_specs(workload.stochastic)
    progress = Progress(workload)
    sampler = hostspeed.Sampler() if tracer is None else None
    if tracer is not None:
        tracer.reset()
        tracer.install(layers.boundaries())
    try:
        with sampler if sampler is not None else contextlib.nullcontext():
            progress.mark()
            result = workload.run(specs, seed, progress)
            progress.mark()
    finally:
        if tracer is not None:
            tracer.restore()
    outcome = workload.check(result, refs)
    measured = measure(progress, sampler)
    if tracer is not None:
        measured.layers = layer_values(tracer, measured.wall, outcome)
    ledger.record(outcome, compare)
    return measured


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
SPAN_LAYERS = (
    "core.solve", "core.windows", "core.choose", "core.dpf", "core.weighted",
    "scheduling.evaluate", "scheduling.propose", "scheduling.apply",
    "baselines.anneal", "sim.run", "engine.run", "engine.job_key",
    "scenarios.build_problem",
)


def layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    from layers import CHEMISTRY_NAMES, DEFAULT_POLICIES

    units: Dict[str, str] = {}
    spans = list(SPAN_LAYERS) + [f"sim.policy.{name}" for name in DEFAULT_POLICIES]
    for prefix in spans:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    for chemistry in CHEMISTRY_NAMES:
        for what, unit in (("calls", "count"), ("intervals", "count"), ("self_s", "s")):
            units[f"battery.{chemistry}.kernel.{what}"] = unit
    units.update({
        "core.matrices.total_time.calls": "count",
        "core.solve.wall_share": "ratio",
        "scheduling.accept_ratio": "ratio",
        "scheduling.stack.wall_share": "ratio",
        "engine.cache.lookups": "count",
        "engine.cache.hit_ratio": "ratio",
        "sim.run.wall_share": "ratio",
        "sim.events": "count",
        "sim.retries": "count",
        "sim.anchor_s": "s",
        "bench.trace.pass_wall_s": "s",
        "bench.trace.overhead_s": "s",
        "bench.trace.skipped_targets": "count",
    })
    return units


def layer_values(tracer, wall: float, outcome: Outcome) -> Dict[str, float]:
    """One traced pass's per-layer values (overhead is filled in later)."""
    from layers import Stat

    stats = tracer.stats

    def stat(name):
        return stats.get(name, Stat())

    values: Dict[str, float] = {}
    for name in layer_units():
        prefix, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = stat(prefix).calls
        elif what == "self_s":
            values[name] = stat(prefix).self_s
        elif what == "intervals":
            values[name] = stat(prefix).items
    proposals = stat("scheduling.propose").calls
    lookups = stat("engine.cache").calls
    stack_self = sum(
        found.self_s for name, found in stats.items()
        if name.startswith(("scheduling.", "battery."))
    )
    values.update({
        "core.solve.wall_share": stat("core.solve").total_s / wall,
        "scheduling.accept_ratio": stat("scheduling.apply").calls / proposals if proposals else 0.0,
        "scheduling.stack.wall_share": stack_self / wall,
        "engine.cache.lookups": lookups,
        "engine.cache.hit_ratio": stat("engine.cache").items / lookups if lookups else 0.0,
        "sim.run.wall_share": stat("sim.run").total_s / wall,
        "sim.events": outcome.events,
        "sim.retries": outcome.retries,
        "sim.anchor_s": stat("sim.anchor").total_s,
        "bench.trace.pass_wall_s": wall,
        "bench.trace.skipped_targets": len(tracer.skipped),
    })
    return values


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup(workload: Workload):
    """Import the program, generate the specs, build the reference problems."""
    import repro.experiments  # noqa: F401 - the import is part of set-up

    return {spec.name: spec.build_problem() for spec in scenario_specs(workload.stochastic)}


def references(problems) -> Dict[str, tuple]:
    """Scenario name -> (problem, sigma with every task at its fastest point).

    Sigma is reported relative to the all-fastest schedule so that
    scenarios of every size and load weigh alike in the cost metric.
    """
    from repro.baselines import all_fastest_baseline

    return {name: (problem, all_fastest_baseline(problem).cost) for name, problem in problems.items()}


def setup_probe(workload: Workload) -> None:
    """Print one set-up time in reference seconds (see ``hostspeed.py``)."""
    with hostspeed.Sampler() as sampler:
        started = time.perf_counter()
        setup(workload)
        ended = time.perf_counter()
    elapsed = ended - started - sampler.taken(started, ended)[0]
    print(json.dumps({"setup_s": elapsed * sampler.factor(started, ended), "raw_s": elapsed}))


def measure_setup(workload: Workload) -> List[dict]:
    """Set-up times of fresh interpreters (imports are cached per process)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload.name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else float("nan")


def latency_samples(passes: List[Pass]) -> List[float]:
    """Primary-job latencies in reference seconds, pooled over passes."""
    samples = []
    for measured in passes:
        for segment, own in measured.sampled:
            seconds = measured.walls[segment] if own is None else own
            samples.append(seconds * measured.scales[segment])
    return samples


def end_to_end(passes: List[Pass], ledger: Ledger, setup_samples: List[dict]) -> Dict:
    """Medians over the run's passes, every time in reference seconds."""
    wall = statistics.median(sum(p.reference("walls")) for p in passes)
    samples = latency_samples(passes)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup_samples), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(sum(p.reference("cpus")) for p in passes), "s"),
        "jobs_per_s": (ledger.reference.attempted / wall, "1/s"),
        "solve_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "solve_p90_ms": (1e3 * statistics.quantiles(samples, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cost_geomean": (_geomean(ledger.reference.costs), "ratio"),
    }


def use_source() -> bool:
    """Put the checkout's ``src`` on the import path; False if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_source():
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload)
        return 0

    import layers

    setup_samples = [] if args.trace else measure_setup(workload)
    refs = references(setup(workload))
    ledger = Ledger()
    warmup_specs = scenario_specs(workload.stochastic)[:WARMUP_SCENARIOS]
    run_pass(workload, args.seed, refs, ledger, specs=warmup_specs, compare=False)

    # Whole passes until the next one would end more than half a pass late.
    tracer = layers.Tracer() if args.trace else None
    untraced: List[Pass] = []
    traced: List[Pass] = []
    rounds: List[float] = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started + statistics.median(rounds) / 2 < args.seconds:
        round_started = time.perf_counter()
        untraced.append(run_pass(workload, args.seed, refs, ledger))
        if tracer is not None:
            traced.append(run_pass(workload, args.seed, refs, ledger, tracer))
        rounds.append(time.perf_counter() - round_started)

    reference = ledger.reference
    wall = statistics.median(p.wall for p in untraced)
    ref_wall = statistics.median(sum(p.reference("walls")) for p in untraced)
    kernels = [hostspeed.REFERENCE_S / factor for p in untraced for factor in p.scales]
    failed_frac = ledger.failed / ledger.attempted
    print(f"workload {workload.name} seed={args.seed} passes={len(untraced)} traced={len(traced)}")
    print("pass-wall-s " + " ".join(f"{p.wall:.3f}" for p in untraced) + f" median={wall:.4f}")
    print("pass-reference-s " + " ".join(f"{sum(p.reference('walls')):.3f}" for p in untraced)
          + f" median={ref_wall:.4f}")
    print(f"host-kernel-ms min={1e3 * min(kernels):.4f} median={1e3 * statistics.median(kernels):.4f}"
          f" max={1e3 * max(kernels):.4f} reference={1e3 * hostspeed.REFERENCE_S:.4f}")
    print(f"digest {workload.name} seed={args.seed} {ledger.digest}")
    print(f"check attempted={ledger.attempted} failed={ledger.failed}")
    for error in ledger.errors[:10]:
        print(f"check-error {error}")
    if reference.events:
        print(f"metric sim_events_per_s {reference.events / ref_wall:.6g} 1/s")
    print(f"metric deadline_miss_frac {reference.misses / reference.attempted:.6g} ratio")
    print(f"metric failed_frac {failed_frac:.6g} ratio")

    if tracer is None:
        metrics = end_to_end(untraced, ledger, setup_samples)
        print(f"samples solve={len(latency_samples(untraced))} setup={len(setup_samples)}"
              f" raw-setup-s={statistics.median(s['raw_s'] for s in setup_samples):.4f}")
    else:
        for target in tracer.skipped:
            print(f"skipped-target {target}")
        metrics = {
            name: (statistics.median(p.layers[name] for p in traced), unit)
            for name, unit in layer_units().items()
            if name != "bench.trace.overhead_s"
        }
        metrics["bench.trace.overhead_s"] = (
            statistics.median(p.wall for p in traced) - wall, "s"
        )
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
