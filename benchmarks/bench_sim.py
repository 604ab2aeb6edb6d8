"""Benchmark of the runtime simulator (events/sec + replay conformance).

Measures, on a crossbar scenario (complete inter-layer wiring — the
densest wakeup pattern the generators produce):

* **events/sec** of the event loop per policy — a 200-task crossbar under
  10% jitter + 2% failures, replicated over seeds;
* **batched replications/sec** — the same workload driven through
  :class:`~repro.sim.BatchSimulator` in lockstep lanes, with every
  lane's sigma asserted *bit-identical* to a freshly run scalar
  simulator whose wall is reported next to the batch wall; and
* **per-imode decision overhead** — the same crossbar per policy under
  each information mode (:mod:`repro.sim.imode`): ``exact`` must be
  bitwise-identical to the imode-free simulator and is gated (full mode)
  to <= 1.05x of its wall pooled over the policies; the belief modes'
  per-replication walls are reported alongside; and
* **replay-vs-offline conformance timing** — simulating a
  ``StaticReplayScheduler`` with zero perturbation against the offline
  ``evaluate_schedule`` of the same candidate, asserting the sigmas are
  *bit-identical* for every chemistry (the sim stack's conformance
  anchor) and reporting the simulation overhead factor.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_sim.py            # full, writes BENCH_sim.json
    PYTHONPATH=src python benchmarks/bench_sim.py --smoke    # quick CI regression gate

The smoke mode shrinks the workload (60 tasks, fewer replications), still
asserts bitwise replay conformance on every chemistry and fails (non-zero
exit) if the event loop drops below a conservative absolute throughput
floor — a hot-path regression gate for CI, sized an order of magnitude
below what the pure-Python loop sustains so machine noise cannot trip it.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List

from repro.battery import (
    IdealBatteryModel,
    KineticBatteryModel,
    PeukertModel,
    RakhmatovVrudhulaModel,
)
from repro.scenarios import ScenarioSpec
from repro.scheduling import (
    DesignPointAssignment,
    evaluate_schedule,
    sequence_by_decreasing_energy,
)
from repro.sim import (
    BatchSimulator,
    InformationMode,
    PerturbationModel,
    Simulator,
    StaticReplayScheduler,
    make_policy,
    rng_for_seed,
)

from _workloads import bench_main, crossbar_spec, workload_header

#: Minimum events/sec the smoke gate tolerates (the loop sustains well
#: over 10x this on any recent machine; the margin absorbs noisy CI boxes).
SMOKE_EVENTS_PER_SEC_FLOOR = 5_000.0

#: Minimum batched replications/sec the smoke gate tolerates on the small
#: smoke crossbar (same order-of-magnitude margin as the events/s floor).
SMOKE_BATCH_REPS_PER_SEC_FLOOR = 10.0

#: Ceiling on the exact-information-mode wall relative to the imode-free
#: simulator, measured in the same run (full mode only).  Exact mode is
#: the literal pre-imode code path behind a ``beliefs is None`` check, so
#: anything beyond measurement noise means the plumbing leaked into the
#: hot loop.  The ratio pools every policy (sum of best-of-trials walls):
#: per-policy ratios are reported but carry too much scheduler noise to
#: gate at 5%.
IMODE_EXACT_OVERHEAD_CEILING = 1.05

#: The belief modes timed (and reported) next to the exact control.
IMODE_BELIEF_MODES = {
    "blind": InformationMode.blind(),
    "mean": InformationMode.mean(),
    "noisy": InformationMode.noisy(0.3, seed=101),
}

CHEMISTRY_MODELS = {
    "rakhmatov": lambda: RakhmatovVrudhulaModel(beta=0.273),
    "peukert": lambda: PeukertModel(exponent=1.3),
    "kibam": lambda: KineticBatteryModel(c=0.625, k=0.05),
    "ideal": lambda: IdealBatteryModel(),
}

POLICIES = ("static-replay", "greedy-energy", "deadline-slack", "battery-reactive")


def bench_events_per_second(
    spec: ScenarioSpec, policy: str, replications: int
) -> Dict[str, float]:
    """Wall-clock the event loop for one policy over seeded replications.

    The scheduler is built once outside the timed region (policies rebind
    per run through ``init``): for ``static-replay`` construction runs the
    whole offline algorithm, which would otherwise dominate and measure
    the wrong stack.
    """
    problem = spec.build_problem()
    perturbation = spec.perturbation()
    scheduler = make_policy(policy, problem)
    total_events = 0
    started = time.perf_counter()
    for replication in range(replications):
        result = Simulator(
            problem,
            scheduler,
            perturbation=perturbation,
            rng=rng_for_seed(0, replication),
        ).run()
        total_events += result.events
    wall = time.perf_counter() - started
    return {
        "tasks": problem.graph.num_tasks,
        "replications": replications,
        "events": total_events,
        "wall_s": wall,
        "events_per_sec": total_events / wall if wall > 0 else float("inf"),
    }


def _batch_schedulers(policy: str, problem, lanes: int):
    """One scheduler per lane; offline work for static-replay runs once."""
    if policy == "static-replay":
        base = make_policy(policy, problem)
        return [base] + [
            StaticReplayScheduler(base.sequence, base.columns)
            for _ in range(lanes - 1)
        ]
    return [make_policy(policy, problem) for _ in range(lanes)]


def bench_batch_replications(
    spec: ScenarioSpec, policy: str, replications: int, trials=5
) -> Dict[str, float]:
    """Wall-clock lockstep batch lanes and verify sigmas against scalar.

    Every lane's sigma must be bit-identical to a scalar ``Simulator``
    run on the same ``(seed, replication)`` stream — the batch path's
    conformance contract — so the scalar pass doubles as both the
    correctness oracle and an in-run speedup reference.  The batch wall
    is the best of ``trials`` runs (single-run walls on shared boxes
    carry multi-x scheduling noise).
    """
    problem = spec.build_problem()
    perturbation = spec.perturbation()

    # Lane schedulers rebind per run through ``init`` (and for
    # static-replay, construction runs the whole offline algorithm), so
    # the same lane list serves every trial; only the RNGs are stateful.
    schedulers = _batch_schedulers(policy, problem, replications)
    batch_wall = float("inf")
    for _ in range(trials):
        rngs = [rng_for_seed(0, replication) for replication in range(replications)]
        started = time.perf_counter()
        outcomes = BatchSimulator(
            problem, schedulers, rngs=rngs, perturbation=perturbation
        ).run()
        batch_wall = min(batch_wall, time.perf_counter() - started)

    # Scalar oracle: one scheduler, rebound per run through ``init`` (for
    # static-replay, constructing fresh per replication would re-run the
    # whole offline algorithm N times and dwarf the measurement).
    scalar_scheduler = _batch_schedulers(policy, problem, 1)[0]
    started = time.perf_counter()
    bitwise_equal = True
    for replication, outcome in enumerate(outcomes):
        scalar = Simulator(
            problem,
            scalar_scheduler,
            perturbation=perturbation,
            rng=rng_for_seed(0, replication),
        ).run()
        if isinstance(outcome, Exception) or outcome.cost != scalar.cost:
            bitwise_equal = False
    scalar_wall = time.perf_counter() - started

    batch_ms = batch_wall / replications * 1e3
    return {
        "replications": replications,
        "wall_s": batch_wall,
        "ms_per_replication": batch_ms,
        "replications_per_sec": replications / batch_wall if batch_wall else float("inf"),
        "scalar_wall_s": scalar_wall,
        "sigma_bitwise_equal": bitwise_equal,
    }


def bench_imode_overhead(
    spec: ScenarioSpec, policy: str, replications: int, trials=3
) -> Dict[str, float]:
    """Per-information-mode decision overhead for one policy.

    Times the scalar simulator under no information mode, under
    ``exact`` (which must be bitwise-identical *and* free — it is the
    same code path), and under each belief mode (which legitimately pay
    for belief-table lookups).  Walls are best-of-``trials``; the exact
    run's sigmas are asserted equal to the imode-free run's.
    """
    problem = spec.build_problem()
    perturbation = spec.perturbation()
    scheduler = make_policy(policy, problem)

    def timed(imode, n_trials):
        best = float("inf")
        costs: List[float] = []
        for _ in range(n_trials):
            started = time.perf_counter()
            costs = []
            for replication in range(replications):
                result = Simulator(
                    problem,
                    scheduler,
                    perturbation=perturbation,
                    rng=rng_for_seed(0, replication),
                    imode=imode,
                ).run()
                costs.append(result.cost)
            best = min(best, time.perf_counter() - started)
        return best, costs

    unset_wall, unset_costs = timed(None, trials)
    exact_wall, exact_costs = timed(InformationMode.exact(), trials)
    row: Dict[str, float] = {
        "replications": replications,
        "unset_ms_per_rep": unset_wall / replications * 1e3,
        "exact_ms_per_rep": exact_wall / replications * 1e3,
        "unset_wall_s": unset_wall,
        "exact_wall_s": exact_wall,
        "exact_overhead_vs_unset": (
            exact_wall / unset_wall if unset_wall else float("inf")
        ),
        "exact_bitwise_equal": exact_costs == unset_costs,
    }
    for name, mode in sorted(IMODE_BELIEF_MODES.items()):
        wall, _ = timed(mode, 1)
        row[f"{name}_ms_per_rep"] = wall / replications * 1e3
    return row


def bench_replay_conformance(
    spec: ScenarioSpec, repeats: int
) -> Dict[str, Dict[str, float]]:
    """Replay-vs-offline timing, with the bitwise equality asserted per chemistry."""
    graph = spec.build_graph()
    sequence = sequence_by_decreasing_energy(graph)
    assignment = DesignPointAssignment.all_fastest(graph)
    columns = {name: assignment[name] for name in sequence}
    problem = spec.build_problem()
    report: Dict[str, Dict[str, float]] = {}
    for chemistry, make_model in sorted(CHEMISTRY_MODELS.items()):
        model = make_model()

        started = time.perf_counter()
        for _ in range(repeats):
            offline = evaluate_schedule(
                graph, sequence, assignment, model, validate=False
            )
        offline_wall = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(repeats):
            simulated = Simulator(
                problem,
                StaticReplayScheduler(sequence, columns),
                perturbation=PerturbationModel(),
                model=model,
            ).run()
        sim_wall = time.perf_counter() - started

        report[chemistry] = {
            "bitwise_equal": simulated.cost == offline.cost,
            "offline_wall_s": offline_wall,
            "simulated_wall_s": sim_wall,
            "overhead_factor": sim_wall / offline_wall if offline_wall else float("inf"),
        }
    return report


def run(smoke: bool, output: str) -> int:
    if smoke:
        spec = crossbar_spec(num_layers=12, layer_width=5)  # 60 tasks
        replications, repeats, batch_replications = 3, 5, 20
    else:
        spec = crossbar_spec(num_layers=40, layer_width=5)  # 200 tasks
        replications, repeats, batch_replications = 10, 20, 100

    report = {
        "workload": workload_header(spec),
        "mode": "smoke" if smoke else "full",
        "events": {},
        "batch": {},
        "imode": {},
        "replay_conformance": {},
    }

    print(f"== event-loop throughput ({spec.name}, jitter 10% / fail 2%) ==")
    for policy in POLICIES:
        row = bench_events_per_second(spec, policy, replications)
        report["events"][policy] = row
        print(
            f"  {policy:<18} {row['events']:6d} events in {row['wall_s']:6.2f}s   "
            f"{row['events_per_sec']:10.0f} events/s"
        )

    print(
        f"== batched replications/sec ({batch_replications} lockstep lanes, "
        "sigma verified vs scalar) =="
    )
    for policy in POLICIES:
        row = bench_batch_replications(spec, policy, batch_replications)
        report["batch"][policy] = row
        print(
            f"  {policy:<18} {row['ms_per_replication']:7.2f} ms/rep   "
            f"{row['replications_per_sec']:8.1f} reps/s   "
            f"bitwise: {row['sigma_bitwise_equal']}"
        )

    print(
        "== per-imode decision overhead (exact must be bitwise-equal "
        "and free) =="
    )
    for policy in POLICIES:
        row = bench_imode_overhead(spec, policy, replications)
        report["imode"][policy] = row
        print(
            f"  {policy:<18} unset {row['unset_ms_per_rep']:7.2f} ms/rep   "
            f"exact {row['exact_ms_per_rep']:7.2f} "
            f"({row['exact_overhead_vs_unset']:4.2f}x, "
            f"bitwise: {row['exact_bitwise_equal']})   "
            f"blind {row['blind_ms_per_rep']:7.2f}   "
            f"mean {row['mean_ms_per_rep']:7.2f}   "
            f"noisy {row['noisy_ms_per_rep']:7.2f}"
        )

    print("== replay-vs-offline conformance (zero perturbation) ==")
    conformance = bench_replay_conformance(spec, repeats)
    report["replay_conformance"] = conformance
    for chemistry, row in conformance.items():
        print(
            f"  {chemistry:<10} bitwise equal: {row['bitwise_equal']}   "
            f"offline {row['offline_wall_s'] / repeats * 1e3:7.2f}ms   "
            f"simulated {row['simulated_wall_s'] / repeats * 1e3:7.2f}ms   "
            f"overhead {row['overhead_factor']:5.1f}x"
        )

    failures: List[str] = []
    for chemistry, row in conformance.items():
        if not row["bitwise_equal"]:
            failures.append(
                f"[{chemistry}] simulated replay sigma diverged from the "
                "offline evaluator"
            )
    for policy, row in report["events"].items():
        if row["events_per_sec"] < SMOKE_EVENTS_PER_SEC_FLOOR:
            failures.append(
                f"[{policy}] event loop below the "
                f"{SMOKE_EVENTS_PER_SEC_FLOOR:.0f} events/s floor "
                f"({row['events_per_sec']:.0f})"
            )
    for policy, row in report["batch"].items():
        if not row["sigma_bitwise_equal"]:
            failures.append(
                f"[{policy}] batched lane sigmas diverged from the scalar "
                "simulator"
            )
        if row["replications_per_sec"] < SMOKE_BATCH_REPS_PER_SEC_FLOOR:
            failures.append(
                f"[{policy}] batch path below the "
                f"{SMOKE_BATCH_REPS_PER_SEC_FLOOR:.0f} replications/s floor "
                f"({row['replications_per_sec']:.1f})"
            )
    for policy, row in report["imode"].items():
        if not row["exact_bitwise_equal"]:
            failures.append(
                f"[{policy}] exact-imode sigmas diverged from the "
                "imode-free simulator"
            )
    if not smoke:
        pooled_unset = sum(row["unset_wall_s"] for row in report["imode"].values())
        pooled_exact = sum(row["exact_wall_s"] for row in report["imode"].values())
        pooled_ratio = pooled_exact / pooled_unset if pooled_unset else float("inf")
        if pooled_ratio > IMODE_EXACT_OVERHEAD_CEILING:
            failures.append(
                f"exact-imode pooled overhead {pooled_ratio:.3f}x exceeds "
                f"the {IMODE_EXACT_OVERHEAD_CEILING}x ceiling vs the "
                "imode-free simulator"
            )

    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


def main() -> int:
    return bench_main(run, "BENCH_sim.json", __doc__.splitlines()[0])


if __name__ == "__main__":
    sys.exit(main())
