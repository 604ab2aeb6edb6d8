"""Self-test of the benchmark's per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/selftest.py [--seed 0]

1. Coverage: one traced pass of every workload.  Each boundary records
   calls on the workload meant to stress it, the predicted zeros hold
   (``core.*`` on ``anneal-evaluator``, ``sim.*`` on ``catalog-offline``),
   every wrapped name is restored afterwards (a missing target is skipped
   and reported instead), and each workload's time lands
   in its intended layer: ``core.solve`` >= 80 % of ``catalog-offline``
   wall, scheduling + battery + engine cache > 50 % of ``anneal-evaluator``
   wall, ``sim.run`` > 50 % of ``sim-montecarlo`` wall.
2. Injected slowdown: interleaved traced passes of ``anneal-evaluator``
   with and without a 20 % busy-wait added inside one layer's wrapper (the
   Rakhmatov kernel).  Relative to the rest of the pass, that layer's self
   time must rise by about 20 % and no other layer's may move, so the delay
   is attributed to the layer that spent it and not to its caller.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import layers
import run

#: Calls expected > 0 on each workload (the layers it is meant to stress).
STRESSED = {
    "catalog-offline": (
        "core.solve", "core.windows", "core.choose", "core.dpf", "core.weighted",
        "core.matrices.total_time", "scheduling.evaluate", "battery.rakhmatov.kernel",
        "engine.run", "engine.job_key", "scenarios.build_problem",
    ),
    "anneal-evaluator": (
        "scheduling.evaluate", "scheduling.propose", "scheduling.apply",
        "baselines.anneal", "engine.run", "engine.job_key", "scenarios.build_problem",
    ) + tuple(f"battery.{name}.kernel" for name in layers.CHEMISTRY_NAMES),
    "sim-montecarlo": (
        "sim.run", "engine.run", "engine.job_key", "scenarios.build_problem",
        "core.solve", "battery.rakhmatov.kernel",
    ) + tuple(f"sim.policy.{name}" for name in layers.DEFAULT_POLICIES),
}
#: Calls predicted to be exactly 0 (metric-name prefixes).
ZERO = {
    "catalog-offline": ("sim.", "baselines.anneal.", "scheduling.propose.", "scheduling.apply."),
    "anneal-evaluator": ("core.", "sim."),
    "sim-montecarlo": ("baselines.anneal.", "scheduling.propose.", "scheduling.apply."),
}
#: (per-layer share metric, lowest allowed value, exclusive) per workload.
SHARES = {
    "catalog-offline": ("core.solve.wall_share", 0.8, False),
    "anneal-evaluator": ("scheduling.stack.wall_share", 0.5, True),
    "sim-montecarlo": ("sim.run.wall_share", 0.5, True),
}
INJECTED = "battery.rakhmatov.kernel"
INJECT_FRACTION = 0.2
INJECT_PAIRS = 3
#: Layers compared in the injection test: the kernel's caller and the other
#: layers with a few percent or more of the pass (smaller ones are all noise).
COMPARED = ("scheduling.propose", "scheduling.apply", "baselines.anneal")


class Report:
    def __init__(self) -> None:
        self.failures = 0

    def check(self, ok: bool, message: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {message}")
        self.failures += not ok


def coverage(report: Report, seed: int) -> None:
    units = run.layer_units()
    for name, workload in run.WORKLOADS.items():
        refs = run.references(run.setup(workload))
        ledger = run.Ledger()
        tracer = layers.Tracer()
        measured = run.run_pass(workload, seed, refs, ledger, tracer)
        values = measured.layers
        report.check(ledger.failed == 0, f"{name}: {ledger.attempted} results checked")
        report.check(not tracer.skipped, f"{name}: no skipped targets {tracer.skipped}")
        for prefix in STRESSED[name]:
            calls = tracer.stats.get(prefix, layers.Stat()).calls
            report.check(calls > 0, f"{name}: {prefix} calls = {calls}")
        zero_calls = [
            metric for metric in units
            if metric.endswith(".calls") and metric.startswith(ZERO[name]) and values[metric]
        ]
        report.check(not zero_calls, f"{name}: predicted zeros {ZERO[name]} hold {zero_calls}")
        metric, floor, exclusive = SHARES[name]
        share = values[metric]
        ok = share > floor if exclusive else share >= floor
        report.check(ok, f"{name}: {metric} = {share:.3f} ({'>' if exclusive else '>='} {floor})")


def install_restore(report: Report) -> None:
    """Every name is put back; a missing target is skipped and reported."""
    missing = "repro.core.iterative:NoSuchScheduler.solve"
    tracer = layers.Tracer()
    tracer.install(layers.boundaries() + [layers.Boundary("missing", missing)])
    patched = list(tracer.patches)
    tracer.restore()
    moved = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patched
        if vars(owner).get(attr) is not original
    ]
    report.check(bool(patched) and not moved, f"restore: {len(patched)} names put back {moved}")
    report.check(tracer.skipped == [missing], f"missing target skipped: {tracer.skipped}")


def injection(report: Report, seed: int) -> None:
    """Self time relative to the rest of the pass, with and without the delay.

    Ratios within one pass cancel the machine's speed, which swings from
    pass to pass on a shared box; only the injected layer's ratio may move.
    """
    workload = run.WORKLOADS["anneal-evaluator"]
    refs = run.references(run.setup(workload))
    ledger = run.Ledger()
    relative = {False: [], True: []}
    for _ in range(INJECT_PAIRS):
        for inject in (False, True):
            tracer = layers.Tracer(inject=(INJECTED, INJECT_FRACTION) if inject else None)
            measured = run.run_pass(workload, seed, refs, ledger, tracer)
            own = tracer.stats[INJECTED].self_s
            rest = measured.wall - own
            ratios = {name: tracer.stats[name].self_s / rest for name in COMPARED + (INJECTED,)}
            relative[inject].append(ratios)
    report.check(ledger.failed == 0, f"injection: {ledger.attempted} results checked")
    for name in (INJECTED,) + COMPARED:
        change = statistics.median(
            with_delay[name] / without[name]
            for without, with_delay in zip(relative[False], relative[True])
        )
        if name == INJECTED:
            ok = 1 + INJECT_FRACTION / 2 <= change <= 1 + 2 * INJECT_FRACTION
            expected = f"~{1 + INJECT_FRACTION:.2f}"
        else:
            ok = abs(change - 1) < INJECT_FRACTION / 2
            expected = "~1.00"
        report.check(ok, f"injection into {INJECTED}: {name} self/rest x{change:.3f} ({expected})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not run.use_source():
        return 2
    report = Report()
    install_restore(report)
    coverage(report, args.seed)
    injection(report, args.seed)
    print(f"{report.failures} check(s) failed")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
