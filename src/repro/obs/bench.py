"""The benchmark observatory: registry, history, baselines, regression gates.

The repo's perf evidence used to be four point-in-time ``BENCH_*.json``
snapshots produced by hand-run scripts.  This module turns them into a
longitudinal system behind the ``repro bench`` CLI:

* a **registry** (:data:`REGISTRY`) describing every ``benchmarks/bench_*.py``
  driver — where its report lives and which metrics are *gated*;
* a **runner** that imports a driver in-process and invokes its
  ``run(smoke, output)`` entry point (every driver already carries internal
  absolute-floor gates that make its exit code meaningful on any machine);
* **delta checks** comparing a fresh report's gated metrics against the
  committed baseline with per-gate regression thresholds;
* an append-only **history** (``BENCH_history.jsonl``: one JSON object per
  observatory run with git sha, host fingerprint, gated metrics, verdicts);
* a **markdown renderer** for ``docs/benchmarks.md`` showing the trajectory.

Gate semantics: a gate names a "/"-separated path into the report JSON and a
maximum tolerated fractional regression.  For higher-is-better metrics a
candidate fails when ``value < baseline * (1 - threshold)``; for
lower-is-better, when ``value > baseline * (1 + threshold)``.  Full-mode
reports are compared numerically; smoke-mode reports are *not* numerically
comparable to full baselines, so for them the check degrades to the driver's
internal gates plus baseline presence/schema validation.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

__all__ = [
    "GateSpec",
    "BenchSpec",
    "REGISTRY",
    "repo_root",
    "extract_metric",
    "gated_metrics",
    "run_bench",
    "check_report",
    "append_history",
    "load_history",
    "render_benchmarks_md",
    "run_observatory",
]

DEFAULT_HISTORY = "BENCH_history.jsonl"


@dataclass(frozen=True)
class GateSpec:
    """One regression-gated metric inside a bench report."""

    #: "/"-separated path into the report JSON, e.g. ``annealing/rakhmatov/speedup``.
    path: str
    #: Direction of goodness; gates compare candidate vs baseline accordingly.
    higher_is_better: bool = True
    #: Maximum tolerated fractional regression vs the committed baseline.
    threshold: float = 0.3


@dataclass(frozen=True)
class BenchSpec:
    """A registered benchmark driver."""

    name: str
    script: str
    report: str
    description: str
    gates: Tuple[GateSpec, ...]


#: Thresholds are deliberately loose for absolute-rate metrics (machine
#: dependent) and tighter for ratio metrics (speedups, overhead factors),
#: which mostly cancel host speed out.
REGISTRY: Tuple[BenchSpec, ...] = (
    BenchSpec(
        name="cost",
        script="bench_cost.py",
        report="BENCH_cost.json",
        description="cost-evaluation stack: eval rates + annealing/refine speedups",
        gates=(
            GateSpec("annealing/rakhmatov/speedup", threshold=0.4),
            GateSpec("refine/speedup", threshold=0.5),
        ),
    ),
    BenchSpec(
        name="sim",
        script="bench_sim.py",
        report="BENCH_sim.json",
        description="event-driven simulator throughput + batched Monte Carlo path",
        gates=(
            GateSpec("events/deadline-slack/events_per_sec", threshold=0.5),
            GateSpec("batch/deadline-slack/replications_per_sec", threshold=0.5),
        ),
    ),
    BenchSpec(
        name="obs",
        script="bench_obs.py",
        report="BENCH_obs.json",
        description="instrumentation coverage + disabled-path overhead factor",
        gates=(
            GateSpec("overhead/overhead_factor", higher_is_better=False, threshold=0.15),
        ),
    ),
)


def get_bench(name: str) -> BenchSpec:
    for spec in REGISTRY:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown bench {name!r}; known: {', '.join(s.name for s in REGISTRY)}")


def repo_root() -> Path:
    """Repository root (three levels above ``src/repro/obs``)."""
    return Path(__file__).resolve().parents[3]


def benchmarks_dir() -> Path:
    return repo_root() / "benchmarks"


def extract_metric(report: Mapping[str, Any], path: str) -> Optional[float]:
    """Resolve a "/"-separated gate path; None when any hop is missing.

    Integer components index into lists, everything else into dicts.
    """
    node: Any = report
    for part in path.split("/"):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (ValueError, IndexError):
                return None
        elif isinstance(node, Mapping):
            if part not in node:
                return None
            node = node[part]
        else:
            return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def gated_metrics(spec: BenchSpec, report: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    return {gate.path: extract_metric(report, gate.path) for gate in spec.gates}


def run_bench(spec: BenchSpec, smoke: bool, output: Union[str, Path]) -> int:
    """Import the driver in-process and run it; returns its exit code.

    The benchmarks directory is pushed onto ``sys.path`` for the import so
    drivers can share helpers (``benchmarks/_workloads.py``).
    """
    script = benchmarks_dir() / spec.script
    module_name = f"_repro_bench_{spec.name}"
    loader_spec = importlib.util.spec_from_file_location(module_name, script)
    if loader_spec is None or loader_spec.loader is None:
        raise FileNotFoundError(f"cannot load benchmark driver {script}")
    module = importlib.util.module_from_spec(loader_spec)
    bench_path = str(benchmarks_dir())
    sys.path.insert(0, bench_path)
    try:
        sys.modules[module_name] = module
        loader_spec.loader.exec_module(module)
        return int(module.run(smoke=smoke, output=str(output)))
    finally:
        sys.modules.pop(module_name, None)
        if sys.path and sys.path[0] == bench_path:
            sys.path.pop(0)


# ----------------------------------------------------------------------
# regression checks
# ----------------------------------------------------------------------

def _load_report(path: Path) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def check_report(
    spec: BenchSpec,
    report_path: Union[str, Path],
    baseline_path: Union[str, Path],
) -> Dict[str, Any]:
    """Gate a report against the committed baseline.

    Returns ``{"bench", "status", "problems", "deltas"}`` where status is
    ``pass`` / ``regression`` / ``error``.  Smoke-mode reports skip numeric
    deltas (see module docstring) but still require every gated path to be
    present in the baseline, so a gate can never silently rot.
    """
    verdict: Dict[str, Any] = {
        "bench": spec.name,
        "status": "pass",
        "problems": [],
        "deltas": [],
    }
    report = _load_report(Path(report_path))
    baseline = _load_report(Path(baseline_path))
    if report is None:
        verdict["status"] = "error"
        verdict["problems"].append(f"report {report_path} missing or unreadable")
        return verdict
    if baseline is None:
        verdict["status"] = "error"
        verdict["problems"].append(f"baseline {baseline_path} missing or unreadable")
        return verdict

    smoke = report.get("mode") == "smoke"
    for gate in spec.gates:
        base_value = extract_metric(baseline, gate.path)
        if base_value is None:
            verdict["status"] = "error"
            verdict["problems"].append(
                f"gated metric {gate.path!r} absent from baseline {baseline_path}"
            )
            continue
        if smoke:
            continue
        value = extract_metric(report, gate.path)
        if value is None:
            verdict["status"] = "error"
            verdict["problems"].append(
                f"gated metric {gate.path!r} absent from report {report_path}"
            )
            continue
        if gate.higher_is_better:
            change = (value - base_value) / base_value if base_value else 0.0
            regressed = value < base_value * (1.0 - gate.threshold)
        else:
            change = (base_value - value) / base_value if base_value else 0.0
            regressed = value > base_value * (1.0 + gate.threshold)
        delta = {
            "path": gate.path,
            "value": value,
            "baseline": base_value,
            "change_frac": change,  # positive = improvement, in the gate's direction
            "threshold": gate.threshold,
            "higher_is_better": gate.higher_is_better,
            "regressed": regressed,
        }
        verdict["deltas"].append(delta)
        if regressed:
            if verdict["status"] == "pass":
                verdict["status"] = "regression"
            verdict["problems"].append(
                f"{gate.path}: {value:.4g} vs baseline {base_value:.4g} "
                f"({change:+.1%} in the good direction, tolerance -{gate.threshold:.0%})"
            )
    if smoke and verdict["status"] == "pass":
        verdict["problems"].append(
            "smoke mode: numeric deltas skipped, driver-internal gates applied"
        )
    return verdict


# ----------------------------------------------------------------------
# history + environment fingerprint
# ----------------------------------------------------------------------

def git_sha(root: Optional[Path] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=str(root or repo_root()),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def env_meta() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": os.cpu_count(),
    }


def append_history(path: Union[str, Path], entry: Mapping[str, Any]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(dict(entry), sort_keys=True) + "\n")


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return entries
    with handle:
        for line in handle:
            line = line.strip()
            if line:
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn tail of a crashed append; keep the rest
    return entries


# ----------------------------------------------------------------------
# docs/benchmarks.md rendering
# ----------------------------------------------------------------------

def _fmt_metric(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render_benchmarks_md(history: Iterable[Mapping[str, Any]]) -> str:
    """Render the benchmark trajectory as the ``docs/benchmarks.md`` page."""
    entries = list(history)
    lines = [
        "# Benchmark trajectory",
        "",
        "Longitudinal record of the `repro bench` observatory "
        "(`BENCH_history.jsonl`).  Committed `BENCH_*.json` files are the "
        "regression baselines; `repro bench --check` gates fresh runs against "
        "them with the thresholds listed below.  Regenerate this page with "
        "`repro bench --render-docs`.",
        "",
        "## Gated metrics",
        "",
        "| bench | metric | direction | tolerance |",
        "| --- | --- | --- | --- |",
    ]
    for spec in REGISTRY:
        for gate in spec.gates:
            direction = "higher" if gate.higher_is_better else "lower"
            lines.append(
                f"| {spec.name} | `{gate.path}` | {direction} is better "
                f"| -{gate.threshold:.0%} |"
            )
    for spec in REGISTRY:
        bench_entries = [e for e in entries if e.get("bench") == spec.name]
        lines += ["", f"## {spec.name} — {spec.description}", ""]
        if not bench_entries:
            lines.append("_No observatory runs recorded yet._")
            continue
        gate_paths = [gate.path for gate in spec.gates]
        header = "| date (UTC) | git | mode | verdict | " + " | ".join(
            f"`{p}`" for p in gate_paths
        ) + " |"
        lines.append(header)
        lines.append("| --- | --- | --- | --- | " + " | ".join("---" for _ in gate_paths) + " |")
        for entry in bench_entries:
            stamp = time.strftime(
                "%Y-%m-%d %H:%M", time.gmtime(entry.get("started_unix", 0))
            )
            metrics = entry.get("metrics", {})
            cells = " | ".join(_fmt_metric(metrics.get(p)) for p in gate_paths)
            lines.append(
                f"| {stamp} | {entry.get('git_sha') or '—'} | {entry.get('mode', '?')} "
                f"| {entry.get('verdict', '?')} | {cells} |"
            )
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the observatory driver (powers `repro bench`)
# ----------------------------------------------------------------------

def run_observatory(
    names: Optional[Iterable[str]] = None,
    smoke: bool = False,
    run: bool = False,
    check: bool = False,
    history: Optional[Union[str, Path]] = None,
    reports_dir: Optional[Union[str, Path]] = None,
    update_baselines: bool = False,
    render_docs: Optional[Union[str, Path]] = None,
    log=print,
) -> int:
    """Run/check registered benches; returns a process exit code.

    ``reports_dir`` is where fresh reports are written (``--run``) and read
    from (``--check``).  It defaults to the repo root — the committed
    baselines — so a bare ``--check`` is a self-check that exits 0, and
    ``--run`` without ``update_baselines`` redirects to ``<root>/reports`` to
    avoid clobbering the baselines by accident.
    """
    root = repo_root()
    specs = [get_bench(name) for name in names] if names else list(REGISTRY)
    if reports_dir is None:
        reports_path = root if (not run or update_baselines) else root / "reports"
    else:
        reports_path = Path(reports_dir)
    history_path = Path(history) if history else root / DEFAULT_HISTORY

    exit_code = 0
    verdicts: List[Dict[str, Any]] = []
    for spec in specs:
        report_path = reports_path / spec.report
        baseline_path = root / spec.report
        mode = "smoke" if smoke else "full"
        driver_rc = 0
        started = time.time()
        if run:
            log(f"== bench {spec.name} ({mode}) -> {report_path}")
            reports_path.mkdir(parents=True, exist_ok=True)
            driver_rc = run_bench(spec, smoke=smoke, output=report_path)
            if driver_rc != 0:
                exit_code = 1
                log(f"bench {spec.name}: driver-internal gate FAILED (exit {driver_rc})")
        verdict: Optional[Dict[str, Any]] = None
        if check:
            verdict = check_report(spec, report_path, baseline_path)
            verdicts.append(verdict)
            status = verdict["status"]
            if status != "pass":
                exit_code = 1
            log(f"bench {spec.name}: check {status.upper()}")
            for problem in verdict["problems"]:
                log(f"  {problem}")
            for delta in verdict["deltas"]:
                marker = "REGRESSED" if delta["regressed"] else "ok"
                log(
                    f"  {delta['path']}: {delta['value']:.4g} "
                    f"(baseline {delta['baseline']:.4g}, {delta['change_frac']:+.1%}) {marker}"
                )
        if run:
            report = _load_report(report_path)
            overall = "fail" if driver_rc else (verdict or {}).get("status", "pass")
            entry = {
                "bench": spec.name,
                "mode": mode,
                "started_unix": started,
                "wall_s": time.time() - started,
                "git_sha": git_sha(root),
                "env": env_meta(),
                "driver_exit": driver_rc,
                "verdict": overall,
                "metrics": gated_metrics(spec, report) if report else {},
                "deltas": (verdict or {}).get("deltas", []),
            }
            append_history(history_path, entry)
            log(f"bench {spec.name}: appended to {history_path}")

    if render_docs:
        docs_path = Path(render_docs)
        docs_path.parent.mkdir(parents=True, exist_ok=True)
        docs_path.write_text(render_benchmarks_md(load_history(history_path)), encoding="utf-8")
        log(f"rendered {docs_path}")
    return exit_code
