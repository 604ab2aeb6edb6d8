"""Trace loading, validation, Chrome-trace export and summary rendering.

Consumes JSONL traces written by :class:`repro.obs.sinks.JsonlSink` and
powers the ``repro stats`` CLI subcommand.  Version-2 traces carry span
ids (``span_id``/``parent_id``/``trace_id``), which unlocks the causal
views: per-span *self time* (duration minus the duration of direct
children) and the *critical path* (the chain of enclosing spans that ends
latest — where wall-clock actually went).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import TraceError
from .core import Recorder, is_volatile
from .sinks import SUPPORTED_TRACE_VERSIONS

__all__ = [
    "TraceData",
    "load_trace",
    "validate_trace",
    "span_children",
    "span_self_times",
    "critical_path",
    "chrome_trace",
    "write_chrome_trace",
    "trace_summary_lines",
    "recorder_summary_lines",
]

_KNOWN_TYPES = ("meta", "span", "gauge", "counters", "histogram")
_REQUIRED_FIELDS = {
    "meta": ("version",),
    "span": ("name", "ts", "dur"),
    "gauge": ("name", "value"),
    "counters": ("counts",),
    "histogram": ("name", "count", "total", "buckets"),
}


@dataclass
class TraceData:
    """Parsed contents of a JSONL trace file.

    ``complete`` is False when the trace was salvaged from a crashed run
    (truncated line and/or missing counter footers); ``problems`` then
    describes the gap.
    """

    path: Optional[Path] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    gauges: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    histograms: List[Dict[str, Any]] = field(default_factory=list)
    complete: bool = True
    problems: List[str] = field(default_factory=list)


def load_trace(path: Union[str, Path], salvage: bool = False) -> TraceData:
    """Parse a JSONL trace; raises :class:`~repro.errors.TraceError` on malformed lines.

    With ``salvage=True`` a malformed line — typically the torn final write
    of a crashed run — stops parsing instead of raising: everything before
    it is reconstructed, ``trace.complete`` turns False, and
    ``trace.problems`` reports the gap (including missing counter footers,
    which a crashed run never got to write).  Use the ``fsync`` knob of
    :class:`~repro.obs.sinks.JsonlSink` to keep such traces near-lossless.
    """
    trace = TraceData(path=Path(path))
    saw_footer = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                saw_footer |= _add_event(trace, line, f"{path}:{lineno}")
            except TraceError:
                if not salvage:
                    raise
                trace.complete = False
                trace.problems.append(
                    f"line {lineno}: truncated or corrupt; salvaged the "
                    f"{len(trace.spans)} spans recorded before it"
                )
                break
    if salvage and not saw_footer:
        trace.complete = False
        trace.problems.append(
            "no counter footer: the recording session never closed "
            "(crashed run?); counters and histograms are unavailable"
        )
    return trace


def _add_event(trace: TraceData, line: str, where: str) -> bool:
    """Fold one JSONL line into ``trace``; True when it was the counter footer."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"{where}: not valid JSON: {exc}") from exc
    if not isinstance(event, dict):
        raise TraceError(
            f"{where}: a trace event must be a JSON object, got {type(event).__name__}"
        )
    kind = event.get("type")
    try:
        if kind == "meta":
            trace.meta = event
        elif kind == "span":
            trace.spans.append(event)
        elif kind == "gauge":
            trace.gauges[event["name"]] = event["value"]
        elif kind == "counters":
            trace.counters.update(event["counts"])
            return True
        elif kind == "histogram":
            trace.histograms.append(event)
    except KeyError as exc:
        raise TraceError(f"{where}: {kind} event is missing the field {exc}") from None
    return False


def validate_trace(path: Union[str, Path]) -> List[str]:
    """Schema-check every line; returns a list of problems (empty = valid).

    Beyond per-line schema checks this verifies the causal integrity of
    version-2 traces: every span's ``parent_id`` must resolve to the
    ``span_id`` of another span in the trace (cross-process links included —
    worker spans re-emitted by the parent must still find their parent).
    """
    problems: List[str] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        return [f"{path}: cannot open: {exc}"]
    span_ids = set()
    parent_refs: List[Tuple[int, str]] = []
    with handle:
        first_kind: Optional[str] = None
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                problems.append(f"line {lineno}: blank line")
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not valid JSON ({exc})")
                continue
            if not isinstance(event, dict):
                problems.append(f"line {lineno}: not a JSON object")
                continue
            kind = event.get("type")
            if first_kind is None:
                first_kind = kind
                if kind != "meta":
                    problems.append(f"line {lineno}: first event must be meta, got {kind!r}")
                elif event.get("version") not in SUPPORTED_TRACE_VERSIONS:
                    problems.append(
                        f"line {lineno}: unsupported trace version {event.get('version')!r}"
                    )
            if kind not in _KNOWN_TYPES:
                problems.append(f"line {lineno}: unknown event type {kind!r}")
                continue
            for field_name in _REQUIRED_FIELDS[kind]:
                if field_name not in event:
                    problems.append(f"line {lineno}: {kind} event missing {field_name!r}")
            if kind == "span":
                if event.get("span_id") is not None:
                    span_ids.add(event["span_id"])
                if event.get("parent_id") is not None:
                    parent_refs.append((lineno, event["parent_id"]))
        if first_kind is None:
            problems.append("empty trace file")
    for lineno, parent in parent_refs:
        if parent not in span_ids:
            problems.append(
                f"line {lineno}: span parent_id {parent!r} does not resolve "
                "to any span in the trace"
            )
    return problems


# ----------------------------------------------------------------------
# causal views: span tree, self time, critical path
# ----------------------------------------------------------------------

def span_children(trace: TraceData) -> Dict[Optional[str], List[Dict[str, Any]]]:
    """Spans grouped by ``parent_id`` (None = roots), in emission order.

    Spans without ids (version-1 traces) all land under None.
    """
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    known = {span.get("span_id") for span in trace.spans if span.get("span_id")}
    for span in trace.spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in known:
            parent = None  # orphan (salvaged trace): treat as a root
        children.setdefault(parent, []).append(span)
    return children


def span_self_times(trace: TraceData) -> Dict[str, Dict[str, float]]:
    """Per-span-name aggregates including *self time*.

    Self time is a span's duration minus the summed durations of its direct
    children — the wall-clock actually spent in the span's own code rather
    than delegated further down.  For id-less (version-1) spans self time
    equals duration.  Returns ``name -> {count, total, self_total, max}``.
    """
    child_totals: Dict[str, float] = {}
    for span in trace.spans:
        parent = span.get("parent_id")
        if parent is not None:
            child_totals[parent] = child_totals.get(parent, 0.0) + span["dur"]
    aggregate: Dict[str, Dict[str, float]] = {}
    for span in trace.spans:
        row = aggregate.setdefault(
            span["name"], {"count": 0, "total": 0.0, "self_total": 0.0, "max": 0.0}
        )
        row["count"] += 1
        row["total"] += span["dur"]
        row["max"] = max(row["max"], span["dur"])
        span_id = span.get("span_id")
        own = span["dur"] - (child_totals.get(span_id, 0.0) if span_id else 0.0)
        row["self_total"] += max(0.0, own)
    return aggregate


def critical_path(trace: TraceData) -> List[Dict[str, Any]]:
    """The chain of spans that determines when the trace *ends*.

    Starts from the root span with the latest end time and repeatedly
    descends into the child whose end time is latest — the classic
    end-anchored critical path of a nested-span profile.  Each returned
    entry carries ``name``, ``label``, ``dur`` and ``self`` (duration minus
    direct children).  Empty for traces without spans.
    """
    children = span_children(trace)
    path: List[Dict[str, Any]] = []

    def end(span: Dict[str, Any]) -> float:
        return span["ts"] + span["dur"]

    frontier = children.get(None, [])
    while frontier:
        span = max(frontier, key=end)
        kids = children.get(span.get("span_id"), []) if span.get("span_id") else []
        child_total = sum(kid["dur"] for kid in kids)
        path.append(
            {
                "name": span["name"],
                "label": span.get("label"),
                "dur": span["dur"],
                "self": max(0.0, span["dur"] - child_total),
            }
        )
        frontier = kids
    return path


def chrome_trace(trace: TraceData) -> Dict[str, Any]:
    """Convert a trace to the Chrome-trace / Perfetto JSON object format.

    Spans become complete ("X") events with microsecond timestamps — carrying
    their causal ids in ``args`` — and final counter values become counter
    ("C") samples so they show up in the UI.  Worker-recorded spans keep
    their own ``pid``, so Perfetto renders one track per process with the
    parent/child links intact.
    """
    events: List[Dict[str, Any]] = []
    end_us = 0.0
    for span in trace.spans:
        ts_us = span["ts"] * 1e6
        dur_us = span["dur"] * 1e6
        end_us = max(end_us, ts_us + dur_us)
        event = {
            "ph": "X",
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ts": ts_us,
            "dur": dur_us,
            "pid": span.get("pid", 0),
            "tid": 0,
        }
        args: Dict[str, Any] = {}
        if span.get("label"):
            args["label"] = span["label"]
        if span.get("span_id"):
            args["span_id"] = span["span_id"]
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        if args:
            event["args"] = args
        events.append(event)
    pid = trace.meta.get("pid") or (trace.spans[0].get("pid", 0) if trace.spans else 0)
    for name, value in sorted(trace.counters.items()):
        events.append(
            {
                "ph": "C",
                "name": name,
                "ts": end_us,
                "pid": pid,
                "tid": 0,
                "args": {"value": value},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: TraceData, path: Union[str, Path]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace), handle, sort_keys=True)
        handle.write("\n")


def _counter_table(counters: Dict[str, int]) -> "Any":
    from ..analysis.tables import TextTable

    table = TextTable(
        title="Counters (rt.* = runtime-dependent)", headers=("counter", "value")
    )
    for name, value in sorted(counters.items()):
        table.add_row(name, value)
    return table


def _histogram_table(rows: List[Dict[str, Any]]) -> "Any":
    from ..analysis.tables import TextTable

    table = TextTable(
        title="Distributions",
        headers=("histogram", "count", "total", "mean"),
        precision=4,
    )
    for row in sorted(rows, key=lambda r: r["name"]):
        count = row["count"]
        total = row["total"]
        table.add_row(row["name"], count, total, total / count if count else 0.0)
    return table


def _span_table(trace: TraceData) -> "Any":
    from ..analysis.tables import TextTable

    table = TextTable(
        title="Spans (self = excluding child spans)",
        headers=("span", "count", "total_s", "self_s", "mean_s", "max_s"),
        precision=4,
    )
    for name, row in sorted(span_self_times(trace).items()):
        table.add_row(
            name,
            int(row["count"]),
            row["total"],
            row["self_total"],
            row["total"] / row["count"],
            row["max"],
        )
    return table


def _runtime_table(trace: TraceData) -> Optional["Any"]:
    """Derived runtime health metrics: pool utilization.

    The underlying gauges/counters are volatile (``rt.``-prefixed) raw
    material; this table turns them into the ratios people actually ask for.
    Returns None when the trace recorded none of them.
    """
    from ..analysis.tables import TextTable

    rows: List[Tuple[str, float, str]] = []
    utilization = trace.gauges.get("rt.engine.pool.utilization")
    if utilization is not None:
        rows.append(("engine.pool.utilization", utilization, "busy worker-seconds / pool capacity"))
    if not rows:
        return None
    table = TextTable(
        title="Runtime (derived from rt.* metrics)",
        headers=("metric", "value", "detail"),
        precision=4,
    )
    for name, value, detail in rows:
        table.add_row(name, value, detail)
    return table


def _critical_path_lines(trace: TraceData) -> List[str]:
    path = critical_path(trace)
    if not path:
        return []
    lines = ["critical path (end-anchored):"]
    for depth, hop in enumerate(path):
        label = f" [{hop['label']}]" if hop["label"] else ""
        lines.append(
            f"  {'  ' * depth}{hop['name']}{label}: "
            f"{hop['dur']:.4f}s total, {hop['self']:.4f}s self"
        )
    return lines


def trace_summary_lines(trace: TraceData) -> List[str]:
    """Render a loaded trace as human-readable summary tables."""
    lines: List[str] = []
    if trace.path is not None:
        lines.append(f"trace: {trace.path}")
    if not trace.complete:
        for problem in trace.problems:
            lines.append(f"SALVAGED: {problem}")
    deterministic = sum(1 for name in trace.counters if not is_volatile(name))
    lines.append(
        f"{len(trace.spans)} spans, {len(trace.counters)} counters "
        f"({deterministic} deterministic), {len(trace.histograms)} histograms"
    )
    if trace.spans:
        lines.append("")
        lines.append(_span_table(trace).to_text())
        cp = _critical_path_lines(trace)
        if cp:
            lines.append("")
            lines.extend(cp)
    runtime = _runtime_table(trace)
    if runtime is not None:
        lines.append("")
        lines.append(runtime.to_text())
    if trace.counters:
        lines.append("")
        lines.append(_counter_table(trace.counters).to_text())
    if trace.histograms:
        lines.append("")
        lines.append(_histogram_table(trace.histograms).to_text())
    for name, value in sorted(trace.gauges.items()):
        lines.append(f"gauge {name} = {value:.4g}")
    return lines


def recorder_summary_lines(recorder: Recorder) -> List[str]:
    """Render a live recorder's metrics (the CLI ``--metrics`` report)."""
    snapshot = recorder.counters_snapshot(include_volatile=True)
    lines: List[str] = []
    if snapshot["counters"]:
        lines.append(_counter_table(snapshot["counters"]).to_text())
    histogram_rows = [
        {"name": name, **state} for name, state in snapshot["histograms"].items()
    ]
    if histogram_rows:
        if lines:
            lines.append("")
        lines.append(_histogram_table(histogram_rows).to_text())
    for name, value in sorted(recorder.gauges.items()):
        lines.append(f"gauge {name} = {value:.4g}")
    if not lines:
        lines.append("no metrics recorded")
    return lines
