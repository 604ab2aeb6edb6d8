"""Tests for trace validation, Chrome-trace export, and summary rendering."""

import json

import pytest

from repro.obs import RECORDER, recording
from repro.obs.report import (
    chrome_trace,
    critical_path,
    load_trace,
    recorder_summary_lines,
    span_self_times,
    trace_summary_lines,
    validate_trace,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def clean_recorder():
    RECORDER.enabled = False
    RECORDER.reset()
    yield
    RECORDER.enabled = False
    RECORDER.reset()


@pytest.fixture
def trace_path(tmp_path):
    """A small but complete trace: spans, gauge, counters, histogram."""
    path = tmp_path / "trace.jsonl"
    with recording(trace=str(path)) as rec:
        with rec.span("engine.job", label="g3/iterative"):
            with rec.span("engine.store.append"):
                pass
        rec.count("eval.apply", 4)
        rec.count("rt.test.volatile", 2)
        rec.observe("eval.recompute_window", 3)
        rec.gauge("rt.engine.pool.utilization", 0.75)
    return path


class TestValidate:
    def test_valid_trace_has_no_problems(self, trace_path):
        assert validate_trace(trace_path) == []

    def test_missing_file(self, tmp_path):
        problems = validate_trace(tmp_path / "absent.jsonl")
        assert len(problems) == 1 and "cannot open" in problems[0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_trace(path) == ["empty trace file"]

    def test_first_event_must_be_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "name": "x", "ts": 0, "dur": 1}\n')
        assert any("first event must be meta" in p for p in validate_trace(path))

    def test_flags_corruption(self, trace_path):
        text = trace_path.read_text()
        trace_path.write_text(text + 'not json\n{"type": "mystery"}\n')
        problems = validate_trace(trace_path)
        assert any("not valid JSON" in p for p in problems)
        assert any("unknown event type" in p for p in problems)

    def test_flags_missing_required_field(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"type": "meta", "version": 1}\n{"type": "span", "name": "x"}\n'
        )
        problems = validate_trace(path)
        assert any("span event missing 'ts'" in p for p in problems)

    def test_flags_wrong_version(self, tmp_path):
        path = tmp_path / "vers.jsonl"
        path.write_text('{"type": "meta", "version": 99}\n')
        assert any("unsupported trace version" in p for p in validate_trace(path))

    def test_accepts_version_1(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"type": "meta", "version": 1, "pid": null}\n'
            '{"type": "span", "name": "x", "ts": 0.0, "dur": 1.0}\n'
            '{"type": "counters", "counts": {}}\n'
        )
        assert validate_trace(path) == []

    def test_span_ids_resolve(self, trace_path):
        trace = load_trace(trace_path)
        ids = {span["span_id"] for span in trace.spans}
        for span in trace.spans:
            parent = span["parent_id"]
            assert parent is None or parent in ids

    def test_flags_dangling_parent(self, tmp_path):
        path = tmp_path / "dangling.jsonl"
        path.write_text(
            '{"type": "meta", "version": 2, "pid": null}\n'
            '{"type": "span", "name": "x", "ts": 0.0, "dur": 1.0,'
            ' "span_id": "a/1", "parent_id": "ghost/9"}\n'
            '{"type": "counters", "counts": {}}\n'
        )
        assert any("does not resolve" in p for p in validate_trace(path))


class TestLoad:
    def test_collects_all_sections(self, trace_path):
        trace = load_trace(trace_path)
        assert trace.meta["version"] == 2
        assert trace.meta["trace_id"] == trace.spans[0]["trace_id"]
        assert trace.complete and trace.problems == []
        assert [span["name"] for span in trace.spans] == [
            "engine.store.append",  # inner span exits (and is emitted) first
            "engine.job",
        ]
        assert trace.counters["eval.apply"] == 4
        assert trace.counters["rt.test.volatile"] == 2
        names = {row["name"] for row in trace.histograms}
        assert "eval.recompute_window" in names
        assert trace.gauges["rt.engine.pool.utilization"] == 0.75

    def test_raises_on_corrupt_line(self, trace_path):
        trace_path.write_text(trace_path.read_text() + "not json\n")
        with pytest.raises(ValueError):
            load_trace(trace_path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "must be a JSON object, got list"),
            ('{"type": "gauge", "value": 1.0}', "gauge event is missing the field 'name'"),
        ],
    )
    def test_malformed_line_raises_trace_error(self, trace_path, line, message):
        from repro.errors import ReproError, TraceError

        trace_path.write_text(trace_path.read_text() + line + "\n")
        with pytest.raises(TraceError, match=message) as info:
            load_trace(trace_path)
        assert isinstance(info.value, ReproError) and isinstance(info.value, ValueError)


class TestSalvage:
    def test_truncated_tail_is_salvaged(self, trace_path):
        # Simulate a crashed run: footers gone, last line torn mid-write.
        lines = trace_path.read_text().splitlines()
        spans = [line for line in lines if '"type": "span"' in line]
        kept = [lines[0]] + spans
        trace_path.write_text("\n".join(kept) + "\n" + spans[0][: len(spans[0]) // 2])
        trace = load_trace(trace_path, salvage=True)
        assert not trace.complete
        assert len(trace.spans) == 2
        assert any("truncated" in p for p in trace.problems)
        assert any("no counter footer" in p for p in trace.problems)

    def test_missing_footer_only(self, trace_path):
        lines = [
            line
            for line in trace_path.read_text().splitlines()
            if '"type": "counters"' not in line and '"type": "histogram"' not in line
        ]
        trace_path.write_text("\n".join(lines) + "\n")
        trace = load_trace(trace_path, salvage=True)
        assert not trace.complete
        assert trace.spans and trace.counters == {}

    def test_salvage_of_intact_trace_is_complete(self, trace_path):
        trace = load_trace(trace_path, salvage=True)
        assert trace.complete and trace.problems == []

    def test_summary_reports_the_gap(self, trace_path):
        trace_path.write_text(trace_path.read_text() + '{"type": "span"')
        text = "\n".join(trace_summary_lines(load_trace(trace_path, salvage=True)))
        assert "SALVAGED" in text


class TestFsyncSink:
    def test_fsync_trace_is_salvageable_without_close(self, tmp_path):
        from repro.obs.sinks import JsonlSink

        path = tmp_path / "crash.jsonl"
        sink = JsonlSink(path, fsync=True, trace_id="abc")
        sink.write({"type": "span", "name": "x", "ts": 0.0, "dur": 1.0})
        # No close(): the file must already hold both lines on disk.
        trace = load_trace(path, salvage=True)
        assert trace.meta["trace_id"] == "abc"
        assert len(trace.spans) == 1
        sink.close()

    def test_recording_forwards_fsync(self, tmp_path):
        path = tmp_path / "sync.jsonl"
        with recording(trace=str(path), fsync=True) as rec:
            with rec.span("engine.job"):
                pass
            partial = load_trace(path, salvage=True)
            assert len(partial.spans) == 1
        assert load_trace(path).complete


class TestCausalViews:
    @pytest.fixture
    def tree_trace(self, tmp_path):
        path = tmp_path / "tree.jsonl"
        with recording(trace=str(path)) as rec:
            with rec.span("engine.run"):
                with rec.span("engine.job"):
                    with rec.span("engine.algorithm"):
                        pass
                with rec.span("engine.store.append"):
                    pass
        return load_trace(path)

    def test_self_time_excludes_children(self, tree_trace):
        rows = span_self_times(tree_trace)
        run = rows["engine.run"]
        job = rows["engine.job"]
        assert run["self_total"] <= run["total"]
        children = job["total"] + rows["engine.store.append"]["total"]
        assert run["self_total"] == pytest.approx(run["total"] - children, abs=1e-9)

    def test_critical_path_descends_from_root(self, tree_trace):
        path = critical_path(tree_trace)
        assert path[0]["name"] == "engine.run"
        assert len(path) >= 2
        assert all(hop["self"] >= 0.0 for hop in path)

    def test_summary_includes_self_time_and_critical_path(self, tree_trace):
        text = "\n".join(trace_summary_lines(tree_trace))
        assert "self_s" in text
        assert "critical path" in text


class TestRuntimeTable:
    def test_pool_utilization_and_hit_rates_surface(self, trace_path):
        text = "\n".join(trace_summary_lines(load_trace(trace_path)))
        assert "Runtime (derived from rt.* metrics)" in text
        assert "engine.pool.utilization" in text


class TestChromeTrace:
    def test_span_nesting_and_units(self, trace_path):
        data = chrome_trace(load_trace(trace_path))
        assert data["displayTimeUnit"] == "ms"
        spans = [event for event in data["traceEvents"] if event["ph"] == "X"]
        by_name = {event["name"]: event for event in spans}
        outer, inner = by_name["engine.job"], by_name["engine.store.append"]
        assert outer["args"]["label"] == "g3/iterative"
        # microsecond timestamps; inner span contained in outer
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6

    def test_counters_become_counter_events(self, trace_path):
        data = chrome_trace(load_trace(trace_path))
        counter_events = [e for e in data["traceEvents"] if e["ph"] == "C"]
        values = {e["name"]: e["args"]["value"] for e in counter_events}
        assert values["eval.apply"] == 4

    def test_written_file_is_valid_json(self, trace_path, tmp_path):
        out = tmp_path / "chrome.json"
        write_chrome_trace(load_trace(trace_path), out)
        with open(out, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["traceEvents"]


class TestSummaries:
    def test_trace_summary_mentions_everything(self, trace_path):
        text = "\n".join(trace_summary_lines(load_trace(trace_path)))
        assert "2 spans" in text
        assert "engine.job" in text
        assert "eval.apply" in text
        assert "eval.recompute_window" in text
        assert "gauge rt.engine.pool.utilization" in text

    def test_counts_deterministic_counters(self, trace_path):
        text = "\n".join(trace_summary_lines(load_trace(trace_path)))
        # eval.apply is deterministic; rt.test.volatile is not
        assert "2 counters (1 deterministic)" in text

    def test_recorder_summary_empty(self):
        RECORDER.reset()
        assert recorder_summary_lines(RECORDER) == ["no metrics recorded"]

    def test_recorder_summary_tables(self):
        with recording() as rec:
            rec.count("eval.apply", 2)
            rec.observe("eval.recompute_window", 3)
        text = "\n".join(recorder_summary_lines(RECORDER))
        assert "eval.apply" in text
        assert "eval.recompute_window" in text
