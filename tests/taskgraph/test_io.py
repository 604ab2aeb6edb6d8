"""Unit tests for repro.taskgraph.io."""

import json

import pytest

from repro.errors import TaskGraphError
from repro.taskgraph import load_json, save_json, to_dot
from repro.taskgraph.io import dumps, loads

from ..conftest import make_simple_task
from repro.taskgraph import TaskGraph


def small_graph():
    graph = TaskGraph(name="io-test")
    graph.add_task(make_simple_task("A"))
    graph.add_task(make_simple_task("B"))
    graph.add_edge("A", "B")
    return graph


class TestJson:
    def test_dumps_loads_round_trip(self):
        graph = small_graph()
        restored = loads(dumps(graph))
        assert restored.name == "io-test"
        assert restored.task_names() == ("A", "B")
        assert restored.edges() == (("A", "B"),)

    def test_dumps_is_valid_json(self):
        parsed = json.loads(dumps(small_graph()))
        assert parsed["name"] == "io-test"
        assert len(parsed["tasks"]) == 2

    def test_save_and_load_file(self, tmp_path):
        path = tmp_path / "graph.json"
        written = save_json(small_graph(), path)
        assert written == path
        restored = load_json(path)
        assert restored.task_names() == ("A", "B")

    def test_design_points_survive_round_trip(self):
        graph = small_graph()
        restored = loads(dumps(graph))
        original = graph.task("A").ordered_design_points()
        recovered = restored.task("A").ordered_design_points()
        assert [dp.execution_time for dp in original] == [dp.execution_time for dp in recovered]
        assert [dp.current for dp in original] == [dp.current for dp in recovered]


class TestMalformedJson:
    @pytest.mark.parametrize(
        "text, field",
        [
            ("[]", "object"),
            ("5", "object"),
            ("{}", "'tasks'"),
            ('{"tasks": 5}', "'tasks'"),
            ('{"tasks": {}}', "'tasks'"),
            ('{"tasks": [5]}', r"'tasks\[0\]'"),
            ('{"tasks": [{}]}', r"'tasks\[0\]'"),
            ('{"tasks": [], "edges": 5}', "'edges'"),
            ('{"tasks": [], "edges": [5]}', r"'edges\[0\]'"),
            ('{"tasks": [], "edges": [["a"]]}', r"'edges\[0\]'"),
            ('{"tasks": [], "edges": [["a", "b", "c"]]}', r"'edges\[0\]'"),
            ('{"tasks": [], "edges": [[["a"], "b"]]}', r"'edges\[0\]'"),
        ],
    )
    def test_typed_error_names_the_field(self, text, field):
        with pytest.raises(TaskGraphError, match=field):
            loads(text)

    def test_tuples_accepted_like_lists(self):
        graph = small_graph()
        data = graph.to_dict()
        data["tasks"] = tuple(data["tasks"])
        data["edges"] = tuple(tuple(edge) for edge in data["edges"])
        assert TaskGraph.from_dict(data).to_dict() == graph.to_dict()


class TestDot:
    def test_nodes_and_edges_present(self):
        dot = to_dot(small_graph())
        assert '"A"' in dot and '"B"' in dot
        assert '"A" -> "B";' in dot
        assert dot.startswith("digraph")

    def test_design_point_labels_optional(self):
        plain = to_dot(small_graph(), include_design_points=False)
        detailed = to_dot(small_graph(), include_design_points=True)
        assert "mA" not in plain
        assert "mA" in detailed

    def test_g3_dot_contains_all_tasks(self, g3):
        dot = to_dot(g3)
        for name in g3.task_names():
            assert f'"{name}"' in dot


class TestDotEscaping:
    def hostile_graph(self):
        graph = TaskGraph(name='quo"te\\slash')
        graph.add_task(make_simple_task('say "hi"'))
        graph.add_task(make_simple_task("back\\slash"))
        graph.add_edge('say "hi"', "back\\slash")
        return graph

    def test_quotes_and_backslashes_escaped(self):
        dot = to_dot(self.hostile_graph())
        assert '"say \\"hi\\""' in dot
        assert '"back\\\\slash"' in dot
        assert '"say \\"hi\\"" -> "back\\\\slash";' in dot
        assert dot.startswith('digraph "quo\\"te\\\\slash" {')

    def test_no_unescaped_quote_terminates_a_literal(self):
        # Every quoted DOT literal must contain no bare " once escapes are
        # decoded pairwise: strip \\ and \" and the remainder is quote-free.
        for line in to_dot(self.hostile_graph()).splitlines():
            stripped = line.replace("\\\\", "").replace('\\"', "")
            assert stripped.count('"') % 2 == 0, line

    def test_design_point_name_escaped(self):
        from repro.taskgraph import DesignPoint, Task

        graph = TaskGraph(name="dp")
        graph.add_task(
            Task("A", [DesignPoint(1.0, 10.0, name='dp "fast"')])
        )
        dot = to_dot(graph, include_design_points=True)
        assert 'dp \\"fast\\"' in dot

    def test_unnamed_design_point_falls_back_to_index(self):
        from repro.taskgraph import DesignPoint, Task

        graph = TaskGraph(name="dp")
        graph.add_task(Task("A", [DesignPoint(1.0, 10.0)]))
        dot = to_dot(graph, include_design_points=True)
        assert "1: 10mA @ 1" in dot

    def test_hostile_names_survive_json_round_trip(self):
        graph = self.hostile_graph()
        restored = loads(dumps(graph))
        assert restored.task_names() == graph.task_names()
        assert restored.edges() == graph.edges()
        assert restored.name == graph.name
