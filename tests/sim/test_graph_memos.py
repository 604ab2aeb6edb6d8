"""Per-graph simulator memos follow the graph through mutation.

The simulator and the online policies memoise tables derived from a task
graph (successor lists, weights, execution-time rows, validated replay
sequences).  A graph edited after a run must not be simulated with the
tables of its earlier shape.
"""

import gc

import pytest

from repro.errors import CyclicGraphError, PrecedenceViolationError, TaskGraphError
from repro.scheduling import SchedulingProblem
from repro.sim import (
    GreedyEnergyScheduler,
    Simulator,
    StaticReplayScheduler,
    make_policy,
    policy_names,
)
from repro.taskgraph import GraphMemo, Task, build_g3


def executed_order(problem, scheduler):
    result = Simulator(problem, scheduler).run()
    return [interval.task for interval in result.intervals]


def test_added_edge_is_seen_by_the_next_run():
    graph = build_g3()
    problem = SchedulingProblem(graph=graph, deadline=230.0, name="g3")
    first = executed_order(problem, GreedyEnergyScheduler())
    assert first.index("T2") < first.index("T4")
    graph.add_edge("T4", "T2")
    second = executed_order(problem, GreedyEnergyScheduler())
    assert graph.is_valid_sequence(second)
    assert second.index("T4") < second.index("T2")


def test_removed_edge_is_seen_by_the_next_run():
    graph = build_g3()
    problem = SchedulingProblem(graph=graph, deadline=230.0, name="g3")
    order = executed_order(problem, GreedyEnergyScheduler())
    graph.add_edge("T4", "T2")
    executed_order(problem, GreedyEnergyScheduler())
    graph.remove_edge("T4", "T2")
    assert executed_order(problem, GreedyEnergyScheduler()) == order


def test_replayed_sequence_is_revalidated_after_an_edge_is_added():
    graph = build_g3()
    problem = SchedulingProblem(graph=graph, deadline=230.0, name="g3")
    sequence = executed_order(problem, GreedyEnergyScheduler())
    columns = {name: 0 for name in sequence}
    executed_order(problem, StaticReplayScheduler(sequence, columns))
    graph.add_edge("T4", "T2")
    with pytest.raises(PrecedenceViolationError):
        executed_order(problem, StaticReplayScheduler(sequence, columns))


def test_version_counts_every_mutation():
    graph = build_g3()
    start = graph.version
    graph.add_edge("T4", "T2")
    graph.add_edge("T4", "T2")  # already present: no change
    graph.remove_edge("T4", "T2")
    assert graph.version == start + 2


@pytest.mark.parametrize("policy", policy_names())
def test_every_policy_sees_an_added_edge(policy):
    graph = build_g3()
    problem = SchedulingProblem(graph=graph, deadline=230.0, name="g3")
    executed_order(problem, make_policy(policy, problem))
    graph.add_edge("T4", "T2")
    order = executed_order(problem, make_policy(policy, problem))
    assert graph.is_valid_sequence(order)
    assert order.index("T4") < order.index("T2")


def test_added_task_is_executed_by_the_next_run():
    graph = build_g3()
    problem = SchedulingProblem(graph=graph, deadline=260.0, name="g3")
    first = executed_order(problem, GreedyEnergyScheduler())
    last = first[-1]
    graph.add_task(Task("T_extra", graph.task(last).design_points))
    graph.add_edge(last, "T_extra")
    second = executed_order(problem, GreedyEnergyScheduler())
    assert sorted(second) == sorted(first + ["T_extra"])
    assert second[-1] == "T_extra"


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda graph: graph.add_edge("T4", "T1"), CyclicGraphError),
        (lambda graph: graph.add_task(graph.task("T1")), TaskGraphError),
        (lambda graph: graph.remove_edge("T4", "T2"), TaskGraphError),
    ],
    ids=["cycle", "duplicate-task", "missing-edge"],
)
def test_rejected_mutation_keeps_the_version(mutate, error):
    graph = build_g3()
    start = graph.version
    with pytest.raises(error):
        mutate(graph)
    assert graph.version == start


def test_copy_mutates_independently():
    graph = build_g3()
    problem = SchedulingProblem(graph=graph, deadline=230.0, name="g3")
    order = executed_order(problem, GreedyEnergyScheduler())
    start = graph.version
    graph.copy().add_edge("T4", "T2")
    assert graph.version == start
    assert executed_order(problem, GreedyEnergyScheduler()) == order


class TestGraphMemo:
    def test_builds_once_per_version(self):
        graph, memo, builds = build_g3(), GraphMemo(), []
        for _ in range(3):
            value = memo.get(graph, lambda: builds.append(graph.version) or object())
        assert len(builds) == 1
        assert memo.get(graph, object) is value

    def test_rebuilds_after_a_mutation(self):
        graph, memo = build_g3(), GraphMemo()
        before = memo.get(graph, lambda: graph.num_edges)
        graph.add_edge("T4", "T2")
        assert memo.get(graph, lambda: graph.num_edges) == before + 1

    def test_equal_graphs_keep_separate_entries(self):
        first, second, memo = build_g3(), build_g3(), GraphMemo()
        assert memo.get(first, lambda: "first") == "first"
        assert memo.get(second, lambda: "second") == "second"
        assert memo.get(first, lambda: "rebuilt") == "first"

    def test_entry_dies_with_its_graph(self):
        graph, memo = build_g3(), GraphMemo()
        memo.get(graph, object)
        assert len(memo._entries) == 1
        del graph
        gc.collect()
        assert len(memo._entries) == 0
