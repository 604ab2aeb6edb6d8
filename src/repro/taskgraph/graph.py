"""Directed acyclic task graphs.

The application to be scheduled is described as a DAG ``G(V, E)`` whose
vertices are :class:`~repro.taskgraph.Task` objects and whose edges encode
data / control dependences (Section 1 of the paper).  All tasks execute
sequentially on a single processing element, so a *schedule* is a total order
of the vertices that respects the edges, plus one design point per task.

The class below keeps its own adjacency structure (plain dictionaries of
sets) so that the core algorithms have no third-party dependencies on their
hot path; :meth:`TaskGraph.to_networkx` converts to a ``networkx.DiGraph``
for users who want to run graph analytics or draw the DAG.
"""

from __future__ import annotations

import collections.abc
import heapq
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)
from weakref import WeakKeyDictionary

from ..errors import CyclicGraphError, TaskGraphError, UnknownTaskError
from .designpoint import DesignPoint
from .task import Task

__all__ = ["TaskGraph", "GraphMemo"]

_T = TypeVar("_T")


class TaskGraph:
    """A directed acyclic graph of tasks with multi-design-point nodes.

    Tasks are identified by their unique ``name``.  Edges are ordered pairs
    ``(parent, child)`` meaning *child may only start after parent has
    completed*.

    Parameters
    ----------
    name:
        Optional label for the graph (e.g. ``"G3"``).
    tasks:
        Optional initial tasks.
    edges:
        Optional initial edges, given as ``(parent_name, child_name)`` pairs.
    """

    def __init__(
        self,
        name: str = "",
        tasks: Optional[Iterable[Task]] = None,
        edges: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._successors: Dict[str, Set[str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}
        self._order: List[str] = []  # insertion order of task names
        # name -> index into _order; kept in lockstep with _order so
        # insertion-order sorts are O(1) per key instead of the O(n)
        # list.index lookup they used to pay.
        self._position: Dict[str, int] = {}
        self._version = 0
        for task in tasks or ():
            self.add_task(task)
        for parent, child in edges or ():
            self.add_edge(parent, child)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Add a task node; the task name must be unique within the graph."""
        if not isinstance(task, Task):
            raise TaskGraphError(f"expected Task, got {type(task).__name__}")
        if task.name in self._tasks:
            raise TaskGraphError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._successors[task.name] = set()
        self._predecessors[task.name] = set()
        self._position[task.name] = len(self._order)
        self._order.append(task.name)
        self._version += 1
        return task

    def add_edge(self, parent: str, child: str) -> None:
        """Add a precedence edge ``parent -> child``.

        Raises
        ------
        UnknownTaskError
            If either endpoint has not been added yet.
        CyclicGraphError
            If the edge would create a dependency cycle (including self-loops).
        """
        self._require(parent)
        self._require(child)
        if parent == child:
            raise CyclicGraphError(f"self-loop on task {parent!r} is not allowed")
        if child in self._successors[parent]:
            return  # idempotent
        if self._reaches(child, parent):
            raise CyclicGraphError(
                f"edge {parent!r} -> {child!r} would create a cycle"
            )
        self._successors[parent].add(child)
        self._predecessors[child].add(parent)
        self._version += 1

    def remove_edge(self, parent: str, child: str) -> None:
        """Remove an existing precedence edge."""
        self._require(parent)
        self._require(child)
        if child not in self._successors[parent]:
            raise TaskGraphError(f"no edge {parent!r} -> {child!r}")
        self._successors[parent].discard(child)
        self._predecessors[child].discard(parent)
        self._version += 1

    def _require(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise UnknownTaskError(f"unknown task {name!r}") from None

    def _reaches(self, source: str, target: str) -> bool:
        """True when ``target`` is reachable from ``source`` via existing edges."""
        stack = [source]
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors[node])
        return False

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: bumped by every task or edge added or removed.

        Anything derived from the graph and kept beyond one call is stale
        once the version moves (see :class:`GraphMemo`).
        """
        return self._version

    @property
    def num_tasks(self) -> int:
        """Number of vertices (the paper's ``n = |V|``)."""
        return len(self._tasks)

    @property
    def num_edges(self) -> int:
        """Number of precedence edges (the paper's ``e = |E|``)."""
        return sum(len(s) for s in self._successors.values())

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: object) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return (self._tasks[name] for name in self._order)

    def task(self, name: str) -> Task:
        """Return the task named ``name``."""
        return self._require(name)

    def task_names(self) -> Tuple[str, ...]:
        """All task names in insertion order."""
        return tuple(self._order)

    def tasks(self) -> Tuple[Task, ...]:
        """All tasks in insertion order."""
        return tuple(self._tasks[name] for name in self._order)

    def predecessors(self, name: str) -> FrozenSet[str]:
        """Direct predecessors (parents) of ``name``."""
        self._require(name)
        return frozenset(self._predecessors[name])

    def successors(self, name: str) -> FrozenSet[str]:
        """Direct successors (children) of ``name``."""
        self._require(name)
        return frozenset(self._successors[name])

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """All edges as ``(parent, child)`` pairs, in a deterministic order."""
        result: List[Tuple[str, str]] = []
        position = self._position
        for parent in self._order:
            for child in sorted(self._successors[parent], key=position.__getitem__):
                result.append((parent, child))
        return tuple(result)

    def entry_tasks(self) -> Tuple[str, ...]:
        """Tasks with no predecessors, in insertion order."""
        return tuple(n for n in self._order if not self._predecessors[n])

    def exit_tasks(self) -> Tuple[str, ...]:
        """Tasks with no successors, in insertion order."""
        return tuple(n for n in self._order if not self._successors[n])

    # ------------------------------------------------------------------
    # reachability and subgraphs
    # ------------------------------------------------------------------
    def descendants(self, name: str) -> FrozenSet[str]:
        """All tasks reachable from ``name`` (excluding ``name`` itself)."""
        self._require(name)
        found: Set[str] = set()
        stack = list(self._successors[name])
        while stack:
            node = stack.pop()
            if node in found:
                continue
            found.add(node)
            stack.extend(self._successors[node])
        return frozenset(found)

    def ancestors(self, name: str) -> FrozenSet[str]:
        """All tasks from which ``name`` is reachable (excluding ``name``)."""
        self._require(name)
        found: Set[str] = set()
        stack = list(self._predecessors[name])
        while stack:
            node = stack.pop()
            if node in found:
                continue
            found.add(node)
            stack.extend(self._predecessors[node])
        return frozenset(found)

    def subgraph_rooted_at(self, name: str) -> FrozenSet[str]:
        """The node set of ``G_v``: ``name`` together with its descendants.

        The weighted-sequence heuristic (Equation 4) and the baseline greedy
        sequencer (Equation 5) both assign weights computed over this set.
        """
        return frozenset({name} | self.descendants(name))

    # ------------------------------------------------------------------
    # orderings
    # ------------------------------------------------------------------
    def topological_order(self) -> Tuple[str, ...]:
        """A deterministic topological order (Kahn's algorithm).

        Ties are broken by insertion order, so repeated calls return the same
        sequence for the same graph.
        """
        position = self._position
        indegree = {name: len(self._predecessors[name]) for name in self._order}
        # Min-heap keyed on insertion position: popping the smallest
        # position is exactly what the previous sort-then-pop(0) loop
        # selected, so the emitted order is byte-identical while each
        # step costs O(log n) instead of O(n log n).
        ready = [position[name] for name in self._order if indegree[name] == 0]
        heapq.heapify(ready)
        order = self._order
        result: List[str] = []
        while ready:
            node = order[heapq.heappop(ready)]
            result.append(node)
            for child in self._successors[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, position[child])
        if len(result) != len(self._order):
            raise CyclicGraphError("task graph contains a cycle")
        return tuple(result)

    def is_valid_sequence(self, sequence: Sequence[str]) -> bool:
        """True when ``sequence`` is a permutation of all tasks respecting edges."""
        if sorted(sequence) != sorted(self._order):
            return False
        position = {name: i for i, name in enumerate(sequence)}
        return all(
            position[parent] < position[child] for parent, child in self.edges()
        )

    # ------------------------------------------------------------------
    # aggregate timing / energy bounds (sequential execution)
    # ------------------------------------------------------------------
    def min_makespan(self) -> float:
        """Total time with every task at its fastest design point.

        Because all tasks share one processing element, the makespan of any
        full schedule is simply the sum of the chosen execution times; this
        is the smallest achievable value and the feasibility threshold used
        by ``EvaluateWindows`` (``CT(1)`` in the paper).
        """
        return sum(task.min_execution_time for task in self)

    def max_makespan(self) -> float:
        """Total time with every task at its slowest design point (``CT(m)``)."""
        return sum(task.max_execution_time for task in self)

    def min_total_energy(self) -> float:
        """Sum of per-task minimum energies (the paper's ``E_min``)."""
        return sum(task.min_energy for task in self)

    def max_total_energy(self) -> float:
        """Sum of per-task maximum energies (the paper's ``E_max``)."""
        return sum(task.max_energy for task in self)

    def uniform_design_point_count(self) -> int:
        """Return *m* when every task has the same number of design points.

        The paper assumes a uniform *m*; the core algorithm requires it to
        build rectangular matrices.  Raises :class:`TaskGraphError` when the
        counts differ or the graph is empty.
        """
        counts = {task.num_design_points for task in self}
        if not counts:
            raise TaskGraphError("task graph is empty")
        if len(counts) != 1:
            raise TaskGraphError(
                f"tasks have differing design-point counts: {sorted(counts)}"
            )
        return counts.pop()

    # ------------------------------------------------------------------
    # validation and conversion
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise a :class:`TaskGraphError` subclass on failure."""
        if not self._tasks:
            raise TaskGraphError("task graph has no tasks")
        # topological_order raises CyclicGraphError if a cycle slipped in.
        self.topological_order()
        for parent, child in self.edges():
            if parent not in self._tasks or child not in self._tasks:
                raise UnknownTaskError(
                    f"edge ({parent!r}, {child!r}) references an unknown task"
                )

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` (nodes keep a ``task`` attribute)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for task in self:
            graph.add_node(task.name, task=task)
        graph.add_edges_from(self.edges())
        return graph

    def copy(self) -> "TaskGraph":
        """Return a structural copy sharing the (immutable) Task objects."""
        return TaskGraph(name=self.name, tasks=self.tasks(), edges=self.edges())

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (JSON-friendly)."""
        return {
            "name": self.name,
            "tasks": [task.to_dict() for task in self],
            "edges": [list(edge) for edge in self.edges()],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskGraph":
        """Inverse of :meth:`to_dict`.

        Malformed input raises :class:`~repro.errors.TaskGraphError` naming
        the bad field: ``data`` that is not an object, ``tasks`` missing or
        not a list of task objects, ``edges`` not a list of
        ``[parent, child]`` name pairs.
        """
        if not isinstance(data, collections.abc.Mapping):
            raise TaskGraphError(
                f"a task graph must be an object, got {type(data).__name__}"
            )
        if "tasks" not in data:
            raise TaskGraphError("task graph is missing the required field 'tasks'")
        tasks = data["tasks"]
        if not isinstance(tasks, (list, tuple)):
            raise TaskGraphError(
                f"task graph field 'tasks' must be a list, got {tasks!r}"
            )
        edges = data.get("edges", ())
        if not isinstance(edges, (list, tuple)):
            raise TaskGraphError(
                f"task graph field 'edges' must be a list, got {edges!r}"
            )
        graph = cls(name=str(data.get("name", "")))
        for index, task_data in enumerate(tasks):
            try:
                task = Task.from_dict(task_data)
            except (KeyError, TypeError, ValueError) as exc:
                raise TaskGraphError(
                    f"task graph field 'tasks[{index}]' is malformed: {exc!r}"
                ) from exc
            graph.add_task(task)
        for index, edge in enumerate(edges):
            if not (
                isinstance(edge, (list, tuple))
                and len(edge) == 2
                and all(isinstance(name, str) for name in edge)
            ):
                raise TaskGraphError(
                    f"task graph field 'edges[{index}]' must be a "
                    f"[parent, child] pair of task names, got {edge!r}"
                )
            graph.add_edge(*edge)
        return graph

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"TaskGraph({label} {self.num_tasks} tasks, {self.num_edges} edges)"


class GraphMemo:
    """Values derived from task graphs, memoised per graph *version*.

    Weakly keyed, so graphs die normally.  An entry built before the graph
    last changed (:attr:`TaskGraph.version`) is rebuilt on the next lookup.
    """

    def __init__(self) -> None:
        self._entries: "WeakKeyDictionary[TaskGraph, Tuple[int, Any]]" = WeakKeyDictionary()

    def get(self, graph: TaskGraph, build: Callable[[], _T]) -> _T:
        """The memoised ``build()`` for ``graph`` at its current version."""
        version = graph.version
        entry = self._entries.get(graph)
        if entry is None or entry[0] != version:
            entry = self._entries[graph] = (version, build())
        return entry[1]
