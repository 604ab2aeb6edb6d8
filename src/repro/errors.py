"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TaskGraphError",
    "CyclicGraphError",
    "UnknownTaskError",
    "DesignPointError",
    "ScheduleError",
    "PrecedenceViolationError",
    "DeadlineError",
    "InfeasibleDeadlineError",
    "BatteryModelError",
    "ProfileError",
    "AlgorithmError",
    "ConfigurationError",
    "SimulationError",
    "TraceError",
]


class ReproError(Exception):
    """Base class for all exceptions raised by the library."""


class TaskGraphError(ReproError):
    """A task graph is malformed or an operation on it is invalid."""


class CyclicGraphError(TaskGraphError):
    """The task graph contains a dependency cycle."""


class UnknownTaskError(TaskGraphError, KeyError):
    """A task name was referenced that does not exist in the graph."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable.
        return Exception.__str__(self)


class DesignPointError(TaskGraphError):
    """A design point is malformed (non-positive time, negative current...)."""


class ScheduleError(ReproError):
    """A schedule or task sequence is invalid."""


class PrecedenceViolationError(ScheduleError):
    """A sequence orders a task before one of its predecessors."""


class DeadlineError(ScheduleError):
    """A schedule misses the task-graph deadline."""


class InfeasibleDeadlineError(DeadlineError):
    """No design-point assignment can meet the deadline.

    Raised by :func:`repro.core.windows.evaluate_windows` when even the
    fastest (highest-power) design points cannot finish before the deadline,
    mirroring the "Exit with error" branch of the paper's
    ``EvaluateWindows`` pseudocode.
    """


class BatteryModelError(ReproError):
    """A battery model received invalid parameters or inputs."""


class ProfileError(BatteryModelError):
    """A discharge profile is malformed (overlapping or negative intervals)."""


class AlgorithmError(ReproError):
    """An optimisation algorithm failed to produce a valid result."""


class ConfigurationError(ReproError):
    """Invalid configuration supplied to an algorithm or experiment."""


class SimulationError(ReproError):
    """The runtime simulator hit an inconsistent or unrecoverable state.

    Covers protocol violations (a scheduler assigning a non-ready or
    already-finished task, virtual time running backwards) as well as
    runs abandoned after a task exhausted its retry budget.
    """


class TraceError(ReproError, ValueError):
    """A recorded observability trace file is malformed.

    Also a :class:`ValueError`, which is what trace readers raised before
    the type existed.
    """
