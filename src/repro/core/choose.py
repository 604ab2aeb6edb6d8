"""Design-point selection for a fixed sequence and window (Figure 1/2).

This module implements the inner pair of routines from the paper's
pseudocode:

* ``ChooseDesignPoints`` (:func:`choose_design_points`) walks the sequence
  *backwards* — the last task is pinned to its lowest-power design point
  (using slack late in the schedule is provably better than using it early,
  Section 3) and every earlier task is then assigned the design point with
  the smallest suitability ``B`` among the columns allowed by the current
  window.

* ``CalculateDPF`` (:func:`calculate_dpf`) evaluates one *tagged* candidate:
  starting from the tentative selection it promotes the cheapest free tasks
  (in energy-vector order) to progressively faster design points until the
  deadline is met, then scores how many high-power design points that forced
  (DPF) and what the resulting assignment's current profile and energy look
  like (CIF, ENR).  If the deadline cannot be met even with every free task
  at the window's fastest column, DPF is infinite, which vetoes the tagged
  candidate whenever any feasible alternative exists.

Promotion
---------
``CalculateDPF`` and the feasibility repair (:func:`promote_until_feasible`)
promote the same way: walk the energy vector, skip positions that are fixed
(at or after the tagged one) or already at the window's fastest column, and
move each remaining position one column at a time down to ``window_start``,
stopping at the first step whose makespan meets ``deadline + 1e-9``.  The
whole step list is known before any makespan is taken, so a
:class:`PromotionPath` holds it together with the running time each step
saves.  :func:`choose_design_points` builds one path per (window, tagged
position) and shares it between that position's candidate columns.

A Python-float estimate over the path picks the step ``k`` where the
deadline is first met; two reference makespans
(:meth:`~repro.core.matrices.SequencedMatrices.total_time`, one at ``k`` and
one at ``k - 1``) then certify it.  This is exact, not approximate: every
row of ``D`` is ascending (:meth:`~repro.taskgraph.Task.ordered_design_points`),
so each step lowers one summand or leaves it unchanged; numpy adds ``n``
float64 values along a tree that depends only on ``n``, and IEEE rounding is
monotone, so the reference makespan never increases along the path.  A step
that meets the deadline after one that misses it is therefore the first such
step.  A wrong estimate costs extra reference sums, never a different
answer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AlgorithmError
from ..obs import RECORDER as _OBS
from .factors import (
    FactorValues,
    FactorWeights,
    current_increase_fraction,
    current_ratio,
    energy_ratio,
    slack_ratio,
    windowed_design_point_fraction,
)
from .matrices import SequencedMatrices

__all__ = [
    "DesignPointEvaluation",
    "ChooseResult",
    "PromotionPath",
    "calculate_dpf",
    "choose_design_points",
    "promote_until_feasible",
]

_EPS = 1e-9


@dataclass(frozen=True)
class DesignPointEvaluation:
    """Factor breakdown for one (task position, column) candidate."""

    position: int
    column: int
    factors: FactorValues

    @property
    def suitability(self) -> float:
        """The combined ``B`` value of the candidate."""
        return self.factors.suitability


@dataclass(frozen=True)
class ChooseResult:
    """Output of :func:`choose_design_points`."""

    selection: np.ndarray
    evaluations: Tuple[DesignPointEvaluation, ...]
    makespan: float

    def evaluations_for(self, position: int) -> Tuple[DesignPointEvaluation, ...]:
        """All candidate evaluations recorded for one sequence position."""
        return tuple(e for e in self.evaluations if e.position == position)


class PromotionPath:
    """The promotion steps open to a selection's free positions, in order.

    Step ``k`` (``0 <= k <= steps``) is the selection after ``k`` one-column
    promotions.  ``saved[k]`` is the execution time those ``k`` promotions
    save, summed left to right; it only steers the search for the first
    feasible step, whose makespan is always certified by reference sums.

    ``promotions`` and ``exact_sums`` tally the steps taken and the
    reference sums spent by every promotion run along this path.
    """

    __slots__ = ("window_start", "positions", "starts", "offsets", "saved",
                 "promotions", "exact_sums")

    def __init__(
        self,
        window_start: int,
        positions: np.ndarray,
        starts: List[int],
        offsets: List[int],
        saved: List[float],
    ) -> None:
        self.window_start = window_start
        #: Promotable positions in energy-vector order.
        self.positions = positions
        #: Column each position starts from.
        self.starts = starts
        #: ``offsets[i]``: steps taken before ``positions[i]`` is first promoted.
        self.offsets = offsets
        self.saved = saved
        self.promotions = 0
        self.exact_sums = 0

    @classmethod
    def of(
        cls,
        matrices: SequencedMatrices,
        selection: np.ndarray,
        window_start: int,
        free_end: int,
    ) -> "PromotionPath":
        """The path of ``selection``'s positions before ``free_end``."""
        order = np.asarray(matrices.energy_vector, dtype=int)
        order = order[order < free_end]
        positions = order[selection[order] > window_start]
        starts = selection[positions]
        counts = starts - window_start
        offsets = np.zeros(len(positions) + 1, dtype=int)
        np.cumsum(counts, out=offsets[1:])
        # The column each step leaves and the time that step saves.
        rows = np.repeat(positions, counts)
        columns = np.repeat(starts, counts) - (
            np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
        )
        gains = matrices.durations[rows, columns] - matrices.durations[rows, columns - 1]
        return cls(
            window_start, positions, starts.tolist(), offsets.tolist(),
            [0.0] + np.cumsum(gains).tolist(),
        )

    @property
    def steps(self) -> int:
        """Number of promotions until every free position is exhausted."""
        return self.offsets[-1]

    def selection_at(self, selection: np.ndarray, step: int) -> np.ndarray:
        """A copy of ``selection`` after the first ``step`` promotions."""
        promoted = selection.copy()
        done = bisect_right(self.offsets, step) - 1
        if done:
            promoted[self.positions[:done]] = self.window_start
        if done < len(self.starts):
            promoted[self.positions[done]] = self.starts[done] - (step - self.offsets[done])
        return promoted


def _promote(
    matrices: SequencedMatrices,
    selection: np.ndarray,
    path: PromotionPath,
    estimate: float,
    deadline: float,
) -> Tuple[np.ndarray, float, bool]:
    """Promote along ``path`` to the first step that meets the deadline.

    ``estimate`` approximates the makespan of ``selection``.  Returns the
    promoted selection, its reference makespan and whether it meets the
    deadline; when no step does, the fully promoted selection is returned.
    """
    limit = deadline + _EPS
    last = path.steps
    step = min(bisect_left(path.saved, estimate - limit), last)
    promoted = path.selection_at(selection, step)
    total_time = matrices.total_time(promoted)
    sums = 1
    feasible = total_time <= limit
    if feasible:
        # Certify that the step before still misses the deadline.
        while step > 0:
            before = path.selection_at(selection, step - 1)
            before_time = matrices.total_time(before)
            sums += 1
            if before_time > limit:
                break
            step, promoted, total_time = step - 1, before, before_time
    else:
        while step < last:
            step += 1
            promoted = path.selection_at(selection, step)
            total_time = matrices.total_time(promoted)
            sums += 1
            if total_time <= limit:
                feasible = True
                break
    path.promotions += step
    path.exact_sums += sums
    return promoted, total_time, feasible


def calculate_dpf(
    matrices: SequencedMatrices,
    selection: np.ndarray,
    window_start: int,
    tagged_position: int,
    deadline: float,
    path: Optional[PromotionPath] = None,
    estimate: Optional[float] = None,
) -> Tuple[float, float, float, np.ndarray]:
    """The paper's ``CalculateDPF``: returns ``(ENR, CIF, DPF, promoted_selection)``.

    Parameters
    ----------
    matrices:
        Sequence-ordered matrices for the current iteration.
    selection:
        Tentative selection vector: positions after ``tagged_position`` hold
        their fixed columns, ``tagged_position`` holds the tagged candidate
        column, and earlier (free) positions hold the lowest-power column.
        The array is not modified; a promoted copy is returned.
    window_start:
        First (most powerful) column allowed by the current window, 0-based.
    tagged_position:
        Sequence position of the task whose candidate is being evaluated.
    deadline:
        Task-graph deadline ``d``.
    path, estimate:
        The :class:`PromotionPath` of ``selection``'s free positions and an
        approximate makespan of ``selection``.  :func:`choose_design_points`
        supplies both; they are derived from ``selection`` when omitted.
        Neither changes the result.
    """
    sel = np.asarray(selection, dtype=int)
    if path is None:
        path = PromotionPath.of(matrices, sel, window_start, tagged_position)
    if estimate is None:
        estimate = math.fsum(matrices.selection_durations(sel))
    promoted, total_time, feasible = _promote(matrices, sel, path, estimate, deadline)

    if not feasible:
        dpf = math.inf
    elif tagged_position == 0:
        # The first task in the sequence has no free tasks above it; the
        # paper replaces DPF by the slack ratio to press the remaining
        # slack into use.
        dpf = slack_ratio(total_time, deadline)
    else:
        dpf = windowed_design_point_fraction(
            promoted, matrices.m, window_start, range(tagged_position)
        )

    cif = current_increase_fraction(matrices.selection_currents(promoted))
    enr = energy_ratio(
        matrices.total_energy(promoted), matrices.energy_min, matrices.energy_max
    )
    return enr, cif, dpf, promoted


def choose_design_points(
    matrices: SequencedMatrices,
    window_start: int,
    deadline: float,
    weights: Optional[FactorWeights] = None,
    record_evaluations: bool = True,
) -> ChooseResult:
    """The paper's ``ChooseDesignPoints`` for one window.

    Walks the sequence from the last task to the first.  The last task is
    fixed at the lowest-power column; every other task is assigned the
    window column minimising the suitability ``B`` (ties are broken in
    favour of the lower-power column, which is the first one examined).

    Parameters
    ----------
    weights:
        Optional per-factor weights; ``None`` reproduces the paper's plain
        sum.  Used by the ablation experiments.
    record_evaluations:
        When true every candidate's factor breakdown is kept in the result
        (useful for the illustrative example and the documentation); turn it
        off in tight benchmarking loops.
    """
    n, m = matrices.n, matrices.m
    if not (0 <= window_start < m):
        raise AlgorithmError(f"window_start {window_start} out of range for m={m}")

    with _OBS.span("core.choose", label=f"{window_start + 1}:{m}"):
        selection = matrices.lowest_power_selection()
        evaluations: List[DesignPointEvaluation] = []
        durations = matrices.durations
        # Execution time of the free prefix [0, position) at the lowest-power
        # column, the start of every candidate's promotion estimate.
        slow_prefix = np.concatenate(([0.0], np.cumsum(durations[:, m - 1]))).tolist()
        # Every free position starts at column m-1 and may take ``width``
        # steps; ``gains[p]`` is the time each of position p's steps saves.
        # In a one-column window nothing can be promoted.
        width = m - 1 - window_start
        left = np.arange(m - 1, window_start, -1)
        gains = durations[:, left] - durations[:, left - 1]
        energy_order = np.asarray(matrices.energy_vector if width else (), dtype=int)
        candidates = promotions = exact_sums = 0

        # Fix the last task in the sequence to its lowest-power design point.
        fixed_time = float(durations[n - 1, m - 1])

        for position in range(n - 2, -1, -1):
            free = energy_order[energy_order < position]
            path = PromotionPath(
                window_start,
                free,
                [m - 1] * len(free),
                list(range(0, width * len(free) + 1, width or 1)),
                [0.0] + np.cumsum(gains[free]).tolist(),
            )
            best_column = m - 1
            best_b = math.inf
            for column in range(m - 1, window_start - 1, -1):
                trial = selection.copy()
                trial[position] = column
                elapsed = fixed_time + float(durations[position, column])
                sr = slack_ratio(elapsed, deadline)
                cr = current_ratio(
                    float(matrices.currents[position, column]),
                    matrices.current_min,
                    matrices.current_max,
                )
                enr, cif, dpf, _ = calculate_dpf(
                    matrices, trial, window_start, position, deadline,
                    path=path, estimate=elapsed + slow_prefix[position],
                )
                factors = FactorValues(
                    slack_ratio=sr,
                    current_ratio=cr,
                    energy_ratio=enr,
                    current_increase_fraction=cif,
                    design_point_fraction=dpf,
                )
                b_value = factors.suitability if weights is None else factors.weighted(weights)
                if record_evaluations:
                    evaluations.append(
                        DesignPointEvaluation(position=position, column=column, factors=factors)
                    )
                if b_value < best_b:
                    best_b = b_value
                    best_column = column
            selection[position] = best_column
            fixed_time += float(durations[position, best_column])
            candidates += m - window_start
            promotions += path.promotions
            exact_sums += path.exact_sums

        if _OBS.enabled:
            _OBS.count("core.dpf.calls", candidates)
            _OBS.count("core.dpf.promotions", promotions)
            _OBS.count("core.dpf.exact_sums", exact_sums)

        return ChooseResult(
            selection=selection,
            evaluations=tuple(evaluations),
            makespan=matrices.total_time(selection),
        )


def promote_until_feasible(
    matrices: SequencedMatrices,
    selection: np.ndarray,
    window_start: int,
    deadline: float,
) -> np.ndarray:
    """Repair an assignment that misses the deadline by promoting cheap tasks.

    Applies the same promotion rule as :func:`calculate_dpf` — move the
    free task with the smallest average energy one column towards higher
    power, repeatedly — but over *all* tasks, not just the ones before a
    tagged position.  Returns a new selection vector; raises
    :class:`AlgorithmError` when even the window's fastest column for every
    task cannot meet the deadline.

    The paper asserts that every iteration yields a deadline-respecting
    schedule; this helper is the safety net the library applies (when
    enabled in the configuration) for degenerate instances in which forcing
    the last task to its lowest-power design point makes the greedy
    bottom-up pass overshoot the deadline.
    """
    sel = np.asarray(selection, dtype=int)
    path = PromotionPath.of(matrices, sel, window_start, matrices.n)
    estimate = math.fsum(matrices.selection_durations(sel))
    promoted, _, feasible = _promote(matrices, sel, path, estimate, deadline)
    if not feasible:
        raise AlgorithmError(
            f"cannot meet deadline {deadline:g} within window starting at column "
            f"{window_start + 1}"
        )
    return promoted
