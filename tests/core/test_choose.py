"""Unit tests for repro.core.choose (ChooseDesignPoints / CalculateDPF)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SequencedMatrices,
    calculate_dpf,
    choose_design_points,
    promote_until_feasible,
)
from repro.core.choose import PromotionPath
from repro.core.factors import (
    FactorValues,
    current_increase_fraction,
    current_ratio,
    energy_ratio,
    slack_ratio,
    windowed_design_point_fraction,
)
from repro.errors import AlgorithmError
from repro.scheduling import sequence_by_decreasing_energy
from repro.taskgraph import DesignPoint, Task, TaskGraph


@pytest.fixture
def g3_matrices(g3):
    return SequencedMatrices(g3, sequence_by_decreasing_energy(g3))


class TestCalculateDpf:
    def test_no_promotion_when_deadline_already_met(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = g3_matrices.n - 2
        enr, cif, dpf, promoted = calculate_dpf(
            g3_matrices, selection, window_start=0, tagged_position=tagged, deadline=10_000.0
        )
        assert np.array_equal(promoted, selection)
        assert dpf == pytest.approx(0.0)
        assert 0.0 <= cif <= 1.0
        assert 0.0 <= enr <= 1.0

    def test_promotions_meet_deadline(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = g3_matrices.n - 2
        deadline = 235.0
        enr, cif, dpf, promoted = calculate_dpf(
            g3_matrices, selection, window_start=0, tagged_position=tagged, deadline=deadline
        )
        assert math.isfinite(dpf)
        assert g3_matrices.total_time(promoted) <= deadline + 1e-9
        assert dpf > 0.0  # some free task had to leave the lowest-power column

    def test_only_free_tasks_promoted(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = 5
        _, _, _, promoted = calculate_dpf(
            g3_matrices, selection, window_start=0, tagged_position=tagged, deadline=240.0
        )
        # Positions at or after the tagged one are never modified.
        assert np.array_equal(promoted[tagged:], selection[tagged:])

    def test_infeasible_returns_infinite_dpf(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = g3_matrices.n - 2
        enr, cif, dpf, _ = calculate_dpf(
            g3_matrices, selection, window_start=0, tagged_position=tagged, deadline=50.0
        )
        assert math.isinf(dpf)

    def test_first_position_uses_slack_ratio(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        deadline = 400.0
        _, _, dpf, promoted = calculate_dpf(
            g3_matrices, selection, window_start=0, tagged_position=0, deadline=deadline
        )
        expected = (deadline - g3_matrices.total_time(promoted)) / deadline
        assert dpf == pytest.approx(expected)

    def test_window_limits_promotion(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = g3_matrices.n - 2
        window_start = 3
        _, _, dpf, promoted = calculate_dpf(
            g3_matrices, selection, window_start=window_start,
            tagged_position=tagged, deadline=100.0,
        )
        # The deadline is unreachable within this narrow window.
        assert math.isinf(dpf)
        assert promoted[:tagged].min() >= window_start

    def test_input_selection_unchanged(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        original = selection.copy()
        calculate_dpf(g3_matrices, selection, 0, g3_matrices.n - 2, 235.0)
        assert np.array_equal(selection, original)


class TestChooseDesignPoints:
    def test_last_task_fixed_to_lowest_power(self, g3_matrices):
        result = choose_design_points(g3_matrices, window_start=0, deadline=230.0)
        assert result.selection[-1] == g3_matrices.m - 1

    def test_selection_within_window(self, g3_matrices):
        for window_start in range(4):
            result = choose_design_points(g3_matrices, window_start=window_start, deadline=230.0)
            assert result.selection[:-1].min() >= window_start

    def test_makespan_consistent(self, g3_matrices):
        result = choose_design_points(g3_matrices, window_start=0, deadline=230.0)
        assert result.makespan == pytest.approx(g3_matrices.total_time(result.selection))

    def test_loose_deadline_keeps_everything_slow(self, g3_matrices):
        result = choose_design_points(g3_matrices, window_start=0, deadline=10_000.0)
        assert np.all(result.selection == g3_matrices.m - 1)

    def test_evaluations_recorded(self, g3_matrices):
        result = choose_design_points(
            g3_matrices, window_start=3, deadline=230.0, record_evaluations=True
        )
        # 14 non-final tasks x 2 columns in window 4:5.
        assert len(result.evaluations) == (g3_matrices.n - 1) * 2
        position_evals = result.evaluations_for(0)
        assert {e.column for e in position_evals} == {3, 4}
        assert all(e.suitability == e.factors.suitability for e in position_evals)

    def test_evaluations_can_be_disabled(self, g3_matrices):
        result = choose_design_points(
            g3_matrices, window_start=0, deadline=230.0, record_evaluations=False
        )
        assert result.evaluations == ()

    def test_invalid_window_rejected(self, g3_matrices):
        with pytest.raises(AlgorithmError):
            choose_design_points(g3_matrices, window_start=9, deadline=230.0)

    def test_single_task_graph(self, chain3):
        # Degenerate case: sub-graph with one task still works end to end.
        from repro.taskgraph import TaskGraph

        single = TaskGraph(name="single")
        single.add_task(chain3.task("T1"))
        matrices = SequencedMatrices(single, ("T1",))
        result = choose_design_points(matrices, window_start=0, deadline=100.0)
        assert result.selection[0] == matrices.m - 1


class TestPromoteUntilFeasible:
    def test_already_feasible_unchanged(self, g3_matrices):
        selection = np.zeros(g3_matrices.n, dtype=int)
        promoted = promote_until_feasible(g3_matrices, selection, 0, deadline=1000.0)
        assert np.array_equal(promoted, selection)

    def test_promotes_to_meet_deadline(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        promoted = promote_until_feasible(g3_matrices, selection, 0, deadline=200.0)
        assert g3_matrices.total_time(promoted) <= 200.0 + 1e-9

    def test_raises_when_window_cannot_meet_deadline(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        with pytest.raises(AlgorithmError):
            promote_until_feasible(g3_matrices, selection, 3, deadline=100.0)


# ---------------------------------------------------------------------------
# Differential test: the certified promotion routine against the original
# step-and-re-sum loops, kept here as the oracle.
# ---------------------------------------------------------------------------

_EPS = 1e-9


def oracle_calculate_dpf(matrices, selection, window_start, tagged_position, deadline):
    """CalculateDPF as originally written: promote one step, re-sum, repeat."""
    sel = np.array(selection, dtype=int, copy=True)
    n, m = matrices.n, matrices.m
    fixed_in_e = set(range(tagged_position, n))
    fixed_in_e.update(pos for pos in range(tagged_position) if sel[pos] <= window_start)

    total_time = matrices.total_time(sel)
    dpf = None
    while total_time > deadline + _EPS:
        promotable = next(
            (pos for pos in matrices.energy_vector if pos not in fixed_in_e), None
        )
        if promotable is None:
            dpf = math.inf
            break
        sel[promotable] -= 1
        if sel[promotable] <= window_start:
            fixed_in_e.add(promotable)
        total_time = matrices.total_time(sel)

    if dpf is None:
        if tagged_position == 0:
            dpf = slack_ratio(total_time, deadline)
        else:
            dpf = windowed_design_point_fraction(sel, m, window_start, range(tagged_position))
    cif = current_increase_fraction(list(matrices.selection_currents(sel)))
    enr = energy_ratio(matrices.total_energy(sel), matrices.energy_min, matrices.energy_max)
    return enr, cif, dpf, sel


def oracle_promote_until_feasible(matrices, selection, window_start, deadline):
    """promote_until_feasible as originally written."""
    sel = np.array(selection, dtype=int, copy=True)
    total_time = matrices.total_time(sel)
    exhausted = set(pos for pos in range(matrices.n) if sel[pos] <= window_start)
    while total_time > deadline + _EPS:
        promotable = next(
            (pos for pos in matrices.energy_vector if pos not in exhausted), None
        )
        if promotable is None:
            raise AlgorithmError("cannot meet deadline")
        sel[promotable] -= 1
        if sel[promotable] <= window_start:
            exhausted.add(promotable)
        total_time = matrices.total_time(sel)
    return sel


def oracle_choose_design_points(matrices, window_start, deadline):
    """ChooseDesignPoints driving the oracle CalculateDPF."""
    n, m = matrices.n, matrices.m
    selection = matrices.lowest_power_selection()
    evaluations = []
    fixed_time = float(matrices.durations[n - 1, m - 1])
    for position in range(n - 2, -1, -1):
        best_column, best_b = m - 1, math.inf
        for column in range(m - 1, window_start - 1, -1):
            trial = selection.copy()
            trial[position] = column
            elapsed = fixed_time + float(matrices.durations[position, column])
            enr, cif, dpf, _ = oracle_calculate_dpf(
                matrices, trial, window_start, position, deadline
            )
            factors = FactorValues(
                slack_ratio=slack_ratio(elapsed, deadline),
                current_ratio=current_ratio(
                    float(matrices.currents[position, column]),
                    matrices.current_min,
                    matrices.current_max,
                ),
                energy_ratio=enr,
                current_increase_fraction=cif,
                design_point_fraction=dpf,
            )
            evaluations.append((position, column, factors))
            if factors.suitability < best_b:
                best_b, best_column = factors.suitability, column
        selection[position] = best_column
        fixed_time += float(matrices.durations[position, best_column])
    return selection, evaluations, matrices.total_time(selection)


def reachable_makespans(matrices, selection, window_start, free_end):
    """Every reference makespan along the promotion path, in step order."""
    sel = np.array(selection, dtype=int, copy=True)
    totals = [matrices.total_time(sel)]
    for pos in matrices.energy_vector:
        if pos >= free_end:
            continue
        while sel[pos] > window_start:
            sel[pos] -= 1
            totals.append(matrices.total_time(sel))
    return totals


def boundary_deadlines(totals):
    """Deadlines on, and one ULP either side of, each reachable makespan.

    Both ``T`` and ``T - 1e-9`` are used as centres: the comparison is
    against ``deadline + 1e-9``, so the second puts that sum within an ULP
    of ``T``.
    """
    found = set()
    for total in totals:
        for centre in (total, total - _EPS):
            for value in (np.nextafter(centre, -np.inf), centre, np.nextafter(centre, np.inf)):
                if value > 0:
                    found.add(float(value))
    return sorted(found)


# Durations: arbitrary floats (inexact sums) mixed with a few exact values
# (so rows carry ties and sums hit the same value along different paths).
_durations = st.one_of(
    st.floats(min_value=0.01, max_value=500.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.5, 7.0]),
)


@st.composite
def matrices_and_selection(draw):
    # Up to 12 tasks: numpy sums 8 or more values pairwise, not left to right.
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=4))
    graph = TaskGraph(name="random")
    for i in range(n):
        times = draw(st.lists(_durations, min_size=m, max_size=m))
        currents = draw(st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=m, max_size=m))
        graph.add_task(
            Task(f"T{i}", [DesignPoint(execution_time=t, current=c) for t, c in zip(times, currents)])
        )
    matrices = SequencedMatrices(graph, tuple(f"T{i}" for i in range(n)))
    selection = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)), dtype=int)
    return matrices, selection


def assert_same_dpf(actual, expected):
    enr, cif, dpf, sel = actual
    enr_o, cif_o, dpf_o, sel_o = expected
    assert (enr, cif, dpf) == (enr_o, cif_o, dpf_o)
    assert np.array_equal(sel, sel_o)


class TestCertifiedPromotionMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=matrices_and_selection(), skew=st.floats(-1e3, 1e3))
    def test_calculate_dpf(self, case, skew):
        matrices, selection = case
        for window_start in range(matrices.m):
            for tagged in range(matrices.n):
                totals = reachable_makespans(matrices, selection, window_start, tagged)
                path = PromotionPath.of(matrices, selection, window_start, tagged)
                for deadline in boundary_deadlines(totals):
                    expected = oracle_calculate_dpf(
                        matrices, selection, window_start, tagged, deadline
                    )
                    assert_same_dpf(
                        calculate_dpf(matrices, selection, window_start, tagged, deadline),
                        expected,
                    )
                    # A poor estimate only costs reference sums.
                    assert_same_dpf(
                        calculate_dpf(
                            matrices, selection, window_start, tagged, deadline,
                            path=path, estimate=totals[0] + skew,
                        ),
                        expected,
                    )

    @settings(max_examples=150, deadline=None)
    @given(case=matrices_and_selection())
    def test_promote_until_feasible(self, case):
        matrices, selection = case
        for window_start in range(matrices.m):
            totals = reachable_makespans(matrices, selection, window_start, matrices.n)
            for deadline in boundary_deadlines(totals):
                try:
                    expected = oracle_promote_until_feasible(
                        matrices, selection, window_start, deadline
                    )
                except AlgorithmError:
                    with pytest.raises(AlgorithmError):
                        promote_until_feasible(matrices, selection, window_start, deadline)
                    continue
                promoted = promote_until_feasible(matrices, selection, window_start, deadline)
                assert np.array_equal(promoted, expected)

    @settings(max_examples=100, deadline=None)
    @given(case=matrices_and_selection(), data=st.data())
    def test_choose_design_points(self, case, data):
        matrices, _ = case
        lowest = matrices.lowest_power_selection()
        totals = reachable_makespans(matrices, lowest, 0, matrices.n)
        deadline = data.draw(st.sampled_from(boundary_deadlines(totals)))
        for window_start in range(matrices.m):
            selection, evaluations, makespan = oracle_choose_design_points(
                matrices, window_start, deadline
            )
            result = choose_design_points(matrices, window_start, deadline)
            assert np.array_equal(result.selection, selection)
            assert result.makespan == makespan
            assert [(e.position, e.column, e.factors) for e in result.evaluations] == evaluations

    def test_infinite_dpf_takes_one_reference_sum(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = g3_matrices.n - 2
        path = PromotionPath.of(g3_matrices, selection, 3, tagged)
        _, _, dpf, _ = calculate_dpf(
            g3_matrices, selection, 3, tagged, 100.0, path=path,
            estimate=g3_matrices.total_time(selection),
        )
        assert math.isinf(dpf)
        assert path.exact_sums == 1
        assert path.promotions == path.steps

    def test_feasible_step_certified_by_two_sums(self, g3_matrices):
        selection = g3_matrices.lowest_power_selection()
        tagged = g3_matrices.n - 2
        path = PromotionPath.of(g3_matrices, selection, 0, tagged)
        _, _, _, promoted = calculate_dpf(
            g3_matrices, selection, 0, tagged, 235.0, path=path,
            estimate=g3_matrices.total_time(selection),
        )
        assert path.exact_sums == 2
        assert path.promotions == int((selection - promoted).sum()) > 0
