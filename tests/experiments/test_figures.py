"""Tests for the figure reproductions (Figures 3-5, Table 1 scaling check)."""

import pytest

from repro.experiments import (
    figure3_windows,
    figure4_walkthrough,
    figure5_g2_table,
    g2_dot,
    scaling_regeneration_report,
    table1_g3_table,
)


class TestFigure3:
    def test_window_count_and_labels(self):
        table = figure3_windows(num_tasks=5, num_design_points=4)
        labels = [row[0] for row in table.rows]
        assert labels == ["3:4", "2:4", "1:4"]

    def test_full_window_admits_every_column(self):
        table = figure3_windows(num_tasks=5, num_design_points=4)
        full_window = table.rows[-1]
        assert list(full_window[1:]) == ["X", "X", "X", "X"]

    def test_narrowest_window_masks_high_power_columns(self):
        table = figure3_windows(num_tasks=5, num_design_points=4)
        narrowest = table.rows[0]
        assert list(narrowest[1:]) == [".", ".", "X", "X"]

    def test_renders(self):
        assert "Figure 3" in figure3_windows().to_text()


class TestFigure4:
    def test_dpf_is_one_third(self):
        walkthrough = figure4_walkthrough()
        assert walkthrough.dpf == pytest.approx(1 / 3)

    def test_two_promotions_of_first_free_task(self):
        walkthrough = figure4_walkthrough()
        assert walkthrough.promotions == (("T1", 2), ("T1", 1))
        assert walkthrough.tagged_task == "T3"
        assert walkthrough.tagged_column == 1

    def test_factors_in_range(self):
        walkthrough = figure4_walkthrough()
        assert 0.0 <= walkthrough.enr <= 1.0
        assert 0.0 <= walkthrough.cif <= 1.0

    def test_loose_deadline_needs_no_promotion(self):
        walkthrough = figure4_walkthrough(deadline=100.0)
        assert walkthrough.promotions == ()
        assert walkthrough.dpf == pytest.approx(0.0)

    def test_render_and_summary(self):
        walkthrough = figure4_walkthrough()
        assert "DP2" in walkthrough.to_table().to_text()
        assert "DPF" in walkthrough.summary()


class TestFigure5AndTable1:
    def test_g2_table_dimensions(self):
        table = figure5_g2_table()
        assert len(table.rows) == 9
        assert len(table.headers) == 1 + 2 * 4

    def test_g3_table_dimensions(self):
        table = table1_g3_table()
        assert len(table.rows) == 15
        assert len(table.headers) == 1 + 2 * 5

    def test_scaling_regeneration_all_ok(self):
        report = scaling_regeneration_report(tolerance=0.05)
        ok_column = report.column("ok")
        assert all(ok_column)
        assert len(report.rows) == 15 + 9

    def test_g2_dot_contains_every_node_and_edge(self, g2):
        dot = g2_dot()
        for index in range(1, 10):
            assert f'"N{index}"' in dot
        for parent, child in g2.edges():
            assert f'"{parent}" -> "{child}"' in dot
