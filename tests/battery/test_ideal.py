"""Unit tests for the ideal (coulomb-counting) battery model."""

import pytest

from repro.battery import IdealBatteryModel, LoadProfile, RakhmatovVrudhulaModel


@pytest.fixture
def model():
    return IdealBatteryModel()


class TestApparentCharge:
    def test_equals_nominal_charge(self, model):
        profile = LoadProfile.from_back_to_back([5.0, 3.0], [100.0, 400.0])
        assert model.apparent_charge(profile) == pytest.approx(profile.total_charge)

    def test_order_invariance(self, model):
        forward = LoadProfile.from_back_to_back([5.0, 3.0], [100.0, 400.0])
        backward = LoadProfile.from_back_to_back([3.0, 5.0], [400.0, 100.0])
        assert model.cost(forward) == pytest.approx(model.cost(backward))

    def test_partial_evaluation(self, model):
        profile = LoadProfile.from_back_to_back([4.0], [100.0])
        assert model.apparent_charge(profile, at_time=1.0) == pytest.approx(100.0)

    def test_no_recovery(self, model):
        profile = LoadProfile.from_back_to_back([4.0], [100.0])
        assert model.apparent_charge(profile, at_time=4.0) == pytest.approx(
            model.apparent_charge(profile, at_time=400.0)
        )

    def test_lower_bound_of_analytical_model(self, model):
        analytical = RakhmatovVrudhulaModel(beta=0.273)
        profile = LoadProfile.from_back_to_back([7.0, 2.0, 9.0], [250.0, 800.0, 90.0])
        assert model.cost(profile) <= analytical.cost(profile)

    def test_lifetime_simple(self, model):
        profile = LoadProfile.from_back_to_back([10.0], [100.0])
        assert model.lifetime(profile, capacity=500.0) == pytest.approx(5.0, abs=1e-6)
        assert model.lifetime(profile, capacity=2000.0) is None

    def test_repr(self, model):
        assert repr(model) == "IdealBatteryModel()"


class TestScheduleKernel:
    """The coulomb-counting vectorized kernel."""

    def test_kernel_is_plain_coulomb_count(self):
        model = IdealBatteryModel()
        values = model.interval_contributions([5.0, 2.0], [300.0, 100.0], [40.0, 7.0])
        assert values.tolist() == [1500.0, 200.0]

    def test_contribution_floor_is_exact(self):
        model = IdealBatteryModel()
        assert model.contribution_floor([5.0, 2.0], [300.0, 100.0]).tolist() == [
            1500.0, 200.0,
        ]

    def test_time_sensitive_flag(self):
        assert IdealBatteryModel().TIME_SENSITIVE is False

    def test_schedule_charge_is_order_invariant(self):
        model = IdealBatteryModel()
        assert model.schedule_charge([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == (
            model.schedule_charge([3.0, 1.0, 2.0], [30.0, 10.0, 20.0])
        )
