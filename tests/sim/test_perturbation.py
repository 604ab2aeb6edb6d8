"""Unit tests for the perturbation models and their seeded streams."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.sim import JITTER_MODELS, PerturbationModel, rng_for_seed


class TestValidation:
    def test_defaults_are_null(self):
        model = PerturbationModel()
        assert model.is_null
        assert model.jitter_model in JITTER_MODELS

    def test_negative_jitter_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationModel(jitter=-0.1)

    @pytest.mark.parametrize("jitter", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("jitter_model", JITTER_MODELS)
    def test_non_finite_jitter_rejected(self, jitter, jitter_model):
        with pytest.raises(ConfigurationError, match="jitter"):
            PerturbationModel(jitter=jitter, jitter_model=jitter_model)
        with pytest.raises(ConfigurationError, match="jitter"):
            PerturbationModel.from_dict({"jitter": jitter, "jitter_model": jitter_model})

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationModel(jitter=0.1, jitter_model="cauchy")

    def test_uniform_jitter_must_keep_factors_positive(self):
        with pytest.raises(ConfigurationError):
            PerturbationModel(jitter=1.0, jitter_model="uniform")
        PerturbationModel(jitter=0.99, jitter_model="uniform")  # ok

    def test_failure_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            PerturbationModel(failure_rate=1.0)
        with pytest.raises(ConfigurationError):
            PerturbationModel(failure_rate=-0.01)

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            PerturbationModel(max_retries=-1)


class TestDraws:
    def test_null_model_draws_nothing(self):
        model = PerturbationModel()
        rng = rng_for_seed(0)
        before = rng.bit_generator.state
        assert model.duration_factor(rng) == 1.0
        assert model.draw_failure(rng) is False
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("distribution", JITTER_MODELS)
    def test_factors_positive_and_mean_one(self, distribution):
        model = PerturbationModel(jitter=0.2, jitter_model=distribution)
        rng = rng_for_seed(42)
        factors = [model.duration_factor(rng) for _ in range(4000)]
        assert all(factor > 0 for factor in factors)
        assert math.fsum(factors) / len(factors) == pytest.approx(1.0, abs=0.02)

    def test_uniform_factors_bounded(self):
        model = PerturbationModel(jitter=0.3, jitter_model="uniform")
        rng = rng_for_seed(1)
        for _ in range(500):
            assert 0.7 <= model.duration_factor(rng) <= 1.3

    def test_failure_frequency_tracks_rate(self):
        model = PerturbationModel(failure_rate=0.25)
        rng = rng_for_seed(9)
        failures = sum(model.draw_failure(rng) for _ in range(4000))
        assert failures / 4000 == pytest.approx(0.25, abs=0.03)

    def test_same_seed_same_stream(self):
        model = PerturbationModel(jitter=0.2, failure_rate=0.1)
        draws_a = [
            (model.duration_factor(rng), model.draw_failure(rng))
            for rng in [rng_for_seed(5)]
            for _ in range(50)
        ]
        rng = rng_for_seed(5)
        draws_b = [
            (model.duration_factor(rng), model.draw_failure(rng)) for _ in range(50)
        ]
        assert draws_a == draws_b

    def test_replication_streams_independent(self):
        model = PerturbationModel(jitter=0.2)
        base = [model.duration_factor(rng_for_seed(3, 0)) for _ in range(1)]
        other = [model.duration_factor(rng_for_seed(3, 1)) for _ in range(1)]
        assert base != other


class TestSerialisation:
    def test_round_trip(self):
        model = PerturbationModel(
            jitter=0.15, jitter_model="uniform", failure_rate=0.05, max_retries=4
        )
        assert PerturbationModel.from_dict(model.to_dict()) == model

    def test_from_empty_dict_is_null(self):
        assert PerturbationModel.from_dict({}).is_null
