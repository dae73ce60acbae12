"""Unit tests for the data-remanence model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sram.remanence import RemanenceModel
from repro.units import celsius_to_kelvin


@pytest.fixture
def model():
    return RemanenceModel(tau_nominal_s=0.25)


def test_instant_recycle_retains(model):
    assert model.retention_probability(0.0, celsius_to_kelvin(25)) == 1.0


def test_long_off_time_decays(model):
    assert model.retention_probability(60.0, celsius_to_kelvin(25)) < 1e-9


def test_probability_monotone_in_time(model):
    t = celsius_to_kelvin(25)
    probs = [model.retention_probability(s, t) for s in (0.0, 0.1, 0.5, 2.0)]
    assert probs == sorted(probs, reverse=True)


def test_heat_accelerates_decay(model):
    cold = model.retention_probability(0.5, celsius_to_kelvin(0))
    hot = model.retention_probability(0.5, celsius_to_kelvin(85))
    assert hot < cold


def test_retained_mask_statistics(model):
    rng = np.random.default_rng(0)
    mask = model.retained_mask(100_000, 0.25, celsius_to_kelvin(25), rng)
    # P(retain) = e^-1 ~ 0.368
    assert mask.mean() == pytest.approx(np.exp(-1), abs=0.01)


def test_retained_mask_extremes(model):
    rng = np.random.default_rng(0)
    assert model.retained_mask(100, 0.0, 298.0, rng).all()
    assert not model.retained_mask(100, 1e6, 298.0, rng).any()


def test_validation(model):
    with pytest.raises(ConfigurationError):
        RemanenceModel(tau_nominal_s=0.0)
    with pytest.raises(ConfigurationError):
        model.retention_probability(-1.0, 298.0)
    with pytest.raises(ConfigurationError):
        model.tau(0.0)


def test_retention_probability_vectorized(model):
    t = celsius_to_kelvin(25)
    gaps = np.array([0.0, 0.1, 0.5, 2.0])
    vec = model.retention_probability(gaps, t)
    assert vec.shape == gaps.shape
    for gap, p in zip(gaps, vec):
        assert p == pytest.approx(model.retention_probability(float(gap), t))
    with pytest.raises(ConfigurationError):
        model.retention_probability(np.array([0.1, -0.1]), t)
