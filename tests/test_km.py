import numpy as np
import pytest

from isdkit.km import fit_censoring_km, fit_km, km_at
from isdkit.pipeline import CohortConfig, simulate_cohort

from conftest import dataset


class TestFitKm:
    def test_hand_product_limit(self):
        # deaths at 2 and 5, censored at 3: S(2) = 2/3, S(5) = (2/3)*(0/1) = 0
        km = fit_km(dataset([2, 3, 5], [1, 0, 1]))
        assert km_at(km, 2.0) == pytest.approx(2 / 3)
        assert km_at(km, 4.0) == pytest.approx(2 / 3)
        assert km_at(km, 5.0) == 0.0
        assert km_at(km, 1.9) == 1.0

    def test_no_censoring_reduces_to_empirical_survival(self):
        km = fit_km(dataset([1, 2, 3, 4], [1, 1, 1, 1]))
        np.testing.assert_allclose(km.curve.probs[0], [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_single_death(self):
        km = fit_km(dataset([5], [1]))
        assert km_at(km, 4.99) == 1.0
        assert km_at(km, 5.0) == 0.0

    def test_a_nan_time_is_refused(self):
        km = fit_km(dataset([2, 3, 5], [1, 0, 1]))
        with pytest.raises(ValueError, match="t >= 0"):
            km_at(km, np.nan)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_km(dataset([], []))

    def test_risk_table_counts(self):
        km = fit_km(dataset([2, 2, 3, 5], [1, 0, 0, 1]))
        np.testing.assert_array_equal(km.times, [2, 3, 5])
        np.testing.assert_array_equal(km.at_risk, [4, 2, 1])
        np.testing.assert_array_equal(km.deaths, [1, 0, 1])
        np.testing.assert_array_equal(km.censored, [1, 1, 0])

    def test_empirical_reduction_property(self, rng):
        # without censoring the KM curve is the empirical survival function
        for _ in range(20):
            times = rng.integers(1, 30, size=20).astype(float)
            km = fit_km(dataset(times, np.ones(20)))
            grid = np.linspace(0, 35, 50)
            empirical = (times[None, :] > grid[:, None]).mean(axis=1)
            np.testing.assert_allclose(km_at(km, grid), empirical, atol=1e-12)


class TestCensoringKm:
    def test_all_uncensored_gives_flat_one(self):
        g = fit_censoring_km(dataset([1, 2, 3], [1, 1, 1]))
        assert km_at(g, 0.5) == 1.0
        assert km_at(g, 99.0) == 1.0

    def test_label_flip_oracle(self, rng):
        for _ in range(20):
            times = rng.uniform(0.1, 20, size=30)
            events = rng.random(30) < 0.6
            g = fit_censoring_km(dataset(times, events))
            flipped = fit_km(dataset(times, ~events))
            np.testing.assert_array_equal(g.curve.knots, flipped.curve.knots)
            np.testing.assert_array_equal(g.curve.probs, flipped.curve.probs)

    def test_all_censored_is_empirical_survival_of_censor_times(self):
        g = fit_censoring_km(dataset([1, 2, 3, 4], [0, 0, 0, 0]))
        np.testing.assert_allclose(g.curve.probs[0], [1.0, 0.75, 0.5, 0.25, 0.0])


def test_km_consistency_improves_with_sample_size():
    # sup-norm distance to the true exponential survival shrinks with n
    scale = 10.0
    grid = np.linspace(0.0, 30.0, 200)
    truth = np.exp(-grid / scale)
    config = CohortConfig(family="exponential-ph", n_features=1,
                          baseline_scale=scale, censor_rate=0.03)
    medians = []
    for n in (100, 1000, 10000):
        gaps = []
        for seed in range(20):
            d = simulate_cohort(config, n, seed)
            km = fit_km(d)
            gaps.append(np.max(np.abs(km_at(km, grid) - truth)))
        medians.append(np.median(gaps))
    assert medians[0] > medians[1] > medians[2]
