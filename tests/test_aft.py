from dataclasses import replace

import numpy as np
import pytest

from isdkit.aft import aft_loglik, fit_aft_weibull, predict_curve_aft
from isdkit.core import FitError, SurvivalDataset
from isdkit.curves import survival_at
from isdkit.mtlr import default_grid_size, make_grid

from conftest import dataset


def weibull_sample(seed, n=2000, shape=2.0, scale=10.0, censor_rate=0.0):
    rng = np.random.default_rng(seed)
    death = scale * rng.weibull(shape, size=n)
    if censor_rate > 0:
        censor = rng.exponential(1.0 / censor_rate, size=n)
    else:
        censor = np.full(n, np.inf)
    times = np.minimum(death, censor)
    events = death <= censor
    return SurvivalDataset.from_arrays(np.zeros((n, 0)), times, events,
                                       feature_names=())


def fit(d):
    """`fit_aft_weibull` on the grid that `run_experiment` gives it."""
    return fit_aft_weibull(d, make_grid(d, default_grid_size(len(d))))


class TestFitAft:
    def test_uncensored_parameter_recovery(self):
        shape_err, scale_err = [], []
        for seed in range(20):
            m = fit(weibull_sample(seed))
            shape_err.append(abs(m.shape - 2.0) / 2.0)
            scale_err.append(abs(m.scale(np.zeros(0)) - 10.0) / 10.0)
        assert np.median(shape_err) < 0.05
        assert np.median(scale_err) < 0.05

    def test_heavy_censoring_recovery_degrades_but_holds(self):
        shape_err, scale_err = [], []
        for seed in range(20):
            d = weibull_sample(seed, censor_rate=0.12)  # roughly half censored
            m = fit(d)
            shape_err.append(abs(m.shape - 2.0) / 2.0)
            scale_err.append(abs(m.scale(np.zeros(0)) - 10.0) / 10.0)
        assert np.median(shape_err) < 0.15
        assert np.median(scale_err) < 0.15

    def test_exponential_data_has_shape_near_one(self):
        shapes = [fit(weibull_sample(seed, shape=1.0)).shape
                  for seed in range(20)]
        assert 0.9 < np.median(shapes) < 1.1

    def test_no_events_rejected(self):
        with pytest.raises(FitError, match="uncensored"):
            fit(dataset([1, 2, 3], [0, 0, 0]))

    def test_curves_sit_on_the_given_grid(self):
        d = weibull_sample(2, n=200, censor_rate=0.05)
        grid = make_grid(d, 8)
        m = fit_aft_weibull(d, grid)
        np.testing.assert_array_equal(m.grid, grid.points)
        np.testing.assert_array_equal(m.predict_curves(d).knots, [0.0, *grid.points])

    def test_zero_times_replaced_not_fatal(self):
        d = dataset([0.0, 1.0, 2.0, 4.0, 8.0], [1, 1, 1, 1, 1])
        m = fit(d)
        assert np.isfinite(m.intercept)

    def test_gradient_matches_finite_differences(self, rng):
        n, k = 50, 2
        x = rng.standard_normal((n, k))
        times = rng.uniform(0.5, 20, n)
        events = rng.random(n) < 0.7
        for _ in range(5):
            params = np.concatenate((rng.standard_normal(k + 1) * 0.5, [0.2]))
            _, grad, info = aft_loglik(params, x, times, events)
            h = 1e-6
            for j in range(params.size):
                e = np.zeros(params.size)
                e[j] = h
                fd = (aft_loglik(params + e, x, times, events)[0]
                      - aft_loglik(params - e, x, times, events)[0]) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-7)
            # the Hessian, minus the information, should differentiate the gradient
            e = np.zeros(params.size)
            e[0] = h
            _, g_plus, _ = aft_loglik(params + e, x, times, events)
            _, g_minus, _ = aft_loglik(params - e, x, times, events)
            np.testing.assert_allclose(-info[:, 0], (g_plus - g_minus) / (2 * h),
                                       rtol=1e-4, atol=1e-5)


class TestPredictAft:
    def test_survival_at_the_scale_is_one_over_e(self):
        m = fit(weibull_sample(0))
        lam = m.scale(np.zeros(0))
        curve = predict_curve_aft(replace(m, grid=np.array([lam])), np.zeros(0)).subset([0])
        assert curve.probs[0, 1] == pytest.approx(np.exp(-1), rel=1e-12)

    def test_time_zero_is_one(self):
        m = replace(fit(weibull_sample(0)), grid=np.array([0.0, 5.0]))
        curve = predict_curve_aft(m, np.zeros(0)).subset([0])
        assert curve.probs[0, 0] == 1.0
        assert survival_at(curve, 0.0) == 1.0

    def test_curves_never_cross(self, rng):
        # proportional-hazard family: one patient's curve dominates another's
        rng_local = np.random.default_rng(7)
        x = rng_local.standard_normal((400, 2))
        lin = x @ np.array([0.8, -0.5])
        death = 10 * np.exp(-lin) * rng_local.weibull(1.5, size=400)
        d = SurvivalDataset.from_arrays(x, death, np.ones(400, dtype=bool))
        m = replace(fit(d), grid=np.linspace(0.5, 40, 60))
        for _ in range(20):
            xa, xb = rng.standard_normal(2), rng.standard_normal(2)
            ca = predict_curve_aft(m, xa).subset([0]).probs
            cb = predict_curve_aft(m, xb).subset([0]).probs
            diff = ca - cb
            assert np.all(diff >= -1e-12) or np.all(diff <= 1e-12)

    def test_strictly_decreasing_and_positive(self):
        m = replace(fit(weibull_sample(1)), grid=np.linspace(0.5, 60, 50))
        curve = predict_curve_aft(m, np.zeros(0)).subset([0])
        assert np.all(np.diff(curve.probs) < 0)
        assert np.all(curve.probs > 0)
