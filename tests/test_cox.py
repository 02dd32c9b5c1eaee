import numpy as np
import pytest
import scipy.special

from isdkit.core import FitError, SurvivalDataset
from isdkit.cox import cox_partial_loglik, fit_cox, predict_curve_cox, univariate_cox_pvalue
from isdkit.curves import survival_at
from isdkit.km import fit_km, km_at

from conftest import dataset


def two_group_cohort(seed, n=1000, beta=1.0, censor_rate=0.02):
    """Exponential hazards with a binary covariate and hazard ratio e**beta."""
    rng = np.random.default_rng(seed)
    x = (rng.random(n) < 0.5).astype(float)
    hazard = 0.1 * np.exp(beta * x)
    death = rng.exponential(1.0 / hazard)
    censor = rng.exponential(1.0 / censor_rate, size=n)
    times = np.minimum(death, censor)
    events = death <= censor
    return SurvivalDataset.from_arrays(x.reshape(-1, 1), times, events)


class TestFitCox:
    def test_recovers_log_hazard_ratio(self):
        errors = [abs(fit_cox(two_group_cohort(seed)).beta[0] - 1.0)
                  for seed in range(20)]
        assert np.median(errors) < 0.15

    def test_null_feature_small_coefficient_large_p(self):
        betas, pvals = [], []
        for seed in range(20):
            d = two_group_cohort(seed, beta=0.0)
            betas.append(abs(fit_cox(d).beta[0]))
            pvals.append(univariate_cox_pvalue(d, 0))
        assert np.median(betas) < 0.1
        assert np.median(pvals) > 0.3

    def test_all_zero_feature_is_singular(self):
        d = dataset([1, 2, 3, 4, 5], [1, 1, 0, 1, 1], x=np.zeros((5, 1)))
        with pytest.raises(FitError, match="singular"):
            fit_cox(d)

    def test_no_events_rejected(self):
        d = dataset([1, 2, 3], [0, 0, 0], x=np.eye(3))
        with pytest.raises(FitError, match="uncensored"):
            fit_cox(d)

    def test_gradient_matches_finite_differences(self, rng):
        n, k = 40, 3
        x = rng.standard_normal((n, k))
        times = rng.uniform(0.5, 20, n)
        events = rng.random(n) < 0.7
        for _ in range(5):
            beta = rng.standard_normal(k) * 0.5
            _, grad, _ = cox_partial_loglik(beta, x, times, events, with_derivatives=True)
            h = 1e-6
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                fd = (cox_partial_loglik(beta + e, x, times, events)
                      - cox_partial_loglik(beta - e, x, times, events)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_converged_gradient_is_small(self):
        m = fit_cox(two_group_cohort(3))
        assert m.gradient_norm < 1e-8


class TestKpBaseline:
    def test_zero_coefficients_reproduce_km(self, rng):
        # with beta forced to 0 the KP baseline is exactly Kaplan-Meier,
        # including tied death times
        times = np.round(rng.uniform(0.5, 15, 60), 0) + 0.5
        events = rng.random(60) < 0.7
        if not events.any():
            events[0] = True
        x = np.zeros((60, 0))
        d = SurvivalDataset.from_arrays(x, times, events, feature_names=())
        model = fit_cox(d)
        assert model.beta.size == 0
        km = fit_km(d)
        for t in km.curve.times:
            assert survival_at(model.baseline, t) == pytest.approx(
                km_at(km, t), abs=1e-9
            )

    def test_predicted_curves_monotone_in_unit_range(self, rng):
        m = fit_cox(two_group_cohort(1, n=300))
        for _ in range(25):
            x = rng.standard_normal(1) * 3
            c = predict_curve_cox(m, x)
            assert np.all(np.diff(c.probs) <= 0)
            assert np.all((0 <= c.probs) & (c.probs <= 1))

    def test_baseline_exponent_identity_and_ordering(self):
        m = fit_cox(two_group_cohort(2, n=300))
        base = predict_curve_cox(m, np.zeros(1))
        np.testing.assert_array_equal(base.probs, m.baseline.probs)
        # higher risk scores give pointwise lower survival: curves never cross
        hi = predict_curve_cox(m, np.array([3.0 * np.sign(m.beta[0])]))
        assert np.all(hi.probs <= base.probs + 1e-15)


class TestUnivariateFilter:
    def test_prognostic_feature_selected(self):
        pvals = [univariate_cox_pvalue(two_group_cohort(seed), 0)
                 for seed in range(20)]
        assert np.median(pvals) < 0.01

    def test_noise_feature_rarely_selected(self):
        kept = sum(univariate_cox_pvalue(two_group_cohort(seed, beta=0.0), 0) <= 0.10
                   for seed in range(40))
        # a uniform p-value keeps the feature about 10% of the time
        assert kept <= 10

    def test_wald_p_value_keeps_its_far_tail(self):
        # z = 13 here; 2 * (1 - Phi(z)) cancels to exactly 0 in floating point
        d = two_group_cohort(3, n=1000, beta=1.0)
        x = d.feature_matrix()
        col = (x - x.mean()) / x.std()
        beta = fit_cox(SurvivalDataset.from_arrays(col, d.times, d.events)).beta
        _, _, info = cox_partial_loglik(beta, col, d.times, d.events, with_derivatives=True)
        z = abs(beta[0]) * np.sqrt(info[0, 0])
        assert z > 10
        p = univariate_cox_pvalue(d, 0)
        assert p > 0.0
        assert p == pytest.approx(2.0 * scipy.special.ndtr(-z), rel=1e-9)

    def test_constant_feature_gives_p_one(self):
        d = dataset([1, 2, 3, 4], [1, 1, 0, 1], x=np.full((4, 1), 2.5))
        assert univariate_cox_pvalue(d, 0) == 1.0

    def test_missing_cells_are_dropped(self):
        d = two_group_cohort(5, n=200)
        instances = list(d.instances)
        from isdkit.core import Instance
        instances[0] = Instance((None,), instances[0].time, instances[0].event)
        d2 = SurvivalDataset(tuple(instances), d.feature_names)
        p = univariate_cox_pvalue(d2, 0)
        assert 0.0 <= p <= 1.0
