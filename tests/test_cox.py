import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit.core import FitError, Instance, SurvivalDataset
from isdkit.cox import cox_partial_loglik, fit_cox, predict_curve_cox, univariate_cox_pvalue
from isdkit.curves import survival_at
from isdkit.km import fit_km, km_at

from conftest import dataset, scalar_cox_fit


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
            c = predict_curve_cox(m, x).row(0)
            assert np.all(np.diff(c.probs) <= 0)
            assert np.all((0 <= c.probs) & (c.probs <= 1))

    def test_baseline_exponent_identity_and_ordering(self):
        m = fit_cox(two_group_cohort(2, n=300))
        base = predict_curve_cox(m, np.zeros(1)).row(0)
        np.testing.assert_array_equal(base.probs, m.baseline.probs)
        # higher risk scores give pointwise lower survival: curves never cross
        hi = predict_curve_cox(m, np.array([3.0 * np.sign(m.beta[0])])).row(0)
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


@st.composite
def filter_cohorts(draw):
    """Small cohorts with tied times, missing cells and columns of few
    distinct values, so degenerate columns turn up often."""
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, 5))
    times = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cell = st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 2.5]),
                     st.floats(-5.0, 5.0, allow_nan=False))
    rows = draw(st.lists(st.tuples(*[cell] * k), min_size=n, max_size=n))
    instances = tuple(Instance(r, float(t), e) for r, t, e in zip(rows, times, events))
    return SurvivalDataset(instances, tuple(f"c{j}" for j in range(k)))


class TestBatchedFilter:
    """The batched filter against one scalar Newton fit per column.

    A missing cell puts a zero into the batched row sums, which pairs the
    terms differently from a sum over the complete cases alone.  That moves
    p by under 1e-12 relative while the fit converges at |beta| < 6 on the
    standardized scale.  A column that (nearly) separates the deaths drives
    beta toward infinity; Newton then stops wherever rounding decides, and
    fuzzing such columns moved p by up to 1e-8 relative, hence the wider
    bound there.
    """

    @staticmethod
    def check(d):
        batched = univariate_cox_pvalue(d, range(len(d.feature_names)))
        for j, p in enumerate(batched):
            reference, beta = scalar_cox_fit(d, j)
            rel = 1e-10 if beta < 6 else 1e-6
            assert p == pytest.approx(reference, rel=rel, abs=0.0), (j, beta)
            assert univariate_cox_pvalue(d, j) == p
        return batched

    @given(filter_cohorts())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_column_fits(self, d):
        self.check(d)

    def test_degenerate_columns_give_p_one(self):
        rng = np.random.default_rng(3)
        n = 100
        times = np.arange(1.0, n + 1)
        events = rng.random(n) < 0.7
        events[-1] = True
        signal = -times + rng.standard_normal(n)
        no_present_death = np.where(events, np.nan, rng.standard_normal(n))
        separating = -times          # each death has the largest value at risk
        x = np.column_stack([signal, np.full(n, 2.0), no_present_death, separating])
        cells = [tuple(None if np.isnan(v) else v for v in row) for row in x]
        d = SurvivalDataset(tuple(Instance(c, t, e) for c, t, e in
                                  zip(cells, times, events)), ("s", "const", "nodeath", "sep"))
        p = self.check(d)
        assert p[0] < 1e-6
        assert p[1:].tolist() == [1.0, 1.0, 1.0]

    def test_missing_cells_and_tied_times(self):
        rng = np.random.default_rng(11)
        n = 300
        x = rng.standard_normal((n, 6))
        times = np.round(rng.exponential(np.exp(-0.8 * x[:, 0])) * 4) / 4   # many ties
        events = rng.random(n) < 0.6
        cells = [tuple(None if rng.random() < 0.15 else v for v in row) for row in x]
        d = SurvivalDataset(tuple(Instance(c, t, e) for c, t, e in zip(cells, times, events)),
                            tuple(f"x{j}" for j in range(6)))
        assert np.unique(times).size < n / 2
        p = self.check(d)
        assert p[0] < 0.01
