import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit import core, cox
from isdkit.core import FitError, Instance, SurvivalDataset, accepts
from isdkit.cox import (
    _RiskSets,
    _factor,
    _kp_baseline,
    cox_partial_loglik,
    fit_cox,
    predict_curve_cox,
    univariate_cox_pvalue,
)
from isdkit.curves import survival_at
from isdkit.km import fit_km, km_at
from isdkit.pipeline import preprocess

from conftest import dataset, scalar_cox_fit


def reference_partial(beta, x, times, events):
    """Breslow log partial likelihood, gradient and information from the
    suffix sums of w, w x and w x x^T (an n x k x k tensor) read at each
    distinct death time's first row at risk."""
    order = np.argsort(times, kind="stable")
    xs, ts, es = x[order], times[order], events[order]
    eta = xs @ beta
    shift = eta.max()
    ws = np.exp(eta - shift)
    death_times = np.unique(ts[es])
    first = np.searchsorted(ts, death_times, side="left")
    d = np.bincount(np.searchsorted(death_times, ts[es]),
                    minlength=death_times.size).astype(float)

    def suffix(a):
        return np.cumsum(a[::-1], axis=0)[::-1][first]

    s0 = suffix(ws)
    s1 = suffix(ws[:, None] * xs)
    s2 = suffix(ws[:, None, None] * xs[:, :, None] * xs[:, None, :])
    loglik = eta[es].sum() - np.sum(d * (np.log(s0) + shift))
    means = s1 / s0[:, None]
    grad = xs[es].sum(axis=0) - (d[:, None] * means).sum(axis=0)
    cov = s2 / s0[:, None, None] - means[:, :, None] * means[:, None, :]
    return loglik, grad, (d[:, None, None] * cov).sum(axis=0)


def reference_kp_baseline(beta, x, times, events):
    """The Kalbfleisch-Prentice factors solved one death time at a time; a
    death time at which every patient at risk dies has factor 0."""
    order = np.argsort(times, kind="stable")
    xs, ts, es = x[order], times[order], events[order]
    ws = np.exp(xs @ beta)
    death_times = np.unique(ts[es])
    s0_all = np.cumsum(ws[::-1])[::-1]
    first = np.searchsorted(ts, death_times, side="left")
    alphas = np.empty(death_times.size)
    for j, dt in enumerate(death_times):
        at_event = es & (ts == dt)
        wbar = ws[at_event].mean()
        everyone = at_event.sum() == ts.size - first[j]
        inner = 0.0 if everyone else 1.0 - at_event.sum() * wbar / s0_all[first[j]]
        alphas[j] = max(inner, 0.0) ** (1.0 / wbar)
    return death_times, np.clip(np.cumprod(alphas), 0.0, 1.0)


@st.composite
def cox_problems(draw):
    """(beta, x, times, events): tied or distinct times, every patient dead
    to 90% censored, columns shifted by up to 50 of their own scales and
    scaled over four decades.  The earliest patient dies, so the first risk
    set holds every row and the information is not zero."""
    n = draw(st.integers(3, 60))
    k = draw(st.integers(1, 4))
    death_rate = draw(st.sampled_from([1.0, 0.5, 0.1]))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.exponential(5.0, n)
    if tied:
        times = np.round(times)
    events = rng.random(n) < death_rate
    events[np.argmin(times)] = True
    scale = 10.0 ** rng.uniform(-2.0, 2.0, k)
    x = (rng.standard_normal((n, k)) + rng.uniform(-50.0, 50.0, k)) * scale
    beta = rng.standard_normal(k) * 0.5 / scale
    return beta, x, times, events


@pytest.mark.parametrize("times, x, beta", [
    ([1.0, 0.0, 1.0, 1.0],
     [-327.44832766, -286.93549243, -305.80188037, -300.63331491], -0.0414591),
    ([0.0, 1.0, 1.0, 1.0, 1.0],
     [-82.12971293130961, -102.8794341680787, -146.77495873247648, 151.1930684876199,
      -43.35360712936558], -0.08485699788858742),
])
def test_kp_baseline_ends_at_zero_when_every_patient_at_risk_dies(times, x, beta):
    # everyone left dies at the last time, so 1 - d * wbar / s0 is 0, but
    # only up to rounding; with wbar ~ e**12 an ulp above 0 would be lifted
    # towards 1 (the first case did so in the per-death loop, the second in
    # the vectorised form)
    times = np.array(times)
    risk = _RiskSets(np.array(x)[:, None], times, np.ones(times.size, dtype=bool))
    assert _kp_baseline(np.array([beta]), risk).probs[0, -1] == 0.0


class TestPartialLikelihood:
    """The matrix-product information against the n x k x k suffix sums."""

    @given(cox_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_suffix_sum_reference(self, problem):
        beta, x, times, events = problem
        loglik, grad, info = cox_partial_loglik(beta, x, times, events)
        ref_loglik, ref_grad, ref_info = reference_partial(beta, x, times, events)
        # the loglik sums terms of the size of the deaths' x beta, and a
        # gradient entry terms of the size of its column's death values;
        # in shifted columns both can cancel to far less
        terms = np.abs(x[events] @ beta).sum()
        assert abs(loglik - ref_loglik) <= 1e-12 * (abs(ref_loglik) + terms)
        assert np.all(np.abs(grad - ref_grad) <= 1e-12 * np.abs(x[events]).sum(axis=0))
        assert np.abs(info - ref_info).max() <= 1e-9 * np.abs(ref_info).max()

    @given(cox_problems())
    @settings(max_examples=100, deadline=None)
    def test_information_is_the_gradient_derivative(self, problem):
        beta, x, times, events = problem
        _, _, info = cox_partial_loglik(beta, x, times, events)
        scale = x.std(axis=0)
        for j in range(beta.size):
            e = np.zeros(beta.size)
            e[j] = 1e-5 / scale[j]
            _, up, _ = cox_partial_loglik(beta + e, x, times, events)
            _, down, _ = cox_partial_loglik(beta - e, x, times, events)
            column = -(up - down) / (2.0 * e[j])
            assert np.abs(column - info[:, j]).max() <= 1e-6 * np.abs(info).max()

    @given(cox_problems().filter(lambda p: p[3].all() or np.unique(p[2]).size < p[2].size))
    @settings(max_examples=150, deadline=None)
    def test_kp_baseline_matches_the_per_death_loop(self, problem):
        beta, x, times, events = problem
        baseline = _kp_baseline(beta, _RiskSets(x, times, events))
        ref_times, ref_probs = reference_kp_baseline(beta, x, times, events)
        np.testing.assert_array_equal(baseline.knots, ref_times)
        np.testing.assert_allclose(baseline.probs[0], ref_probs, rtol=0.0, atol=1e-14)


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

    @pytest.mark.parametrize("make_column", [
        lambda a, b: a,             # a duplicated column
        lambda a, b: 2.0 * a,       # b = 2a: singular only up to rounding
        lambda a, b: a + b,         # c = a + b
    ])
    def test_collinear_columns_are_singular(self, rng, make_column):
        # in about 40% of these cohorts the rounded information matrix still
        # has a Cholesky factor; its pivot for the third column is ~1e-16
        # of that column's diagonal entry
        for _ in range(10):
            n = 80
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            x = np.column_stack([a, b, make_column(a, b)])
            times, events = rng.exponential(5.0, n), rng.random(n) < 0.7
            with pytest.raises(FitError, match="singular information matrix"):
                fit_cox(SurvivalDataset.from_arrays(x, times, events))
            # the first factorisation already refuses it
            _, _, info = cox_partial_loglik(np.zeros(3), x, times, events)
            with pytest.raises(FitError, match="singular information matrix"):
                _factor(info)

    def test_line_search_refuses_an_infinite_likelihood(self, monkeypatch):
        # x = -t separates the deaths, so beta diverges until every weight of
        # some risk set underflows and log(0) reads the likelihood as +inf
        rng = np.random.default_rng(0)
        times, events = rng.exponential(10, 100), rng.random(100) < 0.7
        x = (-times - (-times).mean()) / times.std()
        accepted = []       # the trial values the fit took

        def recording_accepts(new, value):
            took = accepts(new, value)
            if took:
                accepted.append(new)
            return took

        monkeypatch.setattr(core, "accepts", recording_accepts)
        with pytest.raises(FitError, match="singular information matrix"):
            fit_cox(SurvivalDataset.from_arrays(x[:, None], times, events))
        assert len(accepted) > 1 and np.all(np.isfinite(accepted))

    def test_separating_column_raises_fit_error_without_warnings(self):
        # the line search's far-off trials overflow exp and take log 0, and
        # the refused values must not surface as numpy warnings
        rng = np.random.default_rng(0)
        times, events = rng.exponential(10, 100), rng.random(100) < 0.7
        x = (-times - (-times).mean()) / times.std()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="singular information matrix"):
                fit_cox(SurvivalDataset.from_arrays(x[:, None], times, events))

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
            _, grad, _ = cox_partial_loglik(beta, x, times, events)
            h = 1e-6
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                fd = (cox_partial_loglik(beta + e, x, times, events)[0]
                      - cox_partial_loglik(beta - e, x, times, events)[0]) / (2 * h)
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
        for t in km.curve.knots:
            assert survival_at(model.baseline, t) == pytest.approx(
                km_at(km, t), abs=1e-9
            )

    def test_predicted_curves_monotone_in_unit_range(self, rng):
        m = fit_cox(two_group_cohort(1, n=300))
        for _ in range(25):
            x = rng.standard_normal(1) * 3
            c = predict_curve_cox(m, x).subset([0])
            assert np.all(np.diff(c.probs) <= 0)
            assert np.all((0 <= c.probs) & (c.probs <= 1))

    def test_baseline_exponent_identity_and_ordering(self):
        m = fit_cox(two_group_cohort(2, n=300))
        base = predict_curve_cox(m, np.zeros(1)).subset([0])
        np.testing.assert_array_equal(base.probs, m.baseline.probs)
        # higher risk scores give pointwise lower survival: curves never cross
        hi = predict_curve_cox(m, np.array([3.0 * np.sign(m.beta[0])])).subset([0])
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
        _, _, info = cox_partial_loglik(beta, col, d.times, d.events)
        z = abs(beta[0]) * np.sqrt(info[0, 0])
        assert z > 10
        p = univariate_cox_pvalue(d, 0)
        assert p > 0.0
        assert p == pytest.approx(2.0 * scipy.special.ndtr(-z), rel=1e-9)

    def test_constant_feature_gives_p_one(self):
        d = dataset([1, 2, 3, 4], [1, 1, 0, 1], x=np.full((4, 1), 2.5))
        assert univariate_cox_pvalue(d, 0) == 1.0

    def test_separating_column_gets_the_score_test(self):
        # each death has the largest value at risk: the Wald fit diverges,
        # and the score test at beta = 0 keeps the column
        n = 30
        times = np.arange(1.0, n + 1)
        d = SurvivalDataset.from_arrays(-times[:, None], times, np.ones(n, dtype=bool),
                                        feature_names=("sep",))
        p = univariate_cox_pvalue(d, 0)
        assert p < 1e-6
        assert p == pytest.approx(scalar_cox_fit(d, 0)[0], rel=1e-10)
        train, _, report = preprocess(d, d)
        assert report.selected == ("sep",)
        assert train.feature_names == ("sep",)

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
    bound there.  Past |beta| = 10 both sides take the score test at
    beta = 0 instead.
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
        assert p[1:3].tolist() == [1.0, 1.0]
        # the separating column's fit diverges, so it gets the score test
        assert p[3] < 1e-6

    def test_subnormal_column_gets_p_one_without_warnings(self):
        # the first column varies, but all its values are subnormal, so its
        # standard deviation rounds to 0: it is treated as constant
        x = np.column_stack([np.tile([0.0, 5e-324], 3), [0.3, -1.2, 0.8, 2.0, -0.4, 1.1]])
        d = dataset([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1, 1, 0, 1, 1, 0], x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = self.check(d)               # batched, int and reference paths
        assert p[0] == 1.0 and univariate_cox_pvalue(d, 0) == 1.0
        assert scalar_cox_fit(d, 0) == (1.0, 0.0)

    def test_score_test_on_a_column_barely_varying_at_risk(self):
        # the row censored before both deaths sets the column's mean and
        # spread, and the two rows at risk differ by 1.2e-7 of that spread,
        # so the separating fit diverges and second moments about the mean
        # would lose I(0) to rounding; U(0)**2 / I(0) is exactly 1
        x = np.array([[-1.192092896e-07], [np.nan], [-1.0], [0.0]])
        cells = [tuple(None if np.isnan(v) else v for v in row) for row in x]
        d = SurvivalDataset(tuple(Instance(c, t, e) for c, t, e in
                                  zip(cells, [2.0, 0.0, 0.0, 1.0], [1, 0, 0, 1])), ("c0",))
        p = self.check(d)
        assert p[0] == pytest.approx(2.0 * scipy.special.ndtr(-1.0), rel=1e-12)
        assert scalar_cox_fit(d, 0)[1] > 1e6

    def test_score_test_on_a_column_constant_at_risk(self):
        # the column varies only through the row censored before every
        # death, so there is no information at beta = 0
        x = np.array([[0.1], [0.1], [0.1], [-1.0]])
        d = dataset([1.0, 2.0, 3.0, 0.5], [1, 1, 0, 0], x)
        assert self.check(d).tolist() == [1.0]

    def test_one_likelihood_pass_per_trial(self, monkeypatch):
        # each pass takes one exp; the first pass is at beta = 0, and every
        # trial of the line search is one pass that also gives the derivatives
        counts = {"passes": 0, "trials": 0}

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(a):
                counts["passes"] += 1
                return np.exp(a)

        def counting_accepts(new, value):
            counts["trials"] += 1
            return accepts(new, value)

        monkeypatch.setattr(cox, "np", CountingNumpy())
        monkeypatch.setattr(cox, "accepts", counting_accepts)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 3))
        times = rng.exponential(np.exp(-0.8 * x[:, 0]))
        d = dataset(times, rng.random(40) < 0.7, x)
        univariate_cox_pvalue(d, range(3))
        assert counts["trials"] >= 3
        assert counts["passes"] == 1 + counts["trials"]

    def test_refused_trials_keep_the_int_path_bits(self, monkeypatch):
        # the heavy-tailed first column refuses its first full step while the
        # others take theirs, so that trial discards the derivatives of one
        # column; -t and -log t separate the deaths, and -t diverges until its
        # trials are refused too
        mixed = []

        def recording_accepts(new, value):
            took = accepts(new, value)
            mixed.append(0 < took.sum() < took.size)
            return took

        monkeypatch.setattr(cox, "accepts", recording_accepts)
        rng = np.random.default_rng(3)
        n = 40
        times = rng.exponential(1.0, n)
        events = rng.random(n) < 0.7
        x = np.column_stack([rng.standard_cauchy(n), -times, rng.standard_normal(n),
                             np.exp(2.0 * rng.standard_normal(n)), -np.log(times)])
        d = dataset(times, events, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = univariate_cox_pvalue(d, range(5))
            assert mixed[0]
            assert batched.tolist() == [univariate_cox_pvalue(d, j) for j in range(5)]
            self.check(d)
        # a column that separates the deaths is kept
        assert batched[1] < 1e-6 and batched[4] < 1e-6

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
