import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

from conftest import dataset, exact_kp_hazard, scalar_cox_fit, separates


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


@st.composite
def cox_problems(draw, ties_or_all_dead=False):
    """(beta, x, times, events): tied or distinct times, every patient dead
    to 90% censored, columns shifted by up to 50 of their own scales and
    scaled over four decades.  The earliest patient dies, so the first risk
    set holds every row and the information is not zero.  With
    `ties_or_all_dead`, tied times include at least one tie, and every
    patient dies where no two times tie."""
    n = draw(st.integers(3, 60))
    k = draw(st.integers(1, 4))
    death_rate = draw(st.sampled_from([1.0, 0.5, 0.1]))
    tied = draw(st.booleans())
    if ties_or_all_dead and not tied:
        death_rate = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.exponential(5.0, n)
    if tied:
        times = np.round(times)
        if ties_or_all_dead:
            times[-1] = times[0]
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


# |log H0 - log H0_exact|, the relative error of H0, that _kp_baseline may
# make: x . beta and its shift are rounded once each, and every death time
# adds a few roundings, in cohorts of up to 60 rows (at most 2.8e-14 in
# 1,500 draws of `cox_problems`)
KP_LOG_TOL = 1e-12


def assert_matches_exact_kp(baseline, x, beta, times, events):
    death_times, exact = exact_kp_hazard(x, beta, times, events)
    np.testing.assert_array_equal(baseline.knots, np.union1d(0.0, death_times))
    log_h0 = baseline.base[0, -death_times.size:]
    for got, want in zip(log_h0, exact):
        if want.is_infinite():
            assert got == np.inf
        else:
            assert abs(got - float(want.ln())) <= KP_LOG_TOL


@st.composite
def tied_cohorts(draw, x_max=3):
    """(x, beta, times, events) of up to a dozen rows on four whole times,
    with integer features up to `x_max` in size and |beta| up to 25, so
    that one death's weight often dominates its risk set by e**150 (by
    e**2000 at x_max = 40)."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 2))
    times = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    events[draw(st.integers(0, n - 1))] = True
    x = np.array(draw(st.lists(st.integers(-x_max, x_max), min_size=n * k, max_size=n * k)),
                 float).reshape(n, k)
    beta = np.array(draw(st.lists(st.floats(-25.0, 25.0), min_size=k, max_size=k)))
    return x, beta, times, events


@given(tied_cohorts())
@settings(max_examples=200, deadline=None)
def test_kp_baseline_matches_the_exact_hazard_on_small_tied_cohorts(cohort):
    x, beta, times, events = cohort
    baseline = _kp_baseline(beta, _RiskSets(x, times, events))
    assert_matches_exact_kp(baseline, x, beta, times, events)


@given(tied_cohorts(x_max=40))
@settings(max_examples=200, deadline=None)
def test_kp_baseline_matches_the_exact_hazard_past_the_underflow_of_exp(cohort):
    # x . beta spreads over up to 2000, so that under the fold's largest
    # x . beta the weights of a later risk set, or of a risk set's
    # survivors, underflow to 0
    x, beta, times, events = cohort
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        baseline = _kp_baseline(beta, _RiskSets(x, times, events))
    assert_matches_exact_kp(baseline, x, beta, times, events)


def test_kp_baseline_survives_weights_that_underflow_under_one_shift():
    # x . beta is 800 on row 0 and 0 elsewhere: the survivors of t = 1 and
    # every later risk set weigh e**-800 against row 0, which reads 0 when
    # every weight is shifted by 800 (H0 = inf from t = 1, 0 / 0 from t = 3)
    times = np.arange(1.0, 9.0)
    events = np.isin(times, [1.0, 3.0, 4.0, 6.0, 8.0])
    x = np.zeros((8, 1))
    x[0] = 40.0
    beta = np.array([20.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        baseline = _kp_baseline(beta, _RiskSets(x, times, events))
    assert_matches_exact_kp(baseline, x, beta, times, events)
    np.testing.assert_allclose(baseline.base[0, 1:5], [-793.318, -1.702, -0.903, -0.210],
                               atol=1e-3)


def test_kp_baseline_takes_a_linear_predictor_past_the_overflow_of_exp():
    times = np.arange(1.0, 9.0)
    events = np.array([1, 0, 1, 1, 0, 1, 0, 1], bool)
    x = np.array([30.0, 29.5, 28.0, 31.0, 29.0, 30.5, 28.5, 29.8])[:, None]
    beta = np.array([25.0])                     # x . beta from 700 to 775
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        baseline = _kp_baseline(beta, _RiskSets(x, times, events))
    assert_matches_exact_kp(baseline, x, beta, times, events)


def test_one_dominant_death_leaves_the_baseline_at_one():
    # deaths at t = 1 and 2 only; row 0's weight dominates the first risk
    # set, so 1 - d * wbar / s0 rounds to 0 although S0(1) = 1 - 2.8e-26
    times = np.arange(1.0, 21.0)
    events = times <= 2
    raw = np.zeros(20)
    raw[:2] = [3.0, 1.0]
    x = ((raw - raw.mean()) / raw.std())[:, None]
    model = fit_cox(dataset(times, events, x))
    beta = model.beta
    assert 15.0 < beta[0] < 15.3
    _, exact = exact_kp_hazard(x, beta, times, events)
    with localcontext() as ctx:
        ctx.prec = 60
        # S_i(1) = exp(-H0(1) exp(x_i . beta)), and S0(1) at x . beta = 0
        s0_at_1 = (-exact[0]).exp()
        rows_at_1 = [(-exact[0] * (Decimal(float(v)) * Decimal(float(beta[0]))).exp()).exp()
                     for v in x[:, 0]]
    assert 1 - s0_at_1 < Decimal("1e-17")
    assert all(1 - s < Decimal("1e-17") for s in rows_at_1[1:])
    assert model.baseline.knots[1] == 1.0 and model.baseline.probs[0, 1] == 1.0
    assert predict_curve_cox(model, x).probs[1:, 1].tolist() == [1.0] * 19


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

    @given(cox_problems(ties_or_all_dead=True))
    @settings(max_examples=150, deadline=None)
    def test_kp_baseline_matches_the_per_death_loop(self, problem):
        # the loop is `exact_kp_hazard`'s, in 60 digits: a float loop's power
        # 1 / wbar magnifies the rounding of 1 - d wbar / S past 1e-14
        beta, x, times, events = problem
        baseline = _kp_baseline(beta, _RiskSets(x, times, events))
        assert_matches_exact_kp(baseline, x, beta, times, events)
        death_times, exact = exact_kp_hazard(x, beta, times, events)
        exact_probs = [float((-h).exp()) for h in exact]
        np.testing.assert_allclose(baseline.probs[0, -death_times.size:], exact_probs,
                                   rtol=0.0, atol=1e-14)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_risk_sums_are_the_suffix_reductions_they_replace(data):
    # every risk-set reduction of the fit, the baseline and the filter goes
    # through `_risk_sums`; these are the spellings it took the place of
    n = data.draw(st.integers(1, 30))
    k = data.draw(st.integers(1, 4))
    finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    a = data.draw(hnp.arrays(np.float64, (n, k), elements=finite))
    eta = data.draw(hnp.arrays(np.float64, n, elements=finite | st.just(-np.inf)))
    first = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    back = n - 1 - first
    assert (cox._risk_sums(a, back).tobytes()
            == np.cumsum(a[::-1], axis=0)[::-1][first].tobytes())
    assert (cox._risk_sums(eta, back, reduce=np.logaddexp).tobytes()
            == np.logaddexp.accumulate(eta[::-1])[::-1][first].tobytes())
    # the filter's layout, columns × time-sorted rows
    assert (cox._risk_sums(a.T.copy(), back, 1).tobytes()
            == np.cumsum(a.T[:, ::-1], axis=1)[:, ::-1][:, first].tobytes())


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cell", [(1, 1), (0, 2)])
    def test_non_finite_information_is_singular(self, value, cell):
        # numpy's cholesky may return a factor holding NaN or inf for such a
        # matrix instead of refusing it
        info = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
        info[cell] = info[cell[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="^singular information matrix in Cox fit; "
                                               "remove constant or collinear features$"):
                _factor(info)

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

    def test_normal_tails_match_scipy_ndtr(self):
        # 2 Phi(-z) as erfc(z / sqrt 2), from z = 0 to z = 37, where it is 6e-300
        z = np.concatenate([np.linspace(0.0, 37.0, 3701), np.geomspace(1e-12, 37.0, 500)])
        np.testing.assert_allclose(cox._normal_tails(z), 2.0 * scipy.special.ndtr(-z),
                                   rtol=1e-13, atol=0)
        assert cox._normal_tails(np.zeros(1)).tolist() == [1.0]
        assert cox._normal_tails(np.empty(0)).shape == (0,)

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
    """The batched filter against one scalar Newton fit per column on its
    rows at risk.

    A missing cell or a row before the column's first death puts a zero
    into the batched row sums, which pairs the terms differently from a sum
    over the rows at risk alone.  That moves p by under 1e-12 relative
    while the fit converges at |beta| < 6 on the standardized scale.  A
    column that nearly separates the deaths drives beta toward infinity;
    Newton then stops wherever rounding decides, and fuzzing such columns
    moved p by up to 1e-8 relative, hence the wider bound there.  Past
    |beta| = 10, and on a column that separates the deaths, both sides
    take the score test at beta = 0 instead; the reference computes it
    exactly on the raw values at risk.
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
        # the row censored before both deaths is far from the two rows at
        # risk, which differ by 1.2e-7 of that distance; centred on all
        # three, second moments would lose I(0) to rounding.  The column
        # separates the deaths, and U(0)**2 / I(0) is exactly 1
        x = np.array([[-1.192092896e-07], [np.nan], [-1.0], [0.0]])
        times, events = np.array([2.0, 0.0, 0.0, 1.0]), np.array([1, 0, 0, 1], dtype=bool)
        cells = [tuple(None if np.isnan(v) else v for v in row) for row in x]
        d = SurvivalDataset(tuple(Instance(c, t, e) for c, t, e in
                                  zip(cells, times, events)), ("c0",))
        p = self.check(d)
        assert p[0] == pytest.approx(2.0 * scipy.special.ndtr(-1.0), rel=1e-12)
        keep = ~np.isnan(x[:, 0])
        assert separates(x[keep, 0], times[keep], events[keep])

    def test_separating_columns_get_the_score_test(self):
        # on two patients who both die, -t holds the largest value at risk
        # at each death and t the smallest; standardized at risk, either
        # fit stops near |beta| = 9.6, inside the bound, where the Wald p
        # reads 0.999.  The likelihood rises to beta = ±inf, and the score
        # test's U(0)**2 / I(0) is exactly 1
        times = np.array([1.0, 2.0])
        d = dataset(times, [1, 1], np.column_stack([-times, times]))
        assert self.check(d) == pytest.approx(2.0 * scipy.special.ndtr(-1.0), rel=1e-12)
        assert all(0 < scalar_cox_fit(d, j)[1] < cox._BETA_BOUND for j in range(2))

    @given(filter_cohorts(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_row_in_no_risk_set_changes_no_bit(self, d, data):
        # a row with a time before its column's first death is in none of the
        # column's risk sets, so no value it takes can move a p-value.  Row i
        # is made such a row, censored at time 0 with every other time moved
        # up by 1, rather than searched for
        j = data.draw(st.integers(0, len(d.feature_names) - 1))
        i = data.draw(st.integers(0, len(d) - 1))
        original = d.instances[i].features[j]
        if original is None:
            original = data.draw(st.floats(-5.0, 5.0))
        value = data.draw(st.one_of(st.sampled_from([-1e12, 1e12]),
                                    st.floats(allow_nan=False, allow_infinity=False)))

        def with_row_i(cell):
            instances = [Instance(inst.features, inst.time + 1.0, inst.event)
                         for inst in d.instances]
            features = list(instances[i].features)
            features[j] = cell
            instances[i] = Instance(tuple(features), 0.0, False)
            return SurvivalDataset(tuple(instances), d.feature_names)

        base, moved = with_row_i(original), with_row_i(value)
        every = range(len(d.feature_names))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (univariate_cox_pvalue(moved, every).tolist()
                    == univariate_cox_pvalue(base, every).tolist())
            assert univariate_cox_pvalue(moved, j) == univariate_cox_pvalue(base, j)

    def test_score_test_on_a_column_constant_at_risk(self):
        # the column varies only through the row censored before every
        # death, so there is no information at beta = 0
        x = np.array([[0.1], [0.1], [0.1], [-1.0]])
        d = dataset([1.0, 2.0, 3.0, 0.5], [1, 1, 0, 0], x)
        assert self.check(d).tolist() == [1.0]

    def test_one_likelihood_pass_per_trial(self, monkeypatch):
        # each pass takes three risk-set sums, of the terms and their first
        # and second moments; the first pass is at beta = 0, and every trial
        # of the line search is one pass that also gives the derivatives
        counts = {"sums": 0, "trials": 0}
        risk_sums = cox._risk_sums

        def counting_risk_sums(a, first, *args, **kwargs):
            counts["sums"] += kwargs.get("reduce", np.add) is np.add
            return risk_sums(a, first, *args, **kwargs)

        def counting_accepts(new, value):
            counts["trials"] += 1
            return accepts(new, value)

        monkeypatch.setattr(cox, "_risk_sums", counting_risk_sums)
        monkeypatch.setattr(cox, "accepts", counting_accepts)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((40, 3))
        times = rng.exponential(np.exp(-0.8 * x[:, 0]))
        d = dataset(times, rng.random(40) < 0.7, x)
        univariate_cox_pvalue(d, range(3))
        assert counts["trials"] >= 3
        assert counts["sums"] == 3 * (1 + counts["trials"])

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


def reference_block_trials(z, weight, ties, extremes, deaths, buffers):
    """The filter's trial before it reused per-block work: the shift is the
    masked max of beta z over the rows at risk, and every product is a fresh
    temporary.  `cox._block_trials` must give the same bits."""
    death_rows, first = deaths.death_rows, deaths.back
    death_z = np.take(z, death_rows, axis=1).sum(axis=1)

    def risk_sums(a):
        return np.take(np.add.accumulate(a[:, ::-1], axis=1), first, axis=1)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def partial(rows, beta):
        zr, wr, dr = z[rows], weight[rows], ties[rows]
        eta = zr * beta[:, None]
        shift = np.where(wr, eta, -np.inf).max(axis=1)
        ws = np.exp(eta - shift[:, None]) * wr
        s0 = np.where(dr > 0, risk_sums(ws), 1.0)
        loglik = (np.take(eta, death_rows, axis=1).sum(axis=1)
                  - (dr * (np.log(s0) + shift[:, None])).sum(axis=1))
        mean = risk_sums(ws * zr) / s0
        grad = death_z[rows] - (dr * mean).sum(axis=1)
        info = (dr * (risk_sums(ws * zr * zr) / s0 - mean * mean)).sum(axis=1)
        return loglik, grad, info

    return partial


@st.composite
def oracle_cohorts(draw):
    """Cohorts with tied and zero times, missing cells, and columns that
    separate the deaths (+-t, with or without noise), take few values or
    vary freely on very different scales."""
    n = draw(st.integers(2, 60))
    times = np.array(draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)), dtype=float)
    events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["free", "levels", "separates", "near"]),
                              min_size=1, max_size=8)):
        if kind == "free":
            column = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        elif kind == "levels":
            column = rng.integers(0, 3, n).astype(float)
        else:
            noise = 0.0 if kind == "separates" else 0.3 * rng.standard_normal(n)
            column = rng.choice([-1.0, 1.0]) * (times + noise)
        columns.append(column)
    x = np.column_stack(columns)
    missing = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    cells = [tuple(None if gone else float(v) for v, gone in zip(row, miss))
             for row, miss in zip(x, missing)]
    return SurvivalDataset.from_arrays(cells, times, events)


@given(oracle_cohorts(), st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_filter_trials_match_the_reference_bit_for_bit(d, block_cells):
    # both sides fit the same blocks, of as few as one column each
    every = range(len(d.feature_names))
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(cox, "_BLOCK_CELLS", block_cells)
        batched = univariate_cox_pvalue(d, every)
        patch.setattr(cox, "_block_trials", reference_block_trials)
        reference = univariate_cox_pvalue(d, every)
    assert batched.tobytes() == reference.tobytes()
