import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit.calibration import (
    brier_censored,
    brier_uncensored,
    calibration_table,
    dcal_histogram,
    dcal_test,
    integrated_brier,
    one_calibration_dn,
    one_calibration_hl,
)
from isdkit.curves import CurveBatch, extend_linear, survival_at
from isdkit.km import fit_censoring_km, fit_km_arrays, km_at
from isdkit.pipeline import CohortConfig, simulate_cohort_latent

from conftest import dataset, linear_curve, step_curve


class TestOneCalibrationHL:
    def test_exact_agreement_scores_zero(self):
        # three prediction levels whose observed deaths match expectation
        probs = np.array([0.75] * 4 + [0.5] * 4 + [0.25] * 4)
        times = np.array([1.0] + [20.0] * 3        # 1 of 4 dead at the 0.75 level
                         + [1.0] * 2 + [20.0] * 2  # 2 of 4 at the 0.50 level
                         + [1.0] * 3 + [20.0])     # 3 of 4 at the 0.25 level
        d = dataset(times, np.ones(12))
        result = one_calibration_hl(d, probs, tstar=10.0, b=3)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.dof == 1
        assert result.p_value == 1.0

    def test_two_hundred_patients_make_even_deciles(self, rng):
        probs = rng.uniform(0.01, 0.99, 200)
        d = dataset(rng.uniform(1, 50, 200), np.ones(200))
        table = calibration_table(d, probs, tstar=25.0, b=10)
        np.testing.assert_array_equal(table.n, [20] * 10)

    def test_remainder_spread_over_leading_bins(self, rng):
        probs = rng.uniform(0.01, 0.99, 23)
        d = dataset(rng.uniform(1, 50, 23), np.ones(23))
        table = calibration_table(d, probs, tstar=25.0, b=10)
        np.testing.assert_array_equal(table.n, [3, 3, 3] + [2] * 7)

    def test_censored_rows_rejected(self):
        d = dataset([1, 2, 3, 4], [1, 1, 0, 1])
        with pytest.raises(ValueError, match="D'Agostino-Nam"):
            one_calibration_hl(d, [0.1, 0.4, 0.6, 0.9], 2.0, b=2)

    def test_degenerate_bin_variance_is_an_error(self):
        d = dataset([1, 2, 3, 4], [1, 1, 1, 1])
        with pytest.raises(ValueError, match="variance"):
            one_calibration_hl(d, [1.0, 1.0, 0.4, 0.2], 10.0, b=2)

    def test_constant_predictions_cannot_be_binned(self):
        d = dataset([1, 2, 3, 4], [1, 1, 1, 1])
        with pytest.raises(ValueError, match="partition"):
            one_calibration_hl(d, [0.5, 0.5, 0.5, 0.5], 2.0, b=2)

    def test_a_nan_probability_is_refused(self, rng):
        # its statistic would be NaN, which chi2_sf once turned into p = 0
        probs = rng.uniform(0.01, 0.99, 100)
        probs[37] = np.nan
        d = dataset(rng.uniform(1, 50, 100), np.ones(100))
        with pytest.raises(ValueError, match=r"1 NaN probability .*, the first at index 37"):
            one_calibration_hl(d, probs, tstar=25.0)

    def test_unknown_censoring_mode_rejected(self):
        d = dataset([1, 2, 3, 4], [1, 0, 1, 1])
        with pytest.raises(ValueError, match="unknown censoring mode 'rejct'"):
            calibration_table(d, [0.9, 0.7, 0.4, 0.2], 2.5, b=2, censoring="rejct")


class TestOneCalibrationDN:
    def test_reduces_to_hl_without_censoring(self, rng):
        for _ in range(10):
            n = 40
            probs = rng.uniform(0.05, 0.95, n)
            d = dataset(rng.uniform(1, 30, n), np.ones(n))
            tstar = 12.0
            hl = one_calibration_hl(d, probs, tstar, b=5)
            dn = one_calibration_dn(d, probs, tstar, b=5)
            assert dn.statistic == pytest.approx(hl.statistic, abs=1e-9)
            assert dn.dof == hl.dof + 1

    def test_well_calibrated_simulation_passes(self):
        passes = 0
        for seed in range(20):
            cohort = simulate_cohort_latent(
                CohortConfig(family="weibull-ph", n_features=2, beta=(0.6, -0.4),
                             baseline_scale=10.0, baseline_shape=1.4,
                             censor_rate=0.05),
                400, seed,
            )
            d = cohort.dataset
            tstar = float(np.median(d.times))
            probs = np.array([cohort.true_survival(i, tstar) for i in range(len(d))])
            result = one_calibration_dn(d, probs, tstar, b=10)
            passes += result.p_value >= 0.05
        assert passes >= 18

    def test_a_nan_probability_is_refused(self, rng):
        probs = rng.uniform(0.01, 0.99, 100)
        probs[[5, 60]] = np.nan
        d = dataset(rng.uniform(1, 50, 100), rng.random(100) < 0.7)
        with pytest.raises(ValueError, match=r"2 NaN probability .*, the first at index 5"):
            one_calibration_dn(d, probs, tstar=25.0)

    def test_a_nan_tstar_is_refused(self, rng):
        # the within-bin KM curves read their tails at t* = NaN: a false rejection
        d = dataset(rng.uniform(1, 50, 100), rng.random(100) < 0.7)
        with pytest.raises(ValueError, match=r"t\* must be a time >= 0 \(got nan\)"):
            one_calibration_dn(d, rng.uniform(0.01, 0.99, 100), tstar=np.nan)

    def test_all_censored_bin_names_the_bin(self):
        probs = np.array([0.9, 0.8, 0.2, 0.1])
        d = dataset([1, 2, 30, 40], [0, 0, 1, 1])
        with pytest.raises(ValueError, match="bin 0"):
            one_calibration_dn(d, probs, tstar=10.0, b=2)


def per_bin_km_table(v, probs, tstar, b, censoring):
    """(n, mean predicted, observed) of `calibration_table` as it was before
    its one product-limit pass: a Kaplan-Meier curve fitted and read at t*
    in each bin.  The bitwise oracle; it skips the input checks."""
    members = np.array_split(np.argsort(-probs, kind="stable"), b)
    observed = np.empty(b)
    for j, m in enumerate(members):
        times, events = v.times[m], v.events[m]
        if censoring == "reject":
            observed[j] = np.sum(times <= tstar)
            continue
        if not events.any() and (times < tstar).all():
            raise ValueError(
                f"bin {j} contains only instances censored before t*={tstar}; "
                "its within-bin Kaplan-Meier curve cannot be evaluated there"
            )
        observed[j] = m.size * (1.0 - km_at(fit_km_arrays(times, events), tstar))
    return (np.array([m.size for m in members], dtype=float),
            np.array([np.mean(1.0 - probs[m]) for m in members]), observed)


@st.composite
def calibration_cases(draw):
    """Tied and zero times, deaths exactly at t*, and bins without deaths:
    the rows of highest predicted survival, which fill the first bins, are
    censored in a drawn number, so that whole bins go without a death."""
    n = draw(st.integers(2, 60))
    b = draw(st.integers(2, min(n, 10)))
    censoring = draw(st.sampled_from(["km", "km", "reject"]))
    times = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n)), dtype=float)
    levels = st.sampled_from([0.1, 0.35, 0.6, 0.85]) if draw(st.booleans()) else st.floats(0, 1)
    probs = np.array(draw(st.lists(levels, min_size=n, max_size=n).filter(
        lambda p: len(set(p)) > 1)))
    events = np.ones(n, dtype=bool)
    if censoring == "km":
        events = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        events[np.argsort(-probs, kind="stable")[:draw(st.integers(0, n))]] = False
    tstar = float(draw(st.one_of(st.sampled_from(times.tolist()), st.floats(0.0, 12.0))))
    return dataset(times, events), probs, tstar, b, censoring


@given(calibration_cases())
@settings(max_examples=300, deadline=None)
def test_calibration_table_matches_the_per_bin_fits_bit_for_bit(case):
    v, probs, tstar, b, censoring = case
    try:
        reference = per_bin_km_table(v, probs, tstar, b, censoring)
    except ValueError as refusal:
        with pytest.raises(ValueError) as ours:
            calibration_table(v, probs, tstar, b, censoring)
        assert str(ours.value) == str(refusal)
        return
    table = calibration_table(v, probs, tstar, b, censoring)
    for got, want in zip((table.n, table.mean_predicted, table.observed), reference):
        assert got.tobytes() == want.tobytes()


def test_the_refusal_names_the_first_bin_without_a_death_before_tstar():
    # bins 1 and 2 hold only patients censored before t* = 5; bin 0 has a death
    probs = np.array([0.9, 0.8, 0.6, 0.5, 0.3, 0.2])
    v = dataset([2.0, 3.0, 1.0, 4.0, 0.0, 4.0], [1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError) as refusal:
        per_bin_km_table(v, probs, 5.0, 3, "km")
    with pytest.raises(ValueError) as ours:
        calibration_table(v, probs, 5.0, 3, "km")
    assert str(ours.value) == str(refusal.value)
    assert str(ours.value).startswith("bin 1 contains only instances censored before t*=5.0")


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300), st.data())
@settings(max_examples=300, deadline=None)
def test_multiply_reduceat_is_the_sequential_product_of_cumprod(factors, data):
    # the D'Agostino-Nam bins read each bin's Kaplan-Meier value at t* with
    # np.multiply.reduceat, where a Kaplan-Meier fit takes np.cumprod; the
    # two agree bit for bit only while both multiply left to right
    a = np.array(factors)
    starts = sorted({0, *data.draw(st.lists(st.integers(0, a.size - 1), max_size=12))})
    ends = [*starts[1:], a.size]
    got = np.multiply.reduceat(a, starts)
    for value, start, end in zip(got.tolist(), starts, ends):
        product = 1.0
        for f in factors[start:end]:
            product *= f
        assert value == product == np.cumprod(a[start:end])[-1]


class TestBrier:
    def test_constant_half_scores_quarter(self):
        d = dataset([1, 5, 9, 20], [1, 1, 1, 1])
        assert brier_uncensored(d, [0.5] * 4, tstar=7.0) == 0.25

    def test_uncensored_score_refuses_a_nan_tstar(self):
        d = dataset([1, 5, 9, 20], [1, 1, 1, 1])
        with pytest.raises(ValueError, match=r"t\* must be a time >= 0 \(got nan\)"):
            brier_uncensored(d, [0.5] * 4, tstar=np.nan)

    def test_censored_score_refuses_a_nan_tstar(self):
        # every comparison with NaN is False, so the score once read 0.0
        d = dataset([2.0, 4.0, 9.0], [1, 0, 1])
        with pytest.raises(ValueError, match=r"t\* must be a time >= 0 \(got nan\)"):
            brier_censored(d, [0.4] * 3, tstar=np.nan, g_hat=fit_censoring_km(d))

    def test_perfect_predictions_score_zero(self):
        d = dataset([1, 20], [1, 1])
        assert brier_uncensored(d, [0.0, 1.0], tstar=7.0) == 0.0

    def test_event_orientation_death_scored_against_zero(self):
        d = dataset([3], [1])
        assert brier_uncensored(d, [0.3], tstar=5.0) == pytest.approx(0.09)

    def test_censored_equals_uncensored_without_censoring(self, rng):
        n = 30
        times = rng.uniform(1, 20, n)
        d = dataset(times, np.ones(n))
        curves = [extend_linear(linear_curve([rng.uniform(10, 40)], [0.0]))
                  for _ in range(n)]
        g_hat = fit_censoring_km(d)
        tstar = 8.0
        probs = [survival_at(c, tstar) for c in curves]
        assert brier_censored(d, probs, tstar, g_hat) == pytest.approx(
            brier_uncensored(d, probs, tstar), abs=1e-12
        )

    def test_all_survivors_with_certain_predictions(self):
        d = dataset([30, 40], [1, 1])
        curves = [extend_linear(step_curve([25.0], [1.0]), t0_km=50.0)] * 2
        g_hat = fit_censoring_km(d)
        probs = [survival_at(c, 10.0) for c in curves]
        assert brier_censored(d, probs, tstar=10.0, g_hat=g_hat) == 0.0

    def test_ipcw_weights_applied(self):
        # one death before t*, one censored before t*, one surviving past
        d = dataset([2.0, 4.0, 9.0], [1, 0, 1])
        curves = [extend_linear(step_curve([6.0], [0.4]), t0_km=20.0)] * 3
        g_hat = fit_censoring_km(d)
        tstar = 6.0
        # G(2) = 1 (no censorings yet), G(6) = 1/2 after the censoring at 4
        s = 0.4
        expected = (s**2 / 1.0 + (1 - s) ** 2 / 0.5) / 3
        probs = [survival_at(c, tstar) for c in curves]
        assert brier_censored(d, probs, tstar, g_hat) == pytest.approx(expected)

    def test_zero_g_is_an_error(self):
        # G comes from a training fold whose last observation is censored,
        # so it hits 0 at t=4; a validation survivor past t*=5 then needs
        # the undefined weight 1/G(5)
        train = dataset([2.0, 4.0], [1, 0])
        g_hat = fit_censoring_km(train)
        v = dataset([9.0], [1])
        curves = [extend_linear(step_curve([6.0], [0.4]), t0_km=20.0)]
        with pytest.raises(ValueError, match="G is 0"):
            brier_censored(v, [survival_at(c, 5.0) for c in curves], tstar=5.0, g_hat=g_hat)


class TestIntegratedBrier:
    def test_constant_quarter(self):
        # constant 0.5 predictions and no events inside the window
        d = dataset([100.0, 100.0], [1, 1])
        shared = extend_linear(step_curve([0.0, 99.0], [0.5, 0.5]))
        g_hat = fit_censoring_km(d)
        assert integrated_brier(d, shared, tau=50.0, g_hat=g_hat) == pytest.approx(0.25)

    def test_matches_dense_trapezoid_quadrature(self, rng):
        n = 12
        times = rng.uniform(2, 30, n)
        d = dataset(times, np.ones(n))
        curves = [extend_linear(linear_curve(
            np.sort(rng.uniform(5, 60, 3)), np.sort(rng.uniform(0, 1, 3))[::-1]
        ), t0_km=200.0) for _ in range(n)]
        g_hat = fit_censoring_km(d)  # identically 1
        tau = 25.0
        # curves on different knots: the IBS is the mean of one-patient IBS
        exact = np.mean([integrated_brier(d.subset([i]), c, tau, g_hat)
                         for i, c in enumerate(curves)])

        ts = np.linspace(0, tau, 10_001)
        bs = np.empty_like(ts)
        for k, t in enumerate(ts):
            probs = np.array([survival_at(c, t) for c in curves])
            died = times <= t
            bs[k] = np.mean(np.where(died, probs**2, (1 - probs) ** 2))
        oracle = scipy.integrate.trapezoid(bs, ts) / tau
        assert exact == pytest.approx(oracle, abs=1e-6)

    def test_tau_rule_is_callers_choice(self):
        # the runner passes the combined train+validation maximum; here we
        # only check the scaling behaviour of the horizon argument
        d = dataset([100.0], [1])
        curve = extend_linear(step_curve([0.0, 99.0], [0.5, 0.5]))
        g_hat = fit_censoring_km(d)
        a = integrated_brier(d, curve, tau=10.0, g_hat=g_hat)
        b = integrated_brier(d, curve, tau=40.0, g_hat=g_hat)
        assert a == pytest.approx(b)  # constant integrand: scale free

    def test_truncates_where_g_vanishes(self):
        # the censoring curve dies at t = 4; the integral stops there
        d = dataset([2.0, 4.0], [1, 0])
        shared = extend_linear(step_curve([6.0], [0.4]), t0_km=20.0)
        g_hat = fit_censoring_km(d)
        value = integrated_brier(d, shared, tau=10.0, g_hat=g_hat)
        assert np.isfinite(value)


class TestDCalHistogram:
    def test_worked_blur_example(self):
        h = dcal_histogram([0.25], [False], 10)
        assert h.counts[2] == pytest.approx(0.2, abs=1e-12)   # [0.2, 0.3)
        assert h.counts[1] == pytest.approx(0.4, abs=1e-12)   # [0.1, 0.2)
        assert h.counts[0] == pytest.approx(0.4, abs=1e-12)   # [0.0, 0.1)
        assert h.counts[3:].sum() == 0.0

    def test_censored_at_time_zero_spreads_evenly(self):
        h = dcal_histogram([1.0], [False], 10)
        np.testing.assert_allclose(h.counts, [0.1] * 10, atol=1e-12)

    def test_late_censoring_is_not_blurred(self):
        h = dcal_histogram([0.07], [False], 10)
        assert h.counts[0] == 1.0
        assert h.counts[1:].sum() == 0.0

    def test_zero_probability_limit_case(self):
        h = dcal_histogram([0.0], [False], 10)
        assert h.counts[0] == 1.0

    def test_blur_weights_sum_to_one(self, rng):
        for _ in range(10_000):
            s = rng.uniform(0, 1)
            b = int(rng.integers(2, 21))
            h = dcal_histogram([s], [False], b)
            assert h.counts.sum() == pytest.approx(1.0, abs=1e-12)

    def test_total_mass_is_the_cohort_size(self, rng):
        n = 300
        probs = rng.uniform(0, 1, n)
        events = rng.random(n) < 0.5
        h = dcal_histogram(probs, events, 10)
        assert h.counts.sum() == pytest.approx(n, abs=1e-9)

    def test_uncensored_placement_uses_the_curve_at_death(self):
        curve = extend_linear(linear_curve([10.0], [0.0]))
        d = dataset([2.5], [1])
        h = dcal_histogram(survival_at(curve, d.times), d.events, 10)
        assert h.counts[7] == 1.0  # S(2.5) = 0.75 lands in [0.7, 0.8)

    def test_top_bin_is_closed(self):
        h = dcal_histogram([1.0], [True], 10)
        assert h.counts[9] == 1.0


class TestDCalTest:
    def test_uniform_counts_score_zero(self):
        h = dcal_histogram(np.linspace(0.05, 0.95, 10), [True] * 10, 10)
        result = dcal_test(h)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.dof == 9

    def test_a_nan_probability_is_refused(self):
        # its counts would be NaN, which dcal_test once read as p = 0
        with pytest.raises(ValueError, match=r"1 NaN probability .*, the first at index 1"):
            dcal_histogram([0.5, np.nan, 0.3, 0.9], [1, 0, 1, 0], 2)

    def test_all_mass_in_one_bin_hand_value(self):
        h = dcal_histogram([0.55] * 100, [True] * 100, 10)
        result = dcal_test(h)
        # (100 - 10)^2 / 10 + 9 * (0 - 10)^2 / 10 = 900
        assert result.statistic == pytest.approx(900.0, abs=1e-9)

    def test_true_model_is_uniform(self):
        # probability integral transform: evaluating the true curve at the
        # true death time is uniform, so the test should pass
        passes = 0
        for seed in range(20):
            cohort = simulate_cohort_latent(
                CohortConfig(family="individual-weibull", n_features=3,
                             beta=(0.5, -0.3, 0.2), shape_beta=(0.2, 0.1, 0.0),
                             baseline_scale=8.0, baseline_shape=1.3),
                2000, seed,
            )
            probs = np.array([
                cohort.true_survival(i, cohort.latent_death[i])
                for i in range(2000)
            ])
            h = dcal_histogram(probs, np.ones(2000, bool), 10)
            passes += dcal_test(h).p_value >= 0.05
        assert passes >= 18


def contrast_fixture(side):
    """The two eight-patient constructions contrasting single-time and
    distributional calibration (probabilities read at T1 = 10)."""
    green = extend_linear(linear_curve([10.0, 40.0], [0.75, 0.0]))
    red = extend_linear(linear_curve([10.0, 40.0 / 3.0], [0.25, 0.0]))
    if side == "one-cal-only":
        deaths = [4.0, 24.0, 28.0, 32.0, 7.0, 8.0, 9.0, 12.0]
    else:  # d-cal-only
        deaths = [4.0, 8.0, 16.0, 36.0, 4.0, 9.0, 11.0, 12.0]
    curves = [green] * 4 + [red] * 4
    d = dataset(deaths, np.ones(8))
    return d, curves


class TestCalibrationContrastFixtures:
    def test_one_calibrated_but_not_d_calibrated(self):
        d, curves = contrast_fixture("one-cal-only")
        probs = np.array([survival_at(c, 10.0) for c in curves])
        table = calibration_table(d, probs, tstar=10.0, b=2)
        # 3 of 4 green and 1 of 4 red alive at T1: exactly as predicted
        np.testing.assert_array_equal(table.n - table.observed, [3, 1])
        dn = one_calibration_dn(d, probs, tstar=10.0, b=2)
        assert dn.statistic == pytest.approx(0.0, abs=1e-12)
        assert dn.p_value == pytest.approx(1.0)
        # but the 2-bin death placements are 1 high vs 7 low, not 4/4
        h = dcal_histogram([survival_at(c, t) for c, t in zip(curves, d.times)], d.events, b=2)
        np.testing.assert_allclose(h.counts, [7.0, 1.0], atol=1e-12)
        assert dcal_test(h).p_value < 0.05

    def test_d_calibrated_but_not_one_calibrated(self):
        d, curves = contrast_fixture("d-cal-only")
        h = dcal_histogram([survival_at(c, t) for c, t in zip(curves, d.times)], d.events, b=2)
        np.testing.assert_allclose(h.counts, [4.0, 4.0], atol=1e-12)
        assert dcal_test(h).statistic == 0.0
        probs = np.array([survival_at(c, 10.0) for c in curves])
        table = calibration_table(d, probs, tstar=10.0, b=2)
        # 2 vs 2 alive where calibration demands 3 vs 1
        np.testing.assert_array_equal(table.n - table.observed, [2, 2])
        dn = one_calibration_dn(d, probs, tstar=10.0, b=2)
        assert dn.statistic > 0


class TestIpcwUnbiasedness:
    def test_censored_brier_tracks_latent_truth(self):
        cohort = simulate_cohort_latent(
            CohortConfig(family="weibull-ph", n_features=3, beta=(0.5, -0.4, 0.3),
                         baseline_scale=10.0, baseline_shape=1.5,
                         censor_rate=0.05),
            5000, seed=7,
        )
        d = cohort.dataset
        tstar = float(np.median(cohort.latent_death))
        grid_tail = np.linspace(tstar, 8 * 10.0, 60)[1:]
        curves = []
        for i in range(len(d)):
            ts = np.concatenate(([tstar / 2, tstar], grid_tail))
            curves.append(extend_linear(
                CurveBatch(ts, np.minimum.accumulate(cohort.true_survival(i, ts)),
                           "linear"),
                t0_km=500.0,
            ))
        g_hat = fit_censoring_km(d)

        censored_version = brier_censored(d, [survival_at(c, tstar) for c in curves], tstar, g_hat)

        latent = dataset(cohort.latent_death, np.ones(len(d)))
        probs = [cohort.true_survival(i, tstar) for i in range(len(d))]
        uncensored_version = brier_uncensored(latent, probs, tstar)
        assert abs(censored_version - uncensored_version) < 0.01
