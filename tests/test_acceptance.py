"""Acceptance suite: every release criterion at its stated tolerance,
one printed pass/fail line per criterion (run with `pytest -v -s`)."""

import numpy as np
import pytest

from isdkit.aft import aft_loglik
from isdkit.calibration import (
    brier_censored,
    brier_uncensored,
    calibration_table,
    dcal_histogram,
    dcal_histogram_from_probs,
    dcal_test,
    one_calibration_dn,
)
from isdkit.core import SurvivalCurve, SurvivalDataset
from isdkit.cox import cox_partial_loglik, fit_cox
from isdkit.curves import extend_linear, mean_survival, survival_at
from isdkit.discrimination import best_guess, concordance
from isdkit.km import fit_censoring_km, fit_km, km_at
from isdkit.mtlr import TimeGrid, mtlr_loglik_grad
from isdkit.pipeline import (
    CohortConfig,
    ExperimentConfig,
    run_experiment,
    simulate_cohort,
    simulate_cohort_latent,
)
from isdkit.stats import chi2_sf

from conftest import dataset, linear_curve, random_curve

def ok(n, message):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


def brute_force_concordance(times, events, risks):
    pairs, score = 0, 0.0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if times[i] < times[j] and events[i]:
                pairs += 1
                score += 1.0 if risks[i] > risks[j] else (0.5 if risks[i] == risks[j] else 0.0)
            elif j > i and times[i] == times[j] and events[i] and events[j]:
                pairs += 1
                score += 0.5
    return None if pairs == 0 else score / pairs


def test_criterion_01_concordance_micro_example():
    d = dataset([1, 3, 4, 6, 9], [1, 1, 1, 1, 1])
    assert concordance(d, [6, 3, 5, 2, 4]) == 0.7

    rng = np.random.default_rng(1)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 9))
        times = rng.integers(1, 6, size=n).astype(float)
        events = rng.random(n) < 0.7
        risks = rng.integers(-3, 4, size=n).astype(float)
        oracle = brute_force_concordance(times, events, risks)
        if oracle is None:
            continue
        value = concordance(dataset(times, events), risks)
        assert abs(value - oracle) < 1e-12
        checked += 1
    ok(1, "five-patient example scores 0.7; brute force agrees on 100 random sets")


def test_criterion_02_constant_risk_ties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        times = rng.uniform(0.5, 30, n)
        events = rng.random(n) < 0.7
        if not events.any():
            events[0] = True
        d = dataset(times, events)
        value = concordance(d, np.full(n, rng.normal()))
        assert value == 0.5
    ok(2, "every constant-risk predictor scores concordance 0.500 exactly")


def test_criterion_03_dcal_blur():
    h = dcal_histogram_from_probs([0.25], [False], 10)
    np.testing.assert_allclose(h.counts[:3], [0.4, 0.4, 0.2], atol=1e-15)
    assert h.counts[3:].sum() == 0.0

    h = dcal_histogram_from_probs([1.0], [False], 10)
    np.testing.assert_allclose(h.counts, [0.1] * 10, atol=1e-15)

    rng = np.random.default_rng(3)
    for _ in range(10_000):
        s = float(rng.uniform(0, 1))
        b = int(rng.integers(2, 25))
        h = dcal_histogram_from_probs([s], [False], b)
        assert abs(h.counts.sum() - 1.0) < 1e-12
    ok(3, "blur example 0.2/0.4/0.4; censored-at-0 spreads 0.1; weights sum to 1")


def test_criterion_04_true_model_uniformity():
    passes = 0
    for seed in range(20):
        cohort = simulate_cohort_latent(
            CohortConfig(family="individual-weibull", n_features=3,
                         beta=(0.5, -0.3, 0.2), shape_beta=(0.2, 0.1, 0.0),
                         baseline_scale=8.0, baseline_shape=1.3),
            2000, seed,
        )
        probs = np.array([cohort.true_survival(i, cohort.latent_death[i])
                          for i in range(2000)])
        h = dcal_histogram_from_probs(probs, np.ones(2000, bool), 10)
        passes += dcal_test(h).p_value >= 0.05
    assert passes >= 18
    ok(4, f"true-model D-calibration passed in {passes}/20 seeds at n=2000")


def test_criterion_05_km_dcalibration_on_holdout():
    # the claim is asymptotic in the training fit, so train on a large
    # sample and score the held-out n=1000 cohort
    config = CohortConfig(family="weibull-ph", n_features=1, baseline_scale=10.0,
                          baseline_shape=1.4, censor_rate=0.05)
    passes, pvalues = 0, []
    for seed in range(20):
        train = simulate_cohort(config, 8000, seed=100 + seed)
        holdout = simulate_cohort(config, 1000, seed=200 + seed)
        km_ext = extend_linear(fit_km(train).curve)
        h = dcal_histogram(holdout, [km_ext] * len(holdout), 10)
        p = dcal_test(h).p_value
        pvalues.append(p)
        passes += p >= 0.05
    assert passes >= 18
    assert np.median(pvalues) > 0.5
    ok(5, f"held-out KM D-calibration passed in {passes}/20 seeds, "
          f"median p = {np.median(pvalues):.3f}")


def test_criterion_06_calibration_contrast_fixtures():
    green = extend_linear(linear_curve([10.0, 40.0], [0.75, 0.0]))
    red = extend_linear(linear_curve([10.0, 40.0 / 3.0], [0.25, 0.0]))
    curves = [green] * 4 + [red] * 4

    # 1-calibrated at T1 = 10 but not D-calibrated
    d = dataset([4.0, 24.0, 28.0, 32.0, 7.0, 8.0, 9.0, 12.0], np.ones(8))
    probs = np.array([survival_at(c, 10.0) for c in curves])
    table = calibration_table(d, probs, tstar=10.0, b=2)
    np.testing.assert_array_equal(table.n - table.observed, [3, 1])  # alive counts
    assert one_calibration_dn(d, probs, 10.0, b=2).statistic == pytest.approx(0.0, abs=1e-12)
    h = dcal_histogram(d, curves, b=2)
    np.testing.assert_allclose(h.counts, [7.0, 1.0], atol=1e-12)

    # D-calibrated but not 1-calibrated at T1
    d = dataset([4.0, 8.0, 16.0, 36.0, 4.0, 9.0, 11.0, 12.0], np.ones(8))
    probs = np.array([survival_at(c, 10.0) for c in curves])
    h = dcal_histogram(d, curves, b=2)
    np.testing.assert_allclose(h.counts, [4.0, 4.0], atol=1e-12)
    table = calibration_table(d, probs, tstar=10.0, b=2)
    np.testing.assert_array_equal(table.n - table.observed, [2, 2])
    assert one_calibration_dn(d, probs, 10.0, b=2).statistic > 0
    ok(6, "both constructions reproduce their 1-cal/D-cal contrasts exactly")


def test_criterion_07_brier_anchors():
    d = dataset([1, 5, 9, 20], [1, 1, 1, 1])
    assert brier_uncensored(d, [0.5] * 4, tstar=7.0) == 0.25
    assert brier_uncensored(dataset([1, 20], [1, 1]), [0.0, 1.0], tstar=7.0) == 0.0

    rng = np.random.default_rng(7)
    n = 40
    v = dataset(rng.uniform(1, 20, n), np.ones(n))
    curves = [extend_linear(random_curve(rng), t0_km=300.0) for _ in range(n)]
    tstar = 8.0
    probs = [survival_at(c, tstar) for c in curves]
    gap = abs(brier_censored(v, curves, tstar, fit_censoring_km(v))
              - brier_uncensored(v, probs, tstar))
    assert gap < 1e-12

    cohort = simulate_cohort_latent(
        CohortConfig(family="weibull-ph", n_features=3, beta=(0.5, -0.4, 0.3),
                     baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.05),
        5000, seed=7,
    )
    d = cohort.dataset
    tstar = float(np.median(cohort.latent_death))
    tail = np.linspace(tstar, 80.0, 60)[1:]
    curves = []
    for i in range(len(d)):
        ts = np.concatenate(([tstar / 2, tstar], tail))
        curves.append(extend_linear(
            SurvivalCurve(ts, np.minimum.accumulate(cohort.true_survival(i, ts)),
                          "linear"),
            t0_km=500.0,
        ))
    ipcw = brier_censored(d, curves, tstar, fit_censoring_km(d))
    latent = dataset(cohort.latent_death, np.ones(len(d)))
    latent_probs = [cohort.true_survival(i, tstar) for i in range(len(d))]
    truth = brier_uncensored(latent, latent_probs, tstar)
    assert abs(ipcw - truth) < 0.01
    ok(7, f"0.25/0 anchors hold; IPCW matches latent truth within {abs(ipcw - truth):.4f}")


def test_criterion_08_chi_square_kernel():
    assert chi2_sf(5.99, 9) == pytest.approx(0.741, abs=0.005)
    assert chi2_sf(2 * np.log(2), 2) == pytest.approx(0.5, abs=1e-9)
    ok(8, f"chi2_sf(5.99, 9) = {chi2_sf(5.99, 9):.4f}; df-2 closed form exact")


def test_criterion_09_best_guess():
    km = extend_linear(linear_curve([10.0], [0.0]))
    assert best_guess(0.0, km) == mean_survival(km)
    assert best_guess(5.0, km) == pytest.approx(7.5, abs=1e-9)

    rng = np.random.default_rng(9)
    for _ in range(10_000):
        km = extend_linear(random_curve(rng), t0_km=300.0)
        c = float(rng.uniform(0, 1.2 * km.zero_time))
        assert best_guess(c, km) >= c - 1e-12
    ok(9, "BG(0) is the mean, linear case gives 7.5, BG(c) >= c on 10^4 draws")


def test_criterion_10_gradient_checks():
    rng = np.random.default_rng(10)

    def relative_gap(analytic, numeric):
        return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))

    # Cox partial likelihood
    x = rng.standard_normal((40, 3))
    times = rng.uniform(0.5, 20, 40)
    events = rng.random(40) < 0.7
    for _ in range(20):
        beta = rng.standard_normal(3) * 0.6
        _, grad, _ = cox_partial_loglik(beta, x, times, events, with_derivatives=True)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (cox_partial_loglik(beta + e, x, times, events)
                  - cox_partial_loglik(beta - e, x, times, events)) / (2 * h)
            assert relative_gap(grad[j], fd) < 1e-5

    # Weibull AFT likelihood
    for _ in range(20):
        params = np.concatenate((rng.standard_normal(4) * 0.5, [0.3]))
        _, grad, _ = aft_loglik(params, x, times, events, with_derivatives=True)
        h = 1e-6
        for j in range(params.size):
            e = np.zeros(params.size)
            e[j] = h
            fd = (aft_loglik(params + e, x, times, events)
                  - aft_loglik(params - e, x, times, events)) / (2 * h)
            assert relative_gap(grad[j], fd) < 1e-5

    # MTLR objective
    grid = TimeGrid(np.array([1.0, 3.0, 5.0, 7.0]))
    d = dataset(rng.uniform(0.2, 9, 12), rng.random(12) < 0.6,
                x=rng.standard_normal((12, 3)))
    for _ in range(20):
        theta = rng.standard_normal((4, 4)) * 0.4
        _, grad = mtlr_loglik_grad(theta, d, grid, 0.7)
        h = 1e-6
        for idx in np.ndindex(theta.shape):
            bump = np.zeros_like(theta)
            bump[idx] = h
            up, _ = mtlr_loglik_grad(theta + bump, d, grid, 0.7)
            dn, _ = mtlr_loglik_grad(theta - bump, d, grid, 0.7)
            assert relative_gap(grad[idx], (up - dn) / (2 * h)) < 1e-5
    ok(10, "Cox, AFT, and MTLR gradients match central differences at 20 points each")


def test_criterion_11_cox_kp_reduction():
    rng = np.random.default_rng(11)
    times = np.round(rng.uniform(0.5, 15, 80), 0) + 0.5  # forces tied deaths
    events = rng.random(80) < 0.7
    d = SurvivalDataset.from_arrays(np.zeros((80, 0)), times, events,
                                    feature_names=())
    model = fit_cox(d)  # no features: beta is empty, i.e. all zero
    km = fit_km(d)
    worst = max(abs(survival_at(model.baseline, t) - km_at(km, t))
                for t in km.curve.times)
    assert worst < 1e-9
    ok(11, f"zero-coefficient KP baseline equals KM within {worst:.2e}")


@pytest.fixture(scope="module")
def end_to_end_sweep():
    beta = (0.7, -0.7, 0.5, -0.5, 0.3)
    config = CohortConfig(family="weibull-ph", n_features=25, beta=beta,
                          baseline_scale=10.0, baseline_shape=1.5,
                          censor_rate=0.055)
    metrics = ("concordance", "ibs", "d-calibration")
    rows = []
    for seed in range(10):
        d = simulate_cohort(config, 1000, seed=seed)
        row = {"censoring": 1 - d.events.mean()}
        for model in ("km", "cox-kp", "mtlr"):
            report = run_experiment(
                d, ExperimentConfig(model=model, metrics=metrics,
                                    mtlr_c_grid=(1.0,))
            )
            row[model] = report
        rows.append(row)
    return rows


def test_criterion_12_end_to_end_sanity(end_to_end_sweep):
    rows = end_to_end_sweep
    for row in rows:
        assert 0.25 <= row["censoring"] <= 0.55

    mtlr_conc = [r["mtlr"].means["concordance"] for r in rows]
    cox_conc = [r["cox-kp"].means["concordance"] for r in rows]
    assert np.median(mtlr_conc) >= 0.65
    assert np.median(cox_conc) >= 0.65

    dcal_passes = sum(r["mtlr"].dcal.p_value >= 0.05 for r in rows)
    assert dcal_passes >= 8

    ibs_wins = sum(r["km"].means["ibs"] > r["mtlr"].means["ibs"] for r in rows)
    assert ibs_wins >= 8
    ok(12, f"median concordance mtlr={np.median(mtlr_conc):.3f} "
           f"cox={np.median(cox_conc):.3f}; mtlr D-cal {dcal_passes}/10; "
           f"KM IBS worse in {ibs_wins}/10 seeds")


def test_criterion_13_no_label_leakage():
    from isdkit.core import Instance
    from isdkit.pipeline import make_folds, preprocess

    rng = np.random.default_rng(13)
    n = 120
    site = rng.choice(["a", "b", "c"], size=n)
    strong = rng.standard_normal(n)
    death = 8 * np.exp(-0.8 * strong) * rng.weibull(1.3, n)
    censor = rng.exponential(20, n)
    instances = tuple(
        Instance((float(strong[i]), str(site[i])), min(death[i], censor[i]),
                 death[i] <= censor[i])
        for i in range(n)
    )
    d = SurvivalDataset(instances, ("strong", "site"))
    folds = make_folds(d, 3)
    train, val = folds.split(d, 0)

    train_a, val_a, report_a = preprocess(train, val)
    beta_a = fit_cox(train_a).beta

    perturbed = SurvivalDataset(
        tuple(Instance(i.features, i.time * 2 + 3, not i.event) for i in val.instances),
        val.feature_names,
    )
    train_b, val_b, report_b = preprocess(train, perturbed)
    beta_b = fit_cox(train_b).beta

    assert report_a == report_b
    np.testing.assert_array_equal(train_a.feature_matrix(), train_b.feature_matrix())
    np.testing.assert_array_equal(val_a.feature_matrix(), val_b.feature_matrix())
    np.testing.assert_array_equal(beta_a, beta_b)
    ok(13, "perturbing validation labels changes nothing, bitwise")
