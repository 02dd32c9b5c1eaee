"""Single-time and distributional calibration.

A model can match observed death fractions at one time point yet produce
probabilities that are meaningless as a distribution, and vice versa.
The D-calibration histogram places each death at its predicted survival
probability (blurring censored patients by conditional mass) and should
come out uniform; the single-time tests compare observed deaths against
mean predicted event probability inside prediction-sorted bins.
"""

import numpy as np

from isdkit import (
    CohortConfig,
    brier_censored,
    brier_uncensored,
    dcal_histogram,
    dcal_test,
    extend_linear,
    fit_censoring_km,
    fit_cox,
    fit_km,
    integrated_brier,
    one_calibration_dn,
    simulate_cohort,
    simulate_cohort_latent,
    survival_at,
)
from isdkit.calibration import dcal_histogram_from_probs

# --- the probability integral transform in action -------------------------
cohort = simulate_cohort_latent(
    CohortConfig(family="individual-weibull", n_features=2, beta=(0.6, -0.4),
                 shape_beta=(0.3, 0.0), baseline_scale=8.0, baseline_shape=1.3),
    n=2000, seed=1,
)
true_probs = np.array([
    cohort.true_survival(i, cohort.latent_death[i]) for i in range(2000)
])
h = dcal_histogram_from_probs(true_probs, np.ones(2000, bool), 10)
result = dcal_test(h)
print("true generating model, probabilities at the true death times:")
print(f"  bin counts {np.round(h.counts).astype(int)}")
print(f"  chi-square {result.statistic:.2f} on {result.dof} dof -> "
      f"p = {result.p_value:.3f} (uniform, as it should be)")

# --- a fitted model on held-out data ---------------------------------------
data = simulate_cohort(
    CohortConfig(family="weibull-ph", n_features=3, beta=(0.8, -0.6, 0.4),
                 baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.05),
    n=600, seed=5,
)
train, validation = data.subset(np.arange(400)), data.subset(np.arange(400, 600))
t0_km = extend_linear(fit_km(train).curve).zero_time
g_hat = fit_censoring_km(train)

cox = fit_cox(train)
curves = extend_linear(cox.predict_curves(validation), t0_km)  # one extended batch

hist = dcal_histogram(validation, curves, 10)
print("\ncox-kp on held-out data:")
print(f"  D-cal counts {np.round(hist.counts, 1)}")
print(f"  D-cal p = {dcal_test(hist).p_value:.3f}")

tstar = float(np.percentile(data.times, 50))
probs = survival_at(curves, tstar)  # one value per patient
dn = one_calibration_dn(validation, probs, tstar, b=10)
print(f"  1-calibration at the median time ({tstar:.1f}): "
      f"statistic {dn.statistic:.2f}, p = {dn.p_value:.3f}")

# --- Brier scores -----------------------------------------------------------
print(f"\n  weighted Brier at t* = {tstar:.1f}: "
      f"{brier_censored(validation, curves, tstar, g_hat):.4f}")
tau = float(data.times.max())
print(f"  integrated Brier over [0, {tau:.1f}]: "
      f"{integrated_brier(validation, curves, tau, g_hat):.4f}")
constant_half = brier_uncensored(
    validation.subset(validation.events),
    np.full(int(validation.events.sum()), 0.5), tstar,
)
print(f"  (a constant 0.5 predictor scores {constant_half:.4f} by construction)")
