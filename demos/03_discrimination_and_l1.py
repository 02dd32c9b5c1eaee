"""Concordance and the L1-loss family under censoring.

Concordance only scores pairs whose death order is identifiable, and the
constant KM predictor lands at exactly 0.5.  For L1, censored targets are
either ignored (uncensored variant), hinged (optimistic), or replaced by
the Best-Guess conditional expectation weighted by 1 - S_KM(c); the log
variant scores relative rather than absolute error.
"""

import numpy as np

from isdkit import (
    CohortConfig,
    KaplanMeierModel,
    best_guess,
    concordance,
    default_eta,
    extend_linear,
    fit_cox,
    fit_km,
    l1_hinge,
    l1_log,
    l1_margin,
    l1_uncensored,
    margin_weights,
    median_survival,
    simulate_cohort,
    split_by_censoring,
)
from isdkit.discrimination import count_comparable_pairs

cohort = simulate_cohort(
    CohortConfig(family="weibull-ph", n_features=3, beta=(0.8, -0.6, 0.0),
                 baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.05),
    n=400, seed=3,
)
train, validation = cohort.subset(np.arange(0, 300)), cohort.subset(np.arange(300, 400))

km = fit_km(train)
train_km_ext = extend_linear(km.curve)
t0_km = train_km_ext.zero_time[0]

n_pairs = count_comparable_pairs(validation)
print(f"validation: {len(validation)} patients, {n_pairs} comparable pairs "
      f"out of {len(validation) * (len(validation) - 1) // 2} total")


def predicted_medians(model):
    """Predict and extend the validation curves as one batch, then take one
    capped median per patient (a shared KM row is broadcast to everyone)."""
    curves = extend_linear(model.predict_curves(validation), t0_km)
    return np.broadcast_to(median_survival(curves, t0_km), (len(validation),))


cox = fit_cox(train)
cox_medians = predicted_medians(cox)
km_medians = predicted_medians(KaplanMeierModel(km))

# the risk score is the negative median: an earlier median means higher risk
print(f"\nconcordance: cox-kp = {concordance(validation, -cox_medians):.3f}, "
      f"km = {concordance(validation, -km_medians):.3f} (constant risk: all ties)")

# Best-Guess targets grow with the censor time but never fall below it
print("\nBest-Guess death times from the training KM:")
for c in (0.0, 2.0, 6.0, 12.0):
    print(f"  censored at {c:5.1f} -> BG = {best_guess(c, train_km_ext):6.2f}")

v_u, _ = split_by_censoring(validation)
eta = default_eta(train.times)
weights = margin_weights(validation.times[~validation.events], train_km_ext)
print("\nL1 family for cox-kp predictions:")
print(f"  uncensored only: {l1_uncensored(v_u, cox_medians[validation.events]):7.2f}")
print(f"  hinge:           {l1_hinge(validation, cox_medians):7.2f}")
print(f"  margin:          {l1_margin(validation, cox_medians, weights):7.2f}")
print(f"  log (margin):    "
      f"{l1_log(validation, cox_medians, 'margin', eta, weights):7.3f}")
