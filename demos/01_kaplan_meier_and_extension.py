"""Kaplan-Meier curves, the censoring distribution, and the linear tail.

Survival curves routinely stop above zero probability, which leaves the
median and mean undefined.  This walk-through fits a KM curve to a
synthetic cohort, extends it to zero along the line through (0, 1) and its
last knot, and reads off the summary statistics every metric relies on.
"""

import numpy as np

from isdkit import (
    CohortConfig,
    extend_linear,
    fit_censoring_km,
    fit_km,
    km_at,
    mean_survival,
    median_survival,
    simulate_cohort,
    survival_at,
)

cohort = simulate_cohort(
    CohortConfig(family="weibull-ph", n_features=3, beta=(0.8, -0.5, 0.3),
                 baseline_scale=12.0, baseline_shape=1.5, censor_rate=0.05),
    n=600, seed=42,
)
print(f"cohort: {len(cohort)} patients, "
      f"{100 * (1 - cohort.events.mean()):.1f}% censored")

km = fit_km(cohort)
print("\nrisk table (first rows): time, at risk, deaths, censored")
for row in zip(km.times[:5], km.at_risk[:5], km.deaths[:5], km.censored[:5]):
    print("   %8.3f %6d %3d %3d" % row)

last_t, last_p = km.curve.knots[-1], km.curve.probs[0, -1]
print(f"\nKM curve stops at ({last_t:.1f}, {last_p:.3f}) -- above zero, "
      "so we extend it")

# the KM curve is a one-row CurveBatch: one zero time, one median, one mean
ext = extend_linear(km.curve)
t0 = ext.zero_time[0]
print(f"extension reaches zero at t0 = {t0:.2f}")
print(f"population median survival: {median_survival(ext, t0)[0]:.2f}")
print(f"population mean survival:   {mean_survival(ext)[0]:.2f}")

for t in (2.0, 5.0, 10.0, 20.0, t0):
    print(f"  S({t:6.2f}) = {survival_at(ext, t):.3f}")

# the same estimator with flipped event flags gives the censoring
# distribution G used by the weighted Brier score
g_hat = fit_censoring_km(cohort)
print("\ncensoring curve G at the quartiles of observed time:")
for q in (25, 50, 75):
    t = float(np.percentile(cohort.times, q))
    print(f"  G({t:6.2f}) = {km_at(g_hat, t):.3f}")
