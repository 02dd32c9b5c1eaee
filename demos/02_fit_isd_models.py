"""Fitting the three individual-survival-distribution models.

Cox-KP and AFT[Weibull] share the proportional-hazards shape, so any two
of their predicted curves never cross; MTLR learns one weight vector per
grid time and its curves can cross.  This script fits all three to the
same synthetic cohort and compares predictions for a low-risk and a
high-risk patient.
"""

import numpy as np

from isdkit import (
    CohortConfig,
    extend_linear,
    fit_aft_weibull,
    fit_cox,
    fit_km,
    fit_mtlr,
    make_grid,
    median_survival,
    predict_curve_aft,
    predict_curve_cox,
    predict_curve_mtlr,
    simulate_cohort,
    survival_at,
)
from isdkit.mtlr import default_grid_size

cohort = simulate_cohort(
    CohortConfig(family="weibull-ph", n_features=2, beta=(0.9, -0.6),
                 baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.04),
    n=500, seed=7,
)
t0_km = extend_linear(fit_km(cohort).curve).zero_time
grid = make_grid(cohort, default_grid_size(len(cohort)))

cox = fit_cox(cohort)
print(f"cox-kp coefficients: {np.round(cox.beta, 3)} "
      f"({cox.iterations} Newton iterations)")

aft = fit_aft_weibull(cohort)
print(f"aft-weibull shape: {aft.shape:.3f}, baseline scale: "
      f"{aft.scale(np.zeros(2)):.2f}, coefficients: {np.round(aft.coeffs, 3)}")

mtlr = fit_mtlr(cohort, grid, c_candidates=(0.1, 1.0, 10.0))
print(f"mtlr: {mtlr.theta.shape[0]} grid times x {mtlr.theta.shape[1]} weights, "
      f"internal CV chose C = {mtlr.reg_c}")

low_risk = np.array([-1.5, 1.0])   # negative linear predictor: lives long
high_risk = np.array([1.5, -1.0])

# a feature vector gives a one-row CurveBatch; row(0) is that patient's curve
predictors = {
    "cox-kp": lambda x: extend_linear(predict_curve_cox(cox, x).row(0), t0_km),
    "aft-weibull": lambda x: extend_linear(predict_curve_aft(aft, x, grid).row(0), t0_km),
    "mtlr": lambda x: extend_linear(predict_curve_mtlr(mtlr, x).row(0), t0_km),
}

print("\npredicted median survival (capped at the training-KM zero time):")
print(f"{'model':>12} {'low-risk':>10} {'high-risk':>10}")
for name, make in predictors.items():
    meds = [median_survival(make(x), t0_km) for x in (low_risk, high_risk)]
    print(f"{name:>12} {meds[0]:10.2f} {meds[1]:10.2f}")

print("\nsurvival probabilities at t = 5 and t = 15:")
for name, make in predictors.items():
    lo, hi = make(low_risk), make(high_risk)
    print(f"{name:>12}  low: S(5)={survival_at(lo, 5.0):.3f} "
          f"S(15)={survival_at(lo, 15.0):.3f}   "
          f"high: S(5)={survival_at(hi, 5.0):.3f} "
          f"S(15)={survival_at(hi, 15.0):.3f}")
