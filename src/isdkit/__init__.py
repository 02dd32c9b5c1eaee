"""isdkit: individual survival distribution models and the censoring-aware
metrics that evaluate them (concordance, L1 variants, 1-calibration,
Brier/integrated Brier, D-calibration)."""

from .aft import AftWeibullModel, fit_aft_weibull, predict_curve_aft
from .calibration import (
    CalibrationBins,
    DCalHistogram,
    TestResult,
    brier_censored,
    brier_uncensored,
    calibration_table,
    chi2_sf,
    dcal_histogram,
    dcal_test,
    integrated_brier,
    one_calibration_dn,
    one_calibration_hl,
)
from .core import (
    ConvergenceError,
    FitError,
    Instance,
    SurvivalDataset,
    SurvivalModel,
    fold_indices,
    load_csv,
    save_csv,
    split_by_censoring,
)
from .cox import CoxModel, fit_cox, predict_curve_cox, univariate_cox_pvalue
from .curves import (
    CurveBatch,
    extend_linear,
    integrate_curve,
    mean_survival,
    median_survival,
    survival_at,
)
from .discrimination import (
    MarginWeights,
    best_guess,
    concordance,
    count_comparable_pairs,
    default_eta,
    l1_hinge,
    l1_log,
    l1_margin,
    l1_uncensored,
    margin_weights,
)
from .km import KaplanMeierModel, KMCurve, fit_censoring_km, fit_km, km_at
from .mtlr import (
    MtlrModel,
    TimeGrid,
    fit_mtlr,
    make_grid,
    mtlr_loglik_grad,
    predict_curve_mtlr,
)
from .pipeline import (
    CohortConfig,
    ExperimentConfig,
    MetricReport,
    PreprocessReport,
    SimulatedCohort,
    preprocess,
    run_experiment,
    simulate_cohort,
    simulate_cohort_latent,
)

__version__ = "0.1.0"
