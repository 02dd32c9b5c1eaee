"""Experimental protocol: preprocessing, stratified folds, per-fold
fitting and scoring, fold-pooled calibration tests, and a synthetic
cohort generator for property validation.

Preprocessing order is fixed: drop features missing over 25% of their
values or carrying a single value, one-hot encode nominal features, keep
features passing a univariate Cox filter at p <= 0.10, mean-impute, then
standardize.  Every statistic is estimated on the training fold only and
applied unchanged to the validation fold.  Discrimination metrics are
averaged over folds; calibration tests pool the predicted curves from all
folds into a single test, never averaging p-values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import calibration as cal
from .aft import fit_aft_weibull
from .core import FitError, SurvivalDataset, fold_indices
from .cox import fit_cox, univariate_cox_pvalue
from .curves import CurveBatch, extend_linear, median_survival, survival_at
from .discrimination import (
    concordance,
    default_eta,
    l1_hinge,
    l1_log,
    l1_margin,
    l1_uncensored,
    margin_weights,
)
from .km import KaplanMeierModel, fit_censoring_km, fit_km
from .mtlr import default_grid_size, fit_mtlr, make_grid

__all__ = [
    "PreprocessReport",
    "ExperimentConfig",
    "MetricReport",
    "OneCalEntry",
    "CohortConfig",
    "SimulatedCohort",
    "preprocess",
    "fold_indices",
    "run_experiment",
    "simulate_cohort",
    "simulate_cohort_latent",
    "MODEL_NAMES",
    "ALL_METRICS",
]

MODEL_NAMES = ("km", "cox-kp", "aft-weibull", "mtlr")
ALL_METRICS = (
    "concordance",
    "ibs",
    "l1-uncensored",
    "l1-hinge",
    "l1-margin",
    "l1-log-uncensored",
    "l1-log-margin",
    "one-calibration",
    "d-calibration",
)
_FOLD_METRICS = ("concordance", "ibs", "l1-uncensored", "l1-hinge", "l1-margin",
                 "l1-log-uncensored", "l1-log-margin")


# ---------------------------------------------------------------------------
# preprocessing

@dataclass(frozen=True)
class PreprocessReport:
    dropped_missing: tuple            # >25% missing or single-valued
    encoded: dict                     # original name -> tuple of indicator names
    selected: tuple                   # names surviving the univariate Cox filter
    p_values: dict                    # candidate name -> filter p-value
    imputation_means: dict            # selected name -> training mean
    standardization: dict             # selected name -> (mean, sd)


def _cells(d: SurvivalDataset, j: int) -> np.ndarray:
    """Column j as objects: None for a missing cell, else the raw value."""
    if j in d.raw_columns:
        return d.raw_columns[j]
    col = d.values[:, j].astype(object)
    col[np.isnan(d.values[:, j])] = None
    return col


def _indicators(cells: np.ndarray, levels: list) -> list:
    """One float column per level: 1 where str(cell) is the level, 0
    elsewhere, NaN where the cell is missing."""
    missing = np.array([v is None for v in cells], dtype=bool)
    keys = np.array([str(v) for v in cells], dtype=object)
    return [np.where(missing, np.nan, keys == lvl) for lvl in levels]


def _with_indicators(x: np.ndarray, indicators: list) -> np.ndarray:
    """`x` with the indicator columns appended: column k + i of the result
    is indicators[i], for x of k columns."""
    return np.column_stack([x, *indicators]) if indicators else x


def _dropped(x: np.ndarray) -> np.ndarray:
    """Whether each column of `x` (NaN = missing) is over 25% missing or
    single-valued, by the rule that `preprocess` applies to the str() of a
    nominal column's cells."""
    missing = np.isnan(x)
    # every present cell holds the bits of its column's first present cell:
    # distinct finite floats have distinct reprs (0.0 and -0.0 too), so
    # this counts the distinct str(value)s
    bits = x.view(np.uint64)
    first = bits[missing.argmin(axis=0), np.arange(x.shape[1])] if x.size else 0
    # m > n / 4 exactly when the float m / n > 0.25 (for n < 2**53)
    return ((bits == first) | missing).all(axis=0) | (missing.sum(axis=0) > 0.25 * len(x))


def preprocess(train: SurvivalDataset, validate: SurvivalDataset,
               p_cut: float = 0.10) -> tuple:
    """Fit the preprocessing pipeline on the training fold and apply it to
    both folds; returns (train', validate', report).

    A column is nominal when one of its training cells is a string; its
    levels are the sorted str() of its training cells, and a validation
    level never seen in training gets all-zero indicators.  A string cell
    in the validation fold of a numeric column counts as missing.

    Raises a ValueError when an indicator name repeats the name of another
    kept column, and a FitError when no feature survives the filter
    (consider relaxing p_cut).
    """
    x_t, x_v = train.values, validate.values
    n_train, k = x_t.shape
    drop = _dropped(x_t)
    levels_of = {}
    for j, cells in train.raw_columns.items():
        present = [v for v in cells if v is not None]
        drop[j] = (n_train - len(present) > 0.25 * n_train
                   or len(set(map(str, present))) <= 1)
        if not drop[j] and any(isinstance(v, str) for v in present):
            levels_of[j] = sorted({str(v) for v in present})

    # each candidate's column in `_with_indicators` of the training and
    # validation matrices and their indicator columns
    names, src, encoded, ind_t, ind_v = [], [], {}, [], []
    for j in np.flatnonzero(~drop).tolist():
        name = train.feature_names[j]
        if j not in levels_of:
            names.append(name)
            src.append(j)
            continue
        levels = levels_of[j]
        encoded[name] = tuple(f"{name}={lvl}" for lvl in levels)
        names.extend(encoded[name])
        src.extend(range(k + len(ind_t), k + len(ind_t) + len(levels)))
        ind_t.extend(_indicators(train.raw_columns[j], levels))
        ind_v.extend(_indicators(_cells(validate, j), levels))
    for nominal, indicators in encoded.items():
        for name in indicators:
            if names.count(name) > 1:
                raise ValueError(f"level {name[len(nominal) + 1:]!r} of nominal column "
                                 f"{nominal!r} gets the name {name!r}, which another "
                                 "kept column has too; rename one of them")

    p_values = {}
    if names:
        # the gathered matrix is freed once with_features has copied it
        candidate = train.with_features(_with_indicators(x_t, ind_t)[:, src], names)
        p = univariate_cox_pvalue(candidate, range(len(names)))
        p_values = dict(zip(names, p.tolist()))
    selected_idx = [j for j, name in enumerate(names) if p_values[name] <= p_cut]
    if not selected_idx:
        raise FitError(
            f"no feature passed the univariate Cox filter at p <= {p_cut}; "
            "relax p_cut or inspect the data"
        )

    selected_names = tuple(names[j] for j in selected_idx)
    # one (selected x rows) block per fold: np.take keeps each row
    # C-contiguous, so its nanmean, mean and std take the pairwise sums that
    # one column of its own would
    block_t = np.take(candidate.values.T, selected_idx, axis=0)
    block_v = np.take(_with_indicators(x_v, ind_v).T, [src[j] for j in selected_idx], axis=0)
    means = np.nanmean(block_t, axis=1)
    for block in (block_t, block_v):
        np.copyto(block, means[:, None], where=np.isnan(block))
    mu, sd = block_t.mean(axis=1), block_t.std(axis=1)
    sd[sd == 0.0] = 1.0
    for block in (block_t, block_v):
        block -= mu[:, None]
        block /= sd[:, None]

    report = PreprocessReport(
        dropped_missing=tuple(name for name, gone in zip(train.feature_names, drop) if gone),
        encoded=encoded,
        selected=selected_names,
        p_values=p_values,
        imputation_means=dict(zip(selected_names, means.tolist())),
        standardization=dict(zip(selected_names, zip(mu.tolist(), sd.tolist()))),
    )
    return (
        train.with_features(block_t.T, selected_names),
        validate.with_features(block_v.T, selected_names),
        report,
    )


# ---------------------------------------------------------------------------
# experiment

@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "km"
    metrics: tuple = ALL_METRICS
    percentiles: tuple = (10, 25, 50, 75, 90)
    bins: int = 10
    folds: int = 5
    mtlr_c_grid: tuple = (0.01, 0.1, 1.0, 10.0, 100.0)
    jobs: int = 1

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}; choose from {ALL_METRICS}")
        if any(not 0 < p < 100 for p in self.percentiles):
            raise ValueError("percentiles must lie strictly between 0 and 100")
        if self.bins < 2:
            raise ValueError(f"need at least 2 calibration bins, got {self.bins}")
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if self.jobs < 1:
            raise ValueError(f"need at least 1 job, got {self.jobs}")


@dataclass(frozen=True)
class OneCalEntry:
    percentile: float
    tstar: float
    result: "cal.TestResult | None"
    error: str = ""


@dataclass
class MetricReport:
    model: str
    fold_scores: dict                  # metric -> list of per-fold values
    means: dict
    sds: dict
    one_calibration: list              # OneCalEntry per percentile
    dcal: "cal.TestResult | None"
    dcal_histogram: "cal.DCalHistogram | None"
    tau: float
    tstars: tuple
    fold_predictions: list             # per fold: (validation indices, extended batch)


@dataclass(frozen=True)
class _FoldOutput:
    curves: CurveBatch            # extended; one shared row under Kaplan-Meier
    scores: dict                  # fold metric -> value
    probs_at_tstars: np.ndarray   # (n_val, len(tstars)): S_i(t*) for one-calibration
    probs_at_times: np.ndarray    # (n_val,): S_i(t_i) for D-calibration
    val_indices: np.ndarray


def _fit_predict(name: str, raw_train: SurvivalDataset, raw_val: SurvivalDataset,
                 c_grid: tuple) -> tuple:
    """Preprocess on the training rows (when the model reads features), fit
    the model and predict the validation rows as one extended batch.
    Returns (model, extended training Kaplan-Meier curve, curves)."""
    train, val = raw_train, raw_val
    if name != "km" and raw_train.feature_names:
        train, val, _ = preprocess(raw_train, raw_val)

    train_km = fit_km(train)
    train_km_ext = extend_linear(train_km.curve)
    if name == "km":
        model = KaplanMeierModel(train_km)
    elif name == "cox-kp":
        model = fit_cox(train)
    elif name in ("aft-weibull", "mtlr"):
        grid = make_grid(train, default_grid_size(len(train)))
        model = (fit_aft_weibull(train, grid) if name == "aft-weibull"
                 else fit_mtlr(train, grid, c_grid))
    else:
        raise ValueError(f"unknown model {name!r}")
    curves = extend_linear(model.predict_curves(val), float(train_km_ext.zero_time[0]))
    return model, train_km_ext, curves


def _score_fold(val: SurvivalDataset, curves: CurveBatch, medians: np.ndarray, metrics,
                tau: float, train: SurvivalDataset, train_km_ext) -> dict:
    """The fold metrics of one validation fold, in `_FOLD_METRICS` order.
    ``medians`` holds one capped median per patient; the risk score is its
    negative."""
    events = val.events
    v_u, medians_u = val.subset(events), medians[events]
    eta = default_eta(train.times)
    weights = None
    if "l1-margin" in metrics or "l1-log-margin" in metrics:
        weights = margin_weights(val.times[~events], train_km_ext)
    scores = {}
    for metric in _FOLD_METRICS:
        if metric not in metrics:
            continue
        if metric == "concordance":
            value = concordance(val, -medians)
        elif metric == "ibs":
            value = cal.integrated_brier(val, curves, tau, fit_censoring_km(train))
        elif metric == "l1-uncensored":
            value = l1_uncensored(v_u, medians_u)
        elif metric == "l1-hinge":
            value = l1_hinge(val, medians)
        elif metric == "l1-margin":
            value = l1_margin(val, medians, weights=weights)
        elif metric == "l1-log-uncensored":
            value = l1_log(v_u, medians_u, "uncensored", eta)
        else:
            value = l1_log(val, medians, "margin", eta, weights=weights)
        scores[metric] = float(value)
    return scores


def _run_fold(d: SurvivalDataset, cfg: ExperimentConfig, val_mask: np.ndarray,
              tau: float, tstars: tuple) -> _FoldOutput:
    raw_train, raw_val = d.subset(~val_mask), d.subset(val_mask)
    _, train_km_ext, curves = _fit_predict(cfg.model, raw_train, raw_val, cfg.mtlr_c_grid)
    t0_km = float(train_km_ext.zero_time[0])
    n = len(raw_val)
    medians = np.broadcast_to(median_survival(curves, t0_km), (n,))

    at_tstars = np.broadcast_to(survival_at(curves, np.asarray(tstars)[None, :]),
                                (n, len(tstars)))
    at_times = np.broadcast_to(survival_at(curves, raw_val.times), (n,))
    scores = _score_fold(raw_val, curves, medians, cfg.metrics, tau, raw_train, train_km_ext)
    return _FoldOutput(curves, scores, at_tstars, at_times, np.flatnonzero(val_mask))


def run_experiment(d: SurvivalDataset, cfg: ExperimentConfig) -> MetricReport:
    """Cross-validated evaluation of one model on one dataset.

    Per fold: preprocess, fit (internal CV for hyperparameters where the
    model has them), predict and extend the validation curves as one
    batch, and score the discrimination metrics and the IBS.  Calibration
    percentiles and D-calibration run once on the pooled predictions of
    all folds.  A split that leaves a fold empty, or a fold's training rows
    without a death, is refused before any fit.  Fit failures propagate
    with the fold index attached; an error that is not a `FitError` or
    `ValueError` becomes a `RuntimeError` that names its class.
    """
    fold_of = fold_indices(d.times, d.events, cfg.folds)
    if empty := np.setdiff1d(np.arange(cfg.folds), fold_of).tolist():
        raise ValueError(f"cannot split {len(d)} instances into {cfg.folds} folds: fold(s) "
                         f"{', '.join(map(str, empty))} would be empty; use fewer folds")
    deaths = np.bincount(fold_of[d.events], minlength=cfg.folds)
    if no_death := np.flatnonzero(deaths == deaths.sum()).tolist():
        raise ValueError(f"fold{'s' if len(no_death) > 1 else ''} "
                         f"{', '.join(map(str, no_death))}: no death among the training rows "
                         f"({int(deaths.sum())} in the whole dataset); every model needs one")
    tau = float(d.times.max())
    tstars = tuple(float(np.percentile(d.times, p)) for p in cfg.percentiles)

    def run(fold):
        try:
            return _run_fold(d, cfg, fold_of == fold, tau, tstars)
        except FitError as exc:
            raise FitError(f"fold {fold}: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"fold {fold}: {exc}") from exc
        except Exception as exc:
            raise RuntimeError(f"fold {fold}: {type(exc).__name__}: {exc}") from exc

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            fold_results = list(pool.map(run, range(cfg.folds)))
    else:
        fold_results = [run(fold) for fold in range(cfg.folds)]

    fold_scores = {m: [out.scores[m] for out in fold_results]
                   for m in _FOLD_METRICS if m in cfg.metrics}
    means = {m: float(np.mean(vs)) for m, vs in fold_scores.items()}
    sds = {m: float(np.std(vs)) for m, vs in fold_scores.items()}

    # pooled in fold order, each fold in validation order
    pooled_dataset = d.subset(np.concatenate([out.val_indices for out in fold_results]))
    one_cal_entries = []
    if "one-calibration" in cfg.metrics:
        at_tstars = np.vstack([out.probs_at_tstars for out in fold_results])
        for j, (pct, tstar) in enumerate(zip(cfg.percentiles, tstars)):
            try:
                result = cal.one_calibration_dn(pooled_dataset, at_tstars[:, j], tstar, cfg.bins)
                one_cal_entries.append(OneCalEntry(pct, tstar, result))
            except ValueError as exc:
                one_cal_entries.append(OneCalEntry(pct, tstar, None, str(exc)))

    dcal_result, dcal_hist = None, None
    if "d-calibration" in cfg.metrics:
        at_times = np.concatenate([out.probs_at_times for out in fold_results])
        dcal_hist = cal.dcal_histogram(at_times, pooled_dataset.events, cfg.bins)
        dcal_result = cal.dcal_test(dcal_hist)

    return MetricReport(
        model=cfg.model,
        fold_scores=fold_scores,
        means=means,
        sds=sds,
        one_calibration=one_cal_entries,
        dcal=dcal_result,
        dcal_histogram=dcal_hist,
        tau=tau,
        tstars=tstars,
        fold_predictions=[(out.val_indices, out.curves) for out in fold_results],
    )


# ---------------------------------------------------------------------------
# synthetic cohorts

@dataclass(frozen=True)
class CohortConfig:
    """Generator settings for synthetic right-censored cohorts.

    Families: "exponential-ph" and "weibull-ph" draw deaths from a
    proportional-hazards model with hazard multiplier exp(beta . x);
    "individual-weibull" gives every instance its own Weibull shape via
    ``shape_beta``.  Censoring is exponential with the given rate
    (rate 0 disables censoring entirely).
    """

    family: str = "exponential-ph"
    n_features: int = 5
    beta: tuple = ()
    baseline_scale: float = 10.0
    baseline_shape: float = 1.0
    shape_beta: tuple = ()
    censor_rate: float = 0.0

    def __post_init__(self):
        if self.family not in ("exponential-ph", "weibull-ph", "individual-weibull"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.baseline_scale <= 0 or self.baseline_shape <= 0:
            raise ValueError("baseline scale and shape must be positive")
        if self.censor_rate < 0:
            raise ValueError("censor rate must be non-negative")
        if len(self.beta) > self.n_features or len(self.shape_beta) > self.n_features:
            raise ValueError("more coefficients than features")


@dataclass(frozen=True)
class SimulatedCohort:
    """A drawn cohort plus the latent truths the observation step hides."""

    dataset: SurvivalDataset
    x: np.ndarray
    latent_death: np.ndarray
    latent_censor: np.ndarray
    scales: np.ndarray
    shapes: np.ndarray

    def true_survival(self, i: int, t):
        """True S(t | x_i) of the generator for instance i."""
        t = np.asarray(t, dtype=float)
        return np.exp(-((t / self.scales[i]) ** self.shapes[i]))


def _padded(coeffs, k: int) -> np.ndarray:
    out = np.zeros(k)
    out[: len(coeffs)] = coeffs
    return out


def simulate_cohort_latent(config: CohortConfig, n: int, seed: int) -> SimulatedCohort:
    """Draw a cohort and keep the latent death/censor times and the true
    per-instance Weibull parameters for oracle tests."""
    if n < 1:
        raise ValueError(f"cohort size must be positive, got {n}")
    rng = np.random.default_rng(seed)
    k = config.n_features
    x = rng.standard_normal((n, k))
    lin = x @ _padded(config.beta, k)

    if config.family == "exponential-ph":
        shapes = np.ones(n)
        scales = config.baseline_scale * np.exp(-lin)
    elif config.family == "weibull-ph":
        shapes = np.full(n, config.baseline_shape)
        scales = config.baseline_scale * np.exp(-lin / config.baseline_shape)
    else:  # individual-weibull
        shapes = config.baseline_shape * np.exp(x @ _padded(config.shape_beta, k))
        scales = config.baseline_scale * np.exp(-lin)

    death = scales * rng.weibull(shapes, size=n)
    if config.censor_rate > 0:
        censor = rng.exponential(1.0 / config.censor_rate, size=n)
    else:
        censor = np.full(n, np.inf)
    observed = np.minimum(death, censor)
    events = death <= censor

    dataset = SurvivalDataset.from_arrays(x, observed, events)
    return SimulatedCohort(dataset, x, death, censor, scales, shapes)


def simulate_cohort(config: CohortConfig, n: int, seed: int) -> SurvivalDataset:
    """Draw a synthetic right-censored cohort; see `simulate_cohort_latent`
    to retain the latent truths."""
    return simulate_cohort_latent(config, n, seed).dataset
