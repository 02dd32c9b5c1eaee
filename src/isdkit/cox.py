"""Cox proportional hazards fitting and its survival-distribution form.

The partial likelihood is maximized by safeguarded Newton-Raphson with
Breslow tie handling.  A discrete Kalbfleisch-Prentice baseline then turns
the risk model into a full survival-curve predictor: at each distinct
death time the multiplicative survival factor solves the KP
self-consistency equation, using the closed form

    alpha_j = (1 - d_j * wbar_j / sum_{l in R_j} w_l) ** (1 / wbar_j)

where w = exp(beta . x) and wbar_j averages w over the deaths tied at t_j.
With a single death this is the exact KP solution, and with all
coefficients zero it reduces exactly to the Kaplan-Meier factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    FitError,
    Instance,
    SurvivalCurve,
    SurvivalDataset,
    SurvivalModel,
)
from .curves import CurveBatch
from .stats import normal_cdf

__all__ = ["CoxModel", "fit_cox", "predict_curve_cox", "univariate_cox_pvalue",
           "cox_partial_loglik"]


@dataclass(frozen=True)
class CoxModel(SurvivalModel):
    """Fitted Cox model: coefficients plus the KP baseline curve S0."""

    beta: np.ndarray
    baseline: SurvivalCurve
    iterations: int
    gradient_norm: float
    feature_names: tuple = ()

    def predict_curve(self, inst: Instance) -> SurvivalCurve:
        x = np.asarray(inst.features, dtype=float)
        return predict_curve_cox(self, x)

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        return predict_curve_cox(self, d.feature_matrix())

    def risk(self, inst: Instance) -> float:
        return float(np.asarray(inst.features, dtype=float) @ self.beta)


def _sorted_arrays(x, times, events):
    order = np.argsort(times, kind="stable")
    return x[order], times[order], events[order]


def _risk_set_sums(xs, ws, death_first_idx, want_hessian):
    # suffix sums give risk-set aggregates because rows are time-ascending
    s0_all = np.cumsum(ws[::-1])[::-1]
    s1_all = np.cumsum((ws[:, None] * xs)[::-1], axis=0)[::-1]
    s0 = s0_all[death_first_idx]
    s1 = s1_all[death_first_idx]
    s2 = None
    if want_hessian:
        wxx = ws[:, None, None] * xs[:, :, None] * xs[:, None, :]
        s2_all = np.cumsum(wxx[::-1], axis=0)[::-1]
        s2 = s2_all[death_first_idx]
    return s0, s1, s2


def cox_partial_loglik(beta, x, times, events, with_derivatives=False):
    """Breslow log partial likelihood; optionally its gradient and Hessian.

    Arrays may be in any order; ties among deaths share one risk-set term
    weighted by the death count.
    """
    beta = np.asarray(beta, dtype=float)
    xs, ts, es = _sorted_arrays(np.asarray(x, dtype=float), np.asarray(times, dtype=float),
                                np.asarray(events, dtype=bool))
    eta = xs @ beta
    # guard exp overflow during line searches far from the optimum
    shift = eta.max() if eta.size else 0.0
    ws = np.exp(eta - shift)

    death_times = np.unique(ts[es])
    first_idx = np.searchsorted(ts, death_times, side="left")
    d_counts = np.bincount(
        np.searchsorted(death_times, ts[es]), minlength=death_times.size
    ).astype(float)

    s0, s1, s2 = _risk_set_sums(xs, ws, first_idx, with_derivatives)
    loglik = float(eta[es].sum() - np.sum(d_counts * (np.log(s0) + shift)))
    if not with_derivatives:
        return loglik
    means = s1 / s0[:, None]
    grad = xs[es].sum(axis=0) - (d_counts[:, None] * means).sum(axis=0)
    cov = s2 / s0[:, None, None] - means[:, :, None] * means[:, None, :]
    info = (d_counts[:, None, None] * cov).sum(axis=0)  # negative Hessian
    return loglik, grad, info


def _newton_cox(x, times, events, max_iter, tol):
    n, k = x.shape
    if not np.any(events):
        raise FitError("Cox fitting needs at least one uncensored instance")
    beta = np.zeros(k)
    if k == 0:
        return beta, np.zeros((0, 0)), 0, 0.0

    def checked(info):
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise FitError(
                "singular information matrix in Cox fit; remove constant or "
                "collinear features"
            )
        return info

    loglik, grad, info = cox_partial_loglik(beta, x, times, events, with_derivatives=True)
    for iteration in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < tol:
            return beta, checked(info), iteration - 1, gnorm
        step = np.linalg.solve(checked(info), grad)
        scale = 1.0
        # accept anything within float resolution of the current value
        floor = loglik - 1e-10 * (1.0 + abs(loglik))
        for _ in range(40):
            candidate = beta + scale * step
            new_loglik = cox_partial_loglik(candidate, x, times, events)
            if new_loglik >= floor:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "Cox step halving failed to improve the partial likelihood",
                last_iterate=beta,
            )
        beta = candidate
        loglik, grad, info = cox_partial_loglik(beta, x, times, events, with_derivatives=True)

    gnorm = float(np.max(np.abs(grad)))
    if gnorm < tol:
        return beta, checked(info), max_iter, gnorm
    raise ConvergenceError(
        f"Cox fit did not converge in {max_iter} iterations "
        f"(gradient max-norm {gnorm:.3g})",
        last_iterate=beta,
    )


def _kp_baseline(beta, x, times, events) -> SurvivalCurve:
    xs, ts, es = _sorted_arrays(x, times, events)
    ws = np.exp(xs @ beta)
    death_times = np.unique(ts[es])
    if death_times.size == 0:
        raise FitError("no observed deaths; cannot estimate a baseline")
    s0_all = np.cumsum(ws[::-1])[::-1]
    first_idx = np.searchsorted(ts, death_times, side="left")
    alphas = np.empty(death_times.size)
    for j, dt in enumerate(death_times):
        at_event = es & (ts == dt)
        wbar = ws[at_event].mean()
        d_j = float(at_event.sum())
        inner = 1.0 - d_j * wbar / s0_all[first_idx[j]]
        alphas[j] = max(inner, 0.0) ** (1.0 / wbar)
    baseline = np.cumprod(alphas)
    return SurvivalCurve(death_times, np.clip(baseline, 0.0, 1.0), "step")


def fit_cox(d: SurvivalDataset, max_iter: int = 100, tol: float = 1e-8) -> CoxModel:
    """Fit a Cox model by safeguarded Newton-Raphson (Breslow ties), then
    attach the Kalbfleisch-Prentice baseline at each distinct death time.

    Raises ConvergenceError (carrying the last iterate) when the gradient
    max-norm fails to reach `tol` within `max_iter` iterations, and
    FitError when the information matrix is singular.
    """
    x = d.feature_matrix()
    times, events = d.times, d.events
    beta, _, iterations, gnorm = _newton_cox(x, times, events, max_iter, tol)
    baseline = _kp_baseline(beta, x, times, events)
    return CoxModel(beta, baseline, iterations, gnorm, d.feature_names)


def predict_curve_cox(m: CoxModel, x):
    """S(t | x) = S0(t) ** exp(beta . x), evaluated at the baseline knots:
    a SurvivalCurve for one feature vector, a CurveBatch for a matrix."""
    x = np.asarray(x, dtype=float)
    exponent = np.exp(x @ m.beta)
    probs = np.clip(m.baseline.probs ** exponent[..., None], 0.0, 1.0)
    if x.ndim == 1:
        return SurvivalCurve(m.baseline.times, probs, "step")
    return CurveBatch(m.baseline.times, probs, "step")


def univariate_cox_pvalue(d: SurvivalDataset, feature_index: int) -> float:
    """Two-sided Wald p-value for the single-feature Cox coefficient.

    Used as the feature-selection filter: missing cells are dropped
    (complete-case for this feature), the feature is standardized for
    numeric stability (the Wald z is scale-invariant), and any degenerate
    or non-convergent fit maps to p = 1 so the feature is never selected.
    """
    values, keep_times, keep_events = [], [], []
    for inst in d.instances:
        v = inst.features[feature_index]
        if v is None or isinstance(v, str):
            continue
        values.append(float(v))
        keep_times.append(inst.time)
        keep_events.append(inst.event)
    values = np.asarray(values)
    if values.size < 2 or np.unique(values).size < 2:
        return 1.0
    sd = values.std()
    col = ((values - values.mean()) / sd).reshape(-1, 1)
    times = np.asarray(keep_times)
    events = np.asarray(keep_events, dtype=bool)
    if not events.any():
        return 1.0
    try:
        beta, info, _, _ = _newton_cox(col, times, events, max_iter=100, tol=1e-8)
        var = np.linalg.inv(info)[0, 0]
    except (FitError, np.linalg.LinAlgError):
        return 1.0
    if not var > 0:
        return 1.0
    z = abs(beta[0]) / np.sqrt(var)
    return 2.0 * normal_cdf(-z)  # the lower tail: no cancellation for large z
