"""Weibull accelerated failure time model fit by censored maximum likelihood.

Parameterized in log time for stability: log T = mu(x) + sigma * eps with
eps standard Gumbel (minimum), mu(x) = intercept + coeffs . x and
sigma = exp(log_scale).  Equivalently S(t | x) = exp(-(t / lambda(x)) ** k)
with shape k = 1 / sigma and scale lambda(x) = exp(mu(x)).  Fitting is
safeguarded Newton (`newton_ascent`) on (intercept, coeffs, log_scale)
with analytic gradient and information; zero times are replaced by half the
minimum positive observed time before taking logs, without mutating the
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FitError, SurvivalDataset, SurvivalModel, newton_ascent
from .curves import CurveBatch
from .mtlr import TimeGrid

__all__ = ["AftWeibullModel", "fit_aft_weibull", "predict_curve_aft", "aft_loglik"]


@dataclass(frozen=True)
class AftWeibullModel(SurvivalModel):
    intercept: float
    coeffs: np.ndarray
    log_scale: float
    grid: np.ndarray                  # the time points its curves are sampled on
    iterations: int = 0
    gradient_norm: float = 0.0
    feature_names: tuple = ()

    @property
    def sigma(self) -> float:
        return float(np.exp(self.log_scale))

    @property
    def shape(self) -> float:
        """Weibull shape k = 1 / sigma."""
        return 1.0 / self.sigma

    def scale(self, x) -> float:
        """Weibull scale lambda(x) = exp(intercept + coeffs . x)."""
        x = np.asarray(x, dtype=float)
        return float(np.exp(self.intercept + x @ self.coeffs))

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        return predict_curve_aft(self, d.feature_matrix(), self.grid)


# absurd trial points during step halving may overflow; the resulting
# inf/nan likelihood is simply rejected by the line search
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def aft_loglik(params, x, times, events):
    """Censored Weibull log-likelihood in the (intercept, coeffs, log_scale)
    parameterization, its analytic gradient and the information matrix
    (the negative Hessian).

    Uncensored rows contribute log f(t | x) and censored rows log S(c | x).
    All times must be positive.
    """
    params = np.asarray(params, dtype=float)
    x = np.asarray(x, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    intercept, coeffs, log_scale = params[0], params[1:-1], params[-1]
    sigma = np.exp(log_scale)

    z = np.log(times)
    mu = intercept + x @ coeffs
    w = (z - mu) / sigma
    u = np.exp(w)
    ll = np.where(events, -log_scale - z + w - u, -u).sum()

    # per-row derivatives with respect to (mu, log sigma)
    d_mu = np.where(events, (u - 1.0) / sigma, u / sigma)
    d_s = np.where(events, -1.0 - w * (1.0 - u), w * u)
    d_mumu = -u / sigma**2
    d_mus = np.where(events, -(u * w + u - 1.0) / sigma, -u * (w + 1.0) / sigma)
    d_ss = np.where(events, w - w * u - w**2 * u, -w * u * (1.0 + w))

    design = np.hstack((np.ones((x.shape[0], 1)), x))  # columns for (intercept, coeffs)
    grad = np.concatenate((design.T @ d_mu, [d_s.sum()]))

    cross = (design.T @ d_mus)[:, None]
    hess = np.block([[design.T @ (d_mumu[:, None] * design), cross],
                     [cross.T, d_ss.sum()]])
    return float(ll), grad, -hess


def _replace_zero_times(times: np.ndarray) -> np.ndarray:
    positive = times[times > 0]
    if positive.size == 0:
        raise FitError("all observed times are zero; Weibull AFT is undefined")
    eta = 0.5 * positive.min()
    return np.where(times > 0, times, eta)


def _ridged_solve(info, grad):
    """Newton step; far from the optimum the likelihood need not be
    concave, so an information that is not positive definite has its
    spectrum shifted until the step is an ascent direction."""
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        lowest = float(np.linalg.eigvalsh(info)[0])
        info = info + (1.1 * abs(lowest) + 1e-6) * np.eye(info.shape[0])
    return np.linalg.solve(info, grad)


def fit_aft_weibull(d: SurvivalDataset, grid: TimeGrid) -> AftWeibullModel:
    """Maximize the censored Weibull likelihood by `newton_ascent`, the
    Hessian ridged until it is negative definite; the model predicts its
    curves on the points of `grid`.  Raises ConvergenceError (carrying the
    last iterate) when the Newton fit fails."""
    x = d.feature_matrix()
    times, events = d.times, d.events
    if not events.any():
        raise FitError("AFT fitting needs at least one uncensored instance")
    times = _replace_zero_times(times)

    params, _, iterations, gnorm = newton_ascent(
        lambda p: aft_loglik(p, x, times, events),
        np.concatenate(([np.log(times.mean())], np.zeros(x.shape[1]), [0.0])),
        _ridged_solve, "AFT")

    return AftWeibullModel(float(params[0]), params[1:-1].copy(), float(params[-1]),
                           grid.points, iterations, gnorm, d.feature_names)


def predict_curve_aft(m: AftWeibullModel, x, grid) -> CurveBatch:
    """Closed-form Weibull survival sampled on the increasing time points
    `grid` (an array; a fitted model keeps its own as `m.grid`),
    emitted as piecewise-linear curves: a row per row of the matrix x, one
    row for a feature vector."""
    grid = np.asarray(grid, dtype=float)
    x = np.asarray(x, dtype=float)
    mu = m.intercept + x @ m.coeffs
    with np.errstate(divide="ignore"):
        logt = np.log(grid)
    w = (logt - mu[..., None]) / m.sigma
    probs = np.clip(np.exp(-np.exp(w)), 0.0, 1.0)  # log 0 = -inf gives S(0) = 1
    return CurveBatch(grid, probs, "linear")
