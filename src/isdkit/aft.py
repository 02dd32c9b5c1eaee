"""Weibull accelerated failure time model fit by censored maximum likelihood.

Parameterized in log time for stability: log T = mu(x) + sigma * eps with
eps standard Gumbel (minimum), mu(x) = intercept + coeffs . x and
sigma = exp(log_scale).  Equivalently S(t | x) = exp(-(t / lambda(x)) ** k)
with shape k = 1 / sigma and scale lambda(x) = exp(mu(x)).  Fitting is
safeguarded Newton on (intercept, coeffs, log_scale) with analytic
gradient and Hessian; zero times are replaced by half the minimum positive
observed time before taking logs, without mutating the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConvergenceError, FitError, SurvivalDataset, SurvivalModel
from .curves import CurveBatch

__all__ = ["AftWeibullModel", "fit_aft_weibull", "predict_curve_aft", "aft_loglik"]


@dataclass(frozen=True)
class AftWeibullModel(SurvivalModel):
    intercept: float
    coeffs: np.ndarray
    log_scale: float
    iterations: int = 0
    gradient_norm: float = 0.0
    grid: np.ndarray = field(default_factory=lambda: np.array([1.0]))
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


def _pack(intercept, coeffs, log_scale):
    return np.concatenate(([intercept], coeffs, [log_scale]))


def aft_loglik(params, x, times, events, with_derivatives=False):
    """Censored Weibull log-likelihood in the (intercept, coeffs, log_scale)
    parameterization; optionally analytic gradient and Hessian.

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
    # absurd trial points during step halving may overflow; the resulting
    # inf/nan likelihood is simply rejected by the line search
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = (z - mu) / sigma
        u = np.exp(w)
        ll = np.where(events, -log_scale - z + w - u, -u).sum()
    if not with_derivatives:
        return float(ll)

    # per-row derivatives with respect to (mu, log sigma)
    d_mu = np.where(events, (u - 1.0) / sigma, u / sigma)
    d_s = np.where(events, -1.0 - w * (1.0 - u), w * u)
    d_mumu = -u / sigma**2
    d_mus = np.where(events, -(u * w + u - 1.0) / sigma, -u * (w + 1.0) / sigma)
    d_ss = np.where(events, w - w * u - w**2 * u, -w * u * (1.0 + w))

    design = np.hstack((np.ones((x.shape[0], 1)), x))  # columns for (intercept, coeffs)
    grad = np.concatenate((design.T @ d_mu, [d_s.sum()]))

    p = design.shape[1]
    hess = np.zeros((p + 1, p + 1))
    hess[:p, :p] = design.T @ (d_mumu[:, None] * design)
    cross = design.T @ d_mus
    hess[:p, p] = cross
    hess[p, :p] = cross
    hess[p, p] = d_ss.sum()
    return float(ll), grad, hess


def _replace_zero_times(times: np.ndarray) -> np.ndarray:
    positive = times[times > 0]
    if positive.size == 0:
        raise FitError("all observed times are zero; Weibull AFT is undefined")
    eta = 0.5 * positive.min()
    return np.where(times > 0, times, eta)


def fit_aft_weibull(d: SurvivalDataset, tol: float = 1e-8, max_iter: int = 200) -> AftWeibullModel:
    """Maximize the censored Weibull likelihood by safeguarded Newton.

    The Hessian is ridged until it is negative definite and steps are
    halved until the likelihood does not decrease, so the accepted
    log-likelihood sequence is non-decreasing.
    """
    x = d.feature_matrix()
    times, events = d.times, d.events
    if not events.any():
        raise FitError("AFT fitting needs at least one uncensored instance")
    times = _replace_zero_times(times)

    params = _pack(np.log(times.mean()), np.zeros(x.shape[1]), 0.0)
    ll, grad, hess = aft_loglik(params, x, times, events, with_derivatives=True)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < tol:
            break
        info = -hess
        try:
            np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            # far from the optimum the likelihood need not be concave;
            # shift the spectrum so the step is an ascent direction
            lowest = float(np.linalg.eigvalsh(info)[0])
            info = info + (1.1 * abs(lowest) + 1e-6) * np.eye(info.shape[0])
        step = np.linalg.solve(info, grad)
        scale = 1.0
        floor = ll - 1e-10 * (1.0 + abs(ll))
        for _ in range(50):
            candidate = params + scale * step
            if aft_loglik(candidate, x, times, events) >= floor:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                "AFT step halving failed to improve the likelihood",
                last_iterate=params,
            )
        params = candidate
        ll, grad, hess = aft_loglik(params, x, times, events, with_derivatives=True)

    gnorm = float(np.max(np.abs(grad)))
    if gnorm >= tol:
        raise ConvergenceError(
            f"AFT fit did not converge in {max_iter} iterations "
            f"(gradient max-norm {gnorm:.3g})",
            last_iterate=params,
        )

    default_grid = np.unique(times)
    return AftWeibullModel(
        intercept=float(params[0]),
        coeffs=params[1:-1].copy(),
        log_scale=float(params[-1]),
        iterations=iterations,
        gradient_norm=gnorm,
        grid=default_grid,
        feature_names=d.feature_names,
    )


def predict_curve_aft(m: AftWeibullModel, x, grid) -> CurveBatch:
    """Closed-form Weibull survival sampled on an increasing time grid,
    emitted as piecewise-linear curves: a row per row of the matrix x, one
    row for a feature vector."""
    grid = np.asarray(getattr(grid, "points", grid), dtype=float)
    x = np.asarray(x, dtype=float)
    mu = m.intercept + x @ m.coeffs
    with np.errstate(divide="ignore"):
        logt = np.log(grid)
    w = (logt - mu[..., None]) / m.sigma
    probs = np.clip(np.where(grid == 0.0, 1.0, np.exp(-np.exp(w))), 0.0, 1.0)
    return CurveBatch(grid, probs, "linear")
