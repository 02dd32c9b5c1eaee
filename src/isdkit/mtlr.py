"""Multi-task logistic regression over a fixed time grid.

One weight-plus-bias vector per grid time scores the "still alive at t_i"
task; a joint softmax over the m+1 legal monotone status sequences turns
the scores into a distribution over death intervals.  An uncensored
patient contributes the log-probability of their unique sequence; a
censored patient contributes the log of the summed probability of every
sequence whose interval starts at or after the censor time (marginalized,
not imputed).  Training maximizes the likelihood minus an L2 penalty
(C/2) * sum_j ||theta_j||^2 with L-BFGS, and the regularization constant
is chosen by an internal 5-fold cross validation on held-out likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import ConvergenceError, Instance, SurvivalCurve, SurvivalDataset, SurvivalModel
from .curves import CurveBatch

__all__ = [
    "TimeGrid",
    "MtlrLabel",
    "MtlrModel",
    "make_grid",
    "default_grid_size",
    "encode_label",
    "mtlr_loglik_grad",
    "fit_mtlr",
    "predict_curve_mtlr",
]

GRAD_TOL = 1e-6
MAX_ITER = 2000


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive time points t_1 < ... < t_m."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).copy()
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a time grid needs at least 2 points")
        if np.any(points <= 0) or np.any(np.diff(points) <= 0):
            raise ValueError("grid points must be positive and strictly increasing")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def m(self) -> int:
        return int(self.points.size)


def default_grid_size(n: int) -> int:
    """min(ceil(sqrt(n)), 50): resolution versus parameter count."""
    return max(2, min(int(np.ceil(np.sqrt(n))), 50))


def make_grid(d: SurvivalDataset, m: int) -> TimeGrid:
    """Grid at the m empirical quantiles (order statistics) of all observed
    times, censored and uncensored pooled; duplicates are removed and a
    uniform grid over (0, t_max] is the fallback when fewer than 2 distinct
    positive points remain."""
    if m < 2:
        raise ValueError(f"grid needs m >= 2 points, got {m}")
    times = d.times
    if times.size == 0:
        raise ValueError("cannot build a grid from an empty dataset")
    levels = np.arange(1, m + 1) / m
    points = np.quantile(times, levels, method="inverted_cdf")
    points = np.unique(points[points > 0])
    if points.size < 2:
        t_max = float(times.max())
        if t_max <= 0:
            raise ValueError("all observed times are zero; no usable grid")
        points = t_max * np.arange(1, m + 1) / m
    return TimeGrid(points)


@dataclass(frozen=True)
class MtlrLabel:
    """Sequence-space encoding of one (time, event) label.

    For a death, ``sequence`` is the unique 0/1 status vector (1 from the
    first grid time at or past the death on) and ``consistent`` holds its
    single interval index.  For a censoring, ``sequence`` is None and
    ``consistent`` lists every interval index whose start lies at or after
    the censor time (the lone final interval when the censor time passes
    the grid).
    """

    event: bool
    sequence: np.ndarray | None
    consistent: np.ndarray


def encode_label(t: float, event: bool, grid: TimeGrid) -> MtlrLabel:
    points = grid.points
    m = grid.m
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if event:
        k = int(np.searchsorted(points, t, side="left"))
        sequence = (np.arange(m) >= k).astype(np.int8)
        return MtlrLabel(True, sequence, np.array([k]))
    starts = np.concatenate(([0.0], points))  # interval k starts at t_k, t_0 = 0
    consistent = np.flatnonzero(starts >= t)
    if consistent.size == 0:
        consistent = np.array([m])
    return MtlrLabel(False, None, consistent)


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.hstack((x, np.ones((x.shape[0], 1))))


def _label_mask(labels, m: int) -> np.ndarray:
    mask = np.zeros((len(labels), m + 1), dtype=bool)
    for i, lab in enumerate(labels):
        mask[i, lab.consistent] = True
    return mask


def _sequence_scores(theta: np.ndarray, xb: np.ndarray) -> np.ndarray:
    # g[:, k] = sum of scores for times at or after interval k; g[:, m] = 0
    scores = xb @ theta.T
    g = np.zeros((xb.shape[0], theta.shape[0] + 1))
    g[:, :-1] = np.cumsum(scores[:, ::-1], axis=1)[:, ::-1]
    return g


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = np.max(a, axis=axis, keepdims=True)
    return (peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))).squeeze(axis)


def _objective_parts(theta, xb, mask, reg_c):
    g = _sequence_scores(theta, xb)
    log_z = _logsumexp(g, axis=1)
    masked = np.where(mask, g, -np.inf)
    label_ll = _logsumexp(masked, axis=1)
    loglik = float(np.sum(label_ll - log_z))
    penalty = 0.5 * reg_c * float(np.sum(theta * theta))

    # softmax over all sequences and over the label-consistent subset
    p_all = np.exp(g - log_z[:, None])
    p_lab = np.exp(np.where(mask, g - label_ll[:, None], -np.inf))
    # expected status vectors: E[y_j] = sum_{k <= j} p_k
    ey_all = np.cumsum(p_all, axis=1)[:, :-1]
    ey_lab = np.cumsum(p_lab, axis=1)[:, :-1]
    grad = (ey_lab - ey_all).T @ xb - reg_c * theta
    return loglik - penalty, grad, loglik


def mtlr_loglik_grad(theta, d: SurvivalDataset, grid: TimeGrid, c: float):
    """Penalized marginal log-likelihood and its analytic gradient.

    Returns (objective, gradient) where the objective is the sum of
    per-instance sequence log-likelihoods minus (c/2) * ||theta||^2; the
    gradient has theta's (m, k+1) shape.  Log-sum-exp is stabilized.
    """
    theta = np.asarray(theta, dtype=float)
    xb = _with_bias(d.feature_matrix())
    if theta.shape != (grid.m, xb.shape[1]):
        raise ValueError(
            f"theta has shape {theta.shape}, expected {(grid.m, xb.shape[1])}"
        )
    labels = [encode_label(inst.time, inst.event, grid) for inst in d.instances]
    mask = _label_mask(labels, grid.m)
    objective, grad, _ = _objective_parts(theta, xb, mask, c)
    return objective, grad


@dataclass(frozen=True)
class MtlrModel(SurvivalModel):
    theta: np.ndarray
    grid: TimeGrid
    reg_c: float
    iterations: int = 0
    gradient_norm: float = 0.0
    cv_scores: tuple = ()
    feature_names: tuple = ()

    def predict_curve(self, inst: Instance) -> SurvivalCurve:
        return predict_curve_mtlr(self, np.asarray(inst.features, dtype=float))

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        return predict_curve_mtlr(self, d.feature_matrix())


def _train(xb, mask, reg_c, m):
    shape = (m, xb.shape[1])

    def negative(theta_flat):
        theta = theta_flat.reshape(shape)
        value, grad, _ = _objective_parts(theta, xb, mask, reg_c)
        return -value, -grad.ravel()

    result = minimize(
        negative,
        np.zeros(shape).ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-12},
    )
    theta = result.x.reshape(shape)
    gnorm = float(np.max(np.abs(result.jac)))
    if not result.success and gnorm > 1e-3:
        raise ConvergenceError(
            f"MTLR optimizer failed: {result.message} "
            f"(gradient max-norm {gnorm:.3g} after {result.nit} iterations)",
            last_iterate=theta,
        )
    return theta, int(result.nit), gnorm


def _heldout_loglik(theta, xb, mask):
    g = _sequence_scores(theta, xb)
    log_z = _logsumexp(g, axis=1)
    label_ll = _logsumexp(np.where(mask, g, -np.inf), axis=1)
    return float(np.sum(label_ll - log_z))


def fit_mtlr(d: SurvivalDataset, grid: TimeGrid, c_candidates, folds: int = 5) -> MtlrModel:
    """Train on the full dataset after selecting the regularization constant
    by internal cross validation on held-out marginalized log-likelihood.

    With a single candidate the cross validation is skipped.  Training is
    deterministic: the same data yields bitwise-identical parameters.
    """
    c_candidates = tuple(float(c) for c in c_candidates)
    if not c_candidates:
        raise ValueError("need at least one regularization candidate")
    xb = _with_bias(d.feature_matrix())
    labels = [encode_label(inst.time, inst.event, grid) for inst in d.instances]
    mask = _label_mask(labels, grid.m)

    cv_scores = ()
    if len(c_candidates) == 1:
        best_c = c_candidates[0]
    else:
        from .pipeline import fold_indices  # deferred: pipeline imports this module

        assignment = fold_indices(d.times, d.events, min(folds, len(d)))
        scores = []
        for c in c_candidates:
            total = 0.0
            for fold in range(assignment.max() + 1):
                hold = assignment == fold
                theta, _, _ = _train(xb[~hold], mask[~hold], c, grid.m)
                total += _heldout_loglik(theta, xb[hold], mask[hold])
            scores.append(total / len(d))
        cv_scores = tuple(scores)
        best_c = c_candidates[int(np.argmax(scores))]

    theta, iterations, gnorm = _train(xb, mask, best_c, grid.m)
    return MtlrModel(theta, grid, best_c, iterations, gnorm, cv_scores, d.feature_names)


def predict_curve_mtlr(m: MtlrModel, x):
    """Survival curve from the running sum of interval masses, emitted as a
    piecewise-linear curve through (0, 1) and the grid knots: a
    SurvivalCurve for one feature vector, a CurveBatch for a matrix."""
    x = np.asarray(x, dtype=float)
    xb = _with_bias(x.reshape(-1, m.theta.shape[1] - 1))
    g = _sequence_scores(m.theta, xb)
    g -= g.max(axis=1, keepdims=True)
    q = np.exp(g)
    q /= q.sum(axis=1, keepdims=True)
    tail = np.cumsum(q[:, ::-1], axis=1)[:, ::-1]  # tail[:, k] = P(death interval >= k)
    surv = np.minimum(tail[:, 1:], 1.0)  # S(t_i) = P(interval >= i)
    times = np.concatenate(([0.0], m.grid.points))
    monotone = np.maximum.accumulate(surv[:, ::-1], axis=1)[:, ::-1]
    probs = np.clip(np.hstack((np.ones((xb.shape[0], 1)), monotone)), 0.0, 1.0)
    if x.ndim == 1:
        return SurvivalCurve(times, probs[0], "linear")
    return CurveBatch(times, probs, "linear")
