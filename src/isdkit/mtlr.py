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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ConvergenceError,
    SurvivalDataset,
    SurvivalModel,
    fold_indices,
)
from .curves import CurveBatch

__all__ = [
    "TimeGrid",
    "MtlrModel",
    "make_grid",
    "default_grid_size",
    "mtlr_loglik_grad",
    "fit_mtlr",
    "predict_curve_mtlr",
]

GRAD_TOL = 1e-6
MAX_ITER = 2000
_CV_FOLDS = 5  # folds of the internal cross validation that picks C


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


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.hstack((x, np.ones((x.shape[0], 1))))


@dataclass(frozen=True)
class _Labels:
    """Every label of a fit in suffix form, task-major.

    The intervals consistent with a label are always a suffix k_i, ..., m:
    the single interval k_i of a death (k_i indexes the first grid time at
    or past it), or every interval starting at or after the censor time
    (the open last interval once the censor time passes the grid).
    ``at`` indexes (k_i, i) in a raveled (m+1, n) array, ``before[j, i]``
    is [j < k_i] over the m tasks and ``censored_after[j, i]`` is
    [j >= k_i] on censored patients, 0 on deaths.
    """

    first: np.ndarray
    censored: np.ndarray
    at: np.ndarray
    before: np.ndarray
    censored_after: np.ndarray

    @classmethod
    def build(cls, first, censored, m: int) -> "_Labels":
        n = first.size
        after = np.arange(m)[:, None] >= first
        return cls(first, censored, first * n + np.arange(n),
                   (~after).astype(float), (after & censored).astype(float))

    def rows(self, keep) -> "_Labels":
        return _Labels.build(self.first[keep], self.censored[keep], self.before.shape[0])


def _encode_labels(times, events, grid: TimeGrid) -> _Labels:
    """The suffix labels (see `_Labels`) of every instance at once."""
    m = grid.m
    k = np.searchsorted(grid.points, times, side="left")
    # a censoring at t > 0 leaves the intervals starting at t_k >= t, the
    # first being k + 1 (capped at the open last interval); t = 0 leaves all
    first = np.where(events, k, np.where(times > 0, np.minimum(k + 1, m), 0))
    return _Labels.build(first, ~events, m)


@lru_cache(maxsize=8)
def _tail_sum_matrix(k: int) -> np.ndarray:
    # (U @ a)[r] = sum of a[r:]; one small matrix product beats a cumsum down axis 0
    upper = np.triu(np.ones((k, k)))
    upper.setflags(write=False)
    return upper


def _softmax_tail(theta, xb):
    """Sequence scores shifted by each patient's max, g - max(g), and the
    suffix sums of exp(g - max(g)), task-major: g[k, i] sums patient i's
    scores for the times at or after interval k (g[m] = 0), and tail[k, i]
    is the unnormalized P(interval >= k)."""
    m = theta.shape[0]
    g = (_tail_sum_matrix(m + 1)[:, :m] @ theta) @ xb.T
    g -= g.max(axis=0)
    return g, _tail_sum_matrix(g.shape[0]) @ np.exp(g)


# Below this a censored label's mass may hold subnormal or underflowed
# terms of exp(g - max(g)); such patients are summed again in log space.
_LOW_MASS = 2.0 ** -900


def _own_shift(g, first):
    """Log label mass and P(interval > j | label) for censored patients,
    their suffix shifted by its own max instead of the patient's."""
    own = np.where(np.arange(g.shape[0])[:, None] >= first, g, -np.inf)
    top = own.max(axis=0)
    tail = _tail_sum_matrix(g.shape[0]) @ np.exp(own - top)
    mass = tail[first, np.arange(first.size)]
    return top + np.log(mass), tail[1:] / mass


def _loglik(theta, xb, lab: _Labels):
    """Summed marginal log-likelihood and its gradient in theta, from one
    softmax: log P(label) = log(label mass / tail[0]), where the label mass
    is exp(g[k]) for a death and tail[k] for a censoring."""
    g, tail = _softmax_tail(theta, xb)
    mass = np.where(lab.censored, tail.ravel().take(lab.at), 1.0)
    low = np.flatnonzero(mass < _LOW_MASS)
    mass[low] = np.inf  # no term here; `_own_shift` fills these patients in
    log_mass = np.where(lab.censored, np.log(mass), g.ravel().take(lab.at))
    # E_label[y_j] - E[y_j], with E[y_j] = 1 - tail[j+1] / tail[0] and, for a
    # censoring, E_label[y_j] = [j >= k] (1 - tail[j+1] / mass)
    diff = tail[1:] * (1.0 / tail[0] - lab.censored_after / mass) - lab.before
    if low.size:
        log_mass[low], given = _own_shift(g[:, low], lab.first[low])
        diff[:, low] -= lab.censored_after[:, low] * given
    loglik = float(log_mass.sum() - np.log(tail[0]).sum())
    return loglik, diff @ xb


def _objective_parts(theta, xb, lab: _Labels, reg_c):
    loglik, grad = _loglik(theta, xb, lab)
    penalty = 0.5 * reg_c * float(np.vdot(theta, theta))
    return loglik - penalty, grad - reg_c * theta


def mtlr_loglik_grad(theta, d: SurvivalDataset, grid: TimeGrid, c: float):
    """Penalized marginal log-likelihood and its analytic gradient.

    Returns (objective, gradient) where the objective is the sum of
    per-instance sequence log-likelihoods minus (c/2) * ||theta||^2; the
    gradient has theta's (m, k+1) shape.  The softmax is stabilized.
    """
    theta = np.asarray(theta, dtype=float)
    xb = _with_bias(d.feature_matrix())
    if theta.shape != (grid.m, xb.shape[1]):
        raise ValueError(
            f"theta has shape {theta.shape}, expected {(grid.m, xb.shape[1])}"
        )
    return _objective_parts(theta, xb, _encode_labels(d.times, d.events, grid), c)


@dataclass(frozen=True)
class MtlrModel(SurvivalModel):
    theta: np.ndarray
    grid: TimeGrid
    reg_c: float
    iterations: int = 0
    gradient_norm: float = 0.0
    cv_scores: tuple = ()
    feature_names: tuple = ()

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        return predict_curve_mtlr(self, d.feature_matrix())


_HISTORY = 10  # correction pairs kept, as scipy's L-BFGS-B `maxcor`
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_MAX_TRIALS = 20  # evaluations per line search, as scipy's L-BFGS-B `maxls`
_EPS = float(np.finfo(float).eps)
# Past this gradient max-norm, the products behind a direction, its slope
# and a new pair may overflow.  `minimize` handles the inf or NaN they then
# read, so it silences numpy's warnings there, and only there: a context
# manager entered on every iteration made MTLR fits 3-5% slower.
_LARGE_GRADIENT = 1e100


def _quietly(f, *args):
    """f(*args) with numpy's overflow and invalid-value warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        return f(*args)


class _Pairs:
    """The inverse Hessian approximation of L-BFGS in the compact form of
    Byrd, Nocedal & Schnabel (1994), over the last `_HISTORY` pairs
    s = x' - x, y = g' - g, with gamma = s.y / y.y of the newest pair:

        H = gamma I + [S Y] M [S Y]^T,  M = L^T (E_D + gamma E_Y) L,
        L = [[R^-1, 0], [0, I]],  E_D = [[D, 0], [0, 0]],
        E_Y = [[Y^T Y, -I], [-I, 0]],

    where R[i, j] = s_i.y_j for pair i no newer than pair j and
    D = diag(s_i.y_i).  Pairs live in ring slots: rows 0..h-1 of `rows`
    hold s, rows h..2h-1 hold y, and R^-1, D and Y^T Y are kept in slot
    order, with zeros in an empty slot's rows and columns of R^-1, so that
    an empty slot adds nothing to a product.
    """

    def __init__(self, n):
        h = _HISTORY
        self.rows = np.zeros((2 * h, n))
        self.lift = np.eye(2 * h)  # L, with R^-1 = 0 while no pair is stored
        self.lift[:h, :h] = 0.0
        self.e_d = np.zeros((2 * h, 2 * h))
        self.e_y = np.zeros((2 * h, 2 * h))
        self.e_y[:h, h:] = self.e_y[h:, :h] = -np.eye(h)
        self.neg_middle = np.zeros((2 * h, 2 * h))
        self.gamma, self.stored = 1.0, 0

    def descent(self, g):
        """(d, g.d) for the direction d = -H g, the steepest descent -g
        while no pair is stored."""
        d = (self.neg_middle @ (self.rows @ g)) @ self.rows
        d -= self.gamma * g
        return d, float(g @ d)

    def push(self, s, y):
        """Store the pair unless s.y <= eps y.y, which would cost H its
        positive definiteness, or either product overflows."""
        s_y, y_y = float(s @ y), float(y @ y)
        if not (s_y > _EPS * y_y and math.isfinite(s_y) and math.isfinite(y_y)):
            return
        h, rows, r_inv = _HISTORY, self.rows, self.lift[:_HISTORY, :_HISTORY]
        slot = self.stored % h
        self.stored += 1
        rows[slot], rows[h + slot] = s, y
        products = rows @ y
        # A full history drops its oldest pair, the leading block of R, and
        # R^-1 keeps its trailing block: the slot's row goes (its column
        # holds only the corner, as no pair is older).  The new pair borders
        # R with the column r = S^T y and the corner s.y, and R^-1 with the
        # column -R^-1 r / s.y and the corner 1 / s.y.
        r_inv[slot] = 0.0
        r_inv[:, slot] = (r_inv @ products[:h]) / -s_y
        r_inv[slot, slot] = 1.0 / s_y
        self.e_y[slot, :h] = self.e_y[:h, slot] = products[h:]
        self.e_d[slot, slot] = s_y
        self.gamma = s_y / y_y
        self.neg_middle = self.lift.T @ ((-self.gamma) * self.e_y - self.e_d) @ self.lift


@dataclass(frozen=True)
class LbfgsResult:
    """Where `minimize` stopped: the point, its value and gradient, the
    iteration and evaluation counts, and why it stopped."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    success: bool
    message: str


def minimize(fun, x0, *, gtol, ftol, max_iter) -> LbfgsResult:
    """Minimize a smooth unconstrained function by limited-memory BFGS.

    ``fun(x)`` returns the value and the gradient.  Directions come from
    `_Pairs`, steps from Armijo backtracking from a unit step (min(1, 1/|g|)
    on the first iteration).  As in scipy's L-BFGS-B, the fit succeeds once
    the gradient max-norm is at most `gtol` or an iteration lowers the
    value by at most `ftol` relative, and fails after `max_iter`
    iterations or when a line search from steepest descent finds no
    decrease.  A non-finite value or gradient fails it at once, and so does
    a slope g.d that is still not finite after the restart from steepest
    descent, since every step along it would read NaN; the result then
    holds the last finite point, or the start if that was not finite.
    ``_train`` calls this by its module-level name, which is where the
    benchmark's tracer counts L-BFGS runs.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, nit = 1, 0
    pairs = _Pairs(x.size)

    def stop(success, message):
        return LbfgsResult(x, f, g, nit, nfev, success, message)

    if not math.isfinite(f):
        return stop(False, "non-finite objective value")
    gnorm = float(np.abs(g).max())
    # Each pass accepts a step, counted against max_iter, or fails a line
    # search; a failure with no pair stored stops, so passes are bounded.
    while True:
        if not math.isfinite(gnorm):
            return stop(False, "non-finite gradient")
        if gnorm <= gtol:
            return stop(True, "gradient max-norm at most gtol")
        if nit and f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return stop(True, "relative reduction of the value at most ftol")
        if nit >= max_iter:
            return stop(False, "iteration limit reached")
        d, slope = _quietly(pairs.descent, g) if gnorm > _LARGE_GRADIENT else pairs.descent(g)
        # rounding or overflow cost H its positive definiteness
        if not -math.inf < slope < 0:
            pairs = _Pairs(x.size)
            d, slope = -g, -float(_quietly(np.matmul, g, g))
        if not math.isfinite(slope):
            return stop(False, "non-finite slope")
        step = 1.0 if nit else min(1.0, 1.0 / math.sqrt(-slope))
        for _ in range(_MAX_TRIALS):
            s = d if step == 1.0 else step * d
            x_new = x + s
            f_new, g_new = fun(x_new)
            nfev += 1
            if not math.isfinite(f_new):
                return stop(False, "non-finite objective value")
            if f_new <= f + _ARMIJO * step * slope:
                break
            # the minimizer of the quadratic through f, slope and f_new,
            # kept within [0.1, 0.5] of the step
            quad = -0.5 * slope * step * step / (f_new - f - slope * step)
            step = min(max(quad, 0.1 * step), 0.5 * step)
        else:
            if not pairs.stored:
                return stop(False, "the line search found no decrease")
            pairs = _Pairs(x.size)
            continue
        gnorm_new = float(np.abs(g_new).max())
        if max(gnorm, gnorm_new) > _LARGE_GRADIENT:
            _quietly(pairs.push, s, g_new - g)
        else:
            pairs.push(s, g_new - g)
        f_old, x, f, g, gnorm = f, x_new, f_new, g_new, gnorm_new
        nit += 1


def _train(xb, lab: _Labels, reg_c, m):
    shape = (m, xb.shape[1])

    def negative(theta_flat):
        value, grad = _objective_parts(theta_flat.reshape(shape), xb, lab, reg_c)
        return -value, -grad.ravel()

    result = minimize(negative, np.zeros(shape).ravel(),
                      gtol=GRAD_TOL, ftol=1e-12, max_iter=MAX_ITER)
    theta = result.x.reshape(shape)
    gnorm = float(np.max(np.abs(result.jac)))
    if not np.isfinite(gnorm) or (not result.success and gnorm > 1e-3):
        raise ConvergenceError(
            f"MTLR optimizer failed: {result.message} "
            f"(gradient max-norm {gnorm:.3g} after {result.nit} iterations)",
            last_iterate=theta,
        )
    return theta, int(result.nit), gnorm


def fit_mtlr(d: SurvivalDataset, grid: TimeGrid, c_candidates) -> MtlrModel:
    """Train on the full dataset after selecting the regularization constant
    by internal cross validation on held-out marginalized log-likelihood.

    With a single candidate the cross validation is skipped.  Training is
    deterministic: the same data yields bitwise-identical parameters.
    """
    c_candidates = tuple(float(c) for c in c_candidates)
    if not c_candidates:
        raise ValueError("need at least one regularization candidate")
    bad = [c for c in c_candidates if not 0 <= c < np.inf]
    if bad:
        raise ValueError(f"regularization constant C must be finite and non-negative, "
                         f"got {bad[0]!r}")
    xb = _with_bias(d.feature_matrix())
    times, events = d.times, d.events
    lab = _encode_labels(times, events, grid)

    cv_scores = ()
    if len(c_candidates) == 1:
        best_c = c_candidates[0]
    else:
        assignment = fold_indices(times, events, min(_CV_FOLDS, len(d)))
        scores = []
        for c in c_candidates:
            total = 0.0
            for fold in range(assignment.max() + 1):
                hold = assignment == fold
                theta, _, _ = _train(xb[~hold], lab.rows(~hold), c, grid.m)
                total += _loglik(theta, xb[hold], lab.rows(hold))[0]
            scores.append(total / len(d))
        cv_scores = tuple(scores)
        best_c = c_candidates[int(np.argmax(scores))]

    theta, iterations, gnorm = _train(xb, lab, best_c, grid.m)
    return MtlrModel(theta, grid, best_c, iterations, gnorm, cv_scores, d.feature_names)


def predict_curve_mtlr(m: MtlrModel, x) -> CurveBatch:
    """Survival curves from the running sum of interval masses, emitted as
    piecewise-linear curves on the grid knots (the batch adds the (0, 1)
    knot): a row per row of the matrix x, one row for a feature vector."""
    xb = _with_bias(np.asarray(x, dtype=float).reshape(-1, m.theta.shape[1] - 1))
    _, tail = _softmax_tail(m.theta, xb)
    surv = np.minimum(tail[1:] / tail[0], 1.0).T  # S(t_i) = P(interval >= i)
    monotone = np.maximum.accumulate(surv[:, ::-1], axis=1)[:, ::-1]
    return CurveBatch(m.grid.points, monotone, "linear")
