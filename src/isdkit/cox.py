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
from scipy.special import ndtr

from .core import (
    ConvergenceError,
    FitError,
    SurvivalCurve,
    SurvivalDataset,
    SurvivalModel,
)
from .curves import CurveBatch

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

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        return predict_curve_cox(self, d.feature_matrix())


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


def predict_curve_cox(m: CoxModel, x) -> CurveBatch:
    """S(t | x) = S0(t) ** exp(beta . x), evaluated at the baseline knots:
    a row per row of the matrix x, one row for a feature vector."""
    x = np.asarray(x, dtype=float)
    exponent = np.exp(x @ m.beta)
    probs = np.clip(m.baseline.probs ** exponent[..., None], 0.0, 1.0)
    return CurveBatch(m.baseline.times, probs, "step")


def univariate_cox_pvalue(d: SurvivalDataset, feature_index):
    """Two-sided Wald p-value for the single-feature Cox coefficient.

    Used as the feature-selection filter: missing cells are dropped
    (complete-case for this feature), the feature is standardized for
    numeric stability (the Wald z is scale-invariant), and any degenerate
    or non-convergent fit maps to p = 1 so the feature is never selected.

    An int `feature_index` gives one float; a sequence of indices gives an
    array of p-values, fitted together by one lockstep Newton run.
    """
    if isinstance(feature_index, (int, np.integer)):
        return float(_wald_pvalues(d.values[:, [feature_index]], d.times, d.events)[0])
    idx = np.asarray(feature_index, dtype=np.intp)
    return _wald_pvalues(d.values[:, idx], d.times, d.events)


# columns are fitted in blocks of at most this many cells, so the working
# arrays stay a few MB whatever the number of columns
_BLOCK_CELLS = 1 << 20


def _wald_pvalues(x, times, events, max_iter=100, tol=1e-8):
    """Wald p-values of every column of `x` (NaN = missing) as a
    univariate Cox covariate; rows share one time order."""
    order = np.argsort(times, kind="stable")
    ts, es = times[order], events[order]
    p = np.ones(x.shape[1])
    block = max(1, _BLOCK_CELLS // max(ts.size, 1))
    for start in range(0, x.shape[1], block):
        cols = np.ascontiguousarray(x[:, start:start + block].T)
        p[start:start + block] = _wald_block(cols, order, ts, es, max_iter, tol)
    return p


def _wald_block(cols, order, ts, es, max_iter, tol):
    """`_newton_cox` and the Wald test on one column at a time, run on
    every column of `cols` (columns × rows) at once.

    A missing cell gives its row weight 0, so each column sees exactly its
    complete cases: the same risk sets, suffix sums and Breslow tie counts.
    """
    present = ~np.isnan(cols)
    z = np.zeros(cols.shape)
    usable = np.zeros(cols.shape[0], dtype=bool)
    for c, (col, keep) in enumerate(zip(cols, present)):
        values = col[keep]
        if values.size < 2 or values.min() == values.max():
            continue
        # the complete cases in input order, as one scalar fit sees them
        z[c, keep] = (values - values.mean()) / values.std()
        usable[c] = True
    present, z = np.take(present, order, axis=1), np.take(z, order, axis=1)
    usable &= (present & es).any(axis=1)
    p = np.ones(cols.shape[0])
    if not usable.any():
        return p
    present, z = present[usable], z[usable]
    weight = present.astype(float)

    # np.take keeps row slices C-contiguous, so each row sum below is the
    # pairwise sum a one-column fit takes over the same numbers
    death_rows = np.flatnonzero(es)
    death_times = np.unique(ts[es])
    # position in the reversed rows of each death time's first row at risk
    first = ts.size - 1 - np.searchsorted(ts, death_times, side="left")
    # deaths of each column at each distinct death time
    deaths = np.add.reduceat(np.take(weight, death_rows, axis=1),
                             np.searchsorted(ts[es], death_times), axis=1)
    death_z = np.take(z, death_rows, axis=1).sum(axis=1)

    # a diverging fit (a separating column) may drive a risk-set sum to 0;
    # its likelihood turns non-finite, the step is refused and p = 1
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def partial(rows, beta, derivatives):
        zr, wr, dr = z[rows], weight[rows], deaths[rows]
        eta = zr * beta[:, None]
        shift = np.where(wr > 0, eta, -np.inf).max(axis=1)
        ws = np.exp(eta - shift[:, None]) * wr

        def at_deaths(a):   # risk-set sums: suffix sums of time-sorted rows
            return np.take(np.cumsum(a[:, ::-1], axis=1), first, axis=1)

        s0 = np.where(dr > 0, at_deaths(ws), 1.0)
        loglik = (np.take(eta, death_rows, axis=1).sum(axis=1)
                  - (dr * (np.log(s0) + shift[:, None])).sum(axis=1))
        if not derivatives:
            return loglik
        mean = at_deaths(ws * zr) / s0
        grad = death_z[rows] - (dr * mean).sum(axis=1)
        info = (dr * (at_deaths(ws * zr * zr) / s0 - mean * mean)).sum(axis=1)
        return loglik, grad, info

    beta = np.zeros(z.shape[0])
    loglik, grad, info = partial(slice(None), beta, True)
    active = np.ones(beta.size, dtype=bool)
    converged = np.zeros(beta.size, dtype=bool)
    for _ in range(max_iter):
        done = active & (np.abs(grad) < tol)
        converged |= done & (info > 0)
        active &= ~done & (info > 0)   # a singular information ends the fit
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        step = grad[rows] / info[rows]
        floor = loglik[rows] - 1e-10 * (1.0 + np.abs(loglik[rows]))
        scale = np.ones(rows.size)
        candidate = beta[rows].copy()
        pending = np.arange(rows.size)
        for _ in range(40):
            candidate[pending] = beta[rows[pending]] + scale[pending] * step[pending]
            new_loglik = partial(rows[pending], candidate[pending], False)
            pending = pending[~(new_loglik >= floor[pending])]
            if pending.size == 0:
                break
            scale[pending] *= 0.5
        active[rows[pending]] = False      # step halving failed
        accepted = np.setdiff1d(np.arange(rows.size), pending)
        rows = rows[accepted]
        beta[rows] = candidate[accepted]
        loglik[rows], grad[rows], info[rows] = partial(rows, beta[rows], True)
    else:
        converged |= active & (np.abs(grad) < tol) & (info > 0)

    with np.errstate(divide="ignore"):
        var = 1.0 / info
    ok = converged & (var > 0)
    p_usable = np.ones(beta.size)
    # the lower tail: no cancellation for large z
    p_usable[ok] = 2.0 * ndtr(-(np.abs(beta[ok]) / np.sqrt(var[ok])))
    p[usable] = p_usable
    return p
