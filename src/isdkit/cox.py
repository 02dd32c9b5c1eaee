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

from .core import (NEWTON_HALVINGS, NEWTON_STEPS, NEWTON_TOL, FitError, SurvivalDataset,
                   SurvivalModel, accepts, newton_ascent)
from .curves import CurveBatch

__all__ = ["CoxModel", "fit_cox", "predict_curve_cox", "univariate_cox_pvalue",
           "cox_partial_loglik"]


@dataclass(frozen=True)
class CoxModel(SurvivalModel):
    """Fitted Cox model: coefficients plus the KP baseline curve S0, a
    one-row `CurveBatch`."""

    beta: np.ndarray
    baseline: CurveBatch
    iterations: int
    gradient_norm: float
    feature_names: tuple = ()

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        return predict_curve_cox(self, d.feature_matrix())


def _suffix_sum(a):
    return np.cumsum(a[::-1], axis=0)[::-1]


class _RiskSets:
    """One fit's rows in time order, sorted once, with its Breslow death
    structure: the distinct death times, each one's first row at risk (the
    risk set is that row and every later one), its tie count and the summed
    covariates of every death."""

    def __init__(self, x, times, events):
        order = np.argsort(times, kind="stable")
        self.x, ts, es = x[order], times[order], events[order]
        self.death_rows = np.flatnonzero(es)
        self.death_times = np.unique(ts[es])
        self.first = np.searchsorted(ts, self.death_times, side="left")
        # each death time's run of tied rows among the death rows
        self.tie_start = np.searchsorted(ts[es], self.death_times, side="left")
        self.deaths = np.diff(self.tie_start, append=self.death_rows.size).astype(float)
        self.death_x = self.x[self.death_rows].sum(axis=0)

    # a far-off trial may overflow exp or drive a risk-set sum to 0, so its
    # likelihood reads inf or NaN and the line search refuses it
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def partial(self, beta):
        """Log partial likelihood at beta, its gradient and the information
        matrix (the negative Hessian), in one pass."""
        eta = self.x @ beta
        # guard exp overflow during line searches far from the optimum
        shift = eta.max() if eta.size else 0.0
        w = np.exp(eta - shift)
        d = self.deaths
        s0 = _suffix_sum(w)[self.first]
        loglik = float(self.death_x @ beta - d @ (np.log(s0) + shift))
        means = _suffix_sum(w[:, None] * self.x)[self.first] / s0[:, None]
        grad = self.death_x - d @ means
        # sum_j d_j / s0_j * sum_{l in R_j} w_l x_l x_l^T regroups by row:
        # row l carries c_l, the sum of d_j / s0_j over the risk sets holding it
        c = np.zeros(w.size)
        c[self.first] = d / s0
        wc = w * np.cumsum(c)
        info = (wc[:, None] * self.x).T @ self.x - (d[:, None] * means).T @ means
        return loglik, grad, info


def cox_partial_loglik(beta, x, times, events):
    """Breslow log partial likelihood, its gradient and the information
    matrix (the negative Hessian).

    Arrays may be in any order; ties among deaths share one risk-set term
    weighted by the death count.
    """
    risk = _RiskSets(np.asarray(x, dtype=float), np.asarray(times, dtype=float),
                     np.asarray(events, dtype=bool))
    return risk.partial(np.asarray(beta, dtype=float))


# a Cholesky pivot at most this fraction of its diagonal entry means the
# column is, up to rounding, a combination of the columns before it
_PIVOT_TOL = np.finfo(float).eps ** 0.75


def _factor(info):
    """Cholesky factor of the information matrix; FitError when singular."""
    from scipy.linalg import cho_factor
    # a non-finite information (every weight of a risk set underflowed on a
    # diverging fit) fails cho_factor's finiteness check: singular too
    try:
        factor = cho_factor(info, lower=True)
    except (np.linalg.LinAlgError, ValueError):
        factor = None
    if factor is None or np.any(np.diag(factor[0]) ** 2 <= _PIVOT_TOL * np.diag(info)):
        raise FitError("singular information matrix in Cox fit; remove constant or "
                       "collinear features")
    return factor


def _newton(risk):
    """(beta, information, Newton steps, gradient max-norm) of a Cox fit."""
    from scipy.linalg import cho_solve
    if risk.death_rows.size == 0:
        raise FitError("Cox fitting needs at least one uncensored instance")
    fit = newton_ascent(risk.partial, np.zeros(risk.x.shape[1]),
                        lambda info, grad: cho_solve(_factor(info), grad), "Cox")
    _factor(fit[1])
    return fit


def _kp_baseline(beta, risk) -> CurveBatch:
    w = np.exp(risk.x @ beta)
    s0 = _suffix_sum(w)[risk.first]
    wbar = np.add.reduceat(w[risk.death_rows], risk.tie_start) / risk.deaths
    inner = 1.0 - risk.deaths * wbar / s0
    # when every patient at risk dies the factor is exactly 0; rounding may
    # leave inner at +1 ulp, which a large wbar would lift towards 1
    inner[risk.first + risk.deaths == w.size] = 0.0
    alphas = np.maximum(inner, 0.0) ** (1.0 / wbar)
    return CurveBatch(risk.death_times, np.clip(np.cumprod(alphas), 0.0, 1.0), "step")


def fit_cox(d: SurvivalDataset) -> CoxModel:
    """Fit a Cox model by `newton_ascent` (Breslow ties), then attach the
    Kalbfleisch-Prentice baseline at each distinct death time.

    Raises ConvergenceError (carrying the last iterate) when the Newton
    fit fails, and FitError when the information matrix is singular.
    """
    risk = _RiskSets(d.feature_matrix(), d.times, d.events)
    beta, _, iterations, gnorm = _newton(risk)
    baseline = _kp_baseline(beta, risk)
    return CoxModel(beta, baseline, iterations, gnorm, d.feature_names)


def predict_curve_cox(m: CoxModel, x) -> CurveBatch:
    """S(t | x) = S0(t) ** exp(beta . x), evaluated at the baseline knots:
    a row per row of the matrix x, one row for a feature vector."""
    x = np.asarray(x, dtype=float)
    exponent = np.exp(x @ m.beta)
    probs = np.clip(m.baseline.probs ** exponent[..., None], 0.0, 1.0)
    return CurveBatch(m.baseline.knots, probs, "step")


def univariate_cox_pvalue(d: SurvivalDataset, feature_index):
    """Two-sided Wald (or score) p-value for the single-feature Cox coefficient.

    Used as the feature-selection filter: missing cells are dropped
    (complete-case for this feature) and the feature is standardized for
    numeric stability (the Wald z is scale-invariant).  A fit that does not
    converge, whose |beta| passes `_BETA_BOUND` (a column that separates
    the deaths drives beta to infinity), or that stops where it starts,
    at beta = 0 (its Wald z is 0 whatever the data), gets the score
    (log-rank) test at beta = 0 instead, on the column centred where the
    deaths are (see `_score_block`); a column without information at
    beta = 0 gets p = 1, so it is never selected.

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

# |beta| of a standardized column past this (a hazard ratio above e**10 per
# standard deviation) is taken as a fit diverging on a separating column
_BETA_BOUND = 10.0


def _wald_pvalues(x, times, events):
    """Wald p-values of every column of `x` (NaN = missing) as a
    univariate Cox covariate; rows share one time order."""
    order = np.argsort(times, kind="stable")
    ts, es = times[order], events[order]
    p = np.ones(x.shape[1])
    block = max(1, _BLOCK_CELLS // max(ts.size, 1))
    for start in range(0, x.shape[1], block):
        cols = np.ascontiguousarray(x[:, start:start + block].T)
        p[start:start + block] = _wald_block(cols, order, ts, es)
    return p


def _wald_block(cols, order, ts, es):
    """`_newton` and the Wald (or score) test on one column at a time,
    run on every column of `cols` (columns × rows) at once.

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
        # a column of subnormal values may vary and still have std 0
        sd = values.std()
        if sd == 0:
            continue
        # the complete cases in input order, as one scalar fit sees them
        z[c, keep] = (values - values.mean()) / sd
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

    # a diverging fit (a separating column) may drive a risk-set sum to 0,
    # so its likelihood reads +inf; the line search accepts only a finite
    # candidate, discarding the derivatives computed with it, and such a
    # column gets the score test below
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def partial(rows, beta):
        """(loglik, grad, info) of the columns `rows` at beta, in one pass."""
        zr, wr, dr = z[rows], weight[rows], deaths[rows]
        eta = zr * beta[:, None]
        shift = np.where(wr > 0, eta, -np.inf).max(axis=1)
        ws = np.exp(eta - shift[:, None]) * wr
        s0 = np.where(dr > 0, _risk_sums(ws, first), 1.0)
        loglik = (np.take(eta, death_rows, axis=1).sum(axis=1)
                  - (dr * (np.log(s0) + shift[:, None])).sum(axis=1))
        mean = _risk_sums(ws * zr, first) / s0
        grad = death_z[rows] - (dr * mean).sum(axis=1)
        info = (dr * (_risk_sums(ws * zr * zr, first) / s0 - mean * mean)).sum(axis=1)
        return loglik, grad, info

    beta = np.zeros(z.shape[0])
    loglik, grad, info = partial(slice(None), beta)
    active = np.ones(beta.size, dtype=bool)
    converged = np.zeros(beta.size, dtype=bool)
    for _ in range(NEWTON_STEPS):
        done = active & (np.abs(grad) < NEWTON_TOL)
        converged |= done & (info > 0)
        active &= ~done & (info > 0)   # a singular information ends the fit
        pending = np.flatnonzero(active)
        if pending.size == 0:
            break
        step = grad[pending] / info[pending]
        scale = np.ones(pending.size)
        for _ in range(NEWTON_HALVINGS):
            candidate = beta[pending] + scale * step
            # while every column is searching, views replace fancy-index copies
            trial = partial(slice(None) if pending.size == beta.size else pending, candidate)
            took = accepts(trial[0], loglik[pending])
            rows = pending[took]
            beta[rows] = candidate[took]
            loglik[rows], grad[rows], info[rows] = (a[took] for a in trial)
            pending, step, scale = pending[~took], step[~took], scale[~took] * 0.5
            if pending.size == 0:
                break
        active[pending] = False            # step halving failed
    else:
        converged |= active & (np.abs(grad) < NEWTON_TOL) & (info > 0)

    wald = converged & (np.abs(beta) <= _BETA_BOUND) & (beta != 0)     # so info > 0
    score = np.flatnonzero(~wald)
    u0, i0 = _score_block(z[score], present[score], deaths[score], death_rows, first)
    score, u0, i0 = score[i0 > 0], u0[i0 > 0], i0[i0 > 0]
    p_usable = np.ones(beta.size)
    # the lower tail: no cancellation for large z
    p_usable[wald] = 2.0 * ndtr(-(np.abs(beta[wald]) / np.sqrt(1.0 / info[wald])))
    p_usable[score] = 2.0 * ndtr(-(np.abs(u0) / np.sqrt(i0)))
    p[usable] = p_usable
    return p


def _risk_sums(a, first):
    """Risk-set sums of each row of `a` (columns × time-sorted rows): its
    suffix sums at each death time's first row at risk, which `first`
    counts from the last row."""
    return np.take(np.cumsum(a[:, ::-1], axis=1), first, axis=1)


def _score_block(z, present, deaths, death_rows, first):
    """The score test's U(0) and I(0) of every column of `z` (columns ×
    time-sorted rows), with the death structure of `_wald_block`.

    I(0) sums the variances of the risk sets, and a second moment less a
    squared mean loses them to rounding when the column's values at risk
    sit far from its mean: a row censored before every death may set the
    column's mean and spread.  So each column is centred on the median of
    its values at risk at its first death, which is exact for a column
    constant there, and scaled by their largest deviation.  Every later
    risk set is part of that one, so no second moment passes n times its
    variance, while I(0) is at least that variance: the digits rounding
    costs I(0) grow with log10(n) alone, whatever the column's other
    values.
    """
    centred = np.zeros(z.shape)
    for c, (col, keep, d) in enumerate(zip(z, present, deaths)):
        start = z.shape[1] - 1 - first[np.argmax(d > 0)]
        at_risk = col[start:]
        dev = at_risk - np.median(at_risk[keep[start:]])
        spread = np.abs(dev[keep[start:]]).max()
        if spread > 0:                     # else U(0) = I(0) = 0: p = 1
            centred[c, start:] = np.where(keep[start:], dev / spread, 0.0)
    s0 = np.where(deaths > 0, _risk_sums(present.astype(float), first), 1.0)
    mean = _risk_sums(centred, first) / s0
    u0 = np.take(centred, death_rows, axis=1).sum(axis=1) - (deaths * mean).sum(axis=1)
    i0 = (deaths * (_risk_sums(centred * centred, first) / s0 - mean * mean)).sum(axis=1)
    return u0, i0
