"""Cox proportional hazards fitting and its survival-distribution form.

The partial likelihood is maximized by safeguarded Newton-Raphson with
Breslow tie handling.  A discrete Kalbfleisch-Prentice baseline then turns
the risk model into a full survival-curve predictor: at each distinct
death time the multiplicative survival factor solves the KP
self-consistency equation, using the closed form

    alpha_j = (1 - d_j * wbar_j / sum_{l in R_j} w_l) ** (1 / wbar_j)

where w = exp(beta . x) and wbar_j averages w over the deaths tied at t_j.
With a single death this is the exact KP solution, and with all
coefficients zero it reduces exactly to the Kaplan-Meier factors.  The
baseline is kept as log H0(t_j) = log sum_{k <= j} -log alpha_k, and a
patient's curve S0(t) ** exp(x . beta) as exp(-exp(x . beta + log H0(t))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (NEWTON_HALVINGS, NEWTON_STEPS, NEWTON_TOL, FitError, SurvivalDataset,
                   SurvivalModel, accepts, newton_ascent)
from .curves import CurveBatch

__all__ = ["CoxModel", "fit_cox", "predict_curve_cox", "univariate_cox_pvalue",
           "cox_partial_loglik"]


@dataclass(frozen=True)
class CoxModel(SurvivalModel):
    """Fitted Cox model: coefficients plus the KP baseline curve S0, a
    one-row `CurveBatch` in hazard form at eta = 0."""

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
    """Lower Cholesky factor of the information matrix; FitError when singular."""
    # a non-finite information (every weight of a risk set underflowed on a
    # diverging fit) is singular too, but numpy's cholesky factors NaN and
    # inf without refusing them
    try:
        factor = np.linalg.cholesky(info) if np.isfinite(info).all() else None
    except np.linalg.LinAlgError:
        factor = None
    if factor is None or np.any(np.diag(factor) ** 2 <= _PIVOT_TOL * np.diag(info)):
        raise FitError("singular information matrix in Cox fit; remove constant or "
                       "collinear features")
    return factor


def _newton_step(info, grad):
    factor = _factor(info)
    return np.linalg.solve(factor.T, np.linalg.solve(factor, grad))


def _newton(risk):
    """(beta, information, Newton steps, gradient max-norm) of a Cox fit."""
    if risk.death_rows.size == 0:
        raise FitError("Cox fitting needs at least one uncensored instance")
    fit = newton_ascent(risk.partial, np.zeros(risk.x.shape[1]), _newton_step, "Cox")
    _factor(fit[1])
    return fit


def _log_hazard_steps(share, log_kept, deaths):
    """log(s0_j * the step of H0 at each death time t_j), s0_j being the
    weight at risk, from the deaths' share of s0_j and log_kept =
    log(s0_j / the weight at risk that does not die)."""
    # -log(alpha_j) * wbar_j = -log(rest_j / s0_j), without cancellation
    term = np.where(share <= 0.5, -np.log1p(-np.minimum(share, 0.5)), log_kept)
    # -log(alpha_j) = (term / share) * d_j / s0_j; term / share tends to 1
    # when the deaths' weights underflow
    per_share = np.divide(term, share, out=np.ones_like(share), where=share > 0)
    return np.log(per_share * deaths)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _kp_baseline(beta, risk) -> CurveBatch:
    # every risk-set sum is taken in logs, each term shifted by the larger
    # of the two it adds, as np.logaddexp does, so that no risk set far
    # below the fold's largest x . beta, and no survivors far below their
    # risk set's deaths, underflow
    eta = risk.x @ beta
    dead = np.zeros(eta.size, dtype=bool)
    dead[risk.death_rows] = True
    log_s0 = np.logaddexp.accumulate(eta[::-1])[::-1][risk.first]
    # the weight at risk that does not die at t_j: the rows censored from
    # t_j up to the next death time, and every row from there on; -inf when
    # everyone at risk dies, so that H0 = inf from t_j on
    log_rest = np.logaddexp(np.logaddexp.reduceat(np.where(dead, -np.inf, eta), risk.first),
                            np.append(log_s0[1:], -np.inf))
    log_dead = np.logaddexp.reduceat(eta[risk.death_rows], risk.tie_start)
    log_h = _log_hazard_steps(np.exp(log_dead - log_s0), log_s0 - log_rest,
                              risk.deaths) - log_s0
    return CurveBatch(risk.death_times, np.logaddexp.accumulate(log_h), "step", eta=[0.0])


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
    """S(t | x) = S0(t) ** exp(x . beta) at the baseline knots, in hazard
    form with eta = x . beta: a row per row of the matrix x, one row for a
    feature vector.  A NaN feature cell is refused, naming its row."""
    eta = (np.asarray(x, dtype=float) @ m.beta).reshape(-1)
    return CurveBatch(m.baseline.knots, m.baseline.base, "step", eta=eta)


def univariate_cox_pvalue(d: SurvivalDataset, feature_index):
    """Two-sided Wald (or score) p-value for the single-feature Cox coefficient.

    Used as the feature-selection filter.  A feature is fitted on its rows
    at risk, its complete cases at or after its first death, and is
    standardized on them for numeric stability (the Wald z is
    scale-invariant); a row in no risk set changes no bit of p.  A fit that
    does not converge, whose |beta| passes `_BETA_BOUND`, that stops where
    it starts, at beta = 0 (its Wald z is 0 whatever the data), or whose
    column separates the deaths (every death holds the largest raw value at
    risk, or every death the smallest, so the likelihood rises to beta =
    ±inf) gets the score (log-rank) test at beta = 0 instead, read off the
    fit's first pass; a column without information at beta = 0 gets p = 1,
    so it is never selected.

    An int `feature_index` gives one float; a sequence of indices gives an
    array of p-values, fitted together by one lockstep Newton run.
    """
    if isinstance(feature_index, (int, np.integer)):
        return float(_wald_pvalues(d.values, [feature_index], d.times, d.events)[0])
    return _wald_pvalues(d.values, np.asarray(feature_index, dtype=np.intp), d.times, d.events)


# columns are fitted in blocks of at most this many cells: each working array
# of a block is then 256 KB, so a handful of them stay in a 1 MB L2 cache.
# On cox-wide training folds (1,600 rows x 102 columns, a 2-vCPU AMD EPYC),
# 1 << 15 was the fastest of the sizes 1 << 13 to 1 << 20 (10.8 ms a fold,
# against 13.8 ms at 1 << 20) and peaked at 2.6 MB under tracemalloc
# (12.7 MB at 1 << 20); columns are fitted independently, so the p-values
# are the same bits at every size
_BLOCK_CELLS = 1 << 15

# |beta| of a standardized column past this (a hazard ratio above e**10 per
# standard deviation) is taken as a fit diverging on a nearly separating column
_BETA_BOUND = 10.0


def _wald_pvalues(x, columns, times, events):
    """Wald (or score) p-values of the `columns` of `x` (NaN = missing), each
    as a univariate Cox covariate; rows share one time order.  The columns
    are gathered a block at a time, never all at once."""
    order = np.argsort(times, kind="stable")
    ts, es = times[order], events[order]
    p = np.ones(len(columns))
    if not es.any():                       # no risk set: nothing to test
        return p
    block = max(1, _BLOCK_CELLS // ts.size)
    for start in range(0, len(columns), block):
        # np.take gives C-contiguous time-sorted rows, one per column
        p[start:start + block] = _wald_block(
            np.take(x[:, columns[start:start + block]].T, order, axis=1), ts, es)
    return p


def _wald_block(cols, ts, es):
    """`_newton` and the Wald (or score) test on one column at a time, run
    on every column of `cols` (columns × time-sorted rows, overwritten) at
    once.

    Each column gives weight only to its rows at risk, its complete cases
    at or after its first death, and is centred and scaled on them: it sees
    exactly its risk sets and Breslow tie counts, and a row in no risk set
    drops out before any arithmetic.  The beta = 0 pass that starts the
    Newton run gives the score test's U(0) and I(0).  On this scale no
    risk set's second moment passes n, while I(0) is at least the first
    death's count, so I(0) loses digits with log10(n) alone.
    """
    death_rows = np.flatnonzero(es)
    death_times = np.unique(ts[es])
    # each death time's first row at risk, counted from the last row
    first = ts.size - 1 - np.searchsorted(ts, death_times, side="left")
    weight, dead, separates = _at_risk(cols, ts, es)
    usable = weight.any(axis=1)
    if not usable.all():             # so that a search of every column can use views
        cols, weight, dead, separates = (a[usable] for a in (cols, weight, dead, separates))
    deaths = np.add.reduceat(dead, np.searchsorted(ts[es], death_times), axis=1, dtype=float)

    z = cols                                         # standardized in place
    z[~weight] = 0.0
    count = weight.sum(axis=1)
    z -= (z.sum(axis=1) / count)[:, None]
    z *= weight
    # a column of subnormal values may vary and still have sd 0: z = 0 then
    sd = np.sqrt(np.einsum("ij,ij->i", z, z) / count)
    z /= np.where(sd > 0, sd, np.inf)[:, None]
    # np.take keeps row slices C-contiguous, so each row sum below is the
    # pairwise sum a one-column fit takes over the same numbers
    death_z = np.take(z, death_rows, axis=1).sum(axis=1)

    # a diverging fit (a separating column) may drive a risk-set sum to 0,
    # so its likelihood reads +inf; the line search accepts only a finite
    # candidate, discarding the derivatives computed with it
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def partial(rows, beta):
        """(loglik, grad, info) of the columns `rows` at beta, in one pass."""
        zr, wr, dr = z[rows], weight[rows], deaths[rows]
        eta = zr * beta[:, None]
        shift = np.where(wr, eta, -np.inf).max(axis=1)
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
    u0, i0 = grad.copy(), info.copy()
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

    # converged, so info > 0
    wald = converged & (np.abs(beta) <= _BETA_BOUND) & (beta != 0) & ~separates
    score = ~wald & (i0 > 0)
    p_usable = np.ones(beta.size)
    p_usable[wald] = _normal_tails(np.abs(beta[wald]) / np.sqrt(1.0 / info[wald]))
    p_usable[score] = _normal_tails(np.abs(u0[score]) / np.sqrt(i0[score]))
    p = np.ones(usable.size)
    p[usable] = p_usable
    return p


_SQRT_HALF = math.sqrt(0.5)   # the double nearest 1/sqrt(2), as M_SQRT1_2


def _normal_tails(z):
    """The two-sided normal tails 2 Phi(-z) = erfc(z / sqrt 2) of the
    values z >= 0: the upper tail, so that large z loses no digits.  z is
    scaled by sqrt(1/2), as scipy's `ndtr` does, so that only the erfc
    implementations differ."""
    return np.array([math.erfc(v * _SQRT_HALF) for v in z.tolist()])


def _risk_sums(a, first, reduce=np.add):
    """Risk-set sums, or another `reduce` such as np.fmax, of each row of
    `a` (columns × time-sorted rows): its suffix reductions at the first
    rows at risk (of each death time, or of each death) that `first`
    counts from the last row."""
    return np.take(reduce.accumulate(a[:, ::-1], axis=1), first, axis=1)


def _at_risk(cols, ts, es):
    """(weight, dead, separates) of every column of `cols` (columns ×
    time-sorted rows, NaN = missing): True at its rows at risk, its
    complete cases at or after its first death, and at its present deaths;
    and whether every death holds the largest value at risk, or every death
    the smallest.  Raw values are compared, so that rounding cannot make a
    tie.  A column without a death, or constant at risk, has no information
    at beta = 0 and gets no row."""
    starts = np.searchsorted(ts, ts[es], side="left")    # each death's first row at risk
    death_cells = np.take(cols, np.flatnonzero(es), axis=1)
    dead = ~np.isnan(death_cells)
    hi, lo = (_risk_sums(cols, ts.size - 1 - starts, extreme) for extreme in (np.fmax, np.fmin))
    separates = ~(death_cells < hi).any(axis=1) | ~(death_cells > lo).any(axis=1)
    k0 = dead.argmax(axis=1)                              # each column's first death
    c = np.arange(k0.size)
    usable = dead[c, k0] & (hi[c, k0] > lo[c, k0])
    weight = ~np.isnan(cols) & (np.arange(ts.size) >= starts[k0][:, None]) & usable[:, None]
    return weight, dead, separates
