"""Shared builders for curve and dataset fixtures."""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from isdkit.core import FitError, SurvivalDataset
from isdkit.cox import _BETA_BOUND, _newton, _RiskSets
from isdkit.curves import CurveBatch


def step_curve(times, probs):
    return CurveBatch(np.asarray(times, float), np.asarray(probs, float), "step")


def linear_curve(times, probs):
    return CurveBatch(np.asarray(times, float), np.asarray(probs, float), "linear")


def dataset(times, events, x=None):
    times = np.asarray(times, float)
    if x is None:
        x = np.zeros((times.size, 1))
    return SurvivalDataset.from_arrays(x, times, events)


def scalar_cox_fit(d, feature_index):
    """Reference for the univariate Cox filter: one Newton fit and Wald test
    per column on its rows at risk (its complete cases at or after its
    first death), walking the instances cell by cell, and the score test at
    beta = 0, computed exactly on the raw values at risk, where the fit
    fails, |beta| passes the bound, the fit stops at beta = 0 or the column
    separates the deaths.  Returns (p-value, |beta| of the feature
    standardized at risk)."""
    cells = [(inst.features[feature_index], inst.time, inst.event) for inst in d.instances]
    rows = [(float(v), t, e) for v, t, e in cells if v is not None and not isinstance(v, str)]
    deaths = [t for _, t, e in rows if e]
    if not deaths:
        return 1.0, 0.0
    at_risk = [row for row in rows if row[1] >= min(deaths)]
    values, times, events = (np.asarray(a) for a in zip(*at_risk))
    events = events.astype(bool)
    # a column of subnormal values may vary and still have std 0
    if np.unique(values).size < 2 or values.std() == 0:
        return 1.0, 0.0
    col = ((values - values.mean()) / values.std()).reshape(-1, 1)
    try:
        beta, info, _, _ = _newton(_RiskSets(col, times, events))
        beta, var = abs(beta[0]), np.linalg.inv(info)[0, 0]
    except (FitError, np.linalg.LinAlgError):
        beta, var = np.inf, np.nan
    if var > 0 and 0 < beta <= _BETA_BOUND and not separates(values, times, events):
        return 2.0 * ndtr(-beta / np.sqrt(var)), beta
    u0, i0 = exact_score_test(values, times, events)
    if i0 > 0:
        return 2.0 * ndtr(-np.sqrt(float(u0 * u0 / i0))), beta
    return 1.0, beta


def separates(values, times, events):
    """Whether every death holds the largest value at risk, or every death
    the smallest: the partial likelihood then rises to beta = +inf or -inf."""
    at_risk = [(v, values[times >= t]) for v, t in zip(values[events], times[events])]
    return (all(v == risk.max() for v, risk in at_risk)
            or all(v == risk.min() for v, risk in at_risk))


def exact_score_test(values, times, events):
    """U(0) and I(0) of the Breslow score test on one column, in exact
    rational arithmetic, one death time at a time."""
    u0 = i0 = Fraction(0)
    for t in np.unique(times[events]):
        at_risk = [Fraction(v) for v in values[times >= t]]
        dead = [Fraction(v) for v in values[(times == t) & events]]
        mean = sum(at_risk) / len(at_risk)
        u0 += sum(dead) - len(dead) * mean
        i0 += len(dead) * (sum(v * v for v in at_risk) / len(at_risk) - mean * mean)
    return u0, i0


def exact_kp_hazard(x, beta, times, events):
    """The distinct death times and the Kalbfleisch-Prentice cumulative
    baseline hazard H0 at each, in 60-digit decimal arithmetic, one death
    time at a time: H0 grows by -log(1 - q_j) / wbar_j, where q_j is the
    deaths' share of the weight at risk; it is infinite from a death time
    at which everyone at risk dies.  x . beta is exact in the float inputs.
    For q_j <= 1/2, 1 - q_j is formed at a precision that keeps all 60
    digits of q_j; past 1/2, 1 - q_j is the weight at risk that does not
    die, summed directly, over the weight at risk."""
    with localcontext() as ctx:
        ctx.prec = 60
        rows = np.asarray(x, float).reshape(len(times), -1)
        w = np.array([sum((Decimal(float(v)) * Decimal(float(b)) for v, b in zip(row, beta)),
                          Decimal(0)).exp() for row in rows])
        death_times, hazard, h0 = np.unique(times[events]), [], Decimal(0)
        for t in death_times:
            at_risk, dead = times >= t, (times == t) & events
            s0, dead_sum = sum(w[at_risk], Decimal(0)), sum(w[dead], Decimal(0))
            q = dead_sum / s0
            if not (at_risk & ~dead).any():
                h0 = Decimal("Infinity")
            elif h0.is_finite():
                if q > Decimal("0.5"):
                    log_rest = (sum(w[at_risk & ~dead], Decimal(0)) / s0).ln()
                else:
                    with localcontext() as wide:
                        wide.prec = 60 - q.adjusted()
                        log_rest = (1 - q).ln()
                h0 -= log_rest / (dead_sum / int(dead.sum()))
            hazard.append(h0)
    return death_times, hazard


def scalar_cox_pvalue(d, feature_index):
    return scalar_cox_fit(d, feature_index)[0]


def random_curve(rng, interp=None, allow_zero_end=True):
    """A random valid survival curve with a few knots, as a one-row batch."""
    n = rng.integers(1, 8)
    times = np.sort(rng.uniform(0.5, 100.0, size=n))
    times = np.unique(times)
    probs = np.sort(rng.uniform(0.0, 1.0, size=times.size))[::-1]
    if not allow_zero_end:
        probs = np.clip(probs, 0.05, 0.95)
    probs = np.sort(probs)[::-1]
    kind = interp or rng.choice(["step", "linear"])
    return CurveBatch(times, probs, kind)


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
