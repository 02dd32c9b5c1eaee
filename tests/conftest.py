"""Shared builders for curve and dataset fixtures."""

import numpy as np
import pytest
from scipy.special import ndtr

from isdkit.core import FitError, SurvivalDataset
from isdkit.cox import _BETA_BOUND, _newton, _RiskSets, cox_partial_loglik
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
    """Reference for the univariate Cox filter: one complete-case Newton
    fit and Wald test per column, walking the instances cell by cell, and
    the score test at beta = 0 where the fit fails or |beta| passes the
    bound.  Returns (p-value, |beta| of the standardized feature)."""
    values, keep_times, keep_events = [], [], []
    for inst in d.instances:
        v = inst.features[feature_index]
        if v is None or isinstance(v, str):
            continue
        values.append(float(v))
        keep_times.append(inst.time)
        keep_events.append(inst.event)
    values = np.asarray(values)
    # a column of subnormal values may vary and still have std 0
    if values.size < 2 or np.unique(values).size < 2 or values.std() == 0:
        return 1.0, 0.0
    col = ((values - values.mean()) / values.std()).reshape(-1, 1)
    times = np.asarray(keep_times)
    events = np.asarray(keep_events, dtype=bool)
    if not events.any():
        return 1.0, 0.0
    try:
        beta, info, _, _ = _newton(_RiskSets(col, times, events))
        beta, var = abs(beta[0]), np.linalg.inv(info)[0, 0]
    except (FitError, np.linalg.LinAlgError):
        beta, var = np.inf, np.nan
    if var > 0 and beta <= _BETA_BOUND:
        return 2.0 * ndtr(-beta / np.sqrt(var)), beta
    _, u0, i0 = cox_partial_loglik(np.zeros(1), col, times, events)
    if i0[0, 0] > 0:
        return 2.0 * ndtr(-abs(u0[0]) / np.sqrt(i0[0, 0])), beta
    return 1.0, beta


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
