"""Product-limit estimators: population survival, the censoring
distribution G-hat, and within-subset curves for calibration tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, SurvivalDataset, SurvivalModel
from .curves import CurveBatch, survival_at

__all__ = ["KMCurve", "KaplanMeierModel", "fit_km", "fit_km_arrays",
           "fit_censoring_km", "km_at"]


@dataclass(frozen=True)
class KMCurve:
    """A Kaplan-Meier curve plus its risk table.

    ``times`` holds every distinct observed time; ``at_risk``, ``deaths``
    and ``censored`` are aligned counts.  The step curve, a one-row
    `CurveBatch`, has the knot (0, 1) and then knots only at times with at
    least one death (or a single knot at probability 1 at the last time
    when there are no deaths at all); a death at time 0 makes the first
    knot (0, S(0)).
    """

    curve: CurveBatch
    times: np.ndarray
    at_risk: np.ndarray
    deaths: np.ndarray
    censored: np.ndarray


def fit_km_arrays(times: np.ndarray, events: np.ndarray) -> KMCurve:
    """Product-limit fit straight from aligned (times, events) arrays."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    if times.size == 0:
        raise ValueError("cannot fit a Kaplan-Meier curve on an empty dataset")
    utimes, inverse = np.unique(times, return_inverse=True)
    deaths = np.bincount(inverse, weights=events.astype(float), minlength=utimes.size)
    total = np.bincount(inverse, minlength=utimes.size).astype(float)
    censored = total - deaths
    left_before = np.concatenate(([0.0], np.cumsum(total)[:-1]))
    at_risk = times.size - left_before

    # censored-at-t instances leave the risk set only after deaths at t
    factors = 1.0 - deaths / at_risk
    surv = np.cumprod(factors)

    has_death = deaths > 0
    if np.any(has_death):
        knot_t = utimes[has_death]
        knot_p = surv[has_death]
    else:
        knot_t = utimes[-1:]
        knot_p = np.array([1.0])
    curve = CurveBatch(knot_t, np.clip(knot_p, 0.0, 1.0), "step")
    for arr in (utimes, at_risk, deaths, censored):
        arr.setflags(write=False)
    return KMCurve(curve, utimes, at_risk, deaths, censored)


def fit_km(d: SurvivalDataset) -> KMCurve:
    """Standard product-limit estimate of the survival distribution."""
    return fit_km_arrays(d.times, d.events)


def fit_censoring_km(d: SurvivalDataset) -> KMCurve:
    """Kaplan-Meier curve of the censoring distribution: identical to
    `fit_km` with the event indicators flipped."""
    return fit_km_arrays(d.times, ~d.events)


def km_at(k: KMCurve, t):
    """Right-continuous step evaluation of a KM curve at time(s) t."""
    return survival_at(k.curve, t)


class KaplanMeierModel(SurvivalModel):
    """The population KM curve served as everyone's prediction."""

    def __init__(self, km: KMCurve):
        self.km = km

    @classmethod
    def fit(cls, d: SurvivalDataset) -> "KaplanMeierModel":
        return cls(fit_km(d))

    def predict_curve(self, inst: Instance) -> CurveBatch:
        # the shared curve itself; no run path calls this row API, which stays
        # only while bench/tracer.py still resolves it by name
        return self.km.curve

    def predict_curves(self, d: SurvivalDataset) -> CurveBatch:
        """The KM curve as one row that every instance shares."""
        return self.km.curve
