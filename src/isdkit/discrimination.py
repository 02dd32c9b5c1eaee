"""Concordance with censoring-aware comparable pairs, and the L1-loss
family (uncensored, hinge, margin, and log variants).

A pair is comparable when the earlier recorded time belongs to a death, so
its survival order is known; tied death times also count, scored 0.5, as
are tied risk scores (the Kendall-tau option, which gives any constant
predictor a score of exactly 0.5).  The margin loss replaces each censored
target with the Best-Guess conditional expected death time taken from the
training Kaplan-Meier curve, weighted by alpha = 1 - S_KM(c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SurvivalDataset
from .curves import CurveBatch, survival_at

__all__ = [
    "MarginWeights",
    "concordance",
    "count_comparable_pairs",
    "l1_uncensored",
    "l1_hinge",
    "l1_margin",
    "l1_log",
    "best_guess",
    "margin_weights",
    "default_eta",
]


def _pair_masks(times: np.ndarray, events: np.ndarray):
    lt = times[:, None] < times[None, :]
    ordered = lt & events[:, None]
    both_deaths = events[:, None] & events[None, :]
    tied = (times[:, None] == times[None, :]) & both_deaths
    tied &= np.triu(np.ones_like(tied, dtype=bool), k=1)  # count each pair once
    return ordered, tied


def count_comparable_pairs(v: SurvivalDataset) -> int:
    """Number of pairs whose survival order is identifiable (including
    tied-death pairs)."""
    ordered, tied = _pair_masks(v.times, v.events)
    return int(ordered.sum() + tied.sum())


def _aligned(v: SurvivalDataset, values) -> np.ndarray:
    """``values`` as floats, refused unless it holds one entry per instance."""
    values = np.asarray(values, dtype=float)
    if values.shape != (len(v),):
        raise ValueError(f"{values.size} predictions of shape {values.shape} "
                         f"for {len(v)} instances")
    return values


def concordance(v: SurvivalDataset, risks) -> float:
    """Fraction of comparable pairs ranked correctly by the risk scores,
    one per instance of v; ties in risk or in death time score 0.5.  A NaN
    risk is refused: its pairs would count as comparable but never score."""
    risks = _aligned(v, risks)
    if (nan := np.flatnonzero(np.isnan(risks))).size:
        raise ValueError(f"{nan.size} NaN risk score(s), the first at index {nan[0]}")
    times, events = v.times, v.events
    ordered, tied = _pair_masks(times, events)
    n_pairs = ordered.sum() + tied.sum()
    if n_pairs == 0:
        raise ValueError("no comparable pairs; concordance is undefined")
    correct = (risks[:, None] > risks[None, :]) & ordered
    tied_risk = (risks[:, None] == risks[None, :]) & ordered
    score = correct.sum() + 0.5 * tied_risk.sum() + 0.5 * tied.sum()
    return float(score / n_pairs)


def l1_uncensored(v_u: SurvivalDataset, medians) -> float:
    """Mean absolute error between death times and predicted medians."""
    med = _aligned(v_u, medians)
    if len(v_u) == 0:
        raise ValueError("uncensored L1-loss needs at least one instance")
    if not v_u.events.all():
        raise ValueError("uncensored L1-loss is only defined on uncensored data")
    return float(np.mean(np.abs(v_u.times - med)))


def l1_hinge(v: SurvivalDataset, medians) -> float:
    """L1 with hinge handling of censoring: a censored instance costs
    max(c - median, 0), i.e. nothing unless the prediction undershoots the
    censor time (an optimistic lower bound on the true loss)."""
    med = _aligned(v, medians)
    times, events = v.times, v.events
    per = np.where(events, np.abs(times - med), np.maximum(times - med, 0.0))
    return float(np.mean(per))


def best_guess(c, km: CurveBatch):
    """Conditional expected death time given survival to c:
    c + integral_c^t0 S(t) dt / S(c), and c itself once S(c) = 0.

    ``c`` may be a scalar or an array of censor times; all of them are read
    off one reverse-cumulative integral of the (extended) one-row KM curve.
    """
    c_arr = np.asarray(c, dtype=float)
    if np.any(c_arr < 0):
        raise ValueError(f"censor times must be non-negative, got {c!r}")
    flat = c_arr.reshape(-1)
    s_c = survival_at(km, flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s_c > 0.0, flat + km.area_from(flat) / s_c, flat)
    return float(out[0]) if c_arr.ndim == 0 else out.reshape(c_arr.shape)


@dataclass(frozen=True)
class MarginWeights:
    """Per censored instance: the confidence weight alpha = 1 - S_KM(c)
    and the Best-Guess death time (always at least the censor time)."""

    alpha: np.ndarray
    best_guess: np.ndarray


def margin_weights(censor_times, train_km: CurveBatch) -> MarginWeights:
    """Margin-loss ingredients for a batch of censor times: early censorings
    get weight near 0, late ones approach a full death's weight of 1.
    Compute them once per fold and pass them to both margin losses."""
    censor_times = np.asarray(censor_times, dtype=float)
    alpha = 1.0 - np.atleast_1d(survival_at(train_km, censor_times))
    return MarginWeights(alpha, np.atleast_1d(best_guess(censor_times, train_km)))


def _margin_terms(v: SurvivalDataset, weights: MarginWeights):
    times, events = v.times, v.events
    if weights.alpha.size != np.count_nonzero(~events):
        raise ValueError(f"{weights.alpha.size} margin weights for "
                         f"{np.count_nonzero(~events)} censored instances")
    alphas = np.ones(len(v))
    alphas[~events] = weights.alpha
    targets = times.copy()
    targets[~events] = weights.best_guess
    if not alphas.sum() > 0:
        raise ValueError("margin loss has zero total weight (everyone censored at S_KM = 1)")
    return alphas, targets


def l1_margin(v: SurvivalDataset, medians, weights: MarginWeights) -> float:
    """L1 with Best-Guess targets for censored instances, weighted by
    alpha = 1 - S_KM(c); ``weights`` come from `margin_weights` on v's
    censor times and the (extended) training Kaplan-Meier curve."""
    med = _aligned(v, medians)
    alphas, targets = _margin_terms(v, weights)
    return float(np.sum(alphas * np.abs(targets - med)) / float(alphas.sum()))


def default_eta(times) -> float:
    """Half the minimum positive observed time: the stand-in for zero when
    a computation needs logs."""
    times = np.asarray(times, dtype=float)
    positive = times[times > 0]
    if positive.size == 0:
        raise ValueError("no positive times; eta is undefined")
    return float(0.5 * positive.min())


def l1_log(v: SurvivalDataset, medians, variant: str = "uncensored",
           eta: float = None, weights: MarginWeights = None) -> float:
    """Relative-error variant: the chosen aggregation applied to
    log(max(x, eta)) in place of every time or median x.  The "margin"
    variant takes the ``weights`` of `l1_margin`."""
    med = _aligned(v, medians)
    if eta is None or not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")

    def logt(arr):
        return np.log(np.maximum(np.asarray(arr, dtype=float), eta))

    if variant == "uncensored":
        if len(v) == 0 or not v.events.all():
            raise ValueError("log-L1 'uncensored' needs all-uncensored data")
        return float(np.mean(np.abs(logt(v.times) - logt(med))))
    if variant == "margin":
        if weights is None:
            raise ValueError("log-L1 'margin' needs the margin weights")
        alphas, targets = _margin_terms(v, weights)
        return float(np.sum(alphas * np.abs(logt(targets) - logt(med))) / float(alphas.sum()))
    raise ValueError(f"unknown log-L1 variant {variant!r}")
