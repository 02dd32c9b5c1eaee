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
from functools import cached_property

import numpy as np

from .core import SurvivalDataset, SurvivalModel
from .curves import (
    CurveBatch,
    ExtendedCurve,
    as_batch,
    extend_linear,
    mean_survival,
    median_survival,
    survival_at,
)

__all__ = [
    "Prediction",
    "PredictionSet",
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


@dataclass(frozen=True)
class Prediction:
    """One validation instance's risk score, capped median, and curve."""

    risk: float
    median: float
    curve: ExtendedCurve


class PredictionSet:
    """Aligned per-instance risks, capped medians and extended curves.

    The curves are one `CurveBatch` (a single shared row when every
    instance has the same curve, as under Kaplan-Meier); indexing yields
    `Prediction` views.  A set may also be built from `Prediction` objects.
    """

    def __init__(self, predictions=()):
        self._items = tuple(predictions)
        self.risks = np.array([p.risk for p in self._items], dtype=float)
        self.medians = np.array([p.median for p in self._items], dtype=float)
        self._curves = None

    @classmethod
    def from_batch(cls, curves: CurveBatch, risks, medians) -> "PredictionSet":
        out = cls()
        out._items = None
        out.risks = np.asarray(risks, dtype=float)
        out.medians = np.asarray(medians, dtype=float)
        out._curves = curves
        return out

    @property
    def curves(self) -> CurveBatch:
        if self._curves is None:
            self._curves = CurveBatch.from_curves(p.curve for p in self._items)
        return self._curves

    def __len__(self) -> int:
        return self.risks.size

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i) -> Prediction:
        if self._items is not None:
            return self._items[i]
        curve = self._shared_curve if self._curves.rows == 1 else self._curves.row(i)
        return Prediction(float(self.risks[i]), float(self.medians[i]), curve)

    @cached_property
    def _shared_curve(self) -> ExtendedCurve:
        return self._curves.row(0)

    def subset(self, indices) -> "PredictionSet":
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        if self._items is not None:
            return PredictionSet(self._items[int(i)] for i in idx)
        return PredictionSet.from_batch(self._curves.subset(idx), self.risks[idx],
                                        self.medians[idx])

    @classmethod
    def from_model(cls, model: SurvivalModel, v: SurvivalDataset, t0_km: float,
                   risk: str = "median") -> "PredictionSet":
        """Predict, extend, and score every instance of a validation set as
        one batch.

        The default risk is the negative of the (t0_km-capped) median
        survival time; ``risk="mean"`` uses the negative mean instead.
        """
        curves = extend_linear(model.predict_curves(v), t0_km)
        medians = median_survival(curves, t0_km)
        risks = -medians if risk == "median" else -mean_survival(curves)
        n = len(v)
        return cls.from_batch(curves, np.broadcast_to(risks, (n,)),
                              np.broadcast_to(medians, (n,)))


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


def concordance(v: SurvivalDataset, preds: PredictionSet) -> float:
    """Fraction of comparable pairs ranked correctly by the risk scores;
    ties in risk or in death time score 0.5."""
    times, events = v.times, v.events
    risks = preds.risks
    ordered, tied = _pair_masks(times, events)
    n_pairs = ordered.sum() + tied.sum()
    if n_pairs == 0:
        raise ValueError("no comparable pairs; concordance is undefined")
    correct = (risks[:, None] > risks[None, :]) & ordered
    tied_risk = (risks[:, None] == risks[None, :]) & ordered
    score = correct.sum() + 0.5 * tied_risk.sum() + 0.5 * tied.sum()
    return float(score / n_pairs)


def _check_aligned(v: SurvivalDataset, preds: PredictionSet):
    if len(v) != len(preds):
        raise ValueError(f"{len(preds)} predictions for {len(v)} instances")


def l1_uncensored(v_u: SurvivalDataset, preds: PredictionSet) -> float:
    """Mean absolute error between death times and predicted medians."""
    _check_aligned(v_u, preds)
    if len(v_u) == 0:
        raise ValueError("uncensored L1-loss needs at least one instance")
    if not v_u.events.all():
        raise ValueError("uncensored L1-loss is only defined on uncensored data")
    return float(np.mean(np.abs(v_u.times - preds.medians)))


def l1_hinge(v: SurvivalDataset, preds: PredictionSet) -> float:
    """L1 with hinge handling of censoring: a censored instance costs
    max(c - median, 0), i.e. nothing unless the prediction undershoots the
    censor time (an optimistic lower bound on the true loss)."""
    _check_aligned(v, preds)
    times, events = v.times, v.events
    med = preds.medians
    per = np.where(events, np.abs(times - med), np.maximum(times - med, 0.0))
    return float(np.mean(per))


def best_guess(c, km):
    """Conditional expected death time given survival to c:
    c + integral_c^t0 S(t) dt / S(c), and c itself once S(c) = 0.

    ``c`` may be a scalar or an array of censor times; all of them are read
    off one reverse-cumulative integral of the (extended) KM curve.
    """
    c_arr = np.asarray(c, dtype=float)
    if np.any(c_arr < 0):
        raise ValueError(f"censor times must be non-negative, got {c!r}")
    curve = as_batch(km)
    flat = c_arr.reshape(-1)
    s_c = np.broadcast_to(survival_at(curve, flat), flat.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s_c > 0.0, flat + curve.area_from(flat) / s_c, flat)
    return float(out[0]) if c_arr.ndim == 0 else out.reshape(c_arr.shape)


@dataclass(frozen=True)
class MarginWeights:
    """Per censored instance: the confidence weight alpha = 1 - S_KM(c)
    and the Best-Guess death time (always at least the censor time)."""

    alpha: np.ndarray
    best_guess: np.ndarray


def margin_weights(censor_times, train_km: ExtendedCurve) -> MarginWeights:
    """Margin-loss ingredients for a batch of censor times: early censorings
    get weight near 0, late ones approach a full death's weight of 1.
    Compute them once per fold and pass them to both margin losses."""
    censor_times = np.asarray(censor_times, dtype=float)
    alpha = 1.0 - np.atleast_1d(survival_at(train_km, censor_times))
    return MarginWeights(alpha, np.atleast_1d(best_guess(censor_times, train_km)))


def _margin_terms(v: SurvivalDataset, preds: PredictionSet, train_km, weights):
    times, events = v.times, v.events
    if weights is None:
        if train_km is None:
            raise ValueError("the margin loss needs the training KM curve")
        weights = margin_weights(times[~events], train_km)
    if weights.alpha.size != np.count_nonzero(~events):
        raise ValueError(f"{weights.alpha.size} margin weights for "
                         f"{np.count_nonzero(~events)} censored instances")
    alphas = np.ones(len(v))
    alphas[~events] = weights.alpha
    targets = times.copy()
    targets[~events] = weights.best_guess
    return alphas, targets, preds.medians


def l1_margin(v: SurvivalDataset, preds: PredictionSet, train_km: ExtendedCurve = None,
              weights: MarginWeights = None) -> float:
    """L1 with Best-Guess targets for censored instances, weighted by
    alpha = 1 - S_KM(c) from the (extended) training Kaplan-Meier curve.
    ``weights``, from `margin_weights` on v's censor times, replaces
    ``train_km`` when they are already at hand."""
    _check_aligned(v, preds)
    alphas, targets, med = _margin_terms(v, preds, train_km, weights)
    denom = float(alphas.sum())
    if denom <= 0:
        raise ValueError("margin loss has zero total weight (everyone censored at S_KM = 1)")
    return float(np.sum(alphas * np.abs(targets - med)) / denom)


def default_eta(times) -> float:
    """Half the minimum positive observed time: the stand-in for zero when
    a computation needs logs."""
    times = np.asarray(times, dtype=float)
    positive = times[times > 0]
    if positive.size == 0:
        raise ValueError("no positive times; eta is undefined")
    return float(0.5 * positive.min())


def l1_log(v: SurvivalDataset, preds: PredictionSet, variant: str = "uncensored",
           eta: float = None, train_km: ExtendedCurve = None,
           weights: MarginWeights = None) -> float:
    """Relative-error variant: the chosen aggregation applied to
    log(max(x, eta)) in place of every time or median x.  The "margin"
    variant takes ``train_km`` or precomputed ``weights`` as `l1_margin`."""
    if eta is None or not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    _check_aligned(v, preds)

    def logt(arr):
        return np.log(np.maximum(np.asarray(arr, dtype=float), eta))

    if variant == "uncensored":
        if len(v) == 0 or not v.events.all():
            raise ValueError("log-L1 'uncensored' needs all-uncensored data")
        return float(np.mean(np.abs(logt(v.times) - logt(preds.medians))))
    if variant == "margin":
        if train_km is None and weights is None:
            raise ValueError("log-L1 'margin' needs the training KM curve")
        alphas, targets, med = _margin_terms(v, preds, train_km, weights)
        denom = float(alphas.sum())
        if denom <= 0:
            raise ValueError("margin loss has zero total weight")
        return float(np.sum(alphas * np.abs(logt(targets) - logt(med))) / denom)
    raise ValueError(f"unknown log-L1 variant {variant!r}")
