"""Calibration metrics: Hosmer-Lemeshow and D'Agostino-Nam single-time
tests, the censoring-weighted Brier score and its integral, and the
distributional calibration (D-calibration) histogram and test.

Brier scores use the event orientation throughout: a death by t* is scored
against a survival-probability target of 0 and a survivor against 1, with
inverse-probability-of-censoring weights 1/G(t_i) and 1/G(t*) from the
censoring Kaplan-Meier curve fit on training data.  D-calibration places
each death at its predicted survival probability S(d | x) and spreads each
censored instance over the bins below S(c | x) by conditional probability,
so every instance contributes total weight 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from .core import SurvivalDataset
from .curves import CurveBatch
from .km import KMCurve, fit_km_arrays, km_at

__all__ = [
    "TestResult",
    "CalibrationBins",
    "DCalHistogram",
    "calibration_table",
    "one_calibration_hl",
    "one_calibration_dn",
    "brier_uncensored",
    "brier_censored",
    "integrated_brier",
    "dcal_histogram",
    "dcal_test",
    "chi2_sf",
]


@dataclass(frozen=True)
class TestResult:
    statistic: float
    dof: int
    p_value: float


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(X >= x) for a chi-square with `dof` degrees
    of freedom, used to turn calibration statistics into p-values."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof}")
    if not x >= 0:  # a positive condition, so that NaN fails it
        raise ValueError(f"chi-square statistic must be non-negative, got {x}")
    return min(1.0, max(0.0, float(gammaincc(dof / 2.0, x / 2.0))))


@dataclass(frozen=True)
class CalibrationBins:
    """Per-bin sizes, mean predicted event probabilities, and observed
    deaths (fractional under the D'Agostino-Nam within-bin KM)."""

    n: np.ndarray
    mean_predicted: np.ndarray
    observed: np.ndarray
    members: tuple  # index arrays into the input order, one per bin


def _refuse_nan(probs: np.ndarray) -> np.ndarray:
    if (nan := np.flatnonzero(np.isnan(probs))).size:
        raise ValueError(f"{nan.size} NaN probability value(s), the first at index {nan[0]}")
    return probs


def _per_instance(v: SurvivalDataset, probs) -> np.ndarray:
    """``probs`` as floats, refused unless it holds one entry per instance
    and none is NaN."""
    probs = np.asarray(probs, dtype=float)
    if probs.size != len(v):
        raise ValueError(f"{probs.size} probabilities for {len(v)} instances")
    return _refuse_nan(probs.reshape(-1))


def _bin_memberships(probs: np.ndarray, b: int) -> tuple:
    n = probs.size
    if b < 2:
        raise ValueError(f"need at least 2 bins, got {b}")
    if n < b:
        raise ValueError(f"cannot split {n} instances into {b} bins")
    if np.unique(probs).size < 2:
        raise ValueError(
            "all predicted probabilities are identical; instances cannot be "
            "partitioned into calibration bins"
        )
    order = np.argsort(-probs, kind="stable")  # largest predicted survival first
    # the first n mod b bins get one extra member
    return tuple(np.array_split(order, b))


def calibration_table(v: SurvivalDataset, probs_at_tstar, tstar: float, b: int,
                      censoring: str = "reject") -> CalibrationBins:
    """Group instances into b bins by predicted survival at t* and tabulate
    observed deaths against mean predicted event probability.

    ``censoring="reject"`` (the Hosmer-Lemeshow setting) demands fully
    uncensored data; ``censoring="km"`` (D'Agostino-Nam) replaces each
    bin's observed deaths with n_j * (1 - KM_j(t*)) from the within-bin
    Kaplan-Meier curve.
    """
    if censoring not in ("reject", "km"):
        raise ValueError(f"unknown censoring mode {censoring!r}; use 'reject' or 'km'")
    probs = _per_instance(v, probs_at_tstar)
    times, events = v.times, v.events
    if censoring == "reject" and not events.all():
        raise ValueError("Hosmer-Lemeshow needs fully uncensored data; use the "
                         "D'Agostino-Nam variant instead")

    members = _bin_memberships(probs, b)
    n = np.array([m.size for m in members], dtype=float)
    pbar = np.array([np.mean(1.0 - probs[m]) for m in members])

    observed = np.empty(len(members))
    for j, m in enumerate(members):
        if censoring == "reject":
            observed[j] = np.sum(times[m] <= tstar)
        else:
            mask_t, mask_e = times[m], events[m]
            if not mask_e.any() and (mask_t < tstar).all():
                raise ValueError(
                    f"bin {j} contains only instances censored before t*={tstar}; "
                    "its within-bin Kaplan-Meier curve cannot be evaluated there"
                )
            km_j = fit_km_arrays(mask_t, mask_e)
            observed[j] = m.size * (1.0 - km_at(km_j, tstar))
    return CalibrationBins(n, pbar, observed, members)


def _hl_statistic(table: CalibrationBins) -> float:
    variance = table.n * table.mean_predicted * (1.0 - table.mean_predicted)
    if np.any(variance <= 0):
        raise ValueError(
            "a calibration bin has degenerate variance (mean predicted event "
            "probability of exactly 0 or 1)"
        )
    expected = table.n * table.mean_predicted
    return float(np.sum((table.observed - expected) ** 2 / variance))


def one_calibration_hl(v_u: SurvivalDataset, probs_at_tstar, tstar: float,
                       b: int = 10) -> TestResult:
    """Hosmer-Lemeshow test of the predicted survival probabilities at t*
    on uncensored data; the statistic follows chi-square with B-2 degrees
    of freedom under calibration."""
    table = calibration_table(v_u, probs_at_tstar, tstar, b, censoring="reject")
    statistic = _hl_statistic(table)
    dof = b - 2
    return TestResult(statistic, dof, chi2_sf(statistic, dof))


def one_calibration_dn(v: SurvivalDataset, probs_at_tstar, tstar: float,
                       b: int = 10) -> TestResult:
    """D'Agostino-Nam translation of the Hosmer-Lemeshow test: within-bin
    Kaplan-Meier supplies the expected death counts so censored instances
    participate; chi-square with B-1 degrees of freedom."""
    table = calibration_table(v, probs_at_tstar, tstar, b, censoring="km")
    statistic = _hl_statistic(table)
    dof = b - 1
    return TestResult(statistic, dof, chi2_sf(statistic, dof))


def brier_uncensored(v_u: SurvivalDataset, probs_at_tstar, tstar: float) -> float:
    """Brier score at t* on uncensored data: deaths by t* are scored
    against survival 0, survivors past t* against 1 (the censored formula
    with G identically 1)."""
    probs = _per_instance(v_u, probs_at_tstar)
    if not v_u.events.all():
        raise ValueError("uncensored Brier needs fully uncensored data")
    died = v_u.times <= tstar
    per = np.where(died, probs**2, (1.0 - probs) ** 2)
    return float(np.mean(per))


def _g_first_zero(g_hat: KMCurve) -> float:
    curve = g_hat.curve
    zeros = curve.probs[0] <= 0.0
    return float(curve.knots[np.argmax(zeros)]) if zeros.any() else np.inf


def brier_censored(v: SurvivalDataset, probs_at_tstar, tstar: float,
                   g_hat: KMCurve) -> float:
    """Inverse-probability-of-censoring-weighted Brier score at t* of the
    predicted survival probabilities S_i(t*), one per instance.

    Deaths by t* weigh in at 1/G(t_i), survivors past t* at 1/G(t*);
    instances censored before t* contribute 0 directly.  Raises when a
    required G evaluation is 0 (the score is only defined while the
    censoring curve is positive; see `integrated_brier` for the truncated
    integral form).
    """
    probs = _per_instance(v, probs_at_tstar)
    times, events = v.times, v.events

    death_terms = (times <= tstar) & events
    alive_terms = times > tstar
    total = 0.0
    if alive_terms.any():
        g_star = km_at(g_hat, tstar)
        if g_star <= 0:
            raise ValueError(
                f"censoring curve G is 0 at t*={tstar}; the IPCW Brier score "
                "is undefined there (truncate at the last time with G > 0)"
            )
        total += np.sum((1.0 - probs[alive_terms]) ** 2) / g_star
    if death_terms.any():
        g_at_death = km_at(g_hat, times[death_terms])
        if np.any(g_at_death <= 0):
            raise ValueError(
                "censoring curve G is 0 at an observed death time; the IPCW "
                "Brier score is undefined there"
            )
        total += np.sum(probs[death_terms] ** 2 / g_at_death)
    return float(total / len(v))


def _squared_gaps(ends, a, b, g):
    # integrals over [a, b] of (1 - S)^2 / g and of S^2, where S is linear
    # from S(a) to S(cut) on [a, cut] and 0 on [cut, b] (see
    # CurveBatch.segment_ends); one table for both ends (from
    # CurveBatch.segment_tables) is an S constant up to cut = b
    s_a, cut, s_cut = ends
    u = 1.0 - s_a
    if s_cut is s_a:
        return u * u * ((b - a) / g), s_a * s_a * (b - a)
    third = (cut - a) / 3.0
    w = 1.0 - s_cut
    alive = (third * (u * u + u * w + w * w) + (b - cut)) / g
    return alive, third * (s_a * s_a + s_a * s_cut + s_cut * s_cut)


def integrated_brier(v: SurvivalDataset, curves: CurveBatch, tau: float,
                     g_hat: KMCurve) -> float:
    """Average of the censored Brier score over [0, tau]:
    (1/tau) * integral of BS_t dt, computed exactly piece by piece.

    The pieces lie between the merged breakpoints (curve knots and
    censoring-curve knots); on each the censoring curve is constant and
    every curve is linear up to where its tail reaches 0, so each piece has
    a closed form.  A patient's alive integral over [0, min(t_i, tau)] is
    the whole pieces before its own piece plus part of that piece, and a
    death's integral over [t_i, tau] part of its piece plus the whole
    pieces after it, so each (rows x pieces) table is summed under one
    mask per row (for a shared row, a count of patients per piece).  If
    the censoring curve hits 0 before tau the integral and its
    normalization are truncated at that time.  ``curves`` is a `CurveBatch`
    with one row per patient or one row they share.
    """
    if not tau > 0:
        raise ValueError(f"horizon tau must be positive, got {tau}")
    n = len(v)
    if curves.rows not in (1, n):
        raise ValueError(f"{curves.rows} curves for {n} instances")
    times, events = v.times, v.events
    tau_eff = min(tau, _g_first_zero(g_hat))
    if not tau_eff > 0:
        raise ValueError("censoring curve G is 0 from time 0; the IBS is undefined")

    knots = curves.knots
    g_knots = g_hat.curve.knots
    cuts = np.unique(np.concatenate((
        [0.0, tau_eff], knots[knots < tau_eff], g_knots[(g_knots > 0) & (g_knots < tau_eff)],
    )))
    lo, hi = cuts[:-1], cuts[1:]
    seg = curves.segment_of(lo)         # piece -> knot segment, shared by every row
    g_piece = km_at(g_hat, lo)          # G is constant on each piece and positive

    alive_end = np.minimum(times, tau_eff)
    # each patient's own piece; a death before tau_eff lies in it too
    k = np.clip(np.searchsorted(cuts, alive_end, side="right") - 1, 0, lo.size - 1)
    dies = events & (times < tau_eff)
    g_death = km_at(g_hat, np.where(dies, times, 0.0))
    if np.any(g_death[dies] <= 0):
        raise ValueError(
            "censoring curve G is 0 at an observed death inside the integration window"
        )

    # the partial pieces: [lo_k, min(t_i, tau_eff)) alive, with weight 1/G(t)
    # and target 1, and for a death [t_i, hi_k), weight 1/G(t_i) and target 0
    rows = np.arange(n) if curves.rows > 1 else np.zeros(n, dtype=int)
    weight = np.divide(1.0, g_death, out=np.zeros(n), where=dies)
    alive, _ = _squared_gaps(curves.segment_ends(rows, seg[k], lo[k], alive_end),
                             lo[k], alive_end, g_piece[k])
    start = np.where(dies, times, lo[k])
    _, death = _squared_gaps(curves.segment_ends(rows, seg[k], start, hi[k]),
                             start, hi[k], 1.0)
    total = np.sum(alive) + np.sum(death * weight)

    # the whole pieces: before k alive, after k dead
    piece = np.arange(lo.size)
    body = int(np.searchsorted(seg, knots.size - 1))    # pieces before t_max
    if curves.rows == 1:
        alive_w = n - np.cumsum(np.bincount(k, minlength=lo.size))
        death_w = np.cumsum(np.bincount(k + 1, weights=weight, minlength=lo.size + 1))[:-1]
    for block in curves.row_blocks():
        if curves.rows > 1:
            k_block = k[block, None]
            alive_w, death_w = piece < k_block, (piece > k_block) * weight[block, None]
        for cols, ends in (
            (np.s_[:body], curves.segment_tables(block, seg[:body], lo[:body], hi[:body])),
            # every piece past t_max lies in the last segment
            (np.s_[body:], curves.segment_ends(np.arange(block.start, block.stop)[:, None],
                                               knots.size - 1, lo[body:], hi[body:])),
        ):
            alive, death = _squared_gaps(ends, lo[cols], hi[cols], g_piece[cols])
            total += np.vdot(alive, alive_w[..., cols]) + np.vdot(death, death_w[..., cols])

    return float(total / (n * tau_eff))


@dataclass(frozen=True)
class DCalHistogram:
    """Fractional bin counts of predicted survival probabilities at event
    times; censored instances are blurred so each contributes weight 1."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_total: float


def dcal_histogram(probs_at_event, events, b: int = 10) -> DCalHistogram:
    """D-calibration histogram of the predicted survival probabilities
    S(t_i | x_i) at each instance's observed time, with its event flag
    (ties d = c count as deaths via the flag).

    A death adds 1 to the bin containing its probability (bins are
    [k/B, (k+1)/B), top bin closed).  A censored instance with probability
    s spreads conditional mass: (s - lower_edge)/s to s's own bin and
    (1/B)/s to every bin below it; s <= 1/B (including the s = 0 limit)
    puts weight 1 in the lowest bin.
    """
    probs = np.asarray(probs_at_event, dtype=float)
    events = np.asarray(events, dtype=bool)
    if probs.shape != events.shape:
        raise ValueError("probabilities and event flags must align")
    if b < 2:
        raise ValueError(f"need at least 2 bins, got {b}")
    _refuse_nan(probs)
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("survival probabilities must lie in [0, 1]")

    edges = np.arange(b + 1) / b
    bin_of = np.clip(np.searchsorted(edges, probs, side="right") - 1, 0, b - 1)
    whole = events | (probs <= edges[1])
    counts = np.bincount(np.where(events, bin_of, 0)[whole], minlength=b).astype(float)
    blurred = ~whole
    s, k = probs[blurred], bin_of[blurred]
    counts += np.bincount(k, weights=(s - edges[k]) / s, minlength=b)
    # (1/B)/s goes to every bin below k: bin j collects it from every k > j
    below = np.bincount(k, weights=(1.0 / b) / s, minlength=b)
    counts[:-1] += np.cumsum(below[::-1])[::-1][1:]
    return DCalHistogram(edges, counts, float(probs.size))


def dcal_test(h: DCalHistogram) -> TestResult:
    """Pearson chi-square of the histogram against uniform bins, with B-1
    degrees of freedom."""
    if not h.n_total > 0:
        raise ValueError("empty histogram; D-calibration is undefined")
    b = h.counts.size
    expected = h.n_total / b
    statistic = float(np.sum((h.counts - expected) ** 2 / expected))
    dof = b - 1
    return TestResult(statistic, dof, chi2_sf(statistic, dof))
