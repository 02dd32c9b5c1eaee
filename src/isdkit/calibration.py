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

import decimal
import math
from dataclasses import dataclass

import numpy as np

from .core import SurvivalDataset
from .curves import ROW_BLOCK, CurveBatch
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


# 34 significant digits, and an exponent range in which e^-y cannot underflow
# for y below 1e18
_DECIMAL = decimal.Context(prec=34, Emin=decimal.MIN_EMIN)
_PI = decimal.Decimal("3.141592653589793238462643383279503")


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(X >= x) for a chi-square with `dof` degrees
    of freedom, used to turn calibration statistics into p-values.

    The closed form for integer dof (Abramowitz & Stegun 26.4.4, 26.4.5),
    with y = x/2: the Poisson tail sum_{j < dof/2} e^-y y^j / j! for even
    dof, and erfc(sqrt(y)) + sum_{j < (dof-1)/2} e^-y y^(j+1/2) / Gamma(j+3/2)
    for odd dof.  Each term follows from the last by the factor y / (j + 1)
    or y / (j + 3/2), in 34-digit decimal arithmetic, so that e^-y cannot
    underflow ahead of a large power of y; the terms are positive, and
    their sum is rounded once, to the nearest double."""
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof}")
    if not x >= 0:  # a positive condition, so that NaN fails it
        raise ValueError(f"chi-square statistic must be non-negative, got {x}")
    y = x / 2.0
    if y == 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    pairs, odd = divmod(int(dof), 2)
    with decimal.localcontext(_DECIMAL):
        yd = decimal.Decimal(y)
        term = (-yd).exp()
        total = decimal.Decimal(0)
        if odd:
            term *= (4 * yd / _PI).sqrt()  # e^-y y^(1/2) / Gamma(3/2)
            # erfc at the rounded root u, moved to first order to the exact
            # root sqrt(y), where its slope in y is -term / (2y)
            u = math.sqrt(y)
            total = decimal.Decimal(math.erfc(u)) - term * (yd - decimal.Decimal(u) ** 2) / (2 * yd)
        for j in range(pairs):
            total += term
            term = term * yd / decimal.Decimal(j + 1 + odd / 2)
        return min(1.0, float(total))


@dataclass(frozen=True)
class CalibrationBins:
    """Per-bin sizes, mean predicted event probabilities, and observed
    deaths (fractional under the D'Agostino-Nam within-bin KM)."""

    n: np.ndarray
    mean_predicted: np.ndarray
    observed: np.ndarray


def _refuse_nan(probs: np.ndarray) -> np.ndarray:
    if (nan := np.flatnonzero(np.isnan(probs))).size:
        raise ValueError(f"{nan.size} NaN probability value(s), the first at index {nan[0]}")
    return probs


def _per_instance(v: SurvivalDataset, probs, tstar: float) -> np.ndarray:
    """``probs`` at ``tstar`` as floats, refused unless t* is a time >= 0,
    and ``probs`` holds one entry per instance and none is NaN."""
    if not tstar >= 0:  # a positive condition, so that NaN fails it
        raise ValueError(f"t* must be a time >= 0 (got {tstar})")
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
    probs = _per_instance(v, probs_at_tstar, tstar)
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
    return CalibrationBins(n, pbar, observed)


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
    probs = _per_instance(v_u, probs_at_tstar, tstar)
    if not v_u.events.all():
        raise ValueError("uncensored Brier needs fully uncensored data")
    died = v_u.times <= tstar
    per = np.where(died, probs**2, (1.0 - probs) ** 2)
    return float(np.mean(per))


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
    probs = _per_instance(v, probs_at_tstar, tstar)
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


def _power_moments(a, b, w):
    # (1, (a + b) / 2, (a^2 + ab + b^2) / 3) * w: with w = (b - a) / g, the
    # integrals of 1, u and u^2 over [a, b] at weight 1/g, each a sum of
    # non-negative terms for 0 <= a <= b; the callers take b - a from the
    # uncentred times
    return np.stack((w, w * (a + b) * 0.5, w * (a * a + a * b + b * b) / 3.0))


class _InverseGMoments:
    """Moments of 1/G on the knot segments [k_j, k_{j+1}) of a batch, cut
    at ``tau_eff``: A_p = integral of (u - k_j)^p / G(u) du, p = 0, 1, 2.

    G is a step function, so each moment is a sum over the pieces between
    the merged curve and G knots.  Centred at each segment's left knot,
    every term is non-negative and no sum cancels, however far from 0 the
    times lie.  ``totals`` holds the moments of the segments that end by
    ``tau_eff`` (the first ``whole``); `upto` reads a segment's moments up
    to any time inside it."""

    def __init__(self, knots, g_hat: KMCurve, tau_eff: float):
        # merge the sorted curve knots and G knots up to tau_eff: the
        # pieces start at each, and the last one, [tau_eff, tau_eff), is
        # empty; each piece's curve segment and G step
        inner, g_knots = knots[knots <= tau_eff], g_hat.curve.knots
        both = np.concatenate((inner, [tau_eff], g_knots[(g_knots > 0) & (g_knots < tau_eff)]))
        order = np.argsort(both, kind="stable")
        merged = both[order]
        distinct = np.append(merged[1:] != merged[:-1], True)
        lo = merged[distinct]
        hi = np.append(lo[1:], tau_eff)
        seg = np.cumsum(order < inner.size)[distinct] - 1
        g = g_hat.curve.row(0)[np.cumsum(order > inner.size)[distinct]]
        left = knots[seg]
        acc = _power_moments(lo - left, hi - left, (hi - lo) / g)
        # a segmented scan: acc[:, q] becomes the sum over q's segment up to q
        step = 1
        while (same := seg[step:] == seg[:-step]).any():
            acc[:, step:] += np.where(same, acc[:, :-step], 0.0)
            step *= 2
        self.knots, self.lo, self.g = knots, lo, g
        self.before = np.zeros_like(acc)
        self.before[:, 1:] = np.where(seg[1:] == seg[:-1], acc[:, :-1], 0.0)
        self.whole = int(seg[-1])
        # each whole segment's last piece is the one before the next knot's
        self.totals = np.take(acc, np.flatnonzero(np.diff(seg))[:self.whole], axis=1)

    def upto(self, seg, x):
        """(3, len(x)) moments over [k_seg, x), for each x in its segment
        ``seg`` and at most ``tau_eff``."""
        k = self.knots[seg]
        q = np.searchsorted(self.lo, x, side="right") - 1
        lo = self.lo[q]
        return np.take(self.before, q, axis=1) + _power_moments(lo - k, x - k,
                                                                (x - lo) / self.g[q])


def _sloped_line(curves: CurveBatch, rows, seg):
    """(p, left, stop, c1) of each row's `CurveBatch.line` on segment
    ``seg``, with c1 = (p - end) / (stop - left) its slope down, 0 on a
    tail of width 0."""
    p, left, stop, end = curves.line(rows, seg)
    width = stop - left
    c1 = np.divide(p - end, width, out=np.zeros(np.broadcast(p, width).shape), where=width > 0)
    return p, left, stop, c1


def _square_area(p, left, c1, a, b):
    # integral of S^2 over [a, b] on the line S(u) = p - c1 (u - left)
    s_a, s_b = p - c1 * (a - left), p - c1 * (b - left)
    return (b - a) / 3.0 * (s_a * s_a + s_a * s_b + s_b * s_b)


def _segment_terms(p, coef, width, out):
    """For the (rows, m) probability table ``p``, the integrals of
    (1 - S)^2 / G and of S^2 over each whole segment j < len(width), as
    out[0] and out[1]; a step batch passes two (rows, j) tables in
    ``out``, a linear one four.

    On segment j, 1 - S = c0 + c1 (u - k_j) with c0 = 1 - S(k_j) and c1
    the slope down, so the first is c0^2 A0 + 2 c0 c1 A1 + c1^2 A2 with
    ``coef`` = (A0, 2 A1, A2); c1 is 0 on a step segment."""
    alive, death = out[0], out[1]
    left = p[:, :width.size]
    np.subtract(1.0, left, out=alive)
    if len(out) == 2:
        alive *= alive
        alive *= coef[0]
        np.multiply(left, left, out=death)
        death *= width
        return alive, death
    right, c1, tmp = p[:, 1:width.size + 1], out[2], out[3]
    np.subtract(left, right, out=c1)
    c1 /= width
    np.multiply(alive, coef[0], out=tmp)
    np.multiply(c1, coef[1], out=death)
    tmp += death
    alive *= tmp                            # c0 (c0 A0 + 2 c1 A1)
    c1 *= c1
    c1 *= coef[2]
    alive += c1
    np.add(left, right, out=death)          # width / 3 (S_l^2 + S_l S_r + S_r^2)
    death *= left
    np.multiply(right, right, out=tmp)
    death += tmp
    death *= width / 3.0
    return alive, death


def integrated_brier(v: SurvivalDataset, curves: CurveBatch, tau: float,
                     g_hat: KMCurve) -> float:
    """Average of the censored Brier score over [0, tau]:
    (1/tau) * integral of BS_t dt, computed exactly over each curve's knot
    segments.

    Patient i adds the integral of (1 - S_i)^2 / G over [0, min(t_i, tau)]
    and, for a death, that of S_i^2 / G(t_i) over [t_i, tau].  On each
    segment [k_j, k_{j+1}) a curve is a line, 1 - S = c0 + c1 (u - k_j)
    (c1 = 0 for a step curve; past t_max, the extension line up to its
    zero time and 1 after it, or, on a batch that is not extended, the
    last probability held), and G is a step function.  So the alive
    term of a whole segment is c0^2 A0 + 2 c0 c1 A1 + c1^2 A2 in the
    moments A_p of 1/G on it, which every row shares (see
    `_InverseGMoments`), and that of the segment holding min(t_i, tau)
    reads the same moments up to that time.  The death term needs only the
    curve.  The whole segments of the rows form (rows x segments) tables,
    built a block of rows at a time in buffers allocated once per call and
    summed under one mask per row (for a shared row, weighted by the
    number of patients that reach each segment).  If the censoring curve
    hits 0 before tau the integral and its normalization are truncated at
    that time.  ``curves`` is a `CurveBatch` with one row per patient or
    one row they share.
    """
    if not tau > 0:
        raise ValueError(f"horizon tau must be positive, got {tau}")
    n = len(v)
    if curves.rows not in (1, n):
        raise ValueError(f"{curves.rows} curves for {n} instances")
    times, events = v.times, v.events
    (first_zero,), (g_zero,) = g_hat.curve.first_at_or_below(0.0)
    tau_eff = min(tau, float(g_hat.curve.knots[first_zero]) if g_zero else np.inf)
    if not tau_eff > 0:
        raise ValueError("censoring curve G is 0 from time 0; the IBS is undefined")
    dies = np.flatnonzero(events & (times < tau_eff))
    g_death = km_at(g_hat, times[dies])
    if np.any(g_death <= 0):
        raise ValueError(
            "censoring curve G is 0 at an observed death inside the integration window"
        )
    weight = np.zeros(n)
    weight[dies] = 1.0 / g_death

    knots = curves.knots
    moments = _InverseGMoments(knots, g_hat, tau_eff)
    whole = moments.whole
    rows = np.arange(n) if curves.rows > 1 else 0

    # alive from the left knot of the segment that holds min(t_i, tau_eff):
    # (1 - S)^2 = (c0 + c1 (u - left))^2 on the line, and 1 past it
    alive_end = np.minimum(times, tau_eff)
    seg = curves.segment_of(alive_end)
    p, left, stop, c1 = _sloped_line(curves, rows, seg)
    line_end = np.minimum(stop, alive_end)
    past = np.flatnonzero(line_end < alive_end)
    # one read for the line's moments and, past the line, 1/G's up to the end
    read = moments.upto(np.concatenate((seg, seg[past])),
                        np.concatenate((line_end, alive_end[past])))
    (a0, a1, a2), beyond = read[:, :n], read[0, n:]
    c0 = 1.0 - p
    alive = c0 * (c0 * a0 + 2.0 * c1 * a1) + c1 * c1 * a2
    alive[past] += beyond - a0[past]
    total = np.sum(alive)

    # dead from t_i to the end of its segment, and on [k_whole, tau_eff)
    if dies.size:
        t_d = times[dies]
        end = np.maximum(np.minimum(stop[dies], tau_eff), t_d)
        death = _square_area(p[dies], left[dies], c1[dies], t_d, end)
        after = seg[dies] < whole
        if after.any():
            p_w, left_w, stop_w, c1_w = _sloped_line(curves, np.arange(curves.rows), whole)
            end = np.clip(stop_w, left_w, tau_eff)
            piece = _square_area(p_w, left_w, c1_w, left_w, end)
            death[after] += piece[dies[after]] if curves.rows > 1 else piece[0]
        total += np.vdot(death, weight[dies])

    # the whole segments, which end by tau_eff: alive before a row's own
    # segment, dead after it
    if whole:
        coef = moments.totals * np.array([[1.0], [2.0], [1.0]])
        seg_width = np.diff(knots[:whole + 1])
        tables = np.empty((2 if curves.interp == "step" else 4,
                           min(curves.rows, ROW_BLOCK), whole))
        if curves.rows == 1:
            (_, probs), = curves.block_tables()
            alive, death = _segment_terms(probs, coef, seg_width, tables)
            alive_w = n - np.cumsum(np.bincount(seg, minlength=whole + 1))[:whole]
            death_w = np.cumsum(np.bincount(seg + 1, weights=weight, minlength=whole + 2))[:whole]
            total += np.vdot(alive[0], alive_w) + np.vdot(death[0], death_w)
        else:
            cols = np.arange(whole)
            mask = np.empty(tables.shape[1:], dtype=bool)
            for block, probs in curves.block_tables():
                size = block.stop - block.start
                alive, death = _segment_terms(probs, coef, seg_width, tables[:, :size])
                own = seg[block]
                death *= weight[block, None]
                np.copyto(death, alive, where=np.less(cols, own[:, None], out=mask[:size]))
                inside = np.flatnonzero(own < whole)
                death[inside, own[inside]] = 0.0
                total += np.sum(death)

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
