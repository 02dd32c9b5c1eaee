"""Survival-curve queries and the linear tail extension.

Predicted curves routinely stop at a probability above zero, which leaves
medians and means undefined.  The fix used throughout this package: draw
the line through (0, 1) and the last knot (t_max, S(t_max)) and follow it
down to zero.  Flat curves that never leave 1 get their zero time replaced
by the training Kaplan-Meier zero time, and medians are capped by the same
value.  Values at or before t_max are never altered, so orderings between
curves at observed times are unchanged.

Within a fold every model emits its curves on one shared knot vector, so
the curves of a validation set are one `CurveBatch`: a knot vector plus a
probability matrix with a row per patient (or a single row every patient
shares, for Kaplan-Meier).  A single curve is a one-row batch, so every
function here has one evaluator and one extension path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "CurveBatch",
    "survival_at",
    "extend_linear",
    "median_survival",
    "mean_survival",
    "integrate_curve",
]

FLAT_TOLERANCE = 1e-10  # S(t_max) > 1 - this counts as "never left 1"


def _trapezoid(width, start, end):
    # area under a line segment; exact for constant pieces too (start == end)
    return width * (start + end) * 0.5


@dataclass(frozen=True, eq=False)
class CurveBatch:
    """Survival curves on one shared knot vector.

    ``probs[i, j]`` is row i's probability at ``knots[j]``.  A batch has a
    row per patient, or one row that every patient shares; per-row results
    broadcast against the patients and are never copied per patient.  A
    single curve is a one-row batch (a 1-d ``probs`` is read as one row).
    ``interp`` applies to every row: "step" (right-continuous) or "linear"
    (anchored at (0, 1) unless a knot sits at 0).  The knots are
    non-negative and strictly increasing.

    ``zero_time`` and ``fallback`` (one entry per row) are set by
    `extend_linear`; a batch without them holds each row's last probability
    past the final knot.
    """

    knots: np.ndarray
    probs: np.ndarray
    interp: str = "step"
    zero_time: np.ndarray | None = None
    fallback: np.ndarray | None = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim == 1:
            probs = probs[None, :]
        if knots.ndim != 1 or knots.size == 0 or probs.ndim != 2 \
                or probs.shape[1] != knots.size:
            raise ValueError("a curve batch needs knots (m,) and probs (rows, m), m >= 1")
        if self.interp not in ("step", "linear"):
            raise ValueError(f"unknown interpolation kind {self.interp!r}")
        # each check is a positive condition, so that NaN fails it
        if not (knots[0] >= 0 and np.all(np.diff(knots) > 0)):
            raise ValueError("knot times must be non-negative and strictly increasing")
        if not (np.all(probs >= 0) and np.all(probs <= 1)):
            raise ValueError("survival probabilities must lie in [0, 1]")
        if not np.all(np.diff(probs, axis=1) <= 0):
            raise ValueError("survival probabilities must be non-increasing")
        for name, value in (("knots", knots), ("probs", probs)):
            if value.flags.writeable:  # read-only, so batches can share arrays
                value = value.copy()
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        for name in ("zero_time", "fallback"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float if name == "zero_time" else bool)
                if value.shape != (probs.shape[0],):
                    raise ValueError(f"{name} needs one entry per row")
                object.__setattr__(self, name, value)

    @property
    def rows(self) -> int:
        return int(self.probs.shape[0])

    @property
    def t_max(self) -> float:
        return float(self.knots[-1])

    @property
    def fallback_applied(self) -> int:
        """Number of rows whose zero time is the training-KM fallback."""
        return 0 if self.fallback is None else int(np.count_nonzero(self.fallback))

    @cached_property
    def _anchored(self) -> int:
        return int(self.knots[0] > 0)

    @cached_property
    def grid(self) -> np.ndarray:
        """The knots with t = 0 prepended when no knot sits there; before the
        first knot every row starts from the (0, 1) anchor."""
        return np.concatenate(([0.0], self.knots)) if self._anchored else self.knots

    def _prob(self, rows, j):
        # probabilities at `grid` index j, without copying probs to add the anchor
        if not self._anchored:
            return self.probs[rows, j]
        return np.where(j > 0, self.probs[rows, np.maximum(j - 1, 0)], 1.0)

    def subset(self, indices) -> "CurveBatch":
        """The rows of the given patients (none gives a batch without rows);
        a shared row stays shared."""
        if self.rows == 1:
            return self
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        take = (lambda a: None if a is None else a[idx])
        return replace(self, probs=self.probs[idx], zero_time=take(self.zero_time),
                       fallback=take(self.fallback))

    def segment_of(self, t) -> np.ndarray:
        """Index of the `grid` segment [k_j, k_{j+1}) holding each t >= 0;
        the last index means past t_max (the tail)."""
        return np.searchsorted(self.grid, t, side="right") - 1

    def _line(self, rows, seg, t):
        # value at t of the line each row follows on segment `seg` (the
        # extension when seg is the last knot, exactly p_last at t_max)
        knots = self.grid
        last = knots.size - 1
        j = np.minimum(seg, max(last - 1, 0))
        base = self._prob(rows, j)
        if self.interp == "linear" and last > 0:
            slope = (self._prob(rows, j + 1) - base) / (knots[j + 1] - knots[j])
            # t = inf on a flat last segment gives 0 * inf; the tail is masked below
            with np.errstate(invalid="ignore"):
                base = base + slope * (t - knots[j])
        tail = self.probs[rows, -1]
        if self.zero_time is not None:
            zero = self.zero_time[rows]
            width = zero - knots[last]
            with np.errstate(divide="ignore", invalid="ignore"):
                down = np.where(width > 0, tail * (zero - t) / width, 0.0)
            # rounding may lift the line just past t_max above p_last
            tail = np.where(t > knots[last], np.clip(down, 0.0, tail), tail)
        return np.where(seg >= last, tail, base)

    def segment_ends(self, rows, seg, a, b):
        """Values of each row's curve on [a, b] inside segment `seg`.

        Returns (S(a), cut, S(cut)): S is polynomial of degree <= 1 on
        [a, cut] and 0 on [cut, b], where ``cut = b`` except in the tail,
        which is cut where it reaches 0.  Arguments broadcast together;
        ``rows`` indexes the batch rows.
        """
        cut = b
        if self.zero_time is not None:
            cut = np.where(seg >= self.grid.size - 1,
                           np.clip(self.zero_time[rows], a, b), b)
        return self._line(rows, seg, a), cut, self._line(rows, seg, cut)

    def segment_tables(self, rows: slice, seg, a, b):
        """`segment_ends` of the rows in the slice `rows` on pieces [a, b)
        before t_max, as (rows, pieces) tables; `seg` is sorted, so each
        segment's knot values are read once, as columns of the row slice.
        The cut is b, and a step batch returns one table for both ends."""
        knots, probs, anchored = self.grid, self.probs[rows], self._anchored
        base = probs[:, np.maximum(seg - anchored, 0)]
        base[:, :np.searchsorted(seg, anchored)] = 1.0      # the (0, 1) anchor
        if self.interp == "step":
            return base, b, base
        slope = (probs[:, seg + 1 - anchored] - base) / (knots[seg + 1] - knots[seg])
        return base + slope * (a - knots[seg]), b, base + slope * (b - knots[seg])

    def _evaluate(self, t):
        # S at times t >= 0; see survival_at
        t = np.asarray(t, dtype=float)
        if t.size and t.min() < 0:
            raise ValueError("survival curves are only defined for t >= 0")
        if self.rows == 1:
            values = self._line(0, self.segment_of(t), t)
            return float(values) if t.ndim == 0 else values
        t2 = t if t.ndim == 2 else t.reshape(-1, 1)
        if t2.shape[0] not in (1, self.rows):
            raise ValueError(f"{t2.shape[0]} query rows for a batch of {self.rows} curves")
        values = self._line(np.arange(self.rows)[:, None], self.segment_of(t2), t2)
        return values if t.ndim == 2 else values[:, 0]

    @cached_property
    def _suffix_area(self) -> np.ndarray:
        # suffix[:, j] = integral of each row from grid knot j to infinity
        if self.zero_time is None:
            raise ValueError("areas need extended curves; call extend_linear first")
        probs = self.probs
        linear = self.interp == "linear"
        pieces = [_trapezoid(np.diff(self.knots), probs[:, :-1],
                             probs[:, 1:] if linear else probs[:, :-1])]
        if self._anchored:
            first = _trapezoid(self.knots[0], 1.0, probs[:, :1] if linear else 1.0)
            pieces.insert(0, np.broadcast_to(first, (self.rows, 1)))
        width = self.zero_time - self.t_max
        tail = np.where(width > 0, _trapezoid(width, probs[:, -1], 0.0), 0.0)
        areas = np.hstack((*pieces, tail[:, None]))
        return np.cumsum(areas[:, ::-1], axis=1)[:, ::-1]

    def area_from(self, c) -> np.ndarray:
        """Integral of S from c to infinity, c of shape () or (q,) with one
        time per patient; one suffix-sum table serves every query."""
        c = np.asarray(c, dtype=float).reshape(-1)
        knots = self.grid
        last = knots.size - 1
        suffix = self._suffix_area
        rows = np.arange(self.rows) if self.rows > 1 else 0
        seg = self.segment_of(c)
        nxt = np.minimum(seg + 1, last)
        s_c = self._evaluate(c)
        # before t_max: the rest of c's segment plus everything after it;
        # past t_max: the triangle under the extension up to its zero time
        end = self._prob(rows, nxt) if self.interp == "linear" else s_c
        inside = _trapezoid(knots[nxt] - c, s_c, end) + suffix[rows, nxt]
        tail = _trapezoid(np.maximum(self.zero_time[rows] - c, 0.0), s_c, 0.0)
        return np.where(seg < last, inside, tail)


def survival_at(c: CurveBatch, t):
    """Evaluate the curves of a batch at time(s) t >= 0.

    Step curves are right-continuous; linear curves interpolate between
    knots.  Plain curves hold their last probability past the final knot;
    extended curves descend along the extension line and are 0 from
    ``zero_time`` on.  A one-row batch (a single curve) takes t of any
    shape and returns that shape, a float for a scalar t.  A batch of
    several rows reads the first axis of t as the patients: t of shape ()
    or (q,) holds one time per patient and gives (q,) values, t of shape
    (q, k) gives (q, k).  q may be 1 (times shared by every row, so
    ``t[None, :]`` gives (rows, k)) or the number of rows.
    """
    return c._evaluate(t)


def extend_linear(c: CurveBatch, t0_km: float | None = None) -> CurveBatch:
    """Extend curves to zero along the line through (0, 1) and the last knot.

    If a curve already reaches 0 the extension is the identity.  If it is
    flat at 1 (within machine precision) the line never crosses zero, so
    ``t0_km``, the zero time of the extended training Kaplan-Meier curve,
    is substituted and the curve is marked as a fallback; a missing or
    non-positive ``t0_km`` is an error in that case.  Returns the batch
    with one ``zero_time`` and ``fallback`` entry per row.
    """
    p_last = c.probs[:, -1]
    t_max = c.t_max
    dead = p_last <= 0.0
    flat = p_last > 1.0 - FLAT_TOLERANCE
    first_zero = c.knots[np.argmax(c.probs <= 0.0, axis=1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = np.where(dead, first_zero, t_max / (1.0 - p_last))
    if flat.any():
        if t0_km is None or not t0_km > 0:
            raise ValueError(
                "curve is flat at probability 1; a positive training-KM zero "
                f"time is required to extend it (got {t0_km!r})"
            )
        zero = np.where(flat, max(float(t0_km), t_max), zero)
    return replace(c, zero_time=zero, fallback=flat)


def median_survival(c: CurveBatch, t0_km: float) -> np.ndarray:
    """Smallest t with S(t) <= 0.5, capped at the training-KM zero time,
    one per row of an extended batch.

    Step segments use the step convention (first knot at or below 0.5);
    linear segments and the extension invert the line exactly.
    """
    if c.zero_time is None:
        raise ValueError("medians need extended curves; call extend_linear first")
    knots = c.grid
    below = c.probs <= 0.5
    k = np.argmax(below, axis=1) + c._anchored  # grid index of the first knot <= 0.5
    if c.interp == "step":
        crossing = knots[k]
    else:
        rows = np.arange(c.rows)
        prev = np.maximum(k - 1, 0)
        t_prev, p_prev = knots[prev], c._prob(rows, prev)
        t_k, p_k = knots[k], c._prob(rows, k)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossing = np.where(
                p_prev <= 0.5, t_prev,
                t_prev + (p_prev - 0.5) * (t_k - t_prev) / (p_prev - p_k),
            )
    # no knot at or below 0.5: the crossing happens on the extension line
    p_last = c.probs[:, -1]
    width = c.zero_time - c.t_max
    with np.errstate(divide="ignore", invalid="ignore"):
        on_tail = np.where(width > 0, c.zero_time - 0.5 * width / p_last, c.t_max)
    median = np.where(below.any(axis=1), crossing, on_tail)
    return np.minimum(median, float(t0_km))


def integrate_curve(c: CurveBatch, a: float, b: float) -> np.ndarray:
    """Exact integral of each extended row over [a, b], one per row."""
    if b <= a:
        return np.zeros(c.rows)
    return c.area_from(max(a, 0.0)) - c.area_from(b)


def mean_survival(c: CurveBatch) -> np.ndarray:
    """Expected survival time: the area under each extended row."""
    return c._suffix_area[:, 0]

