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
shares, for Kaplan-Meier).  Every function here takes a batch; a single
`SurvivalCurve` or `ExtendedCurve` is evaluated as a one-row batch, so
there is one evaluator for both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import SurvivalCurve

__all__ = [
    "CurveBatch",
    "ExtendedCurve",
    "as_batch",
    "survival_at",
    "extend_linear",
    "median_survival",
    "mean_survival",
    "average_curves",
    "integrate_curve",
]

FLAT_TOLERANCE = 1e-10  # S(t_max) > 1 - this counts as "never left 1"


@dataclass(frozen=True)
class ExtendedCurve:
    """A survival curve plus the linear tail that carries it to zero.

    ``zero_time`` is where the extension reaches probability 0 and
    ``fallback_applied`` marks curves whose own line never crosses zero
    (flat at 1), where the training-KM zero time was substituted.
    """

    base: SurvivalCurve
    zero_time: float
    fallback_applied: bool = False

    @property
    def t_max(self) -> float:
        return float(self.base.times[-1])


def _trapezoid(width, start, end):
    # area under a line segment; exact for constant pieces too (start == end)
    return width * (start + end) * 0.5


@dataclass(frozen=True, eq=False)
class CurveBatch:
    """Survival curves on one shared knot vector.

    ``probs[i, j]`` is row i's probability at ``knots[j]``.  A batch has a
    row per patient, or one row that every patient shares; per-row results
    broadcast against the patients and are never copied per patient.
    ``interp`` applies to every row: "step" (right-continuous) or "linear"
    (anchored at (0, 1) unless a knot sits at 0).  A linear batch may list a
    knot twice to carry a jump: the first copy holds the left limit, the
    second the value at the knot.

    ``zero_time`` and ``fallback`` (one entry per row) are set by
    `extend_linear`; a batch without them holds each row's last probability
    past the final knot, like a plain `SurvivalCurve`.
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
        steps = np.diff(knots)
        if knots[0] < 0 or np.any(steps < 0):
            raise ValueError("knot times must be non-negative and non-decreasing")
        if self.interp == "step" and np.any(steps == 0):
            raise ValueError("knot times of a step batch must be strictly increasing")
        if np.any(knots[2:] == knots[:-2]):
            raise ValueError("a knot may appear at most twice")
        if np.any(probs < 0) or np.any(probs > 1):
            raise ValueError("survival probabilities must lie in [0, 1]")
        if np.any(np.diff(probs, axis=1) > 0):
            raise ValueError("survival probabilities must be non-increasing")
        for name, value in (("knots", knots), ("probs", probs)):
            if value.flags.writeable:  # read-only, so rows can be handed out as views
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

    @classmethod
    def from_curve(cls, curve) -> "CurveBatch":
        """One `SurvivalCurve` or `ExtendedCurve` as a one-row batch."""
        extended = isinstance(curve, ExtendedCurve)
        base = curve.base if extended else curve
        # the curve was validated on construction, so the checks are skipped
        batch = object.__new__(cls)
        for name, value in (
            ("knots", base.times), ("probs", base.probs[None, :]), ("interp", base.interp),
            ("zero_time", np.array([curve.zero_time]) if extended else None),
            ("fallback", np.array([curve.fallback_applied]) if extended else None),
        ):
            object.__setattr__(batch, name, value)
        return batch

    @classmethod
    def from_curves(cls, curves) -> "CurveBatch":
        """Stack curves (all plain or all extended) into one batch.

        Curves that share their knots and interpolation are stacked as they
        are.  Otherwise every curve is evaluated on the union of all knots
        and of the zero times inside it, each union knot is listed twice
        (left limit, then value) so step rows keep their jumps, and the
        batch interpolates linearly: each row stays the same function at
        every time.  (A tail that drops to 0 at once after its last knot
        keeps its value up to one float step past that knot, which moves an
        integral by at most that step.)
        """
        curves = list(curves)
        if not curves:
            raise ValueError("cannot batch an empty set of curves")
        extended = [isinstance(c, ExtendedCurve) for c in curves]
        if any(extended) and not all(extended):
            raise ValueError("cannot batch extended curves together with plain ones")
        bases = [c.base for c in curves] if extended[0] else curves
        zero = fallback = None
        if extended[0]:
            zero = np.array([c.zero_time for c in curves], dtype=float)
            fallback = np.array([c.fallback_applied for c in curves], dtype=bool)
        first = bases[0]
        if all(b is first or (b.interp == first.interp and np.array_equal(b.times, first.times))
               for b in bases):
            return cls(first.times, np.vstack([b.probs for b in bases]), first.interp,
                       zero, fallback)

        knots = np.unique(np.concatenate([b.times for b in bases]))
        drop_at = np.full(len(curves), np.nan)
        if zero is not None:
            # a tail whose zero time is its last knot drops to 0 right after
            # it: that row gets a knot one float step later
            t_max = np.array([b.times[-1] for b in bases])
            p_last = np.array([b.probs[-1] for b in bases])
            drops = (zero <= t_max) & (p_last > 0)
            drop_at[drops] = np.nextafter(t_max[drops], np.inf)
            knots = np.unique(np.concatenate((knots, zero[zero < knots[-1]], drop_at[drops])))
        right = np.vstack([survival_at(c, knots) for c in curves])
        left = right.copy()
        for i, b in enumerate(bases):
            if b.interp == "step":
                jumps = knots <= b.times[-1]
                before = np.searchsorted(b.times, knots[jumps], side="left") - 1
                left[i, jumps] = np.where(before >= 0, b.probs[np.maximum(before, 0)], 1.0)
            left[i, knots == drop_at[i]] = b.probs[-1]
        probs = np.empty((len(curves), 2 * knots.size))
        probs[:, 0::2] = left
        probs[:, 1::2] = right
        return cls(np.repeat(knots, 2), probs, "linear", zero, fallback)

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

    def row(self, i: int):
        """Row i as a `SurvivalCurve`, or an `ExtendedCurve` once extended; a
        read-only view of the batch, not a copy.  Every i reads the one row
        of a shared batch."""
        if np.any(self.knots[1:] == self.knots[:-1]):
            raise ValueError("a row with a repeated knot is not a SurvivalCurve")
        if self.rows == 1:
            i = 0
        base = object.__new__(SurvivalCurve)  # the batch was validated already
        for name, value in (("times", self.knots), ("probs", self.probs[i]),
                            ("interp", self.interp)):
            object.__setattr__(base, name, value)
        if self.zero_time is None:
            return base
        return ExtendedCurve(base, float(self.zero_time[i]), bool(self.fallback[i]))

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
            # a zero-width segment only occurs at the tail, which is masked below
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = (self._prob(rows, j + 1) - base) / (knots[j + 1] - knots[j])
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

    def _evaluate(self, t) -> np.ndarray:
        # S at times t >= 0 whose first axis runs over the patients; see survival_at
        t = np.asarray(t, dtype=float)
        if t.size and t.min() < 0:
            raise ValueError("survival curves are only defined for t >= 0")
        t2 = t if t.ndim == 2 else t.reshape(-1, 1)
        if self.rows > 1 and t2.shape[0] not in (1, self.rows):
            raise ValueError(f"{t2.shape[0]} query rows for a batch of {self.rows} curves")
        rows = np.arange(self.rows)[:, None] if self.rows > 1 else 0
        values = self._line(rows, self.segment_of(t2), t2)
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


def as_batch(curves) -> CurveBatch:
    """A batch as is, one curve as a one-row batch, and a sequence of curves
    through `CurveBatch.from_curves`."""
    if isinstance(curves, CurveBatch):
        return curves
    if isinstance(curves, (SurvivalCurve, ExtendedCurve)):
        return CurveBatch.from_curve(curves)
    return CurveBatch.from_curves(curves)


def survival_at(curve, t):
    """Evaluate a curve or a `CurveBatch` at time(s) t >= 0.

    Step curves are right-continuous; linear curves interpolate between
    knots.  Plain curves hold their last probability past the final knot;
    extended curves descend along the extension line and are 0 from
    ``zero_time`` on.  A single curve accepts any shape of t and returns
    that shape.  A batch reads the first axis of t as the patients: t of
    shape () or (q,) holds one time per patient and gives (q,) values, t of
    shape (q, k) gives (q, k).  q may be 1 (times shared by every row, so
    ``t[None, :]`` gives (rows, k)) or the number of rows; a one-row batch
    takes any q.
    """
    if isinstance(curve, CurveBatch):
        return curve._evaluate(t)
    t_arr = np.asarray(t, dtype=float)
    out = CurveBatch.from_curve(curve)._evaluate(t_arr.reshape(1, -1))[0]
    return float(out[0]) if t_arr.ndim == 0 else out.reshape(t_arr.shape)


def extend_linear(c, t0_km: float | None = None):
    """Extend curves to zero along the line through (0, 1) and the last knot.

    If a curve already reaches 0 the extension is the identity.  If it is
    flat at 1 (within machine precision) the line never crosses zero, so
    ``t0_km``, the zero time of the extended training Kaplan-Meier curve,
    is substituted and the curve is marked as a fallback; a missing or
    non-positive ``t0_km`` is an error in that case.  A `SurvivalCurve`
    gives an `ExtendedCurve`, a `CurveBatch` an extended batch.
    """
    batch = c if isinstance(c, CurveBatch) else CurveBatch.from_curve(c)
    p_last = batch.probs[:, -1]
    t_max = batch.t_max
    dead = p_last <= 0.0
    flat = p_last > 1.0 - FLAT_TOLERANCE
    first_zero = batch.knots[np.argmax(batch.probs <= 0.0, axis=1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        zero = np.where(dead, first_zero, t_max / (1.0 - p_last))
    if flat.any():
        if t0_km is None or not t0_km > 0:
            raise ValueError(
                "curve is flat at probability 1; a positive training-KM zero "
                f"time is required to extend it (got {t0_km!r})"
            )
        zero = np.where(flat, max(float(t0_km), t_max), zero)
    if isinstance(c, CurveBatch):
        return replace(c, zero_time=zero, fallback=flat)
    return ExtendedCurve(c, float(zero[0]), bool(flat[0]))


def median_survival(c, t0_km: float):
    """Smallest t with S(t) <= 0.5, capped at the training-KM zero time.

    Step segments use the step convention (first knot at or below 0.5);
    linear segments and the extension invert the line exactly.  An
    `ExtendedCurve` gives a float, an extended batch one median per row.
    """
    if isinstance(c, ExtendedCurve):
        return float(median_survival(CurveBatch.from_curve(c), t0_km)[0])
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


def integrate_curve(c: ExtendedCurve, a: float, b: float) -> float:
    """Exact integral of the extended survival function over [a, b]."""
    if b <= a:
        return 0.0
    batch = CurveBatch.from_curve(c)
    return float(batch.area_from(max(a, 0.0))[0] - batch.area_from(b)[0])


def mean_survival(c):
    """Expected survival time: the area under the extended curve (a float
    for an `ExtendedCurve`, one value per row for a batch)."""
    if isinstance(c, ExtendedCurve):
        return float(mean_survival(CurveBatch.from_curve(c))[0])
    return c._suffix_area[:, 0]


def average_curves(cs) -> SurvivalCurve:
    """Point-wise mean of several curves on the union of their knot times."""
    cs = list(cs)
    if not cs:
        raise ValueError("cannot average an empty set of curves")
    union = np.unique(np.concatenate([c.times for c in cs]))
    stacked = np.vstack([survival_at(c, union) for c in cs])
    mean = stacked.mean(axis=0)
    interp = "step" if all(c.interp == "step" for c in cs) else "linear"
    return SurvivalCurve(union, mean, interp)
