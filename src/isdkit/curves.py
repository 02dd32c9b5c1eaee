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
shares, for Kaplan-Meier), or, for Cox-KP, one log cumulative hazard row
plus one linear predictor per patient.  A single curve is a one-row batch,
so every function here has one evaluator and one extension path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
# rows per (rows x knots) table that a query on a batch builds at once, so a
# batch in hazard form never holds a probability per patient and knot
ROW_BLOCK = 32


def _trapezoid(width, start, end):
    # area under a line segment; exact for constant pieces too (start == end)
    return width * (start + end) * 0.5


@dataclass(frozen=True, eq=False)
class CurveBatch:
    """Survival curves on one shared knot vector.

    ``probs[i, j]`` is row i's probability at ``knots[j]``.  ``base`` holds
    these probabilities as a (rows, m) matrix, or, with ``eta`` given (the
    hazard form of a Cox-KP batch), as one row of the log cumulative
    baseline hazard log H0 (-inf where H0 = 0) and one linear predictor
    ``eta[i]`` per row: ``probs[i, j] = exp(-exp(eta[i] + base[0, j]))``.
    A batch in hazard form keeps O(rows + m) floats; every query builds
    its probabilities at most `ROW_BLOCK` rows at a time, and ``probs``
    builds the whole matrix anew on each read.

    A batch has a row per patient, or one row that every patient shares;
    per-row results broadcast against the patients and are never copied
    per patient.  A single curve is a one-row batch (a 1-d ``base`` is read
    as one row).  ``interp`` applies to every row: "step"
    (right-continuous) or "linear".  The knots are non-negative and
    strictly increasing, and every survival curve starts at (0, 1): given
    a first knot past 0, the constructor prepends knot 0 with probability
    1 (log H0 = -inf) to every row, so ``knots[0]`` is always 0.  Knots
    that start at 0 are kept as given.

    ``zero_time`` and ``fallback`` (one entry per row) are set by
    `extend_linear`; a batch without them holds each row's last probability
    past the final knot.
    """

    knots: np.ndarray
    base: np.ndarray
    interp: str = "step"
    zero_time: np.ndarray | None = None
    fallback: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        base = np.asarray(self.base, dtype=float)
        if base.ndim == 1:
            base = base[None, :]
        if knots.ndim != 1 or knots.size == 0 or base.ndim != 2 \
                or base.shape[1] != knots.size:
            raise ValueError("a curve batch needs knots (m,) and probs (rows, m), m >= 1")
        if self.interp not in ("step", "linear"):
            raise ValueError(f"unknown interpolation kind {self.interp!r}")
        # each check is a positive condition, so that NaN fails it
        if not (knots[0] >= 0 and np.all(np.diff(knots) > 0)):
            raise ValueError("knot times must be non-negative and strictly increasing")
        arrays = {}
        rows = base.shape[0]
        if self.eta is None:
            if not (np.all(base >= 0) and np.all(base <= 1)):
                raise ValueError("survival probabilities must lie in [0, 1]")
            if not np.all(np.diff(base, axis=1) <= 0):
                raise ValueError("survival probabilities must be non-increasing")
        else:
            eta = np.asarray(self.eta, dtype=float)
            if rows != 1 or eta.ndim != 1:
                raise ValueError("a batch in hazard form needs one log H0 row and eta (rows,)")
            # neighbours, not np.diff: -inf - -inf is NaN
            if np.isnan(base).any() or not np.all(base[0, 1:] >= base[0, :-1]):
                raise ValueError("log cumulative hazards must be non-decreasing numbers")
            # an infinite eta would meet log H0 = -inf at the anchor in inf - inf
            if (bad := np.flatnonzero(~np.isfinite(eta))).size:
                raise ValueError(f"row {bad[0]}: eta {eta[bad[0]]} is not a finite number")
            arrays["eta"] = eta.copy() if eta.flags.writeable else eta
            rows = eta.size
        if knots[0] > 0:  # the (0, 1) anchor, in new arrays the batch owns
            knots = np.concatenate(([0.0], knots))
            base = np.hstack((np.full((len(base), 1), 1.0 if self.eta is None else -np.inf), base))
        else:  # copies of arrays the caller could still write to
            knots = knots.copy() if knots.flags.writeable else knots
            base = base.copy() if base.flags.writeable else base
        arrays.update(knots=knots, base=base)
        for name, value in arrays.items():
            value.setflags(write=False)  # read-only, so batches can share arrays
            object.__setattr__(self, name, value)
        for name in ("zero_time", "fallback"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float if name == "zero_time" else bool)
                if value.shape != (rows,):
                    raise ValueError(f"{name} needs one entry per row")
                object.__setattr__(self, name, value)

    @property
    def rows(self) -> int:
        return int((self.base if self.eta is None else self.eta).shape[0])

    @property
    def probs(self) -> np.ndarray:
        """The (rows, m) probability matrix; a batch in hazard form builds it
        on each read."""
        return self.base if self.eta is None else self._probs(slice(None), slice(None))

    def _probs(self, rows, cols, out=None) -> np.ndarray:
        """``probs[rows, cols]`` without building ``probs``: ``rows`` and
        ``cols`` are index arrays (or ints) that broadcast together, or
        ``rows`` is a slice and ``cols`` an index array or slice, which
        gives a (rows, cols) table.  A matrix batch returns a view of its
        rows.  The hazard form computes every cell as exp(-exp(eta + log
        H0)), elementwise, so it has the same bits however the rows and
        knots are read; the table of a row slice and every knot goes in the
        leading rows of ``out`` when given, the scratch that `block_tables`
        reuses across blocks, which the next block overwrites."""
        if self.eta is None:
            return self.base[rows][:, cols] if isinstance(rows, slice) else self.base[rows, cols]
        eta = self.eta[rows, None] if isinstance(rows, slice) else self.eta[rows]
        p = np.add(eta, self.base[0, cols], out=None if out is None else out[:eta.shape[0]])
        # a cumulative hazard past 1.8e308 overflows to inf, which reads S = 0
        with np.errstate(over="ignore"):
            if np.ndim(p) == 0:
                return np.exp(-np.exp(p))
            return np.exp(np.negative(np.exp(p, out=p), out=p), out=p)

    def block_tables(self):
        """Yield (block, table) for the rows as slices of at most
        `ROW_BLOCK` rows (one empty slice for a batch without rows), the
        table being the block's (rows x knots) probabilities.  A batch in
        hazard form builds every table in one buffer allocated up front,
        since tables above glibc's mmap threshold would otherwise map fresh
        pages for every block, so a table holds only until the next
        block."""
        buf = None if self.eta is None else np.empty((min(self.rows, ROW_BLOCK), self.knots.size))
        for first in range(0, max(self.rows, 1), ROW_BLOCK):
            block = slice(first, min(first + ROW_BLOCK, self.rows))
            yield block, self._probs(block, slice(None), out=buf)

    def row(self, i: int) -> np.ndarray:
        """Row i's probabilities at the knots."""
        return self._probs(i, slice(None))

    @property
    def t_max(self) -> float:
        return float(self.knots[-1])

    @property
    def fallback_applied(self) -> int:
        """Number of rows whose zero time is the training-KM fallback."""
        return 0 if self.fallback is None else int(np.count_nonzero(self.fallback))

    def subset(self, indices) -> "CurveBatch":
        """The rows of the given patients (none gives a batch without rows);
        a shared row stays shared, and a batch in hazard form keeps its
        log H0 row."""
        if self.rows == 1:
            return self
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        elif idx.size == 0:   # np.asarray([]) is a float array, refused as an index
            idx = np.empty(0, dtype=np.intp)
        take = (lambda a: None if a is None else a[idx])
        base = self.base[idx] if self.eta is None else self.base
        return replace(self, base=base, eta=take(self.eta),
                       zero_time=take(self.zero_time), fallback=take(self.fallback))

    def segment_of(self, t) -> np.ndarray:
        """Index of the knot segment [k_j, k_{j+1}) holding each t >= 0;
        the last index means past t_max (the tail)."""
        return np.searchsorted(self.knots, t, side="right") - 1

    def line(self, rows, seg):
        """The line each row follows on its knot segment ``seg``: from
        ``p`` at the segment's left knot ``left`` down to ``end`` just
        before ``stop``, and 0 from ``stop`` on.  Inside the knots ``stop``
        is the next knot and ``end`` its probability on a linear segment,
        ``p`` on a step one.  On the last knot (the tail) the line runs to
        0 at the zero time; a batch that is not extended holds ``p`` up to
        an infinite ``stop``.  Returns (p, left, stop, end)."""
        knots = self.knots
        last = knots.size - 1
        nxt = np.minimum(seg + 1, last)
        p = self._probs(rows, seg)
        end = self._probs(rows, nxt) if self.interp == "linear" else p
        tail = seg == last
        if self.zero_time is None:
            return p, knots[seg], np.where(tail, np.inf, knots[nxt]), end
        zero = np.maximum(self.zero_time[rows], knots[last])
        return p, knots[seg], np.where(tail, zero, knots[nxt]), np.where(tail, 0.0, end)

    def first_at_or_below(self, level: float):
        """Per row, the index of the first knot with S <= level (0 if none)
        and whether there is one.  Every row is non-increasing, so that
        index is the number of knots above the level: counted on a matrix,
        and found by bisection in hazard form, which reads one knot of each
        row per step."""
        m = self.knots.size
        if self.eta is None:
            above = np.count_nonzero(self.base > level, axis=1)
        else:
            # add each power of 2, largest first, while the knot it reaches
            # (the last, past the end) is above the level; exp(-exp(.)) is
            # non-increasing in floats too, so this finds the scan's knot
            rows, above = np.arange(self.rows), np.zeros(self.rows, dtype=np.intp)
            for k in reversed(range(m.bit_length())):
                probe = np.minimum(above + (1 << k), m)
                above = np.where(self._probs(rows, probe - 1) > level, probe, above)
        found = above < m
        return np.where(found, above, 0), found

    def _value(self, rows, seg, t):
        # S at t on each row's `line` on segment `seg`, t at or past its left
        # knot.  A flat line, and every line at its left knot, reads p (so
        # does a tail of width 0); past it a sloped line is 0 from stop on,
        # and before stop it is anchored at its left knot inside the knots
        # and at the zero time in the tail, capped there at p, which
        # rounding may exceed just past t_max
        p, left, stop, end = self.line(rows, seg)
        width = stop - left
        with np.errstate(divide="ignore", invalid="ignore"):
            sloped = np.where(seg < self.knots.size - 1, p + (end - p) / width * (t - left),
                              np.minimum(p * (stop - t) / width, p))
        return np.where((end < p) & (t > left), np.where(t < stop, sloped, 0.0), p)

    def _evaluate(self, t):
        # S at times t >= 0; see survival_at
        t = np.asarray(t, dtype=float)
        if t.size and not t.min() >= 0:
            raise ValueError("survival curves are only defined for t >= 0")
        if self.rows == 1:
            values = self._value(0, self.segment_of(t), t)
            return float(values) if t.ndim == 0 else values
        t2 = t if t.ndim == 2 else t.reshape(-1, 1)
        if t2.shape[0] not in (1, self.rows):
            raise ValueError(f"{t2.shape[0]} query rows for a batch of {self.rows} curves")
        values = self._value(np.arange(self.rows)[:, None], self.segment_of(t2), t2)
        return values if t.ndim == 2 else values[:, 0]

    def _suffix_area(self, rows: slice, probs) -> np.ndarray:
        # suffix[:, j] = integral from knot j to infinity of each row of
        # `probs`, the table of the slice, and suffix[:, m] = 0 past the tail
        inside = _trapezoid(np.diff(self.knots), probs[:, :-1],
                            probs[:, 1:] if self.interp == "linear" else probs[:, :-1])
        width = self.zero_time[rows] - self.t_max
        tail = np.where(width > 0, _trapezoid(width, probs[:, -1], 0.0), 0.0)
        areas = np.hstack((inside, tail[:, None], np.zeros((len(tail), 1))))
        return np.cumsum(areas[:, ::-1], axis=1)[:, ::-1]

    def area_from(self, c) -> np.ndarray:
        """Integral of S from c to infinity, c of shape () or (q,): a time per
        patient, or q times on a shared row.  The rest of c's `line` plus every
        segment after it, gathered per block of rows from one suffix-sum table."""
        if self.zero_time is None:
            raise ValueError("areas need extended curves; call extend_linear first")
        c = np.asarray(c, dtype=float).reshape(-1)
        rows = np.arange(self.rows) if self.rows != 1 else 0
        seg = self.segment_of(c)
        nxt = (seg + 1)[None] if self.rows == 1 else np.broadcast_to(seg + 1, (self.rows,))[:, None]
        after = np.concatenate([
            np.take_along_axis(self._suffix_area(block, probs), nxt[block], axis=1)
            for block, probs in self.block_tables()]).reshape(-1)
        _, _, stop, end = self.line(rows, seg)
        return _trapezoid(np.maximum(stop - c, 0.0), self._evaluate(c), end) + after


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
    p_last = c._probs(np.arange(c.rows), -1)
    t_max = c.t_max
    dead = p_last <= 0.0
    flat = p_last > 1.0 - FLAT_TOLERANCE
    first_zero = c.knots[c.first_at_or_below(0.0)[0]]
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

    The crossing lies on the `CurveBatch.line` of the segment before the
    first knot at or below 0.5, or of the tail when there is none: at its
    stop on a step segment (the step convention), and elsewhere where the
    line, anchored as in `survival_at`, reads 0.5 exactly.
    """
    if c.zero_time is None:
        raise ValueError("medians need extended curves; call extend_linear first")
    last = c.knots.size - 1
    k, crosses = c.first_at_or_below(0.5)
    seg = np.where(crosses, np.maximum(k - 1, 0), last)
    p, left, stop, end = c.line(np.arange(c.rows), seg)
    with np.errstate(divide="ignore", invalid="ignore"):
        on_line = np.where(seg < last, left + (p - 0.5) * (stop - left) / (p - end),
                           stop - (0.5 - end) * (stop - left) / (p - end))
    median = np.where(p <= 0.5, left, np.where(end > 0.5, stop, on_line))
    return np.minimum(median, float(t0_km))


def integrate_curve(c: CurveBatch, a: float, b: float) -> np.ndarray:
    """Exact integral of each extended row over [a, b], one per row."""
    if b <= a:
        return np.zeros(c.rows)
    return c.area_from(max(a, 0.0)) - c.area_from(b)


def mean_survival(c: CurveBatch) -> np.ndarray:
    """Expected survival time: the area under each extended row."""
    return c.area_from(0.0)
