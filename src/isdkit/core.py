"""Survival data containers, CSV ingestion, and the model interface.

An instance records covariates plus a right-censored label: the observed
time is min(death time, censor time) and the event flag says whether the
death was observed.  Feature values may be numeric, a category string, or
``None`` for a missing cell; models only ever see fully numeric feature
matrices (the preprocessing pipeline guarantees that).
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Iterator

import numpy as np

__all__ = [
    "Instance",
    "SurvivalDataset",
    "SurvivalModel",
    "FitError",
    "ConvergenceError",
    "newton_ascent",
    "load_csv",
    "save_csv",
    "split_by_censoring",
    "fold_indices",
]


class FitError(RuntimeError):
    """A model fit failed for a structural reason (e.g. singular Hessian)."""


class ConvergenceError(FitError):
    """An iterative fit ran out of iterations; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


# the step policy of every Newton fit: the gradient max-norm that ends it, the
# most steps it takes and the most halvings of one step
NEWTON_TOL, NEWTON_STEPS, NEWTON_HALVINGS = 1e-8, 100, 40


def accepts(new, value):
    """Whether a trial log-likelihood `new` may replace `value` (elementwise):
    finite, not the +inf of log 0, and not below it beyond float resolution."""
    return np.isfinite(new) & (new >= value - 1e-10 * (1.0 + np.abs(value)))


def newton_ascent(f, x0, solve, what: str):
    """Maximize a log-likelihood ``f(x) -> (value, gradient, information)``
    by Newton steps ``solve(info, grad)`` from x0, each halved until
    `accepts` takes it; each trial is one call of f.  Returns (x,
    information, Newton steps, gradient max-norm); raises ConvergenceError
    carrying the last iterate when a step fails or NEWTON_STEPS steps do
    not converge."""
    x = x0
    value, grad, info = f(x)
    for steps in range(NEWTON_STEPS + 1):
        gnorm = float(np.abs(grad).max(initial=0.0))
        if gnorm < NEWTON_TOL:
            return x, info, steps, gnorm
        if steps == NEWTON_STEPS:
            break
        step = solve(info, grad)
        for halvings in range(NEWTON_HALVINGS):
            candidate = x + 0.5 ** halvings * step
            trial = f(candidate)
            if accepts(trial[0], value):
                break
        else:
            raise ConvergenceError(f"{what} step halving failed to improve the likelihood",
                                   last_iterate=x)
        x = candidate
        value, grad, info = trial
    raise ConvergenceError(f"{what} fit did not converge in {NEWTON_STEPS} steps "
                           f"(gradient max-norm {gnorm:.3g})", last_iterate=x)


def _repeated(names):
    """The first name in `names` that an earlier one repeats, or None."""
    return next((name for i, name in enumerate(names) if name in names[:i]), None)


@dataclass(frozen=True)
class Instance:
    """One patient: covariates plus the recorded (time, event) label.

    ``event`` is True when the recorded time is an observed death and
    False when it is a censoring time (a lower bound on the death time).
    A death tied with its censor time is encoded as event=True.
    """

    features: tuple
    time: float
    event: bool

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "time", float(self.time))
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(f"time must be finite and non-negative, got {self.time}")
        if self.event not in (0, 1):        # also False/True and numpy bools
            raise ValueError(f"event must be 0 or 1, got {self.event!r}")
        object.__setattr__(self, "event", bool(self.event))


class SurvivalDataset:
    """A cohort sharing one feature schema, stored as columns.

    ``times`` (n,) and ``events`` (n,) are read-only arrays, ``values`` is a
    read-only (n, k) float matrix with NaN wherever a cell is missing or a
    category string, and ``raw_columns`` maps the index of every column
    that holds a string to its raw cells (None, str or float).

    ``SurvivalDataset(instances, feature_names)`` converts `Instance`s in
    one pass; `from_arrays` builds the arrays directly.  ``instances`` and
    iteration give `Instance` views built on demand.  A non-finite numeric
    cell is rejected with its row and column named: ``None`` marks a
    missing cell.
    """

    def __init__(self, instances, feature_names):
        names = tuple(str(n) for n in feature_names)
        k = len(names)
        rows, times, events = [], [], []
        for i, inst in enumerate(instances):
            if len(inst.features) != k:
                raise ValueError(
                    f"instance {i} has {len(inst.features)} features, expected {k}"
                )
            rows.append(inst.features)
            times.append(inst.time)
            events.append(inst.event)
        x, raw = _columns(rows, names)
        self._init(np.array(times, dtype=float), np.array(events, dtype=bool),
                   x, raw, names)

    def _init(self, times, events, x, raw, names):
        if (repeated := _repeated(names)) is not None:
            raise ValueError(f"feature name {repeated!r} appears more than once")
        for arr in (times, events, x, *raw.values()):
            arr.setflags(write=False)
        self.times, self.events, self.values = times, events, x
        self.raw_columns = MappingProxyType(raw)
        self.feature_names = names

    @classmethod
    def _from_columns(cls, times, events, x, raw, names) -> "SurvivalDataset":
        d = object.__new__(cls)
        d._init(times, events, x, raw, names)
        return d

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def __repr__(self) -> str:
        return f"SurvivalDataset(n={len(self)}, features={self.feature_names!r})"

    @property
    def instances(self) -> tuple:
        """One `Instance` per patient, built from the columns on each call."""
        rows = self.values.tolist()
        for i, j in np.argwhere(np.isnan(self.values)).tolist():
            rows[i][j] = None
        for j, col in self.raw_columns.items():
            for row, value in zip(rows, col):
                row[j] = value
        return tuple(Instance(row, t, e) for row, t, e in
                     zip(rows, self.times.tolist(), self.events.tolist()))

    @property
    def n_uncensored(self) -> int:
        return int(self.events.sum())

    def feature_matrix(self) -> np.ndarray:
        """All features as a float matrix; raises if any cell is missing or
        categorical (run the preprocessing pipeline first in that case)."""
        blank = np.isnan(self.values)
        if blank.any():
            i, j = (int(a) for a in np.argwhere(blank)[0])
            value = self.raw_columns[j][i] if j in self.raw_columns else None
            raise ValueError(
                f"feature {self.feature_names[j]!r} of instance {i} is "
                f"{value!r}; encode/impute before requesting a matrix"
            )
        return self.values.copy()

    def subset(self, indices) -> "SurvivalDataset":
        idx = np.asarray(indices)
        idx = np.flatnonzero(idx) if idx.dtype == bool else idx.astype(np.intp)
        raw = {j: col[idx] for j, col in self.raw_columns.items()}
        return SurvivalDataset._from_columns(self.times[idx], self.events[idx],
                                             self.values[idx], raw,
                                             self.feature_names)

    def with_features(self, x, feature_names) -> "SurvivalDataset":
        """The same patients with the float feature matrix `x` (n, k) in
        place of theirs; NaN marks a missing cell."""
        x = np.array(x, dtype=float)
        names = tuple(str(n) for n in feature_names)
        if x.shape != (len(self), len(names)):
            raise ValueError(f"feature matrix of shape {x.shape}, expected "
                             f"{(len(self), len(names))}")
        if np.isinf(x).any():
            raise ValueError("feature matrix holds an infinite value")
        return SurvivalDataset._from_columns(self.times, self.events, x, {}, names)

    @classmethod
    def from_arrays(cls, x, times, events, feature_names=None) -> "SurvivalDataset":
        x = np.array(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        times = np.array(times, dtype=float)
        events = np.array(events, dtype=float)
        if feature_names is None:
            feature_names = tuple(f"x{j}" for j in range(x.shape[1]))
        names = tuple(str(n) for n in feature_names)
        n = times.size
        if x.shape != (n, len(names)) or events.shape != (n,) or times.ndim != 1:
            raise ValueError(
                f"features {x.shape}, times {times.shape} and events {events.shape} "
                f"do not describe {len(names)} features of the same patients"
            )
        bad_time = ~(np.isfinite(times) & (times >= 0))
        if bad_time.any():
            i = int(np.argmax(bad_time))
            raise ValueError(f"row {i}: time must be finite and non-negative, "
                             f"got {times[i]}")
        bad_event = (events != 0) & (events != 1)
        if bad_event.any():
            i = int(np.argmax(bad_event))
            raise ValueError(f"row {i}: event must be 0 or 1, got {events[i]}")
        events = events == 1
        bad = ~np.isfinite(x)
        if bad.any():
            i, j = (int(a) for a in np.argwhere(bad)[0])
            raise ValueError(_non_finite_message(i, names[j], x[i, j]))
        return cls._from_columns(times, events, x, {}, names)


def _non_finite_message(row: int, name: str, value) -> str:
    return (f"row {row}, column {name!r}: non-finite value {float(value)}; "
            "use None to mark a missing cell")


def _columns(rows: list, names: tuple):
    """The float matrix (NaN for missing and string cells) and the raw
    cells of every column holding a string, from one tuple per patient."""
    n, k = len(rows), len(names)
    kinds = set(map(type, chain.from_iterable(rows)))
    raw = {}
    if any(issubclass(kind, str) for kind in kinds):
        is_str = np.array([[isinstance(v, str) for v in row] for row in rows],
                          dtype=bool).reshape(n, k)
        numeric = [[None if isinstance(v, str) else v for v in row] for row in rows]
        x = np.array(numeric, dtype=float).reshape(n, k)
        for j in np.flatnonzero(is_str.any(axis=0)):
            col = np.empty(n, dtype=object)
            col[:] = [row[j] for row in rows]
            present = ~is_str[:, j] & ~np.isnan(x[:, j])
            col[present] = x[present, j].tolist()
            raw[int(j)] = col
    else:
        numeric = rows
        x = np.array(rows, dtype=float).reshape(n, k)
    # NaN marks a None or string cell; any other non-finite cell is an error
    blank = ~np.isfinite(x)
    if np.count_nonzero(blank) != sum(row.count(None) for row in numeric) \
            or np.isinf(x).any():
        for i, j in zip(*np.nonzero(blank)):
            value = rows[i][j]
            if value is not None and not isinstance(value, str):
                raise ValueError(_non_finite_message(int(i), names[j], value))
    return x, raw


class SurvivalModel(ABC):
    """Anything that deterministically yields one survival curve per instance."""

    @abstractmethod
    def predict_curves(self, d: SurvivalDataset):
        """Predicted curves of every instance of `d` as one
        `isdkit.curves.CurveBatch` on the model's knot vector."""

    def predict_curve(self, inst: Instance):
        """Predicted survival curve for one instance, as a one-row
        `CurveBatch`: `predict_curves` on a one-patient dataset."""
        names = [f"x{j}" for j in range(len(inst.features))]
        return self.predict_curves(SurvivalDataset([inst], names))


def split_by_censoring(d: SurvivalDataset):
    """Partition a dataset into (uncensored, censored) halves by event flag."""
    events = d.events
    return d.subset(events), d.subset(~events)


def fold_indices(times, events, k: int) -> np.ndarray:
    """Deal instances to k folds: censored and uncensored groups are each
    sorted by time (ties by input order) and dealt round-robin, so every
    fold sees roughly the same time and censoring distribution."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=bool)
    fold_of = np.empty(times.size, dtype=int)
    for group_mask in (events, ~events):
        idx = np.flatnonzero(group_mask)
        ordered = idx[np.argsort(times[idx], kind="stable")]
        fold_of[ordered] = np.arange(ordered.size) % k
    return fold_of


def _parse_cell(raw: str):
    text = raw.strip()
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def load_csv(path, time_col: str, event_col: str) -> SurvivalDataset:
    """Read a survival dataset from a headed CSV file.

    One row per patient; `time_col` must parse as a finite non-negative
    real and `event_col` as 0 (censored) or 1 (death).  Every other column
    becomes a feature: numeric cells parse to floats, non-numeric cells are
    kept as category strings for later one-hot encoding, empty cells become
    missing markers.  Malformed cells, including "nan" and "inf" (leave a
    missing cell empty instead), raise a ValueError naming the row (1-based
    file line) and column.
    """
    # utf-8-sig skips the byte-order mark that Excel writes before the header
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        if (repeated := _repeated(header)) is not None:
            raise ValueError(f"{path}: column {repeated!r} appears more than once in the header")
        for col in (time_col, event_col):
            if col not in header:
                raise ValueError(f"{path}: column {col!r} not found in header {header}")
        t_idx = header.index(time_col)
        e_idx = header.index(event_col)
        feature_names = tuple(h for i, h in enumerate(header) if i not in (t_idx, e_idx))
        feature_idx = [i for i in range(len(header)) if i not in (t_idx, e_idx)]

        instances = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}"
                )
            try:
                time = float(row[t_idx])
            except ValueError:
                raise ValueError(
                    f"{path}: row {line_no}, column {time_col!r}: "
                    f"cannot parse time {row[t_idx]!r}"
                )
            if not math.isfinite(time):
                raise ValueError(
                    f"{path}: row {line_no}, column {time_col!r}: "
                    f"non-finite time {row[t_idx]!r}"
                )
            if time < 0:
                raise ValueError(
                    f"{path}: row {line_no}, column {time_col!r}: "
                    f"negative time {time}"
                )
            try:
                event = float(row[e_idx])
            except ValueError:
                raise ValueError(
                    f"{path}: row {line_no}, column {event_col!r}: "
                    f"cannot parse event flag {row[e_idx]!r}"
                )
            if event not in (0.0, 1.0):
                raise ValueError(
                    f"{path}: row {line_no}, column {event_col!r}: "
                    f"event flag must be 0 or 1, got {row[e_idx]!r}"
                )
            features = tuple(_parse_cell(row[i]) for i in feature_idx)
            for i, value in zip(feature_idx, features):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(
                        f"{path}: row {line_no}, column {header[i]!r}: non-finite "
                        f"value {row[i]!r}; leave the cell empty to mark it missing"
                    )
            instances.append(Instance(features, time, event == 1.0))

    return SurvivalDataset(tuple(instances), feature_names)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(float(value))


def save_csv(d: SurvivalDataset, path, time_col: str = "time", event_col: str = "event") -> None:
    """Write a dataset in the format `load_csv` reads (round-trip safe for
    times, events, and numeric features); a header naming one column twice
    is refused before the file is opened."""
    header = [time_col, event_col, *d.feature_names]
    if (repeated := _repeated([h.strip() for h in header])) is not None:    # as load_csv reads it
        raise ValueError(f"column {repeated!r} would appear more than once in the header")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for inst in d.instances:
            writer.writerow(
                [repr(inst.time), int(inst.event), *(_format_cell(v) for v in inst.features)]
            )
