"""Survival data containers, CSV ingestion, and the model interface.

An instance records covariates plus a right-censored label: the observed
time is min(death time, censor time) and the event flag says whether the
death was observed.  Feature values may be numeric, a category string, or
``None`` for a missing cell; models only ever see fully numeric feature
matrices (the preprocessing pipeline guarantees that).
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from pathlib import Path
from types import MappingProxyType

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
    seen = set()  # set.add returns None, so only a name already seen is kept
    return next((name for name in names if name in seen or seen.add(name)), None)


@dataclass(frozen=True)
class Instance:
    """One patient: covariates plus the recorded (time, event) label.

    ``event`` is True when the recorded time is an observed death and
    False when it is a censoring time (a lower bound on the death time).
    A death tied with its censor time is encoded as event=True.  An
    `Instance` holds what it is given; `SurvivalDataset` checks it.
    """

    features: tuple
    time: float
    event: bool


class _InputError(ValueError):
    """An input value that `SurvivalDataset.from_arrays` refuses: `row` is
    0-based, `column` is a feature index, "time" or "event" (None for a
    whole row), and `problem` says what is wrong."""

    def __init__(self, row: int, column, names: tuple, problem: str):
        self.row, self.column, self.problem = row, column, problem
        where = f", column {names[column]!r}" if isinstance(column, int) else ""
        super().__init__(f"row {row}{where}: {problem}")


_REAL = (Real, np.bool_)


def _reals(cells):
    """`cells` as a list and as a float array with NaN in place of every
    cell that is not a real number (a string, even "1", or None)."""
    listed = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    arr = np.asarray(cells)
    if arr.dtype.kind not in "biuf":
        arr = np.array([c if isinstance(c, _REAL) else np.nan for c in listed], dtype=float)
    return listed, arr.astype(float)


def _cell_columns(rows: list, n: int, k: int):
    """The float matrix (NaN for missing and string cells), the raw cells
    of every column holding a string, and the number of those NaN cells,
    from one row of cells per patient."""
    raw = {}
    if any(issubclass(kind, str) for kind in set(map(type, chain.from_iterable(rows)))):
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
    return x, raw, sum(row.count(None) for row in numeric)


class SurvivalDataset:
    """A cohort sharing one feature schema, stored as columns.

    ``times`` (n,) and ``events`` (n,) are read-only arrays, ``values`` is a
    read-only (n, k) float matrix with NaN wherever a cell is missing or a
    category string, and ``raw_columns`` maps the index of every column
    that holds a string to its raw cells (None, str or float).

    `from_arrays` is the one constructor: it checks every input rule and
    builds the columns.  ``SurvivalDataset(instances, feature_names)``
    transposes `Instance`s into it, and ``instances`` gives `Instance`
    views built from the columns on each call.
    """

    def __init__(self, instances, feature_names):
        instances = tuple(instances)
        d = SurvivalDataset.from_arrays([inst.features for inst in instances],
                                        [inst.time for inst in instances],
                                        [inst.event for inst in instances], feature_names)
        self.__dict__.update(d.__dict__)

    @classmethod
    def _from_columns(cls, times, events, x, raw, names) -> "SurvivalDataset":
        if (repeated := _repeated(names)) is not None:
            raise ValueError(f"feature name {repeated!r} appears more than once")
        for arr in (times, events, x, *raw.values()):
            arr.setflags(write=False)
        d = object.__new__(cls)
        d.times, d.events, d.values = times, events, x
        d.raw_columns, d.feature_names = MappingProxyType(raw), names
        return d

    def __len__(self) -> int:
        return self.times.size

    def __repr__(self) -> str:
        return f"SurvivalDataset(n={len(self)}, features={self.feature_names!r})"

    def _cell_rows(self) -> list:
        """One list of cells per patient: None, str or float."""
        rows = self.values.tolist()
        for i, j in np.argwhere(np.isnan(self.values)).tolist():
            rows[i][j] = None
        for j, col in self.raw_columns.items():
            for row, value in zip(rows, col):
                row[j] = value
        return rows

    @property
    def instances(self) -> tuple:
        """One `Instance` per patient, built from the columns on each call;
        its time is a float and its event a bool."""
        return tuple(Instance(tuple(row), t, e) for row, t, e in
                     zip(self._cell_rows(), self.times.tolist(), self.events.tolist()))

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
        """A dataset from its features, times and event flags, with every
        input rule checked.

        `x` is a numeric (n, k) array (a 1-D one is one column), or n rows
        of cells, each a number, a category string or None for a missing
        cell.  A time must be a finite non-negative number and an event
        flag False/True or 0/1 (a string such as "1" is refused), and a
        numeric cell must be finite.  A refusal is a ValueError naming the
        row (0-based), and the column of a cell.  A row of the wrong length
        is refused first; otherwise the first row that breaks a rule is
        named, its time checked before its event flag and its cells.
        Feature names default to x0, x1, ...
        """
        # a list is read as rows of cells, since numpy would turn its numbers
        # into strings beside a string; any other array of numbers is a matrix
        arr = None if isinstance(x, (list, tuple)) else np.asarray(x)
        rows = None
        if arr is not None and arr.dtype.kind in "biuf":
            x = arr.astype(float)
            if x.ndim == 1:
                x = x.reshape(-1, 1)
            shape = x.shape
        else:
            cells = x if arr is None else arr.tolist()
            rows = [tuple(row) if isinstance(row, (list, tuple, np.ndarray)) else (row,)
                    for row in cells]
            shape = (len(rows), len(rows[0]) if rows else 0)
        if feature_names is None:
            names = tuple(f"x{j}" for j in range(shape[-1] if shape else 0))
        else:
            names = tuple(str(name) for name in feature_names)
        k = len(names)
        if rows is not None:
            for i, row in enumerate(rows):
                if len(row) != k:
                    raise _InputError(i, None, names, f"{len(row)} features, expected {k}")
            shape = (len(rows), k)
        time_cells, times = _reals(times)
        event_cells, events = _reals(events)
        n = times.size
        if shape != (n, k) or events.shape != (n,) or times.ndim != 1:
            raise ValueError(
                f"features {shape}, times {times.shape} and events {events.shape} "
                f"do not describe {k} features of the same patients"
            )
        refusals = []                       # (row, column, problem): the first of each rule
        bad_time = ~np.isfinite(times) | (times < 0)
        if bad_time.any():
            i = int(np.argmax(bad_time))
            if not isinstance(time_cells[i], _REAL):
                problem = f"time must be a number, got {time_cells[i]!r}"
            else:
                what = "non-finite" if not np.isfinite(times[i]) else "negative"
                problem = f"{what} time {times[i].item()!r}"
            refusals.append((i, "time", problem))
        bad_event = (events != 0) & (events != 1)
        if bad_event.any():
            i = int(np.argmax(bad_event))
            value = event_cells[i]
            value = value.item() if isinstance(value, np.generic) else value
            refusals.append((i, "event", f"event must be 0 or 1, got {value!r}"))
        raw, blank = {}, 0
        if rows is not None:
            x, raw, blank = _cell_columns(rows, n, k)
        # NaN marks a None or string cell; any other non-finite cell is refused
        bad = ~np.isfinite(x)
        if np.count_nonzero(bad) > blank:
            i, j = next((i, j) for i, j in np.argwhere(bad).tolist()
                        if rows is None or not (rows[i][j] is None or isinstance(rows[i][j], str)))
            refusals.append((i, j, f"non-finite value {float(x[i, j])}; "
                                   "mark a missing cell None (an empty CSV cell)"))
        if refusals:
            row, column, problem = min(refusals, key=lambda refusal: refusal[0])
            raise _InputError(row, column, names, problem)
        return cls._from_columns(times, events == 1, x, raw, names)


class SurvivalModel(ABC):
    """Anything that deterministically yields one survival curve per instance."""

    @abstractmethod
    def predict_curves(self, d: SurvivalDataset):
        """Predicted curves of every instance of `d` as one
        `isdkit.curves.CurveBatch` on the model's knot vector."""


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
    real and `event_col` as 0 (censored) or 1 (death), and the two must
    differ.  Every other column becomes a feature: numeric cells parse to
    floats, non-numeric cells are kept as category strings for later
    one-hot encoding, empty cells become missing markers.  The cells go
    through `SurvivalDataset.from_arrays`, whose refusals (a malformed
    time or flag, or a "nan" or "inf" feature cell: leave a missing cell
    empty instead) come back as a ValueError naming the row (the 1-based
    file line where its record starts) and column.
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
        if time_col == event_col:
            raise ValueError(f"{path}: column {time_col!r} cannot be both the time "
                             "and the event column")
        # a quoted cell may span lines: record i starts on the line after ends[i]
        records, ends, short_row = [], [reader.line_num], None
        for row in reader:
            if len(row) != len(header):
                short_row = (f"{path}: row {ends[-1] + 1} has {len(row)} cells, "
                             f"expected {len(header)}")
                break
            records.append([_parse_cell(cell) for cell in row])
            ends.append(reader.line_num)

    t_idx, e_idx = header.index(time_col), header.index(event_col)
    feature_idx = [i for i in range(len(header)) if i not in (t_idx, e_idx)]
    names = tuple(header[i] for i in feature_idx)
    try:    # the rows before a row of the wrong length are checked first
        d = SurvivalDataset.from_arrays([[rec[i] for i in feature_idx] for rec in records],
                                        [rec[t_idx] for rec in records],
                                        [rec[e_idx] for rec in records], names)
    except _InputError as exc:
        if isinstance(exc.column, int):
            column = names[exc.column]
        else:
            column = {"time": time_col, "event": event_col}[exc.column]
        raise ValueError(f"{path}: row {ends[exc.row] + 1}, column {column!r}: {exc.problem}") \
            from None
    if short_row is not None:
        raise ValueError(short_row)
    return d


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return repr(value)


def save_csv(d: SurvivalDataset, path, time_col: str = "time", event_col: str = "event") -> None:
    """Write a dataset in the format `load_csv` reads (round-trip safe for
    times, events, and numeric features), making the file's directory if
    it is missing; a header naming one column twice is refused before
    either is made."""
    header = [time_col, event_col, *d.feature_names]
    if (repeated := _repeated([h.strip() for h in header])) is not None:    # as load_csv reads it
        raise ValueError(f"column {repeated!r} would appear more than once in the header")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, e, cells in zip(d.times.tolist(), d.events.tolist(), d._cell_rows()):
            writer.writerow([repr(t), int(e), *(_format_cell(v) for v in cells)])
