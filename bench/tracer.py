"""Per-layer tracing from outside the program.

The tracer replaces public functions of ``isdkit`` modules with wrappers
that record a span per call: an id, the id of the enclosing traced span on
the same thread, the span key, the thread, and start and end times.  Spans
are kept in memory and written out when the run ends.  A key's self time is
the duration of its spans minus the time their direct child spans cover.

Nothing under ``src/`` changes: every binding of a wrapped function, in the
defining module and in each ``isdkit`` module that imported it by name, is
swapped for the wrapper while the tracer is installed.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter


class TraceError(Exception):
    """A traced name is gone, or a layer the workload must reach recorded
    no calls; either would read as a zero-cost layer."""


def _preprocess_counts(result, counts):
    report = result[2]
    counts["pipeline.features_in"] += len(report.p_values)
    counts["pipeline.features_kept"] += len(report.selected)


def _lbfgs_counts(result, counts):
    counts["mtlr.lbfgs.nfev"] += int(result.nfev)
    counts["mtlr.lbfgs.nit"] += int(result.nit)


def _extend_counts(result, counts):
    counts["curves.fallback.count"] += int(result.fallback_applied)


# (span key, "module:qualified name", key its calls count under, hook that
# reads counts off the returned value).  Several targets may share a key.
TARGETS = (
    ("core.load_csv", "isdkit.core:load_csv", None, None),
    ("core.subset", "isdkit.core:SurvivalDataset.subset", None, None),
    ("core.feature_matrix", "isdkit.core:SurvivalDataset.feature_matrix", None, None),
    ("pipeline.run_experiment", "isdkit.pipeline:run_experiment", None, None),
    ("pipeline.preprocess", "isdkit.pipeline:preprocess", None, _preprocess_counts),
    ("cox.univariate", "isdkit.cox:univariate_cox_pvalue", None, None),
    ("cox.fit", "isdkit.cox:fit_cox", None, None),
    ("cox.predict", "isdkit.cox:predict_curve_cox", None, None),
    ("km.fit", "isdkit.km:fit_km", None, None),
    ("km.fit", "isdkit.km:fit_censoring_km", None, None),
    ("km.fit", "isdkit.km:fit_km_arrays", None, None),
    ("km.predict", "isdkit.km:KaplanMeierModel.predict_curve", None, None),
    ("km.predict", "isdkit.km:km_at", None, None),
    ("mtlr.fit", "isdkit.mtlr:fit_mtlr", None, None),
    ("mtlr.fit", "isdkit.mtlr:make_grid", None, None),
    ("mtlr.lbfgs", "isdkit.mtlr:minimize", None, _lbfgs_counts),
    ("mtlr.predict", "isdkit.mtlr:predict_curve_mtlr", None, None),
    ("curves.extend", "isdkit.curves:extend_linear", None, _extend_counts),
    ("curves.median", "isdkit.curves:median_survival", None, None),
    ("curves.survival_at", "isdkit.curves:survival_at", None, None),
    ("discrimination.concordance", "isdkit.discrimination:concordance", None, None),
    ("discrimination.l1", "isdkit.discrimination:l1_uncensored", None, None),
    ("discrimination.l1", "isdkit.discrimination:l1_hinge", None, None),
    ("discrimination.l1", "isdkit.discrimination:l1_margin", None, None),
    ("discrimination.l1", "isdkit.discrimination:l1_log", None, None),
    ("discrimination.margin", "isdkit.discrimination:margin_weights", None, None),
    ("discrimination.margin", "isdkit.discrimination:best_guess",
     "discrimination.best_guess", None),
    ("calibration.ibs", "isdkit.calibration:integrated_brier", None, None),
    ("calibration.one_cal", "isdkit.calibration:one_calibration_dn", None, None),
    ("calibration.dcal", "isdkit.calibration:dcal_histogram", None, None),
    ("calibration.dcal", "isdkit.calibration:dcal_test", None, None),
    # cmd_evaluate's children are load_csv and run_experiment, so its self
    # time is the command's own work: output directory and file writing.
    ("cli.write", "isdkit.cli:cmd_evaluate", None, None),
)

# Per-layer metric name -> how it is read from one op's aggregates.
TIME_METRICS = {
    "core.load_csv_s": "core.load_csv",
    "core.subset_s": "core.subset",
    "core.feature_matrix_s": "core.feature_matrix",
    "pipeline.preprocess_s": "pipeline.preprocess",
    "cox.univariate_s": "cox.univariate",
    "cox.fit_s": "cox.fit",
    "cox.predict_s": "cox.predict",
    "km.fit_s": "km.fit",
    "km.predict_s": "km.predict",
    "mtlr.fit_s": "mtlr.fit",
    "mtlr.lbfgs_s": "mtlr.lbfgs",
    "mtlr.predict_s": "mtlr.predict",
    "curves.extend_s": "curves.extend",
    "curves.median_s": "curves.median",
    "curves.survival_at_s": "curves.survival_at",
    "discrimination.concordance_s": "discrimination.concordance",
    "discrimination.l1_s": "discrimination.l1",
    "discrimination.margin_s": "discrimination.margin",
    "calibration.ibs_s": "calibration.ibs",
    "calibration.one_cal_s": "calibration.one_cal",
    "calibration.dcal_s": "calibration.dcal",
    "cli.write_s": "cli.write",
}
CALL_METRICS = {
    "pipeline.preprocess.calls": "pipeline.preprocess",
    "cox.univariate.calls": "cox.univariate",
    "mtlr.lbfgs.runs": "mtlr.lbfgs",
    "curves.survival_at.calls": "curves.survival_at",
    "discrimination.best_guess.calls": "discrimination.best_guess",
}
COUNT_METRICS = (
    "pipeline.features_in",
    "pipeline.features_kept",
    "mtlr.lbfgs.nfev",
    "mtlr.lbfgs.nit",
    "curves.fallback.count",
)


def _resolve(target: str):
    """(owner, attribute name, function) for "module:Qual.name"."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, owner.__dict__[attr]
    except (ImportError, AttributeError, KeyError):
        raise TraceError(f"traced name {target} no longer exists; update bench/tracer.py")


class Tracer:
    """Records spans and per-op aggregates while installed."""

    def __init__(self):
        self.spans = []          # (op, id, parent id, key, thread, start, end)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self._op = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _wrap(self, fn, key, calls_key, hook):
        local, lock, ids, spans = self._local, self._lock, self._ids, self.spans
        self_s, calls, counts = self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]        # span id, time covered by children
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                with lock:
                    self_s[key] += duration - frame[1]
                    calls[calls_key] += 1
                    spans.append((self._op, frame[0], parent[0] if parent else 0, key,
                                  threading.get_ident(), start, end))
            if hook is not None:
                with lock:
                    hook(result, counts)
            return result

        return traced

    def install(self):
        """Wrap every target; raises TraceError naming a missing one."""
        resolved = [(key, calls_key or key, hook, *_resolve(target))
                    for key, target, calls_key, hook in TARGETS]
        modules = [m for name, m in list(sys.modules.items())
                   if name == "isdkit" or name.startswith("isdkit.")]
        for key, calls_key, hook, owner, attr, fn in resolved:
            wrapper = self._wrap(fn, key, calls_key, hook)
            bindings = [(owner, attr)] if isinstance(owner, type) else []
            bindings += [(m, name) for m in modules
                         for name, value in list(vars(m).items()) if value is fn]
            for obj, name in bindings:
                setattr(obj, name, wrapper)
                self._undo.append((obj, name, fn))

    def uninstall(self):
        for obj, name, fn in reversed(self._undo):
            setattr(obj, name, fn)
        self._undo.clear()

    def begin_op(self, op: int):
        self._op = op
        for totals in (self.self_s, self.calls, self.counts):
            totals.clear()

    def op_metrics(self) -> dict:
        """The per-layer metrics of the op since `begin_op`."""
        out = {name: self.self_s.get(key, 0.0) for name, key in TIME_METRICS.items()}
        out.update({name: self.calls.get(key, 0) for name, key in CALL_METRICS.items()})
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        return out

    def missing_calls(self, expected) -> list:
        return [key for key in expected if self.calls.get(key, 0) == 0]

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(["op", "id", "parent", "key", "thread", "start", "end"])
            writer.writerows(self.spans)
