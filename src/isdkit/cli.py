"""Command-line entry point: fit, evaluate, simulate, and report.

All outputs are plain CSV (or JSON for serialized models) with documented
headers; plots are rendered elsewhere from the emitted plot-data files.
Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .core import FitError, load_csv, save_csv
from .pipeline import (
    ALL_METRICS,
    MODEL_NAMES,
    CohortConfig,
    ExperimentConfig,
    _fit_predict,
    run_experiment,
    simulate_cohort,
)

__all__ = ["main"]


def _out_dir(args, files) -> Path:
    """The output directory, refusing to overwrite any of `files` without
    --force.  The directory is made by the first file written, so a run
    that fails leaves none behind."""
    out = Path(args.out)
    if not args.force:
        clashes = [str(out / f) for f in files if (out / f).exists()]
        if clashes:
            raise FitError(
                f"refusing to overwrite {', '.join(clashes)} (use --force)"
            )
    return out


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_curves(out: Path, folds) -> None:
    """One CSV per row of each extended CurveBatch in `folds`, (patient
    indices, batch) pairs (every patient reads a shared row): the knots,
    then the row's zero time at probability 0.  A succeeded run deletes the
    earlier run's curve files first; a failed one leaves them whole."""
    curves_dir = out / "curves"
    curves_dir.mkdir(exist_ok=True)
    for stale in curves_dir.glob("patient_*.csv"):
        stale.unlink()
    for indices, curves in folds:
        knots = [_fmt(t) for t in curves.knots]
        for i, idx in enumerate(indices):
            r = i if curves.rows > 1 else 0
            rows = [[t, _fmt(p)] for t, p in zip(knots, curves.row(r))]
            rows.append([_fmt(curves.zero_time[r]), _fmt(0.0)])
            _write_csv(curves_dir / f"patient_{idx:05d}.csv", ["time", "survival"], rows)


def cmd_evaluate(args) -> int:
    dataset = load_csv(args.dataset, args.time_col, args.event_col)
    metrics = tuple(args.metrics.split(",")) if args.metrics else ALL_METRICS
    cfg = ExperimentConfig(
        model=args.model,
        metrics=metrics,
        percentiles=tuple(float(p) for p in args.percentiles.split(",")),
        bins=args.bins,
        folds=args.folds,
        jobs=args.jobs,
    )
    out = _out_dir(args, ["metrics.csv", "calibration.csv", "dcal_histogram.csv",
                          "curves"])
    report = run_experiment(dataset, cfg)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for metric, values in report.fold_scores.items():
        for fold, value in enumerate(values):
            rows.append([metric, str(fold), _fmt(value)])
        rows.append([metric, "mean", _fmt(report.means[metric])])
        rows.append([metric, "sd", _fmt(report.sds[metric])])
    _write_csv(out / "metrics.csv", ["metric", "fold", "value"], rows)

    rows = []
    for entry in report.one_calibration:
        if entry.result is None:
            rows.append(["one-calibration-dn", _fmt(entry.percentile),
                         _fmt(entry.tstar), "", "", "", entry.error])
        else:
            r = entry.result
            rows.append(["one-calibration-dn", _fmt(entry.percentile),
                         _fmt(entry.tstar), _fmt(r.statistic), str(r.dof),
                         _fmt(r.p_value), ""])
    if report.dcal is not None:
        rows.append(["d-calibration", "", "", _fmt(report.dcal.statistic),
                     str(report.dcal.dof), _fmt(report.dcal.p_value), ""])
    _write_csv(out / "calibration.csv",
               ["test", "percentile", "tstar", "statistic", "dof", "p_value", "error"],
               rows)

    # without d-calibration only the header, so no earlier run's histogram is left
    rows = []
    if report.dcal_histogram is not None:
        h = report.dcal_histogram
        rows = [[_fmt(lo), _fmt(hi), _fmt(c)]
                for lo, hi, c in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts)]
    _write_csv(out / "dcal_histogram.csv", ["bin_lo", "bin_hi", "count"], rows)

    _write_curves(out, report.fold_predictions)
    print(f"wrote evaluation of {args.model} to {out}")
    return 0


def _model_payload(name: str, model) -> dict:
    if name == "km":
        curve = model.km.curve
        return {"model": "km", "times": curve.knots.tolist(), "probs": curve.probs[0].tolist()}
    if name == "cox-kp":
        return {"model": "cox-kp",
                "beta": model.beta.tolist(),
                "feature_names": list(model.feature_names),
                "baseline_times": model.baseline.knots.tolist(),
                "baseline_probs": model.baseline.probs[0].tolist()}
    if name == "aft-weibull":
        return {"model": "aft-weibull",
                "intercept": model.intercept,
                "coeffs": model.coeffs.tolist(),
                "log_scale": model.log_scale,
                "feature_names": list(model.feature_names)}
    return {"model": "mtlr",
            "grid": model.grid.points.tolist(),
            "theta": model.theta.tolist(),
            "c": model.reg_c,
            "feature_names": list(model.feature_names)}


def cmd_fit(args) -> int:
    """Fit on the whole dataset through the code of one `evaluate` fold,
    with the dataset as both its training and its validation rows."""
    raw = load_csv(args.dataset, args.time_col, args.event_col)
    out = _out_dir(args, ["model.json", "curves"])
    model, _, curves = _fit_predict(args.model, raw, raw, ExperimentConfig.mtlr_c_grid)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "model.json", "w", encoding="utf-8") as fh:
        json.dump(_model_payload(args.model, model), fh, indent=1)
    _write_curves(out, [(range(len(raw)), curves)])
    print(f"wrote fitted {args.model} to {out}")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args, ["cohort.csv"])
    config = CohortConfig(
        family=args.family,
        n_features=args.n_features,
        beta=tuple(float(b) for b in args.beta.split(",")) if args.beta else (),
        baseline_scale=args.scale,
        baseline_shape=args.shape,
        censor_rate=args.censor_rate,
    )
    cohort = simulate_cohort(config, args.n, args.seed)
    save_csv(cohort, out / "cohort.csv", args.time_col, args.event_col)
    print(f"wrote {args.n} simulated patients to {out / 'cohort.csv'}")
    return 0


def cmd_report(args) -> int:
    runs = {}                         # label (the last part of the path) -> path
    for run in map(Path, args.runs):
        label = run.name or str(run)
        if label in runs:
            raise ValueError(f"runs {runs[label]} and {run} share the label {label!r}; "
                             "give each run a directory of its own name")
        runs[label] = run
    tables = {}
    for label, run in runs.items():
        metrics_file = run / "metrics.csv"
        if not metrics_file.exists():
            raise FitError(f"{metrics_file} not found; is {run} an evaluate output?")
        with open(metrics_file, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        means = {r["metric"]: float(r["value"]) for r in rows if r["fold"] == "mean"}
        sds = {r["metric"]: float(r["value"]) for r in rows if r["fold"] == "sd"}
        tables[label] = (means, sds)

    higher_is_better = {"concordance"}
    metrics = sorted({m for means, _ in tables.values() for m in means})
    out = _out_dir(args, ["comparison.csv", "dcal_histograms.csv", "curves_sample.csv"])
    rows = []
    for metric in metrics:
        entries = {run: means[metric] for run, (means, _) in tables.items() if metric in means}
        if metric in higher_is_better:
            best = max(entries.values())
        else:
            best = min(entries.values())
        for run, (means, sds) in tables.items():
            if metric not in means:
                continue
            rows.append([
                run, metric, _fmt(means[metric]), _fmt(sds.get(metric, 0.0)),
                "1" if means[metric] == best else "0",
            ])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "comparison.csv", ["run", "metric", "mean", "sd", "best"], rows)

    hist_rows = []
    for label, run in runs.items():
        hist_file = run / "dcal_histogram.csv"
        if hist_file.exists():
            with open(hist_file, encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    hist_rows.append([label, row["bin_lo"],
                                      row["bin_hi"], row["count"]])
    _write_csv(out / "dcal_histograms.csv", ["run", "bin_lo", "bin_hi", "count"], hist_rows)

    # plot data for curve figures: the first few patients of each run
    curve_rows = []
    for label, run in runs.items():
        for path in sorted((run / "curves").glob("patient_*.csv"))[:10]:
            with open(path, encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    curve_rows.append([label, path.stem,
                                       row["time"], row["survival"]])
    _write_csv(out / "curves_sample.csv", ["run", "patient", "time", "survival"], curve_rows)
    print(f"wrote comparison of {len(runs)} runs to {out}")
    return 0


def _add_common(parser, dataset=True):
    if dataset:
        parser.add_argument("--dataset", required=True, help="CSV file to read")
        parser.add_argument("--time-col", default="time")
        parser.add_argument("--event-col", default="event")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds simulate only (default 0); "
                             "evaluate, fit and report are deterministic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isdkit",
        description="Fit and evaluate individual survival distribution models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="cross-validated evaluation of one model")
    _add_common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default="km")
    p.add_argument("--metrics", default="",
                   help=f"comma list from {','.join(ALL_METRICS)} (default all)")
    p.add_argument("--percentiles", default="10,25,50,75,90")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("fit", help="fit one model on the full dataset")
    _add_common(p)
    p.add_argument("--model", choices=MODEL_NAMES, default="km")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="write a synthetic cohort CSV")
    _add_common(p, dataset=False)
    p.add_argument("--time-col", default="time")
    p.add_argument("--event-col", default="event")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="exponential-ph",
                   choices=("exponential-ph", "weibull-ph", "individual-weibull"))
    p.add_argument("--n-features", type=int, default=5)
    p.add_argument("--beta", default="", help="comma list of coefficients")
    p.add_argument("--scale", type=float, default=10.0)
    p.add_argument("--shape", type=float, default=1.0)
    p.add_argument("--censor-rate", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="aggregate several evaluate outputs")
    _add_common(p, dataset=False)
    p.add_argument("--runs", nargs="+", required=True,
                   help="evaluate output directories to compare")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
