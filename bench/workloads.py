"""The benchmark's workloads: how each builds its input from a seed, what one
op is, and the correctness gate every op passes.

All three draw a weibull-ph cohort from ``simulate_cohort`` with the same
generator settings and evaluate it with 5 folds and every metric.  They
differ in model, size and input shape so that each one stresses different
modules of ``isdkit`` (see README.md for the reasons and the layer map).

The program sees only the generated input: a ``SurvivalDataset`` for the
library workloads and a CSV file for the command-line one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from isdkit import (
    CohortConfig,
    ExperimentConfig,
    Instance,
    SurvivalDataset,
    run_experiment,
    simulate_cohort,
    simulate_cohort_latent,
)
from isdkit import cli

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

BETA = (0.7, -0.7, 0.5, -0.5, 0.3)
SMOKE_N = 200
# Reference values are stored for cohort seeds 0..REFERENCE_SEEDS-1, and a
# run draws its cohorts from them.
REFERENCE_SEEDS = 16


def cohort_config(n_features: int) -> CohortConfig:
    return CohortConfig(
        family="weibull-ph", n_features=n_features, beta=BETA,
        baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.055,
    )


class OpFailed(Exception):
    """`isdkit evaluate` exited non-zero."""


# ---------------------------------------------------------------------------
# inputs

def build_km(n: int, seed: int, workdir: Path) -> SurvivalDataset:
    return simulate_cohort(cohort_config(25), n, seed)


def build_cox_wide(n: int, seed: int, workdir: Path) -> SurvivalDataset:
    """100 numeric features (x0..x4 informative), 8% of noise cells missing,
    plus a 40%-missing column and a constant column that preprocessing
    drops.  Only numeric columns: see README.md, "Known defect"."""
    cohort = simulate_cohort_latent(cohort_config(100), n, seed)
    rng = np.random.default_rng((seed, 100))
    cells = cohort.x.tolist()
    for i, j in zip(*np.nonzero(rng.random((n, 95)) < 0.08)):
        cells[i][5 + j] = None
    sparse = rng.standard_normal(n).tolist()
    for i in rng.permutation(n)[: round(0.4 * n)]:
        sparse[i] = None
    instances = [
        Instance((*row, s, 1.0), inst.time, inst.event)
        for row, s, inst in zip(cells, sparse, cohort.dataset.instances)
    ]
    names = (*cohort.dataset.feature_names, "sparse", "const")
    return SurvivalDataset(tuple(instances), names)


def build_mtlr_csv(n: int, seed: int, workdir: Path) -> Path:
    """A headed CSV: 25 numeric features (5% of noise cells empty), three
    nominal columns (a 3-level stage cut from x0, 4-level and 2-level
    noise), a 40%-missing column and a constant column."""
    cohort = simulate_cohort_latent(cohort_config(25), n, seed)
    rng = np.random.default_rng((seed, 25))
    x = cohort.x
    empty = rng.random((n, 20)) < 0.05
    stage = np.array(["I", "II", "III"])[np.searchsorted([-0.4307, 0.4307], x[:, 0])]
    grade = np.array(["g1", "g2", "g3", "g4"])[rng.integers(0, 4, n)]
    flag = np.array(["no", "yes"])[rng.integers(0, 2, n)]
    sparse_missing = np.zeros(n, dtype=bool)
    sparse_missing[rng.permutation(n)[: round(0.4 * n)]] = True
    sparse = rng.standard_normal(n)

    path = workdir / f"cohort-{n}-{seed}.csv"
    header = ["time", "event", *(f"x{j}" for j in range(25)),
              "stage", "grade", "flag", "sparse", "const"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, inst in enumerate(cohort.dataset.instances):
            numeric = [
                "" if j >= 5 and empty[i, j - 5] else repr(float(x[i, j]))
                for j in range(25)
            ]
            writer.writerow([
                repr(inst.time), int(inst.event), *numeric,
                stage[i], grade[i], flag[i],
                "" if sparse_missing[i] else repr(float(sparse[i])), "1.0",
            ])
    return path


# ---------------------------------------------------------------------------
# ops and the values they are checked on

def report_values(report) -> dict:
    """Fold-mean metrics, one-calibration and D-calibration p-values."""
    values = {f"mean:{m}": v for m, v in report.means.items()}
    for entry in report.one_calibration:
        p = None if entry.result is None else entry.result.p_value
        values[f"one_cal_p:{float(entry.percentile):g}"] = p
    values["dcal_p"] = report.dcal.p_value
    return values


def evaluate_library(model: str, jobs: int) -> Callable:
    cfg = ExperimentConfig(model=model, jobs=jobs)

    def op(dataset, outdir: Path):
        return run_experiment(dataset, cfg)

    return op


def evaluate_cli(path: Path, outdir: Path) -> Path:
    argv = ["evaluate", "--dataset", str(path), "--model", "mtlr",
            "--out", str(outdir), "--seed", "0", "--jobs", "1"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"isdkit evaluate exited {code}: {stderr.getvalue().strip()}")
    return outdir


def cli_values(outdir: Path) -> dict:
    """The same values as `report_values`, read back from the files that
    `isdkit evaluate` wrote, then the output directory is removed."""
    try:
        values = {}
        with open(outdir / "metrics.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["fold"] == "mean":
                    values[f"mean:{row['metric']}"] = float(row["value"])
        with open(outdir / "calibration.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                p = float(row["p_value"]) if row["p_value"] else None
                if row["test"] == "d-calibration":
                    values["dcal_p"] = p
                else:
                    values[f"one_cal_p:{float(row['percentile']):g}"] = p
        return values
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    build: Callable          # (n, seed, workdir) -> input handed to the program
    op: Callable             # (input, outdir) -> result; the timed part
    values: Callable         # result -> {name: float | None}; untimed
    rtol: float
    atol: float
    expect_calls: tuple      # span keys that must record calls when traced


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "km-4k", 4000, build_km, evaluate_library("km", 1), report_values,
            1e-9, 1e-12,
            ("core.subset", "km.fit", "km.predict", "curves.extend", "curves.median",
             "curves.survival_at", "discrimination.concordance", "discrimination.l1",
             "discrimination.margin", "discrimination.best_guess", "calibration.ibs",
             "calibration.one_cal", "calibration.dcal"),
        ),
        Workload(
            "cox-wide", 2000, build_cox_wide, evaluate_library("cox-kp", 2), report_values,
            1e-9, 1e-12,
            ("core.subset", "core.feature_matrix", "pipeline.preprocess",
             "cox.univariate", "cox.fit", "cox.predict"),
        ),
        # L-BFGS stops at gtol, so a faster optimiser path may land on a
        # slightly different theta; see README.md for how the tolerance was set.
        Workload(
            "mtlr-csv", 400, build_mtlr_csv, evaluate_cli, cli_values,
            1e-4, 1e-4,
            ("core.load_csv", "core.feature_matrix", "pipeline.preprocess",
             "mtlr.fit", "mtlr.lbfgs", "mtlr.predict", "cli.write"),
        ),
    )
}


# ---------------------------------------------------------------------------
# the correctness gate

def load_reference(size: str, workload: str, seed: int) -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[size][workload][str(seed)]


def mismatches(values: dict, reference: dict, rtol: float, atol: float) -> list:
    """Names of values that differ from the reference beyond
    |a - b| <= atol + rtol * |b|; a missing or extra value is a mismatch."""
    bad = []
    for name in sorted(set(values) | set(reference)):
        a, b = values.get(name, math.nan), reference.get(name, math.nan)
        if a is None or b is None:
            ok = a is None and b is None
        else:
            ok = abs(a - b) <= atol + rtol * abs(b)
        if not ok:
            bad.append(f"{name}: got {a!r}, reference {b!r}")
    return bad
