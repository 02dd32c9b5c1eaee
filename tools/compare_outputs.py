#!/usr/bin/env python3
"""Compare the outputs of a git revision with those of the working tree.

    python tools/compare_outputs.py REV

REV (a commit, branch or tag) is exported with ``git archive REV | tar -x``
into a temporary directory; this reads the object store only and needs no
network.  The same fixed manifest then runs in that tree and in the working
tree, each command in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``
and the tree's own ``src/`` on ``PYTHONPATH``:

- ``isdkit simulate`` of one cohort;
- ``isdkit evaluate`` and ``isdkit fit`` of all four models on that cohort;
- ``isdkit evaluate`` of mtlr on a CSV with nominal and missing cells, and
  of cox-kp with two fold threads on a CSV of 124 numeric columns with
  empty cells (the univariate Cox filter then fits its columns in more
  than one block); this script writes both CSVs once and hands them to
  both trees;
- every demo under ``demos/``, its stdout kept.

The manifest uses the command line, a stable interface, so it also runs on
a revision whose Python API differs.  Each command's exit code, stdout and
stderr are kept beside its output files.  Every file is then reported as
equal or different; for a CSV or JSON file that differs, the largest
absolute and relative difference over its numbers is given.  The exit
code is 0 only if every file is equal, 1 if any differs and 2 on a usage
or git error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("km", "cox-kp", "aft-weibull", "mtlr")
SIMULATE = ["simulate", "--n", "150", "--family", "weibull-ph", "--shape", "1.5",
            "--n-features", "5", "--beta", "0.7,-0.7,0.5", "--censor-rate", "0.05",
            "--seed", "3", "--out", "simulate"]


def manifest(tree: Path) -> list:
    """The full manifest: (step name, argv after the interpreter) pairs.
    A step that starts with "-m" runs the command line; any other runs a
    demo script of `tree`."""
    cli = ["-m", "isdkit.cli"]
    steps = [("simulate", cli + SIMULATE)]
    for model in MODELS:
        for command in ("evaluate", "fit"):
            steps.append((f"{command}-{model}", cli + [
                command, "--dataset", "simulate/cohort.csv", "--model", model,
                "--out", f"{command}-{model}"]))
    steps.append(("evaluate-mtlr-mixed", cli + [
        "evaluate", "--dataset", "{inputs}/mixed.csv", "--model", "mtlr",
        "--out", "evaluate-mtlr-mixed"]))
    steps.append(("evaluate-cox-kp-wide", cli + [
        "evaluate", "--dataset", "{inputs}/wide.csv", "--model", "cox-kp", "--jobs", "2",
        "--out", "evaluate-cox-kp-wide"]))
    for demo in sorted((tree / "demos").glob("*.py")):
        steps.append((f"demo-{demo.stem}", [str(demo)]))
    return steps


def write_mixed_csv(path: Path, n: int = 120) -> None:
    """A cohort CSV with a nominal column linked to the outcome, a noise
    nominal column and numeric columns with empty cells."""
    rng = np.random.default_rng(20181001)
    x = rng.standard_normal((n, 3))
    stage = np.array(["I", "II", "III"])[np.searchsorted([-0.43, 0.43], x[:, 0])]
    flag = np.array(["no", "yes"])[rng.integers(0, 2, n)]
    death = 10 * np.exp(-(0.9 * x[:, 0] - 0.6 * x[:, 1]) / 1.5) * rng.weibull(1.5, n)
    censor = rng.exponential(20.0, n)
    empty = rng.random((n, 2)) < 0.08
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", "x0", "x1", "x2", "stage", "flag"])
        for i in range(n):
            cells = [repr(float(x[i, 0]))] + ["" if empty[i, j] else repr(float(x[i, j + 1]))
                                              for j in range(2)]
            writer.writerow([repr(float(min(death[i], censor[i]))),
                             int(death[i] <= censor[i]), *cells, stage[i], flag[i]])


def write_wide_csv(path: Path, n: int = 400, k: int = 124) -> None:
    """A cohort CSV of k numeric columns, the first three linked to the
    outcome, with about 5% of the cells of the others empty."""
    rng = np.random.default_rng(20181002)
    x = rng.standard_normal((n, k))
    death = 10 * np.exp(-(0.8 * x[:, 0] - 0.6 * x[:, 1] + 0.4 * x[:, 2]) / 1.5) \
        * rng.weibull(1.5, n)
    censor = rng.exponential(20.0, n)
    empty = rng.random((n, k)) < 0.05
    empty[:, :3] = False
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", *(f"x{j}" for j in range(k))])
        for i in range(n):
            cells = ["" if empty[i, j] else repr(float(x[i, j])) for j in range(k)]
            writer.writerow([repr(float(min(death[i], censor[i]))),
                             int(death[i] <= censor[i]), *cells])


def run_manifest(tree: Path, out: Path, steps, inputs: Path) -> None:
    """Run `steps` with `tree`'s package in the directory `out`, keeping
    each step's exit code, stdout and stderr in ``log/<step>.txt``."""
    (out / "log").mkdir(parents=True)
    path = os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    for name, argv in steps:
        argv = [a.replace("{inputs}", str(inputs)) for a in argv]
        result = subprocess.run([sys.executable, *argv], cwd=out, env=env,
                                capture_output=True, text=True, timeout=600)
        (out / "log" / f"{name}.txt").write_text(
            f"exit {result.returncode}\n--- stdout\n{result.stdout}--- stderr\n{result.stderr}",
            encoding="utf-8")


def _size(pairs, notes) -> str:
    """The largest absolute and relative difference over `pairs` of
    numbers, followed by `notes`."""
    max_abs, max_rel = 0.0, 0.0
    for u, v in pairs:
        if u == v or (math.isnan(u) and math.isnan(v)):
            continue
        gap = abs(u - v)
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, gap / max(abs(u), abs(v)))
    return "; ".join([f"max abs {max_abs:.3g}, max rel {max_rel:.3g}", *notes])


def _csv_difference(a: Path, b: Path) -> str:
    """What differs between two CSV files: the largest absolute and
    relative difference over cell pairs that are both numbers, and whether
    the shapes or any text cells differ."""
    with open(a, encoding="utf-8", newline="") as fa, open(b, encoding="utf-8", newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    notes, pairs = [], []
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        notes.append(f"shape {len(rows_a)} rows vs {len(rows_b)} rows")
    text = False
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a, row_b):
            try:
                pairs.append((float(x), float(y)))
            except ValueError:
                text |= x != y
    if text:
        notes.append("text cells differ")
    return _size(pairs, notes)


def _json_pairs(x, y, pairs, notes) -> None:
    """Walk two parsed JSON values side by side: collect the pairs of
    numbers in `pairs` and what else differs in the set `notes`."""
    if isinstance(x, dict) and isinstance(y, dict):
        if x.keys() != y.keys():
            notes.add("keys differ")
        for key in x.keys() & y.keys():
            _json_pairs(x[key], y[key], pairs, notes)
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            notes.add("list lengths differ")
        for u, v in zip(x, y):
            _json_pairs(u, v, pairs, notes)
    elif all(isinstance(z, (int, float)) and not isinstance(z, bool) for z in (x, y)):
        pairs.append((float(x), float(y)))
    elif x != y:
        notes.add("other values differ")


def _json_difference(a: Path, b: Path) -> str:
    """What differs between two JSON files: the largest absolute and
    relative difference over the numbers at the same place in both, and
    whether keys, list lengths or other values differ."""
    pairs, notes = [], set()
    _json_pairs(json.loads(a.read_text(encoding="utf-8")),
                json.loads(b.read_text(encoding="utf-8")), pairs, notes)
    return _size(pairs, sorted(notes))


DIFFERENCES = {".csv": _csv_difference, ".json": _json_difference}


def compare_dirs(a: Path, b: Path) -> tuple:
    """(report lines, whether every file is equal) for the files under `a`
    and `b`, matched by their relative paths."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines, equal = [], 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            lines.append(f"only in {'first' if rel in files_a else 'second'}  {rel}")
        elif (a / rel).read_bytes() == (b / rel).read_bytes():
            equal += 1
        elif rel.suffix in DIFFERENCES:
            lines.append(f"different  {rel}  ({DIFFERENCES[rel.suffix](a / rel, b / rel)})")
        else:
            lines.append(f"different  {rel}")
    total = len(files_a | files_b)
    lines.append(f"{equal} of {total} files equal")
    return lines, equal == total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare with the working tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = Path(tmp)
        parent, inputs = work / "tree", work / "inputs"
        for d in (parent, inputs):
            d.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        write_mixed_csv(inputs / "mixed.csv")
        write_wide_csv(inputs / "wide.csv")
        for tree, name in ((parent, args.rev), (ROOT, "working tree")):
            print(f"running the manifest in {name} ...", flush=True)
            run_manifest(tree, work / f"out-{'rev' if tree is parent else 'work'}",
                         manifest(tree), inputs)
        lines, same = compare_dirs(work / "out-rev", work / "out-work")
        print(f"{args.rev} against the working tree:")
        print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
