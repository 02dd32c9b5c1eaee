#!/usr/bin/env python3
"""Regenerate bench/reference.json: the correctness gate's stored values.

    python3 bench/make_reference.py

For every workload and every reference cohort seed, at full size and at the
smoke size, run one untraced op and store its fold-mean metrics and its
one-calibration and D-calibration p-values.  Run it only at a commit whose
outputs are known good; the benchmark then checks every op against them.
"""

import json
import shutil
import sys

from run import OUT, import_workloads


def main() -> int:
    wl = import_workloads()
    workdir = OUT / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    for size in ("full", "smoke"):
        for name, workload in wl.WORKLOADS.items():
            n = workload.n if size == "full" else wl.SMOKE_N
            for seed in range(wl.REFERENCE_SEEDS):
                data = workload.build(n, seed, workdir)
                values = workload.values(workload.op(data, workdir / "out"))
                table.setdefault(size, {}).setdefault(name, {})[str(seed)] = values
                print(size, name, seed, flush=True)
    shutil.rmtree(workdir)
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
