#!/usr/bin/env python3
"""Time one cross-validated run of a model on a large synthetic cohort.

    python tools/scale.py --model cox-kp --n 50000 [--profile 15]

The cohort is ``simulate_cohort`` weibull-ph with 5 features,
beta = (0.7, -0.7, 0.5, -0.5, 0.3), baseline scale 10, shape 1.5 and
exponential censoring at rate 0.055 (about 38% censored), drawn with
seed 0.  The run is ``run_experiment`` in this process with 5 folds in
one thread, every metric and the MTLR C grid (1.0,).  The script prints
one line: the model, n, the wall time of the run and the process's peak
resident set size (``ru_maxrss``, which also covers building the
cohort).  ``--profile N`` runs under cProfile and
then prints the N functions with the largest cumulative time, so a stage
such as ``integrated_brier`` can be read off.  The tree's own ``src/`` goes
first on the import path, so the script measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isdkit import CohortConfig, ExperimentConfig, run_experiment, simulate_cohort  # noqa: E402
from isdkit.pipeline import MODEL_NAMES  # noqa: E402

COHORT = CohortConfig(family="weibull-ph", n_features=5, beta=(0.7, -0.7, 0.5, -0.5, 0.3),
                      baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.055)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--model", required=True, choices=MODEL_NAMES)
    parser.add_argument("--n", type=int, required=True, help="cohort size")
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print the N functions with the largest cumulative time")
    args = parser.parse_args(argv)

    cohort = simulate_cohort(COHORT, args.n, 0)
    cfg = ExperimentConfig(model=args.model, folds=5, mtlr_c_grid=(1.0,), jobs=1)
    profile = cProfile.Profile() if args.profile else None
    start = time.perf_counter()
    if profile:
        profile.enable()
    run_experiment(cohort, cfg)
    if profile:
        profile.disable()
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"model={args.model} n={args.n} wall_s={wall:.3f} peak_rss_mb={peak_mb:.1f}")
    if profile:
        pstats.Stats(profile, stream=sys.stdout).sort_stats("cumulative").print_stats(args.profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
