#!/usr/bin/env python3
"""Benchmark of isdkit's cross-validated evaluation.

Run from the repository root:

    python3 bench/run.py --workload km-4k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload mtlr-csv --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --seed 1 --seconds 30      # every workload in turn
    python3 bench/run.py --smoke

One op is one evaluation: a `run_experiment` call for the library
workloads, an in-process `isdkit evaluate` for `mtlr-csv`.  With
`--trace 0` the ops run untraced and the end-to-end metrics are printed,
their times corrected for the host's changes of speed (bench/hostspeed.py);
with `--trace 1` untraced and traced ops alternate on the same input and
the per-layer metrics are printed.  Every op is checked against stored
reference values (bench/reference.json).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
`--smoke` runs each workload in both modes once at n = 200.
"""

import os

# One BLAS/OpenMP thread per pool, set before numpy loads: cox-wide's two
# fold threads would otherwise oversubscribe the cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
from tracer import Tracer, TraceError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("km-4k", "cox-wide", "mtlr-csv")
COHORTS_PER_RUN = 4      # untraced ops cycle over this many cohorts
MIN_OPS = 3              # untraced ops per run, however long they take
SETUP_REPEATS = 5        # fresh interpreters timed for setup_s
UNITS = {"evaluate_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself cannot run or its checks on the program failed."""


def import_workloads():
    """Import isdkit from this checkout's src/ (never an installed copy),
    then the workload definitions that use it."""
    if not (SRC / "isdkit" / "__init__.py").is_file():
        raise BenchError(f"no isdkit source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import isdkit

    if Path(isdkit.__file__).resolve().parent != SRC / "isdkit":
        raise BenchError(f"imported isdkit from {isdkit.__file__}, not from {SRC}")
    import workloads

    return workloads


def cohort_seeds(seed: int, count: int, wl) -> list:
    """`count` distinct reference cohorts drawn from the run's seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.permutation(wl.REFERENCE_SEEDS)[:count]]


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads": blas_threads(),
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
    }


def setup_probe(args):
    """Child process of `measure_setup`: import, build the first op's
    input, then say so with the host-speed samples taken meanwhile."""
    workdir = OUT / f"setup-{os.getpid()}"
    try:
        with hostspeed.sampling() as window:
            wl = import_workloads()
            workload = wl.WORKLOADS[args.workload]
            workdir.mkdir(parents=True, exist_ok=True)
            workload.build(args.n, cohort_seeds(args.seed, 1, wl)[0], workdir)
        print(f"ready {json.dumps(window)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args, repeats: int) -> list:
    """(wall seconds, host-speed samples) of `repeats` fresh interpreters,
    each timed from its start until it has imported isdkit and built the
    input of the run's first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--n", str(args.n)]
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
        word, _, window = line.partition(" ")
        if word != "ready" or code != 0:
            raise BenchError(f"setup probe exited {code} without reporting ready")
        samples.append((elapsed, json.loads(window)))
    return samples


class Runner:
    """Runs ops of one workload and applies the correctness gate.  Only the
    current cohort's input is alive, and garbage is collected before each
    op, so one op's leftovers do not land in the next one's time or memory."""

    def __init__(self, wl, workload, size, n, seeds, workdir):
        self.wl, self.workload, self.n = wl, workload, n
        self.seeds = seeds
        self.references = [wl.load_reference(size, workload.name, s) for s in seeds]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.current, self.input = None, None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, k: int, sampling=lambda: nullcontext([])):
        """Time one op on cohort k inside `sampling()`; returns (seconds,
        values or None, the list the sampling context yielded)."""
        if self.current != k:
            self.input = None
            self.input = self.workload.build(self.n, self.seeds[k], self.workdir)
            self.current = k
        self.attempted += 1
        outdir = self.workdir / f"op-{self.attempted}"
        gc.collect()
        try:
            with sampling() as window:
                start = perf_counter()
                result = self.workload.op(self.input, outdir)
                elapsed = perf_counter() - start
            values = self.workload.values(result)
        except Exception as exc:  # an op that raises counts as failed
            self.fail(f"op {self.attempted} raised {type(exc).__name__}: {exc}")
            return perf_counter() - start, None, window
        bad = self.wl.mismatches(values, self.references[k],
                                 self.workload.rtol, self.workload.atol)
        if bad:
            self.fail(f"op {self.attempted} (cohort {self.seeds[k]}) missed its "
                      f"reference: {'; '.join(bad)}")
        return elapsed, values, window

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)


def run_untraced(args, wl, size, workdir) -> tuple:
    """Times setup and ops while sampling the host's speed, and reports
    the times corrected for it."""
    setups = measure_setup(args, 1 if args.smoke else SETUP_REPEATS)
    workload = wl.WORKLOADS[args.workload]
    seeds = cohort_seeds(args.seed, COHORTS_PER_RUN, wl)
    runner = Runner(wl, workload, size, args.n, seeds, workdir)
    ops = []
    start = perf_counter()
    min_ops = 1 if args.smoke else MIN_OPS
    while len(ops) < min_ops or perf_counter() - start < args.seconds:
        elapsed, _, window = runner.op(len(ops) % len(seeds), hostspeed.sampling)
        ops.append((elapsed, window))
    try:
        times = [hostspeed.corrected(*op) for op in ops]
        setup_times = [hostspeed.corrected(*setup) for setup in setups]
    except ValueError as exc:
        raise BenchError(str(exc)) from None
    metrics = {
        "evaluate_s": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{args.workload}: {len(ops)} ops over cohorts {seeds}")
    print(f"op wall seconds {[round(op[0], 4) for op in ops]}")
    print(f"op host speeds {[round(hostspeed.speed(op[1]), 3) for op in ops]}")
    print(f"op corrected seconds {[round(t, 4) for t in times]}")
    print(f"setup wall seconds {[round(s[0], 4) for s in setups]}, "
          f"corrected {[round(t, 4) for t in setup_times]}")
    return runner, metrics


def run_traced(args, wl, size, workdir) -> tuple:
    """Alternate untraced and traced ops on one cohort.  Traced values must
    equal untraced ones exactly, and every count metric must repeat."""
    workload = wl.WORKLOADS[args.workload]
    seeds = cohort_seeds(args.seed, 1, wl)
    runner = Runner(wl, workload, size, args.n, seeds, workdir)
    tracer = Tracer()
    untraced, traced, per_op = [], [], []
    first = None
    min_pairs = 1 if args.smoke else 2
    start = perf_counter()
    while len(traced) < min_pairs or perf_counter() - start < args.seconds:
        elapsed, values, _ = runner.op(0)
        untraced.append(elapsed)
        first = first or values
        tracer.install()
        try:
            tracer.begin_op(len(traced) + 1)
            elapsed, traced_values, _ = runner.op(0)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        per_op.append(tracer.op_metrics())
        missing = tracer.missing_calls(workload.expect_calls)
        if missing:
            raise TraceError(f"{args.workload}: no calls recorded for {', '.join(missing)}")
        if traced_values != first:
            runner.fail(f"traced op {len(traced)} did not reproduce the untraced values")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.csv.gz"
    tracer.write_spans(spans)
    metrics = {}
    for name, value in per_op[0].items():
        series = [m[name] for m in per_op]
        if isinstance(value, int):
            if len(set(series)) != 1:
                raise BenchError(f"{name} differs between traced ops: {series}")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(series)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced ops on "
          f"cohort {seeds[0]}; spans in {spans.relative_to(ROOT)}")
    return runner, metrics


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def report(args, runner, metrics) -> dict:
    error_rate = runner.failed / runner.attempted
    for line in runner.errors:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {unit_of(name)}")
    env = environment()
    print(f"ops = {runner.attempted}, error_rate = {error_rate!r}")
    print(f"env = {json.dumps(env, sort_keys=True)}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "env": env, "error_rate": error_rate}, fh, indent=1)
    return result


def run_one(args) -> dict:
    wl = import_workloads()
    size = "smoke" if args.smoke else "full"
    run = run_traced if args.trace else run_untraced
    workdir = OUT / f"run-{os.getpid()}"
    try:
        runner, metrics = run(args, wl, size, workdir)
        return report(args, runner, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in turn; `--smoke` runs each once per mode at n = 200."""
    wl = import_workloads()
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.smoke else (args.trace,):
            run_args = argparse.Namespace(**{
                **vars(args), "workload": name, "trace": trace,
                "seconds": 0.0 if args.smoke else args.seconds,
                "n": wl.SMOKE_N if args.smoke else wl.WORKLOADS[name].n,
            })
            result = run_one(run_args)
            ok &= result["correct"]
            print(f"{name} trace={trace}: {json.dumps(result)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once per mode at n = 200")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.smoke or args.workload is None:
            return run_all(args)
        wl = import_workloads()
        args.n = wl.WORKLOADS[args.workload].n
        result = run_one(args)
    except (BenchError, TraceError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
