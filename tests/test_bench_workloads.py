"""One op of every benchmark workload, untraced and traced, at smoke size.

A benchmark run exits 2 when a layer a workload must reach records no
calls while traced, and fails an op whose values miss bench/reference.json
or whose traced values differ from the untraced ones.  Running the op path
of bench/run.py here catches all three in the tier-1 run.  It times
nothing, so the host-speed sampler is not involved; nothing is written
outside a temporary directory and no file under bench/ is touched."""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("isdkit_bench_workloads", "workloads.py")
tracer = _load("isdkit_bench_tracer", "tracer.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_traced_and_untraced_matches_its_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    data = workload.build(workloads.SMOKE_N, 0, tmp_path)
    values = workload.values(workload.op(data, tmp_path / "untraced"))
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.begin_op(1)
        traced = workload.values(workload.op(data, tmp_path / "traced"))
    finally:
        trace.uninstall()
    assert trace.missing_calls(workload.expect_calls) == []
    assert traced == values
    reference = workloads.load_reference("smoke", name, 0)
    assert workloads.mismatches(values, reference, workload.rtol, workload.atol) == []
