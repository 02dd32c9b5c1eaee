"""Every name the benchmark's tracer wraps still exists in the package.

The tracer (bench/tracer.py) swaps public functions for timing wrappers
and refuses to run when one of them is gone.  Resolving each target here
catches a renamed or deleted traced name in the tier-1 run; nothing is
installed and no file under bench/ is touched."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "isdkit_bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("target", sorted({t[1] for t in tracer.TARGETS}))
def test_traced_name_resolves(target):
    owner, attr, function = tracer._resolve(target)
    assert getattr(owner, attr) is function
    assert callable(function)
