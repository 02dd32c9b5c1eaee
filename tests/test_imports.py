"""isdkit runs on numpy alone: no import, fit or evaluation loads scipy.

`import isdkit` and `import isdkit.cli` load no scipy module, and neither
does an evaluation of any of the four models: the Cox and AFT fits solve
with `numpy.linalg`, MTLR fits with the L-BFGS of `isdkit.mtlr.minimize`,
and the normal and chi-square tails behind the Cox filter and the
calibration p-values are closed forms in the standard library.  Each case
runs in a fresh interpreter, since this test session has loaded scipy as
the tests' oracle.  The last test pins what the benchmark's tracer and
`_train` read off `minimize`, which the tracer wraps by its module-level
name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isdkit.mtlr as mtlr
from isdkit import CohortConfig, simulate_cohort

ROOT = Path(__file__).resolve().parent.parent


def _scipy_modules(script):
    """The scipy modules a fresh interpreter holds after `script`, and the
    lines `script` printed."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    script += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    *lines, modules = result.stdout.splitlines()
    return {m for m in json.loads(modules) if m == "scipy" or m.startswith("scipy.")}, lines


def _evaluation(model):
    """A script that evaluates `model` on a cohort with three prognostic
    features, so that the univariate Cox filter keeps some, and prints the
    calibration p-values, so that the chi-square tail is known to have run."""
    return ("from isdkit import CohortConfig, ExperimentConfig, run_experiment, simulate_cohort\n"
            "cohort = CohortConfig(beta=(0.7, -0.7, 0.5), censor_rate=0.05)\n"
            "report = run_experiment(simulate_cohort(cohort, 200, 0),\n"
            f"                        ExperimentConfig(model={model!r}))\n"
            "print(report.dcal.p_value)")


@pytest.mark.parametrize("module", ["isdkit", "isdkit.cli"])
def test_import_loads_no_scipy(module):
    loaded, _ = _scipy_modules(f"import {module}")
    assert loaded == set()


@pytest.mark.parametrize("model", ["km", "cox-kp", "aft-weibull", "mtlr"])
def test_evaluation_loads_no_scipy(model):
    loaded, lines = _scipy_modules(_evaluation(model))
    assert 0.0 <= float(lines[-1]) <= 1.0
    assert loaded == set()


@pytest.mark.parametrize("c_grid, runs", [((1.0,), 1), ((0.1, 1.0), 11)], ids=["one-c", "c-grid"])
def test_mtlr_fits_call_minimize_by_its_module_level_name(monkeypatch, c_grid, runs):
    # one run per fit, and with a C grid one per candidate and internal fold
    # before the final fit; the tracer reads nfev and nit, `_train` the rest
    returned = []
    forward = mtlr.minimize

    def recording(*args, **kwargs):
        returned.append(forward(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(mtlr, "minimize", recording)
    d = simulate_cohort(CohortConfig(), 60, 0)
    model = mtlr.fit_mtlr(d, mtlr.make_grid(d, mtlr.default_grid_size(len(d))), c_grid)
    assert len(returned) == runs
    for result in returned:
        assert result.x.shape == result.jac.shape == (model.theta.size,)
        assert isinstance(result.nit, int) and isinstance(result.nfev, int)
        assert 0 < result.nit < result.nfev
        assert result.success is True and isinstance(result.message, str)
    final = returned[-1]
    np.testing.assert_array_equal(final.x, model.theta.ravel())
    assert (model.iterations, model.gradient_norm) == (final.nit, np.max(np.abs(final.jac)))
