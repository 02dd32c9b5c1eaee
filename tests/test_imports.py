"""What `import isdkit` loads of scipy.

`import isdkit` and `import isdkit.cli` load no scipy module, and neither
do the Kaplan-Meier, Cox-KP and Weibull AFT evaluations: their fits solve
with `numpy.linalg`, and the normal and chi-square tails behind the Cox
filter and the calibration p-values are closed forms in the standard
library.  The optimizer, and `scipy.special` and `scipy.linalg` with it,
loads on the first MTLR fit.  Each case runs in a fresh interpreter, since
this test session has loaded much more."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("model", ["km", "cox-kp", "aft-weibull"])
def test_evaluation_loads_no_scipy(model):
    loaded, lines = _scipy_modules(_evaluation(model))
    assert 0.0 <= float(lines[-1]) <= 1.0
    assert loaded == set()


def test_mtlr_fit_loads_the_optimizer_through_its_forwarder():
    loaded, lines = _scipy_modules(
        "import isdkit.mtlr as mtlr\n"
        "from isdkit import CohortConfig, simulate_cohort\n"
        "returned = []\n"
        "forward = mtlr.minimize\n"
        "def recording(*args, **kwargs):\n"
        "    returned.append(forward(*args, **kwargs))\n"
        "    return returned[-1]\n"
        "mtlr.minimize = recording\n"
        "d = simulate_cohort(CohortConfig(), 60, 0)\n"
        "mtlr.fit_mtlr(d, mtlr.make_grid(d, mtlr.default_grid_size(len(d))), (1.0,))\n"
        "from scipy.optimize import OptimizeResult\n"
        "print(len(returned), all(type(r) is OptimizeResult for r in returned))")
    assert "scipy.optimize" in loaded
    assert lines[-1] == "1 True"
