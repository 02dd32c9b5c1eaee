"""What `import isdkit` loads of scipy.

Scoring and the Kaplan-Meier, Cox-KP and Weibull AFT fits need numpy and
`scipy.special` only: their Newton steps solve with `numpy.linalg`.  The
optimizer, and `scipy.linalg` with it, loads on the first MTLR fit.  Each
case runs in a fresh interpreter, since this test session has loaded much
more."""

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


# relative, not a fixed list: an older scipy may load scipy.linalg through
# scipy.special itself
BASELINE = "import numpy, scipy.special"


def _evaluation(model):
    """A script that evaluates `model` on a cohort with three prognostic
    features, so that the univariate Cox filter keeps some."""
    return ("from isdkit import CohortConfig, ExperimentConfig, run_experiment, simulate_cohort\n"
            "cohort = CohortConfig(beta=(0.7, -0.7, 0.5), censor_rate=0.05)\n"
            f"run_experiment(simulate_cohort(cohort, 200, 0), ExperimentConfig(model={model!r}))")


def test_km_evaluation_loads_no_scipy_beyond_special():
    baseline, _ = _scipy_modules(BASELINE)
    loaded, _ = _scipy_modules(_evaluation("km"))
    assert "scipy.special" in loaded
    assert loaded - baseline == set()


@pytest.mark.parametrize("model", ["cox-kp", "aft-weibull"])
def test_newton_fits_load_no_scipy_beyond_special(model):
    baseline, _ = _scipy_modules(BASELINE)
    loaded, _ = _scipy_modules(_evaluation(model))
    assert loaded - baseline == set()


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
