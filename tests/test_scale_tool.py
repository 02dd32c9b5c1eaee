"""tools/scale.py runs the scale setup of every model and prints its wall
time and peak memory; here at n = 200, where a run takes well under a
second, so that the n = 50k numbers can be reproduced with the same
script."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "scale.py"
_SPEC = importlib.util.spec_from_file_location("scale", _PATH)
scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scale)

_LINE = r"model={} n=200 wall_s=\d+\.\d{{3}} peak_rss_mb=\d+\.\d"


@pytest.mark.parametrize("model", ["km", "cox-kp", "aft-weibull", "mtlr"])
def test_each_model_runs_and_reports_time_and_memory(model, capsys):
    assert scale.main(["--model", model, "--n", "200"]) == 0
    assert re.fullmatch(_LINE.format(model), capsys.readouterr().out.strip())


def test_the_script_runs_standalone_and_profiles():
    done = subprocess.run([sys.executable, str(_PATH), "--model", "cox-kp", "--n", "200",
                           "--profile", "5"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, *rest = done.stdout.splitlines()
    assert re.fullmatch(_LINE.format("cox-kp"), first)
    assert "run_experiment" in "\n".join(rest)
