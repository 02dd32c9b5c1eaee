"""Every script under demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    # a RuntimeWarning (overflow, log 0, ...) in a demo fails it, as in the tests
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONWARNINGS="error::RuntimeWarning")
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                            text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
