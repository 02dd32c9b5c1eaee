"""Keeps the benchmark working: a smoke run of every workload in both modes
at n = 200 through the correctness gate, and the tracer's refusal to run
with a traced name that is gone.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


def test_smoke_run_passes_the_correctness_gate():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count('"correct": true') == 6, proc.stdout


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS",
                        (("cox.fit", "isdkit.cox:no_such_function", None, None),))
    with pytest.raises(tracer.TraceError, match="no_such_function"):
        tracer.Tracer().install()
