"""tools/compare_outputs.py reports equal outputs as equal and names a
difference of one ulp in a CSV or JSON file, with its size.  The comparison runs on two copies
of one small manifest output, so no git revision is exported."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def test_copies_compare_equal_and_an_ulp_is_reported(tmp_path):
    steps = {name: argv for name, argv in compare_outputs.manifest(compare_outputs.ROOT)}
    small = [(name, steps[name]) for name in ("simulate", "evaluate-km")]
    first, second, inputs = tmp_path / "first", tmp_path / "second", tmp_path / "inputs"
    inputs.mkdir()
    compare_outputs.run_manifest(compare_outputs.ROOT, first, small, inputs)
    assert (first / "log" / "evaluate-km.txt").read_text().startswith("exit 0\n")
    shutil.copytree(first, second)

    lines, same = compare_outputs.compare_dirs(first, second)
    assert same and lines[-1].endswith("files equal")
    assert lines == [lines[-1]]

    metrics = second / "evaluate-km" / "metrics.csv"
    rows = metrics.read_text().splitlines()
    metric, fold, value = rows[1].split(",")
    bumped = np.nextafter(float(value), np.inf)
    rows[1] = f"{metric},{fold},{float(bumped)!r}"
    metrics.write_text("\n".join(rows) + "\n")
    (second / "simulate" / "cohort.csv").unlink()

    lines, same = compare_outputs.compare_dirs(first, second)
    assert not same
    gap = float(bumped) - float(value)
    assert (f"different  evaluate-km/metrics.csv  (max abs {gap:.3g}, "
            f"max rel {gap / float(bumped):.3g})") in lines
    assert "only in first  simulate/cohort.csv" in lines


def test_a_json_difference_is_sized(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for d in (first, second):
        d.mkdir()
    probs = [1.0, 0.75, 0.5]
    (first / "model.json").write_text(json.dumps(
        {"beta": [0.5, -1.25], "baseline_probs": probs, "c": 2, "name": "cox-kp"}))
    bumped = [1.0, 0.75, float(np.nextafter(0.5, 1.0))]
    (second / "model.json").write_text(json.dumps(
        {"beta": [0.5, -1.25], "baseline_probs": bumped, "c": 2, "name": "mtlr"}))

    lines, same = compare_outputs.compare_dirs(first, second)
    assert not same
    gap = bumped[2] - 0.5
    assert lines[0] == (f"different  model.json  (max abs {gap:.3g}, "
                        f"max rel {gap / bumped[2]:.3g}; other values differ)")

    (second / "model.json").write_text(json.dumps({"beta": [0.5], "baseline_probs": probs}))
    lines, _ = compare_outputs.compare_dirs(first, second)
    assert lines[0] == ("different  model.json  (max abs 0, max rel 0; keys differ; "
                        "list lengths differ)")
