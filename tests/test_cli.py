import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isdkit.cli import main
from isdkit.core import load_csv, save_csv
from isdkit.mtlr import default_grid_size, make_grid
from isdkit.pipeline import CohortConfig, simulate_cohort

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def toy_csv(tmp_path):
    d = simulate_cohort(
        CohortConfig(family="weibull-ph", n_features=2, beta=(0.8, -0.5),
                     baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.04),
        80, seed=4,
    )
    path = tmp_path / "toy.csv"
    save_csv(d, path)
    return path


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_writes_loadable_cohort(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--n", "40", "--censor-rate", "0.05",
                     "--beta", "0.5,-0.5", "--seed", "3", "--out", str(out)])
        assert code == 0
        d = load_csv(out / "cohort.csv", "time", "event")
        assert len(d) == 40

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        # there is no environment fallback: without --seed, simulate draws
        # with seed 0 whatever ISDKIT_SEED holds
        out1, out2, out0 = tmp_path / "a", tmp_path / "b", tmp_path / "zero"
        monkeypatch.setenv("ISDKIT_SEED", "17")
        main(["simulate", "--n", "20", "--out", str(out1)])
        monkeypatch.delenv("ISDKIT_SEED")
        main(["simulate", "--n", "20", "--out", str(out2)])
        main(["simulate", "--n", "20", "--seed", "0", "--out", str(out0)])
        assert (out1 / "cohort.csv").read_bytes() == (out2 / "cohort.csv").read_bytes()
        assert (out2 / "cohort.csv").read_bytes() == (out0 / "cohort.csv").read_bytes()

    @pytest.mark.parametrize("cols", [["--time-col", "x0"], ["--time-col", "t", "--event-col", "t"]])
    def test_repeated_column_exits_one_without_a_file(self, tmp_path, capsys, cols):
        out = tmp_path / "sim"
        assert main(["simulate", "--n", "20", *cols, "--out", str(out)]) == 1
        assert "appear more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_parameters_exit_one(self, tmp_path, capsys):
        code = main(["simulate", "--n", "10", "--scale", "-1",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestEvaluate:
    def test_km_metrics_csv_has_half_concordance(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
                     "--folds", "3", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "metrics.csv")
        mean = [r for r in rows if r["metric"] == "concordance" and r["fold"] == "mean"]
        assert float(mean[0]["value"]) == 0.5

    def test_five_percentile_rows(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        main(["evaluate", "--dataset", str(toy_csv), "--model", "cox-kp",
              "--folds", "3", "--percentiles", "10,25,50,75,90", "--out", str(out)])
        rows = read_rows(out / "calibration.csv")
        onecal = [r for r in rows if r["test"] == "one-calibration-dn"]
        assert len(onecal) == 5
        assert any(r["test"] == "d-calibration" for r in rows)

    def test_outputs_reparse_and_histogram_totals(self, toy_csv, tmp_path):
        out = tmp_path / "run"
        main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
              "--folds", "3", "--out", str(out)])
        hist = read_rows(out / "dcal_histogram.csv")
        total = sum(float(r["count"]) for r in hist)
        assert total == pytest.approx(80.0, abs=1e-9)
        curve_files = sorted((out / "curves").glob("patient_*.csv"))
        assert len(curve_files) == 80
        first = read_rows(curve_files[0])
        assert list(first[0].keys()) == ["time", "survival"]

    def test_rerun_is_byte_identical(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["evaluate", "--dataset", str(toy_csv), "--model", "km",
                "--folds", "3", "--seed", "5"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        for name in ("metrics.csv", "calibration.csv", "dcal_histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_refuses_overwrite_without_force(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
              "--folds", "3", "--out", str(out)])
        code = main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
                     "--folds", "3", "--out", str(out)])
        assert code == 1
        assert "--force" in capsys.readouterr().err
        code = main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
                     "--folds", "3", "--out", str(out), "--force"])
        assert code == 0

    def test_a_force_rerun_leaves_no_stale_histogram(self, toy_csv, tmp_path):
        # a run without d-calibration once kept the earlier run's histogram,
        # which report then published as the new run's
        out, report = tmp_path / "run", tmp_path / "report"
        args = ["evaluate", "--dataset", str(toy_csv), "--model", "km",
                "--folds", "3", "--out", str(out)]
        assert main(args) == 0
        assert len(read_rows(out / "dcal_histogram.csv")) == 10
        assert main(args + ["--force", "--metrics", "concordance"]) == 0
        assert (out / "dcal_histogram.csv").read_text() == "bin_lo,bin_hi,count\n"
        assert main(["report", "--runs", str(out), "--out", str(report)]) == 0
        assert read_rows(report / "dcal_histograms.csv") == []

    def test_refuses_the_curves_of_a_fit_without_force(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "mix"
        assert main(["fit", "--dataset", str(toy_csv), "--model", "cox-kp",
                     "--out", str(out)]) == 0
        code = main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
                     "--folds", "3", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(out / "curves") in err and "--force" in err
        assert not (out / "metrics.csv").exists()

    def test_force_leaves_the_curves_of_the_last_run_only(self, tmp_path):
        config = CohortConfig(family="weibull-ph", n_features=2, beta=(0.8, -0.5),
                              censor_rate=0.04)
        out = tmp_path / "run"
        for n in (60, 40):
            path = tmp_path / f"cohort{n}.csv"
            save_csv(simulate_cohort(config, n, seed=1), path)
            assert main(["evaluate", "--dataset", str(path), "--model", "km",
                         "--folds", "3", "--out", str(out), "--force"]) == 0
        files = sorted(p.name for p in (out / "curves").iterdir())
        assert files == [f"patient_{i:05d}.csv" for i in range(40)]

    def test_failed_force_run_keeps_the_earlier_run_whole(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "".join(f"{i + 1},{i % 3 > 0:d},7\n" for i in range(40))
        path.write_text("time,event,x\n" + rows, encoding="utf-8")
        out = tmp_path / "run"
        assert main(["evaluate", "--dataset", str(path), "--model", "km",
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.rglob("*.csv")}
        assert len(before) == 3 + 40
        assert main(["evaluate", "--dataset", str(path), "--model", "cox-kp",
                     "--out", str(out), "--force"]) == 1
        assert "no feature passed the univariate Cox filter" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.rglob("*.csv")} == before

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", "km"])  # missing required flags
        assert exc.value.code == 2

    def test_fold_failure_exits_one_with_message(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "".join(f"{i + 1},1,7\n" for i in range(30))
        path.write_text("time,event,x\n" + rows, encoding="utf-8")
        code = main(["evaluate", "--dataset", str(path), "--model", "cox-kp",
                     "--folds", "3", "--out", str(tmp_path / "run")])
        assert code == 1
        assert "fold" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()       # made by the first write only

    def test_separating_column_prints_only_the_error(self, tmp_path):
        # b = -time separates the deaths; the Cox line search refuses its
        # overflowing trials without numpy warnings on stderr (a subprocess
        # with the default warning filters, so that pytest filters nothing)
        rng = np.random.default_rng(0)
        times = rng.exponential(10, 200)
        events = (rng.random(200) < 0.7).astype(int)
        path = tmp_path / "separating.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "event", "a", "b"])
            writer.writerows(zip(times.tolist(), events.tolist(),
                                 rng.standard_normal(200).tolist(), (-times).tolist()))
        path_var = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path_var, PYTHONWARNINGS="default")
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from isdkit.cli import main; sys.exit(main())",
             "evaluate", "--dataset", str(path), "--model", "cox-kp",
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, timeout=300, env=env)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: fold 0: singular information matrix in Cox fit; "
            "remove constant or collinear features"]


class TestFit:
    def test_km_needs_no_features(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("time,event\n1,1\n2,0\n3,1\n", encoding="utf-8")
        out = tmp_path / "fit"
        code = main(["fit", "--dataset", str(path), "--model", "km",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "model.json").read_text())
        assert payload["model"] == "km"
        assert len(list((out / "curves").glob("*.csv"))) == 3

    def test_mtlr_without_deaths_errors(self, tmp_path, capsys):
        path = tmp_path / "cens.csv"
        path.write_text("time,event,x\n1,0,0.3\n2,0,-1\n3,0,0.5\n4,0,1.2\n",
                        encoding="utf-8")
        code = main(["fit", "--dataset", str(path), "--model", "mtlr",
                     "--out", str(tmp_path / "fit")])
        assert code == 1
        assert not (tmp_path / "fit").exists()

    def test_collinear_features_error_cleanly(self, tmp_path, capsys):
        # prognostic collinear pair: both survive the univariate filter,
        # then the joint fit hits a singular information matrix
        rng = np.random.default_rng(0)
        lines = ["time,event,a,b"]
        for _ in range(40):
            v = rng.standard_normal()
            t = float(10 * np.exp(-1.2 * v) * rng.weibull(2.0))
            lines.append(f"{t},1,{v},{2 * v}")  # b is exactly 2a
        path = tmp_path / "collinear.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["fit", "--dataset", str(path), "--model", "cox-kp",
                     "--out", str(tmp_path / "fit")])
        assert code == 1
        assert "singular" in capsys.readouterr().err

    def test_cox_payload_round_trips(self, toy_csv, tmp_path):
        out = tmp_path / "fit"
        main(["fit", "--dataset", str(toy_csv), "--model", "cox-kp",
              "--out", str(out)])
        payload = json.loads((out / "model.json").read_text())
        assert payload["model"] == "cox-kp"
        assert len(payload["beta"]) == 2
        assert len(payload["baseline_times"]) == len(payload["baseline_probs"])


    def test_aft_curves_sit_on_the_make_grid_knots(self, tmp_path):
        # like `evaluate`, `fit` predicts AFT curves on the make_grid grid,
        # not on every training time
        d = simulate_cohort(
            CohortConfig(family="weibull-ph", n_features=2, beta=(0.8, -0.5),
                         baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.04),
            200, seed=4,
        )
        path = tmp_path / "cohort.csv"
        save_csv(d, path)
        out = tmp_path / "fit"
        assert main(["fit", "--dataset", str(path), "--model", "aft-weibull",
                     "--out", str(out)]) == 0
        grid = make_grid(d, default_grid_size(len(d))).points.tolist()
        files = sorted((out / "curves").glob("patient_*.csv"))
        assert len(files) == 200
        for f in files:
            rows = read_rows(f)
            assert [float(r["time"]) for r in rows[:-1]] == [0.0, *grid]
            assert float(rows[-1]["survival"]) == 0.0


class TestReport:
    def test_two_runs_flag_the_best(self, toy_csv, tmp_path):
        run_a, run_b = tmp_path / "km", tmp_path / "cox"
        main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
              "--folds", "3", "--out", str(run_a)])
        main(["evaluate", "--dataset", str(toy_csv), "--model", "cox-kp",
              "--folds", "3", "--out", str(run_b)])
        out = tmp_path / "report"
        code = main(["report", "--runs", str(run_a), str(run_b), "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "comparison.csv")
        conc = {r["run"]: r for r in rows if r["metric"] == "concordance"}
        assert conc["cox"]["best"] == "1"
        assert conc["km"]["best"] == "0"
        assert (out / "dcal_histograms.csv").exists()
        assert (out / "curves_sample.csv").exists()

    def test_single_run_identity_table(self, toy_csv, tmp_path):
        run = tmp_path / "km"
        main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
              "--folds", "3", "--out", str(run)])
        out = tmp_path / "report"
        assert main(["report", "--runs", str(run), "--out", str(out)]) == 0
        rows = read_rows(out / "comparison.csv")
        assert all(r["best"] == "1" for r in rows)

    @pytest.mark.parametrize("name", ["dcal_histograms.csv", "curves_sample.csv"])
    def test_refuses_to_overwrite_any_of_its_files_without_force(self, toy_csv, tmp_path,
                                                                 capsys, name):
        run, out = tmp_path / "km", tmp_path / "report"
        main(["evaluate", "--dataset", str(toy_csv), "--model", "km",
              "--folds", "3", "--out", str(run)])
        out.mkdir()
        (out / name).write_text("kept\n")
        assert main(["report", "--runs", str(run), "--out", str(out)]) == 1
        assert "--force" in capsys.readouterr().err
        assert (out / name).read_text() == "kept\n"
        assert not (out / "comparison.csv").exists()

    def test_runs_sharing_a_label_are_refused(self, toy_csv, tmp_path, capsys):
        run_a, run_b = tmp_path / "a" / "run", tmp_path / "b" / "run"
        for run, model in ((run_a, "km"), (run_b, "cox-kp")):
            main(["evaluate", "--dataset", str(toy_csv), "--model", model,
                  "--folds", "3", "--out", str(run)])
        out = tmp_path / "report"
        code = main(["report", "--runs", str(run_a), str(run_b), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(run_a) in err and str(run_b) in err and "'run'" in err
        assert not out.exists()

    def test_missing_inputs_error(self, tmp_path, capsys):
        code = main(["report", "--runs", str(tmp_path / "nothing"),
                     "--out", str(tmp_path / "rep")])
        assert code == 1
