import re

import numpy as np
import pytest

from isdkit import aft, core
from isdkit.core import (
    NEWTON_STEPS,
    ConvergenceError,
    Instance,
    SurvivalDataset,
    load_csv,
    newton_ascent,
    save_csv,
    split_by_censoring,
)
from isdkit.cox import _RiskSets, fit_cox
from isdkit.curves import CurveBatch
from isdkit.mtlr import make_grid
from isdkit.pipeline import CohortConfig, simulate_cohort


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def concave(x):
    """-(x - 3)^2 summed, with its gradient and information."""
    value = -float(np.sum((x - 3.0) ** 2))
    return value, -2.0 * (x - 3.0), 2.0 * np.eye(x.size)


class TestNewtonAscent:
    def test_converges_in_one_step_on_a_quadratic(self):
        x, info, steps, gnorm = newton_ascent(
            concave, np.zeros(2), lambda info, grad: np.linalg.solve(info, grad), "quadratic")
        np.testing.assert_array_equal(x, [3.0, 3.0])
        assert (steps, gnorm) == (1, 0.0)
        np.testing.assert_array_equal(info, 2.0 * np.eye(2))

    def test_downhill_step_fails_the_halving(self):
        # long enough that even its 40th halving falls beyond float resolution
        x0 = np.array([1.0])
        with pytest.raises(ConvergenceError, match="downhill step halving failed") as err:
            newton_ascent(concave, x0, lambda info, grad: -1e6 * grad, "downhill")
        np.testing.assert_array_equal(err.value.last_iterate, x0)

    def test_gradient_that_never_shrinks_hits_the_step_cap(self):
        # a linear function rises along every step but its gradient stays 1
        def linear(x):
            return float(x.sum()), np.ones(x.size), np.eye(x.size)

        with pytest.raises(ConvergenceError, match=f"in {NEWTON_STEPS} steps") as err:
            newton_ascent(linear, np.zeros(1), lambda info, grad: grad, "linear")
        np.testing.assert_array_equal(err.value.last_iterate, [float(NEWTON_STEPS)])

    def test_nan_gradient_raises(self):
        def broken(x):
            return concave(x)[0], np.full(x.size, np.nan), np.eye(x.size)

        x0 = np.array([1.0, 2.0])
        with pytest.raises(ConvergenceError, match="broken step halving failed") as err:
            newton_ascent(broken, x0, lambda info, grad: grad, "broken")
        np.testing.assert_array_equal(err.value.last_iterate, x0)

    @pytest.mark.parametrize("model", ["cox", "aft"])
    def test_fits_make_one_likelihood_pass_per_trial(self, monkeypatch, model):
        # the start point takes one pass and every trial of the line search
        # one more, whether it is accepted or refused
        counts = {"passes": 0, "trials": 0}

        def counting(f):
            def wrapper(*args):
                counts["passes"] += 1
                return f(*args)
            return wrapper

        accepts = core.accepts

        def counting_accepts(new, value):
            counts["trials"] += 1
            return accepts(new, value)

        monkeypatch.setattr(core, "accepts", counting_accepts)
        config = CohortConfig(family="weibull-ph", n_features=8, censor_rate=0.05)
        d = simulate_cohort(config, 400, 1)
        if model == "cox":
            monkeypatch.setattr(_RiskSets, "partial", counting(_RiskSets.partial))
            m = fit_cox(d)
        else:
            monkeypatch.setattr(aft, "aft_loglik", counting(aft.aft_loglik))
            m = aft.fit_aft_weibull(d, make_grid(d, 20))
        assert counts["trials"] >= m.iterations >= 3
        assert counts["passes"] == 1 + counts["trials"]


class TestLoadCsv:
    def test_three_row_file_partitions(self, tmp_path):
        path = write(tmp_path, "time,event,age\n2,1,50\n3,0,61\n5,1,44\n")
        d = load_csv(path, "time", "event")
        assert len(d) == 3
        assert d.feature_names == ("age",)
        unc, cen = split_by_censoring(d)
        assert (len(unc), len(cen)) == (2, 1)
        assert list(d.times) == [2.0, 3.0, 5.0]

    def test_negative_time_names_the_row(self, tmp_path):
        path = write(tmp_path, "time,event,age\n2,1,50\n-3,0,61\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "time", "event")

    def test_bad_event_flag_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "time,event,age\n2,2,50\n")
        with pytest.raises(ValueError, match="row 2.*event"):
            load_csv(path, "time", "event")

    def test_unparseable_time_named(self, tmp_path):
        path = write(tmp_path, "time,event,age\nsoon,1,50\n")
        with pytest.raises(ValueError, match="row 2.*time"):
            load_csv(path, "time", "event")

    @pytest.mark.parametrize("cell", ["inf", "nan", "-Infinity"])
    def test_non_finite_time_names_row_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"time,event,age\n2,1,50\n{cell},0,61\n")
        with pytest.raises(ValueError, match="row 3, column 'time': non-finite"):
            load_csv(path, "time", "event")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"time,event,age,bmi\n2,1,50,21\n3,0,61,{cell}\n")
        with pytest.raises(ValueError, match="row 3, column 'bmi': non-finite"):
            load_csv(path, "time", "event")

    def test_ragged_row_rejected(self, tmp_path):
        path = write(tmp_path, "time,event,age\n2,1\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(path, "time", "event")

    @pytest.mark.parametrize("cells", ["4.5,1,50", "1,1,50"])
    def test_time_column_that_is_the_event_column_rejected(self, tmp_path, cells):
        path = write(tmp_path, f"time,event,age\n{cells}\n")
        with pytest.raises(ValueError, match="data.csv: column 'time' cannot be both the "
                                             "time and the event column"):
            load_csv(path, "time", "time")

    def test_empty_time_and_text_flag_name_row_and_column(self, tmp_path):
        path = write(tmp_path, "time,event,age\n2,1,50\n,0,61\n")
        with pytest.raises(ValueError, match="row 3, column 'time': time must be a number, "
                                             "got None"):
            load_csv(path, "time", "event")
        path = write(tmp_path, "t,e,age\n2,1,50\n3,no,61\n")
        with pytest.raises(ValueError, match="row 3, column 'e': event must be 0 or 1, "
                                             "got 'no'"):
            load_csv(path, "t", "e")

    @pytest.mark.parametrize("lines, where", [
        (["2,2,50", "3,0,61", "-4,1,70"], "row 2, column 'event'"),
        (["2,1,nan", "-3,0,61"], "row 2, column 'age'"),
        (["2,1,50", "-3,2,inf"], "row 3, column 'time'"),
        (["2,1,50", "3,2,61", "4,1"], "row 3, column 'event'"),
        (['2,1,"two\nlines"', "-3,0,x"], "row 4, column 'time': negative time -3.0"),
        (['2,1,"two\nlines"', "3,0"], "row 4 has 2 cells, expected 3"),
    ], ids=["event-before-time", "cell-before-time", "time-before-event-and-cell",
            "before-a-short-row", "after-a-two-line-cell", "short-after-a-two-line-cell"])
    def test_first_bad_line_is_named(self, tmp_path, lines, where):
        path = write(tmp_path, "time,event,age\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=where):
            load_csv(path, "time", "event")

    def test_missing_column_rejected(self, tmp_path):
        path = write(tmp_path, "time,event\n2,1\n")
        with pytest.raises(ValueError, match="age"):
            load_csv(path, "time", "age")

    @pytest.mark.parametrize("header, name", [("time,event,x,x", "x"),
                                              ("time,event,x,time", "time")])
    def test_repeated_header_cell_rejected(self, tmp_path, header, name):
        path = write(tmp_path, f"{header}\n2,1,0.5,3\n")
        with pytest.raises(ValueError, match=f"data.csv: column '{name}' appears more than once"):
            load_csv(path, "time", "event")

    def test_heavily_missing_feature_still_loads(self, tmp_path):
        # 30% missing cells are kept as missing markers; preprocessing
        # decides their fate later
        rows = "\n".join(f"{i + 1},1," + ("" if i < 3 else "7") for i in range(10))
        path = write(tmp_path, "time,event,lab\n" + rows + "\n")
        d = load_csv(path, "time", "event")
        missing = sum(1 for inst in d.instances if inst.features[0] is None)
        assert missing == 3

    def test_categorical_cells_stay_strings(self, tmp_path):
        path = write(tmp_path, "time,event,site\n1,1,lung\n2,0,colon\n")
        d = load_csv(path, "time", "event")
        assert d.instances[0].features[0] == "lung"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel writes a UTF-8 byte-order mark before the first header cell
        text = "time,event,age,site\n2.5,1,50.25,lung\n3,0,,colon\n0.125,1,44,lung\n"
        plain = load_csv(write(tmp_path, text), "time", "event")
        marked = load_csv(write(tmp_path, "\ufeff" + text, "bom.csv"), "time", "event")
        np.testing.assert_array_equal(marked.times, plain.times)
        np.testing.assert_array_equal(marked.events, plain.events)
        np.testing.assert_array_equal(marked.values, plain.values)
        assert marked.feature_names == plain.feature_names == ("age", "site")
        assert [i.features for i in marked.instances] == [i.features for i in plain.instances]

    def test_round_trip_identity(self, tmp_path):
        path = write(
            tmp_path,
            "time,event,age,site\n2.5,1,50.25,lung\n3,0,,colon\n0.125,1,44,lung\n",
        )
        d1 = load_csv(path, "time", "event")
        out = tmp_path / "again.csv"
        save_csv(d1, out, "time", "event")
        d2 = load_csv(out, "time", "event")
        assert list(d1.times) == list(d2.times)
        assert list(d1.events) == list(d2.events)
        for a, b in zip(d1.instances, d2.instances):
            assert a.features == b.features

    @pytest.mark.parametrize("time_col, event_col, repeated", [("x0", "event", "x0"),
                                                               ("t", "t", "t")])
    def test_save_refuses_a_repeated_column_before_writing(self, tmp_path, time_col,
                                                           event_col, repeated):
        d = SurvivalDataset.from_arrays(np.zeros((2, 1)), [1.0, 2.0], [1, 0])
        out = tmp_path / "cohort.csv"
        with pytest.raises(ValueError, match=f"column '{repeated}' would appear more than once"):
            save_csv(d, out, time_col, event_col)
        assert not out.exists()


class TestDataset:
    def test_split_partitions_everything(self):
        d = SurvivalDataset.from_arrays(np.zeros((6, 2)), [1, 2, 3, 4, 5, 6],
                                        [1, 0, 1, 1, 0, 0])
        unc, cen = split_by_censoring(d)
        assert len(unc) + len(cen) == len(d)
        assert unc.events.all() and not cen.events.any()

    def test_split_all_one_sided(self):
        d = SurvivalDataset.from_arrays(np.zeros((3, 1)), [1, 2, 3], [1, 1, 1])
        unc, cen = split_by_censoring(d)
        assert (len(unc), len(cen)) == (3, 0)
        unc, cen = split_by_censoring(
            SurvivalDataset.from_arrays(np.zeros((3, 1)), [1, 2, 3], [0, 0, 0])
        )
        assert (len(unc), len(cen)) == (0, 3)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="features"):
            SurvivalDataset(
                (Instance((1e0, 2.0), 1.0, True), Instance((1.0,), 2.0, False)),
                ("a", "b"),
            )

    def test_repeated_feature_names_rejected(self):
        with pytest.raises(ValueError, match="'a' appears more than once"):
            SurvivalDataset((Instance((1.0, 2.0), 1.0, True),), ("a", "a"))
        with pytest.raises(ValueError, match="'a' appears more than once"):
            SurvivalDataset.from_arrays([[1.0, 2.0]], [1.0], [True], ["a", "a"])
        d = SurvivalDataset.from_arrays([[1.0, 2.0]], [1.0], [True], ["a", "b"])
        with pytest.raises(ValueError, match="'b' appears more than once"):
            d.with_features([[1.0, 2.0]], ["b", "b"])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="row 1: negative time -0.5"):
            SurvivalDataset((Instance((1.0,), 1.0, True), Instance((1.0,), -0.5, True)),
                            ("a",))
        with pytest.raises(ValueError, match="row 0: negative time -0.5"):
            SurvivalDataset.from_arrays(np.zeros((1, 1)), [-0.5], [True])

    @pytest.mark.parametrize("flag", ["no", "1", 0.5, 2, float("nan"), None])
    def test_instance_rejects_an_event_flag_other_than_0_or_1(self, flag):
        pattern = f"row 1: event must be 0 or 1, got {re.escape(repr(flag))}$"
        with pytest.raises(ValueError, match=pattern):
            SurvivalDataset((Instance((1.0,), 2.0, 0), Instance((1.0,), 1.0, flag)), ("a",))
        with pytest.raises(ValueError, match=pattern):
            SurvivalDataset.from_arrays([[1.0], [1.0]], [2.0, 1.0], [False, flag])

    @pytest.mark.parametrize("flag", [True, False, 1, 0, 1.0, np.True_, np.False_])
    def test_instance_accepts_bool_and_0_1_flags(self, flag):
        event = SurvivalDataset((Instance((1.0,), 1.0, flag),), ("a",)).instances[0].event
        assert type(event) is bool and event == bool(flag)

    def test_from_arrays_rejects_an_event_flag_other_than_0_or_1(self):
        with pytest.raises(ValueError, match="row 0: event must be 0 or 1, got nan"):
            SurvivalDataset.from_arrays(np.zeros((3, 1)), [1, 2, 3], [np.nan, 0.5, 2])
        with pytest.raises(ValueError, match="row 2: event must be 0 or 1, got 2"):
            SurvivalDataset.from_arrays(np.zeros((3, 1)), [1, 2, 3], [1, 0, 2])
        d = SurvivalDataset.from_arrays(np.zeros((3, 1)), [1, 2, 3], np.array([True, False, True]))
        assert d.events.dtype == bool and d.events.tolist() == [True, False, True]

    def test_from_arrays_names_the_first_bad_row(self):
        with pytest.raises(ValueError, match="row 0: event must be 0 or 1, got 'no'$"):
            SurvivalDataset.from_arrays(np.zeros((4, 1)), [1, 2, 3, -4], ["no", 0, 1, 1])
        with pytest.raises(ValueError, match="row 1, column 'x0': non-finite value inf"):
            SurvivalDataset.from_arrays([[0.0], [np.inf], [0.0]], [1, 2, -3], [1, 0, 2])
        with pytest.raises(ValueError, match="row 1: negative time -2.0$"):
            SurvivalDataset.from_arrays([[0.0], [np.inf]], [1, -2], [1, 2])

    def test_from_arrays_takes_lists_and_one_dimensional_features(self):
        times, events = [1.0, 2.0, 3.0], [1, 0, 1]
        expected = SurvivalDataset.from_arrays(np.array([[1.0], [2.0], [3.0]]), times, events)
        for x in ([1.0, 2.0, 3.0], (1, 2, 3), np.array([1, 2, 3]), [[1.0], [2.0], [3.0]]):
            d = SurvivalDataset.from_arrays(x, times, events)
            assert d.feature_names == ("x0",) and not d.raw_columns
            assert d.values.tolist() == expected.values.tolist()
        d = SurvivalDataset.from_arrays([[1, 2.5], [3, 4.5]], [1.0, 2.0], [1, 0], ["a", "b"])
        assert d.values.tolist() == [[1.0, 2.5], [3.0, 4.5]]
        d = SurvivalDataset.from_arrays(np.array([1.0, None, 3.0], dtype=object), times, events)
        assert np.isnan(d.values[1, 0]) and d.values[[0, 2], 0].tolist() == [1.0, 3.0]
        d = SurvivalDataset.from_arrays(["a", 2.0, None], times, events)
        assert d.raw_columns[0].tolist() == ["a", 2.0, None]

    @pytest.mark.parametrize("time", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(ValueError, match=f"row 0: non-finite time {time}"):
            SurvivalDataset((Instance((1.0,), time, True),), ("a",))
        with pytest.raises(ValueError, match="row 1: time must be a number, got '2'"):
            SurvivalDataset.from_arrays(np.zeros((2, 1)), [1.0, "2"], [True, True])

    @pytest.mark.parametrize("row, col, value, text", [(3, 0, np.nan, "nan"),
                                                       (10, 4, np.inf, "inf"),
                                                       (0, 2, -np.inf, "-inf")],
                             ids=["3-0-nan", "10-4-inf", "0-2--inf"])
    def test_from_arrays_rejects_non_finite_cells(self, row, col, value, text):
        x = np.random.default_rng(0).standard_normal((12, 5))
        x[row, col] = value
        # the value prints as a plain float on every numpy version
        with pytest.raises(ValueError, match=f"row {row}, column 'x{col}': "
                                             f"non-finite value {text};"):
            SurvivalDataset.from_arrays(x, np.arange(1.0, 13.0), np.ones(12))

    def test_from_arrays_reports_the_first_non_finite_cell(self):
        # before this was rejected, a NaN and an inf cell made cox-kp drop
        # the true-signal x0 with only a RuntimeWarning
        x = np.zeros((12, 5))
        x[3, 0], x[10, 4] = np.nan, np.inf
        with pytest.raises(ValueError, match="row 3, column 'x0'"):
            SurvivalDataset.from_arrays(x, np.arange(1.0, 13.0), np.ones(12))

    @pytest.mark.parametrize("value, text", [(float("nan"), "nan"), (float("inf"), "inf"),
                                             (np.float64("-inf"), "-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_instances_reject_non_finite_cells(self, value, text):
        instances = (Instance((1.0, None), 1.0, True), Instance(("a", value), 2.0, False))
        with pytest.raises(ValueError, match=f"row 1, column 'b': non-finite value {text};"):
            SurvivalDataset(instances, ("a", "b"))

    def test_columns_and_instance_views(self):
        instances = (Instance((1.5, "lung", None), 2.0, True),
                     Instance((None, 3, 4), 1.0, False),
                     Instance((2, None, 5.0), 3.0, True))
        d = SurvivalDataset(instances, ("a", "site", "c"))
        np.testing.assert_array_equal(
            d.values, [[1.5, np.nan, np.nan], [np.nan, 3.0, 4.0], [2.0, np.nan, 5.0]])
        assert list(d.raw_columns) == [1]
        assert [i.features for i in d.instances] == [(1.5, "lung", None), (None, 3.0, 4.0),
                                                     (2.0, None, 5.0)]
        part = d.subset([2, 0])
        assert [i.features for i in part.instances] == [(2.0, None, 5.0),
                                                        (1.5, "lung", None)]
        assert list(part.times) == [3.0, 2.0] and list(part.events) == [True, True]
        for arr in (d.times, d.events, d.values, d.raw_columns[1]):
            with pytest.raises(ValueError):
                arr[0] = arr[1]
        with pytest.raises(TypeError):
            d.raw_columns[0] = d.raw_columns[1]

    def test_feature_matrix_is_a_copy(self):
        d = SurvivalDataset.from_arrays(np.ones((2, 1)), [1.0, 2.0], [1, 0])
        x = d.feature_matrix()
        x[0, 0] = 7.0
        assert d.feature_matrix()[0, 0] == 1.0

    def test_feature_matrix_names_a_category_cell(self):
        d = SurvivalDataset((Instance((1.0,), 1.0, True), Instance(("lung",), 2.0, True)),
                            ("site",))
        with pytest.raises(ValueError, match="'site' of instance 1 is 'lung'"):
            d.feature_matrix()

    def test_feature_matrix_rejects_missing(self):
        d = SurvivalDataset((Instance((None,), 1.0, True),), ("a",))
        with pytest.raises(ValueError, match="impute"):
            d.feature_matrix()


class TestSurvivalCurve:
    """A single survival curve is a one-row `CurveBatch`."""

    def test_validation(self):
        with pytest.raises(ValueError):
            CurveBatch([2.0, 1.0], [0.9, 0.5])       # decreasing times
        with pytest.raises(ValueError):
            CurveBatch([1.0, 2.0], [0.5, 0.9])       # increasing probs
        with pytest.raises(ValueError):
            CurveBatch([1.0], [1.5])                 # out of range
        with pytest.raises(ValueError):
            CurveBatch([], [])
        with pytest.raises(ValueError):
            CurveBatch([1.0, 1.0, 2.0], [0.9, 0.5, 0.4], "linear")  # repeated knot

    def test_nan_probabilities_rejected(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            CurveBatch([1.0, 2.0], [np.nan, np.nan])
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            CurveBatch([1.0, 2.0], [[0.9, 0.5], [0.8, np.nan]])

    @pytest.mark.parametrize("knots", [[1.0, np.nan], [np.nan, 2.0], [np.nan]])
    def test_nan_knots_rejected(self, knots):
        with pytest.raises(ValueError, match="non-negative and strictly increasing"):
            CurveBatch(knots, [0.5, 0.2][:len(knots)])

    def test_immutability(self):
        c = CurveBatch([1.0, 2.0], [0.8, 0.4])
        with pytest.raises(ValueError):
            c.knots[0] = 5.0
        with pytest.raises(ValueError):
            c.probs[0, 0] = 0.5
