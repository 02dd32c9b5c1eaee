import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit.core import FitError, Instance, SurvivalDataset
from isdkit.cox import fit_cox, univariate_cox_pvalue
from isdkit.curves import extend_linear, median_survival
from isdkit.km import fit_km
from isdkit.pipeline import (
    MODEL_NAMES,
    CohortConfig,
    ExperimentConfig,
    PreprocessReport,
    _cells,
    _fit_predict,
    _indicators,
    _score_fold,
    fold_indices,
    preprocess,
    run_experiment,
    simulate_cohort,
    simulate_cohort_latent,
)

from conftest import dataset, scalar_cox_pvalue


def cohort_with_features(seed=0, n=200):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    death = 10 * np.exp(-(0.9 * x[:, 0] - 0.7 * x[:, 1])) * rng.weibull(1.5, n)
    censor = rng.exponential(25, n)
    times = np.minimum(death, censor)
    events = death <= censor
    return SurvivalDataset.from_arrays(x, times, events,
                                       feature_names=("a", "b", "noise"))


def split(d, k, fold):
    """(training rows, validation rows) of one of k folds dealt by `fold_indices`."""
    val = fold_indices(d.times, d.events, k) == fold
    return d.subset(~val), d.subset(val)


def mixed_dataset(n=120, seed=0):
    """Numeric + nominal + heavily-missing + constant features."""
    rng = np.random.default_rng(seed)
    site = rng.choice(["lung", "colon", "head"], size=n)
    strong = rng.standard_normal(n)
    mostly_missing = [None if i % 3 else 1.0 * i for i in range(n)]  # 67% missing
    constant = [5.0] * n
    sparse = [None if i % 10 == 0 else float(rng.standard_normal()) for i in range(n)]
    death = 8 * np.exp(-0.9 * strong) * rng.weibull(1.3, n)
    censor = rng.exponential(20, n)
    times = np.minimum(death, censor)
    events = death <= censor
    instances = tuple(
        Instance((strong[i], site[i], mostly_missing[i], constant[i], sparse[i]),
                 times[i], events[i])
        for i in range(n)
    )
    return SurvivalDataset(instances, ("strong", "site", "lab", "flat", "sparse"))


class TestPreprocess:
    def test_missing_and_constant_features_dropped(self):
        d = mixed_dataset()
        train, val = split(d, 2, 0)
        _, _, report = preprocess(train, val)
        assert "lab" in report.dropped_missing
        assert "flat" in report.dropped_missing
        assert "strong" not in report.dropped_missing

    def test_nominal_feature_expands_to_indicators(self):
        d = mixed_dataset()
        train, val = split(d, 2, 0)
        _, _, report = preprocess(train, val)
        assert report.encoded["site"] == ("site=colon", "site=head", "site=lung")
        for name in report.encoded["site"]:
            assert name in report.p_values

    def test_prognostic_feature_survives_filter(self):
        d = mixed_dataset()
        train, val = split(d, 2, 0)
        train2, val2, report = preprocess(train, val)
        assert "strong" in report.selected
        assert train2.feature_names == report.selected
        assert val2.feature_names == report.selected

    def test_outputs_are_standardized_and_complete(self):
        d = mixed_dataset()
        train, val = split(d, 2, 0)
        train2, val2, _ = preprocess(train, val)
        xt = train2.feature_matrix()          # raises if anything missing
        val2.feature_matrix()
        np.testing.assert_allclose(xt.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(xt.std(axis=0), 1.0, atol=1e-12)

    def test_no_surviving_feature_is_an_error(self):
        rng = np.random.default_rng(5)
        d = dataset(rng.exponential(5, 40), np.ones(40),
                    x=rng.standard_normal((40, 1)))
        with pytest.raises(FitError, match="p_cut"):
            preprocess(*split(d, 2, 0), p_cut=1e-9)

    @pytest.mark.parametrize("second, level", [("numeric", "b"), ("nominal", "b=c")])
    def test_indicator_name_clash_is_refused(self, second, level):
        # nominal 'a' with level 'b' beside a numeric column 'a=b', or with
        # level 'b=c' beside a nominal 'a=b' with level 'c' (two 'a=b=c's)
        rng = np.random.default_rng(2)
        n = 60
        other = (rng.standard_normal(n).tolist() if second == "numeric"
                 else rng.choice(["c", "d"], n).tolist())
        instances = tuple(Instance((str(rng.choice([level, "z"])), other[i]),
                                   rng.exponential(5.0), rng.random() < 0.8)
                          for i in range(n))
        d = SurvivalDataset(instances, ("a", "a=b"))
        with pytest.raises(ValueError, match=f"level '{level}' of nominal column 'a' "
                                             f"gets the name 'a={level}'"):
            preprocess(d, d)

    def test_a_validation_fold_without_strings_in_a_nominal_column(self):
        # the fold's column holds numbers and empty cells only, so it has no
        # raw cells: a number is a level never seen in training (all-zero
        # indicators) and an empty cell is missing in every indicator
        rng = np.random.default_rng(3)
        n = 40
        train = SurvivalDataset.from_arrays(
            [[float(rng.standard_normal()), str(rng.choice(["a", "b"]))] for _ in range(n)],
            rng.exponential(5.0, n), rng.random(n) < 0.8, ("num", "site"))
        val = SurvivalDataset.from_arrays(
            [[0.5, 1.0], [0.1, None], [-0.3, 2.5], [1.2, None]],
            [1.0, 2.0, 3.0, 4.0], [True, False, True, True], ("num", "site"))
        assert 1 not in val.raw_columns
        cells = _cells(val, 1)
        assert cells.tolist() == [1.0, None, 2.5, None]
        for column in _indicators(cells, ["a", "b"]):
            np.testing.assert_array_equal(column, [0.0, np.nan, 0.0, np.nan])

        _, val2, report = preprocess(train, val, p_cut=1.0)
        assert report.encoded["site"] == ("site=a", "site=b")
        for name in report.encoded["site"]:
            mean = report.imputation_means[name]
            mu, sd = report.standardization[name]
            expected = (np.array([0.0, mean, 0.0, mean]) - mu) / sd
            column = val2.values[:, val2.feature_names.index(name)]
            np.testing.assert_array_equal(column, expected)

    def test_validation_labels_never_leak(self):
        # perturbing validation labels must change nothing, bitwise
        d = mixed_dataset()
        train, val = split(d, 2, 0)
        train_a, val_a, report_a = preprocess(train, val)

        perturbed = SurvivalDataset(
            tuple(Instance(i.features, i.time * 3 + 1, not i.event)
                  for i in val.instances),
            val.feature_names,
        )
        train_b, val_b, report_b = preprocess(train, perturbed)
        assert report_a == report_b
        np.testing.assert_array_equal(train_a.feature_matrix(),
                                      train_b.feature_matrix())
        np.testing.assert_array_equal(val_a.feature_matrix(),
                                      val_b.feature_matrix())


def reference_preprocess(train, validate, p_cut=0.10):
    """The preprocessing pipeline walking instances cell by cell, with one
    scalar Cox fit per candidate: the reference for `preprocess`."""
    def column(d, j):
        return [inst.features[j] for inst in d.instances]

    def rebuild(d, columns, names):
        return SurvivalDataset(
            tuple(Instance(tuple(col[i] for col in columns), inst.time, inst.event)
                  for i, inst in enumerate(d.instances)),
            tuple(names))

    n_train = len(train)
    keep, dropped = [], []
    for j, name in enumerate(train.feature_names):
        col = column(train, j)
        missing = sum(1 for v in col if v is None)
        present = [v for v in col if v is not None]
        if n_train == 0 or missing / n_train > 0.25 or len(set(map(str, present))) <= 1:
            dropped.append(name)
        else:
            keep.append(j)
    names, train_cols, val_cols, encoded = [], [], [], {}
    for j in keep:
        name = train.feature_names[j]
        col_t, col_v = column(train, j), column(validate, j)
        if not any(isinstance(v, str) for v in col_t if v is not None):
            names.append(name)
            train_cols.append([None if v is None else float(v) for v in col_t])
            val_cols.append([None if v is None or isinstance(v, str) else float(v)
                             for v in col_v])
            continue
        levels = sorted({str(v) for v in col_t if v is not None})
        encoded[name] = tuple(f"{name}={lvl}" for lvl in levels)
        for lvl in levels:
            names.append(f"{name}={lvl}")
            train_cols.append([None if v is None else float(str(v) == lvl) for v in col_t])
            val_cols.append([None if v is None else float(str(v) == lvl) for v in col_v])
    candidate = rebuild(train, train_cols, names)
    p_values = {name: scalar_cox_pvalue(candidate, j) for j, name in enumerate(names)}
    selected = [j for j, name in enumerate(names) if p_values[name] <= p_cut]
    means, scales, out_train, out_val = {}, {}, [], []
    for j in selected:
        col_t = np.array([np.nan if v is None else v for v in train_cols[j]], dtype=float)
        col_v = np.array([np.nan if v is None else v for v in val_cols[j]], dtype=float)
        mean_impute = float(np.nanmean(col_t))
        col_t = np.where(np.isnan(col_t), mean_impute, col_t)
        col_v = np.where(np.isnan(col_v), mean_impute, col_v)
        mu, sd = float(col_t.mean()), float(col_t.std()) or 1.0
        means[names[j]] = mean_impute
        scales[names[j]] = (mu, sd)
        out_train.append((col_t - mu) / sd)
        out_val.append((col_v - mu) / sd)
    selected_names = tuple(names[j] for j in selected)
    return (rebuild(train, out_train, selected_names), rebuild(validate, out_val, selected_names),
            dict(dropped_missing=tuple(dropped), encoded=encoded, selected=selected_names,
                 p_values=p_values, imputation_means=means, standardization=scales))


def with_mixed_column(d, seed):
    """`d` plus a column mixing strings, a number and missing cells."""
    rng = np.random.default_rng(seed)
    grade = rng.choice(np.array(["g1", "g2", 3.0, None], dtype=object), size=len(d),
                       p=[0.4, 0.3, 0.2, 0.1])
    return SurvivalDataset(
        tuple(Instance((*inst.features, g), inst.time, inst.event)
              for inst, g in zip(d.instances, grade)),
        (*d.feature_names, "grade"))


class TestPreprocessEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("fold", [0, 1])
    def test_matches_the_instance_walking_pipeline(self, seed, fold):
        d = with_mixed_column(mixed_dataset(seed=seed), seed)
        train, val = split(d, 2, fold)
        # an unseen validation level, and a string in a numeric column
        cells = [list(inst.features) for inst in val.instances]
        cells[0][1] = "kidney"
        cells[1][5] = "g9"
        cells[2][0] = "n/a"
        val = SurvivalDataset(
            tuple(Instance(c, inst.time, inst.event) for c, inst in zip(cells, val.instances)),
            val.feature_names)

        train_a, val_a, report = preprocess(train, val)
        train_b, val_b, expected = reference_preprocess(train, val)
        assert "grade=3.0" in report.encoded["grade"]
        for field in ("dropped_missing", "encoded", "selected"):
            assert getattr(report, field) == expected[field]
        assert report.p_values.keys() == expected["p_values"].keys()
        for name, p in expected["p_values"].items():
            assert report.p_values[name] == pytest.approx(p, rel=1e-10, abs=0.0)
        for field in ("imputation_means", "standardization"):
            got, want = getattr(report, field), expected[field]
            assert got.keys() == want.keys()
            np.testing.assert_allclose([got[k] for k in want], [want[k] for k in want],
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(train_a.feature_matrix(), train_b.feature_matrix(),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(val_a.feature_matrix(), val_b.feature_matrix(),
                                   rtol=1e-12, atol=1e-12)


def _is_single_valued(present: np.ndarray) -> bool:
    # distinct finite floats have distinct reprs (0.0 and -0.0 too), so
    # comparing bit patterns counts the distinct str(value)s
    bits = present.view(np.uint64)
    return bool(np.all(bits == bits[:1]))


def per_column_preprocess(train, validate, p_cut=0.10):
    """`preprocess` one column at a time, the per-column rule: the bitwise
    reference for its whole-matrix form."""
    n_train = len(train)
    x_t, x_v = train.values, validate.values
    dropped = []
    names, cols_t, cols_v, encoded = [], [], [], {}
    for j, name in enumerate(train.feature_names):
        cells = train.raw_columns.get(j)
        if cells is None:
            present = x_t[~np.isnan(x_t[:, j]), j]
            single = _is_single_valued(present)
        else:
            present = [v for v in cells if v is not None]
            single = len(set(map(str, present))) <= 1
        if n_train == 0 or (n_train - len(present)) / n_train > 0.25 or single:
            dropped.append(name)
        elif cells is None or not any(isinstance(v, str) for v in present):
            names.append(name)
            cols_t.append(x_t[:, j])
            cols_v.append(x_v[:, j])
        else:
            levels = sorted({str(v) for v in present})
            encoded[name] = tuple(f"{name}={lvl}" for lvl in levels)
            names.extend(encoded[name])
            cols_t.extend(_indicators(cells, levels))
            cols_v.extend(_indicators(_cells(validate, j), levels))

    p_values = {}
    if names:
        candidate = train.with_features(np.column_stack(cols_t), names)
        p = univariate_cox_pvalue(candidate, range(len(names)))
        p_values = dict(zip(names, p.tolist()))
    selected_idx = [j for j, name in enumerate(names) if p_values[name] <= p_cut]
    if not selected_idx:
        raise FitError(
            f"no feature passed the univariate Cox filter at p <= {p_cut}; "
            "relax p_cut or inspect the data"
        )

    selected_names = tuple(names[j] for j in selected_idx)
    means, scales = {}, {}
    out_train, out_val = [], []
    for j in selected_idx:
        name = names[j]
        col_t, col_v = np.array(cols_t[j]), np.array(cols_v[j])
        mean_impute = float(np.nanmean(col_t))
        col_t = np.where(np.isnan(col_t), mean_impute, col_t)
        col_v = np.where(np.isnan(col_v), mean_impute, col_v)
        mu = float(col_t.mean())
        sd = float(col_t.std())
        if sd == 0.0:
            sd = 1.0
        means[name] = mean_impute
        scales[name] = (mu, sd)
        out_train.append((col_t - mu) / sd)
        out_val.append((col_v - mu) / sd)

    report = PreprocessReport(
        dropped_missing=tuple(dropped),
        encoded=encoded,
        selected=selected_names,
        p_values=p_values,
        imputation_means=means,
        standardization=scales,
    )
    return (
        train.with_features(np.column_stack(out_train), selected_names),
        validate.with_features(np.column_stack(out_val), selected_names),
        report,
    )


def _numeric_column(rng, kind, n):
    subnormal = 5e-324
    if kind == "normal":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if kind == "binary":
        return rng.integers(0, 2, n).astype(float)
    if kind == "signed zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "subnormal":
        return rng.integers(-4, 5, n) * subnormal
    # constant apart from NaN cells
    return np.full(n, rng.choice([1.5, 0.0, -0.0, subnormal, -2.0]))


@st.composite
def numeric_folds(draw):
    """(train, validate, p_cut) of numeric columns: normal, binary, signed
    zeros, subnormal and constant ones; each column 0%, exactly 25% (when
    the row count is a multiple of 4), just over 25%, any share or 100% of
    its cells missing.  Up to 300 training rows, so that a column's sums
    split into pairwise blocks; the training fold may be empty."""
    n = 4 * draw(st.integers(0, 75)) + draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
    k = draw(st.integers(1, 8))
    n_val = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ("normal", "normal", "binary", "signed zeros", "subnormal", "constant")
    shares = ("none", "none", "quarter", "over a quarter", "any", "all")
    x = np.empty((n + n_val, k))
    for j in range(k):
        x[:, j] = _numeric_column(rng, draw(st.sampled_from(kinds)), n + n_val)
        share = draw(st.sampled_from(shares))
        missing = {"none": 0, "quarter": n // 4, "over a quarter": n // 4 + 1,
                   "any": int(rng.integers(0, n + 1)), "all": n}[share]
        x[rng.permutation(n)[:missing], j] = np.nan
        x[n + np.flatnonzero(rng.random(n_val) < 0.2), j] = np.nan
    times = rng.exponential(5.0, n + n_val)
    if draw(st.booleans()):
        times = np.ceil(times)
    events = rng.random(n + n_val) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    d = SurvivalDataset.from_arrays(np.where(np.isnan(x), None, x).tolist(), times, events)
    return (d.subset(np.arange(n)), d.subset(np.arange(n, n + n_val)),
            draw(st.sampled_from([0.1, 1.0, 1.0])))


def _outcome(pipeline, train, validate, p_cut):
    """Every bit that `pipeline` gives back, or the FitError it raises."""
    try:
        out_t, out_v, report = pipeline(train, validate, p_cut)
    except FitError as exc:
        return str(exc)
    return ([(d.feature_names, d.values.shape, d.values.tobytes()) for d in (out_t, out_v)],
            repr(report))


class TestPreprocessWholeMatrix:
    @given(numeric_folds())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_column_rule_bit_for_bit(self, fold):
        assert _outcome(preprocess, *fold) == _outcome(per_column_preprocess, *fold)

    def test_an_empty_training_fold_passes_no_feature(self):
        d = cohort_with_features()
        with pytest.raises(FitError, match="no feature passed"):
            preprocess(d.subset([]), d)

    def test_peak_memory_on_a_cox_wide_training_fold(self):
        name = "isdkit_bench_workloads"
        workloads = sys.modules.get(name)
        if workloads is None:
            spec = importlib.util.spec_from_file_location(
                name, Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
            workloads = importlib.util.module_from_spec(spec)
            # a dataclass resolves its annotations through sys.modules
            sys.modules[name] = workloads
            spec.loader.exec_module(workloads)
        train, val = split(workloads.build_cox_wide(2000, 0, None), 5, 0)
        assert train.values.shape == (1599, 102)
        tracemalloc.start()
        try:
            preprocess(train, val)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 2.8 matrices: the filter's candidate copy, and its column
        # blocks with their trial buffers; a second copy of the candidates
        # would add one
        assert peak < 3.0 * train.values.nbytes


class TestMakeFolds:
    """Dealing by `fold_indices`, the one fold splitter (`make_folds` and
    `FoldAssignment`, which wrapped it, are gone)."""

    def test_round_robin_dealing(self):
        d = dataset(np.arange(1.0, 11.0), np.ones(10))
        fold_of = fold_indices(d.times, d.events, 5)
        # times i and i+5 share a fold after sorting
        for j in range(5):
            times = sorted(d.times[fold_of == j])
            assert times == [j + 1.0, j + 6.0]

    def test_censoring_balance(self):
        rng = np.random.default_rng(0)
        events = rng.random(100) < 0.6
        d = dataset(rng.uniform(1, 50, 100), events)
        fold_of = fold_indices(d.times, d.events, 5)
        censored_per_fold = [np.sum(~d.events[fold_of == j]) for j in range(5)]
        assert max(censored_per_fold) - min(censored_per_fold) <= 1

    def test_deterministic(self):
        d = dataset(np.arange(1.0, 21.0), np.tile([1, 0], 10))
        a = fold_indices(d.times, d.events, 4)
        b = fold_indices(d.times, d.events, 4)
        np.testing.assert_array_equal(a, b)

    def test_too_few_instances_rejected(self):
        with pytest.raises(ValueError, match="cannot split 2 instances into 5 folds"):
            run_experiment(dataset([1.0, 2.0], [1, 1]), ExperimentConfig(folds=5))

    @pytest.mark.parametrize("metric", ["ibs", "l1-hinge"])
    def test_a_split_with_an_empty_fold_is_refused_before_any_fit(self, monkeypatch, metric):
        # 2 deaths and 3 censorings are each dealt from fold 0: folds [0 1 0 1 2]
        d = dataset([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 0, 0, 0])
        np.testing.assert_array_equal(fold_indices(d.times, d.events, 5), [0, 1, 0, 1, 2])
        monkeypatch.setattr("isdkit.pipeline._run_fold", None)     # a fit would fail
        with pytest.raises(ValueError, match=r"cannot split 5 instances into 5 folds: "
                                             r"fold\(s\) 3, 4 would be empty; use fewer folds"):
            run_experiment(d, ExperimentConfig(model="km", metrics=(metric,)))
        monkeypatch.undo()
        report = run_experiment(d, ExperimentConfig(model="km", metrics=(metric,), folds=3))
        assert np.isfinite(report.fold_scores[metric]).all()

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("deaths", [0, 1])
    def test_a_fold_whose_training_rows_hold_no_death_is_refused_before_any_fit(
            self, monkeypatch, model, deaths):
        rng = np.random.default_rng(5)
        events = np.zeros(40, dtype=bool)
        events[rng.permutation(40)[:deaths]] = True
        d = dataset(rng.exponential(10.0, 40), events, x=rng.standard_normal((40, 3)))
        # fold_indices deals a single death to fold 0, whose training rows then hold none
        assert (fold_indices(d.times, d.events, 5)[events] == 0).all()
        monkeypatch.setattr("isdkit.pipeline._run_fold", None)     # a fit would fail
        folds = "fold 0" if deaths else "folds 0, 1, 2, 3, 4"
        with pytest.raises(ValueError, match=rf"^{folds}: no death among the training rows "
                                             rf"\({deaths} in the whole dataset\)"):
            run_experiment(d, ExperimentConfig(model=model))

    def test_fold_indices_cover_everything(self):
        # 9 uncensored and 4 censored, each group dealt from fold 0
        fold_of = fold_indices(np.arange(13.0), np.tile([1, 0, 1], 5)[:13], 5)
        events = np.tile([1, 0, 1], 5)[:13].astype(bool)
        unc = np.bincount(fold_of[events], minlength=5)
        cen = np.bincount(fold_of[~events], minlength=5)
        assert unc.max() - unc.min() <= 1
        assert cen.max() - cen.min() <= 1
        assert np.bincount(fold_of).sum() == 13


class TestRunExperiment:
    def test_km_concordance_is_exactly_half(self):
        d = cohort_with_features()
        report = run_experiment(d, ExperimentConfig(model="km", folds=3))
        assert report.means["concordance"] == 0.5
        assert report.sds["concordance"] == 0.0

    def test_km_dcal_near_one_on_iid_data(self):
        d = simulate_cohort(
            CohortConfig(family="weibull-ph", n_features=1, baseline_scale=10.0,
                         baseline_shape=1.5, censor_rate=0.04),
            800, seed=3,
        )
        report = run_experiment(d, ExperimentConfig(model="km"))
        assert report.dcal.p_value > 0.5

    def test_cox_beats_chance_on_ph_data(self):
        d = cohort_with_features()
        report = run_experiment(d, ExperimentConfig(model="cox-kp", folds=3))
        assert report.means["concordance"] > 0.6

    def test_mtlr_beats_chance_on_ph_data(self):
        d = cohort_with_features()
        report = run_experiment(
            d, ExperimentConfig(model="mtlr", folds=3, mtlr_c_grid=(1.0,))
        )
        assert report.means["concordance"] > 0.6

    def test_fold_means_recompute_exactly(self):
        d = cohort_with_features(n=150)
        report = run_experiment(d, ExperimentConfig(model="aft-weibull", folds=3))
        for metric, values in report.fold_scores.items():
            assert report.means[metric] == float(np.mean(values))
            assert report.sds[metric] == float(np.std(values))
        assert len(report.one_calibration) == 5
        assert report.tau == d.times.max()

    def test_pooled_dcal_equals_flat_recomputation(self):
        from isdkit.calibration import dcal_histogram
        from isdkit.curves import survival_at

        d = cohort_with_features(n=150)
        report = run_experiment(d, ExperimentConfig(model="cox-kp", folds=3))
        probs, events = [], []
        for indices, curves in report.fold_predictions:
            assert curves.rows == indices.size
            for i, idx in enumerate(indices):
                inst = d.instances[idx]
                probs.append(survival_at(curves.subset([i]), inst.time))
                events.append(inst.event)
        flat = dcal_histogram(np.array(probs), np.array(events), 10)
        np.testing.assert_allclose(report.dcal_histogram.counts, flat.counts,
                                   atol=1e-12)

    def test_fold_predictions_cover_every_patient_once(self):
        d = cohort_with_features(n=150)
        report = run_experiment(d, ExperimentConfig(model="km", folds=3))
        indices = np.concatenate([idx for idx, _ in report.fold_predictions])
        np.testing.assert_array_equal(np.sort(indices), np.arange(len(d)))
        for _, curves in report.fold_predictions:
            assert curves.rows == 1  # KM's shared row stays shared

    def test_validation_fold_without_deaths_gets_the_metric_error(self):
        d = cohort_with_features(n=150)
        train = d.subset(np.arange(100))
        val = d.subset(np.flatnonzero(~d.events[100:]) + 100)
        train_km = extend_linear(fit_km(train).curve)
        curves = extend_linear(fit_cox(train).predict_curves(val), train_km.zero_time[0])
        medians = median_survival(curves, train_km.zero_time[0])
        assert curves.rows == medians.size == len(val) > 1 and not val.events.any()
        with pytest.raises(ValueError, match="uncensored L1-loss needs at least one instance"):
            _score_fold(val, curves, medians, ("l1-uncensored",), float(d.times.max()),
                        train, train_km)

    def test_jobs_parallelism_matches_sequential(self):
        d = cohort_with_features(n=150)
        seq = run_experiment(d, ExperimentConfig(model="cox-kp", folds=3, jobs=1))
        par = run_experiment(d, ExperimentConfig(model="cox-kp", folds=3, jobs=3))
        assert seq.fold_scores == par.fold_scores

    def test_fit_failure_carries_fold_index(self):
        # a constant feature makes the filter drop everything
        d = dataset(np.arange(1.0, 31.0), np.ones(30), x=np.ones((30, 1)))
        with pytest.raises(RuntimeError, match="fold 0"):
            run_experiment(d, ExperimentConfig(model="cox-kp", folds=3))

    def test_a_wrapped_fold_error_names_its_class(self, monkeypatch):
        def overflow(train):
            raise FloatingPointError("overflow encountered in exp")

        monkeypatch.setattr("isdkit.pipeline.fit_cox", overflow)
        with pytest.raises(RuntimeError, match=r"^fold 0: FloatingPointError: overflow "
                                               r"encountered in exp$") as caught:
            run_experiment(cohort_with_features(n=60), ExperimentConfig(model="cox-kp", folds=3))
        assert isinstance(caught.value.__cause__, FloatingPointError)

    def test_a_fold_value_error_carries_its_fold_index(self, monkeypatch):
        calls = []

        def refuse_the_second_fold(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ValueError("no scores for this fold")
            return _score_fold(*args)

        monkeypatch.setattr("isdkit.pipeline._score_fold", refuse_the_second_fold)
        with pytest.raises(ValueError, match=r"^fold 1: no scores for this fold$") as caught:
            run_experiment(cohort_with_features(n=60), ExperimentConfig(model="km", folds=3))
        assert type(caught.value) is ValueError
        assert isinstance(caught.value.__cause__, ValueError)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model="deep-net")
        with pytest.raises(ValueError):
            ExperimentConfig(percentiles=(0, 50))
        with pytest.raises(ValueError):
            ExperimentConfig(metrics=("concordance", "auc"))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"at least 1 job, got {jobs}"):
            ExperimentConfig(jobs=jobs)

    @pytest.mark.parametrize("bins", [1, 0])
    def test_bins_below_two_rejected(self, bins):
        with pytest.raises(ValueError, match=f"at least 2 calibration bins, got {bins}"):
            ExperimentConfig(bins=bins)

    @pytest.mark.parametrize("folds", [1, 0])
    def test_folds_below_two_rejected(self, folds):
        with pytest.raises(ValueError, match=f"at least 2 folds, got {folds}"):
            ExperimentConfig(folds=folds)


class TestOnePredictionPath:
    """`predict_curves` on a one-patient dataset is that patient's row of
    `predict_curves` on the whole dataset, for every model."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predict_curve_is_a_row_of_predict_curves(self, name):
        raw = cohort_with_features(n=60)
        model, _, _ = _fit_predict(name, raw, raw, (1.0,))
        # the rows the model was fitted on, as it reads them
        d = raw if name == "km" else preprocess(raw, raw)[0]
        batch = model.predict_curves(d)
        for i, inst in enumerate(d.instances):
            curve, row = model.predict_curves(d.subset([i])), batch.subset([i])
            if name == "km":
                np.testing.assert_array_equal(curve.probs, model.predict_curve(inst).probs)
            assert curve.interp == row.interp
            np.testing.assert_array_equal(curve.knots, row.knots)
            # BLAS may round a row of a matrix product differently once other
            # rows sit beside it, so across batch sizes the values agree to 1e-12
            np.testing.assert_allclose(curve.probs, row.probs, rtol=1e-12, atol=0)
            if name == "km":
                np.testing.assert_array_equal(curve.probs, row.probs)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predicted_curves_start_at_zero_one(self, name):
        raw = cohort_with_features(n=60)
        model, _, _ = _fit_predict(name, raw, raw, (1.0,))
        batch = model.predict_curves(raw if name == "km" else preprocess(raw, raw)[0])
        assert batch.knots[0] == 0.0
        assert np.all(batch.probs[:, 0] == 1.0)


def rescaled(d, a):
    return SurvivalDataset.from_arrays(d.values, a * d.times, d.events, d.feature_names)


class TestTimeRescaling:
    """Multiplying every time by a > 0 rescales the curves along the time
    axis and nothing else: rank and probability metrics and the
    calibration p-values stay, time-valued L1 losses scale by a."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("a", [0.5, 2.0, 1024.0, 1 / 1024])
    def test_fold_metrics_and_dcal(self, model, a):
        d = cohort_with_features(n=150)
        cfg = ExperimentConfig(model=model, folds=3, mtlr_c_grid=(1.0,))
        base, scaled = run_experiment(d, cfg), run_experiment(rescaled(d, a), cfg)
        factors = {"concordance": 1.0, "ibs": 1.0, "l1-log-uncensored": 1.0,
                   "l1-log-margin": 1.0, "l1-uncensored": a, "l1-hinge": a,
                   "l1-margin": a}
        assert scaled.fold_scores.keys() == base.fold_scores.keys() == factors.keys()
        for metric, factor in factors.items():
            np.testing.assert_allclose(
                scaled.fold_scores[metric], factor * np.asarray(base.fold_scores[metric]),
                rtol=1e-12, atol=0, err_msg=metric,
            )
        np.testing.assert_allclose(scaled.dcal_histogram.counts, base.dcal_histogram.counts,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(scaled.dcal.p_value, base.dcal.p_value, rtol=1e-12, atol=0)
        assert len(scaled.one_calibration) == len(base.one_calibration) == 5
        for s, b in zip(scaled.one_calibration, base.one_calibration):
            assert s.error == b.error
            if b.result is not None:
                np.testing.assert_allclose(s.result.p_value, b.result.p_value,
                                           rtol=1e-12, atol=0, err_msg=s.percentile)


class TestSimulateCohort:
    def test_censor_rate_lands_in_band(self):
        config = CohortConfig(family="weibull-ph", n_features=5,
                              beta=(0.5, -0.5, 0.3), baseline_scale=10.0,
                              baseline_shape=1.5, censor_rate=0.055)
        d = simulate_cohort(config, 2000, seed=11)
        frac = 1 - d.events.mean()
        assert 0.30 <= frac <= 0.50

    def test_zero_censor_rate_gives_all_events(self):
        d = simulate_cohort(CohortConfig(censor_rate=0.0), 100, seed=0)
        assert d.events.all()

    def test_seed_determinism(self):
        config = CohortConfig(censor_rate=0.05)
        a = simulate_cohort(config, 50, seed=9)
        b = simulate_cohort(config, 50, seed=9)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.feature_matrix(), b.feature_matrix())

    def test_latent_truth_consistency(self):
        cohort = simulate_cohort_latent(CohortConfig(censor_rate=0.08), 200, seed=2)
        observed = np.minimum(cohort.latent_death, cohort.latent_censor)
        np.testing.assert_allclose(cohort.dataset.times, observed)
        np.testing.assert_array_equal(
            cohort.dataset.events, cohort.latent_death <= cohort.latent_censor
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CohortConfig(family="lognormal")
        with pytest.raises(ValueError):
            CohortConfig(baseline_scale=-1.0)
        with pytest.raises(ValueError):
            simulate_cohort(CohortConfig(), 0, seed=1)
