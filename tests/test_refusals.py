"""Each refusal names its cause: one case per check that the other tests
do not reach, with the message it must give."""

from dataclasses import replace

import numpy as np
import pytest

from isdkit.aft import fit_aft_weibull
from isdkit.calibration import (
    DCalHistogram,
    brier_censored,
    brier_uncensored,
    dcal_histogram,
    dcal_test,
    integrated_brier,
    one_calibration_hl,
)
from isdkit.core import FitError, SurvivalDataset, load_csv
from isdkit.curves import CurveBatch, extend_linear, median_survival, survival_at
from isdkit.discrimination import MarginWeights, best_guess, l1_log, l1_margin
from isdkit.km import fit_censoring_km, fit_km
from isdkit.mtlr import TimeGrid, make_grid, mtlr_loglik_grad
from isdkit.pipeline import CohortConfig

from conftest import dataset, linear_curve, step_curve

DEAD = dataset([1.0, 2.0, 3.0], [True, True, True])
MIXED = dataset([1.0, 2.0, 3.0], [True, False, True])


# ---------------------------------------------------------------------------
# curves

def test_an_unknown_interpolation_is_refused():
    with pytest.raises(ValueError, match="unknown interpolation kind 'cubic'"):
        CurveBatch([1.0, 2.0], [0.8, 0.5], "cubic")


@pytest.mark.parametrize("name", ["zero_time", "fallback"])
def test_extension_fields_need_one_entry_per_row(name):
    with pytest.raises(ValueError, match=f"{name} needs one entry per row"):
        CurveBatch([1.0, 2.0], [[0.8, 0.5], [0.7, 0.4]], "step", **{name: [1.0]})


def test_query_rows_must_be_one_or_the_batch_rows():
    batch = step_curve([1.0, 2.0], [[0.8, 0.5], [0.7, 0.4], [0.6, 0.3]])
    with pytest.raises(ValueError, match="2 query rows for a batch of 3 curves"):
        survival_at(batch, np.zeros((2, 1)))


def test_areas_and_medians_need_an_extended_batch():
    batch = linear_curve([1.0, 2.0], [0.8, 0.5])
    with pytest.raises(ValueError, match="areas need extended curves"):
        batch.area_from(0.0)
    with pytest.raises(ValueError, match="medians need extended curves"):
        median_survival(batch, 10.0)


# ---------------------------------------------------------------------------
# calibration

def test_one_probability_per_instance():
    with pytest.raises(ValueError, match="2 probabilities for 3 instances"):
        brier_uncensored(DEAD, [0.5, 0.4], 2.0)


@pytest.mark.parametrize("b, message", [(1, "need at least 2 bins, got 1"),
                                        (4, "cannot split 3 instances into 4 bins")])
def test_calibration_bins_need_two_and_a_member_each(b, message):
    with pytest.raises(ValueError, match=message):
        one_calibration_hl(DEAD, [0.9, 0.5, 0.1], 2.0, b)


def test_uncensored_brier_refuses_censored_data():
    with pytest.raises(ValueError, match="uncensored Brier needs fully uncensored data"):
        brier_uncensored(MIXED, [0.9, 0.5, 0.1], 2.0)


def test_censored_brier_refuses_g_zero_at_a_death():
    g_hat = fit_censoring_km(dataset([1.0], [False]))     # G = 0 from time 1
    with pytest.raises(ValueError, match="G is 0 at an observed death time"):
        brier_censored(dataset([2.0], [True]), [0.5], 3.0, g_hat)


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_ibs_needs_a_positive_horizon(tau):
    curves = extend_linear(step_curve([1.0], [0.5]))
    with pytest.raises(ValueError, match=f"horizon tau must be positive, got {tau}"):
        integrated_brier(DEAD, curves, tau, fit_censoring_km(DEAD))


def test_ibs_needs_one_curve_or_one_per_instance():
    curves = extend_linear(step_curve([1.0], [[0.5], [0.4]]))
    with pytest.raises(ValueError, match="2 curves for 3 instances"):
        integrated_brier(DEAD, curves, 2.0, fit_censoring_km(DEAD))


def test_ibs_refuses_g_zero_from_time_zero():
    curves = extend_linear(step_curve([1.0], [0.5]))
    g_hat = fit_censoring_km(dataset([0.0, 0.0], [False, False]))
    with pytest.raises(ValueError, match="G is 0 from time 0; the IBS is undefined"):
        integrated_brier(DEAD, curves, 2.0, g_hat)


def test_ibs_refuses_g_zero_at_a_death_inside_the_window():
    # an extended censoring curve reaches 0 at its zero time (4) with no
    # knot at 0, so tau is not truncated and the death at 5 reads G = 0
    g_hat = fit_censoring_km(dataset([1.0, 2.0, 3.0], [True, False, True]))
    g_hat = replace(g_hat, curve=extend_linear(g_hat.curve))
    assert g_hat.curve.zero_time[0] == 4.0
    curves = extend_linear(step_curve([1.0], [0.5]))
    with pytest.raises(ValueError, match="G is 0 at an observed death inside the "
                                         "integration window"):
        integrated_brier(dataset([5.0], [True]), curves, 10.0, g_hat)


@pytest.mark.parametrize("probs, events, b, message", [
    ([0.5, 0.4], [True], 10, "probabilities and event flags must align"),
    ([0.5], [True], 1, "need at least 2 bins, got 1"),
    ([0.5, 1.5], [True, False], 10, r"survival probabilities must lie in \[0, 1\]"),
])
def test_dcal_histogram_refusals(probs, events, b, message):
    with pytest.raises(ValueError, match=message):
        dcal_histogram(probs, events, b)


def test_dcal_test_refuses_an_empty_histogram():
    empty = DCalHistogram(np.arange(11) / 10, np.zeros(10), 0.0)
    with pytest.raises(ValueError, match="empty histogram; D-calibration is undefined"):
        dcal_test(empty)
    with pytest.raises(ValueError, match="empty histogram"):
        dcal_test(dcal_histogram([], []))


# ---------------------------------------------------------------------------
# discrimination

def km_curve():
    return extend_linear(fit_km(MIXED).curve)


def test_best_guess_refuses_a_negative_censor_time():
    with pytest.raises(ValueError, match="censor times must be non-negative, got -1.0"):
        best_guess(-1.0, km_curve())


def test_margin_weights_need_one_per_censored_instance():
    weights = MarginWeights(np.array([0.5, 0.5]), np.array([3.0, 3.0]))
    with pytest.raises(ValueError, match="2 margin weights for 1 censored instances"):
        l1_margin(MIXED, [1.0, 2.0, 3.0], weights)


def test_margin_loss_refuses_zero_total_weight():
    censored = dataset([1.0, 2.0], [False, False])
    weights = MarginWeights(np.zeros(2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="margin loss has zero total weight"):
        l1_margin(censored, [1.0, 2.0], weights)


@pytest.mark.parametrize("variant, message", [
    ("uncensored", "log-L1 'uncensored' needs all-uncensored data"),
    ("cubic", "unknown log-L1 variant 'cubic'"),
])
def test_l1_log_refusals(variant, message):
    with pytest.raises(ValueError, match=message):
        l1_log(MIXED, [1.0, 2.0, 3.0], variant, eta=0.5)


# ---------------------------------------------------------------------------
# mtlr

@pytest.mark.parametrize("points, message", [
    ([1.0], "a time grid needs at least 2 points"),
    ([2.0, 1.0], "grid points must be positive and strictly increasing"),
    ([0.0, 1.0], "grid points must be positive and strictly increasing"),
])
def test_time_grid_refusals(points, message):
    with pytest.raises(ValueError, match=message):
        TimeGrid(points)


@pytest.mark.parametrize("times, message", [
    ([], "cannot build a grid from an empty dataset"),
    ([0.0, 0.0], "all observed times are zero; no usable grid"),
])
def test_make_grid_refusals(times, message):
    with pytest.raises(ValueError, match=message):
        make_grid(dataset(times, [True] * len(times)), 3)


def test_mtlr_objective_refuses_theta_of_the_wrong_shape():
    grid = TimeGrid([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"theta has shape \(3, 1\), expected \(3, 2\)"):
        mtlr_loglik_grad(np.zeros((3, 1)), DEAD, grid, 1.0)


# ---------------------------------------------------------------------------
# core

def test_with_features_refuses_the_wrong_shape():
    with pytest.raises(ValueError, match=r"feature matrix of shape \(2, 1\), "
                                         r"expected \(3, 1\)"):
        DEAD.with_features(np.zeros((2, 1)), ["a"])


def test_with_features_refuses_an_infinite_cell():
    with pytest.raises(ValueError, match="feature matrix holds an infinite value"):
        DEAD.with_features([[0.0], [np.inf], [1.0]], ["a"])


def test_from_arrays_refuses_lengths_that_disagree():
    with pytest.raises(ValueError, match=r"features \(3, 1\), times \(2,\) and events "
                                         r"\(2,\) do not describe 1 features of the "
                                         "same patients"):
        SurvivalDataset.from_arrays(np.zeros((3, 1)), [1.0, 2.0], [True, False])


def test_load_csv_refuses_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file, expected a header row"):
        load_csv(path, "time", "event")


# ---------------------------------------------------------------------------
# pipeline and aft

@pytest.mark.parametrize("fields, message", [
    ({"censor_rate": -0.1}, "censor rate must be non-negative"),
    ({"n_features": 1, "beta": (0.5, 0.5)}, "more coefficients than features"),
    ({"n_features": 1, "shape_beta": (0.5, 0.5)}, "more coefficients than features"),
])
def test_cohort_config_refusals(fields, message):
    with pytest.raises(ValueError, match=message):
        CohortConfig(**fields)


def test_aft_refuses_all_times_zero():
    with pytest.raises(FitError, match="all observed times are zero; Weibull AFT is undefined"):
        fit_aft_weibull(dataset([0.0, 0.0], [True, False]), TimeGrid([1.0, 2.0]))
