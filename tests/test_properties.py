"""Property tests for the invariants that hold for every valid input."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit.aft import AftWeibullModel, predict_curve_aft
from isdkit.calibration import dcal_histogram
from isdkit.curves import (
    CurveBatch,
    extend_linear,
    integrate_curve,
    mean_survival,
    survival_at,
)
from isdkit.km import fit_km_arrays
from isdkit.mtlr import MtlrModel, TimeGrid, predict_curve_mtlr


@st.composite
def survival_curves(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    times = draw(
        st.lists(st.floats(0.1, 500.0), min_size=n, max_size=n, unique=True)
    )
    probs = sorted(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)), reverse=True
    )
    interp = draw(st.sampled_from(["step", "linear"]))
    return CurveBatch(sorted(times), probs, interp)


@given(survival_curves(), st.floats(0.0, 600.0))
def test_evaluation_is_monotone_and_bounded(curve, t):
    value = survival_at(curve, t)
    assert 0.0 <= value <= 1.0
    later = survival_at(curve, t + 1.0)
    assert later <= value + 1e-12


@given(survival_curves())
@settings(max_examples=200)
def test_extension_pins_one_and_zero(curve):
    ec = extend_linear(curve, t0_km=1000.0)
    assert survival_at(ec, 0.0) == 1.0 or curve.knots[0] == 0.0
    assert abs(survival_at(ec, ec.zero_time[0])) < 1e-12
    assert mean_survival(ec) >= 0.0


@given(survival_curves(), st.floats(0.0, 500.0), st.floats(0.0, 500.0))
def test_integral_is_additive(curve, a, b):
    ec = extend_linear(curve, t0_km=1000.0)
    lo, hi = min(a, b), max(a, b)
    mid = (lo + hi) / 2
    whole = integrate_curve(ec, lo, hi)
    parts = integrate_curve(ec, lo, mid) + integrate_curve(ec, mid, hi)
    assert abs(whole - parts) < 1e-9


@given(
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(min_value=2, max_value=30),
)
def test_every_instance_contributes_unit_mass(prob, event, bins):
    h = dcal_histogram([prob], [event], bins)
    assert abs(h.counts.sum() - 1.0) < 1e-12
    assert np.all(h.counts >= 0.0)


# ---------------------------------------------------------------------------
# predictions need no clamp to [0, 1]

def assert_needs_no_clamp(batch):
    # CurveBatch refuses a probability outside [0, 1], so building the batch
    # checked the bounds; a clamp would not have moved a bit either
    probs = batch.probs
    assert probs.tobytes() == np.clip(probs, 0.0, 1.0).tobytes()


@given(st.data())
@settings(max_examples=200)
def test_kaplan_meier_curves_need_no_clamp(data):
    n = data.draw(st.integers(1, 12))
    times = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))  # many ties
    cohort = data.draw(st.sampled_from(["mixed", "all dead", "all censored"]))
    if cohort == "mixed":
        events = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        events = [cohort == "all dead"] * n
    assert_needs_no_clamp(fit_km_arrays(np.array(times, float), np.array(events)).curve)


@st.composite
def grids(draw):
    m = draw(st.integers(2, 6))
    points = draw(st.lists(st.floats(0.01, 100.0), min_size=m, max_size=m, unique=True))
    return np.sort(points)


@st.composite
def feature_rows(draw, k):
    n = draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * k, max_size=n * k))
    return np.array(cells).reshape(n, k)


@given(st.data())
@settings(max_examples=200)
def test_mtlr_curves_need_no_clamp(data):
    grid = TimeGrid(data.draw(grids()))
    k = data.draw(st.integers(1, 3))
    size = grid.m * (k + 1)
    theta = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)))
    model = MtlrModel(theta.reshape(grid.m, k + 1), grid, 1.0)
    assert_needs_no_clamp(predict_curve_mtlr(model, data.draw(feature_rows(k))))


@given(st.data())
@settings(max_examples=200)
def test_aft_curves_need_no_clamp(data):
    grid = data.draw(grids())
    if data.draw(st.booleans()):
        grid = np.concatenate(([0.0], grid))  # log 0 = -inf reads S(0) = 1
    k = data.draw(st.integers(1, 3))
    coeffs = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k)))
    model = AftWeibullModel(data.draw(st.floats(-10.0, 10.0)), coeffs,
                            data.draw(st.floats(-20.0, 20.0)), grid)
    assert_needs_no_clamp(predict_curve_aft(model, data.draw(feature_rows(k))))
