"""Property tests for the invariants that hold for every valid input."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit.calibration import dcal_histogram
from isdkit.curves import (
    CurveBatch,
    extend_linear,
    integrate_curve,
    mean_survival,
    survival_at,
)


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
