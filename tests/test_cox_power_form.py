"""A Cox-KP batch in hazard form (one log H0 row plus one linear
predictor eta per patient) against the same curves stored as a full
probability matrix.

Every query must give the same bits on both forms, and a fold in hazard
form must hold no probability per patient and knot at once."""

import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isdkit import cli, cox
from isdkit.calibration import integrated_brier
from isdkit.cox import fit_cox, predict_curve_cox
from isdkit.curves import (
    ROW_BLOCK,
    CurveBatch,
    extend_linear,
    mean_survival,
    median_survival,
    survival_at,
)
from isdkit.km import fit_censoring_km, fit_km

from conftest import dataset


def bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


# ---------------------------------------------------------------------------
# strategies

# x . beta: 0, values far past the overflow of exp(eta) (709) and between
etas = st.one_of(st.sampled_from([0.0, 838.0, -838.0]), st.floats(-750.0, 750.0),
                 st.floats(-3.0, 3.0, allow_subnormal=False))
log_hazards = st.floats(-40.0, 10.0, allow_subnormal=False)


@st.composite
def baselines(draw):
    """Knots, possibly from 0, and a non-decreasing log H0 row: with ties
    (flat stretches), starting at -inf (H0 = 0) or ending at +inf (the
    curves reach 0 at one of its knots)."""
    m = draw(st.integers(1, 8))
    knots = sorted(draw(st.lists(st.floats(0.1, 50.0, allow_subnormal=False),
                                 min_size=m, max_size=m, unique=True)))
    if draw(st.booleans()):
        knots[0] = 0.0
    values = draw(st.lists(log_hazards, min_size=1, max_size=m))
    row = np.sort(np.resize(values, m))                # repeats give ties
    if draw(st.booleans()):
        row[:draw(st.integers(1, m))] = -np.inf
    if draw(st.booleans()):
        row[draw(st.integers(0, m - 1)):] = np.inf
    return np.array(knots), row


def full_matrix(row, eta):
    """The probabilities of every row and knot, by plain broadcasting."""
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(eta[:, None] + row[None, :]))


@st.composite
def both_forms(draw):
    """(hazard form, matrix form, t0_km) of the same extended curves."""
    knots, row = draw(baselines())
    # one row, a few, and more than one block of rows
    n = draw(st.sampled_from([1, 2, 5, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7]))
    eta = np.array(draw(st.lists(etas, min_size=n, max_size=n)))
    interp = draw(st.sampled_from(["step", "linear"]))
    t0_km = draw(st.floats(51.0, 200.0))
    hazard = CurveBatch(knots, row, interp, eta=eta)
    matrix = CurveBatch(knots, full_matrix(row, eta), interp)
    return extend_linear(hazard, t0_km), extend_linear(matrix, t0_km), t0_km


def written_curves(batch, indices):
    with tempfile.TemporaryDirectory() as tmp:
        cli._write_curves(Path(tmp), [(indices, batch)])
        return {p.name: p.read_bytes() for p in sorted(Path(tmp, "curves").iterdir())}


# ---------------------------------------------------------------------------
# the same bits on both forms

@given(both_forms(), st.data())
@settings(max_examples=100, deadline=None)
def test_every_query_gives_the_bits_of_the_full_matrix(drawn, data):
    hazard, matrix, t0_km = drawn
    n = hazard.rows
    assert hazard.rows == matrix.rows
    assert bits(hazard.probs) == bits(matrix.probs)
    assert bits(hazard.zero_time) == bits(matrix.zero_time)
    assert hazard.fallback.tobytes() == matrix.fallback.tobytes()
    assert bits(median_survival(hazard, t0_km)) == bits(median_survival(matrix, t0_km))
    assert bits(mean_survival(hazard)) == bits(mean_survival(matrix))

    times = st.floats(0.0, 250.0, allow_subnormal=False)
    # queries on the knots and zero times (ties with a knot) and between them
    grid = np.unique(np.concatenate((hazard.knots, hazard.zero_time[np.isfinite(hazard.zero_time)],
                                     data.draw(st.lists(times, min_size=1, max_size=6)))))
    scalar = data.draw(st.sampled_from(grid.tolist()))
    own = data.draw(st.lists(st.sampled_from(grid.tolist()), min_size=n, max_size=n))
    for t in (scalar, np.array(own), grid[None, :]):
        assert bits(survival_at(hazard, t)) == bits(survival_at(matrix, t))
    for c in (scalar, np.array(own)):
        assert bits(hazard.area_from(c)) == bits(matrix.area_from(c))

    events = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    val = dataset(own, events)
    # G from a training cohort, positive up to its first time
    g_times = data.draw(st.lists(st.floats(0.5, 250.0), min_size=1, max_size=8))
    g_hat = fit_censoring_km(dataset(g_times, data.draw(
        st.lists(st.booleans(), min_size=len(g_times), max_size=len(g_times)))))
    tau = data.draw(st.floats(1.0, 80.0))
    assert bits(integrated_brier(val, hazard, tau, g_hat)) == \
        bits(integrated_brier(val, matrix, tau, g_hat))

    indices = np.arange(n) * 3
    assert written_curves(hazard, indices) == written_curves(matrix, indices)

    one = data.draw(st.integers(0, n - 1))
    many = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2 * n))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    for idx in ([one], many, mask):
        a, b = hazard.subset(idx), matrix.subset(idx)
        assert a.rows == b.rows
        assert bits(a.probs) == bits(b.probs)
        assert bits(a.zero_time) == bits(b.zero_time)
        assert bits(survival_at(a, grid[None, :])) == bits(survival_at(b, grid[None, :]))
        assert bits(median_survival(a, t0_km)) == bits(median_survival(b, t0_km))


def test_a_fitted_fold_with_tied_death_times_gives_the_bits_of_the_full_matrix():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((300, 2))
    # whole-day times: many deaths tie, and the last time is a death
    times = np.ceil(10.0 * np.exp(-(x @ [0.8, -0.5])) * rng.weibull(1.5, 300))
    events = rng.random(300) < 0.7
    events[np.argmax(times)] = True
    train, val = dataset(times[:200], events[:200], x[:200]), \
        dataset(times[200:], events[200:], x[200:])
    model = fit_cox(train)
    assert np.unique(train.times[train.events]).size < train.events.sum()   # ties
    t0_km = float(extend_linear(fit_km(train).curve).zero_time[0])
    eta = val.feature_matrix() @ model.beta
    hazard = extend_linear(predict_curve_cox(model, val.feature_matrix()), t0_km)
    matrix = extend_linear(CurveBatch(model.baseline.knots,
                                      full_matrix(model.baseline.base[0], eta)), t0_km)
    g_hat, tau = fit_censoring_km(train), float(times.max())
    assert bits(hazard.probs) == bits(matrix.probs)
    assert bits(hazard.zero_time) == bits(matrix.zero_time)
    assert bits(median_survival(hazard, t0_km)) == bits(median_survival(matrix, t0_km))
    grid = np.array([0.0, 1.0, 3.0, 7.0, 30.0])[None, :]
    assert bits(survival_at(hazard, grid)) == bits(survival_at(matrix, grid))
    assert bits(survival_at(hazard, val.times)) == bits(survival_at(matrix, val.times))
    assert bits(integrated_brier(val, hazard, tau, g_hat)) == \
        bits(integrated_brier(val, matrix, tau, g_hat))


def test_a_nan_feature_cell_is_refused_naming_its_row():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 2))
    model = fit_cox(dataset(rng.exponential(10.0, 40), rng.random(40) < 0.8, x))
    x[[6, 11], [1, 0]] = np.nan
    with pytest.raises(ValueError, match=r"^row 6: eta nan is not a finite number"):
        predict_curve_cox(model, x)
    with pytest.raises(ValueError, match=r"^row 0: eta nan"):
        predict_curve_cox(model, x[6])


def test_an_overflowing_exponent_reads_zero_below_the_first_knot_under_one():
    # x . beta = 838 overflows exp(x . beta) past 1.8e308: S = 0 wherever S0 < 1
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 2))
    model = fit_cox(dataset(rng.exponential(10.0, 40), rng.random(40) < 0.8, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = predict_curve_cox(model, [838.0 / model.beta[0], 0.0]).probs[0]
    below = model.baseline.probs[0] < 1.0
    assert below.any() and not below.all()
    assert probs[below].tolist() == [0.0] * below.sum()
    assert probs[~below].tolist() == [1.0] * (~below).sum()


def test_a_matrix_base_and_a_bad_log_hazard_row_are_refused():
    with pytest.raises(ValueError, match="one log H0 row"):
        CurveBatch([1.0, 2.0], [[-2.0, 0.5], [-1.0, 0.4]], eta=[0.5, 1.0])
    for row in ([0.5, -2.0], [np.nan], [-np.inf, np.nan], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="non-decreasing numbers"):
            CurveBatch(np.arange(1.0, len(row) + 1), row, eta=[0.0])
    with pytest.raises(ValueError, match=r"^row 1: eta inf is not a finite number"):
        CurveBatch([1.0, 2.0], [-2.0, 0.5], eta=[0.5, np.inf])
    # every end is valid: H0 = 0 and H0 = inf read 1 and 0
    batch = CurveBatch([1.0, 2.0], [-np.inf, np.inf], eta=[-750.0, 750.0])
    assert batch.probs.tolist() == [[1.0, 1.0, 0.0]] * 2


# ---------------------------------------------------------------------------
# memory

def _cohort(rng, n):
    x = rng.standard_normal((n, 2))
    death = 10.0 * np.exp(-(x @ [0.7, -0.5]) / 1.5) * rng.weibull(1.5, n)
    censor = rng.exponential(200.0, n)
    return dataset(np.minimum(death, censor), death <= censor, x)


def test_a_cox_fold_holds_one_row_block_and_linear_vectors():
    rng = np.random.default_rng(1)
    train, val = _cohort(rng, 9000), _cohort(rng, 10_000)
    model, g_hat = fit_cox(train), fit_censoring_km(train)
    t0_km = float(extend_linear(fit_km(train).curve).zero_time[0])
    x, tau = val.feature_matrix(), float(val.times.max())
    n, m = len(val), model.baseline.knots.size
    assert m >= 8000
    # the IBS tables of a block span the curve knots and those of G
    block = ROW_BLOCK * (m + g_hat.curve.knots.size) * 8

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        curves = extend_linear(predict_curve_cox(model, x), t0_km)
        median_survival(curves, t0_km)
        survival_at(curves, np.array([1.0, 5.0, 10.0])[None, :])
        survival_at(curves, val.times)
        integrated_brier(val, curves, tau, g_hat)
        held, peak = (v - start for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # the matrix of the fold alone would be n * m * 8 = 680 MB
    assert peak < 8 * block + 32 * (n + m) * 8
    assert held < 8 * (n + m) * 8


def test_the_univariate_filter_works_in_cache_sized_blocks():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1600, 100))
    x[rng.random(x.shape) < 0.08] = np.nan
    times, events = rng.exponential(10.0, 1600), rng.random(1600) < 0.7
    tracemalloc.start()
    try:
        cox._wald_pvalues(x, range(100), times, events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
