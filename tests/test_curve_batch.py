"""CurveBatch against brute-force per-patient references.

The references below evaluate one curve and one time at a time in plain
Python, the way the scorers did before predictions became one matrix; the
batched scorers must agree with them to 1e-12 (values and medians bit for
bit)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isdkit.calibration import (
    dcal_histogram,
    integrated_brier,
    one_calibration_dn,
)
from isdkit.curves import (
    CurveBatch,
    extend_linear,
    mean_survival,
    median_survival,
    survival_at,
)
from isdkit.cox import fit_cox
from isdkit.discrimination import (
    best_guess,
    concordance,
    default_eta,
    l1_hinge,
    l1_log,
    l1_margin,
    l1_uncensored,
    margin_weights,
)
from isdkit.km import KaplanMeierModel, fit_censoring_km, fit_km, km_at
from isdkit.pipeline import CohortConfig, simulate_cohort

from conftest import dataset

TOL = 1e-12


# ---------------------------------------------------------------------------
# brute-force references: one curve, one time

def ref_survival(curve, t):
    times, probs = curve.knots.tolist(), curve.probs[0].tolist()
    if curve.zero_time is not None and t > times[-1]:
        zero = float(curve.zero_time[0])
        width = zero - times[-1]
        return 0.0 if width <= 0 else max(probs[-1] * (zero - t) / width, 0.0)
    if curve.interp == "step":
        before = [p for x, p in zip(times, probs) if x <= t]
        return before[-1] if before else 1.0
    if times[0] > 0:
        times, probs = [0.0, *times], [1.0, *probs]
    return float(np.interp(t, times, probs))


def ref_zero_time(c, t0_km):
    probs = c.probs[0]
    p_last, t_max = float(probs[-1]), float(c.knots[-1])
    if p_last <= 0.0:
        return float(c.knots[np.argmax(probs <= 0.0)]), False
    if p_last > 1.0 - 1e-10:
        return max(float(t0_km), t_max), True
    return t_max / (1.0 - p_last), False


def ref_median(c, t0_km):
    times, probs, zero = c.knots, c.probs[0], float(c.zero_time[0])
    below = probs <= 0.5
    if np.any(below):
        k = int(np.argmax(below))
        if c.interp == "step":
            median = float(times[k])
        else:
            if k > 0:
                t_prev, p_prev = float(times[k - 1]), float(probs[k - 1])
            elif times[0] > 0:
                t_prev, p_prev = 0.0, 1.0
            else:
                t_prev, p_prev = float(times[0]), float(probs[0])
            p_k, t_k = float(probs[k]), float(times[k])
            if p_prev <= 0.5:
                median = t_prev
            else:
                median = t_prev + (p_prev - 0.5) * (t_k - t_prev) / (p_prev - p_k)
    else:
        p_last, t_max = float(probs[-1]), float(times[-1])
        width = zero - t_max
        median = zero - 0.5 * width / p_last if width > 0 else t_max
    return min(median, float(t0_km))


def ref_integral(c, a, b):
    # midpoint rule between every breakpoint: exact for the linear pieces
    if b <= a:
        return 0.0
    pts = [0.0, *c.knots.tolist(), float(c.zero_time[0])]
    cuts = sorted({a, b, *(p for p in pts if a < p < b)})
    return sum((hi - lo) * ref_survival(c, 0.5 * (lo + hi)) for lo, hi in zip(cuts, cuts[1:]))


def ref_best_guess(c, km):
    s_c = ref_survival(km, c)
    return c if s_c <= 0 else c + ref_integral(km, c, float(km.zero_time[0])) / s_c


def ref_ibs(times, events, curves, tau, g_hat):
    """Per patient and per piece, by the open 3-point Newton-Cotes rule."""
    g_curve = g_hat.curve
    zeros = g_curve.probs[0] <= 0
    tau_eff = min(tau, float(g_curve.knots[np.argmax(zeros)]) if zeros.any() else np.inf)

    def quad(curve, cuts, target):
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            f = [(target - ref_survival(curve, lo + q * (hi - lo))) ** 2 for q in (0.25, 0.5, 0.75)]
            # pieces are cut at every G knot, so G is constant on [lo, hi); a
            # midpoint of a 1-ulp piece could round onto the next knot
            g = ref_survival(g_curve, lo)
            total += (hi - lo) / 3.0 * (2 * f[0] - f[1] + 2 * f[2]) / (g if target else 1.0)
        return total

    total = 0.0
    for t_i, e_i, curve in zip(times, events, curves):
        own = [*curve.knots.tolist(), float(curve.zero_time[0])]
        hi = min(t_i, tau_eff)
        if hi > 0:
            cuts = sorted({0.0, hi, *(x for x in own if 0 < x < hi),
                           *(x for x in g_curve.knots.tolist() if 0 < x < hi)})
            total += quad(curve, cuts, 1.0)
        if e_i and t_i < tau_eff:
            cuts = sorted({t_i, tau_eff, *(x for x in own if t_i < x < tau_eff)})
            total += quad(curve, cuts, 0.0) / ref_survival(g_curve, t_i)
    return total / (len(times) * tau_eff)


def ref_dcal(probs, events, b):
    edges = np.arange(b + 1) / b
    counts = np.zeros(b)
    for s, event in zip(probs, events):
        k = min(max(int(np.searchsorted(edges, s, side="right")) - 1, 0), b - 1)
        if event:
            counts[k] += 1.0
        elif s <= edges[1]:
            counts[0] += 1.0
        else:
            counts[k] += (s - edges[k]) / s
            counts[:k] += (1.0 / b) / s
    return counts


# ---------------------------------------------------------------------------
# strategies

positive = st.floats(0.1, 50.0, allow_subnormal=False)
unit = st.floats(0.0, 1.0, allow_subnormal=False)


@st.composite
def knot_vectors(draw):
    m = draw(st.integers(1, 6))
    knots = sorted(draw(st.lists(positive, min_size=m, max_size=m, unique=True)))
    if draw(st.booleans()):
        knots[0] = 0.0
    return np.array(knots)


@st.composite
def rows_on(draw, m):
    """A probability row: random, flat at 1 (takes the KM fallback), or
    ending at 0."""
    kind = draw(st.sampled_from(["random", "flat", "dead"]))
    if kind == "flat":
        return np.ones(m)
    row = np.sort(draw(st.lists(unit, min_size=m, max_size=m)))[::-1].copy()
    if kind == "dead":
        row[-1] = 0.0
    return row


@st.composite
def batches(draw, rows=None):
    knots = draw(knot_vectors())
    n_rows = rows if rows is not None else draw(st.integers(1, 5))
    probs = np.vstack([draw(rows_on(knots.size)) for _ in range(n_rows)])
    interp = draw(st.sampled_from(["step", "linear"]))
    t0_km = draw(st.floats(51.0, 200.0))
    return extend_linear(CurveBatch(knots, probs, interp), t0_km), t0_km


def per_row(batch):
    return [batch.subset([i]) for i in range(batch.rows)]


@st.composite
def cohorts(draw, n):
    times = draw(st.lists(st.floats(0.0, 60.0, allow_subnormal=False), min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(times), np.array(events)


@st.composite
def censoring_curves(draw):
    """G from a training cohort; a censored last time makes G hit 0."""
    times, events = draw(cohorts(draw(st.integers(1, 8))))
    if draw(st.booleans()):
        times = np.append(times, times.max() + 1.0)
        events = np.append(events, False)
    return fit_censoring_km(dataset(times, events))


# ---------------------------------------------------------------------------
# curves

@given(knot_vectors(), st.data())
@settings(max_examples=150, deadline=None)
def test_every_batch_starts_at_zero_one(knots, data):
    n_rows = data.draw(st.integers(1, 5))
    probs = np.vstack([data.draw(rows_on(knots.size)) for _ in range(n_rows)])
    batch = CurveBatch(knots, probs, data.draw(st.sampled_from(["step", "linear"])))
    assert batch.knots[0] == 0.0
    if knots[0] > 0:
        assert np.all(batch.probs[:, 0] == 1.0)
        knots_kept, probs_kept = batch.knots[1:], batch.probs[:, 1:]
    else:
        knots_kept, probs_kept = batch.knots, batch.probs
    # the given knots and probabilities are kept bit for bit
    assert knots_kept.tobytes() == knots.tobytes()
    assert probs_kept.tobytes() == probs.tobytes()


@given(batches())
@settings(max_examples=150, deadline=None)
def test_batch_extension_median_and_mean_match_each_curve(drawn):
    batch, t0_km = drawn
    medians = median_survival(batch, t0_km)
    means = mean_survival(batch)
    for i, curve in enumerate(per_row(batch)):
        zero, fallback = ref_zero_time(curve, t0_km)
        assert batch.zero_time[i] == zero
        assert batch.fallback[i] == fallback
        assert medians[i] == ref_median(curve, t0_km)  # bit for bit
        assert means[i] == pytest.approx(ref_integral(curve, 0.0, zero), rel=TOL, abs=TOL)
    assert batch.fallback_applied == sum(bool(f) for f in batch.fallback)


@given(batches(), st.lists(st.floats(0.0, 250.0), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_batch_values_match_each_curve(drawn, extra):
    batch, _ = drawn
    curves = per_row(batch)
    ts = np.unique(np.concatenate((batch.knots, batch.zero_time, extra, [0.0])))
    shared = survival_at(batch, ts[None, :])
    assert shared.shape == (batch.rows, ts.size)
    for i, curve in enumerate(curves):  # bit for bit
        expected = [ref_survival(curve, t) for t in ts]
        np.testing.assert_array_equal(shared[i], expected)
        np.testing.assert_array_equal(survival_at(curve, ts), expected)
    # one time per patient
    own = ts[np.arange(batch.rows) % ts.size]
    np.testing.assert_array_equal(survival_at(batch, own),
                                  [ref_survival(c, t) for c, t in zip(curves, own)])


@st.composite
def mixed_curves(draw):
    n = draw(st.integers(1, 5))
    curves = []
    for _ in range(n):
        knots = draw(knot_vectors())
        probs = draw(rows_on(knots.size))
        base = CurveBatch(knots, probs, draw(st.sampled_from(["step", "linear"])))
        curves.append(extend_linear(base, 60.0))
    return curves


def extended_steps(*curves):
    return [extend_linear(CurveBatch(np.array(t), np.array(p), "step"), 60.0)
            for t, p in curves]


def test_tail_never_rises_above_the_last_knot_value():
    # one float step past the knot, the extension line once read 1 ulp
    # above p_last
    (curve,) = extended_steps(([0.1], [0.96875]))
    t = np.nextafter(0.1, np.inf)
    assert survival_at(curve, t) == pytest.approx(ref_survival(curve, t), rel=0, abs=TOL)
    assert survival_at(curve, t) <= 0.96875


# ---------------------------------------------------------------------------
# scorers

@given(st.data(), censoring_curves(), st.floats(1.0, 80.0))
@settings(max_examples=150, deadline=None)
def test_batched_ibs_matches_per_patient_reference(data, g_hat, tau):
    n = data.draw(st.integers(1, 6))
    times, events = data.draw(cohorts(n))
    shared = data.draw(st.booleans())
    batch, _ = data.draw(batches(rows=1 if shared else n))
    curves = per_row(batch) * (n if shared else 1)
    if not min(tau, float(np.inf if not (g_hat.curve.probs[0] <= 0).any()
                         else g_hat.curve.knots[np.argmax(g_hat.curve.probs[0] <= 0)])) > 0:
        return
    value = integrated_brier(dataset(times, events), batch, tau, g_hat)
    assert value == pytest.approx(ref_ibs(times, events, curves, tau, g_hat), rel=TOL, abs=TOL)


@given(st.data(), censoring_curves(), st.floats(1.0, 80.0))
@settings(max_examples=100, deadline=None)
def test_ibs_of_a_batch_that_is_not_extended_holds_its_last_probability(data, g_hat, tau):
    # a batch without zero times holds each row's last probability past
    # t_max; the reference reads the same curves given a knot at 100 (past
    # every time and tau) that repeats that probability, extended from there
    n = data.draw(st.integers(1, 6))
    times, events = data.draw(cohorts(n))
    g_probs = g_hat.curve.probs[0]
    if (g_probs <= 0).any() and g_hat.curve.knots[np.argmax(g_probs <= 0)] == 0:
        return
    form = data.draw(st.sampled_from(["shared", "rows", "hazard"]))
    extended, _ = data.draw(batches(rows=1 if form != "rows" else n))
    knots, probs, interp = extended.knots, extended.probs, extended.interp
    eta = None
    if form == "hazard":
        eta = np.array(data.draw(st.lists(st.floats(-3.0, 1.5), min_size=n, max_size=n)))
        with np.errstate(divide="ignore"):
            probs = np.log(-np.log(probs))         # the log H0 row of S0
        interp = "step"
    plain = CurveBatch(knots, probs, interp, eta=eta)
    held = extend_linear(CurveBatch(np.append(knots, 100.0), np.hstack((probs, probs[:, -1:])),
                                    interp, eta=eta), 200.0)
    curves = per_row(held) * (n if form == "shared" else 1)
    value = integrated_brier(dataset(times, events), plain, tau, g_hat)
    assert value == pytest.approx(ref_ibs(times, events, curves, tau, g_hat), rel=TOL, abs=TOL)
    assert value == pytest.approx(integrated_brier(dataset(times, events), held, tau, g_hat),
                                  rel=TOL, abs=TOL)


@st.composite
def curves_with_cohort(draw):
    curves = draw(mixed_curves())
    return (curves, *draw(cohorts(len(curves))))


# G drops to 0 at 1 and a curve reaches 0 one ulp before it: the piece
# between them once broke the reference's read of G
_ULP_BEFORE_G_ZERO = extended_steps(*[([0.5], [0.5])] * 4, ([np.nextafter(1.0, 0.0)], [0.0]))


@given(curves_with_cohort(), censoring_curves())
@example(drawn=(_ULP_BEFORE_G_ZERO, np.array([0.0, 0.0, 0.0, 0.0, 1.0]), np.zeros(5, bool)),
         g_hat=fit_censoring_km(dataset([0.0, 1.0], [False, False])))
@example(drawn=(_ULP_BEFORE_G_ZERO, np.array([0.0, 0.0, 0.0, 0.0, 2.0]), np.zeros(5, bool)),
         g_hat=fit_censoring_km(dataset([0.0, 1.0], [False, False])))
@settings(max_examples=100, deadline=None)
def test_ibs_of_a_curve_list_matches_per_patient_reference(drawn, g_hat):
    curves, times, events = drawn
    tau = 70.0
    g_probs = g_hat.curve.probs[0]
    if (g_probs <= 0).any() and g_hat.curve.knots[np.argmax(g_probs <= 0)] == 0:
        return
    # curves on different knots: the IBS divides its total by n * tau_eff,
    # and tau_eff depends only on tau and G, so it is the mean of the
    # one-patient IBS
    value = np.mean([integrated_brier(dataset(times[[i]], events[[i]]), c, tau, g_hat)
                     for i, c in enumerate(curves)])
    assert value == pytest.approx(ref_ibs(times, events, curves, tau, g_hat), rel=TOL, abs=TOL)


# Every time 1e6 from the origin: curve knots 2 apart with many G knots
# between them, and no cut off a grid of quarters, so that the reference's
# quadrature points are exact floats.  The moments of 1/G on a segment are
# centred at its left knot; moments from 0 would cancel here in every
# linear segment and in the tail of a row that takes the fallback zero
# time.
_FAR = 1e6


def _far_batches():
    rng = np.random.default_rng(11)
    knots = _FAR + np.arange(0.0, 17.0, 2.0)
    falling = [np.concatenate(([1.0], np.sort(rng.uniform(0.05, 1.0, knots.size - 1))[::-1]))
               for _ in range(9)]
    rows = np.vstack([*falling, np.ones(knots.size)])   # the last row is flat at 1
    rows[4, 5:] = 0.0                                   # and one reaches 0
    t0_km = _FAR + 17.0
    # the last row's H0 underflows, so it is flat at 1
    eta = np.append(np.log(rng.uniform(0.2, 3.0, 9)), -800.0)
    log_h0 = np.log(-np.log(falling[0][1:]))
    return {"step": extend_linear(CurveBatch(knots, rows, "step"), t0_km),
            "linear": extend_linear(CurveBatch(knots, rows, "linear"), t0_km),
            "hazard": extend_linear(CurveBatch(knots, np.append(-np.inf, log_h0), eta=eta),
                                    t0_km)}


@pytest.mark.parametrize("kind", ["step", "linear", "hazard"])
def test_ibs_keeps_its_precision_far_from_time_zero(kind):
    batch = _far_batches()[kind]
    times = _FAR + np.array([0.375, 1.5, 2.25, 3.0, 5.125, 7.75, 9.5, 15.25, 16.5, 18.0])
    events = np.arange(times.size) % 2 == 0
    quarters = np.arange(1, 73)
    g_hat = fit_censoring_km(dataset(_FAR + 0.25 * quarters, quarters % 3 == 0))
    tau = _FAR + 17.5
    inside = np.histogram(g_hat.curve.knots, batch.knots[1:])[0]
    assert inside.min() >= 5                    # G knots in every curve segment
    # the flat row's patient lives past its fallback zero time and tau
    assert batch.fallback[-1] and batch.zero_time[-1] < tau < times[-1]
    value = integrated_brier(dataset(times, events), batch, tau, g_hat)
    # the IBS divides by n * tau, so only a relative bound means anything here
    assert value == pytest.approx(ref_ibs(times, events, per_row(batch), tau, g_hat),
                                  rel=TOL, abs=0.0)


@given(batches(rows=1), st.lists(st.floats(0.0, 250.0), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_best_guess_and_margin_weights_match_reference(drawn, censor_times):
    km = drawn[0].subset([0])
    expected = [ref_best_guess(c, km) for c in censor_times]
    np.testing.assert_allclose(best_guess(np.array(censor_times), km), expected,
                               rtol=TOL, atol=TOL)
    assert best_guess(censor_times[0], km) == pytest.approx(expected[0], rel=TOL, abs=TOL)
    w = margin_weights(censor_times, km)
    np.testing.assert_allclose(w.best_guess, expected, rtol=TOL, atol=TOL)
    np.testing.assert_allclose(w.alpha, [1.0 - ref_survival(km, c) for c in censor_times],
                               rtol=0, atol=TOL)


@given(st.lists(st.tuples(unit, st.booleans()), min_size=1, max_size=40),
       st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_dcal_histogram_matches_per_patient_reference(pairs, b):
    probs, events = (np.array(x) for x in zip(*pairs))
    h = dcal_histogram(probs, events, b)
    np.testing.assert_allclose(h.counts, ref_dcal(probs, events, b), rtol=0, atol=TOL)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dcal_histogram_of_a_batch_matches_reference(data):
    n = data.draw(st.integers(1, 8))
    times, events = data.draw(cohorts(n))
    batch, _ = data.draw(batches(rows=n))
    probs = [ref_survival(c, t) for c, t in zip(per_row(batch), times)]
    h = dcal_histogram(survival_at(batch, times), events, 10)
    np.testing.assert_allclose(h.counts, ref_dcal(probs, events, 10), rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# permutation invariance of every fold metric

_COHORT = simulate_cohort(
    CohortConfig(family="weibull-ph", n_features=3, beta=(0.8, -0.5, 0.3),
                 baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.05),
    120, seed=4,
)
_TRAIN, _VAL = _COHORT.subset(np.arange(80)), _COHORT.subset(np.arange(80, 120))
_MODELS = {"km": KaplanMeierModel.fit(_TRAIN), "cox-kp": fit_cox(_TRAIN)}


def fold_metrics(model, val):
    km_ext = extend_linear(fit_km(_TRAIN).curve)
    t0_km = km_ext.zero_time[0]
    curves = extend_linear(model.predict_curves(val), t0_km)
    medians = np.broadcast_to(median_survival(curves, t0_km), (len(val),))
    events = val.events
    v_u, medians_u = val.subset(events), medians[events]
    weights = margin_weights(val.times[~events], km_ext)
    eta = default_eta(_TRAIN.times)
    tau = float(_COHORT.times.max())
    out = {
        "concordance": concordance(val, -medians),
        "ibs": integrated_brier(val, curves, tau, fit_censoring_km(_TRAIN)),
        "l1-uncensored": l1_uncensored(v_u, medians_u),
        "l1-hinge": l1_hinge(val, medians),
        "l1-margin": l1_margin(val, medians, weights),
        "l1-log-uncensored": l1_log(v_u, medians_u, "uncensored", eta),
        "l1-log-margin": l1_log(val, medians, "margin", eta, weights=weights),
    }
    h = dcal_histogram(survival_at(curves, val.times), events)
    out.update({f"dcal{k}": c for k, c in enumerate(h.counts)})
    if curves.rows > 1:
        tstar = float(np.median(_COHORT.times))
        probs = survival_at(curves, tstar)
        out["one-cal"] = one_calibration_dn(val, probs, tstar, b=4).statistic
    return out


@pytest.mark.parametrize("name", sorted(_MODELS))
@given(perm=st.permutations(range(len(_VAL))))
@settings(max_examples=25, deadline=None)
def test_permuting_patients_leaves_fold_metrics_unchanged(name, perm):
    model = _MODELS[name]
    base = fold_metrics(model, _VAL)
    permuted = fold_metrics(model, _VAL.subset(np.array(perm)))
    assert permuted.keys() == base.keys()
    for key, value in base.items():
        assert permuted[key] == pytest.approx(value, rel=TOL, abs=TOL), key


def test_shared_row_is_never_copied_per_patient():
    km = KaplanMeierModel.fit(_TRAIN)
    t0_km = extend_linear(km.km.curve).zero_time[0]
    curves = extend_linear(km.predict_curves(_VAL), t0_km)
    assert curves.rows == 1
    assert curves.subset(np.arange(5)) is curves
    assert median_survival(curves, t0_km).shape == (1,)
    assert km_at(fit_km(_TRAIN), 0.0) == 1.0
