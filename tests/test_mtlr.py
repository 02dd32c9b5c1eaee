import threading
from dataclasses import dataclass

import numpy as np
import pytest

import isdkit.mtlr as mtlr
from isdkit.core import ConvergenceError, SurvivalDataset
from isdkit.curves import extend_linear, median_survival
from isdkit.mtlr import (
    _LOW_MASS,
    _MAX_TRIALS,
    GRAD_TOL,
    TimeGrid,
    _encode_labels,
    _objective_parts,
    _softmax_tail,
    _train,
    _with_bias,
    default_grid_size,
    fit_mtlr,
    make_grid,
    minimize,
    mtlr_loglik_grad,
    predict_curve_mtlr,
)
from isdkit.pipeline import CohortConfig, simulate_cohort

from conftest import dataset


@dataclass(frozen=True)
class MtlrLabel:
    """Sequence-space encoding of one (time, event) label.

    For a death, ``sequence`` is the unique 0/1 status vector (1 from the
    first grid time at or past the death on) and ``consistent`` holds its
    single interval index.  For a censoring, ``sequence`` is None and
    ``consistent`` lists every interval index whose start lies at or after
    the censor time (the lone final interval when the censor time passes
    the grid).
    """

    event: bool
    sequence: np.ndarray | None
    consistent: np.ndarray


def encode_label(t: float, event: bool, grid: TimeGrid) -> MtlrLabel:
    """One label at a time: the reference for the batched `_encode_labels`."""
    points = grid.points
    m = grid.m
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if event:
        k = int(np.searchsorted(points, t, side="left"))
        sequence = (np.arange(m) >= k).astype(np.int8)
        return MtlrLabel(True, sequence, np.array([k]))
    starts = np.concatenate(([0.0], points))  # interval k starts at t_k, t_0 = 0
    consistent = np.flatnonzero(starts >= t)
    if consistent.size == 0:
        consistent = np.array([m])
    return MtlrLabel(False, None, consistent)


class TestMakeGrid:
    def test_quantile_oracle(self):
        times = np.arange(1.0, 101.0)
        d = dataset(times, np.ones(100))
        grid = make_grid(d, 4)
        oracle = np.quantile(times, [0.25, 0.5, 0.75, 1.0], method="inverted_cdf")
        np.testing.assert_array_equal(grid.points, np.unique(oracle))

    def test_degenerate_dedup_falls_back_to_uniform(self):
        d = dataset([7.0] * 10, np.ones(10))
        grid = make_grid(d, 4)
        np.testing.assert_allclose(grid.points, [1.75, 3.5, 5.25, 7.0])

    def test_two_point_set(self):
        grid = make_grid(dataset([1.0, 10.0], [1, 1]), 2)
        np.testing.assert_array_equal(grid.points, [1.0, 10.0])

    def test_m_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_grid(dataset([1.0, 2.0], [1, 1]), 1)

    def test_default_size_rule(self):
        assert default_grid_size(100) == 10
        assert default_grid_size(10000) == 50
        assert default_grid_size(2) == 2


class TestEncodeLabel:
    def grid(self):
        return TimeGrid(np.array([1.0, 2.0, 3.0, 4.0]))

    def test_death_between_grid_points(self):
        lab = encode_label(2.5, True, self.grid())
        np.testing.assert_array_equal(lab.sequence, [0, 0, 1, 1])
        np.testing.assert_array_equal(lab.consistent, [2])

    def test_boundary_sequences(self):
        lab = encode_label(0.5, True, self.grid())
        np.testing.assert_array_equal(lab.sequence, [1, 1, 1, 1])
        lab = encode_label(9.0, True, self.grid())
        np.testing.assert_array_equal(lab.sequence, [0, 0, 0, 0])

    def test_death_exactly_on_a_grid_point(self):
        lab = encode_label(2.0, True, self.grid())
        np.testing.assert_array_equal(lab.sequence, [0, 1, 1, 1])

    def test_censored_after_grid_end_has_single_sequence(self):
        lab = encode_label(9.0, False, self.grid())
        np.testing.assert_array_equal(lab.consistent, [4])

    def test_censored_at_zero_allows_everything(self):
        lab = encode_label(0.0, False, self.grid())
        np.testing.assert_array_equal(lab.consistent, [0, 1, 2, 3, 4])

    def test_censored_mid_grid(self):
        lab = encode_label(2.5, False, self.grid())
        # intervals starting at 3, 4, and beyond remain possible
        np.testing.assert_array_equal(lab.consistent, [3, 4])


class TestObjective:
    def test_zero_theta_uniform_sequences(self):
        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        d = dataset([1.5], [1], x=np.array([[0.4, -0.2]]))
        theta = np.zeros((3, 3))
        objective, _ = mtlr_loglik_grad(theta, d, grid, 1.0)
        assert objective == pytest.approx(-np.log(4))

    def test_doubling_c_doubles_the_penalty(self, rng):
        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        d = dataset([0.5, 1.5, 2.5], [1, 0, 1], x=rng.standard_normal((3, 2)))
        theta = rng.standard_normal((3, 3))
        obj1, _ = mtlr_loglik_grad(theta, d, grid, 1.0)
        obj2, _ = mtlr_loglik_grad(theta, d, grid, 2.0)
        assert obj1 - obj2 == pytest.approx(0.5 * np.sum(theta**2), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        grid = TimeGrid(np.array([1.0, 3.0, 5.0, 7.0]))
        times = rng.uniform(0.2, 9, size=12)
        events = rng.random(12) < 0.6
        d = dataset(times, events, x=rng.standard_normal((12, 3)))
        theta = rng.standard_normal((4, 4)) * 0.4
        _, grad = mtlr_loglik_grad(theta, d, grid, 0.7)
        h = 1e-6
        for idx in np.ndindex(theta.shape):
            bump = np.zeros_like(theta)
            bump[idx] = h
            up, _ = mtlr_loglik_grad(theta + bump, d, grid, 0.7)
            dn, _ = mtlr_loglik_grad(theta - bump, d, grid, 0.7)
            assert grad[idx] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-7)


def reference_objective(theta, d, grid, c):
    """The objective as two masked log-sum-exps over all m+1 sequences, one
    label at a time: the form the suffix-sum objective must reproduce."""
    def logsumexp(a):
        peak = np.max(a, axis=1, keepdims=True)
        return (peak + np.log(np.sum(np.exp(a - peak), axis=1, keepdims=True)))[:, 0]

    xb = _with_bias(d.feature_matrix())
    mask = np.zeros((len(d), grid.m + 1), dtype=bool)
    for i, inst in enumerate(d.instances):
        mask[i, encode_label(inst.time, inst.event, grid).consistent] = True
    scores = xb @ theta.T
    g = np.zeros((len(d), grid.m + 1))
    g[:, :-1] = np.cumsum(scores[:, ::-1], axis=1)[:, ::-1]
    log_z = logsumexp(g)
    label_ll = logsumexp(np.where(mask, g, -np.inf))
    p_all = np.exp(g - log_z[:, None])
    p_lab = np.exp(np.where(mask, g - label_ll[:, None], -np.inf))
    ey = np.cumsum(p_lab, axis=1)[:, :-1] - np.cumsum(p_all, axis=1)[:, :-1]
    objective = float(np.sum(label_ll - log_z)) - 0.5 * c * float(np.sum(theta * theta))
    return objective, ey.T @ xb - c * theta


def suffix_cohort(seed=0, n=40):
    """Random labels plus a death on a grid point and censorings at 0,
    mid-grid and past the grid end."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.arange(1.0, 7.0))
    times = rng.uniform(0.2, 8.0, n)
    events = rng.random(n) < 0.5
    times[:4], events[:4] = [3.0, 0.0, 2.5, 9.0], [True, False, False, False]
    return dataset(times, events, x=rng.standard_normal((n, 8))), grid


class TestSuffixObjective:
    def test_batch_encoding_matches_encode_label(self):
        d, grid = suffix_cohort()
        lab = _encode_labels(d.times, d.events, grid)
        for i, inst in enumerate(d.instances):
            label = encode_label(inst.time, inst.event, grid)
            assert lab.first[i] == label.consistent[0]
            assert lab.censored[i] == (not label.event)
            np.testing.assert_array_equal(lab.before[:, i], np.arange(grid.m) < label.consistent[0])

    @pytest.mark.parametrize("scale", [0.01, 1.0, 10.0, 20.0, 50.0, 100.0])
    def test_matches_the_log_sum_exp_reference(self, scale):
        d, grid = suffix_cohort()
        theta = np.random.default_rng(1).standard_normal((grid.m, 9)) * scale
        ref_value, ref_grad = reference_objective(theta, d, grid, 0.7)
        value, grad = mtlr_loglik_grad(theta, d, grid, 0.7)
        assert np.isfinite(ref_value) and np.all(np.isfinite(ref_grad))
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        assert value == pytest.approx(ref_value, rel=1e-12)
        # relative to the largest entry: a single entry may be a cancelled sum
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_large_scales_reach_the_log_space_rows(self):
        # under one shift per patient some censored label masses underflow,
        # so the reference test above covers the rows summed again
        d, grid = suffix_cohort()
        lab = _encode_labels(d.times, d.events, grid)
        theta = np.random.default_rng(1).standard_normal((grid.m, 9)) * 100.0
        _, tail = _softmax_tail(theta, _with_bias(d.feature_matrix()))
        mass = tail[lab.first, np.arange(len(d))]
        assert np.any(lab.censored & (mass < _LOW_MASS))


def two_group(seed, n=120):
    rng = np.random.default_rng(seed)
    x = np.repeat([[1.0], [0.0]], n // 2, axis=0)
    death = np.where(x[:, 0] == 1, rng.exponential(3, n), rng.exponential(12, n))
    return SurvivalDataset.from_arrays(x, death, np.ones(n, dtype=bool))


def weibull_cohort():
    return simulate_cohort(
        CohortConfig(family="weibull-ph", n_features=3, beta=(0.8, -0.5, 0.3),
                     baseline_scale=10.0, baseline_shape=1.5, censor_rate=0.05),
        200, seed=0,
    )


class TestFitMtlr:
    def test_orders_the_two_groups(self):
        wins = 0
        for seed in range(20):
            d = two_group(seed)
            grid = make_grid(d, 8)
            model = fit_mtlr(d, grid, (1.0,))
            t0 = extend_linear(model.predict_curves(d.subset([0]))).zero_time[0] + 1.0
            med_a = median_survival(
                extend_linear(model.predict_curves(d.subset([0])), t0), t0
            )
            med_b = median_survival(
                extend_linear(model.predict_curves(d.subset([-1])), t0), t0
            )
            wins += med_a < med_b
        assert wins >= 19

    def test_noise_prefers_the_largest_c(self):
        prefers = 0
        seeds = range(7)
        for seed in seeds:
            rng = np.random.default_rng(100 + seed)
            d = dataset(rng.exponential(5, 60), np.ones(60),
                        x=rng.standard_normal((60, 3)))
            grid = make_grid(d, 5)
            model = fit_mtlr(d, grid, (0.01, 0.1, 1.0))
            prefers += model.reg_c == 1.0
        assert prefers > len(seeds) / 2

    def test_deterministic_bitwise(self):
        d = two_group(0, n=40)
        grid = make_grid(d, 5)
        a = fit_mtlr(d, grid, (0.5, 2.0))
        b = fit_mtlr(d, grid, (0.5, 2.0))
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.reg_c == b.reg_c

    def test_empty_c_grid_rejected(self):
        d = two_group(0, n=20)
        with pytest.raises(ValueError):
            fit_mtlr(d, make_grid(d, 4), ())

    @pytest.mark.parametrize("c", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_c_rejected(self, c):
        d = weibull_cohort()
        with pytest.raises(ValueError, match=f"C must be finite and non-negative, got {c}"):
            fit_mtlr(d, make_grid(d, 15), (1.0, c))

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_gradient_is_a_failure(self, c):
        # L-BFGS stops at once on a NaN objective, and a NaN gradient norm
        # is not "small"
        d = weibull_cohort()
        grid = make_grid(d, 15)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(ConvergenceError, match="gradient max-norm nan"):
                _train(_with_bias(d.feature_matrix()), _encode_labels(d.times, d.events, grid),
                       c, grid.m)

    def test_zero_c_still_fits(self):
        d = weibull_cohort()
        model = fit_mtlr(d, make_grid(d, 15), (0.0,))
        assert model.reg_c == 0.0
        assert np.all(np.isfinite(model.theta)) and model.gradient_norm < 1e-3


def rosenbrock(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


def rosenbrock_start(n):
    x0 = np.full(n, -1.2)
    x0[1::2] = 1.0
    return x0


def negative_objective(d, grid, c):
    """The function `_train` minimizes, and the shape of theta."""
    xb, lab = _with_bias(d.feature_matrix()), _encode_labels(d.times, d.events, grid)
    shape = (grid.m, xb.shape[1])

    def negative(theta_flat):
        value, grad = _objective_parts(theta_flat.reshape(shape), xb, lab, c)
        return -value, -grad.ravel()

    return negative, shape


class TestMinimize:
    def test_ill_conditioned_quadratic_reaches_its_minimizer(self):
        # ftol = 0 leaves the gradient rule alone to stop the fit
        scale = np.exp(np.linspace(-3.0, 3.0, 50))
        centre = np.linspace(-1.0, 1.0, 50)
        result = minimize(lambda x: (0.5 * float(np.sum(scale * (x - centre) ** 2)),
                                     scale * (x - centre)),
                          np.zeros(50), gtol=GRAD_TOL, ftol=0.0, max_iter=2000)
        assert result.success
        assert np.max(np.abs(result.jac)) <= GRAD_TOL
        np.testing.assert_allclose(result.jac, scale * (result.x - centre), rtol=0, atol=0)
        assert np.max(np.abs(result.x - centre)) <= GRAD_TOL / scale.min()

    @pytest.mark.parametrize("n", [2, 20])
    def test_rosenbrock_reaches_the_all_ones_point(self, n):
        result = minimize(rosenbrock, rosenbrock_start(n), gtol=GRAD_TOL, ftol=1e-12,
                          max_iter=2000)
        assert result.success
        assert result.nit < result.nfev <= 2 * result.nit
        np.testing.assert_allclose(result.x, 1.0, atol=1e-4)
        assert result.fun == rosenbrock(result.x)[0] < 1e-9

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_first_value_stops_after_one_evaluation(self, value):
        calls = []

        def fun(x):
            calls.append(x)
            return value, x + 1.0

        results = []
        worker = threading.Thread(
            target=lambda: results.append(
                minimize(fun, np.zeros(3), gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)),
            daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "minimize did not stop on a non-finite value"
        (result,) = results
        assert len(calls) == result.nfev == 1 and result.nit == 0
        assert not result.success and result.message == "non-finite objective value"
        np.testing.assert_array_equal(result.x, np.zeros(3))

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_a_non_finite_first_gradient_stops_after_one_evaluation(self, entry):
        result = minimize(lambda x: (1.0, np.array([0.5, entry])), np.zeros(2),
                          gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)
        assert not result.success and result.message == "non-finite gradient"
        assert result.nfev == 1 and result.nit == 0
        np.testing.assert_array_equal(result.x, np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_value_in_a_line_search_keeps_the_last_point(self, value):
        # 0.5 x^2 from 3: the first step reaches 2, the next would reach 0,
        # where the value is not finite
        def fun(x):
            return (0.5 * float(x @ x) if x[0] >= 1.0 else value), x.copy()

        result = minimize(fun, np.array([3.0]), gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)
        assert not result.success and result.message == "non-finite objective value"
        assert result.nfev == 3 and result.nit == 1
        assert result.x.tolist() == [2.0] and result.fun == 2.0

    def test_steepest_descent_without_a_decrease_is_a_failure(self):
        # |x| at its kink, where the gradient given is the subgradient 1
        def fun(x):
            return abs(float(x[0])), np.ones(1)

        result = minimize(fun, np.zeros(1), gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)
        assert not result.success and result.message == "the line search found no decrease"
        assert result.nfev == 1 + _MAX_TRIALS and result.nit == 0
        assert result.x.tolist() == [0.0]

    def test_a_failed_search_with_pairs_drops_them_and_restarts(self):
        # 0.5 x^2 from 3, whose values read 10 higher in the second line
        # search: it fails with a pair stored, and steepest descent from the
        # same point then steps to the minimizer
        calls = []

        def fun(x):
            calls.append(x.copy())
            f = 0.5 * float(x @ x)
            return (f + 10.0 if 2 < len(calls) <= 2 + _MAX_TRIALS else f), x.copy()

        result = minimize(fun, np.array([3.0]), gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)
        assert result.success and result.message == "gradient max-norm at most gtol"
        assert result.nfev == len(calls) == 3 + _MAX_TRIALS and result.nit == 2
        assert calls[1].tolist() == [2.0] and calls[-1].tolist() == result.x.tolist() == [0.0]

    def test_a_direction_that_is_not_finite_restarts_from_steepest_descent(self):
        # scripted values and gradients: the stored pair has y = -1e15, so
        # the gradient 1e300 at the second point overflows the product
        # S^T g and the direction reads NaN; the search then starts from
        # x - g, whose slope -inf no step can meet
        script = [(0.0, 1.0), (-1.0, -1e15), (-1e12, 1e300)]
        calls = []

        def fun(x):
            calls.append(x.copy())
            f, g = script[len(calls) - 1] if len(calls) <= len(script) else (5.0, 1e300)
            return f, np.array([g])

        with np.errstate(over="ignore", invalid="ignore"):
            result = minimize(fun, np.zeros(1), gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)
        assert not result.success and result.message == "the line search found no decrease"
        assert result.nit == 2 and result.nfev == len(calls) == 3 + _MAX_TRIALS
        assert calls[3].tolist() == [result.x[0] - 1e300] == [-1e300]

    def test_the_iteration_limit_is_a_failure(self):
        result = minimize(rosenbrock, rosenbrock_start(2), gtol=GRAD_TOL, ftol=1e-12,
                          max_iter=5)
        assert not result.success and result.nit == 5
        assert result.message == "iteration limit reached"
        assert result.fun == rosenbrock(result.x)[0]

    @pytest.mark.parametrize("c", [10.0, 100.0])
    def test_mtlr_fits_match_scipy_lbfgsb(self, c):
        from scipy.optimize import minimize as scipy_minimize

        d = weibull_cohort()
        negative, shape = negative_objective(d, make_grid(d, default_grid_size(len(d))), c)
        x0 = np.zeros(shape).ravel()
        ours = minimize(negative, x0, gtol=GRAD_TOL, ftol=1e-12, max_iter=2000)
        reference = scipy_minimize(negative, x0, jac=True, method="L-BFGS-B",
                                   options={"maxiter": 2000, "gtol": GRAD_TOL,
                                            "ftol": 1e-12})
        assert ours.success and reference.success
        assert np.max(np.abs(ours.x - reference.x)) <= 1e-5 * np.max(np.abs(reference.x))
        assert ours.fun == pytest.approx(reference.fun, rel=1e-10, abs=0)


class TestTrainAtTheIterationLimit:
    """`_train` accepts a fit stopped by the iteration limit only when its
    gradient max-norm is at most 1e-3.  At C = 1 the Weibull cohort's fit
    converges after 72 iterations."""

    @staticmethod
    def limited(monkeypatch, max_iter):
        """Set MAX_ITER and record every result of `minimize`."""
        results = []

        def recording(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(mtlr, "MAX_ITER", max_iter)
        monkeypatch.setattr(mtlr, "minimize", recording)
        return results

    @staticmethod
    def train():
        d = weibull_cohort()
        grid = make_grid(d, 15)
        return _train(_with_bias(d.feature_matrix()), _encode_labels(d.times, d.events, grid),
                      1.0, grid.m)

    def test_a_small_gradient_is_accepted(self, monkeypatch):
        results = self.limited(monkeypatch, 60)
        theta, iterations, gnorm = self.train()
        (result,) = results
        assert not result.success and result.message == "iteration limit reached"
        assert iterations == result.nit == 60 and GRAD_TOL < gnorm <= 1e-3
        np.testing.assert_array_equal(theta.ravel(), result.x)

    def test_a_large_gradient_is_refused(self, monkeypatch):
        results = self.limited(monkeypatch, 20)
        with pytest.raises(ConvergenceError,
                           match=r"iteration limit reached \(gradient max-norm \S+ after 20 "
                                 r"iterations\)"):
            self.train()
        (result,) = results
        assert not result.success and np.max(np.abs(result.jac)) > 1e-3


class TestPredictMtlr:
    def test_zero_theta_staircase(self):
        from isdkit.mtlr import MtlrModel

        grid = TimeGrid(np.array([1.0, 2.0, 3.0]))
        model = MtlrModel(np.zeros((3, 2)), grid, 1.0)
        curve = predict_curve_mtlr(model, np.array([5.0])).subset([0])
        np.testing.assert_allclose(curve.knots, [0, 1, 2, 3])
        np.testing.assert_allclose(curve.probs[0], [1.0, 3 / 4, 2 / 4, 1 / 4])

    def test_interval_masses_nonnegative(self, rng):
        d = two_group(3, n=60)
        grid = make_grid(d, 6)
        model = fit_mtlr(d, grid, (1.0,))
        for _ in range(10):
            curve = predict_curve_mtlr(model, rng.standard_normal(1)).subset([0])
            assert curve.probs[0, 0] == 1.0
            assert np.all(np.diff(curve.probs) <= 1e-12)

    def test_curves_can_cross(self):
        # unlike the proportional-hazards families, MTLR curves may cross
        rng = np.random.default_rng(11)
        n = 200
        x = rng.standard_normal((n, 1))
        shape = np.where(x[:, 0] > 0, 4.0, 0.7)
        death = 8.0 * rng.weibull(shape)
        d = SurvivalDataset.from_arrays(x, death, np.ones(n, dtype=bool))
        grid = make_grid(d, 10)
        model = fit_mtlr(d, grid, (0.1,))
        ca = predict_curve_mtlr(model, np.array([1.5])).subset([0]).probs
        cb = predict_curve_mtlr(model, np.array([-1.5])).subset([0]).probs
        diff = ca - cb
        assert (diff > 1e-6).any() and (diff < -1e-6).any()
