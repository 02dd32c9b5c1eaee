import numpy as np
import pytest
import scipy.integrate

from isdkit.curves import (
    extend_linear,
    integrate_curve,
    mean_survival,
    median_survival,
    survival_at,
)

from conftest import linear_curve, random_curve, step_curve


class TestSurvivalAt:
    def test_step_semantics(self):
        c = step_curve([5.0], [0.5])
        assert survival_at(c, 4.9) == 1.0
        assert survival_at(c, 5.0) == 0.5

    def test_linear_interpolation(self):
        c = linear_curve([10.0], [0.0])
        assert survival_at(c, 5.0) == 0.5

    def test_beyond_last_knot_holds_last_probability(self):
        c = step_curve([40.0, 83.0], [0.6, 0.12])
        assert survival_at(c, 200.0) == 0.12

    def test_explicit_zero_knot_overrides_the_anchor(self):
        c = step_curve([0.0, 4.0], [0.8, 0.2])
        assert survival_at(c, 0.0) == 0.8

    def test_vectorized(self):
        c = linear_curve([10.0], [0.0])
        np.testing.assert_allclose(survival_at(c, [0, 2.5, 10, 20]), [1, 0.75, 0, 0])

    @pytest.mark.parametrize("shape", [(), (4,), (1, 4), (4, 1), (2, 3), (2, 1, 3)])
    def test_one_row_returns_the_shape_of_t(self, shape):
        c = extend_linear(step_curve([2.0, 6.0], [0.5, 0.25]))
        t = np.linspace(0.0, 9.0, int(np.prod(shape))).reshape(shape)
        values = survival_at(c, t)
        expected = [survival_at(c, x) for x in t.reshape(-1)]
        if shape == ():
            assert type(values) is float and values == expected[0]
        else:
            assert values.shape == shape
            np.testing.assert_array_equal(values.reshape(-1), expected)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            survival_at(step_curve([1.0], [0.5]), -1.0)

    def test_a_nan_time_is_refused(self):
        # it once read the tail value, since nan < 0 is False
        with pytest.raises(ValueError, match="t >= 0"):
            survival_at(step_curve([1.0], [0.5]), [2.0, np.nan])


class TestExtendLinear:
    def test_last_knot_slope_solution(self):
        # line through (0, 1) and (83, 0.12) reaches zero at 83 / 0.88
        ec = extend_linear(step_curve([83.0], [0.12]))
        assert ec.zero_time[0] == pytest.approx(83.0 / 0.88, rel=1e-12)
        assert not ec.fallback_applied

    def test_curve_already_at_zero_is_identity(self):
        ec = extend_linear(step_curve([10.0], [0.0]))
        assert ec.zero_time[0] == 10.0
        assert not ec.fallback_applied

    def test_flat_curve_uses_km_fallback(self):
        ec = extend_linear(step_curve([7.0], [1.0]), t0_km=50.0)
        assert ec.zero_time[0] == 50.0
        assert ec.fallback_applied

    def test_flat_curve_without_fallback_errors(self):
        with pytest.raises(ValueError, match="flat"):
            extend_linear(step_curve([7.0], [1.0]))
        with pytest.raises(ValueError):
            extend_linear(step_curve([7.0], [1.0]), t0_km=-3.0)

    def test_endpoints_pin_one_and_zero(self, rng):
        for _ in range(100):
            c = random_curve(rng)
            ec = extend_linear(c, t0_km=500.0)
            assert survival_at(ec, 0.0) == pytest.approx(1.0, abs=1e-12)
            assert survival_at(ec, ec.zero_time[0]) == pytest.approx(0.0, abs=1e-12)

    def test_extension_never_alters_values_at_or_before_tmax(self, rng):
        for _ in range(50):
            c = random_curve(rng)
            ec = extend_linear(c, t0_km=500.0)
            ts = np.linspace(0, c.knots[-1], 23)
            np.testing.assert_array_equal(survival_at(c, ts), survival_at(ec, ts))


class TestMedian:
    def test_linear_symmetry(self):
        ec = extend_linear(linear_curve([10.0], [0.0]))
        assert median_survival(ec, 1e9) == 5.0

    def test_crossing_at_eleven(self):
        # knots pin the 50% crossing at t = 11 exactly
        ec = extend_linear(linear_curve([11.0, 30.0], [0.5, 0.0]))
        assert median_survival(ec, 1e9) == pytest.approx(11.0, abs=1e-12)

    def test_step_convention_first_knot_at_or_below_half(self):
        ec = extend_linear(step_curve([2.0, 8.0], [0.7, 0.5]))
        assert median_survival(ec, 1e9) == 8.0

    def test_extension_crossing_capped_by_t0_km(self):
        # median would land at 200 on the extension; the cap pulls it to 118
        c = step_curve([80.0], [0.8])
        ec = extend_linear(c)  # zero time 400, crosses 0.5 at 200
        assert median_survival(ec, 1e9) == pytest.approx(200.0)
        assert median_survival(ec, 118.0) == 118.0

    def test_median_is_a_fixed_point(self, rng):
        for _ in range(100):
            c = random_curve(rng)
            ec = extend_linear(c, t0_km=500.0)
            med = median_survival(ec, 1e9)
            assert survival_at(ec, med) <= 0.5 + 1e-12
            earlier = [t for t in c.knots if t < med]
            for t in earlier:
                assert survival_at(ec, t) > 0.5


class TestMeanAndIntegral:
    def test_triangle_area(self):
        assert mean_survival(extend_linear(linear_curve([10.0], [0.0]))) == 5.0

    def test_rectangle(self):
        assert mean_survival(extend_linear(step_curve([7.0], [0.0]))) == 7.0

    def test_two_step_piecewise_sum(self):
        # 1 on [0, 2), 0.5 on [2, 6), 0 after: 2 + 0.5 * 4 = 4
        ec = extend_linear(step_curve([2.0, 6.0], [0.5, 0.0]))
        assert mean_survival(ec) == pytest.approx(4.0, abs=1e-12)

    def test_mean_matches_adaptive_quadrature(self, rng):
        for _ in range(25):
            c = random_curve(rng)
            ec = extend_linear(c, t0_km=500.0)
            knots = sorted({0.0, ec.zero_time[0], *c.knots.tolist()})
            oracle, _ = scipy.integrate.quad(
                lambda t: survival_at(ec, t), 0.0, ec.zero_time[0],
                points=knots, limit=200,
            )
            assert mean_survival(ec) == pytest.approx(oracle, rel=1e-9)

    def test_partial_integral(self):
        ec = extend_linear(linear_curve([10.0], [0.0]))
        # integral of 1 - t/10 over [5, 10] = 1.25
        assert integrate_curve(ec, 5.0, 10.0) == pytest.approx(1.25, abs=1e-12)
        assert integrate_curve(ec, 8.0, 2.0) == 0.0
