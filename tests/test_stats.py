"""The chi-square tail `calibration.chi2_sf` behind every calibration p-value."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.special
import scipy.stats

from isdkit.calibration import chi2_sf


def test_chi2_sf_at_zero_is_one():
    for dof in range(1, 12):
        assert chi2_sf(0.0, dof) == 1.0


def test_chi2_sf_df2_closed_form():
    # with 2 degrees of freedom the survival function is exp(-x/2)
    assert chi2_sf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-9)
    for x in (0.1, 1.0, 3.7, 10.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)


def test_chi2_sf_reported_calibration_p_value():
    # the statistic 5.99 at 9 degrees of freedom maps to p = 0.741
    assert chi2_sf(5.99, 9) == pytest.approx(0.741, abs=0.005)


def test_chi2_sf_against_scipy_reference():
    for dof in (1, 2, 3, 5, 9, 20, 71):
        for x in np.linspace(0.01, 8 * dof, 40):
            assert chi2_sf(float(x), dof) == pytest.approx(
                scipy.stats.chi2.sf(x, dof), abs=1e-10
            )


def test_chi2_sf_monotone_decreasing_and_bounded():
    for dof in (1, 4, 9):
        values = [chi2_sf(x, dof) for x in np.linspace(0, 60, 200)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_chi2_sf_regime_switch_is_continuous():
    # the closed form has no regime switch; x = dof + 2 is where a series /
    # continued-fraction evaluation of the incomplete gamma function hands over
    for dof in (1, 3, 9, 40):
        boundary = dof + 2.0
        lo = chi2_sf(boundary - 1e-9, dof)
        hi = chi2_sf(boundary + 1e-9, dof)
        assert abs(lo - hi) < 1e-9


def test_chi2_sf_rejects_bad_input():
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(-0.5, 3)
    with pytest.raises(ValueError):
        chi2_sf(float("nan"), 3)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 2.5)


def test_chi2_sf_limits():
    for dof in (1, 2, 9, 10, 10_000):
        assert chi2_sf(math.inf, dof) == 0.0
        assert chi2_sf(5e-324, dof) == 1.0      # x / 2 rounds to 0
    assert chi2_sf(np.float64(7.3), np.int64(9)) == chi2_sf(7.3, 9)


def _x_grid(dof):
    """Statistics from near 0 far into the upper tail, past Q = 1e-300."""
    return np.geomspace(1e-3, 2 * (dof + 30 * math.sqrt(dof) + 700), 60).tolist()


def _poisson_tail(x, dof):
    """Q(dof/2, x/2) for even dof: e^-y sum_{j < dof/2} y^j / j! with y = x/2,
    each power and factorial formed directly, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        y = Decimal(x) / 2
        total, factorial = Decimal(0), Decimal(1)
        for j in range(dof // 2):
            factorial *= max(j, 1)
            total += y ** j / factorial
        return float(total * (-y).exp())


@pytest.mark.parametrize("dofs", [range(2, 101, 2), (200, 1000, 10_000)])
def test_chi2_sf_against_an_exact_poisson_sum(dofs):
    # chi2_sf rounds its terms and their sum at 34 digits and its result once,
    # so it is within an ulp or two of the exact tail
    for dof in dofs:
        for x in _x_grid(dof)[::3 if dof > 100 else 1]:
            ref = _poisson_tail(x, dof)
            if ref > 1e-300:
                assert chi2_sf(x, dof) == pytest.approx(ref, rel=1e-15, abs=0), (x, dof)


def test_chi2_sf_against_scipy_gammaincc():
    # scipy forms the tail through its logarithm, whose rounding costs up to
    # |ln Q| units of 2**-53: against 40-digit mpmath, scipy 1.17 was off by
    # at most 8.9e-14 above Q = 1e-250 and by 1.5e-13 below it, for dof up
    # to 100, and by 6.2e-12 for dof up to 10,000
    for dof in (*range(1, 101), 101, 333, 999, 2001, 9999, 10_000):
        for x in _x_grid(dof)[::4 if dof > 100 else 1]:
            ref = float(scipy.special.gammaincc(dof / 2, x / 2))
            if ref > 1e-300:
                rel = 1e-13 + 2.0 ** -53 * -math.log(ref) if dof <= 100 else 1e-11
                assert chi2_sf(x, dof) == pytest.approx(ref, rel=rel, abs=0), (x, dof)
