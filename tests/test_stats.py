"""The chi-square tail `calibration.chi2_sf` behind every calibration p-value."""

import math

import numpy as np
import pytest
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
    # the series / continued-fraction handover sits at x = dof + 2
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
