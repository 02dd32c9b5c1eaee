"""Chi-square and normal tail probabilities backing the calibration tests:
thin wrappers over scipy.special that validate their arguments."""

from __future__ import annotations

from scipy.special import gammaincc, ndtr

__all__ = ["chi2_sf", "normal_cdf", "regularized_gamma_q"]


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return float(gammaincc(a, x))


def chi2_sf(x: float, dof: int) -> float:
    """Upper-tail probability P(X >= x) for a chi-square with `dof` degrees
    of freedom, used to turn calibration statistics into p-values."""
    if dof < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be non-negative, got {x}")
    return min(1.0, max(0.0, regularized_gamma_q(dof / 2.0, x / 2.0)))


def normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z); accurate in both tails."""
    return float(ndtr(z))
