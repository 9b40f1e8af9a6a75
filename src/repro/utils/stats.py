"""Counting statistics helpers: Poisson intervals, bootstrap, rate errors.

Photon-counting experiments report Poisson-distributed counts; every CAR and
rate value in the reproduction carries an uncertainty derived here.  The
chi-squared quantiles come straight from ``scipy.special.gammaincinv``
(what scipy's ``chi2.ppf`` evaluates), so this module never loads
scipy's slow-to-import ``stats`` package.
"""

from __future__ import annotations

import math

import numpy as np


def poisson_interval(counts: int, confidence: float = 0.68) -> tuple[float, float]:
    """Central confidence interval for a Poisson mean given ``counts``.

    Uses the exact Garwood (chi-squared) construction; returns ``(low, high)``
    bounds on the mean.  ``counts == 0`` gives a lower bound of exactly 0.
    """
    if counts < 0:
        raise ValueError(f"counts must be >= 0, got {counts}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    low = 0.0 if counts == 0 else _chi2_ppf(alpha / 2, 2 * counts) / 2
    high = _chi2_ppf(1 - alpha / 2, 2 * (counts + 1)) / 2
    return float(low), float(high)


def _chi2_ppf(q: float, df: float) -> float:
    """scipy's ``chi2.ppf(q, df)`` for ``0 < q < 1`` and ``df > 0``, by
    the same operation: ``2 * gammaincinv(df / 2, q)``."""
    from scipy.special import gammaincinv

    return 2 * gammaincinv(df / 2, q)


def ratio_error(
    numerator: float,
    numerator_error: float,
    denominator: float,
    denominator_error: float,
) -> float:
    """One-sigma error of a ratio by uncorrelated error propagation."""
    if denominator == 0:
        raise ValueError("denominator must be nonzero")
    ratio = numerator / denominator
    rel_sq = 0.0
    if numerator != 0:
        rel_sq += (numerator_error / numerator) ** 2
    rel_sq += (denominator_error / denominator) ** 2
    return abs(ratio) * math.sqrt(rel_sq)


def bootstrap_std(
    values: np.ndarray,
    statistic,
    n_resamples: int = 200,
    seed: int = 0,
) -> float:
    """Bootstrap standard error of ``statistic(values)``."""
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = np.random.default_rng(seed)
    estimates = np.empty(n_resamples)
    for i in range(n_resamples):
        resample = rng.choice(values, size=values.size, replace=True)
        estimates[i] = statistic(resample)
    return float(np.std(estimates, ddof=1))


def relative_fluctuation(series: np.ndarray) -> float:
    """Peak-to-peak fluctuation of a series relative to its mean.

    This is the statistic behind the paper's "less than 5 % fluctuation"
    stability claim: ``(max - min) / (2 * mean)`` — the symmetric half
    peak-to-peak excursion.
    """
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("series must be non-empty")
    mean = float(series.mean())
    if mean <= 0:
        raise ValueError("series mean must be positive")
    return float((series.max() - series.min()) / (2.0 * mean))


def coefficient_of_variation(series: np.ndarray) -> float:
    """Standard deviation over mean of a series."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValueError("series must be non-empty")
    mean = float(series.mean())
    if mean <= 0:
        raise ValueError("series mean must be positive")
    return float(series.std(ddof=0) / mean)
