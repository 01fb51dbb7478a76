"""Dense and single-stream oracles that only the tests use.

The package never builds an n x n covariance or draws a batch from one
stream; these reference routines check the O(n) closed forms and the
per-trial streams against the textbook constructions.
"""

import math

import numpy as np

from skysift.error_analysis import QuadFormSpectrum, _log_phi
from skysift.errors import ConfigError
from skysift.model import ClassStatistics
from skysift.simulator import _ar1_from_normals, _standard_normals_from_bits


def covariance_matrix(stats: ClassStatistics, horizon: int) -> np.ndarray:
    """Dense covariance of the sampled series: entry (i, j) = alpha * rho**|i-j|.

    Symmetric Toeplitz with exponentially decaying bands; positive definite
    for 0 < rho < 1.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    idx = np.arange(horizon)
    return stats.alpha * stats.rho ** np.abs(idx[:, None] - idx[None, :])


def kms_logdet(stats: ClassStatistics, n: int) -> float:
    """log-determinant of the n x n covariance: n * ln(alpha) + (n - 1) * ln(1 - rho**2).

    Works directly in log space; the determinant itself underflows for large
    dimensions, so it is never formed.  n < 1 is refused: the formula's
    (n - 1) term would not vanish.  ``detector.threshold`` is the difference
    of two of these plus the prior term.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    # log1p keeps precision when rho is close to 1 and 1 - rho**2 is tiny.
    return n * math.log(stats.alpha) + (n - 1) * math.log1p(-stats.rho * stats.rho)


def sample_matrix(
    stats: ClassStatistics, horizon: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Bulk sampler from a single stream: (n, horizon) matrix of trajectories.

    Law tests use this for very large n; it trades the per-trial stream
    contract for speed.
    """
    bits = rng.integers(0, 2**53, size=(n, horizon)).astype(float)
    return _ar1_from_normals(stats.alpha, stats.rho, _standard_normals_from_bits(bits))


def characteristic_function(spectrum: QuadFormSpectrum, omega: float) -> complex:
    """E[exp(1j*omega*Z)] for the weighted chi-squared statistic Z."""
    logmag, phase = _log_phi(spectrum, np.atleast_1d(np.asarray(omega, dtype=float)))
    value = np.exp(logmag) * (np.cos(phase) + 1j * np.sin(phase))
    return complex(value[0])
