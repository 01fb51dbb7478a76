"""Closed-form linear algebra for exponential-correlation Toeplitz matrices.

A matrix with entries alpha * rho**|i-j| has a tridiagonal inverse, so
solves and quadratic forms cost O(n) with no factorization; (alpha, rho)
come from ``ClassStatistics``.
The detector and the error analysis use only these closed forms; the dense
:func:`kms_cholesky_factor` serves the tests' oracles and the benchmark.
"""

import math

import numpy as np

from .errors import ConfigError
from .model import ClassStatistics

__all__ = [
    "kms_inverse_apply",
    "kms_quadratic_form",
    "kms_cholesky_factor",
]


def _check_shape(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] < 1:
        raise ConfigError(f"expected a non-empty vector or matrix, got shape {v.shape}")
    return v


def kms_inverse_apply(stats: ClassStatistics, v: np.ndarray) -> np.ndarray:
    """Apply the analytic inverse to a vector (or to each column of a matrix).

    The inverse is tridiagonal: rows 0 and n-1 carry (1, -rho), interior rows
    carry (-rho, 1 + rho**2, -rho), all divided by alpha * (1 - rho**2).
    O(n) per column; never builds the inverse.
    """
    v = _check_shape(v)
    rho = stats.rho
    if v.shape[0] == 1:
        return v / stats.alpha
    out = np.empty_like(v)
    out[0] = v[0] - rho * v[1]
    out[-1] = v[-1] - rho * v[-2]
    if v.shape[0] > 2:
        out[1:-1] = (1.0 + rho * rho) * v[1:-1] - rho * (v[:-2] + v[2:])
    out /= stats.alpha * (1.0 - rho * rho)
    return out


def _check_dim(n: int) -> None:
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")


def kms_quadratic_form(stats: ClassStatistics, v: np.ndarray) -> float:
    """v' * inverse(Sigma) * v via the running-sum decomposition.

    With s0 = sum of squares and s1 = sum of adjacent products, the form is
    ((1 + rho**2) * s0 - rho**2 * (v[0]**2 + v[-1]**2) - 2 * rho * s1)
    divided by alpha * (1 - rho**2).  The n = 1 case collapses to
    v[0]**2 / alpha because (1 + rho**2) - 2 * rho**2 = 1 - rho**2.  A form
    that overflows is refused.
    """
    v = _check_shape(v)
    if v.ndim != 1:
        raise ConfigError("quadratic form expects a single vector")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        edge = v[0] * v[0] + v[-1] * v[-1]
        form = _quadratic_form_from_sums(stats, float(v @ v), float(v[:-1] @ v[1:]), edge)
    if not math.isfinite(form):
        raise ConfigError(f"quadratic form overflows to {form}")
    return form


def _quadratic_form_from_sums(stats: ClassStatistics, s0, s1, edge):
    """The quadratic form from its sums; arrays of sums give one form per
    vector, each rounded exactly as :func:`kms_quadratic_form` rounds it."""
    rho = stats.rho
    num = (1.0 + rho * rho) * s0 - rho * rho * edge - 2.0 * rho * s1
    return num / (stats.alpha * (1.0 - rho * rho))


def kms_cholesky_factor(stats: ClassStatistics, n: int) -> np.ndarray:
    """Dense n x n lower Cholesky factor, written entrywise from the AR(1) structure.

    Column 0 is sqrt(alpha) * rho**i; column j >= 1 is
    sqrt(alpha * (1 - rho**2)) * rho**(i - j) for i >= j.  O(n^2) memory:
    neither the detector nor the error analysis uses it; the tests build
    their dense eigenvalue oracle from it.  n < 1 is refused.
    """
    _check_dim(n)
    rho = stats.rho
    i = np.arange(n)
    # rho**(i - j) below the diagonal, zero above
    powers = rho ** np.clip(i[:, None] - i[None, :], 0, None)
    lower = np.tril(powers)
    lower *= math.sqrt(stats.alpha * (1.0 - rho * rho))
    lower[:, 0] = math.sqrt(stats.alpha) * rho**i
    return lower
