"""Closed-form linear algebra for exponential-correlation Toeplitz matrices.

A matrix with entries alpha * rho**|i-j| has a tridiagonal inverse and a
two-factor determinant, so solves, quadratic forms, and log-determinants all
cost O(n) with no factorization.  The detector path relies on these closed
forms exclusively; dense matrices exist only in the tests' oracles.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "KmsMatrix",
    "kms_inverse_apply",
    "kms_logdet",
    "kms_quadratic_form",
    "kms_cholesky_factor",
]


@dataclass(frozen=True)
class KmsMatrix:
    """Compressed form of the n x n matrix with entries alpha * rho**|i-j|."""

    alpha: float
    rho: float
    dim: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie strictly in (0, 1), got {self.rho}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ConfigError(f"dim must be an integer >= 1, got {self.dim}")


def _check_shape(m: KmsMatrix, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != m.dim:
        raise ConfigError(
            f"vector has leading dimension {v.shape[0] if v.ndim else 0}, "
            f"expected {m.dim}"
        )
    return v

def kms_inverse_apply(m: KmsMatrix, v: np.ndarray) -> np.ndarray:
    """Apply the analytic inverse to a vector (or to each column of a matrix).

    The inverse is tridiagonal: rows 0 and n-1 carry (1, -rho), interior rows
    carry (-rho, 1 + rho**2, -rho), all divided by alpha * (1 - rho**2).
    O(n) per column; never builds the inverse.
    """
    v = _check_shape(m, v)
    rho = m.rho
    if m.dim == 1:
        return v / m.alpha
    out = np.empty_like(v)
    out[0] = v[0] - rho * v[1]
    out[-1] = v[-1] - rho * v[-2]
    if m.dim > 2:
        out[1:-1] = (1.0 + rho * rho) * v[1:-1] - rho * (v[:-2] + v[2:])
    out /= m.alpha * (1.0 - rho * rho)
    return out


def kms_logdet(m: KmsMatrix) -> float:
    """log-determinant: dim * ln(alpha) + (dim - 1) * ln(1 - rho**2).

    Works directly in log space; the determinant itself underflows for large
    dimensions, so it is never formed.
    """
    # log1p keeps precision when rho is close to 1 and 1 - rho**2 is tiny.
    return m.dim * math.log(m.alpha) + (m.dim - 1) * math.log1p(-m.rho * m.rho)


def kms_quadratic_form(m: KmsMatrix, v: np.ndarray) -> float:
    """v' * inverse(Sigma) * v via the running-sum decomposition.

    With s0 = sum of squares and s1 = sum of adjacent products, the form is
    ((1 + rho**2) * s0 - rho**2 * (v[0]**2 + v[-1]**2) - 2 * rho * s1)
    divided by alpha * (1 - rho**2).  The dim = 1 case collapses to
    v[0]**2 / alpha because (1 + rho**2) - 2 * rho**2 = 1 - rho**2.
    """
    v = _check_shape(m, v)
    if v.ndim != 1:
        raise ConfigError("quadratic form expects a single vector")
    s0 = float(v @ v)
    s1 = float(v[:-1] @ v[1:])
    edge = v[0] * v[0] + v[-1] * v[-1]
    return _quadratic_form_from_sums(m, s0, s1, edge)


def _quadratic_form_from_sums(m: KmsMatrix, s0, s1, edge):
    """The quadratic form from its sums; arrays of sums give one form per
    vector, each rounded exactly as :func:`kms_quadratic_form` rounds it."""
    rho = m.rho
    num = (1.0 + rho * rho) * s0 - rho * rho * edge - 2.0 * rho * s1
    return num / (m.alpha * (1.0 - rho * rho))


def kms_cholesky_factor(m: KmsMatrix) -> np.ndarray:
    """Dense lower Cholesky factor, written entrywise from the AR(1) structure.

    Column 0 is sqrt(alpha) * rho**i; column j >= 1 is
    sqrt(alpha * (1 - rho**2)) * rho**(i - j) for i >= j.  O(n^2) memory:
    neither the detector nor the error analysis uses it; the tests build
    their dense eigenvalue oracle from it.
    """
    n, rho = m.dim, m.rho
    i = np.arange(n)
    # rho**(i - j) below the diagonal, zero above
    powers = rho ** np.clip(i[:, None] - i[None, :], 0, None)
    lower = np.tril(powers)
    lower *= math.sqrt(m.alpha * (1.0 - rho * rho))
    lower[:, 0] = math.sqrt(m.alpha) * rho**i
    return lower
