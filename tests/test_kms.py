import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skysift as sk
from oracles import covariance_matrix, kms_logdet
from skysift.errors import ConfigError
from skysift.kms import (
    kms_cholesky_factor,
    kms_inverse_apply,
    kms_quadratic_form,
)


def test_inverse_apply_hand_case():
    # dim 3, alpha=1, rho=0.5, v = e0: first row of the tridiagonal inverse
    m = sk.ClassStatistics(alpha=1.0, rho=0.5)
    out = kms_inverse_apply(m, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(out, [4.0 / 3.0, -2.0 / 3.0, 0.0], rtol=1e-15)


def test_quadratic_form_hand_case():
    m = sk.ClassStatistics(alpha=1.0, rho=0.5)
    assert kms_quadratic_form(m, np.array([1.0, 1.0])) == pytest.approx(
        4.0 / 3.0, rel=1e-15
    )


def test_overflowing_quadratic_form_is_refused():
    """(1.2e154, 0.5) has finite sums but a form past the largest double:
    refused by name, with no numpy warning first, for either class pair."""
    y = np.array([1.2e154, 0.5])
    for m in (sk.ClassStatistics(alpha=1.0, rho=0.5), sk.Scenario.default().stats1()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="quadratic form overflows"):
                kms_quadratic_form(m, y)


def test_logdet_frozen_value():
    m = sk.ClassStatistics(alpha=0.5, rho=math.exp(-0.5))
    value = kms_logdet(m, 20)
    assert value == pytest.approx(-22.57777137355346, abs=1e-12)
    assert value == pytest.approx(20 * math.log(0.5) + 19 * math.log1p(-math.exp(-1.0)))


@pytest.mark.parametrize("dim", [1, 2, 3, 7, 19, 40])
def test_matches_dense_oracles(dim):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        alpha = float(rng.uniform(0.05, 5.0))
        rho = float(rng.uniform(0.05, 0.95))
        m = sk.ClassStatistics(alpha=alpha, rho=rho)
        cov = covariance_matrix(m, dim)
        v = rng.normal(size=dim)

        dense_solve = np.linalg.solve(cov, v)
        np.testing.assert_allclose(kms_inverse_apply(m, v), dense_solve, rtol=1e-10, atol=1e-12)
        assert kms_logdet(m, dim) == pytest.approx(np.linalg.slogdet(cov)[1], rel=1e-12)
        assert kms_quadratic_form(m, v) == pytest.approx(float(v @ dense_solve), rel=1e-10)


def test_inverse_apply_matrix_argument():
    m = sk.ClassStatistics(alpha=0.8, rho=0.3)
    cols = np.random.default_rng(0).normal(size=(5, 4))
    batched = kms_inverse_apply(m, cols)
    for j in range(4):
        np.testing.assert_array_equal(batched[:, j], kms_inverse_apply(m, cols[:, j]))


def test_inverse_apply_is_true_inverse():
    m = sk.ClassStatistics(alpha=0.8, rho=0.3)
    cov = covariance_matrix(m, 6)
    np.testing.assert_allclose(cov @ kms_inverse_apply(m, np.eye(6)), np.eye(6), atol=1e-14)


def test_cholesky_factor():
    m = sk.ClassStatistics(alpha=0.5, rho=math.exp(-0.5))
    lower = kms_cholesky_factor(m, 8)
    assert np.array_equal(lower, np.tril(lower))
    cov = covariance_matrix(m, 8)
    np.testing.assert_allclose(lower @ lower.T, cov, atol=1e-15)
    # positive diagonal makes the factor unique, so it matches the dense one
    np.testing.assert_allclose(lower, np.linalg.cholesky(cov), atol=1e-14)


def test_dim_one_collapses():
    m = sk.ClassStatistics(alpha=0.25, rho=0.5)
    np.testing.assert_array_equal(kms_inverse_apply(m, np.array([2.0])), [8.0])
    assert kms_quadratic_form(m, np.array([2.0])) == 16.0
    assert kms_logdet(m, 1) == math.log(0.25)


def test_shape_validation():
    m = sk.ClassStatistics(alpha=1.0, rho=0.5)
    with pytest.raises(ConfigError):
        kms_quadratic_form(m, np.zeros((3, 2)))
    for bad in (np.zeros(0), np.zeros((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(ConfigError):
            kms_inverse_apply(m, bad)


@pytest.mark.parametrize("n", [0, -3])
def test_dimension_below_one_is_refused(n):
    """The empty matrix's log-determinant is 0, not the formula's
    -ln(1 - rho**2) at n = 0; both functions refuse n < 1 by name."""
    m = sk.ClassStatistics(alpha=1.0, rho=0.5)
    for fn in (kms_logdet, kms_cholesky_factor):
        with pytest.raises(ConfigError, match=f"n must be >= 1, got {n}"):
            fn(m, n)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0, rho=0.5),
        dict(alpha=1.0, rho=1.0),
        dict(alpha=1.0, rho=-0.2),
    ],
)
def test_constructor_validation(kwargs):
    # the kms functions take the class's statistics, which refuse these
    with pytest.raises(ConfigError):
        sk.ClassStatistics(**kwargs)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1e-3, 1e3),
    rho=st.floats(1e-6, 1.0 - 1e-6, exclude_max=True),
    dim=st.integers(1, 30),
    seed=st.integers(0, 2**31),
)
def test_quadratic_form_positive_definite(alpha, rho, dim, seed):
    v = np.random.default_rng(seed).normal(size=dim)
    m = sk.ClassStatistics(alpha=alpha, rho=rho)
    form = kms_quadratic_form(m, v)
    assert form > 0.0
    assert form == pytest.approx(float(v @ kms_inverse_apply(m, v)), rel=1e-9)
