import cmath
import functools
import hashlib
import json
import logging
import math
import time
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc
from scipy.stats import chi2

import skysift as sk
from oracles import (
    characteristic_function,
    cut_integrals_mp,
    gil_pelaez_mp,
    quad_form_cdf_mp,
    sample_matrix,
)
from skysift import error_analysis
from skysift.detector import detector_from_scenario, threshold
from skysift.error_analysis import (
    AccuracyBudget,
    ErrorReport,
    QuadFormSpectrum,
    _cut_cdf,
    _direct_partial_sum,
    _head_len,
    _phi_arrays,
    _series_fallback,
    accuracy_budget,
    cdf_quadratic_form_raw,
    error_surface,
    q_sigma_eigenvalues,
    total_error,
)
from skysift.errors import ConfigError, NumericalError
from skysift.experiments import write_surface_csv
from skysift.kms import kms_cholesky_factor, kms_inverse_apply

# Frozen fixtures for the default scenario (horizon 20), cross-checked against
# dense eigensolves and a closed-form trace identity when first computed.
SPECTRUM1_TRACE = -29.73651465857662
SPECTRUM2_TRACE = -8.673527078495063
TOTAL_ERROR = 0.08114205841905656
MISS_GIVEN_1 = 0.10547048990859254
MISS_GIVEN_2 = 0.05681362692952058
BUDGET1_N = 129
BUDGET2_N = 39
BUDGET1_STEP = 0.016096294043867067
BUDGET2_STEP = 0.11049526837716246


def closed_form_cdf(eigenvalue: float, z: float) -> float:
    """Pr(eigenvalue * chisq_1 <= z), the single-eigenvalue oracle."""
    if eigenvalue > 0:
        return float(chi2.cdf(z / eigenvalue, df=1)) if z > 0 else 0.0
    return float(chi2.sf(z / eigenvalue, df=1)) if z < 0 else 1.0


def closed_form_cdf_pair(eigenvalue: float, z: float) -> float:
    """Pr(eigenvalue * chisq_2 <= z); chisq_2 is Exponential(1/2)."""
    if eigenvalue > 0:
        return 1.0 - math.exp(-z / (2 * eigenvalue)) if z > 0 else 0.0
    return math.exp(-z / (2 * eigenvalue)) if z < 0 else 1.0


# the default error-surface grid: class 2 as these ratios of class 1's
# mass and gain
SURFACE_RATIOS = [float(r) for r in np.geomspace(0.25, 4.0, 5)]


def dense_spectrum(stats1, stats2, horizon, hypothesis):
    """Dense oracle: eigvalsh of the symmetric similar matrix L' Q L, where
    L is the analytic Cholesky factor of the hypothesis covariance and
    Q = Sigma1^-1 - Sigma2^-1 is applied column by column.  O(n^3)."""
    stats_h = stats1 if hypothesis == 1 else stats2
    lower = kms_cholesky_factor(stats_h, horizon)
    q_lower = kms_inverse_apply(stats1, lower) - kms_inverse_apply(stats2, lower)
    sym = lower.T @ q_lower
    return np.linalg.eigvalsh((sym + sym.T) / 2.0)


def pencil_count_below(stats1, stats2, horizon, hypothesis, sigmas, dps=40):
    """Exact-count oracle: the number of eigenvalues below each sigma.

    Sigma_h^-1 is positive definite, so by Sylvester's law of inertia that
    number is the count of negative pivots in the LDL' factorization of the
    tridiagonal Q - sigma * Sigma_h^-1.  The pivots are computed in 40-digit
    arithmetic from the exact binary inputs, so the count is exact for any
    sigma not within ~1e-30 of an eigenvalue.
    """
    with mpmath.workdps(dps):
        coefs = []
        for stats in (stats1, stats2):
            a, r = mpmath.mpf(stats.alpha), mpmath.mpf(stats.rho)
            c = 1 / (a * (1 - r * r))
            # each inverse: c * ((1 + r^2) I - r S - r^2 E)
            coefs.append((c * (1 + r * r), -c * r, -c * r * r))
        h = coefs[hypothesis - 1]
        counts = []
        for sigma in sigmas:
            s = mpmath.mpf(float(sigma))
            diag, off, corner = (
                coefs[0][i] - coefs[1][i] - s * h[i] for i in range(3)
            )
            count, pivot = 0, None
            for k in range(horizon):
                entry = diag + corner * ((k == 0) + (k == horizon - 1))
                pivot = entry if pivot is None else entry - off * off / pivot
                if pivot == 0:
                    pivot = mpmath.mpf(10) ** (-dps)
                count += pivot < 0
            counts.append(count)
        return counts


def _inverse_density(stats, w):
    """1 / f(theta) for the AR(1) spectral density f, at w = sin(theta/2)^2."""
    rho = stats.rho
    return ((1 - rho) ** 2 + 4 * rho * w) / (stats.alpha * (1 - rho * rho))


def symbol_range(stats1, stats2, hypothesis):
    """Range over theta of (1/f1 - 1/f2) * f_h: a ratio of two linear
    functions of sin(theta/2)^2, so its extremes sit at theta = 0 and pi."""
    stats_h = stats1 if hypothesis == 1 else stats2
    ends = [
        (_inverse_density(stats1, w) - _inverse_density(stats2, w))
        / _inverse_density(stats_h, w)
        for w in (0.0, 1.0)
    ]
    return min(ends), max(ends)


def term_scale(stats1, stats2, hypothesis):
    """Largest eigenvalue of either term of Q * Sigma_h, Sigma_i^-1 * Sigma_h,
    which lies in the range of f_h / f_i.  An oracle that forms Q rounds
    relative to this size, however small the difference is."""
    stats_h = stats1 if hypothesis == 1 else stats2
    return max(
        _inverse_density(stats, w) / _inverse_density(stats_h, w)
        for stats in (stats1, stats2)
        for w in (0.0, 1.0)
    )


def spectra_for(scenario, kf=None):
    kf = kf or scenario.sampling.horizon
    st1, st2 = scenario.stats1(), scenario.stats2()
    return (
        q_sigma_eigenvalues(st1, st2, kf, hypothesis=1),
        q_sigma_eigenvalues(st1, st2, kf, hypothesis=2),
    )


def test_spectra_frozen_traces(default_scenario):
    sp1, sp2 = spectra_for(default_scenario)
    assert float(np.sum(sp1.eigenvalues)) == pytest.approx(SPECTRUM1_TRACE, rel=1e-12)
    assert float(np.sum(sp2.eigenvalues)) == pytest.approx(SPECTRUM2_TRACE, rel=1e-12)


def test_spectrum_trace_closed_form(default_scenario):
    """Independent oracle: trace of (inverse-difference times covariance).

    tr(S1inv S1) = n cancels, so the trace reduces to -tr(S2inv S1), a sum
    over the tridiagonal bands with closed-form band sums.
    """
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    a1, r1 = st1.alpha, st1.rho
    a2, r2 = st2.alpha, st2.rho
    for n in (default_scenario.sampling.horizon, 100_000):
        diag = (2.0 + (n - 2) * (1.0 + r2 * r2)) * a1
        off = 2.0 * (n - 1) * r2 * (a1 * r1)
        expected = n - (diag - off) / (a2 * (1.0 - r2 * r2))
        started = time.perf_counter()
        sp1 = q_sigma_eigenvalues(st1, st2, n, hypothesis=1)
        elapsed = time.perf_counter() - started
        assert float(np.sum(sp1.eigenvalues)) == pytest.approx(expected, rel=1e-12)
    # the long horizon: O(n), and every eigenvalue inside the symbol's range
    assert elapsed < 1.0, f"horizon 100000 took {elapsed:.2f}s"
    lo, hi = symbol_range(st1, st2, 1)
    slack = 1e-12 * max(abs(lo), abs(hi))
    assert lo - slack <= sp1.eigenvalues[0] and sp1.eigenvalues[-1] <= hi + slack


@pytest.mark.parametrize("kf", [1, 2, 3, 5, 17, 20, 40, 200, 400])
def test_spectra_match_dense_eigensolve(default_scenario, kf):
    """Every cell of the default error-surface grid, both hypotheses,
    against the dense L' Q L oracle, to 1e-12 of the largest eigenvalue or,
    where the classes nearly coincide and the eigenvalues are tiny, of the
    terms the oracle subtracts (see term_scale)."""
    base = default_scenario.to_dict()
    for mass_ratio in SURFACE_RATIOS:
        for gain_ratio in SURFACE_RATIOS:
            cell = sk.Scenario.from_dict(
                dict(
                    base,
                    m2=base["m1"] * mass_ratio,
                    k2=base["k1"] * gain_ratio,
                    kf=kf,
                )
            )
            st1, st2 = cell.stats1(), cell.stats2()
            for hyp in (1, 2):
                dense = dense_spectrum(st1, st2, kf, hyp)
                analytic = q_sigma_eigenvalues(st1, st2, kf, hypothesis=hyp)
                error = np.max(np.abs(analytic.eigenvalues - dense))
                scale = max(np.max(np.abs(dense)), term_scale(st1, st2, hyp))
                assert error <= 1e-12 * scale, (
                    mass_ratio,
                    gain_ratio,
                    hyp,
                )



def one_hypothesis_spectrum(stats1, stats2, horizon, hypothesis):
    """The spectrum formula of q_sigma_eigenvalues, evaluated for one
    hypothesis with its own angle solve."""
    a1, r1 = stats1.alpha, stats1.rho
    a2, r2 = stats2.alpha, stats2.rho
    a_h = a1 if hypothesis == 1 else a2
    inverse_gap = (a2 - a1) / a1 / a2
    if r1 == r2 or horizon == 1:
        return np.full(horizon, a_h * inverse_gap)
    half_sin = np.sin(0.5 * error_analysis._eigen_angles(r1, r2, horizon))
    w = half_sin * half_sin
    x = (1.0 - r1) * (1.0 - r2) - 2.0 * (1.0 + r1 * r2) * w
    u1 = error_analysis._inverse_symbol(r1, w)
    u2 = error_analysis._inverse_symbol(r2, w)
    d = -2.0 * (r1 - r2) * x / ((1.0 - r1) * (1.0 + r1) * (1.0 - r2) * (1.0 + r2))
    u_h = u1 if hypothesis == 1 else u2
    u_lo = u1 if a1 <= a2 else u2
    return np.sort(a_h / u_h * (d / max(a1, a2) + u_lo * inverse_gap))


@pytest.mark.parametrize("kf", [1, 2, 5, 12, 13, 20, 400])
def test_shared_angle_solve_is_bit_identical(default_scenario, kf):
    """Both spectra of a report come from one angle solve, bit for bit equal
    to solving once per hypothesis, on every cell of the surface grid; below
    _ANGLE_ARRAY_MIN (13) that solve takes each root by _eigen_angle."""
    base = default_scenario.to_dict()
    for mass_ratio in SURFACE_RATIOS:
        for gain_ratio in SURFACE_RATIOS:
            cell = sk.Scenario.from_dict(
                dict(
                    base,
                    m2=base["m1"] * mass_ratio,
                    k2=base["k1"] * gain_ratio,
                    kf=kf,
                )
            )
            st1, st2 = cell.stats1(), cell.stats2()
            both = error_analysis._spectra(st1, st2, kf)
            for hyp in (1, 2):
                expected = one_hypothesis_spectrum(st1, st2, kf, hyp).tobytes()
                assert both[hyp - 1].eigenvalues.tobytes() == expected
                single = q_sigma_eigenvalues(st1, st2, kf, hypothesis=hyp)
                assert single.eigenvalues.tobytes() == expected


def test_total_error_solves_angles_once(monkeypatch, default_scenario):
    expected = total_error(default_scenario).total_error
    calls = []
    solve = error_analysis._eigen_angles

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(error_analysis, "_eigen_angles", counted)
    report = total_error(default_scenario)
    assert len(calls) == 1
    assert report.total_error == expected


@pytest.mark.parametrize("kf", [50, 200, 1000])
def test_long_horizon_report_solves_no_angle_array(monkeypatch, default_scenario, kf):
    """From _CLOSED_FORM_MIN on, the budget needs a few scalar angle solves
    and the direct series none: no report builds the eigenvalue array."""
    s = sk.Scenario.from_dict(dict(default_scenario.to_dict(), kf=kf))
    expected = total_error(s).total_error
    calls = []
    solve = error_analysis._eigen_angles

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(error_analysis, "_eigen_angles", counted)
    assert total_error(s).total_error == expected
    assert calls == []


_ALPHAS = st.floats(min_value=1e-3, max_value=1e3)
_RHOS = st.floats(min_value=1e-4, max_value=0.9999)


@settings(max_examples=60, deadline=None)
@given(
    alpha1=_ALPHAS,
    rho1=_RHOS,
    alpha2=_ALPHAS,
    rho2=_RHOS,
    horizon=st.integers(min_value=1, max_value=60),
    hypothesis=st.sampled_from([1, 2]),
)
def test_spectrum_matches_exact_eigenvalue_counts(
    alpha1, rho1, alpha2, rho2, horizon, hypothesis
):
    """Each sorted eigenvalue lies within 1e-12 of the largest |eigenvalue|
    of the exact one: the exact-count oracle puts at most m eigenvalues
    below lam_m - tol and at least m + 1 below lam_m + tol.  The dense
    oracle cannot serve here: at rho1 ~ rho2 ~ 0.9999 it is itself off by
    up to ~6e-10 of the largest eigenvalue (checked against 40-digit
    eigensolves)."""
    st1 = sk.ClassStatistics(alpha=alpha1, rho=rho1)
    st2 = sk.ClassStatistics(alpha=alpha2, rho=rho2)
    eigs = q_sigma_eigenvalues(st1, st2, horizon, hypothesis).eigenvalues
    assert np.all(np.diff(eigs) >= 0.0)
    # an exactly zero spectrum (equal alphas with equal rhos, or at horizon
    # 1) is checked to 1e-25 of the terms, far above the oracle's rounding
    tol = max(
        1e-12 * float(np.max(np.abs(eigs))),
        1e-25 * term_scale(st1, st2, hypothesis),
    )
    below_lo = pencil_count_below(st1, st2, horizon, hypothesis, eigs - tol)
    below_hi = pencil_count_below(st1, st2, horizon, hypothesis, eigs + tol)
    m = np.arange(horizon)
    assert np.all(np.array(below_lo) <= m)
    assert np.all(np.array(below_hi) >= m + 1)


def test_one_ulp_alpha_pair_converges():
    """The surface cell with mass ratio 2 and gain ratio 1/2: the alphas
    differ by one ulp while the rhos differ, so the angle solve must stop on
    its step size.  At horizon 1 the eigenvalue takes that one-ulp
    difference exactly."""
    base = sk.Scenario.default().to_dict()
    s = sk.Scenario.from_dict(
        dict(base, m2=base["m1"] * SURFACE_RATIOS[3], k2=base["k1"] * SURFACE_RATIOS[1])
    )
    st1, st2 = s.stats1(), s.stats2()
    assert st2.alpha == np.nextafter(st1.alpha, math.inf)
    assert st1.rho != st2.rho
    for hyp, alpha_h in ((1, st1.alpha), (2, st2.alpha)):
        dense = dense_spectrum(st1, st2, 20, hyp)
        got = q_sigma_eigenvalues(st1, st2, 20, hypothesis=hyp).eigenvalues
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
        scalar = q_sigma_eigenvalues(st1, st2, 1, hypothesis=hyp).eigenvalues[0]
        assert scalar == alpha_h * (st2.alpha - st1.alpha) / st1.alpha / st2.alpha
        assert scalar > 0.0


def test_equal_rho_gives_equal_eigenvalues():
    """Equal rhos make Q a multiple of Sigma_h^-1: one eigenvalue, n times."""
    st1 = sk.ClassStatistics(alpha=0.4, rho=0.3)
    st2 = sk.ClassStatistics(alpha=0.7, rho=0.3)
    for hyp, alpha_h in ((1, 0.4), (2, 0.7)):
        sp = q_sigma_eigenvalues(st1, st2, 12, hypothesis=hyp)
        assert np.all(sp.eigenvalues == sp.eigenvalues[0])
        assert sp.eigenvalues[0] == pytest.approx(
            alpha_h * (1 / 0.4 - 1 / 0.7), rel=1e-15
        )
        np.testing.assert_allclose(
            sp.eigenvalues, dense_spectrum(st1, st2, 12, hyp), rtol=1e-12
        )
    # the closed form handles equal rhos too
    assert_log_phi_matches_eigen_sum(0.4, 0.3, 0.7, 0.3, 60)


def test_angle_solve_cap_raises(monkeypatch, default_scenario):
    monkeypatch.setattr(error_analysis, "_NEWTON_MAX_ITER", 1)
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    with pytest.raises(NumericalError):
        q_sigma_eigenvalues(st1, st2, 20, hypothesis=1)


def test_phi_arrays_blocks_match_per_eigenvalue_loop(monkeypatch, default_scenario):
    """The blocked accumulation equals the one-eigenvalue-at-a-time loop up
    to summation order, whatever the block shape."""
    sp1, _ = spectra_for(default_scenario)
    eigs = sp1.eigenvalues
    u = np.linspace(0.0, 40.0, 301)
    logmag_ref = np.zeros_like(u)
    phase_ref = np.zeros_like(u)
    for lam in eigs:
        x = 2.0 * u * lam
        logmag_ref -= 0.25 * np.log1p(x * x)
        phase_ref += 0.5 * np.arctan(x)
    for block in (1, 7 * u.size, error_analysis._PHI_BLOCK):
        monkeypatch.setattr(error_analysis, "_PHI_BLOCK", block)
        logmag, phase = _phi_arrays(eigs, u)
        np.testing.assert_allclose(logmag, logmag_ref, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(phase, phase_ref, rtol=1e-13, atol=1e-13)


def assert_summary_matches_eigen_path(stats1, stats2, horizon, index):
    """Both hypotheses' O(1) budget summaries against the eigenvalues': kept
    order equal, extremes and signed ends within 4 ulp (an end the drop
    tolerance removes within that tolerance), log M(+-t) within 1e-12 of the
    summed terms' size sum_j |log(1 - 2s lam_j)| / 2 (log M itself can
    cancel to 1e-3 of it); every angle the summaries solved, and
    theta_index, equal to the vector solve's."""
    spectra = error_analysis._spectra(stats1, stats2, horizon)
    summaries = [sp._summary for sp in spectra]  # before the eigenvalues exist
    for sp, got in zip(spectra, summaries):
        want = error_analysis._eigen_summary(sp.kept())
        assert got.kept_order == want.kept_order
        for name in ("lambda_abs_max", "lambda_abs_min"):
            exact = getattr(want, name)
            assert abs(getattr(got, name) - exact) <= 4 * np.spacing(exact), name
        if want.kept_order == 0:  # identical classes
            assert got == want
            continue
        floor = error_analysis.DROP_TOLERANCE * want.lambda_abs_max
        for exact, end in zip(want.ends, got.ends):  # the O(1) ends may be dropped ones
            assert abs(end - exact) <= max(4 * abs(np.spacing(exact)), floor), (end, exact)
        t = 1.0 / (4.0 * want.lambda_abs_max)
        for s, closed, summed in zip((t, -t), got.log_mgf, want.log_mgf):
            size = 0.5 * float(np.sum(np.abs(np.log1p(-2.0 * s * sp.eigenvalues))))
            assert abs(closed - summed) <= 1e-12 * size, (closed, summed)
    r1, r2 = stats1.rho, stats2.rho
    if r1 != r2:
        angles = error_analysis._eigen_angles(r1, r2, horizon)
        for m in {*spectra[0].pair._at, min(index, horizon)}:
            assert error_analysis._eigen_angle(r1, r2, horizon, m) == angles[m - 1]


@settings(max_examples=60, deadline=None)
@given(
    alpha1=_ALPHAS,
    rho1=_RHOS,
    alpha2=_ALPHAS,
    rho2=_RHOS,
    horizon=st.integers(min_value=50, max_value=3000),
    index=st.integers(min_value=1, max_value=3000),
)
# rho near its 0.9999 bound: each n - 1 fold of log M lost (n - 1) eps
@example(alpha1=16.0, rho1=0.9998999999999999, alpha2=0.75, rho2=0.5, horizon=1913, index=1)
@example(alpha1=0.1837, rho1=0.8545, alpha2=16.27, rho2=0.99916, horizon=1852, index=1)
def test_budget_summary_matches_eigen_path(alpha1, rho1, alpha2, rho2, horizon, index):
    assert_summary_matches_eigen_path(
        sk.ClassStatistics(alpha=alpha1, rho=rho1),
        sk.ClassStatistics(alpha=alpha2, rho=rho2),
        horizon,
        index,
    )


@settings(max_examples=40, deadline=None)
@given(
    alpha=_ALPHAS,
    rho=st.floats(min_value=1e-4, max_value=0.9999 / (1 + 1e-5)),
    horizon=st.integers(min_value=50, max_value=3000),
    index=st.integers(min_value=1, max_value=3000),
)
def test_budget_summary_matches_eigen_path_near_identical(alpha, rho, horizon, index):
    """Class 2 at alpha ratio 1 + 1e-4 and rho ratio 1 + 1e-5."""
    assert_summary_matches_eigen_path(
        sk.ClassStatistics(alpha=alpha, rho=rho),
        sk.ClassStatistics(alpha=alpha * (1 + 1e-4), rho=rho * (1 + 1e-5)),
        horizon,
        index,
    )


@pytest.mark.parametrize("kf", [50, 51, 200, 999, 3000])
def test_budget_summary_matches_eigen_path_sign_change(default_scenario, kf):
    """The surface cell (mass 4, gain 0.25): both spectra change sign, so the
    smallest |lam| sits at the zero crossing inside the spectrum."""
    s = sk.Scenario.from_dict(dict(default_scenario.to_dict(), kf=kf, m2=4.0, k2=0.25))
    st1, st2 = s.stats1(), s.stats2()
    for sp in error_analysis._spectra(st1, st2, kf):
        assert sp.eigenvalues[0] < 0.0 < sp.eigenvalues[-1]
    assert_summary_matches_eigen_path(st1, st2, kf, kf // 3)


def ladder_rungs(summary, sign):
    """Every s, in units of t, that _chernoff_ladder may try on one side."""
    edge = summary.ends[1] if sign > 0 else -summary.ends[0]
    top = 16.0 if edge <= 0.0 else min(16.0, summary.lambda_abs_max / edge)
    return [min(2.0**k, top) for k in range(1, 5) if 2.0 ** (k - 1) < top]


@pytest.mark.parametrize("kf", [50, 51, 200, 999, 3000])
def test_log_mgf_matches_eigen_sum_on_every_rung(kf):
    """The surface grid: _log_mgf's closed form against the eigen-sum at
    every rung of the Chernoff ladder, both signs, to 1e-12 of the summed
    terms' size; every factor 1 - 2s lam there is at least 1/2."""
    rungs = 0
    for m in SURFACE_RATIOS:
        for g in SURFACE_RATIOS:
            if (m, g) == (1.0, 1.0):
                continue
            s = sk.Scenario.from_dict({"kf": kf, "m2": m, "k2": g})
            spectra = error_analysis._spectra(s.stats1(), s.stats2(), kf)
            summaries = [sp._summary for sp in spectra]
            assert "eigenvalues" not in vars(spectra[0].pair)  # the closed-form path
            for sp, summary in zip(spectra, summaries):
                t = 1.0 / (4.0 * summary.lambda_abs_max)
                for sign in (1, -1):
                    for rung in ladder_rungs(summary, sign):
                        x = -2.0 * sign * rung * t * sp.eigenvalues
                        assert np.min(x) >= -0.5 * (1.0 + 1e-12), (m, g, sign, rung)
                        terms = np.log1p(x)
                        summed = -0.5 * float(np.sum(terms))
                        closed = sp._log_mgf(sign * rung * t)
                        size = 0.5 * float(np.sum(np.abs(terms)))
                        assert abs(closed - summed) <= 1e-12 * size, (m, g, sign, rung)
                        rungs += rung > 1.0
    assert rungs >= 100


@settings(max_examples=40, deadline=None)
@given(
    alpha1=_ALPHAS,
    rho1=_RHOS,
    alpha2=_ALPHAS,
    rho2=_RHOS,
    horizon=st.integers(min_value=50, max_value=3000),
)
# the surface cell (mass 4, gain 0.25) drops one eigenvalue per hypothesis
# at its zero crossing; the second pair drops 2,997 of hypothesis 1's 3,000
@example(alpha1=0.5, rho1=0.6065306597126334, alpha2=0.5, rho2=0.9692332344763441, horizon=200)
@example(alpha1=1.0, rho1=0.9999, alpha2=2.0, rho2=0.5, horizon=3000)
# rhos one ulp apart: lam(0) and lam(pi) of hypothesis 1 differ by one ulp
@example(alpha1=1.0, rho1=1.0000000000000002e-4, alpha2=2.0, rho2=1e-4, horizon=50)
def test_budget_summary_finds_dropped_runs(alpha1, rho1, alpha2, rho2, horizon):
    """A drop tolerance of 1e-2 drops runs of eigenvalues about the zero
    crossing, up to one end: the summary's kept order is kept()'s, and its
    smallest kept |lam| within twice one symbol value's rounding (see
    assert_smallest_kept_lam); the rhos one ulp apart read 0.5 against the
    array's 0.49999999999999994."""
    st1 = sk.ClassStatistics(alpha=alpha1, rho=rho1)
    st2 = sk.ClassStatistics(alpha=alpha2, rho=rho2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(error_analysis, "DROP_TOLERANCE", 1e-2)
        spectra = error_analysis._spectra(st1, st2, horizon)
        summaries = [sp._summary for sp in spectra]
        for sp, got in zip(spectra, summaries):
            kept = sp.kept()
            assert got.kept_order == kept.size
            if kept.size:  # none for identical classes
                assert_smallest_kept_lam(got, kept)


def assert_smallest_kept_lam(summary, kept):
    """The summary's smallest kept |lam| against the array's: within
    32 eps max|lam|, twice one _symbols value's rounding, where rounding,
    not the symbol, orders neighbouring eigenvalues (see _summary)."""
    size = np.abs(kept)
    gap = abs(summary.lambda_abs_min - float(np.min(size)))
    assert gap <= 32.0 * np.finfo(float).eps * float(np.max(size)), gap


def test_budget_summary_reads_the_smallest_kept_lam_of_a_flat_symbol():
    """rho2 1 to 2,000 ulps above rho1, half of the rho1 near 1: the symbol
    is flat at an end of the spectrum, where rounding, not the symbol, orders
    neighbouring eigenvalues.  At both drop tolerances the O(1) summaries
    build no eigenvalue array, their kept order is kept()'s exactly, and
    their smallest kept |lam| is kept()'s up to that rounding."""
    rng = np.random.default_rng(2022)
    for _ in range(200):
        if rng.integers(2):
            rho1 = float(rng.uniform(1e-4, 0.9999))
        else:
            rho1 = float(1.0 - 10.0 ** rng.uniform(-4.0, -1.0))
        rho2 = rho1
        for _ in range(int(rng.integers(1, 2001))):
            rho2 = math.nextafter(rho2, 1.0)
        st1, st2 = (
            sk.ClassStatistics(alpha=float(10.0 ** rng.uniform(-3.0, 3.0)), rho=rho)
            for rho in (rho1, rho2)
        )
        horizon = int(rng.integers(50, 3001))
        for tolerance in (1e-12, 1e-2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(error_analysis, "DROP_TOLERANCE", tolerance)
                spectra = error_analysis._spectra(st1, st2, horizon)
                summaries = [sp._summary for sp in spectra]
                assert "eigenvalues" not in vars(spectra[0].pair), (st1, st2, horizon)
                for sp, got in zip(spectra, summaries):
                    kept = sp.kept()
                    assert got.kept_order == kept.size
                    assert_smallest_kept_lam(got, kept)


@pytest.mark.parametrize("kf", [200, 400, 600, 800, 1000])
@pytest.mark.parametrize("cell", [{}, {"m2": 1.0, "k2": 4.0}], ids=["default", "gain4"])
def test_monotone_summaries_solve_only_the_end_angles(kf, cell):
    """The default pair and the cell (mass 1, gain 4) have monotone spectra
    with no flat end: both summaries take the two end angles, theta_1 and
    theta_kf, and build no eigenvalue array."""
    s = sk.Scenario.from_dict({"kf": kf, **cell})
    spectra = error_analysis._spectra(s.stats1(), s.stats2(), kf)
    for sp in spectra:
        sp._summary
    assert set(spectra[0].pair._at) == {1, kf}
    assert "eigenvalues" not in vars(spectra[0].pair)


@pytest.mark.parametrize("kf", [10**8, 10**20])
def test_flat_end_past_the_array_limit_reports_without_an_array(kf):
    """The default pair's symbol is flat at the end of the spectrum that
    holds the smallest |lam| from about kf 3.2e6 on; past 2**24 eigenvalues
    its summary still takes that |lam| from the end angle, and the report
    stays within the target with no array built."""
    s = sk.Scenario.from_dict({"kf": kf})
    assert 0.0 <= total_error(s).total_error <= 1e-6
    spectra = error_analysis._spectra(s.stats1(), s.stats2(), kf)
    for sp in spectra:
        sp._summary
    assert "eigenvalues" not in vars(spectra[0].pair)


def test_q_sigma_eigenvalues_past_the_array_limit_is_refused(default_scenario):
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    with pytest.raises(NumericalError, match=r"2\*\*24"):
        q_sigma_eigenvalues(st1, st2, error_analysis._EIGENVALUES_MAX + 1, hypothesis=1)


def test_long_horizon_without_a_flat_end_still_reports():
    """The cell (mass 0.5, gain 4) stays O(1) at kf 1e8: no array is built."""
    s = sk.Scenario.from_dict({"kf": 10**8, "m2": 0.5, "k2": 4.0})
    report = total_error(s)
    assert 0.0 <= report.total_error <= 1e-6
    spectra = error_analysis._spectra(s.stats1(), s.stats2(), 10**8)
    for sp in spectra:
        sp._summary
    assert "eigenvalues" not in vars(spectra[0].pair)


def test_dropped_crossing_neighbour_past_the_array_limit_is_refused():
    """The cell (mass 4, gain 0.25) changes sign inside the spectrum; at
    kf 1e12 a neighbour of the zero crossing is dropped, so its summary needs
    the eigenvalue array, and past 2**24 of them the report is refused
    before any is built.  At kf 1e8 neither neighbour is dropped."""
    s = sk.Scenario.from_dict({"kf": 10**12, "m2": 4.0, "k2": 0.25})
    with pytest.raises(NumericalError, match=r"2\*\*24"):
        total_error(s)
    spectra = error_analysis._spectra(s.stats1(), s.stats2(), 10**12)
    with pytest.raises(NumericalError, match=r"2\*\*24"):
        spectra[0]._summary
    assert "eigenvalues" not in vars(spectra[0].pair)
    s = sk.Scenario.from_dict({"kf": 10**8, "m2": 4.0, "k2": 0.25})
    assert 0.0 <= total_error(s).total_error <= 1e-6


@pytest.mark.parametrize("n", [2, 3, 1000, 10**12, 10**30])
@pytest.mark.parametrize("error", [0, 1, -1, 1000, -1000, 10**20, -(10**20)])
def test_crossing_search_takes_logarithmically_many_calls(n, error):
    """_last_true on a predicate that holds up to ``last``: from a guess off
    by ``error`` it returns the last index in [1, n - 1] where the predicate
    holds (1 if none does), never calls it at 1 or n, and calls it at most
    2 log2|error| + 2 times; two times where the guess is right."""
    for last in sorted({0, 1, 2, n // 3, n - 2, n - 1}):
        calls = []

        def pred(m):
            calls.append(m)
            return m <= last

        got = error_analysis._last_true(pred, last + error, 1, n - 1)
        assert got == min(max(last, 1), n - 1), (last, error)
        assert all(1 < m < n for m in calls), (last, error)
        assert len(calls) <= 2 * abs(error).bit_length() + 2, (last, error, len(calls))
        if error == 0 and 1 < last < n - 1:
            assert len(calls) == 2


@pytest.mark.parametrize("kf", [10**24, 10**50, 10**300])
def test_crossing_far_from_its_float_estimate_is_found_at_once(kf):
    """The cell (mass 0.5, gain 4) changes sign inside the spectrum.  At
    kf 1e24 to 1e300 the float estimate of the crossing index is off by up
    to about 1e-16 of it: about 1e8 indices at kf 1e24, one angle solve
    each for a one-step walk, O(log) solves for the crossing search.  A
    neighbour of the crossing is dropped there, so the report is refused
    past 2**24 eigenvalues."""
    s = sk.Scenario.from_dict({"kf": kf, "m2": 0.5, "k2": 4.0})
    started = time.perf_counter()
    with pytest.raises(NumericalError, match=r"2\*\*24"):
        total_error(s)
    assert time.perf_counter() - started < 2.0


def test_degenerate_closed_form_summary_reads_the_eigenvalues(monkeypatch):
    """Where _log_mgf's closed form degenerates (it returns None), the O(1)
    summary is the eigen path's, from the eigenvalue array it builds."""
    monkeypatch.setattr(error_analysis._KmsSpectrum, "_log_mgf", lambda self, s: None)
    s = sk.Scenario.from_dict({"kf": 200})
    spectra = error_analysis._spectra(s.stats1(), s.stats2(), 200)
    summaries = [sp._summary for sp in spectra]
    assert "eigenvalues" in vars(spectra[0].pair)
    for sp, got in zip(spectra, summaries):
        assert got == error_analysis._eigen_summary(sp.kept())


def test_ladder_stops_where_the_closed_form_degenerates(monkeypatch):
    """kf 600 (mass 0.5, gain 4): hypothesis 1's ladder climbs to 2 t (see
    test_ladder_bound_skips_the_long_direct_sum); where _log_mgf returns
    None past t, it stops with the bound at t, rung 1."""
    s = sk.Scenario.from_dict({"kf": 600, "m2": 0.5, "k2": 4.0})
    z = threshold(detector_from_scenario(s))
    sp = error_analysis._spectra(s.stats1(), s.stats2(), 600)[0]
    log_target = math.log(1e-6)
    assert error_analysis._chernoff_ladder(sp, z, 1, log_target)[1] == 2.0
    closed_form = error_analysis._KmsSpectrum._log_mgf
    monkeypatch.setattr(
        error_analysis._KmsSpectrum,
        "_log_mgf",
        lambda self, s: None if abs(s) > self._summary.t else closed_form(self, s),
    )
    at_t = error_analysis._log_tail_bounds(sp, z)[0]
    assert error_analysis._chernoff_ladder(sp, z, 1, log_target) == (at_t, 1.0)


@pytest.mark.parametrize("kf", [50, 200, 1000, 3000])
def test_surface_grid_summaries_build_no_eigenvalues(kf):
    """The 11 x 11 grid of mass and gain ratios geomspace(0.1, 10): no O(1)
    summary, 242 per horizon, builds the eigenvalue array, so none meets a
    dropped eigenvalue."""
    ratios = np.geomspace(0.1, 10.0, 11).tolist()
    for m2 in ratios:
        for k2 in ratios:
            s = sk.Scenario.from_dict({"kf": kf, "m2": m2, "k2": k2})
            spectra = error_analysis._spectra(s.stats1(), s.stats2(), kf)
            for sp in spectra:
                sp._summary
            assert "eigenvalues" not in vars(spectra[0].pair), (m2, k2)


def assert_log_phi_matches_eigen_sum(alpha1, rho1, alpha2, rho2, horizon):
    """_log_phi's closed form against the eigen-sum _phi_arrays, both
    hypotheses, on a grid up to 50 / max|lam|: |phi| to 1e-10, and the phase
    mod 2 pi to 1e-10 wherever |phi| > 1e-12."""
    st1 = sk.ClassStatistics(alpha=alpha1, rho=rho1)
    st2 = sk.ClassStatistics(alpha=alpha2, rho=rho2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(error_analysis, "_CLOSED_FORM_MIN", 3)
        for spectrum in error_analysis._spectra(st1, st2, horizon):
            eigs = spectrum.eigenvalues
            u = np.linspace(0.0, 50.0 / (np.max(np.abs(eigs)) or 1.0), 257)
            logmag_ref, phase_ref = _phi_arrays(eigs, u)
            logmag, phase = spectrum._log_phi(u)
            phi_ref = np.exp(logmag_ref + 1j * phase_ref)
            assert np.max(np.abs(np.exp(logmag + 1j * phase) - phi_ref)) <= 1e-10
            shown = np.abs(phi_ref) > 1e-12
            turn = (phase - phase_ref + math.pi) % (2.0 * math.pi) - math.pi
            assert np.all(np.abs(turn[shown]) <= 1e-10)


@settings(max_examples=100, deadline=None)
@given(
    alpha1=_ALPHAS,
    rho1=_RHOS,
    alpha2=_ALPHAS,
    rho2=_RHOS,
    horizon=st.integers(min_value=3, max_value=2000),
)
def test_log_phi_matches_eigen_sum(alpha1, rho1, alpha2, rho2, horizon):
    assert_log_phi_matches_eigen_sum(alpha1, rho1, alpha2, rho2, horizon)


@settings(max_examples=100, deadline=None)
@given(
    alpha=_ALPHAS,
    rho=st.floats(min_value=1e-4, max_value=0.9999 / (1 + 1e-5)),
    horizon=st.integers(min_value=3, max_value=2000),
)
def test_log_phi_matches_eigen_sum_near_identical(alpha, rho, horizon):
    """Class 2 at alpha ratio 1 + 1e-4 and rho ratio 1 + 1e-5: the
    differences of the two inverses must not be formed as plain differences."""
    assert_log_phi_matches_eigen_sum(
        alpha, rho, alpha * (1 + 1e-4), rho * (1 + 1e-5), horizon
    )


@pytest.mark.parametrize("offset", [0, -1])
def test_log_phi_crossover(monkeypatch, default_scenario, offset):
    """At _CLOSED_FORM_MIN _spectra returns _KmsSpectrums and the closed
    form runs, one horizon below it plain spectra and the eigen-sum,
    unchanged; both agree with the oracle."""
    horizon = error_analysis._CLOSED_FORM_MIN + offset
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    kind = QuadFormSpectrum if offset < 0 else error_analysis._KmsSpectrum
    assert [type(sp) for sp in error_analysis._spectra(st1, st2, horizon)] == [kind, kind]
    assert_log_phi_matches_eigen_sum(st1.alpha, st1.rho, st2.alpha, st2.rho, horizon)
    calls = []
    eigen_sum = error_analysis._phi_arrays

    def counted(*args):
        calls.append(args)
        return eigen_sum(*args)

    monkeypatch.setattr(error_analysis, "_phi_arrays", counted)
    sp1, _ = spectra_for(default_scenario, horizon)
    u = np.linspace(0.0, 10.0, 101)
    logmag, phase = sp1._log_phi(u)
    assert len(calls) == (offset < 0)
    if calls:
        expected = eigen_sum(sp1.eigenvalues, u)
        assert logmag.tobytes() == expected[0].tobytes()
        assert phase.tobytes() == expected[1].tobytes()
    # a bare spectrum of the same eigenvalues always takes the eigen-sum
    bare = QuadFormSpectrum(sp1.eigenvalues)
    bare._log_phi(u)
    assert len(calls) == 1 + (offset < 0)


class DelegatingSpectrum(QuadFormSpectrum):
    """A spectrum type of its own: its quantities come from a plain spectrum
    through the evaluation interface, each call counted.  It holds no
    eigenvalues, so any other read of the spectrum fails."""

    def __init__(self, plain):
        object.__setattr__(self, "plain", plain)
        object.__setattr__(self, "calls", {"_summary": 0, "_log_phi": 0, "_log_mgf": 0})

    def __getattr__(self, name):
        raise AssertionError(f"{name} read outside the evaluation interface")

    def _count(self, name):
        self.calls[name] += 1
        return getattr(self.plain, name)

    @property
    def _summary(self):
        return self._count("_summary")

    def _log_phi(self, u):
        return self._count("_log_phi")(u)

    def _log_mgf(self, s):
        return self._count("_log_mgf")(s)


def test_budget_ladder_and_series_reach_a_spectrum_only_through_its_interface():
    """The surface cell (mass 4, gain 0.25) at kf 20: hypothesis 1's ladder
    climbs to 8 t.  A spectrum type that delegates the interface to a plain
    spectrum gets the plain spectrum's budget, ladder bound and directly
    summed CDF bit for bit, and is read through nothing else."""
    s = sk.Scenario.from_dict({"kf": 20, "m2": 4.0, "k2": 0.25})
    z = threshold(detector_from_scenario(s), 20)
    rungs = []
    for plain, sign in zip(spectra_for(s), (1, -1)):
        spectrum = DelegatingSpectrum(plain)
        budget = accuracy_budget(spectrum, z)
        assert budget == accuracy_budget(plain, z)
        log_target = math.log(budget.target)
        ladder = error_analysis._chernoff_ladder(spectrum, z, sign, log_target)
        assert ladder == error_analysis._chernoff_ladder(plain, z, sign, log_target)
        assert budget.n_terms <= error_analysis._DIRECT_CAP  # the direct sum
        raw = cdf_quadratic_form_raw(spectrum, z, budget)
        assert raw == cdf_quadratic_form_raw(plain, z, budget)
        assert spectrum.calls["_summary"] > 0 and spectrum.calls["_log_phi"] > 0
        rungs.append((ladder[1], spectrum.calls["_log_mgf"]))
    # hypothesis 1 climbs 2 t, 4 t and 8 t on _log_mgf; hypothesis 2 stops at t
    assert rungs == [(8.0, 3), (1.0, 0)]


def test_hypothesis1_eigenvalues_below_one():
    rng = np.random.default_rng(55)
    from conftest import make_scenario

    for _ in range(10):
        s = make_scenario(rng)
        sp1, _ = spectra_for(s)
        assert np.all(sp1.eigenvalues < 1.0)


def test_scalar_horizon_spectrum(default_scenario):
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    expected = (1.0 / st1.alpha - 1.0 / st2.alpha) * st1.alpha
    sp1 = q_sigma_eigenvalues(st1, st2, 1, hypothesis=1)
    assert sp1.eigenvalues[0] == pytest.approx(expected, rel=1e-14)
    sp2 = q_sigma_eigenvalues(st1, st2, 1, hypothesis=2)
    assert sp2.eigenvalues[0] == pytest.approx(
        (1.0 / st1.alpha - 1.0 / st2.alpha) * st2.alpha, rel=1e-14
    )


def test_identical_classes_zero_spectrum():
    st = sk.ClassStatistics(alpha=0.4, rho=0.3)
    sp = q_sigma_eigenvalues(st, st, 10, hypothesis=1)
    assert np.all(sp.eigenvalues == 0.0)
    assert sp.kept().size == 0
    # phi is exactly 1 along the closed-form path as well
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(error_analysis, "_CLOSED_FORM_MIN", 3)
        sp = q_sigma_eigenvalues(st, st, 10, hypothesis=1)
        assert isinstance(sp, error_analysis._KmsSpectrum)
        logmag, phase = sp._log_phi(np.linspace(0.0, 50.0, 11))
    assert np.all(logmag == 0.0) and np.all(phase == 0.0)


def test_spectrum_validation():
    with pytest.raises(ConfigError):
        QuadFormSpectrum(eigenvalues=np.ones((2, 2)))
    with pytest.raises(ConfigError):
        QuadFormSpectrum(eigenvalues=np.array([math.inf]))
    st = sk.ClassStatistics(alpha=0.4, rho=0.3)
    with pytest.raises(ConfigError):
        q_sigma_eigenvalues(st, st, 0, hypothesis=1)
    with pytest.raises(ConfigError):
        q_sigma_eigenvalues(st, st, 5, hypothesis=3)


def test_characteristic_function_basics(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    assert characteristic_function(sp1, 0.0) == 1.0 + 0.0j
    for omega in (0.3, 1.7, 12.0):
        phi = characteristic_function(sp1, omega)
        assert abs(phi) <= 1.0
        assert characteristic_function(sp1, -omega) == pytest.approx(phi.conjugate())
    mags = [abs(characteristic_function(sp1, w)) for w in np.linspace(0.0, 5.0, 40)]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_characteristic_function_single_eigenvalue_closed_form():
    sp = QuadFormSpectrum(eigenvalues=np.array([0.5]))
    for omega in (-3.0, -0.4, 0.7, 2.5):
        expected = (1.0 - 1j * omega) ** -0.5
        assert characteristic_function(sp, omega) == pytest.approx(expected, rel=1e-12)


def test_characteristic_function_matches_product_form(default_scenario):
    """kf 20 sums over the eigenvalues, kf 200 takes the closed form."""
    for kf in (20, 200):
        sp1, _ = spectra_for(default_scenario, kf)
        for omega in (0.2, 1.1, 4.0):
            product = complex(1.0)
            for lam in sp1.eigenvalues:
                product *= (1.0 - 2j * omega * lam) ** -0.5
            phi = characteristic_function(sp1, omega)
            assert phi == pytest.approx(product, rel=1e-10)


def test_budget_frozen_values(default_scenario):
    sp1, sp2 = spectra_for(default_scenario)
    z = threshold(detector_from_scenario(default_scenario))
    b1 = accuracy_budget(sp1, z, 1e-6)
    b2 = accuracy_budget(sp2, z, 1e-6)
    assert b1.n_terms == BUDGET1_N
    assert b2.n_terms == BUDGET2_N
    assert b1.grid_step == pytest.approx(BUDGET1_STEP, rel=1e-12)
    assert b2.grid_step == pytest.approx(BUDGET2_STEP, rel=1e-12)
    assert b1.chernoff_t == pytest.approx(
        1.0 / (4.0 * np.max(np.abs(sp1.eigenvalues))), rel=1e-14
    )
    assert b1.kept_order == 20
    for sp, b in ((sp1, b1), (sp2, b2)):
        assert b.n_terms == imhof_n_terms(b, geometric_mean_abs(sp.kept()))


def geometric_mean_abs(eigenvalues) -> float:
    return math.exp(float(np.mean(np.log(np.abs(eigenvalues)))))


def imhof_n_terms(budget, g: float) -> int:
    """Imhof's term count ceil((pi k target / 4)^(-2/k) / (2 delta G)) at G = g."""
    k = budget.kept_order
    return math.ceil(1.0 / (2.0 * budget.grid_step * g) * (math.pi / 4.0 * budget.target * k) ** (-2.0 / k))


@pytest.mark.parametrize(
    "overrides, n_terms",
    [
        ({"kf": 5}, (3_596, 1_421)),
        ({"kf": 20}, (129, 39)),
        ({"kf": 20, "m2": 1.0, "k2": 0.25}, (131, 941)),
        ({"kf": 20, "m2": 0.5, "k2": 2.0}, (60, 45)),
    ],
)
def test_budget_term_counts_at_the_geometric_mean(overrides, n_terms):
    """Imhof's product bound at the geometric mean of the kept |lam|: the
    series the smallest |lam| set were 15,647 / 3,428, 590 / 100, 702 /
    7,303 and 2,044 / 2,296 terms long."""
    s = sk.Scenario.from_dict(overrides)
    report = total_error(s)
    assert (report.budget_given_1.n_terms, report.budget_given_2.n_terms) == n_terms


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=40),
    spread=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    z=st.floats(min_value=-20.0, max_value=20.0),
    target=st.sampled_from([1e-4, 1e-6, 1e-10]),
)
def test_series_remainder_past_n_terms_is_within_half_the_target(k, spread, seed, z, target):
    """Kept spectra of k eigenvalues of either sign, |lam| from 1 to
    10**spread: the remainder (1/pi) sum_(i > N) |phi(u_i)| / (i + 1/2) past
    the budget's N is at most target/2, with the terms up to M = N + 2**16
    summed and the rest bounded by (2/(pi k)) prod_j (2 M delta |lam_j|)^(-1/2).
    Where every 2 u |lam_j| is large the bound is exact to float64 rounding
    (k = 2, N = 2.4e12 at 1e-10 reads 1 - 5e-14 of target/2), so the
    comparison allows 1e-9 relative for the rounding of N and of the sums."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(0.0, spread, k)
    size[:2] = 1.0, 10.0**spread
    sp = QuadFormSpectrum(eigenvalues=size * rng.choice([-1.0, 1.0], k))
    budget = accuracy_budget(sp, z, target)
    n, delta = budget.n_terms, budget.grid_step
    index = np.arange(n + 1, n + (1 << 16) + 1, dtype=float) + 0.5
    logmag, _ = _phi_arrays(sp.eigenvalues, delta * index)
    summed = float(np.sum(np.exp(logmag) / index)) / math.pi
    top = delta * (n + (1 << 16))
    beyond = 2.0 / (math.pi * k) * math.exp(-0.5 * float(np.sum(np.log(2.0 * top * size))))
    assert summed + beyond <= 0.5 * target * (1.0 + 1e-9), (summed, beyond)


def test_budget_tightens_with_target(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    z = threshold(detector_from_scenario(default_scenario))
    loose = accuracy_budget(sp1, z, 1e-4)
    tight = accuracy_budget(sp1, z, 1e-8)
    assert tight.grid_step < loose.grid_step
    assert tight.n_terms > loose.n_terms


def test_budget_refinement_scales_grid(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    z = threshold(detector_from_scenario(default_scenario))
    budget = accuracy_budget(sp1, z, 1e-6)
    refined = budget.refined(4)
    assert refined.grid_step == budget.grid_step / 4
    assert refined.n_terms == budget.n_terms * 4
    assert refined.target == budget.target


def test_budget_validation(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    with pytest.raises(ConfigError):
        accuracy_budget(sp1, 0.0, target=0.0)
    with pytest.raises(ConfigError):
        accuracy_budget(sp1, 0.0, target=1.0)
    zero = QuadFormSpectrum(eigenvalues=np.zeros(3))
    with pytest.raises(ConfigError):
        accuracy_budget(zero, 0.0, target=1e-6)
    with pytest.raises(ConfigError):
        AccuracyBudget(
            target=1e-6,
            grid_step=-1.0,
            chernoff_bound=1.0,
            n_terms=10,
            lambda_abs_max=1.0,
            lambda_abs_min=0.5,
            kept_order=2,
        )
    with pytest.raises(ConfigError):
        AccuracyBudget(1e-6, 1.0, 0, 1.0, 1.0, 0.5, 2)  # n_terms below 1


@pytest.mark.parametrize("eigenvalue", [0.5, 2.0, -1.5])
def test_cdf_single_eigenvalue_oracle(eigenvalue):
    sp = QuadFormSpectrum(eigenvalues=np.array([eigenvalue]))
    sign = 1.0 if eigenvalue > 0 else -1.0
    for quantile in (0.3, 1.2, 3.5):
        z = sign * quantile * abs(eigenvalue)
        budget = accuracy_budget(sp, z, 1e-6)
        got = cdf_quadratic_form_raw(sp, z, budget)
        assert abs(got - closed_form_cdf(eigenvalue, z)) <= 1e-6


@pytest.mark.parametrize("eigenvalue", [0.7, -0.9])
def test_cdf_equal_pair_oracle(eigenvalue):
    sp = QuadFormSpectrum(eigenvalues=np.array([eigenvalue, eigenvalue]))
    sign = 1.0 if eigenvalue > 0 else -1.0
    for quantile in (0.2, 1.0, 4.0):
        z = sign * quantile * abs(eigenvalue)
        budget = accuracy_budget(sp, z, 1e-6)
        got = cdf_quadratic_form_raw(sp, z, budget)
        assert abs(got - closed_form_cdf_pair(eigenvalue, z)) <= 1e-6


def test_cdf_clamps_and_reports_raw(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    z = threshold(detector_from_scenario(default_scenario))
    budget = accuracy_budget(sp1, z, 1e-6)
    raw = cdf_quadratic_form_raw(sp1, z, budget)
    report = total_error(default_scenario)
    assert report.raw_cdf_given_1 == raw
    clamped = 1.0 - report.miss_given_1
    assert 0.0 <= clamped <= 1.0
    assert abs(raw - clamped) <= budget.target


def test_total_error_clamps_and_logs_an_excursion(monkeypatch, caplog, default_scenario):
    """Raw CDFs outside [0, 1] by less than the target, as the truncation
    bounds allow, are clamped in the report and logged at DEBUG level; a
    report inside [0, 1] logs nothing."""
    with caplog.at_level(logging.DEBUG, logger="skysift.error_analysis"):
        total_error(default_scenario)
        assert not [r for r in caplog.records if "excursion" in r.getMessage()]
        for raw, cdf in ((-5e-7, 0.0), (1.0 + 5e-7, 1.0)):
            caplog.clear()
            monkeypatch.setattr(error_analysis, "cdf_quadratic_form_raw", lambda *a: raw)
            report = total_error(default_scenario)
            assert report.raw_cdf_given_1 == report.raw_cdf_given_2 == raw
            assert (1.0 - report.miss_given_1, report.miss_given_2) == (cdf, cdf)
            (record,) = [r for r in caplog.records if "excursion" in r.getMessage()]
            assert repr(raw) in record.getMessage()


def test_head_tail_split_matches_direct_summation():
    """Force the asymptotic tail machinery on a case where brute force works."""
    sp = QuadFormSpectrum(eigenvalues=np.array([0.7, 0.7]))
    z = 3.0
    budget = accuracy_budget(sp, z, 1e-6)
    assert budget.n_terms > 1 << 21  # needs the tail path at the real cap
    tol = 1e-3 * budget.target * math.pi
    direct = _direct_partial_sum(sp, z, budget.grid_step, budget.n_terms)
    split = _series_fallback(sp, z, budget, tol)
    assert abs(direct - split) <= 1e-9


def series_cdf(monkeypatch, sp, z, budget, direct_cap):
    """cdf_quadratic_form_raw with the branch cuts off and the direct-sum
    cap at direct_cap: a series past it takes the head + tail fallback."""
    monkeypatch.setattr(error_analysis, "_cut_cdf", lambda *args: None)
    monkeypatch.setattr(error_analysis, "_DIRECT_CAP", direct_cap)
    return cdf_quadratic_form_raw(sp, z, budget)


def series_cases(overrides):
    """(spectrum, z, budget, tol) of both hypotheses of one scenario."""
    s = sk.Scenario.from_dict(overrides)
    z = threshold(detector_from_scenario(s))
    for sp in spectra_for(s):
        budget = accuracy_budget(sp, z, 1e-6)
        yield sp, z, budget, 1e-3 * budget.target * math.pi


def test_series_ending_before_the_tail_is_summed_directly(monkeypatch):
    # hypothesis 2 of this cell needs 24,928 terms but its tail could start
    # only at 115,171; a cap below the series length used to ask the power
    # sums for an empty range such as [115171, 24928]
    _, (sp, z, budget, tol) = series_cases({"kf": 6, "m2": 1.0, "k2": 0.0625})
    assert budget.n_terms == 24_928
    assert _head_len(budget.lambda_abs_min, budget.grid_step) == 115_171
    forced = series_cdf(monkeypatch, sp, z, budget, 1 << 14)
    direct = series_cdf(monkeypatch, sp, z, budget, 1 << 21)
    assert abs(forced - direct) <= tol / math.pi


def test_series_past_the_cap_tries_the_cuts_first(monkeypatch):
    """kf 8 (mass 1, gain 0.1) at 1e-10: hypothesis 2's series has 129,201
    terms, past _DIRECT_CAP but before its tail could start (146,777).  The
    router takes the cut integrals, which certify it, not the direct sum;
    the value lies within the target of the direct sum's."""
    s = sk.Scenario.from_dict({"kf": 8, "m2": 1.0, "k2": 0.1, "prior1": 0.5})
    z = threshold(detector_from_scenario(s))
    _, sp = spectra_for(s)
    budget = accuracy_budget(sp, z, 1e-10)
    assert budget.n_terms == 129_201
    assert _head_len(budget.lambda_abs_min, budget.grid_step) == 146_777
    direct = 0.5 - _direct_partial_sum(sp, z, budget.grid_step, budget.n_terms) / math.pi

    def refuse(*args):
        raise AssertionError("_direct_partial_sum reached")

    monkeypatch.setattr(error_analysis, "_direct_partial_sum", refuse)
    assert abs(cdf_quadratic_form_raw(sp, z, budget) - direct) <= 1e-10


@functools.lru_cache(maxsize=None)
def refined_total_error(kf, m2, k2):
    """The total error of a scenario with both CDFs inverted on their
    report budgets refined 2x, as an oracle for the report's own grid."""
    s = sk.Scenario.from_dict({"kf": kf, "m2": m2, "k2": k2})
    z = threshold(detector_from_scenario(s))
    cdf1, cdf2 = (
        cdf_quadratic_form_raw(sp, z, accuracy_budget(sp, z).refined(2)) for sp in spectra_for(s)
    )
    return s.sampling.prior2 * cdf2 + s.sampling.prior1 * (1.0 - cdf1)


def test_direct_sum_stops_at_the_budget(monkeypatch):
    """kf 600 (mass 0.5, gain 4): hypothesis 1's tail would start past
    _HEAD_MAX, but its 6,512,189-term series ends before that; summing to
    _HEAD_MAX instead took 67,108,865 terms.  total_error takes that miss's
    Chernoff bound (see the next test), so the router is called directly."""
    ranges = []
    summed = error_analysis._direct_partial_sum

    def recording(spectrum, z, delta, i_last):
        ranges.append(i_last)
        return summed(spectrum, z, delta, i_last)

    s = sk.Scenario.from_dict({"kf": 600, "m2": 0.5, "k2": 4.0})
    z = threshold(detector_from_scenario(s))
    sp1, sp2 = spectra_for(s)
    budgets = [accuracy_budget(sp, z) for sp in (sp1, sp2)]
    assert [b.n_terms for b in budgets] == [6_512_189, 2_061_464]
    monkeypatch.setattr(error_analysis, "_direct_partial_sum", recording)
    miss = 1.0 - cdf_quadratic_form_raw(sp1, z, budgets[0])
    assert ranges == [6_512_189]
    assert abs(miss - (1.0 - total_error(s).raw_cdf_given_1)) <= 1e-6


def test_ladder_bound_skips_the_long_direct_sum(monkeypatch, caplog):
    """kf 600 (mass 0.5, gain 4): the Chernoff bound on hypothesis 1's miss
    is 4.0e-6 at t, but 1.6e-9 at s = 2t, so neither CDF is inverted; the
    6,512,189-term series of the test above took 1.6-2.0 s here."""

    def refuse(*args):
        raise AssertionError("cdf_quadratic_form_raw reached")

    monkeypatch.setattr(error_analysis, "cdf_quadratic_form_raw", refuse)
    s = sk.Scenario.from_dict({"kf": 600, "m2": 0.5, "k2": 4.0})
    with caplog.at_level(logging.DEBUG, logger="skysift.error_analysis"):
        started = time.perf_counter()
        report = total_error(s)
        elapsed = time.perf_counter() - started
    assert elapsed < 0.05, f"kf 600 took {elapsed * 1e3:.1f} ms"
    skips = [r.getMessage() for r in caplog.records if "inversion skipped" in r.getMessage()]
    assert [m.split(":")[0] for m in skips] == ["hypothesis 1", "hypothesis 2"]
    assert "at s = 2 t" in skips[0] and "(3.98292e-06 at t)" in skips[0]
    assert report.miss_given_2 <= 1e-12
    monkeypatch.undo()
    assert abs(report.total_error - refined_total_error(600, 0.5, 4.0)) <= 1e-6


def tail_bounds(sp, z):
    """(B+, B-) of _log_tail_bounds, inf where they overflow."""
    return tuple(math.exp(min(b, 709.0)) for b in error_analysis._log_tail_bounds(sp, z))


def ladder_bound(sp, z, hypothesis, target=1e-6):
    """The Chernoff ladder's bound on hypothesis 1's or 2's miss, and its
    bound at t (see tail_bounds); inf where they overflow."""
    log_b, _ = error_analysis._chernoff_ladder(sp, z, 3 - 2 * hypothesis, math.log(target))
    return math.exp(min(log_b, 709.0)), tail_bounds(sp, z)[hypothesis - 1]


@pytest.mark.parametrize("kf", [200, 400, 600])
def test_aliasing_bound_pairs_each_tail_with_its_alias(kf):
    """Cell (mass 0.5, gain 4): the aliases at z + 2 pi / grid_step are
    bounded by e^(-tz) M(t) and those at z - 2 pi / grid_step by
    e^(tz) M(-t).  Pairing each with the other sign's bound made the grid
    too coarse here: the reports read 3.0e-5, 1.7e-3 and 8.7e-3 against a
    2x refined grid's 5.1e-6, 2.0e-10 and 3.4e-14."""
    s = sk.Scenario.from_dict({"kf": kf, "m2": 0.5, "k2": 4.0})
    assert abs(total_error(s).total_error - refined_total_error(kf, 0.5, 4.0)) <= 1e-6


@pytest.mark.parametrize("kf", [5, 60, 400])
@pytest.mark.parametrize("m2", [0.5, 2.0])
def test_tail_bounds_dominate_the_chi2_law(kf, m2):
    """Equal rhos (gain / mass as class 1's) make Z = lam chi2_n, lam of
    either sign; both Chernoff bounds at t, and the ladder's bound on each
    tail, lie above its tails from gammainc/gammaincc over z from -4 to 4
    times |E Z|.  The tail on the side away from lam's sign may climb the
    ladder to 16 t; at kf 5 and 60 it does somewhere on this z grid (at
    kf 400 the bound at t is either within the target there, or its
    optimum s lies below t)."""
    s = sk.Scenario.from_dict({"kf": kf, "m2": m2, "k2": m2})
    rungs = set()
    for sp in spectra_for(s):
        lam = float(sp.eigenvalues[0])
        assert np.all(sp.eigenvalues == lam)
        for z in kf * abs(lam) * np.linspace(-4.0, 4.0, 41):
            x = z / (2.0 * lam)
            below = gammainc(0.5 * kf, x) if x > 0.0 else 0.0  # P(lam chi2 between 0 and z)
            above = gammaincc(0.5 * kf, x) if x > 0.0 else 1.0
            upper, lower = (above, below) if lam > 0.0 else (below, above)
            for sign, tail, at_t in zip((1, -1), (upper, lower), tail_bounds(sp, z)):
                assert tail <= at_t * (1.0 + 1e-12), (lam, z)
                log_b, rung = error_analysis._chernoff_ladder(sp, z, sign, math.log(1e-6))
                assert tail <= math.exp(min(log_b, 709.0)) * (1.0 + 1e-12), (lam, z, sign, rung)
                rungs.add(rung)
    assert max(rungs) > 1.0 or kf == 400


def test_no_report_exceeds_its_tail_bound():
    """The surface grid at kf 5-400 and certify-long: no miss probability
    lies above the ladder's Chernoff bound, beyond the rounding of 1 - B to
    half an ulp (a miss given 1 is reported through its CDF), and that bound
    never lies above the one at t."""
    scenarios = [
        {"kf": kf, "m2": m, "k2": g}
        for kf in (5, 20, 60, 200, 400)
        for m in SURFACE_RATIOS
        for g in SURFACE_RATIOS
        if (m, g) != (1.0, 1.0)
    ] + CERTIFY_LONG
    for overrides in scenarios:
        s = sk.Scenario.from_dict(overrides)
        report = total_error(s)
        for h, sp in enumerate(spectra_for(s), start=1):
            miss = report.miss_given_1 if h == 1 else report.miss_given_2
            bound, at_t = ladder_bound(sp, report.threshold, h)
            assert miss <= bound + 2.0**-54 and bound <= at_t, (overrides, h, miss, bound, at_t)


def test_long_horizon_report_takes_the_bounds(monkeypatch):
    """Cell (mass 4, gain 0.25) at kf 1e4: both misses are far below the
    target by their Chernoff bounds, so neither CDF is inverted; inverting
    hypothesis 1 took 4.5 s to print 5.9e-13."""

    def refuse(*args):
        raise AssertionError("cdf_quadratic_form_raw reached")

    monkeypatch.setattr(error_analysis, "cdf_quadratic_form_raw", refuse)
    s = sk.Scenario.from_dict({"kf": 10_000, "m2": 4.0, "k2": 0.25})
    started = time.perf_counter()
    report = total_error(s)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.05, f"kf 1e4 took {elapsed * 1e3:.1f} ms"
    assert 0.0 <= report.total_error <= 1e-100


def test_report_with_bounds_above_the_target_inverts_both_cdfs(default_scenario):
    """The default pair at kf 200: both Chernoff bounds on the misses exceed
    the target, so the report is the router's, bit for bit, and its value
    is pinned."""
    s = sk.Scenario.from_dict(dict(default_scenario.to_dict(), kf=200))
    sp1, sp2 = spectra_for(s)
    report = total_error(s)
    z = report.threshold
    assert tail_bounds(sp1, z)[0] > 1e-6 and tail_bounds(sp2, z)[1] > 1e-6
    raws = [cdf_quadratic_form_raw(sp, z, accuracy_budget(sp, z)) for sp in (sp1, sp2)]
    assert [report.raw_cdf_given_1, report.raw_cdf_given_2] == raws
    assert report.total_error == 3.9076215775368794e-06


def test_tail_crossover_matches_direct_summation(monkeypatch):
    """A sample of the surface grid at kf 3-8 (kf 2 needs ~8e12 terms): the
    default split agrees with direct summation to 2**21 terms."""
    split, cap = 0, error_analysis._DIRECT_CAP
    for kf in range(3, 9):
        for m, g in ((0, 3), (0, 4), (1, 4), (2, 0), (2, 1), (4, 1)):
            cell = {"kf": kf, "m2": SURFACE_RATIOS[m], "k2": SURFACE_RATIOS[g]}
            for sp, z, budget, tol in series_cases(cell):
                n = budget.n_terms
                if n > 1 << 21:
                    continue
                split += n > cap
                got = series_cdf(monkeypatch, sp, z, budget, cap)
                want = series_cdf(monkeypatch, sp, z, budget, 1 << 21)
                assert abs(got - want) <= tol / math.pi, (cell, n)
    assert split >= 10


@pytest.mark.parametrize("kf", [1, 2, 3, 20])
def test_total_error_is_a_python_float(default_scenario, kf):
    # kf <= 3 take the branch-cut integrals (numpy sums) or, at kf 1,
    # scipy's incomplete gamma
    s = sk.Scenario.from_dict(dict(default_scenario.to_dict(), kf=kf))
    report = total_error(s)
    for name in ("total_error", "miss_given_1", "miss_given_2", "raw_cdf_given_1"):
        assert type(getattr(report, name)) is float, name


def test_near_zero_eigenvalue_guard_raises():
    # one dropped eigenvalue that is not negligible over the huge tail range
    sp = QuadFormSpectrum(eigenvalues=np.array([1.0, 1e-13]))
    budget = accuracy_budget(sp, 0.5, 1e-6)
    assert budget.kept_order == 1
    with pytest.raises(NumericalError, match="near-zero eigenvalues"):
        cdf_quadratic_form_raw(sp, 0.5, budget)


def test_cdf_against_monte_carlo(default_scenario):
    """Law check: empirical CDF of the simulated statistic at the threshold."""
    s = default_scenario
    spec = detector_from_scenario(s)
    z = threshold(spec)
    n = 200_000
    samples = sample_matrix(s.stats2(), 20, n, np.random.default_rng(2718))
    stats = (
        spec.energy_coef * np.einsum("ij,ij->i", samples, samples)
        + spec.lag_coef * np.einsum("ij,ij->i", samples[:, :-1], samples[:, 1:])
        + spec.edge_coef * (samples[:, 0] ** 2 + samples[:, -1] ** 2)
    )
    empirical = float(np.mean(stats <= z))
    report = total_error(s)
    tolerance = 4 * math.sqrt(report.miss_given_2 * (1 - report.miss_given_2) / n) + 1e-6
    assert abs(empirical - report.miss_given_2) <= tolerance


def test_total_error_frozen_values(default_scenario):
    report = total_error(default_scenario)
    assert report.total_error == pytest.approx(TOTAL_ERROR, rel=1e-9)
    assert report.miss_given_1 == pytest.approx(MISS_GIVEN_1, rel=1e-9)
    assert report.miss_given_2 == pytest.approx(MISS_GIVEN_2, rel=1e-9)
    assert report.total_error == pytest.approx(
        0.5 * report.miss_given_1 + 0.5 * report.miss_given_2, rel=1e-12
    )
    assert not report.degenerate
    assert report.budget_given_1.n_terms == BUDGET1_N
    assert report.budget_given_2.n_terms == BUDGET2_N
    d = asdict(report)
    assert d["budget_given_1"]["n_terms"] == BUDGET1_N
    assert d["prior1"] == 0.5


def long_horizon_cases(default_scenario, kf, cell):
    """(spectrum, threshold) of both hypotheses of a scenario."""
    s = sk.Scenario.from_dict(dict(default_scenario.to_dict(), kf=kf, **cell))
    z = threshold(detector_from_scenario(s))
    return s, [(sp, z) for sp in error_analysis._spectra(s.stats1(), s.stats2(), kf)]


LONG_HORIZON_CELLS = pytest.mark.parametrize(
    "cell", [{}, {"m2": 1.0, "k2": 4.0}], ids=["default", "m1k4"]
)


@pytest.mark.parametrize("kf", [200, 1000, 10_000])
@LONG_HORIZON_CELLS
def test_closed_form_budget_matches_eigen_sum_budget(default_scenario, kf, cell):
    """The default pair and the surface cell (mass 1, gain 4): the O(1)
    budget equals the one summed over the eigenvalues in its kept order and
    extremes, and its grid step and Chernoff bound to 1e-12 relative.  Each
    term count is Imhof's at its own G: the smallest |lam| on the O(1) path,
    the geometric mean of the kept |lam| on the eigen path, so the O(1)
    count is never the shorter."""
    _, cases = long_horizon_cases(default_scenario, kf, cell)
    for sp, z in cases:
        closed = accuracy_budget(sp, z)
        summed = accuracy_budget(QuadFormSpectrum(sp.eigenvalues), z)
        for name in ("kept_order", "lambda_abs_max", "lambda_abs_min"):
            assert getattr(closed, name) == getattr(summed, name), name
        for name in ("grid_step", "chernoff_bound"):  # the bound is inf at kf 1e4
            got, want = getattr(closed, name), getattr(summed, name)
            assert got == want or abs(got - want) <= 1e-12 * want, name
        assert closed.n_terms == imhof_n_terms(closed, closed.lambda_abs_min)
        assert summed.n_terms == imhof_n_terms(summed, geometric_mean_abs(sp.kept()))
        assert closed.n_terms >= summed.n_terms


@pytest.mark.parametrize("kf", [200, 1000, 10_000])
@LONG_HORIZON_CELLS
def test_total_error_closed_form_matches_eigen_sum(default_scenario, kf, cell):
    """The default pair and the surface cell (mass 1, gain 4): the report
    through the closed form agrees with the eigen-sum's within the target,
    both on one shared budget per hypothesis.  total_error inverts a CDF
    through the closed form, bit for bit, unless the Chernoff ladder's bound
    on its miss is within the target; it then reports that bound, and both
    inversions lie within the target of it."""
    s, cases = long_horizon_cases(default_scenario, kf, cell)
    budgets = [accuracy_budget(sp, z) for sp, z in cases]
    reports = [
        ErrorReport(
            s.sampling.prior1,
            cases[0][1],
            *budgets,
            *(cdf_quadratic_form_raw(make(sp), z, b) for (sp, z), b in zip(cases, budgets)),
        )
        for make in (lambda sp: sp, lambda sp: QuadFormSpectrum(sp.eigenvalues))
    ]
    closed, summed = reports
    report = total_error(s)
    for h, ((sp, z), name) in enumerate(zip(cases, ("raw_cdf_given_1", "raw_cdf_given_2"))):
        bound, at_t = ladder_bound(sp, z, h + 1)
        assert bound <= at_t, name
        got = getattr(report, name)
        if bound > 1e-6:
            assert got == getattr(closed, name), name
            continue
        assert got == (1.0 - bound if h == 0 else bound), name
        for inverted in (closed, summed):
            assert abs(getattr(inverted, name) - got) <= 1e-6, name
    for name in ("total_error", "raw_cdf_given_1", "raw_cdf_given_2"):
        assert abs(getattr(closed, name) - getattr(summed, name)) <= 1e-6, name


def test_total_error_long_horizon():
    """The surface cell (mass 1, gain 4) at kf = 1e5: O(1) per grid point."""
    s = sk.Scenario.from_dict({"kf": 100_000, "m2": 1.0, "k2": 4.0})
    started = time.perf_counter()
    report = total_error(s)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"kf 1e5 took {elapsed:.2f}s"
    floor = min(s.sampling.prior1, s.sampling.prior2)
    assert math.isfinite(report.total_error)
    assert 0.0 <= report.total_error <= floor + 1e-6


def test_total_error_degenerate_path():
    s = sk.Scenario.from_dict({"m2": 1.0, "k2": 1.0, "prior1": 0.3})
    report = total_error(s)
    assert report.degenerate
    assert report.total_error == 0.3
    assert report.miss_given_1 == 1.0  # the fixed decision is class 2
    assert report.miss_given_2 == 0.0
    assert report.budget_given_1 is None
    assert report.budget_given_2 is None
    assert asdict(report)["budget_given_1"] is None
    # the pair needs no budget, yet a bad target is refused as on any other
    for target in (0.0, 1.0, 2.0, math.nan):
        with pytest.raises(ConfigError, match="target must lie in"):
            total_error(s, target)


@pytest.mark.parametrize("target", [1e-310, 1e-300, 1e-50, math.nextafter(1e-15, 0.0)])
def test_targets_below_the_floor_are_refused(target):
    """No float64 report certifies a target under 1e-15: each entry point
    refuses it with one ConfigError naming the floor, where 1e-310 used to
    divide by a zero grid step and 1e-300 to 1e-50 failed inside the series."""
    s = sk.Scenario.default()
    spectrum = q_sigma_eigenvalues(s.stats1(), s.stats2(), 20, 1)
    message = f"target {target!r} is below 1e-15, the finest a float64 report can certify"
    with pytest.raises(ConfigError) as refused:
        total_error(s, target)
    assert str(refused.value) == message
    with pytest.raises(ConfigError, match="is below 1e-15"):
        accuracy_budget(spectrum, 0.0, target)
    with pytest.raises(ConfigError, match="is below 1e-15"):
        AccuracyBudget(target, 0.1, 10, 1.0, 1.0, 0.5, 20)


def test_the_floor_target_is_certified():
    """At the floor itself the default pair's report runs and agrees with
    its 1e-10 report to within the two targets."""
    s = sk.Scenario.default()
    at_floor = total_error(s, 1e-15)
    assert at_floor.budget_given_1.target == 1e-15
    assert abs(at_floor.total_error - total_error(s, 1e-10).total_error) <= 1e-10 + 1e-15


def test_near_identical_classes_fail_loudly():
    # classes that differ by 1e-13 relative: no honest answer at the default
    # target, so the computation must refuse rather than fabricate one; the
    # Chernoff bound on hypothesis 1's miss is above the target, so its CDF
    # is still inverted
    s = sk.Scenario.from_dict({"m2": 1.0 + 1e-13, "k2": 1.0, "prior1": 0.3})
    sp1, _ = spectra_for(s)
    z = threshold(detector_from_scenario(s))
    assert tail_bounds(sp1, z)[0] > 1e-6
    with pytest.raises(NumericalError):
        total_error(s)


# certify-short's scenarios (perfbench/workloads.py): the kf 20 surface, the
# default pair over seven horizons, five cells at kf 1 and 2, two priors
CERTIFY_SHORT = (
    [{"kf": 20, "m2": m, "k2": g} for m in SURFACE_RATIOS for g in SURFACE_RATIOS]
    + [{"kf": kf} for kf in (1, 2, 3, 5, 10, 20, 40)]
    + [
        {"kf": kf, "m2": m, "k2": g}
        for kf in (1, 2)
        for m, g in ((1.0, 2.0), (1.0, 5.0), (2.0, 3.0), (0.5, 3.0), (4.0, 1.0))
    ]
    + [{"kf": 20, "k2": 1.05}, {"kf": 1, "prior1": 0.634}, {"kf": 1, "prior1": 0.633}]
)
# certify-long's scenarios: the default pair and the cell (mass 1, gain 4)
CERTIFY_LONG = [
    {"kf": kf, **cell} for kf in (200, 400, 600, 800, 1000) for cell in ({}, {"m2": 1.0, "k2": 4.0})
]
SURFACE_KF_1_TO_8 = [
    {"kf": kf, "m2": m, "k2": g, "prior1": prior1}
    for kf in range(1, 9)
    for m in SURFACE_RATIOS
    for g in SURFACE_RATIOS
    for prior1 in (0.2, 0.5, 0.8)
]


def routed_to_cuts(monkeypatch, scenarios):
    """(spectrum, z, result) of every _cut_cdf call that total_error makes
    on these scenarios: the CDFs whose series would need the asymptotic tail."""
    calls = []
    cut = error_analysis._cut_cdf

    def recording(spectrum, z, tol):
        calls.append((spectrum, z, cut(spectrum, z, tol)))
        return calls[-1][2]

    monkeypatch.setattr(error_analysis, "_cut_cdf", recording)
    for overrides in scenarios:
        total_error(sk.Scenario.from_dict(overrides))
    return calls


def test_cut_integrals_match_a_30_digit_quadrature(monkeypatch):
    """Every certify-short CDF that would need the series tail: the float64
    rules land within their certified bound of mpmath's tanh-sinh quadrature
    of the same integrals (1e-14 more for rounding the closed forms).  The
    quadrature itself agrees with Gil-Pelaez's to 1e-12 on hypothesis 2 of
    the cell (mass 0.25, gain 0.5) at kf 20, whose branch points crowd."""
    calls = routed_to_cuts(monkeypatch, CERTIFY_SHORT)
    assert len(calls) == 30
    for sp, z, (cdf, bound) in calls:
        assert bound <= 1e-9
        assert abs(cdf - cut_integrals_mp(sp.eigenvalues, z)) <= bound + 1e-14, (sp.eigenvalues, z)
    s = sk.Scenario.from_dict({"kf": 20, "m2": 0.25, "k2": 0.5})
    z = threshold(detector_from_scenario(s))
    eigs = spectra_for(s)[1].eigenvalues
    assert abs(cut_integrals_mp(eigs, z) - gil_pelaez_mp(eigs, z)) <= 1e-12


def test_certify_short_reports_land_within_the_target_of_a_30_digit_oracle():
    """Every certify-short scenario from kf 2 on: total_error is within its
    1e-6 target of the priors' mix of both CDFs from the 30-digit oracle
    oracles.quad_form_cdf_mp, frozen in tests/certify_short_cdfs_30_digits.json
    by tests/make_oracle_cdfs.py.  The kf 2 CDFs are recomputed here, to tie
    the file to the oracle."""
    frozen = json.loads((Path(__file__).parent / "certify_short_cdfs_30_digits.json").read_text())
    cdfs = {
        (json.dumps(case["scenario"], sort_keys=True), case["hypothesis"]): case["cdf"]
        for case in frozen["cases"]
    }
    reports = 0
    for overrides in CERTIFY_SHORT:
        s = sk.Scenario.from_dict(overrides)
        if s.sampling.horizon < 2:
            continue
        report = total_error(s)
        p1, p2 = s.sampling.prior1, s.sampling.prior2
        if report.degenerate:
            assert report.total_error == min(p1, p2)
            continue
        key = json.dumps(overrides, sort_keys=True)
        cdf1, cdf2 = cdfs[key, 1], cdfs[key, 2]
        assert abs(report.total_error - (p2 * cdf2 + p1 * (1.0 - cdf1))) <= 1e-6, overrides
        if s.sampling.horizon == 2:
            z = threshold(detector_from_scenario(s))
            for sp, want in zip(spectra_for(s), (cdf1, cdf2)):
                assert quad_form_cdf_mp(sp.kept(), z) == pytest.approx(want, abs=1e-15)
        reports += 1
    assert reports == len(cdfs) // 2 == 36


def test_cut_integrals_match_the_frozen_power_sum_tail():
    """The CDFs of certify-short at kf <= 3 and of the surface grid at kf 1-8,
    prior1 0.2/0.5/0.8, that took the head + power-sum tail split, as that
    split computed them at a 1e-10 target (tests/tail_cdfs_1e-10.json)."""
    frozen = json.loads((Path(__file__).parent / "tail_cdfs_1e-10.json").read_text())
    assert len(frozen["cases"]) == 476
    for case in frozen["cases"]:
        s = sk.Scenario.from_dict(case["scenario"])
        sp = spectra_for(s)[case["hypothesis"] - 1]
        cdf, bound = _cut_cdf(sp, threshold(detector_from_scenario(s)), 1e-12)
        assert abs(cdf - case["cdf"]) <= 1e-9, case


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("eigenvalue", [0.8, -1.3])
def test_equal_eigenvalues_take_the_chi2_closed_form(k, eigenvalue):
    sp = QuadFormSpectrum(eigenvalues=np.full(k, eigenvalue))
    for z in (-6.0, -0.5, 0.0, 0.5, 6.0):
        dist = chi2(k)
        want = dist.cdf(z / eigenvalue) if eigenvalue > 0 else dist.sf(z / eigenvalue)
        assert _cut_cdf(sp, z, 1e-9) == (pytest.approx(want, abs=1e-14), 0.0)


@pytest.mark.parametrize("prior1", [0.2, 0.8])
@pytest.mark.parametrize("m2, k2", [(0.5, SURFACE_RATIOS[3]), (SURFACE_RATIOS[3], 0.5)])
def test_rounding_level_spectrum_gives_the_prior_floor(m2, k2, prior1):
    """Mass 0.5 with gain 1.9999999999999998, and the reverse, make alpha1 =
    alpha2 up to rounding: at kf 1 the statistic is ~2e-16 chi2_1 against a
    threshold of 2 ln(p1/p2), so the decision never changes and the error is
    min(prior1, prior2).  The series refused these ("series tail is neither
    expandable nor negligible")."""
    s = sk.Scenario.from_dict({"kf": 1, "m2": m2, "k2": k2, "prior1": prior1})
    report = total_error(s)
    assert abs(report.total_error - min(prior1, 1.0 - prior1)) <= 1e-6


def test_no_surface_or_certify_short_cdf_reaches_the_series_fallback(monkeypatch, caplog):
    """The surface grid at kf 1-8, prior1 0.2/0.5/0.8, and certify-short: every
    CDF that needs more than the direct sum is certified by the cut
    integrals; none logs a series fallback.  With the power sums made to
    raise, neither these nor certify-long and the default scenario call
    them at 1e-6.  410 CDFs reach the cut integrals; the other series end
    within the direct sum, or, for 4 at kf 1, their miss is within the
    target by its Chernoff bound and is not inverted."""

    def refuse(*args):
        raise AssertionError(f"pinned_power_sum{args} reached")

    monkeypatch.setattr(error_analysis, "pinned_power_sum", refuse)
    with caplog.at_level(logging.DEBUG, logger="skysift.error_analysis"):
        calls = routed_to_cuts(monkeypatch, SURFACE_KF_1_TO_8 + CERTIFY_SHORT)
    assert [r.getMessage() for r in caplog.records if "series fallback" in r.getMessage()] == []
    assert len(calls) == 410 and all(result is not None for _, _, result in calls)
    for overrides in CERTIFY_LONG + [{}]:
        total_error(sk.Scenario.from_dict(overrides), 1e-6)


@pytest.mark.parametrize(
    "prior1, branch, want",
    [(0.5, "SBP", 0.0013467702111771285), (0.05, "bridge+SBP", 0.0012993968969764735)],
)
def test_tight_target_reports_through_summation_by_parts(prior1, branch, want, caplog):
    """At a 1e-10 target these reports fall back to the series, whose tail
    power sums all take summation by parts, directly or bridged; their
    total_error is pinned bit for bit."""
    s = sk.Scenario.from_dict(
        {"m2": 0.1, "k2": 0.15848931924611134, "kf": 5, "prior1": prior1}
    )
    with caplog.at_level(logging.DEBUG, logger="skysift._powersum"):
        assert total_error(s, 1e-10).total_error == want
    assert {r.getMessage().split(": ")[1].split(",")[0] for r in caplog.records} == {branch}


def test_near_identical_classes_fall_back_to_the_series(caplog):
    """Twenty kept eigenvalues of ~1e-13 exceed _CUT_MAX_ORDER: the cut
    integrals log a fallback and the series refuses, as before."""
    s = sk.Scenario.from_dict({"m2": 1.0 + 1e-13, "k2": 1.0, "prior1": 0.3})
    with caplog.at_level(logging.DEBUG, logger="skysift.error_analysis"):
        with pytest.raises(NumericalError):
            total_error(s)
    assert any("series fallback" in r.getMessage() for r in caplog.records)


def test_threshold_near_zero_at_the_default_target():
    """The default pair at kf 3 with prior1 0.775618399260971 puts the
    threshold at -4.4e-16.  Both semi-infinite cut bounds miss their share
    there, so both CDFs take the head + power-sum tail fallback; the report
    lands within its target of the 30-digit cut integrals."""
    s = sk.Scenario.from_dict({"kf": 3, "prior1": 0.775618399260971})
    z = threshold(detector_from_scenario(s))
    assert -1e-15 < z < 0.0
    report = total_error(s)
    cdf1, cdf2 = (cut_integrals_mp(sp.eigenvalues, z) for sp in spectra_for(s))
    want = report.prior2 * cdf2 + report.prior1 * (1.0 - cdf1)
    assert abs(report.total_error - want) <= 1e-6


def test_total_error_invariant_under_noise_rescale(default_scenario):
    # doubling q rescales both variances; the decision problem is unchanged
    doubled = sk.Scenario.from_dict(dict(default_scenario.to_dict(), q=2.0))
    a = total_error(default_scenario)
    b = total_error(doubled)
    assert b.total_error == pytest.approx(a.total_error, rel=1e-10)


def test_total_error_never_beats_prior_guess():
    rng = np.random.default_rng(303)
    from conftest import make_scenario

    for _ in range(5):
        s = make_scenario(rng, kf=int(rng.integers(2, 12)))
        report = total_error(s)
        floor = min(s.sampling.prior1, s.sampling.prior2)
        assert report.total_error <= floor + 2e-6


def test_error_surface_grid(default_scenario):
    ratios = [0.5, 1.0, 2.0]
    errors = error_surface(default_scenario, ratios, ratios)
    assert errors.shape == (3, 3)
    assert errors[1, 1] == 0.5  # identical classes, equal priors
    assert np.all(errors <= 0.5)
    assert np.all(errors > 0.0)
    with pytest.raises(ConfigError):
        error_surface(default_scenario, [0.5, -1.0], ratios)


def test_error_surface_csv(tmp_path, default_scenario):
    ratios = [0.5, 1.0, 2.0]
    errors = error_surface(default_scenario, ratios, ratios)
    path = tmp_path / "surface.csv"
    write_surface_csv(ratios, ratios, errors, path)
    # the bytes the csv-module writer produced
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2151b0f792b16fb09e65e64dabc9bf2e6aca5f4582e5b719be8bf549baa9e4c3"
    )
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "mass_ratio\\gain_ratio"
    assert [float(v) for v in header[1:]] == ratios
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == ratios[i]
        for j, cell in enumerate(cells[1:]):
            assert float(cell) == math.log10(errors[i, j])
    # a total error clamped to 0.0 has no finite log10: the cell stays blank
    # and integer ratios are written as floats
    write_surface_csv([1, 3], [1], np.array([[0.5, 0.0]]), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["mass_ratio\\gain_ratio,1.0,3.0", f"1.0,{math.log10(0.5)!r},"]
