import cmath
import math

import numpy as np
import pytest
from scipy.stats import chi2

import skysift as sk
from skysift.detector import detector_from_scenario, threshold
from skysift.error_analysis import (
    AccuracyBudget,
    ErrorSurface,
    QuadFormSpectrum,
    _inversion_sum,
    accuracy_budget,
    cdf_quadratic_form,
    cdf_quadratic_form_raw,
    characteristic_function,
    error_surface,
    q_sigma_eigenvalues,
    total_error,
)
from skysift.errors import ConfigError, NumericalError
from skysift.simulator import _sample_matrix

# Frozen fixtures for the default scenario (horizon 20), cross-checked against
# dense eigensolves and a closed-form trace identity when first computed.
SPECTRUM1_TRACE = -29.73651465857662
SPECTRUM2_TRACE = -8.673527078495063
TOTAL_ERROR = 0.08114205761444201
MISS_GIVEN_1 = 0.1054705111914076
MISS_GIVEN_2 = 0.05681360403747643
BUDGET1_N = 633
BUDGET2_N = 132
BUDGET1_STEP = 0.015002641316473124
BUDGET2_STEP = 0.08369524894169349


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
    n = default_scenario.sampling.horizon
    a1, r1 = st1.alpha, st1.rho
    a2, r2 = st2.alpha, st2.rho
    diag = (2.0 + (n - 2) * (1.0 + r2 * r2)) * a1
    off = 2.0 * (n - 1) * r2 * (a1 * r1)
    expected = n - (diag - off) / (a2 * (1.0 - r2 * r2))
    sp1, _ = spectra_for(default_scenario)
    assert float(np.sum(sp1.eigenvalues)) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kf", [1, 2, 5, 17, 40])
def test_spectra_match_dense_eigensolve(default_scenario, kf):
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    q = np.linalg.inv(sk.covariance_matrix(st1, kf)) - np.linalg.inv(
        sk.covariance_matrix(st2, kf)
    )
    for hyp, stats in ((1, st1), (2, st2)):
        dense = np.sort(np.linalg.eigvals(q @ sk.covariance_matrix(stats, kf)).real)
        analytic = np.sort(
            q_sigma_eigenvalues(st1, st2, kf, hypothesis=hyp).eigenvalues
        )
        np.testing.assert_allclose(analytic, dense, atol=1e-9)


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


def test_spectrum_validation():
    with pytest.raises(ConfigError):
        QuadFormSpectrum(eigenvalues=np.array([1.0, 2.0]), horizon=3)
    with pytest.raises(ConfigError):
        QuadFormSpectrum(eigenvalues=np.array([math.inf]), horizon=1)
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
    sp = QuadFormSpectrum(eigenvalues=np.array([0.5]), horizon=1)
    for omega in (-3.0, -0.4, 0.7, 2.5):
        expected = (1.0 - 1j * omega) ** -0.5
        assert characteristic_function(sp, omega) == pytest.approx(expected, rel=1e-12)


def test_characteristic_function_matches_product_form(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    for omega in (0.2, 1.1, 4.0):
        product = complex(1.0)
        for lam in sp1.eigenvalues:
            product *= (1.0 - 2j * omega * lam) ** -0.5
        assert characteristic_function(sp1, omega) == pytest.approx(product, rel=1e-10)


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
    assert b1.n_terms == max(b1.n_terms_options)
    assert b1.kept_order == 20


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
    zero = QuadFormSpectrum(eigenvalues=np.zeros(3), horizon=3)
    with pytest.raises(ConfigError):
        accuracy_budget(zero, 0.0, target=1e-6)
    with pytest.raises(ConfigError):
        AccuracyBudget(
            target=1e-6,
            chernoff_t=0.1,
            grid_step=-1.0,
            n_terms=10,
            chernoff_bound=1.0,
            n_terms_options=(10, 5),
            lambda_abs_max=1.0,
            lambda_abs_min=0.5,
            kept_order=2,
        )


@pytest.mark.parametrize("eigenvalue", [0.5, 2.0, -1.5])
def test_cdf_single_eigenvalue_oracle(eigenvalue):
    sp = QuadFormSpectrum(eigenvalues=np.array([eigenvalue]), horizon=1)
    sign = 1.0 if eigenvalue > 0 else -1.0
    for quantile in (0.3, 1.2, 3.5):
        z = sign * quantile * abs(eigenvalue)
        budget = accuracy_budget(sp, z, 1e-6)
        got = cdf_quadratic_form(sp, z, budget)
        assert abs(got - closed_form_cdf(eigenvalue, z)) <= 1e-6


@pytest.mark.parametrize("eigenvalue", [0.7, -0.9])
def test_cdf_equal_pair_oracle(eigenvalue):
    sp = QuadFormSpectrum(eigenvalues=np.array([eigenvalue, eigenvalue]), horizon=2)
    sign = 1.0 if eigenvalue > 0 else -1.0
    for quantile in (0.2, 1.0, 4.0):
        z = sign * quantile * abs(eigenvalue)
        budget = accuracy_budget(sp, z, 1e-6)
        got = cdf_quadratic_form(sp, z, budget)
        assert abs(got - closed_form_cdf_pair(eigenvalue, z)) <= 1e-6


def test_cdf_clamps_and_reports_raw(default_scenario):
    sp1, _ = spectra_for(default_scenario)
    z = threshold(detector_from_scenario(default_scenario))
    budget = accuracy_budget(sp1, z, 1e-6)
    raw = cdf_quadratic_form_raw(sp1, z, budget)
    clamped = cdf_quadratic_form(sp1, z, budget)
    assert 0.0 <= clamped <= 1.0
    assert abs(raw - clamped) <= budget.target


def test_head_tail_split_matches_direct_summation():
    """Force the asymptotic tail machinery on a case where brute force works."""
    sp = QuadFormSpectrum(eigenvalues=np.array([0.7, 0.7]), horizon=2)
    z = 3.0
    budget = accuracy_budget(sp, z, 1e-6)
    assert budget.n_terms > 1 << 21  # needs the tail path at the real cap
    tol = 1e-3 * budget.target * math.pi
    direct = _inversion_sum(
        sp, z, budget.grid_step, budget.n_terms, tol, direct_cap=budget.n_terms + 1
    )
    split = _inversion_sum(sp, z, budget.grid_step, budget.n_terms, tol, direct_cap=1024)
    assert abs(direct - split) <= 1e-9


def test_near_zero_eigenvalue_guard_raises():
    # one dropped eigenvalue that is not negligible over the huge tail range
    sp = QuadFormSpectrum(eigenvalues=np.array([1.0, 1e-13]), horizon=2)
    budget = accuracy_budget(sp, 0.5, 1e-6)
    assert budget.kept_order == 1
    with pytest.raises(NumericalError):
        _inversion_sum(sp, 0.5, budget.grid_step, budget.n_terms, 1e-9)


def test_cdf_against_monte_carlo(default_scenario):
    """Law check: empirical CDF of the simulated statistic at the threshold."""
    s = default_scenario
    spec = detector_from_scenario(s)
    z = threshold(spec)
    n = 200_000
    samples = _sample_matrix(s.stats2(), 20, n, np.random.default_rng(2718))
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
    d = report.to_dict()
    assert d["budget_given_1"]["n_terms"] == BUDGET1_N
    assert d["prior1"] == 0.5


def test_total_error_degenerate_path():
    s = sk.Scenario.from_dict({"m2": 1.0, "k2": 1.0, "prior1": 0.3})
    report = total_error(s)
    assert report.degenerate
    assert report.total_error == 0.3
    assert report.miss_given_1 == 1.0  # the fixed decision is class 2
    assert report.miss_given_2 == 0.0
    assert report.budget_given_1 is None
    assert report.budget_given_2 is None
    assert report.to_dict()["budget_given_1"] is None


def test_near_identical_classes_fail_loudly():
    # classes that differ by 1e-13 relative: no honest answer at the default
    # target, so the computation must refuse rather than fabricate one
    s = sk.Scenario.from_dict({"m2": 1.0 + 1e-13, "k2": 1.0, "prior1": 0.3})
    with pytest.raises(NumericalError):
        total_error(s)


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
    surface = error_surface(default_scenario, ratios, ratios)
    assert surface.total_errors.shape == (3, 3)
    assert surface.total_errors[1, 1] == 0.5  # identical classes, equal priors
    assert np.all(surface.total_errors <= 0.5)
    assert np.all(surface.total_errors > 0.0)
    with pytest.raises(ConfigError):
        error_surface(default_scenario, [0.5, -1.0], ratios)


def test_error_surface_csv(tmp_path, default_scenario):
    ratios = [0.5, 1.0, 2.0]
    surface = error_surface(default_scenario, ratios, ratios)
    path = tmp_path / "surface.csv"
    surface.write_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "mass_ratio\\gain_ratio"
    assert [float(v) for v in header[1:]] == ratios
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == ratios[i]
        for j, cell in enumerate(cells[1:]):
            assert float(cell) == math.log10(surface.total_errors[i, j])
    # a total error clamped to 0.0 has no finite log10: the cell stays blank
    ErrorSurface(
        gain_ratios=np.array([1.0, 3.0]),
        mass_ratios=np.array([1.0]),
        total_errors=np.array([[0.5, 0.0]]),
    ).write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[1] == f"1.0,{math.log10(0.5)!r},"
