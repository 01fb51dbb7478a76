"""End-to-end acceptance checks.

One test per shipped guarantee; the terminal summary (see conftest) prints a
PASS/FAIL line for each.  Tolerances and time budgets are part of the
contract, so they are asserted, not just reported.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import make_scenario
from oracles import covariance_matrix, kms_logdet
from skysift.detector import (
    DetectionReport,
    SufficientStatistics,
    detect_full,
    detect_simplified,
    detector_from_scenario,
    stream_update,
    threshold,
)
from skysift.error_analysis import (
    QuadFormSpectrum,
    accuracy_budget,
    cdf_quadratic_form_raw,
    q_sigma_eigenvalues,
    total_error,
    error_surface,
)
from skysift.kms import kms_inverse_apply, kms_quadratic_form
from skysift.model import (
    ClassStatistics,
    Scenario,
    class_statistics,
)
from skysift.simulator import simulate_batch, simulate_trajectory


def relative_difference(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def test_criterion_01_simplified_equals_full_detector():
    """1000 random series across horizons: same statistic (rel 1e-9), same
    decision, under 5 seconds."""
    rng = np.random.default_rng(814)
    started = time.monotonic()
    worst = 0.0
    for horizon in (1, 2, 5, 20, 50):
        for _ in range(200):
            scenario = make_scenario(rng, kf=horizon)
            intruder = scenario.intruder1 if rng.integers(2) else scenario.intruder2
            stats = class_statistics(intruder, scenario.noise, scenario.sampling)
            series = simulate_trajectory(stats, horizon, int(rng.integers(2**63)))
            spec = detector_from_scenario(scenario)
            full = detect_full(spec, series)
            simplified = detect_simplified(
                spec, SufficientStatistics.from_series(series.samples)
            )
            worst = max(
                worst, relative_difference(full.statistic, simplified.statistic)
            )
            assert simplified.decision == full.decision
    elapsed = time.monotonic() - started
    assert worst <= 1e-9, f"worst relative statistic difference {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_closed_form_matrix_algebra_matches_dense():
    """Analytic inverse application, quadratic form, and log-determinant agree
    with dense linear algebra for every horizon up to 40, under 5 seconds."""
    rng = np.random.default_rng(2)
    scenario = Scenario.default()
    started = time.monotonic()
    worst = 0.0
    for dim in range(1, 41):
        for stats in (
            scenario.stats1(),
            scenario.stats2(),
            ClassStatistics(
                alpha=float(rng.uniform(0.2, 3.0)),
                rho=float(rng.uniform(0.05, 0.95)),
            ),
        ):
            dense = covariance_matrix(stats, dim)
            v = rng.standard_normal(dim)
            worst = max(
                worst,
                float(np.max(np.abs(kms_inverse_apply(stats, v) - np.linalg.solve(dense, v)))),
                abs(kms_quadratic_form(stats, v) - v @ np.linalg.solve(dense, v)),
                abs(kms_logdet(stats, dim) - np.linalg.slogdet(dense)[1]),
            )
    elapsed = time.monotonic() - started
    assert worst <= 1e-10, f"worst dense-vs-analytic difference {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_exact_error_matches_monte_carlo():
    """Computed error probabilities sit within 3 binomial standard errors of a
    100000-trial simulation, including both per-conclusion components."""
    scenario = Scenario.default()
    report = total_error(scenario)
    started = time.monotonic()

    n = 100_000
    batch = simulate_batch(scenario, n, 20260814)
    spec = detector_from_scenario(scenario)
    samples = np.stack([series.samples for _, series in batch.trials])
    statistics = (
        spec.energy_coef * np.einsum("ij,ij->i", samples, samples)
        + spec.lag_coef * np.einsum("ij,ij->i", samples[:, :-1], samples[:, 1:])
        + spec.edge_coef * (samples[:, 0] ** 2 + samples[:, -1] ** 2)
    )
    decisions = np.where(statistics <= threshold(spec), 1, 2)
    labels = batch.labels()

    checks = [
        ("total", float(np.mean(decisions != labels)), report.total_error, n),
        (
            "miss given 1",
            float(np.mean(decisions[labels == 1] == 2)),
            report.miss_given_1,
            int(np.sum(labels == 1)),
        ),
        (
            "miss given 2",
            float(np.mean(decisions[labels == 2] == 1)),
            report.miss_given_2,
            int(np.sum(labels == 2)),
        ),
    ]
    for name, empirical, exact, n_eff in checks:
        se = math.sqrt(exact * (1.0 - exact) / n_eff)
        assert abs(empirical - exact) <= 3.0 * se, (
            f"{name}: empirical {empirical:.5f} vs exact {exact:.5f} "
            f"(3 SE = {3 * se:.5f})"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_04_cdf_matches_closed_form_oracles():
    """Numerical CDF of the decision statistic agrees with scaled-chi-square
    closed forms to the 1e-6 accuracy target at 20 quantiles per case."""
    started = time.monotonic()
    probs = np.linspace(0.025, 0.975, 20)
    cases = []
    for lam in (0.5, 2.0, -1.5):
        cases.append((np.array([lam]), 1))
    for lam in (0.7, -0.9):
        cases.append((np.array([lam, lam]), 2))

    worst = 0.0
    for eigenvalues, df in cases:
        lam = eigenvalues[0]
        spectrum = QuadFormSpectrum(eigenvalues=eigenvalues)
        for p in probs:
            z = lam * chi2(df).ppf(p)
            oracle = chi2(df).cdf(z / lam) if lam > 0 else chi2(df).sf(z / lam)
            budget = accuracy_budget(spectrum, z, 1e-6)
            value = cdf_quadratic_form_raw(spectrum, z, budget)
            worst = max(worst, abs(value - oracle))
    elapsed = time.monotonic() - started
    assert worst <= 1e-6, f"worst CDF error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_quadrature_refinement_is_stable():
    """Refining the inversion grid (step / 4, terms * 4) moves every reported
    probability by at most the accuracy target."""
    rng = np.random.default_rng(2026)
    scenarios = [Scenario.default()] + [make_scenario(rng) for _ in range(10)]
    target = 1e-6
    worst = 0.0
    for scenario in scenarios:
        spec = detector_from_scenario(scenario)
        z = threshold(spec)
        horizon = scenario.sampling.horizon
        cdfs = {}
        for hypothesis in (1, 2):
            spectrum = q_sigma_eigenvalues(
                scenario.stats1(), scenario.stats2(), horizon, hypothesis
            )
            budget = accuracy_budget(spectrum, z, target)
            coarse = cdf_quadratic_form_raw(spectrum, z, budget)
            fine = cdf_quadratic_form_raw(spectrum, z, budget.refined(4))
            worst = max(worst, abs(coarse - fine))
            cdfs[hypothesis] = (coarse, fine)
        p1, p2 = scenario.sampling.prior1, scenario.sampling.prior2
        total_coarse = p2 * cdfs[2][0] + p1 * (1.0 - cdfs[1][0])
        total_fine = p2 * cdfs[2][1] + p1 * (1.0 - cdfs[1][1])
        worst = max(worst, abs(total_coarse - total_fine))
    assert worst <= target, f"worst refinement drift {worst:.3e}"


def test_criterion_06_identical_classes_degenerate_exactly():
    """Indistinguishable classes at equal priors: every statistic coefficient
    is exactly zero and the total error is exactly one half."""
    scenario = Scenario.from_dict({"m2": 1, "k2": 1})
    with pytest.warns(UserWarning):
        spec = detector_from_scenario(scenario)
    assert spec.energy_coef == 0.0
    assert spec.lag_coef == 0.0
    assert spec.edge_coef == 0.0
    report = total_error(scenario)
    assert report.degenerate
    assert report.total_error == 0.5
    assert report.miss_given_1 + report.miss_given_2 == 1.0


def test_criterion_07_error_decays_with_horizon():
    """Longer observation windows strictly reduce the total error, and the
    decay is close to exponential in the horizon."""
    horizons = np.array([5, 10, 20, 40])
    errors = np.array(
        [
            total_error(Scenario.from_dict({"kf": int(k)})).total_error
            for k in horizons
        ]
    )
    assert np.all(np.diff(errors) < 0), f"errors not strictly decreasing: {errors}"

    log_err = np.log(errors)
    slope, intercept = np.polyfit(horizons, log_err, 1)
    fitted = slope * horizons + intercept
    ss_res = float(np.sum((log_err - fitted) ** 2))
    ss_tot = float(np.sum((log_err - log_err.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    print(f"horizon decay: slope {slope:.4f}, R^2 {r_squared:.4f}")
    assert slope < 0
    assert r_squared >= 0.99, f"log-error vs horizon R^2 {r_squared:.4f}"


def test_criterion_08_error_surface_structure():
    """5x5 ratio surface: identical classes give the prior floor, relabeling
    the classes (with priors swapped) leaves the error invariant, and a mass
    change is easier to detect than the same ratio applied to the gain."""
    ratios = np.geomspace(0.25, 4.0, 5)
    errors = error_surface(Scenario.default(), ratios, ratios)
    assert errors[2, 2] == 0.5  # (1, 1) cell, equal priors
    assert np.all(errors > 0.0)
    assert np.all(errors <= 0.5)

    # unequal priors: the (1, 1) cell floors at the smaller prior
    floor = total_error(
        Scenario.from_dict({"m2": 1, "k2": 1, "prior1": 0.35})
    ).total_error
    assert floor == 0.35

    # exchanging which class is "class 1" while swapping priors
    for gain_ratio, mass_ratio in [(0.25, 4.0), (0.5, 0.5), (2.0, 0.25), (4.0, 2.0)]:
        direct = total_error(
            Scenario.from_dict(
                {"m2": mass_ratio, "k2": gain_ratio, "prior1": 0.35}
            )
        ).total_error
        exchanged = total_error(
            Scenario.from_dict(
                {"m1": mass_ratio, "k1": gain_ratio, "m2": 1, "k2": 1, "prior1": 0.65}
            )
        ).total_error
        assert relative_difference(direct, exchanged) <= 1e-9

    # mass-only vs gain-only changes at the same ratio, from the 5x5 grid
    lines = []
    for idx, ratio in enumerate(ratios):
        if idx == 2:
            continue
        gain_only = errors[2, idx]
        mass_only = errors[idx, 2]
        lines.append(
            f"ratio {ratio:.2f}: gain-only error {gain_only:.3e}, "
            f"mass-only error {mass_only:.3e}"
        )
        assert mass_only < gain_only, lines[-1]
    print("mass changes are easier to detect than gain changes:")
    for line in lines:
        print(" ", line)


def test_criterion_09_streaming_prefix_exactness_and_stabilization():
    """Streamed sufficient statistics are bit-identical to batch recomputation
    on every prefix, and the decision has stabilized by the default horizon in
    at least 90% of class-2 trials."""
    rng = np.random.default_rng(909)
    for _ in range(100):
        scenario = make_scenario(rng)
        intruder = scenario.intruder1 if rng.integers(2) else scenario.intruder2
        stats = class_statistics(intruder, scenario.noise, scenario.sampling)
        horizon = scenario.sampling.horizon
        series = simulate_trajectory(stats, horizon, int(rng.integers(2**63)))
        spec = detector_from_scenario(scenario)
        state = None
        for k, y in enumerate(series.samples):
            state = stream_update(state, float(y))
            assert state == SufficientStatistics.from_series(series.samples[: k + 1])
        assert (
            detect_simplified(spec, state).decision
            == detect_full(spec, series).decision
        )

    # stabilization: fraction of class-2 trials already decided correctly
    # for good at the default 20-sample horizon
    scenario = Scenario.default()
    spec = detector_from_scenario(scenario)
    stats2 = scenario.stats2()
    n = 1000
    children = np.random.SeedSequence(424242).spawn(n)
    settled_correct = 0
    settle_counts = []
    for child in children:
        series = simulate_trajectory(stats2, 20, child)
        state = None
        decisions = []
        for y in series.samples:
            state = stream_update(state, float(y))
            decisions.append(detect_simplified(spec, state).decision)
        if decisions[-1] == 2:
            settled_correct += 1
        settle_from = len(decisions) - 1
        while settle_from > 0 and decisions[settle_from - 1] == decisions[-1]:
            settle_from -= 1
        settle_counts.append(settle_from + 1)
    rate = settled_correct / n
    q50, q90 = np.quantile(settle_counts, [0.5, 0.9])
    print(
        f"stabilization: correct-by-horizon rate {rate:.3f}, "
        f"settle-count median {q50:.0f}, 90th percentile {q90:.0f}"
    )
    assert rate >= 0.90, f"stabilization rate {rate:.3f}"


def test_criterion_10_conditional_error_boundary_and_monotonicity():
    """Posterior error is exactly one half on the decision boundary, one
    quarter at margin 2*ln(3), symmetric, and strictly decreasing in the
    margin, always inside (0, 0.5]."""
    spec = detector_from_scenario(Scenario.default())
    z = threshold(spec, 20)

    def conditional_error(statistic):
        return DetectionReport(statistic, z).conditional_error

    assert conditional_error(z) == 0.5
    assert conditional_error(z + 2 * math.log(3)) == pytest.approx(0.25, abs=1e-15)
    assert conditional_error(z - 2 * math.log(3)) == pytest.approx(0.25, abs=1e-15)

    margins = np.linspace(0.0, 40.0, 161)
    values = [conditional_error(z + m) for m in margins]
    mirrored = [conditional_error(z - m) for m in margins]
    assert values == mirrored
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 0.5 for v in values)
