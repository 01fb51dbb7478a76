import dataclasses
import json
import math

import numpy as np
import pytest

import skysift as sk
from oracles import covariance_matrix
from skysift.error_analysis import DROP_TOLERANCE
from skysift.errors import ConfigError
from skysift.model import class_statistics, continuous_autocorrelation


def test_default_scenario_statistics():
    s = sk.Scenario.default()
    st1, st2 = s.stats1(), s.stats2()
    assert st1.alpha == 0.5
    assert st1.rho == math.exp(-0.5)
    assert st2.alpha == 1.0 / 6.0
    assert st2.rho == math.exp(-1.5)


def test_class_statistics_formula():
    params = sk.IntruderParams(mass=2.0, gain=3.0)
    noise = sk.NoiseSpec(intensity=0.7)
    sampling = sk.SamplingSpec(period=0.4, horizon=5, prior1=0.5)
    st = class_statistics(params, noise, sampling)
    assert st.alpha == 0.7 / 12.0
    assert st.rho == math.exp(-1.5 * 0.4)


def test_covariance_matrix_entries():
    st = sk.ClassStatistics(alpha=0.5, rho=0.6065)
    cov = covariance_matrix(st, 4)
    assert cov.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            assert cov[i, j] == pytest.approx(0.5 * 0.6065 ** abs(i - j), rel=1e-15)
    assert np.array_equal(cov, cov.T)
    np.linalg.cholesky(cov)  # positive definite


def test_covariance_matrix_small_cases():
    st = sk.ClassStatistics(alpha=0.5, rho=0.6065)
    np.testing.assert_allclose(covariance_matrix(st, 1), [[0.5]])
    two = covariance_matrix(st, 2)
    assert two[0, 1] == pytest.approx(0.30325, rel=1e-12)
    with pytest.raises(ConfigError):
        covariance_matrix(st, 0)


def test_continuous_autocorrelation():
    params = sk.IntruderParams(mass=1.0, gain=1.0)
    noise = sk.NoiseSpec(intensity=1.0)
    assert continuous_autocorrelation(params, noise, 0.0) == 0.5
    # even in the lag
    assert continuous_autocorrelation(params, noise, -0.5) == continuous_autocorrelation(
        params, noise, 0.5
    )
    assert continuous_autocorrelation(params, noise, 0.5) == pytest.approx(
        0.30327, rel=1e-4
    )


def test_continuous_autocorrelation_matches_sampled_covariance():
    s = sk.Scenario.default()
    cov = covariance_matrix(s.stats1(), 5)
    T = s.sampling.period
    for lag in range(5):
        expected = continuous_autocorrelation(s.intruder1, s.noise, lag * T)
        assert cov[0, lag] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mass=0.0, gain=1.0),
        dict(mass=-1.0, gain=1.0),
        dict(mass=1.0, gain=0.0),
        dict(mass=math.inf, gain=1.0),
    ],
)
def test_intruder_params_validation(kwargs):
    with pytest.raises(ConfigError):
        sk.IntruderParams(**kwargs)


def test_types_carry_only_what_the_model_reads():
    assert sk.QuadFormSpectrum(np.array([0.5, -0.2])).horizon == 2
    built = (
        sk.IntruderParams(1.0, 3.0),
        sk.MeasurementSeries(np.ones(3)),
        sk.TrialBatch([1], [0.0], [0, 1]),
    )
    fields = [[f.name for f in dataclasses.fields(value)] for value in built]
    assert fields == [["mass", "gain"], ["samples"], ["label", "samples", "offsets"]]
    assert [f.name for f in dataclasses.fields(sk.QuadFormSpectrum)] == ["eigenvalues"]


def test_public_names_and_settable_fields_are_counted():
    """The public surface: 37 names plus ``__version__``, and the settable
    (init) fields of the public dataclasses."""
    assert len(sk.__all__) == 38
    public = [getattr(sk, name) for name in sk.__all__]
    classes = [obj for obj in public if dataclasses.is_dataclass(obj)]
    assert sum(f.init for cls in classes for f in dataclasses.fields(cls)) == 47


def test_derived_fields_are_refused_and_follow_their_inputs(tmp_path):
    st1, st2 = sk.Scenario.default().stats1(), sk.Scenario.default().stats2()
    spec = sk.DetectorSpec(st1, st2, 0.3, 20)
    g1, g2 = (1.0 / (s.alpha * (1.0 - s.rho * s.rho)) for s in (st1, st2))
    r1, r2 = st1.rho, st2.rho
    assert spec.energy_coef == (1.0 + r1 * r1) * g1 - (1.0 + r2 * r2) * g2
    assert spec.lag_coef == 2.0 * r2 * g2 - 2.0 * r1 * g1
    assert spec.edge_coef == r2 * r2 * g2 - r1 * r1 * g1
    assert spec.log_prior_ratio == math.log(0.3 / (1.0 - 0.3))
    y = np.full(20, 3.0)
    simplified = sk.detect_simplified(spec, sk.SufficientStatistics.from_series(y))
    assert sk.detect_full(spec, y).decision == simplified.decision

    tie, far = sk.DetectionReport(1.5, 1.5), sk.DetectionReport(2.0, -1.0)
    assert (tie.decision, tie.margin, tie.conditional_error) == (1, 0.0, 0.5)
    assert (far.decision, far.margin) == (2, -3.0)
    assert far.conditional_error == math.exp(-1.5) / (1.0 + math.exp(-1.5))

    err = sk.total_error(sk.Scenario.default())
    cdf1, cdf2 = err.raw_cdf_given_1, err.raw_cdf_given_2
    assert 0.0 < cdf1 < 1.0 and 0.0 < cdf2 < 1.0
    assert (err.miss_given_1, err.miss_given_2) == (1.0 - cdf1, cdf2)
    assert err.prior2 == 1.0 - err.prior1
    assert err.total_error == err.prior2 * cdf2 + err.prior1 * (1.0 - cdf1)
    assert not err.degenerate
    clamped = sk.ErrorReport(0.25, 0.0, None, None, -1e-9, 1.0 + 1e-9)
    assert (clamped.miss_given_1, clamped.miss_given_2) == (1.0, 1.0)
    assert (clamped.total_error, clamped.prior2, clamped.degenerate) == (1.0, 0.75, True)
    with pytest.raises(ValueError):
        dataclasses.replace(err, total_error=0.9)

    budget = err.budget_given_1
    assert budget.chernoff_t == 1.0 / (4.0 * budget.lambda_abs_max)
    assert budget.drop_tolerance == DROP_TOLERANCE
    assert budget.refined(4).n_terms == 4 * budget.n_terms

    config = sk.ExperimentConfig(sk.Scenario.default(), "scatter", tmp_path, seed=9, n_trials=5)
    manifest = sk.run_experiment(config)
    assert (manifest["version"], manifest["seed"]) == (sk.__version__, 9)

    given = {
        sk.DetectorSpec: dict(stats1=st1, stats2=st2, prior1=0.5, horizon=20),
        sk.DetectionReport: dict(statistic=1.0, threshold=0.0),
        sk.ErrorReport: {f.name: getattr(err, f.name) for f in dataclasses.fields(err) if f.init},
        sk.AccuracyBudget: {
            f.name: getattr(budget, f.name) for f in dataclasses.fields(budget) if f.init
        },
    }
    derived = {
        sk.DetectorSpec: ("energy_coef", "lag_coef", "edge_coef", "log_prior_ratio"),
        sk.DetectionReport: ("decision", "margin", "conditional_error"),
        sk.ErrorReport: ("total_error", "miss_given_1", "miss_given_2", "prior2", "degenerate"),
        sk.AccuracyBudget: ("chernoff_t", "drop_tolerance"),
    }
    for cls, names in derived.items():
        built = cls(**given[cls])
        for name in names:
            with pytest.raises(TypeError):
                cls(**given[cls], **{name: getattr(built, name)})
    assert not hasattr(sk, "KmsMatrix")


def test_noise_and_sampling_validation():
    with pytest.raises(ConfigError):
        sk.NoiseSpec(intensity=0.0)
    with pytest.raises(ConfigError):
        sk.SamplingSpec(period=0.0, horizon=5, prior1=0.5)
    with pytest.raises(ConfigError):
        sk.SamplingSpec(period=0.5, horizon=0, prior1=0.5)
    with pytest.raises(ConfigError):
        sk.SamplingSpec(period=0.5, horizon=5, prior1=1.0)
    with pytest.raises(ConfigError):
        sk.SamplingSpec(period=0.5, horizon=5, prior1=0.0)


def test_class_statistics_validation():
    with pytest.raises(ConfigError):
        sk.ClassStatistics(alpha=0.0, rho=0.5)
    with pytest.raises(ConfigError):
        sk.ClassStatistics(alpha=1.0, rho=1.0)
    with pytest.raises(ConfigError):
        sk.ClassStatistics(alpha=1.0, rho=0.0)


def test_prior2_property():
    sampling = sk.SamplingSpec(period=0.5, horizon=5, prior1=0.3)
    assert sampling.prior2 == 0.7


def test_scenario_dict_roundtrip():
    s = sk.Scenario.default()
    d = s.to_dict()
    assert d == {
        "m1": 1.0,
        "k1": 1.0,
        "m2": 1.0,
        "k2": 3.0,
        "q": 1.0,
        "T": 0.5,
        "kf": 20,
        "prior1": 0.5,
    }
    again = sk.Scenario.from_dict(d)
    assert again.to_dict() == d


def test_scenario_partial_dict_uses_defaults():
    s = sk.Scenario.from_dict({"kf": 7, "prior1": 0.25})
    assert s.sampling.horizon == 7
    assert s.sampling.prior1 == 0.25
    assert s.intruder2.gain == 3.0


@pytest.mark.parametrize(
    "raw",
    [
        {"horizon": 20},  # unknown key (typo guard)
        {"kf": 2.5},
        {"kf": True},
        {"kf": "20x"},
        {"m1": "heavy"},
        {"q": True},
        {"prior1": 1.5},
    ],
)
def test_scenario_from_dict_rejects(raw):
    with pytest.raises(ConfigError):
        sk.Scenario.from_dict(raw)


def test_scenario_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m2": 2.0, "kf": 10}), encoding="utf-8")
    s = sk.Scenario.from_json(path)
    assert s.intruder2.mass == 2.0
    assert s.sampling.horizon == 10

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        sk.Scenario.from_json(bad)
    with pytest.raises(ConfigError):
        sk.Scenario.from_json(tmp_path / "missing.json")
    array = tmp_path / "array.json"
    array.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        sk.Scenario.from_json(array)


def test_model_types_are_immutable():
    s = sk.Scenario.default()
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.intruder1.mass = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.sampling.prior1 = 0.9
