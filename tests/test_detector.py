import dataclasses
import math
import pickle
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skysift as sk
from oracles import covariance_matrix, kms_logdet, sample_matrix
from skysift.detector import (
    DetectionReport,
    SufficientStatistics,
    _full_statistics,
    _stream_reports,
    build_detector,
    detect_batch,
    detect_full,
    detect_simplified,
    detector_from_scenario,
    fit_class_statistics,
    stream_update,
    threshold,
)
from skysift.errors import ConfigError
from skysift.kms import kms_quadratic_form
from skysift.simulator import MeasurementSeries, simulate_batch

# Frozen oracle values for the default scenario, cross-checked at build time
# against dense inverse-covariance matrices.
COEF_ENERGY = -2.300841530417765
COEF_LAG = -1.02021485909854
COEF_EDGE = -0.8495792347911173
Z_DEFAULT_20 = -14.227732448918971


@pytest.fixture(scope="module")
def default_detector(default_scenario):
    return detector_from_scenario(default_scenario)


def test_coefficients_frozen(default_detector):
    spec = default_detector
    assert spec.energy_coef == pytest.approx(COEF_ENERGY, rel=1e-14)
    assert spec.lag_coef == pytest.approx(COEF_LAG, rel=1e-14)
    assert spec.edge_coef == pytest.approx(COEF_EDGE, rel=1e-14)


def test_coefficients_match_dense_inverse_difference(default_scenario):
    """Statistic built from the three coefficients equals the dense form."""
    s = default_scenario
    spec = detector_from_scenario(s)
    n = 9
    q = np.linalg.inv(covariance_matrix(s.stats1(), n)) - np.linalg.inv(
        covariance_matrix(s.stats2(), n)
    )
    rng = np.random.default_rng(17)
    for _ in range(20):
        y = rng.normal(size=n)
        dense = float(y @ q @ y)
        coef = (
            spec.energy_coef * float(y @ y)
            + spec.lag_coef * float(y[:-1] @ y[1:])
            + spec.edge_coef * (y[0] ** 2 + y[-1] ** 2)
        )
        assert coef == pytest.approx(dense, rel=1e-12)


def test_energy_plus_edges_identity(default_scenario):
    # a + 2c telescopes to the difference of inverse variances
    spec = detector_from_scenario(default_scenario)
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    assert spec.energy_coef + 2 * spec.edge_coef == pytest.approx(
        1.0 / st1.alpha - 1.0 / st2.alpha, rel=1e-14
    )


def test_swapping_classes_negates_coefficients(default_scenario):
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    fwd = build_detector(st1, st2, 0.5, 20)
    rev = build_detector(st2, st1, 0.5, 20)
    assert rev.energy_coef == -fwd.energy_coef
    assert rev.lag_coef == -fwd.lag_coef
    assert rev.edge_coef == -fwd.edge_coef
    assert threshold(rev) == pytest.approx(-threshold(fwd), rel=1e-14)


def test_threshold_frozen_and_logdet_consistent(default_detector):
    z = threshold(default_detector)
    assert z == pytest.approx(Z_DEFAULT_20, abs=1e-12)
    st1, st2 = default_detector.stats1, default_detector.stats2
    via_logdet = (
        2.0 * default_detector.log_prior_ratio
        + kms_logdet(st2, 20)
        - kms_logdet(st1, 20)
    )
    assert z == pytest.approx(via_logdet, abs=1e-10)


def test_threshold_linear_in_horizon(default_detector):
    increments = {
        threshold(default_detector, n + 1) - threshold(default_detector, n)
        for n in range(1, 30)
    }
    values = sorted(increments)
    assert values[-1] - values[0] < 1e-12
    with pytest.raises(ConfigError):
        threshold(default_detector, 0)


_CLASS = st.builds(
    sk.ClassStatistics,
    alpha=st.floats(min_value=1e-3, max_value=1e3),
    rho=st.floats(min_value=1e-4, max_value=0.9999),
)


def explicit_threshold(stats1, stats2, prior1, n):
    """The threshold's formula with every logarithm taken afresh."""
    return (
        2.0 * math.log(prior1 / (1.0 - prior1))
        + n * (math.log(stats2.alpha) - math.log(stats1.alpha))
        + (n - 1) * (math.log1p(-stats2.rho * stats2.rho) - math.log1p(-stats1.rho * stats1.rho))
    )


@settings(max_examples=100, deadline=None)
@given(
    stats1=_CLASS,
    stats2=_CLASS,
    other=_CLASS,
    prior1=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
)
def test_threshold_is_bit_identical_to_its_formula(stats1, stats2, other, prior1):
    """threshold() reads the log differences DetectorSpec took once; they
    equal the formula's bit for bit, also on a spec that replace() built."""
    spec = sk.DetectorSpec(stats1, stats2, prior1, 20)
    moved = dataclasses.replace(spec, stats2=other)
    for n in (1, 2, 20, 1000, 10**6):
        assert threshold(spec, n) == explicit_threshold(stats1, stats2, prior1, n)
        assert threshold(moved, n) == explicit_threshold(stats1, other, prior1, n)
    assert threshold(spec) == explicit_threshold(stats1, stats2, prior1, 20)


def test_detect_full_zero_series(default_detector):
    report = detect_full(default_detector, np.zeros(20))
    assert report.statistic == 0.0
    z = report.threshold
    assert report.decision == (1 if 0.0 <= z else 2)


def test_detect_full_matches_dense_quadratic(default_scenario):
    s = default_scenario
    spec = detector_from_scenario(s)
    rng = np.random.default_rng(23)
    for n in (1, 2, 5, 17, 40):
        q = np.linalg.inv(covariance_matrix(s.stats1(), n)) - np.linalg.inv(
            covariance_matrix(s.stats2(), n)
        )
        y = rng.normal(size=n)
        dense = float(y @ q @ y)
        assert detect_full(spec, y).statistic == pytest.approx(dense, rel=1e-9)


def test_single_sample_statistic_collapses(default_scenario):
    spec = detector_from_scenario(default_scenario)
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    y0 = 1.7
    report = detect_full(spec, np.array([y0]))
    assert report.statistic == pytest.approx(
        (1.0 / st1.alpha - 1.0 / st2.alpha) * y0**2, rel=1e-12
    )
    simplified = detect_simplified(spec, SufficientStatistics.from_series([y0]))
    assert simplified.statistic == pytest.approx(report.statistic, rel=1e-12)


def test_full_and_simplified_agree(default_scenario):
    spec = detector_from_scenario(default_scenario)
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        y = rng.normal(size=n) * rng.uniform(0.2, 3.0)
        full = detect_full(spec, y)
        simp = detect_simplified(spec, SufficientStatistics.from_series(y))
        assert abs(full.statistic - simp.statistic) <= 1e-9 * (1 + abs(full.statistic))
        assert full.decision == simp.decision
        assert full.threshold == simp.threshold


def test_streaming_prefix_consistency(default_scenario):
    spec = detector_from_scenario(default_scenario)
    y = np.random.default_rng(41).normal(size=30)
    state = None
    for n in range(1, 31):
        state = stream_update(state, float(y[n - 1]))
        batch = SufficientStatistics.from_series(y[:n])
        assert state == batch  # all five fields, exact
        assert detect_simplified(spec, state).statistic == detect_simplified(
            spec, batch
        ).statistic
        full = detect_full(spec, y[:n])
        simp = detect_simplified(spec, state)
        assert abs(full.statistic - simp.statistic) <= 1e-9 * (1 + abs(full.statistic))
    # one long series: the vectorized fold still equals the streamed one
    y = np.random.default_rng(43).normal(size=100_001)
    state = None
    for v in y:
        state = stream_update(state, float(v))
    assert SufficientStatistics.from_series(y) == state


def test_stream_start_state():
    state = stream_update(None, 2.0)
    assert state.sum_sq == 4.0
    assert state.sum_lag == 0.0
    assert state.first == state.last == 2.0
    assert state.count == 1


def test_sufficient_statistics_validation():
    with pytest.raises(ConfigError, match="sum_sq smaller than a boundary square"):
        SufficientStatistics(sum_sq=1.0, sum_lag=0.0, first=2.0, last=0.0, count=1)
    with pytest.raises(ConfigError, match="sum_sq smaller than a boundary square"):
        SufficientStatistics(sum_sq=1.0, sum_lag=0.0, first=0.0, last=-2.0, count=2)
    with pytest.raises(ConfigError, match="adjacent-lag sum exceeds the energy sum"):
        SufficientStatistics(sum_sq=1.0, sum_lag=2.0, first=0.5, last=0.5, count=2)
    with pytest.raises(ConfigError, match="adjacent-lag sum exceeds the energy sum"):
        SufficientStatistics(sum_sq=1.0, sum_lag=-2.0, first=0.5, last=0.5, count=2)
    with pytest.raises(ConfigError, match=r"count must be >= 1, got 0"):
        SufficientStatistics(sum_sq=1.0, sum_lag=0.0, first=1.0, last=1.0, count=0)
    # the checks run in order: count, finiteness, boundary squares, lag sum
    with pytest.raises(ConfigError, match=r"count must be >= 1, got -1"):
        SufficientStatistics(sum_sq=math.nan, sum_lag=0.0, first=1.0, last=1.0, count=-1)
    with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
        SufficientStatistics(sum_sq=1.0, sum_lag=math.inf, first=2.0, last=0.0, count=1)
    with pytest.raises(ConfigError, match="sum_sq smaller than a boundary square"):
        SufficientStatistics(sum_sq=1.0, sum_lag=5.0, first=2.0, last=0.0, count=2)
    with pytest.raises(ConfigError):
        SufficientStatistics.from_series(np.zeros((2, 2)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
            stream_update(stream_update(None, 0.1), bad)
        with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
            stream_update(None, bad)
        for name in ("sum_sq", "sum_lag", "first", "last"):
            fields = dict(sum_sq=1.0, sum_lag=0.0, first=0.5, last=0.5, count=2)
            with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
                SufficientStatistics(**{**fields, name: bad})
        with pytest.raises(ConfigError):
            SufficientStatistics.from_series([0.1, bad, 0.2])
    spec = build_detector(
        sk.ClassStatistics(alpha=0.5, rho=0.5), sk.ClassStatistics(alpha=0.2, rho=0.3)
    )
    with pytest.raises(ConfigError):
        detect_full(spec, np.array([0.1, math.nan, 0.2]))


@pytest.mark.parametrize("start", [None, 0.1])
def test_stream_update_refuses_an_overflowing_square(start):
    """A finite sample whose square overflows is refused like a non-finite
    one, whether it starts the stream or extends it."""
    state = None if start is None else stream_update(None, start)
    for y in (1e200, -1e200):
        with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
            stream_update(state, y)
    big = stream_update(state, 1.2e154)
    assert big.sum_sq == (0.0 if start is None else start * start) + 1.2e154 * 1.2e154
    with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
        stream_update(big, 1.2e154)  # a finite square, an overflowing sum


def test_dataclass_protocols_are_the_generated_ones():
    """replace, asdict, ==, hash, repr, pickle and frozenness of the
    detector's value types: the fields in declaration order, derived fields
    refused by replace, hash over the compared fields, and pickle keeping the
    instance dict in the order the fields were first set."""
    st1, st2 = sk.ClassStatistics(alpha=0.5, rho=0.25), sk.ClassStatistics(alpha=2.0, rho=0.75)
    stats = SufficientStatistics(5.0, -1.5, 2.0, -1.0, 3)
    report = DetectionReport(1.5, -0.5)
    spec = sk.DetectorSpec(st1, st2, 0.25, 20)
    assert repr(stats) == (
        "SufficientStatistics(sum_sq=5.0, sum_lag=-1.5, first=2.0, last=-1.0, count=3)"
    )
    assert repr(report) == (
        "DetectionReport(decision=2, statistic=1.5, threshold=-0.5, margin=-2.0, "
        "conditional_error=0.2689414213699951)"
    )
    assert repr(spec) == (
        "DetectorSpec(stats1=ClassStatistics(alpha=0.5, rho=0.25), "
        "stats2=ClassStatistics(alpha=2.0, rho=0.75), prior1=0.25, "
        "energy_coef=0.480952380952381, lag_coef=0.6476190476190475, "
        "edge_coef=0.5095238095238095, log_prior_ratio=-1.0986122886681098, horizon=20)"
    )
    assert asdict(stats) == {"sum_sq": 5.0, "sum_lag": -1.5, "first": 2.0, "last": -1.0, "count": 3}
    assert list(asdict(report).items()) == [
        ("decision", 2),
        ("statistic", 1.5),
        ("threshold", -0.5),
        ("margin", -2.0),
        ("conditional_error", 0.2689414213699951),
    ]
    assert asdict(spec) == {
        "stats1": {"alpha": 0.5, "rho": 0.25},
        "stats2": {"alpha": 2.0, "rho": 0.75},
        "prior1": 0.25,
        "energy_coef": 0.480952380952381,
        "lag_coef": 0.6476190476190475,
        "edge_coef": 0.5095238095238095,
        "log_prior_ratio": -1.0986122886681098,
        "horizon": 20,
    }
    assert list(vars(stats)) == ["sum_sq", "sum_lag", "first", "last", "count"]
    assert list(vars(report)) == [
        "statistic",
        "threshold",
        "decision",
        "margin",
        "conditional_error",
    ]
    for value in (stats, report, spec):
        names = [f.name for f in dataclasses.fields(value)]
        assert hash(value) == hash(tuple(getattr(value, name) for name in names))
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)
        assert vars(copy) == vars(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, names[-1], 0)
    assert stats == SufficientStatistics(5.0, -1.5, 2.0, -1.0, 3)
    assert stats != SufficientStatistics(5.0, -1.5, 2.0, -1.0, 4)
    assert report == DetectionReport(statistic=1.5, threshold=-0.5) != DetectionReport(1.5, 0.5)

    moved = dataclasses.replace(stats, last=0.5)
    assert moved == SufficientStatistics(5.0, -1.5, 2.0, 0.5, 3)
    with pytest.raises(ConfigError, match="sum_sq smaller than a boundary square"):
        dataclasses.replace(stats, last=3.0)
    flipped = dataclasses.replace(report, threshold=3.0)
    assert (flipped.decision, flipped.margin) == (1, 1.5)
    assert flipped.conditional_error == math.exp(-0.75) / (1.0 + math.exp(-0.75))
    for name in ("decision", "margin", "conditional_error"):
        with pytest.raises(ValueError):
            dataclasses.replace(report, **{name: 0})
    assert dataclasses.replace(spec, prior1=0.5) == sk.DetectorSpec(st1, st2, 0.5, 20)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, lag_coef=0.0)


def test_conditional_error_is_taken_on_first_read():
    """DetectionReport stores conditional_error on its first read.  Before
    and after that read, asdict, ==, hash, repr, a pickle round trip,
    replace and frozenness are those of the eager field, and an unknown
    name is still an AttributeError."""
    read = DetectionReport(1.5, -0.5)
    assert read.conditional_error == 0.2689414213699951
    assert list(vars(read)) == ["statistic", "threshold", "decision", "margin", "conditional_error"]
    protocols = {
        "asdict": asdict,
        "repr": repr,
        "hash": hash,
        "pickle": lambda r: pickle.loads(pickle.dumps(r)),
        "replace": lambda r: dataclasses.replace(r, threshold=3.0),
        "eq": lambda r: r == read and read == r and r != DetectionReport(1.5, 0.5),
    }
    for name, protocol in protocols.items():
        unread = DetectionReport(1.5, -0.5)
        assert "conditional_error" not in vars(unread)
        assert protocol(unread) == protocol(read), name
        for report in (unread, read):
            with pytest.raises(dataclasses.FrozenInstanceError):
                report.conditional_error = 0.5
    unread = DetectionReport(1.5, -0.5)
    copy = pickle.loads(pickle.dumps(unread))
    assert list(vars(copy)) == ["statistic", "threshold", "decision", "margin"]
    assert copy.conditional_error == read.conditional_error
    assert dataclasses.replace(unread, threshold=3.0).conditional_error == (
        math.exp(-0.75) / (1.0 + math.exp(-0.75))
    )
    for report in (unread, read):
        assert not hasattr(report, "conditional_errors")
        with pytest.raises(AttributeError, match="conditional_errors"):
            report.conditional_errors
    assert hasattr(unread, "conditional_error")


def test_exact_tie_decides_class_one():
    # identical classes with equal priors: statistic and threshold are both 0
    st = sk.ClassStatistics(alpha=0.5, rho=0.5)
    with pytest.warns(UserWarning):
        spec = build_detector(st, st, 0.5, 5)
    assert spec.energy_coef == 0.0
    assert spec.lag_coef == 0.0
    assert spec.edge_coef == 0.0
    report = detect_full(spec, np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
    assert report.statistic == 0.0
    assert report.threshold == 0.0
    assert report.decision == 1
    assert report.conditional_error == 0.5


def conditional_error(statistic: float, z: float) -> float:
    return DetectionReport(statistic, z).conditional_error


def test_conditional_error_values(default_detector):
    z = threshold(default_detector, 20)
    assert conditional_error(z, z) == 0.5
    off = conditional_error(z - 2.0 * math.log(3.0), z)
    assert off == pytest.approx(0.25, abs=1e-15)
    # symmetric in the sign of the margin
    assert conditional_error(z + 1.3, z) == conditional_error(z - 1.3, z)


def test_conditional_error_monotone(default_detector):
    z = threshold(default_detector, 20)
    margins = np.linspace(0.0, 40.0, 200)
    values = [conditional_error(z - m, z) for m in margins]
    assert all(0.0 < v <= 0.5 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_detection_report_dict(default_detector):
    report = detect_full(default_detector, np.ones(20))
    d = asdict(report)
    assert set(d) == {
        "decision",
        "statistic",
        "threshold",
        "margin",
        "conditional_error",
    }


def test_majority_of_each_class_on_its_side(default_scenario):
    batch = simulate_batch(default_scenario, 500, 6)
    spec = detector_from_scenario(default_scenario)
    for label in (1, 2):
        decisions = [
            detect_full(spec, series).decision
            for lab, series in batch.trials
            if lab == label
        ]
        correct = sum(1 for d in decisions if d == label)
        assert correct > len(decisions) / 2


def test_roc_sweep_extremes_and_monotonicity(default_scenario):
    """The ROC that run_roc sweeps over _full_statistics: every trial is called
    class 2 below every statistic and none above, and both rates fall as the
    threshold rises."""
    batch = simulate_batch(default_scenario, 400, 9)
    labels, samples = batch.label, batch.samples.reshape(400, -1)
    spec = detector_from_scenario(default_scenario)
    statistics = _full_statistics(spec, samples)
    is2 = labels == 2
    thresholds = [-math.inf, -50.0, -20.0, -5.0, 0.0, math.inf]
    fprs = [float((statistics[~is2] > thr).mean()) for thr in thresholds]
    tprs = [float((statistics[is2] > thr).mean()) for thr in thresholds]
    assert fprs[0] == 1.0
    assert tprs[0] == 1.0
    assert fprs[-1] == 0.0
    assert tprs[-1] == 0.0
    assert fprs == sorted(fprs, reverse=True)
    assert tprs == sorted(tprs, reverse=True)


@pytest.mark.parametrize("horizon", [1, 2, 20, 1000])
def test_full_statistics_bit_identical_to_detect_full(default_detector, horizon):
    rng = np.random.default_rng(horizon)
    samples = rng.normal(size=(40, horizon)) * rng.uniform(0.1, 10.0, size=(40, 1))
    got = _full_statistics(default_detector, samples)
    expected = np.array([detect_full(default_detector, row).statistic for row in samples])
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("horizon", [1, 2, 20, 1000])
def test_detect_full_is_the_difference_of_the_public_forms(default_detector, horizon):
    """detect_full's one kernel, _full_statistics, rounds each quadratic form
    exactly as kms_quadratic_form does."""
    rng = np.random.default_rng(100 + horizon)
    stats = (default_detector.stats1, default_detector.stats2)
    for row in rng.normal(size=(40, horizon)) * rng.uniform(0.1, 10.0, size=(40, 1)):
        form1, form2 = (kms_quadratic_form(st, row) for st in stats)
        assert detect_full(default_detector, row).statistic == form1 - form2


def test_detect_batch_equals_detect_simplified_per_trial(default_detector):
    """Ragged trials: every column equals the report field bit for bit, as a
    plain Python number, in trial order."""
    rng = np.random.default_rng(12)
    lengths = (1, 4, 7, 4, 1, 20, 2)
    trials = tuple(
        (1 + i % 2, MeasurementSeries(samples=rng.normal(size=n) * 2.0**i))
        for i, n in enumerate(lengths)
    )
    columns = detect_batch(default_detector, sk.TrialBatch.from_trials(trials))
    assert [len(c) for c in columns] == [len(lengths)] * 3
    for row, (_, series) in zip(zip(*columns), trials):
        report = detect_simplified(
            default_detector, SufficientStatistics.from_series(series.samples)
        )
        assert row == (report.decision, report.statistic, report.threshold)
        assert [type(v) for v in row] == [int, float, float]


def test_detect_batch_refuses_an_overflowing_trial(default_detector):
    trials = [(1, MeasurementSeries(samples=np.ones(3)))] * 2
    trials.append((2, MeasurementSeries(samples=np.full(5, 1e200))))
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="trial 2"):
        detect_batch(default_detector, sk.TrialBatch.from_trials(trials))


def test_an_overflowing_statistic_is_refused_on_every_path(default_detector):
    """The trial (1.2e154, 0.5) folds to finite sums, but its statistic
    overflows: the simplified, full and streamed decisions refuse it as
    detect_batch does, and (1e200, 0.5) has no finite sums.  Each path
    raises only its ConfigError, with no numpy warning first."""
    y = np.array([1.2e154, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="decision statistic overflows"):
            detect_simplified(default_detector, SufficientStatistics.from_series(y))
        with pytest.raises(ConfigError, match="decision statistic overflows"):
            detect_full(default_detector, y)
        with pytest.raises(ConfigError, match="decision statistic overflows"):
            list(_stream_reports(default_detector, y.tolist()))
        with pytest.raises(ConfigError, match="trial 0: decision statistic overflows"):
            detect_batch(default_detector, sk.TrialBatch([1], y, [0, 2]))
        with pytest.raises(ConfigError, match="sufficient statistics must be finite"):
            SufficientStatistics.from_series(np.array([1e200, 0.5]))


def test_fit_recovers_parameters(default_scenario):
    st1 = default_scenario.stats1()
    samples = sample_matrix(st1, 20, 10_000, np.random.default_rng(77))
    fitted = fit_class_statistics([samples[i] for i in range(samples.shape[0])])
    assert fitted.alpha == pytest.approx(st1.alpha, rel=0.02)
    assert fitted.rho == pytest.approx(st1.rho, rel=0.02)


def test_fitted_detector_close_to_true_detector(default_scenario):
    s = default_scenario
    rng = np.random.default_rng(99)
    fit1 = sample_matrix(s.stats1(), 20, 4000, rng)
    fit2 = sample_matrix(s.stats2(), 20, 4000, rng)
    fitted_spec = build_detector(
        fit_class_statistics(list(fit1)),
        fit_class_statistics(list(fit2)),
        s.sampling.prior1,
        s.sampling.horizon,
    )
    true_spec = detector_from_scenario(s)

    held_out = simulate_batch(s, 8000, 1234)
    labels = held_out.labels()

    def error_rate(spec):
        wrong = 0
        z = threshold(spec, s.sampling.horizon)
        for label, series in held_out.trials:
            stat = detect_full(spec, series).statistic
            wrong += (1 if stat <= z else 2) != label
        return wrong / labels.size

    assert error_rate(fitted_spec) <= 1.2 * error_rate(true_spec)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ConfigError):
        fit_class_statistics([np.array([1.0])])  # one sample total
    # all-zero data, or samples such as 1e-200 whose squares underflow
    for series in ([np.zeros(10)], [np.full(5, 1e-200)], [np.zeros(4), np.array([1e-170, -1e-170])]):
        with pytest.raises(ConfigError, match="^the sum of squares is 0; the data cannot be fitted$"):
            fit_class_statistics(series)
    with pytest.raises(ConfigError):
        fit_class_statistics([np.array([1.0]), np.array([2.0])])  # no lag pairs


def test_fit_clamps_rho_into_open_interval():
    # alternating signs push the raw lag moment negative; the estimate must
    # stay inside (0, 1) because the model types require it
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
    fitted = fit_class_statistics([y])
    assert 0.0 < fitted.rho < 1.0


def test_build_detector_validation(default_scenario):
    st1, st2 = default_scenario.stats1(), default_scenario.stats2()
    with pytest.raises(ConfigError):
        build_detector(st1, st2, prior1=0.0)
    with pytest.raises(ConfigError):
        build_detector(st1, st2, prior1=1.0)
    with pytest.raises(ConfigError):
        build_detector(st1, st2, prior1=0.5, horizon=0)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**31),
    n=st.integers(1, 25),
)
def test_statistic_scale_covariance(scale, seed, n):
    """Scaling every sample by s scales the statistic by s**2 exactly enough."""
    spec = detector_from_scenario(sk.Scenario.default())
    y = np.random.default_rng(seed).normal(size=n)
    base = detect_full(spec, y).statistic
    scaled = detect_full(spec, scale * y).statistic
    assert scaled == pytest.approx(scale * scale * base, rel=1e-9, abs=1e-12)
