"""MAP decision rule in full, simplified, and streaming forms.

The optimal rule compares the difference of the two inverse-covariance
quadratic forms against a threshold built from the priors and the two
log-determinants.  Because both covariances share the exponential-correlation
structure, that difference collapses to three running sums: the energy
sum(y**2), the adjacent-lag sum(y[i]*y[i+1]), and the two edge squares.  The
full form, the collapsed form, and an O(1)-per-sample streaming update are
all provided and agree to rounding; the equivalence is enforced by tests.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .kms import _quadratic_form_from_sums
from .model import ClassStatistics, SamplingSpec, Scenario
from .simulator import MeasurementSeries, TrialBatch

__all__ = [
    "DetectorSpec",
    "SufficientStatistics",
    "DetectionReport",
    "build_detector",
    "detector_from_scenario",
    "threshold",
    "detect_full",
    "detect_simplified",
    "stream_update",
    "fit_class_statistics",
]


def _inv_gain(stats: ClassStatistics) -> float:
    # common scale 1 / (alpha * (1 - rho**2)) of the analytic inverse
    return 1.0 / (stats.alpha * (1.0 - stats.rho * stats.rho))


@dataclass(frozen=True)
class DetectorSpec:
    """Constants of the decision rule for one class pair and prior.

    The test statistic is
    energy_coef * sum(y**2) + lag_coef * sum(y[i] * y[i+1])
    + edge_coef * (y[0]**2 + y[-1]**2),
    compared against :func:`threshold`; the coefficients and
    ``log_prior_ratio`` are derived from the statistics and ``prior1``.
    ``horizon`` is the configured default series length; detection always
    uses the actual series length.
    """

    stats1: ClassStatistics
    stats2: ClassStatistics
    prior1: float
    energy_coef: float = field(init=False)
    lag_coef: float = field(init=False)
    edge_coef: float = field(init=False)
    log_prior_ratio: float = field(init=False)
    horizon: int

    def __post_init__(self):
        if not (0.0 < self.prior1 < 1.0):
            raise ConfigError(f"prior1 must lie strictly in (0, 1), got {self.prior1}")
        g1, g2 = _inv_gain(self.stats1), _inv_gain(self.stats2)
        r1, r2 = self.stats1.rho, self.stats2.rho
        derived = {
            "energy_coef": (1.0 + r1 * r1) * g1 - (1.0 + r2 * r2) * g2,
            "lag_coef": 2.0 * r2 * g2 - 2.0 * r1 * g1,
            "edge_coef": r2 * r2 * g2 - r1 * r1 * g1,
            "log_prior_ratio": math.log(self.prior1 / (1.0 - self.prior1)),
        }
        for name, value in derived.items():
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        # threshold's log differences, not fields: replace() re-runs this
        a1, a2 = self.stats1.alpha, self.stats2.alpha
        object.__setattr__(self, "_log_alpha_ratio", math.log(a2) - math.log(a1))
        object.__setattr__(self, "_log_rho_ratio", math.log1p(-r2 * r2) - math.log1p(-r1 * r1))


@dataclass(frozen=True, init=False)
class SufficientStatistics:
    """Running sums that are all the detector needs from a series.

    ``first`` and ``last`` hold the raw boundary samples; their squares enter
    the statistic, and the raw last value is what makes the O(1) streaming
    update possible.  Every instance is checked when it is built.
    """

    sum_sq: float
    sum_lag: float
    first: float
    last: float
    count: int

    def __init__(self, sum_sq: float, sum_lag: float, first: float, last: float, count: int):
        # the checks run on the arguments, then one write stores the fields:
        # a generated frozen __init__ makes one object.__setattr__ per field
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        if not (
            math.isfinite(sum_sq)
            and math.isfinite(sum_lag)
            and math.isfinite(first)
            and math.isfinite(last)
        ):
            raise ConfigError("sufficient statistics must be finite")
        # These hold exactly for sums folded from real data (non-negative
        # increments; termwise Cauchy-Schwarz with boundary slack).
        if sum_sq < first * first or sum_sq < last * last:
            raise ConfigError("sum_sq smaller than a boundary square")
        if abs(sum_lag) > sum_sq:
            raise ConfigError("adjacent-lag sum exceeds the energy sum")
        self.__dict__.update(sum_sq=sum_sq, sum_lag=sum_lag, first=first, last=last, count=count)

    @classmethod
    def from_series(cls, samples) -> "SufficientStatistics":
        """Batch statistics, bit-identical to the ``stream_update`` fold."""
        samples = _coerce_samples(samples)
        sum_sq, sum_lag = _running_sums(samples)
        first, last = float(samples[0]), float(samples[-1])
        return cls(float(sum_sq), float(sum_lag), first, last, samples.size)


def _running_sums(samples: np.ndarray):
    """Energy sum(y**2) and lag-1 sum(y[i]*y[i+1]) along the last axis; cumsum
    adds left to right from the same 0.0 as stream_update, so bit-identical."""
    lag = np.zeros_like(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers refuse inf and nan
        lag[..., 1:] = samples[..., :-1] * samples[..., 1:]
        sum_sq = np.cumsum(samples * samples, axis=-1)[..., -1]
        return sum_sq, np.cumsum(lag, axis=-1)[..., -1]


def stream_update(
    state: "SufficientStatistics | None", y_next: float
) -> SufficientStatistics:
    """Fold one new sample into the running sums; ``state=None`` starts a stream."""
    if state is None:
        return SufficientStatistics(y_next * y_next, 0.0, y_next, y_next, 1)
    return SufficientStatistics(
        state.sum_sq + y_next * y_next,
        state.sum_lag + state.last * y_next,
        state.first,
        y_next,
        state.count + 1,
    )


def _stream_reports(spec: DetectorSpec, values):
    """The running decision of one streamed series: ``detect_simplified``
    after each value of ``values`` is folded in by ``stream_update``."""
    state = None
    for y in values:
        state = stream_update(state, y)
        yield detect_simplified(spec, state)


@dataclass(frozen=True, init=False)
class DetectionReport:
    """Outcome of one detection: statistic vs threshold, and derived from
    them the decision (a tie goes to class 1), the margin and the posterior
    probability that the decision is wrong.  A statistic that overflows is
    refused.

    ``conditional_error`` is taken on its first read, since a streamed
    decision never reads it; ``asdict``, ``==``, ``hash``, ``repr``, pickle
    and ``replace`` read every field and so see the same values either way."""

    decision: int = field(init=False)
    statistic: float
    threshold: float
    margin: float = field(init=False)
    conditional_error: float = field(
        init=False, default=cached_property(lambda self: _conditional_error_from_margin(self.margin))
    )

    def __init__(self, statistic: float, threshold: float):
        if not math.isfinite(statistic):
            raise ConfigError("decision statistic overflows")
        self.__dict__.update(
            statistic=statistic,
            threshold=threshold,
            decision=1 if statistic <= threshold else 2,
            margin=threshold - statistic,
        )


def build_detector(
    stats1: ClassStatistics,
    stats2: ClassStatistics,
    prior1: float = 0.5,
    horizon: int = 1,
) -> DetectorSpec:
    """Precompute the decision constants for a class pair.

    Identical class statistics are tolerated with a warning: all three
    coefficients become zero and decisions degenerate to a prior comparison.
    """
    spec = DetectorSpec(stats1, stats2, prior1, horizon)
    if stats1.alpha == stats2.alpha and stats1.rho == stats2.rho:
        warnings.warn(
            "class statistics are identical; decisions will follow priors only",
            UserWarning,
            stacklevel=2,
        )
    return spec


def detector_from_scenario(scenario: Scenario) -> DetectorSpec:
    sampling: SamplingSpec = scenario.sampling
    return build_detector(
        scenario.stats1(), scenario.stats2(), sampling.prior1, sampling.horizon
    )


def threshold(spec: DetectorSpec, horizon: int | None = None) -> float:
    """Decision threshold for a series of the given length (default: configured).

    z = 2 * log_prior_ratio + n * ln(alpha2 / alpha1)
      + (n - 1) * ln((1 - rho2**2) / (1 - rho1**2)),
    which equals the prior term plus the log-determinant difference of the
    two covariances.  Linear in n, so consecutive horizons differ by a
    constant increment.
    """
    n = spec.horizon if horizon is None else horizon
    if n < 1:
        raise ConfigError(f"horizon must be >= 1, got {n}")
    # the two log differences are taken once, by DetectorSpec
    return 2.0 * spec.log_prior_ratio + n * spec._log_alpha_ratio + (n - 1) * spec._log_rho_ratio


def _coerce_samples(y) -> np.ndarray:
    return (y if isinstance(y, MeasurementSeries) else MeasurementSeries(y)).samples


def detect_full(spec: DetectorSpec, y) -> DetectionReport:
    """Decide via the difference of the two inverse-covariance quadratic forms.

    O(n) despite being the 'full' matrix form, thanks to the closed-form
    inverses; kept as the reference implementation for the simplified path.
    """
    samples = _coerce_samples(y)
    with np.errstate(over="ignore", invalid="ignore"):  # DetectionReport refuses inf and nan
        statistic = _full_statistics(spec, samples[None, :])[0]
    return DetectionReport(statistic, threshold(spec, samples.size))


def detect_simplified(spec: DetectorSpec, stats: SufficientStatistics) -> DetectionReport:
    """Decide from the running sums alone (identical decision to detect_full)."""
    first, last = stats.first, stats.last
    statistic = (
        spec.energy_coef * stats.sum_sq
        + spec.lag_coef * stats.sum_lag
        + spec.edge_coef * (first * first + last * last)
    )
    return DetectionReport(statistic, threshold(spec, stats.count))


def detect_batch(spec: DetectorSpec, batch: TrialBatch) -> tuple:
    """``detect_simplified`` on every trial of a batch, as three lists in
    trial order: decisions, statistics and thresholds.

    Each entry equals that report field on the trial's
    ``SufficientStatistics.from_series`` bit for bit: the sums are one cumsum
    fold per trial length.  A trial whose statistic overflows is refused.
    """
    statistics, thresholds = np.empty(batch.label.size), np.empty(batch.label.size)
    for trials, samples in _length_groups(batch):
        sum_sq, sum_lag = _running_sums(samples)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            edges = samples[:, 0] * samples[:, 0] + samples[:, -1] * samples[:, -1]
            statistics[trials] = (
                spec.energy_coef * sum_sq + spec.lag_coef * sum_lag + spec.edge_coef * edges
            )
        thresholds[trials] = threshold(spec, samples.shape[1])
    finite = np.isfinite(statistics)
    if not finite.all():
        raise ConfigError(f"trial {np.argmin(finite)}: decision statistic overflows")
    decisions = np.where(statistics <= thresholds, 1, 2)  # as DetectionReport
    return decisions.tolist(), statistics.tolist(), thresholds.tolist()


def _conditional_error_from_margin(margin: float) -> float:
    # exp of a non-positive argument cannot overflow; 0.5 exactly at margin 0
    odds = math.exp(-0.5 * abs(margin))
    return odds / (1.0 + odds)


def _full_statistics(spec: DetectorSpec, samples: np.ndarray) -> np.ndarray:
    """The full-form statistic of each row of a (trials, n) matrix, the
    difference of the two ``kms_quadratic_form`` values bit for bit: the
    stacked matmul runs the same BLAS dot per row as ``v @ v``."""
    rows = samples[:, None, :]
    s0 = np.matmul(rows, samples[:, :, None])[:, 0, 0]
    s1 = np.matmul(rows[..., :-1], samples[:, 1:, None])[:, 0, 0]
    edge = samples[:, 0] * samples[:, 0] + samples[:, -1] * samples[:, -1]
    form1, form2 = (
        _quadratic_form_from_sums(st, s0, s1, edge) for st in (spec.stats1, spec.stats2)
    )
    return form1 - form2


def _length_groups(batch: TrialBatch):
    """Yield (trial indices, (trials, n) samples) for each distinct trial
    length n; a batch of one length yields a reshape view of its samples."""
    starts, lengths = batch.offsets[:-1], np.diff(batch.offsets)
    if (lengths == lengths[0]).all():
        yield np.arange(lengths.size), batch.samples.reshape(lengths.size, -1)
        return
    for n in np.unique(lengths).tolist():
        trials = np.flatnonzero(lengths == n)
        yield trials, batch.samples[starts[trials, None] + np.arange(n)]


def fit_class_statistics(series_set) -> ClassStatistics:
    """Moment-match (alpha, rho) from archived series of one class.

    alpha_hat pools squared samples over all series; the lag-1 moment pools
    adjacent products.  The denominators differ (n vs n-1 terms per series)
    so each pooled moment is unbiased before the ratio is taken; dividing
    both by n would bias rho_hat low by a factor (n-1)/n.
    """
    pooled = [SufficientStatistics.from_series(series) for series in series_set]
    return _pooled_fit(
        [s.sum_sq for s in pooled], [s.sum_lag for s in pooled], [s.count for s in pooled]
    )


def _fit_batch(batch: TrialBatch, label: int) -> ClassStatistics:
    """``fit_class_statistics`` over the batch's trials of one label, bit for
    bit, from one cumsum fold per trial length instead of one per trial."""
    mine = batch.label == label
    sum_sq, sum_lag = np.empty(mine.size), np.empty(mine.size)
    for trials, samples in _length_groups(batch):
        sum_sq[trials], sum_lag[trials] = _running_sums(samples)
    counts = np.diff(batch.offsets)[mine]
    return _pooled_fit(sum_sq[mine].tolist(), sum_lag[mine].tolist(), counts.tolist())


def _pooled_fit(sums_sq: list, sums_lag: list, counts: list) -> ClassStatistics:
    """The moment match from per-series sums, pooled in series order."""
    sum_sq, sum_lag, n_sq = sum(sums_sq), sum(sums_lag), sum(counts)
    n_lag = n_sq - len(counts)
    if not (math.isfinite(sum_sq) and math.isfinite(sum_lag)):
        raise ConfigError("sufficient statistics must be finite")
    if n_sq < 2:
        raise ConfigError("need at least two samples in total to fit")
    if sum_sq <= 0.0:
        # all-zero data, or samples such as 1e-200 whose squares underflow
        raise ConfigError("the sum of squares is 0; the data cannot be fitted")
    if n_lag < 1:
        raise ConfigError("need at least one series with two or more samples")
    alpha_hat = sum_sq / n_sq
    rho_hat = (sum_lag / n_lag) / alpha_hat
    eps = 1e-9  # keep the estimate inside the open interval the model requires
    rho_hat = min(max(rho_hat, eps), 1.0 - eps)
    return ClassStatistics(alpha=alpha_hat, rho=rho_hat)

