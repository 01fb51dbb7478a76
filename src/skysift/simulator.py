"""Exact sampling of velocity-deviation trajectories and Monte Carlo batches.

The sampled deviation process is a stationary Gaussian AR(1) sequence, so a
trajectory is generated exactly (no time-discretization bias): the first
sample is drawn from the stationary law and each subsequent sample from the
one-step conditional.  The joint distribution of the output then matches the
model covariance matrix exactly, which the law tests rely on.

Randomness contract: every trial derives its own child stream from
(seed, trial index) via ``numpy.random.SeedSequence.spawn``, so batches are
reproducible and trials could be generated concurrently without sharing a
stream.  Standard normals are produced by inverse-CDF transform
(``scipy.special.ndtri``) of 53-bit uniforms; this choice is fixed because
archived CSV fixtures depend on it bit for bit.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError
from .model import ClassStatistics, Scenario

__all__ = [
    "MeasurementSeries",
    "TrialBatch",
    "simulate_trajectory",
    "simulate_batch",
    "write_batch_csv",
    "read_batch_csv",
]

CSV_HEADER = ("trial", "label", "k", "y")


@dataclass(frozen=True, eq=False)
class MeasurementSeries:
    """One observed series y[0..n-1] of velocity deviations, sampled every ``period``."""

    samples: np.ndarray
    period: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ConfigError("samples must be a non-empty 1-D array")
        if not np.isfinite(samples).all():
            raise ConfigError("samples must all be finite")
        if not (math.isfinite(self.period) and self.period > 0):
            raise ConfigError(f"period must be positive and finite, got {self.period}")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Labeled Monte Carlo trials; ``seed`` is None for batches read from disk."""

    trials: tuple
    seed: int | None = None

    def __post_init__(self):
        if len(self.trials) < 1:
            raise ConfigError("batch must contain at least one trial")
        for label, series in self.trials:
            if label not in (1, 2):
                raise ConfigError(f"trial label must be 1 or 2, got {label}")
            if not isinstance(series, MeasurementSeries):
                raise ConfigError("each trial must carry a MeasurementSeries")

    def labels(self) -> np.ndarray:
        return np.array([label for label, _ in self.trials], dtype=int)


def _standard_normals_from_bits(bits: np.ndarray) -> np.ndarray:
    # Centered 53-bit uniforms keep the transform away from ndtri's poles.
    return ndtri((bits + 0.5) * 2.0**-53)


def _draw_bits(rng: np.random.Generator, size) -> np.ndarray:
    return rng.integers(0, 2**53, size=size).astype(float)


def _ar1_from_normals(alpha, rho, normals: np.ndarray) -> np.ndarray:
    """Run the exact AR(1) recursion on pre-drawn standard normals.

    Works on one series (1-D) or a stack of series (2-D, one per row);
    ``alpha`` and ``rho`` may be per-row vectors in the stacked case.  The
    elementwise operation order matches the scalar recursion, so stacked and
    one-at-a-time generation agree bitwise.
    """
    innovation = np.sqrt(alpha * (1.0 - rho * rho))
    out = np.empty_like(normals)
    out[..., 0] = np.sqrt(alpha) * normals[..., 0]
    for k in range(1, normals.shape[-1]):
        out[..., k] = rho * out[..., k - 1] + innovation * normals[..., k]
    return out


def simulate_trajectory(
    stats: ClassStatistics, horizon: int, rng_seed
) -> MeasurementSeries:
    """Draw one exact stationary trajectory of length ``horizon``.

    ``rng_seed`` may be an integer or a ``numpy.random.SeedSequence``.  The
    first sample has variance ``alpha``; each later sample is
    rho * previous + Normal(0, alpha * (1 - rho**2)).
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    rng = np.random.default_rng(rng_seed)
    normals = _standard_normals_from_bits(_draw_bits(rng, horizon))
    samples = _ar1_from_normals(stats.alpha, stats.rho, normals)
    return MeasurementSeries(samples=samples, period=1.0)


def _sample_matrix(
    stats: ClassStatistics, horizon: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Bulk sampler from a single stream: (n, horizon) matrix of trajectories.

    Law tests use this for very large n; it trades the per-trial stream
    contract for speed, so it is internal.
    """
    normals = _standard_normals_from_bits(_draw_bits(rng, (n, horizon)))
    return _ar1_from_normals(stats.alpha, stats.rho, normals)


def simulate_batch(scenario: Scenario, n_trials: int, rng_seed: int) -> TrialBatch:
    """Generate labeled trials: class drawn Bernoulli(prior1), then a trajectory.

    Child stream 0 of the seed draws the labels; child i+1 drives trial i, so
    trial i's samples depend only on (seed, i, its label's statistics).
    """
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    sampling = scenario.sampling
    stats = {1: scenario.stats1(), 2: scenario.stats2()}
    children = np.random.SeedSequence(rng_seed).spawn(n_trials + 1)
    label_rng = np.random.default_rng(children[0])
    labels = np.where(label_rng.random(n_trials) < sampling.prior1, 1, 2)

    horizon = sampling.horizon
    bits = np.empty((n_trials, horizon))
    for i in range(n_trials):
        bits[i] = _draw_bits(np.random.default_rng(children[i + 1]), horizon)
    normals = _standard_normals_from_bits(bits)
    alpha = np.where(labels == 1, stats[1].alpha, stats[2].alpha)
    rho = np.where(labels == 1, stats[1].rho, stats[2].rho)
    samples = _ar1_from_normals(alpha, rho, normals)

    period = sampling.period
    trials = tuple(
        (int(labels[i]), MeasurementSeries(samples=samples[i], period=period))
        for i in range(n_trials)
    )
    return TrialBatch(trials=trials, seed=rng_seed)


def write_batch_csv(batch: TrialBatch, path) -> None:
    """Write trials as CSV with header ``trial,label,k,y``, one row per sample.

    Lines end in CRLF, and ``y`` is the ``repr`` of the sample, which
    round-trips exactly.
    """
    lengths = np.array([len(series) for _, series in batch.trials])
    starts = np.cumsum(lengths) - lengths
    trial = np.repeat(np.arange(lengths.size), lengths)
    k = np.arange(trial.size) - np.repeat(starts, lengths)
    label = np.repeat(batch.labels(), lengths)
    y = np.concatenate([series.samples for _, series in batch.trials])
    columns = zip(trial.tolist(), label.tolist(), k.tolist(), y.tolist())
    rows = [f"{t},{lab},{i},{v!r}\r\n" for t, lab, i, v in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n" + "".join(rows))


_CSV_ROW = np.dtype(
    [("trial", np.int64), ("label", np.int64), ("k", np.int64), ("y", float)]
)


def _parse_rows(fh, path) -> np.ndarray:
    """Parse the data rows after the header into a structured array."""
    with warnings.catch_warnings():
        # older numpy parses "1.0" into an integer field via float and only
        # warns; make that a refusal, as int() refuses it
        warnings.simplefilter("error", DeprecationWarning)
        # input with no data rows warns; the caller refuses it
        warnings.simplefilter("ignore", UserWarning)
        try:
            return np.loadtxt(
                fh,
                dtype=_CSV_ROW,
                delimiter=",",
                comments=None,
                quotechar='"',
                usecols=(0, 1, 2, 3),
                ndmin=1,
            )
        except (ValueError, DeprecationWarning) as exc:
            raise ConfigError(f"{path}: malformed row: {exc}") from exc


def read_batch_csv(path, period: float = 1.0) -> TrialBatch:
    """Read trials written by :func:`write_batch_csv`.

    Rows may come in any order; trials are returned in ascending trial id,
    renumbered from 0, with samples in ``k`` order.  Blank lines are skipped
    and fields after ``y`` ignored.  Refused with ``ConfigError``: a wrong
    header, no data rows, a malformed or short row, a label other than 1 or
    2 or two labels in one trial, ``k`` not exactly 0..n-1 within a trial,
    and a non-finite ``y``.

    The CSV carries no sampling period; pass one if downstream code needs it
    (the detector itself never does).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if tuple(header) != CSV_HEADER:
            raise ConfigError(f"{path}: expected header {','.join(CSV_HEADER)}")
        rows = _parse_rows(fh, path)
    if rows.size == 0:
        raise ConfigError(f"{path}: no data rows")
    rows = rows[np.lexsort((rows["k"], rows["trial"]))]
    trial, label, k, y = rows["trial"], rows["label"], rows["k"], rows["y"]
    starts = np.flatnonzero(np.r_[True, trial[1:] != trial[:-1]])
    lengths = np.diff(starts, append=trial.size)
    first = np.repeat(starts, lengths)

    def refuse(bad: np.ndarray, problem: str) -> None:
        if bad.any():
            raise ConfigError(f"{path}: trial {trial[np.argmax(bad)]} {problem}")

    refuse(label != label[first], "has inconsistent labels")
    refuse(k != np.arange(trial.size) - first, "has non-contiguous sample indices")
    refuse(~np.isfinite(y), "has a non-finite sample")
    trials = tuple(
        (lab, MeasurementSeries(samples=y[lo : lo + n], period=period))
        for lab, lo, n in zip(label[starts].tolist(), starts.tolist(), lengths.tolist())
    )
    return TrialBatch(trials=trials, seed=None)
