"""Physical model parameters and the exact sampled covariance structure.

A feedback-controlled object holding a constant reference speed responds to
white-noise disturbance as a first-order (Ornstein-Uhlenbeck) process.  The
velocity deviation sampled every ``period`` seconds is then a stationary
Gaussian AR(1) sequence whose covariance is fully described by two numbers
per class: the stationary variance ``alpha`` and the one-step correlation
``rho``.  Everything downstream (simulation, detection, error analysis)
consumes only those two numbers.
"""

import json
import math
import os
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "IntruderParams",
    "NoiseSpec",
    "SamplingSpec",
    "ClassStatistics",
    "Scenario",
    "class_statistics",
    "continuous_autocorrelation",
]


def _read_json(path, what: str):
    """The JSON value in the UTF-8 file ``path``.  A file that cannot be
    opened, decoded or parsed, or that nests too deep to parse, is refused
    with one ``ConfigError`` naming ``what`` and the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


@dataclass(frozen=True)
class IntruderParams:
    """Mass and feedback gain of one intruder class (consistent, unit-free);
    the ``Scenario`` slot that holds it, ``intruder1`` or ``intruder2``, sets
    the class."""

    mass: float
    gain: float

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ConfigError(f"mass must be positive and finite, got {self.mass}")
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ConfigError(f"gain must be positive and finite, got {self.gain}")


@dataclass(frozen=True)
class NoiseSpec:
    """Intensity of the zero-mean white disturbance shared by both classes."""

    intensity: float

    def __post_init__(self):
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise ConfigError(
                f"noise intensity must be positive and finite, got {self.intensity}"
            )


@dataclass(frozen=True)
class SamplingSpec:
    """Sampling period, observation horizon, and class priors."""

    period: float
    horizon: int
    prior1: float

    def __post_init__(self):
        if not (math.isfinite(self.period) and self.period > 0):
            raise ConfigError(f"period must be positive and finite, got {self.period}")
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise ConfigError(f"horizon must be an integer >= 1, got {self.horizon}")
        if not (0.0 < self.prior1 < 1.0):
            raise ConfigError(f"prior1 must lie strictly in (0, 1), got {self.prior1}")

    @property
    def prior2(self) -> float:
        return 1.0 - self.prior1


@dataclass(frozen=True)
class ClassStatistics:
    """Stationary variance and one-step correlation of the sampled deviations."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"alpha must be positive and finite, got {self.alpha}")
        # rho = 1 would make the sampled covariance singular; rejected outright.
        if not (0.0 < self.rho < 1.0):
            raise ConfigError(f"rho must lie strictly in (0, 1), got {self.rho}")


def _alpha(params: IntruderParams, noise: NoiseSpec) -> float:
    """Stationary variance q / (2 * gain * mass), refused with a message naming
    mass, gain, q and the limit hit where it rounds to inf or to 0."""
    denominator = 2.0 * params.gain * params.mass
    alpha = noise.intensity / denominator if denominator > 0.0 else math.inf
    if not 0.0 < alpha < math.inf:
        limit = "overflows to inf" if alpha else "underflows to 0"
        raise ConfigError(
            f"mass {params.mass!r}, gain {params.gain!r} and q {noise.intensity!r} "
            f"give alpha = q/(2*k*m), which {limit}; alpha must be positive and finite"
        )
    return alpha


def class_statistics(
    params: IntruderParams, noise: NoiseSpec, sampling: SamplingSpec
) -> ClassStatistics:
    """Map (mass, gain, noise intensity, period) to the sampled AR(1) law.

    alpha = q / (2 * gain * mass) is the stationary variance of the velocity
    deviation; rho = exp(-(gain / mass) * period) is the correlation between
    consecutive samples.  Both follow from sampling the stationary response
    of the first-order dynamics exactly, with no discretization error.
    A decay T*k/m so small that rho rounds to 1, or so large that rho
    underflows to 0, is refused with a message naming mass and gain, and so
    is an alpha that leaves the float range (see :func:`_alpha`).
    """
    alpha = _alpha(params, noise)
    decay = (params.gain / params.mass) * sampling.period
    rho = math.exp(-decay)
    if not 0.0 < rho < 1.0:
        limit = "rounds to 1" if rho == 1.0 else "underflows to 0"
        raise ConfigError(
            f"mass {params.mass!r} and gain {params.gain!r} give T*k/m = {decay!r}, "
            f"so rho = exp(-T*k/m) {limit}; rho must lie strictly in (0, 1)"
        )
    return ClassStatistics(alpha=alpha, rho=rho)


def continuous_autocorrelation(
    params: IntruderParams, noise: NoiseSpec, lag: float
) -> float:
    """Autocorrelation of the continuous-time stationary velocity deviation.

    Returns q / (2*gain*mass) * exp(-(gain/mass) * |lag|).  Sampling this at
    lag = n * period gives the covariance alpha * rho**n of samples n apart.
    """
    return _alpha(params, noise) * math.exp(-(params.gain / params.mass) * abs(lag))


_CONFIG_DEFAULTS = {
    "m1": 1.0,
    "k1": 1.0,
    "m2": 1.0,
    "k2": 3.0,
    "q": 1.0,
    "T": 0.5,
    "kf": 20,
    "prior1": 0.5,
}


@dataclass(frozen=True)
class Scenario:
    """Complete two-class problem description: both intruders, noise, sampling."""

    intruder1: IntruderParams
    intruder2: IntruderParams
    noise: NoiseSpec
    sampling: SamplingSpec

    def stats1(self) -> ClassStatistics:
        return class_statistics(self.intruder1, self.noise, self.sampling)

    def stats2(self) -> ClassStatistics:
        return class_statistics(self.intruder2, self.noise, self.sampling)

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        """Build from a config mapping with keys m1, k1, m2, k2, q, T, kf, prior1.

        Missing keys take the built-in defaults; unknown keys are rejected so
        that typos fail loudly instead of silently keeping a default.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(_CONFIG_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**_CONFIG_DEFAULTS, **raw}
        if isinstance(merged["kf"], bool):  # bool would pass the int() check below
            raise ConfigError(f"kf must be an integer, got {merged['kf']!r}")
        try:
            kf = int(merged["kf"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"kf must be an integer, got {merged['kf']!r}") from exc
        if kf != merged["kf"]:
            raise ConfigError(f"kf must be an integer, got {merged['kf']!r}")
        def as_float(key):
            value = merged[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
            return float(value)

        return cls(
            intruder1=IntruderParams(mass=as_float("m1"), gain=as_float("k1")),
            intruder2=IntruderParams(mass=as_float("m2"), gain=as_float("k2")),
            noise=NoiseSpec(intensity=as_float("q")),
            sampling=SamplingSpec(
                period=as_float("T"), horizon=kf, prior1=as_float("prior1")
            ),
        )

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "Scenario":
        return cls.from_dict(_read_json(path, "config"))

    @classmethod
    def default(cls) -> "Scenario":
        return cls.from_dict({})

    def to_dict(self) -> dict:
        return {
            "m1": self.intruder1.mass,
            "k1": self.intruder1.gain,
            "m2": self.intruder2.mass,
            "k2": self.intruder2.gain,
            "q": self.noise.intensity,
            "T": self.sampling.period,
            "kf": self.sampling.horizon,
            "prior1": self.sampling.prior1,
        }
