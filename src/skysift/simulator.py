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

How the contract is realised: child 0 draws the labels through numpy's
``default_rng``.  The trial streams, children 1..n, are not built one
``Generator`` at a time; :func:`_raw_streams` computes the raw PCG64 output
of every child in one vectorised pass (the ``SeedSequence`` hash, PCG64
seeding and its output function, all fixed-width integer arithmetic), and
each 53-bit draw is the top 53 bits of one raw output, exactly what
``Generator.integers(0, 2**53)`` returns.  :func:`simulate_trajectory`
still draws through numpy itself; the tests hold the two to bit equality.
"""

import operator
import warnings
from dataclasses import dataclass
from functools import cached_property

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
    """One observed series y[0..n-1] of velocity deviations."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 1:
            raise ConfigError("samples must be a non-empty 1-D array")
        if not np.isfinite(samples).all():
            raise ConfigError("samples must all be finite")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Labeled trials as columns: trial i is ``samples[offsets[i] : offsets[i + 1]]``,
    of class ``label[i]``.  The batch copies its arrays, checks each once as a
    whole and makes them read-only."""

    label: np.ndarray
    samples: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        label, offsets = np.array(self.label), np.array(self.offsets)
        samples = np.array(self.samples, dtype=float)
        if label.ndim != 1 or label.size < 1:
            raise ConfigError("batch must contain at least one trial")
        bad = (label != 1) & (label != 2)
        if np.any(bad):
            raise ConfigError(f"trial labels must be 1 or 2, got {np.unique(label[bad])}")
        if offsets.dtype.kind not in "iu" or offsets.shape != (label.size + 1,):
            raise ConfigError("offsets must be integers, one per trial plus one")
        offsets = offsets.astype(int)
        if samples.ndim != 1 or offsets[0] != 0 or offsets[-1] != samples.size:
            raise ConfigError("offsets must run from 0 to the size of the flat samples")
        if (np.diff(offsets) < 1).any():
            raise ConfigError("every trial must hold at least one sample")
        if not np.isfinite(samples).all():
            raise ConfigError("samples must all be finite")
        columns = {"label": label.astype(int), "samples": samples, "offsets": offsets}
        for name, value in columns.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def from_trials(cls, trials) -> "TrialBatch":
        """Batch of ``(label, MeasurementSeries)`` pairs."""
        pairs = tuple(trials)
        if not all(isinstance(series, MeasurementSeries) for _, series in pairs):
            raise ConfigError("each trial must carry a MeasurementSeries")
        samples = [series.samples for _, series in pairs]
        offsets = np.cumsum([0] + [s.size for s in samples])
        samples = np.concatenate(samples or [[]])
        return cls([label for label, _ in pairs], samples, offsets)

    def labels(self) -> np.ndarray:
        return self.label

    @cached_property
    def trials(self) -> tuple:
        """``(label, MeasurementSeries)`` per trial, built on first use; each
        series is a view of the checked, read-only ``samples``."""
        bounds, pairs = self.offsets.tolist(), []
        for lab, lo, hi in zip(self.label.tolist(), bounds, bounds[1:]):
            series = object.__new__(MeasurementSeries)  # no copy, no re-check
            object.__setattr__(series, "samples", self.samples[lo:hi])
            pairs.append((lab, series))
        return tuple(pairs)


def _standard_normals_from_bits(bits: np.ndarray) -> np.ndarray:
    # Centered 53-bit uniforms keep the transform away from ndtri's poles.
    return ndtri((bits + 0.5) * 2.0**-53)


def _check_seed(seed) -> None:
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


# most samples one call simulates: CLI simulate peaks at 34-42 bytes per
# sample above the import, nearly all of it the batch (the CSV writer's
# blocks are bounded), so 2**23 of them take about 350 MB
_SAMPLES_MAX = 1 << 23


def _check_samples(count: int) -> None:
    if count > _SAMPLES_MAX:
        raise ConfigError(f"{count} samples exceed the simulation limit 2**23")


# SeedSequence hash constants (numpy/random/bit_generator.pyx); all of its
# arithmetic is on uint32 and wraps
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
# (trial, draw) cells per block of the output grid, to bound the temporaries
_GRID_BLOCK = 1 << 18


def _child_seed_words(seed: int, keys: np.ndarray) -> list:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)`` for
    every k in ``keys`` (uint32), as four uint64 arrays."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    # the seed's 32-bit words, little end first, zero-padded to the pool
    # size because a spawn key follows; then the key itself
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    entropy = [np.full(keys.shape, w, dtype=np.uint32) for w in words] + [keys]
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ value >> 16).astype(np.uint64))
    return [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]


def _const128(value: int) -> tuple:
    """A 128-bit constant as (hi, lo) one-element uint64 arrays."""
    return (
        np.array([value >> 64], dtype=np.uint64),
        np.array([value & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
    )


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products x * y of uint64 arrays."""
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    low_cross = x1 * y0
    mid = x0 * y1 + (x0 * y0 >> 32) + (low_cross & _MASK32)  # < 2**64
    return x1 * y1 + (low_cross >> 32) + (mid >> 32)


def _mul128(a: tuple, b: tuple) -> tuple:
    """a * b mod 2**128 of 128-bit values held as (hi, lo) uint64 arrays."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a: tuple, b: tuple) -> tuple:
    """a + b mod 2**128 of 128-bit values held as (hi, lo) uint64 arrays."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _raw_streams(seed: int, n_trials: int, horizon: int) -> np.ndarray:
    """Raw PCG64 outputs, shape (n_trials, horizon), of the trial streams.

    Row i equals ``np.random.PCG64(children[i + 1]).random_raw(horizon)``
    with ``children = np.random.SeedSequence(seed).spawn(n_trials + 1)``,
    for seeds >= 0 and ``n_trials < 2**32 - 1`` (larger spawn keys take two
    words; ``_SAMPLES_MAX`` keeps n_trials below that).  Every step is
    fixed-width integer arithmetic, vectorised over the trials:

    1. ``SeedSequence`` (numpy's hash of the entropy words plus the spawn
       key into a four-word pool, then ``generate_state(4, uint64)``) gives
       the 128-bit initial state s = w0:w1 and sequence q = w2:w3.
    2. PCG64 seeding (O'Neill 2014, *PCG: a family of simple fast
       space-efficient statistically good algorithms for random number
       generation*): increment c = 2q + 1 and state step(u), u = c + s,
       where step(x) = M x + c mod 2**128.
    3. Draw j (j = 1..horizon) is the XSL-RR output of step^(j+1)(u); XSL-RR
       rotates hi ^ lo right by the top six bits of the state.  L steps at
       once are step^L(x) = M**L x + (1 + M + ... + M**(L-1)) c, so states
       0..L-1 give states L..2L-1 in one pass, and log2(horizon) passes
       give them all.

    ``Generator.integers(0, 2**53)`` draws with Lemire's (2019, *Fast random
    integer generation in an interval*) method; for a range of 2**53 its
    rejection threshold 2**64 mod 2**53 is 0, so each draw is exactly
    ``raw >> 11``, one raw output per draw.
    """
    s_hi, s_lo, q_hi, q_lo = _child_seed_words(
        seed, np.arange(1, n_trials + 1, dtype=np.uint32)
    )
    c = (q_hi << 1 | q_lo >> 63, q_lo << 1 | 1)
    u = _add128(c, (s_hi, s_lo))

    raw = np.empty((n_trials, horizon), dtype=np.uint64)
    rows = max(1, _GRID_BLOCK // horizon)
    for first in range(0, n_trials, rows):
        block = slice(first, first + rows)
        # step^i(u) for i = 0..horizon+1, one row per i, so that each pass
        # reads and writes whole rows
        hi = np.empty((horizon + 2, u[0][block].size), dtype=np.uint64)
        lo = np.empty_like(hi)
        hi[0], lo[0] = u[0][block], u[1][block]
        done, power, total = 1, _PCG_MULT, 1  # M**done, 1 + ... + M**(done-1)
        while done < horizon + 2:
            k = min(done, horizon + 2 - done)
            hi[done : done + k], lo[done : done + k] = _add128(
                _mul128(_const128(power), (hi[:k], lo[:k])),
                _mul128(_const128(total), (c[0][block], c[1][block])),
            )
            total = total * (1 + power) & _MASK128
            power = power * power & _MASK128
            done *= 2
        hi, lo = hi[2:], lo[2:]
        value = hi ^ lo
        rot = hi >> 58
        raw[block] = (value >> rot | value << ((64 - rot) & 63)).T
    return raw


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
    _check_samples(horizon)
    _check_seed(rng_seed)
    bits = np.random.default_rng(rng_seed).integers(0, 2**53, size=horizon).astype(float)
    samples = _ar1_from_normals(stats.alpha, stats.rho, _standard_normals_from_bits(bits))
    return MeasurementSeries(samples=samples)


def simulate_batch(scenario: Scenario, n_trials: int, rng_seed: int) -> TrialBatch:
    """Generate labeled trials: class drawn Bernoulli(prior1), then a trajectory.

    Child stream 0 of the seed draws the labels; child i+1 drives trial i, so
    trial i's samples depend only on (seed, i, its label's statistics).
    """
    seed = operator.index(rng_seed)
    _check_seed(seed)
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    sampling = scenario.sampling
    _check_samples(n_trials * sampling.horizon)
    stats = {1: scenario.stats1(), 2: scenario.stats2()}
    label_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    labels = np.where(label_rng.random(n_trials) < sampling.prior1, 1, 2)

    bits = (_raw_streams(seed, n_trials, sampling.horizon) >> 11).astype(float)
    normals = _standard_normals_from_bits(bits)
    alpha = np.where(labels == 1, stats[1].alpha, stats[2].alpha)
    rho = np.where(labels == 1, stats[1].rho, stats[2].rho)
    samples = _ar1_from_normals(alpha, rho, normals)
    offsets = np.arange(0, samples.size + 1, samples.shape[1])
    return TrialBatch(labels, samples.ravel(), offsets)


# The trial CSV's y column is the repr of each sample: the shortest decimal
# that reads back to the same double, in Python's layout.  Its digits come
# from Schubfach (Giulietti 2020, *The Schubfach way to render doubles*; the
# family of Adams 2018, *Ryu: fast float-to-string conversion*), run in
# uint64 arithmetic over a block of samples at once.  Every operand of a
# uint64 array is a uint64 array or np.uint64: numpy 1.x makes a uint64
# array mixed with a Python int below 0 into float64.
_ONE, _TWO, _TEN = np.uint64(1), np.uint64(2), np.uint64(10)
_LOW63 = np.uint64((1 << 63) - 1)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the bits of 1.0
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_E16 = _POW10[16]
# the decimal scales 10**k that Schubfach multiplies by, k in [-324, 292]
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233 (an int or an int64 array)."""
    return e * 913_124_641_741 >> 38


def _pow10_table() -> tuple:
    """For each k in [_K_MIN, _K_MAX], g = floor(10**-k * 2**-r) + 1 with the
    r that puts g in [2**125, 2**126), as its high and low 63-bit halves."""
    halves = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        halves.append((g >> 63, g & (1 << 63) - 1))
    return tuple(np.array(halves, dtype=np.uint64).T.copy())


_G_HIGH, _G_LOW = _pow10_table()


def _round_to_odd(g_high, g_low, cp):
    """g * cp / 2**127 for g = g_high * 2**63 + g_low, rounded down, with the
    lowest bit set where the bits dropped are not all zero (Schubfach's rop)."""
    low = (g_high * cp >> _ONE) + _mulhi64(g_low, cp)
    high = _mulhi64(g_high, cp) + (low >> np.uint64(63))
    return high | ((low & _LOW63) + _LOW63) >> np.uint64(63)


def _shortest_decimal(bits: np.ndarray) -> tuple:
    """(f, e) such that f * 10**e is the shortest decimal that reads back to
    each positive finite double (given by its bits); among the shortest, the
    closest, and of two as close, the one with an even f.  These are the
    digits of ``repr``; f may end in zeros.

    Schubfach as in Giulietti's ``DoubleToDecimal.toDecimal``, with one
    change: the candidate one digit shorter is tried from s >= 10, where
    Java, which prints at least two digits, tries it from s >= 100.  So a
    subnormal needs no rescaling of its own.
    """
    biased = (bits >> np.uint64(52)).astype(np.int64)
    fraction = bits & np.uint64((1 << 52) - 1)
    c = np.where(biased > 0, fraction | np.uint64(1 << 52), fraction)
    q = np.maximum(biased, 1) - 1075  # |v| = c * 2**q
    # a power of two above the smallest normal has a closer neighbour below
    uneven = (fraction == 0) & (biased > 1)
    # k = floor(log10(2**q)), or of 3/4 of it where uneven
    k = (q * 661_971_961_083 - uneven * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g_high, g_low = _G_HIGH[k - _K_MIN], _G_LOW[k - _K_MIN]
    cb = c << _TWO
    # 4 * 10**-k times v and the two ends of its rounding interval, rounded to odd
    ends = np.stack([cb, cb - _ONE - (~uneven).astype(np.uint64), cb + _TWO]) << h
    vb, vbl, vbr = _round_to_odd(g_high, g_low, ends)
    odd = c & _ONE  # an odd c excludes the ends, an even one includes them
    vbl += odd
    vbr -= odd
    s = vb >> _TWO
    sp10 = s // _TEN * _TEN
    shorter_up = sp10 + _TEN << _TWO <= vbr
    shorter = (s >= _TEN) & ((vbl <= sp10 << _TWO) != shorter_up)
    lower_in, upper_in = vbl <= s << _TWO, s + _ONE << _TWO <= vbr
    middle = s + s + _ONE << _ONE
    lower_closer = (vb < middle) | (vb == middle) & (s & _ONE == 0)
    f = s + ~np.where(lower_in != upper_in, lower_in, lower_closer)
    return np.where(shorter, sp10 + _TEN * shorter_up, f), k


def _words(text: bytes) -> np.ndarray:
    """The text as uint32 words, each holding four of its bytes in memory
    order, whatever the machine's byte order."""
    return np.frombuffer(text, dtype=np.uint32)


def _chunk_tables() -> tuple:
    """Tables over the 4-digit chunks 0000 ... 9999: their text, then at
    10000 + d the digit d and three NULs; their text with the leading zeros
    NUL, but for the last digit; and at 10000 j + c where the last nonzero
    digit of c falls among a fraction's 17 digits when c is the (j + 1)-th
    chunk after the first digit, 0 if c is 0."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = digits != 0
    single = np.arange(48, 58)[:, None] * np.array([1, 0, 0, 0])
    leading = np.cumsum(nonzero, axis=1) + [0, 0, 0, 1] == 0
    last = (nonzero * np.arange(1, 5)).max(axis=1)
    ends = [np.where(last > 0, last + 4 * j + 1, 0) for j in range(4)]
    text = digits + 48
    digit_text = np.concatenate([text, single]).astype(np.uint8).tobytes()
    lead_text = (text * ~leading).astype(np.uint8).tobytes()
    return _words(digit_text), _words(lead_text), np.concatenate(ends)


_DIGITS4, _LEAD4, _FRACTION_END = _chunk_tables()
_CHUNK_ROWS = np.arange(0, 40000, 10000)[:, None]  # where each j starts in _FRACTION_END
_KEEP = _words(b"".join((b"\xff" * m).ljust(4, b"\0") for m in range(5)))  # the first m bytes
_POINT = _words(b"".join(b".000"[:m].ljust(4, b"\0") for m in range(5)))  # point, 0-3 zeros
_SIGN = _words(b",\0\0\0,-\0\0")
_LABEL = _words(b"\0\0\0\0,1,\0,2,\0")
# the exponents e-324 ... e+308 with the line end, as two rows of words;
# the line end alone at 633
_EXPONENT = _words(
    b"".join((b"e%+03d\r\n" % x).ljust(8, b"\0") for x in range(-324, 309))
    + b"\r\n".ljust(8, b"\0")
).reshape(634, 2).T.copy()
# the digits each word of the integer part and of the fraction follows
_INTEGER_STARTS = np.array([[0], [4], [8], [12]])
_FRACTION_STARTS = np.array([[0], [1], [5], [9], [13]])
_SAMPLE_WORDS = 13
# samples per block of rows.  Alternated writes of 20,000 samples take
# longest at 2**13 (malloc maps its larger work arrays afresh: about 2,500
# page faults a write) and least at 2**12; at 10**6 samples 2**14 is about
# 20% faster than 2**12
_CSV_BLOCK = 1 << 12


def _count_words(x: np.ndarray, width: int) -> np.ndarray:
    """Integers x >= 0 as ``width`` rows of words of four digits, leading
    zeros NUL."""
    words = np.empty((width,) + x.shape, dtype=np.uint32)
    for j in range(width - 1, -1, -1):
        high = x // 10000
        chunk = x - high * 10000
        lead = _LEAD4[chunk] if j == width - 1 else _LEAD4[chunk] * (x > 0)
        words[j] = np.where(high > 0, _DIGITS4[chunk], lead)
        x = high
    return words


def _chunks16(x: np.ndarray) -> np.ndarray:
    """uint64 x < 10**16 as its four 4-digit chunks, on a new axis before
    the last."""
    high = x // _POW10[8]
    halves = np.stack([high, x - high * _POW10[8]], axis=-2).astype(np.intp)
    top = halves // 10000
    return np.stack([top, halves - top * 10000], axis=-2).reshape(x.shape[:-1] + (4, -1))


def _sample_words(y: np.ndarray, out: np.ndarray) -> None:
    """Write ``,`` and the repr of each sample, then CRLF, into the columns
    of ``out`` (uint32, _SAMPLE_WORDS rows of words), NUL where the text of
    a sample is shorter.

    The rows: the comma and sign; the integer digits (up to 16); the point
    and up to three zeros after it; the fraction digits (up to 17, the first
    one alone in its word); the exponent and line end.
    """
    bits = y.view(np.uint64)
    out[0] = _SIGN[(bits >> np.uint64(63)).astype(np.intp)]
    magnitude = bits & _LOW63
    zero = magnitude == 0
    f, e = _shortest_decimal(np.where(zero, _ONE_BITS, magnitude))
    n = np.searchsorted(_POW10, f, side="right")  # digits of f
    digits = f * _POW10[17 - n] * ~zero  # left-aligned in 17 digits
    point = n + e  # |y| = 0.digits * 10**point
    sci = (point > 16) | (point < -3)  # where repr writes an exponent
    lead = np.where(sci, 1, np.clip(point, 0, 16))  # digits before the point
    fraction = digits % _POW10[17 - lead] * _POW10[lead]  # the rest, left-aligned
    first = fraction // _E16
    chunks = _chunks16(np.stack([digits // _TEN * (lead > 0), fraction - first * _E16]))
    # the fraction ends at its last nonzero digit, fixed notation after one
    end = np.maximum(_FRACTION_END[chunks[1] + _CHUNK_ROWS].max(axis=0), first > 0)
    end = np.where(sci, end, np.maximum(end, 1))
    out[1:5] = _DIGITS4[chunks[0]] & _KEEP[np.clip(np.maximum(lead, 1) - _INTEGER_STARTS, 0, 4)]
    out[5] = _POINT[np.where(sci, end > 0, 1 - np.minimum(point, 0))]
    out[6] = _DIGITS4[first.astype(np.intp) + 10000]
    out[7:11] = _DIGITS4[chunks[1]]
    out[6:11] &= _KEEP[np.clip(end - _FRACTION_STARTS, 0, 4)]
    out[11:13] = np.take(_EXPONENT, np.where(sci, point + 323, 633), axis=1)


def write_batch_csv(batch: TrialBatch, path) -> None:
    """Write trials as CSV with header ``trial,label,k,y``, one row per sample.

    Lines end in CRLF, and ``y`` is the ``repr`` of the sample, which
    round-trips exactly.  Rows are made ``_CSV_BLOCK`` samples at a time:
    each slot of a row (a word of four bytes, NUL where unused) for the
    whole block at once, the slots then turned into rows and the NULs
    dropped.
    """
    offsets, size = batch.offsets, batch.samples.size
    trial_width = (len(str(batch.label.size - 1)) + 3) // 4
    k_width = (len(str(int(np.diff(offsets).max()) - 1)) + 3) // 4
    head = trial_width + 1 + k_width
    with open(path, "wb") as fh:
        fh.write(",".join(CSV_HEADER).encode() + b"\r\n")
        for lo in range(0, size, _CSV_BLOCK):
            hi = min(lo + _CSV_BLOCK, size)
            # the trials first..last-1 have samples in the block
            first = int(np.searchsorted(offsets, lo, side="right")) - 1
            last = int(np.searchsorted(offsets, hi))
            counts = np.diff(np.clip(offsets[first : last + 1], lo, hi))
            trials = np.empty((trial_width + 1, last - first), dtype=np.uint32)
            trials[:-1] = _count_words(np.arange(first, last), trial_width)
            trials[-1] = _LABEL[batch.label[first:last]]
            slots = np.empty((head + _SAMPLE_WORDS, hi - lo), dtype=np.uint32)
            slots[: trial_width + 1] = np.repeat(trials, counts, axis=1)
            k = np.arange(lo, hi) - np.repeat(offsets[first:last], counts)
            slots[trial_width + 1 : head] = _count_words(k, k_width)
            _sample_words(batch.samples[lo:hi], slots[head:])
            fh.write(slots.T.tobytes().translate(None, b"\0"))


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


def read_batch_csv(path) -> TrialBatch:
    """Read trials written by :func:`write_batch_csv`.

    Rows may come in any order; trials are returned in ascending trial id,
    renumbered from 0, with samples in ``k`` order.  Blank lines are skipped
    and fields after ``y`` ignored.  Refused with ``ConfigError``: a wrong
    header, no data rows, a malformed or short row, a label other than 1 or
    2 or two labels in one trial, ``k`` not exactly 0..n-1 within a trial,
    and a non-finite ``y``; so are a file that cannot be opened and text
    that is not UTF-8.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            if tuple(header) != CSV_HEADER:
                raise ConfigError(f"{path}: expected header {','.join(CSV_HEADER)}")
            rows = _parse_rows(fh, path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trials {path}: {exc}") from exc
    if rows.size == 0:
        raise ConfigError(f"{path}: no data rows")
    t0, t1, k = rows["trial"][:-1], rows["trial"][1:], rows["k"]
    if not ((t0 < t1) | ((t0 == t1) & (k[:-1] <= k[1:]))).all():
        rows = rows[np.lexsort((k, rows["trial"]))]  # write_batch_csv's are in order
    trial, label, k, y = rows["trial"], rows["label"], rows["k"], rows["y"]
    starts = np.flatnonzero(np.r_[True, trial[1:] != trial[:-1]])
    first = np.repeat(starts, np.diff(starts, append=trial.size))

    def refuse(bad: np.ndarray, problem: str) -> None:
        if bad.any():
            raise ConfigError(f"{path}: trial {trial[np.argmax(bad)]} {problem}")

    refuse(label != label[first], "has inconsistent labels")
    refuse(k != np.arange(trial.size) - first, "has non-contiguous sample indices")
    refuse(~np.isfinite(y), "has a non-finite sample")
    return TrialBatch(label[starts], y, np.append(starts, trial.size))
