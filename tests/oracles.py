"""Dense and single-stream oracles that only the tests use.

The package never builds an n x n covariance or draws a batch from one
stream; these reference routines check the O(n) closed forms and the
per-trial streams against the textbook constructions, the columnar
mc-vs-exact table against its row-by-row construction, and the trial CSV
writer's digit kernel against ``repr`` row by row.
"""

import math

import mpmath
import numpy as np

from skysift.error_analysis import QuadFormSpectrum
from skysift.errors import ConfigError
from skysift.model import ClassStatistics
from skysift.simulator import CSV_HEADER, _ar1_from_normals, _standard_normals_from_bits


def covariance_matrix(stats: ClassStatistics, horizon: int) -> np.ndarray:
    """Dense covariance of the sampled series: entry (i, j) = alpha * rho**|i-j|.

    Symmetric Toeplitz with exponentially decaying bands; positive definite
    for 0 < rho < 1.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    idx = np.arange(horizon)
    return stats.alpha * stats.rho ** np.abs(idx[:, None] - idx[None, :])


def kms_logdet(stats: ClassStatistics, n: int) -> float:
    """log-determinant of the n x n covariance: n * ln(alpha) + (n - 1) * ln(1 - rho**2).

    Works directly in log space; the determinant itself underflows for large
    dimensions, so it is never formed.  n < 1 is refused: the formula's
    (n - 1) term would not vanish.  ``detector.threshold`` is the difference
    of two of these plus the prior term.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    # log1p keeps precision when rho is close to 1 and 1 - rho**2 is tiny.
    return n * math.log(stats.alpha) + (n - 1) * math.log1p(-stats.rho * stats.rho)


def sample_matrix(
    stats: ClassStatistics, horizon: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Bulk sampler from a single stream: (n, horizon) matrix of trajectories.

    Law tests use this for very large n; it trades the per-trial stream
    contract for speed.
    """
    bits = rng.integers(0, 2**53, size=(n, horizon)).astype(float)
    return _ar1_from_normals(stats.alpha, stats.rho, _standard_normals_from_bits(bits))


def characteristic_function(spectrum: QuadFormSpectrum, omega: float) -> complex:
    """E[exp(1j*omega*Z)] for the weighted chi-squared statistic Z."""
    logmag, phase = spectrum._log_phi(np.atleast_1d(np.asarray(omega, dtype=float)))
    value = np.exp(logmag) * (np.cos(phase) + 1j * np.sin(phase))
    return complex(value[0])


def cut_integrals_mp(eigenvalues, z, tol, max_dps=90):
    """P(Z <= z) from the branch-cut integrals of _cut_cdf by mpmath.quad,
    to within ``tol`` by the precision rule of :func:`quad_form_cdf_mp`."""
    return _agreed(lambda dps: _cut_integrals_at(eigenvalues, z, dps), tol, max_dps)


def _cut_integrals_at(eigenvalues, z, dps):
    """The branch-cut integrals of _cut_cdf by mpmath.quad at dps digits.

    Each cut is integrated without its end singularities, as _cut_cdf does:
    x = c + h cos(t) on a finite cut [c - h, c + h], x = b + s**2 on the
    last [b, inf).  Left in x, the 1/sqrt ends of close branch points cost
    tanh-sinh 1.5e-8 on hypothesis 2 of the cell (mass 0.25, gain 0.5) at
    kf 20."""
    with mpmath.workdps(dps):
        sign = 1 if z >= 0 else -1
        lam = sorted((mpmath.mpf(sign * float(e)) for e in eigenvalues), reverse=True)
        p = sum(1 for l in lam if l > 0)  # positive lam first: cuts ascending
        y = mpmath.mpf(sign * z)

        def f(x, ends):  # the integrand less the factors of the cut's own ends
            rest = mpmath.fprod(1 - 2 * l * x for l in lam[:ends.start] + lam[ends.stop :])
            return mpmath.exp(-x * y) / (x * mpmath.sqrt(abs(rest)))

        upper = 0
        for i in range(0, p, 2):
            ends = slice(i, min(i + 2, p))
            b = [1 / (2 * l) for l in lam[ends]]
            scale = 1 / mpmath.sqrt(mpmath.fprod(2 * l for l in lam[ends]))
            if len(b) == 2:
                c, h = (b[0] + b[1]) / 2, (b[1] - b[0]) / 2
                part = mpmath.quad(lambda t: f(c + h * mpmath.cos(t), ends), [0, mpmath.pi])
            else:
                part = 2 * mpmath.quad(lambda s: f(b[0] + s * s, ends), [0, mpmath.inf])
            upper += (-1) ** (i // 2) * scale * part
        upper /= mpmath.pi
        return float(1 - upper if z >= 0 else upper)


def gil_pelaez_mp(eigenvalues, z, tol, max_dps=90):
    """P(Z <= z) by Gil-Pelaez's inversion, to within ``tol`` by the
    precision rule of :func:`quad_form_cdf_mp`."""
    return _agreed(lambda dps: _gil_pelaez_at(eigenvalues, z, dps), tol, max_dps)


def _gil_pelaez_at(eigenvalues, z, dps):
    """P(Z <= z) = 1/2 - (1/pi) int_0^inf Im[phi(u) e^(-iuz)] du/u (Gil-Pelaez
    1951) by mpmath.quad at dps digits.  The integral stops at the U where
    the remainder bound (2/(pi k)) prod_j (2U|lam_j|)^(-1/2) is 1e-20, and is
    split at u = 2^i / (64 max|lam|) and every four periods of e^(-iuz).
    Slow for small k, whose U is far out; it serves kept orders from 20 on."""
    with mpmath.workdps(dps):
        lam = [mpmath.mpf(float(e)) for e in eigenvalues if e != 0.0]
        y, k = mpmath.mpf(z), len(lam)

        def f(u):
            log_phi = -mpmath.fsum(mpmath.log(1 - 2j * u * l) for l in lam) / 2
            return mpmath.im(mpmath.exp(log_phi - 1j * u * y)) / u

        log_u = (-2 * mpmath.log(mpmath.mpf("1e-20") * mpmath.pi * k / 2)
                 - mpmath.fsum(mpmath.log(2 * abs(l)) for l in lam)) / k
        top, u = mpmath.exp(log_u), 1 / (64 * max(abs(l) for l in lam))
        ends = [mpmath.mpf(0)]
        while u < top:
            ends.append(u)
            u *= 2
        ends.append(top)
        points = [ends[0]]
        for a, b in zip(ends, ends[1:]):
            pieces = int(mpmath.ceil(abs(y) * (b - a) / (8 * mpmath.pi))) or 1
            points += [a + (b - a) * i / pieces for i in range(1, pieces + 1)]
        return float(mpmath.mpf(1) / 2 - mpmath.quad(f, points) / mpmath.pi)


class OracleError(ArithmeticError):
    """Two working precisions of an mpmath oracle never agreed."""


def quad_form_cdf_mp(eigenvalues, z, tol, max_dps=90):
    """P(Z <= z) for Z = sum_j lam_j chi2_1, to within ``tol``: evaluated at
    30 and 50 digits, then 20 more at a time up to ``max_dps`` while the
    last two disagree by more than ``tol``; the higher one is returned, and
    OracleError raised if no two agree.  Tanh-sinh across close branch
    points carries no error estimate: on the 19 eigenvalues within 0.5% of
    each other of kf 19 (mass 5.77, gain 5.36), hypothesis 2, 30 digits err
    by 1.8e-12 where 50 and 70 agree."""
    eigs = [float(e) for e in eigenvalues if e != 0.0]
    return _agreed(lambda dps: _quad_form_cdf_at(eigs, z, dps), tol, max_dps)


def _agreed(evaluate, tol, max_dps):
    """evaluate(dps) at 30 and 50 digits, then 20 more at a time up to
    ``max_dps`` while the last two disagree by more than ``tol``: the
    higher one, or OracleError if no two agree."""
    low = evaluate(30)
    for dps in range(50, max_dps + 1, 20):
        high = evaluate(dps)
        if abs(high - low) <= tol:
            return high
        low = high
    raise OracleError(f"no two precisions up to {max_dps} digits agree within {tol:g}")


def _quad_form_cdf_at(eigs, z, dps):
    """P(Z <= z) at dps digits: a scaled chi2_k for k equal lam, the
    branch-cut integrals below 20 kept eigenvalues, Gil-Pelaez from 20 on."""
    k = len(eigs)
    if all(e == eigs[0] for e in eigs):
        with mpmath.workdps(dps):
            x = mpmath.mpf(z) / (2 * mpmath.mpf(eigs[0]))
            if x <= 0:
                return 0.0 if eigs[0] > 0 else 1.0
            below = mpmath.gammainc(mpmath.mpf(k) / 2, 0, x, regularized=True)
            return float(below if eigs[0] > 0 else 1 - below)
    if k < 20:
        return _cut_integrals_at(eigs, z, dps)
    return _gil_pelaez_at(eigs, z, dps)


def mc_vs_exact_rows(labels, decisions, report) -> list:
    """The mc-vs-exact table one row at a time: at every ``n // 400``-th
    trial (and the last), the trial count, the running error, the exact
    total error, and per class the running miss rate (None until the class
    has appeared) beside its exact miss."""
    wrong = (np.array(decisions) != labels).astype(float)

    n = labels.size
    cum_wrong = np.cumsum(wrong)
    cum_n1 = np.cumsum(labels == 1)
    cum_n2 = np.cumsum(labels == 2)
    cum_wrong1 = np.cumsum(wrong * (labels == 1))
    cum_wrong2 = np.cumsum(wrong * (labels == 2))

    block = max(1, n // 400)
    points = list(range(block - 1, n, block))
    if points[-1] != n - 1:
        points.append(n - 1)

    def _rate(num, den):
        return float(num / den) if den > 0 else None

    rows = []
    for i in points:
        rows.append(
            (
                i + 1,
                float(cum_wrong[i] / (i + 1)),
                report.total_error,
                _rate(cum_wrong1[i], cum_n1[i]),
                report.miss_given_1,
                _rate(cum_wrong2[i], cum_n2[i]),
                report.miss_given_2,
            )
        )
    return rows


def write_batch_csv_by_rows(batch, path) -> None:
    """The trial CSV one row at a time, ``y`` as ``repr`` of the sample: the
    bytes ``skysift.simulator.write_batch_csv`` must write."""
    lengths = np.diff(batch.offsets).tolist()
    ks = [f"{k}," for k in range(max(lengths))]
    heads = [f"{t},{lab}," for t, lab in enumerate(batch.label.tolist())]
    keys = [head + k for head, n in zip(heads, lengths) for k in ks[:n]]
    rows = map(str.__add__, keys, map(repr, batch.samples.tolist()))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n" + "\r\n".join(rows) + "\r\n")
