"""Accurate partial sums of (i + 1/2)**(-s) * exp(-1j*w*(i + 1/2)).

The error-probability inversion series truncates at an index that can reach
1e13 when the quadratic form has only one or two eigenvalues, far beyond
direct summation.  Its tail reduces (after an asymptotic expansion of the
characteristic function) to sums of the form

    P(s, a, b, w) = sum_{i=a}^{b} (i + 1/2)**(-s) * exp(-1j * w * (i + 1/2))

with s > 1.  This module evaluates P to a requested absolute tolerance for
any 0 <= a <= b, using whichever of four methods fits the regime:

- direct summation for short ranges (vectorized, float64);
- Hurwitz zeta differences when the frequency reduces to exactly zero;
- Euler-Maclaurin with an incomplete-gamma integral when the reduced
  frequency is tiny (the summand barely oscillates, so smoothness methods
  apply but the geometric-decay method below would lose its footing);
- summation by parts otherwise: Abel summation unrolled ``depth`` times with
  forward differences at both boundaries, whose residual shrinks like
  (s)_d * (a+1/2)**-(s+d-1) / |q-1|**d, q = exp(-1j*w).

The two series methods do work in proportion to the depth or order at
which they stop, not to their caps: summation by parts finds its stop depth
from the residual bound before it evaluates anything, and Euler-Maclaurin
builds its derivative polynomials one correction at a time.

Every tail order of an inversion series asks for the same (a, b, f) with a
new exponent, so the per-range work is memoised: summation by parts'
boundary phases, the bridge's indices and phases (read-only), and the last
small-argument incomplete gamma value, from which Euler-Maclaurin's next
order steps down by recurrence.  One entry each suffices, as a report's two
hypotheses run one after the other; the bridge's holds under 50/|q-1| < 5e5
points (12 MB).  With it the inversion series sums directly only up to
2**15 terms, the crossover measured there.

The half-offset indices make frequency reduction clean: adding 2*pi to w
multiplies every term by exp(-1j*pi*(2i+1)) = -1, so w is first folded into
(-pi, pi] with a sign flip per wrap.  Indices reach ~8e12, so the boundary
phases w*a and w*(b+1) need ~13 integer digits cancelled before any
fractional precision remains: they are reduced mod 2*pi at 60 digits.  The
rest of summation by parts is float64, its difference tables taken from
Taylor series rather than by subtracting neighbours (see ``_sbp_sum``);
Euler-Maclaurin and the short direct sum at huge indices stay at 60 digits.
"""

import cmath
import functools
import logging
import math

import mpmath as mp
import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .errors import NumericalError

__all__ = ["pinned_power_sum"]

logger = logging.getLogger(__name__)

_MP_DPS = 60
_SBP_MAX_DEPTH = 26
_SBP_SERIES_TERMS = 64  # Taylor terms per difference level
_SBP_MIN_START = 4 * _SBP_MAX_DEPTH  # the difference series need x well above the depth
# rounding bound of the float64 SBP kernel relative to its largest terms
# (the test grid against a 60-digit oracle peaks at 5.4 units)
_F64_ROUNDING = 256 * 2.0**-53
_EM_MAX_FREQ = 1e-4
_EM_MAX_ORDER = 8
_SBP_MIN_PHASE = 50.0  # require (a+1/2)*|q-1| above this before using SBP
_DIRECT_MAX = 90


def pinned_power_sum(
    exponent: float, start: int, stop: int, freq: float, tol: float
) -> complex:
    """P(exponent, start, stop, freq) with absolute error at most ``tol``.

    Raises NumericalError if no method can certify the tolerance (which only
    happens for tolerances near or below machine precision of the result).
    At DEBUG level it logs the branch that ran (zeta, direct-mp, SBP, EM or
    a bridge into SBP or direct-mp) and, for SBP and EM, the depth or order
    at which it stopped with the residual there: SBP's residual bound, or
    the last Euler-Maclaurin correction.
    """
    if not exponent > 1.0:
        raise NumericalError(f"power-sum exponent must exceed 1, got {exponent}")
    if not (0 <= start <= stop):
        raise NumericalError(f"bad summation range [{start}, {stop}]")
    if not tol > 0.0:
        raise NumericalError(f"tolerance must be positive, got {tol}")

    wraps = round(freq / (2.0 * math.pi))
    f = freq - 2.0 * math.pi * wraps
    sign = -1.0 if wraps % 2 else 1.0

    if f == 0.0:
        branch, halt = "zeta", None
        value = complex(
            hurwitz_zeta(exponent, start + 0.5) - hurwitz_zeta(exponent, stop + 1.5)
        )
    else:
        branch, value, halt = _dispatch(exponent, start, stop, abs(f), tol)
        if f < 0.0:
            value = value.conjugate()
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "pinned_power_sum(s=%r, [%d, %d], freq=%r, tol=%.3g): %s%s",
            exponent, start, stop, freq, tol, branch,
            "" if halt is None else ", stopped at %d, residual %.3g" % halt,
        )
    return sign * value


def _dispatch(s: float, a: int, b: int, f: float, tol: float):
    """(branch name, P, (stop depth or order, residual) or None)."""
    gap = 2.0 * math.sin(0.5 * f)  # |q - 1|
    if b - a <= _DIRECT_MAX:
        return "direct-mp", _direct_sum_mp(s, a, b, f), None
    if (a + 0.5) * gap >= _SBP_MIN_PHASE and a >= _SBP_MIN_START:
        return "SBP", *_sbp_sum(s, a, b, f, tol)
    if f < _EM_MAX_FREQ:
        return "EM", *_euler_maclaurin_sum(s, a, b, f, tol)
    # slow phase or small index at the low end only: push the start index up
    # to where summation by parts converges, summing the short gap directly.
    # Every phase f*x in the gap stays below max(50*f/|q-1|, f*_SBP_MIN_START)
    # <= 104*pi, so float64 is exact enough.
    a2 = min(max(int(math.ceil(_SBP_MIN_PHASE / gap)), _SBP_MIN_START), b)
    head = _direct_sum_np(s, a, a2 - 1, f) if a2 > a else 0.0
    if b - a2 <= _DIRECT_MAX:
        return "bridge+direct-mp", head + _direct_sum_mp(s, a2, b, f), None
    value, halt = _sbp_sum(s, a2, b, f, tol)
    return "bridge+SBP", head + value, halt


def _direct_sum_np(s: float, a: int, b: int, f: float) -> complex:
    x, phase = _bridge_frame(a, b, f)
    return complex(np.sum(x ** (-s) * phase))


@functools.lru_cache(maxsize=1)
def _bridge_frame(a: int, b: int, f: float):
    """x = i + 1/2 over [a, b] and exp(-1j*f*x), shared by the tail orders."""
    x = np.arange(a, b + 1, dtype=float) + 0.5
    phase = np.exp(-1j * f * x)
    x.flags.writeable = phase.flags.writeable = False
    return x, phase


def _direct_sum_mp(s: float, a: int, b: int, f: float) -> complex:
    # safe at arbitrarily large indices, where f*x overwhelms float64 phases
    if b < a:
        return 0.0 + 0.0j
    with mp.workdps(_MP_DPS):
        sig = mp.mpf(s)
        bet = mp.mpf(f)
        total = mp.mpc(0)
        for i in range(a, b + 1):
            x = mp.mpf(2 * i + 1) / 2
            total += x ** (-sig) * mp.exp(-1j * bet * x)
        return complex(total)


def _sbp_sum(s: float, a: int, b: int, f: float, tol: float):
    """Summation by parts, unrolled with forward differences at both boundaries.

    Writing G(h, a, b) = sum h(i) q**i, Abel summation gives
    G(h, a, b) = [h(b) q**(b+1) - h(a) q**a - q G(dh, a, b-1)] / (q - 1)
    where dh is the forward difference.  Each unroll multiplies the remainder
    by -q/(q-1) and replaces h by dh; the differences of (i+1/2)**(-s) decay
    factorially, so a couple dozen levels suffice whenever (a+1/2)|q-1| is
    comfortably larger than the depth.  The residual bound depends on s, a
    and |q-1| alone, so the stop depth D comes first, from running logs
    (a**-(s+D) underflows float64 at the far ends this module serves).

    Everything else is float64.  Differences of neighbouring float64 values
    would lose about (2/|q-1|)**d of accuracy at level d, so the differences
    at x = a+1/2 and x = b+1/2 come from their Taylor series instead:
    Delta**d x**-s = x**-s sum_{n>=d} C(-s, n) d! S(n, d) x**-n, where
    d! S(n, d) <= d**n counts surjections (``_SURJ``).  Backward differences
    at b give Delta**d h(b-d).  With |C(-s, n)| = (s)_n/n! and the level
    weights folded in, the end at x contributes x**-s sum_d z**d e_d(t),
    e_d(t) = sum_j d! S(d+j, d) |C(-s, d+j)| t**j, where z = q/((q-1) x),
    t = -1/x at a and z = 1/((q-1) x), t = 1/x at b: |z| <= 1/50, so no
    level's weight overflows, and the series at b has no cancellation.
    The series converges for x > d.  From x >= _SBP_MIN_START = 4 * the
    maximum depth, _SBP_SERIES_TERMS terms leave a truncation error that
    ``_sbp_truncation`` bounds; that bound and a float64 rounding bound are
    added to the residual before the tolerance is certified.  Returns P and
    (D, residual bound).
    """
    q, inv_qm1, abs_qm1, qa, qb, half = _sbp_frame(a, b, f)
    # remainder after unrolling depth+1 levels, in logs:
    # (s)_{depth+1} (a+1/2)**-(s+depth) / ((s+depth) |q-1|**(depth+1))
    log_x, log_gap, log_tol = math.log(a + 0.5), math.log(abs_qm1), math.log(tol)
    log_poch = math.log(s)
    for depth in range(min(_SBP_MAX_DEPTH, b - a - 2) + 1):
        log_resid = (
            log_poch - (s + depth) * log_x - math.log(s + depth) - (depth + 1) * log_gap
        )
        if log_resid <= log_tol:
            break
        log_poch += math.log(s + depth + 1)
    else:
        raise NumericalError(
            f"summation by parts cannot reach tolerance {tol:g} "
            f"(s={s}, a={a}, freq={f:g}); residual bound {math.exp(log_resid):g}"
        )
    resid = math.exp(log_resid)

    xa, xb = a + 0.5, b + 0.5
    terms = depth + _SBP_SERIES_TERMS
    try:
        with np.errstate(over="raise", invalid="raise"):
            binom = np.ones(terms)  # |C(-s, n)|
            steps = _STEPS[: terms - 1]
            np.cumprod((s - 1.0 + steps) / steps, out=binom[1:])
            coef = _SURJ[: depth + 1] * binom[_HANKEL[: depth + 1]]
            t = [-1.0 / xa, 1.0 / xa, 1.0 / xb]  # the middle one bounds |terms| at a
            e = coef @ np.vander(t, _SBP_SERIES_TERMS, increasing=True).T
            z = np.vander([q * inv_qm1 / xa, inv_qm1 / xb], depth + 1, increasing=True)
            lo, hi = z[0] @ e[:, 0], z[1] @ e[:, 2]
            pa, pb = xa ** -s, xb ** -s
            scale = abs(inv_qm1) * (pa * abs(z[0]) @ e[:, 1] + pb * abs(z[1]) @ e[:, 2])
            value = complex(half * inv_qm1 * (qb * pb * hi - qa * pa * lo))
    except FloatingPointError as exc:
        raise NumericalError(
            f"summation by parts overflows float64 (s={s}, a={a}, freq={f:g})"
        ) from exc
    slack = scale * (_F64_ROUNDING + _sbp_truncation(s, xa, abs_qm1, depth))
    if not resid + slack <= tol:  # also refuses a NaN slack
        raise NumericalError(
            f"summation by parts cannot reach tolerance {tol:g} in float64 "
            f"(s={s}, a={a}, freq={f:g}); residual bound {resid + slack:g}"
        )
    return value, (depth, resid)


def _sbp_truncation(s: float, x: float, abs_qm1: float, depth: int) -> float:
    """Bound on the dropped Taylor terms of every level, relative to the
    leading term x**-s / |q-1|, summed over both ends.

    Row d drops n >= d + K (K = _SBP_SERIES_TERMS), each at most
    |C(-s, n)| (D/x)**n; consecutive terms shrink by at most
    rho = r D/x, r = (s+K)/(K+1), and |C(-s, d+K)| <= |C(-s, K)| r**d, so
    level d weighted by |q-1|**-d contributes at most
    |C(-s, K)| (D/x)**K / (1 - rho) * (r D / (x |q-1|))**d; the far end,
    at a larger x, at most as much again.
    """
    if depth == 0:
        return 0.0  # level 0 is the single term n = 0
    k = _SBP_SERIES_TERMS
    r = (s + k) / (k + 1)
    rho = r * depth / x
    if rho >= 1.0:
        return math.inf
    growth = max(0.0, depth * math.log(r * depth / (x * abs_qm1)))
    log_bound = (
        math.lgamma(s + k) - math.lgamma(s) - math.lgamma(k + 1)
        + k * math.log(depth / x) - math.log1p(-rho) + growth
    )
    return 2.0 * (depth + 1) * math.exp(min(log_bound, 700.0))


def _surjection_table() -> np.ndarray:
    """d! S(d+j, d), the surjections of d+j items onto d, as float64 rows
    d <= _SBP_MAX_DEPTH by columns j < _SBP_SERIES_TERMS (exact integers
    first: T(n, d) = d (T(n-1, d) + T(n-1, d-1)), T(n, 0) = [n == 0])."""
    width = _SBP_MAX_DEPTH + _SBP_SERIES_TERMS
    prev = [1] + [0] * (width - 1)
    rows = [prev[:_SBP_SERIES_TERMS]]
    for d in range(1, _SBP_MAX_DEPTH + 1):
        cur = [0] * width
        for n in range(1, width):
            cur[n] = d * (cur[n - 1] + prev[n - 1])
        rows.append(cur[d : d + _SBP_SERIES_TERMS])
        prev = cur
    return np.array(rows, dtype=float)


_SURJ = _surjection_table()
_STEPS = np.arange(1.0, _SBP_MAX_DEPTH + _SBP_SERIES_TERMS)
# binomial index d + j of each (d, j) entry of _SURJ
_HANKEL = np.add.outer(np.arange(_SBP_MAX_DEPTH + 1), np.arange(_SBP_SERIES_TERMS))


@functools.lru_cache(maxsize=1)
def _sbp_frame(a: int, b: int, f: float):
    """q, 1/(q-1), |q-1|, q**a, q**(b+1) and exp(-1j*f/2) as complex128
    (q = exp(-1j*f)): the part of _sbp_sum that depends on the range alone.

    Only the boundary phases f*a and f*(b+1) need more than float64: they
    are reduced mod 2*pi at 60 digits, where ~13 integer digits cancel.
    q - 1 is taken as -2j sin(f/2) exp(-1j*f/2), free of cancellation."""
    with mp.workdps(_MP_DPS):
        bet, two_pi = mp.mpf(f), 2 * mp.pi
        phase_a = float(mp.fmod(bet * a, two_pi))
        phase_b = float(mp.fmod(bet * (b + 1), two_pi))
    half = cmath.exp(-0.5j * f)
    gap = 2.0 * math.sin(0.5 * f)
    inv_qm1 = 1.0 / (-1j * gap * half)
    q = cmath.exp(-1j * f)
    return q, inv_qm1, gap, cmath.exp(-1j * phase_a), cmath.exp(-1j * phase_b), half


def _euler_maclaurin_sum(s: float, a: int, b: int, f: float, tol: float):
    """Euler-Maclaurin for the barely-oscillating regime f << 1.

    The integral of y**(-s) exp(-1j f y) is expressed through the upper
    incomplete gamma function on the imaginary axis.  The p-th derivative
    of the summand g(y) is g(y) * Q_p(1/y), where Q_0 = 1 and, by the
    product and chain rules with v = 1/y,
    Q_{p+1}(v) = -v**2 dQ_p/dv - (sig*v + 1j*bet) Q_p(v).
    Q_p does not depend on y, so it is built once, two orders per
    correction r (which needs Q_{2r-1}), evaluated at both ends by Horner,
    and only until the corrections converge.  Returns P and (the stop
    order, the last correction's magnitude).
    """
    with mp.workdps(_MP_DPS):
        sig = mp.mpf(s)
        bet = mp.mpf(f)
        ya = mp.mpf(2 * a + 1) / 2
        yb = mp.mpf(2 * b + 1) / 2
        ga = ya ** (-sig) * mp.exp(-1j * bet * ya)
        gb = yb ** (-sig) * mp.exp(-1j * bet * yb)
        total = _oscillatory_integral(sig, bet, ya, yb) + (ga + gb) / 2

        coeffs = [mp.mpc(1)]  # Q_p in ascending powers of v, degree p
        for r in range(1, _EM_MAX_ORDER + 1):
            while len(coeffs) < 2 * r:  # up to Q_{2r-1}
                coeffs = [
                    -1j * bet * c - (sig + t - 1) * lower
                    for t, (lower, c) in enumerate(zip([0] + coeffs, coeffs + [0]))
                ]
            desc = coeffs[::-1]
            term = (
                mp.bernoulli(2 * r)
                / mp.factorial(2 * r)
                * (gb * mp.polyval(desc, 1 / yb) - ga * mp.polyval(desc, 1 / ya))
            )
            total += term
            if abs(term) <= tol / 4:
                return complex(total), (r, float(abs(term)))
        raise NumericalError(
            f"Euler-Maclaurin corrections not converged at order "
            f"{_EM_MAX_ORDER} (s={s}, a={a}, freq={f:g})"
        )


def _oscillatory_integral(sig, bet, ya, yb):
    """integral over [ya, yb] of y**(-sig) * exp(-1j*bet*y), bet > 0.

    Substituting x = 1j*bet*y gives (1j*bet)**(sig-1) * [Gamma(1-sig, 1j*bet*ya)
    - Gamma(1-sig, 1j*bet*yb)].
    """
    s1 = 1 - sig
    return (1j * bet) ** (sig - 1) * (
        _upper_gamma(s1, 1j * bet * ya) - _upper_gamma(s1, 1j * bet * yb)
    )


def _upper_gamma(s1, x):
    """Gamma(s1, x) at working precision.

    For |x| >= 50 the large-argument asymptotic series is used when its
    terms fall below 1e-45 within 39 terms.  Otherwise (small |x|, or a
    series that has not converged, as for large -s1 near |x| = 50) the value
    comes one step down from the last one, when that was Gamma(s1 + 1, x):
    Gamma(s1, x) = (Gamma(s1 + 1, x) - x**s1 exp(-x)) / s1, which loses no
    digits here, as each tail order asks for s1 one lower at the same x.
    Failing that, from mpmath's gammainc.
    """
    global _last_gamma
    if abs(x) >= 50:
        acc = term = mp.mpc(1)
        for t in range(1, 40):
            term *= (s1 - t) / x
            acc += term
            if abs(term) < mp.mpf("1e-45"):
                return x ** (s1 - 1) * mp.exp(-x) * acc
    last = _last_gamma
    if last is not None and last[0] == x and last[1] - s1 == 1:
        value = (last[2] - x**s1 * mp.exp(-x)) / s1
    else:
        value = mp.gammainc(s1, x, mp.inf)
    _last_gamma = (x, s1, value)
    return value


_last_gamma = None  # (x, s1, Gamma(s1, x)) from the last call that needed it
