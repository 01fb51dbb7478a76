"""Accurate partial sums of (i + 1/2)**(-s) * exp(-1j*w*(i + 1/2)).

The error-probability inversion series truncates at an index that can reach
1e13 when the quadratic form has only one or two eigenvalues, far beyond
direct summation.  Its tail reduces (after an asymptotic expansion of the
characteristic function) to sums of the form

    P(s, a, b, w) = sum_{i=a}^{b} (i + 1/2)**(-s) * exp(-1j * w * (i + 1/2))

with s > 1.  This module evaluates P to a requested absolute tolerance for
any 0 <= a <= b, using whichever of four methods fits the regime:

- direct summation at 60 digits for ranges of at most 91 terms;
- Hurwitz zeta differences when the frequency reduces to exactly zero;
- Euler-Maclaurin with an incomplete-gamma integral when the reduced
  frequency is tiny (the summand barely oscillates, so smoothness methods
  apply but the geometric-decay method below would lose its footing);
- summation by parts otherwise: Abel summation unrolled ``depth`` times with
  forward differences at both boundaries, whose residual shrinks like
  (s)_d * (a+1/2)**-(s+d-1) / |q-1|**d, q = exp(-1j*w).  A start index
  too low for it to converge is pushed up, and the gap summed directly.

The two series methods do work in proportion to the depth or order at
which they stop, not to their caps: summation by parts finds its stop depth
from the residual bound before it evaluates anything, and Euler-Maclaurin
builds its derivative polynomials one correction at a time.

The half-offset indices make frequency reduction clean: adding 2*pi to w
multiplies every term by exp(-1j*pi*(2i+1)) = -1, so w is first folded into
(-pi, pi] with a sign flip per wrap.  Every method then works in mpmath,
at 60 digits or more, except the zeta difference and the bridge's float64
gap, whose phases stay below 25*pi: indices reach ~8e12, so the phases
w*(i+1/2) need ~13 integer digits cancelled before any fractional precision
remains, and summation by parts' difference tables lose digits at small
|q-1| (see ``_sbp_sum``).  Nothing is memoised; a call depends on its
arguments alone.
"""

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
_EM_MAX_FREQ = 1e-4
_EM_MAX_ORDER = 8
_SBP_MIN_PHASE = 50.0  # require (a+1/2)*|q-1| above this before using SBP
_DIRECT_MAX = 90


def pinned_power_sum(
    exponent: float, start: int, stop: int, freq: float, tol: float
) -> complex:
    """P(exponent, start, stop, freq) with absolute error at most ``tol``
    before the final rounding to complex128.

    Raises NumericalError if no method can certify the tolerance: summation
    by parts within _SBP_MAX_DEPTH levels or Euler-Maclaurin within
    _EM_MAX_ORDER corrections.  At DEBUG level it logs the branch that ran
    (zeta, direct-mp, SBP, EM or a bridge into SBP or direct-mp) and, for
    SBP and EM, the depth or order at which it stopped with the residual
    there: SBP's residual bound, or Euler-Maclaurin's remainder bound.
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
    if (a + 0.5) * gap >= _SBP_MIN_PHASE:
        return "SBP", *_sbp_sum(s, a, b, f, tol)
    if f < _EM_MAX_FREQ:
        return "EM", *_euler_maclaurin_sum(s, a, b, f, tol)
    # slow phase at the low end only: push the start index up to where
    # summation by parts converges, summing the short gap directly.  Every
    # phase f*x in the gap stays below 50*f/|q-1| <= 25*pi, so float64 is
    # exact enough.
    a2 = min(int(math.ceil(_SBP_MIN_PHASE / gap)), b)
    x = np.arange(a, a2, dtype=float) + 0.5
    head = complex(np.sum(x ** (-s) * np.exp(-1j * f * x)))
    if b - a2 <= _DIRECT_MAX:
        return "bridge+direct-mp", head + _direct_sum_mp(s, a2, b, f), None
    value, halt = _sbp_sum(s, a2, b, f, tol)
    return "bridge+SBP", head + value, halt


def _direct_sum_mp(s: float, a: int, b: int, f: float) -> complex:
    # safe at arbitrarily large indices, where f*x overwhelms float64 phases
    with mp.workdps(_MP_DPS):
        sig, bet = mp.mpf(s), mp.mpf(f)
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

    The difference tables are taken by repeated subtraction in mpmath, at
    _MP_DPS digits plus D*log10(2/|q-1|): with u = mp.eps (twice the unit
    roundoff) and H = (a+1/2)**-s, the largest entry, each x**-s errs by at
    most u H and level d's entries by (d+1) 2**d u H, as each subtraction
    doubles the inherited error and rounds a result under 2**d H.  The
    weights 1/(q-1) (-q/(q-1))**d, q - 1 taken as -2i sin(f/2) exp(-if/2)
    without cancellation, and the phases q**(b-d+1), one division by q per
    level, err by (2d+4) u relative at most (q**a and q**(b+1) have exact
    arguments).  So term d, of size under 2**(d+1) H / |q-1|**(d+1), errs
    by 8(d+2) u 2**d H / |q-1|**(d+1) at most; summing the 2(D+1) terms and
    rotating by exp(-if/2) adds 2(D+2) u times their sizes.  As
    2/|q-1| >= 1, rounding <= 16 (D+1)(D+2) u H (2/|q-1|)**D / |q-1|.
    Residual plus rounding must meet the tolerance (the final rounding to
    complex128 aside).  Returns P and (D, residual bound).
    """
    log_x, log_tol = math.log(a + 0.5), math.log(tol)
    log_gap = math.log(2.0 * math.sin(0.5 * f))  # log |q - 1|
    # remainder after unrolling depth+1 levels, in logs:
    # (s)_{depth+1} (a+1/2)**-(s+depth) / ((s+depth) |q-1|**(depth+1))
    log_poch = math.log(s)
    for depth in range(min(_SBP_MAX_DEPTH, b - a - 2) + 1):
        log_resid = (
            log_poch - (s + depth) * log_x - math.log(s + depth) - (depth + 1) * log_gap
        )
        if log_resid <= log_tol:
            break
        log_poch += math.log(s + depth + 1)
    log_growth = depth * (math.log(2.0) - log_gap)  # log (2/|q-1|)**D
    with mp.workdps(_MP_DPS + math.ceil(log_growth / math.log(10.0))):
        log_rounding = (
            math.log(16 * (depth + 1) * (depth + 2)) + float(mp.log(mp.eps))
            - s * log_x + log_growth - log_gap
        )
        bound = math.exp(log_resid) + math.exp(log_rounding)
        if not bound <= tol:
            raise NumericalError(
                f"summation by parts cannot reach tolerance {tol:g} "
                f"(s={s}, a={a}, freq={f:g}); residual bound {bound:g}"
            )
        sig, bet = mp.mpf(s), mp.mpf(f)
        half = mp.expj(-bet / 2)
        q = half * half
        weight = 1 / (-2j * mp.sin(bet / 2) * half)  # 1/(q-1), then times -q/(q-1)
        ratio = -q * weight
        qa, qb = mp.expj(-bet * a), mp.expj(-bet * (b + 1))
        lo = [(mp.mpf(2 * i + 1) / 2) ** -sig for i in range(a, a + depth + 1)]
        hi = [(mp.mpf(2 * i + 1) / 2) ** -sig for i in range(b - depth, b + 1)]
        total = mp.mpc(0)
        for _ in range(depth + 1):
            # lo[0] is the d-th difference at a, hi[-1] at b - d; qb = q**(b-d+1)
            total += weight * (hi[-1] * qb - lo[0] * qa)
            lo = [y - x for x, y in zip(lo, lo[1:])]
            hi = [y - x for x, y in zip(hi, hi[1:])]
            weight *= ratio
            qb /= q
        return complex(total * half), (depth, math.exp(log_resid))


def _euler_maclaurin_sum(s: float, a: int, b: int, f: float, tol: float):
    """Euler-Maclaurin for the barely-oscillating regime f << 1.

    The integral of y**(-s) exp(-1j f y) is expressed through the upper
    incomplete gamma function on the imaginary axis.  The p-th derivative
    of the summand g(y) is g(y) * Q_p(1/y), where Q_0 = 1 and, by the
    product and chain rules with v = 1/y,
    Q_{p+1}(v) = -v**2 dQ_p/dv - (sig*v + 1j*bet) Q_p(v).
    Q_p does not depend on y, so it is built once, two orders per
    correction r: Q_{2r-1}, evaluated at both ends by Horner, for the
    correction, and Q_2r for its remainder bound.

    Stop.  After correction r the remainder is
    -int_ya^yb B~_2r(y) / (2r)! g^(2r)(y) dy, B~_2r the periodic Bernoulli
    function, with |B~_2r| <= |B_2r|.  As |g(y)| = y**(-s) and
    |Q_2r(1/y)| <= sum_j |q_j| y**(-j) for the coefficients q_j of Q_2r,
    it is at most

        |B_2r| / (2r)! * sum_j |q_j| ya**(1 - s - j) / (s + j - 1),

    the integral taken to infinity.  The sum stops at the first r where
    that bound is at most tol/4.  Returns P and (the stop order, the bound).
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
        for p in range(1, 2 * _EM_MAX_ORDER + 1):
            coeffs = [
                -1j * bet * c - (sig + t - 1) * lower
                for t, (lower, c) in enumerate(zip([0] + coeffs, coeffs + [0]))
            ]
            r = (p + 1) // 2
            if p % 2:  # correction r, from Q_{2r-1}
                desc = coeffs[::-1]
                scale = mp.bernoulli(2 * r) / mp.factorial(2 * r)
                total += scale * (gb * mp.polyval(desc, 1 / yb) - ga * mp.polyval(desc, 1 / ya))
                continue
            bound = abs(scale) * mp.fsum(  # the remainder after it, from Q_2r
                abs(c) * ya ** (1 - sig - j) / (sig + j - 1) for j, c in enumerate(coeffs)
            )
            if bound <= tol / 4:
                return complex(total), (r, float(bound))
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
        mp.gammainc(s1, 1j * bet * ya, mp.inf) - mp.gammainc(s1, 1j * bet * yb, mp.inf)
    )

