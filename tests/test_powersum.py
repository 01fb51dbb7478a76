"""Oracle checks for the pinned power sum P(s,a,b,w) = sum (i+1/2)^-s e^{-jw(i+1/2)}.

Each regime of the dispatcher is compared against an independent brute-force
sum over a range where brute force is trustworthy: mpmath at high precision
for short or high-index ranges, chunked float64 where the phases stay small
enough that its error is provably below the comparison tolerance.
"""

import logging
import math

import mpmath as mp
import numpy as np
import pytest

from skysift import _powersum
from skysift._powersum import (
    _MP_DPS,
    _SBP_MAX_DEPTH,
    _SBP_MIN_PHASE,
    _SBP_MIN_START,
    _sbp_sum,
    _upper_gamma,
    pinned_power_sum,
)
from skysift.errors import NumericalError


def brute_mp(s, a, b, f, dps=40):
    with mp.workdps(dps):
        total = mp.mpc(0)
        for i in range(a, b + 1):
            x = mp.mpf(i) + mp.mpf("0.5")
            total += x ** (-mp.mpf(s)) * mp.exp(-1j * mp.mpf(f) * x)
        return complex(total)


def brute_np(s, a, b, f):
    total = 0.0 + 0.0j
    chunk = 1 << 20
    for start in range(a, b + 1, chunk):
        x = np.arange(start, min(start + chunk, b + 1), dtype=float) + 0.5
        total += complex(np.sum(x ** (-s) * np.exp(-1j * f * x)))
    return total


def test_zero_frequency_uses_zeta():
    value = pinned_power_sum(2.5, 3, 2000, 0.0, 1e-18)
    assert value.imag == 0.0
    assert value.real == pytest.approx(brute_mp(2.5, 3, 2000, 0.0).real, abs=1e-15)


def test_short_range_at_huge_index():
    # float64 phases would be useless here; the short branch must not use them
    a = 10**12
    value = pinned_power_sum(1.75, a, a + 80, 0.3, 1e-20)
    expected = brute_mp(1.75, a, a + 80, 0.3, dps=80)
    assert abs(value - expected) <= 1e-22


def test_summation_by_parts_regime():
    # (a+1/2)|q-1| ~ 1e3: SBP path; brute float64 phase error stays below 1e-8
    s, a, b, f = 1.5, 2000, 10**7, 0.5
    value = pinned_power_sum(s, a, b, f, 1e-12)
    assert abs(value - brute_np(s, a, b, f)) <= 1e-8


def test_euler_maclaurin_regime_small_argument():
    # f*(b+1/2) ~ 15, far below the asymptotic switch of the integral term
    s, a, b, f = 2.2, 100, 300_000, 5e-5
    value = pinned_power_sum(s, a, b, f, 1e-14)
    assert abs(value - brute_np(s, a, b, f)) <= 1e-13


def test_euler_maclaurin_regime_large_argument():
    # f*(b+1/2) ~ 150: the boundary integral must use its asymptotic form
    s, a, b, f = 2.2, 100, 3_000_000, 5e-5
    value = pinned_power_sum(s, a, b, f, 1e-14)
    assert abs(value - brute_np(s, a, b, f)) <= 1e-12


def test_low_start_moderate_frequency_bridges_to_sbp():
    # a sits below the SBP phase floor, so a direct midsection must bridge
    s, a, b, f = 1.6, 0, 10**6, 0.01
    value = pinned_power_sum(s, a, b, f, 1e-12)
    assert abs(value - brute_np(s, a, b, f)) <= 1e-9


def test_split_additivity_across_branches():
    s, f = 1.9, 0.02
    tol = 1e-13
    whole = pinned_power_sum(s, 10, 10**6, f, tol)
    left = pinned_power_sum(s, 10, 4999, f, tol)
    right = pinned_power_sum(s, 5000, 10**6, f, tol)
    assert abs(whole - (left + right)) <= 5 * tol


def test_frequency_wrap_flips_sign():
    # adding 2*pi multiplies each half-integer-index term by exp(-j*pi) = -1
    s, a, b, f = 2.0, 5, 5000, 0.7
    base = pinned_power_sum(s, a, b, f, 1e-15)
    wrapped = pinned_power_sum(s, a, b, f + 2 * math.pi, 1e-15)
    double_wrapped = pinned_power_sum(s, a, b, f + 4 * math.pi, 1e-15)
    assert wrapped == pytest.approx(-base, rel=1e-12)
    assert double_wrapped == pytest.approx(base, rel=1e-12)


def test_negative_frequency_conjugates():
    s, a, b, f = 2.0, 5, 5000, 0.7
    base = pinned_power_sum(s, a, b, f, 1e-15)
    neg = pinned_power_sum(s, a, b, -f, 1e-15)
    assert neg == pytest.approx(base.conjugate(), rel=1e-13)


def test_tolerance_is_respected_across_requests():
    s, a, b, f = 1.5, 2000, 10**7, 0.5
    loose = pinned_power_sum(s, a, b, f, 1e-8)
    tight = pinned_power_sum(s, a, b, f, 1e-15)
    assert abs(loose - tight) <= 1e-8


def test_invalid_arguments_raise():
    with pytest.raises(NumericalError):
        pinned_power_sum(1.0, 0, 10, 0.1, 1e-10)  # exponent must exceed 1
    with pytest.raises(NumericalError):
        pinned_power_sum(2.0, 10, 5, 0.1, 1e-10)
    with pytest.raises(NumericalError):
        pinned_power_sum(2.0, 0, 10, 0.1, 0.0)


def lerch_oracle(s, a, b, f, dps=40):
    """P(s,a,b,f) from mpmath's Lerch transcendent, which shares no code with
    any branch: sum_{i>=a} = e^{-jf(a+1/2)} Phi(e^{-jf}, s, a+1/2)."""
    with mp.workdps(dps):
        bet = mp.mpf(f)
        z = mp.exp(-1j * bet)
        lo = mp.mpf(2 * a + 1) / 2
        hi = mp.mpf(2 * b + 3) / 2
        return complex(
            mp.exp(-1j * bet * lo) * mp.lerchphi(z, s, lo)
            - mp.exp(-1j * bet * hi) * mp.lerchphi(z, s, hi)
        )


# (s, a, b, f, tol) of power sums that total_error requests at kf <= 2,
# where the inversion series runs to ~8e12 terms
@pytest.mark.parametrize(
    "case, branch",
    [
        ((1.5, 4096, 7736527939539, 0.0576, 4.23e-11), "SBP"),
        ((3.5, 4096, 7878255667766, 0.17, 4.73e-12), "SBP"),
        ((1.5, 4096, 7665649952259, 1.16e-5, 4.25e-11), "EM"),
        ((4.5, 4096, 7665621705926, 3.47e-5, 1.29e-12), "EM"),
        ((1.5, 4096, 7666205587751, 4.44e-4, 4.25e-11), "bridge+SBP"),
        ((4.5, 4096, 7667288612401, 1.33e-3, 1.29e-12), "bridge+SBP"),
    ],
)
def test_matches_lerch_transcendent_at_huge_index(case, branch, caplog):
    with caplog.at_level(logging.DEBUG, logger="skysift._powersum"):
        value = pinned_power_sum(*case)
    assert caplog.records[-1].getMessage().split(": ")[1].startswith(branch + ",")
    assert abs(value - lerch_oracle(*case[:4])) <= case[4]


def test_summation_by_parts_refusal_reports_bound():
    with pytest.raises(NumericalError, match=r"summation by parts .* bound 6\.9286"):
        pinned_power_sum(1.5, 2000, 10**7, 0.5, 1e-300)


def test_euler_maclaurin_refusal():
    with pytest.raises(NumericalError, match="not converged at order 8"):
        pinned_power_sum(2.2, 100, 300_000, 5e-5, 1e-300)


@pytest.mark.parametrize("sigma, modulus", [(18.5, 50.0), (1.5, 50.0), (1.5, 8.9e7)])
def test_upper_gamma_at_working_precision(sigma, modulus):
    # at |x| = 50 the asymptotic series has not converged within its 39
    # terms (relative error 1.6e-6 at sigma 18.5); at 8.9e7 it has
    with mp.workdps(_MP_DPS):
        s1 = 1 - mp.mpf(sigma)
        x = mp.mpc(0, modulus)
        want = mp.gammainc(s1, x, mp.inf)
        assert abs(_upper_gamma(s1, x) - want) <= 1e-40 * abs(want)


def test_debug_log_names_branch_and_stop(caplog):
    with caplog.at_level(logging.DEBUG, logger="skysift._powersum"):
        pinned_power_sum(1.5, 2000, 10**7, 0.5, 1e-12)
        pinned_power_sum(2.0, 5, 50, 0.7, 1e-15)
        pinned_power_sum(2.5, 3, 2000, 2 * math.pi, 1e-18)
    sbp, direct, zeta = (r.getMessage() for r in caplog.records)
    assert "SBP, stopped at " in sbp and ", residual " in sbp
    assert direct.endswith(": direct-mp")
    assert zeta.endswith(": zeta")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="skysift._powersum"):
        pinned_power_sum(1.5, 2000, 10**7, 0.5, 1e-12)
    assert not caplog.records


def test_memoised_frames_match_fresh_calls():
    """Calls interleaved over two ranges (SBP, and bridge+SBP with its own
    SBP range) give bit for bit what fresh calls give after cache_clear()."""
    sbp = (4096, 7736527939539, 0.0576)
    bridge = (4096, 7666205587751, 4.44e-4)
    calls = [
        (1.5, sbp), (2.5, sbp), (1.5, bridge), (3.5, sbp), (2.5, bridge), (3.5, bridge)
    ]
    _powersum._sbp_frame.cache_clear()
    _powersum._bridge_frame.cache_clear()
    memoised = [pinned_power_sum(s, *rng, 1e-12) for s, rng in calls]
    assert _powersum._sbp_frame.cache_info().hits == 2
    assert _powersum._bridge_frame.cache_info().hits == 2
    for (s, rng), got in zip(calls, memoised):
        _powersum._sbp_frame.cache_clear()
        _powersum._bridge_frame.cache_clear()
        assert pinned_power_sum(s, *rng, 1e-12) == got
    x, phase = _powersum._bridge_frame(0, 9, 0.5)
    assert not (x.flags.writeable or phase.flags.writeable)


def sbp_sum_mp(s, a, b, f, tol):
    """Summation by parts in mpmath throughout: the same unrolling, stop
    depth rule and residual bound as ``_sbp_sum``, with difference tables
    of (i+1/2)**-s taken by repeated subtraction.  Level d carries the
    rounding of h(a) into the sum with weight |q-1|**-(d+1), so the working
    precision is 60 digits plus d*log10(2/|q-1|) at the deepest level
    (at 60 digits flat, a = 500001, f = 1e-4 and depth 14 came out wrong
    in the fifth digit).  Returns P and (stop depth, residual bound)."""
    lost = _SBP_MAX_DEPTH * math.log10(1 / math.sin(f / 2))
    with mp.workdps(_MP_DPS + math.ceil(lost)):
        sig, bet = mp.mpf(s), mp.mpf(f)
        q = mp.exp(-1j * bet)
        inv_qm1 = 1 / (q - 1)
        ratio, abs_qm1 = -q * inv_qm1, abs(q - 1)
        a_half = mp.mpf(2 * a + 1) / 2
        poch, a_pow, gap_pow = sig, a_half ** (-sig), abs_qm1
        for depth in range(min(_SBP_MAX_DEPTH, b - a - 2) + 1):
            resid = poch * a_pow / ((sig + depth) * gap_pow)
            if resid <= tol:
                break
            poch *= sig + depth + 1
            a_pow /= a_half
            gap_pow *= abs_qm1
        else:
            raise NumericalError(
                f"summation by parts cannot reach tolerance {tol:g} "
                f"(s={s}, a={a}, freq={f:g}); residual bound {float(resid):g}"
            )
        lod = [[(mp.mpf(2 * i + 1) / 2) ** (-sig) for i in range(a, a + depth + 1)]]
        hid = [[(mp.mpf(2 * i + 1) / 2) ** (-sig) for i in range(b - depth, b + 1)]]
        for _ in range(depth):
            lod.append([x - y for y, x in zip(lod[-1], lod[-1][1:])])
            hid.append([x - y for y, x in zip(hid[-1], hid[-1][1:])])
        total, fac, qa, qb = mp.mpc(0), inv_qm1, q**a, q ** (b + 1)
        for d in range(depth + 1):
            # hid[d][depth - d] is the d-th difference at b - d; qb = q**(b-d+1)
            total += fac * (hid[d][depth - d] * qb - lod[d][0] * qa)
            fac *= ratio
            qb /= q
        return complex(total * mp.exp(-1j * (bet / 2))), (depth, float(resid))


def sbp_grid():
    """(s, a, b, f, tol) from the SBP floor up, including the SBP part of
    bridged ranges (start pushed up to 50/|q-1|), tolerances relative to the
    leading term (a+1/2)**-s / |q-1|."""
    for s in (1.25, 2.5, 4.5, 9.0):
        for f in (1e-4, 3e-3, 0.1, 1.0, math.pi):
            gap = 2 * math.sin(f / 2)
            for a0 in (_SBP_MIN_START, 1000, 10**5):
                a = max(a0, math.ceil(_SBP_MIN_PHASE / gap))
                for b in (a + 200, 10**7, 10**13):
                    if b <= a + 100:
                        continue
                    for rel in (1e-6, 1e-10):
                        yield s, a, b, f, rel * (a + 0.5) ** -s / gap


def test_float64_sbp_matches_60_digit_oracle():
    cases = list(sbp_grid())
    assert len(cases) > 300
    for case in cases:
        value, halt = _sbp_sum(*case)
        want, want_halt = sbp_sum_mp(*case)
        assert halt[0] == want_halt[0], case
        assert halt[1] == pytest.approx(want_halt[1], rel=1e-12), case
        assert abs(value - want) <= 1e-3 * case[4], case


def test_sbp_kernel_uses_no_mpmath(monkeypatch):
    """Past its memoised frame (the two boundary phases, reduced at 60
    digits), summation by parts is float64 throughout."""
    case = (2.5, 4096, 7736527939539, 0.0576, 1.77e-11)
    _powersum._sbp_frame(*case[1:4])
    monkeypatch.setattr(_powersum, "mp", None)
    value, _ = _sbp_sum(*case)
    monkeypatch.undo()
    assert abs(value - sbp_sum_mp(*case)[0]) <= 1e-3 * case[4]


def test_sbp_float64_overflow_is_refused():
    # |C(-s, n)| for s = 1e7 overflows float64 within the 64 Taylor terms
    with np.errstate(over="warn", invalid="warn"):
        with pytest.raises(NumericalError, match="overflows float64"):
            pinned_power_sum(1e7, 10**5, 10**9, 0.5, 1e-12)


def test_sbp_tolerance_below_float64_is_refused():
    # the residual bound alone would stop at some depth; float64 rounding
    # of a result near 1e-3 cannot certify 1e-20
    with pytest.raises(NumericalError, match="in float64 .* residual bound"):
        pinned_power_sum(1.25, 200, 10**6, 1.0, 1e-20)


@pytest.mark.parametrize("modulus", [0.047, 0.41, 50.0])
def test_upper_gamma_steps_down_one_order_at_a_time(modulus):
    """Tail orders ask for s1 = 1 - sigma one lower each time at the same x;
    after the first, each value comes from the previous one by recurrence."""
    with mp.workdps(_MP_DPS):
        x = mp.mpc(0, modulus)
        _powersum._last_gamma = None
        for sigma in np.arange(1.5, 19.0, 1.0):
            s1 = 1 - mp.mpf(sigma)
            want = mp.gammainc(s1, x, mp.inf)
            assert abs(_upper_gamma(s1, x) - want) <= 1e-40 * abs(want), sigma
