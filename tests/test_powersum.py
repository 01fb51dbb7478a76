"""Oracle checks for the pinned power sum P(s,a,b,w) = sum (i+1/2)^-s e^{-jw(i+1/2)}.

Each regime of the dispatcher is compared against an independent brute-force
sum over a range where brute force is trustworthy: mpmath at high precision
for short or high-index ranges, chunked float64 where the phases stay small
enough that its error is provably below the comparison tolerance; long
ranges at huge indices against mpmath's Lerch transcendent.
"""

import logging
import math

import mpmath as mp
import numpy as np
import pytest

from skysift._powersum import _SBP_MIN_PHASE, _euler_maclaurin_sum, _sbp_sum, pinned_power_sum
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
    # f*(b+1/2) ~ 150: the boundary integral takes Gamma at a large argument
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


def lerch_oracle(s, a, b, f, dps=60):
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


def test_euler_maclaurin_stops_at_its_remainder_bound():
    """At each tolerance the stop order's remainder bound is within tol/4
    and covers the sum's error against the Lerch oracle."""
    case = (2.2, 100, 300_000, 5e-5)
    want = lerch_oracle(*case)
    orders = []
    for tol in (1e-3, 1e-8, 1e-12):
        value, (order, bound) = _euler_maclaurin_sum(*case, tol)
        assert bound <= tol / 4
        assert abs(value - want) <= bound + 1e-16 * abs(want)
        orders.append(order)
    assert orders == [1, 2, 3]


def test_summation_by_parts_refusal_reports_bound():
    with pytest.raises(NumericalError, match=r"summation by parts .* bound 6\.9286"):
        pinned_power_sum(1.5, 2000, 10**7, 0.5, 1e-300)


def test_euler_maclaurin_refusal():
    with pytest.raises(NumericalError, match="not converged at order 8"):
        pinned_power_sum(2.2, 100, 300_000, 5e-5, 1e-300)


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


def sbp_grid():
    """(s, a, b, f) from the lowest start where summation by parts applies,
    (a+1/2)|q-1| >= 50, up, including the SBP part of bridged ranges (start
    pushed up to 50/|q-1|): 201 terms from each start, and from the lowest
    start to 1e13."""
    for s in (1.25, 2.5, 4.5, 9.0):
        for f in (1e-4, 3e-3, 0.1, 1.0, math.pi):
            floor = math.ceil(_SBP_MIN_PHASE / (2 * math.sin(f / 2)))
            starts = sorted({max(a0, floor) for a0 in (100, 1000, 10**5)})
            for a in starts:
                yield s, a, a + 200, f
            yield s, starts[0], 10**13, f


def test_sbp_matches_independent_oracles():
    """Every sbp_grid range at tolerances 1e-6 and 1e-10 of its leading term
    (a+1/2)**-s / |q-1|: the short ranges against a 40-digit direct sum,
    the long ones against the Lerch transcendent."""
    ranges = list(sbp_grid())
    assert len(ranges) == 68
    for s, a, b, f in ranges:
        want = brute_mp(s, a, b, f) if b - a <= 200 else lerch_oracle(s, a, b, f)
        lead = (a + 0.5) ** -s / (2 * math.sin(f / 2))
        for tol in (1e-6 * lead, 1e-10 * lead):
            value, _ = _sbp_sum(s, a, b, f, tol)
            assert abs(value - want) <= tol, (s, a, b, f, tol)


def test_sbp_at_a_small_gap_matches_a_direct_sum():
    """(a+1/2)|q-1| just above 50 at f = 1e-4, stop depth 14: the difference
    tables lose 14*log10(2/|q-1|) ~ 60 digits, which the working precision
    makes up (at 60 digits flat this sum came out wrong in the fifth digit)."""
    case = (1.25, 500001, 500201, 1e-4, 7.5e-16)
    value, (depth, _) = _sbp_sum(*case)
    assert depth == 14
    assert abs(value - brute_mp(*case[:4])) <= case[4]


def test_sbp_certifies_a_tolerance_below_float64():
    # the sum is near 1e-3: no float64 evaluation could certify 1e-20
    case = (1.25, 200, 10**6, 1.0, 1e-20)
    assert abs(pinned_power_sum(*case) - lerch_oracle(*case[:4])) <= case[4]


def test_sbp_huge_exponent_sums_to_zero():
    # every term is below 1e-(5e7), far under float64's range
    assert abs(pinned_power_sum(1e7, 10**5, 10**9, 0.5, 1e-12)) <= 1e-12
