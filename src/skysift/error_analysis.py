"""Exact detection-error probabilities via characteristic-function inversion.

Under either hypothesis the test statistic is a quadratic form in a Gaussian
vector, i.e. a weighted sum of independent chi-squared(1) variables whose
weights are the eigenvalues of (inverse-covariance difference) times the
hypothesis covariance.  Its CDF is recovered from the characteristic
function by a truncated Fourier-type series controlled by two knobs, so the
combined error stays below a requested target: the grid step (resolution
error), from Chernoff bounds on the aliases (Davies 1973), and the term
count N (truncation error), from Imhof's (1961) product bound prod_j
(2 N delta |lam_j|)^(-1/2) on the remainder, which below kf 50 ends each
series at the geometric mean of the kept |eigenvalues| rather than at the
smallest; from kf 50 on, the O(1) budget ends it at the smallest (see
accuracy_budget).

Evaluating the truncated series is its own numerical problem: at kept orders
up to about 7 the required term count reaches 1e6-1e13.  Those CDFs are not
summed.  Equal eigenvalues give a scaled chi-squared; otherwise the CDF is a
few real integrals around the branch cuts of the moment generating function
(Imhof 1961; Rice 1980), each a Gauss-Chebyshev or trapezoid sum of 64 to a
few thousand nodes with a certified error bound (see :func:`_cut_cdf`).  Only
where those bounds miss the tolerance within the node cap is the series split
into a directly-summed head and a tail from its asymptotic expansion in
1/omega, each order a pinned power sum (see :mod:`skysift._powersum`).

The spectrum itself costs O(n) per hypothesis and builds no n x n array.
Both covariances are Kac-Murdock-Szego matrices, so both inverses are
tridiagonal with Toeplitz interiors, and the pencil (Q, Sigma_h^-1) with
Q = Sigma1^-1 - Sigma2^-1 has eigenvectors x_k = sin(k*theta + phi): the
eigenvalues are the AR(1) spectral-density ratio at n angles, and the angles
are the roots of one increasing scalar function (Kac, Murdock and Szego
1953; Grenander and Szego, *Toeplitz Forms*, 1958).  The derivation and the
proof that it yields exactly n roots are in :func:`q_sigma_eigenvalues`.

From the measured crossover horizon _CLOSED_FORM_MIN = 50 on, a report
needs no eigenvalues at all.  Sigma_h^-1 - 2iuQ has the same tridiagonal
shape, and its determinant a Chebyshev closed form (ibid.): the
characteristic function costs O(1) per grid point
(:meth:`_KmsSpectrum._log_phi`), and the same determinant at real arguments
gives the moment generating function of the Chernoff budget
(:meth:`_KmsSpectrum._log_mgf`).  The budget's other inputs, the
largest and smallest |eigenvalue| and the kept count, sit at the ends of
the spectrum and next to its sign change, because the eigenvalues are
monotone in their angle, so a few scalar angle solves give them
(:meth:`_KmsSpectrum._summary`).  A report is O(1) for its budget plus O(1)
per grid point; only the head + tail fallback, a dropped neighbour of the
sign change and a degenerate closed form build the eigenvalues (past
_EIGENVALUES_MAX they refuse the report), and below the crossover the
eigen-sums are the cheaper path.  Report times (timeit best of 5, 2-vCPU
Xeon, shared host), default pair and cell (mass 1, gain 4): 0.15-0.19 ms at
kf 1e3-1e9 and 0.36-0.38 ms at kf 1e20, both misses within the target by
their Chernoff bounds.
"""

import cmath
import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc

from .errors import ConfigError, NumericalError
from ._powersum import pinned_power_sum
from .detector import DetectorSpec, threshold
from .model import ClassStatistics, Scenario

__all__ = [
    "QuadFormSpectrum",
    "AccuracyBudget",
    "ErrorReport",
    "q_sigma_eigenvalues",
    "accuracy_budget",
    "cdf_quadratic_form_raw",
    "total_error",
    "error_surface",
]

logger = logging.getLogger(__name__)

# relative size under which an eigenvalue is treated as structurally zero
DROP_TOLERANCE = 1e-12

# evaluation noise is kept three orders below the requested accuracy target
_EVAL_SLACK = 1e-3
# the finest accuracy target a report is asked to certify; see _check_target
_TARGET_FLOOR = 1e-15

_DIRECT_CAP = 1 << 15  # longest series summed directly; see cdf_quadratic_form_raw
_HEAD_MIN = 1 << 12
_HEAD_MAX = 1 << 26
_TAIL_MAX_ORDER = 16
# branch-cut quadrature (see _cut_cdf): node counts 64, 128, ... up to the cap,
# the fractions of the analyticity region its bounds try, the trapezoid spans
_CUT_NODES_MAX = 1 << 14
_CUT_MAX_ORDER = 16
_NODE_COUNTS = [1 << j for j in range(6, _CUT_NODES_MAX.bit_length())]
_FRACTIONS = np.concatenate([0.5 ** np.arange(1, 24), 1.0 - 0.5 ** np.arange(2, 24)])
_TRAPEZOID_SPANS = 2.0 ** (np.arange(-8, 73) / 4.0)
_EPS = float(np.finfo(float).eps)
# grid points per _log_phi call: the closed form keeps ~15 complex temporaries
_CHUNK = 1 << 16
# (eigenvalue, grid point) pairs per _phi_arrays block: cache-sized, and no
# larger than the one-grid-row temporaries that a grid of this size needs
_PHI_BLOCK = 1 << 15
_NEWTON_MAX_ITER = 100  # safeguarded Newton on the eigen-angles
# horizons from which the eigen-angles take one vector solve, not n scalar
# ones (timeit best of 7, 2-vCPU Xeon, default pair: vector / scalar 176 / 46
# us at n = 2, 137 / 116 at 10, 134 / 128 at 12, 140 / 144 at 13, 114 / 200
# at 20)
_ANGLE_ARRAY_MIN = 13
# horizons from which _spectra picks the closed forms (measured; see there)
_CLOSED_FORM_MIN = 50
_LADDER_TOP = 16  # _chernoff_ladder's last rung, in units of the budget's t
# most eigenvalues _KmsPair builds: the angle solve and the symbols hold about
# 125 bytes per eigenvalue at once, so 2**24 of them take about 2.1 GB
_EIGENVALUES_MAX = 1 << 24


class _Summary(NamedTuple):
    """What accuracy_budget reads of a spectrum: the largest and smallest
    |lam| kept (see DROP_TOLERANCE), a lower bound G on the geometric mean
    of the kept |lam| (the mean itself on the eigen path, the smallest |lam|
    on the closed form's), how many are kept, the Chernoff t =
    1/(4 lambda_abs_max), and (log M(t), log M(-t)) for the moment
    generating function M(s) = E[exp(s Z)]; t = 0 and None if nothing is
    kept.  For _chernoff_ladder: the signed ends (min lam, max lam)."""

    lambda_abs_max: float
    lambda_abs_min: float
    lambda_abs_gmean: float
    kept_order: int
    t: float
    log_mgf: "tuple | None"
    ends: tuple = (0.0, 0.0)


def _eigen_log_mgf(kept: np.ndarray, s: float) -> float:
    """log M(s) = -1/2 sum log1p(-2 s lam) over the kept eigenvalues."""
    return -0.5 * float(np.log1p(-2.0 * s * kept).sum())


def _eigen_summary(kept: np.ndarray) -> _Summary:
    """The summary from the kept eigenvalues."""
    if kept.size == 0:
        return _Summary(0.0, 0.0, 0.0, 0, 0.0, None)
    ends = (float(kept.min()), float(kept.max()))
    abs_max = max(-ends[0], ends[1])
    t = 1.0 / (4.0 * abs_max)
    log_mgf = (_eigen_log_mgf(kept, t), _eigen_log_mgf(kept, -t))
    size = np.abs(kept)
    gmean = math.exp(float(np.log(size).mean()))
    return _Summary(abs_max, float(size.min()), gmean, int(kept.size), t, log_mgf, ends)


@dataclass(frozen=True, eq=False)
class QuadFormSpectrum:
    """Eigenvalues of the statistic's defining matrix under one hypothesis."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        eigs = np.asarray(self.eigenvalues, dtype=float)
        if eigs.ndim != 1:
            raise ConfigError("eigenvalues must be a 1-D array")
        if not np.all(np.isfinite(eigs)):
            raise ConfigError("eigenvalues must be finite")
        eigs = eigs.copy()
        eigs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def horizon(self) -> int:
        """Series length: one eigenvalue per sample."""
        return self.eigenvalues.size

    def kept(self) -> np.ndarray:
        """Eigenvalues above the relative drop threshold (see DROP_TOLERANCE)."""
        eigs = self.eigenvalues
        absmax = float(np.max(np.abs(eigs))) if eigs.size else 0.0
        if absmax == 0.0:
            return eigs[:0]
        return eigs[np.abs(eigs) >= DROP_TOLERANCE * absmax]

    @cached_property
    def _summary(self) -> _Summary:
        """What accuracy_budget reads, from the kept eigenvalues."""
        return _eigen_summary(self.kept())

    def _log_phi(self, u: np.ndarray):
        """log|phi(u)| and arg phi(u) on a grid, phi(u) = E[exp(1j*u*Z)],
        summed over the eigenvalues (_phi_arrays)."""
        return _phi_arrays(self.eigenvalues, u)

    def _log_mgf(self, s: float):
        """log M(s) at a real s where every factor 1 - 2s lam_j is positive,
        summed over the kept eigenvalues."""
        return _eigen_log_mgf(self.kept(), s)


class _KmsPair:
    """The two classes and the horizon that both spectra of _spectra share,
    with what is solved for them: both eigenvalue arrays come from one vector
    angle solve, the symbol at a single angle from one scalar solve."""

    def __init__(self, stats1: ClassStatistics, stats2: ClassStatistics, n: int):
        a1, a2 = stats1.alpha, stats2.alpha
        self.a1, self.r1 = a1, stats1.rho
        self.a2, self.r2 = a2, stats2.rho
        self.n = n
        # 1/alpha1 - 1/alpha2; differencing the alphas first is exact when they are close
        self.inverse_gap = (a2 - a1) / a1 / a2
        self._at = {}  # m -> (lam_1, lam_2) at theta_m

    @cached_property
    def eigenvalues(self) -> tuple:
        """Both hypotheses' eigenvalues, ascending and read-only."""
        r1, r2, n = self.r1, self.r2, self.n
        if n > _EIGENVALUES_MAX:
            raise NumericalError(f"horizon {n} exceeds the eigenvalue-array limit 2**24")
        if r1 == r2 or n == 1:
            eigs = [np.full(n, a_h * self.inverse_gap) for a_h in (self.a1, self.a2)]
        else:
            if n < _ANGLE_ARRAY_MIN:
                angles = np.array([_eigen_angle(r1, r2, n, m) for m in range(1, n + 1)])
            else:
                angles = _eigen_angles(r1, r2, n)
            half_sin = np.sin(0.5 * angles)
            eigs = [np.sort(lam) for lam in self.symbols(half_sin * half_sin)]
        for lam in eigs:
            lam.flags.writeable = False
        return tuple(eigs)

    def symbols(self, w):
        """lam(theta) of both hypotheses (see q_sigma_eigenvalues), w = sin(theta/2)**2."""
        a1, r1, a2, r2 = self.a1, self.r1, self.a2, self.r2
        x = (1.0 - r1) * (1.0 - r2) - 2.0 * (1.0 + r1 * r2) * w
        u1 = _inverse_symbol(r1, w)
        u2 = _inverse_symbol(r2, w)
        d = -2.0 * (r1 - r2) * x / ((1.0 - r1) * (1.0 + r1) * (1.0 - r2) * (1.0 + r2))
        u_lo = u1 if a1 <= a2 else u2
        gap = d / max(a1, a2) + u_lo * self.inverse_gap
        return a1 / u1 * gap, a2 / u2 * gap

    def symbols_at(self, m: int) -> tuple:
        """(lam_1, lam_2) at theta_m, bit for bit as in the eigenvalue arrays."""
        if m not in self._at:
            half_sin = float(np.sin(0.5 * _eigen_angle(self.r1, self.r2, self.n, m)))
            self._at[m] = self.symbols(half_sin * half_sin)
        return self._at[m]


@dataclass(frozen=True, eq=False)
class _KmsSpectrum(QuadFormSpectrum):
    """One hypothesis's spectrum made by _spectra from _CLOSED_FORM_MIN on;
    its eigenvalues are built on first read, with the other hypothesis's
    (see _KmsPair).  ``rho`` = rho_h and ``symbol`` = (lam(0), lam(pi),
    alpha_h * (1/alpha1 - 1/alpha2)) for the eigenvalue symbol lam(theta) of
    q_sigma_eigenvalues are what its closed forms, _log_phi and _log_mgf, need."""

    eigenvalues: np.ndarray = field(
        init=False,
        repr=False,
        default=cached_property(lambda self: self.pair.eigenvalues[self.hypothesis - 1]),
    )
    pair: _KmsPair
    hypothesis: int
    rho: float
    symbol: tuple

    def __post_init__(self):
        pass  # _spectra checked the inputs; the eigenvalues come later

    @property
    def horizon(self) -> int:
        return self.pair.n

    def _log_phi(self, u: np.ndarray):
        """log|phi_h(u)| and arg phi_h(u) on a grid, phi_h(u) = E[exp(1j*u*Z)]
        = (det(T) / det(Sigma_h^-1))^(-1/2), T = Sigma_h^-1 - 2iuQ, in
        closed form, O(1) per grid point.  T / c_h (c_h as in
        q_sigma_eigenvalues) is tridiagonal with off-diagonal b, interior
        diagonal a and corners a', where, with rho = rho_h,

            a + 2b cos(theta) = (1 + rho**2 - 2 rho cos(theta)) z(theta),
            2a' - a = (1 - rho**2) z_c,   det(Sigma_h^-1) / c_h^n = 1 - rho**2,

        z = 1 - 2iu lam for the eigenvalue symbol lam(theta), and z_c =
        1 - 2iu lam_c, lam_c = alpha_h (1/alpha1 - 1/alpha2).  Expanding the
        corner rows with the Toeplitz minors D_k = (r+^(k+1) - r-^(k+1)) /
        (r+ - r-), r+- the roots of r**2 - a r + b**2 (Kac, Murdock and Szego
        1953), gives for n >= 2, with q = r-/r+ and xi = (a' - r+)/(a' - r-),

            det(T / c_h) = a'^2 D_(n-2) - 2a' b^2 D_(n-3) + b^4 D_(n-4)
                         = r+^(n-2) (a' - r-)^2 (1 - q^(n-1) xi^2) / (1 - q).

        a +- 2b give, with principal roots s_0 = sqrt(z(0)), s_pi = sqrt(z(pi))
        and w = s_0 s_pi: sqrt(r+) = m and sqrt(r-) = m beta for
        m, m beta = ((1 + rho) s_pi +- (1 - rho) s_0) / 2; r+ - r- =
        (1 - rho**2) w; a' - r-+ = (1 - rho**2)(z_c +- w) / 2.  So

            log phi_h = -(n - 1) log m - log((z_c + w) / 2) + log(w) / 2
                        - log(1 - (beta^(n-1) xi)**2) / 2,   xi = (z_c - w) / (z_c + w),

        from n, rho, lam(0), lam(pi) and lam_c, each in _spectra's
        cancellation-free form; only beta and xi difference near-equal terms.

        Branch.  Each z has real part 1, so s_0, s_pi and m (a positive mix of
        them) have arguments in (-pi/4, pi/4): arg r+ = 2 arg m stays in
        (-pi/2, pi/2), and w and z_c + w have positive real parts.
        beta = (1 - g) / (1 + g) with g = (1 - rho) s_0 / ((1 + rho) s_pi),
        Re g > 0, so |beta| < 1.  As f_i(0) f_i(pi) = alpha_i**2 for the AR(1)
        density f_i, lam_c is lam at the geometric mean of f1/f2 at 0 and pi,
        so arg z_c lies between arg z(0) and arg z(pi), within pi/2 of their
        midpoint arg w: |xi| < 1.  Every log above is thus of a number in the
        open right half-plane; its principal branch is continuous in u and real
        at u = 0, so the sum is the continuous log phi_h, as the eigen-sum's
        is.  Complex logs are taken as log|z| + i arg z: numpy's complex log
        costs ~50 real ones.
        """
        n, rho = self.horizon, self.rho
        lam_0, lam_pi, lam_c = self.symbol
        s_0, s_pi = _sqrt_right(-2.0 * lam_0 * u), _sqrt_right(-2.0 * lam_pi * u)
        lo, hi = (1.0 - rho) * s_0, (1.0 + rho) * s_pi
        w = s_0 * s_pi
        z_c = 1.0 - 2j * lam_c * u
        two_m, z_c_w = hi + lo, z_c + w
        mag_m, arg_m = _polar(0.5 * two_m)
        mag_b, arg_b = _polar((hi - lo) / two_m)
        t = np.exp((n - 1) * (mag_b + 1j * arg_b)) * ((z_c - w) / z_c_w)
        logmag, phase = -(n - 1) * mag_m, -(n - 1) * arg_m
        for weight, value in ((-1.0, 0.5 * z_c_w), (0.5, w), (-0.5, 1.0 - t * t)):
            mag, arg = _polar(value)
            logmag += weight * mag
            phase += weight * arg
        return logmag, phase

    def _log_mgf(self, s: float):
        """log M_h(s) = -1/2 log det(I - 2s Q Sigma_h) at a real s where every
        factor 1 - 2s lam_j is at least 1/2, in O(1); None where r+ = r-.

        _log_phi's closed form at u = -is: its z = 1 - 2iu lam become the real
        1 - 2s lam, and the determinant identity behind it is algebraic, so it
        holds for these inputs too.  Positivity: the budget's |s| <= t =
        1/(4 max|lam|) puts every factor in [1/2, 3/2], and _chernoff_ladder's
        rungs, s up to 16 t but never past 1/(4 lam_edge) on the side they
        bound, in [1/2, 9] (see there); so det(I - 2s Q Sigma_h) =
        prod_j (1 - 2s lam_j) > 0, and log M is minus half its log.  The
        closed form's factors multiply to that determinant whichever square
        roots s_0 and s_pi take (a flip of either swaps r+ and r-, and D_k is
        symmetric in them), so log M is the sum of their log-magnitudes and no
        branch has to be followed.  The symbol's ends lie outside the
        eigenvalues' range (theta_1 > 0, theta_n < pi), so 1 - 2s lam(0) or
        1 - 2s lam(pi) may be negative and s_0 or s_pi imaginary; only
        w = s_0 s_pi = 0, where r+ - r- = (1 - rho**2) w vanishes, leaves the
        formula 0/0.

        Rounding.  m = (hi + lo)/2 and, for rho near 1, beta lie near 1, so
        forming them would cost the (n - 1)-fold terms (n - 1) eps.  As
        s_x - 1 = -2s lam_x / (1 + s_x), m = 1 + d with d = -s ((1 - rho) lam_0
        / (1 + s_0) + (1 + rho) lam_pi / (1 + s_pi)), and beta = 1 - lo / m:
        log m and log beta come from _log1p of d and of -lo / m.  At the 859
        ladder rungs of the surface grid at kf 50, 51, 200, 999 and 3000 it
        matches the eigen-sum to 2.7e-15 relative.
        """
        n, rho = self.horizon, self.rho
        lam_0, lam_pi, lam_c = self.symbol
        s_0, s_pi = cmath.sqrt(1.0 - 2.0 * s * lam_0), cmath.sqrt(1.0 - 2.0 * s * lam_pi)
        d = -s * ((1.0 - rho) * lam_0 / (1.0 + s_0) + (1.0 + rho) * lam_pi / (1.0 + s_pi))
        lo = (1.0 - rho) * s_0
        w, z_c = s_0 * s_pi, 1.0 - 2.0 * s * lam_c
        try:
            t = cmath.exp((n - 1) * _log1p(-lo / (1.0 + d))) * ((z_c - w) / (z_c + w))
            return (
                -(n - 1) * _log1p(d).real
                - math.log(abs(0.5 * (z_c + w)))
                + 0.5 * math.log(abs(w))
                - 0.5 * math.log(abs(1.0 - t * t))
            )
        except (ArithmeticError, ValueError):  # a zero divisor or log argument
            return None

    @cached_property
    def _summary(self) -> _Summary:
        """The budget's inputs without the eigenvalue array: the extremes
        from a few scalar angle solves, with all n eigenvalues kept,
        log M(+-t) from _log_mgf's closed form.

        Monotone spectrum.  lam_h = (alpha_h / u_h) * gap, where gap =
        u1/alpha1 - u2/alpha2 = c0 + c1 w and u_h = A + B w, A = (1 - rho_h) /
        (1 + rho_h) > 0, B = 4 rho_h / (1 - rho_h**2) > 0, are affine in
        w = sin(theta/2)**2 (see q_sigma_eigenvalues).  So lam_h is a Moebius
        function of w with no pole on [0, 1], of derivative
        alpha_h (c1 A - c0 B) / (A + B w)**2 of one sign, and w increases with
        theta on (0, pi), as theta_m does with m.  The ascending spectrum is
        lam_h(theta_1..theta_n) or its reverse: max |lam| is at m = 1 or n,
        and |lam_m| falls, then rises, about the sign change of gap, if
        lam_1 and lam_n differ in sign, else it is monotone.  The smallest
        |lam| and any run under DROP_TOLERANCE * max |lam| sit at the angles
        next to the zero w* = c0 / (c0 - c1).  With the symbol's ends lam(0) =
        alpha_h c0 / A and lam(pi) = alpha_h (c0 + c1) / (A + B), A + B =
        1/A, w* = lam(0) A**2 / (lam(0) A**2 - lam(pi)), where lam(0) A**2
        and -lam(pi) have one sign, so nothing cancels; theta_m <= theta*
        exactly when m <= g(theta*) / pi.  The index is checked against the
        signs of lam at the angles.  Where either neighbour of the crossing
        is dropped, the eigenvalues are built.

        Equal rhos give n eigenvalues lam_c (see q_sigma_eigenvalues).
        Where _log_mgf's inputs degenerate, the eigenvalues are built.

        Rounding.  Each extreme is the computed symbol at the angle that
        monotonicity names, within about 16 eps max|lam| of the exact one
        (_KmsPair.symbols takes ~12 operations, each eps/2).  Where rounding,
        not the symbol, orders neighbouring eigenvalues (a flat symbol or a
        flat end), the extremes may differ from the array's by up to twice
        that, 32 eps max|lam|, and the array's is no closer to the true extreme;
        elsewhere they are equal.  The budget reads min |lam| only as a
        lower bound on the geometric mean in Imhof's bound, as the eigen
        path reads G."""
        n, lam_c = self.horizon, self.symbol[2]
        if self.pair.r1 == self.pair.r2:
            if lam_c == 0.0:
                return _Summary(0.0, 0.0, 0.0, 0, 0.0, None)
            abs_max = abs_min = abs(lam_c)
            ends = (lam_c, lam_c)
        else:
            extremes = self._extremes()
            if extremes is None:
                return _eigen_summary(self.kept())
            abs_max, abs_min, ends = extremes
        t = 1.0 / (4.0 * abs_max)
        log_mgf = (self._log_mgf(t), self._log_mgf(-t))
        if None in log_mgf:
            return _eigen_summary(self.kept())
        return _Summary(abs_max, abs_min, abs_min, n, t, log_mgf, ends)

    def _extremes(self) -> "tuple | None":
        """(max |lam|, min |lam|, (min lam, max lam)) for unequal rhos (see
        _summary), or None where an eigenvalue is dropped."""
        n, pair, h = self.horizon, self.pair, self.hypothesis - 1
        first, last = pair.symbols_at(1)[h], pair.symbols_at(n)[h]
        abs_max = max(abs(first), abs(last))
        side = math.copysign(1.0, first)

        def on_first_side(m):
            return pair.symbols_at(m)[h] * side > 0.0

        # j: the angles up to theta_j lie before the zero crossing, the rest after
        if on_first_side(n):
            j = 0 if abs(first) <= abs(last) else n
        else:
            rho = self.rho
            lam_0, lam_pi, _ = self.symbol
            at_0 = lam_0 * ((1.0 - rho) / (1.0 + rho)) ** 2
            w = min(max(at_0 / (at_0 - lam_pi), 0.0), 1.0)
            theta = 2.0 * math.asin(math.sqrt(w))
            g = _angle_residual(theta, pair.r1, pair.r2, n, 0.0, float)[0]
            j = _last_true(on_first_side, int(g / math.pi), 1, n - 1)
        abs_min = min(abs(pair.symbols_at(m)[h]) for m in (j, j + 1) if 1 <= m <= n)
        if abs_min < DROP_TOLERANCE * abs_max:
            return None
        return abs_max, abs_min, (min(first, last), max(first, last))


def _last_true(pred, guess: int, lo: int, hi: int) -> int:
    """The last m in [lo, hi] where pred, true up to some index and false
    after, holds; pred(lo) is taken as true and pred(hi + 1) as false, so
    neither is called.  The search leaves ``guess`` by doubling steps, then
    bisects the step that crosses: O(log |error|) calls of pred, and two
    where ``guess`` is right (one where it is an end)."""
    yes = min(max(guess, lo), hi)
    step = 1
    if yes > lo and not pred(yes):
        no = yes
        while (yes := max(no - step, lo)) > lo and not pred(yes):
            no, step = yes, 2 * step
    else:
        while (no := min(yes + step, hi + 1)) <= hi and pred(no):
            yes, step = no, 2 * step
    while no - yes > 1:
        mid = (yes + no) // 2
        yes, no = (mid, no) if pred(mid) else (yes, mid)
    return yes


@dataclass(frozen=True)
class AccuracyBudget:
    """Resolution and truncation parameters certifying a CDF accuracy target.

    ``n_terms`` is where the series stops: Imhof's (1961) product bound puts
    the remainder past it at most target/2 (see accuracy_budget).
    ``kept_order`` is the number of eigenvalues surviving the near-zero drop;
    it, not the raw horizon, sets the decay order in the truncation bound.
    Derived: ``chernoff_t`` = 1/(4 lambda_abs_max) and ``drop_tolerance``,
    the DROP_TOLERANCE that ``kept`` applies.
    """

    target: float
    chernoff_t: float = field(init=False)
    grid_step: float
    n_terms: int
    chernoff_bound: float
    lambda_abs_max: float
    lambda_abs_min: float
    kept_order: int
    drop_tolerance: float = field(init=False)

    def __post_init__(self):
        _check_target(self.target)
        if not (math.isfinite(self.lambda_abs_max) and self.lambda_abs_max > 0.0):
            raise ConfigError("lambda_abs_max must be positive and finite")
        object.__setattr__(self, "chernoff_t", 1.0 / (4.0 * self.lambda_abs_max))
        object.__setattr__(self, "drop_tolerance", DROP_TOLERANCE)
        if self.grid_step <= 0.0 or self.n_terms < 1:
            raise ConfigError("grid_step must be positive and n_terms >= 1")

    def refined(self, factor: int = 4) -> "AccuracyBudget":
        """Same budget with the grid ``factor`` times finer and longer.

        Used by the self-consistency check: a sound budget changes the
        reported probability by less than the target under refinement.
        """
        return replace(self, grid_step=self.grid_step / factor, n_terms=self.n_terms * factor)


def _check_target(target: float) -> None:
    """Refuse a target outside (0, 1) or below ``_TARGET_FLOOR``.

    No report can hold a finer target than its own float64 rounding: the
    total error prior2 * miss_given_2 + prior1 * miss_given_1 is combined in
    float64, and near its largest value, 1/2, that combination alone rounds
    by about 2e-16 (three roundings of half an ulp of 1/2 each).  The floor
    leaves a factor of five above that.  Below it the inversion's own
    arithmetic gives way before any answer: at 1e-50 to 1e-200 its series
    cannot reach their tolerances, at 1e-300 the tolerance underflows to 0,
    and at 1e-310 log(2/target) overflows, so the grid step is 0.
    """
    if not (0.0 < target < 1.0):
        raise ConfigError(f"target must lie in (0, 1), got {target}")
    if target < _TARGET_FLOOR:
        raise ConfigError(
            f"target {target!r} is below {_TARGET_FLOOR!r}, the finest a float64 report can certify"
        )


def q_sigma_eigenvalues(
    stats1: ClassStatistics,
    stats2: ClassStatistics,
    horizon: int,
    hypothesis: int,
) -> QuadFormSpectrum:
    """Spectrum of Q * Sigma_h, Q = Sigma1^-1 - Sigma2^-1, in O(n).

    These are the eigenvalues of the symmetric-definite pencil
    Q x = lam * Sigma_h^-1 x, so they are real.  Write P = rho1 * rho2 and
    u_i(theta) = ((1 - rho_i)**2 + 4 * rho_i * sin(theta/2)**2) / (1 - rho_i**2),
    so that u_i / alpha_i = 1 / f_i is the inverse AR(1) spectral density;
    this form has no cancellation as rho_i -> 1.

    * rho1 == rho2, or n == 1: Q = alpha_h * (1/alpha1 - 1/alpha2) * Sigma_h^-1,
      so all n eigenvalues equal alpha_h * (1/alpha1 - 1/alpha2), exactly
      0.0 for identical classes.
    * Otherwise lam_m = (alpha_h / u_h) * (u1 / alpha1 - u2 / alpha2) at
      theta_m, m = 1..n, where theta_m in (0, pi) is the root of

          g(theta) = (n - 1) * theta + 2 * atan2(y, x) = m * pi,
          y = (1 - P) * sin(theta),
          x = (1 - rho1) * (1 - rho2) - 2 * (1 + P) * sin(theta/2)**2.

    Why: each inverse is c_i * ((1 + rho_i**2) I - rho_i S - rho_i**2 E)
    with c_i = 1 / (alpha_i * (1 - rho_i**2)), S the off-diagonal ones and E
    the two corners, so Q - lam * Sigma_h^-1 = a I + b S + c E.  Its
    interior rows vanish on x_k = sin(k*theta + phi) exactly when
    a + 2 b cos(theta) = 0, which is lam = (u1/alpha1 - u2/alpha2) * alpha_h / u_h.
    Row 0 then reduces to c sin(phi) = b sin(phi - theta); on that curve
    b : c = (1 - P) : (rho1 + rho2 - 2 P cos(theta)) whatever the alphas and
    the hypothesis, which gives phi = atan2(y, x).  The last row, by the
    reflection k -> n - 1 - k, requires (n - 1) * theta + 2 * phi = m * pi.

    Exactly n roots: g(0+) = 0, g(pi-) = (n + 1) * pi, and
    g' = (n - 1) + 2 (1 - P)(1 + P - (rho1 + rho2) cos(theta)) / (x**2 + y**2)
    is positive because 1 + P - (rho1 + rho2) cos(theta) >= (1 - rho1)(1 - rho2).
    So g crosses each m * pi, m = 1..n, once, there is no root outside
    (0, pi), and theta_m lies in [(m - 2) pi / (n - 1), m pi / (n - 1)]
    because 0 < atan2(y, x) < pi.  The n sine vectors with distinct angles
    are independent, so they are all the eigenvectors.  The angles depend
    on rho1, rho2 and n alone: both hypotheses share them.

    With d = -2 (rho1 - rho2) x / ((1 - rho1**2)(1 - rho2**2)) = u1 - u2,
    the eigenvalue is evaluated as
    (alpha_h / u_h) * (d / alpha_hi + u_lo * (1/alpha1 - 1/alpha2)), where
    alpha_hi is the larger alpha and u_lo the symbol of the other class.
    Both terms shrink as the classes coincide, and together they are at
    most twice the size of u1/alpha1 and u2/alpha2, so the difference keeps
    its accuracy relative to the largest eigenvalue.  Returned in ascending
    order.
    """
    if hypothesis not in (1, 2):
        raise ConfigError(f"hypothesis must be 1 or 2, got {hypothesis}")
    spectrum = _spectra(stats1, stats2, horizon)[hypothesis - 1]
    spectrum.eigenvalues  # built here: the caller reads them
    return spectrum


def _spectra(stats1: ClassStatistics, stats2: ClassStatistics, horizon: int):
    """Both hypotheses' spectra (see q_sigma_eigenvalues), sharing one
    _KmsPair, so that both eigenvalue arrays come from one angle solve.
    Below _CLOSED_FORM_MIN they are plain QuadFormSpectrums of those arrays,
    evaluated by eigen-sums; from it on, _KmsSpectrums, evaluated by the
    closed forms of their _log_phi, _log_mgf and _summary.

    Crossover (timeit best of 7, 2-core x86 box; both hypotheses of the
    default pair and of the surface cells (mass, gain) = (1, 4), (0.5, 2),
    (4, 0.25), each on its report grid, summed): kf 20 (6,944 points)
    1.17 ms eigen-sum vs 1.70 ms closed form; kf 30 0.94 vs 1.10; kf 40
    1.69 vs 1.36; kf 60 2.04 vs 1.25; kf 100 7.4 vs 2.3.  They break even
    near kf 35; 50 keeps every kf <= 40 report on the eigen-sum, at most
    ~25% dearer there.  One default-pair call at kf 1000: 12.2 vs 0.39 ms.
    With the term counts at Imhof's product bound, whole reports of the
    same four cells (total_error, best of 7, summed; either path forced
    from kf 2, so the closed form's budget ends at min |lam|, the
    eigen-sum's at the geometric mean): kf 20 2.41 vs 3.03 ms, kf 30 2.46
    vs 2.48, kf 40 2.63 vs 2.48, kf 60 2.48 vs 2.02, kf 100 2.49 vs 2.12.
    They break even near kf 30-40, and 50 stays.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    pair = _KmsPair(stats1, stats2, horizon)
    if horizon < _CLOSED_FORM_MIN:
        return tuple(QuadFormSpectrum(eigs) for eigs in pair.eigenvalues)
    at_0, at_pi = pair.symbols(0.0), pair.symbols(1.0)
    return tuple(
        _KmsSpectrum(pair, h + 1, rho, (at_0[h], at_pi[h], a_h * pair.inverse_gap))
        for h, (a_h, rho) in enumerate(((pair.a1, pair.r1), (pair.a2, pair.r2)))
    )


def _inverse_symbol(rho: float, w: np.ndarray) -> np.ndarray:
    """u(theta) = alpha / f(theta) for AR(1), as a function of w = sin(theta/2)**2."""
    return ((1.0 - rho) ** 2 + 4.0 * rho * w) / ((1.0 - rho) * (1.0 + rho))


def _eigen_angles(rho1: float, rho2: float, n: int) -> np.ndarray:
    """The n roots theta_m of g(theta) = m * pi (see q_sigma_eigenvalues).

    Newton on all m at once from theta_m = m pi / (n + 1), kept inside a
    bracket that starts at [(m - 2) pi / (n - 1), m pi / (n - 1)] and shrinks
    with the sign of each residual; a step that would leave it bisects
    instead.  A root is done, and frozen, once its step is below four ulps
    or below the rounding of its residual, whose terms are all under
    (m + 2) pi.  The stop tests the step, not the bracket width: a bracket
    test can bounce forever between two adjacent floats.
    """
    theta, lo, hi, target, noise = _angle_start(np.arange(1, n + 1, dtype=float), n)
    done = np.zeros(n, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        resid, slope = _angle_residual(theta, rho1, rho2, n, target)
        lo = np.where(resid < 0.0, theta, lo)
        hi = np.where(resid > 0.0, theta, hi)
        new = theta - resid / slope
        new = np.where((new <= lo) | (new >= hi), 0.5 * (lo + hi), new)
        new = np.where(done, theta, new)
        done |= _angle_converged(new, theta, noise, slope)
        theta = new
        if done.all():
            return theta
    raise _angle_solve_error(rho1, rho2, n)


def _eigen_angle(rho1: float, rho2: float, n: int, m: int) -> float:
    """theta_m alone, by the Newton steps, bracket and stop of _eigen_angles:
    the arithmetic is the same, on Python floats, and numpy's sin, cos and
    arctan2 round a scalar as they round an array, so it equals
    _eigen_angles(...)[m - 1]."""
    theta, lo, hi, target, noise = _angle_start(float(m), n)
    lo, hi = float(lo), float(hi)
    for _ in range(_NEWTON_MAX_ITER):
        resid, slope = _angle_residual(theta, rho1, rho2, n, target, float)
        if resid < 0.0:
            lo = theta
        elif resid > 0.0:
            hi = theta
        new = theta - resid / slope
        if new <= lo or new >= hi:
            new = 0.5 * (lo + hi)
        if _angle_converged(new, theta, noise, slope):
            return float(new)
        theta = new
    raise _angle_solve_error(rho1, rho2, n)


def _angle_start(m, n: int):
    """(start, bracket low, bracket high, m pi, residual rounding) of theta_m,
    for an index m or an array of them (see _eigen_angles)."""
    target = m * math.pi
    lo = np.maximum(target - 2.0 * math.pi, 0.0) / (n - 1)
    hi = np.minimum(target / (n - 1), math.pi)
    return target / (n + 1), lo, hi, target, 8.0 * _EPS * (target + 2.0 * math.pi)


def _angle_residual(theta, rho1: float, rho2: float, n: int, target, cast=np.asarray):
    """g(theta) - m pi and g'(theta) (see q_sigma_eigenvalues); cast=float
    keeps a scalar solve on Python floats, whose arithmetic rounds as
    numpy's does but costs a fraction of numpy scalars'."""
    p = rho1 * rho2
    corner = (1.0 - rho1) * (1.0 - rho2)
    half_sin, half_cos = cast(np.sin(0.5 * theta)), cast(np.cos(0.5 * theta))
    w = half_sin * half_sin
    y = 2.0 * (1.0 - p) * half_sin * half_cos  # (1 - P) sin(theta)
    x = corner - 2.0 * (1.0 + p) * w
    resid = (n - 1) * theta + 2.0 * cast(np.arctan2(y, x)) - target
    # 1 + P - (rho1 + rho2) cos(theta), written without cancellation
    slope = (n - 1) + 2.0 * (1.0 - p) * (corner + 2.0 * (rho1 + rho2) * w) / (x * x + y * y)
    return resid, slope


def _angle_converged(new, theta, noise, slope):
    return abs(new - theta) <= 4.0 * _EPS * theta + noise / slope


def _angle_solve_error(rho1: float, rho2: float, n: int) -> NumericalError:
    return NumericalError(
        f"eigen-angle solve did not converge in {_NEWTON_MAX_ITER} steps "
        f"(rho1={rho1!r}, rho2={rho2!r}, n={n})"
    )


def _phi_arrays(eigenvalues: np.ndarray, u: np.ndarray):
    """log-magnitude and phase of the characteristic function on a grid.

    Summed over eigenvalues as -1/4 * log1p(4 u^2 lam^2) and
    1/2 * atan(2 u lam), a block of eigenvalues at a time: a block holds at
    most _PHI_BLOCK (eigenvalue, grid point) pairs, or one eigenvalue on a
    larger grid, so the temporaries stay at three grid rows as in a loop
    over single eigenvalues.  Log-polar form never touches a complex square
    root, so there are no branch-cut discontinuities to manage.
    """
    log_sum = np.zeros_like(u)
    atan_sum = np.zeros_like(u)
    rows = max(1, _PHI_BLOCK // u.size)
    for start in range(0, eigenvalues.size, rows):
        x = np.multiply.outer(2.0 * eigenvalues[start : start + rows], u)
        square = x * x
        atan_sum += np.arctan(x, out=x).sum(axis=0)
        log_sum += np.log1p(square, out=square).sum(axis=0)
    log_sum *= -0.25  # scaling by a power of two is exact
    atan_sum *= 0.5
    return log_sum, atan_sum


def _log1p(x: complex) -> complex:
    """log(1 + x), with log|1 + x| = log1p(2 Re x + |x|**2) / 2 exact for small x."""
    return complex(
        0.5 * math.log1p(2.0 * x.real + (x.real * x.real + x.imag * x.imag)),
        cmath.phase(1.0 + x),
    )


def _sqrt_right(y: np.ndarray) -> np.ndarray:
    """Principal square root of 1 + iy."""
    p = np.sqrt(0.5 + 0.5 * np.sqrt(1.0 + y * y))
    return p + 0.5j * (y / p)


def _polar(z: np.ndarray):
    """(log|z|, arg z) of a complex array."""
    return np.log(np.abs(z)), np.arctan2(z.imag, z.real)


def _log_tail_bounds(spectrum: QuadFormSpectrum, z: float) -> tuple:
    """(log B+, log B-) of the Chernoff tail bounds (Chernoff 1952)

        B+ = e^(-tz) M(t) >= P(Z > z),   B- = e^(tz) M(-t) >= P(Z <= z),

    Markov's inequality on e^(tZ) and e^(-tZ), at the budget's t =
    1/(4 max|lam|), where every factor 1 - 2s lam of M(+-t) lies in
    [1/2, 3/2].  The budget's aliasing bound takes both at this t;
    total_error's bound on a miss starts here and climbs _chernoff_ladder.
    Logs, as B+- over- or underflow at long horizons.  The spectrum must
    keep an eigenvalue."""
    summary = spectrum._summary
    log_plus, log_minus = summary.log_mgf
    return -z * summary.t + log_plus, z * summary.t + log_minus


def _chernoff_ladder(
    spectrum: QuadFormSpectrum, z: float, sign: int, log_target: float
) -> tuple:
    """(log B, s/t): the smallest Chernoff bound B = e^(f(s)) on P(Z > z)
    (sign 1) or P(Z <= z) (sign -1), f(s) = -sign s z + log M(sign s), found
    on the doubling ladder s = t, 2t, 4t, ... from the t of _log_tail_bounds.

    Range.  The ladder ends at S = min(_LADDER_TOP t, 1/(4 lam_edge)), the
    last rung S itself, where lam_edge = max_j sign lam_j is the extreme
    eigenvalue on the bounded side (S = _LADDER_TOP t if there is none).
    For 0 < s <= S every factor 1 - 2 sign s lam_j of M(sign s) is at least
    1/2 (sign lam_j <= lam_edge), and at most 1 + 2 S max|lam| <= 9, so the
    determinant stays positive and each factor within a factor 9 of 1, as
    _log_mgf needs.  The optimum s* of f often lies past t (Chernoff 1952):
    where max|lam| sits on the other side, S > t.

    Stops.  At the first rung whose bound is within the target, at the
    first rung whose bound rises (f is convex, as a log moment generating
    function plus a linear term, so it rises from there on), and at S.
    Convexity gate: f(0) = log M(0) = 0, so f(s') >= (s'/s) f(s) for every
    s' >= s; once (S/s) f(s) > log_target no rung up to S can reach the
    target, and none is taken.  On short horizons this stops the walk at t.
    Each rung takes log M from the spectrum's _log_mgf."""
    summary = spectrum._summary
    t = summary.t
    best = _log_tail_bounds(spectrum, z)[(1 - sign) // 2]
    edge = summary.ends[1] if sign > 0 else -summary.ends[0]
    top = _LADDER_TOP * t if edge <= 0.0 else min(_LADDER_TOP * t, 0.25 / edge)
    s = best_s = t
    while best > log_target and s < top and (top / s) * best <= log_target:
        s = min(2.0 * s, top)
        log_mgf = spectrum._log_mgf(sign * s)
        if log_mgf is None:
            break
        f = log_mgf - sign * s * z
        if f >= best:
            break
        best, best_s = f, s
    return best, best_s / t


def accuracy_budget(
    spectrum: QuadFormSpectrum, z: float, target: float = 1e-6
) -> AccuracyBudget:
    """Choose grid step and term count so resolution + truncation error <= target.

    The Chernoff parameter t = 1/(4 max|lam|) keeps every factor 1 - 2*s*lam
    positive over s in [-t, t].  The grid step delta splits half the target
    into the resolution (aliasing) term: with L = 2*pi/delta, the series on
    that grid errs by the sum over k >= 1 of +-(P(Z <= z - kL) -
    P(Z > z + kL)) (Davies 1973), and each difference is at most the larger
    of _log_tail_bounds' B- and B+ at z times e^(-tkL).  With bound that
    larger one, grid_step = 2*pi*t / (log(bound) + log(2/target)).

    The term count N puts the other half into the truncation (Imhof 1961):
    with u_i = delta (i + 1/2), the series drops

        (1/pi) sum_(i>N) |phi(u_i)| / (i + 1/2)
            <= (1/pi) int_(N delta)^inf |phi(u)| du/u
            <= (2/(pi k)) prod_j (2 N delta |lam_j|)^(-1/2),

    the product over the k kept eigenvalues.  The first step holds as
    |phi(u)|/u decreases in u and delta |phi(u_i)|/u_i is at most its
    integral over [u_i - delta, u_i]; the second as each kept factor
    (1 + 4 u^2 lam^2)^(-1/4) <= (2u|lam|)^(-1/2) and each dropped one is at
    most 1.  Setting the bound to target/2 gives

        N = ceil((pi k target / 4)^(-2/k) / (2 delta G)),

    G the geometric mean of the kept |lam|, which is at least their
    minimum.  The spectrum's extremes, G, kept order and log M(+-t) come
    from its eigenvalues, or, for a _KmsSpectrum, in O(1) without them (see
    _KmsSpectrum._summary), where G is replaced by its lower bound min |lam|:
    the same bound at a longer N.
    """
    _check_target(target)
    summary = spectrum._summary
    if summary.kept_order == 0:
        raise ConfigError(
            "spectrum has no nonzero eigenvalues; the statistic is degenerate "
            "and the error is determined by the priors alone"
        )
    k = summary.kept_order
    # the larger of the two bounds is always >= 1 (their product M(t) M(-t)
    # is >= 1 and does not depend on z), so the grid-step denominator below
    # is strictly positive.
    log_bound = max(_log_tail_bounds(spectrum, z))
    grid_step = 2.0 * math.pi * summary.t / (log_bound + math.log(2.0 / target))
    base = 1.0 / (2.0 * grid_step * summary.lambda_abs_gmean)
    n_terms = math.ceil(base * (math.pi / 4.0 * target * k) ** (-2.0 / k))
    try:
        chernoff_bound = math.exp(log_bound)
    except OverflowError:
        chernoff_bound = math.inf
    return AccuracyBudget(
        target=target,
        grid_step=grid_step,
        n_terms=n_terms,
        chernoff_bound=chernoff_bound,
        lambda_abs_max=summary.lambda_abs_max,
        lambda_abs_min=summary.lambda_abs_min,
        kept_order=k,
    )


def _direct_partial_sum(spectrum: QuadFormSpectrum, z: float, delta: float, i_last: int) -> float:
    """sum_(i=0)^(i_last) Im[phi(u_i) e^{-j z u_i}] / (i + 1/2), u_i = delta*(i+1/2)."""
    total = 0.0
    for start in range(0, i_last + 1, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, i_last + 1), dtype=float) + 0.5
        u = delta * idx
        logmag, phase = spectrum._log_phi(u)
        total += float(np.sum(np.exp(logmag) * np.sin(phase - z * u) / idx))
    return total


def _tail_series_coefficients(kept: np.ndarray, order: int):
    """Asymptotic expansion phi(u) ~ A * u^(-k/2) * sum_m g_m u^(-m).

    Per factor, (1 - 2j*lam*u)^(-1/2) = (-2j*lam)^(-1/2) u^(-1/2)
    * (1 - 1/(2j*lam*u))^(-1/2); the principal branch of each prefactor
    matches the log-polar phase convention because Re(1 - 2j*lam*u) = 1 > 0.
    The g_m come from convolving the per-factor binomial series.
    """
    prefactor = complex(1.0)
    g = np.zeros(order + 1, dtype=complex)
    g[0] = 1.0
    central = np.array([comb(2 * m, m) / 4.0**m for m in range(order + 1)])
    powers = np.arange(order + 1)
    for lam in kept:
        prefactor *= (-2j * lam) ** (-0.5)
        g = np.convolve(g, central * (1.0 / (2j * lam)) ** powers)[: order + 1]
    return prefactor, g


def _tail_sum(
    kept: np.ndarray,
    z: float,
    delta: float,
    i_first: int,
    i_last: int,
    tol: float,
) -> float:
    """Tail of the inversion series via the asymptotic expansion + power sums."""
    k = kept.size
    prefactor, g = _tail_series_coefficients(kept, _TAIL_MAX_ORDER)
    freq = z * delta
    per_term_tol = tol / (2.0 * (_TAIL_MAX_ORDER + 1))
    total = 0.0
    for m in range(_TAIL_MAX_ORDER + 1):
        sigma = 0.5 * k + m + 1.0
        coef = prefactor * g[m] * delta ** (-(0.5 * k + m))
        if coef == 0:
            continue
        p_sum = pinned_power_sum(
            sigma, i_first, i_last, freq, per_term_tol / abs(coef)
        )
        total += (coef * p_sum).imag
        if abs(coef) * abs(p_sum) < tol / 8.0:
            return float(total)
    raise NumericalError(
        f"tail expansion did not converge within {_TAIL_MAX_ORDER + 1} orders "
        f"(k={k}, delta={delta:g}, start={i_first})"
    )


def _head_len(abs_min: float, delta: float) -> int:
    """Where the tail may start: the expansion parameter 1/(2|lam| u) is <= 0.05."""
    return max(math.ceil(10.0 / (abs_min * delta)), _HEAD_MIN)


def _series_fallback(
    spectrum: QuadFormSpectrum, z: float, budget: AccuracyBudget, tol: float
) -> float:
    """The truncated series sum_{i=0}^{N} Im[...]/(i+1/2), N and the grid
    step from the budget, to within tol: summed directly where it ends
    before its tail could start (N <= min(_head_len, _HEAD_MAX)), else a
    direct head plus the asymptotic tail, or the head alone where a tail
    starting past _HEAD_MAX is negligible.  Only the tail reads the
    eigenvalues."""
    delta, n_terms = budget.grid_step, budget.n_terms
    head_len = _head_len(budget.lambda_abs_min, delta)
    if n_terms <= min(head_len, _HEAD_MAX):
        return _direct_partial_sum(spectrum, z, delta, n_terms)
    eigs, kept = spectrum.eigenvalues, spectrum.kept()
    if kept.size != eigs.size:
        # dropped eigenvalues are treated as exactly zero in the tail; make
        # sure they would indeed be invisible there
        drop_max = float(
            np.max(np.abs(eigs[np.abs(eigs) < DROP_TOLERANCE * np.max(np.abs(eigs))]))
        )
        u_max = delta * (n_terms + 0.5)
        if 2.0 * u_max * drop_max > 1e-9:
            raise NumericalError(
                "near-zero eigenvalues are not negligible over the tail range"
            )
    if head_len > _HEAD_MAX:
        head_len = _HEAD_MAX
        u_head = delta * (head_len + 0.5)
        logmag, _ = spectrum._log_phi(np.array([u_head]))
        tail_bound = math.exp(float(logmag[0])) * math.log(
            (n_terms + 1.5) / (head_len + 0.5)
        )
        if tail_bound > tol:
            raise NumericalError(
                "series tail is neither expandable nor negligible "
                f"(bound {tail_bound:g} vs tolerance {tol:g})"
            )
        return _direct_partial_sum(spectrum, z, delta, head_len)
    head = _direct_partial_sum(spectrum, z, delta, head_len - 1)
    tail = _tail_sum(kept, z, delta, head_len, n_terms, tol)
    return head + tail


def _cut_cdf(spectrum: QuadFormSpectrum, z: float, tol: float):
    """(P(Z <= z), its error bound <= tol) from the branch cuts of the moment
    generating function M(s) = prod_j (1 - 2 lam_j s)^(-1/2), or None (logged
    at DEBUG) where that cannot be certified.  k equal lam: a scaled chi2_k.

    M is analytic off the real half-lines past b_j = 1/(2 lam_j).  For z >= 0,
    close P(Z > z) = (1/2 pi i) int M(s) e^(-sz) ds/s, Re s = c in (0, b_(1)),
    to the right around [b_(1), inf), b_(1) < ... < b_(p) those of the p
    positive lam; across it M(x + i0) - M(x - i0) = (i^m - (-i)^m) |M(x)|,
    m the b_j below x (Imhof 1961; Rice 1980), so with b_(p+1) = inf

        P(Z > z) = (1/pi) sum_(m odd) (-1)^((m-1)/2) int_(b_(m))^(b_(m+1)) f,
        f(x) = e^(-xz) / (x sqrt|prod_j (1 - 2 lam_j x)|).

    z < 0 applies this to -Z.  Finite cut [c - h, c + h], x = c + h t:
    f dx = g(t) dt / sqrt(1 - t^2), the end factors cancelled, and N-point
    Gauss-Chebyshev is exact on T_0..T_(2N-1) and maps T_(2jN) to +-pi.
    With |g| <= M on the Bernstein ellipse E_r, |a_n| <= 2 M r^(-n)
    (Trefethen, ATAP, ch. 8 and 19): error <= 2 pi M r^(-2N) / (1 - r^(-2N)).
    E_r, of real half-axis A = h (r + 1/r) / 2, must clear 0 and the other
    b_j; on it |x| >= c - A, |e^(-xz)| <= e^(-z (c - A)) and |1 - 2 lam_j x| =
    2 |lam_j| |x - b_j| >= 2 |lam_j| (|b_j - c| - A), as the point of an
    ellipse nearest a point on its major axis is the vertex.

    Last cut (p odd), x = b + L s^2, b = b_(p), L = b + 1/z (b if z = 0):
    int_b^inf f = int_0^inf F ds, F = sqrt(2L / lam_p) e^(-xz) / (x sqrt|rest|),
    even and analytic for |Im s| < d = min_j d_j, d_j^2 = (b - b_j) / L over
    the other b_j and b_0 = 0.  For a < d, |x - b_j| >= L (sigma^2 + e_j^2),
    e_j = d_j - a, on |Im s| < a, so int |F(sigma + i eta)| d sigma <= M_a =
    pi sqrt(2L / lam_p) e^(-z (b - L a^2)) / (L e_0 prod_j sqrt(2 |lam_j| L) e_j),
    and the trapezoid rule of step tau errs by at most M_a / (e^(2 pi a/tau) - 1)
    on the half-line (Trefethen and Weideman, SIAM Review 2014, thm 5.1).
    Stopping at S = N tau drops at most C int_S^inf e^(-zL s^2) s^(-k-1) ds,
    C = sqrt(2L / lam_p) e^(-zb) / (L prod_j sqrt(2 |lam_j| L)), as x - b_j >= L s^2.

    Each cut takes the fewest nodes, 64 doubling to _CUT_NODES_MAX, that meet
    its share of pi * tol; float64 adds at most (N + 2k + 8) eps sum |terms|.
    Repeated but unequal lam, and kept orders above _CUT_MAX_ORDER (the tail
    serves k <= 13 down to a 1e-10 target), are left to the series.
    """
    kept, k = spectrum.kept(), spectrum.eigenvalues.size
    if kept.size == k and np.all(kept == kept[0]):
        x = z / (2.0 * float(kept[0]))
        if kept[0] > 0.0:
            return (float(gammainc(0.5 * k, x)) if z > 0.0 else 0.0), 0.0
        return (float(gammaincc(0.5 * k, x)) if z < 0.0 else 1.0), 0.0
    if kept.size != k or k > _CUT_MAX_ORDER:
        logger.debug("kept order %d of %d: series fallback", kept.size, k)
        return None
    sign = 1.0 if z >= 0.0 else -1.0
    y, lam = sign * z, np.sort(sign * kept)[::-1]  # positive lam first: b ascending
    cuts, p = 0.5 / lam, int(np.sum(lam > 0.0))
    pieces = [[i, i + 1] for i in range(0, p - 1, 2)] + [[p - 1]] * (p % 2)
    share = math.pi * tol / (2.0 * max(len(pieces), 1))
    upper = bound = 0.0
    for parity, ends in enumerate(pieces):
        rest = np.ones(k, dtype=bool)
        rest[ends] = False
        sing, coef = np.append(cuts[rest], 0.0), 2.0 * np.abs(lam[rest])
        rule = _finite_cut_rule if len(ends) == 2 else _semi_infinite_rule
        err, x, weight = rule(lam[ends], cuts[ends], y, sing, coef, share)
        if x is None:
            logger.debug("cut %d bound %g above %g: series fallback", ends[0], err, share)
            return None
        rest_prod = np.prod(1.0 - np.multiply.outer(2.0 * lam[rest], x), axis=0)
        terms = weight * np.exp(-y * x) / (x * np.sqrt(np.abs(rest_prod)))
        upper += (-1.0) ** parity * float(np.sum(terms))
        bound += err + (x.size + 2 * k + 8) * _EPS * float(np.sum(np.abs(terms)))
    if bound > math.pi * tol:
        logger.debug("cut bound %g above %g: series fallback", bound / math.pi, tol)
        return None
    upper /= math.pi
    return (1.0 - upper if z >= 0.0 else upper), bound / math.pi


def _finite_cut_rule(lam, ends, y, sing, coef, tol):
    """(error bound, Gauss-Chebyshev nodes, weight) on one finite cut (see
    _cut_cdf); no nodes if _CUT_NODES_MAX of them cannot meet tol."""
    c, h = 0.5 * (ends[0] + ends[1]), 0.5 * (ends[1] - ends[0])
    reach = float(np.min(np.abs(sing - c))) / h if h > 0.0 else 1.0
    if not reach > 1.0:
        return math.inf, None, None
    log_r = math.acosh(reach) * _FRACTIONS  # E_r must not reach the nearest singularity
    half_axis = h * np.cosh(log_r)
    gaps = coef[:, None] * (np.abs(sing[:-1, None] - c) - half_axis)
    log_m = -y * (c - half_axis) - np.log(2.0 * (c - half_axis)) - 0.5 * (
        math.log(lam[0] * lam[1]) + np.sum(np.log(gaps), axis=0)
    )
    for n in _NODE_COUNTS:
        log_err = log_m - 2 * n * log_r - np.log(-np.expm1(-2 * n * log_r))
        err = 2.0 * math.pi * math.exp(min(float(np.min(log_err)), 0.0))
        if err <= tol:
            x = c + h * np.cos((np.arange(n) + 0.5) * (math.pi / n))
            return err, x, math.pi / (2.0 * n * math.sqrt(lam[0] * lam[1]))
    return err, None, None


def _semi_infinite_rule(lam, ends, y, sing, coef, tol):
    """(error bound, trapezoid nodes, weights) on the last cut (see _cut_cdf);
    no nodes if _CUT_NODES_MAX of them cannot meet tol."""
    b, k = float(ends[0]), coef.size + 1
    scale = b + 1.0 / y if y > 0.0 else b
    root = math.sqrt(2.0 * scale / lam[0])
    log_c = math.log(root / scale) - y * b - 0.5 * float(np.sum(np.log(coef * scale)))
    yl = y * scale
    for span in _TRAPEZOID_SPANS:
        log_tail = log_c - yl * span * span - k * math.log(span) - math.log(k)
        if yl > 0.0:
            log_tail += min(math.log(k / (2.0 * yl)) - 2.0 * math.log(span), 0.0)
        if log_tail <= math.log(0.5 * tol):
            break
    else:
        return math.exp(log_tail), None, None
    d = np.sqrt((b - sing) / scale)
    a = float(np.min(d)) * _FRACTIONS
    log_m = log_c + yl * a * a + math.log(math.pi) - np.sum(np.log(d[:, None] - a), axis=0)
    for n in _NODE_COUNTS:
        ratio = 2.0 * math.pi * a * n / span  # log(e^ratio - 1) without overflow
        log_err = log_m - ratio - np.log(-np.expm1(-ratio))
        err = math.exp(min(float(np.min(log_err)), 0.0)) + math.exp(log_tail)
        if err <= tol:
            s = (span / n) * np.arange(n + 1)
            weight = np.full(n + 1, root * span / n)
            weight[0] *= 0.5
            return err, b + scale * s * s, weight
    return err, None, None


def cdf_quadratic_form_raw(
    spectrum: QuadFormSpectrum, z: float, budget: AccuracyBudget
) -> float:
    """Unclamped value of the CDF of Z at z; may leave [0, 1] by up to the
    accuracy target (:func:`total_error` clamps it).

    Series of up to _DIRECT_CAP terms are summed directly.  Longer ones take
    the branch-cut integrals where they can be certified (:func:`_cut_cdf`),
    else :func:`_series_fallback`.  Direct sum against the cuts (best of 3
    per call, 2-vCPU Xeon; certify-short's reports and the surface grid at
    kf 1-16, 694 series under the cap, 93 of them refused by the cuts): kf 3
    (median 28,976 terms) 0.97 vs 0.011 ms; kf 4 (4,640 terms) 0.18 vs
    0.15 ms, the direct sum faster on 10 of 47; from kf 5 on it wins
    (1,267 terms: 0.08 vs 0.22 ms; kf 10, 100 terms: 0.03 vs 0.34 ms).
    """
    tol = _EVAL_SLACK * budget.target
    delta, n_terms = budget.grid_step, budget.n_terms
    if n_terms <= _DIRECT_CAP:
        series = _direct_partial_sum(spectrum, z, delta, n_terms)
    else:
        cut = _cut_cdf(spectrum, z, tol)
        if cut is not None:
            return cut[0]
        series = _series_fallback(spectrum, z, budget, tol * math.pi)
    return 0.5 - series / math.pi


@dataclass(frozen=True)
class ErrorReport:
    """Total a-priori error probability and its per-conclusion components.

    The probabilities follow from prior1 and the raw CDFs P(Z <= threshold | h)
    clamped to [0, 1]; an excursion is logged at DEBUG level.
    miss_given_1 is the probability a class-1 series is called 2;
    miss_given_2 the probability a class-2 series is called 1.  Each is
    within the budget's target of the truth: an inverted CDF, or, where the
    Chernoff bound on that miss is at most the target, the bound itself
    (total_error then inverts nothing for it).  When the two
    classes coincide the statistic is identically zero and the report is the
    degenerate prior-only result (budgets are None in that case).
    """

    total_error: float = field(init=False)
    miss_given_1: float = field(init=False)
    miss_given_2: float = field(init=False)
    prior1: float
    prior2: float = field(init=False)
    threshold: float
    budget_given_1: "AccuracyBudget | None"
    budget_given_2: "AccuracyBudget | None"
    raw_cdf_given_1: float
    raw_cdf_given_2: float
    degenerate: bool = field(init=False)

    def __post_init__(self):
        raw1, raw2 = self.raw_cdf_given_1, self.raw_cdf_given_2
        cdf1, cdf2 = (min(max(raw, 0.0), 1.0) for raw in (raw1, raw2))
        if (cdf1, cdf2) != (raw1, raw2):
            logger.debug(
                "cdf excursion clamped: raw=(%r, %r) at z=%r", raw1, raw2, self.threshold
            )
        p1, p2 = self.prior1, 1.0 - self.prior1
        degenerate = self.budget_given_1 is None and self.budget_given_2 is None
        object.__setattr__(self, "total_error", p2 * cdf2 + p1 * (1.0 - cdf1))
        object.__setattr__(self, "miss_given_1", 1.0 - cdf1)
        object.__setattr__(self, "miss_given_2", cdf2)
        object.__setattr__(self, "prior2", p2)
        object.__setattr__(self, "degenerate", degenerate)


def total_error(scenario: Scenario, target: float = 1e-6) -> ErrorReport:
    """Exact a-priori probability that the MAP decision is wrong.

    Combines the two conditional CDF evaluations at the decision threshold:
    prior2 * Pr(decide 1 | class 2) + prior1 * Pr(decide 2 | class 1).
    Identical classes short-circuit: the decision is then the larger prior
    and the error is exactly min(prior1, prior2).  The raw CDFs may leave
    [0, 1] by up to the target; :class:`ErrorReport` clamps them.  A miss
    whose Chernoff bound is within the target is reported as that bound,
    with no inversion (see _raw_cdf and _chernoff_ladder).
    """
    _check_target(target)
    stats1, stats2 = scenario.stats1(), scenario.stats2()
    p1, kf = scenario.sampling.prior1, scenario.sampling.horizon

    spectrum1, spectrum2 = _spectra(stats1, stats2, kf)
    z = threshold(DetectorSpec(stats1, stats2, p1, kf), kf)

    if spectrum1._summary.kept_order == 0 or spectrum2._summary.kept_order == 0:
        # degenerate pair: the statistic is identically zero
        cdf = 1.0 if 0.0 <= z else 0.0
        return ErrorReport(p1, z, None, None, cdf, cdf)

    budget1 = accuracy_budget(spectrum1, z, target)
    budget2 = accuracy_budget(spectrum2, z, target)
    raw1 = _raw_cdf(spectrum1, z, budget1, 1)
    raw2 = _raw_cdf(spectrum2, z, budget2, 2)
    return ErrorReport(p1, z, budget1, budget2, raw1, raw2)


def _raw_cdf(
    spectrum: QuadFormSpectrum, z: float, budget: AccuracyBudget, hypothesis: int
) -> float:
    """P(Z <= z) under hypothesis 1 or 2 for total_error.  Where the
    Chernoff bound B on that hypothesis's miss (P(Z > z) under 1, P(Z <= z)
    under 2; see _chernoff_ladder) is at most the target, the miss is
    reported as B and the CDF is not inverted: 0 <= miss <= B <= target
    meets the inversion's own accuracy contract."""
    sign = 1 if hypothesis == 1 else -1
    log_target = math.log(budget.target)
    log_miss, rung = _chernoff_ladder(spectrum, z, sign, log_target)
    if log_miss > log_target:
        return cdf_quadratic_form_raw(spectrum, z, budget)
    miss = math.exp(log_miss)
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "hypothesis %d: Chernoff bound %g at s = %g t on the miss (%g at t) is "
            "within the target %g; inversion skipped",
            hypothesis, miss, rung,
            math.exp(_log_tail_bounds(spectrum, z)[hypothesis - 1]), budget.target,
        )
    return 1.0 - miss if hypothesis == 1 else miss


def error_surface(
    scenario: Scenario,
    gain_ratios,
    mass_ratios,
    target: float = 1e-6,
) -> np.ndarray:
    """Sweep class 2 as a (gain, mass) ratio of class 1 and tabulate the error.

    Returns the total errors, shape (len(mass_ratios), len(gain_ratios)).
    The base scenario's class-1 parameters, noise, and sampling are held
    fixed; each grid cell rebuilds class 2 at the given ratios.  The (1, 1)
    cell makes the classes identical, so it returns min(prior1, prior2).
    """
    gain_ratios = np.asarray(list(gain_ratios), dtype=float)
    mass_ratios = np.asarray(list(mass_ratios), dtype=float)
    if np.any(gain_ratios <= 0) or np.any(mass_ratios <= 0):
        raise ConfigError("ratio grids must be strictly positive")
    base = scenario.to_dict()
    errors = np.empty((mass_ratios.size, gain_ratios.size))
    for i, mr in enumerate(mass_ratios):
        for j, gr in enumerate(gain_ratios):
            cell = dict(
                base,
                m2=base["m1"] * float(mr),
                k2=base["k1"] * float(gr),
            )
            errors[i, j] = total_error(Scenario.from_dict(cell), target).total_error
    return errors
