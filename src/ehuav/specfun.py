"""Self-contained special functions used by the closed-form outage analysis.

Three functions are needed: the gamma function at positive integers, the
modified Bessel function of the second kind at integer order (singly, or
every order up to n in one pass), and the principal branch of the Lambert-W
function.  All are pure Python with an explicit error budget, and K0/K1 at
a bounded cost; the test suite checks them against quadrature, mpmath and
defining-identity oracles.
"""

from __future__ import annotations

import math
import sys

from .errors import ConfigError, NumericError

_EULER_GAMMA = 0.5772156649015328606
_LAMBERT_BRANCH_X = -math.exp(-1.0)  # -1/e, the left edge of W0's domain
GAMMA_INT_MAX = 170  # largest n for which gamma_int(n) is computed
_MAX_ITER = 200  # cap on the Halley iteration of lambert_w0
_REL_TOL = 1e-12  # its stopping tolerance


def gamma_int(n: int) -> float:
    """Gamma(n) = (n-1)! for integer n in [1, 170].

    The upper bound guards against double-precision overflow of the
    factorial; exact for small n, correctly rounded beyond that.
    """
    if n % 1 != 0:  # NaN and inf leave a NaN remainder
        raise ConfigError(f"gamma_int requires an integer argument, got {n!r}")
    n = int(n)
    if n < 1 or n > GAMMA_INT_MAX:
        raise ConfigError(f"gamma_int requires 1 <= n <= {GAMMA_INT_MAX}, got {n}")
    return float(math.factorial(n - 1))


def _bessel_k01_series(x: float) -> tuple[float, float]:
    """K0 and K1 for 0 < x <= 2 via the ascending series, to full precision.

    K0 from its log-series; K1 recovered from the Wronskian
    I0(x)*K1(x) + I1(x)*K0(x) = 1/x, which avoids the digamma series and
    costs at most a factor ~1.6 of cancellation on this interval.  With
    (x/2)^2 <= 1 the terms fall below 1e-16 of the sums within 12 steps.
    """
    t = 0.25 * x * x
    log_half_x = math.log(0.5 * x)

    i0 = 1.0
    i1_sum = 1.0  # I1 = (x/2) * sum_k t^k / (k! (k+1)!)
    k0_sum = 0.0  # sum_{k>=1} H_k t^k / (k!)^2
    term_i0 = 1.0
    term_i1 = 1.0
    harmonic = 0.0
    k = 0
    while term_i0 >= 1e-16 * i0 or term_i1 >= 1e-16 * i1_sum:
        k += 1
        term_i0 *= t / (k * k)
        term_i1 *= t / (k * (k + 1))
        harmonic += 1.0 / k
        i0 += term_i0
        i1_sum += term_i1
        k0_sum += harmonic * term_i0

    i1 = 0.5 * x * i1_sum
    k0 = -(log_half_x + _EULER_GAMMA) * i0 + k0_sum
    k1 = (1.0 / x - i1 * k0) / i0
    return k0, k1


# Chebyshev coefficients of e^x sqrt(x) K0(x), e^x sqrt(x) K1(x) in s = 4/x - 1 on x > 2, the
# rest below 3e-18 of either; tests/test_specfun.py regenerates them from mpmath.
_K0_CHEBYSHEV = (
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533, -0.00012849549581627802,
    1.39498137188765e-05, -1.8317555227191195e-06, 2.766813639445015e-07, -4.660489897687948e-08,
    8.574034017414225e-09, -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12, -2.9800969231481784e-13,
    8.032890775068375e-14, -2.2275133267462965e-14, 6.340076476276646e-15, -1.848593377920907e-15,
    5.5120559994043335e-16, -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    5.3004337711773354e-18,
)
_K1_CHEBYSHEV = (
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779, 0.00019521551847135162,
    -1.936197974166083e-05, 2.406484947837217e-06, -3.5019606030878126e-07, 5.7410841254500495e-08,
    -1.0345762465678097e-08, 2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12, 3.348419666052243e-13,
    -8.976705182010146e-14, 2.4771544242195988e-14, -7.0198370892147685e-15, 2.038703166239861e-15,
    -6.057047270643018e-16, 1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18,
)
_CHEBYSHEV_PAIRS = tuple(zip(_K0_CHEBYSHEV, _K1_CHEBYSHEV))[:0:-1]  # k = 24..1


def _bessel_k01_chebyshev(x: float) -> tuple[float, float]:
    """K0 and K1 for x > 2: 25 Chebyshev terms each, by Clenshaw's recurrence.

    Relative error below 5e-16 where K is a normal double (x below ~705),
    and within a unit of the last subnormal place beyond.
    """
    s = 4.0 / x - 1.0
    two_s = 2.0 * s
    b0 = b0_next = b1 = b1_next = 0.0
    for c0, c1 in _CHEBYSHEV_PAIRS:
        b0, b0_next = two_s * b0 - b0_next + c0, b0
        b1, b1_next = two_s * b1 - b1_next + c1, b1
    scale = math.exp(-x) / math.sqrt(x)
    k0 = (s * b0 - b0_next + _K0_CHEBYSHEV[0]) * scale
    k1 = (s * b1 - b1_next + _K1_CHEBYSHEV[0]) * scale
    return k0, k1


def _bessel_k01(x: float) -> tuple[float, float]:
    """K0 and K1 at x > 0, unchecked: the series up to x = 2, Chebyshev beyond."""
    return _bessel_k01_series(x) if x <= 2.0 else _bessel_k01_chebyshev(x)


def bessel_k_orders(n: int, x: float) -> list[float]:
    """``[K_0(x), K_1(x), ..., K_n(x)]`` from one K0/K1 evaluation, integer n >= 0.

    K0 and K1 come from the ascending series for x <= 2 (within 5e-15
    relative; it cancels near x = 2) and from fixed 25-term Chebyshev
    expansions of e^x sqrt(x) K0 and e^x sqrt(x) K1 in 4/x - 1 beyond
    (within 5e-16).  Higher orders come from the upward recurrence
    K_{v+1} = K_{v-1} + (2v/x) K_v, which is stable because K grows with
    order.  Where it overflows (tiny x at high order) that entry and every
    higher one saturate at the largest finite double rather than raising.
    """
    if n % 1 != 0:  # NaN and inf leave a NaN remainder
        raise ConfigError(f"Bessel K requires an integer order, got {n!r}")
    n = int(n)
    if n < 0:
        raise ConfigError(
            "Bessel K requires order >= 0; fold negative orders with the "
            f"K_-n = K_n symmetry first (got {n})"
        )
    if not x > 0.0:
        raise ConfigError(f"Bessel K requires x > 0, got {x}")

    k_prev, k_cur = _bessel_k01(x)
    if n == 0:
        return [k_prev]
    values = [k_prev, k_cur]
    for v in range(1, n):
        k_prev, k_cur = k_cur, k_prev + (2.0 * v / x) * k_cur
        if math.isinf(k_cur):
            values.extend([sys.float_info.max] * (n - v))
            break
        values.append(k_cur)
    return values


def bessel_k_int(order: int, x: float) -> float:
    """Modified Bessel function of the second kind K_n(x), integer n >= 0.

    The last entry of :func:`bessel_k_orders`, with its accuracy and its
    saturation at high order.  Negative orders are rejected; callers should
    fold them with the K_{-n} = K_n symmetry first.
    """
    return bessel_k_orders(order, x)[-1]


def _lambert_branch_offset(p: float) -> float:
    """1 + W0 near the branch point: series in p = sqrt(2(e*x + 1)).

    Summed without the -1, so it keeps the digits of a 1 + W0 far below 1.
    """
    return p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert-W function: w >= -1 with w*e^w = x.

    Defined for finite x >= -1/e; NaN and inf are a :class:`ConfigError`.
    Halley iteration from a branch-aware initial guess; residual
    |w e^w - x| <= 1e-12 * max(1, |x|).
    """
    if not _LAMBERT_BRANCH_X <= x < math.inf:  # NaN fails too
        raise ConfigError(
            f"lambert_w0 requires finite x >= -1/e ~ {_LAMBERT_BRANCH_X:.17g}, got {x}"
        )

    s = math.e * x + 1.0
    if s < 0.0:  # only float round-off below the branch point can land here
        s = 0.0
    p = math.sqrt(2.0 * s)
    if p < 1e-3:
        # Within O(p^5) ~ 1e-15 of the true root; Halley's denominator
        # degenerates this close to w = -1, so return the series value.
        return -1.0 + _lambert_branch_offset(p)

    w = -1.0 + _lambert_branch_offset(p) if x < -0.25 else math.log1p(x)
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= _REL_TOL * max(abs(w), 1e-12):
            break
    else:
        raise NumericError(f"lambert_w0 failed to converge for x={x}")

    residual = abs(w * math.exp(w) - x)
    if residual > _REL_TOL * max(1.0, abs(x)):
        raise NumericError(
            f"lambert_w0 residual {residual:.3e} exceeds tolerance at x={x}"
        )
    return w
