"""Self-contained special functions used by the closed-form outage analysis.

Three functions are needed: the gamma function at positive integers, the
modified Bessel function of the second kind at integer order (singly, or
every order up to n in one pass), and the principal branch of the Lambert-W
function.  All are pure Python with an explicit error budget; the test suite
checks them against independent quadrature / defining-identity oracles.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, NumericError

_EULER_GAMMA = 0.5772156649015328606
_LAMBERT_BRANCH_X = -math.exp(-1.0)  # -1/e, the left edge of W0's domain
GAMMA_INT_MAX = 170  # largest n for which gamma_int(n) is computed
_MAX_ITER = 200  # cap on every series, continued-fraction and Halley loop
_REL_TOL = 1e-12  # stopping tolerance of those loops unless a caller asks for less


def gamma_int(n: int) -> float:
    """Gamma(n) = (n-1)! for integer n in [1, 170].

    The upper bound guards against double-precision overflow of the
    factorial; exact for small n, correctly rounded beyond that.
    """
    if n != int(n):
        raise DomainError(f"gamma_int requires an integer argument, got {n!r}")
    n = int(n)
    if n < 1 or n > GAMMA_INT_MAX:
        raise DomainError(f"gamma_int requires 1 <= n <= {GAMMA_INT_MAX}, got {n}")
    return float(math.factorial(n - 1))


def _bessel_k01_series(x: float, rel_tol: float) -> tuple[float, float]:
    """K0 and K1 for 0 < x <= 2 via the ascending series.

    K0 from its log-series; K1 recovered from the Wronskian
    I0(x)*K1(x) + I1(x)*K0(x) = 1/x, which avoids the digamma series and
    costs at most a factor ~1.6 of cancellation on this interval.
    """
    t = 0.25 * x * x
    log_half_x = math.log(0.5 * x)

    i0 = 1.0
    i1_sum = 1.0  # I1 = (x/2) * sum_k t^k / (k! (k+1)!)
    k0_sum = 0.0  # sum_{k>=1} H_k t^k / (k!)^2
    term_i0 = 1.0
    term_i1 = 1.0
    harmonic = 0.0
    for k in range(1, _MAX_ITER):
        term_i0 *= t / (k * k)
        term_i1 *= t / (k * (k + 1))
        harmonic += 1.0 / k
        i0 += term_i0
        i1_sum += term_i1
        k0_sum += harmonic * term_i0
        if term_i0 < rel_tol * i0 and term_i1 < rel_tol * i1_sum:
            break
    else:
        raise NumericError(f"bessel K series did not converge at x={x}")

    i1 = 0.5 * x * i1_sum
    k0 = -(log_half_x + _EULER_GAMMA) * i0 + k0_sum
    k1 = (1.0 / x - i1 * k0) / i0
    return k0, k1


def _bessel_k01_cf(x: float, rel_tol: float) -> tuple[float, float]:
    """K0 and K1 for x > 2 via the Thompson-Barnett continued fraction.

    Evaluates the steepest-descent form K0 = sqrt(pi/2x) e^{-x} / S where S
    comes from the CF2 continued fraction (order-0 specialisation), then K1
    from the companion relation.  Converges in a few dozen terms for x >= 2
    and is uniformly accurate where the ascending series loses digits.
    """
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d
    delh = d
    q1 = 0.0
    q2 = 1.0
    a1 = 0.25  # 1/4 - nu^2 at nu = 0
    q = a1
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER + 1):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1 = q2
        q2 = qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < rel_tol:
            break
    else:
        raise NumericError(f"bessel K continued fraction stalled at x={x}")

    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    k1 = k0 * (x + 0.5 - a1 * h) / x
    return k0, k1


def bessel_k_orders(n: int, x: float, rel_tol: float = _REL_TOL) -> list[float]:
    """``[K_0(x), K_1(x), ..., K_n(x)]`` from one K0/K1 evaluation, integer n >= 0.

    Higher orders come from the upward recurrence K_{v+1} = K_{v-1} +
    (2v/x) K_v, which is stable because K grows with order.  Where it
    overflows (tiny x at high order) that entry and every higher one
    saturate at the largest finite double rather than raising.  ``rel_tol``
    is the stopping tolerance of the K0/K1 evaluation.
    """
    if n != int(n):
        raise DomainError(f"Bessel K requires an integer order, got {n!r}")
    n = int(n)
    if n < 0:
        raise DomainError(
            "Bessel K requires order >= 0; fold negative orders with the "
            f"K_-n = K_n symmetry first (got {n})"
        )
    if not x > 0.0:
        raise DomainError(f"Bessel K requires x > 0, got {x}")

    if x <= 2.0:
        k_prev, k_cur = _bessel_k01_series(x, rel_tol)
    else:
        k_prev, k_cur = _bessel_k01_cf(x, rel_tol)
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

    Relative error <= 1e-9 against the integral representation
    integral_0^inf exp(-x cosh t) cosh(n t) dt on the tested range.
    Negative orders are rejected; callers should fold them with the
    K_{-n} = K_n symmetry first.  This is the last entry of
    :func:`bessel_k_orders`, so it saturates at high order the same way.
    """
    return bessel_k_orders(order, x)[-1]


def _lambert_branch_series(p: float) -> float:
    """W0 near the branch point: series in p = sqrt(2(e*x + 1))."""
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert-W function: w >= -1 with w*e^w = x.

    Defined for x >= -1/e.  Halley iteration from a branch-aware initial
    guess; residual |w e^w - x| <= 1e-12 * max(1, |x|).
    """
    if x < _LAMBERT_BRANCH_X:
        raise DomainError(
            f"lambert_w0 requires x >= -1/e ~ {_LAMBERT_BRANCH_X:.17g}, got {x}"
        )

    s = math.e * x + 1.0
    if s < 0.0:  # only float round-off below the branch point can land here
        s = 0.0
    p = math.sqrt(2.0 * s)
    if p < 1e-3:
        # Within O(p^5) ~ 1e-15 of the true root; Halley's denominator
        # degenerates this close to w = -1, so return the series value.
        return _lambert_branch_series(p)

    w = _lambert_branch_series(p) if x < -0.25 else math.log1p(x)
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
