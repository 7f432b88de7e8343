"""Special-function checks against independent oracles.

The Bessel oracles are adaptive quadrature of the integral representation
K_n(x) = integral_0^inf exp(-x cosh t) cosh(n t) dt and mpmath; Lambert-W
is checked through its defining identity w * e^w = x.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ehuav.errors import ConfigError
from ehuav import specfun
from ehuav.specfun import (
    bessel_k_int,
    bessel_k_orders,
    gamma_int,
    lambert_w0,
)


def bessel_k_quadrature(n: int, x: float) -> float:
    """Independent K_n(x) via adaptive quadrature of the integral form."""
    t_up = math.log(2.0 * 760.0 / x) + 1.0
    for _ in range(4):  # fixed point of x*cosh(t)/2 ~ 760 + n*t (integrand dead beyond)
        t_up = math.log(2.0 * (760.0 + n * t_up) / x)
    t_up = max(t_up, 1.0)

    def f(t: float) -> float:
        log_f = -x * math.cosh(t) + (math.log(math.cosh(n * t)) if n else 0.0)
        return math.exp(log_f) if log_f > -745.0 else 0.0

    t_peak = math.asinh(n / x) if n >= 1 else 0.0
    if 0.0 < t_peak < t_up:
        a, _ = integrate.quad(f, 0.0, t_peak, epsabs=0.0, epsrel=1e-13, limit=400)
        b, _ = integrate.quad(f, t_peak, t_up, epsabs=0.0, epsrel=1e-13, limit=400)
        return a + b
    val, _ = integrate.quad(f, 0.0, t_up, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def chebyshev_coefficients(order: int) -> tuple[float, ...]:
    """The first 25 Chebyshev coefficients of e^x sqrt(x) K_order(x) in
    s = 4/x - 1, constant term first: interpolation at 48 Chebyshev nodes
    at 40 digits, each coefficient rounded once to a double."""
    nodes = 48
    with mp.workdps(40):
        angles = [mp.pi * (i + mp.mpf(0.5)) / nodes for i in range(nodes)]
        values = []
        for angle in angles:
            x = 4 / (mp.cos(angle) + 1)
            values.append(mp.exp(x) * mp.sqrt(x) * mp.besselk(order, x))
        coefficients = [
            2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / nodes
            for k in range(25)
        ]
        coefficients[0] /= 2
        return tuple(float(c) for c in coefficients)


class TestGammaInt:
    def test_small_values(self):
        assert gamma_int(1) == 1.0
        assert gamma_int(5) == 24.0
        assert gamma_int(13) == 479001600.0  # direct factorial product

    def test_factorial_product_oracle(self):
        prod = 1.0
        for j in range(1, 12):
            prod *= j
        assert gamma_int(13) == prod * 12

    def test_out_of_range(self):
        with pytest.raises(ConfigError, match="170"):
            gamma_int(171)
        with pytest.raises(ConfigError):
            gamma_int(0)
        with pytest.raises(ConfigError):
            gamma_int(2.5)

    @given(st.integers(min_value=1, max_value=169))
    def test_recurrence(self, n):
        assert gamma_int(n + 1) == pytest.approx(n * gamma_int(n), rel=1e-13)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gamma_int(math.nan), "integer argument, got nan"),
        (lambda: gamma_int(math.inf), "integer argument, got inf"),
        (lambda: bessel_k_orders(math.nan, 1.0), "integer order, got nan"),
        (lambda: lambert_w0(math.nan), "finite x >= -1/e .* got nan"),
        (lambda: lambert_w0(math.inf), "finite x >= -1/e .* got inf"),
    ],
    ids=["gamma_int-nan", "gamma_int-inf", "bessel_k_orders-nan", "lambert_w0-nan",
         "lambert_w0-inf"],
)
def test_non_finite_arguments_are_config_errors(call, message):
    # They raised ValueError and OverflowError, and lambert_w0 ran its 200
    # Halley steps before a NumericError.
    with pytest.raises(ConfigError, match=message):
        call()


class TestBesselK:
    def test_oracle_examples(self):
        # Frozen from the quadrature oracle above.
        assert bessel_k_int(0, 1.0) == pytest.approx(0.421024438240708, rel=1e-9)
        assert bessel_k_int(1, 1.0) == pytest.approx(0.601907230197235, rel=1e-9)

    @pytest.mark.parametrize("order", range(0, 25))
    def test_quadrature_agreement(self, order):
        for x in np.geomspace(0.01, 50.0, 17):
            oracle = bessel_k_quadrature(order, float(x))
            assert bessel_k_int(order, float(x)) == pytest.approx(oracle, rel=1e-9)

    def test_crossover_region(self):
        # The series/Chebyshev handover sits at x = 2.
        for x in np.linspace(1.8, 2.2, 21):
            for order in (0, 1, 7):
                oracle = bessel_k_quadrature(order, float(x))
                assert bessel_k_int(order, float(x)) == pytest.approx(oracle, rel=1e-9)

    def test_strictly_decreasing_in_x(self):
        for order in (0, 1, 3, 12, 24):
            values = [bessel_k_int(order, float(x)) for x in np.geomspace(0.05, 40, 60)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(ConfigError, match="symmetry"):
            bessel_k_int(-3, 1.0)

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ConfigError):
            bessel_k_int(0, 0.0)
        with pytest.raises(ConfigError):
            bessel_k_int(2, -1.0)

    def test_orders_list_matches_single_orders_bitwise(self):
        # Each entry is what a separate run of the upward recurrence to that
        # order gives (the loop bessel_k_int ran per call before it became
        # the last entry of the list), saturation included.
        def single_order(order, x):
            k01 = specfun._bessel_k01_series if x <= 2.0 else specfun._bessel_k01_chebyshev
            k_prev, k_cur = k01(x)
            if order == 0:
                return k_prev
            for v in range(1, order):
                k_prev, k_cur = k_cur, k_prev + (2.0 * v / x) * k_cur
                if math.isinf(k_cur):
                    return sys.float_info.max
            return k_cur

        xs = (1e-12, 1e-3, 0.5, 1.999, 2.0, 2.001, 7.5, 60.0, 700.0)
        for x in xs:
            orders = bessel_k_orders(30, x)
            assert len(orders) == 31
            for order in range(31):
                assert orders[order] == single_order(order, x) == bessel_k_int(order, x)
                assert bessel_k_orders(order, x) == orders[: order + 1]
        saturated = bessel_k_orders(30, 1e-12)
        first = saturated.index(sys.float_info.max)
        assert 1 < first < 30
        assert saturated[first:] == [sys.float_info.max] * (31 - first)

    def test_k0_k1_against_mpmath_beyond_2(self):
        # 1e-15 relative where K is a normal double (x below about 705);
        # past that exp(-x) is subnormal and the error is its rounding.
        xs = [math.nextafter(2.0, 3.0), 745.0]
        xs += [float(x) for x in np.geomspace(2.0001, 745.0, 300)]
        xs += [float(x) for x in np.linspace(2.0002, 744.9, 300)]
        for x in xs:
            for order, value in enumerate(bessel_k_orders(1, x)):
                oracle = float(mp.besselk(order, x))
                if oracle >= sys.float_info.min:
                    assert abs(value - oracle) <= 1e-15 * oracle, (order, x)
                else:
                    assert abs(value - oracle) <= 2.0 ** -1073, (order, x)

    def test_chebyshev_coefficients_regenerate_from_mpmath(self):
        assert specfun._K0_CHEBYSHEV == chebyshev_coefficients(0)
        assert specfun._K1_CHEBYSHEV == chebyshev_coefficients(1)

    def test_overflow_saturates(self):
        value = bessel_k_int(24, 1e-12)
        assert value == pytest.approx(1.7976931348623157e308) or math.isfinite(value)


class TestLambertW0:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-8)

    def test_below_branch_rejected(self):
        with pytest.raises(ConfigError, match="-1/e"):
            lambert_w0(-0.3678794411714425)  # one step below -1/e

    @settings(max_examples=300)
    @given(st.floats(min_value=-math.exp(-1.0), max_value=10.0,
                     allow_nan=False, allow_infinity=False))
    def test_defining_identity(self, x):
        w = lambert_w0(x)
        assert w >= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12

    def test_identity_on_dense_grid(self):
        for x in np.linspace(-math.exp(-1.0), 10.0, 4001):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - float(x)) <= 1e-12

