"""Rate, SNR-threshold, and outage checks.

The SNR threshold is checked against mpmath, and so is the finite sum
Q(n, y) that the conditional Monte-Carlo estimator puts in place of one
hop's draw, within its stated error bound, and so is each trial's value at
the exact 60-digit threshold; whole estimates are checked against a direct
recomputation of the same blocks with scipy's incomplete gamma.  Each block
is drawn column by column: a UAV with u_k = 0 draws nothing, a saturated
block stops drawing, and no (block, K) array is allocated.  The tail at 5e-7 that a
0/1 count of 1e5 trials misses is seen.  The closed-form outage is cross-checked
against the Monte-Carlo estimator and against mpmath, and the product-gamma CDF is pinned to its
single-term reduction, to sampled quantiles and to a high-precision mpmath
evaluation of the finite survival sum, each of its branches on its own as
well; it takes exactly the shapes the scenario rules take.  The three
branches' per-shape tables give the same bits cold, warm, evicted or too
short, the tabled series and survival sum match their untabled forms bit
for bit, and the series and survival bits are pinned by a hash.  The
closed form also meets the benchmark's reference outages to 1e-13.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gammaincc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehuav import outage, specfun
from ehuav.allocation import equal_bandwidth_taf
from ehuav.channel import LinkBudget
from ehuav.configio import load_config
from ehuav.errors import ConfigError, NumericError
from ehuav.experiments import link_budgets
from ehuav.outage import (
    Allocation,
    OutageEstimate,
    _rate,
    gamma_product_cdf,
    min_rate,
    outage_closed_form,
    outage_monte_carlo,
    snr_threshold,
)
from ehuav.specfun import bessel_k_int
from test_channel import default_config


def budget_from_losses(pl_h_db: float, pl_g_db: float, rho: float) -> LinkBudget:
    return LinkBudget(
        lam=10.0 ** (-pl_h_db / 10.0),
        mu=10.0 ** (-pl_g_db / 10.0),
        rho=rho,
    )


UNIT_BUDGET = LinkBudget(lam=1.0, mu=1.0, rho=1.0)  # x == u
ROOT = Path(__file__).resolve().parent.parent


def mp_bessel_k01(z):
    """K0(z), K1(z) by the ascending series, with the digits it cancels added."""
    with mp.workdps(mp.mp.dps + int(0.87 * float(z)) + 20):
        t = z * z / 4
        i0 = i1 = term0 = term1 = mp.mpf(1)
        k0_sum = harmonic = mp.mpf(0)
        tol = mp.mpf(10) ** (-mp.mp.dps)
        k = 0
        while harmonic * term0 >= tol * i0 or term1 >= tol * i1:
            k += 1
            term0 *= t / (k * k)
            term1 *= t / (k * (k + 1))
            harmonic += mp.mpf(1) / k
            i0 += term0
            i1 += term1
            k0_sum += harmonic * term0
        i1 *= z / 2
        k0 = -(mp.log(z / 2) + mp.euler) * i0 + k0_sum
        k1 = (1 / z - i1 * k0) / i0
    return +k0, +k1


def mp_gamma_product_cdf(u: float, n_h: int, n_g: int, dps: int):
    """1 - (2/Gamma(n_g)) sum_{m<n_h} u^((m+n_g)/2) K_{|n_g-m|}(2 sqrt u) / m! in mpmath.

    The difference cancels about -log10(F) digits, so ``dps`` must exceed
    the digits wanted by that much.
    """
    with mp.workdps(dps):
        u = mp.mpf(u)
        z = 2 * mp.sqrt(u)
        k = list(mp_bessel_k01(z))
        for v in range(1, max(n_g, n_h)):
            k.append(k[v - 1] + (2 * v / z) * k[v])
        survival = mp.fsum(
            u ** (mp.mpf(m + n_g) / 2) * k[abs(n_g - m)] / mp.factorial(m) for m in range(n_h)
        )
        return 1 - 2 * survival / mp.factorial(n_g - 1)


# The series and the survival sum as they were before their per-shape
# tables, kept verbatim as the reference the tabled forms must match bit for
# bit.


def untabled_survival_cdf(u: float, n_h: int, n_g: int) -> float:
    """F(u) = 1 - (2/Gamma(n_g)) sum_{m<n_h} u^((m+n_g)/2) K_{|n_g-m|}(2 sqrt u) / m!."""
    sqrt_u = math.sqrt(u)
    gamma_ng = specfun.gamma_int(n_g)
    bessel = specfun.bessel_k_orders(max(n_g, n_h - 1 - n_g), 2.0 * sqrt_u)
    terms = []
    factorial_m = 1.0
    try:
        for m in range(n_h):
            if m > 0:
                factorial_m *= m
            power = sqrt_u ** (m + n_g)
            denominator = factorial_m * gamma_ng
            if denominator < math.inf:
                term = 2.0 / denominator * power * bessel[abs(n_g - m)]
            else:  # m! * Gamma(n_g) past the double range (n_g near 170)
                term = 2.0 / factorial_m * (power / gamma_ng) * bessel[abs(n_g - m)]
            terms.append(term)
    except OverflowError:  # sqrt_u ** (m + n_g) past the double range
        raise NumericError(
            f"product-gamma survival sum overflows at u={u!r} "
            f"for shapes n_h={n_h}, n_g={n_g}"
        ) from None
    return 1.0 - math.fsum(terms)


def untabled_lower_tail_series(u: float, n_h: int, n_g: int) -> tuple[float, int]:
    """``(F(u), J)``: F = sum_{j>=n_h} T_j for shapes n_h <= n_g, and the
    last index J summed.

    T_j = (2/Gamma(n_g)) u^((j+n_g)/2) K_{|j-n_g|}(2 sqrt u) / j! = P(N = j),
    N Poisson with mean u/S, S ~ Gamma(n_g).  For j <= n_g,
    T_j = (2/Gamma(n_g)) u^j s_{n_g-j} / j! with s_v = u^(v/2) K_v(2 sqrt u)
    (s_{v+1} = u s_{v-1} + v s_v, below Gamma(v)/2), from logarithms where
    u^j or s_v/Gamma(n_g) would leave the normal doubles.  Above n_g,
    T_{j+1} = T_{j-1} u/(j(j+1)) + T_j (j-n_g)/(j+1) runs from J = n_g until
    a bound on what S_J = sum_{n_h<=j<=J} T_j leaves out is <= 2^-60 S_J:

    * Up to J = n_g + ceil(2u), F = S_J once A_J is, where
      A_J = u^r (J+1-r)! / (Gamma(n_g) (J+1)!) >= P(N > J), r = n_g - 1, is
      Markov's inequality on N (N-1) ... (N-r+1), of mean u^r Gamma(n_g-r)/Gamma(n_g).
    * From there (V = J - n_g >= 2u), F = S_J + R_J once B_J is.  The finite
      part of the ascending series of K_v (DLMF 10.31.1) telescopes over j > J
      to R_J = (u^n_g/Gamma(n_g)) sum_{k<V} (-u)^k (V-k)! / (k! (n_g+k) J!),
      whose terms alternate and at least halve (ratio u/((k+1)(V-k)) <= u/V);
      they are summed until one is below 1e-17 of the sum.  With
      w_J = u^J / (Gamma(n_g) J! V!), R_J leaves out that sum over k >= V (at
      most w_J/J) and the log and I_v part of each K_v: at most
      1.65 w_j (2.16 + |ln u| + ln(j-n_g+1)) in T_j (|psi(m)| <= 0.58 + ln m,
      u/(j-n_g+1) <= 1/2), halving from j = J+1, where w_{J+1} <= w_J/(2(J+1)).
      So B_J = w_J (1 + 1.65 (2.16 + |ln u| + ln(J+1)))/J bounds the rest; its
      factor after w_J falls with J, so B follows w by u/((J+1)(V+1)).
    """
    gamma_ng = specfun.gamma_int(n_g)
    k0, k1 = specfun.bessel_k_orders(1, 2.0 * math.sqrt(u))
    s_prev, s_cur = k0, math.sqrt(u) * k1  # s_0, s_1
    scaled = [s_prev, s_cur]  # scaled[v] = s_v for v <= n_g - n_h
    for v in range(1, n_g - n_h):
        s_prev, s_cur = s_cur, u * s_prev + v * s_cur
        scaled.append(s_cur)

    log_u = math.log(u)
    if n_g * log_u < 700.0 and 2.0 * min(scaled) / gamma_ng >= sys.float_info.min:

        def low_term(j: int) -> float:  # T_j for j <= n_g
            return 2.0 * scaled[n_g - j] / gamma_ng * (u ** j / math.factorial(j))

    else:  # u^j or s_v / Gamma(n_g) would leave the double range

        def low_term(j: int) -> float:
            log_t = math.log(2.0 * scaled[n_g - j]) + j * log_u
            return math.exp(log_t - math.lgamma(n_g) - math.lgamma(j + 1))

    total = math.fsum(low_term(j) for j in range(n_h, n_g + 1))
    t_prev, t_cur = low_term(n_g - 1), low_term(n_g)
    log_scale = n_g * log_u - math.lgamma(n_g)  # log(u^n_g / Gamma(n_g))
    cut_from = n_g + math.ceil(2.0 * u)
    # A_J never rises with J and S_J <= F <= 1, so where 2^60 A_J is above 2
    # at J = cut_from - 1 the Markov rule cannot stop the sum before cut_from.
    last = log_scale - log_u + math.lgamma(cut_from + 2 - n_g) - math.lgamma(cut_from + 1)
    if 2.0**60 * math.exp(last) > 2.0:
        for J in range(n_g, cut_from):
            t_prev, t_cur = t_cur, t_prev * u / (J * (J + 1)) + t_cur * (J - n_g) / (J + 1)
            total += t_cur
    else:
        tail = 2.0**61 * math.exp(log_scale - log_u - math.lgamma(n_g + 2))  # 2^60 A_J
        for J in range(n_g, cut_from):
            if tail <= total:
                return total, J
            t_prev, t_cur = t_cur, t_prev * u / (J * (J + 1)) + t_cur * (J - n_g) / (J + 1)
            total += t_cur
            tail *= (J + 3 - n_g) / (J + 2)

    J = cut_from
    log_w = log_scale + (J - n_g) * log_u - math.lgamma(J + 1) - math.lgamma(J + 1 - n_g)
    cut = 2.0**60 * math.exp(log_w) * (1.0 + 1.65 * (2.16 + abs(log_u) + math.log(J + 1))) / J
    while cut > total:  # 2^60 B_J
        t_prev, t_cur = t_cur, t_prev * u / (J * (J + 1)) + t_cur * (J - n_g) / (J + 1)
        total += t_cur
        J += 1
        cut *= u / (J * (J - n_g))

    a_k = math.exp(log_scale - math.lgamma(J + 1) + math.lgamma(J + 1 - n_g))
    remainder = 0.0
    for k in range(J - n_g):
        term = a_k / (n_g + k)
        remainder += term
        if abs(term) <= 1e-17 * remainder:
            break
        a_k *= -u / ((k + 1) * (J - n_g - k))
    return total + remainder, J



class TestAllocation:
    def test_basic(self):
        alloc = Allocation(tau=0.4, beta=(0.25, 0.75))
        assert alloc.K == 2
        assert alloc.nu_r == 0.0
        assert alloc.nu_c == 1.0

    def test_nu_c_derived_exactly(self):
        alloc = Allocation(tau=0.4, beta=(0.5, 0.5), nu_r=0.3)
        assert alloc.nu_c == 1.0 - 0.3

    def test_beta_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            Allocation(tau=0.4, beta=(0.25, 0.74))

    @pytest.mark.parametrize(
        "beta",
        [(1e308, 1e308, 0.2, 0.2), (1e308, 1e308, -1e308, -1e308, 1.0), (math.inf, -math.inf)],
    )
    def test_a_share_sum_that_math_fsum_cannot_take_is_a_config_error(self, beta):
        # math.fsum raises OverflowError on the first two and ValueError on the last.
        with pytest.raises(ConfigError, match=r"^beta must sum to 1 within 1e-12, got sum inf$"):
            Allocation(tau=0.5, beta=beta)

    def test_beta_bounds(self):
        with pytest.raises(ConfigError):
            Allocation(tau=0.4, beta=(0.0, 1.0))
        with pytest.raises(ConfigError):
            Allocation(tau=0.4, beta=(1.0, 0.0))

    def test_single_uav_gets_whole_band(self):
        alloc = Allocation(tau=0.5, beta=(1.0,))
        assert alloc.K == 1

    def test_tau_bounds(self):
        with pytest.raises(ConfigError):
            Allocation(tau=0.0, beta=(1.0,))
        with pytest.raises(ConfigError):
            Allocation(tau=1.0, beta=(1.0,))

    def test_nu_r_bounds(self):
        with pytest.raises(ConfigError):
            Allocation(tau=0.5, beta=(1.0,), nu_r=1.0)
        with pytest.raises(ConfigError):
            Allocation(tau=0.5, beta=(1.0,), nu_r=-0.1)


class TestOutageEstimate:
    def test_consistent(self):
        est = OutageEstimate(p_out=0.25, trials=1000)
        assert est.p_out == 0.25
        assert est.std_err == math.sqrt(0.25 * 0.75 / 1000)

    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            OutageEstimate(p_out=1.25, trials=1000)

    def test_degenerate_estimates(self):
        assert OutageEstimate(p_out=0.0, trials=10).std_err == 0.0
        assert OutageEstimate(p_out=1.0, trials=10).std_err == 0.0


def rate(beta, tau, gamma, nu_c):
    """The per-UAV rate of ``min_rate``: ``_rate`` on eff = beta (1 - tau)
    and c = tau gamma."""
    return _rate(np.asarray(beta) * (1.0 - tau), tau * np.asarray(gamma), nu_c)


class TestRate:
    def test_log_of_two(self):
        assert rate(1.0, 0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_zero_gain(self):
        assert rate(0.7, 0.3, 0.0, 0.9) == 0.0

    def test_quarter_log_three(self):
        # beta(1-tau) = 0.25 and tau*gamma/(beta(1-tau)) = 2.
        assert rate(0.5, 0.5, 1.0, 1.0) == pytest.approx(
            0.25 * math.log2(3.0), rel=1e-15
        )

    def test_vectorized(self):
        gam = np.array([0.5, 1.0, 2.0])
        out = rate(0.5, 0.5, gam, 1.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.25 * math.log2(3.0), rel=1e-15)

    def test_per_row_tau_and_nu_c(self):
        beta = np.array([[0.5, 0.5], [0.2, 0.8]])
        gam = np.array([[1.0, 4.0], [9.0, 0.3]])
        tau = np.array([[0.3], [0.6]])
        nu_c = np.array([[1.0], [0.8]])
        out = rate(beta, tau, gam, nu_c)
        for t in range(2):
            assert out[t].tolist() == rate(beta[t], float(tau[t, 0]), gam[t], nu_c[t, 0]).tolist()

    def test_strictly_increasing_in_gamma(self):
        values = rate(0.4, 0.6, np.geomspace(1e-6, 1e6, 60), 0.9)
        assert np.all(np.diff(values) > 0.0)

    def test_strictly_increasing_in_beta(self):
        betas = np.linspace(0.01, 1.0, 100)
        values = rate(betas, 0.4, 5.0, 0.9)
        assert np.all(np.diff(values) > 0.0)


class TestMinRate:
    def test_single_uav(self):
        alloc = Allocation(tau=0.5, beta=(1.0,))
        value, k = min_rate(alloc, np.array([1.0]))
        assert value == pytest.approx(0.5, rel=1e-15)
        assert k == 0

    def test_tie_takes_lowest_index(self):
        alloc = Allocation(tau=0.5, beta=(0.5, 0.5))
        _, k = min_rate(alloc, np.array([2.0, 2.0]))
        assert k == 0

    def test_weakest_of_three(self):
        alloc = Allocation(tau=0.5, beta=(1 / 3, 1 / 3, 1 / 3))
        value, k = min_rate(alloc, np.array([1.0, 10.0, 100.0]))
        assert k == 0
        assert value == pytest.approx(rate(1 / 3, 0.5, 1.0, 1.0), rel=1e-15)

    def test_length_checked(self):
        alloc = Allocation(tau=0.5, beta=(0.5, 0.5))
        with pytest.raises(ConfigError):
            min_rate(alloc, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "beta, gamma",
        [
            ((0.5, 0.5), [1.0, math.nan]),
            # A NaN rate (UAV 1's share underflows) before the bad gain.
            ((0.5, 5e-324, 0.5), [1.0, 2.0, math.nan]),
        ],
    )
    def test_nan_gain_is_refused(self, beta, gamma):
        alloc = Allocation(tau=0.5, beta=beta)
        with pytest.raises(ConfigError, match="gamma_k must be >= 0"):
            min_rate(alloc, np.array(gamma))

    def test_edges_of_the_argmin(self):
        # beta_1 (1 - tau) underflows to 0: its rate is 0 * log2(inf), NaN,
        # and a NaN rate is the minimum, as np.argmin picks it.
        value, k = min_rate(Allocation(tau=0.5, beta=(0.5, 5e-324, 0.5)), [0.0, 2.0, 3.0])
        assert math.isnan(value) and k == 1
        # With no NaN, the first of equal minima: two zero gains tie at 0.
        value, k = min_rate(Allocation(tau=0.5, beta=(0.25,) * 4), [2.0, 0.0, 2.0, 0.0])
        assert value == 0.0 and k == 1
        # A NaN rate after a smaller rate (and a tie) still wins.
        value, k = min_rate(
            Allocation(tau=0.5, beta=(0.25, 0.25, 5e-324, 0.5 - 5e-324)), [0.0, 0.0, 1.0, 1.0]
        )
        assert math.isnan(value) and k == 2
        # An infinite gain has an infinite rate, which is never the minimum
        # unless every rate is infinite; then the first index.
        value, k = min_rate(Allocation(tau=0.5, beta=(0.5, 0.5)), [math.inf, 1.0])
        assert k == 1 and value == float(_rate(0.25, 0.5, 1.0))
        value, k = min_rate(Allocation(tau=0.5, beta=(0.5, 0.5)), [math.inf, math.inf])
        assert value == math.inf and k == 0

    @pytest.mark.parametrize("nu_r", [0.1, 0.37, 0.9 - 2**-40])
    def test_signalling_share_matches_the_array_form(self, nu_r):
        alloc = Allocation(tau=0.3, beta=(0.2, 0.3, 0.5), nu_r=nu_r)
        gamma = np.array([40.0, 4.0, 4.0])
        rates = _rate(np.array(alloc.beta) * (1.0 - 0.3), 0.3 * gamma, 1.0 - nu_r)
        assert min_rate(alloc, gamma) == (float(rates[1]), 1)

    def test_equals_the_array_form_bit_for_bit(self):
        # K from 1 to 64, gains over 1e-12..1e12 (some zero) and nu_r in
        # [0, 0.9): the value and index of the array form's np.argmin.
        rng = np.random.default_rng(20240522)
        for _ in range(400):
            K = int(rng.integers(1, 65))
            tau = float(rng.uniform(1e-3, 1.0 - 1e-3))
            shares = rng.uniform(0.05, 1.0, K)
            beta = (1.0,) if K == 1 else tuple((shares / shares.sum()).tolist())
            if abs(math.fsum(beta) - 1.0) > 1e-12:
                continue
            gamma = 10.0 ** rng.uniform(-12.0, 12.0, K)
            gamma[rng.random(K) < 0.05] = 0.0
            nu_r = float(rng.uniform(0.0, 0.9))
            alloc = Allocation(tau=tau, beta=beta, nu_r=nu_r)
            rates = _rate(np.asarray(beta) * (1.0 - tau), tau * gamma, alloc.nu_c)
            expected = int(np.argmin(rates))
            value, k = min_rate(alloc, gamma)
            assert (value.hex(), k) == (float(rates[expected]).hex(), expected)


def mp_snr_threshold(beta_k: float, tau: float, R_a: float, nu_c: float):
    """``(X, e)`` of the exact doubles in mpmath at the working precision:
    e = R_a/(beta_k (1-tau) nu_c) and X = beta_k (1-tau)/tau (2^e - 1)."""
    eff = mp.mpf(beta_k) * (1 - mp.mpf(tau))
    exponent = mp.mpf(R_a) / (eff * mp.mpf(nu_c))
    return eff / mp.mpf(tau) * mp.expm1(exponent * mp.log(2)), exponent


class TestSnrThreshold:
    def test_direct_substitution(self):
        assert snr_threshold(1.0, 0.5, 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_vanishes_with_requirement(self):
        assert snr_threshold(0.5, 0.5, 0.0, 1.0) == 0.0
        small = snr_threshold(0.5, 0.5, 1e-9, 1.0)
        assert 0.0 < small < 1e-8

    def test_zero_requirement_where_eff_over_tau_overflows(self):
        # eff/tau is inf there; the threshold is 0, not inf * 0 = NaN.
        assert snr_threshold(1 / 6, 1e-310, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("beta_k, tau, nu_c", [(5e-324, 0.7, 1.0), (1e-300, 0.5, 1e-30)])
    def test_underflowing_data_share(self, beta_k, tau, nu_c):
        # beta_k (1 - tau) nu_c rounds to 0: no positive rate fits the share
        # (certain outage), and a zero requirement still needs no share.
        assert beta_k * (1.0 - tau) * nu_c == 0.0
        assert snr_threshold(beta_k, tau, 0.5, nu_c) == math.inf
        assert snr_threshold(beta_k, tau, 5e-324, nu_c) == math.inf
        assert snr_threshold(beta_k, tau, 0.0, nu_c) == 0.0

    @pytest.mark.parametrize("R_a", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_requirement_is_refused(self, R_a):
        with pytest.raises(ConfigError, match=r"R_a must be >= 0, got"):
            snr_threshold(0.5, 0.5, R_a, 1.0)

    @pytest.mark.parametrize(
        "beta_k, tau, nu_c, below, slope",
        [
            # 1 - tau and eff * nu_c exact: two roundings reach the exponent.
            (1.0, 0.5, 1.0, 8.0, 2.0),
            (0.3, 0.75, 1.0, 8.0, 2.0),
            (1 / 6, 0.6180339887498949, 1.0, 8.0, 2.0),
            # Four roundings reach the exponent.
            (1 / 6, 0.19293594903136216, 1.0, 10.0, 4.0),
            (0.9, 0.05, 0.95, 10.0, 4.0),
            (1 / 3, 0.3, 0.7, 10.0, 4.0),
        ],
    )
    def test_relative_error_against_mpmath(self, beta_k, tau, nu_c, below, slope):
        # Each rounding that reaches e = R_a/(eff nu_c) moves 2^e by e ln2 of
        # it; eff's own roundings come back through eff/tau, and pow, the
        # subtraction, eff/tau and the product add about 4 more.  Below e = 1
        # expm1(e ln2) keeps z = 2^e - 1 to a few ulp however small it is,
        # where the subtraction 2^e - 1 is 0.14 off at e = 1e-15.
        eff = beta_k * (1.0 - tau)
        with mp.workdps(50):
            for e in np.geomspace(1e-15, 1e3, 181):
                R_a = float(e) * eff * nu_c
                exact, exponent = mp_snr_threshold(beta_k, tau, R_a, nu_c)
                error = abs(mp.mpf(snr_threshold(beta_k, tau, R_a, nu_c)) / exact - 1)
                bound = below if exponent < 1 else slope * float(exponent) * math.log(2) + 6.0
                assert error <= bound * 2.0**-53, (float(e), float(error) * 2**53)

    def test_overflow_saturates(self):
        assert snr_threshold(1e-3, 0.5, 1.0, 1.0) == math.inf

    def test_exponent_of_exactly_1024_saturates(self):
        # 2.0 ** 1024.0 raises OverflowError rather than returning inf.
        assert snr_threshold(1.0, 0.5, 512.0, 1.0) == math.inf

    @pytest.mark.parametrize("beta_k", [1.0, 0.5, 1 / 6])
    @pytest.mark.parametrize("req", [0.5, 1.0, 2.0])
    def test_unique_interior_stationary_point(self, beta_k, req):
        # The threshold blows up at both tau endpoints and dips once in
        # between: its finite-difference sign changes exactly once.
        taus = np.linspace(0.005, 0.995, 397)
        vals = np.array([snr_threshold(beta_k, t, req, 1.0) for t in taus])
        vals = vals[np.isfinite(vals)]  # near tau=1 the threshold saturates
        signs = np.sign(np.diff(vals))
        flips = np.nonzero(np.diff(signs) != 0.0)[0]
        assert len(flips) == 1
        assert signs[0] < 0.0 < signs[-1]


class TestGammaProductCdf:
    BUDGET = budget_from_losses(60.0, 55.0, 1e10)

    def test_zero(self):
        assert gamma_product_cdf(0.0, self.BUDGET, 3, 4, 3, 4) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            gamma_product_cdf(-1.0, self.BUDGET, 3, 4, 3, 4)

    def test_nan_threshold_rejected(self):
        # It used to reach the survival branch and fail there with
        # "Bessel K requires x > 0, got nan".
        with pytest.raises(ConfigError, match=r"^gamma_product_cdf requires x >= 0, got nan$"):
            gamma_product_cdf(math.nan, self.BUDGET, 3, 4, 3, 4)

    def test_limit_at_infinity(self):
        assert gamma_product_cdf(math.inf, self.BUDGET, 3, 4, 3, 4) == 1.0
        assert gamma_product_cdf(1e300, self.BUDGET, 3, 4, 3, 4) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_tiny_argument_underflows_to_zero(self):
        x = 1e-31 * self.BUDGET.rho * self.BUDGET.lam * self.BUDGET.mu
        assert gamma_product_cdf(x, self.BUDGET, 3, 4, 3, 4) == 0.0

    @pytest.mark.parametrize("u", [1e-31, 1e-100, 1e-300, 5e-324])
    def test_tiny_argument_unit_shapes(self, u):
        # F(u) ~ u*log(1/u) is representable here, so it must not be cut to 0.
        oracle = float(mp_gamma_product_cdf(u, 1, 1, dps=130 - int(math.log10(u))))
        rel = 1e-9 if u > 1e-300 else 1e-3  # F(5e-324) is subnormal
        assert abs(gamma_product_cdf(u, UNIT_BUDGET, 1, 1, 1, 1) - oracle) <= rel * oracle

    def test_shapes_validated(self):
        with pytest.raises(ConfigError):
            gamma_product_cdf(1.0, self.BUDGET, 0, 4, 3, 4)
        with pytest.raises(ConfigError):
            gamma_product_cdf(1.0, self.BUDGET, 2.5, 4, 3, 4)

    @pytest.mark.parametrize("z", [0.01, 0.3, 2.0, 10.0])
    def test_single_term_reduction(self, z):
        # With unit shapes the sum collapses to 1 - 2*sqrt(z)*K_1(2*sqrt(z))
        # where z = x/(rho*lam*mu).
        x = z * self.BUDGET.rho * self.BUDGET.lam * self.BUDGET.mu
        direct = 1.0 - 2.0 * math.sqrt(z) * bessel_k_int(1, 2.0 * math.sqrt(z))
        assert gamma_product_cdf(x, self.BUDGET, 1, 1, 1, 1) == pytest.approx(
            direct, rel=1e-12
        )

    def test_monotone_nondecreasing(self):
        # The lower tail keeps full relative accuracy, so it must rise
        # strictly from step to step (each step multiplies u by 1.1); near
        # 1 the values may round to equal.
        scale = self.BUDGET.rho * self.BUDGET.lam * self.BUDGET.mu
        xs = np.geomspace(1e-4, 1e4, 200) * scale
        vals = [gamma_product_cdf(float(x), self.BUDGET, 3, 4, 3, 4) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(b > a * 1.1 for a, b in zip(vals, vals[1:]) if b < 1e-3)
        assert 0.0 < vals[0] < 1e-12
        assert vals[-1] > 1.0 - 1e-12

    def test_large_shapes(self):
        # Up to gamma_int's range (170) the series serves u < 60 for any
        # shapes; the survival sum gives 1.0 and 0.0 on these two.
        for n_h, n_g, u in ((1, 170, 1e-3), (100, 100, 59.0)):
            oracle = float(mp_gamma_product_cdf(u, n_h, n_g, dps=400))
            value = gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1)
            assert abs(value - oracle) <= 1e-9 * oracle
        # Beyond it the scenario rules refuse the shapes, and so does the
        # CDF: its survival-only path for them dropped every term from
        # m = 171 on, where m! overflows.
        with pytest.raises(ConfigError, match="<= 170"):
            gamma_product_cdf(30.0, UNIT_BUDGET, 180, 1, 12, 1)

    @pytest.mark.parametrize(
        "shapes",
        [
            (170, 1, 3, 1), (1, 170, 3, 1), (3, 1, 170, 1), (3, 1, 1, 170),
            (171, 1, 3, 1), (1, 171, 3, 1), (3, 1, 171, 1), (3, 1, 1, 171),
            (85, 2, 3, 1), (86, 2, 3, 1), (3.0, 2.0, 3, 1),
            (1.5, 1, 3, 1), (1, 1.5, 3, 1), (3, 1, 1.5, 1), (3, 1, 1, 1.5),
            (math.nan, 1, 3, 1), (1, math.nan, 3, 1), (3, 1, math.nan, 1), (3, 1, 1, math.nan),
            (math.inf, 1, 3, 1), (1, math.inf, 3, 1), (3, 1, math.inf, 1), (3, 1, 1, math.inf),
            (0, 1, 3, 1), (1, 0, 3, 1), (3, 1, 0, 1), (3, 1, 1, 0),
            (-1, -3, 3, 1), (3, 1, -1, -3),
        ],
    )
    def test_shape_domain_is_the_scenario_rules(self, shapes):
        # The CDF takes exactly the shapes NetworkConfig takes.  N_c = 1.5
        # was truncated to 1, and m_h = nan raised a bare ValueError.
        m_h, N_c, m_g, N_r = shapes
        try:
            default_config(K=1, m_h=(m_h,), N_c=N_c, m_g=(m_g,), N_r=N_r)
            config_accepts = True
        except ConfigError:
            config_accepts = False
        if config_accepts:
            assert 0.0 < gamma_product_cdf(1.0, UNIT_BUDGET, m_h, N_c, m_g, N_r) < 1.0
        else:
            with pytest.raises(ConfigError, match="^shapes must be integers >= 1"):
                gamma_product_cdf(1.0, UNIT_BUDGET, m_h, N_c, m_g, N_r)

    def test_survival_overflow_is_a_numeric_error(self):
        # Shapes the config rules allow (both <= 170) can still push
        # u^((m + n_g)/2) past the double range in the survival sum.  The
        # series serves such points only while K0(2 sqrt u) is a normal
        # double; past that, the overflow is the error.  At u = 136968 the
        # series gave 0.923 for shapes (27, 107), where F = 1.0; further out
        # its log-domain terms took log(0).
        assert outage._U_SERIES_MAX < 1.3e5
        for n_h, n_g, u in ((12, 170, 1.3e5), (27, 107, 136968.0), (60, 170, 5e5)):
            message = rf"overflows at u={u!r} for shapes n_h={n_h}, n_g={n_g}"
            with pytest.raises(NumericError, match=message):
                gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1)
        assert 0.0 <= gamma_product_cdf(1e4, UNIT_BUDGET, 12, 1, 12, 1) <= 1.0

    @pytest.mark.parametrize(
        "n_h, n_g, u, pinned",
        [
            (60, 170, 1000.0, 6.955050297616264e-35),
            (170, 170, 3000.0, 3.914392956860808e-69),
            (12, 170, 1e4, 0.9999999999972887),
        ],
    )
    def test_series_serves_where_the_survival_sum_overflows(self, n_h, n_g, u, pinned):
        # The survival sum overflows at these points, so the series serves
        # them.  The oracle cancels about 69 digits at (170, 170), and its
        # ascending-series K0 about 48 more, hence 200 digits.
        with pytest.raises(NumericError, match="overflows"):
            outage._survival_cdf(u, n_h, n_g)
        oracle = float(mp_gamma_product_cdf(u, n_h, n_g, dps=200))
        assert oracle == pytest.approx(pinned, rel=1e-15)
        value = gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1)
        assert abs(value - oracle) <= 1e-9 * oracle

    def test_survival_sum_keeps_terms_past_the_factorial_range(self):
        # With n_g = 170, m! * Gamma(n_g) leaves the double range from m = 7
        # on; those terms must not vanish (F came out as 0.40295 when they did).
        # At u = 1024 F is below 0.03, so the series serves it; at u = 2000
        # the survival sum does.
        oracle = float(mp_gamma_product_cdf(1024.0, 12, 170, dps=60))
        assert oracle == pytest.approx(0.0235950739981648766, rel=1e-15)
        value = gamma_product_cdf(1024.0, UNIT_BUDGET, 12, 1, 170, 1)
        assert abs(value - oracle) <= 1e-9 * oracle
        oracle = float(mp_gamma_product_cdf(2000.0, 12, 170, dps=60))
        value = gamma_product_cdf(2000.0, UNIT_BUDGET, 12, 1, 170, 1)
        assert value == outage._survival_cdf(2000.0, 12, 170)
        assert abs(value - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize(
        "shape,pinned", [(20, 2.3733177894216577e-07), (30, 1.507041507528333e-17)]
    )
    def test_small_survival_values_are_served_by_the_series(self, shape, pinned):
        # At u = 60 the survival sum cancelled for shapes above 12: (20, 20)
        # came out 5.8e-7 off relative, (30, 30) as 0.0.
        oracle = float(mp_gamma_product_cdf(60.0, shape, shape, dps=60))
        assert oracle == pytest.approx(pinned, rel=1e-15)
        value = gamma_product_cdf(60.0, UNIT_BUDGET, shape, 1, shape, 1)
        assert abs(value - oracle) <= 1e-9 * oracle

    def test_shapes_up_to_12_keep_the_survival_sum_from_u_60(self):
        # F falls as either shape grows and rises with u, so (12, 12) at
        # u = 60 is the smallest survival-side value for shapes up to 12.
        survival = outage._survival_cdf(60.0, 12, 12)
        assert survival > outage._F_SERIES
        assert gamma_product_cdf(60.0, UNIT_BUDGET, 12, 1, 12, 1) == survival
        assert gamma_product_cdf(60.0, UNIT_BUDGET, 11, 1, 12, 1) > survival
        assert gamma_product_cdf(61.0, UNIT_BUDGET, 12, 1, 12, 1) > survival

    @settings(max_examples=150, deadline=None)
    @given(
        log10_u=st.floats(min_value=-6.0, max_value=3.0),
        n_h=st.integers(min_value=1, max_value=12),
        n_g=st.integers(min_value=1, max_value=12),
    )
    @example(log10_u=-6.0, n_h=12, n_g=12)
    @example(log10_u=-6.0, n_h=1, n_g=1)
    @example(log10_u=math.log10(59.99), n_h=12, n_g=12)
    @example(log10_u=math.log10(60.0), n_h=12, n_g=12)
    @example(log10_u=math.log10(60.0), n_h=1, n_g=12)
    @example(log10_u=3.0, n_h=12, n_g=1)
    def test_relative_error_against_mpmath(self, log10_u, n_h, n_g):
        # Both branches (series below u = 60, survival sum above) against
        # the survival sum at 230 digits: F >= 6e-88 on this range, so at
        # least 140 digits survive the oracle's cancellation.
        u = 10.0 ** log10_u
        oracle = mp_gamma_product_cdf(u, n_h, n_g, dps=230)
        value = gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1)
        assert abs(value - float(oracle)) <= 1e-9 * float(oracle)

    @settings(max_examples=80, deadline=None)
    @given(
        log10_u=st.floats(min_value=-3.0, max_value=3.0),
        n_h=st.integers(min_value=1, max_value=40),
        n_g=st.integers(min_value=1, max_value=40),
    )
    @example(log10_u=math.log10(60.0), n_h=13, n_g=13)
    @example(log10_u=math.log10(60.0), n_h=40, n_g=40)
    @example(log10_u=math.log10(200.0), n_h=40, n_g=40)
    @example(log10_u=-3.0, n_h=40, n_g=40)
    @example(log10_u=3.0, n_h=40, n_g=1)
    def test_relative_error_against_mpmath_for_larger_shapes(self, log10_u, n_h, n_g):
        # F >= 1e-220 here.  The oracle's survival sum cancels about
        # -log10(F) digits, so its precision follows the computed value (a
        # value of 0.0 where F is not gets the full 400 digits).
        u = 10.0 ** log10_u
        value = gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1)
        dps = 40 + math.ceil(-math.log10(value)) if value > 0.0 else 400
        oracle = float(mp_gamma_product_cdf(u, n_h, n_g, dps=dps))
        assert abs(value - oracle) <= 1e-9 * oracle

    @settings(max_examples=100, deadline=None)
    @given(
        log10_u=st.floats(min_value=-6.0, max_value=math.log10(60.0), exclude_max=True),
        n_h=st.integers(min_value=1, max_value=40),
        n_g=st.integers(min_value=1, max_value=40),
    )
    @example(log10_u=math.log10(59.99), n_h=1, n_g=1)
    @example(log10_u=math.log10(59.99), n_h=40, n_g=40)
    @example(log10_u=math.log10(59.99), n_h=1, n_g=40)  # stops at J = n_g
    @example(log10_u=-6.0, n_h=1, n_g=40)  # stops at J = n_g
    @example(log10_u=-6.0, n_h=1, n_g=1)
    def test_series_relative_error_against_mpmath(self, log10_u, n_h, n_g):
        # The lower-tail series on its own, stopped by its bounds at
        # 2^-60 of the sum; the oracle's precision follows the value as in
        # the property above.
        u = 10.0 ** log10_u
        n_h, n_g = min(n_h, n_g), max(n_h, n_g)
        value, _ = outage._lower_tail_series(u, n_h, n_g)
        dps = 40 + math.ceil(-math.log10(value)) if value > 0.0 else 400
        oracle = float(mp_gamma_product_cdf(u, n_h, n_g, dps=dps))
        if oracle >= sys.float_info.min:
            assert abs(value - oracle) <= 1e-12 * oracle
        else:  # F itself is below the normal doubles
            assert value < sys.float_info.min

    @pytest.mark.parametrize(
        "n_h, n_g, u, stop",
        [
            # The tail bound; the former fixed index ceil(2u) + n_g + 40 was
            # 240210, 220147 and 100190 at the first three points.
            (60, 170, 1.2e5, 2502),
            (27, 107, 1.1e5, 4102),
            (40, 150, 5e4, 1253),
            (1, 40, 1e-6, 40),  # before any recurrence step
            (1, 40, 59.99, 40),
            # The cut bound: from J - n_g >= 2u on (n_g = 1 has no tail bound).
            (1, 1, 1e-6, 4),
            (12, 12, 59.0, 130),
        ],
    )
    def test_series_stopping_index(self, n_h, n_g, u, stop):
        value, J = outage._lower_tail_series(u, n_h, n_g)
        assert J == stop
        oracle = float(mp_gamma_product_cdf(u, n_h, n_g, dps=60))
        assert abs(value - oracle) <= 1e-12 * oracle
        if u <= outage._U_ASCENDING:  # the ascending expansion serves u there
            value = outage._ascending_cdf(u, n_h, n_g)
        assert gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1) == min(1.0, value)

    @settings(max_examples=40, deadline=None)
    @given(
        log10_u=st.floats(min_value=-6.0, max_value=math.log10(outage._U_ASCENDING)),
        a=st.integers(min_value=1, max_value=170),
        b=st.integers(min_value=1, max_value=170),
    )
    @example(log10_u=math.log10(outage._U_ASCENDING), a=12, b=12)  # d = 0
    @example(log10_u=math.log10(outage._U_ASCENDING), a=40, b=41)  # d = 1
    @example(log10_u=math.log10(outage._U_ASCENDING), a=1, b=170)  # d = 169
    @example(log10_u=-6.0, a=1, b=170)
    @example(log10_u=0.0, a=100, b=100)  # F = 2.6e-315, subnormal
    @example(log10_u=-2.0, a=60, b=130)  # F = 4.2e-322
    def test_ascending_relative_error_against_mpmath(self, log10_u, a, b):
        # The ascending expansion on its own, for every pair of shapes it
        # serves; the oracle's precision follows the value as above.  Where
        # F is subnormal the value may differ by its last place.
        u = min(10.0**log10_u, outage._U_ASCENDING)
        a, b = min(a, b), max(a, b)
        value = outage._ascending_cdf(u, a, b)
        dps = 40 + math.ceil(-math.log10(value)) if value > 0.0 else 400
        oracle = float(mp_gamma_product_cdf(u, a, b, dps=dps))
        assert abs(value - oracle) <= 1e-12 * oracle + math.ulp(0.0)

    def test_ascending_and_series_agree_at_the_cutover(self):
        # Both branches at the cutover and its neighbouring doubles, for all
        # shape pairs up to 40; the dispatch takes the ascending expansion
        # up to the cutover and the series above it.
        cut = outage._U_ASCENDING
        points = (math.nextafter(cut, 0.0), cut, math.nextafter(cut, math.inf))
        for a in range(1, 41):
            for b in range(a, 41):
                for u in points:
                    series = outage._lower_tail_series(u, a, b)[0]
                    assert abs(outage._ascending_cdf(u, a, b) - series) <= 1e-13 * series
        ascending = outage._ascending_cdf(cut, 12, 12)
        assert gamma_product_cdf(cut, UNIT_BUDGET, 12, 1, 12, 1) == ascending
        series = outage._lower_tail_series(points[2], 12, 12)[0]
        assert gamma_product_cdf(points[2], UNIT_BUDGET, 12, 1, 12, 1) == series

    def test_range(self):
        scale = self.BUDGET.rho * self.BUDGET.lam * self.BUDGET.mu
        for z in np.geomspace(1e-6, 1e6, 50):
            p = gamma_product_cdf(float(z * scale), self.BUDGET, 3, 4, 3, 4)
            assert 0.0 <= p <= 1.0

    @given(st.floats(min_value=1e-4, max_value=1e4))
    def test_hypothesis_range(self, z):
        scale = self.BUDGET.rho * self.BUDGET.lam * self.BUDGET.mu
        p = gamma_product_cdf(z * scale, self.BUDGET, 3, 4, 3, 4)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize(
        "budget, x",
        [
            # rho * lam * mu is about 1e-309, subnormal
            (LinkBudget(lam=1e-200, mu=1e-200, rho=1e91), 3e-308),  # u = 30
            (LinkBudget(lam=1e-200, mu=1e-200, rho=1e91), 2e-309),  # u = 2
            # rho * lam * mu overflows to inf: x / inf gave F = 0
            (LinkBudget(lam=1e103, mu=1e103, rho=1e103), 1e308),  # u = 0.1
        ],
    )
    def test_scale_outside_the_normal_doubles(self, budget, x):
        # u is formed from the mantissas and exponents of x and the three
        # factors, so it is the exact quotient to a few ulp.
        u = float(mp.mpf(x) / (mp.mpf(budget.rho) * mp.mpf(budget.lam) * mp.mpf(budget.mu)))
        expected = gamma_product_cdf(u, UNIT_BUDGET, 1, 1, 2, 1)
        assert 0.0 < expected < 1.0
        value = gamma_product_cdf(x, budget, 1, 1, 2, 1)
        assert value == pytest.approx(expected, rel=4e-15, abs=0.0)

    def test_scale_that_underflows_to_zero(self):
        # rho * lam * mu is 0.0 here; x / 0.0 raised ZeroDivisionError.
        budget = LinkBudget(lam=1e-200, mu=1e-200, rho=1.0)
        assert gamma_product_cdf(1e-300, budget, 3, 4, 3, 4) == 1.0  # u = 1e100
        assert gamma_product_cdf(1.0, budget, 3, 4, 3, 4) == 1.0  # u overflows
        assert gamma_product_cdf(0.0, budget, 3, 4, 3, 4) == 0.0

    def test_series_and_survival_bits_are_pinned(self):
        # sha256 of float.hex over a grid above the ascending cutover: 45
        # series points, 36 survival values, 15 survival values below 0.03
        # recomputed by the series and 12 survival overflows served by it.
        # (12, 3) and (170, 12) take the survival sum with n_h > n_g.
        grid = (3.5, 4.38, 10.0, 30.0, 59.99, 60.0, 65.0, 100.0, 300.0, 1e3, 1e4, 1e5)
        shapes = ((1, 1), (3, 12), (12, 3), (12, 12), (30, 30), (1, 170), (170, 12),
                  (60, 170), (170, 170))
        values = [gamma_product_cdf(u, UNIT_BUDGET, n_h, 1, n_g, 1)
                  for n_h, n_g in shapes for u in grid]
        digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()
        assert digest == "c50a8d0ab3074e6c07835adaf5cecfe70af5674122e24fb77225461a78d27508"


class TestShapeTables:
    """The per-shape tables of the three CDF branches (ascending expansion,
    lower-tail series, survival sum): built on first use, never at import,
    cached, and never a cause of a different value.  The tabled series and
    survival sum give the bits of their untabled forms."""

    POINTS = (1e-6, 0.5, 3.0, 10.0, 100.0, 1e5)  # ascending, series, survival
    SHAPES = ((12, 12), (3, 12), (1, 170), (40, 170), (170, 170))
    # Tables the points build: one per pair for the ascending expansion and
    # the survival sum, one per larger shape (12 and 170) for the series.
    BUILT = {"_ascending_table": 5, "_series_table": 2, "_survival_table": 5}
    # For each table, calls that build _ASCENDING_PAIRS tables of keys that
    # SHAPES does not use.
    FILL = {
        "_ascending_table": lambda: [outage._ascending_cdf(1.0, 1, b) for b in range(1, 129)],
        "_series_table": lambda: [outage._lower_tail_series(10.0, 1, n) for n in range(41, 169)],
        "_survival_table": lambda: [outage._survival_cdf(100.0, 1, b) for b in range(1, 129)],
    }

    def values(self):
        return [gamma_product_cdf(u, UNIT_BUDGET, a, 1, b, 1).hex()
                for a, b in self.SHAPES for u in self.POINTS]

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_cold_and_warm_tables_give_the_same_bits(self, name):
        table = getattr(outage, name)
        table.cache_clear()
        cold = self.values()
        assert table.cache_info().currsize == table.cache_info().misses == self.BUILT[name]
        assert self.values() == cold
        assert table.cache_info().misses == self.BUILT[name]

    @pytest.mark.parametrize("name", sorted(BUILT))
    def test_eviction_changes_no_value(self, name):
        table = getattr(outage, name)
        before = self.values()
        assert len(self.FILL[name]()) == outage._ASCENDING_PAIRS
        info = table.cache_info()
        assert info.currsize == info.maxsize == outage._ASCENDING_PAIRS
        assert self.values() == before
        assert table.cache_info().misses == info.misses + self.BUILT[name]

    def test_import_builds_no_table(self):
        code = ("import ehuav.outage as o; print(*(t.cache_info().currsize for t in "
                "(o._ascending_table, o._series_table, o._survival_table)))")
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert run.stdout == "0 0 0\n"

    def test_a_short_series_table_gives_the_same_bits(self):
        # Rows and log-factorials past the table are made by the same
        # operations, so a one-row table gives the default table's bits,
        # as it does where the series runs far past the table (u = 1e4).
        points = (3.5, 10.0, 59.99, 1e3, 1e4)
        shapes = ((1, 1), (12, 12), (3, 40), (60, 170), (170, 170))
        default = [outage._lower_tail_series(u, a, b) for a, b in shapes for u in points]
        outage._series_table.cache_clear()
        try:
            with mock.patch.object(outage, "_SERIES_ROWS", 1):
                short = [outage._lower_tail_series(u, a, b) for a, b in shapes for u in points]
        finally:
            outage._series_table.cache_clear()
        assert [(v.hex(), J) for v, J in short] == [(v.hex(), J) for v, J in default]

    @settings(max_examples=100, deadline=None)
    @given(
        log10_u=st.floats(min_value=math.log10(outage._U_ASCENDING),
                          max_value=math.log10(outage._U_SERIES_MAX), exclude_max=True),
        a=st.integers(min_value=1, max_value=170),
        b=st.integers(min_value=1, max_value=170),
    )
    @example(log10_u=3.0, a=60, b=170)  # past the table's rows
    @example(log10_u=5.0, a=60, b=170)
    @example(log10_u=math.log10(59.99), a=1, b=1)  # the table's last rows
    @example(log10_u=math.log10(3.5), a=170, b=170)
    def test_series_matches_its_untabled_form_bit_for_bit(self, log10_u, a, b):
        # Over the series' whole domain: below u = 60, and beyond, where it
        # serves small survival values and survival overflows.
        u = 10.0**log10_u
        a, b = min(a, b), max(a, b)
        value, J = outage._lower_tail_series(u, a, b)
        reference, J_reference = untabled_lower_tail_series(u, a, b)
        assert (value.hex(), J) == (reference.hex(), J_reference)

    @settings(max_examples=150, deadline=None)
    @given(
        log10_u=st.floats(min_value=math.log10(outage._U_SERIES), max_value=6.0,
                          exclude_max=True),
        n_h=st.integers(min_value=1, max_value=170),
        n_g=st.integers(min_value=1, max_value=170),
    )
    @example(log10_u=math.log10(2000.0), n_h=12, n_g=170)  # m! Gamma(n_g) overflows
    @example(log10_u=3.0, n_h=60, n_g=170)  # a power overflows
    @example(log10_u=math.log10(60.0), n_h=170, n_g=1)
    def test_survival_matches_its_untabled_form_bit_for_bit(self, log10_u, n_h, n_g):
        # Values, and the NumericError where a power overflows.
        u = 10.0**log10_u

        def outcome(survival):
            try:
                return survival(u, n_h, n_g).hex()
            except NumericError as exc:
                return str(exc)

        assert outcome(outage._survival_cdf) == outcome(untabled_survival_cdf)

    @pytest.mark.parametrize("a, b", [(1, 170), (170, 170), (12, 12), (1, 1)])
    def test_extreme_pairs_from_a_cold_table(self, a, b):
        outage._ascending_table.cache_clear()
        value = outage._ascending_cdf(3.0, a, b)
        dps = 40 + math.ceil(-math.log10(value)) if value > 0.0 else 400
        oracle = float(mp_gamma_product_cdf(3.0, a, b, dps=dps))
        assert abs(value - oracle) <= 1e-12 * oracle + math.ulp(0.0)

    @pytest.mark.parametrize("u", [1e-6, 0.5, 3.0, 30.0])
    def test_a_short_table_is_extended_not_truncated(self, u):
        # A sum whose stop rule has not fired by the last row is summed
        # again on a longer table, whose rows begin with the shorter one's:
        # one row gives the bits of the default length, and so does u = 30,
        # which needs more rows than the default.
        for a, b in ((12, 12), (3, 12), (1, 170), (170, 170)):
            value = outage._ascending_cdf(u, a, b)
            assert outage._ascending_cdf(u, a, b, 1) == value
            assert outage._ascending_cdf(u, a, b, 256) == value


class TestClosedForm:
    BUDGET = budget_from_losses(60.0, 62.0, 1e11)

    def test_zero_requirement(self):
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        value = outage_closed_form(alloc, [self.BUDGET] * 2, cfg, rate_requirement=0.0)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # not -0.0

    def test_far_tail_keeps_relative_accuracy(self):
        # 1 - prod(1 - F_k) would round these outages to 0.
        cfg = default_config(K=3)
        alloc = Allocation(tau=0.35, beta=(0.2, 0.3, 0.5))
        for req in (1e-5, 1e-4, 4e-4):
            cdfs = [
                gamma_product_cdf(
                    snr_threshold(b, alloc.tau, req, alloc.nu_c), self.BUDGET, 3, 4, 3, 4
                )
                for b in alloc.beta
            ]
            assert 0.0 < max(cdfs) < 1e-17
            value = outage_closed_form(alloc, [self.BUDGET] * 3, cfg, rate_requirement=req)
            assert value == pytest.approx(math.fsum(cdfs), rel=1e-15, abs=0.0)

    def test_certain_link_gives_certain_outage(self):
        # A threshold past u = 1e6 makes F_k exactly 1, where log1p(-F_k)
        # is undefined.
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        budget = budget_from_losses(60.0, 62.0, 1e3)
        x = snr_threshold(0.5, 0.3, cfg.R_a, alloc.nu_c)
        assert gamma_product_cdf(x, budget, 3, 4, 3, 4) == 1.0
        assert outage_closed_form(alloc, [budget] * 2, cfg) == 1.0

    def test_single_uav_is_plain_cdf(self):
        cfg = default_config(K=1)
        alloc = Allocation(tau=0.4, beta=(1.0,))
        threshold = snr_threshold(1.0, 0.4, cfg.R_a, alloc.nu_c)
        direct = gamma_product_cdf(threshold, self.BUDGET, 3, 4, 3, 4)
        assert outage_closed_form(alloc, [self.BUDGET], cfg) == pytest.approx(
            direct, rel=1e-15
        )

    def test_product_identity(self):
        # Network outage is 1 - prod_k (1 - F_k(X_k)); it is composed as
        # -expm1(sum_k log1p(-F_k)), so it agrees to rounding, not bit for bit.
        cfg = default_config(K=3)
        budgets = [
            budget_from_losses(60.0, 62.0, 1e11),
            budget_from_losses(58.0, 63.0, 2e11),
            budget_from_losses(61.0, 61.0, 5e10),
        ]
        alloc = Allocation(tau=0.35, beta=(0.2, 0.3, 0.5))
        survival = 1.0
        for k, budget in enumerate(budgets):
            x_k = snr_threshold(alloc.beta[k], alloc.tau, cfg.R_a, alloc.nu_c)
            survival *= 1.0 - gamma_product_cdf(x_k, budget, 3, 4, 3, 4)
        assert outage_closed_form(alloc, budgets, cfg) == pytest.approx(
            1.0 - survival, rel=1e-14
        )

    def test_monotone_in_requirement(self):
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        reqs = np.linspace(0.25, 4.0, 16)
        vals = [
            outage_closed_form(alloc, [self.BUDGET] * 2, cfg, rate_requirement=float(r))
            for r in reqs
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_snr_scale(self):
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        vals = []
        for mult in (1.0, 2.0, 4.0, 8.0):
            budget = budget_from_losses(60.0, 62.0, 1e11 * mult)
            vals.append(outage_closed_form(alloc, [budget] * 2, cfg))
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_impossible_requirement_is_certain_outage(self):
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.5, beta=(1e-3, 1.0 - 1e-3))
        # beta so small the threshold overflows to infinity
        assert outage_closed_form(alloc, [self.BUDGET] * 2, cfg) == 1.0

    @pytest.mark.parametrize("R_a", [1e-9, 1e-7, 1e-5])
    def test_small_rate_targets_against_mpmath(self, R_a):
        # Table 1 at 90 m with the equal split of R_a = 0.5.  F_k grows as
        # X_k^12 here, so a threshold off by d puts the outage off by 12 d:
        # the subtraction 2^e - 1 puts them 1.8e-7, 6.5e-10 and 2.0e-11 off.
        cfg = default_config(K=6, A_hat=90.0)
        budgets = link_budgets(cfg)
        alloc = Allocation(tau=equal_bandwidth_taf(6, 0.5), beta=(1 / 6,) * 6)
        value = outage_closed_form(alloc, budgets, cfg, rate_requirement=R_a)
        with mp.workdps(200):
            survival = mp.mpf(1)
            for beta_k, budget in zip(alloc.beta, budgets):
                x, _ = mp_snr_threshold(beta_k, alloc.tau, R_a, alloc.nu_c)
                u = x / (mp.mpf(budget.rho) * mp.mpf(budget.lam) * mp.mpf(budget.mu))
                n_h, n_g = cfg.m_h[0] * cfg.N_c, cfg.m_g[0] * cfg.N_r
                survival *= 1 - mp_gamma_product_cdf(u, n_h, n_g, dps=200)
            exact = 1 - survival
            assert abs(value / exact - 1) <= 1e-12, float(value / exact - 1)

    def test_benchmark_reference_outages(self):
        # The benchmark's 325 reference outages: Table 1's equal split over
        # its altitude x rate grid, from 110-digit mpmath, down to ~4e-31.
        # Its tail_ok_ratio counts a point within 1e-9, too loose to show a
        # lost digit or two; the measured worst here is 1.1e-14.
        table = json.loads((ROOT / "perfbench/reference/outage_tail.json").read_text())
        network = load_config(ROOT / "configs/table1.yaml").network
        assert len(table["points"]) == 325
        for altitude, rate, reference in table["points"]:
            config = replace(network, A_hat=float(altitude))
            alloc = Allocation(
                tau=equal_bandwidth_taf(config.K, rate), beta=(1.0 / config.K,) * config.K
            )
            value = outage_closed_form(alloc, link_budgets(config), config, rate_requirement=rate)
            exact = mp.mpf(reference)
            assert abs(value - exact) <= 1e-13 * exact, (altitude, rate, value, reference)


class TestMonteCarlo:
    BUDGET = budget_from_losses(60.0, 62.0, 1e11)

    def config(self):
        return default_config(K=2)

    def alloc(self):
        return Allocation(tau=0.3, beta=(0.5, 0.5))

    def test_certain_outage(self):
        est = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, self.config(),
            trials=1000, seed=1, rate_requirement=1e9,
        )
        assert est.p_out == 1.0

    def test_zero_requirement_never_outage(self):
        # Outage is a strict inequality, so a zero requirement never fires.
        est = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, self.config(),
            trials=1000, seed=1, rate_requirement=0.0,
        )
        assert est.p_out == 0.0

    def test_deterministic_reruns(self):
        kwargs = dict(trials=100_000, seed=7)
        a = outage_monte_carlo(self.alloc(), [self.BUDGET] * 2, self.config(), **kwargs)
        b = outage_monte_carlo(self.alloc(), [self.BUDGET] * 2, self.config(), **kwargs)
        assert a.p_out == b.p_out

    def test_block_streams_are_pinned_across_a_partial_block(self):
        # 100000 trials are one full 65536-trial block and one partial one;
        # the estimate pins both blocks' SeedSequence(7, spawn_key=(b,))
        # streams.  It is a sum of 1e5 finite sums through np.exp, whose last
        # bit may differ between SIMD builds, so the pin allows 1e-12.
        est = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, self.config(), trials=100_000, seed=7
        )
        assert est.p_out == pytest.approx(0.5894997159952423, rel=1e-12, abs=0)

    def test_seed_actually_matters(self):
        a = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, self.config(), trials=50_000, seed=1
        )
        b = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, self.config(), trials=50_000, seed=2
        )
        assert a.p_out != b.p_out

    def test_agrees_with_closed_form(self):
        # Mid-range operating point (analytic outage ~0.59) so the binomial
        # error bar is honest; frozen analytic value is a regression anchor.
        cfg = self.config()
        analytic = outage_closed_form(self.alloc(), [self.BUDGET] * 2, cfg)
        assert analytic == pytest.approx(0.5904984324590132, rel=1e-12)
        est = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, cfg, trials=200_000, seed=42
        )
        assert abs(analytic - est.p_out) <= 3.0 * est.std_err

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            outage_monte_carlo(
                self.alloc(), [self.BUDGET] * 2, self.config(), trials=0, seed=1
            )

    @pytest.mark.parametrize(
        "trials, seed, message",
        [
            (1.5, 1, "trials must be an integer >= 1, got 1.5"),
            (10, -1, "seed must be an integer >= 0, got -1"),
            (10, 1.5, "seed must be an integer >= 0, got 1.5"),
            (10, math.nan, "seed must be an integer >= 0, got nan"),
        ],
    )
    def test_argument_types_validated(self, trials, seed, message):
        # trials = 1.5 passed the range check and then failed in range();
        # numpy refused seed = -1 with a ValueError, seed = 1.5 with a TypeError.
        with pytest.raises(ConfigError, match=f"^{message}$"):
            outage_monte_carlo(
                self.alloc(), [self.BUDGET] * 2, self.config(), trials=trials, seed=seed
            )

    def test_integral_floats_count_as_integers(self):
        args = (self.alloc(), [self.BUDGET] * 2, self.config())
        est = outage_monte_carlo(*args, trials=70_000.0, seed=7.0)
        assert est == outage_monte_carlo(*args, trials=70_000, seed=7)
        assert type(est.trials) is int

    @pytest.mark.parametrize("R_a", [-1.0, math.nan])
    def test_negative_or_nan_requirement_is_refused(self, R_a):
        # The closed form's check, not a count of 0.
        with pytest.raises(ConfigError, match="R_a must be >= 0"):
            outage_monte_carlo(
                self.alloc(), [self.BUDGET] * 2, self.config(),
                trials=10, seed=1, rate_requirement=R_a,
            )


def conditional_reference(alloc, budgets, config, trials, seed, R_a):
    """outage_monte_carlo's estimate recomputed without its early stop:
    the same block streams, each UAV with u_k = X_k / (rho lam mu) > 0
    drawing its larger-shape hop in turn, and Q(n, y) from scipy's
    regularised upper incomplete gamma.  A scale that underflows to 0
    makes u_k infinite."""
    x = [snr_threshold(b, alloc.tau, R_a, alloc.nu_c) for b in alloc.beta]
    total = 0.0
    for block in range((trials + 65535) // 65536):
        n = min(65536, trials - block * 65536)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        survival = np.ones(n)
        for k, (x_k, budget) in enumerate(zip(x, budgets)):
            with np.errstate(divide="ignore", over="ignore"):
                u = np.float64(x_k) / (budget.rho * budget.lam * budget.mu)
            if u == 0.0:
                continue
            shapes = (config.m_h[k] * config.N_c, config.m_g[k] * config.N_r)
            drawn = rng.standard_gamma(max(shapes), size=n)
            survival *= gammaincc(min(shapes), u / drawn)
        total += float((1.0 - survival).sum())
    return total / trials


def reference_tolerance(config):
    """Twice the summed error bound of the UAVs' 1 - Q, (2n + 4) 2^-53 each,
    as an absolute tolerance on a mean: scipy's Q is as accurate."""
    shapes = [min(h * config.N_c, g * config.N_r) for h, g in zip(config.m_h, config.m_g)]
    return 2.0 * sum(2 * n + 4 for n in shapes) * 2.0**-53


class TestOutageEvent:
    """A trial's value is the probability, given its drawn hops, that some
    gain_k is below the exact threshold X_k."""

    @pytest.mark.parametrize("R_a", [1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 50.0])
    @pytest.mark.parametrize(
        "alloc",
        [
            Allocation(tau=0.1, beta=(0.25, 0.75)),
            Allocation(tau=0.3, beta=(0.25, 0.75), nu_r=0.3),
            Allocation(tau=0.6, beta=(0.25, 0.75)),
            Allocation(tau=0.6, beta=(0.25, 0.75), nu_r=0.3),
        ],
    )
    def test_trials_are_valued_at_the_exact_threshold(self, alloc, R_a):
        # One 64-trial block against mpmath at the 60-digit thresholds, with
        # the block's own draws: the mean of 1 - prod_k Q(n, X_k / (rho S_k)).
        # rho puts each u_k near the median of its gain.  The computed X_k
        # is within max(10, 4 e ln2 + 6) ulp of the exact one (see
        # TestSnrThreshold) and u_k / S_k adds two roundings; 1 - Q moves
        # by at most max_y y f_n(y) = n^n e^-n / (n-1)! times that relative
        # error, and 1 - Q itself is within (2n + 4) 2^-53.
        cfg = default_config(K=2)
        shapes = (cfg.m_h[0] * cfg.N_c, cfg.m_g[0] * cfg.N_r)
        n = min(shapes)
        budgets, exact, tolerance = [], [], 64 * 2.0**-53
        with mp.workdps(60):
            slope = mp.mpf(n) ** n * mp.exp(-n) / mp.factorial(n - 1)
            for beta_k in alloc.beta:
                x = snr_threshold(beta_k, alloc.tau, R_a, alloc.nu_c)
                x_exact, exponent = mp_snr_threshold(beta_k, alloc.tau, R_a, alloc.nu_c)
                assert 0.0 < x < math.inf
                budgets.append(LinkBudget(lam=1.0, mu=1.0, rho=x / (shapes[0] * shapes[1])))
                exact.append(x_exact / mp.mpf(budgets[-1].rho))
                ulps = max(10.0, 4.0 * float(exponent) * math.log(2) + 6.0)
                tolerance += float(slope) * (ulps * 2.0**-52 + 2.0**-52) + (2 * n + 4) * 2.0**-53
            rng = np.random.default_rng(np.random.SeedSequence(17, spawn_key=(0,)))
            drawn = [rng.standard_gamma(max(shapes), size=64) for _ in budgets]
            values = []
            for trial in range(64):
                survival = mp.mpf(1)
                for u, column in zip(exact, drawn):
                    y = u / mp.mpf(float(column[trial]))
                    survival *= mp.gammainc(n, y, mp.inf, regularized=True)
                values.append(1 - survival)
            expected = float(mp.fsum(values) / 64)
        est = outage_monte_carlo(alloc, budgets, cfg, trials=64, seed=17, rate_requirement=R_a)
        assert 0.0 < expected < 1.0
        assert abs(est.p_out - expected) <= tolerance, (est.p_out, expected, tolerance)


class TestGammaSurvival:
    """The finite sum Q(n, y) = e^-y sum_{i<n} y^i / i! that replaces the
    second hop's draw, against mpmath's regularised incomplete gamma."""

    @pytest.mark.parametrize("n", [1, 2, 12, 40, 170])
    def test_one_minus_q_is_within_its_error_bound(self, n):
        cap = outage._Y_CAP
        ys = [0.0, 5e-324, 1e-300, 1e-100, 1e-30, 1e-10, 1e-5, 1e-3, 0.1, 0.5, 1.0, 2.0,
              n / 2, n - 1, n, n + 1, 1.5 * n, 2 * n + 10, 3 * n + 30, cap / 2, cap,
              1e3, 1e300, math.inf]
        y = np.array(ys)
        q = outage._gamma_survival(y.copy(), n, np.empty(len(ys)))
        assert np.all((0.0 <= q) & (q <= 1.0))
        for y_i, q_i in zip(ys, q):
            value = 1.0 - q_i
            exact = mp.gammainc(n, 0, y_i, regularized=True)  # P(Gamma(n) < y)
            # (2 y P(N <= n-2) + 6) 2^-53 at the capped y, N Poisson(y).
            y_c = min(y_i, cap)
            tail = mp.gammainc(n - 1, y_c, mp.inf, regularized=True) if n > 1 else 0
            bound = (2 * y_c * float(tail) + 6) * 2.0**-53
            assert abs(value - exact) <= bound, (n, y_i, value, exact)
            assert bound <= (2 * n + 4) * 2.0**-53
            if y_i >= cap:
                assert value == 1.0, (n, y_i)
        assert 1.0 - q[0] == 0.0  # Q(n, 0) = 1 exactly

    def test_the_cap_is_past_every_shape_s_last_bit(self):
        # Q falls as y grows and rises with n: at the cap the largest shape's
        # survival is far below half an ulp of 1, so 1 - Q rounds to 1.0.
        assert mp.gammainc(170, outage._Y_CAP, mp.inf, regularized=True) < 2.0**-54
        assert math.exp(-outage._Y_CAP) >= sys.float_info.min
        assert mp.fsum(mp.mpf(outage._Y_CAP) ** i / mp.factorial(i) for i in range(170)) < sys.float_info.max

    def test_coefficients_are_reciprocal_factorials_rounded_once(self):
        table = outage._poisson_coefficients(12)
        assert len(table) == 12
        assert table == tuple(float(mp.mpf(1) / mp.factorial(i)) for i in reversed(range(12)))


class TestConditionalEstimate:
    """A trial's value is 1 - prod_k Q(n_k, u_k / S_k), S_k each UAV's
    larger-shape hop drawn from the block's own stream."""

    @pytest.mark.parametrize("trials", [1, 65535, 65537])
    def test_blocks_match_a_direct_conditional_reference(self, trials):
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        budgets = [budget_from_losses(60.0, 62.0, 1e11)] * 2
        est = outage_monte_carlo(alloc, budgets, cfg, trials=trials, seed=11)
        expected = conditional_reference(alloc, budgets, cfg, trials, 11, cfg.R_a)
        assert est.p_out == pytest.approx(expected, rel=0, abs=reference_tolerance(cfg))

    def test_seeded_scenarios_match_a_direct_conditional_reference(self):
        # Random scenarios over K 1-8, both signalling shares, shapes up to
        # 170 and gains spread around each threshold.
        rng = np.random.default_rng(2024)
        for K in range(1, 9):
            for R_a in (0.0, 1e-12, 1e-6, 0.5, 1.0, 50.0, 1e9):
                for nu_r in (0.0, 0.3):
                    N_c, N_r = (int(n) for n in rng.choice([1, 2, 5], size=2))
                    cfg = default_config(
                        K,
                        N_c=N_c,
                        N_r=N_r,
                        p_c=(0.1,) * K,
                        m_h=tuple(int(m) for m in rng.integers(1, 170 // N_c + 1, size=K)),
                        m_g=tuple(int(m) for m in rng.integers(1, 170 // N_r + 1, size=K)),
                    )
                    alloc = Allocation(
                        tau=float(rng.uniform(0.05, 0.95)),
                        beta=tuple(rng.dirichlet(np.ones(K)).tolist()) if K > 1 else (1.0,),
                        nu_r=nu_r,
                    )
                    budgets = []
                    for k in range(K):
                        # rho puts X_k at a random quantile up to 0.3 of the gain.
                        x = snr_threshold(alloc.beta[k], alloc.tau, R_a, alloc.nu_c)
                        pl_h, pl_g = rng.uniform(40.0, 80.0, size=2)
                        product = rng.standard_gamma(cfg.m_h[k] * N_c, size=256)
                        product *= rng.standard_gamma(cfg.m_g[k] * N_r, size=256)
                        product *= 10.0 ** (-pl_h / 10.0) * 10.0 ** (-pl_g / 10.0)
                        quantile = np.quantile(product, rng.uniform(0.0, 0.3))
                        rho = x / quantile if 0.0 < x < 1e200 else 1.0
                        budgets.append(budget_from_losses(float(pl_h), float(pl_g), float(rho)))
                    trials = int(rng.integers(1, 3000))
                    seed = int(rng.integers(0, 2**32))
                    est = outage_monte_carlo(
                        alloc, budgets, cfg, trials=trials, seed=seed, rate_requirement=R_a
                    )
                    expected = conditional_reference(alloc, budgets, cfg, trials, seed, R_a)
                    assert est.p_out == pytest.approx(
                        expected, rel=0, abs=reference_tolerance(cfg)
                    ), (K, R_a, nu_r)

    def test_zero_and_infinite_thresholds_are_exact(self):
        # X_k = 0 puts no trial into outage and draws nothing; one infinite
        # X_k puts every trial into outage, 1 - Q rounding to exactly 1.
        cfg = default_config(K=2)
        budgets = [budget_from_losses(60.0, 62.0, 1e11)] * 2
        alloc = Allocation(tau=0.3, beta=(1e-6, 1.0 - 1e-6))
        assert snr_threshold(alloc.beta[0], alloc.tau, cfg.R_a, 1.0) == math.inf
        assert outage_monte_carlo(alloc, budgets, cfg, trials=70_000, seed=3).p_out == 1.0
        zero = outage_monte_carlo(alloc, budgets, cfg, trials=70_000, seed=3, rate_requirement=0.0)
        assert zero.p_out == 0.0

    def test_a_scale_outside_the_normal_doubles_is_read_as_the_closed_form_reads_it(self):
        # rho * lam * mu = 1e-308 is subnormal: u comes from the mantissas
        # in both estimators, and the estimate meets the closed form.
        cfg = default_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        budgets = [LinkBudget(lam=1e-160, mu=1e-150, rho=1e2)] * 2
        scale = budgets[0].rho * budgets[0].lam * budgets[0].mu
        assert 0.0 < scale < sys.float_info.min
        R_a = 5e-307
        analytic = outage_closed_form(alloc, budgets, cfg, rate_requirement=R_a)
        assert 0.05 < analytic < 0.95
        est = outage_monte_carlo(alloc, budgets, cfg, trials=20_000, seed=4, rate_requirement=R_a)
        assert abs(est.p_out - analytic) <= 3.0 * math.sqrt(analytic * (1.0 - analytic) / 20_000)

    def test_the_tail_at_150_m_is_seen_at_1e5_trials(self):
        # Table 1 at 150 m with R_a = 0.3: the closed form is 5.03e-7, and a
        # 0/1 count of 1e5 trials reads 0 (a vacuous PASS).  The conditional
        # estimate is positive and inside the analytic 3-sigma band.
        cfg = replace(load_config(ROOT / "configs" / "table1.yaml").network, A_hat=150.0)
        budgets = link_budgets(cfg)
        alloc = Allocation(tau=equal_bandwidth_taf(cfg.K, 0.3), beta=(1.0 / cfg.K,) * cfg.K)
        analytic = outage_closed_form(alloc, budgets, cfg, rate_requirement=0.3)
        assert analytic == pytest.approx(5.031e-7, rel=1e-3)
        est = outage_monte_carlo(alloc, budgets, cfg, trials=10**5, seed=1, rate_requirement=0.3)
        band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / 10**5)
        assert est.p_out > 0.0
        assert abs(est.p_out - analytic) <= band


def budgets_at_quantiles(alloc, config, levels):
    """Unit-path-gain budgets whose rho puts each X_k at the given quantile
    level of its UAV's gain, read from a pilot sample."""
    rng = np.random.default_rng(len(levels))
    budgets = []
    for k, q in enumerate(levels):
        x = snr_threshold(alloc.beta[k], alloc.tau, config.R_a, alloc.nu_c)
        product = rng.standard_gamma(config.m_h[k] * config.N_c, size=4096)
        product *= rng.standard_gamma(config.m_g[k] * config.N_r, size=4096)
        budgets.append(LinkBudget(lam=1.0, mu=1.0, rho=x / np.quantile(product, q)))
    return budgets


def counting_rng(drawn):
    """A default_rng stand-in whose generators append one to ``drawn`` per
    ``standard_gamma`` call."""

    class Counting(np.random.Generator):
        def standard_gamma(self, *args, **kwargs):
            drawn.append(1)
            return super().standard_gamma(*args, **kwargs)

    return lambda seq: Counting(np.random.PCG64(seq))


class TestColumnPath:
    """outage_monte_carlo folds each block into its survival column by column."""

    @pytest.mark.parametrize("K", [1, 2, 6, 64])
    @pytest.mark.parametrize("edge", ["interior", "zero", "infinite-last"])
    def test_column_path_matches_the_conditional_reference(self, K, edge):
        # rho puts each X_k at a quantile of up to 2%.  An infinite rho makes
        # u_k = 0 for every other UAV, which then draws nothing; a scale
        # that underflows to 0 makes the last u_k infinite, which saturates
        # the block only at its last column.
        cfg = default_config(K)
        alloc = Allocation(tau=0.4, beta=(1.0 / K,) * K)
        budgets = budgets_at_quantiles(alloc, cfg, np.linspace(0.001, 0.02, K))
        columns = K
        if edge == "zero":
            budgets[::2] = [LinkBudget(lam=1.0, mu=1.0, rho=math.inf)] * len(budgets[::2])
            columns = K // 2
        elif edge == "infinite-last":
            budgets[-1] = LinkBudget(lam=1e-200, mu=1e-200, rho=1e-200)
        for trials in (1, 777):
            drawn = []
            with mock.patch.object(np.random, "default_rng", counting_rng(drawn)):
                est = outage_monte_carlo(alloc, budgets, cfg, trials=trials, seed=trials)
            expected = conditional_reference(alloc, budgets, cfg, trials, trials, cfg.R_a)
            assert est.p_out == pytest.approx(expected, rel=0, abs=reference_tolerance(cfg))
            assert len(drawn) == columns
            if edge == "infinite-last":
                assert est.p_out == 1.0
            elif columns == 0:
                assert est.p_out == 0.0

    @pytest.mark.parametrize("K", [1, 2, 6, 64])
    def test_partial_last_block_matches_the_conditional_reference(self, K):
        # 65536 + 1000 trials: one full block and a partial one, each from
        # its own stream; rho puts each X_k at a quantile of up to 2%.
        cfg = default_config(K)
        alloc = Allocation(tau=0.4, beta=(1.0 / K,) * K)
        budgets = budgets_at_quantiles(alloc, cfg, np.linspace(0.001, 0.02, K))
        trials = 66536
        est = outage_monte_carlo(alloc, budgets, cfg, trials=trials, seed=5)
        assert 0.0 < est.p_out < 1.0
        expected = conditional_reference(alloc, budgets, cfg, trials, 5, cfg.R_a)
        assert est.p_out == pytest.approx(expected, rel=0, abs=reference_tolerance(cfg))

    def test_an_infinite_first_threshold_stops_each_block_at_its_first_column(self):
        # A share of 1e-6 makes the first UAV's X_k infinite: every trial's
        # survival is Q(n, cap) < 2^-54 after one column of six, so each of
        # the two blocks draws once, and the estimate is exactly 1.
        cfg = load_config(ROOT / "configs" / "table1.yaml").network
        budgets = link_budgets(cfg)
        alloc = Allocation(tau=0.5, beta=(1e-6,) + ((1.0 - 1e-6) / 5,) * 5)
        drawn = []
        with mock.patch.object(np.random, "default_rng", counting_rng(drawn)):
            est = outage_monte_carlo(alloc, budgets, cfg, trials=100_000, seed=0)
        assert len(drawn) == 2
        assert est.p_out == 1.0
        assert est == outage_monte_carlo(alloc, budgets, cfg, trials=100_000, seed=0)

    def test_no_block_by_K_matrix_is_allocated(self):
        # A 65536 x 64 gain matrix is 32 MiB; the column path holds two
        # 65536-double buffers and two 65536-byte masks at a time.
        K = 64
        cfg = default_config(K)
        alloc = Allocation(tau=0.4, beta=(1.0 / K,) * K)
        budgets = budgets_at_quantiles(alloc, cfg, [0.005] * K)
        tracemalloc.start()
        try:
            est = outage_monte_carlo(alloc, budgets, cfg, trials=65536, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < est.p_out < 1.0  # every column was drawn
        assert peak < 4 * 65536 * 8  # 2 MiB, a sixteenth of the (65536, 64) matrix
