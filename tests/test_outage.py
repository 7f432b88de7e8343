"""Rate, SNR-threshold, and outage checks.

The closed-form outage is cross-checked against the Monte-Carlo estimator
(the two share nothing but the channel statistics), and the product-gamma
CDF is pinned to its single-term reduction, to sampled quantiles and to a
high-precision mpmath evaluation of the finite survival sum.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehuav import outage
from ehuav.channel import EnvironmentParams, LinkBudget, NetworkConfig
from ehuav.errors import ConfigError, DomainError, NumericError
from ehuav.outage import (
    Allocation,
    OutageEstimate,
    gamma_product_cdf,
    min_rate,
    outage_closed_form,
    outage_monte_carlo,
    rate,
    snr_threshold,
    worker_threads,
)
from ehuav.specfun import bessel_k_int

ENV = EnvironmentParams(a=9.61, b=0.16, eta_los=1.0, eta_nlos=20.0)


def make_config(K: int, **overrides) -> NetworkConfig:
    params = dict(
        K=K,
        N_c=4,
        N_r=4,
        N_s=10,
        B=1e6,
        f_c=2.4e9,
        c_light=3.0e8,
        noise_power=10.0 ** -14.4,
        zeta=0.7,
        p_c=(0.1,) * K,
        m_h=(3,) * K,
        m_g=(3,) * K,
        d_hat=100.0,
        A_hat=120.0,
        V_hat=20.0,
        R_a=1.0,
        epsilon=1e-4,
        env=ENV,
    )
    params.update(overrides)
    return NetworkConfig(**params)


def budget_from_losses(pl_h_db: float, pl_g_db: float, rho: float) -> LinkBudget:
    return LinkBudget(
        lam=10.0 ** (-pl_h_db / 10.0),
        mu=10.0 ** (-pl_g_db / 10.0),
        rho=rho,
        pl_h_db=pl_h_db,
        pl_g_db=pl_g_db,
    )


UNIT_BUDGET = LinkBudget(lam=1.0, mu=1.0, rho=1.0, pl_h_db=0.0, pl_g_db=0.0)  # x == u


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
        with pytest.raises(ConfigError, match="tau"):
            rate(beta, np.array([[0.3], [1.0]]), gam, nu_c)

    def test_scalar_returns_float(self):
        assert isinstance(rate(0.5, 0.5, 1.0, 1.0), float)

    def test_strictly_increasing_in_gamma(self):
        values = rate(0.4, 0.6, np.geomspace(1e-6, 1e6, 60), 0.9)
        assert np.all(np.diff(values) > 0.0)

    def test_strictly_increasing_in_beta(self):
        betas = np.linspace(0.01, 1.0, 100)
        values = rate(betas, 0.4, 5.0, 0.9)
        assert np.all(np.diff(values) > 0.0)

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            rate(0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            rate(1.5, 0.5, 1.0, 1.0)
        with pytest.raises(ConfigError):
            rate(0.5, 0.5, -1.0, 1.0)


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


class TestSnrThreshold:
    def test_direct_substitution(self):
        assert snr_threshold(1.0, 0.5, 1.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_vanishes_with_requirement(self):
        assert snr_threshold(0.5, 0.5, 0.0, 1.0) == 0.0
        small = snr_threshold(0.5, 0.5, 1e-9, 1.0)
        assert 0.0 < small < 1e-8

    def test_overflow_saturates(self):
        assert snr_threshold(1e-3, 0.5, 1.0, 1.0) == math.inf

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
        with pytest.raises(DomainError):
            gamma_product_cdf(-1.0, self.BUDGET, 3, 4, 3, 4)

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
        # Beyond it the survival sum still serves n_h > 170, as long as
        # n_g <= 170; it cancels (F is 1.3e-18 here), but it does not raise.
        assert 0.0 <= gamma_product_cdf(30.0, UNIT_BUDGET, 180, 1, 12, 1) < 1e-12

    def test_survival_overflow_is_a_numeric_error(self):
        # Shapes the config rules allow (both <= 170) can still push
        # u^((m + n_g)/2) past the double range in the survival sum.
        message = r"overflows at u=10000.0 for shapes n_h=12, n_g=170"
        with pytest.raises(NumericError, match=message):
            gamma_product_cdf(1e4, UNIT_BUDGET, 12, 1, 170, 1)
        assert 0.0 <= gamma_product_cdf(1e4, UNIT_BUDGET, 12, 1, 12, 1) <= 1.0

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


class TestClosedForm:
    BUDGET = budget_from_losses(60.0, 62.0, 1e11)

    def test_zero_requirement(self):
        cfg = make_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        value = outage_closed_form(alloc, [self.BUDGET] * 2, cfg, rate_requirement=0.0)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0  # not -0.0

    def test_far_tail_keeps_relative_accuracy(self):
        # 1 - prod(1 - F_k) would round these outages to 0.
        cfg = make_config(K=3)
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
        cfg = make_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        budget = budget_from_losses(60.0, 62.0, 1e3)
        x = snr_threshold(0.5, 0.3, cfg.R_a, alloc.nu_c)
        assert gamma_product_cdf(x, budget, 3, 4, 3, 4) == 1.0
        assert outage_closed_form(alloc, [budget] * 2, cfg) == 1.0

    def test_single_uav_is_plain_cdf(self):
        cfg = make_config(K=1)
        alloc = Allocation(tau=0.4, beta=(1.0,))
        threshold = snr_threshold(1.0, 0.4, cfg.R_a, alloc.nu_c)
        direct = gamma_product_cdf(threshold, self.BUDGET, 3, 4, 3, 4)
        assert outage_closed_form(alloc, [self.BUDGET], cfg) == pytest.approx(
            direct, rel=1e-15
        )

    def test_product_identity(self):
        # Network outage is 1 - prod_k (1 - F_k(X_k)); it is composed as
        # -expm1(sum_k log1p(-F_k)), so it agrees to rounding, not bit for bit.
        cfg = make_config(K=3)
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
        cfg = make_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        reqs = np.linspace(0.25, 4.0, 16)
        vals = [
            outage_closed_form(alloc, [self.BUDGET] * 2, cfg, rate_requirement=float(r))
            for r in reqs
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_snr_scale(self):
        cfg = make_config(K=2)
        alloc = Allocation(tau=0.3, beta=(0.5, 0.5))
        vals = []
        for mult in (1.0, 2.0, 4.0, 8.0):
            budget = budget_from_losses(60.0, 62.0, 1e11 * mult)
            vals.append(outage_closed_form(alloc, [budget] * 2, cfg))
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_impossible_requirement_is_certain_outage(self):
        cfg = make_config(K=2)
        alloc = Allocation(tau=0.5, beta=(1e-3, 1.0 - 1e-3))
        # beta so small the threshold overflows to infinity
        assert outage_closed_form(alloc, [self.BUDGET] * 2, cfg) == 1.0


class TestMonteCarlo:
    BUDGET = budget_from_losses(60.0, 62.0, 1e11)

    def config(self):
        return make_config(K=2)

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

    def test_thread_count_does_not_change_result(self):
        base = outage_monte_carlo(
            self.alloc(), [self.BUDGET] * 2, self.config(), trials=100_000, seed=7
        )
        for threads in (2, 4):
            alt = outage_monte_carlo(
                self.alloc(), [self.BUDGET] * 2, self.config(),
                trials=100_000, seed=7, threads=threads,
            )
            assert alt.p_out == base.p_out

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

    def test_worker_threads_are_clamped(self):
        # Pure arithmetic: no thread is started here.
        assert worker_threads(None, 16, 8) == 1
        assert worker_threads(1, 16, 8) == 1
        assert worker_threads(0, 16, 8) == 1
        assert worker_threads(-4, 16, 8) == 1
        assert worker_threads(4, 16, 8) == 4
        assert worker_threads(10**6, 16, 8) == 8  # no more threads than CPUs
        assert worker_threads(10**6, 2, 8) == 2  # nor than blocks
        assert worker_threads(3, 16, None) == 1  # unknown CPU count

    def test_trials_validated(self):
        with pytest.raises(ConfigError):
            outage_monte_carlo(
                self.alloc(), [self.BUDGET] * 2, self.config(), trials=0, seed=1
            )
