"""Geometry, path-loss, link-budget, and channel-sampling checks.

Path loss is verified against an independent term-by-term evaluation and
frozen regression values; the sampler is verified against the moments and
the analytic product-gamma CDF (KS test at the 99% level).
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehuav.channel import (
    EPSILON_MIN,
    EnvironmentParams,
    LinkBudget,
    LinkGeometry,
    NetworkConfig,
    a2g_path_loss_db,
    block_time,
    elevation_angle_deg,
    make_link_budget,
    sample_gamma_matrix,
)
from ehuav.errors import ConfigError
from ehuav.experiments import link_budgets
from ehuav.outage import gamma_product_cdf

ENV = EnvironmentParams(a=9.61, b=0.16, eta_los=1.0, eta_nlos=20.0)
F_C = 2.4e9
C_LIGHT = 3.0e8
NOISE = 10.0 ** -14.4  # -114 dBm in watts


def default_config(K: int = 6, **overrides) -> NetworkConfig:
    """The Table-1 scenario with K pairs; the other test modules import it."""
    params = dict(
        K=K,
        N_c=4,
        N_r=4,
        N_s=10,
        f_c=F_C,
        noise_power=NOISE,
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


def path_loss_by_hand(d: float, A: float) -> float:
    """Independent spreadsheet-style evaluation, term by term."""
    theta = math.atan2(A, d) * 180.0 / math.pi
    sigmoid = 1.0 + ENV.a * math.exp(-ENV.b * (theta - ENV.a))
    excess = (ENV.eta_los - ENV.eta_nlos) / sigmoid
    dist = 10.0 * math.log10((d * d + A * A) ** 0.5)
    freq = 20.0 * math.log10(4.0 * math.pi * F_C / C_LIGHT)
    return excess + dist + freq + ENV.eta_nlos


class TestElevationAngle:
    def test_equal_legs(self):
        assert elevation_angle_deg(100.0, 100.0) == pytest.approx(45.0, abs=1e-12)

    def test_directly_overhead(self):
        assert elevation_angle_deg(0.0, 50.0) == 90.0

    def test_thirty_degrees(self):
        assert elevation_angle_deg(100.0, 100.0 / math.sqrt(3.0)) == pytest.approx(
            30.0, abs=1e-12
        )
        assert elevation_angle_deg(100.0, 57.7350) == pytest.approx(30.0, abs=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            elevation_angle_deg(10.0, 0.0)
        with pytest.raises(ConfigError):
            elevation_angle_deg(-1.0, 50.0)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_range(self, d, A):
        theta = elevation_angle_deg(d, A)
        assert 0.0 < theta <= 90.0


class TestPathLoss:
    def test_matches_independent_evaluation(self):
        for d, A in [(100.0, 120.0), (50.0, 60.0), (10.0, 300.0), (250.0, 35.0)]:
            assert a2g_path_loss_db(d, A, ENV, F_C) == pytest.approx(
                path_loss_by_hand(d, A), abs=1e-9
            )

    def test_frozen_values(self):
        # Regression anchors computed by the term-by-term evaluation above.
        assert a2g_path_loss_db(100.0, 120.0, ENV, F_C) == pytest.approx(
            63.255286465084005, abs=1e-9
        )
        assert a2g_path_loss_db(50.0, 60.0, ENV, F_C) == pytest.approx(
            60.24498650844419, abs=1e-9
        )

    def test_quadrupled_squared_distance_adds_3db(self):
        # Scaling (d, A) by 2 keeps the elevation angle; the distance term
        # grows by exactly 10*log10(2).
        base = a2g_path_loss_db(100.0, 120.0, ENV, F_C)
        scaled = a2g_path_loss_db(200.0, 240.0, ENV, F_C)
        assert scaled - base == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)

    def test_overhead_limit_of_sigmoid_term(self):
        # At d=0 the excess-loss term hits its theta=90 limit exactly.
        altitude = 75.0
        rest = (
            10.0 * math.log10(altitude)
            + 20.0 * math.log10(4.0 * math.pi * F_C / C_LIGHT)
            + ENV.eta_nlos
        )
        limit = (ENV.eta_los - ENV.eta_nlos) / (
            1.0 + ENV.a * math.exp(-ENV.b * (90.0 - ENV.a))
        )
        value = a2g_path_loss_db(0.0, altitude, ENV, F_C)
        assert value - rest == pytest.approx(limit, abs=1e-12)

    @pytest.mark.parametrize(
        "env, d",
        [
            (EnvironmentParams(a=1.0e8, b=0.16, eta_los=1.0, eta_nlos=20.0), 100.0),
            (EnvironmentParams(a=9.61, b=170.0, eta_los=1.0, eta_nlos=20.0), 2000.0),
            (EnvironmentParams(a=9.61, b=1.0e300, eta_los=1.0, eta_nlos=20.0), 1000.0),
        ],
    )
    def test_sigmoid_past_the_exp_range_takes_its_nlos_limit(self, env, d):
        # b (a - theta) is past exp's range (710): the excess term's limit is
        # 0, so the loss is the distance and frequency terms plus the NLoS
        # floor alone, where exp used to raise OverflowError.
        altitude = 120.0
        assert env.b * (env.a - elevation_angle_deg(d, altitude)) > 710.0
        rest = (
            10.0 * math.log10(math.hypot(d, altitude))
            + 20.0 * math.log10(4.0 * math.pi * F_C / C_LIGHT)
            + env.eta_nlos
        )
        assert a2g_path_loss_db(d, altitude, env, F_C) == rest

    def test_altitude_sweep_has_unique_interior_minimum(self):
        # At fixed ground distance the loss first falls (LoS takes over),
        # then rises (range loss wins): one interior minimum, no plateaus.
        alts = np.arange(10.0, 300.0 + 1e-9, 1.0)
        loss = np.array([a2g_path_loss_db(50.0, a, ENV, F_C) for a in alts])
        i = int(np.argmin(loss))
        assert 0 < i < len(alts) - 1
        steps = np.diff(loss)
        assert np.all(steps[:i] < 0.0)
        assert np.all(steps[i:] > 0.0)


class TestLinkBudget:
    def test_lambda_from_60_db(self):
        budget = LinkBudget(lam=1e-6, mu=1e-6, rho=1e10)
        assert budget.lam == 10.0 ** (-60.0 / 10.0)

    def test_rho_from_defaults(self):
        cfg = default_config()
        budget = make_link_budget(0, cfg, LinkGeometry(d_h=50.0, d_g=50.0, altitude=60.0))
        assert budget.rho == pytest.approx(0.07 / (10.0 * 10.0 ** -14.4), rel=1e-12)

    def test_third_pair_of_six(self):
        # Nodes on the default line layout: pair 3 of 6 sits at the midpoint
        # (50 m from either end, 60 m up).  Values frozen from the
        # term-by-term path-loss oracle.
        cfg = default_config()
        assert a2g_path_loss_db(50.0, 60.0, cfg.env, cfg.f_c) == pytest.approx(
            60.24498650844419, abs=1e-9
        )
        budget = make_link_budget(2, cfg, LinkGeometry(d_h=50.0, d_g=50.0, altitude=60.0))
        assert budget.lam == pytest.approx(9.451513285918016e-07, rel=1e-12)
        assert budget.mu == budget.lam
        assert budget.rho == pytest.approx(1758320502056.7073, rel=1e-12)

    def test_index_bounds(self):
        cfg = default_config()
        geom = LinkGeometry(d_h=50.0, d_g=50.0, altitude=60.0)
        with pytest.raises(ConfigError):
            make_link_budget(6, cfg, geom)
        with pytest.raises(ConfigError):
            make_link_budget(-1, cfg, geom)

    def test_hop_gain_past_the_double_range_is_a_config_error(self):
        # At f_c = 1e-300 the frequency term is about -6170 dB, and
        # 10^(-PL/10) raised OverflowError.
        cfg = default_config(f_c=1.0e-300)
        geom = LinkGeometry(d_h=50.0, d_g=50.0, altitude=60.0)
        with pytest.raises(
            ConfigError,
            match=r"^f_c=1e-300 gives UAV 0's energy hop a path loss of -6\d{3}(\.\d+)? dB, "
            r"whose gain 10\^\(-PL/10\) is past the double range$",
        ):
            make_link_budget(0, cfg, geom)

    def test_gains_below_unity_on_default_line(self):
        cfg = default_config()
        for k in range(cfg.K):
            frac = (k + 1) / cfg.K
            geom = LinkGeometry(
                d_h=cfg.d_hat * frac,
                d_g=cfg.d_hat - cfg.d_hat * frac,
                altitude=cfg.A_hat * frac,
            )
            budget = make_link_budget(k, cfg, geom)
            assert 0.0 < budget.lam < 1.0
            assert 0.0 < budget.mu < 1.0


class TestBlockTime:
    def test_reference_velocity(self):
        assert block_time(20.0, 2.4e9) == 6.25e-3

    def test_half_speed_doubles_the_block(self):
        assert block_time(10.0, 2.4e9) == 1.25e-2
        assert block_time(40.0, 2.4e9) == 6.25e-3 / 2.0

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ConfigError, match="positive"):
            block_time(0.0, 2.4e9)
        with pytest.raises(ConfigError, match="positive"):
            block_time(20.0, -1.0)

    @pytest.mark.parametrize("velocity, f_c", [(1e-200, 1e-200), (1e200, 1e200), (1e-160, 1e-160)])
    def test_rejects_a_product_that_underflows_or_overflows(self, velocity, f_c):
        # The product underflows to 0.0 (a bare ZeroDivisionError), overflows
        # to inf (a block of 0.0 s), or is so small that the block overflows.
        with pytest.raises(ConfigError, match="positive and finite"):
            block_time(velocity, f_c)


class TestConfigValidation:
    def test_zeta_range(self):
        with pytest.raises(ConfigError, match=r"\(0,1\]"):
            default_config(zeta=1.5)
        with pytest.raises(ConfigError):
            default_config(zeta=0.0)

    def test_nakagami_must_be_integer(self):
        with pytest.raises(ConfigError, match="integer"):
            default_config(m_h=(2.5,) * 6)

    def test_vector_lengths(self):
        with pytest.raises(ConfigError):
            default_config(p_c=(0.1,) * 5)

    def test_counts_positive(self):
        with pytest.raises(ConfigError):
            default_config(K=0, p_c=(), m_h=(), m_g=())
        with pytest.raises(ConfigError):
            default_config(N_c=0)

    def test_epsilon_floor(self):
        assert default_config(epsilon=EPSILON_MIN).epsilon == EPSILON_MIN
        for epsilon in (0.0, 1e-16, EPSILON_MIN / 2):
            with pytest.raises(ConfigError, match=r"epsilon must lie in \[1e-12, 0.5\)"):
                default_config(epsilon=epsilon)

    def test_epsilon_ceiling(self):
        # Every allocator requires epsilon < 0.5.
        assert default_config(epsilon=0.49).epsilon == 0.49
        for epsilon in (0.5, 0.7, math.inf):
            with pytest.raises(ConfigError, match=r"epsilon must lie in \[1e-12, 0.5\)"):
                default_config(epsilon=epsilon)

    def test_counts_and_shapes_become_ints_the_rest_floats(self):
        cfg = default_config(K=2, N_c=4.0, f_c=2400000000, p_c=(1, 2), m_h=(3.0, 2), m_g=[1, 1])
        assert type(cfg.N_c) is int and type(cfg.f_c) is float
        assert cfg.p_c == (1.0, 2.0) and all(type(p) is float for p in cfg.p_c)
        assert cfg.m_h == (3, 2) and all(type(m) is int for m in cfg.m_h)
        assert cfg.m_g == (1, 1)
        env = EnvironmentParams(a=9, b=1, eta_los=0, eta_nlos=20)
        assert all(type(value) is float for value in vars(env).values())

    def test_shape_limit(self):
        # The closed-form CDF needs Gamma(m_g * N_r) from gamma_int (n <= 170).
        assert default_config(K=1, p_c=(0.1,), m_h=(3,), m_g=(5,), N_r=34).N_r == 34
        with pytest.raises(ConfigError, match=r"N_r must satisfy m_g \* N_r <= 170"):
            default_config(K=1, p_c=(0.1,), m_h=(3,), m_g=(5,), N_r=35)

    def test_environment_validation(self):
        with pytest.raises(ConfigError):
            EnvironmentParams(a=-1.0, b=0.16, eta_los=1.0, eta_nlos=20.0)
        with pytest.raises(ConfigError):
            EnvironmentParams(a=9.61, b=0.16, eta_los=21.0, eta_nlos=20.0)

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            LinkGeometry(d_h=-1.0, d_g=0.0, altitude=60.0)
        with pytest.raises(ConfigError):
            LinkGeometry(d_h=1.0, d_g=0.0, altitude=0.0)


class TestSampling:
    BUDGET = LinkBudget(
        lam=10.0 ** (-60.0 / 10.0),
        mu=10.0 ** (-55.0 / 10.0),
        rho=1e10,
    )

    def config(self) -> NetworkConfig:
        return default_config(K=1, p_c=(0.1,), m_h=(3,), m_g=(3,))

    def test_mean_matches_gamma_product(self):
        cfg = self.config()
        rng = np.random.default_rng(42)
        gam = sample_gamma_matrix([self.BUDGET], cfg, rng, 10**6)[:, 0]
        shape_h = cfg.m_h[0] * cfg.N_c
        shape_g = cfg.m_g[0] * cfg.N_r
        expected = self.BUDGET.rho * shape_h * self.BUDGET.lam * shape_g * self.BUDGET.mu
        std_err = gam.std(ddof=1) / math.sqrt(gam.size)
        assert abs(gam.mean() - expected) <= 3.0 * std_err

    def test_empirical_cdf_matches_analytic(self):
        # Kolmogorov-Smirnov at the 99% level, evaluated on 199 evenly
        # spaced quantiles of 10^6 draws.
        cfg = self.config()
        rng = np.random.default_rng(42)
        gam = np.sort(sample_gamma_matrix([self.BUDGET], cfg, rng, 10**6)[:, 0])
        n = gam.size
        idx = np.linspace(0, n - 1, 199).round().astype(int)
        worst = 0.0
        for i in idx:
            analytic = gamma_product_cdf(
                float(gam[i]), self.BUDGET, cfg.m_h[0], cfg.N_c, cfg.m_g[0], cfg.N_r
            )
            empirical = (i + 1) / n
            worst = max(worst, abs(analytic - empirical))
        assert worst <= 1.62762 / math.sqrt(n)

    def test_median_maps_to_half(self):
        cfg = self.config()
        rng = np.random.default_rng(42)
        gam = sample_gamma_matrix([self.BUDGET], cfg, rng, 10**6)[:, 0]
        at_median = gamma_product_cdf(
            float(np.median(gam)), self.BUDGET, cfg.m_h[0], cfg.N_c, cfg.m_g[0], cfg.N_r
        )
        assert abs(at_median - 0.5) <= 3.0 * 0.5 / math.sqrt(gam.size)

    def test_bit_reproducible(self):
        cfg = default_config(K=2, p_c=(0.1, 0.1), m_h=(3, 3), m_g=(3, 3))
        budgets = [self.BUDGET, self.BUDGET]
        a = sample_gamma_matrix(budgets, cfg, np.random.default_rng(123), 1000)
        b = sample_gamma_matrix(budgets, cfg, np.random.default_rng(123), 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "trials, digest",
        [
            (1000, "efb631f6a207cc537e74d967a376151c2741b12187bf91b7c4e36411baee7f94"),
            (37, "048c9a78c5071abfdd103403353aecd19656974319e6c65a2338cba9c9c10990"),
        ],
    )
    def test_stream_is_pinned(self, trials, digest):
        # The bytes of the Table-1 draws at seed 123, as drawn with
        # rng.gamma and multiplied out before the in-place sampler.
        cfg = default_config(K=6)
        gains = sample_gamma_matrix(link_budgets(cfg), cfg, np.random.default_rng(123), trials)
        assert gains.shape == (trials, 6)
        assert gains.flags.c_contiguous
        assert hashlib.sha256(gains.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("trials", [1, 37, 1000])
    def test_columns_are_the_matrix_columns(self, trials):
        # The same stream, drawn by hand: UAV by UAV, the energy hop's
        # column and then the identification hop's.  Distinct shapes and
        # budgets per UAV make any other order show.
        cfg = default_config(K=4, m_h=(1, 2, 3, 4), m_g=(4, 1, 3, 2), p_c=(0.1, 0.2, 0.3, 0.4))
        budgets = [
            make_link_budget(k, cfg, LinkGeometry(d_h=100.0 + 30 * k, d_g=80.0, altitude=120.0))
            for k in range(4)
        ]
        gains = sample_gamma_matrix(budgets, cfg, np.random.default_rng(123), trials)
        rng = np.random.default_rng(123)
        for k, budget in enumerate(budgets):
            s_h = rng.standard_gamma(cfg.m_h[k] * cfg.N_c, size=trials)
            s_g = rng.standard_gamma(cfg.m_g[k] * cfg.N_r, size=trials)
            column = (budget.rho * (budget.lam * s_h)) * (budget.mu * s_g)
            assert np.array_equal(gains[:, k], column), k
        assert gains.shape == (trials, 4)

    def test_budget_count_checked(self):
        cfg = default_config(K=2, p_c=(0.1, 0.1), m_h=(3, 3), m_g=(3, 3))
        with pytest.raises(ConfigError):
            sample_gamma_matrix([self.BUDGET], cfg, np.random.default_rng(0), 10)
