"""Scenario geometry, air-to-ground path loss, link budgets and channel sampling.

The composite per-UAV channel gain is gamma_k = rho_k * G_h * G_g where G_h
and G_g are independent gamma variates (integer Nakagami shape times antenna
count, scale = the linear average path gain of the corresponding hop).  That
convention makes the sampler exactly consistent with the closed-form CDF in
:func:`ehuav.outage.gamma_product_cdf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# Smallest allocator tolerance ``epsilon``.  The bisections stop once a
# bracket is at most epsilon wide, so epsilon must exceed the spacing of
# doubles across each bracket: 2.2e-16 for the time split and the shares
# in (0, 1), 1.1e-13 for rate targets up to 1000 bit/s/Hz at nu_c = 1.
EPSILON_MIN = 1e-12


def epsilon_range_error(epsilon: float) -> str | None:
    """Why an allocator tolerance is out of range, or None when it is fine.

    The range is [EPSILON_MIN, 0.5): the bisections start from the bracket
    [epsilon, 1 - epsilon], which is empty from 0.5 up.
    """
    if EPSILON_MIN <= epsilon < 0.5:
        return None
    return f"must lie in [{EPSILON_MIN:g}, 0.5), got {epsilon}"


@dataclass(frozen=True)
class EnvironmentParams:
    """Sigmoid LoS/NLoS mixing constants of the air-to-ground loss model."""

    a: float
    b: float
    eta_los: float
    eta_nlos: float

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ConfigError(f"environment a must be > 0, got {self.a}")
        if not self.b > 0:
            raise ConfigError(f"environment b must be > 0, got {self.b}")
        if not (self.eta_nlos >= self.eta_los >= 0):
            raise ConfigError(
                "environment excess losses must satisfy eta_nlos >= eta_los >= 0, "
                f"got eta_los={self.eta_los}, eta_nlos={self.eta_nlos}"
            )


def _check_int(name: str, value, minimum: int) -> int:
    if value != int(value):
        if name.startswith("m_"):
            raise ConfigError(
                f"{name}: Nakagami parameter must be integer "
                f"(the finite-sum CDF requires it), got {value}"
            )
        raise ConfigError(f"{name} must be an integer, got {value}")
    value = int(value)
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class NetworkConfig:
    """All static scenario parameters.

    Per-UAV vectors (p_c, m_h, m_g) have length K.  Shapes m_h, m_g must be
    integers: the closed-form CDF is a finite sum only for integer Nakagami
    parameters.
    """

    K: int
    N_c: int
    N_r: int
    N_s: int
    B: float
    f_c: float
    c_light: float
    noise_power: float
    zeta: float
    p_c: tuple[float, ...]
    m_h: tuple[int, ...]
    m_g: tuple[int, ...]
    d_hat: float
    A_hat: float
    V_hat: float
    R_a: float
    epsilon: float
    env: EnvironmentParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _check_int("K", self.K, 1))
        object.__setattr__(self, "N_c", _check_int("N_c", self.N_c, 1))
        object.__setattr__(self, "N_r", _check_int("N_r", self.N_r, 1))
        object.__setattr__(self, "N_s", _check_int("N_s", self.N_s, 1))
        for name in ("B", "f_c", "c_light", "noise_power", "d_hat", "A_hat"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0 < self.zeta <= 1):
            raise ConfigError(
                f"zeta must lie in (0,1] (energy-conversion efficiency), got {self.zeta}"
            )
        if not self.V_hat > 0:
            raise ConfigError(f"V_hat must be > 0, got {self.V_hat}")
        if not self.R_a > 0:
            raise ConfigError(f"R_a must be > 0, got {self.R_a}")
        epsilon_error = epsilon_range_error(self.epsilon)
        if epsilon_error is not None:
            raise ConfigError(f"epsilon {epsilon_error}")
        for name in ("p_c", "m_h", "m_g"):
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if len(values) != self.K:
                raise ConfigError(
                    f"{name} must have one entry per UAV (K={self.K}), got {len(values)}"
                )
        if any(p <= 0 for p in self.p_c):
            raise ConfigError(f"p_c entries must be > 0, got {self.p_c}")
        object.__setattr__(
            self, "m_h", tuple(_check_int("m_h", m, 1) for m in self.m_h)
        )
        object.__setattr__(
            self, "m_g", tuple(_check_int("m_g", m, 1) for m in self.m_g)
        )


@dataclass(frozen=True)
class LinkGeometry:
    """Horizontal distances of the two hops and the UAV altitude, metres."""

    d_h: float
    d_g: float
    altitude: float

    def __post_init__(self) -> None:
        if self.d_h < 0 or self.d_g < 0:
            raise ConfigError(
                f"horizontal distances must be >= 0, got d_h={self.d_h}, d_g={self.d_g}"
            )
        if not self.altitude > 0:
            raise ConfigError(f"altitude must be > 0, got {self.altitude}")


@dataclass(frozen=True)
class LinkBudget:
    """Derived per-UAV constants: average path gains and the SNR scale.

    lam/mu are the linear-scale average channel-power parameters of the
    energy (GCS->UAV) and identification (UAV->GRS) hops; rho is the
    composite SNR scale zeta*p_c/(N_s*sigma^2).
    """

    lam: float
    mu: float
    rho: float
    pl_h_db: float
    pl_g_db: float

    def __post_init__(self) -> None:
        if not (self.lam > 0 and self.mu > 0 and self.rho > 0):
            raise ConfigError(
                f"lam, mu, rho must be > 0, got {self.lam}, {self.mu}, {self.rho}"
            )
        if self.lam != 10.0 ** (-self.pl_h_db / 10.0):
            raise ConfigError("lam must equal 10**(-pl_h_db/10) exactly")
        if self.mu != 10.0 ** (-self.pl_g_db / 10.0):
            raise ConfigError("mu must equal 10**(-pl_g_db/10) exactly")


@dataclass(frozen=True)
class ChannelRealization:
    """One fading block's vector of composite channel gains."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "gamma", gamma)
        if gamma.ndim != 1 or gamma.size < 1:
            raise ConfigError("gamma must be a non-empty vector")
        if not np.all(np.isfinite(gamma) & (gamma > 0)):
            raise ConfigError("all channel gains must be strictly positive and finite")


def elevation_angle_deg(d: float, A: float) -> float:
    """Elevation angle in degrees seen from a ground node: atan(A/d), in (0, 90].

    d = 0 (directly overhead) returns 90.
    """
    if not A > 0:
        raise ConfigError(f"altitude must be > 0, got {A}")
    if d < 0:
        raise ConfigError(f"horizontal distance must be >= 0, got {d}")
    return math.degrees(math.atan2(A, d))


def a2g_path_loss_db(
    d: float, altitude: float, env: EnvironmentParams, f_c: float, c_light: float
) -> float:
    """Air-to-ground path loss in dB.

    Sigmoid LoS/NLoS excess term (elevation angle in degrees), a
    10*log10(sqrt(d^2 + A^2)) distance term, the 20*log10(4*pi*f_c/c)
    frequency term, and the NLoS floor.  The distance term's coefficient is
    10 (not the free-space 20) by explicit model fidelity; see the altitude
    trend notes in the README.
    """
    if not f_c > 0:
        raise ConfigError(f"f_c must be > 0, got {f_c}")
    theta = elevation_angle_deg(d, altitude)
    excess = (env.eta_los - env.eta_nlos) / (
        1.0 + env.a * math.exp(-env.b * (theta - env.a))
    )
    distance_term = 10.0 * math.log10(math.hypot(d, altitude))
    frequency_term = 20.0 * math.log10(4.0 * math.pi * f_c / c_light)
    return excess + distance_term + frequency_term + env.eta_nlos


def make_link_budget(k: int, config: NetworkConfig, geom: LinkGeometry) -> LinkBudget:
    """Per-UAV derived constants for 0-based UAV index k."""
    if not 0 <= k < config.K:
        raise ConfigError(f"UAV index must lie in [0, {config.K}), got {k}")
    pl_h = a2g_path_loss_db(geom.d_h, geom.altitude, config.env, config.f_c, config.c_light)
    pl_g = a2g_path_loss_db(geom.d_g, geom.altitude, config.env, config.f_c, config.c_light)
    return LinkBudget(
        lam=10.0 ** (-pl_h / 10.0),
        mu=10.0 ** (-pl_g / 10.0),
        rho=config.zeta * config.p_c[k] / (config.N_s * config.noise_power),
        pl_h_db=pl_h,
        pl_g_db=pl_g,
    )


def sample_gamma_matrix(
    budgets: list[LinkBudget],
    config: NetworkConfig,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """(trials, K) matrix of composite gains drawn column-by-column.

    Column order is fixed (k ascending; energy hop before identification
    hop), so a given generator state always yields the same matrix.
    """
    if len(budgets) != config.K:
        raise ConfigError(
            f"expected one budget per UAV (K={config.K}), got {len(budgets)}"
        )
    out = np.empty((trials, config.K))
    for k, budget in enumerate(budgets):
        g_h = rng.gamma(shape=config.m_h[k] * config.N_c, scale=budget.lam, size=trials)
        g_g = rng.gamma(shape=config.m_g[k] * config.N_r, scale=budget.mu, size=trials)
        out[:, k] = budget.rho * g_h * g_g
    return out


def sample_realization(
    budgets: list[LinkBudget], config: NetworkConfig, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one block's composite gains gamma_k = rho_k * G_h * G_g."""
    return ChannelRealization(gamma=sample_gamma_matrix(budgets, config, rng, 1)[0])


def harvested_energy(
    budget: LinkBudget, h_norm_sq: float, config: NetworkConfig, T_p: float
) -> float:
    """Energy harvested over a power-transfer phase of duration T_p seconds.

    E = zeta * p_c * |h|^2 * (B/N_s) * T_p, computed through the identity
    zeta * p_c = rho * N_s * sigma^2 so the per-UAV power rides on the budget.
    """
    if not T_p > 0:
        raise ConfigError(f"T_p must be > 0, got {T_p}")
    if h_norm_sq < 0:
        raise ConfigError(f"|h|^2 must be >= 0, got {h_norm_sq}")
    return budget.rho * config.noise_power * h_norm_sq * config.B * T_p


def uav_tx_power(
    budget: LinkBudget,
    h_norm_sq: float,
    config: NetworkConfig,
    tau: float,
    beta_k: float,
) -> float:
    """Average UAV transmit power: tau/(beta_k*(1-tau)*N_s) * zeta*p_c*|h|^2.

    Spends exactly the harvested energy over the data phase; beta_k = 1 is
    allowed (single-UAV networks use the whole band).
    """
    if not 0 < tau < 1:
        raise ConfigError(f"tau must lie in (0,1), got {tau}")
    if not 0 < beta_k <= 1:
        raise ConfigError(f"beta_k must lie in (0,1], got {beta_k}")
    if h_norm_sq < 0:
        raise ConfigError(f"|h|^2 must be >= 0, got {h_norm_sq}")
    zeta_pc_h = budget.rho * config.N_s * config.noise_power * h_norm_sq
    return tau / (beta_k * (1.0 - tau) * config.N_s) * zeta_pc_h
