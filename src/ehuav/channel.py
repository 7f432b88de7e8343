"""Scenario bounds, geometry, air-to-ground path loss, link budgets and
channel sampling.

The composite per-UAV channel gain is gamma_k = rho_k * G_h * G_g where G_h
and G_g are independent gamma variates (integer Nakagami shape times antenna
count, scale = the linear average path gain of the corresponding hop).  That
convention makes the sampler exactly consistent with the closed-form CDF in
:func:`ehuav.outage.gamma_product_cdf`.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .specfun import GAMMA_INT_MAX

# Smallest allocator tolerance ``epsilon``.  The bisections stop once a
# bracket is at most epsilon wide, so epsilon must exceed the spacing of
# doubles across each bracket: 2.2e-16 for the time split and the shares
# in (0, 1), and at most 2.3e-13 for rate targets.  The allocators work on
# the full block, so a finite rate beta*(1-tau)*log2(1 + x) is below
# log2 of the largest double, 1024 bit/s/Hz.
EPSILON_MIN = 1e-12

# A bound is a rule (field, test, message): the values satisfy it when
# test(values) is true, and otherwise `field` gets message.format(**values).
# The dataclasses below and the config loader read the same tables, so each
# bound is written once.
Rule = tuple[str, Callable[[Mapping], bool], str]


def violations(rules: Sequence[Rule], values: Mapping) -> list[tuple[str, str]]:
    """Every ``(field, message)`` of ``rules`` that ``values`` violates.

    A rule is skipped when a value it reads is absent, so the config loader
    can check whatever it managed to parse (it reports the rest itself).
    """
    found = []
    for field, test, message in rules:
        if field not in values:
            continue
        try:
            if not test(values):
                found.append((field, message.format(**values)))
        except KeyError:  # the rule also reads another, absent value
            continue
    return found


def check(rules: Sequence[Rule], values: Mapping) -> None:
    """Raise ``ConfigError("<field> <message>")`` for the first violated rule."""
    found = violations(rules, values)
    if found:
        field, message = found[0]
        raise ConfigError(f"{field} {message}")


def integer_at_least(x, minimum: int) -> bool:
    """Whether x is an integer (3.0 counts) no smaller than minimum."""
    whole = isinstance(x, numbers.Integral) or (isinstance(x, float) and x.is_integer())
    return whole and x >= minimum


def _count_rule(name: str) -> Rule:
    return (name, lambda v: integer_at_least(v[name], 1), f"must be an integer >= 1, got {{{name}}}")


def _positive_rule(name: str) -> Rule:
    return (
        name, lambda v: 0 < v[name] < math.inf, f"must be finite and > 0, got {{{name}}}"
    )


def _per_uav_rules(name: str, test: Callable, requirement: str) -> tuple[Rule, Rule]:
    return (
        (name, lambda v: len(v[name]) == v["K"],
         f"must have one entry per UAV (K={{K}}), got {{{name}}}"),
        (name, lambda v: all(test(x) for x in v[name]), f"{requirement}, got {{{name}}}"),
    )


# The bisections start from the bracket [epsilon, 1 - epsilon], which is
# empty from 0.5 up.  The allocators check this rule on their own.
EPSILON_RULE: Rule = (
    "epsilon",
    lambda v: EPSILON_MIN <= v["epsilon"] < 0.5,
    f"must lie in [{EPSILON_MIN:g}, 0.5), got {{epsilon}}",
)

_NAKAGAMI = "Nakagami parameter must be integer >= 1 (the finite-sum CDF requires it)"

NETWORK_RULES: tuple[Rule, ...] = (
    *(_count_rule(name) for name in ("K", "N_c", "N_r", "N_s")),
    *(
        _positive_rule(name)
        for name in ("B", "f_c", "c_light", "noise_power", "d_hat", "A_hat", "V_hat", "R_a")
    ),
    ("zeta", lambda v: 0 < v["zeta"] <= 1, "must lie in (0,1], got {zeta}"),
    EPSILON_RULE,
    *_per_uav_rules("p_c", lambda p: 0 < p < math.inf, "entries must be finite and > 0"),
    *_per_uav_rules("m_h", lambda m: integer_at_least(m, 1), _NAKAGAMI),
    *_per_uav_rules("m_g", lambda m: integer_at_least(m, 1), _NAKAGAMI),
    # The closed-form CDF needs Gamma of both shapes from specfun.gamma_int.
    (
        "N_r",
        lambda v: all(m * v["N_r"] <= GAMMA_INT_MAX for m in v["m_g"]),
        f"must satisfy m_g * N_r <= {GAMMA_INT_MAX} for every UAV "
        "(the closed-form CDF needs Gamma(m_g * N_r)), got N_r={N_r}, m_g={m_g}",
    ),
    (
        "N_c",
        lambda v: all(m * v["N_c"] <= GAMMA_INT_MAX for m in v["m_h"]),
        f"must satisfy m_h * N_c <= {GAMMA_INT_MAX} for every UAV "
        "(the closed-form CDF needs Gamma(m_h * N_c)), got N_c={N_c}, m_h={m_h}",
    ),
)

ENVIRONMENT_RULES: tuple[Rule, ...] = (
    _positive_rule("a"),
    _positive_rule("b"),
    (
        "eta_los",
        lambda v: math.inf > v["eta_nlos"] >= v["eta_los"] >= 0,
        "must satisfy eta_nlos >= eta_los >= 0 with eta_nlos finite, "
        "got eta_los={eta_los}, eta_nlos={eta_nlos}",
    ),
)


@dataclass(frozen=True)
class EnvironmentParams:
    """Sigmoid LoS/NLoS mixing constants of the air-to-ground loss model."""

    a: float
    b: float
    eta_los: float
    eta_nlos: float

    def __post_init__(self) -> None:
        check(ENVIRONMENT_RULES, vars(self))
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, float(value))


_COUNTS = ("K", "N_c", "N_r", "N_s")
PER_UAV = ("p_c", "m_h", "m_g")


@dataclass(frozen=True)
class NetworkConfig:
    """All static scenario parameters, checked against :data:`NETWORK_RULES`.

    Per-UAV vectors (p_c, m_h, m_g) have length K.  Shapes m_h, m_g must be
    integers: the closed-form CDF is a finite sum only for integer Nakagami
    parameters.  Counts and shapes are stored as ints, the other scalars as
    floats.
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
        for name in PER_UAV:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        check(NETWORK_RULES, vars(self))
        for name, value in list(vars(self).items()):
            if name in _COUNTS:
                value = int(value)
            elif name == "p_c":
                value = tuple(float(p) for p in value)
            elif name in ("m_h", "m_g"):
                value = tuple(int(m) for m in value)
            elif name != "env":
                value = float(value)
            object.__setattr__(self, name, value)


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
