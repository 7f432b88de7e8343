"""Rate and outage mathematics.

Per-UAV rate, the SNR outage threshold, the closed-form outage probability
built from the product-of-gammas CDF, and a deterministic Monte-Carlo outage
estimator that serves as the simulation oracle for the analysis.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import specfun
from .channel import LinkBudget, NetworkConfig, sample_gamma_matrix
from .errors import ConfigError, DomainError, NumericError

_MC_BLOCK = 65536  # fixed Monte-Carlo block size; see outage_monte_carlo


@dataclass(frozen=True)
class Allocation:
    """A (tau, beta-vector) resource split plus the block timing fractions.

    beta entries must be strictly inside (0,1) for K >= 2; the single-UAV
    case necessarily uses beta = (1,).  nu_c is derived as 1 - nu_r when not
    given and must equal it exactly when it is.
    """

    tau: float
    beta: tuple[float, ...]
    nu_r: float = 0.0
    nu_c: float | None = None

    def __post_init__(self) -> None:
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0,1), got {self.tau}")
        if len(beta) == 0:
            raise ConfigError("beta must be non-empty")
        if abs(math.fsum(beta) - 1.0) > 1e-12:
            raise ConfigError(
                f"beta must sum to 1 within 1e-12, got sum {math.fsum(beta)!r}"
            )
        upper_ok = (lambda b: b <= 1.0) if len(beta) == 1 else (lambda b: b < 1.0)
        if not all(0.0 < b and upper_ok(b) for b in beta):
            raise ConfigError(
                f"every beta_k must lie in (0,1) (or (0,1] for K=1), got {beta}"
            )
        if not 0.0 <= self.nu_r < 1.0:
            raise ConfigError(f"nu_r must lie in [0,1), got {self.nu_r}")
        derived = 1.0 - self.nu_r
        if self.nu_c is None:
            object.__setattr__(self, "nu_c", derived)
        elif self.nu_c != derived:
            raise ConfigError(
                f"nu_c must equal 1 - nu_r exactly ({derived!r}), got {self.nu_c!r}"
            )

    @property
    def K(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage probability with its binomial standard error."""

    p_out: float
    std_err: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_out <= 1.0:
            raise ConfigError(f"p_out must lie in [0,1], got {self.p_out}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        expected = math.sqrt(self.p_out * (1.0 - self.p_out) / self.trials)
        if not math.isclose(self.std_err, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise ConfigError(
                f"std_err must equal sqrt(p(1-p)/trials) = {expected!r}, "
                f"got {self.std_err!r}"
            )


def rate(beta_k, tau, gamma_k, nu_c):
    """Per-UAV spectral efficiency beta*(1-tau)*nu_c*log2(1 + tau*gamma/(beta*(1-tau))).

    Accepts scalars or numpy arrays for every argument; arrays broadcast
    (e.g. one row per draw with a ``(T, 1)`` column of tau and nu_c).
    """
    tau_arr = np.asarray(tau)
    if not np.all((tau_arr > 0.0) & (tau_arr < 1.0)):
        raise ConfigError(f"tau must lie in (0,1), got {tau}")
    beta_k = np.asarray(beta_k, dtype=float)
    gamma_k = np.asarray(gamma_k, dtype=float)
    if np.any(beta_k <= 0.0) or np.any(beta_k > 1.0):
        raise ConfigError("beta_k must lie in (0,1]")
    if np.any(gamma_k < 0.0):
        raise ConfigError("gamma_k must be >= 0")
    eff = beta_k * (1.0 - tau)
    result = eff * nu_c * np.log2(1.0 + tau * gamma_k / eff)
    return float(result) if result.ndim == 0 else result


def min_rate(alloc: Allocation, gamma) -> tuple[float, int]:
    """Minimum per-UAV rate and its 0-based index (ties: lowest index)."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (alloc.K,):
        raise ConfigError(f"gamma must have length K={alloc.K}, got shape {gamma.shape}")
    rates = rate(np.asarray(alloc.beta), alloc.tau, gamma, alloc.nu_c)
    k = int(np.argmin(rates))  # argmin returns the first minimum
    return float(rates[k]), k


def snr_threshold(beta_k: float, tau: float, R_a: float, nu_c: float) -> float:
    """Composite-SNR outage threshold X = beta*(1-tau)/tau * (2^(R_a/(beta*(1-tau)*nu_c)) - 1).

    The outage probability is monotone in X, so minimising X over tau
    maximises reliability.  Saturates to +inf where the exponent overflows
    (tau or beta at the very edge of their ranges).
    """
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie in (0,1), got {tau}")
    if not 0.0 < beta_k <= 1.0:
        raise ConfigError(f"beta_k must lie in (0,1], got {beta_k}")
    if R_a < 0.0:
        raise ConfigError(f"R_a must be >= 0, got {R_a}")
    if not nu_c > 0.0:
        raise ConfigError(f"nu_c must be > 0, got {nu_c}")
    eff = beta_k * (1.0 - tau)
    exponent = R_a / (eff * nu_c)
    if exponent > 1024.0:
        return math.inf
    return eff / tau * (2.0 ** exponent - 1.0)


def gamma_product_cdf(
    x: float,
    budget: LinkBudget,
    m_h: int,
    N_c: int,
    m_g: int,
    N_r: int,
    acc: specfun.SpecFunAccuracy | None = None,
) -> float:
    """CDF of the composite gain gamma = rho * G_h * G_g at x.

    G_h ~ Gamma(m_h*N_c, lam), G_g ~ Gamma(m_g*N_r, mu).  Evaluates the
    finite Bessel-K sum over ascending term index with compensated
    summation.  Values drifting past [0,1] by less than 1e-9 are clamped;
    larger violations raise :class:`NumericError`.  For u = x/(rho*lam*mu)
    below 1e-30 the mass is far below double resolution and 0.0 is returned
    outright (avoids 0*inf in the underflow/overflow corner).
    """
    if x < 0.0:
        raise DomainError(f"gamma_product_cdf requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    n_h = int(m_h) * int(N_c)
    n_g = int(m_g) * int(N_r)
    if m_h != int(m_h) or m_g != int(m_g) or n_h < 1 or n_g < 1:
        raise ConfigError(
            f"shapes must be integers >= 1, got m_h={m_h}, N_c={N_c}, m_g={m_g}, N_r={N_r}"
        )
    u = x / (budget.rho * budget.lam * budget.mu)
    if u >= 1e6:
        # exp(-2*sqrt(u)) < 1e-868 crushes every polynomial factor; the
        # survival sum is far below double resolution, but its power-of-u
        # prefactors would overflow if evaluated.
        return 1.0
    if u <= 1e-30:
        return 0.0
    sqrt_u = math.sqrt(u)
    arg = 2.0 * sqrt_u
    gamma_ng = specfun.gamma_int(n_g)
    terms = []
    factorial_m = 1.0
    for m in range(n_h):
        if m > 0:
            factorial_m *= m
        bessel = specfun.bessel_k_int(abs(n_g - m), arg, acc)
        terms.append(2.0 / (factorial_m * gamma_ng) * sqrt_u ** (m + n_g) * bessel)
    survival = math.fsum(terms)
    value = 1.0 - survival
    if value < -1e-9 or value > 1.0 + 1e-9:
        raise NumericError(
            f"product-gamma CDF left [0,1] by more than 1e-9: {value!r} at x={x}"
        )
    return min(1.0, max(0.0, value))


def outage_closed_form(
    alloc: Allocation,
    budgets: list[LinkBudget],
    config: NetworkConfig,
    rate_requirement: float | None = None,
) -> float:
    """Closed-form network outage 1 - prod_k (1 - F_gamma_k(X_k)).

    Exact for channel-independent allocations.  rate_requirement overrides
    config.R_a when given (the config invariant keeps R_a > 0; the limit
    R_a -> 0 is still well-defined here and returns 0).
    """
    if alloc.K != config.K or len(budgets) != config.K:
        raise ConfigError(
            f"allocation/budgets must match K={config.K}, got {alloc.K}/{len(budgets)}"
        )
    R_a = config.R_a if rate_requirement is None else rate_requirement
    survival = 1.0
    for k in range(config.K):
        x_k = snr_threshold(alloc.beta[k], alloc.tau, R_a, alloc.nu_c)
        if math.isinf(x_k):
            return 1.0
        f_k = gamma_product_cdf(
            x_k, budgets[k], config.m_h[k], config.N_c, config.m_g[k], config.N_r
        )
        survival *= 1.0 - f_k
    return 1.0 - survival


def worker_threads(requested: int | None, n_blocks: int, cpus: int | None) -> int:
    """Sampler threads to start: ``min(requested, n_blocks, cpus)``, at least 1.

    ``None`` means single-threaded; an unknown CPU count (``None``) counts
    as one CPU.
    """
    return max(1, min(requested or 1, n_blocks, cpus or 1))


def outage_monte_carlo(
    alloc: Allocation,
    budgets: list[LinkBudget],
    config: NetworkConfig,
    trials: int,
    seed: int,
    rate_requirement: float | None = None,
    threads: int | None = None,
) -> OutageEstimate:
    """Monte-Carlo outage: fraction of blocks with min-rate strictly below R_a.

    Trials are partitioned into fixed 65536-draw blocks, each with its own
    child stream SeedSequence(seed, spawn_key=(block,)); block counts are
    integers summed independent of execution order, so the estimate is
    identical for any thread count.  At most one thread per block and per
    CPU is started (:func:`worker_threads`).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if alloc.K != config.K or len(budgets) != config.K:
        raise ConfigError(
            f"allocation/budgets must match K={config.K}, got {alloc.K}/{len(budgets)}"
        )
    R_a = config.R_a if rate_requirement is None else rate_requirement
    beta = np.asarray(alloc.beta)

    def count_block(block: int) -> int:
        n = min(_MC_BLOCK, trials - block * _MC_BLOCK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        gamma = sample_gamma_matrix(budgets, config, rng, n)
        rates = rate(beta[np.newaxis, :], alloc.tau, gamma, alloc.nu_c)
        return int(np.count_nonzero(rates.min(axis=1) < R_a))

    n_blocks = (trials + _MC_BLOCK - 1) // _MC_BLOCK
    workers = worker_threads(threads, n_blocks, os.cpu_count())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outages = sum(pool.map(count_block, range(n_blocks)))
    else:
        outages = sum(count_block(b) for b in range(n_blocks))

    p = outages / trials
    return OutageEstimate(
        p_out=p, std_err=math.sqrt(p * (1.0 - p) / trials), trials=trials
    )
