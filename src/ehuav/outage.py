"""Rate and outage mathematics.

Per-UAV rate, the SNR outage threshold, the closed-form outage probability
built from the product-of-gammas CDF, and a deterministic Monte-Carlo outage
estimator that serves as the simulation oracle for the analysis.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import specfun
from .channel import LinkBudget, NetworkConfig, sample_gamma_matrix
from .errors import ConfigError, DomainError, NumericError

_MC_BLOCK = 65536  # fixed Monte-Carlo block size; see outage_monte_carlo


@dataclass(frozen=True)
class Allocation:
    """A (tau, beta-vector) resource split plus the signalling share nu_r.

    beta entries must be strictly inside (0,1) for K >= 2; the single-UAV
    case necessarily uses beta = (1,).  The data phase keeps the share
    nu_c = 1 - nu_r of the block.
    """

    tau: float
    beta: tuple[float, ...]
    nu_r: float = 0.0

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

    @property
    def nu_c(self) -> float:
        return 1.0 - self.nu_r

    @property
    def K(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class OutageEstimate:
    """Empirical outage probability with its binomial standard error."""

    p_out: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_out <= 1.0:
            raise ConfigError(f"p_out must lie in [0,1], got {self.p_out}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")

    @property
    def std_err(self) -> float:
        return math.sqrt(self.p_out * (1.0 - self.p_out) / self.trials)


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
    result = _rate(beta_k, tau, gamma_k, nu_c)
    return float(result) if result.ndim == 0 else result


def _rate(beta_k, tau, gamma_k, nu_c):
    """:func:`rate` without its argument checks, for the allocators' loops."""
    eff = beta_k * (1.0 - tau)
    return eff * nu_c * np.log2(1.0 + tau * gamma_k / eff)


def min_rate(alloc: Allocation, gamma) -> tuple[float, int]:
    """Minimum per-UAV rate and its 0-based index (ties: lowest index).

    The allocation checked tau and beta when it was built, so only the
    gains are checked here.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (alloc.K,):
        raise ConfigError(f"gamma must have length K={alloc.K}, got shape {gamma.shape}")
    if np.any(gamma < 0.0):
        raise ConfigError("gamma_k must be >= 0")
    rates = _rate(np.asarray(alloc.beta), alloc.tau, gamma, alloc.nu_c)
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


# Below this normalised threshold u the product-gamma CDF is summed as its
# all-positive lower-tail series; at and above it as one minus the finite
# survival sum, whose cancellation there costs at most ~4e-12 relative for
# shapes up to 12 (worst at u = 60, shapes 12 and 12, where F = 0.034).
# Every fig4 analytic point has u >= 73.
_U_SERIES = 60.0
# A survival-sum value below this is recomputed by the series: with larger
# shapes F can be small at u >= 60, and 1 - survival then loses its digits
# (shapes 30 and 30 at u = 60 give 0.0 for F = 1.5e-17).  F falls as either
# shape grows and rises with u, so shapes up to 12 at u >= 60 have
# F >= F(60; 12, 12) = 0.0344 and keep the survival value.
_F_SERIES = 0.03
# Every series term carries the factor K0 or K1, so their relative error
# passes straight into F; the default 1e-12 stopping tolerance of the K0/K1
# evaluation leaves up to ~2e-12 there.  The survival branch keeps the
# default: its K error enters only as absolute error on 1 - F.
_SERIES_REL_TOL = 1e-16


def gamma_product_cdf(
    x: float,
    budget: LinkBudget,
    m_h: int,
    N_c: int,
    m_g: int,
    N_r: int,
) -> float:
    """CDF of the composite gain gamma = rho * G_h * G_g at x.

    G_h ~ Gamma(n_h = m_h*N_c, lam), G_g ~ Gamma(n_g = m_g*N_r, mu), and
    u = x/(rho*lam*mu).  Two branches, each from one Bessel pass
    (:func:`specfun.bessel_k_orders`) at 2*sqrt(u):

    * ``u >= _U_SERIES`` (60): one minus the finite survival sum
      (2/Gamma(n_g)) sum_{m<n_h} u^((m+n_g)/2) K_{|n_g-m|}(2 sqrt u) / m!,
      with compensated summation (:func:`_survival_cdf`); 1.0 outright for
      u >= 1e6.  Where a power u^((m+n_g)/2) leaves the double range (large
      shapes at large u), it raises :class:`NumericError`.  A value below
      ``_F_SERIES`` (0.03), where the difference has cancelled digits, is
      recomputed by the series (never for shapes up to 12).
    * ``u < _U_SERIES``: the all-positive lower-tail series, summed to a
      bounded index J plus its closed-form remainder R_J
      (:func:`_lower_tail_series`).  It keeps full relative accuracy however
      small F is and underflows to 0.0 only where F itself does.  The larger
      shape plays n_g there, so both shapes must be at most 170 (the range
      of :func:`specfun.gamma_int`); above that the survival sum is used,
      which needs only n_g <= 170.

    Relative error <= 1e-9 against mpmath, Hypothesis properties in the
    test suite: for shapes 1..12 and u in [1e-6, 1e3] (>= 140 correct
    digits; measured worst 4e-12, at the switch on the survival side), and
    for shapes up to 40 and u in [1e-3, 1e3].  Values
    drifting past [0,1] by less than 1e-9 are clamped; larger violations
    raise :class:`NumericError`.
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
    if u == 0.0:
        return 0.0
    if u < _U_SERIES and max(n_h, n_g) <= specfun.GAMMA_INT_MAX:
        value = _lower_tail_series(u, min(n_h, n_g), max(n_h, n_g))
    else:
        value = _survival_cdf(u, n_h, n_g)
        if value < _F_SERIES and max(n_h, n_g) <= specfun.GAMMA_INT_MAX:
            value = _lower_tail_series(u, min(n_h, n_g), max(n_h, n_g))
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise NumericError(
            f"product-gamma CDF left [0,1] by more than 1e-9: {value!r} at x={x}"
        )
    return min(1.0, max(0.0, value))


def _survival_cdf(u: float, n_h: int, n_g: int) -> float:
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


def _lower_tail_series(u: float, n_h: int, n_g: int) -> float:
    """F(u) = sum_{j>=n_h} T_j for shapes n_h <= n_g, all terms positive.

    T_j = (2/Gamma(n_g)) u^((j+n_g)/2) K_{|j-n_g|}(2 sqrt u) / j! is the
    probability that a Gamma(n_g)-mixed Poisson count equals j.  With
    s_v = u^(v/2) K_v(2 sqrt u), which obeys s_{v+1} = u s_{v-1} + v s_v and
    stays below Gamma(v)/2 (no overflow for shapes up to 170),
    T_j = (2/Gamma(n_g)) u^j s_{n_g-j} / j! for j <= n_g.
    Where u^j or s_v/Gamma(n_g) would leave the range of normal doubles
    (large shapes at large u), those terms are taken from their logarithms.
    Above n_g the Bessel recurrence becomes the term recurrence
    T_{j+1} = T_{j-1} u/(j(j+1)) + T_j (j-n_g)/(j+1), run to
    J = ceil(2u) + n_g + 40.  Past J the terms decay only like j^-(n_g+1),
    so their sum is added in closed form: the leading (finite) part of the
    ascending series of K_v (DLMF 10.31.1) telescopes to
    R_J = (u^n_g/Gamma(n_g)) sum_k (-u)^k Gamma(J+1-n_g-k) / (k! (n_g+k) Gamma(J+1)),
    and the rest of those terms is below u^j/((j-n_g)! j!), negligible.
    """
    gamma_ng = specfun.gamma_int(n_g)
    k0, k1 = specfun.bessel_k_orders(1, 2.0 * math.sqrt(u), _SERIES_REL_TOL)
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
    J = math.ceil(2.0 * u) + n_g + 40
    for j in range(n_g, J):
        t_prev, t_cur = t_cur, t_prev * u / (j * (j + 1)) + t_cur * (j - n_g) / (j + 1)
        total += t_cur

    # R_J = sum_{j>J} T_j as the alternating sum over k; its terms shrink
    # at least like 1/k! because J - n_g >= 2u + 40.
    a_k = math.exp(
        n_g * math.log(u) - math.lgamma(n_g) - math.lgamma(J + 1) + math.lgamma(J + 1 - n_g)
    )
    remainder = 0.0
    for k in range(J - n_g):
        term = a_k / (n_g + k)
        remainder += term
        if abs(term) <= 1e-17 * remainder:
            break
        a_k *= -u / ((k + 1) * (J - n_g - k))
    else:
        raise NumericError(f"lower-tail remainder did not converge at u={u}")
    return total + remainder


def outage_closed_form(
    alloc: Allocation,
    budgets: list[LinkBudget],
    config: NetworkConfig,
    rate_requirement: float | None = None,
) -> float:
    """Closed-form network outage 1 - prod_k (1 - F_gamma_k(X_k)).

    Exact for channel-independent allocations.  Composed as
    -expm1(sum_k log1p(-F_k)), which keeps the relative accuracy of small
    F_k (1 - prod loses every digit below 1e-16); each F_k comes from
    :func:`gamma_product_cdf`.  Relative error <= 1e-9 on the benchmark's
    325 reference outages (110-digit mpmath, outages down to ~4e-31).
    An infinite threshold or any F_k == 1 gives 1.0.  rate_requirement
    overrides config.R_a when given (the config invariant keeps R_a > 0;
    the limit R_a -> 0 is still well-defined here and returns 0).
    """
    if alloc.K != config.K or len(budgets) != config.K:
        raise ConfigError(
            f"allocation/budgets must match K={config.K}, got {alloc.K}/{len(budgets)}"
        )
    R_a = config.R_a if rate_requirement is None else rate_requirement
    log_survival = 0.0
    for k in range(config.K):
        x_k = snr_threshold(alloc.beta[k], alloc.tau, R_a, alloc.nu_c)
        if math.isinf(x_k):
            return 1.0
        f_k = gamma_product_cdf(
            x_k, budgets[k], config.m_h[k], config.N_c, config.m_g[k], config.N_r
        )
        if f_k == 1.0:
            return 1.0
        log_survival += math.log1p(-f_k)
    return 0.0 - math.expm1(log_survival)  # 0.0 - 0.0 is +0.0, never -0.0


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

    return OutageEstimate(p_out=outages / trials, trials=trials)
