"""Rate and outage mathematics.

Per-UAV rate, the SNR outage threshold X_k, the closed-form outage
probability P(some gamma_k < X_k) built from the product-of-gammas CDF, and
a deterministic conditional Monte-Carlo estimator of the same event that
serves as the simulation oracle for the analysis.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import K_MAX, LinkBudget, NetworkConfig, integer_at_least
from .errors import ConfigError, NumericError

_LN2 = math.log(2.0)
_MC_BLOCK = 65536  # fixed Monte-Carlo block size; see outage_monte_carlo

# Most Monte-Carlo trials per estimate (15259 blocks): a bound on run time
# for whatever count the caller passes.
MC_TRIALS_MAX = 10**9


def _share_sum(beta) -> float:
    """``math.fsum`` of the shares, or ``inf`` where it raises: a partial
    sum past the double range, or both infinities among the shares."""
    try:
        return math.fsum(beta)
    except (OverflowError, ValueError):
        return math.inf


def _check_split(tau: float, beta) -> None:
    """Raise ConfigError unless ``(tau, beta)`` obeys the rules of every
    resource split (:class:`Allocation`, ``allocation.AllocationResult``):
    tau in (0,1), and K >= 1 shares that sum to 1 within 1e-12, each in
    (0,1), or (0,1] for K=1."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie in (0,1), got {tau}")
    if len(beta) == 0:
        raise ConfigError("beta must be non-empty")
    total = _share_sum(beta)
    if abs(total - 1.0) > 1e-12:
        raise ConfigError(f"beta must sum to 1 within 1e-12, got sum {total!r}")
    if len(beta) == 1:
        inside = 0.0 < beta[0] <= 1.0
    else:
        inside = all([0.0 < b < 1.0 for b in beta])  # NaN fails too
    if not inside:
        beta = tuple(map(float, beta))
        raise ConfigError(f"every beta_k must lie in (0,1) (or (0,1] for K=1), got {beta}")


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
        beta = tuple(map(float, self.beta))
        object.__setattr__(self, "beta", beta)
        _check_split(self.tau, beta)
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
    """Empirical outage probability with a bound on its standard error.

    ``p_out`` is the mean of ``trials`` per-trial values in [0, 1] (the
    conditional outage probabilities of :func:`outage_monte_carlo`).  A
    variable in [0, 1] with mean p has variance at most p (1 - p), so
    ``std_err`` = sqrt(p_out (1 - p_out) / trials) bounds the estimate's
    standard error; it is the binomial one for a 0/1 count.
    """

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


def _rate(eff, c, nu_c=1.0, log2=np.log2):
    """Every rate of the package, unchecked: ``eff = beta * (1 - tau)``,
    ``c = tau * gamma``, on floats or arrays, with the caller's ``log2``
    (``np.log2``, ``math.log2`` or ``allocation._log2_exact``).  Per-draw
    callers pass ``log2`` by position, which CPython calls faster than a
    keyword argument."""
    return eff * nu_c * log2(1.0 + c / eff)


def min_rate(alloc: Allocation, gamma) -> tuple[float, int]:
    """Minimum per-UAV rate and its 0-based index, as ``np.argmin`` picks
    it from the rate array: the first NaN if there is one, else the first
    minimum.

    The allocation checked tau and beta when it was built, so only the
    gains are checked here.  Each rate is one :func:`_rate` call on Python
    floats with the scalar ``np.log2``, which gives the bits of the array
    form (``_rate`` on ``beta * (1 - tau)`` and ``tau * gamma``) that the
    batch sweeps use; numpy's dispatch on K-element arrays would cost more
    than the arithmetic.  A share whose ``beta_k (1 - tau)`` underflows to
    0 gets the array form's NaN rate (``0 * log2(inf)``) without a division
    by zero.
    """
    arr = np.asarray(gamma, dtype=float)
    if arr.shape != (alloc.K,):
        raise ConfigError(f"gamma must have length K={alloc.K}, got shape {arr.shape}")
    tau, nu_c = alloc.tau, alloc.nu_c
    one_minus_tau = 1.0 - tau
    value, worst = math.inf, 0
    for k, (b, g) in enumerate(zip(alloc.beta, arr.tolist())):
        if not g >= 0.0:  # NaN fails too
            raise ConfigError("gamma_k must be >= 0")
        eff = b * one_minus_tau
        r = float(_rate(eff, tau * g, nu_c, np.log2)) if eff else math.nan
        if r < value or (r != r and value == value):
            value, worst = r, k
    return value, worst


def snr_threshold(beta_k: float, tau: float, R_a: float, nu_c: float) -> float:
    """Composite-SNR outage threshold X = beta*(1-tau)/tau * (2^(R_a/(beta*(1-tau)*nu_c)) - 1).

    The outage probability is monotone in X, so minimising X over tau
    maximises reliability.  Below exponent e = 1, 2^e - 1 is computed as
    expm1(e ln2): the subtraction cancels there (0.14 off at e = 1e-15).
    X is then within 10 ulp of its exact value below e = 1 and within
    (4 e ln2 + 6) ulp above, where 2^e magnifies the rounding of e.
    Saturates to +inf where 2^exponent leaves the double range (exponent
    >= 1024: tau or beta at the very edge of their ranges, or a very high
    R_a) and where eff * nu_c underflows to 0 (certain outage); a zero R_a
    gives 0.0 even where eff/tau overflows or eff * nu_c underflows.
    """
    _check_threshold_args(tau, (beta_k,), R_a, nu_c)
    return _threshold(beta_k, tau, R_a, nu_c)


def _check_threshold_args(tau: float, beta, R_a: float, nu_c: float) -> None:
    """Raise the ConfigError of :func:`snr_threshold` for the first argument
    outside its range, in the order tau, each beta_k, R_a, nu_c."""
    if not 0.0 < tau < 1.0:
        raise ConfigError(f"tau must lie in (0,1), got {tau}")
    for beta_k in beta:
        if not 0.0 < beta_k <= 1.0:
            raise ConfigError(f"beta_k must lie in (0,1], got {beta_k}")
    if not R_a >= 0.0:  # NaN fails too
        raise ConfigError(f"R_a must be >= 0, got {R_a}")
    if not nu_c > 0.0:
        raise ConfigError(f"nu_c must be > 0, got {nu_c}")


def _threshold(beta_k: float, tau: float, R_a: float, nu_c: float) -> float:
    """:func:`snr_threshold` on arguments already checked."""
    eff = beta_k * (1.0 - tau)
    if eff * nu_c == 0.0:  # the data share underflows: no positive rate fits
        return math.inf if R_a > 0.0 else 0.0
    exponent = R_a / (eff * nu_c)
    if exponent >= 1024.0:  # 2.0 ** 1024.0 raises OverflowError
        return math.inf
    z = math.expm1(exponent * _LN2) if exponent < 1.0 else 2.0 ** exponent - 1.0
    if z == 0.0:
        return 0.0
    return eff / tau * z


# Up to this normalised threshold u the product-gamma CDF is summed as its
# ascending residue expansion, with no Bessel function.  On a 2-core Xeon,
# with its shape pair's table built, it takes 1-5 us per call up to u = 3
# for shapes up to 12 (1-9 us up to 170) against 12-21 us for the lower-tail
# series, and is still the faster at u = 6 (3-4 us against 13-14 us; the
# series' own table takes about a fifth off those); but it
# cancels as u grows: against mpmath, for shapes up to 170, its worst
# relative error measured 3.8e-14 up to u = 3 (6900 random points),
# 6.6e-14 on (3, 4.38], 4.4e-13 on (4.38, 6] and 5.2e-12 on (6, 9] (600
# each).  The cutover stays below 4.38, the smallest u of any analytic
# point of configs/fig4_r05.yaml, so that sweep keeps its series values.
_U_ASCENDING = 3.0
# Below this normalised threshold u the product-gamma CDF is summed as its
# all-positive lower-tail series; at and above it as one minus the finite
# survival sum, whose cancellation there costs at most ~5e-15 relative for
# shapes up to 12 (measured worst near u = 65, shapes 12 and 12, F = 0.05).
# Every fig4 analytic point has u >= 73.
_U_SERIES = 60.0
# A survival-sum value below this is recomputed by the series: with larger
# shapes F can be small at u >= 60, and 1 - survival then loses its digits
# (shapes 30 and 30 at u = 60 give 0.0 for F = 1.5e-17).  F falls as either
# shape grows and rises with u, so shapes up to 12 at u >= 60 have
# F >= F(60; 12, 12) = 0.0344 and keep the survival value.
_F_SERIES = 0.03
# Every series term carries K0(2 sqrt u), so the series keeps its digits
# only while K0 is a normal double, below u = 124377: shapes (27, 107) at
# u = 1.3e5, where K0 is subnormal, came out 5.2e-10 off relative.
_U_SERIES_MAX = 1.24e5
_NORMAL_MIN = sys.float_info.min
# Tables of each kind kept at once (_ascending_table, _series_table,
# _survival_table): every shape pair of a scenario, at most K_MAX UAVs, and
# as many again.  Each table is built on its pair's first call, never at
# import, and the least recently used one goes first.
_ASCENDING_PAIRS = 2 * K_MAX
_shape_table = functools.lru_cache(maxsize=_ASCENDING_PAIRS)
# Rows of an ascending table: at u = _U_ASCENDING the stop rule fires within
# 17 rows for every pair of shapes up to 170 (324 pairs, among them (2, 2)
# and (170, 170), need all 17).
_ASCENDING_ROWS = 24
# Rows of a series table, J - n_g = 0 .. 127: below u = _U_SERIES the series
# stops by J = n_g + 120 (at most ten rows past n_g + ceil(2u)); rows past
# the table are made as they are needed, by the same operations.
_SERIES_ROWS = 128


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
    u = x/(rho*lam*mu).  Three branches:

    * ``u <= _U_ASCENDING`` (3): the ascending residue expansion of the
      CDF's Meijer-G form, with no Bessel function (:func:`_ascending_cdf`).
    * ``_U_ASCENDING < u < _U_SERIES`` (60): the all-positive lower-tail
      series, stopped by a proven bound (:func:`_lower_tail_series`).
    * ``u >= _U_SERIES``: one minus the finite survival sum
      (2/Gamma(n_g)) sum_{m<n_h} u^((m+n_g)/2) K_{|n_g-m|}(2 sqrt u) / m!,
      with compensated summation (:func:`_survival_cdf`); 1.0 outright for
      u >= 1e6.  A value below ``_F_SERIES`` (0.03), where the difference
      has cancelled digits, is recomputed by the series (never for shapes
      up to 12), and so is a point where a power u^((m+n_g)/2) leaves the
      double range (large shapes at large u).

    The shapes are those :data:`channel.NETWORK_RULES` accepts: m_h, N_c,
    m_g and N_r integers >= 1 (3.0 counts) with n_h and n_g at most 170,
    the range of :func:`specfun.gamma_int`; anything else is a
    :class:`ConfigError`.  The survival sum takes every Bessel order it
    needs from one :func:`specfun.bessel_k_orders` pass at 2*sqrt(u), and
    the series K0 and K1 from that pass's unchecked core.  Each branch reads
    what does not depend on u from a per-shape table built on first use.
    The first two branches keep full relative accuracy however
    small F is and underflow to 0.0 only where F does.  The series serves
    only below ``_U_SERIES_MAX`` (1.24e5), where K0(2 sqrt u) is a normal
    double.  Where the survival sum overflows and the series cannot serve,
    :class:`NumericError` names u and both shapes.  Where rho*lam*mu leaves
    the normal doubles, u is formed without that product (an overflowing u
    gives 1.0).

    Relative error against mpmath, Hypothesis properties in the test suite:
    <= 1e-9 for shapes 1..12 and u in [1e-6, 1e3] (measured worst 3e-14, on
    the series near F = 1) and for shapes up to 40 and u in [1e-3, 1e3];
    <= 1e-12 on the series for shapes up to 40 and u in [1e-6, 60), and on
    the ascending expansion for shapes up to 170 and u in [1e-6, 3]
    (measured worst 3.8e-14).  Values drifting past [0,1] by less than 1e-9
    are clamped; larger violations raise :class:`NumericError`.  A NaN x is
    a :class:`ConfigError`, as a negative one is.
    """
    if not x >= 0.0:  # NaN fails too
        raise ConfigError(f"gamma_product_cdf requires x >= 0, got {x}")
    try:  # NaN and inf leave a NaN remainder, and a non-number raises
        whole = m_h % 1 == N_c % 1 == m_g % 1 == N_r % 1 == 0
    except TypeError:
        whole = False
    n_max = specfun.GAMMA_INT_MAX
    if not (whole and m_h >= 1 and N_c >= 1 and m_g >= 1 and N_r >= 1
            and m_h * N_c <= n_max and m_g * N_r <= n_max):
        raise ConfigError(
            f"shapes must be integers >= 1 with m_h*N_c and m_g*N_r <= {n_max}, "
            f"got m_h={m_h}, N_c={N_c}, m_g={m_g}, N_r={N_r}"
        )
    return _product_cdf(x, budget, int(m_h * N_c), int(m_g * N_r))


def _normalised(x: float, budget: LinkBudget) -> float:
    """u = x / (rho*lam*mu), the threshold over the gain's scale, as both
    estimators read it.  Where that product is not a normal double,
    x's and each factor's binary mantissas are divided and their exponents
    subtracted, so u is rounded three times and an overflow gives inf."""
    scale = budget.rho * budget.lam * budget.mu
    if _NORMAL_MIN <= scale < math.inf:
        return x / scale
    mantissa, exponent = math.frexp(x)
    for factor in (budget.rho, budget.lam, budget.mu):
        m, e = math.frexp(factor)
        mantissa, exponent = mantissa / m, exponent - e
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def _product_cdf(x: float, budget: LinkBudget, n_h: int, n_g: int) -> float:
    """:func:`gamma_product_cdf` at x >= 0 for integer shapes n_h, n_g in
    [1, 170], unchecked: u from :func:`_normalised`, the branch dispatch
    and the clamp."""
    u = _normalised(x, budget)
    if u <= _U_ASCENDING:
        if u == 0.0:
            return 0.0
        value = _ascending_cdf(u, n_h, n_g) if n_h <= n_g else _ascending_cdf(u, n_g, n_h)
    elif u >= 1e6:
        # exp(-2*sqrt(u)) < 1e-868 crushes every polynomial factor; the
        # survival sum is far below double resolution, but its power-of-u
        # prefactors would overflow if evaluated.
        return 1.0
    else:
        value = None
        if u >= _U_SERIES:
            try:
                value = _survival_cdf(u, n_h, n_g)
            except NumericError:  # a power of u past the double range
                if u >= _U_SERIES_MAX:  # and the series cannot serve
                    raise
        if value is None or (value < _F_SERIES and u < _U_SERIES_MAX):
            value = _lower_tail_series(u, min(n_h, n_g), max(n_h, n_g))[0]
    if 0.0 < value <= 1.0:
        return value
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise NumericError(
            f"product-gamma CDF left [0,1] by more than 1e-9: {value!r} at x={x}"
        )
    return min(1.0, max(0.0, value))


@_shape_table
def _ascending_table(a: int, b: int, length: int) -> tuple:
    """What :func:`_ascending_cdf` needs of shapes a <= b without u:
    ``(coefficients, w0, ratio, shift, rows)``.

    ``coefficients`` are the k-terms' (-1)^k Gamma(d-k) / (Gamma(d) k! (a+k)),
    k = d-1 down to 0, each rounded once from exact integers; ``w0`` is
    1 / (Gamma(d) d!), 1 at d = 0; ``ratio`` and ``shift`` scale
    Gamma(d) / (Gamma(a) Gamma(b)) = ratio 2^-shift with ratio in [0.5, 2).
    Row j of the ``length`` rows is ``((-1)^d/(b+j), psi(j+1) + psi(d+j+1) +
    1/(b+j), 1/((j+1)(d+j+1)), 4/(j+1), 2^61/(b+j))``, the digammas carried
    from -2 gamma as running harmonic sums, so a longer table repeats a
    shorter one's rows.
    """
    d = b - a
    top = math.factorial(max(d, 1) - 1)  # Gamma(d), read as 1 at d = 0
    coefficients = tuple(
        (-1) ** k * math.factorial(d - 1 - k) / (top * math.factorial(k) * (a + k))
        for k in reversed(range(d))
    )
    w0 = 1 / (top * math.factorial(d))
    sign = -1.0 if d & 1 else 1.0
    den = math.factorial(a - 1) * math.factorial(b - 1)
    shift = den.bit_length() - top.bit_length()
    harmonic = -2.0 * specfun._EULER_GAMMA
    for k in range(1, d + 1):
        harmonic += 1.0 / k
    rows = []
    for j in range(length):
        inv = 1.0 / (b + j)
        rows.append((sign * inv, harmonic + inv, 1.0 / ((j + 1) * (d + j + 1)),
                     4.0 / (j + 1), 2.0**61 * inv))
        harmonic += 1.0 / (j + 1) + 1.0 / (d + j + 1)
    return coefficients, w0, (top << shift) / den, shift, tuple(rows)


def _ascending_cdf(u: float, a: int, b: int, length: int = _ASCENDING_ROWS) -> float:
    """F(u) for shapes a <= b <= 170 from the residue expansion of its
    Meijer-G form, G^{2,1}_{1,3}(u | 1; a, b, 0) / (Gamma(a) Gamma(b)).

    With d = b - a, its residues, simple for k < d and double from j = 0 on,
    give
    F = [sum_{k<d} (-1)^k Gamma(d-k) u^(a+k) / (k! (a+k))
         + (-1)^d sum_{j>=0} u^(b+j) B_j / (j! (d+j)! (b+j))] / (Gamma(a) Gamma(b)),
    B_j = psi(j+1) + psi(d+j+1) + 1/(b+j) - ln u, with psi(m) = -gamma + H_{m-1}.
    Both sums are taken relative to P = Gamma(d) u^a / (Gamma(a) Gamma(b))
    (Gamma(0) read as 1): the k-terms are (-1)^k r_k / (a+k),
    r_k = Gamma(d-k) u^k / (Gamma(d) k!), summed in full as a polynomial in
    u by Horner's rule, and the j-terms (-1)^d w_j B_j / (b+j), with
    w_j = u^(d+j) / (Gamma(d) j! (d+j)!).

    Everything here that does not depend on u comes from one table per
    shape pair, :func:`_ascending_table`, built on the pair's first call (never
    at import) and kept while it is among the last ``_ASCENDING_PAIRS``
    tables used: the polynomial's coefficients, w_0 / u^d, the prefactor's
    exact ratio, and per row j the signed reciprocal (-1)^d/(b+j), the
    constant part of B_j, the term-ratio factor 1/((j+1)(d+j+1)) and the
    bound's 4/(j+1) and 2^61/(b+j).  Its ``_ASCENDING_ROWS`` rows suffice for
    every pair up to u = ``_U_ASCENDING``; a sum whose stop rule has not
    fired by the last row is summed again on a table twice as long, so the
    value never depends on the table's length.

    The j-sum stops at the first J where rho = u / ((J+1)(d+J+1)), the ratio
    w_{J+1} / w_J (falling with J), is at most 1/2 and
    w_J rho (2 |B_J| + 8/(J+1)) / (b+J) <= 2^-60 |S_J|, S_J the sum so far.
    B_j rises by at most 2/(J+1) per step from J on, so
    |B_{J+i}| <= |B_J| + 2i/(J+1) and the terms left out total at most
    (w_J / (b+J)) sum_{i>=1} rho^i (|B_J| + 2i/(J+1)), which that bound
    covers with rho/(1-rho) <= 2 rho and rho/(1-rho)^2 <= 4 rho.

    P is formed from u's binary mantissa and exponent and the exact integer
    factorials, with no logarithm, so F keeps full relative accuracy down to
    underflow.  The sums cancel as u grows (B_j changes sign, and the k-terms
    alternate): see ``_U_ASCENDING`` for the measured error.
    """
    coefficients, w, ratio, shift, rows = _ascending_table(a, b, length)
    log_u = math.log(u)
    total = 0.0
    for c in coefficients:
        total = total * u + c
    w *= u ** (b - a)  # w_0; the rows carry the sign (-1)^d
    for signed_inv, constant, step, four, bound in rows:
        bracket = constant - log_u
        total += w * bracket * signed_inv
        rho = u * step
        if rho <= 0.5:
            rest = w * rho * (abs(bracket) + four) * bound  # 2^60 x the bound
            if rest <= total or rest <= -total:
                break
        w *= rho
    else:  # the stop rule has not fired within the table's rows
        return _ascending_cdf(u, a, b, 2 * length)

    # P = m^a 2^(e a) ratio 2^-shift with u = m 2^e (m in [0.5, 1), so
    # m^a >= 2^-170) and ratio = Gamma(d)/(Gamma(a) Gamma(b)) 2^shift in
    # [0.5, 2) rounded once from the exact integers: no factor leaves the
    # normal doubles before the one ldexp, which rounds only a subnormal F.
    mantissa, exponent = math.frexp(u)
    return math.ldexp(mantissa**a * ratio * total, exponent * a - shift)


@_shape_table
def _survival_table(n_h: int, n_g: int) -> tuple:
    """What :func:`_survival_cdf` needs of shapes n_h, n_g without u:
    ``(order, gamma_ng, finite, overflowing)``.

    ``order`` is the highest Bessel order the sum reads,
    max(n_g, n_h - 1 - n_g), and ``gamma_ng`` is Gamma(n_g).  Term m has the
    row ``(m + n_g, |n_g - m|, c_m)``: the power's exponent, the Bessel
    index and c_m = 2 / (m! Gamma(n_g)), with m! the running float product
    1 * 2 * ... * m.  Where m! Gamma(n_g) leaves the double range (n_g near
    170) the row goes to ``overflowing`` with c_m = 2 / m!, and its term
    divides the power by Gamma(n_g) instead; m! grows with m, so those rows
    are the last ones.
    """
    gamma_ng = specfun.gamma_int(n_g)
    finite, overflowing = [], []
    factorial_m = 1.0
    for m in range(n_h):
        if m > 0:
            factorial_m *= m
        denominator = factorial_m * gamma_ng
        if denominator < math.inf:
            finite.append((m + n_g, abs(n_g - m), 2.0 / denominator))
        else:
            overflowing.append((m + n_g, abs(n_g - m), 2.0 / factorial_m))
    return max(n_g, n_h - 1 - n_g), gamma_ng, tuple(finite), tuple(overflowing)


def _survival_cdf(u: float, n_h: int, n_g: int) -> float:
    """F(u) = 1 - (2/Gamma(n_g)) sum_{m<n_h} u^((m+n_g)/2) K_{|n_g-m|}(2 sqrt u) / m!.

    Term m is c_m sqrt(u)^(m+n_g) K_{|n_g-m|}(2 sqrt u), with c_m, the
    exponent and the Bessel index read from the pair's table,
    :func:`_survival_table` (kept as the ascending tables are); every order
    comes from one :func:`specfun.bessel_k_orders` pass at 2 sqrt(u), and
    the terms are added by ``math.fsum``.  A power past the double range is
    a :class:`NumericError` naming u and both shapes.
    """
    order, gamma_ng, finite, overflowing = _survival_table(n_h, n_g)
    sqrt_u = math.sqrt(u)
    bessel = specfun.bessel_k_orders(order, 2.0 * sqrt_u)
    try:
        terms = [c * sqrt_u ** e * bessel[v] for e, v, c in finite]
        terms += [c * (sqrt_u ** e / gamma_ng) * bessel[v] for e, v, c in overflowing]
    except OverflowError:  # sqrt_u ** (m + n_g) past the double range
        raise NumericError(
            f"product-gamma survival sum overflows at u={u!r} "
            f"for shapes n_h={n_h}, n_g={n_g}"
        ) from None
    return 1.0 - math.fsum(terms)


def _series_row(n_g: int, i: int) -> tuple:
    """Row J = n_g + i of the series recurrence for shape n_g:
    ``(J (J+1), J - n_g, J + 1, (J+3-n_g)/(J+2), (J+1)(J+1-n_g))``, the
    integers as (exact) floats and the Markov factor rounded once."""
    J = n_g + i
    return float(J * (J + 1)), float(i), float(J + 1), (i + 3) / (J + 2), float((J + 1) * (i + 1))


def _remainder_row(n_g: int, k: int) -> tuple:
    """Row k of the series remainder for shape n_g: ``(n_g + k, k + 1,
    k (k+1))`` as (exact) floats."""
    return float(n_g + k), float(k + 1), float(k * (k + 1))


@_shape_table
def _series_table(n_g: int) -> tuple:
    """What :func:`_lower_tail_series` needs of shape n_g without u:
    ``(gamma_ng, factorials, log_factorials, rows, steps)``.

    ``gamma_ng`` is Gamma(n_g); ``factorials[j]`` is j! for j <= n_g,
    rounded once from the exact integer; ``log_factorials[i]`` is
    lgamma(i + 1) for i <= n_g + _SERIES_ROWS; ``rows`` and ``steps`` are
    the first ``_SERIES_ROWS`` rows of :func:`_series_row` and
    :func:`_remainder_row`.  None of it depends on the other shape, so one
    table serves every n_h.
    """
    factorials = tuple(float(math.factorial(j)) for j in range(n_g + 1))
    log_factorials = tuple(math.lgamma(i + 1) for i in range(n_g + _SERIES_ROWS + 1))
    rows = tuple(_series_row(n_g, i) for i in range(_SERIES_ROWS))
    steps = tuple(_remainder_row(n_g, k) for k in range(_SERIES_ROWS))
    return specfun.gamma_int(n_g), factorials, log_factorials, rows, steps


def _table_rows(table: tuple, row, n_g: int, count: int):
    """Rows 0 .. count - 1 of a series table: a slice of ``table``, followed
    by rows made by ``row(n_g, i)`` where ``count`` lies past it."""
    if count <= len(table):
        return table[:count]
    return itertools.chain(table, map(row, itertools.repeat(n_g), range(len(table), count)))


def _log_factorial(table: tuple, i: int) -> float:
    """lgamma(i + 1): from ``table`` where it reaches i, else computed."""
    return table[i] if i < len(table) else math.lgamma(i + 1)


def _lower_tail_series(u: float, n_h: int, n_g: int) -> tuple[float, int]:
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

    Everything here that does not depend on u comes from n_g's table,
    :func:`_series_table` (kept as the ascending tables are): Gamma(n_g),
    the factorials j! and the log-factorials lgamma(i + 1); per J the
    recurrence's integer operands J (J+1), J - n_g and J + 1, the Markov
    factor (J+3-n_g)/(J+2) by which A_J falls and the B-loop's divisor
    (J+1)(J+1-n_g); and per k the remainder's n_g + k, k + 1 and k (k+1),
    from which its divisor (k+1)(V-k) is formed exactly.  Its
    ``_SERIES_ROWS`` rows cover every J below u = ``_U_SERIES``; rows and
    log-factorials past the table (the series also serves larger u, up to
    ``_U_SERIES_MAX``) are computed as they are needed by the same
    operations, so no value depends on the table's length.  K0 and K1 come
    from the unchecked core of :func:`specfun.bessel_k_orders`.
    """
    gamma_ng, factorials, log_factorials, rows, steps = _series_table(n_g)
    sqrt_u = math.sqrt(u)
    k0, k1 = specfun._bessel_k01(2.0 * sqrt_u)
    s_prev, s_cur = k0, sqrt_u * k1  # s_0, s_1
    scaled = [s_prev, s_cur]  # scaled[v] = s_v for v <= n_g - n_h
    for v in range(1, n_g - n_h):
        s_prev, s_cur = s_cur, u * s_prev + v * s_cur
        scaled.append(s_cur)

    # T_j for j from min(n_h, n_g - 1) to n_g: the sum's low terms, and the
    # recurrence's start T_{n_g-1}, T_{n_g}.
    low = range(min(n_h, n_g - 1), n_g + 1)
    log_u = math.log(u)
    if n_g * log_u < 700.0 and 2.0 * min(scaled) / gamma_ng >= sys.float_info.min:
        terms = [2.0 * scaled[n_g - j] / gamma_ng * (u ** j / factorials[j]) for j in low]
    else:  # u^j or s_v / Gamma(n_g) would leave the double range
        log_gamma_ng = log_factorials[n_g - 1]
        terms = [math.exp(math.log(2.0 * scaled[n_g - j]) + j * log_u - log_gamma_ng
                          - log_factorials[j]) for j in low]
    total = math.fsum(terms[n_h - low.start:])
    t_prev, t_cur = terms[-2:]
    log_scale = n_g * log_u - log_factorials[n_g - 1]  # log(u^n_g / Gamma(n_g))
    cut_from = n_g + math.ceil(2.0 * u)
    # A_J never rises with J and S_J <= F <= 1, so where 2^60 A_J is above 2
    # at J = cut_from - 1 the Markov rule cannot stop the sum before cut_from.
    last = (log_scale - log_u + _log_factorial(log_factorials, cut_from + 1 - n_g)
            - _log_factorial(log_factorials, cut_from))
    if 2.0**60 * math.exp(last) > 2.0:
        for jj, jn, j1, _, _ in _table_rows(rows, _series_row, n_g, cut_from - n_g):
            t_prev, t_cur = t_cur, t_prev * u / jj + t_cur * jn / j1
            total += t_cur
    else:
        tail = 2.0**61 * math.exp(log_scale - log_u - log_factorials[n_g + 1])  # 2^60 A_J
        markov_rows = _table_rows(rows, _series_row, n_g, cut_from - n_g)
        for J, (jj, jn, j1, markov, _) in enumerate(markov_rows, n_g):
            if tail <= total:
                return total, J
            t_prev, t_cur = t_cur, t_prev * u / jj + t_cur * jn / j1
            total += t_cur
            tail *= markov

    J = cut_from
    log_w = (log_scale + (J - n_g) * log_u - _log_factorial(log_factorials, J)
             - _log_factorial(log_factorials, J - n_g))
    cut = 2.0**60 * math.exp(log_w) * (1.0 + 1.65 * (2.16 + abs(log_u) + math.log(J + 1))) / J
    while cut > total:  # 2^60 B_J
        i = J - n_g
        jj, jn, j1, _, following = rows[i] if i < len(rows) else _series_row(n_g, i)
        t_prev, t_cur = t_cur, t_prev * u / jj + t_cur * jn / j1
        total += t_cur
        J += 1
        cut *= u / following

    a_k = math.exp(log_scale - _log_factorial(log_factorials, J)
                   + _log_factorial(log_factorials, J - n_g))
    remainder = 0.0
    neg_u, width = -u, float(J - n_g)
    for shifted, k_plus, k_times in _table_rows(steps, _remainder_row, n_g, J - n_g):
        term = a_k / shifted  # n_g + k
        remainder += term
        if abs(term) <= 1e-17 * remainder:
            break
        a_k *= neg_u / (k_plus * width - k_times)  # (k+1) V - k (k+1) < 2^53, exact
    return total + remainder, J


def _thresholds(alloc, budgets, config, rate_requirement) -> list[float]:
    """Every X_k = snr_threshold(beta_k, tau, R_a, nu_c), R_a from
    rate_requirement if given, else config.R_a: what both estimators read.
    The arguments shared by every UAV are checked once."""
    if alloc.K != config.K or len(budgets) != config.K:
        raise ConfigError(
            f"allocation/budgets must match K={config.K}, got {alloc.K}/{len(budgets)}"
        )
    R_a = config.R_a if rate_requirement is None else rate_requirement
    tau, beta, nu_c = alloc.tau, alloc.beta, alloc.nu_c
    _check_threshold_args(tau, beta, R_a, nu_c)
    return [_threshold(b, tau, R_a, nu_c) for b in beta]


def outage_closed_form(
    alloc: Allocation,
    budgets: list[LinkBudget],
    config: NetworkConfig,
    rate_requirement: float | None = None,
) -> float:
    """Closed-form network outage 1 - prod_k (1 - F_gamma_k(X_k)).

    Exact for channel-independent allocations.  Composed as
    -expm1(sum_k log1p(-F_k)), which keeps the relative accuracy of small
    F_k (1 - prod loses every digit below 1e-16); each F_k comes from the
    unchecked core of :func:`gamma_product_cdf`, as the config's shapes
    passed the same rule.  Relative error at most 1.1e-14 (measured)
    on the benchmark's 325 reference outages (110-digit mpmath, outages down
    to ~4e-31).
    An infinite threshold or any F_k == 1 gives 1.0.  rate_requirement
    overrides config.R_a when given (the config invariant keeps R_a > 0;
    the limit R_a -> 0 is still well-defined here and returns 0).
    """
    log_survival = 0.0
    for k, x_k in enumerate(_thresholds(alloc, budgets, config, rate_requirement)):
        f_k = _product_cdf(x_k, budgets[k], config.m_h[k] * config.N_c, config.m_g[k] * config.N_r)
        if f_k == 1.0:
            return 1.0
        log_survival += math.log1p(-f_k)
    return 0.0 - math.expm1(log_survival)  # 0.0 - 0.0 is +0.0, never -0.0


# Past this y, Q(n, y) = e^-y sum_{i<n} y^i / i! is below 1e-127 for every
# shape n <= 170 (and still falls with y), so 1 - Q rounds to 1.0; at it,
# e^-y is a normal double and the sum, below e^y, is finite.
_Y_CAP = 700.0
# A trial's survival at most this is an outage to the last bit: 1 - s
# rounds to 1.0 (2^-54 is half an ulp below 1), and every later column
# only multiplies s by a Q in [0, 1].
_SATURATED = 2.0**-54


@_shape_table
def _poisson_coefficients(n: int) -> tuple:
    """1/i! for i = n-1 down to 0, each rounded once from the exact integer:
    the Horner coefficients of :func:`_gamma_survival` for shape n."""
    return tuple(1 / math.factorial(i) for i in reversed(range(n)))


def _gamma_survival(y: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Q(n, y) = P(Gamma(n, 1) > y) = e^-y sum_{i<n} y^i / i! into ``out``,
    for an integer shape n in [1, 170] and y >= 0 (inf included).

    y is capped at ``_Y_CAP`` in place and then overwritten with e^-y; the
    sum is taken by Horner's rule from the shape's coefficient table,
    :func:`_poisson_coefficients`, and the value is clamped to at most 1.
    Term i of the sum carries at most 2i + 1 roundings of Horner's rule and
    one of its coefficient; the exponential (within 1.07 * 2^-53 relative
    against mpmath, counted as 2), the product and the caller's 1 - Q add
    at most 3.5 more.  To first order in 2^-53 the computed 1 - Q is off
    by at most (2 y P(N <= n-2) + 6) 2^-53 <= (2n + 4) 2^-53, N Poisson
    with mean y.  The worst measured against mpmath is 17 * 2^-53 (n = 170
    near y = 148), inside (n + 3) 2^-53 at every shape tested.
    """
    np.minimum(y, _Y_CAP, out=y)
    coefficients = _poisson_coefficients(n)
    out.fill(coefficients[0])
    for c in coefficients[1:]:
        out *= y
        out += c
    np.negative(y, out=y)
    np.exp(y, out=y)
    out *= y
    return np.minimum(out, 1.0, out=out)


def outage_monte_carlo(
    alloc: Allocation,
    budgets: list[LinkBudget],
    config: NetworkConfig,
    trials: int,
    seed: int,
    rate_requirement: float | None = None,
) -> OutageEstimate:
    """Conditional Monte-Carlo outage: the mean over trials of the
    probability, given one hop's gain per UAV, that some UAV's composite
    gain gamma_k is strictly below its SNR threshold X_k.

    The thresholds are the list :func:`outage_closed_form` reads, so both
    estimate the same event; a negative or NaN R_a raises the
    :class:`ConfigError` of :func:`snr_threshold`.  The rate is increasing
    in the gain, so this is the event "minimum rate < R_a".  With
    u_k = X_k / (rho lam mu) from :func:`_normalised`, UAV k is in outage
    when S_h S_g < u_k.  Each trial draws only the hop S with the larger
    shape; given S, the other hop (shape n, the smaller) is below
    y_k = u_k / S with probability 1 - Q(n, y_k), a finite sum
    (:func:`_gamma_survival`).  The UAVs are independent, so the trial's
    value is 1 - prod_k Q(n_k, y_k), a number in [0, 1] whose mean is the
    outage; by Rao-Blackwell its variance is never above the crude 0/1
    count's.  X_k = 0 (u_k = 0) makes Q = 1 and draws nothing; X_k = inf
    makes Q(n, _Y_CAP), so 1 - Q is exactly 1.

    Trials are drawn in fixed 65536-draw blocks.  Block b samples from its
    own child stream SeedSequence(seed, spawn_key=(b,)), so a given
    (seed, trials) always gives the same estimate.  Each UAV's hop is drawn
    with ``standard_gamma`` into a reused block-long buffer and folded into
    the trials' running survival prod_k Q_k as it comes, so no (block, K)
    matrix is formed and memory stays three block buffers whatever K and
    ``trials`` are.  A block stops drawing once every trial's survival is
    at most ``_SATURATED`` (2^-54): from there its 1 - survival rounds to
    1.0 whatever the later columns give.  ``trials`` must be an integer in
    ``[1, MC_TRIALS_MAX]`` and ``seed`` an integer >= 0 (3.0 counts for
    either); anything else is a :class:`ConfigError` naming the argument.
    """
    if not 1 <= trials <= MC_TRIALS_MAX:
        raise ConfigError(f"trials must lie in [1, {MC_TRIALS_MAX}], got {trials}")
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if not integer_at_least(value, least):
            raise ConfigError(f"{name} must be an integer >= {least}, got {value}")
    trials, seed = int(trials), int(seed)
    hops = []  # (u_k, drawn shape, summed shape) of every UAV with u_k > 0
    for k, x_k in enumerate(_thresholds(alloc, budgets, config, rate_requirement)):
        u = _normalised(x_k, budgets[k])
        if u != 0.0:
            n_h, n_g = config.m_h[k] * config.N_c, config.m_g[k] * config.N_r
            hops.append((u, max(n_h, n_g), min(n_h, n_g)))
    size = min(trials, _MC_BLOCK)
    drawn, survival, q = np.empty(size), np.empty(size), np.empty(size)
    total = 0.0
    for block in range((trials + _MC_BLOCK - 1) // _MC_BLOCK):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        n = min(_MC_BLOCK, trials - block * _MC_BLOCK)
        y, alive = drawn[:n], survival[:n]
        alive.fill(1.0)
        for u, drawn_shape, summed_shape in hops:
            rng.standard_gamma(drawn_shape, size=n, out=y)
            np.divide(u, y, out=y)
            alive *= _gamma_survival(y, summed_shape, q[:n])
            if alive.max() <= _SATURATED:
                break
        total += float(np.subtract(1.0, alive, out=alive).sum())
    return OutageEstimate(p_out=total / trials, trials=trials)
