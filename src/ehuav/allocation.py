"""Time/bandwidth allocation strategies and their iteration accounting.

Four allocators share the same max-min-rate objective:

* :func:`equal_bandwidth_taf` - closed form (Lambert-W) optimum of the
  time split when every UAV gets the same bandwidth share;
* :func:`proposed_allocate` - two-phase scheme: bisection on the sign of
  the min-rate derivative for the time split, then pairwise bandwidth
  transfers from the fastest to the slowest UAV;
* :func:`conventional_allocate` - nested-bisection baseline (outer
  bisection on a common target rate, inner per-UAV bisections);
* :func:`exhaustive_optimal` - optimum over a grid of time splits and
  the simplex of equal-step bandwidth shares (small K only).  It returns
  what visiting every grid point would, without visiting them: where each
  UAV's rate is non-decreasing in its share, the best worst-case rate at
  a time split is an order statistic of the K per-UAV rate tables.

Every allocator reports an abstract operation tally (``op_count``) so the
complexity claims can be compared empirically.

Every allocator works on the full block.  Each rate scales linearly with
the data-phase share ``nu_c``, so the max-min point does not depend on it,
and the rates here are those at ``nu_c = 1``.  The signalling is charged
afterwards: :func:`ehuav.experiments.overhead_share` gives the share
``nu_r`` that :meth:`AllocationResult.as_allocation` attaches.

The two-phase scheme, the nested baseline and the equal split also come in
batch forms (``*_batch``) that take a ``(T, K)`` matrix of channel draws and
replay the per-draw algorithm on every row at once: the same brackets,
stopping tests, operation order and tallies, so row ``t`` of the result
equals the per-draw call on ``gains[t]`` bit for bit.  The per-draw forms
serve one draw at a time (a batch of one costs more than a per-draw call)
and are the reference the batch forms are tested against.  They do their
scalar work on Python floats: phase 1 bisects the rate slope of the one
UAV with the smallest gain, phase 2 recomputes only the two rates an
update changes, and the baseline's inner bisections read the gains from a
list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import EPSILON_RULE, check
from .errors import CapabilityError, ConfigError, EhuavError, NumericError
from .outage import Allocation
from .specfun import lambert_w0

_LN2 = math.log(2.0)

# Tau rows of the grid search are evaluated in blocks of at most this many
# rate-table entries (rows x K x share steps), which bounds its memory.
_GRID_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class AllocationResult:
    """Converged allocation plus the iteration/operation bookkeeping.

    ``inner_iters_beta`` is only populated by the nested-bisection
    baseline (total inner-loop count across all outer iterations); the
    other allocators report 0 there.
    """

    tau: float
    beta: tuple[float, ...]
    iters_tau: int
    iters_beta: int
    inner_iters_beta: int
    op_count: int

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0,1), got {self.tau}")
        if abs(math.fsum(self.beta) - 1.0) > 1e-12:
            raise ConfigError(
                f"beta must sum to 1 within 1e-12, got {math.fsum(self.beta)!r}"
            )
        for name in ("iters_tau", "iters_beta", "inner_iters_beta", "op_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def K(self) -> int:
        return len(self.beta)

    def as_allocation(self, nu_r: float = 0.0) -> Allocation:
        """Package the converged (tau, beta) with a protocol-overhead share."""
        return Allocation(tau=self.tau, beta=self.beta, nu_r=nu_r)


@dataclass(frozen=True)
class BatchAllocation:
    """Per-draw allocations of a ``(T, K)`` draw matrix, one row per draw.

    ``tau`` and the four tallies have shape ``(T,)`` (tallies as int64),
    ``beta`` has shape ``(T, K)``.  Every row passed the checks of
    :class:`AllocationResult`; :meth:`row` rebuilds that per-draw result.
    """

    tau: np.ndarray
    beta: np.ndarray
    iters_tau: np.ndarray
    iters_beta: np.ndarray
    inner_iters_beta: np.ndarray
    op_count: np.ndarray

    @property
    def iterations(self) -> np.ndarray:
        """Every loop pass per draw: both phases plus the inner bisections."""
        return self.iters_tau + self.iters_beta + self.inner_iters_beta

    def row(self, t: int) -> AllocationResult:
        return AllocationResult(
            tau=float(self.tau[t]),
            beta=tuple(float(b) for b in self.beta[t]),
            iters_tau=int(self.iters_tau[t]),
            iters_beta=int(self.iters_beta[t]),
            inner_iters_beta=int(self.inner_iters_beta[t]),
            op_count=int(self.op_count[t]),
        )

    @classmethod
    def stack(cls, results: list[AllocationResult]) -> "BatchAllocation":
        """The batch whose rows are the given per-draw results."""

        def tally(name: str) -> np.ndarray:
            return np.array([getattr(r, name) for r in results], dtype=np.int64)

        return cls(
            tau=np.array([r.tau for r in results]),
            beta=np.array([r.beta for r in results]),
            iters_tau=tally("iters_tau"),
            iters_beta=tally("iters_beta"),
            inner_iters_beta=tally("inner_iters_beta"),
            op_count=tally("op_count"),
        )


def _as_gamma(gamma) -> np.ndarray:
    arr = np.asarray(gamma, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigError("gamma must be a non-empty vector")
    if not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ConfigError("all channel gains must be strictly positive and finite")
    return arr


def _as_beta(beta, K: int) -> np.ndarray:
    arr = np.asarray(beta, dtype=float)
    if arr.shape != (K,):
        raise ConfigError(f"beta must have length {K}, got shape {arr.shape}")
    if not np.all((arr > 0.0) & (arr <= 1.0)):
        raise ConfigError(f"every beta_k must lie in (0,1], got {arr}")
    if abs(math.fsum(arr) - 1.0) > 1e-12:
        raise ConfigError(f"beta must sum to 1 within 1e-12, got {math.fsum(arr)!r}")
    return arr


def _as_matrix(gains) -> np.ndarray:
    arr = np.asarray(gains, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ConfigError(f"gains must be a non-empty (T, K) matrix, got shape {arr.shape}")
    return arr


def _as_gain_matrix(gains, epsilon: float) -> tuple[np.ndarray, dict]:
    """The ``(T, K)`` gain matrix and the per-draw errors of its bad rows.

    Bad rows are replaced by ones so the batch arithmetic stays finite;
    their draws fail with the per-draw call's message.  The argument checks
    run where the per-draw call runs them, after draw 0's own gain check.
    """
    arr = _as_matrix(gains)
    bad = ~np.all(np.isfinite(arr) & (arr > 0.0), axis=1)
    if bad[0]:
        _as_gamma(arr[0])
    _check_epsilon(epsilon)
    errors = {int(t): _error_of(_as_gamma, arr[t]) for t in np.flatnonzero(bad)}
    return np.where(bad[:, np.newaxis], 1.0, arr), errors


def _error_of(fn, *args) -> EhuavError:
    """The error a per-draw call raises (it must raise one)."""
    try:
        fn(*args)
    except EhuavError as exc:
        return exc
    raise AssertionError(f"{fn.__name__} accepted a draw the batch rejected")


def _live(T: int, errors: dict) -> np.ndarray:
    """Mask of the draws that have not failed."""
    live = np.ones(T, dtype=bool)
    live[list(errors)] = False
    return live


def _log2_exact(x: np.ndarray) -> np.ndarray:
    """``math.log2`` elementwise.

    ``np.log2`` may use a SIMD routine that differs from the C library's
    ``log2`` (which ``math.log2`` calls) in the last bit, so the places where
    the per-draw code calls ``math.log2`` use this to stay bit-identical.
    """
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _check_epsilon(epsilon: float) -> None:
    check((EPSILON_RULE,), {"epsilon": epsilon})


def _rate_slope(b: float, g: float, tau: float) -> float:
    """d(rate)/d(tau) of one UAV with share b and gain g."""
    eff = b * (1.0 - tau)
    return -b * math.log2(1.0 + tau * g / eff) + b * g / (_LN2 * (eff + tau * g))


def equal_bandwidth_taf(K: int, R_a: float) -> float:
    """Optimal time split when the band is shared equally by K UAVs.

    Closed form via the principal Lambert-W branch; depends on K and R_a
    only through their product.
    """
    if not isinstance(K, int) or K < 1:
        raise ConfigError(f"K must be an integer >= 1, got {K!r}")
    if not R_a > 0.0:
        raise ConfigError(f"R_a must be > 0, got {R_a}")
    q = K * R_a * _LN2
    w = lambert_w0(-math.exp(-1.0) * 2.0 ** (-K * R_a))
    tau = 1.0 - q / (1.0 + q + w)
    if not 0.0 < tau < 1.0:
        raise NumericError(f"equal-bandwidth time split left (0,1): {tau!r}")
    return tau


def _bracket_error(lo: float, hi: float, d_lo: float, d_hi: float) -> NumericError:
    return NumericError(
        "min-rate derivative does not bracket a maximum on "
        f"[{lo}, {hi}]: d(lo)={d_lo!r}, d(hi)={d_hi!r}"
    )


def _cap_error(cap: int, gap: float, epsilon: float, K: int, tau: float) -> NumericError:
    return NumericError(
        f"bandwidth equalization did not converge in {cap} updates: "
        f"gap={gap!r} > epsilon={epsilon} (K={K}, tau={tau})"
    )


def _stall_error(lo: float, hi: float, epsilon: float) -> NumericError:
    return NumericError(
        f"target-rate bisection stalled at [{lo!r}, {hi!r}]: the midpoint equals "
        f"an endpoint, so the bracket cannot shrink to epsilon={epsilon}"
    )


def phase1_taf(gamma, epsilon: float) -> tuple[float, int]:
    """Bisection for the time split on the sign of the min-rate derivative,
    at the equal bandwidth split.

    Bracket starts at [epsilon, 1-epsilon] and halves until its width is
    at most epsilon; returns the final midpoint and the iteration count.
    At the equal split every UAV has the same share 1/K, and its rate
    increases with its gain, so the weakest UAV at every tau is the one
    with the smallest gain (the lowest index among equal gains): the
    bisection follows that UAV's rate slope.  Where ``log2(1 + x)`` rounds
    distinct small gains to equal rates, the smallest gain still decides,
    not the lowest index among the equal rates.
    """
    _check_epsilon(epsilon)
    return _phase1(_as_gamma(gamma), epsilon)


def _phase1(gam: np.ndarray, epsilon: float) -> tuple[float, int]:
    """:func:`phase1_taf` on arguments that passed its checks."""
    b = 1.0 / gam.size
    g = float(gam.min())
    lo, hi = epsilon, 1.0 - epsilon
    d_lo = _rate_slope(b, g, lo)
    d_hi = _rate_slope(b, g, hi)
    if not (d_lo > 0.0 and d_hi < 0.0):
        raise _bracket_error(lo, hi, d_lo, d_hi)
    iters = 0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if _rate_slope(b, g, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters


def phase2_baf(tau_o: float, gamma, epsilon: float, beta_init) -> tuple[np.ndarray, int]:
    """Pairwise bandwidth transfers until all rates agree within epsilon.

    Each update moves ``beta_hat * gap / (2 * R_hat)`` of bandwidth from
    the fastest UAV to the slowest, so the share vector's sum is
    conserved.  Returns the converged shares and the update count; more
    than ``10 * K * ceil(log10(1/epsilon))`` updates raise NumericError.

    An update changes two shares, so only their two rates are recomputed,
    with ``np.log2`` as in the batch form.  A NaN rate would be both the
    fastest and the slowest (as ``np.argmax`` and ``np.argmin`` pick it)
    and keep the gap NaN until the update cap, so it raises that error at
    once.
    """
    if not 0.0 < tau_o < 1.0:
        raise ConfigError(f"tau must lie in (0,1), got {tau_o}")
    _check_epsilon(epsilon)
    gam = _as_gamma(gamma)
    beta, iters = _phase2(tau_o, gam, epsilon, _as_beta(beta_init, gam.size).tolist())
    return np.array(beta), iters


def _phase2(
    tau_o: float, gam: np.ndarray, epsilon: float, beta: list[float]
) -> tuple[list[float], int]:
    """:func:`phase2_baf` on arguments that passed its checks; updates ``beta``."""
    K = len(beta)
    cap = 10 * K * math.ceil(math.log10(1.0 / epsilon))
    one_minus_tau = 1.0 - tau_o
    tau_gam = (tau_o * gam).tolist()

    def rate_of(k: int) -> float:
        eff = beta[k] * one_minus_tau
        # eff == 0 is 0 * log2(inf) in the array form: NaN.
        r = float(eff * np.log2(1.0 + tau_gam[k] / eff)) if eff else math.nan
        if r != r:
            raise _cap_error(cap, r, epsilon, K, tau_o)
        return r

    rates = [rate_of(k) for k in range(K)]
    iters = 0
    while True:
        r_hat, r_check = max(rates), min(rates)
        gap = r_hat - r_check
        if gap <= epsilon:
            return beta, iters
        if iters >= cap:
            raise _cap_error(cap, gap, epsilon, K, tau_o)
        k_hat, k_check = rates.index(r_hat), rates.index(r_check)
        step = beta[k_hat] * gap / (2.0 * r_hat)
        beta[k_check] += step
        beta[k_hat] -= step
        rates[k_hat], rates[k_check] = rate_of(k_hat), rate_of(k_check)
        iters += 1


def proposed_allocate(gamma, epsilon: float) -> AllocationResult:
    """Two-phase allocation: derivative bisection, then pairwise transfers.

    Operation tally is K + I_tau + I_beta * K: one rate per UAV to set up,
    one derivative per bisection step, K rates per transfer update.
    """
    gam = _as_gamma(gamma)
    _check_epsilon(epsilon)
    K = gam.size
    tau_o, iters_tau = _phase1(gam, epsilon)
    beta_o, iters_beta = _phase2(tau_o, gam, epsilon, [1.0 / K] * K)
    return AllocationResult(
        tau=tau_o,
        beta=tuple(beta_o),
        iters_tau=iters_tau,
        iters_beta=iters_beta,
        inner_iters_beta=0,
        op_count=K + iters_tau + iters_beta * K,
    )


def conventional_allocate(gamma, epsilon: float) -> AllocationResult:
    """Nested-bisection baseline for the same max-min program.

    The time split is bisected exactly as in phase 1 (but costed at K
    rate evaluations per step).  Bandwidth is then found by bisecting on
    a common target rate: each candidate target needs one inner bisection
    per UAV for the smallest share achieving it, and the candidate is
    feasible when those shares sum to at most 1.  The last feasible share
    vector is normalized to sum exactly 1.
    """
    gam = _as_gamma(gamma)
    K = gam.size
    _check_epsilon(epsilon)
    tau_o, iters_tau = _phase1(gam, epsilon)
    if K == 1:
        return AllocationResult(
            tau=tau_o,
            beta=(1.0,),
            iters_tau=iters_tau,
            iters_beta=0,
            inner_iters_beta=0,
            op_count=iters_tau,
        )
    one_minus_tau = 1.0 - tau_o
    tau_gam = (tau_o * gam).tolist()

    def rate_k(beta_k: float, k: int) -> float:
        eff = beta_k * one_minus_tau
        return eff * math.log2(1.0 + tau_gam[k] / eff)

    def shares_for_target(target: float) -> tuple[list | None, int]:
        """Smallest per-UAV share reaching the target, or None if any UAV
        cannot reach it with nearly the whole band.  Second value is the
        inner bisection count consumed."""
        inner = 0
        shares = []
        for k in range(K):
            if rate_k(1.0 - epsilon, k) < target:
                return None, inner
            lo, hi = epsilon, 1.0 - epsilon
            while hi - lo > epsilon:
                mid = 0.5 * (lo + hi)
                if rate_k(mid, k) >= target:
                    hi = mid
                else:
                    lo = mid
                inner += 1
            shares.append(hi)
        return shares, inner

    target_lo = 0.0
    target_hi = min(rate_k(1.0 - epsilon, k) for k in range(K))
    best = [epsilon] * K  # the trivially feasible zero-rate shares
    iters_beta = 0
    inner_total = 0
    while target_hi - target_lo > epsilon:
        target = 0.5 * (target_lo + target_hi)
        shares, inner = shares_for_target(target)
        inner_total += inner
        iters_beta += 1
        # np.sum, not sum: numpy adds eight or more terms pairwise.
        feasible = shares is not None and float(np.sum(shares)) <= 1.0
        # Unreachable for finite targets: they lie below 1024 bit/s/Hz, where
        # doubles are at most 2.3e-13 apart, so a bracket wider than epsilon
        # (>= EPSILON_MIN = 1e-12) has its midpoint strictly inside.  The
        # guard still bounds the loop whatever the input.
        if target == (target_lo if feasible else target_hi):
            raise _stall_error(target_lo, target_hi, epsilon)
        if feasible:
            target_lo = target
            best = shares
        else:
            target_hi = target
    best = np.array(best)
    best = best / best.sum()
    return AllocationResult(
        tau=tau_o,
        beta=tuple(best.tolist()),
        iters_tau=iters_tau,
        iters_beta=iters_beta,
        inner_iters_beta=inner_total,
        op_count=iters_tau * K + inner_total,
    )


def _rate_slope_batch(b: float, g: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """:func:`_rate_slope` at the equal split ``b = 1/K``, one (gain, tau) per row."""
    eff = b * (1.0 - tau)
    return -b * _log2_exact(1.0 + tau * g / eff) + b * g / (_LN2 * (eff + tau * g))


def _phase1_batch(
    gam: np.ndarray, epsilon: float, errors: dict
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`phase1_taf` at the equal split for every row not yet in ``errors``.

    Rows that cannot bracket a maximum get their NumericError in ``errors``.
    """
    T, K = gam.shape
    b = 1.0 / K
    g = gam.min(axis=1)  # each row's weakest UAV at every tau
    lo = np.full(T, epsilon)
    hi = np.full(T, 1.0 - epsilon)
    d_lo = _rate_slope_batch(b, g, lo)
    d_hi = _rate_slope_batch(b, g, hi)
    active = (d_lo > 0.0) & (d_hi < 0.0)
    for t in np.flatnonzero(~active):
        errors.setdefault(
            int(t), _bracket_error(epsilon, 1.0 - epsilon, float(d_lo[t]), float(d_hi[t]))
        )
    active &= _live(T, errors)
    iters = np.zeros(T, dtype=np.int64)
    while True:
        active &= hi - lo > epsilon
        if not active.any():
            return 0.5 * (lo + hi), iters
        mid = 0.5 * (lo + hi)
        rising = _rate_slope_batch(b, g, mid) > 0.0
        lo = np.where(active & rising, mid, lo)
        hi = np.where(active & ~rising, mid, hi)
        iters += active


def _checked_batch(
    tau, beta, iters_tau, iters_beta, inner_iters_beta, op_count, errors: dict
) -> BatchAllocation:
    """Apply the :class:`AllocationResult` checks row by row, then raise the
    error of the first failing draw, if any."""
    batch = BatchAllocation(tau, beta, iters_tau, iters_beta, inner_iters_beta, op_count)
    sums = np.array([math.fsum(row) for row in beta.tolist()])
    bad = ~((tau > 0.0) & (tau < 1.0)) | (np.abs(sums - 1.0) > 1e-12)
    for t in np.flatnonzero(bad):
        errors.setdefault(int(t), _error_of(batch.row, t))
    if errors:
        raise errors[min(errors)]
    return batch


def proposed_allocate_batch(gains, epsilon: float) -> BatchAllocation:
    """:func:`proposed_allocate` on every row of a ``(T, K)`` draw matrix.

    Phase 2 updates only the draws whose rates still spread by more than
    epsilon.  A failing draw does not stop the others; the error of the
    first failing draw in row order is raised at the end.
    """
    gam, errors = _as_gain_matrix(gains, epsilon)
    T, K = gam.shape
    tau, iters_tau = _phase1_batch(gam, epsilon, errors)
    beta = np.full((T, K), 1.0 / K)
    iters_beta = np.zeros(T, dtype=np.int64)
    cap = 10 * K * math.ceil(math.log10(1.0 / epsilon))
    rows = np.flatnonzero(_live(T, errors))
    while rows.size:
        t_col = tau[rows, np.newaxis]
        eff = beta[rows] * (1.0 - t_col)
        rates = eff * np.log2(1.0 + t_col * gam[rows] / eff)
        pick = np.arange(rows.size)
        k_hat = np.argmax(rates, axis=1)
        k_check = np.argmin(rates, axis=1)
        r_hat = rates[pick, k_hat]
        gap = r_hat - rates[pick, k_check]
        spread = ~(gap <= epsilon)  # as the per-draw test, so a NaN gap keeps going
        capped = iters_beta[rows] >= cap
        for i in np.flatnonzero(spread & capped):
            t = int(rows[i])
            errors[t] = _cap_error(cap, float(gap[i]), epsilon, K, float(tau[t]))
        go = spread & ~capped
        rows, k_hat, k_check = rows[go], k_hat[go], k_check[go]
        step = beta[rows, k_hat] * gap[go] / (2.0 * r_hat[go])
        beta[rows, k_check] += step
        beta[rows, k_hat] -= step
        iters_beta[rows] += 1
    zeros = np.zeros(T, dtype=np.int64)
    return _checked_batch(
        tau, beta, iters_tau, iters_beta, zeros, K + iters_tau + iters_beta * K, errors
    )


def _reaches(share, tau_col, gam, target_col) -> np.ndarray:
    """``rate >= target`` elementwise, decided exactly as the baseline's
    per-draw ``rate_k`` (``math.log2``) decides it.

    ``np.log2`` is within a few ulps of ``math.log2``, so only rates within
    1e-12 (relative) of the target are recomputed with :func:`_log2_exact`.
    """
    eff = share * (1.0 - tau_col)
    arg = 1.0 + tau_col * gam / eff
    rates = eff * np.log2(arg)
    near = np.abs(rates - target_col) <= 1e-12 * target_col
    if near.any():
        rates[near] = eff[near] * _log2_exact(arg[near])
    return rates >= target_col


def conventional_allocate_batch(gains, epsilon: float) -> BatchAllocation:
    """:func:`conventional_allocate` on every row of a ``(T, K)`` draw matrix.

    The outer target bisection runs on the draws still bracketing, the
    inner share bisections on every (draw, UAV) pair the per-draw loop
    reaches: the UAVs before the first one that cannot reach the target
    with the whole band.  Errors as in :func:`proposed_allocate_batch`.
    """
    gam, errors = _as_gain_matrix(gains, epsilon)
    T, K = gam.shape
    tau, iters_tau = _phase1_batch(gam, epsilon, errors)
    zeros = np.zeros(T, dtype=np.int64)
    if K == 1:
        return _checked_batch(tau, np.ones((T, 1)), iters_tau, zeros, zeros, iters_tau, errors)

    tau_col = tau[:, np.newaxis]
    eff = (1.0 - epsilon) * (1.0 - tau_col)
    whole_band = eff * _log2_exact(1.0 + tau_col * gam / eff)
    target_lo = np.zeros(T)
    target_hi = whole_band.min(axis=1)
    best = np.full((T, K), epsilon)
    iters_beta = zeros.copy()
    inner_total = zeros.copy()
    outer = _live(T, errors)
    uav = np.arange(K)
    while True:
        outer &= target_hi - target_lo > epsilon
        rows = np.flatnonzero(outer)
        if not rows.size:
            break
        target = 0.5 * (target_lo[rows] + target_hi[rows])
        target_col = target[:, np.newaxis]
        short = whole_band[rows] < target_col
        first_short = np.where(short.any(axis=1), np.argmax(short, axis=1), K)
        lo = np.full((rows.size, K), epsilon)
        hi = np.full((rows.size, K), 1.0 - epsilon)
        bisecting = uav < first_short[:, np.newaxis]
        g, t_col = gam[rows], tau_col[rows]
        inner = np.zeros(rows.size, dtype=np.int64)
        while True:
            bisecting &= hi - lo > epsilon
            if not bisecting.any():
                break
            mid = 0.5 * (lo + hi)
            up = _reaches(mid, t_col, g, target_col)
            hi = np.where(bisecting & up, mid, hi)
            lo = np.where(bisecting & ~up, mid, lo)
            inner += bisecting.sum(axis=1)
        inner_total[rows] += inner
        iters_beta[rows] += 1
        feasible = (first_short == K) & (hi.sum(axis=1) <= 1.0)
        stalled = target == np.where(feasible, target_lo[rows], target_hi[rows])
        for t in rows[stalled]:
            errors[int(t)] = _stall_error(float(target_lo[t]), float(target_hi[t]), epsilon)
        outer[rows[stalled]] = False
        target_lo[rows[feasible]] = target[feasible]
        best[rows[feasible]] = hi[feasible]
        target_hi[rows[~feasible]] = target[~feasible]
    beta = best / best.sum(axis=1, keepdims=True)
    return _checked_batch(
        tau, beta, iters_tau, iters_beta, inner_total, iters_tau * K + inner_total, errors
    )


def equal_bandwidth_batch(gains, R_a: float) -> BatchAllocation:
    """The equal split with its closed-form time split, for every draw.

    Only the matrix shape is used: the split does not depend on the gains.
    """
    T, K = _as_matrix(gains).shape
    zeros = np.zeros(T, dtype=np.int64)
    return _checked_batch(
        np.full(T, equal_bandwidth_taf(K, R_a)),
        np.full((T, K), 1.0 / K),
        zeros, zeros, zeros, zeros, {},
    )


def _compositions(grid_beta: int, K: int) -> np.ndarray:
    """Every composition of grid_beta steps into K positive parts (K <= 3)
    in lexicographic order, as a ``(K, count)`` array: part k of each."""
    if K == 1:
        return np.array([[grid_beta]])
    if K == 2:
        first = np.arange(1, grid_beta)
        return np.stack([first, grid_beta - first])
    # Pairs i < c of 0..grid_beta-2, row-major: the first two parts are
    # i+1 and c-i, so the first part, then the second, ascend.
    i, c = np.triu_indices(grid_beta - 1, k=1)
    return np.stack([i + 1, c - i, grid_beta - 1 - c])


def exhaustive_optimal(gamma, grid_tau: int, grid_beta: int) -> AllocationResult:
    """Max-min rate over a tau grid and a share simplex.

    Tau takes the grid_tau evenly spaced interior points j/(grid_tau+1);
    shares are all compositions of grid_beta equal steps into K positive
    parts.  Guarded to K <= 3.  Ties keep the first point in the order
    tau ascending, compositions in lexicographic order, and ``op_count``
    counts every (tau, composition, UAV) rate of that enumeration.

    The simplex is not enumerated.  At each tau, UAV k's rates over
    s = 1..grid_beta-K+1 steps form a table; where every table is
    non-decreasing in s, a worst-case rate v is reachable iff
    ``K + #(table entries < v) <= grid_beta``, so the best one is the
    (grid_beta-K)-th smallest entry (0-indexed) of the K tables together,
    and the first composition reaching it takes ``1 + #(table_k < v)``
    steps for every UAV but the last.  Rounding in ``log2`` can make a
    table decrease where its true slope is tiny (low SNR); such tau rows
    take the minimum over the enumerated simplex instead.  Either way the
    answer is the enumeration's, bit for bit.
    """
    gam = _as_gamma(gamma)
    K = gam.size
    if K > 3:
        raise CapabilityError(
            f"exhaustive search supports K <= 3 (the share grid explodes), got K={K}"
        )
    if not (isinstance(grid_tau, int) and grid_tau >= 1):
        raise ConfigError(f"grid_tau must be an integer >= 1, got {grid_tau!r}")
    if not (isinstance(grid_beta, int) and grid_beta >= K):
        raise ConfigError(
            f"grid_beta must be an integer >= K={K}, got {grid_beta!r}"
        )

    rank = grid_beta - K  # steps beyond one per UAV; no UAV holds more than rank + 1
    share_axis = np.arange(1, rank + 2, dtype=float) / grid_beta
    taus = np.arange(1, grid_tau + 1) / (grid_tau + 1)
    rows = max(1, _GRID_BLOCK_ELEMENTS // (K * share_axis.size))
    index = None  # table positions of the enumerated simplex, built on first use

    best_rate = -math.inf
    best_tau = math.nan  # every rate is >= 0, so the first block sets it
    best_steps = (1,) * K
    for start in range(0, grid_tau, rows):
        tau = taus[start : start + rows, np.newaxis, np.newaxis]
        eff = share_axis * (1.0 - tau)
        # eff * log2(1 + tau * g / eff), in place
        tables = np.divide(tau * gam[:, np.newaxis], eff)
        tables += 1.0
        np.log2(tables, out=tables)
        tables *= eff
        values = np.partition(tables.reshape(tau.shape[0], -1), rank, axis=1)[:, rank]
        # rising[i]: every table of row i is non-decreasing.  Neighbours are
        # compared along the whole block, and each pair that starts at a
        # table's last entry is then ignored.  With one share step per UAV
        # nothing is compared, hence rank > 0.
        flat = tables.reshape(-1)
        step_up = np.empty(flat.size, dtype=bool)
        np.greater_equal(flat[1:], flat[:-1], out=step_up[:-1])
        step_up.reshape(tables.shape)[..., -1] = True
        rising = step_up.reshape(tau.shape[0], -1).all(axis=1) & (rank > 0)
        pick = {}  # row -> first composition with the row's worst-case rate
        for i in np.flatnonzero(~rising).tolist():
            if index is None:
                index = _compositions(grid_beta, K) - 1
            worst = tables[i, 0][index[0]]
            for k in range(1, K):
                np.minimum(worst, tables[i, k][index[k]], out=worst)
            pick[i] = int(worst.argmax())
            values[i] = worst[pick[i]]
        i = int(np.argmax(values))
        if values[i] > best_rate:
            best_rate = float(values[i])
            best_tau = float(taus[start + i])
            if rising[i]:
                head = 1 + np.count_nonzero(tables[i, :-1] < values[i], axis=1)
                best_steps = (*head.tolist(), grid_beta - int(head.sum()))
            else:
                best_steps = tuple(1 + index[:, pick[i]])
    return AllocationResult(
        tau=best_tau,
        beta=tuple(float(s) / grid_beta for s in best_steps),
        iters_tau=0,
        iters_beta=0,
        inner_iters_beta=0,
        op_count=grid_tau * math.comb(grid_beta - 1, K - 1) * K,
    )
