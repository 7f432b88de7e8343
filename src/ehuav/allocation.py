"""Time/bandwidth allocation strategies and their iteration accounting.

Four allocators share the same max-min-rate objective:

* :func:`equal_bandwidth_taf` - closed form (Lambert-W) optimum of the
  time split when every UAV gets the same bandwidth share, with ``1 + W0``
  found by Newton's method on its own equation;
* :func:`proposed_allocate` - the paper's two-phase scheme.  Phase 1
  (:func:`_phase1`) bisects the time split on the sign of the min-rate
  derivative at the equal split; phase 2 (:func:`_phase2`) then moves
  bandwidth pairwise from the fastest to the slowest UAV;
* :func:`conventional_allocate` - nested-bisection baseline: phase 1's time
  split, then an outer bisection on a common target rate with inner
  per-UAV bisections;
* :func:`exhaustive_optimal` - optimum over a grid of time splits and
  the simplex of equal-step bandwidth shares (small K only).  It returns
  what visiting every grid point would, without visiting them: where each
  UAV's rate is non-decreasing in its share, the best worst-case rate at
  a time split is an order statistic of the K per-UAV rate tables.  Only
  the time splits whose upper bound (one rate per UAV, at the largest
  share a composition may leave it, plus a rounding margin) reaches a
  value that another time split attains get full tables, and
  ``op_count`` still counts every rate of the enumeration.

Every allocator reports an abstract operation tally (``op_count``) so the
complexity claims can be compared empirically.

Every allocator works on the full block.  Each rate scales linearly with
the data-phase share ``nu_c``, so the max-min point does not depend on it,
and the rates here are those at ``nu_c = 1``.  The signalling is charged
afterwards: :func:`ehuav.experiments.overhead_share` gives the share
``nu_r`` that :meth:`AllocationResult.as_allocation` attaches.  Whether an
algorithm pays at all is the charged flag of its entry in the algorithm
table of :mod:`ehuav.experiments`.

The two-phase scheme, the nested baseline and the equal split also come in
batch forms (``*_batch``) that take a ``(T, K)`` matrix of channel draws and
run the per-draw algorithm on every row at once, so row ``t`` of the result
(:meth:`BatchAllocation.row`) is the per-draw call on ``gains[t]``: the
same result bit for bit, tallies included, or a raise of the same error.
A failing draw does not stop the others; only a malformed matrix or a bad
``epsilon`` or ``R_a`` makes the batch call itself raise.
Phase 1, phase 2 and the baseline's outer target bisection replay the
per-draw loops: the same brackets, stopping tests and operation order.
The batch baseline does not step through its inner share bisections:
each one's final bracket is looked up in the bisection's midpoint tree
(:func:`_share_tree`) and certified by the rates at its two ends, and the
pairs that cannot be certified run the loop (:func:`_inner_shares`).  The
per-draw baseline runs the loop itself, and rates only the midpoints that
the targets it has already solved leave undecided.  The plain loop stays
in the tests as the reference.  The batch phase 1 decides each
step's sign with ``np.log2`` and recomputes only the near-zero slopes
exactly (:func:`_slope_rises`).  Every rate is one call of
:func:`ehuav.outage._rate`, and the rate slope of phase 1 and the update
cap of phase 2 are each written once and read by both forms.  The per-draw
forms serve one draw at a time (a batch of one costs more than a per-draw
call) and are the reference the batch forms are tested against.  They do
their scalar work on Python floats, on the gain list that
:func:`_as_gamma` checks, because numpy's dispatch on K-element arrays
costs more than their arithmetic: phase 1 bisects the rate slope of the
one UAV with the smallest gain, phase 2 recomputes only the two rates an
update changes, each with the scalar ``np.log2`` (the batch form's bits,
which ``math.log2`` does not always give), and the baseline bisects one
(UAV, target) pair at a time and sums its shares with numpy only near 1
(:func:`_fits_the_band`).  :func:`ehuav.outage.min_rate` scores one draw
the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import EPSILON_RULE, R_A_RULES, check
from .errors import ConfigError, EhuavError, NumericError
from .outage import _LN2, Allocation, _check_split, _rate
from .specfun import _lambert_branch_offset


# Tau rows of the grid search are evaluated in blocks of at most this many
# rate-table entries (rows x K x share steps), which bounds its memory.
_GRID_BLOCK_ELEMENTS = 1 << 18

# The batch baseline looks its inner share bisections up in their midpoint
# tree (:func:`_share_tree`), tabulated to this depth: at most 2**16 leaves.
# Deeper levels run the bisection loop.
_SHARE_TREE_DEPTH = 16
# Newton steps towards each inner bisection's share threshold per target.
_SHARE_NEWTON_STEPS = 4
# One rounding bound serves two readers.  A rate computed in doubles by
# outage._rate, with either log2, is within about 5u / ln(1 + q) + 10u
# (u = 2**-53) of the exact rate of its operands, with q = tau*g/eff its SNR.
# q falls as the share grows, so over one UAV's shares the bound is widest at
# the smallest q, at the largest share: where that q >= _LOOKUP_MIN_SNR, it is
# below 6e-14, and where q at the smallest share is at most _LOOKUP_MAX_SNR,
# no share's q overflows.  Within that range, the relative margin
# _LOOKUP_MARGIN covers the rounding of every share's rate:
# * the batch baseline's leaf certification (:func:`_inner_shares`) uses a
#   tabulated leaf only where the rates at its ends clear the target by the
#   margin, so every other share's rate is decided as the loop decides it;
# * the grid search's row bound (:func:`_row_bound`) takes each UAV's rate at
#   the largest share it bounds, times 1 + margin.  The exact rate rises with
#   the share, so every computed rate at a smaller share is at most the
#   computed one there times (1 + d) / (1 - d) <= 1 + 1.2e-13, d <= 6e-14
#   being the bound at that share.
_LOOKUP_MARGIN = 1e-12
_LOOKUP_MIN_SNR = 1e-2
_LOOKUP_MAX_SNR = 1e300

# The operation tallies of an allocation.
_TALLIES = ("iters_tau", "iters_beta", "inner_iters_beta", "op_count")


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
        _check_split(self.tau, self.beta)
        for name in _TALLIES:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"{name} must be a non-negative integer, got {value!r}")

    def as_allocation(self, nu_r: float = 0.0) -> Allocation:
        """Package the converged (tau, beta) with a protocol-overhead share."""
        return Allocation(tau=self.tau, beta=self.beta, nu_r=nu_r)


@dataclass(frozen=True)
class BatchAllocation:
    """Per-draw outcomes of a ``(T, K)`` draw matrix, one row per draw.

    ``tau`` and the four tallies have shape ``(T,)`` (tallies as int64),
    ``beta`` has shape ``(T, K)``.  ``errors`` maps each failed draw's
    index to the :class:`EhuavError` its per-draw call raises; those rows
    hold NaN ``tau`` and ``beta`` and zero tallies.  Every other row passed
    the checks of :class:`AllocationResult`.  :meth:`row` is the per-draw
    call: it rebuilds that result, or raises the draw's error.
    """

    tau: np.ndarray
    beta: np.ndarray
    iters_tau: np.ndarray
    iters_beta: np.ndarray
    inner_iters_beta: np.ndarray
    op_count: np.ndarray
    errors: dict[int, EhuavError] = field(default_factory=dict)

    @property
    def iterations(self) -> np.ndarray:
        """Every loop pass per draw: both phases plus the inner bisections."""
        return self.iters_tau + self.iters_beta + self.inner_iters_beta

    def row(self, t: int) -> AllocationResult:
        if t in self.errors:
            raise self.errors[t].with_traceback(None)
        return AllocationResult(
            tau=float(self.tau[t]),
            beta=tuple(float(b) for b in self.beta[t]),
            iters_tau=int(self.iters_tau[t]),
            iters_beta=int(self.iters_beta[t]),
            inner_iters_beta=int(self.inner_iters_beta[t]),
            op_count=int(self.op_count[t]),
        )

    def rows(self, start: int, stop: int) -> "BatchAllocation":
        """Draws ``start`` to ``stop - 1`` as a batch of views."""
        return BatchAllocation(
            *(getattr(self, name)[start:stop] for name in ("tau", "beta", *_TALLIES)),
            errors={t - start: e for t, e in self.errors.items() if start <= t < stop},
        )

    @classmethod
    def stack(cls, outcomes: list, K: int) -> "BatchAllocation":
        """The batch whose rows are the given per-draw outcomes of K gains
        each: an :class:`AllocationResult`, or the error the call raised."""
        errors = {t: o for t, o in enumerate(outcomes) if isinstance(o, EhuavError)}

        def column(name: str, failed, dtype=None) -> np.ndarray:
            return np.array(
                [failed if t in errors else getattr(o, name) for t, o in enumerate(outcomes)],
                dtype=dtype,
            )

        return cls(
            tau=column("tau", math.nan),
            beta=column("beta", (math.nan,) * K),
            **{name: column(name, 0, np.int64) for name in _TALLIES},
            errors=errors,
        )


def _as_gamma(gamma) -> list[float]:
    """The checked gains of one draw, as Python floats."""
    arr = np.asarray(gamma, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigError("gamma must be a non-empty vector")
    gains = arr.tolist()
    if not all([0.0 < g < math.inf for g in gains]):  # NaN fails too
        raise ConfigError("all channel gains must be strictly positive and finite")
    return gains


def _as_matrix(gains) -> np.ndarray:
    arr = np.asarray(gains, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ConfigError(f"gains must be a non-empty (T, K) matrix, got shape {arr.shape}")
    return arr


def _as_gain_matrix(gains, epsilon: float) -> tuple[np.ndarray, dict]:
    """The ``(T, K)`` gain matrix and the per-draw errors of its bad rows.

    A malformed matrix or a bad epsilon raises.  Bad rows are replaced by
    ones so the batch arithmetic stays finite; their draws fail with the
    per-draw call's message.
    """
    arr = _as_matrix(gains)
    _check_epsilon(epsilon)
    errors = _gain_errors(arr)
    return np.where(_live(len(arr), errors)[:, np.newaxis], arr, 1.0), errors


def _gain_errors(arr: np.ndarray) -> dict:
    """The error of the per-draw gain check (:func:`_as_gamma`) for each
    row of a gain matrix that fails it."""
    bad = ~np.all(np.isfinite(arr) & (arr > 0.0), axis=1)
    return {int(t): _error_of(_as_gamma, arr[t]) for t in np.flatnonzero(bad)}


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


def _rate_slope(b, g, tau, log2=math.log2):
    """d(rate)/d(tau) of one UAV with share b and gain g.

    Elementwise over arrays of gains and time splits when ``log2`` is
    :func:`_log2_exact`: the same operations in the same order as the
    per-draw call.
    """
    eff = b * (1.0 - tau)
    return -b * log2(1.0 + tau * g / eff) + b * g / (_LN2 * (eff + tau * g))


def _slope_rises(b: float, g: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """``_rate_slope(b, g, tau, _log2_exact) > 0.0`` elementwise, with
    ``np.log2``.

    ``np.log2`` is within a few ulps of ``math.log2``, so the slope's sign
    can differ from the exact one only where the slope is within a few ulps
    of its log term ``b * log2(...)``; slopes within 1e-12 of that term
    (relative) are recomputed with :func:`_log2_exact`, as :func:`_reaches`
    recomputes rates near a target.
    """
    log_term = []

    def log2(x):
        log_term.append(np.log2(x))
        return log_term[0]

    slope = _rate_slope(b, g, tau, log2)
    near = np.abs(slope) <= 1e-12 * b * np.abs(log_term[0])
    if near.any():
        slope[near] = _rate_slope(b, g[near], tau[near], _log2_exact)
    return slope > 0.0


def _update_cap(K: int, epsilon: float) -> int:
    """Most bandwidth updates phase 2 makes before it gives up."""
    return 10 * K * math.ceil(math.log10(1.0 / epsilon))


def equal_bandwidth_taf(K: int, R_a: float) -> float:
    """Optimal time split when the band is shared equally by K UAVs.

    Closed form via the principal Lambert-W branch,
    ``tau = 1 - q / (1 + q + w)`` with ``w = W0(-exp(-1 - q))``; depends on K
    and R_a only through their product ``q = K R_a ln 2``.  The branch
    variable ``v = 1 + w`` is found from q itself, as the root in (0, 1) of
    the concave, decreasing ``f(v) = v + log1p(-v) + q``, so no rounded W0
    argument is ever formed (the branch point magnifies that rounding by
    about 1/p^2, with ``p = sqrt(-2 expm1(-q))``).  The start is W0's branch
    series in p below ``p = 1`` (``K R_a = 1``) and ``1 - exp(-1 - q)``
    from there, within 7% of the root either way; the latter lies right of
    the root, where Newton converges monotonically, and is the answer once
    it rounds to 1 (q above about 36).  Five Newton steps follow from
    ``p = 1e-3`` on; below it the series is already within O(p^5) of the
    root, and a step only adds the cancellation of ``v + log1p(-v)`` (one
    step moved v by 50% at ``K R_a = 1e-32``).  Tau is ``v / (q + v)``,
    formed as ``1 - q / (q + v)`` where ``q < v``, so that a split a few
    ulp below 1 keeps its digits, and as ``v / (q + v)`` elsewhere, where
    the subtraction would cancel.  Over K = 1 to 64 and R_a from 1e-30 to
    1023, tau is within 2.6 ulp of 60-digit mpmath (within 1.5 ulp of the
    exact split at the rounded q).  Below about ``R_a = 8.9e-33 / K`` the
    split rounds to 1.0, a :class:`NumericError`.
    """
    if not isinstance(K, int) or K < 1:
        raise ConfigError(f"K must be an integer >= 1, got {K!r}")
    check(R_A_RULES, {"R_a": R_a})
    q = K * R_a * _LN2
    p = math.sqrt(-2.0 * math.expm1(-q))
    v = _lambert_branch_offset(p) if p < 1.0 else -math.expm1(-1.0 - q)  # 1 + w
    for _ in range(5 if p >= 1e-3 else 0):
        if v < 1.0:  # a start or step that rounds to 1 is the root's double
            v += (v + math.log1p(-v) + q) * (1.0 - v) / v  # Newton, f' = -v/(1-v)
    tau = 1.0 - q / (q + v) if q < v else v / (q + v)
    if not 0.0 < tau < 1.0:
        raise NumericError(f"equal-bandwidth time split left (0,1): {tau!r}")
    return tau


def _bracket_error(epsilon: float, d_lo: float, d_hi: float, g: float, K: int) -> NumericError:
    """Phase 1's error for the bracket [epsilon, 1 - epsilon], with the
    weakest gain g of K.  Where the slope still rises at 1 - epsilon the
    message names the cause: at the equal split 1 - tau* is about
    sqrt(K g / 2), so tau* lies past the bracket once g < 2 epsilon^2 / K."""
    message = (
        "min-rate derivative does not bracket a maximum on "
        f"[{epsilon}, {1.0 - epsilon}]: d(lo)={d_lo!r}, d(hi)={d_hi!r}"
    )
    if d_hi >= 0.0:
        message += (
            f"; the min rate still rises at tau = 1 - epsilon, so the optimal time "
            f"split lies above it: the weakest gain g={g!r} is below about "
            f"2*epsilon**2/K = {2.0 * epsilon**2 / K:.6g}"
        )
    return NumericError(message)


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


def _phase1(gains: list[float], epsilon: float) -> tuple[float, int]:
    """Phase 1: bisection for the time split on the sign of the min-rate
    derivative, at the equal bandwidth split.

    The bracket starts at [epsilon, 1-epsilon] and halves until its width
    is at most epsilon; returns the final midpoint and the iteration count.
    At the equal split every UAV has the same share 1/K, and its rate
    increases with its gain, so the weakest UAV at every tau is the one
    with the smallest gain (the lowest index among equal gains): the
    bisection follows that UAV's rate slope.  Where ``log2(1 + x)`` rounds
    distinct small gains to equal rates, the smallest gain still decides,
    not the lowest index among the equal rates.  The caller has checked
    the gains and epsilon.
    """
    b = 1.0 / len(gains)
    g = float(min(gains))
    lo, hi = epsilon, 1.0 - epsilon
    d_lo = _rate_slope(b, g, lo)
    d_hi = _rate_slope(b, g, hi)
    if not (d_lo > 0.0 and d_hi < 0.0):
        raise _bracket_error(epsilon, d_lo, d_hi, g, len(gains))
    iters = 0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if _rate_slope(b, g, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters


def _phase2(
    tau_o: float, gains: list[float], epsilon: float, beta: list[float]
) -> tuple[list[float], int]:
    """Phase 2: pairwise bandwidth transfers until all rates agree within
    epsilon; updates ``beta`` in place and returns it with the update count.

    Each update moves ``beta_hat * gap / (2 * R_hat)`` of bandwidth from
    the fastest UAV to the slowest, so the share vector's sum is
    conserved.  More than :func:`_update_cap` updates raise NumericError.

    An update changes two shares, so only their two rates are recomputed,
    on Python floats with the scalar ``np.log2``, which gives the batch
    form's bits.  A NaN rate would be both the fastest and the slowest (as
    ``np.argmax`` and ``np.argmin`` pick it) and keep the gap NaN until the
    update cap, so it raises that error at once.  The caller has checked
    the gains and epsilon.
    """
    K = len(beta)
    cap = _update_cap(K, epsilon)
    one_minus_tau = 1.0 - tau_o
    tau_gam = [tau_o * g for g in gains]
    rates = [0.0] * K
    changed = range(K)
    iters = 0
    while True:
        for k in changed:
            eff = beta[k] * one_minus_tau
            # eff == 0 is 0 * log2(inf) in the array form: NaN.
            r = float(_rate(eff, tau_gam[k])) if eff else math.nan
            if r != r:
                raise _cap_error(cap, r, epsilon, K, tau_o)
            rates[k] = r
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
        changed = (k_hat, k_check)
        iters += 1


def proposed_allocate(gamma, epsilon: float) -> AllocationResult:
    """Two-phase allocation: derivative bisection, then pairwise transfers.

    Operation tally is K + I_tau + I_beta * K: one rate per UAV to set up,
    one derivative per bisection step, K rates per transfer update.
    """
    gains = _as_gamma(gamma)
    _check_epsilon(epsilon)
    K = len(gains)
    tau_o, iters_tau = _phase1(gains, epsilon)
    beta_o, iters_beta = _phase2(tau_o, gains, epsilon, [1.0 / K] * K)
    return AllocationResult(
        tau=tau_o,
        beta=tuple(beta_o),
        iters_tau=iters_tau,
        iters_beta=iters_beta,
        inner_iters_beta=0,
        op_count=K + iters_tau + iters_beta * K,
    )


def _fits_the_band(shares: list) -> bool:
    """``float(np.sum(shares)) <= 1.0``, mostly without numpy.

    Every order of summing K positive shares is within ``(K - 1) * 2**-53``
    of their exact sum (relative), so where the plain sum is farther than
    ``4 * K * 2**-53`` from 1.0 it lies on the same side of 1.0 as numpy's
    pairwise sum, and only sums closer than that are recomputed.
    """
    total = sum(shares)
    if abs(total - 1.0) > 4 * len(shares) * 2.0**-53:
        return total <= 1.0
    return float(np.sum(shares)) <= 1.0


def conventional_allocate(gamma, epsilon: float) -> AllocationResult:
    """Nested-bisection baseline for the same max-min program.

    The time split is bisected exactly as in phase 1 (but costed at K
    rate evaluations per step).  Bandwidth is then found by bisecting on
    a common target rate: each candidate target needs one inner bisection
    per UAV for the smallest share achieving it, and the candidate is
    feasible when those shares sum to at most 1.  The last feasible share
    vector is normalized to sum exactly 1.  ``inner_iters_beta`` counts
    every step of the inner bisections.

    Each inner bisection is the plain loop, but it rates only some of its
    midpoints.  At a fixed midpoint, ``rate >= target`` can only turn false
    as the target grows, whatever the rate (NaN and inf included), so a
    UAV's final bracket does not move down as the target grows.  Every
    target the outer bisection tries lies between ``target_lo`` and
    ``target_hi``, whose brackets it has already found: a midpoint at or
    below the final ``lo`` at ``target_lo`` goes up, one at or above the
    final ``hi`` at ``target_hi`` goes down, and only those strictly between
    are rated.  The steps before the first rated midpoint are the same at
    every later target, so each loop resumes from there.
    """
    gains = _as_gamma(gamma)
    K = len(gains)
    _check_epsilon(epsilon)
    tau_o, iters_tau = _phase1(gains, epsilon)
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
    tau_gam = [tau_o * g for g in gains]
    eff = (1.0 - epsilon) * one_minus_tau
    target_lo = 0.0
    target_hi = min(_rate(eff, c, 1.0, math.log2) for c in tau_gam)  # the whole-band rates
    # Per UAV: the final lo of its share bisection at target_lo, the final hi
    # at target_hi, and the last bisection's bracket and step count at its
    # first rate evaluation.
    low = [epsilon] * K
    high = [1.0 - epsilon] * K
    start = [(epsilon, 1.0 - epsilon, 0)] * K
    best = [epsilon] * K  # the trivially feasible zero-rate shares
    iters_beta = 0
    inner_total = 0
    while target_hi - target_lo > epsilon:
        target = 0.5 * (target_lo + target_hi)
        # Every target lies below the smallest whole-band rate, so every UAV
        # reaches it; the smallest share that does is its loop's final hi.
        los, his = [], []
        for k, c in enumerate(tau_gam):
            lo, hi, steps = start[k]
            floor, ceiling = low[k], high[k]
            while hi - lo > epsilon:
                mid = 0.5 * (lo + hi)
                if mid <= floor:
                    lo = mid
                elif mid >= ceiling:
                    hi = mid
                else:
                    break
                steps += 1
            start[k] = (lo, hi, steps)
            while hi - lo > epsilon:
                mid = 0.5 * (lo + hi)
                if floor < mid and (
                    mid >= ceiling or _rate(mid * one_minus_tau, c, 1.0, math.log2) >= target
                ):
                    hi = mid
                else:
                    lo = mid
                steps += 1
            los.append(lo)
            his.append(hi)
            inner_total += steps
        iters_beta += 1
        feasible = _fits_the_band(his)
        # Unreachable for finite targets: they lie below 1024 bit/s/Hz, where
        # doubles are at most 2.3e-13 apart, so a bracket wider than epsilon
        # (>= EPSILON_MIN = 1e-12) has its midpoint strictly inside.  The
        # guard still bounds the loop whatever the input.
        if target == (target_lo if feasible else target_hi):
            raise _stall_error(target_lo, target_hi, epsilon)
        if feasible:
            target_lo, low, best = target, los, his
        else:
            target_hi, high = target, his
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


def _phase1_batch(
    gam: np.ndarray, epsilon: float, errors: dict
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_phase1` on every row not yet in ``errors``: one bisection per
    row on the rate slope of that row's smallest gain.

    Rows that cannot bracket a maximum get their NumericError in ``errors``.
    """
    T, K = gam.shape
    b = 1.0 / K
    g = gam.min(axis=1)  # each row's weakest UAV at every tau
    lo = np.full(T, epsilon)
    hi = np.full(T, 1.0 - epsilon)
    d_lo = _rate_slope(b, g, lo, _log2_exact)
    d_hi = _rate_slope(b, g, hi, _log2_exact)
    active = (d_lo > 0.0) & (d_hi < 0.0)
    for t in np.flatnonzero(~active):
        errors.setdefault(
            int(t), _bracket_error(epsilon, float(d_lo[t]), float(d_hi[t]), float(g[t]), K)
        )
    active &= _live(T, errors)
    iters = np.zeros(T, dtype=np.int64)
    while True:
        active &= hi - lo > epsilon
        if not active.any():
            return 0.5 * (lo + hi), iters
        mid = 0.5 * (lo + hi)
        rising = _slope_rises(b, g, mid)
        lo = np.where(active & rising, mid, lo)
        hi = np.where(active & ~rising, mid, hi)
        iters += active


def _checked_batch(
    tau, beta, iters_tau, iters_beta, inner_iters_beta, op_count, errors: dict
) -> BatchAllocation:
    """The batch of these rows after the :class:`AllocationResult` checks,
    row by row.  A row that fails them joins the failed draws in ``errors``
    with the error :meth:`BatchAllocation.row` raises; the failed rows get
    NaN ``tau`` and ``beta`` and zero tallies.

    The share sums are numpy's.  Any order of summing K positive shares is
    within ``(K - 1) * 2**-53`` of their exact sum, so only the rows whose
    sum lies within ``K * 2**-52`` of the bound are summed again with
    ``math.fsum``, as :class:`AllocationResult` sums them.  A row with a
    share outside (0,1) ((0,1] for K=1, NaN included) fails whatever its
    sum."""
    tallies = (iters_tau, iters_beta, inner_iters_beta, op_count)
    unchecked = BatchAllocation(tau, beta, *tallies)
    sums = beta.sum(axis=1)
    near = np.abs(np.abs(sums - 1.0) - 1e-12) <= beta.shape[1] * 2.0**-52
    sums[near] = [math.fsum(row) for row in beta[near].tolist()]
    inside = (beta > 0.0) & ((beta <= 1.0) if beta.shape[1] == 1 else (beta < 1.0))
    bad = ~((tau > 0.0) & (tau < 1.0)) | (np.abs(sums - 1.0) > 1e-12) | ~inside.all(axis=1)
    for t in np.flatnonzero(bad & _live(len(tau), errors)):
        errors[int(t)] = _error_of(unchecked.row, t)
    live = _live(len(tau), errors)
    return BatchAllocation(
        np.where(live, tau, math.nan),
        np.where(live[:, np.newaxis], beta, math.nan),
        *(np.where(live, tally, 0) for tally in tallies),
        errors=errors,
    )


def proposed_allocate_batch(gains, epsilon: float) -> BatchAllocation:
    """:func:`proposed_allocate` on every row of a ``(T, K)`` draw matrix.

    Phase 2 updates only the draws whose rates still spread by more than
    epsilon.  A failing draw does not stop the others: its row holds the
    error its per-draw call raises (see :class:`BatchAllocation`).
    """
    gam, errors = _as_gain_matrix(gains, epsilon)
    T, K = gam.shape
    tau, iters_tau = _phase1_batch(gam, epsilon, errors)
    beta = np.full((T, K), 1.0 / K)
    iters_beta = np.zeros(T, dtype=np.int64)
    cap = _update_cap(K, epsilon)
    rows = np.flatnonzero(_live(T, errors))
    while rows.size:
        t_col = tau[rows, np.newaxis]
        rates = _rate(beta[rows] * (1.0 - t_col), t_col * gam[rows])
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


def _reaches(share, one_minus_tau, tau_gam, target_col) -> np.ndarray:
    """``rate >= target`` elementwise, decided exactly as the baseline's
    per-draw bisection (:func:`conventional_allocate`, ``math.log2``)
    decides it.

    ``np.log2`` is within a few ulps of ``math.log2``, so only rates within
    1e-12 (relative) of the target are recomputed with :func:`_log2_exact`.
    """
    eff = share * one_minus_tau
    rates = _rate(eff, tau_gam)
    near = np.abs(rates - target_col) <= 1e-12 * target_col
    if near.any():
        rates[near] = _rate(eff[near], tau_gam[near], log2=_log2_exact)
    return rates >= target_col


@dataclass(frozen=True)
class _ShareTree:
    """The leaves of the baseline's inner share bisection, down to a depth cap.

    The inner bisection starts at ``[epsilon, 1 - epsilon]`` and halves the
    bracket until it is at most epsilon wide, so for a given epsilon its
    brackets form one fixed tree.  Leaf ``i`` is ``[edges[i], edges[i + 1]]``
    at depth ``depth[i]``; it is final when at most epsilon wide, and
    otherwise was cut off at :data:`_SHARE_TREE_DEPTH`.  The edges are the
    midpoints the loop computes, with the same operations, so a leaf's
    width is the loop's ``hi - lo`` there.

    ``first_leaf`` maps equal buckets of the bracket, each narrower than
    every leaf, to the leaf holding the bucket's start, so :meth:`leaf_of`
    finds a leaf with one comparison: a binary search per share mispredicts
    a branch at nearly every level.  Only the batch baseline reads the tree.
    """

    edges: np.ndarray
    depth: np.ndarray
    first_leaf: np.ndarray
    bucket_scale: float

    def leaf_of(self, share: np.ndarray) -> np.ndarray:
        """The leaf holding each share, up to rounding at bucket and leaf
        edges (a NaN share gets leaf 0)."""
        position = np.fmax((share - self.edges[0]) * self.bucket_scale, 0.0)
        leaf = self.first_leaf[np.fmin(position, self.first_leaf.size - 1).astype(np.intp)]
        return np.minimum(leaf + (share > self.edges[leaf + 1]), self.depth.size - 1)


@functools.lru_cache(maxsize=4)
def _share_tree(epsilon: float) -> _ShareTree:
    """The :class:`_ShareTree` of ``epsilon``, built on first use."""
    lo, hi = np.array([epsilon]), np.array([1.0 - epsilon])
    leaf_lo, leaf_depth = [], []
    for depth in range(_SHARE_TREE_DEPTH + 1):
        if depth == _SHARE_TREE_DEPTH:
            leaf_lo.append(lo)
            leaf_depth.append(np.full(lo.size, depth))
            break
        split = hi - lo > epsilon
        leaf_lo.append(lo[~split])
        leaf_depth.append(np.full(np.count_nonzero(~split), depth))
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    leaf_lo = np.concatenate(leaf_lo)
    order = np.argsort(leaf_lo)
    edges = np.append(leaf_lo[order], 1.0 - epsilon)
    bucket = np.diff(edges).min() * (1.0 - 1e-9)
    starts = epsilon + bucket * np.arange(int((edges[-1] - epsilon) / bucket) + 1)
    depth = np.concatenate(leaf_depth)[order]
    tree = _ShareTree(
        edges=edges,
        depth=depth,
        first_leaf=np.searchsorted(edges, starts, side="right").clip(1, order.size) - 1,
        bucket_scale=1.0 / bucket,
    )
    for table in (tree.edges, tree.depth, tree.first_leaf):
        table.setflags(write=False)  # cached and shared by every caller
    return tree


def _share_threshold(start, one_minus_tau, tau_gam, target_col) -> np.ndarray:
    """Newton steps from the share ``start`` towards the share at which the
    rate reaches the target.

    The steps run on the effective share ``x = share * (1 - tau)``, solving
    ``x * log2(1 + c / x) = target`` with ``c = tau * g``.  The rate is
    increasing and concave in x, so every step lands at or below the root,
    and so does the floor ``c * a**2 / (1 - a**2)`` with
    ``a = target * ln2 / c`` (from ``ln(1 + z) < z / sqrt(1 + z)``).
    """
    goal = target_col * _LN2
    a = goal / tau_gam
    floor = tau_gam * a * a / (1.0 - a * a)
    x = np.fmax(start * one_minus_tau, floor)  # a NaN start takes the floor
    for _ in range(_SHARE_NEWTON_STEPS):
        z = tau_gam / x
        log1p_z = np.log1p(z)
        x = np.fmax(x - (x * log1p_z - goal) / (log1p_z - z / (1.0 + z)), floor)
    return x / one_minus_tau


def _bisect_shares(lo, hi, bisecting, one_minus_tau, tau_gam, target_col, epsilon, counts):
    """The baseline's inner share bisection on the ``bisecting`` pairs, from
    their ``lo``/``hi`` brackets: the final ``hi`` and the per-pair
    ``counts`` plus the steps taken."""
    while True:
        bisecting = bisecting & (hi - lo > epsilon)
        if not bisecting.any():
            return hi, counts
        mid = 0.5 * (lo + hi)
        up = _reaches(mid, one_minus_tau, tau_gam, target_col)
        hi = np.where(bisecting & up, mid, hi)
        lo = np.where(bisecting & ~up, mid, lo)
        counts = counts + bisecting


def _inner_shares(one_minus_tau, tau_gam, target_col, epsilon, lookup, start):
    """Each inner bisection's final ``hi``, each row's inner count, and the
    located share thresholds, to start from at the next target.

    A pair's bisection ends in the leaf of :func:`_share_tree` that holds its
    share threshold, where the rate reaches the target.  Newton from
    ``start`` locates the threshold and :meth:`_ShareTree.leaf_of` its
    leaf.  The leaf is taken where the pair is in ``lookup`` and the rates
    at both its ends clear the target by :data:`_LOOKUP_MARGIN`: then every
    midpoint the loop tests above the leaf reaches the target and every one
    below misses it, as the loop decides them.  The other pairs, and those whose leaf was
    cut off at the tree's depth cap (from that leaf on), run the loop.
    """
    tree = _share_tree(epsilon)
    edges, depth = tree.edges, tree.depth
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        share = _share_threshold(start, one_minus_tau, tau_gam, target_col)
        leaf = tree.leaf_of(share)
        a, b = edges[leaf], edges[leaf + 1]
        above = _rate(b * one_minus_tau, tau_gam) >= target_col * (1.0 + _LOOKUP_MARGIN)
        below = _rate(a * one_minus_tau, tau_gam) <= target_col * (1.0 - _LOOKUP_MARGIN)
    found = lookup & (above | (leaf == depth.size - 1)) & (below | (leaf == 0))
    lo = np.where(found, a, epsilon)
    hi = np.where(found, b, 1.0 - epsilon)
    counts = np.where(found, depth[leaf], 0)
    pending = hi - lo > epsilon
    redo = np.flatnonzero(pending.any(axis=1))
    if redo.size:
        hi[redo], counts[redo] = _bisect_shares(
            lo[redo], hi[redo], pending[redo], one_minus_tau[redo], tau_gam[redo],
            target_col[redo], epsilon, counts[redo],
        )
    return hi, counts.sum(axis=1), share


def conventional_allocate_batch(gains, epsilon: float) -> BatchAllocation:
    """:func:`conventional_allocate` on every row of a ``(T, K)`` draw matrix.

    The outer target bisection runs on the draws still bracketing, and each
    target's inner share bisections come from :func:`_inner_shares`.  Every
    UAV reaches every target with the whole band (the targets lie below the
    smallest whole-band rate), so every (draw, UAV) pair bisects.  Errors as
    in :func:`proposed_allocate_batch`.
    """
    gam, errors = _as_gain_matrix(gains, epsilon)
    T, K = gam.shape
    tau, iters_tau = _phase1_batch(gam, epsilon, errors)
    zeros = np.zeros(T, dtype=np.int64)
    if K == 1:
        return _checked_batch(tau, np.ones((T, 1)), iters_tau, zeros, zeros, iters_tau, errors)

    one_minus_tau = 1.0 - tau[:, np.newaxis]
    tau_gam = tau[:, np.newaxis] * gam
    eff = (1.0 - epsilon) * one_minus_tau
    snr = tau_gam / eff
    whole_band = _rate(eff, tau_gam, log2=_log2_exact)
    # Where the tabulated leaves may be used (see _LOOKUP_MARGIN).
    lookup = (snr >= _LOOKUP_MIN_SNR) & (snr * (1.0 - epsilon) / epsilon <= _LOOKUP_MAX_SNR)
    share = np.full((T, K), np.nan)  # each pair's share threshold at the last target
    target_lo = np.zeros(T)
    target_hi = whole_band.min(axis=1)
    best = np.full((T, K), epsilon)
    iters_beta = zeros.copy()
    inner_total = zeros.copy()
    outer = _live(T, errors)
    while True:
        outer &= target_hi - target_lo > epsilon
        rows = np.flatnonzero(outer)
        if not rows.size:
            break
        target = 0.5 * (target_lo[rows] + target_hi[rows])
        hi, inner, share[rows] = _inner_shares(
            one_minus_tau[rows], tau_gam[rows], target[:, np.newaxis], epsilon,
            lookup[rows], share[rows],
        )
        inner_total[rows] += inner
        iters_beta[rows] += 1
        feasible = hi.sum(axis=1) <= 1.0
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

    The split does not depend on the gains, but they are checked as every
    allocator checks them: a draw with a gain that is not strictly positive
    and finite fails, and its row holds that error.  A bad ``R_a`` raises.
    """
    arr = _as_matrix(gains)
    T, K = arr.shape
    zeros = np.zeros(T, dtype=np.int64)
    return _checked_batch(
        np.full(T, equal_bandwidth_taf(K, R_a)),
        np.full((T, K), 1.0 / K),
        zeros, zeros, zeros, zeros, _gain_errors(arr),
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


def _row_bound(tau, gam, share_axis, j) -> np.ndarray:
    """Upper bound of the best worst-case rate of each grid row ``tau``
    (shape ``(n, 1)``), given that every composition gives some UAV k at
    most ``j[k]`` share steps.

    Such a row is worth at most the largest of the first ``j[k]`` entries
    of UAV k's rate table, for some k.  The exact rate rises with the
    share, so that entry is the ``j[k]``-th up to rounding, and the bound
    is the largest of those K rates times ``1 + _LOOKUP_MARGIN``, whose
    comment gives the rounding argument.  Rows where a bounding UAV's SNR leaves the margin's range
    (below ``_LOOKUP_MIN_SNR`` at its ``j[k]``-th step, or above
    ``_LOOKUP_MAX_SNR`` at its first) get ``+inf``.
    """
    used = [k for k, n in enumerate(j) if n]
    c = tau * gam[used]
    one_minus_tau = 1.0 - tau
    eff = share_axis[[j[k] - 1 for k in used]] * one_minus_tau
    first = share_axis[0] * one_minus_tau
    inside = (c / eff >= _LOOKUP_MIN_SNR) & (c / first <= _LOOKUP_MAX_SNR)
    upper = _rate(eff, c).max(axis=1) * (1.0 + _LOOKUP_MARGIN)
    return np.where(inside.all(axis=1), upper, math.inf)


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
    take the minimum over the enumerated simplex instead.

    Tau rows that cannot hold the first maximum get no full tables: in each
    block of rows, two cheap bounds find them.  A row's value
    is at least its worst rate at a reference composition (the near-equal
    split in the first block, then the best composition so far), K rates
    per row; the floor row, which has the largest such bound, is solved in
    full, giving its value v0 and composition s0.  Take ``j = s0 - 1`` plus
    one step for the UAV that is worst at s0, so ``sum(j) = grid_beta - K +
    1``: every composition gives some UAV k at most ``j_k`` steps, so a
    row's value is at most the largest of the first ``j_k`` entries of UAV
    k's table, for some k.  The exact rate rises with the share, so the
    largest is the ``j_k``-th entry up to rounding: :func:`_row_bound`
    takes that rate times ``1 + _LOOKUP_MARGIN``, at most K rates per row.
    Rows whose SNR leaves the margin's range (low SNR, where tables may
    decrease, or rates that may overflow) get an infinite bound.  Only rows
    whose upper bound reaches ``max(v0, best so far)`` are solved in full; a
    skipped row's value lies below a value that an earlier or same-block row
    reaches.  A looser bound only adds rows, which their full tables decide
    exactly, so ``tau``, ``beta`` and every tie-break are the enumeration's,
    bit for bit.  ``op_count`` still counts the enumeration's rates: it is
    the complexity measure the allocators are compared by, and it does not
    fall with the wall-clock time.
    """
    gam = np.array(_as_gamma(gamma))
    K = gam.size
    if K > 3:
        raise ConfigError(
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

    def optima(tau: np.ndarray):
        """The rate tables of the tau rows ``tau`` (shape ``(n, 1, 1)``), each
        row's best worst-case rate, and a function giving the first
        composition that reaches row i's."""
        nonlocal index
        eff = share_axis * (1.0 - tau)
        # _rate(eff, tau * g) in place (its operation order), saving temporaries
        tables = np.divide(tau * gam[:, np.newaxis], eff)
        tables += 1.0
        np.log2(tables, out=tables)
        tables *= eff
        values = np.partition(tables.reshape(tau.shape[0], -1), rank, axis=1)[:, rank]
        # rising[i]: every table of row i is non-decreasing.  With one share
        # step per UAV nothing is compared, hence rank > 0.
        rising = (tables[..., 1:] >= tables[..., :-1]).all(axis=(1, 2)) & (rank > 0)
        pick = {}  # row -> first composition with the row's worst-case rate
        for i in np.flatnonzero(~rising).tolist():
            if index is None:
                index = _compositions(grid_beta, K) - 1
            worst = tables[i, 0][index[0]]
            for k in range(1, K):
                np.minimum(worst, tables[i, k][index[k]], out=worst)
            pick[i] = int(worst.argmax())
            values[i] = worst[pick[i]]

        def steps(i: int) -> tuple[int, ...]:
            if not rising[i]:
                return tuple((1 + index[:, pick[i]]).tolist())
            head = ((tables[i, :-1] < values[i]).sum(axis=1) + 1).tolist()
            return (*head, grid_beta - sum(head))

        return tables, values, steps

    best_rate = -math.inf
    best_tau = math.nan  # every rate is >= 0, so the first block sets it
    # Until a block has set it, the best composition is the near-equal split.
    best_steps = tuple(grid_beta // K + (k < grid_beta % K) for k in range(K))
    # An overflowing tau * g / eff rates inf, as in the enumeration.
    with np.errstate(over="ignore"):
        for start in range(0, grid_tau, rows):
            tau = taus[start : start + rows, np.newaxis]
            one_minus_tau = 1.0 - tau
            # Lower bound: a row is worth at least its worst rate at the best
            # composition so far.  The floor row i0 has the largest.
            reference = share_axis[[s - 1 for s in best_steps]]
            lower = _rate(reference * one_minus_tau, tau * gam).min(axis=1)
            i0 = int(lower.argmax())
            tables, values, steps = optima(tau[i0 : i0 + 1, :, np.newaxis])
            # Upper bound: with j = s0 - 1 plus one step for the UAV that is
            # worst at row i0's composition s0, sum(j) = grid_beta - K + 1, so
            # every composition gives some UAV k at most j_k steps.
            j = [s - 1 for s in steps(0)]
            at_s0 = [tables[0, k, n] for k, n in enumerate(j)]
            j[at_s0.index(min(at_s0))] += 1
            upper = _row_bound(tau, gam, share_axis, j)
            # Only rows that may reach the floor can hold the first maximum.
            candidates = np.flatnonzero(upper >= max(values[0], best_rate))
            if not candidates.size:
                continue
            tables, values, steps = optima(tau[candidates, :, np.newaxis])
            i = int(values.argmax())
            if values[i] > best_rate:
                best_rate = float(values[i])
                best_tau = float(taus[start + candidates[i]])
                best_steps = steps(i)
    return AllocationResult(
        tau=best_tau,
        beta=tuple(float(s) / grid_beta for s in best_steps),
        iters_tau=0,
        iters_beta=0,
        inner_iters_beta=0,
        op_count=grid_tau * math.comb(grid_beta - 1, K - 1) * K,
    )
