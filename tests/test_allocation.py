"""Tests for the allocation strategies and their operation accounting.

Independent oracles used here: a golden-section search over the
equal-split SNR threshold (for the closed-form time split), scipy root
finding for the equal-rate bandwidth shares, central finite differences
for the min-rate derivative, and dense parameter grids for the bisection
phases.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, golden

from ehuav import allocation
from ehuav.allocation import (
    AllocationResult,
    conventional_allocate,
    conventional_allocate_batch,
    equal_bandwidth_batch,
    equal_bandwidth_taf,
    exhaustive_optimal,
    proposed_allocate,
    proposed_allocate_batch,
)
from ehuav.channel import EPSILON_MIN, make_link_budget, sample_gamma_matrix
from ehuav.configio import load_config
from ehuav.errors import ConfigError, EhuavError, NumericError
from ehuav.experiments import place_nodes
from ehuav.outage import Allocation, _rate, min_rate

EPS = 1e-4
# Gains whose phase 2 runs into its update cap at epsilon = 1e-12.
CAPPED = [1.6720491189230166e-06, 1.5935015582383428e-06, 1.4627688824795858e-06]
TABLE1 = Path(__file__).resolve().parent.parent / "configs" / "table1.yaml"


def worst_rate(beta, tau: float, gamma) -> float:
    gamma = np.asarray(gamma, dtype=float)
    rates = _rate(np.asarray(beta, dtype=float) * (1.0 - tau), tau * gamma)
    return float(np.min(rates))


def min_rate_slope(beta, gamma, tau: float) -> float:
    """d(min rate)/d(tau): the rate slope of the UAV that ``min_rate`` picks."""
    _, k = min_rate(Allocation(tau=tau, beta=tuple(beta)), gamma)
    return allocation._rate_slope(float(beta[k]), float(gamma[k]), tau)


def random_gains(K: int, seed: int, lo: float = -1.0, hi: float = 3.0) -> np.ndarray:
    """Composite-SNR draws spanning `lo`..`hi` decades."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(lo, hi, size=K)


def equal_split_threshold(tau: float, K: int, R_a: float) -> float:
    """SNR threshold of the equal-bandwidth policy; outage is monotone in it."""
    share = (1.0 / K) * (1.0 - float(tau))
    try:
        return share / float(tau) * (2.0 ** (R_a / share) - 1.0)
    except OverflowError:
        return math.inf


def golden_section_taf(K: int, R_a: float) -> float:
    """Locate the threshold minimiser by coarse grid plus golden refinement."""
    grid = np.linspace(1e-4, 1.0 - 1e-4, 4001)
    vals = [equal_split_threshold(t, K, R_a) for t in grid]
    i = int(np.argmin(vals))
    return float(
        golden(
            equal_split_threshold,
            args=(K, R_a),
            brack=(grid[i - 1], grid[i], grid[i + 1]),
            tol=1e-12,
        )
    )


def equal_rate_shares(tau: float, gamma) -> tuple[np.ndarray, float]:
    """Bandwidth shares equalising all rates, by nested scipy root finding."""
    gam = np.asarray(gamma, dtype=float)

    def share_for(r: float, g: float) -> float:
        return brentq(lambda b: _rate(b * (1.0 - tau), tau * g) - r, 1e-12, 1.0, xtol=1e-15)

    def excess(r: float) -> float:
        return math.fsum(share_for(r, float(g)) for g in gam) - 1.0

    r_hi = min(_rate(1.0 - tau, tau * float(g)) for g in gam)
    r = brentq(excess, 1e-9 * r_hi, r_hi * (1.0 - 1e-9), xtol=1e-13)
    return np.array([share_for(r, float(g)) for g in gam]), r


class TestEqualBandwidthTaf:
    def test_single_pair_value(self):
        assert equal_bandwidth_taf(1, 1.0) == pytest.approx(0.525627077863269, rel=1e-12)

    def test_six_pair_value(self):
        assert equal_bandwidth_taf(6, 1.0) == pytest.approx(0.19293594903112443, rel=1e-12)

    def test_depends_only_on_the_product(self):
        assert (
            equal_bandwidth_taf(6, 1.0)
            == equal_bandwidth_taf(2, 3.0)
            == equal_bandwidth_taf(3, 2.0)
        )
        assert equal_bandwidth_taf(4, 0.25) == equal_bandwidth_taf(1, 1.0)

    def test_decreasing_with_load(self):
        taus = [equal_bandwidth_taf(k, 1.0) for k in range(1, 11)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    @pytest.mark.parametrize("K,R_a", [(1, 1.0), (6, 1.0), (10, 2.0), (3, 0.5)])
    def test_matches_golden_section(self, K, R_a):
        assert equal_bandwidth_taf(K, R_a) == pytest.approx(
            golden_section_taf(K, R_a), abs=1e-6
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="integer"):
            equal_bandwidth_taf(0, 1.0)
        with pytest.raises(ConfigError, match="integer"):
            equal_bandwidth_taf(2.0, 1.0)
        with pytest.raises(ConfigError, match="R_a"):
            equal_bandwidth_taf(3, 0.0)
        with pytest.raises(ConfigError, match="R_a must be < 1024"):
            equal_bandwidth_taf(6, 1.0e16)

    @pytest.mark.parametrize("R_a", [math.inf, math.nan])
    def test_rejects_a_rate_target_outside_the_scenario_rule(self, R_a):
        # An infinite R_a passed "> 0" and ended in a NaN time split, which
        # raised the numeric-failure class for a bad argument.
        message = rf"R_a must be finite and > 0, got {R_a}"
        with pytest.raises(ConfigError, match=message):
            equal_bandwidth_taf(6, R_a)
        with pytest.raises(ConfigError, match=message):
            equal_bandwidth_batch(np.ones((2, 6)), R_a)

    @pytest.mark.parametrize("K", [1, 6, 64])
    @pytest.mark.parametrize("R_a", [1e-8, 1e-10, 1e-13, 1e-16, 1e-18, 1e-24, 1e-30, 1e-32])
    def test_tiny_rate_target_matches_mpmath(self, K, R_a):
        # 1 + q + w cancels near W0's branch point: it put 1 - tau 1.5e-7
        # off at R_a = 1e-10 (K = 6) and rounded to 0 at 1e-18, a
        # ZeroDivisionError.
        with mpmath.workdps(60):
            q = K * mpmath.mpf(R_a) * mpmath.log(2)
            exact = float(1 - q / (1 + q + mpmath.lambertw(-mpmath.exp(-1 - q)).real))
        assert abs(equal_bandwidth_taf(K, R_a) - exact) <= math.ulp(exact)

    @pytest.mark.parametrize("K", [1, 6, 64])
    def test_small_rate_targets_match_mpmath_within_4_ulp(self, K):
        # W0's argument -exp(-1) 2^(-K R_a), rounded before W0 sees it, is
        # magnified near the branch point by about 1/p^2: tau was 640 ulp
        # off at K = 1, R_a = 1e-6 and 754 at K = 6, R_a = 1.8e-7.  Far from
        # it, 1 - q / (1 + q + w) cancels as tau falls: more than 4 ulp off
        # from K R_a = 4.6 up, and 14890 ulp at K = 64, R_a = 901.  Solving
        # for 1 + w from q at every rate keeps tau within 3 ulp.  At K = 1,
        # R_a = 52.28... the start 1 - exp(-1 - q) rounds to 1 - 2**-53, just
        # left of the root, and the first Newton step rounds to 1.0, where a
        # second step's log1p(-v) would be a domain error.
        for R_a in np.geomspace(1e-7, 1023, 120).tolist() + [52.28145950110455]:
            with mpmath.workdps(60):
                q = K * mpmath.mpf(R_a) * mpmath.log(2)
                exact = 1 - q / (1 + q + mpmath.lambertw(-mpmath.exp(-1 - q)).real)
            tau = equal_bandwidth_taf(K, R_a)
            assert abs(tau - exact) <= 4 * math.ulp(tau), R_a

    def test_split_that_rounds_to_one_is_a_numeric_error(self):
        with pytest.raises(NumericError, match=r"left \(0,1\): 1.0"):
            equal_bandwidth_taf(6, 1e-40)

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(1, 8), R_a=st.floats(0.2, 3.0))
    def test_local_minimum_of_threshold(self, K, R_a):
        tau = equal_bandwidth_taf(K, R_a)
        here = equal_split_threshold(tau, K, R_a)
        assert equal_split_threshold(tau - 1e-3, K, R_a) >= here
        assert equal_split_threshold(tau + 1e-3, K, R_a) >= here


class TestMinRateTauDerivative:
    def test_matches_central_differences(self):
        h = 1e-6
        beta = np.array([0.1, 0.2, 0.3, 0.4])
        for seed in range(6):
            gam = random_gains(4, seed)
            for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
                stencil = (tau - h, tau, tau + h)
                args = [np.argmin(_rate(beta * (1.0 - t), t * gam)) for t in stencil]
                if len(set(int(a) for a in args)) != 1:
                    continue  # weakest UAV switches inside the stencil
                fd = (worst_rate(beta, tau + h, gam) - worst_rate(beta, tau - h, gam)) / (2 * h)
                assert min_rate_slope(beta, gam, tau) == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @settings(max_examples=80, deadline=None)
    @given(
        tau=st.floats(0.05, 0.95),
        log_g=st.floats(-2.0, 4.0),
    )
    def test_single_pair_finite_differences(self, tau, log_g):
        g = 10.0**log_g
        h = 1e-6
        fd = (worst_rate([1.0], tau + h, [g]) - worst_rate([1.0], tau - h, [g])) / (2 * h)
        analytic = allocation._rate_slope(1.0, g, tau)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_sign_pattern_brackets_an_interior_maximum(self):
        gam = random_gains(3, 11, lo=0.0, hi=2.0)
        equal = (1 / 3, 1 / 3, 1 / 3)
        assert min_rate_slope(equal, gam, 1e-4) > 0.0
        assert min_rate_slope(equal, gam, 1.0 - 1e-4) < 0.0


class TestPhase1Taf:
    """Phase 1 of :func:`proposed_allocate`, on checked arguments."""

    @pytest.mark.parametrize("eps,expected", [(1e-3, 10), (1e-4, 14), (1e-5, 17)])
    def test_iteration_count_is_fixed_by_epsilon(self, eps, expected):
        gam = random_gains(3, 7, lo=0.0, hi=2.0)
        _, iters = allocation._phase1(gam, eps)
        assert iters == expected == math.ceil(math.log2((1.0 - 2.0 * eps) / eps))

    @pytest.mark.parametrize("gains", [[37.0], [0.8, 11.0, 230.0]])
    def test_matches_dense_grid_argmax(self, gains):
        gam = np.asarray(gains, dtype=float)
        K = gam.size
        beta = np.full(K, 1.0 / K)
        tau, _ = allocation._phase1(gam, EPS)
        taus = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        eff = np.outer(1.0 - taus, beta)
        rates = eff * np.log2(1.0 + taus[:, None] * gam / eff)
        best = taus[int(np.argmax(rates.min(axis=1)))]
        assert abs(tau - best) <= EPS

    def test_vanishing_gains_cannot_bracket(self):
        with pytest.raises(NumericError, match="bracket"):
            allocation._phase1(np.array([1e-9]), EPS)

    def test_brackets_across_gain_scales(self):
        for exponent in range(-2, 5):
            tau, _ = allocation._phase1(np.array([10.0**exponent]), EPS)
            assert 0.0 < tau < 1.0

    def test_weakest_uav_is_the_smallest_gain_even_where_rates_tie(self):
        # At tau = epsilon, log2(1 + x) rounds the rates of the two smallest
        # gains to 0.0, so the rate argmin (min_rate) picks index 1; phase 1
        # follows the smallest gain, index 2.
        gains = [1.37558935e-05, 1.78042568e-13, 1.12371205e-13, 2.59839270e-02]
        eps = 2.876e-05
        rates = _rate(np.full(4, 0.25) * (1.0 - eps), eps * np.array(gains))
        assert rates[1] == rates[2] == 0.0
        smallest = allocation._rate_slope(0.25, gains[2], eps)
        lowest_index = min_rate_slope((0.25,) * 4, gains, eps)
        assert smallest != lowest_index
        assert smallest == 1.6212204282216865e-13
        with pytest.raises(NumericError, match="bracket") as info:
            allocation._phase1(np.array(gains), eps)
        assert f"d(lo)={smallest!r}," in str(info.value)


class TestLowSnrBoundary:
    """Phase 1 brackets a maximum only where the smallest gain is above
    about 2 epsilon**2 / K, so below that the two-phase scheme and the
    nested baseline raise (see README, "Known gaps")."""

    BRACKET = r"min-rate derivative does not bracket a maximum on \[0.0001, 0.9999\]"

    @staticmethod
    def calls(gains):
        for scalar, batch in (
            (proposed_allocate, proposed_allocate_batch),
            (conventional_allocate, conventional_allocate_batch),
        ):
            yield lambda scalar=scalar: scalar(gains, EPS)
            yield lambda batch=batch: batch(np.array([gains]), EPS).row(0)

    @pytest.mark.parametrize("g_min", [1e-9, 1e-13])
    def test_below_the_bound_every_form_raises_the_same_error(self, g_min):
        messages = set()
        for call in self.calls([g_min, 1.0, 1.0]):
            with pytest.raises(NumericError, match=self.BRACKET) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_the_message_names_the_cause_in_scenario_terms(self):
        # The slope still rises at 1 - epsilon: the message says so and
        # gives the weakest gain beside the bound 2 epsilon^2 / K.
        cause = (
            "; the min rate still rises at tau = 1 - epsilon, so the optimal time split "
            "lies above it: the weakest gain g=1e-09 is below about "
            "2*epsilon**2/K = 6.66667e-09"
        )
        for call in self.calls([1e-9, 1.0, 1.0]):
            with pytest.raises(NumericError, match=self.BRACKET) as info:
                call()
            assert str(info.value).endswith(cause)
        falling = str(allocation._bracket_error(EPS, -1.0, -2.0, 5.0, 3))
        assert falling == (
            "min-rate derivative does not bracket a maximum on [0.0001, 0.9999]: "
            "d(lo)=-1.0, d(hi)=-2.0"
        )

    def test_above_the_bound_every_form_allocates(self):
        for call in self.calls([1e-6, 1.0, 1.0]):
            assert 0.0 < call().tau < 1.0

    @pytest.mark.parametrize("K", [3, 6])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-6])
    def test_the_bound_is_two_epsilon_squared_over_k(self, K, epsilon):
        bound = 2.0 * epsilon**2 / K
        with pytest.raises(NumericError, match="bracket"):
            proposed_allocate([0.99 * bound] + [1.0] * (K - 1), epsilon)
        assert 0.0 < proposed_allocate([1.01 * bound] + [1.0] * (K - 1), epsilon).tau < 1.0


class TestPhase2Baf:
    """Phase 2 of :func:`proposed_allocate`, on checked arguments."""

    def test_already_equal_needs_no_updates(self):
        beta, iters = allocation._phase2(0.4, np.full(3, 3.0), EPS, [1 / 3] * 3)
        assert iters == 0
        assert np.allclose(beta, 1 / 3)

    def test_single_pair_is_trivial(self):
        beta, iters = allocation._phase2(0.3, np.array([5.0]), EPS, [1.0])
        assert iters == 0
        assert beta == [1.0]

    def test_terminal_spread_and_conservation(self):
        for seed in range(20):
            K = 2 + seed % 5
            gam = random_gains(K, seed)
            beta, iters = allocation._phase2(0.3, gam, EPS, [1.0 / K] * K)
            rates = _rate(np.array(beta) * (1.0 - 0.3), 0.3 * gam)
            assert float(rates.max() - rates.min()) <= EPS
            assert abs(math.fsum(beta) - 1.0) <= 1e-12
            assert iters >= 1

    def test_matches_equal_rate_root_finder(self):
        gam = np.array([0.5, 5.0, 50.0])
        beta, _ = allocation._phase2(0.3, gam, EPS, [1 / 3] * 3)
        oracle_beta, common = equal_rate_shares(0.3, gam)
        assert worst_rate(beta, 0.3, gam) == pytest.approx(common, abs=10 * EPS)
        assert np.allclose(beta, oracle_beta, atol=0.02)

    def test_update_cap_is_enforced(self):
        # At this SNR and epsilon the gap stays above epsilon until the
        # 10*K*ceil(log10(1/epsilon)) cap, on the per-draw and batch forms.
        message = "did not converge in 360 updates"
        tau, _ = allocation._phase1(np.array(CAPPED), 1e-12)
        with pytest.raises(NumericError, match=message):
            allocation._phase2(tau, np.array(CAPPED), 1e-12, [1 / 3] * 3)
        with pytest.raises(NumericError, match=message) as info:
            proposed_allocate(CAPPED, 1e-12)
        batch = proposed_allocate_batch(np.array([CAPPED]), 1e-12)
        with pytest.raises(NumericError) as batch_info:
            batch.row(0)
        assert str(batch_info.value) == str(info.value)

    @pytest.mark.parametrize("beta_init", [[5e-324, 1.0], [1.0, 5e-324]])
    def test_nan_rate_raises_the_cap_error_at_once(self, beta_init):
        # A share of 5e-324 times (1 - tau) underflows to 0, so its rate is
        # 0 * log2(inf) = NaN: the gap could never reach epsilon.
        with pytest.raises(NumericError) as info:
            allocation._phase2(0.5, np.array([1.0, 2.0]), EPS, list(beta_init))
        assert str(info.value) == (
            "bandwidth equalization did not converge in 80 updates: "
            "gap=nan > epsilon=0.0001 (K=2, tau=0.5)"
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as reference:
                reference_phase2_baf(0.5, np.array([1.0, 2.0]), EPS, np.array(beta_init))
        assert str(reference.value) == str(info.value)

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_random_instances_converge_equalised(self, K, seed):
        gam = random_gains(K, seed)
        beta, _ = allocation._phase2(0.35, gam, EPS, [1.0 / K] * K)
        rates = _rate(np.array(beta) * (1.0 - 0.35), 0.35 * gam)
        assert float(rates.max() - rates.min()) <= EPS
        assert abs(math.fsum(beta) - 1.0) <= 1e-12


# The per-draw allocators as they were before phase 1 followed the smallest
# gain and phase 2 recomputed two rates per update: kept verbatim, minus
# the argument checks and the data-phase share (the full block's 1.0, a
# factor that changes no bit), as the reference the current ones must equal.
def reference_dmin_rate_dtau(beta, gamma, tau):
    k = int(np.argmin(_rate(beta * (1.0 - tau), tau * gamma)))
    b = float(beta[k])
    g = float(gamma[k])
    eff = b * (1.0 - tau)
    return (
        -b * math.log2(1.0 + tau * g / eff)
        + b * g / (allocation._LN2 * (eff + tau * g))
    )


def reference_phase1_taf(bet, gam, epsilon):
    lo, hi = epsilon, 1.0 - epsilon
    d_lo = reference_dmin_rate_dtau(bet, gam, lo)
    d_hi = reference_dmin_rate_dtau(bet, gam, hi)
    if not (d_lo > 0.0 and d_hi < 0.0):
        raise allocation._bracket_error(epsilon, d_lo, d_hi, float(np.min(gam)), gam.size)
    iters = 0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if reference_dmin_rate_dtau(bet, gam, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters


def reference_phase2_baf(tau_o, gam, epsilon, beta_init):
    beta = beta_init.copy()
    cap = 10 * gam.size * math.ceil(math.log10(1.0 / epsilon))
    iters = 0
    while True:
        # Unchecked: a NaN share must run on to the update cap.
        rates = _rate(beta * (1.0 - tau_o), tau_o * gam)
        k_hat = int(np.argmax(rates))
        k_check = int(np.argmin(rates))
        gap = float(rates[k_hat] - rates[k_check])
        if gap <= epsilon:
            return beta, iters
        if iters >= cap:
            raise allocation._cap_error(cap, gap, epsilon, gam.size, tau_o)
        step = float(beta[k_hat]) * gap / (2.0 * float(rates[k_hat]))
        beta[k_check] += step
        beta[k_hat] -= step
        iters += 1


def reference_proposed_allocate(gam, epsilon):
    K = gam.size
    equal = np.full(K, 1.0 / K)
    tau_o, iters_tau = reference_phase1_taf(equal, gam, epsilon)
    beta_o, iters_beta = reference_phase2_baf(tau_o, gam, epsilon, equal)
    return AllocationResult(
        tau=tau_o,
        beta=tuple(float(b) for b in beta_o),
        iters_tau=iters_tau,
        iters_beta=iters_beta,
        inner_iters_beta=0,
        op_count=K + iters_tau + iters_beta * K,
    )


def reference_share_bisection(rate, target, epsilon):
    """The baseline's inner bisection for the smallest share whose rate
    reaches the target: its final bracket ``(lo, hi)`` and its step count."""
    lo, hi, steps = epsilon, 1.0 - epsilon, 0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if rate(mid) >= target:
            hi = mid
        else:
            lo = mid
        steps += 1
    return lo, hi, steps


def reference_conventional_allocate(gam, epsilon, phase1=reference_phase1_taf):
    K = gam.size
    equal = np.full(K, 1.0 / K)
    tau_o, iters_tau = phase1(equal, gam, epsilon)
    if K == 1:
        return AllocationResult(
            tau=tau_o,
            beta=(1.0,),
            iters_tau=iters_tau,
            iters_beta=0,
            inner_iters_beta=0,
            op_count=iters_tau,
        )

    def rate_k(beta_k: float, k: int) -> float:
        eff = beta_k * (1.0 - tau_o)
        return eff * math.log2(1.0 + tau_o * gam[k] / eff)

    def shares_for_target(target: float):
        inner = 0
        shares = np.empty(K)
        for k in range(K):
            if rate_k(1.0 - epsilon, k) < target:
                return None, inner
            _, shares[k], steps = reference_share_bisection(
                lambda share: rate_k(share, k), target, epsilon
            )
            inner += steps
        return shares, inner

    target_lo = 0.0
    target_hi = min(rate_k(1.0 - epsilon, k) for k in range(K))
    best = np.full(K, epsilon)
    iters_beta = 0
    inner_total = 0
    while target_hi - target_lo > epsilon:
        target = 0.5 * (target_lo + target_hi)
        shares, inner = shares_for_target(target)
        inner_total += inner
        iters_beta += 1
        feasible = shares is not None and float(shares.sum()) <= 1.0
        if target == (target_lo if feasible else target_hi):
            raise allocation._stall_error(target_lo, target_hi, epsilon)
        if feasible:
            target_lo = target
            best = shares
        else:
            target_hi = target
    best = best / best.sum()
    return AllocationResult(
        tau=tau_o,
        beta=tuple(float(b) for b in best),
        iters_tau=iters_tau,
        iters_beta=iters_beta,
        inner_iters_beta=inner_total,
        op_count=iters_tau * K + inner_total,
    )


def default_scenario_draws(K: int, trials: int, seed: int) -> np.ndarray:
    """Channel draws of configs/table1.yaml resized to K UAVs."""
    net = load_config(TABLE1).network
    net = replace(net, K=K, p_c=(net.p_c[0],) * K, m_h=(net.m_h[0],) * K, m_g=(net.m_g[0],) * K)
    budgets = [make_link_budget(k, net, geom) for k, geom in enumerate(place_nodes(net))]
    return sample_gamma_matrix(budgets, net, np.random.default_rng(seed), trials)


def pairs_of(gains, epsilon) -> int:
    """Every (UAV, target) pair the per-draw baseline solves on ``gains``."""
    return sum(len(gam) * conventional_allocate(gam, epsilon).iters_beta for gam in gains)


@pytest.mark.parametrize("K", range(1, 11))
def test_per_draw_allocators_equal_the_reference(K):
    epsilon = load_config(TABLE1).network.epsilon
    for gam in default_scenario_draws(K, 30, 100 + K):
        for current, reference in (
            (proposed_allocate, reference_proposed_allocate),
            (conventional_allocate, reference_conventional_allocate),
        ):
            res = current(gam, epsilon)
            assert bits(res) == bits(reference(gam, epsilon))
            # min_rate as it was: the rate over the shares, charged with
            # several overhead shares.
            for nu_r in (0.0, 0.05, 0.5):
                alloc = res.as_allocation(nu_r)
                eff = np.asarray(alloc.beta) * (1.0 - alloc.tau)
                rates = _rate(eff, alloc.tau * gam, alloc.nu_c)
                value, k = min_rate(alloc, gam)
                assert (value.hex(), k) == (float(rates.min()).hex(), int(np.argmin(rates)))


def outcome(allocate, *args):
    """Every field of the result (see :func:`bits`), or the class and
    message of the error raised."""
    try:
        return bits(allocate(*args))
    except EhuavError as exc:
        return type(exc), str(exc)


def test_per_draw_allocators_equal_the_reference_on_random_gains():
    # Gains over five decades, K = 2..8, several tolerances.
    rng = np.random.default_rng(8)
    for _ in range(200):
        K = int(rng.integers(2, 9))
        gam = 10.0 ** rng.uniform(-2.0, 3.0, size=K)
        epsilon = 10.0 ** rng.uniform(-6.0, -2.0)
        assert bits(proposed_allocate(gam, epsilon)) == bits(
            reference_proposed_allocate(gam, epsilon)
        )
        assert bits(conventional_allocate(gam, epsilon)) == bits(
            reference_conventional_allocate(gam, epsilon)
        )


def test_per_draw_allocators_equal_the_reference_over_the_whole_range():
    # K = 1..64, epsilon over its whole range, gains over fourteen decades:
    # the weakest draws cannot bracket the time split and raise.
    rng = np.random.default_rng(8)
    raised = 0
    for _ in range(120):
        K = int(rng.integers(1, 65))
        gam = 10.0 ** rng.uniform(-6.0, 8.0, size=K)
        epsilon = 10.0 ** rng.uniform(math.log10(EPSILON_MIN), math.log10(0.4))
        for current, reference in (
            (proposed_allocate, reference_proposed_allocate),
            (conventional_allocate, reference_conventional_allocate),
        ):
            found = outcome(current, gam, epsilon)
            assert found == outcome(reference, gam, epsilon)
        raised += isinstance(found[0], type)
    assert 0 < raised < 120


# Tolerances from the top of the range to its floor: the inner bisections
# take 0 to 40 steps.
PER_DRAW_EPSILONS = [0.4, 1e-2, 1e-4, 2e-5, 1e-7, EPSILON_MIN]


@pytest.mark.parametrize(
    "gam",
    [
        (1.0, 1e200), (100.0, 1e170), (1.0, 1e250), (3.0, 1e-3, 1e290),
        (1e308,) * 4,  # whole-band rates near 1024 bit/s/Hz
        (5e-5, 6e-5),  # SNRs below 0.01
    ],
)
@pytest.mark.parametrize("epsilon", [0.3, *PER_DRAW_EPSILONS])
def test_conventional_equals_the_reference_on_extreme_draws(gam, epsilon):
    with np.errstate(over="ignore"):  # the reference's array rates at 1e308
        expected = outcome(reference_conventional_allocate, np.array(gam), epsilon)
    assert outcome(conventional_allocate, np.array(gam), epsilon) == expected


@pytest.mark.parametrize("K", [1, 2, 3, 6, 10, 64])
@pytest.mark.parametrize("epsilon", PER_DRAW_EPSILONS)
def test_conventional_equals_the_reference_across_the_gain_range(K, epsilon):
    # Gains over 600 decades, where from K = 6 nearly every draw raises in
    # phase 1, and over 18 decades: results, tallies, or error and message.
    # Where the smallest gains' rates round to equal values, the reference's
    # phase 1 follows another UAV (see TestPhase1Taf), so the reference runs
    # the current phase 1 here.
    def phase1(equal, gam, epsilon):
        return allocation._phase1(gam.tolist(), epsilon)

    rng = np.random.default_rng(100 * K + PER_DRAW_EPSILONS.index(epsilon))
    for low, high in ((-300.0, 300.0), (-8.0, 10.0)):
        for gam in 10.0 ** rng.uniform(low, high, size=(3, K)):
            assert outcome(conventional_allocate, gam, epsilon) == outcome(
                reference_conventional_allocate, gam, epsilon, phase1
            )


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(), min_size=1, max_size=64),
    targets=st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
    epsilon=st.sampled_from(PER_DRAW_EPSILONS),
)
def test_reference_share_bracket_is_non_decreasing_in_the_target(values, targets, epsilon):
    # Whatever the rate at each midpoint, NaN and inf included, a midpoint
    # that misses a target misses every higher one.  The per-draw baseline
    # skips the midpoints that this decides.
    def rate(share: float) -> float:
        return values[hash(share) % len(values)]

    low, high = sorted(targets)
    lo_1, hi_1, _ = reference_share_bisection(rate, low, epsilon)
    lo_2, hi_2, _ = reference_share_bisection(rate, high, epsilon)
    assert lo_1 <= lo_2 and hi_1 <= hi_2


def test_per_draw_baseline_rates_at_most_eight_midpoints_per_pair(monkeypatch):
    # The plain loop rates all 14 midpoints of each (UAV, target) pair.
    epsilon = load_config(TABLE1).network.epsilon
    gains = default_scenario_draws(6, 200, 12)
    pairs = pairs_of(gains, epsilon)
    calls = 0
    rate = allocation._rate

    def counting(*args):
        nonlocal calls
        calls += 1
        return rate(*args)

    monkeypatch.setattr(allocation, "_rate", counting)
    for gam in gains:
        conventional_allocate(gam, epsilon)
    assert 0 < calls <= 8 * pairs


def test_per_draw_baseline_builds_no_share_tree(monkeypatch):
    def refuse(epsilon):
        raise AssertionError(f"share tree built at epsilon={epsilon}")

    monkeypatch.setattr(allocation, "_share_tree", refuse)
    gains = default_scenario_draws(6, 5, 3)
    for epsilon in PER_DRAW_EPSILONS:
        for gam in gains:
            assert outcome(conventional_allocate, gam, epsilon) == outcome(
                reference_conventional_allocate, gam, epsilon
            )
    with pytest.raises(AssertionError, match="share tree"):
        conventional_allocate_batch(gains, EPS)


def counted_targets(monkeypatch):
    """One entry per per-draw baseline call from here on: the targets it
    evaluates (each evaluation sums its shares once)."""
    counts = []
    fits = allocation._fits_the_band

    def counting(shares):
        counts[-1] += 1
        return fits(shares)

    def allocate(gam, epsilon):
        counts.append(0)
        return conventional_allocate(gam, epsilon)

    monkeypatch.setattr(allocation, "_fits_the_band", counting)
    return counts, allocate


# Tolerances whose share-tree leaves lie at two depths, D and D + 1: a
# bracket at depth D is as wide as epsilon up to rounding.
TWO_DEPTH_EPSILONS = [0.1] + [1.0 / (2**D + 2) for D in range(2, 15)]


@pytest.mark.parametrize("epsilon", TWO_DEPTH_EPSILONS)
def test_two_depth_tolerances_evaluate_every_target(epsilon, monkeypatch):
    # The uniform-depth test proves nothing there, so every target of the
    # path is evaluated and its steps counted, as the reference counts them.
    D = round(math.log2(1.0 / epsilon - 2.0))
    assert set(allocation._share_tree(epsilon).depth.tolist()) == {D, D + 1}
    assert allocation._uniform_depth(epsilon) is None
    counts, allocate = counted_targets(monkeypatch)
    gains = default_scenario_draws(6, 4, 21)
    for gam in [*gains, *10.0 ** np.random.default_rng(D).uniform(-1.0, 3.0, size=(4, 5))]:
        expected = outcome(reference_conventional_allocate, gam, epsilon)
        assert outcome(allocate, gam, epsilon) == expected
        assert counts[-1] == expected[3]


def test_uniform_depth_agrees_with_the_share_tree():
    # Tolerances whose whole tree fits under the tabulation cap.
    rng = np.random.default_rng(17)
    epsilons = 10.0 ** rng.uniform(math.log10(4e-5), math.log10(0.49), 250)
    for epsilon in [*epsilons.tolist(), 0.4, EPS]:
        depths = set(allocation._share_tree(epsilon).depth.tolist())
        assert max(depths) < allocation._SHARE_TREE_DEPTH
        depth = allocation._uniform_depth(epsilon)
        # Proved, or leaves at two depths.
        assert depths == ({depth} if depth is not None else {min(depths), min(depths) + 1})
    # Exactly at a depth's width the margin proves neither side, so a tree
    # of one depth goes unproved and every target is evaluated.
    assert set(allocation._share_tree(0.25).depth.tolist()) == {1}
    assert allocation._uniform_depth(0.25) is None


@pytest.mark.parametrize("epsilon", [1e-2, EPS, 2e-5, 1e-7, EPSILON_MIN])
def test_uniform_depth_counts_the_reference_steps(epsilon):
    D = allocation._uniform_depth(epsilon)
    assert D is not None
    for gam in default_scenario_draws(6, 10, 31):
        res = reference_conventional_allocate(gam, epsilon)
        assert res.inner_iters_beta == res.iters_beta * 6 * D


@pytest.mark.parametrize("where", ["zero", "top", "nan", "inf", "bottom leaf", "far leaf"])
def test_a_wrong_prediction_costs_time_only(where, monkeypatch):
    # The prediction only picks the first two targets: whatever it says,
    # the result is the reference's, and every other target evaluated is a
    # node of the path.
    def predicted(tau_gam, one_minus_tau, epsilon, depth):
        top = min(_rate((1.0 - epsilon) * one_minus_tau, c, 1.0, math.log2) for c in tau_gam)
        return {
            "zero": 0.0, "top": top, "nan": math.nan, "inf": math.inf,
            "bottom leaf": 1e-9 * top, "far leaf": 0.93 * top,
        }[where]

    monkeypatch.setattr(allocation, "_predicted_flip", predicted)
    counts, allocate = counted_targets(monkeypatch)
    gains = [*default_scenario_draws(6, 10, 4), *default_scenario_draws(3, 10, 5)]
    for epsilon in (EPS, 1e-2, 1e-7):
        for gam in gains:
            expected = outcome(reference_conventional_allocate, gam, epsilon)
            assert outcome(allocate, gam, epsilon) == expected
            assert counts[-1] <= expected[3] + 2


def test_per_draw_baseline_evaluates_two_targets_per_default_draw(monkeypatch):
    # Measured on these 200 draws: 2.00 targets evaluated per draw (2 on
    # every draw) and 153.1 rate calls per draw, where evaluating each of
    # the path's 14.9 targets takes 623.5.  The bounds leave 10% headroom.
    epsilon = load_config(TABLE1).network.epsilon
    gains = default_scenario_draws(6, 200, 12)
    counts, allocate = counted_targets(monkeypatch)
    calls = 0
    rate = allocation._rate

    def counting(*args):
        nonlocal calls
        calls += 1
        return rate(*args)

    monkeypatch.setattr(allocation, "_rate", counting)
    for gam in gains:
        allocate(gam, epsilon)
    assert np.mean(counts) <= 2.2
    assert calls / len(gains) <= 170


class TestProposedAllocate:
    def test_bookkeeping_and_conservation(self):
        for seed in range(40):
            K = 2 + seed % 7
            res = proposed_allocate(random_gains(K, seed), EPS)
            assert len(res.beta) == K
            assert res.op_count == K + res.iters_tau + res.iters_beta * K
            assert res.inner_iters_beta == 0
            assert res.iters_tau == 14
            assert abs(math.fsum(res.beta) - 1.0) <= 1e-12

    def test_dominates_the_equal_split_policy(self):
        for seed in range(30):
            K = 2 + seed % 5
            gam = random_gains(K, 100 + seed)
            res = proposed_allocate(gam, EPS)
            r_prop = worst_rate(res.beta, res.tau, gam)
            r_eq = worst_rate(np.full(K, 1.0 / K), equal_bandwidth_taf(K, 1.0), gam)
            assert r_prop >= r_eq - 1e-9

    def test_two_pair_draw_is_near_the_grid_optimum(self):
        gam = random_gains(2, 5, lo=0.5, hi=2.5)
        res = proposed_allocate(gam, EPS)
        grid = exhaustive_optimal(gam, grid_tau=2000, grid_beta=2000)
        r_prop = worst_rate(res.beta, res.tau, gam)
        r_grid = worst_rate(grid.beta, grid.tau, gam)
        assert r_prop >= r_grid * (1.0 - 1e-3)

    def test_as_allocation_round_trip(self):
        gam = random_gains(3, 9)
        res = proposed_allocate(gam, EPS)
        alloc = res.as_allocation()
        assert alloc.tau == res.tau
        assert alloc.beta == res.beta
        assert alloc.nu_c == 1.0
        value, _ = min_rate(alloc, gam)
        assert value == pytest.approx(worst_rate(res.beta, res.tau, gam), rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="epsilon"):
            proposed_allocate([2.0], 0.6)
        with pytest.raises(ConfigError, match="positive"):
            proposed_allocate([0.0], EPS)


class TestConventionalAllocate:
    def test_same_time_split_as_proposed(self):
        gam = random_gains(5, 13)
        prop = proposed_allocate(gam, EPS)
        conv = conventional_allocate(gam, EPS)
        assert conv.tau == prop.tau
        assert conv.iters_tau == prop.iters_tau

    def test_rate_agreement_with_proposed(self):
        for seed, K in [(1, 2), (2, 3), (3, 5), (4, 8)]:
            gam = random_gains(K, seed)
            prop = proposed_allocate(gam, EPS)
            conv = conventional_allocate(gam, EPS)
            r_prop = worst_rate(prop.beta, prop.tau, gam)
            r_conv = worst_rate(conv.beta, conv.tau, gam)
            assert r_conv == pytest.approx(r_prop, abs=10 * EPS)

    def test_bookkeeping(self):
        gam = random_gains(4, 17)
        res = conventional_allocate(gam, EPS)
        assert res.op_count == res.iters_tau * 4 + res.inner_iters_beta
        assert res.inner_iters_beta > res.iters_beta >= 1
        assert abs(math.fsum(res.beta) - 1.0) <= 1e-12

    def test_single_pair_degenerates_to_phase1(self):
        res = conventional_allocate([25.0], EPS)
        assert res.beta == (1.0,)
        assert res.iters_beta == 0
        assert res.inner_iters_beta == 0
        assert res.op_count == res.iters_tau

    def test_mean_operation_ordering(self):
        for K in (2, 6, 10):
            ops_prop, ops_conv, it_prop, it_conv = [], [], [], []
            for seed in range(40):
                gam = random_gains(K, 1000 * K + seed)
                p = proposed_allocate(gam, EPS)
                c = conventional_allocate(gam, EPS)
                ops_prop.append(p.op_count)
                ops_conv.append(c.op_count)
                it_prop.append(p.iters_tau + p.iters_beta)
                it_conv.append(c.iters_tau + c.iters_beta + c.inner_iters_beta)
            assert np.mean(ops_prop) < np.mean(ops_conv)
            assert np.mean(it_prop) < np.mean(it_conv)


class TestFitsTheBand:
    """The baseline's feasibility test equals ``float(np.sum(s)) <= 1.0``."""

    def test_random_share_lists(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            K = int(rng.integers(1, 65))
            spread = rng.choice([0.5, 1e-9, 1e-13, 1e-15])
            scale = 1.0 + spread * rng.uniform(-1.0, 1.0)
            shares = (rng.dirichlet(np.ones(K)) * scale).tolist()
            assert allocation._fits_the_band(shares) == (float(np.sum(shares)) <= 1.0)

    def test_share_lists_within_ulps_of_one(self):
        # From K = 8 numpy sums pairwise, so on these lists a plain sum and
        # numpy's often fall on different sides of 1.0.
        rng = np.random.default_rng(4)
        differ = 0
        for _ in range(2000):
            K = int(rng.integers(1, 65))
            shares = rng.dirichlet(np.ones(K))
            shares /= np.sum(shares)
            shares[-1] += int(rng.integers(-4, 5)) * 2.0**-53
            shares = shares.tolist()
            numpy_fits = float(np.sum(shares)) <= 1.0
            assert allocation._fits_the_band(shares) == numpy_fits
            differ += (sum(shares) <= 1.0) != numpy_fits
        assert differ > 50


def bits(res: AllocationResult) -> tuple:
    """Every field of a result, floats by their exact bit pattern."""
    return (
        res.tau.hex(),
        tuple(b.hex() for b in res.beta),
        res.iters_tau,
        res.iters_beta,
        res.inner_iters_beta,
        res.op_count,
    )


def simplex_enumeration_optimal(
    gam: np.ndarray, grid_tau: int, grid_beta: int
) -> AllocationResult:
    """Oracle for :func:`exhaustive_optimal`: its earlier brute force, which
    visits every (tau, composition) point, kept verbatim minus the argument
    checks."""
    K = gam.size
    if K == 1:
        comps = [(grid_beta,)]
    elif K == 2:
        comps = [(i, grid_beta - i) for i in range(1, grid_beta)]
    else:
        comps = [
            (i, j, grid_beta - i - j)
            for i in range(1, grid_beta - 1)
            for j in range(1, grid_beta - i)
        ]
    steps = np.array(comps, dtype=np.int64)
    # Rates depend on a composition only through each UAV's own step count,
    # so per-tau work is K small rate tables plus gathers over the simplex.
    gathers = [steps[:, k] - 1 for k in range(K)]
    share_axis = np.arange(1, grid_beta + 1, dtype=float) / grid_beta

    best_rate = -math.inf
    best_tau = math.nan
    best_idx = -1
    for j in range(1, grid_tau + 1):
        tau = j / (grid_tau + 1)
        eff = share_axis * (1.0 - tau)
        tables = [eff * np.log2(1.0 + tau * g / eff) for g in gam]
        worst = tables[0][gathers[0]]
        for k in range(1, K):
            np.minimum(worst, tables[k][gathers[k]], out=worst)
        value = float(worst.max())
        if value > best_rate:
            best_rate = value
            best_tau = tau
            best_idx = int(worst.argmax())
    return AllocationResult(
        tau=best_tau,
        beta=tuple(float(s) / grid_beta for s in steps[best_idx]),
        iters_tau=0,
        iters_beta=0,
        inner_iters_beta=0,
        op_count=grid_tau * len(comps) * K,
    )


@st.composite
def grid_problems(draw):
    """K = 1..3 gains log-uniform in 1e-13..1e4 (sometimes all equal) and a
    small tau x share grid."""
    K = draw(st.integers(1, 3))
    exponent = st.floats(-13.0, 4.0)
    if draw(st.booleans()):
        gains = [10.0 ** draw(exponent)] * K
    else:
        gains = [10.0 ** draw(exponent) for _ in range(K)]
    return np.array(gains), draw(st.integers(1, 40)), draw(st.integers(K, 60))


class TestExhaustiveOptimal:
    @settings(max_examples=300, deadline=None)
    @given(problem=grid_problems())
    def test_equals_the_simplex_enumeration(self, problem):
        gam, grid_tau, grid_beta = problem
        want = bits(simplex_enumeration_optimal(gam, grid_tau, grid_beta))
        assert bits(exhaustive_optimal(gam, grid_tau=grid_tau, grid_beta=grid_beta)) == want
        # Blocks of a few tau rows each: the best row must win across blocks.
        with mock.patch.object(allocation, "_GRID_BLOCK_ELEMENTS", 100):
            assert bits(exhaustive_optimal(gam, grid_tau=grid_tau, grid_beta=grid_beta)) == want

    @pytest.mark.parametrize(
        "gains,grid",
        [([3.0, 40.0, 900.0], (200, 100)), ([5.0, 7.0], (300, 150)), ([7.0, 7.0, 7.0], (50, 30))],
    )
    def test_equals_the_simplex_enumeration_on_finer_grids(self, gains, grid):
        gam = np.array(gains)
        got = exhaustive_optimal(gam, grid_tau=grid[0], grid_beta=grid[1])
        assert bits(got) == bits(simplex_enumeration_optimal(gam, *grid))

    @pytest.mark.parametrize(
        "gains,grid_beta",
        [([1.7e308, 1.5e308, 1.6e308], 10), ([1.7e308, 1.5e308], 10), ([1.7e308, 2.0], 2)],
    )
    def test_overflowing_rates_match_the_enumeration(self, gains, grid_beta):
        # Where tau * g / eff overflows, the rate is inf; infinite worst-case
        # rates tie across tau rows (the first row wins).
        gam = np.array(gains)
        with np.errstate(over="ignore"):
            want = bits(simplex_enumeration_optimal(gam, 20, grid_beta))
            with mock.patch.object(allocation, "_GRID_BLOCK_ELEMENTS", 10):
                got = exhaustive_optimal(gam, grid_tau=20, grid_beta=grid_beta)
        assert bits(got) == want

    def test_low_snr_tables_that_decrease_match_the_enumeration(self):
        # At this SNR, rounding in log2(1 + x) makes the share tables
        # decrease in places, so the order statistic does not apply and
        # such tau rows are searched over the enumerated simplex.  The best
        # row is the last one, and it is also the floor row of the bounds.
        gam = np.array([1e-11, 3e-12, 5e-12])
        grid_tau, grid_beta = 200, 100
        want = simplex_enumeration_optimal(gam, grid_tau, grid_beta)
        assert want.tau == grid_tau / (grid_tau + 1)
        for tau in (100 / (grid_tau + 1), want.tau):
            eff = np.arange(1, grid_beta - 1, dtype=float) / grid_beta * (1.0 - tau)
            tables = eff * np.log2(1.0 + tau * gam[:, np.newaxis] / eff)
            assert np.any(np.diff(tables, axis=1) < 0.0)
        got = exhaustive_optimal(gam, grid_tau=grid_tau, grid_beta=grid_beta)
        assert bits(got) == bits(want)

    # The cases below (and the low-SNR one above, whose floor row has
    # tables that do not rise) make the row bounds of exhaustive_optimal do
    # work: rows skipped, blocks bounded by an earlier block's best, a floor
    # row that is not the winner.  Each is compared with the enumeration bit
    # for bit.

    def test_the_winner_in_a_later_block_matches_the_enumeration(self):
        # Ten tau rows per block: the best row lies in the ninth block.
        gam = np.array([3.0, 40.0, 900.0])
        want = simplex_enumeration_optimal(gam, 200, 100)
        assert round(want.tau * 201) - 1 >= 10
        with mock.patch.object(allocation, "_GRID_BLOCK_ELEMENTS", 10 * 3 * 98):
            assert bits(exhaustive_optimal(gam, grid_tau=200, grid_beta=100)) == bits(want)

    @pytest.mark.parametrize("block", [1 << 18, 100])
    def test_equal_maxima_keep_the_first_row(self, block):
        # Rows 7 to 10 all reach an infinite worst-case rate, but the lower
        # bound puts the floor row at row 0.  Their tables fall from inf to
        # finite rates, so only the prefix maxima keep them above the floor.
        gam = np.array([1.18e308, 2.9e306])
        with np.errstate(over="ignore"):
            want = simplex_enumeration_optimal(gam, 11, 52)
            with mock.patch.object(allocation, "_GRID_BLOCK_ELEMENTS", block):
                got = exhaustive_optimal(gam, grid_tau=11, grid_beta=52)
            assert want.tau == 8 / 12
            assert worst_rate(want.beta, 9 / 12, gam) == math.inf  # row 8 ties
        assert bits(got) == bits(want)

    @pytest.mark.parametrize(
        "gains,grid",
        [
            ([12.0], (30, 5)),
            ([3.0], (50, 1)),
            ([3.0, 40.0], (40, 2)),
            ([3.0, 40.0, 900.0], (40, 3)),
        ],
        ids=["K=1", "grid_beta=K=1", "grid_beta=K=2", "grid_beta=K=3"],
    )
    def test_single_uav_and_one_step_per_uav_match_the_enumeration(self, gains, grid):
        gam = np.array(gains)
        want = bits(simplex_enumeration_optimal(gam, *grid))
        assert bits(exhaustive_optimal(gam, grid_tau=grid[0], grid_beta=grid[1])) == want
        with mock.patch.object(allocation, "_GRID_BLOCK_ELEMENTS", 100):
            assert bits(exhaustive_optimal(gam, grid_tau=grid[0], grid_beta=grid[1])) == want

    def test_large_k_is_refused(self):
        with pytest.raises(ConfigError, match="K <= 3"):
            exhaustive_optimal([1.0, 2.0, 3.0, 4.0], grid_tau=10, grid_beta=10)

    def test_rejects_bad_grids(self):
        with pytest.raises(ConfigError, match="grid_tau"):
            exhaustive_optimal([1.0, 2.0], grid_tau=0, grid_beta=10)
        with pytest.raises(ConfigError, match="grid_beta"):
            exhaustive_optimal([1.0, 2.0], grid_tau=10, grid_beta=1)
        with pytest.raises(ConfigError, match="grid_tau"):
            exhaustive_optimal([1.0, 2.0], grid_tau=10.0, grid_beta=10)

    def test_single_pair_matches_phase1(self):
        res = exhaustive_optimal([12.0], grid_tau=999, grid_beta=4)
        tau_ref, _ = allocation._phase1(np.array([12.0]), 1e-5)
        assert res.beta == (1.0,)
        assert abs(res.tau - tau_ref) <= 1.0 / 1000.0 + 1e-5

    def test_symmetric_pair_splits_evenly(self):
        res = exhaustive_optimal([7.0, 7.0], grid_tau=400, grid_beta=100)
        assert res.beta == (0.5, 0.5)

    def test_grid_and_proposed_agree(self):
        # Neither route dominates: the grid quantises (tau, beta) while the
        # two-phase scheme optimises the time split only at the equal split.
        # They must still agree to grid-resolution scale.
        for seed in range(5):
            gam = random_gains(2, 200 + seed, lo=0.0, hi=2.5)
            grid = exhaustive_optimal(gam, grid_tau=1000, grid_beta=500)
            prop = proposed_allocate(gam, EPS)
            r_grid = worst_rate(grid.beta, grid.tau, gam)
            r_prop = worst_rate(prop.beta, prop.tau, gam)
            assert r_grid >= r_prop * (1.0 - 5e-3)
            assert r_prop >= r_grid * (1.0 - 5e-3)

    def test_operation_tally(self):
        res2 = exhaustive_optimal([1.0, 4.0], grid_tau=50, grid_beta=10)
        assert res2.op_count == 50 * 9 * 2
        res3 = exhaustive_optimal([1.0, 4.0, 9.0], grid_tau=5, grid_beta=6)
        assert res3.op_count == 5 * 10 * 3

    def test_deterministic(self):
        gam = [0.4, 2.0, 37.0]
        a = exhaustive_optimal(gam, grid_tau=40, grid_beta=30)
        b = exhaustive_optimal(gam, grid_tau=40, grid_beta=30)
        assert a == b

    def test_shares_stay_on_the_simplex(self):
        res = exhaustive_optimal([0.3, 3.0, 90.0], grid_tau=60, grid_beta=24)
        assert all(b > 0.0 for b in res.beta)
        assert abs(math.fsum(res.beta) - 1.0) <= 1e-12


@pytest.mark.parametrize("log2", [np.log2, math.log2], ids=["np.log2", "math.log2"])
def test_rates_are_within_the_rounding_bound_of_the_lookup_margin(log2):
    # The bound that _LOOKUP_MARGIN rests on, for both of its readers:
    # |computed - exact| <= (5u / ln(1 + q) + 10u) * exact for q from
    # _LOOKUP_MIN_SNR to _LOOKUP_MAX_SNR and eff across the normal doubles,
    # the exact rate being that of the double operands eff and c = q * eff.
    u = 2.0**-53
    rng = np.random.default_rng(31)
    eff = np.append(2.0 ** rng.uniform(-1022.0, 1024.0, 2500), [2.0**-1022] * 2 + [1.0] * 2)
    q = np.append(10.0 ** rng.uniform(-2.0, 300.0, 2500), [1e-2, 1e300, 1e-2, 1e300])
    with np.errstate(over="ignore"):
        c = q * eff
        rates = _rate(eff, c) if log2 is np.log2 else np.array(
            [_rate(e, g, 1.0, log2) for e, g in zip(eff.tolist(), c.tolist())]
        )
    finite = np.isfinite(rates) & np.isfinite(c)
    assert finite.sum() > 1500
    with mpmath.workdps(60):
        ln2 = mpmath.log(2)
        for e, g, r in zip(eff[finite].tolist(), c[finite].tolist(), rates[finite].tolist()):
            e, g = mpmath.mpf(e), mpmath.mpf(g)
            assert allocation._LOOKUP_MIN_SNR * (1 - 1e-15) <= g / e
            assert g / e <= allocation._LOOKUP_MAX_SNR * (1 + 1e-15)
            ln1q = mpmath.log1p(g / e)
            exact = e * ln1q / ln2
            assert abs(r - exact) <= (5 * u / ln1q + 10 * u) * exact, (e, g)


@pytest.fixture
def rated(monkeypatch):
    """The number of elements each ``allocation._rate`` call rates."""
    sizes = []
    rate = allocation._rate

    def recording(eff, c, *args):
        sizes.append(np.broadcast(eff, c).size)
        return rate(eff, c, *args)

    monkeypatch.setattr(allocation, "_rate", recording)
    return sizes


@pytest.fixture
def infinite_bounds(monkeypatch):
    """The number of tau rows each row-bound pass of the grid leaves at +inf."""
    counts = []
    bound = allocation._row_bound

    def recording(*args):
        upper = bound(*args)
        counts.append(int(np.count_nonzero(upper == math.inf)))
        return upper

    monkeypatch.setattr(allocation, "_row_bound", recording)
    return counts


class TestGridRowBound:
    """The grid bounds each tau row with one rate per UAV (``_row_bound``).
    The work pins are measured: K rates per row for the lower bound and at
    most K for the upper one, where a table prefix would rate up to
    grid_beta - K + 1 shares per row."""

    def test_rates_per_call_on_the_single_draw_stream(self, rated):
        # The first five K = 3 draws of perfbench's single-draw stream.
        seed = np.random.SeedSequence(2024, spawn_key=(3,))
        per_call = []
        for gam in default_scenario_draws(3, 100, seed)[:5]:
            rated.clear()
            exhaustive_optimal(gam, grid_tau=200, grid_beta=100)
            per_call.append(sum(rated))
        assert per_call == [1200] * 5

    def test_rates_per_call_on_an_a05_draw(self, rated):
        gam = default_scenario_draws(3, 100, 2024)[0]
        exhaustive_optimal(gam, grid_tau=1000, grid_beta=500)
        # Six blocks of at most 175 rows: 3 rates per row for each bound.
        assert rated == [525] * 10 + [375] * 2

    @pytest.mark.parametrize(
        "gains,grid_beta,inf_rows",
        [
            ([1.7e308, 1.5e308, 1.6e308], 10, 20),
            ([1.7e308, 1.5e308], 10, 20),
            ([1.7e308, 2.0], 2, 0),
        ],
    )
    def test_overflowing_rates_reach_the_infinite_bound(
        self, gains, grid_beta, inf_rows, infinite_bounds
    ):
        # The cases of TestExhaustiveOptimal's overflow test.  In the last,
        # only the UAV with gain 2.0 is bounded, whose rates stay finite.
        with np.errstate(over="ignore"), mock.patch.object(allocation, "_GRID_BLOCK_ELEMENTS", 10):
            exhaustive_optimal(np.array(gains), grid_tau=20, grid_beta=grid_beta)
        assert sum(infinite_bounds) == inf_rows

    def test_low_snr_rows_reach_the_infinite_bound(self, infinite_bounds):
        # The case of TestExhaustiveOptimal's low-SNR test: every row's SNR
        # lies below _LOOKUP_MIN_SNR.
        exhaustive_optimal(np.array([1e-11, 3e-12, 5e-12]), grid_tau=200, grid_beta=100)
        assert infinite_bounds == [200]

    def test_rows_whose_rates_fall_from_inf_reach_the_infinite_bound(self, infinite_bounds):
        # The case of TestExhaustiveOptimal's equal-maxima test, where the
        # rate at a row's last bounded share alone would skip the winner.
        with np.errstate(over="ignore"):
            exhaustive_optimal(np.array([1.18e308, 2.9e306]), grid_tau=11, grid_beta=52)
        assert infinite_bounds == [11]


class TestAllocationResult:
    def test_rejects_bad_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            AllocationResult(1.2, (1.0,), 0, 0, 0, 0)

    def test_rejects_bad_beta_sum(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            AllocationResult(0.5, (0.6, 0.3), 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "tau,beta",
        [
            (0.5, (math.nan, 0.5)),
            (0.5, (2.0, -1.0)),
            (0.5, (1.0, 0.0)),
            (0.5, (math.nan,)),
            (0.5, (0.5,)),
            (0.5, ()),
            (0.5, (math.inf, -math.inf)),
            (1.0, (0.5, 0.5)),
            (math.nan, (1.0,)),
        ],
    )
    def test_refuses_what_an_allocation_refuses_with_its_message(self, tau, beta):
        # The first three shares sum to 1 (a NaN sum fails no tolerance test),
        # so only the share range refuses them.
        with pytest.raises(ConfigError) as want:
            Allocation(tau=tau, beta=beta)
        with pytest.raises(ConfigError) as got:
            AllocationResult(tau, beta, 0, 0, 0, 0)
        assert str(got.value) == str(want.value)

    def test_a_batch_row_with_a_share_outside_the_unit_interval_fails(self):
        tau = np.full(4, 0.5)
        beta = np.array([[0.5, 0.5], [math.nan, 0.5], [2.0, -1.0], [0.25, 0.75]])
        zeros = np.zeros(4, dtype=np.int64)
        batch = allocation._checked_batch(tau, beta, zeros, zeros, zeros, zeros, {})
        assert sorted(batch.errors) == [1, 2]
        message = r"^every beta_k must lie in \(0,1\) \(or \(0,1\] for K=1\), got \("
        for t in (1, 2):
            assert np.isnan(batch.beta[t]).all()
            with pytest.raises(ConfigError, match=message):
                batch.row(t)
        assert batch.row(3).beta == (0.25, 0.75)

    @pytest.mark.parametrize(
        "beta",
        [(1e308, 1e308, 0.2, 0.2), (1e308, 1e308, -1e308, -1e308, 1.0), (math.inf, -math.inf)],
    )
    def test_a_share_sum_that_math_fsum_cannot_take_is_a_config_error(self, beta):
        # math.fsum raises OverflowError on the first two and ValueError on the last.
        with pytest.raises(ConfigError, match=r"^beta must sum to 1 within 1e-12, got sum inf$"):
            AllocationResult(0.5, beta, 0, 0, 0, 0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError, match="non-negative"):
            AllocationResult(0.5, (1.0,), -1, 0, 0, 0)
        with pytest.raises(ConfigError, match="non-negative"):
            AllocationResult(0.5, (1.0,), 0, 2.0, 0, 0)

    def test_accessors(self):
        res = AllocationResult(0.5, (0.25, 0.75), 3, 4, 5, 6)
        assert len(res.beta) == 2
        alloc = res.as_allocation(nu_r=0.25)
        assert alloc.nu_r == 0.25
        assert alloc.nu_c == 0.75


def assert_batch_replays_scalar(scalar, batch, gains, epsilon):
    """Every row of the batch is the per-draw call on its draw: the same
    result bits, or the same error (class and message).  Failed rows hold
    NaN ``tau``/``beta`` and zero tallies."""
    result = batch(gains, epsilon)
    assert [outcome(result.row, t) for t in range(len(gains))] == [
        outcome(scalar, gamma, epsilon) for gamma in gains
    ]
    failed = sorted(result.errors)
    assert np.isnan(result.tau[failed]).all() and np.isnan(result.beta[failed]).all()
    assert not result.iterations[failed].any() and not result.op_count[failed].any()


@st.composite
def draw_matrices(draw):
    """1-4 draws of K = 1..10 gains; each draw spans up to three decades
    somewhere in 1e-13..1e6, so some draws sit in the low-SNR regime where
    the time-split bisection cannot bracket."""
    K = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.floats(-13.0, 3.0))
        rows.append([10.0 ** draw(st.floats(low, low + 3.0)) for _ in range(K)])
    return np.array(rows)


# Down to EPSILON_MIN, where low-SNR draws can run into phase 2's update cap.
epsilons = st.floats(math.log10(EPSILON_MIN), -2.0).map(lambda e: 10.0**e)


class TestBatchAllocators:
    @settings(max_examples=150, deadline=None)
    @given(gains=draw_matrices(), epsilon=epsilons)
    def test_proposed_batch_replays_per_draw_calls(self, gains, epsilon):
        assert_batch_replays_scalar(proposed_allocate, proposed_allocate_batch, gains, epsilon)

    @settings(max_examples=100, deadline=None)
    @given(gains=draw_matrices(), epsilon=epsilons)
    def test_conventional_batch_replays_per_draw_calls(self, gains, epsilon):
        assert_batch_replays_scalar(
            conventional_allocate, conventional_allocate_batch, gains, epsilon
        )

    def test_sweep_sized_batches_replay_per_draw_calls(self):
        rng = np.random.default_rng(17)
        for K in (2, 6, 10):
            gains = 10.0 ** rng.uniform(-1.0, 3.0, size=(60, K))
            for scalar, batch in (
                (proposed_allocate, proposed_allocate_batch),
                (conventional_allocate, conventional_allocate_batch),
            ):
                assert_batch_replays_scalar(scalar, batch, gains, EPS)

    def test_phase1_slopes_within_ulps_of_zero_are_decided_exactly(self, monkeypatch):
        # K -> (bisection midpoint, smallest gain): the smallest gain's rate
        # slope at that midpoint of the time-split bisection is within an ulp
        # of zero, and on an AVX-512 numpy np.log2 gives it the other sign.
        crafted = {
            2: [(0.9764671875, 0.0005902147666001578)],
            3: [(0.9374125, 0.003107094831586824), (0.9764671875, 0.000393476511066781)],
            6: [(0.9374125, 0.001553547415793412), (0.9764671875, 0.0001967382555333905)],
            9: [(0.9764671875, 0.00013115883702225728)],
        }
        exact_sizes = []
        log2_exact = allocation._log2_exact

        def recording(x):
            exact_sizes.append(x.size)
            return log2_exact(x)

        monkeypatch.setattr(allocation, "_log2_exact", recording)
        for K, cases in crafted.items():
            b = 1.0 / K
            for mid, g in cases:
                log_term = b * math.log2(1.0 + mid * g / (b * (1.0 - mid)))
                assert abs(allocation._rate_slope(b, g, mid)) <= math.ulp(log_term)
            gains = np.array([[g] + [1.0] * (K - 1) for _, g in cases] + [[2.0] * K])
            exact_sizes.clear()
            tau, iters = allocation._phase1_batch(gains, EPS, {})
            assert [(float(t), int(i)) for t, i in zip(tau, iters)] == [
                allocation._phase1(row, EPS) for row in gains
            ]
            # d(lo) and d(hi), then the recomputed crafted rows.
            assert exact_sizes[:2] == [len(gains)] * 2
            assert sum(exact_sizes[2:]) >= len(cases)

    def test_each_draw_keeps_its_own_error(self):
        # A phase-2 failure and a phase-1 failure, in either row order.
        settled, unbracketed = [5.0, 5.0, 5.0], [1e-30] * 3
        capped = "did not converge in 360 updates"
        for gains, messages in (
            ([settled, CAPPED, unbracketed], (capped, "bracket")),
            ([settled, unbracketed, CAPPED], ("bracket", capped)),
        ):
            batch = proposed_allocate_batch(np.array(gains), 1e-12)
            assert bits(batch.row(0)) == bits(proposed_allocate(settled, 1e-12))
            assert sorted(batch.errors) == [1, 2]
            for t, message in enumerate(messages, start=1):
                with pytest.raises(NumericError, match=message):
                    batch.row(t)

    def test_bad_gains_fail_their_own_draw(self):
        for batch in (proposed_allocate_batch, conventional_allocate_batch):
            result = batch(np.array([[2.0, 3.0], [0.0, 1.0]]), EPS)
            assert result.row(0).tau > 0.0
            with pytest.raises(ConfigError, match="strictly positive"):
                result.row(1)
            result = batch(np.array([[1e-12, 1e-12], [np.nan, 1.0]]), EPS)
            with pytest.raises(NumericError, match="bracket"):
                result.row(0)
            with pytest.raises(ConfigError, match="strictly positive"):
                result.row(1)

    @pytest.mark.parametrize(
        "shares",
        [
            # math.fsum within the 1e-12 bound, numpy's sum beyond it.
            ("0x1.96f1c615523cdp-2", "0x1.74339596dfb7ap-2", "0x1.e9b548a7a4e2cp-3"),
            # math.fsum beyond the bound, numpy's sum within it.
            (
                "0x1.158cec8a9374bp-2", "0x1.16ca75cd5587ap-2",
                "0x1.19ea3028ac08dp-2", "0x1.737cdafedec18p-3",
            ),
        ],
    )
    def test_share_sums_at_the_bound_are_decided_as_the_result_decides(self, shares):
        beta = np.array([[float.fromhex(share) for share in shares]])

        def beyond(total):
            return abs(total - 1.0) > 1e-12

        assert beyond(beta.sum(axis=1)[0]) != beyond(math.fsum(beta[0]))
        zeros = np.zeros(1, dtype=np.int64)
        batch = allocation._checked_batch(np.array([0.5]), beta, zeros, zeros, zeros, zeros, {})
        assert (0 in batch.errors) == beyond(math.fsum(beta[0]))
        assert outcome(batch.row, 0) == outcome(
            AllocationResult, 0.5, tuple(beta[0].tolist()), 0, 0, 0, 0
        )

    def test_rejects_bad_arguments(self):
        for batch in (proposed_allocate_batch, conventional_allocate_batch):
            with pytest.raises(ConfigError, match="epsilon"):
                batch(np.ones((2, 2)), 0.6)
            # The per-draw call checks the gains first; the batch call
            # checks its arguments before any draw.
            with pytest.raises(ConfigError, match="epsilon"):
                batch(np.array([[-1.0, 1.0]]), 0.6)
            with pytest.raises(ConfigError, match=r"\(T, K\) matrix"):
                batch(np.ones(3), EPS)
            with pytest.raises(ConfigError, match=r"\(T, K\) matrix"):
                batch(np.ones((0, 3)), EPS)

    def test_epsilon_below_the_floor_is_refused(self):
        # Below the floor the target bisection stalled one ulp apart and
        # 1 - epsilon rounded to 1 (phase 1 divided by zero).
        cases = (
            (conventional_allocate, conventional_allocate_batch, [10.0, 100.0, 50.0], 1e-16),
            (proposed_allocate, proposed_allocate_batch, [10.0, 100.0], 1e-20),
        )
        for scalar, batch, gamma, epsilon in cases:
            with pytest.raises(ConfigError, match=r"epsilon must lie in \[1e-12, 0.5\)"):
                scalar(gamma, epsilon)
            with pytest.raises(ConfigError, match=r"epsilon must lie in \[1e-12, 0.5\)"):
                batch(np.array([gamma]), epsilon)
        result = conventional_allocate([10.0, 100.0, 50.0], EPSILON_MIN)
        assert abs(math.fsum(result.beta) - 1.0) <= 1e-12

    def test_tallies_and_iterations(self):
        gains = 10.0 ** np.random.default_rng(3).uniform(-1.0, 3.0, size=(8, 4))
        prop = proposed_allocate_batch(gains, EPS)
        assert prop.op_count.tolist() == (4 + prop.iters_tau + 4 * prop.iters_beta).tolist()
        conv = conventional_allocate_batch(gains, EPS)
        assert conv.iterations.tolist() == [
            r.iters_tau + r.iters_beta + r.inner_iters_beta
            for r in (conv.row(t) for t in range(8))
        ]


@pytest.fixture
def loop_starts(monkeypatch):
    """The number of pairs each call of the baseline's bisection loop starts."""
    starts = []
    bisect = allocation._bisect_shares

    def recording(lo, hi, bisecting, *args):
        starts.append(int(np.count_nonzero(bisecting)))
        return bisect(lo, hi, bisecting, *args)

    monkeypatch.setattr(allocation, "_bisect_shares", recording)
    return starts


def assert_per_draw_equals_the_reference(gains, epsilon):
    for gam in gains:
        assert outcome(conventional_allocate, gam, epsilon) == outcome(
            reference_conventional_allocate, gam, epsilon
        )


class TestConventionalShareLookup:
    """The batch baseline looks each inner bisection up in its midpoint tree
    and runs the loop wherever the leaf cannot be certified.  The per-draw
    form, which runs the loop, is checked against the reference alongside."""

    def test_tree_leaves_partition_the_share_bracket(self):
        tree = allocation._share_tree(EPS)
        assert tree.edges[0] == EPS and tree.edges[-1] == 1.0 - EPS
        assert np.all(np.diff(tree.edges) > 0.0)
        # Every leaf is final: at most epsilon wide.
        assert tree.depth.size == 2**14 and np.all(tree.depth == 14)
        assert np.all(np.diff(tree.edges) <= EPS)
        # Deeper than the cap: every leaf is cut off there.
        tree = allocation._share_tree(1e-6)
        assert tree.depth.size == 2**16 and np.all(tree.depth == 16)
        assert np.all(np.diff(tree.edges) > 1e-6)

    @pytest.mark.parametrize("epsilon", [0.4, 0.2, 1e-2, EPS, 3e-5, 1e-6, EPSILON_MIN])
    def test_leaf_lookup_matches_a_binary_search(self, epsilon):
        tree = allocation._share_tree(epsilon)
        shares = np.concatenate([
            np.random.default_rng(7).uniform(0.0, 1.0, 5000),
            tree.edges, np.nextafter(tree.edges, 0.0), np.nextafter(tree.edges, 1.0),
        ])
        binary = np.searchsorted(tree.edges, shares).clip(1, tree.depth.size) - 1
        assert np.array_equal(tree.leaf_of(shares), binary)

    def test_batch_lookups_rarely_run_the_loop_on_the_default_scenario(self, loop_starts):
        gains = default_scenario_draws(6, 40, 9)
        assert_batch_replays_scalar(conventional_allocate, conventional_allocate_batch, gains, EPS)
        assert sum(loop_starts) <= 0.01 * pairs_of(gains, EPS)
        assert_per_draw_equals_the_reference(gains, EPS)

    @pytest.mark.parametrize("leaves", [-1, 1])
    def test_a_threshold_one_leaf_off_falls_back_to_the_loop(
        self, leaves, loop_starts, monkeypatch
    ):
        edges = allocation._share_tree(EPS).edges
        width = edges[1] - edges[0]
        solve = allocation._share_threshold
        monkeypatch.setattr(
            allocation, "_share_threshold", lambda *args: solve(*args) + leaves * width
        )
        gains = 10.0 ** np.random.default_rng(5).uniform(-1.0, 3.0, size=(40, 6))
        assert_batch_replays_scalar(conventional_allocate, conventional_allocate_batch, gains, EPS)
        assert sum(loop_starts) > 0
        assert_per_draw_equals_the_reference(gains, EPS)

    @pytest.mark.parametrize("node", [1024, 2731, 5000])
    def test_a_threshold_within_the_margin_of_a_node_falls_back_to_the_loop(
        self, node, loop_starts
    ):
        # UAV 0 is the weaker one, so it alone sets tau and the first target;
        # UAV 1's gain puts its rate at the tree node's share on that target.
        g0 = 10.0
        tau, _ = allocation._phase1(np.array([g0, g0]), EPS)
        eff = (1.0 - EPS) * (1.0 - tau)
        target = 0.5 * (eff * math.log2(1.0 + tau * g0 / eff))
        x = allocation._share_tree(EPS).edges[node] * (1.0 - tau)
        g1 = x * (2.0 ** (target / x) - 1.0) / tau
        assert g1 > g0
        assert abs(x * math.log2(1.0 + tau * g1 / x) / target - 1.0) < 1e-14
        gains = np.array([[g0, g1]])
        assert_batch_replays_scalar(conventional_allocate, conventional_allocate_batch, gains, EPS)
        assert loop_starts[0] == 1
        assert_per_draw_equals_the_reference(gains, EPS)

    def test_low_snr_pairs_always_run_the_loop(self, loop_starts):
        # Both pairs' SNR at the whole band is below 0.01, and at epsilon =
        # 2e-5 the tree ends within the cap, every leaf 16 levels deep.
        gains, epsilon = np.array([[5e-5, 6e-5]]), 2e-5
        assert_batch_replays_scalar(
            conventional_allocate, conventional_allocate_batch, gains, epsilon
        )
        result = conventional_allocate(gains[0], epsilon)
        inner = result.inner_iters_beta
        assert inner > 0 and 16 * sum(loop_starts) == inner
        assert_per_draw_equals_the_reference(gains, epsilon)

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-9, EPSILON_MIN])
    def test_trees_deeper_than_the_cap_replay_per_draw_calls(self, epsilon):
        rng = np.random.default_rng(23)
        for K in (2, 6):
            gains = 10.0 ** rng.uniform(-1.0, 3.0, size=(60, K))
            assert_batch_replays_scalar(
                conventional_allocate, conventional_allocate_batch, gains, epsilon
            )
            assert_per_draw_equals_the_reference(gains, epsilon)
