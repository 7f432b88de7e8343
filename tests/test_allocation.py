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
    equal_bandwidth_taf,
    exhaustive_optimal,
    phase1_taf,
    phase2_baf,
    proposed_allocate,
    proposed_allocate_batch,
)
from ehuav.channel import EPSILON_MIN, make_link_budget, sample_gamma_matrix
from ehuav.configio import load_config
from ehuav.errors import CapabilityError, ConfigError, EhuavError, NumericError
from ehuav.experiments import place_nodes
from ehuav.outage import Allocation, _rate, min_rate, rate

EPS = 1e-4
# Gains whose phase 2 runs into its update cap at epsilon = 1e-12.
CAPPED = [1.6720491189230166e-06, 1.5935015582383428e-06, 1.4627688824795858e-06]
TABLE1 = Path(__file__).resolve().parent.parent / "configs" / "table1.yaml"


def worst_rate(beta, tau: float, gamma) -> float:
    rates = rate(np.asarray(beta, dtype=float), tau, np.asarray(gamma, dtype=float), 1.0)
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
        return brentq(lambda b: rate(b, tau, g, 1.0) - r, 1e-12, 1.0, xtol=1e-15)

    def excess(r: float) -> float:
        return math.fsum(share_for(r, float(g)) for g in gam) - 1.0

    r_hi = min(rate(1.0, tau, float(g), 1.0) for g in gam)
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
                args = [np.argmin(rate(beta, t, gam, 1.0)) for t in (tau - h, tau, tau + h)]
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
    @pytest.mark.parametrize("eps,expected", [(1e-3, 10), (1e-4, 14), (1e-5, 17)])
    def test_iteration_count_is_fixed_by_epsilon(self, eps, expected):
        gam = random_gains(3, 7, lo=0.0, hi=2.0)
        _, iters = phase1_taf(gam, eps)
        assert iters == expected == math.ceil(math.log2((1.0 - 2.0 * eps) / eps))

    @pytest.mark.parametrize("gains", [[37.0], [0.8, 11.0, 230.0]])
    def test_matches_dense_grid_argmax(self, gains):
        gam = np.asarray(gains, dtype=float)
        K = gam.size
        beta = np.full(K, 1.0 / K)
        tau, _ = phase1_taf(gam, EPS)
        taus = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        eff = np.outer(1.0 - taus, beta)
        rates = eff * np.log2(1.0 + taus[:, None] * gam / eff)
        best = taus[int(np.argmax(rates.min(axis=1)))]
        assert abs(tau - best) <= EPS

    def test_vanishing_gains_cannot_bracket(self):
        with pytest.raises(NumericError, match="bracket"):
            phase1_taf([1e-9], EPS)

    def test_brackets_across_gain_scales(self):
        for exponent in range(-2, 5):
            tau, _ = phase1_taf([10.0**exponent], EPS)
            assert 0.0 < tau < 1.0

    def test_weakest_uav_is_the_smallest_gain_even_where_rates_tie(self):
        # At tau = epsilon, log2(1 + x) rounds the rates of the two smallest
        # gains to 0.0, so the rate argmin (min_rate) picks index 1; phase 1
        # follows the smallest gain, index 2.
        gains = [1.37558935e-05, 1.78042568e-13, 1.12371205e-13, 2.59839270e-02]
        eps = 2.876e-05
        rates = rate(np.full(4, 0.25), eps, np.array(gains), 1.0)
        assert rates[1] == rates[2] == 0.0
        smallest = allocation._rate_slope(0.25, gains[2], eps)
        lowest_index = min_rate_slope((0.25,) * 4, gains, eps)
        assert smallest != lowest_index
        assert smallest == 1.6212204282216865e-13
        with pytest.raises(NumericError, match="bracket") as info:
            phase1_taf(gains, eps)
        assert f"d(lo)={smallest!r}," in str(info.value)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="epsilon"):
            phase1_taf([2.0], 0.6)
        with pytest.raises(ConfigError, match="positive"):
            phase1_taf([0.0], EPS)


class TestPhase2Baf:
    def test_already_equal_needs_no_updates(self):
        beta, iters = phase2_baf(0.4, [3.0, 3.0, 3.0], EPS, np.full(3, 1 / 3))
        assert iters == 0
        assert np.allclose(beta, 1 / 3)

    def test_single_pair_is_trivial(self):
        beta, iters = phase2_baf(0.3, [5.0], EPS, [1.0])
        assert iters == 0
        assert beta.tolist() == [1.0]

    def test_terminal_spread_and_conservation(self):
        for seed in range(20):
            K = 2 + seed % 5
            gam = random_gains(K, seed)
            beta, iters = phase2_baf(0.3, gam, EPS, np.full(K, 1.0 / K))
            rates = rate(beta, 0.3, gam, 1.0)
            assert float(rates.max() - rates.min()) <= EPS
            assert abs(math.fsum(beta) - 1.0) <= 1e-12
            assert iters >= 1

    def test_matches_equal_rate_root_finder(self):
        gam = np.array([0.5, 5.0, 50.0])
        beta, _ = phase2_baf(0.3, gam, EPS, np.full(3, 1 / 3))
        oracle_beta, common = equal_rate_shares(0.3, gam)
        assert worst_rate(beta, 0.3, gam) == pytest.approx(common, abs=10 * EPS)
        assert np.allclose(beta, oracle_beta, atol=0.02)

    def test_update_cap_is_enforced(self):
        # At this SNR and epsilon the gap stays above epsilon until the
        # 10*K*ceil(log10(1/epsilon)) cap, on the per-draw and batch forms.
        message = "did not converge in 360 updates"
        tau, _ = phase1_taf(CAPPED, 1e-12)
        with pytest.raises(NumericError, match=message):
            phase2_baf(tau, CAPPED, 1e-12, np.full(3, 1 / 3))
        with pytest.raises(NumericError, match=message) as info:
            proposed_allocate(CAPPED, 1e-12)
        with pytest.raises(NumericError) as batch_info:
            proposed_allocate_batch(np.array([CAPPED]), 1e-12)
        assert str(batch_info.value) == str(info.value)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="tau"):
            phase2_baf(1.0, [1.0, 2.0], EPS, [0.5, 0.5])
        with pytest.raises(ConfigError, match="sum to 1"):
            phase2_baf(0.5, [1.0, 2.0], EPS, [0.5, 0.4])

    @pytest.mark.parametrize("beta_init", [[5e-324, 1.0], [1.0, 5e-324]])
    def test_nan_rate_raises_the_cap_error_at_once(self, beta_init):
        # A share of 5e-324 times (1 - tau) underflows to 0, so its rate is
        # 0 * log2(inf) = NaN: the gap could never reach epsilon.
        with pytest.raises(NumericError) as info:
            phase2_baf(0.5, [1.0, 2.0], EPS, beta_init)
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
        beta, _ = phase2_baf(0.35, gam, EPS, np.full(K, 1.0 / K))
        rates = rate(beta, 0.35, gam, 1.0)
        assert float(rates.max() - rates.min()) <= EPS
        assert abs(math.fsum(beta) - 1.0) <= 1e-12


# The per-draw allocators as they were before phase 1 followed the smallest
# gain and phase 2 recomputed two rates per update: kept verbatim, minus
# the argument checks and the data-phase share (the full block's 1.0, a
# factor that changes no bit), as the reference the current ones must equal.
def reference_dmin_rate_dtau(beta, gamma, tau):
    k = int(np.argmin(_rate(beta, tau, gamma, 1.0)))
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
        raise allocation._bracket_error(lo, hi, d_lo, d_hi)
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
        rates = _rate(beta, tau_o, gam, 1.0)
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


def reference_conventional_allocate(gam, epsilon):
    K = gam.size
    equal = np.full(K, 1.0 / K)
    tau_o, iters_tau = reference_phase1_taf(equal, gam, epsilon)
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
            lo, hi = epsilon, 1.0 - epsilon
            while hi - lo > epsilon:
                mid = 0.5 * (lo + hi)
                if rate_k(mid, k) >= target:
                    hi = mid
                else:
                    lo = mid
                inner += 1
            shares[k] = hi
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
            # min_rate as it was: the checked rate() over the shares, charged
            # with several overhead shares.
            for nu_r in (0.0, 0.05, 0.5):
                alloc = res.as_allocation(nu_r)
                rates = rate(np.asarray(alloc.beta), alloc.tau, gam, alloc.nu_c)
                value, k = min_rate(alloc, gam)
                assert (value.hex(), k) == (float(rates.min()).hex(), int(np.argmin(rates)))


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


class TestProposedAllocate:
    def test_bookkeeping_and_conservation(self):
        for seed in range(40):
            K = 2 + seed % 7
            res = proposed_allocate(random_gains(K, seed), EPS)
            assert res.K == K
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
        # every tau row is searched over the enumerated simplex.
        gam = np.array([1e-11, 3e-12, 5e-12])
        grid_tau, grid_beta = 200, 100
        tau = 100 / (grid_tau + 1)
        eff = np.arange(1, grid_beta - 1, dtype=float) / grid_beta * (1.0 - tau)
        tables = eff * np.log2(1.0 + tau * gam[:, np.newaxis] / eff)
        assert np.any(np.diff(tables, axis=1) < 0.0)
        got = exhaustive_optimal(gam, grid_tau=grid_tau, grid_beta=grid_beta)
        want = simplex_enumeration_optimal(gam, grid_tau, grid_beta)
        assert bits(got) == bits(want)

    def test_large_k_is_refused(self):
        with pytest.raises(CapabilityError, match="K <= 3"):
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
        tau_ref, _ = phase1_taf([12.0], 1e-5)
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


class TestAllocationResult:
    def test_rejects_bad_tau(self):
        with pytest.raises(ConfigError, match="tau"):
            AllocationResult(1.2, (1.0,), 0, 0, 0, 0)

    def test_rejects_bad_beta_sum(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            AllocationResult(0.5, (0.6, 0.3), 0, 0, 0, 0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError, match="non-negative"):
            AllocationResult(0.5, (1.0,), -1, 0, 0, 0)
        with pytest.raises(ConfigError, match="non-negative"):
            AllocationResult(0.5, (1.0,), 0, 2.0, 0, 0)

    def test_accessors(self):
        res = AllocationResult(0.5, (0.25, 0.75), 3, 4, 5, 6)
        assert res.K == 2
        alloc = res.as_allocation(nu_r=0.25)
        assert alloc.nu_r == 0.25
        assert alloc.nu_c == 0.75


def assert_batch_replays_scalar(scalar, batch, gains, epsilon):
    """The batch equals the per-draw calls row by row, or raises the error
    of the first failing draw (class and message)."""
    expected = []
    for gamma in gains:
        try:
            expected.append(bits(scalar(gamma, epsilon)))
        except EhuavError as exc:
            with pytest.raises(EhuavError) as info:
                batch(gains, epsilon)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            return
    result = batch(gains, epsilon)
    assert [bits(result.row(t)) for t in range(len(gains))] == expected


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

    def test_first_failing_draw_wins_over_earlier_phases(self):
        settled, unbracketed = [5.0, 5.0, 5.0], [1e-30] * 3
        with pytest.raises(NumericError, match="did not converge in 360 updates"):
            proposed_allocate_batch(np.array([settled, CAPPED, unbracketed]), 1e-12)
        with pytest.raises(NumericError, match="bracket"):
            proposed_allocate_batch(np.array([settled, unbracketed, CAPPED]), 1e-12)

    def test_bad_gains_fail_their_own_draw(self):
        for batch in (proposed_allocate_batch, conventional_allocate_batch):
            with pytest.raises(ConfigError, match="strictly positive"):
                batch(np.array([[2.0, 3.0], [0.0, 1.0]]), EPS)
            with pytest.raises(NumericError, match="bracket"):
                batch(np.array([[1e-12, 1e-12], [np.nan, 1.0]]), EPS)

    def test_rejects_bad_arguments(self):
        for batch in (proposed_allocate_batch, conventional_allocate_batch):
            with pytest.raises(ConfigError, match="epsilon"):
                batch(np.ones((2, 2)), 0.6)
            with pytest.raises(ConfigError, match="strictly positive"):
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
