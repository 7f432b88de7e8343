"""Acceptance gate: one test per headline capability, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
claim.  Two tests document known model-fidelity gaps and currently fail on
the shipped defaults; see README "Known gaps" for the analysis:

* test_a05: the single-pass allocator is near-optimal within 1e-3 at K=2 but
  overshoots the bound on a few K=3 draws (its time split is optimized at an
  equal bandwidth split, not jointly).
* test_a06: the analytic outage curve decreases monotonically with altitude
  over 30-150 m under this path-loss model, so no interior minimum exists.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from ehuav import allocation
from ehuav.allocation import (
    equal_bandwidth_taf,
    exhaustive_optimal,
    phase2_baf,
    proposed_allocate,
)
from ehuav.channel import make_link_budget, sample_gamma_matrix
from ehuav.configio import load_config
from ehuav.experiments import (
    ExperimentSpec,
    place_nodes,
    run_iterations_and_minrate_sweep,
    run_outage_altitude_sweep,
)
from ehuav.outage import (
    Allocation,
    gamma_product_cdf,
    min_rate,
    outage_closed_form,
    outage_monte_carlo,
    rate,
)
from ehuav.specfun import bessel_k_int, lambert_w0

from test_allocation import equal_split_threshold, golden_section_taf, random_gains
from test_specfun import bessel_k_quadrature

TABLE1 = "configs/table1.yaml"


def network(K: int | None = None):
    net = load_config(TABLE1).network
    if K is None or K == net.K:
        return net
    return replace(net, K=K, p_c=(net.p_c[0],) * K, m_h=(net.m_h[0],) * K,
                   m_g=(net.m_g[0],) * K)


def budgets_for(net):
    return [make_link_budget(k, net, geom) for k, geom in enumerate(place_nodes(net))]


def worst_rate(beta, tau: float, gamma) -> float:
    return float(np.min(rate(np.asarray(beta, dtype=float), tau, gamma, 1.0)))


@pytest.fixture(scope="module")
def k_sweep_rows():
    """The shipped default K sweep (200 draws, seed 2024), shared by a03/a04."""
    loaded = load_config(TABLE1)
    spec = ExperimentSpec(
        network=loaded.network,
        k_values=tuple(range(2, 11)),
        trials=200,
        seed=2024,
        algorithms=("proposed", "conventional", "equal_bandwidth"),
        t_op=loaded.t_op,
    )
    return run_iterations_and_minrate_sweep(spec)


def test_a01_closed_form_outage_matches_million_trial_monte_carlo():
    """Equal-bandwidth outage: analytic vs 10^6-trial simulation, 3-sigma band.

    The band uses the analytic probability; the empirical standard error
    degenerates to zero wherever the estimate saturates.
    """
    net = network()
    alloc = Allocation(
        tau=equal_bandwidth_taf(net.K, net.R_a), beta=(1.0 / net.K,) * net.K
    )
    for i, altitude in enumerate((30.0, 60.0, 90.0, 120.0, 150.0)):
        cfg = replace(net, A_hat=altitude)
        budgets = budgets_for(cfg)
        analytic = outage_closed_form(alloc, budgets, cfg)
        est = outage_monte_carlo(alloc, budgets, cfg, trials=10**6, seed=300 + i)
        band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / 10**6)
        assert abs(est.p_out - analytic) <= band, (
            f"altitude {altitude:g} m: analytic {analytic:.12g} vs "
            f"empirical {est.p_out:.12g} exceeds band {band:.3g}"
        )


def test_a02_closed_form_time_split_matches_golden_section():
    """Lambert-W split equals the golden-section threshold minimizer to 1e-6."""
    for K, R_a in itertools.product(range(1, 11), (0.5, 1.0, 2.0)):
        closed = equal_bandwidth_taf(K, R_a)
        numeric = golden_section_taf(K, R_a)
        assert closed == pytest.approx(numeric, abs=1e-6), (
            f"K={K}, R_a={R_a}: closed form {closed:.9f} vs golden {numeric:.9f}"
        )
        # sanity: both sit below the threshold of their grid neighbours
        assert equal_split_threshold(closed, K, R_a) <= equal_split_threshold(
            min(closed + 1e-4, 1.0 - 1e-12), K, R_a
        )


def test_a03_two_phase_allocator_uses_fewer_iterations(k_sweep_rows):
    """Mean total iterations: two-phase < nested bisection at every K."""
    for K in range(2, 11):
        here = {r.algorithm: r for r in k_sweep_rows if r.sweep_value == K}
        prop, conv = here["proposed"], here["conventional"]
        assert prop.trials == 200
        assert prop.mean_iters < conv.mean_iters, (
            f"K={K}: proposed {prop.mean_iters:.1f} vs "
            f"conventional {conv.mean_iters:.1f}"
        )


def test_a04_min_rate_ordering_with_charging_penalty(k_sweep_rows):
    """Mean min-rate proposed >= conventional >= equal split at V=20 m/s;
    per-draw the two-phase result never falls below the equal split."""
    for K in range(2, 11):
        here = {r.algorithm: r for r in k_sweep_rows if r.sweep_value == K}
        prop = here["proposed"].mean_min_rate_bpshz
        conv = here["conventional"].mean_min_rate_bpshz
        equal = here["equal_bandwidth"].mean_min_rate_bpshz
        assert prop >= conv >= equal, f"K={K}: {prop:.6g}, {conv:.6g}, {equal:.6g}"

    for K in range(2, 11):
        cfg = network(K)
        gam = sample_gamma_matrix(
            budgets_for(cfg), cfg, np.random.default_rng(4000 + K), trials=200
        )
        tau_eq = equal_bandwidth_taf(K, cfg.R_a)
        for t in range(gam.shape[0]):
            res = proposed_allocate(gam[t], cfg.epsilon)
            r_prop = worst_rate(res.beta, res.tau, gam[t])
            r_eq = worst_rate((1.0 / K,) * K, tau_eq, gam[t])
            assert r_prop >= r_eq - 1e-12, f"K={K}, draw {t}: {r_prop} < {r_eq}"


def _grid_neighbor_drop(gamma, tau_idx, counts, grid_tau, grid_beta) -> tuple[float, float]:
    """Objective and its drop to the best one-grid-step neighbour."""
    def value(j, c):
        return worst_rate(np.asarray(c, dtype=float) / grid_beta, j / (grid_tau + 1), gamma)

    here = value(tau_idx, counts)
    neighbors = []
    for dj in (-1, 1):
        if 1 <= tau_idx + dj <= grid_tau:
            neighbors.append(value(tau_idx + dj, counts))
    for i, j in itertools.permutations(range(len(gamma)), 2):
        c = list(counts)
        c[i] -= 1
        c[j] += 1
        if c[i] >= 1:
            neighbors.append(value(tau_idx, c))
    return here, here - max(neighbors)


def test_a05_near_optimal_versus_exhaustive_grid():
    """Two-phase min-rate within 1e-3 (relative) of the 1000 x 1/500 grid
    optimum on every draw, after discounting one grid step of quantization.

    KNOWN FAILURE at K=3: the time split is chosen at an equal bandwidth
    split before shares adapt, which costs up to ~2e-3 on a minority of
    draws.  K=2 stays within the bound.
    """
    grid_tau, grid_beta = 1000, 500
    worst: dict[int, float] = {}
    over: dict[int, int] = {}
    for K in (2, 3):
        cfg = network(K)
        gam = sample_gamma_matrix(
            budgets_for(cfg), cfg, np.random.default_rng(2024), trials=100
        )
        worst[K], over[K] = 0.0, 0
        for t in range(gam.shape[0]):
            g = gam[t]
            best = exhaustive_optimal(g, grid_tau=grid_tau, grid_beta=grid_beta)
            tau_idx = round(best.tau * (grid_tau + 1))
            counts = tuple(round(b * grid_beta) for b in best.beta)
            r_grid, drop = _grid_neighbor_drop(g, tau_idx, counts, grid_tau, grid_beta)
            res = proposed_allocate(g, cfg.epsilon)
            r_prop = worst_rate(res.beta, res.tau, g)
            shortfall = max(0.0, (r_grid - drop - r_prop) / r_grid)
            worst[K] = max(worst[K], shortfall)
            over[K] += shortfall > 1e-3
    assert all(w <= 1e-3 for w in worst.values()), (
        "slack-adjusted relative shortfall vs the grid optimum: "
        + ", ".join(
            f"K={K}: worst {worst[K]:.3e} ({over[K]}/100 draws beyond 1e-3)"
            for K in sorted(worst)
        )
    )


def test_a06_outage_altitude_curve_has_interior_minimum():
    """Equal-bandwidth analytic outage over 30-150 m: unique minimum in [70, 110].

    KNOWN FAILURE: under this path-loss model the curve decreases
    monotonically with altitude across the whole sweep, so the minimum sits
    on the 150 m boundary instead of at an interior altitude.
    """
    net = network()
    alloc = Allocation(
        tau=equal_bandwidth_taf(net.K, net.R_a), beta=(1.0 / net.K,) * net.K
    )
    altitudes = [float(a) for a in range(30, 151, 10)]
    curve = []
    for altitude in altitudes:
        cfg = replace(net, A_hat=altitude)
        curve.append(outage_closed_form(alloc, budgets_for(cfg), cfg))
    lowest = min(curve)
    i = curve.index(lowest)
    unique = curve.count(lowest) == 1
    interior = 0 < i < len(curve) - 1
    in_window = 70.0 <= altitudes[i] <= 110.0
    assert unique and interior and in_window, (
        f"minimum {lowest:.12g} at {altitudes[i]:g} m "
        f"(unique={unique}, interior={interior}, in [70,110]={in_window}); "
        "curve: "
        + ", ".join(f"{a:g}:{p:.12g}" for a, p in zip(altitudes, curve))
    )


def test_a07_velocity_widens_outage_gap_at_90m():
    """Conventional-minus-proposed empirical outage gap non-decreasing in
    velocity at 90 m altitude (paired draws across velocities)."""
    loaded = load_config(TABLE1)
    spec = ExperimentSpec(
        network=loaded.network,
        altitudes=(90.0,),
        trials=2000,
        seed=2024,
        algorithms=("proposed", "conventional"),
        velocities=(10.0, 20.0, 40.0),
        t_op=loaded.t_op,
    )
    rows = run_outage_altitude_sweep(spec)
    p = {
        row.algorithm: row.outage_empirical
        for row in rows
        if row.outage_empirical is not None
    }
    gaps = [
        p[f"conventional@v{v:g}"] - p[f"proposed@v{v:g}"] for v in (10.0, 20.0, 40.0)
    ]
    assert gaps[0] <= gaps[1] <= gaps[2], f"gaps over velocity: {gaps}"


def test_a08_property_suites():
    """Numeric property bundle at library tolerances."""
    # Lambert-W defining identity w * e^w = x.
    for x in (-0.36787944117144233, -0.3, -0.05, 0.0, 1e-8, 0.5, 1.0, math.e,
              17.0, 1e3, 1e6):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x)), f"x={x}"

    # Modified Bessel second kind vs adaptive quadrature.
    for order in range(0, 25):
        for x in np.geomspace(0.01, 50.0, 7):
            oracle = bessel_k_quadrature(order, float(x))
            assert bessel_k_int(order, float(x)) == pytest.approx(oracle, rel=1e-9)

    # Bandwidth-share conservation across >= 10^4 equalization updates,
    # terminal rate spread within epsilon on every instance.
    epsilon = 1e-4
    total_updates = 0
    instance = 0
    while total_updates < 10**4:
        K = 2 + instance % 7
        gamma = random_gains(K, seed=9000 + instance)
        tau = 0.1 + 0.8 * ((instance * 0.37) % 1.0)
        beta, iters = phase2_baf(tau, gamma, epsilon, (1.0 / K,) * K)
        total_updates += iters
        instance += 1
        assert abs(math.fsum(beta.tolist()) - 1.0) <= 1e-12
        rates = rate(beta, tau, gamma, 1.0)
        assert float(np.max(rates) - np.min(rates)) <= epsilon
    assert total_updates >= 10**4

    # Analytic min-rate time derivative (the rate slope of the weakest UAV)
    # vs central finite differences.
    h, checked = 1e-6, 0
    for trial in range(400):
        K = 1 + trial % 6
        gamma = random_gains(K, seed=500 + trial)
        rng = np.random.default_rng(800 + trial)
        beta = rng.dirichlet(np.ones(K))
        tau = float(rng.uniform(0.05, 0.95))
        _, k = min_rate(Allocation(tau=tau, beta=tuple(beta)), gamma)
        lo = min_rate(Allocation(tau=tau - h, beta=tuple(beta)), gamma)
        hi = min_rate(Allocation(tau=tau + h, beta=tuple(beta)), gamma)
        if lo[1] != hi[1]:
            continue  # the bottleneck UAV switches inside the stencil
        analytic = allocation._rate_slope(float(beta[k]), float(gamma[k]), tau)
        fd = (hi[0] - lo[0]) / (2.0 * h)
        assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-6), (
            f"trial {trial}: analytic {analytic} vs finite difference {fd}"
        )
        checked += 1
    assert checked >= 300

    # Sampled composite gain vs the analytic CDF: KS at the 99% level,
    # 10^6 draws evaluated on 199 evenly spaced quantiles.
    cfg = network(1)
    budgets = budgets_for(cfg)
    gam = np.sort(
        sample_gamma_matrix(budgets, cfg, np.random.default_rng(77), 10**6)[:, 0]
    )
    n = gam.size
    worst = 0.0
    for i in np.linspace(0, n - 1, 199).round().astype(int):
        analytic = gamma_product_cdf(
            float(gam[i]), budgets[0], cfg.m_h[0], cfg.N_c, cfg.m_g[0], cfg.N_r
        )
        worst = max(worst, abs(analytic - (i + 1) / n))
    assert worst <= 1.62762 / math.sqrt(n)
