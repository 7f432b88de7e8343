#!/usr/bin/env python3
"""Regenerate the benchmark's committed reference data.

Run from the repository root (needs mpmath and scipy)::

    python3 perfbench/make_reference.py

Writes two files under ``perfbench/reference/``:

* ``outage_tail.json``: the altitude x rate grid of the ``tail`` stage and,
  for every point, the network outage ``1 - prod_k (1 - F_k(X_k))`` of the
  equal-bandwidth split.  ``F_k`` is the product-of-gammas CDF evaluated as
  the finite Bessel-K sum in mpmath at ``DPS`` significant digits (plus the
  digits the ascending Bessel series cancels), so the sum's own cancellation
  cannot reach the stored digits.  The inputs -- link budgets, the time split
  from ``equal_bandwidth_taf`` and the SNR thresholds -- are the package's
  own doubles, so the table measures the closed form's arithmetic alone.
  Each point is evaluated at two precisions that must agree, and a few points
  are checked against an independent scipy quadrature of the CDF.
* ``seed2024.json``: the summed allocator tallies of each workload's draw
  stream at the default seed, and the sha256 of ``results/fig3.csv`` and
  ``results/fig4.csv``.  The sweeps gate always compares with these
  hashes, never with a local ``results/``, so regenerate them only from
  the accepted deliverable CSVs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate, special

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the benchmark's own input builders)

ALTITUDES = [float(a) for a in range(30, 151, 10)]
RATES = [float(r) for r in np.geomspace(0.01, 1.0, 25)]
MC_TARGETS = ((30.0, 7e-2), (90.0, 2e-3), (140.0, 1.4e-4))  # altitude, wanted outage
DPS = 110
CHECK_DPS = 160


def bessel_k01(z: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """K0(z), K1(z) at the current precision.

    mpmath's besselk is fast for large z; below z = 150 the ascending
    series for K0 (and K1 from the Wronskian) runs at raised precision to
    absorb its ~0.87*z digits of cancellation.
    """
    if z >= 150:
        return mp.besselk(0, z), mp.besselk(1, z)
    target = mp.mp.dps
    with mp.workdps(target + int(0.87 * float(z)) + 20):
        t = z * z / 4
        i0 = i1 = term0 = term1 = mp.mpf(1)
        k0_sum = harmonic = mp.mpf(0)
        tol = mp.mpf(10) ** (-mp.mp.dps)
        k = 0
        while True:
            k += 1
            term0 *= t / (k * k)
            term1 *= t / (k * (k + 1))
            harmonic += mp.mpf(1) / k
            i0 += term0
            i1 += term1
            k0_sum += harmonic * term0
            if harmonic * term0 < tol * i0 and term1 < tol * i1:
                break
        i1 *= z / 2
        k0 = -(mp.log(z / 2) + mp.euler) * i0 + k0_sum
        k1 = (1 / z - i1 * k0) / i0
    return +k0, +k1


def product_gamma_cdf(x: float, budget, n_h: int, n_g: int) -> mp.mpf:
    """F(x) = 1 - (2/Gamma(n_g)) sum_{m<n_h} u^((m+n_g)/2) K_{|n_g-m|}(2 sqrt u) / m!."""
    u = mp.mpf(x) / (mp.mpf(budget.rho) * mp.mpf(budget.lam) * mp.mpf(budget.mu))
    root = mp.sqrt(u)
    z = 2 * root
    k = list(bessel_k01(z))
    for v in range(1, max(n_g, n_h)):
        k.append(k[v - 1] + (2 * v / z) * k[v])
    survival = mp.fsum(
        root ** (m + n_g) * k[abs(n_g - m)] / mp.factorial(m) for m in range(n_h)
    )
    return 1 - 2 * survival / mp.factorial(n_g - 1)


def thresholds(modules, config, rate: float) -> list[float]:
    """Per-UAV SNR thresholds X_k of the equal split tuned to this rate."""
    allocation, outage = modules["allocation"], modules["outage"]
    K = config.K
    tau = allocation.equal_bandwidth_taf(K, rate)
    alloc = outage.Allocation(tau=tau, beta=(1.0 / K,) * K)
    return [outage.snr_threshold(b, tau, rate, alloc.nu_c) for b in alloc.beta]


def shapes(config, k: int) -> tuple[int, int]:
    return config.m_h[k] * config.N_c, config.m_g[k] * config.N_r


def reference_outage(modules, config, budgets, rate: float) -> mp.mpf:
    """Network outage 1 - prod_k (1 - F_k(X_k)), checked at two precisions."""
    xs = thresholds(modules, config, rate)
    if any(math.isinf(x) for x in xs):
        return mp.mpf(1)  # an unreachable rate is certain outage
    values = []
    for dps in (DPS, CHECK_DPS):
        with mp.workdps(dps):
            survival = mp.mpf(1)
            for k, x in enumerate(xs):
                survival *= 1 - product_gamma_cdf(x, budgets[k], *shapes(config, k))
            values.append(1 - survival)
    with mp.workdps(CHECK_DPS):
        if abs(values[0] - values[1]) > mp.mpf(10) ** -40 * abs(values[1]):
            raise SystemExit(f"precision check failed at rate {rate}: {values}")
    return values[0]


def quadrature_cdf(x: float, budget, n_h: int, n_g: int) -> float:
    """F(x) = int_0^inf gamma_pdf(s; n_h) P(n_g, u/s) ds, in log s, by scipy quad."""
    u = x / (budget.rho * budget.lam * budget.mu)
    log_norm = -math.lgamma(n_h)

    def integrand(v):
        return math.exp(n_h * v - math.exp(v) + log_norm) * special.gammainc(n_g, u * math.exp(-v))

    lo = min(math.log(u), 0.0) - 60.0
    hi = max(math.log(u), 0.0) + 6.0
    breaks = sorted(v for v in (math.log(u), math.log(n_h)) if lo < v < hi)
    value, _ = integrate.quad(integrand, lo, hi, points=breaks, epsabs=0.0,
                              epsrel=1e-12, limit=2000)
    return value


def quadrature_outage(modules, config, budgets, rate: float) -> float:
    xs = thresholds(modules, config, rate)
    return -math.expm1(sum(
        math.log1p(-quadrature_cdf(x, budgets[k], *shapes(config, k))) for k, x in enumerate(xs)
    ))


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from ehuav import allocation, channel, configio, experiments, outage

    modules = {"allocation": allocation, "outage": outage}
    network = configio.load_config(run.TABLE1).network

    points = []
    by_altitude = {}
    for altitude in ALTITUDES:
        config = replace(network, A_hat=altitude)
        budgets = run.budgets_for(channel, config)
        by_altitude[altitude] = (config, budgets)
        for rate in RATES:
            ref = reference_outage(modules, config, budgets, rate)
            points.append([altitude, rate, mp.nstr(ref, 25, min_fixed=1, max_fixed=0)])
        print(f"altitude {altitude:g}: outage {points[-len(RATES)][2]} .. {points[-1][2]}",
              flush=True)

    mc_points = []
    for altitude, target in MC_TARGETS:
        rows = [p for p in points if p[0] == altitude and 1e-4 <= float(p[2]) <= 1e-1]
        best = min(rows, key=lambda p: abs(math.log(float(p[2]) / target)))
        mc_points.append(best)

    # Independent check: scipy quadrature of the CDF at the point nearest each
    # outage level, from the transition region down to the far tail.
    for level in (-1, -4, -8, -12, -20, -30):
        altitude, rate, ref = min(points, key=lambda p: abs(math.log10(float(p[2])) - level))
        p = float(ref)
        config, budgets = by_altitude[altitude]
        q = quadrature_outage(modules, config, budgets, rate)
        rel = abs(q - p) / p
        print(f"quadrature check altitude {altitude:g} rate {rate:.4g}: "
              f"reference {p:.6e} quadrature {q:.6e} rel {rel:.1e}", flush=True)
        if rel > 1e-8:
            raise SystemExit("reference disagrees with quadrature")

    table = {
        "scenario": "configs/table1.yaml",
        "K": network.K,
        "allocation": "equal_bandwidth_taf(K, rate), beta = 1/K, nu_r = 0",
        "digits": DPS,
        "altitudes": ALTITUDES,
        "rates": RATES,
        "points": points,
        "mc_points": mc_points,
    }
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    (out / "outage_tail.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")

    tallies = {}
    for workload, sizes in run.WORKLOADS.items():
        streams = run.draw_streams(channel, network, run.DEFAULT_SEED, sizes)
        tallies[workload] = {}
        for name in run.ALGORITHMS:
            config, gains = streams[name]
            outs = []
            for gamma in gains:
                res = experiments.allocate_by_name(name, gamma, config)
                outs.append((res.tau, res.beta, res.iters_tau, res.iters_beta,
                             res.inner_iters_beta, res.op_count))
            tallies[workload][name] = run.stream_tallies(outs)
    sha = {
        fig: hashlib.sha256((run.ROOT / "results" / f"{fig}.csv").read_bytes()).hexdigest()
        for fig in ("fig3", "fig4")
    }
    seed_ref = {"seed": run.DEFAULT_SEED, "tallies": tallies, "csv_sha256": sha}
    (out / f"seed{run.DEFAULT_SEED}.json").write_text(
        json.dumps(seed_ref, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(points)} points, {len(mc_points)} Monte-Carlo points, tallies")
    return 0


if __name__ == "__main__":
    sys.exit(main())
