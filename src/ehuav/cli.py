"""Command-line front end: validate configs, run allocators, sweep experiments.

Subcommands
-----------
validate   load a config file and print the derived per-UAV link constants
allocate   run one allocation algorithm on a single channel draw
outage     closed-form vs Monte-Carlo outage for one fixed allocation
fig3       K sweep of iteration counts and min-rates (CSV)
fig4       altitude x velocity sweep of outage probabilities (CSV)

The sweep subcommands write their CSV, then run the sweep's trend checks
from :mod:`ehuav.experiments`.  Exit codes: 0 success, 2 config error (a
bad scenario, argument or problem size), 3 numeric failure, 4 trend
assertion failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import Sequence

import numpy as np

from .allocation import equal_bandwidth_taf
from .channel import a2g_path_loss_db, block_time, sample_gamma_matrix
from .configio import load_config
from .errors import ConfigError, EhuavError, NumericError, TrendError
from .experiments import (
    ALGORITHMS,
    ExperimentRow,
    allocate_by_name,
    fig3_trend_failures,
    fig4_trend_failures,
    link_budgets,
    overhead_share,
    place_nodes,
    run_iterations_and_minrate_sweep,
    run_outage_altitude_sweep,
    write_rows,
)
from .outage import Allocation, min_rate, outage_closed_form, outage_monte_carlo

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_TREND = 4


def _check_seed(seed: int) -> None:
    """numpy seeds must be non-negative; say so instead of a traceback."""
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    loaded = load_config(args.config)
    net = loaded.network
    T = block_time(net.V_hat, net.f_c)
    print(f"config OK: {args.config}")
    print(
        f"K={net.K}  f_c={net.f_c:g} Hz  "
        f"noise_power={net.noise_power:.6g} W  R_a={net.R_a:g} bps/Hz"
    )
    print(f"block_time={T:.6g} s at V_hat={net.V_hat:g} m/s")
    print(f"t_op={loaded.t_op:g} s per bisection operation")
    print(f"equal-bandwidth time split tau={equal_bandwidth_taf(net.K, net.R_a):.12g}")
    print("per-UAV link constants:")
    print(
        f"{'k':>3} {'d_h_m':>9} {'d_g_m':>9} {'alt_m':>8} "
        f"{'pl_h_db':>9} {'pl_g_db':>9} {'lam':>12} {'mu':>12} {'rho':>12}"
    )
    for k, (geom, b) in enumerate(zip(place_nodes(net), link_budgets(net))):
        pl_h = a2g_path_loss_db(geom.d_h, geom.altitude, net.env, net.f_c)
        pl_g = a2g_path_loss_db(geom.d_g, geom.altitude, net.env, net.f_c)
        print(
            f"{k:>3} {geom.d_h:>9.3f} {geom.d_g:>9.3f} {geom.altitude:>8.2f} "
            f"{pl_h:>9.3f} {pl_g:>9.3f} "
            f"{b.lam:>12.5e} {b.mu:>12.5e} {b.rho:>12.5e}"
        )
    return EXIT_OK


def cmd_allocate(args: argparse.Namespace) -> int:
    loaded = load_config(args.config)
    net = loaded.network
    if args.gamma is not None:
        gamma = np.asarray(args.gamma, dtype=float)
        if gamma.shape != (net.K,):
            raise ConfigError(
                f"--gamma needs exactly K={net.K} values, got {gamma.size}"
            )
    else:
        _check_seed(args.seed)
        rng = np.random.default_rng(args.seed)
        gamma = sample_gamma_matrix(link_budgets(net), net, rng, 1)[0]
        print(f"channel draw: seed={args.seed}")

    res = allocate_by_name(args.algorithm, gamma, net)
    value, worst = min_rate(res.as_allocation(), gamma)
    T = block_time(net.V_hat, net.f_c)
    nu_r = overhead_share(args.algorithm, res.op_count, loaded.t_op, T)
    adjusted, _ = min_rate(res.as_allocation(nu_r=nu_r), gamma)

    print(f"algorithm: {args.algorithm}")
    print("gamma: " + " ".join(f"{g:.6g}" for g in gamma))
    print(f"tau: {res.tau:.12g}")
    print("beta: " + " ".join(f"{b:.12g}" for b in res.beta))
    print(
        f"iters_tau={res.iters_tau}  iters_beta={res.iters_beta}  "
        f"inner_iters_beta={res.inner_iters_beta}  op_count={res.op_count}"
    )
    print(f"min_rate_bpshz: {value:.12g} (worst UAV index {worst}, full block)")
    print(f"rap_fraction: {nu_r:.6g}  min_rate_with_rap_bpshz: {adjusted:.12g}")
    return EXIT_OK


def cmd_outage(args: argparse.Namespace) -> int:
    loaded = load_config(args.config)
    net = loaded.network
    K = net.K
    _check_seed(args.seed)
    if args.rate is not None and not (math.isfinite(args.rate) and args.rate >= 0.0):
        raise ConfigError(f"--rate must be a finite number >= 0, got {args.rate}")
    if args.beta is not None:
        if len(args.beta) != K:
            raise ConfigError(
                f"--beta needs exactly K={K} values, got {len(args.beta)}"
            )
        beta = tuple(float(b) for b in args.beta)
    else:
        beta = (1.0 / K,) * K
    tau = args.tau if args.tau is not None else equal_bandwidth_taf(K, net.R_a)
    alloc = Allocation(tau=tau, beta=beta)
    budgets = link_budgets(net)

    analytic = outage_closed_form(alloc, budgets, net, rate_requirement=args.rate)
    est = outage_monte_carlo(
        alloc,
        budgets,
        net,
        trials=args.trials,
        seed=args.seed,
        rate_requirement=args.rate,
    )
    # Band width from the analytic probability: the empirical standard error
    # degenerates to 0 whenever the estimate saturates at 0 or 1.
    band = 3.0 * math.sqrt(analytic * (1.0 - analytic) / args.trials)
    diff = abs(est.p_out - analytic)
    verdict = "PASS" if diff <= band else "FAIL"

    print(f"tau: {alloc.tau:.12g}")
    print("beta: " + " ".join(f"{b:.12g}" for b in alloc.beta))
    print(f"analytic_outage: {analytic:.12g}")
    print(
        f"empirical_outage: {est.p_out:.12g} "
        f"(trials={est.trials}, std_err={est.std_err:.6g})"
    )
    print(f"abs_difference: {diff:.6g}  three_sigma_band: {band:.6g}")
    print(f"verdict: {verdict}")
    return EXIT_OK


def _finish_sweep(rows: Sequence[ExperimentRow], out: str, failures: list[str]) -> int:
    """Write the CSV first so the data survives a failed trend check."""
    write_rows(list(rows), out)
    print(f"wrote {len(rows)} rows to {out}")
    if failures:
        raise TrendError("\n".join(failures))
    print("trend checks OK")
    return EXIT_OK


def cmd_fig3(args: argparse.Namespace) -> int:
    rows = run_iterations_and_minrate_sweep(load_config(args.config))
    return _finish_sweep(rows, args.out, fig3_trend_failures(rows))


def cmd_fig4(args: argparse.Namespace) -> int:
    rows = run_outage_altitude_sweep(load_config(args.config))
    return _finish_sweep(rows, args.out, fig4_trend_failures(rows))


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehuav",
        description="Time/bandwidth allocation and outage analysis for "
        "energy-harvesting UAV identification networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file, print derived constants")
    p.add_argument("config", help="path to the scenario config file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("allocate", help="run one allocator on a single channel draw")
    p.add_argument("config", help="path to the scenario config file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--gamma",
        type=float,
        nargs="+",
        metavar="G",
        help="composite channel gains, one per UAV",
    )
    source.add_argument(
        "--seed", type=int, help="draw the gains from the scenario instead"
    )
    p.add_argument("--algorithm", choices=ALGORITHMS, default="proposed")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser(
        "outage", help="closed-form vs Monte-Carlo outage for one allocation"
    )
    p.add_argument("config", help="path to the scenario config file")
    p.add_argument("--tau", type=float, help="time split (default: closed form)")
    p.add_argument(
        "--beta",
        type=float,
        nargs="+",
        metavar="B",
        help="bandwidth shares (default: equal split)",
    )
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="override the rate requirement for this run (0 is allowed here)",
    )
    p.set_defaults(func=cmd_outage)

    p = sub.add_parser(
        "fig3", help="K sweep: iteration counts and min-rates per algorithm"
    )
    p.add_argument("config", help="path to the scenario config file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="altitude x velocity sweep: outage probabilities")
    p.add_argument("config", help="path to the scenario config file")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_fig4)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrendError as exc:
        print(f"error: trend assertion failed:\n{exc}", file=sys.stderr)
        return EXIT_TREND
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EhuavError as exc:  # config errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
