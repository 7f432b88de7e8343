"""Sweep settings, scenario placement, the charging rule, and the sweep runners.

:class:`ExperimentSpec` holds one config file's sweep settings (what
:func:`ehuav.configio.load_config` returns): the scenario, ``t_op``, the
draw count and seed, both sweep axes and the algorithms.
:func:`run_iterations_and_minrate_sweep` (``fig3``) runs over its
``k_values``, :func:`run_outage_altitude_sweep` (``fig4``) over its
``altitudes`` at each of its ``velocities``.

Both runners follow the same evaluation protocol: every algorithm sees the
same channel draws at a sweep point, the allocators work on the full
block (they take no data-phase share), and each algorithm is then charged
for its own signalling: ``op_count`` abstract operations at ``t_op``
seconds each out of the block time ``T``, giving the overhead share
``nu_r`` that shrinks the data phase to ``nu_c = 1 - nu_r``.  The grid
benchmark is charged nothing (it stands for an offline optimum), and the
closed-form equal split converges without iterating, so both keep
``nu_r = 0`` (:func:`overhead_share`).

The runners allocate with the batch allocators, then charge and take the
min-rate as array expressions.  ``fig3`` makes one batch call per (point,
algorithm) over the point's ``(trials, K)`` draw matrix, since K differs
between its points.  ``fig4``'s points share K and differ only in their
gains, so it stacks the draw matrices of consecutive points and makes one
call per algorithm over the stack, within the memory bound of one point
at ``TRIALS_MAX`` x ``K_MAX`` draws.  :func:`allocate_by_name` is the
per-draw path of the ``allocate`` subcommand.

``DEFAULT_T_OP`` is calibrated so that at 20 m/s and six pairs the
nested-bisection baseline loses a visible but non-saturating slice of the
block (roughly 5%).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .allocation import (
    AllocationResult,
    BatchAllocation,
    conventional_allocate,
    conventional_allocate_batch,
    equal_bandwidth_batch,
    equal_bandwidth_taf,
    exhaustive_optimal,
    proposed_allocate,
    proposed_allocate_batch,
)
from .channel import (
    K_MAX,
    LinkBudget,
    LinkGeometry,
    NetworkConfig,
    Rule,
    check,
    integer_at_least,
    make_link_budget,
    positive_block_time,
    sample_gamma_matrix,
)
from .errors import ConfigError, EhuavError
from .outage import Allocation, outage_closed_form, rate

log = logging.getLogger(__name__)

CSV_HEADER = (
    "sweep_param",
    "sweep_value",
    "algorithm",
    "mean_iters",
    "mean_min_rate_bpshz",
    "outage_analytic",
    "outage_empirical",
    "std_err",
    "trials",
    "seed",
)

ALGORITHMS = ("proposed", "conventional", "equal_bandwidth", "optimal")

DEFAULT_T_OP = 2.5e-7
"""Seconds charged per abstract allocation operation (free calibration knob)."""

_SATURATION_GUARD = 1.0 - 1e-6

# Time-split and share-step counts of the grid behind ``optimal``.
OPTIMAL_GRID = (200, 100)

# Most channel draws per sweep point; with :data:`ehuav.channel.K_MAX` it
# bounds the memory of a sweep point, and of a stack of fig4 points, which
# holds at most TRIALS_MAX * K_MAX gains.
TRIALS_MAX = 100_000


def _positive_list_rule(name: str) -> Rule:
    return (
        name,
        lambda v: len(v[name]) > 0 and all(0 < x < math.inf for x in v[name]),
        f"must be a non-empty list of finite numbers > 0, got {{{name}}}",
    )


# Bounds of the sweep settings, read by ExperimentSpec, overhead_share and the
# config loader's timing and experiment sections; rules as in
# :data:`ehuav.channel.NETWORK_RULES`.  The velocity rule also reads the
# network's ``f_c`` and ``c_light``, which the readers pass along.
EXPERIMENT_RULES: tuple[Rule, ...] = (
    ("t_op", lambda v: 0.0 <= v["t_op"] < math.inf, "must be finite and >= 0, got {t_op}"),
    (
        "trials",
        lambda v: integer_at_least(v["trials"], 1) and v["trials"] <= TRIALS_MAX,
        f"must be an integer in [1, {TRIALS_MAX}], got {{trials}}",
    ),
    ("seed", lambda v: integer_at_least(v["seed"], 0), "must be an integer >= 0, got {seed}"),
    (
        "k_values",
        lambda v: len(v["k_values"]) > 0
        and all(integer_at_least(k, 1) and k <= K_MAX for k in v["k_values"]),
        f"must be a non-empty list of integers in [1, {K_MAX}], got {{k_values}}",
    ),
    _positive_list_rule("altitudes"),
    _positive_list_rule("velocities"),
    (
        "velocities",
        lambda v: all(positive_block_time(x, v["f_c"], v["c_light"]) for x in v["velocities"]),
        "must each give a positive finite block time c_light / (velocity * f_c) "
        "with f_c={f_c} and c_light={c_light}, got {velocities}",
    ),
    (
        "algorithms",
        lambda v: len(v["algorithms"]) > 0 and all(a in ALGORITHMS for a in v["algorithms"]),
        f"must be a non-empty list drawn from {list(ALGORITHMS)}, got {{algorithms}}",
    ),
)


def block_time(V_hat: float, f_c: float, c_light: float) -> float:
    """Coherence block length c/(V_hat*f_c) in seconds."""
    if not (V_hat > 0.0 and f_c > 0.0 and c_light > 0.0):
        raise ConfigError(
            f"V_hat, f_c and c_light must be positive, got {V_hat}, {f_c}, {c_light}"
        )
    return c_light / (V_hat * f_c)


def overhead_share(algorithm: str, op_count, t_op: float, T: float):
    """The ``nu_r`` an algorithm is charged for its operation tally(ies).

    The share of the block spent signalling, min(op_count*t_op/T, 1-1e-6),
    elementwise over an array of operation counts; a single count gives a
    float.  The grid benchmark models an offline optimum and is charged
    nothing.
    """
    if not T > 0.0:
        raise ConfigError(f"block time must be positive, got {T}")
    ops = np.asarray(op_count)
    if algorithm == "optimal":
        ops = np.zeros_like(ops)
    if np.any(ops < 0):
        raise ConfigError(f"op_count must be >= 0, got {ops.min()}")
    check(EXPERIMENT_RULES, {"t_op": t_op})
    share = np.minimum(ops * t_op / T, _SATURATION_GUARD)
    return float(share) if share.ndim == 0 else share


@dataclass(frozen=True)
class ExperimentSpec:
    """The sweep settings of a config file: what ``fig3`` and ``fig4`` run.

    The field defaults are the defaults of the file's ``timing`` and
    ``experiment`` sections.  The settings are checked against
    :data:`EXPERIMENT_RULES`, then stored as ints, floats and tuples.
    """

    network: NetworkConfig
    t_op: float = DEFAULT_T_OP
    trials: int = 200
    seed: int = 2024
    k_values: tuple[int, ...] = tuple(range(2, 11))
    altitudes: tuple[float, ...] = tuple(float(a) for a in range(30, 151, 10))
    velocities: tuple[float, ...] = (10.0, 20.0, 40.0)
    algorithms: tuple[str, ...] = ("proposed", "conventional", "equal_bandwidth")

    def __post_init__(self) -> None:
        link = {"f_c": self.network.f_c, "c_light": self.network.c_light}
        check(EXPERIMENT_RULES, {**vars(self), **link})
        stored = {
            "t_op": float(self.t_op),
            "trials": int(self.trials),
            "seed": int(self.seed),
            "k_values": tuple(int(k) for k in self.k_values),
            "altitudes": tuple(float(a) for a in self.altitudes),
            "velocities": tuple(float(v) for v in self.velocities),
            "algorithms": tuple(self.algorithms),
        }
        for name, value in stored.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ExperimentRow:
    """One CSV row; None renders as an empty cell."""

    sweep_param: str
    sweep_value: float
    algorithm: str
    mean_iters: float | None
    mean_min_rate_bpshz: float | None
    outage_analytic: float | None
    outage_empirical: float | None
    std_err: float | None
    trials: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("outage_analytic", "outage_empirical"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {value}")
        for name in ("mean_iters", "mean_min_rate_bpshz", "std_err"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")

    def as_csv(self) -> list[str]:
        cells = []
        for name in CSV_HEADER:
            value = getattr(self, name)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(f"{value:.12g}")
            else:
                cells.append(str(value))
        return cells


def place_nodes(config: NetworkConfig) -> list[LinkGeometry]:
    """Evenly graded geometry: pair k of K sits at d_h = d_hat*k/K,
    d_g = d_hat - d_h, altitude A_hat*k/K (k = 1..K)."""
    K = config.K
    return [
        LinkGeometry(
            d_h=config.d_hat * k / K,
            d_g=config.d_hat - config.d_hat * k / K,
            altitude=config.A_hat * k / K,
        )
        for k in range(1, K + 1)
    ]


def _config_for_k(scenario: NetworkConfig, K: int) -> NetworkConfig:
    """Resize the scenario to K pairs, broadcasting the per-UAV vectors.

    Only a uniform vector has a value for every K, so a per-UAV field with
    differing values is refused.
    """
    for field in ("p_c", "m_h", "m_g"):
        values = getattr(scenario, field)
        if len(set(values)) > 1:
            raise ConfigError(
                f"network.{field}: the K sweep needs the same value for every UAV, "
                f"got {list(values)}"
            )
    return replace(
        scenario,
        K=K,
        p_c=(scenario.p_c[0],) * K,
        m_h=(scenario.m_h[0],) * K,
        m_g=(scenario.m_g[0],) * K,
    )


def link_budgets(config: NetworkConfig) -> list[LinkBudget]:
    """Per-UAV link budgets at the :func:`place_nodes` geometry."""
    return [make_link_budget(k, config, geom) for k, geom in enumerate(place_nodes(config))]


def _point_draws(
    budgets: list[LinkBudget], config: NetworkConfig, spec: ExperimentSpec, point: int
) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(point,)))
    return sample_gamma_matrix(budgets, config, rng, spec.trials)


def allocate_by_name(name: str, gamma: np.ndarray, config: NetworkConfig) -> AllocationResult:
    """Run the named allocator on one channel draw."""
    if name == "proposed":
        return proposed_allocate(gamma, config.epsilon)
    if name == "conventional":
        return conventional_allocate(gamma, config.epsilon)
    if name == "equal_bandwidth":
        return equal_bandwidth_batch(np.atleast_2d(gamma), config.R_a).row(0)
    if name == "optimal":
        return exhaustive_optimal(gamma, *OPTIMAL_GRID)
    raise ConfigError(f"unknown algorithm {name!r}")


def allocate_batch_by_name(name: str, gains: np.ndarray, config: NetworkConfig) -> BatchAllocation:
    """Run the named allocator on every row of a ``(T, K)`` draw matrix.

    Row t is ``allocate_by_name(name, gains[t], config)``: the same result,
    or a raise of the same error (see :class:`BatchAllocation`).
    """
    if name == "proposed":
        return proposed_allocate_batch(gains, config.epsilon)
    if name == "conventional":
        return conventional_allocate_batch(gains, config.epsilon)
    if name == "equal_bandwidth":
        return equal_bandwidth_batch(gains, config.R_a)
    if name == "optimal":
        # One grid search per draw; each is already array code over the
        # whole tau grid.
        outcomes = []
        for gamma in gains:
            try:
                outcomes.append(allocate_by_name(name, gamma, config))
            except EhuavError as exc:
                outcomes.append(exc)
        return BatchAllocation.stack(outcomes, gains.shape[1])
    raise ConfigError(f"unknown algorithm {name!r}")


def _charged_min_rates(batch: BatchAllocation, gains: np.ndarray, nu_r: np.ndarray) -> np.ndarray:
    """Per-draw ``min_rate`` of each allocation with overhead share ``nu_r``."""
    nu_c = 1.0 - nu_r
    return rate(batch.beta, batch.tau[:, np.newaxis], gains, nu_c[:, np.newaxis]).min(axis=1)


def _first_error(batch: BatchAllocation) -> EhuavError:
    """The error of a batch's first failing draw, which a sweep point logs."""
    return batch.errors[min(batch.errors)]


def _diagnostic_row(
    spec: ExperimentSpec, sweep_param: str, value: float, algorithm: str
) -> ExperimentRow:
    return ExperimentRow(
        sweep_param=sweep_param,
        sweep_value=value,
        algorithm=algorithm,
        mean_iters=None,
        mean_min_rate_bpshz=None,
        outage_analytic=None,
        outage_empirical=None,
        std_err=None,
        trials=spec.trials,
        seed=spec.seed,
    )


def run_iterations_and_minrate_sweep(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Sweep the number of pairs; report mean iterations and mean min-rate.

    The min-rate of each draw is evaluated after charging that algorithm's
    own operation tally against the block (``nu_c = 1 - nu_r``).  Total
    iterations count every loop pass an algorithm makes: both bisection
    phases for the two-phase scheme, outer plus inner bisections for the
    nested baseline, zero for the closed-form equal split.
    """
    network = spec.network
    T = block_time(network.V_hat, network.f_c, network.c_light)
    rows: list[ExperimentRow] = []
    for point, K in enumerate(spec.k_values):
        config = _config_for_k(network, K)
        gam = _point_draws(link_budgets(config), config, spec, point)
        for name in spec.algorithms:
            batch = allocate_batch_by_name(name, gam, config)
            if batch.errors:
                log.warning("K=%d %s aborted: %s", K, name, _first_error(batch))
                rows.append(_diagnostic_row(spec, "K", float(K), name))
                continue
            nu_r = overhead_share(name, batch.op_count, spec.t_op, T)
            rates = _charged_min_rates(batch, gam, nu_r)
            std_err = (
                float(rates.std(ddof=1) / math.sqrt(spec.trials))
                if spec.trials > 1
                else None
            )
            rows.append(
                ExperimentRow(
                    sweep_param="K",
                    sweep_value=float(K),
                    algorithm=name,
                    mean_iters=float(batch.iterations.mean()),
                    mean_min_rate_bpshz=float(rates.mean()),
                    outage_analytic=None,
                    outage_empirical=None,
                    std_err=std_err,
                    trials=spec.trials,
                    seed=spec.seed,
                )
            )
    return rows


def run_outage_altitude_sweep(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Sweep the peak altitude; report empirical outage per algorithm/velocity.

    Allocations are recomputed per channel draw at full block (they do not
    depend on the velocity), then each velocity charges the algorithm's
    operations against its own block length.  A draw is in outage when the
    penalized min-rate falls below the required rate.  The closed-form
    outage of the equal split at zero overhead is emitted once per
    altitude under the algorithm name ``equal_bandwidth_analytic``.

    Only the gains differ between altitudes, so consecutive points are
    allocated together, one batch call per algorithm over their stacked
    draws, as long as the stack holds no more draws than one point at the
    ``TRIALS_MAX`` x ``K_MAX`` bound.  Each point takes its rows of the
    stack; a point with a failing draw logs its first failing draw's error
    and gets diagnostic rows, and the other points keep theirs.
    """
    per_call = max(1, TRIALS_MAX * K_MAX // (spec.trials * spec.network.K))
    rows: list[ExperimentRow] = []
    for first in range(0, len(spec.altitudes), per_call):
        rows += _altitude_rows(spec, range(first, min(first + per_call, len(spec.altitudes))))
    return rows


def _altitude_rows(spec: ExperimentSpec, points: range) -> list[ExperimentRow]:
    """The rows of consecutive altitude points, allocated together."""
    configs = [replace(spec.network, A_hat=spec.altitudes[point]) for point in points]
    budgets = [link_budgets(config) for config in configs]
    stacked = np.concatenate(
        [_point_draws(b, c, spec, point) for b, c, point in zip(budgets, configs, points)]
    )
    # The allocators read no altitude, so the scenario serves every point.
    allocations = {
        name: allocate_batch_by_name(name, stacked, spec.network) for name in spec.algorithms
    }
    rows: list[ExperimentRow] = []
    for i, config in enumerate(configs):
        altitude = config.A_hat
        start, stop = i * spec.trials, (i + 1) * spec.trials
        gam = stacked[start:stop]
        K = config.K

        equal_alloc = Allocation(
            tau=equal_bandwidth_taf(K, config.R_a), beta=(1.0 / K,) * K, nu_r=0.0
        )
        rows.append(
            ExperimentRow(
                sweep_param="altitude",
                sweep_value=altitude,
                algorithm="equal_bandwidth_analytic",
                mean_iters=None,
                mean_min_rate_bpshz=None,
                outage_analytic=outage_closed_form(equal_alloc, budgets[i], config),
                outage_empirical=None,
                std_err=None,
                trials=spec.trials,
                seed=spec.seed,
            )
        )

        for name in spec.algorithms:
            batch = allocations[name].rows(start, stop)
            if batch.errors:
                log.warning("altitude=%s %s aborted: %s", altitude, name, _first_error(batch))
                for velocity in spec.velocities:
                    rows.append(
                        _diagnostic_row(spec, "altitude", altitude, f"{name}@v{velocity:g}")
                    )
                continue
            mean_iters = float(batch.iterations.mean())
            for velocity in spec.velocities:
                T = block_time(velocity, config.f_c, config.c_light)
                nu_r = overhead_share(name, batch.op_count, spec.t_op, T)
                rates = _charged_min_rates(batch, gam, nu_r)
                p_hat = int(np.count_nonzero(rates < config.R_a)) / spec.trials
                rows.append(
                    ExperimentRow(
                        sweep_param="altitude",
                        sweep_value=altitude,
                        algorithm=f"{name}@v{velocity:g}",
                        mean_iters=mean_iters,
                        mean_min_rate_bpshz=float(rates.mean()),
                        outage_analytic=None,
                        outage_empirical=p_hat,
                        std_err=math.sqrt(p_hat * (1.0 - p_hat) / spec.trials),
                        trials=spec.trials,
                        seed=spec.seed,
                    )
                )
    return rows


def write_rows(rows: list[ExperimentRow], path) -> None:
    """Write rows as UTF-8 CSV with the fixed header (12-digit floats)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())
