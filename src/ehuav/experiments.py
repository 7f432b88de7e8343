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
``nu_r`` that shrinks the data phase to ``nu_c = 1 - nu_r``
(:func:`overhead_share`).  Whether an algorithm is charged is the flag of
its entry in the algorithm table ``_ALLOCATORS``: only the grid benchmark,
which stands for an offline optimum, is not.  The closed-form equal split
is charged for a tally of zero, so both keep ``nu_r = 0``.

The runners allocate with the batch allocators, then charge and take the
min-rate as array expressions.  ``fig3`` makes one batch call per (point,
algorithm) over the point's ``(trials, K)`` draw matrix, since K differs
between its points.  ``fig4``'s points share K and differ only in their
gains, so it stacks the draw matrices of consecutive points and makes one
call per algorithm over the stack, within the memory bound of one point
at ``TRIALS_MAX`` x ``K_MAX`` draws.  The batch dispatcher
:func:`allocate_batch_by_name` and the per-draw one :func:`allocate_by_name`
(the ``allocate`` subcommand's path) read the same table; an algorithm
with no batch form there runs its per-draw form on each draw.

The trend checks :func:`fig3_trend_failures` and :func:`fig4_trend_failures`
read the runners' rows back: a fig4 row is labelled by :func:`fig4_label`,
and a row whose metrics are all None is a diagnostic row for an
algorithm that could not run at that point.

``DEFAULT_T_OP`` is calibrated so that at 20 m/s and six pairs the
nested-bisection baseline loses a visible but non-saturating slice of the
block (roughly 5%).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

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
    block_time,
    check,
    integer_at_least,
    make_link_budget,
    positive_block_time,
    sample_gamma_matrix,
)
from .errors import ConfigError, EhuavError
from .outage import Allocation, _rate, outage_closed_form

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

# name -> (per-draw form, batch form or None, charged); a form looks its allocator up per call.
_ALLOCATORS = {
    "proposed": (lambda g, c: proposed_allocate(g, c.epsilon),
                 lambda g, c: proposed_allocate_batch(g, c.epsilon), True),
    "conventional": (lambda g, c: conventional_allocate(g, c.epsilon),
                     lambda g, c: conventional_allocate_batch(g, c.epsilon), True),
    "equal_bandwidth": (lambda g, c: equal_bandwidth_batch(np.atleast_2d(g), c.R_a).row(0),
                        lambda g, c: equal_bandwidth_batch(g, c.R_a), True),
    "optimal": (lambda g, c: exhaustive_optimal(g, *OPTIMAL_GRID), None, False),
}
ALGORITHMS = tuple(_ALLOCATORS)

EQUAL_BANDWIDTH_ANALYTIC = "equal_bandwidth_analytic"
"""The fig4 row of the closed-form equal-split outage at each altitude."""

DEFAULT_T_OP = 2.5e-7
"""Seconds charged per abstract allocation operation (free calibration knob)."""

_SATURATION_GUARD = 1.0 - 1e-6

# Time-split and share-step counts of the grid behind ``optimal``.
OPTIMAL_GRID = (200, 100)

# Most channel draws per sweep point; with :data:`ehuav.channel.K_MAX` it
# bounds the memory of a sweep point, and of a stack of fig4 points, which
# holds at most TRIALS_MAX * K_MAX gains.
TRIALS_MAX = 100_000


def fig4_label(algorithm: str, velocity: float) -> str:
    """The label of a fig4 row: one algorithm at one velocity."""
    return f"{algorithm}@v{velocity:g}"


def split_fig4_label(label: str) -> tuple[str, float]:
    """The ``(algorithm, velocity)`` of a :func:`fig4_label`."""
    algorithm, _, velocity = label.rpartition("@v")
    return algorithm, float(velocity)


def _distinct(values) -> bool:
    return len(set(values)) == len(values)


def _positive_list_rule(name: str) -> Rule:
    return (
        name,
        lambda v: len(v[name]) > 0 and all(0 < x < math.inf for x in v[name]),
        f"must be a non-empty list of finite numbers > 0, got {{{name}}}",
    )


# Bounds of the sweep settings, read by ExperimentSpec, overhead_share and the
# config loader's timing and experiment sections; rules as in
# :data:`ehuav.channel.NETWORK_RULES`.  The velocity rule also reads the
# network's ``f_c``, which the readers pass along.
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
    ("k_values", lambda v: _distinct(v["k_values"]), "must not repeat a value, got {k_values}"),
    _positive_list_rule("altitudes"),
    ("altitudes", lambda v: _distinct(v["altitudes"]), "must not repeat a value, got {altitudes}"),
    _positive_list_rule("velocities"),
    (
        "velocities",
        lambda v: all(positive_block_time(x, v["f_c"]) for x in v["velocities"]),
        "must each give a positive finite block time c / (velocity * f_c) "
        "with f_c={f_c}, got {velocities}",
    ),
    (
        "velocities",
        lambda v: _distinct([fig4_label("", x) for x in v["velocities"]]),
        "must differ in their first 6 significant digits (the fig4 row labels), got {velocities}",
    ),
    (
        "algorithms",
        lambda v: len(v["algorithms"]) > 0 and all(a in ALGORITHMS for a in v["algorithms"]),
        f"must be a non-empty list drawn from {list(ALGORITHMS)}, got {{algorithms}}",
    ),
)


def overhead_share(algorithm: str, op_count, t_op: float, T: float):
    """The ``nu_r`` an algorithm is charged for its operation tally(ies).

    The share of the block spent signalling, min(op_count*t_op/T, 1-1e-6),
    elementwise over an array of operation counts; a single count gives a
    float.  An algorithm its ``_ALLOCATORS`` entry marks uncharged (the
    grid benchmark, an offline optimum) pays nothing.
    """
    if not T > 0.0:
        raise ConfigError(f"block time must be positive, got {T}")
    ops = np.asarray(op_count)
    if not _allocator(algorithm)[2]:
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
        check(EXPERIMENT_RULES, {**vars(self), "f_c": self.network.f_c})
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
    """One CSV row; None renders as an empty cell.

    A row names the metrics it has; a row with none is a diagnostic row.
    """

    sweep_param: str
    sweep_value: float
    algorithm: str
    trials: int
    seed: int
    mean_iters: float | None = None
    mean_min_rate_bpshz: float | None = None
    outage_analytic: float | None = None
    outage_empirical: float | None = None
    std_err: float | None = None

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


def _allocator(name: str):
    if name not in _ALLOCATORS:
        raise ConfigError(f"unknown algorithm {name!r}")
    return _ALLOCATORS[name]


def allocate_by_name(name: str, gamma: np.ndarray, config: NetworkConfig) -> AllocationResult:
    """Run the named allocator on one channel draw."""
    return _allocator(name)[0](gamma, config)


def allocate_batch_by_name(name: str, gains: np.ndarray, config: NetworkConfig) -> BatchAllocation:
    """Run the named allocator on every row of a ``(T, K)`` draw matrix.

    Row t is ``allocate_by_name(name, gains[t], config)``: the same result,
    or a raise of the same error (see :class:`BatchAllocation`).
    """
    batch = _allocator(name)[1]
    if batch is not None:
        return batch(gains, config)
    outcomes = []
    for gamma in gains:
        try:
            outcomes.append(allocate_by_name(name, gamma, config))
        except EhuavError as exc:
            outcomes.append(exc)
    return BatchAllocation.stack(outcomes, gains.shape[1])


def _charged_min_rates(batch: BatchAllocation, gains: np.ndarray, nu_r: np.ndarray) -> np.ndarray:
    """Per-draw ``min_rate`` of each allocation with overhead share ``nu_r``
    (unchecked: the batch has checked its rows)."""
    tau = batch.tau[:, np.newaxis]
    nu_c = 1.0 - nu_r
    return _rate(batch.beta * (1.0 - tau), tau * gains, nu_c[:, np.newaxis]).min(axis=1)


def _first_error(batch: BatchAllocation) -> EhuavError:
    """The error of a batch's first failing draw, which a sweep point logs."""
    return batch.errors[min(batch.errors)]


def run_iterations_and_minrate_sweep(spec: ExperimentSpec) -> list[ExperimentRow]:
    """Sweep the number of pairs; report mean iterations and mean min-rate.

    The min-rate of each draw is evaluated after charging that algorithm's
    own operation tally against the block (``nu_c = 1 - nu_r``).  Total
    iterations count every loop pass an algorithm makes: both bisection
    phases for the two-phase scheme, outer plus inner bisections for the
    nested baseline, zero for the closed-form equal split.
    """
    network = spec.network
    T = block_time(network.V_hat, network.f_c)
    rows: list[ExperimentRow] = []
    for point, K in enumerate(spec.k_values):
        config = _config_for_k(network, K)
        gam = _point_draws(link_budgets(config), config, spec, point)
        at = dict(sweep_param="K", sweep_value=float(K), trials=spec.trials, seed=spec.seed)
        for name in spec.algorithms:
            batch = allocate_batch_by_name(name, gam, config)
            if batch.errors:
                log.warning("K=%d %s aborted: %s", K, name, _first_error(batch))
                rows.append(ExperimentRow(**at, algorithm=name))
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
                    **at,
                    algorithm=name,
                    mean_iters=float(batch.iterations.mean()),
                    mean_min_rate_bpshz=float(rates.mean()),
                    std_err=std_err,
                )
            )
    return rows


def fig3_trend_failures(rows: Sequence[ExperimentRow]) -> list[str]:
    """Iteration ordering and min-rate ordering across the K sweep.

    Diagnostic rows (all-None metrics) are skipped: an algorithm that could
    not run at some K simply drops out of the comparisons there.
    """
    failures: list[str] = []
    by_value: dict[float, dict[str, ExperimentRow]] = {}
    for row in rows:
        if row.mean_iters is None:
            continue
        by_value.setdefault(row.sweep_value, {})[row.algorithm] = row
    for value in sorted(by_value):
        here = by_value[value]
        prop, conv = here.get("proposed"), here.get("conventional")
        equal = here.get("equal_bandwidth")
        if prop and conv and not prop.mean_iters < conv.mean_iters:
            failures.append(
                f"K={value:g}: mean iterations proposed={prop.mean_iters:.6g} "
                f"not below conventional={conv.mean_iters:.6g}"
            )
        if prop and conv and not prop.mean_min_rate_bpshz >= conv.mean_min_rate_bpshz:
            failures.append(
                f"K={value:g}: mean min-rate proposed={prop.mean_min_rate_bpshz:.6g} "
                f"below conventional={conv.mean_min_rate_bpshz:.6g}"
            )
        if conv and equal and not conv.mean_min_rate_bpshz >= equal.mean_min_rate_bpshz:
            failures.append(
                f"K={value:g}: mean min-rate conventional="
                f"{conv.mean_min_rate_bpshz:.6g} below "
                f"equal-bandwidth={equal.mean_min_rate_bpshz:.6g}"
            )
    return failures


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
        at = dict(sweep_param="altitude", sweep_value=altitude, trials=spec.trials, seed=spec.seed)

        equal_alloc = Allocation(
            tau=equal_bandwidth_taf(K, config.R_a), beta=(1.0 / K,) * K, nu_r=0.0
        )
        rows.append(
            ExperimentRow(
                **at,
                algorithm=EQUAL_BANDWIDTH_ANALYTIC,
                outage_analytic=outage_closed_form(equal_alloc, budgets[i], config),
            )
        )

        for name in spec.algorithms:
            batch = allocations[name].rows(start, stop)
            if batch.errors:
                log.warning("altitude=%s %s aborted: %s", altitude, name, _first_error(batch))
                rows += [
                    ExperimentRow(**at, algorithm=fig4_label(name, v)) for v in spec.velocities
                ]
                continue
            mean_iters = float(batch.iterations.mean())
            for velocity in spec.velocities:
                T = block_time(velocity, config.f_c)
                nu_r = overhead_share(name, batch.op_count, spec.t_op, T)
                rates = _charged_min_rates(batch, gam, nu_r)
                p_hat = int(np.count_nonzero(rates < config.R_a)) / spec.trials
                rows.append(
                    ExperimentRow(
                        **at,
                        algorithm=fig4_label(name, velocity),
                        mean_iters=mean_iters,
                        mean_min_rate_bpshz=float(rates.mean()),
                        outage_empirical=p_hat,
                        std_err=math.sqrt(p_hat * (1.0 - p_hat) / spec.trials),
                    )
                )
    return rows


def fig4_trend_failures(rows: Sequence[ExperimentRow]) -> list[str]:
    """Assertion-tagged trends of the altitude x velocity outage sweep.

    1. analytic vs empirical equal-bandwidth within 3 standard errors
       (band from the analytic probability) at every altitude/velocity;
    2. equal-bandwidth empirical outage identical across velocities
       (zero iterations charged, so the block time cannot matter);
    3. at the altitude nearest 90 m, the conventional-minus-proposed
       outage gap is non-decreasing in velocity;
    4. the analytic equal-bandwidth curve has a unique interior minimum
       at an altitude in [70, 110] m.
    """
    failures: list[str] = []
    analytic: dict[float, ExperimentRow] = {}
    empirical: dict[float, dict[str, ExperimentRow]] = {}
    for row in rows:
        if row.algorithm == EQUAL_BANDWIDTH_ANALYTIC:
            analytic[row.sweep_value] = row
        elif row.outage_empirical is not None:
            empirical.setdefault(row.sweep_value, {})[row.algorithm] = row

    equal = {
        altitude: {
            label: row
            for label, row in here.items()
            if split_fig4_label(label)[0] == "equal_bandwidth"
        }
        for altitude, here in empirical.items()
    }

    for altitude in sorted(analytic):
        p = analytic[altitude].outage_analytic
        for label, row in sorted(equal.get(altitude, {}).items()):
            band = 3.0 * math.sqrt(p * (1.0 - p) / row.trials)
            if abs(row.outage_empirical - p) > band:
                failures.append(
                    f"altitude={altitude:g} {label}: empirical outage "
                    f"{row.outage_empirical:.6g} misses analytic {p:.6g} "
                    f"by more than {band:.6g}"
                )

    for altitude in sorted(equal):
        equal_values = {label: row.outage_empirical for label, row in equal[altitude].items()}
        if len(set(equal_values.values())) > 1:
            failures.append(
                f"altitude={altitude:g}: equal-bandwidth outage varies with "
                f"velocity: {equal_values}"
            )

    if empirical:
        pivot = min(empirical, key=lambda alt: abs(alt - 90.0))
        at_velocity: dict[float, dict[str, float]] = {}
        for label, row in empirical[pivot].items():
            algorithm, velocity = split_fig4_label(label)
            at_velocity.setdefault(velocity, {})[algorithm] = row.outage_empirical
        gaps = [
            (v, here["conventional"] - here["proposed"])
            for v, here in sorted(at_velocity.items())
            if "proposed" in here and "conventional" in here
        ]
        for (v0, g0), (v1, g1) in zip(gaps, gaps[1:]):
            if g1 < g0:
                failures.append(
                    f"altitude={pivot:g}: conventional-proposed outage gap "
                    f"shrinks from {g0:.6g} at v={v0:g} to {g1:.6g} at v={v1:g}"
                )

    if len(analytic) >= 3:
        altitudes = sorted(analytic)
        curve = [analytic[a].outage_analytic for a in altitudes]
        best = min(curve)
        argmins = [i for i, p in enumerate(curve) if p == best]
        if len(argmins) != 1:
            failures.append(
                "analytic equal-bandwidth curve has no unique minimum "
                f"(tied at altitudes {[altitudes[i] for i in argmins]})"
            )
        else:
            i = argmins[0]
            if i == 0 or i == len(curve) - 1:
                failures.append(
                    f"analytic equal-bandwidth minimum sits on the sweep "
                    f"boundary at {altitudes[i]:g} m"
                )
            elif not 70.0 <= altitudes[i] <= 110.0:
                failures.append(
                    f"analytic equal-bandwidth minimum at {altitudes[i]:g} m "
                    "lies outside [70, 110] m"
                )
    return failures


def write_rows(rows: list[ExperimentRow], path) -> None:
    """Write rows as UTF-8 CSV with the fixed header (12-digit floats)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())
