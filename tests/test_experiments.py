"""Tests for the charging rule, node placement, and the sweep runners."""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from ehuav import experiments
from ehuav.channel import block_time
from ehuav.errors import ConfigError, EhuavError
from ehuav.experiments import (
    ALGORITHMS,
    CSV_HEADER,
    ExperimentRow,
    ExperimentSpec,
    allocate_batch_by_name,
    allocate_by_name,
    fig4_trend_failures,
    overhead_share,
    place_nodes,
    run_iterations_and_minrate_sweep,
    run_outage_altitude_sweep,
    write_rows,
)
from test_channel import default_config


def by_algorithm(rows, sweep_value):
    return {
        r.algorithm: r
        for r in rows
        if r.sweep_value == pytest.approx(sweep_value)
    }


def rap_share(op_count, t_op: float = 2.5e-7, T: float = 6.25e-3):
    """The signalling share an online algorithm is charged."""
    return overhead_share("proposed", op_count, t_op, T)


class TestRapFraction:
    """The RAP fraction ``nu_r`` (the CLI's ``rap_fraction:``) charged by
    :func:`overhead_share` to an online algorithm."""

    def test_zero_operations_cost_nothing(self):
        assert rap_share(0) == 0.0

    def test_free_operations_cost_nothing(self):
        assert rap_share(10**9, t_op=0.0) == 0.0

    def test_half_block(self):
        assert rap_share(12500) == pytest.approx(0.5, rel=1e-12)

    def test_saturates_below_one(self):
        assert rap_share(10**15, t_op=1.0) == 1.0 - 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="block time"):
            rap_share(1, 1.0, 0.0)
        with pytest.raises(ConfigError, match="op_count"):
            rap_share(-1, 1.0, 1.0)
        with pytest.raises(ConfigError, match="t_op"):
            rap_share(1, -1.0, 1.0)

    def test_elementwise_over_a_tally_array(self):
        ops = np.array([0, 1000, 12500, 10**15])
        shares = rap_share(ops)
        assert shares.tolist() == [rap_share(int(n)) for n in ops]
        assert shares[-1] == 1.0 - 1e-6
        with pytest.raises(ConfigError, match="op_count must be >= 0, got -3"):
            rap_share(np.array([4, -3, 2]))


class TestOverheadShare:
    def test_online_algorithms_pay_for_their_operations(self):
        for name in ("proposed", "conventional", "equal_bandwidth"):
            assert overhead_share(name, 1000, 2.5e-7, 6.25e-3) == pytest.approx(
                0.04, rel=1e-12
            )

    def test_the_offline_optimum_is_free(self):
        assert overhead_share("optimal", 10**9, 2.5e-7, 6.25e-3) == 0.0
        shares = overhead_share("optimal", np.array([5, 10**9]), 2.5e-7, 6.25e-3)
        assert shares.tolist() == [0.0, 0.0]


class TestPlaceNodes:
    def test_single_pair_sits_at_the_far_end(self):
        geom, = place_nodes(default_config(1))
        assert (geom.d_h, geom.d_g, geom.altitude) == (100.0, 0.0, 120.0)

    def test_six_pair_grading(self):
        geoms = place_nodes(default_config(6))
        d_h = [g.d_h for g in geoms]
        assert d_h == pytest.approx([100 / 6, 100 / 3, 50.0, 200 / 3, 250 / 3, 100.0])
        assert [g.altitude for g in geoms] == pytest.approx([20, 40, 60, 80, 100, 120])

    def test_links_span_the_full_path(self):
        for geom in place_nodes(default_config(7)):
            assert geom.d_g == 100.0 - geom.d_h
            assert geom.d_h + geom.d_g == pytest.approx(100.0, rel=1e-15)


class TestExperimentSpec:
    def test_rejects_empty_sweep(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ExperimentSpec(default_config(2), k_values=())

    def test_rejects_bad_trials(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentSpec(default_config(2), trials=0)

    def test_rejects_unknown_algorithms(self):
        with pytest.raises(ConfigError, match="algorithms"):
            ExperimentSpec(default_config(2), algorithms=("greedy",))
        with pytest.raises(ConfigError, match="algorithms"):
            ExperimentSpec(default_config(2), algorithms=())

    def test_rejects_empty_velocities(self):
        with pytest.raises(ConfigError, match="velocities"):
            ExperimentSpec(default_config(2), velocities=())

    def test_accepts_the_full_algorithm_set(self):
        spec = ExperimentSpec(default_config(2), algorithms=ALGORITHMS)
        assert spec.algorithms == ALGORITHMS

    def test_stores_ints_floats_and_tuples(self):
        spec = ExperimentSpec(
            default_config(2),
            t_op=0,
            trials=3.0,
            seed=7.0,
            k_values=[2.0, 4],
            altitudes=[90],
            velocities=[20],
            algorithms=["proposed"],
        )
        assert (spec.t_op, spec.trials, spec.seed) == (0.0, 3, 7)
        assert [type(x) for x in (spec.t_op, spec.trials, spec.seed)] == [float, int, int]
        assert spec.k_values == (2, 4) and all(type(k) is int for k in spec.k_values)
        assert spec.altitudes == (90.0,) and type(spec.altitudes[0]) is float
        assert spec.velocities == (20.0,) and type(spec.velocities[0]) is float
        assert spec.algorithms == ("proposed",)


class TestExperimentRow:
    def row(self, **overrides):
        params = dict(
            sweep_param="K",
            sweep_value=2.0,
            algorithm="proposed",
            mean_iters=30.0,
            mean_min_rate_bpshz=1.5,
            outage_analytic=None,
            outage_empirical=0.25,
            std_err=0.01,
            trials=100,
            seed=1,
        )
        params.update(overrides)
        return ExperimentRow(**params)

    def test_rejects_probabilities_outside_unit_interval(self):
        with pytest.raises(ConfigError, match="outage_empirical"):
            self.row(outage_empirical=1.5)

    def test_rejects_non_finite_means(self):
        with pytest.raises(ConfigError, match="mean_min_rate_bpshz"):
            self.row(mean_min_rate_bpshz=math.inf)

    def test_csv_cells(self):
        cells = self.row(outage_empirical=0.969414682266207).as_csv()
        assert cells[0] == "K"
        assert cells[5] == ""  # None renders empty
        assert cells[6] == "0.969414682266"  # 12 significant digits
        assert cells[-2:] == ["100", "1"]


class TestAllocateBatchByName:
    def test_rows_equal_per_draw_calls(self):
        config = default_config(2)
        gains = 10.0 ** np.random.default_rng(8).uniform(-1.0, 3.0, size=(5, 2))
        for name in ALGORITHMS:
            batch = allocate_batch_by_name(name, gains, config)
            for t in range(len(gains)):
                assert batch.row(t) == allocate_by_name(name, gains[t], config)

    @pytest.mark.parametrize(
        "dispatch, gains",
        [(allocate_batch_by_name, np.ones((1, 2))), (allocate_by_name, np.ones(2))],
    )
    def test_unknown_algorithm(self, dispatch, gains):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            dispatch("greedy", gains, default_config(2))

    def test_algorithm_list_order(self):
        assert ALGORITHMS == ("proposed", "conventional", "equal_bandwidth", "optimal")

    def test_dispatchers_call_the_module_names(self, monkeypatch):
        """A tracer rebinds the allocators' names in this module; both
        dispatchers must call whatever the names hold at call time."""
        calls = []

        def recorder(name, original):
            def record(*args):
                calls.append(name)
                return original(*args)

            return record

        for name in ("proposed_allocate", "proposed_allocate_batch"):
            monkeypatch.setattr(experiments, name, recorder(name, getattr(experiments, name)))
        config = default_config(2)
        gains = np.array([[2.0, 3.0], [4.0, 1.0]])
        allocate_by_name("proposed", gains[0], config)
        allocate_batch_by_name("proposed", gains, config)
        assert calls == ["proposed_allocate", "proposed_allocate_batch"]

    @pytest.mark.parametrize("gain", [np.inf, 0.0, -1.0, np.nan])
    def test_equal_split_refuses_bad_gains_per_draw_and_in_batch(self, gain):
        config = default_config(2)
        gains = np.array([[2.0, 3.0], [gain, 1.0]])
        with pytest.raises(ConfigError, match="strictly positive and finite"):
            allocate_by_name("equal_bandwidth", gains[1], config)
        batch = allocate_batch_by_name("equal_bandwidth", gains, config)
        with pytest.raises(ConfigError, match="strictly positive and finite"):
            batch.row(1)
        assert allocate_by_name("equal_bandwidth", gains[0], config).beta == (0.5, 0.5)
        assert batch.row(0) == allocate_by_name("equal_bandwidth", gains[0], config)

    def test_optimal_keeps_each_draws_error(self):
        config = default_config(2)
        gains = np.array([[2.0, 3.0], [0.0, 1.0], [4.0, 1.0]])
        batch = allocate_batch_by_name("optimal", gains, config)
        assert sorted(batch.errors) == [1]
        with pytest.raises(ConfigError, match="strictly positive and finite"):
            batch.row(1)
        for t in (0, 2):
            assert batch.row(t) == allocate_by_name("optimal", gains[t], config)
        assert np.isnan(batch.beta[1]).all() and batch.op_count[1] == 0


@pytest.fixture(scope="module")
def k_sweep_rows():
    spec = ExperimentSpec(
        network=default_config(6),
        k_values=(2, 3, 6),
        trials=12,
        seed=11,
        algorithms=ALGORITHMS,
    )
    return spec, run_iterations_and_minrate_sweep(spec)


class TestIterationsAndMinrateSweep:
    def test_row_grid_is_complete(self, k_sweep_rows):
        spec, rows = k_sweep_rows
        assert len(rows) == len(spec.k_values) * len(spec.algorithms)
        assert {r.sweep_param for r in rows} == {"K"}

    def test_equal_bandwidth_needs_no_iterations(self, k_sweep_rows):
        _, rows = k_sweep_rows
        for row in rows:
            if row.algorithm == "equal_bandwidth":
                assert row.mean_iters == 0.0

    def test_proposed_iterates_less_than_conventional(self, k_sweep_rows):
        spec, rows = k_sweep_rows
        for K in spec.k_values:
            here = by_algorithm(rows, K)
            assert here["proposed"].mean_iters < here["conventional"].mean_iters

    def test_min_rate_ordering_with_overhead(self, k_sweep_rows):
        spec, rows = k_sweep_rows
        for K in spec.k_values:
            here = by_algorithm(rows, K)
            assert (
                here["proposed"].mean_min_rate_bpshz
                >= here["conventional"].mean_min_rate_bpshz
                >= here["equal_bandwidth"].mean_min_rate_bpshz
            )

    def test_oversized_exhaustive_point_degrades_to_diagnostic(self, k_sweep_rows):
        _, rows = k_sweep_rows
        diag = by_algorithm(rows, 6)["optimal"]
        assert diag.mean_iters is None
        assert diag.mean_min_rate_bpshz is None
        ok = by_algorithm(rows, 3)["optimal"]
        assert ok.mean_min_rate_bpshz is not None

    def test_deterministic_rerun(self, k_sweep_rows):
        spec, rows = k_sweep_rows
        assert run_iterations_and_minrate_sweep(spec) == rows


@pytest.fixture(scope="module")
def altitude_rows():
    spec = ExperimentSpec(
        network=default_config(3),
        altitudes=(60.0, 90.0),
        trials=80,
        seed=5,
        algorithms=("proposed", "equal_bandwidth"),
        velocities=(10.0, 20.0),
    )
    return spec, run_outage_altitude_sweep(spec)


class TestOutageAltitudeSweep:
    def test_analytic_row_per_altitude(self, altitude_rows):
        spec, rows = altitude_rows
        analytic = [r for r in rows if r.algorithm == "equal_bandwidth_analytic"]
        assert [r.sweep_value for r in analytic] == list(spec.altitudes)
        for row in analytic:
            assert 0.0 <= row.outage_analytic <= 1.0
            assert row.outage_empirical is None
            assert row.mean_iters is None

    def test_analytic_matches_empirical_equal_split(self, altitude_rows):
        spec, rows = altitude_rows
        for altitude in spec.altitudes:
            here = by_algorithm(rows, altitude)
            p = here["equal_bandwidth_analytic"].outage_analytic
            p_hat = here["equal_bandwidth@v20"].outage_empirical
            band = 3.0 * math.sqrt(p * (1.0 - p) / spec.trials)
            assert abs(p_hat - p) <= band

    def test_zero_overhead_policies_ignore_velocity(self, altitude_rows):
        spec, rows = altitude_rows
        for altitude in spec.altitudes:
            here = by_algorithm(rows, altitude)
            assert (
                here["equal_bandwidth@v10"].outage_empirical
                == here["equal_bandwidth@v20"].outage_empirical
            )

    def test_adaptive_allocation_dominates_equal_split(self, altitude_rows):
        spec, rows = altitude_rows
        for altitude in spec.altitudes:
            here = by_algorithm(rows, altitude)
            for v in ("v10", "v20"):
                assert (
                    here[f"proposed@{v}"].outage_empirical
                    <= here[f"equal_bandwidth@{v}"].outage_empirical
                )

    def test_probabilities_and_rates_stay_in_range(self, altitude_rows):
        _, rows = altitude_rows
        for row in rows:
            if row.outage_empirical is not None:
                assert 0.0 <= row.outage_empirical <= 1.0
                assert row.std_err == pytest.approx(
                    math.sqrt(row.outage_empirical * (1 - row.outage_empirical) / row.trials)
                )
            if row.mean_min_rate_bpshz is not None:
                assert row.mean_min_rate_bpshz >= 0.0

    def test_deterministic_rerun(self, altitude_rows):
        spec, rows = altitude_rows
        assert run_outage_altitude_sweep(spec) == rows

    def test_trend_check_reads_the_runner_labels(self):
        # Non-integer velocities; R_a = 1.6 keeps the outages off 0 and 1.
        spec = ExperimentSpec(
            network=default_config(3, R_a=1.6),
            altitudes=(80.0, 90.0, 100.0),
            trials=40,
            seed=3,
            algorithms=("proposed", "conventional"),
            velocities=(7.5, 12.25),
        )
        rows = run_outage_altitude_sweep(spec)
        pivot = by_algorithm(rows, 90.0)
        gap = pivot["conventional@v7.5"].outage_empirical - pivot["proposed@v7.5"].outage_empirical
        assert gap > 0.0
        narrowed = replace(
            pivot["conventional@v12.25"],
            outage_empirical=pivot["proposed@v12.25"].outage_empirical,
        )
        shrunk = [narrowed if row == pivot["conventional@v12.25"] else row for row in rows]
        before = fig4_trend_failures(rows)
        added = [line for line in fig4_trend_failures(shrunk) if line not in before]
        assert added == [
            f"altitude=90: conventional-proposed outage gap shrinks from {gap:.6g} "
            "at v=7.5 to 0 at v=12.25"
        ]


def per_point_sweep(spec: ExperimentSpec) -> list[ExperimentRow]:
    """The altitude sweep with one batch call per (point, algorithm): the
    runner's loop before it stacked points, kept as an oracle.  A point's
    first failing draw is the first row whose per-draw call raises."""
    rows: list[ExperimentRow] = []
    for point, altitude in enumerate(spec.altitudes):
        config = replace(spec.network, A_hat=altitude)
        budgets = experiments.link_budgets(config)
        gam = experiments._point_draws(budgets, config, spec, point)
        K = config.K

        equal_alloc = experiments.Allocation(
            tau=experiments.equal_bandwidth_taf(K, config.R_a), beta=(1.0 / K,) * K, nu_r=0.0
        )
        rows.append(
            ExperimentRow(
                sweep_param="altitude",
                sweep_value=altitude,
                algorithm="equal_bandwidth_analytic",
                mean_iters=None,
                mean_min_rate_bpshz=None,
                outage_analytic=experiments.outage_closed_form(equal_alloc, budgets, config),
                outage_empirical=None,
                std_err=None,
                trials=spec.trials,
                seed=spec.seed,
            )
        )

        for name in spec.algorithms:
            batch = allocate_batch_by_name(name, gam, config)
            try:
                for t in range(spec.trials):
                    batch.row(t)
            except EhuavError as exc:
                experiments.log.warning("altitude=%s %s aborted: %s", altitude, name, exc)
                for velocity in spec.velocities:
                    rows.append(
                        ExperimentRow(
                            sweep_param="altitude",
                            sweep_value=altitude,
                            algorithm=f"{name}@v{velocity:g}",
                            trials=spec.trials,
                            seed=spec.seed,
                        )
                    )
                continue
            mean_iters = float(batch.iterations.mean())
            for velocity in spec.velocities:
                T = block_time(velocity, config.f_c)
                nu_r = overhead_share(name, batch.op_count, spec.t_op, T)
                rates = experiments._charged_min_rates(batch, gam, nu_r)
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


@pytest.fixture(scope="module")
def stacked_spec():
    # trials = K_MAX, so a TRIALS_MAX of n * K stacks n points per call.
    return ExperimentSpec(
        network=default_config(3),
        altitudes=(40.0, 70.0, 100.0, 130.0),
        trials=experiments.K_MAX,
        seed=9,
        algorithms=("proposed", "conventional", "equal_bandwidth"),
        velocities=(10.0, 40.0),
    )


@pytest.fixture
def call_sizes(monkeypatch):
    """The number of draws in each batch allocator call of the sweep."""
    sizes = []
    allocate = experiments.allocate_batch_by_name

    def recording(name, gains, config):
        sizes.append(len(gains))
        return allocate(name, gains, config)

    monkeypatch.setattr(experiments, "allocate_batch_by_name", recording)
    return sizes


def aborted(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == experiments.__name__]


class TestStackedAltitudePoints:
    """fig4 allocates consecutive altitude points in one batch call per
    algorithm; its rows are those of one call per (point, algorithm)."""

    def test_one_call_per_algorithm_gives_the_per_point_rows(self, stacked_spec, call_sizes):
        rows = run_outage_altitude_sweep(stacked_spec)
        points = len(stacked_spec.altitudes)
        assert call_sizes == [points * stacked_spec.trials] * len(stacked_spec.algorithms)
        assert rows == per_point_sweep(stacked_spec)

    @pytest.mark.parametrize("per_call", [1, 2])
    def test_smaller_stacks_give_the_same_rows(
        self, stacked_spec, per_call, call_sizes, monkeypatch
    ):
        whole = run_outage_altitude_sweep(stacked_spec)
        call_sizes.clear()
        monkeypatch.setattr(experiments, "TRIALS_MAX", per_call * stacked_spec.network.K)
        assert run_outage_altitude_sweep(stacked_spec) == whole
        stacks = [per_call * stacked_spec.trials] * (4 // per_call)
        assert call_sizes == stacks * len(stacked_spec.algorithms)

    @pytest.mark.parametrize("per_call", [None, 2])
    @pytest.mark.parametrize("point, draw", [(0, 0), (1, 7), (3, 63)])
    def test_a_failing_point_is_isolated(
        self, stacked_spec, per_call, point, draw, caplog, monkeypatch, call_sizes
    ):
        clean = run_outage_altitude_sweep(stacked_spec)
        call_sizes.clear()
        if per_call is not None:
            monkeypatch.setattr(experiments, "TRIALS_MAX", per_call * stacked_spec.network.K)
        draws = experiments._point_draws

        def one_zero_gain(budgets, config, spec, p):
            gains = draws(budgets, config, spec, p)
            if p == point:
                gains[draw, 1] = 0.0
            return gains

        monkeypatch.setattr(experiments, "_point_draws", one_zero_gain)
        with caplog.at_level(logging.WARNING, logger=experiments.__name__):
            oracle = per_point_sweep(stacked_spec)
            expected_log = aborted(caplog)
            caplog.clear()
            rows = run_outage_altitude_sweep(stacked_spec)
        assert rows == oracle
        # One call per algorithm per stack, the failing one included.
        per_stack = per_call or len(stacked_spec.altitudes)
        stacks = [per_stack * stacked_spec.trials] * (len(stacked_spec.altitudes) // per_stack)
        assert call_sizes == stacks * len(stacked_spec.algorithms)
        altitude = stacked_spec.altitudes[point]
        assert aborted(caplog) == expected_log == [
            f"altitude={altitude} {name} aborted: "
            "all channel gains must be strictly positive and finite"
            for name in stacked_spec.algorithms
        ]
        assert len(rows) == len(clean)
        for row, clean_row in zip(rows, clean):
            if row.sweep_value == altitude and row.algorithm != "equal_bandwidth_analytic":
                assert row.mean_iters is None and row.outage_empirical is None
            else:
                assert row == clean_row


class TestWriteRows:
    def test_csv_shape_and_empty_cells(self, tmp_path, altitude_rows):
        _, rows = altitude_rows
        path = tmp_path / "sweep.csv"
        write_rows(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == len(rows) + 1
        first_analytic = next(
            line for line in lines[1:] if "equal_bandwidth_analytic" in line
        )
        cells = first_analytic.split(",")
        assert cells[3] == "" and cells[4] == ""

    def test_byte_identical_reruns(self, tmp_path, altitude_rows):
        spec, rows = altitude_rows
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(rows, a)
        write_rows(run_outage_altitude_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()
