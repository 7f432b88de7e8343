"""CLI subcommands driven in-process: exit codes, stdout contracts, determinism."""

import hashlib

import pytest
import yaml

from ehuav.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TREND,
    fig3_trend_failures,
    fig4_trend_failures,
    main,
)
from ehuav.experiments import CSV_HEADER, ExperimentRow

TABLE1 = "configs/table1.yaml"

NETWORK = {
    "K": 2,
    "N_c": 4,
    "N_r": 4,
    "N_s": 10,
    "B": 1.0e6,
    "f_c": 2.4e9,
    "c_light": 3.0e8,
    "noise_power": 3.9810717055349695e-15,
    "zeta": 0.7,
    "p_c": 0.1,
    "m_h": 3,
    "m_g": 3,
    "d_hat": 100.0,
    "A_hat": 120.0,
    "V_hat": 20.0,
    "R_a": 1.0,
    "epsilon": 1.0e-4,
}
ENVIRONMENT = {"a": 9.61, "b": 0.16, "eta_los": 1.0, "eta_nlos": 20.0}


def config_file(tmp_path, *, network=None, timing=None, experiment=None):
    data = {
        "network": {**NETWORK, **(network or {})},
        "environment": dict(ENVIRONMENT),
    }
    if timing is not None:
        data["timing"] = timing
    if experiment is not None:
        data["experiment"] = experiment
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestValidate:
    def test_defaults_succeed_and_print_derived_constants(self, capsys):
        assert main(["validate", TABLE1]) == EXIT_OK
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "block_time=0.00625 s" in out
        assert "tau=0.192935949031" in out
        for column in ("pl_h_db", "pl_g_db", "lam", "mu", "rho"):
            assert column in out
        # one line per UAV plus headers
        assert out.count("1.75832e+12") == 6

    def test_every_violation_listed(self, tmp_path, capsys):
        path = config_file(tmp_path, network={"zeta": 1.5, "m_h": 2.5, "oops": 0})
        assert main(["validate", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "network.zeta" in err
        assert "network.m_h" in err
        assert "network.oops" in err

    def test_epsilon_above_half_is_a_config_error(self, tmp_path, capsys):
        path = config_file(tmp_path, network={"epsilon": 0.7})
        assert main(["validate", path]) == EXIT_CONFIG
        assert "network.epsilon: must lie in [1e-12, 0.5), got 0.7" in capsys.readouterr().err

    def test_shape_beyond_the_closed_form_is_a_config_error(self, tmp_path, capsys):
        # m_g * N_r = 3 * 60 = 180 > 170: refused by validate, with its path,
        # instead of passing here and failing later inside gamma_int.
        path = config_file(tmp_path, network={"N_r": 60})
        assert main(["validate", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "network.N_r: must satisfy m_g * N_r <= 170" in err
        assert main(["outage", path, "--trials", "10"]) == EXIT_CONFIG
        assert "network.N_r" in capsys.readouterr().err

    @pytest.mark.parametrize("m_h", [60, 100])
    def test_channel_shape_beyond_the_closed_form_is_a_config_error(self, tmp_path, capsys, m_h):
        # m_h * N_c = 240 or 400 > 170: the survival sum used to overflow in
        # `outage` with a traceback after `validate` had passed.
        path = config_file(tmp_path, network={"m_h": m_h})
        assert main(["validate", path]) == EXIT_CONFIG
        assert "network.N_c: must satisfy m_h * N_c <= 170" in capsys.readouterr().err
        assert main(["outage", path, "--trials", "10"]) == EXIT_CONFIG
        assert "network.N_c" in capsys.readouterr().err

    def test_infinite_rate_requirement_is_a_config_error(self, tmp_path, capsys):
        # R_a = inf used to pass and end in a NaN time split (exit 3).
        path = config_file(tmp_path, network={"R_a": float("inf")})
        assert main(["validate", path]) == EXIT_CONFIG
        assert "network.R_a: must be finite and > 0, got inf" in capsys.readouterr().err
        assert main(["outage", path, "--trials", "10"]) == EXIT_CONFIG
        assert "network.R_a" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/does/not/exist.yaml"]) == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err


class TestAllocate:
    def test_seeded_draw_is_reproducible(self, capsys):
        assert main(["allocate", TABLE1, "--seed", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["allocate", TABLE1, "--seed", "7"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "tau:" in first and "beta:" in first
        assert "op_count=" in first
        assert "rap_fraction:" in first

    def test_equal_bandwidth_prints_closed_form_split(self, tmp_path, capsys):
        from ehuav.allocation import equal_bandwidth_taf

        path = config_file(tmp_path)
        rc = main(
            ["allocate", path, "--gamma", "5", "5", "--algorithm", "equal_bandwidth"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert f"tau: {equal_bandwidth_taf(2, 1.0):.12g}" in out
        assert "beta: 0.5 0.5" in out
        assert "op_count=0" in out

    def test_gamma_length_checked(self, capsys):
        assert main(["allocate", TABLE1, "--gamma", "1", "2", "3"]) == EXIT_CONFIG
        assert "exactly K=6" in capsys.readouterr().err

    def test_gamma_must_be_positive(self, tmp_path, capsys):
        path = config_file(tmp_path)
        assert main(["allocate", path, "--gamma", "1.0", "-2.0"]) == EXIT_CONFIG
        assert "strictly positive" in capsys.readouterr().err

    def test_exhaustive_guard_maps_to_config_exit(self, capsys):
        rc = main(["allocate", TABLE1, "--seed", "1", "--algorithm", "optimal"])
        assert rc == EXIT_CONFIG
        assert "K <= 3" in capsys.readouterr().err

    def test_exhaustive_runs_for_small_k(self, tmp_path, capsys):
        path = config_file(tmp_path)
        rc = main(["allocate", path, "--gamma", "4", "9", "--algorithm", "optimal"])
        assert rc == EXIT_OK
        assert "min_rate_bpshz:" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["proposed", "conventional"])
    def test_epsilon_below_floor_maps_to_config_exit(self, tmp_path, capsys, algorithm):
        # Below the floor the conventional target bisection never ended and
        # phase 1 divided by zero; the config now refuses such a tolerance.
        path = config_file(tmp_path, network={"K": 3, "epsilon": 1.0e-16})
        rc = main(["allocate", path, "--gamma", "10", "100", "50", "--algorithm", algorithm])
        assert rc == EXIT_CONFIG
        assert "network.epsilon" in capsys.readouterr().err

    def test_unbracketable_derivative_maps_to_numeric_exit(self, tmp_path, capsys):
        path = config_file(tmp_path)
        rc = main(["allocate", path, "--gamma", "1e-12", "1e-12"])
        assert rc == EXIT_NUMERIC
        assert "bracket" in capsys.readouterr().err

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["allocate", TABLE1, "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


class TestOutage:
    def test_saturated_defaults_agree(self, capsys):
        rc = main(["outage", TABLE1, "--trials", "4000", "--seed", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic_outage:" in out
        assert "empirical_outage:" in out
        assert "verdict: PASS" in out

    def test_zero_rate_requirement_gives_zero_outage(self, capsys):
        rc = main(["outage", TABLE1, "--trials", "500", "--rate", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic_outage: 0\n" in out
        assert "empirical_outage: 0 " in out

    def test_threads_flag_does_not_change_output(self, capsys):
        args = ["outage", TABLE1, "--trials", "2000", "--seed", "11"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args + ["--threads", "3"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_rate_must_be_finite_and_non_negative(self, value, capsys):
        assert main(["outage", TABLE1, "--trials", "500", f"--rate={value}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --rate must be a finite number >= 0, got {float(value)}\n"

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["outage", TABLE1, "--trials", "500", "--seed", "-3"]) == EXIT_CONFIG
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_is_a_config_error(self, value, capsys):
        assert main(["outage", TABLE1, "--trials", "500", "--threads", value]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: --threads must be >= 1, got {value}\n"

    def test_beta_sum_validated(self, capsys):
        rc = main(["outage", TABLE1, "--beta"] + ["0.3"] * 6)
        assert rc == EXIT_CONFIG
        assert "sum to 1" in capsys.readouterr().err

    def test_explicit_allocation_echoed(self, tmp_path, capsys):
        path = config_file(tmp_path)
        rc = main(
            ["outage", path, "--tau", "0.3", "--beta", "0.5", "0.5", "--trials", "500"]
        )
        assert rc == EXIT_OK
        assert "tau: 0.3\n" in capsys.readouterr().out


@pytest.fixture
def fig3_config(tmp_path):
    return config_file(
        tmp_path,
        experiment={
            "trials": 15,
            "seed": 9,
            "k_values": [2, 3],
            "algorithms": ["proposed", "conventional", "equal_bandwidth"],
        },
    )


class TestFig3:
    def test_csv_shape_and_trends_pass(self, fig3_config, tmp_path, capsys):
        out_path = tmp_path / "fig3.csv"
        assert main(["fig3", fig3_config, "--out", str(out_path)]) == EXIT_OK
        assert "trend checks OK" in capsys.readouterr().out
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 3  # two K values x three algorithms

    def test_rerun_writes_identical_file(self, fig3_config, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig3", fig3_config, "--out", str(out_a)]) == EXIT_OK
        assert main(["fig3", fig3_config, "--out", str(out_b)]) == EXIT_OK
        assert sha256(out_a) == sha256(out_b)

    @pytest.mark.parametrize(
        "field,values", [("p_c", [0.1, 0.2]), ("m_h", [3, 4]), ("m_g", [2, 3])]
    )
    def test_non_uniform_per_uav_values_are_refused(self, tmp_path, capsys, field, values):
        # The K sweep resizes the scenario; it used to keep UAV 0's value
        # for every UAV and write the uniform scenario's CSV.
        config = config_file(
            tmp_path, network={field: values}, experiment={"trials": 5, "k_values": [2]}
        )
        out_path = tmp_path / "fig3.csv"
        assert main(["fig3", config, "--out", str(out_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: network.{field}: the K sweep needs the same value for every UAV, "
            f"got {values}\n"
        )
        assert not out_path.exists()


class TestFig4:
    def test_saturated_defaults_fail_altitude_trend_but_write_csv(
        self, tmp_path, capsys
    ):
        path = config_file(
            tmp_path,
            network={"K": 6},
            experiment={
                "trials": 8,
                "seed": 4,
                "altitudes": [30, 60, 90],
                "velocities": [10, 20],
                "algorithms": ["proposed", "equal_bandwidth"],
            },
        )
        out_path = tmp_path / "fig4.csv"
        assert main(["fig4", path, "--out", str(out_path)]) == EXIT_TREND
        captured = capsys.readouterr()
        assert "trend assertion failed" in captured.err
        lines = out_path.read_text(encoding="utf-8").splitlines()
        # per altitude: one analytic row + two algorithms x two velocities
        assert len(lines) == 1 + 3 * (1 + 2 * 2)


def alt_row(algorithm, altitude, *, pa=None, pe=None, trials=400):
    return ExperimentRow(
        sweep_param="altitude",
        sweep_value=altitude,
        algorithm=algorithm,
        mean_iters=None if algorithm == "equal_bandwidth_analytic" else 10.0,
        mean_min_rate_bpshz=None if algorithm == "equal_bandwidth_analytic" else 1.0,
        outage_analytic=pa,
        outage_empirical=pe,
        std_err=None,
        trials=trials,
        seed=1,
    )


def k_row(algorithm, k, iters, rate):
    return ExperimentRow(
        sweep_param="K",
        sweep_value=k,
        algorithm=algorithm,
        mean_iters=iters,
        mean_min_rate_bpshz=rate,
        outage_analytic=None,
        outage_empirical=None,
        std_err=None,
        trials=50,
        seed=1,
    )


class TestFig3TrendChecker:
    def test_clean_rows_pass(self):
        rows = [
            k_row("proposed", 2, 20.0, 2.3),
            k_row("conventional", 2, 400.0, 2.2),
            k_row("equal_bandwidth", 2, 0.0, 1.9),
        ]
        assert fig3_trend_failures(rows) == []

    def test_iteration_inversion_detected(self):
        rows = [
            k_row("proposed", 2, 500.0, 2.3),
            k_row("conventional", 2, 400.0, 2.2),
        ]
        failures = fig3_trend_failures(rows)
        assert len(failures) == 1 and "iterations" in failures[0]

    def test_rate_ordering_violations_detected(self):
        rows = [
            k_row("proposed", 2, 20.0, 2.0),
            k_row("conventional", 2, 400.0, 2.2),
            k_row("equal_bandwidth", 2, 0.0, 2.1),
        ]
        failures = fig3_trend_failures(rows)
        assert len(failures) == 1
        assert "below conventional" in failures[0]

    def test_diagnostic_rows_skipped(self):
        rows = [
            k_row("proposed", 6, 25.0, 1.2),
            ExperimentRow("K", 6, "optimal", None, None, None, None, None, 50, 1),
        ]
        assert fig3_trend_failures(rows) == []


class TestFig4TrendChecker:
    @staticmethod
    def curve(values):
        """Analytic rows over altitudes 30..150 step 10."""
        alts = [30.0 + 10.0 * i for i in range(len(values))]
        return [
            alt_row("equal_bandwidth_analytic", a, pa=p)
            for a, p in zip(alts, values)
        ]

    def test_interior_minimum_passes(self):
        rows = self.curve([0.9, 0.7, 0.5, 0.3, 0.25, 0.22, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95])
        assert fig4_trend_failures(rows) == []

    def test_boundary_minimum_fails(self):
        rows = self.curve([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05])
        failures = fig4_trend_failures(rows)
        assert len(failures) == 1 and "boundary" in failures[0]

    def test_tied_minimum_fails(self):
        rows = self.curve([1.0] * 13)
        failures = fig4_trend_failures(rows)
        assert len(failures) == 1 and "unique" in failures[0]

    def test_minimum_outside_window_fails(self):
        rows = self.curve([0.9, 0.2, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.92, 0.94, 0.95])
        failures = fig4_trend_failures(rows)
        assert len(failures) == 1 and "outside [70, 110]" in failures[0]

    def test_three_sigma_miss_detected(self):
        rows = [
            alt_row("equal_bandwidth_analytic", 90.0, pa=0.5),
            alt_row("equal_bandwidth@v10", 90.0, pe=0.9),
        ]
        failures = fig4_trend_failures(rows)
        assert len(failures) == 1 and "misses analytic" in failures[0]

    def test_three_sigma_hit_passes(self):
        rows = [
            alt_row("equal_bandwidth_analytic", 90.0, pa=0.5),
            alt_row("equal_bandwidth@v10", 90.0, pe=0.52),
        ]
        assert fig4_trend_failures(rows) == []

    def test_velocity_dependent_equal_bandwidth_fails(self):
        rows = [
            alt_row("equal_bandwidth@v10", 90.0, pe=0.40),
            alt_row("equal_bandwidth@v20", 90.0, pe=0.45),
        ]
        failures = fig4_trend_failures(rows)
        assert len(failures) == 1 and "varies with" in failures[0]

    def test_shrinking_velocity_gap_fails(self):
        rows = [
            alt_row("proposed@v10", 90.0, pe=0.30),
            alt_row("conventional@v10", 90.0, pe=0.50),
            alt_row("proposed@v20", 90.0, pe=0.30),
            alt_row("conventional@v20", 90.0, pe=0.35),
        ]
        failures = fig4_trend_failures(rows)
        assert len(failures) == 1 and "gap" in failures[0]

    def test_widening_velocity_gap_passes(self):
        rows = [
            alt_row("proposed@v10", 90.0, pe=0.30),
            alt_row("conventional@v10", 90.0, pe=0.35),
            alt_row("proposed@v20", 90.0, pe=0.30),
            alt_row("conventional@v20", 90.0, pe=0.50),
        ]
        assert fig4_trend_failures(rows) == []

    def test_gap_checked_at_altitude_nearest_90(self):
        rows = [
            alt_row("proposed@v10", 60.0, pe=0.30),
            alt_row("conventional@v10", 60.0, pe=0.50),
            alt_row("proposed@v20", 60.0, pe=0.30),
            alt_row("conventional@v20", 60.0, pe=0.35),
            alt_row("proposed@v10", 100.0, pe=0.10),
            alt_row("conventional@v10", 100.0, pe=0.15),
            alt_row("proposed@v20", 100.0, pe=0.10),
            alt_row("conventional@v20", 100.0, pe=0.30),
        ]
        # 100 m is closer to 90 m than 60 m is; its gap widens, so no failure
        # even though the 60 m gap shrinks.
        assert fig4_trend_failures(rows) == []


class TestLoggingEnv:
    def test_log_level_env_var_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("EHUAV_LOG", "DEBUG")
        assert main(["validate", TABLE1]) == EXIT_OK
        capsys.readouterr()

    def test_bogus_log_level_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("EHUAV_LOG", "NOISY")
        assert main(["validate", TABLE1]) == EXIT_OK
        capsys.readouterr()


# sha256 of the committed results/fig3.csv and results/fig4.csv.  The
# figure scripts rewrite results/, so the hashes are pinned here instead of
# being read from there.
FIG3_SHA256 = "561bd236d5d3a61951d113fa90764c8eaee3a46d051016616c59e3f0949084a8"
FIG4_SHA256 = "5d540fd110a6cc1405a8b22c55d52505c5187bae27b2a0cd40d85362d0a421fb"


class TestDeliverables:
    """The two sweep CSVs on the shipped scenario, byte for byte."""

    def test_fig3_reproduces_the_committed_csv(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        assert main(["fig3", TABLE1, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert sha256(out) == FIG3_SHA256

    def test_fig4_reproduces_the_committed_csv(self, tmp_path, capsys):
        # Exit 4 on the known gap alone: the analytic minimum sits on the
        # sweep boundary (see README, "Known gaps").
        out = tmp_path / "fig4.csv"
        assert main(["fig4", TABLE1, "--out", str(out)]) == EXIT_TREND
        assert capsys.readouterr().err == (
            "error: trend assertion failed:\n"
            "analytic equal-bandwidth minimum sits on the sweep boundary at 150 m\n"
        )
        assert sha256(out) == FIG4_SHA256
