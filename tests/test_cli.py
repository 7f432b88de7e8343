"""CLI subcommands driven in-process: exit codes, stdout contracts, determinism."""

import hashlib
import re
import warnings
from unittest import mock

import pytest
import yaml

from ehuav.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_TREND, main
from ehuav.experiments import (
    CSV_HEADER,
    ExperimentRow,
    fig3_trend_failures,
    fig4_trend_failures,
)
from ehuav.outage import MC_TRIALS_MAX

TABLE1 = "configs/table1.yaml"

NETWORK = {
    "K": 2,
    "N_c": 4,
    "N_r": 4,
    "N_s": 10,
    "f_c": 2.4e9,
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


def table1_with(tmp_path, section: str = "network", **values) -> str:
    """A copy of the shipped scenario with some values of one section replaced."""
    with open(TABLE1, encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    data[section].update(values)
    path = tmp_path / "table1.yaml"
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
        assert "B=" not in out
        assert "tau=0.192935949031" in out
        for column in ("pl_h_db", "pl_g_db", "lam", "mu", "rho"):
            assert column in out
        row = (
            "  0    16.667    83.333    20.00    55.474    76.292"
            "  2.83545e-06  2.34868e-08  1.75832e+12"
        )
        assert row in out.splitlines()
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

    def test_unreachable_rate_requirement_is_a_config_error(self, tmp_path, capsys):
        # R_a = 1e16 used to pass and round the equal split to tau = 0 (exit 3).
        path = config_file(tmp_path, network={"R_a": 1.0e16})
        assert main(["validate", path]) == EXIT_CONFIG
        message = "network.R_a: must be < 1024 (no finite rate reaches 1024 bit/s/Hz), got 1e+16"
        assert message in capsys.readouterr().err
        assert main(["validate", config_file(tmp_path, network={"R_a": 1000.0})]) == EXIT_OK

    @pytest.mark.parametrize(
        "key, values, message",
        [
            ("k_values", [3, 3], "must not repeat a value, got [3, 3]"),
            ("altitudes", [90.0, 90.0], "must not repeat a value, got [90.0, 90.0]"),
            (
                "velocities",
                [10, 10.0000001, 20],
                "must differ in their first 6 significant digits (the fig4 row labels), "
                "got [10, 10.0000001, 20]",
            ),
        ],
    )
    def test_repeated_sweep_values_are_config_errors(self, tmp_path, capsys, key, values, message):
        # A repeated value would write two rows under one sweep value and
        # label, and the trend checks would read only the last of them.
        path = config_file(tmp_path, experiment={key: values})
        assert main(["validate", path]) == EXIT_CONFIG
        assert f"\n  experiment.{key}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("noise_power", 5.0e-324), ("p_c", 1.0e300)])
    def test_infinite_snr_scale_is_a_config_error(self, tmp_path, capsys, key, value):
        # rho = inf used to pass validate; allocate then refused every gain
        # with a message that named no config key.
        path = table1_with(tmp_path, **{key: value})
        for argv in (["validate", path], ["allocate", path, "--seed", "1"]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert re.fullmatch(
                r"error: zeta=0.7, p_c=\S+, N_s=10 and noise_power=\S+ give UAV 0 an SNR "
                r"scale zeta \* p_c / \(N_s \* noise_power\) past the double range\n",
                err,
            ), err

    def test_tiny_rate_target_validates(self, tmp_path, capsys):
        # 1 + q + w in the equal split rounded to 0 at R_a = 1e-18: a
        # ZeroDivisionError traceback, exit 1.  At 1e-40 the split itself
        # rounds to 1.
        assert main(["validate", table1_with(tmp_path, R_a=1.0e-18)]) == EXIT_OK
        assert "equal-bandwidth time split tau=0.999999998558\n" in capsys.readouterr().out
        assert main(["validate", table1_with(tmp_path, R_a=1.0e-40)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "error: numeric failure: equal-bandwidth time split left (0,1): 1.0\n"

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

    def test_nan_gain_is_refused_by_the_equal_split(self, capsys):
        # The split ignores the gains but checks them as every allocator does.
        rc = main(
            ["allocate", TABLE1, "--gamma", "nan", "1", "1", "1", "1", "1",
             "--algorithm", "equal_bandwidth"]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: all channel gains must be strictly positive and finite\n"
        )

    @pytest.mark.parametrize("gain", ["inf", "0", "-1"])
    @pytest.mark.parametrize("algorithm", ["equal_bandwidth", "proposed", "conventional"])
    def test_bad_gain_is_refused_by_every_allocator(self, capsys, gain, algorithm):
        rc = main(
            ["allocate", TABLE1, "--gamma", "1", "1", gain, "1", "1", "1",
             "--algorithm", algorithm]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: all channel gains must be strictly positive and finite\n"
        )

    def test_exhaustive_guard_maps_to_config_exit(self, capsys):
        rc = main(["allocate", TABLE1, "--seed", "1", "--algorithm", "optimal"])
        assert rc == EXIT_CONFIG
        assert "K <= 3" in capsys.readouterr().err

    def test_exhaustive_runs_for_small_k(self, tmp_path, capsys):
        path = config_file(tmp_path)
        rc = main(["allocate", path, "--gamma", "4", "9", "--algorithm", "optimal"])
        assert rc == EXIT_OK
        assert "min_rate_bpshz:" in capsys.readouterr().out

    def test_overflowing_grid_rates_print_no_warning(self, tmp_path, capsys):
        # tau * g / eff overflows on the grid, so its rates are inf: the
        # grid's defined result, with no numpy overflow warning on stderr.
        argv = ["allocate", table1_with(tmp_path, K=3), "--gamma", "1e308", "1e308", "1e308",
                "--algorithm", "optimal"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        assert rc == EXIT_OK
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "min_rate_bpshz: inf" in captured.out

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

    def test_zero_rate_at_a_tiny_tau_gives_zero_outage(self, capsys):
        # eff/tau overflows to inf there, and the zero threshold stays 0.0
        # instead of inf * 0 = NaN.
        rc = main(["outage", TABLE1, "--trials", "500", "--tau", "1e-310", "--rate", "0"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic_outage: 0\n" in out
        assert "empirical_outage: 0 " in out
        assert "verdict: PASS\n" in out

    def test_underflowing_data_share_is_certain_outage(self, capsys):
        # 5e-324 * (1 - 0.7) rounds to 0, so no positive rate fits that
        # UAV's share; this used to be a ZeroDivisionError traceback.
        rc = main(
            ["outage", TABLE1, "--tau", "0.7", "--beta", "5e-324"] + ["0.2"] * 5
            + ["--trials", "100"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "analytic_outage: 1\n" in out
        assert "empirical_outage: 1 " in out
        assert "verdict: PASS\n" in out

    @pytest.mark.parametrize(
        "values, scale",
        [
            # Every budget factor is positive (at f_c = 1e100 lam and mu are
            # about 5e-188, rho 1.76e12), but rho * lam * mu underflows to 0,
            # and so does every sampled gain.
            ({"f_c": 1.0e100}, "0"),
            ({"d_hat": 1.0e300}, "0"),
            ({"A_hat": 1.0e300}, "0"),
            # A subnormal scale: with unit shapes, draws round to 0.
            ({"p_c": 5.0e-324, "m_h": 1, "m_g": 1, "N_c": 1, "N_r": 1}, r"[0-9.]+e-3\d\d"),
        ],
    )
    def test_gain_scale_past_the_normal_range_is_a_config_error(
        self, tmp_path, capsys, values, scale
    ):
        # validate and outage exited 0 on these configs, while allocate
        # refused every gain with a message that named no config key.
        path = table1_with(tmp_path, **values)
        csv = str(tmp_path / "out.csv")
        for argv in (
            ["validate", path],
            ["allocate", path, "--seed", "1"],
            ["outage", path, "--trials", "100"],
            ["fig3", path, "--out", csv],
            ["fig4", path, "--out", csv],
        ):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: "), err
            assert re.search(
                rf"\n  network: UAV 0's link budget lam=\S+, mu=\S+, rho\*lam\*mu={scale}: "
                r"each must be a normal, finite double \(>= 2\.22507e-308\), "
                r"or its channel gains round to 0 or inf\n",
                err,
            ), err

    @pytest.mark.parametrize(
        "network, experiment, message",
        [
            # fig4 aborted every allocator at 1e300 m and still exited 0.
            ({}, {"altitudes": [100, 1.0e300]}, r"experiment\.altitudes: at A_hat=1e\+300, "),
            # A subnormal gain scale at K = 7 only: the geometry depends on K.
            (
                {"p_c": 1.995262314971282e-308, "m_h": 1, "m_g": 1, "N_c": 1, "N_r": 1},
                {"altitudes": [120], "k_values": [6, 7]},
                r"experiment\.k_values: at K=7, ",
            ),
        ],
    )
    def test_sweep_point_past_the_normal_range_is_a_config_error(
        self, tmp_path, capsys, network, experiment, message
    ):
        with open(TABLE1, encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
        data["network"].update(network)
        data["experiment"].update(experiment, trials=20)
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        csv = str(tmp_path / "out.csv")
        for argv in (["validate", str(path)], ["fig3", str(path), "--out", csv],
                     ["fig4", str(path), "--out", csv]):
            assert main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: 1 problem(s)\n  "), err
            assert re.search(
                message + r"UAV \d+'s link budget lam=\S+, mu=\S+, rho\*lam\*mu=\S+: "
                r"each must be a normal, finite double",
                err,
            ), err
        assert not (tmp_path / "out.csv").exists()

    def test_overflowing_hop_gain_is_a_config_error(self, tmp_path, capsys):
        # At f_c = 1e-300 the path loss is about -6100 dB and 10^(-PL/10)
        # raised OverflowError, a traceback with exit 1: the mirror image of
        # f_c = 1e100 above.
        path = table1_with(tmp_path, f_c=1.0e-300)
        assert main(["validate", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: f_c=1e-300 gives UAV 0's energy hop a path loss of -[0-9.]+ dB, "
            r"whose gain 10\^\(-PL/10\) is past the double range\n",
            err,
        ), err

    def test_sigmoid_exponent_past_the_exp_range_validates(self, tmp_path, capsys):
        # environment.a = 1e8 put exp(-b (theta - a)) past the double range,
        # an OverflowError traceback with exit 1; the excess term now takes
        # its limit 0, pure NLoS.
        path = table1_with(tmp_path, "environment", a=1.0e8)
        assert main(["validate", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_small_rate_target_keeps_the_analytic_digits(self, capsys):
        # mpmath gives 5.90478183601086e-106; the subtraction 2^e - 1 in the
        # thresholds gives 5.90478281289e-106.
        rc = main(["outage", TABLE1, "--trials", "500", "--rate", "1e-9"])
        assert rc == EXIT_OK
        assert "analytic_outage: 5.90478183601e-106\n" in capsys.readouterr().out

    def test_threads_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["outage", TABLE1, "--trials", "500", "--threads", "2"])
        assert exit_info.value.code == 2  # argparse's usage error
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_rate_must_be_finite_and_non_negative(self, value, capsys):
        assert main(["outage", TABLE1, "--trials", "500", f"--rate={value}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: --rate must be a finite number >= 0, got {float(value)}\n"

    def test_negative_seed_is_a_config_error(self, capsys):
        assert main(["outage", TABLE1, "--trials", "500", "--seed", "-3"]) == EXIT_CONFIG
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err

    def test_trials_above_the_bound_are_refused_before_sampling(self, capsys):
        trials = str(MC_TRIALS_MAX + 1)
        with mock.patch("numpy.random.default_rng") as sample:
            assert main(["outage", TABLE1, "--trials", trials]) == EXIT_CONFIG
        sample.assert_not_called()
        assert capsys.readouterr().err == (
            f"error: trials must lie in [1, {MC_TRIALS_MAX}], got {trials}\n"
        )

    def test_beta_sum_validated(self, capsys):
        rc = main(["outage", TABLE1, "--beta"] + ["0.3"] * 6)
        assert rc == EXIT_CONFIG
        assert "sum to 1" in capsys.readouterr().err

    def test_beta_sum_past_the_double_range_is_a_config_error(self, capsys):
        beta = ["1e308", "1e308"] + ["0.2"] * 4
        rc = main(["outage", TABLE1, "--tau", "0.5", "--beta", *beta, "--trials", "10"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: beta must sum to 1 within 1e-12, got sum inf\n"

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


class TestSizeBounds:
    @pytest.mark.parametrize(
        "command, network, experiment, path",
        [
            # Unbounded, the channel sampler would ask for 14.6 TiB.
            ("fig3", {}, {"trials": 1_000_000_000_000}, "experiment.trials"),
            # Unbounded, the scalar broadcast would build three 8 GB tuples.
            ("validate", {"K": 1_000_000_000}, None, "network.K"),
            # Unbounded, the first sweep point would ask for 2.98 GiB.
            ("fig3", {}, {"k_values": [2_000_000]}, "experiment.k_values"),
        ],
    )
    def test_oversized_configs_are_config_errors(
        self, tmp_path, capsys, command, network, experiment, path
    ):
        config = config_file(tmp_path, network=network, experiment=experiment)
        argv = [command, config] + (["--out", str(tmp_path / "out.csv")] if command == "fig3" else [])
        assert main(argv) == EXIT_CONFIG
        assert f"\n  {path}: must be " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


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
            ExperimentRow(sweep_param="K", sweep_value=6, algorithm="optimal", trials=50, seed=1),
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


# sha256 of the committed results/fig3.csv and results/fig4.csv.  The
# figure scripts rewrite results/, so the hashes are pinned here instead of
# being read from there.
FIG3_SHA256 = "561bd236d5d3a61951d113fa90764c8eaee3a46d051016616c59e3f0949084a8"
FIG4_SHA256 = "5d540fd110a6cc1405a8b22c55d52505c5187bae27b2a0cd40d85362d0a421fb"
# sha256 of ``ehuav fig4`` on the shipped scenario with ``trials: 30``.
FIG4_TRIALS30_SHA256 = "1b4d51690e183068b245cfc4d503e70171f57aabf769b9658223bf851e5df0ca"
# sha256 of the committed results/fig4_r05.csv, ``ehuav fig4`` on
# configs/fig4_r05.yaml (the shipped scenario at R_a = 0.5).
FIG4_R05_SHA256 = "3e4689118fecde4ac190f0935bfadfa7863ffb1596134873f9b615bb7ecfe3a5"


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

    def test_fig4_at_30_trials_reproduces_its_pin(self, tmp_path, capsys):
        config = table1_with(tmp_path, "experiment", trials=30)
        out = tmp_path / "fig4.csv"
        assert main(["fig4", config, "--out", str(out)]) == EXIT_TREND
        assert capsys.readouterr().err == (
            "error: trend assertion failed:\n"
            "analytic equal-bandwidth minimum sits on the sweep boundary at 150 m\n"
        )
        assert sha256(out) == FIG4_TRIALS30_SHA256

    def test_fig4_at_half_the_rate_reproduces_the_committed_csv(self, tmp_path, capsys):
        # At R_a = 0.5 most empirical outages from 50 m up lie below 1; the
        # analytic minimum still sits on the sweep boundary.
        out = tmp_path / "fig4_r05.csv"
        assert main(["fig4", "configs/fig4_r05.yaml", "--out", str(out)]) == EXIT_TREND
        assert capsys.readouterr().err == (
            "error: trend assertion failed:\n"
            "analytic equal-bandwidth minimum sits on the sweep boundary at 150 m\n"
        )
        assert sha256(out) == FIG4_R05_SHA256


# sha256 of the stdout of each command below on the shipped scenario (or, for
# ``optimal``, on a K=3 copy of it: the grid serves K <= 3 only).  Each
# command exits 0 with nothing on stderr.
TEXT_SHA256 = {
    "validate": "aebd4cc142c53c1e4e2fa16650707a7b78c617882366cfeadc9c51a6ae539ff1",
    "allocate proposed": "922091648a907d6f34be0a170d975534dda77655e9eec1b15c830a3faf11678b",
    "allocate conventional": "a3f0cfd0c8f171cf02b094a3b7f7bc67e822952b96381484c9e5ef97a4118b6e",
    "allocate equal_bandwidth": "8a2df5151f755494e05014797805ec28ed0a506495d11c612edde07746cd6117",
    "allocate optimal K=3": "c7d236ce916ff88c9d15666f60026de1613364372132e88b2cdbe7164c4202c8",
    "allocate --gamma": "2a2ea38738470170bab41509aecbb339a620b83db126fc09abf0a3f2044de82e",
    "outage": "a8a1f25b12bfa31142f63de21b17ecb1a77c4a6226ec6dbe9a78460aba14685c",
}


class TestTextOutput:
    """The printed output of validate, allocate and outage, byte for byte."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("validate", ["validate", TABLE1]),
            ("allocate proposed", ["allocate", TABLE1, "--seed", "7", "--algorithm", "proposed"]),
            (
                "allocate conventional",
                ["allocate", TABLE1, "--seed", "7", "--algorithm", "conventional"],
            ),
            (
                "allocate equal_bandwidth",
                ["allocate", TABLE1, "--seed", "7", "--algorithm", "equal_bandwidth"],
            ),
            ("allocate optimal K=3", ["allocate", None, "--seed", "7", "--algorithm", "optimal"]),
            (
                "allocate --gamma",
                ["allocate", TABLE1, "--gamma", "15", "107", "212", "157", "38", "52",
                 "--algorithm", "conventional"],
            ),
            ("outage", ["outage", TABLE1, "--trials", "20000", "--rate", "0.5"]),
        ],
    )
    def test_stdout_is_pinned(self, name, argv, tmp_path, capsys):
        argv = [arg if arg is not None else table1_with(tmp_path, K=3) for arg in argv]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        digest = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        assert digest == TEXT_SHA256[name], captured.out


# The input domain: each network, environment and timing scalar of the
# shipped scenario is set in turn to each of these values.
DOMAIN_FIELDS = [
    *(("network", name) for name in NETWORK),
    *(("environment", name) for name in ENVIRONMENT),
    ("timing", "t_op"),
]
DOMAIN_VALUES = [0, 5e-324, 1e-300, 1e-30, 1e-8, 0.5, 1, 2, 170, 1e8, 1e30, 1e300, -1]


class TestInputDomain:
    """Whatever ``validate`` accepts, ``allocate`` and ``outage`` end with a
    documented exit code, and nothing ends in a traceback."""

    def test_one_field_mutations_end_with_a_documented_code(self, tmp_path, capsys):
        assert len(DOMAIN_FIELDS) == 20
        with open(TABLE1, encoding="utf-8") as handle:
            scenario = yaml.safe_load(handle)
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
        path = str(tmp_path / "table1.yaml")
        violations = []
        runs = 0

        def run(argv, case):
            nonlocal runs
            runs += 1
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback: exit 1
                violations.append((*case, argv[0], repr(exc)))
                return None
            if rc not in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC):
                violations.append((*case, argv[0], rc))
            return rc

        for section, field in DOMAIN_FIELDS:
            for value in DOMAIN_VALUES:
                case = (f"{section}.{field}", value)
                data = {**scenario, section: {**scenario[section], field: value}}
                with open(path, "w", encoding="utf-8") as handle:
                    yaml.dump(data, handle, Dumper=dumper)
                if run(["validate", path], case) != EXIT_OK:
                    continue
                later = [
                    *(["allocate", path, "--seed", "1", "--algorithm", algorithm]
                      for algorithm in ("proposed", "conventional", "equal_bandwidth")),
                    ["outage", path, "--trials", "2000"],
                ]
                for argv in later:
                    if run(argv, case) == EXIT_CONFIG:
                        violations.append((*case, " ".join(argv[2:]), EXIT_CONFIG))
        capsys.readouterr()
        assert violations == []
        # 260 configs, 125 of them valid: four more runs each.
        assert runs == 760
