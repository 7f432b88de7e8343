"""Config-file loading: happy path, defaults, and exhaustive error listing."""

import math
import re
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
import yaml

from ehuav import configio
from ehuav.channel import (
    ENVIRONMENT_RULES,
    NETWORK_RULES,
    PER_UAV,
    EnvironmentParams,
    NetworkConfig,
    violations,
)
from ehuav.configio import load_config
from ehuav.errors import ConfigError
from ehuav.experiments import DEFAULT_T_OP, EXPERIMENT_RULES, ExperimentSpec

ROOT = Path(__file__).resolve().parent.parent
# The pure-Python parser, and libyaml's where PyYAML was built with it.
LOADERS = (yaml.SafeLoader, *([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else []))

BASE = {
    "network": {
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
    },
    "environment": {"a": 9.61, "b": 0.16, "eta_los": 1.0, "eta_nlos": 20.0},
}


def deep_merge(base: dict, patch: dict) -> dict:
    out = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, value in patch.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key].update(value)
        else:
            out[key] = value
    return out


def dump(tmp_path, data, name="cfg.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


class TestShippedDefaults:
    def test_table1_loads_with_exact_values(self):
        loaded = load_config("configs/table1.yaml")
        net = loaded.network
        assert net.K == 6
        assert net.N_c == 4 and net.N_r == 4 and net.N_s == 10
        assert net.f_c == 2.4e9
        assert net.noise_power == 10.0**-14.4
        assert net.zeta == 0.7
        assert net.p_c == (0.1,) * 6
        assert net.m_h == (3,) * 6 and net.m_g == (3,) * 6
        assert net.d_hat == 100.0 and net.A_hat == 120.0 and net.V_hat == 20.0
        assert net.R_a == 1.0 and net.epsilon == 1.0e-4
        assert (net.env.a, net.env.b) == (9.61, 0.16)
        assert (net.env.eta_los, net.env.eta_nlos) == (1.0, 20.0)

    def test_table1_experiment_knobs(self):
        loaded = load_config("configs/table1.yaml")
        assert loaded.t_op == 2.5e-7
        assert loaded.trials == 200
        assert loaded.seed == 2024
        assert loaded.k_values == tuple(range(2, 11))
        assert loaded.altitudes == tuple(float(a) for a in range(30, 151, 10))
        assert loaded.velocities == (10.0, 20.0, 40.0)
        assert loaded.algorithms == ("proposed", "conventional", "equal_bandwidth")


class TestHappyPath:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        loaded = load_config(dump(tmp_path, BASE))
        assert loaded.network.K == 2
        defaults = {f.name: f.default for f in fields(ExperimentSpec) if f.name != "network"}
        assert {name: getattr(loaded, name) for name in defaults} == defaults
        assert defaults == {
            "t_op": 2.5e-7,
            "trials": 200,
            "seed": 2024,
            "k_values": tuple(range(2, 11)),
            "altitudes": tuple(float(a) for a in range(30, 151, 10)),
            "velocities": (10.0, 20.0, 40.0),
            "algorithms": ("proposed", "conventional", "equal_bandwidth"),
        }

    def test_minimal_config_is_the_default_spec(self, tmp_path):
        loaded = load_config(dump(tmp_path, BASE))
        assert loaded == ExperimentSpec(network=loaded.network)

    def test_scalar_per_uav_fields_broadcast(self, tmp_path):
        loaded = load_config(dump(tmp_path, BASE))
        assert loaded.network.p_c == (0.1, 0.1)
        assert loaded.network.m_h == (3, 3)

    def test_per_uav_lists_pass_through(self, tmp_path):
        data = deep_merge(
            BASE, {"network": {"p_c": [0.1, 0.2], "m_h": [3, 4], "m_g": [2, 3]}}
        )
        net = load_config(dump(tmp_path, data)).network
        assert net.p_c == (0.1, 0.2)
        assert net.m_h == (3, 4)
        assert net.m_g == (2, 3)

    def test_experiment_section_overrides(self, tmp_path):
        data = deep_merge(
            BASE,
            {
                "timing": {"t_op": 1.0e-6},
                "experiment": {
                    "trials": 50,
                    "seed": 7,
                    "k_values": [2, 4],
                    "altitudes": [60, 90],
                    "velocities": [20],
                    "algorithms": ["proposed"],
                },
            },
        )
        loaded = load_config(dump(tmp_path, data))
        assert loaded.t_op == 1.0e-6
        assert loaded.trials == 50 and loaded.seed == 7
        assert loaded.k_values == (2, 4)
        assert loaded.altitudes == (60.0, 90.0)
        assert loaded.velocities == (20.0,)
        assert loaded.algorithms == ("proposed",)

    def test_noise_power_survives_round_trip_exactly(self, tmp_path):
        # 12 significant digits are not enough for 10**-14.4; the shipped
        # file spells out the full double so analytic outage values match
        # the library bit-for-bit.
        loaded = load_config(dump(tmp_path, BASE))
        assert loaded.network.noise_power == 10.0**-14.4
        assert math.isclose(
            10.0 * math.log10(loaded.network.noise_power / 1e-3), -114.0
        )


class TestErrorListing:
    def test_all_violations_reported_together(self, tmp_path):
        data = deep_merge(
            BASE, {"network": {"zeta": 1.5, "m_h": 2.5, "bogus": 1}}
        )
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, data))
        message = str(err.value)
        assert "3 problem(s)" in message
        assert "network.zeta" in message and "(0,1]" in message
        assert "network.m_h" in message and "integer" in message
        assert "network.bogus" in message and "unknown key" in message

    def test_bandwidth_and_light_speed_are_unknown_keys(self, tmp_path):
        # The rates are per hertz, so the bandwidth cancels, and c is the
        # constant channel.C_LIGHT: neither is a scenario setting.
        data = deep_merge(BASE, {"network": {"B": 1.0e6, "c_light": 3.0e8}})
        with pytest.raises(ConfigError) as err:
            load_config(dump(tmp_path, data))
        message = str(err.value)
        assert "2 problem(s)" in message
        assert "\n  network.B: unknown key" in message
        assert "\n  network.c_light: unknown key" in message

    def test_zeta_bound_named(self, tmp_path):
        data = deep_merge(BASE, {"network": {"zeta": 1.5}})
        with pytest.raises(ConfigError, match=r"must lie in \(0,1\], got 1.5"):
            load_config(dump(tmp_path, data))

    def test_fractional_nakagami_parameter_rejected(self, tmp_path):
        data = deep_merge(BASE, {"network": {"m_h": 2.5}})
        with pytest.raises(ConfigError, match="Nakagami parameter must be integer"):
            load_config(dump(tmp_path, data))

    def test_missing_network_section(self, tmp_path):
        with pytest.raises(ConfigError, match="network: section is required"):
            load_config(dump(tmp_path, {"environment": BASE["environment"]}))

    def test_non_mapping_section(self, tmp_path):
        data = dict(BASE, environment=[1, 2, 3])
        with pytest.raises(ConfigError, match="environment: section is required"):
            load_config(dump(tmp_path, data))

    def test_unknown_top_level_section(self, tmp_path):
        data = dict(BASE, extras={"x": 1})
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(dump(tmp_path, data))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "nope.yaml"))

    @pytest.mark.parametrize("loader", LOADERS)
    def test_invalid_yaml_reports_position(self, tmp_path, loader):
        path = tmp_path / "broken.yaml"
        path.write_text("network: {K: 2\n", encoding="utf-8")
        with mock.patch.object(configio, "_LOADER", loader), pytest.raises(
            ConfigError, match=r"(?s)invalid YAML.*line \d+, column \d+"
        ):
            load_config(str(path))

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.yaml")), ids=str)
    def test_both_loaders_give_the_same_document(self, path):
        # load_config parses with libyaml where PyYAML has it.
        text = path.read_text(encoding="utf-8")
        documents = [yaml.load(text, Loader=loader) for loader in LOADERS]
        assert documents[0] == documents[-1]

    def test_string_where_number_expected(self, tmp_path):
        # The classic pitfall: "2.4e9" without a signed exponent is a string
        # in YAML 1.1, so it must be rejected loudly, not coerced.
        data = deep_merge(BASE, {"network": {"f_c": "2.4e9"}})
        with pytest.raises(ConfigError, match=r"network\.f_c.*must be a number"):
            load_config(dump(tmp_path, data))

    def test_per_uav_list_length_mismatch(self, tmp_path):
        data = deep_merge(BASE, {"network": {"p_c": [0.1, 0.2, 0.3]}})
        with pytest.raises(ConfigError, match=r"network\.p_c"):
            load_config(dump(tmp_path, data))

    def test_negative_power_rejected(self, tmp_path):
        data = deep_merge(BASE, {"network": {"p_c": [-0.1, 0.2]}})
        with pytest.raises(ConfigError, match=r"network\.p_c"):
            load_config(dump(tmp_path, data))

    def test_unknown_algorithm_rejected(self, tmp_path):
        data = deep_merge(BASE, {"experiment": {"algorithms": ["magic"]}})
        with pytest.raises(ConfigError, match=r"experiment\.algorithms"):
            load_config(dump(tmp_path, data))

    def test_zero_trials_rejected(self, tmp_path):
        data = deep_merge(BASE, {"experiment": {"trials": 0}})
        with pytest.raises(ConfigError, match=r"experiment\.trials"):
            load_config(dump(tmp_path, data))

    def test_epsilon_below_floor_rejected(self, tmp_path):
        data = deep_merge(BASE, {"network": {"epsilon": 1.0e-16}})
        with pytest.raises(
            ConfigError, match=r"network\.epsilon: must lie in \[1e-12, 0.5\), got 1e-16"
        ):
            load_config(dump(tmp_path, data))

    def test_epsilon_above_half_rejected(self, tmp_path):
        # Every allocator requires epsilon < 0.5; the loader says so up front.
        data = deep_merge(BASE, {"network": {"epsilon": 0.7}})
        with pytest.raises(
            ConfigError, match=r"network\.epsilon: must lie in \[1e-12, 0.5\), got 0.7"
        ):
            load_config(dump(tmp_path, data))

    def test_negative_t_op_rejected(self, tmp_path):
        data = deep_merge(BASE, {"timing": {"t_op": -1.0e-7}})
        with pytest.raises(ConfigError, match=r"timing\.t_op"):
            load_config(dump(tmp_path, data))

    def test_boolean_is_not_a_number(self, tmp_path):
        data = deep_merge(BASE, {"network": {"zeta": True}})
        with pytest.raises(ConfigError, match=r"network\.zeta.*must be a number"):
            load_config(dump(tmp_path, data))

    def test_source_path_prefixes_the_message(self, tmp_path):
        data = deep_merge(BASE, {"network": {"zeta": 0.0}})
        path = dump(tmp_path, data, name="scenario.yaml")
        with pytest.raises(ConfigError, match="scenario.yaml"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key, value, f_c",
        [
            ("network", "V_hat", 1.0e300, 2.4e9),
            ("experiment", "velocities", [10, 1.0e300], 2.4e9),
            ("network", "V_hat", 1.0e-200, 1.0e-200),
            ("experiment", "velocities", [10, 1.0e-200], 1.0e-200),
        ],
    )
    def test_velocity_without_a_block_time_rejected(self, tmp_path, section, key, value, f_c):
        # velocity * f_c overflows, so the block time c / (velocity * f_c)
        # was 0.0, and fig4 failed after allocating, with no config path; or
        # it underflows to 0.0, and the division must not be tried.
        data = deep_merge(deep_merge(BASE, {"network": {"f_c": f_c}}), {section: {key: value}})
        message = r"must (each )?give a positive finite block time"
        with pytest.raises(ConfigError, match=rf"\n  {section}\.{key}: {message}"):
            load_config(dump(tmp_path, data))

    def test_shape_above_gamma_int_range_rejected(self, tmp_path):
        # m_g * N_r = 3 * 60 = 180: the closed-form CDF needs Gamma(180),
        # beyond a double, so the file is refused before any subcommand runs.
        data = deep_merge(BASE, {"network": {"N_r": 60}})
        with pytest.raises(ConfigError, match=r"network\.N_r: must satisfy m_g \* N_r <= 170"):
            load_config(dump(tmp_path, data))


# One rule table feeds both the dataclasses and the loader.  For every rule,
# a value of its field that breaks it first must give the same message
# through both: ``<field> <message>`` from the dataclass and
# ``<section>.<field>: <message>`` from load_config.
SCALAR_CANDIDATES = (0, -1.0, 2.5, 1.5, 0.7, 60, 1.0e300)
LIST_CANDIDATES = ((), (0.1,), (-1.0, -1.0), (10, 10.0000001), (2, 2), (2.5, 2.5), (1.0e300,))


def first_breaking(rules, values, rule):
    """``values`` with the rule's field set to a candidate that breaks the rule
    before any other, and the rule's message there."""
    field, test, message = rule
    kind = type(values[field])  # a list candidate takes the kind of the good value
    listed = kind in (tuple, list)
    for bad in LIST_CANDIDATES if listed else SCALAR_CANDIDATES:
        trial = {**values, field: kind(bad) if listed else bad}
        found = violations(rules, trial)
        if not test(trial) and found[0] == (field, message.format(**trial)):
            return trial, found[0][1]
    pytest.fail(f"no candidate breaks {field!r} ({message}) first; add one")


def as_yaml(value):
    return list(value) if isinstance(value, tuple) else value


NETWORK_VALUES = {**BASE["network"], **{key: (BASE["network"][key],) * 2 for key in PER_UAV}}


def rule_cases():
    """One case per rule, named ``<section>.<field>#<n>`` with n the rule's
    ordinal among its field's rules, so adding a rule renames no case of
    another field."""
    for section, rules in (("network", NETWORK_RULES), ("environment", ENVIRONMENT_RULES)):
        seen = {}
        for rule in rules:
            seen[rule[0]] = seen.get(rule[0], 0) + 1
            yield pytest.param(section, rule, id=f"{section}.{rule[0]}#{seen[rule[0]]}")


@pytest.mark.parametrize("section, rule", list(rule_cases()))
def test_dataclass_and_loader_report_each_rule_alike(tmp_path, section, rule):
    values = NETWORK_VALUES if section == "network" else BASE["environment"]
    rules = NETWORK_RULES if section == "network" else ENVIRONMENT_RULES
    trial, message = first_breaking(rules, values, rule)
    assert_both_paths_report(tmp_path, section, trial, rule[0], message)


def assert_both_paths_report(tmp_path, section, trial, field, message):
    """``<field> <message>`` from the dataclass built from ``trial`` and
    ``<section>.<field>: <message>`` from load_config on the same value."""
    if section == "network":
        env = EnvironmentParams(**BASE["environment"])
        build, kwargs = NetworkConfig, {**trial, "env": env}
    else:
        build, kwargs = EnvironmentParams, trial
    with pytest.raises(ConfigError) as direct:
        build(**kwargs)
    assert str(direct.value) == f"{field} {message}"
    data = deep_merge(BASE, {section: {field: as_yaml(trial[field])}})
    with pytest.raises(ConfigError) as loaded:
        load_config(dump(tmp_path, data))
    assert f"\n  {section}.{field}: {message}\n" in f"{loaded.value}\n"


@pytest.mark.parametrize(
    "section, field",
    [
        *(("network", field) for field in (
            "f_c", "noise_power", "d_hat", "A_hat", "V_hat", "R_a", "p_c"
        )),
        ("environment", "a"),
        ("environment", "b"),
    ],
)
def test_infinite_values_are_refused_alike(tmp_path, section, field):
    # inf passed every "> 0" bound and failed later as a NaN time split.
    values = NETWORK_VALUES if section == "network" else BASE["environment"]
    good = values[field]
    trial = {**values, field: (math.inf,) * len(good) if isinstance(good, tuple) else math.inf}
    rules = NETWORK_RULES if section == "network" else ENVIRONMENT_RULES
    (found_field, message), *_ = violations(rules, trial)
    assert found_field == field
    assert message.startswith(("must be finite and > 0, got ", "entries must be finite and > 0"))
    assert_both_paths_report(tmp_path, section, trial, field, message)


@pytest.mark.parametrize(
    "section, key, value, path",
    [
        ("environment", "eta_nlos", math.inf, "environment.eta_los"),
        ("timing", "t_op", math.inf, "timing.t_op"),
        ("experiment", "altitudes", [90.0, math.inf], "experiment.altitudes"),
        ("experiment", "velocities", [math.inf], "experiment.velocities"),
    ],
)
def test_other_infinite_values_are_refused_with_their_path(tmp_path, section, key, value, path):
    # These passed and failed later without a path: a NaN path gain, a NaN
    # overhead share, or an A_hat message for an altitude.
    data = deep_merge(BASE, {section: {key: value}})
    with pytest.raises(ConfigError, match=rf"\n  {re.escape(path)}: must .*finite"):
        load_config(dump(tmp_path, data))


EXPERIMENT_VALUES = {
    "t_op": DEFAULT_T_OP,
    "trials": 3,
    "seed": 1,
    "k_values": [2],
    "altitudes": [90.0],
    "velocities": [20.0],
    "algorithms": ["proposed"],
}


# What the velocity rule reads of the network.
LINK_VALUES = {"f_c": BASE["network"]["f_c"]}


@pytest.mark.parametrize("rule", EXPERIMENT_RULES, ids=lambda rule: rule[0])
def test_experiment_spec_and_loader_report_each_rule_alike(tmp_path, rule):
    trial, message = first_breaking(EXPERIMENT_RULES, {**EXPERIMENT_VALUES, **LINK_VALUES}, rule)
    settings = {key: trial[key] for key in EXPERIMENT_VALUES}
    with pytest.raises(ConfigError) as direct:
        ExperimentSpec(network=load_config(dump(tmp_path, BASE)).network, **settings)
    field = rule[0]
    assert str(direct.value) == f"{field} {message}"
    section = "timing" if field == "t_op" else "experiment"
    data = deep_merge(BASE, {section: {field: trial[field]}})
    with pytest.raises(ConfigError) as loaded:
        load_config(dump(tmp_path, data))
    assert f"\n  {section}.{field}: {message}\n" in f"{loaded.value}\n"
