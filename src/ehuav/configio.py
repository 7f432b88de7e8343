"""Strict YAML scenario files for the CLI.

One document, four sections — ``network``, ``environment``, ``timing``,
``experiment`` — mirroring :class:`~ehuav.channel.NetworkConfig`,
:class:`~ehuav.channel.EnvironmentParams`, the per-operation signalling
cost, and the sweep settings.  Unknown keys anywhere are rejected, the
per-UAV vectors accept a scalar that broadcasts to every UAV, and *all*
violated bounds are reported at once, each prefixed with its dotted key
path.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .channel import EnvironmentParams, NetworkConfig, epsilon_range_error
from .errors import ConfigError
from .experiments import ALGORITHMS, DEFAULT_T_OP

_NETWORK_KEYS = (
    "K",
    "N_c",
    "N_r",
    "N_s",
    "B",
    "f_c",
    "c_light",
    "noise_power",
    "zeta",
    "p_c",
    "m_h",
    "m_g",
    "d_hat",
    "A_hat",
    "V_hat",
    "R_a",
    "epsilon",
)
_ENVIRONMENT_KEYS = ("a", "b", "eta_los", "eta_nlos")
_TIMING_KEYS = ("t_op",)
_EXPERIMENT_KEYS = (
    "trials",
    "seed",
    "k_values",
    "altitudes",
    "velocities",
    "algorithms",
)

DEFAULT_TRIALS = 200
DEFAULT_SEED = 2024
DEFAULT_K_VALUES = tuple(range(2, 11))
DEFAULT_ALTITUDES = tuple(float(a) for a in range(30, 151, 10))
DEFAULT_VELOCITIES = (10.0, 20.0, 40.0)
DEFAULT_ALGORITHMS = ("proposed", "conventional", "equal_bandwidth")


@dataclass(frozen=True)
class LoadedConfig:
    """Everything a subcommand needs: scenario, timing cost, sweep settings."""

    network: NetworkConfig
    t_op: float
    trials: int
    seed: int
    k_values: tuple[int, ...]
    altitudes: tuple[float, ...]
    velocities: tuple[float, ...]
    algorithms: tuple[str, ...]


class _Report:
    """Collects dotted-path problem messages so every violation is listed."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.problems: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def raise_if_any(self) -> None:
        if self.problems:
            raise ConfigError(
                f"{self.source}: {len(self.problems)} problem(s)\n  "
                + "\n  ".join(self.problems)
            )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get_float(section: dict, key: str, path: str, report: _Report) -> float | None:
    if key not in section:
        report.add(path, "missing required key")
        return None
    value = section[key]
    if not _is_number(value):
        report.add(path, f"must be a number, got {value!r}")
        return None
    return float(value)


def _get_int(section: dict, key: str, path: str, report: _Report) -> int | None:
    value = _get_float(section, key, path, report)
    if value is None:
        return None
    if value != int(value):
        report.add(path, f"must be an integer, got {section[key]!r}")
        return None
    return int(value)


def _per_uav_floats(value, K: int, path: str, report: _Report) -> tuple[float, ...] | None:
    """A scalar broadcasts to all K UAVs; a list must have exactly K entries."""
    if _is_number(value):
        return (float(value),) * K
    if isinstance(value, list):
        if len(value) != K:
            report.add(path, f"must have one entry per UAV (K={K}), got {len(value)}")
            return None
        if not all(_is_number(v) for v in value):
            report.add(path, f"entries must be numbers, got {value!r}")
            return None
        return tuple(float(v) for v in value)
    report.add(path, f"must be a number or a list of K numbers, got {value!r}")
    return None


def _section(document: dict, name: str, keys: tuple[str, ...], report: _Report) -> dict:
    section = document.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        report.add(name, f"must be a mapping, got {type(section).__name__}")
        return {}
    for key in section:
        if key not in keys:
            report.add(f"{name}.{key}", f"unknown key (known: {', '.join(keys)})")
    return section


def load_config(path) -> LoadedConfig:
    """Parse and fully validate a scenario file."""
    source = str(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: invalid YAML: {exc}") from exc

    report = _Report(source)
    if not isinstance(document, dict):
        report.add("(document)", "top level must be a mapping of sections")
        report.raise_if_any()
    for name in document:
        if name not in ("network", "environment", "timing", "experiment"):
            report.add(name, "unknown section (known: network, environment, timing, experiment)")

    network = _section(document, "network", _NETWORK_KEYS, report)
    environment = _section(document, "environment", _ENVIRONMENT_KEYS, report)
    timing = _section(document, "timing", _TIMING_KEYS, report)
    experiment = _section(document, "experiment", _EXPERIMENT_KEYS, report)
    # Without these two sections the field checks below would only add
    # one "missing key" line per field; stop with a clear message instead.
    structural = False
    if not isinstance(document.get("network"), dict):
        report.add("network", "section is required and must be a mapping")
        structural = True
    if not isinstance(document.get("environment"), dict):
        report.add("environment", "section is required and must be a mapping")
        structural = True
    if structural:
        report.raise_if_any()

    # -- network ------------------------------------------------------------
    K = _get_int(network, "K", "network.K", report)
    if K is not None and K < 1:
        report.add("network.K", f"must be >= 1, got {K}")
        K = None
    for key in ("N_c", "N_r", "N_s"):
        value = _get_int(network, key, f"network.{key}", report)
        if value is not None and value < 1:
            report.add(f"network.{key}", f"must be >= 1, got {value}")
    for key in ("B", "f_c", "c_light", "noise_power", "d_hat", "A_hat", "V_hat", "R_a"):
        value = _get_float(network, key, f"network.{key}", report)
        if value is not None and not value > 0.0:
            report.add(f"network.{key}", f"must be > 0, got {value}")
    zeta = _get_float(network, "zeta", "network.zeta", report)
    if zeta is not None and not 0.0 < zeta <= 1.0:
        report.add("network.zeta", f"must lie in (0,1], got {zeta}")
    epsilon = _get_float(network, "epsilon", "network.epsilon", report)
    epsilon_error = None if epsilon is None else epsilon_range_error(epsilon)
    if epsilon_error is not None:
        report.add("network.epsilon", epsilon_error)

    per_uav: dict[str, tuple] = {}
    if K is not None:
        for key in ("p_c", "m_h", "m_g"):
            if key not in network:
                report.add(f"network.{key}", "missing required key")
                continue
            values = _per_uav_floats(network[key], K, f"network.{key}", report)
            if values is None:
                continue
            if key == "p_c":
                if any(not v > 0.0 for v in values):
                    report.add("network.p_c", f"entries must be > 0, got {list(values)}")
            else:
                for v in values:
                    if v != int(v) or int(v) < 1:
                        report.add(
                            f"network.{key}",
                            "Nakagami parameter must be integer >= 1 "
                            f"(the finite-sum CDF requires it), got {v}",
                        )
                        break
                else:
                    values = tuple(int(v) for v in values)
            per_uav[key] = values

    # -- environment ----------------------------------------------------------
    env_values = {
        key: _get_float(environment, key, f"environment.{key}", report)
        for key in _ENVIRONMENT_KEYS
    }
    if env_values["a"] is not None and not env_values["a"] > 0.0:
        report.add("environment.a", f"must be > 0, got {env_values['a']}")
    if env_values["b"] is not None and not env_values["b"] > 0.0:
        report.add("environment.b", f"must be > 0, got {env_values['b']}")
    if (
        env_values["eta_los"] is not None
        and env_values["eta_nlos"] is not None
        and not env_values["eta_nlos"] >= env_values["eta_los"] >= 0.0
    ):
        report.add(
            "environment.eta_los",
            "must satisfy eta_nlos >= eta_los >= 0, got "
            f"eta_los={env_values['eta_los']}, eta_nlos={env_values['eta_nlos']}",
        )

    # -- timing ---------------------------------------------------------------
    if "t_op" in timing:
        t_op = _get_float(timing, "t_op", "timing.t_op", report)
        if t_op is not None and t_op < 0.0:
            report.add("timing.t_op", f"must be >= 0, got {t_op}")
    else:
        t_op = DEFAULT_T_OP

    # -- experiment -----------------------------------------------------------
    trials = DEFAULT_TRIALS
    if "trials" in experiment:
        trials = _get_int(experiment, "trials", "experiment.trials", report)
        if trials is not None and trials < 1:
            report.add("experiment.trials", f"must be >= 1, got {trials}")
    seed = DEFAULT_SEED
    if "seed" in experiment:
        seed = _get_int(experiment, "seed", "experiment.seed", report)
        if seed is not None and seed < 0:
            report.add("experiment.seed", f"must be >= 0, got {seed}")

    def _number_list(key: str, default: tuple, want_int: bool) -> tuple:
        if key not in experiment:
            return default
        raw = experiment[key]
        if not isinstance(raw, list) or not raw or not all(_is_number(v) for v in raw):
            report.add(f"experiment.{key}", f"must be a non-empty list of numbers, got {raw!r}")
            return default
        if want_int:
            if any(v != int(v) or int(v) < 1 for v in raw):
                report.add(f"experiment.{key}", f"entries must be integers >= 1, got {raw!r}")
                return default
            return tuple(int(v) for v in raw)
        if any(not v > 0 for v in raw):
            report.add(f"experiment.{key}", f"entries must be > 0, got {raw!r}")
            return default
        return tuple(float(v) for v in raw)

    k_values = _number_list("k_values", DEFAULT_K_VALUES, want_int=True)
    altitudes = _number_list("altitudes", DEFAULT_ALTITUDES, want_int=False)
    velocities = _number_list("velocities", DEFAULT_VELOCITIES, want_int=False)

    algorithms = DEFAULT_ALGORITHMS
    if "algorithms" in experiment:
        raw = experiment["algorithms"]
        if (
            not isinstance(raw, list)
            or not raw
            or any(not isinstance(v, str) or v not in ALGORITHMS for v in raw)
        ):
            report.add(
                "experiment.algorithms",
                f"must be a non-empty list drawn from {list(ALGORITHMS)}, got {raw!r}",
            )
        else:
            algorithms = tuple(raw)

    report.raise_if_any()

    try:
        env = EnvironmentParams(**env_values)
        net = NetworkConfig(
            K=K,
            N_c=int(network["N_c"]),
            N_r=int(network["N_r"]),
            N_s=int(network["N_s"]),
            B=float(network["B"]),
            f_c=float(network["f_c"]),
            c_light=float(network["c_light"]),
            noise_power=float(network["noise_power"]),
            zeta=zeta,
            p_c=per_uav["p_c"],
            m_h=per_uav["m_h"],
            m_g=per_uav["m_g"],
            d_hat=float(network["d_hat"]),
            A_hat=float(network["A_hat"]),
            V_hat=float(network["V_hat"]),
            R_a=float(network["R_a"]),
            epsilon=epsilon,
            env=env,
        )
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    return LoadedConfig(
        network=net,
        t_op=t_op,
        trials=trials,
        seed=seed,
        k_values=k_values,
        altitudes=altitudes,
        velocities=velocities,
        algorithms=algorithms,
    )
