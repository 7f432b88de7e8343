"""Strict YAML scenario files for the CLI.

One document, four sections — ``network``, ``environment``, ``timing``,
``experiment`` — mirroring :class:`~ehuav.channel.NetworkConfig`,
:class:`~ehuav.channel.EnvironmentParams`, and the per-operation signalling
cost and sweep settings of :class:`~ehuav.experiments.ExperimentSpec`, which
:func:`load_config` returns; the last two sections are optional, and what
they leave out takes the ``ExperimentSpec`` defaults.  This module checks
the file's shape: unknown sections and keys, required keys, numbers (a
YAML bool is not one), lists, and the per-UAV scalars that broadcast to
every UAV.  The bounds are the rule tables
:data:`~ehuav.channel.NETWORK_RULES`, :data:`~ehuav.channel.ENVIRONMENT_RULES`
and :data:`~ehuav.experiments.EXPERIMENT_RULES`, which the dataclasses check
too.  *All* problems are reported at once, each prefixed with its dotted
key path.  A file that passes them must also give every UAV a link budget
whose gains stay normal doubles, in the scenario and at every point of the
two sweeps (:func:`_check_link_budgets`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields, replace

import yaml

from .channel import (
    ENVIRONMENT_RULES,
    NETWORK_RULES,
    PER_UAV,
    EnvironmentParams,
    NetworkConfig,
    violations,
)
from .errors import ConfigError
from .experiments import EXPERIMENT_RULES, ExperimentSpec, _config_for_k, link_budgets

_NETWORK_KEYS = tuple(f.name for f in fields(NetworkConfig) if f.name != "env")
_NETWORK_SCALARS = tuple(key for key in _NETWORK_KEYS if key not in PER_UAV)
_ENVIRONMENT_KEYS = tuple(f.name for f in fields(EnvironmentParams))
_TIMING_KEYS = ("t_op",)
_EXPERIMENT_SCALARS = ("trials", "seed")
_EXPERIMENT_LISTS = ("k_values", "altitudes", "velocities", "algorithms")
_EXPERIMENT_KEYS = _EXPERIMENT_SCALARS + _EXPERIMENT_LISTS
# libyaml's parser where PyYAML was built with it: about 9x faster than the
# pure-Python one on configs/table1.yaml, and the same documents.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


def _numbers(
    section: dict, name: str, keys: tuple[str, ...], report: _Report, required: bool = True
) -> dict:
    """The given keys that hold numbers; the others are reported."""
    values = {}
    for key in keys:
        if key not in section:
            if required:
                report.add(f"{name}.{key}", "missing required key")
        elif _is_number(section[key]):
            values[key] = section[key]
        else:
            report.add(f"{name}.{key}", f"must be a number, got {section[key]!r}")
    return values


def _per_uav(value, K: int, path: str, report: _Report) -> tuple | None:
    """A scalar broadcasts to all K UAVs; a list passes through as a tuple."""
    if _is_number(value):
        return (value,) * K
    if isinstance(value, list):
        if all(_is_number(v) for v in value):
            return tuple(value)
        report.add(path, f"entries must be numbers, got {value!r}")
        return None
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


def load_config(path) -> ExperimentSpec:
    """Parse and fully validate a scenario file into the sweep settings."""
    source = str(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = yaml.load(handle, Loader=_LOADER)
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

    net = _numbers(network, "network", _NETWORK_SCALARS, report)
    # The per-UAV vectors are read only once K is valid: a scalar broadcasts to K.
    if "K" in net and not violations(NETWORK_RULES, {"K": net["K"]}):
        for key in PER_UAV:
            if key not in network:
                report.add(f"network.{key}", "missing required key")
                continue
            values = _per_uav(network[key], int(net["K"]), f"network.{key}", report)
            if values is not None:
                net[key] = values
    env = _numbers(environment, "environment", _ENVIRONMENT_KEYS, report)

    # Only the settings the file gives; ExperimentSpec supplies the rest.
    cost = _numbers(timing, "timing", _TIMING_KEYS, report, required=False)
    exp = _numbers(experiment, "experiment", _EXPERIMENT_SCALARS, report, required=False)
    for key in _EXPERIMENT_LISTS:
        if key not in experiment:
            continue
        raw, names = experiment[key], key == "algorithms"
        if isinstance(raw, list) and all(isinstance(v, str) if names else _is_number(v) for v in raw):
            exp[key] = raw
        else:
            kind = "names" if names else "numbers"
            report.add(f"experiment.{key}", f"must be a list of {kind}, got {raw!r}")

    # The velocity rule also reads the network's f_c.
    link = {"f_c": net["f_c"]} if "f_c" in net else {}
    for section, rules, values in (
        ("network", NETWORK_RULES, net),
        ("environment", ENVIRONMENT_RULES, env),
        ("timing", EXPERIMENT_RULES, cost),
        ("experiment", EXPERIMENT_RULES, {**exp, **link}),
    ):
        for field, message in violations(rules, values):
            report.add(f"{section}.{field}", message)
    report.raise_if_any()

    network = NetworkConfig(**net, env=EnvironmentParams(**env))
    spec = ExperimentSpec(network=network, **cost, **exp)
    _check_link_budgets(spec, report)
    report.raise_if_any()
    return spec


def _check_link_budgets(spec: ExperimentSpec, report: _Report) -> None:
    """Each UAV's hop gains lam and mu, and its gain scale rho*lam*mu in
    the order the sampler multiplies, must be normal, finite doubles: in
    the scenario, and at every altitude of ``fig4`` and every K of ``fig3``,
    whose geometries differ.

    Each draw is that scale times two Gamma draws, so where the scale
    rounds to 0 or inf (``d_hat`` or ``A_hat`` at 1e300) every gain does,
    and where it or a hop gain is subnormal, draws round to 0 (``p_c`` at
    5e-324 with unit shapes): the allocators refuse such gains.  A sweep
    value is checked only where the scenario passes, and reports its first
    failing UAV; the K sweep only where the per-UAV values are uniform, as
    ``fig3`` requires.
    """
    network = spec.network
    problems = _budget_problems(network)
    for problem in problems:
        report.add("network", problem)
    if problems:
        return
    sweeps = [("experiment.altitudes", f"A_hat={a:g}", replace(network, A_hat=a))
              for a in spec.altitudes]
    try:
        sweeps += [("experiment.k_values", f"K={K}", _config_for_k(network, K))
                   for K in spec.k_values]
    except ConfigError:  # fig3 refuses the scenario with its own message
        pass
    for path, value, config in sweeps:
        for problem in _budget_problems(config)[:1]:
            report.add(path, f"at {value}, {problem}")


def _budget_problems(config: NetworkConfig) -> list[str]:
    """One message per UAV whose link budget fails the normal-double rule."""
    problems = []
    for k, budget in enumerate(link_budgets(config)):
        scale = budget.rho * budget.lam * budget.mu
        if not all(sys.float_info.min <= v < math.inf for v in (budget.lam, budget.mu, scale)):
            problems.append(
                f"UAV {k}'s link budget lam={budget.lam:.6g}, mu={budget.mu:.6g}, "
                f"rho*lam*mu={scale:.6g}: each must be a normal, finite double "
                f"(>= {sys.float_info.min:.6g}), or its channel gains round to 0 or inf"
            )
    return problems
