"""Every top-level definition in ``src/ehuav`` is read somewhere in ``src``.

A module-level function, class or assignment that no ``src`` code loads is
dead: it is either test-only scaffolding or left over from a removed path.
Names are resolved per module.  A definition of module ``m`` counts as used
where another top-level statement of ``m`` loads it, where another module
imports it with ``from .m import name``, or where code reads it as
``m.name``; loads inside the definition itself (recursion) do not count,
and neither does a load of the same spelling in another module.

Likewise every field of every ``src`` dataclass is read as an attribute by
some ``src`` computation.
"""

from __future__ import annotations

import ast
import importlib
from dataclasses import fields, is_dataclass
from pathlib import Path

from ehuav.experiments import CSV_HEADER, ExperimentRow

SRC = Path(__file__).resolve().parent.parent / "src" / "ehuav"

# Read from outside src: package metadata, functions the benchmark harness
# traces (gamma_product_cdf is also the library's checked CDF, whose
# unchecked core outage_closed_form calls; lambert_w0 stays for the harness
# to wrap, though the equal split now solves for 1 + W0 itself), and
# snr_threshold, the checked threshold the harness's reference builder
# reads (both estimators check the shared arguments once and call its
# unchecked core).
ALLOWED = {"__version__", "bessel_k_int", "gamma_product_cdf", "lambert_w0", "snr_threshold"}


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def loaded_names(node: ast.AST) -> set[str]:
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def imported_elsewhere(modules: dict[str, list[ast.stmt]]) -> set[tuple[str, str]]:
    """``(module, name)`` of every definition that a ``from .module import
    name`` or a ``module.name`` read reaches."""
    reached = set()
    for body in modules.values():
        for sub in (sub for node in body for sub in ast.walk(node)):
            if isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
                reached.update((sub.module, alias.name) for alias in sub.names)
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in modules
            ):
                reached.add((sub.value.id, sub.attr))
    return reached


def unused_definitions() -> list[str]:
    """``module:name`` of every top-level definition that nothing reads."""
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")).body
        for path in sorted(SRC.glob("*.py"))
    }
    reached = imported_elsewhere(modules)
    dead = []
    for module, body in modules.items():
        loads = [loaded_names(node) for node in body]
        for i, node in enumerate(body):
            for name in defined_names(node):
                own = any(name in names for j, names in enumerate(loads) if j != i)
                if not own and (module, name) not in reached:
                    dead.append(f"{module}:{name}")
    return sorted(dead)


def test_every_top_level_definition_is_used_in_src():
    dead = [entry for entry in unused_definitions() if entry.split(":")[1] not in ALLOWED]
    assert dead == []


# Where reading a field does not make it matter: the dataclasses' own checks
# and the config summary that ``ehuav validate`` prints.
INERT_READERS = {"__post_init__", "cmd_validate"}


def attributes_read(node: ast.AST) -> set[str]:
    """Every ``x.<attr>`` that ``node`` loads, outside :data:`INERT_READERS`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in INERT_READERS:
        return set()
    loaded = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    found = {node.attr} if loaded else set()
    for child in ast.iter_child_nodes(node):
        found |= attributes_read(child)
    return found


# Fields read by name rather than as ``x.<field>``: ``ExperimentRow.as_csv``
# reads each CSV column with ``getattr``.
READ_BY_NAME = {ExperimentRow: set(CSV_HEADER)}


def src_dataclasses() -> list[type]:
    """Every dataclass defined (not just imported) in a ``src`` module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        name = "ehuav" if path.stem == "__init__" else f"ehuav.{path.stem}"
        module = importlib.import_module(name)
        found += [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
        ]
    return found


def test_every_scenario_field_is_read_in_src():
    # A field that no computation reads is a setting that changes nothing, or
    # a value stored beside the one that is used.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    read = set().union(*map(attributes_read, trees))
    inert = [
        f"{cls.__name__}.{f.name}"
        for cls in src_dataclasses()
        for f in fields(cls)
        if f.name not in read | READ_BY_NAME.get(cls, set())
    ]
    assert inert == []
