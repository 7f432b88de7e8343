"""Every top-level definition in ``src/ehuav`` is read somewhere in ``src``.

A module-level function, class or assignment that no ``src`` code loads is
dead: it is either test-only scaffolding or left over from a removed path.
A name counts as used where another top-level statement of any module
loads it, as a plain name or as an attribute (``module.name``); loads
inside the definition itself (recursion) do not count.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ehuav"

# Read from outside src: package metadata, and a function the benchmark
# harness still traces.
ALLOWED = {"__version__", "bessel_k_int"}


def defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def loaded_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def unused_definitions() -> list[str]:
    """``module:name`` of every top-level definition that no other
    top-level statement loads."""
    statements = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    loads = [loaded_names(node) for _, node in statements]
    readers = Counter(name for names in loads for name in names)
    return sorted(
        f"{module}:{name}"
        for (module, node), names in zip(statements, loads)
        for name in defined_names(node)
        if readers[name] == (name in names)
    )


def test_every_top_level_definition_is_used_in_src():
    dead = [entry for entry in unused_definitions() if entry.split(":")[1] not in ALLOWED]
    assert dead == []
