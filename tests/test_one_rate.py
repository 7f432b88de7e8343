"""Every per-UAV rate in ``src/ehuav`` is computed by ``outage._rate``.

The rate beta (1 - tau) nu_c log2(1 + tau gamma / (beta (1 - tau))) defines
every allocator and the outage analysis, and the batch forms replay the
per-draw ones bit for bit only while each rate runs the same operations in
the same order.  So a call to ``log2`` (``np.log2``, ``math.log2``, a local
``log2`` or ``_log2_exact``) may appear only in the one rate function, in
the rate slope of phase 1 (a different formula), and in the grid search,
which evaluates ``_rate``'s expression in place on large blocks.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ehuav"

ALLOWED = {
    "outage._rate",
    "allocation._rate_slope",
    "allocation._slope_rises",
    "allocation.exhaustive_optimal",
}


def is_log2_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("log2", "_log2_exact")
    return isinstance(func, ast.Attribute) and func.attr == "log2"


def log2_callers() -> list[str]:
    """``module.name`` of every top-level definition (or ``module`` for
    other top-level code) that calls a ``log2``, nested code included."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(is_log2_call(sub) for sub in ast.walk(node)):
                name = getattr(node, "name", None)
                callers.add(path.stem if name is None else f"{path.stem}.{name}")
    return sorted(callers)


def test_log2_is_called_only_by_the_rate_and_its_slope():
    assert [caller for caller in log2_callers() if caller not in ALLOWED] == []


def test_the_allowed_callers_still_call_log2():
    # An entry that no longer calls log2 would let a copy of the rate back in
    # under its name.
    assert set(log2_callers()) == ALLOWED
