"""In-memory span tracing of ehuav's public functions, from outside the package.

A :class:`Tracer` replaces each traced function at every ``ehuav`` module
attribute bound to it (the name a caller looks up at call time), so nothing
under ``src/`` is edited.  Each call records one span ``(name, start, end,
parent)``; ``parent`` is the index of the enclosing span or -1.  Spans stay
in memory until :meth:`Tracer.write` dumps them.  A layer's self time is its
span duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _tally_allocation(prefix):
    def tally(counts, result):
        counts[f"{prefix}.iters_tau"] += result.iters_tau
        counts[f"{prefix}.iters_beta"] += result.iters_beta
        counts[f"{prefix}.inner_iters_beta"] += result.inner_iters_beta
        counts[f"{prefix}.op_count"] += result.op_count

    return tally


def _tally_draws(counts, result):
    counts["channel.sample_gamma_matrix.draws"] += result.shape[0]


def _tally_trials(counts, result):
    counts["outage.outage_monte_carlo.trials"] += result.trials


# (module, function, extra tally on the result).  The span name is
# "<module>.<function>".
TRACED = (
    ("specfun", "bessel_k_int", None),
    ("specfun", "lambert_w0", None),
    ("channel", "sample_gamma_matrix", _tally_draws),
    ("outage", "gamma_product_cdf", None),
    ("outage", "outage_closed_form", None),
    ("outage", "outage_monte_carlo", _tally_trials),
    ("outage", "min_rate", None),
    ("allocation", "proposed_allocate", _tally_allocation("allocation.proposed")),
    ("allocation", "conventional_allocate", _tally_allocation("allocation.conventional")),
    ("allocation", "exhaustive_optimal", None),
    ("allocation", "equal_bandwidth_taf", None),
    ("experiments", "run_iterations_and_minrate_sweep", None),
    ("experiments", "run_outage_altitude_sweep", None),
    ("experiments", "allocate_by_name", None),
    ("experiments", "write_rows", None),
    ("configio", "load_config", None),
    ("cli", "main", None),
)


class Tracer:
    """Records spans for one traced pass; install, run, uninstall, summarise."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, tally):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if tally is not None:
                tally(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at each ehuav module attribute bound to it."""
        modules = [
            module
            for key, module in sys.modules.items()
            if module is not None and (key == "ehuav" or key.startswith("ehuav."))
        ]
        for module_name, func_name, tally in TRACED:
            original = getattr(sys.modules[f"ehuav.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, tally)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a stage of one pass)."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per root: self seconds by name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        by_root: dict = defaultdict(lambda: defaultdict(float))
        root_of = [0] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            root_of[index] = index if parent < 0 else root_of[parent]
            entry = per_name[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            self_s = end - start - child[index]
            entry["self_s"] += self_s
            by_root[self.spans[root_of[index]][0]][name] += self_s
        return {
            "layers": {name: dict(entry) for name, entry in per_name.items()},
            "by_root": {root: dict(names) for root, names in by_root.items()},
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Dump the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
