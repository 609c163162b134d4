"""Outside-in span tracer for the expord layers.

The tracer replaces the public functions of each layer module with a thin
wrapper that records a span (name, start, end, parent, item) and, at a few
boundaries, reads counters off the objects that cross them.  Modules import
one another's functions by name (``from .numerics import solve``), so a
wrapper is installed on *every* loaded ``expord`` module that binds the
original function, not only on the module that defines it.

Spans live in memory until the benchmark ends; :meth:`Tracer.dump` writes
them out.  Self time is a span's duration minus the durations of its direct
children and minus the time spent reading counters after each child.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Any, Callable, Iterable

# Per-number and per-row helpers.  Wrapping them would record a span for
# every coefficient and swamp the self time of the layer that calls them.
LEAF_HELPERS = {
    "numerics": {"as_rational", "parse_rational", "evaluate_row"},
    "documents": {"rational_str"},
}

VERIFIERS = ("farkas_verifies", "solution_feasible", "ray_verifies")

# Span fields, stored as plain lists for speed.
NAME, START, END, PARENT, ITEM, HOOK = range(6)


def _bits(values: Iterable[Fraction] | None) -> int:
    if not values:
        return 0
    return max(
        max(value.numerator.bit_length(), value.denominator.bit_length())
        for value in values
    )


def _solve_counters(counters: dict, args: tuple, result: Any) -> None:
    lp = args[0]
    counters["solve.cells"] += len(lp.rows) * lp.n_variables
    widest = _bits(lp.objective)
    for coeffs, _relation, rhs in lp.rows:
        widest = max(widest, _bits(coeffs), _bits((rhs,)))
    widest = max(widest, _bits(result.x), _bits(result.farkas), _bits(result.ray))
    counters["solve.max_bits"] = max(counters["solve.max_bits"], widest)
    if result.status == "infeasible":
        counters["solve.infeasible"] += 1


def _eta_counters(counters: dict, args: tuple, result: Any) -> None:
    counters["eta.iterations"] += result.iterations
    counters["eta.hull_points"] += len(result.hull.points)


HOOKS: dict[str, Callable[[dict, tuple, Any], None]] = {
    "numerics.solve": _solve_counters,
    "dynamics.eta_limit": _eta_counters,
}


def layer_functions(module) -> list[tuple[str, Callable]]:
    """Public functions defined in a layer module, minus the leaf helpers."""
    layer = module.__name__.rsplit(".", 1)[-1]
    skipped = LEAF_HELPERS.get(layer, set())
    return [
        (f"{layer}.{attr}", obj)
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not attr.startswith("_")
        and attr not in skipped
    ]


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self, modules: Iterable[Any]) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.item = -1
        self._patched: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[int, Callable] = {
            id(fn): self._wrap(name, fn)
            for module in modules
            for name, fn in layer_functions(module)
        }

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.item, 0.0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if hook is not None:
                hook(counters, args, result)
                span[HOOK] = clock() - span[END]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public layer function wherever an expord module binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "expord":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            parent = span[PARENT]
            if parent >= 0:
                child_time[parent] += span[END] - span[START] + span[HOOK]
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            entry = table[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time[index]
        return table

    def calls_beneath(self, name: str, ancestor_prefix: str) -> int:
        """Spans called ``name`` with some ancestor whose name has the prefix."""
        count = 0
        for span in self.spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0:
                if self.spans[parent][NAME].startswith(ancestor_prefix):
                    count += 1
                    break
                parent = self.spans[parent][PARENT]
        return count

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [
                            span[NAME],
                            round(span[START] - origin, 9),
                            round(span[END] - origin, 9),
                            span[PARENT],
                            span[ITEM],
                        ]
                    )
                )
                handle.write("\n")
