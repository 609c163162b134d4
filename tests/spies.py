"""A spy on every program an ``expord`` module solves.

A module gets an outcome from ``numerics.solve``, or in two steps: from
``numerics._phase_one``, which returns a refutation itself or a feasible
start (from a crash basis, when the module passes one), then from
``numerics._phase_two``, which finishes a start for one objective and
sense.  The spy records one program per outcome: the program
solved, the program a refuting phase one read, or the start's program under
the objective and sense it was finished with.  Calls that ``solve`` makes
inside ``numerics`` are not recorded twice.
"""

import dataclasses
import importlib
import pkgutil

import expord
from expord import numerics


def spy_on_solves(patch) -> list:
    """Patch every ``expord`` module through ``patch``; return the list it fills."""
    captured = []
    real, real_one, real_two = numerics.solve, numerics._phase_one, numerics._phase_two

    def solve(lp):
        captured.append(lp)
        return real(lp)

    def phase_one(lp, crash=()):
        start = real_one(lp, crash)
        if isinstance(start, numerics.LpOutcome):
            captured.append(lp)
        return start

    def phase_two(start, objective, sense):
        captured.append(dataclasses.replace(start.lp, objective=objective, sense=sense))
        return real_two(start, objective, sense)

    for info in pkgutil.iter_modules(expord.__path__):
        module = importlib.import_module(f"expord.{info.name}")
        if getattr(module, "solve", None) is real:
            patch.setattr(module, "solve", solve)
        if module is not numerics and getattr(module, "_phase_two", None) is real_two:
            patch.setattr(module, "_phase_one", phase_one)
            patch.setattr(module, "_phase_two", phase_two)
    return captured
