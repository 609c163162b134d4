"""A spy on every program an ``expord`` module solves.

A module gets an outcome from ``numerics.solve``, or in two steps: from
``numerics._phase_one``, which returns a refutation itself or a feasible
start (from a crash basis, when the module passes one), then from
``numerics._phase_two``, which finishes a start for one objective and
sense, or from ``numerics._basic_point``, which reads the start's own
point.  The spy records one program per outcome: the program
solved, the program a refuting phase one read, the start's program under
the objective and sense it was finished with, or the start's program as it
stands for a point read off the start (a block's objective is zero, so
that point is the one a zero-objective phase two would return).  Calls that
``numerics`` makes inside itself are not recorded twice.
"""

import dataclasses
import importlib
import pkgutil
from collections import Counter

import expord
from expord import numerics, order


def spy_on_solves(patch) -> list:
    """Patch every ``expord`` module through ``patch``; return the list it fills."""
    captured = []
    real = numerics.solve
    real_one, real_two, real_point = numerics._phase_one, numerics._phase_two, numerics._basic_point

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

    def basic_point(start, tableau):
        captured.append(start.lp)
        return real_point(start, tableau)

    spies = {"_phase_one": phase_one, "_phase_two": phase_two, "_basic_point": basic_point}
    for info in pkgutil.iter_modules(expord.__path__):
        module = importlib.import_module(f"expord.{info.name}")
        if getattr(module, "solve", None) is real:
            patch.setattr(module, "solve", solve)
        if module is numerics:
            continue
        for name, spy in spies.items():
            if getattr(module, name, None) is getattr(numerics, name):
                patch.setattr(module, name, spy)
    return captured


def spy_on_work(patch) -> tuple[Counter, list]:
    """Count the simplex work of every ``expord`` module, and list the certificates it checks.

    The counter holds ``pivots``, ``phase ones`` (every ``_phase_one`` call,
    a cold fallback from a crash start included) and ``programs in phase
    two`` (``LinearProgram`` objects built while a ``_phase_two`` runs).
    The list holds every certificate ``order.verify_certificate`` checks,
    in order; it keeps them alive, so two entries share an id only if they
    are one object.
    """
    counts, checked, running = Counter(), [], []
    real_pivot, real_post = numerics._Tableau.pivot, numerics.LinearProgram.__post_init__
    real_one, real_two, real_verify = numerics._phase_one, numerics._phase_two, order.verify_certificate

    def pivot(tableau, row, col):
        counts["pivots"] += 1
        real_pivot(tableau, row, col)

    def post_init(lp):
        counts["programs in phase two"] += bool(running)
        real_post(lp)

    def phase_one(lp, crash=()):
        counts["phase ones"] += 1
        return real_one(lp, crash)

    def phase_two(start, objective, sense):
        running.append(start)
        try:
            return real_two(start, objective, sense)
        finally:
            running.pop()

    def verify_certificate(certificate):
        checked.append(certificate)
        return real_verify(certificate)

    patch.setattr(numerics._Tableau, "pivot", pivot)
    patch.setattr(numerics.LinearProgram, "__post_init__", post_init)
    spies = {real_one: phase_one, real_two: phase_two, real_verify: verify_certificate}
    for info in pkgutil.iter_modules(expord.__path__):
        module = importlib.import_module(f"expord.{info.name}")
        for name, value in list(vars(module).items()):
            if callable(value) and value in spies:
                patch.setattr(module, name, spies[value])
    return counts, checked
