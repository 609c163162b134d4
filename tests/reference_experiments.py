"""Fraction-loop bodies of three experiment-layer checks, kept as test-only references.

``regularize`` is the body ``expord.experiments.regularize`` had before it
grouped signals by the posterior ``Experiment.bayes`` gives them under the
uniform measure.  Two nonzero columns are positive multiples of each other
exactly when those posteriors are equal, and both versions keep groups in
order of first occurrence, so on every experiment they must return the same
experiment, labels included.

``check_distribution`` and ``posterior_problem`` are the probability-vector
check and the ``PosteriorDistribution`` validation as they were before both
moved to integers.  Each returns the message the check raised, or None when
it passed, so the integer versions must raise the same message on every
input.  The posterior one checks distinct beliefs after the atom beliefs,
the order the integer version uses, since its distinctness test needs
vectors that passed.  ``tests/test_experiments.py`` and
``tests/test_beliefs.py`` compare them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from expord.experiments import Experiment, Prior


def check_distribution(
    entries: Sequence[Fraction], length: int, what: str, label: str | None = None
) -> str | None:
    """``length`` Fractions, none negative, summing to exactly 1, in Fractions."""
    name = what if label is None else f"{what} {label!r}"
    if len(entries) != length:
        return f"{name} has {len(entries)} entries, expected {length}"
    for entry in entries:
        if not isinstance(entry, Fraction):
            return f"{name} entries must be Fractions, got {entry!r}"
        if entry < 0:
            return f"{name} has a negative entry {entry}"
    total = sum(entries, Fraction(0))
    if total != 1:
        return f"{name} sums to {total}, expected 1"
    return None


def posterior_problem(prior: Prior, atoms) -> str | None:
    """The first check a posterior distribution of these atoms fails, or None."""
    if not atoms:
        return "a posterior distribution needs at least one atom"
    probabilities = [atom.probability for atom in atoms]
    problem = check_distribution(probabilities, len(probabilities), "atom probability vector")
    if problem is not None:
        return problem
    if any(atom.probability <= 0 for atom in atoms):
        return "zero-probability atoms must be omitted"
    n = len(prior.weights)
    for atom in atoms:
        problem = check_distribution(atom.belief, n, "atom belief")
        if problem is not None:
            return problem
    beliefs = [atom.belief for atom in atoms]
    if len(set(beliefs)) != len(beliefs):
        return "atoms with equal beliefs must be merged"
    for t in range(n):
        mean = sum((atom.probability * atom.belief[t] for atom in atoms), Fraction(0))
        if mean != prior.weights[t]:
            return "martingale property fails: posterior mean differs from prior"
    return None


def regularize(experiment: Experiment) -> Experiment:
    """Drop null signals and merge signals with proportional likelihood columns."""
    columns = [tuple(row[j] for row in experiment.matrix) for j in range(experiment.n_signals)]
    groups: list[list[int]] = []
    for j, column in enumerate(columns):
        if all(entry == 0 for entry in column):
            continue
        placed = False
        for group in groups:
            anchor = columns[group[0]]
            pivot = next(k for k, entry in enumerate(anchor) if entry != 0)
            if column[pivot] == 0:
                continue
            scale = column[pivot] / anchor[pivot]
            if scale > 0 and all(
                column[k] == scale * anchor[k] for k in range(len(anchor))
            ):
                group.append(j)
                placed = True
                break
        if not placed:
            groups.append([j])
    signals = tuple(
        "+".join(experiment.signals[j] for j in group) for group in groups
    )
    matrix = tuple(
        tuple(
            sum((row[j] for j in group), Fraction(0)) for group in groups
        )
        for row in experiment.matrix
    )
    return Experiment(states=experiment.states, signals=signals, matrix=matrix)
