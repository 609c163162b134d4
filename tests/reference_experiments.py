"""The column-proportionality ``regularize``, kept as a test-only reference.

This is the body ``expord.experiments.regularize`` had before it grouped
signals by the posterior ``Experiment.bayes`` gives them under the uniform
measure.  Two nonzero columns are positive multiples of each other exactly
when those posteriors are equal, and both versions keep groups in order of
first occurrence, so on every experiment they must return the same
experiment, labels included.  ``tests/test_experiments.py`` compares them.
"""

from __future__ import annotations

from fractions import Fraction

from expord.experiments import Experiment


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
