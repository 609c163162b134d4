"""The recursive stopping value and the matrix-product merging horizon, kept
as a test-only reference.

These are the expansions ``expord.dynamics.stopping_value`` and
``expord.dynamics.merging_horizon`` ran before both moved to one level walk
over deduplicated beliefs.  The stopping value here recurses through an
``lru_cache`` keyed by (period, belief); the merging horizon multiplies the
matrices R(s)[t][t'] = rho(t -> t') pi(s|t') along every signal string and
row-normalizes each product.  A row-normalized product row is the sequence of
Bayes updates from a point mass, so on every input the two pairs must agree
exactly: the same Fractions, the same profiles and the same exceptions.
``tests/test_dynamics.py`` compares them.  The size guards are the original
``n_signals ** depth`` checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from expord.dynamics import (
    _MAX_DEPTH,
    MarkovChain,
    MergingReport,
    StoppingProblem,
    Tolerance,
    as_tolerance,
)
from expord.experiments import Experiment, _require_shared_states
from expord.numerics import InvalidInput


def reference_stopping_value(stopping: StoppingProblem, experiment: Experiment) -> Fraction:
    """Backward induction by recursion, memoized per (period, belief)."""
    _require_shared_states(stopping.chain, experiment, "chain and experiment")
    if stopping.horizon > _MAX_DEPTH:
        raise InvalidInput(f"the horizon may be at most {_MAX_DEPTH}")
    if experiment.n_signals ** stopping.horizon > 2 ** 20:
        raise InvalidInput("belief tree too large; lower the horizon")
    problem = stopping.problem
    chain = stopping.chain

    @lru_cache(maxsize=None)
    def w(t, belief):
        stop, _ = problem.best_response(belief)
        if t == stopping.horizon:
            return stop
        predicted = chain.push_forward(belief)
        continuation = Fraction(0)
        for j in range(experiment.n_signals):
            mass, posterior = experiment.bayes(predicted, j)
            if posterior is not None:
                continuation += mass * w(t + 1, posterior)
        return max(stop, continuation)

    result = w(0, tuple(problem.prior.weights))
    w.cache_clear()
    return result


def reference_merging_horizon(
    chain: MarkovChain, experiment: Experiment, epsilon: Tolerance, n_max: int = 12
) -> MergingReport:
    """The merging gap over every signal string, by matrix products."""
    threshold = as_tolerance(epsilon)
    _require_shared_states(chain, experiment, "chain and experiment")
    if not 1 <= n_max <= _MAX_DEPTH:
        raise InvalidInput(f"n_max must lie in 1..{_MAX_DEPTH}")
    if not chain.strictly_positive:
        raise InvalidInput("merging requires a strictly positive chain")
    for j, signal in enumerate(experiment.signals):
        if all(experiment.matrix[t][j] == 0 for t in range(experiment.n_states)):
            raise InvalidInput(
                f"signal {signal!r} is impossible in every state; "
                "row normalization would divide by zero"
            )
    if experiment.n_signals ** n_max > 2 ** 20:
        raise InvalidInput("signal-string enumeration too large; lower n_max")
    n = chain.n_states
    step_matrices = [
        tuple(
            tuple(chain.rows[t][u] * experiment.matrix[u][j] for u in range(n))
            for t in range(n)
        )
        for j in range(experiment.n_signals)
    ]

    def advance(product, step):
        return tuple(
            tuple(
                sum((product[t][k] * step[k][u] for k in range(n)), Fraction(0))
                for u in range(n)
            )
            for t in range(n)
        )

    def row_gap(product):
        normalized = []
        for row in product:
            mass = sum(row, Fraction(0))
            normalized.append(tuple(entry / mass for entry in row))
        worst = Fraction(0)
        for a in range(n):
            for b in range(a + 1, n):
                distance = sum(
                    (abs(x - y) for x, y in zip(normalized[a], normalized[b])),
                    Fraction(0),
                )
                worst = max(worst, distance)
        return worst

    identity = tuple(
        tuple(Fraction(1) if t == u else Fraction(0) for u in range(n))
        for t in range(n)
    )
    level = [identity]
    profile = []
    horizon = None
    for depth in range(1, n_max + 1):
        level = [advance(product, step) for product in level for step in step_matrices]
        gap = max(row_gap(product) for product in level)
        profile.append(gap)
        if gap < threshold:
            horizon = depth
            break
    monotone = all(profile[k + 1] <= profile[k] for k in range(len(profile) - 1))
    return MergingReport(
        horizon=horizon,
        profile=tuple(profile),
        monotone=monotone,
        epsilon=threshold,
        n_max=n_max,
    )
