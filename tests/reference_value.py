"""The Fraction best-response, value and plan-payoff loops, kept as a test-only reference.

The first two are the loops ``expord.experiments.DecisionProblem.best_response``
and ``expord.value.value`` ran before they moved to integers over one shared
denominator.  Both compare the same scores in the same order, so on every
input they must return identical results: the same score and action, and
the same total and policy.  The last two are the state-by-state sums
``expord.value.policy_payoff`` and ``expord.value.mixed_strategy_payoff``
made before both passed their plans to one plan-payoff kernel; they take
inputs those functions have already validated, and the sums are exact, so
they must return the same Fraction.  ``tests/test_value.py`` compares them.
Every number here is a ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from expord.experiments import DecisionProblem, Experiment
from expord.numerics import InvalidInput
from expord.order import GarblingCertificate
from expord.value import PolicyTable


def reference_best_response(
    problem: DecisionProblem, measure: Sequence[Fraction]
) -> tuple[Fraction, int]:
    """Best score sum_t payoffs[a][t] measure[t], ties to the lowest index."""
    if len(measure) != problem.n_states:
        raise InvalidInput("measure dimension does not match the state set")
    best_score = None
    best_action = 0
    for a, row in enumerate(problem.payoffs):
        score = sum((u * m for u, m in zip(row, measure)), Fraction(0))
        if best_score is None or score > best_score:
            best_score = score
            best_action = a
    return best_score, best_action


def reference_value(
    problem: DecisionProblem, experiment: Experiment
) -> tuple[Fraction, PolicyTable]:
    """Sum over signals of the best response to prior times likelihood."""
    if problem.n_states != experiment.n_states:
        raise InvalidInput("decision problem and experiment state sets differ")
    total = Fraction(0)
    chosen: list[int] = []
    for j in range(experiment.n_signals):
        score, action = reference_best_response(
            problem,
            tuple(
                problem.prior.weights[t] * experiment.matrix[t][j]
                for t in range(problem.n_states)
            ),
        )
        total += score
        chosen.append(action)
    policy = PolicyTable(
        signals=experiment.signals,
        actions=tuple(problem.actions[a] for a in chosen),
        indices=tuple(chosen),
    )
    return total, policy


def reference_policy_payoff(
    problem: DecisionProblem, experiment: Experiment, policy: PolicyTable
) -> Fraction:
    """Sum of prior(t) pi(j|t) u(policy(j), t) over states and signals."""
    total = Fraction(0)
    for t in range(problem.n_states):
        weight = problem.prior.weights[t]
        if weight == 0:
            continue
        for j in range(experiment.n_signals):
            action = policy.indices[j]
            total += weight * experiment.matrix[t][j] * problem.payoffs[action][t]
    return total


def reference_mixed_strategy_payoff(
    problem: DecisionProblem,
    pi: Experiment,
    pi_prime: Experiment,
    certificate: GarblingCertificate,
    policy: PolicyTable,
    residual_policy: PolicyTable,
) -> Fraction:
    """The simulated strategy's payoff, channel part and residual part per (t, s')."""
    beta = certificate.beta
    gamma = certificate.gamma
    total = Fraction(0)
    for t in range(problem.n_states):
        weight = problem.prior.weights[t]
        if weight == 0:
            continue
        for j in range(pi_prime.n_signals):
            mass = weight * pi_prime.matrix[t][j]
            if mass == 0:
                continue
            for i in range(pi.n_signals):
                if certificate.psi[i][j] == 0:
                    continue
                action = policy.indices[i]
                total += mass * certificate.psi[i][j] / beta * problem.payoffs[action][t]
            fallback = 1 - gamma[j] / beta
            if fallback != 0:
                action = residual_policy.indices[j]
                total += mass * fallback * problem.payoffs[action][t]
    return total
