"""The Fraction best-response, value and plan-payoff loops, kept as a test-only reference.

The first two are the loops ``expord.experiments.DecisionProblem.best_response``
and ``expord.value.value`` ran before they moved to integers over one shared
denominator.  Both compare the same scores in the same order, so on every
input they must return identical results: the same score and action, and
the same total and policy.  The last two are the state-by-state sums
``expord.value.policy_payoff`` and ``expord.value.mixed_strategy_payoff``
made before both passed their plans to one plan-payoff kernel; they take
inputs those functions have already validated, and the sums are exact, so
they must return the same Fraction.  ``reference_verify_bound`` is
``expord.value.verify_bound`` as it was before it scored both experiments
and the prior in one integer pass, with the two loops above in place of
``value`` and ``value_null``, and ``reference_report_consistent`` is the
Fraction predicate ``BoundReport`` checked before it moved to integers.
``tests/test_value.py`` compares them.  Every number here is a
``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from expord.experiments import DecisionProblem, Experiment, _require_shared_states
from expord.numerics import InvalidInput, RationalLike, as_rational
from expord.order import GarblingCertificate
from expord.value import BoundReport, PolicyTable


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


def reference_verify_bound(
    problem: DecisionProblem,
    pi: Experiment,
    pi_prime: Experiment,
    beta: RationalLike,
) -> BoundReport:
    """V(P') - [(1/beta) V(P) + (1 - 1/beta) V(null)] from three Fraction values."""
    scale = as_rational(beta)
    if scale < 1:
        raise InvalidInput(f"the bound is defined for beta >= 1, got {scale}")
    _require_shared_states(pi, pi_prime)
    value_prime, _ = reference_value(problem, pi_prime)
    value_pi, _ = reference_value(problem, pi)
    base, _ = reference_best_response(problem, problem.prior.weights)
    b, c = scale.numerator, scale.denominator
    p1, q1 = value_prime.numerator, value_prime.denominator
    p2, q2 = value_pi.numerator, value_pi.denominator
    p3, q3 = base.numerator, base.denominator
    numerator = b * p1 * q2 * q3 - c * p2 * q1 * q3 - (b - c) * p3 * q1 * q2
    return BoundReport(
        value_prime=value_prime,
        value_pi=value_pi,
        value_noinfo=base,
        beta=scale,
        slack=Fraction(numerator, b * q1 * q2 * q3),
        holds=numerator >= 0,
    )


def reference_report_consistent(
    value_prime: Fraction,
    value_pi: Fraction,
    value_noinfo: Fraction,
    beta: Fraction,
    slack: Fraction,
    holds: bool,
) -> bool:
    """Is ``slack`` the difference of the two sides, and ``holds`` its sign?"""
    rhs = value_pi / beta + (1 - 1 / beta) * value_noinfo
    return slack == value_prime - rhs and holds == (slack >= 0)
