"""Decision-problem values and the payoff characterization of the order.

The value of an experiment for a decision problem is the expected payoff of
the best signal-contingent action plan, which plays on each signal the
:meth:`~expord.experiments.DecisionProblem.best_response` to the prior
times that signal's likelihood.  A weighted-garbling certificate of
size beta yields the guarantee

    V(P') >= (1/beta) V(P) + (1 - 1/beta) V(null)

for every decision problem, and the guarantee is not merely sound but
complete: when the order fails at size beta, an explicitly violating
decision problem can be constructed from the Farkas multipliers of the
size-beta cap, the program the order module decides.

The value and the bound run on integers.  One scoring kernel forms each
signal's joint measure in ints, from the prior and the likelihood matrix
each scaled once per object, and scores it against the problem's integer
payoff table.  :func:`value` wraps the kernel with the policy it chose;
:func:`value_null` and :func:`verify_bound` read only the score.
:func:`verify_bound` puts the three values and beta over one denominator,
so its slack is one integer whose sign is the verdict.  Each result is a
single exact Fraction, and :class:`BoundReport` re-checks the slack on
construction by an integer cross-multiplication arranged differently from
the one that computed it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .experiments import (
    DecisionProblem,
    Experiment,
    Prior,
    _fresh_label,
    _is_count,
    _require_shared_states,
    residual_experiment,
)
from .numerics import (
    LE,
    InternalError,
    InvalidInput,
    RationalLike,
    _clear_denominators,
    as_rational,
)
from .order import GarblingCertificate, _decide, verify_certificate


@dataclass(frozen=True)
class PolicyTable:
    """A deterministic action plan: one action per signal."""

    signals: tuple[str, ...]
    actions: tuple[str, ...]
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (len(self.signals) == len(self.actions) == len(self.indices)):
            raise InvalidInput("policy rows must align signals with actions")


def _check_compatible(problem: DecisionProblem, experiment: Experiment) -> None:
    if problem.n_states != experiment.n_states:
        raise InvalidInput("decision problem and experiment state sets differ")


def _check_policy(problem: DecisionProblem, policy: PolicyTable) -> None:
    for label, index in zip(policy.actions, policy.indices):
        if not (_is_count(index) and 0 <= index < problem.n_actions):
            raise InvalidInput(f"policy action index {index!r} is not an int in range")
        if problem.actions[index] != label:
            raise InvalidInput(
                f"policy labels action {index} {label!r}, "
                f"but the problem calls it {problem.actions[index]!r}"
            )


def policy_payoff(
    problem: DecisionProblem, experiment: Experiment, policy: PolicyTable
) -> Fraction:
    """Expected payoff of a fixed signal-contingent plan."""
    _check_compatible(problem, experiment)
    if policy.signals != experiment.signals:
        raise InvalidInput("policy is indexed by a different signal set")
    _check_policy(problem, policy)
    return _plan_payoff(problem, experiment, [{a: 1} for a in policy.indices])


def _plan_payoff(
    problem: DecisionProblem, experiment: Experiment, plan: list[dict[int, Fraction]]
) -> Fraction:
    """Expected payoff of playing action a on signal j with probability plan[j][a].

    The sum over states t and signals j of
    prior(t) pi(j|t) sum_a plan[j][a] u(a, t), in Fractions.
    """
    payoffs = problem.payoffs
    return sum(
        (
            weight * likelihood * p * payoffs[a][t]
            for t, (weight, row) in enumerate(zip(problem.prior.weights, experiment.matrix))
            for likelihood, mix in zip(row, plan)
            for a, p in mix.items()
        ),
        Fraction(0),
    )


def _score(
    problem: DecisionProblem, columns: tuple[tuple[int, ...], ...], scale: int
) -> tuple[int, int, list[int]]:
    """The optimal plan's integer score, its denominator and its actions.

    ``columns`` are the likelihood columns times the positive int ``scale``.
    Each signal plays the best response to the prior times its column, ties
    broken toward the lowest action index, and the score is the sum of those
    best responses in units of one over the positive denominator returned.
    """
    weights, prior_scale = problem.prior._integer_weights
    argmax = problem._argmax
    total = 0
    chosen: list[int] = []
    for column in columns:
        score, action = argmax(list(map(mul, weights, column)))
        total += score
        chosen.append(action)
    return total, problem.payoff_scale * prior_scale * scale, chosen


def value(problem: DecisionProblem, experiment: Experiment) -> tuple[Fraction, PolicyTable]:
    """Optimal expected payoff and an optimal deterministic policy.

    Each signal is treated separately: the optimal plan plays, on signal
    s, the best response to the joint measure mu(t) pi(s|t), ties broken
    toward the lowest action index.  The joint measures, the scores and
    the total are ints; one Fraction is built at the end.
    """
    _check_compatible(problem, experiment)
    total, denominator, chosen = _score(problem, *experiment._integer_columns)
    policy = PolicyTable(
        signals=experiment.signals,
        actions=tuple(problem.actions[a] for a in chosen),
        indices=tuple(chosen),
    )
    return Fraction(total, denominator), policy


def value_null(problem: DecisionProblem) -> Fraction:
    """Value of acting on the prior alone."""
    total, denominator, _ = _score(problem, ((1,) * problem.n_states,), 1)
    return Fraction(total, denominator)


_REPORT_NUMBERS = ("value_prime", "value_pi", "value_noinfo", "beta", "slack")


@dataclass(frozen=True)
class BoundReport:
    """Both sides of the size-beta payoff guarantee, evaluated exactly.

    ``slack`` is V(P') - [(1/beta) V(P) + (1 - 1/beta) V(null)] and
    ``holds`` says whether it is nonnegative.  Construction refuses a
    numeric field that is not a Fraction, a beta below 1, a slack that is
    not the difference of the two sides, and a ``holds`` that is not the
    slack's sign.  The slack is re-checked over integers, through the
    rearranged identity (V(P') - slack - V(null)) beta = V(P) - V(null)
    cross-multiplied by the positive denominators.
    """

    value_prime: Fraction
    value_pi: Fraction
    value_noinfo: Fraction
    beta: Fraction
    slack: Fraction
    holds: bool

    def __post_init__(self) -> None:
        numbers = (self.value_prime, self.value_pi, self.value_noinfo, self.beta, self.slack)
        for name, number in zip(_REPORT_NUMBERS, numbers):
            if not isinstance(number, Fraction):
                raise InvalidInput(f"{name} must be a Fraction, got {number!r}")
        if type(self.holds) is not bool:
            raise InvalidInput(f"holds must be a bool, got {self.holds!r}")
        b, c = self.beta.numerator, self.beta.denominator
        if b < c:
            raise InvalidInput(f"the bound is defined for beta >= 1, got {self.beta}")
        p1, q1 = self.value_prime.numerator, self.value_prime.denominator
        p2, q2 = self.value_pi.numerator, self.value_pi.denominator
        p3, q3 = self.value_noinfo.numerator, self.value_noinfo.denominator
        ps, qs = self.slack.numerator, self.slack.denominator
        if (p1 * qs * q3 - ps * q1 * q3 - p3 * q1 * qs) * b * q2 != (
            p2 * q3 - p3 * q2
        ) * c * q1 * qs:
            raise InvalidInput("slack is not the difference of the two sides")
        if self.holds != (ps >= 0):
            raise InvalidInput("holds flag contradicts the slack sign")


def verify_bound(
    problem: DecisionProblem,
    pi: Experiment,
    pi_prime: Experiment,
    beta: RationalLike,
) -> BoundReport:
    """Evaluate V(P') - [(1/beta) V(P) + (1 - 1/beta) V(null)] exactly."""
    scale = as_rational(beta)
    if scale < 1:
        raise InvalidInput(f"the bound is defined for beta >= 1, got {scale}")
    _require_shared_states(pi, pi_prime)
    _check_compatible(problem, pi_prime)
    s1, q1, _ = _score(problem, *pi_prime._integer_columns)
    s2, q2, _ = _score(problem, *pi._integer_columns)
    base = value_null(problem)
    s3, q3 = base.numerator, base.denominator
    # With beta = b/c, V(P') = s1/q1, V(P) = s2/q2 and V(null) = s3/q3, the
    # slack is one integer over the positive denominator b q1 q2 q3, so its
    # sign is the numerator's.
    b, c = scale.numerator, scale.denominator
    numerator = b * s1 * q2 * q3 - c * s2 * q1 * q3 - (b - c) * s3 * q1 * q2
    return BoundReport(
        value_prime=Fraction(s1, q1),
        value_pi=Fraction(s2, q2),
        value_noinfo=base,
        beta=scale,
        slack=Fraction(numerator, b * q1 * q2 * q3),
        holds=numerator >= 0,
    )


def falsify_bound(
    pi: Experiment, pi_prime: Experiment, beta: RationalLike
) -> DecisionProblem | None:
    """Find a decision problem violating the size-beta guarantee, if any.

    The guarantee holds for every decision problem exactly when ``pi`` is a
    weighted garbling of ``pi_prime`` of size at most beta, so this asks
    the order that capped question, the program ``check_weighted(pi,
    pi_prime, beta)`` decides.  When it is infeasible, the multipliers
    y(s, t) of its reproduction rows price the states: actions a_s with
    payoffs u(a_s, t) = y(s, t) |states|, and a null action paying zero,
    under the uniform prior make V(P) / beta exceed V(P'), which the
    nonpositive multipliers of the column rows bound, a strict violation
    of the bound.  Outside the order the multipliers are the first
    infeasible block's, which the order module remembers for the last
    pair asked about: a bet on a posterior of ``pi`` off the hull of
    ``pi_prime``'s, so one problem refutes every beta, with V(P') =
    V(null) = 0 < V(P) / beta.
    Payoffs are rescaled into [-1, 1] and the violation is re-verified
    before returning.
    """
    scale = as_rational(beta)
    if scale < 1:
        raise InvalidInput(f"the bound is defined for beta >= 1, got {scale}")
    farkas = _decide(pi, pi_prime, ((), LE, (scale,) * pi_prime.n_signals))
    if isinstance(farkas, GarblingCertificate):
        return None
    farkas += ((Fraction(0),) * pi.n_states,)
    # The payoffs are y |states|, divided by their peak when it exceeds one:
    # with y = f / D over integers f and P = max |f|, that is f / P when
    # P |states| > D and f |states| / D otherwise.
    n_states = pi.n_states
    flat, denominator = _clear_denominators([y for row in farkas for y in row])
    peak = max(map(abs, flat))
    if peak == 0:
        raise InternalError("a Farkas certificate cannot have all-zero row multipliers")
    if peak * n_states > denominator:
        entries = [Fraction(f, peak) for f in flat]
    else:
        entries = [Fraction(f * n_states, denominator) for f in flat]
    null_label = _fresh_label("null", pi.signals)
    problem = DecisionProblem(
        actions=tuple(f"a_{signal}" for signal in pi.signals + (null_label,)),
        payoffs=tuple(
            tuple(entries[k : k + n_states]) for k in range(0, len(entries), n_states)
        ),
        prior=Prior(weights=tuple(Fraction(1, n_states) for _ in range(n_states))),
    )
    if verify_bound(problem, pi, pi_prime, scale).holds:
        raise InternalError("falsifier construction must violate the bound")
    return problem


def random_decision_problem(
    seed: int,
    n_actions: int,
    n_states: int,
    denominator_bound: int = 12,
) -> DecisionProblem:
    """Seeded random decision problem with payoffs in [-1, 1].

    Each payoff is p/q with q <= denominator_bound and |p| <= q; the prior
    is full support with the same denominator discipline.
    """
    if not _is_count(seed):
        raise InvalidInput(f"the seed must be an int, got {seed!r}")
    if not all(_is_count(n) and n >= 1 for n in (n_actions, n_states, denominator_bound)):
        raise InvalidInput("counts and the denominator bound must be positive ints")
    rng = random.Random(seed)
    # randrange(n) draws as randint does, with less argument handling.
    draw = rng.randrange
    payoffs = tuple(
        tuple(
            Fraction(draw(2 * q + 1) - q, q)
            for q in (1 + draw(denominator_bound) for _ in range(n_states))
        )
        for _ in range(n_actions)
    )
    raw = [1 + draw(denominator_bound) for _ in range(n_states)]
    total = sum(raw)
    weights = tuple(Fraction(w, total) for w in raw)
    return DecisionProblem(
        actions=tuple(f"a{i}" for i in range(n_actions)),
        payoffs=payoffs,
        prior=Prior(weights=weights),
    )


def mixed_strategy_payoff(
    problem: DecisionProblem,
    pi: Experiment,
    pi_prime: Experiment,
    certificate: GarblingCertificate,
    policy: PolicyTable,
    residual_policy: PolicyTable,
) -> Fraction:
    """Payoff of the simulated strategy a certificate induces on pi_prime.

    On signal s' the strategy plays the pi policy pushed through the
    channel with probability gamma(s')/beta and falls back to the residual
    policy otherwise.  Its payoff decomposes exactly as
    (1/beta) U(policy; pi) + (1 - 1/beta) U(residual_policy; residual).
    """
    if certificate.pi != pi or certificate.pi_prime != pi_prime:
        raise InvalidInput("certificate does not concern this pair of experiments")
    if not verify_certificate(certificate):
        raise InvalidInput("certificate does not verify")
    _check_compatible(problem, pi_prime)
    if policy.signals != pi.signals:
        raise InvalidInput("policy is indexed by a different signal set")
    if residual_policy.signals != pi_prime.signals:
        raise InvalidInput("residual policy must be indexed by pi_prime's signals")
    _check_policy(problem, policy)
    _check_policy(problem, residual_policy)
    beta = certificate.beta
    if beta == 1:
        raise InvalidInput(
            "size-1 certificates leave no residual; use the garbled policy directly"
        )
    # On s' the residual action has chance 1 - gamma(s')/beta, and garbling
    # s' to s, then playing the pi policy's action at s, has psi(s, s')/beta.
    plan = [{a: 1 - g / beta} for a, g in zip(residual_policy.indices, certificate.gamma)]
    for action, row in zip(policy.indices, certificate.psi):
        for mix, entry in zip(plan, row):
            mix[action] = mix.get(action, 0) + entry / beta
    return _plan_payoff(problem, pi_prime, plan)


def residual_for(certificate: GarblingCertificate) -> Experiment:
    """The residual experiment of a certificate's weight (size > 1)."""
    return residual_experiment(certificate.pi_prime, certificate.weight())
