"""The recursive stopping value, the matrix-product merging horizon and the
LP-first counterexample, kept as a test-only reference.

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

``reference_counterexample`` is ``expord.dynamics.counterexample`` as it was
when the psi LP of ``check_weighted`` decided the order before the per-atom
hull decisions built the problem.  The posterior characterization makes the
two decisions agree, so both must return the same problem, chain and values,
or None, on every pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from expord.beliefs import HullMembershipCertificate, hull_decide, posteriors
from expord.dynamics import (
    _MAX_DEPTH,
    MarkovChain,
    MergingReport,
    StoppingProblem,
    _induct,
    _walk,
    as_tolerance,
    iid_chain,
)
from expord.experiments import DecisionProblem, Experiment, Prior, _require_shared_states
from expord.numerics import InternalError, InvalidInput, RationalLike
from expord.order import check_weighted


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
    chain: MarkovChain, experiment: Experiment, epsilon: RationalLike, n_max: int = 12
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


def reference_counterexample(
    pi: Experiment, pi_prime: Experiment, mu: Prior
) -> tuple[DecisionProblem, MarkovChain, tuple[tuple[int, Fraction, Fraction], ...]] | None:
    """``counterexample`` as it was: the psi LP decides, then the hull walk builds."""
    _require_shared_states(pi, pi_prime)
    if not mu.full_support:
        raise InvalidInput("the construction needs a full-support prior")
    if check_weighted(pi, pi_prime) is not None:
        return None
    source = posteriors(pi, mu)
    generators = posteriors(pi_prime, mu).beliefs
    n = pi.n_states
    payoffs: list[tuple[Fraction, ...]] = [tuple(Fraction(-1) for _ in range(n))]
    for atom in source.atoms:
        functional = hull_decide(atom.belief, generators)
        if isinstance(functional, HullMembershipCertificate):
            continue
        witness_value = sum(
            (functional[t] * atom.belief[t] for t in range(n)), Fraction(0)
        )
        hull_max = max(
            sum((functional[t] * g[t] for t in range(n)), Fraction(0))
            for g in generators
        )
        # h - h(witness) vanishes at the witness; scaling by 2 / margin
        # pins it to at most -2 on the hull, below the safe action's -1.
        margin = witness_value - hull_max
        payoffs.append(
            tuple((h - witness_value) * 2 / margin for h in functional)
        )
    if len(payoffs) == 1:
        raise InternalError("a failed order must leave some posterior outside")
    peak = max(abs(entry) for row in payoffs for entry in row)
    if peak > 1:
        factor = Fraction(2)
        while factor < peak:
            factor *= 2
        payoffs = [tuple(entry / factor for entry in row) for row in payoffs]
    problem = DecisionProblem(
        actions=tuple(f"a{k}" for k in range(len(payoffs))),
        payoffs=tuple(payoffs),
        prior=mu,
    )
    chain = iid_chain(mu, states=pi.states)
    # The longest horizon's checks cover the shorter ones; one walk per
    # experiment serves every horizon.
    StoppingProblem(problem=problem, chain=chain, horizon=4)
    walks = [_walk(chain, experiment, mu.weights, 4) for experiment in (pi, pi_prime)]
    values = []
    for horizon in (1, 2, 3, 4):
        better, worse = (_induct(problem, walk, horizon) for walk in walks)
        if not better > worse:
            raise InternalError("counterexample must separate at every horizon")
        values.append((horizon, better, worse))
    return problem, chain, tuple(values)
