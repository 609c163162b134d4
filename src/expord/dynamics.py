"""Hidden-Markov belief dynamics, stopping problems, and dynamic separations.

A decision maker tracks a hidden Markov state through repeated noisy
signals.  The reachable beliefs after many periods settle into the limit of
iterated convex hulls of one-step updates; on that set, long-run comparisons
between experiments reduce to the weighted-garbling order.  This module
computes the iteration exactly, evaluates finite-horizon stopping problems by
backward induction, and constructs dynamic counterexamples: when the order
fails, a stopping problem on which the coarser experiment is strictly better
forever after.  Every Bayes update here is
:meth:`~expord.experiments.Experiment.bayes` against a pushed-forward
belief, and every stopping payoff is
:meth:`~expord.experiments.DecisionProblem.best_response` to a belief.

Hull points, updates, and stopping values are exact rationals.  Tolerances
appear only in stopping rules for the hull iteration and are themselves
exact comparisons against rational thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .beliefs import Belief, HullMembershipCertificate, hull_decide, hull_membership, posteriors
from .experiments import DecisionProblem, Experiment, Prior, check_belief
from .numerics import (
    EQ,
    GE,
    LE,
    OPTIMAL,
    InternalError,
    InvalidInput,
    RationalLike,
    as_rational,
    linear_program,
    solve,
)
from .order import check_weighted

Tolerance = Union[RationalLike, float]

# Deepest signal history stopping_value and merging_horizon will expand.
# Two signals already reach the 2**20 node limit at this depth; the cap
# also bounds the recursion and the power in that limit check.
_MAX_DEPTH = 20


def as_tolerance(value: Tolerance) -> Fraction:
    """Convert a tolerance to an exact threshold; floats convert exactly."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidInput("tolerance must be finite")
        converted = Fraction(value)
    else:
        converted = as_rational(value)
    if converted < 0:
        raise InvalidInput("tolerance must be nonnegative")
    return converted


@dataclass(frozen=True)
class MarkovChain:
    """An exact finite Markov chain over an experiment's hidden states."""

    states: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.states)
        if n == 0:
            raise InvalidInput("a chain needs at least one state")
        if len(set(self.states)) != n:
            raise InvalidInput("duplicate state labels")
        if len(self.rows) != n:
            raise InvalidInput("one transition row per state is required")
        for label, row in zip(self.states, self.rows):
            if len(row) != n:
                raise InvalidInput(f"row for state {label!r} has the wrong length")
            for entry in row:
                if not isinstance(entry, Fraction):
                    raise InvalidInput("transition entries must be Fractions")
                if entry < 0:
                    raise InvalidInput("transition entries must be nonnegative")
            if sum(row, Fraction(0)) != 1:
                raise InvalidInput(f"row for state {label!r} does not sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def strictly_positive(self) -> bool:
        return all(entry > 0 for row in self.rows for entry in row)

    def push_forward(self, belief: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """One transition step applied to a belief."""
        return tuple(
            sum((belief[t] * self.rows[t][u] for t in range(self.n_states)), Fraction(0))
            for u in range(self.n_states)
        )


def markov_chain(
    rows: Sequence[Sequence[RationalLike]], states: Sequence[str] | None = None
) -> MarkovChain:
    converted = tuple(tuple(as_rational(entry) for entry in row) for row in rows)
    labels = (
        tuple(states)
        if states is not None
        else tuple(f"t{i}" for i in range(len(converted)))
    )
    return MarkovChain(states=labels, rows=converted)


def iid_chain(prior: Prior, states: Sequence[str] | None = None) -> MarkovChain:
    """The chain whose every row is the given distribution."""
    labels = (
        tuple(states)
        if states is not None
        else tuple(f"t{i}" for i in range(len(prior.weights)))
    )
    return MarkovChain(states=labels, rows=tuple(prior.weights for _ in labels))


def stationary_distribution(chain: MarkovChain) -> tuple[Fraction, ...]:
    """Some exact stationary distribution of the chain (unique if irreducible)."""
    n = chain.n_states
    rows = []
    for u in range(n):
        coeffs = [chain.rows[t][u] for t in range(n)]
        coeffs[u] -= 1
        rows.append((coeffs, EQ, Fraction(0)))
    rows.append(([Fraction(1)] * n, EQ, Fraction(1)))
    outcome = solve(linear_program([Fraction(0)] * n, rows, sense="min"))
    if outcome.status != OPTIMAL:
        raise InternalError("every stochastic matrix has a fixed point")
    return outcome.x


def _check_shared_states(chain: MarkovChain, experiment: Experiment) -> None:
    if chain.states != experiment.states:
        raise InvalidInput("chain and experiment must share state labels")


@dataclass(frozen=True)
class BeliefSet:
    """A convex hull of beliefs, stored as its sorted extreme points."""

    points: tuple[Belief, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidInput("a belief set needs at least one point")

    def __len__(self) -> int:
        return len(self.points)

    def contains(self, belief: Sequence[Fraction]) -> bool:
        return hull_membership(belief, self.points) is not None

    def l1_distance(self, belief: Sequence[Fraction]) -> Fraction:
        """Exact L1 distance from a point to the hull, by LP."""
        point = check_belief(belief, len(self.points[0]))
        n_gen = len(self.points)
        dim = len(point)
        n_vars = n_gen + dim
        rows = []
        for t in range(dim):
            mix = [g[t] for g in self.points] + [Fraction(0)] * dim
            low = list(mix)
            low[n_gen + t] = Fraction(-1)
            rows.append((low, LE, point[t]))
            high = list(mix)
            high[n_gen + t] = Fraction(1)
            rows.append((high, GE, point[t]))
        rows.append(([Fraction(1)] * n_gen + [Fraction(0)] * dim, EQ, Fraction(1)))
        objective = [Fraction(0)] * n_gen + [Fraction(1)] * dim
        outcome = solve(linear_program(objective, rows, sense="min"))
        if outcome.status != OPTIMAL:
            raise InternalError(f"L1 distance program came back {outcome.status}")
        return outcome.objective


def belief_set(points: Sequence[Sequence[Fraction]]) -> BeliefSet:
    """Build a belief set, deduplicating and pruning non-extreme points.

    A point is extreme exactly when it is outside the hull of the others;
    removing a redundant point never changes the hull, so one pass of
    membership tests against the current survivors finds the extreme set.
    """
    if not points:
        raise InvalidInput("a belief set needs at least one point")
    dim = len(points[0])
    unique = sorted({check_belief(p, dim) for p in points})
    kept = list(unique)
    for point in unique:
        if len(kept) == 1:
            break
        rest = [q for q in kept if q != point]
        if hull_membership(point, rest) is not None:
            kept = rest
    return BeliefSet(points=tuple(kept))


def full_simplex(n_states: int) -> BeliefSet:
    if n_states < 1:
        raise InvalidInput("need at least one state")
    points = []
    for t in range(n_states):
        point = [Fraction(0)] * n_states
        point[t] = Fraction(1)
        points.append(tuple(point))
    return BeliefSet(points=tuple(points))


def update(
    chain: MarkovChain,
    experiment: Experiment,
    belief: Sequence[Fraction],
    signal: Union[int, str],
) -> Belief:
    """Transition-then-signal posterior update.

    The state moves one chain step from the current belief, then the signal
    is observed: r(s|mu) is :meth:`~expord.experiments.Experiment.bayes`
    of s against the pushed-forward belief.  Raises when the signal has
    probability zero there.
    """
    _check_shared_states(chain, experiment)
    point = check_belief(belief, chain.n_states)
    if isinstance(signal, str):
        try:
            j = experiment.signals.index(signal)
        except ValueError:
            raise InvalidInput(f"unknown signal {signal!r}") from None
    else:
        j = signal
        if not 0 <= j < experiment.n_signals:
            raise InvalidInput(f"signal index {j} out of range")
    _, posterior = experiment.bayes(chain.push_forward(point), j)
    if posterior is None:
        raise InvalidInput(
            f"signal {experiment.signals[j]!r} has probability zero at this belief"
        )
    return posterior


def eta_step(chain: MarkovChain, experiment: Experiment, hull: BeliefSet) -> BeliefSet:
    """One hull iteration: updates of every extreme point by every signal.

    Updating is Bayes reweighting, which maps convex combinations to convex
    combinations, so the extreme points of the image hull come from extreme
    points of the input.  Requires full-support signal likelihoods so every
    update is defined.
    """
    if not experiment.has_full_support():
        raise InvalidInput(
            "hull iteration requires every signal to have positive "
            "probability in every state"
        )
    images = [
        update(chain, experiment, point, j)
        for point in hull.points
        for j in range(experiment.n_signals)
    ]
    return belief_set(images)


@dataclass(frozen=True)
class EtaResult:
    """Converged (or truncated) limit of the hull iteration."""

    hull: BeliefSet
    iterations: int
    gap: Fraction
    converged: bool


def eta_limit(
    chain: MarkovChain,
    experiment: Experiment,
    tol: Tolerance = Fraction(1, 10 ** 6),
    max_iter: int = 64,
) -> EtaResult:
    """Iterate eta_step from the full simplex until hulls stop moving.

    The iterates are nested, so the Hausdorff distance between successive
    hulls is the largest distance from an old extreme point to the new
    hull, computed exactly.  Stops when the gap is below tol or exactly
    zero (a fixed point); the final hull over-approximates the true limit
    by at most the reported gap.  Limited to at most three states, where
    hull pruning stays small.
    """
    threshold = as_tolerance(tol)
    if chain.n_states > 3:
        raise InvalidInput("hull iteration supports at most three states")
    if max_iter < 1:
        raise InvalidInput("max_iter must be positive")
    current = full_simplex(chain.n_states)
    iterations = 0
    gap = Fraction(0)
    for _ in range(max_iter):
        following = eta_step(chain, experiment, current)
        iterations += 1
        gap = max(following.l1_distance(point) for point in current.points)
        current = following
        if gap == 0 or gap < threshold:
            return EtaResult(hull=current, iterations=iterations, gap=gap, converged=True)
    return EtaResult(hull=current, iterations=iterations, gap=gap, converged=False)


def regular_prior_check(
    chain: MarkovChain,
    experiment: Experiment,
    mu0: Prior,
    hull: BeliefSet,
    tol: Tolerance = Fraction(0),
) -> bool:
    """Do all one-step updates of the prior land (near) the hull?

    Signals of probability zero at the prior are skipped; for the rest the
    exact L1 distance to the hull must be at most tol.  The chain, the
    experiment and the prior must share one state set.
    """
    threshold = as_tolerance(tol)
    _check_shared_states(chain, experiment)
    predicted = chain.push_forward(check_belief(mu0.weights, chain.n_states))
    for j in range(experiment.n_signals):
        _, posterior = experiment.bayes(predicted, j)
        if posterior is not None and hull.l1_distance(posterior) > threshold:
            return False
    return True


@dataclass(frozen=True)
class MergingReport:
    """Outcome of the posterior-merging horizon search (L1 metric)."""

    horizon: int | None
    profile: tuple[Fraction, ...]
    monotone: bool
    epsilon: Fraction
    n_max: int


def merging_horizon(
    chain: MarkovChain,
    experiment: Experiment,
    epsilon: Tolerance,
    n_max: int = 12,
) -> MergingReport:
    """Smallest history length after which posteriors forget the start state.

    For each signal string, the row-normalized product of the matrices
    R(s)[t][t'] = rho(t -> t') pi(s|t') gives the time-n posterior from
    each starting state; the merging gap at n is the largest pairwise L1
    row distance over all strings.  Returns the least n with gap below
    epsilon, with the full gap profile up to that point.
    """
    threshold = as_tolerance(epsilon)
    _check_shared_states(chain, experiment)
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

    def row_gap(product) -> Fraction:
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
    profile: list[Fraction] = []
    horizon: int | None = None
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


@dataclass(frozen=True)
class StoppingProblem:
    """A finite-horizon stopping problem over a hidden Markov state.

    Each period the decision maker either stops, collecting the expected
    payoff of the best action at the current belief, or pays nothing and
    observes one more signal after a state transition.  Payoffs are
    normalized to [-1, 1].
    """

    problem: DecisionProblem
    chain: MarkovChain
    horizon: int

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise InvalidInput("the horizon must be a positive integer")
        if self.problem.n_states != self.chain.n_states:
            raise InvalidInput("decision problem and chain state sets differ")
        for row in self.problem.payoffs:
            for entry in row:
                if abs(entry) > 1:
                    raise InvalidInput("stopping problems require |payoff| <= 1")


def stopping_value(stopping: StoppingProblem, experiment: Experiment) -> Fraction:
    """Exact optimal value by backward induction on the belief tree.

    W_T(mu) is the best immediate payoff, the decision problem's
    :meth:`~expord.experiments.DecisionProblem.best_response` to mu;
    earlier, W_t(mu) is the max of stopping now and the expected W_{t+1}
    over the transition-then-signal update.  Beliefs repeat across the
    tree, so values are memoized per (period, belief).
    """
    _check_shared_states(stopping.chain, experiment)
    if stopping.horizon > _MAX_DEPTH:
        raise InvalidInput(f"the horizon may be at most {_MAX_DEPTH}")
    if experiment.n_signals ** stopping.horizon > 2 ** 20:
        raise InvalidInput("belief tree too large; lower the horizon")
    problem = stopping.problem
    chain = stopping.chain

    @lru_cache(maxsize=None)
    def w(t: int, belief: Belief) -> Fraction:
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


def counterexample(
    pi: Experiment, pi_prime: Experiment, mu: Prior
) -> tuple[DecisionProblem, MarkovChain, tuple[tuple[int, Fraction, Fraction], ...]] | None:
    """A stopping problem separating the pair dynamically, if any exists.

    When the weighted-garbling order fails, some posterior of ``pi`` falls
    outside the hull of the posteriors of ``pi_prime``.  The problem pairs
    a safe action worth a constant -1 with one action per outside
    posterior, canonically rescaled to vanish exactly there while staying
    at most -2 on the hull.  Under the i.i.d. chain with row ``mu``, every
    belief ever reachable with ``pi_prime`` stays inside the hull, where
    stopping is worth exactly the safe payoff at every horizon; with
    ``pi`` the outside posteriors recur each period and stopping there is
    worth 0, so one observation already earns strictly more.  The
    problem is re-verified for horizons 1..4, and those stopping values
    come back with it as (horizon, value with pi, value with pi_prime).
    """
    if pi.states != pi_prime.states:
        raise InvalidInput("experiments must share the same state labels")
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
    values = []
    for horizon in (1, 2, 3, 4):
        stopping = StoppingProblem(problem=problem, chain=chain, horizon=horizon)
        better = stopping_value(stopping, pi)
        worse = stopping_value(stopping, pi_prime)
        if not better > worse:
            raise InternalError("counterexample must separate at every horizon")
        values.append((horizon, better, worse))
    return problem, chain, tuple(values)
