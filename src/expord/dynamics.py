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

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable, Sequence, Union

from .beliefs import Belief, HullMembershipCertificate, hull_decide, hull_membership, posteriors
from .experiments import (
    DecisionProblem, Experiment, Prior, _check_distribution, _check_labels, _check_measure,
    _default_labels, _is_count, _require_shared_states, check_belief,
)
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

# Deepest signal history stopping_value and merging_horizon will expand.
_MAX_DEPTH = 20

# Most (node, signal) steps one level of stopping_value or merging_horizon may
# take: a level of distinct nodes is expanded only if len(level) * n_signals
# stays within it.  A level at depth t holds at most n_signals ** t nodes, so
# any depth T with n_signals ** T within the budget is always reached.
_MAX_STEPS = 2 ** 20


def as_tolerance(value: RationalLike) -> Fraction:
    """Convert a tolerance to an exact, nonnegative threshold."""
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
        _check_labels(self.states, "state")
        n = len(self.states)
        if len(self.rows) != n:
            raise InvalidInput("one transition row per state is required")
        for label, row in zip(self.states, self.rows):
            _check_distribution(row, n, "transition row for state", label)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def strictly_positive(self) -> bool:
        return all(entry > 0 for row in self.rows for entry in row)

    def push_forward(self, belief: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """One transition step applied to a belief, given as ints or Fractions."""
        _check_measure(belief, self.n_states)
        return tuple(
            sum((belief[t] * self.rows[t][u] for t in range(self.n_states)), Fraction(0))
            for u in range(self.n_states)
        )


def markov_chain(
    rows: Sequence[Sequence[RationalLike]], states: Sequence[str] | None = None
) -> MarkovChain:
    converted = tuple(tuple(as_rational(entry) for entry in row) for row in rows)
    labels = tuple(states) if states is not None else _default_labels("t", len(converted))
    return MarkovChain(states=labels, rows=converted)


def iid_chain(prior: Prior, states: Sequence[str] | None = None) -> MarkovChain:
    """The chain whose every row is the given distribution."""
    labels = tuple(states) if states is not None else _default_labels("t", len(prior.weights))
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


def _successors(chain: MarkovChain, experiment: Experiment, belief: Belief) -> list:
    """The transition-then-signal step from a belief, for every signal.

    The state moves one chain step; entry j is then
    :meth:`~expord.experiments.Experiment.bayes` of signal j against the
    pushed-forward belief, its mass and posterior (None at mass zero).
    """
    predicted = chain.push_forward(belief)
    return [experiment.bayes(predicted, j) for j in range(experiment.n_signals)]


def _expand(level: list, n_signals: int, children: Callable) -> tuple[list, list]:
    """The distinct children of a level, and each node's edges into them.

    ``children(node)`` gives one ``(mass, child)`` pair per signal, child
    None at mass zero.  ``edges[i]`` holds a ``(mass, index into the next
    level)`` pair per child of ``level[i]``, so each child is hashed once per
    edge.  The level's ``len(level) * n_signals`` steps are checked against
    ``_MAX_STEPS`` before the first is taken.
    """
    steps = len(level) * n_signals
    if steps > _MAX_STEPS:
        raise InvalidInput(
            f"the next level takes {steps} steps ({len(level)} nodes x {n_signals} "
            f"signals), more than the {_MAX_STEPS} allowed; lower the horizon"
        )
    index: dict = {}
    edges = [
        [(mass, index.setdefault(child, len(index))) for mass, child in pairs if child]
        for pairs in map(children, level)
    ]
    return list(index), edges


@dataclass(frozen=True)
class BeliefSet:
    """A convex hull of beliefs, stored as its sorted extreme points."""

    points: tuple[Belief, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.points, tuple) and all(isinstance(p, tuple) for p in self.points)):
            raise InvalidInput("belief-set points must be a tuple of tuples")
        if not self.points:
            raise InvalidInput("a belief set needs at least one point")
        dim = len(self.points[0])
        for point in self.points:
            _check_distribution(point, dim, "belief-set point")

    def __len__(self) -> int:
        return len(self.points)

    def contains(self, belief: Sequence[Fraction]) -> bool:
        return hull_membership(belief, self.points) is not None

    def l1_distance(self, belief: Sequence[Fraction]) -> Fraction:
        """Exact L1 distance from a point to the hull, by LP."""
        point = check_belief(belief, len(self.points[0]))
        n_gen = len(self.points)
        dim = len(point)
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
    if not _is_count(n_states):
        raise InvalidInput(f"the number of states must be an int, got {n_states!r}")
    if n_states < 1:
        raise InvalidInput("need at least one state")
    axes = range(n_states)
    return BeliefSet(tuple(tuple(Fraction(int(t == u)) for u in axes) for t in axes))


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
    _require_shared_states(chain, experiment, "chain and experiment")
    point = check_belief(belief, chain.n_states)
    if isinstance(signal, str):
        try:
            j = experiment.signals.index(signal)
        except ValueError:
            raise InvalidInput(f"unknown signal {signal!r}") from None
    else:
        j = signal
        if not (_is_count(j) and 0 <= j < experiment.n_signals):
            raise InvalidInput(f"signal index {j!r} is not an int in range")
    _, posterior = _successors(chain, experiment, point)[j]
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
    update is defined, and each point takes one transition-then-signal step.
    """
    if not experiment.has_full_support():
        raise InvalidInput(
            "hull iteration requires every signal to have positive "
            "probability in every state"
        )
    _require_shared_states(chain, experiment, "chain and experiment")
    points = [check_belief(point, chain.n_states) for point in hull.points]
    return belief_set(
        [image for point in points for _, image in _successors(chain, experiment, point)]
    )


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
    tol: RationalLike = Fraction(1, 10 ** 6),
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
    if not _is_count(max_iter) or max_iter < 1:
        raise InvalidInput("max_iter must be a positive integer")
    current = full_simplex(chain.n_states)
    for iterations in range(1, max_iter + 1):
        following = eta_step(chain, experiment, current)
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
    tol: RationalLike = Fraction(0),
) -> bool:
    """Do all one-step updates of the prior land (near) the hull?

    Signals of probability zero at the prior are skipped; for the rest the
    exact L1 distance to the hull must be at most tol.  The chain, the
    experiment and the prior must share one state set.
    """
    threshold = as_tolerance(tol)
    _require_shared_states(chain, experiment, "chain and experiment")
    point = check_belief(mu0.weights, chain.n_states)
    return all(
        posterior is None or hull.l1_distance(posterior) <= threshold
        for _, posterior in _successors(chain, experiment, point)
    )


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
    epsilon: RationalLike,
    n_max: int = 12,
) -> MergingReport:
    """Smallest history length after which posteriors forget the start state.

    A node is the tuple of posteriors, one per starting state, after one
    signal string; its children are the transition-then-signal updates of
    every entry by each signal.  Equal nodes are walked once.  The merging
    gap at n is the largest pairwise L1 distance between the entries of a
    node at depth n.  Returns the least n with gap below epsilon, with the
    full gap profile up to that point.
    """
    threshold = as_tolerance(epsilon)
    _require_shared_states(chain, experiment, "chain and experiment")
    if not (_is_count(n_max) and 1 <= n_max <= _MAX_DEPTH):
        raise InvalidInput(f"n_max must be an integer in 1..{_MAX_DEPTH}")
    if not chain.strictly_positive:
        raise InvalidInput("merging requires a strictly positive chain")
    for j, signal in enumerate(experiment.signals):
        if all(experiment.matrix[t][j] == 0 for t in range(experiment.n_states)):
            raise InvalidInput(
                f"signal {signal!r} is impossible in every state; "
                "row normalization would divide by zero"
            )

    def children(node):
        # Under a strictly positive chain every possible signal has positive
        # mass from every belief, so no posterior is None.
        per_start = [_successors(chain, experiment, belief) for belief in node]
        return [tuple(zip(*updates)) for updates in zip(*per_start)]

    def gap(node) -> Fraction:
        return max(
            (sum(abs(x - y) for x, y in zip(p, q)) for p, q in combinations(node, 2)),
            default=Fraction(0),
        )

    level = [tuple(full_simplex(chain.n_states).points)]
    profile: list[Fraction] = []
    horizon: int | None = None
    for depth in range(1, n_max + 1):
        level, _ = _expand(level, experiment.n_signals, children)
        profile.append(max(gap(node) for node in level))
        if profile[-1] < threshold:
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
        if not _is_count(self.horizon) or self.horizon < 1:
            raise InvalidInput("the horizon must be a positive integer")
        if self.problem.n_states != self.chain.n_states:
            raise InvalidInput("decision problem and chain state sets differ")
        for row in self.problem.payoffs:
            for entry in row:
                if abs(entry) > 1:
                    raise InvalidInput("stopping problems require |payoff| <= 1")


def _walk(chain: MarkovChain, experiment: Experiment, root: Belief, depth: int) -> tuple:
    """Levels 0..depth of the distinct beliefs reachable from ``root``, and their edges.

    Level t + 1 holds the transition-then-signal updates of level t, and
    ``edges[t][i]`` keeps each update of ``levels[t][i]`` as a pair (mass,
    index into level t + 1).
    """
    step = partial(_successors, chain, experiment)
    levels = [[root]]
    edges = []
    for _ in range(depth):
        following, links = _expand(levels[-1], experiment.n_signals, step)
        levels.append(following)
        edges.append(links)
    return levels, edges


def _induct(problem: DecisionProblem, walk: tuple, horizon: int) -> Fraction:
    """W_0 at the root of a walk at least ``horizon`` deep, by backward induction.

    W_horizon(mu) is the best immediate payoff, the decision problem's
    :meth:`~expord.experiments.DecisionProblem.best_response` to mu;
    earlier, W_t(mu) is the max of stopping now and the expected W_{t+1}
    along mu's edges.
    """
    levels, edges = walk
    values = [problem.best_response(belief)[0] for belief in levels[horizon]]
    for level, links in zip(reversed(levels[:horizon]), reversed(edges[:horizon])):
        values = [
            max(problem.best_response(belief)[0], sum(m * values[k] for m, k in link))
            for belief, link in zip(level, links)
        ]
    return values[0]


def stopping_value(stopping: StoppingProblem, experiment: Experiment) -> Fraction:
    """Exact optimal value by backward induction over levels of beliefs.

    The levels of distinct beliefs are walked forward from the prior to the
    horizon, then the value is induced back to the prior.
    """
    _require_shared_states(stopping.chain, experiment, "chain and experiment")
    if stopping.horizon > _MAX_DEPTH:
        raise InvalidInput(f"the horizon may be at most {_MAX_DEPTH}")
    walk = _walk(stopping.chain, experiment, stopping.problem.prior.weights, stopping.horizon)
    return _induct(stopping.problem, walk, stopping.horizon)


def counterexample(
    pi: Experiment, pi_prime: Experiment, mu: Prior
) -> tuple[DecisionProblem, MarkovChain, tuple[tuple[int, Fraction, Fraction], ...]] | None:
    """A stopping problem separating the pair dynamically, if any exists.

    The weighted-garbling order holds exactly when every posterior of ``pi``
    lies in the hull of the posteriors of ``pi_prime``, so one
    :func:`~expord.beliefs.hull_decide` per posterior of ``pi`` decides it,
    and None comes back when none lies outside.  The problem pairs
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
    _require_shared_states(pi, pi_prime)
    if not mu.full_support:
        raise InvalidInput("the construction needs a full-support prior")
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
        return None
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
