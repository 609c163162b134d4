"""Finite statistical experiments, priors, weights, and decision problems.

An experiment maps each hidden state to an exact probability distribution
over a finite signal alphabet.  A weight attached to an experiment rescales
its signal columns while preserving total mass one under every state; weights
are the raw material of the weighted-garbling order implemented in
:mod:`expord.order`.  Everything validates eagerly and stores Fractions, so
any object that exists is coherent.

Three decisions every other layer makes live here, once each: Bayes' rule
(:meth:`Experiment.bayes`), the best action against a belief
(:meth:`DecisionProblem.best_response`), and what counts as a belief
(:func:`check_belief`).  So does one check per input invariant: an exact
probability vector, a Fraction table of a given shape, a valid weight for
an experiment, a count, a label tuple, shared state labels and a measure.

A decision problem also keeps its payoff table as integers over one
positive denominator, the LCM of the payoff denominators, computed once
when the problem is built.  The best response scores every action in
Python ints against a measure scaled the same way, so no Fraction is
normalized until the single score it returns.  Positive scale factors
keep every comparison and every tie exactly as in Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .numerics import InvalidInput, RationalLike, _clear_denominators, as_rational


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _check_measure(measure: Sequence[Fraction], n_states: int) -> None:
    """One int or Fraction per state; floats and bools are refused as in as_rational."""
    if len(measure) != n_states:
        raise InvalidInput("measure dimension does not match the state set")
    for entry in measure:
        if type(entry) is not Fraction and type(entry) is not int:
            raise InvalidInput(f"measure entry {entry!r} is not an int or a Fraction")


def _is_count(value: object) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject(what: str, label: str | None, problem: str) -> InvalidInput:
    name = what if label is None else f"{what} {label!r}"
    return InvalidInput(f"{name} {problem}")


def _check_distribution(
    entries: Sequence[Fraction], length: int, what: str, label: str | None = None
) -> tuple[list[int], int]:
    """``length`` Fractions, none negative, summing to exactly 1.

    ``what`` (followed by ``label``, when given) names the vector in the
    error message.  The sum is taken over integers: the entries times
    ``scale``, the LCM of their denominators, are returned with ``scale``.
    Each form sums to its scale, so two vectors that pass are equal exactly
    when their integer forms are.
    """
    if len(entries) != length:
        raise _reject(what, label, f"has {len(entries)} entries, expected {length}")
    ratios = []
    for entry in entries:
        if not isinstance(entry, Fraction):
            raise _reject(what, label, f"entries must be Fractions, got {entry!r}")
        ratio = entry.as_integer_ratio()
        if ratio[0] < 0:
            raise _reject(what, label, f"has a negative entry {entry}")
        ratios.append(ratio)
    scale = lcm(*[d for _, d in ratios])
    ints = [n * (scale // d) for n, d in ratios]
    total = sum(ints)
    if total != scale:
        raise _reject(what, label, f"sums to {Fraction(total, scale)}, expected 1")
    return ints, scale


def _check_table(
    table: Sequence[Sequence[Fraction]], n_rows: int, n_cols: int, what: str
) -> None:
    """``n_rows`` rows of ``n_cols`` Fractions each."""
    if len(table) != n_rows:
        raise InvalidInput(f"{what} has {len(table)} rows, expected {n_rows}")
    for i, row in enumerate(table):
        if len(row) != n_cols:
            raise InvalidInput(f"{what} row {i} has {len(row)} entries, expected {n_cols}")
        for entry in row:
            if not isinstance(entry, Fraction):
                raise InvalidInput(f"{what} entries must be Fractions, got {entry!r}")


def _check_labels(labels: tuple[str, ...], kind: str) -> None:
    if not labels:
        raise InvalidInput(f"{kind} labels must be nonempty")
    for label in labels:
        if not isinstance(label, str) or not label:
            raise InvalidInput(f"{kind} labels must be nonempty strings")
    if len(set(labels)) != len(labels):
        raise InvalidInput(f"duplicate {kind} labels: {labels!r}")


def _require_shared_states(first, second, what: str = "experiments") -> None:
    """Two objects with ``states`` labels, such as experiments or a chain, must agree on them."""
    if first.states != second.states:
        raise InvalidInput(f"{what} must share state labels")


@dataclass(frozen=True)
class Experiment:
    """A finite experiment: one signal distribution per hidden state.

    ``matrix[i][j]`` is the probability of signal ``signals[j]`` given state
    ``states[i]``.  Rows must be exact probability vectors.
    """

    states: tuple[str, ...]
    signals: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.states, tuple) and isinstance(self.signals, tuple)):
            raise InvalidInput("state and signal labels must be tuples")
        matrix = self.matrix
        if not (isinstance(matrix, tuple) and all(isinstance(row, tuple) for row in matrix)):
            raise InvalidInput("the matrix must be a tuple of tuples")
        _check_labels(self.states, "state")
        _check_labels(self.signals, "signal")
        if len(self.matrix) != len(self.states):
            raise InvalidInput("one matrix row per state is required")
        n_signals = len(self.signals)
        for label, row in zip(self.states, self.matrix):
            _check_distribution(row, n_signals, "row for state", label)

    @cached_property
    def _integer_columns(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Each column times ``scale``, the LCM of the denominators, as ints; and ``scale``."""
        flat, scale = _clear_denominators([p for row in self.matrix for p in row])
        n = self.n_signals
        return tuple(tuple(flat[j::n]) for j in range(n)), scale

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    def has_full_support(self) -> bool:
        """True when every signal has positive probability in every state."""
        return all(entry > 0 for row in self.matrix for entry in row)

    def bayes(
        self, measure: Sequence[Fraction], j: int
    ) -> tuple[Fraction, tuple[Fraction, ...] | None]:
        """Bayes' rule for signal ``j`` against a measure over states.

        Returns the signal's mass, sum_t measure[t] matrix[t][j], and the
        posterior measure[t] matrix[t][j] / mass, which is None when the
        mass is zero.  The measure is typically a prior or a pushed-forward
        belief.  The joint is formed in ints, over one denominator.
        """
        if not (_is_count(j) and 0 <= j < self.n_signals):
            raise InvalidInput(f"signal index {j!r} is not an int in range")
        _check_measure(measure, self.n_states)
        weights, scale = _clear_denominators(measure)
        columns, matrix_scale = self._integer_columns
        joint = list(map(mul, weights, columns[j]))
        total = sum(joint)
        if total == 0:
            return Fraction(0), None
        mass = Fraction(total, scale * matrix_scale)
        return mass, tuple(Fraction(entry, total) for entry in joint)


def validate_experiment(
    rows: Iterable[Sequence[RationalLike]],
    states: Sequence[str] | None = None,
    signals: Sequence[str] | None = None,
) -> Experiment:
    """Build an :class:`Experiment` from raw rows, checking every invariant.

    Rows may mix ints, Fractions, and rational strings.  Labels default to
    ``t0, t1, ...`` for states and ``s0, s1, ...`` for signals.
    """
    matrix = tuple(tuple(as_rational(entry) for entry in row) for row in rows)
    if not matrix:
        raise InvalidInput("an experiment needs at least one state")
    n_signals = len(matrix[0])
    state_labels = tuple(states) if states is not None else _default_labels("t", len(matrix))
    signal_labels = tuple(signals) if signals is not None else _default_labels("s", n_signals)
    return Experiment(states=state_labels, signals=signal_labels, matrix=matrix)


@dataclass(frozen=True)
class Prior:
    """An exact probability vector over hidden states."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.weights, tuple):
            raise InvalidInput(f"prior weights must be a tuple, got {self.weights!r}")
        _check_distribution(self.weights, len(self.weights), "prior")

    @cached_property
    def _integer_weights(self) -> tuple[tuple[int, ...], int]:
        """The weights times ``scale``, the LCM of their denominators, as ints; and ``scale``."""
        weights, scale = _clear_denominators(self.weights)
        return tuple(weights), scale

    @property
    def full_support(self) -> bool:
        return all(entry > 0 for entry in self.weights)


def check_belief(belief: Sequence[RationalLike], n_states: int) -> tuple[Fraction, ...]:
    """A belief over ``n_states`` states as exact Fractions, or InvalidInput.

    A belief has one entry per state, no negative entry, and entries that
    sum to exactly one.
    """
    point = tuple(as_rational(entry) for entry in belief)
    _check_distribution(point, n_states, "belief")
    return point


def prior(weights: Sequence[RationalLike]) -> Prior:
    return Prior(weights=tuple(as_rational(w) for w in weights))


def uniform_prior(n_states: int) -> Prior:
    if not _is_count(n_states):
        raise InvalidInput(f"the number of states must be an int, got {n_states!r}")
    if n_states < 1:
        raise InvalidInput("a prior needs at least one state")
    return Prior(weights=tuple(Fraction(1, n_states) for _ in range(n_states)))


def weight_check(experiment: Experiment, values: Sequence[Fraction]) -> bool:
    """Is ``values`` a valid weight for ``experiment``?

    A weight assigns a nonnegative factor to each signal such that the
    reweighted rows still sum to one in every state.  An entry that is not
    an int or a Fraction raises InvalidInput.
    """
    if len(values) != experiment.n_signals:
        return False
    _check_measure(values, experiment.n_signals)
    if any(v < 0 for v in values):
        return False
    for row in experiment.matrix:
        total = sum((v * p for v, p in zip(values, row)), Fraction(0))
        if total != 1:
            return False
    return True


@dataclass(frozen=True)
class Weight:
    """A validated weight for a specific experiment.

    ``size`` is the largest factor.  The all-ones weight is always valid,
    and any valid weight has some factor >= 1 (reweighted rows could not
    reach mass one otherwise), so ``size >= 1`` always holds.
    """

    values: tuple[Fraction, ...]
    size: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            raise InvalidInput(f"weight factors must be a tuple, got {self.values!r}")
        if not self.values:
            raise InvalidInput("a weight needs at least one factor")
        if not all(isinstance(v, Fraction) for v in (*self.values, self.size)):
            raise InvalidInput("weight factors and size must be Fractions")
        if self.size != max(self.values):
            raise InvalidInput("weight size must equal the largest factor")
        if self.size < 1:
            raise InvalidInput("weight size below 1 is impossible for a valid weight")


def _require_weight(experiment: Experiment, values: Sequence[Fraction]) -> None:
    if len(values) != experiment.n_signals:
        raise InvalidInput("weight dimension does not match the signal set")
    if not weight_check(experiment, values):
        raise InvalidInput("not a valid weight for this experiment")


def make_weight(experiment: Experiment, values: Sequence[RationalLike]) -> Weight:
    """Validate ``values`` against ``experiment`` and wrap them as a Weight."""
    converted = tuple(as_rational(v) for v in values)
    _require_weight(experiment, converted)
    return Weight(values=converted, size=max(converted))


def unit_weight(experiment: Experiment) -> Weight:
    return Weight(
        values=tuple(Fraction(1) for _ in experiment.signals), size=Fraction(1)
    )


def apply_weight(weight: Weight | Sequence[RationalLike], experiment: Experiment) -> Experiment:
    """Rescale each signal column by its weight factor.

    The result is again an experiment over the same labels: validity of the
    weight is exactly the condition that every reweighted row sums to one.
    """
    if isinstance(weight, Weight):
        values = weight.values
    else:
        values = tuple(as_rational(v) for v in weight)
    _require_weight(experiment, values)
    matrix = tuple(
        tuple(v * p for v, p in zip(values, row)) for row in experiment.matrix
    )
    return Experiment(states=experiment.states, signals=experiment.signals, matrix=matrix)


def regularize(experiment: Experiment) -> Experiment:
    """Drop null signals and merge signals with proportional likelihoods.

    Two signals are merged when their likelihood columns are positive
    multiples of each other, that is, when :meth:`Experiment.bayes` gives
    them the same posterior under the uniform measure; a null signal has
    none.  The merged column is the sum and the label joins the members
    with ``+`` in order of first occurrence, suffixed with ``_`` while it
    names an original signal or an earlier group.  The operation is
    idempotent and does not change the posteriors under any prior.
    """
    uniform = [1] * experiment.n_states
    groups: dict[tuple[Fraction, ...], list[int]] = {}
    for j in range(experiment.n_signals):
        _, posterior = experiment.bayes(uniform, j)
        if posterior is not None:
            groups.setdefault(posterior, []).append(j)
    signals: list[str] = []
    for group in groups.values():
        joined = "+".join(experiment.signals[j] for j in group)
        if len(group) > 1:
            joined = _fresh_label(joined, experiment.signals + tuple(signals))
        signals.append(joined)
    matrix = tuple(
        tuple(
            sum((row[j] for j in group), Fraction(0)) for group in groups.values()
        )
        for row in experiment.matrix
    )
    return Experiment(states=experiment.states, signals=tuple(signals), matrix=matrix)


def _fresh_label(base: str, taken: Sequence[str]) -> str:
    label = base
    while label in taken:
        label += "_"
    return label


def dilute(experiment: Experiment, beta: RationalLike) -> Experiment:
    """Blend an experiment with an uninformative null signal.

    Each original signal keeps probability ``1/beta`` of its mass; the rest
    moves to a fresh null signal whose likelihood is constant across states.
    ``beta`` must be >= 1; ``beta = 1`` appends a null signal of mass zero.
    """
    scale = as_rational(beta)
    if scale < 1:
        raise InvalidInput(f"dilution size must be >= 1, got {scale}")
    inv = 1 / scale
    null_label = _fresh_label("null", experiment.signals)
    matrix = tuple(
        tuple(inv * p for p in row) + (1 - inv,) for row in experiment.matrix
    )
    return Experiment(
        states=experiment.states,
        signals=experiment.signals + (null_label,),
        matrix=matrix,
    )


def residual_experiment(experiment: Experiment, weight: Weight) -> Experiment:
    """The experiment carrying the mass a weight leaves unused.

    For a weight with mean factor above one, the rows
    ``(1 - values[j]/size) / (1 - 1/size) * matrix[i][j]`` form a proper
    experiment; mixing the reweighted experiment (with probability
    ``1/size``) and this residual (with probability ``1 - 1/size``)
    reproduces a dilution of the reweighted experiment.
    """
    values = weight.values
    _require_weight(experiment, values)
    size = weight.size
    if size == 1:
        raise InvalidInput("residual experiment requires weight size > 1")
    denom = 1 - 1 / size
    matrix = tuple(
        tuple((1 - v / size) / denom * p for v, p in zip(values, row))
        for row in experiment.matrix
    )
    return Experiment(
        states=experiment.states, signals=experiment.signals, matrix=matrix
    )


@dataclass(frozen=True)
class DecisionProblem:
    """Finitely many actions, an exact payoff table, and a prior.

    ``payoffs[a][i]`` is the payoff of action ``actions[a]`` in state ``i``.
    The table is also kept over one denominator: ``payoff_ints[a][i]`` is
    the integer ``payoffs[a][i] * payoff_scale``, where ``payoff_scale`` is
    the LCM of the payoff denominators.  Both are derived at construction
    and take no part in equality, hashing or the repr.
    """

    actions: tuple[str, ...]
    payoffs: tuple[tuple[Fraction, ...], ...]
    prior: Prior
    payoff_ints: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    payoff_scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.actions, tuple):
            raise InvalidInput(f"action labels must be a tuple, got {self.actions!r}")
        payoffs = self.payoffs
        if not (isinstance(payoffs, tuple) and all(isinstance(row, tuple) for row in payoffs)):
            raise InvalidInput("the payoff table must be a tuple of tuples")
        _check_labels(self.actions, "action")
        n_states = len(self.prior.weights)
        _check_table(self.payoffs, len(self.actions), n_states, "payoff table")
        flat, scale = _clear_denominators([u for row in self.payoffs for u in row])
        rows = tuple(
            tuple(flat[k : k + n_states]) for k in range(0, len(flat), n_states)
        )
        object.__setattr__(self, "payoff_ints", rows)
        object.__setattr__(self, "payoff_scale", scale)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_states(self) -> int:
        return len(self.prior.weights)

    def best_response(self, measure: Sequence[Fraction]) -> tuple[Fraction, int]:
        """The best score against a measure over states, and its action index.

        Action ``a`` scores sum_t payoffs[a][t] measure[t]; ties go to the
        lowest index.  A belief gives the expected payoff of acting on it,
        and an unnormalized measure such as prior times likelihood gives
        that payoff weighted by the measure's mass.  The scores are compared
        as integers over the one positive denominator that clears both the
        payoffs and the measure, which orders them exactly as Fractions.
        """
        _check_measure(measure, self.n_states)
        weights, scale = _clear_denominators(measure)
        score, action = self._argmax(weights)
        return Fraction(score, self.payoff_scale * scale), action

    def _argmax(self, weights: Sequence[int]) -> tuple[int, int]:
        """Best integer score sum_t payoff_ints[a][t] weights[t] and its action.

        ``weights`` is a measure times a positive integer.  The score is in
        units of ``1 / (payoff_scale * that integer)``; ties go to the lowest
        action index.
        """
        scores = [sum(map(mul, row, weights)) for row in self.payoff_ints]
        best = max(scores)
        return best, scores.index(best)


def decision_problem(
    payoffs: Iterable[Sequence[RationalLike]],
    prior_weights: Sequence[RationalLike],
    actions: Sequence[str] | None = None,
) -> DecisionProblem:
    """Build a validated :class:`DecisionProblem` from raw rows."""
    table = tuple(tuple(as_rational(entry) for entry in row) for row in payoffs)
    if not table:
        raise InvalidInput("a decision problem needs at least one action")
    labels = tuple(actions) if actions is not None else _default_labels("a", len(table))
    return DecisionProblem(actions=labels, payoffs=table, prior=prior(prior_weights))
