"""Seeded construction of experiments, pairs, chains, and certificates.

Everything here is deterministic in the seed and produces exact rationals
with controlled denominators, so test corpora are reproducible and stay
inside the denominators the exact solver handles comfortably.  The pair
builders deliberately mix unrelated pairs, Blackwell-garbled pairs, and
weighted-garbled families so downstream checks see ordered and unordered
instances of every flavor.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .dynamics import MarkovChain
from .experiments import (
    Experiment,
    Prior,
    Weight,
    apply_weight,
    dilute,
    make_weight,
    validate_experiment,
)
from .numerics import (
    EQ,
    OPTIMAL,
    InternalError,
    InvalidInput,
    RationalLike,
    as_rational,
    linear_program,
    solve,
)
from .order import GarblingCertificate

Rng = random.Random


def _composition(rng: Rng, total: int, parts: int, positive: bool) -> list[int]:
    """Random ordered split of ``total`` into ``parts`` nonnegative summands."""
    if positive:
        inner = _composition(rng, total - parts, parts, positive=False)
        return [k + 1 for k in inner]
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_distribution(
    rng: Rng, length: int, denominator_bound: int = 12, full_support: bool = False
) -> tuple[Fraction, ...]:
    """A random exact distribution with denominator at most the bound."""
    if length < 1:
        raise InvalidInput("need at least one outcome")
    lowest = length if full_support else 1
    if denominator_bound < lowest:
        raise InvalidInput("denominator bound too small for this support")
    denominator = rng.randint(lowest, denominator_bound)
    parts = _composition(rng, denominator, length, positive=full_support)
    return tuple(Fraction(k, denominator) for k in parts)


def random_experiment(
    rng: Rng,
    n_states: int,
    n_signals: int,
    denominator_bound: int = 12,
    full_support: bool = False,
) -> Experiment:
    rows = [
        random_distribution(rng, n_signals, denominator_bound, full_support)
        for _ in range(n_states)
    ]
    return validate_experiment(rows)


def random_prior(rng: Rng, n_states: int, denominator_bound: int = 12) -> Prior:
    return Prior(
        weights=random_distribution(rng, n_states, denominator_bound, full_support=True)
    )


def random_chain(
    rng: Rng,
    n_states: int,
    denominator_bound: int = 12,
    strictly_positive: bool = True,
) -> MarkovChain:
    rows = tuple(
        random_distribution(rng, n_states, denominator_bound, full_support=strictly_positive)
        for _ in range(n_states)
    )
    return MarkovChain(
        states=tuple(f"t{i}" for i in range(n_states)), rows=rows
    )


def random_channel(
    rng: Rng, n_signals_out: int, n_signals_in: int, denominator_bound: int = 4
) -> tuple[tuple[Fraction, ...], ...]:
    """A random column-stochastic kernel phi[out][in]."""
    columns = [
        random_distribution(rng, n_signals_out, denominator_bound)
        for _ in range(n_signals_in)
    ]
    return tuple(
        tuple(columns[j][i] for j in range(n_signals_in))
        for i in range(n_signals_out)
    )


def garble(
    channel: Sequence[Sequence[Fraction]], experiment: Experiment
) -> Experiment:
    """Push an experiment through a column-stochastic kernel."""
    n_out = len(channel)
    matrix = tuple(
        tuple(
            sum(
                (channel[i][j] * experiment.matrix[t][j] for j in range(experiment.n_signals)),
                Fraction(0),
            )
            for i in range(n_out)
        )
        for t in range(experiment.n_states)
    )
    return Experiment(
        states=experiment.states,
        signals=tuple(f"g{i}" for i in range(n_out)),
        matrix=matrix,
    )


def channel_certificate(
    channel: Sequence[Sequence[Fraction]], experiment: Experiment
) -> GarblingCertificate:
    """The size-1 certificate pairing garble(channel, experiment) with its base."""
    garbled = garble(channel, experiment)
    psi = tuple(tuple(row) for row in channel)
    return GarblingCertificate(pi=garbled, pi_prime=experiment, psi=psi)


def weight_certificate(experiment: Experiment, weight: Weight) -> GarblingCertificate:
    """The diagonal certificate pairing apply_weight(w, e) with e."""
    reweighted = apply_weight(weight, experiment)
    n = experiment.n_signals
    psi = tuple(
        tuple(weight.values[j] if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return GarblingCertificate(pi=reweighted, pi_prime=experiment, psi=psi)


def dilution_certificate(experiment: Experiment, beta: RationalLike) -> GarblingCertificate:
    """The size-1 certificate pairing dilute(e, beta) with e."""
    scale = as_rational(beta)
    diluted = dilute(experiment, scale)
    n = experiment.n_signals
    rows = [
        tuple(1 / scale if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    ]
    rows.append(tuple(1 - 1 / scale for _ in range(n)))
    return GarblingCertificate(pi=diluted, pi_prime=experiment, psi=tuple(rows))


def random_vertex_weight(rng: Rng, experiment: Experiment) -> Weight:
    """A random extreme point of the weight polytope of an experiment.

    Minimizes a random nonnegative objective over the valid weights; the
    polytope is nonempty (the unit weight) and the objective is bounded
    below by zero, so a vertex always comes back.
    """
    n = experiment.n_signals
    rows = []
    for t in range(experiment.n_states):
        rows.append(([experiment.matrix[t][j] for j in range(n)], EQ, Fraction(1)))
    objective = [Fraction(rng.randint(0, 6)) for _ in range(n)]
    outcome = solve(linear_program(objective, rows, sense="min"))
    if outcome.status != OPTIMAL:
        raise InternalError(f"weight polytope program came back {outcome.status}")
    return make_weight(experiment, outcome.x)


def random_interior_weight(rng: Rng, experiment: Experiment) -> Weight:
    """A strictly positive valid weight: midpoint of the unit weight and a vertex."""
    vertex = random_vertex_weight(rng, experiment)
    values = tuple((1 + v) / 2 for v in vertex.values)
    return make_weight(experiment, values)


def binary_symmetric(q: RationalLike) -> Experiment:
    """Two states, two signals, correct-signal probability q."""
    p = as_rational(q)
    if not 0 <= p <= 1:
        raise InvalidInput("q must be a probability")
    return validate_experiment(
        [[p, 1 - p], [1 - p, p]], states=("t0", "t1"), signals=("s1", "s2")
    )


def three_signal_family(q_prime: RationalLike) -> Experiment:
    """Two states, three signals: an uninformative half plus a symmetric half.

    Signal s0 is pure noise with probability 1/2; conditional on avoiding
    it the experiment is binary symmetric with parameter q_prime.
    """
    p = as_rational(q_prime)
    if not 0 <= p <= 1:
        raise InvalidInput("q_prime must be a probability")
    return validate_experiment(
        [
            [Fraction(1, 2), p / 2, (1 - p) / 2],
            [Fraction(1, 2), (1 - p) / 2, p / 2],
        ],
        states=("t0", "t1"),
        signals=("s0", "s1", "s2"),
    )


def perfect_experiment(n_states: int) -> Experiment:
    rows = [
        [Fraction(1) if i == j else Fraction(0) for j in range(n_states)]
        for i in range(n_states)
    ]
    return validate_experiment(rows)


def uninformative_experiment(n_states: int, n_signals: int = 1) -> Experiment:
    row = [Fraction(1, n_signals)] * n_signals
    return validate_experiment([list(row) for _ in range(n_states)])


def corpus_pairs(seed: int, count: int) -> list[tuple[Experiment, Prior, Experiment]]:
    """Seeded mixed corpus of experiment pairs over a shared state set.

    Entries keep denominators at most 12.  Roughly a third of the pairs are
    unrelated random draws, a third are Blackwell garblings (coarse
    denominators pushed through coarse kernels), and a third come from the
    two-parameter symmetric family where the weighted order holds exactly
    when q <= q_prime.  Each pair also carries a full-support prior.
    """
    rng = random.Random(seed)
    pairs: list[tuple[Experiment, Prior, Experiment]] = []
    while len(pairs) < count:
        style = rng.randrange(3)
        if style == 0:
            n_states = rng.randint(2, 4)
            pi = random_experiment(rng, n_states, rng.randint(2, 4))
            pi_prime = random_experiment(rng, n_states, rng.randint(2, 4))
        elif style == 1:
            n_states = rng.randint(2, 4)
            pi_prime = random_experiment(rng, n_states, rng.randint(2, 4), 3)
            channel = random_channel(rng, rng.randint(2, 4), pi_prime.n_signals, 4)
            pi = garble(channel, pi_prime)
        else:
            n_states = 2
            q = Fraction(rng.randint(3, 6), 6)
            q_prime = Fraction(rng.randint(3, 6), 6)
            pi = binary_symmetric(q)
            pi_prime = (
                three_signal_family(q_prime)
                if rng.randrange(2)
                else binary_symmetric(q_prime)
            )
        prior = random_prior(rng, n_states)
        pairs.append((pi, prior, pi_prime))
    return pairs


def random_lp(rng: Rng, max_vars: int = 4, max_rows: int = 4):
    """A small random linear program exercising every solver code path.

    Mixes senses, relations, free and sign-constrained variables, and
    coefficient signs, so the draw covers optimal, infeasible, and
    unbounded outcomes.
    """
    n_vars = rng.randint(1, max_vars)
    n_rows = rng.randint(1, max_rows)

    def coefficient() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    rows = []
    for _ in range(n_rows):
        relation = rng.choice(["<=", "=", ">="])
        rows.append(
            ([coefficient() for _ in range(n_vars)], relation, coefficient())
        )
    return linear_program(
        [coefficient() for _ in range(n_vars)],
        rows,
        sense=rng.choice(["min", "max"]),
        nonneg=[rng.random() < Fraction(3, 4) for _ in range(n_vars)],
    )


def certificate_chains(
    seed: int, count: int
) -> list[tuple[GarblingCertificate, GarblingCertificate]]:
    """Seeded chains pi <= pi' <= pi'' with certificates for both links.

    Links are drawn among dilutions, reweightings, and channel garblings,
    so composed sizes range over [1, beta1 * beta2].
    """
    rng = random.Random(seed)
    chains = []
    for _ in range(count):
        n_states = rng.randint(2, 4)
        top = random_experiment(rng, n_states, rng.randint(2, 4), full_support=True)

        def link(base: Experiment) -> GarblingCertificate:
            kind = rng.randrange(3)
            if kind == 0:
                beta = Fraction(rng.randint(1, 4))
                return dilution_certificate(base, beta)
            if kind == 1:
                return weight_certificate(base, random_interior_weight(rng, base))
            channel = random_channel(rng, rng.randint(2, 4), base.n_signals)
            return channel_certificate(channel, base)

        outer = link(top)
        inner = link(outer.pi)
        chains.append((inner, outer))
    return chains
