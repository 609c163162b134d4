"""Posterior beliefs and the belief-space characterization of the order.

Under a full-support prior, an experiment induces a finite distribution over
posterior beliefs.  Whether one experiment is a weighted garbling of another
can be read off these objects alone: it holds exactly when every posterior of
the coarser experiment lies in the convex hull of the finer one's posteriors,
a prior-independent support condition.  :func:`check_weighted_beliefs`
reads that condition off the per-signal blocks :mod:`expord.order` solves and
remembers for a pair: block s is the hull question for the posterior at
signal s in unnormalized coordinates, so it solves no LP of its own.  A
single point against a set of generators is one LP, decided by
:func:`hull_decide`, whose answer is evidence either way: convex
coefficients inside the hull, a separating functional outside it.  Couplings
between the two posterior distributions certify the relation quantitatively,
and their worst likelihood ratio recovers a weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .experiments import (
    Experiment,
    Prior,
    Weight,
    _check_distribution,
    _check_labels,
    _check_table,
    _require_shared_states,
    check_belief,
    make_weight,
    regularize,
)
from .numerics import EQ, INFEASIBLE, InvalidInput, LinearProgram, solve
from .order import _relax

Belief = tuple[Fraction, ...]


@dataclass(frozen=True)
class PosteriorAtom:
    """One support point of a posterior distribution.

    ``signals`` lists every signal mapped to this belief; their
    probabilities are merged into one atom.  Both are tuples, and the
    signals are distinct nonempty strings.
    """

    signals: tuple[str, ...]
    belief: Belief
    probability: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.signals, tuple):
            raise InvalidInput(f"atom signals must be a tuple, got {self.signals!r}")
        _check_labels(self.signals, "signal")
        if not isinstance(self.belief, tuple):
            raise InvalidInput(f"atom belief must be a tuple, got {self.belief!r}")


@dataclass(frozen=True)
class PosteriorDistribution:
    """The exact distribution over posterior beliefs induced by a prior.

    The checks compare integers: the probability-vector checks return the
    atom probabilities and each atom belief over their own denominators,
    and the martingale identity is compared over one common denominator.
    """

    prior: Prior
    atoms: tuple[PosteriorAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InvalidInput("a posterior distribution needs at least one atom")
        probabilities = [atom.probability for atom in self.atoms]
        masses, mass_scale = _check_distribution(
            probabilities, len(probabilities), "atom probability vector"
        )
        if min(masses) == 0:
            raise InvalidInput("zero-probability atoms must be omitted")
        n = len(self.prior.weights)
        cleared = [_check_distribution(atom.belief, n, "atom belief") for atom in self.atoms]
        if len({tuple(ints) for ints, _ in cleared}) != len(cleared):
            raise InvalidInput("atoms with equal beliefs must be merged")
        # Atom k's probability times entry t of its belief is
        # factors[k] * cleared[k][0][t] over the denominator mass_scale * common.
        common = lcm(*[scale for _, scale in cleared])
        factors = [m * (common // scale) for m, (_, scale) in zip(masses, cleared)]
        weights, prior_scale = self.prior._integer_weights
        for t, weight in enumerate(weights):
            mean = sum(f * ints[t] for f, (ints, _) in zip(factors, cleared))
            if mean * prior_scale != weight * mass_scale * common:
                raise InvalidInput(
                    "martingale property fails: posterior mean differs from prior"
                )

    @property
    def beliefs(self) -> tuple[Belief, ...]:
        return tuple(atom.belief for atom in self.atoms)


def posteriors(experiment: Experiment, mu0: Prior) -> PosteriorDistribution:
    """Bayes posteriors of every positive-probability signal, merged by value.

    Each posterior is :meth:`~expord.experiments.Experiment.bayes` of its
    signal against the prior.  Signals with equal posteriors are collected
    into a single atom; signals of probability zero are dropped.  Requires
    a full-support prior so every surviving signal has a well-defined
    posterior.
    """
    if not mu0.full_support:
        raise InvalidInput("posteriors require a full-support prior")
    atoms: dict[Belief, tuple[tuple[str, ...], Fraction]] = {}
    for j, signal in enumerate(experiment.signals):
        mass, belief = experiment.bayes(mu0.weights, j)
        if belief is not None:
            merged, prob = atoms.get(belief, ((), 0))
            atoms[belief] = (merged + (signal,), prob + mass)
    return PosteriorDistribution(
        prior=mu0,
        atoms=tuple(
            PosteriorAtom(signals=sig, belief=belief, probability=prob)
            for belief, (sig, prob) in atoms.items()
        ),
    )


@dataclass(frozen=True)
class HullMembershipCertificate:
    """Exact convex coefficients expressing a point inside a hull."""

    point: Belief
    generators: tuple[Belief, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not (
            isinstance(self.point, tuple)
            and isinstance(self.coefficients, tuple)
            and isinstance(self.generators, tuple)
            and all(isinstance(g, tuple) for g in self.generators)
        ):
            raise InvalidInput("hull point, coefficients and generators must be tuples")
        _check_distribution(self.coefficients, len(self.generators), "hull coefficient vector")
        for t in range(len(self.point)):
            mixed = sum(
                (c * g[t] for c, g in zip(self.coefficients, self.generators)),
                Fraction(0),
            )
            if mixed != self.point[t]:
                raise InvalidInput("coefficients do not reproduce the point")


def hull_decide(
    point: Belief, generators: Sequence[Belief]
) -> HullMembershipCertificate | tuple[Fraction, ...]:
    """Exact convex-hull membership, decided by one LP.

    Beliefs sum to one, so nonnegative coefficients that reproduce a belief
    from beliefs sum to one too: the cone of the generators meets the
    simplex in their hull.  That is why the point and every generator must
    pass :func:`~expord.experiments.check_belief`, with the point's
    dimension, and why the program, like :func:`~expord.order._block`, has
    one row per state, sum_k c_k g_k[t] = point[t] over c >= 0, and no
    convexity row.  Inside the hull this returns its coefficients (one
    choice among possibly many).  Outside it returns the program's Farkas
    row h itself, which :func:`~expord.numerics.solve` has checked:
    h . g <= 0 for every generator and h . point > 0.
    """
    if not generators:
        raise InvalidInput("at least one generator is required")
    point = check_belief(point, len(point))
    generators = tuple(check_belief(g, len(point)) for g in generators)
    n_gen = len(generators)
    rows = tuple((tuple(g[t] for g in generators), EQ, p_t) for t, p_t in enumerate(point))
    outcome = solve(LinearProgram((Fraction(0),) * n_gen, "min", rows, (True,) * n_gen))
    # A zero objective is bounded, so the program is infeasible or optimal.
    if outcome.status == INFEASIBLE:
        return outcome.farkas
    return HullMembershipCertificate(point=point, generators=generators, coefficients=outcome.x)


def hull_membership(
    point: Belief, generators: Sequence[Belief]
) -> HullMembershipCertificate | None:
    """The coefficients :func:`hull_decide` finds, or None outside the hull."""
    decision = hull_decide(point, generators)
    return decision if isinstance(decision, HullMembershipCertificate) else None


@dataclass(frozen=True)
class CouplingCertificate:
    """A joint distribution over posterior pairs certifying the order.

    Rows index atoms of the coarser experiment's posterior distribution,
    columns atoms of the finer one's (after regularization).  Construction
    checks the shape alone: at least one atom on each side, each atom belief
    a belief over the prior's states with a positive Fraction probability,
    and a table of Fractions.  Semantic validity is checked by
    :func:`verify_coupling`, so broken couplings can be built and examined.
    """

    prior: Prior
    pi_atoms: tuple[PosteriorAtom, ...]
    pi_prime_atoms: tuple[PosteriorAtom, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.prior.weights)
        for side, atoms in (("pi", self.pi_atoms), ("pi_prime", self.pi_prime_atoms)):
            if not atoms:
                raise InvalidInput(f"a coupling needs at least one {side} atom")
            for atom in atoms:
                _check_distribution(atom.belief, n, f"{side} atom belief")
                if not (isinstance(atom.probability, Fraction) and atom.probability > 0):
                    raise InvalidInput(f"{side} atom probability must be a positive Fraction")
        _check_table(
            self.matrix, len(self.pi_atoms), len(self.pi_prime_atoms), "coupling matrix"
        )

    @property
    def beta(self) -> Fraction:
        """Realized size: the largest column mass to atom probability ratio."""
        return max(
            sum((row[j] for row in self.matrix), Fraction(0)) / atom.probability
            for j, atom in enumerate(self.pi_prime_atoms)
        )


@dataclass(frozen=True)
class CouplingVerification:
    """Outcome of verify_coupling with the realized size."""

    ok: bool
    violations: tuple[str, ...]
    beta: Fraction | None

    def __bool__(self) -> bool:
        return self.ok


def check_weighted_beliefs(
    pi: Experiment, pi_prime: Experiment, mu0: Prior
) -> CouplingCertificate | None:
    """Decide the weighted-garbling order through posterior geometry.

    Succeeds exactly when every posterior of ``pi`` lies in the convex hull
    of the posteriors of ``pi_prime`` (regularized first, so its atoms are
    in bijection with its signals).  Block s of the psi program asks this
    for the posterior at signal s in unnormalized coordinates, and
    psi(s, j) P'(j) / P(s) are its hull coefficients, so the answer is read
    off the pair's blocks, which :mod:`expord.order` solves once and
    remembers; no LP of its own is solved.  The prior is checked before the
    blocks are asked for.  The coupling is the one
    :func:`coupling_from_certificate` builds from the block points.
    """
    _require_shared_states(pi, pi_prime)
    source = posteriors(pi, mu0)
    feasible, x = _relax(pi, pi_prime)
    if not feasible:
        return None
    n_sp = pi_prime.n_signals
    psi = [x[s * n_sp : (s + 1) * n_sp] for s in range(pi.n_signals)]
    return _coupling(source, pi, pi_prime, psi, mu0)


def _coupling(
    source: PosteriorDistribution,
    pi: Experiment,
    pi_prime: Experiment,
    psi: Sequence[Sequence[Fraction]],
    mu0: Prior,
) -> CouplingCertificate:
    """The coupling with mass psi(s, j) P'(j) from the atom holding s to the one holding j.

    ``source`` is ``posteriors(pi, mu0)``, columns are the atoms of the
    regularized ``pi_prime``, and P'(j) is the mass of signal j of
    ``pi_prime`` under ``mu0``.  Each signal is tied to its column by its
    posterior, which survives both merging and relabeling; a null signal
    has no mass and no column.  When psi reproduces ``pi`` from
    ``pi_prime``, the row moment at state t is mu0(t) pi(s|t), the atom
    mass times its belief, so the barycenter property holds algebraically.
    """
    target = posteriors(regularize(pi_prime), mu0)
    column = {atom.belief: k for k, atom in enumerate(target.atoms)}
    row_of = {signal: i for i, atom in enumerate(source.atoms) for signal in atom.signals}
    matrix = [[Fraction(0)] * len(target.atoms) for _ in source.atoms]
    for j in range(pi_prime.n_signals):
        mass, belief = pi_prime.bayes(mu0.weights, j)
        if belief is None:
            continue
        k = column[belief]
        for signal, row in zip(pi.signals, psi):
            if signal in row_of:
                matrix[row_of[signal]][k] += row[j] * mass
    return CouplingCertificate(
        prior=mu0,
        pi_atoms=source.atoms,
        pi_prime_atoms=target.atoms,
        matrix=tuple(tuple(row) for row in matrix),
    )


def verify_coupling(
    coupling: CouplingCertificate,
    pi: Experiment,
    pi_prime: Experiment,
    mu0: Prior,
) -> CouplingVerification:
    """Re-check the three coupling properties against the experiments.

    Construction has checked the coupling's shape; everything else is
    checked here.  Conditions: the stored atom lists equal the recomputed
    posterior distributions; the first marginal matches the atom
    probabilities of ``pi``; each row's barycenter is its own atom's belief;
    mass is nonnegative and totals one.  The realized size (largest column
    mass to column probability ratio) is reported; it is finite, since
    construction requires every atom probability to be positive.
    """
    violations: list[str] = []
    source = posteriors(pi, mu0)
    target = posteriors(regularize(pi_prime), mu0)
    if coupling.prior != mu0:
        violations.append("coupling was built for a different prior")
    if coupling.pi_atoms != source.atoms:
        violations.append("stored pi atoms differ from the recomputed posteriors")
    if coupling.pi_prime_atoms != target.atoms:
        violations.append(
            "stored pi_prime atoms differ from the recomputed posteriors"
        )
    total = Fraction(0)
    for i, (atom, row) in enumerate(zip(coupling.pi_atoms, coupling.matrix)):
        for entry in row:
            if entry < 0:
                violations.append(f"negative mass in coupling row {i}")
                break
        row_mass = sum(row, Fraction(0))
        total += row_mass
        if row_mass != atom.probability:
            violations.append(
                f"first marginal at row {i}: mass {row_mass} != {atom.probability}"
            )
        dim = len(atom.belief)
        for t in range(dim):
            moment = sum(
                (row[j] * coupling.pi_prime_atoms[j].belief[t] for j in range(len(row))),
                Fraction(0),
            )
            if moment != atom.probability * atom.belief[t]:
                violations.append(f"barycenter fails at row {i}, coordinate {t}")
                break
    if total != 1:
        violations.append(f"total coupling mass {total} != 1")
    beta = coupling.beta if not violations else None
    return CouplingVerification(
        ok=not violations, violations=tuple(violations), beta=beta
    )


def coupling_to_weight(
    coupling: CouplingCertificate, pi_prime: Experiment, mu0: Prior
) -> Weight:
    """Read a weight off a coupling: column mass over column probability.

    Requires ``pi_prime`` regular (atoms in bijection with signals).  The
    returned factors satisfy the weight identity because summing
    gamma(s') pi_prime(s'|t) telescopes through the barycenter and marginal
    properties of the coupling.
    """
    if regularize(pi_prime) != pi_prime:
        raise InvalidInput("coupling_to_weight requires a regular experiment")
    target = posteriors(pi_prime, mu0)
    if coupling.pi_prime_atoms != target.atoms:
        raise InvalidInput("coupling atoms do not match this experiment and prior")
    by_signal: dict[str, Fraction] = {}
    for j, atom in enumerate(target.atoms):
        mass = sum((row[j] for row in coupling.matrix), Fraction(0))
        for signal in atom.signals:
            by_signal[signal] = mass / atom.probability
    values = [by_signal.get(signal, Fraction(0)) for signal in pi_prime.signals]
    return make_weight(pi_prime, values)


def coupling_from_certificate(
    certificate, mu0: Prior
) -> CouplingCertificate:
    """Push a garbling certificate into a coupling of posterior atoms.

    Mass psi(s, s') q'(s') couples the posterior of s with the posterior of
    s'; aggregating over signals with merged posteriors gives atom-level
    mass.  :func:`check_weighted_beliefs` builds its coupling the same way
    from the block points.
    """
    source = posteriors(certificate.pi, mu0)
    return _coupling(source, certificate.pi, certificate.pi_prime, certificate.psi, mu0)
