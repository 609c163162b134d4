"""Posterior beliefs and the belief-space characterization of the order.

Under a full-support prior, an experiment induces a finite distribution over
posterior beliefs.  Whether one experiment is a weighted garbling of another
can be read off these objects alone: it holds exactly when every posterior of
the coarser experiment lies in the convex hull of the finer one's posteriors,
a prior-independent support condition.  Each membership question is one LP,
decided by :func:`hull_decide`, whose answer is evidence either way: convex
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
from .numerics import (
    EQ,
    INFEASIBLE,
    OPTIMAL,
    InternalError,
    InvalidInput,
    linear_program,
    solve,
)

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
        _check_distribution(self.coefficients, len(self.generators), "hull coefficient vector")
        for t in range(len(self.point)):
            mixed = sum(
                (c * g[t] for c, g in zip(self.coefficients, self.generators)),
                Fraction(0),
            )
            if mixed != self.point[t]:
                raise InvalidInput("coefficients do not reproduce the point")


def _hull_lp(point: Belief, generators: Sequence[Belief]):
    n_gen = len(generators)
    rows = []
    for t in range(len(point)):
        coeffs = [g[t] for g in generators]
        rows.append((coeffs, EQ, point[t]))
    rows.append(([Fraction(1)] * n_gen, EQ, Fraction(1)))
    return solve(linear_program([Fraction(0)] * n_gen, rows, sense="min"))


def hull_decide(
    point: Belief, generators: Sequence[Belief]
) -> HullMembershipCertificate | tuple[Fraction, ...]:
    """Exact convex-hull membership, decided by one LP.

    Inside the hull this returns convex coefficients (one choice among
    possibly many).  Outside it returns a linear functional h with
    h . g <= 0 for every generator and h . point > 0, built from the
    Farkas certificate of the same LP: the multipliers (y, z) satisfy
    y . g_k + z <= 0 for every generator and y . point + z > 0, and since
    beliefs sum to one, h = y + z folds the offset into the functional.
    That fold is why the point and every generator must pass
    :func:`~expord.experiments.check_belief`, with the point's dimension.
    Both separation inequalities are re-checked before returning.
    """
    if not generators:
        raise InvalidInput("at least one generator is required")
    point = check_belief(point, len(point))
    generators = [check_belief(g, len(point)) for g in generators]
    outcome = _hull_lp(point, generators)
    if outcome.status == OPTIMAL:
        return HullMembershipCertificate(
            point=point,
            generators=tuple(generators),
            coefficients=outcome.x,
        )
    if outcome.status != INFEASIBLE:
        raise InternalError(f"hull membership program came back {outcome.status}")
    y = outcome.farkas
    z = y[-1]
    h = tuple(y_t + z for y_t in y[:-1])

    def pairing(belief: Belief) -> Fraction:
        return sum((h_t * belief[t] for t, h_t in enumerate(h)), Fraction(0))

    if any(pairing(g) > 0 for g in generators) or pairing(point) <= 0:
        raise InternalError("hull Farkas certificate does not separate the point")
    return h


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
    in bijection with its signals).  The coupling sends each atom of ``pi``
    to hull coefficients over the atoms of ``pi_prime``.
    """
    _require_shared_states(pi, pi_prime)
    source = posteriors(pi, mu0)
    target = posteriors(regularize(pi_prime), mu0)
    generators = target.beliefs
    rows = []
    for atom in source.atoms:
        membership = hull_membership(atom.belief, generators)
        if membership is None:
            return None
        rows.append(
            tuple(atom.probability * chi for chi in membership.coefficients)
        )
    return CouplingCertificate(
        prior=mu0,
        pi_atoms=source.atoms,
        pi_prime_atoms=target.atoms,
        matrix=tuple(rows),
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
    mass.  The barycenter property holds algebraically: the row moment
    equals mu(t) pi(s|t), which is the atom mass times its belief.
    """
    pi, pi_prime = certificate.pi, certificate.pi_prime
    source = posteriors(pi, mu0)
    target = posteriors(regularize(pi_prime), mu0)
    signal_mass = [pi_prime.bayes(mu0.weights, j)[0] for j in range(pi_prime.n_signals)]
    row_of: dict[str, int] = {}
    for i, atom in enumerate(source.atoms):
        for signal in atom.signals:
            row_of[signal] = i
    # Original pi_prime signals are tied to target atoms by posterior value,
    # which survives both merging and relabeling.
    belief_index = {atom.belief: j for j, atom in enumerate(target.atoms)}
    col_of: dict[str, int] = {}
    for atom in posteriors(pi_prime, mu0).atoms:
        for signal in atom.signals:
            col_of[signal] = belief_index[atom.belief]
    matrix = [
        [Fraction(0)] * len(target.atoms) for _ in range(len(source.atoms))
    ]
    for i, signal in enumerate(pi.signals):
        if signal not in row_of:
            continue
        for j, signal_prime in enumerate(pi_prime.signals):
            if signal_prime not in col_of:
                continue
            mass = certificate.psi[i][j] * signal_mass[j]
            matrix[row_of[signal]][col_of[signal_prime]] += mass
    return CouplingCertificate(
        prior=mu0,
        pi_atoms=source.atoms,
        pi_prime_atoms=target.atoms,
        matrix=tuple(tuple(row) for row in matrix),
    )
