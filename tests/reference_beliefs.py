"""Parent bodies of the belief layer, kept as test-only references.

``check_weighted_beliefs`` is the body ``expord.beliefs.check_weighted_beliefs``
had before it read the pair's per-signal blocks off ``expord.order``: one
:func:`~expord.beliefs.hull_membership` program per posterior atom of ``pi``
against the posteriors of the regularized ``pi_prime``.  It is an independent
statement of the paper's posterior characterization, so both must give the
same verdict and the same coupling on every pair and prior.
``tests/test_acceptance.py`` compares them, and ``tests/test_numerics.py``
asks its hull programs to cover the shapes ``hull-check``, ``counterexample``
and ``eta`` still solve.

``reference_hull_decide`` is the body ``expord.beliefs.hull_decide`` had
before it asked the cone question: a state row per coordinate plus a
convexity row, the Farkas multipliers (y, z) folded into h = y + z, and both
separation inequalities re-checked.  On beliefs the library's program is
this one without its convexity row, so the two find the same coefficients,
and the library's functional is exactly half of this one's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from expord.beliefs import (
    Belief,
    CouplingCertificate,
    HullMembershipCertificate,
    hull_membership,
    posteriors,
)
from expord.experiments import Experiment, Prior, _require_shared_states, check_belief, regularize
from expord.numerics import EQ, INFEASIBLE, OPTIMAL, InternalError, InvalidInput, linear_program, solve


def check_weighted_beliefs(
    pi: Experiment, pi_prime: Experiment, mu0: Prior
) -> CouplingCertificate | None:
    """Hull coefficients for every posterior atom of ``pi``, or None at the first one outside."""
    _require_shared_states(pi, pi_prime)
    source = posteriors(pi, mu0)
    target = posteriors(regularize(pi_prime), mu0)
    generators = target.beliefs
    rows = []
    for atom in source.atoms:
        membership = hull_membership(atom.belief, generators)
        if membership is None:
            return None
        rows.append(tuple(atom.probability * chi for chi in membership.coefficients))
    return CouplingCertificate(
        prior=mu0,
        pi_atoms=source.atoms,
        pi_prime_atoms=target.atoms,
        matrix=tuple(rows),
    )


def _hull_lp(point: Belief, generators: Sequence[Belief]):
    n_gen = len(generators)
    rows = []
    for t in range(len(point)):
        coeffs = [g[t] for g in generators]
        rows.append((coeffs, EQ, point[t]))
    rows.append(([Fraction(1)] * n_gen, EQ, Fraction(1)))
    return solve(linear_program([Fraction(0)] * n_gen, rows, sense="min"))


def reference_hull_decide(
    point: Belief, generators: Sequence[Belief]
) -> HullMembershipCertificate | tuple[Fraction, ...]:
    """Convex coefficients inside the hull, the folded functional h = y + z outside it."""
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
