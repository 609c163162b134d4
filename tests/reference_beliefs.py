"""The hull-LP belief check, kept as a test-only reference.

``check_weighted_beliefs`` is the body ``expord.beliefs.check_weighted_beliefs``
had before it read the pair's per-signal blocks off ``expord.order``: one
:func:`~expord.beliefs.hull_membership` program per posterior atom of ``pi``,
in normalized beliefs with a convexity row, against the posteriors of the
regularized ``pi_prime``.  It is an independent statement of the paper's
posterior characterization, so both must give the same verdict and the same
coupling on every pair and prior.  ``tests/test_acceptance.py`` compares them,
and ``tests/test_numerics.py`` asks its hull programs to cover the shapes
``hull-check``, ``counterexample`` and ``eta`` still solve.
"""

from __future__ import annotations

from expord.beliefs import CouplingCertificate, hull_membership, posteriors
from expord.experiments import Experiment, Prior, _require_shared_states, regularize


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
