"""
The order through posterior geometry
====================================

Every experiment scatters a prior into a distribution over posterior
beliefs.  One experiment is a weighted garbling of another exactly when
each of its posteriors lies in the convex hull of the other's posteriors,
and the hull coefficients assemble into a coupling between the two
posterior distributions.  This script draws the posteriors of the leading
family, tests hull membership both ways, extracts a separating functional
from a failure, and converts a coupling back into a weight.
"""

from expord import (
    HullMembershipCertificate,
    check_weighted,
    check_weighted_beliefs,
    coupling_to_weight,
    hull_decide,
    hull_membership,
    posteriors,
    uniform_prior,
    verify_coupling,
)
from expord.generators import binary_symmetric, three_signal_family


def point(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


mu = uniform_prior(2)
pi = binary_symmetric("3/5")
pi_prime = three_signal_family("4/5")

source = posteriors(pi, mu)
target = posteriors(pi_prime, mu)
print("posteriors of pi:")
for atom in source.atoms:
    print("  signals", atom.signals, "belief", point(atom.belief), "mass", atom.probability)
print("posteriors of pi_prime:")
for atom in target.atoms:
    print("  signals", atom.signals, "belief", point(atom.belief), "mass", atom.probability)

# Hull membership is one linear program per posterior; the certificate
# lists the convex coefficients over the generators.
for atom in source.atoms:
    member = hull_membership(atom.belief, target.beliefs)
    print("\n", point(atom.belief), "in hull:", member is not None)
    print("  coefficients:", point(member.coefficients))

# The full belief-path decision returns a coupling whose barycenters,
# marginal, and column masses are re-checked exactly.
coupling = check_weighted_beliefs(pi, pi_prime, mu)
print("\ncoupling matrix:")
for row in coupling.matrix:
    print("  ", point(row))
print("coupling size:", coupling.beta)
print("verified:", verify_coupling(coupling, pi, pi_prime, mu).ok)

# Column masses over atom probabilities recover a valid weight, and the
# LP path agrees with it.
weight = coupling_to_weight(coupling, pi_prime, mu)
print("recovered weight:", point(weight.values))
print("LP path agrees:", check_weighted(pi, pi_prime) is not None)

# Reverse the family and the geometry breaks: the sharp posteriors of a
# 9/10-accurate design stick out of the 4/5 hull, and a separating
# functional certifies the failure.
sharp = binary_symmetric("9/10")
outside = posteriors(sharp, mu).atoms[0].belief
functional = hull_decide(outside, target.beliefs)
print("\nsharp posterior", point(outside), "in 4/5 hull:",
      isinstance(functional, HullMembershipCertificate))
print("separating functional:", point(functional))
margin = sum(h * x for h, x in zip(functional, outside))
print("value at the point:", margin, "(positive, nonpositive on the hull)")
print("belief path on the reversed pair:",
      check_weighted_beliefs(sharp, pi_prime, mu) is not None)
