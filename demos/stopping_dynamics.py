"""
Hidden-Markov beliefs, merging, and stopping problems
=====================================================

A decision maker samples an experiment each period while the state drifts
under a Markov chain, then makes a one-time decision.  Long-run behavior
lives on the limit of iterated one-step posterior hulls; posteriors from
different starting beliefs merge geometrically when the chain mixes; and
comparisons between experiments at long horizons reduce to the static
weighted-garbling order.  When the order fails, a stopping problem exists
on which the coarser experiment is strictly better at every horizon.
"""

from expord import (
    StoppingProblem,
    counterexample,
    decision_problem,
    eta_limit,
    iid_chain,
    markov_chain,
    merging_horizon,
    stopping_value,
    uniform_prior,
    update,
)
from expord.generators import (
    binary_symmetric,
    perfect_experiment,
    three_signal_family,
    uninformative_experiment,
)


def point(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


# One exact filtering step: push the belief through the chain, then
# condition on the observed signal.
chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
pi = binary_symmetric("3/5")
belief = (uniform_prior(2)).weights
for signal in ("s1", "s1", "s2"):
    belief = update(chain, pi, belief, signal)
    print("after", signal, "belief =", point(belief))

# The reachable-belief limit: iterate the hull of one-step updates from
# the full simplex until it stops moving.  The true limit points are
# irrational here, so the iterates keep growing denominators and the
# rational tolerance decides when the hull has stopped moving.
result = eta_limit(chain, pi)
print("\nlimit hull extreme points:", [point(p) for p in result.hull.points])
print("iterations:", result.iterations, " gap:", result.gap)

# Merging: how long until posteriors forget the starting state?  With a
# blind experiment the signals carry nothing and the answer is governed
# by the chain's mixing alone, halving the gap by 2/5 each period.
report = merging_horizon(chain, uninformative_experiment(2, 2), "1/10")
print("\nmerging profile:", [str(g) for g in report.profile])
print("horizon at 1/10:", report.horizon)

# Stopping values: the option to wait is worthless when every period
# looks the same, and worth exactly the better posterior odds otherwise.
matching = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
iid = iid_chain(uniform_prior(2))
for experiment, name in (
    (binary_symmetric("3/5"), "binary 3/5"),
    (three_signal_family("4/5"), "blind half + 4/5"),
):
    values = [
        stopping_value(
            StoppingProblem(problem=matching, chain=iid, horizon=h), experiment
        )
        for h in (1, 2, 4, 8)
    ]
    print(f"\n{name} values at horizons 1,2,4,8:", [str(v) for v in values])

# The dynamic separation: a perfectly revealing experiment is not a
# weighted garbling of a blind one, and the constructed stopping problem
# pays the informed decision maker strictly more at every horizon.
found = counterexample(perfect_experiment(2), uninformative_experiment(2), uniform_prior(2))
problem, _chain, values = found
print("\nseparator payoffs:", [point(row) for row in problem.payoffs])
for horizon, informed, blind in values:
    print(f"horizon {horizon}: informed {informed} > blind {blind}")
