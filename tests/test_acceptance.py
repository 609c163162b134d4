"""End-to-end acceptance sweep, one test and one printed verdict per criterion.

Each test prints a single PASS/FAIL line (outside capture) so a verbose run
reads as a checklist.  The sweep re-derives the hand witnesses exactly, runs
the seeded corpora at full size, and re-verifies every certificate produced
along the way; nothing here tolerates an approximate answer.
"""

import importlib
import inspect
import random
from fractions import Fraction

import pytest

from expord import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    GarblingCertificate,
    OrderError,
    StoppingProblem,
    belief_set,
    check_blackwell,
    check_weighted,
    check_weighted_beliefs,
    compose,
    counterexample,
    decision_problem,
    eta_limit,
    eta_step,
    falsify_bound,
    farkas_verifies,
    from_conditional,
    full_simplex,
    iid_chain,
    markov_chain,
    merging_horizon,
    min_size,
    parse_rational,
    posteriors,
    random_decision_problem,
    ray_verifies,
    size_interval,
    solution_feasible,
    solve,
    stopping_value,
    to_conditional,
    uniform_prior,
    verify_bound,
    verify_certificate,
)
from expord.generators import (
    binary_symmetric,
    certificate_chains,
    corpus_pairs,
    perfect_experiment,
    random_chain,
    random_experiment,
    random_lp,
    random_prior,
    three_signal_family,
    uninformative_experiment,
)
import reference_beliefs
from reference_simplex import dual_program

F = Fraction

CORPUS_SEED = 20250814
CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    return corpus_pairs(CORPUS_SEED, CORPUS_SIZE)


@pytest.fixture(scope="module")
def corpus_certs(corpus):
    """Weighted-order decision for every pair, by the feasibility LP."""
    return [check_weighted(pi, pi_prime) for pi, _, pi_prime in corpus]


@pytest.fixture(scope="module")
def corpus_sizes(corpus):
    """Minimal size and witness for every pair, None when unordered."""
    return [min_size(pi, pi_prime) for pi, _, pi_prime in corpus]


def _verdict(capsys, number, label, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    note = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"\nacceptance criterion {number} ({label}): {status}{note}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures[:5])


def _symmetric_family_witness(q, q_prime):
    """Closed-form certificate for the binary-vs-three-signal pair.

    The weight (0, 2, 2) discards the blind signal of the richer
    experiment; the channel then mixes the two informative signals with
    mass (q + q' - 1) / (2q' - 1) on the matching one.
    """
    qq = parse_rational(q)
    qp = parse_rational(q_prime)
    match = (qq + qp - 1) / (2 * qp - 1)
    psi = (
        (F(0), 2 * match, 2 * (1 - match)),
        (F(0), 2 * (1 - match), 2 * match),
    )
    return GarblingCertificate(
        pi=binary_symmetric(qq), pi_prime=three_signal_family(qp), psi=psi
    )


def test_criterion_1_hand_witnesses_and_size_intervals(capsys):
    failures = []
    for q, q_prime in (("3/5", "4/5"), ("4/5", "9/10")):
        witness = _symmetric_family_witness(q, q_prime)
        if witness.gamma != (F(0), F(2), F(2)):
            failures.append(f"({q},{q_prime}) weight {witness.gamma}")
        if witness.beta != 2:
            failures.append(f"({q},{q_prime}) size {witness.beta}")
        result = verify_certificate(witness)
        if not result:
            failures.append(f"({q},{q_prime}) rejected: {result.violations[:1]}")
    intervals = (
        ("3/5", "4/5", F(1), F(2)),
        ("4/5", "9/10", F(3, 2), F(2)),
    )
    for q, q_prime, low, high in intervals:
        found = size_interval(binary_symmetric(q), three_signal_family(q_prime))
        if found is None or (found.beta_min, found.beta_max) != (low, high):
            failures.append(f"interval ({q},{q_prime}) is not [{low},{high}]")
            continue
        for endpoint, attained in (
            (found.witness_min, low),
            (found.witness_max, high),
        ):
            if not verify_certificate(endpoint) or endpoint.beta != attained:
                failures.append(f"interval ({q},{q_prime}) endpoint {attained}")
    _verdict(capsys, 1, "hand witnesses and size intervals", failures)


def test_criterion_2_order_paths_agree(corpus, corpus_certs, capsys):
    failures = []
    if len(corpus) < 500:
        failures.append(f"corpus holds only {len(corpus)} pairs")
    rng = random.Random(CORPUS_SEED + 1)
    for index, ((pi, _, pi_prime), cert) in enumerate(zip(corpus, corpus_certs)):
        ordered = cert is not None
        for _ in range(5):
            mu = random_prior(rng, pi.n_states)
            coupling = check_weighted_beliefs(pi, pi_prime, mu)
            if (coupling is not None) != ordered:
                failures.append(f"pair {index} disagrees at prior {mu.weights}")
    _verdict(
        capsys,
        2,
        "LP and belief paths agree",
        failures,
        f"{len(corpus)} pairs x 5 priors, zero disagreements",
    )


def test_belief_check_matches_the_hull_reference(corpus):
    """The block reading and the hull programs give one verdict and one coupling.

    Each pair is asked at its corpus prior and at one seeded random prior.
    The reference decides each posterior of ``pi`` by its own hull program,
    in normalized beliefs against the regularized generators.
    """
    rng = random.Random(7)
    ordered = 0
    for index, (pi, prior, pi_prime) in enumerate(corpus):
        for mu in (prior, random_prior(rng, pi.n_states)):
            found = check_weighted_beliefs(pi, pi_prime, mu)
            expected = reference_beliefs.check_weighted_beliefs(pi, pi_prime, mu)
            assert found == expected, f"pair {index} at prior {mu.weights}"
            ordered += found is not None
    assert 0 < ordered < 2 * len(corpus)


def test_criterion_3_blackwell_iff_unit_size(corpus, corpus_sizes, capsys):
    failures = []
    for index, ((pi, _, pi_prime), sized) in enumerate(zip(corpus, corpus_sizes)):
        blackwell = check_blackwell(pi, pi_prime)
        unit = sized is not None and sized[0] == 1
        if (blackwell is not None) != unit:
            failures.append(f"pair {index}")
    _verdict(
        capsys,
        3,
        "Blackwell success iff minimal size 1",
        failures,
        f"{len(corpus)} pairs",
    )


def test_criterion_4_composition_stays_within_product(capsys):
    failures = []
    chains = certificate_chains(CORPUS_SEED + 2, 200)
    for index, (inner, outer) in enumerate(chains):
        composite = compose(inner, outer)
        if not verify_certificate(composite):
            failures.append(f"chain {index} does not verify")
        if composite.beta > inner.beta * outer.beta:
            failures.append(
                f"chain {index} size {composite.beta} exceeds "
                f"{inner.beta} * {outer.beta}"
            )
    _verdict(
        capsys,
        4,
        "composed size within the product",
        failures,
        f"{len(chains)} chains",
    )


def test_criterion_5_value_bound_sound_and_complete(
    corpus, corpus_certs, corpus_sizes, capsys
):
    failures = []
    sound = 0
    for index, ((pi, _, pi_prime), sized) in enumerate(zip(corpus, corpus_sizes)):
        if sized is None:
            continue
        beta = sized[0]
        for k in range(200):
            problem = random_decision_problem(
                CORPUS_SEED + 200 * index + k, 2 + k % 3, pi.n_states
            )
            report = verify_bound(problem, pi, pi_prime, beta)
            if not report.holds:
                failures.append(f"pair {index} problem {k} slack {report.slack}")
        sound += 1
    complete = 0
    for index, ((pi, _, pi_prime), cert) in enumerate(zip(corpus, corpus_certs)):
        if cert is not None:
            continue
        for beta in (1, 2, 4, 8):
            violator = falsify_bound(pi, pi_prime, beta)
            if violator is None:
                failures.append(f"pair {index} finds no violation at size {beta}")
            elif verify_bound(violator, pi, pi_prime, beta).holds:
                failures.append(f"pair {index} violator holds at size {beta}")
        complete += 1
    matching = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
    slack = verify_bound(
        matching, binary_symmetric("4/5"), three_signal_family("9/10"), "3/2"
    ).slack
    if slack != 0:
        failures.append(f"tight instance has slack {slack}")
    _verdict(
        capsys,
        5,
        "payoff bound sound and falsifiable",
        failures,
        f"{sound} ordered pairs x 200 problems, {complete} unordered x 4 sizes, "
        "tight slack 0",
    )


def test_criterion_6_conditional_round_trip(corpus, corpus_sizes, capsys):
    failures = []
    covered = 0
    for index, ((pi, _, pi_prime), sized) in enumerate(zip(corpus, corpus_sizes)):
        if sized is None:
            continue
        beta, witness = sized
        conditional = to_conditional(pi_prime, witness)
        base = conditional.base
        kappa = conditional.kernel()
        if max(kappa) != 1:
            failures.append(f"pair {index} kernel peaks at {max(kappa)}")
        if conditional.alpha != 1 / beta:
            failures.append(f"pair {index} alpha {conditional.alpha}")
        for t in range(base.n_states):
            if sum(conditional.event[t], F(0)) != conditional.alpha:
                failures.append(f"pair {index} event probability varies by state")
                break
        for t in range(base.n_states):
            clean = all(
                0 <= conditional.event[t][j] <= base.matrix[t][j]
                and conditional.event[t][j] == kappa[j] * base.matrix[t][j]
                for j in range(base.n_signals)
            )
            if not clean:
                failures.append(f"pair {index} event table malformed")
                break
        try:
            recovered = from_conditional(conditional, pi)
        except OrderError:
            failures.append(f"pair {index} round trip loses the order")
            continue
        if not verify_certificate(recovered):
            failures.append(f"pair {index} recovered certificate rejected")
        if recovered.beta != beta:
            failures.append(f"pair {index} size {recovered.beta} != {beta}")
        covered += 1
    _verdict(
        capsys,
        6,
        "conditional round trip preserves size",
        failures,
        f"{covered} ordered pairs, four conditions re-derived",
    )


def test_criterion_7_dynamics_properties(corpus, corpus_certs, corpus_sizes, capsys):
    failures = []

    # (a) merging horizon of the lazy symmetric chain under a blind experiment
    chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
    report = merging_horizon(chain, uninformative_experiment(2, 2), "1/10")
    if report.horizon != 4:
        failures.append(f"(a) horizon {report.horizon}")
    if report.profile != (F(4, 5), F(8, 25), F(16, 125), F(32, 625)):
        failures.append(f"(a) profile {report.profile}")

    # (b) under an iid chain one hull step lands on the one-shot posterior
    # hull and stays there
    rng = random.Random(CORPUS_SEED + 3)
    for trial in range(40):
        n_states = rng.randint(2, 3)
        experiment = random_experiment(
            rng, n_states, rng.randint(2, 4), full_support=True
        )
        mu = random_prior(rng, n_states)
        chain_iid = iid_chain(mu)
        expected = belief_set(
            [atom.belief for atom in posteriors(experiment, mu).atoms]
        )
        stepped = eta_step(chain_iid, experiment, full_simplex(n_states))
        limit = eta_limit(chain_iid, experiment)
        if stepped.points != expected.points:
            failures.append(f"(b) trial {trial}: first step misses the hull")
        if not (
            limit.converged
            and limit.iterations <= 2
            and limit.hull.points == expected.points
        ):
            failures.append(f"(b) trial {trial}: limit hull differs")
    named = eta_limit(iid_chain(uniform_prior(2)), binary_symmetric("3/5"))
    if named.hull.points != ((F(2, 5), F(3, 5)), (F(3, 5), F(2, 5))):
        failures.append("(b) named instance hull differs")

    # (c) stopping values never decrease in the horizon
    rng = random.Random(CORPUS_SEED + 4)
    for trial in range(20):
        n_states = rng.randint(2, 3)
        experiment = random_experiment(rng, n_states, rng.randint(2, 4))
        chain_any = random_chain(rng, n_states)
        problem = random_decision_problem(
            CORPUS_SEED + 600 + trial, 2 + trial % 3, n_states
        )
        previous = None
        for horizon in range(1, 5):
            stopping = StoppingProblem(
                problem=problem, chain=chain_any, horizon=horizon
            )
            current = stopping_value(stopping, experiment)
            if previous is not None and current < previous:
                failures.append(f"(c) trial {trial} drops at horizon {horizon}")
            previous = current

    # (d) the richer experiment of an ordered pair is worth at least as
    # much at horizon 8 under an iid chain; the guarantee is asymptotic in
    # the horizon, so a small remainder of ordered pairs may still lag at
    # desk scale and at least fifty must already dominate
    dominated = tested = 0
    for index, ((pi, mu, pi_prime), sized) in enumerate(zip(corpus, corpus_sizes)):
        if sized is None:
            continue
        base = random_decision_problem(CORPUS_SEED + 900 + index, 3, pi.n_states)
        problem = decision_problem(base.payoffs, mu.weights, actions=base.actions)
        stopping = StoppingProblem(
            problem=problem, chain=iid_chain(mu, states=pi.states), horizon=8
        )
        tested += 1
        if stopping_value(stopping, pi_prime) >= stopping_value(stopping, pi):
            dominated += 1
    if dominated < 50:
        failures.append(f"(d) only {dominated} ordered pairs dominate at horizon 8")

    # (e) separators from failed orders win strictly at every short horizon
    witnesses = 0
    for index, ((pi, mu, pi_prime), cert) in enumerate(zip(corpus, corpus_certs)):
        if cert is not None or witnesses >= 50:
            continue
        found = counterexample(pi, pi_prime, mu)
        if found is None:
            failures.append(f"(e) pair {index} returns no separator")
            continue
        problem, chain_iid, _values = found
        for horizon in (1, 2, 3, 4):
            stopping = StoppingProblem(
                problem=problem, chain=chain_iid, horizon=horizon
            )
            if not stopping_value(stopping, pi) > stopping_value(stopping, pi_prime):
                failures.append(f"(e) pair {index} ties at horizon {horizon}")
        witnesses += 1
    if witnesses < 50:
        failures.append(f"(e) only {witnesses} unordered pairs exercised")
    found = counterexample(
        perfect_experiment(2), uninformative_experiment(2), uniform_prior(2)
    )
    if found is None:
        failures.append("(e) hand-checked pair returns no separator")
    else:
        problem, chain_iid, _values = found
        stopping = StoppingProblem(problem=problem, chain=chain_iid, horizon=2)
        if stopping_value(stopping, perfect_experiment(2)) != 0:
            failures.append("(e) hand-checked value is not 0")
        if stopping_value(stopping, uninformative_experiment(2)) != F(-1, 4):
            failures.append("(e) hand-checked value is not -1/4")

    _verdict(
        capsys,
        7,
        "dynamics: merging, hulls, stopping",
        failures,
        f"(d) {dominated}/{tested} ordered pairs dominate at horizon 8, "
        f"(e) {witnesses} separators verified",
    )


def test_criterion_8_exact_lp_certificates(capsys):
    failures = []
    rng = random.Random(CORPUS_SEED + 5)
    counts = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for index in range(1000):
        lp = random_lp(rng)
        outcome = solve(lp)
        counts[outcome.status] += 1
        if outcome.status == OPTIMAL:
            if not solution_feasible(lp, outcome.x):
                failures.append(f"lp {index}: optimum infeasible")
            dual = solve(dual_program(lp))
            if dual.status != OPTIMAL or dual.objective != outcome.objective:
                failures.append(f"lp {index}: dual value differs")
        elif outcome.status == INFEASIBLE:
            if not farkas_verifies(lp, outcome.farkas):
                failures.append(f"lp {index}: infeasibility certificate rejected")
        else:
            if not ray_verifies(lp, outcome.ray):
                failures.append(f"lp {index}: improving ray rejected")
    if min(counts.values()) == 0:
        failures.append(f"statuses not all exercised: {counts}")
    for label, fn in _static_callables():
        touched = set(inspect.signature(fn).parameters) & {
            "tol", "tolerance", "eps", "epsilon", "atol", "rtol"
        }
        if touched:
            failures.append(f"{label} takes {sorted(touched)}")
    _verdict(
        capsys,
        8,
        "exact simplex with verified certificates",
        failures,
        f"{counts[OPTIMAL]} optimal / {counts[INFEASIBLE]} infeasible / "
        f"{counts[UNBOUNDED]} unbounded; static modules tolerance-free",
    )


def _static_callables():
    """Public functions and methods everywhere except the dynamics module."""
    names = (
        "numerics", "experiments", "order", "beliefs",
        "value", "documents", "generators", "cli",
    )
    for name in names:
        module = importlib.import_module(f"expord.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                yield f"{module.__name__}.{attr}", obj
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for member, fn in vars(obj).items():
                    if inspect.isfunction(fn) and not member.startswith("__"):
                        yield f"{module.__name__}.{attr}.{member}", fn
