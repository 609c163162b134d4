"""Hidden-Markov belief dynamics, merging, stopping, and the separator."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import expord
from expord import documents as docs
from expord import dynamics
from expord import (
    BeliefSet,
    InvalidInput,
    MarkovChain,
    StoppingProblem,
    belief_set,
    counterexample,
    decision_problem,
    eta_limit,
    eta_step,
    full_simplex,
    iid_chain,
    markov_chain,
    merging_horizon,
    prior,
    regular_prior_check,
    stationary_distribution,
    stopping_value,
    uniform_prior,
    update,
    validate_experiment,
)
from expord.experiments import Experiment
from expord.generators import (
    binary_symmetric,
    corpus_pairs,
    perfect_experiment,
    random_chain,
    random_experiment,
    three_signal_family,
    uninformative_experiment,
)
from expord.value import random_decision_problem
from reference_dynamics import (
    reference_counterexample,
    reference_merging_horizon,
    reference_stopping_value,
)

F = Fraction

UNIFORM = uniform_prior(2)
IDENTITY_2 = markov_chain([["1", "0"], ["0", "1"]])
IID_UNIFORM = iid_chain(UNIFORM)
MATCHING = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])


def exhaustive_stopping_value(problem, chain, horizon, experiment):
    """Reference value by brute enumeration of history-contingent rules.

    Carries the unnormalized joint distribution over the current state down
    each history and lists the expected payoff of every deterministic rule;
    the maximum over rules must equal the backward-induction value.  Only
    usable for tiny trees.
    """
    n = problem.n_states

    def rule_values(t, dist):
        mass = sum(dist)
        stop_values = [
            sum(problem.payoffs[a][u] * dist[u] for u in range(n))
            for a in range(problem.n_actions)
        ]
        if t == horizon or mass == 0:
            return stop_values
        pushed = [
            sum(dist[u] * chain.rows[u][v] for u in range(n)) for v in range(n)
        ]
        branches = []
        for j in range(experiment.n_signals):
            child = tuple(experiment.matrix[v][j] * pushed[v] for v in range(n))
            branches.append(rule_values(t + 1, child))
        continue_values = [
            sum(combo) for combo in itertools.product(*branches)
        ]
        return stop_values + continue_values

    return max(rule_values(0, tuple(problem.prior.weights)))


class TestUpdate:
    def test_identity_chain_is_plain_bayes(self):
        got = update(IDENTITY_2, binary_symmetric("3/5"), (F(1, 3), F(2, 3)), "s1")
        assert got == (F(3, 7), F(4, 7))

    def test_iid_chain_forgets_the_current_belief(self):
        e = binary_symmetric("3/5")
        for belief in [(F(1, 3), F(2, 3)), (F(9, 10), F(1, 10))]:
            assert update(IID_UNIFORM, e, belief, "s1") == (F(3, 5), F(2, 5))

    def test_uninformative_signal_gives_the_pushforward(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        mu = (F(1), F(0))
        got = update(chain, uninformative_experiment(2, 2), mu, "s0")
        assert got == (F(7, 10), F(3, 10))

    def test_zero_probability_signal_rejected(self):
        with pytest.raises(InvalidInput):
            update(IDENTITY_2, perfect_experiment(2), (F(1), F(0)), 1)

    @pytest.mark.parametrize("signal", [True, 1.0, F(1)])
    def test_signal_index_must_be_an_int(self, signal):
        with pytest.raises(InvalidInput):
            update(IDENTITY_2, binary_symmetric("3/5"), (F(1, 3), F(2, 3)), signal)


class TestPushForward:
    CHAIN = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])

    def test_one_exact_step(self):
        assert self.CHAIN.push_forward((1, F(0))) == (F(7, 10), F(3, 10))

    @pytest.mark.parametrize("belief", [(0.5, 0.5), (1, 0, 5), (True, False)])
    def test_floats_bools_and_wrong_lengths_rejected(self, belief):
        with pytest.raises(InvalidInput):
            self.CHAIN.push_forward(belief)


class TestMarkovChainLabels:
    @pytest.mark.parametrize(
        "states",
        [(1, 2), ("t0", "t0"), ("t0", ""), (["t0"], "t1")],
        ids=["ints", "duplicate", "empty", "unhashable"],
    )
    def test_labels_are_distinct_nonempty_strings(self, states):
        with pytest.raises(InvalidInput):
            MarkovChain(states=states, rows=IDENTITY_2.rows)


class TestBeliefSetPoints:
    """Every point of a belief set is a belief of the first point's dimension."""

    SHORT = ((F(1), F(0)), (F(1, 2),))

    def test_short_point_before_l1_distance(self):
        with pytest.raises(InvalidInput):
            BeliefSet(points=self.SHORT).l1_distance((F(1, 2), F(1, 2)))

    def test_short_point_before_regular_prior_check(self):
        with pytest.raises(InvalidInput):
            hull = BeliefSet(points=self.SHORT)
            regular_prior_check(IID_UNIFORM, binary_symmetric("3/5"), UNIFORM, hull)

    def test_point_off_the_simplex(self):
        with pytest.raises(InvalidInput):
            BeliefSet(points=((F(2), F(-1)),)).l1_distance((F(1, 2), F(1, 2)))

    @pytest.mark.parametrize(
        "points",
        [[[F(1), F(0)]], ([F(1), F(0)],), [(F(1), F(0))]],
        ids=["list of lists", "tuple of lists", "list of tuples"],
    )
    def test_points_are_a_tuple_of_tuples(self, points):
        # A frozen set of lists would be unhashable and unequal to its tuple form.
        with pytest.raises(InvalidInput):
            BeliefSet(points=points)


class TestEtaStep:
    def test_iid_image_is_the_posterior_hull(self):
        out = eta_step(IID_UNIFORM, binary_symmetric("3/5"), full_simplex(2))
        assert set(out.points) == {(F(3, 5), F(2, 5)), (F(2, 5), F(3, 5))}

    def test_uninformative_fixed_point(self):
        point = belief_set([(F(1, 3), F(2, 3))])
        out = eta_step(IDENTITY_2, uninformative_experiment(2, 2), point)
        assert out.points == point.points

    def test_contained_in_the_simplex(self):
        simplex = full_simplex(2)
        out = eta_step(IID_UNIFORM, binary_symmetric("3/5"), simplex)
        for p in out.points:
            assert simplex.contains(p)


class TestEtaLimit:
    def test_iid_limit_is_the_posterior_support_hull(self):
        result = eta_limit(IID_UNIFORM, binary_symmetric("3/5"))
        assert result.converged and result.gap == 0
        assert set(result.hull.points) == {(F(3, 5), F(2, 5)), (F(2, 5), F(3, 5))}

    def test_uninformative_contracts_to_the_stationary_point(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        assert stationary_distribution(chain) == (F(1, 2), F(1, 2))
        result = eta_limit(chain, uninformative_experiment(2, 2))
        assert result.converged
        for p in result.hull.points:
            assert abs(p[0] - F(1, 2)) + abs(p[1] - F(1, 2)) < F(1, 10 ** 4)

    def test_zero_tolerance_stops_at_an_exact_fixed_point(self):
        result = eta_limit(IID_UNIFORM, binary_symmetric("3/5"), tol=0)
        assert result.converged and result.gap == 0

    def test_too_many_states_rejected(self):
        mu4 = uniform_prior(4)
        with pytest.raises(InvalidInput):
            eta_limit(iid_chain(mu4), perfect_experiment(4))


class TestRegularPriorCheck:
    def test_iid_prior_equal_to_the_chain_row(self):
        e = binary_symmetric("3/5")
        result = eta_limit(IID_UNIFORM, e)
        assert regular_prior_check(IID_UNIFORM, e, UNIFORM, result.hull)

    def test_full_simplex_accepts_everything(self):
        e = binary_symmetric("9/10")
        assert regular_prior_check(IDENTITY_2, e, prior(["1/4", "3/4"]), full_simplex(2))

    def test_point_hull_rejects_distant_updates(self):
        hull = belief_set([(F(1, 2), F(1, 2))])
        assert not regular_prior_check(IDENTITY_2, binary_symmetric("3/5"), UNIFORM, hull)

    # Each of these used to come back True: every InvalidInput raised per
    # signal was read as a zero-probability signal and skipped.
    def test_chain_labels_must_match_the_experiment(self):
        chain = markov_chain([["1/2", "1/2"], ["1/3", "2/3"]], states=["x0", "x1"])
        hull = belief_set([(F(1, 2), F(1, 2))])
        with pytest.raises(InvalidInput):
            regular_prior_check(chain, binary_symmetric("3/4"), UNIFORM, hull)

    def test_three_state_chain_and_prior_with_two_state_experiment(self):
        chain = iid_chain(uniform_prior(3))
        hull = belief_set([(F(1, 3), F(1, 3), F(1, 3))])
        with pytest.raises(InvalidInput):
            regular_prior_check(chain, binary_symmetric("3/4"), uniform_prior(3), hull)

    def test_prior_dimension_must_match(self):
        hull = belief_set([(F(1, 2), F(1, 2))])
        with pytest.raises(InvalidInput):
            regular_prior_check(IID_UNIFORM, binary_symmetric("3/4"), uniform_prior(3), hull)


class TestMergingHorizon:
    def test_chain_mixing_profile(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        report = merging_horizon(chain, uninformative_experiment(2, 2), "1/10")
        assert report.horizon == 4
        assert report.profile == (F(4, 5), F(8, 25), F(16, 125), F(32, 625))
        assert report.monotone

    def test_perfect_signals_merge_immediately(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        report = merging_horizon(chain, perfect_experiment(2), "1/10")
        assert report.horizon == 1
        assert report.profile == (F(0),)

    def test_vacuous_threshold(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        report = merging_horizon(chain, uninformative_experiment(2, 2), 2)
        assert report.horizon == 1

    def test_threshold_never_reached_reports_none(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        report = merging_horizon(chain, uninformative_experiment(2, 2), "1/10", n_max=2)
        assert report.horizon is None
        assert len(report.profile) == 2

    def test_chain_with_zeros_rejected(self):
        with pytest.raises(InvalidInput):
            merging_horizon(IDENTITY_2, uninformative_experiment(2, 2), "1/10")

    def test_depth_capped_before_enumerating(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        merging_horizon(chain, uninformative_experiment(2), "0", n_max=20)
        for n_max in (21, 10**9):
            with pytest.raises(InvalidInput):
                merging_horizon(chain, uninformative_experiment(2), "0", n_max=n_max)


class TestStoppingValue:
    def test_perfect_revelation_after_one_wait(self):
        sp = StoppingProblem(problem=MATCHING, chain=IDENTITY_2, horizon=1)
        assert stopping_value(sp, perfect_experiment(2)) == 1

    def test_uninformative_never_learns(self):
        for horizon in (1, 2, 3):
            sp = StoppingProblem(problem=MATCHING, chain=IDENTITY_2, horizon=horizon)
            assert stopping_value(sp, uninformative_experiment(2)) == F(1, 2)

    def test_binary_symmetric_waiting_adds_nothing(self):
        sp = StoppingProblem(problem=MATCHING, chain=IID_UNIFORM, horizon=2)
        assert stopping_value(sp, binary_symmetric("3/5")) == F(3, 5)

    def test_monotone_in_horizon(self):
        e = binary_symmetric("7/10")
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        values = [
            stopping_value(
                StoppingProblem(problem=MATCHING, chain=chain, horizon=t), e
            )
            for t in range(1, 6)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_payoff_bound_enforced(self):
        big = decision_problem([["2", "0"], ["0", "1"]], ["1/2", "1/2"])
        with pytest.raises(InvalidInput):
            StoppingProblem(problem=big, chain=IDENTITY_2, horizon=1)

    def test_tree_size_guard(self):
        sp = StoppingProblem(problem=MATCHING, chain=IDENTITY_2, horizon=21)
        with pytest.raises(InvalidInput):
            stopping_value(sp, binary_symmetric("3/5"))

    def test_horizon_capped_for_one_signal(self):
        # 1 ** horizon never trips the tree-size guard; the depth cap does.
        sp = StoppingProblem(problem=MATCHING, chain=IID_UNIFORM, horizon=20)
        assert stopping_value(sp, uninformative_experiment(2)) == F(1, 2)
        for horizon in (21, 100000):
            sp = StoppingProblem(problem=MATCHING, chain=IID_UNIFORM, horizon=horizon)
            with pytest.raises(InvalidInput):
                stopping_value(sp, uninformative_experiment(2))

    def test_matches_exhaustive_policy_enumeration(self):
        import random as _random

        e = binary_symmetric("3/5")
        sp = StoppingProblem(problem=MATCHING, chain=IID_UNIFORM, horizon=2)
        assert exhaustive_stopping_value(MATCHING, IID_UNIFORM, 2, e) == F(3, 5)
        for seed in range(8):
            rng = _random.Random(seed)
            dp = random_decision_problem(seed, 2, 2, denominator_bound=6)
            chain = random_chain(rng, 2, strictly_positive=True)
            sp = StoppingProblem(problem=dp, chain=chain, horizon=2)
            expected = exhaustive_stopping_value(dp, chain, 2, e)
            assert stopping_value(sp, e) == expected


class TestCounterexample:
    def test_hand_checked_single_action_oracle(self):
        # One action with payoffs (1/4, -3/4): at horizon 2 the perfect
        # experiment is worth 0 and the uninformative one -1/4.
        dp = decision_problem([["1/4", "-3/4"]], ["1/2", "1/2"])
        sp = StoppingProblem(problem=dp, chain=IID_UNIFORM, horizon=2)
        assert stopping_value(sp, perfect_experiment(2)) == 0
        assert stopping_value(sp, uninformative_experiment(2)) == F(-1, 4)
        # The same instance cannot separate at horizon 1.
        sp1 = StoppingProblem(problem=dp, chain=IID_UNIFORM, horizon=1)
        assert stopping_value(sp1, perfect_experiment(2)) == F(-1, 4)
        assert stopping_value(sp1, uninformative_experiment(2)) == F(-1, 4)

    def test_perfect_vs_uninformative_matches_the_hand_values(self):
        found = counterexample(perfect_experiment(2), uninformative_experiment(2), UNIFORM)
        assert found is not None
        problem, chain, _values = found
        assert set(problem.payoffs) == {
            (F(-1, 4), F(-1, 4)),
            (F(0), F(-1)),
            (F(-1), F(0)),
        }
        for horizon in (1, 2, 3, 4):
            sp = StoppingProblem(problem=problem, chain=chain, horizon=horizon)
            assert stopping_value(sp, perfect_experiment(2)) == 0
            assert stopping_value(sp, uninformative_experiment(2)) == F(-1, 4)

    def test_ordered_pair_yields_none(self):
        assert (
            counterexample(binary_symmetric("3/5"), three_signal_family("4/5"), UNIFORM)
            is None
        )

    def test_reversed_binary_pair_separates(self):
        pi = binary_symmetric("9/10")
        pi_prime = binary_symmetric("3/5")
        found = counterexample(pi, pi_prime, UNIFORM)
        assert found is not None
        problem, chain, _values = found
        for horizon in (1, 2, 3, 4):
            sp = StoppingProblem(problem=problem, chain=chain, horizon=horizon)
            assert stopping_value(sp, pi) > stopping_value(sp, pi_prime)

    def test_returned_values_are_the_stopping_values(self):
        pi = binary_symmetric("9/10")
        pi_prime = binary_symmetric("3/5")
        problem, chain, values = counterexample(pi, pi_prime, UNIFORM)
        assert [horizon for horizon, _, _ in values] == [1, 2, 3, 4]
        for horizon, better, worse in values:
            sp = StoppingProblem(problem=problem, chain=chain, horizon=horizon)
            assert better == stopping_value(sp, pi) > worse == stopping_value(sp, pi_prime)

    def test_payoffs_normalized(self):
        found = counterexample(binary_symmetric("9/10"), binary_symmetric("3/5"), UNIFORM)
        problem, _, _ = found
        assert all(abs(u) <= 1 for row in problem.payoffs for u in row)

    def test_chain_is_iid_at_the_prior(self):
        mu = prior(["1/3", "2/3"])
        found = counterexample(perfect_experiment(2), uninformative_experiment(2), mu)
        _, chain, _ = found
        assert all(row == mu.weights for row in chain.rows)


class TestCountArguments:
    """Horizons, n_max and max_iter are ints; a bool is not a count."""

    @pytest.mark.parametrize("horizon", [2.5, True, F(3), "3"])
    def test_stopping_horizon(self, horizon):
        with pytest.raises(InvalidInput):
            StoppingProblem(problem=MATCHING, chain=IID_UNIFORM, horizon=horizon)

    @pytest.mark.parametrize("n_max", [2.5, True, F(3), "3"])
    def test_merging_n_max(self, n_max):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        with pytest.raises(InvalidInput):
            merging_horizon(chain, binary_symmetric("3/5"), "1/10", n_max=n_max)

    @pytest.mark.parametrize("max_iter", [2.5, True, F(3), "3"])
    def test_eta_max_iter(self, max_iter):
        with pytest.raises(InvalidInput):
            eta_limit(IID_UNIFORM, binary_symmetric("3/5"), max_iter=max_iter)

    @pytest.mark.parametrize("n_states", [2.0, True, F(2), "2"])
    def test_full_simplex_states(self, n_states):
        with pytest.raises(InvalidInput):
            full_simplex(n_states)


FLOATS = [0.5, 0.0, float("inf"), float("nan")]


class TestTolerancesAreExact:
    """A float tolerance is refused, never converted."""

    @pytest.mark.parametrize("tol", FLOATS)
    def test_eta_tol(self, tol):
        with pytest.raises(InvalidInput):
            eta_limit(IID_UNIFORM, binary_symmetric("3/5"), tol=tol)

    @pytest.mark.parametrize("tol", FLOATS)
    def test_regular_prior_tol(self, tol):
        hull = eta_limit(IID_UNIFORM, binary_symmetric("3/5"), tol=0).hull
        with pytest.raises(InvalidInput):
            regular_prior_check(IID_UNIFORM, binary_symmetric("3/5"), UNIFORM, hull, tol=tol)

    @pytest.mark.parametrize("epsilon", FLOATS)
    def test_merging_epsilon(self, epsilon):
        with pytest.raises(InvalidInput):
            merging_horizon(STICKY, binary_symmetric("3/5"), epsilon, n_max=3)


def _outcome(function, *args, **kwargs):
    try:
        return function(*args, **kwargs)
    except InvalidInput as error:
        return ("InvalidInput", str(error))


class TestAgainstRecursiveReference:
    """The level walk against the recursion and matrix products it replaced."""

    def test_random_instances(self):
        import random as _random

        compared = 0
        for seed in range(100):
            rng = _random.Random(seed)
            n_states, n_signals = rng.randint(2, 3), rng.randint(2, 3)
            e = random_experiment(rng, n_states, n_signals, denominator_bound=6)
            chain = random_chain(
                rng, n_states, denominator_bound=6, strictly_positive=rng.random() < 0.7
            )
            dp = random_decision_problem(seed, 3, n_states, denominator_bound=6)
            for horizon in range(1, 7):
                sp = StoppingProblem(problem=dp, chain=chain, horizon=horizon)
                got = stopping_value(sp, e)
                assert got == reference_stopping_value(sp, e)
                compared += 1
            eps = F(rng.randint(0, 5), 10)
            got = _outcome(merging_horizon, chain, e, eps, n_max=7)
            assert got == _outcome(reference_merging_horizon, chain, e, eps, n_max=7)
            compared += 1
        assert compared == 700

    def test_counterexample_on_the_acceptance_corpus(self):
        # The hull decisions alone answer exactly as the psi LP did first.
        found = 0
        for pi, mu, pi_prime in corpus_pairs(20250814, 500):
            got = counterexample(pi, pi_prime, mu)
            assert got == reference_counterexample(pi, pi_prime, mu)
            found += got is not None
        assert 0 < found < 500


STICKY = markov_chain([["9/10", "1/10"], ["1/5", "4/5"]])


class TestStepBudget:
    def test_three_signals_under_an_iid_chain_reach_depth_twenty(self):
        # At most three distinct beliefs per period, where the old
        # n_signals ** depth guard counted 3 ** 20 nodes and refused.
        e = three_signal_family("4/5")
        deep = StoppingProblem(problem=MATCHING, chain=IID_UNIFORM, horizon=20)
        with pytest.raises(InvalidInput):
            reference_stopping_value(deep, e)
        # Under the i.i.d. chain the continuation C_t is the same at every
        # belief: s0 (mass 1/2) leaves the belief at 1/2, s1 and s2 move it to
        # a belief worth 4/5.  So C_19 = 13/20 and C_t = C_{t+1} / 2 + 2/5,
        # which gives 4/5 - C_0 = (3/20) / 2 ** 19.
        assert stopping_value(deep, e) == F(4, 5) - F(3, 20) / 2 ** 19
        with pytest.raises(InvalidInput):
            reference_merging_horizon(IID_UNIFORM, e, "0", n_max=20)
        report = merging_horizon(IID_UNIFORM, e, "0", n_max=20)
        assert report.horizon is None and report.profile == (F(0),) * 20

    def test_budget_refuses_before_the_level_that_breaks_it(self, monkeypatch):
        # On the sticky chain each level triples: 1, 3, 9, 27 distinct beliefs.
        # With a budget of 27 Bayes steps the level of 27 beliefs (81 steps)
        # is refused before any of its steps is taken.
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 27)
        calls = []
        real_bayes = Experiment.bayes

        def counting_bayes(self, measure, j):
            calls.append(j)
            return real_bayes(self, measure, j)

        monkeypatch.setattr(Experiment, "bayes", counting_bayes)
        sp = StoppingProblem(problem=MATCHING, chain=STICKY, horizon=10)
        with pytest.raises(InvalidInput):
            stopping_value(sp, three_signal_family("4/5"))
        assert len(calls) == 3 + 9 + 27
        calls.clear()
        with pytest.raises(InvalidInput):
            merging_horizon(STICKY, three_signal_family("4/5"), "0", n_max=10)
        # Each node there is a pair of posteriors, one per starting state.
        assert len(calls) <= 2 * (3 + 9 + 27)

    def test_cli_refusal_survives_optimize_flag(self, tmp_path):
        # 1025 signals with pairwise distinct likelihood ratios: the 1025
        # posteriors after one period need 1025 ** 2 > 2 ** 20 Bayes steps.
        n_signals = 1025
        total = n_signals * (n_signals + 1) // 2
        e = validate_experiment(
            [
                [F(k + 1, total) for k in range(n_signals)],
                [F(1, n_signals)] * n_signals,
            ],
            states=("t0", "t1"),
        )
        paths = {}
        for name, doc in (
            ("problem", docs.decision_problem_to_doc(MATCHING)),
            ("experiment", docs.experiment_to_doc(e)),
            ("chain", docs.chain_to_doc(STICKY)),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(docs.dump_document(doc))
        src = os.path.dirname(os.path.dirname(expord.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-m", "expord.cli", "stopping",
             str(paths["problem"]), str(paths["experiment"]),
             "--chain", str(paths["chain"]), "--horizon", "2"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and "more than the 1048576" in done.stderr
        assert "Traceback" not in done.stderr
