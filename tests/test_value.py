"""Decision-problem values, the size-beta payoff bound, and its falsifier."""

import hashlib
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expord import (
    BoundReport,
    DecisionProblem,
    Experiment,
    InvalidInput,
    PolicyTable,
    Prior,
    check_blackwell,
    check_weighted,
    decision_problem,
    dilute,
    falsify_bound,
    min_size,
    mixed_strategy_payoff,
    policy_payoff,
    random_decision_problem,
    residual_for,
    size_interval,
    value,
    value_null,
    verify_bound,
)
from expord import documents as docs
import expord.order as order_module
from expord.numerics import farkas_verifies
from expord.generators import (
    binary_symmetric,
    corpus_pairs,
    perfect_experiment,
    three_signal_family,
    uninformative_experiment,
)
import reference_order
from reference_value import (
    reference_best_response,
    reference_mixed_strategy_payoff,
    reference_policy_payoff,
    reference_report_consistent,
    reference_value,
    reference_verify_bound,
)
from spies import spy_on_solves

F = Fraction

MATCHING = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])


class TestValue:
    def test_binary_symmetric_accuracy(self):
        total, _ = value(MATCHING, binary_symmetric("4/5"))
        assert total == F(4, 5)

    def test_uninformative_guess(self):
        total, _ = value(MATCHING, uninformative_experiment(2))
        assert total == F(1, 2)

    def test_three_signal_family(self):
        total, _ = value(MATCHING, three_signal_family("9/10"))
        assert total == F(7, 10)

    def test_policy_records_the_argmax(self):
        total, table = value(MATCHING, three_signal_family("4/5"))
        assert total == F(13, 20)
        # s0 ties between actions, broken toward a0; s2 needs a1
        assert table.indices == (0, 0, 1)
        assert table.actions == ("a0", "a0", "a1")
        assert table.signals == ("s0", "s1", "s2")

    def test_policy_payoff_matches_value(self):
        e = three_signal_family("9/10")
        total, table = value(MATCHING, e)
        assert policy_payoff(MATCHING, e, table) == total

    def test_suboptimal_policy_is_weakly_worse(self):
        e = binary_symmetric("4/5")
        flipped = PolicyTable(signals=e.signals, actions=("a1", "a0"), indices=(1, 0))
        total, _ = value(MATCHING, e)
        assert policy_payoff(MATCHING, e, flipped) == F(1, 5) < total

    def test_state_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            value(MATCHING, perfect_experiment(3))

    def test_information_never_hurts(self):
        for q in ("1/2", "3/5", "17/20"):
            total, _ = value(MATCHING, binary_symmetric(q))
            assert total >= value_null(MATCHING)


class TestValueNull:
    def test_matching_uniform(self):
        assert value_null(MATCHING) == F(1, 2)

    def test_single_constant_action(self):
        dp = decision_problem([["1/3", "1/3"]], ["1/4", "3/4"])
        assert value_null(dp) == F(1, 3)

    def test_singleton_average(self):
        dp = decision_problem([["1/2", "-3/2"]], ["1/2", "1/2"])
        assert value_null(dp) == F(-1, 2)


class TestVerifyBound:
    def test_tight_instance(self):
        report = verify_bound(
            MATCHING, binary_symmetric("4/5"), three_signal_family("9/10"), "3/2"
        )
        assert report.value_prime == F(7, 10)
        assert report.value_pi == F(4, 5)
        assert report.value_noinfo == F(1, 2)
        assert report.slack == 0 and report.holds

    def test_blackwell_case_reduces_to_monotonicity(self):
        report = verify_bound(
            MATCHING, binary_symmetric("3/5"), three_signal_family("4/5"), 1
        )
        assert report.holds
        assert report.value_pi == F(3, 5)
        assert report.value_prime == F(13, 20)
        assert report.slack == F(1, 20)

    def test_violated_instance(self):
        report = verify_bound(
            MATCHING, perfect_experiment(2), uninformative_experiment(2), 2
        )
        assert not report.holds
        assert report.value_prime == F(1, 2)
        assert report.slack == F(-1, 4)

    def test_beta_below_one_rejected(self):
        with pytest.raises(InvalidInput):
            verify_bound(MATCHING, binary_symmetric("3/5"), binary_symmetric("3/5"), "1/2")


_TIGHT = dict(
    value_prime=F(7, 10), value_pi=F(4, 5), value_noinfo=F(1, 2), beta=F(3, 2),
    slack=F(0), holds=True,
)


class TestBoundReportFields:
    def test_consistent_report_builds(self):
        assert BoundReport(**_TIGHT).holds

    @pytest.mark.parametrize(
        "changes",
        [
            {"beta": F(0)},
            {"beta": F(1, 2)},
            {"beta": F(-3, 2)},
            {"value_prime": 0.5},
            {"beta": 1.5},
            {"slack": 0},
            {"value_noinfo": "1/2"},
            {"holds": 1},
            {"slack": F(1, 100)},
            {"slack": F(-1, 100)},
            {"holds": False},
        ],
        ids=["beta 0", "beta 1/2", "beta -3/2", "float value", "float beta",
             "int slack", "string value", "int holds", "slack too high", "slack too low",
             "holds flipped"],
    )
    def test_rejects_an_inconsistent_report(self, changes):
        with pytest.raises(InvalidInput):
            BoundReport(**{**_TIGHT, **changes})


class TestFalsifyBound:
    def test_ordered_pair_cannot_be_falsified(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        assert falsify_bound(pi, pi_prime, "3/2") is None
        assert falsify_bound(pi, pi_prime, 2) is None

    def test_perfect_vs_uninformative_beta_one(self):
        problem = falsify_bound(perfect_experiment(2), uninformative_experiment(2), 1)
        assert problem is not None
        report = verify_bound(
            problem, perfect_experiment(2), uninformative_experiment(2), 1
        )
        assert not report.holds

    def test_large_beta_still_violated(self):
        problem = falsify_bound(perfect_experiment(2), uninformative_experiment(2), 10)
        assert problem is not None
        report = verify_bound(
            problem, perfect_experiment(2), uninformative_experiment(2), 10
        )
        assert not report.holds

    def test_beta_below_the_minimum_size(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        assert min_size(pi, pi_prime)[0] == F(3, 2)
        problem = falsify_bound(pi, pi_prime, 1)
        assert problem is not None
        assert not verify_bound(problem, pi, pi_prime, 1).holds

    def test_payoffs_normalized(self):
        problem = falsify_bound(perfect_experiment(2), uninformative_experiment(2), 2)
        assert all(abs(u) <= 1 for row in problem.payoffs for u in row)
        assert problem.prior.weights == (F(1, 2), F(1, 2))

    def test_outside_the_order_it_reads_the_undiluted_blocks(self):
        # Outside the order the problem is the diluted pair's own decision's
        # at every beta.  Inside it the cap-beta table may differ, but it
        # exists exactly when that decision refutes, and with its zero null
        # row and the largest column multipliers it refutes the whole diluted
        # Blackwell program.
        outside = inside = 0
        for pi, _prior, pi_prime in corpus_pairs(20250814, 500):
            ordered = order_module._relax(pi, pi_prime)[0]
            for beta in (1, 2, 4, 8):
                problem = falsify_bound(pi, pi_prime, beta)
                expected = reference_order.falsify_bound(pi, pi_prime, beta)
                assert (problem is None) == (expected is None)
                if problem is None:
                    continue
                if ordered:
                    inside += 1
                else:
                    assert problem == expected
                    outside += 1
                program = reference_order.blackwell_program(dilute(pi, beta), pi_prime)
                assert farkas_verifies(
                    program, reference_order.diluted_farkas(problem.payoffs, pi_prime)
                )
        assert outside > 400 and inside > 0

    def test_one_capped_solve_in_the_order_and_none_outside(self, monkeypatch):
        # The falsifier asks the program check_weighted(max_size=beta) states,
        # on the undiluted pair, and nothing at all once the blocks refute.
        captured = spy_on_solves(monkeypatch)
        seen = set()
        for pi, _prior, pi_prime in corpus_pairs(20250814, 40):
            ordered = check_weighted(pi, pi_prime) is not None
            n_s, n_sp = pi.n_signals, pi_prime.n_signals
            for beta in (1, F(3, 2), 2, 8):
                del captured[:]
                falsify_bound(pi, pi_prime, beta)
                if not ordered:
                    assert captured == []
                    continue
                assert [(len(lp.rows), lp.n_variables) for lp in captured] == [
                    (n_s * pi.n_states + n_sp, n_s * n_sp)
                ]
            seen.add(ordered)
        assert seen == {True, False}
        # expord.value the attribute is the function, so name the module.
        module = vars(importlib.import_module("expord.value"))
        assert "falsify_bound" in module
        assert not {"dilute", "_block", "_link", "_relax"} & set(module)


class TestRandomDecisionProblem:
    def test_deterministic_in_seed(self):
        assert random_decision_problem(7, 3, 2) == random_decision_problem(7, 3, 2)

    def test_draws_are_pinned(self):
        problems = [
            random_decision_problem(20250814 + k, 2 + k % 3, 2 + k % 3) for k in range(2000)
        ]
        text = repr([(p.actions, p.payoffs, p.prior.weights) for p in problems])
        assert hashlib.md5(text.encode()).hexdigest() == "181a63aa970b172417498a418f2bece0"

    def test_payoffs_bounded(self):
        for seed in range(100):
            dp = random_decision_problem(seed, 2 + seed % 3, 2 + seed % 2)
            assert all(abs(u) <= 1 for row in dp.payoffs for u in row)
            assert dp.prior.full_support

    def test_counts_validated(self):
        # A bool is no count, and a None seed would draw from OS entropy.
        for args in [(0, 0, 2), (0, 2.5, 2), (0, 2, 2, 2.5), (0, True, 2), (0, 2, "2"),
                     (0, 2, 2, 0), (None, 2, 2), (1.5, 2, 2), ("7", 2, 2)]:
            with pytest.raises(InvalidInput):
                random_decision_problem(*args)


class TestMixedStrategyPayoff:
    def _tight_setup(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        _, cert = min_size(pi, pi_prime)
        residual = residual_for(cert)
        return pi, pi_prime, cert, residual

    def test_optimal_policies_attain_the_bound(self):
        pi, pi_prime, cert, residual = self._tight_setup()
        _, sigma = value(MATCHING, pi)
        _, sigma_residual = value(MATCHING, residual)
        got = mixed_strategy_payoff(MATCHING, pi, pi_prime, cert, sigma, sigma_residual)
        assert got == F(7, 10)

    def test_constant_policies_ignore_the_experiments(self):
        pi, pi_prime, cert, residual = self._tight_setup()
        sigma = PolicyTable(signals=pi.signals, actions=("a0", "a0"), indices=(0, 0))
        sigma_residual = PolicyTable(
            signals=residual.signals, actions=("a0",) * 3, indices=(0, 0, 0)
        )
        got = mixed_strategy_payoff(MATCHING, pi, pi_prime, cert, sigma, sigma_residual)
        expected = sum(
            MATCHING.prior.weights[t] * MATCHING.payoffs[0][t] for t in range(2)
        )
        assert got == expected

    def test_decomposition_identity_on_random_problems(self):
        pi, pi_prime, cert, residual = self._tight_setup()
        beta = cert.beta
        for seed in range(50):
            dp = random_decision_problem(seed, 2 + seed % 3, 2)
            sigma = value(dp, pi)[1]
            sigma_residual = value(dp, residual)[1]
            mixed = mixed_strategy_payoff(dp, pi, pi_prime, cert, sigma, sigma_residual)
            direct = policy_payoff(dp, pi, sigma) / beta + (
                1 - 1 / beta
            ) * policy_payoff(dp, residual, sigma_residual)
            assert mixed == direct

    def test_unit_size_certificate_rejected(self):
        e = binary_symmetric("4/5")
        cert = check_blackwell(e, e)
        sigma = value(MATCHING, e)[1]
        with pytest.raises(InvalidInput):
            mixed_strategy_payoff(MATCHING, e, e, cert, sigma, sigma)


class TestPolicyValidation:
    """A policy's indices must name the problem's actions under its labels."""

    BAD_POLICIES = {
        "negative index": (("a1", "a1"), (-1, -1)),
        "index past the last action": (("a0", "a5"), (0, 5)),
        "label contradicts the index": (("a0", "a0"), (1, 1)),
        "bool index": (("a1", "a1"), (True, True)),
        "float index": (("a1", "a1"), (1.0, 1.0)),
    }

    @pytest.mark.parametrize("actions, indices", BAD_POLICIES.values(), ids=BAD_POLICIES)
    def test_policy_payoff_rejects(self, actions, indices):
        e = binary_symmetric("4/5")
        policy = PolicyTable(signals=e.signals, actions=actions, indices=indices)
        with pytest.raises(InvalidInput):
            policy_payoff(MATCHING, e, policy)

    @pytest.mark.parametrize("actions, indices", BAD_POLICIES.values(), ids=BAD_POLICIES)
    def test_mixed_strategy_payoff_rejects_the_policy(self, actions, indices):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        _, cert = min_size(pi, pi_prime)
        good_residual = value(MATCHING, residual_for(cert))[1]
        policy = PolicyTable(signals=pi.signals, actions=actions, indices=indices)
        with pytest.raises(InvalidInput):
            mixed_strategy_payoff(MATCHING, pi, pi_prime, cert, policy, good_residual)

    @pytest.mark.parametrize("actions, indices", BAD_POLICIES.values(), ids=BAD_POLICIES)
    def test_mixed_strategy_payoff_rejects_the_residual_policy(self, actions, indices):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        _, cert = min_size(pi, pi_prime)
        good_policy = value(MATCHING, pi)[1]
        residual = PolicyTable(
            signals=pi_prime.signals, actions=actions + ("a0",), indices=indices + (0,)
        )
        with pytest.raises(InvalidInput):
            mixed_strategy_payoff(MATCHING, pi, pi_prime, cert, good_policy, residual)


# Rationals for the differential test: a small pool, so that ties between
# actions are common, and wide ones with denominators up to 10**30.
_SMALL = [F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(2, 3)]
_rationals = st.one_of(
    st.sampled_from(_SMALL),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
_masses = st.one_of(
    st.just(F(0)),
    st.sampled_from(_SMALL[1:]).map(abs),
    st.builds(F, st.integers(0, 10**30), st.integers(1, 10**30)),
)


@st.composite
def _problems(draw, n_states):
    n_actions = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_rationals, min_size=n_states, max_size=n_states),
                         min_size=1, max_size=n_actions))
    # Repeat a row now and then, so that whole actions tie.
    rows += draw(st.lists(st.sampled_from(rows), max_size=1))
    weights = draw(st.lists(_masses, min_size=n_states, max_size=n_states))
    assume(any(weights))
    total = sum(weights)
    return DecisionProblem(
        actions=tuple(f"a{k}" for k in range(len(rows))),
        payoffs=tuple(tuple(row) for row in rows),
        prior=Prior(weights=tuple(w / total for w in weights)),
    )


@st.composite
def _experiments(draw, n_states):
    n_signals = draw(st.integers(1, 4))
    silent = draw(st.lists(st.booleans(), min_size=n_signals, max_size=n_signals))
    live = [j for j in range(n_signals) if not silent[j]] or [0]
    matrix = []
    for _ in range(n_states):
        row = [F(0)] * n_signals
        for j in live:
            row[j] = draw(_masses)
        if not any(row):
            row[live[0]] = F(1)
        total = sum(row)
        matrix.append(tuple(entry / total for entry in row))
    return Experiment(
        states=tuple(f"t{i}" for i in range(n_states)),
        signals=tuple(f"s{j}" for j in range(n_signals)),
        matrix=tuple(matrix),
    )


class TestAgainstFractionLoops:
    """The integer kernel against the Fraction loops it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_states=st.integers(1, 4))
    def test_best_response(self, data, n_states):
        problem = data.draw(_problems(n_states))
        measure = tuple(
            data.draw(st.lists(st.one_of(_rationals, _masses),
                               min_size=n_states, max_size=n_states))
        )
        got = problem.best_response(measure)
        assert got == reference_best_response(problem, measure)
        assert type(got[0]) is Fraction

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_states=st.integers(1, 4))
    def test_value(self, data, n_states):
        problem = data.draw(_problems(n_states))
        experiment = data.draw(_experiments(n_states))
        assert value(problem, experiment) == reference_value(problem, experiment)
        assert value_null(problem) == reference_best_response(
            problem, problem.prior.weights
        )[0]

    def test_plan_payoffs_over_corpus_pairs(self):
        rng = random.Random(29)
        mixed = 0
        for k, (pi, _prior, pi_prime) in enumerate(corpus_pairs(20250814, 300)):
            problem = random_decision_problem(k, rng.randint(1, 4), pi.n_states)
            if k % 2:
                # A prior with a zero, so that some states carry no weight.
                weights = (F(0),) + problem.prior.weights[1:]
                problem = DecisionProblem(
                    actions=problem.actions,
                    payoffs=problem.payoffs,
                    prior=Prior(weights=tuple(w / sum(weights) for w in weights)),
                )

            def policy(experiment):
                indices = tuple(rng.randrange(problem.n_actions) for _ in experiment.signals)
                return PolicyTable(
                    signals=experiment.signals,
                    actions=tuple(problem.actions[a] for a in indices),
                    indices=indices,
                )

            for experiment in (pi, pi_prime):
                sigma = policy(experiment)
                got = policy_payoff(problem, experiment, sigma)
                assert got == reference_policy_payoff(problem, experiment, sigma)
            interval = size_interval(pi, pi_prime)
            witnesses = () if interval is None else (interval.witness_min, interval.witness_max)
            for certificate in witnesses:
                if certificate is not None and certificate.beta > 1:
                    args = (problem, pi, pi_prime, certificate, policy(pi), policy(pi_prime))
                    assert mixed_strategy_payoff(*args) == reference_mixed_strategy_payoff(*args)
                    mixed += 1
        assert mixed > 50

    def test_tie_and_silent_signal(self):
        problem = decision_problem([["1", "0"], ["1", "0"], ["0", "1"]], ["1", "0"])
        experiment = Experiment(
            states=("t0", "t1"),
            signals=("s0", "s1"),
            matrix=((F(1), F(0)), (F(0), F(1))),
        )
        # s0 ties a0 with a1; s1 has zero mass, so every action scores 0.
        assert value(problem, experiment) == reference_value(problem, experiment)
        assert value(problem, experiment)[1].indices == (0, 0)


class TestDerivedFieldsInvisible:
    """The integer payoff table does not change equality, hashing or repr."""

    def test_integer_table(self):
        dp = decision_problem([["1/2", "1/3"], ["-1/4", "0"]], ["1/2", "1/2"])
        assert dp.payoff_scale == 12
        assert dp.payoff_ints == ((6, 4), (-3, 0))

    def test_equality_hash_and_repr(self):
        one = decision_problem([["1/2", "-1"]], ["1/3", "2/3"])
        two = decision_problem([["2/4", "-3/3"]], [F(1, 3), "4/6"])
        other = decision_problem([["1/2", "1"]], ["1/3", "2/3"])
        assert one == two and hash(one) == hash(two)
        assert one != other
        assert len({one, two, other}) == 2
        assert repr(one) == (
            "DecisionProblem(actions=('a0',), "
            "payoffs=((Fraction(1, 2), Fraction(-1, 1)),), "
            "prior=Prior(weights=(Fraction(1, 3), Fraction(2, 3))))"
        )

    def test_document_round_trip(self):
        for seed in range(20):
            dp = random_decision_problem(seed, 3, 2, denominator_bound=10**6)
            back = docs.decision_problem_from_doc(docs.decision_problem_to_doc(dp))
            assert back == dp and hash(back) == hash(dp)
            assert back.payoff_ints == dp.payoff_ints
            assert back.payoff_scale == dp.payoff_scale

    @pytest.mark.parametrize("measure", [(F(1),), (F(1, 3),) * 3, ()])
    def test_best_response_checks_the_dimension(self, measure):
        with pytest.raises(InvalidInput):
            MATCHING.best_response(measure)


ACCEPTANCE_SEED = 20250814


def _value_universe():
    """Each ordered pair among the first 120 corpus pairs, at its minimal size,
    with the 48 decision problems the value-bounds workload draws from."""
    for index, (pi, _prior, pi_prime) in enumerate(corpus_pairs(ACCEPTANCE_SEED, 120)):
        sized = min_size(pi, pi_prime)
        if sized is None:
            continue
        for k in range(48):
            problem = random_decision_problem(
                ACCEPTANCE_SEED + 200 * index + k, 2 + k % 3, pi.n_states
            )
            yield problem, pi, pi_prime, sized[0]


@pytest.fixture(scope="module")
def value_universe():
    return list(_value_universe())


_betas = st.one_of(
    st.just(F(1)),
    st.builds(lambda n, d: 1 + F(n, d), st.integers(1, 10**6), st.integers(2, 10**6))
    .filter(lambda b: b.denominator > 1),
)


def _flipped(report, term):
    """The slack with one term of verify_bound's numerator negated."""
    b, c = report.beta.numerator, report.beta.denominator
    p1, q1 = report.value_prime.numerator, report.value_prime.denominator
    p2, q2 = report.value_pi.numerator, report.value_pi.denominator
    p3, q3 = report.value_noinfo.numerator, report.value_noinfo.denominator
    terms = [b * p1 * q2 * q3, -c * p2 * q1 * q3, -(b - c) * p3 * q1 * q2]
    if terms[term] == 0:
        return None
    terms[term] = -terms[term]
    return F(sum(terms), b * q1 * q2 * q3)


class TestBoundAgainstFractionReference:
    """verify_bound's one integer pass against the Fraction body it replaced."""

    def test_value_bounds_universe(self, value_universe):
        assert len(value_universe) > 3000
        for args in value_universe:
            report = verify_bound(*args)
            assert report == reference_verify_bound(*args)
            assert report.holds

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_states=st.integers(1, 4), beta=_betas)
    def test_random_problems_and_experiments(self, data, n_states, beta):
        problem = data.draw(_problems(n_states))
        pi = data.draw(_experiments(n_states))
        pi_prime = data.draw(_experiments(n_states))
        assert verify_bound(problem, pi, pi_prime, beta) == reference_verify_bound(
            problem, pi, pi_prime, beta
        )

    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(_rationals, min_size=3, max_size=3),
        beta=_betas,
        shift=st.one_of(
            st.just(F(0)),
            st.sampled_from([F(1), F(-1)]),
            st.builds(F, st.integers(-3, 3), st.integers(1, 10**30)),
        ),
        nudge=st.sampled_from(["none", "numerator", "denominator"]),
        flag=st.booleans(),
    )
    def test_post_init_accepts_exactly_the_fraction_predicate(
        self, values, beta, shift, nudge, flag
    ):
        value_prime, value_pi, value_noinfo = values
        slack = value_prime - (value_pi / beta + (1 - 1 / beta) * value_noinfo) + shift
        if nudge == "numerator":
            slack = F(slack.numerator + 1, slack.denominator)
        elif nudge == "denominator":
            slack = F(slack.numerator, slack.denominator + 1)
        holds = (slack >= 0) if flag else (slack < 0)
        fields = (value_prime, value_pi, value_noinfo, beta, slack, holds)
        if reference_report_consistent(*fields):
            assert BoundReport(*fields).slack == slack
        else:
            with pytest.raises(InvalidInput):
                BoundReport(*fields)

    def test_a_flipped_sign_in_the_numerator_is_caught(self, value_universe):
        flips = 0
        for args in value_universe[::7]:
            report = verify_bound(*args)
            for term in range(3):
                slack = _flipped(report, term)
                if slack is None:
                    continue
                flips += 1
                with pytest.raises(InvalidInput, match="slack is not the difference"):
                    BoundReport(
                        value_prime=report.value_prime,
                        value_pi=report.value_pi,
                        value_noinfo=report.value_noinfo,
                        beta=report.beta,
                        slack=slack,
                        holds=slack >= 0,
                    )
        assert flips > 500
