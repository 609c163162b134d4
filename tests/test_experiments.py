"""Core data model tests: experiments, priors, weights, constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expord import (
    BeliefSet,
    ConditionalExperiment,
    CouplingCertificate,
    DecisionProblem,
    Experiment,
    GarblingCertificate,
    HullMembershipCertificate,
    InvalidInput,
    MarkovChain,
    Prior,
    Weight,
    apply_weight,
    check_weighted,
    check_weighted_beliefs,
    decision_problem,
    dilute,
    make_weight,
    prior,
    regularize,
    residual_experiment,
    to_conditional,
    uniform_prior,
    unit_weight,
    validate_experiment,
    weight_check,
)
from expord.experiments import _check_distribution, check_belief

import reference_experiments
from expord.generators import (
    binary_symmetric,
    corpus_pairs,
    perfect_experiment,
    random_experiment,
    three_signal_family,
    uninformative_experiment,
)

F = Fraction


class TestValidateExperiment:
    def test_binary_symmetric_rows(self):
        e = validate_experiment([["4/5", "1/5"], ["1/5", "4/5"]])
        assert e.n_states == 2 and e.n_signals == 2
        assert e.matrix[0] == (F(4, 5), F(1, 5))

    def test_three_signal_shape(self):
        e = validate_experiment(
            [["1/2", "9/20", "1/20"], ["1/2", "1/20", "9/20"]]
        )
        assert e.matrix[1] == (F(1, 2), F(1, 20), F(9, 20))

    def test_row_sum_violation(self):
        with pytest.raises(InvalidInput):
            validate_experiment([["1/2", "1/2"], ["1/2", "2/3"]])

    def test_negative_entry(self):
        with pytest.raises(InvalidInput):
            validate_experiment([["3/2", "-1/2"]])

    def test_empty_dimensions(self):
        with pytest.raises(InvalidInput):
            validate_experiment([])

    def test_ragged_rows(self):
        with pytest.raises(InvalidInput):
            validate_experiment([["1"], ["1/2", "1/2"]])


class TestPrior:
    def test_uniform(self):
        p = uniform_prior(4)
        assert p.weights == (F(1, 4),) * 4
        assert p.full_support

    def test_boundary_prior_not_full_support(self):
        p = prior(["1", "0"])
        assert not p.full_support

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidInput):
            prior(["1/2", "1/3"])

    def test_refuses_list_weights(self):
        # A frozen prior with a list in it could not be hashed.
        hash(Prior(weights=(F(1, 2), F(1, 2))))
        with pytest.raises(InvalidInput, match="tuple"):
            Prior(weights=[F(1, 2), F(1, 2)])

    @pytest.mark.parametrize("count", [True, (2,), 2.0, "2", 0])
    def test_uniform_prior_needs_a_positive_int(self, count):
        with pytest.raises(InvalidInput):
            uniform_prior(count)


class TestListFieldsRefused:
    """A frozen value with a list in it could not be hashed, so each type refuses one."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Experiment(
                states=("t0", "t1"), signals=("a", "b"), matrix=[[F(1), F(0)], [F(0), F(1)]]
            ),
            lambda: Experiment(
                states=["t0", "t1"], signals=("a", "b"), matrix=[[F(1), F(0)], [F(0), F(1)]]
            ),
            lambda: Experiment(
                states=["t0", "t1"], signals=("a", "b"), matrix=((F(1), F(0)), (F(0), F(1)))
            ),
            lambda: Experiment(
                states=("t0", "t1"), signals=["a", "b"], matrix=((F(1), F(0)), (F(0), F(1)))
            ),
            lambda: Experiment(
                states=("t0", "t1"), signals=("a", "b"), matrix=([F(1), F(0)], [F(0), F(1)])
            ),
            lambda: DecisionProblem(
                actions=("x", "y"), payoffs=[[F(1), F(0)], [F(0), F(1)]], prior=uniform_prior(2)
            ),
            lambda: DecisionProblem(
                actions=["x", "y"], payoffs=((F(1), F(0)), (F(0), F(1))), prior=uniform_prior(2)
            ),
            lambda: ConditionalExperiment(
                base=perfect_experiment(2), event=[[F(1, 2), F(0)], [F(0), F(1, 2)]], alpha=F(1, 2)
            ),
        ],
    )
    def test_list_fields(self, build):
        with pytest.raises(InvalidInput, match="tuple"):
            build()

    def test_tuple_fields_hash(self):
        hash(Experiment(
            states=("t0", "t1"), signals=("a", "b"), matrix=((F(1), F(0)), (F(0), F(1)))
        ))
        hash(DecisionProblem(
            actions=("x", "y"), payoffs=((F(1), F(0)), (F(0), F(1))), prior=uniform_prior(2)
        ))
        hash(ConditionalExperiment(
            base=perfect_experiment(2), event=((F(1, 2), F(0)), (F(0), F(1, 2))), alpha=F(1, 2)
        ))


class TestWeights:
    def test_unit_weight_always_valid(self):
        e = binary_symmetric("4/5")
        assert weight_check(e, unit_weight(e).values)

    def test_example_weight_any_parameter(self):
        # 0*(1/2) + 2*(q'/2) + 2*((1-q')/2) = 1 for every q'
        for q in ("4/5", "9/10", "3/5"):
            e = three_signal_family(q)
            assert weight_check(e, (F(0), F(2), F(2)))

    def test_scaled_vector_fails(self):
        e = three_signal_family("4/5")
        assert not weight_check(e, (F(2), F(2), F(2)))

    def test_weight_size_at_least_one(self):
        e = three_signal_family("4/5")
        w = make_weight(e, ["0", "2", "2"])
        assert w.size == 2
        with pytest.raises(InvalidInput):
            make_weight(e, ["1/2", "1/2", "1/2"])

    def test_negative_entries_rejected(self):
        e = three_signal_family("4/5")
        assert not weight_check(e, (F(-1), F(2), F(3)))

    def test_empty_weight_rejected(self):
        with pytest.raises(InvalidInput):
            Weight(values=(), size=F(1))

    def test_list_factors_rejected(self):
        # A frozen weight with a list in it could not be hashed.
        hash(Weight(values=(F(1), F(1)), size=F(1)))
        with pytest.raises(InvalidInput, match="tuple"):
            Weight(values=[F(1), F(1)], size=F(1))

    @pytest.mark.parametrize(
        "values, size",
        [((0.5, 1.5), 1.5), ((F(1, 2), F(3, 2)), 1.5), ((F(1), 1), F(1)), ((F(1),), 1)],
        ids=["floats", "float size", "int factor", "int size"],
    )
    def test_weight_holds_fractions_alone(self, values, size):
        with pytest.raises(InvalidInput):
            Weight(values=values, size=size)

    @pytest.mark.parametrize(
        "values", [[0.5, 1.5], ["1/2", "3/2"], [True, 1]], ids=["floats", "strings", "bool"]
    )
    def test_weight_check_refuses_loose_entries(self, values):
        # Each vector, read as rationals, is a valid weight of this experiment.
        with pytest.raises(InvalidInput):
            weight_check(binary_symmetric("1/2"), values)

    def test_weight_check_still_answers_false_on_length_and_validity(self):
        e = binary_symmetric("1/2")
        assert weight_check(e, [F(1, 2), F(3, 2)]) and weight_check(e, [1, 1])
        assert not weight_check(e, [1]) and not weight_check(e, [F(2), 1])


class TestApplyWeight:
    def test_unit_weight_identity(self):
        e = binary_symmetric("3/5")
        assert apply_weight(unit_weight(e), e) == e

    def test_example_one_reweighting(self):
        e = three_signal_family("4/5")
        out = apply_weight(make_weight(e, ["0", "2", "2"]), e)
        assert out.matrix[0] == (F(0), F(4, 5), F(1, 5))
        assert out.matrix[1] == (F(0), F(1, 5), F(4, 5))

    def test_sharper_parameter(self):
        e = three_signal_family("9/10")
        out = apply_weight(make_weight(e, ["0", "2", "2"]), e)
        assert out.matrix[0] == (F(0), F(9, 10), F(1, 10))
        assert out.matrix[1] == (F(0), F(1, 10), F(9, 10))

    def test_output_is_valid_experiment(self):
        e = three_signal_family("4/5")
        out = apply_weight(make_weight(e, ["0", "2", "2"]), e)
        assert all(sum(row) == 1 for row in out.matrix)


class TestRegularize:
    def test_all_duplicate_columns_collapse(self):
        e = validate_experiment([["1/2", "1/2"], ["1/2", "1/2"]])
        out = regularize(e)
        assert out.n_signals == 1
        assert out.matrix == ((F(1),), (F(1),))

    def test_proportional_columns_merge(self):
        e = validate_experiment(
            [["1/4", "1/4", "1/2"], ["1/8", "1/8", "3/4"]]
        )
        out = regularize(e)
        assert out.matrix == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))

    def test_idempotent(self):
        e = validate_experiment(
            [["1/4", "1/4", "1/2"], ["1/8", "1/8", "3/4"]]
        )
        once = regularize(e)
        assert regularize(once) == once

    def test_regular_input_unchanged(self):
        e = binary_symmetric("4/5")
        assert regularize(e) == e

    def test_merged_label_never_takes_an_original_label(self):
        # a and b are proportional, so their group would be labelled "a+b",
        # the label the third signal already has.
        pi_prime = Experiment(
            states=("t0", "t1"),
            signals=("a", "b", "a+b"),
            matrix=((F(1, 4), F(1, 4), F(1, 2)), (F(1, 8), F(1, 8), F(3, 4))),
        )
        out = regularize(pi_prime)
        assert out.signals == ("a+b_", "a+b")
        assert regularize(out) == out
        pi = uninformative_experiment(2)
        assert check_weighted(pi, pi_prime) is not None
        assert check_weighted_beliefs(pi, pi_prime, uniform_prior(2)) is not None

    def test_matches_the_proportionality_reference(self):
        rng = random.Random(23)
        experiments = [
            _split_columns(rng, random_experiment(rng, rng.randint(1, 4), rng.randint(1, 4)))
            for _ in range(400)
        ]
        for pi, _prior, pi_prime in corpus_pairs(20250814, 100):
            experiments += [pi, pi_prime]
        mismatched = [
            k for k, e in enumerate(experiments)
            if regularize(e) != reference_experiments.regularize(e)
        ]
        assert not mismatched, mismatched[:10]
        assert sum(regularize(e).n_signals < e.n_signals for e in experiments) > 300


def _split_columns(rng, experiment):
    """Each column split into positive multiples, null columns mixed in, shuffled."""
    columns = []
    for j in range(experiment.n_signals):
        shares = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        columns += [
            [row[j] * share / sum(shares) for row in experiment.matrix] for share in shares
        ]
    columns += [[F(0)] * experiment.n_states for _ in range(rng.randint(0, 2))]
    rng.shuffle(columns)
    return Experiment(
        states=experiment.states,
        signals=tuple(f"s{k}" for k in range(len(columns))),
        matrix=tuple(zip(*columns)),
    )


class TestDilute:
    def test_beta_one_appends_nothing(self):
        e = binary_symmetric("3/5")
        out = dilute(e, 1)
        assert out.matrix[0][:2] == e.matrix[0]
        # the null column exists but carries zero mass
        assert all(row[-1] == 0 for row in out.matrix)

    def test_binary_symmetric_beta_two(self):
        out = dilute(binary_symmetric("3/5"), 2)
        assert out.matrix[0] == (F(3, 10), F(1, 5), F(1, 2))
        assert out.matrix[1] == (F(1, 5), F(3, 10), F(1, 2))

    def test_perfect_beta_two(self):
        out = dilute(perfect_experiment(2), 2)
        assert out.matrix[0] == (F(1, 2), F(0), F(1, 2))
        assert out.matrix[1] == (F(0), F(1, 2), F(1, 2))

    def test_beta_below_one_rejected(self):
        with pytest.raises(InvalidInput):
            dilute(binary_symmetric("3/5"), "1/2")

    def test_null_label_avoids_collision(self):
        e = validate_experiment([["1", "0"], ["0", "1"]], signals=("null", "x"))
        out = dilute(e, 2)
        assert len(set(out.signals)) == out.n_signals


class TestResidual:
    def test_example_one_residual_is_point_mass(self):
        e = three_signal_family("4/5")
        out = residual_experiment(e, make_weight(e, ["0", "2", "2"]))
        assert out.matrix == ((F(1), F(0), F(0)), (F(1), F(0), F(0)))

    def test_rows_proportional_to_remaining_mass(self):
        e = three_signal_family("9/10")
        w = make_weight(e, ["0", "2", "2"])
        out = residual_experiment(e, w)
        # (1 - gamma(s')/2) pi'(s'|t) / (1/2), entrywise
        for t in range(e.n_states):
            for j in range(e.n_signals):
                expect = (1 - w.values[j] / 2) * e.matrix[t][j] * 2
                assert out.matrix[t][j] == expect

    def test_unit_size_rejected(self):
        e = binary_symmetric("4/5")
        with pytest.raises(InvalidInput):
            residual_experiment(e, unit_weight(e))


class TestDecisionProblem:
    def test_factory_defaults(self):
        dp = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
        assert dp.n_actions == 2 and dp.n_states == 2
        assert dp.payoffs[0] == (F(1), F(0))

    def test_ragged_payoffs_rejected(self):
        with pytest.raises(InvalidInput):
            decision_problem([["1", "0"], ["0"]], ["1/2", "1/2"])

    def test_prior_length_must_match(self):
        with pytest.raises(InvalidInput):
            decision_problem([["1", "0"]], ["1/3", "1/3", "1/3"])


class TestBayes:
    def test_posterior_and_mass(self):
        mass, posterior = binary_symmetric("3/5").bayes((F(1, 2), F(1, 2)), 0)
        assert mass == F(1, 2) and posterior == (F(3, 5), F(2, 5))

    def test_unnormalized_measure_scales_the_mass_only(self):
        e = binary_symmetric("3/5")
        mass, posterior = e.bayes((F(1, 3), F(2, 3)), 1)
        scaled_mass, scaled = e.bayes((F(1, 6), F(1, 3)), 1)
        assert scaled_mass == mass / 2 and scaled == posterior

    def test_zero_mass_has_no_posterior(self):
        assert perfect_experiment(2).bayes((F(1), F(0)), 1) == (F(0), None)

    def test_measure_dimension_checked(self):
        with pytest.raises(InvalidInput):
            binary_symmetric("3/5").bayes((F(1, 3), F(1, 3), F(1, 3)), 0)

    @pytest.mark.parametrize("j", [-1, 2, 5, True, 1.0, "1", None])
    def test_signal_index_must_be_an_int_in_range(self, j):
        with pytest.raises(InvalidInput, match="signal index"):
            binary_symmetric("3/5").bayes((1, 1), j)


class TestBestResponse:
    def test_ties_go_to_the_lowest_index(self):
        dp = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
        assert dp.best_response((F(1, 2), F(1, 2))) == (F(1, 2), 0)

    def test_unnormalized_measure(self):
        dp = decision_problem([["1", "0"], ["0", "1"], ["0", "0"]], ["1/2", "1/2"])
        assert dp.best_response((F(1, 10), F(3, 10))) == (F(3, 10), 1)

    def test_measure_dimension_checked(self):
        dp = decision_problem([["1", "0"]], ["1/2", "1/2"])
        with pytest.raises(InvalidInput):
            dp.best_response((F(1),))


# Floats would bring binary rounding into exact results, and bools are not
# rationals; as_rational refuses both, and so do the two kernels.
NOT_RATIONAL = [(0.5, 0.5), (F(1, 2), 0.5), (True, False), (F(1), False), ("1/2", "1/2")]


class TestKernelsRejectNonRationalMeasures:
    @pytest.mark.parametrize("measure", NOT_RATIONAL)
    def test_bayes(self, measure):
        with pytest.raises(InvalidInput):
            binary_symmetric("3/5").bayes(measure, 0)

    @pytest.mark.parametrize("measure", NOT_RATIONAL)
    def test_best_response(self, measure):
        dp = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
        with pytest.raises(InvalidInput):
            dp.best_response(measure)

    def test_ints_and_fractions_are_accepted(self):
        dp = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
        assert dp.best_response((0, 1)) == (F(1), 1)
        assert dp.best_response((F(1, 3), 0)) == (F(1, 3), 0)
        assert binary_symmetric("3/5").bayes((1, 0), 1) == (F(2, 5), (F(1), F(0)))


class TestCheckBelief:
    def test_converts_to_fractions(self):
        assert check_belief(["1/4", 0, F(3, 4)], 3) == (F(1, 4), F(0), F(3, 4))

    def test_prior_weights_are_a_belief(self):
        weights = Prior(weights=(F(1, 3), F(2, 3))).weights
        assert check_belief(weights, 2) == weights

    @pytest.mark.parametrize(
        "belief, n_states",
        [
            ((F(1, 2), F(1, 2)), 3),
            ((F(3, 2), F(-1, 2)), 2),
            ((F(1, 2), F(1, 4)), 2),
            ((F(0), F(0)), 2),
            ((True, False), 2),
        ],
    )
    def test_rejects_non_beliefs(self, belief, n_states):
        with pytest.raises(InvalidInput):
            check_belief(belief, n_states)


# Each object below keeps its rows, table or weight valid through the one
# shared check in expord.experiments, so each meets the same hostile input.
HALF = (F(1, 2), F(1, 2))
IDENTITY = ((F(1), F(0)), (F(0), F(1)))

# The empty row is the one length a prior, which fixes its own length, can get wrong.
NOT_DISTRIBUTIONS = {
    "short row": (),
    "int entry": (F(1), 0),
    "bool entry": (F(1), False),
    "negative entry": (F(3, 2), F(-1, 2)),
    "sums to 2/3": (F(1, 3), F(1, 3)),
}

DISTRIBUTION_HOLDERS = {
    "Experiment": lambda row: Experiment(
        states=("t0", "t1"), signals=("s0", "s1"), matrix=(HALF, row)
    ),
    "Prior": lambda row: Prior(weights=row),
    "MarkovChain": lambda row: MarkovChain(states=("t0", "t1"), rows=(HALF, row)),
    # Over the identity generators the coefficients reproduce themselves.
    "HullMembershipCertificate": lambda row: HullMembershipCertificate(
        point=tuple(row), generators=IDENTITY, coefficients=row
    ),
    "BeliefSet": lambda row: BeliefSet(points=(IDENTITY[0], row)),
}


def _int_entry(table):
    """The table with its first whole entry turned into an equal int."""
    i, j = next(
        (i, j) for i, row in enumerate(table) for j, v in enumerate(row) if v.denominator == 1
    )
    row = table[i][:j] + (int(table[i][j]),) + table[i][j + 1 :]
    return table[:i] + (row,) + table[i + 1 :]


NOT_TABLES = {
    "missing row": lambda table: table[:-1],
    "short row": lambda table: table[:-1] + (table[-1][:-1],),
    "int entry": _int_entry,
}


def _coupling(matrix):
    e = binary_symmetric("4/5")
    found = check_weighted_beliefs(e, e, uniform_prior(2))
    return CouplingCertificate(
        prior=found.prior,
        pi_atoms=found.pi_atoms,
        pi_prime_atoms=found.pi_prime_atoms,
        matrix=matrix,
    )


TABLE_HOLDERS = {
    "DecisionProblem": (
        IDENTITY,
        lambda t: DecisionProblem(actions=("a0", "a1"), payoffs=t, prior=uniform_prior(2)),
    ),
    "GarblingCertificate": (
        IDENTITY,
        lambda t: GarblingCertificate(
            pi=binary_symmetric("4/5"), pi_prime=binary_symmetric("4/5"), psi=t
        ),
    ),
    "ConditionalExperiment": (
        IDENTITY,
        lambda t: ConditionalExperiment(base=perfect_experiment(2), event=t, alpha=F(1)),
    ),
    "CouplingCertificate": (((F(1, 2), F(0)), (F(0), F(1, 2))), _coupling),
}

THREE_SIGNALS = three_signal_family("4/5")

NOT_WEIGHTS = {
    "wrong length": Weight(values=(F(1), F(1)), size=F(1)),
    "invalid": Weight(values=(F(2), F(2), F(2)), size=F(2)),
}

WEIGHT_USERS = {
    "apply_weight": apply_weight,
    "residual_experiment": lambda w, e: residual_experiment(e, w),
    "to_conditional": lambda w, e: to_conditional(e, w),
}


class TestSharedChecks:
    @pytest.mark.parametrize("build", DISTRIBUTION_HOLDERS.values(), ids=DISTRIBUTION_HOLDERS)
    def test_distribution_accepted(self, build):
        build(HALF)

    @pytest.mark.parametrize("row", NOT_DISTRIBUTIONS.values(), ids=NOT_DISTRIBUTIONS)
    @pytest.mark.parametrize("build", DISTRIBUTION_HOLDERS.values(), ids=DISTRIBUTION_HOLDERS)
    def test_distribution_rejected(self, build, row):
        with pytest.raises(InvalidInput):
            build(row)

    @pytest.mark.parametrize("table, build", TABLE_HOLDERS.values(), ids=TABLE_HOLDERS)
    def test_table_accepted(self, table, build):
        build(table)

    @pytest.mark.parametrize("spoil", NOT_TABLES.values(), ids=NOT_TABLES)
    @pytest.mark.parametrize("table, build", TABLE_HOLDERS.values(), ids=TABLE_HOLDERS)
    def test_table_rejected(self, table, build, spoil):
        with pytest.raises(InvalidInput):
            build(spoil(table))

    @pytest.mark.parametrize("weight", NOT_WEIGHTS.values(), ids=NOT_WEIGHTS)
    @pytest.mark.parametrize("use", WEIGHT_USERS.values(), ids=WEIGHT_USERS)
    def test_weight_rejected(self, use, weight):
        with pytest.raises(InvalidInput):
            use(weight, THREE_SIGNALS)

    @pytest.mark.parametrize("use", WEIGHT_USERS.values(), ids=WEIGHT_USERS)
    def test_weight_accepted(self, use):
        use(make_weight(THREE_SIGNALS, ["0", "2", "2"]), THREE_SIGNALS)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_regularize_idempotent_on_random_experiments(seed):
    import random as _random

    rng = _random.Random(seed)
    e = random_experiment(rng, rng.randint(1, 4), rng.randint(1, 5))
    once = regularize(e)
    assert regularize(once) == once
    assert all(sum(row) == 1 for row in once.matrix)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.sampled_from([F(1), F(3, 2), F(2), F(7, 3)]),
)
def test_dilute_rows_rescale_exactly(seed, beta):
    import random as _random

    rng = _random.Random(seed)
    e = random_experiment(rng, rng.randint(1, 4), rng.randint(1, 5))
    out = dilute(e, beta)
    for t in range(e.n_states):
        for j in range(e.n_signals):
            assert out.matrix[t][j] == e.matrix[t][j] / beta
        assert out.matrix[t][-1] == 1 - 1 / beta


def test_uninformative_rows_identical():
    e = uninformative_experiment(3)
    assert len(set(e.matrix)) == 1


# Probability-vector candidates: exact ones, ones a little off the simplex,
# negative entries, and stray types among Fractions.
_entries = st.one_of(
    st.builds(Fraction, st.integers(-2, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(0, 10**20), st.integers(1, 10**20)),
    st.sampled_from([0, 1, 0.5, "1/2", None]),
)


@st.composite
def _vectors(draw):
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.builds(Fraction, st.integers(0, 60), st.just(60)),
                                    min_size=0, max_size=4)))
        points = [Fraction(0), *cuts, Fraction(1)]
        vector = [b - a for a, b in zip(points, points[1:])]
        if draw(st.booleans()):
            k = draw(st.integers(0, len(vector) - 1))
            vector[k] = draw(_entries)
        return vector
    return draw(st.lists(_entries, min_size=0, max_size=5))


class TestDistributionCheckAgainstFractions:
    @settings(max_examples=600, deadline=None)
    @given(vector=_vectors(), extra=st.integers(-1, 1))
    def test_same_verdict_and_message(self, vector, extra):
        length = len(vector) + extra
        expected = reference_experiments.check_distribution(vector, length, "row for state", "t0")
        if expected is None:
            ints, scale = _check_distribution(vector, length, "row for state", "t0")
            assert [Fraction(n, scale) for n in ints] == vector
            assert sum(ints) == scale
        else:
            with pytest.raises(InvalidInput) as caught:
                _check_distribution(vector, length, "row for state", "t0")
            assert str(caught.value) == expected
