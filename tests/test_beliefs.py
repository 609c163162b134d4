"""Posterior geometry: Bayes atoms, hulls, and coupling certificates."""

import dataclasses
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expord import (
    CouplingCertificate,
    Experiment,
    HullMembershipCertificate,
    InvalidInput,
    PosteriorAtom,
    PosteriorDistribution,
    apply_weight,
    check_blackwell,
    check_weighted,
    check_weighted_beliefs,
    coupling_from_certificate,
    coupling_to_weight,
    hull_decide,
    hull_membership,
    make_weight,
    posteriors,
    prior,
    uniform_prior,
    verify_coupling,
)
import reference_experiments
from expord.generators import (
    binary_symmetric,
    corpus_pairs,
    perfect_experiment,
    random_experiment,
    random_prior,
    three_signal_family,
    uninformative_experiment,
)
from spies import spy_on_solves

F = Fraction
UNIFORM = uniform_prior(2)


class TestPosteriors:
    def test_binary_symmetric(self):
        dist = posteriors(binary_symmetric("4/5"), UNIFORM)
        table = {atom.belief: atom.probability for atom in dist.atoms}
        assert table == {
            (F(4, 5), F(1, 5)): F(1, 2),
            (F(1, 5), F(4, 5)): F(1, 2),
        }

    def test_three_signal_family(self):
        dist = posteriors(three_signal_family("4/5"), UNIFORM)
        table = {atom.belief: atom.probability for atom in dist.atoms}
        assert table == {
            (F(1, 2), F(1, 2)): F(1, 2),
            (F(4, 5), F(1, 5)): F(1, 4),
            (F(1, 5), F(4, 5)): F(1, 4),
        }

    def test_uninformative_merges_to_prior(self):
        mu = prior(["1/3", "2/3"])
        dist = posteriors(uninformative_experiment(2, 3), mu)
        assert len(dist.atoms) == 1
        atom = dist.atoms[0]
        assert atom.belief == mu.weights
        assert atom.probability == 1
        assert atom.signals == ("s0", "s1", "s2")

    def test_zero_probability_signals_dropped(self):
        # second signal never occurs under either state
        dist = posteriors(
            three_signal_family("4/5"),
            UNIFORM,
        )
        assert all(atom.probability > 0 for atom in dist.atoms)

    def test_non_full_support_prior_rejected(self):
        with pytest.raises(InvalidInput):
            posteriors(binary_symmetric("4/5"), prior(["1", "0"]))

    def test_martingale_identity(self):
        mu = prior(["1/3", "2/3"])
        dist = posteriors(binary_symmetric("3/5"), mu)
        for t in range(2):
            total = sum(
                (atom.probability * atom.belief[t] for atom in dist.atoms),
                F(0),
            )
            assert total == mu.weights[t]


    @pytest.mark.parametrize(
        "atoms",
        [
            (((F(3, 2), F(-1, 2)), F(1, 2)), ((F(-1, 2), F(3, 2)), F(1, 2))),
            (((F(1), F(0)), 0.5), ((F(0), F(1)), 0.5)),
        ],
        ids=["off the simplex", "float probability"],
    )
    def test_atoms_must_be_beliefs_with_fraction_probabilities(self, atoms):
        with pytest.raises(InvalidInput):
            PosteriorDistribution(
                prior=UNIFORM,
                atoms=tuple(
                    PosteriorAtom(signals=(f"s{k}",), belief=belief, probability=p)
                    for k, (belief, p) in enumerate(atoms)
                ),
            )

    def test_a_list_belief_is_refused(self):
        with pytest.raises(InvalidInput):
            PosteriorDistribution(
                prior=UNIFORM,
                atoms=(PosteriorAtom(signals=("s",), belief=[F(1, 2), F(1, 2)], probability=F(1)),),
            )

    @pytest.mark.parametrize("signals", [["s"], (), ("s", "s"), ("",), (1,)],
                             ids=["list", "empty", "duplicate", "empty label", "int label"])
    def test_atom_signals_are_a_label_tuple(self, signals):
        with pytest.raises(InvalidInput):
            PosteriorAtom(signals=signals, belief=(F(1, 2), F(1, 2)), probability=F(1))


class TestHullMembership:
    def test_interior_point(self):
        cert = hull_membership(
            (F(3, 5), F(2, 5)), [(F(9, 10), F(1, 10)), (F(1, 10), F(9, 10))]
        )
        assert cert is not None
        assert cert.coefficients == (F(5, 8), F(3, 8))

    def test_outside_singleton(self):
        assert hull_membership((F(1), F(0)), [(F(1, 2), F(1, 2))]) is None

    def test_identity_membership(self):
        point = (F(1, 3), F(2, 3))
        cert = hull_membership(point, [point])
        assert cert is not None and cert.coefficients == (F(1),)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            hull_membership((F(1), F(0)), [(F(1, 2), F(1, 4), F(1, 4))])

    @pytest.mark.parametrize("field, listed", [
        ("point", list),
        ("coefficients", list),
        ("generators", list),
        ("generators", lambda generators: tuple(list(g) for g in generators)),
    ], ids=["point", "coefficients", "generators", "generator"])
    def test_certificate_refuses_a_list_field(self, field, listed):
        # A frozen certificate with a list in it could not be hashed.
        cert = hull_membership(
            (F(3, 5), F(2, 5)), [(F(9, 10), F(1, 10)), (F(1, 10), F(9, 10))]
        )
        hash(cert)
        with pytest.raises(InvalidInput, match="tuples"):
            dataclasses.replace(cert, **{field: listed(getattr(cert, field))})

    def test_separating_functional_complements_membership(self):
        generators = [(F(9, 10), F(1, 10)), (F(1, 10), F(9, 10))]
        inside = (F(1, 2), F(1, 2))
        outside = (F(19, 20), F(1, 20))
        assert isinstance(hull_decide(inside, generators), HullMembershipCertificate)
        h = hull_decide(outside, generators)
        assert not isinstance(h, HullMembershipCertificate)
        assert sum(h_t * p for h_t, p in zip(h, outside)) > 0
        for g in generators:
            assert sum(h_t * p for h_t, p in zip(h, g)) <= 0

    def test_one_cone_program_whose_farkas_row_is_the_functional(self, monkeypatch):
        # One program per call: a row per state, a column per generator and
        # no all-ones convexity row.  Outside the hull the functional is that
        # program's Farkas row, which solve has already checked.
        module = importlib.import_module("expord.beliefs")
        real, seen = module.solve, []

        def spy(lp):
            seen.append((lp, real(lp)))
            return seen[-1][1]

        monkeypatch.setattr(module, "solve", spy)
        generators = [(F(9, 10), F(1, 10), F(0)), (F(1, 10), F(9, 10), F(0)), (F(1, 3),) * 3]
        kinds = []
        for point in ((F(1, 2), F(1, 2), F(0)), (F(19, 20), F(1, 20), F(0))):
            seen.clear()
            decision = hull_decide(point, generators)
            [(lp, outcome)] = seen
            assert len(lp.rows) == len(point) and lp.n_variables == len(generators)
            assert all(coeffs != (F(1),) * len(generators) for coeffs, _, _ in lp.rows)
            inside = isinstance(decision, HullMembershipCertificate)
            assert decision.coefficients == outcome.x if inside else decision == outcome.farkas
            kinds.append(inside)
        assert kinds == [True, False]


class TestCheckWeightedBeliefs:
    def test_identity_pair_diagonal(self):
        e = binary_symmetric("4/5")
        coupling = check_weighted_beliefs(e, e, UNIFORM)
        assert coupling is not None
        assert coupling.beta == 1
        report = verify_coupling(coupling, e, e, UNIFORM)
        assert report.ok and report.beta == 1

    def test_weighted_pair_agrees_with_lp(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        coupling = check_weighted_beliefs(pi, pi_prime, UNIFORM)
        assert coupling is not None
        assert check_weighted(pi, pi_prime) is not None
        assert verify_coupling(coupling, pi, pi_prime, UNIFORM).ok

    def test_perfect_vs_uninformative_fails(self):
        assert (
            check_weighted_beliefs(
                perfect_experiment(2), uninformative_experiment(2), UNIFORM
            )
            is None
        )

    def test_unordered_family_fails_both_ways(self):
        pi = binary_symmetric("9/10")
        pi_prime = three_signal_family("4/5")
        assert check_weighted(pi, pi_prime) is None
        assert check_weighted_beliefs(pi, pi_prime, UNIFORM) is None


def _fresh(experiment):
    """An equal experiment that no earlier question can have been about."""
    return Experiment(experiment.states, experiment.signals, experiment.matrix)


class TestBeliefCheckReadsTheBlocks:
    def test_a_remembered_pair_solves_nothing(self, monkeypatch):
        captured = spy_on_solves(monkeypatch)
        verdicts = set()
        for pi, mu, pi_prime in corpus_pairs(20250814, 30):
            ordered = check_weighted(pi, pi_prime) is not None
            del captured[:]
            coupling = check_weighted_beliefs(pi, pi_prime, mu)
            assert captured == []
            assert (coupling is not None) == ordered
            verdicts.add(ordered)
        assert verdicts == {True, False}

    def test_a_fresh_pair_solves_only_its_blocks(self, monkeypatch):
        captured = spy_on_solves(monkeypatch)
        for pi, mu, pi_prime in corpus_pairs(20250814, 30):
            pi, pi_prime = _fresh(pi), _fresh(pi_prime)
            del captured[:]
            coupling = check_weighted_beliefs(pi, pi_prime, mu)
            assert 0 < len(captured) <= pi.n_signals
            for lp in captured:
                assert len(lp.rows) <= pi.n_states
                assert lp.n_variables == pi_prime.n_signals
                assert not any(lp.objective)
            # Every later question about the pair reads the same blocks.
            del captured[:]
            assert (check_weighted(pi, pi_prime) is None) == (coupling is None)
            assert captured == []


ORDERED = (binary_symmetric("4/5"), three_signal_family("9/10"))
UNORDERED = (binary_symmetric("9/10"), three_signal_family("4/5"))


class TestBeliefCheckPriors:
    @pytest.mark.parametrize("weights, message", [
        (("1", "0"), "posteriors require a full-support prior"),
        (("1/3", "1/3", "1/3"), "measure dimension does not match the state set"),
    ], ids=["zero-weight", "wrong-length"])
    @pytest.mark.parametrize("pair", [ORDERED, UNORDERED], ids=["ordered", "unordered"])
    @pytest.mark.parametrize("remembered", [True, False], ids=["remembered", "fresh"])
    def test_a_bad_prior_is_refused_before_the_blocks(
        self, monkeypatch, weights, message, pair, remembered
    ):
        pi, pi_prime = _fresh(pair[0]), _fresh(pair[1])
        if remembered:
            check_weighted(pi, pi_prime)
        captured = spy_on_solves(monkeypatch)
        with pytest.raises(InvalidInput) as caught:
            check_weighted_beliefs(pi, pi_prime, prior(weights))
        assert str(caught.value) == message
        assert captured == []


class TestVerifyCoupling:
    def _example_coupling(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("4/5")
        source = posteriors(pi, UNIFORM)
        target = posteriors(pi_prime, UNIFORM)
        matrix = (
            (F(0), F(1, 2), F(0)),
            (F(0), F(0), F(1, 2)),
        )
        coupling = CouplingCertificate(
            prior=UNIFORM,
            pi_atoms=source.atoms,
            pi_prime_atoms=target.atoms,
            matrix=matrix,
        )
        return coupling, pi, pi_prime

    def test_example_coupling_verifies_at_size_two(self):
        coupling, pi, pi_prime = self._example_coupling()
        report = verify_coupling(coupling, pi, pi_prime, UNIFORM)
        assert report.ok
        assert report.beta == 2 and coupling.beta == 2

    def test_broken_barycenter_detected(self):
        coupling, pi, pi_prime = self._example_coupling()
        broken = CouplingCertificate(
            prior=UNIFORM,
            pi_atoms=coupling.pi_atoms,
            pi_prime_atoms=coupling.pi_prime_atoms,
            matrix=((F(1, 2), F(0), F(0)), (F(0), F(0), F(1, 2))),
        )
        report = verify_coupling(broken, pi, pi_prime, UNIFORM)
        assert not report.ok
        assert report.violations

    def test_blackwell_certificate_pushes_to_size_one(self):
        pi = binary_symmetric("3/5")
        pi_prime = three_signal_family("4/5")
        cert = check_blackwell(pi, pi_prime)
        coupling = coupling_from_certificate(cert, UNIFORM)
        report = verify_coupling(coupling, pi, pi_prime, UNIFORM)
        assert report.ok and report.beta == 1


class TestCouplingToWeight:
    def test_diagonal_gives_unit_weight(self):
        e = binary_symmetric("4/5")
        coupling = check_weighted_beliefs(e, e, UNIFORM)
        w = coupling_to_weight(coupling, e, UNIFORM)
        assert w.values == (F(1), F(1))

    def test_example_coupling_gives_the_zero_two_two_weight(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("4/5")
        source = posteriors(pi, UNIFORM)
        target = posteriors(pi_prime, UNIFORM)
        coupling = CouplingCertificate(
            prior=UNIFORM,
            pi_atoms=source.atoms,
            pi_prime_atoms=target.atoms,
            matrix=((F(0), F(1, 2), F(0)), (F(0), F(0), F(1, 2))),
        )
        w = coupling_to_weight(coupling, pi_prime, UNIFORM)
        assert w.values == (F(0), F(2), F(2))
        assert w.size == 2

    def test_weight_reproduces_the_pair(self):
        # apply the recovered weight, then the Blackwell check must pass
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        coupling = check_weighted_beliefs(pi, pi_prime, UNIFORM)
        w = coupling_to_weight(coupling, pi_prime, UNIFORM)
        reweighted = apply_weight(w, pi_prime)
        assert check_blackwell(pi, reweighted) is not None


class TestSupportOnly:
    def test_reweighting_preserves_the_outcome(self):
        pi_prime = three_signal_family("4/5")
        w = make_weight(pi_prime, ["1/2", "3/2", "3/2"])
        rescaled = apply_weight(w, pi_prime)
        for q, expected in (("3/5", True), ("9/10", False)):
            pi = binary_symmetric(q)
            original = check_weighted_beliefs(pi, pi_prime, UNIFORM) is not None
            shifted = check_weighted_beliefs(pi, rescaled, UNIFORM) is not None
            assert original is expected and shifted is expected

    def test_posterior_support_is_invariant(self):
        pi_prime = three_signal_family("4/5")
        w = make_weight(pi_prime, ["1/2", "3/2", "3/2"])
        rescaled = apply_weight(w, pi_prime)
        original = {a.belief for a in posteriors(pi_prime, UNIFORM).atoms}
        shifted = {a.belief for a in posteriors(rescaled, UNIFORM).atoms}
        assert original == shifted


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_martingale_on_random_instances(seed):
    import random as _random

    rng = _random.Random(seed)
    e = random_experiment(rng, rng.randint(1, 4), rng.randint(1, 5))
    mu = random_prior(rng, e.n_states)
    dist = posteriors(e, mu)
    assert sum((a.probability for a in dist.atoms), F(0)) == 1
    for t in range(e.n_states):
        moment = sum((a.probability * a.belief[t] for a in dist.atoms), F(0))
        assert moment == mu.weights[t]


def _spoiled_atoms(rng, atoms):
    """The atoms with one defect, or none, for the differential test below."""
    atoms = list(atoms)
    k = rng.randrange(len(atoms))
    atom = atoms[k]
    belief = list(atom.belief)
    kind = rng.randrange(9)
    if kind == 1 and len(atoms) > 1:
        del atoms[k]
    elif kind == 2:
        atoms.append(PosteriorAtom(("extra",), atom.belief, atom.probability))
    elif kind == 3:
        atoms[k] = PosteriorAtom(atom.signals, atom.belief, atom.probability * 2)
    elif kind == 4 and len(atoms) > 1:
        # Zero one atom's probability and give its mass to the next atom.
        j = (k + 1) % len(atoms)
        other = atoms[j]
        atoms[j] = PosteriorAtom(other.signals, other.belief, other.probability + atom.probability)
        atoms[k] = PosteriorAtom(atom.signals, atom.belief, F(0))
    elif kind == 5 and len(belief) > 1:
        shift = F(1, rng.randint(1, 30))
        belief[0] += shift
        belief[1] -= shift
        atoms[k] = PosteriorAtom(atom.signals, tuple(belief), atom.probability)
    elif kind == 6:
        atoms[k] = PosteriorAtom(atom.signals, tuple(belief[:-1]), atom.probability)
    elif kind == 7:
        belief[rng.randrange(len(belief))] = rng.choice([0.5, 1, "1/2"])
        atoms[k] = PosteriorAtom(atom.signals, tuple(belief), atom.probability)
    elif kind == 8 and len(atoms) > 1:
        other = atoms[(k + 1) % len(atoms)]
        atoms[k] = PosteriorAtom(atom.signals, other.belief, atom.probability)
    return tuple(atoms)


def test_posterior_checks_match_the_fraction_reference():
    rng = random.Random(41)
    outcomes = set()
    for _ in range(1500):
        n_states = rng.randint(1, 4)
        mu = random_prior(rng, n_states)
        experiment = random_experiment(rng, n_states, rng.randint(1, 5))
        atoms = _spoiled_atoms(rng, posteriors(experiment, mu).atoms)
        if rng.random() < 0.2:
            mu = random_prior(rng, n_states)
        expected = reference_experiments.posterior_problem(mu, atoms)
        outcomes.add(expected and " ".join(expected.split()[:3]))
        if expected is None:
            assert PosteriorDistribution(prior=mu, atoms=atoms).atoms == atoms
        else:
            with pytest.raises(InvalidInput) as caught:
                PosteriorDistribution(prior=mu, atoms=atoms)
            assert str(caught.value) == expected
    assert outcomes == {
        None,
        "atom probability vector",
        "zero-probability atoms must",
        "atom belief has",
        "atom belief entries",
        "atoms with equal",
        "martingale property fails:",
    }
