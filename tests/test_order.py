"""Order-deciding LPs, size intervals, composition, conditional form.

The hand-checkable oracles come from the two-parameter symmetric family:
a binary-symmetric experiment with accuracy q against a three-signal
experiment that is pure noise with probability 1/2 and binary symmetric
with accuracy q' otherwise.  The weighted order holds iff 2q - 1 <=
2(2q'-1), with minimal size 2(2q-1)/(2q'-1) when that is at least 1.
"""

import os
import random
import subprocess
import sys
import threading
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import expord

from expord import (
    ConditionalExperiment,
    Experiment,
    GarblingCertificate,
    InvalidInput,
    OrderError,
    apply_weight,
    check_blackwell,
    check_weighted,
    compose,
    dilute,
    falsify_bound,
    from_conditional,
    make_weight,
    min_size,
    mix_certificates,
    size_interval,
    to_conditional,
    validate_experiment,
    verify_bound,
    verify_certificate,
)
import expord.order as order_module
from expord.order import _block, _decide
from expord import numerics
from expord.numerics import LE, dual_verifies, farkas_verifies
from expord.generators import (
    binary_symmetric,
    corpus_pairs,
    dilution_certificate,
    perfect_experiment,
    random_experiment,
    three_signal_family,
    uninformative_experiment,
)
import reference_order
from reference_simplex import reference_solve
from spies import spy_on_solves, spy_on_work

F = Fraction


def _upper_dilution_certificate(experiment, beta):
    """Certificate that the base is a weighted garbling of its dilution.

    psi places beta on the diagonal and nothing on the null signal, so the
    size is exactly beta.
    """
    diluted = dilute(experiment, beta)
    n = experiment.n_signals
    psi = tuple(
        tuple(F(beta) if i == j else F(0) for j in range(diluted.n_signals))
        for i in range(n)
    )
    return GarblingCertificate(pi=experiment, pi_prime=diluted, psi=psi)


class TestCheckBlackwell:
    def test_self_garbling(self):
        e = binary_symmetric("4/5")
        cert = check_blackwell(e, e)
        assert cert is not None and cert.beta == 1
        # The identity kernel is itself a valid witness.
        identity = GarblingCertificate(
            pi=e, pi_prime=e, psi=((F(1), F(0)), (F(0), F(1)))
        )
        assert verify_certificate(identity)

    def test_symmetric_pair_is_blackwell_ordered(self):
        pi = binary_symmetric("3/5")
        pi_prime = three_signal_family("4/5")
        cert = check_blackwell(pi, pi_prime)
        assert cert is not None
        assert verify_certificate(cert)
        assert cert.beta == 1
        assert all(g == 1 for g in cert.gamma)

    def test_hand_witness_verifies(self):
        # phi(s1|s0') = 1/3, phi(s1|s1') = 1, phi(s1|s2') = 1/3
        pi = binary_symmetric("3/5")
        pi_prime = three_signal_family("4/5")
        psi = (
            (F(1, 3), F(1), F(1, 3)),
            (F(2, 3), F(0), F(2, 3)),
        )
        witness = GarblingCertificate(pi=pi, pi_prime=pi_prime, psi=psi)
        assert verify_certificate(witness)
        assert witness.beta == 1

    def test_garbling_cannot_create_information(self):
        assert check_blackwell(perfect_experiment(2), uninformative_experiment(2)) is None

    def test_state_mismatch_rejected(self):
        relabeled = validate_experiment([["4/5", "1/5"], ["1/5", "4/5"]], states=["x", "y"])
        for pi, pi_prime in [
            (binary_symmetric("3/5"), perfect_experiment(3)),
            (binary_symmetric("3/5"), relabeled),
        ]:
            for decide in (check_blackwell, check_weighted, min_size, size_interval):
                with pytest.raises(InvalidInput, match="must share state labels"):
                    decide(pi, pi_prime)


class TestBlackwellFarkas:
    PAIRS = [
        (binary_symmetric("3/5"), three_signal_family("4/5")),
        (binary_symmetric("4/5"), three_signal_family("9/10")),
        (perfect_experiment(2), uninformative_experiment(2)),
        (binary_symmetric("9/10"), binary_symmetric("3/5")),
    ]

    def test_none_exactly_when_blackwell_holds(self):
        for pi, pi_prime in self.PAIRS:
            refuted = reference_order.blackwell_farkas(pi, pi_prime) is not None
            assert refuted == (check_blackwell(pi, pi_prime) is None)

    def test_table_is_signal_by_state(self):
        pi = perfect_experiment(2)
        table = reference_order.blackwell_farkas(pi, uninformative_experiment(2))
        assert len(table) == pi.n_signals
        assert all(len(row) == pi.n_states for row in table)
        assert any(y != 0 for row in table for y in row)


class TestCheckWeighted:
    def test_weighted_but_not_blackwell(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        assert check_blackwell(pi, pi_prime) is None
        cert = check_weighted(pi, pi_prime)
        assert cert is not None
        assert verify_certificate(cert)

    def test_hand_weighted_witness(self):
        # gamma = (1/2, 3/2, 3/2) with phi(s1|s0') = 1/2, phi(s1|s1') = 1,
        # phi(s1|s2') = 0;  psi = gamma * phi columnwise.
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        psi = (
            (F(1, 4), F(3, 2), F(0)),
            (F(1, 4), F(0), F(3, 2)),
        )
        witness = GarblingCertificate(pi=pi, pi_prime=pi_prime, psi=psi)
        assert verify_certificate(witness)
        assert witness.gamma == (F(1, 2), F(3, 2), F(3, 2))
        assert witness.beta == F(3, 2)

    def test_reflexivity(self):
        e = binary_symmetric("4/5")
        cert = check_weighted(e, e)
        assert cert is not None
        # The likelihood matrix is invertible, so psi is forced to identity.
        assert cert.psi == ((F(1), F(0)), (F(0), F(1)))
        assert cert.beta == 1

    def test_perfect_vs_uninformative_fails(self):
        assert check_weighted(perfect_experiment(2), uninformative_experiment(2)) is None

    def test_size_cap_excludes_and_admits(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        assert check_weighted(pi, pi_prime, max_size=1) is None
        capped = check_weighted(pi, pi_prime, max_size="3/2")
        assert capped is not None and capped.beta == F(3, 2)

    def test_size_cap_below_one_rejected(self):
        with pytest.raises(InvalidInput):
            check_weighted(
                binary_symmetric("3/5"), binary_symmetric("3/5"), max_size="1/2"
            )


class TestMinSize:
    def test_blackwell_pair_has_size_one(self):
        got = min_size(binary_symmetric("3/5"), three_signal_family("4/5"))
        assert got is not None
        beta, cert = got
        assert beta == 1 and cert.beta == 1
        assert verify_certificate(cert)

    def test_symmetric_family_formula(self):
        # beta_min = 2(2q-1)/(2q'-1) = 2(3/5)/(4/5) = 3/2
        got = min_size(binary_symmetric("4/5"), three_signal_family("9/10"))
        assert got is not None
        beta, cert = got
        assert beta == F(3, 2) and cert.beta == F(3, 2)

    def test_identity_pair(self):
        e = binary_symmetric("3/5")
        got = min_size(e, e)
        assert got is not None and got[0] == 1

    def test_unordered_pair_returns_none(self):
        assert min_size(perfect_experiment(2), uninformative_experiment(2)) is None


class TestSizeInterval:
    def test_blackwell_pair_interval(self):
        interval = size_interval(binary_symmetric("3/5"), three_signal_family("4/5"))
        assert interval is not None
        assert interval.beta_min == 1 and interval.beta_max == 2
        assert verify_certificate(interval.witness_min)
        assert verify_certificate(interval.witness_max)
        assert interval.witness_min.beta == 1
        assert interval.witness_max.beta == 2

    def test_invertible_pair_is_degenerate(self):
        e = binary_symmetric("3/5")
        interval = size_interval(e, e)
        assert interval is not None
        assert interval.beta_min == 1 and interval.beta_max == 1

    def test_weighted_pair_interval(self):
        interval = size_interval(binary_symmetric("4/5"), three_signal_family("9/10"))
        assert interval is not None
        assert interval.beta_min == F(3, 2) and interval.beta_max == 2

    def test_null_signal_makes_sizes_unbounded(self):
        base = validate_experiment([["1/2", "0", "1/2"], ["1/4", "0", "3/4"]])
        interval = size_interval(base, base)
        assert interval is not None
        assert interval.unbounded and interval.beta_max is None
        assert interval.witness_max is None

    def test_unordered_pair_returns_none(self):
        assert size_interval(perfect_experiment(2), uninformative_experiment(2)) is None


class TestMixCertificates:
    def _endpoints(self):
        interval = size_interval(binary_symmetric("3/5"), three_signal_family("4/5"))
        assert interval is not None
        return interval.witness_min, interval.witness_max

    def test_endpoint_weights(self):
        low, high = self._endpoints()
        assert mix_certificates(low, high, 0).psi == low.psi
        assert mix_certificates(low, high, 1).psi == high.psi

    def test_midpoint_has_intermediate_size(self):
        low, high = self._endpoints()
        mid = mix_certificates(low, high, "1/2")
        assert verify_certificate(mid)
        assert mid.beta == F(3, 2)

    def test_mismatched_pairs_rejected(self):
        low, _ = self._endpoints()
        other = check_weighted(binary_symmetric("4/5"), three_signal_family("9/10"))
        with pytest.raises(InvalidInput):
            mix_certificates(low, other, "1/2")

    def test_weight_outside_unit_interval_rejected(self):
        low, high = self._endpoints()
        with pytest.raises(InvalidInput):
            mix_certificates(low, high, "3/2")


class TestCompose:
    def test_identity_composition(self):
        e = binary_symmetric("4/5")
        ident = check_blackwell(e, e)
        composed = compose(ident, ident)
        assert verify_certificate(composed)
        assert composed.beta == 1

    def test_blackwell_then_weighted(self):
        inner = check_blackwell(binary_symmetric("3/5"), binary_symmetric("4/5"))
        outer = check_weighted(binary_symmetric("4/5"), three_signal_family("9/10"))
        assert inner is not None and outer is not None
        composed = compose(inner, outer)
        assert verify_certificate(composed)
        assert composed.beta <= inner.beta * outer.beta
        assert composed.pi == binary_symmetric("3/5")
        assert composed.pi_prime == three_signal_family("9/10")

    def test_two_dilutions_multiply_sizes(self):
        e = binary_symmetric("4/5")
        inner = _upper_dilution_certificate(e, 2)
        outer = _upper_dilution_certificate(inner.pi_prime, 2)
        composed = compose(inner, outer)
        assert verify_certificate(composed)
        assert composed.beta <= 4

    def test_middle_mismatch_rejected(self):
        e = binary_symmetric("4/5")
        ident = check_blackwell(e, e)
        other = check_blackwell(binary_symmetric("3/5"), binary_symmetric("3/5"))
        with pytest.raises(InvalidInput):
            compose(ident, other)

    def test_downward_dilution_certificate_is_blackwell(self):
        cert = dilution_certificate(binary_symmetric("4/5"), 2)
        assert verify_certificate(cert)
        assert cert.beta == 1


class TestConditional:
    def _example_cert(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("4/5")
        psi = ((F(0), F(2), F(0)), (F(0), F(0), F(2)))
        return GarblingCertificate(pi=pi, pi_prime=pi_prime, psi=psi)

    def test_to_conditional_example(self):
        cert = self._example_cert()
        assert verify_certificate(cert) and cert.beta == 2
        ce = to_conditional(cert.pi_prime, cert)
        assert ce.alpha == F(1, 2)
        # event mass gamma(s') pi'(s'|t) / beta
        assert ce.event[0][1] == F(2, 5)
        assert ce.event[0][0] == 0 and ce.event[1][0] == 0
        for t in range(2):
            assert sum(ce.event[t]) == F(1, 2)

    def test_weight_argument_matches_certificate_argument(self):
        cert = self._example_cert()
        via_weight = to_conditional(cert.pi_prime, cert.weight())
        via_cert = to_conditional(cert.pi_prime, cert)
        assert via_weight == via_cert

    def test_blackwell_certificate_degenerates(self):
        e = binary_symmetric("4/5")
        cert = check_blackwell(e, e)
        ce = to_conditional(e, cert)
        assert ce.alpha == 1
        assert ce.event == e.matrix

    def test_round_trip_recovers_weight(self):
        cert = self._example_cert()
        ce = to_conditional(cert.pi_prime, cert)
        recovered = from_conditional(ce, cert.pi)
        assert verify_certificate(recovered)
        assert recovered.gamma == (F(0), F(2), F(2))
        assert recovered.beta == 2

    def test_alpha_one_round_trip_is_blackwell(self):
        e = binary_symmetric("4/5")
        ce = to_conditional(e, check_blackwell(e, e))
        recovered = from_conditional(ce, e)
        assert recovered.beta == 1

    def test_state_dependent_event_rejected(self):
        base = binary_symmetric("4/5")
        # kappa would be 1/2 on (s1|t0) but 1/4 on (s1|t1)
        event = ((F(2, 5), F(1, 10)), (F(1, 20), F(2, 5)))
        with pytest.raises(InvalidInput):
            ConditionalExperiment(base=base, event=event, alpha=F(1, 2))

    @pytest.mark.parametrize("alpha", [0.5, "1/2"])
    def test_alpha_must_be_a_fraction(self, alpha):
        base = binary_symmetric("4/5")
        event = tuple(tuple(p / 2 for p in row) for row in base.matrix)
        ConditionalExperiment(base=base, event=event, alpha=F(1, 2))
        with pytest.raises(InvalidInput):
            ConditionalExperiment(base=base, event=event, alpha=alpha)

    def test_blackwell_failure_raises_order_error(self):
        pi_prime = three_signal_family("4/5")
        weight = make_weight(pi_prime, ["0", "2", "2"])
        ce = to_conditional(pi_prime, weight)
        with pytest.raises(OrderError):
            from_conditional(ce, perfect_experiment(2))

    def test_conditioned_table_matches_apply_weight(self):
        cert = self._example_cert()
        ce = to_conditional(cert.pi_prime, cert)
        reweighted = apply_weight(cert.weight(), cert.pi_prime)
        for t in range(2):
            for j in range(3):
                assert ce.event[t][j] == ce.alpha * reweighted.matrix[t][j]


def _accepts(build, *args) -> bool:
    try:
        build(*args)
    except InvalidInput:
        return False
    return True


def _event_tables(seed: int) -> list:
    """Seeded (base, event, alpha) triples, valid and spoiled.

    The valid events are a constant kappa on random experiments and the
    ``to_conditional`` of every minimal-size certificate on the first
    corpus pairs.  Each is also spoiled three ways: one entry moved, one
    signal's kappa pushed outside [0, 1], and a random table of the same
    shape.
    """
    rng = random.Random(seed)
    valid = []
    for _ in range(150):
        base = random_experiment(rng, rng.randint(1, 3), rng.randint(1, 4))
        kappa = F(rng.randint(1, 6), 6)
        valid.append((base, tuple(tuple(kappa * p for p in row) for row in base.matrix), kappa))
    for pi, _prior, pi_prime in corpus_pairs(20250814, 100):
        sized = min_size(pi, pi_prime)
        if sized is not None:
            conditional = to_conditional(pi_prime, sized[1])
            valid.append((pi_prime, conditional.event, conditional.alpha))
    cases = list(valid)
    for base, event, alpha in valid:
        table = [list(row) for row in event]
        t, j = rng.randrange(base.n_states), rng.randrange(base.n_signals)
        table[t][j] += rng.choice([F(-1, 12), F(1, 12), base.matrix[t][j], F(1, 2)])
        cases.append((base, tuple(map(tuple, table)), alpha))
        scale = rng.choice([F(-1, 2), F(3, 2), F(2)])
        table = [[p * scale if k == j else e for k, (p, e) in enumerate(zip(prow, erow))]
                 for prow, erow in zip(base.matrix, event)]
        cases.append((base, tuple(map(tuple, table)), alpha))
        table = tuple(
            tuple(F(rng.randint(-1, 12), 12) * p for p in row) for row in base.matrix
        )
        mass = sum(table[0], F(0))
        cases.append((base, table, mass if 0 < mass <= 1 else alpha))
    return cases


class TestConditionalAgainstTheRatioScan:
    """Reading kappa off ``kernel()`` accepts exactly the tables the ratio scan accepted."""

    def test_seeded_event_tables(self):
        cases = _event_tables(41)
        verdicts = [_accepts(ConditionalExperiment, *case) for case in cases]
        reference = [_accepts(reference_order.check_conditional, *case) for case in cases]
        mismatched = [k for k, (a, b) in enumerate(zip(verdicts, reference)) if a != b]
        assert not mismatched, mismatched[:10]
        assert 200 < sum(verdicts) < len(cases) - 200


class TestVerifyCertificate:
    @pytest.mark.parametrize("listed", [
        lambda psi: [list(row) for row in psi],
        list,
        lambda psi: tuple(list(row) for row in psi),
    ], ids=["lists", "list of rows", "list rows"])
    def test_list_psi_refused(self, listed):
        # A frozen certificate with a list in it could not be hashed.
        cert = check_weighted(binary_symmetric("4/5"), three_signal_family("9/10"))
        hash(cert)
        with pytest.raises(InvalidInput, match="tuple of tuples"):
            GarblingCertificate(pi=cert.pi, pi_prime=cert.pi_prime, psi=listed(cert.psi))

    def test_perturbed_kernel_fails(self):
        cert = check_weighted(binary_symmetric("4/5"), three_signal_family("9/10"))
        psi = [list(row) for row in cert.psi]
        psi[0][0] += F(1, 1000)
        broken = GarblingCertificate(
            pi=cert.pi, pi_prime=cert.pi_prime, psi=tuple(tuple(r) for r in psi)
        )
        result = verify_certificate(broken)
        assert not result
        assert result.violations

    def test_two_thirds_channel_witness(self):
        # binary symmetric 3/5 out of 4/5 via phi = [[2/3,1/3],[1/3,2/3]]
        witness = GarblingCertificate(
            pi=binary_symmetric("3/5"),
            pi_prime=binary_symmetric("4/5"),
            psi=((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3))),
        )
        assert verify_certificate(witness)
        assert witness.beta == 1


def test_certificate_checks_survive_optimize_flag():
    script = (
        "import expord.order as order\n"
        "from expord import InternalError\n"
        "from expord.generators import binary_symmetric, three_signal_family\n"
        "order.verify_certificate = lambda certificate: order.VerificationResult("
        "ok=False, violations=('patched',))\n"
        "try:\n"
        "    order.check_weighted(binary_symmetric('4/5'), three_signal_family('9/10'))\n"
        "except InternalError as error:\n"
        "    print('InternalError:', error)\n"
        "print('debug:', __debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(expord.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "debug: False" in done.stdout
    assert "InternalError: solver returned a non-verifying psi" in done.stdout


# ------------------------------------- the integer check vs the Fraction check


def _corpus_certificates(pairs: int) -> list:
    """Every certificate the corpus-order calls produce on the first corpus pairs."""
    found = []
    for pi, _prior, pi_prime in corpus_pairs(20250814, pairs):
        sized = min_size(pi, pi_prime)
        interval = size_interval(pi, pi_prime)
        found += [check_weighted(pi, pi_prime), check_blackwell(pi, pi_prime)]
        if sized is not None:
            found += [sized[1], interval.witness_min, interval.witness_max]
    return [certificate for certificate in found if certificate is not None]


def _with_psi(certificate, psi):
    return GarblingCertificate(
        pi=certificate.pi, pi_prime=certificate.pi_prime, psi=tuple(map(tuple, psi))
    )


class TestVerifyCertificateAgainstFractions:
    """The integer ``verify_certificate`` words every verdict as the Fraction one does."""

    @pytest.fixture(scope="class")
    def certificates(self):
        return _corpus_certificates(60)

    @staticmethod
    def _assert_same(certificates):
        mismatched = [
            k for k, certificate in enumerate(certificates)
            if verify_certificate(certificate) != reference_order.verify_certificate(certificate)
        ]
        assert not mismatched, mismatched[:10]

    def test_corpus_certificates(self, certificates):
        assert len(certificates) > 100
        assert all(verify_certificate(certificate) for certificate in certificates)
        self._assert_same(certificates)

    def test_one_entry_moved(self, certificates):
        rng = random.Random(11)
        moved = []
        for certificate in certificates:
            psi = [list(row) for row in certificate.psi]
            i, j = rng.randrange(len(psi)), rng.randrange(len(psi[0]))
            entry = psi[i][j]
            psi[i][j] = rng.choice([entry + F(1, 7), entry + 3] + ([entry / 3] if entry else []))
            moved.append(_with_psi(certificate, psi))
        self._assert_same(moved)
        messages = [m for c in moved for m in verify_certificate(c).violations]
        assert any(m.startswith("reproduction fails") for m in messages)
        assert any(m.startswith("weight identity fails") for m in messages)
        # A move onto a signal of pi_prime that never fires still verifies.
        assert sum(not verify_certificate(c) for c in moved) > len(moved) * 9 // 10

    def test_scaled_below_size_one(self, certificates):
        blackwell = next(c for c in certificates if c.beta == 1)
        scaled = _with_psi(blackwell, [[v / 2 for v in row] for row in blackwell.psi])
        result = verify_certificate(scaled)
        assert result == reference_order.verify_certificate(scaled)
        assert result.violations[-1] == "size 1/2 below 1"


# --------------------------------------------------- the size interval's duals


def _assert_interval_duals_verify(pi, pi_prime, interval):
    lowest, _ = reference_order.size_interval_programs(pi, pi_prime, 0)
    assert dual_verifies(lowest, interval.dual_min, interval.beta_min)
    moved = (interval.dual_min[0] + 1, *interval.dual_min[1:])
    assert not dual_verifies(lowest, moved, interval.beta_min)
    if interval.beta_max is None:
        assert interval.dual_max is None and interval.witness_max is None
        return
    assert len(interval.dual_max) == pi_prime.n_signals
    optima = []
    for column, dual in enumerate(interval.dual_max):
        _, highest = reference_order.size_interval_programs(pi, pi_prime, column)
        optimum = reference_solve(highest).objective
        assert dual_verifies(highest, dual, optimum)
        optima.append(optimum)
    assert max(optima) == interval.beta_max


class TestSizeIntervalDuals:
    def test_hand_pairs(self):
        null_signal = validate_experiment([["1/2", "0", "1/2"], ["1/4", "0", "3/4"]])
        pairs = [
            (binary_symmetric("3/5"), three_signal_family("4/5")),
            (binary_symmetric("4/5"), three_signal_family("9/10")),
            (binary_symmetric("3/5"), dilute(binary_symmetric("3/5"), 2)),
            (null_signal, null_signal),
        ]
        intervals = [size_interval(pi, pi_prime) for pi, pi_prime in pairs]
        assert intervals[-1].dual_max is None
        for (pi, pi_prime), interval in zip(pairs, intervals):
            _assert_interval_duals_verify(pi, pi_prime, interval)

    def test_corpus_pairs(self):
        seen = set()
        for pi, _prior, pi_prime in corpus_pairs(20250814, 60):
            interval = size_interval(pi, pi_prime)
            if interval is not None:
                _assert_interval_duals_verify(pi, pi_prime, interval)
                seen.add(interval.unbounded)
        assert seen == {True, False}


# ------------------------------------- one psi decision vs the bodies it replaced


def _recovery(conditional, pi, recover):
    try:
        return recover(conditional, pi)
    except OrderError as error:
        return ("OrderError", str(error))


class TestOneDecisionAgainstParentBodies:
    """``_decide`` answers as the separate solves in ``reference_order`` did."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return corpus_pairs(20250814, 500)

    def test_from_conditional_on_every_ordered_pair(self, corpus):
        compared = zero_weights = refused = 0
        for pi, _prior, pi_prime in corpus:
            found = check_weighted(pi, pi_prime)
            if found is None:
                continue
            interval = size_interval(pi, pi_prime)
            for certificate in (found, interval.witness_min, interval.witness_max):
                if certificate is None:
                    continue
                conditional = to_conditional(pi_prime, certificate)
                zero_weights += min(certificate.gamma) == 0
                for target in (pi, pi_prime):
                    got = _recovery(conditional, target, from_conditional)
                    assert got == _recovery(conditional, target, reference_order.from_conditional)
                    refused += isinstance(got, tuple)
                    compared += 1
        assert compared > 1000 and zero_weights > 100 and 0 < refused < compared

    def test_falsify_bound_on_every_pair(self, corpus):
        # A cap holds exactly when it is at least the minimal size: the block
        # points answer every cap they meet and the minimal witness the rest.
        # The falsifier exists exactly when the cap fails, which is when the
        # diluted pair's Blackwell program is infeasible, and its table, with
        # the largest column multipliers, refutes that program.  Inside the
        # order the table is the reproduction part of the minimal-size dual,
        # which refutes the coupled cap program whole.  Outside the order the
        # first infeasible block refutes every size, with one Farkas row, the
        # diluted pair's first infeasible block's.
        compared = refuted = inside = outside = 0
        for pi, _prior, pi_prime in corpus:
            blocks = check_weighted(pi, pi_prime)
            problems = []
            for beta in (F(1), F(3, 2), F(2), F(4), F(8)):
                capped = check_weighted(pi, pi_prime, beta)
                assert (capped is None) == (reference_order.check_weighted(pi, pi_prime, beta) is None)
                if capped is not None:
                    assert verify_certificate(capped) and capped.beta <= beta
                    if blocks.beta <= beta:
                        assert capped.psi == blocks.psi
                    else:
                        assert capped is size_interval(pi, pi_prime).witness_min
                diluted = dilute(pi, beta)
                expected = reference_order.blackwell_farkas(diluted, pi_prime)
                problem = falsify_bound(pi, pi_prime, beta)
                assert (problem is None) == (expected is None) == (capped is not None)
                compared += 1
                if expected is None:
                    continue
                refuted += 1
                program = reference_order.blackwell_program(diluted, pi_prime)
                assert farkas_verifies(
                    program, reference_order.diluted_farkas(problem.payoffs, pi_prime)
                )
                report = verify_bound(problem, pi, pi_prime, beta)
                assert not report.holds
                if blocks is not None:
                    dual = size_interval(pi, pi_prime).dual_min
                    cap = ((), LE, (beta,) * pi_prime.n_signals)
                    assert farkas_verifies(reference_order.psi_program(pi, pi_prime, cap), dual)
                    n = pi.n_states
                    rows = tuple(tuple(dual[i * n : (i + 1) * n]) for i in range(pi.n_signals))
                    assert _decide(pi, pi_prime, beta) == rows
                    inside += 1
                    continue
                feasible, table = reference_order.relax(diluted, pi_prime)
                assert not feasible
                scaled = [[y * pi.n_states for y in row] for row in table]
                peak = max(1, max(abs(v) for row in scaled for v in row))
                assert problem.payoffs == tuple(tuple(v / peak for v in row) for row in scaled)
                assert sum(any(row) for row in table) == 1
                assert farkas_verifies(program, _padded(table, pi_prime.n_signals))
                assert report.value_prime == report.value_noinfo == 0 < report.value_pi / beta
                problems.append(problem)
            if blocks is None:
                assert len(problems) == 5 and all(p == problems[0] for p in problems)
                outside += 1
        assert compared == 2500 and 0 < refuted < compared
        assert inside > 20 and outside > 100

# ----------------------------- the per-signal relaxation vs the coupled programs


def _padded(table, n_columns):
    return [y for row in table for y in row] + [F(0)] * n_columns


class TestBlockRowRefutesTheLinkedPrograms:
    """One infeasible block refutes the capped, Blackwell and min_size programs."""

    def test_every_unordered_corpus_pair(self):
        outside = 0
        for pi, _prior, pi_prime in corpus_pairs(20250814, 500):
            n_sp = pi_prime.n_signals
            table = _decide(pi, pi_prime)
            if isinstance(table, GarblingCertificate):
                continue
            outside += 1
            assert sum(any(row) for row in table) == 1
            capped = ((), LE, (F(2),) * n_sp)
            assert _decide(pi, pi_prime, F(2)) == table
            lowest, _ = reference_order.size_interval_programs(pi, pi_prime, 0)
            for program in (
                reference_order.psi_program(pi, pi_prime, capped),
                reference_order.blackwell_program(pi, pi_prime),
                lowest,
            ):
                assert farkas_verifies(program, _padded(table, n_sp))
            moved = [[y + 1 for y in row] for row in table]
            assert not farkas_verifies(lowest, _padded(moved, n_sp))
            assert check_weighted(pi, pi_prime, 2) is None and min_size(pi, pi_prime) is None
            assert check_blackwell(pi, pi_prime) is None and size_interval(pi, pi_prime) is None
        assert outside > 100


def _psi(certificate):
    return None if certificate is None else certificate.psi


def _interval_fields(interval):
    if interval is None:
        return None
    return (
        interval.beta_min, interval.beta_max, interval.witness_min.psi,
        _psi(interval.witness_max), interval.dual_min, interval.dual_max,
    )


class TestRelaxationAgainstCoupledBodies:
    """Every answer matches the coupled bodies kept in ``reference_order``.

    ``min_size`` starts from the blocks' bases, so its optimal vertex may be
    another than the cold coupled solve's: the minimal witness and its dual
    are checked against the coupled program at the same value, and the
    Blackwell certificate, padded from that witness, by its own checks.
    """

    @pytest.mark.parametrize("seed, count", [(20250814, 500), (1, 300), (2, 300)])
    def test_corpus(self, seed, count):
        ordered = bounded = 0
        for pi, _prior, pi_prime in corpus_pairs(seed, count):
            found = check_weighted(pi, pi_prime)
            assert _psi(found) == _psi(reference_order.check_weighted(pi, pi_prime))
            interval = size_interval(pi, pi_prime)
            expected = reference_order.size_interval(pi, pi_prime)
            sized = min_size(pi, pi_prime)
            conditional = to_conditional(pi_prime, make_weight(pi_prime, [1] * pi_prime.n_signals))
            recovered = _recovery(conditional, pi, from_conditional)
            if found is None:
                assert interval is None and expected is None
                assert check_blackwell(pi, pi_prime) is None and sized is None
                assert check_weighted(pi, pi_prime, 2) is None
                assert recovered == _recovery(
                    conditional, pi, reference_order.from_conditional_coupled
                )
                continue
            ordered += 1
            bounded += interval.beta_max is not None
            assert (
                interval.beta_min, interval.beta_max, _psi(interval.witness_max), interval.dual_max
            ) == (
                expected.beta_min, expected.beta_max, _psi(expected.witness_max), expected.dual_max
            )
            assert verify_certificate(interval.witness_min)
            assert interval.witness_min.beta == interval.beta_min
            lowest, _ = reference_order.size_interval_programs(pi, pi_prime, 0)
            assert dual_verifies(lowest, interval.dual_min, interval.beta_min)
            blackwell = check_blackwell(pi, pi_prime)
            coupled = reference_order.check_blackwell_coupled(pi, pi_prime)
            assert (blackwell is None) == (coupled is None) == (interval.beta_min > 1)
            if blackwell is not None:
                assert verify_certificate(blackwell) and set(blackwell.gamma) == {1}
            capped = check_weighted(pi, pi_prime, 2)
            assert (capped is None) == (reference_order.check_weighted(pi, pi_prime, 2) is None)
            assert capped is None or (verify_certificate(capped) and capped.beta <= 2)
            assert sized == (expected.beta_min, interval.witness_min)
            assert recovered == _recovery(
                conditional, pi, reference_order.from_conditional_coupled
            )
        assert 0 < bounded < ordered < count


class TestNoCoupledSolveForTheOrder:
    """The uncapped decision and the beta_max maximizations solve blocks only."""

    def test_solve_spy(self, monkeypatch):
        seen = spy_on_solves(monkeypatch)
        maximized = 0
        for pi, _prior, pi_prime in corpus_pairs(20250814, 100):
            seen.clear()
            found = check_weighted(pi, pi_prime)
            assert seen and all(len(lp.rows) <= pi.n_states for lp in seen)
            if found is None:
                continue
            seen.clear()
            size_interval(pi, pi_prime)
            maxima = [len(lp.rows) for lp in seen if lp.sense == "max"]
            assert all(rows <= pi.n_states for rows in maxima)
            maximized += len(maxima)
        assert maximized > 100


class TestSizeIntervalFinishesTheRememberedBlocks:
    """After the blocks are decided, size_interval runs phase two only, once per block and column."""

    def test_no_phase_one_on_a_remembered_block(self, monkeypatch):
        started, finished = [], []
        real_one, real_two = order_module._phase_one, order_module._phase_two

        def phase_one(lp, crash=()):
            started.append(lp)
            return real_one(lp, crash)

        def phase_two(start, objective, sense):
            finished.append((start.lp.rows, objective, sense))
            return real_two(start, objective, sense)

        monkeypatch.setattr(order_module, "_phase_one", phase_one)
        monkeypatch.setattr(order_module, "_phase_two", phase_two)
        pairs = [(pi, pi_prime) for pi, _prior, pi_prime in corpus_pairs(20250814, 100)]
        # A null signal of pi gets zeros in the blocks, so size_interval starts its block.
        pairs.append(
            (validate_experiment([["1/2", "1/2", "0"], ["1/4", "3/4", "0"]]), perfect_experiment(2))
        )
        bounded = nulls = 0
        for pi, pi_prime in pairs:
            if check_weighted(pi, pi_prime) is None:
                continue
            # The minimal size is remembered apart from the blocks; only the maxima are watched.
            min_size(pi, pi_prime)
            del started[:], finished[:]
            interval = size_interval(pi, pi_prime)
            null = [
                _block(pi, pi_prime, s)
                for s in range(pi.n_signals)
                if not any(row[s] for row in pi.matrix)
            ]
            if interval.unbounded:
                assert started == finished == []
                continue
            n_sp = pi_prime.n_signals
            assert started == null
            assert Counter(finished) == Counter(
                (_block(pi, pi_prime, s).rows, tuple(F(int(k == j)) for k in range(n_sp)), "max")
                for j in range(n_sp)
                for s in range(pi.n_signals)
            )
            bounded += 1
            nulls += len(null)
        assert bounded > 30 and nulls > 0


class TestOneLinkedProgramPerPair:
    """A fresh pair's Blackwell, min_size and size_interval questions crash-start one program."""

    def test_no_bland_phase_one_beyond_the_blocks(self, monkeypatch):
        calls, searches = [], []
        real_one, real_minimize = numerics._phase_one, numerics._Tableau.minimize

        def phase_one(lp, crash=()):
            call = [lp, tuple(crash), len(searches)]
            calls.append(call)
            start = real_one(lp, crash)
            call[2] = len(searches) - call[2]
            return start

        def minimize(tableau, banned):
            searches.append(banned)
            return real_minimize(tableau, banned)

        def solve(lp):
            raise AssertionError("a linked program was solved cold")

        for module in (numerics, order_module):
            monkeypatch.setattr(module, "_phase_one", phase_one)
            monkeypatch.setattr(module, "solve", solve)
        monkeypatch.setattr(numerics._Tableau, "minimize", minimize)
        pairs = [(pi, pi_prime) for pi, _prior, pi_prime in corpus_pairs(20250814, 100)]
        pairs.append(
            (validate_experiment([["1/2", "1/2", "0"], ["1/4", "3/4", "0"]]), perfect_experiment(2))
        )
        ordered = 0
        for pi, pi_prime in pairs:
            del calls[:]
            blackwell = check_blackwell(pi, pi_prime)
            min_size(pi, pi_prime)
            interval = size_interval(pi, pi_prime)
            blocks = [_block(pi, pi_prime, s).rows for s in range(pi.n_signals)]
            cold = [call for call in calls if not call[1]]
            assert all(lp.rows in blocks for lp, _crash, _searches in cold)
            if interval is None:
                assert blackwell is None and len(calls) == len(cold)
                continue
            ordered += 1
            # One crash start, the min_size program's, with no Bland search.
            [(program, crash, searched)] = [call for call in calls if call[1]]
            assert program.n_variables == pi.n_signals * pi_prime.n_signals + 1
            assert searched == 0 and len(calls) == len(cold) + 1
        assert ordered > 30


class TestWorkPerCorpusPass:
    """The corpus-order questions over the first 60 acceptance pairs, counted.

    The pass does the same simplex work as before the checks moved onto
    the tableau's integers, builds no program in phase two, checks each
    certificate object once, and every certificate it returns was checked.
    """

    def test_work_and_checks(self, monkeypatch):
        counts, checked = spy_on_work(monkeypatch)
        returned = []
        for pi, prior, pi_prime in corpus_pairs(20250814, 60):
            weighted = check_weighted(pi, pi_prime)
            blackwell = check_blackwell(pi, pi_prime)
            sized = min_size(pi, pi_prime)
            expord.check_weighted_beliefs(pi, pi_prime, prior)
            if weighted is None:
                for beta in (1, 2, 4, 8):
                    falsify_bound(pi, pi_prime, beta)
                continue
            interval = size_interval(pi, pi_prime)
            # One witness per pair: every question returns the object solved once.
            assert interval.witness_min is sized[1]
            assert blackwell is None or blackwell is sized[1] or set(sized[1].gamma) != {1}
            returned += [weighted, blackwell, sized[1], interval.witness_max]
        monkeypatch.undo()
        returned = [certificate for certificate in returned if certificate is not None]
        assert counts["pivots"] == 623 and counts["phase ones"] == 163
        assert counts["programs in phase two"] == 0
        assert len({id(certificate) for certificate in checked}) == len(checked)
        assert all(any(certificate is seen for seen in checked) for certificate in returned)
        assert all(verify_certificate(certificate) for certificate in returned)
        assert len(returned) > 100


class TestBlackwellFromTheMinimalSize:
    def test_null_signal_column_is_padded_to_one(self):
        pi = binary_symmetric("3/5")
        pi_prime = validate_experiment([["4/5", "1/5", "0"], ["1/5", "4/5", "0"]])
        size, witness = min_size(pi, pi_prime)
        assert size == 1 and witness.gamma[:2] == (1, 1) and witness.gamma[2] < 1
        certificate = check_blackwell(pi, pi_prime)
        assert certificate is not witness and verify_certificate(certificate)
        assert certificate.gamma == (1, 1, 1) and certificate.beta == 1
        assert certificate.psi[0][2] == witness.psi[0][2] + 1 - witness.gamma[2]
        assert certificate.psi[1:] == witness.psi[1:]
        assert certificate.psi[0][:2] == witness.psi[0][:2]

    def test_a_witness_with_unit_column_sums_is_returned_itself(self):
        pi, pi_prime = binary_symmetric("3/5"), binary_symmetric("4/5")
        size, witness = min_size(pi, pi_prime)
        assert size == 1 and witness.gamma == (1, 1)
        assert check_blackwell(pi, pi_prime) is witness
        assert size_interval(pi, pi_prime).witness_min is witness

    def test_no_certificate_above_size_one(self):
        pi, pi_prime = binary_symmetric("4/5"), three_signal_family("9/10")
        assert min_size(pi, pi_prime)[0] > 1 and check_blackwell(pi, pi_prime) is None


# ------------------------------------------------ the memo of the last pair asked


def _copy(experiment):
    return Experiment(states=experiment.states, signals=experiment.signals, matrix=experiment.matrix)


def _sized(found):
    return None if found is None else (found[0], found[1].psi)


# The questions a corpus-order item asks of one pair, each reduced to what it
# answers: every psi, size, witness, dual and falsifier.
QUESTIONS = {
    "weighted": lambda pi, pi_prime: _psi(check_weighted(pi, pi_prime)),
    "capped": lambda pi, pi_prime: _psi(check_weighted(pi, pi_prime, 2)),
    "blackwell": lambda pi, pi_prime: _psi(check_blackwell(pi, pi_prime)),
    "min_size": lambda pi, pi_prime: _sized(min_size(pi, pi_prime)),
    "interval": lambda pi, pi_prime: _interval_fields(size_interval(pi, pi_prime)),
    "falsifiers": lambda pi, pi_prime: tuple(
        falsify_bound(pi, pi_prime, beta) for beta in (1, 2, 4, 8)
    ),
}


def _ask(pi, pi_prime, names, fresh=False):
    """Each named question about the pair, on fresh equal copies if ``fresh``."""
    answers = {}
    for name in names:
        pair = (_copy(pi), _copy(pi_prime)) if fresh else (pi, pi_prime)
        answers[name] = QUESTIONS[name](*pair)
    return answers


class TestLastPairMemo:
    """Answers read from the memo are those of a pair decided from scratch."""

    def test_any_order_and_fresh_copies_agree(self):
        names = list(QUESTIONS)
        short = ["min_size", "weighted", "capped"]
        ordered = 0
        for pi, _prior, pi_prime in corpus_pairs(20250814, 500):
            # Each of these shares one object, in the same role, with the pair
            # asked about just before it, so a key that read only one role
            # would answer it from the wrong entry.
            others = ((pi, pi), (pi_prime, pi), (pi_prime, pi_prime))
            fresh = _ask(pi, pi_prime, names, fresh=True)
            expected = [_ask(*other, short, fresh=True) for other in others]
            assert _ask(pi, pi_prime, names) == fresh
            assert _ask(pi, pi_prime, names[::-1]) == fresh
            assert [_ask(*other, short) for other in others] == expected
            ordered += fresh["weighted"] is not None
        assert 100 < ordered < 500

    def test_each_block_and_the_min_size_program_solve_once(self, monkeypatch):
        seen = spy_on_solves(monkeypatch)
        ordered = 0
        for pi, _prior, pi_prime in corpus_pairs(20250814, 100):
            seen.clear()
            if check_weighted(pi, pi_prime) is None:
                continue
            ordered += 1
            check_blackwell(pi, pi_prime)
            min_size(pi, pi_prime)
            size_interval(pi, pi_prime)
            n_s, n_sp = pi.n_signals, pi_prime.n_signals
            blocks = [lp for lp in seen if lp.sense == "min" and lp.n_variables == n_sp]
            expected = [
                _block(pi, pi_prime, s) for s in range(n_s) if any(row[s] for row in pi.matrix)
            ]
            assert blocks == expected
            assert sum(lp.n_variables == n_s * n_sp + 1 for lp in seen) == 1
        assert ordered > 30

    def test_the_previous_pair_is_released(self):
        pi, pi_prime = binary_symmetric("3/5"), three_signal_family("4/5")
        refs = [weakref.ref(pi), weakref.ref(pi_prime)]
        assert min_size(pi, pi_prime) is not None
        del pi, pi_prime
        assert all(ref() is not None for ref in refs)
        assert check_weighted(binary_symmetric("4/5"), three_signal_family("9/10")) is not None
        assert all(ref() is None for ref in refs)

    def test_threads_sharing_the_memo_get_their_own_pairs_answers(self):
        # Threads that interleave questions about different pairs can only
        # replace each other's entry, never read it as their own.
        pairs = [(pi, pi_prime) for pi, _prior, pi_prime in corpus_pairs(20250814, 40)]
        names = ["weighted", "min_size", "interval"]
        expected = [_ask(pi, pi_prime, names, fresh=True) for pi, pi_prime in pairs]
        wrong = []

        def worker(seed):
            order = list(range(len(pairs)))
            random.Random(seed).shuffle(order)
            for k in order * 2:
                try:
                    if _ask(*pairs[k], names) != expected[k]:
                        wrong.append(k)
                except Exception as error:  # in a thread it would only warn
                    wrong.append((k, repr(error)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
