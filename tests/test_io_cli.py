"""JSON document round trips and the command-line surface.

Exit-code contract: 0 when the queried relation or computation holds,
1 when a check comes back certifiably false, 2 for input errors, 3 when
one of the library's own certificate checks fails.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expord import (
    InvalidInput,
    check_blackwell,
    check_weighted,
    check_weighted_beliefs,
    decision_problem,
    dilute,
    iid_chain,
    make_weight,
    markov_chain,
    to_conditional,
    uniform_prior,
    validate_experiment,
    verify_certificate,
)
from expord import documents as docs
from expord import cli, numerics
from expord.cli import run
from expord.generators import (
    binary_symmetric,
    corpus_pairs,
    perfect_experiment,
    three_signal_family,
    uninformative_experiment,
)
from reference_order import size_interval_programs
from reference_simplex import reference_solve

F = Fraction


# ---------------------------------------------------------------- documents


class TestDocumentRoundTrips:
    def test_experiment(self):
        e = three_signal_family("9/10")
        doc = docs.experiment_to_doc(e)
        assert doc["kind"] == "experiment"
        assert docs.experiment_from_doc(doc) == e

    def test_chain(self):
        chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
        assert docs.chain_from_doc(docs.chain_to_doc(chain)) == chain

    def test_decision_problem(self):
        dp = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
        assert docs.decision_problem_from_doc(docs.decision_problem_to_doc(dp)) == dp

    def test_certificate(self):
        cert = check_weighted(binary_symmetric("4/5"), three_signal_family("9/10"))
        doc = docs.certificate_to_doc(cert)
        restored = docs.certificate_from_doc(doc)
        assert restored == cert
        assert verify_certificate(restored)

    def test_conditional(self):
        pi_prime = three_signal_family("4/5")
        ce = to_conditional(pi_prime, make_weight(pi_prime, ["0", "2", "2"]))
        assert docs.conditional_from_doc(docs.conditional_to_doc(ce)) == ce

    def test_coupling(self):
        pi = binary_symmetric("4/5")
        pi_prime = three_signal_family("9/10")
        coupling = check_weighted_beliefs(pi, pi_prime, uniform_prior(2))
        restored = docs.coupling_from_doc(docs.coupling_to_doc(coupling))
        assert restored == coupling

    def test_parse_document_dispatch(self):
        e = binary_symmetric("3/5")
        parsed = docs.parse_document(docs.experiment_to_doc(e))
        assert parsed == e

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInput):
            docs.parse_document({"kind": "mystery"})

    @pytest.mark.parametrize("kind", [[], {}, ["experiment"]])
    def test_unhashable_kind_rejected(self, kind):
        with pytest.raises(InvalidInput, match="unknown document kind"):
            docs.parse_document({"kind": kind})


class TestRationalWriter:
    def test_every_fraction_at_any_depth_becomes_its_string(self):
        value = {"a": (F(1, 2), [F(-3), {"b": (F(2, 4),)}]), "c": [[F(0)]]}
        assert docs.text(value) == {"a": ["1/2", ["-3", {"b": ["1/2"]}]], "c": [["0"]]}

    @pytest.mark.parametrize("value", ["3/4", 7, True, False, None])
    def test_other_scalars_pass_through(self, value):
        assert docs.text(value) is value

    def test_idempotent(self):
        value = {"x": (F(5, 3), "1/2", 4, None, [True, (F(1),)])}
        assert docs.text(docs.text(value)) == docs.text(value)

    def test_report_holds_no_raw_fraction(self):
        report = cli._report("demo", beta=F(3, 2), pair=(F(1, 3), 2), note=None)
        assert json.loads(docs.dump_document(report)) == {
            "kind": "report",
            "command": "demo",
            "beta": "3/2",
            "pair": ["1/3", 2],
            "note": None,
        }


class TestDocumentValidation:
    def _cert_doc(self):
        cert = check_blackwell(binary_symmetric("3/5"), three_signal_family("4/5"))
        return docs.certificate_to_doc(cert)

    def test_digest_tamper_detected(self):
        doc = self._cert_doc()
        doc["pi"]["matrix"][0] = ["2/5", "3/5"]
        with pytest.raises(InvalidInput):
            docs.certificate_from_doc(doc)

    def test_conditional_digest_tamper_detected(self):
        pi_prime = three_signal_family("4/5")
        ce = to_conditional(pi_prime, make_weight(pi_prime, ["0", "2", "2"]))
        doc = docs.conditional_to_doc(ce)
        doc["base"] = docs.experiment_to_doc(three_signal_family("9/10"))
        with pytest.raises(InvalidInput, match="base_digest"):
            docs.conditional_from_doc(doc)

    def test_stated_beta_must_match(self):
        doc = self._cert_doc()
        doc["beta"] = "7"
        with pytest.raises(InvalidInput):
            docs.certificate_from_doc(doc)

    def test_stated_gamma_must_match(self):
        doc = self._cert_doc()
        doc["gamma"] = ["1", "1", "2"]
        with pytest.raises(InvalidInput):
            docs.certificate_from_doc(doc)

    def test_psi_must_verify(self):
        # Swapping two entries of one psi column keeps gamma and beta but
        # no longer reproduces pi.
        doc = _swap_psi_entries(self._cert_doc())
        with pytest.raises(InvalidInput, match=r"psi: certificate does not verify: reproduction"):
            docs.certificate_from_doc(doc)

    @pytest.mark.parametrize(
        "hostile", ["zero target probability", "no target atoms", "short target belief"]
    )
    def test_hostile_coupling_shape_rejected(self, hostile):
        # Unchecked, these reach CouplingCertificate.beta (a zero divisor or
        # an empty max) or verify_coupling (a belief indexed past its end).
        doc = _coupling_doc(hostile)
        with pytest.raises(InvalidInput):
            docs.parse_document(doc)

    def test_row_sum_error_carries_a_path(self):
        doc = docs.experiment_to_doc(binary_symmetric("3/5"))
        doc["matrix"][0] = ["1/2", "2/3"]
        with pytest.raises(InvalidInput):
            docs.experiment_from_doc(doc)
        for entry in (True, 1.5, None):
            doc["matrix"][0] = [entry, "2/5"]
            with pytest.raises(InvalidInput, match=r"^experiment\.matrix\[0\]\[0\]: "):
                docs.experiment_from_doc(doc)

    def test_canonical_json_is_sorted_and_compact(self):
        text = docs.canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'

    def test_digest_is_stable(self):
        doc = docs.experiment_to_doc(binary_symmetric("3/5"))
        assert docs.document_digest(doc) == docs.document_digest(json.loads(json.dumps(doc)))


def _coupling_doc(hostile):
    """A one-atom coupling document under the uniform prior, made hostile."""
    atom = {"signals": ["s"], "belief": ["1/2", "1/2"], "probability": "1"}
    doc = {
        "kind": "coupling",
        "prior": ["1/2", "1/2"],
        "pi_atoms": [atom],
        "pi_prime_atoms": [dict(atom)],
        "matrix": [["1"]],
        "beta": "1",
    }
    if hostile == "zero target probability":
        doc["pi_prime_atoms"].append(dict(atom, signals=["t"], probability="0"))
        doc["matrix"] = [["1", "0"]]
    elif hostile == "no target atoms":
        doc["pi_prime_atoms"], doc["matrix"] = [], [[]]
    else:
        doc["pi_atoms"][0] = dict(atom, belief=["1", "0"])
        doc["pi_prime_atoms"][0]["belief"] = ["1"]
    return doc


def _swap_psi_entries(doc):
    """The certificate document with two differing entries of one psi column swapped."""
    psi = doc["psi"]
    j = next(j for j in range(len(psi[0])) if psi[0][j] != psi[1][j])
    psi[0][j], psi[1][j] = psi[1][j], psi[0][j]
    return doc


# ---------------------------------------------------------------------- cli


@pytest.fixture
def files(tmp_path):
    """Write the standard fixture documents and return their paths."""

    def _write(name, doc):
        path = tmp_path / name
        path.write_text(docs.dump_document(doc))
        return str(path)

    chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
    matching = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
    return {
        "pi": _write("pi.json", docs.experiment_to_doc(binary_symmetric("4/5"))),
        "pi_low": _write("pi_low.json", docs.experiment_to_doc(binary_symmetric("3/5"))),
        "family": _write(
            "family.json", docs.experiment_to_doc(three_signal_family("4/5"))
        ),
        "family_hi": _write(
            "family_hi.json", docs.experiment_to_doc(three_signal_family("9/10"))
        ),
        "perfect": _write("perfect.json", docs.experiment_to_doc(perfect_experiment(2))),
        "uninf": _write(
            "uninf.json", docs.experiment_to_doc(uninformative_experiment(2))
        ),
        "chain": _write("chain.json", docs.chain_to_doc(chain)),
        "iid": _write("iid.json", docs.chain_to_doc(iid_chain(uniform_prior(2)))),
        "matching": _write("matching.json", docs.decision_problem_to_doc(matching)),
        "dir": tmp_path,
    }


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestCheckCommand:
    def test_blackwell_ordered(self, files, capsys):
        code, doc = invoke(capsys, "check", "blackwell", files["pi_low"], files["family"])
        assert code == 0
        assert doc["kind"] == "certificate"
        assert doc["beta"] == "1"
        assert verify_certificate(docs.certificate_from_doc(doc))

    def test_weighted_with_size_request(self, files, capsys):
        code, doc = invoke(
            capsys, "check", "weighted", files["pi"], files["family"], "--beta", "2"
        )
        assert code == 0
        cert = docs.certificate_from_doc(doc)
        assert cert.beta <= 2

    def test_size_cap_note_names_the_parsed_cap(self, files, capsys):
        code, doc = invoke(
            capsys, "check", "weighted", files["pi"], files["family"], "--beta", " 6/4 "
        )
        assert code == 1
        assert doc["note"] == "no weighted garbling certificate exists of size at most 3/2"

    def test_unordered_pair_exits_one(self, files, capsys):
        code, doc = invoke(capsys, "check", "weighted", files["perfect"], files["uninf"])
        assert code == 1
        assert doc == {
            "kind": "report",
            "command": "check",
            "relation": "weighted",
            "holds": False,
        } or (doc["holds"] is False)

    def test_missing_file_exits_two(self, files, capsys):
        code, _ = invoke(capsys, "check", "blackwell", files["pi"], "no-such-file.json")
        assert code == 2


class TestOrderCommands:
    def test_size_interval(self, files, capsys):
        code, doc = invoke(capsys, "size-interval", files["pi_low"], files["family"])
        assert code == 0
        assert doc["beta_min"] == "1" and doc["beta_max"] == "2"
        assert verify_certificate(docs.certificate_from_doc(doc["witness_min"]))
        assert verify_certificate(docs.certificate_from_doc(doc["witness_max"]))

    def test_size_interval_unordered(self, files, capsys):
        code, doc = invoke(capsys, "size-interval", files["perfect"], files["uninf"])
        assert code == 1 and doc["holds"] is False

    def test_compose(self, files, capsys, tmp_path):
        _, inner = invoke(capsys, "check", "blackwell", files["pi_low"], files["pi"])
        _, outer = invoke(capsys, "check", "weighted", files["pi"], files["family_hi"])
        inner_path = tmp_path / "inner.json"
        outer_path = tmp_path / "outer.json"
        inner_path.write_text(docs.dump_document(inner))
        outer_path.write_text(docs.dump_document(outer))
        code, doc = invoke(capsys, "compose", str(inner_path), str(outer_path))
        assert code == 0
        composed = docs.certificate_from_doc(doc)
        assert verify_certificate(composed)
        assert composed.pi == binary_symmetric("3/5")

    def test_compose_rejects_a_psi_that_does_not_verify(self, files, capsys, tmp_path):
        _, inner = invoke(capsys, "check", "blackwell", files["pi_low"], files["pi"])
        _, outer = invoke(capsys, "check", "weighted", files["pi"], files["family_hi"])
        inner_path = tmp_path / "inner.json"
        outer_path = tmp_path / "outer.json"
        inner_path.write_text(docs.dump_document(inner))
        outer_path.write_text(docs.dump_document(_swap_psi_entries(outer)))
        code = run(["compose", str(inner_path), str(outer_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {outer_path}.psi: certificate does not verify")

    def test_conditional_to_rejects_a_psi_that_does_not_verify(self, files, capsys, tmp_path):
        _, cert_doc = invoke(capsys, "check", "weighted", files["pi"], files["family_hi"])
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(docs.dump_document(_swap_psi_entries(cert_doc)))
        code = run(["conditional", "to", str(cert_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {cert_path}.psi: certificate does not verify")

    def test_conditional_round_trip(self, files, capsys, tmp_path):
        code, cert_doc = invoke(
            capsys, "check", "weighted", files["pi"], files["family_hi"]
        )
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(docs.dump_document(cert_doc))
        code, cond_doc = invoke(capsys, "conditional", "to", str(cert_path))
        assert code == 0 and cond_doc["kind"] == "conditional_experiment"
        cond_path = tmp_path / "cond.json"
        cond_path.write_text(docs.dump_document(cond_doc))
        code, back = invoke(capsys, "conditional", "from", str(cond_path), files["pi"])
        assert code == 0
        assert verify_certificate(docs.certificate_from_doc(back))

    def test_conditional_from_failure_exits_one(self, files, capsys, tmp_path):
        pi_prime = three_signal_family("4/5")
        ce = to_conditional(pi_prime, make_weight(pi_prime, ["0", "2", "2"]))
        cond_path = tmp_path / "cond.json"
        cond_path.write_text(docs.dump_document(docs.conditional_to_doc(ce)))
        code, doc = invoke(
            capsys, "conditional", "from", str(cond_path), files["perfect"]
        )
        assert code == 1 and doc["holds"] is False


class TestBeliefCommands:
    def test_posteriors(self, files, capsys):
        code, doc = invoke(
            capsys, "posteriors", files["family"], "--prior", "1/2,1/2"
        )
        assert code == 0
        assert len(doc["atoms"]) == 3

    def test_posteriors_bad_prior_exits_two(self, files, capsys):
        code, _ = invoke(capsys, "posteriors", files["family"], "--prior", "1,0")
        assert code == 2

    def test_hull_check_inside(self, capsys):
        code, doc = invoke(
            capsys,
            "hull-check",
            "--point",
            "3/5,2/5",
            "--generators",
            "9/10,1/10;1/10,9/10",
        )
        assert code == 0
        assert doc["coefficients"] == ["5/8", "3/8"]

    def test_hull_check_outside(self, capsys):
        code, doc = invoke(
            capsys,
            "hull-check",
            "--point",
            "1,0",
            "--generators",
            "3/5,2/5;2/5,3/5",
        )
        assert code == 1
        assert "separating" in json.dumps(doc)

    @pytest.mark.parametrize(
        "point, generators",
        [
            ("1/2,1/4", "1,0;0,1"),
            ("2,2", "1,0;0,1"),
            ("0,0", "1,0;0,1"),
            ("1/2,1/2", "2,0;0,2"),
        ],
    )
    def test_hull_check_non_belief_exits_two(self, capsys, point, generators):
        # The cone program decides hull membership only for beliefs, so
        # check_belief refuses these points and generators before any solve.
        code, doc = invoke(
            capsys, "hull-check", "--point", point, "--generators", generators
        )
        assert code == 2 and doc is None

    def test_beliefs_check_agrees_with_the_lp_path(self, files, capsys):
        code, doc = invoke(
            capsys, "beliefs-check", files["pi"], files["family_hi"], "--prior", "1/2,1/2"
        )
        assert code == 0 and doc["kind"] == "coupling"
        code, doc = invoke(
            capsys, "beliefs-check", files["perfect"], files["uninf"], "--prior", "1/2,1/2"
        )
        assert code == 1 and doc["holds"] is False


class TestValueCommands:
    def test_value_policy_regression(self, files, capsys):
        code, doc = invoke(capsys, "value", files["matching"], files["family"])
        assert code == 0
        assert doc["value"] == "13/20"
        assert doc["policy"] == {"s0": "a0", "s1": "a0", "s2": "a1"}

    def test_bound_verify_tight_instance(self, files, capsys):
        code, doc = invoke(
            capsys,
            "bound-verify",
            files["matching"],
            files["pi"],
            files["family_hi"],
            "--beta",
            "3/2",
        )
        assert code == 0
        assert doc["slack"] == "0" and doc["holds"] is True

    def test_bound_verify_failure_exits_one(self, files, capsys):
        code, doc = invoke(
            capsys,
            "bound-verify",
            files["matching"],
            files["perfect"],
            files["uninf"],
            "--beta",
            "2",
        )
        assert code == 1 and doc["holds"] is False

    def test_bound_falsify_ordered(self, files, capsys):
        code, doc = invoke(
            capsys, "bound-falsify", files["pi"], files["family_hi"], "--beta", "3/2"
        )
        assert code == 0 and doc["holds"] is True

    def test_bound_falsify_below_the_minimal_size_is_tight(self, files, capsys):
        # The pair's minimal size is 3/2.  At beta 1 the problem comes from
        # the minimal-size dual, so it meets the bound at 3/2 with slack 0.
        code, doc = invoke(capsys, "bound-falsify", files["pi"], files["family_hi"], "--beta", "1")
        assert code == 1 and doc["kind"] == "decision_problem"
        path = files["dir"] / "falsifier.json"
        path.write_text(docs.dump_document(doc))
        code, report = invoke(
            capsys, "bound-verify", str(path), files["pi"], files["family_hi"], "--beta", "3/2"
        )
        assert code == 0 and report["slack"] == "0" and report["holds"] is True

    def test_bound_falsify_unordered(self, files, capsys):
        code, doc = invoke(
            capsys, "bound-falsify", files["perfect"], files["uninf"], "--beta", "4"
        )
        assert code == 1
        assert doc["kind"] == "decision_problem"
        problem = docs.decision_problem_from_doc(doc)
        assert all(abs(u) <= 1 for row in problem.payoffs for u in row)

    def test_dilute(self, files, capsys):
        code, doc = invoke(capsys, "dilute", files["pi_low"], "--beta", "2")
        assert code == 0
        assert docs.experiment_from_doc(doc) == dilute(binary_symmetric("3/5"), 2)


class TestBoundFalsifierPipedIntoVerify:
    """Outside the order, each falsifier that bound-falsify prints fails bound-verify."""

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
    def test_unordered_corpus_pair(self, tmp_path, flags):
        pi, pi_prime = next(
            (pi, pi_prime) for pi, _prior, pi_prime in corpus_pairs(20250814, 60)
            if check_weighted(pi, pi_prime) is None
        )
        paths = []
        for name, experiment in (("pi", pi), ("pi_prime", pi_prime)):
            path = tmp_path / f"{name}.json"
            path.write_text(docs.dump_document(docs.experiment_to_doc(experiment)))
            paths.append(str(path))
        src = os.path.dirname(os.path.dirname(os.path.abspath(docs.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, *flags, "-m", "expord.cli"]
        for beta in ("1", "2", "4", "8"):
            falsify = subprocess.run(
                [*command, "bound-falsify", *paths, "--beta", beta],
                env=env, capture_output=True, timeout=60,
            )
            assert falsify.returncode == 1, falsify.stderr
            verify = subprocess.run(
                [*command, "bound-verify", "/dev/stdin", *paths, "--beta", beta],
                input=falsify.stdout, env=env, capture_output=True, timeout=60,
            )
            assert verify.returncode == 1, verify.stderr
            report = json.loads(verify.stdout)
            assert report["holds"] is False and F(report["slack"]) < 0


class TestDynamicsCommands:
    def test_eta(self, files, capsys):
        code, doc = invoke(capsys, "eta", files["pi_low"], "--chain", files["iid"])
        assert code == 0
        assert doc["converged"] is True and doc["gap"] == "0"
        assert sorted(doc["hull"]) == [["2/5", "3/5"], ["3/5", "2/5"]]

    def test_merge_horizon(self, files, capsys):
        code, doc = invoke(
            capsys,
            "merge-horizon",
            files["uninf"],
            "--chain",
            files["chain"],
            "--eps",
            "1/10",
        )
        assert code == 0
        assert doc["horizon"] == 4
        assert doc["profile"] == ["4/5", "8/25", "16/125", "32/625"]

    @pytest.mark.parametrize(
        "experiment, chain",
        [
            (
                validate_experiment([["1/2", "1/2"], ["1/4", "3/4"], ["9/10", "1/10"]]),
                markov_chain([["7/10", "3/10"], ["3/10", "7/10"]]),
            ),
            (
                binary_symmetric("4/5"),
                markov_chain([["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["1/4", "1/4", "1/2"]]),
            ),
            (
                binary_symmetric("4/5"),
                markov_chain([["7/10", "3/10"], ["3/10", "7/10"]], states=["x0", "x1"]),
            ),
        ],
        ids=["three-state-experiment", "three-state-chain", "other-labels"],
    )
    def test_merge_horizon_state_mismatch_exits_two(self, tmp_path, capsys, experiment, chain):
        experiment_path = tmp_path / "experiment.json"
        experiment_path.write_text(docs.dump_document(docs.experiment_to_doc(experiment)))
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(docs.dump_document(docs.chain_to_doc(chain)))
        code = run(
            ["merge-horizon", str(experiment_path), "--chain", str(chain_path), "--eps", "1/10"]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: chain and experiment must share state labels\n"

    def test_stopping(self, files, capsys):
        code, doc = invoke(
            capsys,
            "stopping",
            files["matching"],
            files["pi_low"],
            "--chain",
            files["iid"],
            "--horizon",
            "2",
        )
        assert code == 0 and doc["value"] == "3/5"

    def test_counterexample_found(self, files, capsys):
        code, doc = invoke(
            capsys,
            "counterexample",
            files["perfect"],
            files["uninf"],
            "--prior",
            "1/2,1/2",
        )
        assert code == 1 and doc["found"] is True
        assert [v["pi"] for v in doc["values"]] == ["0", "0", "0", "0"]
        assert [v["pi_prime"] for v in doc["values"]] == ["-1/4"] * 4

    def test_counterexample_ordered(self, files, capsys):
        code, doc = invoke(
            capsys,
            "counterexample",
            files["pi_low"],
            files["family"],
            "--prior",
            "1/2,1/2",
        )
        assert code == 0 and doc["found"] is False


class TestCliPlumbing:
    def test_selftest(self, capsys):
        code, doc = invoke(capsys, "selftest", "--seed", "0")
        assert code == 0
        assert doc["ok"] is True
        assert all(check["ok"] for check in doc["checks"])

    def test_wrong_document_kind_exits_two(self, files, capsys):
        code, _ = invoke(capsys, "value", files["pi"], files["family"])
        assert code == 2

    def test_wrong_kind_is_refused_before_its_parser_runs(self, files, capsys, monkeypatch):
        certificate = check_blackwell(binary_symmetric("3/5"), three_signal_family("4/5"))
        path = files["dir"] / "cert.json"
        path.write_text(docs.dump_document(docs.certificate_to_doc(certificate)))
        parser, calls = docs.certificate_from_doc, []

        def spy(*args, **kwargs):
            calls.append(args)
            return parser(*args, **kwargs)

        monkeypatch.setattr(docs, "certificate_from_doc", spy)
        monkeypatch.setitem(docs._PARSERS, "certificate", spy)
        code = run(["check", "weighted", str(path), files["family"]])
        captured = capsys.readouterr()
        assert (code, captured.out, calls) == (2, "", [])
        assert captured.err == f"error: {path}.kind: expected 'experiment', got 'certificate'\n"

    def test_malformed_json_exits_two(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = invoke(capsys, "check", "blackwell", str(bad), files["pi"])
        assert code == 2

    def test_overlong_rational_string_exits_two(self, files, capsys, tmp_path):
        doc = docs.experiment_to_doc(binary_symmetric("4/5"))
        doc["matrix"][0][0] = "1" * 5000
        path = tmp_path / "long_string.json"
        path.write_text(json.dumps(doc))
        code = run(["check", "weighted", str(path), files["pi"]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_overlong_bare_number_exits_two(self, files, capsys, tmp_path):
        doc = docs.experiment_to_doc(binary_symmetric("4/5"))
        doc["matrix"][0][0] = "TOKEN"
        path = tmp_path / "long_number.json"
        path.write_text(json.dumps(doc).replace('"TOKEN"', "1" * 5000))
        code = run(["check", "weighted", str(path), files["pi"]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_file_exits_two(self, files, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "expérience"}'.encode("latin-1"))
        code = run(["check", "weighted", str(path), files["pi"]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_json_exits_two(self, files, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code = run(["check", "weighted", str(path), files["pi"]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_states_exit_two(self, files, capsys, tmp_path):
        doc = docs.experiment_to_doc(binary_symmetric("4/5"))
        doc["states"] = "TOKEN"
        path = tmp_path / "deep_states.json"
        path.write_text(json.dumps(doc).replace('"TOKEN"', "[" * 5000 + "]" * 5000))
        code = run(["check", "weighted", str(path), files["pi"]])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_one_signal_long_horizon_exits_two(self, files, capsys):
        # One signal keeps n_signals ** horizon at 1, so only the cap on the
        # horizon itself stops the recursion.
        code = run(
            ["stopping", "--chain", files["iid"], "--horizon", "100000",
             files["matching"], files["uninf"]]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_huge_merge_depth_exits_two(self, files, capsys):
        code = run(
            ["merge-horizon", files["uninf"], "--chain", files["chain"],
             "--eps", "0", "--nmax", "100000000"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_self_check_exits_three(self, files, capsys, monkeypatch):
        # An unordered pair makes the garbling LP infeasible, so its Farkas
        # certificate is checked; a failing check is a defect, not a verdict.
        monkeypatch.setattr(numerics, "farkas_verifies", lambda lp, y: False)
        code = run(["check", "weighted", files["perfect"], files["uninf"]])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: simplex produced a bad Farkas certificate\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "weighted", "pi_low", "family"],
            ["hull-check", "--point", "1/10,9/10", "--generators", "1/4,3/4;3/4,1/4"],
        ],
    )
    def test_broken_pipe_exits_two(self, files, capsys, monkeypatch, argv):
        # A reader that closes stdout early is an I/O error, not a traceback.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = run([files.get(arg, arg) for arg in argv])
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_no_arguments_exits_two(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------- exit fuzz

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
_experiment_shaped = st.fixed_dictionaries(
    {
        "kind": st.just("experiment"),
        "states": _json_values | st.lists(st.text(max_size=3), max_size=3),
        "signals": _json_values | st.lists(st.text(max_size=3), max_size=3),
        "matrix": _json_values
        | st.lists(
            st.lists(st.sampled_from(["0", "1", "1/2", "-1", "3/2", 0, 1]), max_size=3),
            max_size=3,
        ),
    }
)
_valid_experiments = st.sampled_from(
    [binary_symmetric("4/5"), three_signal_family("9/10"), perfect_experiment(3),
     uninformative_experiment(2)]
).map(docs.experiment_to_doc)
_payloads = (
    st.binary(max_size=64)
    | (_json_values | _experiment_shaped | _valid_experiments).map(
        lambda doc: json.dumps(doc).encode("utf-8")
    )
)


class TestExitCodeFuzz:
    @settings(max_examples=300, deadline=None)
    @given(first=_payloads, second=_payloads)
    def test_check_weighted_exits_zero_one_or_two(self, first, second):
        with tempfile.TemporaryDirectory() as folder:
            paths = [os.path.join(folder, name) for name in ("pi.json", "pi_prime.json")]
            for path, payload in zip(paths, (first, second)):
                with open(path, "wb") as handle:
                    handle.write(payload)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = run(["check", "weighted", *paths])
        assert code in (0, 1, 2)


def _paths(node, path=()):
    """The path to every value inside a JSON value, the value itself first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _valid_documents():
    """One valid document of each kind ``documents.parse_document`` reads."""
    pi, pi_prime = binary_symmetric("3/5"), three_signal_family("4/5")
    chain = markov_chain([["7/10", "3/10"], ["3/10", "7/10"]])
    problem = decision_problem([["1", "0"], ["0", "1"]], ["1/2", "1/2"])
    conditional = to_conditional(pi_prime, make_weight(pi_prime, ["0", "2", "2"]))
    return [
        docs.experiment_to_doc(pi_prime),
        docs.chain_to_doc(chain),
        docs.decision_problem_to_doc(problem),
        docs.certificate_to_doc(check_blackwell(pi, pi_prime)),
        docs.conditional_to_doc(conditional),
        docs.coupling_to_doc(check_weighted_beliefs(pi, pi_prime, uniform_prior(2))),
    ]


_VALID_DOCUMENTS = _valid_documents()
_REMOVED = object()
_HOSTILE = [
    "0", "-1", "1/0", "x", "", [], [[]], [["1"], ["1", "0"]], ["1"], 0, -1, 2, None, True,
    {}, _REMOVED,
]


@st.composite
def _hostile_documents(draw):
    """A valid document of any kind with one field at any depth replaced or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_DOCUMENTS)))
    *parents, key = draw(st.sampled_from(list(_paths(doc))[1:]))
    node = doc
    for step in parents:
        node = node[step]
    value = draw(st.sampled_from(_HOSTILE))
    if value is _REMOVED:
        del node[key]
    else:
        node[key] = value
    return doc


# Small, well-formed documents whose state counts and labels are drawn
# independently of each other, so mismatched inputs are common.
_STATE_LABELS = ["t0", "t1", "t2", "x0"]


@st.composite
def _distribution(draw, size):
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
    return [str(Fraction(w, sum(weights))) for w in weights]


_states = st.lists(st.sampled_from(_STATE_LABELS), min_size=1, max_size=3, unique=True)


@st.composite
def _experiment_docs(draw, states=None):
    states = draw(_states) if states is None else states
    n_signals = draw(st.integers(1, 3))
    return {
        "kind": "experiment",
        "states": states,
        "signals": [f"s{j}" for j in range(n_signals)],
        "matrix": [draw(_distribution(n_signals)) for _ in states],
    }


@st.composite
def _chain_docs(draw):
    states = draw(_states)
    return {
        "kind": "chain",
        "states": states,
        "transition": [draw(_distribution(len(states))) for _ in states],
    }


@st.composite
def _problem_docs(draw):
    n_states = draw(st.integers(1, 3))
    n_actions = draw(st.integers(1, 3))
    payoff = st.sampled_from(["0", "1", "-1", "1/3", "-1/2", "2"])
    return {
        "kind": "decision_problem",
        "actions": [f"a{k}" for k in range(n_actions)],
        "payoffs": [
            draw(st.lists(payoff, min_size=n_states, max_size=n_states))
            for _ in range(n_actions)
        ],
        "prior": draw(_distribution(n_states)),
    }


_vectors = st.lists(
    st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "2", "-1/2"]),
    min_size=1,
    max_size=3,
).map(",".join)


@st.composite
def _experiment_runs(draw, length):
    """Experiment documents that often share the first one's states or repeat
    the previous one, so that ordered pairs are common."""
    runs = [draw(_experiment_docs())]
    while len(runs) < length:
        how = draw(st.sampled_from(["repeat", "same states", "fresh"]))
        if how == "repeat":
            runs.append(runs[-1])
        elif how == "same states":
            runs.append(draw(_experiment_docs(runs[0]["states"])))
        else:
            runs.append(draw(_experiment_docs()))
    return runs


def _priors(n_states):
    """A comma-separated prior, of the given dimension or of any."""
    return st.one_of(
        _distribution(n_states), st.integers(1, 3).flatmap(_distribution)
    ).map(",".join)


def _certificate_doc(pi_doc, pi_prime_doc):
    """The certificate ``check weighted`` prints for the pair, or ``pi_doc``.

    When the pair is invalid or unordered there is no certificate, and the
    experiment document stands in for it, so a command expecting a
    certificate gets the wrong kind of document.
    """
    try:
        certificate = check_weighted(
            docs.experiment_from_doc(pi_doc), docs.experiment_from_doc(pi_prime_doc)
        )
    except InvalidInput:
        return pi_doc
    return pi_doc if certificate is None else docs.certificate_to_doc(certificate)


def _conditional_doc(pi_doc, pi_prime_doc):
    """The document ``conditional to`` prints for the pair's certificate, or ``pi_doc``."""
    try:
        certificate = docs.certificate_from_doc(_certificate_doc(pi_doc, pi_prime_doc))
        conditional = to_conditional(certificate.pi_prime, certificate.weight())
    except InvalidInput:
        return pi_doc
    return docs.conditional_to_doc(conditional)


def _run_on(documents, build_argv) -> int:
    """Write each document to a file and run the command built from their paths.

    Whatever the exit code, stdout must keep the contract: exactly one JSON
    document after an exit of 0 or 1, and nothing after an exit of 2 or 3.
    """
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        paths = []
        for k, doc in enumerate(documents):
            path = os.path.join(folder, f"doc{k}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            paths.append(path)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run(build_argv(*paths))
    printed = stdout.getvalue()
    if code in (0, 1):
        assert printed.endswith("}\n") and isinstance(json.loads(printed), dict)
    else:
        assert printed == ""
    return code


class TestHostileDocumentFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(doc=_hostile_documents())
    def test_every_kind_parses_or_is_refused(self, doc):
        try:
            docs.parse_document(doc)
        except InvalidInput:
            pass
        experiment = docs.experiment_to_doc(three_signal_family("4/5"))
        code = _run_on([doc, experiment], lambda doc, e: ["check", "weighted", doc, e])
        assert code in (0, 1, 2)


class TestSubcommandFuzz:
    @settings(max_examples=60, deadline=None)
    @given(problem=_problem_docs(), experiment=_experiment_docs())
    def test_value(self, problem, experiment):
        assert _run_on([problem, experiment], lambda p, e: ["value", p, e]) in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        problem=_problem_docs(),
        pi=_experiment_docs(),
        pi_prime=_experiment_docs(),
        beta=st.sampled_from(["1", "3/2", "2", "1/2"]),
    )
    def test_bound_verify(self, problem, pi, pi_prime, beta):
        code = _run_on(
            [problem, pi, pi_prime],
            lambda p, a, b: ["bound-verify", p, a, b, "--beta", beta],
        )
        assert code in (0, 1, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        problem=_problem_docs(),
        experiment=_experiment_docs(),
        chain=_chain_docs(),
        horizon=st.integers(0, 3),
    )
    def test_stopping(self, problem, experiment, chain, horizon):
        code = _run_on(
            [problem, experiment, chain],
            lambda p, e, c: ["stopping", p, e, "--chain", c, "--horizon", str(horizon)],
        )
        assert code in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        experiment=_experiment_docs(),
        chain=_chain_docs(),
        eps=st.sampled_from(["0", "1/10", "1/2", "2"]),
        n_max=st.integers(0, 3),
    )
    def test_merge_horizon(self, experiment, chain, eps, n_max):
        code = _run_on(
            [experiment, chain],
            lambda e, c: ["merge-horizon", e, "--chain", c, "--eps", eps, "--nmax", str(n_max)],
        )
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        experiment=_experiment_docs(),
        chain=_chain_docs(),
        tol=st.sampled_from(["0", "1/100"]),
        max_iter=st.integers(0, 2),
    )
    def test_eta(self, experiment, chain, tol, max_iter):
        code = _run_on(
            [experiment, chain],
            lambda e, c: ["eta", e, "--chain", c, "--tol", tol, "--max-iter", str(max_iter)],
        )
        assert code in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(point=_vectors, generators=st.lists(_vectors, min_size=1, max_size=3))
    def test_hull_check(self, point, generators):
        code = _run_on(
            [],
            lambda: ["hull-check", "--point", point, "--generators", ";".join(generators)],
        )
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(run=_experiment_runs(2))
    def test_size_interval(self, run):
        assert _run_on(run, lambda a, b: ["size-interval", a, b]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(run=_experiment_runs(4))
    def test_compose(self, run):
        # The outer certificate starts where the inner one ends when run[2]
        # repeats run[1]; otherwise the two need not chain.
        inner = _certificate_doc(run[0], run[1])
        outer = _certificate_doc(run[2], run[3])
        assert _run_on([inner, outer], lambda i, o: ["compose", i, o]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(run=_experiment_runs(2))
    def test_conditional_to(self, run):
        code = _run_on([_certificate_doc(*run)], lambda c: ["conditional", "to", c])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(run=_experiment_runs(3))
    def test_conditional_from(self, run):
        pi, pi_prime, below = run
        code = _run_on(
            [_conditional_doc(pi, pi_prime), below],
            lambda c, e: ["conditional", "from", c, e],
        )
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(run=_experiment_runs(2), data=st.data())
    def test_beliefs_check(self, run, data):
        prior = data.draw(_priors(len(run[0]["states"])))
        code = _run_on(run, lambda a, b: ["beliefs-check", a, b, "--prior", prior])
        assert code in (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(run=_experiment_runs(2), data=st.data())
    def test_counterexample(self, run, data):
        prior = data.draw(_priors(len(run[0]["states"])))
        code = _run_on(run, lambda a, b: ["counterexample", a, b, "--prior", prior])
        assert code in (0, 1, 2)


class TestSizeIntervalDuals:
    """The report's duals re-check against the programs rebuilt from the pair."""

    def test_bounded_interval(self, files, capsys):
        code, doc = invoke(capsys, "size-interval", files["pi_low"], files["family"])
        assert code == 0
        pi, pi_prime = binary_symmetric("3/5"), three_signal_family("4/5")
        lowest, _ = size_interval_programs(pi, pi_prime, 0)
        dual_min = [F(v) for v in doc["dual_min"]]
        assert len(dual_min) == len(lowest.rows)
        assert numerics.dual_verifies(lowest, dual_min, F(doc["beta_min"]))
        assert len(doc["dual_max"]) == pi_prime.n_signals
        optima = []
        for column, entries in enumerate(doc["dual_max"]):
            _, highest = size_interval_programs(pi, pi_prime, column)
            dual = [F(v) for v in entries]
            optimum = reference_solve(highest).objective
            assert len(dual) == len(highest.rows)
            assert numerics.dual_verifies(highest, dual, optimum)
            optima.append(optimum)
        assert max(optima) == F(doc["beta_max"])

    def test_unbounded_interval_has_no_upper_dual(self, files, capsys):
        null_signal = validate_experiment([["1/2", "0", "1/2"], ["1/4", "0", "3/4"]])
        path = files["dir"] / "null_signal.json"
        path.write_text(docs.dump_document(docs.experiment_to_doc(null_signal)))
        code, doc = invoke(capsys, "size-interval", str(path), str(path))
        assert code == 0 and doc["beta_max"] == "unbounded"
        assert doc["dual_max"] is None
        lowest, _ = size_interval_programs(null_signal, null_signal, 0)
        assert numerics.dual_verifies(lowest, [F(v) for v in doc["dual_min"]], F(doc["beta_min"]))
