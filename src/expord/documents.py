"""JSON document schemas with exact rational payloads.

Every number is serialized as a rational string like ``"3/4"`` so files
round-trip losslessly.  :func:`text` is the one writer of those strings and
:func:`load_document` the one reader of files; it reads a file as the named
kind alone, and :func:`~expord.numerics.as_rational` decides what counts as a
rational.  Certificates embed both experiments with content digests, which
parsers recompute, so a certificate never verifies against the wrong pair.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .beliefs import CouplingCertificate, PosteriorAtom
from .dynamics import MarkovChain
from .experiments import DecisionProblem, Experiment, Prior
from .numerics import InvalidInput, as_rational
from .order import ConditionalExperiment, GarblingCertificate, verify_certificate


def _fail(path: str, message: str) -> "InvalidInput":
    return InvalidInput(f"{path}: {message}")


def _need(doc: Any, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise _fail(path, "expected an object")
    if key not in doc:
        raise _fail(f"{path}.{key}", "missing field")
    return doc[key]


def _require_kind(doc: Any, kind: str, path: str) -> None:
    found = _need(doc, "kind", path)
    if found != kind:
        raise _fail(f"{path}.kind", f"expected {kind!r}, got {found!r}")


def text(value: Any) -> Any:
    """``value`` with every Fraction in it, at any depth, written as its string."""
    if isinstance(value, dict):
        return {key: text(entry) for key, entry in value.items()}
    if isinstance(value, (tuple, list)):
        return [text(entry) for entry in value]
    return str(value) if isinstance(value, Fraction) else value


def _rational(value: Any, path: str) -> Fraction:
    try:
        return as_rational(value)
    except InvalidInput as error:
        raise _fail(path, str(error)) from None


def _rational_list(value: Any, path: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise _fail(path, "expected a list")
    return tuple(_rational(entry, f"{path}[{k}]") for k, entry in enumerate(value))


def _rational_matrix(value: Any, path: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(value, list):
        raise _fail(path, "expected a list of rows")
    return tuple(_rational_list(row, f"{path}[{k}]") for k, row in enumerate(value))


def _label_list(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise _fail(path, "expected a list of strings")
    return tuple(value)


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def experiment_to_doc(experiment: Experiment) -> dict:
    return text({
        "kind": "experiment",
        "states": experiment.states,
        "signals": experiment.signals,
        "matrix": experiment.matrix,
    })


def experiment_from_doc(doc: Any, path: str = "experiment") -> Experiment:
    _require_kind(doc, "experiment", path)
    return Experiment(
        states=_label_list(_need(doc, "states", path), f"{path}.states"),
        signals=_label_list(_need(doc, "signals", path), f"{path}.signals"),
        matrix=_rational_matrix(_need(doc, "matrix", path), f"{path}.matrix"),
    )


def _embedded_experiment(doc: Any, key: str, path: str) -> Experiment:
    """The experiment at ``doc[key]``, checked against ``doc[key + "_digest"]``."""
    experiment = experiment_from_doc(_need(doc, key, path), f"{path}.{key}")
    stated = _need(doc, f"{key}_digest", path)
    if stated != document_digest(experiment_to_doc(experiment)):
        raise _fail(f"{path}.{key}_digest", "digest does not match the embedded experiment")
    return experiment


def chain_to_doc(chain: MarkovChain) -> dict:
    return text({
        "kind": "chain",
        "states": chain.states,
        "transition": chain.rows,
    })


def chain_from_doc(doc: Any, path: str = "chain") -> MarkovChain:
    _require_kind(doc, "chain", path)
    return MarkovChain(
        states=_label_list(_need(doc, "states", path), f"{path}.states"),
        rows=_rational_matrix(_need(doc, "transition", path), f"{path}.transition"),
    )


def decision_problem_to_doc(problem: DecisionProblem) -> dict:
    return text({
        "kind": "decision_problem",
        "actions": problem.actions,
        "payoffs": problem.payoffs,
        "prior": problem.prior.weights,
    })


def decision_problem_from_doc(doc: Any, path: str = "decision_problem") -> DecisionProblem:
    _require_kind(doc, "decision_problem", path)
    return DecisionProblem(
        actions=_label_list(_need(doc, "actions", path), f"{path}.actions"),
        payoffs=_rational_matrix(_need(doc, "payoffs", path), f"{path}.payoffs"),
        prior=Prior(weights=_rational_list(_need(doc, "prior", path), f"{path}.prior")),
    )


def certificate_to_doc(certificate: GarblingCertificate) -> dict:
    pi_doc = experiment_to_doc(certificate.pi)
    pi_prime_doc = experiment_to_doc(certificate.pi_prime)
    return text({
        "kind": "certificate",
        "pi": pi_doc,
        "pi_prime": pi_prime_doc,
        "pi_digest": document_digest(pi_doc),
        "pi_prime_digest": document_digest(pi_prime_doc),
        "psi": certificate.psi,
        "gamma": certificate.gamma,
        "phi": certificate.phi,
        "beta": certificate.beta,
    })


def certificate_from_doc(doc: Any, path: str = "certificate") -> GarblingCertificate:
    _require_kind(doc, "certificate", path)
    certificate = GarblingCertificate(
        pi=_embedded_experiment(doc, "pi", path),
        pi_prime=_embedded_experiment(doc, "pi_prime", path),
        psi=_rational_matrix(_need(doc, "psi", path), f"{path}.psi"),
    )
    stated_beta = _rational(_need(doc, "beta", path), f"{path}.beta")
    if stated_beta != certificate.beta:
        raise _fail(f"{path}.beta", "stated size differs from the psi column sums")
    stated_gamma = _rational_list(_need(doc, "gamma", path), f"{path}.gamma")
    if stated_gamma != certificate.gamma:
        raise _fail(f"{path}.gamma", "stated weight differs from the psi column sums")
    verdict = verify_certificate(certificate)
    if not verdict:
        raise _fail(f"{path}.psi", f"certificate does not verify: {verdict.violations[0]}")
    return certificate


def conditional_to_doc(conditional: ConditionalExperiment) -> dict:
    base_doc = experiment_to_doc(conditional.base)
    return text({
        "kind": "conditional_experiment",
        "base": base_doc,
        "base_digest": document_digest(base_doc),
        "event": conditional.event,
        "alpha": conditional.alpha,
    })


def conditional_from_doc(doc: Any, path: str = "conditional_experiment") -> ConditionalExperiment:
    _require_kind(doc, "conditional_experiment", path)
    return ConditionalExperiment(
        base=_embedded_experiment(doc, "base", path),
        event=_rational_matrix(_need(doc, "event", path), f"{path}.event"),
        alpha=_rational(_need(doc, "alpha", path), f"{path}.alpha"),
    )


def atom_to_doc(atom: PosteriorAtom) -> dict:
    return text({
        "signals": atom.signals,
        "belief": atom.belief,
        "probability": atom.probability,
    })


def atom_from_doc(doc: Any, path: str) -> PosteriorAtom:
    return PosteriorAtom(
        signals=_label_list(_need(doc, "signals", path), f"{path}.signals"),
        belief=_rational_list(_need(doc, "belief", path), f"{path}.belief"),
        probability=_rational(_need(doc, "probability", path), f"{path}.probability"),
    )


def coupling_to_doc(coupling: CouplingCertificate) -> dict:
    return text({
        "kind": "coupling",
        "prior": coupling.prior.weights,
        "pi_atoms": [atom_to_doc(atom) for atom in coupling.pi_atoms],
        "pi_prime_atoms": [atom_to_doc(atom) for atom in coupling.pi_prime_atoms],
        "matrix": coupling.matrix,
        "beta": coupling.beta,
    })


def coupling_from_doc(doc: Any, path: str = "coupling") -> CouplingCertificate:
    _require_kind(doc, "coupling", path)
    atoms = _need(doc, "pi_atoms", path)
    prime_atoms = _need(doc, "pi_prime_atoms", path)
    if not isinstance(atoms, list) or not isinstance(prime_atoms, list):
        raise _fail(path, "atom lists must be lists")
    coupling = CouplingCertificate(
        prior=Prior(weights=_rational_list(_need(doc, "prior", path), f"{path}.prior")),
        pi_atoms=tuple(
            atom_from_doc(a, f"{path}.pi_atoms[{k}]") for k, a in enumerate(atoms)
        ),
        pi_prime_atoms=tuple(
            atom_from_doc(a, f"{path}.pi_prime_atoms[{k}]")
            for k, a in enumerate(prime_atoms)
        ),
        matrix=_rational_matrix(_need(doc, "matrix", path), f"{path}.matrix"),
    )
    stated_beta = _rational(_need(doc, "beta", path), f"{path}.beta")
    if stated_beta != coupling.beta:
        raise _fail(f"{path}.beta", "stated size differs from the coupling ratios")
    return coupling


_PARSERS = {
    "experiment": experiment_from_doc,
    "chain": chain_from_doc,
    "decision_problem": decision_problem_from_doc,
    "certificate": certificate_from_doc,
    "conditional_experiment": conditional_from_doc,
    "coupling": coupling_from_doc,
}


def parse_document(doc: Any, path: str = "document"):
    """Dispatch a raw JSON object to its typed parser by ``kind``."""
    kind = _need(doc, "kind", path)
    parser = _PARSERS.get(kind) if isinstance(kind, str) else None
    if parser is None:
        raise _fail(f"{path}.kind", f"unknown document kind {kind!r}")
    return parser(doc, path)


def load_document(filename: str, kind: str):
    """The ``kind`` document in ``filename``; a file of any other kind is refused."""
    try:
        with open(filename, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except UnicodeDecodeError as error:
        raise InvalidInput(f"{filename}: not UTF-8 text ({error})") from None
    except ValueError as error:  # malformed JSON, or a number with too many digits
        raise InvalidInput(f"{filename}: invalid JSON ({error})") from None
    except RecursionError:
        raise InvalidInput(f"{filename}: JSON nested too deeply") from None
    return _PARSERS[kind](raw, filename)


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2)
