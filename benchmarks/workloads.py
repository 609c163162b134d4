"""The benchmark's three workloads.

Each workload draws its inputs from a fixed universe built from the
acceptance seed (20250814) with ``expord.generators``, so that every input
the benchmark can visit has a committed expected answer in
``expected_answers.json``.  The ``--seed`` argument picks the visiting order
and, where the answer does not depend on it, part of the input (the priors
of the belief check, the decision problems of the value sweep, the CLI
fixture pairs).

An item is one unit of work.  ``Item.run`` makes the library calls and
returns their raw results; ``Item.answer`` reduces them to the canonical
string of unique answers; ``Item.evidence`` lists the non-unique evidence
(certificates, couplings, falsifiers) that the harness
re-verifies by substitution after the timed phase.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import oracle

ACCEPTANCE_SEED = 20250814
CORPUS_SIZE = 500
# corpus-order runs whole passes over this fixed prefix of the corpus, so
# every pass does the same work whatever the seed (about 3 s per pass).
CORPUS_PASS = 60
BETAS = (1, 2, 4, 8)

# value-bounds: corpus prefix whose ordered pairs are swept, the menu of
# decision problems per pair, and how many the seed draws per action count.
VALUE_PAIRS = 120
VALUE_MENU = 48
VALUE_PER_CLASS = 8

# Pairs sampled per run for the vertex-enumeration oracle (~0.1 s each).
ORACLE_SAMPLE = 3

LAYER_MODULES = ("numerics", "order", "beliefs", "value", "dynamics", "documents", "cli")


class Library:
    """The expord modules, read by attribute at call time.

    Calls go through the module objects (``lib.order.check_weighted``) so
    that the tracer's wrappers, installed as module attributes, are seen.
    ``import expord.value`` cannot be used for this: the package re-exports
    a function called ``value`` that shadows the submodule.
    """

    def __init__(self) -> None:
        for name in LAYER_MODULES + ("experiments", "generators"):
            setattr(self, name, importlib.import_module(f"expord.{name}"))

    def layers(self) -> list:
        return [getattr(self, name) for name in LAYER_MODULES]


def canonical(*parts: Any) -> str:
    """Join answer parts; long answers are replaced by a SHA-256 prefix."""
    text = "|".join(str(part) for part in parts)
    if len(text) <= 160:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _no_evidence(_result: Any) -> list:
    return []


@dataclass
class Item:
    key: str
    run: Callable[[], Any]
    answer: Callable[[Any], str]
    evidence: Callable[[Any], list] = _no_evidence
    # In-process variant used by the traced pass (the CLI runs in-process
    # there so that its layers can be traced).
    traced: Callable[[], Any] | None = None


@dataclass
class Plan:
    items: list[Item]
    expected: dict[str, str]
    layers: tuple[str, ...]
    # Cross-checks a seeded sample against independent oracles; returns
    # (item key, message) per failure.  Receives the visited items' answers.
    oracle: Callable[[dict[str, str], random.Random], list[tuple[str, str]]] = (
        lambda seen, rng: []
    )
    cleanup: Callable[[], None] = lambda: None
    extra_trace_metrics: Callable[[], dict[str, float]] = dict
    notes: dict[str, Any] = field(default_factory=dict)


def _shuffled(items: list[Item], seed: int) -> list[Item]:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def _corpus(lib: Library, count: int = CORPUS_SIZE):
    return lib.generators.corpus_pairs(ACCEPTANCE_SEED, count)


# -- corpus-order -----------------------------------------------------------


def _corpus_item(lib: Library, index: int, pi, pi_prime, prior) -> Item:
    def run():
        order = lib.order
        weighted = order.check_weighted(pi, pi_prime)
        blackwell = order.check_blackwell(pi, pi_prime)
        sized = order.min_size(pi, pi_prime)
        coupling = lib.beliefs.check_weighted_beliefs(pi, pi_prime, prior)
        interval = falsifiers = None
        if weighted is not None:
            interval = order.size_interval(pi, pi_prime)
        else:
            falsifiers = tuple(
                lib.value.falsify_bound(pi, pi_prime, beta) for beta in BETAS
            )
        return weighted, blackwell, sized, coupling, interval, falsifiers

    def answer(result) -> str:
        weighted, blackwell, sized, coupling, interval, falsifiers = result
        low = high = "-"
        if interval is not None:
            low = interval.beta_min
            high = "unbounded" if interval.beta_max is None else interval.beta_max
        return canonical(
            int(weighted is not None),
            int(blackwell is not None),
            "-" if sized is None else sized[0],
            int(coupling is not None),
            low,
            high,
            "-" if falsifiers is None else "".join(str(int(f is not None)) for f in falsifiers),
        )

    def evidence(result) -> list:
        weighted, blackwell, sized, coupling, interval, falsifiers = result
        out = []
        if weighted is not None:
            out.append(("certificate", weighted, pi, pi_prime, None))
        if blackwell is not None:
            out.append(("certificate", blackwell, pi, pi_prime, Fraction(1)))
        if sized is not None:
            out.append(("certificate", sized[1], pi, pi_prime, sized[0]))
        if coupling is not None:
            out.append(("coupling", coupling, pi, pi_prime, prior))
        if interval is not None:
            out.append(("certificate", interval.witness_min, pi, pi_prime, interval.beta_min))
            if interval.witness_max is not None:
                out.append(
                    ("certificate", interval.witness_max, pi, pi_prime, interval.beta_max)
                )
        for beta, problem in zip(BETAS, falsifiers or ()):
            if problem is not None:
                out.append(("falsifier", problem, pi, pi_prime, Fraction(beta)))
        return out

    return Item(key=str(index), run=run, answer=answer, evidence=evidence)


def verify_evidence(lib: Library, evidence: tuple) -> bool:
    """Re-check one piece of evidence by substitution."""
    kind = evidence[0]
    if kind == "certificate":
        _, certificate, pi, pi_prime, size = evidence
        if certificate.pi != pi or certificate.pi_prime != pi_prime:
            return False
        if size is not None and certificate.beta != size:
            return False
        return lib.order.verify_certificate(certificate).ok
    if kind == "coupling":
        _, coupling, pi, pi_prime, prior = evidence
        return lib.beliefs.verify_coupling(coupling, pi, pi_prime, prior).ok
    if kind == "falsifier":
        _, problem, pi, pi_prime, beta = evidence
        return lib.value.verify_bound(problem, pi, pi_prime, beta).holds is False
    raise ValueError(f"unknown evidence kind {kind!r}")


def _interval_oracle(
    pairs: dict, answers: dict[str, str], rng: random.Random
) -> list[tuple[str, str]]:
    """Closed form on every visited symmetric pair, vertex enumeration on a sample."""
    failures = []
    for key, answer in answers.items():
        closed = oracle.symmetric_family_interval(*pairs[key])
        if closed is False:
            continue
        parts = answer.split("|")
        found = None if parts[0] == "0" else (Fraction(parts[4]), Fraction(parts[5]))
        if found != closed:
            failures.append((key, f"closed form {closed} != {found}"))
    small = sorted(key for key in answers if oracle.enumerable(*pairs[key]))
    for key in rng.sample(small, min(ORACLE_SAMPLE, len(small))):
        parts = answers[key].split("|")
        reference = oracle.vertex_size_interval(*pairs[key])
        if reference is None:
            ok = parts[0] == "0" and parts[2] == "-"
        else:
            low, high = reference
            ok = (
                parts[0] == "1"
                and Fraction(parts[2]) == low
                and Fraction(parts[4]) == low
                and parts[5] == ("unbounded" if high is None else str(high))
            )
        if not ok:
            failures.append((key, f"vertex enumeration gives {reference}, answer {answers[key]}"))
    return failures


def corpus_order(lib: Library, seed: int, answers: dict, root: str) -> Plan:
    rng = random.Random(seed)
    pairs = {}
    items = []
    for index, (pi, _prior, pi_prime) in enumerate(_corpus(lib, CORPUS_PASS)):
        prior = lib.generators.random_prior(rng, pi.n_states)
        pairs[str(index)] = (pi, pi_prime)
        items.append(_corpus_item(lib, index, pi, pi_prime, prior))
    return Plan(
        items=_shuffled(items, seed),
        expected=answers.get("corpus-order", {}),
        oracle=lambda seen, oracle_rng: _interval_oracle(pairs, seen, oracle_rng),
        layers=("numerics", "order", "beliefs", "value"),
    )


# -- value-bounds -----------------------------------------------------------


def _value_problem(lib: Library, index: int, k: int, n_states: int):
    return lib.value.random_decision_problem(
        ACCEPTANCE_SEED + 200 * index + k, 2 + k % 3, n_states
    )


def _value_item(lib: Library, index: int, k: int, problem, pi, pi_prime, beta) -> Item:
    def run():
        return lib.value.verify_bound(problem, pi, pi_prime, beta)

    def answer(report) -> str:
        return canonical(report.slack, int(report.holds))

    return Item(key=f"{index}:{k}", run=run, answer=answer)


def value_universe(lib: Library) -> list[tuple[int, Any, Any, Fraction]]:
    """Ordered pairs of the corpus prefix with their minimal sizes."""
    ordered = []
    for index, (pi, _prior, pi_prime) in enumerate(_corpus(lib, VALUE_PAIRS)):
        sized = lib.order.min_size(pi, pi_prime)
        if sized is not None:
            ordered.append((index, pi, pi_prime, sized[0]))
    return ordered


def value_bounds(lib: Library, seed: int, answers: dict, root: str) -> Plan:
    rng = random.Random(seed)
    ordered = value_universe(lib)
    items = []
    problems = {}
    for index, pi, pi_prime, beta in ordered:
        menu = [[k for k in range(VALUE_MENU) if k % 3 == c] for c in range(3)]
        for k in sorted(k for ks in menu for k in rng.sample(ks, VALUE_PER_CLASS)):
            problem = _value_problem(lib, index, k, pi.n_states)
            problems[f"{index}:{k}"] = (problem, pi, pi_prime, beta)
            items.append(_value_item(lib, index, k, problem, pi, pi_prime, beta))
    pairs = {str(index): (pi, pi_prime) for index, pi, pi_prime, _ in ordered}
    betas = {str(index): beta for index, _, _, beta in ordered}

    def check(seen: dict[str, str], oracle_rng: random.Random) -> list[tuple[str, str]]:
        failures = []
        for key in oracle_rng.sample(sorted(seen), min(50, len(seen))):
            problem, pi, pi_prime, beta = problems[key]
            slack = oracle.independent_slack(problem, pi, pi_prime, beta)
            if str(slack) != seen[key].split("|")[0]:
                failures.append((key, f"independent slack {slack}"))
        small = sorted(key for key in pairs if oracle.enumerable(*pairs[key]))
        for key in oracle_rng.sample(small, ORACLE_SAMPLE):
            reference = oracle.vertex_size_interval(*pairs[key])
            if reference is None or reference[0] != betas[key]:
                failures.append((f"pair {key}", f"vertex enumeration minimal size {reference}"))
        for key, (pi, pi_prime) in pairs.items():
            closed = oracle.symmetric_family_interval(pi, pi_prime)
            if closed not in (False, None) and closed[0] != betas[key]:
                failures.append((f"pair {key}", f"closed-form minimal size {closed[0]}"))
        return failures

    return Plan(
        items=_shuffled(items, seed),
        expected=answers.get("value-bounds", {}),
        oracle=check,
        layers=("value",),
        notes={"ordered_pairs": len(ordered)},
    )


# -- cli-session ------------------------------------------------------------


def _write(directory: str, name: str, doc: Any) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(doc, str):
            handle.write(doc)
        else:
            json.dump(doc, handle)
    return path


def _fixture_pairs(corpus_answers: dict[str, str], seed: int) -> tuple[int, int]:
    """An ordered and an unordered corpus pair, drawn by the seed."""
    rng = random.Random(seed)
    ordered = sorted(int(k) for k, v in corpus_answers.items() if v.startswith("1|"))
    unordered = sorted(int(k) for k, v in corpus_answers.items() if v.startswith("0|"))
    return rng.choice(ordered[:60]), rng.choice(unordered[:60])


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_item(lib, key, argv, expected_code, root, env, extract=None) -> Item:
    def run():
        done = subprocess.run(
            [sys.executable, "-m", "expord.cli", *argv],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return done.returncode, done.stdout

    def traced():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lib.cli.run(argv)
        return code, out.getvalue()

    def answer(result) -> str:
        code, stdout = result
        if extract is None or code != expected_code:
            return canonical(code)
        return canonical(code, *extract(json.loads(stdout)))

    return Item(key=key, run=run, answer=answer, traced=traced)


def cli_session(lib: Library, seed: int, answers: dict, root: str) -> Plan:
    gen, docs = lib.generators, lib.documents
    corpus_answers = answers.get("corpus-order", {})
    ordered_at, unordered_at = _fixture_pairs(corpus_answers, seed)
    corpus = _corpus(lib, max(ordered_at, unordered_at) + 1)
    pi, prior, pi_prime = corpus[ordered_at]
    upi, uprior, upi_prime = corpus[unordered_at]
    work = os.path.join(root, ".bench_out")
    os.makedirs(work, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="cli-", dir=work)
    rng = random.Random(seed)
    inner, outer = gen.certificate_chains(ACCEPTANCE_SEED + 2, 8)[rng.randrange(8)]
    conditional = lib.order.to_conditional(outer.pi_prime, outer.weight())
    problem = lib.value.random_decision_problem(rng.randrange(2**30), 3, pi.n_states)
    dynamic = gen.random_experiment(rng, 2, 3, full_support=True)
    chain = gen.random_chain(rng, 2)
    stop_problem = lib.value.random_decision_problem(rng.randrange(2**30), 3, 2)
    files = {
        "pi": _write(directory, "pi.json", docs.experiment_to_doc(pi)),
        "pi_prime": _write(directory, "pi_prime.json", docs.experiment_to_doc(pi_prime)),
        "upi": _write(directory, "upi.json", docs.experiment_to_doc(upi)),
        "upi_prime": _write(directory, "upi_prime.json", docs.experiment_to_doc(upi_prime)),
        "inner": _write(directory, "inner.json", docs.certificate_to_doc(inner)),
        "outer": _write(directory, "outer.json", docs.certificate_to_doc(outer)),
        "cond": _write(directory, "conditional.json", docs.conditional_to_doc(conditional)),
        "cond_pi": _write(directory, "conditional_pi.json", docs.experiment_to_doc(outer.pi)),
        "problem": _write(directory, "problem.json", docs.decision_problem_to_doc(problem)),
        "dynamic": _write(directory, "dynamic.json", docs.experiment_to_doc(dynamic)),
        "chain": _write(directory, "chain.json", docs.chain_to_doc(chain)),
        "stop_problem": _write(
            directory, "stop_problem.json", docs.decision_problem_to_doc(stop_problem)
        ),
        "broken": _write(directory, "broken.json", "{\"kind\": "),
    }
    prior_text = ",".join(map(str, prior.weights))
    uprior_text = ",".join(map(str, uprior.weights))
    _, blackwell, min_size, _, low, high, _ = corpus_answers[str(ordered_at)].split("|")
    f = files
    commands = [
        ("check-weighted-ordered", ["check", "weighted", f["pi"], f["pi_prime"]], 0, None),
        ("check-weighted-unordered", ["check", "weighted", f["upi"], f["upi_prime"]], 1, None),
        (
            "check-blackwell",
            ["check", "blackwell", f["pi"], f["pi_prime"]],
            0 if blackwell == "1" else 1,
            None,
        ),
        (
            "size-interval",
            ["size-interval", f["pi"], f["pi_prime"]],
            0,
            lambda doc: (doc["beta_min"], doc["beta_max"]),
        ),
        ("compose", ["compose", f["inner"], f["outer"]], 0, None),
        ("conditional-to", ["conditional", "to", f["outer"]], 0, None),
        ("conditional-from", ["conditional", "from", f["cond"], f["cond_pi"]], 0, None),
        ("posteriors", ["posteriors", f["pi"], "--prior", prior_text], 0, None),
        (
            "hull-check-inside",
            ["hull-check", "--point", "1/3,2/3", "--generators", "1/4,3/4;3/4,1/4"],
            0,
            None,
        ),
        (
            "hull-check-outside",
            ["hull-check", "--point", "1/10,9/10", "--generators", "1/4,3/4;3/4,1/4"],
            1,
            None,
        ),
        (
            "beliefs-check-ordered",
            ["beliefs-check", f["pi"], f["pi_prime"], "--prior", prior_text],
            0,
            None,
        ),
        (
            "beliefs-check-unordered",
            ["beliefs-check", f["upi"], f["upi_prime"], "--prior", uprior_text],
            1,
            None,
        ),
        ("value", ["value", f["problem"], f["pi_prime"]], 0, None),
        (
            "bound-verify",
            ["bound-verify", f["problem"], f["pi"], f["pi_prime"], "--beta", min_size],
            0,
            None,
        ),
        ("bound-falsify", ["bound-falsify", f["upi"], f["upi_prime"], "--beta", "2"], 1, None),
        ("dilute", ["dilute", f["pi"], "--beta", "2"], 0, None),
        ("eta", ["eta", f["dynamic"], "--chain", f["chain"], "--max-iter", "3"], 0, None),
        (
            "merge-horizon",
            ["merge-horizon", f["dynamic"], "--chain", f["chain"], "--eps", "1/10", "--nmax", "5"],
            0,
            None,
        ),
        (
            "stopping",
            ["stopping", f["stop_problem"], f["dynamic"], "--chain", f["chain"], "--horizon", "3"],
            0,
            None,
        ),
        (
            "counterexample",
            ["counterexample", f["upi"], f["upi_prime"], "--prior", uprior_text],
            1,
            None,
        ),
        ("selftest", ["selftest", "--seed", "0"], 0, None),
        ("invalid-input", ["check", "weighted", f["broken"], f["pi_prime"]], 2, None),
    ]
    env = child_env(root)
    items, expected = [], {}
    for key, argv, code, extract in commands:
        items.append(_cli_item(lib, key, argv, code, root, env, extract))
        expected[key] = canonical(code)
    expected["size-interval"] = canonical(0, low, high)

    def extra() -> dict[str, float]:
        return interpreter_and_import(root, env)

    return Plan(
        items=_shuffled(items, seed),
        expected=expected,
        layers=LAYER_MODULES,
        cleanup=lambda: shutil.rmtree(directory, ignore_errors=True),
        extra_trace_metrics=extra,
        notes={"fixture_pairs": [ordered_at, unordered_at]},
    )


IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import expord.cli; "
    "print(time.perf_counter() - start)"
)


def interpreter_and_import(root: str, env: dict[str, str], repeats: int = 5) -> dict[str, float]:
    """Median bare interpreter start and median ``import expord.cli`` time."""
    starts, imports = [], []
    for _ in range(repeats):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        starts.append(time.perf_counter() - begin)
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root,
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        imports.append(float(probe.stdout.strip()))
    return {
        "cli.interpreter_s": statistics.median(starts),
        "cli.import_s": statistics.median(imports),
    }


WORKLOADS = {
    "corpus-order": corpus_order,
    "value-bounds": value_bounds,
    "cli-session": cli_session,
}
