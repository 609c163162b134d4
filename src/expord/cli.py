"""Command-line surface binding the library into a certified comparison tool.

Commands read UTF-8 JSON documents, each through
:func:`expord.documents.load_document` with the kind it needs, so a file of
another kind is refused by its ``kind`` field.  Each handler returns its exit
code and one document, and :func:`run` prints it, the only write to stdout;
:func:`expord.documents.text` writes every number in it, so no report can
hold a raw ``Fraction``.  Exit codes follow one contract: 0 means the queried
relation holds or the computation succeeded, 1 means it was certified false,
2 means the input was invalid, and 3 means one of the library's own
certificate checks failed (a defect in expord, never a verdict).
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import Sequence

from . import documents as docs
from . import generators
from .beliefs import (
    HullMembershipCertificate,
    check_weighted_beliefs,
    hull_decide,
    hull_membership,
    posteriors,
    verify_coupling,
)
from .dynamics import (
    StoppingProblem,
    counterexample,
    eta_limit,
    merging_horizon,
    stopping_value,
)
from .experiments import Prior, dilute, regularize, unit_weight
from .numerics import (
    INFEASIBLE,
    OPTIMAL,
    InternalError,
    InvalidInput,
    dual_verifies,
    farkas_verifies,
    parse_rational,
    ray_verifies,
    solution_feasible,
    solve,
)
from .order import (
    OrderError,
    check_blackwell,
    check_weighted,
    compose,
    from_conditional,
    min_size,
    size_interval,
    to_conditional,
    verify_certificate,
)
from .value import random_decision_problem, falsify_bound, value, verify_bound


def _report(command: str, **fields) -> dict:
    return {"kind": "report", "command": command, **docs.text(fields)}


def _parse_vector(text: str, name: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise InvalidInput(f"{name}: expected comma-separated rationals, got {text!r}")
    return tuple(parse_rational(p) for p in parts)


def _parse_prior(text: str) -> Prior:
    return Prior(weights=_parse_vector(text, "prior"))


def _cmd_check(args) -> tuple[int, dict]:
    pi = docs.load_document(args.pi, "experiment")
    pi_prime = docs.load_document(args.pi_prime, "experiment")
    if args.relation == "blackwell":
        certificate = check_blackwell(pi, pi_prime)
    else:
        cap = parse_rational(args.beta) if args.beta is not None else None
        certificate = check_weighted(pi, pi_prime, max_size=cap)
    if certificate is None:
        note = f"no {args.relation} garbling certificate exists"
        if args.relation == "weighted" and cap is not None:
            note += f" of size at most {docs.text(cap)}"
        return 1, _report("check", relation=args.relation, holds=False, note=note)
    return 0, docs.certificate_to_doc(certificate)


def _cmd_size_interval(args) -> tuple[int, dict]:
    pi = docs.load_document(args.pi, "experiment")
    pi_prime = docs.load_document(args.pi_prime, "experiment")
    interval = size_interval(pi, pi_prime)
    if interval is None:
        return 1, _report(
            "size-interval",
            holds=False,
            note="the pair is not weighted-garbling ordered",
        )
    return 0, _report(
        "size-interval",
        holds=True,
        beta_min=interval.beta_min,
        beta_max="unbounded" if interval.beta_max is None else interval.beta_max,
        witness_min=docs.certificate_to_doc(interval.witness_min),
        witness_max=(
            None
            if interval.witness_max is None
            else docs.certificate_to_doc(interval.witness_max)
        ),
        dual_min=interval.dual_min,
        dual_max=interval.dual_max,
    )


def _cmd_compose(args) -> tuple[int, dict]:
    inner = docs.load_document(args.inner, "certificate")
    outer = docs.load_document(args.outer, "certificate")
    return 0, docs.certificate_to_doc(compose(inner, outer))


def _cmd_conditional(args) -> tuple[int, dict]:
    if args.direction == "to":
        certificate = docs.load_document(args.certificate, "certificate")
        conditional = to_conditional(certificate.pi_prime, certificate.weight())
        return 0, docs.conditional_to_doc(conditional)
    conditional = docs.load_document(args.conditional, "conditional_experiment")
    pi = docs.load_document(args.pi, "experiment")
    try:
        certificate = from_conditional(conditional, pi)
    except OrderError as error:
        return 1, _report("conditional", direction="from", holds=False, note=str(error))
    return 0, docs.certificate_to_doc(certificate)


def _cmd_posteriors(args) -> tuple[int, dict]:
    experiment = docs.load_document(args.experiment, "experiment")
    mu0 = _parse_prior(args.prior)
    distribution = posteriors(experiment, mu0)
    return 0, _report(
        "posteriors",
        prior=mu0.weights,
        states=experiment.states,
        atoms=[docs.atom_to_doc(atom) for atom in distribution.atoms],
    )


def _cmd_hull_check(args) -> tuple[int, dict]:
    point = _parse_vector(args.point, "point")
    generators_arg = [
        _parse_vector(part, "generators") for part in args.generators.split(";")
    ]
    decision = hull_decide(point, generators_arg)
    if not isinstance(decision, HullMembershipCertificate):
        return 1, _report(
            "hull-check",
            holds=False,
            separating_functional=decision,
            note="the point lies outside the hull; the functional is "
            "nonpositive on every generator and positive at the point",
        )
    return 0, _report(
        "hull-check",
        holds=True,
        coefficients=decision.coefficients,
    )


def _cmd_beliefs_check(args) -> tuple[int, dict]:
    pi = docs.load_document(args.pi, "experiment")
    pi_prime = docs.load_document(args.pi_prime, "experiment")
    mu0 = _parse_prior(args.prior)
    coupling = check_weighted_beliefs(pi, pi_prime, mu0)
    if coupling is None:
        return 1, _report(
            "beliefs-check",
            holds=False,
            note="some posterior of the first experiment lies outside the "
            "posterior hull of the second",
        )
    if not verify_coupling(coupling, pi, pi_prime, mu0):
        raise InternalError("emitted couplings must re-verify")
    return 0, docs.coupling_to_doc(coupling)


def _cmd_value(args) -> tuple[int, dict]:
    problem = docs.load_document(args.problem, "decision_problem")
    experiment = docs.load_document(args.experiment, "experiment")
    total, table = value(problem, experiment)
    return 0, _report(
        "value",
        value=total,
        policy=dict(zip(table.signals, table.actions)),
    )


def _cmd_bound_verify(args) -> tuple[int, dict]:
    problem = docs.load_document(args.problem, "decision_problem")
    pi = docs.load_document(args.pi, "experiment")
    pi_prime = docs.load_document(args.pi_prime, "experiment")
    report = verify_bound(problem, pi, pi_prime, parse_rational(args.beta))
    return (0 if report.holds else 1), _report(
        "bound-verify",
        holds=report.holds,
        beta=report.beta,
        value_prime=report.value_prime,
        value_pi=report.value_pi,
        value_noinfo=report.value_noinfo,
        slack=report.slack,
    )


def _cmd_bound_falsify(args) -> tuple[int, dict]:
    pi = docs.load_document(args.pi, "experiment")
    pi_prime = docs.load_document(args.pi_prime, "experiment")
    problem = falsify_bound(pi, pi_prime, parse_rational(args.beta))
    if problem is None:
        return 0, _report(
            "bound-falsify",
            holds=True,
            note="the size bound holds for every decision problem at this beta",
        )
    return 1, docs.decision_problem_to_doc(problem)


def _cmd_dilute(args) -> tuple[int, dict]:
    experiment = docs.load_document(args.experiment, "experiment")
    return 0, docs.experiment_to_doc(dilute(experiment, parse_rational(args.beta)))


def _cmd_eta(args) -> tuple[int, dict]:
    experiment = docs.load_document(args.experiment, "experiment")
    chain = docs.load_document(args.chain, "chain")
    result = eta_limit(
        chain, experiment, tol=parse_rational(args.tol), max_iter=args.max_iter
    )
    return 0, _report(
        "eta",
        iterations=result.iterations,
        gap=result.gap,
        converged=result.converged,
        hull=result.hull.points,
    )


def _cmd_merge_horizon(args) -> tuple[int, dict]:
    experiment = docs.load_document(args.experiment, "experiment")
    chain = docs.load_document(args.chain, "chain")
    report = merging_horizon(
        chain, experiment, epsilon=parse_rational(args.eps), n_max=args.nmax
    )
    return 0, _report(
        "merge-horizon",
        horizon=report.horizon,
        profile=report.profile,
        monotone=report.monotone,
        epsilon=report.epsilon,
        n_max=report.n_max,
    )


def _cmd_stopping(args) -> tuple[int, dict]:
    problem = docs.load_document(args.problem, "decision_problem")
    experiment = docs.load_document(args.experiment, "experiment")
    chain = docs.load_document(args.chain, "chain")
    stopping = StoppingProblem(problem=problem, chain=chain, horizon=args.horizon)
    return 0, _report(
        "stopping",
        horizon=args.horizon,
        value=stopping_value(stopping, experiment),
    )


def _cmd_counterexample(args) -> tuple[int, dict]:
    pi = docs.load_document(args.pi, "experiment")
    pi_prime = docs.load_document(args.pi_prime, "experiment")
    mu = _parse_prior(args.prior)
    found = counterexample(pi, pi_prime, mu)
    if found is None:
        return 0, _report(
            "counterexample",
            found=False,
            note="the weighted-garbling order holds, so no stopping "
            "problem can separate the pair",
        )
    problem, chain, values = found
    return 1, _report(
        "counterexample",
        found=True,
        problem=docs.decision_problem_to_doc(problem),
        chain=docs.chain_to_doc(chain),
        values=[
            {"horizon": horizon, "pi": better, "pi_prime": worse}
            for horizon, better, worse in values
        ],
    )


def _selftest_lps(rng: random.Random, count: int) -> tuple[bool, str]:
    optimal = infeasible = unbounded = 0
    for _ in range(count):
        lp = generators.random_lp(rng)
        outcome = solve(lp)
        if outcome.status == OPTIMAL:
            optimal += 1
            if not solution_feasible(lp, outcome.x):
                return False, "optimal point infeasible"
            if not dual_verifies(lp, outcome.dual, outcome.objective):
                return False, "strong duality failed"
        elif outcome.status == INFEASIBLE:
            infeasible += 1
            if not farkas_verifies(lp, outcome.farkas):
                return False, "Farkas certificate failed"
        else:
            unbounded += 1
            if not ray_verifies(lp, outcome.ray):
                return False, "unbounded ray failed"
    return True, f"{optimal} optimal / {infeasible} infeasible / {unbounded} unbounded"


def _selftest_orders(seed: int, count: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    ordered = 0
    for pi, mu0, pi_prime in generators.corpus_pairs(seed, count):
        lp_cert = check_weighted(pi, pi_prime)
        # One hull program per posterior atom: a decision independent of the blocks.
        hull = posteriors(regularize(pi_prime), mu0).beliefs
        atoms = posteriors(pi, mu0).atoms
        if (lp_cert is None) == all(hull_membership(a.belief, hull) is not None for a in atoms):
            return False, "LP and posterior-geometry paths disagree"
        # check_blackwell reads min_size; the = 1 linked program decides apart from it.
        unit = to_conditional(pi_prime, unit_weight(pi_prime))
        try:
            from_conditional(unit, pi)
        except OrderError:
            linked = False
        else:
            linked = True
        if (check_blackwell(pi, pi_prime) is not None) != linked:
            return False, "Blackwell check disagrees with min_size"
        sizing = min_size(pi, pi_prime)
        if lp_cert is None:
            problem = falsify_bound(pi, pi_prime, rng.choice([1, 2]))
            if problem is None:
                return False, "no falsifier for an unordered pair"
            continue
        ordered += 1
        coupling = check_weighted_beliefs(pi, pi_prime, mu0)
        if coupling is None or not verify_coupling(coupling, pi, pi_prime, mu0):
            return False, "belief coupling failed verification"
        try:  # loading verifies the certificate
            docs.certificate_from_doc(docs.certificate_to_doc(lp_cert))
        except InvalidInput:
            return False, "certificate failed after a serialization round trip"
        beta_min, witness = sizing
        report = verify_bound(
            random_decision_problem(rng.randrange(2**30), 3, pi.n_states),
            pi,
            pi_prime,
            beta_min,
        )
        if not report.holds:
            return False, "size bound violated at the minimal size"
        conditional = to_conditional(pi_prime, witness.weight())
        recovered = from_conditional(conditional, pi)
        if recovered.beta != beta_min:
            return False, "conditional round trip changed the size"
    return True, f"{count} pairs, {ordered} ordered"


def _selftest_compose(seed: int, count: int) -> tuple[bool, str]:
    for inner, outer in generators.certificate_chains(seed, count):
        composite = compose(inner, outer)
        if not verify_certificate(composite):
            return False, "composite certificate failed to verify"
        if composite.beta > inner.beta * outer.beta:
            return False, "composite size exceeded the product"
    return True, f"{count} chains"


def _cmd_selftest(args) -> tuple[int, dict]:
    seed = args.seed
    checks = []
    ok, detail = _selftest_lps(random.Random(seed), 40)
    checks.append({"name": "lp-certificates-and-duality", "ok": ok, "detail": detail})
    ok, detail = _selftest_orders(seed + 1, 16)
    checks.append({"name": "order-path-equivalence", "ok": ok, "detail": detail})
    ok, detail = _selftest_compose(seed + 2, 8)
    checks.append({"name": "composition", "ok": ok, "detail": detail})
    passed = all(c["ok"] for c in checks)
    return (0 if passed else 1), _report("selftest", seed=seed, ok=passed, checks=checks)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expord",
        description="Exact comparison of statistical experiments with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide a garbling order between experiments")
    relation = check.add_subparsers(dest="relation", required=True)
    for name in ("blackwell", "weighted"):
        p = relation.add_parser(name)
        p.add_argument("pi", help="experiment JSON for the (candidate) garbling")
        p.add_argument("pi_prime", help="experiment JSON being garbled")
        if name == "weighted":
            p.add_argument("--beta", help="request a witness of at most this size")
        p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("size-interval", help="range of certificate sizes for a pair")
    p.add_argument("pi")
    p.add_argument("pi_prime")
    p.set_defaults(handler=_cmd_size_interval)

    p = sub.add_parser("compose", help="chain two certificates transitively")
    p.add_argument("inner", help="certificate for pi <= pi'")
    p.add_argument("outer", help="certificate for pi' <= pi''")
    p.set_defaults(handler=_cmd_compose)

    conditional = sub.add_parser(
        "conditional", help="convert between weights and conditional events"
    )
    direction = conditional.add_subparsers(dest="direction", required=True)
    p = direction.add_parser("to")
    p.add_argument("certificate", help="certificate whose weight becomes the event")
    p.set_defaults(handler=_cmd_conditional)
    p = direction.add_parser("from")
    p.add_argument("conditional", help="conditional_experiment JSON")
    p.add_argument("pi", help="experiment to place below the conditional")
    p.set_defaults(handler=_cmd_conditional)

    p = sub.add_parser("posteriors", help="posterior distribution from a prior")
    p.add_argument("experiment")
    p.add_argument("--prior", required=True, help="comma-separated rationals")
    p.set_defaults(handler=_cmd_posteriors)

    p = sub.add_parser("hull-check", help="exact convex-hull membership")
    p.add_argument("--point", required=True, help="comma-separated belief")
    p.add_argument(
        "--generators", required=True, help="semicolon-separated list of beliefs"
    )
    p.set_defaults(handler=_cmd_hull_check)

    p = sub.add_parser(
        "beliefs-check", help="decide the weighted order through posterior hulls"
    )
    p.add_argument("pi")
    p.add_argument("pi_prime")
    p.add_argument("--prior", required=True)
    p.set_defaults(handler=_cmd_beliefs_check)

    p = sub.add_parser("value", help="optimal expected payoff of a decision problem")
    p.add_argument("problem")
    p.add_argument("experiment")
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("bound-verify", help="evaluate the size-beta payoff bound")
    p.add_argument("problem")
    p.add_argument("pi")
    p.add_argument("pi_prime")
    p.add_argument("--beta", required=True)
    p.set_defaults(handler=_cmd_bound_verify)

    p = sub.add_parser(
        "bound-falsify", help="search for a decision problem violating the bound"
    )
    p.add_argument("pi")
    p.add_argument("pi_prime")
    p.add_argument("--beta", required=True)
    p.set_defaults(handler=_cmd_bound_falsify)

    p = sub.add_parser("dilute", help="mix an experiment with an uninformative signal")
    p.add_argument("experiment")
    p.add_argument("--beta", required=True)
    p.set_defaults(handler=_cmd_dilute)

    p = sub.add_parser("eta", help="iterated hull of transition-then-signal updates")
    p.add_argument("experiment")
    p.add_argument("--chain", required=True)
    p.add_argument("--tol", default="1/1000000")
    p.add_argument("--max-iter", type=int, default=64)
    p.set_defaults(handler=_cmd_eta)

    p = sub.add_parser("merge-horizon", help="history length for posterior merging")
    p.add_argument("experiment")
    p.add_argument("--chain", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--nmax", type=int, default=12)
    p.set_defaults(handler=_cmd_merge_horizon)

    p = sub.add_parser("stopping", help="finite-horizon optimal stopping value")
    p.add_argument("problem")
    p.add_argument("experiment")
    p.add_argument("--chain", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(handler=_cmd_stopping)

    p = sub.add_parser(
        "counterexample", help="stopping problem separating an unordered pair"
    )
    p.add_argument("pi")
    p.add_argument("pi_prime")
    p.add_argument("--prior", required=True)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("selftest", help="cross-module equivalence battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and dispatch one command line; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 0 if not stop.code else 2
    try:
        code, doc = args.handler(args)
        # Inside the try: an OSError writing stdout (a closed pipe) exits 2.
        print(docs.dump_document(doc))
        return code
    except (InvalidInput, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except InternalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
