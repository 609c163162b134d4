"""The Fraction certificate check, kept as a test-only reference.

This is the body ``expord.order.verify_certificate`` had before it compared
over integers.  Both re-derive the same conditions in the same order, so on
every certificate they must return identical results: the same ``ok`` and
the same violation messages.  ``tests/test_order.py`` compares them.

``size_interval_programs`` spells out, independently of ``expord.order``,
the two programs whose duals a ``SizeInterval`` carries.

``blackwell_farkas`` and ``from_conditional`` are the bodies
``expord.order`` had before every feasibility question went through one
decision, ``_decide``: the first solved the Blackwell program a second time
for its Farkas multipliers, the second checked Blackwell garbling against
the reweighted base experiment and rescaled the channel by the weight.
``blackwell_program`` states the Blackwell program independently of
``expord.order``, in the row order ``_psi_program`` documents.

``check_conditional`` is the acceptance rule ``ConditionalExperiment`` had
before it read the per-signal event probability off ``kernel()``: a bound
scan, a mass scan and a separate ratio scan.  It must accept exactly the
event tables the kernel check accepts.
"""

from __future__ import annotations

from fractions import Fraction

from expord.experiments import Experiment, _check_table, _require_shared_states, apply_weight
from expord.numerics import (
    EQ, INFEASIBLE, LE, OPTIMAL, InternalError, InvalidInput, linear_program, solve,
)
from expord.order import (
    GarblingCertificate, OrderError, VerificationResult, check_blackwell, verify_certificate,
)


def verify_certificate(certificate: GarblingCertificate) -> VerificationResult:
    """Re-derive every certificate condition by exact substitution."""
    pi, pi_prime, psi = certificate.pi, certificate.pi_prime, certificate.psi
    violations: list[str] = []
    for i, signal in enumerate(pi.signals):
        for t, state in enumerate(pi.states):
            reproduced = sum(
                (psi[i][j] * pi_prime.matrix[t][j] for j in range(pi_prime.n_signals)),
                Fraction(0),
            )
            if reproduced != pi.matrix[t][i]:
                violations.append(
                    f"reproduction fails at signal {signal!r}, state {state!r}: "
                    f"{reproduced} != {pi.matrix[t][i]}"
                )
    gamma = certificate.gamma
    for t, state in enumerate(pi.states):
        mass = sum(
            (gamma[j] * pi_prime.matrix[t][j] for j in range(pi_prime.n_signals)),
            Fraction(0),
        )
        if mass != 1:
            violations.append(
                f"weight identity fails at state {state!r}: mass {mass} != 1"
            )
    if certificate.beta < 1:
        violations.append(f"size {certificate.beta} below 1")
    return VerificationResult(ok=not violations, violations=tuple(violations))


def size_interval_programs(pi, pi_prime, column):
    """min_size's program and column ``column``'s maximization, rows as documented.

    Reproduction rows sum_s' psi(s,s') P'(s'|t) = P(s|t), signal-major, in
    both; min_size's program then bounds every column sum by its last
    variable u, which it minimizes.
    """
    n_s, n_sp = pi.n_signals, pi_prime.n_signals
    n_vars = n_s * n_sp
    reproduction = []
    for s in range(n_s):
        for t in range(pi.n_states):
            coeffs = [0] * (n_vars + 1)
            coeffs[s * n_sp : (s + 1) * n_sp] = pi_prime.matrix[t]
            reproduction.append((coeffs, EQ, pi.matrix[t][s]))
    column_rows = [
        ([int(k % n_sp == j) for k in range(n_vars)] + [-1], LE, 0) for j in range(n_sp)
    ]
    lowest = linear_program([0] * n_vars + [1], reproduction + column_rows)
    highest = linear_program(
        [int(k % n_sp == column) for k in range(n_vars)],
        [(coeffs[:n_vars], relation, rhs) for coeffs, relation, rhs in reproduction],
        sense="max",
    )
    return lowest, highest


def blackwell_program(pi, pi_prime):
    """Reproduction rows, signal-major, then every column sum of psi equal to one."""
    n_s, n_sp = pi.n_signals, pi_prime.n_signals
    n_vars = n_s * n_sp
    rows = []
    for s in range(n_s):
        for t in range(pi.n_states):
            coeffs = [0] * n_vars
            coeffs[s * n_sp : (s + 1) * n_sp] = pi_prime.matrix[t]
            rows.append((coeffs, EQ, pi.matrix[t][s]))
    for j in range(n_sp):
        rows.append(([int(k % n_sp == j) for k in range(n_vars)], EQ, 1))
    return linear_program([0] * n_vars, rows)


def blackwell_farkas(pi, pi_prime):
    """Farkas multipliers [signal][state] refuting plain Blackwell garbling, or None."""
    outcome = solve(blackwell_program(pi, pi_prime))
    if outcome.status == OPTIMAL:
        return None
    if outcome.status != INFEASIBLE:
        raise InternalError(f"feasibility program came back {outcome.status}")
    n = pi.n_states
    return tuple(tuple(outcome.farkas[i * n : (i + 1) * n]) for i in range(pi.n_signals))


def from_conditional(conditional, pi):
    """A certificate from ``pi``'s Blackwell channel out of the reweighted base."""
    base = conditional.base
    _require_shared_states(pi, base)
    kappa = conditional.kernel()
    gamma = tuple(k / conditional.alpha for k in kappa)
    conditioned = apply_weight(gamma, base)
    channel = check_blackwell(pi, conditioned)
    if channel is None:
        raise OrderError(
            "the experiment is not a Blackwell garbling of the "
            "event-conditional distribution"
        )
    psi = tuple(
        tuple(channel.psi[i][j] * gamma[j] for j in range(base.n_signals))
        for i in range(pi.n_signals)
    )
    certificate = GarblingCertificate(pi=pi, pi_prime=base, psi=psi)
    if not verify_certificate(certificate):
        raise InternalError("recovered certificate does not verify")
    return certificate


def check_conditional(base: Experiment, event, alpha) -> None:
    """Raise InvalidInput unless ``event`` is a conditional event of size ``alpha`` on ``base``."""
    if not isinstance(alpha, Fraction):
        raise InvalidInput(f"alpha must be a Fraction, got {alpha!r}")
    if not 0 < alpha <= 1:
        raise InvalidInput(f"alpha must lie in (0, 1], got {alpha}")
    _check_table(event, base.n_states, base.n_signals, "event table")
    for t, row in enumerate(event):
        for j, entry in enumerate(row):
            if entry < 0 or entry > base.matrix[t][j]:
                raise InvalidInput("event mass must lie between 0 and the base likelihood")
        mass = sum(row, Fraction(0))
        if mass != alpha:
            raise InvalidInput(
                f"event probability must be {alpha} in every state, found {mass}"
            )
    for j in range(base.n_signals):
        ratio: Fraction | None = None
        for t in range(base.n_states):
            if base.matrix[t][j] == 0:
                continue
            current = event[t][j] / base.matrix[t][j]
            if ratio is None:
                ratio = current
            elif current != ratio:
                raise InvalidInput(
                    f"event likelihood ratio at signal {base.signals[j]!r} depends on the state"
                )
