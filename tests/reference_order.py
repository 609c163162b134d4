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
the reweighted base experiment and rescaled the channel by the weight.  It
decides Blackwell garbling with ``check_blackwell_coupled``, the coupled
``= 1`` program, since the library's ``check_blackwell`` now reads the
minimal size.
``blackwell_program`` states the Blackwell program independently of
``expord.order``, in the row order ``_psi_program`` documents, and
``diluted_farkas`` completes a falsifier's payoff table to a Farkas vector
of the Blackwell program of the diluted pair.

``psi_program``, ``column_sum``, ``certify``, ``decide``, ``check_weighted``,
``check_blackwell_coupled``, ``min_size_outcome``, ``from_conditional_coupled``
and ``size_interval`` are the bodies ``expord.order`` had before every psi
decision solved its per-signal blocks first: each feasibility question
solved the whole coupled program once, and ``size_interval`` maximized each
column sum over the whole coupled program.  ``check_weighted`` with a cap
still states the size-cap program, which ``expord.order`` no longer does:
there the minimal size answers every cap.

``relax`` and ``falsify_bound`` are the bodies ``expord.order._relax`` and
``expord.value.falsify_bound`` had before the order module remembered the
last pair it was asked about: every call solved its blocks again, and the
falsifier decided the diluted pair, its blocks first and then the linked
Blackwell program.

``check_conditional`` is the acceptance rule ``ConditionalExperiment`` had
before it read the per-signal event probability off ``kernel()``: a bound
scan, a mass scan and a separate ratio scan.  It must accept exactly the
event tables the kernel check accepts.
"""

from __future__ import annotations

from fractions import Fraction

from expord.experiments import (
    DecisionProblem, Experiment, Prior, _check_table, _require_shared_states, apply_weight,
    dilute,
)
from expord.numerics import (
    EQ, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, InternalError, InvalidInput, as_rational,
    linear_program, solve,
)
from expord.order import (
    GarblingCertificate, OrderError, SizeInterval, VerificationResult, verify_certificate,
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


def diluted_farkas(table, pi_prime):
    """``table``, rows [signal][state] with the null signal's last, plus column multipliers.

    Column j gets the largest multiplier the dual rows allow,
    u_j = -max_s sum_t y(s, t) pi_prime(j|t) over every row, the null one
    too, so the vector refutes ``blackwell_program(dilute(pi, beta),
    pi_prime)`` exactly when some multipliers of its column rows do.  With
    a zero null row, u_j is -max(0, max over pi's signals).
    """
    columns = [
        -max(sum(y * prime[j] for y, prime in zip(row, pi_prime.matrix)) for row in table)
        for j in range(pi_prime.n_signals)
    ]
    return [y for row in table for y in row] + columns


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
    channel = check_blackwell_coupled(pi, conditioned)
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


def psi_program(pi, pi_prime, columns=None, objective=None, sense="min"):
    """The coupled psi program: reproduction rows signal-major, then column rows."""
    _require_shared_states(pi, pi_prime)
    n_sp = pi_prime.n_signals
    if objective is None:
        objective = [Fraction(0)] * (pi.n_signals * n_sp)
    n_vars = len(objective)
    rows = []
    for i in range(pi.n_signals):
        for t in range(pi.n_states):
            coeffs = [Fraction(0)] * n_vars
            coeffs[i * n_sp : (i + 1) * n_sp] = pi_prime.matrix[t]
            rows.append((coeffs, EQ, pi.matrix[t][i]))
    if columns is not None:
        tail, relation, rhs = columns
        for j in range(n_sp):
            coeffs = column_sum(pi, pi_prime, j, n_vars)
            coeffs[n_vars - len(tail) :] = tail
            rows.append((coeffs, relation, rhs[j]))
    return linear_program(objective, rows, sense=sense)


def column_sum(pi, pi_prime, j, n_vars):
    coeffs = [Fraction(0)] * n_vars
    for i in range(pi.n_signals):
        coeffs[i * pi_prime.n_signals + j] = Fraction(1)
    return coeffs


def certify(pi, pi_prime, outcome):
    if outcome.status != OPTIMAL:
        raise InternalError(f"psi program expected optimal, got {outcome.status}")
    n_sp = pi_prime.n_signals
    psi = tuple(tuple(outcome.x[i * n_sp : (i + 1) * n_sp]) for i in range(pi.n_signals))
    certificate = GarblingCertificate(pi=pi, pi_prime=pi_prime, psi=psi)
    if not verify_certificate(certificate):
        raise InternalError("solver returned a non-verifying psi")
    return certificate


def decide(pi, pi_prime, columns):
    """The verified certificate, or the Farkas table [signal of pi][state], of one coupled solve."""
    outcome = solve(psi_program(pi, pi_prime, columns))
    if outcome.status != INFEASIBLE:
        return certify(pi, pi_prime, outcome)
    n = pi.n_states
    return tuple(tuple(outcome.farkas[i * n : (i + 1) * n]) for i in range(pi.n_signals))


def relax(pi, pi_prime):
    """Solve pi's blocks in signal order: ``(True, points)`` or ``(False, Farkas table)``."""
    x = []
    for s in range(pi.n_signals):
        if not any(row[s] for row in pi.matrix):
            x += [Fraction(0)] * pi_prime.n_signals
            continue
        rows = [(row, EQ, pi.matrix[t][s]) for t, row in enumerate(pi_prime.matrix)]
        outcome = solve(linear_program([0] * pi_prime.n_signals, rows))
        if outcome.status == INFEASIBLE:
            zeros = (Fraction(0),) * pi.n_states
            return False, tuple(outcome.farkas if i == s else zeros for i in range(pi.n_signals))
        x += outcome.x
    return True, tuple(x)


def falsify_bound(pi, pi_prime, beta):
    """The violating problem built from the diluted pair's own decision, or None."""
    scale = as_rational(beta)
    diluted = dilute(pi, scale)
    feasible, farkas = relax(diluted, pi_prime)
    if feasible:
        farkas = decide(diluted, pi_prime, ((), EQ, (Fraction(1),) * pi_prime.n_signals))
        if isinstance(farkas, GarblingCertificate):
            return None
    n_states = pi.n_states
    payoffs = [tuple(y * n_states for y in row) for row in farkas]
    peak = max(abs(entry) for row in payoffs for entry in row)
    if peak > 1:
        payoffs = [tuple(entry / peak for entry in row) for row in payoffs]
    return DecisionProblem(
        actions=tuple(f"a_{signal}" for signal in diluted.signals),
        payoffs=tuple(payoffs),
        prior=Prior(weights=tuple(Fraction(1, n_states) for _ in range(n_states))),
    )


def check_weighted(pi, pi_prime, max_size=None):
    cap = None if max_size is None else as_rational(max_size)
    if cap is not None and cap < 1:
        raise InvalidInput("max_size must be at least 1")
    columns = None if cap is None else ((), LE, (cap,) * pi_prime.n_signals)
    certificate = decide(pi, pi_prime, columns)
    if not isinstance(certificate, GarblingCertificate):
        return None
    if cap is not None and certificate.beta > cap:
        raise InternalError("solver exceeded the requested size")
    return certificate


def check_blackwell_coupled(pi, pi_prime):
    certificate = decide(pi, pi_prime, ((), EQ, (Fraction(1),) * pi_prime.n_signals))
    return certificate if isinstance(certificate, GarblingCertificate) else None


def from_conditional_coupled(conditional, pi):
    gamma = tuple(k / conditional.alpha for k in conditional.kernel())
    certificate = decide(pi, conditional.base, ((), EQ, gamma))
    if not isinstance(certificate, GarblingCertificate):
        raise OrderError(
            "the experiment is not a Blackwell garbling of the "
            "event-conditional distribution"
        )
    return certificate


def min_size_outcome(pi, pi_prime):
    """The optimal outcome of the coupled min_size program and its witness, or None."""
    objective = [Fraction(0)] * (pi.n_signals * pi_prime.n_signals) + [Fraction(1)]
    columns = ((Fraction(-1),), LE, (Fraction(0),) * pi_prime.n_signals)
    outcome = solve(psi_program(pi, pi_prime, columns, objective))
    if outcome.status == INFEASIBLE:
        return None
    certificate = certify(pi, pi_prime, outcome)
    if certificate.beta != outcome.objective:
        raise InternalError("minimal size differs from the witness's size")
    return outcome, certificate


def size_interval(pi, pi_prime):
    base = min_size_outcome(pi, pi_prime)
    if base is None:
        return None
    lowest, witness_min = base
    n_vars = pi.n_signals * pi_prime.n_signals
    columns = []
    for j in range(pi_prime.n_signals):
        objective = column_sum(pi, pi_prime, j, n_vars)
        outcome = solve(psi_program(pi, pi_prime, objective=objective, sense="max"))
        if outcome.status == INFEASIBLE:
            raise InternalError("column maximization infeasible after min_size")
        if outcome.status == UNBOUNDED:
            columns = None
            break
        columns.append(outcome)
    beta_max = witness_max = dual_max = None
    if columns is not None:
        best = max(columns, key=lambda outcome: outcome.objective)
        beta_max = best.objective
        witness_max = certify(pi, pi_prime, best)
        if not witness_max.beta == beta_max >= lowest.objective:
            raise InternalError("maximal size differs from the witness's size")
        dual_max = tuple(outcome.dual for outcome in columns)
    return SizeInterval(
        beta_min=lowest.objective,
        beta_max=beta_max,
        witness_min=witness_min,
        witness_max=witness_max,
        dual_min=lowest.dual,
        dual_max=dual_max,
    )
