"""Garbling orders between experiments, decided exactly with certificates.

An experiment P is a weighted garbling of P' when there are a valid weight
gamma for P' and a channel phi from P''s signals to P's signals with

    P(s|t) = sum_{s'} phi(s|s') gamma(s') P'(s'|t)   for all s, t.

Substituting psi(s, s') = gamma(s') phi(s|s') turns the existence question
into a single linear feasibility problem in nonnegative psi: the weight
identity follows by summing the reproduction rows over s, so the reproduction
rows alone characterize the order.  They split into one block per signal s
of P, over psi(s, .): is P's posterior at s in the hull of P''s posteriors?
Every decision solves the blocks first, in signal order, and the first
infeasible one refutes it.  Otherwise the block points certify the order.
The one linked program the order solves, the minimal size's, bounds each
column sum by a t it minimizes, started from the blocks' bases.  Sizes
form an interval from there up, so a size cap holds exactly when it is at
least the minimal size, and Blackwell garbling when that is 1.  The largest
size maximizes each column sum block by block.  Only the recovery from a
conditional experiment states its own program, column sums kappa / alpha.
Every answer carries evidence either way: a certificate that verifies by
substitution, or verified multipliers of the reproduction rows.  A
certificate that fails its own check raises :class:`InternalError`.

The module remembers the last pair it was asked about, by identity: its
block decision, read off each block's state after phase one, those states,
and once asked for, its minimal-size outcome with the witness certified
when it was solved.  Every question about that pair reads them instead of
solving again: the minimal size, Blackwell and the size interval return
that one witness, and the largest size finishes the remembered blocks with
phase two alone, one column objective at a time.  A different pair, even
an equal one, replaces the entry, and an exception is never remembered.
``value.falsify_bound`` asks the size cap that ``check_weighted`` asks,
so it reads the same blocks and, inside the order, the same minimal size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .experiments import (
    Experiment, Weight, _check_table, _require_shared_states, _require_weight, make_weight,
)
from .numerics import (
    EQ,
    INFEASIBLE,
    LE,
    OPTIMAL,
    InternalError,
    InvalidInput,
    LinearProgram,
    LpOutcome,
    RationalLike,
    _basic_point,
    _clear_denominators,
    _dual_value,
    _phase_one,
    _phase_two,
    as_rational,
    solve,
)


class OrderError(InvalidInput):
    """A certified relation required by an operation does not hold."""


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of an exact re-check, with one message per violated condition."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class GarblingCertificate:
    """Evidence that ``pi`` is a weighted garbling of ``pi_prime``.

    The payload is the linearized kernel ``psi`` with
    ``psi[s][s']  =  gamma(s') * phi(s|s')``.  The weight, channel, and size
    are derived views; at a signal of ``pi_prime`` with zero weight, the
    column of ``phi`` is set uniform by convention.
    """

    pi: Experiment
    pi_prime: Experiment
    psi: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.psi, tuple) and all(isinstance(row, tuple) for row in self.psi)):
            raise InvalidInput("psi must be a tuple of tuples")
        _check_table(self.psi, self.pi.n_signals, self.pi_prime.n_signals, "psi")
        for row in self.psi:
            for entry in row:
                if entry < 0:
                    raise InvalidInput("psi entries must be nonnegative")
        _require_shared_states(self.pi, self.pi_prime)

    @property
    def gamma(self) -> tuple[Fraction, ...]:
        """Weight factors: column sums of psi."""
        return tuple(
            sum((row[j] for row in self.psi), Fraction(0))
            for j in range(self.pi_prime.n_signals)
        )

    @property
    def beta(self) -> Fraction:
        """Size of the certificate: the largest weight factor."""
        return max(self.gamma)

    @property
    def phi(self) -> tuple[tuple[Fraction, ...], ...]:
        """Channel from pi_prime's signals to pi's signals, as psi/gamma."""
        gamma = self.gamma
        n = self.pi.n_signals
        uniform = Fraction(1, n)
        return tuple(
            tuple(
                self.psi[i][j] / gamma[j] if gamma[j] > 0 else uniform
                for j in range(self.pi_prime.n_signals)
            )
            for i in range(n)
        )

    def weight(self) -> Weight:
        """The certificate's weight as a validated :class:`Weight`."""
        return make_weight(self.pi_prime, self.gamma)


def verify_certificate(certificate: GarblingCertificate) -> VerificationResult:
    """Re-derive every certificate condition by exact substitution.

    psi is cleared to integers over the LCM of its denominators once, and
    each condition is compared over integers against both experiments'
    cached integer columns; a Fraction is built only to word a violation.
    """
    pi, pi_prime = certificate.pi, certificate.pi_prime
    n_sp = pi_prime.n_signals
    flat, scale = _clear_denominators([v for row in certificate.psi for v in row])
    psi = [flat[i * n_sp : (i + 1) * n_sp] for i in range(pi.n_signals)]
    columns, pi_scale = pi._integer_columns
    prime_columns, prime_scale = pi_prime._integer_columns
    prime_rows = list(zip(*prime_columns))
    # A sum of psi times pi_prime's rows is over scale * prime_scale; pi's
    # entries are over pi_scale, so compare the two cross-multiplied.
    over = scale * prime_scale
    violations: list[str] = []
    for i, signal in enumerate(pi.signals):
        for t, state in enumerate(pi.states):
            reproduced = sum(map(mul, psi[i], prime_rows[t]))
            if reproduced * pi_scale != columns[i][t] * over:
                violations.append(
                    f"reproduction fails at signal {signal!r}, state {state!r}: "
                    f"{Fraction(reproduced, over)} != {pi.matrix[t][i]}"
                )
    gamma = [sum(column) for column in zip(*psi)]
    for t, state in enumerate(pi.states):
        mass = sum(map(mul, gamma, prime_rows[t]))
        if mass != over:
            violations.append(
                f"weight identity fails at state {state!r}: mass {Fraction(mass, over)} != 1"
            )
    if max(gamma) < scale:
        violations.append(f"size {Fraction(max(gamma), scale)} below 1")
    return VerificationResult(ok=not violations, violations=tuple(violations))


def _psi_program(
    pi: Experiment,
    pi_prime: Experiment,
    columns: tuple[tuple[Fraction, ...], str, Sequence[Fraction]] | None = None,
    objective: Sequence[Fraction] | None = None,
) -> LinearProgram:
    """The psi program, a min program: reproduction rows, then one row per column of P'.

    psi(s, s') is variable s * |S'| + s'; extra variables priced by the
    objective (``min_size``'s bound t) follow.  The rows
    sum_{s'} psi(s,s') pi_prime(s'|t) = pi(s|t) come first, signal-major;
    ``columns = (tail, relation, rhs)`` then adds
    sum_s psi(s, s') + tail . extras  relation  rhs[s']  for every s'.
    Under Bland's rule certificates depend on this order, so it is fixed.
    """
    _require_shared_states(pi, pi_prime)
    n_sp = pi_prime.n_signals
    if objective is None:
        objective = [Fraction(0)] * (pi.n_signals * n_sp)
    n_vars = len(objective)
    zeros = (Fraction(0),) * n_vars
    rows = [
        (zeros[: i * n_sp] + tuple(row) + zeros[(i + 1) * n_sp :], EQ, pi.matrix[t][i])
        for i in range(pi.n_signals)
        for t, row in enumerate(pi_prime.matrix)
    ]
    if columns is not None:
        tail, relation, rhs = columns
        for j in range(n_sp):
            coeffs = _column_sum(pi, pi_prime, j, n_vars)
            coeffs[n_vars - len(tail) :] = tail
            rows.append((tuple(coeffs), relation, rhs[j]))
    return LinearProgram(tuple(objective), "min", tuple(rows), (True,) * n_vars)


def _block(pi: Experiment, pi_prime: Experiment, s: int) -> LinearProgram:
    """Block ``s`` of the psi program: its |T| reproduction rows over psi(s, .) alone.

    Its objective is zero; :func:`size_interval` prices it per column in phase two.
    """
    _require_shared_states(pi, pi_prime)
    n_sp = pi_prime.n_signals
    rows = tuple((row, EQ, pi.matrix[t][s]) for t, row in enumerate(pi_prime.matrix))
    return LinearProgram((Fraction(0),) * n_sp, "min", rows, (True,) * n_sp)


def _column_sum(pi: Experiment, pi_prime: Experiment, j: int, n_vars: int) -> list[Fraction]:
    """Coefficients of sum_s psi(s, s') at s' = j."""
    one, zero, n_sp = Fraction(1), Fraction(0), pi_prime.n_signals
    return [one if k % n_sp == j and k < pi.n_signals * n_sp else zero for k in range(n_vars)]


def _certify(pi: Experiment, pi_prime: Experiment, x: Sequence[Fraction]) -> GarblingCertificate:
    """The verified certificate whose psi is the point ``x``, read signal-major."""
    n_sp = pi_prime.n_signals
    psi = tuple(tuple(x[i * n_sp : (i + 1) * n_sp]) for i in range(pi.n_signals))
    certificate = GarblingCertificate(pi=pi, pi_prime=pi_prime, psi=psi)
    if not verify_certificate(certificate):
        raise InternalError("solver returned a non-verifying psi")
    return certificate


# The last pair asked about, by identity: (pi, pi_prime, its _relax result,
# each block's phase-one start or None, its min_size outcome or None).  One
# tuple, rebound in one assignment, so a concurrent reader sees one pair's
# entry whole; it holds both experiments, so their ids cannot be reused
# while it lives.
_last: tuple = (None, None, None, None, None)


def _entry(pi: Experiment, pi_prime: Experiment) -> tuple:
    """The pair's entry in ``_last``, its blocks solved in signal order if it is not there.

    Each block's point is read off its phase-one start, up to the first
    infeasible block.  The starts are None past a refutation; otherwise
    start s is block s after phase one, which :func:`size_interval` finishes
    per column, and None at a null signal of ``pi``, whose block gets zeros.
    """
    global _last
    entry = _last
    if entry[0] is pi and entry[1] is pi_prime:
        return entry
    x: list[Fraction] = []
    starts: list = []
    for s in range(pi.n_signals):
        if not any(row[s] for row in pi.matrix):
            x += (Fraction(0),) * pi_prime.n_signals
            starts.append(None)
            continue
        start = _phase_one(_block(pi, pi_prime, s))
        if isinstance(start, LpOutcome):
            zeros = (Fraction(0),) * pi.n_states
            found = False, tuple(start.farkas if i == s else zeros for i in range(pi.n_signals))
            starts = None
            break
        x += _basic_point(start, start.tableau)[1]
        starts.append(start)
    else:
        found = True, tuple(x)
        starts = tuple(starts)
    entry = _last = (pi, pi_prime, found, starts, None)
    return entry


def _relax(pi: Experiment, pi_prime: Experiment) -> tuple[bool, Sequence]:
    """Solve the blocks of the psi program in signal order, up to the first infeasible one.

    Returns ``(True, x)``, the block points signal-major (zero at a null
    signal of ``pi``, without a solve), or ``(False, table)``: the first
    infeasible block's checked Farkas row, zero on every other row.  With
    zero multipliers on any column rows it refutes the linked program too.
    The answer, with each feasible block's phase-one start, is remembered
    while the pair is the last one asked about.
    """
    return _entry(pi, pi_prime)[2]


def _decide(
    pi: Experiment, pi_prime: Experiment, cap: Fraction | None = None
) -> GarblingCertificate | tuple[tuple[Fraction, ...], ...]:
    """Decide whether ``pi`` garbles ``pi_prime`` at size at most ``cap``, blocks first.

    Returns a verified certificate, the block points unless their size
    exceeds the cap and then the minimal witness, or else a table whose
    entry [s][t] multiplies the reproduction row at signal s and state t:
    the first infeasible block's Farkas row, or below the minimal size the
    minimal-size dual (y, v), which refutes the cap since y . b = beta_min,
    v <= 0 and sum -v <= 1 give y . b + cap sum v >= beta_min - cap > 0.
    """
    feasible, found = _relax(pi, pi_prime)
    if not feasible:
        return found
    certificate = _certify(pi, pi_prime, found)
    if cap is None or certificate.beta <= cap:
        return certificate
    lowest, witness = _min_size(pi, pi_prime)
    if lowest.objective <= cap:
        return witness
    n = pi.n_states
    return tuple(tuple(lowest.dual[i * n : (i + 1) * n]) for i in range(pi.n_signals))


def check_weighted(
    pi: Experiment,
    pi_prime: Experiment,
    max_size: RationalLike | None = None,
) -> GarblingCertificate | None:
    """Decide whether ``pi`` is a weighted garbling of ``pi_prime``.

    Returns a verifying certificate, or None when the relation is
    certifiably absent (the feasibility LP has a Farkas certificate).
    Passing ``max_size`` restricts the answer to certificates of at most
    that size, so a witness of a requested size can be demanded; the
    block points answer when they meet it, and else :func:`min_size` does.
    """
    cap = None if max_size is None else as_rational(max_size)
    if cap is not None and cap < 1:
        raise InvalidInput("max_size must be at least 1")
    certificate = _decide(pi, pi_prime, cap)
    if not isinstance(certificate, GarblingCertificate):
        return None
    if cap is not None and certificate.beta > cap:
        raise InternalError("solver exceeded the requested size")
    return certificate


def check_blackwell(pi: Experiment, pi_prime: Experiment) -> GarblingCertificate | None:
    """Decide whether ``pi`` is a Blackwell garbling of ``pi_prime``.

    The order is Blackwell exactly when its minimal size is 1, so this reads
    :func:`min_size` and solves nothing of its own.  At size 1 the weight
    identity sum_j gamma_j pi_prime(j|t) = 1 holds every column sum of the
    minimal witness with mass at exactly 1, so adding 1 less each column's
    sum on signal 0 of ``pi`` pads only the null columns of ``pi_prime``,
    which reproduce nothing.  With no column to pad it returns the minimal
    witness itself, as certified when solved, and otherwise it certifies the
    padded copy.  Either has weight one on every signal, so its psi is the
    channel phi itself and its size is exactly 1.
    """
    found = _min_size(pi, pi_prime)
    if found is None or found[0].objective != 1:
        return None
    witness = found[1]
    if all(column_sum == 1 for column_sum in witness.gamma):
        return witness
    x = [v for row in witness.psi for v in row]
    for j, column_sum in enumerate(witness.gamma):
        x[j] += 1 - column_sum
    certificate = _certify(pi, pi_prime, x)
    if certificate.beta != 1:
        raise InternalError("Blackwell certificate has size other than 1")
    return certificate


def min_size(
    pi: Experiment, pi_prime: Experiment
) -> tuple[Fraction, GarblingCertificate] | None:
    """Smallest certificate size over all weighted-garbling certificates.

    Minimizes an auxiliary bound t over psi >= 0 subject to the
    reproduction rows and column sums <= t, from the basis of the pair's
    block points.  Returns the exact minimum and a witness attaining it, or
    None when no certificate exists.  The minimum equals 1 exactly when the
    pair is Blackwell ordered, which is how :func:`check_blackwell` decides.
    """
    found = _min_size(pi, pi_prime)
    return None if found is None else (found[0].objective, found[1])


def _min_size(
    pi: Experiment, pi_prime: Experiment
) -> tuple[LpOutcome, GarblingCertificate] | None:
    """:func:`min_size`'s optimal outcome, dual included, and its witness.

    Phase one starts from the blocks' bases: the block points, with t at
    the largest column sum g_j and every other column row's slack at
    t - g_j, are feasible.  So each remembered block start's basic columns
    are crashed in on the block's rows, and t on the row of the largest
    column sum; a null signal of ``pi`` keeps zero artificials, which the
    drive-out removes.  Phase two and its checks run as for a cold solve.
    The outcome and its witness, certified once when the program is solved,
    are remembered with the pair, and every call returns those objects.
    """
    global _last
    entry = _entry(pi, pi_prime)
    feasible, points = entry[2]
    if not feasible:
        return None
    found = entry[4]
    if found is None:
        n_s, n_sp = pi.n_signals, pi_prime.n_signals
        objective = [Fraction(0)] * (n_s * n_sp) + [Fraction(1)]
        columns = ((Fraction(-1),), LE, (Fraction(0),) * n_sp)
        program = _psi_program(pi, pi_prime, columns, objective)
        crash = [
            (s * n_sp + col, None)
            for s, start in enumerate(entry[3])
            if start is not None
            for col in start.tableau.basis
        ]
        sums = [sum(points[j::n_sp]) for j in range(n_sp)]
        widest = max(range(n_sp), key=sums.__getitem__)
        crash.append((n_s * n_sp, n_s * pi.n_states + widest))
        start = _phase_one(program, crash)
        if isinstance(start, LpOutcome):
            raise InternalError("min_size program refuted after feasible blocks")
        outcome = _phase_two(start, program.objective, program.sense)
        if outcome.status != OPTIMAL:
            raise InternalError(f"min_size program expected optimal, got {outcome.status}")
        found = outcome, _certify(pi, pi_prime, outcome.x)
        if found[1].beta != outcome.objective:
            raise InternalError("minimal size differs from the witness's size")
        _last = (*entry[:4], found)
    return found


@dataclass(frozen=True)
class SizeInterval:
    """The exact set of achievable certificate sizes for an ordered pair.

    Achievable sizes form the interval [beta_min, beta_max]; beta_max is
    None when sizes are unbounded above (pi_prime has a null signal to
    park arbitrary mass on).  Witnesses attain each finite endpoint, and
    mixing them traces out every intermediate size.

    ``witness_min`` is the pair's one minimal-size witness, the object
    :func:`min_size` returns, and ``dual_min`` the verified dual of its
    program, one multiplier per row of ``_psi_program``: the reproduction
    rows signal-major, then one column-sum row per signal of ``pi_prime``.
    Both are read at the optimal vertex that phase two reaches from the
    blocks' bases, which may be another than a cold solve reaches.
    ``dual_max[j]`` is the dual of the maximization of column ``j``'s sum:
    the block duals, signal-major, verified against the whole program.  The
    largest of those maxima is ``beta_max``; ``dual_max`` is None when it is.
    """

    beta_min: Fraction
    beta_max: Fraction | None
    witness_min: GarblingCertificate
    witness_max: GarblingCertificate | None
    dual_min: tuple[Fraction, ...]
    dual_max: tuple[tuple[Fraction, ...], ...] | None

    @property
    def unbounded(self) -> bool:
        return self.beta_max is None


def size_interval(pi: Experiment, pi_prime: Experiment) -> SizeInterval | None:
    """Compute the exact interval of achievable certificate sizes.

    The blocks decide the order, and the lower endpoint comes from
    :func:`min_size`.  The upper endpoint is None exactly when ``pi_prime``
    has a null signal.  Otherwise column j's largest sum is the sum of
    psi(s, j)'s maxima over the blocks s, and the largest size is the
    largest of these: a maximizing psi for one column keeps every other
    column at or below its own maximum.  Each maximum is phase two of its
    block, from the phase-one state the pair's entry holds; phase one reads
    only the rows, so the outcome, dual included, is that of a cold solve.
    The entry holds no state for a null signal of ``pi``, whose block is
    started here, once for all columns.
    """
    entry = _entry(pi, pi_prime)
    if not entry[2][0]:
        return None
    n_s, n_sp = pi.n_signals, pi_prime.n_signals
    bounded = all(any(row[j] for row in pi_prime.matrix) for j in range(n_sp))
    # The rows are the same for every column: each dual is checked against them
    # with its column's objective, by the test dual_verifies runs for a max program.
    program = _psi_program(pi, pi_prime) if bounded else None
    # A null block's right-hand side is zero, so its phase one cannot refute:
    # a Farkas row would need y . b > 0, and phase one checks the row it returns.
    starts = [
        start if start is not None else _phase_one(_block(pi, pi_prime, s))
        for s, start in enumerate(entry[3] if bounded else ())
    ]
    columns = []
    for j in range(n_sp if bounded else 0):
        objective = tuple([Fraction(int(k == j)) for k in range(n_sp)])
        blocks = [_phase_two(start, objective, "max") for start in starts]
        if any(outcome.status != OPTIMAL for outcome in blocks):
            raise InternalError("a column maximization block is not optimal")
        value = sum(outcome.objective for outcome in blocks)
        dual = tuple(y for outcome in blocks for y in outcome.dual)
        column_sum = _column_sum(pi, pi_prime, j, n_s * n_sp)
        if _dual_value(program, dual, column_sum, sign=-1) != -value:
            raise InternalError("assembled block duals do not verify")
        columns.append((value, dual, [v for outcome in blocks for v in outcome.x]))
    lowest, witness_min = _min_size(pi, pi_prime)
    beta_max = witness_max = dual_max = None
    if columns:
        beta_max, _dual, x = max(columns, key=lambda column: column[0])
        witness_max = _certify(pi, pi_prime, x)
        if not witness_max.beta == beta_max >= lowest.objective:
            raise InternalError("maximal size differs from the witness's size")
        dual_max = tuple(column[1] for column in columns)
    return SizeInterval(
        beta_min=lowest.objective,
        beta_max=beta_max,
        witness_min=witness_min,
        witness_max=witness_max,
        dual_min=lowest.dual,
        dual_max=dual_max,
    )


def mix_certificates(
    first: GarblingCertificate,
    second: GarblingCertificate,
    weight_on_second: RationalLike,
) -> GarblingCertificate:
    """Convex combination of two certificates for the same pair.

    Feasible psi form a convex set, so any mixture verifies.  The mixture's
    size is the max of the mixed column sums, which interpolates between
    the endpoint sizes but need not be their convex combination.
    """
    lam = as_rational(weight_on_second)
    if not 0 <= lam <= 1:
        raise InvalidInput(f"mixing weight must lie in [0, 1], got {lam}")
    if first.pi != second.pi or first.pi_prime != second.pi_prime:
        raise InvalidInput("certificates must concern the same pair of experiments")
    psi = tuple(
        tuple((1 - lam) * a + lam * b for a, b in zip(row_a, row_b))
        for row_a, row_b in zip(first.psi, second.psi)
    )
    return GarblingCertificate(pi=first.pi, pi_prime=first.pi_prime, psi=psi)


def compose(
    inner: GarblingCertificate, outer: GarblingCertificate
) -> GarblingCertificate:
    """Chain certificates along pi <= pi' <= pi'' into one for pi <= pi''.

    The linearized kernels compose by matrix product:
    psi(s, s'') = sum_{s'} psi_inner(s, s') psi_outer(s', s'').  Summing
    columns shows the composite size is at most the product of the sizes.
    """
    if inner.pi_prime != outer.pi:
        raise InvalidInput(
            "inner certificate's upper experiment must be the outer's lower one"
        )
    n_mid = inner.pi_prime.n_signals
    psi = tuple(
        tuple(
            sum(
                (inner.psi[i][k] * outer.psi[k][j] for k in range(n_mid)),
                Fraction(0),
            )
            for j in range(outer.pi_prime.n_signals)
        )
        for i in range(inner.pi.n_signals)
    )
    composite = GarblingCertificate(pi=inner.pi, pi_prime=outer.pi_prime, psi=psi)
    if composite.beta > inner.beta * outer.beta:
        raise InternalError("composite size exceeds the product of the sizes")
    return composite


@dataclass(frozen=True)
class ConditionalExperiment:
    """An experiment enriched with a binary event, conditionally informative.

    ``event[t][j]`` is the joint probability of signal j and the event in
    state t.  It is kappa_j times the base likelihood in every state, where
    kappa = :meth:`kernel` lies in [0, 1], so the base entry splits exactly
    into event and no-event parts and observing the event carries no
    information beyond the signal.  The event has the same probability
    ``alpha`` in every state.
    """

    base: Experiment
    event: tuple[tuple[Fraction, ...], ...]
    alpha: Fraction

    def __post_init__(self) -> None:
        base = self.base
        if not isinstance(self.alpha, Fraction):
            raise InvalidInput(f"alpha must be a Fraction, got {self.alpha!r}")
        if not 0 < self.alpha <= 1:
            raise InvalidInput(f"alpha must lie in (0, 1], got {self.alpha}")
        event = self.event
        if not (isinstance(event, tuple) and all(isinstance(row, tuple) for row in event)):
            raise InvalidInput("the event table must be a tuple of tuples")
        _check_table(self.event, base.n_states, base.n_signals, "event table")
        kappa = self.kernel()
        if not all(0 <= k <= 1 for k in kappa):
            raise InvalidInput("event mass must lie between 0 and the base likelihood")
        for row, base_row in zip(self.event, base.matrix):
            for j, entry in enumerate(row):
                if entry != kappa[j] * base_row[j]:
                    raise InvalidInput(
                        f"event likelihood ratio at signal "
                        f"{base.signals[j]!r} depends on the state"
                    )
            mass = sum(row, Fraction(0))
            if mass != self.alpha:
                raise InvalidInput(
                    f"event probability must be {self.alpha} in every state, "
                    f"found {mass}"
                )

    def kernel(self) -> tuple[Fraction, ...]:
        """Per-signal event probability kappa(event | s'); 0 on null signals."""
        out = []
        for j in range(self.base.n_signals):
            ratio = Fraction(0)
            for t in range(self.base.n_states):
                if self.base.matrix[t][j] > 0:
                    ratio = self.event[t][j] / self.base.matrix[t][j]
                    break
            out.append(ratio)
        return tuple(out)


def to_conditional(
    pi_prime: Experiment, weight: Weight | GarblingCertificate
) -> ConditionalExperiment:
    """Repackage a weight as a state-independent event on ``pi_prime``.

    The event keeps the fraction gamma(s') / beta of each signal's mass,
    so alpha = 1 / beta and the signal distribution conditional on the
    event is exactly the reweighted experiment.  A certificate stands in
    for its weight as long as it concerns ``pi_prime``.
    """
    if isinstance(weight, GarblingCertificate):
        if weight.pi_prime != pi_prime:
            raise InvalidInput("certificate does not concern this experiment")
        weight = weight.weight()
    else:
        _require_weight(pi_prime, weight.values)
    beta = weight.size
    event = tuple(
        tuple(v / beta * p for v, p in zip(weight.values, row))
        for row in pi_prime.matrix
    )
    return ConditionalExperiment(base=pi_prime, event=event, alpha=1 / beta)


def from_conditional(
    conditional: ConditionalExperiment, pi: Experiment
) -> GarblingCertificate:
    """Recover a weighted-garbling certificate from a conditional experiment.

    The weight is gamma(s') = kappa(event|s') / alpha, and the signal
    distribution conditional on the event is the base experiment reweighted
    by it.  ``pi`` is a Blackwell garbling of that distribution exactly when
    the psi program with column sums equal to gamma is feasible, and its
    solution, solved cold past the blocks, is a certificate of size
    max kappa / alpha.  Raises :class:`OrderError` when it is not.
    """
    gamma = tuple(k / conditional.alpha for k in conditional.kernel())
    base = conditional.base
    if _relax(pi, base)[0]:
        outcome = solve(_psi_program(pi, base, ((), EQ, gamma)))
        if outcome.status != INFEASIBLE:
            return _certify(pi, base, outcome.x)
    raise OrderError(
        "the experiment is not a Blackwell garbling of the event-conditional distribution"
    )
