"""Exact rational arithmetic and an exact dense LP solver.

Inputs and outputs are ``fractions.Fraction``s: programs are stated and
solutions, certificates and rays are returned in exact rationals.  The
solver is a two-phase primal simplex with Bland's anti-cycling rule, so it
terminates on every input and never approximates.  Its tableau holds Python
integers and pivots fraction-free (Bareiss).  Each row stands over the
positive denominator it was last brought up to, and a pivot rewrites only
the rows with a nonzero entry in its column, each by exact integer
quotients; rows are brought up to the shared denominator before a phase
starts and before a point or ray is read.  This gives the same pivots as a
Fraction tableau, without a gcd per entry.  Phase one reads only the rows
and sign flags, never the objective, so a caller that asks several
objectives over the same rows runs it once (``_phase_one``) and finishes
each objective from the feasible tableau it leaves (``_phase_two``, which
works on a copy); each outcome is the one :func:`solve` gives for that
objective; a caller that needs only a start's own point reads it off the
start (``_basic_point``), checked, with no phase two.  A caller that
already knows a feasible basis passes its structural columns to
``_phase_one`` as a crash start: one pivot per column and no Bland search,
and if the basic point they give is not feasible, phase one runs cold as if
no columns were given.  Phase two then finds an optimum of the same value,
but possibly another optimal vertex and dual than a cold start finds.
Outcomes carry machine-checkable evidence: an optimal point and its dual, a
Farkas certificate of infeasibility, or an unbounded ray.  Every outcome is
verified before it is returned by one integer body per kind of check, a
primal one and a dual one, over one integer form of the program's rows.
Phase two runs them on the tableau's own integers, with the objective as an
argument, and builds the Fractions it returns from the integers it checked;
the public checks run the same bodies on Fractions.  A failed check raises
:class:`InternalError` and survives ``python -O``.

The solver is meant for the small dense programs that arise when comparing
finite statistical experiments (tens of variables, tens of rows).  It makes
no attempt at sparsity or revised-simplex efficiency.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import mul
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

LE = "<="
EQ = "="
GE = ">="
RELATIONS = (LE, EQ, GE)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+|\.\d+)?$")


class InvalidInput(ValueError):
    """A malformed object or argument was rejected before any computation."""


class InternalError(RuntimeError):
    """The solver's own certificate check failed: a defect, not bad input."""


def parse_rational(text: str) -> Fraction:
    """Parse ``'a/b'`` or a finite decimal string into an exact Fraction.

    Accepts optional sign, an integer, a ratio of integers, or a decimal
    with a fractional part.  Anything else (floats in scientific notation,
    infinities, empty strings) is rejected.
    """
    if not isinstance(text, str):
        raise InvalidInput(f"expected a string, got {type(text).__name__}")
    stripped = text.strip()
    if not _RATIONAL_RE.match(stripped):
        raise InvalidInput(f"not a rational literal: {text!r}")
    try:
        if "/" not in stripped:
            return Fraction(stripped)
        num_text, den_text = stripped.split("/")
        num, den = int(num_text), int(den_text)
    except ValueError as error:  # more digits than int() accepts from a string
        raise InvalidInput(f"rational literal out of range: {error}") from None
    if den == 0:
        raise InvalidInput(f"zero denominator: {text!r}")
    return Fraction(num, den)


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or rational string to a Fraction.

    Floats are rejected on purpose: silently converting binary floats
    would smuggle rounding error into exact computations.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInput("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidInput(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class LinearProgram:
    """A linear program in exact rationals.

    ``rows`` is a tuple of ``(coefficients, relation, rhs)`` triples where
    ``relation`` is one of ``"<="``, ``"="``, ``">="``.  ``nonneg[j]`` marks
    variable ``j`` as sign-constrained; the rest are free.  Every number is
    a ``Fraction`` and every flag a ``bool``; :func:`linear_program`
    converts looser input.
    """

    objective: tuple[Fraction, ...]
    sense: str
    rows: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(part, tuple) for part in (self.objective, self.rows, self.nonneg)):
            raise InvalidInput("objective, rows and nonneg flags must be tuples")
        n = len(self.objective)
        if n == 0:
            raise InvalidInput("a linear program needs at least one variable")
        if self.sense not in ("min", "max"):
            raise InvalidInput(f"sense must be 'min' or 'max', got {self.sense!r}")
        if len(self.nonneg) != n:
            raise InvalidInput("nonneg flags must match the variable count")
        if not all(isinstance(flag, bool) for flag in self.nonneg):
            raise InvalidInput("nonneg flags must be bools")
        if not all(isinstance(c, Fraction) for c in self.objective):
            raise InvalidInput("objective coefficients must be Fractions")
        for row in self.rows:
            if not (isinstance(row, tuple) and len(row) == 3 and isinstance(row[0], tuple)):
                raise InvalidInput("each row must be a (coefficients tuple, relation, rhs) tuple")
            coeffs, relation, rhs = row
            if len(coeffs) != n:
                raise InvalidInput(
                    f"row has {len(coeffs)} coefficients, expected {n}"
                )
            if relation not in RELATIONS:
                raise InvalidInput(f"unknown relation {relation!r}")
            if not (isinstance(rhs, Fraction) and all(map(isinstance, coeffs, repeat(Fraction)))):
                raise InvalidInput("row coefficients and right-hand sides must be Fractions")
        if not self.rows and all(c == 0 for c in self.objective):
            raise InvalidInput("program has neither constraints nor an objective")

    @property
    def n_variables(self) -> int:
        return len(self.objective)

    @cached_property
    def _integer_rows(self) -> tuple[tuple[tuple[tuple[int, ...], str, int], ...], int]:
        """Rows as ``(D * coefficients, relation, D * rhs)`` in ints, and ``D``.

        ``D`` is the LCM of the row denominators.  Free variables are not split.
        """
        flat, scale = _clear_denominators(
            [v for coeffs, _relation, rhs in self.rows for v in (*coeffs, rhs)]
        )
        n = self.n_variables
        # A list, not a generator: a tuple built from a generator grows by
        # resizing, which leaves blocks parked on CPython's tuple free lists.
        return tuple([
            (tuple(flat[k * (n + 1) : k * (n + 1) + n]), relation, flat[k * (n + 1) + n])
            for k, (_coeffs, relation, _rhs) in enumerate(self.rows)
        ]), scale


def linear_program(
    objective: Sequence[RationalLike],
    rows: Iterable[tuple[Sequence[RationalLike], str, RationalLike]],
    sense: str = "min",
    nonneg: Sequence[bool] | None = None,
) -> LinearProgram:
    """Build a validated :class:`LinearProgram` from loosely typed input."""
    obj = tuple(as_rational(c) for c in objective)
    prepared = tuple(
        (tuple(as_rational(c) for c in coeffs), relation, as_rational(rhs))
        for coeffs, relation, rhs in rows
    )
    flags = (True,) * len(obj) if nonneg is None else tuple(nonneg)
    return LinearProgram(objective=obj, sense=sense, rows=prepared, nonneg=flags)


@dataclass(frozen=True)
class LpOutcome:
    """Result of :func:`solve`, always in exact rationals.

    Exactly one of the three statuses is set.  ``x``, ``objective`` and
    ``dual`` are present when optimal, ``farkas`` when infeasible, and
    ``ray`` (plus the feasible point ``x`` it emanates from) when unbounded.
    Outcomes compare equal regardless of ``dual``.
    """

    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    farkas: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = field(default=None, compare=False)


def evaluate_row(coeffs: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
    return sum((c * v for c, v in zip(coeffs, x)), Fraction(0))


def _primal_holds(lp: LinearProgram, values: Sequence[int], scale: int) -> bool:
    """The ints ``values / scale`` keep every sign flag and row of ``lp``; scale 0 checks a ray."""
    if any(flag and value < 0 for flag, value in zip(lp.nonneg, values)):
        return False
    rows, _ = lp._integer_rows
    for coeffs, relation, rhs in rows:
        lhs = sum(map(mul, coeffs, values))
        bound = rhs * scale
        if lhs > bound if relation == LE else lhs < bound if relation == GE else lhs != bound:
            return False
    return True


def _dual_holds(
    lp: LinearProgram, multipliers: Sequence[int], scale: int, costs: Sequence[int], cost_scale: int
) -> int | None:
    """``y . b`` over ``scale * D`` if ``y`` is feasible for the dual of min ``c . x``, else None.

    ``y = multipliers / scale`` and ``c = costs / cost_scale`` come in ints,
    ``D`` is the scale of ``lp._integer_rows``, and ``lp.objective`` is unread.
    Feasible means y_i <= 0 on "<=" rows, y_i >= 0 on ">=" rows, and
    (y^T A)_j <= c_j on sign-constrained columns, == on free ones; then
    every feasible x has c . x >= (y^T A) x >= y . b.
    """
    rows, row_scale = lp._integer_rows
    aggregate = [0] * lp.n_variables
    for multiplier, (coeffs, relation, _rhs) in zip(multipliers, rows):
        if relation == LE and multiplier > 0 or relation == GE and multiplier < 0:
            return None
        if multiplier:
            aggregate = [a + multiplier * c for a, c in zip(aggregate, coeffs)]
    # aggregate is (y^T A) * scale * row_scale; compare it over one denominator.
    factor = scale * row_scale
    for flag, a, c in zip(lp.nonneg, aggregate, costs):
        lhs, rhs = a * cost_scale, c * factor
        if lhs > rhs if flag else lhs != rhs:
            return None
    return sum(map(mul, multipliers, [rhs for _c, _r, rhs in rows]))


def _dual_value(
    lp: LinearProgram, y: Sequence[Fraction], cost: Sequence[Fraction], sign: int = 1
) -> Fraction | None:
    """``y . b`` if ``y`` is feasible for the dual of min ``cost . x`` over ``lp``, else None.

    :func:`_dual_holds` on Fractions; with ``sign = -1`` it checks ``-y`` and ``-cost``.
    """
    if len(y) != len(lp.rows):
        return None
    multipliers, scale = _clear_denominators([sign * v for v in y])
    found = _dual_holds(lp, multipliers, scale, *_clear_denominators([sign * c for c in cost]))
    return None if found is None else Fraction(found, scale * lp._integer_rows[1])


def solution_feasible(lp: LinearProgram, x: Sequence[Fraction]) -> bool:
    """Exact feasibility check of a candidate point."""
    return len(x) == lp.n_variables and _primal_holds(lp, *_clear_denominators(x))


def farkas_verifies(lp: LinearProgram, y: Sequence[Fraction]) -> bool:
    """Check a Farkas certificate of infeasibility by substitution.

    The certificate is a feasible dual at zero cost with y . b > 0, so any
    feasible x would give 0 >= (y^T A) x >= y . b > 0.
    """
    value = _dual_value(lp, y, [0] * lp.n_variables)
    return value is not None and value > 0


def dual_verifies(lp: LinearProgram, y: Sequence[Fraction], value: Fraction) -> bool:
    """Check an optimality certificate: a feasible dual whose value is ``value``.

    The dual is that of :func:`_dual_value` for a min program, with every
    sign flipped for a max one.  By weak duality no feasible point beats
    ``value``, so a feasible point that attains it is optimal.
    """
    sign = 1 if lp.sense == "min" else -1
    found = _dual_value(lp, y, lp.objective, sign)
    return found is not None and found == sign * value


def ray_verifies(lp: LinearProgram, ray: Sequence[Fraction]) -> bool:
    """Check an unbounded ray: feasible direction with improving objective."""
    if len(ray) != lp.n_variables or not any(ray):
        return False
    gain = evaluate_row(lp.objective, ray)
    improves = gain < 0 if lp.sense == "min" else gain > 0
    return improves and _primal_holds(lp, _clear_denominators(ray)[0], 0)


class _Tableau:
    """Dense simplex tableau over integers, each row over a denominator of its own.

    Entry ``rows[i][j]`` stands for the rational ``rows[i][j] / at[i]``, where
    ``at[i]`` is the shared denominator ``d`` as it stood when row ``i`` was
    last rewritten; ``cost[j]``, the reduced-cost row of the current phase,
    stands for ``cost[j] / d`` and is rewritten by every pivot.  ``d`` stays
    positive.  A pivot is a fraction-free (Bareiss) step that rewrites only
    the rows with a nonzero entry in the pivot column: each new entry is an
    exact integer quotient by the row's old denominator, and the pivot entry
    becomes the new ``d``, so a pivot takes no gcd.  Every row brought up to
    ``d`` holds the integers the same step would give if it rewrote every
    row.  A positive row scale changes no sign and no ratio, so the pivots,
    by Bland's rule, are those of a tableau over Fractions.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], n_cols: int) -> None:
        self.rows = rows              # each row: coefficients + [rhs]
        self.at = [1] * len(rows)     # at[i] = the denominator of rows[i]
        self.basis = basis            # basis[i] = column basic in row i
        self.n_cols = n_cols          # a program without rows still has columns
        self.d = 1
        self.cost: list[int] = []

    def bring_up(self, i: int) -> list[int]:
        """Row ``i`` rescaled over ``d``; every quotient is exact."""
        row, at, d = self.rows[i], self.at[i], self.d
        if at != d:
            self.rows[i] = row = [a * d // at for a in row]
            self.at[i] = d
        return row

    def bring_all_up(self) -> None:
        for i in range(len(self.rows)):
            self.bring_up(i)

    def drop_row(self, i: int) -> None:
        del self.rows[i], self.at[i], self.basis[i]

    def copy(self) -> _Tableau:
        """A tableau that pivots apart from this one.

        Every step replaces a row with a new list and never writes into
        one, so the copy shares the rows themselves.
        """
        other = _Tableau(list(self.rows), list(self.basis), self.n_cols)
        other.at, other.d, other.cost = list(self.at), self.d, self.cost
        return other

    def set_cost(self, cost: list[int]) -> None:
        """Start a phase: price out the basic columns of integer costs ``cost``."""
        self.bring_all_up()
        d = self.d
        reduced = [d * c for c in cost] + [0]
        for row, col in zip(self.rows, self.basis):
            basic_cost = cost[col]
            if basic_cost:
                reduced = [r - basic_cost * a for r, a in zip(reduced, row)]
        self.cost = reduced

    def pivot(self, pivot_row: int, pivot_col: int) -> None:
        rows, at, d = self.rows, self.at, self.d
        row = self.bring_up(pivot_row)
        p = row[pivot_col]
        if p < 0:
            rows[pivot_row] = row = [-b for b in row]
            p = -p
        for i, other in enumerate(rows):
            f = other[pivot_col]
            if f and i != pivot_row:
                e = at[i]
                rows[i] = [(p * a - f * b) // e for a, b in zip(other, row)]
                at[i] = p
        f = self.cost[pivot_col]
        self.cost = [(p * a - f * b) // d for a, b in zip(self.cost, row)]
        at[pivot_row] = p
        self.d = p
        self.basis[pivot_row] = pivot_col

    def minimize(self, banned: frozenset[int]) -> tuple[str, int | None]:
        """Run Bland's rule to optimality or detect an unbounded column.

        Returns ("optimal", None) or ("unbounded", entering_column).
        Entering choice: lowest-index column with a negative entry in the
        carried cost row (basic columns price out to exactly zero).  Leaving
        choice: lowest basic-variable index among minimum ratios, compared
        by cross-multiplication since both denominators are positive.
        """
        while True:
            cost = self.cost
            entering = None
            for j in range(self.n_cols):
                if cost[j] < 0 and j not in banned:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL, None
            pivot_row = None
            best_rhs = best_entry = 0
            for i, row in enumerate(self.rows):
                entry = row[entering]
                if entry <= 0:
                    continue
                if pivot_row is not None:
                    lhs = row[-1] * best_entry
                    rhs = best_rhs * entry
                    if lhs > rhs:
                        continue
                    if lhs == rhs and self.basis[i] > self.basis[pivot_row]:
                        continue
                pivot_row, best_rhs, best_entry = i, row[-1], entry
            if pivot_row is None:
                return UNBOUNDED, entering
            self.pivot(pivot_row, entering)


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``D * v`` for each ``v`` as ints, and ``D``, the LCM of the denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*{d for _, d in ratios})
    return [n * (scale // d) for n, d in ratios], scale


@dataclass(frozen=True, eq=False)
class _Feasible:
    """A program past phase one, which :func:`_phase_two` finishes for any objective.

    ``tableau`` holds the feasible basis that phase one and the drive-out
    left, every row brought up to ``d``; phase two prices a copy of it and
    never writes it.  ``col_var[c]`` is the variable and sign of structural
    column ``c``, ``flipped[i]`` marks row ``i`` as negated to a nonnegative
    right-hand side, ``init_col[i]`` is row ``i``'s initial identity column,
    ``artificial`` holds the artificial columns, and ``scale`` is the LCM
    ``D`` of the row denominators.
    """

    lp: LinearProgram
    tableau: _Tableau
    col_var: tuple[tuple[int, int], ...]
    flipped: tuple[bool, ...]
    init_col: tuple[int, ...]
    artificial: frozenset[int]
    scale: int


def _multipliers(start: _Feasible, tableau: _Tableau, costs: list[int]) -> list[int]:
    """One multiplier per row of ``start.lp``, over ``tableau.d``, read off its cost row.

    Row i's multiplier is the phase cost less the reduced cost at its
    identity column, negated on a row that phase one flipped.
    """
    d, reduced = tableau.d, tableau.cost
    return [
        reduced[col] - costs[col] * d if flip else costs[col] * d - reduced[col]
        for col, flip in zip(start.init_col, start.flipped)
    ]


def _crashed(
    tableau: _Tableau, crash: Sequence[tuple[int, int | None]], artificial: frozenset[int]
) -> bool:
    """Pivot each ``(column, row)`` of ``crash`` in; True if that ends phase one.

    A row of None is the first row whose basic column is artificial and
    whose entry in the column is nonzero.  The point is phase one's optimum
    when every basic value is nonnegative and every basic artificial is zero.
    """
    for col, row in crash:
        if row is None:
            row = next(
                (i for i, (basic, entries) in enumerate(zip(tableau.basis, tableau.rows))
                 if basic in artificial and entries[col]),
                None,
            )
        if row is None or not tableau.rows[row][col]:
            return False
        tableau.pivot(row, col)
    # Every denominator is positive, so a value's sign is its numerator's.
    return all(
        row[-1] == 0 if basic in artificial else row[-1] >= 0
        for basic, row in zip(tableau.basis, tableau.rows)
    )


def _phase_one(
    lp: LinearProgram, crash: Sequence[tuple[int, int | None]] = ()
) -> LpOutcome | _Feasible:
    """Phase one of :func:`solve`: the checked Farkas outcome, or a feasible start.

    It reads the rows and sign flags of ``lp`` and never its objective or
    sense, so one start serves every objective over the same rows.

    ``crash`` lists structural columns to pivot into the initial basis, one
    pivot each and no Bland search, with the row each enters (see
    :func:`_crashed`).  If the basic point they give is feasible with every
    basic artificial at zero, phase one is over and only the drive-out runs;
    otherwise the start is exactly the one ``_phase_one(lp)`` returns.
    """
    n = lp.n_variables

    # Structural columns: one per nonnegative variable, a +/- pair per free one.
    col_var: list[tuple[int, int]] = []
    for j in range(n):
        col_var.append((j, 1))
        if not lp.nonneg[j]:
            col_var.append((j, -1))
    n_struct = len(col_var)

    m = len(lp.rows)
    integer_rows, scale = lp._integer_rows
    flipped = tuple([rhs < 0 for _coeffs, _relation, rhs in integer_rows])
    prepared: list[tuple[Sequence[int], str, int]] = []
    for flip, (coeffs, relation, rhs) in zip(flipped, integer_rows):
        if flip:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            relation = {LE: GE, GE: LE, EQ: EQ}[relation]
        prepared.append((coeffs, relation, rhs))

    n_slack = sum(1 for _c, relation, _r in prepared if relation != EQ)
    n_art = sum(1 for _c, relation, _r in prepared if relation != LE)
    n_cols = n_struct + n_slack + n_art

    rows: list[list[int]] = []
    basis: list[int] = []
    init_col: list[int] = []      # identity column for each row, for duals
    slack_at = n_struct
    art_at = n_struct + n_slack
    for coeffs, relation, rhs in prepared:
        struct = coeffs if n_struct == n else [sign * coeffs[var] for var, sign in col_var]
        row = [*struct, *[0] * (n_cols - n_struct), rhs]
        if relation != EQ:
            row[slack_at] = 1 if relation == LE else -1
            slack_at += 1
        if relation == LE:
            basis.append(slack_at - 1)
            init_col.append(slack_at - 1)
        else:
            row[art_at] = 1
            basis.append(art_at)
            init_col.append(art_at)
            art_at += 1
        rows.append(row)

    artificial_cols = frozenset(range(n_struct + n_slack, n_cols))
    tableau = _Tableau(rows, basis, n_cols)
    start = _Feasible(lp, tableau, tuple(col_var), flipped, tuple(init_col), artificial_cols, scale)

    if m > 0:
        phase_one = [0] * (n_struct + n_slack) + [1] * n_art
        tableau.set_cost(phase_one)
        if crash:
            if not _crashed(tableau, crash, artificial_cols):
                return _phase_one(lp)
        else:
            status, _ = tableau.minimize(banned=frozenset())
            if status != OPTIMAL:
                raise InternalError("phase one, bounded below by zero, came back unbounded")
        # Basic values are nonnegative, so the artificial mass is positive
        # exactly when one of them is nonzero, whatever the row scales.
        if any(tableau.rows[i][-1] for i in range(m) if tableau.basis[i] in artificial_cols):
            y = tuple([Fraction(v, tableau.d) for v in _multipliers(start, tableau, phase_one)])
            if not farkas_verifies(lp, y):
                raise InternalError("simplex produced a bad Farkas certificate")
            return LpOutcome(status=INFEASIBLE, farkas=y)

        # Drive any degenerate artificials out of the basis; a row whose
        # structural and slack entries are all zero is redundant and dropped.
        for i in range(m - 1, -1, -1):
            if tableau.basis[i] not in artificial_cols:
                continue
            pivot_col = None
            for j in range(n_struct + n_slack):
                if tableau.rows[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col is not None:
                tableau.pivot(i, pivot_col)
            else:
                tableau.drop_row(i)
    tableau.bring_all_up()
    return start


def _basic_point(start: _Feasible, tableau: _Tableau) -> tuple[list[int], tuple[Fraction, ...]]:
    """The basic point of ``tableau``, a tableau of ``start``, checked against ``start.lp``.

    Returns the point's numerators over ``tableau.d`` and the point itself.
    """
    tableau.bring_all_up()
    numerators = [0] * start.lp.n_variables
    for col, row in zip(tableau.basis, tableau.rows):
        if col < len(start.col_var):
            var, sign = start.col_var[col]
            numerators[var] += sign * row[-1]
    if not _primal_holds(start.lp, numerators, tableau.d):
        raise InternalError("simplex produced an infeasible basic point")
    return numerators, tuple([Fraction(v, tableau.d) for v in numerators])


def _phase_two(start: _Feasible, objective: tuple[Fraction, ...], sense: str) -> LpOutcome:
    """Phase two of :func:`solve` from ``start``, for ``objective`` and ``sense``.

    Returns what :func:`solve` returns for ``start.lp`` with that objective
    and sense, and leaves ``start`` as it was.  It builds no priced program:
    the checks run on the tableau's own integers, the point and a ray over
    ``d`` and the dual over ``d`` times the objective's scale, against
    ``objective`` and ``sense``, and the Fractions returned are built from
    the integers checked.
    """
    lp, col_var, scale = start.lp, start.col_var, start.scale
    n_struct = len(col_var)
    minimize = sense == "min"
    tableau = start.tableau.copy()

    # Phase two minimizes costs / cost_scale: the objective, negated for a max program.
    costs, cost_scale = _clear_denominators(objective)
    if not minimize:
        costs = [-c for c in costs]
    phase_two = [sign * costs[var] for var, sign in col_var] + [0] * (tableau.n_cols - n_struct)
    tableau.set_cost(phase_two)
    status, entering = tableau.minimize(banned=start.artificial)
    numerators, point = _basic_point(start, tableau)
    d = tableau.d

    if status == UNBOUNDED:
        # The ray over d: a unit step of the rescaled slack D*s is 1/D in s.
        per_unit = scale if entering >= n_struct else 1
        ray = [0] * lp.n_variables
        if entering < n_struct:
            var, sign = col_var[entering]
            ray[var] += sign * d
        for col, row in zip(tableau.basis, tableau.rows):
            if col < n_struct and row[entering] != 0:
                var, sign = col_var[col]
                ray[var] -= sign * row[entering] * per_unit
        if not (any(ray) and sum(map(mul, costs, ray)) < 0 and _primal_holds(lp, ray, 0)):
            raise InternalError("simplex produced a bad unbounded ray")
        return LpOutcome(status=UNBOUNDED, x=point, ray=tuple([Fraction(r, d) for r in ray]))

    # The min program's dual over d * cost_scale; its value must be the optimum's.
    total = sum(map(mul, costs, numerators))
    dual = [m * scale for m in _multipliers(start, tableau, phase_two)]
    if _dual_holds(lp, dual, d * cost_scale, costs, cost_scale) != scale * total:
        raise InternalError("simplex produced a bad dual certificate")
    sign, over = (1 if minimize else -1), d * cost_scale
    dual = tuple([Fraction(sign * m, over) for m in dual])
    return LpOutcome(status=OPTIMAL, x=point, objective=Fraction(sign * total, over), dual=dual)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve an exact LP, returning a verified outcome.

    The program is brought to standard form (free variables split, rows
    sign-normalized, slacks and artificials appended), then phase one
    minimizes the artificial mass.  Phase one reads only the rows and the
    sign flags, never the objective.  A positive phase-one optimum yields a
    Farkas certificate read off the initial identity columns; otherwise
    phase two optimizes the true objective with artificials barred from
    re-entering the basis.

    Every row is multiplied once by the LCM ``D`` of all row denominators,
    so the simplex runs on integers; slacks and artificials stay unit
    columns, of variables rescaled by ``D``.  Row scaling and a positive
    cost scaling keep every sign and the order of every ratio, so the pivots
    are exactly those of the same simplex over Fractions.  Only a ray along
    an entering slack picks up the factor ``D``.  An optimum's dual is read
    off the final cost row like the Farkas certificate.  Every outcome is
    checked against ``lp`` (an optimum's point and dual, a certificate, a
    ray and its origin), and a failed check raises :class:`InternalError`.
    """
    start = _phase_one(lp)
    return start if isinstance(start, LpOutcome) else _phase_two(start, lp.objective, lp.sense)
