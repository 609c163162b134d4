"""The Fraction-tableau simplex and Fraction certificate checks, kept as test-only references.

This is the solver ``expord.numerics.solve`` used before it moved to integer
(fraction-free) pivots.  Both run the same two-phase Bland simplex, so on
every input they must return identical outcomes: the same status, point,
objective, Farkas multipliers and ray.  ``tests/test_numerics.py`` compares
them.  Every tableau entry here is a ``fractions.Fraction``.

The certificate checks are the Fraction bodies ``solution_feasible``,
``farkas_verifies`` and ``ray_verifies`` had before they read the integer
form of a program, and ``dual_program`` is the explicit LP dual, whose
feasible points with the primal optimum as value are exactly the duals
``dual_verifies`` accepts.
"""

from __future__ import annotations

from fractions import Fraction

from expord.numerics import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    InvalidInput,
    LinearProgram,
    LpOutcome,
    evaluate_row,
)


def solution_feasible(lp: LinearProgram, x) -> bool:
    """Exact feasibility check of a candidate point."""
    if len(x) != lp.n_variables:
        return False
    for flag, value in zip(lp.nonneg, x):
        if flag and value < 0:
            return False
    for coeffs, relation, rhs in lp.rows:
        lhs = evaluate_row(coeffs, x)
        if relation == LE and lhs > rhs:
            return False
        if relation == GE and lhs < rhs:
            return False
        if relation == EQ and lhs != rhs:
            return False
    return True


def farkas_verifies(lp: LinearProgram, y) -> bool:
    """Check a Farkas certificate of infeasibility by substitution."""
    if len(y) != len(lp.rows):
        return False
    for multiplier, (_coeffs, relation, _rhs) in zip(y, lp.rows):
        if relation == LE and multiplier > 0:
            return False
        if relation == GE and multiplier < 0:
            return False
    for j in range(lp.n_variables):
        aggregate = sum(
            (multiplier * row[0][j] for multiplier, row in zip(y, lp.rows)),
            Fraction(0),
        )
        if lp.nonneg[j]:
            if aggregate > 0:
                return False
        elif aggregate != 0:
            return False
    combination = sum(
        (multiplier * row[2] for multiplier, row in zip(y, lp.rows)), Fraction(0)
    )
    return combination > 0


def ray_verifies(lp: LinearProgram, ray) -> bool:
    """Check an unbounded ray: feasible direction with improving objective."""
    if len(ray) != lp.n_variables or all(r == 0 for r in ray):
        return False
    for flag, value in zip(lp.nonneg, ray):
        if flag and value < 0:
            return False
    for coeffs, relation, _rhs in lp.rows:
        drift = evaluate_row(coeffs, ray)
        if relation == LE and drift > 0:
            return False
        if relation == GE and drift < 0:
            return False
        if relation == EQ and drift != 0:
            return False
    gain = evaluate_row(lp.objective, ray)
    return gain < 0 if lp.sense == "min" else gain > 0


def dual_program(lp: LinearProgram) -> LinearProgram:
    """The exact LP dual, with one free variable per primal row.

    Sign restrictions on the multipliers are expressed as explicit unit
    rows, so an optimal dual point is literally the vector of multipliers
    for the primal rows in order.  Strong duality makes the two optimal
    objectives equal whenever both programs are feasible.
    """
    if not lp.rows:
        raise InvalidInput("the dual needs at least one primal row")
    minimizing = lp.sense == "min"
    n_rows = len(lp.rows)
    rows = []
    for j in range(lp.n_variables):
        column = tuple(lp.rows[i][0][j] for i in range(n_rows))
        if lp.nonneg[j]:
            rows.append((column, LE if minimizing else GE, lp.objective[j]))
        else:
            rows.append((column, EQ, lp.objective[j]))
    for i, (_coeffs, relation, _rhs) in enumerate(lp.rows):
        unit = tuple(
            Fraction(1) if k == i else Fraction(0) for k in range(n_rows)
        )
        if relation == LE:
            rows.append((unit, LE if minimizing else GE, Fraction(0)))
        elif relation == GE:
            rows.append((unit, GE if minimizing else LE, Fraction(0)))
    return LinearProgram(
        objective=tuple(row[2] for row in lp.rows),
        sense="max" if minimizing else "min",
        rows=tuple(rows),
        nonneg=tuple(False for _ in range(n_rows)),
    )


def dual_verifies(lp: LinearProgram, y, value) -> bool:
    """``y`` is a point of ``dual_program(lp)`` whose dual objective is ``value``."""
    dual = dual_program(lp)
    return solution_feasible(dual, y) and evaluate_row(dual.objective, y) == value


class _Tableau:
    """Dense simplex tableau over Fractions with Bland pivoting."""

    def __init__(self, rows: list[list[Fraction]], basis: list[int]) -> None:
        self.rows = rows              # each row: coefficients + [rhs]
        self.basis = basis            # basis[i] = column basic in row i
        self.n_cols = len(rows[0]) - 1 if rows else 0

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        reduced = list(cost)
        for i, row in enumerate(self.rows):
            basic_cost = cost[self.basis[i]]
            if basic_cost == 0:
                continue
            for j in range(self.n_cols):
                if row[j] != 0:
                    reduced[j] -= basic_cost * row[j]
        return reduced

    def pivot(self, pivot_row: int, pivot_col: int) -> None:
        row = self.rows[pivot_row]
        factor = row[pivot_col]
        if factor != 1:
            self.rows[pivot_row] = row = [entry / factor for entry in row]
        for i, other in enumerate(self.rows):
            if i == pivot_row or other[pivot_col] == 0:
                continue
            scale = other[pivot_col]
            self.rows[i] = [a - scale * b for a, b in zip(other, row)]
        self.basis[pivot_row] = pivot_col

    def minimize(self, cost: list[Fraction], banned: frozenset[int]) -> tuple[str, int | None]:
        """Bland's rule: lowest-index entering column, lowest basic index on ties."""
        basic = set(self.basis)
        while True:
            reduced = self.reduced_costs(cost)
            entering = None
            for j in range(self.n_cols):
                if j in banned or j in basic:
                    continue
                if reduced[j] < 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL, None
            pivot_row = None
            best_ratio: Fraction | None = None
            for i, row in enumerate(self.rows):
                if row[entering] <= 0:
                    continue
                ratio = row[-1] / row[entering]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and self.basis[i] < self.basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
            if pivot_row is None:
                return UNBOUNDED, entering
            basic.discard(self.basis[pivot_row])
            basic.add(entering)
            self.pivot(pivot_row, entering)

    def basic_solution(self) -> dict[int, Fraction]:
        return {self.basis[i]: self.rows[i][-1] for i in range(len(self.rows))}


def reference_solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` with the Fraction tableau; no certificate is re-checked."""
    n = lp.n_variables
    minimize = lp.sense == "min"
    cost_orig = list(lp.objective) if minimize else [-c for c in lp.objective]

    col_var: list[tuple[int, int]] = []
    for j in range(n):
        col_var.append((j, 1))
        if not lp.nonneg[j]:
            col_var.append((j, -1))
    n_struct = len(col_var)

    m = len(lp.rows)
    flipped = [row[2] < 0 for row in lp.rows]
    prepared: list[tuple[list[Fraction], str, Fraction]] = []
    for flip, (coeffs, relation, rhs) in zip(flipped, lp.rows):
        if flip:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            relation = {LE: GE, GE: LE, EQ: EQ}[relation]
        else:
            coeffs = list(coeffs)
        prepared.append((coeffs, relation, rhs))

    n_slack = sum(1 for _c, relation, _r in prepared if relation != EQ)
    n_art = sum(1 for _c, relation, _r in prepared if relation != LE)
    n_cols = n_struct + n_slack + n_art

    rows: list[list[Fraction]] = []
    basis: list[int] = []
    init_col: list[int] = []
    init_cost: list[Fraction] = []
    slack_at = n_struct
    art_at = n_struct + n_slack
    zero = Fraction(0)
    one = Fraction(1)
    for coeffs, relation, rhs in prepared:
        row = [zero] * n_cols + [rhs]
        for col, (var, sign) in enumerate(col_var):
            if coeffs[var] != 0:
                row[col] = sign * coeffs[var]
        if relation != EQ:
            row[slack_at] = one if relation == LE else -one
            slack_at += 1
        if relation == LE:
            basis.append(slack_at - 1)
            init_col.append(slack_at - 1)
            init_cost.append(zero)
        else:
            row[art_at] = one
            basis.append(art_at)
            init_col.append(art_at)
            init_cost.append(one)
            art_at += 1
        rows.append(row)

    artificial_cols = frozenset(range(n_struct + n_slack, n_cols))
    tableau = _Tableau(rows, basis)

    def extract_point() -> tuple[Fraction, ...]:
        values = tableau.basic_solution()
        point = [zero] * n
        for col, value in values.items():
            if col < n_struct:
                var, sign = col_var[col]
                point[var] += sign * value
        return tuple(point)

    if m > 0:
        phase1_cost = [one if j in artificial_cols else zero for j in range(n_cols)]
        status, _ = tableau.minimize(phase1_cost, banned=frozenset())
        assert status == OPTIMAL
        residue = sum(
            (tableau.rows[i][-1] for i in range(m) if tableau.basis[i] in artificial_cols),
            zero,
        )
        if residue > 0:
            reduced = tableau.reduced_costs(phase1_cost)
            y = []
            for i in range(m):
                multiplier = init_cost[i] - reduced[init_col[i]]
                y.append(-multiplier if flipped[i] else multiplier)
            return LpOutcome(status=INFEASIBLE, farkas=tuple(y))

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
                del tableau.rows[i]
                del tableau.basis[i]

    phase2_cost = [zero] * n_cols
    for col, (var, sign) in enumerate(col_var):
        phase2_cost[col] = sign * cost_orig[var]
    status, entering = tableau.minimize(phase2_cost, banned=artificial_cols)

    if status == UNBOUNDED:
        direction_std = {entering: one}
        for i, row in enumerate(tableau.rows):
            if row[entering] != 0:
                direction_std[tableau.basis[i]] = -row[entering]
        ray = [zero] * n
        for col, value in direction_std.items():
            if col < n_struct:
                var, sign = col_var[col]
                ray[var] += sign * value
        return LpOutcome(status=UNBOUNDED, x=extract_point(), ray=tuple(ray))

    point = extract_point()
    return LpOutcome(status=OPTIMAL, x=point, objective=evaluate_row(lp.objective, point))
