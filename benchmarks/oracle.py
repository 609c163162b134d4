"""Independent oracles for a seeded sample of the benchmark's answers.

* Size intervals are re-derived by vertex enumeration: every basis of the
  minimal-size and per-column maximal-size programs is solved by exact
  Gaussian elimination, sharing no code with ``expord.numerics``.  It is
  exponential in the program size, so only small pairs are sampled.
  ``sympy.solvers.simplex.lpmin`` (sympy 1.14) was tried first and
  rejected: on these degenerate equality programs it returns 0 for
  infeasible ones, reports feasible ones as infeasible, and cycles.
* The symmetric family of acceptance criterion 1 has closed-form size
  intervals: for binary symmetric ``q`` against the three-signal family
  ``q'`` (with ``1/2 < q'`` and ``q <= q'``) the sizes form
  ``[max(1, 2(2q-1)/(2q'-1)), 2]``; against binary symmetric ``q'`` they
  are ``[1, 1]``; with ``q > q'`` the pair is unordered.
* Payoff-bound slacks are recomputed with plain loops, sharing no code with
  ``expord.value``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

HALF = Fraction(1, 2)

# Largest psi (signals x signals) handled by vertex enumeration.
MAX_PSI_ENTRIES = 9


def _solve_square(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact solution of a square system, or None when it is singular."""
    n = len(rows)
    grid = [row[:] + [value] for row, value in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if grid[r][col] != 0), None)
        if pivot is None:
            return None
        grid[col], grid[pivot] = grid[pivot], grid[col]
        lead = grid[col][col]
        grid[col] = [entry / lead for entry in grid[col]]
        for r in range(n):
            if r != col and grid[r][col] != 0:
                factor = grid[r][col]
                grid[r] = [a - factor * b for a, b in zip(grid[r], grid[col])]
    return [grid[r][n] for r in range(n)]


def _independent_rows(rows, rhs):
    """Drop linearly dependent equality rows; None when they are inconsistent."""
    kept_rows, kept_rhs, echelon = [], [], []
    for row, value in zip(rows, rhs):
        reduced = row[:] + [value]
        for pivot_col, basis_row in echelon:
            if reduced[pivot_col] != 0:
                factor = reduced[pivot_col] / basis_row[pivot_col]
                reduced = [a - factor * b for a, b in zip(reduced, basis_row)]
        lead = next((c for c in range(len(row)) if reduced[c] != 0), None)
        if lead is None:
            if reduced[-1] != 0:
                return None
            continue
        echelon.append((lead, reduced))
        kept_rows.append(row)
        kept_rhs.append(value)
    return kept_rows, kept_rhs


def _vertex_max(objective, rows, rhs) -> Fraction | None:
    """max objective . x over {x >= 0 : rows x = rhs}; None when empty.

    The maximum of a bounded feasible program is attained at a basic
    feasible solution, so trying every basis finds it.
    """
    independent = _independent_rows(rows, rhs)
    if independent is None:
        return None
    rows, rhs = independent
    n, m = len(objective), len(rows)
    best = None
    for basis in combinations(range(n), m):
        square = [[row[j] for j in basis] for row in rows]
        point = _solve_square(square, rhs) if m else []
        if point is None or any(value < 0 for value in point):
            continue
        worth = sum((objective[j] * value for j, value in zip(basis, point)), Fraction(0))
        best = worth if best is None or worth > best else best
    return best


def _psi_rows(pi, pi_prime, extra: int):
    """Reproduction rows over psi (signal-major), padded with zero columns."""
    n_sp = pi_prime.n_signals
    n_psi = pi.n_signals * n_sp
    rows, rhs = [], []
    for i in range(pi.n_signals):
        for t in range(pi.n_states):
            row = [Fraction(0)] * (n_psi + extra)
            for j in range(n_sp):
                row[i * n_sp + j] = pi_prime.matrix[t][j]
            rows.append(row)
            rhs.append(pi.matrix[t][i])
    return rows, rhs


def enumerable(pi, pi_prime) -> bool:
    return pi.n_signals * pi_prime.n_signals <= MAX_PSI_ENTRIES


def vertex_size_interval(pi, pi_prime):
    """(beta_min, beta_max or None when unbounded), or None when unordered."""
    n_s, n_sp = pi.n_signals, pi_prime.n_signals
    n_psi = n_s * n_sp
    # min t  s.t.  column sums + slack = t, i.e. columns - t + slack = 0.
    rows, rhs = _psi_rows(pi, pi_prime, 1 + n_sp)
    for j in range(n_sp):
        row = [Fraction(0)] * (n_psi + 1 + n_sp)
        for i in range(n_s):
            row[i * n_sp + j] = Fraction(1)
        row[n_psi] = Fraction(-1)
        row[n_psi + 1 + j] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(0))
    objective = [Fraction(0)] * (n_psi + 1 + n_sp)
    objective[n_psi] = Fraction(-1)
    lowest = _vertex_max(objective, rows, rhs)
    if lowest is None:
        return None
    rows, rhs = _psi_rows(pi, pi_prime, 0)
    highest = None
    for j in range(n_sp):
        column = [Fraction(1) if k % n_sp == j else Fraction(0) for k in range(n_psi)]
        # An improving ray exists exactly when some d >= 0 with rows d = 0
        # and sum d = 1 has a positive column sum.
        ray = _vertex_max(
            column,
            rows + [[Fraction(1)] * n_psi],
            [Fraction(0)] * len(rows) + [Fraction(1)],
        )
        if ray is not None and ray > 0:
            return -lowest, None
        peak = _vertex_max(column, rows, rhs)
        highest = peak if highest is None or peak > highest else highest
    return -lowest, highest


def symmetric_family_interval(pi, pi_prime):
    """Closed-form answer for a symmetric-family pair, or ``False`` when the
    pair is not one (a closed form is only known for that family)."""
    if pi.signals != ("s1", "s2") or pi.n_states != 2:
        return False
    q = pi.matrix[0][0]
    if pi.matrix != ((q, 1 - q), (1 - q, q)):
        return False
    if pi_prime.signals == ("s1", "s2"):
        q_prime = pi_prime.matrix[0][0]
        if pi_prime.matrix != ((q_prime, 1 - q_prime), (1 - q_prime, q_prime)):
            return False
        if q < HALF or q_prime <= HALF:
            return False
        return (Fraction(1), Fraction(1)) if q <= q_prime else None
    if pi_prime.signals == ("s0", "s1", "s2"):
        q_prime = 2 * pi_prime.matrix[0][1]
        expected = (
            (HALF, q_prime / 2, (1 - q_prime) / 2),
            (HALF, (1 - q_prime) / 2, q_prime / 2),
        )
        if pi_prime.matrix != expected or q < HALF or q_prime <= HALF:
            return False
        if q > q_prime:
            return None
        return max(Fraction(1), 2 * (2 * q - 1) / (2 * q_prime - 1)), Fraction(2)
    return False


def independent_slack(problem, pi, pi_prime, beta: Fraction) -> Fraction:
    """V(P') - [V(P)/beta + (1 - 1/beta) V(null)] from first principles."""
    prior = problem.prior.weights
    states = range(len(prior))

    def worth(matrix, n_signals):
        total = Fraction(0)
        for j in range(n_signals):
            total += max(
                sum(payoff[t] * matrix[t][j] * prior[t] for t in states)
                for payoff in problem.payoffs
            )
        return total

    null = max(sum(payoff[t] * prior[t] for t in states) for payoff in problem.payoffs)
    richer = worth(pi_prime.matrix, pi_prime.n_signals)
    coarser = worth(pi.matrix, pi.n_signals)
    return richer - (coarser / beta + (1 - 1 / beta) * null)
