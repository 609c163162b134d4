"""Exact LP solver and rational parsing tests.

Every oracle value here is either forced by construction or checked by
substituting the solver's answer back into the constraints with Fraction
arithmetic.  No tolerances anywhere.
"""

import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expord import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    InternalError,
    InvalidInput,
    as_rational,
    farkas_verifies,
    linear_program,
    parse_rational,
    ray_verifies,
    solution_feasible,
    solve,
)
import expord
from expord import numerics
from expord.generators import corpus_pairs, random_lp
import reference_beliefs
import reference_simplex
from reference_simplex import dual_program, reference_solve

F = Fraction


class TestParseRational:
    def test_plain_fraction(self):
        assert parse_rational("3/5") == F(3, 5)

    def test_decimal_is_exact(self):
        assert parse_rational("0.45") == F(9, 20)

    def test_integer(self):
        assert parse_rational("-7") == F(-7)

    def test_signed_fraction(self):
        assert parse_rational("+2/4") == F(1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InvalidInput):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["", "x", "1/2/3", "1.2.3", "1e3", "nan"])
    def test_non_numeric_rejected(self, bad):
        with pytest.raises(InvalidInput):
            parse_rational(bad)

    @pytest.mark.parametrize("template", ["{}", "1/{}", "{}/7", "0.{}"])
    def test_too_many_digits_is_invalid_input(self, template):
        # More digits than int() converts from a string by default (4300).
        with pytest.raises(InvalidInput):
            parse_rational(template.format("7" * 5000))


class TestAsRational:
    def test_accepts_int_str_fraction(self):
        assert as_rational(3) == F(3)
        assert as_rational("1/3") == F(1, 3)
        assert as_rational(F(2, 7)) == F(2, 7)

    def test_rejects_float(self):
        with pytest.raises(InvalidInput):
            as_rational(0.1)

    def test_rejects_bool(self):
        with pytest.raises(InvalidInput):
            as_rational(True)

    def test_format_round_trip(self):
        for text in ["0", "3/5", "-7/2", "12"]:
            assert str(parse_rational(text)) == text


class TestSolveExamples:
    def test_min_first_coordinate_on_a_segment(self):
        # minimize x1 subject to x1 + x2 = 1, x >= 0
        lp = linear_program(
            objective=[1, 0],
            sense="min",
            rows=[([1, 1], EQ, 1)],
        )
        out = solve(lp)
        assert out.status == OPTIMAL
        assert out.x == (F(0), F(1))
        assert out.objective == 0
        assert solution_feasible(lp, out.x)

    def test_contradictory_equalities_are_infeasible(self):
        lp = linear_program(
            objective=[0],
            sense="min",
            rows=[([1], EQ, 1), ([1], EQ, 0)],
        )
        out = solve(lp)
        assert out.status == INFEASIBLE
        assert out.farkas is not None
        assert farkas_verifies(lp, out.farkas)
        # The textbook multiplier pair also verifies.
        assert farkas_verifies(lp, (F(1), F(-1)))

    def test_max_against_a_single_upper_bound(self):
        lp = linear_program(
            objective=[1],
            sense="max",
            rows=[([1], LE, F(3, 2))],
        )
        out = solve(lp)
        assert out.status == OPTIMAL
        assert out.x == (F(3, 2),)
        assert out.objective == F(3, 2)

    def test_unbounded_carries_a_verifying_ray(self):
        lp = linear_program(
            objective=[1],
            sense="max",
            rows=[([1], GE, 0)],
        )
        out = solve(lp)
        assert out.status == UNBOUNDED
        assert out.ray is not None
        assert ray_verifies(lp, out.ray)

    def test_free_variable_reaches_negative_values(self):
        lp = linear_program(
            objective=[1],
            sense="min",
            rows=[([1], GE, -3)],
            nonneg=[False],
        )
        out = solve(lp)
        assert out.status == OPTIMAL
        assert out.x == (F(-3),)

    def test_degenerate_cycling_guard(self):
        # Classic Beale-style degeneracy; Bland's rule must terminate.
        lp = linear_program(
            objective=[F(-3, 4), 150, F(-1, 50), 6],
            sense="min",
            rows=[
                ([F(1, 4), -60, F(-1, 25), 9], LE, 0),
                ([F(1, 2), -90, F(-1, 50), 3], LE, 0),
                ([0, 0, 1, 0], LE, 1),
            ],
        )
        out = solve(lp)
        assert out.status == OPTIMAL
        assert out.objective == F(-1, 20)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            linear_program(objective=[1, 2], sense="min", rows=[([1], LE, 1)])

    @pytest.mark.parametrize(
        "objective, row, nonneg",
        [
            ((0.5,), ((F(1),), GE, F(1)), (True,)),
            ((F(1),), ((0.5,), GE, F(1)), (True,)),
            ((F(1),), ((F(1),), GE, 0.1), (True,)),
            ((1,), ((F(1),), GE, F(1)), (True,)),
            ((F(1),), ((F(1),), GE, "1/2"), (True,)),
            ((F(1),), ((F(1),), GE, F(1)), ("no",)),
            ((F(1),), ((F(1),), GE, F(1)), (1,)),
        ],
    )
    def test_program_holds_only_fractions_and_bools(self, objective, row, nonneg):
        # linear_program converts such input; the dataclass itself refuses it.
        numerics.LinearProgram(
            objective=(F(1),), sense="min", rows=(((F(1),), GE, F(1)),), nonneg=(True,)
        )
        with pytest.raises(InvalidInput):
            numerics.LinearProgram(objective=objective, sense="min", rows=(row,), nonneg=nonneg)

    @pytest.mark.parametrize("nonneg", [["no"], [None], [1], [0], ["True"]])
    def test_linear_program_refuses_a_flag_that_is_not_a_bool(self, nonneg):
        # bool(flag) would turn "no" into True and None into False unseen.
        assert linear_program([1], [([1], GE, 1)], nonneg=[False]).nonneg == (False,)
        with pytest.raises(InvalidInput, match="nonneg flags must be bools"):
            linear_program([1], [([1], GE, 1)], nonneg=nonneg)

    def test_program_without_rows(self):
        # With no rows the tableau still has one column per variable.
        out = solve(linear_program(objective=[-1], rows=[]))
        assert out.status == UNBOUNDED
        assert out.x == (F(0),) and out.ray == (F(1),)
        out = solve(linear_program(objective=[1, 0], rows=[], sense="min"))
        assert out.status == OPTIMAL
        assert out.objective == 0 and out.dual == ()


class TestDuality:
    def test_dual_of_min_problem_matches(self):
        lp = linear_program(
            objective=[2, 3],
            sense="min",
            rows=[([1, 1], GE, 4), ([1, 2], GE, 6)],
        )
        primal = solve(lp)
        dual = solve(dual_program(lp))
        assert primal.status == OPTIMAL and dual.status == OPTIMAL
        assert primal.objective == dual.objective

    def test_dual_of_max_problem_matches(self):
        lp = linear_program(
            objective=[5, 4],
            sense="max",
            rows=[([6, 4], LE, 24), ([1, 2], LE, 6)],
        )
        primal = solve(lp)
        dual = solve(dual_program(lp))
        assert primal.status == OPTIMAL and dual.status == OPTIMAL
        assert primal.objective == dual.objective

    def test_dual_with_free_variable_and_equality(self):
        lp = linear_program(
            objective=[1, -1],
            sense="min",
            rows=[([1, 1], EQ, 2), ([1, -1], LE, 1)],
            nonneg=[True, False],
        )
        primal = solve(lp)
        dual = solve(dual_program(lp))
        assert primal.status == OPTIMAL and dual.status == OPTIMAL
        assert primal.objective == dual.objective


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_random_lps_certify_their_status(seed):
    import random as _random

    lp = random_lp(_random.Random(seed))
    out = solve(lp)
    if out.status == OPTIMAL:
        assert solution_feasible(lp, out.x)
        dual_out = solve(dual_program(lp))
        assert dual_out.status == OPTIMAL
        assert dual_out.objective == out.objective
    elif out.status == INFEASIBLE:
        assert farkas_verifies(lp, out.farkas)
    else:
        assert out.status == UNBOUNDED
        assert ray_verifies(lp, out.ray)


# ------------------------------------------------ the integer tableau vs Fractions


def _assert_same_outcomes(lps):
    mismatched = [k for k, lp in enumerate(lps) if solve(lp) != reference_solve(lp)]
    assert not mismatched, f"differs from the Fraction tableau at {mismatched[:10]}"


def _corpus_lps(pairs: int) -> list:
    """Every LP the order, belief and value calls solve on the first corpus pairs.

    The belief check reads the order's blocks and solves nothing of its own,
    so its place in the loop asks the hull programs of
    ``reference_beliefs.check_weighted_beliefs`` instead: ``hull-check``,
    ``counterexample`` and ``eta`` still solve programs of that shape.
    """
    captured = []
    real = numerics.solve

    def spy(lp):
        captured.append(lp)
        return real(lp)

    with pytest.MonkeyPatch.context() as patch:
        for info in pkgutil.iter_modules(expord.__path__):
            module = importlib.import_module(f"expord.{info.name}")
            if getattr(module, "solve", None) is real:
                patch.setattr(module, "solve", spy)
        for pi, prior, pi_prime in corpus_pairs(20250814, pairs):
            weighted = expord.check_weighted(pi, pi_prime)
            expord.check_blackwell(pi, pi_prime)
            expord.min_size(pi, pi_prime)
            reference_beliefs.check_weighted_beliefs(pi, pi_prime, prior)
            if weighted is not None:
                expord.size_interval(pi, pi_prime)
            else:
                for beta in (1, 2, 4, 8):
                    expord.falsify_bound(pi, pi_prime, beta)
    return captured


class TestAgainstFractionTableau:
    """``solve`` must return exactly what the Fraction-tableau simplex returns."""

    def test_random_programs(self):
        rng = random.Random(7)
        lps = [random_lp(rng, 6, 6) for _ in range(500)]
        assert {solve(lp).status for lp in lps} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
        _assert_same_outcomes(lps)

    def test_corpus_programs(self):
        lps = _corpus_lps(60)
        assert len(lps) > 400
        _assert_same_outcomes(lps)

    def test_slack_entering_on_a_ray_with_fractional_rows(self):
        # Rows are scaled by D = 6; the surplus of (1/2) x >= 1/3 enters in
        # phase two with no leaving row, and x moves 2 per unit of surplus.
        lp = linear_program(objective=[1], sense="max", rows=[([F(1, 2)], GE, F(1, 3))])
        out = solve(lp)
        assert out == reference_solve(lp)
        assert out.status == UNBOUNDED
        assert out.x == (F(2, 3),) and out.ray == (F(2),)

    def test_negative_pivot_driving_out_a_degenerate_artificial(self, monkeypatch):
        # Phase one starts optimal (x1 and x2 price positive) with the artificial
        # of -x1 - 3 x2 = 0 basic at zero, and its first nonzero entry is -1.
        lp = linear_program(
            objective=[F(4, 3), F(1, 2), F(-1, 2)],
            sense="min",
            rows=[([-1, -3, 0], EQ, 0), ([F(5, 2), -1, 1], LE, 3)],
        )
        pivots = []
        real_pivot = numerics._Tableau.pivot

        def spy(tableau, row, col):
            pivots.append(tableau.rows[row][col])
            real_pivot(tableau, row, col)

        monkeypatch.setattr(numerics._Tableau, "pivot", spy)
        out = solve(lp)
        assert any(p < 0 for p in pivots)
        assert out == reference_solve(lp)
        assert out.status == OPTIMAL
        assert out.x == (0, 0, 3) and out.objective == F(-3, 2)


# ------------------------------------------- the integer checks vs Fraction checks


def _perturbed(vector, rng):
    """``vector`` with one coordinate moved by a small nonzero rational."""
    moved = list(vector)
    moved[rng.randrange(len(moved))] += rng.choice([F(1), F(-1), F(1, 3), F(-1, 2)])
    return tuple(moved)


@pytest.fixture(scope="module")
def random_outcomes():
    rng = random.Random(7)
    lps = [random_lp(rng, 6, 6) for _ in range(500)]
    return [(lp, solve(lp)) for lp in lps]


class TestCertificateChecks:
    """The checks over the integer form give the Fraction checks' verdicts."""

    def test_verdicts_match_the_fraction_checks(self, random_outcomes):
        rng = random.Random(11)
        verdicts = {}
        mismatched = []
        for k, (lp, out) in enumerate(random_outcomes):
            evidence = [v for v in (out.x, out.ray, out.farkas, out.dual) if v]
            for vector in evidence + [_perturbed(v, rng) for v in evidence]:
                calls = []
                if len(vector) == lp.n_variables:
                    calls += [("solution_feasible", (lp, vector)), ("ray_verifies", (lp, vector))]
                if len(vector) == len(lp.rows):
                    calls.append(("farkas_verifies", (lp, vector)))
                    values = [numerics.evaluate_row([b for _c, _r, b in lp.rows], vector)]
                    if out.status == OPTIMAL:
                        values.append(out.objective)
                    calls += [("dual_verifies", (lp, vector, value)) for value in values]
                for name, args in calls:
                    verdict = getattr(numerics, name)(*args)
                    verdicts.setdefault(name, set()).add(verdict)
                    if verdict != getattr(reference_simplex, name)(*args):
                        mismatched.append((k, name, args[1:]))
        assert not mismatched, mismatched[:5]
        assert all(seen == {True, False} for seen in verdicts.values()), verdicts
        assert len(verdicts) == 4

    def test_every_optimum_carries_an_optimal_dual(self, random_outcomes):
        optima = 0
        for lp, out in random_outcomes:
            if out.status != OPTIMAL:
                assert out.dual is None
                continue
            optima += 1
            dual_lp = dual_program(lp)
            assert reference_simplex.solution_feasible(dual_lp, out.dual)
            assert numerics.evaluate_row(dual_lp.objective, out.dual) == out.objective
            assert solve(dual_lp).objective == out.objective
        assert optima > 50


_BOUNDED = linear_program(objective=[2, 3], sense="min", rows=[([1, 1], GE, 4), ([1, 2], GE, 6)])
_UNBOUNDED = linear_program(objective=[1], sense="max", rows=[([1], GE, 0)])


class TestEveryOutcomeIsChecked:
    def test_a_perturbed_dual_is_an_internal_error(self, monkeypatch):
        real = numerics.dual_verifies
        monkeypatch.setattr(
            numerics, "dual_verifies", lambda lp, y, value: real(lp, (y[0] + 1, *y[1:]), value)
        )
        with pytest.raises(InternalError, match="bad dual certificate"):
            solve(_BOUNDED)

    def test_an_infeasible_ray_origin_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "solution_feasible", lambda lp, x: False)
        with pytest.raises(InternalError, match="infeasible basic point"):
            solve(_UNBOUNDED)

    def test_the_dual_check_survives_optimize_flag(self):
        script = (
            "import expord.numerics as numerics\n"
            "real = numerics.dual_verifies\n"
            "numerics.dual_verifies = lambda lp, y, v: real(lp, (y[0] + 1, *y[1:]), v)\n"
            "lp = numerics.linear_program([2, 3], [([1, 1], '>=', 4), ([1, 2], '>=', 6)])\n"
            "try:\n"
            "    numerics.solve(lp)\n"
            "except numerics.InternalError as error:\n"
            "    print('InternalError:', error)\n"
            "print('debug:', __debug__)\n"
        )
        src = os.path.dirname(os.path.dirname(expord.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "debug: False" in done.stdout
        assert "InternalError: simplex produced a bad dual certificate" in done.stdout


def test_self_checks_survive_optimize_flag():
    script = (
        "import expord.numerics as numerics\n"
        "numerics.farkas_verifies = lambda lp, y: False\n"
        "lp = numerics.linear_program([0], [([1], '=', 1), ([1], '=', 0)])\n"
        "try:\n"
        "    numerics.solve(lp)\n"
        "except numerics.InternalError as error:\n"
        "    print('InternalError:', error)\n"
        "print('debug:', __debug__)\n"
    )
    src = os.path.dirname(os.path.dirname(expord.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "debug: False" in done.stdout
    assert "InternalError: simplex produced a bad Farkas certificate" in done.stdout


def test_internal_error_is_not_an_input_error():
    assert not issubclass(InternalError, InvalidInput)


# ------------------------------------------------------ rows rewritten lazily


def _pivot_sequences(tableau_class, solver, lps):
    """The ``(row, col)`` pivots ``solver`` takes on each of ``lps``."""
    sequences = []
    real = tableau_class.pivot

    def spy(tableau, row, col):
        sequences[-1].append((row, col))
        real(tableau, row, col)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableau_class, "pivot", spy)
        for lp in lps:
            sequences.append([])
            solver(lp)
    return sequences


def _assert_same_pivots(lps):
    lazy = _pivot_sequences(numerics._Tableau, solve, lps)
    eager = _pivot_sequences(reference_simplex._Tableau, reference_solve, lps)
    mismatched = [k for k, (a, b) in enumerate(zip(lazy, eager)) if a != b]
    assert not mismatched, f"pivots differ from the Fraction tableau at {mismatched[:10]}"
    assert sum(map(len, lazy)) > len(lps)


def _recording_denominators(monkeypatch):
    """Spy on pivots, recording ``(row, col, at[row], d)`` before each one."""
    seen = []
    real = numerics._Tableau.pivot

    def spy(tableau, row, col):
        seen.append((row, col, tableau.at[row], tableau.d))
        real(tableau, row, col)

    monkeypatch.setattr(numerics._Tableau, "pivot", spy)
    return seen


class TestLazyRows:
    """Pivots rewrite only the rows they change, and the answers stay the same."""

    def test_random_programs_pivot_alike(self):
        rng = random.Random(7)
        _assert_same_pivots([random_lp(rng, 6, 6) for _ in range(500)])

    def test_corpus_programs_pivot_alike(self):
        _assert_same_pivots(_corpus_lps(60))

    def test_a_row_skips_two_pivots_and_is_read_as_a_basic_value(self, monkeypatch):
        # Each variable has a row of its own, so each pivot leaves the other
        # rows alone: row 0 stays over d = 2 while d moves on to 6 and 30.
        lp = linear_program(
            objective=[1, 1, 1], sense="max",
            rows=[([2, 0, 0], LE, 3), ([0, 3, 0], LE, 5), ([0, 0, 5], LE, 7)],
        )
        seen = _recording_denominators(monkeypatch)
        out = solve(lp)
        assert [(row, col) for row, col, _at, _d in seen] == [(0, 0), (1, 1), (2, 2)]
        assert [(at, d) for _row, _col, at, d in seen] == [(1, 1), (1, 2), (1, 6)]
        assert out == reference_solve(lp)
        assert out.x == (F(3, 2), F(5, 3), F(7, 5))
        assert out.objective == F(3, 2) + F(5, 3) + F(7, 5)

    def test_a_drive_out_pivot_on_a_row_never_brought_up(self, monkeypatch):
        # Phase one pivots x1 into row 0 (d = 2) and ends with row 1's
        # artificial basic at zero; row 1 has no x1, so it is still over 1
        # when the drive-out pivot lands on its x3 entry of -1.
        lp = linear_program(
            objective=[0, -1, 1], sense="min",
            rows=[([2, 1, 0], EQ, 2), ([0, 0, -1], EQ, 0)],
        )
        seen = _recording_denominators(monkeypatch)
        out = solve(lp)
        assert seen[:2] == [(0, 0, 1, 1), (1, 2, 1, 2)]
        assert out == reference_solve(lp)
        assert out.status == OPTIMAL
        assert out.x == (0, 2, 0) and out.objective == -2
