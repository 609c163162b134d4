"""Exact LP solver and rational parsing tests.

Every oracle value here is either forced by construction or checked by
substituting the solver's answer back into the constraints with Fraction
arithmetic.  No tolerances anywhere.
"""

import dataclasses
import os
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
import expord.order as order_module
from expord.generators import corpus_pairs, random_lp
import reference_beliefs
import reference_order
import reference_simplex
from reference_simplex import dual_program, reference_solve
from spies import spy_on_solves

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

    @pytest.mark.parametrize(
        "objective, rows, nonneg",
        [
            ([F(1)], (((F(1),), GE, F(1)),), (True,)),
            ((F(1),), [((F(1),), GE, F(1))], (True,)),
            ((F(1),), ([(F(1),), GE, F(1)],), (True,)),
            ((F(1),), (([F(1)], GE, F(1)),), (True,)),
            ((F(1),), (((F(1),), GE, F(1)),), [True]),
        ],
        ids=["objective", "rows", "row", "coefficients", "flags"],
    )
    def test_program_refuses_a_list_field(self, objective, rows, nonneg):
        # A frozen program with a list in it could not be hashed.
        hash(numerics.LinearProgram((F(1),), "min", (((F(1),), GE, F(1)),), (True,)))
        with pytest.raises(InvalidInput, match="tuple"):
            numerics.LinearProgram(objective=objective, sense="min", rows=rows, nonneg=nonneg)

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


def _random_lps() -> list:
    rng = random.Random(7)
    return [random_lp(rng, 6, 6) for _ in range(500)]


def _corpus_lps(pairs: int) -> list:
    """Every LP the order, belief and value calls solve on the first corpus pairs.

    A block that ``size_interval`` finishes from its remembered phase one
    counts as the block under the column's objective, as ``spy_on_solves``
    records it.  The belief check reads the order's blocks and solves
    nothing of its own, so its place in the loop asks the hull programs of
    ``reference_beliefs.check_weighted_beliefs`` instead: ``hull-check``,
    ``counterexample`` and ``eta`` still solve programs of that shape.
    ``check_blackwell`` reads ``min_size`` and solves nothing of its own, so
    an ordered pair also asks ``from_conditional`` at unit weight, which
    still solves the ``= 1`` linked program.
    """
    with pytest.MonkeyPatch.context() as patch:
        captured = spy_on_solves(patch)
        for pi, prior, pi_prime in corpus_pairs(20250814, pairs):
            weighted = expord.check_weighted(pi, pi_prime)
            expord.check_blackwell(pi, pi_prime)
            expord.min_size(pi, pi_prime)
            reference_beliefs.check_weighted_beliefs(pi, pi_prime, prior)
            if weighted is not None:
                expord.size_interval(pi, pi_prime)
                unit = expord.to_conditional(pi_prime, expord.unit_weight(pi_prime))
                try:
                    expord.from_conditional(unit, pi)
                except expord.OrderError:
                    pass
            else:
                for beta in (1, 2, 4, 8):
                    expord.falsify_bound(pi, pi_prime, beta)
    return captured


class TestAgainstFractionTableau:
    """``solve`` must return exactly what the Fraction-tableau simplex returns."""

    def test_random_programs(self):
        lps = _random_lps()
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


class TestPhaseTwoFromOneStart:
    """Finishing one phase-one start gives the cold solve of the program so priced."""

    def _finish_every_way(self, lps):
        rng = random.Random(25)
        finished = 0
        for lp in lps:
            n = lp.n_variables
            objectives = [lp.objective] + [
                tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)) for _ in range(2)
            ]
            start = numerics._phase_one(lp)
            if not isinstance(start, numerics.LpOutcome):
                tableau = start.tableau
                before = ([list(row) for row in tableau.rows], tableau.at[:], tableau.basis[:], tableau.d)
            for objective in objectives:
                for sense in ("min", "max"):
                    cold = solve(dataclasses.replace(lp, objective=objective, sense=sense))
                    if isinstance(start, numerics.LpOutcome):
                        # Phase one reads only the rows: one refutation for every objective.
                        assert cold.status == INFEASIBLE and start == cold
                        continue
                    warm = numerics._phase_two(start, objective, sense)
                    again = numerics._phase_two(start, objective, sense)
                    assert warm == cold and warm.dual == cold.dual
                    assert again == warm and again.dual == warm.dual
                    finished += 1
            if not isinstance(start, numerics.LpOutcome):
                after = ([list(row) for row in tableau.rows], tableau.at, tableau.basis, tableau.d)
                assert after == before
        return finished

    def test_random_programs(self):
        assert self._finish_every_way(_random_lps()) > 1000

    def test_corpus_programs(self):
        lps = _corpus_lps(60)
        assert len(lps) > 400
        assert self._finish_every_way(lps) > 2000


class TestCrashStart:
    """A crash start finishes as the cold solve does, or is the cold start itself."""

    @pytest.fixture(scope="class")
    def crashed(self):
        """Each ordered corpus pair's min_size program, with the crash set ``order`` passes."""
        found = []
        real = numerics._phase_one

        def phase_one(lp, crash=()):
            if crash:
                found.append((lp, tuple(crash)))
            return real(lp, crash)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(order_module, "_phase_one", phase_one)
            for pi, _prior, pi_prime in corpus_pairs(20250814, 200):
                expord.min_size(pi, pi_prime)
        return found

    @pytest.fixture
    def phase_ones(self, monkeypatch):
        """The crash argument of every ``_phase_one`` call, a cold fallback's included."""
        calls = []
        real = numerics._phase_one

        def phase_one(lp, crash=()):
            calls.append(tuple(crash))
            return real(lp, crash)

        monkeypatch.setattr(numerics, "_phase_one", phase_one)
        return calls

    @staticmethod
    def _state(start):
        if isinstance(start, numerics.LpOutcome):
            return start
        tableau = start.tableau
        return (
            tableau.rows, tableau.at, tableau.basis, tableau.d, start.col_var,
            start.flipped, start.init_col, start.artificial, start.scale,
        )

    def test_min_size_programs_against_the_cold_solve(self, crashed, phase_ones, monkeypatch):
        searches = []
        real_minimize = numerics._Tableau.minimize

        def minimize(tableau, banned):
            searches.append(banned)
            return real_minimize(tableau, banned)

        monkeypatch.setattr(numerics._Tableau, "minimize", minimize)
        rng = random.Random(26)
        unbounded = 0
        assert len(crashed) > 50
        for lp, crash in crashed:
            del phase_ones[:], searches[:]
            start = numerics._phase_one(lp, crash)
            # One phase one, with no Bland search: the crashed basis is feasible.
            assert phase_ones == [crash] and searches == []
            n = lp.n_variables
            priced = [lp] + [
                dataclasses.replace(
                    lp,
                    objective=tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)),
                    sense=sense,
                )
                for sense in ("min", "max")
            ]
            for program in priced:
                warm = numerics._phase_two(start, program.objective, program.sense)
                cold = solve(program)
                assert warm.status == cold.status and warm.objective == cold.objective
                assert solution_feasible(program, warm.x)
                if warm.status == OPTIMAL:
                    assert numerics.dual_verifies(program, warm.dual, warm.objective)
                else:
                    assert warm.status == UNBOUNDED and ray_verifies(program, warm.ray)
                    unbounded += 1
        assert unbounded > 0

    def test_an_infeasible_crash_is_the_cold_start(self, crashed, phase_ones):
        # t entering at another column row leaves a column slack negative
        # unless that column's sum ties the largest.
        fell_back = 0
        for lp, crash in crashed:
            *columns, (t, widest) = crash
            for row in [i for i, (coeffs, _relation, _rhs) in enumerate(lp.rows) if coeffs[t]]:
                del phase_ones[:]
                start = numerics._phase_one(lp, [*columns, (t, row)])
                if row == widest or len(phase_ones) == 1:
                    continue
                assert phase_ones == [(*columns, (t, row)), ()]
                assert self._state(start) == self._state(numerics._phase_one(lp))
                fell_back += 1
        assert fell_back > 50

    def test_random_crash_sets(self, phase_ones):
        rng = random.Random(26)
        fell_back = crashed = 0
        for lp in _random_lps():
            n, m = lp.n_variables, len(lp.rows)
            crash = [
                (rng.randrange(n), rng.choice([None, rng.randrange(m)]) if m else None)
                for _ in range(rng.randint(1, 4))
            ]
            del phase_ones[:]
            start = numerics._phase_one(lp, crash)
            if m == 0 or len(phase_ones) == 2:
                assert self._state(start) == self._state(numerics._phase_one(lp))
                fell_back += m > 0
                continue
            crashed += 1
            assert not isinstance(start, numerics.LpOutcome)
            warm = numerics._phase_two(start, lp.objective, lp.sense)
            expected = solve(lp)
            assert warm.status == expected.status and warm.objective == expected.objective
        assert fell_back > 100 and crashed > 10

    def test_an_infeasible_program_returns_the_cold_refutation(self):
        refuted = 0
        for pi, _prior, pi_prime in corpus_pairs(20250814, 100):
            lowest, _ = reference_order.size_interval_programs(pi, pi_prime, 0)
            cold = numerics._phase_one(lowest)
            if not isinstance(cold, numerics.LpOutcome):
                continue
            n_sp = pi_prime.n_signals
            crash = [(j, None) for j in range(n_sp)]
            crash.append((lowest.n_variables - 1, len(lowest.rows) - n_sp))
            start = numerics._phase_one(lowest, crash)
            assert start.status == INFEASIBLE and start == cold
            refuted += 1
        assert refuted > 10


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


def _dual_holds_for(lp, multipliers, scale, value):
    """The integer dual body on ``multipliers / scale`` as an optimum's dual of ``lp`` at ``value``."""
    sign = 1 if lp.sense == "min" else -1
    costs, cost_scale = numerics._clear_denominators(lp.objective)
    found = numerics._dual_holds(
        lp, [sign * m for m in multipliers], scale, [sign * c for c in costs], cost_scale
    )
    return found is not None and F(found, scale * lp._integer_rows[1]) == sign * value


def _moves(numerators):
    """``numerators`` with one entry moved by +1 or -1, every way."""
    for k in range(len(numerators)):
        for step in (1, -1):
            moved = list(numerators)
            moved[k] += step
            yield moved


class TestIntegerBodiesAgainstFractionChecks:
    """Phase two checks the integer bodies; they agree with the Fraction checks on every outcome."""

    def _compare(self, lps):
        checked = 0
        for lp in lps:
            out = solve(lp)
            if out.status == INFEASIBLE:
                continue
            nums, den = numerics._clear_denominators(out.x)
            assert numerics._primal_holds(lp, nums, den)
            assert reference_simplex.solution_feasible(lp, out.x)
            verdicts = [
                (numerics._primal_holds(lp, moved, den),
                 reference_simplex.solution_feasible(lp, [F(v, den) for v in moved]))
                for moved in _moves(nums)
            ]
            assert all(ours == theirs for ours, theirs in verdicts)
            assert (False, False) in verdicts
            checked += 1
            if out.status != OPTIMAL:
                continue
            nums, den = numerics._clear_denominators(out.dual)
            assert _dual_holds_for(lp, nums, den, out.objective)
            assert reference_simplex.dual_verifies(lp, out.dual, out.objective)
            verdicts = [
                (_dual_holds_for(lp, moved, den, out.objective),
                 reference_simplex.dual_verifies(lp, [F(v, den) for v in moved], out.objective))
                for moved in _moves(nums)
            ]
            assert all(ours == theirs for ours, theirs in verdicts)
            assert (False, False) in verdicts
            checked += 1
        return checked

    def test_random_programs(self):
        assert self._compare(_random_lps()) > 300

    def test_corpus_programs(self):
        assert self._compare(_corpus_lps(60)) > 700


_BOUNDED = linear_program(objective=[2, 3], sense="min", rows=[([1, 1], GE, 4), ([1, 2], GE, 6)])
_UNBOUNDED = linear_program(objective=[1], sense="max", rows=[([1], GE, 0)])


class TestEveryOutcomeIsChecked:
    """Phase two checks each outcome with the integer bodies, which these tests break."""

    def test_a_perturbed_dual_is_an_internal_error(self, monkeypatch):
        # The first multiplier moves by one unit of its scale.
        real = numerics._dual_holds
        monkeypatch.setattr(
            numerics, "_dual_holds", lambda lp, y, *rest: real(lp, (y[0] + 1, *y[1:]), *rest)
        )
        with pytest.raises(InternalError, match="bad dual certificate"):
            solve(_BOUNDED)

    def test_an_infeasible_ray_origin_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "_primal_holds", lambda lp, values, scale: False)
        with pytest.raises(InternalError, match="infeasible basic point"):
            solve(_UNBOUNDED)

    def test_the_dual_check_survives_optimize_flag(self):
        script = (
            "import expord.numerics as numerics\n"
            "real = numerics._dual_holds\n"
            "numerics._dual_holds = lambda lp, y, *rest: real(lp, (y[0] + 1, *y[1:]), *rest)\n"
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
