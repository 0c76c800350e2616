"""Dense simplex and the brute-force vertex oracle."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import degraded, lp
from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.errors import LengthMismatch, NumericalFailure, TooLarge
from cachecast.lp import (
    INFEASIBLE,
    OPTIMAL,
    PIVOT_BLOCK_ROWS,
    STACK_ENTRIES,
    UNBOUNDED,
    LpSolution,
    _pivot,
    enumerate_vertices,
    lp_problem,
    solve_lp,
    solve_lps,
)
from cachecast.lp_scheme import build_delivery_lp
from cachecast.upper_bound import build_permutation_lp

from helpers import (
    ROADMAP_ITEM1_ROWS,
    assert_matches_oracle,
    pivot_reference,
    random_bounded_lp,
    random_chain_stats,
    random_stats,
)


def check_duality(problem, tol=1e-8):
    sol = solve_lp(problem)
    assert sol.status == OPTIMAL
    # primal feasibility of the reported point
    assert np.all(problem.a_ub @ sol.x <= problem.b_ub + 1e-9)
    if problem.a_eq.size:
        assert np.all(np.abs(problem.a_eq @ sol.x - problem.b_eq) <= 1e-9)
    assert np.all(sol.x >= -1e-9)
    assert abs(problem.c @ sol.x - sol.value) <= tol
    # duals: sign, strong duality, complementary slackness
    assert np.all(sol.dual_ub <= 1e-12)
    dual_value = sol.dual_ub @ problem.b_ub + sol.dual_eq @ problem.b_eq
    assert abs(sol.value - dual_value) <= tol
    slack = problem.b_ub - problem.a_ub @ sol.x
    assert np.all(np.abs(sol.dual_ub * slack) <= tol)


# --- basics -----------------------------------------------------------------


def test_simple_cover():
    # min x1 + x2 subject to x1 + x2 >= 1, x >= 0
    p = lp_problem([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-1.0])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert abs(sol.value - 1.0) <= 1e-12
    check_duality(p)


def test_infeasible():
    p = lp_problem([0.0], a_ub=[[1.0]], b_ub=[-1.0])
    assert solve_lp(p).status == INFEASIBLE
    assert enumerate_vertices(p).status == INFEASIBLE


def test_unbounded():
    p = lp_problem([-1.0])
    sol = solve_lp(p)
    assert sol.status == UNBOUNDED
    assert sol.x is None and sol.value is None


def test_equality_constraint():
    # min x1 subject to x1 + x2 = 1
    p = lp_problem([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert abs(sol.value) <= 1e-12
    np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-12)
    check_duality(p)


def test_two_constraints_known_optimum():
    # min -x1 - 2 x2 subject to x1 + x2 <= 4, x2 <= 2: optimum (2, 2), value -6
    p = lp_problem([-1.0, -2.0], a_ub=[[1.0, 1.0], [0.0, 1.0]], b_ub=[4.0, 2.0])
    sol = solve_lp(p)
    assert abs(sol.value + 6.0) <= 1e-12
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-12)
    check_duality(p)
    assert_matches_oracle(p)


def test_degenerate_duplicated_rows():
    p = lp_problem(
        [-1.0, -2.0],
        a_ub=[[1.0, 1.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        b_ub=[4.0, 4.0, 2.0, 2.0],
    )
    sol = solve_lp(p)
    assert abs(sol.value + 6.0) <= 1e-12
    assert_matches_oracle(p)
    check_duality(p)


def test_ratio_ties_within_pivot_tol_go_to_the_smaller_basic_index():
    # Rows 0 and 1 start basic on slack columns 1 and 2.  Their ratios
    # differ by 5e-12 < PIVOT_TOL, so row 0 leaves whichever ratio is less.
    for b_ub, x in (([1.0 + 5e-12, 1.0], 1.0 + 5e-12), ([1.0, 1.0 + 5e-12], 1.0)):
        sol = solve_lp(lp_problem([-1.0], a_ub=[[1.0], [1.0]], b_ub=b_ub))
        assert sol.x[0] == x
        assert sol.phase2_pivots == 1


def test_zero_objective():
    p = lp_problem([0.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.value == 0.0


# --- construction and guards ---------------------------------------------------


def test_lp_problem_shape_checks():
    with pytest.raises(LengthMismatch):
        lp_problem([1.0, 1.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(LengthMismatch):
        lp_problem([1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])
    with pytest.raises(LengthMismatch):
        lp_problem([1.0], a_eq=[[1.0, 2.0]], b_eq=[1.0])


def test_lp_problem_defaults_are_empty():
    p = lp_problem([1.0, 2.0])
    assert p.a_ub.shape == (0, 2)
    assert p.a_eq.shape == (0, 2)
    assert p.num_vars == 2


def test_oracle_size_cap():
    with pytest.raises(TooLarge):
        enumerate_vertices(lp_problem(np.ones(7)))


# --- randomized cross-check ------------------------------------------------------


def test_random_lps_match_oracle_and_duality():
    rng = np.random.default_rng(914)
    for _ in range(60):
        p = random_bounded_lp(rng)
        assert_matches_oracle(p)
        check_duality(p)


# --- pivot path ------------------------------------------------------------------


def test_pivot_matches_row_loop():
    # Stacks of one to five tableaux, each with its own pivot; within a
    # stack some tableaux touch no row of the first block, some fill it,
    # and some touch no row at all, so every block is skipped for some
    # tableaux and updated for others.
    rng = np.random.default_rng(64)
    for trial in range(30):
        size = 1 if trial % 3 == 0 else int(rng.integers(2, 6))
        m = int(rng.integers(PIVOT_BLOCK_ROWS + 2, 3 * PIVOT_BLOCK_ROWS + 20))
        cols = int(rng.integers(3, 50))
        tableau = rng.normal(size=(size, m, cols))
        tableau[rng.random(tableau.shape) < 0.4] = 0.0
        tableau[rng.random(tableau.shape) < 0.1] = -0.0
        pivot_cols = rng.integers(cols, size=size)
        pivot_rows = rng.integers(m, size=size)
        for i in range(size):
            column = tableau[i, :, pivot_cols[i]]
            column[rng.random(m) < 0.8] = 0.0
            column[rng.random(m) < 0.1] = -0.0
            kind = (trial + i) % 4
            if kind == 0:
                column[:PIVOT_BLOCK_ROWS] = 0.0  # a block with nothing to update
            elif kind == 1:
                column[:PIVOT_BLOCK_ROWS] = rng.normal(size=PIVOT_BLOCK_ROWS) + 5.0  # a full block
            elif kind == 2:
                column[:] = 0.0  # no row to update at all
            column[pivot_rows[i]] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        basis = rng.integers(0, cols, size=(size, m))

        expected, expected_basis = tableau.copy(), basis.copy()
        for i in range(size):
            pivot_reference(expected[i], expected_basis[i], pivot_rows[i], pivot_cols[i])
        _pivot(tableau, basis, pivot_rows, pivot_cols)
        assert np.array_equal(tableau, expected)
        assert np.array_equal(np.signbit(tableau), np.signbit(expected))
        assert np.array_equal(basis, expected_basis)


def _outcome(problem):
    try:
        return solve_lp(problem)
    except NumericalFailure as exc:
        return exc


def assert_same_outcome(stacked, solo):
    assert type(stacked) is type(solo)
    if isinstance(solo, NumericalFailure):
        assert str(stacked) == str(solo)
        return
    assert stacked.status == solo.status
    assert (stacked.phase1_pivots, stacked.phase2_pivots) == (solo.phase1_pivots, solo.phase2_pivots)
    for name in ("x", "dual_ub", "dual_eq"):
        a, b = getattr(stacked, name), getattr(solo, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    if solo.value is None:
        assert stacked.value is None
    else:
        assert float.hex(stacked.value) == float.hex(solo.value)


def test_stack_matches_solo(monkeypatch):
    rng = np.random.default_rng(31)
    problems = [random_bounded_lp(rng) for _ in range(40)]
    problems += [
        lp_problem([0.0], a_ub=[[1.0]], b_ub=[-1.0]),  # infeasible
        lp_problem([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[-1.0]),  # infeasible, flipped row
        lp_problem([-1.0]),  # unbounded
        lp_problem([-1.0, 0.0], a_ub=[[-1.0, 1.0]], b_ub=[0.0]),  # unbounded
    ]
    for _ in range(30):  # flipped rows: x >= lower via -x <= -lower
        lower = rng.uniform(0.1, 1.0, 3)
        problems.append(lp_problem(
            rng.uniform(0.5, 2.0, 3),
            a_ub=np.vstack([-np.eye(3), np.ones((1, 3))]),
            b_ub=np.concatenate([-lower, [5.0]]),
        ))
    for _ in range(30):  # a repeated equality row is dropped after phase 1
        row = rng.uniform(0.5, 2.0, 3)
        problems.append(lp_problem(
            rng.normal(size=3),
            a_ub=np.ones((1, 3)),
            b_ub=[4.0],
            a_eq=[row, row],
            b_eq=[1.0, 1.0],
        ))
    # The 120 orderings that start with user 6 of the ROADMAP item 1
    # instance: one shape, several stacks' worth, and (6, 1, 2, 3, 4, 5)
    # fails its feasibility recheck.
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    problems += [
        build_permutation_lp(stats, tup, (6,) + rest) for rest in permutations(range(1, 6))
    ]
    problems = [problems[i] for i in rng.permutation(len(problems))]

    stacks, shapes = [], set()
    solve_stack, simplex = lp._solve_stack, lp._simplex

    def recording_stack(group):
        stacks.append(len(group))
        return solve_stack(group)

    def recording_simplex(tableau, *args):
        shapes.add(tableau.shape[1:])
        return simplex(tableau, *args)

    monkeypatch.setattr(lp, "_solve_stack", recording_stack)
    monkeypatch.setattr(lp, "_simplex", recording_simplex)
    stacked = solve_lps(problems)
    monkeypatch.undo()
    solo = [_outcome(p) for p in problems]

    entries = 31 * (6 + 4 + 29 + 2 + 1)  # m x (columns + rhs) of one ordering LP
    assert max(stacks) == STACK_ENTRIES // entries
    statuses = {s.status if isinstance(s, LpSolution) else type(s).__name__ for s in solo}
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED, "NumericalFailure"}
    assert any("fails feasibility recheck" in str(s) for s in solo)
    assert (2, 7) in shapes  # the repeated equality rows' LPs, one row dropped
    for a, b in zip(stacked, solo):
        assert_same_outcome(a, b)

    # LPs that reach the iteration cap fail alone, as they do solo.
    monkeypatch.setattr(lp, "MAX_ITERATIONS", 5)
    capped = [_outcome(p) for p in problems]
    assert any("did not converge in 5 iterations" in str(s) for s in capped)
    for a, b in zip(solve_lps(problems), capped):
        assert_same_outcome(a, b)


# Pivot counts and optimal values frozen from the row-loop solver that came
# before the blocked pivot.  The pivot rule, the tolerances and the order of
# every floating-point operation decide these exactly; any change to the
# pivot path shows up here first.


def test_pivot_path_delivery_lp():
    stats = random_stats(np.random.default_rng(7), 7, 4)
    sol = solve_lp(build_delivery_lp(stats, 2).problem)
    assert sol.status == OPTIMAL
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 241)
    assert sol.value == -1.0000449673374703


def test_pivot_path_chain_lp(monkeypatch):
    solved = []

    def recording_solve(problem):
        solved.append(solve_lp(problem))
        return solved[-1]

    monkeypatch.setattr(degraded, "solve_lp", recording_solve)
    stats = random_chain_stats(np.random.default_rng(5), 5, 4)
    degraded.degraded_optimal_rate(stats, Fraction(2, 5))
    (sol,) = solved
    assert sol.status == OPTIMAL
    assert (sol.phase1_pivots, sol.phase2_pivots) == (0, 8)
    assert sol.value == -2.461175840112319


def test_pivot_path_ordering_lp():
    stats = random_stats(np.random.default_rng(5), 5, 4)
    tup = caching_tuple(central_strategy(5, Fraction(2, 5)))
    # Degenerate: ratio ties within PIVOT_TOL are broken by the basic index.
    sol = solve_lp(build_permutation_lp(stats, tup, (2, 4, 1, 3, 5)))
    assert sol.status == OPTIMAL
    assert (sol.phase1_pivots, sol.phase2_pivots) == (17, 3)
    assert sol.value == 1.4244174051424077
