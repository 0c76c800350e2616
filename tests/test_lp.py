"""Dense simplex and the brute-force vertex oracle."""

from fractions import Fraction

import numpy as np
import pytest

from cachecast import degraded
from cachecast.caching import caching_tuple, central_strategy
from cachecast.errors import LengthMismatch, TooLarge
from cachecast.lp import (
    INFEASIBLE,
    OPTIMAL,
    PIVOT_BLOCK_ROWS,
    UNBOUNDED,
    _pivot,
    enumerate_vertices,
    lp_problem,
    solve_lp,
)
from cachecast.lp_scheme import build_delivery_lp
from cachecast.upper_bound import build_permutation_lp

from helpers import (
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
    rng = np.random.default_rng(64)
    for trial in range(30):
        m = int(rng.integers(PIVOT_BLOCK_ROWS + 2, 3 * PIVOT_BLOCK_ROWS + 20))
        cols = int(rng.integers(3, 50))
        tableau = rng.normal(size=(m, cols))
        tableau[rng.random((m, cols)) < 0.4] = 0.0
        tableau[rng.random((m, cols)) < 0.1] = -0.0
        col, row = int(rng.integers(cols)), int(rng.integers(m))
        column = tableau[:, col]
        column[rng.random(m) < 0.8] = 0.0
        column[rng.random(m) < 0.1] = -0.0
        if trial % 3 == 0:
            column[: PIVOT_BLOCK_ROWS] = 0.0  # a block with nothing to update
        if trial % 3 == 1:
            column[: PIVOT_BLOCK_ROWS] = rng.normal(size=PIVOT_BLOCK_ROWS) + 5.0  # a full block
        column[row] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        basis = rng.integers(0, cols, size=m)

        expected, expected_basis = tableau.copy(), basis.copy()
        pivot_reference(expected, expected_basis, row, col)
        _pivot(tableau, basis, row, col)
        assert np.array_equal(tableau, expected)
        assert np.array_equal(np.signbit(tableau), np.signbit(expected))
        assert np.array_equal(basis, expected_basis)


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
