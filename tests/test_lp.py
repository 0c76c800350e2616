"""Dense simplex and the brute-force vertex oracle."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import degraded, lp
from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.errors import LengthMismatch, NumericalFailure, OutOfRange, TooLarge, ValidationError
from cachecast.lp import (
    FEAS_TOL,
    OPTIMAL,
    PIVOT_BLOCK_ROWS,
    UNBOUNDED,
    LpSolution,
    _pivot,
    enumerate_vertices,
    lp_problem,
    solve_lp,
    solve_lps,
    stack_size,
)
from cachecast.lp_scheme import build_delivery_lp
from cachecast.upper_bound import build_permutation_lp

from helpers import (
    ROADMAP_ITEM1_ROWS,
    assert_matches_oracle,
    degenerate_delivery_grids,
    fail_certificate,
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
    assert np.all(sol.x >= -1e-9)
    assert abs(problem.c @ sol.x - sol.value) <= tol
    # duals: sign, strong duality, complementary slackness
    assert np.all(sol.dual_ub <= 1e-12)
    dual_value = sol.dual_ub @ problem.b_ub
    assert abs(sol.value - dual_value) <= tol
    slack = problem.b_ub - problem.a_ub @ sol.x
    assert np.all(np.abs(sol.dual_ub * slack) <= tol)
    # the certificate, recomputed from the problem
    reduced = problem.c - problem.a_ub.T @ sol.dual_ub
    primal = max(0.0, *-sol.x, *-slack)
    dual = max(0.0, *-reduced, *sol.dual_ub)
    assert abs(sol.primal_residual - primal) <= 1e-12
    assert abs(sol.dual_residual - dual) <= 1e-12
    assert abs(sol.duality_gap - abs(sol.value - dual_value)) <= 1e-12


# --- basics -----------------------------------------------------------------


def test_simple_cover():
    # max x1 + x2 subject to x1 + x2 <= 1, x >= 0: the cover LP's dual
    p = lp_problem([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert abs(sol.value + 1.0) <= 1e-12
    check_duality(p)


def test_unbounded():
    p = lp_problem([-1.0])
    sol = solve_lp(p)
    assert sol.status == UNBOUNDED
    assert sol.x is None and sol.value is None


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


def test_ratio_ties_within_pivot_tol_go_to_the_larger_entry_then_the_smaller_basic_index():
    # Rows 0 and 1 start basic on slack columns 1 and 2, and their ratios
    # differ by 5e-12 < PIVOT_TOL.  With equal entries row 0 leaves,
    # whichever ratio is less; otherwise the row with the larger entry
    # leaves, even where its ratio is the larger one.
    cases = (
        ([[1.0], [1.0]], [1.0 + 5e-12, 1.0], 1.0 + 5e-12),
        ([[1.0], [1.0]], [1.0, 1.0 + 5e-12], 1.0),
        ([[1.0], [2.0]], [1.0 + 5e-12, 2.0], 1.0),
        ([[1.0], [2.0]], [1.0, 2.0 + 1e-11], 1.0 + 5e-12),
        ([[2.0], [1.0]], [2.0 + 1e-11, 1.0], 1.0 + 5e-12),
    )
    for a_ub, b_ub, x in cases:
        sol = solve_lp(lp_problem([-1.0], a_ub=a_ub, b_ub=b_ub))
        assert sol.x[0] == x
        assert sol.pivots == 1


def test_entering_column_of_roundoff_entries_is_unbounded():
    # x1 enters; its only positive entries are 1e-15 and 3e-16, below
    # PIVOT_TOL, so no row limits it: a ray, as HiGHS also reports.
    p = lp_problem([-1.0, 0.0], a_ub=[[1e-15, -1.0], [3e-16, -1.0]], b_ub=[1.0, 1.0])
    assert solve_lp(p).status == UNBOUNDED


def test_zero_objective():
    p = lp_problem([0.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert sol.value == 0.0


def test_certificate_of_given_pairs():
    # min x1 + x2 s.t. -x1 - x2 <= -1, x1 - x2 <= 0, at two primal-dual pairs:
    # x = (0.5, 0.4), y = (0.25, 0.2) violates everything; the optimum doesn't.
    a = np.array([[[-1.0, -1.0], [1.0, -1.0]]] * 2)
    b = np.array([[-1.0, 0.0]] * 2)
    c = np.ones((2, 2))
    x = np.array([[0.5, 0.4], [0.5, 0.5]])
    y = np.array([[0.25, 0.2], [-1.0, 0.0]])
    value, primal, dual, gap = lp._certificate(a, b, c, x, y)
    np.testing.assert_allclose(value, [0.9, 1.0], atol=1e-15)
    np.testing.assert_allclose(primal, [0.1, 0.0], atol=1e-15)
    np.testing.assert_allclose(dual, [0.25, 0.0], atol=1e-15)
    np.testing.assert_allclose(gap, [1.15, 0.0], atol=1e-15)


@pytest.mark.parametrize("index, text", [
    (1, "optimal basis fails feasibility recheck (largest violation 0.5)"),
    (2, "optimal basis fails dual feasibility check (dual residual 0.5)"),
    (3, "optimal basis fails duality-gap check (gap 0.5)"),
])
def test_certificate_failures_name_the_residual(monkeypatch, index, text):
    certificate = lp._certificate

    def inflated(*args):
        parts = list(certificate(*args))
        parts[index] = np.full_like(parts[index], 0.5)
        return tuple(parts)

    monkeypatch.setattr(lp, "_certificate", inflated)
    with pytest.raises(NumericalFailure) as failure:
        solve_lp(lp_problem([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert str(failure.value) == text


# --- construction and guards ---------------------------------------------------


def test_lp_problem_shape_checks():
    with pytest.raises(LengthMismatch):
        lp_problem([1.0, 1.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(LengthMismatch):
        lp_problem([1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0])


def test_lp_problem_defaults_are_empty():
    p = lp_problem([1.0, 2.0])
    assert p.a_ub.shape == (0, 2)
    assert p.b_ub.shape == (0,)
    assert p.num_vars == 2


def test_negative_rhs_is_rejected():
    # The simplex starts at x = 0, so a row with b < 0 is refused before
    # any LP of the call is solved, naming the LP and the row.
    good = lp_problem([-1.0, 0.0], a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 0.0])
    bad = lp_problem([1.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, -1.0]], b_ub=[2.0, -1.0])
    with pytest.raises(OutOfRange) as failure:
        solve_stacked([good, bad])
    assert isinstance(failure.value, ValidationError)
    assert str(failure.value) == "LP 1: b_ub[1] = -1.0 < 0; x = 0 must be feasible"
    with pytest.raises(OutOfRange, match=r"^LP 0: b_ub\[1\] = -1.0 < 0"):
        solve_lp(bad)
    with pytest.raises(OutOfRange, match=r"^b_ub\[1\] = -1.0 < 0"):
        enumerate_vertices(bad)
    assert solve_lp(lp_problem([-1.0], a_ub=[[1.0]], b_ub=[-0.0])).value == 0.0


def test_solve_lps_takes_one_stack_of_one_shape():
    # c and b_ub are one row per LP or one row shared by all; any other
    # shape is refused.
    c, a_ub, b_ub = np.full((3, 2), -1.0), np.ones((3, 1, 2)), np.ones((3, 1))
    shared = solve_lps(c[0], a_ub, b_ub[0])
    assert [s.value for s in shared] == [s.value for s in solve_lps(c, a_ub, b_ub)] == [-1.0] * 3
    assert solve_lps(np.zeros((0, 2)), np.zeros((0, 1, 2)), b_ub[0]) == []
    for bad in (
        (c, a_ub[0], b_ub),  # a_ub not a stack
        (c, a_ub[None], b_ub),
        (c[:2], a_ub, b_ub),  # one cost row short
        (c[:, :1], a_ub, b_ub),
        (c[:1], a_ub, b_ub),
        (c, a_ub, b_ub[:2]),
        (c, a_ub, np.ones((3, 2))),
        (c, a_ub, np.ones(2)),
        (c, a_ub, 1.0),
    ):
        with pytest.raises(LengthMismatch):
            solve_lps(*bad)


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


def test_growing_lp_matches_cold_solves():
    # Columns added one at a time, each solve resumed from the last basis,
    # against solve_lp of the same LP from the slack basis.
    rng = np.random.default_rng(1301)
    for _ in range(20):
        a_ub = np.vstack([rng.normal(size=(4, 10)), np.ones((1, 10))])  # the ones row bounds it
        b_ub = rng.uniform(0.1, 2.0, 5) * (rng.random(5) >= 1 / 3)
        c = rng.normal(size=10)
        grown = lp.GrowingLp(b_ub)
        for n in range(1, 11):
            warm = grown.add_column(a_ub[:, n - 1], c[n - 1])
            cold = solve_lp(lp_problem(c[:n], a_ub=a_ub[:, :n], b_ub=b_ub))
            assert warm.status == cold.status == OPTIMAL
            assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
            assert warm.x.shape == (n,) and warm.dual_ub.shape == (5,)
            assert max(warm.primal_residual, warm.dual_residual) <= FEAS_TOL


def test_growing_lp_pivots_a_tied_column_in():
    # The second column's reduced cost is 0 at the first optimum, so the
    # simplex alone would keep the old basis; the new column enters anyway.
    grown = lp.GrowingLp([1.0, 1.0])
    first = grown.add_column([2.0, 1.0], -1.0)
    assert first.x.tolist() == [0.5] and first.dual_ub.tolist() == [-0.5, 0.0]
    tied = grown.add_column([2.0, 0.5], -1.0)
    assert tied.pivots == 1 and tied.value == first.value == -0.5
    assert tied.x.tolist() == [0.0, 0.5] and tied.dual_ub.tolist() == [-0.5, 0.0]


def test_growing_lp_ray_column_and_negative_rhs():
    grown = lp.GrowingLp([1.0])
    assert grown.add_column([2.0], -1.0).value == -0.5
    assert grown.add_column([-1.0], -1.0).status == UNBOUNDED
    with pytest.raises(OutOfRange, match=r"^b_ub\[1\] = -1.0 < 0"):
        lp.GrowingLp([1.0, -1.0])


# --- pivot path ------------------------------------------------------------------


def test_pivot_matches_row_loop():
    # Stacks of one to five condensed tableaux, each with its own pivot;
    # within a stack some tableaux touch no row of the first block, some
    # fill it, and some touch no row at all, so every block is skipped for
    # some tableaux and updated for others.  Each tableau is expanded to
    # the full one (unit columns for its basic labels) and pivoted by the
    # row loop there; the stored columns and the rhs must match it byte for
    # byte, signed zeros included, with the two labels swapped.
    rng = np.random.default_rng(64)
    for trial in range(30):
        size = 1 if trial % 3 == 0 else int(rng.integers(2, 6))
        m = int(rng.integers(PIVOT_BLOCK_ROWS + 2, 3 * PIVOT_BLOCK_ROWS + 20))
        n = int(rng.integers(2, 49))
        tableau = rng.normal(size=(size, m, n + 1))
        tableau[rng.random(tableau.shape) < 0.4] = 0.0
        tableau[rng.random(tableau.shape) < 0.1] = -0.0
        pivot_cols = rng.integers(n, size=size)
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
        labels = np.array([rng.permutation(n + m) for _ in range(size)])
        basis, nonbasic = labels[:, :m].copy(), labels[:, m:].copy()

        full = np.zeros((size, m, n + m + 1))
        for i in range(size):
            full[i][:, nonbasic[i]] = tableau[i, :, :-1]
            full[i, np.arange(m), basis[i]] = 1.0
            full[i, :, -1] = tableau[i, :, -1]
        expected_basis, expected_nonbasic = basis.copy(), nonbasic.copy()
        for i in range(size):
            expected_nonbasic[i, pivot_cols[i]] = basis[i, pivot_rows[i]]
            pivot_reference(full[i], expected_basis[i], pivot_rows[i], nonbasic[i, pivot_cols[i]])
        _pivot(tableau, basis, nonbasic, pivot_rows, pivot_cols)
        assert np.array_equal(basis, expected_basis)
        assert np.array_equal(nonbasic, expected_nonbasic)
        expected = np.array([np.column_stack([full[i][:, nonbasic[i]], full[i, :, -1]]) for i in range(size)])
        assert np.array_equal(tableau, expected)
        assert np.array_equal(np.signbit(tableau), np.signbit(expected))


def solve_stacked(problems):
    """solve_lps on a list of LpProblems, one call per shape, outcomes in list order."""
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(p.a_ub.shape, []).append(i)
    outcomes = [None] * len(problems)
    for members in groups.values():
        stack = (np.array([getattr(problems[i], name) for i in members]) for name in ("c", "a_ub", "b_ub"))
        for i, outcome in zip(members, solve_lps(*stack)):
            outcomes[i] = outcome
    return outcomes


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
    assert stacked.pivots == solo.pivots
    for name in ("x", "dual_ub"):
        a, b = getattr(stacked, name), getattr(solo, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("value", "primal_residual", "dual_residual", "duality_gap"):
        a, b = getattr(stacked, name), getattr(solo, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert float.hex(a) == float.hex(b), name


def test_stack_matches_solo(monkeypatch):
    rng = np.random.default_rng(31)
    problems = [random_bounded_lp(rng) for _ in range(100)]
    problems += [
        lp_problem([-1.0]),  # unbounded
        lp_problem([-1.0, 0.0], a_ub=[[-1.0, 1.0]], b_ub=[0.0]),  # unbounded
    ]
    # The 240 orderings that start with user 6 or 5 of the ROADMAP item 1
    # instance: one shape, two stacks' worth.  (6, 1, 2, 3, 4, 5) is made
    # to fail its feasibility recheck, in the stack and alone.
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    orderings = [
        build_permutation_lp(stats, tup, (first,) + rest)
        for first in (6, 5)
        for rest in permutations(k for k in range(1, 7) if k != first)
    ]
    fail_certificate(monkeypatch, orderings[0])
    problems = problems + orderings
    problems = [problems[i] for i in rng.permutation(len(problems))]

    stacks = []
    solve_stack = lp._solve_stack

    def recording_stack(c, a_ub, b_ub):
        stacks.append(len(a_ub))
        return solve_stack(c, a_ub, b_ub)

    with monkeypatch.context() as recording:
        recording.setattr(lp, "_solve_stack", recording_stack)
        stacked = solve_stacked(problems)
    solo = [_outcome(p) for p in problems]

    assert max(stacks) == stack_size(25, 5 + 4) == 172  # live count 5: 25 rows, 9 columns
    statuses = {s.status if isinstance(s, LpSolution) else type(s).__name__ for s in solo}
    assert statuses == {OPTIMAL, UNBOUNDED, "NumericalFailure"}
    assert [str(s) for s in solo if isinstance(s, NumericalFailure)] == [
        "optimal basis fails feasibility recheck (largest violation 0.00294)"
    ]
    for a, b in zip(stacked, solo):
        assert_same_outcome(a, b)

    # LPs that reach the iteration cap fail alone, as they do solo.
    monkeypatch.setattr(lp, "MAX_ITERATIONS", 5)
    capped = [_outcome(p) for p in problems]
    assert any("did not converge in 5 iterations" in str(s) for s in capped)
    for a, b in zip(solve_stacked(problems), capped):
        assert_same_outcome(a, b)


# Pivot counts and optimal values frozen from this solver.  The pivot rule,
# the tolerances and the order of every floating-point operation decide
# these exactly; any change to the pivot path shows up here first.


def _delivery_path():
    return solve_lp(build_delivery_lp(random_stats(np.random.default_rng(7), 7, 4), 2).problem)


def _chain_path():
    solved = []
    with pytest.MonkeyPatch.context() as recording:
        recording.setattr(degraded, "solve_lp", lambda problem: solved.append(solve_lp(problem)) or solved[-1])
        degraded.degraded_optimal_rate(random_chain_stats(np.random.default_rng(5), 5, 4), Fraction(2, 5))
    (sol,) = solved
    return sol


def _ordering_path():
    stats = random_stats(np.random.default_rng(5), 5, 4)
    tup = caching_tuple(central_strategy(5, Fraction(2, 5)))
    # Degenerate: every row but the budget row has rhs 0, so the tie rule
    # picks nearly every leaving row.
    return solve_lp(build_permutation_lp(stats, tup, (2, 4, 1, 3, 5)))


def _path(sol):
    return sol.status, sol.pivots, sol.value


def test_pivot_path_delivery_lp():
    assert _path(_delivery_path()) == (OPTIMAL, 242, -1.0000449673374927)


def test_pivot_path_chain_lp():
    assert _path(_chain_path()) == (OPTIMAL, 8, -2.461175840112319)


def test_pivot_path_ordering_lp():
    assert _path(_ordering_path()) == (OPTIMAL, 10, -0.7020414075184858)


def test_guard_at_zero_is_blands_rule(monkeypatch):
    # DEGENERATE_RUN = 0 keeps every LP on the smallest-basic-index rule,
    # which reproduces the delivery and chain paths frozen before the
    # largest-entry rule.
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 0)
    assert _path(_delivery_path()) == (OPTIMAL, 241, -1.0000449673374703)
    assert _path(_chain_path()) == (OPTIMAL, 8, -2.461175840112319)
    assert _path(_ordering_path()) == (OPTIMAL, 16, -0.7020414075184819)


def test_guard_fires_on_degenerate_delivery_lp(monkeypatch):
    # The K = 7, t = 2 delivery LP has runs of more than DEGENERATE_RUN
    # zero-ratio pivots: the guard changes its path (242 pivots against
    # 244 with the guard off) and not its optimum.
    problem = build_delivery_lp(random_stats(np.random.default_rng(7), 7, 4), 2).problem
    guarded = solve_lp(problem)
    monkeypatch.setattr(lp, "DEGENERATE_RUN", lp.MAX_ITERATIONS)
    unguarded = solve_lp(problem)
    assert (guarded.pivots, unguarded.pivots) == (242, 244)
    assert abs(guarded.value - unguarded.value) <= 1e-12


# Beale (1955): min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 subject to
#   1/4 x4 -  60 x5 - 1/25 x6 + 9 x7 <= 0
#   1/2 x4 -  90 x5 - 1/50 x6 + 3 x7 <= 0
#                           x6       <= 1,
# on which Dantzig's rule with a smallest-index ratio tie cycles through
# six degenerate bases.  Optimum -1/20 at x4 = 1/25, x6 = 1.
BEALE = lp_problem(
    [-0.75, 150.0, -0.02, 6.0],
    a_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
    b_ub=[0.0, 0.0, 1.0],
)


@pytest.mark.parametrize("run", [0, lp.DEGENERATE_RUN, lp.MAX_ITERATIONS])
def test_beale_cycling_example(monkeypatch, run):
    monkeypatch.setattr(lp, "DEGENERATE_RUN", run)
    sol = solve_lp(BEALE)
    assert sol.status == OPTIMAL
    assert abs(sol.value + 0.05) <= 1e-15
    np.testing.assert_allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-15)


# --- HiGHS cross-checks -----------------------------------------------------------
# Status and value against scipy's HiGHS (1e-9 relative), and each optimal
# LP's certificate within FEAS_TOL.  Skipped where scipy is not installed.

HIGHS_STATUS = {0: OPTIMAL, 3: UNBOUNDED}


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def assert_matches_highs(linprog, problem, sol):
    blocks = {}
    if problem.a_ub.size:
        blocks.update(A_ub=problem.a_ub, b_ub=problem.b_ub)
    ref = linprog(problem.c, bounds=(0, None), method="highs", **blocks)
    assert sol.status == HIGHS_STATUS.get(ref.status, ref.message)
    if sol.status == OPTIMAL:
        assert abs(sol.value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), (sol.value, ref.fun)
        assert max(sol.primal_residual, sol.dual_residual, sol.duality_gap) <= FEAS_TOL
    else:
        assert sol.primal_residual is sol.dual_residual is sol.duality_gap is None


@pytest.mark.parametrize(
    "grid, t", [pytest.param(grid, t, id=name) for name, grid, t in degenerate_delivery_grids()]
)
def test_degenerate_delivery_lps_match_highs(linprog, grid, t):
    problem = build_delivery_lp(validate_stats(grid), t).problem
    assert_matches_highs(linprog, problem, solve_lp(problem))


def test_delivery_lps_match_highs(linprog):
    rng = np.random.default_rng(808)
    for users, t in ((3, 1), (4, 2), (5, 2), (6, 3), (7, 2), (8, 4)):
        stats = random_stats(rng, users, int(rng.integers(2, 6)))
        problem = build_delivery_lp(stats, t).problem
        assert_matches_highs(linprog, problem, solve_lp(problem))


def test_ordering_lps_match_highs(linprog):
    rng = np.random.default_rng(57)
    for users in (5, 6, 7):
        stats = random_stats(rng, users, 4)
        for t in (1, users // 2, users - 1):
            tup = caching_tuple(central_strategy(users, Fraction(t, users)))
            orderings = [tuple(int(k) + 1 for k in rng.permutation(users)) for _ in range(12)]
            problems = [build_permutation_lp(stats, tup, pi) for pi in orderings]
            for problem, sol in zip(problems, solve_stacked(problems)):
                assert_matches_highs(linprog, problem, sol)


def test_small_lps_match_highs(linprog):
    rng = np.random.default_rng(4242)
    problems = [random_bounded_lp(rng) for _ in range(30)] + [
        lp_problem([-1.0, 0.0], a_ub=[[-1.0, 1.0]], b_ub=[0.0]),
        lp_problem([-1.0, 0.0], a_ub=[[1e-15, -1.0], [3e-16, -1.0]], b_ub=[1.0, 1.0]),
        BEALE,
    ]
    for problem, sol in zip(problems, solve_stacked(problems)):
        assert_matches_highs(linprog, problem, sol)
