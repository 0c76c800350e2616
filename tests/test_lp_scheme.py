"""General delivery LP: matrix layout, optimum, allocation checking."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cachecast import lp_scheme
from cachecast.channel import validate_stats
from cachecast.errors import BadT, LengthMismatch, MuOutOfRange, NonIntegerT
from cachecast.lp import FEAS_TOL, GROWING_CAPACITY, lp_problem, solve_lp
from cachecast.lp_scheme import (
    achievable_rate_lp,
    build_delivery_lp,
    check_allocation,
    message_subsets,
)

from helpers import (
    MIXED3_RATE,
    MIXED3_SHARES,
    degenerate_delivery_grids,
    delivery_allocation,
    ladder_grids,
    sorted_uniform_ccdf,
)

THIRD = Fraction(1, 3)


# --- message_subsets ------------------------------------------------------------


def test_subsets_lexicographic():
    assert message_subsets(3, 1) == ((1, 2), (1, 3), (2, 3))
    assert message_subsets(3, 0) == ((1,), (2,), (3,))
    assert message_subsets(4, 3) == ((1, 2, 3, 4),)


def test_subsets_reject_bad_t():
    with pytest.raises(BadT):
        message_subsets(3, 3)
    with pytest.raises(BadT):
        message_subsets(3, -1)


# --- build_delivery_lp ------------------------------------------------------------


def test_lp_layout(mixed3):
    built = build_delivery_lp(mixed3, 1)
    assert built.problem.a_ub.shape == (9, 10)  # 6 decode + 3 budget rows
    assert built.decode_rows == (
        (1, (1, 2)), (2, (1, 2)),
        (1, (1, 3)), (3, (1, 3)),
        (2, (2, 3)), (3, (2, 3)),
    )
    # user 1 decoding the pair message {1,2}
    np.testing.assert_allclose(
        built.problem.a_ub[0],
        [-0.9, 0, 0, -0.3, 0, 0, -0.3, 0, 0, 1.0 / 3.0],
    )
    # level-1 air-time budget
    np.testing.assert_array_equal(
        built.problem.a_ub[6], [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    )
    np.testing.assert_array_equal(
        built.problem.b_ub, np.concatenate([np.zeros(6), np.ones(3)])
    )


def test_lp_column_lookup(mixed3):
    built = build_delivery_lp(mixed3, 1)
    assert built.column(1, (1, 2)) == 0
    assert built.column(2, (1, 3)) == 4
    assert built.column(3, (2, 3)) == 8


# --- achievable_rate_lp -------------------------------------------------------------


def test_achievable_reference_value(mixed3):
    alloc = achievable_rate_lp(mixed3, THIRD)
    assert abs(alloc.rate - MIXED3_RATE) <= 1e-9
    assert alloc.t == 1
    report = check_allocation(mixed3, alloc)
    assert report.feasible
    assert abs(report.required - alloc.rate / 3.0) <= 1e-15


def test_achievable_single_user_no_cache():
    alloc = achievable_rate_lp(validate_stats([[0.6, 0.2]]), 0)
    assert abs(alloc.rate - 0.8) <= 1e-9
    np.testing.assert_allclose(alloc.shares, [[1.0], [1.0]], atol=1e-9)


def test_achievable_two_users_split_one_level():
    alloc = achievable_rate_lp(validate_stats([[1.0], [1.0]]), 0)
    assert abs(alloc.rate - 0.5) <= 1e-9
    np.testing.assert_allclose(alloc.shares, [[0.5, 0.5]], atol=1e-9)


def test_achievable_dead_channel_gets_zero():
    alloc = achievable_rate_lp(validate_stats([[0.0, 0.0], [0.0, 0.0]]), 0)
    assert abs(alloc.rate) <= 1e-12


def test_achievable_rejects_bad_mu(mixed3):
    with pytest.raises(NonIntegerT):
        achievable_rate_lp(mixed3, Fraction(1, 4))
    with pytest.raises(BadT):
        achievable_rate_lp(mixed3, 1)
    with pytest.raises(MuOutOfRange):
        achievable_rate_lp(mixed3, Fraction(4, 3))


def test_achievable_beats_feasible_grid_points(mixed3):
    # no share grid on a coarse 1/20 lattice outperforms the LP optimum
    best = achievable_rate_lp(mixed3, THIRD).rate
    subsets = message_subsets(3, 1)
    rng = np.random.default_rng(606)
    for _ in range(2000):
        counts = rng.multinomial(20, [0.25, 0.25, 0.25, 0.25], size=3)
        y = counts[:, :3] / 20.0
        implied = min(
            3.0 * float(mixed3.ccdf[k - 1] @ y[:, j])
            for j, s in enumerate(subsets)
            for k in s
        )
        assert implied <= best + 1e-9


# --- check_allocation ---------------------------------------------------------------


def test_check_reference_allocation_margins(mixed3):
    alloc = delivery_allocation(MIXED3_SHARES, MIXED3_RATE, num_users=3, t=1)
    report = check_allocation(mixed3, alloc)
    assert report.feasible
    assert abs(report.margin(1, (1, 2)) - 0.125) <= 1e-12
    assert abs(report.margin(2, (1, 2))) <= 1e-12
    np.testing.assert_allclose(report.level_slacks, [0.0, 0.0, 0.0], atol=1e-12)


def test_check_flags_greedy_rate(mixed3):
    alloc = delivery_allocation(MIXED3_SHARES, 2.0, num_users=3, t=1)
    report = check_allocation(mixed3, alloc)
    assert not report.feasible
    assert report.margin(2, (1, 2)) < 0.0


def test_check_flags_overfull_level(mixed3):
    shares = np.asarray(MIXED3_SHARES).copy()
    shares[0, :] = [0.8, 0.3, 0.3]
    report = check_allocation(
        mixed3, delivery_allocation(shares, 0.1, num_users=3, t=1)
    )
    assert not report.feasible
    assert report.level_slacks[0] < 0.0


def test_check_rejects_wrong_shape(mixed3):
    alloc = delivery_allocation([[0.5, 0.5]], 0.5, num_users=2, t=0)
    with pytest.raises(LengthMismatch):
        check_allocation(mixed3, alloc)


# --- build_delivery_lp rows ----------------------------------------------------------


def build_delivery_a_ub_reference(stats, t):
    """The dense LP's a_ub written row by row, looking each subset up by value."""
    subsets = message_subsets(stats.num_users, t)
    B, num_subsets = stats.num_levels, len(subsets)
    rows = [(k, s) for s in subsets for k in s]
    a_ub = np.zeros((len(rows) + B, B * num_subsets + 1))
    for r, (k, s) in enumerate(rows):
        j = subsets.index(s)
        for l in range(B):
            a_ub[r, l * num_subsets + j] = -stats.ccdf[k - 1, l]
        a_ub[r, -1] = 1.0 / math.comb(stats.num_users, t)
    for l in range(B):
        a_ub[len(rows) + l, l * num_subsets: (l + 1) * num_subsets] = 1.0
    return a_ub


def test_lp_rows_match_the_row_loop():
    grid = np.round(sorted_uniform_ccdf(np.random.default_rng(71), 7, 4), 1)  # exact zeros too
    stats = validate_stats(grid)
    built = build_delivery_lp(stats, 2)
    reference = build_delivery_a_ub_reference(stats, 2)
    assert built.problem.a_ub.shape == reference.shape == (109, 141)
    assert built.problem.a_ub.tobytes() == reference.tobytes()


# --- the cutting-plane solve against the dense LP ------------------------------------


def dense_rate(stats, t):
    """The oracle: the dense LP of build_delivery_lp, solved whole."""
    solution = solve_lp(build_delivery_lp(stats, t).problem)
    assert solution.status == "optimal"
    return float(solution.x[-1])


def assert_matches_dense(stats, t):
    alloc = achievable_rate_lp(stats, Fraction(t, stats.num_users))
    expected = dense_rate(stats, t)
    assert abs(alloc.rate - expected) <= 1e-9, (alloc.rate, expected)
    assert check_allocation(stats, alloc).feasible
    assert 0.0 <= alloc.gap <= 1e-9 * max(1.0, expected)
    assert alloc.iterations >= (1 if expected > 0.0 else 0)
    return alloc


def sweep_cases():
    rng = np.random.default_rng(2024)
    cases = []
    for users in range(3, 9):
        for t in range(users):
            for rounded in (False, True):  # rounding to one decimal makes ties and exact zeros
                levels = int(rng.integers(2, 9))
                grid = sorted_uniform_ccdf(rng, users, levels)
                grid = np.round(grid, 1) if rounded else grid
                name = f"K{users}-t{t}-B{levels}" + ("-rounded" if rounded else "")
                cases.append(pytest.param(grid, t, id=name))
    return cases


@pytest.mark.parametrize("grid, t", sweep_cases())
def test_achievable_matches_dense_oracle(grid, t):
    assert_matches_dense(validate_stats(grid), t)


@pytest.mark.parametrize(
    "grid, t", [pytest.param(grid, t, id=name) for name, grid, t in degenerate_delivery_grids()]
)
def test_achievable_matches_dense_oracle_on_degenerate_grids(grid, t):
    assert_matches_dense(validate_stats(grid), t)


@pytest.mark.parametrize(
    "rows, t",
    [
        pytest.param([[0.6, 0.2]], 0, id="one-user"),
        pytest.param([[0.8], [0.5], [0.3]], 1, id="one-level"),
        pytest.param([[0.9, 0.4, 0.1], [0.7, 0.7, 0.2], [0.5, 0.3, 0.3], [0.9, 0.0, 0.0]], 0, id="t0"),
        pytest.param([[0.9, 0.4, 0.1], [0.7, 0.7, 0.2], [0.5, 0.3, 0.3], [0.9, 0.0, 0.0]], 3, id="t-max"),
    ],
)
def test_achievable_edge_cases_match_dense_oracle(rows, t):
    alloc = assert_matches_dense(validate_stats(rows), t)
    if len(rows[0]) == 1:  # a single level leaves the master nothing to choose
        assert alloc.iterations == 1


def test_achievable_user_without_levels_gets_zero():
    stats = validate_stats([[0.9, 0.5], [0.0, 0.0], [0.7, 0.1]])
    alloc = achievable_rate_lp(stats, THIRD)
    assert alloc.rate == 0.0 and dense_rate(stats, 1) <= 1e-12
    assert not alloc.shares.any()
    assert alloc.iterations == 0 and alloc.gap == 0.0
    assert check_allocation(stats, alloc).feasible


def test_achievable_k10_t4_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    stats = validate_stats(sorted_uniform_ccdf(np.random.default_rng(10), 10, 4))
    alloc = achievable_rate_lp(stats, Fraction(2, 5))
    problem = build_delivery_lp(stats, 4).problem
    reference = linprog(problem.c, A_ub=problem.a_ub, b_ub=problem.b_ub, method="highs")
    assert reference.status == 0
    assert abs(alloc.rate + reference.fun) <= 1e-9
    assert check_allocation(stats, alloc).feasible
    assert 0.0 <= alloc.gap <= 1e-9


def test_gap_brackets_the_optimum_when_stopped_early(monkeypatch):
    # A loose stop leaves a visible gap: the optimum must still lie in
    # [rate, rate + gap], and the early allocation must be feasible.
    monkeypatch.setattr(lp_scheme, "CUT_TOL", 1e-2)
    rng = np.random.default_rng(95)
    gaps = []
    for users, t, levels in ((5, 1, 6), (6, 2, 5), (7, 3, 8)):
        stats = validate_stats(sorted_uniform_ccdf(rng, users, levels))
        alloc = achievable_rate_lp(stats, Fraction(t, users))
        expected = dense_rate(stats, t)
        assert alloc.rate <= expected + 1e-12 <= alloc.rate + alloc.gap + 2e-12
        assert check_allocation(stats, alloc).feasible
        gaps.append(alloc.gap)
    assert max(gaps) > 1e-4


# --- the warm-started master ------------------------------------------------------


def check_warm_master(monkeypatch, index, name):
    """Every cut's master of ladder LP `index`, resumed from the last basis,
    against solve_lp of the same packing LP from the slack basis.

    Returns the capacities the master's buffers grew to, in order.
    """
    add_column, grow = lp_scheme.GrowingLp.add_column, lp_scheme.GrowingLp._grow
    columns, masters, capacities = [], [], []

    def recording(master, column, cost):
        columns.append(np.array(column))
        masters.append(add_column(master, column, cost))
        return masters[-1]

    def growing(master):
        grow(master)
        capacities.append(master._a.shape[2])

    monkeypatch.setattr(lp_scheme.GrowingLp, "add_column", recording)
    monkeypatch.setattr(lp_scheme.GrowingLp, "_grow", growing)
    grid_name, grid, t = ladder_grids()[index]
    assert grid_name == name
    alloc = achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    assert len(masters) == alloc.iterations > 1
    cold_pivots = 0
    for count, warm in enumerate(masters, start=1):
        g = np.array(columns[:count])
        cold = solve_lp(lp_problem(-np.ones(count), a_ub=g.T, b_ub=np.ones(4)))
        assert abs(warm.value - cold.value) <= 1e-12 * abs(cold.value)
        assert warm.primal_residual <= FEAS_TOL and warm.dual_residual <= FEAS_TOL
        assert warm.duality_gap <= FEAS_TOL * (1.0 + abs(warm.value))
        cold_pivots += cold.pivots
    assert 5 * sum(warm.pivots for warm in masters) <= cold_pivots
    assert capacities[-1] // 2 < len(masters) <= capacities[-1]
    return capacities


def test_warm_master_matches_cold_solves_with_fewer_pivots(monkeypatch):
    assert check_warm_master(monkeypatch, 0, "K7-t2") == [2 * GROWING_CAPACITY]  # 15 cuts


def test_warm_master_grows_its_buffers_twice(monkeypatch):
    # 25 cuts: the buffers double twice past their GROWING_CAPACITY of 8.
    assert check_warm_master(monkeypatch, 6, "K9-t4") == [2 * GROWING_CAPACITY, 4 * GROWING_CAPACITY]


@pytest.mark.parametrize(
    "grid, t, cuts",
    [pytest.param(grid, t, cuts, id=name) for (name, grid, t), cuts in zip(ladder_grids(), (15, 19, 19, 13, 15, 19, 25))],
)
def test_ladder_cut_counts_are_pinned(grid, t, cuts):
    assert achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0])).iterations == cuts


@pytest.mark.parametrize("name", ["K8-t3-B4-stall", "K7-t3", "K8-t2"])
def test_loop_ends_at_the_optimum_without_a_cut_tolerance(monkeypatch, name):
    # With CUT_TOL = 0 the last cuts price within the simplex's FEAS_TOL of
    # the master's optimum.  Left out of the basis, such a cut would leave
    # lambda, and so the next cut, as they were until MAX_CUTS; these three
    # grids did.  The loop must end at the optimum instead.
    grid, t = {n: (g, t) for n, g, t in degenerate_delivery_grids() + ladder_grids()}[name]
    stats = validate_stats(grid)
    mu = Fraction(t, grid.shape[0])
    expected = achievable_rate_lp(stats, mu).rate
    monkeypatch.setattr(lp_scheme, "CUT_TOL", 0.0)
    monkeypatch.setattr(lp_scheme, "MAX_CUTS", 100)
    alloc = achievable_rate_lp(stats, mu)
    assert alloc.iterations < 100 and alloc.gap <= 1e-14 * alloc.rate
    assert abs(alloc.rate - expected) <= 1e-12 * expected
    assert check_allocation(stats, alloc).feasible


def test_unchanged_prices_end_the_loop(monkeypatch):
    # A master that hands back its last solution leaves lambda as it was,
    # so the next cut would repeat this one: the loop stops there and
    # reports the gap it has.
    add_column = lp_scheme.GrowingLp.add_column
    solutions = []

    def stuck_after_3(master, column, cost):
        if len(solutions) < 3:
            solutions.append(add_column(master, column, cost))
        return solutions[-1]

    monkeypatch.setattr(lp_scheme.GrowingLp, "add_column", stuck_after_3)
    name, grid, t = ladder_grids()[0]
    stats = validate_stats(grid)
    alloc = achievable_rate_lp(stats, Fraction(t, 7))
    assert alloc.iterations == 4 and alloc.gap > 1e-6
    assert check_allocation(stats, alloc).feasible
