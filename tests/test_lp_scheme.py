"""General delivery LP: matrix layout, optimum, allocation checking."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cachecast import lp, lp_scheme
from cachecast.channel import validate_stats
from cachecast.errors import BadT, LengthMismatch, MuOutOfRange, NonIntegerT, NumericalFailure
from cachecast.lp import FEAS_TOL, OPTIMAL, GrowingLp, LpStack, solve_lp, solve_lps
from cachecast.lp_scheme import (
    achievable_rate_lp,
    build_delivery_lp,
    check_allocation,
    message_subsets,
)

from helpers import (
    MIXED3_RATE,
    MIXED3_SHARES,
    chain_ccdf,
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
    assert built.a_ub.shape == (9, 10)  # 6 decode + 3 budget rows
    assert built.decode_rows == (
        (1, (1, 2)), (2, (1, 2)),
        (1, (1, 3)), (3, (1, 3)),
        (2, (2, 3)), (3, (2, 3)),
    )
    # user 1 decoding the pair message {1,2}
    np.testing.assert_allclose(
        built.a_ub[0],
        [-0.9, 0, 0, -0.3, 0, 0, -0.3, 0, 0, 1.0 / 3.0],
    )
    # level-1 air-time budget
    np.testing.assert_array_equal(
        built.a_ub[6], [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    )
    np.testing.assert_array_equal(
        built.b_ub, np.concatenate([np.zeros(6), np.ones(3)])
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
    # Validation lets a later level exceed level 1 by PROB_TOL: a user who
    # never receives level 1 is on a dead channel too.
    alloc = achievable_rate_lp(validate_stats([[0.0, 1e-13], [0.9, 0.4]]), 0)
    assert alloc.rate == 0.0 and not alloc.shares.any()


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


def violation_of(mixed3, shares, rate):
    return check_allocation(mixed3, delivery_allocation(shares, rate, num_users=3, t=1))


def test_check_reports_the_largest_violation(mixed3):
    shares = np.asarray(MIXED3_SHARES)
    # A short margin: at rate 2 each message needs 2/3, and user 2 collects
    # 1/2 on {1,2}.
    report = violation_of(mixed3, shares, 2.0)
    assert not report.feasible
    assert report.violation == -min(report.margins.values()) == -report.margin(2, (1, 2))
    assert abs(report.violation - 1.0 / 6.0) <= 1e-12
    # An over-budget level: level 1 sums to 1.4 at a rate every user meets.
    over = shares.copy()
    over[0, :] = [0.8, 0.3, 0.3]
    report = violation_of(mixed3, over, 0.1)
    assert min(report.margins.values()) > 0.0
    assert not report.feasible and report.violation == -report.level_slacks[0]
    assert abs(report.violation - 0.4) <= 1e-12
    # A negative share on level 2, whose budget it leaves slack.
    negative = shares.copy()
    negative[1, 1] = -0.05
    report = violation_of(mixed3, negative, 1.0)
    assert min(report.margins.values()) > 0.0 and report.level_slacks.min() >= 0.0
    assert not report.feasible and report.violation == 0.05


def test_check_feasible_allocation_has_no_violation(mixed3):
    report = violation_of(mixed3, 0.5 * np.asarray(MIXED3_SHARES), 0.5)
    assert report.feasible
    assert report.violation == 0.0 and math.copysign(1.0, report.violation) == 1.0


def test_check_nan_share_is_infeasible(mixed3):
    shares = np.asarray(MIXED3_SHARES).copy()
    shares[2, 0] = np.nan
    report = violation_of(mixed3, shares, 0.5)
    assert not report.feasible and math.isnan(report.violation)


def test_check_rejects_wrong_shape(mixed3):
    alloc = delivery_allocation([[0.5, 0.5]], 0.5, num_users=2, t=0)
    with pytest.raises(LengthMismatch):
        check_allocation(mixed3, alloc)
    # One column of shares for three subsets would broadcast into every margin.
    alloc = delivery_allocation(np.asarray(MIXED3_SHARES)[:, :1], MIXED3_RATE, num_users=3, t=1)
    with pytest.raises(LengthMismatch, match=r"^shares must be 3 x 3, got \(3, 1\)$"):
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
    assert built.a_ub.shape == reference.shape == (109, 141)
    assert built.a_ub.tobytes() == reference.tobytes()


# --- the cutting-plane solve against the dense LP ------------------------------------


def dense_rate(stats, t):
    """The oracle: the dense LP of build_delivery_lp, solved whole."""
    built = build_delivery_lp(stats, t)
    solution = solve_lp(built.c, built.a_ub, built.b_ub)
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
    built = build_delivery_lp(stats, 4)
    reference = linprog(built.c, A_ub=built.a_ub, b_ub=built.b_ub, method="highs")
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


# --- the kept subset stack ----------------------------------------------------------


def subset_solves(monkeypatch, grid, t):
    """(lambda, StackSolution) of each cut's solve of the kept subset stack of grid's delivery LP at t."""
    solve, solves = LpStack.solve, []

    def recording(stack, lam):
        outcomes = solve(stack, lam)
        solves.append((np.array(lam), outcomes))
        return outcomes

    with monkeypatch.context() as patch:
        patch.setattr(LpStack, "solve", recording)
        alloc = achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    assert len(solves) == alloc.iterations
    return solves


# Lockstep pivots of the kept stack, summed over the cuts: the largest
# pivot count of each cut's stack.  Solved cold, each from the slack
# basis in the max form at the same lambda, the ladder LPs take 57, 86,
# 69, 72, 72, 105 and 166.
WARM_LOCKSTEP_PIVOTS = {
    "K7-t2": 24, "K7-t3": 44, "K8-t2": 28, "K8-t3": 23, "K8-t4": 27, "K9-t3": 40, "K9-t4": 53,
    "K6-t2-B5-seed27": 21, "K6-t2-B5-seed208": 59, "K8-t3-B4-stall": 36, "K8-t3-B4-chain": 10,
}


def seeded_levels(member_ccdf):
    """The levels that get a seed cut: every subset's weakest member receives them."""
    return (member_ccdf.min(axis=1) > 0.0).all(axis=0)


@pytest.mark.parametrize(
    "name, grid, t", [pytest.param(*case, id=case[0]) for case in ladder_grids() + degenerate_delivery_grids()]
)
def test_kept_subset_stack_matches_cold_solves(monkeypatch, name, grid, t):
    # At every cut, each subset LP repriced at the cut's lambda and resumed
    # from the last cut's basis has the value c_S(lambda) of solve_lps on
    # the max form from the slack basis, to 1e-12 relative, and its u_S
    # meets S's rows.  The first lambda comes from the seed cuts, at which
    # the crash basis is no longer optimal, and no cut's lambda leaves a
    # seeded level free.
    member_ccdf = validate_stats(grid).ccdf[np.array(message_subsets(grid.shape[0], t)) - 1]
    solves = subset_solves(monkeypatch, grid, t)
    lockstep = 0
    for lam, warm in solves:
        cold = solve_lps(-np.ones(t + 1), member_ccdf.transpose(0, 2, 1), lam)
        assert warm.status == cold.status == [OPTIMAL] * len(member_ccdf)
        assert (np.abs(warm.value + cold.value) <= 1e-12 * np.abs(cold.value)).all()
        assert (np.matmul(member_ccdf, warm.x[:, :, None]) >= 1.0 - FEAS_TOL).all()
        lockstep += int(warm.pivots.max())
    assert solves[0][1].pivots.any()
    seeded = seeded_levels(member_ccdf)
    assert seeded[0] and all((lam[seeded] > 0.0).all() for lam, _ in solves)
    assert lockstep == WARM_LOCKSTEP_PIVOTS[name]


# --- the warm-started master ------------------------------------------------------


@pytest.mark.parametrize("index, name", [(0, "K7-t2"), (6, "K9-t4")], ids=["K7-t2", "K9-t4"])
def test_warm_master_matches_cold_solves_with_fewer_pivots(monkeypatch, index, name):
    # Every master of ladder LP `index` (11 and 21 cuts), the seed master
    # first, resumed from the last basis, against solve_lp of the same
    # packing LP from the slack basis.  All four levels get a seed.
    add_column, solve = GrowingLp.add_column, GrowingLp.solve
    columns, costs, masters = [], [], []

    def recording_column(master, column, cost):
        columns.append(np.array(column))
        costs.append(cost)
        add_column(master, column, cost)

    def recording_solve(master):
        outcome = solve(master)
        masters.append((np.array(costs), outcome))
        return outcome

    grid_name, grid, t = ladder_grids()[index]
    assert grid_name == name
    with monkeypatch.context() as patch:
        patch.setattr(GrowingLp, "add_column", recording_column)
        patch.setattr(GrowingLp, "solve", recording_solve)
        alloc = achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    # The last cut repeats one already in the master, so it ends the loop
    # without a master of its own.
    assert len(masters) == alloc.iterations > 1
    assert len(columns) == 3 + alloc.iterations and np.array_equal(columns[:4], np.eye(4))
    assert masters[0][0].size == 4 and (masters[-1][0][4:] == -1.0).all()
    cold_pivots = 0
    for costs, warm in masters:
        g = np.array(columns[: costs.size])
        cold = solve_lp(costs, g.T, np.ones(4))
        assert abs(warm.value - cold.value) <= 1e-12 * abs(cold.value)
        assert warm.primal_residual <= FEAS_TOL and warm.dual_residual <= FEAS_TOL
        assert warm.duality_gap <= FEAS_TOL * (1.0 + abs(warm.value))
        cold_pivots += cold.pivots
    assert 5 * sum(warm.pivots for _, warm in masters) <= cold_pivots


@pytest.mark.parametrize(
    "grid, t, cuts",
    [pytest.param(grid, t, cuts, id=name) for (name, grid, t), cuts in zip(ladder_grids(), (11, 15, 13, 9, 11, 15, 21))],
)
def test_ladder_cut_counts_are_pinned(grid, t, cuts):
    assert achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0])).iterations == cuts


# --- the seed cuts ----------------------------------------------------------------


def seed_master_columns(monkeypatch, stats, mu):
    """The columns the master holds at its first solve, and the allocation."""
    add_column, solve = GrowingLp.add_column, GrowingLp.solve
    columns, seeds = [], []

    def recording_column(master, column, cost):
        columns.append(np.array(column))
        add_column(master, column, cost)

    def recording_solve(master):
        if not seeds:
            seeds.extend(columns)
        return solve(master)

    with monkeypatch.context() as patch:
        patch.setattr(GrowingLp, "add_column", recording_column)
        patch.setattr(GrowingLp, "solve", recording_solve)
        alloc = achievable_rate_lp(stats, mu)
    return seeds, alloc


def test_level_lost_to_one_user_gets_no_seed(monkeypatch):
    # User 2 receives nothing beyond level 1, so every subset holding user 2
    # has a weakest member at 0 on levels 2-4: only level 1 gets a seed.
    grid = sorted_uniform_ccdf(np.random.default_rng(3011), 5, 4)
    grid[1, 1:] = 0.0
    stats = validate_stats(grid)
    for t in (1, 2):
        seeds, alloc = seed_master_columns(monkeypatch, stats, Fraction(t, 5))
        assert len(seeds) == 1 and seeds[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert alloc.rate == assert_matches_dense(stats, t).rate


def test_subnormal_level_gets_no_seed(monkeypatch):
    # 1/w overflows on a level of subnormal entries, so G_l is not finite
    # and the level gets no seed; the LP still solves (without a warning).
    grid = np.array([[0.9, 0.5, 1e-310], [0.8, 0.4, 1e-310], [0.7, 0.3, 1e-310]])
    stats = validate_stats(grid)
    seeds, alloc = seed_master_columns(monkeypatch, stats, THIRD)
    assert [seed.tolist() for seed in seeds] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert alloc.rate == assert_matches_dense(stats, 1).rate


def tiny_tail_grids():
    """K = 6, B = 4 sorted-uniform grids where about half the users hold 1e-12
    and 1e-15 on levels 3 and 4."""
    rng = np.random.default_rng(600)
    for _ in range(20):
        grid = sorted_uniform_ccdf(rng, 6, 4)
        tiny = rng.random(6) < 0.5
        grid[tiny, 2], grid[tiny, 3] = 1e-12, 1e-15
        yield grid


@pytest.mark.parametrize("t", [1, 2, 3])
def test_tiny_tail_levels_match_highs(monkeypatch, t):
    # A seed on such a level costs -1/G_l of about -1e-15.  Entered as the
    # cut G_l e_l at cost -1 instead, the master's column held entries of
    # about 1e15 and 36 of these 60 allocations failed their recheck.
    linprog = pytest.importorskip("scipy.optimize").linprog
    for grid in tiny_tail_grids():
        stats = validate_stats(grid)
        seeds, alloc = seed_master_columns(monkeypatch, stats, Fraction(t, 6))
        built = build_delivery_lp(stats, t)
        reference = linprog(built.c, A_ub=built.a_ub, b_ub=built.b_ub, method="highs")
        assert reference.status == 0
        assert abs(alloc.rate + reference.fun) <= 1e-9
        assert check_allocation(stats, alloc).feasible
        assert len(seeds) == 4  # the tiny levels get seeds too


def small_entry_grids(seed, values):
    """K = 6, B = 4 sorted-uniform grids where each user, with probability
    1/2, has levels 2-4 replaced by sorted draws from values."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        grid = sorted_uniform_ccdf(rng, 6, 4)
        for k in range(6):
            if rng.random() < 0.5:
                grid[k, 1:] = np.sort(rng.choice(values, 3))[::-1]
        yield grid


@pytest.mark.parametrize(
    "seed, values, refines, most",
    [(61, (1e-6, 1e-9), False, 5), (62, (1e-6, 1e-9), True, 6), (63, (1e-3, 1e-6, 1e-9, 1e-12), True, 40)],
)
def test_small_entries_are_refined_to_a_certified_allocation(monkeypatch, seed, values, refines, most):
    # The subset LPs' bases mix entries near 1 with entries near 1e-9, and
    # x read off the tableau misses FEAS_TOL by 1e-9 to 1e-7: 13 of these
    # 180 delivery LPs failed their recheck that way, and one its master's
    # dual check (2.8e-9).  Refined once at their final bases, those LPs
    # pass the same certificate, and every delivery LP returns a feasible
    # allocation with a certified gap of at most 1e-9.  The subset stack
    # keeps its tableau from cut to cut, and a refined LP's rows replace
    # its tableau's, so it is refined again only where later pivots drift
    # anew: 0, 5 and 33 refinements over the 60 at the three seeds on a
    # 2-CPU Xeon, where keeping the drifted rows took 0, 8 and 141.
    # Whether a residual lands just above FEAS_TOL can differ with the
    # BLAS, so only seeds 62 and 63 must refine, and the counts are bounded
    # with some room.
    calls = []
    refine = lp._refined

    def counting(a, *rest):
        calls.append(len(a))
        return refine(a, *rest)

    monkeypatch.setattr(lp, "_refined", counting)
    for grid in small_entry_grids(seed, values):
        stats = validate_stats(grid)
        for t in (1, 2, 3):
            alloc = achievable_rate_lp(stats, Fraction(t, 6))
            assert check_allocation(stats, alloc).feasible
            assert 0.0 <= alloc.gap <= 1e-9
    assert calls or not refines
    assert sum(calls) <= most


def master_labels(master):
    """The master's basis in _refined's labels: its columns 0..n-1, then its slacks n..n+m-1."""
    m, n, basis = master._b.size, master._n, master._basis
    return np.where(basis > m, basis - (m + 1), basis + n)


def refining_the_master(monkeypatch, spoil=None):
    """Wrap lp._refined to record the basis and the refined x_B of each
    master refinement (its rows are the B = 4 levels; the subset LPs' are
    t + 1 = 3); spoil, if given, replaces the refined y."""
    refine, calls = lp._refined, []

    def recording(a, b, costs, basis, nonbasic):
        rows, y = refine(a, b, costs, basis, nonbasic)
        if a.shape[:2] == (1, 4):
            calls.append((basis[0].copy(), rows[0, :, -1].copy()))
            if spoil is not None:
                y = spoil(y)
        return rows, y

    monkeypatch.setattr(lp, "_refined", recording)
    return calls


def test_master_is_refined_at_its_basis(monkeypatch):
    # On the first seed-62 small-entry grid at t = 2, the master's optimum
    # at cut 9 (13 columns) misses its certificate in floats.  It is
    # refined once, at the basis its simplex ended on, passes, its refined
    # rows replace the tableau's, and the loop ends at cut 10 with the
    # allocation frozen in ALLOCATION_DIGESTS.
    grid = next(small_entry_grids(62, (1e-6, 1e-9)))
    calls = refining_the_master(monkeypatch)
    solve, ended = GrowingLp.solve, []  # the master's basis and rhs after each solve

    def ending(master):
        outcome = solve(master)
        ended.append((master_labels(master), master._tableau[: master._b.size, master._b.size].copy()))
        return outcome

    monkeypatch.setattr(GrowingLp, "solve", ending)
    stats = validate_stats(grid)
    alloc = achievable_rate_lp(stats, Fraction(2, 6))
    assert len(calls) == 1 and len(ended) == 10  # the seed master and cuts 1-9
    (basis, rhs), (kept_basis, kept_rhs) = calls[0], ended[9]
    assert np.array_equal(basis, kept_basis) and np.array_equal(rhs, kept_rhs)
    assert alloc.iterations == 10 and check_allocation(stats, alloc).feasible
    assert allocation_digest(alloc) == ALLOCATION_DIGESTS["small-entry-seed62-t2"]


def test_master_failing_its_refinement_names_the_cut(monkeypatch):
    # The same master, refined to duals that fail the dual check again:
    # its NumericalFailure names the master LP and its cut.
    grid = next(small_entry_grids(62, (1e-6, 1e-9)))
    calls = refining_the_master(monkeypatch, spoil=lambda y: y + 1.0)
    with pytest.raises(NumericalFailure) as caught:
        achievable_rate_lp(validate_stats(grid), Fraction(2, 6))
    assert len(calls) == 1
    assert re.match(
        r"delivery LP \(K=6, t=2, B=4\): optimal basis fails dual feasibility check \(dual residual \S+\)"
        r" \(master LP, cut 9, gap ",
        str(caught.value),
    )


# --- the same bytes ------------------------------------------------------------------


def frozen_allocation_cases():
    """(name, ccdf, t) of the allocations frozen in ALLOCATION_DIGESTS."""
    rng = np.random.default_rng([1, 1])  # the delivery-ladder workload's grids, in its order
    for users, t in ((7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (9, 3), (9, 4)):
        yield f"ladder-K{users}-t{t}", sorted_uniform_ccdf(rng, users, 4), t
    for users, t in ((8, 3), (9, 3)):
        yield f"chain-K{users}-t{t}", chain_ccdf(rng, users, 4), t
    yield "sim-K6B5", sorted_uniform_ccdf(np.random.default_rng([1, 2]), 6, 5), 2  # simulate-1e6's K = 6 LP
    grid = next(tiny_tail_grids())
    for t in (1, 2, 3):
        yield f"tiny-tail-t{t}", grid, t
    for seed, values in ((61, (1e-6, 1e-9)), (62, (1e-6, 1e-9)), (63, (1e-3, 1e-6, 1e-9, 1e-12))):
        grid = next(small_entry_grids(seed, values))
        for t in (1, 2, 3):
            yield f"small-entry-seed{seed}-t{t}", grid, t


def allocation_digest(alloc):
    """SHA-256 of an allocation's rate, gap and cut count as float64 bytes, then its shares' bytes."""
    numbers = np.array([alloc.rate, alloc.gap, alloc.iterations]).tobytes()
    return hashlib.sha256(numbers + alloc.shares.tobytes()).hexdigest()


# Frozen while the master was an LpStack that add_column grew, with the
# duals priced afresh as c_B.Binv at every solve; the GrowingLp master keeps
# every byte, the master refined at cut 9 of small-entry-seed62-t2 included.
# Cut counts: ladder 11, 15, 13, 9, 11, 15, 21; chains 6, 10; sim-K6B5 19;
# tiny tail 13, 12, 13; small entries 8, 7, 4 / 11, 10, 9 / 8, 5, 5.
ALLOCATION_DIGESTS = {
    "ladder-K7-t2": "c3ba9d862e15f227508f4ca874e432ad15a76a2055bad92733412a5914272ddf",
    "ladder-K7-t3": "494f31a905ad0e0152beb1c6b10ae90e363addc33f0ff09e76753df1a6fed773",
    "ladder-K8-t2": "8f619587b95e90a5562894a97ee8f92e02236586356f9f7cfae72e65d8e389fd",
    "ladder-K8-t3": "463292b1932d16d0af2df2cedf8239bae32df4e85c2dff68fc70c7c30d3f6c85",
    "ladder-K8-t4": "6bf764bd49d6a635f531e7716fac15f54fce100293225a86b5d36b2682561f52",
    "ladder-K9-t3": "09fc86109a9707d676ab0a6e336e2a553f2916b7f8eada0c27a04535651d9577",
    "ladder-K9-t4": "e21a1623e6de37b6f3f5af53c1875a011e49661d0d806cb4227bbd300295e945",
    "chain-K8-t3": "54398650ea65db5375b0723071661cdbfd3c0ae573006cfd687dc8137190431b",
    "chain-K9-t3": "5a8668f6ca35bbe0ae9f865016ec37842852fe8d3d4727c030676c0d9b24f52f",
    "sim-K6B5": "7fc17f76e0538c50a5e78823a3c2a18e960f634bb01c44ca20c9421802cf83af",
    "tiny-tail-t1": "f21d8aed56ffc20162a1cca038aafb811efa05f68ad4ab5882f75b2365b70edd",
    "tiny-tail-t2": "a03946222d8ccb63dd35e438f5b452b513a6f0cdb28a4098f72dfcf6bcd31eb4",
    "tiny-tail-t3": "fb881988e1f6ec248178d18b4d1180aff19b0ae6a0db1416b3cf7543b3ec1e9d",
    "small-entry-seed61-t1": "e9a6ab966d9a94c2742de48ee054dcd29d2540336e96b4a07599d78248463e51",
    "small-entry-seed61-t2": "d2356c59b088544c15350e7518cdeaa0592230112e524cb5d0393a4c371b4c80",
    "small-entry-seed61-t3": "829c5e5c546cd957562496a05753b8183db27fec7b82953a62866a351510dd3d",
    "small-entry-seed62-t1": "b4be49ca6c29702c6683a3ec6c30a7156e04276b90961445e7e7dc56e9abe786",
    "small-entry-seed62-t2": "37b8a597a024e3a1ecc2c996c24f8a7794539323866eb72c6dd55205e4c03a79",
    "small-entry-seed62-t3": "7e190c519c837e263b169b577aba3b59609383aac6644bd838fc8880abfb82d4",
    "small-entry-seed63-t1": "99ce1e711bdcffa4409afe0fe2aa133c9af0a6a4cb695f22659bd245c187e67f",
    "small-entry-seed63-t2": "60fbe997a6aecee1a5cc7c8c950c9d24626ac877caa3cb7683e40a762cbdbaf4",
    "small-entry-seed63-t3": "4b802bb6154e9459e025920bd033924b943ebf3c9345d7c76c297d95eb142ef0",
}


@pytest.mark.parametrize("name, grid, t", [pytest.param(*case, id=case[0]) for case in frozen_allocation_cases()])
def test_allocation_digests_are_frozen(name, grid, t):
    alloc = achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    assert allocation_digest(alloc) == ALLOCATION_DIGESTS[name]


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
    # reports the gap it has.  The seed master and those of cuts 1 and 2
    # solve; cut 3's hands back cut 2's solution.
    solve = GrowingLp.solve
    solutions = []

    def stuck_after_3(master):
        if len(solutions) < 3:
            solutions.append(solve(master))
        return solutions[-1]

    monkeypatch.setattr(GrowingLp, "solve", stuck_after_3)
    name, grid, t = ladder_grids()[0]
    stats = validate_stats(grid)
    alloc = achievable_rate_lp(stats, Fraction(t, 7))
    assert alloc.iterations == 3 and alloc.gap > 1e-6
    assert check_allocation(stats, alloc).feasible
