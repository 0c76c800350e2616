"""General delivery LP: matrix layout, optimum, allocation checking."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cachecast import lp, lp_scheme
from cachecast.channel import ChannelStats, validate_stats
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
    MIXED3_ROWS,
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
    c, a_ub, b_ub = build_delivery_lp(mixed3, 1)
    assert a_ub.shape == (9, 10)  # 6 decode + 3 budget rows
    np.testing.assert_array_equal(c, [0.0] * 9 + [-1.0])
    # user 1 decoding the pair message {1,2}
    np.testing.assert_allclose(
        a_ub[0],
        [-0.9, 0, 0, -0.3, 0, 0, -0.3, 0, 0, 1.0 / 3.0],
    )
    # level-1 air-time budget
    np.testing.assert_array_equal(
        a_ub[6], [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    )
    np.testing.assert_array_equal(
        b_ub, np.concatenate([np.zeros(6), np.ones(3)])
    )


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
    assert report.margins.shape == (3, 2)  # (subset, member), as message_subsets(3, 1)
    assert abs(report.margins[0, 0] - 0.125) <= 1e-12  # user 1 on {1,2}
    assert abs(report.margins[0, 1]) <= 1e-12  # user 2 on {1,2}
    np.testing.assert_allclose(report.level_slacks, [0.0, 0.0, 0.0], atol=1e-12)


def test_check_flags_greedy_rate(mixed3):
    alloc = delivery_allocation(MIXED3_SHARES, 2.0, num_users=3, t=1)
    report = check_allocation(mixed3, alloc)
    assert not report.feasible
    assert report.margins[0, 1] < 0.0  # user 2 on {1,2}


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
    assert report.violation == -report.margins.min() == -report.margins[0, 1]
    assert abs(report.violation - 1.0 / 6.0) <= 1e-12
    # An over-budget level: level 1 sums to 1.4 at a rate every user meets.
    over = shares.copy()
    over[0, :] = [0.8, 0.3, 0.3]
    report = violation_of(mixed3, over, 0.1)
    assert report.margins.min() > 0.0
    assert not report.feasible and report.violation == -report.level_slacks[0]
    assert abs(report.violation - 0.4) <= 1e-12
    # A negative share on level 2, whose budget it leaves slack.
    negative = shares.copy()
    negative[1, 1] = -0.05
    report = violation_of(mixed3, negative, 1.0)
    assert report.margins.min() > 0.0 and report.level_slacks.min() >= 0.0
    assert not report.feasible and report.violation == 0.05


def test_check_judges_margins_at_the_grid_scale(mixed3):
    # mixed3 times 2^-34 at rate 2^-33: user 2 on {1,2} falls short by 2^-34/6,
    # far inside FEAS_TOL, but 1/6 of the grid's scale, as at rate 2 on
    # mixed3 itself.  Shares and level slacks keep FEAS_TOL as it is.
    small = ChannelStats(3, 3, np.ldexp(mixed3.ccdf, -34))
    shares = np.asarray(MIXED3_SHARES)
    report = check_allocation(small, delivery_allocation(shares, math.ldexp(2.0, -34), num_users=3, t=1))
    assert not report.feasible
    assert report.violation == math.ldexp(-report.margins[0, 1], 34) == violation_of(mixed3, shares, 2.0).violation
    over = shares.copy()
    over[0, :] = [0.8, 0.3, 0.3]
    report = check_allocation(small, delivery_allocation(over, math.ldexp(0.1, -34), num_users=3, t=1))
    assert not report.feasible and report.violation == -report.level_slacks[0]
    assert check_allocation(small, delivery_allocation(0.5 * shares, math.ldexp(0.5, -34), num_users=3, t=1)).feasible


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
    _, a_ub, _ = build_delivery_lp(stats, 2)
    reference = build_delivery_a_ub_reference(stats, 2)
    assert a_ub.shape == reference.shape == (109, 141)
    assert a_ub.tobytes() == reference.tobytes()


# --- the cutting-plane solve against the dense LP ------------------------------------


def dense_rate(stats, t):
    """The oracle: the dense LP of build_delivery_lp, solved whole."""
    solution = solve_lp(*build_delivery_lp(stats, t))
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
    c, a_ub, b_ub = build_delivery_lp(stats, 4)
    reference = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
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


def recorded_loop(monkeypatch, stats, mu):
    """Run achievable_rate_lp(stats, mu), recording every column the master
    receives (the seeds first), each master solve as (the costs of the
    columns it holds, its outcome) and each subset solve as (lambda, its
    StackSolution).  Returns the three lists and the allocation."""
    add_column, master_solve, stack_solve = GrowingLp.add_column, GrowingLp.solve, LpStack.solve
    columns, costs, masters, solves = [], [], [], []

    def recording_column(master, column, cost):
        columns.append(np.array(column))
        costs.append(cost)
        add_column(master, column, cost)

    def recording_master(master):
        outcome = master_solve(master)
        masters.append((np.array(costs), outcome))
        return outcome

    def recording_stack(stack, lam):
        outcomes = stack_solve(stack, lam)
        solves.append((np.array(lam), outcomes))
        return outcomes

    with monkeypatch.context() as patch:
        patch.setattr(GrowingLp, "add_column", recording_column)
        patch.setattr(GrowingLp, "solve", recording_master)
        patch.setattr(LpStack, "solve", recording_stack)
        alloc = achievable_rate_lp(stats, mu)
    assert len(solves) == alloc.iterations
    return columns, masters, solves, alloc


def subset_solves(monkeypatch, grid, t):
    """(lambda, StackSolution) of each subset solve of the kept subset stack of grid's delivery LP at t."""
    return recorded_loop(monkeypatch, validate_stats(grid), Fraction(t, grid.shape[0]))[2]


# Lockstep pivots of the kept stack, summed over the subset solves: the
# largest pivot count of each solve's stack.  Kelley's loop, which solved
# the stack at every cut, took 24, 44, 28, 23, 27, 40, 53 on the ladder
# and 21, 59, 36, 10 on the others; solved cold, each from the slack basis
# in the max form at the same lambda, its ladder LPs took 57, 86, 69, 72,
# 72, 105 and 166.
WARM_LOCKSTEP_PIVOTS = {
    "K7-t2": 21, "K7-t3": 30, "K8-t2": 21, "K8-t3": 21, "K8-t4": 16, "K9-t3": 32, "K9-t4": 31,
    "K6-t2-B5-seed27": 21, "K6-t2-B5-seed208": 30, "K8-t3-B4-stall": 21, "K8-t3-B4-chain": 10,
}


def seeded_levels(member_ccdf):
    """The levels that get a seed cut: every subset's weakest member receives them."""
    return (member_ccdf.min(axis=1) > 0.0).all(axis=0)


@pytest.mark.parametrize(
    "name, grid, t", [pytest.param(*case, id=case[0]) for case in ladder_grids() + degenerate_delivery_grids()]
)
def test_kept_subset_stack_matches_cold_solves(monkeypatch, name, grid, t):
    # At every subset solve, each subset LP repriced at the solve's lambda
    # and resumed from the last solve's basis has the value c_S(lambda) of
    # solve_lps on the max form from the slack basis, to 1e-12 relative,
    # and its u_S meets S's rows.  The first lambda comes from the seed
    # cuts, at which the crash basis is no longer optimal, and no solve's
    # lambda leaves a seeded level free.
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


@pytest.mark.parametrize("index, name, pooled", [(0, "K7-t2", 3), (6, "K9-t4", 14)], ids=["K7-t2", "K9-t4"])
def test_warm_master_matches_cold_solves_with_fewer_pivots(monkeypatch, index, name, pooled):
    # Every master of ladder LP `index` (9 and 10 subset solves, 3 and 14
    # pooled cuts), the seed master first, resumed from the last basis,
    # against solve_lp of the same packing LP from the slack basis.  All
    # four levels get a seed.
    grid_name, grid, t = ladder_grids()[index]
    assert grid_name == name
    columns, masters, _, alloc = recorded_loop(monkeypatch, validate_stats(grid), Fraction(t, grid.shape[0]))
    # The last subset solve repeats a cut already in the master, so it
    # ends the loop without a master of its own: every other solve and
    # every pooled cut enters one column, and each column one master solve.
    assert len(columns) == 4 + alloc.iterations - 1 + pooled and np.array_equal(columns[:4], np.eye(4))
    assert len(masters) == len(columns) - 3
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
    "grid, t, solves",
    [pytest.param(grid, t, solves, id=name) for (name, grid, t), solves in zip(ladder_grids(), (9, 10, 8, 7, 6, 10, 10))],
)
def test_ladder_cut_counts_are_pinned(grid, t, solves):
    assert achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0])).iterations == solves


def test_benchmark_lps_take_at_most_90_subset_solves():
    # The eleven benchmark delivery LPs: the nine of the delivery-ladder
    # workload, simulate-1e6's K = 6, B = 5 LP and configs/nondegraded3.json.
    # Kelley's loop, which solved the subset stack for every cut, took 11,
    # 15, 13, 9, 11, 15, 21; 6, 10; 19; 4: 134 in all.
    cases = list(frozen_allocation_cases())[:10] + [("nondegraded3", np.array(MIXED3_ROWS), 1)]
    solves = [achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0])).iterations for _, grid, t in cases]
    assert solves == [9, 10, 8, 7, 6, 10, 10, 5, 7, 8, 4]
    assert sum(solves) == 84 <= 90


# --- the pool of subset optima -----------------------------------------------------


def ceiling_cases(group):
    """(ccdf, t) of the delivery LPs of one group of grids."""
    if group == "ladder":
        return [(grid, t) for _, grid, t in ladder_grids()]
    if group == "tiny-tail":
        grids = tiny_tail_grids()
    else:
        seed = int(group[-2:])
        grids = small_entry_grids(seed, (1e-3, 1e-6, 1e-9, 1e-12) if seed == 63 else (1e-6, 1e-9))
    return [(grid, t) for grid in grids for t in (1, 2, 3)]


@pytest.mark.parametrize("group", ["ladder", "tiny-tail", "small-entry-61", "small-entry-62", "small-entry-63"])
def test_every_cut_is_a_valid_ceiling(monkeypatch, group):
    # A cut g is valid when phi(lambda) = sum_S c_S(lambda) / C(K,t) <= g.lambda
    # at every lambda on the simplex, which holds when each of its points
    # meets its subset's rows.  Pooled cuts mix points of different subset
    # solves, so every point the pool receives is checked against its
    # subset's rows, and every cut of both kinds at 16 seeded lambda
    # against phi from solve_lps on the max form, solved cold.  A point
    # certified to FEAS_TOL may fall short of its rows by some delta, and
    # u / (1 - delta) meets them, so the ceiling is g.lambda / (1 - delta)
    # for the largest shortfall delta of the LP's points: delta reaches
    # 4.5e-10 on the small-entry grids, where g.lambda alone lies up to
    # 2.5e-11 below phi (for Kelley's cuts too), and 3.8e-14 elsewhere.
    rng = np.random.default_rng(1606)
    checked = 0
    for grid, t in ceiling_cases(group):
        stats = validate_stats(grid)
        users, levels = grid.shape
        member_ccdf = stats.ccdf[np.array(message_subsets(users, t)) - 1]  # (subsets, t+1, B)
        columns, masters, solves, alloc = recorded_loop(monkeypatch, stats, Fraction(t, users))
        cuts = columns[masters[0][0].size:]  # the seeds enter before the first master solve
        assert len(cuts) >= alloc.iterations - 1
        shortfall = 0.0
        for _, outcomes in solves:  # each subset solve hands its points to the pool
            u = outcomes.x
            assert (u >= -FEAS_TOL).all()
            shortfall = max(shortfall, float(1.0 - np.matmul(member_ccdf, u[:, :, None]).min()))
        assert shortfall <= FEAS_TOL
        lams = rng.dirichlet(np.ones(levels), 16)
        size = len(member_ccdf)
        cold = solve_lps(
            -np.ones(t + 1), np.tile(member_ccdf.transpose(0, 2, 1), (16, 1, 1)), np.repeat(lams, size, axis=0)
        )
        assert cold.status == [OPTIMAL] * (16 * size)
        phi = -cold.value.reshape(16, size).sum(axis=1) / math.comb(users, t)
        ceilings = lams @ np.array(cuts).T  # (16, cuts)
        assert (phi[:, None] <= ceilings * (1.0 + 1e-12) / (1.0 - shortfall)).all()
        checked += len(cuts)
    assert checked > 0


def test_cut_cap_counts_pooled_cuts(monkeypatch):
    # Ladder LP K7-t2 enters the cuts of subset solves 1-5, pooled cut 1,
    # subset solve 6, pooled cuts 2 and 3 and subset solves 7 and 8 (solve
    # 9 repeats a cut): 11 columns.  With MAX_CUTS = 5 pooled cut 1 is one
    # too many, with 10 subset solve 8, and the loop raises naming it.
    _, grid, t = ladder_grids()[0]
    monkeypatch.setattr(lp_scheme, "MAX_CUTS", 5)
    with pytest.raises(NumericalFailure) as caught:
        achievable_rate_lp(validate_stats(grid), Fraction(t, 7))
    assert re.fullmatch(
        r"delivery LP \(K=7, t=2, B=4\): cutting planes did not converge in 5 cuts \(pooled cut 1, gap \S+\)",
        str(caught.value),
    )
    monkeypatch.setattr(lp_scheme, "MAX_CUTS", 10)
    with pytest.raises(NumericalFailure, match=r"did not converge in 10 cuts \(subset solve 8, gap "):
        achievable_rate_lp(validate_stats(grid), Fraction(t, 7))
    monkeypatch.setattr(lp_scheme, "MAX_CUTS", 11)
    assert achievable_rate_lp(validate_stats(grid), Fraction(t, 7)).iterations == 9


# --- the seed cuts ----------------------------------------------------------------


def seed_master_columns(monkeypatch, stats, mu):
    """The columns the master holds at its first solve, and the allocation."""
    columns, masters, _, alloc = recorded_loop(monkeypatch, stats, mu)
    return columns[: masters[0][0].size], alloc


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
        c, a_ub, b_ub = build_delivery_lp(stats, t)
        reference = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
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


def refined_master_grid():
    """The ninth seed-61 small-entry grid, whose master at t = 1 is refined twice."""
    return list(small_entry_grids(61, (1e-6, 1e-9)))[8]


# allocation_digest of the delivery LP of refined_master_grid() at t = 1.
REFINED_MASTER_DIGEST = "9b4b92bb4043df0eaf0a4efccd0ce2caae02676025cac5968bc81b41bbc0b878"


def test_master_is_refined_at_its_basis(monkeypatch):
    # On the ninth seed-61 small-entry grid at t = 1, the master's optimum
    # at pooled cut 5 (13 columns) and at subset solve 6 (19 columns)
    # misses its certificate in floats.  Each time it is refined once, at
    # the basis its simplex ended on, passes, and its refined rows replace
    # the tableau's; the loop ends at subset solve 7.
    calls = refining_the_master(monkeypatch)
    solve, ended = GrowingLp.solve, []  # the master's basis and rhs after each solve

    def ending(master):
        outcome = solve(master)
        ended.append((master_labels(master), master._tableau[: master._b.size, master._b.size].copy()))
        return outcome

    monkeypatch.setattr(GrowingLp, "solve", ending)
    stats = validate_stats(refined_master_grid())
    alloc = achievable_rate_lp(stats, Fraction(1, 6))
    # The seed master, then subset solves 1-6 and pooled cuts 1-9 in their
    # order: s1 s2 p1 p2 s3 p3 s4 p4 p5 p6 p7 p8 s5 p9 s6.
    assert len(calls) == 2 and len(ended) == 16
    for (basis, rhs), (kept_basis, kept_rhs) in zip(calls, (ended[9], ended[15])):
        assert basis.size == 4 and np.array_equal(basis, kept_basis) and np.array_equal(rhs, kept_rhs)
    assert alloc.iterations == 7 and check_allocation(stats, alloc).feasible
    assert allocation_digest(alloc) == REFINED_MASTER_DIGEST


def test_master_failing_its_refinement_names_the_cut(monkeypatch):
    # The same master, refined to duals that fail the dual check again:
    # its NumericalFailure names the master LP and its pooled cut.
    calls = refining_the_master(monkeypatch, spoil=lambda y: y + 1.0)
    with pytest.raises(NumericalFailure) as caught:
        achievable_rate_lp(validate_stats(refined_master_grid()), Fraction(1, 6))
    assert len(calls) == 1
    assert re.match(
        r"delivery LP \(K=6, t=1, B=4\): optimal basis fails dual feasibility check \(dual residual \S+\)"
        r" \(master LP, pooled cut 5, gap ",
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


# Frozen when the loop began to cut from the pool of subset optima, every
# rate within 7.4e-15 relative of Kelley's loop on the first 13 and within
# 1.4e-10 on the small-entry grids, whose subset optima meet their rows only
# to FEAS_TOL.  Subset solves: ladder 9, 10, 8, 7, 6, 10, 10; chains 5, 7;
# sim-K6B5 8; tiny tail 8, 8, 7; small entries 7, 6, 4 / 10, 8, 4 / 6, 4, 4
# (Kelley's loop: 11, 15, 13, 9, 11, 15, 21; 6, 10; 19; 13, 12, 13;
# 8, 7, 4 / 11, 10, 9 / 8, 5, 5).
ALLOCATION_DIGESTS = {
    "ladder-K7-t2": "48b71a664f12f58697627e2eba7632898470b9873d14e5fcdb9d665e1568637c",
    "ladder-K7-t3": "624553df2c66a7cd1c8cf62dfc17edfba88ca8f9fd2923d57458b17e39155bcc",
    "ladder-K8-t2": "b495152981792b070a1a43b13a19a1f00227a2e9b4f171ebf1aef3176fc643e6",
    "ladder-K8-t3": "d9b8da7e7c2be4da067a2dbba94bacf8048a4575aaef8e927313191b3772dabd",
    "ladder-K8-t4": "ab450ff8cce03c31d3ebcfdd9c048b69fee29f5970a80a2d1d8061bac78f8a4b",
    "ladder-K9-t3": "94855375dd75a33d097d9348cbea6821de7130de5b633794f279124f4e93c02c",
    "ladder-K9-t4": "06b15d49bbfd84d350b1afe7ef0cbc55f4f97bf2f1642f2c9ae38eecedb6a851",
    "chain-K8-t3": "afc3e7372ee0ace1acab45a3f4dc1959a3c8b9f6f999f7b5441f3db0728a271d",
    "chain-K9-t3": "4537347223b206c7091a63bb6c8d495e837570cbf091e5599c9ae6732a56c2f9",
    "sim-K6B5": "90b6a1ba03cc5983aa83999dfa098e86412e4aef0f1a2f126614c5ef694bfc1d",
    "tiny-tail-t1": "2ed5b5329bead4c68634018b9f61ecb7e2d8d19a78e6a0db2f731c2b5918bc87",
    "tiny-tail-t2": "7c4dc94caf7f3cf0e244677af48740bd40f51668a0ee445afab2c7136dcda09e",
    "tiny-tail-t3": "2b342082f606b665d54c7f3d32518fdbc1cac94a66adc173a247fe11855cb61a",
    "small-entry-seed61-t1": "148748fc1df0d4b3eac649d3458a8ff4ec1f4cf51f9621056e1b01473020e190",
    "small-entry-seed61-t2": "0921e114a4f15b2767b42a654f4b57cf35b4e601ab98f440676fe77ea14de0ef",
    "small-entry-seed61-t3": "829c5e5c546cd957562496a05753b8183db27fec7b82953a62866a351510dd3d",
    "small-entry-seed62-t1": "ff20e47028c6dc7ce523b6b01e543b8e3f099bc4676229d9a48fb17dae7f22ac",
    "small-entry-seed62-t2": "337cbe197d57f818d40f7382378f2804e6616fe3cf3773353f8fe4ac652970f5",
    "small-entry-seed62-t3": "bfefbc9f2b60c439f240328aeb0b748c8eb4c4cee9d5f990c1f88572d1ba5969",
    "small-entry-seed63-t1": "3c497031ecb4779cb715e4571dd69f335baad421c2a68b1c0840af16175879dc",
    "small-entry-seed63-t2": "e0ade2b5e778e3f611087d6d6b417c1e8c94233a7c3e39d5b0c30b07304ba277",
    "small-entry-seed63-t3": "5f2c5fc2dd635e4ceb5db98a37b79ae65e6c909a66d649778870c32d4991e09b",
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
    # reports the gap it has.  The seed master and those of subset solves
    # 1 and 2 solve (the pool cuts first after solve 5); solve 3's hands
    # back solve 2's solution.
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
