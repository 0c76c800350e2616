"""General delivery LP: matrix layout, optimum, allocation checking."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cachecast import lp_scheme
from cachecast.channel import validate_stats
from cachecast.errors import BadT, LengthMismatch, MuOutOfRange, NonIntegerT
from cachecast.lp import FEAS_TOL, OPTIMAL, LpStack, solve_lp, solve_lps
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
    is_master_solve,
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
        if not is_master_solve(lam):
            solves.append((np.array(lam), outcomes))
        return outcomes

    with monkeypatch.context() as patch:
        patch.setattr(LpStack, "solve", recording)
        alloc = achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    assert len(solves) == alloc.iterations
    return solves


# Lockstep pivots of the kept stack, summed over the cuts: the largest
# pivot count of each cut's stack.  Solved cold, each from the slack
# basis in the max form at the same lambda, the ladder LPs take 70, 86,
# 97, 90, 85, 131 and 180.
WARM_LOCKSTEP_PIVOTS = {
    "K7-t2": 33, "K7-t3": 42, "K8-t2": 41, "K8-t3": 32, "K8-t4": 41, "K9-t3": 57, "K9-t4": 80,
    "K6-t2-B5-seed27": 39, "K6-t2-B5-seed208": 78, "K8-t3-B4-stall": 54, "K8-t3-B4-chain": 14,
}


@pytest.mark.parametrize(
    "name, grid, t", [pytest.param(*case, id=case[0]) for case in ladder_grids() + degenerate_delivery_grids()]
)
def test_kept_subset_stack_matches_cold_solves(monkeypatch, name, grid, t):
    # At every cut, each subset LP repriced at the cut's lambda and resumed
    # from the last cut's basis has the value c_S(lambda) of solve_lps on
    # the max form from the slack basis, to 1e-12 relative, and its u_S
    # meets S's rows.  The crash basis is optimal at the first lambda.
    member_ccdf = validate_stats(grid).ccdf[np.array(message_subsets(grid.shape[0], t)) - 1]
    solves = subset_solves(monkeypatch, grid, t)
    lockstep = 0
    for lam, warm in solves:
        cold = solve_lps(-np.ones(t + 1), member_ccdf.transpose(0, 2, 1), lam)
        assert warm.status == cold.status == [OPTIMAL] * len(member_ccdf)
        assert (np.abs(warm.value + cold.value) <= 1e-12 * np.abs(cold.value)).all()
        assert (np.matmul(member_ccdf, warm.x[:, :, None]) >= 1.0 - FEAS_TOL).all()
        lockstep += int(warm.pivots.max())
    assert not solves[0][1].pivots.any()
    assert any((lam == 0.0).any() for lam, _ in solves)  # some lambda has zero entries
    assert lockstep == WARM_LOCKSTEP_PIVOTS[name]


# --- the warm-started master ------------------------------------------------------


@pytest.mark.parametrize("index, name", [(0, "K7-t2"), (6, "K9-t4")], ids=["K7-t2", "K9-t4"])
def test_warm_master_matches_cold_solves_with_fewer_pivots(monkeypatch, index, name):
    # Every cut's master of ladder LP `index` (15 and 26 cuts), resumed
    # from the last basis, against solve_lp of the same packing LP from
    # the slack basis.
    add_column, solve = LpStack.add_column, LpStack.solve
    columns, masters = [], []

    def recording_column(master, column):
        columns.append(np.array(column))
        add_column(master, column)

    def recording_solve(stack, c):
        outcomes = solve(stack, c)
        if is_master_solve(c):
            masters.append(outcomes[0])
        return outcomes

    grid_name, grid, t = ladder_grids()[index]
    assert grid_name == name
    with monkeypatch.context() as patch:
        patch.setattr(LpStack, "add_column", recording_column)
        patch.setattr(LpStack, "solve", recording_solve)
        alloc = achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    assert len(masters) == len(columns) == alloc.iterations > 1
    cold_pivots = 0
    for count, warm in enumerate(masters, start=1):
        g = np.array(columns[:count])
        cold = solve_lp(-np.ones(count), g.T, np.ones(4))
        assert abs(warm.value - cold.value) <= 1e-12 * abs(cold.value)
        assert warm.primal_residual <= FEAS_TOL and warm.dual_residual <= FEAS_TOL
        assert warm.duality_gap <= FEAS_TOL * (1.0 + abs(warm.value))
        cold_pivots += cold.pivots
    assert 5 * sum(warm.pivots for warm in masters) <= cold_pivots


@pytest.mark.parametrize(
    "grid, t, cuts",
    [pytest.param(grid, t, cuts, id=name) for (name, grid, t), cuts in zip(ladder_grids(), (15, 17, 20, 13, 15, 20, 26))],
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
    solve = LpStack.solve
    solutions = []

    def stuck_after_3(stack, c):
        if not is_master_solve(c):
            return solve(stack, c)
        if len(solutions) < 3:
            solutions.append(solve(stack, c))
        return solutions[-1]

    monkeypatch.setattr(LpStack, "solve", stuck_after_3)
    name, grid, t = ladder_grids()[0]
    stats = validate_stats(grid)
    alloc = achievable_rate_lp(stats, Fraction(t, 7))
    assert alloc.iterations == 4 and alloc.gap > 1e-6
    assert check_allocation(stats, alloc).feasible
