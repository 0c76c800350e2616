"""General delivery LP: matrix layout, optimum, allocation checking."""

import hashlib
import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cachecast import cli, lp, lp_scheme
from cachecast.channel import ChannelStats, scale_exponent, validate_stats
from cachecast.errors import BadT, LengthMismatch, MuOutOfRange, NonIntegerT, NumericalFailure
from cachecast.lp import FEAS_TOL, OPTIMAL, GrowingLp, LpStack, solve_lp, solve_lps
from cachecast.lp_scheme import (
    achievable_rate_lp,
    build_delivery_lp,
    check_allocation,
    message_subsets,
)
from cachecast.simulator import simulate_delivery

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
    assert message_subsets(3, 1).tolist() == [[1, 2], [1, 3], [2, 3]]
    assert message_subsets(3, 0).tolist() == [[1], [2], [3]]
    assert message_subsets(4, 3).tolist() == [[1, 2, 3, 4]]


def test_subsets_reject_bad_t():
    with pytest.raises(BadT):
        message_subsets(3, 3)
    with pytest.raises(BadT):
        message_subsets(3, -1)


@pytest.mark.parametrize("users", range(1, 13))
def test_subsets_are_the_combinations_as_one_read_only_array(users):
    # Every t in 0..K-1: the rows are itertools.combinations' tuples, in its
    # (lexicographic) order, as one read-only int array of shape
    # (C(K,t+1), t+1); every t outside 0..K-1 raises BadT.
    for t in range(users):
        subsets = message_subsets(users, t)
        assert isinstance(subsets, np.ndarray) and subsets.dtype.kind == "i"
        assert subsets.shape == (math.comb(users, t + 1), t + 1)
        assert not subsets.flags.writeable
        assert list(map(tuple, subsets.tolist())) == list(combinations(range(1, users + 1), t + 1))
        with pytest.raises(ValueError, match="read-only"):
            subsets[0, 0] = 0
    for t in (-2, -1, users, users + 1):
        with pytest.raises(BadT, match=rf"^t must lie in 0\.\.{users - 1}, got {t}$"):
            message_subsets(users, t)


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


# Subsets that are not message_subsets(3, 1), with MIXED3's shares at rate 1:
# before the check, user 0 read user 3's row (index -1) and was reported
# feasible, a missing {2, 3} was reported feasible though users 2 and 3
# never get their pieces of it, and user 4 raised a bare IndexError.
WRONG_SUBSETS = {
    "user 0": ([[0, 1], [1, 3], [2, 3]], 3, r"row 0: \[0, 1\] for \[1, 2\]"),
    "missing subset": ([[1, 2], [1, 3]], 2, r"row 2: nothing for \[2, 3\]"),
    "user 4": ([[1, 2], [1, 3], [2, 4]], 3, r"row 2: \[2, 4\] for \[2, 3\]"),
    "extra subset": ([[1, 2], [1, 3], [2, 3], [3, 4]], 4, r"row 3: \[3, 4\] for nothing"),
}


@pytest.mark.parametrize("case", list(WRONG_SUBSETS))
def test_check_refuses_subsets_that_are_not_the_message_subsets(mixed3, case):
    # check_allocation, and so simulate_delivery, refuses the allocation
    # with LengthMismatch naming the first row that differs.
    subsets, width, row = WRONG_SUBSETS[case]
    shares = np.asarray(MIXED3_SHARES)[:, :width] if width <= 3 else np.full((3, width), 0.25)
    alloc = replace(delivery_allocation(shares, 1.0, 3, 1), subsets=np.array(subsets))
    message = rf"^allocation subsets differ from message_subsets at {row}$"
    with pytest.raises(LengthMismatch, match=message):
        check_allocation(mixed3, alloc)
    with pytest.raises(LengthMismatch, match=message):
        simulate_delivery(mixed3, alloc, 100, seed=1)
    assert check_allocation(mixed3, delivery_allocation(MIXED3_SHARES, 1.0, 3, 1)).feasible


def test_subsets_equal_to_the_message_subsets_in_any_container_pass(mixed3):
    # The check compares values: tuples of the message subsets pass it, and
    # simulate_delivery, which lays its tallies out by message_subsets'
    # array once the check has passed, gives the array allocation's tallies.
    alloc = delivery_allocation(MIXED3_SHARES, 1.0, 3, 1)
    tuples = replace(alloc, subsets=((1, 2), (1, 3), (2, 3)))
    assert check_allocation(mixed3, tuples).margins.tobytes() == check_allocation(mixed3, alloc).margins.tobytes()
    for name in ("delivered", "std_error", "decodable", "user_decodable"):
        got, want = (getattr(simulate_delivery(mixed3, a, 500, seed=3), name) for a in (tuples, alloc))
        assert got.tobytes() == want.tobytes(), name


# --- build_delivery_lp rows ----------------------------------------------------------


def build_delivery_a_ub_reference(stats, t):
    """The dense LP's a_ub written row by row, looking each subset up by
    value among itertools.combinations' tuples."""
    subsets = list(combinations(range(1, stats.num_users + 1), t + 1))
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
    columns it holds, its outcome), each subset solve as (lambda, its
    StackSolution) and the rows the subset stack was built from (LPs, m, B).
    Returns the three lists, the allocation and those rows."""
    add_column, master_solve, stack_solve = GrowingLp.add_column, GrowingLp.solve, LpStack.solve
    covering = LpStack.covering
    columns, costs, masters, solves, stacks = [], [], [], [], []

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

    def recording_covering(a, column):
        stacks.append(np.array(a))
        return covering(a, column)

    with monkeypatch.context() as patch:
        patch.setattr(GrowingLp, "add_column", recording_column)
        patch.setattr(GrowingLp, "solve", recording_master)
        patch.setattr(LpStack, "solve", recording_stack)
        patch.setattr(LpStack, "covering", recording_covering)
        alloc = achievable_rate_lp(stats, mu)
    assert len(solves) == alloc.iterations and len(stacks) == (1 if solves else 0)
    return columns, masters, solves, alloc, (stacks[0] if stacks else None)


def binding_lps_by_loop(stats, t):
    """The kept members of each distinct subset LP and the LP of each subset,
    by a loop over the subsets.  Member k of S is dropped where another
    member j of S has a row at or below k's on every level of the scaled
    grid, and of two equal rows the first is kept.  The LPs run in falling
    order of their kept members' bitmask with user 1 the top bit."""
    grid = np.ldexp(stats.ccdf, -scale_exponent(stats.ccdf))

    def implies(j, k):
        below = (grid[j - 1] <= grid[k - 1]).all()
        return j != k and below and (j < k or not (grid[k - 1] <= grid[j - 1]).all())

    subsets = message_subsets(stats.num_users, t).tolist()
    kept = [tuple(k for k in s if not any(implies(j, k) for j in s)) for s in subsets]
    order = sorted(set(kept), key=lambda members: -sum(2 ** (stats.num_users - k) for k in members))
    return order, np.array([order.index(members) for members in kept])


def padded_rows(stats, lps):
    """The subset stack's rows for the kept members lps: each LP's rows ascending,
    padded to the widest with copies of its first, on the scaled grid with
    -0.0 read as 0.0."""
    grid = np.ldexp(stats.ccdf, -scale_exponent(stats.ccdf)) + 0.0
    width = max(len(members) for members in lps)
    return np.array([grid[[k - 1 for k in members + members[:1] * (width - len(members))]] for members in lps])


def assert_lps_serve_their_subsets(monkeypatch, stats, t, replay=False):
    """Run the delivery LP at t and check its subset stack against every subset.

    The stack holds one LP per distinct set of kept members, with the rows
    padded_rows gives.  At every subset solve each LP's value equals
    c_S(lambda) for every subset S it serves, computed over all of S's
    member rows, the dropped ones included, and its u meets all of S's
    rows to FEAS_TOL.  c_S comes from solve_lps on the max form from the
    slack basis, to 1e-12 relative; with replay, from one covering LP per
    subset (LpStack.covering on S's rows) solved at the same lambdas in
    turn, to FEAS_TOL relative.  Returns the kept members of each LP, the
    LP of each subset, the recorded subset solves and the allocation.
    """
    lps, lp_of = binding_lps_by_loop(stats, t)
    grid = np.ldexp(stats.ccdf, -scale_exponent(stats.ccdf))
    members = message_subsets(stats.num_users, t) - 1
    member_ccdf = grid[members]  # (subsets, t+1, B)
    _, _, solves, alloc, rows = recorded_loop(monkeypatch, stats, Fraction(t, stats.num_users))
    if not solves:
        return lps, lp_of, solves, alloc
    assert rows.tobytes() == padded_rows(stats, lps).tobytes()
    _, found_lp_of, first = lp_scheme._binding_lps(grid + 0.0, members)
    assert np.array_equal(found_lp_of, lp_of)
    assert first.tolist() == [lp_of.tolist().index(f) for f in range(len(lps))]  # each LP's first subset
    if replay:
        with np.errstate(divide="ignore"):
            crash = int(np.flatnonzero(np.isfinite(1.0 / member_ccdf.min(axis=1)).all(axis=0))[0])
        per_subset = LpStack.covering(member_ccdf, crash)
    for lam, warm in solves:
        assert warm.status == [OPTIMAL] * len(lps)
        if replay:
            cold = per_subset.solve(lam)
            assert cold.status == [OPTIMAL] * len(member_ccdf)
            assert (np.abs(warm.value[lp_of] - cold.value) <= FEAS_TOL * np.abs(cold.value)).all()
        else:
            cold = solve_lps(-np.ones(t + 1), member_ccdf.transpose(0, 2, 1), lam)
            assert cold.status == [OPTIMAL] * len(member_ccdf)
            assert (np.abs(warm.value[lp_of] + cold.value) <= 1e-12 * np.abs(cold.value)).all()
        assert (np.matmul(member_ccdf, warm.x[lp_of][:, :, None]) >= 1.0 - FEAS_TOL).all()
    return lps, lp_of, solves, alloc


# The kept stack's distinct LPs, and its lockstep pivots summed over the
# subset solves: the largest pivot count of each solve's stack.  With one
# LP per subset (35, 35, 56, 70, 56, 126, 126 on the ladder; 20, 20, 70,
# 70 on the others) the pivots were the same.  Kelley's loop, which solved
# the stack at every cut, took 24, 44, 28, 23, 27, 40, 53 on the ladder
# and 21, 59, 36, 10 on the others; solved cold, each from the slack basis
# in the max form at the same lambda, its ladder LPs took 57, 86, 69, 72,
# 72, 105 and 166.
WARM_LOCKSTEP_PIVOTS = {
    "K7-t2": (15, 21), "K7-t3": (25, 30), "K8-t2": (20, 21), "K8-t3": (20, 21), "K8-t4": (13, 16),
    "K9-t3": (50, 32), "K9-t4": (80, 31), "K6-t2-B5-seed27": (11, 21), "K6-t2-B5-seed208": (17, 30),
    "K8-t3-B4-stall": (35, 21), "K8-t3-B4-chain": (5, 10),
}


def seeded_levels(member_ccdf):
    """The levels that get a seed cut: every subset's weakest member receives them."""
    return (member_ccdf.min(axis=1) > 0.0).all(axis=0)


@pytest.mark.parametrize(
    "name, grid, t", [pytest.param(*case, id=case[0]) for case in ladder_grids() + degenerate_delivery_grids()]
)
def test_kept_subset_stack_matches_cold_solves(monkeypatch, name, grid, t):
    # At every subset solve, each distinct subset LP repriced at the
    # solve's lambda and resumed from the last solve's basis has the value
    # c_S(lambda) of solve_lps on the max form from the slack basis, to
    # 1e-12 relative, for all C(K,t+1) subsets S, each through its LP, and
    # its u meets all of S's rows.  The first lambda comes from the seed
    # cuts, at which the crash basis is no longer optimal, and no solve's
    # lambda leaves a seeded level free.
    stats = validate_stats(grid)
    member_ccdf = stats.ccdf[message_subsets(grid.shape[0], t) - 1]
    lps, _, solves, _ = assert_lps_serve_their_subsets(monkeypatch, stats, t)
    assert solves[0][1].pivots.any()
    seeded = seeded_levels(member_ccdf)
    assert seeded[0] and all((lam[seeded] > 0.0).all() for lam, _ in solves)
    assert (len(lps), sum(int(warm.pivots.max()) for _, warm in solves)) == WARM_LOCKSTEP_PIVOTS[name]


# --- the warm-started master ------------------------------------------------------


@pytest.mark.parametrize("index, name, pooled", [(0, "K7-t2", 3), (6, "K9-t4", 14)], ids=["K7-t2", "K9-t4"])
def test_warm_master_matches_cold_solves_with_fewer_pivots(monkeypatch, index, name, pooled):
    # Every master of ladder LP `index` (9 and 10 subset solves, 3 and 14
    # pooled cuts), the seed master first, resumed from the last basis,
    # against solve_lp of the same packing LP from the slack basis.  All
    # four levels get a seed.
    grid_name, grid, t = ladder_grids()[index]
    assert grid_name == name
    columns, masters, _, alloc, _ = recorded_loop(monkeypatch, validate_stats(grid), Fraction(t, grid.shape[0]))
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
    # solves, so every point the pool receives, one per distinct LP, is
    # mapped back to every subset that LP serves and checked against all of
    # that subset's rows, and every cut of both kinds at 16 seeded lambda
    # against phi from the min form: one covering LP ccdf[S] u >= 1 per
    # subset S and lambda, at costs lambda, solved cold from its crash
    # (LpStack.covering).  Its rows have right-hand sides 1, where the max
    # form's are the lambda_l, down to 2e-9, on which its certificate is
    # absolute.  Each point is divided by its least row value, so it meets
    # every row of S and phi is read from feasible points: no lower than
    # phi itself, up to rounding.  A cut's point certified to FEAS_TOL may
    # fall short of its rows by some delta, and u / (1 - delta) meets them,
    # so the ceiling is g.lambda / (1 - delta) for the largest shortfall
    # delta of the LP's points: delta reaches 4.5e-10 on the small-entry
    # grids, where g.lambda alone lies up to 2.5e-11 below phi (for
    # Kelley's cuts too), and 3.8e-14 elsewhere.
    rng = np.random.default_rng(1606)
    checked = 0
    for grid, t in ceiling_cases(group):
        stats = validate_stats(grid)
        users, levels = grid.shape
        member_ccdf = stats.ccdf[message_subsets(users, t) - 1]  # (subsets, t+1, B)
        lp_of = binding_lps_by_loop(stats, t)[1]
        columns, masters, solves, alloc, _ = recorded_loop(monkeypatch, stats, Fraction(t, users))
        cuts = columns[masters[0][0].size:]  # the seeds enter before the first master solve
        assert len(cuts) >= alloc.iterations - 1
        shortfall = 0.0
        for _, outcomes in solves:  # each subset solve hands its points to the pool
            u = outcomes.x[lp_of]  # each LP's point, for every subset it serves
            assert (u >= -FEAS_TOL).all()
            shortfall = max(shortfall, float(1.0 - np.matmul(member_ccdf, u[:, :, None]).min()))
        assert shortfall <= FEAS_TOL
        lams = rng.dirichlet(np.ones(levels), 16)
        size = len(member_ccdf)
        with np.errstate(divide="ignore"):  # crash on the first level where every 1/w is finite
            crash = int(np.flatnonzero(np.isfinite(1.0 / member_ccdf.min(axis=1)).all(axis=0))[0])
        tiled = np.tile(member_ccdf, (16, 1, 1))  # lambda-major, then subsets
        cold = LpStack.covering(tiled, crash).solve(np.repeat(lams, size, axis=0))
        assert cold.status == [OPTIMAL] * (16 * size)
        least = np.matmul(tiled, cold.x[:, :, None]).min(axis=(1, 2))  # each point's least row value
        assert (least >= 1.0 - FEAS_TOL).all()
        phi = (cold.value / least).reshape(16, size).sum(axis=1) / math.comb(users, t)
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
    columns, masters, _, alloc, _ = recorded_loop(monkeypatch, stats, mu)
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


@pytest.mark.parametrize("command", ["achievable", "simulate", "sweep"])
def test_subnormal_first_level_crashes_on_a_seeded_level(capsys, tmp_path, command):
    # Level 1 holds 1e-310 (2e-310 on the scaled grid), so its 1/w
    # overflows and only level 2 gets a seed cut.  The subset stack
    # crashed on level 1 divided by that entry and exited 3 with a gap of
    # NaN, or 1 under -W error::RuntimeWarning, as every test runs here
    # (pyproject.toml).  It crashes on level 2, the first seeded level, now:
    # `rates achievable` and `simulate` exit 0 at HiGHS's rate within
    # 1e-9 relative.  HiGHS drops matrix entries below 1e-9, so it solves
    # the dense LP with the rate in units of 1e-13 and every row scaled to
    # a largest entry of 1.  `sweep` solves the same delivery LP, then the
    # bound, whose per-ordering LPs on a grid of mixed scale may fail: it
    # exits 0 or 3 naming the LP that failed, never 1.
    linprog = pytest.importorskip("scipy.optimize").linprog
    grid = [[1e-310, 1e-13], [0.5, 0.5]]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"num_users": 2, "num_levels": 2, "mu": "0", "ccdf": grid}))
    argv = {
        "achievable": ["rates", "achievable", str(config), "--json"],
        "simulate": ["simulate", str(config), "--n", "10", "--seed", "1", "--json"],
        "sweep": ["sweep", str(config), "--mu", "0:0:1", "--json"],
    }[command]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    c, a_ub, b_ub = build_delivery_lp(validate_stats(grid), 0)
    a_ub[:, -1] *= 1e-13
    a_ub /= np.abs(a_ub).max(axis=1, keepdims=True)
    highs = 1e-13 * -linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs").fun
    if command == "sweep" and code == 3:
        assert re.match(r"^solver failure: ordering \(\d, \d\) \(K=2, B=2, mu=0\): ", err), err
        return
    assert code == 0, err
    rate = json.loads(out)["rows"][0]["f_lp"] if command == "sweep" else json.loads(out)["value" if command == "achievable" else "rate"]
    assert abs(rate - highs) <= 1e-9 * highs


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
    [(61, (1e-6, 1e-9), False, 5), (67, (1e-6, 1e-9), True, 10), (63, (1e-3, 1e-6, 1e-9, 1e-12), True, 40)],
)
def test_small_entries_are_refined_to_a_certified_allocation(monkeypatch, seed, values, refines, most):
    # The subset LPs' bases mix entries near 1 with entries near 1e-9, and
    # x read off the tableau misses FEAS_TOL by 1e-9 to 1e-7: 13 of the 180
    # delivery LPs at seeds 61-63 failed their recheck that way, and one
    # its master's dual check (2.8e-9).  Refined once at their final bases,
    # those LPs pass the same certificate, and every delivery LP returns a
    # feasible allocation with a certified gap of at most 1e-9.  The subset
    # stack keeps its tableau from cut to cut, and a refined LP's rows
    # replace its tableau's, so it is refined again only where later pivots
    # drift anew: with one LP per subset, 0, 5 and 33 refinements over the
    # 60 at seeds 61, 62 and 63 on a 2-CPU Xeon, where keeping the drifted
    # rows took 0, 8 and 141.  With one LP per distinct set of kept members
    # seed 62 no longer refines, so seed 67 stands in for it: 2, 7 and 26
    # refinements at seeds 61, 67 and 63 on a 2-CPU sandbox, seed 67's
    # being 6 of its subset stack and 1 of its master (7 at seed 67 and 2
    # at seed 62 with one LP per subset there).  Whether a residual lands
    # just above FEAS_TOL can differ with the BLAS, so only seeds 67 and 63
    # must refine, and the counts are bounded with some room.
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
REFINED_MASTER_DIGEST = "6760c8529cb915ae89f238eecb4a31e9dd45cab511f312bf01db12f51d46785e"


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


# --- one LP per distinct set of kept members ----------------------------------------


def reduction_grids():
    """(name, ccdf, t) of the grids the kept-member reduction is checked on."""
    rng = np.random.default_rng(5050)
    for users in range(2, 10):
        for t in range(users):
            levels = int(rng.integers(2, 6))
            yield f"uniform-K{users}-t{t}", sorted_uniform_ccdf(rng, users, levels), t
            yield f"chain-K{users}-t{t}", chain_ccdf(rng, users, levels), t
    for users, classes, t in ((5, 2, 1), (6, 3, 2), (7, 2, 3), (8, 3, 2), (8, 2, 4)):
        rows = sorted_uniform_ccdf(rng, classes, 4)
        yield f"classes{classes}-K{users}-t{t}", rows[np.arange(users) % classes][rng.permutation(users)], t
    # Users 4-6 repeat users 1-3 with -0.0 for every 0.0: equal rows.
    base = np.array([[0.9, 0.5, 0.0, 0.0], [0.7, 0.6, 0.2, 0.0], [0.8, 0.3, 0.3, 0.0]])
    signed = np.vstack([base, np.where(base == 0.0, -0.0, base)])
    for t in (1, 2, 3):
        yield f"signed-zeros-t{t}", signed, t
        yield f"signed-zeros-reversed-t{t}", signed[::-1].copy(), t
    # Past 64 users a key no longer fits one uint64: Python ints hold it.
    wide = sorted_uniform_ccdf(rng, 66, 3)
    wide[33:] = wide[:33] * 0.5
    for t in (0, 1, 65):
        yield f"wide-K66-t{t}", wide, t
    for t in (1, 2, 3):
        yield f"tiny-tail-t{t}", next(tiny_tail_grids()), t
        for seed, values in ((61, (1e-6, 1e-9)), (63, (1e-3, 1e-6, 1e-9, 1e-12)), (67, (1e-6, 1e-9))):
            yield f"small-entry-seed{seed}-t{t}", next(small_entry_grids(seed, values)), t


@pytest.mark.parametrize("name, grid, t", [pytest.param(*case, id=case[0]) for case in reduction_grids()])
def test_distinct_lps_serve_every_subset(monkeypatch, name, grid, t):
    # A member whose row lies at or above another member's on every level
    # never binds, so the stack keeps one LP per distinct set of kept
    # members (assert_lps_serve_their_subsets: its rows, and at every
    # subset solve its value and point against every subset it serves,
    # over all of that subset's rows).  -0.0 and 0.0 are equal, so the
    # signed-zero grids keep one of each pair of users, the first.  On a
    # chain every subset keeps only its weakest member: K - t LPs of one
    # row, at HiGHS's rate.  On the tiny-tail and small-entry grids the max
    # form is no reference: it is certified against FEAS_TOL absolute on
    # rows whose right-hand sides lambda_l fall to 2e-9, and read c_S up to
    # 22% of c_S + max lambda off (1.998 against 2.015 from the min form and
    # HiGHS, with one LP per subset too), so there each LP is checked
    # against one covering LP per subset, over all of its rows, solved at
    # the same lambdas in turn (within 2.3e-11 relative on a 2-CPU sandbox).
    stats = validate_stats(grid)
    replay = name.startswith(("tiny-tail", "small-entry"))
    lps, lp_of, solves, alloc = assert_lps_serve_their_subsets(monkeypatch, stats, t, replay)
    assert sorted(set(lp_of.tolist())) == list(range(len(lps))) and len(lp_of) == math.comb(len(grid), t + 1)
    assert check_allocation(stats, alloc).feasible
    assert 0.0 <= alloc.gap <= 1e-9 * max(1.0, alloc.rate)
    rows = np.ldexp(stats.ccdf, -scale_exponent(stats.ccdf)) + 0.0
    assert all(len({rows[k - 1].tobytes() for k in members}) == len(members) for members in lps)
    if name.startswith("chain"):
        assert [len(members) for members in lps] == [1] * (len(grid) - t)
        linprog = pytest.importorskip("scipy.optimize").linprog
        reference = linprog(*build_delivery_lp(stats, t), method="highs")
        assert reference.status == 0 and abs(alloc.rate + reference.fun) <= 1e-9 * max(1.0, alloc.rate)


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
# 8, 7, 4 / 11, 10, 9 / 8, 5, 5).  Re-pinned once when the loop began to
# solve one LP per distinct set of kept members and to weight the pool, the
# cut, the lower value and the mix by the subsets each LP serves: the same
# subset solves, and every rate within 5.0e-15 relative of one LP per subset
# (ladder 4.0e-16, 7.1e-16, 4.5e-16, 0, 1.0e-15, 8.7e-16, 5.0e-15; chains
# 1.8e-16, 6.5e-16; sim-K6B5 8.4e-16; small entries 1.5e-16, 1.9e-16,
# 4.6e-16 / 2.0e-16, 2.9e-16, 5.7e-16 / 0, 0, 3.7e-16).  The three tiny-tail
# grids keep every member of every subset, so their LPs, sums and bytes are
# as before; small-entry-seed63-t1 (11 LPs for 15 subsets) kept its bytes.
ALLOCATION_DIGESTS = {
    "ladder-K7-t2": "fd5b6570bea436e9737285d49966c1cb0221fa9b4328815194a82eac1449f72c",
    "ladder-K7-t3": "33b5ebb9f4d13179cea80f993e49691b1fa9c3e73bdfee191163129271c301ac",
    "ladder-K8-t2": "a1cc88ef3a88c76f89fc93a99c805d29b76e1b188de43587d55d5f665b92af6c",
    "ladder-K8-t3": "f3d3888d75cd8f198d3891f7d1eca068c7789073c48de27e36a48db2cf0633c6",
    "ladder-K8-t4": "a05a27bea91089c79687999e72e47ae341a586e3eb8080a321ee1fb333d9fe23",
    "ladder-K9-t3": "f2c70ac99da314a9592fc3c95fbb7b1700a7fdb1b9213952fe32648172124b0a",
    "ladder-K9-t4": "a939632810e350757d705a42a690630b63e41febe1779e56f83ff923e7190b91",
    "chain-K8-t3": "52c093402556e08a0b4538887fa8214e1388ebb0cfcdf670e126ce9759007fc1",
    "chain-K9-t3": "5000588055301660e8067b89e5d53942f970b618b0c2bf20e689588c5aa0e06d",
    "sim-K6B5": "585771c9d0e3d9f5a594167a41973f89531306001f53b9ee444f57719ddbeaea",
    "tiny-tail-t1": "2ed5b5329bead4c68634018b9f61ecb7e2d8d19a78e6a0db2f731c2b5918bc87",
    "tiny-tail-t2": "7c4dc94caf7f3cf0e244677af48740bd40f51668a0ee445afab2c7136dcda09e",
    "tiny-tail-t3": "2b342082f606b665d54c7f3d32518fdbc1cac94a66adc173a247fe11855cb61a",
    "small-entry-seed61-t1": "19f7a588f434180681d6e641df10ad2d87215ff5642184c212b4d68c1e7e5129",
    "small-entry-seed61-t2": "c12f5e45c03f1800412e04bb8a15b7bcafc959fb1f8e8b49e6ac85390457c7a3",
    "small-entry-seed61-t3": "f7eaf7f78e9c242f98e24f3f049d70eed0001fb0c3380a67e13d69798315aed3",
    "small-entry-seed62-t1": "9e745f6af8b4f60312520aa282441d5795083d94c74dcb8e6f28c325358c7de5",
    "small-entry-seed62-t2": "7c2b71b20072901729ea72979f94dc3a2d91b2d25d922cf325ffdada7fd5e3f2",
    "small-entry-seed62-t3": "357b0d120fb322871900e81da9ee34cb71e06efd97fbc7fa3742b949ee3b25fa",
    "small-entry-seed63-t1": "3c497031ecb4779cb715e4571dd69f335baad421c2a68b1c0840af16175879dc",
    "small-entry-seed63-t2": "64c1e791d66cbe24631fa9f383e5a973602e41e8384fae11656822bcc0521102",
    "small-entry-seed63-t3": "fa91f4f31cd8b140f7e1bb3ba213d739b3375ae1a675099faf26840eda418b46",
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
