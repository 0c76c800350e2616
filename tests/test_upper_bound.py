"""Weighted ceiling: direct evaluation, per-ordering LP, global minimum."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import upper_bound
from cachecast.caching import caching_tuple, central_strategy, central_tuple, strategy_from_intervals
from cachecast.channel import validate_stats
from cachecast.errors import LengthMismatch, OutOfRange, TooManyUsers, UnexpectedLpStatus, WrongType, ZeroDenominator
from cachecast.lp import FEAS_TOL, OPTIMAL, UNBOUNDED, solve_lp
from cachecast.upper_bound import STACK_ENTRIES, build_permutation_lp, objective_at, stack_size, upper_bound_rate

from helpers import (
    MIXED3_BEST_PI,
    MIXED3_BOUND,
    MIXED3_OMEGA,
    MIXED3_TABLE,
    ROADMAP_ITEM1_BOUND,
    ROADMAP_ITEM1_ROWS,
    drop_zero_lines,
    permutation_lp_reference,
    random_stats,
    sorted_uniform_ccdf,
)


@pytest.fixture
def tup3():
    return caching_tuple(central_strategy(3, Fraction(1, 3)))


# --- objective_at -------------------------------------------------------------


def test_objective_reference_weights(mixed3, tup3):
    value = objective_at(mixed3, tup3, MIXED3_OMEGA)
    assert abs(value - MIXED3_BOUND) <= 1e-9


def test_objective_unit_vectors(mixed3, tup3):
    # a single weighted user reduces to that user's sum over its cache gap
    for k in range(1, 4):
        w = np.zeros(3)
        w[k - 1] = 1.0
        expected = mixed3.ccdf[k - 1].sum() / (1.0 - 1.0 / 3.0)
        assert abs(objective_at(mixed3, tup3, w) - expected) <= 1e-12


def test_objective_scale_invariant(mixed3, tup3):
    base = objective_at(mixed3, tup3, MIXED3_OMEGA)
    for c in (2.0, 4.0):
        assert objective_at(mixed3, tup3, tuple(c * w for w in MIXED3_OMEGA)) == base
    scaled = objective_at(mixed3, tup3, tuple(1.3 * w for w in MIXED3_OMEGA))
    assert abs(scaled - base) <= 1e-12 * base


def test_objective_rejects_bad_weights(mixed3, tup3):
    with pytest.raises(LengthMismatch):
        objective_at(mixed3, tup3, [1.0, 1.0])
    with pytest.raises(OutOfRange):
        objective_at(mixed3, tup3, [1.0, -1.0, 1.0])
    with pytest.raises(OutOfRange):
        objective_at(mixed3, tup3, [1.0, math.inf, 1.0])
    with pytest.raises(ZeroDenominator):
        objective_at(mixed3, tup3, [0.0, 0.0, 0.0])
    with pytest.raises(WrongType, match=r"^weights must be numbers, got \['x', 1.0, 1.0\]$"):
        objective_at(mixed3, tup3, ["x", 1.0, 1.0])


def test_objective_full_cache_has_zero_denominator(mixed3):
    tup = caching_tuple(central_strategy(3, Fraction(1)))
    with pytest.raises(ZeroDenominator):
        objective_at(mixed3, tup, [1.0, 1.0, 1.0])


# --- build_permutation_lp --------------------------------------------------------


def test_lp_shape_and_first_row(mixed3, tup3):
    c, a_ub, b_ub = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    # live count 2: 5 record decode rows + 1 ordering row + the budget row;
    # user 2's level-1 row is implied by user 1's (0.7 <= 0.9)
    assert a_ub.shape == (7, 5)
    assert c.size == 5  # sigma_1, sigma_2, theta_1..3
    np.testing.assert_allclose(a_ub[0], [0.9, 0.0, -2.0 / 3.0, 0.0, 0.0])
    np.testing.assert_allclose(a_ub[3], [0.0, 0.4, 0.0, -1.0 / 3.0, 0.0])  # user 2, level 2
    np.testing.assert_array_equal(b_ub, [0.0] * 6 + [1.0])
    np.testing.assert_array_equal(c, [-1, -1, 0, 0, 0])  # maximize sum sigma


def test_lp_ordering_rows(mixed3, tup3):
    _, a_ub, _ = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    np.testing.assert_allclose(a_ub[5], [-1.0 / 3.0, 2.0 / 3.0, 0.0, 0.0, 0.0])
    # the chain row into the pinned sigma_3 is left out with it
    np.testing.assert_array_equal(a_ub[6], [0.0, 0.0, 1.0, 1.0, 1.0])  # sum theta <= 1


def test_lp_pins_fully_covered_prefixes(mixed3, tup3):
    # {1, 2, 3} has coverage 1, so sigma_3 is pinned: in the full-shape LP
    # its column and cost are zero, and so are its 3 decode rows and the
    # chain row into it.  The live-prefix LP leaves all of them out, and
    # sigma_1 and sigma_2 keep their entries but for the implied decode row
    # (2, 1).
    reference_c, reference_a_ub, _ = permutation_lp_reference(mixed3, tup3, (1, 2, 3))
    np.testing.assert_array_equal(reference_a_ub[:, 2], np.zeros(12))
    assert reference_c[2] == 0.0
    assert not reference_a_ub[[6, 7, 8, 10]].any()
    c, a_ub, _ = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    assert a_ub.shape == (7, 5)
    assert np.count_nonzero(a_ub[:, :2], axis=0).tolist() == [4, 3]  # 3 and 2 decode rows + 1 ordering row
    np.testing.assert_array_equal(c[:2], [-1.0, -1.0])
    assert np.all(a_ub.any(axis=1)) and np.all(a_ub.any(axis=0))  # no zero row or column left


def test_lp_matches_entrywise_builder():
    # Central placements pin the same prefixes in every ordering; the
    # explicit one pins one, two or three depending on the ordering.  The
    # live-prefix LP is the full-shape reference, implied decode rows
    # zeroed, without its zero rows and columns.
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    explicit = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    cases = [
        (random_stats(np.random.default_rng(3), 4, 3), caching_tuple(strategy_from_intervals(explicit, half))),
        (random_stats(np.random.default_rng(4), 4, 2), caching_tuple(central_strategy(4, Fraction(1, 2)))),
        (random_stats(np.random.default_rng(5), 3, 4), caching_tuple(central_strategy(3, Fraction(0)))),
    ]
    for stats, tup in cases:
        for pi in permutations(range(1, stats.num_users + 1)):
            built = build_permutation_lp(stats, tup, pi)
            reference, _ = drop_zero_lines(permutation_lp_reference(stats, tup, pi))
            for a, b in zip(built, reference):  # c, a_ub and b_ub
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _exactness_cases():
    rng = np.random.default_rng(1515)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    explicit4 = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    explicit3 = [[(0, half)], [(half, 1)], [(0, half)]]
    # (name, stats, tuple, the orderings' live counts)
    return [
        ("central-mu0", random_stats(rng, 4, 3), central_tuple(4, Fraction(0)), {4}),
        ("central-t1", random_stats(rng, 5, 4), central_tuple(5, Fraction(1, 5)), {4}),
        ("central-t2", random_stats(rng, 5, 3), central_tuple(5, Fraction(2, 5)), {3}),
        # mu = 3/8 splits the file between t = 1 and t = 2; only all 4
        # users hold every t = 1 slice
        ("central-fractional", random_stats(rng, 4, 4), central_tuple(4, Fraction(3, 8)), {3}),
        ("explicit-4", random_stats(rng, 4, 3), caching_tuple(strategy_from_intervals(explicit4, half)), {1, 2, 3}),
        ("explicit-3", random_stats(rng, 3, 5), caching_tuple(strategy_from_intervals(explicit3, half)), {1, 2}),
    ]


@pytest.mark.parametrize(
    "stats, tup, live_counts", [pytest.param(*case[1:], id=case[0]) for case in _exactness_cases()]
)
def test_live_prefix_lp_solves_as_pinned_lp(stats, tup, live_counts):
    # Dropping the pinned sigmas' zero columns and the zero rows (those of
    # the implied decode rows too) leaves the pivot path unchanged: the same
    # pivots, value and sigma/theta bytes.
    seen = set()
    for pi in permutations(range(1, stats.num_users + 1)):
        reference = permutation_lp_reference(stats, tup, pi)
        _, columns = drop_zero_lines(reference)
        pinned = solve_lp(*reference)
        live = solve_lp(*build_permutation_lp(stats, tup, pi))
        seen.add(live.x.size - stats.num_levels)
        assert live.status == pinned.status == OPTIMAL
        assert live.pivots == pinned.pivots
        assert float.hex(live.value) == float.hex(pinned.value)
        assert live.x.tobytes() == pinned.x[columns].tobytes()
        assert not pinned.x[~columns].any()
    assert seen == live_counts


def _tied_stats(rng, users, levels):
    """A grid with ties: one-decimal entries, two equal users and one whose row is zero, shuffled."""
    grid = np.round(sorted_uniform_ccdf(rng, users, levels), 1)
    grid[1] = grid[0]
    grid[-1] = 0.0
    return validate_stats(grid[rng.permutation(users)])


def _tied_cases():
    rng = np.random.default_rng(2424)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    explicit = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    cases = [
        (f"K{users}-B{levels}-t{t}", _tied_stats(rng, users, levels), central_tuple(users, Fraction(t, users)))
        for users, levels in ((3, 4), (4, 3), (5, 2), (5, 4))
        for t in range(users - 1)  # at t = users - 1 one user is live: no row to drop
    ]
    cases.append(("explicit-4", _tied_stats(rng, 4, 3), caching_tuple(strategy_from_intervals(explicit, half))))
    return cases


@pytest.mark.parametrize("stats, tup", [pytest.param(*case[1:], id=case[0]) for case in _tied_cases()])
def test_record_rows_imply_the_dropped_rows(stats, tup):
    # The chain rows imply every decode row that is not a record.  So the
    # record-row LP's optimum satisfies the LP with every decode row, and
    # the two LPs share their optimum, on grids with tied entries, two equal
    # users and a user that decodes nothing.
    dropped = 0
    for pi in permutations(range(1, stats.num_users + 1)):
        kept = build_permutation_lp(stats, tup, pi)
        solved = solve_lp(*kept)
        if not stats.ccdf[pi[0] - 1].any():  # all its decode rows are kept (k = 1)
            assert solved.status == UNBOUNDED
            continue
        (c, a_ub, b_ub), _ = drop_zero_lines(permutation_lp_reference(stats, tup, pi, every_decode_row=True))
        dropped += len(a_ub) - len(kept[1])
        full = solve_lp(c, a_ub, b_ub)
        assert solved.status == full.status == OPTIMAL
        assert np.all(a_ub @ solved.x <= b_ub + FEAS_TOL)
        assert abs(solved.value - full.value) <= 1e-12 * abs(full.value)
    assert dropped > 0


def test_lp_rejects_non_permutation(mixed3, tup3):
    with pytest.raises(OutOfRange):
        build_permutation_lp(mixed3, tup3, (1, 2, 2))


# --- upper_bound_rate -------------------------------------------------------------


def test_bound_reference_scenario(mixed3, tup3):
    report = upper_bound_rate(mixed3, tup3)
    assert abs(report.value - MIXED3_BOUND) <= 1e-9
    assert report.argmin_pi == MIXED3_BEST_PI
    assert report.omega_star_unique
    np.testing.assert_allclose(report.omega_star, MIXED3_OMEGA, atol=1e-9)
    assert len(report.table) == 6
    for pi, value in report.table:
        assert abs(value - MIXED3_TABLE[pi]) <= 0.01


def test_bound_weights_reproduce_value(mixed3, tup3):
    report = upper_bound_rate(mixed3, tup3)
    assert abs(objective_at(mixed3, tup3, report.omega_star) - report.value) <= 1e-9


@pytest.mark.parametrize("users", [3, 4, 5, 6, 7])
def test_bound_weights_reproduce_value_on_random_grids(users):
    # omega_star certifies the bound: the objective at those weights is the
    # reported value, on plain and on tied grids at several cache sizes.
    rng = np.random.default_rng([users, 17])
    for t in sorted({0, 1, users // 2, users - 1}):
        tup = central_tuple(users, Fraction(t, users))
        for stats in (random_stats(rng, users, int(rng.integers(2, 6))), _tied_stats(rng, users, 3)):
            report = upper_bound_rate(stats, tup)
            if report.value > 0.0:  # a user that decodes nothing can bound the rate by 0
                assert abs(objective_at(stats, tup, report.omega_star) - report.value) <= 1e-9 * report.value


def test_bound_weights_are_nonnegative():
    # The argmin ordering's LP ends with sigma_3 = -5.6e-17, within the
    # certificate's FEAS_TOL of 0; omega_star takes it as 0, so objective_at
    # accepts the weights.
    stats = validate_stats([[0.2, 0.2], [0.2, 0.0], [0.9, 0.6], [0.8, 0.3], [0.9, 0.5]])
    tup = central_tuple(5, Fraction(2, 5))
    report = upper_bound_rate(stats, tup)
    assert report.argmin_pi == (2, 1, 3, 4, 5)
    assert report.omega_star == (0.0, 1.0, 0.0, 0.0, 0.0)
    assert abs(objective_at(stats, tup, report.omega_star) - report.value) <= 1e-9 * report.value


def test_bound_is_least_over_random_weights(mixed3, tup3):
    report = upper_bound_rate(mixed3, tup3)
    rng = np.random.default_rng(55)
    for _ in range(50):
        w = rng.random(3)
        assert report.value <= objective_at(mixed3, tup3, w) + 1e-9


def test_bound_roadmap_item1_instance():
    # One of its 720 ordering LPs used to fail; the bound now matches HiGHS.
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    report = upper_bound_rate(validate_stats(ROADMAP_ITEM1_ROWS), tup)
    assert abs(report.value - ROADMAP_ITEM1_BOUND) <= 1e-9


def test_bound_raises_at_its_first_failing_lp(monkeypatch):
    # Every ordering LP comes back unbounded: the bound raises after its
    # first stack, at that stack's first LP, as the delivery LP does, and
    # names an ordering whose LP that is.
    stacks = []
    solve_lps = upper_bound.solve_lps

    def unbounded(c, a_ub, b_ub):
        stacks.append(a_ub)
        outcomes = solve_lps(c, a_ub, b_ub)
        outcomes.status[:] = [UNBOUNDED] * len(outcomes.status)
        return outcomes

    monkeypatch.setattr(upper_bound, "solve_lps", unbounded)
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    message = r"^ordering \([\d, ]+\) \(K=6, B=4, mu=1/6\): status unbounded$"
    with pytest.raises(UnexpectedLpStatus, match=message) as raised:
        upper_bound_rate(stats, tup)
    assert len(stacks) == 1
    named = tuple(int(k) for k in str(raised.value).split(")")[0].removeprefix("ordering (").split(", "))
    assert np.array_equal(build_permutation_lp(stats, tup, named)[1], stacks[0][0])


def test_bound_solves_full_stacks(monkeypatch):
    # Each solve_lps call gets one lockstep stack's worth of live prefixes,
    # sized by its widest LP, so every stack is full but the last: at K = 6,
    # B = 4, mu = 1/6 every ordering has live count 5 (9 columns), and the
    # 720 LPs, most record rows first, fill stacks padded to 16, 11 and 8
    # record rows (+ 5 chain and budget rows): 720 = 204 + 268 + 248.
    shapes = _recording_solve_lps(monkeypatch)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    upper_bound_rate(validate_stats(ROADMAP_ITEM1_ROWS), tup)
    assert shapes == ROADMAP_ITEM1_STACKS[1]
    assert [stack_size(m, n) for _, m, n in shapes] == [204, 268, 330]
    assert all(size * m * (n + 1) <= STACK_ENTRIES for size, m, n in shapes)


def _recording_solve_lps(monkeypatch):
    """Record the shape of every stack upper_bound hands to solve_lps."""
    shapes = []
    solve_lps = upper_bound.solve_lps

    def recording(c, a_ub, b_ub):
        shapes.append(a_ub.shape)
        return solve_lps(c, a_ub, b_ub)

    monkeypatch.setattr(upper_bound, "solve_lps", recording)
    return shapes


# The stacks upper_bound_rate hands to solve_lps on the ROADMAP item 1 grid at mu = t/6.
ROADMAP_ITEM1_STACKS = {
    1: [(204, 21, 9), (268, 16, 9), (248, 13, 9)],
    2: [(251, 19, 8), (109, 12, 8)],
    3: [(120, 15, 7)],
    4: [(30, 10, 6)],
    5: [(6, 5, 5)],
}


@pytest.mark.parametrize("t, lps", [(1, 720), (2, 360), (3, 120), (4, 30), (5, 6)])
def test_bound_solves_one_lp_per_live_prefix(monkeypatch, t, lps):
    # At mu = t/6 a set of 6 - t + 1 users covers the file, so the live
    # prefixes are the 6!/t! ordered (6 - t)-tuples of users, p = 6 - t
    # users each: p + 4 columns, and rows between the first user's 4 decode
    # rows and all 4p of them, plus p chain and budget rows.
    shapes = _recording_solve_lps(monkeypatch)
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    report = upper_bound_rate(stats, central_tuple(6, Fraction(t, 6)))
    p = 6 - t
    assert shapes == ROADMAP_ITEM1_STACKS[t]
    assert all(4 + p <= m <= p * 4 + p and n == p + 4 for _, m, n in shapes)
    assert sum(shape[0] for shape in shapes) == lps
    assert len(report.table) == 720


def test_bound_shares_no_lp_across_live_counts(monkeypatch):
    # {1, 2} and {2, 3} cache the whole file, {1, 3} does not.  (1, 2, 3)
    # and (1, 3, 2) share their first user but have live counts 1 and 2, so
    # they take two LPs; (2, 1, 3) and (2, 3, 1) share the live prefix (2).
    # The live prefixes are (1), (2), (3) and (1, 3), (3, 1): five LPs.
    # (1, 3) has 4 + 3 record decode rows (user 3 is above user 1 on levels
    # 1, 3 and 4) and (3, 1) 4 + 1 (user 1 is above user 3 on level 2), so
    # their stack is padded to 7 decode rows, 9 rows with the chain and
    # budget rows.
    half = Fraction(1, 2)
    tup = caching_tuple(strategy_from_intervals([[(0, half)], [(half, 1)], [(0, half)]], half))
    stats = random_stats(np.random.default_rng(21), 3, 4)
    shapes = _recording_solve_lps(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert sorted(shapes) == [(2, 9, 6), (3, 5, 5)]
    values = dict(report.table)
    assert values[(1, 2, 3)] != values[(1, 3, 2)]
    assert values[(2, 1, 3)] == values[(2, 3, 1)]


def test_bound_single_user():
    stats = validate_stats([[0.9, 0.6, 0.5]])
    tup = caching_tuple(central_strategy(1, Fraction(1, 4)))
    report = upper_bound_rate(stats, tup)
    assert abs(report.value - 2.0 / 0.75) <= 1e-9
    assert report.argmin_pi == (1,)
    assert report.omega_star == (1.0,)


def _bound_one_ordering_at_a_time(stats, tup):
    """The report's value, argmin, weights, uniqueness and table, from each
    ordering's LP solved alone; an unbounded LP counts as value 0 with
    sigma_1 = 1, and an ordering with no live user as an infinite value."""
    K = stats.num_users
    orderings = list(permutations(range(1, K + 1)))
    values, xs = [], []
    for pi in orderings:
        c, a_ub, b_ub = build_permutation_lp(stats, tup, pi)
        p = c.size - stats.num_levels
        solved = solve_lp(c, a_ub, b_ub) if p else None
        if solved is None:
            values.append(math.inf)
            xs.append(np.zeros(K))
        elif solved.status == UNBOUNDED:
            values.append(0.0)
            xs.append(np.eye(K)[0])
        else:
            assert solved.status == OPTIMAL
            values.append(-1.0 / solved.value)
            xs.append(np.concatenate([solved.x[:p], np.zeros(K - p)]))
    best = min(values)
    hits = [i for i, v in enumerate(values) if v <= best + FEAS_TOL]
    pi, x = orderings[hits[0]], xs[hits[0]]
    omega = np.zeros(K)
    for k in range(K):
        gap = float(1 - tup.of(pi[: k + 1]))
        if gap > 0.0:
            omega[pi[k] - 1] = max(x[k], 0.0) / gap
    if (omega > 0.0).any():
        omega /= omega[omega > 0.0].min()
    unique = len(hits) == 1 and best < math.inf
    return best, pi, tuple(float(w) for w in omega), unique, tuple(zip(orderings, values))


def test_bound_dead_first_user_is_zero(monkeypatch):
    # User 1 decodes nothing, so an ordering that starts with it bounds the
    # rate by 0: its LP is unbounded (sigma_1 grows with every theta at 0),
    # and the weights are user 1 alone.
    stats = validate_stats([[0.0, 0.0, 0.0], [0.9, 0.5, 0.2], [0.8, 0.4, 0.1]])
    tup = caching_tuple(central_strategy(3, Fraction(1, 3)))
    report = upper_bound_rate(stats, tup)
    assert report.value == 0.0
    assert report.argmin_pi == (1, 2, 3)
    assert report.omega_star == (1.0, 0.0, 0.0)
    assert not report.omega_star_unique  # (1, 3, 2) is 0 too
    assert [value == 0.0 for _, value in report.table] == [True, True, False, False, False, False]
    assert solve_lp(*build_permutation_lp(stats, tup, (1, 2, 3))).status == UNBOUNDED

    # The bound settles those orderings without an LP: no stack it solves
    # holds an LP whose first user's decode rows (its first B rows, column
    # sigma_1) are all zero.  The report is the one the LPs give alone,
    # with the first user or a middle one dead, at mu where every user is
    # live, where some are fully covered, and at mu = 1 where no ordering
    # has a live user (p = 0).
    stacks = []
    solve_lps = upper_bound.solve_lps

    def recording(c, a_ub, b_ub):
        stacks.append(a_ub)
        return solve_lps(c, a_ub, b_ub)

    monkeypatch.setattr(upper_bound, "solve_lps", recording)
    rng = np.random.default_rng(25)
    for users, dead in ((3, 1), (3, 2), (5, 1), (5, 3)):
        grid = random_stats(rng, users, 3).ccdf.copy()
        grid[dead - 1] = 0.0
        stats = validate_stats(grid)
        for mu in (Fraction(0), Fraction(1, users), Fraction(1, 2), Fraction(users - 1, users), Fraction(1)):
            stacks.clear()
            report = upper_bound_rate(stats, central_tuple(users, mu))
            assert (len(stacks) == 0) == (mu == 1)
            assert all(a_ub[:, :3, 0].any(axis=1).all() for a_ub in stacks)
            alone = _bound_one_ordering_at_a_time(stats, central_tuple(users, mu))
            assert (report.value, report.argmin_pi, report.omega_star, report.omega_star_unique, report.table) == alone
            assert report.value == (math.inf if mu == 1 else 0.0)


def test_bound_full_cache_is_infinite(mixed3):
    tup = caching_tuple(central_strategy(3, Fraction(1)))
    report = upper_bound_rate(mixed3, tup)
    assert report.value == math.inf
    assert report.omega_star == (0.0, 0.0, 0.0)
    assert not report.omega_star_unique


def test_bound_full_cache_solves_no_lp(monkeypatch):
    # Every user's cache covers the file: no ordering has a live prefix, so
    # no LP is solved, and every ordering's value is infinite.  The table
    # lists the K! orderings in lexicographic order.
    shapes = _recording_solve_lps(monkeypatch)
    rng = np.random.default_rng(3)
    for users in range(1, 7):
        stats = random_stats(rng, users, 3)
        report = upper_bound_rate(stats, caching_tuple(central_strategy(users, Fraction(1))))
        assert report.argmin_pi == tuple(range(1, users + 1))
        assert report.table == tuple((pi, math.inf) for pi in permutations(range(1, users + 1)))
    assert shapes == []


def test_bound_user_cap():
    stats = random_stats(np.random.default_rng(1), 9, 2)
    tup = caching_tuple(central_strategy(9, Fraction(0)))
    with pytest.raises(TooManyUsers):
        upper_bound_rate(stats, tup)


@pytest.mark.parametrize("tuple_users", [2, 4])
def test_bound_rejects_tuple_of_other_size(mixed3, tuple_users):
    tup = caching_tuple(central_strategy(tuple_users, Fraction(1, 2)))
    with pytest.raises(LengthMismatch):
        upper_bound_rate(mixed3, tup)
    with pytest.raises(LengthMismatch):
        objective_at(mixed3, tup, [1.0, 1.0, 1.0])
    with pytest.raises(LengthMismatch):
        build_permutation_lp(mixed3, tup, (1, 2, 3))


def test_bound_explicit_caching_matches_each_ordering():
    # {1, 2} and {2, 3} cache the whole file but {1, 3, 4} does not, so the
    # orderings have live counts 1, 2 or 3, and the LPs of each live count
    # have up to 3 record decode rows a user.  Padded stacks must solve as
    # the LPs alone.
    stats = random_stats(np.random.default_rng(12), 4, 3)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    placement = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    tup = caching_tuple(strategy_from_intervals(placement, half))
    report = upper_bound_rate(stats, tup)

    orderings = list(permutations(range(1, 5)))
    problems = [build_permutation_lp(stats, tup, pi) for pi in orderings]
    shapes = {a_ub.shape for _, a_ub, _ in problems}
    assert sorted(shapes) == [(4, 4), (5, 5), (6, 5), (7, 5), (7, 6), (8, 5), (8, 6), (9, 6), (11, 6)]
    assert all(3 + q <= m <= 4 * q for m, n in shapes for q in [n - 3])  # q = n - 3 live users
    values = [-1.0 / solve_lp(*p).value for p in problems]
    assert report.table == tuple(zip(orderings, values))
    best = min(values)
    argmin = next(i for i, v in enumerate(values) if v <= best + FEAS_TOL)
    pi = orderings[argmin]
    assert report.value == best and report.argmin_pi == pi
    x = solve_lp(*problems[argmin]).x
    omega = np.zeros(4)
    for k in range(4):
        gap = float(1 - tup.of(pi[: k + 1]))
        if gap > 0.0:
            omega[pi[k] - 1] = x[k] / gap
    omega /= omega[omega > 0.0].min()
    assert report.omega_star == tuple(float(w) for w in omega)
