"""Weighted ceiling: direct evaluation, per-ordering LP, global minimum."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import lp, upper_bound
from cachecast.caching import caching_tuple, central_strategy, central_tuple, strategy_from_intervals
from cachecast.channel import validate_stats
from cachecast.errors import LengthMismatch, OutOfRange, TooManyUsers, ZeroDenominator
from cachecast.lp import FEAS_TOL, OPTIMAL, UNBOUNDED, solve_lp, stack_size
from cachecast.upper_bound import build_permutation_lp, objective_at, upper_bound_rate

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


def test_objective_full_cache_has_zero_denominator(mixed3):
    tup = caching_tuple(central_strategy(3, Fraction(1)))
    with pytest.raises(ZeroDenominator):
        objective_at(mixed3, tup, [1.0, 1.0, 1.0])


# --- build_permutation_lp --------------------------------------------------------


def test_lp_shape_and_first_row(mixed3, tup3):
    p = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    assert p.a_ub.shape == (8, 5)  # live count 2: 6 decode rows + 1 ordering row + the budget row
    assert p.num_vars == 5  # sigma_1, sigma_2, theta_1..3
    np.testing.assert_allclose(p.a_ub[0], [0.9, 0.0, -2.0 / 3.0, 0.0, 0.0])
    np.testing.assert_array_equal(p.b_ub, [0.0] * 7 + [1.0])
    np.testing.assert_array_equal(p.c, [-1, -1, 0, 0, 0])  # maximize sum sigma


def test_lp_ordering_rows(mixed3, tup3):
    p = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    np.testing.assert_allclose(p.a_ub[6], [-1.0 / 3.0, 2.0 / 3.0, 0.0, 0.0, 0.0])
    # the chain row into the pinned sigma_3 is left out with it
    np.testing.assert_array_equal(p.a_ub[7], [0.0, 0.0, 1.0, 1.0, 1.0])  # sum theta <= 1


def test_lp_pins_fully_covered_prefixes(mixed3, tup3):
    # {1, 2, 3} has coverage 1, so sigma_3 is pinned: in the full-shape LP
    # its column and cost are zero, and so are its 3 decode rows and the
    # chain row into it.  The live-prefix LP leaves all of them out, and
    # sigma_1 and sigma_2 keep their entries.
    reference = permutation_lp_reference(mixed3, tup3, (1, 2, 3))
    np.testing.assert_array_equal(reference.a_ub[:, 2], np.zeros(12))
    assert reference.c[2] == 0.0
    assert not reference.a_ub[[6, 7, 8, 10]].any()
    p = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    assert p.a_ub.shape == (8, 5)
    assert np.count_nonzero(p.a_ub[:, :2], axis=0).tolist() == [4, 4]  # 3 decode + 1 ordering row
    np.testing.assert_array_equal(p.c[:2], [-1.0, -1.0])
    assert np.all(p.a_ub.any(axis=1)) and np.all(p.a_ub.any(axis=0))  # no zero row or column left


def test_lp_matches_entrywise_builder():
    # Central placements pin the same prefixes in every ordering; the
    # explicit one pins one, two or three depending on the ordering.  The
    # live-prefix LP is the full-shape reference without its zero rows and
    # columns.
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
            for name in ("c", "a_ub", "b_ub"):
                a, b = getattr(built, name), getattr(reference, name)
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
    # Dropping the pinned sigmas' zero columns and the zero rows leaves the
    # pivot path unchanged: the same pivots, value and sigma/theta bytes.
    seen = set()
    for pi in permutations(range(1, stats.num_users + 1)):
        reference = permutation_lp_reference(stats, tup, pi)
        _, columns = drop_zero_lines(reference)
        pinned = solve_lp(reference)
        live = solve_lp(build_permutation_lp(stats, tup, pi))
        seen.add(live.x.size - stats.num_levels)
        assert live.status == pinned.status == OPTIMAL
        assert live.pivots == pinned.pivots
        assert float.hex(live.value) == float.hex(pinned.value)
        assert live.x.tobytes() == pinned.x[columns].tobytes()
        assert not pinned.x[~columns].any()
    assert seen == live_counts


def test_lp_rejects_non_permutation(mixed3, tup3):
    with pytest.raises(OutOfRange):
        build_permutation_lp(mixed3, tup3, (1, 2, 2))


# --- upper_bound_rate -------------------------------------------------------------


@pytest.mark.parametrize("users", range(1, 8))
def test_ordering_array_lists_the_permutations_in_order(users):
    built = upper_bound._ordering_array(users)
    listed = np.array(list(permutations(range(1, users + 1))))
    assert built.dtype == listed.dtype and built.shape == listed.shape
    assert np.array_equal(built, listed)


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


def test_bound_solves_full_stacks(monkeypatch):
    # Each solve_lps call gets one lockstep stack's worth of live prefixes,
    # so every stack is full but the last: at K = 6, B = 4, mu = 1/6 every
    # ordering has live count 5 (25 x 9 LPs) and 720 = 4 * 172 + 32.
    stacks = []
    solve_stack = lp._solve_stack

    def recording_stack(c, a_ub, b_ub):
        stacks.append(len(a_ub))
        return solve_stack(c, a_ub, b_ub)

    monkeypatch.setattr(lp, "_solve_stack", recording_stack)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    upper_bound_rate(validate_stats(ROADMAP_ITEM1_ROWS), tup)
    assert stack_size(25, 9) == 172
    assert stacks == [172] * 4 + [32]


def _recording_solve_lps(monkeypatch):
    """Record the shape of every stack upper_bound hands to solve_lps."""
    shapes = []
    solve_lps = upper_bound.solve_lps

    def recording(c, a_ub, b_ub):
        shapes.append(a_ub.shape)
        return solve_lps(c, a_ub, b_ub)

    monkeypatch.setattr(upper_bound, "solve_lps", recording)
    return shapes


@pytest.mark.parametrize("t, lps", [(1, 720), (2, 360), (3, 120), (4, 30), (5, 6)])
def test_bound_solves_one_lp_per_live_prefix(monkeypatch, t, lps):
    # At mu = t/6 a set of 6 - t + 1 users covers the file, so the live
    # prefixes are the 6!/t! ordered (6 - t)-tuples of users.
    shapes = _recording_solve_lps(monkeypatch)
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    report = upper_bound_rate(stats, central_tuple(6, Fraction(t, 6)))
    p = 6 - t
    assert {shape[1:] for shape in shapes} == {(p * 4 + p, p + 4)}
    assert sum(shape[0] for shape in shapes) == lps
    assert len(report.table) == 720


def test_bound_shares_no_lp_across_live_counts(monkeypatch):
    # {1, 2} and {2, 3} cache the whole file, {1, 3} does not.  (1, 2, 3)
    # and (1, 3, 2) share their first user but have live counts 1 and 2, so
    # they take two LPs; (2, 1, 3) and (2, 3, 1) share the live prefix (2).
    # The live prefixes are (1), (2), (3) and (1, 3), (3, 1): five LPs.
    half = Fraction(1, 2)
    tup = caching_tuple(strategy_from_intervals([[(0, half)], [(half, 1)], [(0, half)]], half))
    stats = random_stats(np.random.default_rng(21), 3, 4)
    shapes = _recording_solve_lps(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert sorted(shapes) == [(2, 10, 6), (3, 5, 5)]
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


def test_bound_dead_first_user_is_zero():
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
    assert solve_lp(build_permutation_lp(stats, tup, (1, 2, 3))).status == UNBOUNDED


def test_bound_full_cache_is_infinite(mixed3):
    tup = caching_tuple(central_strategy(3, Fraction(1)))
    report = upper_bound_rate(mixed3, tup)
    assert report.value == math.inf
    assert report.omega_star == (0.0, 0.0, 0.0)
    assert not report.omega_star_unique


def test_bound_full_cache_solves_no_lp(monkeypatch, mixed3):
    # Every user's cache covers the file: no ordering has a live prefix, so
    # no LP is solved, and every ordering's value is infinite.
    shapes = _recording_solve_lps(monkeypatch)
    report = upper_bound_rate(mixed3, caching_tuple(central_strategy(3, Fraction(1))))
    assert shapes == []
    assert report.argmin_pi == (1, 2, 3)
    assert report.table == tuple((pi, math.inf) for pi in permutations(range(1, 4)))


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
    # orderings have live counts 1, 2 or 3, one LP shape each.
    stats = random_stats(np.random.default_rng(12), 4, 3)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    placement = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    tup = caching_tuple(strategy_from_intervals(placement, half))
    report = upper_bound_rate(stats, tup)

    orderings = list(permutations(range(1, 5)))
    problems = [build_permutation_lp(stats, tup, pi) for pi in orderings]
    assert {p.a_ub.shape for p in problems} == {(4 * q, q + 3) for q in (1, 2, 3)}
    values = [-1.0 / solve_lp(p).value for p in problems]
    assert report.table == tuple(zip(orderings, values))
    best = min(values)
    argmin = next(i for i, v in enumerate(values) if v <= best + FEAS_TOL)
    pi = orderings[argmin]
    assert report.value == best and report.argmin_pi == pi
    x = solve_lp(problems[argmin]).x
    omega = np.zeros(4)
    for k in range(4):
        gap = float(1 - tup.of(pi[: k + 1]))
        if gap > 0.0:
            omega[pi[k] - 1] = x[k] / gap
    omega /= omega[omega > 0.0].min()
    assert report.omega_star == tuple(float(w) for w in omega)
