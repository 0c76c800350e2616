"""Weighted ceiling: direct evaluation, per-ordering LP, global minimum."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import lp
from cachecast.caching import caching_tuple, central_strategy, strategy_from_intervals
from cachecast.channel import validate_stats
from cachecast.errors import LengthMismatch, OutOfRange, TooManyUsers, ZeroDenominator
from cachecast.lp import FEAS_TOL, UNBOUNDED, solve_lp, stack_size
from cachecast.upper_bound import build_permutation_lp, objective_at, upper_bound_rate

from helpers import (
    MIXED3_BEST_PI,
    MIXED3_BOUND,
    MIXED3_OMEGA,
    MIXED3_TABLE,
    ROADMAP_ITEM1_BOUND,
    ROADMAP_ITEM1_ROWS,
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
    assert p.a_ub.shape == (12, 6)  # 9 decode rows + 2 ordering rows + the budget row
    assert p.num_vars == 6
    np.testing.assert_allclose(p.a_ub[0], [0.9, 0.0, 0.0, -2.0 / 3.0, 0.0, 0.0])
    np.testing.assert_array_equal(p.b_ub, [0.0] * 11 + [1.0])
    np.testing.assert_array_equal(p.c, [-1, -1, 0, 0, 0, 0])  # maximize sum sigma; sigma_3 pinned


def test_lp_ordering_rows(mixed3, tup3):
    p = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    np.testing.assert_allclose(p.a_ub[9], [-1.0 / 3.0, 2.0 / 3.0, 0.0, 0.0, 0.0, 0.0])
    # -0 * sigma_2 + (1/3) sigma_3 <= 0, with the pinned sigma_3's entry zeroed
    np.testing.assert_array_equal(p.a_ub[10], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(p.a_ub[11], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])  # sum theta <= 1


def test_lp_pins_fully_covered_prefixes(mixed3, tup3):
    p = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    # one pin: the full-user prefix has coverage 1, so sigma_3's column and
    # cost are zero; sigma_1 and sigma_2 keep theirs
    np.testing.assert_array_equal(p.a_ub[:, 2], np.zeros(12))
    assert p.c[2] == 0.0
    assert np.count_nonzero(p.a_ub[:, :2], axis=0).tolist() == [4, 4]  # 3 decode + 1 ordering row
    np.testing.assert_array_equal(p.c[:2], [-1.0, -1.0])


def test_lp_matches_entrywise_builder():
    # Central placements pin the same prefixes in every ordering; the
    # explicit one pins one, two or three depending on the ordering.
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
            reference = permutation_lp_reference(stats, tup, pi)
            for name in ("c", "a_ub", "b_ub"):
                a, b = getattr(built, name), getattr(reference, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    # Each solve_lps call gets one lockstep stack's worth of orderings, so
    # every stack is full but the last: 720 = 5 * 130 + 70 at K = 6, B = 4.
    stacks = []
    solve_stack = lp._solve_stack

    def recording_stack(c, a_ub, b_ub):
        stacks.append(len(a_ub))
        return solve_stack(c, a_ub, b_ub)

    monkeypatch.setattr(lp, "_solve_stack", recording_stack)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    upper_bound_rate(validate_stats(ROADMAP_ITEM1_ROWS), tup)
    assert stack_size(30, 10) == 130
    assert stacks == [130] * 5 + [70]


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
    # orderings pin one, two or three sigmas; their LPs all have one shape.
    stats = random_stats(np.random.default_rng(12), 4, 3)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    placement = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    tup = caching_tuple(strategy_from_intervals(placement, half))
    report = upper_bound_rate(stats, tup)

    orderings = list(permutations(range(1, 5)))
    problems = [build_permutation_lp(stats, tup, pi) for pi in orderings]
    assert len({p.a_ub.shape for p in problems}) == 1
    assert {int(np.count_nonzero(p.c == 0.0)) - 3 for p in problems} == {1, 2, 3}
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
