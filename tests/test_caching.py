"""Cache placements: interval bookkeeping, central placement, closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cachecast.caching import (
    MAX_USERS,
    cache_size,
    caching_tuple,
    central_coverage,
    central_strategy,
    central_tuple,
    coverage_measure,
    strategy_from_intervals,
)
from cachecast.channel import validate_stats
from cachecast.degraded import degraded_optimal_rate
from cachecast.errors import EmptySubset, MuOutOfRange, OutOfRange, TooManyUsers
from cachecast.lp_scheme import achievable_rate_lp, t_from_mu
from cachecast.two_user import achievable_allocation_two_user, optimal_rate_two_user

F = Fraction


# --- central_strategy --------------------------------------------------------


def test_central_three_users_third():
    s = central_strategy(3, F(1, 3))
    assert s.user(1) == ((F(0), F(1, 3)),)
    assert s.user(2) == ((F(1, 3), F(2, 3)),)
    assert s.user(3) == ((F(2, 3), F(1)),)


def test_central_three_users_two_thirds():
    s = central_strategy(3, F(2, 3))
    # pairs {1,2},{1,3},{2,3} own thirds 1,2,3; adjacent pieces merge.
    assert s.user(1) == ((F(0), F(2, 3)),)
    assert s.user(2) == ((F(0), F(1, 3)), (F(2, 3), F(1)))
    assert s.user(3) == ((F(1, 3), F(1)),)


def test_central_extremes():
    empty = central_strategy(3, F(0))
    assert all(empty.user(k) == () for k in (1, 2, 3))
    full = central_strategy(3, F(1))
    assert all(full.user(k) == ((F(0), F(1)),) for k in (1, 2, 3))


def test_central_fractional_part_spills_into_larger_subsets():
    s = central_strategy(2, F(3, 4))  # t=1, lam=1/2
    assert s.user(1) == ((F(0), F(1, 4)), (F(1, 2), F(1)))
    assert s.user(2) == ((F(1, 4), F(1)),)
    assert coverage_measure(s, [1]) == F(3, 4)


def test_central_rejects_bad_inputs():
    for build in (central_strategy, central_tuple):
        with pytest.raises(EmptySubset):
            build(0, F(1, 2))
        with pytest.raises(MuOutOfRange):
            build(3, F(3, 2))
        with pytest.raises(MuOutOfRange):
            build(3, F(-1, 2))


CHAIN2 = validate_stats([[0.5, 0.2], [0.9, 0.4]])

TAKES_MU = {
    "central_tuple": lambda mu: central_tuple(2, mu),
    "central_strategy": lambda mu: central_strategy(2, mu),
    "central_coverage": lambda mu: central_coverage(2, mu, 1),
    "strategy_from_intervals": lambda mu: strategy_from_intervals([[(F(0), F(1, 2))]], mu),
    "t_from_mu": lambda mu: t_from_mu(2, mu),
    "achievable_rate_lp": lambda mu: achievable_rate_lp(CHAIN2, mu),
    "degraded_optimal_rate": lambda mu: degraded_optimal_rate(CHAIN2, mu),
    "optimal_rate_two_user": lambda mu: optimal_rate_two_user(CHAIN2, mu),
    "achievable_allocation_two_user": lambda mu: achievable_allocation_two_user(CHAIN2, mu),
}


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, F(-1, 3), F(4, 3), "x", True, False], ids=repr)
@pytest.mark.parametrize("entry", sorted(TAKES_MU))
def test_every_cache_size_argument_is_checked_alike(entry, mu):
    with pytest.raises(MuOutOfRange):
        TAKES_MU[entry](mu)


@pytest.mark.parametrize("mu", [True, False])
def test_a_boolean_is_not_a_cache_size(mu):
    # Fraction(True) is 1, so a boolean would pass for mu = 1 or 0.
    with pytest.raises(MuOutOfRange, match=rf"^mu must be a number in \[0, 1\], got {mu}$"):
        cache_size(mu)
    with pytest.raises(MuOutOfRange, match=rf"^mu must be a number in \[0, 1\], got {mu}$"):
        achievable_rate_lp(CHAIN2, mu)


@pytest.mark.parametrize("mu, shown", [(F(9, 8), "9/8"), (F(-1, 3), "-1/3"), (1.5, "1.5"), ("3/2", "3/2")])
def test_cache_size_names_the_value_out_of_range(mu, shown):
    with pytest.raises(MuOutOfRange, match=rf"^mu must lie in \[0, 1\], got {shown}$"):
        cache_size(mu)


# --- strategy_from_intervals ---------------------------------------------------


def test_explicit_strategy_measures():
    s = strategy_from_intervals([[(F(0), F(1, 2))], [(F(1, 4), F(3, 4))]], F(1, 2))
    assert coverage_measure(s, [1, 2]) == F(3, 4)


def test_explicit_strategy_merges_pieces():
    s = strategy_from_intervals([[(F(1, 2), F(1)), (F(0), F(1, 2))]], F(1))
    assert s.user(1) == ((F(0), F(1)),)


def test_explicit_strategy_rejects_bad_interval():
    with pytest.raises(OutOfRange):
        strategy_from_intervals([[(F(1, 2), F(3, 2))]], F(1))
    with pytest.raises(OutOfRange):
        strategy_from_intervals([[(F(1, 2), F(1, 2))]], F(0))  # degenerate piece
    # measure mismatch
    with pytest.raises(OutOfRange):
        strategy_from_intervals([[(F(0), F(1, 4))]], F(1, 2))


def test_explicit_strategy_rejects_bad_mu_and_empty():
    with pytest.raises(MuOutOfRange):
        strategy_from_intervals([[(F(0), F(1))]], F(2))
    with pytest.raises(EmptySubset):
        strategy_from_intervals([], F(1, 2))


def test_measure_rejects_bad_subsets():
    s = central_strategy(3, F(1, 3))
    with pytest.raises(EmptySubset):
        coverage_measure(s, [])
    with pytest.raises(OutOfRange):
        coverage_measure(s, [4])


# --- coverage closed form ----------------------------------------------------------


def test_coverage_examples():
    assert central_coverage(3, F(1, 3), 2) == F(2, 3)
    assert central_coverage(3, F(1, 3), 3) == F(1)
    assert coverage_measure(central_strategy(3, F(1, 3)), [1, 2]) == F(2, 3)


def test_two_users_small_mu_never_share():
    # Disjoint caches: the union measures as much as the two caches together.
    for mu in (F(0), F(1, 4), F(1, 2)):
        assert coverage_measure(central_strategy(2, mu), [1, 2]) == 2 * mu
    assert coverage_measure(central_strategy(2, F(3, 4)), [1, 2]) == F(1)


def test_closed_forms_match_measures_exactly():
    rng = np.random.default_rng(31)
    for _ in range(40):
        num_users = int(rng.integers(1, 6))
        den = int(rng.integers(1, 7))
        mu = F(int(rng.integers(0, den + 1)), den)
        strategy = central_strategy(num_users, mu)
        q = int(rng.integers(1, num_users + 1))
        users = rng.choice(np.arange(1, num_users + 1), size=q, replace=False)
        assert central_coverage(num_users, mu, q) == coverage_measure(strategy, users)
        assert central_tuple(num_users, mu) == caching_tuple(strategy)


def test_closed_forms_reject_bad_subset_size():
    with pytest.raises(OutOfRange):
        central_coverage(3, F(1, 3), 0)
    with pytest.raises(OutOfRange):
        central_coverage(3, F(1, 3), 4)


# --- caching_tuple ---------------------------------------------------------------


def test_caching_tuple_two_users():
    tup = caching_tuple(central_strategy(2, F(1, 2)))
    assert tup.of([1]) == F(1, 2)
    assert tup.of([2]) == F(1, 2)
    assert tup.of([1, 2]) == F(1)


def test_caching_tuple_covers_all_subsets():
    tup = caching_tuple(central_strategy(4, F(1, 4)))
    assert len(tup.coverage) == 2**4 - 1
    assert tup.of([1, 2, 3, 4]) == F(1)
    assert tup.of((3,)) == F(1, 4)


def test_caching_tuple_user_cap():
    for build in (lambda K, mu: caching_tuple(central_strategy(K, mu)), central_tuple):
        with pytest.raises(TooManyUsers):
            build(MAX_USERS + 1, F(0))
