"""Two-user optimum and the explicit split construction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cachecast.channel import validate_stats
from cachecast.errors import MuOutOfRange, NotTwoUser
from cachecast.two_user import (
    achievable_allocation_two_user,
    optimal_rate_two_user,
)

from helpers import check_two_user_instance, random_two_user


@pytest.fixture
def pair(mixed3):
    return validate_stats(mixed3.ccdf[:2])


# --- optimal_rate_two_user -----------------------------------------------------


def test_optimum_single_level_uneven():
    stats = validate_stats([[0.5], [1.0]])
    assert abs(optimal_rate_two_user(stats, 0.0) - 1.0 / 3.0) <= 1e-12


def test_optimum_single_level_equal():
    stats = validate_stats([[1.0], [1.0]])
    assert abs(optimal_rate_two_user(stats, 0.0) - 0.5) <= 1e-12
    assert abs(optimal_rate_two_user(stats, 0.5) - 2.0) <= 1e-12


def test_optimum_large_mu_closed_form(pair):
    weakest = min(pair.ccdf.sum(axis=1))
    for mu in (0.5, 0.6, 0.75, 0.9):
        assert abs(optimal_rate_two_user(pair, mu) - weakest / (1.0 - mu)) <= 1e-12


def test_optimum_full_cache_is_unbounded(pair):
    assert optimal_rate_two_user(pair, 1.0) == math.inf


def test_optimum_monotone_in_mu(pair):
    rates = [optimal_rate_two_user(pair, mu) for mu in np.linspace(0.0, 0.9, 10)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_optimum_rejects_bad_mu(pair):
    with pytest.raises(MuOutOfRange):
        optimal_rate_two_user(pair, -0.1)
    with pytest.raises(MuOutOfRange):
        optimal_rate_two_user(pair, 1.1)


@pytest.mark.parametrize("rows", [[[0.9, 0.4]], [[0.9, 0.4], [0.8, 0.3], [0.7, 0.2]]])
@pytest.mark.parametrize("routine", [optimal_rate_two_user, achievable_allocation_two_user])
def test_two_user_routines_reject_other_user_counts(rows, routine):
    with pytest.raises(NotTwoUser, match=f"^expected 2 users, got {len(rows)}$"):
        routine(validate_stats(rows), 0.25)


# --- achievable_allocation_two_user ----------------------------------------------


def test_allocation_equal_single_level():
    stats = validate_stats([[1.0], [1.0]])
    alloc = achievable_allocation_two_user(stats, 0.0)
    assert (alloc.u, alloc.v) == (1, 1)
    assert abs(alloc.alpha - 0.5) <= 1e-12
    assert abs(alloc.rate - 0.5) <= 1e-12
    assert abs(alloc.individual_size - 0.5) <= 1e-12
    assert alloc.common_size == 0.0


def test_allocation_uneven_single_level():
    stats = validate_stats([[0.5], [1.0]])
    alloc = achievable_allocation_two_user(stats, 0.0)
    assert abs(alloc.rate - 1.0 / 3.0) <= 1e-12
    assert abs(alloc.alpha - 2.0 / 3.0) <= 1e-12
    assert all(m >= -1e-12 for m in alloc.margins)


def test_allocation_with_cache_splits_common_and_individual():
    stats = validate_stats([[1.0], [1.0]])
    alloc = achievable_allocation_two_user(stats, 0.25)
    # rate satisfies (1 - mu) f = 1 level split evenly: f = 2/(2 - 2*mu)... check
    assert abs(min(alloc.f1, alloc.f2) - optimal_rate_two_user(stats, 0.25)) <= 1e-12
    assert abs(alloc.individual_size - 0.5 * alloc.rate) <= 1e-12
    assert abs(alloc.common_size - 0.25 * alloc.rate) <= 1e-12


def test_allocation_drops_dead_levels():
    stats = validate_stats([[0.8, 0.0], [0.6, 0.0]])
    alloc = achievable_allocation_two_user(stats, 0.0)
    assert alloc.level_order == (1,)
    # single live level split 0.8a = 0.6(1-a): a = 3/7, rate 12/35
    assert abs(alloc.alpha - 3.0 / 7.0) <= 1e-12
    assert abs(alloc.rate - 12.0 / 35.0) <= 1e-12


def test_one_user_dead_means_zero_rate():
    stats = validate_stats([[0.8], [0.0]])
    assert optimal_rate_two_user(stats, 0.0) == 0.0
    alloc = achievable_allocation_two_user(stats, 0.0)
    assert alloc.rate == 0.0


def test_allocation_all_dead_levels():
    stats = validate_stats([[0.0], [0.0]])
    alloc = achievable_allocation_two_user(stats, 0.3)
    assert alloc.rate == 0.0
    assert alloc.level_order == ()


def test_allocation_rejects_mu_above_half(pair):
    with pytest.raises(MuOutOfRange):
        achievable_allocation_two_user(pair, 0.6)


def test_allocation_random_instances_match_optimum():
    rng = np.random.default_rng(2718)
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    for _ in range(80):
        stats = random_two_user(rng)
        for mu in grid:
            check_two_user_instance(stats, mu)


# --- tiny rates ------------------------------------------------------------------


def test_tiny_rate_split_meets_the_bound():
    # A rate near 1e-12: an absolute tie tolerance of 1e-12 took a split far
    # from the best one, whose individual-1 margin read -19% of the rate.
    stats = validate_stats([[5.218e-13, 4.448e-13], [9.118e-13, 8.918e-13]])
    for mu in (0.0, 0.1, 0.25, 0.5):
        check_two_user_instance(stats, mu)
        alloc = achievable_allocation_two_user(stats, mu)
        assert 0.0 < alloc.rate < 1e-11


def test_tiny_rate_splits_keep_their_margins():
    # Each user's row scaled by 10^-0 .. 10^-12 on its own: the tie tolerance
    # is relative to the rate, and each share of a split level has its own
    # closed form, so no margin falls below -1e-12 of the rate.
    rng = np.random.default_rng(4505)
    mus = [Fraction(i, 14) for i in range(8)]  # 0 .. 1/2
    for _ in range(200):
        levels = int(rng.integers(1, 8))
        grid = np.sort(rng.random((2, levels)), axis=1)[:, ::-1] * 10.0 ** -rng.integers(0, 13, size=(2, 1))
        stats = validate_stats(grid)
        for mu in mus:
            alloc = achievable_allocation_two_user(stats, mu)
            assert all(m >= -1e-12 * alloc.rate for m in alloc.margins), (grid.tolist(), mu, alloc.margins)
