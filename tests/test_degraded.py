"""Dominance-chain optimum and the z -> per-subset refinement."""

from fractions import Fraction

import numpy as np
import pytest

from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.degraded import chain_stats, degraded_optimal_rate, degraded_order, z_to_y
from cachecast.errors import (
    BadT,
    InfeasibleZ,
    LengthMismatch,
    MuOutOfRange,
    NonIntegerT,
    NotDegraded,
    OutOfRange,
)
from cachecast.lp_scheme import achievable_rate_lp, check_allocation
from cachecast.two_user import optimal_rate_two_user
from cachecast.upper_bound import upper_bound_rate

from helpers import CHAIN3_RATE, CHAIN3_Z, dense_chain_optimum, random_chain_stats

THIRD = Fraction(1, 3)


# --- degraded_order / chain_stats ---------------------------------------------


def test_order_identity_chain(chain3):
    assert degraded_order(chain3) == (1, 2, 3)


def test_order_recovers_permutation(chain3):
    shuffled = validate_stats(chain3.ccdf[::-1])
    assert degraded_order(shuffled) == (3, 2, 1)
    rebuilt = chain_stats(shuffled, (3, 2, 1))
    np.testing.assert_array_equal(rebuilt.ccdf, chain3.ccdf)
    assert not rebuilt.ccdf.flags.writeable


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 1, 1), (1, 2, 4), (1.5, 2, 3)])
def test_chain_stats_rejects_orders_that_are_not_permutations(chain3, order):
    with pytest.raises(OutOfRange, match="not a permutation of 1..3"):
        chain_stats(chain3, order)


def test_order_rejects_incomparable(mixed3):
    with pytest.raises(NotDegraded):
        degraded_order(mixed3)
    with pytest.raises(NotDegraded):
        degraded_optimal_rate(mixed3, THIRD)


# --- degraded_optimal_rate -------------------------------------------------------


def test_chain_reference_rate(chain3):
    result = degraded_optimal_rate(chain3, THIRD)
    assert abs(result.rate - CHAIN3_RATE) <= 1e-9
    assert result.user_order == (1, 2, 3)
    assert result.t == 1
    assert result.mu == THIRD
    np.testing.assert_allclose(result.z, CHAIN3_Z, atol=1e-9)


def test_single_user_takes_everything():
    result = degraded_optimal_rate(validate_stats([[0.6, 0.2]]), 0)
    assert abs(result.rate - 0.8) <= 1e-9
    np.testing.assert_allclose(result.z, [[1.0], [1.0]], atol=1e-9)


def test_two_user_single_level():
    result = degraded_optimal_rate(validate_stats([[0.5], [1.0]]), 0)
    assert abs(result.rate - 1.0 / 3.0) <= 1e-9
    np.testing.assert_allclose(result.z, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-9)


def test_matches_two_user_optimum_on_chains():
    rng = np.random.default_rng(808)
    for _ in range(25):
        stats = random_chain_stats(rng, 2, int(rng.integers(1, 5)))
        for mu in (Fraction(0), Fraction(1, 2)):
            got = degraded_optimal_rate(stats, mu).rate
            want = optimal_rate_two_user(stats, float(mu))
            assert abs(got - want) <= 1e-9


def test_chain_sandwich_is_tight(chain3):
    # chains admit a matching ceiling: construction and bound coincide
    lp_rate = achievable_rate_lp(chain3, THIRD).rate
    z_rate = degraded_optimal_rate(chain3, THIRD).rate
    bound = upper_bound_rate(chain3, caching_tuple(central_strategy(3, THIRD))).value
    assert abs(lp_rate - z_rate) <= 1e-6
    assert abs(bound - z_rate) <= 1e-6


def test_rate_rejects_bad_mu(chain3):
    with pytest.raises(MuOutOfRange):
        degraded_optimal_rate(chain3, Fraction(4, 3))
    with pytest.raises(MuOutOfRange):
        degraded_optimal_rate(chain3, Fraction(-1, 3))
    with pytest.raises(NonIntegerT):
        degraded_optimal_rate(chain3, Fraction(1, 4))
    with pytest.raises(BadT):
        degraded_optimal_rate(chain3, 1)


# --- z_to_y ---------------------------------------------------------------------


def test_refinement_splits_anchor_shares(chain3):
    alloc = z_to_y(CHAIN3_Z, num_users=3, t=1, rate=CHAIN3_RATE)
    assert alloc.subsets == ((1, 2), (1, 3), (2, 3))
    z = np.asarray(CHAIN3_Z)
    np.testing.assert_array_equal(alloc.shares[:, 0], z[:, 0] / 2.0)  # {1,2}
    np.testing.assert_array_equal(alloc.shares[:, 1], z[:, 0] / 2.0)  # {1,3}
    np.testing.assert_array_equal(alloc.shares[:, 2], z[:, 1])  # {2,3}
    np.testing.assert_allclose(alloc.shares.sum(axis=1), z.sum(axis=1))


def test_refinement_identity_when_no_cache():
    z = [[0.25, 0.75], [1.0, 0.0]]
    alloc = z_to_y(z, num_users=2, t=0, rate=0.5)
    assert alloc.subsets == ((1,), (2,))
    np.testing.assert_array_equal(alloc.shares, z)


def test_refined_allocation_is_feasible(chain3):
    result = degraded_optimal_rate(chain3, THIRD)
    alloc = z_to_y(result.z, num_users=3, t=1, rate=result.rate)
    report = check_allocation(chain3, alloc)
    assert report.feasible


def _chain_cases():
    """(stats, mu) on dominance chains, weakest user first: random chains,
    then a tie-heavy grid (K = 2..8, every t, B = 1..5, four seeds; each
    row of random_chain_stats is the levelwise maximum of the row before
    and a fresh draw, so about half its entries tie the row before), a
    dead weakest user, one live user (t = K - 1) and single users."""
    rng = np.random.default_rng(4242)
    for _ in range(15):
        num_users = int(rng.integers(1, 5))
        stats = random_chain_stats(rng, num_users, int(rng.integers(1, 5)))
        yield stats, Fraction(int(rng.integers(0, num_users)), num_users)
    for users in range(2, 9):
        for t in range(users):
            for levels in range(1, 6):
                for seed in range(4):
                    yield random_chain_stats(np.random.default_rng([users, t, levels, seed]), users, levels), Fraction(t, users)
    yield validate_stats([[0.0, 0.0], [0.5, 0.2]]), Fraction(0)
    yield validate_stats([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.9, 0.4, 0.1]]), Fraction(1, 3)
    yield validate_stats([[0.3, 0.2], [0.6, 0.2], [0.6, 0.5]]), Fraction(2, 3)
    for levels in range(1, 4):
        yield random_chain_stats(np.random.default_rng(levels), 1, levels), Fraction(0)


def test_refined_random_chains_are_feasible():
    # The chain optimum is read off the bound's LP at the chain ordering;
    # the dense chain LP is its oracle.
    for stats, mu in _chain_cases():
        num_users = stats.num_users
        result = degraded_optimal_rate(stats, mu)
        rate, _ = dense_chain_optimum(stats, mu)
        assert abs(result.rate - rate) <= 1e-12 * abs(rate), (stats.ccdf, mu)
        alloc = z_to_y(result.z, num_users=num_users, t=result.t, rate=result.rate)
        assert check_allocation(stats, alloc).feasible, (stats.ccdf, mu)
        if not stats.ccdf[0].any():  # a dead weakest user: no LP, rate 0, no air time
            assert result.rate == 0.0
            assert not result.z.any() and not np.signbit(result.z).any()


def test_refinement_rejects_bad_z():
    with pytest.raises(LengthMismatch):
        z_to_y([0.5, 0.5], num_users=2, t=0, rate=1.0)
    with pytest.raises(BadT):
        z_to_y([[0.5, 0.5]], num_users=2, t=2, rate=1.0)
    with pytest.raises(InfeasibleZ):
        z_to_y([[-0.5, 0.5]], num_users=2, t=0, rate=1.0)
    with pytest.raises(InfeasibleZ):
        z_to_y([[0.8, 0.8]], num_users=2, t=0, rate=1.0)
    with pytest.raises(InfeasibleZ):
        z_to_y([[0.5, 0.5]], num_users=2, t=1, rate=1.0)  # mass on a coverless user
    with pytest.raises(InfeasibleZ):
        z_to_y([[np.nan, 0.0, 0.0]], num_users=3, t=1, rate=1.0)
