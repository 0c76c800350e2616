"""Every rate is exact under a power-of-two rescaling of the CCDF grid.

Scaling every CCDF entry by 2^-e scales every rate by 2^-e and leaves the
shares and weights unchanged.  A power of two scales floats exactly, and
each computation solves on the grid normalised to a largest entry in
(1/2, 1] (the band split needs no normalisation), so the scaled grid must
read the unscaled results to the bit: rates, gaps and margins times 2^-e,
the same shares, z, omega_star, argmin_pi and uniqueness flag.  e = 60
puts the entries near 1e-19, far below every absolute tolerance.
"""

import math
from fractions import Fraction

import numpy as np

from cachecast.caching import central_tuple
from cachecast.channel import ChannelStats, scale_exponent
from cachecast.lp import solve_lp
from cachecast.lp_scheme import achievable_rate_lp
from cachecast.two_user import achievable_allocation_two_user
from cachecast.upper_bound import build_permutation_lp, chain_optimum, upper_bound_rate

from helpers import (
    drop_zero_lines,
    ordering_value,
    permutation_lp_reference,
    random_chain_stats,
    random_stats,
    random_two_user,
)

EXPONENTS = (20, 36, 60)


def scaled(stats: ChannelStats, e: int) -> ChannelStats:
    ccdf = np.ldexp(stats.ccdf, -e)
    ccdf.setflags(write=False)
    return ChannelStats(stats.num_users, stats.num_levels, ccdf)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scale_exponent_brings_the_largest_entry_into_the_upper_half():
    for top, e in ((1.0, 0), (0.75, 0), (0.5000000000000001, 0), (0.5, -1), (0.25, -2), (2.0**-40, -40), (0.0, 0)):
        grid = np.array([[top, 0.0], [top / 3, top / 7]])
        assert scale_exponent(grid) == e
        if top:
            assert 0.5 < math.ldexp(top, -e) <= 1.0


def test_bound_is_exact_under_rescaling():
    rng = np.random.default_rng(4501)
    for users, levels, t in ((2, 3, 0), (3, 2, 1), (4, 4, 1), (5, 3, 2), (6, 3, 1), (5, 4, 0), (6, 2, 3)):
        stats = random_stats(rng, users, levels)
        tup = central_tuple(users, Fraction(t, users))
        base = upper_bound_rate(stats, tup)
        for e in EXPONENTS:
            small = upper_bound_rate(scaled(stats, e), tup)
            assert small.value == math.ldexp(base.value, -e)
            assert same_bytes(small.values, np.ldexp(base.values, -e))
            assert small.argmin_pi == base.argmin_pi
            assert small.omega_star == base.omega_star
            assert small.omega_star_unique == base.omega_star_unique


def test_permutation_lp_is_the_lp_the_bound_solves():
    # build_permutation_lp reads the grid normalised as upper_bound_rate
    # solves it: on a grid times 2^-e it builds the unscaled grid's LP
    # byte for byte, and so the entrywise reference on the scaled grid;
    # ordering_value, with the grid's scale, reads each table value off
    # that LP's optimum from x = 0 to 1e-12.  e = 1 also halves a largest
    # entry of 1 to 1/2, which the normalisation doubles back.
    rng = np.random.default_rng(4602)
    for users, levels, t in ((3, 2, 0), (4, 3, 1), (5, 2, 2)):
        stats = random_stats(rng, users, levels)
        assert scale_exponent(stats.ccdf) == 0
        tup = central_tuple(users, Fraction(t, users))
        for e in (1, *EXPONENTS):
            small = scaled(stats, e)
            report = upper_bound_rate(small, tup)
            for pi, value in zip(report.orderings.tolist(), report.values.tolist()):
                built = build_permutation_lp(small, tup, pi)
                reference, _ = drop_zero_lines(permutation_lp_reference(small, tup, pi))
                for a, b, c in zip(built, build_permutation_lp(stats, tup, pi), reference):
                    assert a.shape == b.shape == c.shape and a.tobytes() == b.tobytes() == c.tobytes()
                cold = ordering_value(small, tup, pi, solve_lp(*built).value)
                assert abs(cold - value) <= 1e-12 * value


def test_chain_optimum_is_exact_under_rescaling():
    rng = np.random.default_rng(4502)
    for users, levels in ((2, 2), (3, 4), (5, 3), (7, 4)):
        stats = random_chain_stats(rng, users, levels)
        for t in range(users):
            mu = Fraction(t, users)
            rate, z = chain_optimum(stats, mu)
            for e in EXPONENTS:
                small_rate, small_z = chain_optimum(scaled(stats, e), mu)
                assert small_rate == math.ldexp(rate, -e)
                assert same_bytes(small_z, z)


def test_delivery_lp_is_exact_under_rescaling():
    rng = np.random.default_rng(4503)
    for users, levels, t in ((3, 4, 1), (5, 4, 2), (6, 3, 0), (7, 4, 3)):
        stats = random_stats(rng, users, levels)
        mu = Fraction(t, users)
        base = achievable_rate_lp(stats, mu)
        for e in EXPONENTS:
            small = achievable_rate_lp(scaled(stats, e), mu)
            assert small.rate == math.ldexp(base.rate, -e)
            assert small.gap == math.ldexp(base.gap, -e)
            assert same_bytes(small.shares, base.shares)
            assert same_bytes(small.report.margins, np.ldexp(base.report.margins, -e))
            assert same_bytes(small.report.level_slacks, base.report.level_slacks)
            assert small.report.feasible and small.report.violation == base.report.violation


def test_band_split_is_exact_under_rescaling():
    rng = np.random.default_rng(4504)
    for _ in range(40):
        stats = random_two_user(rng)
        for mu in (Fraction(0), Fraction(1, 7), Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)):
            base = achievable_allocation_two_user(stats, mu)
            for e in EXPONENTS:
                small = achievable_allocation_two_user(scaled(stats, e), mu)
                for field in ("rate", "f1", "f2", "individual_size", "common_size"):
                    assert getattr(small, field) == math.ldexp(getattr(base, field), -e), field
                assert same_bytes(small.margins, np.ldexp(base.margins, -e))
                assert (small.u, small.v, small.alpha, small.beta) == (base.u, base.v, base.alpha, base.beta)
                assert small.level_order == base.level_order
