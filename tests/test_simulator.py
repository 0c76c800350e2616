"""Monte-Carlo delivery validation: apportionment, sampling, tallies."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cachecast.channel import SAMPLE_BLOCK, sample_states, validate_stats
from cachecast.errors import InfeasibleAllocation, OutOfRange, WrongType
from cachecast.lp_scheme import achievable_rate_lp, message_subsets
from cachecast.simulator import apportion, empirical_ccdf, simulate_delivery

from helpers import MIXED3_RATE, MIXED3_ROWS, MIXED3_SHARES, delivery_allocation, random_stats


# --- apportion -------------------------------------------------------------


def test_apportion_largest_remainder():
    assert apportion([1.5, 2.5], 4) == [2, 2]
    assert apportion([0.2, 0.2, 0.6], 1) == [0, 0, 1]
    assert apportion([1.9, 1.9], 3) == [2, 1]


def test_apportion_trims_overshoot():
    assert apportion([3.0, 2.0], 4) == [2, 2]


def test_apportion_spreads_zero_quotas():
    assert apportion([0.0, 0.0], 2) == [1, 1]


def test_apportion_always_sums_to_total():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        quotas = list(rng.uniform(0.0, 10.0, n))
        total = int(rng.integers(0, 30))
        counts = apportion(quotas, total)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)


# --- empirical_ccdf -----------------------------------------------------------


def test_empirical_ccdf_deterministic():
    real = sample_states(validate_stats([[1.0, 1.0]]), num_uses=30, seed=9)
    hat, se = empirical_ccdf(real)
    np.testing.assert_array_equal(hat, [[1.0, 1.0]])
    np.testing.assert_array_equal(se, [[0.0, 0.0]])


def test_empirical_ccdf_concentrates():
    stats = validate_stats([[0.6, 0.3]])
    real = sample_states(stats, num_uses=100_000, seed=2024)
    hat, se = empirical_ccdf(real)
    sigma = np.sqrt(stats.ccdf * (1.0 - stats.ccdf) / 100_000)
    assert np.all(np.abs(hat - stats.ccdf) <= 3.0 * sigma)
    np.testing.assert_allclose(se, sigma, atol=2e-3)


def test_sampling_and_ccdf_match_the_boolean_formulas():
    # sample_states counts by blocks of comparisons and empirical_ccdf by one
    # count per level; both must give the bytes of the plain (n x B) and
    # (K x n x B) formulas.
    rng = np.random.default_rng(31)
    for trial in range(12):
        users, levels = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        num_uses, seed = int(rng.integers(1, 5000)), int(rng.integers(0, 2**31))
        children = np.random.SeedSequence(seed).spawn(users)
        draws = [np.random.default_rng(child).random(num_uses) for child in children]
        grid = np.sort(rng.random((users, levels)), axis=1)[:, ::-1]
        if trial % 3 == 0:
            grid = np.round(grid, 1)  # ties, zeros and ones
        elif trial % 3 == 1:  # entries equal to draws: U == ccdf[l] must not count
            grid = np.array([np.sort(rng.choice(u, levels))[::-1] for u in draws])
        stats = validate_stats(grid)
        real = sample_states(stats, num_uses, seed)
        expected = np.empty((users, num_uses), dtype=np.uint8)
        for k, u in enumerate(draws):
            expected[k] = np.sum(u[:, None] < stats.ccdf[k][None, :], axis=1)
        assert real.levels.dtype == np.uint8
        assert real.levels.tobytes() == expected.tobytes()

        hat, se = empirical_ccdf(real)
        steps = np.arange(1, levels + 1)
        expected_hat = (real.levels[:, :, None] >= steps[None, None, :]).mean(axis=1)
        expected_se = np.sqrt(expected_hat * (1.0 - expected_hat) / num_uses)
        assert hat.shape == expected_hat.shape
        assert hat.tobytes() == expected_hat.tobytes()
        assert se.tobytes() == expected_se.tobytes()


# --- simulate_delivery -----------------------------------------------------------


@pytest.fixture
def reference_alloc():
    return delivery_allocation(MIXED3_SHARES, MIXED3_RATE, num_users=3, t=1)


def test_simulation_rejects_infeasible(mixed3):
    greedy = delivery_allocation(MIXED3_SHARES, 2.0, num_users=3, t=1)
    with pytest.raises(InfeasibleAllocation):
        simulate_delivery(mixed3, greedy, num_uses=100, seed=1)


def test_simulation_names_the_largest_violation(mixed3):
    # At rate 2 each message needs 2/3; user 2 on {1,2} collects 1/2 (helpers).
    greedy = delivery_allocation(MIXED3_SHARES, 2.0, num_users=3, t=1)
    with pytest.raises(InfeasibleAllocation, match=r"\(largest violation 0\.167\)$"):
        simulate_delivery(mixed3, greedy, num_uses=100, seed=1)


@pytest.mark.parametrize("keep_levels", [False, True])
def test_simulation_rejects_a_fractional_count(mixed3, reference_alloc, keep_levels):
    with pytest.raises(WrongType, match=r"^num_uses must be an integer, got 10\.5$"):
        simulate_delivery(mixed3, reference_alloc, num_uses=10.5, seed=1, keep_levels=keep_levels)


@pytest.mark.parametrize("keep_levels", [False, True])
def test_simulation_rejects_bad_length_before_apportioning(mixed3, reference_alloc, keep_levels):
    for num_uses in (0, -5):
        with pytest.raises(OutOfRange):
            simulate_delivery(mixed3, reference_alloc, num_uses, seed=1, keep_levels=keep_levels)


@pytest.mark.parametrize("keep_levels", [False, True])
def test_simulation_rejects_negative_seed(mixed3, reference_alloc, keep_levels):
    with pytest.raises(OutOfRange, match="seed must be nonnegative"):
        simulate_delivery(mixed3, reference_alloc, num_uses=10, seed=-1, keep_levels=keep_levels)


@pytest.mark.parametrize("keep_levels", [False, True])
@pytest.mark.parametrize("seed", [1.5, None])
def test_simulation_rejects_non_integer_seed(mixed3, reference_alloc, keep_levels, seed):
    with pytest.raises(WrongType, match=r"^seed must be an integer, got "):
        simulate_delivery(mixed3, reference_alloc, num_uses=10, seed=seed, keep_levels=keep_levels)


def test_simulation_deterministic_channel_exact_spans():
    stats = validate_stats([[1.0, 1.0], [1.0, 1.0]])
    shares = [[0.3, 0.45], [0.9, 0.05]]
    alloc = delivery_allocation(shares, 0.5, num_users=2, t=0)
    report = simulate_delivery(stats, alloc, num_uses=20, seed=7)
    by_user = {m.user: m for m in report.messages}
    # saturated channels deliver exactly the apportioned span lengths
    assert by_user[1].delivered == 6 + 18
    assert by_user[2].delivered == 9 + 1
    assert by_user[1].std_error == 0.0
    assert abs(by_user[1].empirical_margin - by_user[1].analytic_margin) <= 1e-12
    assert report.user_decodable == (True, True)


def test_simulation_boundary_rate_still_decodes():
    stats = validate_stats([[1.0]])
    alloc = delivery_allocation([[1.0]], 1.0, num_users=1, t=0)
    report = simulate_delivery(stats, alloc, num_uses=100, seed=3)
    (message,) = report.messages
    assert message.delivered == 100
    assert message.required == 100
    assert message.decodable


def test_simulation_reproducible(mixed3, reference_alloc):
    a = simulate_delivery(mixed3, reference_alloc, num_uses=2000, seed=77)
    b = simulate_delivery(mixed3, reference_alloc, num_uses=2000, seed=77)
    assert [m.delivered for m in a.messages] == [m.delivered for m in b.messages]
    np.testing.assert_array_equal(a.empirical_ccdf, b.empirical_ccdf)
    c = simulate_delivery(mixed3, reference_alloc, num_uses=2000, seed=78)
    assert [m.delivered for m in a.messages] != [m.delivered for m in c.messages]


def test_simulation_single_use(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=1, seed=5)
    assert report.num_uses == 1
    for message in report.messages:
        assert message.delivered in (0, 1)


def test_simulation_margins_concentrate(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=100_000, seed=11)
    for message in report.messages:
        gap = abs(message.empirical_margin - message.analytic_margin)
        assert gap <= 4.0 * max(message.std_error, 1e-12), message


def test_simulation_user_flag_mirrors_messages(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=5000, seed=21)
    for k in (1, 2, 3):
        expected = all(m.decodable for m in report.messages if m.user == k)
        assert report.user_decodable[k - 1] == expected


def test_simulation_zero_margin_message_is_a_coin_flip(mixed3, reference_alloc):
    # message {1,2} read by user 2 has zero analytic slack, so finite-sample
    # noise should land it on either side of the threshold regularly
    wins = 0
    for seed in range(50):
        report = simulate_delivery(mixed3, reference_alloc, num_uses=20_000, seed=seed)
        outcome = next(m for m in report.messages if m.user == 2 and m.subset == (1, 2))
        assert abs(outcome.analytic_margin) <= 1e-12
        wins += outcome.decodable
    assert 10 <= wins <= 40


def test_simulation_report_metadata(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=500, seed=2)
    assert (report.seed, report.num_uses, report.t) == (2, 500, 1)
    assert report.rate == MIXED3_RATE
    assert report.empirical_ccdf.shape == (3, 3)
    assert len(report.messages) == 6


def test_tally_matches_per_slice_sums(mixed3):
    # Zero shares give empty spans, and shares scaled by 0.8 leave an idle
    # tail on every level; each count must equal the plain sum over its span.
    shares = 0.8 * np.asarray(MIXED3_SHARES)
    alloc = delivery_allocation(shares, 0.8 * MIXED3_RATE, num_users=3, t=1)
    report = simulate_delivery(mixed3, alloc, num_uses=997, seed=19)
    assert report.realization is None  # the levels were streamed, not kept
    levels = sample_states(mixed3, 997, 19).levels.astype(np.int64)
    expected = {}
    for l in range(mixed3.num_levels):
        quotas = [997 * float(x) for x in shares[l]] + [max(0.0, 997 * (1.0 - shares[l].sum()))]
        spans = apportion(quotas, 997)
        assert 0 in spans[:-1] and spans[-1] > 0
        bounds = np.cumsum([0] + spans)
        for j, s in enumerate(alloc.subsets):
            for k in s:
                got = (levels[k - 1, bounds[j] : bounds[j + 1]] >= l + 1).sum()
                expected[(k, s)] = expected.get((k, s), 0) + int(got)
    assert {(m.user, m.subset): m.delivered for m in report.messages} == expected


def per_slice_report(stats, alloc, num_uses, seed):
    """delivered, std_error per (user, subset) and the empirical CCDF, by the
    plain per-span formulas on the stacked levels of sample_states.

    The variance is brute force, use by use: the set of levels whose span
    holds the use, and the variance of how many of them the use's level L
    reaches, from L's distribution P(L = v) = ccdf[v-1] - ccdf[v].
    """
    levels = sample_states(stats, num_uses, seed).levels.astype(np.int64)
    B = stats.num_levels
    delivered, held = {}, {}  # held[(k, s)]: per use, a bit per level whose span of s holds it
    for l in range(B):
        shares = alloc.shares[l]
        quotas = [num_uses * float(x) for x in shares] + [max(0.0, num_uses * (1.0 - shares.sum()))]
        spans = apportion(quotas, num_uses)
        bounds = np.cumsum([0] + spans)
        for j, s in enumerate(alloc.subsets):
            for k in s:
                got = (levels[k - 1, bounds[j] : bounds[j + 1]] >= l + 1).sum()
                delivered[(k, s)] = delivered.get((k, s), 0) + int(got)
                held.setdefault((k, s), np.zeros(num_uses, dtype=np.int64))[bounds[j] : bounds[j + 1]] |= 1 << l
    std_error = {}
    for (k, s), bits in held.items():
        ccdf = np.concatenate([[1.0], stats.ccdf[k - 1], [0.0]])
        law = ccdf[:-1] - ccdf[1:]  # P(L = v), v = 0..B
        variance = 0.0
        for mask, uses in zip(*np.unique(bits, return_counts=True)):
            given = [l for l in range(B) if mask >> l & 1]
            reached = np.array([sum(v >= l + 1 for l in given) for v in range(B + 1)])
            mean = law @ reached
            variance += int(uses) * float(law @ (reached - mean) ** 2)
        std_error[(k, s)] = math.sqrt(variance) / num_uses
    steps = np.arange(1, B + 1)
    hat = (levels[:, :, None] >= steps[None, None, :]).mean(axis=1)
    return delivered, std_error, hat


def test_streamed_tally_matches_per_slice_formulas():
    # Users are drawn and tallied one at a time; over random K, B, shares
    # (zero shares, full levels and idle tails), seeds and n (below
    # SAMPLE_BLOCK and across it, never a multiple of it) the report must
    # equal the per-span formulas on the stacked levels, to the byte, and
    # the per-use variance to 1e-12 relative.
    rng = np.random.default_rng(1807)
    for trial in range(24):
        users, levels = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        t = int(rng.integers(0, users))
        stats = random_stats(rng, users, levels)
        subsets = message_subsets(users, t)
        shares = rng.random((levels, len(subsets)))
        shares[rng.random(shares.shape) < 0.3] = 0.0
        shares /= np.maximum(shares.sum(axis=1, keepdims=True), 1.0)
        if trial % 3:  # leave an idle tail on every level
            shares *= rng.uniform(0.5, 0.99)
        supply = min(float(stats.ccdf[k - 1] @ shares[:, j]) for j, s in enumerate(subsets) for k in s)
        alloc = delivery_allocation(shares, 0.999 * math.comb(users, t) * supply, users, t)
        num_uses = int(rng.integers(1, SAMPLE_BLOCK)) if trial % 2 else int(rng.integers(1, 3 * SAMPLE_BLOCK))
        if num_uses % SAMPLE_BLOCK == 0:
            num_uses += 1
        seed = int(rng.integers(0, 2**31))

        report = simulate_delivery(stats, alloc, num_uses, seed)
        delivered, std_error, hat = per_slice_report(stats, alloc, num_uses, seed)
        assert {(m.user, m.subset): m.delivered for m in report.messages} == delivered
        for m in report.messages:
            assert m.std_error == pytest.approx(std_error[(m.user, m.subset)], rel=1e-12, abs=1e-15)
        assert report.empirical_ccdf.tobytes() == hat.tobytes()

        kept = simulate_delivery(stats, alloc, num_uses, seed, keep_levels=True)
        assert kept.messages == report.messages
        assert kept.empirical_ccdf.tobytes() == report.empirical_ccdf.tobytes()
        assert kept.ccdf_std_error.tobytes() == report.ccdf_std_error.tobytes()
        assert kept.realization.levels.tobytes() == sample_states(stats, num_uses, seed).levels.tobytes()


def test_streamed_simulation_memory_does_not_grow_with_users():
    # K = 8, n = 2**18: the K x n levels alone would take 8 bytes per use.
    # Streamed, the tally holds one user's levels and one row of comparisons
    # (2 bytes per use) and one block of uniforms.
    users, num_uses = 8, 1 << 18
    stats = validate_stats([[0.9, 0.6, 0.2]] * users)
    subsets = message_subsets(users, 1)
    shares = np.full((3, len(subsets)), 1.0 / len(subsets))
    alloc = delivery_allocation(shares, 0.4, users, 1)
    simulate_delivery(stats, alloc, 100, seed=1)
    tracemalloc.start()
    try:
        report = simulate_delivery(stats, alloc, num_uses, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * num_uses, f"{peak / num_uses:.2f} bytes per use"
    assert report.realization is None


def test_std_error_matches_the_spread_over_seeds(mixed3):
    # The LP allocation of configs/nondegraded3.json (the mixed3 rows at
    # mu = 1/3) simulated at 300 seeds: for every message, (delivered / n
    # minus its exact mean) over std_error must spread with standard
    # deviation 1, to within 15%.  Summing the per-level variances as if
    # the levels were independent gives 1.38 and 1.48 for users 2 and 3
    # on (2, 3), whose spans on different levels share uses.
    alloc = achievable_rate_lp(mixed3, Fraction(1, 3))
    num_uses = 20_000
    spans = []
    for shares in alloc.shares:
        quotas = [num_uses * float(x) for x in shares] + [max(0.0, num_uses * (1.0 - shares.sum()))]
        spans.append(apportion(quotas, num_uses))
    tallies: dict = {}
    for seed in range(300):
        for m in simulate_delivery(mixed3, alloc, num_uses, seed).messages:
            tallies.setdefault((m.user, m.subset), []).append((m.delivered, m.std_error))
    spreads = {}
    for (k, s), pairs in tallies.items():
        j = alloc.subsets.index(s)
        mean = sum(spans[l][j] * float(mixed3.ccdf[k - 1, l]) for l in range(alloc.num_levels))
        spreads[(k, s)] = float(np.std([(delivered - mean) / num_uses / se for delivered, se in pairs]))
    assert all(0.85 <= spread <= 1.15 for spread in spreads.values()), spreads
