"""Monte-Carlo delivery validation: apportionment, sampling, tallies."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cachecast.channel import sample_states, validate_stats
from cachecast.errors import InfeasibleAllocation, OutOfRange, WrongType
from cachecast.lp_scheme import achievable_rate_lp, check_allocation, message_subsets
from cachecast.simulator import apportion, empirical_ccdf, simulate_delivery

from helpers import MIXED3_RATE, MIXED3_ROWS, MIXED3_SHARES, delivery_allocation, random_stats, span_starts


# --- apportion -------------------------------------------------------------


def test_apportion_largest_remainder():
    assert apportion([1.5, 2.5], 4) == [2, 2]
    assert apportion([0.2, 0.2, 0.6], 1) == [0, 0, 1]
    assert apportion([1.9, 1.9], 3) == [2, 1]
    assert apportion([0.4, -0.3, 2.6], 3) == [0, 0, 3]  # a negative quota floors at 0


def test_apportion_trims_overshoot():
    assert apportion([3.0, 2.0], 4) == [2, 2]
    assert apportion([2.2, 3.9, 1.5], 4) == [1, 3, 0]


def test_apportion_spreads_zero_quotas():
    assert apportion([0.0, 0.0], 2) == [1, 1]
    assert apportion([0.1, 0.1], 5) == [3, 2]  # several passes over the order


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
    levels = sample_states(validate_stats([[1.0, 1.0]]), num_uses=30, seed=9)
    hat, se = empirical_ccdf(levels, 2)
    np.testing.assert_array_equal(hat, [[1.0, 1.0]])
    np.testing.assert_array_equal(se, [[0.0, 0.0]])


def test_empirical_ccdf_concentrates():
    stats = validate_stats([[0.6, 0.3]])
    levels = sample_states(stats, num_uses=100_000, seed=2024)
    hat, se = empirical_ccdf(levels, 2)
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
        drawn = sample_states(stats, num_uses, seed)
        expected = np.empty((users, num_uses), dtype=np.uint8)
        for k, u in enumerate(draws):
            expected[k] = np.sum(u[:, None] < stats.ccdf[k][None, :], axis=1)
        assert drawn.dtype == np.uint8
        assert drawn.tobytes() == expected.tobytes()

        hat, se = empirical_ccdf(drawn, levels)
        steps = np.arange(1, levels + 1)
        expected_hat = (drawn[:, :, None] >= steps[None, None, :]).mean(axis=1)
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
    # saturated channels deliver exactly the apportioned span lengths; at
    # t = 0 subset j is user j + 1 alone
    assert report.delivered.tolist() == [[6 + 18], [9 + 1]]
    assert report.std_error[0, 0] == 0.0
    assert abs(report.empirical_margin[0, 0] - report.analytic_margin[0, 0]) <= 1e-12
    assert report.user_decodable.tolist() == [True, True]


def test_simulation_boundary_rate_still_decodes():
    stats = validate_stats([[1.0]])
    alloc = delivery_allocation([[1.0]], 1.0, num_users=1, t=0)
    report = simulate_delivery(stats, alloc, num_uses=100, seed=3)
    assert report.delivered.tolist() == [[100]]
    assert report.required == 100
    assert report.decodable.tolist() == [[True]]


def test_simulation_reproducible(mixed3, reference_alloc):
    a = simulate_delivery(mixed3, reference_alloc, num_uses=2000, seed=77)
    b = simulate_delivery(mixed3, reference_alloc, num_uses=2000, seed=77)
    assert a.delivered.tolist() == b.delivered.tolist()
    np.testing.assert_array_equal(a.empirical_ccdf, b.empirical_ccdf)
    c = simulate_delivery(mixed3, reference_alloc, num_uses=2000, seed=78)
    assert a.delivered.tolist() != c.delivered.tolist()


def test_simulation_single_use(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=1, seed=5)
    assert report.num_uses == 1
    for delivered in report.delivered.ravel().tolist():
        assert delivered in (0, 1)


def test_simulation_margins_concentrate(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=100_000, seed=11)
    for gap, std_error in zip(np.abs(report.empirical_margin - report.analytic_margin).flat, report.std_error.flat):
        assert gap <= 4.0 * max(std_error, 1e-12), (gap, std_error)


def test_simulation_user_flag_mirrors_messages(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=5000, seed=21)
    members = reference_alloc.subsets
    for k in (1, 2, 3):
        expected = all(report.decodable[members == k].tolist())
        assert report.user_decodable[k - 1] == expected


def test_simulation_zero_margin_message_is_a_coin_flip(mixed3, reference_alloc):
    # message {1,2} read by user 2 has zero analytic slack, so finite-sample
    # noise should land it on either side of the threshold regularly
    wins = 0
    for seed in range(50):
        report = simulate_delivery(mixed3, reference_alloc, num_uses=20_000, seed=seed)
        assert reference_alloc.subsets[0].tolist() == [1, 2]  # user 2 is its member 1
        assert abs(report.analytic_margin[0, 1]) <= 1e-12
        wins += bool(report.decodable[0, 1])
    assert 10 <= wins <= 40


@pytest.mark.parametrize("users", [3, 4, 5, 6])
def test_tallies_are_arrays_in_the_allocation_layout(users):
    # Every per-message tally is one array in check_allocation's (subset,
    # member) layout of alloc.subsets, at t = 0 (one member per
    # subset), t = K - 1 (one subset) and a t between, on seeded
    # allocations: analytic_margin is check_allocation's margins to the
    # byte, and the flags and margins follow from the counts.
    rng = np.random.default_rng([4600, users])
    for t in sorted({0, int(rng.integers(1, users - 1)), users - 1}):
        stats, alloc = random_allocation(rng, users, int(rng.integers(1, 5)), t)
        checked = check_allocation(stats, alloc)
        members = alloc.subsets
        shape = (math.comb(users, t + 1), t + 1)
        for num_uses, seed in ((1, 0), (3001, int(rng.integers(0, 2**31)))):
            report = simulate_delivery(stats, alloc, num_uses, seed)
            for name in ("delivered", "empirical_margin", "analytic_margin", "std_error", "decodable"):
                assert getattr(report, name).shape == shape, name
            assert report.delivered.dtype == np.int64 and report.decodable.dtype == bool
            assert report.analytic_margin.tobytes() == checked.margins.tobytes()
            assert type(report.required) is int
            assert report.required == math.ceil(num_uses * checked.required - 1e-9)
            np.testing.assert_array_equal(report.decodable, report.delivered >= report.required)
            assert report.empirical_margin.tobytes() == (report.delivered / num_uses - checked.required).tobytes()
            assert report.user_decodable.shape == (users,) and report.user_decodable.dtype == bool
            for k in range(1, users + 1):
                assert report.user_decodable[k - 1] == report.decodable[members == k].all()


def test_simulation_report_metadata(mixed3, reference_alloc):
    report = simulate_delivery(mixed3, reference_alloc, num_uses=500, seed=2)
    assert (report.seed, report.num_uses, report.t) == (2, 500, 1)
    assert report.rate == MIXED3_RATE
    assert report.empirical_ccdf.shape == (3, 3)
    assert report.delivered.shape == (3, 2)


def test_tally_matches_per_slice_sums(mixed3):
    # Zero shares give empty spans, and shares scaled by 0.8 leave an idle
    # tail on every level; each count must equal the plain sum over its span
    # of the levels that keep_levels keeps.
    shares = 0.8 * np.asarray(MIXED3_SHARES)
    alloc = delivery_allocation(shares, 0.8 * MIXED3_RATE, num_users=3, t=1)
    report = simulate_delivery(mixed3, alloc, num_uses=997, seed=19)
    assert report.levels is None  # no levels were kept
    levels = simulate_delivery(mixed3, alloc, 997, 19, keep_levels=True).levels.astype(np.int64)
    expected = np.zeros(alloc.subsets.shape, dtype=np.int64)
    for l in range(mixed3.num_levels):
        quotas = [997 * float(x) for x in shares[l]] + [max(0.0, 997 * (1.0 - shares[l].sum()))]
        spans = apportion(quotas, 997)
        assert 0 in spans[:-1] and spans[-1] > 0
        bounds = np.cumsum([0] + spans)
        for j, s in enumerate(alloc.subsets.tolist()):
            for i, k in enumerate(s):
                expected[j, i] += int((levels[k - 1, bounds[j] : bounds[j + 1]] >= l + 1).sum())
    assert report.delivered.tolist() == expected.tolist()


def per_slice_report(stats, alloc, levels):
    """delivered, std_error, in the (subset, member) layout of
    alloc.subsets, and the empirical CCDF, by the plain per-span formulas
    on the K x n levels.

    The variance is brute force, use by use: the set of levels whose span
    holds the use, and the variance of how many of them the use's level L
    reaches, from L's distribution P(L = v) = ccdf[v-1] - ccdf[v].
    """
    levels = levels.astype(np.int64)
    num_uses = levels.shape[1]
    B = stats.num_levels
    subsets = alloc.subsets.tolist()
    delivered = np.zeros(alloc.subsets.shape, dtype=np.int64)
    held = {}  # held[j, i]: per use, a bit per level whose span of subset j holds it
    for l in range(B):
        shares = alloc.shares[l]
        quotas = [num_uses * float(x) for x in shares] + [max(0.0, num_uses * (1.0 - shares.sum()))]
        spans = apportion(quotas, num_uses)
        bounds = np.cumsum([0] + spans)
        for j, s in enumerate(subsets):
            for i, k in enumerate(s):
                delivered[j, i] += int((levels[k - 1, bounds[j] : bounds[j + 1]] >= l + 1).sum())
                held.setdefault((j, i), np.zeros(num_uses, dtype=np.int64))[bounds[j] : bounds[j + 1]] |= 1 << l
    std_error = np.zeros(alloc.subsets.shape)
    for (j, i), bits in held.items():
        k = subsets[j][i]
        ccdf = np.concatenate([[1.0], stats.ccdf[k - 1], [0.0]])
        law = ccdf[:-1] - ccdf[1:]  # P(L = v), v = 0..B
        variance = 0.0
        for mask, uses in zip(*np.unique(bits, return_counts=True)):
            given = [l for l in range(B) if mask >> l & 1]
            reached = np.array([sum(v >= l + 1 for l in given) for v in range(B + 1)])
            mean = law @ reached
            variance += int(uses) * float(law @ (reached - mean) ** 2)
        std_error[j, i] = math.sqrt(variance) / num_uses
    steps = np.arange(1, B + 1)
    hat = (levels[:, :, None] >= steps[None, None, :]).mean(axis=1)
    return delivered, std_error, hat


def random_allocation(rng, users, levels, t):
    """Random CCDF rows and a feasible allocation at 0.999 of its supply,
    with zero shares, full levels and (on a coin flip) an idle tail."""
    stats = random_stats(rng, users, levels)
    subsets = message_subsets(users, t)
    shares = rng.random((levels, len(subsets)))
    shares[rng.random(shares.shape) < 0.3] = 0.0
    shares /= np.maximum(shares.sum(axis=1, keepdims=True), 1.0)
    if rng.random() < 0.5:  # leave an idle tail on every level
        shares *= rng.uniform(0.5, 0.99)
    supply = min(float(stats.ccdf[k - 1] @ shares[:, j]) for j, s in enumerate(subsets) for k in s)
    return stats, delivery_allocation(shares, 0.999 * math.comb(users, t) * supply, users, t)


def test_streamed_tally_matches_per_slice_formulas():
    # Over random K, B, shares (zero shares, full levels and idle tails),
    # seeds and n, the report drawn from piece counts must equal the
    # per-span formulas on the levels keep_levels keeps, to the byte, and
    # the per-use variance to 1e-12 relative.
    rng = np.random.default_rng(1807)
    for trial in range(24):
        users, levels = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        stats, alloc = random_allocation(rng, users, levels, int(rng.integers(0, users)))
        num_uses = int(rng.integers(1, 1 << 16)) if trial % 2 else int(rng.integers(1, 3 << 16))
        seed = int(rng.integers(0, 2**31))

        assert_matches_per_slice_and_kept(stats, alloc, num_uses, seed)


def assert_matches_per_slice_and_kept(stats, alloc, num_uses, seed):
    """The report equals per_slice_report on the levels the keep_levels
    report keeps (the per-use variance to 1e-12 relative), and the
    keep_levels report equals it to the byte."""
    report = simulate_delivery(stats, alloc, num_uses, seed)
    kept = simulate_delivery(stats, alloc, num_uses, seed, keep_levels=True)
    assert_same_tallies(kept, report)
    assert (kept.num_uses, kept.seed) == (num_uses, seed)
    levels = kept.levels
    assert levels.shape == (stats.num_users, num_uses)
    assert levels.dtype == np.uint8 and not levels.flags.writeable

    delivered, std_error, hat = per_slice_report(stats, alloc, levels)
    assert report.delivered.tolist() == delivered.tolist()
    assert report.std_error.ravel().tolist() == pytest.approx(std_error.ravel().tolist(), rel=1e-12, abs=1e-15)
    assert report.empirical_ccdf.tobytes() == hat.tobytes()


TALLIES = (
    "required", "delivered", "empirical_margin", "analytic_margin", "std_error", "decodable",
    "user_decodable", "empirical_ccdf", "ccdf_std_error",
)


def assert_same_tallies(kept, plain):
    """Every tally of the two reports is equal, arrays byte for byte, with their dtypes and shapes."""
    for name in TALLIES:
        a, b = np.asarray(getattr(kept, name)), np.asarray(getattr(plain, name))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


# Piece edges: the spans of a user's subsets on all levels cut its uses
# into pieces, one multinomial draw each.  The layouts are drawn in a unit
# of b uses (64, or 2**16 for None, the size of the sampler's blocks when
# it drew uses one at a time): boundaries shared by several levels, pieces
# of one use, empty spans (a boundary twice), n of a unit and one use
# either side of it, and CCDF rows at 0 and 1.
# name: (CCDF rows, t, shares per level (or of the unit b), n of b, what the spans must hold)
BLOCK_EDGES = {
    "span boundary on a block multiple": (
        [[0.8, 0.5], [0.7, 0.6]], 0, [[0.25, 0.5], [0.5, 0.25]], lambda b: 4 * b,
        lambda starts, b: starts == [[0, b, 3 * b, 4 * b], [0, 2 * b, 3 * b, 4 * b]],
    ),
    "span boundaries one use either side of a block multiple": (
        [[0.8, 0.5], [0.7, 0.6]], 0,
        lambda b: [[(b - 1) / (4 * b), (2 * b + 2) / (4 * b)], [(b + 1) / (4 * b), (b - 1) / (4 * b)]],
        lambda b: 4 * b,
        lambda starts, b: starts == [[0, b - 1, 3 * b + 1, 4 * b], [0, b + 1, 2 * b, 4 * b]],
    ),
    "empty span at a block start": (
        MIXED3_ROWS, 1, [[0.5, 0.0, 0.25], [0.25, 0.25, 0.25], [0.2, 0.3, 0.1]], lambda b: 4 * b,
        lambda starts, b: starts[0][1:3] == [2 * b, 2 * b],
    ),
    "n one block": (MIXED3_ROWS, 1, MIXED3_SHARES, lambda b: b, lambda starts, b: True),
    "n one block less one use": (MIXED3_ROWS, 1, MIXED3_SHARES, lambda b: b - 1, lambda starts, b: True),
    "n one block and one use": (MIXED3_ROWS, 1, MIXED3_SHARES, lambda b: b + 1, lambda starts, b: True),
    "levels at 1.0 and 0.0": (
        [[1.0, 0.5, 0.0], [1.0, 1.0, 0.3], [0.6, 0.0, 0.0]], 1,
        [[0.3, 0.3, 0.3], [0.2, 0.4, 0.1], [0.5, 0.2, 0.2]], lambda b: 2 * b + 5, lambda starts, b: True,
    ),
    "one use": (MIXED3_ROWS, 1, MIXED3_SHARES, lambda b: 1, lambda starts, b: starts[0][-1] == 1),
    "every level cut at the same uses": (
        MIXED3_ROWS, 1, [[0.25, 0.25, 0.5]] * 3, lambda b: 4 * b,
        lambda starts, b: starts == [[0, b, 2 * b, 4 * b, 4 * b]] * 3,
    ),
    "pieces of one use": (
        [[0.8, 0.5], [0.7, 0.6]], 0,
        lambda b: [[(b - 1) / (2 * b), 2 / (2 * b)], [b / (2 * b), 1 / (2 * b)]],
        lambda b: 2 * b,
        lambda starts, b: starts == [[0, b - 1, b + 1, 2 * b], [0, b, b + 1, 2 * b]],
    ),
}


@pytest.mark.parametrize("block", [64, None])
@pytest.mark.parametrize("case", list(BLOCK_EDGES))
def test_tally_at_block_edges(case, block):
    # At every piece edge the report must give the per-span formulas on
    # the kept levels, and the kept levels' report to the byte.
    unit = 1 << 16 if block is None else block
    rows, t, shares, uses, edge = BLOCK_EDGES[case]
    stats = validate_stats(rows)
    users = stats.num_users
    subsets = message_subsets(users, t)
    shares = np.asarray(shares(unit) if callable(shares) else shares)
    supply = min(float(stats.ccdf[k - 1] @ shares[:, j]) for j, s in enumerate(subsets) for k in s)
    alloc = delivery_allocation(shares, 0.999 * math.comb(users, t) * supply, users, t)
    num_uses = uses(unit)
    assert edge(span_starts(alloc, num_uses), unit)
    assert_matches_per_slice_and_kept(stats, alloc, num_uses, seed=len(case))


def test_keep_levels_changes_no_tally():
    # The levels are written and shuffled after each user's multinomial
    # draw, so keeping them changes no count: the messages, the empirical
    # CCDF and its standard errors are byte-equal with and without them.
    rng = np.random.default_rng(4242)
    for _ in range(30):
        users, levels = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        stats, alloc = random_allocation(rng, users, levels, int(rng.integers(0, users)))
        num_uses, seed = int(rng.integers(1, 5000)), int(rng.integers(0, 2**31))
        plain = simulate_delivery(stats, alloc, num_uses, seed)
        kept = simulate_delivery(stats, alloc, num_uses, seed, keep_levels=True)
        assert_same_tallies(kept, plain)
        assert plain.levels is None
        hat, se = empirical_ccdf(kept.levels, levels)
        assert hat.tobytes() == plain.empirical_ccdf.tobytes() and se.tobytes() == plain.ccdf_std_error.tobytes()


def test_piece_counts_are_one_multinomial_draw_per_user():
    # Each user's generator is its child of SeedSequence(seed), in user
    # order, and makes one multinomial draw over the user's pieces, with
    # P(L = 0..B); a piece's hits on level l are its counts at l and above.
    stats = validate_stats([[0.9, 0.4], [0.6, 0.5]])
    alloc = delivery_allocation([[0.25, 0.5], [0.5, 0.25]], 0.3, num_users=2, t=0)
    num_uses, seed = 400, 77
    starts = span_starts(alloc, num_uses)
    assert starts == [[0, 100, 300, 400], [0, 200, 300, 400]]
    report = simulate_delivery(stats, alloc, num_uses, seed)
    children = np.random.SeedSequence(seed).spawn(2)
    cuts = {1: [0, 100, 200, 400], 2: [0, 100, 200, 300, 400]}  # the ends of each user's spans, with 0 and n
    spans = {1: [(0, 100), (0, 200)], 2: [(100, 300), (200, 300)]}  # (level 1, level 2) of each user's subset
    for k, child in zip((1, 2), children):
        law = np.array([1.0 - stats.ccdf[k - 1, 0], stats.ccdf[k - 1, 0] - stats.ccdf[k - 1, 1], stats.ccdf[k - 1, 1]])
        drawn = np.random.default_rng(child).multinomial(np.diff(cuts[k]), law / law.sum())
        hits = {a: (row[1] + row[2], row[2]) for a, row in zip(cuts[k], drawn.tolist())}
        expected = sum(hits[a][l] for l, (lo, hi) in enumerate(spans[k]) for a in cuts[k][:-1] if lo <= a < hi)
        assert report.delivered[k - 1, 0] == expected  # at t = 0, user k's one message
        ccdf_counts = [sum(h[l] for h in hits.values()) for l in range(2)]
        assert report.empirical_ccdf[k - 1].tolist() == [c / num_uses for c in ccdf_counts]


@pytest.mark.parametrize("shares", [[[1.0], [1.0]], [[0.5], [1.0]]], ids=["one piece", "two pieces"])
def test_two_uses_follow_the_exact_law(shares):
    # K = 1, B = 2, n = 2: the kept levels (L[0], L[1]) of 2000 seeds must
    # follow the product law P(L = a) P(L = b) over all 9 pairs, by a
    # chi-square test on 8 degrees of freedom at the 0.1% level (26.12).
    # Both uses lie in one piece, where the shuffle orders them, or each
    # in a piece of its own.
    stats = validate_stats([[0.7, 0.3]])
    alloc = delivery_allocation(shares, 0.5, num_users=1, t=0)
    law = np.array([0.3, 0.4, 0.3])
    tally = np.zeros((3, 3))
    for seed in range(2000):
        first, second = simulate_delivery(stats, alloc, 2, seed, keep_levels=True).levels[0].tolist()
        tally[first, second] += 1
    expected = 2000 * np.outer(law, law)
    assert ((tally - expected) ** 2 / expected).sum() < 26.12, tally


@pytest.mark.parametrize("length", [0, 1, 2, 1000, 20000])
def test_an_intp_shuffle_makes_the_uint8_arrangement(length):
    # keep_levels shuffles each piece as intp items, where numpy's
    # Generator.shuffle has its fast path, and copies it into the uint8
    # row.  The kept levels are pinned (SIMULATE_DIGESTS, tests/test_cli.py)
    # on the draws of an in-place uint8 shuffle, so both item sizes must
    # give the same arrangement and leave the generator in the same state,
    # also after earlier draws; a numpy whose shuffle draws by item size
    # fails here.
    for seed in range(12):
        counts = np.random.default_rng([seed, length]).multinomial(length, [0.1, 0.2, 0.3, 0.4])
        values = np.repeat(np.arange(4), counts)  # sorted, as np.repeat builds a piece
        wide, narrow = values.astype(np.intp), values.astype(np.uint8)
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (fast, slow):
            rng.multinomial(5, [0.5, 0.5], size=seed)
        fast.shuffle(wide)
        slow.shuffle(narrow)
        assert wide.astype(np.uint8).tobytes() == narrow.tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state


def test_kept_levels_are_shuffled_piece_by_piece():
    # K = 6, B = 5 at t = 2: keep_levels shuffles each piece in an intp
    # buffer of its own, so the peak above the K x n uint8 levels stays
    # within 8 bytes a use of the longest piece plus 64 KiB, where one
    # intp copy of a user's row would take 8 bytes a use of all n.
    stats = random_stats(np.random.default_rng(4203), 6, 5)
    alloc = achievable_rate_lp(stats, Fraction(2, 6))
    simulate_delivery(stats, alloc, 1000, seed=1, keep_levels=True)
    for num_uses in (10**5, 10**6):
        starts = span_starts(alloc, num_uses)
        longest = 0
        for k in range(1, 7):
            mine = [j for j, s in enumerate(alloc.subsets) if k in s]
            cuts = sorted({0, num_uses, *(starts[l][j + e] for l in range(5) for j in mine for e in (0, 1))})
            longest = max(longest, *(b - a for a, b in zip(cuts, cuts[1:])))
        assert 8 * longest + (1 << 16) < 8 * num_uses
        tracemalloc.start()
        try:
            report = simulate_delivery(stats, alloc, num_uses, seed=5, keep_levels=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - report.levels.nbytes <= 8 * longest + (1 << 16), (num_uses, peak, longest)


def test_zero_one_rows_are_deterministic_at_a_trillion_uses():
    # Rows of 0s and 1s put all of a user's mass on one level count, so
    # every piece's counts, and so every tally, are the same at any seed,
    # at n = 10^12 as at any n: each message collects its spans on the
    # levels its user reaches, and the empirical CCDF is the rows.
    rows = [[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    stats = validate_stats(rows)
    alloc = delivery_allocation([[0.25, 0.25, 0.5], [0.5, 0.25, 0.25], [0.3, 0.3, 0.3]], 0.3, num_users=3, t=1)
    num_uses = 10**12
    starts = span_starts(alloc, num_uses)
    reached = {1: 2, 2: 1, 3: 3}
    expected = [
        [sum(starts[l][j + 1] - starts[l][j] for l in range(reached[k])) for k in s]
        for j, s in enumerate(alloc.subsets.tolist())
    ]
    for seed in (0, 1, 2**40):
        report = simulate_delivery(stats, alloc, num_uses, seed)
        assert report.delivered.tolist() == expected
        assert not report.std_error.any()
        assert report.empirical_ccdf.tolist() == rows
        assert report.ccdf_std_error.tolist() == [[0.0] * 3] * 3


def test_streamed_simulation_memory_does_not_grow_with_users():
    # K = 8: the K x n levels would take 8 bytes per use.  Without
    # keep_levels the draws are piece counts, so memory holds no array of
    # n entries: the peak stays under 64 KiB at n = 2**16, 2**20 and 2**40.
    users = 8
    stats = validate_stats([[0.9, 0.6, 0.2]] * users)
    subsets = message_subsets(users, 1)
    shares = np.full((3, len(subsets)), 1.0 / len(subsets))
    alloc = delivery_allocation(shares, 0.4, users, 1)
    simulate_delivery(stats, alloc, 100, seed=1)
    peaks = {}
    for num_uses in (1 << 16, 1 << 20, 1 << 40):
        tracemalloc.start()
        try:
            report = simulate_delivery(stats, alloc, num_uses, seed=2)
            peaks[num_uses] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.levels is None
    assert all(peak < 1 << 16 for peak in peaks.values()), peaks


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
    reports = [simulate_delivery(mixed3, alloc, num_uses, seed) for seed in range(300)]
    delivered = np.array([report.delivered for report in reports])  # (seeds, subsets, members)
    std_errors = np.array([report.std_error for report in reports])
    # The mean of each (subset j, member i): sum_l spans[l][j] * ccdf[k-1, l] for its user k.
    mean = np.array([
        [sum(spans[l][j] * float(mixed3.ccdf[k - 1, l]) for l in range(alloc.num_levels)) for k in s]
        for j, s in enumerate(alloc.subsets.tolist())
    ])
    spreads = ((delivered - mean) / num_uses / std_errors).std(axis=0)
    assert ((0.85 <= spreads) & (spreads <= 1.15)).all(), spreads
