"""Weighted ceiling: direct evaluation, per-ordering LP, global minimum."""

import math
import warnings
from collections.abc import Sequence
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import lp, upper_bound
from cachecast.caching import caching_tuple, central_strategy, central_tuple, strategy_from_intervals
from cachecast.channel import validate_stats
from cachecast.degraded import degraded_optimal_rate
from cachecast.errors import LengthMismatch, OutOfRange, TooManyUsers, UnexpectedLpStatus, WrongType, ZeroDenominator
from cachecast.lp import FEAS_TOL, OPTIMAL, UNBOUNDED, solve_lp, solve_lps
from cachecast.upper_bound import STACK_ENTRIES, build_permutation_lp, objective_at, stack_size, upper_bound_rate

from helpers import (
    MIXED3_BEST_PI,
    MIXED3_BOUND,
    MIXED3_OMEGA,
    MIXED3_TABLE,
    ROADMAP_ITEM1_BOUND,
    ROADMAP_ITEM1_ROWS,
    ZeroWeightWarning,
    check_enhancement_invariants,
    drop_zero_lines,
    enhance,
    ordering_value,
    permutation_lp_reference,
    pivoted_vertex,
    random_stats,
    solve_from_pivoted_vertex,
    sorted_uniform_ccdf,
    table_rows,
    tiny_gap_placement,
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
    # One row of K numbers: a column or a (1, K) row is refused, not read
    # by its size.
    for weights in ([[1.0], [2.0], [3.0]], [[1.0, 2.0, 3.0]]):
        with pytest.raises(LengthMismatch, match=r"^need one row of 3 weights, got shape \((3, 1|1, 3)\)$"):
            objective_at(mixed3, tup3, weights)


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
    assert c.size == 5  # w_1, w_2, theta_1..3
    np.testing.assert_array_equal(a_ub[0], [0.9, 0.0, -1.0, 0.0, 0.0])
    np.testing.assert_array_equal(a_ub[3], [0.0, 0.4, 0.0, -1.0, 0.0])  # user 2, level 2
    np.testing.assert_array_equal(b_ub, [0.0] * 6 + [1.0])
    # maximize gap_1 w_1 + gap_2 w_2: the gaps are in the cost row only,
    # unscaled since 1/2 <= gap_1 < 1
    np.testing.assert_array_equal(c, [-2.0 / 3.0, -1.0 / 3.0, 0, 0, 0])


def test_lp_ordering_rows(mixed3, tup3):
    _, a_ub, _ = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    np.testing.assert_array_equal(a_ub[5], [-1.0, 1.0, 0.0, 0.0, 0.0])  # w_2 <= w_1
    # the chain row into the fixed w_3 is left out with it
    np.testing.assert_array_equal(a_ub[6], [0.0, 0.0, 1.0, 1.0, 1.0])  # sum theta <= 1


def test_lp_pins_fully_covered_prefixes(mixed3, tup3):
    # {1, 2, 3} has coverage 1, so w_3 has cost 0 and only tightens its 3
    # decode rows and the chain row into it: it is fixed at 0, and in the
    # full-shape LP its column, cost and those rows are zero.  The
    # live-prefix LP leaves all of them out, and w_1 and w_2 keep their
    # entries but for the implied decode row (2, 1).
    reference_c, reference_a_ub, _ = permutation_lp_reference(mixed3, tup3, (1, 2, 3))
    np.testing.assert_array_equal(reference_a_ub[:, 2], np.zeros(12))
    assert reference_c[2] == 0.0
    assert not reference_a_ub[[6, 7, 8, 10]].any()
    c, a_ub, _ = build_permutation_lp(mixed3, tup3, (1, 2, 3))
    assert a_ub.shape == (7, 5)
    assert np.count_nonzero(a_ub[:, :2], axis=0).tolist() == [4, 3]  # 3 and 2 decode rows + 1 ordering row
    np.testing.assert_array_equal(c[:2], [-2.0 / 3.0, -1.0 / 3.0])
    assert np.all(a_ub.any(axis=1)) and np.all(a_ub.any(axis=0))  # no zero row or column left
    assert set(np.unique(a_ub[:, 2:])) == {-1.0, 0.0, 1.0}  # theta's entries: no gap


def test_lp_matches_entrywise_builder():
    # Central placements fix the same weights at 0 in every ordering; the
    # explicit one fixes one, two or three depending on the ordering.  The
    # live-prefix LP is the full-shape reference, implied decode rows
    # zeroed, without its zero rows and columns: its matrix holds CCDF
    # entries and +-1 only, and the gaps are its costs, scaled by the
    # power of two that brings the first into [1/2, 1).
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
            c, a_ub, _ = built
            p = c.size - stats.num_levels
            assert np.isin(a_ub[:, p:], (-1.0, 0.0, 1.0)).all()
            assert np.isin(a_ub[:, :p], [*stats.ccdf.ravel(), -1.0, 0.0, 1.0]).all()
            gaps = [float(1 - tup.of(pi[: k + 1])) for k in range(p)]
            scale = 2.0 ** -math.frexp(gaps[0])[1]
            assert 0.5 <= gaps[0] * scale < 1.0
            np.testing.assert_array_equal(c[:p], [-gap * scale for gap in gaps])


def _coverage_cases():
    """Placements for _live_prefixes: central at K = 3..6 over every t
    (mu = 1 covers the file, coverage exactly 1), central at fractional
    mu, one interval per user at random offsets, and the tiny-gap placement
    whose users 1 and 2 leave 1e-16 of the file uncovered."""
    rng = np.random.default_rng(3434)
    cases = []
    for users in range(3, 7):
        for t in range(users + 1):
            cases.append(pytest.param(central_tuple(users, Fraction(t, users)), id=f"K{users}-t{t}"))
        cases.append(pytest.param(central_tuple(users, Fraction(3, 2 * users)), id=f"K{users}-fractional"))
        size = int(rng.integers(1, 16))
        offsets = rng.integers(0, 16 - size + 1, users).tolist()
        placement = [[(Fraction(a, 16), Fraction(a + size, 16))] for a in offsets]
        intervals = caching_tuple(strategy_from_intervals(placement, Fraction(size, 16)))
        cases.append(pytest.param(intervals, id=f"K{users}-intervals"))
        tiny = caching_tuple(strategy_from_intervals(tiny_gap_placement(users), Fraction(1, 2)))
        cases.append(pytest.param(tiny, id=f"K{users}-tiny-gap"))
    return cases


@pytest.mark.parametrize("tup", _coverage_cases())
def test_live_prefixes_read_the_fraction_path(tup):
    # Each reached mask's gap is float(1 - coverage) to the bit, and each
    # ordering's live count counts its prefixes with coverage != 1, as the
    # Fractions themselves give them; the empty mask, which no ordering
    # reaches, reads 0.
    users = tup.num_users
    stats = random_stats(np.random.default_rng(users), users, 2)
    orderings = np.array(list(permutations(range(1, users + 1))))
    masks, gap_of, live = upper_bound._live_prefixes(stats, tup, orderings)
    expected = np.zeros(1 << users)
    for mask in range(1, 1 << users):
        expected[mask] = float(1 - tup.coverage[mask])
    assert gap_of.tobytes() == expected.tobytes()  # every nonempty mask is some prefix
    covered = np.array([[tup.coverage[mask] == 1 for mask in row] for row in masks.tolist()])
    assert live.tolist() == (~covered).sum(axis=1).tolist()
    if tup.mu == 1:
        assert not live.any() and not gap_of.any()
    if float(1 - tup.of((1, 2))) == 1e-16:
        assert gap_of[3] == 1e-16


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
    # Dropping the fixed weights' zero columns and the zero rows (those of
    # the implied decode rows too) leaves the pivot path unchanged: the same
    # pivots, value and w/theta bytes.
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
    # The chain rows w_k <= w_{k-1} imply every decode row that is not a
    # record.  So the record-row LP's optimum satisfies the LP with every
    # decode row, and the two LPs share their optimum, on grids with tied
    # entries, two equal users and a user that decodes nothing.
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
    with pytest.raises(OutOfRange):
        build_permutation_lp(mixed3, tup3, (1.5, 2, 3))


class CountingCoverage(Sequence):
    """A coverage table that counts the entries read from it."""

    def __init__(self, entries):
        self.entries, self.reads = tuple(entries), 0

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index):
        found = self.entries[index]
        self.reads += len(found) if isinstance(index, slice) else 1
        return found


def test_one_ordering_reads_only_its_prefixes():
    # One ordering needs the coverage of its K leading slices only, not of
    # all 2^K subsets (4096 at K = 12).
    K = 12
    rng = np.random.default_rng(12)
    stats = random_stats(rng, K, 3)
    tup = central_tuple(K, Fraction(5, K))
    counting = CountingCoverage(tup.coverage)
    probe = replace(tup, coverage=counting)
    weights = rng.random(K)
    assert objective_at(stats, probe, weights) == objective_at(stats, tup, weights)
    assert 0 < counting.reads <= K
    pi = tuple(rng.permutation(K) + 1)
    counting.reads = 0
    for built, expected in zip(build_permutation_lp(stats, probe, pi), build_permutation_lp(stats, tup, pi)):
        np.testing.assert_array_equal(built, expected)
    assert 0 < counting.reads <= K


# --- upper_bound_rate -------------------------------------------------------------


@pytest.mark.parametrize("users", range(1, 9))
def test_ordering_array_is_the_permutations_order(users):
    # The bound's LPs, its report and the CLI's tables read the orderings
    # as one (K!, K) array built in numpy, in the order of
    # itertools.permutations: row i must be tuple i, for every K up to the
    # bound's cap.
    every = upper_bound.ordering_array(users)
    assert every.dtype == np.dtype(int) and every.flags.c_contiguous
    assert list(map(tuple, every.tolist())) == list(permutations(range(1, users + 1)))


@pytest.mark.parametrize("users", range(1, 9))
def test_report_holds_the_ordering_array_and_values(users):
    # The report keeps the bound's (K!, K) ordering array and the (K!,)
    # per-ordering values, both read-only; argmin_pi is the first ordering
    # that attains the minimum, as a tuple of Python ints.
    stats = validate_stats(sorted_uniform_ccdf(np.random.default_rng([users, 44]), users, 3))
    report = upper_bound_rate(stats, central_tuple(users, Fraction(1, users)))
    every = upper_bound.ordering_array(users)
    assert (report.orderings.dtype, report.orderings.shape) == (every.dtype, every.shape)
    assert report.orderings.tobytes() == every.tobytes()
    assert not report.orderings.flags.writeable and not report.values.flags.writeable
    assert report.values.dtype == np.float64 and report.values.shape == (math.factorial(users),)
    assert type(report.argmin_pi) is tuple and all(type(k) is int for k in report.argmin_pi)
    first = int(np.flatnonzero(report.values <= report.value + FEAS_TOL)[0])
    assert report.argmin_pi == tuple(every[first].tolist())
    assert report.value == report.values.min()


def test_bound_reference_scenario(mixed3, tup3):
    report = upper_bound_rate(mixed3, tup3)
    assert abs(report.value - MIXED3_BOUND) <= 1e-9
    assert report.argmin_pi == MIXED3_BEST_PI
    assert report.omega_star_unique
    np.testing.assert_allclose(report.omega_star, MIXED3_OMEGA, atol=1e-9)
    assert len(table_rows(report)) == 6
    for pi, value in table_rows(report):
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


def test_bound_is_the_chain_optimum_of_its_enhanced_channel():
    # The paper's converse, executable: enhancing the channel at
    # (argmin_pi, omega_star) makes a dominance chain with the same weighted
    # maxima, and its chain optimum is the bound.  The zero-weight users
    # (a fully covered prefix's, whose gaps are 0) become all-ones rows.
    for users in range(3, 7):
        for t in range(users):
            for levels in range(2, 5):
                stats = validate_stats(sorted_uniform_ccdf(np.random.default_rng([users, t, levels, 29]), users, levels))
                mu = Fraction(t, users)
                report = upper_bound_rate(stats, central_tuple(users, mu))
                pi = np.array(report.argmin_pi)
                weights = np.array(report.omega_star)[pi - 1]
                check_enhancement_invariants(validate_stats(stats.ccdf[pi - 1]), weights)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ZeroWeightWarning)
                    enhanced = enhance(validate_stats(stats.ccdf[pi - 1]), weights)
                rows = np.where((weights > 0.0)[:, None], enhanced.ccdf, 1.0)
                rate = degraded_optimal_rate(validate_stats(rows), mu).rate
                assert abs(rate - report.value) <= 1e-12 * report.value, (users, t, levels)


def test_bound_weights_are_nonnegative(monkeypatch):
    # An optimal LP may end with a weight a rounding below 0, within the
    # certificate's FEAS_TOL: here every LP's w_3 is made -5.6e-17 where
    # it is 0.  omega_star takes it as 0, so objective_at accepts the
    # weights.
    solve = upper_bound._solve_from_vertex

    def rounded(ccdf, kept, gaps):
        outcomes = solve(ccdf, kept, gaps)
        outcomes.x[outcomes.x[:, 2] == 0.0, 2] = -5.6e-17
        return outcomes

    monkeypatch.setattr(upper_bound, "_solve_from_vertex", rounded)
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
    solve = upper_bound._solve_from_vertex

    def unbounded(ccdf, kept, gaps):
        stacks.append(upper_bound._permutation_lps(ccdf, kept, gaps)[1])
        outcomes = solve(ccdf, kept, gaps)
        outcomes.status[:] = [UNBOUNDED] * len(outcomes.status)
        return outcomes

    monkeypatch.setattr(upper_bound, "_solve_from_vertex", unbounded)
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    message = r"^ordering \([\d, ]+\) \(K=6, B=4, mu=1/6\): status unbounded$"
    with pytest.raises(UnexpectedLpStatus, match=message) as raised:
        upper_bound_rate(stats, tup)
    assert len(stacks) == 1
    named = tuple(int(k) for k in str(raised.value).split(")")[0].removeprefix("ordering (").split(", "))
    assert np.array_equal(build_permutation_lp(stats, tup, named)[1], stacks[0][0])


def test_bound_solves_full_stacks(monkeypatch):
    # Each stack upper_bound solves holds one lockstep stack's worth of
    # distinct LPs, sized by its widest LP, so every stack is full but the
    # last: at K = 6, B = 4, mu = 1/6 every ordering has live count 5
    # (9 columns), and the 278 distinct LPs, most record rows first, fill
    # stacks padded to 16 and 9 record rows (+ 5 chain and budget rows):
    # 278 = 204 + 74.
    shapes = _recording_shapes(monkeypatch)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    upper_bound_rate(validate_stats(ROADMAP_ITEM1_ROWS), tup)
    assert shapes == ROADMAP_ITEM1_STACKS[1]
    assert [stack_size(m, n) for _, m, n in shapes] == [204, 307]
    assert all(size * m * (n + 1) <= STACK_ENTRIES for size, m, n in shapes)


def _recording_shapes(monkeypatch, pivots=None):
    """Record the shape (L, m, n) of every stack upper_bound solves
    (_solve_from_vertex), read off its outcomes' x (L, n) and duals (L, m),
    and each stack's simplex pivots in the list pivots, if given."""
    shapes = []
    solve = upper_bound._solve_from_vertex

    def recording(ccdf, kept, gaps):
        outcomes = solve(ccdf, kept, gaps)
        shapes.append((len(outcomes), outcomes.dual_ub.shape[1], outcomes.x.shape[1]))
        if pivots is not None:
            pivots.append(int(outcomes.pivots.sum()))
        return outcomes

    monkeypatch.setattr(upper_bound, "_solve_from_vertex", recording)
    return shapes


def _distinct_lps(stats, tup):
    """The distinct LPs, hashed from build_permutation_lp's arrays, of the
    orderings the bound solves an LP for: those with a live user whose
    first user decodes something."""
    found = set()
    for pi in permutations(range(1, stats.num_users + 1)):
        c, a_ub, b_ub = build_permutation_lp(stats, tup, pi)
        if c.size > stats.num_levels and stats.ccdf[pi[0] - 1].any():
            found.add((c.tobytes(), a_ub.shape, a_ub.tobytes(), b_ub.tobytes()))
    return found


# The stacks upper_bound_rate solves on the ROADMAP item 1 grid at mu = t/6.
ROADMAP_ITEM1_STACKS = {
    1: [(204, 21, 9), (74, 14, 9)],
    2: [(178, 19, 8)],
    3: [(78, 15, 7)],
    4: [(25, 10, 6)],
    5: [(6, 5, 5)],
}


@pytest.mark.parametrize("t, lps", [(1, 278), (2, 178), (3, 78), (4, 25), (5, 6)])
def test_bound_solves_each_distinct_lp_once(monkeypatch, t, lps):
    # At mu = t/6 a set of 6 - t + 1 users covers the file, so the 720
    # orderings have 6!/t! live prefixes, p = 6 - t users each: p + 4
    # columns, and rows between the first user's 4 decode rows and all 4p
    # of them, plus p chain and budget rows.  A prefix whose later users
    # hold no record shares its LP with every reordering of them, so fewer
    # LPs are solved than there are prefixes (720, 360, 120, 30, 6): one
    # per distinct LP.
    shapes = _recording_shapes(monkeypatch)
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = central_tuple(6, Fraction(t, 6))
    report = upper_bound_rate(stats, tup)
    p = 6 - t
    assert shapes == ROADMAP_ITEM1_STACKS[t]
    assert all(4 + p <= m <= p * 4 + p and n == p + 4 for _, m, n in shapes)
    assert sum(shape[0] for shape in shapes) == lps == len(_distinct_lps(stats, tup))
    assert len(table_rows(report)) == 720


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
    shapes = _recording_shapes(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert sorted(shapes) == [(2, 9, 6), (3, 5, 5)]
    values = dict(table_rows(report))
    assert values[(1, 2, 3)] != values[(1, 3, 2)]
    assert values[(2, 1, 3)] == values[(2, 3, 1)]


def test_bound_single_user():
    stats = validate_stats([[0.9, 0.6, 0.5]])
    tup = caching_tuple(central_strategy(1, Fraction(1, 4)))
    report = upper_bound_rate(stats, tup)
    assert abs(report.value - 2.0 / 0.75) <= 1e-9
    assert report.argmin_pi == (1,)
    assert report.omega_star == (1.0,)


def _solved_alone(stats, tup, pi):
    """An ordering's LP solved as upper_bound_rate solves it, from its
    equal-weight vertex, as a stack of one."""
    (outcome,) = upper_bound._solve_from_vertex(*upper_bound._prefix(stats, tup, pi))
    return outcome


def _bound_one_ordering_at_a_time(stats, tup, vertex=True):
    """The report's value, argmin, weights, uniqueness and table, from each
    ordering's LP solved alone: from its equal-weight vertex as a stack of
    one (_solved_alone), or from x = 0 by solve_lp where vertex is false.
    An unbounded LP counts as value 0 with w_1 = 1, and it must be
    unbounded exactly where the ordering's first user decodes nothing (the
    rule upper_bound_rate applies without solving); an ordering with no
    live user counts as an infinite value.  An LP whose arrays repeat an
    earlier ordering's takes that solution: a solve's outcome is a function
    of the arrays' bytes."""
    K = stats.num_users
    orderings = list(permutations(range(1, K + 1)))
    values, xs, solutions = [], [], {}
    for pi in orderings:
        c, a_ub, b_ub = build_permutation_lp(stats, tup, pi)
        p = c.size - stats.num_levels
        key = (c.tobytes(), a_ub.shape, a_ub.tobytes(), b_ub.tobytes())
        if not p:
            values.append(math.inf)
            xs.append(np.zeros(K))
            continue
        if key not in solutions:
            solutions[key] = _solved_alone(stats, tup, pi) if vertex else solve_lp(c, a_ub, b_ub)
        solved = solutions[key]
        dead = not stats.ccdf[pi[0] - 1].any()
        assert solved.status == (UNBOUNDED if dead else OPTIMAL)
        if dead:
            values.append(0.0)
            xs.append(np.eye(K)[0])
        else:
            values.append(ordering_value(stats, tup, pi, solved.value))
            xs.append(np.concatenate([solved.x[:p], np.zeros(K - p)]))
    best = min(values)
    hits = [i for i, v in enumerate(values) if v <= best + FEAS_TOL]
    pi, x = orderings[hits[0]], xs[hits[0]]
    omega = np.zeros(K)
    for k in range(K):
        omega[pi[k] - 1] = max(x[k], 0.0)
    if (omega > 0.0).any():
        omega /= omega[omega > 0.0].min()
    unique = len(hits) == 1 and best < math.inf
    return best, pi, tuple(float(w) for w in omega), unique, tuple(zip(orderings, values))


def _report(report):
    return report.value, report.argmin_pi, report.omega_star, report.omega_star_unique, table_rows(report)


def _assert_near_x0_start(report, stats, tup):
    """Every table entry within 1e-12 relative of the ordering's LP solved
    from x = 0 by solve_lp, and the same argmin_pi and uniqueness."""
    _, pi, _, unique, table = _bound_one_ordering_at_a_time(stats, tup, vertex=False)
    assert (report.argmin_pi, report.omega_star_unique) == (pi, unique)
    rows = table_rows(report)
    assert [pi for pi, _ in rows] == [pi for pi, _ in table]
    for (_, value), (_, cold) in zip(rows, table):
        assert value == cold or abs(value - cold) <= 1e-12 * abs(cold)


def test_bound_dead_first_user_is_zero(monkeypatch):
    # User 1 decodes nothing, so an ordering that starts with it bounds the
    # rate by 0: its LP is unbounded (w_1 grows with every theta at 0),
    # and the weights are user 1 alone.
    stats = validate_stats([[0.0, 0.0, 0.0], [0.9, 0.5, 0.2], [0.8, 0.4, 0.1]])
    tup = caching_tuple(central_strategy(3, Fraction(1, 3)))
    report = upper_bound_rate(stats, tup)
    assert report.value == 0.0
    assert report.argmin_pi == (1, 2, 3)
    assert report.omega_star == (1.0, 0.0, 0.0)
    assert not report.omega_star_unique  # (1, 3, 2) is 0 too
    assert [value == 0.0 for _, value in table_rows(report)] == [True, True, False, False, False, False]
    assert solve_lp(*build_permutation_lp(stats, tup, (1, 2, 3))).status == UNBOUNDED

    # The bound settles those orderings without an LP: no stack it solves
    # holds an LP whose first user's decode rows (its first B rows, column
    # w_1) are all zero.  The report is the one the LPs give alone,
    # with the first user or a middle one dead, at mu where every user is
    # live, where some are fully covered, and at mu = 1 where no ordering
    # has a live user (p = 0).
    stacks = []
    solve = upper_bound._solve_from_vertex

    def recording(ccdf, kept, gaps):
        stacks.append(upper_bound._permutation_lps(ccdf, kept, gaps)[1])
        return solve(ccdf, kept, gaps)

    monkeypatch.setattr(upper_bound, "_solve_from_vertex", recording)
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
            assert _report(report) == _bound_one_ordering_at_a_time(stats, central_tuple(users, mu))
            _assert_near_x0_start(report, stats, central_tuple(users, mu))
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
    shapes = _recording_shapes(monkeypatch)
    rng = np.random.default_rng(3)
    for users in range(1, 7):
        stats = random_stats(rng, users, 3)
        report = upper_bound_rate(stats, caching_tuple(central_strategy(users, Fraction(1))))
        assert report.argmin_pi == tuple(range(1, users + 1))
        assert table_rows(report) == tuple((pi, math.inf) for pi in permutations(range(1, users + 1)))
    assert shapes == []


@pytest.mark.parametrize("users", [3, 4, 5])
def test_bound_on_tiny_gaps_matches_highs(users):
    # Users 1 and 2 together leave 1e-16 of the file uncovered.  With the
    # gaps in the cost row only, the bound is finite on every seeded grid
    # and matches HiGHS on each ordering's LP with every decode row.
    tup = caching_tuple(strategy_from_intervals(tiny_gap_placement(users), Fraction(1, 2)))
    assert float(1 - tup.of((1, 2))) == 1e-16
    rng = np.random.default_rng([users, 7])
    grids = [validate_stats(sorted_uniform_ccdf(rng, users, 3)) for _ in range(4)]
    reports = [upper_bound_rate(stats, tup) for stats in grids]
    assert all(math.isfinite(report.value) and report.value > 0.0 for report in reports)
    linprog = pytest.importorskip("scipy.optimize").linprog
    for stats, report in zip(grids, reports):
        values = []
        for pi in permutations(range(1, users + 1)):
            (c, a_ub, b_ub), _ = drop_zero_lines(permutation_lp_reference(stats, tup, pi, every_decode_row=True))
            values.append(ordering_value(stats, tup, pi, linprog(c, a_ub, b_ub, method="highs").fun))
        assert abs(report.value - min(values)) <= 1e-9 * report.value


@pytest.mark.parametrize("exponent", [9, 10, 12])
def test_bound_on_uniformly_tiny_gaps_is_the_optimum(exponent):
    # Every user caches (0, 1 - eps], so every prefix leaves a gap of eps
    # and every cost of every LP is -eps before the cost row is scaled by
    # the power of two that brings its first gap into [1/2, 1).  Unscaled,
    # those costs lie within FEAS_TOL of 0 and each LP stops at its start:
    # 1.05x the optimum at eps = 1e-9, 2x at 1e-10 and 1e-12.  The bound
    # must be the optimum: HiGHS on each ordering's LP with every decode
    # row, and eps times the bound must not depend on eps.
    eps = Fraction(1, 10**exponent)
    stats = validate_stats(sorted_uniform_ccdf(np.random.default_rng(5), 3, 3))
    tup = caching_tuple(strategy_from_intervals([[(Fraction(0), 1 - eps)]] * 3, 1 - eps))
    unit = upper_bound_rate(stats, central_tuple(3, Fraction(0)))  # every gap 1
    report = upper_bound_rate(stats, tup)
    assert abs(report.value * float(eps) - unit.value) <= 1e-12 * unit.value
    assert report.argmin_pi == unit.argmin_pi
    np.testing.assert_allclose(report.omega_star, unit.omega_star, rtol=1e-12)
    linprog = pytest.importorskip("scipy.optimize").linprog
    values = []
    for pi in permutations(range(1, 4)):
        (c, a_ub, b_ub), _ = drop_zero_lines(permutation_lp_reference(stats, tup, pi, every_decode_row=True))
        values.append(ordering_value(stats, tup, pi, linprog(c, a_ub, b_ub, method="highs").fun))
    assert abs(report.value - min(values)) <= 1e-9 * report.value


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
    # the LPs alone, each from its equal-weight vertex, and within 1e-12 of
    # the LPs solved from x = 0.
    stats = random_stats(np.random.default_rng(12), 4, 3)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    placement = [[(0, half)], [(half, 1)], [(0, half)], [(quarter, 3 * quarter)]]
    tup = caching_tuple(strategy_from_intervals(placement, half))
    report = upper_bound_rate(stats, tup)

    orderings = list(permutations(range(1, 5)))
    shapes = {build_permutation_lp(stats, tup, pi)[1].shape for pi in orderings}
    assert sorted(shapes) == [(4, 4), (5, 5), (6, 5), (7, 5), (7, 6), (8, 5), (8, 6), (9, 6), (11, 6)]
    assert all(3 + q <= m <= 4 * q for m, n in shapes for q in [n - 3])  # q = n - 3 live users
    solved = [_solved_alone(stats, tup, pi) for pi in orderings]
    values = [ordering_value(stats, tup, pi, s.value) for pi, s in zip(orderings, solved)]
    assert table_rows(report) == tuple(zip(orderings, values))
    best = min(values)
    argmin = next(i for i, v in enumerate(values) if v <= best + FEAS_TOL)
    pi = orderings[argmin]
    assert report.value == best and report.argmin_pi == pi
    x = solved[argmin].x
    live = x.size - stats.num_levels
    omega = np.zeros(4)
    omega[np.array(pi[:live]) - 1] = x[:live]  # the weights are x itself
    omega /= omega[omega > 0.0].min()
    assert report.omega_star == tuple(float(w) for w in omega)
    _assert_near_x0_start(report, stats, tup)


def test_bound_keeps_lps_of_equal_record_users_apart(monkeypatch):
    # User 1 is above every other user on every level, so behind it no user
    # holds a record: the orderings it leads have the same decode rows, its
    # own.  With one interval per user at unequal offsets, {1, 2} covers
    # half the file and {1, 3} a quarter, so (1, 2, 3, 4) and (1, 3, 2, 4)
    # have the same rows and differ in their gaps, hence in their costs and
    # their values.  They must not share an LP.
    stats = validate_stats([[0.9, 0.8, 0.7], [0.5, 0.4, 0.3], [0.6, 0.3, 0.2], [0.4, 0.2, 0.1]])
    quarter = Fraction(1, 4)
    placement = [[(0, quarter)], [(quarter, 2 * quarter)], [(0, quarter)], [(2 * quarter, 3 * quarter)]]
    tup = caching_tuple(strategy_from_intervals(placement, quarter))
    (c_12, a_12, _), (c_13, a_13, _) = lps = [
        build_permutation_lp(stats, tup, pi) for pi in ((1, 2, 3, 4), (1, 3, 2, 4))
    ]
    assert a_12.shape == (7, 7)  # 3 decode rows, 3 chain rows, the budget row
    np.testing.assert_array_equal(a_12, a_13)
    np.testing.assert_array_equal(c_12[:4], [-0.75, -0.5, -0.5, -0.25])
    np.testing.assert_array_equal(c_13[:4], [-0.75, -0.75, -0.5, -0.25])
    shapes = _recording_shapes(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert sum(shape[0] for shape in shapes) == len(_distinct_lps(stats, tup))
    values = dict(table_rows(report))
    pairs = ((1, 2, 3, 4), (1, 3, 2, 4))
    alone = [ordering_value(stats, tup, pi, _solved_alone(stats, tup, pi).value) for pi in pairs]
    assert [values[(1, 2, 3, 4)], values[(1, 3, 2, 4)]] == alone
    cold = [ordering_value(stats, tup, pi, solve_lp(*problem).value) for pi, problem in zip(pairs, lps)]
    assert alone[0] != alone[1] and cold[0] != cold[1]
    assert table_rows(report) == _bound_one_ordering_at_a_time(stats, tup)[4]
    _assert_near_x0_start(report, stats, tup)


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 4), Fraction(1, 2)])
def test_bound_with_twin_users_matches_each_ordering(monkeypatch, mu):
    # Users 1 and 2 have the same CCDF row, so neither holds a record
    # behind the other.  The report is the one each ordering's LP gives
    # alone, and orderings that swap the twins have the same value.  An LP
    # led by twin 1 and its copy led by twin 2 are the same LP, solved
    # once: the key names each record-bearing user by its first twin, so
    # one LP is solved per distinct LP, fewer than there are distinct
    # (LP, record-bearing users) pairs.
    grid = random_stats(np.random.default_rng(77), 4, 3).ccdf.copy()
    grid[1] = grid[0]
    stats = validate_stats(grid)
    tup = central_tuple(4, mu)
    shapes = _recording_shapes(monkeypatch)
    report = upper_bound_rate(stats, tup)
    solved = sum(shape[0] for shape in shapes)  # before the LPs alone pass the same hook
    assert _report(report) == _bound_one_ordering_at_a_time(stats, tup)
    _assert_near_x0_start(report, stats, tup)
    values = dict(table_rows(report))
    swap = {1: 2, 2: 1, 3: 3, 4: 4}
    assert all(value == values[tuple(swap[k] for k in pi)] for pi, value in values.items())
    keyed = set()
    for pi in permutations(range(1, 5)):
        c, a_ub, _ = build_permutation_lp(stats, tup, pi)
        p = c.size - stats.num_levels
        bearing = tuple(
            pi[k] if k == 0 or (grid[pi[k] - 1] > grid[[j - 1 for j in pi[:k]]].max(axis=0)).any() else 0
            for k in range(p)
        )
        keyed.add((a_ub.shape, a_ub.tobytes(), bearing))
    assert len(keyed) > solved == len(_distinct_lps(stats, tup))


@pytest.mark.parametrize("t, lps, by_user", [(0, 56, 112), (1, 56, 112), (2, 56, 92)])
def test_bound_solves_twins_once(monkeypatch, t, lps, by_user):
    # The ROADMAP item 1 grid with user 2's row set to user 1's: keyed by
    # the users themselves, the bound solved 112, 112 and 92 LPs at
    # mu = 0, 1/6 and 2/6, where build_permutation_lp's arrays hold 56
    # distinct LPs.  Keyed by each user's first twin, it solves those 56,
    # and the report is each ordering's LP solved alone.
    rows = [list(row) for row in ROADMAP_ITEM1_ROWS]
    rows[1] = rows[0]
    stats = validate_stats(rows)
    tup = central_tuple(6, Fraction(t, 6))
    shapes = _recording_shapes(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert sum(shape[0] for shape in shapes) == lps == len(_distinct_lps(stats, tup)) < by_user
    assert _report(report) == _bound_one_ordering_at_a_time(stats, tup)


def _placement_cases():
    rng = np.random.default_rng(2828)
    cases = []
    for users in range(3, 7):
        stats = random_stats(rng, users, int(rng.integers(2, 5)))
        for t in range(users + 1):
            cases.append(pytest.param(stats, central_tuple(users, Fraction(t, users)), id=f"K{users}-t{t}"))
        size = int(rng.integers(1, 9))
        offsets = rng.integers(0, 16 - size + 1, users).tolist()
        placement = [[(Fraction(a, 16), Fraction(a + size, 16))] for a in offsets]
        tup = caching_tuple(strategy_from_intervals(placement, Fraction(size, 16)))
        cases.append(pytest.param(stats, tup, id=f"K{users}-intervals"))
    return cases


@pytest.mark.parametrize("stats, tup", _placement_cases())
def test_bound_solves_each_distinct_lp_as_alone(monkeypatch, stats, tup):
    # Each distinct LP is solved once, in a padded stack, and every
    # ordering takes its value: the report is the one each ordering's LP
    # gives alone from its equal-weight vertex, byte for byte, and within
    # 1e-12 of the LPs solved from x = 0; the LPs solved are exactly the
    # distinct ones among build_permutation_lp's arrays.
    shapes = _recording_shapes(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert sum(shape[0] for shape in shapes) == len(_distinct_lps(stats, tup))
    assert _report(report) == _bound_one_ordering_at_a_time(stats, tup)
    _assert_near_x0_start(report, stats, tup)


# --- the equal-weight vertex ---------------------------------------------------------


def _vertex_cases():
    """Grids at K = 3..7: plain ones at t = 1 and at t = K - 1, where every
    LP has one live user; ones with tied maxima, twin users and a user that
    decodes nothing (_tied_stats), at the middle t and with one interval
    per user at random offsets; and ones whose last level only user 1
    reaches, so that no live user reaches it on a prefix without user 1."""
    rng = np.random.default_rng(3131)
    cases = []
    for users in range(3, 8):
        levels = int(rng.integers(2, 6))
        plain, tied = random_stats(rng, users, levels), _tied_stats(rng, users, levels)
        lone = random_stats(rng, users, levels).ccdf.copy()
        lone[1:, -1] = 0.0
        size = int(rng.integers(1, 9))
        offsets = rng.integers(0, 16 - size + 1, users).tolist()
        placement = [[(Fraction(a, 16), Fraction(a + size, 16))] for a in offsets]
        grids = [
            ("plain-t1", plain, central_tuple(users, Fraction(1, users))),
            ("plain-p1", plain, central_tuple(users, Fraction(users - 1, users))),
            ("tied", tied, central_tuple(users, Fraction(users // 2, users))),
            ("tied-intervals", tied, caching_tuple(strategy_from_intervals(placement, Fraction(size, 16)))),
            ("lone-level", validate_stats(lone), central_tuple(users, Fraction(users // 2, users))),
        ]
        for name, stats, tup in grids if users < 7 else grids[2:3] + grids[4:]:  # K = 7: 5040 orderings
            cases.append(pytest.param(stats, tup, id=f"K{users}-{name}"))
    return cases


def _recording_vertex_stacks(monkeypatch):
    """Record the (ccdf, kept, gaps) of every stack upper_bound solves from its equal-weight vertex."""
    stacks = []
    solve = upper_bound._solve_from_vertex

    def recording(ccdf, kept, gaps):
        stacks.append((ccdf, kept, gaps))
        return solve(ccdf, kept, gaps)

    monkeypatch.setattr(upper_bound, "_solve_from_vertex", recording)
    return stacks


def _start_matches_pivots(ccdf, kept, gaps):
    """A stack's closed-form start (_equal_weight_vertex through
    LpStack.crashed), asserted equal to the B + p pivot-step oracle
    (helpers.pivoted_vertex) byte for byte: the tableau with its rhs and
    cost row, the basis and the nonbasic labels.  Returns the stack and
    its a_ub and b_ub."""
    _, a_ub, b_ub, layout = upper_bound._permutation_lps(ccdf, kept, gaps)
    closed = lp.LpStack.crashed(a_ub, b_ub, *upper_bound._equal_weight_vertex(ccdf, a_ub.shape[1], layout))
    oracle = pivoted_vertex(ccdf, a_ub, b_ub, layout)
    assert closed._tableau.tobytes() == oracle._tableau.tobytes()
    assert closed._basis.tolist() == oracle._basis.tolist()
    assert closed._nonbasic.tolist() == oracle._nonbasic.tolist()
    return closed, a_ub, b_ub


@pytest.mark.parametrize("stats, tup", _vertex_cases())
def test_bound_starts_each_lp_at_its_equal_weight_vertex(monkeypatch, stats, tup):
    # Each stack starts at the vertex w_k = w, theta_l = w max_l,
    # w = 1 / sum_l max_l, written in closed form: its tableau, rhs and
    # labels are byte for byte those the B + p crash pivots reach, the
    # point meets every row with its slacks and fills the budget row, and
    # its weights are exactly equal.  The report is each ordering's LP
    # solved alone from its vertex, byte for byte, and within 1e-12 of the
    # LPs solved from x = 0.  A level that no live user reaches keeps its
    # theta nonbasic at 0, and only there.
    stacks = _recording_vertex_stacks(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert stacks
    unreached = False
    for ccdf, kept, gaps in stacks:
        stack, a_ub, b_ub = _start_matches_pivots(ccdf, kept, gaps)
        size, m, n = a_ub.shape
        p = n - stats.num_levels
        point = np.zeros((size, n + m))
        np.put_along_axis(point, stack._basis, stack._tableau[:, :m, n], axis=1)
        x, slack = point[:, :n], point[:, n:]
        lhs = np.einsum("lmn,ln->lm", a_ub, x) + slack
        np.testing.assert_allclose(lhs, np.broadcast_to(b_ub, (size, m)), rtol=0.0, atol=1e-12)
        assert (slack[:, -1] == 0.0).all()  # the budget row is tight
        assert (x[:, :p] == x[:, :1]).all()
        unreached |= bool((stack._nonbasic[:, p:] == np.arange(p, n)).any())
    assert unreached == (not stats.ccdf[1:, -1].any())  # the lone-level grids
    monkeypatch.undo()
    assert _report(report) == _bound_one_ordering_at_a_time(stats, tup)
    _assert_near_x0_start(report, stats, tup)


def _edge_stack(rows, users):
    """The stack of the live prefixes of CCDF rows (users: one tuple of row
    indices per LP, all of one length p), as upper_bound_rate builds it:
    their rows, record mask and gaps of 1/2, 1/4, ..."""
    ccdf = np.array(rows, dtype=float)
    users = np.array(users)
    prefix = ccdf[users]
    before = np.bitwise_or.accumulate(1 << users, axis=1) ^ (1 << users)
    kept = upper_bound._records(prefix, upper_bound._level_maxima(ccdf), before)
    return prefix, kept, np.tile(np.ldexp(1.0, -np.arange(1, users.shape[1] + 1)), (users.shape[0], 1))


EDGE_ROWS = [
    [0.9, 0.5, 0.2],
    [0.7, 0.6, 0.0],
    [0.8, 0.5, 0.3],
    [1e-310, 0.0, 0.0],
    [0.0, 1e-310, 0.0],
    [0.4, 0.0, 0.0],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
]


@pytest.mark.parametrize(
    "users, slack",
    [
        pytest.param([(0,), (1,), (2,)], 0, id="one-live-user"),
        pytest.param([(0, 1, 2), (2, 1, 0), (1, 0, 2)], 0, id="padded"),
        pytest.param([(1, 0), (3, 4), (6, 3), (6, 7), (5, 1), (6, 2)], 3, id="subnormal-and-zero-maxima"),
        pytest.param([(3, 4)], 1, id="subnormal-alone"),
    ],
)
def test_closed_form_start_is_the_pivoted_one(users, slack):
    # The closed-form start equals the B + p pivot steps byte for byte on
    # the edge cases: LPs with one live user (no chain row); a stack padded
    # with zero rows, its LPs with 5, 5 and 6 record rows; LPs whose maxima
    # sum to a subnormal (w overflows) or to 0, which keep the slack basis
    # and x = 0 and skip the budget step (slack of them), stacked with LPs
    # that take it; and a level whose maximum is 0, whose theta stays
    # nonbasic.  Every LP then solves as its pivoted start does.
    ccdf, kept, gaps = _edge_stack(EDGE_ROWS, users)
    stack, a_ub, _ = _start_matches_pivots(ccdf, kept, gaps)
    m, n = a_ub.shape[1:]
    assert np.count_nonzero((stack._basis == np.arange(n, n + m)).all(axis=1)) == slack
    if len(users[0]) == 3:
        assert kept.sum(axis=(1, 2)).tolist() == [5, 5, 6] and m == 6 + 3
    c = upper_bound._permutation_lps(ccdf, kept, gaps)[0]
    with np.errstate(all="ignore"):
        solved, expected = stack.solve(c), solve_from_pivoted_vertex(ccdf, kept, gaps)
    assert solved.status == expected.status
    for name in ("x", "value", "dual_ub", "pivots"):
        assert getattr(solved, name).tobytes() == getattr(expected, name).tobytes(), name


def test_start_takes_one_pivot_per_stack(monkeypatch):
    # The closed form leaves one crash pivot per stack, the budget step,
    # where the B + p pivot steps took B + p: the ROADMAP item 1 grid at
    # mu = 1/6 solves two stacks (B = 4, p = 6 and 5), so 2 crash pivots
    # instead of 19.  The simplex pivots and the report stay those of the
    # pivoted start.
    calls = {"pivot": 0}
    crash_pivots = []
    pivot, crashed = lp._pivot, lp.LpStack.crashed.__func__

    def counting(*args):
        calls["pivot"] += 1
        return pivot(*args)

    def recording(cls, *args):
        before = calls["pivot"]
        stack = crashed(cls, *args)
        crash_pivots.append(calls["pivot"] - before)
        return stack

    monkeypatch.setattr(lp, "_pivot", counting)
    monkeypatch.setattr(lp.LpStack, "crashed", classmethod(recording))
    stats, tup = validate_stats(ROADMAP_ITEM1_ROWS), central_tuple(6, Fraction(1, 6))
    shapes = _recording_shapes(monkeypatch)
    report = upper_bound_rate(stats, tup)
    assert crash_pivots == [1, 1] and len(shapes) == 2
    monkeypatch.setattr(upper_bound, "_solve_from_vertex", solve_from_pivoted_vertex)
    pivoted = upper_bound_rate(stats, tup)
    assert _report(pivoted) == _report(report)
    assert pivoted.values.tobytes() == report.values.tobytes()
    assert crash_pivots[2:] == [] and calls["pivot"] > 19


def test_vertex_of_tiny_entries(monkeypatch):
    # At mu = 1/2 each ordering keeps one live user, whose LP's optimum is
    # the vertex: value sum_l c_1l / gap_1.  With user 1's entries at
    # 1e-300 or 1e-200 every entry of its LP's column lies below
    # PIVOT_TOL, so from x = 0 the simplex reads a ray and the bound failed
    # ("status unbounded"); from the vertex, which takes no pivot, the value
    # is exact.  Where the entries are subnormal, w = 1 / sum_l max_l
    # overflows: that LP keeps x = 0 and fails as before, with the typed
    # error naming the ordering and no RuntimeWarning.  Each stack's
    # closed-form start is the B + p pivot steps' byte for byte, and their
    # own rhs lies within 1e-12 of it (helpers.pivoted_vertex).
    half = Fraction(1, 2)
    stacks = _recording_vertex_stacks(monkeypatch)
    for tiny in (1e-300, 1e-200):
        stats = validate_stats([[tiny, tiny], [0.5, 0.2]])
        report = upper_bound_rate(stats, central_tuple(2, half))
        assert report.value == 2 * tiny / 0.5 and report.argmin_pi == (1, 2) and report.omega_star == (1.0, 0.0)
        assert solve_lp(*build_permutation_lp(stats, central_tuple(2, half), (1, 2))).status == UNBOUNDED
    stats = validate_stats([[1e-310, 0.0], [0.5, 0.2]])
    with pytest.raises(UnexpectedLpStatus, match=r"^ordering \(1, 2\) \(K=2, B=2, mu=1/2\): status unbounded$"):
        upper_bound_rate(stats, central_tuple(2, half))
    assert len(stacks) == 3
    for ccdf, kept, gaps in stacks:
        _start_matches_pivots(ccdf, kept, gaps)


# Simplex pivots of each stack of the ROADMAP item 1 grid at mu = t/6, from
# the equal-weight vertex and from x = 0.  At t = 5 every LP has one live
# user, and the vertex is its optimum.
ROADMAP_ITEM1_PIVOTS = {
    1: ([1232, 269], [3272, 996]),
    2: ([743], [2326]),
    3: ([272], [880]),
    4: ([51], [216]),
    5: ([0], [30]),
}


@pytest.mark.parametrize("t", sorted(ROADMAP_ITEM1_PIVOTS))
def test_vertex_start_pivot_counts_are_pinned(monkeypatch, t):
    stacks = _recording_vertex_stacks(monkeypatch)
    pivots = []
    _recording_shapes(monkeypatch, pivots)
    upper_bound_rate(validate_stats(ROADMAP_ITEM1_ROWS), central_tuple(6, Fraction(t, 6)))
    cold = [int(solve_lps(*upper_bound._permutation_lps(*stack)[:3]).pivots.sum()) for stack in stacks]
    assert (pivots, cold) == ROADMAP_ITEM1_PIVOTS[t]
