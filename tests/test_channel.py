"""Channel statistics: validation, dominance, enhancement, sampling."""

import re

import numpy as np
import pytest

from cachecast import channel
from cachecast.channel import (
    ChannelStats,
    check_draws,
    is_stochastically_dominant,
    sample_states,
    validate_stats,
)
from cachecast.errors import LengthMismatch, NotMonotone, OutOfRange, ValidationError, WrongType

from helpers import (
    WeightsUnsorted,
    ZeroWeightWarning,
    check_enhancement_invariants,
    enhance,
    random_sorted_weights,
    random_stats,
)


# --- validate_stats -------------------------------------------------------


def test_validate_accepts_and_freezes(chain3):
    assert chain3.num_users == 3
    assert chain3.num_levels == 3
    assert not chain3.ccdf.flags.writeable
    np.testing.assert_array_equal(chain3.row(2), [0.7, 0.5, 0.4])


def test_validate_clips_tolerated_overshoot():
    stats = validate_stats([[1.0 + 1e-13, 0.5, -1e-13]])
    assert stats.ccdf[0, 0] == 1.0
    assert stats.ccdf[0, 2] == 0.0


def test_validate_rejects_empty():
    with pytest.raises(LengthMismatch):
        validate_stats([])
    with pytest.raises(LengthMismatch):
        validate_stats([[]])


def test_validate_rejects_ragged():
    with pytest.raises(LengthMismatch):
        validate_stats([[0.5, 0.4], [0.5]])


def test_validate_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        validate_stats([[1.5, 0.4]])
    with pytest.raises(OutOfRange):
        validate_stats([[0.5, -0.4]])


def test_validate_rejects_nan():
    # NaN fails every comparison, so a range check by violations alone
    # lets it through; json.load reads a bare NaN token.
    for row in ([float("nan"), 0.4], [0.5, float("nan")]):
        with pytest.raises(OutOfRange, match=r"^user 2: CCDF entries must lie in \[0, 1\]$"):
            validate_stats([[0.5, 0.4], row])


@pytest.mark.parametrize("entry", ["x", [0.5]])
def test_validate_rejects_non_numeric(entry):
    # A string or a nested list is no probability: the row fails numpy's
    # float conversion, which must surface as a typed error naming the user.
    with pytest.raises(ValidationError, match=r"^user 2: CCDF entries must be numbers, got "):
        validate_stats([[0.5, 0.4], [entry, 0.1]])


@pytest.mark.parametrize("entry", [True, False, "0.9", None])
def test_validate_rejects_booleans_strings_and_none(entry):
    # numpy reads True as 1.0, "0.9" as 0.9 and None as NaN; none is a number.
    for rows in ([[0.5, 0.4], [entry, 0.1]], [[0.5, 0.4], [0.5, entry]]):
        with pytest.raises(WrongType, match=r"^user 2: CCDF entries must be numbers, got "):
            validate_stats(rows)


def test_validate_rejects_a_boolean_array_and_takes_integers():
    with pytest.raises(WrongType, match=r"^user 1: CCDF entries must be numbers, got array\(\[ True, False\]\)$"):
        validate_stats(np.array([[True, False], [True, True]]))
    for rows in ([[1, 0], [1, 1]], np.array([[1, 0], [1, 1]])):
        assert validate_stats(rows).ccdf.tolist() == [[1.0, 0.0], [1.0, 1.0]]


@pytest.mark.parametrize("entry", [True, False, "0.9", None])
def test_check_weights_rejects_booleans_strings_and_none(mixed3, entry):
    with pytest.raises(WrongType, match=r"^weights must be numbers, got "):
        channel.check_weights(mixed3, [1.0, entry, 0.5])


def test_check_weights_rejects_a_boolean_array_and_takes_integers(mixed3):
    with pytest.raises(WrongType, match=r"^weights must be numbers, got array\(\[ True,  True, False\]\)$"):
        channel.check_weights(mixed3, np.array([True, True, False]))
    assert channel.check_weights(mixed3, [2, 1, 0]).tolist() == [2.0, 1.0, 0.0]


def test_validate_rejects_increasing():
    with pytest.raises(NotMonotone):
        validate_stats([[0.4, 0.5]])


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[0.5, 0.4], [1.5, 0.4], [0.4, 0.5]], OutOfRange, r"^user 2: CCDF entries must lie in \[0, 1\]$"),
        ([[0.5, 0.4], [0.4, 0.5], [1.5, 0.4]], NotMonotone, r"^user 2: CCDF must be nonincreasing in the level$"),
        ([[0.5, 0.4], [0.4, 0.5], [0.5]], NotMonotone, r"^user 2: "),
        ([[0.5, 0.4], [0.5], [0.4, 0.5]], LengthMismatch, r"^user 2: expected 2 entries, got shape \(1,\)$"),
        ([[0.5, 0.4], [0.5, 0.4], [[0.5], 0.1]], WrongType, r"^user 3: CCDF entries must be numbers, got "),
    ],
)
def test_validate_names_the_first_failing_user(rows, error, message):
    # The grid is checked in one pass, but a grid that fails is checked row
    # by row: the error is the first failing user's, and within that user
    # the shape, then the range, then the order.
    with pytest.raises(error, match=message):
        validate_stats(rows)


def test_validate_takes_any_iterable_of_rows():
    rows = [[0.9, 0.4, 0.4], [0.7, 0.7, 0.1]]
    for ccdf in (np.array(rows), (tuple(r) for r in rows), [np.array(r) for r in rows]):
        stats = validate_stats(ccdf)
        assert stats.ccdf.dtype == float and stats.ccdf.tolist() == rows and not stats.ccdf.flags.writeable


# --- is_stochastically_dominant ---------------------------------------------


def test_dominance_chain(chain3):
    assert is_stochastically_dominant(chain3.row(3), chain3.row(2))
    assert is_stochastically_dominant(chain3.row(2), chain3.row(1))
    assert not is_stochastically_dominant(chain3.row(1), chain3.row(2))


def test_dominance_incomparable(mixed3):
    assert not is_stochastically_dominant(mixed3.row(1), mixed3.row(3))
    assert not is_stochastically_dominant(mixed3.row(3), mixed3.row(1))


def test_dominance_reflexive_and_tolerant(mixed3):
    assert is_stochastically_dominant(mixed3.row(2), mixed3.row(2))
    assert is_stochastically_dominant([0.5 - 1e-13], [0.5])


def test_dominance_length_mismatch():
    with pytest.raises(LengthMismatch):
        is_stochastically_dominant([0.5, 0.4], [0.5])


# --- enhance (tests/helpers.py, the converse test's oracle) -------------------


def test_enhance_two_user_example():
    stats = validate_stats([[0.7, 0.4, 0.4], [0.5, 0.5, 0.5]])
    out = enhance(stats, [1.25, 1.0])
    np.testing.assert_allclose(out.ccdf[0], [0.7, 0.4, 0.4])
    np.testing.assert_allclose(out.ccdf[1], [0.875, 0.5, 0.5])


def test_enhance_keeps_first_user(mixed3):
    out = enhance(mixed3, [2.0, 1.5, 1.0])
    np.testing.assert_array_equal(out.ccdf[0], mixed3.ccdf[0])


def test_enhance_produces_chain(mixed3):
    out = enhance(mixed3, [2.0, 1.5, 1.0])
    assert is_stochastically_dominant(out.ccdf[1], out.ccdf[0])
    assert is_stochastically_dominant(out.ccdf[2], out.ccdf[1])


def test_enhance_caps_at_one():
    stats = validate_stats([[0.9], [0.1]])
    out = enhance(stats, [3.0, 1.0])
    assert out.ccdf[1, 0] == 1.0


def test_enhance_equal_weights_takes_running_max(mixed3):
    out = enhance(mixed3, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(out.ccdf[1], [0.9, 0.4, 0.4])
    np.testing.assert_allclose(out.ccdf[2], [0.9, 0.5, 0.5])


def test_enhance_zero_weights_warn_and_pass_through(mixed3):
    with pytest.warns(ZeroWeightWarning):
        out = enhance(mixed3, [2.0, 1.0, 0.0])
    np.testing.assert_array_equal(out.ccdf[2], mixed3.ccdf[2])
    assert is_stochastically_dominant(out.ccdf[1], out.ccdf[0])


def test_enhance_rejects_bad_weights(mixed3):
    with pytest.raises(LengthMismatch):
        enhance(mixed3, [1.0, 1.0])
    for weights in ([1.0, 1.0, -0.5], [np.nan, 1.0, 0.5], [np.inf, 1.0, 0.5]):
        with pytest.raises(OutOfRange):
            enhance(mixed3, weights)
    with pytest.raises(WeightsUnsorted):
        enhance(mixed3, [1.0, 2.0, 0.5])


@pytest.mark.parametrize("weights", [["x", 1.0, 0.5], [[1.0, 2.0], 1.0, 0.5], [{}, 1.0, 0.5]])
def test_enhance_rejects_non_number_weights(mixed3, weights):
    with pytest.raises(WrongType, match=r"^weights must be numbers, got "):
        enhance(mixed3, weights)


def test_enhance_random_invariants():
    rng = np.random.default_rng(20240817)
    for _ in range(60):
        stats = random_stats(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
        weights = random_sorted_weights(rng, stats.num_users)
        check_enhancement_invariants(stats, weights)


# --- sample_states -----------------------------------------------------------


def test_sample_shapes_and_range(chain3):
    levels = sample_states(chain3, num_uses=250, seed=5)
    assert levels.shape == (3, 250)
    assert levels.dtype == np.uint8
    assert levels.min() >= 0
    assert levels.max() <= chain3.num_levels
    assert not levels.flags.writeable


def test_sample_reproducible(chain3):
    a = sample_states(chain3, num_uses=100, seed=42)
    b = sample_states(chain3, num_uses=100, seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample_states(chain3, num_uses=100, seed=43)
    assert not np.array_equal(a, c)


def test_sample_users_get_independent_streams():
    stats = validate_stats([[0.5, 0.25], [0.5, 0.25]])
    levels = sample_states(stats, num_uses=400, seed=11)
    assert not np.array_equal(levels[0], levels[1])


def test_sample_frequencies_match_ccdf():
    stats = validate_stats([[0.4, 0.1]])
    levels = sample_states(stats, num_uses=100_000, seed=123)
    freq1 = np.mean(levels[0] >= 1)
    freq2 = np.mean(levels[0] >= 2)
    assert abs(freq1 - 0.4) <= 0.005
    assert abs(freq2 - 0.1) <= 0.005


def test_sample_deterministic_channel():
    levels = sample_states(validate_stats([[1.0, 1.0]]), num_uses=50, seed=3)
    np.testing.assert_array_equal(levels[0], np.full(50, 2))
    levels0 = sample_states(validate_stats([[0.0]]), num_uses=50, seed=3)
    np.testing.assert_array_equal(levels0[0], np.zeros(50))


def test_sample_rejects_bad_length():
    with pytest.raises(OutOfRange):
        sample_states(validate_stats([[0.5]]), num_uses=0, seed=1)


@pytest.mark.parametrize("seed", [1.5, None, "3", np.float64(2.0)])
def test_sample_rejects_non_integer_seed(seed):
    stats = validate_stats([[0.5]])
    with pytest.raises(WrongType, match=r"^seed must be an integer, got "):
        sample_states(stats, 10, seed)


@pytest.mark.parametrize(
    "num_uses, seed, error, message",
    [
        (10.5, 1, WrongType, "num_uses must be an integer, got 10.5"),
        (True, 1, WrongType, "num_uses must be an integer, got True"),
        ("10", 1, WrongType, "num_uses must be an integer, got '10'"),
        (0, 1, OutOfRange, "num_uses must be positive"),
        (-1, 1, OutOfRange, "num_uses must be positive"),
        (10, True, WrongType, "seed must be an integer, got True"),
        (10, 1.0, WrongType, "seed must be an integer, got 1.0"),
        (10, -1, OutOfRange, "seed must be nonnegative"),
        (0, -1, OutOfRange, "num_uses must be positive"),  # the count is checked first
        (2**63, 1, OutOfRange, "num_uses must be at most 2**63 - 1, got 9223372036854775808"),
        (10**19, -1, OutOfRange, "seed must be nonnegative"),
    ],
)
def test_the_sampling_rule(num_uses, seed, error, message):
    with pytest.raises(error) as raised:
        check_draws(num_uses, seed)
    assert type(raised.value) is error and str(raised.value) == message
    stats = validate_stats([[0.5]])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        sample_states(stats, num_uses, seed)


def test_the_sampling_rule_takes_numpy_integers():
    check_draws(np.int64(10), np.uint32(3))


def test_the_sampling_rule_takes_the_largest_int64_count():
    # numpy counts uses in int64, so 2**63 - 1 is the last count it can draw.
    check_draws(2**63 - 1, 0)
    check_draws(np.uint64(2**63 - 1), 0)


def test_sample_takes_numpy_integer_seed():
    stats = validate_stats([[0.5, 0.2]])
    assert sample_states(stats, 50, np.int64(3)).tobytes() == sample_states(stats, 50, 3).tobytes()


@pytest.mark.parametrize("block", [7, None])
def test_sample_blocks_equal_one_draw(monkeypatch, block):
    # The uniforms are drawn in chunks of SAMPLE_BLOCK uses; n is no
    # multiple of the chunk, and the grid holds draws from several chunks,
    # so a chunk drawn out of order or of the wrong length changes some
    # count.
    if block is not None:
        monkeypatch.setattr(channel, "SAMPLE_BLOCK", block)
    block = channel.SAMPLE_BLOCK
    num_uses, seed = 2 * block + block // 2 + 1, 61
    children = np.random.SeedSequence(seed).spawn(3)
    draws = [np.random.default_rng(child).random(num_uses) for child in children]
    rng = np.random.default_rng(children[0])
    pieces = [rng.random(min(block, num_uses - a)) for a in range(0, num_uses, block)]
    assert np.concatenate(pieces).tobytes() == draws[0].tobytes()

    picks = np.linspace(0, num_uses - 1, 5).astype(int)
    grid = np.array([np.sort(u[picks])[::-1] for u in draws])
    expected = np.array([np.sum(u[:, None] < row[None, :], axis=1) for u, row in zip(draws, grid)])
    levels = sample_states(validate_stats(grid), num_uses, seed)
    assert levels.dtype == np.uint8
    assert levels.tobytes() == expected.astype(np.uint8).tobytes()


def test_sample_many_levels_in_small_chunks(monkeypatch):
    # 40 levels, in chunks of 16 uses: each use's count is the number of
    # entries above its uniform, whatever B is against the chunk.
    monkeypatch.setattr(channel, "SAMPLE_BLOCK", 16)
    num_uses, seed = 20, 12
    grid = np.sort(np.random.default_rng(3).random((2, 40)), axis=1)[:, ::-1]
    children = np.random.SeedSequence(seed).spawn(2)
    draws = [np.random.default_rng(child).random(num_uses) for child in children]
    expected = np.array([np.sum(u[:, None] < row[None, :], axis=1) for u, row in zip(draws, grid)])
    assert sample_states(validate_stats(grid), num_uses, seed).tobytes() == expected.astype(np.uint8).tobytes()


@pytest.mark.parametrize("num_levels, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_sample_dtype_holds_every_level(num_levels, dtype):
    levels = sample_states(validate_stats([[1.0] * num_levels, [0.0] * num_levels]), 20, seed=4)
    assert levels.dtype == dtype
    assert levels[0].tolist() == [num_levels] * 20
    assert levels[1].tolist() == [0] * 20


def test_sample_counts_leading_entries_on_a_rising_row():
    # validate_stats lets a row rise by up to PROB_TOL.  At U = x on the row
    # (1, x, x + 5e-13) one leading entry lies above U, though two entries do.
    x = np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0]).random(1)[0]
    levels = sample_states(validate_stats([[1.0, x, x + 5e-13]]), 1, seed=8)
    assert levels.tolist() == [[1]]
