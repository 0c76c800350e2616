"""Channel statistics: validation, dominance, enhancement, sampling."""

import numpy as np
import pytest

from cachecast import channel
from cachecast.channel import (
    ChannelStats,
    ZeroWeightWarning,
    check_draws,
    enhance,
    is_stochastically_dominant,
    sample_states,
    user_levels,
    validate_stats,
)
from cachecast.errors import LengthMismatch, NotMonotone, OutOfRange, ValidationError, WeightsUnsorted, WrongType

from helpers import check_enhancement_invariants, random_sorted_weights, random_stats


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


def test_validate_rejects_increasing():
    with pytest.raises(NotMonotone):
        validate_stats([[0.4, 0.5]])


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


# --- enhance ----------------------------------------------------------------


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
    real = sample_states(chain3, num_uses=250, seed=5)
    assert real.levels.shape == (3, 250)
    assert real.levels.dtype == np.uint8
    assert real.levels.min() >= 0
    assert real.levels.max() <= chain3.num_levels
    assert (real.num_users, real.num_levels, real.num_uses, real.seed) == (3, 3, 250, 5)


def test_sample_reproducible(chain3):
    a = sample_states(chain3, num_uses=100, seed=42)
    b = sample_states(chain3, num_uses=100, seed=42)
    np.testing.assert_array_equal(a.levels, b.levels)
    c = sample_states(chain3, num_uses=100, seed=43)
    assert not np.array_equal(a.levels, c.levels)


def test_sample_users_get_independent_streams():
    stats = validate_stats([[0.5, 0.25], [0.5, 0.25]])
    real = sample_states(stats, num_uses=400, seed=11)
    assert not np.array_equal(real.levels[0], real.levels[1])


def test_sample_frequencies_match_ccdf():
    stats = validate_stats([[0.4, 0.1]])
    real = sample_states(stats, num_uses=100_000, seed=123)
    freq1 = np.mean(real.levels[0] >= 1)
    freq2 = np.mean(real.levels[0] >= 2)
    assert abs(freq1 - 0.4) <= 0.005
    assert abs(freq2 - 0.1) <= 0.005


def test_sample_deterministic_channel():
    real = sample_states(validate_stats([[1.0, 1.0]]), num_uses=50, seed=3)
    np.testing.assert_array_equal(real.levels[0], np.full(50, 2))
    real0 = sample_states(validate_stats([[0.0]]), num_uses=50, seed=3)
    np.testing.assert_array_equal(real0.levels[0], np.zeros(50))


def test_sample_rejects_bad_length():
    with pytest.raises(OutOfRange):
        sample_states(validate_stats([[0.5]]), num_uses=0, seed=1)


@pytest.mark.parametrize("seed", [1.5, None, "3", np.float64(2.0)])
def test_sample_rejects_non_integer_seed(seed):
    stats = validate_stats([[0.5]])
    for draw in (sample_states, user_levels):
        with pytest.raises(WrongType, match=r"^seed must be an integer, got "):
            draw(stats, 10, seed)


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
    ],
)
def test_the_sampling_rule(num_uses, seed, error, message):
    with pytest.raises(error) as raised:
        check_draws(num_uses, seed)
    assert type(raised.value) is error and str(raised.value) == message
    stats = validate_stats([[0.5]])
    for draw in (sample_states, user_levels):
        with pytest.raises(error, match=f"^{message}$"):
            draw(stats, num_uses, seed)


def test_the_sampling_rule_takes_numpy_integers():
    check_draws(np.int64(10), np.uint32(3))


def test_sample_takes_numpy_integer_seed():
    stats = validate_stats([[0.5, 0.2]])
    assert sample_states(stats, 50, np.int64(3)).levels.tobytes() == sample_states(stats, 50, 3).levels.tobytes()


@pytest.mark.parametrize("block", [7, None])
def test_sample_blocks_equal_one_draw(monkeypatch, block):
    # The uniforms are drawn block by block; n is no multiple of the block,
    # and the grid holds draws from several blocks, so a block drawn out of
    # order or of the wrong length changes some count.
    if block is not None:
        monkeypatch.setattr(channel, "SAMPLE_BLOCK", block)
    block = channel.SAMPLE_BLOCK
    num_uses, seed = 2 * block + block // 2 + 1, 61
    children = np.random.SeedSequence(seed).spawn(2)
    draws = [np.random.default_rng(child).random(num_uses) for child in children]
    rng = np.random.default_rng(children[0])
    pieces = [rng.random(min(block, num_uses - a)) for a in range(0, num_uses, block)]
    assert np.concatenate(pieces).tobytes() == draws[0].tobytes()

    picks = np.linspace(0, num_uses - 1, 5).astype(int)
    grid = np.array([np.sort(u[picks])[::-1] for u in draws])
    real = sample_states(validate_stats(grid), num_uses, seed)
    expected = np.array([np.sum(u[:, None] < row[None, :], axis=1) for u, row in zip(draws, grid)])
    assert real.levels.dtype == np.uint8
    assert real.levels.tobytes() == expected.astype(np.uint8).tobytes()


@pytest.mark.parametrize("num_levels, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_sample_dtype_holds_every_level(num_levels, dtype):
    real = sample_states(validate_stats([[1.0] * num_levels, [0.0] * num_levels]), 20, seed=4)
    assert real.levels.dtype == dtype
    assert real.levels[0].tolist() == [num_levels] * 20
    assert real.levels[1].tolist() == [0] * 20


def test_sample_counts_leading_entries_on_a_rising_row():
    # validate_stats lets a row rise by up to PROB_TOL.  At U = x on the row
    # (1, x, x + 5e-13) one leading entry lies above U, though two entries do.
    x = np.random.default_rng(np.random.SeedSequence(8).spawn(1)[0]).random(1)[0]
    real = sample_states(validate_stats([[1.0, x, x + 5e-13]]), 1, seed=8)
    assert real.levels.tolist() == [[1]]
