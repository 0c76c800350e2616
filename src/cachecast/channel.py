"""Per-user level statistics of a deterministic level-erasure broadcast channel.

The transmitter writes one symbol on each of B stacked signal levels per
channel use.  User k receives the top L_k[t] levels of use t, where L_k[t]
is drawn i.i.d. from a per-user distribution on {0, ..., B} described by its
complementary CDF

    ccdf[k][l-1] = P[L_k >= l],   l = 1, ..., B.

A valid CCDF row is nonincreasing with entries in [0, 1].  Boundary
conventions P[L_k >= 0] = 1 and P[L_k >= B+1] = 0 are implicit and never
stored.  All probability comparisons in this module use PROB_TOL.

sample_states draws every use's level count by inversion: one uniform per
user and use, from one child of SeedSequence(seed) per user, in chunks of
SAMPLE_BLOCK uses on the calling thread, and returns the K x n array of
levels: levels[k-1][t] is the top levels user k gets at use t.
The simulator does not draw uses one at a time (see simulator).
check_draws is the one rule on the channel-use count and seed of a draw,
the CLI's included.

Scaling every CCDF entry by s scales every rate by s.  The LPs compare
against absolute tolerances, so the rate computations solve on the grid
times 2^-scale_exponent, whose largest entry lies in (1/2, 1], and scale
the rate back: a power of two scales exactly, so a grid times 2^-e reads
2^-e times the grid's rate, to the bit.  Every valid grid with an entry
above 1/2 has exponent 0 and is solved as it is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, NotMonotone, OutOfRange, WrongType

PROB_TOL = 1e-12

# The types of entries that numpy reads as numbers but a grid or a weight
# must not hold.
NOT_NUMBERS = frozenset((bool, np.bool_, str, np.str_, bytes, np.bytes_, type(None)))

# Channel uses per chunk of sample_states: its uniforms take 8 bytes a use.
SAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ChannelStats:
    """Validated per-user CCDF grid for a K-user, B-level channel."""

    num_users: int
    num_levels: int
    ccdf: np.ndarray  # shape (K, B), read-only

    def row(self, user: int) -> np.ndarray:
        """CCDF of user `user` (1-based)."""
        return self.ccdf[user - 1]


def _floats(values) -> np.ndarray:
    """values as a new float array; TypeError where they hold a boolean, a
    string or None (NOT_NUMBERS), which numpy would read as 1.0, 0.9 or NaN,
    and TypeError or ValueError where numpy cannot read them as floats.
    Integers are numbers."""
    entries = np.array(values, dtype=object)
    if not NOT_NUMBERS.isdisjoint(map(type, entries.flat)):
        raise TypeError("a boolean, a string or None is not a number")
    return entries.astype(float)


def validate_stats(ccdf: Sequence[Sequence[float]]) -> ChannelStats:
    """Build ChannelStats from raw rows, checking type, shape, range and monotonicity.

    The whole (K, B) grid is checked at once; only a grid that fails is
    checked row by row, to name the first failing user.  An entry must be
    a number: a boolean, a string or None is refused (WrongType).
    """
    try:
        grid = _floats(ccdf)
    except (TypeError, ValueError):  # ragged rows or no numbers: the row loop names the user
        grid = np.empty(0)
    if (
        grid.ndim == 2
        and grid.size
        and np.all((grid >= -PROB_TOL) & (grid <= 1.0 + PROB_TOL))  # also refuses NaN
        and not np.any(np.diff(grid) > PROB_TOL)
    ):
        np.clip(grid, 0.0, 1.0, out=grid)
        grid.setflags(write=False)
        return ChannelStats(num_users=grid.shape[0], num_levels=grid.shape[1], ccdf=grid)
    rows = []
    for k, r in enumerate(ccdf, start=1):
        try:
            rows.append(_floats(r))
        except (TypeError, ValueError) as exc:
            raise WrongType(f"user {k}: CCDF entries must be numbers, got {r!r}") from exc
    if not rows:
        raise LengthMismatch("need at least one user row")
    num_levels = rows[0].size
    if num_levels == 0:
        raise LengthMismatch("need at least one signal level")
    for k, r in enumerate(rows, start=1):
        if r.ndim != 1 or r.size != num_levels:
            raise LengthMismatch(f"user {k}: expected {num_levels} entries, got shape {r.shape}")
        if not np.all((r >= -PROB_TOL) & (r <= 1.0 + PROB_TOL)):  # also refuses NaN
            raise OutOfRange(f"user {k}: CCDF entries must lie in [0, 1]")
        if np.any(np.diff(r) > PROB_TOL):
            raise NotMonotone(f"user {k}: CCDF must be nonincreasing in the level")
    grid = np.clip(np.vstack(rows), 0.0, 1.0)
    grid.setflags(write=False)
    return ChannelStats(num_users=len(rows), num_levels=num_levels, ccdf=grid)


def is_stochastically_dominant(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when CCDF `a` dominates `b` levelwise: a[l] >= b[l] - PROB_TOL for all l."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch("CCDFs must have equal length")
    return bool(np.all(a >= b - PROB_TOL))


def check_weights(stats: ChannelStats, weights: Sequence[float]) -> np.ndarray:
    """weights as floats, checked: one row of K finite, nonnegative numbers
    (a boolean, a string or None is not a number)."""
    try:
        w = _floats(weights)
    except (TypeError, ValueError) as exc:
        raise WrongType(f"weights must be numbers, got {weights!r}") from exc
    if w.shape != (stats.num_users,):
        raise LengthMismatch(f"need one row of {stats.num_users} weights, got shape {w.shape}")
    if not np.all((w >= 0.0) & (w < np.inf)):  # also refuses NaN
        raise OutOfRange("weights must be finite and nonnegative")
    return w


def scale_exponent(ccdf: np.ndarray) -> int:
    """The e for which the grid's largest entry times 2^-e lies in (1/2, 1];
    0 for an all-zero grid (module docstring)."""
    mantissa, e = math.frexp(float(ccdf.max()))  # largest entry = mantissa 2^e, mantissa in [1/2, 1)
    return e - (mantissa == 0.5)


def check_draws(num_uses: int, seed: int) -> None:
    """WrongType unless both are integers (a boolean is not); OutOfRange
    unless 1 <= num_uses <= 2**63 - 1 (numpy counts uses in int64) and seed >= 0."""
    for name, value, low, rule in (("num_uses", num_uses, 1, "positive"), ("seed", seed, 0, "nonnegative")):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise WrongType(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise OutOfRange(f"{name} must be {rule}")
    if num_uses > 2**63 - 1:
        raise OutOfRange(f"num_uses must be at most 2**63 - 1, got {num_uses}")


def sample_states(stats: ChannelStats, num_uses: int, seed: int) -> np.ndarray:
    """Draw i.i.d. level counts for each user over `num_uses` channel uses.

    Every user's levels at once, K x n, in the smallest unsigned dtype that
    holds 0..B: row k holds user k's level count at each use.  Stream
    splitting: one child of SeedSequence(seed) per user, in user order, so
    the levels are reproducible and users are mutually independent.
    Sampling inverts the CCDF directly: with U uniform on (0, 1),
    #{l : U < ccdf[l]} has exactly the target distribution.  U is compared
    with the row's cumulative minimum, so the count is of the leading
    entries above U even where validate_stats lets a row rise by up to
    PROB_TOL (U falls inside such a rise with probability below
    B * PROB_TOL).  Each user's uniforms are drawn in chunks of
    consecutive rng.random calls, which yield the same doubles as one
    call; memory is the matrix and one chunk.  The matrix is returned
    read-only.
    """
    check_draws(num_uses, seed)
    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(stats.num_levels))
    # With top the row's cumulative minimum, #{l : U < top[l]} = B - #{l : top[l] <= U},
    # and the entries at or below U are counted by a search of top ascending.
    ascending = np.minimum.accumulate(stats.ccdf, axis=1)[:, ::-1]
    uniforms = np.empty(min(num_uses, SAMPLE_BLOCK))
    for row, rising, child in zip(levels, ascending, np.random.SeedSequence(seed).spawn(stats.num_users)):
        rng = np.random.default_rng(child)
        for start in range(0, num_uses, uniforms.size):
            u = uniforms[: num_uses - start]
            rng.random(out=u)
            missed = np.searchsorted(rising, u, side="right")
            np.subtract(stats.num_levels, missed, out=row[start : start + u.size], casting="unsafe")
    levels.setflags(write=False)
    return levels
