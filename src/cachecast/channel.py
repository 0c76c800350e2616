"""Per-user level statistics of a deterministic level-erasure broadcast channel.

The transmitter writes one symbol on each of B stacked signal levels per
channel use.  User k receives the top L_k[t] levels of use t, where L_k[t]
is drawn i.i.d. from a per-user distribution on {0, ..., B} described by its
complementary CDF

    ccdf[k][l-1] = P[L_k >= l],   l = 1, ..., B.

A valid CCDF row is nonincreasing with entries in [0, 1].  Boundary
conventions P[L_k >= 0] = 1 and P[L_k >= B+1] = 0 are implicit and never
stored.  All probability comparisons in this module use PROB_TOL.

Channel states are drawn one user at a time by user_levels, into one reused
row of n levels; sample_states stacks those rows into the K x n matrix for
callers that keep every user's levels.  check_draws is the one rule on the
channel-use count and seed of a draw, the CLI's included.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import LengthMismatch, NotMonotone, OutOfRange, WeightsUnsorted, WrongType

PROB_TOL = 1e-12

# Uniforms drawn per rng.random call in user_levels: 2**14 doubles (128 KiB)
# stay in cache while every level is compared against them.  On a 2-CPU Xeon
# (2 MB L2 per core), K = 6, B = 5, n = 1e6 sampled in 0.030-0.034 s (best of
# 7) with blocks of 2**14 to 2**17, against 0.047 s at 2**12 and 0.043 s in
# one block of 2**20.
SAMPLE_BLOCK = 1 << 14


class ZeroWeightWarning(UserWarning):
    """Raised by enhance() when zero-weight users are left unchanged."""


@dataclass(frozen=True)
class ChannelStats:
    """Validated per-user CCDF grid for a K-user, B-level channel."""

    num_users: int
    num_levels: int
    ccdf: np.ndarray  # shape (K, B), read-only

    def row(self, user: int) -> np.ndarray:
        """CCDF of user `user` (1-based)."""
        return self.ccdf[user - 1]


@dataclass(frozen=True)
class StateRealization:
    """Sampled channel states: levels[k-1][t] = top levels user k gets at use t."""

    num_users: int
    num_levels: int
    num_uses: int
    seed: int
    levels: np.ndarray  # shape (K, n), dtype np.min_scalar_type(B): uint8 up to B = 255


def validate_stats(ccdf: Sequence[Sequence[float]]) -> ChannelStats:
    """Build ChannelStats from raw rows, checking type, shape, range and monotonicity."""
    rows = []
    for k, r in enumerate(ccdf, start=1):
        try:
            rows.append(np.asarray(r, dtype=float))
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
    """weights as floats, checked: one finite, nonnegative number per user."""
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise WrongType(f"weights must be numbers, got {weights!r}") from exc
    if w.size != stats.num_users:
        raise LengthMismatch("need one weight per user")
    if not np.all((w >= 0.0) & (w < np.inf)):  # also refuses NaN
        raise OutOfRange("weights must be finite and nonnegative")
    return w


def enhance(stats: ChannelStats, weights: Sequence[float]) -> ChannelStats:
    """Weight-driven enhancement producing a stochastically degraded chain.

    `weights` must be nonincreasing, finite and nonnegative, one entry per user, with
    user 1 carrying the largest weight.  User 1 keeps its CCDF; for k >= 2,

        new[k](l) = min(1, max(ccdf[k](l), (w[k-1]/w[k]) * new[k-1](l))),

    so new[k] dominates new[k-1] and the weighted maxima
    max_k w[k]*new[k](l) equal max_k w[k]*ccdf[k](l) at every level.
    Zero-weight users sit at the tail, are skipped by the recursion, and are
    returned unchanged; a ZeroWeightWarning flags them.
    """
    w = check_weights(stats, weights)
    if np.any(np.diff(w) > 0.0):
        raise WeightsUnsorted("weights must be nonincreasing")

    out = np.array(stats.ccdf, dtype=float)
    positive = int(np.count_nonzero(w > 0.0))
    if positive < stats.num_users:
        skipped = list(range(positive + 1, stats.num_users + 1))
        warnings.warn(
            f"zero-weight users {skipped} excluded from enhancement",
            ZeroWeightWarning,
            stacklevel=2,
        )
    for k in range(1, positive):
        ratio = w[k - 1] / w[k]
        out[k] = np.minimum(1.0, np.maximum(out[k], ratio * out[k - 1]))
    out.setflags(write=False)
    return ChannelStats(num_users=stats.num_users, num_levels=stats.num_levels, ccdf=out)


def check_draws(num_uses: int, seed: int) -> None:
    """WrongType unless both are integers (a boolean is not); OutOfRange unless num_uses >= 1 and seed >= 0."""
    for name, value, low, rule in (("num_uses", num_uses, 1, "positive"), ("seed", seed, 0, "nonnegative")):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise WrongType(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise OutOfRange(f"{name} must be {rule}")


def user_levels(stats: ChannelStats, num_uses: int, seed: int) -> Iterator[np.ndarray]:
    """Draw i.i.d. level counts for each user over `num_uses` channel uses.

    Yields one row per user, in user order, all into one reused buffer: a
    row holds user k's levels only until user k + 1 is drawn, so copy it to
    keep it.  Memory is one row of num_uses levels and one block of
    uniforms, whatever the number of users.

    Stream splitting: one child of SeedSequence(seed) per user, in user order,
    so realizations are reproducible and users are mutually independent.
    Sampling inverts the CCDF directly: with U uniform on (0, 1),
    #{l : U < ccdf[l]} has exactly the target distribution.  The count is
    taken over the row's cumulative minimum, one comparison per level, so
    it is the number of leading entries above U even where validate_stats
    lets a row rise by up to PROB_TOL (U falls inside such a rise with
    probability below B * PROB_TOL).  Each user's uniforms are drawn in
    blocks of SAMPLE_BLOCK consecutive rng.random calls, which yield the
    same doubles as one call.  Levels are stored in the smallest unsigned
    dtype that holds 0..B.
    """
    check_draws(num_uses, seed)
    return _draw_rows(stats, num_uses, seed)


def _draw_rows(stats: ChannelStats, num_uses: int, seed: int) -> Iterator[np.ndarray]:
    children = np.random.SeedSequence(seed).spawn(stats.num_users)
    row = np.empty(num_uses, dtype=np.min_scalar_type(stats.num_levels))
    thresholds = np.minimum.accumulate(stats.ccdf, axis=1)
    block = min(SAMPLE_BLOCK, num_uses)
    uniforms = np.empty(block)
    above = np.empty(block, dtype=bool)
    for child, user_thresholds in zip(children, thresholds):
        rng = np.random.default_rng(child)
        row.fill(0)
        for start in range(0, num_uses, block):
            counts = row[start : start + block]
            u, hit = uniforms[: counts.size], above[: counts.size]
            rng.random(out=u)
            for p in user_thresholds:
                np.less(u, p, out=hit)
                counts += hit.view(np.uint8)  # adding the bool array itself is a slower cast
        yield row


def sample_states(stats: ChannelStats, num_uses: int, seed: int) -> StateRealization:
    """Every user's levels at once: the rows of user_levels stacked K x n."""
    rows = user_levels(stats, num_uses, seed)
    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(stats.num_levels))
    for k, row in enumerate(rows):
        levels[k] = row
    levels.setflags(write=False)
    return StateRealization(
        num_users=stats.num_users,
        num_levels=stats.num_levels,
        num_uses=num_uses,
        seed=seed,
        levels=levels,
    )
