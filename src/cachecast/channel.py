"""Per-user level statistics of a deterministic level-erasure broadcast channel.

The transmitter writes one symbol on each of B stacked signal levels per
channel use.  User k receives the top L_k[t] levels of use t, where L_k[t]
is drawn i.i.d. from a per-user distribution on {0, ..., B} described by its
complementary CDF

    ccdf[k][l-1] = P[L_k >= l],   l = 1, ..., B.

A valid CCDF row is nonincreasing with entries in [0, 1].  Boundary
conventions P[L_k >= 0] = 1 and P[L_k >= B+1] = 0 are implicit and never
stored.  All probability comparisons in this module use PROB_TOL.

Channel states are drawn by one primitive, level_hits: one user at a time,
in blocks of SAMPLE_BLOCK uses, each block the (B, block) matrix of hits
U < cummin(ccdf), so a use's level count is its hits summed (count_levels).
sample_states counts them into the K x n matrix of levels for callers that
keep every user's levels, as the simulator does with keep_levels; the
simulator tallies the hits themselves.  check_draws is the one rule on the
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

# Channel uses per block of level_hits: 2**16 uniforms (512 KiB) and the
# block's B x 2**16 hits (320 KiB at B = 5) stay in cache while the block is
# compared, counted and tallied.  On a 2-CPU Xeon (2 MB L2 per core),
# simulate_delivery at K = 6, B = 5, n = 1e6 took a median 25.4 ms with
# blocks of 2**16 against 27.4 at 2**14 and 29.6 at 2**13, and 24.6 at
# 2**17, within the noise (first quartiles 23.0 and 23.3 ms; fifteen
# interleaved rounds each).
SAMPLE_BLOCK = 1 << 16


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


def level_hits(stats: ChannelStats, num_uses: int, seed: int) -> Iterator[Iterator[tuple[int, np.ndarray]]]:
    """The one sampling rule, block by block: per user, in user order, the
    blocks of its num_uses channel uses.

    A block is (start, hits), where hits[l, i] is True exactly when the
    user's level count at use start + i reaches l + 1; hits is a (B, size)
    boolean view into one reused buffer, valid until the next block is drawn,
    so copy what is kept.  Memory is one block of uniforms and one of hits,
    whatever num_uses and the number of users are.

    Stream splitting: one child of SeedSequence(seed) per user, in user order,
    so realizations are reproducible and users are mutually independent.
    Sampling inverts the CCDF directly: with U uniform on (0, 1),
    #{l : U < ccdf[l]} has exactly the target distribution.  The hits are
    taken against the row's cumulative minimum, one broadcast comparison per
    block, so they mark the leading entries above U even where
    validate_stats lets a row rise by up to PROB_TOL (U falls inside such a
    rise with probability below B * PROB_TOL).  Each user's uniforms are
    drawn in blocks of SAMPLE_BLOCK consecutive rng.random calls (fewer when
    B > 8, so the hits stay within 8 * SAMPLE_BLOCK bytes), which yield the
    same doubles as one call.
    """
    check_draws(num_uses, seed)
    return _hit_blocks(stats, num_uses, seed)


def _hit_blocks(stats: ChannelStats, num_uses: int, seed: int) -> Iterator[Iterator[tuple[int, np.ndarray]]]:
    children = np.random.SeedSequence(seed).spawn(stats.num_users)
    thresholds = np.minimum.accumulate(stats.ccdf, axis=1)[:, :, None]
    block = min(num_uses, SAMPLE_BLOCK, max(1, 8 * SAMPLE_BLOCK // stats.num_levels))
    uniforms = np.empty(block)
    hits = np.empty((stats.num_levels, block), dtype=bool)
    for child, user_thresholds in zip(children, thresholds):
        yield _user_blocks(np.random.default_rng(child), user_thresholds, num_uses, uniforms, hits)


def _user_blocks(rng, thresholds, num_uses, uniforms, hits) -> Iterator[tuple[int, np.ndarray]]:
    for start in range(0, num_uses, uniforms.size):
        size = min(uniforms.size, num_uses - start)
        u, hit = uniforms[:size], hits[:, :size]
        rng.random(out=u)
        np.less(u, thresholds, out=hit)
        yield start, hit


def count_levels(hits: np.ndarray, out: np.ndarray) -> None:
    """Each use's level count, the hits of one block summed over levels, into out."""
    np.add.reduce(hits.view(np.uint8), axis=0, dtype=out.dtype, out=out)  # summing the bools casts, slower


def sample_states(stats: ChannelStats, num_uses: int, seed: int) -> StateRealization:
    """Draw i.i.d. level counts for each user over `num_uses` channel uses.

    Every user's levels at once, K x n: row k holds user k's level count at
    each use, counted from level_hits' blocks (count_levels) in the
    smallest unsigned dtype that holds 0..B.  Memory is the matrix and one
    block of level_hits.
    """
    users = level_hits(stats, num_uses, seed)
    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(stats.num_levels))
    for row, blocks in zip(levels, users):
        for start, hits in blocks:
            count_levels(hits, row[start : start + hits.shape[1]])
    levels.setflags(write=False)
    return StateRealization(
        num_users=stats.num_users,
        num_levels=stats.num_levels,
        num_uses=num_uses,
        seed=seed,
        levels=levels,
    )
