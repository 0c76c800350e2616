"""Per-user level statistics of a deterministic level-erasure broadcast channel.

The transmitter writes one symbol on each of B stacked signal levels per
channel use.  User k receives the top L_k[t] levels of use t, where L_k[t]
is drawn i.i.d. from a per-user distribution on {0, ..., B} described by its
complementary CDF

    ccdf[k][l-1] = P[L_k >= l],   l = 1, ..., B.

A valid CCDF row is nonincreasing with entries in [0, 1].  Boundary
conventions P[L_k >= 0] = 1 and P[L_k >= B+1] = 0 are implicit and never
stored.  All probability comparisons in this module use PROB_TOL.

Channel states are drawn by one primitive, level_hits, which hands each
user's draws to the caller's tally, block by block, each block the
(B, block) matrix of hits U < cummin(ccdf), so a use's level count is its
hits summed (count_levels).  The users are shared among one worker per
usable CPU, up to K, with no knob: the calling thread and K - 1 threads at
most, each drawing its users with buffers of its own, which together hold
one block of SAMPLE_BLOCK uses.  What is drawn does not depend on the
worker count.  sample_states counts the hits into the K x n matrix of
levels for callers that keep every user's levels, as the simulator does
with keep_levels; the simulator tallies the hits themselves.  check_draws
is the one rule on the channel-use count and seed of a draw, the CLI's
included.
"""

from __future__ import annotations

import numbers
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import LengthMismatch, NotMonotone, OutOfRange, WrongType

PROB_TOL = 1e-12
T = TypeVar("T")

# Channel uses per block of level_hits, shared among its w workers: each
# draws blocks of SAMPLE_BLOCK // w uses, so their uniforms (8 bytes a use)
# and hits (B bytes a use) together hold one block, 832 KiB at B = 5,
# whatever w is, and each worker's block stays in its core's cache while it
# is compared, counted and tallied.  On a 2-CPU Xeon (2 MB L2 per core),
# simulate_delivery at K = 6, B = 5, n = 1e6 on two workers took a median
# 29.6 ms with 2**15 uses a worker against 27.8 ms with 2**16, which would
# double the buffers (60 interleaved rounds), and 33.5 ms with 2**14 (40
# rounds).  On one worker it took 25.4 ms with blocks of 2**16 against
# 27.4 at 2**14 and 24.6 at 2**17, within the noise (fifteen rounds each).
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


@dataclass(frozen=True)
class StateRealization:
    """Sampled channel states: levels[k-1][t] = top levels user k gets at use t."""

    num_users: int
    num_levels: int
    num_uses: int
    seed: int
    levels: np.ndarray  # shape (K, n), dtype np.min_scalar_type(B): uint8 up to B = 255


def validate_stats(ccdf: Sequence[Sequence[float]]) -> ChannelStats:
    """Build ChannelStats from raw rows, checking type, shape, range and monotonicity.

    The whole (K, B) grid is checked at once; only a grid that fails is
    checked row by row, to name the first failing user.
    """
    try:
        grid = np.array(ccdf, dtype=float)
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
    """weights as floats, checked: one row of K finite, nonnegative numbers."""
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise WrongType(f"weights must be numbers, got {weights!r}") from exc
    if w.shape != (stats.num_users,):
        raise LengthMismatch(f"need one row of {stats.num_users} weights, got shape {w.shape}")
    if not np.all((w >= 0.0) & (w < np.inf)):  # also refuses NaN
        raise OutOfRange("weights must be finite and nonnegative")
    return w


def check_draws(num_uses: int, seed: int) -> None:
    """WrongType unless both are integers (a boolean is not); OutOfRange unless num_uses >= 1 and seed >= 0."""
    for name, value, low, rule in (("num_uses", num_uses, 1, "positive"), ("seed", seed, 0, "nonnegative")):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise WrongType(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise OutOfRange(f"{name} must be {rule}")


def level_hits(
    stats: ChannelStats, num_uses: int, seed: int, tally: Callable[[int, Iterator[tuple[int, np.ndarray]]], T]
) -> list[T]:
    """The one sampling rule: tally(k, blocks) for each user k = 1..K, where
    blocks yields user k's num_uses channel uses block by block; the
    results come back in user order.

    A block is (start, hits), where hits[l, i] is True exactly when the
    user's level count at use start + i reaches l + 1; hits is a (B, size)
    boolean view into a reused buffer, valid until the next block is drawn,
    so copy what is kept.

    The users are spread over w = min(K, usable CPUs) workers: the calling
    thread is worker 0, and worker i draws and tallies users i, i + w, ...
    on a thread of its own, so tally must be safe to run on several threads
    at once for different users.  Each worker has its own buffers, which
    the calling thread allocates; together they hold one block of
    SAMPLE_BLOCK uses (SAMPLE_BLOCK // w uniforms and hits each), whatever
    num_uses, K and w are.  Nothing drawn depends on w.  When a tally
    raises, the workers start no further user, and the exception of the
    lowest user that failed is raised once every thread has been joined.

    Stream splitting: one child of SeedSequence(seed) per user, in user order,
    so realizations are reproducible and users are mutually independent.
    Sampling inverts the CCDF directly: with U uniform on (0, 1),
    #{l : U < ccdf[l]} has exactly the target distribution.  The hits are
    taken against the row's cumulative minimum, one broadcast comparison per
    block, so they mark the leading entries above U even where
    validate_stats lets a row rise by up to PROB_TOL (U falls inside such a
    rise with probability below B * PROB_TOL).  Each user's uniforms are
    drawn in blocks of consecutive rng.random calls (fewer uses a block when
    B > 8, so a worker's hits stay within 8 bytes per use of its share of
    the block), which yield the same doubles as one call.
    """
    check_draws(num_uses, seed)
    num_users, num_levels = stats.num_users, stats.num_levels
    children = np.random.SeedSequence(seed).spawn(num_users)
    thresholds = np.minimum.accumulate(stats.ccdf, axis=1)[:, :, None]
    workers = min(num_users, _usable_cpus())
    share = max(1, SAMPLE_BLOCK // workers)
    block = min(num_uses, share, max(1, 8 * share // num_levels))
    results: list = [None] * num_users
    failures: dict[int, BaseException] = {}

    def work(first: int, uniforms: np.ndarray, hits: np.ndarray) -> None:
        for k in range(first, num_users, workers):
            if failures:
                return
            try:
                blocks = _user_blocks(np.random.default_rng(children[k]), thresholds[k], num_uses, uniforms, hits)
                results[k] = tally(k + 1, blocks)
            except BaseException as exc:  # raised on the calling thread once every worker is joined
                failures[k] = exc
                return

    buffers = [(np.empty(block), np.empty((num_levels, block), dtype=bool)) for _ in range(workers)]
    threads = [threading.Thread(target=work, args=(i, *buffers[i])) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        work(0, *buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    has no affinity call): the one read of the worker count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    check_draws(num_uses, seed)
    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(stats.num_levels))

    def count(k: int, blocks: Iterator[tuple[int, np.ndarray]]) -> None:
        for start, hits in blocks:
            count_levels(hits, levels[k - 1, start : start + hits.shape[1]])

    level_hits(stats, num_uses, seed, count)
    levels.setflags(write=False)
    return StateRealization(
        num_users=stats.num_users,
        num_levels=stats.num_levels,
        num_uses=num_uses,
        seed=seed,
        levels=levels,
    )
