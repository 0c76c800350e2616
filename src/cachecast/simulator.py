"""Monte-Carlo validation of a delivery allocation against sampled states.

Each level's num_uses channel uses are split into contiguous spans, one per
message subset plus an idle tail, sized by largest-remainder apportionment
of the allocation's shares so the spans always sum to num_uses.  User k
collects the symbol of level l at use t exactly when its drawn level count
reaches l.  The channel is drawn with channel.level_hits (one RNG
substream per user), a block of uses at a time, on one worker per usable
CPU up to K, and each block's hits are tallied while the block is drawn,
so without keep_levels memory holds one block shared among the workers,
not n levels.  Each user's tally runs on its worker and the results are
merged in user order, so the report's bytes do not depend on the worker
count.  A message is decodable once its collected symbols cover its size:
delivered >= ceil(num_uses * rate / C(K,t)), with a tiny guard so an
exactly integer threshold is not pushed up by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Optional

import numpy as np

from .channel import ChannelStats, StateRealization, check_draws, count_levels, level_hits
from .channel import sample_states  # noqa: F401  perfbench/selftest.py reads it as simulator.sample_states
from .errors import InfeasibleAllocation
from .lp_scheme import DeliveryAllocation, Subset, check_allocation

CEIL_GUARD = 1e-9


@dataclass(frozen=True)
class MessageOutcome:
    """Delivery tally for one (user, subset) pair."""

    user: int
    subset: Subset
    delivered: int
    required: int
    empirical_margin: float
    analytic_margin: float
    std_error: float
    decodable: bool


@dataclass(frozen=True)
class SimulationReport:
    """Tally of one simulated delivery; realization holds the drawn levels
    when simulate_delivery was asked to keep them, and is None otherwise."""

    num_uses: int
    seed: int
    rate: float
    t: int
    messages: tuple[MessageOutcome, ...]
    user_decodable: tuple[bool, ...]
    empirical_ccdf: np.ndarray
    ccdf_std_error: np.ndarray
    realization: Optional[StateRealization]


def apportion(quotas: list[float], total: int) -> list[int]:
    """Integer split of `total` proportional to quotas, largest remainder."""
    floors = [max(0, math.floor(q)) for q in quotas]
    missing = total - sum(floors)
    counts = list(floors)
    step = 1 if missing > 0 else -1  # hand out by largest remainder, or trim by smallest
    order = sorted(range(len(quotas)), key=lambda i: (step * (floors[i] - quotas[i]), i))
    while missing:  # may need several passes when quotas under- or oversum
        for i in order:
            if missing == 0:
                break
            if counts[i] + step >= 0:
                counts[i] += step
                missing -= step
    return counts


def empirical_ccdf(realization: StateRealization) -> tuple[np.ndarray, np.ndarray]:
    """Per-user level-frequency estimates and their binomial standard errors.

    hat[k][l-1] is the share of uses on which user k got at least l levels,
    counted on the levels' own small dtype (no cast to a wide integer row).
    """
    B = realization.num_levels
    counts = [[np.count_nonzero(row > l) for l in range(B)] for row in realization.levels]
    return _ccdf_estimates(counts, realization.num_uses)


def _ccdf_estimates(counts: list[list[int]], num_uses: int) -> tuple[np.ndarray, np.ndarray]:
    hat = np.array(counts) / num_uses
    se = np.sqrt(hat * (1.0 - hat) / num_uses)
    return hat, se


def simulate_delivery(
    stats: ChannelStats,
    alloc: DeliveryAllocation,
    num_uses: int,
    seed: int,
    keep_levels: bool = False,
) -> SimulationReport:
    """Sample states and tally symbol delivery for every (user, subset) pair.

    The spans of every level are apportioned once; then each user's draws
    are tallied block by block, in one pass, on the worker that draws them
    (channel.level_hits): the hits of level l in a block
    mark the uses that deliver level l, and one count of them adds to the
    user's empirical CCDF count.  At each boundary of a span of the user's
    subsets that falls inside the block, one count of the level's hits up to
    the boundary gives the hits before it; a span's delivery is the
    difference of the counts at its two ends.  With keep_levels the same
    pass also writes the K x n levels, kept as the report's realization
    (the levels sample_states draws); the tallies are the same either way.

    A message's std_error is the standard deviation of delivered / n.
    Every level's spans are laid out in subset order from use 0, so one
    subset's spans on two levels share uses, and on a shared use the
    indicators L >= l are nested, hence correlated: the variance is the
    sum over level pairs of the shared uses times p[max(l, l')] - p[l] p[l'].
    """
    report = check_allocation(stats, alloc)
    if not report.feasible:
        raise InfeasibleAllocation(
            f"allocation fails its decodability or budget checks (largest violation {report.violation:.3g})"
        )

    check_draws(num_uses, seed)
    per_use_size = report.required
    required = math.ceil(num_uses * per_use_size - CEIL_GUARD)

    # Uses starts[l][j] up to starts[l][j + 1] of level l go to subset j.
    num_subsets = len(alloc.subsets)
    starts = []
    for l in range(stats.num_levels):
        quotas = [num_uses * float(alloc.shares[l, j]) for j in range(num_subsets)]
        quotas.append(max(0.0, num_uses * (1.0 - alloc.shares[l].sum())))
        starts.append([0, *accumulate(apportion(quotas, num_uses))])
    # overlap[j, l, l']: the uses that subset j's spans on levels l and l' share.
    bounds = np.array(starts).T
    first, last = bounds[:num_subsets], bounds[1 : num_subsets + 1]
    overlap = np.minimum(last[:, :, None], last[:, None, :]) - np.maximum(first[:, :, None], first[:, None, :])
    np.maximum(overlap, 0, out=overlap)
    deeper = np.maximum.outer(np.arange(stats.num_levels), np.arange(stats.num_levels))

    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(stats.num_levels)) if keep_levels else None

    def tally(k: int, blocks: Iterator[tuple[int, np.ndarray]]) -> tuple[list[int], dict, dict]:
        """User k's hits on each level, and delivered and variance of its messages."""
        mine = [(j, s) for j, s in enumerate(alloc.subsets) if k in s]
        # The span boundaries of the user's subsets, in use order; before[l, pos]
        # counts level l's hits on the uses before pos.
        marks = sorted({(starts[l][j + e], l) for l in range(stats.num_levels) for j, _ in mine for e in (0, 1)})
        before = {}
        seen = [0] * stats.num_levels  # each level's hits on the blocks so far
        at = 0
        for start, hits in blocks:
            stop = start + hits.shape[1]
            while at < len(marks) and marks[at][0] < stop:
                pos, l = marks[at]
                before[l, pos] = seen[l] + np.count_nonzero(hits[l, : pos - start])
                at += 1
            for l in range(stats.num_levels):
                seen[l] += np.count_nonzero(hits[l])
            if levels is not None:
                count_levels(hits, levels[k - 1, start:stop])
        for l in range(stats.num_levels):  # no block holds a boundary at num_uses
            before[l, num_uses] = seen[l]
        delivered = {
            (k, s): int(sum(before[l, starts[l][j + 1]] - before[l, starts[l][j]] for l in range(stats.num_levels)))
            for j, s in mine
        }
        # Cov(L >= l, L >= l') = p[max(l, l')] - p[l] p[l'] on a use both spans hold.
        p = stats.ccdf[k - 1]
        covariance = p[deeper] - np.outer(p, p)
        variance = {(k, s): float((overlap[j] * covariance).sum()) for j, s in mine}
        return seen, delivered, variance

    delivered = {}
    variance = {}
    counts = []
    for seen, got, spread in level_hits(stats, num_uses, seed, tally):  # in user order
        counts.append(seen)
        delivered.update(got)
        variance.update(spread)

    realization = None
    if levels is not None:
        levels.setflags(write=False)
        realization = StateRealization(stats.num_users, stats.num_levels, num_uses, seed, levels)

    messages = []
    user_ok = [True] * stats.num_users
    for s, margins in zip(alloc.subsets, report.margins.tolist()):
        for k, margin in zip(s, margins):
            got_count = delivered[(k, s)]
            outcome = MessageOutcome(
                user=k,
                subset=s,
                delivered=got_count,
                required=required,
                empirical_margin=got_count / num_uses - per_use_size,
                analytic_margin=margin,
                std_error=math.sqrt(variance[(k, s)]) / num_uses,
                decodable=got_count >= required,
            )
            messages.append(outcome)
            if not outcome.decodable:
                user_ok[k - 1] = False

    hat, se = _ccdf_estimates(counts, num_uses)
    return SimulationReport(
        num_uses=num_uses,
        seed=seed,
        rate=alloc.rate,
        t=alloc.t,
        messages=tuple(messages),
        user_decodable=tuple(user_ok),
        empirical_ccdf=hat,
        ccdf_std_error=se,
        realization=realization,
    )
