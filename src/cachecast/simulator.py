"""Monte-Carlo validation of a delivery allocation against sampled states.

The channel is drawn user by user with user_levels (one RNG substream per
user), into one reused row, so memory holds one user's n levels rather than
all K x n; sample_states draws the same levels as one matrix when a caller
asks to keep them.  Each level's num_uses channel uses are split into
contiguous spans, one per message subset plus an idle tail, sized by
largest-remainder apportionment of the allocation's shares so the spans
always sum to num_uses.  User k collects the symbol of level l at use t
exactly when its drawn level count reaches l.  A message is decodable once
its collected symbols cover its size: delivered >= ceil(num_uses * rate /
C(K,t)), with a tiny guard so an exactly integer threshold is not pushed up
by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .channel import ChannelStats, StateRealization, sample_states, user_levels
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
    fractional = [q - f for q, f in zip(quotas, floors)]
    missing = total - sum(floors)
    counts = list(floors)
    if missing > 0:
        order = sorted(range(len(quotas)), key=lambda i: (-fractional[i], i))
        given = 0
        while given < missing:  # may need several passes when quotas undersum
            for i in order:
                if given == missing:
                    break
                counts[i] += 1
                given += 1
    elif missing < 0:
        order = sorted(range(len(quotas)), key=lambda i: (fractional[i], i))
        taken = 0
        while taken < -missing:  # may need several passes when quotas oversum
            for i in order:
                if taken == -missing:
                    break
                if counts[i] > 0:
                    counts[i] -= 1
                    taken += 1
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

    The spans of every level are apportioned once; then each user's levels
    are drawn and tallied in turn: one comparison per level marks the uses
    that deliver that level, its count is the user's empirical CCDF entry,
    and its counts over the spans of the user's subsets are the deliveries.
    With keep_levels the K x n levels come from sample_states and are kept
    as the report's realization; the tallies are the same either way.

    A message's std_error is the standard deviation of delivered / n.
    Every level's spans are laid out in subset order from use 0, so one
    subset's spans on two levels share uses, and on a shared use the
    indicators L >= l are nested, hence correlated: the variance is the
    sum over level pairs of the shared uses times p[max(l, l')] - p[l] p[l'].
    """
    report = check_allocation(stats, alloc)
    if not report.feasible:
        raise InfeasibleAllocation("allocation fails its decodability or budget checks")

    if keep_levels:
        realization = sample_states(stats, num_uses, seed)
        rows = realization.levels
    else:
        realization = None
        rows = user_levels(stats, num_uses, seed)
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
    levels = np.arange(stats.num_levels)
    deeper = np.maximum.outer(levels, levels)

    delivered = {(k, s): 0 for s in alloc.subsets for k in s}
    variance = {}
    counts = []
    hit = np.empty(num_uses, dtype=bool)
    for k, row in enumerate(rows, start=1):
        mine = [(j, s) for j, s in enumerate(alloc.subsets) if k in s]
        counts.append([])
        for l in range(stats.num_levels):
            np.greater(row, l, out=hit)
            counts[-1].append(np.count_nonzero(hit))
            for j, s in mine:
                delivered[(k, s)] += int(np.count_nonzero(hit[starts[l][j] : starts[l][j + 1]]))
        # Cov(L >= l, L >= l') = p[max(l, l')] - p[l] p[l'] on a use both spans hold.
        p = stats.ccdf[k - 1]
        covariance = p[deeper] - np.outer(p, p)
        for j, s in mine:
            variance[(k, s)] = float((overlap[j] * covariance).sum())

    messages = []
    user_ok = [True] * stats.num_users
    for s in alloc.subsets:
        for k in s:
            got_count = delivered[(k, s)]
            outcome = MessageOutcome(
                user=k,
                subset=s,
                delivered=got_count,
                required=required,
                empirical_margin=got_count / num_uses - per_use_size,
                analytic_margin=report.margins[(k, s)],
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
