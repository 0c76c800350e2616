"""Monte-Carlo validation of a delivery allocation against sampled states.

Each level's num_uses channel uses are split into contiguous spans, one per
message subset plus an idle tail, sized by largest-remainder apportionment
of the allocation's shares so the spans always sum to num_uses.  User k
collects the symbol of level l at use t exactly when its drawn level count
reaches l.  Every tally depends on user k's levels only through how many
uses of each piece reach each level, a piece being the stretch of uses
between two consecutive boundaries of the spans of k's subsets (on any
level, with 0 and num_uses).  The uses are i.i.d., so a piece's counts of
the levels 0..B are multinomial, and simulate_delivery draws them directly
(Devroye, Non-Uniform Random Variate Generation, 1986, ch. XI): one
rng.multinomial call per user over its pieces, from one child of
SeedSequence(seed) per user, in user order.  Exact in distribution, it
costs O(K * pieces) draws and memory, not O(K * n).  With keep_levels each
piece's counts are laid out as one intp buffer of that piece's length,
shuffled with the same generator after the user's multinomial draw, and
copied into the user's row of levels: the uses inside a piece are
exchangeable, so the levels are an exact i.i.d. realization, and the
tallies are the same with and without them.  Generator.shuffle makes the
same draws on any item size but runs fastest on intp items, so the levels
are those of an in-place shuffle of the row's own slice; the buffer holds
one piece, never a row, so memory stays within the K x n levels plus 8
bytes a use of the longest piece.  They are not the levels
channel.sample_states draws with the same seed.  A message
is decodable once its collected symbols cover its size:
delivered >= ceil(num_uses * rate / C(K,t)), with a tiny guard so an
exactly integer threshold is not pushed up by roundoff.

The report holds one array per tally in check_allocation's layout: entry
[j, i] is the message of subset j (row j of alloc.subsets, lexicographic)
to its member i (ascending), shape (C(K,t+1), t+1).  The symbol counts are
int64, so B * num_uses must stay below 2^63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .channel import ChannelStats, check_draws
from .channel import sample_states  # noqa: F401  perfbench/selftest.py reads it as simulator.sample_states
from .errors import InfeasibleAllocation
from .lp_scheme import DeliveryAllocation, check_allocation, message_subsets

CEIL_GUARD = 1e-9


@dataclass(frozen=True)
class SimulationReport:
    """Tally of one simulated delivery.

    The per-message arrays have check_allocation's (subset j, member i)
    layout of alloc.subsets, shape (C(K,t+1), t+1): entry [j, i] is member
    i (ascending) of subset j.  delivered counts the symbols the
    member collects of its message (int64), required the symbols every
    message needs; empirical_margin is delivered / num_uses minus the
    per-use size, analytic_margin check_allocation's margins and std_error
    the standard deviation of delivered / num_uses.  user_decodable[k-1]
    is whether every message of user k is decodable.  levels is the K x n
    array of drawn levels when simulate_delivery was asked to keep them,
    and None otherwise.
    """

    num_uses: int
    seed: int
    rate: float
    t: int
    required: int
    delivered: np.ndarray
    empirical_margin: np.ndarray
    analytic_margin: np.ndarray
    std_error: np.ndarray
    decodable: np.ndarray
    user_decodable: np.ndarray
    empirical_ccdf: np.ndarray
    ccdf_std_error: np.ndarray
    levels: Optional[np.ndarray]


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


def empirical_ccdf(levels: np.ndarray, num_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-user level-frequency estimates and their binomial standard errors
    from the K x n levels of a B = num_levels channel.

    hat[k][l-1] is the share of uses on which user k got at least l levels,
    counted on the levels' own small dtype (no cast to a wide integer row).
    """
    counts = [[np.count_nonzero(row > l) for l in range(num_levels)] for row in levels]
    return _ccdf_estimates(counts, levels.shape[1])


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
    """Sample states and tally symbol delivery for every (subset, member) pair.

    The spans of every level are apportioned once.  Then, user by user,
    one multinomial draw gives the uses of each piece at each level count
    (see the module docstring); a piece's hits on level l are its uses at
    counts >= l, and their prefix sums at the piece boundaries give each
    span's delivery as the difference of two sums, and the user's empirical
    CCDF counts as the sums at num_uses.  With keep_levels the K x n levels
    are kept as the report's levels; the tallies are the same either way.

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

    # Uses starts[l][j] up to starts[l][j + 1] of level l go to subset j.  The
    # check above has found alloc.subsets equal to message_subsets' array.
    members, num_levels = message_subsets(alloc.num_users, alloc.t), stats.num_levels
    num_subsets = len(members)
    starts = []
    for l in range(num_levels):
        quotas = [num_uses * float(alloc.shares[l, j]) for j in range(num_subsets)]
        quotas.append(max(0.0, num_uses * (1.0 - alloc.shares[l].sum())))
        starts.append([0, *accumulate(apportion(quotas, num_uses))])
    starts = np.array(starts)
    # overlap[j, l, l']: the uses that subset j's spans on levels l and l' share.
    first, last = starts.T[:num_subsets], starts.T[1 : num_subsets + 1]
    overlap = np.minimum(last[:, :, None], last[:, None, :]) - np.maximum(first[:, :, None], first[:, None, :])
    np.maximum(overlap, 0, out=overlap)
    deeper = np.maximum.outer(np.arange(num_levels), np.arange(num_levels))
    on_level = np.arange(num_levels)[:, None]

    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(num_levels)) if keep_levels else None
    # law[k, v] = P(L_k = v), v = 0..B, off the row's cumulative minimum.
    law = np.maximum(0.0, -np.diff(np.minimum.accumulate(stats.ccdf, axis=1), axis=1, prepend=1.0, append=0.0))
    law /= law.sum(axis=1, keepdims=True)
    delivered = np.zeros(members.shape, dtype=np.int64)
    variance = np.zeros(members.shape)
    counts = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(stats.num_users), start=1):
        rng = np.random.default_rng(child)
        mine, place = np.nonzero(members == k)  # user k is member place[i] of subset mine[i]
        cuts = np.array(sorted(set(starts[:, np.concatenate([mine, mine + 1, [0, -1]])].flat)))  # with 0 and n
        drawn = rng.multinomial(np.diff(cuts), law[k - 1])  # (pieces, B + 1)
        # A piece's hits on level l are its uses at counts >= l; prefix[c, l]
        # sums level l's hits on the uses before cuts[c].
        prefix = np.zeros((cuts.size, num_levels), dtype=np.int64)
        np.cumsum(np.cumsum(drawn[:, :0:-1], axis=1)[:, ::-1], axis=0, out=prefix[1:])
        counts.append(prefix[-1].tolist())
        at = np.searchsorted(cuts, starts)  # each span boundary's cut, where it is one
        delivered[mine, place] = (prefix[at[:, mine + 1], on_level] - prefix[at[:, mine], on_level]).sum(axis=0)
        # Cov(L >= l, L >= l') = p[max(l, l')] - p[l] p[l'] on a use both spans hold.
        p = stats.ccdf[k - 1]
        covariance = p[deeper] - np.outer(p, p)
        variance[mine, place] = (overlap[mine] * covariance).reshape(mine.size, -1).sum(axis=1)
        if levels is not None:
            row, values = levels[k - 1], np.arange(num_levels + 1)
            for a, b, piece in zip(cuts, cuts[1:], drawn):
                # Generator.shuffle makes the same draws on any item size,
                # but is fastest on intp items: shuffle the piece there.
                buffer = np.repeat(values, piece)
                rng.shuffle(buffer)
                row[a:b] = buffer
                del buffer  # before the next piece's buffer is made
    if levels is not None:
        levels.setflags(write=False)

    decodable = delivered >= required
    user_decodable = np.ones(stats.num_users, dtype=bool)
    np.logical_and.at(user_decodable, members - 1, decodable)
    hat, se = _ccdf_estimates(counts, num_uses)
    return SimulationReport(
        num_uses=num_uses,
        seed=seed,
        rate=alloc.rate,
        t=alloc.t,
        required=required,
        delivered=delivered,
        empirical_margin=delivered / num_uses - per_use_size,
        analytic_margin=report.margins,
        std_error=np.sqrt(variance) / num_uses,
        decodable=decodable,
        user_decodable=user_decodable,
        empirical_ccdf=hat,
        ccdf_std_error=se,
        levels=levels,
    )
