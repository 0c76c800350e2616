"""Optimal central-placement rate when users form a dominance chain.

If some ordering of the users (weakest first) makes every CCDF dominate the
previous one levelwise, each stronger user can reuse all symbols collected
by weaker ones, and only per-user residuals need dedicated air time.  With
integer t = K*mu and gap_k = 1 - coverage of the first k caches in the
chain, the best rate solves

    maximize f
    s.t.     gap_k * f <= sum_l z[l][k] * ccdf[k][l]   for every user k
             sum_k z[l][k] <= 1                         for every level l
             z >= 0,

where z[l][k] is the fraction of level l's channel uses devoted to user k's
residual data.  No LP is built here: this one is the dual side of the
upper bound's LP at the chain ordering (Charnes and Cooper), which
upper_bound.chain_optimum solves, reading the rate off its value and z
off its duals.  z_to_y turns the per-user shares into the per-subset shares
of the general delivery scheme: subset S's message rides on the share of
its weakest member k = min(S), split evenly over the C(K-k, t) subsets
whose weakest member is k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .caching import cache_size
from .channel import ChannelStats, is_stochastically_dominant
from .errors import InfeasibleZ, LengthMismatch, NotDegraded
from .lp import FEAS_TOL
from .lp_scheme import DeliveryAllocation, message_subsets, t_from_mu
from .upper_bound import chain_optimum, check_permutation


@dataclass(frozen=True)
class ZAllocation:
    """Per-user level time shares achieving `rate` on a dominance chain.

    z has shape (B, K) with users in chain order (weakest first);
    user_order maps chain position to the original 1-based user id.
    """

    rate: float
    z: np.ndarray
    user_order: tuple[int, ...]
    t: int
    mu: Fraction


def degraded_order(stats: ChannelStats) -> tuple[int, ...]:
    """Original user ids sorted weakest first; NotDegraded if no chain exists."""
    ids = sorted(
        range(1, stats.num_users + 1),
        key=lambda k: (float(stats.ccdf[k - 1].sum()), k),
    )
    for prev, nxt in zip(ids, ids[1:]):
        if not is_stochastically_dominant(stats.row(nxt), stats.row(prev)):
            raise NotDegraded(
                f"users {prev} and {nxt} are not levelwise comparable"
            )
    return tuple(ids)


def chain_stats(stats: ChannelStats, order: Sequence[int]) -> ChannelStats:
    """Stats with rows permuted into the given 1-based user order; OutOfRange unless it is a permutation of 1..K."""
    ccdf = stats.ccdf[np.array(check_permutation(stats.num_users, order)) - 1]
    ccdf.setflags(write=False)
    return ChannelStats(num_users=stats.num_users, num_levels=stats.num_levels, ccdf=ccdf)


def degraded_optimal_rate(stats: ChannelStats, mu) -> ZAllocation:
    """Best rate over per-user level time shares at exact cache size mu."""
    mu = cache_size(mu)
    t = t_from_mu(stats.num_users, mu)
    order = degraded_order(stats)
    rate, z = chain_optimum(chain_stats(stats, order), mu)
    z.setflags(write=False)
    return ZAllocation(rate=rate, z=z, user_order=order, t=t, mu=mu)


def z_to_y(
    z: Sequence[Sequence[float]],
    num_users: int,
    t: int,
    rate: float,
) -> DeliveryAllocation:
    """Refine per-user shares into the per-subset delivery allocation.

    Requires z to carry no mass on users k > K - t: no size-(t+1) subset has
    such a user as its weakest member (equivalently their coverage gap is
    zero and they need no air time).
    """
    z = np.asarray(z, dtype=float)
    K = num_users
    if z.ndim != 2 or z.shape[1] != K:
        raise LengthMismatch(f"z must have one column per user, got {z.shape}")
    subsets = message_subsets(K, t)
    if not np.all(z >= -FEAS_TOL):  # also refuses NaN
        raise InfeasibleZ("time shares must be nonnegative numbers")
    if not np.all(z.sum(axis=1) <= 1.0 + FEAS_TOL):
        raise InfeasibleZ("level time shares exceed the budget")
    if np.any(np.abs(z[:, K - t:]) > FEAS_TOL):
        raise InfeasibleZ(
            f"users above {K - t} cannot anchor any size-{t + 1} subset"
        )

    weakest = subsets[:, 0] - 1  # the chain position of each subset's weakest member
    shares = z[:, weakest] / np.array([math.comb(K - 1 - k, t) for k in range(K - t)], dtype=float)[weakest]
    shares.setflags(write=False)
    return DeliveryAllocation(
        num_users=K,
        num_levels=z.shape[0],
        t=t,
        subsets=subsets,
        shares=shares,
        rate=rate,
    )
