"""Exact source rate for two users with symmetric caches of size mu.

For mu <= 1/2 the optimum is the rate of a band split.  Sort the live
levels by g(l) = F2(l)/F1(l) and split the band at two positions of that
order: user 1's uncached data rides the bottom of the band, user 2's the
top, and the middle carries the common part (each user's missing data
xor'd into what the other has cached).  f1 maximizes the rate of the
(user-1 bottom split, user-2 top remainder) pair and f2 the mirror image;
the split's rate min(f1*, f2*) is the optimum, and optimal_rate_two_user
returns it.

That the split is optimal is the paper's sandwich: it meets the
weighted-maximum converse, which at K = 2, with
N(w) = sum_l max(w * F1(l), F2(l)), reads

    min( min_{w >= 1}    N(w) / (w*(1-mu) + (1-2mu)),
         min_{0<=w<=1}   N(w) / (w*(1-2mu) + (1-mu)) ).

The package computes that converse once, as upper_bound.upper_bound_rate
at the central placement, and the tests check that the split's rate meets
it at K = 2 (tests/helpers.py check_two_user_instance).

For mu > 1/2 no split exists: caches are large enough that the optimum
collapses to min_i sum(Fi) / (1-mu), and at mu = 1 it is unbounded.

The split is exact at every scale: its tie tolerance is relative to the
rate, and each share of a split level has its own closed form, so a grid
times a power of two 2^-e gives the same split and 2^-e times its rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caching import cache_size
from .channel import ChannelStats
from .errors import MuOutOfRange, NotTwoUser


@dataclass(frozen=True)
class TwoUserAllocation:
    """Band split achieving rate = min(f1, f2).

    level_order lists 1-based level ids sorted by g(l) nondecreasing (dead
    levels with F1 = F2 = 0 dropped).  Positions u and v are 1-based indices
    into that order; alpha (resp. beta) is the share of position u (resp. v)
    given to user 1's (resp. user 2's) uncached data.  margins are the four
    decodability slacks at `rate` (individual-1, common-at-2, individual-2,
    common-at-1), all nonnegative.
    """

    rate: float
    f1: float
    f2: float
    u: int
    v: int
    alpha: float
    beta: float
    level_order: tuple[int, ...]
    individual_size: float
    common_size: float
    margins: tuple[float, float, float, float]


def _check_two_user(stats: ChannelStats) -> tuple[np.ndarray, np.ndarray]:
    if stats.num_users != 2:
        raise NotTwoUser(f"expected 2 users, got {stats.num_users}")
    return stats.ccdf[0], stats.ccdf[1]


def _best_split(
    a: np.ndarray, b: np.ndarray, one_minus_mu: float, one_minus_2mu: float
) -> tuple[int, float, float, float, float]:
    """Best split with user 1's uncached data (a) at the bottom of the band and user 2's (b) at the top.

    Returns the first 0-based position within a relative 1e-12 of the best
    rate, the share alpha of it given to user 1, the best rate, and user 1's
    individual and user 2's common mass at that split.  The complement
    share 1 - alpha has a closed form of its own, used where alpha is not
    clipped, so neither share loses digits where the other is near 1.
    """
    prefix_a = np.concatenate([[0.0], np.cumsum(a)])  # prefix_a[i] = sum a[:i]
    suffix_b = np.concatenate([np.cumsum(b[::-1])[::-1], [0.0]])  # suffix_b[i] = sum b[i:]
    splits = []
    for pos in range(a.size):
        p1, s2 = prefix_a[pos], suffix_b[pos + 1]
        au, bu = a[pos], b[pos]
        if one_minus_2mu == 0.0:
            alpha, rest = 0.0, 1.0
        else:
            denom = au * one_minus_mu + bu * one_minus_2mu
            alpha = ((s2 + bu) * one_minus_2mu - p1 * one_minus_mu) / denom
            rest = ((p1 + au) * one_minus_mu - s2 * one_minus_2mu) / denom  # 1 - alpha
            if not 0.0 <= alpha <= 1.0:
                alpha = min(1.0, max(0.0, alpha))
                rest = 1.0 - alpha
            rest = min(1.0, max(0.0, rest))
        individual, common = p1 + alpha * au, s2 + rest * bu
        cap = individual / one_minus_2mu if one_minus_2mu > 0.0 else math.inf
        splits.append((alpha, min(cap, common / one_minus_mu), individual, common))
    # Equal-value plateaus are real (adjacent splits describe the same
    # assignment), but roundoff perturbs them; pick the first maximizer with
    # a relative tolerance.
    best = max(value for _, value, _, _ in splits)
    tie = 1e-12 * abs(best)
    pos = next(pos for pos, split in enumerate(splits) if split[1] >= best - tie)
    alpha, _, individual, common = splits[pos]
    return pos, alpha, best, individual, common


def optimal_rate_two_user(stats: ChannelStats, mu: float) -> float:
    """Largest achievable per-file rate for two users at cache size mu: the
    band split's rate for mu <= 1/2, min_i sum(Fi) / (1-mu) above."""
    f1, f2 = _check_two_user(stats)
    mu = cache_size(mu)
    if mu <= 0.5:
        return achievable_allocation_two_user(stats, mu).rate
    if mu == 1:
        return math.inf
    return min(float(f1.sum()), float(f2.sum())) / (1.0 - float(mu))


def achievable_allocation_two_user(stats: ChannelStats, mu: float) -> TwoUserAllocation:
    """The band split that attains the two-user optimum (mu <= 1/2)."""
    f1, f2 = _check_two_user(stats)
    mu = cache_size(mu)
    if mu > 0.5:
        raise MuOutOfRange("allocation construction requires mu in [0, 1/2]")
    mu = float(mu)

    keep = [l for l in range(stats.num_levels) if f1[l] > 0.0 or f2[l] > 0.0]
    g = {l: (f2[l] / f1[l] if f1[l] > 0.0 else math.inf) for l in keep}
    order = sorted(keep, key=lambda l: (g[l], l))
    a = f1[order]
    b = f2[order]
    nb = len(order)
    one_minus_mu = 1.0 - mu
    one_minus_2mu = 1.0 - 2.0 * mu

    if nb == 0:
        return TwoUserAllocation(
            rate=0.0, f1=0.0, f2=0.0, u=0, v=0, alpha=0.0, beta=0.0,
            level_order=(), individual_size=0.0, common_size=0.0,
            margins=(0.0, 0.0, 0.0, 0.0),
        )

    # User 2's split is user 1's on the mirrored level order (a' = b[::-1],
    # b' = a[::-1]): its first best position w there is the last best one,
    # nb - 1 - w, in the level order.
    u, alpha, f1_star, individual1, common1 = _best_split(a, b, one_minus_mu, one_minus_2mu)
    w, beta, f2_star, individual2, common2 = _best_split(b[::-1], a[::-1], one_minus_mu, one_minus_2mu)
    rate = min(f1_star, f2_star)
    margins = (
        individual1 - one_minus_2mu * rate,
        common1 - one_minus_mu * rate,
        individual2 - one_minus_2mu * rate,
        common2 - one_minus_mu * rate,
    )
    return TwoUserAllocation(
        rate=rate,
        f1=f1_star,
        f2=f2_star,
        u=u + 1,
        v=nb - w,
        alpha=alpha,
        beta=beta,
        level_order=tuple(l + 1 for l in order),
        individual_size=one_minus_2mu * rate,
        common_size=mu * rate,
        margins=margins,
    )
