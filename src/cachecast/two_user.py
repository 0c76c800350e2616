"""Exact source rate for two users with symmetric caches of size mu.

For mu <= 1/2 the optimum is a minimum of two one-parameter fractional
programs over a weight omega that trades the two users off: with

    N(w) = sum_l max(w * F1(l), F2(l))

(the weighted-maximum numerator; level l contributes w*F1(l) when
w*F1(l) >= F2(l), else F2(l)) the optimum is

    min( min_{w >= 1}    N(w) / (w*(1-mu) + (1-2mu)),
         min_{0<=w<=1}   N(w) / (w*(1-2mu) + (1-mu)) ).

Each objective is a ratio of affine functions of w between consecutive
breakpoints g(l) = F2(l)/F1(l) and is continuous at them, so the minimum
over each domain is attained on the breakpoint grid augmented with the
domain endpoints; the w -> infinity limit is sum(F1)/(1-mu).

For mu >= 1/2 caches are large enough that the optimum collapses to
min_i sum(Fi) / (1-mu).

The same value is achieved by splitting the level band at two positions of
the g-sorted level order: user 1's uncached data rides the bottom of the
band, user 2's the top, and the middle carries the common part (each user's
missing data xor'd into what the other has cached).  f1 maximizes the rate
of the (user-1 bottom split, user-2 top remainder) pair and f2 the mirror
image; min(f1*, f2*) matches the fractional optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _fractional_min(f1: np.ndarray, f2: np.ndarray, mu: float) -> float:
    """Minimum of the two fractional programs over their breakpoint grids."""
    alive = (f1 > 0.0) | (f2 > 0.0)
    a, b = f1[alive], f2[alive]
    breakpoints = sorted({float(b[i] / a[i]) for i in range(a.size) if a[i] > 0.0})

    def numerator(w: float) -> float:
        return float(np.maximum(w * a, b).sum())

    one_minus_mu = 1.0 - mu
    one_minus_2mu = 1.0 - 2.0 * mu
    best = float(a.sum()) / one_minus_mu  # w -> infinity limit of the first program
    for w in [1.0] + [g for g in breakpoints if g > 1.0]:
        best = min(best, numerator(w) / (w * one_minus_mu + one_minus_2mu))
    for w in [0.0, 1.0] + [g for g in breakpoints if 0.0 < g < 1.0]:
        best = min(best, numerator(w) / (w * one_minus_2mu + one_minus_mu))
    return best


def optimal_rate_two_user(stats: ChannelStats, mu: float) -> float:
    """Largest achievable per-file rate for two users at cache size mu."""
    f1, f2 = _check_two_user(stats)
    if not 0.0 <= mu <= 1.0:
        raise MuOutOfRange("mu must lie in [0, 1]")
    if mu >= 0.5:
        if mu == 1.0:
            return math.inf
        return min(float(f1.sum()), float(f2.sum())) / (1.0 - mu)
    return _fractional_min(f1, f2, mu)


def achievable_allocation_two_user(stats: ChannelStats, mu: float) -> TwoUserAllocation:
    """Concrete band split whose rate matches optimal_rate_two_user (mu <= 1/2)."""
    f1, f2 = _check_two_user(stats)
    if not 0.0 <= mu <= 0.5:
        raise MuOutOfRange("allocation construction requires mu in [0, 1/2]")

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

    prefix_a = np.concatenate([[0.0], np.cumsum(a)])   # prefix_a[i] = sum a[:i]
    suffix_b = np.concatenate([np.cumsum(b[::-1])[::-1], [0.0]])  # suffix_b[i] = sum b[i:]

    def ind_cap(x: float) -> float:
        return x / one_minus_2mu if one_minus_2mu > 0.0 else math.inf

    def split_user1(pos: int) -> tuple[float, float]:
        """Best alpha at position pos and the resulting min of the two caps."""
        p1, s2 = prefix_a[pos], suffix_b[pos + 1]
        au, bu = a[pos], b[pos]
        if one_minus_2mu == 0.0:
            alpha = 0.0
        else:
            denom = au * one_minus_mu + bu * one_minus_2mu
            alpha = ((s2 + bu) * one_minus_2mu - p1 * one_minus_mu) / denom
            alpha = min(1.0, max(0.0, alpha))
        value = min(ind_cap(p1 + alpha * au), (s2 + (1.0 - alpha) * bu) / one_minus_mu)
        return alpha, value

    def split_user2(pos: int) -> tuple[float, float]:
        p1, s2 = prefix_a[pos], suffix_b[pos + 1]
        av, bv = a[pos], b[pos]
        if one_minus_2mu == 0.0:
            beta = 0.0
        else:
            denom = av * one_minus_2mu + bv * one_minus_mu
            beta = ((p1 + av) * one_minus_2mu - s2 * one_minus_mu) / denom
            beta = min(1.0, max(0.0, beta))
        value = min((p1 + (1.0 - beta) * av) / one_minus_mu, ind_cap(s2 + beta * bv))
        return beta, value

    # Equal-value plateaus are real (adjacent splits describe the same
    # assignment), but roundoff perturbs them; pick maximizers with a
    # relative tolerance so u is the first plateau position and v the last.
    splits1 = [split_user1(pos) for pos in range(nb)]
    f1_star = max(value for _, value in splits1)
    tie1 = 1e-12 * max(1.0, abs(f1_star))
    best_u = next(pos for pos in range(nb) if splits1[pos][1] >= f1_star - tie1)
    best_alpha = splits1[best_u][0]

    splits2 = [split_user2(pos) for pos in range(nb)]
    f2_star = max(value for _, value in splits2)
    tie2 = 1e-12 * max(1.0, abs(f2_star))
    best_v = max(pos for pos in range(nb) if splits2[pos][1] >= f2_star - tie2)
    best_beta = splits2[best_v][0]

    rate = min(f1_star, f2_star)
    p1u, s2u = prefix_a[best_u], suffix_b[best_u + 1]
    p1v, s2v = prefix_a[best_v], suffix_b[best_v + 1]
    margins = (
        p1u + best_alpha * a[best_u] - one_minus_2mu * rate,
        (1.0 - best_alpha) * b[best_u] + s2u - one_minus_mu * rate,
        s2v + best_beta * b[best_v] - one_minus_2mu * rate,
        p1v + (1.0 - best_beta) * a[best_v] - one_minus_mu * rate,
    )
    return TwoUserAllocation(
        rate=rate,
        f1=f1_star,
        f2=f2_star,
        u=best_u + 1,
        v=best_v + 1,
        alpha=best_alpha,
        beta=best_beta,
        level_order=tuple(l + 1 for l in order),
        individual_size=one_minus_2mu * rate,
        common_size=mu * rate,
        margins=margins,
    )
