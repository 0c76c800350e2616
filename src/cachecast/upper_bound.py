"""Information-theoretic ceiling on the per-file source rate.

For any nonnegative user weights w (sorted nonincreasing by the ordering pi)
the rate cannot exceed

    sum_l max_k w[pi(k)] * ccdf[pi(k)][l]
    -----------------------------------------------
    sum_k w[pi(k)] * (1 - coverage(pi(1..k)))

where coverage(Q) is the cache-union measure of the first k users in the
ordering.  objective_at evaluates this at one weight vector; the tight bound
minimizes over all weights, which separates into one small LP per ordering.
Substituting sigma_k = w[pi(k)]*(1 - coverage(pi(1..k))) and upper-bounding
each level's weighted maximum by theta_l turns the ratio over weights
consistent with pi into sum_l theta_l / sum_k sigma_k, subject to

    sigma_k * ccdf[pi(k)][l] <= (1 - coverage(pi(1..k))) * theta_l
    sigma_k * (1 - coverage(pi(1..k-1))) <= sigma_{k-1} * (1 - coverage(pi(1..k)))
    sigma, theta >= 0.

Every row is homogeneous, so the ratio can be normalised on either side
(Charnes and Cooper): min {sum theta : sum sigma = 1} equals
1 / max {sum sigma : sum theta <= 1}.  The LP solved is the second,

    minimize -sum_k sigma_k   s.t. the rows above,  sum_l theta_l <= 1,

whose rhs is nonnegative, so it starts feasible at x = 0; the ordering's
value is -1 / (its optimum).  sigma_k is pinned to zero (its column and
cost zeroed) wherever its coverage factor is exactly one.  The LP is
unbounded exactly when the first user's CCDF row is all zero: sigma_1
then grows with every theta at 0, and the ordering's value is 0 with all
weight on that user.  upper_bound_rate tabulates the gap of every user
subset once, builds the K! orderings' LPs with numpy from that table, one
lockstep stack (lp.stack_size orderings) per lp.solve_lps call, and reports
the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import inf
from typing import Sequence

import numpy as np

from .caching import CachingTuple
from .channel import ChannelStats
from .errors import (
    LengthMismatch,
    NumericalFailure,
    OutOfRange,
    TooManyUsers,
    UnexpectedLpStatus,
    ZeroDenominator,
)
from .lp import FEAS_TOL, OPTIMAL, UNBOUNDED, LpProblem, solve_lps, stack_size

MAX_BOUND_USERS = 8


@dataclass(frozen=True)
class UpperBoundReport:
    """Minimum over orderings, per-ordering table, and recovered weights.

    omega_star is scaled so its smallest positive entry is 1; it is flagged
    non-unique when more than one ordering attains the minimum within
    FEAS_TOL.  Entries of `table` follow lexicographic ordering order.
    """

    value: float
    argmin_pi: tuple[int, ...]
    table: tuple[tuple[tuple[int, ...], float], ...]
    omega_star: tuple[float, ...]
    omega_star_unique: bool


def _cover_table(stats: ChannelStats, tup: CachingTuple) -> tuple[np.ndarray, np.ndarray]:
    """Gap (1 - coverage, as a float) and full-coverage flag of every subset.

    Both are indexed by the subset's bitmask, bit k-1 standing for user k.
    """
    if tup.num_users != stats.num_users:
        raise LengthMismatch(f"caching tuple for {tup.num_users} users, channel of {stats.num_users}")
    gaps = np.zeros(1 << tup.num_users)
    full = np.zeros(1 << tup.num_users, dtype=bool)
    for users, coverage in tup.coverage.items():
        mask = sum(1 << (k - 1) for k in users)
        gaps[mask] = float(1 - coverage)
        full[mask] = coverage == 1  # exact: coverage is a Fraction
    return gaps, full


def _prefix_masks(orderings: np.ndarray) -> np.ndarray:
    """Bitmask of each leading slice pi(1..k) of each ordering (last axis)."""
    return np.bitwise_or.accumulate(1 << (orderings - 1), axis=-1)


def _check_permutation(num_users: int, pi: Sequence[int]) -> tuple[int, ...]:
    pi = tuple(int(k) for k in pi)
    if sorted(pi) != list(range(1, num_users + 1)):
        raise OutOfRange(f"not a permutation of 1..{num_users}: {pi}")
    return pi


def objective_at(stats: ChannelStats, tup: CachingTuple, weights: Sequence[float]) -> float:
    """Bound value at one weight vector (users sorted by weight, stable)."""
    w = np.asarray(weights, dtype=float)
    if w.size != stats.num_users:
        raise LengthMismatch("need one weight per user")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise OutOfRange("weights must be finite and nonnegative")
    order = sorted(range(1, stats.num_users + 1), key=lambda k: (-w[k - 1], k))
    gaps = _cover_table(stats, tup)[0][_prefix_masks(np.array(order))]
    denominator = sum(w[k - 1] * gap for k, gap in zip(order, gaps))
    if denominator <= 0.0:
        raise ZeroDenominator("no user carries weight over an uncovered cache gap")
    numerator = float(np.max(w[:, None] * stats.ccdf, axis=0).sum())
    return numerator / denominator


def _permutation_lps(
    stats: ChannelStats, orderings: np.ndarray, gaps: np.ndarray, full: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-ordering LPs of an (L, K) array of orderings as one stack: c, a_ub, b_ub.

    c is (L, K+B), a_ub (L, K*B+K, K+B) and b_ub the (K*B+K,) rhs they share.
    """
    size, K = orderings.shape
    B = stats.num_levels
    decode = np.arange(K * B)
    chain = np.arange(K - 1)
    a_ub = np.zeros((size, K * B + K, K + B))
    a_ub[:, decode, decode // B] = stats.ccdf[orderings - 1].reshape(size, K * B)
    a_ub[:, decode, K + decode % B] = -np.repeat(gaps, B, axis=1)
    a_ub[:, K * B + chain, chain] = -gaps[:, 1:]
    a_ub[:, K * B + chain, chain + 1] = gaps[:, :-1]
    a_ub[:, -1, K:] = 1.0
    b_ub = np.zeros(K * B + K)
    b_ub[-1] = 1.0
    c = np.zeros((size, K + B))
    c[:, :K] = -1.0
    lps, pinned = np.nonzero(full)
    a_ub[lps, :, pinned] = 0.0
    c[lps, pinned] = 0.0
    return c, a_ub, b_ub


def build_permutation_lp(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> LpProblem:
    """The per-ordering LP in variables x = [sigma_1..K, theta_1..B].

    Its optimum is -sum(sigma); the ordering's bound value is -1 / optimum.
    """
    orderings = np.array([_check_permutation(stats.num_users, pi)])
    masks = _prefix_masks(orderings)
    gaps, full = _cover_table(stats, tup)
    c, a_ub, b_ub = _permutation_lps(stats, orderings, gaps[masks], full[masks])
    return LpProblem(c=c[0], a_ub=a_ub[0], b_ub=b_ub)


def upper_bound_rate(stats: ChannelStats, tup: CachingTuple) -> UpperBoundReport:
    """Tight bound: minimum of the per-ordering LP values over all K! orderings."""
    K, B = stats.num_users, stats.num_levels
    if K > MAX_BOUND_USERS:
        raise TooManyUsers(f"ordering enumeration capped at {MAX_BOUND_USERS} users")
    orderings = list(permutations(range(1, K + 1)))
    gap_of, full_of = _cover_table(stats, tup)
    label = f"(K={K}, B={B}, mu={tup.mu})"
    # Coverage only grows along an ordering, so a fully covered first user
    # pins every sigma: such an ordering admits no weight vector and
    # contributes an infinite bound.
    values = [inf] * len(orderings)
    first_alone = np.zeros(K + B)  # sigma_1 > 0, all else 0
    first_alone[0] = 1.0
    # x of each ordering whose value is below every earlier one.  The argmin
    # below is among them: every ordering before it lies more than FEAS_TOL
    # above the minimum, so above the argmin's value.
    lowering: dict[int, np.ndarray] = {}
    least = inf
    per_call = stack_size(K * B + K, K + B)
    for start in range(0, len(orderings), per_call):
        batch = np.array(orderings[start:start + per_call])
        masks = _prefix_masks(batch)
        gaps, full = gap_of[masks], full_of[masks]
        solvable = np.flatnonzero(~full[:, 0]).tolist()
        stack = solve_lps(*_permutation_lps(stats, batch[solvable], gaps[solvable], full[solvable]))
        for j, (i, status, optimum) in enumerate(zip(solvable, stack.status, stack.value.tolist())):
            pi = orderings[start + i]
            if isinstance(status, NumericalFailure):
                raise NumericalFailure(f"ordering {pi} {label}: {status}") from status
            if status == OPTIMAL:
                value, x = -1.0 / optimum, stack.x[j]
            elif status == UNBOUNDED and not stats.ccdf[pi[0] - 1].any():
                value, x = 0.0, first_alone
            else:
                raise UnexpectedLpStatus(f"ordering {pi} {label}: LP status {status}")
            values[start + i] = value
            if value < least:
                lowering[start + i], least = x, value

    best = min(values)
    if best == inf:
        return UpperBoundReport(
            value=inf,
            argmin_pi=orderings[0],
            table=tuple(zip(orderings, values)),
            omega_star=tuple(0.0 for _ in range(K)),
            omega_star_unique=False,
        )
    hits = [i for i, value in enumerate(values) if value <= best + FEAS_TOL]
    argmin = hits[0]  # orderings were generated in lexicographic order
    pi = orderings[argmin]
    x = lowering[argmin]
    gaps = gap_of[_prefix_masks(np.array(pi))]
    omega = np.zeros(K)
    for k in range(K):
        if gaps[k] > 0.0:
            omega[pi[k] - 1] = x[k] / gaps[k]
    positive = omega[omega > 0.0]
    if positive.size:
        omega /= positive.min()
    return UpperBoundReport(
        value=best,
        argmin_pi=pi,
        table=tuple(zip(orderings, values)),
        omega_star=tuple(float(v) for v in omega),
        omega_star_unique=len(hits) == 1,
    )
