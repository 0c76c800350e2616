"""Information-theoretic ceiling on the per-file source rate.

For any nonnegative user weights w (sorted nonincreasing by the ordering pi)
the rate cannot exceed

    sum_l max_k w[pi(k)] * ccdf[pi(k)][l]
    -----------------------------------------------
    sum_k w[pi(k)] * (1 - coverage(pi(1..k)))

where coverage(Q) is the cache-union measure of the first k users in the
ordering.  objective_at evaluates this at one weight vector; the tight bound
minimizes over all weights, which separates into one small LP per ordering:
substituting sigma_k = w[pi(k)]*(1 - coverage(pi(1..k))) (normalized to sum
to one) and upper-bounding each level's weighted maximum by theta_l turns
the minimization over weights consistent with pi into

    minimize sum_l theta_l
    s.t.     sigma_k * ccdf[pi(k)][l] <= (1 - coverage(pi(1..k))) * theta_l
             sigma_k * (1 - coverage(pi(1..k-1))) <= sigma_{k-1} * (1 - coverage(pi(1..k)))
             sum_k sigma_k = 1,   sigma, theta >= 0,

with sigma_k pinned to zero wherever its coverage factor is exactly one.
upper_bound_rate solves all K! orderings and reports the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import inf
from typing import Optional, Sequence

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
from .lp import FEAS_TOL, OPTIMAL, LpProblem, lp_problem, solve_lp

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


def _prefix_gaps(tup: CachingTuple, pi: Sequence[int]) -> list[float]:
    """1 - coverage of each leading slice pi(1..k), as floats."""
    return [float(1 - tup.of(pi[: k + 1])) for k in range(len(pi))]


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
    gaps = _prefix_gaps(tup, order)
    denominator = sum(w[k - 1] * gap for k, gap in zip(order, gaps))
    if denominator <= 0.0:
        raise ZeroDenominator("no user carries weight over an uncovered cache gap")
    numerator = float(np.max(w[:, None] * stats.ccdf, axis=0).sum())
    return numerator / denominator


def build_permutation_lp(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> LpProblem:
    """The per-ordering LP in variables x = [sigma_1..K, theta_1..B]."""
    pi = _check_permutation(stats.num_users, pi)
    K, B = stats.num_users, stats.num_levels
    gaps = _prefix_gaps(tup, pi)

    a_ub = np.zeros((K * B + K - 1, K + B))
    for k in range(K):
        row_ccdf = stats.ccdf[pi[k] - 1]
        for l in range(B):
            r = k * B + l
            a_ub[r, k] = row_ccdf[l]
            a_ub[r, K + l] = -gaps[k]
    for k in range(1, K):
        r = K * B + k - 1
        a_ub[r, k - 1] = -gaps[k]
        a_ub[r, k] = gaps[k - 1]
    b_ub = np.zeros(K * B + K - 1)

    eq_rows = [np.concatenate([np.ones(K), np.zeros(B)])]
    eq_rhs = [1.0]
    for k in range(K):
        if tup.of(pi[: k + 1]) == 1:  # exact: coverage is a Fraction
            pin = np.zeros(K + B)
            pin[k] = 1.0
            eq_rows.append(pin)
            eq_rhs.append(0.0)

    c = np.concatenate([np.zeros(K), np.ones(B)])
    return lp_problem(c, a_ub=a_ub, b_ub=b_ub, a_eq=np.vstack(eq_rows), b_eq=eq_rhs)


def _solve_ordering(
    stats: ChannelStats, tup: CachingTuple, pi: tuple[int, ...]
) -> tuple[float, Optional[np.ndarray]]:
    if tup.of(pi[:1]) == 1:
        # sigma_1 pinned to zero contradicts sum(sigma) = 1: the ordering
        # admits no weight vector, so it contributes an infinite bound.
        return inf, None
    try:
        solution = solve_lp(build_permutation_lp(stats, tup, pi))
    except NumericalFailure as exc:
        raise NumericalFailure(
            f"ordering {pi} (K={stats.num_users}, B={stats.num_levels}): {exc}"
        ) from exc
    if solution.status != OPTIMAL:
        raise UnexpectedLpStatus(f"ordering {pi}: LP status {solution.status}")
    return solution.value, solution.x


def upper_bound_rate(stats: ChannelStats, tup: CachingTuple) -> UpperBoundReport:
    """Tight bound: minimum of the per-ordering LP values over all K! orderings."""
    K = stats.num_users
    if K > MAX_BOUND_USERS:
        raise TooManyUsers(f"ordering enumeration capped at {MAX_BOUND_USERS} users")
    orderings = [
        _check_permutation(K, pi) for pi in permutations(range(1, K + 1))
    ]
    solved = [_solve_ordering(stats, tup, pi) for pi in orderings]

    values = [value for value, _ in solved]
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
    x = solved[argmin][1]
    gaps = _prefix_gaps(tup, pi)
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
