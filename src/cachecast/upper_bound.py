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
value is -1 / (its optimum).  sigma_k is pinned to zero wherever its
coverage factor is exactly one.  Coverage only grows along an ordering, so
the pinned positions form a suffix: the first p(pi) leading slices (the
live count) are not fully covered and the rest are.  A pinned sigma's column,
cost, decode rows and the chain row into it would all be zero, so the LP
keeps only the live prefix: p*B decode rows, p-1 chain rows and the budget
row over x = [sigma_1..p, theta_1..B].  Dropping a zero column (it never
prices in) and zero rows (never eligible, never updated) leaves the
simplex's pivot path, x and value exactly those of the pinned full-shape
LP.  The LP is unbounded exactly when the first user's CCDF row is all
zero: sigma_1 then grows with every theta at 0, and the ordering's value
is 0 with all weight on that user.

The live-prefix LP depends only on (p, pi(1..p)), so upper_bound_rate
solves each distinct live prefix once: K!/t! LPs for the central
placement at mu = t/K instead of K!, and none where the first user's cache
already covers the file (p = 0, an infinite value).  It tabulates the gap
of every user subset once and builds the LPs with numpy from that table:
one shape per live count, cut into lp.stack_size slices, one slice per
lp.solve_lps call.  Every ordering then takes its prefix's value.
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


def _ordering_array(num_users: int) -> np.ndarray:
    """All orderings of users 1..num_users as rows, in lexicographic order.

    The same rows as np.array(list(permutations(range(1, K + 1)))), built
    from the orderings of one user fewer: block f holds user f and then
    every shorter ordering over the other users, relabelled in order, so
    each block is lexicographic and so is the whole.  The blocks are built
    as uint8 (K <= MAX_BOUND_USERS) and widened once at the end.
    """
    orderings = np.zeros((1, 0), dtype=np.uint8)  # of no users: one empty ordering
    for k in range(1, num_users + 1):
        firsts = np.arange(k, dtype=np.uint8)
        grown = np.empty((k, len(orderings), k), dtype=np.uint8)
        grown[:, :, 0] = firsts[:, None]
        rest = grown[:, :, 1:]
        rest[:] = orderings
        rest += rest >= firsts[:, None, None]
        orderings = grown.reshape(-1, k)
    return np.add(orderings, 1, dtype=int)


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


def _live_prefixes(
    orderings: np.ndarray, gap_of: np.ndarray, full_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gaps of each ordering's leading slices, and its live count p.

    p counts the leading slices pi(1..k) that are not fully covered; they
    are the first p, since coverage only grows along an ordering.
    """
    masks = _prefix_masks(orderings)
    return gap_of[masks], np.count_nonzero(~full_of[masks], axis=-1)


def _permutation_lps(
    stats: ChannelStats, prefixes: np.ndarray, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LPs of an (L, p) array of live prefixes and their gaps as one stack: c, a_ub, b_ub.

    c is (L, p+B), a_ub (L, p*B+p, p+B) and b_ub the (p*B+p,) rhs they
    share.  Rows: the p*B decode rows, the p-1 chain rows, the budget
    row (p = 0 leaves the budget row alone).
    """
    size, p = prefixes.shape
    B = stats.num_levels
    decode = np.arange(p * B)
    chain = np.arange(p - 1)  # empty at p = 0
    a_ub = np.zeros((size, p * B + chain.size + 1, p + B))
    a_ub[:, decode, decode // B] = stats.ccdf[prefixes - 1].reshape(size, p * B)
    a_ub[:, decode, p + decode % B] = -np.repeat(gaps, B, axis=1)
    a_ub[:, p * B + chain, chain] = -gaps[:, 1:]
    a_ub[:, p * B + chain, chain + 1] = gaps[:, :-1]
    a_ub[:, -1, p:] = 1.0
    b_ub = np.zeros(a_ub.shape[1])
    b_ub[-1] = 1.0
    c = np.zeros((size, p + B))
    c[:, :p] = -1.0
    return c, a_ub, b_ub


def build_permutation_lp(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> LpProblem:
    """The LP of an ordering's live prefix, in variables x = [sigma_1..p, theta_1..B].

    p is the ordering's live count; the pinned sigma_{p+1..K} and their
    all-zero rows are left out.  Its optimum is -sum(sigma); the ordering's
    bound value is -1 / optimum.
    """
    orderings = np.array([_check_permutation(stats.num_users, pi)])
    gaps, live = _live_prefixes(orderings, *_cover_table(stats, tup))
    p = int(live[0])
    c, a_ub, b_ub = _permutation_lps(stats, orderings[:, :p], gaps[:, :p])
    return LpProblem(c=c[0], a_ub=a_ub[0], b_ub=b_ub)


def upper_bound_rate(stats: ChannelStats, tup: CachingTuple) -> UpperBoundReport:
    """Tight bound: minimum of the per-ordering LP values over all K! orderings.

    Each distinct live prefix is solved once, and every ordering that
    reaches it takes its value and x.
    """
    K, B = stats.num_users, stats.num_levels
    if K > MAX_BOUND_USERS:
        raise TooManyUsers(f"ordering enumeration capped at {MAX_BOUND_USERS} users")
    orderings = list(permutations(range(1, K + 1)))
    every = _ordering_array(K)
    gaps, live = _live_prefixes(every, *_cover_table(stats, tup))
    # Each ordering's live prefix as a base-(K+1) number, pinned users as 0.
    digits = np.where(np.arange(K) < live[:, None], every, 0)
    codes = digits @ (K + 1) ** np.arange(K - 1, -1, -1)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    live_of = live[first]
    label = f"(K={K}, B={B}, mu={tup.mu})"
    # A fully covered first user pins every sigma (p = 0): such an ordering
    # admits no weight vector and contributes an infinite bound.
    values = np.full(first.size, inf)
    sigma = np.zeros((first.size, K))  # the pinned sigmas stay 0
    failed: dict[int, object] = {}  # prefix -> its failure or unexpected status
    for p in sorted(set(live_of.tolist()) - {0}):
        group = np.flatnonzero(live_of == p)
        per_call = stack_size(p * B + p, p + B)
        for start in range(0, group.size, per_call):
            prefixes = group[start:start + per_call]
            rows = first[prefixes]
            stack = solve_lps(*_permutation_lps(stats, every[rows, :p], gaps[rows, :p]))
            optimal = np.array([s == OPTIMAL for s in stack.status])
            values[prefixes[optimal]] = -1.0 / stack.value[optimal]
            sigma[prefixes[optimal], :p] = stack.x[optimal, :p]
            for j in np.flatnonzero(~optimal).tolist():
                if stack.status[j] == UNBOUNDED and not stats.ccdf[every[rows[j], 0] - 1].any():
                    values[prefixes[j]] = 0.0  # sigma_1 > 0, all else 0
                    sigma[prefixes[j], 0] = 1.0
                else:
                    failed[int(prefixes[j])] = stack.status[j]
    if failed:
        # name the first ordering, in lexicographic order, that fails
        prefix = min(failed, key=first.__getitem__)
        pi, status = orderings[first[prefix]], failed[prefix]
        if isinstance(status, NumericalFailure):
            raise NumericalFailure(f"ordering {pi} {label}: {status}") from status
        raise UnexpectedLpStatus(f"ordering {pi} {label}: LP status {status}")

    by_ordering = values[inverse]
    table = tuple(zip(orderings, by_ordering.tolist()))
    best = float(by_ordering.min())
    if best == inf:
        return UpperBoundReport(
            value=inf,
            argmin_pi=orderings[0],
            table=table,
            omega_star=tuple(0.0 for _ in range(K)),
            omega_star_unique=False,
        )
    hits = np.flatnonzero(by_ordering <= best + FEAS_TOL)
    argmin = int(hits[0])  # orderings were generated in lexicographic order
    pi = orderings[argmin]
    x = sigma[inverse[argmin]]
    omega = np.zeros(K)
    for k in range(K):
        if gaps[argmin, k] > 0.0:
            omega[pi[k] - 1] = x[k] / gaps[argmin, k]
    positive = omega[omega > 0.0]
    if positive.size:
        omega /= positive.min()
    return UpperBoundReport(
        value=best,
        argmin_pi=pi,
        table=table,
        omega_star=tuple(float(v) for v in omega),
        omega_star_unique=hits.size == 1,
    )
