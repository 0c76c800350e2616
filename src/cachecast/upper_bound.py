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
keeps only the live prefix over x = [sigma_1..p, theta_1..B].

Most of the prefix's p*B decode rows are implied by the others.  With
w_k = sigma_k / gap_k (gap_k = 1 - coverage(pi(1..k)) > 0 on the live
prefix) the chain rows say w_1 >= ... >= w_p, and decode row (k, l) says
w_k * c_k <= theta_l, with c_k = ccdf[pi(k)][l].  If some j < k has
c_j >= c_k, then w_k * c_k <= w_j * c_k <= w_j * c_j <= theta_l, so row
(k, l) holds wherever row (j, l) does.  Only the record rows can bind:
(k, l) with k = 1 or c_k above every c_j, j < k, about H_p of the p rows
of a level.  The LP keeps those, in decode order (user, then level), then
the p-1 chain rows and the budget row; dropping the implied rows leaves
its feasible set, and so its optimum, unchanged.  The test reads the
largest entry on each level of the users ahead of k from one table
indexed by their bitmask (_level_maxima, 2^K x B).

Dropping a zero column (it never prices in) and zero rows (never
eligible, never updated) leaves the simplex's pivot path, x and value
exactly those of the LP with them: the rows kept keep their relative
order, hence the order of their slack labels, which is all the pivot
rules read.  So the live-prefix LP solves byte for byte as the pinned
full-shape LP with its implied decode rows zeroed, and an LP padded with
zero rows (below) as it does alone.  Against the LP with every decode
row only the pivot path differs, and the value in its last bits.  The LP
is unbounded exactly when the first user's CCDF row is all zero:
sigma_1 then grows with every theta at 0, and the ordering's value is 0
with all weight on that user.

An ordering's LP is fixed by three things: its live count p, the user at
each live position that holds a record row (a record-bearing position),
and its gap row gap_1..p.  A user with no record row leaves the running
maximum of every level unchanged, so the record rows of every later user,
and with them every decode row, follow from the record-bearing users and
their positions; the chain rows read only the gaps.  So upper_bound_rate
keys each ordering by one exact integer: p, then for each position the
user if it bears a record on the live prefix (0 if not) and the rank of
its gap among the distinct gaps.  The gaps are ranked once over the 2^K
mask table, not over the K! x K gap array, and the key needs no hash:
equal keys are byte-identical LPs.  (The converse can fail: two users
with equal CCDF rows give the same LP under two keys, solved twice.)
Each distinct key is solved once.  At the central placement the gaps
depend only on the position, so a live prefix whose later users are
records nowhere shares its LP with every reordering of them: on a
sorted-uniform K = 8, B = 4 grid, 11,250 LPs of 40,320 orderings at
mu = 0 and at mu = 1/8, and 879 at mu = 4/8 (1680 live prefixes).  No LP
is solved where the first user's cache already covers the file (p = 0,
an infinite value) or its CCDF row is all zero (value 0).  As in the
delivery LP, a stack raises (lp.require_optimal) at its first LP that is
not optimal, named by the first ordering whose LP it is.
It reads the coverage (indexed by bitmask) of each distinct prefix mask
once and builds the LPs with numpy.  The distinct LPs of one live count
are sorted by their record-row count, most first (stable), and built and
solved in slices, one slice per lp.solve_lps call.  A slice is as many
LPs as stack_size allows at the shape of its first, widest LP, and every
LP of the slice is padded with zero rows, between its record rows and
its chain rows, to that shape.
The slices bound the memory: one K = 8, mu = 0 group built whole with
every decode row would be 40,320 LPs of 40 x 12, 155 MB of a_ub.
Every ordering then takes its LP's value.  The K! orderings are
enumerated once, in lexicographic order: the report's table holds those
tuples, and the LPs read them copied into one (K!, K) array (np.fromiter,
twice as fast as np.array at K = 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations
from math import inf
from typing import Sequence

import numpy as np

from .caching import CachingTuple
from .channel import ChannelStats, check_weights
from .errors import LengthMismatch, OutOfRange, TooManyUsers, ZeroDenominator
from .lp import FEAS_TOL, OPTIMAL, require_optimal, solve_lps

MAX_BOUND_USERS = 8
# Tableau entries per lockstep stack: 172 per-ordering LPs of live count 5
# at B=4 (K=6, mu=1/6: 25 x 10 each), where stacking pays.
STACK_ENTRIES = 43_000


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


def _prefix_masks(orderings: np.ndarray) -> np.ndarray:
    """Bitmask of each leading slice pi(1..k) of each ordering (last axis)."""
    return np.bitwise_or.accumulate(1 << (orderings - 1), axis=-1)


def _live_prefixes(
    stats: ChannelStats, tup: CachingTuple, orderings: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each ordering's prefix masks, the gap (1 - coverage, as a float) indexed
    by mask, and each ordering's live count p.

    Reads tup.coverage once per distinct prefix mask; the gap of a mask no
    ordering reaches is 0.  p counts the leading slices pi(1..k) not fully
    covered (exactly: coverage is a Fraction); they are the first p, since
    coverage only grows along an ordering.
    """
    if tup.num_users != stats.num_users:
        raise LengthMismatch(f"caching tuple for {tup.num_users} users, channel of {stats.num_users}")
    masks = _prefix_masks(orderings)
    gap_of = np.zeros(1 << tup.num_users)
    live_of = np.zeros(1 << tup.num_users, dtype=bool)
    for mask in np.flatnonzero(np.bincount(masks.ravel())).tolist():
        coverage = tup.coverage[mask]
        gap_of[mask], live_of[mask] = float(1 - coverage), coverage != 1
    return masks, gap_of, np.count_nonzero(live_of[masks], axis=-1)


def check_bound_users(num_users: int) -> None:
    """Refuse more users than the ordering enumeration takes (MAX_BOUND_USERS)."""
    if num_users > MAX_BOUND_USERS:
        raise TooManyUsers(f"ordering enumeration capped at {MAX_BOUND_USERS} users")


def _check_permutation(num_users: int, pi: Sequence[int]) -> tuple[int, ...]:
    pi = tuple(int(k) for k in pi)
    if sorted(pi) != list(range(1, num_users + 1)):
        raise OutOfRange(f"not a permutation of 1..{num_users}: {pi}")
    return pi


def objective_at(stats: ChannelStats, tup: CachingTuple, weights: Sequence[float]) -> float:
    """Bound value at one weight vector (users sorted by weight, stable)."""
    w = check_weights(stats, weights)
    order = sorted(range(1, stats.num_users + 1), key=lambda k: (-w[k - 1], k))
    masks, gap_of, _ = _live_prefixes(stats, tup, np.array(order))
    gaps = gap_of[masks]
    denominator = sum(w[k - 1] * gap for k, gap in zip(order, gaps))
    if denominator <= 0.0:
        raise ZeroDenominator("no user carries weight over an uncovered cache gap")
    numerator = float(np.max(w[:, None] * stats.ccdf, axis=0).sum())
    return numerator / denominator


def stack_size(m: int, n: int) -> int:
    """LPs of m rows and n columns per lockstep stack: at most STACK_ENTRIES tableau entries, at least one."""
    return max(1, STACK_ENTRIES // max(1, m * (n + 1)))


def _level_maxima(ccdf: np.ndarray) -> np.ndarray:
    """Each user subset's largest CCDF entry on each level, indexed by
    bitmask (bit k-1 is user k): shape (2^K, B), -inf for the empty set."""
    top = np.full((1 << ccdf.shape[0], ccdf.shape[1]), -inf)
    for k, row in enumerate(ccdf):
        top[1 << k : 2 << k] = np.maximum(top[: 1 << k], row)
    return top


def _records(ccdf: np.ndarray, top: np.ndarray, before: np.ndarray) -> np.ndarray:
    """The record mask of an (L, p, B) stack of prefix CCDF rows, given the
    (L, p) masks of the users ahead of each and top = _level_maxima.

    Entry (k, l) is a record when ccdf[k, l] exceeds the level-l entry of
    every user ahead of k, so always at k = 0: only those decode rows can
    bind (module docstring).
    """
    return ccdf > top[before]


def _permutation_lps(
    ccdf: np.ndarray, kept: np.ndarray, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LPs of L live prefixes as one stack, from their (L, p, B) CCDF rows,
    its record mask (_records) and their (L, p) gaps: c, a_ub, b_ub.

    a_ub is (L, R+p, p+B), with R the most record decode rows of any LP in
    the stack; c, the (p+B,) cost row, and b_ub, the (R+p,) rhs, are
    shared by every LP.  Rows: an LP's record decode rows in decode order
    (user, then level), all-zero rows up to R, the p-1 chain rows, the
    budget row (p = 0 leaves the budget row alone).  A stack of one has no
    zero rows.
    """
    size, p, B = ccdf.shape
    kept = kept.reshape(size, p * B)
    lps, decode = np.nonzero(kept)
    place = np.cumsum(kept, axis=1)[kept] - 1  # each record row's row in its LP
    width = int(place.max(initial=-1)) + 1
    chain = np.arange(p - 1)  # empty at p = 0
    a_ub = np.zeros((size, width + chain.size + 1, p + B))
    a_ub[lps, place, decode // B] = ccdf.reshape(size, p * B)[kept]
    a_ub[lps, place, p + decode % B] = -gaps[lps, decode // B]
    a_ub[:, width + chain, chain] = -gaps[:, 1:]
    a_ub[:, width + chain, chain + 1] = gaps[:, :-1]
    a_ub[:, -1, p:] = 1.0
    b_ub = np.zeros(a_ub.shape[1])
    b_ub[-1] = 1.0
    c = np.zeros(p + B)
    c[:p] = -1.0
    return c, a_ub, b_ub


def build_permutation_lp(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LP of an ordering's live prefix as c, a_ub, b_ub, in variables x = [sigma_1..p, theta_1..B].

    p is the ordering's live count; the pinned sigma_{p+1..K} and their
    all-zero rows are left out.  Its optimum is -sum(sigma); the ordering's
    bound value is -1 / optimum.
    """
    users = np.array([_check_permutation(stats.num_users, pi)]) - 1
    masks, gap_of, live = _live_prefixes(stats, tup, users + 1)
    p = int(live[0])
    users, masks = users[:, :p], masks[:, :p]
    ccdf = stats.ccdf[users]
    kept = _records(ccdf, _level_maxima(stats.ccdf), masks ^ (1 << users))
    c, a_ub, b_ub = _permutation_lps(ccdf, kept, gap_of[masks])
    return c, a_ub[0], b_ub


def _distinct_rows(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of equal-length nonnegative
    integer columns, and each row's index among the distinct rows.

    The columns are packed into one int64 key, in base max + 1 per column;
    where the key would overflow, the key so far is replaced by its rank
    first.  The key is exact: equal keys are equal rows.
    """
    key, bound = np.zeros(len(columns[0]), dtype=np.int64), 1
    for column in columns:
        radix = int(column.max()) + 1
        if bound * radix > 1 << 63:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key, bound = key * radix + column, bound * radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def upper_bound_rate(stats: ChannelStats, tup: CachingTuple) -> UpperBoundReport:
    """Tight bound: minimum of the per-ordering LP values over all K! orderings.

    Each distinct LP is solved once, and every ordering whose LP it is
    takes its value and x.
    """
    K, B = stats.num_users, stats.num_levels
    check_bound_users(K)
    orderings = list(permutations(range(1, K + 1)))
    every = np.fromiter(chain.from_iterable(orderings), dtype=int, count=K * len(orderings)).reshape(-1, K)
    masks, gap_of, live = _live_prefixes(stats, tup, every)
    # Positions past the largest live count are pinned in every ordering.
    head = np.s_[:, : int(live.max())]
    before = masks[head] ^ (1 << (every[head] - 1))  # the users ahead of each position
    top = _level_maxima(stats.ccdf)
    # Each ordering's LP is keyed by its live count, then per position the
    # user if it holds a record on the live prefix (0 if not) and the rank
    # of its gap among the distinct gaps (module docstring).  above[m, k-1]:
    # user k holds a record behind the users of mask m.
    above = _records(stats.ccdf, top, np.arange(1 << K)[:, None]).any(axis=2)
    bearing = above[before, every[head] - 1] & (np.arange(before.shape[1]) < live[:, None])
    _, gap_rank = np.unique(gap_of, return_inverse=True)
    first, inverse = _distinct_rows([live, *np.where(bearing, every[head], 0).T, *gap_rank[masks[head]].T])
    live_of = live[first]
    # A fully covered first user pins every sigma (p = 0): such an ordering
    # admits no weight vector and contributes an infinite bound.  A first
    # user who decodes nothing makes the LP unbounded: value 0, sigma_1 > 0.
    values = np.full(first.size, inf)
    sigma = np.zeros((first.size, K))  # the pinned sigmas stay 0
    dead = (live_of > 0) & ~stats.ccdf[every[first, 0] - 1].any(axis=1)
    values[dead], sigma[dead, 0] = 0.0, 1.0
    for p in sorted(set(live_of[~dead].tolist()) - {0}):
        group = np.flatnonzero((live_of == p) & ~dead)
        ccdf = stats.ccdf[every[first[group], :p] - 1]
        kept = _records(ccdf, top, before[first[group], :p])
        # Most record rows first: each stack is then as wide as its first LP.
        records = kept.sum(axis=(1, 2))
        order = np.argsort(-records, kind="stable")
        group, ccdf, kept, records = group[order], ccdf[order], kept[order], records[order]
        start = 0
        while start < group.size:
            part = slice(start, start + stack_size(int(records[start]) + p, p + B))
            lps, start = group[part], part.stop
            rows = first[lps]
            stack = solve_lps(*_permutation_lps(ccdf[part], kept[part], gap_of[masks[rows, :p]]))
            if stack.status.count(OPTIMAL) < rows.size:
                for row, outcome in zip(rows.tolist(), stack):
                    require_optimal(outcome, f"ordering {orderings[row]} (K={K}, B={B}, mu={tup.mu})")
            values[lps] = -1.0 / stack.value
            sigma[lps, :p] = stack.x[:, :p]

    by_ordering = values[inverse]
    table = tuple(zip(orderings, by_ordering.tolist()))
    best = float(by_ordering.min())
    hits = np.flatnonzero(by_ordering <= best + FEAS_TOL)
    argmin = int(hits[0])  # orderings were generated in lexicographic order
    pi = orderings[argmin]
    x = sigma[inverse[argmin]]
    gaps = gap_of[masks[argmin]]
    omega = np.zeros(K)
    for k in range(K):
        if gaps[k] > 0.0:
            omega[pi[k] - 1] = max(x[k], 0.0) / gaps[k]  # x >= -FEAS_TOL: a negative is a 0
    positive = omega[omega > 0.0]
    if positive.size:
        omega /= positive.min()
    return UpperBoundReport(
        value=best,
        argmin_pi=pi,
        table=table,
        omega_star=tuple(float(v) for v in omega),
        omega_star_unique=hits.size == 1 and best < inf,
    )
