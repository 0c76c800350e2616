"""Information-theoretic ceiling on the per-file source rate.

For any nonnegative user weights w (sorted nonincreasing by the ordering pi)
the rate cannot exceed

    sum_l max_k w[pi(k)] * ccdf[pi(k)][l]
    -----------------------------------------------
    sum_k w[pi(k)] * (1 - coverage(pi(1..k)))

where coverage(Q) is the cache-union measure of the first k users in the
ordering.  objective_at evaluates this at one weight vector; the tight bound
minimizes over all weights, which separates into one small LP per ordering.
Write w_k = w[pi(k)] and gap_k = 1 - coverage(pi(1..k)), and upper-bound
each level's weighted maximum by theta_l: the ratio over weights
consistent with pi is sum_l theta_l / sum_k gap_k w_k, subject to

    ccdf[pi(k)][l] * w_k <= theta_l
    w_k <= w_{k-1}
    w, theta >= 0.

Every row is homogeneous, so the ratio can be normalised on either side
(Charnes and Cooper): min {sum theta : sum gap_k w_k = 1} equals
1 / max {sum gap_k w_k : sum theta <= 1}.  The LP solved is the second,
with its cost row scaled by 2^-e, where gap_1 = m 2^e with m in [1/2, 1)
(math.frexp; gap_1, the first prefix's gap, is the largest),

    minimize -sum_k 2^-e gap_k w_k   s.t. the rows above,  sum_l theta_l <= 1,

whose rhs is nonnegative, so it is feasible at x = 0; the ordering's
value is -2^-e / (its optimum).  Its matrix holds only CCDF entries and
+-1; the gaps enter the cost row alone, so a gap of 1e-16 (two caches
that leave 1e-16 of the file uncovered) is a small cost, not a matrix
entry below PIVOT_TOL.  The simplex prices against the absolute
FEAS_TOL, so the scale matters: with every gap of an ordering near 1e-10
the unscaled costs sit within FEAS_TOL of 0, and the LP would stop at
its start.  Scaled, the first cost lies in (-1, -1/2], so FEAS_TOL acts
relative to the largest cost whatever the scale of the gaps.  A power of
two scales exactly: where 1/2 <= gap_1 < 1, as at the central placement
with 0 < mu <= 1/2, e = 0 and the LP is the unscaled one.  The matrix
is scaled the same way: every LP reads the CCDF grid times
2^-channel.scale_exponent, whose largest entry lies in (1/2, 1], and
its value is scaled back, so a grid of entries near 1e-10 is solved as
the grid near 1 it is a power of two of.

Coverage only grows along an ordering, so the positions whose prefix is
fully covered form a suffix: the first p(pi) leading slices (the live
count) are not fully covered and the rest are.  A w_k whose prefix is
fully covered has cost 0 and only tightens rows (its decode rows and the
chain row into it), so it is fixed at 0 and dropped with those rows: the
LP keeps only the live prefix over x = [w_1..p, theta_1..B].

Most of the prefix's p*B decode rows are implied by the others.  The
chain rows say w_1 >= ... >= w_p, and decode row (k, l) says
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
rules read.  So the live-prefix LP solves byte for byte as the
full-shape LP with the fixed w's columns, costs and rows and its implied
decode rows zeroed, and an LP padded with zero rows (below) as it does
alone.  Against the LP with every decode row only the pivot path
differs, and the value in its last bits.  The LP is unbounded exactly
when the first user's CCDF row is all zero: w_1 then grows with every
theta at 0, and the ordering's value is 0 with all weight on that user.

upper_bound_rate starts each LP at its equal-weight vertex, not at x = 0
(a crash basis: Bixby, "Implementing the simplex method: the initial
basis", ORSA J. Computing 4(3), 1992).  It is the bound at equal
weights: w_k = w and theta_l = w max_l, where max_l is level l's
largest entry on the prefix and w = 1 / sum_l max_l fills the budget row.
Every row holds there, the chain rows and the budget row with equality.
Its basis has theta_l at its level's last record row, which holds max_l
and so is tight; w_j at chain row j for j < p; w_p at the budget row.
Those B + p tight rows fix the point (the chain rows equalise the w_k,
the last record rows fix each theta_l, the budget row w).  B + p crash
pivots from the slack basis reach it, but every pivot but the last is
-1, so each of those steps is exact or a running sum, and
_equal_weight_vertex writes the tableau they reach in closed form, byte
for byte; only the budget step, w_p entering the budget row, divides,
and it is the one crash pivot (lp.LpStack.crashed) a stack takes.  A
level whose max_l is 0 keeps theta_l nonbasic at 0 instead, and an LP
whose maxima sum to 0 or to a subnormal, where w is infinite, keeps
x = 0.  The rhs is written in closed form, unclamped: w and theta as
above, each other record row's slack w (max_l - c_kl) >= 0, exactly 0
on a tie, and 0 in the padding rows.  An LP with one live user starts
at its optimum, even where its entries all lie below PIVOT_TOL and the
start at x = 0 reads a ray (a first user with CCDF entries of 1e-200).
From the vertex a benchmark round of six K = 6 scenarios (bound-k6)
takes 4213 simplex pivots instead of 13,306 from x = 0, and 37 lockstep
iterations instead of 85 (per stack its LPs' most pivots, summed), with
6 crash pivots (one per stack) where the B + p pivot steps took 43; every
value agrees with x = 0's to 1.6e-14 relative there and on the CI's
K = 8 grids.  Where an LP has
more than one optimal vertex the two starts can end at different ones,
and so give other omega_star weights.  A padded LP (below) gets the
same closed-form rows, labels and budget pivot as it does alone, and
LpStack.solve prices its cost row in row order over the rows with a
basic cost, where a zero row adds an exact zero; so it solves, byte for
byte, as it does alone.

The chain optimum.  On a dominance chain, users weakest first, the LP at
the identity ordering is the dual of degraded's chain LP but for its
chain rows.  With u = -dual_ub >= 0 and u_budget the budget row's entry,
the rate is 2^-e / u_budget, the record rows' duals give shares
z[l][k] = u_kl / u_budget that fill each level's budget at most, and the
dual row of w_k is user k's row of the chain LP with chi_{k-1} - chi_k
added to its side, where chi_k = u_chain_k / u_budget is chain row k's
dual.  Where rows tie, a chain row's dual is not 0, so one forward pass,
k = 1..p-1, moves the fraction chi_k / (ccdf_k . z_k) of user k's shares,
on every level, to user k+1: that takes chi_k of service from user k,
who holds chi_k to spare once chi_{k-1} has come in, and gives user k+1
at least as much, since its row dominates.  chain_optimum solves that LP
as a stack of one from its equal-weight vertex, as upper_bound_rate
solves every ordering's, and finds its records by a running maximum,
with no 2^K table.  On 700 tie-heavy chains (K = 2..8, every t,
B = 1..5, four seeds) its rate equals the chain LP's to 1.1e-15 and its
shares pass check_allocation with a violation of at most 1.8e-15;
without the pass 455 of them fail it, by up to 1.10.

An ordering's LP is fixed by three things: its live count p, the user at
each live position that holds a record row (a record-bearing position),
and its gap row gap_1..p.  A user with no record row leaves the running
maximum of every level unchanged, so the record rows of every later user,
and with them every decode row, follow from the record-bearing users and
their positions; the chain rows read only p, and the gaps are the cost
row.  So upper_bound_rate keys each ordering by one exact integer: p,
then for each position the user if it bears a record on the live prefix
(0 if not) and the rank of its gap among the distinct gaps.  The gaps are ranked once over the 2^K
mask table, not over the K! x K gap array, and the key needs no hash:
equal keys are byte-identical LPs.  Users with equal CCDF rows (twins)
give the same LP wherever they swap, so the key names a record-bearing
user by its first twin, the first user whose row equals its own entry by
entry (_first_twins): on the ROADMAP item 1 grid with user 2's row set
to user 1's, 56 LPs at mu = 0, 1/6 and 2/6, where naming the users
themselves solved 112, 112 and 92.  (Two users whose rows differ only
where neither holds a record can still give one LP under two keys.)
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
are built and solved as one lp.LpStack wherever they fit in
STACK_ENTRIES tableau entries at the shape of the widest, every LP
padded with zero rows, between its record rows and its chain rows, to
that shape: on the bound-k6 benchmark's grids every live count is one
stack, so each call builds, crashes, certifies and runs the lockstep
tail of one stack per live count.  A live count that does not fit is
sorted by record-row count, most first (stable), and solved in slices,
each as many LPs as stack_size allows at the shape of its first, widest
LP.  The slices bound the memory: one K = 8, mu = 0 group built whole
with every decode row would be 40,320 LPs of 40 x 12, 155 MB of a_ub.
Every ordering then takes its LP's value.  The K! orderings are
enumerated once, in lexicographic order, as one (K!, K) array built in
numpy block by first user (ordering_array; 1.3 ms at K = 8).  The LPs
read it, and the report holds it as `orderings` beside the per-ordering
`values`, so the JSON `table` and the text of `rates upper --table` are
written from the same two arrays and no K!-sized Python tuple is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, inf, ldexp
from typing import Callable, Sequence

import numpy as np

from .caching import CachingTuple, cache_size, central_coverage
from .channel import ChannelStats, check_weights, scale_exponent
from .errors import LengthMismatch, OutOfRange, TooManyUsers, ZeroDenominator
from .lp import FEAS_TOL, OPTIMAL, LpStack, StackSolution, require_optimal
from .lp_scheme import t_from_mu

MAX_BOUND_USERS = 8
# Tableau entries per lockstep stack.  100,000 holds each live count of the
# bound-k6 benchmark's K = 6 grids in one stack, the largest 278 LPs of 21
# rows and 9 columns (58,380 entries; 43,000 split it and one other in
# two).  On the CI's K = 8 grid (best of 12, 2-CPU Xeon) mu = 0 and 1/8
# ran in 195 and 192 ms against 221 and 234 ms at 43,000, at the same
# tracemalloc peak, 19.1 and 17.4 MB; 200,000 ran as fast and peaked at
# 20.7 MB, 400,000 ran slower and peaked at 35 MB.
STACK_ENTRIES = 100_000


@dataclass(frozen=True)
class UpperBoundReport:
    """Minimum over orderings, per-ordering values, and recovered weights.

    orderings is the (K!, K) int array of every ordering of the users 1..K,
    in lexicographic order (ordering_array), and values[i] (float64, K!) is
    the bound of ordering orderings[i]; both are read-only.  argmin_pi is
    the first ordering that attains the minimum, a tuple of ints.
    omega_star is scaled so its smallest positive entry is 1; it is flagged
    non-unique when more than one ordering attains the minimum within
    FEAS_TOL, on the grid scaled to a largest entry in (1/2, 1].
    """

    value: float
    argmin_pi: tuple[int, ...]
    orderings: np.ndarray
    values: np.ndarray
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
    ordering reaches is 0.  With coverage = n/d in lowest terms, the gap is
    (d - n) / d, the correctly rounded quotient of two ints and so
    float(1 - coverage) to the bit, and the slice is live where n != d.  p
    counts the leading slices pi(1..k) not fully covered; they are the
    first p, since coverage only grows along an ordering.
    """
    if tup.num_users != stats.num_users:
        raise LengthMismatch(f"caching tuple for {tup.num_users} users, channel of {stats.num_users}")
    masks = _prefix_masks(orderings)
    gap_of = np.zeros(1 << tup.num_users)
    live_of = np.zeros(1 << tup.num_users, dtype=bool)
    reached = np.flatnonzero(np.bincount(masks.ravel()))
    ratios = [c.as_integer_ratio() for c in map(tup.coverage.__getitem__, reached.tolist())]
    gap_of[reached] = [(d - n) / d for n, d in ratios]
    live_of[reached] = [n != d for n, d in ratios]
    return masks, gap_of, np.count_nonzero(live_of[masks], axis=-1)


def check_bound_users(num_users: int) -> None:
    """Refuse more users than the ordering enumeration takes (MAX_BOUND_USERS)."""
    if num_users > MAX_BOUND_USERS:
        raise TooManyUsers(f"ordering enumeration capped at {MAX_BOUND_USERS} users")


def check_permutation(num_users: int, pi: Sequence[int]) -> tuple[int, ...]:
    """pi as a tuple of ints; OutOfRange unless it is a permutation of 1..num_users."""
    pi = tuple(pi)
    if sorted(pi) != list(range(1, num_users + 1)):  # also refuses an id such as 1.5
        raise OutOfRange(f"not a permutation of 1..{num_users}: {pi}")
    return tuple(int(k) for k in pi)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, int]]:
    """The LPs of L live prefixes as one stack, from their (L, p, B) CCDF rows,
    its record mask (_records) and their (L, p) gaps: c, a_ub, b_ub and
    their row layout.

    a_ub is (L, R+p, p+B), with R the most record decode rows of any LP in
    the stack, and holds only CCDF entries and +-1; c (L, p+B) is each
    LP's cost row, -gap_k 2^-e at w_k (gap_1 = m 2^e, m in [1/2, 1)) and
    0 at each theta; b_ub, the (R+p,) rhs, is shared by every LP.  Rows:
    an LP's record decode rows in decode order (user, then level),
    all-zero rows up to R, the p-1 chain rows, the budget row (p = 0
    leaves the budget row alone).  A stack of one has no zero rows.  The
    layout is (record, chain, budget): each record entry's row in its LP
    as an (L, p, B) array, -1 where the entry is no record; the chain
    rows; the budget row.
    """
    size, p, B = ccdf.shape
    kept = kept.reshape(size, p * B)
    record = np.where(kept, np.cumsum(kept, axis=1) - 1, -1)  # each record entry's row in its LP
    lps, decode = np.nonzero(kept)
    place = record[kept]
    width = int(record.max(initial=-1)) + 1
    chain = np.arange(p - 1)  # empty at p = 0
    a_ub = np.zeros((size, width + chain.size + 1, p + B))
    a_ub[lps, place, decode // B] = ccdf.reshape(size, p * B)[kept]
    a_ub[lps, place, p + decode % B] = -1.0
    a_ub[:, width + chain, chain] = -1.0
    a_ub[:, width + chain, chain + 1] = 1.0
    a_ub[:, -1, p:] = 1.0
    b_ub = np.zeros(a_ub.shape[1])
    b_ub[-1] = 1.0
    c = np.zeros((size, p + B))
    c[:, :p] = np.ldexp(-gaps, -np.frexp(gaps[:, :1])[1])
    return c, a_ub, b_ub, (record.reshape(size, p, B), width + chain, a_ub.shape[1] - 1)


def _equal_weight_vertex(
    ccdf: np.ndarray, m: int, layout: tuple[np.ndarray, np.ndarray, int]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, Callable[[np.ndarray, np.ndarray, np.ndarray], None]]:
    """The equal-weight vertex of a stack of live-prefix LPs of m rows each,
    laid out as layout says (_permutation_lps), as lp.LpStack.crashed takes
    it: the one pivot still to take, the rhs, and the function that writes,
    in the stack's tableau, the rows and labels the other steps reach, in
    closed form.  p >= 1.

    With max_l each level's largest entry on the prefix and
    w = 1 / sum_l max_l, the vertex is w_k = w, theta_l = w max_l.  Its
    basis: theta_l at its level's last record row, at position k_l, which
    holds max_l (a level whose max_l is 0 keeps theta_l nonbasic at 0);
    w_j at chain row j for j < p; w_p at the budget row.  Pivoting them in
    that order divides only at the last step (every other pivot is -1), so
    the rows up to it are written here:
    - theta_l's step adds level l's last record row, negated, to each of
      the level's record rows, and subtracts it from the budget row: each
      record row of level l gets -max_l at w_{k_l} (on the last row it
      replaces max_l), and the budget row gets, at each w_k, the maxima of
      the levels whose last record is at k, summed in level order.
      theta_l's slot then holds its row's slack, whose column is theta_l's
      own (-1 on the level's records, +1 on the budget row).
    - The chain steps then add each w column into the next: every record
      row and the budget row become their running sums along w_1..w_p,
      summed left to right as np.cumsum does, and chain row j holds -1 at
      w_j..w_p.
    The budget step, w_p entering the budget row, is the one step left.
    The rhs is the vertex's value at each row's basic label: w at the
    chain and budget rows, w max_l at each theta_l's row, the slack
    w (max_l - c_kl) >= 0 (exactly 0 on a tie) at every other record row,
    0 at the padding rows.  An LP whose maxima sum to 0 or to a subnormal,
    where w is infinite, keeps its rows, the slack basis and x = 0, and
    skips the budget step.
    """
    record, chain, budget = layout
    size, p, B = ccdf.shape
    n = p + B
    top = ccdf[:, 0].copy()  # each level's max_l; p maximum calls beat ccdf.max(axis=1) on these short axes
    for k in range(1, p):
        np.maximum(top, ccdf[:, k], out=top)
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / top.sum(axis=1)
    far = np.isinf(w)  # no such vertex in floats
    w[far] = 0.0
    lps, levels = np.arange(size), np.arange(B)
    at = record.argmax(axis=1)  # (L, B): k_l, each level's last record position
    last = record[lps[:, None], at, levels]  # its row
    enters = top > 0.0  # theta_l enters (an LP with infinite w is reset below)
    i, k, l = np.nonzero(record >= 0)  # every record entry
    row = record[i, k, l]

    def reach(rows: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray) -> None:
        # rows holds a_ub's, basis and nonbasic the slack basis's labels.
        slack_rows = rows[far]
        # The theta steps.  Where max_l = 0 there is no step, and writing it
        # changes nothing: the level's one record, at w_1, holds 0 and gets
        # 0.0 - 0.0 = +0.0, and the budget row gains +0.0.
        rows[i, row, at[i, l]] = 0.0 - top[i, l]
        for level in range(B):
            rows[lps, budget, at[:, level]] += top[:, level]
        # The chain steps: running sums s_j = s_{j-1} + v_j, as each pivot
        # adds them, and the chain rows.
        for j in range(1, p):
            rows[:, :, j] += rows[:, :, j - 1]
        rows[:, chain, :p] = np.triu(np.full((p - 1, p), -1.0))
        basis[lps[:, None], last] = np.where(enters, p + levels, n + last)
        basis[:, chain] = np.arange(p - 1)
        nonbasic[:, : p - 1] = n + chain
        nonbasic[:, p - 1] = p - 1
        nonbasic[:, p:] = np.where(enters, n + last, p + levels)
        if far.any():
            rows[far], basis[far], nonbasic[far] = slack_rows, n + np.arange(m), np.arange(n)

    rhs = np.zeros((size, m))
    rhs[i, row] = w[i] * (top[i, l] - ccdf[i, k, l])
    rhs[lps[:, None], last] = w[:, None] * top  # 0 where theta_l stays nonbasic
    rhs[:, chain] = w[:, None]
    rhs[:, budget] = np.where(far, 1.0, w)  # x = 0: the budget row's slack holds its rhs
    return (np.full(size, budget), np.full(size, p - 1), far), rhs, reach


def _prefix(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ordering's live prefix as a stack of one: its CCDF rows on the
    grid times 2^-channel.scale_exponent, as upper_bound_rate solves them,
    their record mask and their gaps."""
    users = np.array(check_permutation(stats.num_users, pi)) - 1
    masks, gap_of, live = _live_prefixes(stats, tup, users[None] + 1)
    p = int(live[0])
    return _stack_of_one(np.ldexp(stats.ccdf[users[:p]], -scale_exponent(stats.ccdf)), gap_of[masks[0, :p]])


def _stack_of_one(ccdf: np.ndarray, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A live prefix's (p, B) CCDF rows, in ordering order, and (p,) gaps as
    a stack of one: the rows, their record mask and the gaps.  An entry is a
    record when it exceeds every entry of its level on the rows ahead, their
    running maximum (the one-ordering form of _records)."""
    ahead = np.maximum.accumulate(np.vstack([np.full((1, ccdf.shape[1]), -inf), ccdf[:-1]]))
    return ccdf[None], (ccdf > ahead)[None], gaps[None]


def build_permutation_lp(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LP of an ordering's live prefix as c, a_ub, b_ub, in variables x = [w_1..p, theta_1..B].

    p is the ordering's live count; w_{p+1..K}, whose prefixes are fully
    covered, are fixed at 0 and left out with their rows.  It is the LP
    upper_bound_rate solves: its CCDF entries are the grid's times 2^-s,
    s = channel.scale_exponent(stats.ccdf), whose largest entry lies in
    (1/2, 1].  Its optimum is -sum_k 2^-e gap_k w_k, with
    e = math.frexp(gap_1)[1] and gap_1 = 1 - tup.of(pi[:1]); the
    ordering's bound value is 2^(s-e) (-1/optimum).
    """
    c, a_ub, b_ub, _ = _permutation_lps(*_prefix(stats, tup, pi))
    return c[0], a_ub[0], b_ub


def _solve_from_vertex(ccdf: np.ndarray, kept: np.ndarray, gaps: np.ndarray) -> StackSolution:
    """The stack of live-prefix LPs of (L, p, B) CCDF rows, their record mask
    and (L, p) gaps (_permutation_lps), each solved from its equal-weight
    vertex (_equal_weight_vertex, one crash pivot per stack)."""
    c, a_ub, b_ub, layout = _permutation_lps(ccdf, kept, gaps)
    return LpStack.crashed(a_ub, b_ub, *_equal_weight_vertex(ccdf, a_ub.shape[1], layout)).solve(c)


def chain_optimum(stats: ChannelStats, mu) -> tuple[float, np.ndarray]:
    """The chain optimum at the central placement of cache size mu, read off
    the bound's LP at the identity ordering: the rate and the shares z
    (B, K), for rows already in chain order (weakest first, each dominating
    the one before: degraded.degraded_order, degraded.chain_stats).

    The live prefix is the first p = K - t users (module docstring, "The
    chain optimum").  A weakest user who decodes nothing holds the rate at
    0 with z = 0, as a dead first user holds its ordering's value in
    upper_bound_rate, and no LP is solved.  As in upper_bound_rate, the
    LP is solved on the grid times 2^-e (channel.scale_exponent) and the
    rate scaled back by 2^e; z is the same on both grids.
    """
    K, B = stats.num_users, stats.num_levels
    mu = cache_size(mu)
    t = t_from_mu(K, mu)
    p = K - t
    z = np.zeros((B, K))
    if not stats.ccdf[0].any():
        return 0.0, z
    scale = scale_exponent(stats.ccdf)
    grid = np.ldexp(stats.ccdf, -scale)
    gaps = np.array([float(1 - central_coverage(K, mu, k)) for k in range(1, p + 1)])
    ccdf, kept, gaps = _stack_of_one(grid[:p], gaps)
    (outcome,) = _solve_from_vertex(ccdf, kept, gaps)
    solution = require_optimal(outcome, f"chain LP (K={K}, t={t}, B={B})")
    u = solution.dual_ub / solution.dual_ub[-1]  # per unit of the budget row's dual
    records = int(kept.sum())
    shares = np.zeros((p, B))
    shares[kept[0]] = u[:records]
    z[:, :p] = shares.T
    for k, moved in enumerate(u[records : records + p - 1]):
        if moved > 0.0:
            part = z[:, k] * (moved / (grid[k] @ z[:, k]))
            z[:, k] -= part
            z[:, k + 1] += part
    z += 0.0  # a dual of -0.0 gives a share of -0.0; report +0.0
    return ldexp(-1.0 / solution.value, scale - frexp(gaps[0, 0])[1]), z


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct column of a (c, L) array of
    nonnegative integers, and each column's index among the distinct
    columns.

    The rows are packed into one int64 key per column, in base max + 1 per
    row; where the key would overflow, the key so far is replaced by its
    rank first.  The key is exact: equal keys are equal columns.
    """
    key, bound = np.zeros(table.shape[1], dtype=np.int64), 1
    for row, radix in zip(table, (table.max(axis=1) + 1).tolist()):
        if bound * radix > 1 << 63:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max()) + 1
        key, bound = key * radix + row, bound * radix
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _first_twins(grid: np.ndarray) -> np.ndarray:
    """Each user's first twin: the first user (from 1) whose CCDF row equals
    its own, entry by entry, so -0.0 equals 0.0 (the names
    np.unique(grid, axis=0) gives)."""
    return (grid[:, None] == grid).all(axis=2).argmax(axis=1) + 1


def ordering_array(num_users: int) -> np.ndarray:
    """Every ordering of the users 1..K as the rows of one (K!, K) array, in lexicographic order.

    The orderings of 1..k are, for each first user f in turn, f followed by
    the orderings of 1..k-1 with every user from f on moved up by one; the
    move keeps each block in lexicographic order.
    """
    every = np.zeros((1, 0), dtype=int)
    for k in range(1, num_users + 1):
        firsts = np.arange(1, k + 1)[:, None, None]
        blocks = np.empty((k, len(every), k), dtype=int)  # block f - 1: the orderings that start with f
        blocks[:, :, :1] = firsts
        np.add(every, every >= firsts, out=blocks[:, :, 1:])
        every = blocks.reshape(-1, k)
    return every


def upper_bound_rate(stats: ChannelStats, tup: CachingTuple) -> UpperBoundReport:
    """Tight bound: minimum of the per-ordering LP values over all K! orderings.

    Each distinct LP is solved once, and every ordering whose LP it is
    takes its value and x.  The LPs are solved on the CCDF grid times
    2^-e, e = channel.scale_exponent, whose largest entry lies in
    (1/2, 1], and every value is scaled back by 2^e; the argmin tie is
    judged at FEAS_TOL on that scaled grid.  So a grid times a power of two
    reads its bound and values times that power, to the bit, with the same
    argmin_pi, omega_star and uniqueness flag.
    """
    K, B = stats.num_users, stats.num_levels
    check_bound_users(K)
    every = ordering_array(K)
    masks, gap_of, live = _live_prefixes(stats, tup, every)
    # Positions past the largest live count are fixed at 0 in every ordering.
    h = int(live.max())
    users = every[:, :h] - 1  # each position's user, from 0
    before = masks[:, :h] ^ (1 << users)  # the users ahead of each position
    scale = scale_exponent(stats.ccdf)
    grid = np.ldexp(stats.ccdf, -scale)  # largest entry in (1/2, 1]
    top = _level_maxima(grid)
    # Each ordering's LP is keyed by its live count, then per position the
    # user if it holds a record on the live prefix (0 if not), named by the
    # first user with the same CCDF row (its twin), and the rank of its gap
    # among the distinct gaps (module docstring).  above[m, k]: user k + 1
    # holds a record behind the users of mask m.
    above = _records(grid, top, np.arange(1 << K)[:, None]).any(axis=2)
    bearing = above.take(before * K + users) & (np.arange(h) < live[:, None])
    named = _first_twins(grid)
    _, gap_rank = np.unique(gap_of, return_inverse=True)
    # Row 0 the live count, then per position the named user or 0, then the
    # gap ranks; np.take writes the rows in place (mode="clip" lets it; every
    # index lies in range), so no K!-sized temporary is made.
    key = np.empty((1 + 2 * h, every.shape[0]), dtype=np.int64)
    key[0] = live
    np.take(named, users.T, out=key[1 : h + 1], mode="clip")
    key[1 : h + 1] *= bearing.T
    np.take(gap_rank, masks[:, :h].T, out=key[h + 1 :], mode="clip")
    first, inverse = _distinct_rows(key)
    del users, key  # K!-sized: freed before the LPs are built
    live_of = live[first]
    # A fully covered first user fixes every weight at 0 (p = 0): such an
    # ordering admits no weight vector and contributes an infinite bound.  A
    # first user who decodes nothing makes the LP unbounded: value 0, w_1 > 0.
    values = np.full(first.size, inf)
    weights = np.zeros((first.size, K))  # the fixed weights stay 0
    dead = (live_of > 0) & ~grid[every[first, 0] - 1].any(axis=1)
    values[dead], weights[dead, 0] = 0.0, 1.0
    live_of[dead] = 0  # settled: no LP
    for p in sorted(set(live_of.tolist()) - {0}):
        group = np.flatnonzero(live_of == p)
        rows = first[group]
        ccdf = grid[every[rows, :p] - 1]
        kept = _records(ccdf, top, before[rows, :p])
        gaps = gap_of[masks[rows, :p]]
        records = kept.sum(axis=(1, 2))
        if stack_size(int(records.max()) + p, p + B) < group.size:
            # Sliced, most record rows first: each slice is then as wide as its first LP.
            order = np.argsort(-records, kind="stable")
            group, ccdf, kept, gaps, records = group[order], ccdf[order], kept[order], gaps[order], records[order]
        start = 0
        while start < group.size:
            part = slice(start, start + stack_size(int(records[start:].max()) + p, p + B))
            lps, start = group[part], part.stop
            stack = _solve_from_vertex(ccdf[part], kept[part], gaps[part])
            if stack.status.count(OPTIMAL) < lps.size:
                for row, outcome in zip(first[lps].tolist(), stack):
                    require_optimal(outcome, f"ordering {tuple(every[row].tolist())} (K={K}, B={B}, mu={tup.mu})")
            values[lps] = np.ldexp(-1.0 / stack.value, scale - np.frexp(gaps[part, 0])[1])
            weights[lps, :p] = stack.x[:, :p]

    by_ordering = values[inverse]
    best = float(by_ordering.min())
    hits = np.flatnonzero(by_ordering <= best + ldexp(FEAS_TOL, scale))  # FEAS_TOL on the scaled grid
    argmin = int(hits[0])  # orderings were generated in lexicographic order
    omega = np.zeros(K)  # the argmin's x itself, by user; x >= -FEAS_TOL: a negative is a 0
    omega[every[argmin] - 1] = np.maximum(weights[inverse[argmin]], 0.0)
    positive = omega[omega > 0.0]
    if positive.size:
        omega /= positive.min()
    every.setflags(write=False)
    by_ordering.setflags(write=False)
    return UpperBoundReport(
        value=best,
        argmin_pi=tuple(every[argmin].tolist()),
        orderings=every,
        values=by_ordering,
        omega_star=tuple(float(v) for v in omega),
        omega_star_unique=hits.size == 1 and best < inf,
    )
