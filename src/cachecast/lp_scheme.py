"""Achievable delivery rates for K users via a time-sharing LP.

With integer subpacketization parameter t = K*mu, every file splits into
C(K,t) equal pieces, one per size-t user subset, and each size-(t+1) subset
S carries one coded message wanted by all its members.  The transmitter
time-shares every signal level l among the messages: y[l][S] is the
fraction of channel uses on level l spent on S's message.  User k in S
decodes its piece of size f/C(K,t) when its collected symbol mass
sum_l ccdf[k][l] * y[l][S] reaches that size, so the rate LP is

    maximize f
    s.t.     sum_l ccdf[k][l] * y[l][S] >= f / C(K,t)   for all S, k in S
             sum_S y[l][S] <= 1                          for all l
             y >= 0.

build_delivery_lp writes this LP out densely as plain (c, a_ub, b_ub)
(for --dump-matrices and as the reference the tests solve): columns are
ordered level-major with subsets lexicographic inside a level and the rate
variable f last.  Every per-row quantity has the (subset j, member i)
layout of np.array(message_subsets(K, t)): subsets in lexicographic order,
each subset's members ascending.  The decodability rows run in that order,
and check_allocation's margins are one array of that shape.

achievable_rate_lp never builds that matrix.  Only the B budget rows
couple the subsets, so with level prices lambda on the simplex,

    c_S(lambda) = min { lambda.u : ccdf[k].u >= 1 for k in S, u >= 0 }
                = max { sum_{k in S} v_k : sum_k v_k ccdf[k][l] <= lambda_l, v >= 0 }

is what one unit of S's message costs, and by minimax duality
1/f* = max over the simplex of phi(lambda) = sum_S c_S(lambda) / C(K,t).
phi is concave and polyhedral, and a cutting-plane method (Kelley 1960;
Dantzig and Wolfe 1960) finds its maximum exactly.  A subset solve solves
the C(K,t+1) subproblems at the current lambda in their min form (t+1
rows, B columns, costs lambda).  The optimal u_S meet S's rows whatever
lambda is, so g = sum_S u_S / C(K,t) gives the cut phi(lambda') <=
g.lambda', and sum_S c_S(lambda) / C(K,t), with c_S(lambda) = lambda.u_S,
is a lower value of max phi.  Any point u_S that meets S's rows gives
c_S(lambda') <= lambda'.u_S, so any choice of one such point per subset
gives a valid cut too.  The loop keeps every u_S that a subset solve
returns, certified, in a pool (subsets x solves x B), and before each
subset solve it cuts from the pool, as the multicut method of Birge and
Louveaux (1988) would with one model per subset: the cheapest pooled
point of each subset at lambda gives the pooled estimate
sum_S min_u lambda.u / C(K,t), which is at least phi(lambda) but no
lower value of max phi, and the pooled cut g = sum_S u_S / C(K,t) of
those points.  The seeds' points below stay out of the pool: pooled,
their entries of up to 1/w[S,l] ~ 1e15 on tiny levels left allocations
that failed their recheck.  The master is the Dantzig-Wolfe packing LP
over the cuts,

    maximize sum_i a_i  s.t.  sum_i a_i g_i[l] <= 1 for every level l,  a >= 0,

the dual of  max eta s.t. eta <= g_i.lambda for every cut i,
sum_l lambda_l <= 1.  Its value v gives the upper value eta = 1/v >= 1/f*,
its level prices -dual_ub (which sum to v) give the next
lambda = -eta dual_ub on the simplex, and its solution gives the convex
cut weights alpha = eta a.

Started empty, the master would price its first cuts on faces with some
lambda_l = 0, where phi is 0 since every member takes level l for free.
So it starts from one closed-form seed cut per level instead.  With
w[S,l] the smallest ccdf[k][l] over the members k of S, sending every
message on level l alone, u_S = e_l / w[S,l], meets every decodability
row when w[S,l] > 0 for every S, so phi(lambda) <= lambda_l G_l with
G_l = sum_S (1/w[S,l]) / C(K,t).  A level gets a seed where G_l is
finite: every w[S,l] > 0, and none so small that 1/w overflows.  Every
ccdf[k][0] is positive (see below), so level 1 has every w[S,1] > 0, but
a subnormal entry on the scaled grid, such as 5e-324 beside 0.5, overflows
1/w there too; where that happens on every level, no level gets a seed and
NumericalFailure is raised, naming the delivery LP.  The seed
enters the master as the unit column e_l at cost -1/G_l: the same LP as
the cut G_l e_l at cost -1, but well scaled where some w[S,l] is tiny.
Its dual row holds lambda_l >= eta/G_l > 0.  The seeds are pivoted in
before the first solve, which finds every x_l = 1 optimal (the seed
master), and the first lambda is its lambda_l = eta/G_l on the seeded
levels and 0 on the others.

The subset LPs and the master are kept from step to step, since neither
a new lambda nor a new cut makes the last optimal basis infeasible.  In
the min form lambda is only the cost: the rows ccdf[S] u >= 1 never
change, so each subset solve reprices the subset stack (an lp.LpStack)
and resumes the simplex from its last bases.  Its first bases are one
crash pivot per subset (LpStack.covering), level 1 entering at the
member with the smallest ccdf[k][0]; that is feasible because every live
CCDF row is nonincreasing and nonzero, so its first entry is positive.
It would be optimal at a uniform lambda; at the seed master's it is not,
and the first subset solve pivots from it.  The master is one
lp.GrowingLp, with room for the seeds and MAX_CUTS cuts of both kinds.
A cut only adds a column to it, at cost -1: the column and its reduced
cost are read off the master's full tableau, and the column is pivoted
in before the master resumes from its last basis, so no cut reprices or
copies the columns before it.  The column enters even when its reduced
cost, -(eta - g.lambda)/eta, lies within the simplex's FEAS_TOL of 0:
left out, it would leave the duals and so lambda as they were.

Each step of the loop first enters pooled cuts, one master solve each,
while all three of these hold at the master's lambda:

- the pooled estimate lies below eta (1 - CUT_TOL), so the pooled cut
  cuts the master's optimum off;
- the pooled cut's column is not, byte for byte, one the master holds;
- the largest pooled estimate of this step lies below
  eta - (eta - best) / 2, with best the best lower value: the pool's own
  model has not yet closed half of the gap left.  Pooling on past that
  point traded each saved subset solve for many master solves.

Then it solves the subset stack at lambda.  Only subset solves set best,
the gap and the pool's points, and only they end the loop, at the first
of three events:

- eta and the best lower value agree to CUT_TOL relative;
- the solve's column equals, byte for byte, one already in the master.
  That cut is tight at its own lambda, which maximises the master's
  model, so eta already equals the lower value; it is not entered again,
  which would only move lambda in its last bits while the same cut
  repeats;
- lambda comes back unchanged: the master's optimum then lies on the new
  cut, so eta equals that cut's lower value up to rounding, and the next
  cut would repeat it.

iterations counts the subset solves, the last one included, and not the
pooled cuts.  Then

    f = 1/eta,   y_S = (f / C(K,t)) (sum_i alpha_i u_S^i + sum_l eta x_l e_l / (G_l w[S,l]))

over the cuts i of both kinds and the seeded levels l is feasible by
construction: each u_S^i, like each seed's e_l / w[S,l], meets S's
decodability rows at rate 1, and sum_i alpha_i g_i + eta x <= eta
levelwise is the master's own feasibility.  1/(best lower value) >= f* bounds the optimum from above, so
gap = 1/(best lower value) - f certifies how far f can lie below it (0
when rounding puts the two values a few ulps the wrong way round).
A user whose ccdf[k][0] is 0 never receives a level (validation lets a
later entry exceed it by PROB_TOL at most) and decodes nothing: the rate
is 0 and every share 0.  The LP is solved on the grid scaled to a largest
entry in (1/2, 1] (channel.scale_exponent), so its tolerances act
relative to the grid's scale.  The allocation is rechecked by
check_allocation, against every decodability and budget row (a margin
at the grid's scale) and the sign of every share, before it
is returned with the report (alloc.report, which `rates achievable`
prints); a subset stack or master raises through lp.require_optimal
at its first LP that is not optimal, naming the step and the gap ("master
LP, seed cuts" for the seed master, "pooled cut N" or "subset solve N"
after it), and a loop that would enter a cut past MAX_CUTS raises
NumericalFailure naming the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import inf, ldexp
from typing import Optional

import numpy as np

from .caching import cache_size
from .channel import ChannelStats, scale_exponent
from .errors import BadT, LengthMismatch, NonIntegerT, NumericalFailure
from .lp import FEAS_TOL, OPTIMAL, GrowingLp, LpSolution, LpStack, require_optimal

Subset = tuple[int, ...]

# Relative gap between the master value and the best lower value at which
# the cutting planes stop; 372 random grids (K = 4..11, B = 2..8, t drawn
# from 0..K-1, sorted-uniform and chains alternating) take 1-20 subset
# solves, median 7 (2619 in all; Kelley's loop without the pool took 1-66,
# median 8, 4234 in all).
CUT_TOL = 1e-12
MAX_CUTS = 500  # the master's room for cuts, pooled and from subset solves together


@dataclass(frozen=True)
class DeliveryAllocation:
    """Level time shares y (B x num_subsets) at a claimed rate.

    iterations is the number of subset-stack solves achievable_rate_lp
    took, one solve of every subset LP each; the pooled cuts and the seed
    cuts are not counted.  gap is its certificate: the optimum lies in
    [rate, rate + gap].  Both are 0 for an allocation built otherwise.
    report is achievable_rate_lp's check_allocation of these shares, and
    None for an allocation built otherwise.
    """

    num_users: int
    num_levels: int
    t: int
    subsets: tuple[Subset, ...]
    shares: np.ndarray
    rate: float
    iterations: int = 0
    gap: float = 0.0
    report: Optional[FeasibilityReport] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FeasibilityReport:
    """Decodability margins and level budget slacks of an allocation.

    margins[j, i] is what member i (ascending) of subset j collects beyond
    required, in the (subset, member) layout of np.array(subsets): shape
    (C(K,t+1), t+1), the order of the dense LP's decodability rows.
    """

    feasible: bool  # violation <= FEAS_TOL
    required: float  # per-message size f / C(K,t)
    margins: np.ndarray
    level_slacks: np.ndarray
    # How far the lowest margin (in units of 2^e, channel.scale_exponent),
    # slack or share lies below 0; 0.0 if none does, NaN on a NaN.
    violation: float


def t_from_mu(num_users: int, mu) -> int:
    """Subset size t = K*mu of cache size mu, which must leave data to deliver."""
    t = cache_size(mu) * num_users
    if t.denominator != 1:
        raise NonIntegerT(f"K*mu = {t} is not an integer")
    if t == num_users:
        raise BadT("mu = 1 leaves nothing to deliver")
    return int(t)


def message_subsets(num_users: int, t: int) -> tuple[Subset, ...]:
    """All size-(t+1) user subsets in lexicographic order; BadT unless t lies in 0..K-1."""
    if not 0 <= t <= num_users - 1:
        raise BadT(f"t must lie in 0..{num_users - 1}, got {t}")
    return tuple(combinations(range(1, num_users + 1), t + 1))


def build_delivery_lp(stats: ChannelStats, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense rate LP min c.x s.t. a_ub.x <= b_ub, x >= 0 for subpacketization t, as (c, a_ub, b_ub).

    c is -1 on f and 0 elsewhere.  a_ub stacks the decodability rows (one
    per (subset, member) of message_subsets, coefficients -ccdf[k][l] on
    y[l][S] and 1/C(K,t) on f, rhs 0) on top of the per-level time-budget
    rows (ones on level l's columns, rhs 1).
    """
    K, B = stats.num_users, stats.num_levels
    members = np.array(message_subsets(K, t)) - 1  # (subsets, t+1)
    num_subsets = len(members)
    num_decode = members.size
    a_ub = np.zeros((num_decode + B, B * num_subsets + 1))
    rows = np.arange(num_decode)[:, None]  # row r holds member r % (t+1) of subset r // (t+1)
    a_ub[rows, np.arange(B) * num_subsets + rows // (t + 1)] = -stats.ccdf[members.ravel()]
    a_ub[rows[:, 0], -1] = 1.0 / math.comb(K, t)
    for l in range(B):
        a_ub[num_decode + l, l * num_subsets: (l + 1) * num_subsets] = 1.0
    c = np.zeros(a_ub.shape[1])
    c[-1] = -1.0
    return c, a_ub, np.concatenate([np.zeros(num_decode), np.ones(B)])


def _gap(lower: float, upper: float) -> float:
    """1/lower - 1/upper: how far the rate 1/upper can lie below the optimum (0 if rounding inverts them)."""
    return max(0.0, (1.0 / lower if lower > 0.0 else inf) - 1.0 / upper)


def achievable_rate_lp(stats: ChannelStats, mu) -> DeliveryAllocation:
    """Solve the rate LP at cache size mu (K*mu must be an integer in 0..K-1).

    The LP is solved on the member rows of the CCDF grid times 2^-e,
    e = channel.scale_exponent, whose largest entry lies in (1/2, 1]; the
    shares are the same on both grids, and the rate and its gap are scaled
    back by 2^e.  So a grid times a power of two reads its rate and gap
    times that power, to the bit, with the same shares.
    """
    t = t_from_mu(stats.num_users, mu)
    K, B = stats.num_users, stats.num_levels
    subsets = message_subsets(K, t)
    piece_count = math.comb(K, t)
    label = f"delivery LP (K={K}, t={t}, B={B})"
    scale = scale_exponent(stats.ccdf)  # solved on the grid times 2^-scale
    member_ccdf = np.ldexp(stats.ccdf, -scale)[np.array(subsets) - 1]  # (subsets, t+1, B)

    def allocation(shares: np.ndarray, rate: float, iterations: int, gap: float) -> DeliveryAllocation:
        shares.setflags(write=False)
        alloc = DeliveryAllocation(K, B, t, subsets, shares, rate, iterations, gap)
        return replace(alloc, report=check_allocation(stats, alloc))

    if not (stats.ccdf[:, 0] > 0.0).all():  # a user on a dead channel decodes nothing
        return allocation(np.zeros((B, len(subsets))), 0.0, 0, 0.0)

    # The seeds: every message on level l alone, u_S = e_l / w[S, l], gives
    # the cut g = G_l e_l, entered as e_l at cost -1/G_l where G_l is finite.
    with np.errstate(divide="ignore", over="ignore"):
        reach = 1.0 / member_ccdf.min(axis=1)  # (subsets, B): 1/w[S, l], w the weakest member's ccdf
        spread = reach.sum(axis=0) / piece_count
    seeded = np.flatnonzero(spread < inf)
    if not seeded.size:
        raise NumericalFailure(f"{label}: no level gets a seed cut (1/w overflows on every level)")
    subproblems = LpStack.covering(member_ccdf)  # S's: min lambda.u s.t. ccdf[S] u >= 1, u >= 0
    reach, spread = reach[:, seeded], spread[seeded]  # u_S of each seed on its level; G_l
    # The packing LP: max sum_i a_i + sum_l x_l/G_l s.t. sum_i a_i g_i + x <= 1.
    master = GrowingLp(np.ones(B), seeded.size + MAX_CUTS)
    for level, cost in zip(seeded.tolist(), (-1.0 / spread).tolist()):
        master.add_column(np.eye(B)[level], cost)

    def solve_master(where: str) -> tuple[LpSolution, float, np.ndarray]:
        """The master's solution, its upper value eta and its level prices lambda."""
        packing = require_optimal(master.solve(), label, f"master LP, {where}")
        eta = -1.0 / packing.value
        return packing, eta, np.maximum(-eta * packing.dual_ub, 0.0)

    packing, eta, lam = solve_master("seed cuts")
    mixes: list[np.ndarray] = []  # per cut in the master, u_S of every subset (subsets x B)
    cuts: set[bytes] = set()  # the bytes of every cut's column
    pool = np.empty((len(subsets), 0, B))  # every subset solve's certified u_S, one point per solve
    rows = np.arange(len(subsets))
    best, solves, pooled = 0.0, 0, 0

    def enter(u: np.ndarray, column: np.ndarray, where: str) -> None:
        """Enter the cut column, made of the points u, into the master and solve it."""
        nonlocal packing, eta, lam
        if len(mixes) == MAX_CUTS:
            raise NumericalFailure(f"{label}: cutting planes did not converge in {MAX_CUTS} cuts ({where})")
        cuts.add(column.tobytes())
        mixes.append(u)
        master.add_column(column, -1.0)
        packing, eta, lam = solve_master(where)

    while True:
        peak = 0.0  # the largest pooled estimate of this step
        while pool.shape[1]:  # pooled cuts, while the pool cuts deep enough
            costs = pool @ lam
            pick = costs.argmin(axis=1)
            estimate = costs[rows, pick].sum() / piece_count
            peak = max(peak, estimate)
            if estimate >= eta * (1.0 - CUT_TOL) or peak >= eta - 0.5 * (eta - best):
                break
            u = pool[rows, pick]
            column = u.sum(axis=0) / piece_count
            if column.tobytes() in cuts:
                break
            pooled += 1
            enter(u, column, f"pooled cut {pooled}, gap {_gap(best, eta):.3g}")
        solves += 1
        where = f"subset solve {solves}, gap {_gap(best, eta):.3g}"
        stack = subproblems.solve(lam)
        if stack.status.count(OPTIMAL) < len(subsets):
            for s, outcome in zip(subsets, stack):
                require_optimal(outcome, label, f"subset {s}, {where}")
        u = stack.x
        best = max(best, sum(stack.value.tolist()) / piece_count)
        pool = np.concatenate((pool, u[:, None]), axis=1)
        column = u.sum(axis=0) / piece_count
        if column.tobytes() in cuts:  # a repeated cut: the master's optimum already lies on it
            break
        previous = lam
        enter(u, column, where)
        if eta - best <= CUT_TOL * eta or np.array_equal(lam, previous):
            break

    rate = 1.0 / eta  # on the scaled grid; the shares are the same on both
    alpha = eta * packing.x
    mixed = np.zeros((len(subsets), B))
    mixed[:, seeded] = (alpha[: seeded.size] / spread) * reach
    mixed = sum((a * u for a, u in zip(alpha[seeded.size:].tolist(), mixes) if a != 0.0), mixed)
    gap = ldexp(_gap(best, eta), scale)
    alloc = allocation(np.ascontiguousarray((rate / piece_count) * mixed.T), ldexp(rate, scale), solves, gap)
    if not alloc.report.feasible:
        raise NumericalFailure(
            f"{label}: allocation fails its recheck (largest violation {alloc.report.violation:.3g})"
            f" (subset solve {solves}, gap {gap:.3g})"
        )
    return alloc


def check_allocation(stats: ChannelStats, alloc: DeliveryAllocation) -> FeasibilityReport:
    """Decodability margins, level slacks, the largest violation, and feasibility at FEAS_TOL.

    A margin is a symbol mass, which scales with the CCDF grid, so it is
    judged in units of 2^e, e = channel.scale_exponent: against
    FEAS_TOL * 2^e.  Shares and level slacks are fractions of a level's
    uses and keep FEAS_TOL.  On a grid whose largest entry lies in
    (1/2, 1], e = 0.
    """
    if alloc.num_users != stats.num_users or alloc.num_levels != stats.num_levels:
        raise LengthMismatch("allocation dimensions do not match the channel")
    if alloc.shares.shape != (alloc.num_levels, len(alloc.subsets)):
        raise LengthMismatch(f"shares must be {alloc.num_levels} x {len(alloc.subsets)}, got {alloc.shares.shape}")
    piece_count = math.comb(alloc.num_users, alloc.t)
    required = alloc.rate / piece_count
    member_ccdf = stats.ccdf[np.array(alloc.subsets) - 1]  # (subsets, t+1, B)
    # Each entry is ccdf[k-1] @ shares[:, j] to the byte: the strided view of
    # the shares makes vecdot sum in the same order (a contiguous copy does not).
    margins = np.vecdot(member_ccdf, alloc.shares.T[:, None, :]) - required
    level_slacks = 1.0 - alloc.shares.sum(axis=1)
    scaled = np.ldexp(margins.ravel(), -scale_exponent(stats.ccdf))  # in units of the grid's scale
    worst = float(np.max(-np.concatenate([scaled, level_slacks, alloc.shares.ravel()])))
    violation = 0.0 if worst <= 0.0 else worst  # a NaN stays NaN, and NaN <= FEAS_TOL is False
    return FeasibilityReport(
        feasible=violation <= FEAS_TOL, required=required, margins=margins,
        level_slacks=level_slacks, violation=violation,
    )
