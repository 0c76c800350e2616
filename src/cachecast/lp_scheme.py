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

build_delivery_lp writes this LP out densely (for --dump-matrices and as
the reference the tests solve): columns are ordered level-major with
subsets lexicographic inside a level and the rate variable f last;
decodability rows iterate subsets in lexicographic order with each
subset's members ascending.

achievable_rate_lp never builds that matrix.  Only the B budget rows
couple the subsets, so with level prices lambda on the simplex,

    c_S(lambda) = min { lambda.u : ccdf[k].u >= 1 for k in S, u >= 0 }
                = max { sum_{k in S} v_k : sum_k v_k ccdf[k][l] <= lambda_l, v >= 0 }

is what one unit of S's message costs, and by minimax duality
1/f* = max over the simplex of phi(lambda) = sum_S c_S(lambda) / C(K,t).
phi is concave and polyhedral, and Kelley's cutting-plane method (Kelley
1960; Dantzig and Wolfe 1960) finds its maximum exactly.  Each iteration
solves the C(K,t+1) subproblems at the current lambda in their min form
(t+1 rows, B columns, costs lambda).  The optimal u_S meet S's rows
whatever lambda is, so g = sum_S u_S / C(K,t) gives the cut
phi(lambda') <= g.lambda', and sum_S c_S(lambda) / C(K,t), with
c_S(lambda) = lambda.u_S, is a lower value of max phi.  The master is
the Dantzig-Wolfe packing LP over the cuts,

    maximize sum_i a_i  s.t.  sum_i a_i g_i[l] <= 1 for every level l,  a >= 0,

the dual of  max eta s.t. eta <= g_i.lambda for every cut i,
sum_l lambda_l <= 1.  Its value v gives the upper value eta = 1/v >= 1/f*,
its level prices -dual_ub (which sum to v) give the next
lambda = -eta dual_ub on the simplex, and its solution gives the convex
cut weights alpha = eta a.

Both are kept from cut to cut as lp.LpStacks, since neither a new lambda
nor a new cut makes the last optimal basis infeasible.  In the min form
lambda is only the cost: the rows ccdf[S] u >= 1 never change, so each
cut reprices the subset stack and resumes the simplex from its last
bases.  Its first bases are one crash pivot per subset
(LpStack.covering), level 1 entering at the member with the smallest
ccdf[k][0]; that is feasible because every live CCDF row is
nonincreasing and nonzero, so its first entry is positive, and at the
first lambda, uniform, it is already optimal.  A cut only adds a column
to the master, which add_column pivots in before the master resumes
from its last basis.  The column enters even when its reduced cost,
-(eta - L)/eta for the cut's lower value L, lies within the simplex's
FEAS_TOL of 0: left out, it would leave the duals and so lambda as they
were.  The loop stops when eta and the best lower value agree to CUT_TOL
relative, or when lambda comes back unchanged: the master's optimum then
lies on the new cut, so eta equals that cut's lower value up to
rounding, and the next cut would repeat it.  Then

    f = 1/eta,   y_S = (f / C(K,t)) sum_i alpha_i u_S^i

is feasible by construction: each u_S^i meets S's decodability rows at
rate 1, and sum_i alpha_i g_i <= eta levelwise is the master's own
feasibility.  1/(best lower value) >= f* bounds the optimum from above, so
gap = 1/(best lower value) - f certifies how far f can lie below it (0
when rounding puts the two values a few ulps the wrong way round).
A user whose ccdf[k][0] is 0 never receives a level (validation lets a
later entry exceed it by PROB_TOL at most) and decodes nothing: the rate
is 0 and every share 0.  The allocation is rechecked by check_allocation, against
every decodability and budget row and the sign of every share, before it
is returned; a subset stack or master raises through lp.require_optimal
at its first LP that is not optimal, naming the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import inf

import numpy as np

from .caching import cache_size
from .channel import ChannelStats
from .errors import BadT, LengthMismatch, NonIntegerT, NumericalFailure
from .lp import FEAS_TOL, OPTIMAL, LpStack, require_optimal

Subset = tuple[int, ...]

# Relative gap between the master value and the best lower value at which
# the cutting planes stop; random grids converge in 10-60 cuts.
CUT_TOL = 1e-12
MAX_CUTS = 500


@dataclass(frozen=True)
class DeliveryLp:
    """The dense rate LP min c.x s.t. a_ub.x <= b_ub, x >= 0, plus the labels needed to read it.

    c is -1 on f and 0 elsewhere.  a_ub stacks the decodability rows (one
    per (subset, member), coefficients -ccdf[k][l] on y[l][S] and 1/C(K,t)
    on f, rhs 0) on top of the per-level time-budget rows (ones on level
    l's columns, rhs 1).
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    num_users: int
    num_levels: int
    t: int
    subsets: tuple[Subset, ...]
    decode_rows: tuple[tuple[int, Subset], ...]

    def column(self, level: int, subset: Subset) -> int:
        """0-based column of y[level][subset] (level is 1-based)."""
        return (level - 1) * len(self.subsets) + self.subsets.index(tuple(subset))


@dataclass(frozen=True)
class DeliveryAllocation:
    """Level time shares y (B x num_subsets) at a claimed rate.

    iterations is the number of cuts achievable_rate_lp took and gap its
    certificate: the optimum lies in [rate, rate + gap].  Both are 0 for an
    allocation built otherwise.
    """

    num_users: int
    num_levels: int
    t: int
    subsets: tuple[Subset, ...]
    shares: np.ndarray
    rate: float
    iterations: int = 0
    gap: float = 0.0

    def share(self, level: int, subset: Subset) -> float:
        return float(self.shares[level - 1, self.subsets.index(tuple(subset))])


@dataclass(frozen=True)
class FeasibilityReport:
    """Decodability margins and level budget slacks of an allocation."""

    feasible: bool  # violation <= FEAS_TOL
    required: float  # per-message size f / C(K,t)
    margins: dict[tuple[int, Subset], float]
    level_slacks: np.ndarray
    violation: float  # how far the lowest margin, slack or share lies below 0; 0.0 if none does, NaN on a NaN

    def margin(self, user: int, subset: Subset) -> float:
        return self.margins[(user, tuple(subset))]


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


def build_delivery_lp(stats: ChannelStats, t: int) -> DeliveryLp:
    """Assemble the dense rate LP (minimizing -f) for subpacketization t."""
    K, B = stats.num_users, stats.num_levels
    subsets = message_subsets(K, t)
    num_subsets = len(subsets)
    num_vars = B * num_subsets + 1

    decode_rows: list[tuple[int, Subset]] = [(k, s) for s in subsets for k in s]
    users = np.array([k - 1 for k, _ in decode_rows], dtype=int)
    subset_of_row = np.repeat(np.arange(num_subsets), t + 1)
    a_ub = np.zeros((len(decode_rows) + B, num_vars))
    rows = np.arange(len(decode_rows))[:, None]
    a_ub[rows, np.arange(B) * num_subsets + subset_of_row[:, None]] = -stats.ccdf[users]
    a_ub[rows[:, 0], -1] = 1.0 / math.comb(K, t)
    for l in range(B):
        a_ub[len(decode_rows) + l, l * num_subsets: (l + 1) * num_subsets] = 1.0

    c = np.zeros(num_vars)
    c[-1] = -1.0
    return DeliveryLp(
        c=c,
        a_ub=a_ub,
        b_ub=np.concatenate([np.zeros(len(decode_rows)), np.ones(B)]),
        num_users=K,
        num_levels=B,
        t=t,
        subsets=subsets,
        decode_rows=tuple(decode_rows),
    )


def _gap(lower: float, upper: float) -> float:
    """1/lower - 1/upper: how far the rate 1/upper can lie below the optimum (0 if rounding inverts them)."""
    return max(0.0, (1.0 / lower if lower > 0.0 else inf) - 1.0 / upper)


def achievable_rate_lp(stats: ChannelStats, mu) -> DeliveryAllocation:
    """Solve the rate LP at cache size mu (K*mu must be an integer in 0..K-1)."""
    t = t_from_mu(stats.num_users, mu)
    K, B = stats.num_users, stats.num_levels
    subsets = message_subsets(K, t)
    piece_count = math.comb(K, t)
    label = f"delivery LP (K={K}, t={t}, B={B})"
    member_ccdf = stats.ccdf[np.array(subsets) - 1]  # (subsets, t+1, B)

    def allocation(shares: np.ndarray, rate: float, iterations: int, gap: float) -> DeliveryAllocation:
        shares.setflags(write=False)
        return DeliveryAllocation(K, B, t, subsets, shares, rate, iterations, gap)

    if not (stats.ccdf[:, 0] > 0.0).all():  # a user on a dead channel decodes nothing
        return allocation(np.zeros((B, len(subsets))), 0.0, 0, 0.0)

    subproblems = LpStack.covering(member_ccdf)  # S's: min lambda.u s.t. ccdf[S] u >= 1, u >= 0
    lam = np.full(B, 1.0 / B)
    master = LpStack(np.zeros((1, B, 0)), np.ones(B))  # the packing LP: max sum_i a_i s.t. sum_i a_i g_i <= 1
    prices: list[np.ndarray] = []  # per cut, u_S of every subset (subsets x B)
    best, eta = 0.0, inf
    for iteration in range(1, MAX_CUTS + 1):
        where = f"cut {iteration}, gap {_gap(best, eta):.3g}"
        stack = subproblems.solve(lam)
        if stack.status.count(OPTIMAL) < len(subsets):
            for s, outcome in zip(subsets, stack):
                require_optimal(outcome, label, f"subset {s}, {where}")
        u = stack.x
        best = max(best, sum(stack.value.tolist()) / piece_count)
        prices.append(u)
        master.add_column(u.sum(axis=0) / piece_count)
        (packing,) = master.solve(-np.ones(iteration))
        packing = require_optimal(packing, label, f"master LP, {where}")
        eta = -1.0 / packing.value
        lam, previous = np.maximum(-eta * packing.dual_ub, 0.0), lam
        if eta - best <= CUT_TOL * eta or np.array_equal(lam, previous):
            break
    else:
        raise NumericalFailure(
            f"{label}: cutting planes did not converge in {MAX_CUTS} cuts (gap {_gap(best, eta):.3g})"
        )

    rate = 1.0 / eta
    alpha = eta * packing.x
    mixed = sum(a * u for a, u in zip(alpha.tolist(), prices) if a != 0.0)
    gap = _gap(best, eta)
    alloc = allocation(np.ascontiguousarray((rate / piece_count) * mixed.T), rate, iteration, gap)
    report = check_allocation(stats, alloc)
    if not report.feasible:
        raise NumericalFailure(
            f"{label}: allocation fails its recheck (largest violation {report.violation:.3g})"
            f" (cut {iteration}, gap {gap:.3g})"
        )
    return alloc


def check_allocation(stats: ChannelStats, alloc: DeliveryAllocation) -> FeasibilityReport:
    """Decodability margins, level slacks, the largest violation, and feasibility at FEAS_TOL."""
    if alloc.num_users != stats.num_users or alloc.num_levels != stats.num_levels:
        raise LengthMismatch("allocation dimensions do not match the channel")
    if alloc.shares.shape != (alloc.num_levels, len(alloc.subsets)):
        raise LengthMismatch(f"shares must be {alloc.num_levels} x {len(alloc.subsets)}, got {alloc.shares.shape}")
    piece_count = math.comb(alloc.num_users, alloc.t)
    required = alloc.rate / piece_count
    member_ccdf = stats.ccdf[np.array(alloc.subsets) - 1]  # (subsets, t+1, B)
    # Each entry is ccdf[k-1] @ shares[:, j] to the byte: the strided view of
    # the shares makes vecdot sum in the same order (a contiguous copy does not).
    excess = np.vecdot(member_ccdf, alloc.shares.T[:, None, :]) - required
    margins: dict[tuple[int, Subset], float] = {
        (k, s): m for s, row in zip(alloc.subsets, excess.tolist()) for k, m in zip(s, row)
    }
    level_slacks = 1.0 - alloc.shares.sum(axis=1)
    worst = float(np.max(-np.concatenate([excess.ravel(), level_slacks, alloc.shares.ravel()])))
    violation = 0.0 if worst <= 0.0 else worst  # a NaN stays NaN, and NaN <= FEAS_TOL is False
    return FeasibilityReport(
        feasible=violation <= FEAS_TOL, required=required, margins=margins,
        level_slacks=level_slacks, violation=violation,
    )
