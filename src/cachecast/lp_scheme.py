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

Columns are ordered level-major with subsets lexicographic inside a level
and the rate variable f last; decodability rows iterate subsets in
lexicographic order with each subset's members ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .channel import ChannelStats
from .errors import BadT, LengthMismatch, MuOutOfRange, NonIntegerT, NumericalFailure, UnexpectedLpStatus
from .lp import FEAS_TOL, OPTIMAL, LpProblem, lp_problem, solve_lp

Subset = tuple[int, ...]


@dataclass(frozen=True)
class DeliveryLp:
    """LP plus the labels needed to read its matrices.

    problem.a_ub stacks the decodability rows (one per (subset, member),
    coefficients -ccdf[k][l] on y[l][S] and 1/C(K,t) on f) on top of the
    per-level time-budget rows (ones on level l's columns).
    """

    problem: LpProblem
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
    """Level time shares y (B x num_subsets) at a claimed rate."""

    num_users: int
    num_levels: int
    t: int
    subsets: tuple[Subset, ...]
    shares: np.ndarray
    rate: float

    def share(self, level: int, subset: Subset) -> float:
        return float(self.shares[level - 1, self.subsets.index(tuple(subset))])


@dataclass(frozen=True)
class FeasibilityReport:
    """Decodability margins and level budget slacks of an allocation."""

    feasible: bool
    required: float  # per-message size f / C(K,t)
    margins: dict[tuple[int, Subset], float]
    level_slacks: np.ndarray

    def margin(self, user: int, subset: Subset) -> float:
        return self.margins[(user, tuple(subset))]


def _check_t(num_users: int, t: int) -> int:
    if not 0 <= t <= num_users - 1:
        raise BadT(f"t must lie in 0..{num_users - 1}, got {t}")
    return t


def t_from_mu(num_users: int, mu) -> int:
    """Subset size t = K*mu of cache size mu, which must leave data to deliver."""
    mu = Fraction(mu)
    if not 0 <= mu <= 1:
        raise MuOutOfRange("mu must lie in [0, 1]")
    t = mu * num_users
    if t.denominator != 1:
        raise NonIntegerT(f"K*mu = {t} is not an integer")
    if t == num_users:
        raise BadT("mu = 1 leaves nothing to deliver")
    return int(t)


def message_subsets(num_users: int, t: int) -> tuple[Subset, ...]:
    """All size-(t+1) user subsets in lexicographic order."""
    t = _check_t(num_users, t)
    return tuple(combinations(range(1, num_users + 1), t + 1))


def build_delivery_lp(stats: ChannelStats, t: int) -> DeliveryLp:
    """Assemble the rate LP (minimizing -f) for subpacketization t."""
    t = _check_t(stats.num_users, t)
    K, B = stats.num_users, stats.num_levels
    subsets = message_subsets(K, t)
    num_subsets = len(subsets)
    num_vars = B * num_subsets + 1
    piece_count = math.comb(K, t)

    decode_rows: list[tuple[int, Subset]] = [(k, s) for s in subsets for k in s]
    a_ub = np.zeros((len(decode_rows), num_vars))
    for r, (k, s) in enumerate(decode_rows):
        j = subsets.index(s)
        for l in range(B):
            a_ub[r, l * num_subsets + j] = -stats.ccdf[k - 1, l]
        a_ub[r, -1] = 1.0 / piece_count
    budget = np.zeros((B, num_vars))
    for l in range(B):
        budget[l, l * num_subsets: (l + 1) * num_subsets] = 1.0

    c = np.zeros(num_vars)
    c[-1] = -1.0
    problem = lp_problem(
        c,
        a_ub=np.vstack([a_ub, budget]),
        b_ub=np.concatenate([np.zeros(len(decode_rows)), np.ones(B)]),
    )
    return DeliveryLp(
        problem=problem,
        num_users=K,
        num_levels=B,
        t=t,
        subsets=subsets,
        decode_rows=tuple(decode_rows),
    )


def achievable_rate_lp(stats: ChannelStats, mu) -> DeliveryAllocation:
    """Solve the rate LP at cache size mu (K*mu must be an integer in 0..K-1)."""
    t = t_from_mu(stats.num_users, mu)
    built = build_delivery_lp(stats, t)
    label = f"delivery LP (K={stats.num_users}, t={t}, B={stats.num_levels})"
    try:
        solution = solve_lp(built.problem)
    except NumericalFailure as exc:
        raise NumericalFailure(f"{label}: {exc}") from exc
    if solution.status != OPTIMAL:
        raise UnexpectedLpStatus(f"{label}: status {solution.status}")
    num_subsets = len(built.subsets)
    shares = solution.x[:-1].reshape(stats.num_levels, num_subsets).copy()
    shares.setflags(write=False)
    return DeliveryAllocation(
        num_users=stats.num_users,
        num_levels=stats.num_levels,
        t=t,
        subsets=built.subsets,
        shares=shares,
        rate=float(solution.x[-1]),
    )


def check_allocation(stats: ChannelStats, alloc: DeliveryAllocation) -> FeasibilityReport:
    """Decodability margins, level slacks, and overall feasibility at FEAS_TOL."""
    if alloc.num_users != stats.num_users or alloc.num_levels != stats.num_levels:
        raise LengthMismatch("allocation dimensions do not match the channel")
    piece_count = math.comb(alloc.num_users, alloc.t)
    required = alloc.rate / piece_count
    margins: dict[tuple[int, Subset], float] = {}
    for j, s in enumerate(alloc.subsets):
        for k in s:
            got = float(stats.ccdf[k - 1] @ alloc.shares[:, j])
            margins[(k, s)] = got - required
    level_slacks = 1.0 - alloc.shares.sum(axis=1)
    feasible = (
        all(m >= -FEAS_TOL for m in margins.values())
        and bool(np.all(level_slacks >= -FEAS_TOL))
        and bool(np.all(alloc.shares >= -FEAS_TOL))
    )
    return FeasibilityReport(
        feasible=feasible,
        required=required,
        margins=margins,
        level_slacks=level_slacks,
    )
