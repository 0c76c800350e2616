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
upper_bound_rate builds the K! orderings' LPs with numpy, looking up the
coverage of each distinct prefix once, solves them in lockstep stacks
(lp.solve_lps) and reports the minimum.
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
from .lp import FEAS_TOL, OPTIMAL, LpProblem, solve_lps

MAX_BOUND_USERS = 8
# Orderings whose LPs are built and solved by one solve_lps call: a few
# lockstep stacks' worth.  The LPs and solutions held at once then stay
# under 1 MB at any K; with all 720 orderings of K = 6 at once the
# process's peak memory was 3 MB higher.
ORDERINGS_PER_CALL = 120


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


def _prefix_cover(tup: CachingTuple, orderings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gap (1 - coverage, as a float) and full-coverage flag of every prefix.

    orderings is an (L, K) array of orderings; both results are (L, K).
    The coverage of each distinct prefix set is looked up once.
    """
    K = orderings.shape[1]
    masks = np.bitwise_or.accumulate(1 << (orderings - 1), axis=1)
    gaps = np.zeros(1 << K)
    full = np.zeros(1 << K, dtype=bool)
    for mask in set(masks.flat):
        coverage = tup.of(k + 1 for k in range(K) if mask >> k & 1)
        gaps[mask] = float(1 - coverage)
        full[mask] = coverage == 1  # exact: coverage is a Fraction
    return gaps[masks], full[masks]


def _permutation_lps(
    stats: ChannelStats, orderings: np.ndarray, gaps: np.ndarray, full: np.ndarray
) -> list[LpProblem]:
    """The per-ordering LPs of an (L, K) array of orderings, built at once."""
    size, K = orderings.shape
    B = stats.num_levels
    decode = np.arange(K * B)
    chain = np.arange(K - 1)
    a_ub = np.zeros((size, K * B + K - 1, K + B))
    a_ub[:, decode, decode // B] = stats.ccdf[orderings - 1].reshape(size, K * B)
    a_ub[:, decode, K + decode % B] = -np.repeat(gaps, B, axis=1)
    a_ub[:, K * B + chain, chain] = -gaps[:, 1:]
    a_ub[:, K * B + chain, chain + 1] = gaps[:, :-1]
    b_ub = np.zeros((size, K * B + K - 1))
    c = np.zeros((size, K + B))
    c[:, K:] = 1.0

    problems: list[LpProblem] = [None] * size  # type: ignore[list-item]
    pins = full.sum(axis=1)
    for count in sorted(set(pins.tolist())):
        group = np.flatnonzero(pins == count)
        pinned = np.nonzero(full[group])[1].reshape(group.size, count)
        a_eq = np.zeros((group.size, 1 + count, K + B))
        a_eq[:, 0, :K] = 1.0
        a_eq[np.arange(group.size)[:, None], 1 + np.arange(count), pinned] = 1.0
        b_eq = np.zeros((group.size, 1 + count))
        b_eq[:, 0] = 1.0
        for j, i in enumerate(group.tolist()):
            problems[i] = LpProblem(c=c[i], a_ub=a_ub[i], b_ub=b_ub[i], a_eq=a_eq[j], b_eq=b_eq[j])
    return problems


def build_permutation_lp(
    stats: ChannelStats, tup: CachingTuple, pi: Sequence[int]
) -> LpProblem:
    """The per-ordering LP in variables x = [sigma_1..K, theta_1..B]."""
    orderings = np.array([_check_permutation(stats.num_users, pi)])
    return _permutation_lps(stats, orderings, *_prefix_cover(tup, orderings))[0]


def upper_bound_rate(stats: ChannelStats, tup: CachingTuple) -> UpperBoundReport:
    """Tight bound: minimum of the per-ordering LP values over all K! orderings."""
    K = stats.num_users
    if K > MAX_BOUND_USERS:
        raise TooManyUsers(f"ordering enumeration capped at {MAX_BOUND_USERS} users")
    orderings = list(permutations(range(1, K + 1)))
    # sigma_1 pinned to zero contradicts sum(sigma) = 1: such an ordering
    # admits no weight vector, so it contributes an infinite bound.
    values = [inf] * len(orderings)
    # x of each ordering whose value is below every earlier one.  The argmin
    # below is among them: every ordering before it lies more than FEAS_TOL
    # above the minimum, so above the argmin's value.
    lowering: dict[int, np.ndarray] = {}
    least = inf
    for start in range(0, len(orderings), ORDERINGS_PER_CALL):
        batch = np.array(orderings[start:start + ORDERINGS_PER_CALL])
        gaps, full = _prefix_cover(tup, batch)
        solvable = np.flatnonzero(~full[:, 0]).tolist()
        outcomes = solve_lps(_permutation_lps(stats, batch[solvable], gaps[solvable], full[solvable]))
        for i, outcome in zip(solvable, outcomes):
            pi = orderings[start + i]
            if isinstance(outcome, NumericalFailure):
                raise NumericalFailure(
                    f"ordering {pi} (K={K}, B={stats.num_levels}): {outcome}"
                ) from outcome
            if outcome.status != OPTIMAL:
                raise UnexpectedLpStatus(f"ordering {pi}: LP status {outcome.status}")
            values[start + i] = outcome.value
            if outcome.value < least:
                lowering[start + i], least = outcome.x, outcome.value

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
