"""Monte-Carlo validation of a delivery allocation against sampled states.

Each level's num_uses channel uses are split into contiguous spans, one per
message subset plus an idle tail, sized by largest-remainder apportionment
of the allocation's shares so the spans always sum to num_uses.  User k
collects the symbol of level l at use t exactly when its drawn level count
reaches l.  Every tally depends on user k's levels only through how many
uses of each piece reach each level, a piece being the stretch of uses
between two consecutive boundaries of the spans of k's subsets (on any
level, with 0 and num_uses).  The uses are i.i.d., so a piece's counts of
the levels 0..B are multinomial, and simulate_delivery draws them directly
(Devroye, Non-Uniform Random Variate Generation, 1986, ch. XI): one
rng.multinomial call per user over its pieces, from one child of
SeedSequence(seed) per user, in user order.  Exact in distribution, it
costs O(K * pieces) draws and memory, not O(K * n).  With keep_levels each
piece's counts are laid out as one intp buffer of that piece's length,
shuffled with the same generator after the user's multinomial draw, and
copied into the user's row of levels: the uses inside a piece are
exchangeable, so the levels are an exact i.i.d. realization, and the
tallies are the same with and without them.  Generator.shuffle makes the
same draws on any item size but runs fastest on intp items, so the levels
are those of an in-place shuffle of the row's own slice; the buffer holds
one piece, never a row, so memory stays within the K x n levels plus 8
bytes a use of the longest piece.  They are not the levels
channel.sample_states draws with the same seed.  A message
is decodable once its collected symbols cover its size:
delivered >= ceil(num_uses * rate / C(K,t)), with a tiny guard so an
exactly integer threshold is not pushed up by roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .channel import ChannelStats, StateRealization, check_draws
from .channel import sample_states  # noqa: F401  perfbench/selftest.py reads it as simulator.sample_states
from .errors import InfeasibleAllocation
from .lp_scheme import DeliveryAllocation, Subset, check_allocation

CEIL_GUARD = 1e-9


@dataclass(frozen=True)
class MessageOutcome:
    """Delivery tally for one (user, subset) pair."""

    user: int
    subset: Subset
    delivered: int
    required: int
    empirical_margin: float
    analytic_margin: float
    std_error: float
    decodable: bool


@dataclass(frozen=True)
class SimulationReport:
    """Tally of one simulated delivery; realization holds the drawn levels
    when simulate_delivery was asked to keep them, and is None otherwise."""

    num_uses: int
    seed: int
    rate: float
    t: int
    messages: tuple[MessageOutcome, ...]
    user_decodable: tuple[bool, ...]
    empirical_ccdf: np.ndarray
    ccdf_std_error: np.ndarray
    realization: Optional[StateRealization]


def apportion(quotas: list[float], total: int) -> list[int]:
    """Integer split of `total` proportional to quotas, largest remainder."""
    floors = [max(0, math.floor(q)) for q in quotas]
    missing = total - sum(floors)
    counts = list(floors)
    step = 1 if missing > 0 else -1  # hand out by largest remainder, or trim by smallest
    order = sorted(range(len(quotas)), key=lambda i: (step * (floors[i] - quotas[i]), i))
    while missing:  # may need several passes when quotas under- or oversum
        for i in order:
            if missing == 0:
                break
            if counts[i] + step >= 0:
                counts[i] += step
                missing -= step
    return counts


def empirical_ccdf(realization: StateRealization) -> tuple[np.ndarray, np.ndarray]:
    """Per-user level-frequency estimates and their binomial standard errors.

    hat[k][l-1] is the share of uses on which user k got at least l levels,
    counted on the levels' own small dtype (no cast to a wide integer row).
    """
    B = realization.num_levels
    counts = [[np.count_nonzero(row > l) for l in range(B)] for row in realization.levels]
    return _ccdf_estimates(counts, realization.num_uses)


def _ccdf_estimates(counts: list[list[int]], num_uses: int) -> tuple[np.ndarray, np.ndarray]:
    hat = np.array(counts) / num_uses
    se = np.sqrt(hat * (1.0 - hat) / num_uses)
    return hat, se


def simulate_delivery(
    stats: ChannelStats,
    alloc: DeliveryAllocation,
    num_uses: int,
    seed: int,
    keep_levels: bool = False,
) -> SimulationReport:
    """Sample states and tally symbol delivery for every (user, subset) pair.

    The spans of every level are apportioned once.  Then, user by user,
    one multinomial draw gives the uses of each piece at each level count
    (see the module docstring); a piece's hits on level l are its uses at
    counts >= l, and their prefix sums at the piece boundaries give each
    span's delivery as the difference of two sums, and the user's empirical
    CCDF counts as the sums at num_uses.  With keep_levels the K x n levels
    are kept as the report's realization; the tallies are the same either
    way.

    A message's std_error is the standard deviation of delivered / n.
    Every level's spans are laid out in subset order from use 0, so one
    subset's spans on two levels share uses, and on a shared use the
    indicators L >= l are nested, hence correlated: the variance is the
    sum over level pairs of the shared uses times p[max(l, l')] - p[l] p[l'].
    """
    report = check_allocation(stats, alloc)
    if not report.feasible:
        raise InfeasibleAllocation(
            f"allocation fails its decodability or budget checks (largest violation {report.violation:.3g})"
        )

    check_draws(num_uses, seed)
    per_use_size = report.required
    required = math.ceil(num_uses * per_use_size - CEIL_GUARD)

    # Uses starts[l][j] up to starts[l][j + 1] of level l go to subset j.
    num_subsets, num_levels = len(alloc.subsets), stats.num_levels
    starts = []
    for l in range(num_levels):
        quotas = [num_uses * float(alloc.shares[l, j]) for j in range(num_subsets)]
        quotas.append(max(0.0, num_uses * (1.0 - alloc.shares[l].sum())))
        starts.append([0, *accumulate(apportion(quotas, num_uses))])
    # overlap[j, l, l']: the uses that subset j's spans on levels l and l' share.
    bounds = np.array(starts).T
    first, last = bounds[:num_subsets], bounds[1 : num_subsets + 1]
    overlap = np.minimum(last[:, :, None], last[:, None, :]) - np.maximum(first[:, :, None], first[:, None, :])
    np.maximum(overlap, 0, out=overlap)
    deeper = np.maximum.outer(np.arange(num_levels), np.arange(num_levels))

    levels = np.empty((stats.num_users, num_uses), dtype=np.min_scalar_type(num_levels)) if keep_levels else None
    # law[k, v] = P(L_k = v), v = 0..B, off the row's cumulative minimum.
    law = np.maximum(0.0, -np.diff(np.minimum.accumulate(stats.ccdf, axis=1), axis=1, prepend=1.0, append=0.0))
    law /= law.sum(axis=1, keepdims=True)
    delivered = {}
    variance = {}
    counts = []
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(stats.num_users), start=1):
        rng = np.random.default_rng(child)
        mine = [(j, s) for j, s in enumerate(alloc.subsets) if k in s]
        cuts = sorted({0, num_uses, *(starts[l][j + e] for l in range(num_levels) for j, _ in mine for e in (0, 1))})
        drawn = rng.multinomial([b - a for a, b in zip(cuts, cuts[1:])], law[k - 1])  # (pieces, B + 1)
        # A piece's hits on level l are its uses at counts >= l; before[pos][l]
        # sums level l's hits on the uses before the cut pos.
        prefix = np.zeros((len(cuts), num_levels), dtype=np.int64)
        np.cumsum(np.cumsum(drawn[:, :0:-1], axis=1)[:, ::-1], axis=0, out=prefix[1:])
        before = dict(zip(cuts, prefix.tolist()))
        counts.append(before[num_uses])
        # Cov(L >= l, L >= l') = p[max(l, l')] - p[l] p[l'] on a use both spans hold.
        p = stats.ccdf[k - 1]
        covariance = p[deeper] - np.outer(p, p)
        for j, s in mine:
            delivered[(k, s)] = sum(before[starts[l][j + 1]][l] - before[starts[l][j]][l] for l in range(num_levels))
            variance[(k, s)] = float((overlap[j] * covariance).sum())
        if levels is not None:
            row, values = levels[k - 1], np.arange(num_levels + 1)
            for a, b, piece in zip(cuts, cuts[1:], drawn):
                # Generator.shuffle makes the same draws on any item size,
                # but is fastest on intp items: shuffle the piece there.
                buffer = np.repeat(values, piece)
                rng.shuffle(buffer)
                row[a:b] = buffer
                del buffer  # before the next piece's buffer is made

    realization = None
    if levels is not None:
        levels.setflags(write=False)
        realization = StateRealization(stats.num_users, num_levels, num_uses, seed, levels)

    messages = []
    user_ok = [True] * stats.num_users
    for s, margins in zip(alloc.subsets, report.margins.tolist()):
        for k, margin in zip(s, margins):
            got_count = delivered[(k, s)]
            outcome = MessageOutcome(
                user=k,
                subset=s,
                delivered=got_count,
                required=required,
                empirical_margin=got_count / num_uses - per_use_size,
                analytic_margin=margin,
                std_error=math.sqrt(variance[(k, s)]) / num_uses,
                decodable=got_count >= required,
            )
            messages.append(outcome)
            if not outcome.decodable:
                user_ok[k - 1] = False

    hat, se = _ccdf_estimates(counts, num_uses)
    return SimulationReport(
        num_uses=num_uses,
        seed=seed,
        rate=alloc.rate,
        t=alloc.t,
        messages=tuple(messages),
        user_decodable=tuple(user_ok),
        empirical_ccdf=hat,
        ccdf_std_error=se,
        realization=realization,
    )
