"""Cache placements as exact rational subsets of the unit file interval.

A file is the interval (0, 1]; user k prefetches a subset c_k of measure mu.
Everything here is exact: endpoints are fractions.Fraction, intervals are
half-open (a, b], and set operations are endpoint sweeps with no floats.

The central placement splits the file by subset ranks: with t = floor(mu*K)
and lam = mu*K - t, every size-t subset S of users owns the slice

    J_S = ((rank(S)-1)/C(K,t), rank(S)/C(K,t)]

of the first (1-lam) of the file (rank = 1-based lexicographic position),
and every size-(t+1) subset owns the matching slice of the remaining lam.
User k caches the slices of all subsets containing it.

A CachingTuple holds the coverage (cache-union measure) of every user
subset, indexed by bitmask: bit k-1 stands for user k, entry 0 (no user)
is 0.  caching_tuple sweeps intervals.  central_tuple, the CLI's path,
reads each mask's popcount q: the union of q users' central caches has a
measure that depends only on q, given in closed form by central_coverage.
central_strategy builds the intervals, the reference the closed form is
checked against.

cache_size is the package's one check of mu, the CLI's too: NaN, infinities,
booleans, non-numbers and values outside [0, 1] raise MuOutOfRange.  A
checked mu puts t = floor(mu*K) in 0..K, where math.comb needs no guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import EmptySubset, MuOutOfRange, OutOfRange, TooManyUsers

MAX_USERS = 16

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CachingStrategy:
    """Per-user cached subsets of (0, 1], canonical (sorted, disjoint, merged)."""

    num_users: int
    mu: Fraction
    intervals: tuple[tuple[Interval, ...], ...]

    def user(self, k: int) -> tuple[Interval, ...]:
        return self.intervals[k - 1]


@dataclass(frozen=True)
class CachingTuple:
    """Coverage measure of every user subset, indexed by bitmask (bit k-1 is user k)."""

    num_users: int
    mu: Fraction
    coverage: tuple[Fraction, ...]

    def of(self, users: Iterable[int]) -> Fraction:
        return self.coverage[sum(1 << (k - 1) for k in _check_users(self.num_users, users))]


def _merge(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Canonicalize: drop empties, sort, fuse overlapping or touching pieces."""
    pieces = sorted((a, b) for a, b in intervals if a < b)
    merged: list[list[Fraction]] = []
    for a, b in pieces:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


def _measure(intervals: Iterable[Interval]) -> Fraction:
    return sum((b - a for a, b in intervals), Fraction(0))


def cache_size(mu) -> Fraction:
    """mu as an exact Fraction in [0, 1]; MuOutOfRange for anything else, a boolean included."""
    try:
        if isinstance(mu, bool):  # Fraction(True) would be 1
            raise TypeError
        size = Fraction(mu)
    except (TypeError, ValueError, OverflowError) as exc:  # non-numbers, NaN, infinities
        raise MuOutOfRange(f"mu must be a number in [0, 1], got {mu!r}") from exc
    if not 0 <= size <= 1:
        raise MuOutOfRange(f"mu must lie in [0, 1], got {mu}")
    return size


def _check_users(num_users: int, users: Iterable[int]) -> tuple[int, ...]:
    chosen = tuple(sorted(set(users)))
    if not chosen:
        raise EmptySubset("user subset must be nonempty")
    if chosen[0] < 1 or chosen[-1] > num_users:
        raise OutOfRange(f"user ids must lie in 1..{num_users}")
    return chosen


def strategy_from_intervals(
    intervals: Sequence[Sequence[tuple[Fraction, Fraction]]],
    mu: Fraction,
) -> CachingStrategy:
    """Validate an explicit placement: intervals within (0,1], per-user measure mu."""
    mu = cache_size(mu)
    if not intervals:
        raise EmptySubset("need at least one user")
    canonical: list[tuple[Interval, ...]] = []
    for k, user_iv in enumerate(intervals, start=1):
        pieces = [(Fraction(a), Fraction(b)) for a, b in user_iv]
        for a, b in pieces:
            if not (0 <= a < b <= 1):
                raise OutOfRange(f"user {k}: interval ({a}, {b}] not inside (0, 1]")
        merged = _merge(pieces)
        if _measure(merged) != mu:
            raise OutOfRange(f"user {k}: cached measure {_measure(merged)} != mu {mu}")
        canonical.append(merged)
    return CachingStrategy(num_users=len(canonical), mu=mu, intervals=tuple(canonical))


def _central_mu(num_users: int, mu: Fraction) -> Fraction:
    """mu as a Fraction, checked as every central-placement constructor does."""
    if num_users < 1:
        raise EmptySubset("need at least one user")
    return cache_size(mu)


def _masks(num_users: int) -> range:
    """Bitmask of every nonempty subset of users 1..K (K capped at MAX_USERS)."""
    if num_users > MAX_USERS:
        raise TooManyUsers(f"caching tuples support at most {MAX_USERS} users")
    return range(1, 1 << num_users)


def central_strategy(num_users: int, mu: Fraction) -> CachingStrategy:
    """Rank-partition placement for K users at exact cache size mu."""
    mu = _central_mu(num_users, mu)
    t = int(mu * num_users)  # floor: mu*K is a nonnegative Fraction
    lam = mu * num_users - t
    per_user: list[list[Interval]] = [[] for _ in range(num_users)]
    # Size-t subsets share (0, 1-lam], size-(t+1) subsets (1-lam, 1].  At
    # t = 0 the one empty subset owns (0, 1-lam], which no user caches.
    for size, base, width in ((t, Fraction(0), 1 - lam), (t + 1, 1 - lam, lam)):
        if not width:
            continue
        total = math.comb(num_users, size)
        for rank, subset in enumerate(combinations(range(1, num_users + 1), size), start=1):
            lo = base + width * Fraction(rank - 1, total)
            hi = base + width * Fraction(rank, total)
            for k in subset:
                per_user[k - 1].append((lo, hi))

    return CachingStrategy(
        num_users=num_users,
        mu=mu,
        intervals=tuple(_merge(iv) for iv in per_user),
    )


def coverage_measure(strategy: CachingStrategy, users: Iterable[int]) -> Fraction:
    """Exact measure of the union of the chosen users' caches."""
    chosen = _check_users(strategy.num_users, users)
    pooled: list[Interval] = []
    for k in chosen:
        pooled.extend(strategy.user(k))
    return _measure(_merge(pooled))


def caching_tuple(strategy: CachingStrategy) -> CachingTuple:
    """Coverage of every subset of users, by exact interval sweeps."""
    users, masks = range(1, strategy.num_users + 1), _masks(strategy.num_users)
    cover = (coverage_measure(strategy, [k for k in users if m >> (k - 1) & 1]) for m in masks)
    return CachingTuple(strategy.num_users, strategy.mu, (Fraction(0), *cover))


def central_tuple(num_users: int, mu: Fraction) -> CachingTuple:
    """caching_tuple(central_strategy(num_users, mu)), by the closed form per subset size."""
    mu = _central_mu(num_users, mu)
    masks = _masks(num_users)
    by_size = _central_coverages(num_users, mu, range(num_users + 1))
    return CachingTuple(num_users, mu, (by_size[0], *(by_size[m.bit_count()] for m in masks)))


def central_coverage(num_users: int, mu: Fraction, subset_size: int) -> Fraction:
    """Closed-form union measure for the central placement.

    (1-lam)*(1 - C(K-q,t)/C(K,t)) + lam*(1 - C(K-q,t+1)/C(K,t+1)) for a
    subset of q users; only the subset size enters by symmetry.
    """
    mu = cache_size(mu)
    if subset_size < 1 or subset_size > num_users:
        raise OutOfRange("subset size must lie in 1..K")
    return _central_coverages(num_users, mu, (subset_size,))[0]


def _central_coverages(num_users: int, mu: Fraction, sizes: Iterable[int]) -> list[Fraction]:
    """central_coverage of a checked mu at each subset size q in sizes (0..K; 0 at q = 0).

    With mu = n/d, t = floor(n K / d) and lam = a/d, a = n K - t d, the
    measure is one fraction of integers over d C(K,t) C(K,t+1), reduced once
    by Fraction; the second term, and its binomial, drop out where a = 0.
    """
    K = num_users
    t, a = divmod(mu.numerator * K, mu.denominator)
    d = mu.denominator
    whole, part = math.comb(K, t), math.comb(K, t + 1) if a else 1
    return [
        Fraction((d - a) * (whole - math.comb(K - q, t)) * part + a * (part - math.comb(K - q, t + 1)) * whole, d * whole * part)
        for q in sizes
    ]
