"""Shared reference data, generators, and invariant checkers for the tests.

Frozen constants were derived by hand (the short derivations sit next to
them) so the suite never trusts the code under test for its own oracle.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np

from cachecast import lp, upper_bound
from cachecast.caching import central_coverage, central_tuple
from cachecast.channel import ChannelStats, check_weights, is_stochastically_dominant, scale_exponent
from cachecast.errors import ValidationError
from cachecast.lp import FEAS_TOL, OPTIMAL, LpSolution, require_optimal, solve_lp
from cachecast.lp_scheme import DeliveryAllocation, check_allocation, message_subsets, t_from_mu
from cachecast.simulator import apportion
from cachecast.two_user import achievable_allocation_two_user, optimal_rate_two_user

# --- three-user reference scenarios -------------------------------------

# A dominance chain: every row is levelwise below the next.
CHAIN3_ROWS = [
    [0.5, 0.4, 0.3],
    [0.7, 0.5, 0.4],
    [0.9, 0.6, 0.5],
]

# No chain: user 1 is stronger on level 1 but weaker on levels 2-3.
MIXED3_ROWS = [
    [0.9, 0.3, 0.3],
    [0.7, 0.4, 0.4],
    [0.5, 0.5, 0.5],
]

THIRD = Fraction(1, 3)

# K = 6, B = 4 at mu = 1/6: the bound's ordering (6, 1, 2, 3, 4, 5) LP failed
# its feasibility recheck while the ratio test broke ties by the smallest
# basic index alone (it pivoted on an entry of 1.83e-11).  The bound HiGHS
# (scipy.optimize.linprog) finds on the same 720 ordering LPs:
ROADMAP_ITEM1_BOUND = 0.8099322006503284
ROADMAP_ITEM1_ROWS = [
    [0.93, 0.89, 0.49, 0.36],
    [0.59, 0.57, 0.34, 0.32],
    [0.89, 0.62, 0.39, 0.23],
    [0.83, 0.79, 0.24, 0.08],
    [0.88, 0.34, 0.15, 0.06],
    [0.80, 0.45, 0.23, 0.05],
]

# Optimal chain shares for CHAIN3 at mu = 1/3, derived by hand: levels 2-3
# go wholly to user 1, level 1 splits a : 1-a between users 1 and 2, and
# equalizing the two binding constraints
#     (2/3) f = 0.5 a + 0.4 + 0.3      (user 1, gap 2/3)
#     (1/3) f = 0.7 (1 - a)            (user 2, gap 1/3)
# gives 1.4 (1 - a) = 0.5 a + 0.7, so a = 7/19 and f = 2.1 * 12/19 = 126/95.
CHAIN3_RATE = 126.0 / 95.0
CHAIN3_Z = [
    [7.0 / 19.0, 12.0 / 19.0, 0.0],
    [1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
]

# A delivery allocation for MIXED3 at mu = 1/3 (subsets {1,2},{1,3},{2,3}),
# hand-checked at rate 3/2 (per-message size 1/2):
#   user 1 on {1,2}: 0.9*2/3 + 0.3*1/12          = 5/8  -> margin 1/8
#   user 2 on {1,2}: 0.7*2/3 + 0.4*1/12          = 1/2  -> margin 0
#   user 1 on {1,3}: 0.9*1/3 + 0.3*2/3           = 1/2
#   user 3 on {1,3}: 0.5*(1/3 + 2/3)             = 1/2
#   user 2 on {2,3}: 0.4*11/12 + 0.4*1/3         = 1/2
#   user 3 on {2,3}: 0.5*(11/12 + 1/3)           = 5/8
# and level sums 1, 1, 1.
MIXED3_RATE = 1.5
MIXED3_SHARES = [
    [2.0 / 3.0, 1.0 / 3.0, 0.0],
    [1.0 / 12.0, 0.0, 11.0 / 12.0],
    [0.0, 2.0 / 3.0, 1.0 / 3.0],
]

# Weighted-maximum ceiling for MIXED3 at mu = 1/3, per ordering.  Derived by
# hand for weights recovered from each ordering's program; rounded to 1e-2.
MIXED3_TABLE = {
    (1, 2, 3): 1.64,
    (1, 3, 2): 1.73,
    (2, 1, 3): 1.62,
    (2, 3, 1): 1.61,
    (3, 1, 2): 1.76,
    (3, 2, 1): 1.66,
}
MIXED3_BEST_PI = (2, 3, 1)
MIXED3_OMEGA = (0.0, 1.25, 1.0)
# Value at those weights: numerator max(0, 1.25*F2, F3) summed = 1.875 and
# denominator 1.25*(2/3) + 1*(1/3) = 7/6, so 1.875 * 6/7 = 45/28.
MIXED3_BOUND = 45.0 / 28.0


def delivery_allocation(shares, rate: float, num_users: int, t: int) -> DeliveryAllocation:
    """Wrap a raw share grid in a DeliveryAllocation."""
    shares = np.asarray(shares, dtype=float)
    return DeliveryAllocation(
        num_users=num_users,
        num_levels=shares.shape[0],
        t=t,
        subsets=message_subsets(num_users, t),
        shares=shares,
        rate=rate,
    )


def achievable_payload(mu: Fraction, alloc) -> dict:
    """`rates achievable --json`'s payload for an allocation of
    achievable_rate_lp, every key in order, with its margins built pair by
    pair: one dict per (user, subset) pair, subsets in order and members
    ascending, with the margin of alloc.report."""
    report = alloc.report
    margins = report.margins.tolist()
    return {
        "command": "rates.achievable",
        "mu": str(mu),
        "value": alloc.rate,
        "t": alloc.t,
        "subsets": alloc.subsets.tolist(),
        "shares": alloc.shares.tolist(),
        "required": report.required,
        "margins": [
            {"user": k, "subset": s, "margin": margins[j][i]}
            for j, s in enumerate(alloc.subsets.tolist())
            for i, k in enumerate(s)
        ],
        "level_slacks": report.level_slacks.tolist(),
        "feasible": report.feasible,
        "iterations": alloc.iterations,
        "gap": alloc.gap,
    }


def simulate_payload(stats, alloc, report) -> dict:
    """`simulate --json`'s payload for a simulation report, every key in
    order, with its messages built pair by pair as one dict per (user,
    subset) pair, in achievable_payload's order: the count and std_error
    read from the report's arrays, and the rest computed per pair from the
    count and check_allocation."""
    checked = check_allocation(stats, alloc)
    required = math.ceil(report.num_uses * checked.required - 1e-9)
    messages = []
    for j, s in enumerate(alloc.subsets.tolist()):
        for i, k in enumerate(s):
            delivered = int(report.delivered[j, i])
            messages.append({
                "user": k,
                "subset": s,
                "delivered": delivered,
                "required": required,
                "empirical_margin": delivered / report.num_uses - checked.required,
                "analytic_margin": float(checked.margins[j, i]),
                "std_error": float(report.std_error[j, i]),
                "decodable": delivered >= required,
            })
    return {
        "command": "simulate",
        "n": report.num_uses,
        "seed": report.seed,
        "rate": alloc.rate,
        "t": alloc.t,
        "messages": messages,
        "user_decodable": report.user_decodable.tolist(),
        "empirical_ccdf": report.empirical_ccdf.tolist(),
        "ccdf_std_error": report.ccdf_std_error.tolist(),
    }


def span_starts(alloc, num_uses):
    """Per level, the uses at which its spans start, then num_uses."""
    starts = []
    for shares in alloc.shares:
        quotas = [num_uses * float(x) for x in shares] + [max(0.0, num_uses * (1.0 - shares.sum()))]
        starts.append(np.cumsum([0] + apportion(quotas, num_uses)).tolist())
    return starts


# --- random-instance generators ------------------------------------------


def random_stats(rng: np.random.Generator, num_users: int, num_levels: int) -> ChannelStats:
    """Random valid CCDF grid: per-user sorted uniforms."""
    grid = sorted_uniform_ccdf(rng, num_users, num_levels).copy()
    return ChannelStats(num_users=num_users, num_levels=num_levels, ccdf=grid)


def random_two_user(rng: np.random.Generator, max_levels: int = 6) -> ChannelStats:
    """Random 2-user stats with occasional exact zeros, ones, and equal rows."""
    num_levels = int(rng.integers(1, max_levels + 1))
    grid = np.sort(rng.random((2, num_levels)), axis=1)[:, ::-1].copy()
    if rng.random() < 0.15:
        grid[int(rng.integers(0, 2)), num_levels - 1] = 0.0
    if rng.random() < 0.1:
        grid[int(rng.integers(0, 2)), 0] = 1.0
    if rng.random() < 0.08 and num_levels >= 2:
        grid[1, :] = grid[0, :]
    return ChannelStats(num_users=2, num_levels=num_levels, ccdf=grid)


def random_chain_stats(rng: np.random.Generator, num_users: int, num_levels: int) -> ChannelStats:
    """Random stats forming a dominance chain (row k+1 dominates row k)."""
    rows = [np.sort(rng.random(num_levels))[::-1]]
    for _ in range(num_users - 1):
        fresh = np.sort(rng.random(num_levels))[::-1]
        rows.append(np.maximum(rows[-1], fresh))
    grid = np.vstack(rows)
    return ChannelStats(num_users=num_users, num_levels=num_levels, ccdf=grid)


def random_sorted_weights(rng: np.random.Generator, num_users: int) -> np.ndarray:
    """Nonincreasing positive weights with occasional ties and zero tails."""
    w = np.sort(rng.uniform(0.1, 3.0, num_users))[::-1].copy()
    if rng.random() < 0.2 and num_users >= 2:
        w[1] = w[0]
    if rng.random() < 0.15:
        w[int(rng.integers(1, num_users + 1)):] = 0.0
    return w


def random_bounded_lp(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random feasible bounded LP as (c, a_ub, b_ub): <= 4 variables, <= 6 rows.

    b_ub >= 0, so x = 0 is feasible; about a third of the random rows have
    b = 0 and pass through it (degenerate vertices).  An all-ones cap row
    bounds the region.
    """
    n = int(rng.integers(1, 5))
    m_ub = int(rng.integers(0, 6))
    a_ub = rng.normal(size=(m_ub, n))
    b_ub = rng.uniform(0.1, 2.0, m_ub) * (rng.random(m_ub) >= 1 / 3)
    a_ub = np.vstack([a_ub, np.ones((1, n))])
    b_ub = np.concatenate([b_ub, [rng.uniform(0.5, 4.0)]])
    c = rng.normal(size=n)
    return c, a_ub, b_ub


def chain_ccdf(rng: np.random.Generator, users: int, levels: int) -> np.ndarray:
    """Rows that form a dominance chain, in a seeded user order.

    Sorting a column-sorted matrix along its rows keeps the columns sorted,
    so row k+1 dominates row k levelwise before the users are shuffled.
    """
    grid = np.sort(np.sort(rng.random((users, levels)), axis=0), axis=1)[:, ::-1]
    return grid[rng.permutation(users)]


def sorted_uniform_ccdf(rng: np.random.Generator, users: int, levels: int) -> np.ndarray:
    """Each user's row: `levels` uniform draws sorted nonincreasing."""
    return np.sort(rng.random((users, levels)), axis=1)[:, ::-1]


def tiny_gap_placement(users: int) -> list[list[tuple[Fraction, Fraction]]]:
    """One interval per user at mu = 1/2: user 1 caches (0, 1/2], user 2
    (1/2 - 1e-16, 1 - 1e-16] and every other user (1/4, 3/4], so any
    prefix holding users 1 and 2 leaves a gap of exactly 1e-16."""
    half, quarter, tiny = Fraction(1, 2), Fraction(1, 4), Fraction(1, 10**16)
    return [[(Fraction(0), half)], [(half - tiny, 1 - tiny)]] + [[(quarter, 3 * quarter)]] * (users - 2)


# The delivery-ladder benchmark's rate LPs, (K, t) at B = 4, drawn in this
# order from one stream (perfbench/scenarios.py; copied, not imported).
LADDER = ((7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (9, 3), (9, 4))


def ladder_grids() -> list[tuple[str, np.ndarray, int]]:
    """(name, ccdf, t) of the seven delivery-ladder LPs."""
    rng = np.random.default_rng([1, 1])
    return [(f"K{users}-t{t}", sorted_uniform_ccdf(rng, users, 4), t) for users, t in LADDER]


def degenerate_delivery_grids() -> list[tuple[str, np.ndarray, int]]:
    """(name, ccdf, t) of delivery LPs that a tie-blind ratio test got wrong.

    With ties broken by the smallest basic index alone, seed 27 failed its
    feasibility recheck, seed 208 reported `unbounded` (the LP is bounded),
    and the two K = 8 grids stalled past 100,000 iterations.
    """
    grids = [
        (f"K6-t2-B5-seed{s}", sorted_uniform_ccdf(np.random.default_rng([s, 777]), 6, 5), 2)
        for s in (27, 208)
    ]
    rng = np.random.default_rng(5)
    ladder = [sorted_uniform_ccdf(rng, users, 4) for users in (7, 7, 8, 8)]
    grids.append(("K8-t3-B4-stall", ladder[3], 3))
    grids.append(("K8-t3-B4-chain", chain_ccdf(np.random.default_rng([47, 777]), 8, 4), 3))
    return grids


# --- reference implementations ---------------------------------------------


_NON_FINITE_TEXT = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


def strict_json(obj) -> str:
    """json.dumps, with a non-finite float written as the string "inf",
    "-inf" or "nan" (the CLI's rule)."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:
        return json.dumps(json.loads(json.dumps(obj), parse_constant=_NON_FINITE_TEXT.__getitem__))


def assert_same_text(got: str, want: str) -> None:
    """got == want, else an AssertionError naming the first offset where
    they differ, with the text around it (pytest's own diff of two long
    one-line strings takes minutes)."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        around = slice(max(0, at - 60), at + 60)
        raise AssertionError(
            f"texts differ at offset {at} (lengths {len(got)} and {len(want)}): {got[around]!r} against {want[around]!r}"
        )


def upper_table_json(rows) -> str:
    """The JSON `table` of `rates upper`, written as a list of
    {"pi": pi, "value": value} dicts, one per (pi, value) row (pi a tuple
    or list of ints, value a float)."""
    return strict_json([{"pi": pi, "value": value} for pi, value in rows])


def table_rows(report) -> tuple[tuple[tuple[int, ...], float], ...]:
    """An UpperBoundReport's table as ((pi, value), ...): each ordering as a
    tuple of ints with its value as a float, in the report's order."""
    return tuple(zip(map(tuple, report.orderings.tolist()), report.values.tolist()))


def upper_json(mu: Fraction, report) -> str:
    """`rates upper --json` stdout, less its newline, for one report: every
    key, the table last, written as one dict by json.dumps."""
    payload = {
        "command": "rates.upper",
        "mu": str(mu),
        "value": report.value,
        "argmin_pi": report.argmin_pi,
        "omega_star": report.omega_star,
        "omega_star_unique": report.omega_star_unique,
        "table": [{"pi": pi, "value": value} for pi, value in table_rows(report)],
    }
    return strict_json(payload)


def pivot_reference(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step one row at a time, skipping rows already zero in col.

    The plain loop that lp._pivot must reproduce bit for bit.
    """
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


MAX_ORACLE_VARS = 6


def enumerate_vertices(c, a_ub, b_ub) -> LpSolution:
    """Brute-force oracle: minimize c.x over the feasible basic points of a_ub.x <= b_ub, x >= 0.

    It shares none of the simplex machinery, so the two routes can disagree
    only if one is wrong.  Only for LPs with at most MAX_ORACLE_VARS
    variables and a bounded feasible region (add box rows if needed), and,
    as for the simplex, b_ub >= 0.  Every size-n active set drawn from
    {inequality rows, nonnegativity bounds} is solved and checked against
    the full constraint list; x = 0 is one of them, and feasible.
    """
    c, a_ub, b_ub = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub))
    n = c.size
    assert n <= MAX_ORACLE_VARS, f"vertex oracle limited to {MAX_ORACLE_VARS} variables"
    lp._check_rhs(b_ub[None])

    rows = np.vstack([a_ub, -np.eye(n)])
    offsets = np.concatenate([b_ub, np.zeros(n)])
    best_x, best_value = np.zeros(n), 0.0
    for active in combinations(range(rows.shape[0]), n):
        active = list(active)
        try:
            x = np.linalg.solve(rows[active], offsets[active])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.any(x < -FEAS_TOL):
            continue
        if np.any(a_ub @ x - b_ub > FEAS_TOL):
            continue
        value = float(c @ x)
        if value < best_value:
            best_value, best_x = value, x
    return LpSolution(OPTIMAL, best_x, best_value, None)


def chain_lp(stats: ChannelStats, mu: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense chain LP as (c, a_ub, b_ub), rows already in chain order
    (weakest first), over x = [f, z(l=1, k=1..K), z(l=2, ...), ...]:

        maximize f  s.t.  gap_k f <= sum_l z[l][k] ccdf[k][l]  for every user k,
                          sum_k z[l][k] <= 1                   for every level l,

    with gap_k = 1 - central_coverage(K, mu, k).  Its dual is the bound's
    LP at the identity ordering with the chain rows left out (Charnes and
    Cooper), which upper_bound.chain_optimum solves instead.
    """
    K, B = stats.num_users, stats.num_levels
    a_ub = np.zeros((K + B, 1 + B * K))
    for k in range(K):
        a_ub[k, 0] = float(1 - central_coverage(K, mu, k + 1))
        for l in range(B):
            a_ub[k, 1 + l * K + k] = -stats.ccdf[k, l]
    for l in range(B):
        a_ub[K + l, 1 + l * K : 1 + (l + 1) * K] = 1.0
    c = np.zeros(1 + B * K)
    c[0] = -1.0
    return c, a_ub, np.concatenate([np.zeros(K), np.ones(B)])


def dense_chain_optimum(stats: ChannelStats, mu: Fraction) -> tuple[float, np.ndarray]:
    """The oracle for upper_bound.chain_optimum: chain_lp solved from x = 0,
    its rate and its shares z (B, K), with no air time for a fully covered
    user."""
    K, B = stats.num_users, stats.num_levels
    t = t_from_mu(K, mu)
    solution = require_optimal(solve_lp(*chain_lp(stats, mu)), f"chain LP (K={K}, t={t}, B={B})")
    z = solution.x[1:].reshape(B, K).copy()
    z[:, K - t :] = 0.0
    return float(solution.x[0]), z


def permutation_lp_reference(stats, tup, pi, every_decode_row=False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-ordering LP as (c, a_ub, b_ub), built one entry at a time, in its full K*B+K by K+B shape.

    x = [w_1..K, theta_1..B]: decode row (k, l) is c_kl w_k - theta_l <= 0,
    with c_kl the grid's entry times 2^-s, s = channel.scale_exponent
    (the grid upper_bound_rate solves on), chain row k is
    w_{k+1} - w_k <= 0, and the cost of w_k is -gap_k 2^-e, with
    e = math.frexp(gap_1)[1] (ordering_value reads the bound off the
    optimum).
    Decode row (k, l) is left zero unless it is a record: k = 0, or user
    pi[k]'s level-l CCDF entry exceeds that of every user before it in the
    ordering (the chain rows imply every other decode row).  With
    every_decode_row, every decode row is written.  A w_k whose prefix is
    fully covered is fixed at 0: its column, cost, decode rows and the
    chain row into it are zeroed.  Without the zero rows and columns
    (drop_zero_lines) it is the live-prefix LP that
    upper_bound.build_permutation_lp must reproduce byte for byte (signed
    zeros included).
    """
    K, B = stats.num_users, stats.num_levels
    grid = np.ldexp(stats.ccdf, -scale_exponent(stats.ccdf))
    gaps = [float(1 - tup.of(pi[: k + 1])) for k in range(K)]
    a_ub = np.zeros((K * B + K, K + B))
    for k in range(K):
        for l in range(B):
            entry = grid[pi[k] - 1][l]
            if every_decode_row or all(entry > grid[pi[j] - 1][l] for j in range(k)):
                a_ub[k * B + l, k] = entry
                a_ub[k * B + l, K + l] = -1.0
    for k in range(1, K):
        a_ub[K * B + k - 1, k - 1] = -1.0
        a_ub[K * B + k - 1, k] = 1.0
    for l in range(B):
        a_ub[K * B + K - 1, K + l] = 1.0  # the budget row: sum theta <= 1
    b_ub = np.zeros(K * B + K)
    b_ub[-1] = 1.0
    c = np.concatenate([np.ldexp(-np.array(gaps), -math.frexp(gaps[0])[1]), np.zeros(B)])  # maximize sum gap_k w_k
    for k in range(K):
        if tup.of(pi[: k + 1]) == 1:  # fixed at 0: column, cost and rows zeroed
            a_ub[:, k] = 0.0
            a_ub[k * B : (k + 1) * B] = 0.0
            if k:
                a_ub[K * B + k - 1] = 0.0
            c[k] = 0.0
    return c, a_ub, b_ub


def pivoted_stack(a_ub, b_ub, steps, rhs=None):
    """The stack a_ub, b_ub with every crash step (rows, slots, skip) pivoted
    from the slack basis, one lp._pivot each, and, if rhs is given, the rhs
    written and the first solve set to price a crash basis: the stack a
    crash of those steps must give, the oracle of LpStack.crashed."""
    stack = lp.LpStack(a_ub, b_ub)
    lps = np.arange(stack._a.shape[0])
    for rows, slots, skip in steps:
        skip = None if skip is None or not skip.any() else skip
        lp._pivot(stack._tableau, stack._basis, stack._nonbasic, rows, slots, lps, skip)
    if rhs is not None:
        np.add(rhs, 0.0, out=stack._tableau[:, : rhs.shape[1], -1])
        stack._crashed = True
    return stack


def pivoted_vertex(ccdf: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, layout) -> lp.LpStack:
    """The equal-weight vertex of a stack of live-prefix LPs reached by B + p
    crash pivots from the slack basis: the oracle of
    upper_bound._equal_weight_vertex's closed form, which must give the
    same tableau, rhs and labels byte for byte.

    ccdf (L, p, B) are the prefixes' CCDF rows, a_ub and b_ub their stack
    and layout its row layout, as upper_bound._permutation_lps builds them.
    With max_l each level's largest entry on the prefix and
    w = 1 / sum_l max_l, the vertex is w_k = w, theta_l = w max_l.  theta_l
    enters at its level's last record row, which holds max_l (a level whose
    max_l is 0 keeps theta_l nonbasic at 0); w_j enters at chain row j for
    j < p, and w_p at the budget row, each step one lp._pivot on the whole
    stack.  An LP whose maxima sum to 0 or to a subnormal, where w is
    infinite, skips every step and keeps x = 0.  The rhs the pivots compute
    must lie within 1e-12 of the vertex's value at each row's basic label,
    and the vertex must be 0 at every nonbasic label (AssertionError
    otherwise); the rhs is then written as those values: w and theta as
    above, each other record row's slack w (max_l - c_kl), the padding
    rows' 0.  Returns the stack in the state LpStack.crashed leaves, its first solve
    to come.
    """
    record, chain, budget = layout
    size, p, B = ccdf.shape
    m, n = a_ub.shape[1], p + B
    top = ccdf.max(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / top.sum(axis=1)
    far = np.isinf(w)  # no such vertex in floats
    w[far] = 0.0
    last = record.max(axis=1)
    steps = [(last[:, l], np.full(size, p + l), (top[:, l] == 0.0) | far) for l in range(B)]
    steps += [(np.full(size, row), np.full(size, j), far) for j, row in enumerate(chain.tolist())]
    steps.append((np.full(size, budget), np.full(size, p - 1), far))
    point = np.zeros((size, n + m))  # every label's value at the vertex
    point[:, :p] = w[:, None]
    point[:, p:n] = w[:, None] * top
    lps, k, l = np.nonzero(record >= 0)
    point[lps, n + record[lps, k, l]] = w[lps] * (top[lps, l] - ccdf[lps, k, l])
    point[far, n + budget] = 1.0  # x = 0: the budget row's slack holds its rhs
    stack = pivoted_stack(a_ub, b_ub, steps)
    # The pivots reach the point's basis: their own rhs is the closed
    # form's to 1e-12, and every nonbasic label is 0 at the point.
    closed = np.take_along_axis(point, stack._basis, axis=1)
    np.testing.assert_allclose(stack._tableau[:, :m, n], closed, rtol=0.0, atol=1e-12)
    assert not np.take_along_axis(point, stack._nonbasic, axis=1).any()
    np.add(closed, 0.0, out=stack._tableau[:, :m, n])
    stack._crashed = True
    return stack


def solve_from_pivoted_vertex(ccdf: np.ndarray, kept: np.ndarray, gaps: np.ndarray) -> lp.StackSolution:
    """upper_bound._solve_from_vertex with the stack started by pivoted_vertex, the B + p pivot-step oracle."""
    c, a_ub, b_ub, layout = upper_bound._permutation_lps(ccdf, kept, gaps)
    return pivoted_vertex(ccdf, a_ub, b_ub, layout).solve(c)


def ordering_value(stats, tup, pi, optimum: float) -> float:
    """An ordering's bound value from the optimum of its LP (build_permutation_lp):
    2^(s-e) (-1/optimum), s = channel.scale_exponent(stats.ccdf), e = frexp(gap_1)[1]."""
    return math.ldexp(-1.0 / optimum, scale_exponent(stats.ccdf) - math.frexp(float(1 - tup.of(pi[:1])))[1])


def drop_zero_lines(problem) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The LP (c, a_ub, b_ub) without the all-zero rows and columns of a_ub, and the mask of kept columns.

    A dropped row must have rhs 0 and a dropped column cost 0: such a row or
    column is inert, so the LP left has the same optimum.
    """
    c, a_ub, b_ub = problem
    rows, columns = a_ub.any(axis=1), a_ub.any(axis=0)
    assert not b_ub[~rows].any() and not c[~columns].any()
    return (c[columns], a_ub[np.ix_(rows, columns)], b_ub[rows]), columns


def stack_hits(c, a_ub, problem) -> np.ndarray:
    """Which LPs of a stack, c (L, n) or (n,) and a_ub (L, m, n), have the costs and rows of problem (c, a_ub, b_ub).

    An LP's all-zero rows are left out before its rows are compared, so an
    LP that upper_bound padded with zero rows matches the LP alone; the
    rows of problem must have no zero row.
    """
    costs, rows, _ = problem
    if a_ub.shape[2] != rows.shape[1]:
        return np.zeros(len(a_ub), dtype=bool)
    same = np.array([np.array_equal(a[a.any(axis=1)], rows) for a in a_ub], dtype=bool)
    return same & np.all(c == costs, axis=-1)


def fail_certificate(monkeypatch, problem, violation: float = 0.00294) -> None:
    """Make every LP with the costs and rows of problem (c, a_ub, b_ub) fail its feasibility recheck.

    Wraps lp._certificate so that the primal residual of each such LP in a
    stack (stack_hits) reads `violation`; the other LPs of the stack are
    untouched.
    """
    certificate = lp._certificate

    def failing(a, b, c, x, y):
        value, primal, dual, gap = certificate(a, b, c, x, y)
        primal = np.where(stack_hits(c, a, problem), violation, primal)
        return value, primal, dual, gap

    monkeypatch.setattr(lp, "_certificate", failing)


# --- invariant checkers ----------------------------------------------------


def assert_matches_oracle(problem, tol: float = 1e-9) -> None:
    """Simplex and vertex enumeration agree on the value of problem (c, a_ub, b_ub), both optimal."""
    fast = solve_lp(*problem)
    slow = enumerate_vertices(*problem)
    assert fast.status == OPTIMAL, f"simplex status {fast.status}"
    assert slow.status == OPTIMAL, f"oracle status {slow.status}"
    assert abs(fast.value - slow.value) <= tol, (
        f"simplex {fast.value} vs oracle {slow.value}"
    )


def check_two_user_instance(stats: ChannelStats, mu: float, tol: float = 1e-9) -> None:
    """The band split meets the converse at K = 2 and satisfies the split rules.

    The paper's sandwich: min(f1, f2), the split's achievable rate, equals
    the package's one converse, upper_bound_rate at the central placement,
    within tol, and optimal_rate_two_user returns it.  Split rules checked:
    u <= v; alpha, beta in [0, 1]; all four decodability margins
    nonnegative, to tol absolutely and to 1e-12 relative to the rate; and
    the ratio-threshold conditions, read disjunctively at ties (with
    f1 = f2 only one side is guaranteed).
    """
    alloc = achievable_allocation_two_user(stats, mu)
    bound = upper_bound.upper_bound_rate(stats, central_tuple(2, mu)).value
    scale = max(1.0, abs(alloc.f1), abs(alloc.f2))

    assert abs(min(alloc.f1, alloc.f2) - bound) <= tol * max(1.0, abs(bound))
    assert optimal_rate_two_user(stats, mu) == alloc.rate == min(alloc.f1, alloc.f2)
    assert 0.0 <= alloc.alpha <= 1.0 and 0.0 <= alloc.beta <= 1.0
    assert all(m >= -tol * scale for m in alloc.margins), alloc.margins
    assert all(m >= -1e-12 * alloc.rate for m in alloc.margins), (alloc.margins, alloc.rate)
    if not alloc.level_order:
        return
    assert alloc.u <= alloc.v

    ccdf = stats.ccdf
    g = [
        math.inf if ccdf[0, l - 1] == 0.0 else ccdf[1, l - 1] / ccdf[0, l - 1]
        for l in alloc.level_order
    ]
    g_u, g_v = g[alloc.u - 1], g[alloc.v - 1]
    if abs(alloc.f1 - alloc.f2) <= tol * scale:
        assert g_u <= 1.0 + tol or g_v >= 1.0 - tol, (g_u, g_v)
    elif alloc.f1 < alloc.f2:
        assert g_u <= 1.0 + tol, g_u
    else:
        assert g_v >= 1.0 - tol, g_v


class ZeroWeightWarning(UserWarning):
    """Raised by enhance() when zero-weight users are left unchanged."""


class WeightsUnsorted(ValidationError):
    """A weight vector that enhance() needs nonincreasing is not."""


def enhance(stats: ChannelStats, weights) -> ChannelStats:
    """Weight-driven enhancement producing a stochastically degraded chain:
    the channel of the paper's converse, and the oracle that the bound is
    the chain optimum of its channel enhanced at (argmin_pi, omega_star).

    `weights` must be nonincreasing, finite and nonnegative, one entry per user, with
    user 1 carrying the largest weight.  User 1 keeps its CCDF; for k >= 2,

        new[k](l) = min(1, max(ccdf[k](l), (w[k-1]/w[k]) * new[k-1](l))),

    so new[k] dominates new[k-1] and the weighted maxima
    max_k w[k]*new[k](l) equal max_k w[k]*ccdf[k](l) at every level.
    Zero-weight users sit at the tail, are skipped by the recursion, and are
    returned unchanged; a ZeroWeightWarning flags them.
    """
    w = check_weights(stats, weights)
    if np.any(np.diff(w) > 0.0):
        raise WeightsUnsorted("weights must be nonincreasing")

    out = np.array(stats.ccdf, dtype=float)
    positive = int(np.count_nonzero(w > 0.0))
    if positive < stats.num_users:
        skipped = list(range(positive + 1, stats.num_users + 1))
        warnings.warn(
            f"zero-weight users {skipped} excluded from enhancement",
            ZeroWeightWarning,
            stacklevel=2,
        )
    for k in range(1, positive):
        ratio = w[k - 1] / w[k]
        out[k] = np.minimum(1.0, np.maximum(out[k], ratio * out[k - 1]))
    out.setflags(write=False)
    return ChannelStats(num_users=stats.num_users, num_levels=stats.num_levels, ccdf=out)


def check_enhancement_invariants(stats: ChannelStats, weights: np.ndarray) -> None:
    """All published properties of the weighted enhancement, tolerance 1e-12.

    For the positive-weight prefix (zero-weight users are skipped and
    returned unchanged): the output forms a dominance chain; saturated
    entries propagate to stronger users; the weighted maxima per level are
    preserved; wherever the weighted sequence strictly rises the enhanced
    CCDF still equals the input; wherever it strictly drops it keeps
    dropping; and per level the sequence rises to a contiguous maximizing
    block, whose first element the *input* CCDF already attains, then falls.
    """
    tol = 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroWeightWarning)
        out = enhance(stats, weights)
    pos = int(np.count_nonzero(weights > 0.0))

    if pos < stats.num_users:
        assert np.array_equal(out.ccdf[pos:], stats.ccdf[pos:])
    for k in range(1, pos):
        assert is_stochastically_dominant(out.ccdf[k], out.ccdf[k - 1])

    w = np.asarray(weights, dtype=float)[:pos]
    before = w[:, None] * stats.ccdf[:pos]
    after = w[:, None] * out.ccdf[:pos]
    for l in range(stats.num_levels):
        m = after[:, l]
        # saturation propagates
        for k in range(pos):
            if out.ccdf[k, l] >= 1.0 - tol:
                assert np.all(out.ccdf[k:pos, l] >= 1.0 - tol)
                break
        # weighted maximum preserved
        assert abs(m.max() - before[:, l].max()) <= tol
        # strict rise pins the original value; strict drop never recovers
        for k in range(1, pos):
            if m[k] > m[k - 1] + tol:
                assert abs(after[k, l] - before[k, l]) <= tol
                assert np.all(np.diff(m[: k + 1]) >= -tol)
            if m[k] < m[k - 1] - tol:
                assert np.all(np.diff(m[k - 1:]) <= tol)
        # single contiguous maximizing block, reached monotonely
        top = m.max()
        block = np.flatnonzero(m >= top - tol)
        first, last = int(block[0]), int(block[-1])
        assert np.array_equal(block, np.arange(first, last + 1))
        assert abs(before[first, l] - top) <= tol
        assert np.all(np.diff(m[: first + 1]) >= -tol)
        assert np.all(np.diff(m[last:]) <= tol)
