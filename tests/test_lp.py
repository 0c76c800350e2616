"""Dense simplex, checked against the brute-force vertex oracle of the test helpers.

An LP is stated as its arrays (c, a_ub, b_ub); `problem` names that triple.
"""

from dataclasses import fields
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cachecast import lp
from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.errors import LengthMismatch, NumericalFailure, OutOfRange, UnexpectedLpStatus, ValidationError
from cachecast.lp import (
    FEAS_TOL,
    OPTIMAL,
    UNBOUNDED,
    LpSolution,
    _pivot,
    require_optimal,
    solve_lp,
    solve_lps,
)
from cachecast.lp_scheme import achievable_rate_lp, build_delivery_lp, message_subsets
from cachecast.upper_bound import build_permutation_lp, stack_size

from helpers import (
    ROADMAP_ITEM1_ROWS,
    assert_matches_oracle,
    chain_lp,
    degenerate_delivery_grids,
    enumerate_vertices,
    fail_certificate,
    ladder_grids,
    pivot_reference,
    pivoted_stack,
    random_bounded_lp,
    random_chain_stats,
    random_stats,
    sorted_uniform_ccdf,
)


def check_duality(problem, tol=1e-8):
    c, a_ub, b_ub = (np.asarray(v, dtype=float) for v in problem)
    sol = solve_lp(c, a_ub, b_ub)
    assert sol.status == OPTIMAL
    # primal feasibility of the reported point
    assert np.all(a_ub @ sol.x <= b_ub + 1e-9)
    assert np.all(sol.x >= -1e-9)
    assert abs(c @ sol.x - sol.value) <= tol
    # duals: sign, strong duality, complementary slackness
    assert np.all(sol.dual_ub <= 1e-12)
    dual_value = sol.dual_ub @ b_ub
    assert abs(sol.value - dual_value) <= tol
    slack = b_ub - a_ub @ sol.x
    assert np.all(np.abs(sol.dual_ub * slack) <= tol)
    # the certificate, recomputed from the problem
    reduced = c - a_ub.T @ sol.dual_ub
    primal = max(0.0, *-sol.x, *-slack)
    dual = max(0.0, *-reduced, *sol.dual_ub)
    assert abs(sol.primal_residual - primal) <= 1e-12
    assert abs(sol.dual_residual - dual) <= 1e-12
    assert abs(sol.duality_gap - abs(sol.value - dual_value)) <= 1e-12


# --- basics -----------------------------------------------------------------


def test_simple_cover():
    # max x1 + x2 subject to x1 + x2 <= 1, x >= 0: the cover LP's dual
    p = ([-1.0, -1.0], [[1.0, 1.0]], [1.0])
    sol = solve_lp(*p)
    assert sol.status == OPTIMAL
    assert abs(sol.value + 1.0) <= 1e-12
    check_duality(p)


def test_unbounded():
    sol = solve_lp([-1.0], np.zeros((0, 1)), np.zeros(0))
    assert sol.status == UNBOUNDED
    assert sol.x is None and sol.value is None


def test_two_constraints_known_optimum():
    # min -x1 - 2 x2 subject to x1 + x2 <= 4, x2 <= 2: optimum (2, 2), value -6
    p = ([-1.0, -2.0], [[1.0, 1.0], [0.0, 1.0]], [4.0, 2.0])
    sol = solve_lp(*p)
    assert abs(sol.value + 6.0) <= 1e-12
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-12)
    check_duality(p)
    assert_matches_oracle(p)


def test_degenerate_duplicated_rows():
    p = (
        [-1.0, -2.0],
        [[1.0, 1.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        [4.0, 4.0, 2.0, 2.0],
    )
    sol = solve_lp(*p)
    assert abs(sol.value + 6.0) <= 1e-12
    assert_matches_oracle(p)
    check_duality(p)


def test_ratio_ties_within_pivot_tol_go_to_the_larger_entry_then_the_smaller_basic_index():
    # Rows 0 and 1 start basic on slack columns 1 and 2, and their ratios
    # differ by 5e-12 < PIVOT_TOL.  With equal entries row 0 leaves,
    # whichever ratio is less; otherwise the row with the larger entry
    # leaves, even where its ratio is the larger one.
    cases = (
        ([[1.0], [1.0]], [1.0 + 5e-12, 1.0], 1.0 + 5e-12),
        ([[1.0], [1.0]], [1.0, 1.0 + 5e-12], 1.0),
        ([[1.0], [2.0]], [1.0 + 5e-12, 2.0], 1.0),
        ([[1.0], [2.0]], [1.0, 2.0 + 1e-11], 1.0 + 5e-12),
        ([[2.0], [1.0]], [2.0 + 1e-11, 1.0], 1.0 + 5e-12),
    )
    for a_ub, b_ub, x in cases:
        sol = solve_lp([-1.0], a_ub, b_ub)
        assert sol.x[0] == x
        assert sol.pivots == 1


def test_entering_column_of_roundoff_entries_is_unbounded():
    # x1 enters; its only positive entries are 1e-15 and 3e-16, below
    # PIVOT_TOL, so no row limits it: a ray, as HiGHS also reports.
    assert solve_lp([-1.0, 0.0], [[1e-15, -1.0], [3e-16, -1.0]], [1.0, 1.0]).status == UNBOUNDED


def test_zero_objective():
    sol = solve_lp([0.0, 0.0], [[1.0, 1.0]], [1.0])
    assert sol.status == OPTIMAL
    assert sol.value == 0.0


def test_certificate_of_given_pairs():
    # min x1 + x2 s.t. -x1 - x2 <= -1, x1 - x2 <= 0, at two primal-dual pairs:
    # x = (0.5, 0.4), y = (0.25, 0.2) violates everything; the optimum doesn't.
    a = np.array([[[-1.0, -1.0], [1.0, -1.0]]] * 2)
    b = np.array([[-1.0, 0.0]] * 2)
    c = np.ones((2, 2))
    x = np.array([[0.5, 0.4], [0.5, 0.5]])
    y = np.array([[0.25, 0.2], [-1.0, 0.0]])
    value, primal, dual, gap = lp._certificate(a, b, c, x, y)
    np.testing.assert_allclose(value, [0.9, 1.0], atol=1e-15)
    np.testing.assert_allclose(primal, [0.1, 0.0], atol=1e-15)
    np.testing.assert_allclose(dual, [0.25, 0.0], atol=1e-15)
    np.testing.assert_allclose(gap, [1.15, 0.0], atol=1e-15)


def test_master_ratio_test_picks_the_stack_rows():
    # GrowingLp runs the ratio test on its own 1-D arrays (_ratio_test_one).
    # It must give the bytes of the minimum ratio and the same tied and
    # picked rows as _ratio_test on the (1, m) views: ratios tied within
    # PIVOT_TOL, equal entries, and rows with no entry above PIVOT_TOL.
    cases = [
        ([1.0 + 5e-12, 1.0], [1.0, 1.0], [True, True]),  # tied ratios, equal entries: both picked
        ([1.0, 2.0 + 1e-11], [1.0, 2.0], [False, True]),  # tied ratios: the larger entry
        ([1.0, 1.0 + 2e-11], [1.0, 1.0], [True, False]),  # ratios apart by more than PIVOT_TOL
        ([0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [False, True, True]),  # degenerate, two equal largest
        ([0.0, 0.5, 3.0, 1.0], [-1.0, 1e-12, 0.5, 0.0], [False, False, True, False]),  # ineligible rows
    ]
    rng = np.random.default_rng(4201)
    for _ in range(300):
        m = int(rng.integers(1, 9))
        rhs = rng.choice([0.0, 0.5, 1.0, 1.0 + 5e-12, 2.0, 3.0], m)
        column = rng.choice([-1.0, 0.0, 1e-12, 0.5, 1.0, 1.0, 2.0, rng.uniform(0.1, 3.0)], m)
        cases.append((rhs, column, None))
    for rhs, column, expected in cases:
        rhs, column = np.array(rhs), np.array(column)
        eligible = column > lp.PIVOT_TOL
        if not eligible.any():  # the master finds the ray before its ratio test
            continue
        least, near, pick = lp._ratio_test(rhs[None], column[None], eligible[None], np.arange(1))
        one_least, one_near, one_pick = lp._ratio_test_one(rhs, column, eligible)
        assert np.float64(one_least).tobytes() == least[:1].tobytes()
        assert one_near.tolist() == near[0].tolist() and one_pick.tolist() == pick[0].tolist()
        if expected is not None:
            assert one_pick.tolist() == expected


def test_master_certificate_matches_the_stack_bytes():
    # GrowingLp certifies on its own arrays (_certificate_one), its columns
    # a (m, n) view of its (m, capacity) buffer.  For random primal-dual
    # pairs, a third of them certified (x = 0, y = 0, c >= 0), the value
    # and the three residuals must be the bytes _certificate gives on the
    # (1, ...) views, and the verdict _certified's.
    rng = np.random.default_rng(4202)
    for trial in range(300):
        m, n = int(rng.integers(1, 7)), int(rng.integers(0, 25))
        store = rng.normal(size=(m, n + int(rng.integers(0, 4)))) * (rng.random((m, 1)) < 0.8)
        a, b = store[:, :n], rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.7)
        c = rng.normal(size=n)
        x = np.maximum(rng.normal(size=n), 0.0) + 0.0
        y = np.minimum(rng.normal(size=m), 0.0) + 0.0
        if trial % 3 == 0:
            c, x, y = np.abs(c), np.zeros(n), np.zeros(m)
        stack = lp._certificate(a[None], b, c[None], x[None], y[None])
        one = lp._certificate_one(a, b, c, x, y)
        assert np.array(one).tobytes() == np.concatenate(stack).tobytes()
        assert lp._certified(*one) == lp._certified(*stack)[0]


@pytest.mark.parametrize("index, text", [
    (1, "optimal basis fails feasibility recheck (largest violation 0.5)"),
    (2, "optimal basis fails dual feasibility check (dual residual 0.5)"),
    (3, "optimal basis fails duality-gap check (gap 0.5)"),
])
def test_certificate_failures_name_the_residual(monkeypatch, index, text):
    certificate = lp._certificate

    def inflated(*args):
        parts = list(certificate(*args))
        parts[index] = np.full_like(parts[index], 0.5)
        return tuple(parts)

    monkeypatch.setattr(lp, "_certificate", inflated)
    with pytest.raises(NumericalFailure) as failure:
        solve_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0])
    assert str(failure.value) == text


def test_refinement_mends_one_lp_and_leaves_the_others(monkeypatch):
    # LP 1 of a kept stack resumes at its optimal basis from a tableau whose
    # rhs is 1e-6 off, as rounding leaves it on ill-scaled bases: x read
    # off the tableau fails its certificate.  It is refined once at that
    # basis (x_B = Binv.b and y = c_B.Binv from the original rows) and
    # passes, with the x, value and duals of the same stack left clean;
    # LPs 0 and 2 pass at once and keep their bytes.  A refinement that
    # certifies an LP writes its rows into the kept tableau.
    calls = []
    refine = lp._refined

    def counting(a, *rest):
        calls.append(len(a))
        return refine(a, *rest)

    monkeypatch.setattr(lp, "_refined", counting)
    rng = np.random.default_rng(97)
    a_ub = np.concatenate([rng.normal(size=(3, 4, 3)), np.ones((3, 1, 3))], axis=1)  # a cap row bounds x
    b_ub = np.concatenate([rng.uniform(0.1, 2.0, (3, 4)), np.full((3, 1), 2.0)], axis=1)
    c = rng.normal(size=(3, 3))
    clean, faulty = lp.LpStack(a_ub, b_ub), lp.LpStack(a_ub, b_ub)
    assert_same_stack(clean.solve(c), faulty.solve(c))
    assert calls == []
    faulty._tableau[1, :5, 3] += 1e-6
    mended, kept = faulty.solve(c), clean.solve(c)
    assert calls == [1]
    assert mended.status == kept.status == [OPTIMAL] * 3
    for f in fields(lp.StackSolution)[1:]:
        x, y = getattr(mended, f.name), getattr(kept, f.name)
        assert x[[0, 2]].tobytes() == y[[0, 2]].tobytes(), f.name
    np.testing.assert_allclose(mended.x[1], kept.x[1], rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(mended.dual_ub[1], kept.dual_ub[1], rtol=0.0, atol=1e-14)
    assert abs(mended.value[1] - kept.value[1]) <= 1e-14
    assert max(mended.primal_residual[1], mended.dual_residual[1], mended.duality_gap[1]) <= FEAS_TOL
    # The refined rows replace LP 1's tableau rows, so the next solve
    # resumes from them and needs no refinement.
    np.testing.assert_allclose(faulty._tableau[1, :5, 3], clean._tableau[1, :5, 3], rtol=0.0, atol=1e-14)
    again = faulty.solve(c)
    assert calls == [1] and again.status == [OPTIMAL] * 3
    np.testing.assert_allclose(again.x, kept.x, rtol=0.0, atol=1e-14)

    # A basis singular in floats, where np.linalg.solve raises, leaves the
    # failure standing.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(lp, "_refined", singular)
    faulty._tableau[1, :5, 3] += 1e-6
    failed = faulty.solve(c)
    assert str(failed.status[1]).startswith("optimal basis fails ")
    assert failed.status[0] == failed.status[2] == OPTIMAL


# --- construction and guards ---------------------------------------------------


def test_solve_lp_shape_checks():
    # A cost row longer than a_ub is wide, a_ub and b_ub with different
    # row counts, a_ub that is not a matrix and b_ub that is not a row are
    # refused, naming the shapes of one LP and the ones passed.
    with pytest.raises(LengthMismatch):
        solve_lp([1.0, 1.0], [[1.0]], [1.0])
    with pytest.raises(LengthMismatch):
        solve_lp([1.0], [[1.0]], [1.0, 2.0])
    with pytest.raises(LengthMismatch) as failure:
        solve_lp([1.0], [1.0], [1.0])
    assert str(failure.value) == "need c (n,), a_ub (m, n), b_ub (m,); got (1,), (1,), (1,)"
    with pytest.raises(LengthMismatch) as failure:
        solve_lp([1.0], [[1.0]], [[1.0]])
    assert str(failure.value) == "need c (n,), a_ub (m, n), b_ub (m,); got (1,), (1, 1), (1, 1)"


def test_solve_lp_without_rows():
    # No constraint rows: x = 0 is optimal for c >= 0.
    sol = solve_lp([1.0, 2.0], np.zeros((0, 2)), np.zeros(0))
    assert sol.status == OPTIMAL
    assert sol.x.tolist() == [0.0, 0.0] and sol.value == 0.0
    assert sol.dual_ub.shape == (0,) and sol.pivots == 0


def test_negative_rhs_is_rejected():
    # The simplex starts at x = 0, so a row with b < 0 is refused before
    # any LP of the call is solved, naming the LP and the row.
    good = ([-1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    bad = ([1.0, 1.0], [[1.0, 0.0], [-1.0, -1.0]], [2.0, -1.0])
    with pytest.raises(OutOfRange) as failure:
        solve_stacked([good, bad])
    assert isinstance(failure.value, ValidationError)
    assert str(failure.value) == "LP 1: b_ub[1] = -1.0 < 0; x = 0 must be feasible"
    with pytest.raises(OutOfRange, match=r"^LP 0: b_ub\[1\] = -1.0 < 0"):
        solve_lp(*bad)
    with pytest.raises(OutOfRange, match=r"^LP 0: b_ub\[1\] = -1.0 < 0"):
        enumerate_vertices(*bad)
    assert solve_lp([-1.0], [[1.0]], [-0.0]).value == 0.0


def test_solve_lps_takes_one_stack_of_one_shape():
    # c and b_ub are one row per LP or one row shared by all; any other
    # shape is refused.
    c, a_ub, b_ub = np.full((3, 2), -1.0), np.ones((3, 1, 2)), np.ones((3, 1))
    shared = solve_lps(c[0], a_ub, b_ub[0])
    assert [s.value for s in shared] == [s.value for s in solve_lps(c, a_ub, b_ub)] == [-1.0] * 3
    assert list(solve_lps(np.zeros((0, 2)), np.zeros((0, 1, 2)), b_ub[0])) == []
    for bad in (
        (c, a_ub[0], b_ub),  # a_ub not a stack
        (c, a_ub[None], b_ub),
        (c[:2], a_ub, b_ub),  # one cost row short
        (c[:, :1], a_ub, b_ub),
        (c[:1], a_ub, b_ub),
        (c, a_ub, b_ub[:2]),
        (c, a_ub, np.ones((3, 2))),
        (c, a_ub, np.ones(2)),
        (c, a_ub, 1.0),
    ):
        with pytest.raises(LengthMismatch):
            solve_lps(*bad)


@pytest.mark.parametrize("where, step", [({}, ""), ({"where": "cut 2"}, " (cut 2)")])
def test_require_optimal(where, step):
    # An optimal outcome comes back as it is; any other raises the typed
    # error naming the LP, and the step when one is given.
    optimal = solve_lp([-1.0], [[1.0]], [1.0])
    assert require_optimal(optimal, "an LP", **where) is optimal
    failure = NumericalFailure("simplex did not converge in 4 iterations")
    with pytest.raises(NumericalFailure) as caught:
        require_optimal(failure, "an LP", **where)
    assert str(caught.value) == f"an LP: simplex did not converge in 4 iterations{step}"
    assert caught.value.__cause__ is failure
    unbounded = solve_lp([-1.0], np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(UnexpectedLpStatus) as caught:
        require_optimal(unbounded, "an LP", **where)
    assert type(caught.value) is UnexpectedLpStatus
    assert str(caught.value) == f"an LP: status unbounded{step}"


# --- randomized cross-check ------------------------------------------------------


def test_random_lps_match_oracle_and_duality():
    rng = np.random.default_rng(914)
    for _ in range(60):
        p = random_bounded_lp(rng)
        assert_matches_oracle(p)
        check_duality(p)


def growing_lp(b_ub, capacity=16):
    """A GrowingLp with the rows b_ub and no columns yet, at the slack basis."""
    return lp.GrowingLp(b_ub, capacity)


def add_and_solve(grown, column, cost):
    """Append column at cost to a GrowingLp and solve it."""
    grown.add_column(column, cost)
    return grown.solve()


def test_growing_lp_matches_cold_solves():
    # Columns added one at a time, each solve resumed from the last basis,
    # against solve_lp of the same LP from the slack basis.
    rng = np.random.default_rng(1301)
    for _ in range(20):
        a_ub = np.vstack([rng.normal(size=(4, 10)), np.ones((1, 10))])  # the ones row bounds it
        b_ub = rng.uniform(0.1, 2.0, 5) * (rng.random(5) >= 1 / 3)
        c = rng.normal(size=10)
        grown = growing_lp(b_ub)
        for n in range(1, 11):
            warm = add_and_solve(grown, a_ub[:, n - 1], c[n - 1])
            cold = solve_lp(c[:n], a_ub[:, :n], b_ub)
            assert warm.status == cold.status == OPTIMAL
            assert abs(warm.value - cold.value) <= 1e-9 * (1.0 + abs(cold.value))
            assert warm.x.shape == (n,) and warm.dual_ub.shape == (5,)
            assert max(warm.primal_residual, warm.dual_residual) <= FEAS_TOL


def test_growing_lp_pivots_a_tied_column_in():
    # The second column's reduced cost is 0 at the first optimum, so the
    # simplex alone would keep the old basis; the new column enters anyway,
    # and the solve after it counts that entry.
    grown = growing_lp([1.0, 1.0])
    first = add_and_solve(grown, [2.0, 1.0], -1.0)
    assert first.x.tolist() == [0.5] and first.dual_ub.tolist() == [-0.5, 0.0]
    tied = add_and_solve(grown, [2.0, 0.5], -1.0)
    assert tied.pivots == 1 and tied.value == first.value == -0.5
    assert tied.x.tolist() == [0.0, 0.5] and tied.dual_ub.tolist() == [-0.5, 0.0]


def test_growing_lp_rejects_a_column_of_the_wrong_length():
    # A column without m entries raises LengthMismatch before the LP
    # changes, also a single entry that would broadcast: each good column
    # after it solves as on a master that never saw it.  Rows b_ub that
    # are not one (m,) row raise it too.
    rng = np.random.default_rng(1603)
    columns = rng.uniform(0.1, 1.0, (10, 4))
    costs = -rng.uniform(0.5, 1.5, len(columns))
    fresh, tried = growing_lp(np.ones(4)), growing_lp(np.ones(4))
    for n, column in enumerate(columns, start=1):
        for bad in (column[:1], column[:3], np.append(column, 1.0), column[None]):
            with pytest.raises(LengthMismatch, match=r"^column must have 4 entries"):
                tried.add_column(bad, costs[n - 1])
        assert_same_outcome(add_and_solve(tried, column, costs[n - 1]), add_and_solve(fresh, column, costs[n - 1]))
    with pytest.raises(LengthMismatch, match=r"^need b_ub \(m,\), got shape \(1, 4\)"):
        growing_lp(np.ones((1, 4)))


def test_growing_lp_ray_column_and_negative_rhs():
    # A ray column has no entry to pivot on, and the solve after it finds
    # the ray.  A column that enters counts in the next solve's pivots; a
    # ray column keeps the basis and counts nothing.  An LpStack does not
    # check its rows (solve_lps does): a negative rhs leaves the slack
    # basis infeasible, which the certificate names.  A GrowingLp refuses
    # one, and a column past its capacity, which leaves it as it was.
    grown = growing_lp([1.0])
    assert add_and_solve(grown, [2.0], -1.0).value == -0.5
    assert add_and_solve(grown, [-1.0], -1.0).status == UNBOUNDED
    (outcome,) = lp.LpStack(np.zeros((1, 2, 0)), [1.0, -1.0]).solve(np.zeros(0))
    assert isinstance(outcome, NumericalFailure)
    assert str(outcome) == "optimal basis fails feasibility recheck (largest violation 1)"
    with pytest.raises(OutOfRange, match=r"b_ub\[1\] = -1.0 < 0"):
        growing_lp([1.0, -1.0])
    # Binv.a = [-0.75, -0.25] at the basis {slack 1, x_0}: the column has no
    # entry to pivot on, the basis stays, and the solve finds the ray.
    grown = growing_lp([1.0, 1.0], capacity=2)
    assert add_and_solve(grown, [1.0, 2.0], -1.0).value == -0.5
    basis = grown._basis.tolist()
    grown.add_column([-1.0, -0.5], -2.0)
    assert grown._basis.tolist() == basis
    ray = grown.solve()
    assert ray.status == UNBOUNDED and ray.pivots == 0
    with pytest.raises(OutOfRange, match=r"^the LP has room for 2 columns"):
        grown.add_column([1.0, 1.0], -1.0)
    assert grown.solve() == ray


# --- the covering stack -----------------------------------------------------------


def covering_value(a, c):
    """min c.x s.t. a.x >= 1, x >= 0, solved cold in its max form: -min -sum v s.t. a^T v <= c, v >= 0."""
    return -solve_lp(-np.ones(a.shape[0]), a.T, c).value


def random_covering_stack(rng, size=12, m=4, n=5):
    """Rows like CCDF rows: nonincreasing, first entry positive, a third of the rest zero."""
    a = np.sort(rng.uniform(0.05, 1.0, (size, m, n)), axis=2)[:, :, ::-1]
    a[:, :, 1:] *= rng.random((size, m, n - 1)) >= 1 / 3
    return a


def test_covering_stack_resumes_at_each_new_cost_row():
    # One stack re-solved at 15 cost rows, a third of their entries 0:
    # every LP's value matches a cold solve, its point covers every row
    # and it carries the certificate.  The first cost row of each stack is
    # uniform, where the crash basis is already optimal.
    rng = np.random.default_rng(2101)
    for trial in range(4):
        a = random_covering_stack(rng)
        stack = lp.LpStack.covering(a)
        for step in range(15):
            n = a.shape[2]
            c = np.full(n, 0.2) if step == 0 else rng.uniform(0.0, 1.0, n) * (rng.random(n) >= 1 / 3)
            warm = stack.solve(c)
            if step == 0:
                assert not warm.pivots.any()
            for i, outcome in enumerate(warm):
                cold = covering_value(a[i], c)
                assert outcome.status == OPTIMAL
                assert abs(outcome.value - cold) <= 1e-12 * max(abs(cold), 1.0)
                assert (a[i] @ outcome.x >= 1.0 - FEAS_TOL).all() and (outcome.x >= 0.0).all()
                assert max(outcome.primal_residual, outcome.dual_residual) <= FEAS_TOL


def test_covering_stack_crash_of_a_tied_pair():
    # Two rows tie at the smallest first entry x.  The crash pivot's own
    # update gives the tied row -1 + x * (1/x) = -1.1e-16 at these x; the
    # crashed rhs is exactly 0 instead, and the point is (1/x, 0, 0).
    for x in (0.09, 0.18, 0.36, 0.47):
        assert -1.0 - (-x) * (1.0 / x) < 0.0
        a = np.array([[[x, 0.5 * x, 0.0], [x, 0.0, 0.0], [0.9, 0.8, 0.7]]])
        stack = lp.LpStack.covering(a)
        rhs = stack._tableau[0, :3, -1]
        assert (rhs >= 0.0).all() and sorted(rhs.tolist()) == [0.0, (0.9 - x) / x, 1.0 / x]
        assert not np.signbit(stack._tableau[stack._tableau == 0.0]).any()
        (solution,) = stack.solve([1.0, 1.0, 1.0])
        assert solution.x.tolist() == [1.0 / x, 0.0, 0.0] and solution.pivots == 0
        assert solution.value == covering_value(a[0], np.ones(3))


def test_covering_stack_at_costs_with_zero_entries():
    # A zero cost makes its column free: the value is 0 where one free
    # column covers every row, and the simplex never enters a column
    # whose reduced cost is 0, so it takes no ray.
    a = np.array([[[0.6, 0.5, 0.2], [0.8, 0.1, 0.1]], [[0.6, 0.5, 0.0], [0.8, 0.0, 0.0]]])
    stack = lp.LpStack.covering(a)
    for c in ([0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.5], [0.5, 0.5, 0.0]):
        c = np.array(c)
        for i, solution in enumerate(stack.solve(c)):
            assert solution.status == OPTIMAL
            assert solution.value == pytest.approx(covering_value(a[i], c), rel=1e-12, abs=0.0)
            assert (a[i] @ solution.x >= 1.0 - FEAS_TOL).all()
    assert [s.value for s in stack.solve(np.zeros(3))] == [0.0, 0.0]


def test_covering_stack_input_checks():
    a = np.ones((2, 3, 4))
    stack = lp.LpStack.covering(a)
    for bad in (np.ones(3), np.ones((3, 4)), np.ones((1, 4)), np.ones((2, 4, 1)), 1.0):
        with pytest.raises(LengthMismatch, match=r"^need c \(4,\) or \(2, 4\), got shape"):
            stack.solve(bad)
    assert [s.value for s in stack.solve(np.ones(4))] == [1.0, 1.0]
    assert [s.value for s in stack.solve([[1.0] * 4, [2.0] * 4])] == [1.0, 2.0]  # a cost row per LP
    a[1, 2, 0] = 0.0
    with pytest.raises(OutOfRange, match="first column must be positive"):
        lp.LpStack.covering(a)


# --- crash starts ------------------------------------------------------------------


def reach_through(a_ub, b_ub, steps):
    """A writer for LpStack.crashed that writes, in place, the rows and labels
    that the crash steps reach from the slack basis (pivoted_stack)."""
    reached = pivoted_stack(a_ub, b_ub, steps)
    m, n = reached._a.shape[1:]

    def reach(rows, basis, nonbasic):
        rows[:], basis[:], nonbasic[:] = reached._tableau[:, :m, :n], reached._basis, reached._nonbasic

    return reach


def crash_example():
    """min -x1 - x2 s.t. x1 <= 1, x2 <= 2, x1 + x2 <= 4, twice, and a crash
    of two steps: x1 enters at row 0 in both LPs, then x2 at row 1 in LP 0
    only.  LP 0 starts at its optimum (1, 2), LP 1 at (1, 0).  The rhs
    holds each row's basic value there: x1, x2 and row 2's slack in LP 0,
    x1 and the slacks of rows 1 and 2 in LP 1."""
    a_ub = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b_ub = np.array([1.0, 2.0, 4.0])
    steps = [
        (np.array([0, 0]), np.array([0, 0]), None),
        (np.array([1, 1]), np.array([1, 1]), np.array([False, True])),
    ]
    rhs = np.array([[1.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
    return np.array([a_ub, a_ub]), b_ub, steps, rhs


def test_crashed_stack_starts_at_its_vertex():
    # A caller that writes the rows and labels of the first step (reach)
    # and takes the second as its one crash pivot gets the stack that
    # pivoting both steps gives, byte for byte, with the rhs given.  Its
    # writer is handed the stack's own rows and labels, at the slack
    # basis, once.  A solve resumes from there: LP 0 is optimal at once,
    # LP 1 takes one pivot.  The crash pivot counts in no solve.
    a_ub, b_ub, steps, rhs = crash_example()
    handed = []
    write = reach_through(a_ub, b_ub, steps[:1])

    def reach(rows, basis, nonbasic):
        handed.append((rows.copy(), basis.copy(), nonbasic.copy()))
        write(rows, basis, nonbasic)

    stack = lp.LpStack.crashed(a_ub, b_ub, steps[1], rhs, reach)
    [(rows, basis, nonbasic)] = handed
    assert rows.tobytes() == a_ub.tobytes()
    assert basis.tolist() == [[2, 3, 4]] * 2 and nonbasic.tolist() == [[0, 1]] * 2
    pivoted = pivoted_stack(a_ub, b_ub, steps, rhs)
    assert stack._tableau.tobytes() == pivoted._tableau.tobytes()
    assert (stack._basis == pivoted._basis).all() and (stack._nonbasic == pivoted._nonbasic).all()
    assert stack._basis.tolist() == [[0, 1, 4], [0, 3, 4]]
    assert stack._tableau[:, :3, -1].tolist() == [[1.0, 2.0, 1.0], [1.0, 2.0, 3.0]]
    solved = stack.solve([-1.0, -1.0])
    assert solved.pivots.tolist() == [0, 1]
    assert [s.x.tolist() for s in solved] == [[1.0, 2.0], [1.0, 2.0]]
    assert solved.value.tolist() == [-3.0, -3.0]
    assert (solved.primal_residual == 0.0).all() and (solved.duality_gap <= FEAS_TOL).all()
    assert_same_stack(solved, pivoted.solve([-1.0, -1.0]))
    cold = solve_lps([-1.0, -1.0], a_ub, b_ub)
    assert cold.pivots.tolist() == [2, 2] and cold.value.tolist() == [-3.0, -3.0]
    # Without a writer the pivot is taken from the slack basis: the first
    # step alone, where both LPs sit at (1, 0).
    first = lp.LpStack.crashed(a_ub, b_ub, steps[0], rhs[[1, 1]])
    pivoted = pivoted_stack(a_ub, b_ub, steps[:1], rhs[[1, 1]])
    assert first._tableau.tobytes() == pivoted._tableau.tobytes()
    assert first._basis.tolist() == [[0, 3, 4]] * 2
    assert first.solve([-1.0, -1.0]).pivots.tolist() == [1, 1]


def test_crashed_stack_input_checks():
    # An rhs of another shape or with a negative entry is refused before
    # the caller's writer or the pivot runs.
    a_ub, b_ub, steps, rhs = crash_example()
    written = []

    def reach(*tableau):
        written.append(tableau)

    for bad in (rhs[:1], rhs[:, :2], rhs[0]):
        with pytest.raises(LengthMismatch, match=r"^need rhs \(2, 3\), got shape"):
            lp.LpStack.crashed(a_ub, b_ub, steps[1], bad, reach)
    rhs[1, 2] = -1.0
    with pytest.raises(OutOfRange) as failure:
        lp.LpStack.crashed(a_ub, b_ub, steps[1], rhs, reach)
    assert not written
    assert str(failure.value) == "LP 1: rhs[2] = -1.0 < 0; the start must be feasible"


def test_covering_stack_is_its_crash_by_hand():
    # The covering stack's held form -a.x <= -1, crashed by hand at the
    # smallest first entry of each LP, solves byte for byte as
    # LpStack.covering does.  Its x = 0 is infeasible: solve_lps, which
    # starts there and takes no crash, refuses it.
    a = random_covering_stack(np.random.default_rng(2102))
    size, m, n = a.shape
    rows = a[:, :, 0].argmin(axis=1)
    least = a[np.arange(size), rows, 0][:, None]
    rhs = (a[:, :, 0] - least) / least
    rhs[np.arange(size), rows] = 1.0 / least[:, 0]
    c = np.random.default_rng(2103).uniform(0.1, 1.0, n)
    crashed = lp.LpStack.crashed(-a, np.full(m, -1.0), (rows, np.zeros(size, dtype=int), None), rhs)
    assert_same_stack(crashed.solve(c), lp.LpStack.covering(a).solve(c))
    with pytest.raises(OutOfRange, match=r"x = 0 must be feasible"):
        solve_lps(c, -a, np.full(m, -1.0))


def test_crash_pricing_ignores_zero_rows():
    # The first solve of a crashed stack sums c_B.T in row order, so
    # all-zero rows, which a padded stack puts in, change no byte: the same
    # LP with zero rows put in anywhere prices, pivots and solves from its
    # crash as it does alone, each LP of the stack with its rows elsewhere.
    # The crash enters x_j at the unit row x_j <= u_j for j < k, so k rows
    # carry a cost: the writer puts in the first k - 1 steps and the last is
    # the crash pivot.  The other rows are random with room at x = u.
    rng = np.random.default_rng(3107)
    for _ in range(30):
        k, n = int(rng.integers(2, 7)), int(rng.integers(7, 12))
        rest = int(rng.integers(2, 8))
        u = rng.uniform(0.5, 2.0, k)
        a = np.concatenate([np.eye(k, n), rng.uniform(-0.5, 1.0, (rest, n))])
        b = np.concatenate([u, a[k:, :k] @ u + rng.uniform(0.1, 1.0, rest)])
        c = rng.uniform(-1.0, 0.2, n)
        x = np.zeros(n)
        x[:k] = u
        alone_rhs = (b - a @ x)[None]
        alone_rhs[0, :k] = u  # x_j is basic in unit row j
        steps = [(np.array([j]), np.array([j]), None) for j in range(k)]
        alone = lp.LpStack.crashed(a[None], b, steps[-1], alone_rhs, reach_through(a[None], b, steps[:-1]))
        expected = alone.solve(c)
        at = [np.sort(rng.integers(0, k + rest + 1, 6)) for _ in range(5)]
        row_of = np.array([np.arange(k) + np.searchsorted(i, np.arange(k), side="right") for i in at])
        steps = [(row_of[:, j], np.full(len(at), j), None) for j in range(k)]
        rhs = np.array([np.insert(alone_rhs[0], i, 0.0) for i in at])
        a_ub = np.array([np.insert(a, i, 0.0, axis=0) for i in at])
        b_ub = np.array([np.insert(b, i, 0.0) for i in at])
        stack = lp.LpStack.crashed(a_ub, b_ub, steps[-1], rhs, reach_through(a_ub, b_ub, steps[:-1]))
        solved = stack.solve(c)
        assert solved.status == expected.status * len(at)
        for name in ("x", "value", "pivots"):
            alone_bytes = np.repeat(getattr(expected, name), len(at), axis=0).tobytes()
            assert getattr(solved, name).tobytes() == alone_bytes, name
        assert stack._tableau[:, -1].tobytes() == np.repeat(alone._tableau[:, -1], len(at), axis=0).tobytes()


# --- pivot path ------------------------------------------------------------------


def pivot_case(rng, size, m, n):
    """A stack of condensed tableaux (size, m+1, n+1) that meets _pivot's precondition.

    Row m is a cost row.  No entry is -0.0, many are +0.0, and each
    tableau's pivot entry is positive; about 80% of each pivot column is
    zero, and in some tableaux all of it but the pivot, the cost row's
    entry included.  Returns the tableau, the labels and the pivots.
    """
    tableau = rng.normal(size=(size, m + 1, n + 1))
    tableau[rng.random(tableau.shape) < 0.4] = 0.0
    rows, cols = rng.integers(m, size=size), rng.integers(n, size=size)
    for i in range(size):
        column = tableau[i, :, cols[i]]
        column[rng.random(m + 1) < 0.8] = 0.0
        if i % 3 == 0:
            column[:] = 0.0
        column[rows[i]] = rng.uniform(0.1, 2.0)
    labels = np.array([rng.permutation(n + m) for _ in range(size)])
    return tableau, labels[:, :m].copy(), labels[:, m:].copy(), rows, cols


def test_pivot_matches_row_loop():
    # Stacks of one to five condensed tableaux, each with its own pivot.
    # Each tableau is expanded to the full one (unit columns for its basic
    # labels in the m constraint rows, zeros in the cost row) and pivoted
    # by the row loop there; the stored columns and the rhs must match it
    # byte for byte, signed zeros included, with the two labels swapped.
    rng = np.random.default_rng(64)
    for trial in range(30):
        size = 1 if trial % 3 == 0 else int(rng.integers(2, 6))
        m, n = int(rng.integers(1, 80)), int(rng.integers(1, 49))
        tableau, basis, nonbasic, pivot_rows, pivot_cols = pivot_case(rng, size, m, n)
        full = np.zeros((size, m + 1, n + m + 1))
        for i in range(size):
            full[i][:, nonbasic[i]] = tableau[i, :, :-1]
            full[i, np.arange(m), basis[i]] = 1.0
            full[i, :, -1] = tableau[i, :, -1]
        expected_basis, expected_nonbasic = basis.copy(), nonbasic.copy()
        for i in range(size):
            expected_nonbasic[i, pivot_cols[i]] = basis[i, pivot_rows[i]]
            pivot_reference(full[i], expected_basis[i], pivot_rows[i], nonbasic[i, pivot_cols[i]])
        _pivot(tableau, basis, nonbasic, pivot_rows, pivot_cols, np.arange(size))
        assert np.array_equal(basis, expected_basis)
        assert np.array_equal(nonbasic, expected_nonbasic)
        expected = np.array([np.column_stack([full[i][:, nonbasic[i]], full[i, :, -1]]) for i in range(size)])
        assert np.array_equal(tableau, expected)
        assert np.array_equal(np.signbit(tableau), np.signbit(expected))


def test_frozen_pivot_writes_nothing():
    # A frozen tableau's pivot, even on a zero entry, leaves its tableau
    # and labels byte for byte as they were.  The other tableaux pivot as
    # they would without it.
    rng = np.random.default_rng(1602)
    size, m, n = 6, 5, 4
    tableau, basis, nonbasic, rows, cols = pivot_case(rng, size, m, n)
    tableau[0, :, cols[0]] = 0.0  # frozen on a zero pivot
    frozen = np.arange(size) % 2 == 0
    expected = [a.copy() for a in (tableau, basis, nonbasic)]
    running = [a[~frozen] for a in expected]
    _pivot(*running, rows[~frozen], cols[~frozen], np.arange(size - np.count_nonzero(frozen)))
    for want, got in zip(expected, running):
        want[~frozen] = got
    _pivot(tableau, basis, nonbasic, rows, cols, np.arange(size), frozen)
    for got, want in zip((tableau, basis, nonbasic), expected):
        assert got.tobytes() == want.tobytes()


def negative_zeros(v):
    """v with every zero entry made -0.0."""
    v = np.array(v, dtype=float)
    v[v == 0.0] = -0.0
    return v


def assert_same_stack(a, b):
    """Two StackSolutions equal field by field, byte for byte."""
    assert a.status == b.status
    for f in fields(lp.StackSolution)[1:]:
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), f.name


def test_solve_lps_clears_negative_zeros():
    # -0.0 in c, a_ub or b_ub gives the bytes of the same LPs with +0.0:
    # the tableau and the costs take +0.0 on entry, and the certificate
    # reads the original rows only through sums and maxima that a zero's
    # sign does not change.
    rng = np.random.default_rng(1701)
    c, a_ub, b_ub = spread_stack(rng)
    c[::3, 0], b_ub[::4, 0] = 0.0, 0.0
    cases = [
        (c, a_ub, b_ub),
        (c[0], a_ub, b_ub[0]),  # shared rows
        (np.zeros(3), np.ones((2, 2, 3)), np.zeros(2)),  # x = 0 at a cost of zero
        ([-1.0, 0.0], [[[1.0, 0.0]], [[2.0, -1.0]]], [[0.0], [1.0]]),  # a zero ratio, and a ray
        ([-1.0, 0.0, -2.0], [[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]], [[0.0, 0.0]]),
    ]
    for clean in cases:
        signed = [negative_zeros(v) for v in clean]
        assert any(np.signbit(v[v == 0.0]).any() for v in signed)
        assert_same_stack(solve_lps(*signed), solve_lps(*clean))
    # The same holds for a stack of one fed -0.0 in its rhs, columns and costs.
    b = np.array([1.0, 0.0, 2.0, 0.0])
    columns = rng.uniform(0.1, 1.0, (10, 4)) * (rng.random((10, 4)) < 0.6)
    costs = -rng.uniform(0.5, 1.5, len(columns)) * (np.arange(len(columns)) % 4 != 0)
    clean, signed = growing_lp(b), growing_lp(negative_zeros(b))
    for column, cost in zip(columns, (costs + 0.0).tolist()):
        want = add_and_solve(clean, column, cost)
        got = add_and_solve(signed, negative_zeros(column), -0.0 if cost == 0.0 else cost)
        assert_same_outcome(got, want)
        for name in ("x", "dual_ub"):
            assert np.array_equal(np.signbit(getattr(got, name)), np.signbit(getattr(want, name)))


def record_tableaux(monkeypatch, check):
    """Call check(tableau, basis, nonbasic) on the running stack before every pivot and on each final stack."""
    pivot, finish = lp._pivot, lp._finish

    def checked_pivot(tableau, basis, nonbasic, *args):
        check(tableau, basis, nonbasic)
        return pivot(tableau, basis, nonbasic, *args)

    def checked_finish(status, tableau, basis, nonbasic, *args):
        check(tableau, basis, nonbasic)
        return finish(status, tableau, basis, nonbasic, *args)

    monkeypatch.setattr(lp, "_pivot", checked_pivot)
    monkeypatch.setattr(lp, "_finish", checked_finish)


def record_grown(monkeypatch, check):
    """Call check(grown) on every GrowingLp before each of its pivots and after each solve."""
    pivot, solve = lp.GrowingLp._pivot, lp.GrowingLp.solve

    def checked_pivot(grown, row, slot):
        check(grown)
        return pivot(grown, row, slot)

    def checked_solve(grown):
        outcome = solve(grown)
        check(grown)
        return outcome

    monkeypatch.setattr(lp.GrowingLp, "_pivot", checked_pivot)
    monkeypatch.setattr(lp.GrowingLp, "solve", checked_solve)


def test_pivots_never_make_a_negative_zero(monkeypatch):
    # Stacks whose LPs stop at spread iterations, so that many pivots run
    # with frozen LPs in the stack; random LPs with many zero entries, fed
    # as -0.0, alone and as the columns added to a GrowingLp; and a pivot row
    # whose negative subnormal entry underflows to -0.0 when divided by the
    # pivot 3, which the update clears; and a delivery LP on a grid rounded
    # to one decimal, whose subset LPs crash-pivot on negative divisors,
    # with ties at the smallest first entry and zeros in the rows, and
    # whose master is a GrowingLp.  No tableau holds a -0.0 before any
    # pivot or at the end.
    def check(tableau, basis, nonbasic):
        assert not np.signbit(tableau[tableau == 0.0]).any()

    grown_checks = []

    def check_grown(grown):
        check(grown._tableau, None, None)
        grown_checks.append(grown._n)

    record_tableaux(monkeypatch, check)
    record_grown(monkeypatch, check_grown)
    calls = record_lifecycle(monkeypatch)
    rng = np.random.default_rng(1702)
    for seed in range(4):
        c, a_ub, b_ub = spread_stack(np.random.default_rng(seed))
        solve_lps(negative_zeros(c), negative_zeros(a_ub), negative_zeros(b_ub))
    for _ in range(30):
        c, a_ub, b_ub = random_bounded_lp(rng)
        a_ub = a_ub * (rng.random(a_ub.shape) < 0.7)
        solve_lps(negative_zeros(c), negative_zeros(a_ub)[None], negative_zeros(b_ub))
    signed = growing_lp(negative_zeros([1.0, 0.0, 2.0]))
    for j in range(8):
        column = negative_zeros(rng.uniform(0.1, 1.0, 3) * (rng.random(3) < 0.6))
        add_and_solve(signed, column, -0.0 if j % 3 == 1 else -rng.uniform(0.5, 1.5))
    assert len(grown_checks) >= 8
    tiny = np.nextafter(0.0, -1.0)  # -5e-324
    sol = solve_lp([-1.0, 0.0], [[3.0, tiny], [1.0, 1.0]], [1.0, 1.0])
    assert sol.x.tolist() == [1.0 / 3.0, 0.0] and sol.pivots == 1
    assert sum(frozen > 0 for _, frozen in calls) >= 10  # pivots with frozen LPs in the stack
    grid = np.round(sorted_uniform_ccdf(np.random.default_rng(71), 7, 4), 1)
    assert len(set(grid[:, 0])) < 7 and not grid.all()
    before, grown_before = len(calls), len(grown_checks)
    achievable_rate_lp(validate_stats(grid), Fraction(2, 7))
    assert len(calls) - before + len(grown_checks) - grown_before >= 20  # subset-stack pivots, master checks


def fresh_reduced_costs(tableau, basis, nonbasic, costs):
    """c_N - c_B.T of every LP of a stack whose costs by label are one shared row."""
    m = basis.shape[1]
    return costs[nonbasic] - np.einsum("lm,lmn->ln", costs[basis], tableau[:, :m, :-1])


def test_cost_row_tracks_fresh_pricing(monkeypatch):
    # Row m of every tableau, carried by the pivots' rank-1 update, agrees
    # with c_N - c_B.T priced afresh from the constraint rows, before every
    # pivot and at the end: on stacks that share one cost row, on the
    # three pivot-path LPs, on a GrowingLp solved after each new column,
    # and on the subset LPs of a delivery LP, from the crash pivot (cost
    # row 0) through the cost rows repriced at the lambda of each subset
    # solve (10 on ladder LP K9-t4; Kelley's loop took 21).  A
    # GrowingLp's cost row, c - c_B.Binv.[I | b | a], is checked also at
    # the pivot that enters a new column, which comes with its reduced cost.
    costs = []  # the current LP's costs by label, one shared row
    checked = []

    def check(tableau, basis, nonbasic):
        c = np.concatenate([costs[-1][: nonbasic.shape[1]], np.zeros(basis.shape[1])])
        fresh = fresh_reduced_costs(tableau, basis, nonbasic, c)
        tol = 1e-12 * (1.0 + np.abs(c).max())
        assert np.abs(tableau[:, basis.shape[1], :-1] - fresh).max(initial=0.0) <= tol
        checked.append(tableau.shape[0])

    def check_grown(grown):
        m, width = grown._b.size, grown._b.size + 1 + grown._n
        tableau, c = grown._tableau[:, :width], grown._costs[:width]
        fresh = c - grown._costs.take(grown._basis) @ tableau[:m]
        tol = 1e-12 * (1.0 + np.abs(c).max())
        assert np.abs(tableau[m] - fresh).max() <= tol
        checked.append(1)

    problems = path_problems()
    _, grid, t = ladder_grids()[6]
    prices = cut_prices(monkeypatch, grid, t)
    record_tableaux(monkeypatch, check)
    record_grown(monkeypatch, check_grown)
    rng = np.random.default_rng(1703)
    for seed in range(3):
        c, a_ub, b_ub = spread_stack(np.random.default_rng(seed))
        costs.append(c[-1])
        solve_lps(c[-1], a_ub, b_ub)
    for problem in problems:
        costs.append(problem[0])
        solve_lp(*problem)
    a_ub = np.vstack([rng.normal(size=(4, 12)), np.ones((1, 12))])
    c = rng.normal(size=12)
    costs.append(c)
    grown = growing_lp(rng.uniform(0.1, 2.0, 5))
    for j in range(12):
        add_and_solve(grown, a_ub[:, j], c[j])
    assert len(checked) > 300
    stats, before = validate_stats(grid), len(checked)
    costs.append(np.zeros(4))  # the crash pivot's: the cost row is 0 until the first solve
    stack = lp.LpStack.covering(stats.ccdf[np.array(message_subsets(9, t)) - 1])
    for lam in prices:
        costs.append(lam)
        stack.solve(lam)
    assert len(prices) == 10 and len(checked) - before > len(prices)


def cut_prices(monkeypatch, grid, t):
    """The lambda at which each subset solve of the delivery LP of grid at t solves its subset LPs."""
    solve, prices = lp.LpStack.solve, []

    def recording(stack, c):
        prices.append(np.array(c))
        return solve(stack, c)

    with monkeypatch.context() as patch:
        patch.setattr(lp.LpStack, "solve", recording)
        achievable_rate_lp(validate_stats(grid), Fraction(t, grid.shape[0]))
    return prices


def solve_stacked(problems):
    """solve_lps on a list of LPs (c, a_ub, b_ub), one call per shape, outcomes in list order."""
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(np.shape(p[1]), []).append(i)
    outcomes = [None] * len(problems)
    for members in groups.values():
        stack = (np.array([problems[i][part] for i in members]) for part in range(3))
        for i, outcome in zip(members, solve_lps(*stack)):
            outcomes[i] = outcome
    return outcomes


def _outcome(problem):
    try:
        return solve_lp(*problem)
    except NumericalFailure as exc:
        return exc


def assert_same_outcome(stacked, solo):
    assert type(stacked) is type(solo)
    if isinstance(solo, NumericalFailure):
        assert str(stacked) == str(solo)
        return
    assert stacked.status == solo.status
    assert stacked.pivots == solo.pivots
    for name in ("x", "dual_ub"):
        a, b = getattr(stacked, name), getattr(solo, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for name in ("value", "primal_residual", "dual_residual", "duality_gap"):
        a, b = getattr(stacked, name), getattr(solo, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert float.hex(a) == float.hex(b), name


def test_stack_matches_solo(monkeypatch):
    rng = np.random.default_rng(31)
    problems = [random_bounded_lp(rng) for _ in range(100)]
    problems += [
        (np.array([-1.0]), np.zeros((0, 1)), np.zeros(0)),  # unbounded
        (np.array([-1.0, 0.0]), np.array([[-1.0, 1.0]]), np.zeros(1)),  # unbounded
    ]
    # The 240 orderings that start with user 6 or 5 of the ROADMAP item 1
    # instance, each padded as the bound pads a stack: zero rows before its
    # 5 chain and budget rows, up to the widest's 21 rows.  One shape, more
    # than the bound slices its own stacks to.  (6, 1, 2, 3, 4, 5) is made
    # to fail its feasibility recheck, in the stack and alone.
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    orderings = [
        build_permutation_lp(stats, tup, (first,) + rest)
        for first in (6, 5)
        for rest in permutations(k for k in range(1, 7) if k != first)
    ]
    fail_certificate(monkeypatch, orderings[0])
    width = max(len(a_ub) for _, a_ub, _ in orderings)
    budget = np.append(np.zeros(width - 1), 1.0)  # every row's rhs but the budget row's is 0
    padded = [
        (c, np.insert(a_ub, [len(a_ub) - 5] * (width - len(a_ub)), 0.0, axis=0), budget) for c, a_ub, _ in orderings
    ]
    problems = problems + padded
    problems = [problems[i] for i in rng.permutation(len(problems))]

    stacks = []
    simplex = lp._simplex

    def recording_simplex(tableau, basis, nonbasic):
        stacks.append(len(tableau))
        return simplex(tableau, basis, nonbasic)

    with monkeypatch.context() as recording:
        recording.setattr(lp, "_simplex", recording_simplex)
        stacked = solve_stacked(problems)
    solo = [_outcome(p) for p in problems]

    # One simplex run per solve_lps call, one call per shape; the 240
    # padded orderings (live count 5: 21 rows, 9 columns) run as one stack,
    # larger than the bound's own stacks.
    assert len(stacks) == len({np.shape(p[1]) for p in problems})
    assert max(stacks) == 240 > stack_size(21, 5 + 4) == 204
    statuses = {s.status if isinstance(s, LpSolution) else type(s).__name__ for s in solo}
    assert statuses == {OPTIMAL, UNBOUNDED, "NumericalFailure"}
    # The 24 orderings (6, 1, ...) share one LP: user 1 is above user 6 on
    # every level and no later user is above user 1 on any, so their record
    # rows are those of users 6 and 1 alone, and at a central placement the
    # chain rows depend only on the position.
    assert [str(s) for s in solo if isinstance(s, NumericalFailure)] == [
        "optimal basis fails feasibility recheck (largest violation 0.00294)"
    ] * 24
    for a, b in zip(stacked, solo):
        assert_same_outcome(a, b)
    # A padded LP takes the pivots, x and value of the LP alone (its duals
    # and residuals are sums over more rows).
    for alone, among in zip(map(_outcome, orderings), map(_outcome, padded)):
        if isinstance(alone, NumericalFailure):
            assert str(alone) == str(among)
            continue
        assert (alone.status, alone.pivots) == (among.status, among.pivots)
        assert float.hex(alone.value) == float.hex(among.value) and alone.x.tobytes() == among.x.tobytes()

    # LPs that reach the iteration cap fail alone, as they do solo.
    monkeypatch.setattr(lp, "MAX_ITERATIONS", 5)
    capped = [_outcome(p) for p in problems]
    assert any("did not converge in 5 iterations" in str(s) for s in capped)
    for a, b in zip(solve_stacked(problems), capped):
        assert_same_outcome(a, b)


def spread_stack(rng, size=24, m=10, n=10):
    """One stack of LPs whose pivot counts spread from 0 to about n.

    LP i has n columns, of which the first i * n // size have a negative
    cost; the others never enter.  The rows are nearly the unit rows, so
    each such column enters about once.  Some rows have b = 0, so the
    stack has degenerate pivots too.  In every other LP the columns that
    never enter are 0, so a frozen LP's placeholder pivot can fall on a
    zero entry.
    """
    a_ub = np.eye(m, n) + rng.uniform(0.0, 0.1, (size, m, n))
    b_ub = rng.uniform(0.5, 2.0, (size, m)) * (rng.random((size, m)) >= 0.2)
    c = -rng.uniform(0.5, 1.5, (size, n))
    idle = np.arange(n) >= (np.arange(size) * n // size)[:, None]
    c[idle] = 0.0
    a_ub.transpose(0, 2, 1)[idle & (np.arange(size) % 2 == 0)[:, None]] = 0.0
    return c, a_ub, b_ub


def record_lifecycle(monkeypatch):
    """Wrap lp._pivot to record, per call, the running stack's size and its frozen LPs."""
    calls = []
    pivot = lp._pivot

    def recording(tableau, basis, nonbasic, rows, cols, lps=None, frozen=None):
        calls.append((tableau.shape[0], 0 if frozen is None else int(np.count_nonzero(frozen))))
        return pivot(tableau, basis, nonbasic, rows, cols, lps, frozen)

    monkeypatch.setattr(lp, "_pivot", recording)
    return calls


def test_stack_freezes_stopped_lps_then_compacts(monkeypatch):
    # The LPs stop at widely spread iterations.  The first to stop are
    # frozen in the running stack, which is compacted once half of it has
    # stopped; each outcome is still the one the LP gets alone, pivots
    # included.
    c, a_ub, b_ub = spread_stack(np.random.default_rng(1601))
    calls = record_lifecycle(monkeypatch)
    stacked = solve_lps(c, a_ub, b_ub)
    sizes = [size for size, _ in calls]
    assert max(frozen for _, frozen in calls) >= 1  # some pivots ran with frozen LPs in the stack
    assert sizes[0] == len(c) and min(sizes) < len(c)  # and the stack was compacted
    assert all(2 * frozen < size for size, frozen in calls)  # never half frozen
    assert len(set(stacked.pivots.tolist())) >= 8
    for a, b in zip(stacked, map(_outcome, zip(c, a_ub, b_ub))):
        assert_same_outcome(a, b)


def test_stack_cap_fails_only_the_running_lps(monkeypatch):
    # The iteration cap falls while some LPs are frozen and others run:
    # the running ones fail, the frozen ones keep their outcomes, as alone.
    c, a_ub, b_ub = spread_stack(np.random.default_rng(1601))
    monkeypatch.setattr(lp, "MAX_ITERATIONS", 4)
    calls = record_lifecycle(monkeypatch)
    stacked = solve_lps(c, a_ub, b_ub)
    assert calls[-1][1] >= 1  # frozen LPs in the stack at the last pivot
    statuses = {s.status if isinstance(s, LpSolution) else type(s).__name__ for s in stacked}
    assert statuses == {OPTIMAL, "NumericalFailure"}
    for a, b in zip(stacked, map(_outcome, zip(c, a_ub, b_ub))):
        assert_same_outcome(a, b)


# Pivot counts and optimal values frozen from this solver.  The pivot rule,
# the tolerances and the order of every floating-point operation decide
# these exactly; any change to the pivot path shows up here first.


def _delivery_path():
    return solve_lp(*build_delivery_lp(random_stats(np.random.default_rng(7), 7, 4), 2))


def _chain_lp():
    """The dense chain LP (c, a_ub, b_ub), degraded_optimal_rate's oracle (helpers.chain_lp), and its outcome."""
    problem = chain_lp(random_chain_stats(np.random.default_rng(5), 5, 4), Fraction(2, 5))
    return problem, solve_lp(*problem)


def _chain_path():
    return _chain_lp()[1]


def _ordering_path():
    stats = random_stats(np.random.default_rng(5), 5, 4)
    tup = caching_tuple(central_strategy(5, Fraction(2, 5)))
    # Degenerate: every row but the budget row has rhs 0, so the tie rule
    # picks nearly every leaving row.
    return solve_lp(*build_permutation_lp(stats, tup, (2, 4, 1, 3, 5)))


def path_problems():
    """The LPs (c, a_ub, b_ub) of the three pivot paths: delivery, chain and per-ordering."""
    stats = random_stats(np.random.default_rng(5), 5, 4)
    tup = caching_tuple(central_strategy(5, Fraction(2, 5)))
    return [
        build_delivery_lp(random_stats(np.random.default_rng(7), 7, 4), 2),
        _chain_lp()[0],
        build_permutation_lp(stats, tup, (2, 4, 1, 3, 5)),
    ]


def _path(sol):
    return sol.status, sol.pivots, sol.value


def test_pivot_path_delivery_lp():
    assert _path(_delivery_path()) == (OPTIMAL, 242, -1.0000449673374927)


def test_pivot_path_chain_lp():
    assert _path(_chain_path()) == (OPTIMAL, 8, -2.461175840112319)


def test_pivot_path_ordering_lp():
    assert _path(_ordering_path()) == (OPTIMAL, 12, -0.7020414075184855)


def test_guard_at_zero_is_blands_rule(monkeypatch):
    # DEGENERATE_RUN = 0 keeps every LP on the smallest-basic-index rule,
    # which reproduces the delivery and chain paths frozen before the
    # largest-entry rule.
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 0)
    assert _path(_delivery_path()) == (OPTIMAL, 241, -1.0000449673374703)
    assert _path(_chain_path()) == (OPTIMAL, 8, -2.461175840112319)
    assert _path(_ordering_path()) == (OPTIMAL, 11, -0.7020414075184855)


def test_guard_fires_on_degenerate_delivery_lp(monkeypatch):
    # The K = 7, t = 2 delivery LP has runs of more than DEGENERATE_RUN
    # zero-ratio pivots: the guard changes its path (242 pivots against
    # 244 with the guard off) and not its optimum.
    problem = build_delivery_lp(random_stats(np.random.default_rng(7), 7, 4), 2)
    guarded = solve_lp(*problem)
    monkeypatch.setattr(lp, "DEGENERATE_RUN", lp.MAX_ITERATIONS)
    unguarded = solve_lp(*problem)
    assert (guarded.pivots, unguarded.pivots) == (242, 244)
    assert abs(guarded.value - unguarded.value) <= 1e-12


# Beale (1955): min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 subject to
#   1/4 x4 -  60 x5 - 1/25 x6 + 9 x7 <= 0
#   1/2 x4 -  90 x5 - 1/50 x6 + 3 x7 <= 0
#                           x6       <= 1,
# on which Dantzig's rule with a smallest-index ratio tie cycles through
# six degenerate bases.  Optimum -1/20 at x4 = 1/25, x6 = 1.
BEALE = (
    np.array([-0.75, 150.0, -0.02, 6.0]),
    np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
)


@pytest.mark.parametrize("run", [0, lp.DEGENERATE_RUN, lp.MAX_ITERATIONS])
def test_beale_cycling_example(monkeypatch, run):
    monkeypatch.setattr(lp, "DEGENERATE_RUN", run)
    sol = solve_lp(*BEALE)
    assert sol.status == OPTIMAL
    assert abs(sol.value + 0.05) <= 1e-15
    np.testing.assert_allclose(sol.x, [0.04, 0.0, 1.0, 0.0], atol=1e-15)


# --- HiGHS cross-checks -----------------------------------------------------------
# Status and value against scipy's HiGHS (1e-9 relative), and each optimal
# LP's certificate within FEAS_TOL.  Skipped where scipy is not installed.

HIGHS_STATUS = {0: OPTIMAL, 3: UNBOUNDED}


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def assert_matches_highs(linprog, problem, sol):
    c, a_ub, b_ub = problem
    blocks = {}
    if np.size(a_ub):
        blocks.update(A_ub=a_ub, b_ub=b_ub)
    ref = linprog(c, bounds=(0, None), method="highs", **blocks)
    assert sol.status == HIGHS_STATUS.get(ref.status, ref.message)
    if sol.status == OPTIMAL:
        assert abs(sol.value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), (sol.value, ref.fun)
        assert max(sol.primal_residual, sol.dual_residual, sol.duality_gap) <= FEAS_TOL
    else:
        assert sol.primal_residual is sol.dual_residual is sol.duality_gap is None


@pytest.mark.parametrize(
    "grid, t", [pytest.param(grid, t, id=name) for name, grid, t in degenerate_delivery_grids()]
)
def test_degenerate_delivery_lps_match_highs(linprog, grid, t):
    problem = build_delivery_lp(validate_stats(grid), t)
    assert_matches_highs(linprog, problem, solve_lp(*problem))


def test_delivery_lps_match_highs(linprog):
    rng = np.random.default_rng(808)
    for users, t in ((3, 1), (4, 2), (5, 2), (6, 3), (7, 2), (8, 4)):
        stats = random_stats(rng, users, int(rng.integers(2, 6)))
        problem = build_delivery_lp(stats, t)
        assert_matches_highs(linprog, problem, solve_lp(*problem))


def test_ordering_lps_match_highs(linprog):
    rng = np.random.default_rng(57)
    for users in (5, 6, 7):
        stats = random_stats(rng, users, 4)
        for t in (1, users // 2, users - 1):
            tup = caching_tuple(central_strategy(users, Fraction(t, users)))
            orderings = [tuple(int(k) + 1 for k in rng.permutation(users)) for _ in range(12)]
            problems = [build_permutation_lp(stats, tup, pi) for pi in orderings]
            for problem, sol in zip(problems, solve_stacked(problems)):
                assert_matches_highs(linprog, problem, sol)


def test_small_lps_match_highs(linprog):
    rng = np.random.default_rng(4242)
    problems = [random_bounded_lp(rng) for _ in range(30)] + [
        (np.array([-1.0, 0.0]), np.array([[-1.0, 1.0]]), np.zeros(1)),
        (np.array([-1.0, 0.0]), np.array([[1e-15, -1.0], [3e-16, -1.0]]), np.ones(2)),
        BEALE,
    ]
    for problem, sol in zip(problems, solve_stacked(problems)):
        assert_matches_highs(linprog, problem, sol)
