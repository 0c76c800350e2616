"""Dense linear programming: two-phase tableau simplex plus a vertex oracle.

Problems are stated as

    minimize c.x  subject to  a_ub.x <= b_ub,  a_eq.x = b_eq,  x >= 0.

solve_lp runs a two-phase primal simplex on a dense tableau with Bland's
smallest-index rule throughout, so it cannot cycle.  FEAS_TOL is the single
feasibility/optimality tolerance and PIVOT_TOL the smallest pivot magnitude
accepted; a candidate pivot column whose only positive entries are below
PIVOT_TOL raises NumericalFailure rather than risking a garbage basis.

The simplex loops are numpy calls that make the same decisions and the
same floating-point operations as plain row-by-row loops, so the pivot path
and every byte of x, the value and the duals are the loops' own.  Bland's
entering index is the first True of a candidate mask; the ratio test walks
the eligible rows in row order with its sequential tie rule; and each pivot
is an in-place rank-1 update over blocks of PIVOT_BLOCK_ROWS rows (_pivot),
so no temporary is larger than one block.

enumerate_vertices is an independent brute-force check for tiny problems:
it visits every choice of n active constraints, keeps the feasible basic
points, and minimizes over them.  It shares none of the simplex machinery,
so the two routes can disagree only if one is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Optional, Sequence

import numpy as np

from .errors import LengthMismatch, NumericalFailure, TooLarge

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_ITERATIONS = 100_000
MAX_ORACLE_VARS = 6
# Rows per _pivot block: enough to amortise numpy's per-call cost, few enough
# that a block's update (64 rows x 1140 columns at K=9, t=4) stays in cache.
PIVOT_BLOCK_ROWS = 64

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x/value/duals are None unless status == "optimal".

    Dual convention: value == dual_ub.b_ub + dual_eq.b_eq with dual_ub <= 0.
    phase1_pivots counts the phase-1 simplex pivots plus the pivots that
    drive leftover artificials out of the basis; phase2_pivots counts the
    pivots on the true objective.
    """

    status: str
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_ub: Optional[np.ndarray]
    dual_eq: Optional[np.ndarray]
    phase1_pivots: int = 0
    phase2_pivots: int = 0


def lp_problem(
    c: Sequence[float],
    a_ub: Optional[Sequence[Sequence[float]]] = None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq: Optional[Sequence[Sequence[float]]] = None,
    b_eq: Optional[Sequence[float]] = None,
) -> LpProblem:
    """Assemble and shape-check an LpProblem; missing blocks become empty."""
    c = np.asarray(c, dtype=float)
    n = c.size

    def matrix(block, name: str) -> np.ndarray:
        if block is None:
            return np.zeros((0, n))
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.size == 0:
            return np.zeros((0, n))
        if block.ndim != 2 or block.shape[1] != n:
            raise LengthMismatch(f"{name} must have {n} columns, got shape {block.shape}")
        return block

    a_ub = matrix(a_ub, "a_ub")
    a_eq = matrix(a_eq, "a_eq")
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)
    if a_ub.shape[0] != b_ub.size:
        raise LengthMismatch("a_ub and b_ub row counts differ")
    if a_eq.shape[0] != b_eq.size:
        raise LengthMismatch("a_eq and b_eq row counts differ")
    return LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan step on (row, col), one block of PIVOT_BLOCK_ROWS rows at a time.

    Each other row r with a nonzero entry f_r in the pivot column becomes
    row_r - f_r * pivot_row, the same products and differences a row-by-row
    loop forms, so the result is bit for bit that loop's.  Rows with
    f_r == 0 are masked out, which also keeps the sign of their zero
    entries, and blocks without any other row are skipped.
    """
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    touched = factors != 0.0
    for start in range(0, tableau.shape[0], PIVOT_BLOCK_ROWS):
        stop = start + PIVOT_BLOCK_ROWS
        mask = touched[start:stop]
        count = np.count_nonzero(mask)
        if count:
            block = tableau[start:stop]
            update = np.multiply.outer(factors[start:stop], pivot_row)
            rows = True if count == mask.size else mask[:, None]
            np.subtract(block, update, out=block, where=rows)
    basis[row] = col


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    costs: np.ndarray,
    allowed: np.ndarray,
) -> tuple[str, int]:
    """Bland-rule iterations on [A | rhs]; returns the status and the pivot count.

    The status is "optimal" or "unbounded".  Entering: the smallest allowed
    nonbasic index with reduced cost below -FEAS_TOL.  Leaving: rows with a
    column entry above PIVOT_TOL, visited in row order; a ratio more than
    PIVOT_TOL below the best so far replaces it, and one within PIVOT_TOL of
    it replaces it when its basic index is smaller.
    """
    body, rhs = tableau[:, : costs.size], tableau[:, -1]
    for pivots in range(MAX_ITERATIONS):
        reduced = costs - costs[basis] @ body
        improving = allowed & (reduced < -FEAS_TOL)
        improving[basis] = False
        first = improving.nonzero()[0][:1]
        if not first.size:
            return OPTIMAL, pivots
        entering = int(first[0])
        column = tableau[:, entering]
        rows = (column > PIVOT_TOL).nonzero()[0]
        ratios = (rhs[rows] / column[rows]).tolist()
        best_ratio = inf
        leaving, leaving_basic = -1, -1
        for r, ratio, basic in zip(rows.tolist(), ratios, basis[rows].tolist()):
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL
                and (leaving < 0 or basic < leaving_basic)
            ):
                best_ratio = ratio
                leaving, leaving_basic = r, basic
        if leaving < 0:
            if np.any(column > 0.0):
                raise NumericalFailure(
                    f"all candidate pivots below {PIVOT_TOL} in column {entering}"
                )
            return UNBOUNDED, pivots
        _pivot(tableau, basis, leaving, entering)
    raise NumericalFailure(f"simplex did not converge in {MAX_ITERATIONS} iterations")


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex; statuses: optimal, infeasible, unbounded."""
    n = problem.num_vars
    m_ub, m_eq = problem.a_ub.shape[0], problem.a_eq.shape[0]
    m = m_ub + m_eq
    structural = n + m_ub

    rhs = np.concatenate([problem.b_ub, problem.b_eq]).astype(float)
    flipped = rhs < 0.0
    # Rows whose slack column survives the flip as +1 start basic on it;
    # every other row (equalities, flipped inequalities) gets an artificial.
    art_rows = np.flatnonzero((np.arange(m) >= m_ub) | flipped)
    num_art = art_rows.size
    num_cols = structural + num_art

    tableau = np.zeros((m, num_cols + 1))
    tableau[:m_ub, :n] = problem.a_ub
    tableau[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    tableau[m_ub:, :n] = problem.a_eq
    tableau[flipped, :structural] *= -1.0
    rhs[flipped] *= -1.0
    tableau[:, -1] = rhs

    basis = n + np.arange(m)
    basis[art_rows] = structural + np.arange(num_art)
    tableau[art_rows, basis[art_rows]] = 1.0
    identity_col = basis.copy()

    allowed = np.ones(num_cols, dtype=bool)
    row_origin = np.arange(m)
    phase1_pivots = 0
    if num_art:
        phase1 = np.zeros(num_cols)
        phase1[structural:] = 1.0
        status, phase1_pivots = _run_simplex(tableau, basis, phase1, allowed)
        if status != OPTIMAL:
            raise NumericalFailure("phase 1 reported unbounded")
        if phase1[basis] @ tableau[:, -1] > FEAS_TOL:
            return LpSolution(INFEASIBLE, None, None, None, None, phase1_pivots, 0)
        # Drive leftover artificials out of the basis or drop their rows.
        keep = np.ones(m, dtype=bool)
        for r in np.flatnonzero(basis >= structural).tolist():
            nonzero = np.flatnonzero(np.abs(tableau[r, :structural]) > PIVOT_TOL)
            if nonzero.size:
                _pivot(tableau, basis, r, int(nonzero[0]))
                phase1_pivots += 1
            else:
                keep[r] = False  # redundant constraint row
        if not np.all(keep):
            tableau = tableau[keep]
            basis = basis[keep]
            identity_col = identity_col[keep]
            row_origin = row_origin[keep]
        allowed[structural:] = False

    costs = np.zeros(num_cols)
    costs[:n] = problem.c
    status, phase2_pivots = _run_simplex(tableau, basis, costs, allowed)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None, None, phase1_pivots, phase2_pivots)

    x = np.zeros(num_cols)
    x[basis] = tableau[:, -1]
    x = x[:n]
    value = float(problem.c @ x)

    violation = np.concatenate([
        -x,
        problem.a_ub @ x - problem.b_ub,
        np.abs(problem.a_eq @ x - problem.b_eq),
    ])
    if np.any(violation > FEAS_TOL):
        raise NumericalFailure(
            "optimal basis fails feasibility recheck"
            f" (largest violation {np.nanmax(violation):.3g})"
        )

    # Duals of the original rows: c_B.Binv read off the columns that began
    # as the identity, then undo row flips.  Dropped rows keep dual zero.
    y_tab = costs[basis] @ tableau[:, identity_col]
    duals = np.zeros(m)
    duals[row_origin] = y_tab
    duals[flipped] *= -1.0
    return LpSolution(
        status=OPTIMAL,
        x=x,
        value=value,
        dual_ub=duals[:m_ub],
        dual_eq=duals[m_ub:],
        phase1_pivots=phase1_pivots,
        phase2_pivots=phase2_pivots,
    )


def enumerate_vertices(problem: LpProblem) -> LpSolution:
    """Brute-force oracle: minimize over all feasible basic points.

    Only for problems with at most MAX_ORACLE_VARS variables and a bounded
    feasible region (add box rows if needed).  Every size-n active set drawn
    from {inequality rows, nonnegativity bounds} plus all equality rows is
    solved and checked against the full constraint list.
    """
    n = problem.num_vars
    if n > MAX_ORACLE_VARS:
        raise TooLarge(f"vertex oracle limited to {MAX_ORACLE_VARS} variables")

    rows: list[np.ndarray] = [problem.a_ub[i] for i in range(problem.a_ub.shape[0])]
    rows += [-np.eye(n)[j] for j in range(n)]
    offsets = list(problem.b_ub) + [0.0] * n

    eq_a, eq_b = problem.a_eq, problem.b_eq
    free = max(0, n - eq_a.shape[0])
    best_x, best_value = None, np.inf

    def feasible(x: np.ndarray) -> bool:
        if np.any(x < -FEAS_TOL):
            return False
        if problem.a_ub.size and np.any(problem.a_ub @ x - problem.b_ub > FEAS_TOL):
            return False
        if eq_a.size and np.any(np.abs(eq_a @ x - eq_b) > FEAS_TOL):
            return False
        return True

    for active in combinations(range(len(rows)), free):
        a = np.vstack([eq_a] + [rows[i][None, :] for i in active])
        b = np.concatenate([eq_b, np.array([offsets[i] for i in active])])
        if a.shape[0] == n:
            try:
                x = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                continue
        else:
            x, *_ = np.linalg.lstsq(a, b, rcond=None)
        if not np.all(np.isfinite(x)) or not feasible(x):
            continue
        value = float(problem.c @ x)
        if value < best_value:
            best_value, best_x = value, x
    if best_x is None:
        return LpSolution(INFEASIBLE, None, None, None, None)
    return LpSolution(OPTIMAL, best_x, best_value, None, None)
