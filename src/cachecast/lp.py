"""Dense linear programming: two-phase tableau simplex plus a vertex oracle.

Problems are stated as

    minimize c.x  subject to  a_ub.x <= b_ub,  a_eq.x = b_eq,  x >= 0.

solve_lp runs a two-phase primal simplex on a dense tableau.  FEAS_TOL is
the single feasibility/optimality tolerance and PIVOT_TOL the smallest
pivot magnitude accepted.  The entering column is Bland's smallest index
with a negative reduced cost.  The leaving row is taken among the rows
whose ratio is within PIVOT_TOL of the minimum: the one with the largest
column entry, then the smallest basic index.  The LPs solved here are
highly degenerate (every ratio of a per-ordering LP is 0), and breaking
those ties by index alone pivots on entries as small as PIVOT_TOL itself,
which wrecks the basis.  An entering column with no entry above PIVOT_TOL
is a ray, so the LP is unbounded.  The largest-entry rule gives up
Bland's guarantee against cycling, so each LP keeps a guard: after
DEGENERATE_RUN consecutive pivots whose minimum ratio is 0 (within
PIVOT_TOL), it breaks ties by the smallest basic index alone, Bland's full
rule, until a pivot moves its objective.

After phase 2 every optimal LP is certified against its original rows:
x is read off the basis and the duals y are c_B.Binv, read off the
columns that began as the identity.  The primal residual (largest
violation of the constraints and of x >= 0), the dual residual (largest
violation of c - a^T y >= 0 and y_ub <= 0) and the gap |c.x - b.y| must
each be within FEAS_TOL (the gap relative to 1 + |c.x|), or the LP's
outcome is a NumericalFailure naming the residual.  LpSolution carries
the three values.

One simplex core runs on a stack of same-shape tableaux, shape (L, m, N+1),
in lockstep; solve_lp is the stack of one and solve_lps solves many LPs at
once, grouped by shape and cut into stacks of at most STACK_ENTRIES
tableau entries.  Each iteration prices every running LP with one
np.matmul, picks each LP's entering column and leaving row with vector
operations, and pivots with an in-place rank-1 update over blocks of
PIVOT_BLOCK_ROWS rows of every LP at once (_pivot).  The certificate is
one batched np.matmul per stack too.  An LP that finishes (optimal,
unbounded or failed) leaves the stack; a NumericalFailure is that LP's
outcome alone.  The numpy calls make the same floating-point operations
on each LP whatever the stack holds, so the pivot path and every byte of
x, the value, the duals and the certificate are the same whether an LP
is solved alone or in a stack.

enumerate_vertices is an independent brute-force check for tiny problems:
it visits every choice of n active constraints, keeps the feasible basic
points, and minimizes over them.  It shares none of the simplex machinery,
so the two routes can disagree only if one is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Optional, Sequence, Union

import numpy as np

from .errors import LengthMismatch, NumericalFailure, TooLarge

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_ITERATIONS = 100_000
# Consecutive degenerate pivots after which an LP falls back to Bland's
# leaving rule until its objective moves (the anti-cycling guard).
DEGENERATE_RUN = 50
MAX_ORACLE_VARS = 6
# Rows per _pivot block: enough to amortise numpy's per-call cost, few enough
# that a block's update (64 rows x 1140 columns at K=9, t=4) stays in cache.
PIVOT_BLOCK_ROWS = 64
# Tableau entries per lockstep stack: 31 per-ordering LPs at K=6, B=4
# (32 x 43 each), where stacking pays; one delivery LP exceeds it alone.
STACK_ENTRIES = 43_000

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
    pivots on the true objective.  An optimal solution carries its
    certificate: primal_residual, dual_residual and duality_gap (see the
    module docstring); they are None otherwise.
    """

    status: str
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_ub: Optional[np.ndarray]
    dual_eq: Optional[np.ndarray]
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    primal_residual: Optional[float] = None
    dual_residual: Optional[float] = None
    duality_gap: Optional[float] = None


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


def _pivot(tableau: np.ndarray, basis: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Gauss-Jordan step on (rows[i], cols[i]) of every tableau i of the stack.

    The update runs over blocks of PIVOT_BLOCK_ROWS rows of all tableaux at
    once.  Each other row r with a nonzero entry f_r in its pivot column
    becomes row_r - f_r * pivot_row, the same products and differences a
    row-by-row loop forms, so the result is bit for bit that loop's.  Rows
    with f_r == 0 are masked out, which also keeps the sign of their zero
    entries, and blocks without any such row are skipped.
    """
    lps = np.arange(tableau.shape[0])
    pivot_rows = tableau[lps, rows]
    pivot_rows /= pivot_rows[lps, cols][:, None]
    tableau[lps, rows] = pivot_rows
    factors = tableau[lps, :, cols]
    factors[lps, rows] = 0.0
    touched = factors != 0.0
    for start in range(0, tableau.shape[1], PIVOT_BLOCK_ROWS):
        stop = start + PIVOT_BLOCK_ROWS
        mask = touched[:, start:stop]
        count = np.count_nonzero(mask)
        if count:
            block = tableau[:, start:stop]
            update = factors[:, start:stop, None] * pivot_rows[:, None, :]
            where = True if count == mask.size else mask[:, :, None]
            np.subtract(block, update, out=block, where=where)
    basis[lps, rows] = cols


def _simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    costs: np.ndarray,
    allowed: np.ndarray,
) -> tuple[list, list[int]]:
    """Primal simplex iterations on a stack of [A | rhs] tableaux in lockstep.

    Returns each LP's outcome (OPTIMAL, UNBOUNDED or a NumericalFailure)
    and pivot count; tableau and basis hold each LP's final state.
    Entering: the smallest allowed nonbasic index with reduced cost below
    -FEAS_TOL (Bland).  Leaving: among the rows with a column entry above
    PIVOT_TOL, those whose ratio is within PIVOT_TOL of the minimum; of
    these the row with the largest column entry, then the smallest basic
    index.  An entering column with no entry above PIVOT_TOL is a ray:
    the LP is unbounded.  Anti-cycling guard: after DEGENERATE_RUN
    consecutive pivots whose minimum ratio is 0 (within PIVOT_TOL), an LP
    takes the smallest basic index among the tied rows instead, Bland's
    full rule, until a pivot moves its objective.  An LP that stops
    leaves the running stack, which is compacted, so the others run on
    unchanged.
    """
    size, _, width = tableau.shape
    outcomes: list = [OPTIMAL] * size
    pivots = [0] * size
    if width == 1:  # no columns: every LP is optimal at once
        return outcomes, pivots
    live = lps = np.arange(size)
    offsets = lps[:, None] * (width - 1)  # of each LP's row in the flattened costs
    calm = np.zeros(size, dtype=int)  # per LP: the iteration after its last nondegenerate pivot
    tab, bas, cst = tableau, basis, costs
    for it in range(MAX_ITERATIONS):
        basic = bas + offsets
        priced = np.matmul(cst.take(basic)[:, None, :], tab[:, :, :-1])
        improving = allowed & (cst - priced[:, 0, :] < -FEAS_TOL)
        improving.reshape(-1)[basic] = False
        entering = improving.argmax(axis=1)
        column = tab[lps, :, entering]
        eligible = column > PIVOT_TOL
        found = improving[lps, entering]
        go = found & eligible.any(axis=1)
        if not go.all():
            stops = ~go
            for j in np.flatnonzero(stops).tolist():
                i = int(live[j])
                pivots[i] = it
                outcomes[i] = UNBOUNDED if found[j] else OPTIMAL
            if tab is not tableau:
                tableau[live[stops]], basis[live[stops]] = tab[stops], bas[stops]
            if not go.any():
                return outcomes, pivots
            tab, bas, cst, live, calm = tab[go], bas[go], cst[go], live[go], calm[go]
            entering, column, eligible = entering[go], column[go], eligible[go]
            lps = np.arange(live.size)
            offsets = lps[:, None] * (width - 1)
        ratios = np.divide(tab[:, :, -1], column, out=np.full(column.shape, inf), where=eligible)
        # argmin/argmax and a gather cost less than min/max reductions.
        least = ratios[lps, ratios.argmin(axis=1)]
        near = ratios <= (least + PIVOT_TOL)[:, None]
        entries = column * near  # the tied rows' entries, all > PIVOT_TOL; 0 elsewhere
        pick = entries == entries[lps, entries.argmax(axis=1)][:, None]
        if it - calm[calm.argmin()] >= DEGENERATE_RUN:  # some LP is on a degenerate run
            pick |= near & (it - calm >= DEGENERATE_RUN)[:, None]
        leaving = np.where(pick, bas, width).argmin(axis=1)
        calm[least > PIVOT_TOL] = it + 1
        _pivot(tab, bas, leaving, entering)
    for i in live.tolist():
        outcomes[i] = NumericalFailure(f"simplex did not converge in {MAX_ITERATIONS} iterations")
        pivots[i] = MAX_ITERATIONS
    if tab is not tableau:
        tableau[live], basis[live] = tab, bas
    return outcomes, pivots


def _solve_stack(problems: Sequence[LpProblem]) -> list:
    """Two-phase simplex on problems of one shape, in lockstep.

    Shape means n, m_ub, m_eq and the inequality rows with b_ub < 0, which
    together fix the tableau's columns.  Returns each problem's LpSolution
    or NumericalFailure.  Rows dropped as redundant after phase 1 are
    deleted, and the LPs with the same number of rows left run phase 2 as
    one stack: a zero-cost row left in place would change how BLAS groups
    the sums of the reduced costs, and with them their last bits.
    """
    first = problems[0]
    size = len(problems)
    n = first.num_vars
    m_ub, m_eq = first.a_ub.shape[0], first.a_eq.shape[0]
    m = m_ub + m_eq
    structural = n + m_ub

    rhs = np.array([np.concatenate([p.b_ub, p.b_eq]) for p in problems], dtype=float).reshape(size, m)
    flipped = rhs < 0.0
    # Rows whose slack column survives the flip as +1 start basic on it;
    # every other row (equalities, flipped inequalities) gets an artificial.
    art_rows = np.flatnonzero((np.arange(m) >= m_ub) | flipped[0])
    num_art = art_rows.size
    num_cols = structural + num_art

    tableau = np.zeros((size, m, num_cols + 1))
    for i, p in enumerate(problems):
        tableau[i, :m_ub, :n] = p.a_ub
        tableau[i, m_ub:, :n] = p.a_eq
    a, b = tableau[:, :, :n].copy(), rhs.copy()  # the original rows, for the certificate
    tableau[:, np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    tableau[flipped, :structural] *= -1.0
    rhs[flipped] *= -1.0
    tableau[:, :, -1] = rhs

    identity_col = n + np.arange(m)
    identity_col[art_rows] = structural + np.arange(num_art)
    tableau[:, art_rows, identity_col[art_rows]] = 1.0
    basis = np.tile(identity_col, (size, 1))

    outcomes: list = [None] * size
    phase1_pivots = [0] * size
    keep = np.ones((size, m), dtype=bool)
    allowed = np.ones(num_cols, dtype=bool)
    if num_art:
        phase1 = np.zeros(num_cols)
        phase1[structural:] = 1.0
        status, phase1_pivots = _simplex(tableau, basis, np.tile(phase1, (size, 1)), allowed)
        for i, outcome in enumerate(status):
            if isinstance(outcome, NumericalFailure):
                outcomes[i] = outcome
            elif outcome == UNBOUNDED:
                outcomes[i] = NumericalFailure("phase 1 reported unbounded")
            elif phase1[basis[i]] @ tableau[i, :, -1] > FEAS_TOL:
                outcomes[i] = LpSolution(INFEASIBLE, None, None, None, None, phase1_pivots[i], 0)
        # Drive leftover artificials out of the basis or drop their rows,
        # the j-th leftover row of every LP at a time.
        running = np.array([outcome is None for outcome in outcomes])
        leftover = running[:, None] & (basis >= structural)
        rank = np.cumsum(leftover, axis=1)
        for j in range(1, int(rank[:, -1].max()) + 1):
            lps, rows = np.nonzero(leftover & (rank == j))
            hits = np.abs(tableau[lps, rows, :structural]) > PIVOT_TOL
            found = hits.any(axis=1)
            keep[lps[~found], rows[~found]] = False  # redundant constraint rows
            lps, rows, cols = lps[found], rows[found], hits[found].argmax(axis=1)
            if lps.size == size:  # every LP pivots: in place
                _pivot(tableau, basis, rows, cols)
            elif lps.size:
                stack, stack_basis = tableau[lps], basis[lps]
                _pivot(stack, stack_basis, rows, cols)
                tableau[lps], basis[lps] = stack, stack_basis
            for i in lps.tolist():
                phase1_pivots[i] += 1
        allowed[structural:] = False

    costs = np.zeros((size, num_cols))
    costs[:, :n] = [p.c for p in problems]
    running = np.array([outcome is None for outcome in outcomes])
    rows_left = keep.sum(axis=1)
    for count in sorted(set(rows_left[running].tolist())):
        lps = np.flatnonzero(running & (rows_left == count))
        row_origin = np.nonzero(keep[lps])[1].reshape(lps.size, count)
        if lps.size == size and count == m:
            stack, stack_basis, rows = tableau, basis, (a, b)  # nothing to leave out
        else:
            stack = tableau[lps[:, None], row_origin]
            stack_basis = basis[lps[:, None], row_origin]
            rows = a[lps], b[lps]
        status, phase2_pivots = _simplex(stack, stack_basis, costs[lps], allowed)
        finished = _finish(
            status, stack, stack_basis, costs[lps], identity_col[row_origin], row_origin,
            flipped[lps], *rows, m_ub, [phase1_pivots[i] for i in lps], phase2_pivots,
        )
        for i, outcome in zip(lps.tolist(), finished):
            outcomes[i] = outcome
    return outcomes


def _certificate(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray, y: np.ndarray, m_ub: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value and optimality certificate of a stack of primal-dual pairs.

    a (L, m, n), b (L, m) and c (L, n) are the original rows (inequalities
    first, m_ub of them), x (L, n) and y (L, m) the primal and dual points.
    Returns c.x and, per LP, the primal residual (largest violation of
    x >= 0, a_ub.x <= b_ub and a_eq.x = b_eq), the dual residual (largest
    violation of c - a^T y >= 0 and y_ub <= 0) and the gap |c.x - b.y|,
    each from one batched np.matmul over the stack.
    """
    slack = np.matmul(a, x[:, :, None])[:, :, 0] - b
    slack[:, m_ub:] = np.abs(slack[:, m_ub:])
    primal = np.maximum(slack.max(axis=1, initial=0.0), (-x).max(axis=1, initial=0.0))
    reduced = c - np.matmul(y[:, None, :], a)[:, 0, :]
    dual = np.maximum((-reduced).max(axis=1, initial=0.0), y[:, :m_ub].max(axis=1, initial=0.0))
    value = np.matmul(c[:, None, :], x[:, :, None])[:, 0, 0]
    gap = np.abs(value - np.matmul(b[:, None, :], y[:, :, None])[:, 0, 0])
    return value, primal, dual, gap


def _finish(
    status: list,
    tableau: np.ndarray,
    basis: np.ndarray,
    costs: np.ndarray,
    dual_cols: np.ndarray,
    row_origin: np.ndarray,
    flipped: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    m_ub: int,
    phase1_pivots: list[int],
    phase2_pivots: list[int],
) -> list:
    """Each LP's phase-2 outcome in a stack: LpSolution or NumericalFailure.

    x is read off the basis; the duals of the original rows are c_B.Binv,
    read off the columns that began as the identity (dual_cols), with row
    flips undone and dropped rows at dual zero.  An optimal LP must pass
    the certificate against its original rows: primal and dual residuals
    within FEAS_TOL and a gap within FEAS_TOL (1 + |c.x|).
    """
    size, _, width = tableau.shape
    n = a.shape[2]
    lps = np.arange(size)[:, None]
    point = np.zeros((size, width - 1))
    point[lps, basis] = tableau[:, :, -1]
    x = point[:, :n].copy()
    priced = np.matmul(costs[lps, basis][:, None, :], tableau[:, :, :-1])[:, 0, :]
    y = np.zeros(flipped.shape)
    y[lps, row_origin] = priced[lps, dual_cols]
    y[flipped] *= -1.0
    value, primal, dual, gap = _certificate(a, b, costs[:, :n], x, y, m_ub)

    outcomes: list = []
    certificates = zip(value.tolist(), primal.tolist(), dual.tolist(), gap.tolist())
    for j, (outcome, (v, p, d, g)) in enumerate(zip(status, certificates)):
        pivots = {"phase1_pivots": phase1_pivots[j], "phase2_pivots": phase2_pivots[j]}
        if outcome == OPTIMAL:
            if not p <= FEAS_TOL:
                outcome = NumericalFailure(f"optimal basis fails feasibility recheck (largest violation {p:.3g})")
            elif not d <= FEAS_TOL:
                outcome = NumericalFailure(f"optimal basis fails dual feasibility check (dual residual {d:.3g})")
            elif not g <= FEAS_TOL * (1.0 + abs(v)):
                outcome = NumericalFailure(f"optimal basis fails duality-gap check (gap {g:.3g})")
            else:
                outcome = LpSolution(
                    OPTIMAL, x[j], v, y[j, :m_ub], y[j, m_ub:],
                    primal_residual=p, dual_residual=d, duality_gap=g, **pivots,
                )
        elif outcome == UNBOUNDED:
            outcome = LpSolution(UNBOUNDED, None, None, None, None, **pivots)
        outcomes.append(outcome)
    return outcomes


def solve_lps(problems: Sequence[LpProblem]) -> list[Union[LpSolution, NumericalFailure]]:
    """solve_lp on every problem, in stacks; a NumericalFailure is returned, not raised.

    Problems are grouped by shape (n, m_ub, m_eq and which b_ub entries
    are negative), each group is cut into stacks of at most STACK_ENTRIES
    tableau entries, and each stack runs in lockstep.  Every outcome is
    bit for bit the one solve_lp gives on that problem alone, and one LP's
    failure leaves the others in its stack unchanged.
    """
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        key = (p.num_vars, p.a_ub.shape[0], p.a_eq.shape[0], (p.b_ub < 0.0).tobytes())
        groups.setdefault(key, []).append(i)
    outcomes: list = [None] * len(problems)
    for members in groups.values():
        p = problems[members[0]]
        m_ub, m_eq = p.a_ub.shape[0], p.a_eq.shape[0]
        width = p.num_vars + m_ub + m_eq + int(np.count_nonzero(p.b_ub < 0.0)) + 1
        cap = max(1, STACK_ENTRIES // max(1, (m_ub + m_eq) * width))
        for start in range(0, len(members), cap):
            chunk = members[start:start + cap]
            for i, outcome in zip(chunk, _solve_stack([problems[i] for i in chunk])):
                outcomes[i] = outcome
    return outcomes


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex; statuses: optimal, infeasible, unbounded."""
    (outcome,) = solve_lps([problem])
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


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
