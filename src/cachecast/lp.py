"""Dense linear programming: one-phase tableau simplex plus a vertex oracle.

Problems are stated as

    minimize c.x  subject to  a_ub.x <= b_ub,  x >= 0,  with b_ub >= 0.

x = 0 is then feasible, so the simplex starts from the slack basis and
needs no phase 1; solve_lps rejects a negative b_ub entry.  Every LP of
the package has this form: the delivery LP's subset and master LPs and
its dense oracle, the chain LP, and the per-ordering LP of the upper
bound (which keeps its normalisation in a budget row, see upper_bound).

solve_lp runs the primal simplex on a condensed (Tucker) tableau: the
variables are labelled 0..n-1 (the columns of a_ub) and n..n+m-1 (the
slacks), and only the n nonbasic variables' columns are stored, since a
basic variable's column is a unit vector.  FEAS_TOL is the single
feasibility/optimality tolerance and PIVOT_TOL the smallest pivot
magnitude accepted.  The entering variable is Bland's smallest label with
a negative reduced cost.  The leaving row is taken among the rows whose
ratio is within PIVOT_TOL of the minimum: the one with the largest column
entry, then the smallest basic label.  The LPs solved here are highly
degenerate (every ratio of a per-ordering LP is 0 until the budget row
leaves), and breaking those ties by label alone pivots on entries as
small as PIVOT_TOL itself, which wrecks the basis.  An entering column
with no entry above PIVOT_TOL is a ray, so the LP is unbounded.  The
largest-entry rule gives up Bland's guarantee against cycling, so each LP
keeps a guard: after DEGENERATE_RUN consecutive pivots whose minimum
ratio is 0 (within PIVOT_TOL), it breaks ties by the smallest basic label
alone, Bland's full rule, until a pivot moves its objective.

A pivot swaps the entering and leaving labels between basis and nonbasic,
writes the leaving variable's unit column e_r into the entering
variable's slot, and then runs the full tableau's Gauss-Jordan update on
the stored columns (_pivot).  Every stored entry therefore gets the same
floating-point operations it gets in the full [a_ub | I | b_ub] tableau.
Pricing is a product over the stored columns alone, and BLAS may sum a
column's products in another order at another position, so a reduced
cost or dual can differ from the full tableau's in its last bits.

Every optimal LP is certified against its original rows: x is read off
the basis and the duals y are c_B.Binv.  Column j of Binv is slack j's
column of the full tableau: its stored column where slack j is nonbasic,
whose final pricing gives y_j, and a unit column where slack j is basic,
which gives y_j = 0.  The primal residual (largest violation of
a_ub.x <= b_ub and of x >= 0), the dual residual (largest violation of
c - a_ub^T y >= 0 and y <= 0) and the gap |c.x - b_ub.y| must each be
within FEAS_TOL (the gap relative to 1 + |c.x|), or the LP's outcome is a
NumericalFailure naming the residual.  LpSolution carries the three
values.

One simplex core runs on a stack of same-shape tableaux, shape
(L, m, n+1): the n nonbasic columns, then the rhs, with the labels in
basis (L, m) and nonbasic (L, n).  solve_lps takes the LPs as arrays of
one shape, c (L, n), a_ub (L, m, n) and b_ub (L, m), and cuts them into
slices of stack_size(m, n) LPs, at most STACK_ENTRIES tableau entries
each; solve_lp is the stack of one.  Each iteration prices every running
LP with one np.matmul, picks each LP's entering column and leaving row
with vector operations, and pivots with an in-place rank-1 update over
blocks of PIVOT_BLOCK_ROWS rows of every LP at once (_pivot).  The
certificate is one batched np.matmul per stack too, and solve_lps returns
the stack's outcomes as arrays (StackSolution), which yield each LP's
LpSolution when indexed.  An LP that finishes (optimal, unbounded or
failed) has its final state saved and is frozen where it stands: its
later pivots are finite no-ops, with divisor 1 and factors 0, that touch
no saved state.  The running stack is compacted to the LPs still running
only once at least half of it has stopped, since a compaction copies
every array of the stack.  A NumericalFailure is that LP's outcome alone.
The numpy calls make the same floating-point operations on each LP
whatever the stack holds, frozen LPs included, so the pivot path and
every byte of x, the value, the duals and the certificate are the same
whether an LP is solved alone or in a stack.

GrowingLp holds one LP whose columns arrive one at a time (the delivery
LP's cutting-plane master).  Its tableau, costs, labels and original
columns live in buffers that double in capacity when full, so a new
column is one write into each.  Each new column enters the tableau as
Binv.a, one m x m product, and is pivoted in by the same ratio test; the
same simplex resumes from there, not from the slack basis, and each solve
carries the same certificate.

enumerate_vertices is an independent brute-force check for tiny problems:
it visits every choice of n active constraints, keeps the feasible basic
points, and minimizes over them.  It shares none of the simplex machinery,
so the two routes can disagree only if one is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from math import inf
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import LengthMismatch, NumericalFailure, OutOfRange, TooLarge

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_ITERATIONS = 100_000
# Consecutive degenerate pivots after which an LP falls back to Bland's
# leaving rule until its objective moves (the anti-cycling guard).
DEGENERATE_RUN = 50
MAX_ORACLE_VARS = 6
# Rows per _pivot block: enough to amortise numpy's per-call cost, few enough
# that a block's update stays in cache.  The commands' LPs have B rows (the
# delivery LP's subset and master LPs), K+B (the chain LP) or p*B+p (the
# per-ordering LP of live count p <= K <= 8: 40 rows at K=8, B=4 and 72 at
# K=8, B=8), so most fit one block; a per-ordering LP of more than 64 rows
# (B >= 8 at p = 8) and the dense delivery LPs the tests solve span several.
PIVOT_BLOCK_ROWS = 64
# Tableau entries per lockstep stack: 172 per-ordering LPs of live count 5
# at B=4 (K=6, mu=1/6: 25 x 10 each), where stacking pays.
STACK_ENTRIES = 43_000
# Columns a GrowingLp holds before its buffers first double: the delivery
# LPs of the commands take 7 to 60 cuts, one column each.
GROWING_CAPACITY = 8

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x/value/dual_ub are None unless status == "optimal".

    Dual convention: value == dual_ub.b_ub with dual_ub <= 0.  pivots
    counts the simplex pivots.  An optimal solution carries its
    certificate: primal_residual, dual_residual and duality_gap (see the
    module docstring); they are None otherwise.
    """

    status: str
    x: Optional[np.ndarray]
    value: Optional[float]
    dual_ub: Optional[np.ndarray]
    pivots: int = 0
    primal_residual: Optional[float] = None
    dual_residual: Optional[float] = None
    duality_gap: Optional[float] = None


@dataclass
class StackSolution:
    """The outcomes of a stack of L LPs, as arrays over the stack.

    status[i] is OPTIMAL, UNBOUNDED or LP i's NumericalFailure.  x (L, n),
    value (L,), dual_ub (L, m) and the certificate's primal_residual,
    dual_residual and duality_gap (L,) hold LP i's LpSolution fields in
    row i, which means something only where status[i] is OPTIMAL; pivots
    (L,) counts every LP's pivots.  Indexing or iterating yields each LP's
    LpSolution or NumericalFailure, and assigning one to an index replaces
    that LP's outcome.
    """

    status: list
    x: np.ndarray
    value: np.ndarray
    dual_ub: np.ndarray
    pivots: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    duality_gap: np.ndarray

    def __len__(self) -> int:
        return len(self.status)

    def __getitem__(self, i: int) -> Union[LpSolution, NumericalFailure]:
        status = self.status[i]
        if status == OPTIMAL:
            return LpSolution(
                OPTIMAL,
                self.x[i],
                float(self.value[i]),
                self.dual_ub[i],
                int(self.pivots[i]),
                float(self.primal_residual[i]),
                float(self.dual_residual[i]),
                float(self.duality_gap[i]),
            )
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, None, None, None, int(self.pivots[i]))
        return status

    def __iter__(self) -> Iterator[Union[LpSolution, NumericalFailure]]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other: object) -> bool:
        """Equal to a list, tuple or stack of the same outcomes."""
        if not isinstance(other, (list, tuple, StackSolution)):
            return NotImplemented
        return list(self) == list(other)

    def __setitem__(self, i: int, outcome: Union[LpSolution, NumericalFailure]) -> None:
        if isinstance(outcome, LpSolution):
            self.pivots[i] = outcome.pivots
            if outcome.status == OPTIMAL:
                self.x[i], self.value[i], self.dual_ub[i] = outcome.x, outcome.value, outcome.dual_ub
                self.primal_residual[i] = outcome.primal_residual
                self.dual_residual[i] = outcome.dual_residual
                self.duality_gap[i] = outcome.duality_gap
            outcome = outcome.status
        self.status[i] = outcome


def lp_problem(
    c: Sequence[float],
    a_ub: Optional[Sequence[Sequence[float]]] = None,
    b_ub: Optional[Sequence[float]] = None,
) -> LpProblem:
    """Assemble and shape-check an LpProblem; a missing block becomes empty."""
    c = np.asarray(c, dtype=float)
    n = c.size
    if a_ub is None or np.size(a_ub) == 0:
        a_ub = np.zeros((0, n))
    else:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        if a_ub.ndim != 2 or a_ub.shape[1] != n:
            raise LengthMismatch(f"a_ub must have {n} columns, got shape {a_ub.shape}")
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).reshape(-1)
    if a_ub.shape[0] != b_ub.size:
        raise LengthMismatch("a_ub and b_ub row counts differ")
    return LpProblem(c=c, a_ub=a_ub, b_ub=b_ub)


def _check_rhs(b_ub: np.ndarray, label: str = "LP {}: ") -> None:
    """Reject a negative entry of a stack of b_ub rows: the simplex and the oracle start at x = 0."""
    if (b_ub < 0.0).any():
        lp, row = np.argwhere(b_ub < 0.0)[0].tolist()
        raise OutOfRange(f"{label.format(lp)}b_ub[{row}] = {float(b_ub[lp, row])!r} < 0; x = 0 must be feasible")


def _pivot(
    tableau: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    lps: Optional[np.ndarray] = None,
    frozen: Optional[np.ndarray] = None,
) -> None:
    """Pivot slot cols[i] into row rows[i] of every condensed tableau i of the stack.

    The entering variable's column is saved as the factors, and the leaving
    variable's column in the full tableau, the unit vector e_r, is written
    into the freed slot.  Then the full tableau's Gauss-Jordan step runs on
    the stored columns: the pivot row is divided by the pivot, and each
    other row r with a nonzero factor f_r becomes row_r - f_r * pivot_row,
    the same products and differences a row-by-row loop forms.  The update
    runs over blocks of PIVOT_BLOCK_ROWS rows of all tableaux at once.  Rows
    with f_r == 0 are masked out, which also keeps the sign of their zero
    entries, and blocks without any such row are skipped.  Last, the two
    variables swap their labels in basis and nonbasic.

    lps is np.arange(L), from a caller that keeps it.  Where frozen[i] is
    true, tableau i belongs to an LP that has stopped and whose state is
    saved elsewhere: its pivot takes divisor 1 and factors 0, a finite
    no-op on its rows, and only the slot written and the labels change.
    """
    if lps is None:
        lps = np.arange(tableau.shape[0])
    factors = tableau[lps, :, cols]
    divisors = factors[lps, rows]
    if frozen is not None:
        factors[frozen] = 0.0
        divisors[frozen] = 1.0
    tableau[lps, :, cols] = 0.0
    tableau[lps, rows, cols] = 1.0
    pivot_rows = tableau[lps, rows]
    pivot_rows /= divisors[:, None]
    tableau[lps, rows] = pivot_rows
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
    row, slot = rows + lps * basis.shape[1], cols + lps * nonbasic.shape[1]  # flat indices
    left = basis.take(row)
    basis.put(row, nonbasic.take(slot))
    nonbasic.put(slot, left)


def _ratio_test(
    tab: np.ndarray, column: np.ndarray, eligible: np.ndarray, lps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaving rule's ratio test on a stack, for entering columns column (L, m).

    Returns each LP's minimum ratio over its eligible rows, the rows whose
    ratio is within PIVOT_TOL of it, and among those the rows with the
    largest column entry; lps is np.arange(L).
    """
    ratios = np.divide(tab[:, :, -1], column, out=np.full(column.shape, inf), where=eligible)
    # argmin/argmax and a gather cost less than min/max reductions.
    least = ratios[lps, ratios.argmin(axis=1)]
    near = ratios <= (least + PIVOT_TOL)[:, None]
    entries = column * near  # the tied rows' entries, all > PIVOT_TOL; 0 elsewhere
    pick = entries == entries[lps, entries.argmax(axis=1)][:, None]
    return least, near, pick


def _simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    costs: np.ndarray,
) -> tuple[list, np.ndarray]:
    """Primal simplex iterations on a stack of condensed tableaux in lockstep.

    Returns each LP's outcome (OPTIMAL, UNBOUNDED or a NumericalFailure)
    and pivot count; tableau, basis and nonbasic hold each LP's final
    state.  costs (L, n+m) holds each variable's cost by label; the loop
    keeps the basic and nonbasic costs by position and swaps them with
    the labels at each pivot.
    Entering: the smallest nonbasic label with reduced cost below
    -FEAS_TOL (Bland).  Leaving: among the rows with a column entry above
    PIVOT_TOL, those whose ratio is within PIVOT_TOL of the minimum; of
    these the row with the largest column entry, then the smallest basic
    label.  An entering column with no entry above PIVOT_TOL is a ray:
    the LP is unbounded.  Anti-cycling guard: after DEGENERATE_RUN
    consecutive pivots whose minimum ratio is 0 (within PIVOT_TOL), an LP
    takes the smallest basic label among the tied rows instead, Bland's
    full rule, until a pivot moves its objective.

    An LP that stops has its final state saved in tableau, basis and
    nonbasic and is frozen in the running stack: its later pivots are
    finite no-ops (_pivot), so the others run on unchanged.  Before the
    first freeze the running stack moves to a copy, so that the saved
    states stay as they are.  Once at least half of the running stack has
    stopped it is compacted to the LPs still running.
    """
    size, m, width = tableau.shape
    pivots = np.zeros(size, dtype=int)
    rays = np.zeros(size, dtype=bool)  # per LP: stopped on an unbounded ray
    unfinished: list[int] = []  # the LPs still running at MAX_ITERATIONS
    if width == 1 or not size:  # no columns, or no LPs: every LP is optimal at once
        return [OPTIMAL] * size, pivots
    labels = costs.shape[1]  # variables per LP: every label lies below it
    live = lps = np.arange(size)
    offsets = lps[:, None] * labels  # of each LP's row in the flattened costs
    cb, cn = costs.take(basis + offsets), costs.take(nonbasic + offsets)  # by row, by slot
    calm = np.zeros(size, dtype=int)  # per LP: the iteration after its last nondegenerate pivot
    frozen = None  # per LP of the running stack: stopped, its state saved (None: none has)
    tab, bas, nb = tableau, basis, nonbasic
    for it in range(MAX_ITERATIONS):
        priced = np.matmul(cb[:, None, :], tab[:, :, :-1])
        improving = cn - priced[:, 0, :] < -FEAS_TOL
        entering = np.where(improving, nb, labels).argmin(axis=1)  # the slot of the smallest label
        column = tab[lps, :, entering]
        eligible = column > PIVOT_TOL
        found = improving[lps, entering]
        go = found & eligible.any(axis=1)
        if frozen is not None:
            go |= frozen
        if not go.all():
            stops = ~go
            done = live[stops]
            pivots[done], rays[done] = it, found[stops]
            if tab is not tableau:
                tableau[done], basis[done], nonbasic[done] = tab[stops], bas[stops], nb[stops]
            frozen = stops if frozen is None else frozen | stops
            stopped = np.count_nonzero(frozen)
            if stopped == live.size:
                break
            if 2 * stopped >= live.size:
                keep = ~frozen
                tab, bas, nb, cb, cn = tab[keep], bas[keep], nb[keep], cb[keep], cn[keep]
                live, calm = live[keep], calm[keep]
                entering, column, eligible = entering[keep], column[keep], eligible[keep]
                lps, frozen = np.arange(live.size), None
            elif tab is tableau:
                tab, bas, nb = tab.copy(), bas.copy(), nb.copy()
        least, near, pick = _ratio_test(tab, column, eligible, lps)
        if it - calm[calm.argmin()] >= DEGENERATE_RUN:  # some LP is on a degenerate run
            pick |= near & (it - calm >= DEGENERATE_RUN)[:, None]
        leaving = np.where(pick, bas, labels).argmin(axis=1)
        calm[least > PIVOT_TOL] = it + 1
        _pivot(tab, bas, nb, leaving, entering, lps, frozen)
        row, slot = leaving + lps * m, entering + lps * (width - 1)  # flat indices into cb, cn
        left = cb.take(row)
        cb.put(row, cn.take(slot))
        cn.put(slot, left)
    else:  # the LPs still running fail
        running = slice(None) if frozen is None else ~frozen
        done = live[running]
        pivots[done] = MAX_ITERATIONS
        if tab is not tableau:
            tableau[done], basis[done], nonbasic[done] = tab[running], bas[running], nb[running]
        unfinished = done.tolist()
    outcomes: list = [UNBOUNDED if ray else OPTIMAL for ray in rays.tolist()]
    for i in unfinished:
        outcomes[i] = NumericalFailure(f"simplex did not converge in {MAX_ITERATIONS} iterations")
    return outcomes, pivots


def _solve_stack(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray) -> StackSolution:
    """Simplex on a stack a_ub (L, m, n), in lockstep, from the slack basis.

    c is (L, n) or one (n,) row, b_ub (L, m) or one (m,) row.  The tableau
    is a new array, so a_ub and b_ub stay the original rows the certificate
    is checked against.
    """
    size, m, n = a_ub.shape
    tableau = np.empty((size, m, n + 1))
    tableau[:, :, :n] = a_ub
    tableau[:, :, n] = b_ub
    basis = np.empty((size, m), dtype=int)
    basis[:] = np.arange(n, n + m)
    nonbasic = np.empty((size, n), dtype=int)
    nonbasic[:] = np.arange(n)
    costs = np.zeros((size, n + m))
    costs[:, :n] = c
    status, pivots = _simplex(tableau, basis, nonbasic, costs)
    return _finish(status, tableau, basis, nonbasic, costs, a_ub, b_ub, pivots)


def _largest(*violations: np.ndarray) -> np.ndarray:
    """Per LP, the largest entry of the (L, k) violation arrays, or 0 if none is positive.

    A column of zeros goes first, so a row with nothing positive gives +0.0;
    argmax and a gather cost less than max reductions.
    """
    every = np.concatenate((np.zeros((violations[0].shape[0], 1)), *violations), axis=1)
    return every[np.arange(every.shape[0]), every.argmax(axis=1)]


def _certificate(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value and optimality certificate of a stack of primal-dual pairs.

    a (L, m, n), b (L, m) or (m,) and c (L, n) are the original rows, x (L, n) and
    y (L, m) the primal and dual points.  Returns c.x and, per LP, the
    primal residual (largest violation of x >= 0 and a.x <= b), the dual
    residual (largest violation of c - a^T y >= 0 and y <= 0) and the gap
    |c.x - b.y|, each from one batched np.matmul over the stack.
    """
    slack = np.matmul(a, x[:, :, None])[:, :, 0] - b
    primal = _largest(slack, -x)
    reduced = c - np.matmul(y[:, None, :], a)[:, 0, :]
    dual = _largest(-reduced, y)
    value = np.matmul(c[:, None, :], x[:, :, None])[:, 0, 0]
    gap = np.abs(value - np.matmul(b[..., None, :], y[:, :, None])[:, 0, 0])
    return value, primal, dual, gap


def _finish(
    status: list,
    tableau: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    costs: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    pivots: np.ndarray,
) -> StackSolution:
    """The outcomes of a stack whose simplex has stopped.

    x is read off the basis.  The duals are c_B.Binv: slack j's is its
    reduced cost's negative, c_B times its stored column, where slack j is
    nonbasic, and 0 where it is basic.  An optimal LP must pass the
    certificate against its original rows, primal and dual residuals
    within FEAS_TOL and a gap within FEAS_TOL (1 + |c.x|), or its status
    becomes the NumericalFailure naming the first check it fails.
    """
    size, labels = costs.shape
    n = a.shape[2]
    offsets = np.arange(size)[:, None] * labels  # of each LP's row in a flattened (L, n+m) array
    point = np.zeros(costs.shape)
    point.put(basis + offsets, tableau[:, :, -1])
    x = point[:, :n].copy()
    priced = np.matmul(costs.take(basis + offsets)[:, None, :], tableau[:, :, :-1])[:, 0, :]
    duals = np.zeros(costs.shape)
    duals.put(nonbasic + offsets, priced)
    y = duals[:, n:].copy()
    value, primal, dual, gap = _certificate(a, b, costs[:, :n], x, y)
    certified = (primal <= FEAS_TOL) & (dual <= FEAS_TOL) & (gap <= FEAS_TOL * (1.0 + np.abs(value)))
    for j in np.flatnonzero(~certified).tolist():
        if status[j] == OPTIMAL:
            p, d, g = float(primal[j]), float(dual[j]), float(gap[j])
            if not p <= FEAS_TOL:
                status[j] = NumericalFailure(f"optimal basis fails feasibility recheck (largest violation {p:.3g})")
            elif not d <= FEAS_TOL:
                status[j] = NumericalFailure(f"optimal basis fails dual feasibility check (dual residual {d:.3g})")
            else:
                status[j] = NumericalFailure(f"optimal basis fails duality-gap check (gap {g:.3g})")
    return StackSolution(status, x, value, y, pivots, primal, dual, gap)


def stack_size(m: int, n: int) -> int:
    """LPs of m rows and n columns per lockstep stack: at most STACK_ENTRIES tableau entries, at least one."""
    return max(1, STACK_ENTRIES // max(1, m * (n + 1)))


def solve_lps(c, a_ub, b_ub) -> StackSolution:
    """solve_lp on every LP of one stack; a NumericalFailure is returned, not raised.

    a_ub has shape (L, m, n); c is (L, n) or one (n,) row for every LP, b_ub
    (L, m) or one (m,) row.  Any other shape raises LengthMismatch, and a
    negative b_ub entry raises OutOfRange before any LP is solved.  The
    stack runs in lockstep slices of stack_size(m, n) LPs.  Every outcome is
    bit for bit the one solve_lp gives on that LP alone, and one LP's
    failure leaves the others unchanged.
    """
    c, a_ub, b_ub = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub))
    shape = a_ub.shape  # (L, m, n)
    if len(shape) != 3 or c.shape not in (shape[2:], shape[::2]) or b_ub.shape not in (shape[1:2], shape[:2]):
        raise LengthMismatch(
            f"need a_ub (L, m, n), c (L, n) or (n,), b_ub (L, m) or (m,); got {shape}, {c.shape}, {b_ub.shape}"
        )
    size, m, n = shape
    if size:
        _check_rhs(np.atleast_2d(b_ub))
    cap = stack_size(m, n)

    def rows(v: np.ndarray, i: int) -> np.ndarray:  # a stack's slice, or the row shared by every LP
        return v[i:i + cap] if v.ndim > 1 else v

    # One slice per cap LPs; an empty stack is one empty slice.
    parts = [_solve_stack(rows(c, i), a_ub[i:i + cap], rows(b_ub, i)) for i in range(0, size or 1, cap)]
    if len(parts) == 1:
        return parts[0]
    arrays = (np.concatenate([getattr(part, f.name) for part in parts]) for f in fields(StackSolution)[1:])
    return StackSolution([s for part in parts for s in part.status], *arrays)


def solve_lp(problem: LpProblem) -> LpSolution:
    """One-phase simplex from the slack basis; statuses: optimal, unbounded."""
    (outcome,) = solve_lps(problem.c, problem.a_ub[None], problem.b_ub)
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


class GrowingLp:
    """min c.x s.t. a_ub.x <= b_ub, x >= 0, whose columns arrive one at a time.

    It starts with no columns, at the slack basis.  add_column appends one
    column and resumes the simplex from the basis the previous solve left:
    a new column leaves that basis primal feasible, and it enters the kept
    tableau as Binv.a.  Binv's column j is slack j's column of the full
    tableau: its stored column where slack j is nonbasic, e_r where it is
    basic in row r.  Labels follow the full tableau's column order, so the
    slacks' labels move up by one with every new column.

    The new column enters the basis first, by the simplex's own ratio test,
    whatever its reduced cost: it is the column-generation step, whose
    pricing already chose the column.  Where the column improves by more
    than FEAS_TOL this is the pivot the simplex takes anyway, since the old
    basis was optimal on the old columns.  Where it ties within FEAS_TOL
    the simplex alone would keep the old basis, and its duals, unchanged,
    so a cutting-plane loop pricing at those duals would generate the same
    column again.  Each solve is certified against the original rows like
    any other (_finish), and its pivots count that entry and the resumed
    iterations.

    The tableau (columns, then the rhs), the nonbasic labels, the costs by
    label and the original columns are kept in buffers with room for
    GROWING_CAPACITY columns, doubled whenever a new column finds them
    full; every solve works on views of the filled part.
    """

    def __init__(self, b_ub) -> None:
        b = np.asarray(b_ub, dtype=float)[None]
        _check_rhs(b, "")
        m = b.shape[1]
        self._n = 0  # columns so far
        self._basis = np.arange(m)[None]
        # The buffers; the costs past the last column are the slacks' 0.
        self._tableau = np.zeros((1, m, GROWING_CAPACITY + 1))
        self._tableau[0, :, 0] = b
        self._nonbasic = np.zeros((1, GROWING_CAPACITY), dtype=int)
        self._costs = np.zeros((1, GROWING_CAPACITY + m))
        self._a = np.zeros((1, m, GROWING_CAPACITY))
        self._b = b

    def _grow(self) -> None:
        """Double the column capacity of every buffer, keeping what they hold."""
        extra = self._a.shape[2]
        for name in ("_tableau", "_nonbasic", "_costs", "_a"):
            old = getattr(self, name)
            new = np.zeros(old.shape[:-1] + (old.shape[-1] + extra,), dtype=old.dtype)
            new[..., : old.shape[-1]] = old
            setattr(self, name, new)

    def add_column(self, column, cost: float) -> LpSolution:
        """Append column (m,) with its cost and solve on from the last basis.

        Like solve_lp, returns an optimal or unbounded LpSolution and raises
        a NumericalFailure.  A column of any other shape raises
        LengthMismatch and leaves the LP as it was.
        """
        column = np.asarray(column, dtype=float)
        m, n = self._b.shape[1], self._n
        if column.shape != (m,):
            raise LengthMismatch(f"column must have {m} entries, got shape {column.shape}")
        if n == self._a.shape[2]:
            self._grow()
        basis, nonbasic = self._basis[0], self._nonbasic[0, :n]
        binv = np.zeros((m, m))
        rows = np.flatnonzero(basis >= n)
        binv[rows, basis[rows] - n] = 1.0
        slots = np.flatnonzero(nonbasic >= n)
        binv[:, nonbasic[slots] - n] = self._tableau[0][:, slots]
        entering = binv @ column
        basis[basis >= n] += 1
        nonbasic[nonbasic >= n] += 1
        self._tableau[0, :, n + 1] = self._tableau[0, :, n]  # the rhs moves one slot on
        self._tableau[0, :, n] = entering
        self._nonbasic[0, n] = n
        self._costs[0, n] = cost
        self._a[0, :, n] = column
        self._n = n + 1
        tableau, nonbasic = self._tableau[:, :, : n + 2], self._nonbasic[:, : n + 1]
        costs = self._costs[:, : n + 1 + m]
        eligible = entering[None] > PIVOT_TOL
        entered = int(eligible.any())  # else a ray, which the simplex prices
        if entered:
            _, _, pick = _ratio_test(tableau, entering[None], eligible, np.arange(1))
            leaving = np.where(pick, self._basis, costs.shape[1]).argmin(axis=1)
            _pivot(tableau, self._basis, nonbasic, leaving, np.array([n]))
        status, pivots = _simplex(tableau, self._basis, nonbasic, costs)
        pivots[0] += entered
        (outcome,) = _finish(status, tableau, self._basis, nonbasic, costs, self._a[:, :, : n + 1], self._b, pivots)
        if isinstance(outcome, NumericalFailure):
            raise outcome
        return outcome


def enumerate_vertices(problem: LpProblem) -> LpSolution:
    """Brute-force oracle: minimize over all feasible basic points.

    Only for problems with at most MAX_ORACLE_VARS variables and a bounded
    feasible region (add box rows if needed).  Every size-n active set drawn
    from {inequality rows, nonnegativity bounds} is solved and checked
    against the full constraint list; x = 0 is one of them, and feasible.
    """
    n = problem.num_vars
    if n > MAX_ORACLE_VARS:
        raise TooLarge(f"vertex oracle limited to {MAX_ORACLE_VARS} variables")
    _check_rhs(problem.b_ub[None], "")

    rows = np.vstack([problem.a_ub, -np.eye(n)])
    offsets = np.concatenate([problem.b_ub, np.zeros(n)])
    best_x, best_value = np.zeros(n), 0.0
    for active in combinations(range(rows.shape[0]), n):
        active = list(active)
        try:
            x = np.linalg.solve(rows[active], offsets[active])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or np.any(x < -FEAS_TOL):
            continue
        if np.any(problem.a_ub @ x - problem.b_ub > FEAS_TOL):
            continue
        value = float(problem.c @ x)
        if value < best_value:
            best_value, best_x = value, x
    return LpSolution(OPTIMAL, best_x, best_value, None)
