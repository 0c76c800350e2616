"""Dense linear programming: one-phase tableau simplex.

Problems are stated as arrays c, a_ub and b_ub, meaning

    minimize c.x  subject to  a_ub.x <= b_ub,  x >= 0,  with b_ub >= 0.

x = 0 is then feasible, so the simplex can start from the slack basis and
needs no phase 1; solve_lps and GrowingLp reject a negative b_ub entry
there.  The package's two LP families have this form: the delivery LP
(its master and its dense form) and the per-ordering LP of the upper
bound, which keeps its normalisation in a budget row and at the chain
ordering also gives the chain optimum (upper_bound).

A stack can instead start at a vertex its caller knows in closed form, a
crash basis (LpStack.crashed; Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 4(3), 1992), reached by one crash
pivot.  The caller may first write, in the stack's own tableau, the rows
and labels of a basis it has reached in closed form; it names the one
pivot still to take from there (or from the slack basis), each LP's row
and entering slot, skipping some LPs if it likes, and each row's basic
value at the vertex.  The pivot runs through _pivot like any other, and
the rhs is then written as those values, so a slack that is 0 there is
exactly 0, where the pivot's rounding can leave -1.1e-16.  The upper
bound starts each per-ordering LP at its equal-weight vertex, whose rows
it writes up to the one pivot that divides (upper_bound), and the
delivery LP's subset LPs, covering LPs a.x >= 1 held as -a.x <= -1, whose
x = 0 is infeasible, take their one pivot from the slack basis
(LpStack.covering, below).

The primal simplex runs on a condensed (Tucker) tableau: the
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

A tableau holds its m constraint rows and, as row m, the reduced costs
c_N - c_B.T, priced at the basis a solve starts from (c itself at the
slack basis) and kept current by every pivot.  A pivot swaps the
entering and leaving labels between basis and nonbasic, writes the
leaving variable's unit column e_r into the entering variable's slot,
and runs the full tableau's Gauss-Jordan step on the stored columns as
one rank-1 update of every row (_pivot).  No tableau entry is
ever -0.0: +0.0 is added to everything that enters a tableau, and a
pivot cannot make one (_pivot has the proof).  So the unmasked update
leaves the bytes of a row whose factor is 0, and every stored entry gets
the floating-point operations of a row-by-row loop over the full
[a_ub | I | b_ub] tableau.  The duals are priced afresh at the end, and
BLAS may sum a column's products in another order at another position,
so a dual can differ from the full tableau's in its last bits.

Every optimal LP is certified against its original rows: x is read off
the basis and the duals y are c_B.Binv.  Column j of Binv is slack j's
column of the full tableau: its stored column where slack j is nonbasic,
whose final pricing gives y_j, and a unit column where slack j is basic,
which gives y_j = 0.  The primal residual (largest violation of
a_ub.x <= b_ub and of x >= 0), the dual residual (largest violation of
c - a_ub^T y >= 0 and y <= 0) and the gap |c.x - b_ub.y| must each be
within FEAS_TOL (the gap relative to 1 + |c.x|).  An LP whose simplex
ended optimal but fails the certificate is refined once at its final
basis: its tableau rows Binv.[N | b_ub] (x_B in the last column) and
y = c_B.Binv are solved afresh from the original rows [a_ub | I]
(np.linalg.solve on the m x m basis matrix), not read off the tableau,
whose rounding on a basis that mixes entries near 1 with entries near
1e-9 can miss FEAS_TOL.  If it fails again, the LP's outcome is a
NumericalFailure naming the residual; if it passes, the refined rows
replace its tableau's, so a kept stack resumes from them.  An LP that
passes at once keeps its bytes.  LpSolution carries the three values.

One simplex core runs on a stack of same-shape tableaux, shape
(L, m+1, n+1): the n nonbasic columns, then the rhs, with the labels in
basis (L, m) and nonbasic (L, n).  An LpStack holds the LPs as arrays of
one shape, a_ub (L, m, n) and b_ub (L, m), and solves them all at costs
c (L, n) as one stack, so a caller that must bound its memory builds
stacks of fewer LPs (upper_bound does).  Each iteration reads every
running LP's entering column off its cost row, picks its leaving row
with vector operations, and pivots every LP at once with one in-place
rank-1 update (_pivot).  The certificate is one batched np.matmul per
stack too, and a solve returns the stack's outcomes as arrays
(StackSolution), which yield each LP's LpSolution when indexed.  An LP
that finishes (optimal, unbounded or failed) is frozen where it stands:
its later pivots take divisor 1 and factors 0 and write neither its
slot, its pivot row nor its labels, so its state stays as it stopped.
The running stack is compacted to the LPs still running only once at
least half of it has stopped, since a compaction copies every array of
the stack; the stopped LPs are written back then, and the rest at the
end.  A NumericalFailure is that LP's outcome alone.  The numpy calls
make the same floating-point operations on each LP whatever the stack
holds, frozen LPs included (a crashed stack's first pricing skips or
adds only rows that add an exact zero to that LP, LpStack.solve), so the
pivot path and every byte of x, the value, the duals and the certificate
are the same whether an LP is solved alone or in a stack.

An LpStack keeps a stack's tableau, basis and labels from one solve to
the next: new costs do not make a kept basis infeasible, so solve(c)
prices the cost row afresh at the kept basis and resumes the simplex from
there.  An LpStack holds only fixed-shape stacks, built where they are
solved, from the slack basis or from a crash: the bound's per-ordering
LPs (the chain optimum's among them) and the delivery LP's subset LPs,
repriced at every cut.  solve_lps and solve_lp, for callers outside the
package, check their arrays and solve a fresh stack once from x = 0.

The delivery LP's cutting-plane master is the one LP that is no
LpStack: a single LP that gains a column, with its cost, per cut
(GrowingLp).  It keeps its full tableau and a cost row that its pivots
keep current, so a new column and its reduced cost are read off the
tableau and no column is repriced or copied; its simplex takes
LpStack's rules, and its duals, certificate and refinement are
_finish's.  It runs its ratio test and certificate on its own 1-D arrays
(_ratio_test_one, _certificate_one), with the floating-point operations
of _ratio_test and _certificate in the same order, so with the same
bytes as a stack of one, but without the (1, ...) views and stack
indices, which cost more than the arithmetic on a master of B rows; its
rare refinement goes through _refined as a stack of one.  Each solve
carries the same certificate, and require_optimal is the one rule that
every LP here must come back optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Iterator, Optional, Union

import numpy as np

from .errors import LengthMismatch, NumericalFailure, OutOfRange, UnexpectedLpStatus

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_ITERATIONS = 100_000
# Consecutive degenerate pivots after which an LP falls back to Bland's
# leaving rule until its objective moves (the anti-cycling guard).
DEGENERATE_RUN = 50
_ZERO = np.zeros(1)  # _largest_one's first entry

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


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


@dataclass(eq=False)
class StackSolution:
    """The outcomes of a stack of L LPs, as arrays over the stack.

    status[i] is OPTIMAL, UNBOUNDED or LP i's NumericalFailure.  x (L, n),
    value (L,), dual_ub (L, m) and the certificate's primal_residual,
    dual_residual and duality_gap (L,) hold LP i's LpSolution values in
    row i, which means something only where status[i] is OPTIMAL; pivots
    (L,) counts every LP's pivots.  Indexing or iterating yields each LP's
    LpSolution or NumericalFailure.
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


def _check_rhs(b_ub: np.ndarray) -> None:
    """Reject a negative entry of a stack of b_ub rows: the simplex starts at x = 0."""
    if (b_ub < 0.0).any():
        lp, row = np.argwhere(b_ub < 0.0)[0].tolist()
        raise OutOfRange(f"LP {lp}: b_ub[{row}] = {float(b_ub[lp, row])!r} < 0; x = 0 must be feasible")


def _pivot(
    tableau: np.ndarray,
    basis: np.ndarray,
    nonbasic: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    lps: np.ndarray,
    frozen: Optional[np.ndarray] = None,
) -> None:
    """Pivot slot cols[i] into row rows[i] of every condensed tableau i of the stack.

    The entering variable's column, the cost row's entry included, is saved
    as the factors, and the leaving variable's column in the full tableau,
    the unit vector e_r, is written into the freed slot.  Then the full
    tableau's Gauss-Jordan step runs on the stored columns: the pivot row
    is divided by the pivot, and every row r becomes row_r - f_r *
    pivot_row, with f_r = 0 on the pivot row, in one update of the whole
    stack.  Last, the two variables swap their labels in basis and
    nonbasic.

    Precondition: every entry is finite and none is -0.0, and every pivot
    is nonzero (the ratio test takes only entries above PIVOT_TOL; a crash
    pivot of LpStack.crashed may be negative).  Then the update gives
    the bytes of a row-by-row loop that skips the rows with f_r == 0, since
    x - (+-0.0) == x for every x but -0.0.  And the pivot keeps the
    precondition.  A difference x - y is -0.0 only where x is -0.0 and y
    is +0.0 (round to nearest gives +0.0 for x == y), so the update makes
    no -0.0 in a row that had none.  A quotient is -0.0 only where the
    dividend is +0.0 and the divisor negative, or where the exact quotient
    is negative and underflows; such an entry of the pivot row then meets
    its factor +0.0 in the update, and -0.0 - (+0.0 * -0.0) is +0.0
    (where the row loop would keep -0.0).

    lps is np.arange(L), from the caller, which keeps it.  Where frozen[i] is
    true, tableau i belongs to an LP that has stopped: it gets factors 0
    and divisor 1, so the update leaves its rows as they are, and its slot,
    pivot row and labels are not written, so nothing of it changes.
    """
    factors = tableau[lps, :, cols]
    divisors = factors[lps, rows]
    run, at, slot = lps, rows, cols  # the running LPs, their pivot rows and slots
    if frozen is not None:
        factors[frozen] = 0.0
        divisors[frozen] = 1.0
        run = np.flatnonzero(~frozen)
        at, slot = rows[run], cols[run]
    tableau[run, :, slot] = 0.0
    tableau[run, at, slot] = 1.0
    pivot_rows = tableau[lps, rows]
    pivot_rows /= divisors[:, None]
    tableau[run, at] = pivot_rows if frozen is None else pivot_rows[run]
    factors[lps, rows] = 0.0
    tableau -= factors[:, :, None] * pivot_rows[:, None, :]
    at, slot = at + run * basis.shape[1], slot + run * nonbasic.shape[1]  # flat indices
    left = basis.take(at)
    basis.put(at, nonbasic.take(slot))
    nonbasic.put(slot, left)


def _ratio_test(
    rhs: np.ndarray, column: np.ndarray, eligible: np.ndarray, lps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaving rule's ratio test on a stack, for entering columns column (L, m).

    Returns each LP's minimum ratio over its eligible rows, the rows whose
    ratio is within PIVOT_TOL of it, and among those the rows with the
    largest column entry; lps is np.arange(L).  The ratios are those of
    the rhs (L, m) over the column.
    """
    ratios = np.divide(rhs, column, out=np.full(column.shape, inf), where=eligible)
    # argmin/argmax and a gather cost less than min/max reductions.
    least = ratios[lps, ratios.argmin(axis=1)]
    near = ratios <= (least + PIVOT_TOL)[:, None]
    entries = column * near  # the tied rows' entries, all > PIVOT_TOL; 0 elsewhere
    pick = entries == entries[lps, entries.argmax(axis=1)][:, None]
    return least, near, pick


def _ratio_test_one(rhs: np.ndarray, column: np.ndarray, eligible: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """_ratio_test of one LP on its own 1-D arrays, rhs, column and eligible (m,).

    The same floating-point operations in the same order, so the same
    minimum ratio and rows, without the stack's (1, m) views.
    """
    ratios = np.empty(column.shape)
    ratios.fill(inf)  # np.full's Python wrapper costs more than the fill
    np.divide(rhs, column, out=ratios, where=eligible)
    least = ratios[ratios.argmin()]
    near = ratios <= least + PIVOT_TOL
    entries = column * near
    pick = entries == entries[entries.argmax()]
    return least, near, pick


def _simplex(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray) -> tuple[list, np.ndarray]:
    """Primal simplex iterations on a stack of condensed tableaux in lockstep.

    tableau (L, m+1, n+1) holds each LP's m constraint rows and, in row m,
    its reduced costs c_N - c_B.T, which the caller prices and every pivot
    then updates like any other row (_pivot).  Returns each LP's outcome
    (OPTIMAL, UNBOUNDED or a NumericalFailure) and pivot count; tableau,
    basis and nonbasic hold each LP's final state.
    Entering: the smallest nonbasic label with reduced cost below
    -FEAS_TOL (Bland).  Leaving: among the rows with a column entry above
    PIVOT_TOL, those whose ratio is within PIVOT_TOL of the minimum; of
    these the row with the largest column entry, then the smallest basic
    label.  An entering column with no entry above PIVOT_TOL is a ray:
    the LP is unbounded.  Anti-cycling guard: after DEGENERATE_RUN
    consecutive pivots whose minimum ratio is 0 (within PIVOT_TOL), an LP
    takes the smallest basic label among the tied rows instead, Bland's
    full rule, until a pivot moves its objective.

    An LP that stops is frozen in the running stack, where its later
    pivots leave it untouched (_pivot), so the others run on unchanged.
    Once at least half of the running stack has stopped it is compacted to
    the LPs still running: the stopped LPs are written back into tableau,
    basis and nonbasic then, and the rest at the end.
    """
    size, m, width = tableau.shape[0], basis.shape[1], tableau.shape[2]
    pivots = np.zeros(size, dtype=int)
    rays = np.zeros(size, dtype=bool)  # per LP: stopped on an unbounded ray
    unfinished: list[int] = []  # the LPs still running at MAX_ITERATIONS
    if width == 1 or not size:  # no columns, or no LPs: every LP is optimal at once
        return [OPTIMAL] * size, pivots
    labels = m + width - 1  # variables per LP: every label lies below it
    live = lps = np.arange(size)
    calm = np.zeros(size, dtype=int)  # per LP: the iteration after its last nondegenerate pivot
    frozen = None  # per LP of the running stack: stopped (None: none has)
    tab, bas, nb = tableau, basis, nonbasic
    for it in range(MAX_ITERATIONS):
        improving = tab[:, m, :-1] < -FEAS_TOL
        entering = np.where(improving, nb, labels).argmin(axis=1)  # the slot of the smallest label
        column = tab[lps, :m, entering]
        eligible = column > PIVOT_TOL
        found = improving[lps, entering]
        go = found & eligible.any(axis=1)
        if frozen is not None:
            go |= frozen
        if not go.all():
            stops = ~go
            done = live[stops]
            pivots[done], rays[done] = it, found[stops]
            frozen = stops if frozen is None else frozen | stops
            stopped = np.count_nonzero(frozen)
            if stopped == live.size:
                break
            if 2 * stopped >= live.size:
                if tab is not tableau:
                    done = live[frozen]
                    tableau[done], basis[done], nonbasic[done] = tab[frozen], bas[frozen], nb[frozen]
                keep = ~frozen
                tab, bas, nb, live, calm = tab[keep], bas[keep], nb[keep], live[keep], calm[keep]
                entering, column, eligible = entering[keep], column[keep], eligible[keep]
                lps, frozen = np.arange(live.size), None
        least, near, pick = _ratio_test(tab[:, :m, -1], column, eligible, lps)
        if it - calm[calm.argmin()] >= DEGENERATE_RUN:  # some LP is on a degenerate run
            pick |= near & (it - calm >= DEGENERATE_RUN)[:, None]
        leaving = np.where(pick, bas, labels).argmin(axis=1)
        calm[least > PIVOT_TOL] = it + 1
        _pivot(tab, bas, nb, leaving, entering, lps, frozen)
    else:  # the LPs still running fail
        unfinished = (live if frozen is None else live[~frozen]).tolist()
        pivots[unfinished] = MAX_ITERATIONS
    if tab is not tableau:
        tableau[live], basis[live], nonbasic[live] = tab, bas, nb
    outcomes: list = [UNBOUNDED if ray else OPTIMAL for ray in rays.tolist()]
    for i in unfinished:
        outcomes[i] = NumericalFailure(f"simplex did not converge in {MAX_ITERATIONS} iterations")
    return outcomes, pivots


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


def _largest_one(*violations: np.ndarray) -> float:
    """_largest of one LP: the largest entry of the 1-D violation arrays, or +0.0 if none is positive."""
    every = np.concatenate((_ZERO, *violations))
    return float(every[every.argmax()])


def _certificate_one(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, float]:
    """_certificate of one LP on its own arrays: a (m, n), b (m,), c (n,), x (n,) and y (m,).

    The same floating-point operations in the same order, so the same
    bytes, without the stack's (1, ...) views; returns floats.
    """
    primal = _largest_one(a @ x - b, -x)
    dual = _largest_one(-(c - y @ a), y)
    value = c @ x
    return float(value), primal, dual, float(abs(value - b @ y))


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
    nonbasic, and 0 where it is basic.  They are priced afresh from rows :m
    rather than read off the cost row, whose last bits carry the rounding
    of every update since it was priced.  An optimal LP must pass the
    certificate against its original rows, primal and dual residuals
    within FEAS_TOL and a gap within FEAS_TOL (1 + |c.x|).  One that fails
    it is refined once at its final basis (_refined) and certified again,
    and if it fails again its status becomes the NumericalFailure naming
    the first check it fails.  One that the refinement certifies has its
    tableau rows replaced by the refined ones, so a kept stack (LpStack)
    resumes its next solve from them, not from the drifted ones.  An LP
    that passes at once keeps its bytes.
    """
    size, labels = costs.shape
    n = a.shape[2]
    offsets = np.arange(size)[:, None] * labels  # of each LP's row in a flattened (L, n+m) array
    point = np.zeros(costs.shape)
    point.put(basis + offsets, tableau[:, :-1, -1])
    x = point[:, :n].copy()
    priced = np.matmul(costs.take(basis + offsets)[:, None, :], tableau[:, :-1, :-1])[:, 0, :]
    duals = np.zeros(costs.shape)
    duals.put(nonbasic + offsets, priced)
    y = duals[:, n:].copy()
    value, primal, dual, gap = _certificate(a, b, costs[:, :n], x, y)
    failed = np.flatnonzero(~_certified(value, primal, dual, gap))
    failed = failed[np.array([status[j] == OPTIMAL for j in failed.tolist()], dtype=bool)]
    if failed.size:
        rows = np.broadcast_to(b, a.shape[:2])[failed]
        try:
            body, y[failed] = _refined(a[failed], rows, costs[failed], basis[failed], nonbasic[failed])
        except np.linalg.LinAlgError:  # a basis singular in floats: the failures stand
            pass
        else:
            refined_point = np.zeros((failed.size, labels))
            np.put_along_axis(refined_point, basis[failed], body[:, :, -1], axis=1)
            x[failed] = refined_point[:, :n]
            refined = _certificate(a[failed], rows, costs[failed, :n], x[failed], y[failed])
            value[failed], primal[failed], dual[failed], gap[failed] = refined
            passed = _certified(*refined)
            tableau[failed[passed], :-1] = body[passed] + 0.0
            failed = failed[~passed]
    for j in failed.tolist():
        status[j] = _uncertified(float(primal[j]), float(dual[j]), float(gap[j]))
    return StackSolution(status, x, value, y, pivots, primal, dual, gap)


def _uncertified(primal: float, dual: float, gap: float) -> NumericalFailure:
    """The NumericalFailure of an optimal basis that fails its certificate, naming the first check it fails."""
    if not primal <= FEAS_TOL:
        return NumericalFailure(f"optimal basis fails feasibility recheck (largest violation {primal:.3g})")
    if not dual <= FEAS_TOL:
        return NumericalFailure(f"optimal basis fails dual feasibility check (dual residual {dual:.3g})")
    return NumericalFailure(f"optimal basis fails duality-gap check (gap {gap:.3g})")


def _certified(value: np.ndarray, primal: np.ndarray, dual: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Per LP, whether its certificate (_certificate) passes: primal and dual
    residuals within FEAS_TOL and a gap within FEAS_TOL (1 + |c.x|).  Given
    one LP's floats (_certificate_one), one bool."""
    return (primal <= FEAS_TOL) & (dual <= FEAS_TOL) & (gap <= FEAS_TOL * (1.0 + np.abs(value)))


def _refined(
    a: np.ndarray, b: np.ndarray, costs: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The tableau rows and y of a stack of LPs recomputed from their
    original rows at their final bases.

    a (L, m, n), b (L, m), costs (L, n+m), basis (L, m) and nonbasic (L, n)
    as in _finish.  The basis matrix B holds the columns of [a | I] named
    by the basis.  The rows are Binv.[N | b], in the tableau's layout
    (L, m, n+1): the nonbasic columns, then x_B.  They and y = c_B.Binv
    come from np.linalg.solve on B, not from the tableau, whose entries
    carry the rounding of every pivot.  Where the bases mix entries near 1
    with entries near 1e-9 (a delivery LP's subset LPs on CCDF entries of
    1e-6 to 1e-12) that rounding can miss FEAS_TOL, and one solve at the
    basis meets it.
    """
    size, m, _ = a.shape
    full = np.concatenate((a, np.broadcast_to(np.eye(m), (size, m, m)), b[:, :, None]), axis=2)
    matrix = np.take_along_axis(full, basis[:, None, :], axis=2)  # column r: basis[r]'s column
    columns = np.concatenate((nonbasic, np.full((size, 1), full.shape[2] - 1)), axis=1)  # N, then b
    rows = np.linalg.solve(matrix, np.take_along_axis(full, columns[:, None, :], axis=2))
    y = np.linalg.solve(np.swapaxes(matrix, 1, 2), np.take_along_axis(costs, basis, axis=1)[:, :, None])[:, :, 0]
    return rows, y


def solve_lps(c, a_ub, b_ub) -> StackSolution:
    """solve_lp on every LP of one stack, in lockstep; a NumericalFailure is returned, not raised.

    The checked entry point to LpStack for callers outside the package.
    a_ub has shape (L, m, n); c is (L, n) or one (n,) row for every LP, b_ub
    (L, m) or one (m,) row.  Any other shape raises LengthMismatch.  The
    stack starts at x = 0, so a negative b_ub entry raises OutOfRange
    before any LP is solved.  Every outcome is bit for bit the one the
    stack of that LP alone gives (solve_lp), and one LP's failure leaves
    the others unchanged.
    """
    c, a_ub, b_ub = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub))
    shape = a_ub.shape  # (L, m, n)
    if len(shape) != 3 or c.shape not in (shape[2:], shape[::2]) or b_ub.shape not in (shape[1:2], shape[:2]):
        raise LengthMismatch(
            f"need a_ub (L, m, n), c (L, n) or (n,), b_ub (L, m) or (m,); got {shape}, {c.shape}, {b_ub.shape}"
        )
    _check_rhs(np.broadcast_to(b_ub, shape[:2]))
    return LpStack(a_ub, b_ub).solve(c)


def require_optimal(outcome: Union[LpSolution, NumericalFailure], label: str, where: str = "") -> LpSolution:
    """outcome if it is optimal; else the typed error naming the LP (label) and the step, if where is given.

    A NumericalFailure is raised again behind label, with the original as
    its __cause__; any other status raises UnexpectedLpStatus.
    """
    step = f" ({where})" if where else ""
    if isinstance(outcome, NumericalFailure):
        raise NumericalFailure(f"{label}: {outcome}{step}") from outcome
    if outcome.status != OPTIMAL:
        raise UnexpectedLpStatus(f"{label}: status {outcome.status}{step}")
    return outcome


def solve_lp(c, a_ub, b_ub) -> LpSolution:
    """One LP, c (n,), a_ub (m, n), b_ub (m,), as the stack of one; statuses: optimal, unbounded.

    Any other shape raises LengthMismatch, and b_ub is checked as in
    solve_lps.  Raises its NumericalFailure.
    """
    c, a_ub, b_ub = (np.asarray(v, dtype=float) for v in (c, a_ub, b_ub))
    if a_ub.ndim != 2 or c.shape != a_ub.shape[1:] or b_ub.shape != a_ub.shape[:1]:
        raise LengthMismatch(f"need c (n,), a_ub (m, n), b_ub (m,); got {c.shape}, {a_ub.shape}, {b_ub.shape}")
    (outcome,) = solve_lps(c, a_ub[None], b_ub)
    if isinstance(outcome, NumericalFailure):
        raise outcome
    return outcome


class LpStack:
    """A stack of LPs min c.x s.t. a_ub.x <= b_ub, x >= 0, kept from one solve to the next.

    a_ub is (L, m, n) and b_ub (L, m) or one (m,) row for every LP; they
    stay the original rows every solve is certified against.  The stack
    starts at the slack basis, feasible where b_ub >= 0 (the caller sees
    to that; solve_lps checks it), or at a crash basis (crashed), and
    keeps its tableau, basis and labels: the costs do not enter the rows,
    so the basis a solve leaves is still primal feasible at the next
    costs.  The tableau takes +0.0 added to every entry, which turns -0.0
    into +0.0 and keeps every other value's bytes, as _pivot's
    precondition asks.  Its cost row holds 0 until the first solve prices
    it.
    """

    def __init__(self, a_ub, b_ub) -> None:
        self._a, self._b = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
        size, m, n = self._a.shape
        self._tableau = np.zeros((size, m + 1, n + 1))
        np.add(self._a, 0.0, out=self._tableau[:, :m, :n])
        np.add(self._b, 0.0, out=self._tableau[:, :m, n])
        self._basis = np.empty((size, m), dtype=int)
        self._basis[:] = np.arange(n, n + m)
        self._nonbasic = np.empty((size, n), dtype=int)
        self._nonbasic[:] = np.arange(n)
        self._crashed = False  # the next solve prices a crash basis (solve)

    @classmethod
    def crashed(cls, a_ub, b_ub, pivot, rhs, reach=None) -> LpStack:
        """The stack of LPs a_ub.x <= b_ub, x >= 0 (as in LpStack), started at a
        vertex its caller knows in closed form instead of at the slack basis.

        reach, if given, is a function the stack calls once, before the
        pivot, with its tableau's m constraint rows (L, m, n), a view that
        holds a_ub's entries, and its basis (L, m) and nonbasic (L, n)
        labels at the slack basis, where slot j holds variable j.  It
        writes, in place, the rows and labels of a basis the caller has
        reached in closed form, each row's stored columns only (its rhs
        comes from rhs, below), with no -0.0, as _pivot's precondition
        asks.  pivot (rows, slots, skip), each of (L,) arrays, is the one
        lockstep pivot still to take from there: the variable in nonbasic
        slot slots[i] of LP i enters at row rows[i], except where skip[i]
        is true (skip may be None).  It must be nonzero; a negative one is
        fine, since _pivot leaves no -0.0 either way.  rhs (L, m) holds,
        row by row, the value at the vertex of the variable basic in that
        row once the pivot is taken, from a closed form: it is written as
        the tableau's rhs, with +0.0 added as to every tableau entry, not
        taken from the pivot's update, whose rounding can leave a slack
        that is exactly 0 at the vertex at -1.1e-16.  The vertex must be
        feasible, rhs >= 0: a negative entry raises OutOfRange, and an rhs
        of another shape LengthMismatch, before reach or the pivot.  The
        crash pivot counts in no solve's pivots.
        """
        stack = cls(a_ub, b_ub)
        size, m, n = stack._a.shape
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (size, m):
            raise LengthMismatch(f"need rhs ({size}, {m}), got shape {rhs.shape}")
        if (rhs < 0.0).any():
            lp, row = np.argwhere(rhs < 0.0)[0].tolist()
            raise OutOfRange(f"LP {lp}: rhs[{row}] = {float(rhs[lp, row])!r} < 0; the start must be feasible")
        if reach is not None:
            reach(stack._tableau[:, :m, :n], stack._basis, stack._nonbasic)
        rows, slots, skip = pivot
        skip = None if skip is None or not skip.any() else skip
        _pivot(stack._tableau, stack._basis, stack._nonbasic, rows, slots, np.arange(size), skip)
        np.add(rhs, 0.0, out=stack._tableau[:, :m, n])
        stack._crashed = True
        return stack

    @classmethod
    def covering(cls, a) -> LpStack:
        """The stack of LPs min c.x s.t. a.x >= 1, x >= 0, started from one crash pivot each.

        a (L, m, n) must have a positive first column.  The LPs are held as
        -a.x <= -1, whose slack basis x = 0 is infeasible; instead column 0
        enters each LP at the row r with the smallest a[r, 0] (crashed).
        At that vertex x_0 = 1/a[r, 0], and row k's slack is
        (a[k, 0] - a[r, 0]) / a[r, 0] >= 0, written in that form so that a
        tie gives exactly 0, where the pivot's own update gives
        -1 + a[k, 0] * (1/a[r, 0]), which is -1.1e-16 at
        a[k, 0] = a[r, 0] = 0.09.
        """
        a = np.asarray(a, dtype=float)
        size, m, n = a.shape
        first = a[:, :, 0]
        if not (first > 0.0).all():
            raise OutOfRange("every entry of the first column must be positive")
        lps, rows = np.arange(size), first.argmin(axis=1)
        least = first[lps, rows][:, None]
        rhs = (first - least) / least
        rhs[lps, rows] = 1.0 / least[:, 0]
        return cls.crashed(-a, np.full(m, -1.0), (rows, np.zeros(size, dtype=int), None), rhs)

    def solve(self, c) -> StackSolution:
        """Every LP at the costs c, (n,) or (L, n), from the bases the last solve left.

        The cost row is priced at the kept basis, c_N - c_B.T with the rhs
        slot -c_B.rhs, in one batched product over the stack; at the slack
        basis c_B = 0, so it is c with the same bytes.  At a crash basis
        (crashed), the first solve sums c_B.T in row order instead, one
        multiply-add per row whose basic label has a cost in some LP of the
        stack, so a row where an LP's c_B is 0 adds an exact zero: an LP
        padded with zero rows, as upper_bound pads its crashed LPs, prices
        its cost row to the bytes it gets alone.  A BLAS product sums in an
        order that depends on where the zero rows sit, but it is the faster
        one on the small stacks that the delivery LP reprices at every cut,
        and no caller pads those.  Neither difference
        can be -0.0, since neither minuend is.  Then the simplex resumes and
        every LP is certified against its original rows (_finish).  A c of
        any other shape raises LengthMismatch.  Returns the stack's
        outcomes; a NumericalFailure is returned, not raised.
        """
        c = np.asarray(c, dtype=float)
        tableau, basis, nonbasic = self._tableau, self._basis, self._nonbasic
        size, m, n = self._a.shape
        if c.shape not in ((n,), (size, n)):
            raise LengthMismatch(f"need c ({n},) or ({size}, {n}), got shape {c.shape}")
        costs = np.zeros((size, n + m))
        np.add(c, 0.0, out=costs[:, :n])
        offsets = np.arange(size)[:, None] * (n + m)  # of each LP's row in a flattened (L, n+m) array
        basic = costs.take(basis + offsets)  # c_B
        if self._crashed:
            priced = np.zeros((size, n + 1))  # c_B.T, c_B.rhs, summed in row order
            for row in np.flatnonzero(basic.any(axis=0)).tolist():
                priced += basic[:, row, None] * tableau[:, row]
            self._crashed = False
        else:
            priced = np.matmul(basic[:, None, :], tableau[:, :m])[:, 0, :]
        np.subtract(costs.take(nonbasic + offsets), priced[:, :n], out=tableau[:, m, :n])
        np.subtract(0.0, priced[:, n], out=tableau[:, m, n])
        status, pivots = _simplex(tableau, basis, nonbasic)
        return _finish(status, tableau, basis, nonbasic, costs, self._a, self._b, pivots)


class GrowingLp:
    """One LP min c.x s.t. a_ub.x <= b_ub, x >= 0 whose columns arrive one at a time, each with its cost.

    It starts with no columns at the slack basis, which b_ub >= 0 makes
    feasible, and holds room for capacity columns.  It keeps the full
    tableau [I | b_ub | a_ub] (the slacks, the rhs, then the columns in
    the order they came) and, as row m, the reduced costs, which every
    pivot keeps current.  The slack block is Binv and the cost row's slack
    block -c_B.Binv, so a new column's tableau column Binv.a and reduced
    cost c - c_B.Binv.a are read off them.  x_j is labelled j and slack i
    capacity + i, so Bland's order takes every column before every slack,
    as in LpStack.  The duals are priced afresh, y = c_B.Binv from the
    slack block, as _finish prices them: read off the cost row, whose last
    bits carry the rounding of every update since, they moved the delivery
    LP's certified gap by up to 2e-15.
    """

    def __init__(self, b_ub, capacity: int) -> None:
        b = np.asarray(b_ub, dtype=float)
        if b.ndim != 1:
            raise LengthMismatch(f"need b_ub (m,), got shape {b.shape}")
        _check_rhs(b[None])
        m = b.size
        self._b, self._n = b, 0
        self._a = np.zeros((m, capacity))  # the original columns
        self._costs = np.zeros(m + 1 + capacity)  # by tableau column: 0 on the slacks and the rhs
        self._tableau = np.zeros((m + 1, m + 1 + capacity))
        self._tableau[:m, :m] = np.eye(m)
        np.add(b, 0.0, out=self._tableau[:m, m])
        self._basis = np.arange(m)  # the tableau column basic in each row
        # Each tableau column's label: slacks after columns, the rhs after both.
        self._labels = np.concatenate((capacity + np.arange(m + 1), np.arange(capacity)))
        self._entered = 0  # columns pivoted in since the last solve

    def add_column(self, column, cost: float) -> None:
        """Append column (m,) at cost and pivot it in by the ratio test, whatever its reduced cost.

        It is the column-generation step, whose pricing already chose the
        column.  Where the column improves by more than FEAS_TOL this is
        the pivot the simplex takes anyway, since the old basis was optimal
        on the old columns.  Where it ties within FEAS_TOL the simplex alone
        would keep the old basis, and its duals, unchanged, so a
        cutting-plane loop pricing at those duals would generate the same
        column again.  Where the column has no entry above PIVOT_TOL the
        basis stays, and the next solve finds the ray.  The next solve's
        pivots count this entry.  A column of any other shape raises
        LengthMismatch, and one past the capacity OutOfRange; either leaves
        the LP as it was.
        """
        column = np.asarray(column, dtype=float)
        m, n = self._b.size, self._n
        if column.shape != (m,):
            raise LengthMismatch(f"column must have {m} entries, got shape {column.shape}")
        if n == self._a.shape[1]:
            raise OutOfRange(f"the LP has room for {n} columns")
        tableau, slot = self._tableau, m + 1 + n
        entering = tableau[:m, :m] @ column + 0.0
        tableau[:m, slot] = entering
        tableau[m, slot] = cost + tableau[m, :m] @ column + 0.0
        self._a[:, n] = column
        self._costs[slot] = cost + 0.0
        self._n = n + 1
        eligible = entering > PIVOT_TOL
        if eligible.any():
            _, _, pick = _ratio_test_one(tableau[:m, m], entering, eligible)
            self._pivot(self._leaving(pick), slot)
            self._entered += 1

    def _leaving(self, pick: np.ndarray) -> int:
        """The row, among those pick marks, whose basic variable has the smallest label."""
        return int(np.where(pick, self._labels.take(self._basis), self._labels[self._b.size]).argmin())

    def _pivot(self, row: int, slot: int) -> None:
        """Pivot tableau column slot into row: _pivot's Gauss-Jordan step on the filled columns."""
        tableau = self._tableau[:, : self._b.size + 1 + self._n]
        factors = tableau[:, slot].copy()
        pivot_row = tableau[row] / factors[row]
        tableau[row] = pivot_row
        factors[row] = 0.0
        tableau -= factors[:, None] * pivot_row
        self._basis[row] = slot

    def solve(self) -> Union[LpSolution, NumericalFailure]:
        """Resume the simplex from the kept basis, with LpStack's rules, and certify the optimum.

        Entering: the smallest label with reduced cost below -FEAS_TOL.
        Leaving: _ratio_test's rows, then the smallest basic label, with the
        DEGENERATE_RUN guard; at MAX_ITERATIONS the outcome is a
        NumericalFailure.  An optimum that fails its certificate against
        the original columns is refined once at its basis and certified
        again (_refine); if it fails again, the outcome is the
        NumericalFailure naming the first check it fails.  Returns the
        outcome; a NumericalFailure is returned, not raised.
        """
        m, n = self._b.size, self._n
        tableau, basis, labels = self._tableau[:, : m + 1 + n], self._basis, self._labels[: m + 1 + n]
        calm, last = 0, self._labels[m]  # the iteration after the last nondegenerate pivot; no label reaches last
        entered, self._entered = self._entered, 0
        for it in range(MAX_ITERATIONS):
            keys = np.where(tableau[m] < -FEAS_TOL, labels, last)
            slot = int(keys.argmin())
            if keys[slot] == last:
                break
            column = tableau[:m, slot]
            eligible = column > PIVOT_TOL
            if not eligible.any():
                return LpSolution(UNBOUNDED, None, None, None, it + entered)
            least, near, pick = _ratio_test_one(tableau[:m, m], column, eligible)
            if it - calm >= DEGENERATE_RUN:
                pick |= near
            if least > PIVOT_TOL:
                calm = it + 1
            self._pivot(self._leaving(pick), slot)
        else:
            return NumericalFailure(f"simplex did not converge in {MAX_ITERATIONS} iterations")
        rows = basis > m  # the rows where a column is basic
        x = np.zeros(n)
        x[basis[rows] - (m + 1)] = tableau[:m, m][rows]
        y = self._costs.take(basis) @ tableau[:m, :m] + 0.0
        a, c = self._a[:, :n], self._costs[m + 1: m + 1 + n]
        certificate = _certificate_one(a, self._b, c, x, y)
        if not _certified(*certificate):
            x, y, *certificate = self._refine(x, y, certificate)
            if not _certified(*certificate):
                return _uncertified(*certificate[1:])
        return LpSolution(OPTIMAL, x, certificate[0], y, it + entered, *certificate[1:])

    def _refine(self, x: np.ndarray, y: np.ndarray, certificate: tuple) -> tuple:
        """x, y and the certificate of the LP refined once at its basis (_refined).

        If the refined point passes the certificate, its rows replace the
        tableau's and the cost row is priced afresh from them.  Where the
        basis is singular in floats, the LP keeps x, y and its certificate.
        """
        m, n = self._b.size, self._n
        tableau, basis = self._tableau[:, : m + 1 + n], self._basis
        # _refined's labels: the columns 0..n-1, then the slacks n..n+m-1.
        order = np.concatenate((np.arange(m + 1, m + 1 + n), np.arange(m)))  # tableau slot of each label
        basic = np.where(basis > m, basis - (m + 1), basis + n)
        nonbasic = np.setdiff1d(np.arange(n + m), basic)
        costs = self._costs[order]
        try:
            body, refined_y = _refined(self._a[None, :, :n], self._b[None], costs[None], basic[None], nonbasic[None])
        except np.linalg.LinAlgError:  # a singular basis in floats: the failure stands
            return (x, y, *certificate)
        columns = basic < n
        refined_x = np.zeros(n)
        refined_x[basic[columns]] = body[0, columns, -1]
        refined = _certificate(self._a[None, :, :n], self._b, costs[None, :n], refined_x[None], refined_y)
        if _certified(*refined)[0]:
            tableau[:m, order[nonbasic]] = body[0, :, :-1] + 0.0
            tableau[:m, m] = body[0, :, -1] + 0.0
            priced = self._costs.take(basis) @ tableau[:m]
            np.subtract(self._costs[: m + 1 + n], priced, out=tableau[m])
        return (refined_x, refined_y[0], *(float(v[0]) for v in refined))
