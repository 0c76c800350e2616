"""Independent references and output checks for the three workloads.

Nothing here imports `cachecast`.  The LPs are built from the formulations
in the `upper_bound` and `lp_scheme` module docstrings and solved with
HiGHS (`scipy.optimize.linprog(method="highs")`); cache coverage comes from
the closed form for the central placement.  Each check returns a list of
problems, empty when the output is correct.  Every comparison is written so
that a NaN fails it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

VALUE_TOL = 1e-6     # rates, bound values, table entries
FEAS_TOL = 1e-9      # share feasibility
SIGMAS = 5.0         # Monte-Carlo checks
CEIL_GUARD = 1e-9    # guard in the required-symbol count

# How the one kept failure reads: `rates upper` exits 3 with the recheck
# NumericalFailure raised in lp.solve_lp.
KNOWN_FAILURE_CODE = 3
KNOWN_FAILURE_TEXT = "fails feasibility recheck"


def central_gap(users: int, mu: Fraction, prefix: int) -> Fraction:
    """1 - coverage of any `prefix` users under the central placement.

    With t = floor(mu*K) and lam = mu*K - t, a size-t subset's slice misses
    the union of q caches exactly when the subset avoids all q users:
    C(K-q, t) of C(K, t) slices of the first (1-lam), and likewise for
    size-(t+1) subsets on the remaining lam.
    """
    t = math.floor(mu * users)
    lam = mu * users - t
    gap = (1 - lam) * Fraction(math.comb(users - prefix, t), math.comb(users, t))
    if lam > 0:
        gap += lam * Fraction(math.comb(users - prefix, t + 1), math.comb(users, t + 1))
    return gap


def _highs(c, a_ub, b_ub, a_eq=None, b_eq=None, bounds=(0, None)):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference LP failed: {res.message}")
    return res


def ordering_values(ccdf: np.ndarray, mu: Fraction) -> dict[tuple[int, ...], float]:
    """Value of every per-ordering bound LP, keyed by 1-based ordering.

    All K! LPs go to HiGHS as one block-diagonal LP: blocks share no
    variable or row, so the joint optimum is optimal on every block and
    each block's objective is that ordering's value.
    """
    users, levels = ccdf.shape
    gaps = [float(central_gap(users, mu, q)) for q in range(1, users + 1)]
    orders = list(permutations(range(1, users + 1)))
    values = {pi: math.inf for pi in orders}
    if gaps[0] == 0.0:
        return values  # sigma_1 pinned to 0 contradicts sum(sigma) = 1
    width = users + levels
    rows, cols, data = [], [], []
    eq_rows, eq_cols = [], []
    n_ub = 0
    for b, pi in enumerate(orders):
        base = b * width
        for k in range(users):
            for l in range(levels):
                # sigma_k * ccdf[pi(k)][l] <= gap_k * theta_l
                rows += [n_ub, n_ub]
                cols += [base + k, base + users + l]
                data += [ccdf[pi[k] - 1, l], -gaps[k]]
                n_ub += 1
        for k in range(1, users):
            # sigma_k * gap_{k-1} <= sigma_{k-1} * gap_k
            rows += [n_ub, n_ub]
            cols += [base + k, base + k - 1]
            data += [gaps[k - 1], -gaps[k]]
            n_ub += 1
        eq_rows += [b] * users
        eq_cols += [base + k for k in range(users)]
    n_vars = len(orders) * width
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(n_ub, n_vars))
    a_eq = sparse.csr_matrix((np.ones(len(eq_rows)), (eq_rows, eq_cols)), shape=(len(orders), n_vars))
    block_cost = np.concatenate([np.zeros(users), np.ones(levels)])
    bounds = [
        (0.0, 0.0) if k < users and gaps[k] == 0.0 else (0.0, None)
        for _ in orders
        for k in range(width)
    ]
    res = _highs(np.tile(block_cost, len(orders)), a_ub, np.zeros(n_ub), a_eq, np.ones(len(orders)), bounds)
    x = res.x.reshape(len(orders), width)
    return {pi: float(x[b, users:].sum()) for b, pi in enumerate(orders)}


def weighted_objective(ccdf: np.ndarray, mu: Fraction, weights) -> float:
    """The bound's ratio at one weight vector (users by weight, ties by id)."""
    w = np.asarray(weights, dtype=float)
    users = ccdf.shape[0]
    order = sorted(range(users), key=lambda k: (-w[k], k))
    denominator = sum(w[k] * float(central_gap(users, mu, q)) for q, k in enumerate(order, start=1))
    numerator = float(np.max(w[:, None] * ccdf, axis=0).sum())
    return numerator / denominator


def delivery_rate(ccdf: np.ndarray, t: int) -> float:
    """HiGHS optimum of the time-sharing delivery LP at subpacketization t."""
    users, levels = ccdf.shape
    subsets = list(combinations(range(users), t + 1))
    n_y = levels * len(subsets)
    pieces = math.comb(users, t)
    rows, cols, data = [], [], []
    r = 0
    for j, s in enumerate(subsets):
        for k in s:
            # f / C(K,t) - sum_l ccdf[k][l] * y[l][S] <= 0
            rows.append(r); cols.append(n_y); data.append(1.0 / pieces)
            for l in range(levels):
                rows.append(r); cols.append(l * len(subsets) + j); data.append(-ccdf[k, l])
            r += 1
    for l in range(levels):
        for j in range(len(subsets)):
            rows.append(r); cols.append(l * len(subsets) + j); data.append(1.0)
        r += 1
    a_ub = sparse.csr_matrix((data, (rows, cols)), shape=(r, n_y + 1))
    b_ub = np.concatenate([np.zeros(r - levels), np.ones(levels)])
    c = np.zeros(n_y + 1)
    c[-1] = -1.0
    return float(-_highs(c, a_ub, b_ub).fun)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))


class ScenarioRefs:
    """References for one scenario file, computed on first use."""

    def __init__(self, scenario: dict):
        self.ccdf = np.asarray(scenario["ccdf"], dtype=float)
        self.users, self.levels = self.ccdf.shape
        self.mu = Fraction(str(scenario["mu"]))
        self._table = None
        self._rate = None

    @property
    def t(self) -> int:
        return int(self.mu * self.users)

    @property
    def table(self) -> dict[tuple[int, ...], float]:
        if self._table is None:
            self._table = ordering_values(self.ccdf, self.mu)
        return self._table

    @property
    def rate(self) -> float:
        if self._rate is None:
            self._rate = delivery_rate(self.ccdf, self.t)
        return self._rate


def check_upper(refs: ScenarioRefs, out: dict) -> list[str]:
    """`rates upper --json`: every table entry, the minimum, omega_star, sandwich."""
    problems = []
    expected = refs.table
    got = {tuple(row["pi"]): row["value"] for row in out["table"]}
    if len(out["table"]) != len(expected) or set(got) != set(expected):
        problems.append(f"table has {len(out['table'])} orderings, want all {len(expected)}")
    errors = [
        abs(got[pi] - v) if math.isfinite(v) else float(got[pi] != v)
        for pi, v in expected.items()
        if pi in got
    ]
    off = [e for e in errors if not e <= VALUE_TOL]
    if off:
        problems.append(f"{len(off)} table entries off the HiGHS value, e.g. by {off[0]:.3g}")
    best = min(expected.values())
    if not _close(out["value"], best):
        problems.append(f"value {out['value']!r} != HiGHS minimum {best!r}")
    if not _close(weighted_objective(refs.ccdf, refs.mu, out["omega_star"]), out["value"]):
        problems.append("objective at omega_star differs from the reported value")
    if not out["value"] >= refs.rate - VALUE_TOL:
        problems.append(f"bound {out['value']!r} below the achievable rate {refs.rate!r}")
    return problems


def check_shares(refs: ScenarioRefs, rate: float, subsets, shares) -> list[str]:
    """Shares >= 0, each level's total <= 1, every decodability margin >= 0."""
    y = np.asarray(shares, dtype=float)
    problems = []
    if y.shape != (refs.levels, math.comb(refs.users, refs.t + 1)):
        return [f"shares have shape {y.shape}"]
    if not np.all(np.isfinite(y)):
        return ["shares are not all finite"]
    if y.min() < -FEAS_TOL:
        problems.append(f"negative share {y.min():.3g}")
    if y.sum(axis=1).max() > 1.0 + FEAS_TOL:
        problems.append(f"a level is over budget by {y.sum(axis=1).max() - 1.0:.3g}")
    required = rate / math.comb(refs.users, refs.t)
    for j, s in enumerate(subsets):
        for k in s:
            margin = float(refs.ccdf[k - 1] @ y[:, j]) - required
            if not margin >= -FEAS_TOL:
                problems.append(f"user {k} on {s} short by {-margin:.3g}")
    return problems


def check_achievable(refs: ScenarioRefs, out: dict) -> list[str]:
    """`rates achievable --json`: rate against HiGHS, shares feasible."""
    problems = []
    if not _close(out["value"], refs.rate):
        problems.append(f"rate {out['value']!r} != HiGHS optimum {refs.rate!r}")
    return problems + check_shares(refs, out["value"], out["subsets"], out["shares"])


def check_degraded(refs: ScenarioRefs, out: dict, achievable: dict) -> list[str]:
    """`rates degraded --json` on a chain: same rate as `rates achievable`."""
    problems = []
    if not _close(out["rate"], achievable["value"]):
        problems.append(f"degraded rate {out['rate']!r} != achievable {achievable['value']!r}")
    if not out["feasible"]:
        problems.append("degraded subset mapping reported infeasible")
    return problems


def check_simulation(refs: ScenarioRefs, out: dict, n: int, seed: int) -> list[str]:
    """`simulate --json`: rate, symbol counts, and 5-sigma agreement."""
    problems = []
    if out["n"] != n or out["seed"] != seed or out["t"] != refs.t:
        problems.append("n, seed or t differ from the scenario")
    if not _close(out["rate"], refs.rate):
        problems.append(f"rate {out['rate']!r} != HiGHS optimum {refs.rate!r}")
        if not math.isfinite(out["rate"]):
            return problems
    pieces = math.comb(refs.users, refs.t)
    required = math.ceil(n * out["rate"] / pieces - CEIL_GUARD)
    expected_msgs = {(k, s) for s in combinations(range(1, refs.users + 1), refs.t + 1) for k in s}
    got_msgs = {(m["user"], tuple(m["subset"])) for m in out["messages"]}
    if got_msgs != expected_msgs or len(out["messages"]) != len(expected_msgs):
        problems.append("messages do not list every (user, subset) pair once")
    for m in out["messages"]:
        label = f"user {m['user']} on {tuple(m['subset'])}"
        if m["required"] != required:
            problems.append(f"{label}: required {m['required']} != {required}")
        if m["decodable"] != (m["delivered"] >= m["required"]):
            problems.append(f"{label}: decodable flag disagrees with the counts")
        # At most B levels of n uses, each with variance at most 1/4.
        if not 0.0 < m["std_error"] <= 0.5 * math.sqrt(refs.levels / n) * (1 + 1e-9):
            problems.append(f"{label}: std_error {m['std_error']!r} outside (0, sqrt(B/n)/2]")
        if not abs(m["empirical_margin"] - m["analytic_margin"]) <= SIGMAS * m["std_error"]:
            problems.append(f"{label}: empirical margin beyond {SIGMAS:g} sigma of the analytic one")
    hat = np.asarray(out["empirical_ccdf"], dtype=float)
    if hat.shape != refs.ccdf.shape:
        return problems + [f"empirical_ccdf has shape {hat.shape}"]
    sigma = np.sqrt(refs.ccdf * (1.0 - refs.ccdf) / n)
    if not np.all(np.abs(hat - refs.ccdf) <= SIGMAS * sigma):
        problems.append(f"empirical CCDF beyond {SIGMAS:g} sigma of the input")
    return problems


def check_trace(refs: ScenarioRefs, path, out: dict, n: int) -> list[str]:
    """A `--trace` CSV: n rows of K levels in 0..B matching empirical_ccdf."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    if header != [f"user{k}" for k in range(1, refs.users + 1)]:
        return [f"trace header {header[:3]}..."]
    rows = body.split()
    if len(rows) != n:
        return [f"trace has {len(rows)} rows, want {n}"]
    try:
        levels = np.array([r.split(",") for r in rows], dtype=np.int64)
    except ValueError:
        return ["trace rows are not all K integers"]
    if levels.shape != (n, refs.users):
        return [f"trace rows have shape {levels.shape}"]
    if levels.min() < 0 or levels.max() > refs.levels:
        return [f"trace levels outside 0..{refs.levels}"]
    counts = np.stack([(levels >= l).sum(axis=0) for l in range(1, refs.levels + 1)], axis=1)
    if not np.all(np.abs(counts / n - np.asarray(out["empirical_ccdf"])) <= 1e-12):
        return ["trace level frequencies differ from empirical_ccdf"]
    return []
