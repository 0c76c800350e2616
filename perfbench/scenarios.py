"""Scenario files for each workload, written at set-up from the workload seed.

A workload is a list of operations.  Each operation is one scenario: one
scenario file and the `cachecast` command lines run on it (two for a
dominance-chain scenario, which runs `rates achievable` and then `rates
degraded` on the same file).  One round runs every operation once; a run
repeats whole rounds, so every round attempts the same operations, and
the number of rounds depends only on the run's length (`rounds`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("bound-k6", "delivery-ladder", "simulate-1e6")

# ROADMAP item 1: `rates upper` exits 3 on this instance ("optimal basis
# fails feasibility recheck").  Kept verbatim and never relabelled.
ROADMAP_INSTANCE = {
    "num_users": 6,
    "num_levels": 4,
    "mu": "1/6",
    "ccdf": [
        [0.93, 0.89, 0.49, 0.36],
        [0.59, 0.57, 0.34, 0.32],
        [0.89, 0.62, 0.39, 0.23],
        [0.83, 0.79, 0.24, 0.08],
        [0.88, 0.34, 0.15, 0.06],
        [0.80, 0.45, 0.23, 0.05],
    ],
}

# Every CCDF grid that an LP is solved on is drawn from this fixed stream,
# not from the workload seed: the simplex fails (recheck, a false
# "unbounded", or a stall) on some draws and not others, and a failure that
# came and went with the seed would make `failed` differ between runs.
# The workload seed varies what
# leaves each LP unchanged: bound-k6 relabels the users of each grid (which
# permutes the 720 per-ordering LPs among themselves), delivery-ladder
# orders the round, and simulate-1e6 picks the Monte-Carlo seeds.
POOL_SEED = 1
BOUND_LEVELS = (3, 4, 5)
BOUND_USERS = 6

LADDER_LEVELS = 4
LADDER = ((7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (9, 3), (9, 4))
CHAIN = ((8, 3), (9, 3))

SIM_N = 1_000_000
SIM_TRACE_N = 100_000
SIM_SEEDS = 3
SIM_K6 = (6, 2, 5)  # users, t, levels
NONDEGRADED3 = Path("configs") / "nondegraded3.json"

# Wall time of one round of each workload on the 2-CPU machine the reference
# figures come from (README).  A run makes round(seconds / ROUND_SECONDS)
# rounds, at least one, fixed before it starts, so every run of the same
# length attempts the same operations on any machine.
ROUND_SECONDS = {"bound-k6": 7.5, "delivery-ladder": 9.5, "simulate-1e6": 4.4}


@dataclass(frozen=True)
class Operation:
    """One scenario: a file and the CLI calls made on it, in order."""

    name: str
    config: Path
    calls: tuple[tuple[str, ...], ...]
    sim: dict = field(default_factory=dict)  # n, seed, trace flag (simulate only)


def sorted_uniform_ccdf(rng: np.random.Generator, users: int, levels: int) -> np.ndarray:
    """Each user's row: `levels` uniform draws sorted nonincreasing."""
    return np.sort(rng.random((users, levels)), axis=1)[:, ::-1]


def chain_ccdf(rng: np.random.Generator, users: int, levels: int) -> np.ndarray:
    """Rows that form a dominance chain, in a seeded user order.

    Sorting a column-sorted matrix along its rows keeps the columns sorted,
    so row k+1 dominates row k levelwise before the users are shuffled.
    """
    grid = np.sort(np.sort(rng.random((users, levels)), axis=0), axis=1)[:, ::-1]
    return grid[rng.permutation(users)]


def write_scenario(path: Path, users: int, levels: int, mu: str, ccdf) -> Path:
    scenario = {
        "num_users": users,
        "num_levels": levels,
        "mu": mu,
        "ccdf": [[float(v) for v in row] for row in ccdf],
    }
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def bound_k6(seed: int, outdir: Path) -> list[Operation]:
    pool = np.random.default_rng(POOL_SEED)
    relabel = np.random.default_rng(seed)
    upper = ("rates", "upper", "--json")
    ops = []
    for t in range(1, BOUND_USERS):
        levels = BOUND_LEVELS[(t - 1) % len(BOUND_LEVELS)]
        grid = sorted_uniform_ccdf(pool, BOUND_USERS, levels)[relabel.permutation(BOUND_USERS)]
        name = f"bound-B{levels}-t{t}"
        path = write_scenario(outdir / f"{name}.json", BOUND_USERS, levels, f"{t}/{BOUND_USERS}", grid)
        ops.append(Operation(name, path, (upper,)))
    roadmap = outdir / "bound-roadmap-item1.json"
    roadmap.write_text(json.dumps(ROADMAP_INSTANCE), encoding="utf-8")
    ops.append(Operation("bound-roadmap-item1", roadmap, (upper,)))
    return ops


def delivery_ladder(seed: int, outdir: Path) -> list[Operation]:
    rng = np.random.default_rng([POOL_SEED, 1])
    achievable = ("rates", "achievable", "--json")
    ops = []
    for users, t in LADDER:
        name = f"ladder-K{users}-t{t}"
        grid = sorted_uniform_ccdf(rng, users, LADDER_LEVELS)
        path = write_scenario(outdir / f"{name}.json", users, LADDER_LEVELS, f"{t}/{users}", grid)
        ops.append(Operation(name, path, (achievable,)))
    for users, t in CHAIN:
        name = f"chain-K{users}-t{t}"
        grid = chain_ccdf(rng, users, LADDER_LEVELS)
        path = write_scenario(outdir / f"{name}.json", users, LADDER_LEVELS, f"{t}/{users}", grid)
        ops.append(Operation(name, path, (achievable, ("rates", "degraded", "--json"))))
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]


def simulate_1e6(seed: int, outdir: Path, root: Path) -> list[Operation]:
    users, t, levels = SIM_K6
    k6 = write_scenario(
        outdir / "sim-K6.json", users, levels, f"{t}/{users}",
        sorted_uniform_ccdf(np.random.default_rng([POOL_SEED, 2]), users, levels),
    )
    configs = (("sim-K3", root / NONDEGRADED3), ("sim-K6", k6))
    sim_seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=SIM_SEEDS + 1)]
    ops = []
    for i, sim_seed in enumerate(sim_seeds[:SIM_SEEDS]):
        for label, path in configs:
            ops.append(_simulate_op(f"{label}-n1e6-s{i}", path, SIM_N, sim_seed, False))
    for label, path in configs:
        ops.append(_simulate_op(f"{label}-n1e5-trace", path, SIM_TRACE_N, sim_seeds[-1], True))
    return ops


def _simulate_op(name: str, path: Path, n: int, sim_seed: int, trace: bool) -> Operation:
    call = ("simulate", "--json", "--n", str(n), "--seed", str(sim_seed))
    return Operation(name, path, (call,), {"n": n, "seed": sim_seed, "trace": trace})


def rounds(workload: str, seconds: float) -> int:
    """Whole rounds a run of `seconds` makes."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def build(workload: str, seed: int, outdir: Path, root: Path) -> list[Operation]:
    """Write the workload's scenario files under outdir; return its operations."""
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "bound-k6":
        return bound_k6(seed, outdir)
    if workload == "delivery-ladder":
        return delivery_ladder(seed, outdir)
    if workload == "simulate-1e6":
        return simulate_1e6(seed, outdir, root)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
