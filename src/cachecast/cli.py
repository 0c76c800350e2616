"""Command-line interface: scenario files in, rates and reports out.

A scenario is a single JSON object:

    {
      "num_users": 3, "num_levels": 3,
      "ccdf": [[0.9, 0.3, 0.3], [0.7, 0.4, 0.4], [0.5, 0.5, 0.5]],
      "mu": "1/3",                      # exact fraction string
      "caching": [[["0", "1/3"]], ...], # optional explicit intervals
      "demands": [1, 2, 3],             # optional labels, distinct file ids
      "num_files": 3,                   # optional, must be >= num_users
      "simulation": {"n": 100000, "seed": 1}
    }

Exit codes: 0 success, 2 validation error (bad config or arguments),
3 solver failure.  Rates print with 6 significant digits; JSON reports
carry full precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import caching, channel, degraded, lp_scheme, simulator, two_user, upper_bound
from .errors import BadT, NonIntegerT, NotDegraded, SolverError, ValidationError


@dataclass(frozen=True)
class ScenarioConfig:
    stats: channel.ChannelStats
    mu: Fraction
    strategy: caching.CachingStrategy
    demands: Optional[tuple[int, ...]]
    num_files: Optional[int]
    sim_n: Optional[int]
    sim_seed: Optional[int]


def _fail(message: str) -> ValidationError:
    return ValidationError(f"config: {message}")


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file, with pointed diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise _fail("top level must be an object")

    for field in ("num_users", "num_levels", "ccdf", "mu"):
        if field not in raw:
            raise _fail(f"missing field '{field}'")
    num_users, num_levels = raw["num_users"], raw["num_levels"]
    if not isinstance(num_users, int) or num_users < 1:
        raise _fail("'num_users' must be a positive integer")
    if not isinstance(num_levels, int) or num_levels < 1:
        raise _fail("'num_levels' must be a positive integer")
    ccdf = raw["ccdf"]
    if not isinstance(ccdf, list) or len(ccdf) != num_users:
        raise _fail(f"'ccdf' must list {num_users} rows")
    for k, row in enumerate(ccdf, start=1):
        if not isinstance(row, list) or len(row) != num_levels:
            raise _fail(f"'ccdf' row {k} must list {num_levels} probabilities")
    stats = channel.validate_stats(ccdf)

    try:
        mu = Fraction(str(raw["mu"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(f"'mu' is not a fraction: {raw['mu']!r}") from exc
    if not 0 <= mu <= 1:
        raise _fail("'mu' must lie in [0, 1]")

    if "caching" in raw:
        try:
            intervals = [
                [(Fraction(str(a)), Fraction(str(b))) for a, b in user_iv]
                for user_iv in raw["caching"]
            ]
        except (TypeError, ValueError) as exc:
            raise _fail("'caching' must list [lo, hi] fraction pairs per user") from exc
        if len(intervals) != num_users:
            raise _fail(f"'caching' must list intervals for {num_users} users")
        strategy = caching.strategy_from_intervals(intervals, mu)
    else:
        strategy = caching.central_strategy(num_users, mu)

    demands = None
    num_files = raw.get("num_files")
    if num_files is not None and (not isinstance(num_files, int) or num_files < num_users):
        raise _fail("'num_files' must be an integer >= num_users")
    if "demands" in raw:
        demands_raw = raw["demands"]
        if (
            not isinstance(demands_raw, list)
            or len(demands_raw) != num_users
            or len(set(demands_raw)) != num_users
            or not all(isinstance(d, int) and d >= 1 for d in demands_raw)
        ):
            raise _fail("'demands' must list one distinct file id per user")
        ceiling = num_files if num_files is not None else max(demands_raw)
        if max(demands_raw) > ceiling:
            raise _fail("'demands' exceed 'num_files'")
        if ceiling < num_users:
            raise _fail("need at least as many files as users")
        demands = tuple(demands_raw)

    sim = raw.get("simulation", {})
    if not isinstance(sim, dict):
        raise _fail("'simulation' must be an object")
    sim_n, sim_seed = sim.get("n"), sim.get("seed")
    if sim_n is not None and (not isinstance(sim_n, int) or sim_n < 1):
        raise _fail("'simulation.n' must be a positive integer")
    if sim_seed is not None and not isinstance(sim_seed, int):
        raise _fail("'simulation.seed' must be an integer")

    return ScenarioConfig(
        stats=stats,
        mu=mu,
        strategy=strategy,
        demands=demands,
        num_files=num_files,
        sim_n=sim_n,
        sim_seed=sim_seed,
    )


def _sig(x: float) -> str:
    return f"{x:.6g}"


def _emit(args: argparse.Namespace, payload: dict, text: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text:
            print(line)


def _subset_label(subset) -> str:
    return "{" + ",".join(str(k) for k in subset) + "}"


def cmd_rates_two_user(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    mu = float(cfg.mu)
    rate = two_user.optimal_rate_two_user(cfg.stats, mu)
    payload: dict = {"command": "rates.two-user", "mu": str(cfg.mu), "rate": rate}
    text = [f"rate: {_sig(rate)}"]
    if mu <= 0.5:
        alloc = two_user.achievable_allocation_two_user(cfg.stats, mu)
        payload["allocation"] = {
            "u": alloc.u,
            "v": alloc.v,
            "alpha": alloc.alpha,
            "beta": alloc.beta,
            "level_order": list(alloc.level_order),
            "f1": alloc.f1,
            "f2": alloc.f2,
            "individual_size": alloc.individual_size,
            "common_size": alloc.common_size,
            "margins": list(alloc.margins),
        }
        text.append(
            f"split: u={alloc.u} alpha={_sig(alloc.alpha)}"
            f" | v={alloc.v} beta={_sig(alloc.beta)}"
            f" (levels ordered {','.join(map(str, alloc.level_order))})"
        )
        text.append(
            f"messages: individual {_sig(alloc.individual_size)} each,"
            f" common {_sig(alloc.common_size)}"
        )
    _emit(args, payload, text)


def cmd_rates_degraded(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    result = degraded.degraded_optimal_rate(cfg.stats, cfg.mu)
    chain = degraded.chain_stats(cfg.stats, result.user_order)
    alloc = degraded.z_to_y(result.z, cfg.stats.num_users, result.t, result.rate)
    report = lp_scheme.check_allocation(chain, alloc)
    payload = {
        "command": "rates.degraded",
        "mu": str(cfg.mu),
        "rate": result.rate,
        "t": result.t,
        "user_order": list(result.user_order),
        "z": result.z.tolist(),
        "subsets": [list(s) for s in alloc.subsets],
        "y": alloc.shares.tolist(),
        "feasible": report.feasible,
    }
    text = [
        f"rate: {_sig(result.rate)}",
        f"chain order (weakest first): {','.join(map(str, result.user_order))}",
        f"subset mapping feasible: {report.feasible}",
    ]
    _emit(args, payload, text)


def cmd_rates_upper(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    tup = caching.caching_tuple(cfg.strategy)
    report = upper_bound.upper_bound_rate(cfg.stats, tup)
    payload = {
        "command": "rates.upper",
        "mu": str(cfg.mu),
        "value": report.value,
        "argmin_pi": list(report.argmin_pi),
        "omega_star": list(report.omega_star),
        "omega_star_unique": report.omega_star_unique,
        "table": [{"pi": list(pi), "value": value} for pi, value in report.table],
    }
    text = [
        f"bound: {_sig(report.value)}",
        f"ordering: {','.join(map(str, report.argmin_pi))}",
        f"weights: ({', '.join(_sig(w) for w in report.omega_star)})"
        + ("" if report.omega_star_unique else "  [not unique]"),
    ]
    if args.table:
        text.append("per-ordering values:")
        for pi, value in report.table:
            text.append(f"  ({','.join(map(str, pi))})  {_sig(value)}")
    _emit(args, payload, text)


def cmd_rates_achievable(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    alloc = lp_scheme.achievable_rate_lp(cfg.stats, cfg.mu)
    report = lp_scheme.check_allocation(cfg.stats, alloc)
    if args.dump_matrices:
        _dump_matrices(cfg.stats, alloc.t, args.dump_matrices)
    payload = {
        "command": "rates.achievable",
        "mu": str(cfg.mu),
        "value": alloc.rate,
        "t": alloc.t,
        "subsets": [list(s) for s in alloc.subsets],
        "shares": alloc.shares.tolist(),
        "required": report.required,
        "margins": [
            {"user": k, "subset": list(s), "margin": m}
            for (k, s), m in report.margins.items()
        ],
        "level_slacks": report.level_slacks.tolist(),
        "feasible": report.feasible,
    }
    text = [f"rate: {_sig(alloc.rate)} (t={alloc.t})"]
    for (k, s), m in report.margins.items():
        text.append(f"  user {k} on {_subset_label(s)}: margin {_sig(m)}")
    _emit(args, payload, text)


def _dump_matrices(stats: channel.ChannelStats, t: int, prefix: str) -> None:
    built = lp_scheme.build_delivery_lp(stats, t)
    n_decode = len(built.decode_rows)
    columns = [
        f"y(l={l};S={'+'.join(map(str, s))})"
        for l in range(1, built.num_levels + 1)
        for s in built.subsets
    ] + ["f"]
    with open(f"{prefix}_G.csv", "w", encoding="utf-8") as fh:
        fh.write("row," + ",".join(columns) + "\n")
        for r, (k, s) in enumerate(built.decode_rows):
            label = f"decode(k={k};S={'+'.join(map(str, s))})"
            cells = ",".join(repr(float(v)) for v in built.problem.a_ub[r])
            fh.write(f"{label},{cells}\n")
    with open(f"{prefix}_H.csv", "w", encoding="utf-8") as fh:
        fh.write("row," + ",".join(columns) + "\n")
        for l in range(built.num_levels):
            label = f"level({l + 1})"
            cells = ",".join(repr(float(v)) for v in built.problem.a_ub[n_decode + l])
            fh.write(f"{label},{cells}\n")


def cmd_simulate(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    n = args.n if args.n is not None else cfg.sim_n
    seed = args.seed if args.seed is not None else cfg.sim_seed
    if n is None:
        raise ValidationError("simulate: need --n or a 'simulation.n' config entry")
    if seed is None:
        raise ValidationError("simulate: need --seed or a 'simulation.seed' config entry")
    alloc = lp_scheme.achievable_rate_lp(cfg.stats, cfg.mu)
    report = simulator.simulate_delivery(cfg.stats, alloc, n, seed)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"user{k}" for k in range(1, cfg.stats.num_users + 1)) + "\n")
            np.savetxt(fh, report.realization.levels.T, fmt="%d", delimiter=",")
    payload = {
        "command": "simulate",
        "n": report.num_uses,
        "seed": report.seed,
        "rate": report.rate,
        "t": report.t,
        "messages": [
            {
                "user": m.user,
                "subset": list(m.subset),
                "delivered": m.delivered,
                "required": m.required,
                "empirical_margin": m.empirical_margin,
                "analytic_margin": m.analytic_margin,
                "std_error": m.std_error,
                "decodable": m.decodable,
            }
            for m in report.messages
        ],
        "user_decodable": list(report.user_decodable),
        "empirical_ccdf": report.empirical_ccdf.tolist(),
        "ccdf_std_error": report.ccdf_std_error.tolist(),
    }
    text = [f"simulated {report.num_uses} uses at rate {_sig(report.rate)} (seed {report.seed})"]
    for m in report.messages:
        flag = "ok" if m.decodable else "SHORT"
        text.append(
            f"  user {m.user} on {_subset_label(m.subset)}: {m.delivered}/{m.required}"
            f" symbols, margin {_sig(m.empirical_margin)} [{flag}]"
        )
    text.append(
        "users decodable: "
        + ", ".join(
            f"{k}:{'yes' if ok else 'no'}"
            for k, ok in enumerate(report.user_decodable, start=1)
        )
    )
    _emit(args, payload, text)


def _parse_mu_range(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--mu expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"--mu parts must be fractions: {text!r}") from exc
    if step <= 0:
        raise ValidationError("--mu step must be positive")
    if stop < start:
        raise ValidationError("--mu stop must be >= start")
    values = []
    mu = start
    while mu <= stop:
        values.append(mu)
        mu += step
    return values


def cmd_sweep(args: argparse.Namespace) -> None:
    cfg = load_config(args.config)
    rows = []
    for mu in _parse_mu_range(args.mu):
        if not 0 <= mu <= 1:
            raise ValidationError(f"sweep mu {mu} outside [0, 1]")
        try:
            f_lp = lp_scheme.achievable_rate_lp(cfg.stats, mu).rate
        except (NonIntegerT, BadT):
            f_lp = None
        tup = caching.caching_tuple(caching.central_strategy(cfg.stats.num_users, mu))
        f_upper = upper_bound.upper_bound_rate(cfg.stats, tup).value
        try:
            f_deg = degraded.degraded_optimal_rate(cfg.stats, mu).rate
        except (NotDegraded, NonIntegerT, BadT):
            f_deg = None
        rows.append({"mu": mu, "f_lp": f_lp, "f_star_upper": f_upper, "f_bar_degraded": f_deg})
    if args.json:
        print(json.dumps({
            "command": "sweep",
            "rows": [
                {
                    "mu": str(r["mu"]),
                    "f_lp": r["f_lp"],
                    "f_star_upper": r["f_star_upper"],
                    "f_bar_degraded": r["f_bar_degraded"],
                }
                for r in rows
            ],
        }))
    else:
        print("mu,f_lp,f_star_upper,f_bar_degraded")
        for r in rows:
            cells = [str(r["mu"])] + [
                "" if r[key] is None else repr(r[key])
                for key in ("f_lp", "f_star_upper", "f_bar_degraded")
            ]
            print(",".join(cells))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecast",
        description="Source-rate bounds and delivery allocations for cache-aided"
        " level-erasure broadcast scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="compute rate bounds and optima")
    modes = rates.add_subparsers(dest="mode", required=True)

    p = modes.add_parser("two-user", help="exact two-user optimum and band split")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rates_two_user)

    p = modes.add_parser("degraded", help="chain LP optimum with subset mapping")
    p.add_argument("config")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rates_degraded)

    p = modes.add_parser("upper", help="weighted-maximum rate ceiling")
    p.add_argument("config")
    p.add_argument("--table", action="store_true", help="print every ordering's value")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rates_upper)

    p = modes.add_parser("achievable", help="time-sharing delivery LP")
    p.add_argument("config")
    p.add_argument(
        "--dump-matrices",
        metavar="PREFIX",
        help="write the LP blocks to PREFIX_G.csv and PREFIX_H.csv",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rates_achievable)

    p = sub.add_parser("simulate", help="Monte-Carlo check of the LP allocation")
    p.add_argument("config")
    p.add_argument("--n", type=int, help="number of channel uses")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--trace", metavar="PATH", help="dump sampled user levels as CSV")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="rates across a range of cache sizes")
    p.add_argument("config")
    p.add_argument("--mu", required=True, metavar="START:STOP:STEP")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
