"""Command-line interface: scenario files in, rates and reports out.

A scenario is a single JSON object:

    {
      "num_users": 3, "num_levels": 3,
      "ccdf": [[0.9, 0.3, 0.3], [0.7, 0.4, 0.4], [0.5, 0.5, 0.5]],
      "mu": "1/3",                      # exact fraction string
      "caching": [[["0", "1/3"]], ...], # optional explicit intervals (rates upper)
      "simulation": {"n": 100000, "seed": 1}
    }

Unknown fields are rejected.  `main` loads the scenario once and hands it
to the command's `cmd_*` function, which returns the JSON payload with
--json and the text lines without it, building only the one it returns;
`main` writes it.

Exit codes: 0 success, 2 validation error (bad config or arguments),
3 solver failure.  Rates print with 6 significant digits; JSON reports
carry full precision, and a non-finite float is written as the string
"inf" (or "-inf", "nan"), since JSON has no token for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

import numpy as np

from . import caching, channel, degraded, lp_scheme, simulator, two_user, upper_bound
from .errors import BadT, NonIntegerT, NotDegraded, SolverError, ValidationError

CONFIG_FIELDS = ("num_users", "num_levels", "ccdf", "mu", "caching", "simulation")
SIMULATION_FIELDS = ("n", "seed")  # the optional "simulation" object

# Report fields written to the JSON payloads, in output order.
TWO_USER_FIELDS = (
    "u", "v", "alpha", "beta", "level_order", "f1", "f2", "individual_size", "common_size", "margins"
)
SIMULATE_FIELDS = ("seed", "rate", "t", "messages", "user_decodable", "empirical_ccdf", "ccdf_std_error")

_NON_FINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}

# What a command returns: the JSON payload with --json, else the text lines.
Output = Union[dict, list[str]]


@dataclass(frozen=True)
class ScenarioConfig:
    stats: channel.ChannelStats
    mu: Fraction
    strategy: Optional[caching.CachingStrategy]  # None: the central placement
    sim_n: Optional[int]
    sim_seed: Optional[int]


def _fail(message: str) -> ValidationError:
    return ValidationError(f"config: {message}")


def _integer(value, name: str, minimum: int = 1) -> Optional[int]:
    """value if it is None or an integer >= minimum; a boolean is not an integer."""
    if value is not None and (type(value) is not int or value < minimum):
        raise _fail(f"'{name}' must be a {'positive' if minimum else 'nonnegative'} integer")
    return value


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
    sim = raw.get("simulation", {})
    if not isinstance(sim, dict):
        raise _fail("'simulation' must be an object")
    unknown = [k for k in raw if k not in CONFIG_FIELDS]
    unknown += [f"simulation.{k}" for k in sim if k not in SIMULATION_FIELDS]
    if unknown:
        raise _fail("unknown field " + ", ".join(f"'{k}'" for k in unknown))

    for field in ("num_users", "num_levels", "ccdf", "mu"):
        if raw.get(field) is None:
            raise _fail(f"missing field '{field}'")
    num_users = _integer(raw["num_users"], "num_users")
    num_levels = _integer(raw["num_levels"], "num_levels")
    ccdf = raw["ccdf"]
    if not isinstance(ccdf, list) or len(ccdf) != num_users:
        raise _fail(f"'ccdf' must list {num_users} rows")
    for k, row in enumerate(ccdf, start=1):
        if not isinstance(row, list) or len(row) != num_levels:
            raise _fail(f"'ccdf' row {k} must list {num_levels} probabilities")
    stats = channel.validate_stats(ccdf)

    try:
        mu = caching.cache_size(Fraction(str(raw["mu"])))
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(f"'mu' is not a fraction: {raw['mu']!r}") from exc

    strategy = None
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

    sim_n = _integer(sim.get("n"), "simulation.n")
    sim_seed = _integer(sim.get("seed"), "simulation.seed", minimum=0)

    return ScenarioConfig(stats=stats, mu=mu, strategy=strategy, sim_n=sim_n, sim_seed=sim_seed)


def _jsonable(obj):
    """What json cannot write itself: dataclasses by field, arrays, fractions."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def to_json(payload: dict) -> str:
    """Strict JSON: a non-finite float becomes its text form, such as "inf"."""
    try:
        return json.dumps(payload, default=_jsonable, allow_nan=False)
    except ValueError:
        # Only a payload holding a non-finite float takes this second pass.
        loose = json.dumps(payload, default=_jsonable)
        return json.dumps(json.loads(loose, parse_constant=_NON_FINITE.__getitem__))


def _named(obj, names: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in names}


def _sig(x: float) -> str:
    return f"{x:.6g}"


def _subset_label(subset) -> str:
    return "{" + ",".join(str(k) for k in subset) + "}"


def cmd_rates_two_user(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    rate = two_user.optimal_rate_two_user(cfg.stats, cfg.mu)
    alloc = two_user.achievable_allocation_two_user(cfg.stats, cfg.mu) if cfg.mu <= Fraction(1, 2) else None
    if args.json:
        payload: dict = {"command": "rates.two-user", "mu": cfg.mu, "rate": rate}
        if alloc is not None:
            payload["allocation"] = _named(alloc, TWO_USER_FIELDS)
        return payload
    text = [f"rate: {_sig(rate)}"]
    if alloc is not None:
        text.append(
            f"split: u={alloc.u} alpha={_sig(alloc.alpha)}"
            f" | v={alloc.v} beta={_sig(alloc.beta)}"
            f" (levels ordered {','.join(map(str, alloc.level_order))})"
        )
        text.append(
            f"messages: individual {_sig(alloc.individual_size)} each,"
            f" common {_sig(alloc.common_size)}"
        )
    return text


def cmd_rates_degraded(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    result = degraded.degraded_optimal_rate(cfg.stats, cfg.mu)
    chain = degraded.chain_stats(cfg.stats, result.user_order)
    alloc = degraded.z_to_y(result.z, cfg.stats.num_users, result.t, result.rate)
    report = lp_scheme.check_allocation(chain, alloc)
    if args.json:
        return {
            "command": "rates.degraded",
            "mu": cfg.mu,
            "rate": result.rate,
            "t": result.t,
            "user_order": result.user_order,
            "z": result.z,
            "subsets": alloc.subsets,
            "y": alloc.shares,
            "feasible": report.feasible,
        }
    return [
        f"rate: {_sig(result.rate)}",
        f"chain order (weakest first): {','.join(map(str, result.user_order))}",
        f"subset mapping feasible: {report.feasible}",
    ]


def cmd_rates_upper(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    if cfg.strategy is None:
        tup = caching.central_tuple(cfg.stats.num_users, cfg.mu)
    else:
        tup = caching.caching_tuple(cfg.strategy)
    report = upper_bound.upper_bound_rate(cfg.stats, tup)
    if args.json:
        return {
            "command": "rates.upper",
            "mu": cfg.mu,
            "value": report.value,
            "argmin_pi": report.argmin_pi,
            "omega_star": report.omega_star,
            "omega_star_unique": report.omega_star_unique,
            "table": [{"pi": pi, "value": value} for pi, value in report.table],
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
    return text


def _check_writable(path: str, option: str) -> None:
    """Fail before any work when `path` cannot be opened for writing.

    The probe opens the file for appending, which writes nothing, and
    removes it again if the probe created it.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "ab").close()
    except OSError as exc:
        raise ValidationError(f"{option}: cannot write {path}: {exc.strerror}") from exc
    if not existed:
        os.remove(path)


def cmd_rates_achievable(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    if args.dump_matrices:
        for block in "GH":
            _check_writable(f"{args.dump_matrices}_{block}.csv", "--dump-matrices")
    alloc = lp_scheme.achievable_rate_lp(cfg.stats, cfg.mu)
    report = lp_scheme.check_allocation(cfg.stats, alloc)
    if args.dump_matrices:
        _dump_matrices(cfg.stats, alloc.t, args.dump_matrices)
    if args.json:
        return {
            "command": "rates.achievable",
            "mu": cfg.mu,
            "value": alloc.rate,
            "t": alloc.t,
            "subsets": alloc.subsets,
            "shares": alloc.shares,
            "required": report.required,
            "margins": [
                {"user": k, "subset": s, "margin": m} for (k, s), m in report.margins.items()
            ],
            "level_slacks": report.level_slacks,
            "feasible": report.feasible,
            "iterations": alloc.iterations,
            "gap": alloc.gap,
        }
    text = [f"rate: {_sig(alloc.rate)} (t={alloc.t})"]
    for (k, s), m in report.margins.items():
        text.append(f"  user {k} on {_subset_label(s)}: margin {_sig(m)}")
    return text


def _dump_matrices(stats: channel.ChannelStats, t: int, prefix: str) -> None:
    built = lp_scheme.build_delivery_lp(stats, t)
    columns = [
        f"y(l={l};S={'+'.join(map(str, s))})"
        for l in range(1, built.num_levels + 1)
        for s in built.subsets
    ] + ["f"]
    labels = [f"decode(k={k};S={'+'.join(map(str, s))})" for k, s in built.decode_rows]
    labels += [f"level({l})" for l in range(1, built.num_levels + 1)]
    n_decode = len(built.decode_rows)
    for block, rows in (("G", range(n_decode)), ("H", range(n_decode, len(labels)))):
        with open(f"{prefix}_{block}.csv", "w", encoding="utf-8") as fh:
            fh.write("row," + ",".join(columns) + "\n")
            for r in rows:
                cells = ",".join(repr(float(v)) for v in built.a_ub[r])
                fh.write(f"{labels[r]},{cells}\n")


def cmd_simulate(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    n = args.n if args.n is not None else cfg.sim_n
    seed = args.seed if args.seed is not None else cfg.sim_seed
    if n is None:
        raise ValidationError("simulate: need --n or a 'simulation.n' config entry")
    if seed is None:
        raise ValidationError("simulate: need --seed or a 'simulation.seed' config entry")
    channel.check_draws(n, seed)
    if args.trace:
        _check_writable(args.trace, "--trace")
    alloc = lp_scheme.achievable_rate_lp(cfg.stats, cfg.mu)
    report = simulator.simulate_delivery(cfg.stats, alloc, n, seed, keep_levels=bool(args.trace))
    if args.trace:
        header = ",".join(f"user{k}" for k in range(1, cfg.stats.num_users + 1)) + "\n"
        with open(args.trace, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.writelines(_trace_rows(report.realization))
    if args.json:
        return {"command": "simulate", "n": report.num_uses, **_named(report, SIMULATE_FIELDS)}
    text = [f"simulated {report.num_uses} uses at rate {_sig(report.rate)} (seed {report.seed})"]
    for m in report.messages:
        flag = "ok" if m.decodable else "SHORT"
        text.append(
            f"  user {m.user} on {_subset_label(m.subset)}: {m.delivered}/{m.required}"
            f" symbols, margin {_sig(m.empirical_margin)} [{flag}]"
        )
    verdicts = (f"{k}:{'yes' if ok else 'no'}" for k, ok in enumerate(report.user_decodable, start=1))
    text.append("users decodable: " + ", ".join(verdicts))
    return text


def _trace_rows(realization: channel.StateRealization) -> Iterator[bytes]:
    """The CSV rows of a trace, one line per channel use and one column per
    user, in chunks of SAMPLE_BLOCK lines.

    Row v of a byte table holds the decimal digits of level v and a comma,
    right-aligned behind zero bytes.  Taking the table's rows at levels.T
    lays out a chunk's lines; the last comma of each line becomes a newline
    and the zero bytes are dropped.  At B <= 9 every cell is one digit and
    a comma, so no zero byte exists and the lines are written as they are.
    np.take copies its uint8 index to intp, 8 bytes a level, so it takes an
    eighth of a chunk's lines at a time: the copy is then 1 byte per level
    of the chunk.  The levels lie in the table, so mode="clip" changes
    nothing; it lets take write into the lines unbuffered.  Memory is a few
    chunks, whatever n is.  The bytes equal those of
    np.savetxt(fh, levels.T, fmt="%d", delimiter=",").
    """
    top, part = realization.num_levels, max(1, channel.SAMPLE_BLOCK // 8)
    table = np.zeros((top + 1, len(str(top)) + 1), dtype=np.uint8)
    for value in range(top + 1):
        cell = f"{value},".encode("ascii")
        table[value, table.shape[1] - len(cell) :] = np.frombuffer(cell, dtype=np.uint8)
    for start in range(0, realization.num_uses, channel.SAMPLE_BLOCK):
        chunk = realization.levels[:, start : start + channel.SAMPLE_BLOCK]
        lines = np.empty((chunk.shape[1], chunk.shape[0], table.shape[1]), dtype=np.uint8)
        for at in range(0, chunk.shape[1], part):
            np.take(table, chunk[:, at : at + part].T, axis=0, out=lines[at : at + part], mode="clip")
        lines = lines.reshape(chunk.shape[1], -1)
        lines[:, -1] = ord("\n")
        yield lines.tobytes() if top < 10 else lines[lines != 0].tobytes()


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
    return [caching.cache_size(start + i * step) for i in range((stop - start) // step + 1)]


def cmd_sweep(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    rows = []
    for mu in _parse_mu_range(args.mu):
        try:
            f_lp = lp_scheme.achievable_rate_lp(cfg.stats, mu).rate
        except (NonIntegerT, BadT):
            f_lp = None
        f_upper = None  # the bound enumerates the orderings of at most MAX_BOUND_USERS users
        if cfg.stats.num_users <= upper_bound.MAX_BOUND_USERS:
            f_upper = upper_bound.upper_bound_rate(cfg.stats, caching.central_tuple(cfg.stats.num_users, mu)).value
        try:
            f_deg = degraded.degraded_optimal_rate(cfg.stats, mu).rate
        except (NotDegraded, NonIntegerT, BadT):
            f_deg = None
        rows.append({"mu": mu, "f_lp": f_lp, "f_star_upper": f_upper, "f_bar_degraded": f_deg})
    if args.json:
        return {"command": "sweep", "rows": rows}
    text = ["mu,f_lp,f_star_upper,f_bar_degraded"]
    for row in rows:
        mu, *rates = row.values()
        text.append(",".join([str(mu)] + ["" if f is None else repr(f) for f in rates]))
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecast",
        description="Source-rate bounds and delivery allocations for cache-aided"
        " level-erasure broadcast scenarios.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config")
    common.add_argument("--json", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="compute rate bounds and optima")
    modes = rates.add_subparsers(dest="mode", required=True)

    p = modes.add_parser("two-user", parents=[common], help="exact two-user optimum and band split")
    p.set_defaults(func=cmd_rates_two_user)

    p = modes.add_parser("degraded", parents=[common], help="chain LP optimum with subset mapping")
    p.set_defaults(func=cmd_rates_degraded)

    p = modes.add_parser("upper", parents=[common], help="weighted-maximum rate ceiling")
    p.add_argument("--table", action="store_true", help="print every ordering's value")
    p.set_defaults(func=cmd_rates_upper)

    p = modes.add_parser("achievable", parents=[common], help="time-sharing delivery LP")
    p.add_argument(
        "--dump-matrices", metavar="PREFIX", help="write the LP blocks to PREFIX_G.csv and PREFIX_H.csv"
    )
    p.set_defaults(func=cmd_rates_achievable)

    p = sub.add_parser("simulate", parents=[common], help="Monte-Carlo check of the LP allocation")
    p.add_argument("--n", type=int, help="number of channel uses")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--trace", metavar="PATH", help="dump sampled user levels as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common], help="rates across a range of cache sizes")
    p.add_argument("--mu", required=True, metavar="START:STOP:STEP")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = args.func(load_config(args.config), args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(to_json(output) if args.json else "\n".join(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
