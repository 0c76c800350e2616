"""Command-line interface: scenario files in, rates and reports out.

A scenario is a single JSON object:

    {
      "num_users": 3, "num_levels": 3,
      "ccdf": [[0.9, 0.3, 0.3], [0.7, 0.4, 0.4], [0.5, 0.5, 0.5]],
      "mu": "1/3",                      # exact fraction string
      "caching": [[["0", "1/3"]], ...], # optional explicit intervals, rates upper only
      "simulation": {"n": 100000, "seed": 1}
    }

Unknown fields are rejected, and so is `caching` for any command but
`rates upper`, the one that reads it.  `main` loads the scenario once and
hands it to the command's `cmd_*` function, which returns the JSON payload
with --json and the text lines without it, building only the one it
returns; `main` writes it.  `rates upper`, `rates achievable` and
`simulate` return their JSON already written: the scalar fields go
through to_json, and the long lists are laid out from the report's arrays,
the K! rows of `rates upper`'s `table` by table_json and the (subset,
member) pairs of `margins` and `messages` by _pairs_json, each distinct
float written once (_float_texts).  The text equals, byte for byte,
to_json of the payload built as dicts.

Exit codes: 0 success, 2 validation error (bad config or arguments),
3 solver failure.  Rates print with 6 significant digits; JSON reports
carry full precision, and a non-finite float is written as the string
"inf" (or "-inf", "nan"), since JSON has no token for it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from itertools import chain, repeat
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
# The simulate report's per-message arrays, written as the fields of each message.
MESSAGE_FIELDS = ("delivered", "required", "empirical_margin", "analytic_margin", "std_error", "decodable")
UPPER_FIELDS = ("value", "argmin_pi", "omega_star", "omega_star_unique")  # then the table, from its arrays

_NON_FINITE = {"-Infinity": "-inf", "Infinity": "inf", "NaN": "nan"}  # "-Infinity" first: _float_texts

# Lines per chunk of a --trace file.  A chunk's temporaries take about 8
# bytes per level, so 2**14 lines hold them to 0.8 MB at K = 6; in chunks of
# 2**16 lines the simulate-1e6 benchmark's peak RSS read 1 MB more.
TRACE_CHUNK = 1 << 14

# What a command returns: the JSON payload (or its text) with --json, else
# the text lines.
Output = Union[dict, str, list[str]]


@dataclass(frozen=True)
class ScenarioConfig:
    stats: channel.ChannelStats
    mu: Fraction
    strategy: Optional[caching.CachingStrategy]  # None: the central placement
    sim_n: Optional[int]
    sim_seed: Optional[int]


def _fail(message: str) -> ValidationError:
    return ValidationError(f"config: {message}")


def _integer(value, name: str) -> int:
    """value if it is a positive integer; a boolean is not an integer."""
    if type(value) is not int or value < 1:
        raise _fail(f"'{name}' must be a positive integer")
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
        if any(type(entry) not in (int, float) for entry in row):  # not json's true, "0.9" or null
            raise _fail(f"user {k}: CCDF entries must be numbers, got {row!r}")
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

    sim_n, sim_seed = sim.get("n"), sim.get("seed")
    try:  # an absent entry is checked as a valid stand-in
        channel.check_draws(1 if sim_n is None else sim_n, 0 if sim_seed is None else sim_seed)
    except ValidationError as exc:
        raise _fail(f"'simulation' block: {exc}") from exc

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
    """Strict JSON: a non-finite float becomes its text form, such as "inf".

    Every payload is a fresh tree, so the encoder skips its check for circular
    references.
    """
    try:
        return json.dumps(payload, default=_jsonable, allow_nan=False, check_circular=False)
    except ValueError:
        # Only a payload holding a non-finite float takes this second pass.
        loose = json.dumps(payload, default=_jsonable, check_circular=False)
        return json.dumps(json.loads(loose, parse_constant=_NON_FINITE.__getitem__), check_circular=False)


class _Written(str):
    """A JSON value already written, which _object places as it is."""


def _object(payload: dict) -> str:
    """to_json(payload), each _Written value placed as it is: the runs of
    other fields between them go through to_json.  The pieces are joined
    once, so a long value is copied once."""
    pieces, run = ["{"], {}
    for key, value in payload.items():
        if isinstance(value, _Written):
            if run:
                pieces += [to_json(run)[1:-1], ", "]
                run = {}
            pieces += [f'"{key}": ', value, ", "]
        else:
            run[key] = value
    if run:
        pieces += [to_json(run)[1:-1], ", "]
    pieces[-1] = "}"
    return "".join(pieces)


def _float_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Each distinct float of values, by its bits (so -0.0 is not 0.0),
    written once as json writes it, a non-finite one as the string "inf",
    "-inf" or "nan" (to_json's rule); and, in ravel order, the index of
    each entry's text."""
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.int64)
    bits, which = np.unique(bits, return_inverse=True)
    text = json.dumps(bits.view(np.float64).tolist())  # "Infinity" where not finite
    for token, name in _NON_FINITE.items():  # "-Infinity" before "Infinity", which it holds
        text = text.replace(token, f'"{name}"')
    return text[1:-1].split(", "), which


def _cells(column) -> Union[list[str], Iterator[str]]:
    """The JSON text of each entry of an array, in ravel order: true or
    false, an integer, or a float as _float_texts writes it.  A scalar's
    text repeats without end."""
    column = np.asarray(column)
    if column.ndim == 0:
        return repeat(_cells(column[None])[0])
    if column.dtype == bool:
        return [("false", "true")[flag] for flag in column.ravel().tolist()]
    if column.dtype.kind in "iu":
        return list(map(str, column.ravel().tolist()))
    texts, which = _float_texts(column)
    return np.array(texts, dtype=object)[which].tolist()


def _rows_json(values: np.ndarray) -> str:
    """A 2-d float array as to_json writes it: its rows as lists."""
    cells, width = _cells(values), values.shape[1]
    return "[" + ", ".join("[" + ", ".join(cells[at : at + width]) + "]" for at in range(0, len(cells), width)) + "]"


def _subset_texts(subsets, sep: str, brackets: str) -> list[str]:
    """Each subset's members joined by sep inside the two brackets: with
    ", " and "[]" the JSON list of the subset, with "," and "{}" its label."""
    ids = [str(k) for k in range(max(map(max, subsets)) + 1)]
    return [brackets[0] + sep.join([ids[k] for k in s]) + brackets[1] for s in subsets]


def _pair_labels(subsets) -> list[str]:
    """The text outputs' label of each (subset, member) pair, such as
    "2 on {1,2,4}", in the layout of np.array(subsets)."""
    labels = _subset_texts(subsets, ",", "{}")
    return [f"{k} on {label}" for s, label in zip(subsets, labels) for k in s]


def _pairs_json(subsets, subset_texts: list[str], **columns) -> str:
    """The JSON list of one {"user": k, "subset": [...], name: entry, ...}
    per (subset j, member i) pair, in the layout of np.array(subsets)
    (lp_scheme.check_allocation's): member i of subsets[j], subset_texts[j]
    (subsets[j] as a JSON list), then entry [j, i] of each column, an
    array of that shape or one value for every pair.  The text equals, byte
    for byte, to_json of that list of dicts; each subset's text is written
    once, and each distinct float once (_float_texts).  The pieces of all
    pairs are joined at once, with no string per pair."""
    heads = [f'{{"user": {k}, "subset": ' for k in range(max(map(max, subsets)) + 1)]
    fields = [[heads[k] for s in subsets for k in s], [text for s, text in zip(subsets, subset_texts) for _ in s]]
    for name, column in columns.items():
        fields += [repeat(f', "{name}": '), _cells(column)]
    pieces = ["[", *chain.from_iterable(zip(*fields, repeat("}, ")))]
    pieces[-1] = "}]"
    return "".join(pieces)


def _named(obj, names: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in names}


def _sig(x: float) -> str:
    return f"{x:.6g}"


def cmd_rates_two_user(cfg: ScenarioConfig, args: argparse.Namespace) -> Output:
    alloc = two_user.achievable_allocation_two_user(cfg.stats, cfg.mu) if cfg.mu <= Fraction(1, 2) else None
    rate = two_user.optimal_rate_two_user(cfg.stats, cfg.mu) if alloc is None else alloc.rate
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
    upper_bound.check_bound_users(cfg.stats.num_users)  # before the tuple: at K = 12 its interval sweeps take seconds
    if cfg.strategy is None:
        tup = caching.central_tuple(cfg.stats.num_users, cfg.mu)
    else:
        tup = caching.caching_tuple(cfg.strategy)
    report = upper_bound.upper_bound_rate(cfg.stats, tup)
    if args.json:
        table = _Written(table_json(report.orderings, report.values))
        return _object({"command": "rates.upper", "mu": cfg.mu, **_named(report, UPPER_FIELDS), "table": table})
    text = [
        f"bound: {_sig(report.value)}",
        f"ordering: {','.join(map(str, report.argmin_pi))}",
        f"weights: ({', '.join(_sig(w) for w in report.omega_star)})"
        + ("" if report.omega_star_unique else "  [not unique]"),
    ]
    if args.table:
        text.append("per-ordering values:")
        for pi, value in zip(report.orderings.tolist(), report.values.tolist()):
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
    report = alloc.report
    if args.dump_matrices:
        _dump_matrices(cfg.stats, alloc.t, args.dump_matrices)
    if args.json:
        subset_texts = _subset_texts(alloc.subsets, ", ", "[]")
        return _object({
            "command": "rates.achievable",
            "mu": cfg.mu,
            "value": alloc.rate,
            "t": alloc.t,
            "subsets": _Written("[" + ", ".join(subset_texts) + "]"),
            "shares": _Written(_rows_json(alloc.shares)),
            "required": report.required,
            "margins": _Written(_pairs_json(alloc.subsets, subset_texts, margin=report.margins)),
            "level_slacks": report.level_slacks,
            "feasible": report.feasible,
            "iterations": alloc.iterations,
            "gap": alloc.gap,
        })
    pairs = _pair_labels(alloc.subsets)
    return [f"rate: {_sig(alloc.rate)} (t={alloc.t})"] + [
        f"  user {pair}: margin {_sig(margin)}" for pair, margin in zip(pairs, report.margins.ravel().tolist())
    ]


def _dump_matrices(stats: channel.ChannelStats, t: int, prefix: str) -> None:
    _, a_ub, _ = lp_scheme.build_delivery_lp(stats, t)
    subsets = lp_scheme.message_subsets(stats.num_users, t)
    levels = range(1, stats.num_levels + 1)
    columns = [f"y(l={l};S={'+'.join(map(str, s))})" for l in levels for s in subsets] + ["f"]
    labels = [f"decode(k={k};S={'+'.join(map(str, s))})" for s in subsets for k in s]
    n_decode = len(labels)
    labels += [f"level({l})" for l in levels]
    for block, rows in (("G", range(n_decode)), ("H", range(n_decode, len(labels)))):
        with open(f"{prefix}_{block}.csv", "w", encoding="utf-8") as fh:
            fh.write("row," + ",".join(columns) + "\n")
            for r in rows:
                cells = ",".join(repr(float(v)) for v in a_ub[r])
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
            fh.writelines(_trace_rows(report.levels, cfg.stats.num_levels))
    if args.json:
        subset_texts = _subset_texts(alloc.subsets, ", ", "[]")
        messages = _pairs_json(alloc.subsets, subset_texts, **_named(report, MESSAGE_FIELDS))
        return _object({
            "command": "simulate",
            "n": report.num_uses,
            **_named(report, ("seed", "rate", "t")),
            "messages": _Written(messages),
            **_named(report, ("user_decodable", "empirical_ccdf", "ccdf_std_error")),
        })
    text = [f"simulated {report.num_uses} uses at rate {_sig(report.rate)} (seed {report.seed})"]
    for pair, delivered, margin, decodable in zip(
        _pair_labels(alloc.subsets),
        report.delivered.ravel().tolist(),
        report.empirical_margin.ravel().tolist(),
        report.decodable.ravel().tolist(),
    ):
        flag = "ok" if decodable else "SHORT"
        text.append(f"  user {pair}: {delivered}/{report.required} symbols, margin {_sig(margin)} [{flag}]")
    verdicts = (f"{k}:{'yes' if ok else 'no'}" for k, ok in enumerate(report.user_decodable, start=1))
    text.append("users decodable: " + ", ".join(verdicts))
    return text


def _byte_cells(texts: list[str], suffix: str) -> np.ndarray:
    """Row i holds the ASCII bytes of texts[i] + suffix, right-aligned behind zero bytes."""
    lengths = np.array(list(map(len, texts))) + len(suffix)
    table = np.zeros((len(texts), int(lengths.max())), dtype=np.uint8)
    right = np.arange(table.shape[1]) >= table.shape[1] - lengths[:, None]
    table[right] = np.frombuffer((suffix.join(texts) + suffix).encode("ascii"), dtype=np.uint8)
    return table


def table_json(orderings: np.ndarray, values: np.ndarray) -> str:
    """The `table` of `rates upper --json`: row i of `orderings` (ints >= 0)
    with values[i] (floats), as the JSON list of {"pi": [...], "value": v}.

    The text equals, byte for byte, json.dumps of that list of dicts (pi a
    list of ints, v a float) under to_json's non-finite rule: a finite value
    is written as float.__repr__ writes it, as json does, and a non-finite
    one as the string "inf", "-inf" or "nan".  Each row is laid out in one
    byte array, filled from a template of its fixed bytes, the head
    '{"pi": [' and the middle '], "value": ', in one copy: then one cell
    per user id from a byte table ("k, " right-aligned behind zero bytes,
    whatever the number of digits), less the last cell's ", ", which the
    middle's "]," takes, and the value's cell with its closing "}, ".  Each
    distinct value (by its bits, so -0.0 is not 0.0) is written once.  The
    zero bytes are then dropped, and so is the last row's ", ".
    """
    ids = _byte_cells(list(map(str, range(int(orderings.max()) + 1))), ", ")
    texts, row_value = _float_texts(values)
    cells = _byte_cells(texts, "}, ")
    count, users = orderings.shape
    head, middle = b'{"pi": [', b'], "value": '
    start = len(head)
    stop = start + users * ids.shape[1] - 2  # the ids, less the last one's ", "
    template = np.zeros(stop + len(middle) + cells.shape[1], dtype=np.uint8)
    template[:start] = np.frombuffer(head, dtype=np.uint8)
    template[stop : stop + len(middle)] = np.frombuffer(middle, dtype=np.uint8)
    lines = np.empty((count, template.size), dtype=np.uint8)
    lines[:] = template
    lines[:, start:stop] = np.take(ids, orderings, axis=0).reshape(count, -1)[:, :-2]
    lines[:, stop + len(middle) :] = np.take(cells, row_value, axis=0)
    return "[" + lines[lines != 0].tobytes()[:-2].decode("ascii") + "]"


def _trace_rows(levels: np.ndarray, num_levels: int) -> Iterator[bytes]:
    """The CSV rows of a trace of the K x n levels of a B = num_levels
    channel, one line per channel use and one column per user, in chunks of
    TRACE_CHUNK lines.

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
    part = max(1, TRACE_CHUNK // 8)
    table = _byte_cells(list(map(str, range(num_levels + 1))), ",")
    for start in range(0, levels.shape[1], TRACE_CHUNK):
        chunk = levels[:, start : start + TRACE_CHUNK]
        lines = np.empty((chunk.shape[1], chunk.shape[0], table.shape[1]), dtype=np.uint8)
        for at in range(0, chunk.shape[1], part):
            np.take(table, chunk[:, at : at + part].T, axis=0, out=lines[at : at + part], mode="clip")
        lines = lines.reshape(chunk.shape[1], -1)
        lines[:, -1] = ord("\n")
        yield lines.tobytes() if num_levels < 10 else lines[lines != 0].tobytes()


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, and rebuilding it cost each in-process main call 0.7-0.8 ms,
    mostly argparse's gettext lookups.  A one-shot shell call builds it once
    either way."""
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
        cfg = load_config(args.config)
        if cfg.strategy is not None and args.func is not cmd_rates_upper:
            raise _fail("only 'rates upper' reads 'caching'; the other commands use the central placement")
        output = args.func(cfg, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    print(output if isinstance(output, str) else to_json(output) if args.json else "\n".join(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
