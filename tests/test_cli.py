"""Command-line interface: configs in, JSON/text/CSV out, exit codes."""

import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cachecast
from cachecast import caching, channel, cli, degraded, lp_scheme, simulator, two_user, upper_bound
from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.errors import NumericalFailure
from cachecast.lp import UNBOUNDED, LpSolution, LpStack
from cachecast.lp_scheme import achievable_rate_lp, build_delivery_lp
from cachecast.simulator import simulate_delivery
from cachecast.two_user import achievable_allocation_two_user, optimal_rate_two_user
from cachecast.upper_bound import build_permutation_lp

from helpers import (
    CHAIN3_RATE,
    CHAIN3_Z,
    MIXED3_BOUND,
    MIXED3_RATE,
    MIXED3_ROWS,
    MIXED3_TABLE,
    ROADMAP_ITEM1_ROWS,
    fail_certificate,
    is_master_solve,
    random_chain_stats,
    stack_hits,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NONDEGRADED = str(CONFIGS / "nondegraded3.json")
DEGRADED = str(CONFIGS / "degraded3.json")
TWOUSER = str(CONFIGS / "twouser.json")


def run_json(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def write_config(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body) if isinstance(body, dict) else body)
    return str(path)


# --- rates ---------------------------------------------------------------------


def test_two_user_json_matches_library(capsys):
    payload = run_json(capsys, ["rates", "two-user", TWOUSER, "--json"])
    stats = validate_stats([[0.9, 0.3, 0.3], [0.7, 0.4, 0.4]])
    assert payload["command"] == "rates.two-user"
    assert payload["mu"] == "1/4"
    assert payload["rate"] == optimal_rate_two_user(stats, 0.25)
    alloc = achievable_allocation_two_user(stats, 0.25)
    assert payload["allocation"]["u"] == alloc.u
    assert payload["allocation"]["v"] == alloc.v
    assert payload["allocation"]["alpha"] == alloc.alpha
    assert payload["allocation"]["level_order"] == list(alloc.level_order)
    assert payload["allocation"]["margins"] == list(alloc.margins)


def test_two_user_gets_the_exact_cache_size(capsys, monkeypatch):
    # The config's mu reaches the library as the Fraction it was read as,
    # not as a float (0.25 == Fraction(1, 4), so the type is checked too).
    received = []
    for name in ("optimal_rate_two_user", "achievable_allocation_two_user"):
        solve = getattr(two_user, name)
        monkeypatch.setattr(two_user, name, lambda stats, mu, solve=solve: received.append(mu) or solve(stats, mu))
    run_json(capsys, ["rates", "two-user", TWOUSER, "--json"])
    assert received == [Fraction(1, 4)] * 2
    assert all(type(mu) is Fraction for mu in received)


def test_two_user_large_mu_has_no_split(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "num_users": 2,
            "num_levels": 1,
            "ccdf": [[0.9], [0.7]],
            "mu": "3/4",
        },
    )
    payload = run_json(capsys, ["rates", "two-user", cfg, "--json"])
    assert abs(payload["rate"] - 0.7 / 0.25) <= 1e-12
    assert "allocation" not in payload


def test_two_user_rejects_three_users(capsys):
    assert cli.main(["rates", "two-user", NONDEGRADED]) == 2
    assert capsys.readouterr().err == "error: expected 2 users, got 3\n"


def test_degraded_json(capsys):
    payload = run_json(capsys, ["rates", "degraded", DEGRADED, "--json"])
    assert payload["command"] == "rates.degraded"
    assert payload["mu"] == "1/3"
    assert abs(payload["rate"] - CHAIN3_RATE) <= 1e-9
    assert payload["t"] == 1
    assert payload["user_order"] == [1, 2, 3]
    np.testing.assert_allclose(payload["z"], CHAIN3_Z, atol=1e-9)
    assert payload["subsets"] == [[1, 2], [1, 3], [2, 3]]
    assert payload["feasible"] is True


def test_achievable_json(capsys):
    payload = run_json(capsys, ["rates", "achievable", NONDEGRADED, "--json"])
    assert payload["command"] == "rates.achievable"
    assert abs(payload["value"] - MIXED3_RATE) <= 1e-9
    assert payload["t"] == 1
    assert payload["feasible"] is True
    assert len(payload["margins"]) == 6
    assert len(payload["level_slacks"]) == 3
    assert all(m["margin"] >= -1e-9 for m in payload["margins"])
    assert abs(payload["required"] - payload["value"] / 3.0) <= 1e-12
    assert payload["iterations"] >= 1
    assert 0.0 <= payload["gap"] <= 1e-9


def test_achievable_k10_t4_within_five_seconds(capsys, tmp_path):
    rng = np.random.default_rng(10)
    grid = np.sort(rng.random((10, 4)), axis=1)[:, ::-1]
    cfg = write_config(tmp_path, {"num_users": 10, "num_levels": 4, "mu": "2/5", "ccdf": grid.tolist()})
    start = time.perf_counter()
    payload = run_json(capsys, ["rates", "achievable", cfg, "--json"])
    assert time.perf_counter() - start < 5.0
    assert payload["feasible"] is True
    assert len(payload["subsets"]) == 252
    assert 0.0 <= payload["gap"] <= 1e-9


def test_upper_json(capsys):
    payload = run_json(capsys, ["rates", "upper", NONDEGRADED, "--json"])
    assert payload["command"] == "rates.upper"
    assert abs(payload["value"] - MIXED3_BOUND) <= 1e-9
    assert payload["argmin_pi"] == [2, 3, 1]
    np.testing.assert_allclose(payload["omega_star"], [0.0, 1.25, 1.0], atol=1e-9)
    assert payload["omega_star_unique"] is True
    assert len(payload["table"]) == 6
    for entry in payload["table"]:
        assert abs(entry["value"] - MIXED3_TABLE[tuple(entry["pi"])]) <= 0.01


def test_upper_table_text(capsys):
    code = cli.main(["rates", "upper", NONDEGRADED, "--table"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("bound: 1.60714")
    assert "per-ordering values:" in out
    assert "(2,3,1)" in out
    assert len(out.strip().splitlines()) == 4 + 6


def test_dump_matrices(capsys, tmp_path):
    prefix = str(tmp_path / "blocks")
    run_json(capsys, ["rates", "achievable", NONDEGRADED, "--json", "--dump-matrices", prefix])
    built = build_delivery_lp(validate_stats(MIXED3_ROWS), 1)
    with open(prefix + "_G.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "row"
    assert rows[0][1] == "y(l=1;S=1+2)"
    assert rows[0][-1] == "f"
    assert len(rows) == 1 + 6
    assert rows[1][0] == "decode(k=1;S=1+2)"
    np.testing.assert_allclose(
        [[float(cell) for cell in row[1:]] for row in rows[1:]],
        built.a_ub[:6],
    )
    with open(prefix + "_H.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3
    assert rows[1][0] == "level(1)"
    np.testing.assert_allclose(
        [[float(cell) for cell in row[1:]] for row in rows[1:]],
        built.a_ub[6:],
    )


# --- simulate ---------------------------------------------------------------------


def test_simulate_json_matches_library(capsys):
    payload = run_json(capsys, ["simulate", NONDEGRADED, "--n", "500", "--seed", "9", "--json"])
    stats = validate_stats(MIXED3_ROWS)
    report = simulate_delivery(stats, achievable_rate_lp(stats, "1/3"), 500, 9)
    assert payload["command"] == "simulate"
    assert payload["n"] == 500 and payload["seed"] == 9
    assert [m["delivered"] for m in payload["messages"]] == [
        m.delivered for m in report.messages
    ]
    assert payload["user_decodable"] == list(report.user_decodable)
    np.testing.assert_array_equal(payload["empirical_ccdf"], report.empirical_ccdf)


def test_simulate_falls_back_to_config_values(capsys):
    payload = run_json(capsys, ["simulate", NONDEGRADED, "--json"])
    assert payload["n"] == 2000 and payload["seed"] == 7


def test_simulate_requires_n_and_seed(capsys):
    code = cli.main(["simulate", DEGRADED, "--seed", "1", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "need --n" in captured.err
    assert cli.main(["simulate", NONDEGRADED, "--seed", "-1", "--json"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_simulate_trace(capsys, tmp_path):
    trace = tmp_path / "levels.csv"
    run_json(
        capsys,
        ["simulate", NONDEGRADED, "--n", "40", "--seed", "3", "--json", "--trace", str(trace)],
    )
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "user1,user2,user3"
    assert len(lines) == 1 + 40
    values = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
    assert values.min() >= 0 and values.max() <= 3


def test_simulate_trace_samples_once(capsys, tmp_path, monkeypatch):
    draws = []
    sample_states = channel.sample_states

    def counting_sample(*args):
        draws.append(args)
        return sample_states(*args)

    monkeypatch.setattr(simulator, "sample_states", counting_sample)
    monkeypatch.setattr(channel, "sample_states", counting_sample)
    trace = tmp_path / "levels.csv"
    run_json(
        capsys,
        ["simulate", NONDEGRADED, "--n", "50", "--seed", "8", "--json", "--trace", str(trace)],
    )
    assert len(draws) == 1
    # The file is exactly what a fresh draw with the same seed writes.
    levels = sample_states(validate_stats(MIXED3_ROWS), 50, 8).levels
    expected = "user1,user2,user3\n" + "".join(
        ",".join(str(int(v)) for v in levels[:, t]) + "\n" for t in range(50)
    )
    assert trace.read_text() == expected


def test_simulate_trace_bytes_match_row_writer(capsys, tmp_path):
    trace = tmp_path / "levels.csv"
    run_json(
        capsys,
        ["simulate", NONDEGRADED, "--n", "300", "--seed", "4", "--json", "--trace", str(trace)],
    )
    # The row-by-row writer the trace format was first defined by.
    levels = channel.sample_states(validate_stats(MIXED3_ROWS), 300, 4).levels
    expected = "user1,user2,user3\n"
    for t in range(300):
        expected += ",".join(str(int(v)) for v in levels[:, t]) + "\n"
    assert trace.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("num_levels", [1, 9, 10, 12])
@pytest.mark.parametrize("num_users, num_uses", [(1, 1), (1, 40), (4, 1), (4, 257)])
def test_trace_rows_match_savetxt(num_levels, num_users, num_uses):
    rng = np.random.default_rng([num_levels, num_users, num_uses])
    levels = rng.integers(0, num_levels + 1, size=(num_users, num_uses), dtype=np.uint8)
    levels[0, 0] = num_levels  # the widest cell
    realization = channel.StateRealization(num_users, num_levels, num_uses, 0, levels)
    expected = io.StringIO()
    np.savetxt(expected, levels.T, fmt="%d", delimiter=",")
    assert b"".join(cli._trace_rows(realization)) == expected.getvalue().encode("ascii")


@pytest.mark.parametrize("num_uses", [1, 6, 7, 8, 22])
def test_trace_chunks_join_to_savetxt(monkeypatch, num_uses):
    # Chunks of 7 lines: n below, at and across chunk boundaries, so a line
    # dropped or doubled at a boundary changes the bytes.
    monkeypatch.setattr(channel, "SAMPLE_BLOCK", 7)
    rng = np.random.default_rng(num_uses)
    levels = rng.integers(0, 11, size=(3, num_uses), dtype=np.uint8)
    realization = channel.StateRealization(3, 10, num_uses, 0, levels)
    chunks = list(cli._trace_rows(realization))
    assert [chunk.count(b"\n") for chunk in chunks] == [
        min(7, num_uses - start) for start in range(0, num_uses, 7)
    ]
    expected = io.StringIO()
    np.savetxt(expected, levels.T, fmt="%d", delimiter=",")
    assert b"".join(chunks) == expected.getvalue().encode("ascii")


def test_trace_writer_memory_is_a_few_chunks():
    # K = 8, n = 2**18 is 16 chunks of SAMPLE_BLOCK lines.  At B = 5 a level
    # is 2 bytes of a line, held four times at the peak (the lines, their
    # nonzero mask, the kept bytes and their bytes object), and the intp
    # copy of the index covers an eighth of a chunk at a time: chunk by
    # chunk the peak is 8.0 bytes per level of one chunk (14.0 with the
    # whole chunk's index copied at once).
    users, num_uses = 8, 1 << 18
    levels = np.random.default_rng(5).integers(0, 6, size=(users, num_uses), dtype=np.uint8)
    realization = channel.StateRealization(users, 5, num_uses, 0, levels)

    class Sink:
        size = 0

        def write(self, data):
            self.size += len(data)

    sink = Sink()
    tracemalloc.start()
    try:
        for chunk in cli._trace_rows(realization):
            sink.write(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 2 * users * num_uses
    chunk_levels = channel.SAMPLE_BLOCK * users
    assert peak < 9 * chunk_levels, f"{peak / chunk_levels:.1f} bytes per level of one chunk"


# SHA-256 of `simulate --json` stdout and of the trace file.  The trace
# digests were computed with the int64 sampler and the np.savetxt writer they
# replaced; the stdout digests with the delivery LP's subset LPs in their
# min form, kept from cut to cut, whose optimal points are other vertices
# than the max form's duals where the optimum is degenerate: the rate moves
# in the last ulps, the shares and so the tallies more (see CHANGES.md);
# and with std_error summing the covariances of a subset's overlapping
# spans on different levels, which changed no other field.
SIMULATE_DIGESTS = {
    "nondegraded3": (
        5,
        "d6e5c14bf92d70094fc0cf8d09672d965022e599824e929bdd35fdd350cc9ba6",
        "dd8e90557d66e89bbe2cb4dd942e7e86049700cc61afd89bfd9fb375291fe1eb",
    ),
    "k6b5": (
        11,
        "70287a1db72481080b845c86a61b353048fb00aaf0ceddb71134d06c49fd5da5",
        "cc1f22b8c6ddd88ee0085d3710379e41b895246cb475da8eb660519b86125e67",
    ),
}
K6B5 = {
    "num_users": 6,
    "num_levels": 5,
    "mu": "1/3",
    "ccdf": [
        [0.95, 0.81, 0.62, 0.40, 0.17],
        [0.88, 0.70, 0.55, 0.31, 0.12],
        [0.99, 0.64, 0.48, 0.45, 0.20],
        [0.76, 0.73, 0.51, 0.26, 0.09],
        [0.91, 0.58, 0.37, 0.33, 0.05],
        [0.83, 0.79, 0.66, 0.29, 0.14],
    ],
}


@pytest.mark.parametrize("name", sorted(SIMULATE_DIGESTS))
def test_simulate_output_digests_are_frozen(capsys, tmp_path, name):
    seed, stdout_digest, trace_digest = SIMULATE_DIGESTS[name]
    config = NONDEGRADED if name == "nondegraded3" else write_config(tmp_path, K6B5)
    trace = tmp_path / "levels.csv"
    argv = ["simulate", config, "--n", "20000", "--seed", str(seed), "--json", "--trace", str(trace)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_digest
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest


# SHA-256 of `rates upper --json` on the ROADMAP item 1 grid (all 720
# orderings in `table`) and of `rates achievable --json` on a seeded
# sorted-uniform K = 8, t = 3, B = 4 grid.  `upper` was frozen when the
# per-ordering LPs dropped their implied decode rows (every table entry
# within 3.5e-14 relative of the LPs with all of them, the same argmin_pi),
# `achievable` when the subset LPs moved to their min form: a change to the
# LP core must keep these bytes.
RATES_DIGESTS = {
    "upper": "14e5cb873b636ee66de5bc6e3c924c0e14bd598d61db740f202ce700c807b71d",
    "achievable": "8867188f68921ed5079bf6139a421984299cc7e13a3935dc3444e19d8e426519",
}


def _rates_scenario(command):
    if command == "upper":
        return {"num_users": 6, "num_levels": 4, "mu": "1/6", "ccdf": ROADMAP_ITEM1_ROWS}
    ccdf = np.sort(np.random.default_rng(83).random((8, 4)), axis=1)[:, ::-1]
    return {"num_users": 8, "num_levels": 4, "mu": "3/8", "ccdf": ccdf.tolist()}


@pytest.mark.parametrize("command", sorted(RATES_DIGESTS))
def test_rates_output_digests_are_frozen(capsys, tmp_path, command):
    config = write_config(tmp_path, _rates_scenario(command))
    assert cli.main(["rates", command, config, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RATES_DIGESTS[command]


def _no_solve(*args):
    raise AssertionError("the delivery LP was solved before the arguments were checked")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_rejects_n_before_solving(capsys, monkeypatch, n):
    monkeypatch.setattr(lp_scheme, "achievable_rate_lp", _no_solve)
    assert cli.main(["simulate", NONDEGRADED, "--n", n, "--seed", "1", "--json"]) == 2
    assert capsys.readouterr().err == "error: num_uses must be positive\n"


def test_simulate_unwritable_trace_fails_before_work(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(lp_scheme, "achievable_rate_lp", _no_solve)
    trace = tmp_path / "missing" / "levels.csv"
    argv = ["simulate", NONDEGRADED, "--n", "10", "--seed", "1", "--trace", str(trace)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"--trace: cannot write {trace}: No such file or directory" in err
    assert cli.main(argv[:-1] + [str(tmp_path)]) == 2  # a directory
    assert f"--trace: cannot write {tmp_path}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dump_matrices_unwritable_prefix_fails_before_work(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(lp_scheme, "achievable_rate_lp", _no_solve)
    prefix = tmp_path / "missing" / "blocks"
    argv = ["rates", "achievable", NONDEGRADED, "--dump-matrices", str(prefix)]
    assert cli.main(argv) == 2
    assert f"--dump-matrices: cannot write {prefix}_G.csv" in capsys.readouterr().err
    (tmp_path / "blocks_H.csv").mkdir()
    argv[-1] = str(tmp_path / "blocks")
    assert cli.main(argv) == 2
    assert f"--dump-matrices: cannot write {tmp_path / 'blocks_H.csv'}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocks_H.csv"]


# --- sweep -----------------------------------------------------------------------


def test_sweep_single_user_csv(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        {"num_users": 1, "num_levels": 2, "ccdf": [[0.6, 0.2]], "mu": "0"},
    )
    code = cli.main(["sweep", cfg, "--mu", "0:1:1/4"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "mu,f_lp,f_star_upper,f_bar_degraded"
    assert len(out) == 1 + 5
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["0", "1/4", "1/2", "3/4", "1"]
    # single user: the ceiling is the level sum over the cache gap
    for r in rows[:4]:
        assert abs(float(r[2]) - 0.8 / (1.0 - float(Fraction(r[0])))) <= 1e-9
    assert rows[4][2] == "inf"
    # K*mu is an integer only at the endpoints; mu=1 leaves nothing to send
    assert float(rows[0][1]) == pytest.approx(0.8, abs=1e-9)
    assert [r[1] for r in rows[1:]] == ["", "", "", ""]
    assert float(rows[0][3]) == pytest.approx(0.8, abs=1e-9)
    assert [r[3] for r in rows[1:]] == ["", "", "", ""]


def test_sweep_chain_json(capsys):
    payload = run_json(capsys, ["sweep", DEGRADED, "--mu", "0:2/3:1/3", "--json"])
    assert payload["command"] == "sweep"
    rows = payload["rows"]
    assert [r["mu"] for r in rows] == ["0", "1/3", "2/3"]
    for row in rows:
        assert abs(row["f_lp"] - row["f_bar_degraded"]) <= 1e-6
        assert abs(row["f_star_upper"] - row["f_bar_degraded"]) <= 1e-6
    assert abs(rows[1]["f_bar_degraded"] - CHAIN3_RATE) <= 1e-9


def test_sweep_leaves_the_bound_empty_above_its_cap(capsys, monkeypatch, tmp_path):
    # The bound enumerates orderings of at most 8 users, so on a K = 9
    # chain its cells are empty while the delivery LP and the chain optimum
    # are filled, and agree; at mu = 1 no method applies.  No cell uses the
    # bound's caching tuple there, so none is built.
    def no_tuple(*args):
        raise AssertionError("built a caching tuple for a bound that is not computed")

    monkeypatch.setattr(caching, "central_tuple", no_tuple)
    stats = random_chain_stats(np.random.default_rng(9), 9, 3)
    cfg = write_config(tmp_path, {"num_users": 9, "num_levels": 3, "ccdf": stats.ccdf.tolist(), "mu": "0"})
    argv = ["sweep", cfg, "--mu", "0:1:1/3"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "mu,f_lp,f_star_upper,f_bar_degraded"
    rows = [line.split(",") for line in out[1:]]
    assert [r[0] for r in rows] == ["0", "1/3", "2/3", "1"]
    assert [r[2] for r in rows] == [""] * 4
    assert rows[-1] == ["1", "", "", ""]
    for r in rows[:3]:
        assert r[1] and r[3] and abs(float(r[1]) - float(r[3])) <= 1e-6
    payload = run_json(capsys, argv + ["--json"])
    assert [row["f_star_upper"] for row in payload["rows"]] == [None] * 4
    assert [[repr(row["f_lp"]), repr(row["f_bar_degraded"])] for row in payload["rows"][:3]] == [
        [r[1], r[3]] for r in rows[:3]
    ]


def test_sweep_rejects_bad_ranges(capsys):
    assert cli.main(["sweep", DEGRADED, "--mu", "0:1"]) == 2
    capsys.readouterr()
    assert cli.main(["sweep", DEGRADED, "--mu", "1/2:1/4:1/4"]) == 2
    capsys.readouterr()
    assert cli.main(["sweep", DEGRADED, "--mu", "0:1:0"]) == 2
    capsys.readouterr()
    assert cli.main(["sweep", DEGRADED, "--mu", "0:2:1/2"]) == 2
    capsys.readouterr()


def test_sweep_checks_its_range_before_any_lp(capsys, monkeypatch):
    # The whole range is checked before the first cache size is solved, so
    # a range that ends outside [0, 1] solves nothing.
    calls = []
    solve = lp_scheme.achievable_rate_lp
    monkeypatch.setattr(lp_scheme, "achievable_rate_lp", lambda *args: calls.append(args) or solve(*args))
    assert cli.main(["sweep", DEGRADED, "--mu", "0:9/8:1/8"]) == 2
    assert "error: mu must lie in [0, 1], got 9/8" in capsys.readouterr().err
    assert calls == []


# --- strict JSON ---------------------------------------------------------------------


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_every_command_writes_strict_json(capsys, tmp_path):
    single = write_config(
        tmp_path, {"num_users": 1, "num_levels": 2, "ccdf": [[0.6, 0.2]], "mu": "1"}
    )
    runs = [["sweep", single, "--mu", "0:1:1/2"]]
    for config in sorted(CONFIGS.glob("*.json")):
        for command in (
            ["rates", "two-user"],
            ["rates", "degraded"],
            ["rates", "upper", "--table"],
            ["rates", "achievable"],
            ["simulate", "--n", "200", "--seed", "1"],
            ["sweep", "--mu", "0:1:1/2"],
        ):
            runs.append([*command, str(config)])
    parsed = []
    for argv in runs:
        code = cli.main([*argv, "--json"])
        captured = capsys.readouterr()
        assert code in (0, 2), captured.err  # 2: the scenario does not suit the command
        if code == 0:
            parsed.append(json.loads(captured.out, parse_constant=reject_constant))
    # Not run: two-user on the 3-user configs, degraded on the two without a
    # chain, achievable and simulate at K*mu = 1/2.
    assert len(parsed) == 1 + 12
    # mu = 1 leaves nothing to send: the ceiling is infinite, written as "inf".
    sweeps = [payload["rows"] for payload in parsed if payload["command"] == "sweep"]
    assert len(sweeps) == 4
    assert [row["mu"] for row in sweeps[0]] == ["0", "1/2", "1"]
    assert all(rows[-1]["f_star_upper"] == "inf" for rows in sweeps)


# --- config validation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("mu"), "missing field"),
        (lambda c: c.update(num_users=0), "positive integer"),
        (lambda c: c.update(ccdf=[[0.5]]), "must list 3 rows"),
        (lambda c: c.update(mu="4/3"), "lie in [0, 1]"),
        (lambda c: c.update(mu="abc"), "not a fraction"),
        (lambda c: c.update(simulation={"n": -5}), "positive integer"),
        (lambda c: c.update(demands=[1, 1, 2]), "unknown field 'demands'"),
        (lambda c: c.update(demands=[1, 2, 9], num_files=3), "unknown field 'demands', 'num_files'"),
        (lambda c: c.update(cachng=[[["0", "1/3"]]] * 3), "unknown field 'cachng'"),
        (lambda c: c.update(simulation={"n": 10, "sed": 1}), "unknown field 'simulation.sed'"),
        (lambda c: c.update(num_users=True), "'num_users' must be a positive integer"),
        (lambda c: c.update(num_levels=True), "'num_levels' must be a positive integer"),
        (lambda c: c.update(simulation={"n": True}), "'simulation.n' must be a positive integer"),
        (lambda c: c.update(simulation={"seed": False}), "'simulation.seed' must be a nonnegative"),
        (lambda c: c.update(simulation={"seed": -1}), "'simulation.seed' must be a nonnegative"),
        # a row of the right length with a string or a list in it
        (lambda c: c["ccdf"][1].__setitem__(0, "x"), "user 2: CCDF entries must be numbers, got ['x', "),
        (lambda c: c["ccdf"][1].__setitem__(0, [0.5]), "user 2: CCDF entries must be numbers, got [[0.5], "),
    ],
)
def test_config_validation_failures(capsys, tmp_path, mutate, fragment):
    body = json.loads(Path(NONDEGRADED).read_text())
    mutate(body)
    cfg = write_config(tmp_path, body)
    code = cli.main(["rates", "achievable", cfg, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert fragment in captured.err


@pytest.mark.parametrize(
    "config, command",
    [
        (TWOUSER, ["rates", "two-user"]),
        (NONDEGRADED, ["rates", "achievable"]),
        (NONDEGRADED, ["rates", "upper"]),
        (NONDEGRADED, ["simulate"]),
    ],
)
def test_config_nan_ccdf_is_rejected(capsys, tmp_path, config, command):
    # json.load reads a bare NaN token; a NaN CCDF entry is out of range.
    body = json.loads(Path(config).read_text())
    body["ccdf"][1][1] = float("nan")
    cfg = write_config(tmp_path, body)
    assert "NaN" in Path(cfg).read_text()
    assert cli.main([*command, cfg, "--json"]) == 2
    assert "user 2: CCDF entries must lie in [0, 1]" in capsys.readouterr().err


def test_config_mu_out_of_range_is_named(capsys, tmp_path):
    body = json.loads(Path(NONDEGRADED).read_text())
    body["mu"] = "3/2"
    assert cli.main(["rates", "achievable", write_config(tmp_path, body)]) == 2
    assert capsys.readouterr().err == "error: mu must lie in [0, 1], got 3/2\n"


def test_config_not_json(capsys, tmp_path):
    cfg = write_config(tmp_path, "not json {")
    assert cli.main(["rates", "achievable", cfg, "--json"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert cli.main(["rates", "achievable", "/nonexistent.json", "--json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_explicit_caching(capsys, tmp_path):
    body = json.loads(Path(NONDEGRADED).read_text())
    body["caching"] = [
        [["0", "1/3"]],
        [["1/3", "2/3"]],
        [["2/3", "1"]],
    ]
    cfg = write_config(tmp_path, body)
    payload = run_json(capsys, ["rates", "upper", cfg, "--json"])
    assert abs(payload["value"] - MIXED3_BOUND) <= 1e-9  # same as central placement


def test_config_bad_caching_measure(capsys, tmp_path):
    body = json.loads(Path(NONDEGRADED).read_text())
    body["caching"] = [[["0", "1/2"]], [["0", "1/3"]], [["0", "1/3"]]]
    cfg = write_config(tmp_path, body)
    assert cli.main(["rates", "upper", cfg, "--json"]) == 2
    assert "measure" in capsys.readouterr().err


def test_central_placement_builds_no_intervals(capsys, monkeypatch):
    def interval_path(*args):
        raise AssertionError("the central placement needs no intervals")

    monkeypatch.setattr(caching, "central_strategy", interval_path)
    monkeypatch.setattr(caching, "caching_tuple", interval_path)
    runs = [["rates", "two-user", TWOUSER], ["rates", "degraded", DEGRADED]]
    for config in map(str, sorted(CONFIGS.glob("*.json"))):
        runs += [
            ["rates", "upper", config],
            ["rates", "upper", "--table", config],
            ["sweep", "--mu", "0:1:1/6", config],
        ]
    for config in (DEGRADED, NONDEGRADED):
        runs += [["rates", "achievable", config], ["simulate", "--n", "200", "--seed", "1", config]]
    for argv in runs:
        code = cli.main(argv)
        assert code == 0, (argv, capsys.readouterr().err)


def test_bound_rejects_large_k_quickly(capsys, tmp_path):
    # The exact interval sweep over all 4095 user subsets of K = 12 takes
    # several seconds; the cap must be reached without it.
    cfg = write_config(
        tmp_path, {"num_users": 12, "num_levels": 2, "mu": "1/4", "ccdf": [[0.6, 0.2]] * 12}
    )
    began = time.perf_counter()
    code = cli.main(["rates", "upper", cfg])
    elapsed = time.perf_counter() - began
    assert code == 2
    assert "ordering enumeration capped at 8 users" in capsys.readouterr().err
    assert elapsed < 2.0


# --- solver failures ----------------------------------------------------------------

# ROADMAP item 1's instance, on which one ordering LP once failed its
# feasibility recheck.  It solves now, so the failure is made: the message
# must name the failing ordering and the sub-problem size.
ROADMAP_ITEM1 = {
    "num_users": 6,
    "num_levels": 4,
    "mu": "1/6",
    "ccdf": ROADMAP_ITEM1_ROWS,
}


def test_bound_failure_names_ordering(capsys, monkeypatch, tmp_path):
    cfg = write_config(tmp_path, ROADMAP_ITEM1)
    stats = validate_stats(ROADMAP_ITEM1_ROWS)
    tup = caching_tuple(central_strategy(6, Fraction(1, 6)))
    target = build_permutation_lp(stats, tup, (6, 1, 2, 3, 4, 5))
    fail_certificate(monkeypatch, target)
    assert cli.main(["rates", "upper", cfg, "--json"]) == 3
    err = capsys.readouterr().err
    assert "ordering (6, 1, 2, 3, 4, 5) (K=6, B=4, mu=1/6): " in err
    assert "optimal basis fails feasibility recheck (largest violation " in err

    solve_lps = upper_bound.solve_lps

    def one_unbounded(c, a_ub, b_ub):
        outcomes = solve_lps(c, a_ub, b_ub)
        for i in np.flatnonzero(stack_hits(c, a_ub, target)).tolist():
            outcomes.status[i] = UNBOUNDED
        return outcomes

    monkeypatch.undo()
    monkeypatch.setattr(upper_bound, "solve_lps", one_unbounded)
    assert cli.main(["rates", "upper", cfg, "--json"]) == 3
    err = capsys.readouterr().err
    assert "ordering (6, 1, 2, 3, 4, 5) (K=6, B=4, mu=1/6): status unbounded" in err


@pytest.mark.parametrize(
    "command, config, module, label",
    [
        ("achievable", NONDEGRADED, lp_scheme, "delivery LP (K=3, t=1, B=3)"),
        ("degraded", DEGRADED, degraded, "chain LP (K=3, t=1, B=3)"),
    ],
)
def test_lp_failures_name_their_lp(capsys, monkeypatch, command, config, module, label):
    message = "optimal basis fails feasibility recheck (largest violation 0.5)"
    solve = LpStack.solve

    def patch(outcome):
        """Make the LP give outcome: the delivery LP's master is an LpStack
        solved once per cut, and the chain LP a stack of one from solve_lps;
        each returns it."""
        if module is lp_scheme:
            monkeypatch.setattr(LpStack, "solve", lambda stack, c: [outcome] if is_master_solve(c) else solve(stack, c))
        else:
            monkeypatch.setattr(module, "solve_lps", lambda *args: [outcome])

    patch(NumericalFailure(message))
    assert cli.main(["rates", command, config]) == 3
    assert f"{label}: {message}" in capsys.readouterr().err

    patch(LpSolution(UNBOUNDED, None, None, None))
    assert cli.main(["rates", command, config]) == 3
    assert f"{label}: status unbounded" in capsys.readouterr().err


def test_delivery_lp_subproblem_failures_name_the_cut(capsys, monkeypatch):
    label = "delivery LP (K=3, t=1, B=3)"
    solve = LpStack.solve

    def replacing_subset_13_at_cut_2(outcome):
        calls = []

        def patched(stack, lam):
            outcomes = solve(stack, lam)
            if is_master_solve(lam):
                return outcomes
            calls.append(None)
            if len(calls) == 2:
                outcomes.status[1] = outcome  # subsets are (1, 2), (1, 3), (2, 3)
            return outcomes

        return patched

    failure = NumericalFailure("optimal basis fails dual feasibility check (dual residual 0.25)")
    monkeypatch.setattr(LpStack, "solve", replacing_subset_13_at_cut_2(failure))
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    err = capsys.readouterr().err
    assert f"{label}: optimal basis fails dual feasibility check (dual residual 0.25)" in err
    assert "(subset (1, 3), cut 2, gap " in err

    monkeypatch.setattr(LpStack, "solve", replacing_subset_13_at_cut_2(UNBOUNDED))
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    assert f"{label}: status unbounded (subset (1, 3), cut 2, gap " in capsys.readouterr().err


def test_delivery_lp_master_failure_names_the_cut(capsys, monkeypatch):
    solve = LpStack.solve
    calls = []

    def failing_at_cut_3(stack, c):
        if not is_master_solve(c):
            return solve(stack, c)
        calls.append(None)
        if len(calls) == 3:
            return [NumericalFailure("simplex did not converge in 100000 iterations")]
        return solve(stack, c)

    monkeypatch.setattr(LpStack, "solve", failing_at_cut_3)
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    err = capsys.readouterr().err
    assert "delivery LP (K=3, t=1, B=3): simplex did not converge in 100000 iterations (master LP, cut 3, gap " in err


def test_delivery_lp_cut_cap_and_recheck_fail_loudly(capsys, monkeypatch):
    monkeypatch.setattr(lp_scheme, "MAX_CUTS", 2)
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    err = capsys.readouterr().err
    assert "solver failure: delivery LP (K=3, t=1, B=3): cutting planes did not converge in 2 cuts (gap " in err

    monkeypatch.undo()
    monkeypatch.setattr(lp_scheme, "FEAS_TOL", -1.0)
    assert cli.main(["simulate", NONDEGRADED, "--n", "10", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "delivery LP (K=3, t=1, B=3): allocation fails its recheck (largest violation " in err
    assert re.search(r"\(cut \d+, gap [-+.e\d]+\)", err)


# --- console-script entry point ----------------------------------------------------

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# What an installed console script does: resolve the entry point, name the
# program, and exit with whatever the function returns. The spec is passed
# in front of the CLI arguments and popped before the function runs.
LAUNCHER = """
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="cachecast", value=sys.argv.pop(1), group="console_scripts").load()
sys.argv[0] = "cachecast"
sys.exit(main())
"""


def declared_console_script():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["cachecast"]


def test_console_script_smoke(tmp_path):
    spec = declared_console_script()
    assert spec == "cachecast.cli:main"
    src = str(Path(cachecast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LAUNCHER, spec, "rates", "achievable", NONDEGRADED, "--json"],
        capture_output=True,
        text=True,
        check=False,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert abs(json.loads(result.stdout)["value"] - MIXED3_RATE) <= 1e-9


@pytest.mark.skipif(shutil.which("cachecast") is None, reason="cachecast console script not on PATH")
def test_installed_console_script():
    result = subprocess.run(
        ["cachecast", "rates", "achievable", NONDEGRADED, "--json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert abs(json.loads(result.stdout)["value"] - MIXED3_RATE) <= 1e-9


def test_python_dash_m(tmp_path):
    src = str(Path(cachecast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "cachecast", "rates", "upper", NONDEGRADED, "--json"],
        capture_output=True,
        text=True,
        check=False,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert abs(json.loads(result.stdout)["value"] - MIXED3_BOUND) <= 1e-9
