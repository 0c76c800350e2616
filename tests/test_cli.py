"""Command-line interface: configs in, JSON/text/CSV out, exit codes."""

import csv
import hashlib
import io
import json
import math
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
from cachecast import caching, cli, degraded, lp_scheme, simulator, two_user, upper_bound
from cachecast.caching import caching_tuple, central_strategy
from cachecast.channel import validate_stats
from cachecast.errors import NumericalFailure
from cachecast.lp import UNBOUNDED, GrowingLp, LpSolution, LpStack
from cachecast.lp_scheme import achievable_rate_lp, build_delivery_lp, message_subsets
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
    THIRD,
    achievable_payload,
    assert_same_text,
    fail_certificate,
    random_chain_stats,
    simulate_payload,
    sorted_uniform_ccdf,
    span_starts,
    stack_hits,
    strict_json,
    table_rows,
    tiny_gap_placement,
    upper_json,
    upper_table_json,
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


def test_two_user_gets_the_exact_cache_size(capsys, monkeypatch, tmp_path):
    # The config's mu reaches the library as the Fraction it was read as,
    # not as a float (0.25 == Fraction(1, 4), so the type is checked too),
    # in the one call the CLI makes: the band split up to mu = 1/2, whose
    # rate it prints, and the closed-form rate above.
    received = []
    for name in ("optimal_rate_two_user", "achievable_allocation_two_user"):
        solve = getattr(two_user, name)
        monkeypatch.setattr(two_user, name, lambda stats, mu, solve=solve: received.append(mu) or solve(stats, mu))
    for mu in ("1/4", "1/2", "3/4"):
        received.clear()
        config = write_config(tmp_path, {"num_users": 2, "num_levels": 3, "mu": mu, "ccdf": [[0.9, 0.3, 0.3], [0.7, 0.4, 0.4]]})
        payload = run_json(capsys, ["rates", "two-user", config, "--json"])
        assert received == [Fraction(mu)]
        assert all(type(size) is Fraction for size in received)
        assert ("allocation" in payload) == (Fraction(mu) <= Fraction(1, 2))


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


@pytest.mark.parametrize("command, seed, users, mu", [("upper", 8, 8, "1/8"), ("achievable", 115, 7, "6/7")])
def test_rates_are_exact_under_power_of_two_rescaling(capsys, tmp_path, command, seed, users, mu):
    # The same seeded grid times 2^-34.  The bound exited 3 there ("optimal
    # basis fails dual feasibility check"), and the delivery LP read 17.7%
    # above the optimum with "feasible": true, since its recheck judged a
    # decode margin of -1e-11 against the absolute FEAS_TOL.
    rows = np.sort(np.random.default_rng(seed).random((users, 4)), axis=1)[:, ::-1].tolist()
    small_rows = [[math.ldexp(x, -34) for x in row] for row in rows]
    out = [
        run_json(capsys, ["rates", command, write_config(tmp_path, {"num_users": users, "num_levels": 4, "mu": mu, "ccdf": grid}, name), "--json"])
        for grid, name in ((rows, "base.json"), (small_rows, "small.json"))
    ]
    base, small = out
    assert small["value"] == math.ldexp(base["value"], -34)
    if command == "upper":
        assert [row["value"] for row in small["table"]] == [math.ldexp(row["value"], -34) for row in base["table"]]
        for key in ("argmin_pi", "omega_star", "omega_star_unique"):
            assert small[key] == base[key], key
    else:
        assert small["shares"] == base["shares"] and small["level_slacks"] == base["level_slacks"]
        assert small["gap"] == math.ldexp(base["gap"], -34) and small["feasible"] is True
        assert [m["margin"] for m in small["margins"]] == [math.ldexp(m["margin"], -34) for m in base["margins"]]


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


@pytest.mark.parametrize("json_flag", [["--json"], []])
def test_achievable_rechecks_once(capsys, monkeypatch, json_flag):
    # achievable_rate_lp rechecks its shares and returns the report with
    # them; the command prints that report and checks nothing again.
    calls = []
    check = lp_scheme.check_allocation

    def counting_check(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(lp_scheme, "check_allocation", counting_check)
    assert cli.main(["rates", "achievable", NONDEGRADED, *json_flag]) == 0
    capsys.readouterr()
    assert len(calls) == 1


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


def test_upper_table_text_is_the_json_table(capsys, tmp_path):
    # K = 5: each of the 120 ordering lines of --table is the --json table's
    # row for the same scenario, its value to 6 significant digits.
    ccdf = sorted_uniform_ccdf(np.random.default_rng(44), 5, 3).tolist()
    cfg = write_config(tmp_path, {"num_users": 5, "num_levels": 3, "mu": "1/5", "ccdf": ccdf})
    table = run_json(capsys, ["rates", "upper", cfg, "--json"])["table"]
    code = cli.main(["rates", "upper", cfg, "--table"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    want = [f"  ({','.join(map(str, row['pi']))})  {float(row['value']):.6g}" for row in table]
    assert len(want) == 120
    assert lines[3:] == ["per-ordering values:", *want]


# --- the JSON table of rates upper ------------------------------------------------


@pytest.fixture
def upper_stdout(capsys, monkeypatch, tmp_path):
    """Run `rates upper --json` on a scenario: its stdout, and the oracle's
    bytes (helpers.upper_json) for the report it wrote."""
    reports = []
    bound = upper_bound.upper_bound_rate

    def kept(*args):
        reports.append(bound(*args))
        return reports[-1]

    monkeypatch.setattr(upper_bound, "upper_bound_rate", kept)

    def run(body):
        reports.clear()
        code = cli.main(["rates", "upper", write_config(tmp_path, body), "--json"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        (report,) = reports
        return captured.out, upper_json(Fraction(body["mu"]), report) + "\n"

    return run


@pytest.mark.parametrize("users", range(1, 9))
def test_upper_json_is_the_oracle_at_every_cache_size(upper_stdout, users):
    ccdf = sorted_uniform_ccdf(np.random.default_rng([users, 43]), users, 3).tolist()
    for t in range(users + 1):
        out, want = upper_stdout({"num_users": users, "num_levels": 3, "mu": f"{t}/{users}", "ccdf": ccdf})
        assert out == want, f"mu = {t}/{users}"


def test_upper_json_at_mu_one_reads_inf(upper_stdout):
    # The first user's cache covers the file in every ordering.
    ccdf = sorted_uniform_ccdf(np.random.default_rng(44), 4, 3).tolist()
    out, want = upper_stdout({"num_users": 4, "num_levels": 3, "mu": "1", "ccdf": ccdf})
    assert out == want
    payload = json.loads(out)
    assert payload["value"] == "inf"
    assert [row["value"] for row in payload["table"]] == ["inf"] * 24


def test_upper_json_writes_a_dead_first_user_as_zero(upper_stdout):
    ccdf = sorted_uniform_ccdf(np.random.default_rng(45), 5, 3)
    ccdf[2] = 0.0
    out, want = upper_stdout({"num_users": 5, "num_levels": 3, "mu": "1/5", "ccdf": ccdf.tolist()})
    assert out == want
    table = json.loads(out)["table"]
    assert [row["value"] == 0.0 for row in table] == [row["pi"][0] == 3 for row in table]
    assert out.count('"value": 0.0}') == 24


def test_upper_json_with_twin_rows(upper_stdout):
    ccdf = sorted_uniform_ccdf(np.random.default_rng(46), 6, 3)
    ccdf[3], ccdf[5] = ccdf[0], ccdf[1]
    for mu in ("0", "1/6", "2/6"):
        out, want = upper_stdout({"num_users": 6, "num_levels": 3, "mu": mu, "ccdf": ccdf.tolist()})
        assert out == want, f"mu = {mu}"


def test_upper_json_with_unequal_gaps(upper_stdout):
    # One interval per user, user k's from (k-1)^2/36: the gaps differ
    # between prefixes, and so do the values.
    ccdf = sorted_uniform_ccdf(np.random.default_rng(47), 6, 4).tolist()
    spread = [[[str(Fraction(k * k, 36)), str(Fraction(k * k + 6, 36))]] for k in range(6)]
    out, want = upper_stdout({"num_users": 6, "num_levels": 4, "mu": "1/6", "ccdf": ccdf, "caching": spread})
    assert out == want
    assert len({row["value"] for row in json.loads(out)["table"]}) > 100


def test_upper_json_with_values_in_exponent_form(upper_stdout):
    ccdf = sorted_uniform_ccdf(np.random.default_rng(48), 4, 3) * 1e-5
    out, want = upper_stdout({"num_users": 4, "num_levels": 3, "mu": "1/4", "ccdf": ccdf.tolist()})
    assert out == want
    assert re.search(r'"value": \d\.\d+e-05}', out)


@pytest.mark.parametrize("ids", [(10, 11, 12), (1, 10, 100), (9, 10, 99, 100, 12345), (0,)])
def test_table_json_writes_ids_of_any_width(ids):
    rng = np.random.default_rng(len(ids))
    orderings = np.array([rng.permutation(ids) for _ in range(40)])
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1.5e300, 0.1, 1 / 3, 2.0, 12345.678]
    values = rng.choice(special, size=len(orderings))
    want = upper_table_json(zip(orderings.tolist(), values.tolist()))
    assert cli.table_json(orderings, values) == want
    assert cli.table_json(orderings[:1], values[:1]) == upper_table_json([(orderings[0].tolist(), values[0])])


def test_table_json_peaks_below_the_dict_writer():
    # K = 8: 40,320 rows.  The list of dicts and json.dumps peaked at 13.2 MB
    # here, the byte arrays, written from the report's own arrays, at 8.0 MB.
    stats = validate_stats(sorted_uniform_ccdf(np.random.default_rng(8), 8, 4).tolist())
    report = upper_bound.upper_bound_rate(stats, caching.central_tuple(8, Fraction(4, 8)))

    def peak(write):
        tracemalloc.start()
        try:
            text = write()
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    rows = table_rows(report)
    arrays, text = peak(lambda: cli.table_json(report.orderings, report.values))
    dicts, want = peak(lambda: upper_table_json(rows))
    assert text == want
    assert arrays <= dicts, f"{arrays / 1e6:.1f} MB against {dicts / 1e6:.1f} MB"


def test_dump_matrices(capsys, tmp_path):
    prefix = str(tmp_path / "blocks")
    run_json(capsys, ["rates", "achievable", NONDEGRADED, "--json", "--dump-matrices", prefix])
    _, a_ub, _ = build_delivery_lp(validate_stats(MIXED3_ROWS), 1)
    with open(prefix + "_G.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "row"
    assert rows[0][1] == "y(l=1;S=1+2)"
    assert rows[0][-1] == "f"
    assert len(rows) == 1 + 6
    assert rows[1][0] == "decode(k=1;S=1+2)"
    np.testing.assert_allclose(
        [[float(cell) for cell in row[1:]] for row in rows[1:]],
        a_ub[:6],
    )
    with open(prefix + "_H.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3
    assert rows[1][0] == "level(1)"
    np.testing.assert_allclose(
        [[float(cell) for cell in row[1:]] for row in rows[1:]],
        a_ub[6:],
    )


# SHA-256 of the _G.csv and _H.csv blocks that --dump-matrices writes: a
# changed label, cell, row order or number format shows here, where the
# value comparison above would let it pass.
DUMP_DIGESTS = {
    "nondegraded3": (
        "aa5dcd9182af4445c5eceebc431dd17d8ddb9c1b4db02cbacc457e390ab4315a",
        "b131d14adb4306ccf2e8a01ec2f33920531fdd282d92e6ec4fe380c6c4dcc8a8",
    ),
    "K5-t2": (
        "f88012c773d77f11e56954cd3259fade3ba583b6f373841f337337772834a82b",
        "a7ed60b994b9c53bd42aa6f1cdc85078babf4315007752d4d3ea04b7628ca92c",
    ),
}


@pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
def test_dump_matrices_bytes(capsys, tmp_path, name):
    if name == "nondegraded3":
        config = NONDEGRADED
    else:
        grid = sorted_uniform_ccdf(np.random.default_rng(5), 5, 3)
        config = write_config(tmp_path, {"num_users": 5, "num_levels": 3, "mu": "2/5", "ccdf": grid.tolist()})
    prefix = str(tmp_path / "blocks")
    run_json(capsys, ["rates", "achievable", config, "--json", "--dump-matrices", prefix])
    digests = tuple(hashlib.sha256(Path(f"{prefix}_{block}.csv").read_bytes()).hexdigest() for block in "GH")
    assert digests == DUMP_DIGESTS[name]


# --- simulate ---------------------------------------------------------------------


def test_simulate_json_matches_library(capsys):
    payload = run_json(capsys, ["simulate", NONDEGRADED, "--n", "500", "--seed", "9", "--json"])
    stats = validate_stats(MIXED3_ROWS)
    report = simulate_delivery(stats, achievable_rate_lp(stats, "1/3"), 500, 9)
    assert payload["command"] == "simulate"
    assert payload["n"] == 500 and payload["seed"] == 9
    assert [m["delivered"] for m in payload["messages"]] == report.delivered.ravel().tolist()
    assert payload["user_decodable"] == report.user_decodable.tolist()
    np.testing.assert_array_equal(payload["empirical_ccdf"], report.empirical_ccdf)


@pytest.mark.parametrize("users, t", [(4, 0), (4, 3), (5, 0), (5, 4)])
def test_message_lists_match_the_pair_by_pair_oracle(capsys, tmp_path, users, t):
    # rates achievable's margins and simulate's messages are written from
    # arrays in the (subset, member) layout; at t = 0 (one member per
    # subset) and at t = K - 1 (one subset) each list must equal, key
    # order included, the dicts built pair by pair (helpers).
    grid = sorted_uniform_ccdf(np.random.default_rng([46, users, t]), users, 3)
    config = write_config(tmp_path, {"num_users": users, "num_levels": 3, "mu": f"{t}/{users}", "ccdf": grid.tolist()})
    stats = validate_stats(grid)
    alloc = achievable_rate_lp(stats, Fraction(t, users))
    payload = run_json(capsys, ["rates", "achievable", config, "--json"])
    expected = achievable_payload(Fraction(t, users), alloc)["margins"]
    assert [list(m.items()) for m in payload["margins"]] == [list(m.items()) for m in expected]
    report = simulate_delivery(stats, alloc, 997, 5)
    payload = run_json(capsys, ["simulate", config, "--n", "997", "--seed", "5", "--json"])
    expected = simulate_payload(stats, alloc, report)["messages"]
    assert len(expected) == math.comb(users, t + 1) * (t + 1)
    assert [list(m.items()) for m in payload["messages"]] == [list(m.items()) for m in expected]


def _writer_cases():
    for users in range(2, 10):
        for levels in range(1, 6):
            for t in sorted({0, users // 2, users - 1}):
                grid = sorted_uniform_ccdf(np.random.default_rng([48, users, levels]), users, levels)
                yield pytest.param(grid.tolist(), Fraction(t, users), id=f"K{users}-B{levels}-t{t}")
    # A dead channel (rate 0, every share and margin 0) and a grid whose
    # margins are subnormal (-1.66e-316).
    yield pytest.param([[0.0, 0.0], [0.5, 0.2], [0.4, 0.1]], THIRD, id="dead")
    yield pytest.param([[1e-300, 1e-300], [0.5, 0.2], [0.4, 0.1]], THIRD, id="subnormal")


@pytest.mark.parametrize("grid, mu", _writer_cases())
def test_json_stdout_is_json_dumps_of_the_pair_by_pair_payload(capsys, tmp_path, grid, mu):
    # The writer lays `rates achievable --json` and `simulate --json` out
    # from arrays; their raw stdout must be, byte for byte, json.dumps of
    # the payload built pair by pair (helpers), and a newline.
    users = len(grid)
    config = write_config(tmp_path, {"num_users": users, "num_levels": len(grid[0]), "mu": str(mu), "ccdf": grid})
    stats = validate_stats(grid)
    alloc = achievable_rate_lp(stats, mu)
    assert cli.main(["rates", "achievable", config, "--json"]) == 0
    assert_same_text(capsys.readouterr().out, strict_json(achievable_payload(mu, alloc)) + "\n")
    report = simulate_delivery(stats, alloc, 997, users)
    assert cli.main(["simulate", config, "--n", "997", "--seed", str(users), "--json"]) == 0
    assert_same_text(capsys.readouterr().out, strict_json(simulate_payload(stats, alloc, report)) + "\n")


def test_subnormal_grid_has_subnormal_margins(capsys, tmp_path):
    grid = [[1e-300, 1e-300], [0.5, 0.2], [0.4, 0.1]]
    config = write_config(tmp_path, {"num_users": 3, "num_levels": 2, "mu": "1/3", "ccdf": grid})
    out = run_json(capsys, ["rates", "achievable", config, "--json"])
    assert [m["margin"] for m in out["margins"]][:2] == [-1.6578092e-316, 0.35]


def test_pairs_json_writes_every_entry_as_json_does():
    # Columns of floats with every special value (by its bits: -0.0 apart
    # from 0.0), of integers, of booleans, and one value for every pair.
    subsets = message_subsets(12, 2)
    shape = (len(subsets), 3)
    rng = np.random.default_rng(12)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.66e-316, 1e-300, 1.5e300, 0.1, 1 / 3, 2.0]
    floats = rng.choice(special, size=shape)
    counts = rng.integers(-5, 10**12, size=shape)
    flags = rng.random(shape) < 0.5
    texts = cli._subset_texts(subsets, ", ", "[]")
    text = cli._pairs_json(subsets, texts, margin=floats, delivered=counts, required=7, decodable=flags, tail=-0.0)
    want = strict_json([
        {
            "user": k,
            "subset": list(s),
            "margin": floats[j, i].item(),
            "delivered": counts[j, i].item(),
            "required": 7,
            "decodable": flags[j, i].item(),
            "tail": -0.0,
        }
        for j, s in enumerate(subsets)
        for i, k in enumerate(s)
    ])
    assert_same_text(text, want)
    assert_same_text("[" + ", ".join(texts) + "]", json.dumps(subsets))
    assert_same_text(cli._rows_json(floats.T), strict_json(floats.T.tolist()))


@pytest.mark.parametrize("command", ["achievable", "simulate"])
def test_json_writer_peaks_below_the_dict_writer(monkeypatch, command):
    # K = 12, t = 5 (the CI's scenario): 924 subsets and 5544 (subset,
    # member) pairs.  The payload's text, written from the arrays, must
    # peak below the payload of dicts and json.dumps: here 1.1 MB against
    # 5.4 MB (achievable) and 3.7 MB against 6.8 MB (simulate, n = 1000).
    grid = np.sort(np.random.default_rng(12).random((12, 4)), axis=1)[:, ::-1]
    stats = validate_stats(grid.tolist())
    mu = Fraction(5, 12)
    alloc = achievable_rate_lp(stats, mu)
    report = simulate_delivery(stats, alloc, 1000, 3)
    monkeypatch.setattr(lp_scheme, "achievable_rate_lp", lambda *args: alloc)
    monkeypatch.setattr(simulator, "simulate_delivery", lambda *args, **kwargs: report)
    cfg = cli.ScenarioConfig(stats=stats, mu=mu, strategy=None, sim_n=1000, sim_seed=3)
    if command == "achievable":
        args = cli.build_parser().parse_args(["rates", "achievable", "unused.json", "--json"])
        oracle = lambda: strict_json(achievable_payload(mu, alloc))
    else:
        args = cli.build_parser().parse_args(["simulate", "unused.json", "--json"])
        oracle = lambda: strict_json(simulate_payload(stats, alloc, report))

    def peak(write):
        tracemalloc.start()
        try:
            text = write()
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    arrays, text = peak(lambda: args.func(cfg, args))
    dicts, want = peak(oracle)
    assert_same_text(text, want)
    assert arrays < dicts, f"{arrays / 1e6:.2f} MB against {dicts / 1e6:.2f} MB"


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
    assert cli.main(["simulate", DEGRADED, "--n", "10", "--json"]) == 2
    assert "need --seed" in capsys.readouterr().err


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
    # The simulation draws the channel once, and the trace is the levels
    # that draw kept: every message's delivered recounts from the trace's
    # spans.
    calls = []

    def keeping_report(stats, alloc, num_uses, seed, keep_levels=False):
        calls.append((alloc, simulate_delivery(stats, alloc, num_uses, seed, keep_levels=keep_levels)))
        return calls[-1][1]

    monkeypatch.setattr(simulator, "simulate_delivery", keeping_report)
    trace = tmp_path / "levels.csv"
    payload = run_json(
        capsys,
        ["simulate", NONDEGRADED, "--n", "50", "--seed", "8", "--json", "--trace", str(trace)],
    )
    ((alloc, report),) = calls
    levels = report.levels
    expected = "user1,user2,user3\n" + "".join(
        ",".join(str(int(v)) for v in levels[:, t]) + "\n" for t in range(50)
    )
    assert trace.read_text() == expected
    starts = span_starts(alloc, 50)
    for m in payload["messages"]:
        j = alloc.subsets.index(tuple(m["subset"]))
        row = levels[m["user"] - 1]
        got = sum(int(np.count_nonzero(row[bounds[j] : bounds[j + 1]] > l)) for l, bounds in enumerate(starts))
        assert m["delivered"] == got


def test_simulate_trace_bytes_match_row_writer(capsys, tmp_path):
    trace = tmp_path / "levels.csv"
    run_json(
        capsys,
        ["simulate", NONDEGRADED, "--n", "300", "--seed", "4", "--json", "--trace", str(trace)],
    )
    # The row-by-row writer the trace format was first defined by, on the
    # levels simulate_delivery keeps with the same seed.
    stats = validate_stats(MIXED3_ROWS)
    levels = simulate_delivery(stats, achievable_rate_lp(stats, "1/3"), 300, 4, keep_levels=True).levels
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
    expected = io.StringIO()
    np.savetxt(expected, levels.T, fmt="%d", delimiter=",")
    assert b"".join(cli._trace_rows(levels, num_levels)) == expected.getvalue().encode("ascii")


@pytest.mark.parametrize("num_uses", [1, 6, 7, 8, 22])
def test_trace_chunks_join_to_savetxt(monkeypatch, num_uses):
    # Chunks of 7 lines: n below, at and across chunk boundaries, so a line
    # dropped or doubled at a boundary changes the bytes.
    monkeypatch.setattr(cli, "TRACE_CHUNK", 7)
    rng = np.random.default_rng(num_uses)
    levels = rng.integers(0, 11, size=(3, num_uses), dtype=np.uint8)
    chunks = list(cli._trace_rows(levels, 10))
    assert [chunk.count(b"\n") for chunk in chunks] == [
        min(7, num_uses - start) for start in range(0, num_uses, 7)
    ]
    expected = io.StringIO()
    np.savetxt(expected, levels.T, fmt="%d", delimiter=",")
    assert b"".join(chunks) == expected.getvalue().encode("ascii")


def test_trace_writer_memory_is_a_few_chunks():
    # K = 8, n = 2**18 is 16 chunks of TRACE_CHUNK lines.  At B = 5 a level
    # is 2 bytes of a line, held four times at the peak (the lines, their
    # nonzero mask, the kept bytes and their bytes object), and the intp
    # copy of the index covers an eighth of a chunk at a time: chunk by
    # chunk the peak is 8.0 bytes per level of one chunk (14.0 with the
    # whole chunk's index copied at once).
    users, num_uses = 8, 1 << 18
    levels = np.random.default_rng(5).integers(0, 6, size=(users, num_uses), dtype=np.uint8)

    class Sink:
        size = 0

        def write(self, data):
            self.size += len(data)

    sink = Sink()
    tracemalloc.start()
    try:
        for chunk in cli._trace_rows(levels, 5):
            sink.write(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 2 * users * num_uses
    chunk_levels = cli.TRACE_CHUNK * users
    assert peak < 9 * chunk_levels, f"{peak / chunk_levels:.1f} bytes per level of one chunk"


# SHA-256 of `simulate --json` stdout and of the trace file.  Pinned when
# the simulation began to draw each user's level counts per piece (one
# multinomial draw per user over the stretches between its span
# boundaries) in place of one uniform per use: every tally and so every
# byte of both files changed, with every message within 2.9 std_error of
# its analytic margin (60 messages of k6b5, 6 of nondegraded3), after the
# seeded statistical checks passed on the new draws.  The trace is the
# kept levels, each piece's counts shuffled in place, so it is no longer
# sample_states's draw with the same seed.
SIMULATE_DIGESTS = {
    "nondegraded3": (
        5,
        "4b126907b2c369ed17bd951edf34a35c7ad17f3c975055b223ac8671495a1aac",
        "d537462921a42b867510d8a5317ac1899f328fa58a988848e645a366698e3d56",
    ),
    "k6b5": (
        11,
        "9d4484857362474ecf7258e204614dfaabe5b8e30f2ecd310978277ba34e40dc",
        "8fc9a9f3e9823b9742784b2cdb95b3c76257e6364239e03987e1aa0141aa1a73",
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
# per-ordering LPs took the weight form, the gaps in the cost row only
# (every table entry within 3.7e-16 relative of the LPs with the gaps in
# their matrix and within 5e-16 of HiGHS, the same value, argmin_pi and
# uniqueness, omega_star within 4.5e-16), `achievable` when the
# cutting-plane loop began to cut from the pool of subset optima (9 subset
# solves instead of 16, the value within 7e-16 relative of the last one,
# another optimal mix of shares): a change to the LP core must keep these
# bytes.
RATES_DIGESTS = {
    "upper": "b958552437532b6808d5c8b1e5288ee293b22d39ae044ba33cbbc185331ea5a6",
    "achievable": "bc08d8a2d199a44312364bd60cd8e9b2a79692d0fe91b504797e49b69c408f84",
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


def test_simulate_refuses_n_past_int64_before_solving(capsys, monkeypatch):
    monkeypatch.setattr(lp_scheme, "achievable_rate_lp", _no_solve)
    assert cli.main(["simulate", NONDEGRADED, "--n", "10000000000000000000", "--seed", "1", "--json"]) == 2
    assert capsys.readouterr().err == "error: num_uses must be at most 2**63 - 1, got 10000000000000000000\n"


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
    assert cli.main(["sweep", DEGRADED, "--mu", "0:x:1/4"]) == 2
    assert "--mu parts must be fractions: '0:x:1/4'" in capsys.readouterr().err


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
        (lambda c: c.update(simulation={"n": -5}), "'simulation' block: num_uses must be positive"),
        (lambda c: c.update(demands=[1, 1, 2]), "unknown field 'demands'"),
        (lambda c: c.update(demands=[1, 2, 9], num_files=3), "unknown field 'demands', 'num_files'"),
        (lambda c: c.update(cachng=[[["0", "1/3"]]] * 3), "unknown field 'cachng'"),
        (lambda c: c.update(simulation={"n": 10, "sed": 1}), "unknown field 'simulation.sed'"),
        (lambda c: c.update(num_users=True), "'num_users' must be a positive integer"),
        (lambda c: c.update(num_levels=True), "'num_levels' must be a positive integer"),
        (lambda c: c.update(simulation={"n": True}), "'simulation' block: num_uses must be an integer, got True"),
        (lambda c: c.update(simulation={"seed": False}), "'simulation' block: seed must be an integer, got False"),
        (lambda c: c.update(simulation={"seed": -1}), "'simulation' block: seed must be nonnegative"),
        # a row of the right length with a string or a list in it
        (lambda c: c["ccdf"][1].__setitem__(0, "x"), "user 2: CCDF entries must be numbers, got ['x', "),
        (lambda c: c["ccdf"][1].__setitem__(0, [0.5]), "user 2: CCDF entries must be numbers, got [[0.5], "),
        (lambda c: [c], "top level must be an object"),
        (lambda c: c.update(simulation=[2000, 7]), "'simulation' must be an object"),
        (lambda c: c["ccdf"][1].pop(), "'ccdf' row 2 must list 3 probabilities"),
        (lambda c: c.update(caching=[[["0", "1/6", "1/3"]]] * 3), "'caching' must list [lo, hi] fraction pairs"),
        (lambda c: c.update(caching=[[["0", "1/3"]]] * 2), "'caching' must list intervals for 3 users"),
    ],
)
def test_config_validation_failures(capsys, tmp_path, mutate, fragment):
    body = json.loads(Path(NONDEGRADED).read_text())
    top = mutate(body)  # a case that returns a list makes it the top level
    cfg = write_config(tmp_path, json.dumps(top) if isinstance(top, list) else body)
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


@pytest.mark.parametrize("entry", [True, False, "0.9", None])
def test_config_ccdf_entries_must_be_json_numbers(capsys, tmp_path, entry):
    # float() reads true and false as 1.0 and 0.0, and numpy reads "0.9" as
    # 0.9: a CCDF entry must be a JSON number, as every other number in a
    # config must not be a boolean.
    body = json.loads(Path(NONDEGRADED).read_text())
    body["ccdf"][1][1] = entry
    cfg = write_config(tmp_path, body)
    assert cli.main(["rates", "upper", cfg]) == 2
    row = body["ccdf"][1]
    assert capsys.readouterr().err == f"error: config: user 2: CCDF entries must be numbers, got {row!r}\n"


def test_config_ccdf_takes_integer_entries(capsys, tmp_path):
    body = {"num_users": 2, "num_levels": 2, "mu": "1/2", "ccdf": [[1, 0.5], [1, 0]]}
    ints = run_json(capsys, ["rates", "upper", write_config(tmp_path, body), "--json"])
    body["ccdf"] = [[1.0, 0.5], [1.0, 0.0]]
    assert run_json(capsys, ["rates", "upper", write_config(tmp_path, body), "--json"]) == ints


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


def test_bound_on_tiny_gaps(capsys, tmp_path):
    # Users 1 and 2 leave 1e-16 of the file uncovered: the bound is finite.
    body = {
        "num_users": 4,
        "num_levels": 3,
        "mu": "1/2",
        "ccdf": sorted_uniform_ccdf(np.random.default_rng([4, 7]), 4, 3).tolist(),
        "caching": [[[str(a), str(b)] for a, b in user] for user in tiny_gap_placement(4)],
    }
    payload = run_json(capsys, ["rates", "upper", write_config(tmp_path, body), "--json"])
    assert isinstance(payload["value"], float) and 0.0 < payload["value"] < float("inf")


@pytest.mark.parametrize(
    "command",
    ["rates two-user", "rates degraded", "rates achievable", "simulate --n 10 --seed 1", "sweep --mu 0:1:1/3"],
)
def test_caching_is_refused_outside_rates_upper(capsys, tmp_path, command):
    # Every user caches (0, 1/3]: a placement only the bound would read.
    body = json.loads(Path(NONDEGRADED).read_text())
    body["caching"] = [[["0", "1/3"]]] * 3
    cfg = write_config(tmp_path, body)
    assert cli.main([*command.split(), cfg]) == 2
    assert capsys.readouterr().err == (
        "error: config: only 'rates upper' reads 'caching'; the other commands use the central placement\n"
    )


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


def test_bound_rejects_large_k_explicit_placement_quickly(capsys, tmp_path):
    # An explicit placement's tuple comes from interval sweeps: 4095
    # coverage measures at K = 12, several seconds.  The cap is checked
    # before the tuple is built.
    placement = central_strategy(12, Fraction(5, 12)).intervals
    body = {
        "num_users": 12,
        "num_levels": 2,
        "mu": "5/12",
        "ccdf": [[0.6, 0.2]] * 12,
        "caching": [[[str(a), str(b)] for a, b in user] for user in placement],
    }
    cfg = write_config(tmp_path, body)
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

    solve = upper_bound._solve_from_vertex

    def one_unbounded(ccdf, kept, gaps):
        outcomes = solve(ccdf, kept, gaps)
        c, a_ub, _, _ = upper_bound._permutation_lps(ccdf, kept, gaps)
        for i in np.flatnonzero(stack_hits(c, a_ub, target)).tolist():
            outcomes.status[i] = UNBOUNDED
        return outcomes

    monkeypatch.undo()
    monkeypatch.setattr(upper_bound, "_solve_from_vertex", one_unbounded)
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

    def patch(outcome):
        """Make the LP give outcome: the delivery LP's master is a GrowingLp
        solved once per cut, and the chain LP an LpStack of one; each solve
        returns it."""
        if module is lp_scheme:
            monkeypatch.setattr(GrowingLp, "solve", lambda master: outcome)
        else:
            monkeypatch.setattr(LpStack, "solve", lambda stack, c: [outcome])

    patch(NumericalFailure(message))
    assert cli.main(["rates", command, config]) == 3
    assert f"{label}: {message}" in capsys.readouterr().err

    patch(LpSolution(UNBOUNDED, None, None, None))
    assert cli.main(["rates", command, config]) == 3
    assert f"{label}: status unbounded" in capsys.readouterr().err


def test_delivery_lp_subproblem_failures_name_the_cut(capsys, monkeypatch):
    label = "delivery LP (K=3, t=1, B=3)"
    solve = LpStack.solve

    def replacing_subset_13_at_solve_2(outcome):
        calls = []

        def patched(stack, lam):
            outcomes = solve(stack, lam)
            calls.append(None)
            if len(calls) == 2:
                outcomes.status[1] = outcome  # subsets are (1, 2), (1, 3), (2, 3)
            return outcomes

        return patched

    failure = NumericalFailure("optimal basis fails dual feasibility check (dual residual 0.25)")
    monkeypatch.setattr(LpStack, "solve", replacing_subset_13_at_solve_2(failure))
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    err = capsys.readouterr().err
    assert f"{label}: optimal basis fails dual feasibility check (dual residual 0.25)" in err
    assert "(subset (1, 3), subset solve 2, gap " in err

    monkeypatch.setattr(LpStack, "solve", replacing_subset_13_at_solve_2(UNBOUNDED))
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    assert f"{label}: status unbounded (subset (1, 3), subset solve 2, gap " in capsys.readouterr().err


def master_failure_message(capsys, monkeypatch, failing):
    """stderr of `rates achievable` on NONDEGRADED when its master solve number failing fails."""
    solve = GrowingLp.solve
    calls = []

    def failing_at_call(master):
        calls.append(None)
        if len(calls) == failing:
            return NumericalFailure("simplex did not converge in 100000 iterations")
        return solve(master)

    monkeypatch.setattr(GrowingLp, "solve", failing_at_call)
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    return capsys.readouterr().err


def test_delivery_lp_master_failure_names_the_cut(capsys, monkeypatch):
    # The first master solve is the seed master's, the third subset solve
    # 2's (the pool never cuts on this LP).
    err = master_failure_message(capsys, monkeypatch, 3)
    assert (
        "delivery LP (K=3, t=1, B=3): simplex did not converge in 100000 iterations (master LP, subset solve 2, gap "
        in err
    )


def test_delivery_lp_seed_master_failure_names_its_step(capsys, monkeypatch):
    err = master_failure_message(capsys, monkeypatch, 1)
    assert "delivery LP (K=3, t=1, B=3): simplex did not converge in 100000 iterations (master LP, seed cuts)" in err


def test_delivery_lp_cut_cap_and_recheck_fail_loudly(capsys, monkeypatch):
    monkeypatch.setattr(lp_scheme, "MAX_CUTS", 2)
    assert cli.main(["rates", "achievable", NONDEGRADED]) == 3
    err = capsys.readouterr().err
    # Subset solves 1 and 2 enter the two cuts the master has room for;
    # solve 3's would be the third.
    assert (
        "solver failure: delivery LP (K=3, t=1, B=3): cutting planes did not converge in 2 cuts (subset solve 3, gap "
        in err
    )

    monkeypatch.undo()
    monkeypatch.setattr(lp_scheme, "FEAS_TOL", -1.0)
    assert cli.main(["simulate", NONDEGRADED, "--n", "10", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "delivery LP (K=3, t=1, B=3): allocation fails its recheck (largest violation " in err
    assert re.search(r"\(subset solve \d+, gap [-+.e\d]+\)", err)


# Grids on which 1/w overflows on every level, w the weakest member's
# entry: 5e-324 beside 0.5 (scaled to 1e-323 beside 1) at t = 0, and
# 1e-310 on both levels of the one subset at t = 1.  No level gets a seed
# cut, so the master would solve with no columns; the delivery LP must
# fail as a solver failure (exit 3), as `rates upper` and `rates degraded`
# do on these grids, and not with a traceback.
@pytest.mark.parametrize(
    "grid, mu", [([[5e-324], [0.5]], "0"), ([[1e-310, 1e-310], [0.9, 0.5]], "1/2")], ids=["5e-324", "1e-310"]
)
@pytest.mark.parametrize("command", ["achievable", "simulate", "sweep"])
def test_delivery_lp_without_seed_cuts_is_a_solver_failure(capsys, tmp_path, grid, mu, command):
    config = write_config(tmp_path, {"num_users": 2, "num_levels": len(grid[0]), "mu": mu, "ccdf": grid})
    argv = {
        "achievable": ["rates", "achievable", config],
        "simulate": ["simulate", config, "--n", "10", "--seed", "1"],
        "sweep": ["sweep", config, "--mu", f"{mu}:{mu}:1"],
    }[command]
    assert cli.main(argv) == 3
    label = f"delivery LP (K=2, t={2 * Fraction(mu)}, B={len(grid[0])})"
    assert capsys.readouterr().err == f"solver failure: {label}: no level gets a seed cut (1/w overflows on every level)\n"


def test_parser_is_built_once_and_outlives_a_failed_parse(capsys):
    # main parses with one parser per process.  A call whose arguments
    # fail to parse exits 2 (argparse's SystemExit) and leaves that parser
    # as it was: the next call in the same process parses as a freshly
    # built parser does, and runs.
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    for bad in (["rates", "upper", NONDEGRADED, "--no-such-flag"], ["rates"], ["sweep", DEGRADED]):
        with pytest.raises(SystemExit) as exited:
            cli.main(bad)
        assert exited.value.code == 2
        assert "error: " in capsys.readouterr().err
    argv = ["rates", "upper", NONDEGRADED, "--table", "--json"]
    assert vars(parser.parse_args(argv)) == vars(cli.build_parser.__wrapped__().parse_args(argv))
    assert cli.build_parser() is parser
    assert abs(run_json(capsys, argv)["value"] - MIXED3_BOUND) <= 1e-9


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
