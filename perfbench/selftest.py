"""Tests of the benchmark's own checks: real outputs pass, corrupted ones fail.

    python3 -m pytest -q perfbench/selftest.py

Each checker in reference.py is run on the program's real output for one
small scenario per workload, then on copies with one planted fault.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cachecast import cli  # noqa: E402

import reference  # noqa: E402
import scenarios  # noqa: E402

SIM_N = 20_000


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def scenario_file(tmp_path: Path, name: str, users: int, levels: int, mu: str, ccdf) -> tuple[Path, reference.ScenarioRefs]:
    path = scenarios.write_scenario(tmp_path / f"{name}.json", users, levels, mu, ccdf)
    return path, reference.ScenarioRefs(json.loads(path.read_text()))


@pytest.fixture
def upper(tmp_path):
    ccdf = scenarios.sorted_uniform_ccdf(np.random.default_rng(5), 4, 3)
    path, refs = scenario_file(tmp_path, "upper", 4, 3, "1/4", ccdf)
    return refs, run_cli(["rates", "upper", "--json", str(path)])


@pytest.fixture
def chain(tmp_path):
    ccdf = scenarios.chain_ccdf(np.random.default_rng(6), 5, 3)
    path, refs = scenario_file(tmp_path, "chain", 5, 3, "2/5", ccdf)
    achievable = run_cli(["rates", "achievable", "--json", str(path)])
    return refs, achievable, run_cli(["rates", "degraded", "--json", str(path)])


@pytest.fixture
def simulated(tmp_path):
    ccdf = scenarios.sorted_uniform_ccdf(np.random.default_rng(7), 3, 3)
    path, refs = scenario_file(tmp_path, "sim", 3, 3, "1/3", ccdf)
    trace = tmp_path / "trace.csv"
    out = run_cli(["simulate", "--json", "--n", str(SIM_N), "--seed", "11", "--trace", str(trace), str(path)])
    return refs, out, trace


def test_upper_accepts_real_output(upper):
    refs, out = upper
    assert reference.check_upper(refs, out) == []


def test_upper_rejects_rate_off_by_1e4(upper):
    refs, out = upper
    bad = copy.deepcopy(out)
    bad["value"] += 1e-4
    assert reference.check_upper(refs, bad)


def test_upper_rejects_dropped_ordering_row(upper):
    refs, out = upper
    bad = copy.deepcopy(out)
    del bad["table"][len(bad["table"]) // 2]
    assert reference.check_upper(refs, bad)


def test_upper_rejects_table_entry_off_by_1e4(upper):
    refs, out = upper
    bad = copy.deepcopy(out)
    bad["table"][-1]["value"] += 1e-4
    assert reference.check_upper(refs, bad)


def test_upper_rejects_nan_table_entry(upper):
    refs, out = upper
    bad = copy.deepcopy(out)
    bad["table"][-1]["value"] = math.nan
    assert reference.check_upper(refs, bad)


def test_upper_rejects_wrong_weights(upper):
    refs, out = upper
    bad = copy.deepcopy(out)
    bad["omega_star"] = [1.0] * len(bad["omega_star"])
    bad["omega_star"][0] = 7.0
    assert reference.check_upper(refs, bad)


def test_achievable_and_degraded_accept_real_output(chain):
    refs, achievable, degraded = chain
    assert reference.check_achievable(refs, achievable) == []
    assert reference.check_degraded(refs, degraded, achievable) == []


def test_achievable_rejects_rate_off_by_1e4(chain):
    refs, achievable, _ = chain
    bad = copy.deepcopy(achievable)
    bad["value"] += 1e-4
    assert reference.check_achievable(refs, bad)


def test_achievable_rejects_negative_share(chain):
    refs, achievable, _ = chain
    bad = copy.deepcopy(achievable)
    bad["shares"][0][0] = -1e-6
    assert reference.check_achievable(refs, bad)


def test_achievable_rejects_nan_share(chain):
    refs, achievable, _ = chain
    bad = copy.deepcopy(achievable)
    bad["shares"][-1][-1] = math.nan
    assert reference.check_shares(refs, bad["value"], bad["subsets"], bad["shares"])
    assert reference.check_achievable(refs, bad)


def test_achievable_rejects_short_message(chain):
    refs, achievable, _ = chain
    bad = copy.deepcopy(achievable)
    bad["shares"] = [[0.0] * len(row) for row in bad["shares"]]
    assert reference.check_achievable(refs, bad)


def test_degraded_rejects_rate_off_by_1e4(chain):
    refs, achievable, degraded = chain
    bad = copy.deepcopy(degraded)
    bad["rate"] += 1e-4
    assert reference.check_degraded(refs, bad, achievable)


def test_simulation_accepts_real_output(simulated):
    refs, out, trace = simulated
    assert reference.check_simulation(refs, out, SIM_N, 11) == []
    assert reference.check_trace(refs, trace, out, SIM_N) == []


def test_simulation_rejects_rate_off_by_1e4(simulated):
    refs, out, _ = simulated
    bad = copy.deepcopy(out)
    bad["rate"] += 1e-4
    assert reference.check_simulation(refs, bad, SIM_N, 11)


def test_simulation_rejects_ccdf_shifted_by_6_sigma(simulated):
    refs, out, _ = simulated
    bad = copy.deepcopy(out)
    p = refs.ccdf[1, 1]
    bad["empirical_ccdf"][1][1] = p + 6.0 * math.sqrt(p * (1 - p) / SIM_N)
    assert reference.check_simulation(refs, bad, SIM_N, 11)


def test_simulation_rejects_nan_ccdf_entry_and_margin(simulated):
    refs, out, _ = simulated
    bad = copy.deepcopy(out)
    bad["empirical_ccdf"][0][0] = math.nan
    assert reference.check_simulation(refs, bad, SIM_N, 11)
    bad = copy.deepcopy(out)
    bad["messages"][0]["empirical_margin"] = math.nan
    assert reference.check_simulation(refs, bad, SIM_N, 11)


def test_simulation_rejects_margin_shifted_by_6_sigma(simulated):
    refs, out, _ = simulated
    bad = copy.deepcopy(out)
    msg = bad["messages"][0]
    msg["empirical_margin"] = msg["analytic_margin"] + 6.0 * msg["std_error"]
    assert reference.check_simulation(refs, bad, SIM_N, 11)


def test_simulation_rejects_wrong_required_count(simulated):
    refs, out, _ = simulated
    bad = copy.deepcopy(out)
    bad["messages"][0]["required"] += 1
    assert reference.check_simulation(refs, bad, SIM_N, 11)


def test_trace_rejects_missing_row(simulated, tmp_path):
    refs, out, trace = simulated
    lines = trace.read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:-1]))
    assert reference.check_trace(refs, short, out, SIM_N)


def test_trace_rejects_changed_level(simulated, tmp_path):
    refs, out, trace = simulated
    lines = trace.read_text().splitlines(keepends=True)
    first = lines[1].split(",")
    first[0] = str((int(first[0]) + 1) % (refs.levels + 1))
    lines[1] = ",".join(first)
    changed = tmp_path / "changed.csv"
    changed.write_text("".join(lines))
    assert reference.check_trace(refs, changed, out, SIM_N)


def test_tracer_counts_calls_and_self_time():
    from tracing import Tracer, layer_metrics

    from cachecast import channel, simulator

    tracer = Tracer()
    tracer.install()
    try:
        assert simulator.sample_states is channel.sample_states
        stats = channel.validate_stats([[0.5, 0.2]])
        tracer.wrap("cli.main", lambda: channel.sample_states(stats, 10, 1))()
    finally:
        tracer.uninstall()
    metrics = layer_metrics([tuple(s) for s in tracer.spans], scenarios=1)
    assert metrics["channel.sample_states_calls"] == 1
    assert metrics["channel.validate_stats_s"] > 0
    main_span = next(s for s in tracer.spans if s[0] == "cli.main")
    child = next(s for s in tracer.spans if s[0] == "channel.sample_states")
    assert metrics["cli.main_self_s"] == pytest.approx((main_span[2] - main_span[1]) - (child[2] - child[1]))
    assert channel.sample_states.__name__ == "sample_states" and not hasattr(channel.sample_states, "__wrapped__")
