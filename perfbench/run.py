"""Benchmark of the `cachecast` CLI: three workloads, checked against HiGHS.

    python3 perfbench/run.py                       # every workload, plain run
    python3 perfbench/run.py --workload bound-k6 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload simulate-1e6 --trace 1   # per-layer run

Each workload runs in its own process (workload.py), one after another,
with BLAS pinned to one thread and CACHECAST_THREADS unset.  Set-up time is
the median over SETUP_PROBES extra processes that only set up, plus the
timed one.  After the timed process has ended, every output it produced is
checked against references computed here (reference.py); the last line
printed is one JSON object with correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced process (tracing.py).  Exits 1 without a JSON
line when a workload process cannot run.
"""

from __future__ import annotations

import os

# Before numpy loads here: the reference LPs need no BLAS threads either.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("CACHECAST_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics, read_spans  # noqa: E402

SETUP_PROBES = 9
# Calibration kernel time (workload.Calibration) that defines the reference
# speed every reported time is scaled to.  Changing it rescales every figure.
REFERENCE_CALIBRATION_S = 0.04
PROCESS_TIMEOUT_S = 170


class WorkloadError(RuntimeError):
    """A workload process failed to run; no result can be reported."""


def start_workload(
    workload: str, seed: int, seconds: float, outdir: Path, extra: list[str]
) -> tuple[float, float]:
    """Run workload.py once; return its set-up time and the calibration after it."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--outdir", str(outdir), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkloadError(f"{workload} process exited {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - started, report["calibration"]


def check_record(workload: str, op: dict, record: dict, refs: reference.ScenarioRefs) -> tuple[bool, list[str]]:
    """(known failure?, problems) for one operation's outputs."""
    calls = record["calls"]
    last = calls[-1]
    if last["rc"] != 0:
        known = (
            workload == "bound-k6"
            and last["rc"] == reference.KNOWN_FAILURE_CODE
            and reference.KNOWN_FAILURE_TEXT in last["stderr"]
        )
        if known:
            return True, []
        return False, [f"{op['name']}: exit {last['rc']}: {last['stderr'].strip()[-300:]}"]
    try:
        outs = [json.loads(c["stdout"]) for c in calls]
        if workload == "bound-k6":
            problems = reference.check_upper(refs, outs[0])
        elif workload == "delivery-ladder":
            problems = reference.check_achievable(refs, outs[0])
            if len(outs) > 1:
                problems += reference.check_degraded(refs, outs[1], outs[0])
        else:
            n, seed = op["sim"]["n"], op["sim"]["seed"]
            problems = reference.check_simulation(refs, outs[0], n, seed)
            if record["trace"] is not None:
                problems += reference.check_trace(refs, record["trace"], outs[0], n)
                Path(record["trace"]).unlink()
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        problems = [f"malformed output ({type(exc).__name__}: {exc})"]
    return False, [f"{op['name']}: {p}" for p in problems]


def sampling_per_scenario(spans: list[tuple], records: list[dict]) -> str:
    """channel.sample_states calls per scenario, with and without --trace."""
    calls = [0] * len(records)
    for name, *_, scenario, _ in spans:
        if name == "channel.sample_states":
            calls[scenario] += 1
    parts = []
    for label, traced in (("--trace", True), ("other", False)):
        mine = [c for c, r in zip(calls, records) if (r["trace"] is not None) == traced]
        if mine:
            parts.append(f"{label} scenarios {sum(mine) / len(mine):g}")
    return "channel.sample_states calls per scenario: " + ", ".join(parts)


def check_all(workload: str, result: dict) -> tuple[list[str], list[str]]:
    """(problems, notes) over every record of a run."""
    refs = {}
    problems, notes = [], []
    for record in result["records"]:
        op = result["ops"][record["op"]]
        if op["config"] not in refs:
            scenario = json.loads(Path(op["config"]).read_text(encoding="utf-8"))
            refs[op["config"]] = reference.ScenarioRefs(scenario)
        known, found = check_record(workload, op, record, refs[op["config"]])
        problems += found
        if known and record["round"] == 0:
            # The scenario is well posed: HiGHS solves every ordering LP.
            best = min(refs[op["config"]].table.values())
            notes.append(f"known failure {op['name']}: exit 3 (HiGHS bound {best:.6f})")
    return problems, notes


def normalised(seconds: float, calibration: float) -> float:
    """A wall time rescaled to the reference speed.

    The machine's speed drifts with other load, by about 20% over seconds to
    minutes on the 2-CPU sandbox this was built on.  A time is divided by
    the calibration kernel's time around it, measured in the same process
    (workload.Calibration), and multiplied by REFERENCE_CALIBRATION_S.
    """
    return seconds * REFERENCE_CALIBRATION_S / calibration


def timings(result: dict) -> tuple[list[float], list[float]]:
    """Each record's (raw, normalised) wall time.

    A record is scaled by the mean of the calibrations just before and just
    after it, the closest measurements of the machine's speed while it ran.
    """
    records = result["records"]
    kernel = [r["calibration"] for r in records] + [result["final_calibration"]]
    raw = [r["seconds"] for r in records]
    return raw, [normalised(s, (kernel[i] + kernel[i + 1]) / 2) for i, s in enumerate(raw)]


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    outdir = HERE / "out" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(outdir, ignore_errors=True)
    setups = [
        start_workload(workload, seed, seconds, outdir / "setup", ["--setup-only"])
        for _ in range(SETUP_PROBES)
    ]
    setups.append(start_workload(workload, seed, seconds, outdir, ["--trace"] if traced else []))
    result = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    with open(outdir / "records.jsonl", encoding="utf-8") as fh:
        result["records"] = [json.loads(line) for line in fh]

    problems, notes = check_all(workload, result)
    records = result["records"]
    rounds = records[-1]["round"] + 1
    raw, scaled = timings(result)
    ok = [all(c["rc"] == 0 for c in r["calls"]) for r in records]
    failed = len(records) - sum(ok)
    per_op: dict[int, list[float]] = {}
    for r, seconds, good in zip(records, scaled, ok):
        if good:
            per_op.setdefault(r["op"], []).append(seconds)
    if not per_op:
        problems.append("no scenario completed")
    end_to_end = {
        "setup_s": (statistics.median(normalised(s, c) for s, c in setups), "s"),
        "scenarios_per_s": (sum(ok) / sum(scaled), "1/s"),
        "scenario_s_p50": (statistics.median(statistics.median(v) for v in per_op.values()) if per_op else 0.0, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    print(f"== {workload} seed {seed}: {len(records)} scenarios in {rounds} rounds, "
          f"{result['loop_seconds']:.2f} s timed{' (traced)' if traced else ''}")
    print(f"   wall clock as measured: {sum(ok) / sum(raw):.6g} scenarios/s, "
          f"set-up {statistics.median(s for s, _ in setups):.6g} s; machine speed "
          f"{REFERENCE_CALIBRATION_S / statistics.median(r['calibration'] for r in records):.3f} x reference; "
          f"peak_rss_mb leaves out the calibration kernel's {result['calibration_mb']:.1f} MB")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:>40} {value:12.6g} {unit}")
    if traced:
        spans = read_spans(outdir / "spans.csv")
        per_layer = layer_metrics(spans, len(records))
        units = dict(LAYER_METRICS)
        for name, value in per_layer.items():
            print(f"{name:>40} {value:12.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in per_layer.items()}
        if any(r["trace"] is not None for r in records):
            print(sampling_per_scenario(spans, records))
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    for line in notes:
        print(line)
    print(f"attempted {len(records)}, failed {failed}, check problems {len(problems)}")
    for line in problems[:20]:
        print(f"PROBLEM {line}")
    return {"correct": not problems, "attempted": len(records), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description="cachecast CLI benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (WorkloadError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
