"""One workload in one process: set up, run timed rounds, save the outputs.

Started by run.py with BLAS pinned to one thread.  The process imports
`cachecast` from the checkout's `src/`, writes its scenario files, notes
the moment set-up ended, then calls `cachecast.cli.main` in-process on
every operation, for the fixed number of whole rounds that `--seconds`
gives (scenarios.rounds), timing a calibration kernel before each
operation.  Each operation's outputs and timings are appended to
records.jsonl as soon as it ends, so they do not add to the process's
memory; peak memory and the run's totals go to result.json in --outdir.
Checking them is run.py's job, so scipy never loads here.

    python3 perfbench/workload.py --workload bound-k6 --seed 1 \
        --seconds 30 --outdir perfbench/out/bound-k6 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cachecast import cli  # noqa: E402  (after the src/ path entry)

import numpy as np  # noqa: E402

import scenarios  # noqa: E402
from tracing import Tracer  # noqa: E402


class Calibration:
    """A fixed kernel that does none of the program's work, timed on demand.

    It mimics the program's three kinds of load: a Python loop of row
    updates on a small array and on one the size of the largest delivery
    LP's tableau, as in a dense simplex pivot, and vectorised comparison and
    counting, as in sampling.  Timed before every operation and once at the
    end, it tracks how fast the machine runs around each operation (see
    run.py, `normalised`).
    """

    def __init__(self) -> None:
        self.small = np.full((200, 60), 2.0)
        self.tableau = np.full((640, 1140), 2.0)
        self.uniform = np.linspace(0.0, 1.0, 200_000)
        self.measure()  # the first run in a process pays for warming up

    def measure(self) -> float:
        started = time.perf_counter()
        for a, pivots in ((self.small, 30), (self.tableau, 3)):
            for _ in range(pivots):
                pivot = a[7] / a[7, 3]
                for r in range(a.shape[0]):
                    if a[r, 3] != 0.0:
                        a[r] -= 1e-12 * pivot
        for level in np.linspace(0.05, 0.95, 6):
            int(np.count_nonzero(self.uniform[:, None] < np.array([level, level / 2])))
        return time.perf_counter() - started


def memory_mb(field: str) -> float:
    """This process's VmHWM (peak) or VmRSS (now) from /proc/self/status.

    Not ru_maxrss: Linux carries the launcher's resident size at the fork
    over into the child's ru_maxrss, and run.py has scipy loaded.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(f"{field}:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


def call_cli(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # a crash is an outcome to report, not to hide
            rc = None
            err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_rounds(
    ops, rounds: int, outdir: Path, main, tracer, calibration: Calibration
) -> tuple[float, float]:
    """Run `rounds` rounds; return the loop's wall time and a last calibration."""
    start = time.perf_counter()
    with open(outdir / "records.jsonl", "w", encoding="utf-8") as log:
        for round_no in range(rounds):
            for index, op in enumerate(ops):
                if tracer is not None:
                    tracer.scenario = round_no * len(ops) + index
                run_op(op, index, round_no, outdir, main, calibration, log)
    return time.perf_counter() - start, calibration.measure()


def run_op(op, index: int, round_no: int, outdir: Path, main, calibration: Calibration, log) -> None:
    trace_path = outdir / f"trace-r{round_no}-{index}.csv" if op.sim.get("trace") else None
    results = []
    calibrated = calibration.measure()
    began = time.perf_counter()
    for call in op.calls:
        argv = [*call, str(op.config)]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        results.append(call_cli(main, argv))
        if results[-1]["rc"] != 0:
            break
    elapsed = time.perf_counter() - began
    record = {
        "op": index,
        "round": round_no,
        "seconds": elapsed,
        "calibration": calibrated,
        "calls": results,
        "trace": None if trace_path is None else str(trace_path),
    }
    log.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = scenarios.build(args.workload, args.seed, args.outdir / "scenarios", ROOT)
    ready = time.monotonic()
    resident_before = memory_mb("VmRSS")
    calibration = Calibration()
    setup_calibration = calibration.measure()
    # The kernel's arrays stay resident for the whole run; they are the
    # benchmark's memory, not the program's.
    calibration_mb = memory_mb("VmRSS") - resident_before
    if args.setup_only:
        print(json.dumps({"ready": ready, "calibration": setup_calibration}))
        return 0

    tracer = None
    main_fn = cli.main
    if args.trace:
        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap("cli.main", cli.main)
    loop_seconds, final_calibration = run_rounds(
        ops, scenarios.rounds(args.workload, args.seconds), args.outdir, main_fn, tracer, calibration
    )
    peak_mb = memory_mb("VmHWM")

    if tracer is not None:
        tracer.write(args.outdir / "spans.csv")
    result = {
        "ready": ready,
        "loop_seconds": loop_seconds,
        "final_calibration": final_calibration,
        "peak_rss_mb": peak_mb - calibration_mb,
        "calibration_mb": calibration_mb,
        "ops": [
            {"name": op.name, "config": str(op.config), "calls": [list(c) for c in op.calls], "sim": op.sim}
            for op in ops
        ],
    }
    (args.outdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps({"ready": ready, "calibration": setup_calibration}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
