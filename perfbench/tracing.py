"""Spans around the calls into each `cachecast` layer, recorded from outside.

Tracer.install replaces each traced function with a wrapper under every
name a `cachecast` module holds it by, since several modules import
`solve_lp`, `sample_states`, `validate_stats` and `check_allocation` by
name.  Spans stay in memory; the workload process writes them out once, at
its end.  layer_metrics turns a span dump into the per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import importlib
import statistics
import sys
from time import perf_counter

# (module, function) pairs wrapped in a traced run; cli.main is the root
# span, opened by the workload around each call.
TRACED = (
    ("cli", "load_config"),
    ("channel", "validate_stats"),
    ("caching", "central_strategy"),
    ("caching", "caching_tuple"),
    ("upper_bound", "upper_bound_rate"),
    ("upper_bound", "build_permutation_lp"),
    ("lp", "solve_lp"),
    ("lp_scheme", "build_delivery_lp"),
    ("lp_scheme", "achievable_rate_lp"),
    ("lp_scheme", "check_allocation"),
    ("degraded", "degraded_optimal_rate"),
    ("degraded", "z_to_y"),
    ("channel", "sample_states"),
    ("simulator", "simulate_delivery"),
    ("simulator", "apportion"),
    ("simulator", "empirical_ccdf"),
)

# Per-layer metrics, each a mean per attempted scenario unless its name
# ends in _p50 (a median over calls).  "<layer>_s" is the layer's total
# time including its traced callees, "<layer>_self_s" excludes them.
LAYER_METRICS = (
    ("cli.main_self_s", "s"),
    ("cli.load_config_s", "s"),
    ("channel.validate_stats_s", "s"),
    ("caching.central_strategy_s", "s"),
    ("caching.caching_tuple_s", "s"),
    ("upper_bound.upper_bound_rate_self_s", "s"),
    ("upper_bound.build_permutation_lp_s", "s"),
    ("upper_bound.build_permutation_lp_calls", "count"),
    ("lp.solve_lp_s", "s"),
    ("lp.solve_lp_calls", "count"),
    ("lp.solve_lp_call_s_p50", "s"),
    ("lp.solve_lp_failed", "count"),
    ("lp_scheme.build_delivery_lp_s", "s"),
    ("lp_scheme.achievable_rate_lp_self_s", "s"),
    ("lp_scheme.check_allocation_s", "s"),
    ("degraded.degraded_optimal_rate_self_s", "s"),
    ("degraded.z_to_y_s", "s"),
    ("channel.sample_states_s", "s"),
    ("channel.sample_states_calls", "count"),
    ("simulator.simulate_delivery_self_s", "s"),
    ("simulator.apportion_s", "s"),
    ("simulator.empirical_ccdf_s", "s"),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "scenario", "failed")


class Tracer:
    """In-memory spans: [name, start, end, parent index, scenario, failed]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.scenario = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.scenario, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every TRACED function under each name any cachecast module binds it to."""
        modules = [importlib.import_module(f"cachecast.{mod}") for mod, _ in TRACED]
        loaded = [m for name, m in sys.modules.items() if name == "cachecast" or name.startswith("cachecast.")]
        for (mod, fname), module in zip(TRACED, modules):
            original = getattr(module, fname)
            wrapped = self.wrap(f"{mod}.{fname}", original)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
                        self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SPAN_FIELDS)
            writer.writerows(self.spans)


def read_spans(path) -> list[tuple]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [
        (name, float(start), float(end), int(parent), int(scenario), failed == "True")
        for name, start, end, parent, scenario, failed in rows
    ]


def layer_metrics(spans: list[tuple], scenarios: int) -> dict[str, float]:
    """Per-layer metrics from spans; totals are divided by `scenarios`."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, _, _, bad) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - covered[i])
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + bad
        durations.setdefault(name, []).append(end - start)
    metrics = {}
    for metric, _ in LAYER_METRICS:
        if metric.endswith("_call_s_p50"):
            samples = durations.get(metric[: -len("_call_s_p50")], [])
            metrics[metric] = statistics.median(samples) if samples else 0.0
            continue
        for suffix, table in (("_self_s", own), ("_s", total), ("_calls", calls), ("_failed", failed)):
            if metric.endswith(suffix):
                metrics[metric] = table.get(metric[: -len(suffix)], 0) / scenarios
                break
    return metrics
