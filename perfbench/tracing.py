"""Spans around the public calls into each routelens module.

The program is traced from outside: each traced function is replaced, at
the attribute where its caller looks the name up, by a wrapper that
records a span (name, start, end, parent) and, after the span closes,
counts taken from the call's inputs and outputs. Per-item hot functions
are never wrapped. Spans stay in memory until the pass ends.

A layer metric `<span>_s` is the summed self time of that span: its
duration minus the durations of its direct children (calls nest on one
thread, so children never overlap).
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

MIB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.written: dict[str, list[str]] = {}  # metric -> paths, sized after the pass
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), float("nan"),
                        self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name, after in TRACE_POINTS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(span_name, getattr(module, attr), after))

    def finish(self) -> dict:
        """Spans, counts and sizes of written files, as JSON-ready data."""
        counts = dict(self.counts)
        for metric, files in self.written.items():
            counts[metric] = sum(Path(f).stat().st_size for f in files) / MIB
        return {
            "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
            "counts": counts,
        }


# --- counts taken at the span boundaries -------------------------------------------


def _counter(*pairs: tuple[str, Callable[[tuple, Any], float]]) -> Callable:
    def after(recorder: Recorder, args: tuple, result: Any) -> None:
        for name, measure in pairs:
            recorder.count(name, measure(args, result))

    return after


def _written(metric: str) -> Callable:
    def after(recorder: Recorder, args: tuple, result: Any) -> None:
        recorder.written.setdefault(metric, []).append(str(args[0]))

    return after


def _rib_entries(ribs) -> int:
    return sum(
        len(rib.live) + sum(len(entries) for entries in rib.history.values())
        for rib in ribs.values()
    )


def _once(args: tuple, result: Any) -> int:
    return 1


# (module, attribute, span name, count hook); callers look each name up
# at that attribute, so wrapping it there sees every call.
TRACE_POINTS: list[tuple[str, str, str, Callable | None]] = [
    ("routelens.simulate", "gen_traffic", "simulate.gen_traffic", _counter(
        ("simulate.packets",
         lambda a, r: sum(len(t.observations) for t in r[0] + r[1])))),
    ("routelens.simulate", "gen_updates", "simulate.gen_updates", None),
    ("routelens.cli", "write_trace_jsonl", "correlation.write_trace",
     _written("correlation.write_mb")),
    ("routelens.cli", "read_trace_jsonl", "correlation.read_trace", _counter(
        ("correlation.records_read", lambda a, r: len(r.observations)))),
    ("routelens.evaluation", "extract_progress", "correlation.extract", None),
    ("routelens.evaluation", "correlate_all", "correlation.correlate", None),
    ("routelens.evaluation", "match", "correlation.match", None),
    ("routelens.cli", "clopper_pearson", "correlation.clopper_pearson", None),
    ("routelens.evaluation", "run_match_pipeline", "evaluation.pipeline", None),
    ("routelens.cli", "write_updates", "bgp.write_updates", None),
    ("routelens.cli", "parse_updates", "bgp.parse", _counter(
        ("bgp.lines", lambda a, r: len(r[0]) + len(r[1])),
        ("bgp.parse_issues", lambda a, r: len(r[1])))),
    ("routelens.cli", "filter_session_resets", "bgp.filter_resets", _counter(
        ("bgp.resets_dropped", lambda a, r: len(a[0]) - len(r)))),
    ("routelens.cli", "ingest", "bgp.ingest", _counter(
        ("bgp.ingest_calls", _once),
        ("bgp.rib_entries", lambda a, r: _rib_entries(r)))),
    ("routelens.cli", "load_relays", "core.load_relays", _counter(
        ("core.relays", lambda a, r: len(r)))),
    ("routelens.cli", "load_prefix_origins", "core.load_prefix_origins", _counter(
        ("core.prefixes", lambda a, r: len(r)))),
    ("routelens.churn", "static_baseline", "churn.baseline", None),
    ("routelens.churn", "churn_summary", "churn.summary", _counter(
        ("churn.useful_circuits",
         lambda a, r: sum(len(c) for c in r.pair_circuits.values())))),
    ("routelens.churn", "segment_observations", "churn.segment_observations", _counter(
        ("churn.segment_calls", _once),
        ("churn.segments", lambda a, r: len(r)))),
    ("routelens.churn", "compromised_circuits", "churn.compromised_circuits", _counter(
        ("churn.circuit_calls", _once),
        ("churn.records", lambda a, r: len(r)))),
    ("routelens.churn", "ccdf", "churn.ccdf", None),
    ("routelens.churn", "as_circuit_coverage", "churn.coverage", None),
    ("routelens.paths", "load_traceroutes", "paths.load", _counter(
        ("paths.records", lambda a, r: len(r)))),
    ("routelens.paths", "PathDataset", "paths.dataset", None),
    ("routelens.paths", "vulnerability_timeseries", "paths.timeseries", _counter(
        ("paths.quad_days", lambda a, r: sum(row.n_quads for row in r)),
        ("paths.inherited", lambda a, r: sum(row.n_inherited_paths for row in r)))),
    ("routelens.detect", "frequency_heuristic", "detect.frequency", _counter(
        ("detect.alerts", lambda a, r: len(r)))),
    ("routelens.detect", "time_heuristic", "detect.time", _counter(
        ("detect.alerts", lambda a, r: len(r)))),
    ("routelens.detect", "more_specific_monitor", "detect.more_specific", _counter(
        ("detect.alerts", lambda a, r: len(r)))),
    ("routelens.detect", "cross_reference", "detect.cross_reference", None),
    ("routelens.detect", "concentration", "detect.concentration", None),
    ("routelens.detect", "prefix_length_vulnerability", "detect.prefixlen", None),
    ("routelens.artifacts", "write_csv", "artifacts.write", _written("artifacts.mb")),
    ("routelens.artifacts", "write_jsonl", "artifacts.write", _written("artifacts.mb")),
    ("routelens.artifacts", "write_json", "artifacts.write", _written("artifacts.mb")),
]

ROOT_SPAN = "cli.main"  # the traced entry point; its self time is `cli.self_s`

# Per-layer metrics in report order: (name, unit). Every one is reported on
# every workload; a layer that does not run there reads 0.
LAYER_METRICS: list[tuple[str, str]] = [
    ("simulate.gen_traffic_s", "s"), ("simulate.packets", "count"),
    ("simulate.gen_updates_s", "s"),
    ("correlation.write_trace_s", "s"), ("correlation.write_mb", "MiB"),
    ("correlation.read_trace_s", "s"), ("correlation.records_read", "count"),
    ("correlation.extract_s", "s"), ("correlation.correlate_s", "s"),
    ("correlation.match_s", "s"), ("correlation.clopper_pearson_s", "s"),
    ("evaluation.pipeline_self_s", "s"),
    ("bgp.write_updates_s", "s"), ("bgp.parse_s", "s"), ("bgp.lines", "count"),
    ("bgp.parse_issues", "count"), ("bgp.filter_resets_s", "s"),
    ("bgp.resets_dropped", "count"), ("bgp.ingest_s", "s"), ("bgp.ingest_calls", "count"),
    ("bgp.rib_entries", "count"),
    ("core.load_relays_s", "s"), ("core.load_prefix_origins_s", "s"),
    ("core.relays", "count"), ("core.prefixes", "count"),
    ("churn.baseline_s", "s"), ("churn.summary_s", "s"),
    ("churn.segment_observations_s", "s"), ("churn.segment_calls", "count"),
    ("churn.segments", "count"), ("churn.compromised_circuits_s", "s"),
    ("churn.circuit_calls", "count"), ("churn.records", "count"),
    ("churn.ccdf_s", "s"), ("churn.coverage_s", "s"), ("churn.useful_ratio", "1"),
    ("paths.load_s", "s"), ("paths.records", "count"), ("paths.hops", "count"),
    ("paths.dataset_s", "s"), ("paths.timeseries_s", "s"), ("paths.quad_days", "count"),
    ("paths.inherited", "count"),
    ("detect.frequency_s", "s"), ("detect.time_s", "s"), ("detect.more_specific_s", "s"),
    ("detect.alerts", "count"), ("detect.cross_reference_s", "s"),
    ("detect.concentration_s", "s"), ("detect.prefixlen_s", "s"),
    ("artifacts.write_s", "s"), ("artifacts.mb", "MiB"),
    ("cli.self_s", "s"), ("cli.ops", "count"),
    ("trace.overhead_s", "s"),
]

_SELF_TIME_METRIC = {ROOT_SPAN: "cli.self_s", "evaluation.pipeline": "evaluation.pipeline_self_s"}


def self_times(spans: list[list]) -> dict[str, float]:
    """Summed self time per span name: duration minus direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), seconds in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric except `trace.overhead_s` from one traced pass."""
    values = {name: 0.0 for name, _ in LAYER_METRICS if name != "trace.overhead_s"}
    for span, seconds in self_times(trace["spans"]).items():
        values[_SELF_TIME_METRIC.get(span, f"{span}_s")] = seconds
    for name, amount in trace["counts"].items():
        if name in values:
            values[name] = float(amount)
    values["cli.ops"] = float(sum(1 for s in trace["spans"] if s[0] == ROOT_SPAN))
    records = trace["counts"].get("churn.records", 0)
    if records:
        values["churn.useful_ratio"] = trace["counts"].get("churn.useful_circuits", 0) / records
    return values
