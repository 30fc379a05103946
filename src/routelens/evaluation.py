"""Harness tying generator ground truth to analysis output.

Named scenarios pin the configurations the reproduction targets use; the
seeded benchmark helpers aggregate across seeds because any single-seed
threshold is brittle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import (
    AccuracyReport,
    ByteProgressSeries,
    EndpointTrace,
    MatchResult,
    SignalKind,
    correlate_all,
    evaluate,
    extract_progress,
    match,
)
from .core import IpPrefix
from .detect import HijackAlert
from .simulate import (
    InjectedEvent,
    InterceptionRun,
    TrafficScenario,
    gen_traffic,
    shared_guard_variant,
)


def standard_scenario(seed: int, n_pairs: int = 50) -> TrafficScenario:
    """The 50-pair, 300 s, no-shared-bottleneck reference configuration."""
    return TrafficScenario(seed=seed, n_pairs=n_pairs, duration=300.0)


def shared_scenario(seed: int, n_pairs: int = 50) -> TrafficScenario:
    """Reference configuration squeezed through one tight guard bottleneck."""
    return shared_guard_variant(standard_scenario(seed, n_pairs), 0.35)


def interception_scenario(seed: int, n_pairs: int = 50) -> TrafficScenario:
    """Coupled-pairs configuration for interception runs: every client on
    one guard whose capacity clips demand peaks (mild equalization)."""
    return shared_guard_variant(
        TrafficScenario(seed=seed, n_pairs=n_pairs, duration=360.0), 1.2
    )


def dataset_epoch(traces: list[EndpointTrace]) -> float:
    """Shared binning epoch: the earliest timestamp in the dataset."""
    return min(float(t.observations.ts[0]) for t in traces if len(t.observations))


@dataclass
class PipelineResult:
    matrix: np.ndarray
    client_ids: list[str]
    server_ids: list[str]
    matches: list[MatchResult]
    report: AccuracyReport | None


def run_match_pipeline(
    clients: list[EndpointTrace],
    servers: list[EndpointTrace],
    truth: dict[str, str] | None = None,
    client_kind: SignalKind = SignalKind.DATA,
    server_kind: SignalKind = SignalKind.ACK,
    bin_width: float = 1.0,
    window: float = 300.0,
    threshold: float = 0.6,
    t0: float | None = None,
    max_lag_bins: int = 0,
    cumulative: bool = False,
) -> PipelineResult:
    """extract -> correlate -> match, with optional scoring against truth.

    cumulative is an experiment flag: rank-correlate running byte totals
    instead of per-bin deltas. Under a rank coefficient this is degenerate
    (monotone counters all share the same ranks), which is why per-unit-
    time deltas are the default signal; the flag exists to demonstrate it.
    """
    if t0 is None:
        t0 = dataset_epoch(clients + servers)
    client_series = [
        extract_progress(t, client_kind, bin_width=bin_width, window=window, t0=t0)
        for t in clients
    ]
    server_series = [
        extract_progress(t, server_kind, bin_width=bin_width, window=window, t0=t0)
        for t in servers
    ]
    if cumulative:
        client_series = [
            ByteProgressSeries(s.bin_width, s.t0, s.cumulative) for s in client_series
        ]
        server_series = [
            ByteProgressSeries(s.bin_width, s.t0, s.cumulative) for s in server_series
        ]
    matrix = correlate_all(client_series, server_series, max_lag_bins=max_lag_bins)
    client_ids = [t.vantage_id for t in clients]
    server_ids = [t.vantage_id for t in servers]
    scenario = f"client-{client_kind.value}:server-{server_kind.value}"
    matches = match(matrix, threshold, client_ids, server_ids, scenario)
    report = evaluate(matches, truth, len(servers)) if truth is not None else None
    return PipelineResult(matrix, client_ids, server_ids, matches, report)


def accuracy_vs_duration(
    clients: list[EndpointTrace],
    servers: list[EndpointTrace],
    truth: dict[str, str],
    durations: list[float] = (10.0, 30.0, 60.0, 120.0, 300.0),
    **pipeline_kwargs,
) -> list[tuple[float, AccuracyReport]]:
    """Attack accuracy on growing prefixes [0, T] of the capture."""
    t0 = pipeline_kwargs.pop("t0", dataset_epoch(clients + servers))
    curve = []
    for duration in durations:
        result = run_match_pipeline(
            clients, servers, truth, window=duration, t0=t0, **pipeline_kwargs
        )
        curve.append((duration, result.report))
    return curve


@dataclass
class RecallReport:
    recall: float
    false_alert_count: int
    detected: list[tuple[str, float, float]]
    missed: list[tuple[str, float, float]]


def detector_recall(alerts: list[HijackAlert], events: list[InjectedEvent]) -> RecallReport:
    """Fraction of planted events some alert covers.

    An event is detected when an alert for the same prefix has a window
    overlapping the event's; alerts matching no event count as false
    alerts (tolerated by design, but reported).
    """
    detected = []
    missed = []
    used_alerts: set[int] = set()
    for event in events:
        prefix, (t_start, t_end) = IpPrefix.parse(event.prefix), event.window
        hit = False
        for idx, alert in enumerate(alerts):
            if alert.prefix == prefix and alert.overlaps(t_start, t_end):
                hit = True
                used_alerts.add(idx)
        entry = (str(prefix), t_start, t_end)
        (detected if hit else missed).append(entry)
    false_alerts = len(alerts) - len(used_alerts)
    recall = len(detected) / len(events) if events else 1.0
    return RecallReport(recall, false_alerts, detected, missed)


def interception_accuracy(
    run: InterceptionRun,
    threshold: float = 0.6,
    bin_width: float = 1.0,
) -> PipelineResult:
    """Correlate attacker-captured client acks against server-side acks.

    Both sides are binned on the adjusted clock: the capture start is the
    epoch and the window is the capture length.
    """
    t_on, t_off = run.capture
    return run_match_pipeline(
        run.attacker_traces,
        run.server_traces,
        truth=run.truth.pairing,
        client_kind=SignalKind.ACK,
        server_kind=SignalKind.ACK,
        bin_width=bin_width,
        window=t_off - t_on,
        threshold=threshold,
        t0=t_on,
    )


def benchmark_matching(
    seeds: list[int],
    scenario_fn=standard_scenario,
    threshold: float = 0.6,
    window: float = 300.0,
    client_kind: SignalKind = SignalKind.DATA,
    server_kind: SignalKind = SignalKind.ACK,
) -> dict:
    """Run the matching attack over several seeds; the aggregate metrics."""
    accuracies = []
    false_positives = false_positive_trials = 0
    false_negatives = 0
    for seed in seeds:
        scenario = scenario_fn(seed)
        clients, servers, truth = gen_traffic(scenario)
        result = run_match_pipeline(
            clients,
            servers,
            truth.pairing,
            client_kind=client_kind,
            server_kind=server_kind,
            window=window,
            threshold=threshold,
        )
        accuracies.append(result.report.accuracy)
        false_positives += result.report.false_positives
        false_positive_trials += result.report.false_positive_trials
        false_negatives += result.report.false_negatives
    return {
        "mean_accuracy": float(np.mean(accuracies)),
        "min_accuracy": float(min(accuracies)),
        "max_accuracy": float(max(accuracies)),
        "false_positives_total": false_positives,
        "false_positive_trials": false_positive_trials,
        "false_negatives_total": false_negatives,
    }
