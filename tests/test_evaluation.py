"""Tests for the experiment harness."""

from routelens.core import IpPrefix, ip_to_int
from routelens.detect import Heuristic, HijackAlert, run_all_heuristics
from routelens.evaluation import (
    accuracy_vs_duration,
    benchmark_matching,
    dataset_epoch,
    detector_recall,
    interception_accuracy,
    run_match_pipeline,
    standard_scenario,
)
from routelens.simulate import (
    InjectedEvent,
    RouteSpec,
    RoutingScenario,
    SessionSpec,
    TrafficScenario,
    gen_interception_timeline,
    gen_traffic,
    gen_updates,
)
from routelens.core import RelayDescriptor


def small_traffic(seed=1):
    return gen_traffic(TrafficScenario(seed=seed, n_pairs=5, duration=60.0))


def test_full_window_duration_matches_single_shot():
    clients, servers, truth = small_traffic()
    single = run_match_pipeline(clients, servers, truth.pairing, window=60.0)
    curve = accuracy_vs_duration(clients, servers, truth.pairing, durations=[60.0])
    assert curve[0][1].accuracy == single.report.accuracy
    assert curve[0][1].false_positives == single.report.false_positives


def test_accuracy_curve_runs_on_prefixes():
    clients, servers, truth = small_traffic(seed=2)
    curve = accuracy_vs_duration(
        clients, servers, truth.pairing, durations=[5.0, 20.0, 60.0]
    )
    assert [t for t, _ in curve] == [5.0, 20.0, 60.0]
    for _, report in curve:
        assert 0.0 <= report.accuracy <= 1.0


def test_reports_reproducible_for_same_seed():
    first = benchmark_matching([3], scenario_fn=lambda s: TrafficScenario(seed=s, n_pairs=4, duration=40.0), window=40.0)
    second = benchmark_matching([3], scenario_fn=lambda s: TrafficScenario(seed=s, n_pairs=4, duration=40.0), window=40.0)
    assert first == second


def test_detector_recall_trivial_cases():
    prefix = IpPrefix.parse("10.0.0.0/16")
    alert = HijackAlert(prefix, 666, Heuristic.TIME, 0.001, ((100.0, 160.0),), (1,), ())
    events = [(prefix, 90.0, 200.0)]
    full = detector_recall([alert], events)
    assert full.recall == 1.0 and full.false_alert_count == 0

    none = detector_recall([], events)
    assert none.recall == 0.0 and none.missed

    stray = HijackAlert(prefix, 667, Heuristic.TIME, 0.001, ((900.0, 960.0),), (1,), ())
    mixed = detector_recall([alert, stray], events)
    assert mixed.recall == 1.0 and mixed.false_alert_count == 1


def test_detector_recall_on_generated_injection():
    relays = (
        RelayDescriptor(ip_to_int("10.0.0.5"), True, False, 5.0, "g"),
        RelayDescriptor(ip_to_int("10.1.0.5"), False, True, 5.0, "e"),
    )
    scenario = RoutingScenario(
        seed=4,
        window=(0.0, 86400.0),
        sessions=(SessionSpec("s1", 64500), SessionSpec("s2", 64501)),
        relays=relays,
        base_routes=(
            RouteSpec("s1", "10.0.0.0/16", (101, 102)),
            RouteSpec("s2", "10.1.0.0/16", (104, 103)),
        ),
        events=(
            InjectedEvent("hijack", "10.0.0.0/16", (999, 666), 40_000.0, 120.0),
            InjectedEvent("interception", "10.1.0.0/24", (999, 667), 50_000.0, 300.0),
        ),
    )
    updates, truth = gen_updates(scenario)
    alerts = run_all_heuristics(updates, list(relays), window=(0.0, 86400.0))
    report = detector_recall(alerts, truth.events)
    assert report.recall == 1.0
    assert report.false_alert_count == 0


def test_interception_pipeline_scores_against_truth():
    run = gen_interception_timeline(TrafficScenario(seed=5, n_pairs=4, duration=360.0))
    result = interception_accuracy(run)
    assert result.report is not None
    assert result.report.n_clients == 4
    assert result.report.accuracy >= 0.75


def test_single_bin_no_better_than_full_window_in_aggregate():
    # with one bin there is no rank structure to correlate, so aggregate
    # accuracy over seeds cannot beat the full-window attack
    short_accs, full_accs = [], []
    for seed in range(10):
        clients, servers, truth = gen_traffic(
            TrafficScenario(seed=seed, n_pairs=8, duration=60.0)
        )
        curve = accuracy_vs_duration(
            clients, servers, truth.pairing, durations=[3.0, 60.0]
        )
        short_accs.append(curve[0][1].accuracy)
        full_accs.append(curve[1][1].accuracy)
    assert sum(short_accs) / 10 <= sum(full_accs) / 10


def test_cumulative_count_experiment_flag_is_degenerate_under_ranks():
    clients, servers, truth = small_traffic(seed=9)
    deltas = run_match_pipeline(clients, servers, truth.pairing, window=60.0)
    totals = run_match_pipeline(
        clients, servers, truth.pairing, window=60.0, cumulative=True
    )
    # cumulative counters are strictly increasing, so every series carries
    # the same ranks and all coefficients collapse to ~1.0: rank
    # correlation needs the per-bin deltas to discriminate
    assert (totals.matrix > 0.999).all()
    assert all(m.tie for m in totals.matches)
    assert totals.report.accuracy <= deltas.report.accuracy


def test_dataset_epoch_is_earliest_timestamp():
    clients, servers, _ = small_traffic(seed=7)
    epoch = dataset_epoch(clients + servers)
    assert epoch == min(
        t.observations.ts[0] for t in clients + servers if len(t.observations)
    )
