"""Acceptance suite: one test per exit criterion, tolerances pinned.

Every test prints a PASS line with the measured values after its
assertions, so a verbose run doubles as the reproduction report.
"""

import json
import random
import time

import numpy as np
import pytest
from helpers import (
    VulnerabilityMode,
    artifacts_equal,
    brute_force_records,
    build_ribs,
    hit_records,
    random_churn_fixture,
    spearman,
    vulnerable,
)
from test_correlation import beta_quantile_oracle, brute_spearman

from routelens.churn import (
    churn_ratio,
    churn_summary,
    compromised_circuits,
    segment_observations,
    static_baseline,
)
from routelens.cli import main as cli_main
from routelens.core import IpPrefix, PrefixTable, RelayDescriptor, RelayIndex, ip_to_int
from routelens.correlation import clopper_pearson
from routelens.detect import (
    HijackEvent,
    cross_reference,
    prefix_length_vulnerability,
    run_all_heuristics,
)
from routelens.evaluation import (
    detector_recall,
    interception_accuracy,
    interception_scenario,
    run_match_pipeline,
    shared_scenario,
    standard_scenario,
)
from routelens.paths import AsLevelPath, PathDataset, PathRole, PathTable, vulnerability_timeseries
from routelens.simulate import gen_interception_timeline, gen_traffic, injection_scenario
from test_detect import indosat_2011_fixture

SEEDS = list(range(10))


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS - {message}")


def test_criterion_01_spearman_against_brute_force_oracle():
    started = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    pairs = 0
    while pairs < 1000:
        n = rng.randint(20, 60)
        x = [rng.randint(0, 30) for _ in range(n)]  # small range forces ties
        y = [rng.randint(0, 30) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        worst = max(worst, abs(spearman(x, y) - brute_spearman(x, y)))
        pairs += 1
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(1, f"1000 tied-vector pairs, max deviation {worst:.2e}, {elapsed:.1f} s")


@pytest.fixture(scope="module")
def matching_metrics():
    """One pass over ten seeds: full-window and 30 s accuracy, unshared
    and shared-bottleneck, reused by criteria 2 and 3."""
    started = time.perf_counter()
    per_seed = []
    for seed in SEEDS:
        clients, servers, truth = gen_traffic(standard_scenario(seed))
        full = run_match_pipeline(clients, servers, truth.pairing, window=300.0, t0=0.0)
        short = run_match_pipeline(clients, servers, truth.pairing, window=30.0, t0=0.0)
        del clients, servers
        shared_clients, shared_servers, shared_truth = gen_traffic(shared_scenario(seed))
        shared = run_match_pipeline(
            shared_clients, shared_servers, shared_truth.pairing, window=300.0, t0=0.0
        )
        per_seed.append(
            {
                "accuracy_300": full.report.accuracy,
                "accuracy_30": short.report.accuracy,
                "false_positives": full.report.false_positives,
                "shared_accuracy": shared.report.accuracy,
            }
        )
    return {"per_seed": per_seed, "elapsed": time.perf_counter() - started}


def test_criterion_02_matching_accuracy_and_bottleneck_degradation(matching_metrics):
    rows = matching_metrics["per_seed"]
    mean_accuracy = float(np.mean([r["accuracy_300"] for r in rows]))
    total_fp = sum(r["false_positives"] for r in rows)
    mean_shared = float(np.mean([r["shared_accuracy"] for r in rows]))
    assert mean_accuracy >= 0.90
    assert total_fp == 0
    assert mean_shared < mean_accuracy
    assert matching_metrics["elapsed"] < 120.0
    report(
        2,
        f"mean accuracy {mean_accuracy:.3f} (fp {total_fp}), shared-bottleneck "
        f"{mean_shared:.3f}, {matching_metrics['elapsed']:.0f} s for 10 seeds",
    )


def test_criterion_03_accuracy_grows_with_duration(matching_metrics):
    rows = matching_metrics["per_seed"]
    mean_300 = float(np.mean([r["accuracy_300"] for r in rows]))
    mean_30 = float(np.mean([r["accuracy_30"] for r in rows]))
    assert mean_300 >= mean_30
    report(3, f"mean accuracy at 300 s {mean_300:.3f} >= at 30 s {mean_30:.3f}")


def test_criterion_04_confidence_intervals():
    lower, upper = clopper_pearson(2, 50, 0.95)
    oracle = beta_quantile_oracle(2, 50, 0.95)
    assert abs(lower - oracle[0]) <= 5e-4 and abs(upper - oracle[1]) <= 5e-4
    assert 0.0048 - 5e-4 <= lower <= 0.0049 + 5e-4
    assert abs(upper - 0.137) <= 1e-3

    zero_lower, zero_upper = clopper_pearson(0, 2450, 0.95)
    zero_oracle = beta_quantile_oracle(0, 2450, 0.95)
    assert zero_lower == 0.0
    assert abs(zero_upper - zero_oracle[1]) <= 5e-4
    assert abs(zero_upper - 0.0015) <= 5e-4
    report(
        4,
        f"(2,50): {100*lower:.3f}%..{100*upper:.2f}%; (0,2450) upper {100*zero_upper:.3f}%",
    )


def test_criterion_05_compromise_metric_equals_brute_force():
    started = time.perf_counter()
    rng = random.Random(5050)
    for trial in range(100):
        updates, relays, sessions, window = random_churn_fixture(rng)
        ribs = build_ribs(updates, relays, sessions)
        min_overlap = rng.choice([0, 1, 5, 10, 30])
        observations = segment_observations(ribs, RelayIndex(relays), window)
        got = hit_records(
            compromised_circuits(
                observations,
                min_overlap=min_overlap,
                local_as={sid: rib.session.local_as for sid, rib in ribs.items()},
            )
        )
        expected = brute_force_records(ribs, relays, window, min_overlap)
        assert got == expected, f"fixture {trial} diverged"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(5, f"100 random fixtures match exactly, {elapsed:.1f} s")


def test_criterion_06_churn_monotonicity_and_ratio_semantics():
    rng = random.Random(6060)
    for _ in range(100):
        updates, relays, sessions, window = random_churn_fixture(rng)
        index = RelayIndex(relays)
        baseline_updates = [u for u in updates if u.timestamp == 0]
        base_ribs = build_ribs(baseline_updates, relays, sessions)
        baseline = static_baseline(base_ribs, index, t0=0.0)

        # no update stream: every defined ratio is exactly 1.0
        unchanged = churn_summary(
            base_ribs, index, (0.0, float(window[1])), min_overlap=5.0, baseline=baseline
        )
        ratios, _ = churn_ratio(baseline, unchanged)
        assert all(r.ratio == 1.0 for r in ratios)

        # adding the update stream never shrinks a per-pair count
        full_ribs = build_ribs(updates, relays, sessions)
        updated = churn_summary(
            full_ribs, index, (0.0, float(window[1])), min_overlap=5.0, baseline=baseline
        )
        for pair in baseline.pairs:
            assert updated.compromised(pair) >= baseline.compromised(pair)
    report(6, "100 fixtures: empty-stream ratios 1.0, counts monotone under updates")


def test_criterion_07_path_analysis_properties_and_reference_case():
    rng = random.Random(7070)
    roles = (
        PathRole.P1_CLIENT_TO_GUARD,
        PathRole.P2_GUARD_TO_CLIENT,
        PathRole.P3_EXIT_TO_DEST,
        PathRole.P4_DEST_TO_EXIT,
    )
    for _ in range(500):
        paths = {
            role: AsLevelPath("p", "t", role, "d01",
                              tuple(rng.randint(1, 10) for _ in range(rng.randint(1, 5))), False)
            for role in roles
        }
        sym, _ = vulnerable(paths, VulnerabilityMode.SYMMETRIC)
        asym, _ = vulnerable(paths, VulnerabilityMode.ASYMMETRIC)
        assert not sym or asym

    for fixture_seed in range(20):
        frng = random.Random(9000 + fixture_seed)
        records = []
        for day in range(1, 6):
            for c in ("c0", "c1"):
                for g in ("g0",):
                    if day == 1 or frng.random() < 0.7:
                        records.append(AsLevelPath(c, g, roles[0], f"d{day}",
                                                   (frng.randint(1, 6), frng.randint(1, 6)), False))
                        records.append(AsLevelPath(g, c, roles[1], f"d{day}",
                                                   (frng.randint(1, 6),), False))
            for e in ("e0", "e1"):
                for d in ("d0",):
                    if day == 1 or frng.random() < 0.7:
                        records.append(AsLevelPath(e, d, roles[2], f"d{day}",
                                                   (frng.randint(1, 6), frng.randint(1, 6)), False))
                        records.append(AsLevelPath(d, e, roles[3], f"d{day}",
                                                   (frng.randint(1, 6),), False))
        rows = vulnerability_timeseries(PathDataset(PathTable.of(records)))
        cumulative = [r.pct_asymmetric_cumulative for r in rows]
        assert cumulative == sorted(cumulative)
        for row in rows:
            assert row.pct_asymmetric_cumulative >= row.pct_asymmetric - 1e-9

    # the reference asymmetric-only shape: one AS on P1 and P4 only
    reference = {
        roles[0]: AsLevelPath("c", "g", roles[0], "d01", (1, 5, 2), False),
        roles[1]: AsLevelPath("g", "c", roles[1], "d01", (3, 4), False),
        roles[2]: AsLevelPath("e", "d", roles[2], "d01", (6, 7), False),
        roles[3]: AsLevelPath("d", "e", roles[3], "d01", (8, 5, 9), False),
    }
    sym, _ = vulnerable(reference, VulnerabilityMode.SYMMETRIC)
    asym, witness = vulnerable(reference, VulnerabilityMode.ASYMMETRIC)
    assert not sym and asym and witness == frozenset({5})
    report(7, "500 quads symmetric-implies-asymmetric, 20 cumulative series monotone, "
              "reference case asymmetric-only")


def test_criterion_08_detection_recall_and_indosat_counts():
    started = time.perf_counter()
    from routelens.simulate import gen_updates

    scenario = injection_scenario(seed=8)
    updates, truth = gen_updates(scenario)
    alerts = run_all_heuristics(
        updates,
        RelayIndex(scenario.relays),
        frequency_threshold=0.00001,
        time_threshold=0.01,
        window=scenario.window,
    )
    recall = detector_recall(alerts, truth.events)
    assert recall.recall == 1.0
    assert recall.false_alert_count == 0

    events, relays = indosat_2011_fixture()
    (impact,) = cross_reference(events, RelayIndex(relays))
    assert (impact.relays, impact.guards, impact.exits) == (5, 1, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        8,
        f"25 planted events all detected ({len(alerts)} alerts, 0 false), "
        f"reference counts (5,1,4), {elapsed:.1f} s",
    )


def test_criterion_09_prefix_length_vulnerability():
    def origin_table(entries):
        table = PrefixTable()
        for text, asn in entries.items():
            table.insert(IpPrefix.parse(text), asn)
        return table.freeze()

    mixed_map = {f"20.{i}.0.0/22": 100 + i for i in range(9)}
    mixed_map["21.0.0.0/24"] = 200
    relays = [
        RelayDescriptor(ip_to_int(f"20.{i}.0.9"), True, False, 1.0, f"r{i}") for i in range(9)
    ]
    relays.append(RelayDescriptor(ip_to_int("21.0.0.9"), False, True, 1.0, "r9"))
    mixed = prefix_length_vulnerability(relays, origin_table(mixed_map))
    assert mixed.percent_hijackable == pytest.approx(90.0, abs=1e-9)

    slash24_map = {f"20.{i}.0.0/24": 100 + i for i in range(10)}
    all24 = prefix_length_vulnerability(relays[:9] + relays[-1:], origin_table(slash24_map))
    assert all24.percent_hijackable == 0.0
    report(9, "mixed fixture 90.0% hijackable, all-/24 fixture 0%")


def test_criterion_10_interception_timeline_and_accuracy():
    started = time.perf_counter()
    probe = gen_interception_timeline(interception_scenario(0))
    assert probe.capture == (55.0, 322.0)

    accuracies = []
    false_positives = 0
    accuracies.append(interception_accuracy(probe).report.accuracy)
    false_positives += interception_accuracy(probe).report.false_positives
    for seed in SEEDS[1:]:
        run = gen_interception_timeline(interception_scenario(seed))
        result = interception_accuracy(run)
        accuracies.append(result.report.accuracy)
        false_positives += result.report.false_positives
    mean_accuracy = float(np.mean(accuracies))
    elapsed = time.perf_counter() - started
    assert mean_accuracy >= 0.85
    report(
        10,
        f"capture [55, 322); mean accuracy over 10 seeds {mean_accuracy:.3f} "
        f"(min {min(accuracies):.2f}), {elapsed:.0f} s",
    )


def test_criterion_11_subcommand_determinism(tmp_path):
    scenario = tmp_path / "traffic.json"
    scenario.write_text(json.dumps({"kind": "traffic", "seed": 3, "n_pairs": 3, "duration": 25.0}))
    interception = tmp_path / "intercept.json"
    interception.write_text(
        json.dumps(
            {
                "kind": "interception",
                "seed": 3,
                "n_pairs": 2,
                "duration": 45.0,
                "timing": {"announce_at": 5, "propagation": 5, "withdraw_at": 30, "reconvergence": 5},
            }
        )
    )
    injection = injection_scenario(seed=11, n_hijacks=3, n_interceptions=2)
    routing = tmp_path / "routing.json"
    routing.write_text(json.dumps(injection.to_dict()))

    sim_dir = tmp_path / "sim0"
    assert cli_main(["--output-dir", str(sim_dir), "simulate", "--scenario", str(scenario)]) == 0
    rsim_dir = tmp_path / "rsim0"
    assert cli_main(["--output-dir", str(rsim_dir), "simulate", "--scenario", str(routing)]) == 0

    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n203.1.0.0/16,200\n203.2.0.0/16,300\n")
    traceroutes = tmp_path / "tr.jsonl"
    records = [
        {"probe": "c0", "target": "g0", "role": "P1", "day": "d1", "hops": ["203.0.0.1", "203.1.0.9"]},
        {"probe": "g0", "target": "c0", "role": "P2", "day": "d1", "hops": ["203.1.0.1"]},
        {"probe": "e0", "target": "d0", "role": "P3", "day": "d1", "hops": ["203.1.0.4"]},
        {"probe": "d0", "target": "e0", "role": "P4", "day": "d1", "hops": ["203.2.0.1"]},
    ]
    traceroutes.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    origins = tmp_path / "origins.csv"
    origins.write_text("prefix,asn\n10.0.0.0/16,64500\n10.1.0.0/16,64501\n10.2.0.0/16,64502\n")

    invocations = {
        "simulate-traffic": ["simulate", "--scenario", str(scenario)],
        "simulate-routing": ["simulate", "--scenario", str(routing)],
        "simulate-interception": ["simulate", "--scenario", str(interception)],
        "correlate": [
            "correlate",
            "--manifest", str(sim_dir / "manifest.csv"),
            "--truth", str(sim_dir / "truth.json"),
            "--window", "25",
        ],
        "churn": [
            "churn",
            "--updates", str(rsim_dir / "updates.csv"),
            "--relays", str(rsim_dir / "relays.csv"),
            "--window-start", "0", "--window-end", "86400",
        ],
        "detect": [
            "detect",
            "--updates", str(rsim_dir / "updates.csv"),
            "--relays", str(rsim_dir / "relays.csv"),
            "--window-start", "0", "--window-end", "86400",
        ],
        "paths": ["paths", "--traceroutes", str(traceroutes), "--mapping", str(mapping)],
        "concentrate": ["concentrate", "--relays", str(rsim_dir / "relays.csv"), "--origins", str(origins)],
        "prefixlen": ["prefixlen", "--relays", str(rsim_dir / "relays.csv"), "--origins", str(origins)],
    }
    checked = 0
    for name, argv in invocations.items():
        first = tmp_path / f"{name}-a"
        second = tmp_path / f"{name}-b"
        assert cli_main(["--output-dir", str(first), "--seed", "7"] + argv) == 0
        assert cli_main(["--output-dir", str(second), "--seed", "7"] + argv) == 0
        produced = sorted(p for p in first.rglob("*") if p.is_file())
        assert produced, f"{name} wrote nothing"
        for artifact in produced:
            twin = second / artifact.relative_to(first)
            assert artifacts_equal(artifact, twin), f"{name}: {artifact.name} differs"
            checked += 1
    report(11, f"{len(invocations)} subcommand runs byte-identical across {checked} artifacts")
