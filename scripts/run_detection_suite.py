#!/usr/bin/env python3
"""Detector validation: planted hijacks and interceptions on a clean feed.

Generates a 24-hour synthetic update stream with short-lived foreign-
origin attacks planted on relay-hosting prefixes, runs the frequency,
lifetime, and more-specific heuristics at their reference thresholds, and
scores recall against the planted ground truth.
"""

import argparse

from routelens.core import RelayIndex
from routelens.detect import Heuristic, run_all_heuristics
from routelens.evaluation import detector_recall
from routelens.simulate import gen_updates, injection_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hijacks", type=int, default=20)
    parser.add_argument("--interceptions", type=int, default=5)
    parser.add_argument("--frequency-threshold", type=float, default=0.00001)
    parser.add_argument("--time-threshold", type=float, default=0.01)
    args = parser.parse_args()

    scenario = injection_scenario(args.seed, args.hijacks, args.interceptions)
    updates, truth = gen_updates(scenario)
    print(
        f"{len(updates)} updates, {len(scenario.relays)} relays, "
        f"{len(truth.events)} planted events"
    )
    alerts = run_all_heuristics(
        updates,
        RelayIndex(scenario.relays),
        frequency_threshold=args.frequency_threshold,
        time_threshold=args.time_threshold,
        window=scenario.window,
    )
    by_kind = {kind: 0 for kind in Heuristic}
    for alert in alerts:
        by_kind[alert.heuristic] += 1
    print(
        f"{len(alerts)} alerts "
        f"(frequency {by_kind[Heuristic.FREQUENCY]}, time {by_kind[Heuristic.TIME]}, "
        f"more-specific {by_kind[Heuristic.MORE_SPECIFIC]})"
    )
    report = detector_recall(alerts, truth.events)
    print(f"recall {report.recall:.2f}, false alerts {report.false_alert_count}")
    for prefix, t_start, t_end in report.missed:
        print(f"  MISSED {prefix} during [{t_start:.0f}, {t_end:.0f})")


if __name__ == "__main__":
    main()
