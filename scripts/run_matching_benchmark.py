#!/usr/bin/env python3
"""Matching-attack benchmark across seeds and observation scenarios.

Reproduces the accuracy-table and error-interval analysis on simulator
ground truth: all four client/server signal combinations, exact binomial
confidence intervals on the error rates, the accuracy-versus-duration
curve, and the shared-bottleneck degradation check.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from routelens.correlation import SignalKind, clopper_pearson
from routelens.evaluation import (
    accuracy_vs_duration,
    benchmark_matching,
    run_match_pipeline,
    shared_scenario,
    standard_scenario,
)
from routelens.simulate import gen_traffic

COMBOS = [
    ("client-ack:server-ack", SignalKind.ACK, SignalKind.ACK),
    ("client-ack:server-data", SignalKind.ACK, SignalKind.DATA),
    ("client-data:server-ack", SignalKind.DATA, SignalKind.ACK),
    ("client-data:server-data", SignalKind.DATA, SignalKind.DATA),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--threshold", type=float, default=0.6)
    parser.add_argument("--durations", type=float, nargs="+", default=[10, 30, 60, 120, 300])
    parser.add_argument("--json-out", type=Path, default=None)
    args = parser.parse_args()
    seeds = list(range(args.seeds))

    results = {}
    print(f"== matching accuracy, {args.pairs} pairs, seeds {seeds[0]}..{seeds[-1]} ==")
    for label, ck, sk in COMBOS:
        m = benchmark_matching(
            seeds,
            scenario_fn=lambda s: standard_scenario(s, args.pairs),
            threshold=args.threshold,
            client_kind=ck,
            server_kind=sk,
        )
        n_trials = args.pairs * len(seeds)
        fn_lo, fn_hi = clopper_pearson(m["false_negatives_total"], n_trials)
        fp_lo, fp_hi = clopper_pearson(m["false_positives_total"], m["false_positive_trials"])
        print(
            f"{label:<26} accuracy {m['mean_accuracy']:.3f} "
            f"(min {m['min_accuracy']:.3f})  "
            f"FN 95% CI {100*fn_lo:.2f}%..{100*fn_hi:.2f}%  "
            f"FP 95% CI {100*fp_lo:.2f}%..{100*fp_hi:.2f}%"
        )
        results[label] = {**m, "fn_ci": [fn_lo, fn_hi], "fp_ci": [fp_lo, fp_hi]}

    print("\n== accuracy vs capture duration (client-data:server-ack) ==")
    curves = []
    for seed in seeds:
        clients, servers, truth = gen_traffic(standard_scenario(seed, args.pairs))
        curve = accuracy_vs_duration(
            clients, servers, truth.pairing, durations=args.durations,
            threshold=args.threshold,
        )
        curves.append([report.accuracy for _, report in curve])
    means = np.mean(curves, axis=0)
    for duration, accuracy in zip(args.durations, means):
        print(f"  T={duration:>5.0f} s  accuracy {accuracy:.3f}")
    results["accuracy_vs_duration"] = dict(zip(map(str, args.durations), means.tolist()))

    print("\n== shared guard bottleneck (coupled flows) ==")
    degraded = benchmark_matching(
        seeds, scenario_fn=lambda s: shared_scenario(s, args.pairs), threshold=args.threshold
    )
    print(
        f"coupled accuracy {degraded['mean_accuracy']:.3f} vs "
        f"unshared {results['client-data:server-ack']['mean_accuracy']:.3f}"
    )
    results["shared_bottleneck"] = degraded

    if args.json_out:
        args.json_out.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"\nwrote {args.json_out}")


if __name__ == "__main__":
    main()
