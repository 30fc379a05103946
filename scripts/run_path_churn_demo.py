#!/usr/bin/env python3
"""Daily path-asymmetry vulnerability on a calibrated traceroute mesh.

Generates the 10x25x25x10 probe mesh with partially symmetric reverse
paths and daily churn, then reports the three series: the day-one
symmetric rate (conventional view), the same-day asymmetric rate, and the
cumulative ever-vulnerable rate.
"""

import argparse
from pathlib import Path

from routelens.paths import PathDataset, PathTable, vulnerability_timeseries
from routelens.simulate import PathScenario, gen_traceroute_paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--days", type=int, default=21)
    parser.add_argument("--churn-rate", type=float, default=0.02)
    parser.add_argument("--csv-out", type=Path, default=Path("vulnerability_timeseries.csv"))
    args = parser.parse_args()

    scenario = PathScenario(seed=args.seed, days=args.days, churn_rate=args.churn_rate)
    rows = vulnerability_timeseries(PathDataset(PathTable.of(gen_traceroute_paths(scenario))))
    with open(args.csv_out, "w") as handle:
        handle.write("day,pct_symmetric_day1,pct_asymmetric,pct_asymmetric_cumulative\n")
        for row in rows:
            handle.write(
                f"{row.day},{row.pct_symmetric_day1:.2f},{row.pct_asymmetric:.2f},"
                f"{row.pct_asymmetric_cumulative:.2f}\n"
            )
    first, last = rows[0], rows[-1]
    print(f"{first.n_quads} circuits per day over {len(rows)} days")
    print(f"day 1:  symmetric {first.pct_symmetric_day1:.1f}%  asymmetric {first.pct_asymmetric:.1f}%")
    print(
        f"day {len(rows)}: asymmetric {last.pct_asymmetric:.1f}%  "
        f"cumulative {last.pct_asymmetric_cumulative:.1f}%"
    )
    print(f"wrote {args.csv_out}")


if __name__ == "__main__":
    main()
