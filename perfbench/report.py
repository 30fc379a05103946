"""Every end-to-end and per-layer metric of every workload, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs `run.py` once untraced and once traced for each workload, one after
the other, so every output check runs too, and prints each metric by name
and unit with one column per workload, then the operations attempted and
failed. Takes about four to five minutes. Exits 1 if any run was not
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import DEFAULT_SEED, HERE, ROOT

WORKLOADS = ("traffic", "churn", "paths", "detect")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace {trace}: exit code {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    benchmark = ROOT / "BENCHMARK.json"
    default_seconds = json.loads(benchmark.read_text())["run_seconds"] if benchmark.exists() else 20
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    args = parser.parse_args()

    results = {(w, t): _run(w, args.seed, args.seconds, t) for w in WORKLOADS for t in (0, 1)}
    print(f"{'metric':<32} {'unit':<6}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for trace, title in ((0, "end to end (tracing off)"), (1, "per layer (traced run)")):
        print(f"-- {title}")
        names = results[(WORKLOADS[0], trace)]["metrics"]
        for name, first in names.items():
            cells = []
            for w in WORKLOADS:
                value = results[(w, trace)]["metrics"][name]["value"]
                cells.append(f"{'n/a' if value is None else format(value, '.6g'):>14}")
            print(f"{name:<32} {first['unit']:<6}" + "".join(cells))
    print("-- operations (both runs)")
    attempted = [results[(w, 0)]["attempted"] + results[(w, 1)]["attempted"] for w in WORKLOADS]
    failed = [results[(w, 0)]["failed"] + results[(w, 1)]["failed"] for w in WORKLOADS]
    for name, unit, cells in (
        ("attempted", "count", attempted),
        ("failed", "count", failed),
        ("fail_ratio", "1", [f / a for f, a in zip(failed, attempted)]),
    ):
        print(f"{name:<32} {unit:<6}" + "".join(f"{c:>14.6g}" for c in cells))
    print("medians only: no tail percentile has ten samples beyond it")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
