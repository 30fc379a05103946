"""Benchmark of the four routelens pipelines, end to end and by layer.

    python3 perfbench/run.py --workload traffic --seed 0 --seconds 22 --trace 0

Workloads (see `workloads.py`): `traffic` (simulate, correlate), `churn`
(simulate, churn --filter-resets), `paths` (paths) and `detect`
(simulate, detect, concentrate, prefixlen). Each is a fixed-size batch
pass over files that the benchmark generates from --seed.

A run first sets up SETUP_REPS times, each in a fresh process (import
routelens, generate the inputs), and requires byte-identical inputs from
every set-up. It then runs as many passes as fit in --seconds (at least
one), each in a fresh single-threaded child under an address-space
limit. A pass calls `routelens.cli.main(argv)` for each step.
Every step is one operation; it fails on a nonzero exit, an exception or
a failed output check: the step's invariants, the same artifact digests
as the run's first pass, and at the default seed the committed digests
in `reference.json`.

--trace 0 reports the end-to-end metrics: `wall_s` (every step),
`analyze_s` (every step but `simulate`), `peak_rss_mb` (the pass child's
ru_maxrss) and `setup_s`, each the median over the run's passes or
set-ups. With about 22 samples per comparison only medians are reported:
no tail percentile has ten samples beyond it. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of
`tracing.py`, medians over the traced passes, plus `trace.overhead_s`.

Human-readable lines come first; the last line of stdout is the JSON
result {"correct", "attempted", "failed", "metrics"}. The exit code is 0
whenever a result is printed, and 2 when the checkout has no routelens
sources to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
SETUP_REPS = 5
BUDGET_S = 170.0  # the whole run, set-up included, stays under 180 s
THREAD_CAPS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
END_TO_END = [("wall_s", "s"), ("analyze_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]


def run_child(args: list, log: Path, timeout: float) -> tuple[int, float]:
    """Run child.py to completion (killed at the timeout); exit code and peak RSS in MiB."""
    with open(log, "ab") as handle:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            stdout=handle, stderr=subprocess.STDOUT, env={**os.environ, **THREAD_CAPS},
            cwd=ROOT,
        )
    deadline = time.monotonic() + max(timeout, 1.0)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _compare(what: str, got: dict[str, str], want: dict[str, str], label: str) -> list[str]:
    differ = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    if not differ:
        return []
    return [f"{what}: {len(differ)} files differ from {label}, e.g. {', '.join(differ[:3])}"]


class Run:
    """One workload at one seed: set-ups, passes, and the operation tally."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float,
                 size: str = "full") -> None:
        import workloads

        self.workloads = workloads
        self.name, self.seed, self.size = workload, seed, size
        self.spec = workloads.WORKLOADS[workload]
        self.work, self.deadline = work, deadline
        self.inputs = work / "inputs"
        self.attempted = self.failed = 0
        self.problems: list[str] = []  # every failure, for the report
        self.setup_ok = True
        self.first_digests: dict[str, dict[str, str]] = {}  # per step, from the first pass
        self.reference: dict[str, dict[str, str]] = {}
        if seed == DEFAULT_SEED and size == "full":
            self.reference = json.loads(REFERENCE.read_text())["workloads"][workload]
        self._passes = 0

    def _remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup(self, reps: int) -> list[float]:
        """Set up reps times in fresh processes; keep the first inputs."""
        times = []
        for rep in range(reps):
            target = self.inputs if rep == 0 else self.work / f"inputs{rep}"
            result = self.work / f"setup{rep}.json"
            code, _ = run_child(["setup", self.name, self.seed, self.size, target, result],
                                self.work / "log.txt", self._remaining())
            if code != 0:
                self.problems.append(f"set-up {rep} exited with code {code}")
                break
            times.append(json.loads(result.read_text())["setup_s"])
            got = self.workloads.digests(target)
            if rep == 0:
                first = got
                self.problems += _compare("inputs", got, self.reference.get("inputs", got),
                                               "reference.json")
            else:
                self.problems += _compare("inputs", got, first, "the first set-up")
                shutil.rmtree(target)
        self.setup_ok = not self.problems
        return times

    def _check_step(self, step, record: dict | None, out: Path, dirs: dict[str, Path]) -> list[str]:
        if record is None:
            return ["not run"]
        if record["error"]:
            return [f"raised {record['error'].strip().splitlines()[-1]}"]
        if record["code"] != 0:
            return [f"exit code {record['code']}"]
        try:
            problems = step.check(out / step.name, self.inputs, dirs)
        except Exception as exc:  # unreadable artifacts fail the step, not the run
            return [f"outputs unreadable: {exc!r}"]
        got = self.workloads.digests(out / step.name)
        if step.name in self.first_digests:
            problems += _compare("artifacts", got, self.first_digests[step.name], "the first pass")
        else:
            self.first_digests[step.name] = got
        if step.name in self.reference:
            problems += _compare("artifacts", got, self.reference[step.name],
                                      "reference.json")
        return problems

    def one_pass(self, trace: bool) -> dict | None:
        """Run and check one pass; its sample, or None if any step failed."""
        self._passes += 1
        out = self.work / f"out{self._passes}"
        result = self.work / f"pass{self._passes}.json"
        code, rss = run_child(["pass", self.name, self.inputs, out, int(trace), result],
                              self.work / "log.txt", self._remaining())
        report = json.loads(result.read_text()) if code == 0 and result.exists() else None
        records = {s["name"]: s for s in report["steps"]} if report else {}
        dirs = {step.name: out / step.name for step in self.spec.steps}
        failed_here = 0
        for step in self.spec.steps:
            self.attempted += 1
            problems = self._check_step(step, records.get(step.name), out, dirs)
            if problems:
                failed_here += 1
                self.problems += [f"pass {self._passes} {step.name}: {p}" for p in problems]
        self.failed += failed_here
        shutil.rmtree(out, ignore_errors=True)
        if report is None:
            self.problems.append(f"pass {self._passes}: child exited with code {code}")
        if failed_here:
            return None
        seconds = {s["name"]: s["seconds"] for s in report["steps"]}
        sample = {
            "wall_s": sum(seconds.values()),
            "analyze_s": sum(v for k, v in seconds.items() if k != "simulate"),
            "peak_rss_mb": rss,
            "steps": seconds,
        }
        if trace:
            sample["trace"] = report["trace"]
        return sample

    def measure(self, seconds: float, trace: bool) -> list[dict]:
        """Passes (untraced, or untraced+traced pairs) that fit in `seconds`, at least one."""
        started = time.monotonic()
        samples = []
        while True:
            began = time.monotonic()
            sample = self.one_pass(trace=False)
            if trace and sample is not None:
                traced = self.one_pass(trace=True)
                if traced is not None:
                    traced["overhead_s"] = traced["wall_s"] - sample["wall_s"]
                sample = traced
            if sample is not None:
                samples.append(sample)
            now = time.monotonic()
            # stop before a pass as long as the last one would overrun the run
            if now - began > min(seconds - (now - started), self.deadline - now):
                return samples


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(samples: list[dict], setups: list[float]) -> dict[str, float | None]:
    values = {name: _median([s[name] for s in samples])
              for name in ("wall_s", "analyze_s", "peak_rss_mb")}
    values["setup_s"] = _median(setups)
    return values


def per_layer(samples: list[dict]) -> dict[str, float | None]:
    import tracing

    layers = [tracing.layer_metrics(s["trace"]) for s in samples]
    values = {}
    for name, _ in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            values[name] = _median([s["overhead_s"] for s in samples])
        else:
            values[name] = _median([layer[name] for layer in layers])
    return values


def report(run: Run, args, samples: list[dict], setups: list[float]) -> dict:
    import tracing

    units = dict(tracing.LAYER_METRICS) if args.trace else dict(END_TO_END)
    values = per_layer(samples) if args.trace else end_to_end(samples, setups)
    print(f"workload {run.name}  seed {run.seed}  trace {args.trace}  "
          f"passes {len(samples)}  set-ups {len(setups)}")
    for step in run.spec.steps:
        times = [s["steps"][step.name] for s in samples]
        if times:
            print(f"  step {step.name:<12} median {_median(times):.4f} s over {len(times)}")
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<32} {shown:>14} {units[name]}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_ratio':<32} {ratio:>14.6g} 1   ({run.failed} of {run.attempted} "
          "subcommand calls failed)")
    print("  medians only: no tail percentile has ten samples beyond it")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    log = run.work / "log.txt"
    if run.problems and log.exists():
        tail = log.read_text(errors="replace").splitlines()[-20:]
        print("last lines of the child log:", *tail, sep="\n", file=sys.stderr)
    return {
        "correct": run.failed == 0 and run.setup_ok and bool(samples),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("traffic", "churn", "paths", "detect"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "routelens" / "cli.py").is_file():
        print(f"error: no routelens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + BUDGET_S
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work, deadline)
        setups = run.setup(SETUP_REPS)
        if run.setup_ok:
            samples = run.measure(args.seconds, bool(args.trace))
        else:  # no step could run: each counts as a failed operation
            samples = []
            run.attempted = run.failed = len(run.spec.steps)
        result = report(run, args, samples, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
