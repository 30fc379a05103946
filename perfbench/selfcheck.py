"""Quick self-check of the benchmark itself, at tiny sizes (seconds).

    python3 perfbench/selfcheck.py

Covers generator determinism, the traceroute renderer's round trip, span
self-time arithmetic, the `fail_ratio` tally for one deliberately failing
operation, and a traced pass per workload reporting every layer metric.
Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys
import time

from run import SRC, WORK, Run


def check_generators(workloads) -> None:
    for name in workloads.WORKLOADS:
        first, again, other = (WORK / "selfcheck" / f"{name}-{i}" for i in range(3))
        workloads.make_inputs(name, 3, first, "tiny")
        workloads.make_inputs(name, 3, again, "tiny")
        workloads.make_inputs(name, 4, other, "tiny")
        assert workloads.digests(first) == workloads.digests(again), f"{name}: seed 3 differs"
        assert workloads.digests(first) != workloads.digests(other), f"{name}: seed ignored"


def check_traceroute_round_trip(workloads) -> None:
    from routelens.core import IpPrefix, PrefixTable
    from routelens.paths import resolve_traceroute
    from routelens.simulate import PathScenario, gen_traceroute_paths

    size = workloads.SIZES["paths"]["tiny"]
    mesh = gen_traceroute_paths(PathScenario(seed=5, **size))
    records, ases = workloads.traceroute_records(5, **size)
    assert ases == {a for path in mesh for a in path.ases}
    mapping = PrefixTable()
    for asn in ases:
        mapping.insert(IpPrefix.parse(workloads.as_prefix(asn)), asn)
    mapping.freeze()
    assert len(records) == len(mesh)
    for path, record in zip(mesh, records):
        assert resolve_traceroute(record["hops"], mapping)[0] == path.ases


def check_self_times() -> None:
    import tracing

    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 3.0, 0],
        ["c", 4.0, 8.0, 0],
        ["d", 5.0, 6.0, 2],
        ["b", 11.0, 12.0, None],
    ]
    assert tracing.self_times(spans) == {"a": 4.0, "b": 3.0, "c": 3.0, "d": 1.0}

    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.01))
    outer = recorder.wrap("outer", lambda: [inner() for _ in range(2)])
    outer()
    parents = [s.parent for s in recorder.spans]
    assert [s.name for s in recorder.spans] == ["outer", "inner", "inner"]
    assert parents == [None, 0, 0]
    times = tracing.self_times([[s.name, s.start, s.end, s.parent] for s in recorder.spans])
    assert 0.0 <= times["outer"] < times["inner"]


def check_fail_ratio() -> None:
    work = WORK / "selfcheck" / "fail"
    work.mkdir(parents=True)
    run = Run("detect", 3, work, time.monotonic() + 120.0, size="tiny")
    run.setup(1)
    (run.inputs / "events.csv").unlink()  # `detect --events` now exits 2
    assert run.one_pass(trace=False) is None
    assert (run.attempted, run.failed) == (4, 1), (run.attempted, run.failed, run.problems)
    assert run.problems == ["pass 1 detect: exit code 2"], run.problems


# counts that must be positive where the workload runs their layer
RUNS = {
    "traffic": ("simulate.packets", "correlation.records_read", "correlation.write_mb"),
    "churn": ("bgp.resets_dropped", "bgp.rib_entries", "churn.records", "churn.useful_ratio"),
    "paths": ("paths.hops", "paths.records", "paths.quad_days", "core.prefixes"),
    "detect": ("bgp.lines", "detect.alerts", "core.relays", "artifacts.mb"),
}


def check_traced_passes() -> None:
    import tracing

    names = {name for name, _ in tracing.LAYER_METRICS} - {"trace.overhead_s"}
    for name, positive in RUNS.items():
        work = WORK / "selfcheck" / f"trace-{name}"
        work.mkdir(parents=True)
        run = Run(name, 3, work, time.monotonic() + 120.0, size="tiny")
        run.setup(2)
        sample = run.one_pass(trace=True)
        assert sample is not None and run.failed == 0, run.problems
        values = tracing.layer_metrics(sample["trace"])
        assert set(values) == names, names ^ set(values)
        assert values["cli.ops"] == len(run.spec.steps)
        assert all(v >= 0 for v in values.values()), values
        assert all(values[m] > 0 for m in positive), {m: values[m] for m in positive}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    shutil.rmtree(WORK / "selfcheck", ignore_errors=True)
    checks = [
        ("generator determinism", lambda: check_generators(workloads)),
        ("traceroute round trip", lambda: check_traceroute_round_trip(workloads)),
        ("span self-time arithmetic", check_self_times),
        ("fail_ratio for one failing operation", check_fail_ratio),
        ("traced pass per workload", check_traced_passes),
    ]
    failed = 0
    try:
        for label, check in checks:
            try:
                check()
                print(f"ok    {label}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL  {label}: {exc}")
    finally:
        shutil.rmtree(WORK / "selfcheck", ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
