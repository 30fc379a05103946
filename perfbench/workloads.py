"""Seeded workload inputs, the subcommands each workload runs, and the
checks on what those subcommands write.

Every generator builds its scenario only from public `routelens.simulate`
and `routelens.core` constructors and writes plain input files; the same
seed and size give byte-identical files. A workload is a list of steps,
each one `routelens` subcommand with its own output directory, so a
failed check can be charged to the step that wrote the artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from routelens import artifacts
from routelens.core import RelayDescriptor, ip_to_int
from routelens.evaluation import standard_scenario
from routelens.simulate import (
    ChurnEvent,
    InjectedEvent,
    PathScenario,
    RouteSpec,
    RoutingScenario,
    SessionSpec,
    TrafficScenario,
    gen_traceroute_paths,
)

DAY = (0.0, 86400.0)

# "full" is what the benchmark measures; "tiny" keeps the self-check fast.
SIZES = {
    "traffic": {
        "full": {"n_pairs": 50, "duration": 300.0},
        "tiny": {"n_pairs": 4, "duration": 60.0},
    },
    "churn": {
        "full": {"n_sessions": 8, "n_relays": 150, "n_churn": 500, "n_resets": 2},
        "tiny": {"n_sessions": 3, "n_relays": 12, "n_churn": 30, "n_resets": 1},
    },
    "paths": {
        "full": {"days": 21, "n_clients": 10, "n_guards": 25, "n_exits": 25, "n_dests": 10},
        "tiny": {"days": 3, "n_clients": 2, "n_guards": 3, "n_exits": 3, "n_dests": 2},
    },
    "detect": {
        "full": {"n_prefixes": 800, "n_sessions": 8, "n_churn": 3000,
                 "n_hijacks": 80, "n_interceptions": 20},
        "tiny": {"n_prefixes": 30, "n_sessions": 3, "n_churn": 20,
                 "n_hijacks": 4, "n_interceptions": 2},
    },
}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


# --- traffic ----------------------------------------------------------------------


def traffic_inputs(seed: int, out: Path, n_pairs: int, duration: float) -> None:
    """The paper's reference matching configuration as a scenario file,
    its base rate scaled so that every seed carries the same expected bytes.

    The simulator's first seeded draw is each flow's rate factor, log-uniform
    in [1/rate_spread, rate_spread]. Over 50 flows the mean factor moves by
    about 11% between seeds, and with it the packet count that `simulate`
    and `correlate` spend their time on. Dividing the base rate by the
    drawn mean over its expectation fixes the volume and keeps the per-flow
    rate diversity the matcher feeds on.
    """
    scenario = standard_scenario(seed, n_pairs)
    spread = math.log(scenario.rate_spread)
    factors = np.exp(np.random.default_rng(seed).uniform(-spread, spread, size=n_pairs))
    expected = (scenario.rate_spread - 1.0 / scenario.rate_spread) / (2.0 * spread)
    scaled = {**scenario.to_dict(), "duration": duration,
              "base_rate": scenario.base_rate * expected / float(factors.mean())}
    _write_json(out / "scenario.json", TrafficScenario.from_dict(scaled).to_dict())


# --- churn ----------------------------------------------------------------------


def churn_scenario(
    seed: int, n_sessions: int, n_relays: int, n_churn: int, n_resets: int
) -> RoutingScenario:
    """One day of per-session routing toward relays nested in /24s under /16s.

    Relays sit 3 and 2 per /24 in turn, four /24s per covering /16, with a
    fixed 4:3:3 mix of guard, dual and exit flags, so the amount of work
    depends little on the seed. Every session announces every /16 and most
    /24s over its own neighbour AS, one to three transits from a shared
    pool, and the /16's origin. Churn re-routes or withdraws prefixes at
    random times. n_resets sessions go quiet for over an hour and then
    re-announce their live table unchanged, which is what the session-reset
    filter removes. No attacks.
    """
    rng = np.random.default_rng(seed)
    relays: list[RelayDescriptor] = []
    slash24: list[str] = []
    while len(relays) < n_relays:
        block = len(slash24)
        second, third = 20 + block // 4, 16 * (block % 4)
        slash24.append(f"60.{second}.{third}.0/24")
        hosts = rng.choice(np.arange(2, 250), size=3 - block % 2, replace=False)
        for host in sorted(int(h) for h in hosts)[: n_relays - len(relays)]:
            role = len(relays) % 10
            relays.append(
                RelayDescriptor(
                    address=ip_to_int(f"60.{second}.{third}.{host}"),
                    is_guard=role < 7,
                    is_exit=role >= 4,
                    bandwidth=float(rng.integers(1, 100)),
                    nickname=f"r{len(relays)}",
                )
            )
    slash16 = sorted({f"60.{p.split('.')[1]}.0.0/16" for p in slash24})
    origin = {p: 65000 + i for i, p in enumerate(slash16)}
    for p in slash24:
        origin[p] = origin[f"60.{p.split('.')[1]}.0.0/16"]
    transits = np.arange(3000, 3016)
    sessions = tuple(SessionSpec(f"s{k}", 64500 + k) for k in range(n_sessions))

    def path_for(k: int, prefix: str) -> tuple[int, ...]:
        hops = rng.choice(transits, size=int(rng.integers(1, 4)), replace=False)
        return (64500 + k, *(int(h) for h in hops), origin[prefix])

    live: list[dict[str, tuple[int, ...]]] = []
    base = []
    for k, spec in enumerate(sessions):
        table = {p: path_for(k, p) for p in slash16}
        for p in slash24:
            if rng.random() < 0.7:
                table[p] = path_for(k, p)
        live.append(table)
        base.extend(RouteSpec(spec.session_id, p, path) for p, path in sorted(table.items()))

    pending = sorted(
        (float(rng.integers(20_000, 80_000)), int(k))
        for k in rng.choice(n_sessions, size=n_resets, replace=False)
    )
    quiet = {k: at for at, k in pending}
    churn: list[ChurnEvent] = []

    def reset_burst(at: float, k: int) -> None:
        for prefix, path in sorted(live[k].items()):
            churn.append(ChurnEvent(at, sessions[k].session_id, prefix, path))

    prefixes = slash16 + slash24
    for t in (float(v) for v in np.sort(rng.integers(1, int(DAY[1]) - 1, size=n_churn))):
        while pending and pending[0][0] <= t:
            reset_burst(*pending.pop(0))
        k = int(rng.integers(0, n_sessions))
        prefix = prefixes[int(rng.integers(0, len(prefixes)))]
        withdraw = prefix in slash24 and prefix in live[k] and rng.random() < 0.2
        if k in quiet and quiet[k] - 4000.0 <= t <= quiet[k] + 60.0:
            continue  # the session is silent before and during its reset
        if withdraw:
            del live[k][prefix]
            churn.append(ChurnEvent(t, sessions[k].session_id, prefix, None))
        else:
            live[k][prefix] = path_for(k, prefix)
            churn.append(ChurnEvent(t, sessions[k].session_id, prefix, live[k][prefix]))
    for at, k in pending:
        reset_burst(at, k)
    return RoutingScenario(
        seed=seed,
        window=DAY,
        sessions=sessions,
        relays=tuple(relays),
        base_routes=tuple(base),
        churn=tuple(churn),
    )


def churn_inputs(seed: int, out: Path, **size) -> None:
    _write_json(out / "scenario.json", churn_scenario(seed, **size).to_dict())


# --- paths ----------------------------------------------------------------------


def as_prefix(asn: int) -> str:
    """The one /16 each AS announces in the traceroute prefix map."""
    return f"{30 + asn // 256}.{asn % 256}.0.0/16"


def traceroute_records(seed: int, **size) -> tuple[list[dict], set[int]]:
    """Hop-level traceroutes for the default path mesh, and the ASes on it.

    Each AS on a generated AS-level path contributes 1-3 hops inside its
    prefix; about 10% of hops are followed by a `*` timeout and about a
    fifth of traces start with a private first hop. Resolving the hops
    under `as_prefix` gives back exactly the generated AS path.
    """
    mesh = gen_traceroute_paths(PathScenario(seed=seed, **size))
    rng = np.random.default_rng([seed, 1])
    per_as = rng.integers(1, 4, size=sum(len(p.ases) for p in mesh))
    draws = rng.integers(0, 256, size=(int(per_as.sum()), 2))
    timeouts = rng.random(int(per_as.sum())) < 0.1
    private = rng.random(len(mesh)) < 0.2
    records = []
    a = h = 0
    for i, path in enumerate(mesh):
        hops = ["192.168.1.1"] if private[i] else []
        for asn in path.ases:
            first, second = as_prefix(asn).split(".")[:2]
            for _ in range(int(per_as[a])):
                third, fourth = draws[h]
                hops.append(f"{first}.{second}.{third}.{1 + fourth % 254}")
                if timeouts[h]:
                    hops.append("*")
                h += 1
            a += 1
        records.append(
            {"probe": path.probe, "target": path.target, "role": path.role.value,
             "day": path.day, "hops": hops}
        )
    return records, {asn for path in mesh for asn in path.ases}


def _count_hops(traceroutes: Path) -> int:
    with open(traceroutes) as handle:
        return sum(len(json.loads(line)["hops"]) for line in handle)


def paths_inputs(seed: int, out: Path, **size) -> None:
    records, ases = traceroute_records(seed, **size)
    with open(out / "traceroutes.jsonl", "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    with open(out / "prefix2as.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["prefix", "asn"])
        for asn in sorted(ases):
            writer.writerow([as_prefix(asn), asn])


# --- detect -----------------------------------------------------------------------


def _relay_net(i: int) -> tuple[int, int]:
    return 70 + i // 256, i % 256


def detect_scenario(
    seed: int,
    n_prefixes: int,
    n_sessions: int,
    n_churn: int,
    n_hijacks: int,
    n_interceptions: int,
) -> RoutingScenario:
    """`injection_scenario` scaled up: one relay per /16, planted attacks.

    Hijacks announce a victim /16 from a foreign origin for 60-600 s;
    interceptions announce a /17 inside one. Background churn re-routes
    quiet prefixes, at most once per (session, prefix) and between 5000 s
    and 85000 s, keeping origins; so every background route stays live for
    well over 1% of the day, and the only correct alerts are the planted
    events.
    """
    rng = np.random.default_rng(seed)
    relays = []
    for i in range(n_prefixes):
        a, b = _relay_net(i)
        relays.append(
            RelayDescriptor(
                address=ip_to_int(f"{a}.{b}.0.{int(rng.integers(2, 200))}"),
                is_guard=i % 3 in (0, 2),
                is_exit=i % 3 in (1, 2),
                bandwidth=float(rng.integers(1, 50)),
                nickname=f"r{i}",
            )
        )
    sessions = tuple(SessionSpec(f"s{k}", 64500 + k) for k in range(n_sessions))

    def slash16(i: int) -> str:
        return "{}.{}.0.0/16".format(*_relay_net(i))

    base = tuple(
        RouteSpec(spec.session_id, slash16(i), (64000 + k, 65000 + i))
        for k, spec in enumerate(sessions)
        for i in range(n_prefixes)
    )
    victims = [int(v) for v in rng.permutation(n_prefixes)[: n_hijacks + n_interceptions]]
    events = []
    for j, i in enumerate(victims):
        start = float(rng.integers(10_000, 70_000))
        duration = float(rng.integers(60, 600))
        attacker = (64_999, 66_600 + j)
        if j < n_hijacks:
            events.append(InjectedEvent("hijack", slash16(i), attacker, start, duration))
        else:
            a, b = _relay_net(i)
            events.append(
                InjectedEvent("interception", f"{a}.{b}.0.0/17", attacker, start, duration)
            )
    quiet = sorted(set(range(n_prefixes)) - set(victims))
    slots = [(k, i) for k in range(n_sessions) for i in quiet]
    picked = rng.permutation(len(slots))[:n_churn]
    churn = []
    for slot in (int(v) for v in picked):
        k, i = slots[slot]
        churn.append(
            ChurnEvent(
                float(rng.integers(5_000, 85_000)),
                sessions[k].session_id,
                slash16(i),
                (64000 + k, 64_100 + int(rng.integers(0, 50)), 65000 + i),
            )
        )
    churn.sort(key=lambda c: (c.time, c.session, c.prefix))
    return RoutingScenario(
        seed=seed,
        window=DAY,
        sessions=sessions,
        relays=tuple(relays),
        base_routes=base,
        churn=tuple(churn),
        events=tuple(events),
    )


def detect_inputs(seed: int, out: Path, **size) -> None:
    """Scenario, known-event list and relay origin map.

    The origin map assigns relay /16s to a skewed set of hosting ASes,
    carves some relays into /24 and /20 more-specifics of other ASes, and
    leaves a few relays uncovered, so `concentrate` and `prefixlen` see
    grouping, longest-prefix match and misses.
    """
    scenario = detect_scenario(seed, **size)
    _write_json(out / "scenario.json", scenario.to_dict())
    rng = np.random.default_rng([seed, 2])
    n = size["n_prefixes"]
    hosting = 1 + rng.zipf(1.6, size=n) % 60
    with open(out / "origins.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["prefix", "asn"])
        for i in range(n):
            a, b = _relay_net(i)
            roll = rng.random()
            if roll < 0.03:
                continue  # uncovered relay
            writer.writerow([f"{a}.{b}.0.0/16", 20000 + int(hosting[i])])
            if roll < 0.2:
                writer.writerow([f"{a}.{b}.0.0/24", 21000 + int(rng.integers(0, 20))])
            elif roll < 0.3:
                writer.writerow([f"{a}.{b}.0.0/20", 22000 + int(rng.integers(0, 10))])
    with open(out / "events.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["prefix", "t_start", "t_end", "label"])
        for label in range(20):
            for i in rng.choice(n, size=min(5, n), replace=False):
                a, b = _relay_net(int(i))
                length = (16, 20, 24)[int(rng.integers(0, 3))]
                start = float(rng.integers(0, 80_000))
                writer.writerow(
                    [f"{a}.{b}.0.0/{length}", start, start + 600.0, f"event-{label:02d}"]
                )


# --- checks -----------------------------------------------------------------------


def digests(directory: Path) -> dict[str, str]:
    """sha256 of each file's `artifacts.normalized_bytes`, by relative path."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(
            artifacts.normalized_bytes(path)
        ).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def check_traffic_simulate(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    n_pairs = json.loads((inputs / "scenario.json").read_text())["n_pairs"]
    roles = [row["role"] for row in _csv_rows(out / "manifest.csv")]
    pairing = json.loads((out / "truth.json").read_text())["pairing"]
    problems = []
    if sorted(roles) != ["client"] * n_pairs + ["server"] * n_pairs:
        problems.append(f"manifest lists {len(roles)} traces, expected {2 * n_pairs}")
    if len(pairing) != n_pairs:
        problems.append(f"truth pairs {len(pairing)} clients, expected {n_pairs}")
    return problems


def check_correlate(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    """correct + fn + fp == n_clients, fp == 0, and the report agrees."""
    pairing = json.loads((steps["simulate"] / "truth.json").read_text())["pairing"]
    matches = artifacts.read_jsonl_records(out / "matches.jsonl")
    report = json.loads((out / "accuracy_report.json").read_text())
    correct = sum(1 for m in matches if m["matched_server_id"] == pairing[m["client_id"]])
    fn = sum(1 for m in matches if m["matched_server_id"] is None)
    fp = len(matches) - correct - fn
    problems = []
    if correct + fn + fp != report["n_clients"] or report["n_clients"] != len(pairing):
        problems.append(f"{correct}+{fn}+{fp} outcomes for {report['n_clients']} clients")
    if fp != 0:
        problems.append(f"{fp} false positives")
    if abs(report["accuracy"] - correct / len(matches)) > 1e-12:
        problems.append(f"reported accuracy {report['accuracy']} != {correct}/{len(matches)}")
    return problems


def check_routing_simulate(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    scenario = json.loads((inputs / "scenario.json").read_text())
    truth = json.loads((out / "truth.json").read_text())["events"]
    n_relays = len(_csv_rows(out / "relays.csv"))
    problems = []
    if len(truth) != len(scenario["events"]):
        problems.append(f"truth lists {len(truth)} events, scenario {len(scenario['events'])}")
    if n_relays != len(scenario["relays"]):
        problems.append(f"{n_relays} relays written, scenario has {len(scenario['relays'])}")
    return problems


def check_churn(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    """With-updates >= baseline for every pair and every ratio >= 1."""
    key = ("src_session", "dst_session")
    base = {tuple(r[k] for k in key): int(r["compromised_circuits"])
            for r in _csv_rows(out / "baseline_pairs.csv")}
    after = {tuple(r[k] for k in key): int(r["compromised_circuits"])
             for r in _csv_rows(out / "churn_pairs.csv")}
    problems = []
    if set(base) != set(after) or not base:
        problems.append(f"pair sets differ: {len(base)} baseline, {len(after)} with updates")
    shrunk = [p for p in base if after.get(p, -1) < base[p]]
    if shrunk:
        problems.append(f"{len(shrunk)} pairs lost circuits under updates, e.g. {shrunk[0]}")
    for row in _csv_rows(out / "ratios.csv"):
        ratio, before, with_updates = float(row["ratio"]), int(row["baseline"]), int(row["with_updates"])
        if ratio < 1.0 or abs(ratio - with_updates / before) > 1e-6:
            problems.append(f"ratio {ratio} for {row['src_session']}->{row['dst_session']}")
            break
    return problems


def check_paths(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    """Cumulative series monotone and >= same-day; day-1 sym <= asym."""
    rows = _csv_rows(out / "vulnerability_timeseries.csv")
    cumulative = [float(r["pct_asymmetric_cumulative"]) for r in rows]
    problems = []
    if not rows:
        return ["no rows"]
    if cumulative != sorted(cumulative):
        problems.append("cumulative series decreases")
    if any(c < float(r["pct_asymmetric"]) for c, r in zip(cumulative, rows)):
        problems.append("cumulative series below the same-day series")
    if float(rows[0]["pct_symmetric_day1"]) > float(rows[0]["pct_asymmetric"]):
        problems.append("day-1 symmetric above day-1 asymmetric")
    return problems


def check_detect(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    """Recall 1.0 and zero false alerts against the planted events."""
    events = json.loads((steps["simulate"] / "truth.json").read_text())["events"]
    alerts = artifacts.read_jsonl_records(out / "alerts.jsonl")
    used: set[int] = set()
    missed = 0
    for event in events:
        hits = [
            idx for idx, alert in enumerate(alerts)
            if alert["prefix"] == event["prefix"]
            and any(w0 <= event["t_end"] and event["t_start"] <= w1 for w0, w1 in alert["windows"])
        ]
        used.update(hits)
        missed += not hits
    problems = []
    if missed:
        problems.append(f"{missed} of {len(events)} planted events missed")
    if len(alerts) != len(used):
        problems.append(f"{len(alerts) - len(used)} false alerts")
    return problems


def check_concentrate(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    rows = _csv_rows(out / "concentration.csv")
    uncovered = _csv_rows(out / "uncovered_relays.csv")
    n_relays = len(_csv_rows(steps["simulate"] / "relays.csv"))
    share = sum(float(r["percent_relays"]) for r in rows)
    problems = []
    if sum(int(r["relay_count"]) for r in rows) + len(uncovered) != n_relays:
        problems.append("covered plus uncovered relays do not add up to the relay list")
    if rows and abs(share - 100.0) > 0.01 * len(rows):
        problems.append(f"relay shares sum to {share:.4f}%")
    return problems


def check_prefixlen(out: Path, inputs: Path, steps: dict[str, Path]) -> list[str]:
    rows = _csv_rows(out / "prefix_lengths.csv")
    share = sum(float(r["percent"]) for r in rows)
    if rows and abs(share - 100.0) > 0.01 * len(rows):
        return [f"length shares sum to {share:.4f}%"]
    return []


# --- workload table -----------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]  # "{inputs}" and "{out}" are filled in per pass
    check: Callable[[Path, Path, dict[str, Path]], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[..., None]
    steps: tuple[Step, ...]
    # per-layer counts read from the inputs, for layers whose per-item work
    # happens inside calls the tracer does not wrap
    input_counts: Callable[[Path], dict[str, float]] = lambda inputs: {}

    def argv(self, step: Step, inputs: Path, out: Path) -> list[str]:
        return ["--output-dir", str(out / step.name)] + [
            arg.format(inputs=inputs, out=out) for arg in step.argv
        ]


def _simulate() -> Step:
    return Step("simulate", ("simulate", "--scenario", "{inputs}/scenario.json"),
                check_routing_simulate)


WORKLOADS = {
    "traffic": Workload(
        "traffic",
        traffic_inputs,
        (
            Step("simulate", ("simulate", "--scenario", "{inputs}/scenario.json"),
                 check_traffic_simulate),
            Step("correlate", ("correlate", "--manifest", "{out}/simulate/manifest.csv",
                               "--truth", "{out}/simulate/truth.json"), check_correlate),
        ),
    ),
    "churn": Workload(
        "churn",
        churn_inputs,
        (
            _simulate(),
            Step("churn", ("churn", "--updates", "{out}/simulate/updates.csv",
                           "--relays", "{out}/simulate/relays.csv", "--filter-resets"),
                 check_churn),
        ),
    ),
    "paths": Workload(
        "paths",
        paths_inputs,
        (
            Step("paths", ("paths", "--traceroutes", "{inputs}/traceroutes.jsonl",
                           "--mapping", "{inputs}/prefix2as.csv"), check_paths),
        ),
        lambda inputs: {"paths.hops": _count_hops(inputs / "traceroutes.jsonl")},
    ),
    "detect": Workload(
        "detect",
        detect_inputs,
        (
            _simulate(),
            Step("detect", ("detect", "--updates", "{out}/simulate/updates.csv",
                            "--relays", "{out}/simulate/relays.csv",
                            "--window-start", "0", "--window-end", "86400",
                            "--events", "{inputs}/events.csv"), check_detect),
            Step("concentrate", ("concentrate", "--relays", "{out}/simulate/relays.csv",
                                 "--origins", "{inputs}/origins.csv"), check_concentrate),
            Step("prefixlen", ("prefixlen", "--relays", "{out}/simulate/relays.csv",
                               "--origins", "{inputs}/origins.csv"), check_prefixlen),
        ),
    ),
}


def make_inputs(workload: str, seed: int, out: Path, size: str = "full") -> None:
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[workload].make_inputs(seed, out, **SIZES[workload][size])
