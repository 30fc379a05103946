"""End-to-end subcommand tests on small generated fixtures."""

import copy
import csv
import dataclasses
import importlib.util
import io
import json
import os
import re
import reprlib
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from helpers import artifacts_equal, random_routing_scenario
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import routelens
from routelens.artifacts import read_jsonl_records
from routelens.cli import accuracy_payload, main
from routelens.correlation import AccuracyReport
from routelens.simulate import (
    Bottleneck,
    ChurnEvent,
    InjectedEvent,
    PathScenario,
    RouteSpec,
    RoutingScenario,
    SessionSpec,
    TrafficScenario,
    gen_traceroute_paths,
    injection_scenario,
)
from routelens.core import InputError, RelayDescriptor, ip_to_int
from routelens.tracefile import read_trace_jsonl


def run(*argv):
    return main([str(a) for a in argv])


def read_artifact_csv(path):
    meta = {}
    rows = []
    header = None
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


@pytest.fixture()
def traffic_dataset(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(TrafficScenario(seed=5, n_pairs=4, duration=40.0).to_dict())
    )
    out = tmp_path / "sim"
    assert run("--output-dir", out, "simulate", "--scenario", scenario) == 0
    return out


def routing_scenario_file(tmp_path, window=(0.0, 86400.0)):
    # AS 7 compromises (s1, s2) from the start; the churn pair of changes
    # puts AS 9 on both segments of (s2, s1) late in the window
    scenario = RoutingScenario(
        seed=2,
        window=window,
        sessions=(SessionSpec("s1", 64500), SessionSpec("s2", 64501)),
        relays=(
            RelayDescriptor(ip_to_int("10.0.0.5"), True, False, 5.0, "g"),
            RelayDescriptor(ip_to_int("10.1.0.5"), False, True, 5.0, "e"),
        ),
        base_routes=(
            RouteSpec("s1", "10.0.0.0/16", (101, 7, 102)),
            RouteSpec("s1", "10.1.0.0/16", (101, 103)),
            RouteSpec("s2", "10.0.0.0/16", (104, 102)),
            RouteSpec("s2", "10.1.0.0/16", (104, 7, 103)),
        ),
        churn=(
            ChurnEvent(60_000.0, "s2", "10.0.0.0/16", (104, 9, 102)),
            ChurnEvent(60_050.0, "s1", "10.1.0.0/16", (101, 9, 103)),
        ),
        events=(
            InjectedEvent("hijack", "10.0.0.0/16", (999, 666), 40_000.0, 120.0),
            InjectedEvent("interception", "10.1.0.0/24", (999, 667), 50_000.0, 300.0),
        ),
    )
    path = tmp_path / "routing.json"
    path.write_text(json.dumps(scenario.to_dict()))
    return path


def test_simulate_traffic_writes_dataset(traffic_dataset):
    assert (traffic_dataset / "manifest.csv").exists()
    assert (traffic_dataset / "truth.json").exists()
    meta, header, rows = read_artifact_csv(traffic_dataset / "manifest.csv")
    assert header == ["file", "vantage_id", "role"]
    assert len(rows) == 8  # 4 clients + 4 servers
    assert meta["tool"].startswith("routelens")


def test_correlate_end_to_end(traffic_dataset, tmp_path):
    out = tmp_path / "corr"
    code = run(
        "--output-dir", out,
        "correlate",
        "--manifest", traffic_dataset / "manifest.csv",
        "--truth", traffic_dataset / "truth.json",
        "--window", 40,
    )
    assert code == 0
    meta, header, rows = read_artifact_csv(out / "correlation_matrix.csv")
    assert header[0] == "client_id" and len(rows) == 4 and len(header) == 5
    assert meta["threshold"] == "0.6"  # default echoed into the artifact
    matches = read_jsonl_records(out / "matches.jsonl")
    assert len(matches) == 4
    report = json.loads((out / "accuracy_report.json").read_text())
    assert report["accuracy"] == 1.0
    assert report["false_positive_rate"] == 0.0


def test_correlate_scenario_flag_selects_signals(traffic_dataset, tmp_path):
    out = tmp_path / "ack"
    code = run(
        "--output-dir", out,
        "correlate",
        "--manifest", traffic_dataset / "manifest.csv",
        "--truth", traffic_dataset / "truth.json",
        "--scenario", "client-ack:server-ack",
        "--window", 40,
    )
    assert code == 0
    matches = read_jsonl_records(out / "matches.jsonl")
    assert all(m["scenario"] == "client-ack:server-ack" for m in matches)
    report = json.loads((out / "accuracy_report.json").read_text())
    assert report["accuracy"] >= 0.75


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.data())
def test_accuracy_intervals_bracket_their_rates(n_clients, n_servers, data):
    correct = data.draw(st.integers(0, n_clients))
    fn = data.draw(st.integers(0, n_clients - correct))
    fp = data.draw(st.integers(0, n_clients - correct - fn))
    payload = accuracy_payload(AccuracyReport(n_clients, correct, fn, fp, n_servers))
    for rate, interval in (
        ("false_negative_rate", "fn_confidence_95"),
        ("false_positive_rate", "fp_confidence_95"),
    ):
        low, high = payload[interval]
        assert 0.0 <= low <= payload[rate] <= high <= 1.0, (rate, payload)


def test_false_positive_rate_counts_wrong_server_pairs():
    payload = accuracy_payload(AccuracyReport(50, 49, 0, 1, 50))
    assert payload["false_positive_rate"] == 1 / (50 * 49)
    assert payload["false_negative_rate"] == 0.0


def test_correlate_missing_manifest_exits_2(tmp_path, capsys):
    assert run("--output-dir", tmp_path, "correlate", "--manifest", tmp_path / "nope.csv") == 2
    assert "not found" in capsys.readouterr().err


def test_correlate_manifest_listing_a_vantage_twice_exits_2(traffic_dataset, tmp_path, capsys):
    lines = (traffic_dataset / "manifest.csv").read_text().splitlines(keepends=True)
    repeated = next(line for line in lines if line.split(",")[1:2] == ["client-00"])
    manifest = traffic_dataset / "repeated.csv"
    manifest.write_text("".join(lines) + repeated)
    out = tmp_path / "corr"
    code = run("--output-dir", out, "correlate", "--manifest", manifest,
               "--truth", traffic_dataset / "truth.json", "--window", 40)
    assert code == 2
    err = capsys.readouterr().err
    line = len(lines) + 1
    assert f"{manifest}:{line}: bad manifest row: vantage_id 'client-00' listed twice" in err
    assert not out.exists()


def test_detect_alerts_alike_on_a_scenario_moved_into_unix_time(tmp_path):
    # Unix-time stamps need ten significant digits, which f"{ts:g}" cuts to six
    plain = injection_scenario(0, 3, 1)
    shift = 1.4e9
    moved = dataclasses.replace(
        plain,
        window=(plain.window[0] + shift, plain.window[1] + shift),
        churn=tuple(dataclasses.replace(c, time=c.time + shift) for c in plain.churn),
        events=tuple(dataclasses.replace(e, start=e.start + shift) for e in plain.events),
    )
    flagged = []
    for name, scenario in (("plain", plain), ("moved", moved)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario.to_dict()))
        assert run("--output-dir", tmp_path / name, "simulate", "--scenario", path) == 0
        start, end = scenario.window
        assert run(
            "--output-dir", tmp_path / f"{name}-detect",
            "detect",
            "--updates", tmp_path / name / "updates.csv",
            "--relays", tmp_path / name / "relays.csv",
            "--window-start", start, "--window-end", end,
        ) == 0
        alerts = read_jsonl_records(tmp_path / f"{name}-detect" / "alerts.jsonl")
        flagged.append(sorted((a["prefix"], a["origin_as"]) for a in alerts))
    assert len(flagged[0]) == 5
    assert flagged[1] == flagged[0]


def test_simulate_routing_and_detect(tmp_path):
    scenario = routing_scenario_file(tmp_path)
    sim_out = tmp_path / "rsim"
    assert run("--output-dir", sim_out, "simulate", "--scenario", scenario) == 0
    assert (sim_out / "updates.csv").exists() and (sim_out / "relays.csv").exists()
    truth = json.loads((sim_out / "truth.json").read_text())
    assert len(truth["events"]) == 2

    det_out = tmp_path / "det"
    code = run(
        "--output-dir", det_out,
        "detect",
        "--updates", sim_out / "updates.csv",
        "--relays", sim_out / "relays.csv",
        "--window-start", 0, "--window-end", 86400,
    )
    assert code == 0
    alerts = read_jsonl_records(det_out / "alerts.jsonl")
    flagged = {(a["prefix"], a["origin_as"]) for a in alerts}
    assert ("10.0.0.0/16", 666) in flagged
    assert ("10.1.0.0/24", 667) in flagged


def test_churn_end_to_end_and_empty_updates(tmp_path):
    scenario = routing_scenario_file(tmp_path)
    sim_out = tmp_path / "rsim"
    assert run("--output-dir", sim_out, "simulate", "--scenario", scenario) == 0
    churn_out = tmp_path / "churn"
    code = run(
        "--output-dir", churn_out,
        "churn",
        "--updates", sim_out / "updates.csv",
        "--relays", sim_out / "relays.csv",
        "--window-start", 0, "--window-end", 86400,
    )
    assert code == 0
    assert sorted(p.name for p in churn_out.iterdir()) == CHURN_ARTIFACTS
    meta, _, baseline_rows = read_artifact_csv(churn_out / "baseline_pairs.csv")
    assert meta["min_overlap"] == "30.0"
    assert len(baseline_rows) == 2  # (s1, s2) and (s2, s1)
    _, _, ratio_rows = read_artifact_csv(churn_out / "ratios.csv")
    assert [r[:2] for r in ratio_rows] == [["s1", "s2"]]  # AS 7 baseline pair
    _, _, newly_rows = read_artifact_csv(churn_out / "newly_compromisable.csv")
    assert [r[:2] for r in newly_rows] == [["s2", "s1"]]  # churn put AS 9 on both legs

    # the per-pair counts must equal an independent second-by-second sweep
    from helpers import brute_force_records
    from routelens.bgp import ingest, parse_updates
    from routelens.core import RelayIndex, load_relays

    updates, _ = parse_updates(sim_out / "updates.csv")
    relays = load_relays(sim_out / "relays.csv")
    ribs = ingest(updates, RelayIndex(relays))
    baseline_keys = brute_force_records(ribs, relays, (0, 1), min_overlap=0)
    window_keys = brute_force_records(ribs, relays, (0, 86400), min_overlap=30)
    expected = {}
    for record in window_keys | baseline_keys:
        expected.setdefault((record.src_session, record.dst_session), set()).add(
            (record.guard, record.exit)
        )
    _, _, churn_rows = read_artifact_csv(churn_out / "churn_pairs.csv")
    got = {(r[0], r[1]): int(r[2]) for r in churn_rows}
    assert got == {
        pair: len(expected.get(pair, ())) for pair in got
    }
    base_expected = {}
    for record in baseline_keys:
        base_expected.setdefault((record.src_session, record.dst_session), set()).add(
            (record.guard, record.exit)
        )
    base_got = {(r[0], r[1]): int(r[2]) for r in baseline_rows}
    assert base_got == {pair: len(base_expected.get(pair, ())) for pair in base_got}

    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,session,kind,prefix,path\n")
    empty_out = tmp_path / "churn-empty"
    code = run(
        "--output-dir", empty_out,
        "churn",
        "--updates", empty,
        "--relays", sim_out / "relays.csv",
    )
    assert code == 0
    # no update after the window start: baseline artifacts and empty comparisons
    assert sorted(p.name for p in empty_out.iterdir()) == [
        "baseline_pairs.csv", "ccdf_baseline.csv", "newly_compromisable.csv", "ratios.csv"
    ]
    _, header, rows = read_artifact_csv(empty_out / "ratios.csv")
    assert header == ["src_session", "dst_session", "baseline", "with_updates", "ratio"]
    assert rows == []


CHURN_ARTIFACTS = [
    "as_coverage.csv",
    "baseline_pairs.csv",
    "ccdf_baseline.csv",
    "ccdf_churn.csv",
    "churn_pairs.csv",
    "newly_compromisable.csv",
    "ratios.csv",
]


@pytest.mark.parametrize(
    "sessions",
    [
        "session_id,local_as\ns1,64500\n",
        "session_id,local_as\ns1,64500\ns2,64500\n",
    ],
    ids=["one-session", "one-local-as"],
)
def test_churn_without_admissible_pair_writes_every_artifact(tmp_path, capsys, sessions):
    relays = tmp_path / "relays.csv"
    relays.write_text(
        "address,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1,0,5.0,g\n10.1.0.5,0,1,5.0,e\n"
    )
    sessions_csv = tmp_path / "sessions.csv"
    sessions_csv.write_text(sessions)
    updates = tmp_path / "updates.csv"
    updates.write_text(
        "timestamp,session,kind,prefix,path\n"
        + "".join(
            f'0,{sid},A,10.0.0.0/16,"101 7 102"\n0,{sid},A,10.1.0.0/16,"104 7 103"\n'
            f'500,{sid},A,10.0.0.0/16,"101 9 102"\n'
            for sid in re.findall(r"^(s\d),", sessions, re.M)
        )
    )
    out = tmp_path / "churn-out"
    code = run(
        "--output-dir", out,
        "churn",
        "--updates", updates,
        "--relays", relays,
        "--sessions", sessions_csv,
        "--window-start", 0, "--window-end", 1000,
    )
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == CHURN_ARTIFACTS
    for name in ("baseline", "churn"):
        _, header, rows = read_artifact_csv(out / f"ccdf_{name}.csv")
        assert (header, rows) == (["x_percent", "y_percent"], [])


def test_churn_initial_state_and_sessions_files(tmp_path):
    relays = tmp_path / "relays.csv"
    relays.write_text(
        "address,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1,0,5.0,g\n10.1.0.5,0,1,5.0,e\n"
    )
    # initial state at t=0 carries the shared transit AS 7 on both legs
    initial = tmp_path / "initial.csv"
    initial.write_text(
        "timestamp,session,kind,prefix,path\n"
        '0,s1,A,10.0.0.0/16,"101 7 102"\n'
        '0,s2,A,10.1.0.0/16,"104 7 103"\n'
    )
    updates = tmp_path / "updates.csv"
    updates.write_text(
        "timestamp,session,kind,prefix,path\n"
        '500,s1,A,10.0.0.0/16,"101 102"\n'
    )
    sessions = tmp_path / "sessions.csv"
    sessions.write_text("session_id,local_as\ns1,64500\ns2,64501\n")
    out = tmp_path / "churn-init"
    code = run(
        "--output-dir", out,
        "churn",
        "--updates", updates,
        "--relays", relays,
        "--initial", initial,
        "--sessions", sessions,
        "--window-start", 0, "--window-end", 1000,
    )
    assert code == 0
    _, _, baseline_rows = read_artifact_csv(out / "baseline_pairs.csv")
    by_pair = {(r[0], r[1]): int(r[2]) for r in baseline_rows}
    assert by_pair[("s1", "s2")] == 1  # AS 7 from the initial state


def test_detect_cross_references_known_events(tmp_path):
    relays = tmp_path / "relays.csv"
    relays.write_text(
        "address,is_guard,is_exit,bandwidth,nickname\n198.245.63.228,1,0,5.0,montreal\n"
    )
    updates = tmp_path / "updates.csv"
    updates.write_text(
        "timestamp,session,kind,prefix,path\n"
        '0,s1,A,198.245.63.0/24,"3356 16276"\n'
    )
    events = tmp_path / "events.csv"
    events.write_text("prefix,t_start,t_end,label\n198.245.63.0/24,100,200,btc\n")
    out = tmp_path / "detect-events"
    code = run(
        "--output-dir", out,
        "detect",
        "--updates", updates,
        "--relays", relays,
        "--events", events,
        "--window-start", 0, "--window-end", 86400,
    )
    assert code == 0
    _, header, rows = read_artifact_csv(out / "event_impacts.csv")
    assert header == ["label", "prefixes", "relays", "guards", "exits"]
    assert rows == [["btc", "1", "1", "1", "0"]]


def test_churn_rejects_malformed_updates(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,session,kind,prefix,path\nnot-a-number,s1,A,10.0.0.0/8,\"1 2\"\n")
    relays = tmp_path / "relays.csv"
    relays.write_text("address,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1,0,5.0,g\n")
    assert run("--output-dir", tmp_path / "o", "churn", "--updates", bad, "--relays", relays) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_churn_rejects_malformed_initial_state(tmp_path, capsys):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    initial = tmp_path / "initial.csv"
    initial.write_text(
        'timestamp,session,kind,prefix,path\n0,s1,A,198.245.63.0/24,"3356 16276"\n'
        'zero,s2,A,198.245.63.0/24,"174 16276"\n'
    )
    code = run(
        "--output-dir", tmp_path / "o",
        "churn",
        "--updates", tmp_path / "updates.csv",
        "--relays", tmp_path / "relays.csv",
        "--initial", initial,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "initial.csv: line 3: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["detect", "churn"])
@pytest.mark.parametrize("source", ["updates", "initial"])
@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_non_finite_update_timestamp_exits_2(tmp_path, capsys, command, source, stamp):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    for name in ("updates", "initial"):
        (tmp_path / f"{name}.csv").write_text(_UPDATE_CSV)
    with open(tmp_path / f"{source}.csv", "a") as handle:
        handle.write(f'{stamp},s2,A,198.245.63.0/24,"174 16276"\n6,s1,W,198.245.63.0/24,\n')
    code = run(
        "--output-dir", tmp_path / "o",
        command,
        "--updates", tmp_path / "updates.csv",
        "--relays", tmp_path / "relays.csv",
        "--initial", tmp_path / "initial.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{source}.csv: line 3: timestamp must be finite, not '{stamp}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_paths_subcommand(tmp_path):
    mapping = tmp_path / "map.csv"
    mapping.write_text(
        "prefix,asn\n203.0.0.0/16,100\n203.1.0.0/16,200\n203.2.0.0/16,300\n203.3.0.0/16,400\n"
    )
    records = []
    for day in ("2015-01-01", "2015-01-02"):
        records += [
            {"probe": "c0", "target": "g0", "role": "P1", "day": day, "hops": ["203.0.0.1", "203.1.0.1"]},
            {"probe": "g0", "target": "c0", "role": "P2", "day": day, "hops": ["203.1.0.2"]},
            {"probe": "e0", "target": "d0", "role": "P3", "day": day, "hops": ["203.2.0.1", "203.1.0.3"] if day > "2015-01-01" else ["203.2.0.1"]},
            {"probe": "d0", "target": "e0", "role": "P4", "day": day, "hops": ["203.3.0.1"]},
        ]
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    out = tmp_path / "paths"
    assert run("--output-dir", out, "paths", "--traceroutes", traces, "--mapping", mapping) == 0
    _, header, rows = read_artifact_csv(out / "vulnerability_timeseries.csv")
    assert header[0] == "day" and len(rows) == 2
    # day 2 introduces AS 200 on P3, making the quad asymmetric-vulnerable
    assert float(rows[0][2]) == 0.0
    assert float(rows[1][2]) == 100.0

    assert run("--output-dir", out, "paths", "--traceroutes", traces, "--mapping", tmp_path / "nope.csv") == 2


def test_concentrate_and_prefixlen(tmp_path):
    relays = tmp_path / "relays.csv"
    relays.write_text(
        "address,is_guard,is_exit,bandwidth,nickname\n"
        "20.0.0.1,1,0,10.0,a\n20.0.0.2,0,1,10.0,b\n20.1.0.1,1,1,5.0,c\n"
    )
    origins = tmp_path / "origins.csv"
    origins.write_text("prefix,asn\n20.0.0.0/23,64500\n20.1.0.0/24,64501\n")
    out = tmp_path / "conc"
    assert run("--output-dir", out, "concentrate", "--relays", relays, "--origins", origins) == 0
    _, _, rows = read_artifact_csv(out / "concentration.csv")
    assert rows[0][0] == "64500"

    out2 = tmp_path / "plen"
    assert run("--output-dir", out2, "prefixlen", "--relays", relays, "--origins", origins) == 0
    meta, _, rows = read_artifact_csv(out2 / "prefix_lengths.csv")
    assert float(meta["percent_hijackable"]) == 50.0


def test_rerun_artifacts_byte_identical(traffic_dataset, tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = run(
            "--output-dir", out,
            "correlate",
            "--manifest", traffic_dataset / "manifest.csv",
            "--truth", traffic_dataset / "truth.json",
            "--window", 40,
        )
        assert code == 0
        outs.append(out)
    for artifact in ("correlation_matrix.csv", "matches.jsonl", "accuracy_report.json"):
        assert artifacts_equal(outs[0] / artifact, outs[1] / artifact)


def _record(ts, direction="to_relay", **fields):
    record = {"ack": 0, "dir": direction, "len": 10, "seq": int(ts * 100), "ts": ts}
    record.update(fields)
    return json.dumps(record, sort_keys=True)


def _trace_manifest(tmp_path, client_lines):
    (tmp_path / "client.jsonl").write_text("\n".join(client_lines) + "\n")
    (tmp_path / "server.jsonl").write_text(
        "\n".join(_record(t, "from_server") for t in (1.0, 2.0, 3.0)) + "\n"
    )
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file,vantage_id,role\nclient.jsonl,c0,client\nserver.jsonl,s0,server\n"
    )
    return manifest


@pytest.mark.parametrize(
    "bad_line",
    [
        _record(0.5),  # below the 2.0 before it
        _record(3.0, "sideways"),
        _record(3.0, flags=["PSH"]),
        json.dumps({"ack": 0, "dir": "to_relay", "len": 10, "ts": 3.0}),  # no seq
        "not json {",
        # valid JSON, but not what the writer writes
        json.dumps({"ts": 3.0, "ack": 0, "dir": "to_relay", "len": 10, "seq": 300}),
        _record(3.0).replace('"len": ', '"len":  '),
        _record(3.0, flags=[]),
        _record(3.0, flags=["SYN", "FIN"]),
        _record(3.0, seq=7.0),
        _record(3.0) + "\r",
    ],
    ids=[
        "decreasing-ts", "unknown-dir", "unknown-flag", "missing-key", "not-json",
        "key-order", "doubled-space", "empty-flags", "unsorted-flags", "float-seq", "crlf",
    ],
)
def test_correlate_bad_trace_line_exits_2(tmp_path, capsys, bad_line):
    manifest = _trace_manifest(tmp_path, [_record(1.0), "", _record(2.0), bad_line])
    assert run("--output-dir", tmp_path / "o", "correlate", "--manifest", manifest) == 2
    err = capsys.readouterr().err
    assert "client.jsonl:4: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "meta",
    ['{"_meta": ' + "[" * 100_000 + "]" * 100_000 + "}", '{"_meta": {"seed": 0},}'],
    ids=["nested-too-deep", "not-json"],
)
def test_correlate_bad_trace_metadata_line_exits_2(tmp_path, capsys, meta):
    manifest = _trace_manifest(tmp_path, [meta, _record(1.0), _record(2.0)])
    assert run("--output-dir", tmp_path / "o", "correlate", "--manifest", manifest) == 2
    err = capsys.readouterr().err
    assert "client.jsonl:1: not JSON" in err
    assert "Traceback" not in err


def test_correlate_empty_trace_exits_2(tmp_path, capsys):
    manifest = _trace_manifest(tmp_path, [])
    assert run("--output-dir", tmp_path / "o", "correlate", "--manifest", manifest) == 2
    err = capsys.readouterr().err
    assert "cannot correlate: trace c0 is empty" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_relay_octet_out_of_range_exits_2(tmp_path, capsys):
    relays = tmp_path / "relays.csv"
    relays.write_text(
        "address,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1,0,5.0,g\n10.0.0.300,1,0,5.0,h\n"
    )
    origins = tmp_path / "origins.csv"
    origins.write_text("prefix,asn\n10.0.0.0/24,64500\n")
    code = run("--output-dir", tmp_path / "o", "concentrate", "--relays", relays, "--origins", origins)
    assert code == 2
    err = capsys.readouterr().err
    assert "relays.csv:3: " in err
    assert "Traceback" not in err


def test_mapping_header_after_a_comment_line_is_the_header(tmp_path, capsys):
    """A # line may come before the header, in the mapping as in the relay list."""
    relays = tmp_path / "relays.csv"
    relays.write_text("# relays\naddress,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1,0,5.0,g\n")
    origins = tmp_path / "origins.csv"
    origins.write_text("# origins\nprefix,asn\n10.0.0.0/24,64500\n")
    code = run("--output-dir", tmp_path / "o", "concentrate", "--relays", relays, "--origins", origins)
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "spelling",
    ["+64500", "64_500", "٦٤٥٠٠", "-7", "4294967296"],
    ids=["plus-sign", "underscore", "arabic-indic-digits", "negative", "past-32-bits"],
)
@pytest.mark.parametrize("command", ["concentrate", "prefixlen"])
def test_origin_as_number_not_ascii_digits_in_32_bits_exits_2(tmp_path, capsys, command, spelling):
    relays = tmp_path / "relays.csv"
    relays.write_text("address,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1,0,5.0,g\n")
    origins = tmp_path / "origins.csv"
    origins.write_text(f"prefix,asn\n10.0.0.0/24,64500\n10.0.1.0/24,{spelling}\n")
    code = run("--output-dir", tmp_path / "o", command, "--relays", relays, "--origins", origins)
    assert code == 2
    err = capsys.readouterr().err
    assert f"origins.csv:3: bad prefix row: not an AS number in 0..4294967295: {spelling!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_paths_without_complete_quad_exits_2(tmp_path, capsys):
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(
        json.dumps({"probe": "c0", "target": "g0", "role": "P1", "day": "2015-01-01", "hops": ["203.0.0.1"]})
        + "\n"
    )
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "traceroutes.jsonl" in err
    assert "Traceback" not in err


_HOP_RECORD = {"probe": "c0", "target": "g0", "role": "P1", "day": "2015-01-01", "hops": ["203.0.0.1"]}


@pytest.mark.parametrize(
    "bad_line",
    [
        json.dumps({k: v for k, v in _HOP_RECORD.items() if k != "hops"}),
        "not json {",
        json.dumps({**_HOP_RECORD, "role": "P5"}),
        json.dumps({**_HOP_RECORD, "hops": ["203.0.0.300"]}),
        json.dumps({**_HOP_RECORD, "hops": []}),
    ],
    ids=["no-hops", "not-json", "unknown-role", "octet-300", "empty-hops"],
)
def test_paths_bad_traceroute_line_exits_2(tmp_path, capsys, bad_line):
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(json.dumps(_HOP_RECORD) + "\n" + bad_line + "\n")
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "traceroutes.jsonl:2: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("day", 1), ("probe", None), ("target", 7.5)])
@pytest.mark.parametrize("sort_keys", [True, False], ids=["fast-shape", "other-order"])
def test_paths_day_probe_and_target_must_be_strings(tmp_path, capsys, field, value, sort_keys):
    """A day of 1 would otherwise be the day "1", ordered as text among
    "10" and "2", and a null probe the probe "None"."""
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    quad = [
        {"probe": "c0", "target": "g0", "role": "P1", "day": "d1", "hops": ["203.0.0.1"]},
        {"probe": "g0", "target": "c0", "role": "P2", "day": "d1", "hops": ["203.0.0.2"]},
        {"probe": "e0", "target": "d0", "role": "P3", "day": "d1", "hops": ["203.0.0.3"]},
        {"probe": "d0", "target": "e0", "role": "P4", "day": "d1", "hops": ["203.0.0.4"]},
    ]
    quad[2][field] = value
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text("".join(json.dumps(r, sort_keys=sort_keys) + "\n" for r in quad))
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert (f"traceroutes.jsonl:3: bad traceroute record: TypeError('{field} must be a string, "
            f"not {type(value).__name__}')") in err
    assert not (tmp_path / "o").exists()


def test_paths_day_utf8_cannot_encode_exits_2(tmp_path, capsys):
    """A lone surrogate escape is a JSON string, but the series cannot write it."""
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(json.dumps(_HOP_RECORD) + "\n" + json.dumps({**_HOP_RECORD, "day": "\ud800"}) + "\n")
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "traceroutes.jsonl:2: bad traceroute record: UnicodeEncodeError(" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "hops",
    ["*", {"203.0.0.1": 1}, ["203.0.0.1", 7], ["203.0.0.1", None],
     ["+203.0.0.1"], ["2_03.0.0.1"], ["\u0662\u0660\u0663.0.0.1"]],
    ids=["string", "object", "number-hop", "null-hop", "signed-octet", "underscore-octet",
         "non-ascii-digits"],
)
def test_paths_hops_not_a_list_of_addresses_exits_2(tmp_path, capsys, hops):
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(json.dumps(_HOP_RECORD) + "\n" + json.dumps({**_HOP_RECORD, "hops": hops}) + "\n")
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "traceroutes.jsonl:2: " in err
    assert "Traceback" not in err


def test_paths_line_nested_too_deep_for_json_exits_2(tmp_path, capsys):
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(json.dumps(_HOP_RECORD) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "traceroutes.jsonl:2: " in err
    assert "Traceback" not in err


def test_paths_bad_hop_is_reported_before_a_later_bad_line(tmp_path, capsys):
    mapping = tmp_path / "map.csv"
    mapping.write_text("prefix,asn\n203.0.0.0/16,100\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(
        json.dumps(_HOP_RECORD) + "\n"
        + json.dumps({**_HOP_RECORD, "hops": ["203.0.0.300"]}) + "\n"
        + "not json {\n"
    )
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "traceroutes.jsonl:2: " in err and ":3: " not in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad_row", ["10.0.0.0/33,64500", "10.0.0.0/8,AS64500"], ids=["length-33", "asn-not-integer"]
)
def test_paths_bad_prefix_map_row_exits_2(tmp_path, capsys, bad_row):
    mapping = tmp_path / "map.csv"
    mapping.write_text(f"prefix,asn\n{bad_row}\n")
    traces = tmp_path / "traceroutes.jsonl"
    traces.write_text(json.dumps(_HOP_RECORD) + "\n")
    code = run("--output-dir", tmp_path / "o", "paths", "--traceroutes", traces, "--mapping", mapping)
    assert code == 2
    err = capsys.readouterr().err
    assert "map.csv:2: " in err
    assert "Traceback" not in err


_RELAY_CSV = "address,is_guard,is_exit,bandwidth,nickname\n198.245.63.228,1,0,5.0,montreal\n"
_UPDATE_CSV = 'timestamp,session,kind,prefix,path\n0,s1,A,198.245.63.0/24,"3356 16276"\n'


@pytest.mark.parametrize(
    "bad_row",
    ["198.245.63.0/24,soon,200,btc", "198.245.63.0/24,100,later,btc", "198.245.63.0/33,100,200,btc"],
    ids=["t-start-not-numeric", "t-end-not-numeric", "bad-prefix"],
)
def test_detect_bad_event_row_exits_2(tmp_path, capsys, bad_row):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    events = tmp_path / "events.csv"
    events.write_text(f"prefix,t_start,t_end,label\n198.245.63.0/24,100,200,ok\n{bad_row}\n")
    code = run(
        "--output-dir", tmp_path / "o",
        "detect",
        "--updates", tmp_path / "updates.csv",
        "--relays", tmp_path / "relays.csv",
        "--events", events,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "events.csv:3: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "sessions_text, where",
    [
        ("# written by hand\nsession_id,local_as\ns1,64500\ns2,AS64501\n", "sessions.csv:4: "),
        ("# written by hand\nsession_id\ns1\n", "sessions.csv:2: "),
        ("session_id,local_as\ns1,-64500\n", "sessions.csv:2: bad session row: not an AS number"),
    ],
    ids=["local-as-not-integer", "missing-column", "negative-local-as"],
)
def test_churn_bad_sessions_row_exits_2(tmp_path, capsys, sessions_text, where):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    sessions = tmp_path / "sessions.csv"
    sessions.write_text(sessions_text)
    code = run(
        "--output-dir", tmp_path / "o",
        "churn",
        "--updates", tmp_path / "updates.csv",
        "--relays", tmp_path / "relays.csv",
        "--sessions", sessions,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


_TRAFFIC = TrafficScenario(
    seed=3, n_pairs=3, duration=20.0, guard_groups=(Bottleneck((0, 1), 5e3),)
).to_dict()
_TIMING = {"announce_at": 2.0, "propagation": 3.0, "withdraw_at": 15.0, "reconvergence": 1.0}
_VALID_SCENARIOS = {
    "traffic": _TRAFFIC,
    "routing": random_routing_scenario(2, n_sessions=2, n_relays=3, n_ases=3, n_churn=4).to_dict(),
    "interception": {**_TRAFFIC, "kind": "interception", "timing": _TIMING},
}


def _leaves(value, path=()):
    """(path, value) of every number and string in a JSON document but its kind."""
    if isinstance(value, dict):
        for key, item in value.items():
            if path + (key,) != ("kind",):
                yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    elif value is not None:
        yield path, value


def _replaced(document, path, value):
    """A copy of a JSON document with the value at path replaced."""
    document = copy.deepcopy(document)
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return document


def _json_path(path):
    """The JSON path that names a field in messages, e.g. relays[0][1] or timing.propagation."""
    text = ""
    for step in path:
        text += f"[{step}]" if isinstance(step, int) else f".{step}" if text else step
    return text


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(kind=st.sampled_from(sorted(_VALID_SCENARIOS)), data=st.data())
def test_scenario_field_of_the_wrong_type_or_range_exits_2(tmp_path, capsys, kind, data):
    path, value = data.draw(st.sampled_from(list(_leaves(_VALID_SCENARIOS[kind]))))
    wrong = [7 if isinstance(value, str) else "7", {}, [], float("nan"), float("inf")]
    # every traffic and timing number has a range that excludes -1; a flow is checked across fields
    if kind != "routing" and isinstance(value, (int, float)) and "guard_groups" not in path:
        wrong.append(type(value)(-1))
    document = _replaced(_VALID_SCENARIOS[kind], path, data.draw(st.sampled_from(wrong)))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    assert run("--output-dir", tmp_path / "o", "simulate", "--scenario", scenario) == 2
    err = capsys.readouterr().err
    assert f"scenario.json: invalid scenario: {_json_path(path)} must be " in err, err
    assert "Traceback" not in err


def _traffic_text(**fields):
    return json.dumps({"kind": "traffic", "n_pairs": 2, "duration": 5.0, **fields})


def _timing_text(**timing):
    return json.dumps({"kind": "interception", "n_pairs": 2, "duration": 100.0, "timing": timing})


def _routing_text(path, value):
    return json.dumps(_replaced(random_routing_scenario(1, 2, 3, 3).to_dict(), path, value))


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"kind": "traffic",\n "n_pairs": 2,,}', "scenario.json:2: "),
        (json.dumps({**TrafficScenario().to_dict(), "n_pairs": 0}), "scenario.json: "),
        (json.dumps({k: v for k, v in TrafficScenario().to_dict().items() if k != "kind"}),
         "scenario.json: invalid scenario: 'kind'"),
        ('{"kind": "traffic", "n_pair": 2, "duration": 5}',
         "scenario.json: invalid scenario: unknown key 'n_pair'"),
        (json.dumps({**random_routing_scenario(1, 2, 3, 3).to_dict(), "evnts": []}),
         "scenario.json: invalid scenario: unknown key 'evnts'"),
        (json.dumps({**TrafficScenario().to_dict(), "timing": {}}),
         "scenario.json: invalid scenario: unknown key 'timing'"),
        (json.dumps({**TrafficScenario().to_dict(), "kind": "interception",
                     "timing": {"announce": 5.0}}),
         "scenario.json: invalid scenario: unknown key 'timing.announce'"),
        ('{"kind": "interception", "n_pairs": 2, "duration": 50, "timing": {}}',
         "scenario.json: invalid scenario: interception must settle before the withdrawal"
         " and the end of the run"),
        ('{"kind": "traffic", "seed": -3, "n_pairs": 2, "duration": 5}',
         "scenario.json: invalid scenario: seed must be finite and >= 0, not -3"),
        ('{"kind": "interception", "seed": -1, "n_pairs": 2, "duration": 100}',
         "scenario.json: invalid scenario: seed must be finite and >= 0, not -1"),
        ('{"kind": "traffic", "seed": 1.5, "n_pairs": 2, "duration": 5}',
         "scenario.json: invalid scenario: seed must be an integer, not 1.5"),
        ('{"kind": "traffic", "n_pairs": 2.5, "duration": 5}',
         "scenario.json: invalid scenario: n_pairs must be an integer, not 2.5"),
        ('{"kind": "interception", "n_pairs": true, "duration": 100}',
         "scenario.json: invalid scenario: n_pairs must be an integer, not True"),
        ('{"kind": "traffic", "n_pairs": 2, "duration": 5, "guard_groups": [[[0.5], 10.0]]}',
         "scenario.json: invalid scenario: guard_groups[0][0][0] must be an integer, not 0.5"),
        (_traffic_text(duration=float("nan")), "duration must be finite and > 0, not nan"),
        (_traffic_text(duration=float("inf")), "duration must be finite and > 0, not inf"),
        (_traffic_text(base_rate=float("nan")), "base_rate must be finite and > 0, not nan"),
        (_traffic_text(tunnel_jitter=-0.1), "tunnel_jitter must be finite and >= 0, not -0.1"),
        (_traffic_text(duration=True), "duration must be a number, not True"),
        (_traffic_text(n_pairs=-10 ** 400), "n_pairs must be finite and >= 1, not -1000"),
        (_traffic_text(duration=10 ** 400), "duration must be finite, not 1000"),
        (_traffic_text(duration="10"), "duration must be a number, not '10'"),
        # past the bound, the unchecked code asks numpy for arrays it refuses at once
        (_traffic_text(duration=1e300),
         "invalid scenario: duration must be at most 500000 s for 2 pairs"),
        (_traffic_text(n_pairs=10 ** 15),
         "invalid scenario: duration must be at most 1e-09 s for 1000000000000000 pairs"),
        ('{"kind": "interception", "n_pairs": 2, "duration": 1e300}',
         "invalid scenario: duration must be at most 500000 s for 2 pairs"),
        # rates whose packets the unchecked code fails on at once: an infinite
        # byte count, and a chunk array past numpy's size limit
        (_traffic_text(base_rate=1e308),
         "invalid scenario: n_pairs x duration x base_rate x rate_spread x jitter_high / mss "
         "must be at most 1e+07 data packets, not inf"),
        (_traffic_text(jitter_high=1e300),
         "must be at most 1e+07 data packets, not 5.47945e+302"),
        (_traffic_text(guard_groups=[[[0, 1], "5e3"]]),
         "guard_groups[0][1] must be a number, not '5e3'"),
        (_traffic_text(guard_groups=[[0, 1]]), "guard_groups[0][0] must be a list, not 0"),
        (_routing_text(["seed"], 1.5), "seed must be an integer, not 1.5"),
        (_routing_text(["seed"], True), "seed must be an integer, not True"),
        (_routing_text(["relays", 0, 1], "no"), "relays[0][1] must be 0 or 1, not 'no'"),
        (_routing_text(["relays", 2, 2], "0"), "relays[2][2] must be 0 or 1, not '0'"),
        (_routing_text(["sessions", 1, 1], 64500.5),
         "sessions[1][1] must be an integer, not 64500.5"),
        (_routing_text(["window"], ["0", "60"]), "window[0] must be a number, not '0'"),
        (_routing_text(["window"], [0, float("nan")]), "window[1] must be finite, not nan"),
        (_routing_text(["window"], [0, float("inf")]), "window[1] must be finite, not inf"),
        (_routing_text(["base_routes", 1, 1], "10.0.0.0/+8"),
         "base_routes[1][1] must be an IPv4 prefix, not '10.0.0.0/+8'"),
        (_routing_text(["base_routes", 0, 2], []), "an AS path must not be empty"),
        (_routing_text(["base_routes", 1, 2], [102, -7]),
         "base_routes[1][2] must hold AS numbers in 0..4294967295, not [102, -7]"),
        (_routing_text(["churn", 0, 3], [101, 2 ** 32]),
         "churn[0][3] must hold AS numbers in 0..4294967295, not [101, 4294967296]"),
        (_routing_text(["events"], [["leak", "10.0.0.0/9", [7], 5.0, 1.0]]),
         "events[0][0] must be 'hijack' or 'interception', not 'leak'"),
        (_routing_text(["churn", 0], [1.0, "s0"]), "churn[0] must be a list of 4, not [1.0, 's0']"),
        (_routing_text(["events"], [["hijack", "10.128.0.0/9", [7], 5.0, 10.0],
                                    ["hijack", "10.128.0.0/09", [8], 10.0, 10.0]]),
         "invalid scenario: overlapping events on one prefix"),
        (_timing_text(announce_at="1"), "timing.announce_at must be a number, not '1'"),
        (_timing_text(announce_at=True), "timing.announce_at must be a number, not True"),
        (_timing_text(propagation=-5.0), "timing.propagation must be finite and >= 0, not -5.0"),
        (_timing_text(reconvergence=float("nan")),
         "timing.reconvergence must be finite and >= 0, not nan"),
        (_timing_text(withdraw_at=None), "timing.withdraw_at must be a number, not None"),
        ('{"kind": "interception", "n_pairs": 2, "duration": 100, "timing": []}',
         "timing must be a JSON object, not []"),
        ('[1, 2]', "invalid scenario: a scenario must be a JSON object"),
        (json.dumps({"kind": "routing", "seed": 0}), "invalid scenario: missing key 'window'"),
    ],
    ids=["not-json", "invalid-scenario", "no-kind", "traffic-typo", "routing-typo",
         "traffic-timing", "timing-typo", "settles-after-run", "negative-seed",
         "interception-negative-seed", "fractional-seed", "fractional-n-pairs",
         "boolean-n-pairs", "fractional-flow", "nan-duration", "infinite-duration",
         "nan-base-rate", "negative-tunnel-jitter", "boolean-duration",
         "n-pairs-past-float-range", "duration-past-float-range", "text-duration",
         "traffic-past-tick-bound", "pairs-past-tick-bound", "interception-past-tick-bound",
         "base-rate-past-packet-bound", "jitter-past-packet-bound",
         "text-capacity", "flat-bottleneck",
         "fractional-routing-seed", "boolean-routing-seed",
         "text-guard-flag", "text-zero-exit-flag", "fractional-asn", "text-window",
         "nan-window", "infinite-window", "signed-prefix-length", "empty-path",
         "negative-route-asn", "churn-asn-past-32-bits",
         "unknown-event-kind", "short-churn-event", "overlap-in-two-spellings", "text-announce-at", "boolean-announce-at",
         "negative-propagation", "nan-reconvergence", "null-withdraw-at", "timing-list",
         "document-list", "routing-missing-window"],
)
def test_simulate_bad_scenario_exits_2(tmp_path, capsys, text, where):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    assert run("--output-dir", tmp_path / "o", "simulate", "--scenario", scenario) == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["detect", "churn"])
@pytest.mark.parametrize(
    "bounds, shown",
    [
        (["--window-start", 10, "--window-end", 5], "10..5"),
        (["--window-start", 1], "1..1"),
        (["--window-start", "nan"], "nan..1"),
        (["--window-end", "nan"], "0..nan"),
        (["--window-end", "inf"], "0..inf"),
    ],
    ids=["reversed", "start-at-default-end", "nan-start", "nan-end", "infinite-end"],
)
def test_empty_or_non_finite_window_exits_2(tmp_path, capsys, command, bounds, shown):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    code = run(
        "--output-dir", tmp_path / "o",
        command,
        "--updates", tmp_path / "updates.csv",
        "--relays", tmp_path / "relays.csv",
        *bounds,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: empty or non-finite window {shown}\n" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, argv, where",
    [
        (None, ["correlate", "--bin-width", 0], "bin_width must be finite and > 0, not 0.0"),
        ('{"bin_width": 0}', ["correlate"], "bin_width must be finite and > 0, not 0"),
        (None, ["correlate", "--window", -30], "window must be finite and > 0, not -30.0"),
        (None, ["correlate", "--threshold", "nan"], "threshold must be finite, not nan"),
        ('{"max_lag": -1}', ["correlate"], "max_lag must be finite and >= 0, not -1"),
        (None, ["--seed", -1, "correlate"], "seed must be finite and >= 0, not -1"),
        (None, ["churn", "--min-overlap", "nan"], "min_overlap must be finite and >= 0, not nan"),
        ('{"min_overlap": Infinity}', ["churn"], "min_overlap must be finite and >= 0, not inf"),
        ('{"quiet_gap": -1.0}', ["churn", "--filter-resets"],
         "quiet_gap must be finite and >= 0, not -1.0"),
        ('{"burst_window": NaN}', ["detect"], "burst_window must be finite and >= 0, not nan"),
        (None, ["detect", "--frequency-threshold", 2],
         "frequency_threshold must be finite and in (0, 1), not 2.0"),
        (None, ["detect", "--time-threshold", 0],
         "time_threshold must be finite and in (0, 1), not 0.0"),
        ('{"time_threshold": 1}', ["detect"], "time_threshold must be finite and in (0, 1), not 1"),
        ('{"max_lag": -1%s}' % ("0" * 400), ["correlate"],
         f"max_lag must be finite and >= 0, not {reprlib.repr(-10 ** 400)}"),
    ],
    ids=["bin-width-flag", "bin-width-config", "window-flag", "threshold-nan", "max-lag-config",
         "seed-flag", "min-overlap-nan", "min-overlap-config-inf", "quiet-gap-config",
         "burst-window-config-nan", "frequency-threshold-flag", "time-threshold-flag",
         "time-threshold-config", "max-lag-config-past-float-range"],
)
def test_numeric_parameter_out_of_range_exits_2(
    tmp_path, capsys, correlate_inputs, config, argv, where
):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    inputs = {
        "correlate": ["--manifest", correlate_inputs / "manifest.csv"],
        "churn": ["--updates", tmp_path / "updates.csv", "--relays", tmp_path / "relays.csv"],
    }
    inputs["detect"] = inputs["churn"]
    options = []
    if config is not None:
        (tmp_path / "c.json").write_text(config)
        options = ["--config", tmp_path / "c.json"]
    command = next(arg for arg in argv if arg in inputs)
    code = run("--output-dir", tmp_path / "o", *options, *argv, *inputs[command])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {where}\n", err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, where",
    [("nope", "c.json:1: "), ('{"min_overlap": 5,\n ]', "c.json:2: "), ("7", "c.json: ")],
    ids=["not-json", "bad-second-line", "not-an-object"],
)
def test_bad_config_file_exits_2(tmp_path, capsys, text, where):
    (tmp_path / "relays.csv").write_text(_RELAY_CSV)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    config = tmp_path / "c.json"
    config.write_text(text)
    code = run(
        "--output-dir", tmp_path / "o",
        "--config", config,
        "detect",
        "--updates", tmp_path / "updates.csv",
        "--relays", tmp_path / "relays.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert where in err
    assert "Traceback" not in err


# --- input faults the core reading boundary turns into exit 2 --------------------


_HOP_LINE = json.dumps(_HOP_RECORD) + "\n"


@pytest.mark.parametrize(
    "name, content, where",
    [
        ("truth.json", "nope", "truth.json:1: not JSON"),
        ("truth.json", "[1, 2]", "truth.json: truth must map client ids to server id strings"),
        ("relays.csv", _RELAY_CSV.encode().replace(b"montreal", b"mon\xfftreal"),
         "relays.csv: relay list is not UTF-8 text"),
        ("updates.csv", _UPDATE_CSV.encode().replace(b"3356", b"33\xff56"),
         "updates.csv: update file is not UTF-8 text"),
        ("traceroutes.jsonl", _HOP_LINE.encode().replace(b"c0", b"c\xff0"),
         "traceroutes.jsonl: traceroute file is not UTF-8 text"),
        ("updates.csv", None, "update file is a directory: "),
        ("c.json", '{"threshold": "high"}', "c.json: config key 'threshold' must be a number"),
    ],
    ids=["truth-not-json", "truth-list", "relays-not-utf8", "updates-not-utf8",
         "traceroutes-not-utf8", "updates-directory", "config-text-threshold"],
)
def test_unusable_input_file_exits_2_naming_it(
    tmp_path, capsys, correlate_inputs, name, content, where
):
    root = tmp_path / "in"
    shutil.copytree(correlate_inputs, root)
    (root / "relays.csv").write_text(_RELAY_CSV)
    (root / "updates.csv").write_text(_UPDATE_CSV)
    (root / "map.csv").write_text("prefix,asn\n203.0.0.0/16,100\n")
    (root / "traceroutes.jsonl").write_text(_HOP_LINE)
    (root / name).unlink(missing_ok=True)
    _write_input(root / name, _DIRECTORY if content is None else content)
    correlate = ["correlate", "--manifest", root / "manifest.csv", "--truth", root / "truth.json"]
    argv = {
        "c.json": ["--config", root / "c.json", *correlate],
        "truth.json": correlate,
        "relays.csv": ["churn", "--updates", root / "updates.csv", "--relays", root / "relays.csv"],
        "updates.csv": ["churn", "--updates", root / "updates.csv", "--relays", root / "relays.csv"],
        "traceroutes.jsonl": [
            "paths", "--traceroutes", root / "traceroutes.jsonl", "--mapping", root / "map.csv"
        ],
    }[name]
    assert run("--output-dir", tmp_path / "o", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"threshold": true}', "c.json: config key 'threshold' must be a number, not True"),
        ('{"max_lag": 1.5}', "c.json: config key 'max_lag' must be an integer, not 1.5"),
        ('{"window": 1%s}' % ("0" * 400), "c.json: config key 'window' must be finite, not 1000"),
        ('{"seed": "7"}', "c.json: config key 'seed' must be an integer, not '7'"),
        ('{"min_overlapp": 5}', "c.json: unknown config key 'min_overlapp'"),
    ],
    ids=["bool-threshold", "fractional-max-lag", "window-past-float-range", "text-seed",
         "unknown-key"],
)
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, correlate_inputs, text, where):
    config = tmp_path / "c.json"
    config.write_text(text)
    code = run(
        "--output-dir", tmp_path / "o", "--config", config,
        "correlate", "--manifest", correlate_inputs / "manifest.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err, err


def test_config_key_of_another_subcommand_is_allowed(tmp_path, correlate_inputs):
    config = tmp_path / "c.json"
    config.write_text('{"min_overlap": 5}')
    code = run(
        "--output-dir", tmp_path / "o", "--config", config,
        "correlate", "--manifest", correlate_inputs / "manifest.csv",
    )
    assert code == 0


@pytest.mark.parametrize(
    "document, where",
    [
        ({"pairing": {"c0": 3}}, "truth.json: pairing must map client ids to server id strings"),
        ({"pairing": ["c0", "s0"]}, "truth.json: pairing must map"),
        ({"c0": None}, "truth.json: truth must map"),
    ],
    ids=["numeric-server-id", "pairing-list", "null-server-id"],
)
def test_truth_that_is_not_a_pairing_exits_2(tmp_path, capsys, correlate_inputs, document, where):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(document))
    code = run(
        "--output-dir", tmp_path / "o",
        "correlate", "--manifest", correlate_inputs / "manifest.csv", "--truth", truth,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err, err


# --- CLI contract under mutated churn inputs --------------------------------------


@pytest.fixture(scope="module")
def churn_inputs(tmp_path_factory):
    """Valid churn inputs: an initial state, the updates after it, relays,
    sessions and a config, from a small simulated routing scenario."""
    root = tmp_path_factory.mktemp("churn-inputs")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(
        random_routing_scenario(3, n_sessions=3, n_relays=5, n_ases=4, n_churn=8).to_dict()
    ))
    assert run("--output-dir", root / "sim", "simulate", "--scenario", scenario) == 0
    header, *lines = (root / "sim" / "updates.csv").read_text().splitlines(keepends=True)
    initial = [line for line in lines if line.startswith("0,")]
    later = [line for line in lines if not line.startswith("0,")]
    return {
        "initial": header + "".join(initial),
        "updates": header + "".join(later),
        "relays": (root / "sim" / "relays.csv").read_text(),
        "sessions": "session_id,local_as\ns0,64500\ns1,64501\ns2,64502\n",
        "config": json.dumps({"min_overlap": 5.0}),
    }


_DIRECTORY = object()  # _mutate's "directory": the input path names a directory
_INPUT_MUTATION_NAMES = [
    "truncate", "missing field", "octet 300", "empty", "not json", "not utf-8", "directory"
]
_INPUT_MUTATIONS = st.sampled_from(_INPUT_MUTATION_NAMES)


def _mutate(text, mutation, at):
    lines = text.splitlines(keepends=True)
    k = at % len(lines)
    if mutation == "not utf-8":
        return "".join(lines[:k]).encode() + b"\xff" + "".join(lines[k:]).encode()
    if mutation == "directory":
        return _DIRECTORY
    if mutation == "truncate":
        lines[k] = lines[k][: len(lines[k]) // 2] + "\n"
    elif mutation == "octet 300":
        lines[k] = re.sub(r"\b(\d+)\.(\d+)\.", r"300.\2.", lines[k], count=1)
    elif mutation == "reverse":
        lines = lines[:1] + lines[:0:-1]
    elif mutation == "empty":
        lines = []
    elif mutation == "not json":
        lines = ["nope{\n"]
    elif mutation == "missing field":
        try:
            record = json.loads(lines[k])
        except ValueError:  # a CSV row loses its last column
            lines[k] = lines[k].rstrip("\n").rpartition(",")[0] + "\n"
        else:
            record.pop(sorted(record)[at % len(record)], None)
            lines[k] = json.dumps(record, sort_keys=True) + "\n"
    return "".join(lines)


def _write_input(path, content):
    """Put _mutate's result at path: text, bytes or a directory."""
    if content is _DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def _whole_csv(path):
    """A CSV file written whole: newline-terminated, full-width rows."""
    text = path.read_text()
    if not text.endswith("\n"):
        return False
    header, *rows = [line for line in text.splitlines() if not line.startswith("# ")]
    return all(line.count(",") == header.count(",") for line in rows)


def _complete_artifact(path):
    """A CSV artifact written whole: metadata, header, full-width rows."""
    return "# written_at=" in path.read_text() and _whole_csv(path)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    target=st.sampled_from(["initial", "updates", "relays", "sessions", "config"]),
    mutation=st.sampled_from(
        ["truncate", "octet 300", "reverse", "empty", "not json", "not utf-8", "directory"]
    ),
    at=st.integers(0, 40),
)
def test_churn_mutated_inputs_keep_the_cli_contract(churn_inputs, target, mutation, at):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        files = dict(churn_inputs, **{target: _mutate(churn_inputs[target], mutation, at)})
        for name, content in files.items():
            _write_input(root / name, content)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            # an exception escaping main is the traceback the contract rules out
            code = run(
                "--output-dir", root / "out",
                "--config", root / "config",
                "churn",
                "--updates", root / "updates",
                "--initial", root / "initial",
                "--relays", root / "relays",
                "--sessions", root / "sessions",
                "--filter-resets",
            )
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") or ": line " in err.getvalue()
        written = sorted((root / "out").iterdir()) if (root / "out").exists() else []
        assert all(_complete_artifact(path) for path in written), [p.name for p in written]


@pytest.mark.parametrize(
    "relays_text, message",
    [
        ("nope{\n", "relay list header lacks address, bandwidth, is_exit, is_guard"),
        (
            "address,is_guard,is_exit,bandwidth,nickname\n10.0.0.5,1\n",
            "relays.csv:2: bad relay row: too few fields",
        ),
    ],
)
def test_churn_unreadable_relay_list_exits_2(tmp_path, capsys, relays_text, message):
    (tmp_path / "relays.csv").write_text(relays_text)
    (tmp_path / "updates.csv").write_text(_UPDATE_CSV)
    code = run(
        "--output-dir", tmp_path / "o",
        "churn", "--updates", tmp_path / "updates.csv", "--relays", tmp_path / "relays.csv",
    )
    assert code == 2
    assert message in capsys.readouterr().err


# --- CLI contract under mutated correlate inputs -----------------------------------


@pytest.fixture(scope="module")
def correlate_inputs(tmp_path_factory):
    """A valid small traffic set: manifest, truth and one trace per vantage."""
    root = tmp_path_factory.mktemp("correlate-inputs")
    scenario = root / "scenario.json"
    scenario.write_text(json.dumps(TrafficScenario(seed=3, n_pairs=3, duration=30.0).to_dict()))
    assert run("--output-dir", root / "sim", "simulate", "--scenario", scenario) == 0
    return root / "sim"


def _mutate_trace(text, mutation, at):
    if mutation in ("not utf-8", "directory"):
        return _mutate(text, mutation, at)
    lines = text.splitlines(keepends=True)
    k = at % len(lines)
    record = json.loads(lines[k])
    if mutation == "truncate":
        lines[k] = lines[k][: len(lines[k]) // 2] + "\n"
    elif mutation == "missing key":
        del record[sorted(record)[at % len(record)]]
    elif mutation == "unknown dir":
        record["dir"] = "sideways"
    elif mutation == "unknown flag":
        record["flags"] = ["PSH"]
    elif mutation == "reverse":
        lines = lines[::-1]
    elif mutation == "empty":
        lines = []
    elif mutation == "not json":
        lines[k] = "nope{\n"
    elif mutation == "key order":
        lines[k] = json.dumps(dict(reversed(record.items()))) + "\n"
    elif mutation == "doubled space":
        lines[k] = lines[k].replace(": ", ":  ", 1)
    elif mutation == "empty flags":
        record["flags"] = []
    elif mutation == "unsorted flags":
        record["flags"] = ["SYN", "FIN"]
    elif mutation == "float seq":
        record["seq"] = float(record["seq"])
    elif mutation == "crlf":
        lines[k] = lines[k].replace("\n", "\r\n")
    if mutation in ("missing key", "unknown dir", "unknown flag", "empty flags", "unsorted flags",
                    "float seq"):
        lines[k] = json.dumps(record, sort_keys=True) + "\n"
    return "".join(lines)


# each of these makes line at % len(lines) + 1 unreadable
_NOT_WRITTEN = ["key order", "doubled space", "empty flags", "unsorted flags", "float seq", "crlf"]


def _complete_json_artifact(path):
    """A JSON or JSONL artifact written whole: every document parses, metadata first."""
    text = path.read_text()
    if not text.endswith("\n"):
        return False
    try:
        documents = [json.loads(text)] if path.suffix == ".json" else [
            json.loads(line) for line in text.splitlines()
        ]
    except ValueError:
        return False
    return "_meta" in documents[0]


def _complete_output(path):
    """A CSV, JSON or JSONL artifact written whole."""
    return _complete_artifact(path) if path.suffix == ".csv" else _complete_json_artifact(path)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    # one of the six traces (0..5) or truth.json (6), and how it is mutated
    target_mutation=st.one_of(
        st.tuples(st.integers(0, 5), st.sampled_from([
            "truncate", "missing key", "unknown dir", "unknown flag", "reverse", "empty",
            "not json", "missing file", "not utf-8", "directory", *_NOT_WRITTEN,
        ])),
        st.tuples(st.just(6), _INPUT_MUTATIONS),
    ),
    at=st.integers(0, 400),
)
def test_correlate_mutated_inputs_keep_the_cli_contract(correlate_inputs, target_mutation, at):
    which, mutation = target_mutation
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch) / "in"
        shutil.copytree(correlate_inputs, root)
        target = (sorted((root / "traces").iterdir()) + [root / "truth.json"])[which]
        text = target.read_text()
        target.unlink()
        if mutation != "missing file":
            mutate = _mutate if target.suffix == ".json" else _mutate_trace
            _write_input(target, mutate(text, mutation, at))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            # an exception escaping main is the traceback the contract rules out
            code = run(
                "--output-dir", Path(scratch) / "out",
                "correlate",
                "--manifest", root / "manifest.csv",
                "--truth", root / "truth.json",
                "--window", 30,
            )
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
        if mutation in _NOT_WRITTEN:
            line = at % len(text.splitlines()) + 1
            assert code == 2 and f"{target.name}:{line}: " in err.getvalue(), err.getvalue()
        out = Path(scratch) / "out"
        written = sorted(out.iterdir()) if out.exists() else []
        assert all(_complete_output(path) for path in written), [p.name for p in written]


# --- CLI contract under mutated paths and concentrate inputs ------------------------


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_PATHS_FLAGS = {"--traceroutes": "traceroutes", "--mapping": "mapping"}


def _workloads():
    """The benchmark's perfbench/workloads.py, loaded once."""
    if "perfbench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up here
        spec.loader.exec_module(workloads)
    return sys.modules["perfbench_workloads"]


@pytest.fixture(scope="module")
def paths_inputs(tmp_path_factory):
    """The benchmark's tiny traceroute and prefix-map inputs at seed 0:
    private first hops, timeouts and several hops per AS."""
    root = tmp_path_factory.mktemp("paths-inputs")
    _workloads().make_inputs("paths", 0, root, "tiny")
    return {"traceroutes": (root / "traceroutes.jsonl").read_text(),
            "mapping": (root / "prefix2as.csv").read_text()}


@pytest.fixture(scope="module")
def paths_series(paths_inputs, tmp_path_factory):
    """The series the unmutated paths inputs give."""
    root = tmp_path_factory.mktemp("paths-series")
    for name, text in paths_inputs.items():
        (root / name).write_text(text)
    argv = [arg for flag, name in _PATHS_FLAGS.items() for arg in (flag, root / name)]
    assert run("--output-dir", root / "out", "paths", *argv) == 0
    return _series({"vulnerability_timeseries.csv":
                    (root / "out" / "vulnerability_timeseries.csv").read_text()})


@pytest.fixture(scope="module")
def concentrate_inputs(churn_inputs):
    """The simulated relay list and an origin map over its /16s and /24s."""
    relays = churn_inputs["relays"]
    nets = sorted({
        tuple(line.split(",")[0].split(".")[:3]) for line in relays.splitlines()[1:]
    })
    origins = "prefix,asn\n" + "".join(
        f"{a}.{b}.0.0/16,{64600 + i}\n{a}.{b}.{c}.0/24,{64700 + i}\n"
        for i, (a, b, c) in enumerate(nets)
    )
    return {"relays": relays, "origins": origins}


def _check_contract(inputs, target, mutation, at, subcommand, flags, complete=_complete_artifact,
                    mutate=_mutate):
    """Run subcommand over the inputs with one of them mutated, each flag
    naming its input: exit 0 or 2, no traceback, no partial artifact (each
    file written passes complete). Returns the exit code and the text of
    each artifact by name."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for name, content in dict(inputs, **{target: mutate(inputs[target], mutation, at)}).items():
            _write_input(root / name, content)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            # an exception escaping main is the traceback the contract rules out
            code = run(
                "--output-dir", root / "out", subcommand,
                *(arg for flag, name in flags.items() for arg in (flag, root / name)),
            )
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            # malformed update lines are listed as "<file>: line <n>: ..." first
            *issues, last = err.getvalue().splitlines()
            assert last.startswith("error: "), err.getvalue()
            assert all(": line " in issue for issue in issues), err.getvalue()
        written = sorted((root / "out").iterdir()) if (root / "out").exists() else []
        assert all(complete(path) for path in written), [p.name for p in written]
        return code, {path.name: path.read_text() for path in written if path.is_file()}


# spellings of the same records: the byte-column reader and json.loads agree on them
_SAME_RECORDS = ["cr ends", "crlf ends", "reordered keys", "spaced"]
_TRACEROUTE_MUTATIONS = ["wrong type", "deep nesting", "escaped name", *_SAME_RECORDS]


def _mutate_traceroutes(text, mutation, at):
    if mutation not in _TRACEROUTE_MUTATIONS:
        return _mutate(text, mutation, at)
    if mutation in ("cr ends", "crlf ends"):
        return text.replace("\n", "\r" if mutation == "cr ends" else "\r\n")
    lines = text.splitlines(keepends=True)
    k = at % len(lines)
    record = json.loads(lines[k])
    if mutation == "wrong type":
        record[sorted(record)[at % len(record)]] = [1, None, True, 2.5, {}, [], ["d"]][at % 7]
    elif mutation == "escaped name":
        record["probe"] += "\u00e9\"\\"
    elif mutation == "deep nesting":
        record["day"] = "DEEP"
    if mutation == "reordered keys":
        lines[k] = json.dumps(dict(reversed(record.items()))) + "\n"
    elif mutation == "spaced":
        lines[k] = " " + json.dumps(record, sort_keys=True, separators=(",", ":")) + "\t\n"
    else:
        lines[k] = json.dumps(record, sort_keys=True).replace(
            '"DEEP"', "[" * 100_000 + "]" * 100_000
        ) + "\n"
    return "".join(lines)


def _series(artifacts):
    return [line for line in artifacts["vulnerability_timeseries.csv"].splitlines()
            if not line.startswith("# written_at=")]


@settings(
    max_examples=80, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(target_mutation=st.one_of(
    st.tuples(st.just("traceroutes"), st.sampled_from(_TRACEROUTE_MUTATIONS)),
    st.tuples(st.sampled_from(["traceroutes", "mapping"]), _INPUT_MUTATIONS),
), at=st.integers(0, 200))
def test_paths_mutated_inputs_keep_the_cli_contract(
    paths_inputs, paths_series, target_mutation, at
):
    """Byte and field mutations of the benchmark's tiny paths inputs: exit 0
    or 2, no traceback, the series written whole or not at all; spellings
    of the same records write the same series."""
    target, mutation = target_mutation
    code, written = _check_contract(paths_inputs, target, mutation, at, "paths", _PATHS_FLAGS,
                                    mutate=_mutate_traceroutes)
    assert (code == 0) == ("vulnerability_timeseries.csv" in written)
    if mutation in _SAME_RECORDS:
        assert code == 0 and _series(written) == paths_series


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(target=st.sampled_from(["relays", "origins"]), mutation=_INPUT_MUTATIONS,
       at=st.integers(0, 40))
def test_concentrate_mutated_inputs_keep_the_cli_contract(concentrate_inputs, target, mutation, at):
    _check_contract(concentrate_inputs, target, mutation, at, "concentrate",
                    {"--relays": "relays", "--origins": "origins"})


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(target=st.sampled_from(["relays", "origins"]), mutation=_INPUT_MUTATIONS,
       at=st.integers(0, 40))
def test_prefixlen_mutated_inputs_keep_the_cli_contract(concentrate_inputs, target, mutation, at):
    _check_contract(concentrate_inputs, target, mutation, at, "prefixlen",
                    {"--relays": "relays", "--origins": "origins"})


@pytest.fixture(scope="module")
def detect_inputs(churn_inputs):
    """The churn inputs with a known-event list over each relay's /24."""
    addresses = [row.split(",")[0] for row in churn_inputs["relays"].splitlines()[1:]]
    nets = sorted({address.rpartition(".")[0] for address in addresses})
    events = "prefix,t_start,t_end,label\n" + "".join(
        f"{net}.0/24,{100 * i},{100 * i + 50},e{i}\n" for i, net in enumerate(nets)
    )
    files = ("initial", "updates", "relays")
    return {**{name: churn_inputs[name] for name in files}, "events": events}


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(target=st.sampled_from(["initial", "updates", "relays", "events"]),
       mutation=_INPUT_MUTATIONS, at=st.integers(0, 40))
def test_detect_mutated_inputs_keep_the_cli_contract(detect_inputs, target, mutation, at):
    _check_contract(detect_inputs, target, mutation, at, "detect",
                    {"--initial": "initial", "--updates": "updates", "--relays": "relays",
                     "--events": "events"}, complete=_complete_output)


@pytest.fixture(scope="module")
def simulate_inputs():
    return {"scenario": json.dumps(
        random_routing_scenario(5, n_sessions=3, n_relays=4, n_ases=4, n_churn=4).to_dict()
    )}


def _whole_dataset_file(path):
    """A dataset file or directory simulate wrote whole: traces read back,
    update and relay lists are full-width CSV, truth.json is an artifact.
    (A scenario that loses its "kind" exits 2 and writes nothing.)"""
    if path.is_dir():
        return all(_whole_dataset_file(child) for child in path.iterdir())
    if path.suffix == ".jsonl":
        try:
            return read_trace_jsonl(path, path.stem) is not None
        except InputError:
            return False
    return _whole_csv(path) if path.suffix == ".csv" else _complete_json_artifact(path)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutation=_INPUT_MUTATIONS, at=st.integers(0, 40))
def test_simulate_mutated_scenario_keeps_the_cli_contract(simulate_inputs, mutation, at):
    _check_contract(simulate_inputs, "scenario", mutation, at, "simulate",
                    {"--scenario": "scenario"}, complete=_whole_dataset_file)


# --- imports a run pays for ------------------------------------------------------------


def _run_fresh(code, *args):
    """stdout of python -c code args in a fresh process that imports this routelens."""
    env = {**os.environ, "PYTHONPATH": str(Path(routelens.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_subcommand_imports_numpy_ma(tmp_path, churn_inputs):
    """numpy.ma costs 20-35 ms to import in a fresh process, and numpy 2
    imports it on the first plain np.unique, np.intersect1d or np.union1d;
    no subcommand needs it. Every benchmark step runs at its tiny size in
    one process, then an interception simulate and a churn run that reads
    an initial state file before its updates."""
    if "True" in _run_fresh("import sys, numpy; print('numpy.ma' in sys.modules)"):
        pytest.skip("import numpy alone loads numpy.ma")
    workloads = _workloads()
    runs = []
    for name, workload in workloads.WORKLOADS.items():
        workloads.make_inputs(name, 0, tmp_path / name, "tiny")
        runs += [workload.argv(step, tmp_path / name, tmp_path / name) for step in workload.steps]
    interception = tmp_path / "interception.json"
    interception.write_text(json.dumps({"kind": "interception", "n_pairs": 2, "duration": 60.0}))
    runs.append(["--output-dir", str(tmp_path / "interception"), "simulate",
                 "--scenario", str(interception)])
    for name in ("initial", "updates", "relays"):
        (tmp_path / f"{name}.csv").write_text(churn_inputs[name])
    runs.append(["--output-dir", str(tmp_path / "initial"), "churn"] + [
        str(arg) for name in ("initial", "updates", "relays")
        for arg in (f"--{name}", tmp_path / f"{name}.csv")
    ])
    # per run: its subcommand, its exit code and whether numpy.ma is loaded after it
    stdout = _run_fresh(
        "import json, sys\n"
        "from routelens.cli import main\n"
        "print(json.dumps([(argv[2], main(argv), 'numpy.ma' in sys.modules)"
        " for argv in json.loads(sys.argv[1])]))",
        json.dumps(runs),
    )
    assert json.loads(stdout.splitlines()[-1]) == [[argv[2], 0, False] for argv in runs]
    assert {argv[2] for argv in runs} == {
        "simulate", "correlate", "churn", "paths", "detect", "concentrate", "prefixlen"
    }


def test_bgp_and_paths_do_not_import_the_trace_codec():
    """The update and traceroute readers share textcols with the trace
    codec, and load neither it nor the correlation analysis."""
    stdout = _run_fresh(
        "import sys, routelens.bgp, routelens.paths\n"
        "print(sorted(m for m in ('routelens.correlation', 'routelens.tracefile') if m in sys.modules))"
    )
    assert stdout.splitlines()[-1] == "[]"
