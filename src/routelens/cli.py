"""File-based command line front end.

One subcommand per pipeline stage, batch-oriented: inputs are files,
outputs are plot-ready CSV/JSONL artifacts with metadata headers. Exit
code 0 means the inputs were processed (findings are data, not
failures); exit code 2 means the inputs were unusable, with diagnostics
on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, artifacts, churn, detect, evaluation, paths, simulate
from .bgp import UpdateTable, filter_session_resets, ingest, parse_updates, write_updates
from .core import INTEGER, NUMBER, FieldError, InputError, RelayIndex, bound, cast, csv_records
from .core import int_to_ip, load_prefix_origins, load_relays, parse_asn, read_json, write_relays
from .correlation import CorrelationError, SignalKind, clopper_pearson
from .tracefile import read_trace_jsonl, write_trace_jsonl

# default, type and range of each setting a --config file or a flag may give
SETTINGS = {
    "seed": (0, INTEGER, ">= 0"),
    "threshold": (0.6, NUMBER, None),
    "bin_width": (1.0, NUMBER, "> 0"),
    "window": (300.0, NUMBER, "> 0"),
    "max_lag": (0, INTEGER, ">= 0"),
    "min_overlap": (30.0, NUMBER, ">= 0"),
    "frequency_threshold": (0.00001, NUMBER, "in (0, 1)"),
    "time_threshold": (0.01, NUMBER, "in (0, 1)"),
    "quiet_gap": (3600.0, NUMBER, ">= 0"),
    "burst_window": (600.0, NUMBER, ">= 0"),
}


def _effective_config(args, keys: list[str]) -> dict:
    """Defaults, overlaid by --config file values of each key's type (kept
    as written, so an integer stays one in the metadata), overlaid by flags;
    each merged value must lie in its key's range."""
    loaded = read_json(args.config, "config file") if args.config else {}
    if not isinstance(loaded, dict):
        raise InputError(f"{args.config}: config must be a JSON object")
    # keys mirror flags across subcommands, so only a key none of them has is an error
    unknown = sorted(set(loaded) - set(SETTINGS))
    if unknown:
        raise InputError(f"{args.config}: unknown config key {unknown[0]!r}")
    config = {}
    try:
        for key in keys:
            config[key], kind, limit = SETTINGS[key]
            if key in loaded:
                config[key] = loaded[key]
                cast(config[key], kind, f"{args.config}: config key {key!r}")
            if getattr(args, key, None) is not None:
                config[key] = getattr(args, key)
            bound(config[key], limit, key)
    except FieldError as exc:
        raise InputError(str(exc)) from None
    config["output_dir"] = args.output_dir
    return config


def _out(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- correlate -----------------------------------------------------------------


def _parse_scenario(text: str) -> tuple[SignalKind, SignalKind]:
    pairs = {f"client-{c.value}:server-{s.value}": (c, s) for c in SignalKind for s in SignalKind}
    if text.lower() not in pairs:
        raise InputError(f"bad scenario {text!r}; expected e.g. client-data:server-ack")
    return pairs[text.lower()]


def _manifest_row(row: dict) -> tuple[Path, str, str]:
    role = row["role"].strip().lower()
    if role not in ("client", "server"):
        raise ValueError(f"unknown role {row['role']!r}")
    return Path(row["file"]), row["vantage_id"], role


def _load_manifest(manifest_path: str):
    clients, servers = [], []
    base = Path(manifest_path).parent
    seen: set[str] = set()

    def once(row: dict) -> tuple[Path, str, str]:
        file_path, vantage_id, role = _manifest_row(row)
        if vantage_id in seen:
            raise ValueError(f"vantage_id {vantage_id!r} listed twice")
        seen.add(vantage_id)
        return file_path, vantage_id, role

    rows = csv_records(manifest_path, "manifest", ("file", "vantage_id", "role"), once)
    for file_path, vantage_id, role in rows:
        trace = read_trace_jsonl(base / file_path, vantage_id)
        (clients if role == "client" else servers).append(trace)
    if not clients or not servers:
        raise InputError("manifest needs at least one client and one server trace")
    return clients, servers


def _load_truth(path_text: str) -> dict[str, str]:
    """The client -> server id pairing of a truth file: its "pairing" object, or the document."""
    document = read_json(path_text, "truth file")
    name = "pairing" if isinstance(document, dict) and "pairing" in document else "truth"
    pairing = document["pairing"] if name == "pairing" else document
    if not isinstance(pairing, dict) or not all(isinstance(s, str) for s in pairing.values()):
        raise InputError(f"{path_text}: {name} must map client ids to server id strings")
    return pairing


def accuracy_payload(report) -> dict:
    """The accuracy_report.json fields, each rate with its 95% interval:
    false negatives over the n clients, false positives over the report's
    false-positive trials."""
    return {
        "n_clients": report.n_clients,
        "accuracy": report.accuracy,
        "false_negative_rate": report.false_negative_rate,
        "false_positive_rate": report.false_positive_rate,
        "fn_confidence_95": list(clopper_pearson(report.false_negatives, report.n_clients)),
        "fp_confidence_95": list(
            clopper_pearson(report.false_positives, report.false_positive_trials)
        ),
    }


def cmd_correlate(args) -> int:
    config = _effective_config(
        args, ["seed", "threshold", "bin_width", "window", "max_lag"]
    )
    client_kind, server_kind = _parse_scenario(args.scenario)
    config["scenario"] = args.scenario
    config["cumulative"] = bool(args.cumulative)
    clients, servers = _load_manifest(args.manifest)
    truth = _load_truth(args.truth) if args.truth else None
    try:
        result = evaluation.run_match_pipeline(
            clients,
            servers,
            truth,
            client_kind=client_kind,
            server_kind=server_kind,
            bin_width=float(config["bin_width"]),
            window=float(config["window"]),
            threshold=float(config["threshold"]),
            max_lag_bins=int(config["max_lag"]),
            cumulative=bool(args.cumulative),
        )
    except CorrelationError as exc:  # e.g. an empty trace, or no packet in the signal's direction
        raise InputError(f"{args.manifest}: cannot correlate: {exc}") from None
    out = _out(args)
    artifacts.write_csv(
        out / "correlation_matrix.csv",
        config,
        ["client_id"] + result.server_ids,
        (
            [cid] + [f"{value:.6f}" for value in row]
            for cid, row in zip(result.client_ids, result.matrix)
        ),
    )
    artifacts.write_jsonl(
        out / "matches.jsonl",
        config,
        (
            {
                "client_id": m.client_id,
                "matched_server_id": m.matched_server_id,
                "coefficient": None if m.coefficient is None else round(m.coefficient, 6),
                "scenario": m.scenario,
                "tie": m.tie,
            }
            for m in result.matches
        ),
    )
    if result.report is not None:
        payload = accuracy_payload(result.report)
        artifacts.write_json(out / "accuracy_report.json", config, payload)
        print(
            f"accuracy {payload['accuracy']:.3f}  fn {payload['false_negative_rate']:.3f}  "
            f"fp {payload['false_positive_rate']:.3f}  ({payload['n_clients']} clients)"
        )
    return 0


# --- churn ---------------------------------------------------------------------


def _ingest_updates(args, config) -> tuple[RelayIndex, UpdateTable, tuple[float, float]]:
    """The run's one relay index, time-sorted updates and the analysis
    window, recorded in config. This is the one place the window's default
    is decided: the first update to one second past the last, each end
    overridden by its flag. An empty or non-finite window raises InputError."""
    relays = RelayIndex(load_relays(args.relays))
    # the initial state goes first, so it precedes updates at equal timestamps
    sources = [args.initial] if getattr(args, "initial", None) else []
    updates, issues = parse_updates(*sources, args.updates)
    for issue in issues:
        print(issue, file=sys.stderr)
    if issues:
        raise InputError(f"{len(issues)} malformed update lines")
    if getattr(args, "filter_resets", False):
        updates = filter_session_resets(
            updates, float(config["quiet_gap"]), float(config["burst_window"])
        )
    stamps = updates.ts
    lo = args.window_start if args.window_start is not None else (
        stamps.min().item() if len(stamps) else 0.0)
    hi = args.window_end if args.window_end is not None else (
        stamps.max().item() + 1.0 if len(stamps) else 1.0)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InputError(f"empty or non-finite window {lo:g}..{hi:g}")
    config["window_start"], config["window_end"] = lo, hi
    return relays, updates, (lo, hi)


def _load_sessions(path_text) -> dict[str, int] | None:
    """session_id,local_as CSV; a bad row raises InputError naming file and line."""
    if not path_text:
        return None
    return dict(csv_records(
        path_text, "session list", ("session_id", "local_as"),
        lambda row: (row["session_id"].strip(), parse_asn(row["local_as"])),
    ))


def _write_summary(out: Path, config, name: str, summary: churn.CompromiseSummary) -> None:
    """Write <name>_pairs.csv and ccdf_<name>.csv; with no admissible session
    pair the CCDF has a header and no rows."""
    artifacts.write_csv(
        out / f"{name}_pairs.csv",
        config,
        ["src_session", "dst_session", "compromised_circuits", "total_circuits", "percent"],
        (
            [src, dst, summary.compromised((src, dst)), summary.total_circuits,
             f"{100.0 * summary.fraction((src, dst)):.4f}"]
            for src, dst in summary.pairs
        ),
    )
    artifacts.write_csv(
        out / f"ccdf_{name}.csv",
        config,
        ["x_percent", "y_percent"],
        ([f"{x:.4f}", f"{y:.4f}"] for x, y in churn.ccdf(summary)),
    )


def cmd_churn(args) -> int:
    config = _effective_config(args, ["seed", "min_overlap", "quiet_gap", "burst_window"])
    relays, updates, window = _ingest_updates(args, config)
    local_as = _load_sessions(args.sessions)

    ribs = ingest(updates, relays, local_as=local_as)
    # the routing state at the window start, over the sessions heard by then
    heard = {updates.sessions[s] for s in updates.session[updates.ts <= window[0]].tolist()}
    baseline = churn.static_baseline(
        {sid: rib for sid, rib in ribs.items() if sid in heard}, relays, t0=window[0]
    )
    out = _out(args)
    _write_summary(out, config, "baseline", baseline)

    ratios, newly = [], []
    if (updates.ts > window[0]).any():
        updated = churn.churn_summary(
            ribs,
            relays,
            window,
            min_overlap=float(config["min_overlap"]),
            baseline=baseline,
        )
        _write_summary(out, config, "churn", updated)
        ratios, newly = churn.churn_ratio(baseline, updated)
        coverage = churn.as_circuit_coverage(updated)
        artifacts.write_csv(
            out / "as_coverage.csv",
            config,
            ["asn", "percent_circuits_seen", "circuits"],
            ([asn, f"{pct:.4f}", count] for asn, pct, count in coverage),
        )
    artifacts.write_csv(
        out / "ratios.csv",
        config,
        ["src_session", "dst_session", "baseline", "with_updates", "ratio"],
        (
            [r.src_session, r.dst_session, r.baseline, r.with_updates, f"{r.ratio:.6f}"]
            for r in ratios
        ),
    )
    artifacts.write_csv(
        out / "newly_compromisable.csv",
        config,
        ["src_session", "dst_session", "circuits"],
        ([src, dst, count] for src, dst, count in newly),
    )
    print(
        f"{len(baseline.pairs)} session pairs, {len(ratios)} with ratios, "
        f"{len(newly)} newly compromisable"
    )
    return 0


# --- paths ----------------------------------------------------------------------


def cmd_paths(args) -> int:
    config = _effective_config(args, ["seed"])
    config["exclude_endpoint_ases"] = bool(args.exclude_endpoint_ases)
    mapping = load_prefix_origins(args.mapping)
    traced = paths.load_traceroutes(args.traceroutes, mapping)
    if not traced:
        raise InputError(f"{args.traceroutes}: traceroute file holds no records")
    dataset = paths.PathDataset(traced)
    rows = paths.vulnerability_timeseries(
        dataset, exclude_endpoint_ases=bool(args.exclude_endpoint_ases)
    )
    if not rows:
        raise InputError(f"{args.traceroutes}: no complete P1-P4 quad of traceroutes")
    out = _out(args)
    artifacts.write_csv(
        out / "vulnerability_timeseries.csv",
        config,
        [
            "day",
            "pct_symmetric_day1",
            "pct_asymmetric",
            "pct_asymmetric_cumulative",
            "n_quads",
            "n_inherited_paths",
        ],
        (
            [
                row.day,
                f"{row.pct_symmetric_day1:.4f}",
                f"{row.pct_asymmetric:.4f}",
                f"{row.pct_asymmetric_cumulative:.4f}",
                row.n_quads,
                row.n_inherited_paths,
            ]
            for row in rows
        ),
    )
    last = rows[-1]
    print(
        f"{len(rows)} days, {last.n_quads} quads; asymmetric day-1 "
        f"{rows[0].pct_asymmetric:.1f}% -> cumulative {last.pct_asymmetric_cumulative:.1f}%"
    )
    return 0


# --- detect -------------------------------------------------------------------


def cmd_detect(args) -> int:
    config = _effective_config(
        args, ["seed", "frequency_threshold", "time_threshold", "quiet_gap", "burst_window"]
    )
    config["freq_denominator"] = args.freq_denominator
    relays, updates, window = _ingest_updates(args, config)
    alerts = detect.run_all_heuristics(
        updates,
        relays,
        frequency_threshold=float(config["frequency_threshold"]),
        time_threshold=float(config["time_threshold"]),
        window=window,
        per_prefix_denominator=args.freq_denominator == "per-prefix",
    )
    out = _out(args)
    artifacts.write_jsonl(
        out / "alerts.jsonl", config, (detect.alert_to_record(a) for a in alerts)
    )
    if args.events:
        events = detect.load_hijack_events(args.events)
        impacts = detect.cross_reference(events, relays)
        artifacts.write_csv(
            out / "event_impacts.csv",
            config,
            ["label", "prefixes", "relays", "guards", "exits"],
            ([i.label, i.prefixes, i.relays, i.guards, i.exits] for i in impacts),
        )
    print(f"{len(alerts)} alerts over window {window[0]:.0f}..{window[1]:.0f}")
    return 0


def cmd_concentrate(args) -> int:
    config = _effective_config(args, ["seed"])
    relays = load_relays(args.relays)
    origin_map = load_prefix_origins(args.origins)
    report = detect.concentration(relays, origin_map)
    out = _out(args)
    artifacts.write_csv(
        out / "concentration.csv",
        config,
        ["asn", "percent_relays", "percent_bandwidth", "prefix_count", "relay_count"],
        (
            [r.asn, f"{r.percent_relays:.4f}", f"{r.percent_bandwidth:.4f}", r.prefix_count, r.relay_count]
            for r in report.rows
        ),
    )
    artifacts.write_csv(
        out / "uncovered_relays.csv",
        config,
        ["address", "nickname"],
        ([int_to_ip(r.address), r.nickname] for r in report.uncovered),
    )
    top_relays, top_bw, top_prefixes = report.cumulative(6)
    print(
        f"top 6 ASes: {top_relays:.2f}% of relays, {top_bw:.2f}% of bandwidth, "
        f"{top_prefixes} prefixes; {len(report.uncovered)} uncovered relays"
    )
    return 0


def cmd_prefixlen(args) -> int:
    config = _effective_config(args, ["seed"])
    relays = load_relays(args.relays)
    origin_map = load_prefix_origins(args.origins)
    report = detect.prefix_length_vulnerability(relays, origin_map)
    out = _out(args)
    artifacts.write_csv(
        out / "prefix_lengths.csv",
        config,
        ["prefix_length", "hosting_prefixes", "percent"],
        (
            [length, count, f"{100.0 * count / report.total_prefixes:.4f}"]
            for length, count in report.histogram.items()
        ),
        extra_meta={"percent_hijackable": f"{report.percent_hijackable:.4f}"},
    )
    print(f"{report.percent_hijackable:.1f}% of relay-hosting prefixes shorter than /24")
    return 0


# --- simulate -----------------------------------------------------------------


def _write_traffic_dataset(out: Path, config, clients, servers, truth) -> None:
    traces_dir = out / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for role, traces in (("client", clients), ("server", servers)):
        for trace in traces:
            name = f"{trace.vantage_id}.jsonl"
            write_trace_jsonl(traces_dir / name, trace)
            manifest_rows.append([f"traces/{name}", trace.vantage_id, role])
    artifacts.write_csv(out / "manifest.csv", config, ["file", "vantage_id", "role"], manifest_rows)
    artifacts.write_json(out / "truth.json", config, truth.to_dict())


def cmd_simulate(args) -> int:
    config = _effective_config(args, ["seed"])
    scenario = simulate.load_scenario(args.scenario)
    out = _out(args)
    if isinstance(scenario, simulate.TrafficScenario):
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        config.update(scenario.to_dict())
        clients, servers, truth = simulate.gen_traffic(scenario)
        _write_traffic_dataset(out, config, clients, servers, truth)
        print(f"traffic dataset: {len(clients)} pairs under {out}")
        return 0
    if isinstance(scenario, simulate.RoutingScenario):
        updates, truth = simulate.gen_updates(scenario)
        config.update({"kind": "routing", "scenario_seed": scenario.seed})
        write_updates(out / "updates.csv", updates)
        write_relays(out / "relays.csv", scenario.relays)
        artifacts.write_json(out / "truth.json", config, truth.to_dict())
        print(f"routing dataset: {len(updates)} updates, {len(truth.events)} events under {out}")
        return 0
    traffic, timing = scenario
    if args.seed is not None:
        traffic = replace(traffic, seed=args.seed)
    config.update({**traffic.to_dict(), "kind": "interception", **timing})
    run = simulate.gen_interception_timeline(traffic, **timing)
    _write_traffic_dataset(out, config, run.attacker_traces, run.server_traces, run.truth)
    artifacts.write_csv(
        out / "tunnel_series.csv",
        config,
        ["second_raw", "second_adjusted", "good_acks", "attacker_acks"],
        (
            [f"{s:.0f}", f"{s - run.capture[0]:.0f}", g, a]
            for s, g, a in zip(run.seconds, run.good_acks, run.attacker_acks)
        ),
        extra_meta={"capture_start": run.capture[0], "capture_end": run.capture[1]},
    )
    print(
        f"interception dataset: capture [{run.capture[0]:.0f}, {run.capture[1]:.0f}) under {out}"
    )
    return 0


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routelens",
        description="AS-level traffic-correlation and routing-attack analyses on files",
    )
    parser.add_argument("--version", action="version", version=f"routelens {__version__}")
    parser.add_argument("--output-dir", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded in artifacts")
    parser.add_argument("--config", default=None, help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="match client traces to server traces")
    p.add_argument("--manifest", required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--scenario", default="client-data:server-ack")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--bin-width", dest="bin_width", type=float, default=None)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--max-lag", dest="max_lag", type=int, default=None)
    p.add_argument(
        "--cumulative",
        action="store_true",
        help="experiment: correlate running totals instead of per-bin deltas",
    )
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("churn", help="compromise metric from an update stream")
    p.add_argument("--updates", required=True)
    p.add_argument("--relays", required=True)
    p.add_argument("--initial", default=None, help="initial state, same schema, kind=A")
    p.add_argument("--window-start", type=float, default=None)
    p.add_argument("--window-end", type=float, default=None)
    p.add_argument("--min-overlap", dest="min_overlap", type=float, default=None)
    p.add_argument("--filter-resets", action="store_true")
    p.add_argument("--sessions", default=None, help="CSV session_id,local_as overriding inference")
    p.set_defaults(func=cmd_churn)

    p = sub.add_parser("paths", help="traceroute path-asymmetry vulnerability")
    p.add_argument("--traceroutes", required=True)
    p.add_argument("--mapping", required=True)
    p.add_argument(
        "--exclude-endpoint-ases",
        action="store_true",
        help="discount each quad's own endpoint ASes as witnesses",
    )
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("detect", help="hijack/interception heuristics over updates")
    p.add_argument("--updates", required=True)
    p.add_argument("--relays", required=True)
    p.add_argument("--initial", default=None)
    p.add_argument("--window-start", type=float, default=None)
    p.add_argument("--window-end", type=float, default=None)
    p.add_argument(
        "--frequency-threshold", dest="frequency_threshold", type=float, default=None
    )
    p.add_argument("--time-threshold", dest="time_threshold", type=float, default=None)
    p.add_argument("--filter-resets", action="store_true")
    p.add_argument(
        "--freq-denominator",
        choices=("per-prefix", "all"),
        default="per-prefix",
        help="divide an origin's announcements by its prefix's total or by all announcements",
    )
    p.add_argument("--events", default=None, help="known-event CSV for cross-referencing")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("concentrate", help="relay concentration by origin AS")
    p.add_argument("--relays", required=True)
    p.add_argument("--origins", required=True)
    p.set_defaults(func=cmd_concentrate)

    p = sub.add_parser("prefixlen", help="relay-hosting prefix length distribution")
    p.add_argument("--relays", required=True)
    p.add_argument("--origins", required=True)
    p.set_defaults(func=cmd_prefixlen)

    p = sub.add_parser("simulate", help="generate a ground-truth dataset")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
