"""Shared fixture builders and brute-force oracles for the test suite."""

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from routelens.artifacts import normalized_bytes
from routelens.bgp import ParseIssue, SessionRib, UpdateTable, ingest, prefix_key
from routelens.churn import CompromiseSummary, Sightings, _intersection_length, circuit_universe
from routelens.core import (
    InputError, IpPrefix, PrefixTable, RelayDescriptor, RelayIndex, RouteEntry, VantageSession,
    ip_to_int, parse_path, path_ases,
)
from routelens.correlation import (
    _FLAG_NAMES, DIRECTIONS, ConstantInputError, Direction, LengthMismatchError, PacketTable,
    _average_ranks,
)
from routelens.detect import Heuristic, HijackAlert, _alert
from routelens.paths import (
    _PRIVATE_BLOCKS, ROLES, AsLevelPath, DayVulnerability, EmptyPathError, PathError, PathRole,
)
from routelens.simulate import (
    TICK, ChurnEvent, InjectedEvent, RouteSpec, RoutingGroundTruth, RoutingScenario, SessionSpec,
    TrafficScenario, _waterfill,
)


# --- longest-prefix match by dict buckets ------------------------------------------


class BucketTable:
    """Longest-prefix match over one dict bucket per prefix length, base
    address -> (prefix, payload), probed longest first: the oracle of
    PrefixTable's array queries. A re-inserted prefix keeps its last payload."""

    def __init__(self, entries=()):
        self._buckets = {}
        for prefix, payload in entries:
            self.insert(prefix, payload)

    def insert(self, prefix, payload):
        self._buckets.setdefault(prefix.length, {})[prefix.base] = (prefix, payload)

    def covering(self, address):
        """Every entry covering address, longest first."""
        for length in sorted(self._buckets, reverse=True):
            shift = 32 - length
            entry = self._buckets[length].get(address >> shift << shift)
            if entry is not None:
                yield entry

    def lookup(self, address):
        """The payload of the most specific entry covering address, or None."""
        return next(self.covering(address), (None, None))[1]


def covers_any(index: RelayIndex, prefix: IpPrefix) -> bool:
    """Whether some relay of index lies inside prefix."""
    return any(prefix.covers(relay.address) for relay in index.relays)


def prefix_entries(rib, prefix):
    """A SessionRib's closed history entries of prefix, then its open live entry."""
    live = rib.live.get(prefix)
    return rib.history.get(prefix, []) + ([] if live is None else [live])


def rib_entries(rib):
    """(prefix, entry) of every entry of a SessionRib, in prefix order."""
    return [
        (prefix, entry)
        for prefix in sorted(set(rib.history) | set(rib.live))
        for entry in prefix_entries(rib, prefix)
    ]


# --- AS paths and interval sets, one value at a time --------------------------------


@dataclass(frozen=True, init=False)
class AsPath:
    """Ordered AS-level path, origin last: the per-update value the oracles
    read. Consecutive repeats (prepend padding) are collapsed on
    construction, as core.path_ases collapses them."""

    ases: tuple

    def __init__(self, ases) -> None:
        object.__setattr__(self, "ases", path_ases(ases))

    @classmethod
    def parse(cls, text: str) -> "AsPath":
        return cls(parse_path(text))

    @property
    def origin(self) -> int:
        return self.ases[-1]

    def __contains__(self, asn: int) -> bool:
        return asn in self.ases

    def __iter__(self):
        return iter(self.ases)

    def __len__(self) -> int:
        return len(self.ases)

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self.ases)


def merge_intervals(spans, gap=0.0):
    """Sorted union of closed spans, spans at most gap apart fusing too, one
    span at a time: the oracle of core.merge_intervals_grouped."""
    merged = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1] + gap:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# --- updates as rows ---------------------------------------------------------------


@dataclass(frozen=True)
class BgpUpdate:
    """One update as a row, the form the per-update oracles read."""

    timestamp: float
    session: str
    prefix: IpPrefix
    path: AsPath | None  # None for withdrawals


class UpdateIds:
    """The id tuples of an UpdateTable being built: each new session,
    prefix and path (its ASes, prepends collapsed) gets the next id."""

    def __init__(self) -> None:
        self.sessions: dict[str, int] = {}
        self.prefixes: dict[IpPrefix, int] = {}
        self.paths: dict[tuple[int, ...], int] = {}

    def session_id(self, session: str) -> int:
        return self.sessions.setdefault(session, len(self.sessions))

    def prefix_id(self, prefix: IpPrefix) -> int:
        return self.prefixes.setdefault(prefix, len(self.prefixes))

    def path_id(self, ases: tuple[int, ...] | None) -> int:
        """The id of a path_ases tuple, or -1 for None, a withdrawal."""
        return -1 if ases is None else self.paths.setdefault(ases, len(self.paths))

    def table(self, rows: list[tuple[float, int, int, int]]) -> UpdateTable:
        """The table of (ts, session id, prefix id, path id) rows."""
        columns = zip(*rows) if rows else ((),) * 4
        return UpdateTable(*columns, self.sessions, self.prefixes, self.paths)


def table_of(updates) -> UpdateTable:
    """The UpdateTable of BgpUpdate rows (stably time-sorted, as every table is)."""
    ids = UpdateIds()
    return ids.table([
        (u.timestamp, ids.session_id(u.session), ids.prefix_id(u.prefix),
         ids.path_id(None if u.path is None else u.path.ases))
        for u in updates
    ])


def updates_of(table: UpdateTable) -> list[BgpUpdate]:
    """Each row of a table as a BgpUpdate, in row order."""
    return [
        BgpUpdate(ts, table.sessions[s], table.prefixes[p],
                  None if a < 0 else AsPath(table.path_ases[a]))
        for ts, s, p, a in zip(
            table.ts.tolist(), table.session.tolist(), table.prefix.tolist(), table.path.tolist()
        )
    ]


def announce(ts, session, prefix, path):
    return BgpUpdate(ts, session, IpPrefix.parse(prefix), AsPath(tuple(path)))


def withdraw(ts, session, prefix):
    return BgpUpdate(ts, session, IpPrefix.parse(prefix), None)


def random_churn_fixture(rng: random.Random):
    """Random small routing history: relays, per-session updates, window.

    Sizes stay within brute-force reach (<= 5 sessions, <= 10 relays,
    <= 5 ASes, <= 50 updates); timestamps are integers so a 1 s sweep is
    exact. Prefix pools nest so most-specific forwarding gets exercised.
    """
    n_relays = rng.randint(3, 10)
    relays = []
    for i in range(n_relays):
        role = rng.choice(["g", "e", "b"])
        relays.append(
            RelayDescriptor(
                address=ip_to_int(f"10.{i}.{rng.randint(0, 3)}.{rng.randint(1, 250)}"),
                is_guard=role in ("g", "b"),
                is_exit=role in ("e", "b"),
                bandwidth=float(rng.randint(1, 100)),
                nickname=f"r{i}",
            )
        )
    prefixes = ["10.0.0.0/8"]
    for i in range(n_relays):
        prefixes.append(f"10.{i}.0.0/16")
        if rng.random() < 0.5:
            prefixes.append(f"10.{i}.{relays[i].address >> 8 & 0xFF}.0/24")

    n_sessions = rng.randint(2, 5)
    as_pool = list(range(101, 101 + rng.randint(2, 5)))
    local_pool = [64500, 64501, 64502]
    sessions = {f"s{k}": rng.choice(local_pool) for k in range(n_sessions)}

    window = (0, rng.randint(30, 60))
    updates = []
    for sid in sessions:
        for prefix in rng.sample(prefixes, k=rng.randint(1, min(4, len(prefixes)))):
            path = [rng.choice(as_pool) for _ in range(rng.randint(1, 4))]
            updates.append(announce(0, sid, prefix, path))
    n_updates = rng.randint(0, 50)
    for _ in range(n_updates):
        ts = rng.randint(1, window[1] - 1)
        sid = rng.choice(sorted(sessions))
        prefix = rng.choice(prefixes)
        if rng.random() < 0.25:
            updates.append(withdraw(ts, sid, prefix))
        else:
            path = [rng.choice(as_pool) for _ in range(rng.randint(1, 4))]
            updates.append(announce(ts, sid, prefix, path))
    updates.sort(key=lambda u: u.timestamp)
    return updates, relays, sessions, window


# --- per-update BGP oracles --------------------------------------------------------


# around the number, the ASCII characters that float() strips as whitespace
_DECIMAL = re.compile(
    r"[\s\x1c-\x1f]*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?[\s\x1c-\x1f]*", re.ASCII
)


def oracle_parse_updates(*sources):
    """parse_updates line by line: one BgpUpdate per good line, decoding
    every prefix and path anew, and one ParseIssue per bad line; the
    timestamp grammar is a regular expression here. Also the sessions,
    prefixes and AS paths in order of first appearance in the good lines,
    file by file, the order of the table's id tuples."""
    updates, issues = [], []
    for source in sources:
        with open(source, newline="", encoding="utf-8") as handle:
            for line_no, row in enumerate(csv.reader(handle), start=1):
                if not row or (row[0].startswith("#")):
                    continue
                if [cell.strip().lower() for cell in row[:2]] == ["timestamp", "session"]:
                    continue  # header
                try:
                    if len(row) != 5:
                        raise ValueError(f"expected 5 fields, got {len(row)}")
                    timestamp = float(row[0])
                    if not math.isfinite(timestamp):
                        raise ValueError(f"timestamp must be finite, not {row[0]!r}")
                    if not _DECIMAL.fullmatch(row[0]):
                        raise ValueError(f"timestamp must be an ASCII decimal, not {row[0]!r}")
                    session = row[1].strip()
                    if not session:
                        raise ValueError("empty session id")
                    kind = row[2].strip().upper()
                    if kind not in ("A", "W"):
                        raise ValueError(f"kind must be A or W, not {row[2]!r}")
                    prefix = IpPrefix.parse(row[3])
                    path_text = row[4].strip()
                    if kind == "W" and path_text:
                        raise ValueError("withdrawal carries a path")
                    path = AsPath.parse(path_text) if kind == "A" else None
                    updates.append(BgpUpdate(timestamp, session, prefix, path))
                except ValueError as exc:
                    issues.append(ParseIssue(str(source), line_no, str(exc), ",".join(row)))
    order = (
        tuple(dict.fromkeys(u.session for u in updates)),
        tuple(dict.fromkeys(u.prefix for u in updates)),
        tuple(dict.fromkeys(u.path.ases for u in updates if u.path is not None)),
    )
    updates.sort(key=lambda u: u.timestamp)
    return updates, issues, order


class ReplayRib(SessionRib):
    """A SessionRib filled update by update, the replay that route_spans
    replaces: announcements open an entry, withdrawals and path changes
    close it."""

    def __init__(self, session, relay_index):
        super().__init__(session)
        self._relays = relay_index

    def apply(self, update):
        if not covers_any(self._relays, update.prefix):
            return  # prefix hosts no relay: not tracked
        current = self.live.get(update.prefix)
        if update.path is None:
            if current is not None:
                current.t_end = update.timestamp
                self.history.setdefault(update.prefix, []).append(current)
                del self.live[update.prefix]
            return
        if current is not None:
            if current.path == update.path.ases:
                return  # duplicate announcement: no information
            current.t_end = update.timestamp
            self.history.setdefault(update.prefix, []).append(current)
        self.live[update.prefix] = RouteEntry(
            t_start=update.timestamp,
            t_end=None,
            prefix=update.prefix,
            path=update.path.ases,
        )


def oracle_ingest(updates, relays, local_as=None):
    """ingest by replaying each update, in stable time order, into its
    session's ReplayRib."""
    updates = sorted(updates, key=lambda u: u.timestamp)
    index = RelayIndex(relays)
    inferred = {}
    for update in updates:
        if update.path is not None and update.session not in inferred:
            inferred[update.session] = update.path.ases[0]
    inferred.update(local_as or {})
    ribs = {}
    for update in updates:
        sid = update.session
        if sid not in ribs:
            ribs[sid] = ReplayRib(VantageSession(sid, inferred.get(sid, 0)), index)
        ribs[sid].apply(update)
    return ribs


def oracle_frequency_heuristic(
    updates, relays, window, threshold=0.00001, per_prefix_denominator=True
):
    """The frequency heuristic counted in dicts, announcement by announcement."""
    index = RelayIndex(relays)
    totals = {}
    per_origin = {}
    n_announcements = 0
    for update in updates:
        if update.path is None:
            continue
        if not window[0] <= update.timestamp < window[1]:
            continue
        if not covers_any(index, update.prefix):
            continue
        n_announcements += 1
        totals[update.prefix] = totals.get(update.prefix, 0) + 1
        per_origin.setdefault((update.prefix, update.path.origin), []).append(
            update.timestamp
        )
    alerts = []
    for (prefix, origin), stamps in sorted(
        per_origin.items(), key=lambda item: (item[0][0], item[0][1])
    ):
        denominator = totals[prefix] if per_prefix_denominator else n_announcements
        freq = len(stamps) / denominator
        if freq < threshold:
            windows = merge_intervals([(t, t) for t in stamps], gap=3600.0)
            alerts.append(_alert(index, Heuristic.FREQUENCY, prefix, origin, freq, windows))
    return alerts


def rib_index(rib) -> BucketTable:
    """The prefixes of a SessionRib's entries, each its own payload."""
    return BucketTable((prefix, prefix) for prefix in set(rib.history) | set(rib.live))


def live_at(entry: RouteEntry, t: float) -> bool:
    """Whether a RouteEntry forwards at t: t in [t_start, t_end)."""
    return entry.t_start <= t and (entry.t_end is None or t < entry.t_end)


def clipped(entry: RouteEntry, t_lo: float, t_hi: float):
    """A RouteEntry's span intersected with [t_lo, t_hi), or None if empty."""
    end = t_hi if entry.t_end is None else min(entry.t_end, t_hi)
    start = max(entry.t_start, t_lo)
    return (start, end) if start < end else None


def route_for_relay(rib, relay, t, index=None):
    """Most-specific tracked entry of a SessionRib live at t whose prefix
    covers the relay; index is rib_index(rib), built here when not given."""
    index = rib_index(rib) if index is None else index
    return next((
        entry
        for prefix, _ in index.covering(relay.address)
        for entry in prefix_entries(rib, prefix)
        if live_at(entry, t)
    ), None)


# --- churn sightings as dicts ----------------------------------------------------


def oracle_segment_observations(ribs, relays, window):
    """segment_observations in dict form, walked per (session, relay,
    segment): per AS, in ascending order, its (guard side, exit side), each
    mapping (session index, relay address) to that key's merged spans.

    Each (session, relay) is cut at every clipped endpoint of the entries
    covering the relay, and each segment is forwarded by the first entry,
    longest prefix first, live at its start.
    """
    t_lo, t_hi = window
    admitted = [r for r in relays if r.is_guard or r.is_exit]
    sessions = tuple(sorted(ribs))
    routed = PrefixTable()
    for rib in ribs.values():
        for prefix in list(rib.history) + list(rib.live):
            routed.insert(prefix, None)
    prefixes = routed.freeze().entries()
    covers = [[] for _ in admitted]  # per relay, longest prefix first
    at, found = routed.covering_many([relay.address for relay in admitted])
    for a, entry in zip(at.tolist(), found.tolist()):
        covers[a].append(prefixes[entry][0])
    raw = {}
    for s, sid in enumerate(sessions):
        rib = ribs[sid]
        for relay, covering in zip(admitted, covers):
            entries = [
                entry
                for prefix in covering
                for entry in rib.history.get(prefix, []) + [rib.live.get(prefix)]
                if entry is not None and clipped(entry, t_lo, t_hi) is not None
            ]
            if not entries:
                continue
            cuts = {t_lo, t_hi}
            for entry in entries:
                cuts.update(clipped(entry, t_lo, t_hi))
            edges = sorted(cuts)
            key = (s, relay.address)
            sides = [side for side, flag in enumerate((relay.is_guard, relay.is_exit)) if flag]
            for seg_start, seg_end in zip(edges, edges[1:]):
                forwarding = next((e for e in entries if live_at(e, seg_start)), None)
                if forwarding is None:
                    continue
                for asn in forwarding.path:
                    by_side = raw.setdefault(asn, ({}, {}))
                    for side in sides:
                        by_side[side].setdefault(key, []).append((seg_start, seg_end))
    return {
        asn: tuple(
            {key: tuple(merge_intervals(spans)) for key, spans in side.items()} for side in raw[asn]
        )
        for asn in sorted(raw)
    }


def spans_of(sightings: Sightings) -> dict:
    """The dict form of a Sightings: per AS, in ascending order, its (guard
    side, exit side), each mapping (session index, relay address) to that
    key's spans as a tuple of (start, end) in row order."""
    spans = {}
    columns = (
        sightings.asn, sightings.side, sightings.session, sightings.relay, sightings.start,
        sightings.end,
    )
    for asn, side, session, relay, start, end in zip(*(c.tolist() for c in columns)):
        key_spans = spans.setdefault(asn, ({}, {}))[side]
        key_spans[session, relay] = key_spans.get((session, relay), ()) + ((start, end),)
    return spans


def sightings_of(sessions, spans) -> Sightings:
    """The Sightings of a dict form (as spans_of gives it), its rows sorted
    by (asn, side, session, relay, start)."""
    rows = sorted(
        (asn, side, session, relay, start, end)
        for asn, sides in spans.items()
        for side, keys in enumerate(sides)
        for (session, relay), key_spans in keys.items()
        for start, end in key_spans
    )
    columns = list(zip(*rows)) if rows else [()] * 6
    return Sightings(
        tuple(sessions),
        *(np.array(c, dtype=np.int64) for c in columns[:4]),
        *(np.array(c, dtype=np.float64) for c in columns[4:]),
    )


def ccdf_value(points, x):
    """Evaluate a churn.ccdf curve: the share of pairs at or above level x."""
    for px, py in points:
        if px >= x:
            return py
    return 0.0


def alert_from_record(record: dict) -> HijackAlert:
    """The alert of one alerts.jsonl record, the inverse of detect.alert_to_record."""
    return HijackAlert(
        prefix=IpPrefix.parse(record["prefix"]),
        origin_as=int(record["origin_as"]),
        heuristic=Heuristic(record["heuristic"]),
        score=float(record["score"]),
        windows=tuple((float(a), float(b)) for a, b in record["windows"]),
        guards=tuple(ip_to_int(a) for a in record["guards"]),
        exits=tuple(ip_to_int(a) for a in record["exits"]),
    )


def build_ribs(updates, relays, sessions):
    return ingest(table_of(updates), RelayIndex(relays), local_as=sessions)


def brute_force_records(ribs, relays, window, min_overlap):
    """Second-by-second enumeration over every (AS, src, guard, dst, exit).

    Uses route_for_relay pointwise (itself oracle-tested against a linear
    entry scan), so it is independent of the interval-sweep implementation.
    """
    t0, t1 = window
    local = {sid: rib.session.local_as for sid, rib in ribs.items()}
    counts: dict[tuple, int] = {}
    admitted = [r for r in relays if r.is_guard or r.is_exit]
    indices = {sid: rib_index(rib) for sid, rib in ribs.items()}
    for t in range(int(t0), int(t1)):
        on_path = {}
        for sid, rib in ribs.items():
            for relay in admitted:
                entry = route_for_relay(rib, relay, t, indices[sid])
                on_path[(sid, relay.address)] = set(entry.path) if entry else set()
        for sid_g, _ in ribs.items():
            for rg in admitted:
                if not rg.is_guard:
                    continue
                ases_g = on_path[(sid_g, rg.address)]
                if not ases_g:
                    continue
                for sid_e in ribs:
                    if sid_e == sid_g or local[sid_g] == local[sid_e]:
                        continue
                    for re_ in admitted:
                        if not re_.is_exit or re_.address == rg.address:
                            continue
                        shared = ases_g & on_path[(sid_e, re_.address)]
                        for asn in shared:
                            key = (asn, sid_g, rg.address, sid_e, re_.address)
                            counts[key] = counts.get(key, 0) + 1
    records = set()
    for (asn, src, guard, dst, exit_), seconds in counts.items():
        if seconds > 0 and seconds >= min_overlap:
            records.add(
                CircuitCompromiseRecord(src, dst, guard, exit_, asn, float(seconds))
            )
    return records


# --- per-record compromise oracle ------------------------------------------------


@dataclass(frozen=True, order=True)
class CircuitCompromiseRecord:
    src_session: str
    dst_session: str
    guard: int
    exit: int
    as_number: int
    overlap_seconds: float


def oracle_records(sightings, min_overlap=30.0, local_as=None):
    """Every (AS, (src, guard), (dst, exit)) co-occurrence, one record per
    five-way key, from a sweep over each pair of span lists."""
    local_as = local_as or {}
    records = []
    by_as = spans_of(sightings)
    for asn in sorted(by_as):
        guards, exits = (
            {(sightings.sessions[s], relay): spans for (s, relay), spans in side.items()}
            for side in by_as[asn]
        )
        for (src, guard), g_spans in sorted(guards.items()):
            for (dst, exit_), e_spans in sorted(exits.items()):
                if src == dst or guard == exit_:
                    continue
                if src in local_as and local_as[src] == local_as.get(dst):
                    continue
                overlap = _intersection_length(g_spans, e_spans)
                if overlap > 0 and overlap >= min_overlap:
                    records.append(
                        CircuitCompromiseRecord(src, dst, guard, exit_, asn, overlap)
                    )
    return records


def hit_columns(hits):
    """The kept cells of every AS's mask as parallel (as_index, src, guard,
    dst, exit, overlap_seconds) columns, AS by AS: as_index indexes ases,
    src and dst index sessions, guard and exit are relay addresses, and
    overlap_seconds is read from the AS's overlap kernel."""
    parts = [(np.empty(0, dtype=np.int64),) * 5 + (np.empty(0),)]
    for k, (o, mask) in enumerate(zip(hits.overlaps, hits.masks())):
        g, e = np.nonzero(mask)
        parts.append((
            np.full(len(g), k), o.src[g], o.guard[g], o.dst[e], o.exit[e],
            o.overlap[o.guard_rows[g], o.exit_rows[e]],
        ))
    return tuple(np.concatenate(column) for column in zip(*parts))


def hit_records(hits) -> set:
    """The product's per-AS hits as records."""
    return {
        CircuitCompromiseRecord(
            hits.sessions[src], hits.sessions[dst], guard, exit_, int(hits.ases[k]), seconds
        )
        for k, src, guard, dst, exit_, seconds in zip(
            *(column.tolist() for column in hit_columns(hits))
        )
    }


def _or_rows(owner, circuit, n_owners, n_circuits):
    """Per owner, the sorted distinct circuit ids: the OR of its hits as one
    boolean owner x circuit matrix."""
    bits = np.zeros((n_owners, n_circuits), dtype=bool)
    bits[owner, circuit] = True
    return [np.flatnonzero(row) for row in bits]


def circuit_axes(relays) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct guard and exit addresses of a relay list, descriptor
    by descriptor: the oracle of RelayIndex.guards and exits."""
    guards = sorted({r.address for r in relays if r.is_guard})
    exits = sorted({r.address for r in relays if r.is_exit})
    return np.array(guards, dtype=np.int64), np.array(exits, dtype=np.int64)


def oracle_summarize(hits, relays) -> CompromiseSummary:
    """summarize by rows: every AS's hits concatenated into columns, then
    ORed per admitted pair and per AS."""
    as_index, src, guard, dst, exit_, _ = hit_columns(hits)
    guards, exits = circuit_axes(relays)
    n_circuits = len(guards) * len(exits)
    circuit = np.searchsorted(guards, guard) * len(exits) + np.searchsorted(exits, exit_)
    # admitted pairs in row-major order; a hit's row is its pair's rank
    pairs = [
        (hits.sessions[i], hits.sessions[j])
        for i, j in zip(*(side.tolist() for side in np.nonzero(hits.admitted)))
    ]
    rank = np.cumsum(hits.admitted) - 1
    by_pair = _or_rows(rank[src * len(hits.sessions) + dst], circuit, len(pairs), n_circuits)
    by_as = _or_rows(as_index, circuit, len(hits.ases), n_circuits)
    return CompromiseSummary(
        pair_circuits=dict(zip(pairs, by_pair)),
        total_circuits=circuit_universe(RelayIndex(relays)),
        per_as_circuits={asn: ids for asn, ids in zip(hits.ases.tolist(), by_as) if len(ids)},
        guards=guards,
        exits=exits,
    )


def session_pairs(ribs) -> list[tuple[str, str]]:
    """Ordered (src, dst) pairs of distinct sessions in distinct local ASes."""
    sessions = sorted(ribs)
    return [
        (src, dst)
        for src in sessions
        for dst in sessions
        if src != dst and ribs[src].session.local_as != ribs[dst].session.local_as
    ]


def summarize_records(records, pairs, relays) -> CompromiseSummary:
    """CompromiseSummary folded record by record through Python sets."""
    guards, exits = circuit_axes(relays)
    g_index = {address: i for i, address in enumerate(guards.tolist())}
    e_index = {address: i for i, address in enumerate(exits.tolist())}
    pair_sets = {pair: set() for pair in pairs}
    per_as = {}
    for record in records:
        circuit = g_index[record.guard] * len(exits) + e_index[record.exit]
        key = (record.src_session, record.dst_session)
        if key in pair_sets:
            pair_sets[key].add(circuit)
        per_as.setdefault(record.as_number, set()).add(circuit)
    return CompromiseSummary(
        pair_circuits={p: np.array(sorted(s), dtype=np.int64) for p, s in pair_sets.items()},
        total_circuits=circuit_universe(RelayIndex(relays)),
        per_as_circuits={a: np.array(sorted(s), dtype=np.int64) for a, s in per_as.items()},
        guards=guards,
        exits=exits,
    )


def circuit_pairs(summary, ids) -> set:
    """Circuit ids of a summary as (guard, exit) address pairs."""
    n_exits = len(summary.exits)
    return {(int(summary.guards[i // n_exits]), int(summary.exits[i % n_exits])) for i in ids}


def oracle_ccdf(summary):
    """The churn CCDF points, counting the pairs at or above each level
    with a full scan per level; no pairs, no points."""
    if not summary.pair_circuits:
        return []
    fractions = sorted(summary.fraction(p) * 100.0 for p in summary.pair_circuits)
    points = [(0.0, 100.0)]
    for value in sorted(set(fractions)):
        if value == 0.0:
            continue
        at_least = sum(1 for f in fractions if f >= value)
        points.append((value, 100.0 * at_least / len(fractions)))
    return points


# --- reference statistics and artifact comparison ---------------------------------


def spearman(x, y) -> float:
    """Spearman's rank coefficient: Pearson correlation of average ranks,
    one pair of series at a time (correlate_all's reference)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatchError(f"lengths differ: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise LengthMismatchError("need at least 3 samples")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise ConstantInputError("constant input vector")
    return float(rx @ ry) / denom


def artifacts_equal(a, b) -> bool:
    """Whether two artifact files hold the same bytes apart from written_at."""
    return normalized_bytes(a) == normalized_bytes(b)


# --- per-record trace format oracle ----------------------------------------------


def packet_table(rows):
    """PacketTable from (ts, Direction, seq, ack, payload_len[, flag names]) rows."""
    rows = [tuple(row) + ((),) * (6 - len(row)) for row in rows]
    return PacketTable(
        ts=[row[0] for row in rows],
        direction=[DIRECTIONS.index(row[1]) for row in rows],
        seq=[row[2] for row in rows],
        ack=[row[3] for row in rows],
        payload_len=[row[4] for row in rows],
        flags=[
            sum(1 << _FLAG_NAMES.index(name) for name in set(row[5])) for row in rows
        ],
    )


def observation_to_record(table, i):
    """One row as the per-record writer built it, before columns."""
    record = {
        "ts": round(float(table.ts[i]), 6),
        "dir": DIRECTIONS[table.direction[i]].value,
        "seq": int(table.seq[i]),
        "ack": int(table.ack[i]),
        "len": int(table.payload_len[i]),
    }
    flags = {name for bit, name in enumerate(_FLAG_NAMES) if int(table.flags[i]) >> bit & 1}
    if flags:
        record["flags"] = sorted(flags)
    return record


def oracle_trace_text(table) -> str:
    """Trace JSONL written record by record with json.dumps."""
    return "".join(
        json.dumps(observation_to_record(table, i), sort_keys=True) + "\n"
        for i in range(len(table))
    )


def oracle_read_columns(path) -> dict:
    """Trace JSONL read line by line with json.loads, as column lists."""
    columns = {"ts": [], "direction": [], "seq": [], "ack": [], "payload_len": [], "flags": []}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "_meta" in record:
                continue
            columns["ts"].append(float(record["ts"]))
            columns["direction"].append(DIRECTIONS.index(Direction(record["dir"])))
            columns["seq"].append(int(record["seq"]))
            columns["ack"].append(int(record["ack"]))
            columns["payload_len"].append(int(record["len"]))
            columns["flags"].append(
                sum(1 << _FLAG_NAMES.index(name) for name in set(record.get("flags", ())))
            )
    return columns


def _unwrap_loop(values):
    out = [values[0]]
    for prev, cur in zip(values, values[1:]):
        step = (cur - prev) % 2**32
        out.append(out[-1] + (step - 2**32 if step > 2**31 else step))
    return out


def brute_pick_direction(table, data: bool):
    """Packet-by-packet direction choice: most payload bytes (data) or the
    furthest-advancing ack counter, ties to declaration order."""
    best = None
    for code, direction in enumerate(DIRECTIONS):
        rows = [i for i in range(len(table)) if table.direction[i] == code]
        if not rows:
            continue
        if data:
            score = sum(int(table.payload_len[i]) for i in rows)
        else:
            acks = _unwrap_loop([int(table.ack[i]) for i in rows])
            score = max(acks) - acks[0]
        if best is None or score > best[0]:
            best = (score, direction)
    return best[1]


def brute_progress_deltas(table, data: bool, direction, bin_width, window, t0):
    """Per-bin deltas of running-max byte progress, one packet at a time."""
    code = DIRECTIONS.index(direction)
    rows = [i for i in range(len(table)) if table.direction[i] == code]
    counters = _unwrap_loop([int((table.seq if data else table.ack)[i]) for i in rows])
    progress, best = [], None
    for counter, i in zip(counters, rows):
        bytes_ = int(table.payload_len[i]) if data and not int(table.flags[i]) & 0b11 else 0
        best = counter + bytes_ if best is None else max(best, counter + bytes_)
        progress.append((float(table.ts[i]), best - counters[0]))
    deltas, previous = [], 0
    for b in range(1, max(1, math.ceil(round(window / bin_width, 9))) + 1):
        edge = t0 + bin_width * b
        at_edge = 0
        for ts, value in progress:
            if ts <= edge:
                at_edge = value
        deltas.append(float(at_edge - previous))
        previous = at_edge
    return deltas


# --- per-hop traceroute resolution oracle -----------------------------------------


_PRIVATE = BucketTable(_PRIVATE_BLOCKS.entries())


def oracle_resolve_traceroute(hops, mapping):
    """resolve_traceroute hop by hop: a timeout or an unmapped hop sets the
    gap flag, a private hop is skipped, and an AS is kept at its first hop."""
    if not hops:
        raise EmptyPathError("traceroute produced no hops")
    mapped = BucketTable(mapping.entries())
    ases = []
    gap = False
    for hop in hops:
        if hop == "*":
            gap = True
            continue
        address = ip_to_int(hop)
        if _PRIVATE.lookup(address):
            continue
        asn = mapped.lookup(address)
        if asn is None:
            gap = True
            continue
        if asn not in ases:
            ases.append(asn)
    return tuple(ases), gap


def oracle_load_traceroutes(path, mapping):
    """load_traceroutes line by line, as text mode splits the file: each
    non-blank line through json.loads and hand checks, its hops resolved
    by oracle_resolve_traceroute; the first bad line raises InputError."""
    paths = []
    roles = {role.value: role for role in PathRole}
    with open(path, encoding="utf-8", newline="") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                role = roles.get(record["role"].upper())
                if role is None:
                    raise ValueError(f"unknown role {record['role']!r}")
                fields = [record[key] for key in ("probe", "target", "day")]
                for key, value in zip(("probe", "target", "day"), fields):
                    if type(value) is not str:
                        raise TypeError(f"{key} must be a string, not {type(value).__name__}")
                fields[2].encode()
                hops = record["hops"]
                if type(hops) is not list:
                    raise TypeError(f"hops must be a list of strings, not {type(hops).__name__}")
                if any(type(hop) is not str for hop in hops):
                    raise TypeError("hops must be a list of strings")
                ases, gap = oracle_resolve_traceroute(hops, mapping)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
                    PathError) as exc:
                raise InputError(f"{path}:{line_no}: bad traceroute record: {exc!r}") from None
            probe, target, day = fields
            paths.append(AsLevelPath(probe, target, role, day, ases, gap))
    return paths


def table_rows(table):
    """The AsLevelPath of each row of a PathTable."""
    return [
        AsLevelPath(table.names[probe], table.names[target], ROLES[role], table.days[day],
                    tuple(table.ases[lo:hi].tolist()), bool(gap))
        for probe, target, role, day, lo, hi, gap in zip(
            table.probe.tolist(), table.target.tolist(), table.role.tolist(),
            table.day.tolist(), table.offsets[:-1].tolist(), table.offsets[1:].tolist(),
            table.gap.tolist(),
        )
    ]


# --- per-quad path vulnerability oracle ------------------------------------------


class MissingPathError(PathError):
    pass


class VulnerabilityMode(Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"


_PAIRINGS = {
    VulnerabilityMode.SYMMETRIC: (
        (PathRole.P1_CLIENT_TO_GUARD, PathRole.P3_EXIT_TO_DEST),
    ),
    VulnerabilityMode.ASYMMETRIC: (
        (PathRole.P1_CLIENT_TO_GUARD, PathRole.P3_EXIT_TO_DEST),
        (PathRole.P1_CLIENT_TO_GUARD, PathRole.P4_DEST_TO_EXIT),
        (PathRole.P2_GUARD_TO_CLIENT, PathRole.P3_EXIT_TO_DEST),
        (PathRole.P2_GUARD_TO_CLIENT, PathRole.P4_DEST_TO_EXIT),
    ),
}


def as_set(path) -> frozenset:
    return frozenset(path.ases)


def vulnerable(paths, mode, exclusions=frozenset()):
    """Does any pairing of the quad's paths (role -> AsLevelPath) share an AS
    outside exclusions? Returns the verdict together with the witnessing
    ASes across all qualifying pairings."""
    witnesses = set()
    for role_a, role_b in _PAIRINGS[mode]:
        if role_a not in paths or role_b not in paths:
            raise MissingPathError(f"missing {role_a.value} or {role_b.value}")
        witnesses |= (as_set(paths[role_a]) & as_set(paths[role_b])) - exclusions
    return bool(witnesses), frozenset(witnesses)


def endpoint_ases(paths) -> frozenset:
    """The quad's own endpoint ASes: the first AS of each non-empty path."""
    return frozenset(path.ases[0] for path in paths.values() if path.ases)




def oracle_vulnerability_timeseries(
    paths, exclusions=frozenset(), exclude_endpoint_ases=False
):
    """vulnerability_timeseries quad by quad and day by day: each of a
    quad's four paths is looked up backwards from the day (persistence),
    and `vulnerable` judges the quad."""
    P1, P2, P3, P4 = PathRole
    days = sorted({p.day for p in paths})
    by_day = {}
    for path in paths:
        by_day.setdefault(path.day, {})[(path.role, path.probe, path.target)] = path

    def ends(forward, reverse, forward_end, reverse_end):
        return sorted(
            {getattr(p, forward_end) for p in paths if p.role is forward}
            | {getattr(p, reverse_end) for p in paths if p.role is reverse}
        )

    quads = [
        (c, g, e, d)
        for c in ends(P1, P2, "probe", "target")
        for g in ends(P1, P2, "target", "probe")
        for e in ends(P3, P4, "probe", "target")
        for d in ends(P3, P4, "target", "probe")
    ]
    if not quads:
        return []
    ever_vulnerable = set()
    rows = []
    sym_day1 = 0.0
    for day_index, day in enumerate(days):
        n_sym = n_asym = n_eval = inherited_total = 0
        for quad in quads:
            c, g, e, d = quad
            wanted = {P1: (c, g), P2: (g, c), P3: (e, d), P4: (d, e)}
            found, inherited = {}, 0
            for role, (probe, target) in wanted.items():
                for back in range(day_index, -1, -1):
                    candidate = by_day.get(days[back], {}).get((role, probe, target))
                    if candidate is not None:
                        found[role] = candidate
                        inherited += back != day_index
                        break
            if len(found) < 4:
                continue
            n_eval += 1
            inherited_total += inherited
            quad_exclusions = exclusions
            if exclude_endpoint_ases:
                quad_exclusions = exclusions | endpoint_ases(found)
            if vulnerable(found, VulnerabilityMode.ASYMMETRIC, quad_exclusions)[0]:
                n_asym += 1
                ever_vulnerable.add(quad)
            if day_index == 0:
                n_sym += vulnerable(found, VulnerabilityMode.SYMMETRIC, quad_exclusions)[0]
        if day_index == 0:
            sym_day1 = 100.0 * n_sym / len(quads)
        rows.append(
            DayVulnerability(
                day=day,
                pct_symmetric_day1=sym_day1,
                pct_asymmetric=100.0 * n_asym / len(quads),
                pct_asymmetric_cumulative=100.0 * len(ever_vulnerable) / len(quads),
                n_quads=n_eval,
                n_inherited_paths=inherited_total,
            )
        )
    return rows


def is_more_specific_of(candidate: IpPrefix, incumbent: IpPrefix) -> bool:
    """True iff candidate lies inside incumbent and is strictly longer."""
    return incumbent.covers(candidate.base) and candidate.length > incumbent.length


def oracle_more_specific_monitor(updates, relays, window):
    """Linear-scan more-specific monitor: every announcement is compared
    with every live (session, prefix) route, and every withdrawal scans
    every open hit. Spans are clipped to the window; a span left empty is
    dropped."""
    index = RelayIndex(relays)
    live = {}
    hits = {}
    open_hits = {}
    for update in updates:
        key = (update.session, update.prefix)
        if not covers_any(index, update.prefix):
            continue
        if update.path is None:
            live.pop(key, None)
            for (session, prefix, origin), since in list(open_hits.items()):
                if session == update.session and prefix == update.prefix:
                    hits.setdefault((prefix, origin), []).append((since, update.timestamp))
                    del open_hits[(session, prefix, origin)]
            continue
        origin = update.path.origin
        for (session, incumbent), path in live.items():
            if session != update.session:
                continue
            if is_more_specific_of(update.prefix, incumbent) and path.origin != origin:
                open_hits.setdefault((update.session, update.prefix, origin), update.timestamp)
                break
        live[key] = update.path
    for (session, prefix, origin), since in open_hits.items():
        hits.setdefault((prefix, origin), []).append((since, window[1]))
    alerts = []
    for (prefix, origin), spans in sorted(hits.items(), key=lambda i: (i[0][0], i[0][1])):
        spans = [
            (max(start, window[0]), min(end, window[1]))
            for start, end in spans
            if not (end < window[0] or start > window[1])
        ]
        if not spans:
            continue
        alerts.append(_alert(
            index, Heuristic.MORE_SPECIFIC, prefix, origin, float(len(spans)),
            merge_intervals(spans),
        ))
    return alerts



def oracle_time_heuristic(updates, relays, window, threshold):
    """Replay loop for the lifetime heuristic: one open route per (session,
    prefix), closed by a withdrawal or a path change, clipped to the window
    and unioned per (prefix, path). Updates must be sorted by timestamp."""
    index = RelayIndex(relays)
    t_lo, t_hi = window
    open_routes = {}
    spans = {}

    def close(session, prefix, at):
        current = open_routes.pop((session, prefix), None)
        if current is None:
            return
        path, since = current
        start, end = max(since, t_lo), min(at, t_hi)
        if start < end:
            spans.setdefault((prefix, path), []).append((start, end))

    for update in updates:
        if update.timestamp >= t_hi:
            break
        if not covers_any(index, update.prefix):
            continue
        if update.path is None:
            close(update.session, update.prefix, update.timestamp)
            continue
        current = open_routes.get((update.session, update.prefix))
        if current is not None and current[0] == update.path:
            continue
        close(update.session, update.prefix, update.timestamp)
        open_routes[(update.session, update.prefix)] = (update.path, update.timestamp)
    for (session, prefix), (path, since) in list(open_routes.items()):
        start = max(since, t_lo)
        if start < t_hi:
            spans.setdefault((prefix, path), []).append((start, t_hi))
    alerts = []
    for (prefix, path), raw in sorted(spans.items(), key=lambda i: (i[0][0], i[0][1].ases)):
        merged = merge_intervals(raw)
        fraction = sum(end - start for start, end in merged) / (t_hi - t_lo)
        if 0.0 < fraction < threshold:
            alerts.append(_alert(index, Heuristic.TIME, prefix, path.origin, fraction, merged))
    return alerts


# --- AS-aware guard selection ------------------------------------------------------


class NoAdmissibleGuardError(Exception):
    pass


def as_aware_select(guard_paths, exit_paths, current_path=None):
    """Guards whose historical client-side ASes avoid the exit-side ASes.

    guard_paths maps each candidate to the AS paths seen toward it over
    the lookback period; exit_paths is the exit-to-destination history. A
    guard is admissible when the union of its path ASes is disjoint from
    the union of exit-side ASes. Admissible guards are ordered by the
    length of the current path (last historical entry unless overridden),
    shorter first, so callers can prefer nearby guards.
    """
    exit_ases = set()
    for path in exit_paths:
        exit_ases.update(path.ases)
    admissible = []
    for guard in sorted(guard_paths):
        history = guard_paths[guard]
        if not history:
            continue
        seen = set()
        for path in history:
            seen.update(path.ases)
        if seen & exit_ases:
            continue
        reference = (current_path or {}).get(guard, history[-1])
        admissible.append((len(reference), guard))
    if not admissible:
        raise NoAdmissibleGuardError("every candidate shares an AS with the exit side")
    admissible.sort()
    return [guard for _, guard in admissible]


# --- per-tick traffic allocation oracle --------------------------------------------


def oracle_tick_allocation(scenario: TrafficScenario, rng: np.random.Generator) -> np.ndarray:
    """Realized bytes per flow per tick as an n_pairs x ticks matrix, each
    bottleneck group water-filled tick by tick: the oracle of the simulator's
    one column per second."""
    n = scenario.n_pairs
    n_secs = math.ceil(scenario.duration)
    n_ticks = int(round(scenario.duration / TICK))
    spread = math.log(scenario.rate_spread)
    flow_rate = scenario.base_rate * np.exp(rng.uniform(-spread, spread, size=n))
    jitter = np.exp(
        rng.uniform(
            math.log(scenario.jitter_low),
            math.log(scenario.jitter_high),
            size=(n, n_secs),
        )
    )
    per_tick = np.repeat(flow_rate[:, None] * jitter, int(round(1 / TICK)), axis=1)
    per_tick = per_tick[:, :n_ticks] * TICK
    for group in scenario.guard_groups + scenario.exit_groups:
        members = list(group.flows)
        per_tick[members] = _waterfill(per_tick[members], group.capacity * TICK)
    return per_tick


# --- routing scenarios: a fixture and a by-construction oracle ---------------------


def _legit_timeline(
    scenario: RoutingScenario,
) -> dict[tuple[str, IpPrefix], list[tuple[float, tuple[int, ...] | None]]]:
    """Per (session, parsed prefix): time-ordered (since, path) changes,
    events excluded, ties in emission order (the base routes sorted by
    session and prefix text, then the churn). A None path means withdrawn
    from that time on."""
    timeline: dict[tuple[str, IpPrefix], list[tuple[float, tuple[int, ...] | None]]] = {}
    t0 = scenario.window[0]
    for route in sorted(scenario.base_routes, key=lambda r: (r.session, r.prefix)):
        timeline.setdefault((route.session, IpPrefix.parse(route.prefix)), []).append(
            (t0, route.path)
        )
    for change in scenario.churn:
        timeline.setdefault((change.session, IpPrefix.parse(change.prefix)), []).append(
            (change.time, change.path)
        )
    for changes in timeline.values():
        changes.sort(key=lambda item: item[0])
    return timeline


def _legit_path_at(
    timeline, session: str, prefix: IpPrefix, t: float
) -> tuple[int, ...] | None:
    current = None
    for since, path in timeline.get((session, prefix), ()):
        if since <= t:
            current = path
        else:
            break
    return current


def _ranks(values, key) -> np.ndarray:
    """Each value's position in sorted(values, key=key)."""
    order = sorted(range(len(values)), key=lambda i: key(values[i]))
    positions = np.empty(len(values), dtype=np.int64)
    positions[order] = np.arange(len(values))
    return positions


def oracle_gen_updates(scenario: RoutingScenario) -> tuple[UpdateTable, RoutingGroundTruth]:
    """simulate.gen_updates row by row: each update emitted through one
    interner in emission order, then sorted by (timestamp, session rank,
    prefix rank), ties in emission order; a hijack's restore path is read
    off the per-(session, prefix) timeline."""
    timeline = _legit_timeline(scenario)
    t0, _ = scenario.window
    ids = UpdateIds()
    prefix_ids: dict[str, int] = {}  # each prefix text is parsed once
    path_ids: dict[tuple[int, ...] | None, int] = {None: -1}
    rows: list[tuple[float, int, int, int]] = []

    def emit(ts, session, prefix, path):
        if prefix not in prefix_ids:
            prefix_ids[prefix] = ids.prefix_id(IpPrefix.parse(prefix))
        if path not in path_ids:
            path_ids[path] = ids.path_id(path_ases(path))
        rows.append((ts, ids.session_id(session), prefix_ids[prefix], path_ids[path]))

    for route in sorted(scenario.base_routes, key=lambda r: (r.session, r.prefix)):
        emit(t0, route.session, route.prefix, route.path)
    for change in scenario.churn:
        emit(change.time, change.session, change.prefix, change.path)
    session_ids = sorted(s.session_id for s in scenario.sessions)
    for event in scenario.events:
        end = event.start + event.duration
        for session in session_ids:
            emit(event.start, session, event.prefix, event.attacker_path)
            if event.kind == "hijack":
                legit = _legit_path_at(timeline, session, IpPrefix.parse(event.prefix), end)
                emit(end, session, event.prefix, legit)
            else:
                emit(end, session, event.prefix, None)
    table = ids.table(rows)
    order = np.lexsort((
        _ranks(table.prefixes, prefix_key)[table.prefix],
        _ranks(table.sessions, str)[table.session],
        table.ts,
    ))
    return table.take(order), RoutingGroundTruth(list(scenario.events))


def _effective_paths_at(
    scenario: RoutingScenario, timeline, session: str, t: float
) -> dict[IpPrefix, tuple[int, ...]]:
    """Live (prefix -> path) on a session at time t, events included."""
    live: dict[IpPrefix, tuple[int, ...]] = {}
    prefixes = {prefix for (sid, prefix) in timeline if sid == session}
    for prefix in prefixes:
        path = _legit_path_at(timeline, session, prefix, t)
        if path is not None:
            live[prefix] = path
    for event in scenario.events:
        start, end = event.window
        if start <= t < end:
            live[IpPrefix.parse(event.prefix)] = event.attacker_path
    return live


def planted_compromised(
    scenario: RoutingScenario,
    min_overlap: float = 30.0,
) -> set[tuple[int, str, int, str, int]]:
    """(AS, src, guard, dst, exit) keys compromised by construction.

    Walks the declared timeline second by second without touching the
    update emission or RIB machinery, so it is an independent check of the
    whole ingest-plus-analysis pipeline on small scenarios.
    """
    timeline = _legit_timeline(scenario)
    t0, t1 = scenario.window
    local = {s.session_id: s.local_as for s in scenario.sessions}
    admitted = [r for r in scenario.relays if r.is_guard or r.is_exit]
    counts: dict[tuple[int, str, int, str, int], int] = {}
    sessions = sorted(local)
    for t in range(int(t0), int(t1)):
        on_path: dict[tuple[str, int], set[int]] = {}
        for session in sessions:
            live = _effective_paths_at(scenario, timeline, session, float(t))
            for relay in admitted:
                covering = [
                    (prefix, path) for prefix, path in live.items() if prefix.covers(relay.address)
                ]
                if covering:
                    best = max(covering, key=lambda item: item[0].length)
                    on_path[(session, relay.address)] = set(AsPath(best[1]).ases)
                else:
                    on_path[(session, relay.address)] = set()
        for src in sessions:
            for dst in sessions:
                if src == dst or local[src] == local[dst]:
                    continue
                for guard in admitted:
                    if not guard.is_guard:
                        continue
                    g_ases = on_path[(src, guard.address)]
                    if not g_ases:
                        continue
                    for exit_ in admitted:
                        if not exit_.is_exit or exit_.address == guard.address:
                            continue
                        for asn in g_ases & on_path[(dst, exit_.address)]:
                            key = (asn, src, guard.address, dst, exit_.address)
                            counts[key] = counts.get(key, 0) + 1
    return {key for key, seconds in counts.items() if seconds > 0 and seconds >= min_overlap}


def random_routing_scenario(
    seed: int,
    n_sessions: int = 3,
    n_relays: int = 6,
    n_ases: int = 5,
    n_churn: int = 10,
    window: tuple[float, float] = (0.0, 60.0),
    n_events: int = 0,
) -> RoutingScenario:
    """Small random scenario for property suites; integer change times.

    Up to n_events hijacks and interceptions are drawn after everything
    else, so a seed gives the same routes and churn whatever n_events; a
    drawn event that validate() would reject is dropped."""
    rng = np.random.default_rng(seed)
    relays = []
    for i in range(n_relays):
        role = rng.integers(0, 3)
        relays.append(
            RelayDescriptor(
                address=ip_to_int(f"10.{i}.0.{int(rng.integers(1, 250))}"),
                is_guard=role in (0, 2),
                is_exit=role in (1, 2),
                bandwidth=float(rng.integers(1, 100)),
                nickname=f"r{i}",
            )
        )
    prefixes = [f"10.{i}.0.0/16" for i in range(n_relays)] + ["10.0.0.0/8"]
    sessions = tuple(
        SessionSpec(f"s{k}", 64500 + int(rng.integers(0, 3))) for k in range(n_sessions)
    )
    as_pool = list(range(101, 101 + n_ases))

    def random_path():
        length = int(rng.integers(1, 4))
        return tuple(int(rng.choice(as_pool)) for _ in range(length))

    base = []
    for spec in sessions:
        for prefix in rng.choice(prefixes, size=min(3, len(prefixes)), replace=False):
            base.append(RouteSpec(spec.session_id, str(prefix), random_path()))
    churn = []
    times = sorted(int(rng.integers(1, int(window[1]) - 1)) for _ in range(n_churn))
    for t in times:
        spec = sessions[int(rng.integers(0, n_sessions))]
        prefix = str(rng.choice(prefixes))
        if rng.random() < 0.25:
            churn.append(ChurnEvent(float(t), spec.session_id, prefix, None))
        else:
            churn.append(ChurnEvent(float(t), spec.session_id, prefix, random_path()))
    events: list[InjectedEvent] = []
    for _ in range(n_events):
        victim = IpPrefix.parse(str(rng.choice(prefixes)))
        if rng.random() < 0.5:
            kind, prefix = "hijack", str(victim)
        else:
            kind, prefix = "interception", str(IpPrefix(victim.base, victim.length + 1))
        attacker = random_path()
        start = float(rng.integers(int(window[0]), int(window[1]) - 1))
        end = min(start + float(rng.integers(1, 10)), window[1])
        if any(start <= c.time <= end for c in churn if c.prefix == prefix) or any(
            e.prefix == prefix and start < e.window[1] and e.start < end for e in events
        ):
            continue
        events.append(InjectedEvent(kind, prefix, attacker, start, end - start))
    return RoutingScenario(
        seed=seed,
        window=window,
        sessions=sessions,
        relays=tuple(relays),
        base_routes=tuple(base),
        churn=tuple(churn),
        events=tuple(events),
    )
