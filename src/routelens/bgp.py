"""BGP update streams as column tables, and the routes they carry.

An update stream is one UpdateTable: per row a timestamp, a session, a
prefix and a path, with each distinct session, prefix and path stored
once and named by id, and rows in time order by construction.
parse_updates reads one or more update files into one table. route_spans
derives every session's routes from it: an announcement opens a route,
and the session's next withdrawal or path change of that prefix closes
it. Only prefixes covering at least one relay are tracked; everything
else is noise for these analyses. A session-reset filter drops
re-announcement bursts that would otherwise look like churn.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import replacing
from .core import (
    AsPath,
    IpPrefix,
    RelayDescriptor,
    RelayIndex,
    RouteEntry,
    VantageSession,
    parse_path,
    reading,
)


@dataclass(frozen=True)
class ParseIssue:
    source: str  # the file, as given to parse_updates
    line_no: int
    message: str
    raw: str

    def __str__(self) -> str:
        return f"{self.source}: line {self.line_no}: {self.message}: {self.raw}"


class UpdateTable:
    """An update stream as columns, one row per update, in time order.

    ts is float64; session, prefix and path are int64 ids into the
    sessions, prefixes and path_ases tuples, where a path id of -1 marks a
    withdrawal; origin is the path's origin AS, -1 for a withdrawal. Each
    prefix and each path (its ASes, prepends collapsed) appears once in
    its tuple; paths holds the same paths as AsPath values, built on first
    use. Rows given out of time order are stably sorted by ts, so rows at
    equal timestamps keep the order they were given in.
    """

    def __init__(self, ts, session, prefix, path, sessions, prefixes, path_ases) -> None:
        ts = np.asarray(ts, dtype=np.float64)
        order = np.argsort(ts, kind="stable") if (ts[1:] < ts[:-1]).any() else slice(None)
        self.ts = ts[order]
        self.session = np.asarray(session, dtype=np.int64)[order]
        self.prefix = np.asarray(prefix, dtype=np.int64)[order]
        self.path = np.asarray(path, dtype=np.int64)[order]
        self.sessions: tuple[str, ...] = tuple(sessions)
        self.prefixes: tuple[IpPrefix, ...] = tuple(prefixes)
        self.path_ases: tuple[tuple[int, ...], ...] = tuple(path_ases)
        # the appended -1 is what path id -1 indexes
        self.origin = np.array([a[-1] for a in self.path_ases] + [-1], dtype=np.int64)[self.path]

    @cached_property
    def paths(self) -> tuple[AsPath, ...]:
        return tuple(map(AsPath, self.path_ases))

    def __len__(self) -> int:
        return len(self.ts)

    def take(self, rows: np.ndarray) -> "UpdateTable":
        """The given rows over the same id tuples."""
        return UpdateTable(
            self.ts[rows], self.session[rows], self.prefix[rows], self.path[rows],
            self.sessions, self.prefixes, self.path_ases,
        )

    def tracked(self, index: RelayIndex) -> np.ndarray:
        """Per prefix id, whether the prefix covers a relay of index: whether
        a relay address lies in [base, base + 2**(32 - length))."""
        n = len(self.prefixes)
        base = np.fromiter((p.base for p in self.prefixes), np.int64, n)
        length = np.fromiter((p.length for p in self.prefixes), np.int64, n)
        first, past = np.searchsorted(index.addresses, (base, base + (1 << (32 - length))))
        return past > first


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


def prefix_key(prefix: IpPrefix) -> tuple[int, int]:
    """IpPrefix order as a plain tuple, which sorts without dataclass comparisons."""
    return prefix.base, prefix.length


def parse_updates(*sources) -> tuple[UpdateTable, list[ParseIssue]]:
    """Parse the update CSV files, schema timestamp,session,kind,prefix,path,
    into one table over one set of ids.

    timestamp is finite and an ASCII decimal, every spelling f"{ts:g}"
    writes (float() alone would also take "_" separators and non-ASCII
    digits; text it rejects keeps its message); kind is A or W, and only A
    carries a path, a space-separated AS list (quoted when written by
    csv). Malformed lines become ParseIssue diagnostics instead of being
    silently dropped. Each distinct prefix and path text is decoded once.
    Rows are stably sorted by timestamp, so at equal timestamps an earlier
    file's rows come first and each file keeps its line order.
    """
    ids = UpdateIds()
    # each text as written -> its id, so each distinct text is decoded once
    session_ids: dict[str, int] = {}
    prefix_ids: dict[str, int] = {}
    path_ids: dict[str, int] = {}
    kept: list[tuple[float, int, int, int]] = []
    issues: list[ParseIssue] = []
    for source in sources:
        with reading(source, "update file") as handle:
            for line_no, row in enumerate(csv.reader(handle), start=1):
                if not row or (row[0].startswith("#")):
                    continue
                try:
                    if len(row) != 5:
                        raise ValueError(f"expected 5 fields, got {len(row)}")
                    stamp, session, kind, prefix, path = row
                    timestamp = float(stamp)
                    if not math.isfinite(timestamp):
                        raise ValueError(f"timestamp must be finite, not {stamp!r}")
                    if "_" in stamp or not stamp.isascii():
                        raise ValueError(f"timestamp must be an ASCII decimal, not {stamp!r}")
                    session_id = session_ids.get(session)
                    if session_id is None:
                        if not session.strip():
                            raise ValueError("empty session id")
                        session_id = session_ids[session] = ids.session_id(session.strip())
                    kind = kind.strip().upper()
                    if kind not in ("A", "W"):
                        raise ValueError(f"kind must be A or W, not {row[2]!r}")
                    prefix_id = prefix_ids.get(prefix)
                    if prefix_id is None:
                        prefix_id = prefix_ids[prefix] = ids.prefix_id(IpPrefix.parse(prefix))
                    path = path.strip()
                    if kind == "W":
                        if path:
                            raise ValueError("withdrawal carries a path")
                        path_id = -1
                    else:
                        path_id = path_ids.get(path)
                        if path_id is None:
                            path_id = path_ids[path] = ids.path_id(parse_path(path))
                except ValueError as exc:
                    # a header line fails on its timestamp (or its field count) and is skipped
                    if [cell.strip().lower() for cell in row[:2]] != ["timestamp", "session"]:
                        issues.append(ParseIssue(str(source), line_no, str(exc), ",".join(row)))
                    continue
                kept.append((timestamp, session_id, prefix_id, path_id))
    return ids.table(kept), issues


def write_updates(path, table: UpdateTable) -> None:
    prefixes = [str(prefix) for prefix in table.prefixes]
    # as str(AsPath) spells them; path id -1 reads ""
    paths = [" ".join(map(str, ases)) for ases in table.path_ases] + [""]
    with replacing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "session", "kind", "prefix", "path"])
        writer.writerows(
            [f"{ts:g}", table.sessions[s], "W" if a < 0 else "A", prefixes[p], paths[a]]
            for ts, s, p, a in zip(
                table.ts.tolist(), table.session.tolist(), table.prefix.tolist(),
                table.path.tolist(),
            )
        )


def filter_session_resets(
    table: UpdateTable,
    quiet_gap: float = 3600.0,
    burst_window: float = 600.0,
) -> UpdateTable:
    """Drop session-reset artifacts: the kept rows, in order.

    After a per-session silence of at least quiet_gap, announcements inside
    the following burst_window that re-announce exactly the (prefix, path)
    that was live before the gap carry no information (the peer is dumping
    its table after a reset) and are removed. Everything else is retained.
    """
    last_seen: dict[int, float] = {}
    live: dict[int, dict[int, int]] = {}  # session -> prefix id -> path id
    burst_until: dict[int, float] = {}
    pre_gap: dict[int, dict[int, int]] = {}
    kept: list[int] = []
    columns = zip(
        table.ts.tolist(), table.session.tolist(), table.prefix.tolist(), table.path.tolist()
    )
    for row, (ts, session, prefix, path) in enumerate(columns):
        routes = live.setdefault(session, {})
        previous = last_seen.get(session)
        if previous is not None and ts - previous >= quiet_gap:
            burst_until[session] = ts + burst_window
            pre_gap[session] = dict(routes)
        last_seen[session] = ts
        if not (
            path >= 0
            and ts <= burst_until.get(session, -1.0)
            and pre_gap.get(session, {}).get(prefix) == path
        ):
            kept.append(row)
        if path < 0:
            routes.pop(prefix, None)
        else:
            routes[prefix] = path
    return table.take(np.array(kept, dtype=np.int64))


def route_spans(table: UpdateTable, index: RelayIndex) -> tuple[np.ndarray, np.ndarray]:
    """Every route of every session: (rows, ends), ordered by session id,
    prefix id and start.

    rows[k] is the table row of the announcement that opens route k, and
    ends[k] the timestamp of the next row of its (session, prefix) that
    withdraws it or changes its path, or inf while it stays live. An
    announcement of the live path opens nothing, and prefixes that cover
    no relay of index are not tracked.
    """
    rows = np.flatnonzero(table.tracked(index)[table.prefix])
    rows = rows[np.lexsort((table.prefix[rows], table.session[rows]))]  # stable
    session, prefix, path = table.session[rows], table.prefix[rows], table.path[rows]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (session[1:] != session[:-1]) | (prefix[1:] != prefix[:-1])
    # after any row the live path is that row's path id (-1 once withdrawn)
    before = np.empty_like(path)
    before[1:] = path[:-1]
    before[first] = -1
    changes = np.flatnonzero(path != before)
    # a change closes the route its (session, prefix) held, and an announcement opens one
    group = np.cumsum(first)
    ends = np.full(len(changes), np.inf)
    closed = np.flatnonzero(group[changes[1:]] == group[changes[:-1]])
    ends[closed] = table.ts[rows[changes[closed + 1]]]
    opens = path[changes] >= 0
    return rows[changes[opens]], ends[opens]


class SessionRib:
    """Routing state of one vantage session, built by ingest.

    live maps a prefix to its open entry and history to its closed
    entries, oldest first. An announcement with an unchanged path opens
    no entry, so the history records path changes only; that is exactly
    what the simultaneous-observation metric consumes.
    """

    def __init__(self, session: VantageSession) -> None:
        self.session = session
        self.live: dict[IpPrefix, RouteEntry] = {}
        self.history: dict[IpPrefix, list[RouteEntry]] = {}


def ingest(
    table: UpdateTable,
    relays: list[RelayDescriptor] | RelayIndex,
    local_as: dict[str, int] | None = None,
) -> dict[str, SessionRib]:
    """Per-session RIBs of the routes in table (route_spans), one per
    session in order of its first update.

    The session's local AS comes from local_as when provided, otherwise it
    is inferred as the first AS of the first path announced on the session
    (the BGP neighbor), falling back to 0 for sessions that only withdraw.
    """
    rows, ends = route_spans(table, RelayIndex.of(relays))
    announced = np.flatnonzero(table.path >= 0)
    codes, first = np.unique(table.session[announced], return_index=True)
    inferred = {
        table.sessions[code]: table.path_ases[path][0]
        for code, path in zip(codes.tolist(), table.path[announced[first]].tolist())
    }
    inferred.update(local_as or {})
    codes, first = np.unique(table.session, return_index=True)
    ribs = {
        table.sessions[code]: SessionRib(
            VantageSession(table.sessions[code], inferred.get(table.sessions[code], 0))
        )
        for code in codes[np.argsort(first)].tolist()
    }
    for ts, session, p, path, end in zip(
        table.ts[rows].tolist(), table.session[rows].tolist(), table.prefix[rows].tolist(),
        table.path[rows].tolist(), ends.tolist(),
    ):
        rib, prefix = ribs[table.sessions[session]], table.prefixes[p]
        if end == math.inf:
            rib.live[prefix] = RouteEntry(ts, None, prefix, table.paths[path])
        else:
            rib.history.setdefault(prefix, []).append(RouteEntry(ts, end, prefix, table.paths[path]))
    return ribs
