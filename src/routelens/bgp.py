"""BGP update ingestion and per-session routing state for relay prefixes.

Each vantage session maintains its own view: announcements open an
interval-annotated route entry, withdrawals and path changes close it.
Only prefixes covering at least one relay are tracked; everything else
is noise for these analyses. A session-reset filter drops re-announcement
bursts that would otherwise look like churn.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .artifacts import replacing
from .core import (
    AsPath,
    IpPrefix,
    PrefixTable,
    RelayDescriptor,
    RelayIndex,
    RouteEntry,
    VantageSession,
    reading,
)


class OutOfOrderError(Exception):
    pass


@dataclass(frozen=True)
class BgpUpdate:
    timestamp: float
    session: str
    prefix: IpPrefix
    path: AsPath | None  # None for withdrawals


@dataclass(frozen=True)
class ParseIssue:
    line_no: int
    message: str
    raw: str


def parse_updates(source) -> tuple[list[BgpUpdate], list[ParseIssue]]:
    """Parse the update CSV file source, schema timestamp,session,kind,prefix,path.

    timestamp is finite; kind is A or W, and only A carries a path, a
    space-separated AS list (quoted when written by csv). Malformed lines
    become ParseIssue diagnostics instead of being silently dropped. Output
    is stably sorted by timestamp, which preserves file order per session at
    equal timestamps.
    """
    updates: list[BgpUpdate] = []
    issues: list[ParseIssue] = []
    with reading(source, "update file") as handle:
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
                issues.append(ParseIssue(line_no, str(exc), ",".join(row)))
    updates.sort(key=lambda u: u.timestamp)
    return updates, issues


def write_updates(path, updates: Iterable[BgpUpdate]) -> None:
    with replacing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "session", "kind", "prefix", "path"])
        for update in updates:
            writer.writerow(
                [
                    f"{update.timestamp:g}",
                    update.session,
                    "W" if update.path is None else "A",
                    str(update.prefix),
                    "" if update.path is None else str(update.path),
                ]
            )


def filter_session_resets(
    updates: list[BgpUpdate],
    quiet_gap: float = 3600.0,
    burst_window: float = 600.0,
) -> list[BgpUpdate]:
    """Drop session-reset artifacts.

    After a per-session silence of at least quiet_gap, announcements inside
    the following burst_window that re-announce exactly the (prefix, path)
    that was live before the gap carry no information (the peer is dumping
    its table after a reset) and are removed. Everything else is retained.
    """
    last_seen: dict[str, float] = {}
    live: dict[tuple[str, IpPrefix], AsPath] = {}
    burst_until: dict[str, float] = {}
    pre_gap: dict[str, dict[tuple[str, IpPrefix], AsPath]] = {}
    kept: list[BgpUpdate] = []
    for update in updates:
        session = update.session
        previous = last_seen.get(session)
        if previous is not None and update.timestamp - previous >= quiet_gap:
            burst_until[session] = update.timestamp + burst_window
            pre_gap[session] = {
                key: path for key, path in live.items() if key[0] == session
            }
        last_seen[session] = update.timestamp

        drop = False
        if (
            update.path is not None
            and update.timestamp <= burst_until.get(session, -1.0)
            and pre_gap.get(session, {}).get((session, update.prefix)) == update.path
        ):
            drop = True

        key = (session, update.prefix)
        if update.path is None:
            live.pop(key, None)
        else:
            live[key] = update.path
        if not drop:
            kept.append(update)
    return kept


class SessionRib:
    """Single-writer routing state for one vantage session.

    Announcements with an unchanged path are no-ops, so the interval
    history records path changes only; that is exactly what the
    simultaneous-observation metric consumes. Every prefix that ever held
    an entry is indexed in a PrefixTable, so the entries covering an
    address come from one probe per prefix length present.
    """

    def __init__(self, session: VantageSession, relay_index: RelayIndex) -> None:
        self.session = session
        self._relays = relay_index
        self.live: dict[IpPrefix, RouteEntry] = {}
        self.history: dict[IpPrefix, list[RouteEntry]] = {}
        self.last_timestamp = float("-inf")
        self._prefixes = PrefixTable()  # prefix -> prefix, for every prefix with an entry

    def apply(self, update: BgpUpdate) -> None:
        if update.timestamp < self.last_timestamp:
            raise OutOfOrderError(
                f"update at {update.timestamp} before {self.last_timestamp} "
                f"on session {self.session.session_id}"
            )
        self.last_timestamp = update.timestamp
        if not self._relays.covers_any(update.prefix):
            return  # prefix hosts no relay: not tracked
        current = self.live.get(update.prefix)
        if update.path is None:
            if current is not None:
                current.t_end = update.timestamp
                self.history.setdefault(update.prefix, []).append(current)
                del self.live[update.prefix]
            return
        if current is not None:
            if current.path == update.path:
                return  # duplicate announcement: no information
            current.t_end = update.timestamp
            self.history.setdefault(update.prefix, []).append(current)
        self.live[update.prefix] = RouteEntry(
            t_start=update.timestamp,
            t_end=None,
            prefix=update.prefix,
            path=update.path,
        )
        self._prefixes.insert(update.prefix, update.prefix)

    def _entries_of(self, prefix: IpPrefix) -> list[RouteEntry]:
        """Closed history entries, then the open live entry, of one prefix."""
        live = self.live.get(prefix)
        return self.history.get(prefix, []) + ([live] if live is not None else [])

    def entries(self) -> Iterable[tuple[IpPrefix, RouteEntry]]:
        """Closed history entries plus open live entries, per prefix."""
        for prefix, _ in self._prefixes:
            for entry in self._entries_of(prefix):
                yield prefix, entry

    def entries_for_address(self, address: int) -> list[RouteEntry]:
        """Every entry whose prefix covers address, longest prefix first."""
        return [
            entry
            for prefix, _ in self._prefixes.covering(address, 33)
            for entry in self._entries_of(prefix)
        ]


def ingest(
    updates: Sequence[BgpUpdate],
    relays: list[RelayDescriptor] | RelayIndex,
    local_as: dict[str, int] | None = None,
) -> dict[str, SessionRib]:
    """Replay updates into per-session RIBs.

    The session's local AS comes from local_as when provided, otherwise it
    is inferred as the first AS of the first path announced on the session
    (the BGP neighbor), falling back to 0 for sessions that only withdraw.
    """
    index = RelayIndex.of(relays)
    inferred: dict[str, int] = {}
    for update in updates:
        if update.path is not None and update.session not in inferred:
            inferred[update.session] = update.path.ases[0]
    inferred.update(local_as or {})
    ribs: dict[str, SessionRib] = {}
    for update in updates:
        sid = update.session
        if sid not in ribs:
            ribs[sid] = SessionRib(VantageSession(sid, inferred.get(sid, 0)), index)
        ribs[sid].apply(update)
    return ribs
