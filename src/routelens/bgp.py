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

import numpy as np

from .artifacts import replacing
from .core import (
    MAX_ASN,
    IpPrefix,
    RelayIndex,
    RouteEntry,
    VantageSession,
    parse_path,
    quads_at,
)
from .textcols import (
    _MAX_FIELD, _POW10, PAD, Texts, _digit_values, by_line, field_windows, fast_rows, read_lines,
    text_rows, windows,
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
    its tuple. Rows given out of time order are stably sorted by ts, so
    rows at equal timestamps keep the order they were given in.
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


def prefix_key(prefix: IpPrefix) -> tuple[int, int]:
    """IpPrefix order as a plain tuple, which sorts without dataclass comparisons."""
    return prefix.base, prefix.length


# --- reading: the writer's line shape by columns, csv for any other line -------
#
# parse_updates decodes a line by columns when it has the fast shape, the
# one write_updates writes:
#
#   TS,SESSION,KIND,PREFIX,PATH
#
# Every byte is printable ASCII but '"', so csv splits the line at its
# four commas. TS is -?D+(.D+)? (D a digit) in at most 24 bytes with at
# most 19 digits; SESSION is 1-64 bytes with no space at either end;
# PREFIX is a canonical quad (core.quads_at), '/' and a length of one or
# two digits at most 32; KIND is A with a PATH of single-space-separated
# runs of 1-10 digits worth at most MAX_ASN, in at most 240 bytes, or W
# with an empty PATH. The per-line grammar (_parse_row) reads every such
# line to the same values. TS is its mantissa over 10**f, both exact as
# doubles while the mantissa is below 2**53, so one correctly rounded
# division gives float(TS); a longer mantissa goes through float().
#
# The frame is textcols' (read_lines, fast_rows, by_line), and one Texts
# per field decodes each distinct session, prefix and path text once,
# across blocks and files. Any other line (quotes, comments, a header,
# spaces, an exponent, a wrong field count, ...) is read by csv.reader and
# _parse_row at csv's row number, which is its line number unless a
# quoted cell ran over several lines before it.

_TS_BYTES, _SESSION_BYTES, _PATH_BYTES = 24, 64, _MAX_FIELD
_PREFIX_BYTES = 18  # "255.255.255.255/32"
_ASN_DIGITS = 10
_EXACT = 2**53  # a mantissa below it is exact as a double
_POW10_FLOAT = 10.0 ** np.arange(20)  # exact doubles


def _rows_any(mask: np.ndarray) -> np.ndarray:
    """Per row of a boolean array of whole 8-byte words, whether any is set."""
    words = mask.view(np.uint64)
    hit = words[:, 0] != 0
    for column in range(1, words.shape[1]):
        hit |= words[:, column] != 0
    return hit


def _packed_prefix(prefix: IpPrefix) -> int:
    """An IpPrefix as one int, base and length: how the reader keeps prefixes."""
    return prefix.base << 6 | prefix.length


def _prefix_rows(rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, list[int], bool]:
    """The canonical PREFIX fields, their _packed_prefix values, and whether
    each is spelled as str(IpPrefix) spells it."""
    n = np.arange(len(rows))
    at = (rows == ord("/")).argmax(axis=1)
    digits = lengths - at - 1
    tens, ones = (
        rows[n, np.minimum(at + k, rows.shape[1] - 1)].astype(np.int64) - ord("0") for k in (1, 2)
    )
    length = np.where(digits == 2, tens * 10 + ones, tens)
    addresses, canonical = quads_at(rows.ravel(), n * rows.shape[1], n * rows.shape[1] + at)
    ok = np.flatnonzero(
        canonical & (digits >= 1) & (digits <= 2) & (tens >= 0) & (tens <= 9)
        & ((digits == 1) | ((ones >= 0) & (ones <= 9))) & (length <= 32)
    )
    address, length = addresses[ok], length[ok]
    base = address & (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF  # host bits zeroed
    octets = base >> np.array([[24], [16], [8], [0]]) & 255
    spelled = (octets >= 10).sum(axis=0) + (octets >= 100).sum(axis=0) + 9 + (length >= 10)
    injective = bool((base == address).all() and (spelled == lengths[ok]).all())
    return ok, (base << 6 | length).tolist(), injective


def _path_rows(
    rows: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, ...]], bool]:
    """The PATH fields of the fast shape, their path_ases, and whether no
    two of those fields spell one path (no prepends, no leading zeros)."""
    n, width = rows.shape
    digit = rows - np.uint8(ord("0"))
    is_digit = digit < 10
    space = rows == ord(" ")
    ok = ~_rows_any(~(is_digit | space) & (rows != 0)) & is_digit[:, 0]
    ok &= is_digit[np.arange(n), lengths - 1]
    flat, space = is_digit.ravel(), space.ravel()  # a row ends in a NUL, so no run spans rows
    ok[np.flatnonzero(space[1:] & space[:-1]) // width] = False
    edges = np.diff(flat.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    begins = np.flatnonzero(edges == 1)  # digit runs
    size = np.flatnonzero(edges == -1) - begins
    row = begins // width
    ok[row[size > _ASN_DIGITS]] = False
    leading_zero = (digit.ravel()[begins] == 0) & (size > 1)
    size = np.minimum(size, _ASN_DIGITS)
    longest = int(size.max(initial=1))
    digits = np.concatenate([(digit * is_digit).ravel(), np.zeros(longest, np.uint8)])
    asn = _digit_values(windows(digits, begins, longest), size)
    ok[row[asn > MAX_ASN]] = False
    kept = ok[row]
    kept[1:] &= (row[1:] != row[:-1]) | (asn[1:] != asn[:-1])  # prepends collapsed
    injective = not (ok[row] & (leading_zero | ~kept)).any()
    row, asn = row[kept], asn[kept]
    count = np.bincount(row, minlength=n)
    offset = np.cumsum(count) - count
    # the paths of each length at once, zipped from their AS columns
    good = np.flatnonzero(ok)
    index, values = [], []
    for size in np.flatnonzero(np.bincount(count[good])).tolist():
        paths = good[count[good] == size]
        index.append(paths)
        values += zip(*(asn[offset[paths] + k].tolist() for k in range(size)))
    order = np.argsort(np.concatenate(index or [good]), kind="stable")
    return good, list(map(values.__getitem__, order.tolist())), injective


def _timestamps(rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float(TS) of each TS field of the fast shape, given as
    field_windows rows, and which fields have it."""
    n = len(rows)
    mantissa = np.zeros(n, dtype=np.uint64)
    n_digits, fraction, points = (np.zeros(n, dtype=np.int64) for _ in range(3))
    negative = rows[:, 0] == ord("-")
    bad = np.zeros(n, dtype=bool)
    for column in range(rows.shape[1]):
        byte = rows[:, column]
        digit = byte - np.uint8(ord("0"))
        is_digit = digit < 10
        point = byte == ord(".")
        bad |= ~(is_digit | point | (byte == 0) | (negative if column == 0 else False))
        mantissa = np.where(is_digit, mantissa * np.uint64(10) + digit, mantissa)
        n_digits += is_digit
        fraction += is_digit & (points > 0)
        points += point
    ok = (
        ~bad & (n_digits <= 19) & (n_digits > fraction)
        & ((points == 0) | ((points == 1) & (fraction >= 1)))
    )
    value = mantissa.astype(np.float64) / _POW10_FLOAT[np.minimum(fraction, 19)]
    for row in np.flatnonzero(ok & (mantissa >= _EXACT)).tolist():
        value[row] = abs(float(rows[row, :lengths[row]].tobytes()))  # the sign comes next
    return np.where(negative, -value, value), ok


def _fast_fields(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """The lines [starts, ends) of data whose bytes and field lengths fit
    the fast shape (indices into starts), with the byte before each of
    their five fields and their end (start - 1, four commas, end), and the
    lengths of the fields."""
    lo, hi = starts[0], ends[-1]
    chunk = data[lo:hi]
    commas = np.flatnonzero(chunk == ord(",")) + lo
    # '"' and every byte but printable ASCII: no line of the shape holds one
    odd = np.flatnonzero((chunk - np.uint8(0x20) > 0x7E - 0x20) | (chunk == ord('"'))) + lo
    first = np.searchsorted(commas, starts)
    line = np.flatnonzero(
        (np.searchsorted(commas, ends) - first == 4)
        & (np.searchsorted(odd, ends) == np.searchsorted(odd, starts))
    )
    bounds = np.empty((len(line), 6), dtype=np.int64)
    bounds[:, 0] = starts[line] - 1
    bounds[:, 1:5] = commas[first[line, None] + np.arange(4)]
    bounds[:, 5] = ends[line]
    lengths = np.diff(bounds, axis=1) - 1
    ts_len, session_len, kind_len, prefix_len, path_len = lengths.T
    kind = data[bounds[:, 2] + 1]
    ok = np.flatnonzero(
        (ts_len >= 1) & (ts_len <= _TS_BYTES)
        & (session_len >= 1) & (session_len <= _SESSION_BYTES)
        & (data[bounds[:, 1] + 1] != ord(" ")) & (data[bounds[:, 2] - 1] != ord(" "))
        & (kind_len == 1) & (prefix_len <= _PREFIX_BYTES)
        & np.where(kind == ord("A"), (path_len >= 1) & (path_len <= _PATH_BYTES),
                   (kind == ord("W")) & (path_len == 0))
    )
    return line[ok], bounds[ok], lengths[ok]


def _fast_lines(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, texts) -> tuple:
    """The lines [starts, ends) of data in the fast shape (indices into
    starts) and their columns: ts, and session, prefix and path codes
    into texts (path -1 for a withdrawal)."""
    sessions, prefixes, paths = texts
    line, bounds, lengths = _fast_fields(data, starts, ends)
    at = bounds[:, :5] + 1  # the first byte of each field
    ts_len, session_len, _, prefix_len, path_len = lengths.T
    ts, ok = _timestamps(field_windows(data, at[:, 0], ts_len), ts_len)
    session = sessions.of_rows(field_windows(data, at[:, 1], session_len), session_len)
    prefix = prefixes.of_rows(field_windows(data, at[:, 3], prefix_len), prefix_len)
    path = np.full(len(line), -1, dtype=np.int64)
    announce = np.flatnonzero(data[at[:, 2]] == ord("A"))
    path[announce] = paths.of_rows(
        field_windows(data, at[announce, 4], path_len[announce]), path_len[announce]
    )
    ok[announce[path[announce] < 0]] = False
    ok &= (session >= 0) & (prefix >= 0)
    return line[ok], ts[ok], session[ok], prefix[ok], path[ok]


def _session(text: str) -> str:
    if not text.strip():
        raise ValueError("empty session id")
    return text.strip()


def _parse_row(row: list[str], texts) -> tuple[float, int, int, int]:
    """ts and session, prefix and path codes of one csv row, by the
    per-line grammar; ValueError names what is wrong."""
    sessions, prefixes, paths = texts
    if len(row) != 5:
        raise ValueError(f"expected 5 fields, got {len(row)}")
    stamp, session, kind, prefix, path = row
    timestamp = float(stamp)
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp must be finite, not {stamp!r}")
    if "_" in stamp or not stamp.isascii():
        raise ValueError(f"timestamp must be an ASCII decimal, not {stamp!r}")
    session = sessions.of_text(session, _session)
    kind = kind.strip().upper()
    if kind not in ("A", "W"):
        raise ValueError(f"kind must be A or W, not {row[2]!r}")
    prefix = prefixes.of_text(prefix, lambda text: _packed_prefix(IpPrefix.parse(text)))
    path = path.strip()
    if kind == "W":
        if path:
            raise ValueError("withdrawal carries a path")
        return timestamp, session, prefix, -1
    return timestamp, session, prefix, paths.of_text(path, parse_path)


def _slow_rows(source: str, raw: bytes, starts: np.ndarray, size: int, is_fast: np.ndarray,
               texts, issues: list[ParseIssue]) -> list[tuple]:
    """(line, ts, session, prefix, path codes) of each good csv row that
    starts on a line off the fast shape, by the per-line grammar; a bad
    row is added to issues. is_fast has a slot past the last line; lines a
    quoted cell runs over are cleared in it."""
    bounds = np.append(starts[1:], size)  # each line with its end
    rows = []
    past = merged = 0  # the first line no row has read; lines read past a row's first
    for at in np.flatnonzero(~is_fast[:-1]).tolist():
        if at < past:
            continue
        reader = csv.reader(raw[starts[k]:bounds[k]].decode() for k in range(at, len(starts)))
        while not is_fast[at + reader.line_num]:
            begin = at + reader.line_num
            row = next(reader, None)
            if row is None:
                break
            past = at + reader.line_num
            is_fast[begin + 1:past] = False
            line_no = begin + 1 - merged  # csv's row number
            merged += past - begin - 1
            if not row or row[0].startswith("#"):
                continue
            try:
                rows.append((begin, *_parse_row(row, texts)))
            except ValueError as exc:
                # a header line fails on its timestamp (or its field count) and is skipped
                if [cell.strip().lower() for cell in row[:2]] != ["timestamp", "session"]:
                    issues.append(ParseIssue(source, line_no, str(exc), ",".join(row)))
    return rows


def parse_updates(*sources) -> tuple[UpdateTable, list[ParseIssue]]:
    """Parse the update CSV files, schema timestamp,session,kind,prefix,path,
    into one table over one set of ids.

    timestamp is finite and an ASCII decimal (float() alone would also
    take "_" separators and non-ASCII digits; text it rejects keeps its
    message); kind is A or W, and only A carries a path, a
    space-separated AS list (quoted when written by csv). Lines of the
    writer's shape (above) are decoded by columns, any other line by
    csv.reader and the per-line grammar; each malformed line becomes a
    ParseIssue at csv's row number instead of being silently dropped.
    Each distinct session, prefix and path text is decoded once, and ids
    follow the first appearance of each value in the kept rows, file by
    file. Rows are stably sorted by timestamp, so at equal timestamps an
    earlier file's rows come first and each file keeps its line order.
    """
    texts = (Texts(text_rows), Texts(_prefix_rows), Texts(_path_rows))
    parts = [(np.empty(0), *(np.empty(0, np.int64),) * 3)]
    issues: list[ParseIssue] = []
    for source in sources:
        with read_lines(source, "update file") as (raw, data, starts, ends):
            is_fast, line, *columns = fast_rows(
                lambda starts, ends: _fast_lines(data, starts, ends, texts), starts, ends,
                (np.float64, np.int64, np.int64, np.int64),
            )
            slow = _slow_rows(str(source), raw, starts, len(raw) - PAD, is_fast, texts, issues)
        kept = is_fast[line]  # a quoted cell of a slow line may run over fast lines
        slow_line, *slow_columns = zip(*slow) if slow else ((),) * 5
        parts.append(by_line(line[kept], [c[kept] for c in columns], slow_line, slow_columns))
    ts, *codes = map(np.concatenate, zip(*parts))
    (session, sessions), (prefix, prefixes), (path, paths) = map(Texts.ids, texts, codes)
    prefixes = [IpPrefix(key >> 6, key & 63) for key in prefixes]
    return UpdateTable(ts, session, prefix, path, sessions, prefixes, paths), issues


def _spelling(ts: float) -> str:
    """f"{ts:g}" when float() reads it back exactly, else repr(ts)."""
    text = f"{ts:g}"
    return text if float(text) == ts or ts != ts else repr(ts)


def write_updates(path, table: UpdateTable) -> None:
    prefixes = [str(prefix) for prefix in table.prefixes]
    # as str(AsPath) spells them; path id -1 reads ""
    paths = [" ".join(map(str, ases)) for ases in table.path_ases] + [""]
    # each distinct bit pattern spelled once (-0.0 and 0.0 are spelled apart)
    bits, inverse = np.unique(table.ts.view(np.int64), return_inverse=True)
    spelled = [_spelling(ts) for ts in bits.view(np.float64).tolist()]
    with replacing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "session", "kind", "prefix", "path"])
        writer.writerows(
            [spelled[t], table.sessions[s], "W" if a < 0 else "A", prefixes[p], paths[a]]
            for t, s, p, a in zip(
                inverse.tolist(), table.session.tolist(), table.prefix.tolist(),
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
    index: RelayIndex,
    local_as: dict[str, int] | None = None,
) -> dict[str, SessionRib]:
    """Per-session RIBs of the routes in table (route_spans), one per
    session in order of its first update.

    The session's local AS comes from local_as when provided, otherwise it
    is inferred as the first AS of the first path announced on the session
    (the BGP neighbor), falling back to 0 for sessions that only withdraw.
    """
    rows, ends = route_spans(table, index)
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
        entry = RouteEntry(ts, None if end == math.inf else end, prefix, table.path_ases[path])
        if entry.t_end is None:
            rib.live[prefix] = entry
        else:
            rib.history.setdefault(prefix, []).append(entry)
    return ribs
