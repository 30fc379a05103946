"""Forward/reverse AS-path vulnerability from traceroute measurements.

Four path families describe a circuit: client to guard (P1), guard to
client (P2), exit to destination (P3), destination to exit (P4). A quad
is symmetric-vulnerable when P1 and P3 share an AS, and asymmetric-
vulnerable when any of the four forward/reverse combinations does, which
is what routing asymmetry buys the adversary.

Both tests factor over the quad's (client, guard) and (exit, dest)
units: the four pairings share an AS iff (P1 ∪ P2) ∩ (P3 ∪ P4) ≠ ∅, and
exclusions split per side, (A ∩ B) ∖ (X ∪ E_cg ∪ E_ed) =
(A ∖ X ∖ E_cg) ∩ (B ∖ X ∖ E_ed), with X the global exclusion set and
E_cg, E_ed each side's endpoint ASes. So one day of all quads is one
boolean matrix product of unit rows over an AS column index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, repeat
from operator import eq

import numpy as np

from .core import InputError, IpPrefix, PrefixTable, ip_to_int_many, quads_at
from .textcols import (
    Texts, by_line, fast_rows, field_windows, read_lines, starts_with, text_rows, windows,
)


class PathError(Exception):
    pass


class EmptyPathError(PathError):
    pass


class PathRole(Enum):
    P1_CLIENT_TO_GUARD = "P1"
    P2_GUARD_TO_CLIENT = "P2"
    P3_EXIT_TO_DEST = "P3"
    P4_DEST_TO_EXIT = "P4"


ROLES = tuple(PathRole)  # a role code indexes this tuple
_ROLE_CODES = {role.value: code for code, role in enumerate(ROLES)}

_PRIVATE_BLOCKS = PrefixTable()
for _block in ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "127.0.0.0/8", "169.254.0.0/16"):
    _PRIVATE_BLOCKS.insert(IpPrefix.parse(_block), True)
_PRIVATE_BLOCKS.freeze()


@dataclass(frozen=True)
class AsLevelPath:
    probe: str
    target: str
    role: PathRole
    day: str
    ases: tuple[int, ...]
    gap: bool  # True when some hop had no AS mapping


@dataclass(eq=False)
class PathTable:
    """AS-level paths as columns, one row per traceroute.

    role is a code into ROLES; probe and target index names, day indexes
    days, both lists sorted and holding only what some row uses. Row i's
    ASes are ases[offsets[i]:offsets[i + 1]] in hop order, each once, and
    gap[i] is set when some hop timed out or had no AS mapping.
    """

    role: np.ndarray
    probe: np.ndarray
    target: np.ndarray
    day: np.ndarray
    offsets: np.ndarray
    ases: np.ndarray
    gap: np.ndarray
    names: list[str]
    days: list[str]

    def __len__(self) -> int:
        return len(self.role)

    @classmethod
    def of(cls, rows: list[AsLevelPath]) -> PathTable:
        """The table of a row list, row i being rows[i]."""
        names = sorted({p.probe for p in rows} | {p.target for p in rows})
        days = sorted({p.day for p in rows})
        name_id = {name: i for i, name in enumerate(names)}
        day_id = {day: i for i, day in enumerate(days)}
        lengths = np.fromiter((len(p.ases) for p in rows), dtype=np.int64, count=len(rows))
        return cls(
            role=np.array([ROLES.index(p.role) for p in rows], dtype=np.int8),
            probe=np.array([name_id[p.probe] for p in rows], dtype=np.int64),
            target=np.array([name_id[p.target] for p in rows], dtype=np.int64),
            day=np.array([day_id[p.day] for p in rows], dtype=np.int64),
            offsets=np.concatenate(([0], np.cumsum(lengths))),
            ases=np.array([asn for p in rows for asn in p.ases], dtype=np.int64),
            gap=np.array([p.gap for p in rows], dtype=bool),
            names=names,
            days=days,
        )


def _resolve(
    record: np.ndarray, timeout: np.ndarray, address: np.ndarray, n_records: int,
    mapping: PrefixTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR offsets, ASes and gap flags of n_records traceroutes, from the
    record, timeout flag and address of every hop, hops grouped by record
    in hop order.

    Timeouts and unmapped hops are omitted and set the gap flag;
    private-address hops are omitted silently; an AS is kept at its first
    hop only.
    """
    distinct, entry_number = np.unique(
        np.array([asn for _, asn in mapping.entries()], dtype=np.int64), return_inverse=True
    )
    at, address = record[~timeout], address[~timeout]
    private = _PRIVATE_BLOCKS.lookup_many(address) >= 0
    entry = mapping.lookup_many(address)
    gap = np.zeros(n_records, dtype=bool)
    gap[record[timeout]] = True
    gap[at[~private & (entry < 0)]] = True
    mapped = ~private & (entry >= 0)
    at, number = at[mapped], entry_number[entry[mapped]]
    # the first sighting of each (record, AS) in hop order, records staying in order
    _, first = np.unique(at * len(distinct) + number, return_index=True)
    first.sort()
    offsets = np.searchsorted(at[first], np.arange(n_records + 1))
    return offsets, distinct[number[first]], gap


def _check_hops(hops) -> list:
    """hops, if a non-empty list; else raise."""
    if type(hops) is not list:
        raise TypeError(f"hops must be a list of strings, not {type(hops).__name__}")
    if not hops:
        raise EmptyPathError("traceroute produced no hops")
    return hops


def _hop_arrays(hop_lists: list[list]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The record, timeout flag ("*") and address (0 at a timeout) of every
    hop of some checked hop lists. A hop that is not a string raises
    TypeError, and one that is neither "*" nor an address ValueError."""
    hops = list(chain.from_iterable(hop_lists))
    record = np.repeat(np.arange(len(hop_lists)), [len(hops) for hops in hop_lists])
    timeout = np.fromiter(map(eq, hops, repeat("*")), dtype=bool, count=len(hops))
    address = np.zeros(len(hops), dtype=np.int64)
    try:
        address[~timeout] = ip_to_int_many(list(compress(hops, (~timeout).tolist())))
    except TypeError:
        raise TypeError("hops must be a list of strings") from None
    return record, timeout, address


def resolve_traceroute(hops: list[str], mapping: PrefixTable) -> tuple[tuple[int, ...], bool]:
    """Map one traceroute's hop IPs to an AS-level path and its gap flag;
    the rules are _check_hops', _hop_arrays' and _resolve's."""
    _, ases, gap = _resolve(*_hop_arrays([_check_hops(hops)]), 1, mapping)
    return tuple(ases.tolist()), bool(gap[0])


# --- reading: one fast byte shape by columns, any other line by json.loads -------
#
# The fast shape is what json.dumps(record, sort_keys=True) writes when
# every string is printable ASCII without a quote or backslash:
#
#   {"day": "D", "hops": ["H", "H", ...], "probe": "P", "role": "R", "target": "T"}
#
# so the whole line is printable ASCII without a backslash, and D, P and T
# are at most _MAX_TEXT bytes. With no quote inside a string, a line's
# quotes are its structure: a line with n hops (n >= 1) holds 18 + 2n,
# and each literal below, matched at the quote it starts with, pins every
# byte up to the quote opening the next string. Each hop of such a line
# must be "*" or a quad that quads_at reads, and R one of P1..P4 in either
# case. Every other line is read by json.loads and checked by _record,
# which names the first fault. The frame is textcols': D, P and T of every
# line get codes from one Texts, and hops are resolved a block at a time.

_DAY_KEY = b'{"day": "'
_HOPS_KEY = b'", "hops": ["'
_PROBE_KEY = b'"], "probe": "'
_ROLE_KEY = b'", "role": "'
_TARGET_KEY = b'", "target": "'
_MAX_TEXT = 64  # bytes of the longest day, probe or target read by columns


def _fast_lines(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, texts: Texts,
                mapping: PrefixTable) -> tuple:
    """The lines [starts, ends) of data in the fast shape (indices into
    starts) and their columns: role codes; day, probe and target codes
    into texts; AS counts; the ASes of all of them, in line order; and
    gap flags (_resolve)."""
    lo, hi = starts[0], ends[-1]
    chunk = data[lo:hi]
    quotes = np.flatnonzero(chunk == ord('"')) + lo
    # a backslash and every byte but printable ASCII: no line of the shape holds one
    odd = np.flatnonzero((chunk - np.uint8(0x20) > 0x7E - 0x20) | (chunk == ord("\\"))) + lo
    first = np.searchsorted(quotes, starts)
    n_quotes = np.searchsorted(quotes, ends) - first
    line = np.flatnonzero(
        (n_quotes >= 20) & (n_quotes % 2 == 0)
        & (np.searchsorted(odd, ends) == np.searchsorted(odd, starts))
    )
    line = line[starts_with(windows(data, starts[line], len(_DAY_KEY)), _DAY_KEY)]
    q, n_hops = first[line], (n_quotes[line] - 18) // 2
    last = q + 5 + 2 * n_hops  # the quote closing the last hop

    def literal(at, text):
        return starts_with(windows(data, quotes[at], len(text)), text)

    text_at = np.stack([q + 2, last + 3, last + 11])  # the quotes opening day, probe and target
    text_start, text_len = quotes[text_at] + 1, quotes[text_at + 1] - quotes[text_at] - 1
    role_at, close = quotes[last + 7] + 1, quotes[last + 12]
    ok = (
        (text_len <= _MAX_TEXT).all(axis=0)
        & literal(q + 3, _HOPS_KEY) & literal(last, _PROBE_KEY)
        & literal(last + 4, _ROLE_KEY) & literal(last + 8, _TARGET_KEY)
        & (data[close + 1] == ord("}")) & (close + 2 == ends[line])
        & (quotes[last + 8] - role_at == 2) & ((data[role_at] | 0x20) == ord("p"))
        & (data[role_at + 1] - np.uint8(ord("1")) < len(ROLES))
    )
    hop_line = np.repeat(np.arange(len(line)), n_hops)
    number = np.arange(len(hop_line)) - (np.cumsum(n_hops) - n_hops)[hop_line]
    opening = q[hop_line] + 6 + 2 * number  # the quote opening the hop
    hop_start, hop_end = quotes[opening] + 1, quotes[opening + 1]
    timeout = (hop_end - hop_start == 1) & (data[hop_start] == ord("*"))
    address, canonical = quads_at(data[lo:hi], hop_start - lo, hop_end - lo)
    # a hop but the last is followed by ", " and the next hop's quote
    separated = (
        (data[hop_end + 1] == ord(",")) & (data[hop_end + 2] == ord(" "))
        & (quotes[opening + 2] == hop_end + 3)
    )
    bad = ~(timeout | canonical) | ((number < n_hops[hop_line] - 1) & ~separated)
    ok[hop_line[bad]] = False
    keep = ok[hop_line]
    offsets, ases, gap = _resolve(
        (np.cumsum(ok) - 1)[hop_line[keep]], timeout[keep], address[keep], int(ok.sum()), mapping
    )
    text_start, text_len = text_start[:, ok].ravel(), text_len[:, ok].ravel()
    return (
        line[ok], (data[role_at[ok] + 1] - np.uint8(ord("1"))).astype(np.int8),
        *np.split(texts.of_rows(field_windows(data, text_start, text_len), text_len), 3),
        np.diff(offsets), ases, gap,
    )


def _record(text: str) -> tuple:
    """(role code, day, probe, target, hops) of one line's JSON record; the
    first fault but a bad address raises."""
    record = json.loads(text)
    role = _ROLE_CODES.get(record["role"].upper())
    if role is None:
        raise ValueError(f"unknown role {record['role']!r}")
    probe, target, day = record["probe"], record["target"], record["day"]
    for key, value in (("probe", probe), ("target", target), ("day", day)):
        if type(value) is not str:
            raise TypeError(f"{key} must be a string, not {type(value).__name__}")
    day.encode()  # the series writes the day: a lone surrogate ("\ud800") raises here
    return role, day, probe, target, _check_hops(record["hops"])


def _slow_records(path, raw: bytes, starts: np.ndarray, ends: np.ndarray, is_fast: np.ndarray,
                  texts: Texts) -> tuple:
    """The line, role code, and day, probe and target codes into texts of
    the record on each non-blank line off the fast shape, and the record,
    timeout flag and address of each of their hops; the first bad line
    raises InputError."""
    slow = []  # (line, role code, day code, probe code, target code, hops)

    def bad(at, exc):
        return InputError(f"{path}:{at + 1}: bad traceroute record: {exc!r}")

    def slow_hops():
        try:
            return _hop_arrays([hops for *_, hops in slow])
        except (ValueError, TypeError):
            for at, *_, hops in slow:  # find the first bad record
                try:
                    _hop_arrays([hops])
                except (ValueError, TypeError) as exc:
                    raise bad(at, exc) from None
            raise

    slow_at = np.flatnonzero(~is_fast[:-1])
    for at, start, end in zip(slow_at.tolist(), starts[slow_at].tolist(), ends[slow_at].tolist()):
        text = raw[start:end].decode().strip()
        if not text:
            continue
        try:
            role, day, probe, target, hops = _record(text)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError, PathError) as exc:
            slow_hops()  # a bad hop on an earlier line is reported first
            raise bad(at, exc) from None
        codes = [texts.of_text(field, str) for field in (day, probe, target)]
        slow.append((at, role, *codes, hops))
    columns = list(zip(*slow)) if slow else [()] * 6
    return (*columns[:5], slow_hops())


def _sorted_ids(texts: Texts, *columns: np.ndarray) -> tuple[list[str], list[np.ndarray]]:
    """The sorted distinct texts of the codes in columns, and per column the
    index of each code's text among them."""
    ids, values = texts.ids(np.concatenate(columns))
    order = sorted(range(len(values)), key=values.__getitem__)
    rank = np.argsort(np.array(order, dtype=np.int64))  # each value's place in sorted order
    split = np.cumsum([len(column) for column in columns])[:-1]
    return [values[i] for i in order], np.split(rank[ids], split)


def load_traceroutes(path, mapping: PrefixTable) -> PathTable:
    """Read traceroute JSONL records {probe, target, role, day, hops}.

    probe, target and day are JSON strings, role one of P1..P4 in either
    case, and hops a non-empty list of addresses and "*" timeouts. Lines
    of the fast shape (above) are decoded from the file's bytes by
    columns, a block of lines at a time, any other line by json.loads;
    blank lines are skipped. An unusable record raises InputError naming
    the file and the first bad line, counted as text mode counts lines.
    """
    texts = Texts(text_rows)
    with read_lines(path, "traceroute file") as (raw, data, starts, ends):
        is_fast, line, *fast, ases, gap = fast_rows(
            lambda starts, ends: _fast_lines(data, starts, ends, texts, mapping), starts, ends,
            (np.int8, np.int64, np.int64, np.int64, np.int64, np.int64, bool),
        )
        slow_line, *slow, hops = _slow_records(path, raw, starts, ends, is_fast, texts)
    slow_offsets, slow_ases, slow_gap = _resolve(*hops, len(slow_line), mapping)
    # rows in line order, and where each row's ASes start in ases
    role, day, probe, target, n_ases, at, gap = by_line(
        line, [*fast, np.cumsum(fast[-1]) - fast[-1], gap],
        slow_line, [*slow, np.diff(slow_offsets), len(ases) + slow_offsets[:-1], slow_gap],
    )
    offsets = np.concatenate(([0], np.cumsum(n_ases)))
    ases = np.concatenate([ases, slow_ases])[np.repeat(at - offsets[:-1], n_ases)
                                             + np.arange(offsets[-1])]
    names, (probe, target) = _sorted_ids(texts, probe, target)
    days, (day,) = _sorted_ids(texts, day)
    return PathTable(role, probe, target, day, offsets, ases, gap, names, days)


@dataclass
class DayVulnerability:
    day: str
    pct_symmetric_day1: float
    pct_asymmetric: float
    pct_asymmetric_cumulative: float
    n_quads: int
    n_inherited_paths: int


def _distinct(*arrays: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the arrays. (A plain np.unique or
    np.union1d imports numpy.ma, 20-35 ms in a fresh process.)"""
    return np.unique(np.concatenate(arrays), return_index=True)[0]


class PathDataset:
    """Daily path measurements as one path table, plus the four endpoint
    lists whose product is the quad set.

    Row i of the table is row i of the PathTable it is built from: key
    (the id of its (role, probe, target)), day_rank, its AS columns
    columns[offsets[i]:offsets[i + 1]] (indices into ases) and first, the
    column of its first AS or -1 for an empty path. order lists the last
    row of each key on each day, by day; order[day_bounds[d]:day_bounds[d + 1]]
    are day d's. clients, guards, exits and dests are sorted indices into
    names. The (client, guard) unit c * len(guards) + g has key id
    forward["cg"][unit] for its P1 and reverse["cg"][unit] for its P2
    path, and likewise forward["ed"]/reverse["ed"] for (exit, dest) units
    with P3 and P4; an id of n_keys means no such key.
    """

    def __init__(self, paths: PathTable | list[AsLevelPath]) -> None:
        table = PathTable.of(paths) if isinstance(paths, list) else paths
        self.names, self.days, self.day_rank = table.names, table.days, table.day
        n_names = len(table.names)
        _, key_row, self.key = np.unique(
            (table.role.astype(np.int64) * n_names + table.probe) * n_names + table.target,
            return_index=True, return_inverse=True,
        )
        self.n_keys = len(key_row)
        # the last measurement of each key on each day, in day order
        _, last = np.unique((self.key * len(self.days) + self.day_rank)[::-1], return_index=True)
        rows = len(table) - 1 - last
        self.order = rows[np.argsort(self.day_rank[rows], kind="stable")]
        self.day_bounds = np.searchsorted(self.day_rank[self.order], np.arange(len(self.days) + 1))

        self.ases = _distinct(table.ases)
        self.offsets = table.offsets
        self.columns = np.searchsorted(self.ases, table.ases)
        self.first = np.full(len(table), -1, dtype=np.int64)
        nonempty = np.flatnonzero(np.diff(self.offsets) > 0)
        self.first[nonempty] = self.columns[self.offsets[nonempty]]

        role, probe, target = table.role[key_row], table.probe[key_row], table.target[key_row]
        P1, P2, P3, P4 = range(len(ROLES))
        self.clients = _distinct(probe[role == P1], target[role == P2])
        self.guards = _distinct(target[role == P1], probe[role == P2])
        self.exits = _distinct(probe[role == P3], target[role == P4])
        self.dests = _distinct(target[role == P3], probe[role == P4])
        self.forward: dict[str, np.ndarray] = {}
        self.reverse: dict[str, np.ndarray] = {}
        for side, (forward, reverse, near, far) in {
            "cg": (P1, P2, self.clients, self.guards),
            "ed": (P3, P4, self.exits, self.dests),
        }.items():
            for keys, role_code, near_end, far_end in (
                (self.forward, forward, probe, target), (self.reverse, reverse, target, probe)
            ):
                ids = np.flatnonzero(role == role_code)
                unit = (np.searchsorted(near, near_end[ids]) * len(far)
                        + np.searchsorted(far, far_end[ids]))
                keys[side] = np.full(len(near) * len(far), self.n_keys, dtype=np.int64)
                keys[side][unit] = ids


def vulnerability_timeseries(
    dataset: PathDataset,
    exclusions: frozenset[int] = frozenset(),
    exclude_endpoint_ases: bool = False,
) -> list[DayVulnerability]:
    """Per-day percentages of vulnerable quads.

    exclude_endpoint_ases additionally discounts each quad's own endpoint
    ASes, the first AS of each of its paths (off by default: endpoints
    trivially sit on their own paths, but the conventional count keeps
    them).

    Three series: the day-1 symmetric rate held fixed (the conventional
    viewpoint), the same-day asymmetric rate, and the cumulative
    asymmetric rate counting a quad from the first day it was ever
    vulnerable. All percentages are over the full quad set; quads missing
    a required path even after persistence count as not vulnerable that
    day (n_quads reports how many were actually evaluable). The fixed
    denominator is what makes the cumulative series both monotone and
    pointwise at or above the per-day series.

    Persistence: a (role, probe, target) missing on a day inherits its
    most recent earlier measurement, kept as a key -> table row array
    that each day's rows overwrite. Each day, with A the (client, guard)
    rows of P1 ∪ P2 ∖ X ∖ E_cg and B the (exit, dest) rows of
    P3 ∪ P4 ∖ X ∖ E_ed, quad (cg, ed) is asymmetric-vulnerable iff
    (A @ B.T)[cg, ed] > 0 and both units have both paths; the day-1
    symmetric count is the same product over P1 and P3 rows, and the
    cumulative series ORs the daily verdicts. A quad's inherited paths
    are its two units', so counts follow from per-unit sums.
    """
    n_total = len(dataset.forward["cg"]) * len(dataset.forward["ed"])
    if not n_total:
        return []
    kept_column = np.array([asn not in exclusions for asn in dataset.ases.tolist()], dtype=bool)
    latest = np.full(dataset.n_keys + 1, -1, dtype=np.int64)  # the last slot: no such key

    def unit_rows(side, day_index):
        """0/1 AS rows of the forward paths and of forward ∪ reverse, which
        units have both paths, and how many paths of those are inherited."""
        there, back = latest[dataset.forward[side]], latest[dataset.reverse[side]]
        complete = (there >= 0) & (back >= 0)
        units = np.flatnonzero(complete)
        there, back = there[units], back[units]
        inherited = int((dataset.day_rank[there] != day_index).sum()
                        + (dataset.day_rank[back] != day_index).sum())
        ends = (dataset.first[there], dataset.first[back])
        forward_rows = np.zeros((len(complete), len(dataset.ases)), dtype=np.float32)
        union_rows = np.zeros_like(forward_rows)
        for path_rows, out in ((there, (forward_rows, union_rows)), (back, (union_rows,))):
            starts = dataset.offsets[path_rows]
            lengths = dataset.offsets[path_rows + 1] - starts
            owner = np.repeat(np.arange(len(units)), lengths)
            columns = dataset.columns[
                np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
            ]
            keep = kept_column[columns]
            if exclude_endpoint_ases:
                keep &= (columns != ends[0][owner]) & (columns != ends[1][owner])
            for matrix in out:
                matrix[units[owner[keep]], columns[keep]] = 1.0
        return forward_rows, union_rows, complete, inherited

    ever_vulnerable = np.zeros((len(dataset.forward["cg"]), len(dataset.forward["ed"])), dtype=bool)
    rows: list[DayVulnerability] = []
    sym_day1 = 0.0
    for day_index, day in enumerate(dataset.days):
        lo, hi = dataset.day_bounds[day_index], dataset.day_bounds[day_index + 1]
        measured = dataset.order[lo:hi]
        latest[dataset.key[measured]] = measured
        cg_forward, cg_union, cg_complete, cg_inherited = unit_rows("cg", day_index)
        ed_forward, ed_union, ed_complete, ed_inherited = unit_rows("ed", day_index)
        evaluable = np.outer(cg_complete, ed_complete)
        asymmetric = (cg_union @ ed_union.T > 0) & evaluable
        ever_vulnerable |= asymmetric
        if day_index == 0:
            symmetric = (cg_forward @ ed_forward.T > 0) & evaluable
            sym_day1 = 100.0 * int(symmetric.sum()) / n_total
        n_cg, n_ed = int(cg_complete.sum()), int(ed_complete.sum())
        rows.append(
            DayVulnerability(
                day=day,
                pct_symmetric_day1=sym_day1,
                pct_asymmetric=100.0 * int(asymmetric.sum()) / n_total,
                pct_asymmetric_cumulative=100.0 * int(ever_vulnerable.sum()) / n_total,
                n_quads=n_cg * n_ed,
                n_inherited_paths=cg_inherited * n_ed + ed_inherited * n_cg,
            )
        )
    return rows
