"""Relay concentration and hijack heuristics.

Detection is deliberately noisy-tolerant: false positives cost a relay a
short suspension, false negatives cost anonymity, so every heuristic
reports its score and the operator re-ranks. Alerts are merged per
(prefix, origin, heuristic) so a flapping announcement produces one alert
with an interval list instead of spam.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bgp import UpdateTable, prefix_key, route_spans
from .core import (
    MAX_ASN,
    IpPrefix,
    PrefixTable,
    RelayDescriptor,
    RelayIndex,
    csv_records,
    int_to_ip,
    merge_intervals_grouped,
)


class Heuristic(Enum):
    FREQUENCY = "frequency"
    TIME = "time"
    MORE_SPECIFIC = "more_specific"


@dataclass(frozen=True)
class HijackAlert:
    prefix: IpPrefix
    origin_as: int
    heuristic: Heuristic
    score: float
    windows: tuple[tuple[float, float], ...]
    guards: tuple[int, ...]  # affected relay addresses by role
    exits: tuple[int, ...]

    def overlaps(self, t_start: float, t_end: float) -> bool:
        return any(w0 <= t_end and t_start <= w1 for w0, w1 in self.windows)


def alert_to_record(alert: HijackAlert) -> dict:
    return {
        "prefix": str(alert.prefix),
        "origin_as": alert.origin_as,
        "heuristic": alert.heuristic.value,
        "score": alert.score,
        "windows": [list(w) for w in alert.windows],
        "guards": [int_to_ip(a) for a in alert.guards],
        "exits": [int_to_ip(a) for a in alert.exits],
    }


def _alert(
    index: RelayIndex, heuristic: Heuristic, prefix: IpPrefix, origin: int, score: float, windows
) -> HijackAlert:
    """An alert on prefix with its windows, naming the guard and exit relays it covers."""
    covered = index.covered_by(prefix)
    guards = tuple(r.address for r in covered if r.is_guard)
    exits = tuple(r.address for r in covered if r.is_exit)
    return HijackAlert(prefix, origin, heuristic, score, tuple(windows), guards, exits)


# --- concentration ------------------------------------------------------------


@dataclass(frozen=True)
class ConcentrationRow:
    asn: int
    percent_relays: float
    percent_bandwidth: float
    prefix_count: int
    relay_count: int


@dataclass
class ConcentrationReport:
    rows: list[ConcentrationRow]
    uncovered: list[RelayDescriptor]

    def cumulative(self, top: int) -> tuple[float, float, int]:
        """(percent relays, percent bandwidth, prefix count) of the top rows."""
        head = self.rows[:top]
        return (
            sum(r.percent_relays for r in head),
            sum(r.percent_bandwidth for r in head),
            sum(r.prefix_count for r in head),
        )


def _hosting_entries(
    relays: list[RelayDescriptor], origin_map: PrefixTable
) -> list[tuple[IpPrefix, int] | None]:
    """The most specific (prefix, origin) entry of the frozen origin_map
    covering each relay, or None, from one batch lookup."""
    entries = origin_map.entries()
    found = origin_map.lookup_many([relay.address for relay in relays])
    return [entries[i] if i >= 0 else None for i in found.tolist()]


def concentration(relays: list[RelayDescriptor], origin_map: PrefixTable) -> ConcentrationReport:
    """Group relays by the origin AS of their most-specific covering prefix.

    Relays with no covering prefix land in the uncovered report and are
    excluded from the percentages. Rows sort by relay share descending.
    """
    total_bw = 0.0
    covered: list[tuple[RelayDescriptor, IpPrefix, int]] = []
    uncovered: list[RelayDescriptor] = []
    for relay, found in zip(relays, _hosting_entries(relays, origin_map)):
        if found is None:
            uncovered.append(relay)
        else:
            prefix, asn = found
            covered.append((relay, prefix, int(asn)))
            total_bw += relay.bandwidth
    groups: dict[int, dict] = {}
    for relay, prefix, asn in covered:
        group = groups.setdefault(asn, {"relays": 0, "bw": 0.0, "prefixes": set()})
        group["relays"] += 1
        group["bw"] += relay.bandwidth
        group["prefixes"].add(prefix)
    n_covered = len(covered)
    rows = [
        ConcentrationRow(
            asn=asn,
            percent_relays=100.0 * g["relays"] / n_covered if n_covered else 0.0,
            percent_bandwidth=100.0 * g["bw"] / total_bw if total_bw else 0.0,
            prefix_count=len(g["prefixes"]),
            relay_count=g["relays"],
        )
        for asn, g in groups.items()
    ]
    rows.sort(key=lambda r: (-r.percent_relays, r.asn))
    return ConcentrationReport(rows, uncovered)


# --- cross reference of known events -------------------------------------------


@dataclass(frozen=True)
class HijackEvent:
    prefix: IpPrefix
    t_start: float
    t_end: float
    label: str = ""


def load_hijack_events(path) -> list[HijackEvent]:
    """Read a prefix,t_start,t_end,label CSV; a bad row raises InputError
    naming the file and line."""
    return csv_records(
        path, "event file", ("prefix", "t_start", "t_end"),
        lambda row: HijackEvent(
            IpPrefix.parse(row["prefix"]), float(row["t_start"]), float(row["t_end"]),
            row.get("label") or "",
        ),
    )


@dataclass(frozen=True)
class EventImpact:
    label: str
    prefixes: int
    relays: int
    guards: int
    exits: int


def cross_reference(events: list[HijackEvent], index: RelayIndex) -> list[EventImpact]:
    """Per event label: how many relays/guards/exits its prefixes cover.

    Counts deduplicate relays per event; dual-flagged relays count in both
    the guard and exit columns, so guards + exits >= relays.
    """
    by_label: dict[str, dict] = {}
    for event in events:
        group = by_label.setdefault(event.label, {"prefixes": 0, "relays": set()})
        group["prefixes"] += 1
        group["relays"].update(index.covered_by(event.prefix))
    impacts = []
    for label in sorted(by_label):
        hit = by_label[label]["relays"]
        impacts.append(
            EventImpact(
                label=label,
                prefixes=by_label[label]["prefixes"],
                relays=len(hit),
                guards=sum(1 for r in hit if r.is_guard),
                exits=sum(1 for r in hit if r.is_exit),
            )
        )
    return impacts


# --- detection heuristics -------------------------------------------------------


def frequency_heuristic(
    table: UpdateTable,
    index: RelayIndex,
    window: tuple[float, float],
    threshold: float = 0.00001,
    per_prefix_denominator: bool = True,
) -> list[HijackAlert]:
    """Flag origins that announce a relay-hosting prefix extremely rarely.

    Announcements at window[0] <= t < window[1] count. freq(origin,
    prefix) is the origin's share of the prefix's announcements (or of all
    announcements when per_prefix_denominator is off); an alert fires on
    freq strictly below the threshold. The counts are one grouped count
    over (prefix, origin), in prefix then origin order.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    rows = np.flatnonzero(
        (table.path >= 0) & (window[0] <= table.ts) & (table.ts < window[1])
        & table.tracked(index)[table.prefix]
    )
    keys = table.prefix[rows] * (MAX_ASN + 1) + table.origin[rows]
    groups, group_of, counts = np.unique(keys, return_inverse=True, return_counts=True)
    prefix_of = groups // (MAX_ASN + 1)
    if per_prefix_denominator:
        freqs = counts / np.bincount(table.prefix[rows], minlength=len(table.prefixes))[prefix_of]
    else:
        freqs = counts / len(rows)
    low = (freqs < threshold)[group_of]
    stamps = table.ts[rows[low]]
    group, start, end = merge_intervals_grouped(group_of[low], stamps, stamps, gap=3600.0)
    windows = list(zip(start.tolist(), end.tolist()))
    heads = np.searchsorted(group, np.arange(len(groups) + 1)).tolist()
    found = []  # (sort key, alert): by prefix, then origin
    for g in np.flatnonzero(freqs < threshold).tolist():
        prefix, origin = table.prefixes[prefix_of[g]], int(groups[g] % (MAX_ASN + 1))
        found.append(((prefix_key(prefix), origin), _alert(
            index, Heuristic.FREQUENCY, prefix, origin, freqs[g].item(),
            windows[heads[g]:heads[g + 1]],
        )))
    return [alert for _, alert in sorted(found, key=lambda item: item[0])]


def time_heuristic(
    table: UpdateTable,
    index: RelayIndex,
    window: tuple[float, float],
    threshold: float = 0.01,
) -> list[HijackAlert]:
    """Flag relay-hosting routes announced for a tiny slice of the window.

    A route is one (prefix, path); its lifetime is the union, across
    sessions, of its route spans (bgp.route_spans) clipped to the window,
    and the score is lifetime divided by window length (dimensionless,
    like the frequency score). Alerts fire strictly below the threshold,
    in prefix then path order.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    t_lo, t_hi = window
    length = t_hi - t_lo
    if length <= 0:
        raise ValueError("empty window")
    rows, ends = route_spans(table, index)
    start = np.maximum(table.ts[rows], t_lo)
    end = np.minimum(ends, t_hi)
    inside = start < end
    rows, start, end = rows[inside], start[inside], end[inside]
    n_paths = len(table.path_ases)
    route, start, end = merge_intervals_grouped(
        table.prefix[rows] * n_paths + table.path[rows], start, end
    )
    new = np.diff(route, prepend=-1) != 0
    heads = np.flatnonzero(new)
    tails = np.append(heads[1:], len(route))
    # bincount adds each route's spans in order, as the sum of a list would
    fractions = np.bincount(np.cumsum(new) - 1, weights=end - start) / length
    found = []  # (sort key, alert): by prefix, then path
    for g in np.flatnonzero((0.0 < fractions) & (fractions < threshold)).tolist():
        p, a = divmod(int(route[heads[g]]), n_paths)
        prefix, ases = table.prefixes[p], table.path_ases[a]
        spans = list(zip(start[heads[g]:tails[g]].tolist(), end[heads[g]:tails[g]].tolist()))
        found.append(((prefix_key(prefix), ases), _alert(
            index, Heuristic.TIME, prefix, ases[-1], fractions[g].item(), spans
        )))
    return [alert for _, alert in sorted(found, key=lambda item: item[0])]


def more_specific_monitor(
    table: UpdateTable,
    index: RelayIndex,
    window: tuple[float, float],
) -> list[HijackAlert]:
    """Flag foreign-origin announcements nested inside a live relay prefix.

    The announced prefix must itself cover a relay (those are the affected
    relays) and must be strictly more specific than some live prefix of
    the same session whose origin differs; a same-origin more-specific is
    ordinary traffic engineering. A hit opens at the first such
    announcement of its (session, prefix, origin) and stays open until the
    prefix is withdrawn on that session, or until the window's end. Spans
    are clipped to the window and a span left empty is dropped; the score
    is the number of spans. The monitor runs online, row by row, over ids,
    so rows at equal timestamps count in table order; the strictly shorter
    covers of each prefix id come from one PrefixTable query up front.
    """
    prefixes = table.prefixes
    ids = PrefixTable()
    for p, prefix in enumerate(prefixes):
        ids.insert(prefix, p)
    entry_id = np.array([p for _, p in ids.freeze().entries()], dtype=np.int64)
    at, found = ids.covering_many([prefix.base for prefix in prefixes])
    length = [prefix.length for prefix in prefixes]
    covers: list[list[int]] = [[] for _ in prefixes]  # per prefix id, longest first
    for p, cover in zip(at.tolist(), entry_id[found].tolist()):
        if length[cover] < length[p]:  # a longer prefix may share the base
            covers[p].append(cover)
    live: dict[int, dict[int, int]] = {}  # per session id: prefix id -> origin
    # (session, prefix id) -> {origin: since}
    open_hits: dict[tuple[int, int], dict[int, float]] = {}
    spans: dict[tuple[int, int], list[tuple[float, float]]] = {}  # (prefix id, origin) -> spans
    rows = np.flatnonzero(table.tracked(index)[table.prefix])
    for ts, session, p, origin in zip(
        table.ts[rows].tolist(), table.session[rows].tolist(), table.prefix[rows].tolist(),
        table.origin[rows].tolist(),
    ):
        key = (session, p)
        routes = live.setdefault(session, {})
        if origin < 0:  # a withdrawal
            routes.pop(p, None)
            for hit_origin, since in open_hits.pop(key, {}).items():
                spans.setdefault((p, hit_origin), []).append((since, ts))
            continue
        if any(routes.get(cover, origin) != origin for cover in covers[p]):
            open_hits.setdefault(key, {}).setdefault(origin, ts)
        routes[p] = origin
    t_lo, t_hi = window
    for (_, p), origins in open_hits.items():
        for origin, since in origins.items():
            spans.setdefault((p, origin), []).append((since, t_hi))
    keys = sorted(spans, key=lambda key: (prefix_key(prefixes[key[0]]), key[1]))
    key = np.repeat(np.arange(len(keys)), [len(spans[k]) for k in keys])
    start, end = np.array([span for k in keys for span in spans[k]]).reshape(-1, 2).T
    start, end = np.maximum(start, t_lo), np.minimum(end, t_hi)
    kept = start <= end
    n_spans = np.bincount(key[kept], minlength=len(keys)).tolist()  # the score
    key, start, end = merge_intervals_grouped(key[kept], start[kept], end[kept])
    windows = list(zip(start.tolist(), end.tolist()))
    heads = np.searchsorted(key, np.arange(len(keys) + 1)).tolist()
    return [
        _alert(index, Heuristic.MORE_SPECIFIC, prefixes[p], origin, float(n_spans[k]),
               windows[heads[k]:heads[k + 1]])
        for k, (p, origin) in enumerate(keys) if n_spans[k]
    ]


def run_all_heuristics(
    table: UpdateTable,
    relays: RelayIndex,
    window: tuple[float, float],
    frequency_threshold: float = 0.00001,
    time_threshold: float = 0.01,
    per_prefix_denominator: bool = True,
) -> list[HijackAlert]:
    """Union of the three detectors over guard/exit-relevant prefixes, all
    over the one given window."""
    index = relays.admitted()
    alerts = frequency_heuristic(
        table, index, window, frequency_threshold, per_prefix_denominator
    )
    alerts += time_heuristic(table, index, window, time_threshold)
    alerts += more_specific_monitor(table, index, window)
    return alerts


# --- prefix length distribution -------------------------------------------------


@dataclass
class PrefixLengthReport:
    histogram: dict[int, int]  # prefix length -> relay-hosting prefix count
    percent_hijackable: float  # strictly shorter than /24

    @property
    def total_prefixes(self) -> int:
        return sum(self.histogram.values())


def prefix_length_vulnerability(
    relays: list[RelayDescriptor], origin_map: PrefixTable
) -> PrefixLengthReport:
    """Length distribution of the prefixes that host relays.

    Prefixes shorter than /24 admit a globally propagated more-specific
    announcement, so their share is the headline number.
    """
    hosting = {found[0] for found in _hosting_entries(relays, origin_map) if found is not None}
    histogram: dict[int, int] = {}
    for prefix in hosting:
        histogram[prefix.length] = histogram.get(prefix.length, 0) + 1
    total = len(hosting)
    short = sum(count for length, count in histogram.items() if length < 24)
    return PrefixLengthReport(
        histogram=dict(sorted(histogram.items())),
        percent_hijackable=100.0 * short / total if total else 0.0,
    )
