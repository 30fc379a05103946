"""Compromise metric over per-session routing history.

An AS compromises a circuit for a (source session, destination session)
pair when it simultaneously sits on the forwarding path toward the guard
on one session and toward the exit on the other. Forwarding follows the
most-specific live entry, and intervals come straight from the RIB history.

The metric is one product per AS over elementary segments. The window is
cut at every endpoint of the AS's spans; each (source, guard) key is a 0/1
row over those segments, and so is each (destination, exit) key. Weighting
the guard rows by segment length, their product with the exit rows gives
every key pair's overlap: the measure of the intersection of their span
sets. A pair counts when that measure is strictly positive and at least
min_overlap, which keeps blink-and-miss coincidences out. The kept cells,
ORed over ASes, give each session pair's guard x exit circuits; ORed over
session pairs, each AS's coverage.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from .bgp import SessionRib
from .core import PrefixTable, RelayDescriptor, merge_intervals


@dataclass(frozen=True)
class Sightings:
    """Which AS saw traffic toward which relay, on which session, and when.

    sessions are the sorted RIB ids. spans maps each AS, in ascending order,
    to its (guard side, exit side); a side maps (session index, relay
    address) to that key's sorted, merged spans. len() counts the spans.
    """

    sessions: tuple[str, ...]
    spans: dict[int, tuple[dict, dict]]

    def __len__(self) -> int:
        return sum(len(s) for sides in self.spans.values() for side in sides for s in side.values())


@dataclass(frozen=True)
class AsOverlap:
    """One AS's overlap kernel: its guard keys' sorted (src, guard) and exit
    keys' sorted (dst, exit), each key's row among the AS's distinct span
    sets on that side, and overlap[i, j], the measure of the intersection of
    guard set i and exit set j (exact at the min_overlap threshold, elsewhere
    to rounding) where that pair is kept, and 0 elsewhere."""

    src: np.ndarray
    guard: np.ndarray
    guard_rows: np.ndarray
    dst: np.ndarray
    exit: np.ndarray
    exit_rows: np.ndarray
    overlap: np.ndarray


@dataclass(frozen=True)
class CircuitHits:
    """Compromised circuits: overlaps[k] is the overlap kernel of AS ases[k].

    admitted is the sessions x sessions matrix of the (src, dst) pairs the
    metric counts. masks() yields, per AS, its guard keys x exit keys kept
    cells: a kept overlap on an admitted pair of distinct relays. Each is
    one (AS, src, guard, dst, exit) hit, and len() counts them.
    """

    sessions: tuple[str, ...]
    admitted: np.ndarray
    ases: np.ndarray
    overlaps: tuple[AsOverlap, ...]

    def masks(self):
        for o in self.overlaps:
            yield (
                (o.overlap > 0)[o.guard_rows][:, o.exit_rows]
                & self.admitted[o.src][:, o.dst]
                & (o.guard[:, np.newaxis] != o.exit[np.newaxis, :])
            )

    def __len__(self) -> int:
        return sum(int(np.count_nonzero(mask)) for mask in self.masks())


@dataclass
class CompromiseSummary:
    """Distinct compromised circuits per (src, dst) pair and per AS.

    Each value is a sorted array of circuit ids g * len(exits) + e, where g
    and e index the sorted guard and exit address axes, so its len() is the
    circuit count. per_as_circuits holds only the window's circuits.
    """

    pair_circuits: dict[tuple[str, str], np.ndarray]
    total_circuits: int
    per_as_circuits: dict[int, np.ndarray]
    guards: np.ndarray
    exits: np.ndarray

    def compromised(self, pair: tuple[str, str]) -> int:
        return len(self.pair_circuits.get(pair, ()))

    def fraction(self, pair: tuple[str, str]) -> float:
        return self.compromised(pair) / self.total_circuits if self.total_circuits else 0.0

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pair_circuits)


def _intersection_length(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def segment_observations(
    ribs: dict[str, SessionRib],
    relays: list[RelayDescriptor],
    window: tuple[float, float],
) -> Sightings:
    """Which AS saw traffic toward which relay, on which session, and when.

    Traffic to a relay follows the most-specific covering entry at each
    instant, so nested prefixes hand the relay over to the longer one while
    it is live, and back to the shorter one while the longer is withdrawn.
    Every prefix of the RIBs covering each relay comes from one PrefixTable
    query. Spans per (AS, session, relay) are merged on each side; a relay
    flagged both guard and exit is on both sides.
    """
    t_lo, t_hi = window
    admitted = [r for r in relays if r.is_guard or r.is_exit]
    sessions = tuple(sorted(ribs))
    routed = PrefixTable()
    for rib in ribs.values():
        for prefix in chain(rib.history, rib.live):
            routed.insert(prefix, None)
    prefixes = routed.freeze().entries()
    covers: list[list] = [[] for _ in admitted]  # per relay, longest prefix first
    at, found = routed.covering_many([relay.address for relay in admitted])
    for a, entry in zip(at.tolist(), found.tolist()):
        covers[a].append(prefixes[entry][0])
    raw: dict[int, tuple[dict, dict]] = {}
    for s, sid in enumerate(sessions):
        rib = ribs[sid]
        for relay, covering in zip(admitted, covers):
            entries = [
                entry
                for prefix in covering
                for entry in rib.history.get(prefix, []) + [rib.live.get(prefix)]
                if entry is not None and entry.clipped(t_lo, t_hi) is not None
            ]
            if not entries:
                continue
            cuts = {t_lo, t_hi}
            for entry in entries:
                start, end = entry.clipped(t_lo, t_hi)
                cuts.update((start, end))
            edges = sorted(cuts)
            key = (s, relay.address)
            sides = [side for side, flag in enumerate((relay.is_guard, relay.is_exit)) if flag]
            for seg_start, seg_end in zip(edges, edges[1:]):
                # entries come longest prefix first: the first live one forwards
                forwarding = next((e for e in entries if e.live_at(seg_start)), None)
                if forwarding is None:
                    continue
                for asn in forwarding.path:
                    by_side = raw.setdefault(asn, ({}, {}))
                    for side in sides:
                        by_side[side].setdefault(key, []).append((seg_start, seg_end))
    return Sightings(sessions, {
        asn: tuple(
            {key: tuple(merge_intervals(spans)) for key, spans in side.items()} for side in raw[asn]
        )
        for asn in sorted(raw)
    })


def _distinct_rows(side: dict):
    """Sessions and relays of the sorted keys, each key's row among the
    distinct span sets, and those span sets."""
    keys = sorted(side)
    distinct: dict[tuple[tuple[float, float], ...], int] = {}
    rows = [distinct.setdefault(side[key], len(distinct)) for key in keys]
    session, relay = np.array(keys, dtype=np.int64).reshape(-1, 2).T
    return session, relay, np.array(rows, dtype=np.int64), list(distinct)


def _indicator(span_sets: list, edges: np.ndarray) -> np.ndarray:
    """0/1 matrix: row r covers segment k = [edges[k], edges[k + 1])."""
    rows = [r for r, spans in enumerate(span_sets) for _ in spans]
    bounds = np.array([span for spans in span_sets for span in spans]).reshape(-1, 2)
    steps = np.zeros((len(span_sets), len(edges)))
    np.add.at(steps, (rows, np.searchsorted(edges, bounds[:, 0])), 1.0)
    np.add.at(steps, (rows, np.searchsorted(edges, bounds[:, 1])), -1.0)
    return np.cumsum(steps, axis=1)[:, :-1]


def _as_overlap(guard_spans, exit_spans, min_overlap: float) -> AsOverlap:
    """One AS's kept key pairs as a product over its distinct span sets.

    Keys with identical span sets share one row of the product: relays
    behind the same covering routes on a session see the same spans.
    """
    src, guard, guard_rows, guard_sets = _distinct_rows(guard_spans)
    dst, exit_, exit_rows, exit_sets = _distinct_rows(exit_spans)
    edges = np.array(
        sorted({t for spans in guard_sets + exit_sets for span in spans for t in span})
    )
    weighted = _indicator(guard_sets, edges) * np.diff(edges)
    # einsum without optimize stays off BLAS, whose threads only slow
    # products this small
    overlap = np.einsum("ik,jk->ij", weighted, _indicator(exit_sets, edges), optimize=False)
    keep = overlap > 0
    # The segment sum and a direct sweep of the intersection each lie within
    # (segments + 1) * eps * span of the exact overlap, so only cells this
    # near the threshold can fall on the wrong side; those are swept directly.
    near = 4 * (len(edges) + 1) * np.finfo(float).eps * (edges[-1] - edges[0])
    for i, j in zip(*np.nonzero(keep & (np.abs(overlap - min_overlap) <= near))):
        overlap[i, j] = _intersection_length(guard_sets[i], exit_sets[j])
    # a positive segment sum means a shared segment, so every kept cell stays > 0
    overlap[~(keep & (overlap >= min_overlap))] = 0.0
    return AsOverlap(src, guard, guard_rows, dst, exit_, exit_rows, overlap)


def compromised_circuits(
    sightings: Sightings,
    min_overlap: float = 30.0,
    local_as: dict[str, int] | None = None,
) -> CircuitHits:
    """All (AS, (src, guard), (dst, exit)) co-occurrences of sufficient length.

    Overlap is the measure of the interval-set intersection, summed across
    every co-occurring interval of the same five-way key; it must be
    strictly positive, so zero-length contact never counts, even at
    min_overlap 0. A (src, dst) session pair is admitted when the sessions
    differ and local_as does not place both in one AS. Circuits using one
    relay as both guard and exit are not valid and are skipped too.
    """
    # -1: no local AS known, which AS numbers (0..2**32-1) never are
    local = np.array([(local_as or {}).get(sid, -1) for sid in sightings.sessions], dtype=np.int64)
    admitted = (local[:, np.newaxis] < 0) | (local[:, np.newaxis] != local[np.newaxis, :])
    np.fill_diagonal(admitted, False)
    # only an AS on both a guard's and an exit's path can compromise a circuit
    ases = [asn for asn, sides in sightings.spans.items() if all(sides)]
    return CircuitHits(
        sightings.sessions,
        admitted,
        np.array(ases, dtype=np.int64),
        tuple(_as_overlap(*sightings.spans[asn], min_overlap) for asn in ases),
    )


def circuit_axes(relays: list[RelayDescriptor]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted guard and exit addresses: the axes circuit ids index."""
    guards = sorted({r.address for r in relays if r.is_guard})
    exits = sorted({r.address for r in relays if r.is_exit})
    return np.array(guards, dtype=np.int64), np.array(exits, dtype=np.int64)


def circuit_universe(relays: list[RelayDescriptor]) -> int:
    """Number of valid (guard, exit) combinations, distinct relays only."""
    guards, exits = circuit_axes(relays)
    return len(guards) * len(exits) - len(np.intersect1d(guards, exits, assume_unique=True))


def summarize(hits: CircuitHits, relays: list[RelayDescriptor]) -> CompromiseSummary:
    """OR each AS's kept cells, one AS at a time, into each admitted pair's
    and each AS's circuit ids."""
    guards, exits = circuit_axes(relays)
    n, n_guards, n_exits = len(hits.sessions), len(guards), len(exits)
    by_pair = np.zeros((n, n_guards, n, n_exits), dtype=bool)
    # a view with rows (src, guard) and columns (dst, exit): the keys of one
    # AS are distinct, so its mask ORs in as one block
    by_keys = by_pair.reshape(n * n_guards, n * n_exits)
    by_as = np.zeros((len(hits.ases), n_guards, n_exits), dtype=bool)
    for o, mask, circuits in zip(hits.overlaps, hits.masks(), by_as):
        g, e = np.searchsorted(guards, o.guard), np.searchsorted(exits, o.exit)
        by_keys[np.ix_(o.src * n_guards + g, o.dst * n_exits + e)] |= mask
        # a relay seen on several sessions repeats its circuits: accumulate
        np.logical_or.at(circuits, (g[:, np.newaxis], e[np.newaxis, :]), mask)
    return CompromiseSummary(
        pair_circuits={
            (hits.sessions[i], hits.sessions[j]): np.flatnonzero(by_pair[i, :, j])
            for i, j in zip(*(side.tolist() for side in np.nonzero(hits.admitted)))
        },
        total_circuits=circuit_universe(relays),
        per_as_circuits={
            asn: np.flatnonzero(circuits)
            for asn, circuits in zip(hits.ases.tolist(), by_as)
            if circuits.any()
        },
        guards=guards,
        exits=exits,
    )


def static_baseline(
    ribs: dict[str, SessionRib],
    relays: list[RelayDescriptor],
    t0: float,
) -> CompromiseSummary:
    """Compromise summary from the routing state at t0, ignoring churn.

    Every entry live at t0 shares the snapshot instant, so the overlap
    constraint is vacuous here (min_overlap 0 over a unit snapshot window).
    """
    seen = segment_observations(ribs, relays, (t0, t0 + 1.0))
    # spans are clipped to [t0, t0 + 1): a key is live at t0 when its first
    # span starts there
    snapshot = Sightings(seen.sessions, {
        asn: tuple(
            {key: spans[:1] for key, spans in side.items() if spans[0][0] <= t0} for side in sides
        )
        for asn, sides in seen.spans.items()
    })
    hits = compromised_circuits(
        snapshot,
        min_overlap=0.0,
        local_as={sid: rib.session.local_as for sid, rib in ribs.items()},
    )
    return summarize(hits, relays)


def churn_summary(
    ribs: dict[str, SessionRib],
    relays: list[RelayDescriptor],
    window: tuple[float, float],
    min_overlap: float = 30.0,
    baseline: CompromiseSummary | None = None,
) -> CompromiseSummary:
    """Compromise summary over the full window, pairs unioned with the baseline.

    The duration rule applies to circuits churn adds; circuits already
    compromised in the initial state stay compromised, which makes the
    with-updates pair counts monotone in the update stream by construction.
    per_as_circuits holds only the circuits compromised during the window.
    """
    hits = compromised_circuits(
        segment_observations(ribs, relays, window),
        min_overlap=min_overlap,
        local_as={sid: rib.session.local_as for sid, rib in ribs.items()},
    )
    summary = summarize(hits, relays)
    if baseline is not None:
        if not (
            np.array_equal(baseline.guards, summary.guards)
            and np.array_equal(baseline.exits, summary.exits)
        ):
            raise ValueError("baseline counts circuits over a different relay list")
        # pair by pair in place, so one pair's union is alive at a time
        for pair in sorted(set(summary.pair_circuits) | set(baseline.pair_circuits)):
            bits = np.zeros(len(summary.guards) * len(summary.exits), dtype=bool)
            for side in (summary, baseline):
                bits[side.pair_circuits.get(pair, [])] = True
            summary.pair_circuits[pair] = np.flatnonzero(bits)
    return summary


def ccdf(summary: CompromiseSummary) -> list[tuple[float, float]]:
    """Points (x, y): x% of circuits are compromised for at least y% of pairs.

    The curve is the left-continuous step function G(x) = share of pairs
    whose compromised percentage is >= x, listed at the distinct nonzero
    levels plus the (0, 100) anchor; a summary with no pairs has no curve.
    """
    if not summary.pair_circuits:
        return []
    fractions = sorted(summary.fraction(p) * 100.0 for p in summary.pair_circuits)
    n = len(fractions)
    points: list[tuple[float, float]] = [(0.0, 100.0)]
    for value, _ in groupby(fractions):
        if value == 0.0:
            continue
        at_least = n - bisect_left(fractions, value)
        points.append((value, 100.0 * at_least / n))
    return points


@dataclass(frozen=True)
class PairRatio:
    src_session: str
    dst_session: str
    baseline: int
    with_updates: int
    ratio: float


def churn_ratio(
    baseline: CompromiseSummary, with_updates: CompromiseSummary
) -> tuple[list[PairRatio], list[tuple[str, str, int]]]:
    """Per-pair with/baseline circuit ratios plus newly compromisable pairs.

    Pairs with a zero baseline but nonzero updated count have no defined
    ratio; they are reported separately instead.
    """
    ratios = []
    newly = []
    for pair in sorted(set(baseline.pair_circuits) | set(with_updates.pair_circuits)):
        before = baseline.compromised(pair)
        after = with_updates.compromised(pair)
        if before > 0:
            ratios.append(PairRatio(pair[0], pair[1], before, after, after / before))
        elif after > 0:
            newly.append((pair[0], pair[1], after))
    return ratios, newly


def as_circuit_coverage(summary: CompromiseSummary) -> list[tuple[int, float, int]]:
    """Per AS: percent of all valid (guard, exit) circuits it saw both
    sides of, for at least one session pair. ASes with no compromised
    circuit are omitted (coverage zero). Sorted by percent descending."""
    total = summary.total_circuits
    rows = [
        (asn, 100.0 * len(circuits) / total if total else 0.0, len(circuits))
        for asn, circuits in summary.per_as_circuits.items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows
