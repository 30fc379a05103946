"""Compromise metric over per-session routing history.

An AS compromises a circuit for a (source session, destination session)
pair when it simultaneously sits on the forwarding path toward the guard
on one session and toward the exit on the other. Forwarding follows the
most-specific live entry, and intervals come straight from the RIB history.

The routing history is read once into Sightings, columns with one row per
merged span of an (AS, side, session, relay) key. The metric is one product
per AS over elementary segments. The window is cut at every endpoint of the
AS's spans; each (source, guard) key is a 0/1 row over those segments, and
so is each (destination, exit) key. Weighting the guard rows by segment
length, their product with the exit rows gives every key pair's overlap:
the measure of the intersection of their span sets. A pair counts when that
measure is strictly positive and at least min_overlap, which keeps
blink-and-miss coincidences out. The kept cells, ORed over ASes, give each
session pair's guard x exit circuits; ORed over session pairs, each AS's
coverage.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby

import numpy as np

from .bgp import SessionRib
from .core import PrefixTable, RelayDescriptor, merge_intervals_grouped


@dataclass(frozen=True)
class Sightings:
    """Which AS saw traffic toward which relay, on which session, and when.

    One row per merged span, as columns sorted by (asn, side, session,
    relay, start): side is 0 for the guard side and 1 for the exit side,
    session indexes sessions (the sorted RIB ids), relay is the relay's
    address and [start, end) the span. The spans of one (asn, side,
    session, relay) key are disjoint and never touch. len() counts them.
    """

    sessions: tuple[str, ...]
    asn: np.ndarray
    side: np.ndarray
    session: np.ndarray
    relay: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    def take(self, rows) -> "Sightings":
        """The given rows, in order."""
        return Sightings(self.sessions, *(
            column[rows]
            for column in (self.asn, self.side, self.session, self.relay, self.start, self.end)
        ))


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
    circuit count; ids are int32 where every id fits, int64 otherwise.
    per_as_circuits holds only the window's circuits.
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


def _intersection_length(a, b) -> float:
    """Measure of the intersection of two sorted, disjoint span lists."""
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


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the ranges [lo[k], hi[k]): each one's k, and the position."""
    n = hi - lo
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(n) - n - lo, n)


def _runs(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Runs of equal keys in sorted key columns: the first position of each
    run, and each row's run."""
    starts = np.zeros(len(columns[0]), dtype=bool)
    starts[:1] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(starts), np.cumsum(starts) - 1


def _rib_columns(ribs: dict[str, SessionRib], sessions: tuple[str, ...]):
    """Every RIB entry as columns: (session index, prefix id, start, end,
    path id) with end inf while live, the frozen PrefixTable whose entries()
    the prefix ids index, and the paths as CSR arrays (offsets, ases)."""
    rows = [
        (s, prefix, entry)
        for s, sid in enumerate(sessions)
        for prefix, entries in chain(
            ribs[sid].history.items(), ((p, (e,)) for p, e in ribs[sid].live.items())
        )
        for entry in entries
    ]
    n = len(rows)
    # entries() is in (base, length) order, the order of these codes
    codes = np.fromiter((p.base * 64 + p.length for _, p, _ in rows), np.int64, n)
    _, first, prefix = np.unique(codes, return_index=True, return_inverse=True)
    routed = PrefixTable()
    for i in first.tolist():
        routed.insert(rows[i][1], None)
    paths: dict[tuple[int, ...], int] = {}
    path = np.fromiter((paths.setdefault(e.path, len(paths)) for _, _, e in rows), np.int64, n)
    offsets = np.concatenate(([0], np.cumsum([len(ases) for ases in paths], dtype=np.int64)))
    return (
        np.fromiter((s for s, _, _ in rows), np.int64, n),
        prefix.reshape(-1),
        np.fromiter((e.t_start for _, _, e in rows), np.float64, n),
        np.fromiter((math.inf if e.t_end is None else e.t_end for _, _, e in rows), np.float64, n),
        path,
        routed.freeze(),
        offsets,
        np.fromiter((asn for ases in paths for asn in ases), np.int64, int(offsets[-1])),
    )


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
    query. Each (session, relay) is cut at the edges of its covering
    entries clipped to the window; each piece is forwarded by its longest
    live cover (a (session, prefix) has at most one live entry at a time).
    The pieces' spans are merged per (AS, side, session, relay); a relay
    flagged both guard and exit, or listed once with each flag, is on both
    sides.
    """
    t_lo, t_hi = window
    sessions = tuple(sorted(ribs))
    session, prefix, start, end, path, routed, path_offsets, path_ases = _rib_columns(
        ribs, sessions
    )
    start, end = np.maximum(start, t_lo), np.minimum(end, t_hi)
    live = start < end
    session, prefix, start, end, path = (c[live] for c in (session, prefix, start, end, path))
    # each listed address once, on every side some listing of it takes
    admitted = [r for r in relays if r.is_guard or r.is_exit]
    address, listing = np.unique(
        np.array([r.address for r in admitted], dtype=np.int64), return_inverse=True
    )
    on_side = np.zeros((2, len(address)), dtype=bool)
    for side, flag in enumerate(("is_guard", "is_exit")):
        on_side[side, listing[[getattr(r, flag) for r in admitted]]] = True
    # one candidate per (entry, relay it covers): join on the prefix id
    at, found = routed.covering_many(address)
    by_prefix = np.argsort(found, kind="stable")
    covered, cover_relay = found[by_prefix], at[by_prefix]
    entry, k = _ranges(
        np.searchsorted(covered, prefix), np.searchsorted(covered, prefix, side="right")
    )
    relay = cover_relay[k]
    length = np.array([p.length for p, _ in routed.entries()], dtype=np.int64)[prefix[entry]]
    # each (session, relay) group's edges as one int key: group, then time rank
    group = session[entry] * len(address) + relay
    times = np.sort(np.concatenate((start, end)))
    n_times = len(times) + 1
    lo_key = group * n_times + np.searchsorted(times, start[entry])
    hi_key = group * n_times + np.searchsorted(times, end[entry])
    edges = np.sort(np.concatenate((lo_key, hi_key)))
    edges = edges[_runs(edges)[0]]
    # a candidate covers the pieces between its two edges; the longest forwards
    candidate, piece = _ranges(np.searchsorted(edges, lo_key), np.searchsorted(edges, hi_key))
    order = np.lexsort((-length[candidate], piece))
    longest = order[_runs(piece[order])[0]]
    piece, forwarding = piece[longest], candidate[longest]
    # every AS on the forwarding path, on each side of the relay
    route_path = path[entry[forwarding]]
    hop, position = _ranges(path_offsets[route_path], path_offsets[route_path + 1])
    piece, forwarding, asn = piece[hop], forwarding[hop], path_ases[position]
    parts = [np.flatnonzero(on_side[side, relay[forwarding]]) for side in (0, 1)]
    rows = np.concatenate(parts)
    side = np.repeat(np.arange(2), [len(p) for p in parts])
    piece, forwarding, asn = piece[rows], forwarding[rows], asn[rows]
    ases, as_code = np.unique(asn, return_inverse=True)
    key = ((as_code * 2 + side) * len(sessions) + session[entry[forwarding]]) * len(address)
    key, span_start, span_end = merge_intervals_grouped(
        key + relay[forwarding], times[edges[piece] % n_times], times[edges[piece + 1] % n_times]
    )
    key, r = np.divmod(key, len(address))
    key, s = np.divmod(key, len(sessions))
    as_code, side = np.divmod(key, 2)
    return Sightings(sessions, ases[as_code], side, s, address[r], span_start, span_end)


def _span_sets(sightings: Sightings, heads: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Per key (its first row in heads), an id shared exactly by the keys of
    its group with the same spans: refined one span position at a time from
    (group, span count)."""
    counts = np.diff(np.append(heads, len(sightings)))
    label = group * (counts.max(initial=0) + 1) + counts
    for position in range(counts.max(initial=0)):
        keys = np.flatnonzero(counts > position)
        at = heads[keys] + position
        order = np.lexsort((sightings.end[at], sightings.start[at], label[keys]))
        _, fresh = _runs(label[keys][order], sightings.start[at][order], sightings.end[at][order])
        label[keys[order]] = label.max() + 1 + fresh
    return label


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

    Per AS the window is cut at every endpoint of its spans, and each
    distinct span set of a side is a 0/1 row over those segments: keys
    with the same spans (relays behind the same covering routes on a
    session) share one. The length-weighted product of the guard rows
    with the exit rows gives every pair's overlap.
    """
    # -1: no local AS known, which AS numbers (0..2**32-1) never are
    local = np.array([(local_as or {}).get(sid, -1) for sid in sightings.sessions], dtype=np.int64)
    admitted = (local[:, np.newaxis] < 0) | (local[:, np.newaxis] != local[np.newaxis, :])
    np.fill_diagonal(admitted, False)
    o = sightings
    # keys (runs of rows), their (AS, side) groups and the groups' ASes
    heads, key = _runs(o.asn, o.side, o.session, o.relay)
    key_rows = np.append(heads, len(o))
    group_keys, group = _runs(o.asn[heads], o.side[heads])
    as_groups, as_of = _runs(o.asn[heads[group_keys]])
    # every AS's segment edges as one sorted int key: AS, then time rank
    times = np.sort(np.concatenate((o.start, o.end)))
    n_times = len(times) + 1
    row_as = as_of[group[key]] * n_times
    lo = row_as + np.searchsorted(times, o.start)
    hi = row_as + np.searchsorted(times, o.end)
    edges = np.sort(np.concatenate((lo, hi)))
    edges = edges[_runs(edges)[0]]
    as_edges = np.searchsorted(edges, np.arange(len(as_groups) + 1) * n_times)
    lo, hi = np.searchsorted(edges, lo), np.searchsorted(edges, hi)
    edges = times[edges % n_times]
    # distinct span sets, numbered in group order; each key's row among its group's sets
    label = _span_sets(o, heads, group)
    order = np.lexsort((label, group))
    set_heads, sorted_sets = _runs(group[order], label[order])
    first_key = order[set_heads]  # each set's first key
    set_of = np.empty_like(sorted_sets)
    set_of[order] = sorted_sets
    group_sets = np.searchsorted(group[first_key], np.arange(len(group_keys) + 1))
    row_of = set_of - group_sets[group]
    # each set's 0/1 row over its AS's segments, all rows in one flat array;
    # a set's spans open and close inside its row, so one running sum over
    # the +1/-1 marks at its span edges fills every row
    set_as = as_of[group[first_key]]
    row_start = np.concatenate(([0], np.cumsum(np.diff(as_edges)[set_as])))
    owner, span = _ranges(key_rows[first_key], key_rows[first_key + 1])
    offset = row_start[owner] - as_edges[set_as[owner]]
    cover = np.zeros(row_start[-1], dtype=np.int8)
    np.add.at(cover, offset + lo[span], 1)
    np.subtract.at(cover, offset + hi[span], 1)
    cover = np.cumsum(cover, dtype=np.int8)

    def span_list(set_id: int) -> list:
        i, j = key_rows[first_key[set_id]], key_rows[first_key[set_id] + 1]
        return list(zip(o.start[i:j].tolist(), o.end[i:j].tolist()))

    # only an AS on both a guard's and an exit's path can compromise a circuit
    both = np.flatnonzero(o.asn[heads[group_keys[:-1]]] == o.asn[heads[group_keys[1:]]])
    bounds = np.append(group_keys, len(heads))
    overlaps = []
    for g in both.tolist():
        k = as_of[g]
        at = edges[as_edges[k]:as_edges[k + 1]]
        guard_sets, exit_sets = (
            cover[row_start[group_sets[h]]:row_start[group_sets[h + 1]]].reshape(-1, len(at))
            for h in (g, g + 1)
        )
        # einsum without optimize stays off BLAS, whose threads only slow
        # products this small
        overlap = np.einsum(
            "ik,jk->ij", guard_sets[:, :-1] * np.diff(at), exit_sets[:, :-1].astype(np.float64),
            optimize=False,
        )
        keep = overlap > 0
        # The segment sum and a direct sweep of the intersection each lie within
        # (segments + 1) * eps * span of the exact overlap, so only cells this
        # near the threshold can fall on the wrong side; those are swept directly.
        near = 4 * (len(at) + 1) * np.finfo(float).eps * (at[-1] - at[0])
        for i, j in zip(*np.nonzero(keep & (np.abs(overlap - min_overlap) <= near))):
            overlap[i, j] = _intersection_length(
                span_list(group_sets[g] + i), span_list(group_sets[g + 1] + j)
            )
        # a positive segment sum means a shared segment, so every kept cell stays > 0
        overlap[~(keep & (overlap >= min_overlap))] = 0.0
        guards, exits = (heads[bounds[h]:bounds[h + 1]] for h in (g, g + 1))
        overlaps.append(AsOverlap(
            o.session[guards], o.relay[guards], row_of[bounds[g]:bounds[g + 1]],
            o.session[exits], o.relay[exits], row_of[bounds[g + 1]:bounds[g + 2]],
            overlap,
        ))
    ases = o.asn[heads[group_keys[both]]]
    return CircuitHits(sightings.sessions, admitted, ases, tuple(overlaps))


def circuit_axes(relays: list[RelayDescriptor]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted guard and exit addresses: the axes circuit ids index."""
    guards = sorted({r.address for r in relays if r.is_guard})
    exits = sorted({r.address for r in relays if r.is_exit})
    return np.array(guards, dtype=np.int64), np.array(exits, dtype=np.int64)


def circuit_universe(relays: list[RelayDescriptor]) -> int:
    """Number of valid (guard, exit) combinations, distinct relays only."""
    guards, exits = circuit_axes(relays)
    return len(guards) * len(exits) - len(np.intersect1d(guards, exits, assume_unique=True))


def summarize(
    hits: CircuitHits,
    relays: list[RelayDescriptor],
    baseline: CompromiseSummary | None = None,
) -> CompromiseSummary:
    """Each admitted pair's and each AS's circuit ids, ORed from every AS's
    kept overlaps. A baseline over the same relays adds its circuits to
    each of its pairs.

    The ORs run on bits: the pair matrix has a row per (src, guard) and a
    column per (dst, exit), and each AS ORs in, per guard key, the packed
    row of its guard set: the exit keys that set's kept overlaps reach.
    The AS matrix ORs in the same rows, each destination's bytes masked by
    admission and folded into one. Cells of pairs not admitted are never
    read, and circuits whose guard is its exit are cleared at the end.
    """
    guards, exits = circuit_axes(relays)
    if baseline is not None and not (
        np.array_equal(baseline.guards, guards) and np.array_equal(baseline.exits, exits)
    ):
        raise ValueError("baseline counts circuits over a different relay list")
    n, n_guards, n_exits = len(hits.sessions), len(guards), len(exits)
    n_bytes = -(-n_exits // 8)  # exit bits per destination, in whole bytes
    width = 8 * n_bytes
    by_keys = np.zeros((n * n_guards, n * n_bytes), dtype=np.uint8)
    by_as = np.zeros((len(hits.ases), n_guards, n_bytes), dtype=np.uint8)
    admitted = hits.admitted * np.uint8(255)
    for o, circuits in zip(hits.overlaps, by_as):
        g, e = np.searchsorted(guards, o.guard), np.searchsorted(exits, o.exit)
        reach = np.zeros((len(o.overlap), n * width), dtype=bool)
        reach[:, o.dst * width + e] = (o.overlap > 0)[:, o.exit_rows]
        reach = np.packbits(reach, axis=1)[o.guard_rows]
        # the keys of one AS are distinct, so each row ORs in once
        by_keys[o.src * n_guards + g] |= reach
        seen = np.bitwise_or.reduce(
            reach.reshape(len(g), n, n_bytes) & admitted[o.src][:, :, np.newaxis], axis=1
        )
        # a relay seen on several sessions repeats its circuits: OR its rows
        order = np.argsort(g, kind="stable")
        runs, _ = _runs(g[order])
        circuits[g[order][runs]] |= np.bitwise_or.reduceat(seen[order], runs, axis=0)
    by_pair = np.unpackbits(by_keys, axis=1).reshape(n, n_guards, n, width)[..., :n_exits]
    n_circuits = n_guards * n_exits
    by_pair = np.ascontiguousarray(by_pair.transpose(0, 2, 1, 3)).view(bool)
    by_pair = by_pair.reshape(n, n, n_circuits)
    by_as = np.unpackbits(by_as, axis=2)[..., :n_exits].reshape(len(hits.ases), n_circuits)
    by_as = by_as.view(bool)
    dual = np.intersect1d(guards, exits, assume_unique=True)
    self_circuits = np.searchsorted(guards, dual) * n_exits + np.searchsorted(exits, dual)
    by_pair[:, :, self_circuits] = False
    by_as[:, self_circuits] = False
    pairs = {
        (hits.sessions[i], hits.sessions[j]): (i, j)
        for i, j in zip(*(side.tolist() for side in np.nonzero(hits.admitted)))
    }
    extra = {}
    for pair, circuits in sorted(baseline.pair_circuits.items() if baseline else ()):
        if pair in pairs:
            # an intp copy of the ids scatters faster than indexing by int32 ids
            by_pair[pairs[pair]][circuits.astype(np.intp)] = True
        else:
            extra[pair] = circuits
    ids = np.int32 if n_circuits < 2**31 else np.int64
    return CompromiseSummary(
        pair_circuits={
            pair: np.flatnonzero(by_pair[i, j]).astype(ids) for pair, (i, j) in pairs.items()
        } | extra,
        total_circuits=circuit_universe(relays),
        per_as_circuits={
            asn: np.flatnonzero(circuits).astype(ids)
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
    first, _ = _runs(seen.asn, seen.side, seen.session, seen.relay)
    hits = compromised_circuits(
        seen.take(first[seen.start[first] <= t0]),
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
    return summarize(hits, relays, baseline)


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
