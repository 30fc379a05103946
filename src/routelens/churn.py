"""Compromise metric over per-session routing history.

An AS compromises a circuit for a (source session, destination session)
pair when it simultaneously sits on the forwarding path toward the guard
on one session and toward the exit on the other. Forwarding follows the
most-specific live entry, intervals come straight from the RIB history,
and a minimum overlap keeps blink-and-miss coincidences out.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

from .bgp import SessionRib
from .core import RelayDescriptor, RelayRole, merge_intervals


class EmptyInputError(Exception):
    pass


@dataclass(frozen=True)
class SegmentObservation:
    as_number: int
    session: str
    relay: int  # relay address
    role: RelayRole  # GUARD or EXIT
    t_start: float
    t_end: float


@dataclass(frozen=True)
class CircuitCompromiseRecord:
    src_session: str
    dst_session: str
    guard: int
    exit: int
    as_number: int
    overlap_seconds: float


@dataclass
class CompromiseSummary:
    """Distinct compromised (guard, exit) circuits per (src, dst) pair and
    per AS; per-AS coverage reads per_as_circuits."""

    pair_circuits: dict[tuple[str, str], frozenset[tuple[int, int]]]
    total_circuits: int
    per_as_circuits: dict[int, frozenset[tuple[int, int]]]

    def compromised(self, pair: tuple[str, str]) -> int:
        return len(self.pair_circuits.get(pair, ()))

    def fraction(self, pair: tuple[str, str]) -> float:
        return self.compromised(pair) / self.total_circuits if self.total_circuits else 0.0

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pair_circuits)

    @property
    def compromisable_pairs(self) -> int:
        return sum(1 for circuits in self.pair_circuits.values() if circuits)


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
) -> list[SegmentObservation]:
    """Which AS saw traffic toward which relay, on which session, and when.

    Traffic to a relay follows the most-specific covering entry at each
    instant, so nested prefixes hand the relay over to the longer one while
    it is live. Intervals per (AS, session, relay, role) are merged; relays
    flagged both guard and exit emit under each role.
    """
    t_lo, t_hi = window
    admitted = [r for r in relays if r.is_guard or r.is_exit]
    spans: dict[tuple[int, str, int, RelayRole], list[tuple[float, float]]] = {}
    for sid in sorted(ribs):
        rib = ribs[sid]
        for relay in admitted:
            entries = [
                entry
                for entry in rib.entries_for_address(relay.address)
                if entry.clipped(t_lo, t_hi) is not None
            ]
            if not entries:
                continue
            cuts = {t_lo, t_hi}
            for entry in entries:
                start, end = entry.clipped(t_lo, t_hi)
                cuts.update((start, end))
            edges = sorted(cuts)
            for seg_start, seg_end in zip(edges, edges[1:]):
                # entries come longest prefix first: the first live one forwards
                forwarding = next((e for e in entries if e.live_at(seg_start)), None)
                if forwarding is None:
                    continue
                roles = []
                if relay.is_guard:
                    roles.append(RelayRole.GUARD)
                if relay.is_exit:
                    roles.append(RelayRole.EXIT)
                for asn in forwarding.path:
                    for role in roles:
                        spans.setdefault((asn, sid, relay.address, role), []).append(
                            (seg_start, seg_end)
                        )
    observations = []
    for (asn, sid, address, role), raw in sorted(
        spans.items(), key=lambda item: (item[0][0], item[0][1], item[0][2], item[0][3].value)
    ):
        for start, end in merge_intervals(raw):
            observations.append(SegmentObservation(asn, sid, address, role, start, end))
    return observations


def compromised_circuits(
    observations: list[SegmentObservation],
    min_overlap: float = 30.0,
    require_distinct_as: bool = True,
    local_as: dict[str, int] | None = None,
) -> list[CircuitCompromiseRecord]:
    """All (AS, (src, guard), (dst, exit)) co-occurrences of sufficient length.

    Overlap is the measure of the interval-set intersection, summed across
    every co-occurring interval of the same five-way key; zero-length
    contact never counts, even at min_overlap 0. Pairs on the same session,
    or on sessions in the same AS when require_distinct_as is set, are
    skipped. Circuits using one relay as both guard and exit are not valid
    and are skipped too.
    """
    local_as = local_as or {}
    by_as: dict[int, dict[RelayRole, dict[tuple[str, int], list[tuple[float, float]]]]] = {}
    for obs in observations:
        slot = by_as.setdefault(obs.as_number, {RelayRole.GUARD: {}, RelayRole.EXIT: {}})
        slot[obs.role].setdefault((obs.session, obs.relay), []).append(
            (obs.t_start, obs.t_end)
        )
    records = []
    for asn in sorted(by_as):
        guards = {key: merge_intervals(v) for key, v in by_as[asn][RelayRole.GUARD].items()}
        exits = {key: merge_intervals(v) for key, v in by_as[asn][RelayRole.EXIT].items()}
        for (src, guard), g_spans in sorted(guards.items()):
            for (dst, exit_), e_spans in sorted(exits.items()):
                if src == dst or guard == exit_:
                    continue
                if require_distinct_as and local_as.get(src) == local_as.get(dst) and src in local_as:
                    continue
                overlap = _intersection_length(g_spans, e_spans)
                if overlap > 0 and overlap >= min_overlap:
                    records.append(
                        CircuitCompromiseRecord(src, dst, guard, exit_, asn, overlap)
                    )
    return records


def circuit_universe(relays: list[RelayDescriptor]) -> int:
    """Number of valid (guard, exit) combinations, distinct relays only."""
    guards = {r.address for r in relays if r.is_guard}
    exits = {r.address for r in relays if r.is_exit}
    return len(guards) * len(exits) - len(guards & exits)


def session_pairs(
    ribs: dict[str, SessionRib], require_distinct_as: bool = True
) -> list[tuple[str, str]]:
    """Ordered (src, dst) session pairs admitted by the diversity rule."""
    sessions = sorted(ribs)
    pairs = []
    for src in sessions:
        for dst in sessions:
            if src == dst:
                continue
            if (
                require_distinct_as
                and ribs[src].session.local_as == ribs[dst].session.local_as
            ):
                continue
            pairs.append((src, dst))
    return pairs


def summarize(
    records: list[CircuitCompromiseRecord],
    pairs: list[tuple[str, str]],
    relays: list[RelayDescriptor],
) -> CompromiseSummary:
    pair_sets: dict[tuple[str, str], set[tuple[int, int]]] = {p: set() for p in pairs}
    per_as: dict[int, set[tuple[int, int]]] = {}
    for record in records:
        key = (record.src_session, record.dst_session)
        if key in pair_sets:
            pair_sets[key].add((record.guard, record.exit))
        per_as.setdefault(record.as_number, set()).add((record.guard, record.exit))
    return CompromiseSummary(
        pair_circuits={p: frozenset(s) for p, s in pair_sets.items()},
        total_circuits=circuit_universe(relays),
        per_as_circuits={a: frozenset(s) for a, s in per_as.items()},
    )


def static_baseline(
    ribs: dict[str, SessionRib],
    relays: list[RelayDescriptor],
    t0: float,
    require_distinct_as: bool = True,
) -> CompromiseSummary:
    """Compromise summary from the routing state at t0, ignoring churn.

    Every entry live at t0 shares the snapshot instant, so the overlap
    constraint is vacuous here (min_overlap 0 over a unit snapshot window).
    """
    observations = segment_observations(ribs, relays, (t0, t0 + 1.0))
    snapshot = [o for o in observations if o.t_start <= t0 < o.t_end]
    records = compromised_circuits(
        snapshot,
        min_overlap=0.0,
        require_distinct_as=require_distinct_as,
        local_as={sid: rib.session.local_as for sid, rib in ribs.items()},
    )
    return summarize(records, session_pairs(ribs, require_distinct_as), relays)


def churn_summary(
    ribs: dict[str, SessionRib],
    relays: list[RelayDescriptor],
    window: tuple[float, float],
    min_overlap: float = 30.0,
    require_distinct_as: bool = True,
    baseline: CompromiseSummary | None = None,
) -> CompromiseSummary:
    """Compromise summary over the full window, pairs unioned with the baseline.

    The duration rule applies to circuits churn adds; circuits already
    compromised in the initial state stay compromised, which makes the
    with-updates pair counts monotone in the update stream by construction.
    per_as_circuits holds only the circuits compromised during the window.
    """
    records = compromised_circuits(
        segment_observations(ribs, relays, window),
        min_overlap=min_overlap,
        require_distinct_as=require_distinct_as,
        local_as={sid: rib.session.local_as for sid, rib in ribs.items()},
    )
    summary = summarize(records, session_pairs(ribs, require_distinct_as), relays)
    if baseline is not None:
        summary.pair_circuits = {
            pair: summary.pair_circuits.get(pair, frozenset())
            | baseline.pair_circuits.get(pair, frozenset())
            for pair in set(summary.pair_circuits) | set(baseline.pair_circuits)
        }
    return summary


def ccdf(summary: CompromiseSummary) -> list[tuple[float, float]]:
    """Points (x, y): x% of circuits are compromised for at least y% of pairs.

    The curve is the left-continuous step function G(x) = share of pairs
    whose compromised percentage is >= x, listed at the distinct nonzero
    levels plus the (0, 100) anchor.
    """
    if not summary.pair_circuits:
        raise EmptyInputError("no (src, dst) pairs to summarize")
    fractions = sorted(summary.fraction(p) * 100.0 for p in summary.pair_circuits)
    n = len(fractions)
    points: list[tuple[float, float]] = [(0.0, 100.0)]
    for value, _ in groupby(fractions):
        if value == 0.0:
            continue
        at_least = n - bisect_left(fractions, value)
        points.append((value, 100.0 * at_least / n))
    return points


def ccdf_value(points: list[tuple[float, float]], x: float) -> float:
    """Evaluate the curve: the share of pairs at or above level x."""
    for px, py in points:
        if px >= x:
            return py
    return 0.0


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
