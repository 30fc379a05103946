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

import numpy as np

from .core import InputError, IpPrefix, PrefixTable, ip_to_int, reading


class PathError(Exception):
    pass


class EmptyPathError(PathError):
    pass


class MissingPathError(PathError):
    pass


class PathRole(Enum):
    P1_CLIENT_TO_GUARD = "P1"
    P2_GUARD_TO_CLIENT = "P2"
    P3_EXIT_TO_DEST = "P3"
    P4_DEST_TO_EXIT = "P4"


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

    @property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.ases)


def resolve_traceroute(hops: list[str], mapping: PrefixTable) -> tuple[tuple[int, ...], bool]:
    """Map hop IPs to an AS-level path.

    Timeouts ("*") and unmapped hops are omitted and set the gap flag;
    private-address hops are omitted silently; duplicates are dropped
    keeping the first occurrence.
    """
    if not hops:
        raise EmptyPathError("traceroute produced no hops")
    ases: list[int] = []
    gap = False
    for hop in hops:
        if hop == "*":
            gap = True
            continue
        address = ip_to_int(hop)
        if _PRIVATE_BLOCKS.lookup(address):
            continue
        asn = mapping.lookup(address)
        if asn is None:
            gap = True
            continue
        if asn not in ases:
            ases.append(asn)
    return tuple(ases), gap


def load_traceroutes(path, mapping: PrefixTable) -> list[AsLevelPath]:
    """Read traceroute JSONL records {probe, target, role, day, hops}.

    An unusable record (not a JSON object, a missing key, an unknown role,
    a bad or empty hop list) raises InputError naming the file and line.
    """
    paths = []
    with reading(path, "traceroute file") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                ases, gap = resolve_traceroute(record["hops"], mapping)
                paths.append(
                    AsLevelPath(
                        probe=str(record["probe"]),
                        target=str(record["target"]),
                        role=PathRole(record["role"].upper()),
                        day=str(record["day"]),
                        ases=ases,
                        gap=gap,
                    )
                )
            except (ValueError, KeyError, TypeError, AttributeError, PathError) as exc:
                raise InputError(f"{path}:{line_no}: bad traceroute record: {exc!r}") from None
    return paths


def vulnerable(
    paths: dict[PathRole, AsLevelPath],
    mode: VulnerabilityMode,
    exclusions: frozenset[int] = frozenset(),
) -> tuple[bool, frozenset[int]]:
    """Does any pairing of the quad's paths share an AS outside exclusions?

    Returns the verdict together with the witnessing ASes across all
    qualifying pairings.
    """
    witnesses: set[int] = set()
    for role_a, role_b in _PAIRINGS[mode]:
        if role_a not in paths or role_b not in paths:
            raise MissingPathError(f"missing {role_a.value} or {role_b.value}")
        shared = (paths[role_a].as_set & paths[role_b].as_set) - exclusions
        witnesses |= shared
    return bool(witnesses), frozenset(witnesses)


@dataclass
class DayVulnerability:
    day: str
    pct_symmetric_day1: float
    pct_asymmetric: float
    pct_asymmetric_cumulative: float
    n_quads: int
    n_inherited_paths: int


class PathDataset:
    """Daily path measurements indexed by day and (role, probe, target),
    plus the four endpoint sets whose product is the quad set."""

    def __init__(self, paths: list[AsLevelPath]) -> None:
        self.days = sorted({p.day for p in paths})
        self._by_day: dict[str, dict[tuple[PathRole, str, str], AsLevelPath]] = {}
        for path in paths:
            self._by_day.setdefault(path.day, {})[(path.role, path.probe, path.target)] = path
        self.clients = sorted(
            {p.probe for p in paths if p.role is PathRole.P1_CLIENT_TO_GUARD}
            | {p.target for p in paths if p.role is PathRole.P2_GUARD_TO_CLIENT}
        )
        self.guards = sorted(
            {p.target for p in paths if p.role is PathRole.P1_CLIENT_TO_GUARD}
            | {p.probe for p in paths if p.role is PathRole.P2_GUARD_TO_CLIENT}
        )
        self.exits = sorted(
            {p.probe for p in paths if p.role is PathRole.P3_EXIT_TO_DEST}
            | {p.target for p in paths if p.role is PathRole.P4_DEST_TO_EXIT}
        )
        self.dests = sorted(
            {p.target for p in paths if p.role is PathRole.P3_EXIT_TO_DEST}
            | {p.probe for p in paths if p.role is PathRole.P4_DEST_TO_EXIT}
        )
        self.ases = sorted({asn for path in paths for asn in path.ases})


def vulnerability_timeseries(
    dataset: PathDataset,
    exclusions: frozenset[int] = frozenset(),
    exclude_endpoint_ases: bool = False,
) -> list[DayVulnerability]:
    """Per-day percentages of vulnerable quads.

    exclude_endpoint_ases additionally discounts each quad's own endpoint
    ASes (off by default: endpoints trivially sit on their own paths, but
    the conventional count keeps them).

    Three series: the day-1 symmetric rate held fixed (the conventional
    viewpoint), the same-day asymmetric rate, and the cumulative
    asymmetric rate counting a quad from the first day it was ever
    vulnerable. All percentages are over the full quad set; quads missing
    a required path even after persistence count as not vulnerable that
    day (n_quads reports how many were actually evaluable). The fixed
    denominator is what makes the cumulative series both monotone and
    pointwise at or above the per-day series.

    Persistence: a (role, probe, target) missing on a day inherits its
    most recent earlier measurement. Each day, with A the (client, guard)
    rows of P1 ∪ P2 ∖ X ∖ E_cg and B the (exit, dest) rows of
    P3 ∪ P4 ∖ X ∖ E_ed, quad (cg, ed) is asymmetric-vulnerable iff
    (A @ B.T)[cg, ed] > 0 and both units have both paths; the day-1
    symmetric count is the same product over P1 and P3 rows, and the
    cumulative series ORs the daily verdicts. A quad's inherited paths
    are its two units', so counts follow from per-unit sums.
    """
    cg_units = [(c, g) for c in dataset.clients for g in dataset.guards]
    ed_units = [(e, d) for e in dataset.exits for d in dataset.dests]
    n_total = len(cg_units) * len(ed_units)
    if not n_total:
        return []
    column = {asn: i for i, asn in enumerate(dataset.ases)}
    latest: dict[tuple[PathRole, str, str], tuple[int, AsLevelPath]] = {}

    def unit_rows(units, forward, reverse, day_index):
        """0/1 AS rows of the forward paths and of forward ∪ reverse, which
        units have both paths, and how many of those are inherited."""
        forward_rows = np.zeros((len(units), len(column)), dtype=np.float32)
        union_rows = np.zeros_like(forward_rows)
        complete = np.zeros(len(units), dtype=bool)
        inherited = np.zeros(len(units), dtype=np.int64)
        for row, (a, b) in enumerate(units):
            there, back = latest.get((forward, a, b)), latest.get((reverse, b, a))
            if there is None or back is None:
                continue
            complete[row] = True
            inherited[row] = (there[0] != day_index) + (back[0] != day_index)
            excluded = exclusions
            if exclude_endpoint_ases:
                excluded = exclusions | endpoint_ases({forward: there[1], reverse: back[1]})
            forward_columns = [column[asn] for asn in there[1].as_set - excluded]
            reverse_columns = [column[asn] for asn in back[1].as_set - excluded]
            forward_rows[row, forward_columns] = 1.0
            union_rows[row, forward_columns + reverse_columns] = 1.0
        return forward_rows, union_rows, complete, inherited

    ever_vulnerable = np.zeros((len(cg_units), len(ed_units)), dtype=bool)
    rows: list[DayVulnerability] = []
    sym_day1 = 0.0
    for day_index, day in enumerate(dataset.days):
        for key, path in dataset._by_day[day].items():
            latest[key] = (day_index, path)
        cg_forward, cg_union, cg_complete, cg_inherited = unit_rows(
            cg_units, PathRole.P1_CLIENT_TO_GUARD, PathRole.P2_GUARD_TO_CLIENT, day_index
        )
        ed_forward, ed_union, ed_complete, ed_inherited = unit_rows(
            ed_units, PathRole.P3_EXIT_TO_DEST, PathRole.P4_DEST_TO_EXIT, day_index
        )
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
                n_inherited_paths=int(cg_inherited.sum()) * n_ed + int(ed_inherited.sum()) * n_cg,
            )
        )
    return rows


def endpoint_ases(paths: dict[PathRole, AsLevelPath]) -> frozenset[int]:
    """The quad's own endpoint ASes: first hop AS of each path that
    originates at an endpoint. Useful as an exclusion set, since endpoints
    trivially appear on their own paths."""
    out = set()
    for path in paths.values():
        if path.ases:
            out.add(path.ases[0])
    return frozenset(out)
