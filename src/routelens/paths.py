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

from .core import InputError, IpPrefix, PrefixTable, ip_to_int_many, reading


class PathError(Exception):
    pass


class EmptyPathError(PathError):
    pass


class PathRole(Enum):
    P1_CLIENT_TO_GUARD = "P1"
    P2_GUARD_TO_CLIENT = "P2"
    P3_EXIT_TO_DEST = "P3"
    P4_DEST_TO_EXIT = "P4"


_ROLES = {role.value: role for role in PathRole}

_PRIVATE_BLOCKS = PrefixTable()
for _block in ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "127.0.0.0/8", "169.254.0.0/16"):
    _PRIVATE_BLOCKS.insert(IpPrefix.parse(_block), True)
_PRIVATE_BLOCKS.freeze()

# traceroute records resolved per batch: enough that numpy's per-call
# overhead vanishes, few enough that a block's hop strings and arrays (about
# 1.4 KiB a record) stay near a MiB and peak memory near the per-line loop's
_BLOCK_RECORDS = 1024


@dataclass(frozen=True)
class AsLevelPath:
    probe: str
    target: str
    role: PathRole
    day: str
    ases: tuple[int, ...]
    gap: bool  # True when some hop had no AS mapping


def _as_numbers(mapping: PrefixTable) -> tuple[list, np.ndarray]:
    """The distinct payloads of mapping.entries() in first-seen order, and
    the position of each entry's payload in that list."""
    distinct: dict = {}
    numbers = [distinct.setdefault(asn, len(distinct)) for _, asn in mapping.entries()]
    return list(distinct), np.array(numbers, dtype=np.int64)


def _resolve(
    hop_lists: list, mapping: PrefixTable, as_numbers: tuple[list, np.ndarray]
) -> list[tuple[tuple[int, ...], bool]]:
    """(ases, gap) of each hop list, every hop of the batch parsed and
    matched at once; as_numbers is _as_numbers(mapping).

    Timeouts ("*") and unmapped hops are omitted and set the gap flag;
    private-address hops are omitted silently; duplicates are dropped
    keeping the first occurrence. A hop list that is not a non-empty list
    of strings, or a hop that is not an address, raises.
    """
    distinct, entry_number = as_numbers
    for hops in hop_lists:
        if type(hops) is not list:
            raise TypeError(f"hops must be a list of strings, not {type(hops).__name__}")
        if not hops:
            raise EmptyPathError("traceroute produced no hops")
    record = np.repeat(np.arange(len(hop_lists)), [len(hops) for hops in hop_lists])
    hops = list(chain.from_iterable(hop_lists))
    timeout = np.fromiter(map(eq, hops, repeat("*")), dtype=bool, count=len(hops))
    try:
        addresses = ip_to_int_many(list(compress(hops, (~timeout).tolist())))
    except TypeError:
        raise TypeError("hops must be a list of strings") from None
    at = record[~timeout]
    private = _PRIVATE_BLOCKS.lookup_many(addresses) >= 0
    entry = mapping.lookup_many(addresses)
    gap = np.zeros(len(hop_lists), dtype=bool)
    gap[record[timeout]] = True
    gap[at[~private & (entry < 0)]] = True
    mapped = ~private & (entry >= 0)
    at, number = at[mapped], entry_number[entry[mapped]]
    # the first sighting of each (record, AS) in hop order, records staying in order
    _, first = np.unique(at * len(distinct) + number, return_index=True)
    first.sort()
    bounds = np.searchsorted(at[first], np.arange(len(hop_lists) + 1)).tolist()
    ases = [distinct[i] for i in number[first].tolist()]
    return [(tuple(ases[lo:hi]), flag) for lo, hi, flag in zip(bounds, bounds[1:], gap.tolist())]


def resolve_traceroute(hops: list[str], mapping: PrefixTable) -> tuple[tuple[int, ...], bool]:
    """Map one traceroute's hop IPs to an AS-level path and its gap flag;
    the rules are _resolve's."""
    return _resolve([hops], mapping, _as_numbers(mapping))[0]


def load_traceroutes(path, mapping: PrefixTable) -> list[AsLevelPath]:
    """Read traceroute JSONL records {probe, target, role, day, hops}.

    Hops are resolved _BLOCK_RECORDS records at a time. An unusable record
    (not a JSON object, a missing key, an unknown role, hops that are not a
    non-empty list of addresses and "*") raises InputError naming the file
    and the first bad line.
    """
    as_numbers = _as_numbers(mapping)
    paths: list[AsLevelPath] = []
    block: list[tuple] = []  # (line number, probe, target, role, day, hops)

    def resolve_block() -> None:
        try:
            resolved = _resolve([hops for *_, hops in block], mapping, as_numbers)
        except (ValueError, TypeError, PathError):
            for line_no, *_, hops in block:  # find the first bad record
                try:
                    _resolve([hops], mapping, as_numbers)
                except (ValueError, TypeError, PathError) as exc:
                    raise InputError(f"{path}:{line_no}: bad traceroute record: {exc!r}") from None
            raise
        paths.extend(
            AsLevelPath(probe, target, role, day, ases, gap)
            for (_, probe, target, role, day, _), (ases, gap) in zip(block, resolved)
        )
        block.clear()

    with reading(path, "traceroute file") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                role = _ROLES.get(record["role"].upper())
                if role is None:
                    raise ValueError(f"unknown role {record['role']!r}")
                block.append((line_no, str(record["probe"]), str(record["target"]), role,
                              str(record["day"]), record["hops"]))
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                resolve_block()  # a bad hop on an earlier line is reported first
                raise InputError(f"{path}:{line_no}: bad traceroute record: {exc!r}") from None
            if len(block) == _BLOCK_RECORDS:
                resolve_block()
    resolve_block()
    return paths


@dataclass
class DayVulnerability:
    day: str
    pct_symmetric_day1: float
    pct_asymmetric: float
    pct_asymmetric_cumulative: float
    n_quads: int
    n_inherited_paths: int


class PathDataset:
    """Daily path measurements as one path table, plus the four endpoint
    lists whose product is the quad set.

    Row i of the table is paths[i]: key (the id of its (role, probe,
    target)), day_rank, its AS columns columns[offsets[i]:offsets[i + 1]]
    (indices into ases) and first, the column of its first AS or -1 for an
    empty path. order lists the last row of each key on each day, by day;
    order[day_bounds[d]:day_bounds[d + 1]] are day d's. The
    (client, guard) unit c * len(guards) + g has key id forward["cg"][unit]
    for its P1 and reverse["cg"][unit] for its P2 path, and likewise
    forward["ed"]/reverse["ed"] for (exit, dest) units with P3 and P4; an
    id of n_keys means no such key.
    """

    def __init__(self, paths: list[AsLevelPath]) -> None:
        key_ids: dict[tuple[PathRole, str, str], int] = {}
        self.key = np.fromiter(
            (key_ids.setdefault((p.role, p.probe, p.target), len(key_ids)) for p in paths),
            dtype=np.int64, count=len(paths),
        )
        self.n_keys = len(key_ids)
        self.days = sorted({p.day for p in paths})
        day_rank = {day: rank for rank, day in enumerate(self.days)}
        self.day_rank = np.fromiter((day_rank[p.day] for p in paths), dtype=np.int64, count=len(paths))
        # the last measurement of each key on each day, in day order
        _, last = np.unique((self.key * len(self.days) + self.day_rank)[::-1], return_index=True)
        rows = len(paths) - 1 - last
        self.order = rows[np.argsort(self.day_rank[rows], kind="stable")]
        self.day_bounds = np.searchsorted(self.day_rank[self.order], np.arange(len(self.days) + 1))

        self.ases = sorted({asn for path in paths for asn in path.ases})
        column = {asn: i for i, asn in enumerate(self.ases)}
        self.offsets = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(p.ases) for p in paths), dtype=np.int64, count=len(paths)),
                  out=self.offsets[1:])
        self.columns = np.fromiter((column[asn] for p in paths for asn in p.ases),
                                   dtype=np.int64, count=int(self.offsets[-1]))
        self.first = np.fromiter((column[p.ases[0]] if p.ases else -1 for p in paths),
                                 dtype=np.int64, count=len(paths))

        def ends(role, field):  # field 1 is the probe, 2 the target
            return {key[field] for key in key_ids if key[0] is role}

        P1, P2, P3, P4 = PathRole
        self.clients = sorted(ends(P1, 1) | ends(P2, 2))
        self.guards = sorted(ends(P1, 2) | ends(P2, 1))
        self.exits = sorted(ends(P3, 1) | ends(P4, 2))
        self.dests = sorted(ends(P3, 2) | ends(P4, 1))
        self.forward: dict[str, np.ndarray] = {}
        self.reverse: dict[str, np.ndarray] = {}
        for side, (forward, reverse, near, far) in {
            "cg": (P1, P2, self.clients, self.guards),
            "ed": (P3, P4, self.exits, self.dests),
        }.items():
            near_index = {name: i for i, name in enumerate(near)}
            far_index = {name: i for i, name in enumerate(far)}
            self.forward[side] = np.full(len(near) * len(far), self.n_keys, dtype=np.int64)
            self.reverse[side] = np.full(len(near) * len(far), self.n_keys, dtype=np.int64)
            for (role, probe, target), key_id in key_ids.items():
                if role is forward:
                    self.forward[side][near_index[probe] * len(far) + far_index[target]] = key_id
                elif role is reverse:
                    self.reverse[side][near_index[target] * len(far) + far_index[probe]] = key_id


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
    kept_column = np.array([asn not in exclusions for asn in dataset.ases], dtype=bool)
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
