"""Seeded generators producing ground-truth datasets for every analysis.

Traffic generation synthesizes one byte process per client/server pair
(base rate x per-second jitter, shaped by shared-bottleneck water
filling) and renders it as TCP header observations at both vantages:
sequence progression on the data direction, delayed coalesced cumulative
acknowledgments on the reverse. Routing generation renders a declared
per-session path timeline, plus injected hijacks and more-specific
interceptions, as an update stream. Identical seeds give byte-identical
output.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bgp import UpdateTable, prefix_key
from .core import (
    INTEGER, MAX_ASN, NUMBER, PREFIX, STRING, Document, FieldError, InputError, IpPrefix,
    OrNull, RelayDescriptor, bound, ip_to_int, path_ases, read_json, rule,
)
from .correlation import DIRECTIONS, WRAP, Direction, EndpointTrace, PacketTable

TICK = 0.01  # packet emission granularity; analyses bin at >= 1 s
MAX_TICKS = 10**8  # n_pairs x duration / TICK: ticks one run renders across its flows
MAX_PACKETS = 10**7  # the most data packets a run's rates can send: rows of its packet tables


# a scenario fault, in one field or across fields, is a field fault
InvalidScenarioError = FieldError


# --- traffic ------------------------------------------------------------------


@dataclass(frozen=True)
class Bottleneck:
    flows: tuple[int, ...] = rule([INTEGER])
    capacity: float = rule(NUMBER, "> 0")  # bytes/s shared by the member flows


@dataclass(frozen=True)
class TrafficScenario(Document):
    KIND = "traffic"

    seed: int = rule(INTEGER, ">= 0", default=0)
    n_pairs: int = rule(INTEGER, ">= 1", default=50)
    duration: float = rule(NUMBER, "> 0", default=300.0)
    base_rate: float = rule(NUMBER, "> 0", default=20_000.0)  # bytes/s before per-flow spread
    rate_spread: float = rule(NUMBER, ">= 1", default=4.0)  # per-flow factor in [1/spread, spread]
    jitter_low: float = rule(NUMBER, "> 0", default=0.5)  # per-second multiplicative jitter bounds
    jitter_high: float = rule(NUMBER, "> 0", default=2.0)
    ack_delay: float = rule(NUMBER, ">= 0", default=0.05)  # data-to-ack delay at the acknowledger
    mss: int = rule(INTEGER, ">= 1", default=1460)
    tunnel_delay: float = rule(NUMBER, ">= 0", default=0.25)  # one-way transit through the tunnel
    tunnel_jitter: float = rule(NUMBER, ">= 0", default=0.08)  # per-packet uniform extra delay
    retransmit_rate: float = rule(NUMBER, "in [0, 1)", default=0.0)  # data packets duplicated
    guard_groups: tuple[Bottleneck, ...] = rule([Bottleneck], default=())
    exit_groups: tuple[Bottleneck, ...] = rule([Bottleneck], default=())

    def validate(self) -> None:
        super().validate()
        if self.n_pairs * self.duration / TICK > MAX_TICKS:
            raise InvalidScenarioError(
                f"duration must be at most {MAX_TICKS * TICK / self.n_pairs:g} s for "
                f"{self.n_pairs} pairs (n_pairs x duration / {TICK:g} <= {MAX_TICKS:g} ticks), "
                f"not {self.duration:g}"
            )
        packets = (self.n_pairs * self.duration * self.base_rate * self.rate_spread
                   * self.jitter_high / self.mss)
        if packets > MAX_PACKETS:
            raise InvalidScenarioError(
                f"n_pairs x duration x base_rate x rate_spread x jitter_high / mss must be at "
                f"most {MAX_PACKETS:g} data packets, not {packets:g}"
            )
        if self.jitter_low > self.jitter_high:
            raise InvalidScenarioError("jitter bounds must satisfy low <= high")
        for side in (self.guard_groups, self.exit_groups):
            seen: set[int] = set()
            for group in side:
                for flow in group.flows:
                    if not 0 <= flow < self.n_pairs:
                        raise InvalidScenarioError(f"flow {flow} out of range")
                    if flow in seen:
                        raise InvalidScenarioError(
                            f"flow {flow} is in two {('guard', 'exit')[side is self.exit_groups]} groups"
                        )
                    seen.add(flow)


@dataclass
class GroundTruth:
    """True client-to-server pairing of a generated traffic dataset."""

    pairing: dict[str, str]

    def to_dict(self) -> dict:
        return {"pairing": self.pairing}


def _waterfill(desired: np.ndarray, capacity_per_tick: float) -> np.ndarray:
    """Max-min fair allocation per tick: each column of desired, the
    per-tick demand of one second, shares the capacity, each flow getting
    min(desired, level) with the level chosen to exhaust the capacity
    whenever demand exceeds it. This is what a shared relay bottleneck
    does to competing TCP flows: it equalizes them, destroying the rate
    diversity the matcher feeds on."""
    m, _ = desired.shape
    ordered = np.sort(desired, axis=0)
    served = np.vstack([np.zeros(desired.shape[1]), np.cumsum(ordered, axis=0)])
    over = served[-1] > capacity_per_tick
    level = np.full(desired.shape[1], np.inf)
    if np.any(over):
        # level candidates after fully serving the k smallest flows
        with np.errstate(divide="ignore", invalid="ignore"):
            candidates = (capacity_per_tick - served[:-1]) / (
                m - np.arange(m)[:, None]
            )
        lower = np.vstack([np.zeros(desired.shape[1]), ordered[:-1]])
        valid = (candidates >= lower - 1e-12) & (candidates <= ordered + 1e-12)
        pick = np.argmax(valid, axis=0)
        level_over = candidates[pick, np.arange(desired.shape[1])]
        level = np.where(over, level_over, level)
    return np.minimum(desired, level)


def _byte_allocation(scenario: TrafficScenario, rng: np.random.Generator) -> np.ndarray:
    """Realized bytes per flow per tick after jitter and bottlenecks, one
    column per second: every tick of a second carries that column's value."""
    n = scenario.n_pairs
    n_secs = math.ceil(scenario.duration)
    spread = math.log(scenario.rate_spread)
    flow_rate = scenario.base_rate * np.exp(rng.uniform(-spread, spread, size=n))
    jitter = np.exp(
        rng.uniform(
            math.log(scenario.jitter_low),
            math.log(scenario.jitter_high),
            size=(n, n_secs),
        )
    )
    per_tick = flow_rate[:, None] * jitter * TICK
    for group in scenario.guard_groups + scenario.exit_groups:
        members = list(group.flows)
        per_tick[members] = _waterfill(per_tick[members], group.capacity * TICK)
    return per_tick


def _vantage_table(
    times: np.ndarray,
    offsets: np.ndarray,
    payloads: np.ndarray,
    isn: int,
    handshake_ts: float,
    ack_delay: float,
    data_dir: Direction,
    ack_dir: Direction,
) -> PacketTable:
    """Data packets plus the delayed cumulative acks seen at one vantage.

    Every second data packet and the last one are acknowledged, after an
    ack of the bare isn at handshake_ts. Rows are stably sorted on time:
    at equal stamps data comes before the handshake ack before the acks.
    """
    n = len(times)
    acked = np.maximum.accumulate(offsets + payloads)
    ack_idx = np.arange(1, n, 2)
    if n % 2:
        ack_idx = np.append(ack_idx, n - 1)
    n_acks = len(ack_idx) + 1
    table = PacketTable(
        ts=np.concatenate([times, [handshake_ts], times[ack_idx] + ack_delay]),
        direction=np.repeat(
            [DIRECTIONS.index(data_dir), DIRECTIONS.index(ack_dir)], [n, n_acks]
        ),
        seq=np.concatenate([(isn + offsets) % WRAP, np.zeros(n_acks, dtype=np.int64)]),
        ack=np.concatenate([np.zeros(n, dtype=np.int64), [isn], (isn + acked[ack_idx]) % WRAP]),
        payload_len=np.concatenate([payloads, np.zeros(n_acks, dtype=np.int64)]),
        flags=np.zeros(n + n_acks, dtype=np.uint8),
    )
    return table[np.argsort(table.ts, kind="stable")]


def _render_flow(
    allocation: np.ndarray, scenario: TrafficScenario, rng: np.random.Generator
) -> tuple[PacketTable, PacketTable]:
    """One pair's upload, from its bytes per tick by second, as seen at the
    client and at the server vantage."""
    mss = scenario.mss
    n_ticks = int(round(scenario.duration / TICK))
    cum = np.cumsum(np.repeat(allocation, int(round(1 / TICK)))[:n_ticks])
    total = int(cum[-1])
    n_chunks = total // mss
    remainder = total - n_chunks * mss
    isn_client = int(rng.integers(0, WRAP))
    isn_server = int(rng.integers(0, WRAP))

    targets = mss * np.arange(1, n_chunks + 1, dtype=np.float64)
    ticks = np.searchsorted(cum, targets, side="left")
    times = TICK * (ticks + 1)
    offsets = mss * np.arange(n_chunks, dtype=np.int64)
    payloads = np.full(n_chunks, mss, dtype=np.int64)
    if remainder > 0:
        times = np.append(times, scenario.duration)
        offsets = np.append(offsets, mss * n_chunks)
        payloads = np.append(payloads, remainder)

    if scenario.retransmit_rate > 0 and len(times):
        dup = rng.random(len(times)) < scenario.retransmit_rate
        times = np.concatenate([times, times[dup] + 0.2])
        offsets = np.concatenate([offsets, offsets[dup]])
        payloads = np.concatenate([payloads, payloads[dup]])
        order = np.argsort(times, kind="mergesort")
        times, offsets, payloads = times[order], offsets[order], payloads[order]

    client = _vantage_table(
        times, offsets, payloads, isn_client, 0.0, scenario.ack_delay,
        Direction.TO_RELAY, Direction.FROM_RELAY,
    )
    # the same bytes arrive at the server vantage after the tunnel
    arrivals = times + scenario.tunnel_delay + rng.uniform(
        0, scenario.tunnel_jitter, size=len(times)
    )
    order = np.argsort(arrivals, kind="mergesort")
    server = _vantage_table(
        arrivals[order], offsets[order], payloads[order], isn_server,
        scenario.tunnel_delay, scenario.ack_delay,
        Direction.TO_SERVER, Direction.FROM_SERVER,
    )
    return client, server


def gen_traffic(
    scenario: TrafficScenario,
) -> tuple[list[EndpointTrace], list[EndpointTrace], GroundTruth]:
    """Endpoint traces for n_pairs simultaneous transfers plus the truth.

    Client i uploads through the tunnel to the server assigned by a seeded
    permutation; both vantages describe the same byte process with
    independent initial sequence numbers, so unwrapping gets exercised.
    """
    scenario.validate()
    rng = np.random.default_rng(scenario.seed)
    allocation = _byte_allocation(scenario, rng)
    perm = rng.permutation(scenario.n_pairs)
    clients: list[EndpointTrace] = []
    servers: list[EndpointTrace | None] = [None] * scenario.n_pairs
    pairing: dict[str, str] = {}
    for i in range(scenario.n_pairs):
        client_obs, server_obs = _render_flow(allocation[i], scenario, rng)
        client_id = f"client-{i:02d}"
        server_id = f"server-{perm[i]:02d}"
        pairing[client_id] = server_id
        clients.append(EndpointTrace(client_id, client_obs))
        servers[perm[i]] = EndpointTrace(server_id, server_obs)
    return clients, [s for s in servers if s is not None], GroundTruth(pairing)


# --- routing ------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSpec:
    session_id: str = rule(STRING)
    local_as: int = rule(INTEGER)


@dataclass(frozen=True)
class RouteSpec:
    session: str = rule(STRING)
    prefix: str = rule(PREFIX)
    path: tuple[int, ...] = rule([INTEGER])


@dataclass(frozen=True)
class ChurnEvent:
    time: float = rule(NUMBER)
    session: str = rule(STRING)
    prefix: str = rule(PREFIX)
    path: tuple[int, ...] | None = rule(OrNull([INTEGER]))  # None withdraws


@dataclass(frozen=True)
class InjectedEvent:
    kind: str = rule(STRING, ("hijack", "interception"))
    prefix: str = rule(PREFIX)
    attacker_path: tuple[int, ...] = rule([INTEGER])
    start: float = rule(NUMBER)
    duration: float = rule(NUMBER, "> 0")

    @property
    def origin(self) -> int:
        return self.attacker_path[-1]

    @property
    def window(self) -> tuple[float, float]:
        return (self.start, self.start + self.duration)


@dataclass(frozen=True)
class RoutingScenario(Document):
    KIND = "routing"

    seed: int = rule(INTEGER, ">= 0")
    window: tuple[float, float] = rule((NUMBER, NUMBER))
    sessions: tuple[SessionSpec, ...] = rule([SessionSpec])
    relays: tuple[RelayDescriptor, ...] = rule([RelayDescriptor])
    base_routes: tuple[RouteSpec, ...] = rule([RouteSpec])
    churn: tuple[ChurnEvent, ...] = rule([ChurnEvent], default=())
    events: tuple[InjectedEvent, ...] = rule([InjectedEvent], default=())

    def validate(self) -> None:
        super().validate()
        t0, t1 = self.window
        if t1 <= t0:
            raise InvalidScenarioError("empty window")
        if () in [r.path for r in self.base_routes + self.churn] + [
            e.attacker_path for e in self.events
        ]:
            raise InvalidScenarioError("an AS path must not be empty")
        # the update file is read back with core.parse_asn's range
        paths = [("base_routes", i, 2, r.path) for i, r in enumerate(self.base_routes)]
        paths += [("churn", i, 3, c.path or ()) for i, c in enumerate(self.churn)]
        paths += [("events", i, 2, e.attacker_path) for i, e in enumerate(self.events)]
        for name, i, j, path in paths:
            if not all(0 <= asn <= MAX_ASN for asn in path):
                raise InvalidScenarioError(
                    f"{name}[{i}][{j}] must hold AS numbers in 0..{MAX_ASN}, not {list(path)}"
                )
        ids = {s.session_id for s in self.sessions}
        if len(ids) != len(self.sessions):
            raise InvalidScenarioError("duplicate session ids")
        for route in self.base_routes + tuple(
            c for c in self.churn if c.path is not None
        ):
            if route.session not in ids:
                raise InvalidScenarioError(f"unknown session {route.session}")
        times = [c.time for c in self.churn]
        if times != sorted(times):
            raise InvalidScenarioError("churn schedule must be time-ordered")
        churn_times: dict[str, list[float]] = {}
        for change in self.churn:
            churn_times.setdefault(change.prefix, []).append(change.time)
        for event in self.events:
            if not (t0 <= event.start and event.start + event.duration <= t1):
                raise InvalidScenarioError("event outside the window")
            if any(
                event.start <= t <= event.start + event.duration
                for t in churn_times.get(event.prefix, ())
            ):
                raise InvalidScenarioError("churn on an attacked prefix during its event window")
        spans: dict[str, list[tuple[float, float]]] = {}
        for event in self.events:
            for other in spans.get(event.prefix, ()):
                if event.start < other[1] and other[0] < event.start + event.duration:
                    raise InvalidScenarioError("overlapping events on one prefix")
            spans.setdefault(event.prefix, []).append(event.window)


@dataclass
class RoutingGroundTruth:
    events: list[InjectedEvent]

    def to_dict(self) -> dict:
        return {
            "events": [
                {
                    "kind": e.kind,
                    "prefix": e.prefix,
                    "origin": e.origin,
                    "t_start": e.start,
                    "t_end": e.start + e.duration,
                }
                for e in self.events
            ]
        }


def gen_updates(scenario: RoutingScenario) -> tuple[UpdateTable, RoutingGroundTruth]:
    """Render the scenario as a per-session update stream, sorted by
    (timestamp, session, prefix) with emission order kept on ties.

    Hijacks announce the exact victim prefix from the attacker's origin on
    every session and restore the legitimate path after the event;
    interceptions announce a more-specific prefix and withdraw it. The
    declared schedule is the ground truth, so detector recall can be
    scored exactly. The scenario must pass validate(), as load_scenario's do.

    Rows are built as columns in emission order, with ids the ranks of the
    sorted distinct sessions, prefixes and paths (prepends collapsed).
    """
    sessions = sorted(s.session_id for s in scenario.sessions)
    base = sorted(scenario.base_routes, key=lambda r: (r.session, r.prefix))
    rows = [(scenario.window[0], r.session, r.prefix, r.path) for r in base]
    rows += [(c.time, c.session, c.prefix, c.path) for c in scenario.churn]
    n = len(rows)  # the legitimate rows; then each event's start and end on each session
    rows += [
        (t, session, event.prefix, path)
        for event in scenario.events
        for session in sessions
        for t, path in ((event.start, event.attacker_path), (event.start + event.duration, None))
    ]
    ts, names, texts, paths = zip(*rows) if rows else ((),) * 4
    session_id = {s: i for i, s in enumerate(sorted(set(names)))}
    text_id = {t: i for i, t in enumerate(dict.fromkeys(texts))}
    parsed = [IpPrefix.parse(text) for text in text_id]  # each prefix text is parsed once
    prefixes = sorted(set(parsed), key=prefix_key)
    prefix_id = {p: i for i, p in enumerate(prefixes)}
    collapsed = {p: path_ases(p) for p in dict.fromkeys(paths) if p is not None}
    ases = sorted(set(collapsed.values()))
    rank = {a: i for i, a in enumerate(ases)}
    path_id = {None: -1} | {p: rank[a] for p, a in collapsed.items()}
    ts = np.array(ts, np.float64)
    session = np.fromiter(map(session_id.__getitem__, names), np.int64, len(names))
    text = np.fromiter(map(text_id.__getitem__, texts), np.int64, len(texts))
    path = np.fromiter(map(path_id.__getitem__, paths), np.int64, len(paths))
    # a hijack's end restores the last legitimate row of its (session, prefix text) at
    # or before then: a key of that pair and the time's rank, stably sorted (ties in order)
    group = session * len(text_id) + text
    key = group * (n + 1) + np.searchsorted(np.sort(ts[:n]), ts, "right")
    order = np.argsort(key[:n], kind="stable")
    hijack = [event.kind == "hijack" for event in scenario.events for _ in sessions]
    ends = n + 1 + 2 * np.flatnonzero(hijack)
    row = np.append(order, -1)[np.searchsorted(key[order], key[ends], "right") - 1]  # -1: none
    path[ends] = np.where((row >= 0) & (group[row] == group[ends]), path[row], -1)
    prefix = np.array([prefix_id[p] for p in parsed], np.int64)[text]
    order = np.lexsort((prefix, session, ts))
    table = UpdateTable(*(c[order] for c in (ts, session, prefix, path)), session_id, prefixes, ases)
    return table, RoutingGroundTruth(list(scenario.events))


def injection_scenario(
    seed: int = 0, n_hijacks: int = 20, n_interceptions: int = 5
) -> RoutingScenario:
    """Clean 24 h background with planted attacks, for detector scoring.

    Background routes live at least ~5000 s (far above the 1% lifetime
    threshold) and keep their origins through churn, so a correct detector
    alerts on exactly the planted events: short-lived foreign-origin
    exact-prefix hijacks and foreign-origin more-specific interceptions.
    """
    rng = np.random.default_rng(seed)
    window = (0.0, 86400.0)
    n_prefixes = 60
    relays = []
    for i in range(n_prefixes):
        role = i % 3
        relays.append(
            RelayDescriptor(
                address=ip_to_int(f"10.{i}.0.{int(rng.integers(2, 200))}"),
                is_guard=role in (0, 2),
                is_exit=role in (1, 2),
                bandwidth=float(rng.integers(1, 50)),
                nickname=f"r{i}",
            )
        )
    sessions = tuple(SessionSpec(f"s{k}", 64500 + k) for k in range(3))
    base = tuple(
        RouteSpec(spec.session_id, f"10.{i}.0.0/16", (64000 + k, 65000 + i))
        for k, spec in enumerate(sessions)
        for i in range(n_prefixes)
    )
    indices = rng.permutation(n_prefixes)[: n_hijacks + n_interceptions]
    events = []
    for j, i in enumerate(int(v) for v in indices):
        start = float(rng.integers(10_000, 70_000))
        duration = float(rng.integers(60, 600))
        attacker = (64_999, 66_600 + j)
        if j < n_hijacks:
            events.append(
                InjectedEvent("hijack", f"10.{i}.0.0/16", attacker, start, duration)
            )
        else:
            events.append(
                InjectedEvent("interception", f"10.{i}.0.0/17", attacker, start, duration)
            )
    quiet = sorted(set(range(n_prefixes)) - {int(v) for v in indices})
    churn = []
    for i in (int(v) for v in rng.permutation(quiet)[: min(20, len(quiet))]):
        k = int(rng.integers(0, len(sessions)))
        churn.append(
            ChurnEvent(
                float(rng.integers(5_000, 80_000)),
                sessions[k].session_id,
                f"10.{i}.0.0/16",
                (64000 + k, 64_100 + int(rng.integers(0, 50)), 65_000 + i),
            )
        )
    churn.sort(key=lambda c: c.time)
    return RoutingScenario(
        seed=seed,
        window=window,
        sessions=sessions,
        relays=tuple(relays),
        base_routes=base,
        churn=tuple(churn),
        events=tuple(events),
    )


# --- traceroute path meshes -----------------------------------------------------


@dataclass(frozen=True)
class PathScenario:
    """Daily forward/reverse AS-path mesh across four probe sets.

    Every path gets endpoint ASes plus at most one AS from a shared
    transit pool; reverse paths reuse the forward transit with probability
    reverse_reuse (routing is mostly, not fully, symmetric). Each
    client-guard and exit-dest unit re-rolls its transits with probability
    churn_rate per day. Defaults are calibrated so the day-one symmetric
    and asymmetric vulnerable-quad rates land near 12.8% and 21.3%.
    """

    seed: int = 0
    days: int = 21
    n_clients: int = 10
    n_guards: int = 25
    n_exits: int = 25
    n_dests: int = 10
    transit_pool: int = 4
    p_transit: float = 0.7155
    reverse_reuse: float = 0.6
    churn_rate: float = 0.02


def gen_traceroute_paths(scenario: PathScenario) -> list:
    """AS-level paths per (role, endpoints, day), ready for PathDataset."""
    from .paths import AsLevelPath, PathRole

    rng = np.random.default_rng(scenario.seed)
    transits = [900 + i for i in range(scenario.transit_pool)]

    def draw_transit():
        return int(rng.choice(transits)) if rng.random() < scenario.p_transit else None

    def draw_unit():
        forward = draw_transit()
        reverse = forward if rng.random() < scenario.reverse_reuse else draw_transit()
        return forward, reverse

    units: dict[tuple[str, str], tuple] = {}
    for c in range(scenario.n_clients):
        for g in range(scenario.n_guards):
            units[(f"c{c}", f"g{g}")] = draw_unit()
    for e in range(scenario.n_exits):
        for d in range(scenario.n_dests):
            units[(f"e{e}", f"d{d}")] = draw_unit()

    endpoint_as = {}
    for kind, base, count in (
        ("c", 100, scenario.n_clients),
        ("g", 200, scenario.n_guards),
        ("e", 300, scenario.n_exits),
        ("d", 400, scenario.n_dests),
    ):
        for i in range(count):
            endpoint_as[f"{kind}{i}"] = base + i

    paths = []
    for day_index in range(scenario.days):
        day = f"d{day_index + 1:02d}"
        if day_index > 0:
            for key in sorted(units):
                if rng.random() < scenario.churn_rate:
                    units[key] = draw_unit()
        for (src, dst), (forward, reverse) in sorted(units.items()):
            role_fwd = (
                PathRole.P1_CLIENT_TO_GUARD if src.startswith("c") else PathRole.P3_EXIT_TO_DEST
            )
            role_rev = (
                PathRole.P2_GUARD_TO_CLIENT if src.startswith("c") else PathRole.P4_DEST_TO_EXIT
            )
            fwd_ases = [endpoint_as[src]] + ([forward] if forward is not None else []) + [endpoint_as[dst]]
            rev_ases = [endpoint_as[dst]] + ([reverse] if reverse is not None else []) + [endpoint_as[src]]
            paths.append(AsLevelPath(src, dst, role_fwd, day, tuple(fwd_ases), False))
            paths.append(AsLevelPath(dst, src, role_rev, day, tuple(rev_ases), False))
    return paths


# --- interception timeline -------------------------------------------------------


@dataclass
class InterceptionRun:
    """Output of one interception experiment (download direction).

    attacker_traces hold only the client acknowledgment packets that fell
    inside the capture interval, on the raw clock; capture[0] is the
    adjusted-clock origin. seconds/good_acks/attacker_acks give the
    per-second ack-packet counts flowing via each tunnel.
    """

    attacker_traces: list[EndpointTrace]
    server_traces: list[EndpointTrace]
    truth: GroundTruth
    capture: tuple[float, float]
    seconds: np.ndarray
    good_acks: np.ndarray
    attacker_acks: np.ndarray


@dataclass(frozen=True)
class InterceptionTiming(Document):
    """Seconds into the run: the attacker announces at announce_at, the
    announcement takes propagation to settle, it is withdrawn at withdraw_at
    and routing reconverges reconvergence later."""

    announce_at: float = rule(NUMBER, ">= 0", default=20.0)
    propagation: float = rule(NUMBER, ">= 0", default=35.0)
    withdraw_at: float = rule(NUMBER, ">= 0", default=300.0)
    reconvergence: float = rule(NUMBER, ">= 0", default=22.0)

    def validate_for(self, duration: float, where: str = "") -> None:
        """validate(where), then require the capture to open before the
        withdrawal and before a run of duration seconds ends."""
        self.validate(where)
        if self.announce_at + self.propagation >= min(self.withdraw_at, duration):
            raise InvalidScenarioError(
                "interception must settle before the withdrawal and the end of the run"
            )


def gen_interception_timeline(scenario: TrafficScenario, **timing: float) -> InterceptionRun:
    """More-specific interception against the guard prefix, at the
    InterceptionTiming fields given as keywords (its defaults otherwise).

    Traffic flows the whole run (interception keeps connections alive);
    client-to-guard ack packets ride the good tunnel until the attacker's
    announcement propagates, then the attacker's tunnel until reconvergence
    after the withdrawal. The attacker capture is ACK-only by construction:
    that is all that flows toward a guard during a download.
    """
    times = InterceptionTiming(**timing)
    times.validate_for(scenario.duration)
    clients, server_traces, truth = gen_traffic(scenario)
    switch_on = times.announce_at + times.propagation
    switch_off = min(times.withdraw_at + times.reconvergence, scenario.duration)
    attacker_traces: list[EndpointTrace] = []
    n_secs = math.ceil(scenario.duration)
    good = np.zeros(n_secs, dtype=np.int64)
    captured = np.zeros(n_secs, dtype=np.int64)
    for client in clients:
        # download direction: the server-side render is reused as-is, and
        # the client's acks toward the guard are the FROM_RELAY stream of
        # the upload render reinterpreted (same cumulative process).
        obs = client.observations
        acks = obs[obs.direction == DIRECTIONS.index(Direction.FROM_RELAY)]
        inside = (switch_on <= acks.ts) & (acks.ts < switch_off)
        seconds = np.minimum(acks.ts.astype(np.int64), n_secs - 1)
        captured += np.bincount(seconds[inside], minlength=n_secs)
        good += np.bincount(seconds[~inside], minlength=n_secs)
        kept = acks[inside]
        kept.direction[:] = DIRECTIONS.index(Direction.TO_RELAY)
        attacker_traces.append(replace(client, observations=kept))
    return InterceptionRun(
        attacker_traces=attacker_traces,
        server_traces=server_traces,
        truth=truth,
        capture=(switch_on, switch_off),
        seconds=np.arange(n_secs, dtype=np.float64),
        good_acks=good,
        attacker_acks=captured,
    )


# --- scenario file handling -------------------------------------------------------


_KINDS = {"traffic": TrafficScenario, "routing": RoutingScenario, "interception": TrafficScenario}


def load_scenario(path):
    """The scenario of a JSON document whose kind picks the type: a
    TrafficScenario or RoutingScenario, or for interception a
    (TrafficScenario, InterceptionTiming fields) pair read from the
    document's fields and its "timing" object.

    Text that is not JSON, a field against its rule and a scenario that
    fails a cross-field check raise InputError naming the file (and line).
    """
    data = read_json(path, "scenario file")
    try:
        if type(data) is not dict:
            raise InvalidScenarioError("a scenario must be a JSON object")
        kind = bound(data.get("kind"), tuple(_KINDS), "'kind'")
        body = dict(data)
        timing = body.pop("timing", {}) if kind == "interception" else None
        scenario = _KINDS[kind].from_dict(body)
        scenario.validate()
        if timing is None:
            return scenario
        timing = InterceptionTiming.from_dict(timing, "timing")
        timing.validate_for(scenario.duration, "timing")
        return scenario, asdict(timing)
    except FieldError as exc:
        raise InputError(f"{path}: invalid scenario: {exc}") from None


def shared_guard_variant(scenario: TrafficScenario, capacity_fraction: float = 0.35) -> TrafficScenario:
    """Same scenario with every flow squeezed through one guard bottleneck.

    Capacity is the given fraction of the aggregate mean rate, tight
    enough that the shared level replaces most of the per-flow diversity.
    """
    capacity = capacity_fraction * scenario.base_rate * scenario.n_pairs
    return replace(
        scenario,
        guard_groups=(Bottleneck(tuple(range(scenario.n_pairs)), capacity),),
    )
