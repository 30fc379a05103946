"""Tests for the traffic, routing, and interception generators."""

import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routelens.bgp import ingest, prefix_key, write_updates
from routelens.churn import compromised_circuits, segment_observations
from routelens.correlation import (
    DIRECTIONS,
    Direction,
    SignalKind,
    correlate_all,
    extract_progress,
    spearman,
)
from routelens.core import IpPrefix, RelayDescriptor, ip_to_int
from routelens.detect import HijackEvent, cross_reference, time_heuristic
from routelens.evaluation import shared_scenario
from routelens.simulate import (
    _byte_allocation,
    Bottleneck,
    ChurnEvent,
    InjectedEvent,
    InvalidScenarioError,
    RouteSpec,
    RoutingScenario,
    SessionSpec,
    TrafficScenario,
    gen_interception_timeline,
    gen_traffic,
    gen_updates,
    injection_scenario,
    load_scenario,
    shared_guard_variant,
)

from helpers import (
    AsPath, hit_records, oracle_gen_updates, oracle_tick_allocation, oracle_trace_text,
    planted_compromised, random_routing_scenario, updates_of,
)

DAY = 86400.0


def constant_rate_scenario(**overrides):
    base = dict(
        seed=3,
        n_pairs=1,
        duration=10.0,
        base_rate=1_000_000.0,
        rate_spread=1.0,
        jitter_low=1.0,
        jitter_high=1.0,
        tunnel_jitter=0.0,
    )
    base.update(overrides)
    return TrafficScenario(**base)


# --- traffic -------------------------------------------------------------------


def test_constant_rate_conservation():
    clients, servers, truth = gen_traffic(constant_rate_scenario())
    data = extract_progress(clients[0], SignalKind.DATA, t0=0.0, window=12.0)
    assert data.total_bytes == 10_000_000.0
    server = servers[0]
    assert truth.pairing["client-00"] == "server-00"
    ack = extract_progress(server, SignalKind.ACK, t0=0.0, window=12.0)
    assert ack.total_bytes == 10_000_000.0


def test_conservation_under_jitter_and_spread():
    clients, servers, truth = gen_traffic(TrafficScenario(seed=8, n_pairs=4, duration=30.0))
    by_id = {s.vantage_id: s for s in servers}
    for client in clients:
        data = extract_progress(client, SignalKind.DATA, t0=0.0, window=32.0)
        ack = extract_progress(
            by_id[truth.pairing[client.vantage_id]], SignalKind.ACK, t0=0.0, window=32.0
        )
        assert data.total_bytes == ack.total_bytes > 0


def test_cross_pair_correlation_below_within_pair():
    clients, servers, truth = gen_traffic(
        TrafficScenario(seed=5, n_pairs=2, duration=120.0)
    )
    cs = [extract_progress(t, SignalKind.DATA, t0=0.0, window=120.0) for t in clients]
    ss = [extract_progress(t, SignalKind.ACK, t0=0.0, window=120.0) for t in servers]
    matrix = correlate_all(cs, ss)
    ids_s = [t.vantage_id for t in servers]
    for i, client in enumerate(clients):
        j = ids_s.index(truth.pairing[client.vantage_id])
        within = matrix[i, j]
        cross = max(matrix[i, k] for k in range(2) if k != j)
        assert within > cross


def test_identical_seed_byte_identical_output():
    scenario = TrafficScenario(seed=11, n_pairs=3, duration=20.0)
    first = gen_traffic(scenario)
    second = gen_traffic(scenario)
    for a, b in zip(first[0] + first[1], second[0] + second[1]):
        assert oracle_trace_text(a.observations) == oracle_trace_text(b.observations)
    assert first[2].pairing == second[2].pairing
    different = gen_traffic(TrafficScenario(seed=12, n_pairs=3, duration=20.0))
    assert different[2].pairing != first[2].pairing or any(
        a.observations != b.observations for a, b in zip(first[0], different[0])
    )


def _text_digest(traces):
    text = "".join(oracle_trace_text(t.observations) for t in traces)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_simulated_trace_bytes_pinned():
    # the simulator's JSONL bytes are fixed for a seed: tie order at equal
    # stamps, counters and rounding, written record by record with json.dumps
    clients, servers, _ = gen_traffic(
        TrafficScenario(seed=21, n_pairs=3, duration=20.0, retransmit_rate=0.1)
    )
    assert _text_digest(clients + servers) == "e2d696ddd407fbcf"
    run = gen_interception_timeline(
        TrafficScenario(seed=6, n_pairs=2, duration=120.0),
        announce_at=10.0, propagation=5.0, withdraw_at=80.0,
    )
    assert _text_digest(run.attacker_traces + run.server_traces) == "62820e54936e929f"
    assert (run.good_acks.sum(), run.attacker_acks.sum()) == (441, 1183)


def test_bottleneck_feasibility():
    scenario = TrafficScenario(
        seed=4,
        n_pairs=6,
        duration=30.0,
        guard_groups=(Bottleneck((0, 1, 2), 25_000.0),),
        exit_groups=(Bottleneck((2, 3, 4), 30_000.0),),
    )
    rng = np.random.default_rng(scenario.seed)
    allocation = np.repeat(_byte_allocation(scenario, rng), 100, axis=1)
    per_second = allocation.reshape(scenario.n_pairs, 30, 100).sum(axis=2)
    for group in scenario.guard_groups + scenario.exit_groups:
        # the rate process itself respects the capacity exactly
        aggregate = per_second[list(group.flows)].sum(axis=0)
        assert np.all(aggregate <= group.capacity + 1e-6)
    # the packetized stream adds only MSS quantization per member flow
    clients, _, _ = gen_traffic(scenario)
    series = [
        extract_progress(t, SignalKind.DATA, Direction.TO_RELAY, 1.0, 30.0, 0.0)
        for t in clients
    ]
    for group in scenario.guard_groups + scenario.exit_groups:
        emitted = sum(series[i].deltas for i in group.flows)
        assert np.all(emitted <= group.capacity + 2 * scenario.mss * len(group.flows))


@st.composite
def bottlenecked_scenarios(draw):
    """Scenarios with non-integer durations and guard and exit groups that
    overlap each other, at capacities tight and loose against the demand."""
    n_pairs = draw(st.integers(1, 7))
    capacity = st.one_of(st.floats(500.0, 60_000.0), st.just(1e9))

    def groups():
        label = draw(st.lists(st.integers(-1, 2), min_size=n_pairs, max_size=n_pairs))
        members = [tuple(i for i, g in enumerate(label) if g == k) for k in range(3)]
        return tuple(Bottleneck(flows, draw(capacity)) for flows in members if flows)

    return TrafficScenario(
        seed=draw(st.integers(0, 2**32 - 1)),
        n_pairs=n_pairs,
        duration=draw(st.floats(0.5, 40.0)),
        jitter_low=draw(st.floats(0.1, 1.0)),
        guard_groups=groups(),
        exit_groups=groups(),
    )


@settings(max_examples=80, deadline=None)
@given(bottlenecked_scenarios())
def test_byte_allocation_expands_to_the_per_tick_oracle(scenario):
    # every tick of a second carries the second's value, water-filled or not
    n_ticks = int(round(scenario.duration / 0.01))
    seconds = _byte_allocation(scenario, np.random.default_rng(scenario.seed))
    assert seconds.shape == (scenario.n_pairs, math.ceil(scenario.duration))
    ticks = np.repeat(seconds, 100, axis=1)[:, :n_ticks]
    expected = oracle_tick_allocation(scenario, np.random.default_rng(scenario.seed))
    assert ticks.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "scenario",
    [TrafficScenario(seed=0, n_pairs=20, duration=300.0), shared_scenario(0, 20)],
    ids=["free", "shared"],
)
def test_gen_traffic_holds_little_beyond_its_traces(scenario):
    # the packet tables it returns are what it must hold; its scratch is small
    tracemalloc.start()
    try:
        traces = gen_traffic(scenario)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traces[0]) == 20
    assert peak - retained < 2 * 2**20


def test_shared_bottleneck_couples_flows():
    base = TrafficScenario(seed=9, n_pairs=8, duration=120.0)
    free_clients, _, _ = gen_traffic(base)
    tight_clients, _, _ = gen_traffic(shared_guard_variant(base, 0.35))

    def mean_cross(traces):
        series = [
            extract_progress(t, SignalKind.DATA, t0=0.0, window=120.0) for t in traces
        ]
        values = [
            spearman(series[i].deltas, series[j].deltas)
            for i in range(len(series))
            for j in range(i + 1, len(series))
        ]
        return float(np.mean(values))

    assert mean_cross(tight_clients) > mean_cross(free_clients) + 0.2


def test_retransmissions_duplicate_packets_but_not_progress():
    plain = constant_rate_scenario()
    lossy = constant_rate_scenario(retransmit_rate=0.2)
    clients_p, _, _ = gen_traffic(plain)
    clients_l, servers_l, _ = gen_traffic(lossy)
    obs = clients_l[0].observations
    raw_payload = obs.payload_len[obs.direction == DIRECTIONS.index(Direction.TO_RELAY)].sum()
    progress = extract_progress(clients_l[0], SignalKind.DATA, t0=0.0, window=12.0)
    assert raw_payload > progress.total_bytes  # duplicates inflate raw bytes only
    ack = extract_progress(servers_l[0], SignalKind.ACK, t0=0.0, window=12.0)
    assert ack.total_bytes == progress.total_bytes


def test_invalid_scenarios_rejected():
    with pytest.raises(InvalidScenarioError):
        TrafficScenario(n_pairs=0).validate()
    with pytest.raises(InvalidScenarioError):
        TrafficScenario(guard_groups=(Bottleneck((0, 9), 1000.0),), n_pairs=2).validate()
    with pytest.raises(InvalidScenarioError):
        TrafficScenario(
            n_pairs=2,
            guard_groups=(Bottleneck((0,), 100.0), Bottleneck((0, 1), 100.0)),
        ).validate()
    with pytest.raises(InvalidScenarioError):
        TrafficScenario(jitter_low=0.0).validate()


def test_validate_bounds_records_built_in_python():
    capacity = r"^guard_groups\[0\]\[1\] must be finite and > 0, not 0.0$"
    with pytest.raises(InvalidScenarioError, match=capacity):
        TrafficScenario(n_pairs=2, guard_groups=(Bottleneck((0,), 0.0),)).validate()
    leak = InjectedEvent("leak", "10.0.0.0/16", (999, 666), 100.0, 50.0)
    with pytest.raises(InvalidScenarioError, match=r"^events\[0\]\[0\] must be 'hijack' or"):
        small_routing_scenario(events=[leak]).validate()
    with pytest.raises(InvalidScenarioError, match="^propagation must be finite and >= 0, not -1.0$"):
        gen_interception_timeline(TrafficScenario(n_pairs=1), propagation=-1.0)


def test_traffic_scenario_dict_roundtrip():
    scenario = TrafficScenario(
        seed=17, n_pairs=5, guard_groups=(Bottleneck((0, 1), 5_000.0),)
    )
    assert TrafficScenario.from_dict(scenario.to_dict()) == scenario


# --- routing -------------------------------------------------------------------


def small_routing_scenario(events=(), churn=(), window=(0.0, 600.0)):
    relays = (
        RelayDescriptor(ip_to_int("10.0.0.5"), True, False, 5.0, "g"),
        RelayDescriptor(ip_to_int("10.1.0.5"), False, True, 5.0, "e"),
    )
    return RoutingScenario(
        seed=1,
        window=window,
        sessions=(SessionSpec("s1", 64500), SessionSpec("s2", 64501)),
        relays=relays,
        base_routes=(
            RouteSpec("s1", "10.0.0.0/16", (101, 102)),
            RouteSpec("s1", "10.1.0.0/16", (101, 103)),
            RouteSpec("s2", "10.0.0.0/16", (104, 102)),
            RouteSpec("s2", "10.1.0.0/16", (104, 103)),
        ),
        churn=tuple(churn),
        events=tuple(events),
    )


def test_empty_schedule_emits_initial_announcements_only():
    scenario = small_routing_scenario()
    updates, truth = gen_updates(scenario)
    assert len(updates) == 4
    assert all(u.path is not None and u.timestamp == 0.0 for u in updates_of(updates))
    assert truth.events == []


def test_injected_hijack_is_time_flagged():
    event = InjectedEvent("hijack", "10.0.0.0/16", (999, 666), 40_000.0, 60.0)
    scenario = small_routing_scenario(events=[event], window=(0.0, DAY))
    updates, truth = gen_updates(scenario)
    assert truth.events == [event]
    alerts = time_heuristic(updates, list(scenario.relays), (0.0, DAY), 0.01)
    flagged = [(str(a.prefix), a.origin_as) for a in alerts]
    assert ("10.0.0.0/16", 666) in flagged
    # the legitimate route is restored after the event and never flagged
    assert all(origin != 102 for _, origin in flagged)


def test_interception_event_announces_and_withdraws():
    event = InjectedEvent("interception", "10.0.0.0/24", (999, 666), 100.0, 50.0)
    scenario = small_routing_scenario(events=[event])
    updates, _ = gen_updates(scenario)
    attack = [u for u in updates_of(updates) if str(u.prefix) == "10.0.0.0/24"]
    kinds = [(u.path is None, u.session) for u in attack]
    assert (False, "s1") in kinds and (True, "s1") in kinds
    assert len(attack) == 4  # announce + withdraw on both sessions


def test_churn_during_event_rejected():
    event = InjectedEvent("hijack", "10.0.0.0/16", (999, 666), 100.0, 50.0)
    with pytest.raises(InvalidScenarioError):
        small_routing_scenario(
            events=[event], churn=[ChurnEvent(120.0, "s1", "10.0.0.0/16", (7, 8))]
        ).validate()


def test_routing_scenario_dict_roundtrip():
    scenario = small_routing_scenario(
        events=[InjectedEvent("interception", "10.0.0.0/24", (999, 666), 100.0, 50.0)],
        churn=[ChurnEvent(50.0, "s1", "10.0.0.0/16", (7, 8))],
    )
    assert RoutingScenario.from_dict(scenario.to_dict()) == scenario


def test_a_document_prefix_is_read_in_its_canonical_spelling():
    event = InjectedEvent("hijack", "10.0.0.0/16", (999, 666), 100.0, 50.0)
    document = small_routing_scenario(events=[event]).to_dict()
    document["events"][0][1] = "10.0.0.7/16"  # host bits set
    document["base_routes"][0][1] = "010.000.0.0/16"
    scenario = RoutingScenario.from_dict(document)
    assert scenario == small_routing_scenario(events=[event])
    # the hijack ends by restoring the base route, which the event names in another spelling
    updates, _ = gen_updates(scenario)
    assert [u.path for u in updates_of(updates) if u.timestamp == 150.0 and u.session == "s1"] == [
        AsPath((101, 102))
    ]


# one /16 in two spellings, a /8 over it, a /17 inside it and a /16 no route names
_PREFIX_TEXTS = ("10.0.0.0/16", "10.0.0.7/16", "10.0.0.0/8", "10.0.128.0/17", "10.5.0.0/16")
_PATHS = ((1, 2), (1, 1, 2), (2, 1), (3,), (4, 4))  # (1, 1, 2) and (4, 4) are prepended


@st.composite
def routing_schedules(draw):
    """Small valid scenarios on one 20 s window whose values collide: base
    routes and churn at t0, prefix spellings and prepends of one value,
    withdrawals by sessions that announce nothing, and events on keys with
    and without a live legitimate route."""
    names = draw(st.lists(st.sampled_from(["s0", "s1", "s10", "s2"]), max_size=3, unique=True))
    paths, texts = st.sampled_from(_PATHS), st.sampled_from(_PREFIX_TEXTS)
    base = [
        RouteSpec(draw(st.sampled_from(names)), draw(texts), draw(paths))
        for _ in range(draw(st.integers(0, 6) if names else st.just(0)))
    ]
    churn = []
    for t in sorted(draw(st.lists(st.integers(0, 19), max_size=6))):
        session = draw(st.sampled_from(names + ["s9"]))  # s9 is no session: it only withdraws
        path = draw(st.none() | paths) if session in names else None
        churn.append(ChurnEvent(float(t), session, draw(texts), path))
    scenario = RoutingScenario(
        seed=0, window=(0.0, 20.0), sessions=tuple(SessionSpec(n, 64500) for n in names),
        relays=(), base_routes=tuple(base), churn=tuple(churn),
    )
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, 19))
        event = InjectedEvent(
            draw(st.sampled_from(["hijack", "interception"])), draw(texts), draw(paths),
            float(start), float(draw(st.integers(1, 20 - start))),
        )
        candidate = replace(scenario, events=scenario.events + (event,))
        try:
            candidate.validate()
        except InvalidScenarioError:
            continue
        scenario = candidate
    return scenario


_COLLISIONS = RoutingScenario(
    seed=0, window=(0.0, 20.0), sessions=(SessionSpec("s0", 64500), SessionSpec("s1", 64501)),
    relays=(),
    base_routes=(
        RouteSpec("s0", "10.0.0.7/16", (1, 1, 2)),
        RouteSpec("s0", "10.0.0.0/16", (1, 2)),
        RouteSpec("s1", "10.0.0.0/8", (3,)),
    ),
    churn=(ChurnEvent(0.0, "s1", "10.0.0.0/16", (2, 1)), ChurnEvent(5.0, "s1", "10.0.0.0/8", None)),
    events=(
        InjectedEvent("hijack", "10.0.0.7/16", (4, 4), 8.0, 4.0),  # s1 names it otherwise
        InjectedEvent("hijack", "10.0.0.0/8", (4,), 10.0, 5.0),  # withdrawn on s1, none on s0
        InjectedEvent("hijack", "10.5.0.0/16", (4,), 1.0, 2.0),  # no legitimate route
        InjectedEvent("interception", "10.0.128.0/17", (4, 1), 2.0, 4.0),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    routing_schedules()
    | st.builds(random_routing_scenario, st.integers(0, 2**32 - 1), n_events=st.integers(0, 6))
)
@example(_COLLISIONS)
@example(replace(_COLLISIONS, sessions=(), base_routes=(), churn=_COLLISIONS.churn[1:]))
def test_gen_updates_matches_the_row_by_row_oracle(tmp_path_factory, scenario):
    scenario.validate()
    table, truth = gen_updates(scenario)
    expected, expected_truth = oracle_gen_updates(scenario)
    assert updates_of(table) == updates_of(expected)
    assert truth == expected_truth
    # ids are ranks of the values the rows name
    assert list(table.sessions) == sorted(expected.sessions)
    assert list(table.prefixes) == sorted(expected.prefixes, key=prefix_key)
    assert list(table.path_ases) == sorted(expected.path_ases)
    root = tmp_path_factory.mktemp("rendered")
    write_updates(root / "columns.csv", table)
    write_updates(root / "rows.csv", expected)
    assert (root / "columns.csv").read_bytes() == (root / "rows.csv").read_bytes()


@pytest.mark.parametrize("args, rows, digest", [
    ((0,), 350, "fb70ad6c6f96722df820d800555fe590b44f928e820a905a89c26d91001ff86a"),
    ((7, 10, 10), 320, "0016f688fbad6a8d65e2286e5d9cff1e16aedad5d17d60c5e42dad01ec67faae"),
])
def test_injection_scenario_update_bytes_pinned(tmp_path, args, rows, digest):
    table, _ = gen_updates(injection_scenario(*args))
    assert len(table) == rows
    write_updates(tmp_path / "updates.csv", table)
    assert hashlib.sha256((tmp_path / "updates.csv").read_bytes()).hexdigest() == digest


def _assert_round_trip(scenario):
    document = json.dumps(scenario.to_dict())
    again = type(scenario).from_dict(json.loads(document))
    assert again == scenario
    assert json.dumps(again.to_dict()) == document


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 6), st.integers(1, 5),
    st.integers(0, 12),
)
def test_random_routing_scenario_round_trips_through_its_document(
    seed, n_sessions, n_relays, n_ases, n_churn
):
    _assert_round_trip(random_routing_scenario(seed, n_sessions, n_relays, n_ases, n_churn))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_injection_scenario_round_trips_through_its_document(seed):
    _assert_round_trip(injection_scenario(seed))


def test_every_scenario_document_loads(tmp_path):
    traffic = TrafficScenario(seed=17, n_pairs=5, guard_groups=(Bottleneck((0, 1), 5_000.0),))
    routing = random_routing_scenario(3)
    timing = {"announce_at": 5.0, "propagation": 5.0, "withdraw_at": 30.0, "reconvergence": 5.0}
    interception = {**traffic.to_dict(), "kind": "interception", "timing": timing}
    for document, expected in [
        (traffic.to_dict(), traffic),
        (routing.to_dict(), routing),
        (interception, (traffic, timing)),
    ]:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        assert load_scenario(path) == expected


def test_burst_of_new_prefixes_recovered_by_cross_reference():
    # thousands of new prefixes, a few dozen of which cover relays
    relays = []
    for i in range(40):
        relays.append(
            RelayDescriptor(
                ip_to_int(f"91.{i}.0.9"), i % 3 != 0, i % 3 == 0, 1.0, f"r{i}"
            )
        )
    relays.append(RelayDescriptor(ip_to_int("203.0.113.9"), True, True, 1.0, "safe"))
    events = tuple(
        InjectedEvent("hijack", f"{a}.{b}.0.0/16", (4761,), 1000.0, 300.0)
        for a, b in ((91, i) for i in range(40))
    ) + tuple(
        InjectedEvent("hijack", f"92.{i % 250}.{i // 250}.0/24", (4761,), 1000.0, 300.0)
        for i in range(2760)
    )
    scenario = RoutingScenario(
        seed=2,
        window=(0.0, 10_000.0),
        sessions=(SessionSpec("s1", 64500),),
        relays=tuple(relays),
        base_routes=(RouteSpec("s1", "91.0.0.0/8", (101, 102)),),
        events=events,
    )
    updates, truth = gen_updates(scenario)
    assert len(truth.events) == 2800
    hijack_events = [
        HijackEvent(IpPrefix.parse(e.prefix), e.start, e.start + e.duration, "burst")
        for e in truth.events
    ]
    (impact,) = cross_reference(hijack_events, relays)
    expected_guards = sum(1 for r in relays[:40] if r.is_guard)
    expected_exits = sum(1 for r in relays[:40] if r.is_exit)
    assert (impact.relays, impact.guards, impact.exits) == (40, expected_guards, expected_exits)
    assert impact.prefixes == 2800


def test_pipeline_reproduces_planted_compromised_set():
    for seed in range(6):
        scenario = random_routing_scenario(seed, n_sessions=3, n_relays=5, n_ases=4, n_churn=8)
        updates, _ = gen_updates(scenario)
        ribs = ingest(
            updates,
            list(scenario.relays),
            local_as={s.session_id: s.local_as for s in scenario.sessions},
        )
        observations = segment_observations(ribs, list(scenario.relays), scenario.window)
        hits = compromised_circuits(
            observations,
            min_overlap=10.0,
            local_as={s.session_id: s.local_as for s in scenario.sessions},
        )
        got = {
            (r.as_number, r.src_session, r.guard, r.dst_session, r.exit)
            for r in hit_records(hits)
        }
        assert got == planted_compromised(scenario, min_overlap=10.0)


# --- interception timeline -------------------------------------------------------


def test_interception_capture_interval_defaults():
    scenario = TrafficScenario(seed=6, n_pairs=3, duration=360.0)
    run = gen_interception_timeline(scenario)
    assert run.capture == (55.0, 322.0)
    for trace in run.attacker_traces:
        obs = trace.observations
        assert np.all((55.0 <= obs.ts) & (obs.ts < 322.0))
        assert np.all(obs.payload_len == 0)  # acknowledgment traffic only
    inside = slice(56, 321)
    assert run.good_acks[inside].sum() == 0
    assert run.attacker_acks[: 55].sum() == 0 and run.attacker_acks[323:].sum() == 0
    assert run.attacker_acks[inside].sum() > 0


def test_interception_zero_propagation_switches_at_announce():
    scenario = TrafficScenario(seed=6, n_pairs=2, duration=120.0)
    run = gen_interception_timeline(
        scenario, announce_at=30.0, propagation=0.0, withdraw_at=90.0, reconvergence=0.0
    )
    assert run.capture == (30.0, 90.0)


def test_interception_requires_settling_before_withdrawal():
    with pytest.raises(InvalidScenarioError):
        gen_interception_timeline(
            TrafficScenario(n_pairs=1), announce_at=100.0, propagation=250.0, withdraw_at=300.0
        )
    # the defaults settle at 55 s, after a 50 s run: the capture would be [55, 50)
    with pytest.raises(InvalidScenarioError, match="end of the run"):
        gen_interception_timeline(TrafficScenario(n_pairs=2, duration=50.0))
