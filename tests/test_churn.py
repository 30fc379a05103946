"""Tests for the simultaneous-observation compromise metric."""

import math
import random
import tracemalloc
from unittest.mock import patch

import numpy as np
from helpers import (
    CircuitCompromiseRecord,
    announce,
    brute_force_records,
    build_ribs,
    ccdf_value,
    circuit_pairs,
    hit_records,
    oracle_ccdf,
    oracle_records,
    oracle_segment_observations,
    oracle_summarize,
    random_churn_fixture,
    session_pairs,
    sightings_of,
    spans_of,
    summarize_records,
    withdraw,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routelens import churn
from routelens.bgp import ingest
from routelens.churn import (
    CompromiseSummary,
    as_circuit_coverage,
    ccdf,
    churn_ratio,
    churn_summary,
    circuit_universe,
    compromised_circuits,
    segment_observations,
    static_baseline,
    summarize,
)
from routelens.core import RelayDescriptor, RelayIndex, ip_to_int
from routelens.simulate import ChurnEvent, RouteSpec, RoutingScenario, SessionSpec, gen_updates


def relay(addr, guard=False, exit_=False, bw=1.0, name=""):
    return RelayDescriptor(ip_to_int(addr), guard, exit_, bw, name)


# --- segment observations ----------------------------------------------------


def test_single_entry_two_path_ases():
    guard = relay("10.0.0.5", guard=True)
    ribs = build_ribs([announce(0, "s1", "10.0.0.0/16", [1, 2])], [guard], {"s1": 64500})
    obs = segment_observations(ribs, RelayIndex([guard]), (0, 100))
    assert obs.sessions == ("s1",)
    assert spans_of(obs) == {asn: ({(0, guard.address): ((0.0, 100.0),)}, {}) for asn in (1, 2)}
    assert len(obs) == 2


def test_dual_flag_relay_emits_both_roles():
    dual = relay("10.0.0.5", guard=True, exit_=True)
    ribs = build_ribs([announce(0, "s1", "10.0.0.0/16", [1])], [dual], {"s1": 64500})
    guards, exits = spans_of(segment_observations(ribs, RelayIndex([dual]), (0, 50)))[1]
    assert guards == exits == {(0, dual.address): ((0.0, 50.0),)}


def test_empty_rib_no_observations():
    guard = relay("10.0.0.5", guard=True)
    ribs = build_ribs([], [guard], {})
    obs = segment_observations(ribs, RelayIndex([guard]), (0, 100))
    assert spans_of(obs) == {} and len(obs) == 0


def test_most_specific_entry_carries_the_traffic():
    guard = relay("10.0.1.5", guard=True)
    updates = [
        announce(0, "s1", "10.0.0.0/16", [1, 9]),
        announce(20, "s1", "10.0.1.0/24", [2, 9]),
        withdraw(60, "s1", "10.0.1.0/24"),
    ]
    ribs = build_ribs(updates, [guard], {"s1": 64500})
    obs = segment_observations(ribs, RelayIndex([guard]), (0, 100))
    assert all(not exits for _, exits in spans_of(obs).values())
    spans = {asn: guards[(0, guard.address)] for asn, (guards, _) in spans_of(obs).items()}
    # AS 1 only while the /16 forwards: before and after the /24 interlude
    assert spans[1] == ((0.0, 20.0), (60.0, 100.0))
    assert spans[2] == ((20.0, 60.0),)
    # AS 9 is on both paths, so its coverage is seamless
    assert spans[9] == ((0.0, 100.0),)


# --- compromised circuits ----------------------------------------------------


def seg(asn, session, addr, role, start, end):
    """One span of a sighting; role is "guard" or "exit"."""
    return asn, session, ip_to_int(addr), role, start, end


def sightings(*segs):
    """Sightings holding the given spans, which are disjoint per key."""
    sessions = tuple(sorted({session for _, session, *_ in segs}))
    spans = {}
    for asn, session, address, role, start, end in sorted(segs):
        side = spans.setdefault(asn, ({}, {}))[role == "exit"]
        key = (sessions.index(session), address)
        side[key] = side.get(key, ()) + ((start, end),)
    return sightings_of(sessions, dict(sorted(spans.items())))


def circuits(observations, **kwargs):
    """The product's per-AS hits as sorted records."""
    return sorted(hit_records(compromised_circuits(observations, **kwargs)))


def test_overlap_threshold():
    obs = sightings(
        seg(7, "s1", "10.0.0.5", "guard", 0, 100),
        seg(7, "s2", "10.1.0.5", "exit", 50, 200),
    )
    records = circuits(obs, min_overlap=30)
    assert len(records) == 1
    assert records[0].overlap_seconds == 50.0

    short = sightings(
        seg(7, "s1", "10.0.0.5", "guard", 0, 70),
        seg(7, "s2", "10.1.0.5", "exit", 50, 200),
    )
    assert circuits(short, min_overlap=30) == []


def test_overlap_sums_across_cooccurring_intervals():
    obs = sightings(
        seg(7, "s1", "10.0.0.5", "guard", 0, 10),
        seg(7, "s1", "10.0.0.5", "guard", 20, 30),
        seg(7, "s2", "10.1.0.5", "exit", 5, 25),
    )
    records = circuits(obs, min_overlap=0)
    assert records[0].overlap_seconds == 10.0  # 5 + 5


def test_zero_length_contact_never_counts():
    obs = sightings(
        seg(7, "s1", "10.0.0.5", "guard", 0, 50),
        seg(7, "s2", "10.1.0.5", "exit", 50, 100),
    )
    assert circuits(obs, min_overlap=0) == []


def test_same_session_and_same_local_as_excluded():
    same_session = [
        seg(7, "s1", "10.0.0.5", "guard", 0, 100),
        seg(7, "s1", "10.1.0.5", "exit", 0, 100),
    ]
    assert circuits(sightings(*same_session)) == []
    cross = sightings(*same_session, seg(7, "s2", "10.1.0.5", "exit", 0, 100))
    assert circuits(cross, local_as={"s1": 64500, "s2": 64500}) == []
    assert len(circuits(cross, local_as={"s1": 64500, "s2": 64501})) == 1
    # one rule: distinct sessions, not both known to sit in one local AS
    admitted = [
        compromised_circuits(cross, local_as=local).admitted.tolist()
        for local in ({"s1": 64500, "s2": 64500}, {"s1": 64500}, None)
    ]
    assert admitted == [
        [[False, False], [False, False]],
        [[False, True], [True, False]],
        [[False, True], [True, False]],
    ]


def test_compromising_as_for_the_expected_pair_only():
    # two sessions, AS 7 on the guard path of s1 and the exit path of s2
    g1 = relay("10.0.0.5", guard=True)
    e2 = relay("10.1.0.9", exit_=True)
    updates = [
        announce(0, "s1", "10.0.0.0/16", [101, 7, 102]),
        announce(0, "s1", "10.1.0.0/16", [101, 103]),
        announce(0, "s2", "10.0.0.0/16", [104, 105]),
        announce(0, "s2", "10.1.0.0/16", [104, 7, 105]),
    ]
    ribs = build_ribs(updates, [g1, e2], {"s1": 64500, "s2": 64501})
    obs = segment_observations(ribs, RelayIndex([g1, e2]), (0, 120))
    records = [r for r in circuits(obs, min_overlap=30) if r.as_number == 7]
    assert [(r.src_session, r.guard, r.dst_session, r.exit) for r in records] == [
        ("s1", g1.address, "s2", e2.address)
    ]


# --- baseline and brute-force equivalence ------------------------------------


def _disjoint_fixture():
    g1 = relay("10.0.0.5", guard=True)
    e1 = relay("10.1.0.9", exit_=True)
    updates = [
        announce(0, "s1", "10.0.0.0/16", [1, 2]),
        announce(0, "s1", "10.1.0.0/16", [3, 4]),
        announce(0, "s2", "10.0.0.0/16", [5, 6]),
        announce(0, "s2", "10.1.0.0/16", [7, 8]),
    ]
    return build_ribs(updates, [g1, e1], {"s1": 64500, "s2": 64501}), [g1, e1]


def test_static_baseline_zero_when_paths_disjoint():
    ribs, relays = _disjoint_fixture()
    baseline = static_baseline(ribs, RelayIndex(relays), t0=0.0)
    assert all(baseline.compromised(p) == 0 for p in baseline.pairs)


def test_static_baseline_full_when_one_transit_everywhere():
    g1 = relay("10.0.0.5", guard=True)
    e1 = relay("10.1.0.9", exit_=True)
    updates = [
        announce(0, sid, prefix, [9, asn])
        for sid, asn in (("s1", 1), ("s2", 2))
        for prefix in ("10.0.0.0/16", "10.1.0.0/16")
    ]
    ribs = build_ribs(updates, [g1, e1], {"s1": 64500, "s2": 64501})
    baseline = static_baseline(ribs, RelayIndex([g1, e1]), t0=0.0)
    for pair in baseline.pairs:
        assert baseline.fraction(pair) == 1.0


def test_circuit_ids_are_int32_while_every_id_fits():
    g1 = relay("10.0.0.5", guard=True)
    e1 = relay("10.1.0.9", exit_=True)
    updates = [
        announce(0, sid, prefix, [9])
        for sid in ("s1", "s2")
        for prefix in ("10.0.0.0/16", "10.1.0.0/16")
    ]
    ribs = build_ribs(updates, [g1, e1], {"s1": 64500, "s2": 64501})
    index = RelayIndex([g1, e1])
    baseline = static_baseline(ribs, index, t0=0.0)
    summary = churn_summary(ribs, index, (0.0, 100.0), baseline=baseline)
    assert {pair: ids.tolist() for pair, ids in summary.pair_circuits.items()} == {
        ("s1", "s2"): [0], ("s2", "s1"): [0]
    }
    ids = [*summary.pair_circuits.values(), *summary.per_as_circuits.values()]
    assert {a.dtype for a in ids} == {np.dtype(np.int32)}


def test_matches_brute_force_on_random_fixtures():
    rng = random.Random(2024)
    for _ in range(15):
        updates, relays, sessions, window = random_churn_fixture(rng)
        ribs = build_ribs(updates, relays, sessions)
        min_overlap = rng.choice([0, 1, 5, 10, 30])
        obs = segment_observations(ribs, RelayIndex(relays), window)
        got = set(
            circuits(
                obs,
                min_overlap=min_overlap,
                local_as={sid: rib.session.local_as for sid, rib in ribs.items()},
            )
        )
        expected = brute_force_records(ribs, relays, window, min_overlap)
        assert got == expected


def test_relabeling_ases_permutes_outputs():
    rng = random.Random(5)
    updates, relays, sessions, window = random_churn_fixture(rng)
    ribs = build_ribs(updates, relays, sessions)
    obs = segment_observations(ribs, RelayIndex(relays), window)
    relabel = {asn: asn + 1000 for asn in spans_of(obs)}
    relabeled = sightings_of(
        obs.sessions, {relabel[asn]: sides for asn, sides in spans_of(obs).items()}
    )
    base = circuits(obs, min_overlap=5)
    moved = circuits(relabeled, min_overlap=5)
    assert len(base) == len(moved)
    assert {
        (relabel[r.as_number], r.src_session, r.guard, r.dst_session, r.exit, r.overlap_seconds)
        for r in base
    } == {
        (r.as_number, r.src_session, r.guard, r.dst_session, r.exit, r.overlap_seconds)
        for r in moved
    }


TICK = st.integers(0, 30).map(lambda k: k / 10)


@st.composite
def rib_histories(draw):
    """Relays under nested /8, /16 and /24 prefixes, some both guard and
    exit, and up to two addresses listed again with other flags; two to
    four sessions over two local ASes; updates on a 0.1 s grid in (0, 3),
    so spans have non-integer endpoints and often touch. A path may repeat
    an AS apart (1 2 1), and an update may come with the opposite one
    (announce and withdraw) for its prefix at the same instant."""
    relays, prefixes = [], ["10.0.0.0/8"]
    for i in range(draw(st.integers(2, 6))):
        role, third = draw(st.sampled_from("geb")), draw(st.integers(0, 1))
        relays.append(relay(f"10.{i}.{third}.{i + 1}", guard=role in "gb", exit_=role in "eb"))
        prefixes += [f"10.{i}.0.0/16", f"10.{i}.{third}.0/24"]
    for twin, role in draw(st.lists(st.tuples(st.sampled_from(relays), st.sampled_from("geb")),
                                    max_size=2)):
        relays.append(RelayDescriptor(twin.address, role in "gb", role in "eb", 1.0, "twin"))
    sessions = {f"s{k}": 64500 + draw(st.integers(0, 1)) for k in range(draw(st.integers(2, 4)))}
    paths = st.lists(st.integers(1, 4), min_size=1, max_size=3) | st.just([1, 2, 1])
    updates = [
        announce(0.0, sid, prefix, draw(paths))
        for sid in sessions
        for prefix in draw(st.lists(st.sampled_from(prefixes), min_size=1, max_size=4, unique=True))
    ]
    changes = st.tuples(TICK, st.sampled_from(sorted(sessions)), st.sampled_from(prefixes),
                        st.none() | paths, st.booleans())
    for ts, sid, prefix, path, flap in draw(st.lists(changes, max_size=25)):
        updates.append(
            withdraw(ts, sid, prefix) if path is None else announce(ts, sid, prefix, path)
        )
        if flap:
            opposite = withdraw(ts, sid, prefix)
            updates.append(opposite if path else announce(ts, sid, prefix, draw(paths)))
    updates.sort(key=lambda u: u.timestamp)
    return relays, sessions, updates


@settings(max_examples=200, deadline=None)
@given(
    history=rib_histories(),
    # often inside a route: starting after its announcement or ending before its withdrawal
    window=st.tuples(TICK, st.integers(1, 40).map(lambda k: k / 10)).filter(lambda w: w[0] < w[1]),
)
def test_sightings_match_the_per_segment_oracle(history, window):
    relays, sessions, updates = history
    ribs = build_ribs(updates, relays, sessions)
    seen = segment_observations(ribs, RelayIndex(relays), window)
    assert seen.sessions == tuple(sorted(ribs))
    assert spans_of(seen) == oracle_segment_observations(ribs, relays, window)
    # rows in (asn, side, session, relay, start) order, as sightings_of sorts them
    rebuilt = sightings_of(seen.sessions, spans_of(seen))
    for column in ("asn", "side", "session", "relay", "start", "end"):
        assert getattr(seen, column).tolist() == getattr(rebuilt, column).tolist()


def cut_history(cut):
    """AS 7 carries s1's guard and s2's exit over [0, 0.9), and a second s1
    guard until cut, which splits their shared span into two segments."""
    relays = [
        relay("10.0.0.1", guard=True), relay("10.2.0.3", guard=True), relay("10.1.0.2", exit_=True)
    ]
    updates = [
        announce(0.0, "s1", "10.0.0.0/16", [7]),
        announce(0.0, "s1", "10.2.0.0/16", [7]),
        announce(0.0, "s2", "10.1.0.0/16", [7]),
        withdraw(cut, "s1", "10.2.0.0/16"),
        withdraw(0.9, "s1", "10.0.0.0/16"),
        withdraw(0.9, "s2", "10.1.0.0/16"),
    ]
    return relays, {"s1": 64500, "s2": 64501}, sorted(updates, key=lambda u: u.timestamp)


@settings(max_examples=150, deadline=None)
# the segment sums 0.2 + 0.7 and 0.3 + 0.6 round below and above 0.9 - 0.0
@example(history=cut_history(0.2), min_overlap=0.9)
@example(history=cut_history(0.3), min_overlap=0.3 + 0.6)
@given(
    history=rib_histories(),
    # 0, or a difference of two grid instants: exactly some span's length
    min_overlap=st.just(0.0) | st.tuples(TICK, TICK).map(lambda ab: abs(ab[1] - ab[0])),
)
def test_product_matches_record_oracle_on_random_histories(history, min_overlap):
    relays, sessions, updates = history
    index = RelayIndex(relays)
    window = (0.0, 3.0)
    ribs = build_ribs(updates, relays, sessions)
    local = {sid: rib.session.local_as for sid, rib in ribs.items()}
    observations = segment_observations(ribs, index, window)
    hits = compromised_circuits(observations, min_overlap, local)
    records = oracle_records(observations, min_overlap, local)

    def key(r):
        return (r.as_number, r.src_session, r.guard, r.dst_session, r.exit)

    got = {key(r): r.overlap_seconds for r in hit_records(hits)}
    assert len(got) == len(hits)  # one row per five-way key
    assert set(got) == {key(r) for r in records}
    # summing segment lengths may round differently from the oracle's sweep
    assert all(math.isclose(got[key(r)], r.overlap_seconds, rel_tol=1e-12) for r in records)

    base_ribs = build_ribs([u for u in updates if u.timestamp == 0.0], relays, sessions)
    baseline = static_baseline(base_ribs, index, t0=0.0)
    seen = segment_observations(base_ribs, index, (0.0, 1.0))
    snapshot = sightings_of(seen.sessions, {
        asn: tuple(
            {key: tuple(s for s in spans if s[0] <= 0.0 < s[1]) for key, spans in side.items()}
            for side in sides
        )
        for asn, sides in spans_of(seen).items()
    })
    expected_baseline = summarize_records(
        oracle_records(snapshot, 0.0, local), session_pairs(base_ribs), relays
    )
    summary = churn_summary(ribs, index, window, min_overlap, baseline=baseline)
    expected = summarize_records(records, session_pairs(ribs), relays)

    def as_lists(circuits):
        return {k: ids.tolist() for k, ids in circuits.items()}

    # the summary lists exactly the admitted pairs, in the oracle's order
    assert list(baseline.pair_circuits) == session_pairs(base_ribs)
    assert as_lists(baseline.pair_circuits) == as_lists(expected_baseline.pair_circuits)
    assert as_lists(baseline.per_as_circuits) == as_lists(expected_baseline.per_as_circuits)
    none = np.empty(0, dtype=np.int64)
    assert as_lists(summary.pair_circuits) == {
        pair: np.union1d(
            expected.pair_circuits.get(pair, none), expected_baseline.pair_circuits.get(pair, none)
        ).tolist()
        for pair in set(expected.pair_circuits) | set(expected_baseline.pair_circuits)
    }
    assert as_lists(summary.per_as_circuits) == as_lists(expected.per_as_circuits)
    assert as_circuit_coverage(summary) == as_circuit_coverage(expected)


@settings(max_examples=150, deadline=None)
@given(history=rib_histories(), t0=TICK)
def test_static_baseline_reads_the_full_rib_at_t0(history, t0):
    # the churn subcommand ingests the updates once: the baseline reads the
    # RIB of the whole stream at t0, over the sessions heard by then
    relays, sessions, updates = history
    index = RelayIndex(relays)
    base_ribs = build_ribs([u for u in updates if u.timestamp <= t0], relays, sessions)
    full_ribs = build_ribs(updates, relays, sessions)
    replayed = static_baseline(base_ribs, index, t0)
    read = static_baseline({sid: full_ribs[sid] for sid in base_ribs}, index, t0)
    assert read.total_circuits == replayed.total_circuits
    assert read.guards.tolist() == replayed.guards.tolist()
    assert read.exits.tolist() == replayed.exits.tolist()
    for field in ("pair_circuits", "per_as_circuits"):
        got, want = getattr(read, field), getattr(replayed, field)
        assert {k: v.tolist() for k, v in got.items()} == {k: v.tolist() for k, v in want.items()}


def assert_same_summary(got, want):
    assert got.total_circuits == want.total_circuits
    for field in ("pair_circuits", "per_as_circuits"):
        assert {k: v.tolist() for k, v in getattr(got, field).items()} == {
            k: v.tolist() for k, v in getattr(want, field).items()
        }


@settings(max_examples=150, deadline=None)
@given(
    history=rib_histories(),
    min_overlap=st.just(0.0) | st.tuples(TICK, TICK).map(lambda ab: abs(ab[1] - ab[0])),
    # per session: no local AS known, or one of two
    local=st.lists(st.none() | st.sampled_from([64500, 64501]), min_size=4, max_size=4),
    t0=TICK,
)
def test_summary_of_masks_matches_row_oracle(history, min_overlap, local, t0):
    relays, sessions, updates = history
    index = RelayIndex(relays)
    ribs = build_ribs(updates, relays, sessions)
    local_as = {sid: asn for sid, asn in zip(sorted(sessions), local) if asn is not None}
    observations = segment_observations(ribs, index, (0.0, 3.0))
    hits = compromised_circuits(observations, min_overlap, local_as)
    assert_same_summary(summarize(hits, index), oracle_summarize(hits, relays))
    # the snapshot path, through the hits static_baseline itself builds
    made = []

    def keep_hits(*args, **kwargs):
        made.append(compromised_circuits(*args, **kwargs))
        return made[-1]

    with patch.object(churn, "compromised_circuits", keep_hits):
        baseline = static_baseline(ribs, index, t0)
    assert_same_summary(baseline, oracle_summarize(made[0], relays))


def dense_scenario():
    """Every one of 4 sessions reaches each of 48 relays' /16 through the
    same 9 transit ASes, so each of them sees every guard and exit key; one
    session's route to every fourth relay detours around the core for a
    while, which gives those keys a second span set."""
    n_relays = 48
    sessions = tuple(SessionSpec(f"s{k}", 64500 + k) for k in range(4))
    relays = tuple(
        RelayDescriptor(ip_to_int(f"10.{i}.0.1"), i % 3 != 1, i % 3 != 0, 1.0, f"r{i}")
        for i in range(n_relays)
    )
    core = tuple(range(1, 10))
    base = tuple(
        RouteSpec(s.session_id, f"10.{i}.0.0/16", (100 + k, *core, 1000 + i))
        for k, s in enumerate(sessions)
        for i in range(n_relays)
    )
    churn_events = tuple(
        ChurnEvent(t, "s0", f"10.{i}.0.0/16", path)
        for t, path in ((40.0, (100, 1999)), (70.0, (100, *core, 1999)))
        for i in range(0, n_relays, 4)
    )
    return RoutingScenario(0, (0.0, 100.0), sessions, relays, base, churn_events)


def test_churn_summary_memory_stays_below_one_row_per_hit():
    scenario = dense_scenario()
    updates, _ = gen_updates(scenario)
    relays = list(scenario.relays)
    index = RelayIndex(relays)
    local = {s.session_id: s.local_as for s in scenario.sessions}
    ribs = ingest(updates, index, local_as=local)
    observations = segment_observations(ribs, index, scenario.window)
    hits = compromised_circuits(observations, 30.0, local)
    # one kept cell per record of the pairwise sweep: no hit is dropped
    assert len(hits) == len(oracle_records(observations, 30.0, local)) >= 100_000
    tracemalloc.start()
    try:
        churn_summary(ribs, index, scenario.window, min_overlap=30.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one int64/float64 row per hit would take 48 bytes each
    assert peak < 48 * len(hits)


# --- summaries, ccdf, ratios -------------------------------------------------


def test_circuit_universe_excludes_self_pairs():
    relays = [
        relay("10.0.0.1", guard=True),
        relay("10.0.0.2", exit_=True),
        relay("10.0.0.3", guard=True, exit_=True),
    ]
    # guards {1,3} x exits {2,3} minus the (3,3) self pair
    assert circuit_universe(RelayIndex(relays)) == 3


def test_ccdf_step_function():
    relays = [relay(f"10.0.0.{i}", guard=True) for i in range(1, 11)] + [
        relay(f"10.0.1.{i}", exit_=True) for i in range(1, 11)
    ]
    pairs = [(f"s{i}", f"s{j}") for i in range(3) for j in range(3) if i != j]
    circuits = frozenset(
        (relays[0].address, relays[10 + k].address) for k in range(10)
    )
    summary = summarize_records(
        [
            CircuitCompromiseRecord(src, dst, g, e, 1, 60.0)
            for (src, dst) in pairs
            for (g, e) in circuits
        ],
        pairs,
        relays,
    )
    assert summary.total_circuits == 100
    points = ccdf(summary)
    assert points[0] == (0.0, 100.0)
    assert ccdf_value(points, 10.0) == 100.0
    assert ccdf_value(points, 5.0) == 100.0
    assert ccdf_value(points, 10.1) == 0.0


def test_ccdf_median_point():
    # 20 guards x 20 exits = 400 circuits; 3 compromised is 0.75%
    relays = [relay(f"10.0.0.{i}", guard=True) for i in range(1, 21)] + [
        relay(f"10.0.1.{i}", exit_=True) for i in range(1, 21)
    ]
    assert circuit_universe(RelayIndex(relays)) == 400
    pairs = [(f"s{i}", f"s{j}") for i in range(3) for j in range(3) if i != j]  # 6 pairs
    records = []
    # half the pairs see 3 circuits (0.75%), half see none
    for src, dst in pairs[:3]:
        for k in range(3):
            records.append(
                CircuitCompromiseRecord(
                    src, dst, relays[0].address, relays[20 + k].address, 1, 60.0
                )
            )
    summary = summarize_records(records, pairs, relays)
    points = ccdf(summary)
    assert ccdf_value(points, 0.75) == 50.0
    assert (0.75, 50.0) in points


def test_ccdf_of_no_pairs_is_empty():
    assert ccdf(summarize_records([], [], [])) == []


def test_ccdf_monotone_and_bounded_on_random_summaries():
    rng = random.Random(31)
    for _ in range(20):
        updates, relays, sessions, window = random_churn_fixture(rng)
        ribs = build_ribs(updates, relays, sessions)
        if not ribs:
            continue
        summary = static_baseline(ribs, RelayIndex(relays), t0=0.0)
        if not summary.pair_circuits:
            continue
        points = ccdf(summary)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)
        assert all(0.0 <= x <= 100.0 and 0.0 <= y <= 100.0 for x, y in points)


def test_ccdf_matches_full_scan_oracle_on_random_summaries():
    rng = random.Random(37)
    for _ in range(200):
        total = rng.randint(0, 30)
        ids = range(total)  # circuit ids g * 6 + e over 6 guards x 6 exits
        pairs = {
            (f"s{i}", f"s{j}"): np.array(sorted(rng.sample(ids, rng.randint(0, total))))
            for i in range(rng.randint(1, 6))
            for j in range(rng.randint(1, 6))
        }
        summary = CompromiseSummary(pairs, total, {}, np.arange(6), np.arange(6))
        assert ccdf(summary) == oracle_ccdf(summary)


def test_churn_ratio_arithmetic_and_newly():
    relays = [relay("10.0.0.1", guard=True), relay("10.0.0.2", exit_=True), relay("10.0.0.3", exit_=True), relay("10.0.0.4", exit_=True)]
    pairs = [("s1", "s2"), ("s2", "s1")]
    g = relays[0].address
    base_records = [
        CircuitCompromiseRecord("s1", "s2", g, relays[1].address, 1, 60.0),
        CircuitCompromiseRecord("s1", "s2", g, relays[2].address, 1, 60.0),
    ]
    churn_records = base_records + [
        CircuitCompromiseRecord("s1", "s2", g, relays[3].address, 2, 60.0),
        CircuitCompromiseRecord("s2", "s1", g, relays[1].address, 2, 60.0),
    ]
    baseline = summarize_records(base_records, pairs, relays)
    updated = summarize_records(churn_records, pairs, relays)
    ratios, newly = churn_ratio(baseline, updated)
    assert [(r.src_session, r.dst_session, r.ratio) for r in ratios] == [("s1", "s2", 1.5)]
    assert newly == [("s2", "s1", 1)]


def test_churn_ratio_identity_without_updates():
    ribs, relays = _disjoint_fixture()
    index = RelayIndex(relays)
    baseline = static_baseline(ribs, index, t0=0.0)
    updated = churn_summary(ribs, index, (0.0, 100.0), baseline=baseline)
    ratios, newly = churn_ratio(baseline, updated)
    assert newly == [] or all(n[2] == 0 for n in newly)
    assert all(r.ratio == 1.0 for r in ratios)


def test_churn_summary_monotone_over_baseline():
    rng = random.Random(77)
    for _ in range(10):
        updates, relays, sessions, window = random_churn_fixture(rng)
        index = RelayIndex(relays)
        baseline_updates = [u for u in updates if u.timestamp == 0]
        base_ribs = build_ribs(baseline_updates, relays, sessions)
        baseline = static_baseline(base_ribs, index, t0=0.0)
        full_ribs = build_ribs(updates, relays, sessions)
        updated = churn_summary(
            full_ribs, index, (0.0, float(window[1])), min_overlap=5, baseline=baseline
        )
        for pair in baseline.pairs:
            assert updated.compromised(pair) >= baseline.compromised(pair)


def test_churn_summary_per_as_circuits_match_brute_force_window_records():
    # per-AS coverage counts the window's circuits only: circuits that only
    # the baseline compromised never enter per_as_circuits
    rng = random.Random(78)
    for _ in range(10):
        updates, relays, sessions, window = random_churn_fixture(rng)
        index = RelayIndex(relays)
        baseline = static_baseline(
            build_ribs([u for u in updates if u.timestamp == 0], relays, sessions), index, t0=0.0
        )
        ribs = build_ribs(updates, relays, sessions)
        span = (0.0, float(window[1]))
        summary = churn_summary(ribs, index, span, min_overlap=5, baseline=baseline)
        expected: dict[int, set[tuple[int, int]]] = {}
        for record in brute_force_records(ribs, relays, span, min_overlap=5):
            expected.setdefault(record.as_number, set()).add((record.guard, record.exit))
        assert {
            asn: circuit_pairs(summary, ids) for asn, ids in summary.per_as_circuits.items()
        } == expected


# --- per-AS coverage ----------------------------------------------------------


def test_as_coverage_extremes_and_hub_ranking():
    relays = [
        relay("10.0.0.1", guard=True),
        relay("10.0.0.2", guard=True),
        relay("10.1.0.1", exit_=True),
        relay("10.1.0.2", exit_=True),
    ]
    guards = [relays[0].address, relays[1].address]
    exits = [relays[2].address, relays[3].address]
    hub_records = [
        CircuitCompromiseRecord("s1", "s2", g, e, 99, 60.0) for g in guards for e in exits
    ] + [CircuitCompromiseRecord("s1", "s2", guards[0], exits[0], 50, 60.0)]
    rows = as_circuit_coverage(summarize_records(hub_records, [("s1", "s2")], relays))
    assert rows[0] == (99, 100.0, 4)  # the hub transit AS ranks first
    assert rows[1] == (50, 25.0, 1)
    coverage = {asn: pct for asn, pct, _ in rows}
    assert coverage.get(12345, 0.0) == 0.0  # guard-side-only AS has no coverage
