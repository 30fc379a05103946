"""Tests for concentration, hijack heuristics, and selection checks."""

import random

import pytest
from helpers import (
    AsPath,
    NoAdmissibleGuardError,
    alert_from_record,
    announce,
    as_aware_select,
    oracle_frequency_heuristic,
    oracle_more_specific_monitor,
    oracle_time_heuristic,
    table_of,
    withdraw,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routelens.core import IpPrefix, PrefixTable, RelayDescriptor, ip_to_int
from routelens.detect import (
    Heuristic,
    HijackAlert,
    HijackEvent,
    alert_to_record,
    concentration,
    cross_reference,
    frequency_heuristic,
    more_specific_monitor,
    prefix_length_vulnerability,
    run_all_heuristics,
    time_heuristic,
)

DAY = 86400.0


def relay(addr, guard=False, exit_=False, bw=1.0, name=""):
    return RelayDescriptor(ip_to_int(addr), guard, exit_, bw, name)


def origin_table(entries):
    table = PrefixTable()
    for text, asn in entries.items():
        table.insert(IpPrefix.parse(text), asn)
    return table.freeze()


# --- concentration -------------------------------------------------------------


def test_single_as_hosts_everything():
    relays = [relay(f"20.0.0.{i}", guard=True, bw=2.0) for i in range(1, 6)]
    report = concentration(relays, origin_table({"20.0.0.0/24": 64500}))
    assert len(report.rows) == 1
    row = report.rows[0]
    assert (row.asn, row.percent_relays, row.percent_bandwidth, row.prefix_count) == (
        64500,
        100.0,
        100.0,
        1,
    )
    assert report.uncovered == []


def test_uncovered_relays_reported_and_excluded():
    covered = relay("20.0.0.1", guard=True, bw=10.0)
    stray = relay("198.51.100.7", exit_=True, bw=90.0)
    report = concentration([covered, stray], origin_table({"20.0.0.0/24": 64500}))
    assert report.uncovered == [stray]
    assert report.rows[0].percent_relays == 100.0
    assert report.rows[0].percent_bandwidth == 100.0


TOP_SIX = [
    # (asn, relays, bandwidth, prefixes) scaled to a 10000-relay population
    (16276, 1050, 1180.0, 23),
    (24940, 630, 668.0, 13),
    (12876, 478, 1052.0, 7),
    (197019, 304, 258.0, 4),
    (16265, 204, 427.0, 14),
    (8972, 169, 386.0, 9),
]


def _concentration_fixture():
    relays = []
    mapping = {}
    for group, (asn, n_relays, bw_total, n_prefixes) in enumerate(TOP_SIX):
        for p in range(n_prefixes):
            mapping[f"20.{group}.{p}.0/24"] = asn
        for i in range(n_relays):
            prefix_idx = i % n_prefixes
            relays.append(
                relay(
                    f"20.{group}.{prefix_idx}.{(i // n_prefixes) % 250 + 1}",
                    guard=True,
                    bw=bw_total / n_relays,
                )
            )
    filler_relays = 10_000 - sum(spec[1] for spec in TOP_SIX)
    filler_bw = 10_000.0 - sum(spec[2] for spec in TOP_SIX)
    per_relay_bw = filler_bw / filler_relays
    count = 0
    group = 0
    while count < filler_relays:
        take = min(72, filler_relays - count)
        mapping[f"30.{group // 250}.{group % 250}.0/24"] = 60000 + group
        for i in range(take):
            relays.append(relay(f"30.{group // 250}.{group % 250}.{i % 250 + 1}", exit_=True, bw=per_relay_bw))
        count += take
        group += 1
    return relays, origin_table(mapping)


def test_top_heavy_concentration_matches_reference_totals():
    relays, mapping = _concentration_fixture()
    report = concentration(relays, mapping)
    top = report.rows[:6]
    assert [row.asn for row in top] == [spec[0] for spec in TOP_SIX]
    for row, (_, n_relays, bw_total, n_prefixes) in zip(top, TOP_SIX):
        assert row.percent_relays == pytest.approx(n_relays / 100.0)
        assert row.percent_bandwidth == pytest.approx(bw_total / 100.0)
        assert row.prefix_count == n_prefixes
    pct_relays, pct_bw, prefixes = report.cumulative(6)
    assert pct_relays == pytest.approx(28.35)
    assert pct_bw == pytest.approx(39.71)
    assert prefixes == 70


# --- cross reference -----------------------------------------------------------


def test_cross_reference_single_guard_hit():
    events = [HijackEvent(IpPrefix.parse("198.245.63.0/24"), 0.0, 3600.0, "btc")]
    relays = [relay("198.245.63.228", guard=True, name="montreal")]
    (impact,) = cross_reference(events, relays)
    assert (impact.relays, impact.guards, impact.exits) == (1, 1, 0)


def test_cross_reference_empty_event():
    events = [HijackEvent(IpPrefix.parse("203.0.113.0/24"), 0.0, 10.0, "nothing")]
    (impact,) = cross_reference(events, [relay("198.245.63.228", guard=True)])
    assert (impact.relays, impact.guards, impact.exits) == (0, 0, 0)


def indosat_2011_fixture():
    """Seven leaked prefixes covering five relays: one guard, four exits."""
    prefixes = [f"91.{i}.0.0/16" for i in range(7)]
    events = [
        HijackEvent(IpPrefix.parse(p), 0.0, 7200.0, "indosat-2011") for p in prefixes
    ]
    relays = [
        relay("91.0.10.1", guard=True),
        relay("91.1.10.1", exit_=True),
        relay("91.2.10.1", exit_=True),
        relay("91.3.10.1", exit_=True),
        relay("91.3.200.9", exit_=True),
        relay("203.0.113.50", guard=True),  # outside every event prefix
    ]
    return events, relays


def test_cross_reference_indosat_2011_counts():
    events, relays = indosat_2011_fixture()
    (impact,) = cross_reference(events, relays)
    assert (impact.relays, impact.guards, impact.exits) == (5, 1, 4)
    assert impact.prefixes == 7


def test_load_hijack_events_csv(tmp_path):
    from routelens.detect import load_hijack_events

    path = tmp_path / "events.csv"
    path.write_text(
        "prefix,t_start,t_end,label\n"
        "198.245.63.0/24,1000,2000,btc\n"
        "91.0.0.0/16,0,500,indosat-2011\n"
    )
    events = load_hijack_events(path)
    assert events[0] == HijackEvent(IpPrefix.parse("198.245.63.0/24"), 1000.0, 2000.0, "btc")
    assert events[1].label == "indosat-2011"


def test_cross_reference_dual_flag_double_counts():
    events = [HijackEvent(IpPrefix.parse("20.0.0.0/24"), 0.0, 10.0, "x")]
    relays = [relay("20.0.0.1", guard=True, exit_=True), relay("20.0.0.2", exit_=True)]
    (impact,) = cross_reference(events, relays)
    assert impact.guards + impact.exits >= impact.relays
    assert (impact.relays, impact.guards, impact.exits) == (2, 1, 2)


# --- frequency heuristic ---------------------------------------------------------


# prefix order and text order disagree, and 192.0.2.0/24 covers no relay
_FREQUENCY_PREFIXES = ["20.1.0.0/24", "20.0.0.0/16", "20.0.0.0/24", "192.0.2.0/24"]


def test_frequency_flags_rare_origin_at_reference_threshold():
    victim = "20.0.0.0/24"
    relays = [relay("20.0.0.5", guard=True)]
    updates = [announce(float(i), "s1", victim, [100, 200]) for i in range(199_999)]
    updates.append(announce(199_999.0, "s1", victim, [300, 666]))
    alerts = frequency_heuristic(table_of(updates), relays, (0.0, 200_000.0), threshold=0.00001)
    assert [(a.origin_as, a.heuristic) for a in alerts] == [(666, Heuristic.FREQUENCY)]
    assert alerts[0].score == pytest.approx(1 / 200_000)
    assert alerts[0].guards == (relays[0].address,)


def test_frequency_sole_origin_never_flagged():
    relays = [relay("20.0.0.5", guard=True)]
    updates = [announce(float(i), "s1", "20.0.0.0/24", [100, 200]) for i in range(50)]
    assert frequency_heuristic(table_of(updates), relays, (0.0, 50.0), threshold=0.5) == []


def test_frequency_boundary_is_strict():
    relays = [relay("20.0.0.5", guard=True)]
    updates = [announce(float(i), "s1", "20.0.0.0/24", [100, 200]) for i in range(99)]
    updates.append(announce(99.0, "s1", "20.0.0.0/24", [300, 666]))
    # origin 666 frequency is exactly 0.01
    assert frequency_heuristic(table_of(updates), relays, (0.0, 100.0), threshold=0.01) == []
    assert len(frequency_heuristic(table_of(updates), relays, (0.0, 100.0), threshold=0.0101)) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 1800.0, 5000.0]),  # gap to the previous update
            st.integers(0, 2),  # session
            st.sampled_from([False, False, False, True]),  # withdraw
            st.sampled_from(_FREQUENCY_PREFIXES),
            st.integers(1, 4),  # origin
        ),
        max_size=40,
    ),
    st.tuples(st.floats(-100.0, 20_000.0), st.floats(0.5, 30_000.0)),
    st.sampled_from([0.1, 0.3, 0.5, 0.999]),
    st.booleans(),
)
def test_frequency_heuristic_matches_dict_oracle(stream, window, threshold, per_prefix):
    t = 0.0
    updates = []
    for gap, session, is_withdraw, prefix, origin in stream:
        t += gap
        if is_withdraw:
            updates.append(withdraw(t, f"s{session}", prefix))
        else:
            updates.append(announce(t, f"s{session}", prefix, [64500, 64500 + origin, origin]))
    window = (window[0], window[0] + window[1])
    relays = [relay("20.0.0.5", guard=True), relay("20.1.0.9", exit_=True)]
    expected = oracle_frequency_heuristic(updates, relays, window, threshold, per_prefix)
    assert frequency_heuristic(table_of(updates), relays, window, threshold, per_prefix) == expected


# --- time heuristic --------------------------------------------------------------


def test_time_flags_short_lived_route():
    relays = [relay("20.0.0.5", guard=True)]
    updates = [
        announce(0.0, "s1", "20.0.0.0/24", [100, 200]),
        announce(40_000.0, "s1", "20.0.0.0/24", [300, 666]),
        announce(40_060.0, "s1", "20.0.0.0/24", [100, 200]),
    ]
    alerts = time_heuristic(table_of(updates), relays, threshold=0.01, window=(0.0, DAY))
    assert [(a.origin_as, a.heuristic) for a in alerts] == [(666, Heuristic.TIME)]
    assert alerts[0].score == pytest.approx(60.0 / DAY)
    assert alerts[0].windows == ((40_000.0, 40_060.0),)


def test_time_ignores_window_long_route():
    relays = [relay("20.0.0.5", guard=True)]
    updates = [announce(0.0, "s1", "20.0.0.0/24", [100, 200])]
    assert time_heuristic(table_of(updates), relays, threshold=0.01, window=(0.0, DAY)) == []


def test_time_unions_lifetime_across_sessions():
    relays = [relay("20.0.0.5", guard=True)]
    updates = [
        announce(0.0, "s1", "20.0.0.0/24", [300, 666]),
        announce(100.0, "s2", "20.0.0.0/24", [300, 666]),
        withdraw(500.0, "s1", "20.0.0.0/24"),
        withdraw(700.0, "s2", "20.0.0.0/24"),
    ]
    alerts = time_heuristic(table_of(updates), relays, threshold=0.5, window=(0.0, DAY))
    assert alerts[0].windows == ((0.0, 700.0),)
    assert alerts[0].score == pytest.approx(700.0 / DAY)


def _random_update_stream(rng, n=120):
    relays = [relay("20.0.0.5", guard=True), relay("20.1.0.9", exit_=True)]
    prefixes = ["20.0.0.0/24", "20.1.0.0/24", "20.0.0.0/16"]
    updates = []
    for i in range(n):
        ts = float(rng.randint(0, 5000))
        prefix = rng.choice(prefixes)
        session = rng.choice(["s1", "s2"])
        if rng.random() < 0.3:
            updates.append(withdraw(ts, session, prefix))
        else:
            updates.append(
                announce(ts, session, prefix, [rng.randint(1, 6) for _ in range(2)])
            )
    updates.sort(key=lambda u: u.timestamp)
    return updates, relays


def test_heuristics_deterministic_and_threshold_monotone():
    rng = random.Random(99)
    for _ in range(10):
        updates, relays = _random_update_stream(rng)
        window = (0.0, 6000.0)
        first = time_heuristic(table_of(updates), relays, window, 0.05)
        again = time_heuristic(table_of(updates), relays, window, 0.05)
        assert first == again
        wider = time_heuristic(table_of(updates), relays, window, 0.2)
        assert {(a.prefix, a.origin_as) for a in first} <= {
            (a.prefix, a.origin_as) for a in wider
        }
        freq_narrow = frequency_heuristic(table_of(updates), relays, window, 0.01)
        freq_wide = frequency_heuristic(table_of(updates), relays, window, 0.2)
        assert {(a.prefix, a.origin_as) for a in freq_narrow} <= {
            (a.prefix, a.origin_as) for a in freq_wide
        }


# --- more-specific monitor --------------------------------------------------------


def test_more_specific_foreign_origin_alerts():
    relays = [relay("184.164.0.17", guard=True)]
    updates = [
        announce(0.0, "s1", "184.164.0.0/23", [100, 2637]),
        announce(20.0, "s1", "184.164.0.0/24", [100, 226]),
        withdraw(320.0, "s1", "184.164.0.0/24"),
    ]
    alerts = more_specific_monitor(table_of(updates), relays, (0.0, 320.0))
    assert len(alerts) == 1
    alert = alerts[0]
    assert alert.heuristic is Heuristic.MORE_SPECIFIC
    assert str(alert.prefix) == "184.164.0.0/24"
    assert alert.origin_as == 226
    assert alert.windows == ((20.0, 320.0),)
    assert alert.guards == (relays[0].address,)


def test_more_specific_same_origin_is_traffic_engineering():
    relays = [relay("184.164.0.17", guard=True)]
    updates = [
        announce(0.0, "s1", "184.164.0.0/23", [100, 2637]),
        announce(20.0, "s1", "184.164.0.0/24", [100, 2637]),
    ]
    assert more_specific_monitor(table_of(updates), relays, (0.0, 20.0)) == []


def test_more_specific_outside_relay_space_ignored():
    relays = [relay("184.164.0.17", guard=True)]
    updates = [
        announce(0.0, "s1", "203.0.112.0/23", [100, 111]),
        announce(20.0, "s1", "203.0.112.0/24", [100, 222]),
    ]
    assert more_specific_monitor(table_of(updates), relays, (0.0, 20.0)) == []


def test_more_specific_any_covering_route_counts():
    # the /24's most specific cover (/20) has its own origin, the /16 does not
    relays = [relay("184.164.0.17", guard=True)]
    updates = [
        announce(0.0, "s1", "184.164.0.0/16", [100, 2637]),
        announce(10.0, "s1", "184.164.0.0/20", [100, 226]),
        announce(20.0, "s1", "184.164.0.0/24", [100, 226]),
    ]
    alerts = more_specific_monitor(table_of(updates), relays, (0.0, 20.0))
    assert [(str(a.prefix), a.origin_as, a.windows) for a in alerts] == [
        ("184.164.0.0/20", 226, ((10.0, 20.0),)),
        ("184.164.0.0/24", 226, ((20.0, 20.0),)),
    ]


def _interception(t_announce, t_withdraw):
    return [
        announce(0.0, "s1", "184.164.0.0/23", [100, 2637]),
        announce(t_announce, "s1", "184.164.0.0/24", [100, 226]),
        withdraw(t_withdraw, "s1", "184.164.0.0/24"),
    ]


def test_more_specific_hit_before_window_has_no_alert():
    relays = [relay("184.164.0.17", guard=True)]
    updates = _interception(20.0, 320.0)
    assert more_specific_monitor(table_of(updates), relays, window=(1000.0, 2000.0)) == []


def test_more_specific_hit_straddling_window_start_is_clipped():
    relays = [relay("184.164.0.17", guard=True)]
    updates = _interception(20.0, 320.0)
    (alert,) = more_specific_monitor(table_of(updates), relays, window=(100.0, 2000.0))
    assert alert.windows == ((100.0, 320.0),)
    assert alert.score == 1.0


def test_more_specific_open_hit_closes_at_window_end():
    relays = [relay("184.164.0.17", guard=True)]
    updates = _interception(20.0, 900.0)
    (alert,) = more_specific_monitor(table_of(updates), relays, window=(0.0, 500.0))
    assert alert.windows == ((20.0, 500.0),)


# relays in 10.1.0.0/16 and 10.3.0.0/16; prefixes nest around them and
# around addresses outside relay space (10.2.x and 192.0.2.x)
_MONITOR_RELAYS = [
    relay("10.1.2.3", guard=True),
    relay("10.1.200.5", exit_=True),
    relay("10.3.0.9", guard=True, exit_=True),
]
_MONITOR_PREFIXES = sorted(
    {
        str(IpPrefix(ip_to_int(address), length))
        for address in ("10.1.2.3", "10.1.200.5", "10.3.0.9", "10.2.7.7", "192.0.2.77")
        for length in (8, 12, 15, 16, 20, 23, 24, 28, 32)
    }
)
_stream = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 5.0]),  # gap to the previous update
        st.integers(0, 2),  # session
        st.sampled_from([False, False, True]),  # withdraw
        st.sampled_from(_MONITOR_PREFIXES),
        st.integers(1, 3),  # origin
    ),
    min_size=5,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@example(  # the /24's most specific cover shares its origin, the /8 does not
    [
        (0.0, 0, False, "10.0.0.0/8", 1),
        (1.0, 0, False, "10.1.0.0/16", 2),
        (1.0, 0, False, "10.1.2.0/24", 2),
        (0.0, 0, True, "10.1.0.0/16", 2),
        (5.0, 0, True, "10.1.2.0/24", 2),
    ],
    1,
    None,
)
@given(
    _stream,
    st.integers(1, 3),
    st.none() | st.tuples(st.floats(-5.0, 60.0), st.floats(0.0, 80.0)),
)
def test_more_specific_monitor_matches_linear_scan_oracle(stream, n_sessions, window):
    t = 0.0
    updates = []
    for gap, session, is_withdraw, prefix, origin in stream:
        t += gap
        session = f"s{session % n_sessions}"
        if is_withdraw:
            updates.append(withdraw(t, session, prefix))
        else:
            updates.append(announce(t, session, prefix, [64500 + origin, origin]))
    if window is None:  # first update to last
        window = (updates[0].timestamp, updates[-1].timestamp)
    else:
        window = (min(window), max(window))
    expected = oracle_more_specific_monitor(updates, _MONITOR_RELAYS, window)
    assert more_specific_monitor(table_of(updates), _MONITOR_RELAYS, window) == expected


# few enough prefixes that sessions and re-announcements meet on one route
_LIFETIME_PREFIXES = sorted(
    {
        str(IpPrefix(ip_to_int(address), length))
        for address in ("10.1.2.3", "10.3.0.9", "10.2.7.7")
        for length in (8, 16, 24)
    }
)


@settings(max_examples=300, deadline=None)
@example(  # two sessions overlap on one route; a withdrawal and re-announcement touch
    [
        (0.0, 0, False, "10.1.0.0/16", 1, 1),
        (1.0, 1, False, "10.1.0.0/16", 1, 1),
        (1.0, 0, True, "10.1.0.0/16", 1, 1),
        (0.0, 0, False, "10.1.0.0/16", 1, 1),
        (5.0, 1, False, "10.1.0.0/16", 2, 1),
        (5.0, 0, True, "10.1.0.0/16", 1, 1),
    ],
    2,
    (-2.0, 200.0),
    0.5,
)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 5.0]),  # gap to the previous update
            st.integers(0, 2),  # session
            st.sampled_from([False, False, True]),  # withdraw
            st.sampled_from(_LIFETIME_PREFIXES),
            st.integers(1, 2),  # first AS: a path change can keep its origin
            st.integers(1, 3),  # origin
        ),
        max_size=40,
    ),
    st.integers(1, 3),
    st.none() | st.tuples(st.floats(-20.0, 250.0), st.floats(0.5, 120.0)),
    st.sampled_from([0.05, 0.5, 0.999999]),
)
def test_time_heuristic_matches_replay_oracle(stream, n_sessions, window, threshold):
    t = 0.0
    updates = []
    for gap, session, is_withdraw, prefix, first, origin in stream:
        t += gap
        session = f"s{session % n_sessions}"
        if is_withdraw:
            updates.append(withdraw(t, session, prefix))
        else:
            updates.append(announce(t, session, prefix, [64500 + first, origin]))
    if window is None:  # first update to one second past the last
        window = (updates[0].timestamp, updates[-1].timestamp + 1.0) if updates else (0.0, 1.0)
    else:
        window = (window[0], window[0] + window[1])  # before, across or after the updates
    expected = oracle_time_heuristic(updates, _MONITOR_RELAYS, window, threshold)
    assert time_heuristic(table_of(updates), _MONITOR_RELAYS, window, threshold) == expected


def test_time_heuristic_orders_alerts_by_prefix_then_path():
    # base order and length order disagree: 10.1.2.0/24 sorts before 10.3.0.0/16
    updates = [
        announce(0.0, "s1", "10.3.0.0/16", [64501, 2]),
        announce(0.0, "s1", "10.1.2.0/24", [64502, 3]),
        announce(5.0, "s2", "10.1.2.0/24", [64501, 1]),
        withdraw(10.0, "s1", "10.3.0.0/16"),
        withdraw(10.0, "s1", "10.1.2.0/24"),
        withdraw(10.0, "s2", "10.1.2.0/24"),
    ]
    alerts = time_heuristic(table_of(updates), _MONITOR_RELAYS, threshold=0.5, window=(0.0, 1000.0))
    assert [(str(a.prefix), a.origin_as) for a in alerts] == [
        ("10.1.2.0/24", 1), ("10.1.2.0/24", 3), ("10.3.0.0/16", 2),
    ]
    assert alerts == oracle_time_heuristic(updates, _MONITOR_RELAYS, (0.0, 1000.0), 0.5)


def test_alert_jsonl_roundtrip():
    alert = HijackAlert(
        prefix=IpPrefix.parse("184.164.0.0/24"),
        origin_as=226,
        heuristic=Heuristic.MORE_SPECIFIC,
        score=1.0,
        windows=((20.0, 320.0),),
        guards=(ip_to_int("184.164.0.17"),),
        exits=(),
    )
    assert alert_from_record(alert_to_record(alert)) == alert


# --- prefix length vulnerability ----------------------------------------------------


def test_prefix_length_all_short_all_long():
    short_map = origin_table({f"20.{i}.0.0/23": 100 + i for i in range(5)})
    short_relays = [relay(f"20.{i}.0.9", guard=True) for i in range(5)]
    report = prefix_length_vulnerability(short_relays, short_map)
    assert report.percent_hijackable == 100.0
    assert report.histogram == {23: 5}

    long_map = origin_table({f"20.{i}.0.0/24": 100 + i for i in range(5)})
    report = prefix_length_vulnerability(short_relays, long_map)
    assert report.percent_hijackable == 0.0


def test_prefix_length_mixed_ninety_percent():
    mapping = {f"20.{i}.0.0/22": 100 + i for i in range(9)}
    mapping["21.0.0.0/24"] = 200
    relays = [relay(f"20.{i}.0.9", guard=True) for i in range(9)]
    relays.append(relay("21.0.0.9", exit_=True))
    report = prefix_length_vulnerability(relays, origin_table(mapping))
    assert report.percent_hijackable == pytest.approx(90.0)
    assert sum(report.histogram.values()) == report.total_prefixes == 10


# --- AS-aware guard selection --------------------------------------------------------


def test_select_disjoint_guard():
    guards = {"g1": [AsPath((1, 2)), AsPath((1, 3))]}
    exits = [AsPath((7, 8))]
    assert as_aware_select(guards, exits) == ["g1"]


def test_select_no_admissible_guard():
    guards = {"g1": [AsPath((1, 7))], "g2": [AsPath((2, 8))]}
    exits = [AsPath((7, 8))]
    with pytest.raises(NoAdmissibleGuardError):
        as_aware_select(guards, exits)


def test_select_prefers_shorter_path():
    guards = {
        "far": [AsPath((1, 2, 3, 4))],
        "near": [AsPath((5, 6))],
        "conflicted": [AsPath((9, 7))],
    }
    exits = [AsPath((7, 8))]
    assert as_aware_select(guards, exits) == ["near", "far"]


def test_select_history_counts_not_just_current():
    # the current path avoids the exit ASes but last month's did not
    guards = {"g1": [AsPath((1, 7)), AsPath((1, 2))]}
    exits = [AsPath((7, 8))]
    with pytest.raises(NoAdmissibleGuardError):
        as_aware_select(guards, exits)


# --- combined run ---------------------------------------------------------------------


def test_run_all_heuristics_unions_alert_kinds():
    relays = [relay("184.164.0.17", guard=True)]
    updates = [
        announce(0.0, "s1", "184.164.0.0/23", [100, 2637]),
        announce(20.0, "s1", "184.164.0.0/24", [100, 226]),
        withdraw(320.0, "s1", "184.164.0.0/24"),
    ]
    alerts = run_all_heuristics(table_of(updates), relays, window=(0.0, DAY))
    kinds = {a.heuristic for a in alerts}
    assert Heuristic.MORE_SPECIFIC in kinds
    assert Heuristic.TIME in kinds  # the /24 lived 300 s out of a day


def test_run_all_heuristics_is_one_window_for_all_three():
    # the foreign-origin /17 is still live at the last update
    relays = [relay("184.164.0.17", guard=True)]
    updates = [
        announce(0.0, "s1", "184.164.0.0/16", [100, 2637]),
        announce(50.0, "s1", "184.164.0.0/17", [100, 226]),
        announce(100.0, "s2", "184.164.0.0/16", [200, 2637]),
    ]
    alerts = run_all_heuristics(table_of(updates), relays, time_threshold=0.9, window=(0.0, 101.0))
    windows = {(a.heuristic, str(a.prefix)): a.windows for a in alerts}
    assert windows[Heuristic.TIME, "184.164.0.0/17"] == ((50.0, 101.0),)
    assert windows[Heuristic.MORE_SPECIFIC, "184.164.0.0/17"] == ((50.0, 101.0),)
