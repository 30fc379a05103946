"""Tests for update parsing, session-reset filtering, and RIB replay."""

import csv
import io
import random
import re

import numpy as np
import pytest
from helpers import (
    AsPath,
    BgpUpdate,
    announce,
    covers_any,
    live_at,
    oracle_ingest,
    oracle_parse_updates,
    rib_entries,
    route_for_relay,
    table_of,
    updates_of,
    withdraw,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from routelens import textcols
from routelens.bgp import (
    ParseIssue,
    UpdateTable,
    _path_rows,
    filter_session_resets,
    ingest,
    parse_updates,
    route_spans,
    write_updates,
)
from routelens.core import (
    MAX_ASN, IpPrefix, RelayDescriptor, RelayIndex, ip_to_int, parse_path, path_ases,
)


RELAYS = [
    RelayDescriptor(ip_to_int("198.245.63.228"), True, False, 10.0, "g1"),
    RelayDescriptor(ip_to_int("10.1.0.5"), False, True, 5.0, "e1"),
    RelayDescriptor(ip_to_int("10.1.1.7"), True, True, 7.0, "b1"),
]
INDEX = RelayIndex(RELAYS)


def rib_of(*updates):
    """Session s1's RIB after the updates."""
    return ingest(table_of(updates), INDEX)["s1"]


# --- parsing -----------------------------------------------------------------


def test_parse_announce_and_withdraw_lines(tmp_path):
    path = tmp_path / "updates.csv"
    path.write_text(
        "timestamp,session,kind,prefix,path\n"
        '1420070400,rrc00-s1,A,198.245.63.0/24,"3356 16276"\n'
        "1420070500,rrc00-s1,W,198.245.63.0/24,\n"
    )
    updates, issues = parse_updates(path)
    assert not issues
    assert len(updates) == 2
    first, second = updates_of(updates)
    assert first.session == "rrc00-s1"
    assert first.prefix == IpPrefix.parse("198.245.63.0/24")
    assert first.path.ases == (3356, 16276)
    assert second.path is None


def test_parse_reports_bad_lines_with_numbers(tmp_path):
    lines = ["timestamp,session,kind,prefix,path"]
    for i in range(100):
        lines.append(f'{1000 + i},s1,A,10.{i}.0.0/16,"65000 65001"')
    lines[50] = "not,a,valid,line"
    path = tmp_path / "updates.csv"
    path.write_text("\n".join(lines) + "\n")
    updates, issues = parse_updates(path)
    assert len(updates) == 99
    assert len(issues) == 1
    assert issues[0].line_no == 51  # header is line 1
    assert "5 fields" in issues[0].message


@pytest.mark.parametrize(
    "row, message",
    [
        ('nan,s1,A,10.1.0.0/16,"100 200"', "timestamp must be finite, not 'nan'"),
        ('-inf,s1,A,10.1.0.0/16,"100 200"', "timestamp must be finite, not '-inf'"),
        ('5,s1,X,10.1.0.0/16,"100 200"', "kind must be A or W, not 'X'"),
        ('5,s1,W,10.1.0.0/16,"100 200"', "withdrawal carries a path"),
    ],
    ids=["nan-timestamp", "infinite-timestamp", "unknown-kind", "withdrawal-with-path"],
)
def test_parse_reports_bad_timestamp_and_kind(tmp_path, row, message):
    path = tmp_path / "updates.csv"
    path.write_text(f'timestamp,session,kind,prefix,path\n{row}\n5,s1, w ,10.1.0.0/16,\n')
    updates, issues = parse_updates(path)
    assert [(issue.line_no, issue.message) for issue in issues] == [(2, message)]
    assert [(u.timestamp, u.path) for u in updates_of(updates)] == [(5.0, None)]  # kind is stripped, any case


def test_parse_write_roundtrip(tmp_path):
    updates = [
        announce(10.0, "s1", "10.1.0.0/16", [100, 200]),
        withdraw(20.0, "s1", "10.1.0.0/16"),
        announce(30.0, "s2", "198.245.63.0/24", [300, 100]),
    ]
    path = tmp_path / "updates.csv"
    write_updates(path, table_of(updates))
    parsed, issues = parse_updates(path)
    assert not issues
    assert updates_of(parsed) == updates


# --- session-reset filter ----------------------------------------------------


def _reset_stream():
    stream = [
        announce(0.0, "s1", "10.1.0.0/16", [100, 200]),
        announce(5.0, "s1", "198.245.63.0/24", [100, 300]),
    ]
    # four hours of silence, then the peer dumps its table again
    stream.append(announce(4 * 3600.0 + 2.0, "s1", "10.1.0.0/16", [100, 200]))
    stream.append(announce(4 * 3600.0 + 3.0, "s1", "198.245.63.0/24", [100, 300]))
    # a real change inside the same burst must survive
    stream.append(announce(4 * 3600.0 + 4.0, "s1", "10.1.0.0/16", [100, 999]))
    return stream


def test_reset_reannouncements_dropped_changes_kept():
    filtered = filter_session_resets(
        table_of(_reset_stream()), quiet_gap=3600.0, burst_window=600.0
    )
    times = [u.timestamp for u in updates_of(filtered)]
    assert times == [0.0, 5.0, 4 * 3600.0 + 4.0]


def test_reset_filter_preserves_final_state():
    stream = table_of(_reset_stream())
    filtered = filter_session_resets(stream)
    full = ingest(stream, INDEX)["s1"]
    trimmed = ingest(filtered, INDEX)["s1"]
    assert {p: e.path for p, e in full.live.items()} == {
        p: e.path for p, e in trimmed.live.items()
    }


def test_reset_filter_identity_without_gaps():
    stream = [
        announce(float(i), "s1", "10.1.0.0/16", [100, 200 + (i % 3)]) for i in range(20)
    ]
    assert updates_of(filter_session_resets(table_of(stream))) == stream


# --- rib replay --------------------------------------------------------------


def test_announce_withdraw_yields_one_closed_interval():
    rib = rib_of(
        announce(10.0, "s1", "10.1.0.0/16", [100, 200]),
        withdraw(25.0, "s1", "10.1.0.0/16"),
    )
    prefix = IpPrefix.parse("10.1.0.0/16")
    assert prefix not in rib.live
    closed = rib.history[prefix]
    assert len(closed) == 1
    assert (closed[0].t_start, closed[0].t_end) == (10.0, 25.0)


def test_path_change_closes_and_reopens():
    rib = rib_of(
        announce(10.0, "s1", "10.1.0.0/16", [100, 200]),
        announce(40.0, "s1", "10.1.0.0/16", [100, 300]),
    )
    prefix = IpPrefix.parse("10.1.0.0/16")
    assert rib.history[prefix][0].t_end == 40.0
    assert rib.history[prefix][0].path == (100, 200)
    assert rib.live[prefix].t_start == 40.0 and rib.live[prefix].t_end is None


def test_duplicate_announcement_is_noop():
    rib = rib_of(
        announce(10.0, "s1", "10.1.0.0/16", [100, 200]),
        announce(40.0, "s1", "10.1.0.0/16", [100, 200]),
    )
    prefix = IpPrefix.parse("10.1.0.0/16")
    assert prefix not in rib.history
    assert rib.live[prefix].t_start == 10.0


def test_non_relay_prefix_ignored():
    rib = rib_of(announce(10.0, "s1", "203.0.113.0/24", [100, 200]))
    assert not rib.live and not rib.history


def test_rows_given_out_of_time_order_come_out_stably_sorted():
    prefixes = (IpPrefix.parse("10.1.0.0/16"), IpPrefix.parse("10.0.0.0/8"))
    # (ts, session, prefix, path): three rows at t=5 keep their given order
    rows = [(10.0, 0, 0, 0), (5.0, 1, 0, -1), (7.0, 0, 1, 1), (5.0, 0, 1, 0), (5.0, 1, 1, 1)]
    table = UpdateTable(*zip(*rows), ("s1", "s2"), prefixes, ((100, 200), (300,)))
    expected = sorted(rows, key=lambda row: row[0])
    assert [row[0] for row in expected] == [5.0, 5.0, 5.0, 7.0, 10.0]
    assert list(zip(
        table.ts.tolist(), table.session.tolist(), table.prefix.tolist(), table.path.tolist()
    )) == expected
    assert table.origin.tolist() == [-1, 200, 300, 300, 200]
    # a stream out of order on one session replays in time order
    assert [(e.t_start, e.t_end, e.path) for _, e in rib_entries(rib_of(
        announce(10.0, "s1", "10.1.0.0/16", [100, 200]),
        announce(5.0, "s1", "10.1.0.0/16", [100, 300]),
    ))] == [(5.0, 10.0, (100, 300)), (10.0, None, (100, 200))]


def test_route_for_relay_most_specific_then_none():
    stream = [
        announce(0.0, "s1", "10.0.0.0/8", [100, 200]),
        announce(1.0, "s1", "10.1.0.0/24", [100, 300]),
        withdraw(10.0, "s1", "10.1.0.0/24"),
        withdraw(12.0, "s1", "10.0.0.0/8"),
    ]
    relay = RELAYS[1]  # 10.1.0.5
    rib = rib_of(*stream)
    best = route_for_relay(rib, relay, 5.0)
    assert best is not None and best.prefix.length == 24
    assert route_for_relay(rib, relay, 11.0).prefix.length == 8
    assert route_for_relay(rib, relay, 13.0) is None
    # before the withdrawals, the same entries are still live
    assert route_for_relay(rib_of(*stream[:2]), relay, 13.0).prefix.length == 24


def _random_stream(rng, n_updates=60, sessions=("s1", "s2")):
    prefixes = ["10.1.0.0/16", "10.1.0.0/24", "10.1.1.0/24", "198.245.63.0/24", "10.0.0.0/8"]
    updates = []
    t = 0.0
    for _ in range(n_updates):
        t += rng.randint(1, 9)
        session = rng.choice(sessions)
        prefix = rng.choice(prefixes)
        if rng.random() < 0.3:
            updates.append(withdraw(t, session, prefix))
        else:
            path = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
            updates.append(announce(t, session, prefix, path))
    return updates


def test_route_for_relay_agrees_with_entry_scan_oracle():
    rng = random.Random(42)
    for trial in range(20):
        stream = _random_stream(rng)
        ribs = ingest(table_of(stream), INDEX)
        horizon = max(u.timestamp for u in stream) + 5
        for rib in ribs.values():
            entries = rib_entries(rib)
            for relay in RELAYS:
                for t in range(0, int(horizon), 3):
                    best = None
                    for _, entry in entries:
                        if entry.prefix.covers(relay.address) and live_at(entry, t):
                            if best is None or entry.prefix.length > best.prefix.length:
                                best = entry
                    assert route_for_relay(rib, relay, t) == best


def test_replay_determinism():
    rng = random.Random(1)
    stream = _random_stream(rng)
    first = ingest(table_of(stream), INDEX)
    second = ingest(table_of(stream), INDEX)
    for sid in first:
        assert rib_entries(first[sid]) == rib_entries(second[sid])


def test_interval_soundness():
    rng = random.Random(7)
    stream = _random_stream(rng, n_updates=80)
    ribs = ingest(table_of(stream), INDEX)
    horizon = max(u.timestamp for u in stream) + 10
    for sid, rib in ribs.items():
        # reconstruct announced-time sets directly from the update stream
        announced: dict = {}
        state: dict = {}
        for update in stream:
            if update.session != sid:
                continue
            tracked = any(update.prefix.covers(r.address) for r in RELAYS)
            if not tracked:
                continue
            if update.path is not None:
                state.setdefault(update.prefix, update.timestamp)
            elif update.prefix in state:
                announced.setdefault(update.prefix, []).append(
                    (state.pop(update.prefix), update.timestamp)
                )
        for prefix, started in state.items():
            announced.setdefault(prefix, []).append((started, horizon))

        for prefix in set(rib.history) | set(rib.live):
            intervals = [
                (e.t_start, e.t_end if e.t_end is not None else horizon)
                for _, e in rib_entries(rib)
                if _ == prefix
            ]
            intervals.sort()
            for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
                assert a1 <= b0, "entry intervals overlap"
            # union of entry intervals equals announced time (entries abut at
            # path changes, so compare merged unions)
            def merged(spans):
                out = []
                for s, e in sorted(spans):
                    if out and s <= out[-1][1]:
                        out[-1] = (out[-1][0], max(out[-1][1], e))
                    else:
                        out.append((s, e))
                return out

            assert merged(intervals) == merged(announced.get(prefix, []))


def test_ingest_infers_local_as_and_accepts_override():
    stream = [
        announce(1.0, "s1", "10.1.0.0/16", [7018, 3356]),
        announce(2.0, "s2", "10.1.0.0/16", [1299, 3356]),
    ]
    ribs = ingest(table_of(stream), INDEX)
    assert ribs["s1"].session.local_as == 7018
    assert ribs["s2"].session.local_as == 1299
    ribs = ingest(table_of(stream), INDEX, local_as={"s1": 65001})
    assert ribs["s1"].session.local_as == 65001

    # s3 withdraws before it announces; s4 only withdraws
    stream = [
        withdraw(0.5, "s3", "10.1.0.0/16"),
        withdraw(1.0, "s4", "10.1.0.0/16"),
        announce(2.0, "s3", "10.1.0.0/16", [174, 3356]),
        withdraw(3.0, "s4", "10.1.0.0/16"),
        withdraw(4.0, "s3", "10.1.0.0/16"),
    ]
    ribs = ingest(table_of(stream), INDEX)
    assert set(ribs) == {"s3", "s4"}
    assert ribs["s3"].session.local_as == 174
    assert ribs["s4"].session.local_as == 0
    prefix = IpPrefix.parse("10.1.0.0/16")
    assert [(p, e.t_start, e.t_end, e.path) for p, e in rib_entries(ribs["s3"])] == [
        (prefix, 2.0, 4.0, (174, 3356))
    ]
    assert rib_entries(ribs["s4"]) == []
    # the entries do not depend on whether the local AS was inferred or given
    given = ingest(table_of(stream), INDEX, local_as={"s3": 65003, "s4": 65004})
    assert given["s3"].session.local_as == 65003
    assert given["s4"].session.local_as == 65004
    for sid in ribs:
        assert rib_entries(given[sid]) == rib_entries(ribs[sid])


# --- update table ------------------------------------------------------------


def test_table_interns_equal_prefixes_and_collapsed_paths(tmp_path):
    path = tmp_path / "updates.csv"
    path.write_text(
        "timestamp,session,kind,prefix,path\n"
        '3,s2,A,10.1.0.0/16,"100 200"\n'
        '1,s1,A,10.1.0.0/16,"100 100 200"\n'
        '2,s1,A,10.1.2.3/16,"100 200 200"\n'
        "4,s1,W,10.1.0.0/16,\n"
    )
    table, issues = parse_updates(path)
    assert not issues
    assert table.prefixes == (IpPrefix.parse("10.1.0.0/16"),)
    assert table.path_ases == ((100, 200),)
    assert table.sessions == ("s2", "s1")
    assert table.ts.tolist() == [1.0, 2.0, 3.0, 4.0]  # stably sorted by time
    assert table.session.tolist() == [1, 1, 0, 1]
    assert table.path.tolist() == [0, 0, 0, -1]
    assert table.origin.tolist() == [200, 200, 200, -1]


def test_two_files_parse_into_one_table_first_file_first_on_ties(tmp_path):
    first = [
        announce(5.0, "s1", "10.1.0.0/16", [100, 200]),
        withdraw(7.0, "s1", "10.1.0.0/16"),
    ]
    second = [
        announce(1.0, "s2", "10.0.0.0/8", [300]),
        announce(5.0, "s1", "10.1.0.0/16", [100, 200]),
        announce(5.0, "s1", "10.1.0.0/16", [100, 300]),
    ]
    (tmp_path / "first.csv").write_text(
        "timestamp,session,kind,prefix,path\n5,s1,A,10.1.0.0/16,100 200\n7,s1,W,10.1.0.0/16,\n"
        "bad line\n"
    )
    (tmp_path / "second.csv").write_text(
        "1,s2,A,10.0.0.0/8,300\n5,s1,A,10.1.0.0/16,100 200\n5,s1,A,10.1.0.0/16,100 300\n"
    )
    table, issues = parse_updates(tmp_path / "first.csv", tmp_path / "second.csv")
    assert updates_of(table) == [second[0], first[0], second[1], second[2], first[1]]
    # a prefix or path in both files has one id
    assert table.prefixes == (IpPrefix.parse("10.1.0.0/16"), IpPrefix.parse("10.0.0.0/8"))
    assert table.path_ases == ((100, 200), (300,), (100, 300))
    assert issues == [
        ParseIssue(str(tmp_path / "first.csv"), 4, "expected 5 fields, got 1", "bad line")
    ]
    assert str(issues[0]) == f"{tmp_path / 'first.csv'}: line 4: expected 5 fields, got 1: bad line"


def test_route_spans_open_at_a_new_path_and_close_at_the_next_change():
    table = table_of([
        announce(0.0, "s1", "10.1.0.0/16", [100, 200]),
        announce(1.0, "s2", "10.1.0.0/16", [100, 200]),
        announce(2.0, "s1", "10.1.0.0/16", [100, 200]),  # duplicate: no new route
        announce(3.0, "s1", "203.0.113.0/24", [100, 200]),  # covers no relay
        announce(4.0, "s1", "10.1.0.0/16", [100, 300]),
        withdraw(6.0, "s1", "10.1.0.0/16"),
        withdraw(7.0, "s1", "10.1.0.0/16"),  # nothing live: no-op
    ])
    rows, ends = route_spans(table, INDEX)
    # by session id (s1 first), then prefix id, then start
    assert rows.tolist() == [0, 4, 1]
    assert ends.tolist() == [4.0, 6.0, float("inf")]


_ADDRESSES = st.sampled_from([0, 1, 0x0A00FFFF, 0x0A010000, 0x0A0100FF, 0x0A010100, 2**32 - 1])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.builds(IpPrefix, _ADDRESSES, st.integers(0, 32)), max_size=8),
    st.lists(_ADDRESSES, max_size=5),
)
def test_tracked_matches_covers_any(prefixes, addresses):
    relays = [RelayDescriptor(a, True, False, 1.0, f"r{i}") for i, a in enumerate(addresses)]
    index = RelayIndex(relays)
    table = table_of([withdraw(0.0, "s1", str(p)) for p in prefixes])
    assert table.tracked(index).tolist() == [covers_any(index, p) for p in table.prefixes]


# --- number grammars ---------------------------------------------------------


@pytest.mark.parametrize(
    "spelling",
    ["+64000", "1_0", "٣", "-7", "4294967296", "６５０００"],
    ids=["plus-sign", "underscore", "arabic-indic-digit", "negative", "past-32-bits",
         "fullwidth-digits"],
)
def test_update_path_as_number_is_ascii_digits_in_32_bits(tmp_path, spelling):
    path = tmp_path / "updates.csv"
    path.write_text(f'timestamp,session,kind,prefix,path\n5,s1,A,10.1.0.0/16,"65001 {spelling}"\n')
    updates, issues = parse_updates(path)
    assert len(updates) == 0
    assert [(issue.line_no, issue.message) for issue in issues] == [
        (2, f"not an AS number in 0..4294967295: {spelling!r}")
    ]


def test_update_path_as_numbers_at_the_ends_of_the_range_load(tmp_path):
    path = tmp_path / "updates.csv"
    path.write_text('timestamp,session,kind,prefix,path\n5,s1,A,10.1.0.0/16,"0 007 4294967295"\n')
    updates, issues = parse_updates(path)
    assert not issues
    assert [u.path.ases for u in updates_of(updates)] == [(0, 7, 4294967295)]


@pytest.mark.parametrize(
    "spelling", ["1_0", "١٠", "1 "], ids=["underscore", "arabic-indic", "nbsp"]
)
def test_update_timestamp_is_an_ascii_decimal(tmp_path, spelling):
    path = tmp_path / "updates.csv"
    path.write_text(f'timestamp,session,kind,prefix,path\n{spelling},s1,W,10.1.0.0/16,\n')
    updates, issues = parse_updates(path)
    assert len(updates) == 0
    assert [(issue.line_no, issue.message) for issue in issues] == [
        (2, f"timestamp must be an ASCII decimal, not {spelling!r}")
    ]


def test_every_timestamp_the_writer_spells_reads_back(tmp_path):
    stamps = [0.0, -0.5, 1e-05, 86400.0, 1420070400.0, 1.5e300, -2.25e-300, 123456789.125]
    path = tmp_path / "updates.csv"
    write_updates(path, table_of([withdraw(t, "s1", "10.1.0.0/16") for t in stamps]))
    updates, issues = parse_updates(path)
    assert not issues
    assert [u.timestamp for u in updates_of(updates)] == sorted(stamps)


# --- per-update oracles ------------------------------------------------------

_CELLS = {
    "timestamp": [
        "5", "1.5", "1e3", " 7 ", "-2", "+3.", ".5", "1e-05", "1_0", "٣", "1\xa0", "nan", "inf",
        "x", "",
    ],
    "session": ["s1", " s2 ", "s1 ", ""],
    "kind": ["A", "W", " a ", "w", "X"],
    "prefix": [
        "10.1.0.0/16", "10.1.9.9/16", "10.1.0.0/016", "10.0.0.0/8", "203.0.113.0/24",
        "10.1.0.0/+16", "x",
    ],
    "path": ["100 200", "100  100 200", "300", "", "+7 1", "-7", "4294967296", "1_0 2", "٣"],
}
_line = st.one_of(
    st.tuples(*(st.sampled_from(cells) for cells in _CELLS.values())).map(list),
    st.lists(st.sampled_from(["5", "s1", "A"]), max_size=6),  # a wrong field count
    st.sampled_from([["# comment", "x"], ["timestamp", " Session ", "kind"]]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_line, max_size=30))
def test_parse_updates_matches_the_per_line_oracle(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("parse") / "updates.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(lines)
    table, issues = parse_updates(path)
    expected_updates, expected_issues, _ = oracle_parse_updates(path)
    assert updates_of(table) == expected_updates
    assert issues == expected_issues


# a writer's table: stamps the writer spells plainly, by repr or with an
# exponent, and sessions csv quotes or that are not ASCII
_WRITTEN = st.lists(
    st.builds(
        BgpUpdate,
        st.one_of(
            st.integers(-10**6, 10**6).map(float),
            st.sampled_from([0.0, -0.0, 0.5, 86400.0, 1400000123.0, 1400000123.25, 1e16, 1e-05,
                             9007199254740993.0, 1.5e300, 123456789.125]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.sampled_from(["s1", "s2", "c10s2", "a b", "x,y", 'q"t', "é"]),
        st.builds(IpPrefix, _ADDRESSES, st.integers(0, 32)),
        st.one_of(
            st.none(),
            st.lists(st.sampled_from([0, 7, 100, 200, 64000, 4294967295]), min_size=1, max_size=6)
            .map(AsPath),
        ),
    ),
    max_size=12,
)
_EDIT_CHARACTERS = ' ,"\r\n\t#.-+_/0925eAWaxé٣\xa0'


@st.composite
def _edited(draw, lines):
    """lines with a few of them, the header aside, edited by one character
    or replaced by a line of _CELLS."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3)) if len(lines) > 1 else 0):
        k = draw(st.integers(1, len(lines) - 1))
        if draw(st.booleans()):
            text = io.StringIO(newline="")
            csv.writer(text).writerow(draw(st.tuples(*map(st.sampled_from, _CELLS.values()))))
            lines[k] = text.getvalue()
            continue
        at = draw(st.integers(0, len(lines[k]) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        character = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARACTERS))
        lines[k] = lines[k][:at] + character + lines[k][at + (edit != "insert"):]
    return lines


@settings(max_examples=200, deadline=None)
@given(st.lists(_WRITTEN, min_size=2, max_size=2), st.data(), st.sampled_from([1, 2, 5, 4096]))
def test_parse_updates_matches_the_oracle_on_written_and_edited_files(
    tmp_path_factory, tables, data, block
):
    """Rows, issues and id order are the oracle's whichever lines share a
    block, so a text met again in a later block or file is covered too."""
    root = tmp_path_factory.mktemp("written")
    paths = [root / "first.csv", root / "second.csv"]
    for path, updates in zip(paths, tables):
        write_updates(path, table_of(updates))
        lines = data.draw(_edited(path.read_bytes().decode().splitlines(keepends=True)))
        path.write_bytes("".join(lines).encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textcols, "_BLOCK_LINES", block)
        table, issues = parse_updates(*paths)
    expected_updates, expected_issues, order = oracle_parse_updates(*paths)
    assert updates_of(table) == expected_updates
    assert issues == expected_issues
    assert (table.sessions, table.prefixes, table.path_ases) == order


_NEAR_THE_FAST_SHAPE = [
    "5,s1,A,10.1.0.0/16,100 200",
    "-0,s1,W,10.1.0.0/16,",
    "007.50,s1,W,10.1.0.0/16,",
    "9007199254740993,s1,W,10.1.0.0/16,",
    "-90071992547409.935,s1,W,10.1.0.0/16,",
    "1234567890123456789,s1,W,10.1.0.0/16,",
    "12345678901234567890,s1,W,10.1.0.0/16,",
    "1e5,s1,W,10.1.0.0/16,",
    "5.,s1,W,10.1.0.0/16,",
    ".5,s1,W,10.1.0.0/16,",
    "1.2.3,s1,W,10.1.0.0/16,",
    "5,a b,A,10.1.0.0/16,100",
    "5,s1 ,A,10.1.0.0/16,100",
    "5, s1,A,10.1.0.0/16,100",
    "5,s1,a,10.1.0.0/16,100",
    "5,s1,AA,10.1.0.0/16,100",
    "5,s1,W,10.1.0.0/16,100",
    "5,s1,A,10.1.0.0/16,",
    "5,s1,A,010.1.0.0/16,100",
    "5,s1,A,10.1.9.9/16,100",
    "5,s1,A,10.0.0.0/08,100",
    "5,s1,A,10.0.0.0/8,100",
    "5,s1,A,10.0.0.0/33,100",
    "5,s1,A,10.0.0.0/,100",
    "5,s1,A,255.255.255.25/,100",
    "5,s1,A,10.0.0.0/8/,100",
    "5,s1,A,10.0.0/8,100",
    "5,s1,A,10.0.0.0.0/8,100",
    "5,s1,A,10.0.0.256/8,100",
    "5,s1,A,10.1.0.0/16,100  200",
    "5,s1,A,10.1.0.0/16,100 200 ",
    "5,s1,A,10.1.0.0/16, 100",
    "5,s1,A,10.1.0.0/16,100\t200",
    "5,s1,A,10.1.0.0/16,007 7 0",
    "5,s1,A,10.1.0.0/16,4294967295 4294967296",
    "5,s1,A,10.1.0.0/16,00000000001",
    "5,s1,A,10.1.0.0/16,100 100 200 200",
    "5,s1,A,10.1.0.0/16,100,200",
    "5,s1,A,10.1.0.0/16",
    "5,s1,A,10.1.0.0/16,\"100 200\"",
    "5,s\u00e9,A,10.1.0.0/16,100",
    "5,s1,A,10.1.0.0/16,1\u0661",
]


@pytest.mark.parametrize("block_lines", [1, 4096])
def test_lines_next_to_the_fast_shape_read_as_the_oracle_reads_them(
    tmp_path, monkeypatch, block_lines
):
    monkeypatch.setattr(textcols, "_BLOCK_LINES", block_lines)
    path = tmp_path / "updates.csv"
    # twice: in 1-line blocks every text, on the shape or not, is met again
    path.write_bytes("\n".join(_NEAR_THE_FAST_SHAPE * 2).encode() + b"\n")
    table, issues = parse_updates(path)
    expected_updates, expected_issues, order = oracle_parse_updates(path)
    assert updates_of(table) == expected_updates
    assert issues == expected_issues
    assert (table.sessions, table.prefixes, table.path_ases) == order


def test_a_text_keeps_one_code_whatever_the_width_of_its_block():
    # blocks of other widths pad a field with other counts of NULs; each
    # key is the field's exact text, so "s1" is one text and "s10" another
    texts = textcols.Texts(textcols.text_rows)

    def codes(*fields):
        data = np.frombuffer(" ".join(fields).encode() + bytes(64), np.uint8)
        lengths = np.array([len(field) for field in fields])
        starts = np.concatenate([[0], np.cumsum(lengths[:-1] + 1)])
        return texts.of_rows(textcols.field_windows(data, starts, lengths), lengths).tolist()

    assert codes("s1", "s10") == [0, 1]
    assert codes("s10", "s1234567890", "s1") == [1, 2, 0]
    assert codes("s1", "s1") == [0, 0]
    assert texts.values == ["s1", "s10", "s1234567890"]
    assert set(texts.by_window) == {b"s1", b"s10", b"s1234567890"}


_PATH_TEXTS = st.one_of(
    st.lists(st.sampled_from([0, 7, 100, 200, 4294967295]), min_size=1, max_size=4)
    .map(lambda ases: " ".join(map(str, ases))),
    st.sampled_from(["100 200", "100 100 200", "100 200 200", "007", "7", "100  200",
                     " 100", "100\t200", "4294967296", "00000000001", "1a", "-5"]),
)


def _fast_path(text):
    """The path_ases of a PATH text of the fast shape, else None."""
    if not re.fullmatch(r"[0-9]{1,10}( [0-9]{1,10})*", text):
        return None
    ases = [int(token) for token in text.split()]
    return path_ases(ases) if max(ases) <= MAX_ASN else None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.lists(_PATH_TEXTS, min_size=1, max_size=8)),
                max_size=6))
def test_interner_codes_match_a_dict_of_values(calls):
    """Codes from of_rows blocks and of_text calls, numbered by ids, are
    the first appearance of each value in a dict: texts of one value share
    an id whichever call met them, and a text off the fast shape keeps -1."""
    texts = textcols.Texts(_path_rows)
    codes, values = [], []
    for by_rows, fields in calls:
        if by_rows:
            data = np.frombuffer(",".join(fields).encode() + bytes(textcols.PAD), np.uint8)
            lengths = np.array([len(field) for field in fields])
            starts = np.concatenate([[0], np.cumsum(lengths[:-1] + 1)])
            rows = textcols.field_windows(data, starts, lengths)
            codes += texts.of_rows(rows, lengths).tolist()
            values += map(_fast_path, fields)
        else:
            for field in fields:
                try:
                    value = parse_path(field)
                except ValueError:
                    continue
                codes.append(texts.of_text(field, parse_path))
                values.append(value)
    ids, distinct = texts.ids(np.array(codes, dtype=np.int64))
    first_seen = {}
    for value in values:
        if value is not None:
            first_seen.setdefault(value, len(first_seen))
    assert ids.tolist() == [-1 if value is None else first_seen[value] for value in values]
    assert distinct == tuple(first_seen)


def test_a_prepended_path_shares_the_id_of_its_collapsed_path(tmp_path):
    path = tmp_path / "updates.csv"
    path.write_text("1,s1,A,10.1.0.0/16,100 100 200\n2,s1,A,10.0.0.0/8,100 200\n")
    table, issues = parse_updates(path)
    assert not issues
    assert table.path.tolist() == [0, 0]
    assert table.path_ases == ((100, 200),)


_INGEST_PREFIXES = ["10.1.0.0/16", "10.1.0.0/24", "10.0.0.0/8", "203.0.113.0/24"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 3.0, -2.0]),  # a negative step goes back in time
            st.sampled_from(["s1", "s2", "s3"]),
            st.sampled_from(_INGEST_PREFIXES),
            st.sampled_from([None, None, (100, 200), (100, 100, 200), (100, 300), (7,)]),
        ),
        max_size=30,
    ),
    st.sampled_from([None, {"s1": 65001}]),
)
def test_ingest_matches_the_per_update_replay(steps, local_as):
    t, stream = 0.0, []
    for step, session, prefix, path in steps:
        t += step
        stream.append(
            withdraw(t, session, prefix) if path is None else announce(t, session, prefix, path)
        )
    expected = oracle_ingest(stream, RELAYS, local_as)
    ribs = ingest(table_of(stream), INDEX, local_as)
    assert list(ribs) == list(expected)
    for sid, rib in ribs.items():
        assert rib.session == expected[sid].session
        assert rib.live == expected[sid].live
        assert rib.history == expected[sid].history
        assert rib_entries(rib) == rib_entries(expected[sid])
