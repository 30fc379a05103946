"""Tests for the shared domain types and longest-prefix matching."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    AsPath, BucketTable, circuit_axes, covers_any, is_more_specific_of, merge_intervals,
)
from routelens.core import (
    InputError,
    IpPrefix,
    PrefixTable,
    RelayDescriptor,
    RelayIndex,
    csv_records,
    int_to_ip,
    ip_to_int,
    ip_to_int_many,
    load_prefix_origins,
    load_relays,
    merge_intervals_grouped,
    read_json,
    reading,
    write_relays,
)

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.integers(min_value=0, max_value=32)


def linear_scan_match(entries, address):
    """Independent oracle: scan every entry, keep the longest covering one."""
    best = None
    for prefix, payload in entries:
        if prefix.covers(address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, payload)
    return None if best is None else best[1]


def test_ip_roundtrip():
    for text in ("0.0.0.0", "10.1.2.3", "255.255.255.255", "198.245.63.228"):
        assert int_to_ip(ip_to_int(text)) == text
    with pytest.raises(ValueError):
        ip_to_int("10.0.0")
    with pytest.raises(ValueError):
        ip_to_int("10.0.0.256")


@pytest.mark.parametrize("text", ["+203.0.0.1", "2_03.0.0.1", "\u0662\u0660\u0663.0.0.1", "1 .2.3.4"])
def test_ip_to_int_rejects_what_int_alone_would_take(text):
    with pytest.raises(ValueError):
        ip_to_int(text)
    with pytest.raises(ValueError):
        ip_to_int_many(["10.0.0.1", text])


def test_ip_to_int_keeps_surrounding_whitespace_and_leading_zeros():
    for text in (" 203.0.0.1\t", "203.000.0.001", "0203.0.0.0001"):
        assert ip_to_int(text) == ip_to_int("203.0.0.1")
    assert ip_to_int_many([" 203.0.0.1\t", "203.000.0.001", "203.0.0.1"]).tolist() == [
        ip_to_int("203.0.0.1")
    ] * 3


def _scalar_or_error(text):
    try:
        return ip_to_int(text)
    except ValueError:
        return ValueError


_QUAD_ALPHABET = "0123456789. +_*\u0663"
_OCTETS = st.text("0123456789", max_size=4) | st.sampled_from(["255", "256", "0", "00", "+1", "\u0663"])
quad_like = (
    st.text(_QUAD_ALPHABET, max_size=18)
    | st.lists(_OCTETS, min_size=3, max_size=5).map(".".join)
    | st.tuples(st.sampled_from(["", " ", "*"]), addresses.map(int_to_ip), st.sampled_from(["", " ", "."]))
    .map("".join)
)


def _batch_or_error(texts):
    try:
        return ip_to_int_many(texts).tolist()
    except ValueError:
        return ValueError


@settings(max_examples=300)
@given(st.lists(quad_like, max_size=8))
@example(["1234.0.0.1", "0001.0.0.1", "256.0.0.1", "1..2.3", ".1.2.3", "1.2.3.", "1.2.3.4.5"])
@example(["255.255.255.255", "0.0.0.0", "9.99.199.255", "255.255.255.2555", ""])
def test_batch_parser_agrees_with_ip_to_int(texts):
    """ip_to_int_many and ip_to_int accept the same texts with the same
    values; a batch holding any rejected text is rejected."""
    expected = [_scalar_or_error(text) for text in texts]
    for text, value in zip(texts, expected):
        assert _batch_or_error([text]) == (ValueError if value is ValueError else [value])
    assert _batch_or_error(texts) == (ValueError if ValueError in expected else expected)


def test_prefix_covers_examples():
    assert IpPrefix.parse("10.0.0.0/8").covers(ip_to_int("10.1.2.3"))
    assert not IpPrefix.parse("10.0.0.0/8").covers(ip_to_int("11.0.0.1"))
    default = IpPrefix.parse("0.0.0.0/0")
    for addr in (0, 1, ip_to_int("192.0.2.1"), 0xFFFFFFFF):
        assert default.covers(addr)


@given(addresses, lengths)
def test_prefix_normalization_idempotent(base, length):
    once = IpPrefix(base, length)
    twice = IpPrefix(once.base, once.length)
    assert once == twice
    assert once.base & ~(0 if length == 0 else (0xFFFFFFFF << (32 - length))) & 0xFFFFFFFF == 0


@given(addresses, lengths)
def test_prefix_covers_own_range(base, length):
    prefix = IpPrefix(base, length)
    assert prefix.covers(prefix.base)
    assert prefix.covers(prefix.last_address)
    if prefix.last_address < 0xFFFFFFFF:
        assert not prefix.covers(prefix.last_address + 1)
    if prefix.base > 0:
        assert not prefix.covers(prefix.base - 1)


def test_is_more_specific_of():
    assert is_more_specific_of(
        IpPrefix.parse("184.164.0.0/24"), IpPrefix.parse("184.164.0.0/23")
    )
    assert not is_more_specific_of(
        IpPrefix.parse("184.164.0.0/23"), IpPrefix.parse("184.164.0.0/23")
    )
    assert is_more_specific_of(IpPrefix.parse("10.1.0.0/24"), IpPrefix.parse("10.0.0.0/15"))
    # 10.0.0.0/15 ends at 10.1.255.255, so 10.2.0.0/24 lies outside it
    assert not is_more_specific_of(IpPrefix.parse("10.2.0.0/24"), IpPrefix.parse("10.0.0.0/15"))
    # disjoint prefixes are never more specific of each other
    assert not is_more_specific_of(IpPrefix.parse("11.0.0.0/24"), IpPrefix.parse("10.0.0.0/8"))


def test_most_specific_match_prefers_longer():
    table = PrefixTable()
    table.insert(IpPrefix.parse("10.0.0.0/8"), "A")
    table.insert(IpPrefix.parse("10.1.0.0/16"), "B")
    table.freeze()
    found = table.lookup_many([ip_to_int(a) for a in ("10.1.2.3", "10.2.2.3", "192.0.2.1")])
    assert [table.entries()[i][1] if i >= 0 else None for i in found.tolist()] == ["B", "A", None]


@pytest.mark.parametrize(
    "text",
    ["203.0.0.0/+16", "203.0.0.0/1_6", "203.0.0.0/\u0661\u0666", "203.0.0.0/ 16", "203.0.0.0/016",
     "203.0.0.0/", "203.0.0.0", "203.0.0.0/33"],
    ids=["signed", "underscore", "non-ascii-digits", "inner-space", "three-digits", "empty",
         "no-length", "too-long"],
)
def test_prefix_length_is_one_or_two_ascii_digits(text):
    with pytest.raises(ValueError):
        IpPrefix.parse(text)


def test_prefix_length_grammar_accepts_the_plain_spellings():
    assert IpPrefix.parse(" 203.0.0.0/16\n") == IpPrefix(ip_to_int("203.0.0.0"), 16)
    assert IpPrefix.parse("10.0.0.0/08") == IpPrefix.parse("10.0.0.0/8")


def test_most_specific_match_against_linear_scan_oracle():
    rng = random.Random(7)
    table = PrefixTable()
    entries = []
    seen = set()
    while len(entries) < 1000:
        base = rng.randrange(0, 2**32) & 0xFFFFFF00
        if base in seen:
            continue
        seen.add(base)
        prefix = IpPrefix(base, 24)
        table.insert(prefix, len(entries))
        entries.append((prefix, len(entries)))
    # a few nested shorter prefixes to exercise length ordering
    for i, text in enumerate(["10.0.0.0/8", "10.32.0.0/11", "0.0.0.0/0"]):
        prefix = IpPrefix.parse(text)
        table.insert(prefix, 10_000 + i)
        entries.append((prefix, 10_000 + i))
    table.freeze()
    probes = [rng.randrange(0, 2**32) for _ in range(10_000)]
    listed = table.entries()
    for addr, index in zip(probes, table.lookup_many(probes).tolist()):
        assert (listed[index][1] if index >= 0 else None) == linear_scan_match(entries, addr)


def _nested_prefixes():
    """Prefixes at lengths 0, 1, 8, 16, 24, 31 and 32, some followed by the
    adjacent prefix of the same length (the next range up)."""
    one = st.tuples(addresses, st.sampled_from([0, 1, 8, 16, 24, 31, 32]), st.booleans())
    return st.lists(one, min_size=1, max_size=20)


@settings(max_examples=150)
@given(_nested_prefixes(), st.lists(addresses, max_size=10))
def test_lookup_many_matches_linear_scan(items, extra_probes):
    table = PrefixTable()
    entries = {}
    for index, (base, length, with_neighbour) in enumerate(items):
        prefix = IpPrefix(base, length)
        added = [prefix]
        if with_neighbour and prefix.last_address < 0xFFFFFFFF:
            added.append(IpPrefix(prefix.last_address + 1, length))
        for each in added:
            table.insert(each, index)
            entries[each] = index
    with pytest.raises(RuntimeError):
        table.lookup_many([0])
    table.freeze()
    probes = extra_probes + [0, 0xFFFFFFFF]
    for prefix in entries:
        probes += [prefix.base, prefix.last_address]
        probes += [a for a in (prefix.base - 1, prefix.last_address + 1) if 0 <= a <= 0xFFFFFFFF]
    found = table.lookup_many(np.array(probes, dtype=np.int64))
    assert found.dtype == np.int64
    listed = table.entries()
    assert list(listed) == sorted(entries.items())
    oracle = BucketTable(entries.items())
    for address, index in zip(probes, found.tolist()):
        expected = linear_scan_match(entries.items(), address)
        assert (None if index < 0 else listed[index][1]) == expected
        assert (None if index < 0 else listed[index]) == next(oracle.covering(address), None)


def test_lookup_many_on_empty_table_and_empty_input():
    table = PrefixTable().freeze()
    assert table.lookup_many([0, 0xFFFFFFFF]).tolist() == [-1, -1]
    assert [a.tolist() for a in table.covering_many([0, 0xFFFFFFFF])] == [[], []]
    table = PrefixTable()
    table.insert(IpPrefix.parse("0.0.0.0/0"), "all")
    with pytest.raises(RuntimeError):
        table.covering_many([0])
    table.freeze()
    assert table.lookup_many(np.array([], dtype=np.int64)).tolist() == []
    assert [a.tolist() for a in table.covering_many([])] == [[], []]
    assert table.lookup_many([0, 0xFFFFFFFF]).tolist() == [0, 0]


def test_freeze_blocks_mutation():
    table = PrefixTable()
    table.insert(IpPrefix.parse("10.0.0.0/8"), 1)
    table.freeze()
    with pytest.raises(RuntimeError):
        table.insert(IpPrefix.parse("11.0.0.0/8"), 2)
    assert table.entries() == ((IpPrefix.parse("10.0.0.0/8"), 1),)
    assert table.lookup_many([ip_to_int("10.5.5.5"), ip_to_int("11.5.5.5")]).tolist() == [0, -1]


def _table_items():
    """(prefix, payload) inserts: nested prefixes at lengths 0, 1, 8, 16, 24,
    31 and 32 from a few bases, so prefixes repeat and are re-inserted."""
    bases = st.sampled_from([0, 0x0A000000, 0x0A010000, 0x0A0100FF, 0x0A010100, 0xFFFFFFFF])
    one = st.tuples(bases | addresses, st.sampled_from([0, 1, 8, 16, 24, 31, 32]))
    return st.lists(one, max_size=25)


@settings(max_examples=200)
@given(_table_items(), st.lists(addresses, max_size=5))
def test_covering_many_and_lookup_many_match_bucket_oracle(items, extra_probes):
    """Every cover of every probe, longest first, and the most specific one
    agree with the bucket table; the last payload of a re-inserted prefix wins."""
    table, oracle = PrefixTable(), BucketTable()
    for payload, (base, length) in enumerate(items):
        prefix = IpPrefix(base, length)
        table.insert(prefix, payload)
        oracle.insert(prefix, payload)
    table.freeze()
    listed = table.entries()
    assert len(table) == len(listed) == len({IpPrefix(b, n) for b, n in items})
    probes = extra_probes + [0, 0xFFFFFFFF]
    for prefix, _ in listed:
        probes += [prefix.base, prefix.last_address]
        probes += [a for a in (prefix.base - 1, prefix.last_address + 1) if 0 <= a <= 0xFFFFFFFF]
    at, found = table.covering_many(np.array(probes, dtype=np.int64))
    assert at.dtype == found.dtype == np.int64
    covers = [[] for _ in probes]
    for position, index in zip(at.tolist(), found.tolist()):
        covers[position].append(listed[index])
    assert covers == [list(oracle.covering(address)) for address in probes]
    most_specific = table.lookup_many(probes).tolist()
    assert most_specific == [
        listed.index(covering[0]) if covering else -1 for covering in covers
    ]


def test_as_path_collapses_prepends():
    path = AsPath((3356, 3356, 3356, 16276))
    assert path.ases == (3356, 16276)
    assert path.origin == 16276
    assert 3356 in path and 1 not in path
    assert AsPath.parse("7018 3356 3356 24940").ases == (7018, 3356, 24940)
    with pytest.raises(ValueError):
        AsPath(())


def test_relay_roles_and_csv_roundtrip(tmp_path):
    relays = [
        RelayDescriptor(ip_to_int("198.245.63.228"), True, False, 120.5, "montreal"),
        RelayDescriptor(ip_to_int("5.9.0.1"), False, True, 80.0, "ex"),
        RelayDescriptor(ip_to_int("5.9.0.2"), True, True, 10.0, "dual"),
    ]
    path = tmp_path / "relays.csv"
    write_relays(path, relays)
    assert load_relays(path) == relays


def test_relay_index_coverage():
    relays = [
        RelayDescriptor(ip_to_int("10.0.1.5"), True, False, 1.0, "g"),
        RelayDescriptor(ip_to_int("10.0.2.9"), False, True, 1.0, "e"),
        RelayDescriptor(ip_to_int("192.0.2.1"), True, True, 1.0, "b"),
    ]
    index = RelayIndex(relays)
    both = index.covered_by(IpPrefix.parse("10.0.0.0/16"))
    assert [r.nickname for r in both] == ["g", "e"]
    assert covers_any(index, IpPrefix.parse("192.0.2.0/24"))
    assert not covers_any(index, IpPrefix.parse("203.0.113.0/24"))


def _chained_spans_oracle(spans, gap):
    """Components of the overlap graph of [start, end + gap], by union-find."""
    parent = list(range(len(spans)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, (s1, e1) in enumerate(spans):
        for j, (s2, e2) in enumerate(spans):
            if s1 <= e2 + gap and s2 <= e1 + gap:
                parent[root(i)] = root(j)
    groups = {}
    for i, span in enumerate(spans):
        groups.setdefault(root(i), []).append(span)
    return sorted(
        (min(s for s, _ in group), max(e for _, e in group)) for group in groups.values()
    )


@given(
    st.lists(st.tuples(st.integers(0, 60), st.integers(0, 8)), max_size=25),
    st.sampled_from([0.0, 1.0, 3.5]),
)
def test_merge_intervals_against_component_oracle(raw, gap):
    spans = [(float(start), float(start + width)) for start, width in raw]
    merged = merge_intervals(spans, gap=gap)
    assert merged == _chained_spans_oracle(spans, gap)
    for (_, end), (start, _) in zip(merged, merged[1:]):
        assert start > end + gap


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(-5, 60), st.sampled_from([0, 0.5, 1, 7.25])),
        max_size=30,
    ),
    st.sampled_from([0.0, 0.5, 1.0, 3.5, 3600.0]),
)
def test_grouped_merge_is_merge_intervals_per_group(raw, gap):
    group = np.array([g for g, _, _ in raw], dtype=np.int64)
    start = np.array([float(s) for _, s, _ in raw])
    end = start + np.array([float(w) for _, _, w in raw])
    expected = [
        (g, s, e)
        for g in sorted(set(group.tolist()))
        for s, e in merge_intervals(
            zip(start[group == g].tolist(), end[group == g].tolist()), gap=gap
        )
    ]
    merged = merge_intervals_grouped(group, start, end, gap=gap)
    assert list(zip(*(column.tolist() for column in merged))) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.builds(
        RelayDescriptor, st.integers(0, 7) | addresses, st.booleans(), st.booleans(),
        st.just(1.0), st.sampled_from("abc"),
    ),
    max_size=12,
))
def test_relay_index_columns_match_the_per_descriptor_axes(relays):
    """Duplicate addresses (the small ones), dual-flagged and unflagged relays."""
    index = RelayIndex(relays)
    guards, exits = circuit_axes(relays)
    assert np.array_equal(index.guards, guards) and np.array_equal(index.exits, exits)
    assert index.guards.dtype == index.exits.dtype == np.int64
    assert index.relays == sorted(relays, key=lambda r: r.address)
    assert index.addresses.tolist() == [r.address for r in index.relays]
    assert index.is_guard.tolist() == [r.is_guard for r in index.relays]
    assert index.is_exit.tolist() == [r.is_exit for r in index.relays]
    admitted = index.admitted()
    assert admitted.relays == [r for r in index.relays if r.is_guard or r.is_exit]
    assert np.array_equal(admitted.guards, guards) and np.array_equal(admitted.exits, exits)


@pytest.mark.parametrize(
    "text",
    ["prefix,asn\n10.0.0.0/24,64500\n", "# origins\n\nprefix,asn\n10.0.0.0/24,64500\n",
     "10.0.0.0/24,64500\n", "# origins\n10.0.0.0/24,64500\n"],
    ids=["header", "comment-then-header", "headerless", "comment-then-data"],
)
def test_prefix_origins_header_is_optional_and_may_follow_comments(tmp_path, text):
    path = tmp_path / "origins.csv"
    path.write_text(text)
    assert load_prefix_origins(path).entries() == ((IpPrefix.parse("10.0.0.0/24"), 64500),)


def test_load_relays_names_file_and_line(tmp_path):
    path = tmp_path / "relays.csv"
    path.write_text("address,is_guard,is_exit,bandwidth,nickname\n10.0.0.300,1,0,5.0,g\n")
    with pytest.raises(ValueError, match=r"relays\.csv:2: "):
        load_relays(path)


# --- the input boundary ------------------------------------------------------------


def test_reading_names_each_unusable_file(tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.csv").write_bytes(b"caf\xe9\n")
    for name, message in [
        ("absent.csv", "relay list not found: "),
        ("dir", "relay list is a directory: "),
        ("latin1.csv", "latin1.csv: relay list is not UTF-8 text"),
    ]:
        with pytest.raises(InputError, match=message):
            with reading(tmp_path / name, "relay list") as handle:
                handle.read()


def test_read_json_reports_syntax_errors_at_their_line(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1,\n "b": ]}')
    with pytest.raises(InputError, match=r"doc\.json:2: not JSON"):
        read_json(path, "document")
    path.write_text("[" * 100_000)
    with pytest.raises(InputError, match=r"doc\.json:1: not JSON"):
        read_json(path, "document")


def test_csv_records_reports_file_lines_past_comments(tmp_path):
    path = tmp_path / "pairs.csv"
    convert = lambda row: (row["key"], int(row["value"]))  # noqa: E731
    path.write_text("# comment\nkey,value\n# another\na,1\nb,2\n")
    assert csv_records(path, "pair list", ("key", "value"), convert) == [("a", 1), ("b", 2)]
    path.write_text("# comment\nkey\na\n")
    with pytest.raises(InputError, match=r"pairs\.csv:2: pair list header lacks value"):
        csv_records(path, "pair list", ("key", "value"), convert)
    path.write_text("key,value\n# skipped\na,1\nb,two\n")
    with pytest.raises(InputError, match=r"pairs\.csv:4: bad pair row: invalid literal"):
        csv_records(path, "pair list", ("key", "value"), convert)
    path.write_text("key,value\na\n")
    with pytest.raises(InputError, match=r"pairs\.csv:2: bad pair row: too few fields"):
        csv_records(path, "pair list", ("key", "value"), convert)
    path.write_text("# nothing but a comment\n")
    assert csv_records(path, "pair list", ("key", "value"), convert) == []
