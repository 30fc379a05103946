"""Tests for traceroute resolution and path-asymmetry vulnerability."""

import json
import random

import numpy as np
import pytest
from helpers import (
    MissingPathError,
    VulnerabilityMode,
    endpoint_ases,
    oracle_load_traceroutes,
    oracle_resolve_traceroute,
    oracle_vulnerability_timeseries,
    table_rows,
    vulnerable,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from routelens import textcols
from routelens.core import InputError, IpPrefix, PrefixTable, int_to_ip
from routelens.paths import (
    AsLevelPath,
    EmptyPathError,
    PathDataset,
    PathRole,
    PathTable,
    load_traceroutes,
    resolve_traceroute,
    vulnerability_timeseries,
)

P1, P2, P3, P4 = (
    PathRole.P1_CLIENT_TO_GUARD,
    PathRole.P2_GUARD_TO_CLIENT,
    PathRole.P3_EXIT_TO_DEST,
    PathRole.P4_DEST_TO_EXIT,
)


def mapping_table(entries):
    table = PrefixTable()
    for text, asn in entries.items():
        table.insert(IpPrefix.parse(text), asn)
    return table.freeze()


MAPPING = mapping_table(
    {
        "203.0.0.0/16": 100,
        "203.1.0.0/16": 200,
        "203.2.0.0/16": 300,
        "198.51.100.0/24": 400,
    }
)


def path(role, ases, probe="p", target="t", day="d01", gap=False):
    return AsLevelPath(probe, target, role, day, tuple(ases), gap)


# --- resolve_traceroute -------------------------------------------------------


def test_consecutive_duplicate_ases_collapse():
    hops = ["203.0.0.1", "203.0.5.2", "203.1.0.9"]
    ases, gap = resolve_traceroute(hops, MAPPING)
    assert ases == (100, 200)
    assert not gap


def test_unmapped_hop_sets_gap_and_is_omitted():
    ases, gap = resolve_traceroute(["203.0.0.1", "8.8.8.8", "203.1.0.9"], MAPPING)
    assert ases == (100, 200)
    assert gap


def test_timeout_hop_sets_gap():
    ases, gap = resolve_traceroute(["203.0.0.1", "*", "203.1.0.9"], MAPPING)
    assert ases == (100, 200)
    assert gap


def test_private_hops_omitted_silently():
    ases, gap = resolve_traceroute(["192.168.1.1", "203.0.0.1", "203.1.0.9"], MAPPING)
    assert ases == (100, 200)
    assert not gap


def test_empty_hops_rejected():
    with pytest.raises(EmptyPathError):
        resolve_traceroute([], MAPPING)


def test_nonadjacent_repeat_deduplicated():
    hops = ["203.0.0.1", "203.1.0.1", "203.0.9.9"]
    ases, _ = resolve_traceroute(hops, MAPPING)
    assert ases == (100, 200)


def test_load_traceroutes_jsonl(tmp_path):
    records = [
        {"probe": "c0", "target": "g0", "role": "P1", "day": "d01", "hops": ["203.0.0.1"]},
        {"probe": "g0", "target": "c0", "role": "p2", "day": "d01", "hops": ["203.1.0.1", "*"]},
    ]
    file = tmp_path / "traces.jsonl"
    file.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    loaded = table_rows(load_traceroutes(file, MAPPING))
    assert loaded[0].role is P1 and loaded[0].ases == (100,)
    assert loaded[1].role is P2 and loaded[1].gap


# nested and repeated origins: 203.0.128.0/17 sits inside AS 100's /16 but
# belongs to AS 200, which also owns 203.1.0.0/16
NESTED = mapping_table(
    {"203.0.0.0/16": 100, "203.0.128.0/17": 200, "203.1.0.0/16": 200, "198.51.100.0/24": 400}
)
hop_texts = st.one_of(
    st.sampled_from([
        "*", "203.0.0.1", "203.0.200.9", "203.1.7.7", "198.51.100.255", "203.000.0.01",
        " 203.1.0.1", "192.168.1.1", "10.0.0.1", "169.254.3.3", "8.8.8.8", "203.2.0.1",
    ]),
    st.integers(0, 0xFFFFFFFF).map(int_to_ip),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(hop_texts, min_size=1, max_size=8), min_size=1, max_size=9),
       st.booleans())
def test_loader_matches_per_hop_oracle(tmp_path_factory, hop_lists, sort_keys):
    """Timeouts, private, unmapped, repeated and nested-origin hops resolve
    as the per-hop loop does, on the byte-column path (keys sorted) and
    through json.loads."""
    file = tmp_path_factory.mktemp("traces") / "traces.jsonl"
    file.write_text("".join(
        json.dumps({"probe": f"c{i}", "target": "g0", "role": "P1", "day": "d01", "hops": hops},
                   sort_keys=sort_keys) + "\n"
        for i, hops in enumerate(hop_lists)
    ))
    loaded = table_rows(load_traceroutes(file, NESTED))
    assert [(p.ases, p.gap) for p in loaded] == [
        oracle_resolve_traceroute(hops, NESTED) for hops in hop_lists
    ]
    assert [resolve_traceroute(hops, NESTED) for hops in hop_lists] == [
        (p.ases, p.gap) for p in loaded
    ]


def test_loader_reports_a_bad_hop_before_a_later_bad_line(tmp_path):
    good = {"probe": "c0", "target": "g0", "role": "P1", "day": "d01", "hops": ["203.0.0.1"]}
    lines = [json.dumps(good)] * 5 + [json.dumps({**good, "hops": ["203.0.0.1", "1.2.3"]}),
                                      "not json {"]
    file = tmp_path / "traces.jsonl"
    file.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=r"traces\.jsonl:6: .*not a dotted quad"):
        load_traceroutes(file, MAPPING)


# strings json.dumps writes as themselves, thrice as likely as those it escapes or that are not ASCII
names = st.sampled_from(["c0", "g1", "", "e-1", "d 0", "x'y"] * 3
                        + ["é", "c\"0", "c\\0", "\u2028", "g1\t"])
days = st.sampled_from(["d01", "d1", "2015-01-02"] * 3 + ["day é", "d\\1", "\ud800"])
roles = st.sampled_from(["P1", "P2", "P3", "P4", "p1", "p2", "p3", "p4"])
hop_lists = st.lists(hop_texts, min_size=1, max_size=6)
# a record that some rule refuses: each one is reported at its line
bad_records = st.one_of(
    st.tuples(st.sampled_from(["probe", "target", "day"]), st.sampled_from([1, None, ["d"], 2.5])),
    st.tuples(st.just("role"), st.sampled_from(["P5", "", 1, None])),
    st.tuples(st.just("hops"), st.sampled_from([[], "*", ["203.0.0.1", 7], ["1.2.3"],
                                                ["203.0.0.256"], [" 8.8.8.8 x"]])),
    st.tuples(st.sampled_from(["probe", "hops", "role"]), st.just(KeyError)),
)


@st.composite
def traceroute_lines(draw):
    """One line of a traceroute file: a record in the fast shape or in
    another spelling (key order, spacing, escapes, surrounding blanks), a
    fast-shape line with one character replaced, a blank line, or rarely
    a record that fails a rule or is not JSON."""
    kind = draw(st.sampled_from(["fast"] * 10 + ["other"] * 6 + ["blank", "bad", "corrupt"] * 2))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t", "\x0c", "\u3000"]))
    record = {"day": draw(days), "hops": draw(hop_lists), "probe": draw(names),
              "role": draw(roles), "target": draw(names)}
    if kind == "bad":
        if draw(st.booleans()):
            return draw(st.sampled_from(["not json {", "[1, 2]", '"text"', "{}", "[" * 3000]))
        key, value = draw(bad_records)
        if value is KeyError:
            del record[key]
        else:
            record[key] = value
    if kind == "fast":
        return json.dumps(record, sort_keys=True)
    if kind == "corrupt":
        text = json.dumps(record, sort_keys=True)
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.sampled_from(' ,:"[]{}\\x1.*p5')) + text[at + 1:]
    items = draw(st.permutations(list(record.items())))
    # a lone surrogate is UTF-8 text only as an escape
    text = json.dumps(dict(items), ensure_ascii=draw(st.booleans()) or record["day"] == "\ud800",
                      separators=draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,", " : ")])))
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "\xa0"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(traceroute_lines(), max_size=12),
       st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
       st.booleans(), st.sampled_from([1, 2, 5, 4096]))
def test_loader_matches_line_oracle(tmp_path_factory, lines, breaks, last_break, block):
    """Any mix of fast-shape and other lines, under any line breaks, loads
    to the rows the per-line loader reads, or fails with its message,
    whichever lines share a block; the dataset of the table equals the
    dataset of those rows."""
    text = "".join(line + end for line, end in zip(lines, breaks))
    if lines and not last_break:
        text = text[:-len(breaks[len(lines) - 1])]
    file = tmp_path_factory.mktemp("traces") / "traces.jsonl"
    file.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textcols, "_BLOCK_LINES", block)
        assert_loads_as_oracle(file)


def assert_loads_as_oracle(file):
    try:
        expected = oracle_load_traceroutes(file, NESTED)
    except InputError as exc:
        with pytest.raises(InputError) as raised:
            load_traceroutes(file, NESTED)
        assert str(raised.value) == str(exc)
        return
    table = load_traceroutes(file, NESTED)
    assert table_rows(table) == expected
    assert len(table) == len(expected)
    by_table, by_rows = PathDataset(table), PathDataset(PathTable.of(expected))
    for name, value in vars(by_rows).items():
        other = vars(by_table)[name]
        if isinstance(value, dict):
            assert value.keys() == other.keys()
            assert all(np.array_equal(value[k], other[k]) for k in value), name
        else:
            assert np.array_equal(value, other) if isinstance(value, np.ndarray) else value == other, name


def test_every_one_character_change_of_a_fast_line_reads_as_json_does(tmp_path):
    """Each character of a fast-shape line, replaced by each of a few
    others, reads to the per-line loader's rows or fails with its message:
    the byte-column reader takes no line that json.loads would refuse."""
    line = json.dumps({"day": "d01", "hops": ["203.0.0.1", "*", "192.168.1.1", "8.8.8.8"],
                       "probe": "c0", "role": "P1", "target": "g0"}, sort_keys=True)
    file = tmp_path / "traces.jsonl"
    for at in range(len(line)):
        for char in ' ,:"[]{}\\x1.*p5\t':
            file.write_text(line[:at] + char + line[at + 1:] + "\n")
            assert_loads_as_oracle(file)


def test_a_file_that_is_not_utf8_fails_before_any_record(tmp_path, monkeypatch):
    """The whole file is checked first, as the update reader checks it: a
    bad record in an early block does not hide a bad byte in a later one."""
    monkeypatch.setattr(textcols, "_BLOCK_LINES", 1)
    file = tmp_path / "traces.jsonl"
    file.write_bytes(b"not json {\n" + b'{"day": "d\xff"}\n')
    with pytest.raises(InputError, match="traceroute file is not UTF-8 text"):
        load_traceroutes(file, NESTED)


def test_names_and_days_sort_across_both_readers(tmp_path):
    """A name or day read by json.loads sorts among those read by columns."""
    fast = {"day": "d2", "hops": ["203.0.0.1"], "probe": "c0", "role": "P1", "target": "g0"}
    slow = {**fast, "day": "d1\u00e9", "probe": "c\"0", "target": "a\\"}
    file = tmp_path / "traces.jsonl"
    file.write_text(json.dumps(fast, sort_keys=True) + "\n" + json.dumps(slow, sort_keys=True) + "\n")
    table = load_traceroutes(file, NESTED)
    assert table.names == ["a\\", "c\"0", "c0", "g0"] and table.days == ["d1\u00e9", "d2"]
    assert_loads_as_oracle(file)


def test_table_of_rows_round_trips():
    rows = [path(P1, [5, 3], probe="c1", target="g0", day="d02", gap=True),
            path(P2, [], probe="g0", target="c1"), path(P3, [7], probe="é", target="d", day="d01")]
    table = PathTable.of(rows)
    assert table.names == ["c1", "d", "g0", "é"] and table.days == ["d01", "d02"]
    assert table_rows(table) == rows


# --- vulnerable ---------------------------------------------------------------


def quad_paths(p1, p2, p3, p4):
    return {P1: path(P1, p1), P2: path(P2, p2), P3: path(P3, p3), P4: path(P4, p4)}


def test_asymmetric_only_case():
    # the common AS sits on P1 and P4 only: invisible to the symmetric view
    paths = quad_paths([1, 5, 2], [3, 4], [6, 7], [8, 5, 9])
    sym, sym_witness = vulnerable(paths, VulnerabilityMode.SYMMETRIC)
    asym, witness = vulnerable(paths, VulnerabilityMode.ASYMMETRIC)
    assert not sym and sym_witness == frozenset()
    assert asym and witness == frozenset({5})


def test_disjoint_paths_safe_both_modes():
    paths = quad_paths([1, 2], [3, 4], [5, 6], [7, 8])
    assert vulnerable(paths, VulnerabilityMode.SYMMETRIC)[0] is False
    assert vulnerable(paths, VulnerabilityMode.ASYMMETRIC)[0] is False


def test_shared_on_p1_p3_hits_both_modes():
    paths = quad_paths([1, 9], [2], [9, 3], [4])
    assert vulnerable(paths, VulnerabilityMode.SYMMETRIC) == (True, frozenset({9}))
    assert vulnerable(paths, VulnerabilityMode.ASYMMETRIC)[0] is True


def test_exclusions_remove_witnesses():
    paths = quad_paths([1, 9], [2], [9, 3], [4])
    assert vulnerable(paths, VulnerabilityMode.SYMMETRIC, frozenset({9}))[0] is False


def test_missing_path_raises():
    paths = quad_paths([1], [2], [3], [4])
    del paths[P4]
    assert vulnerable(paths, VulnerabilityMode.SYMMETRIC)[0] is False
    with pytest.raises(MissingPathError):
        vulnerable(paths, VulnerabilityMode.ASYMMETRIC)


def test_symmetric_subset_of_asymmetric_randomized():
    rng = random.Random(17)
    for _ in range(300):
        lists = [[rng.randint(1, 12) for _ in range(rng.randint(1, 5))] for _ in range(4)]
        paths = quad_paths(*lists)
        sym, _ = vulnerable(paths, VulnerabilityMode.SYMMETRIC)
        asym, _ = vulnerable(paths, VulnerabilityMode.ASYMMETRIC)
        assert not sym or asym


def test_vulnerable_uses_set_semantics():
    forward = quad_paths([1, 5, 2], [3], [2, 9], [4])
    reordered = quad_paths([2, 5, 1], [3], [9, 2], [4])
    assert (
        vulnerable(forward, VulnerabilityMode.ASYMMETRIC)
        == vulnerable(reordered, VulnerabilityMode.ASYMMETRIC)
    )


def test_endpoint_ases_helper():
    paths = quad_paths([1, 5], [2, 6], [3, 7], [4, 8])
    assert endpoint_ases(paths) == frozenset({1, 2, 3, 4})


def test_endpoint_exclusion_flag_discounts_own_ases():
    # the only shared AS is the client's own AS 1 appearing on P3
    records = [
        path(P1, [1, 5], probe="c0", target="g0"),
        path(P2, [2, 6], probe="g0", target="c0"),
        path(P3, [3, 1], probe="e0", target="d0"),
        path(P4, [4, 8], probe="d0", target="e0"),
    ]
    dataset = PathDataset(PathTable.of(records))
    default = vulnerability_timeseries(dataset)
    excluded = vulnerability_timeseries(dataset, exclude_endpoint_ases=True)
    assert default[0].pct_asymmetric == 100.0
    assert excluded[0].pct_asymmetric == 0.0


# --- timeseries ---------------------------------------------------------------


def _grid_dataset():
    """2 clients x 2 guards x 2 exits x 2 dests = 16 quads on one day.

    Quads with client c0 and exit e0 share AS 77 on P1/P3 (symmetric, 4
    quads); quads with client c1 and dest d1 share AS 88 on P1/P4 only
    (asymmetric-only, 4 quads).
    """
    paths = []
    for c in ("c0", "c1"):
        for g in ("g0", "g1"):
            p1 = [10, 77] if c == "c0" else [11, 88]
            paths.append(AsLevelPath(c, g, P1, "d01", tuple(p1), False))
            paths.append(AsLevelPath(g, c, P2, "d01", (20,), False))
    for e in ("e0", "e1"):
        for d in ("d0", "d1"):
            p3 = [30, 77] if e == "e0" else [31]
            p4 = [40, 88] if d == "d1" else [41]
            paths.append(AsLevelPath(e, d, P3, "d01", tuple(p3), False))
            paths.append(AsLevelPath(d, e, P4, "d01", tuple(p4), False))
    return PathDataset(PathTable.of(paths))


def test_single_day_counting():
    dataset = _grid_dataset()
    rows = vulnerability_timeseries(dataset)
    assert len(rows) == 1
    row = rows[0]
    assert row.n_quads == 16
    # c0 quads meeting e0: 1 client x 2 guards x 1 exit x 2 dests = 4 symmetric
    assert row.pct_symmetric_day1 == pytest.approx(100.0 * 4 / 16)
    # plus c1/d1 quads: another 4, asymmetric only
    assert row.pct_asymmetric == pytest.approx(100.0 * 8 / 16)
    assert row.pct_asymmetric_cumulative == pytest.approx(100.0 * 8 / 16)


def test_generated_mesh_reproduces_reference_shape():
    """Calibrated 21-day mesh: day-one symmetric ~12.8%, asymmetric ~21.3%,
    and the cumulative asymmetric series pulls clearly ahead by day 21."""
    from routelens.simulate import PathScenario, gen_traceroute_paths

    rows = vulnerability_timeseries(
        PathDataset(PathTable.of(gen_traceroute_paths(PathScenario(seed=1))))
    )
    assert len(rows) == 21
    first, last = rows[0], rows[-1]
    assert first.pct_symmetric_day1 == pytest.approx(12.8, abs=2.5)
    assert first.pct_asymmetric == pytest.approx(21.3, abs=3.5)
    assert first.pct_asymmetric > first.pct_symmetric_day1
    assert last.pct_asymmetric_cumulative > last.pct_asymmetric
    assert last.pct_asymmetric_cumulative > 26.0
    cumulative = [r.pct_asymmetric_cumulative for r in rows]
    assert cumulative == sorted(cumulative)


def test_cumulative_monotone_and_persistence():
    rng = random.Random(23)
    paths = []
    days = [f"d{i:02d}" for i in range(1, 8)]
    clients, guards, exits, dests = ("c0", "c1"), ("g0",), ("e0", "e1"), ("d0",)
    for day_index, day in enumerate(days):
        for c in clients:
            for g in guards:
                # skip some measurements to exercise persistence
                if day_index > 0 and rng.random() < 0.3:
                    continue
                paths.append(AsLevelPath(c, g, P1, day, (rng.randint(1, 6), rng.randint(1, 6)), False))
                paths.append(AsLevelPath(g, c, P2, day, (rng.randint(1, 6),), False))
        for e in exits:
            for d in dests:
                if day_index > 0 and rng.random() < 0.3:
                    continue
                paths.append(AsLevelPath(e, d, P3, day, (rng.randint(1, 6), rng.randint(1, 6)), False))
                paths.append(AsLevelPath(d, e, P4, day, (rng.randint(1, 6),), False))
    rows = vulnerability_timeseries(PathDataset(PathTable.of(paths)))
    assert [r.day for r in rows] == days
    cumulative = [r.pct_asymmetric_cumulative for r in rows]
    assert cumulative == sorted(cumulative)
    for row in rows:
        assert row.pct_asymmetric_cumulative >= row.pct_asymmetric - 1e-9
        assert row.n_quads == 4
    assert sum(r.n_inherited_paths for r in rows) > 0


@st.composite
def random_meshes(draw):
    """Small meshes whose measurements go missing at random, so some paths
    persist from earlier days, some units are never complete and some
    endpoints appear in one direction only; AS paths may be empty."""
    n_days = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(4)]
    clients, guards, exits, dests = (
        [f"{kind}{i}" for i in range(n)] for kind, n in zip("cged", sizes)
    )
    keys = [(P1, c, g) for c in clients for g in guards]
    keys += [(P2, g, c) for c in clients for g in guards]
    keys += [(P3, e, d) for e in exits for d in dests]
    keys += [(P4, d, e) for e in exits for d in dests]
    paths = []
    for day in range(n_days):
        for role, probe, target in keys:
            if draw(st.booleans()):
                ases = draw(st.lists(st.integers(1, 8), max_size=3))
                paths.append(AsLevelPath(probe, target, role, f"d{day}", tuple(ases), False))
    return paths


@settings(max_examples=200, deadline=None)
@given(random_meshes(), st.booleans())
def test_factored_sweep_matches_per_quad_oracle(paths, exclude_endpoints):
    assert vulnerability_timeseries(
        PathDataset(PathTable.of(paths)), exclude_endpoint_ases=exclude_endpoints
    ) == oracle_vulnerability_timeseries(paths, frozenset(), exclude_endpoints)


@settings(max_examples=100, deadline=None)
@given(random_meshes(), st.data())
def test_a_key_measured_twice_on_a_day_counts_its_last_path(paths, data):
    """Re-measure some (role, probe, target) keys on their own day with
    other ASes: as in the oracle, the later record of a day wins."""
    again = [
        AsLevelPath(p.probe, p.target, p.role, p.day,
                    tuple(data.draw(st.lists(st.integers(1, 8), max_size=3))), False)
        for p in paths if data.draw(st.booleans())
    ]
    mixed = paths + again
    dataset = PathDataset(PathTable.of(mixed))
    assert vulnerability_timeseries(dataset, exclude_endpoint_ases=True) == (
        oracle_vulnerability_timeseries(mixed, frozenset(), True)
    )
