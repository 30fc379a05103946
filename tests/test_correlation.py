"""Tests for byte-progress extraction, Spearman matching, and intervals."""

import math
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routelens import tracefile
from routelens.core import InputError
from routelens.correlation import (
    AccuracyReport,
    ByteProgressSeries,
    ConstantInputError,
    Direction,
    EmptyDirectionError,
    EndpointTrace,
    LengthMismatchError,
    MatchResult,
    PacketTable,
    SignalKind,
    clopper_pearson,
    correlate_all,
    evaluate,
    extract_progress,
    match,
    spearman,
    unwrap_cumulative,
)
from routelens.tracefile import read_trace_jsonl, write_trace_jsonl
from helpers import (
    brute_pick_direction,
    brute_progress_deltas,
    oracle_read_columns,
    oracle_trace_text,
    packet_table,
)

WRAP = 2**32


# --- independent oracles -----------------------------------------------------


def brute_ranks(values):
    """O(n^2) average ranks: 1 + (#smaller) + (#equal - 1)/2."""
    return [
        1 + sum(1 for u in values if u < x) + (sum(1 for u in values if u == x) - 1) / 2
        for x in values
    ]


def brute_spearman(x, y):
    """Pearson of brute-force ranks, computed with explicit sums."""
    rx, ry = brute_ranks(x), brute_ranks(y)
    n = len(x)
    mx, my = sum(rx) / n, sum(ry) / n
    num = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        math.fsum((a - mx) ** 2 for a in rx) * math.fsum((b - my) ** 2 for b in ry)
    )
    return num / den


# --- unwrap ------------------------------------------------------------------


def test_unwrap_no_wrap():
    assert unwrap_cumulative([100, 200, 300]).tolist() == [100, 200, 300]


def test_unwrap_forced_wraparound():
    assert unwrap_cumulative([WRAP - 10, 5]).tolist() == [WRAP - 10, WRAP + 5]
    # a step of exactly half the space counts forward, one more counts back
    assert unwrap_cumulative([0, WRAP // 2]).tolist() == [0, WRAP // 2]
    assert unwrap_cumulative([0, WRAP // 2 + 1]).tolist() == [0, 1 - WRAP // 2]


def test_unwrap_recovers_random_walk():
    rng = random.Random(11)
    walk = [rng.randrange(0, WRAP)]
    for _ in range(5000):
        walk.append(walk[-1] + rng.randrange(0, 2**20))
    reduced = [v % WRAP for v in walk]
    recovered = unwrap_cumulative(reduced).tolist()
    # anchored at the first reduced value, so shift by whole wraps of walk[0]
    shift = walk[0] - reduced[0]
    assert [v + shift for v in recovered] == walk


def test_unwrap_empty_rejected():
    with pytest.raises(ValueError):
        unwrap_cumulative([])


# --- extract_progress --------------------------------------------------------


def _trace(rows, vantage="v0"):
    return EndpointTrace(vantage, packet_table(rows))


def test_extract_data_progress_single_bin():
    trace = _trace(
        [
            (0.1, Direction.TO_RELAY, 1000, 0, 500),
            (0.4, Direction.TO_RELAY, 1500, 0, 500),
        ]
    )
    series = extract_progress(trace, SignalKind.DATA, Direction.TO_RELAY, bin_width=1.0)
    assert series.deltas.tolist() == [1000.0]


def test_extract_ack_progress_with_leading_zero_bin():
    trace = _trace(
        [
            (0.2, Direction.FROM_RELAY, 0, 1000, 0),
            (1.5, Direction.FROM_RELAY, 0, 3000, 0),
        ]
    )
    series = extract_progress(
        trace, SignalKind.ACK, Direction.FROM_RELAY, bin_width=1.0, window=2.0, t0=0.0
    )
    assert series.deltas.tolist() == [0.0, 2000.0]


def test_extract_counts_retransmission_once():
    trace = _trace(
        [
            (0.1, Direction.TO_RELAY, 1000, 0, 500),
            (0.3, Direction.TO_RELAY, 1000, 0, 500),
            (0.5, Direction.TO_RELAY, 1500, 0, 500),
        ]
    )
    series = extract_progress(trace, SignalKind.DATA, Direction.TO_RELAY, bin_width=1.0)
    assert series.total_bytes == 1000.0


def test_extract_ignores_syn_fin_payload():
    trace = _trace(
        [
            (0.0, Direction.TO_RELAY, 999, 0, 1, {"SYN"}),
            (0.1, Direction.TO_RELAY, 1000, 0, 500),
            (0.4, Direction.TO_RELAY, 1500, 0, 500),
            (0.6, Direction.TO_RELAY, 2000, 0, 1, {"FIN"}),
        ]
    )
    series = extract_progress(trace, SignalKind.DATA, Direction.TO_RELAY, bin_width=1.0)
    assert series.total_bytes == 1001.0  # seq span, not the flag bytes


def test_extract_empty_direction_errors():
    trace = _trace([(0.1, Direction.TO_RELAY, 1, 0, 10)])
    with pytest.raises(EmptyDirectionError):
        extract_progress(trace, SignalKind.ACK, Direction.FROM_RELAY)


def test_extract_auto_direction_picks_payload_side():
    trace = _trace(
        [
            (0.1, Direction.TO_RELAY, 100, 7, 500),
            (0.2, Direction.FROM_RELAY, 7, 600, 0),
            (0.6, Direction.TO_RELAY, 600, 7, 500),
            (0.7, Direction.FROM_RELAY, 7, 1100, 0),
        ]
    )
    data = extract_progress(trace, SignalKind.DATA, bin_width=1.0, t0=0.0)
    ack = extract_progress(trace, SignalKind.ACK, bin_width=1.0, t0=0.0)
    assert data.total_bytes == 1000.0
    assert ack.total_bytes == 500.0  # acks advance 600 -> 1100


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.floats(0, 250), st.integers(0, 2**20)), min_size=1, max_size=60
    ),
    st.sampled_from([0.5, 1.0, 2.0, 7.0]),
)
def test_extract_totals_independent_of_bin_width(raw, other_width):
    times = sorted(t for t, _ in raw)
    payloads = [p for _, p in raw]
    seq = 1234
    obs = []
    for t, payload in zip(times, payloads):
        obs.append((t, Direction.TO_RELAY, seq, 0, payload))
        seq = (seq + payload) % WRAP
    trace = _trace(obs)
    base = extract_progress(
        trace, SignalKind.DATA, Direction.TO_RELAY, bin_width=1.0, window=260.0, t0=0.0
    )
    other = extract_progress(
        trace, SignalKind.DATA, Direction.TO_RELAY, bin_width=other_width, window=260.0, t0=0.0
    )
    assert np.all(base.deltas >= 0)
    assert base.total_bytes == other.total_bytes == sum(payloads)


_packet = st.tuples(
    st.sampled_from([0.0, 0.0, 0.3, 0.9, 2.5]),  # ts steps, ties included
    st.sampled_from(list(Direction)),
    st.integers(-2000, 2**20),  # counter steps: retransmissions go backwards
    st.integers(-2000, 2**20),
    st.integers(0, 1460),
    st.frozensets(st.sampled_from(["SYN", "FIN", "RST", "ACK_FLAG"])),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(_packet, min_size=1, max_size=40),
    st.sampled_from([SignalKind.DATA, SignalKind.ACK]),
    st.sampled_from([(0.5, 20.0, 0.0), (1.0, 30.0, 0.0), (3.0, 7.0, 1.2)]),
)
def test_extract_progress_matches_per_packet_oracle(isn, steps, kind, binning):
    ts, seq, ack, rows = 0.0, isn, isn, []
    for dt, direction, dseq, dack, length, flags in steps:
        ts, seq, ack = ts + dt, seq + dseq, ack + dack
        rows.append((ts, direction, seq % WRAP, ack % WRAP, length, flags))
    trace = _trace(rows)
    bin_width, window, t0 = binning
    data = kind is SignalKind.DATA
    direction = brute_pick_direction(trace.observations, data)
    series = extract_progress(trace, kind, bin_width=bin_width, window=window, t0=t0)
    assert series.deltas.tolist() == brute_progress_deltas(
        trace.observations, data, direction, bin_width, window, t0
    )


# --- spearman ----------------------------------------------------------------


def test_spearman_perfect_and_reversed():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)


def test_spearman_hand_computed_case():
    # brute_spearman([1,2,3,4,5], [2,1,4,3,5]) == 1 - 6*4/(5*24) == 0.8
    expected = brute_spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert expected == pytest.approx(0.8)
    assert spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(expected)


def test_spearman_ties_match_oracle():
    x = [1, 1, 2, 3, 3, 3]
    y = [10, 20, 20, 30, 10, 30]
    assert spearman(x, y) == pytest.approx(brute_spearman(x, y), abs=1e-12)


def test_spearman_errors():
    with pytest.raises(ConstantInputError):
        spearman([1, 1, 1, 1], [1, 2, 3, 4])
    with pytest.raises(ConstantInputError):
        spearman([1, 2, 3, 4], [5, 5, 5, 5])
    with pytest.raises(LengthMismatchError):
        spearman([1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(LengthMismatchError):
        spearman([1, 2], [2, 1])


vectors = st.lists(st.integers(-1000, 1000), min_size=3, max_size=40)


@settings(max_examples=80)
@given(vectors, vectors)
def test_spearman_symmetric_and_matches_oracle(x, y):
    if len(x) != len(y):
        x, y = x[: min(len(x), len(y))], y[: min(len(x), len(y))]
    if len(x) < 3 or len(set(x)) < 2 or len(set(y)) < 2:
        return
    left = spearman(x, y)
    assert left == pytest.approx(spearman(y, x), abs=1e-12)
    assert left == pytest.approx(brute_spearman(x, y), abs=1e-9)
    assert -1.0 <= left <= 1.0


@settings(max_examples=60)
@given(vectors)
def test_spearman_invariant_under_monotone_transform(x):
    if len(set(x)) < 2:
        return
    y = [v * 3 + 17 for v in x]
    base = spearman(x, y)
    transformed = spearman([math.exp(v / 500) for v in x], [v**3 for v in y])
    assert transformed == pytest.approx(base, abs=1e-9)


# --- correlate_all / match / evaluate ---------------------------------------


def _series(deltas):
    return ByteProgressSeries(1.0, 0.0, np.asarray(deltas, dtype=np.float64))


def test_correlate_all_identity_and_reverse():
    client = _series([1, 2, 3, 4])
    assert correlate_all([client], [_series([1, 2, 3, 4])])[0, 0] == pytest.approx(1.0)
    assert correlate_all([client], [_series([4, 3, 2, 1])])[0, 0] == pytest.approx(-1.0)


def test_correlate_all_marks_constant_series_not_comparable():
    matrix = correlate_all([_series([5, 5, 5, 5])], [_series([1, 2, 3, 4])])
    assert np.isnan(matrix[0, 0])


def test_correlate_all_matches_pairwise_spearman():
    rng = random.Random(3)
    clients = [_series([rng.randrange(50) for _ in range(20)]) for _ in range(4)]
    servers = [_series([rng.randrange(50) for _ in range(20)]) for _ in range(5)]
    matrix = correlate_all(clients, servers)
    for i, c in enumerate(clients):
        for j, s in enumerate(servers):
            assert matrix[i, j] == pytest.approx(
                spearman(c.deltas, s.deltas), abs=1e-9
            )


def test_correlate_all_max_lag_recovers_shifted_pair():
    rng = random.Random(5)
    base = [rng.randrange(1000) for _ in range(40)]
    client = _series(base)
    shifted = _series([0, 0] + base[:-2])
    assert correlate_all([client], [shifted])[0, 0] < 0.9
    assert correlate_all([client], [shifted], max_lag_bins=3)[0, 0] == pytest.approx(1.0)


def test_match_threshold_and_tie():
    results = match(np.array([[0.9, 0.2]]), 0.5, ["c0"], ["s0", "s1"])
    assert results[0].matched_server_id == "s0"
    assert results[0].coefficient == pytest.approx(0.9)
    below = match(np.array([[0.3, 0.2]]), 0.5, ["c0"], ["s0", "s1"])
    assert below[0].matched_server_id is None and below[0].coefficient is None
    tied = match(np.array([[0.8, 0.8]]), 0.5, ["c0"], ["s0", "s1"])
    assert tied[0].matched_server_id == "s0" and tied[0].tie


def test_match_with_floor_threshold_always_matches():
    rng = np.random.default_rng(9)
    matrix = rng.uniform(-1, 1, size=(6, 6))
    for result in match(matrix, -1.0):
        assert result.matched_server_id is not None


def test_raising_threshold_only_converts_matches_to_none():
    rng = np.random.default_rng(10)
    matrix = rng.uniform(-1, 1, size=(8, 8))
    low = match(matrix, 0.1)
    high = match(matrix, 0.6)
    for a, b in zip(low, high):
        assert b.matched_server_id in (a.matched_server_id, None)


def test_evaluate_paper_style_rates():
    truth = {f"c{i}": f"s{i}" for i in range(50)}
    all_correct = [MatchResult(f"c{i}", f"s{i}", 0.9, "") for i in range(50)]
    report = evaluate(all_correct, truth, 50)
    assert (report.accuracy, report.false_negative_rate, report.misattribution_rate) == (
        1.0,
        0.0,
        0.0,
    )

    two_unmatched = [
        MatchResult(f"c{i}", None if i < 2 else f"s{i}", None if i < 2 else 0.9, "")
        for i in range(50)
    ]
    report = evaluate(two_unmatched, truth, 50)
    assert report.accuracy == pytest.approx(0.96)
    assert report.false_negative_rate == pytest.approx(0.04)
    assert report.misattribution_rate == 0.0

    one_wrong = [
        MatchResult(f"c{i}", "s49" if i == 0 else f"s{i}", 0.9, "") for i in range(50)
    ]
    report = evaluate(one_wrong, truth, 50)
    assert report.misattribution_rate == pytest.approx(0.02)
    assert report.accuracy + report.false_negative_rate + report.misattribution_rate == pytest.approx(1.0)


# --- clopper_pearson ---------------------------------------------------------


def beta_quantile_oracle(successes, trials, confidence):
    from scipy import stats

    alpha = 1 - confidence
    lower = 0.0 if successes == 0 else stats.beta.ppf(alpha / 2, successes, trials - successes + 1)
    upper = 1.0 if successes == trials else stats.beta.ppf(
        1 - alpha / 2, successes + 1, trials - successes
    )
    return float(lower), float(upper)


def test_clopper_pearson_reference_intervals():
    lower, upper = clopper_pearson(2, 50, 0.95)
    assert lower == pytest.approx(0.0049, abs=5e-4)
    assert upper == pytest.approx(0.1371, abs=5e-4)

    lower3, upper3 = clopper_pearson(3, 50, 0.95)
    assert lower3 == pytest.approx(0.0125, abs=5e-4)
    assert upper3 == pytest.approx(0.1654, abs=5e-4)

    zero_lo, zero_hi = clopper_pearson(0, 2450, 0.95)
    assert zero_lo == 0.0
    assert zero_hi == pytest.approx(0.0015, abs=2e-4)


@pytest.mark.parametrize(
    "successes,trials", [(0, 10), (1, 10), (2, 50), (3, 50), (0, 2450), (23, 23), (7, 23)]
)
def test_clopper_pearson_matches_beta_quantile_oracle(successes, trials):
    ours = clopper_pearson(successes, trials, 0.95)
    oracle = beta_quantile_oracle(successes, trials, 0.95)
    assert ours[0] == pytest.approx(oracle[0], abs=5e-4)
    assert ours[1] == pytest.approx(oracle[1], abs=5e-4)


@settings(max_examples=60)
@given(st.integers(0, 80), st.integers(0, 80), st.sampled_from([0.8, 0.9, 0.95, 0.99]))
def test_clopper_pearson_contains_point_estimate(a, b, confidence):
    successes, trials = min(a, b), max(a, b)
    if trials == 0:
        return
    lower, upper = clopper_pearson(successes, trials, confidence)
    estimate = successes / trials
    assert lower <= estimate <= upper
    assert 0.0 <= lower <= upper <= 1.0


# --- serialization -----------------------------------------------------------


def test_observation_record_roundtrip(tmp_path):
    table = packet_table([(1.25, Direction.FROM_SERVER, 42, 99, 1460, {"SYN"})])
    path = tmp_path / "one.jsonl"
    write_trace_jsonl(path, EndpointTrace("v", table))
    assert read_trace_jsonl(path, "v").observations == table


def test_packet_table_columns_and_rows():
    table = packet_table(
        [
            (0.5, Direction.TO_RELAY, 10, 0, 5),
            (0.7, Direction.FROM_RELAY, 0, 15, 0, {"FIN", "ACK_FLAG"}),
        ]
    )
    assert len(table) == 2
    assert (table.ts.dtype, table.direction.dtype, table.flags.dtype) == (
        np.float64, np.int8, np.uint8,
    )
    assert table.flags.tolist() == [0, 0b1010]
    assert table[table.direction == 1].ack.tolist() == [15]
    with pytest.raises(ValueError):
        PacketTable([0.0], [0], [1], [2], [3], [])


_row = st.tuples(
    st.sampled_from([0.0, 0.0, 0.01, 1e-7, 0.123456789, 3.5]),  # ts steps: ties too
    st.sampled_from(list(Direction)),
    st.integers(0, 2**20),  # counter steps, reduced mod 2**32 below
    st.integers(0, 2**20),
    st.integers(0, 1460),
    st.frozensets(st.sampled_from(["SYN", "FIN", "RST", "ACK_FLAG"])),
)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0, 1e6, allow_nan=False),
    st.integers(WRAP - 2**21, WRAP - 1),
    st.lists(_row, max_size=40),
)
def test_trace_jsonl_matches_per_record_oracle(tmp_path_factory, start, isn, steps):
    ts, seq, ack, rows = start, isn, isn, []
    for dt, direction, dseq, dack, length, flags in steps:
        ts, seq, ack = ts + dt, seq + dseq, ack + dack
        rows.append((ts, direction, seq % WRAP, ack % WRAP, length, flags))
    table = packet_table(rows)
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace_jsonl(path, EndpointTrace("v", table))
    assert path.read_text() == oracle_trace_text(table)
    got = read_trace_jsonl(path, "v").observations
    expected = oracle_read_columns(path)
    for name, column in expected.items():
        assert getattr(got, name).tolist() == column


# --- the column-kernel writer against the per-record oracle ------------------


def _written(tmp_path, table):
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(path, EndpointTrace("v", table))
    return path.read_bytes()


def _table(ts, seq=0, ack=0, length=0, direction=0, flags=0):
    n = len(ts)
    return PacketTable(
        ts, *(np.broadcast_to(np.asarray(value), n) for value in (direction, seq, ack, length, flags))
    )


def _half_micros():
    """Exact dyadic halves and decimal halves of a microsecond, with neighbours."""
    values = [k / 128 for k in range(0, 4000)] + [(j + 0.5) / 1e6 for j in range(0, 3000)]
    values += [(j + 0.5) / 1e6 for j in (99, 100, 12345, 999999, 10**8, 10**9 - 1, 10**14)]
    return values + [math.nextafter(v, math.inf) for v in values] + [
        math.nextafter(v, -math.inf) for v in values
    ]


@pytest.mark.parametrize(
    "ts",
    [
        pytest.param([1e-9, 5e-5, 9.9e-5, 9.99949e-5, 9.9996e-5, 1e-5, 5e-324, 1e-300], id="below-1e-4"),
        pytest.param([0.0, 1e-4, 0.0001004, 0.1, 0.30000000000000004, 1.25, 299.999999], id="plain"),
        pytest.param(_half_micros(), id="half-micros"),
        pytest.param(
            [999999999.999999, 1e9 - 1e-7, 1e9, 1e9 + 0.5, 123456789.123456,
             41639466286.387596, 96702724870.69044],  # shorter than six fraction digits
            id="1e9",
        ),
        pytest.param([1e15, 1e16, 1.5e16, 1e300, sys.float_info.max], id="large"),
        pytest.param([-0.0, -1e-9, -1.5, -1e-7, -1e16, math.nan, math.inf, -math.inf], id="signed"),
    ],
)
def test_writer_spells_timestamps_like_json(tmp_path, ts):
    table = _table(ts, seq=7, ack=8, length=9)
    assert _written(tmp_path, table) == oracle_trace_text(table).encode()


@pytest.mark.parametrize(
    "values",
    [
        [0, 1, 9, 10, 9999, 10000, 99999999, 10**8, 2**31, 2**32, 10**18, 2**63 - 1],
        [0, -1, -9, -10, -9999, -10000, -(10**8), 2**63 - 1, -(2**63) + 1, -(2**63)],
        [-(2**63)] * 3,
    ],
)
def test_writer_spells_integers_like_json(tmp_path, values):
    n = len(values)
    table = _table([0.5] * n, seq=values, ack=values[::-1], length=np.roll(values, 1))
    assert _written(tmp_path, table) == oracle_trace_text(table).encode()


def test_writer_spells_every_direction_and_flag_set(tmp_path):
    codes = np.arange(len(Direction) * 16)
    table = _table(codes * 0.25, seq=codes, direction=codes // 16, flags=codes % 16)
    assert _written(tmp_path, table) == oracle_trace_text(table).encode()


def test_writer_spells_its_widest_record(tmp_path):
    # every field at its widest: int64 min, the longest middle, a 24-character float
    low = -(2**63)
    table = _table([-sys.float_info.max], low, low, low, direction=3, flags=15)
    assert _written(tmp_path, table) == oracle_trace_text(table).encode()


def test_writer_rejects_unknown_direction_and_flag_codes(tmp_path):
    for direction, flags in ((len(Direction), 0), (-1, 0), (0, 16)):
        with pytest.raises(ValueError):
            _written(tmp_path, _table([0.5], direction=direction, flags=flags))
        assert list(tmp_path.iterdir()) == []


def test_writer_empty_table_writes_empty_file(tmp_path):
    assert _written(tmp_path, _table([])) == b""


def _mixed_rows(n, seed):
    rng = np.random.default_rng(seed)
    ts = rng.choice([0.0, 1e-7, 5e-5, 0.5, 1.0000005, 2.5e-6, 1e9, -1.0, math.nan], n)
    ts = np.where(rng.random(n) < 0.5, rng.uniform(0, 1e4, n), ts)
    integers = rng.integers(-(2**63), 2**63 - 1, (3, n), endpoint=True)
    integers[:, rng.random(n) < 0.7] //= 2 ** rng.integers(0, 63, (3, 1))
    return PacketTable(ts, rng.integers(0, 4, n), *integers, rng.integers(0, 16, n))


def test_writer_blocks_join_seamlessly(tmp_path, monkeypatch):
    table = _mixed_rows(tracefile._BLOCK_ROWS + 5, seed=5)
    expected = oracle_trace_text(table).encode()
    assert _written(tmp_path, table) == expected
    monkeypatch.setattr(tracefile, "_BLOCK_ROWS", 7)  # blocks of differing field widths
    assert _written(tmp_path, table) == expected


# any float64 (NaN, infinities, -0.0, exact halves of a microsecond), any
# int64 and every direction and flag code
_any_tables = st.lists(
    st.tuples(
        st.floats(width=64) | st.integers(0, 10**12).map(lambda j: (j + 0.5) / 1e6),
        st.integers(0, 3),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(0, 15),
    ),
    max_size=30,
).map(lambda rows: PacketTable(*(zip(*rows) if rows else ([],) * 6)))


@settings(max_examples=100, deadline=None)
@given(_any_tables)
def test_writer_matches_oracle_on_any_columns(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace_jsonl(path, EndpointTrace("v", table))
    assert path.read_bytes() == oracle_trace_text(table).encode()


# --- the column-kernel reader against the per-record oracle ------------------


def _assert_oracle_columns(got, path):
    """got holds the oracle's columns bit for bit (NaN payloads, -0.0)."""
    for name, column in oracle_read_columns(path).items():
        want = np.array(column, dtype=getattr(got, name).dtype)
        assert getattr(got, name).tobytes() == want.tobytes(), name


@settings(max_examples=100, deadline=None)
@given(_any_tables)
def test_reader_matches_oracle_on_any_columns(tmp_path_factory, table):
    table = table[np.argsort(table.ts, kind="stable")]  # NaN last: never a decrease
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace_jsonl(path, EndpointTrace("v", table))
    got = read_trace_jsonl(path, "v").observations
    _assert_oracle_columns(got, path)
    rounded = np.array([round(t, 6) for t in table.ts.tolist()])
    assert np.array_equal(got.ts, rounded, equal_nan=True)
    signed = ~np.isnan(rounded)
    assert np.array_equal(np.signbit(got.ts[signed]), np.signbit(rounded[signed]))
    for name in ("direction", "seq", "ack", "payload_len", "flags"):
        assert np.array_equal(getattr(got, name), getattr(table, name)), name


@settings(max_examples=150, deadline=None)
@given(
    _any_tables.filter(len),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0), st.sampled_from(b'09.-+e,:" []{}\n\rN_')),
        min_size=1,
        max_size=3,
    ),
)
def test_reader_accepts_only_what_the_writer_writes(tmp_path_factory, table, edits):
    # a few byte edits of a written file: the reader rejects the result, or
    # what it reads is spelled back byte for byte, blank lines aside
    text = bytearray(oracle_trace_text(table[np.argsort(table.ts, kind="stable")]).encode())
    for kind, at, byte in edits:
        at %= len(text)
        if kind == 0:
            text[at] = byte
        elif kind == 1:
            del text[at]
        else:
            text.insert(at, byte)
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    path.write_bytes(text)
    try:
        got = read_trace_jsonl(path, "v").observations
    except InputError:
        return
    lines = [line + b"\n" for line in bytes(text).split(b"\n") if line.strip()]
    assert oracle_trace_text(got).encode() == b"".join(lines)


@pytest.mark.parametrize("scale", [1, 10**3, 10**6, 10**9, 10**12, 10**15])
def test_reader_decodes_plain_timestamps_like_float(tmp_path, monkeypatch, scale):
    # k / 1e6 for k below 1e15: every plain spelling the writer produces,
    # with whole parts up to nine digits; blocks of 1000 lines
    monkeypatch.setattr(tracefile, "_BLOCK_ROWS", 1000)
    rng = np.random.default_rng(scale)
    k = np.sort(rng.integers(0, scale, 4000, endpoint=True))
    k = np.unique(np.concatenate([k, k[k < 10**15 - 1] + 1, [0, 100, 101, 10**6]]))
    k = k[(k < 10**15) & ((k >= 100) | (k == 0))]
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(path, EndpointTrace("v", _table(k / 1e6)))
    got = read_trace_jsonl(path, "v").observations
    assert got.ts.tobytes() == (k / 1e6).tobytes()
    _assert_oracle_columns(got, path)


def _line(ts="2.0", ack="5", middle='"dir": "to_relay", ', length="10", seq="7"):
    return f'{{"ack": {ack}, {middle}"len": {length}, "seq": {seq}, "ts": {ts}}}'


# line 1 metadata, line 2 blank, line 4 spaces and a tab: the sixth is bad
_BEFORE_BAD = ['{"_meta": {"tool": "routelens"}}', "", _line("1.0"), " \t", _line("1.5")]


@pytest.mark.parametrize(
    "bad",
    [
        '{"dir": "to_relay", "ack": 5, "len": 10, "seq": 7, "ts": 2.0}',  # key order
        _line().replace('"ack": ', '"ack":  '),  # doubled space
        _line().replace('"seq": ', '"seq":'),
        " " + _line(),
        _line() + " ",
        _line() + "\r",  # CRLF
        _line(middle='"dir": "to_relay", "flags": [], '),
        _line(middle='"dir": "to_relay", "flags": ["SYN", "FIN"], '),  # unsorted
        _line(middle='"dir": "to_relay", "flags": ["FIN", "FIN"], '),
        _line(middle='"dir": "to_relay", "flags": ["PSH"], '),
        _line(middle='"dir": "sideways", '),
        _line(middle='"dir": "to_relay", "extra": 1, '),
        _line(middle=""),
        _line(seq="07"),
        _line(seq="+7"),
        _line(seq="1_000"),
        _line(seq="-0"),
        _line(seq="7.0"),
        _line(seq="7e0"),
        _line(seq='"7"'),
        _line(ack="9223372036854775808"),
        _line(ack="-9223372036854775809"),
        _line(length="18446744073709551616"),
        _line(length="99999999999999999999"),
        _line(length="-"),
        _line(ts="2.50"),
        _line(ts="02.5"),
        _line(ts="2.0000001"),  # more than round(., 6) keeps
        _line(ts="2.5e0"),
        _line(ts="0.00005"),  # the writer spells 5e-05
        _line(ts="1.0e-05"),
        _line(ts="2"),
        _line(ts="2."),
        _line(ts=".5"),
        _line(ts="1E+16"),
        _line(ts="nan"),
        _line(ts="Infinity "),
        _line(ts='"2.0"'),
        _line(ts="1_0.5"),
        _line(ts=""),
        _line()[:30],
        _line() + _line(),
        '{"_meta": {"tool": "routelens"}}',  # metadata only leads
        "not json {",
        _line(ts="1.25"),  # below the 1.5 before it
    ],
)
def test_reader_rejects_what_the_writer_cannot_write(tmp_path, bad):
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(_BEFORE_BAD + [bad, _line("3.0")]) + "\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:6: "):
        read_trace_jsonl(path, "v")


@pytest.mark.parametrize("block_rows", [1, 2, 3, 8192])
def test_reader_skips_blank_and_metadata_lines_across_blocks(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(tracefile, "_BLOCK_ROWS", block_rows)
    spellings = ["2.0", "1000000000.25", "1e+16", "Infinity"]
    good = [_line(ts, seq=str(i)) for i, ts in enumerate(spellings)]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(_BEFORE_BAD + good[1:2] + ["", "  "] + good[2:]))  # no final newline
    got = read_trace_jsonl(path, "v").observations
    assert got.ts.tolist() == [1.0, 1.5, 1000000000.25, 1e16, math.inf]
    _assert_oracle_columns(got, path)
    path.write_text("\n".join(_BEFORE_BAD + good + [_line("0.5")]))
    with pytest.raises(InputError, match=r":10: timestamp decreases"):
        read_trace_jsonl(path, "v")
    path.write_text("\n".join(_BEFORE_BAD + good + [_line(seq="01")]))
    with pytest.raises(InputError, match=r":10: "):
        read_trace_jsonl(path, "v")
