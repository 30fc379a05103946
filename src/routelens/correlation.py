"""Asymmetric traffic correlation from TCP headers.

A trace is arrays: one PacketTable of header columns (timestamp,
direction code, sequence and acknowledgment numbers, payload length, flag
bits) per vantage, produced by the simulator or read from JSONL in bulk
and consumed with masks and vector operations; there is no per-packet
object.

The attack signal is cumulative byte progress, recoverable from either
direction of a flow: sequence numbers plus payload sizes on the data
direction, or cumulative acknowledgment numbers on the reverse direction.
Progress series from the two ends of a tunnel are binned to a common
epoch and matched by Spearman's rank coefficient: for each client the
server with the highest coefficient wins, unless everything falls below
the significance threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

WRAP = 2**32


class CorrelationError(Exception):
    pass


class EmptyDirectionError(CorrelationError):
    """No packet in the trace matches the requested direction."""


class ConstantInputError(CorrelationError):
    """A rank correlation of a constant vector is undefined."""


class LengthMismatchError(CorrelationError):
    pass


class Direction(Enum):
    TO_RELAY = "to_relay"
    FROM_RELAY = "from_relay"
    TO_SERVER = "to_server"
    FROM_SERVER = "from_server"


class SignalKind(Enum):
    DATA = "data"
    ACK = "ack"


DIRECTIONS = tuple(Direction)  # a direction code indexes this tuple
_FLAG_NAMES = ("SYN", "FIN", "RST", "ACK_FLAG")  # flag bit i is 1 << i
_SYN_FIN = 0b11
_COLUMN_DTYPES = (np.float64, np.int8, np.int64, np.int64, np.int64, np.uint8)


@dataclass(eq=False)
class PacketTable:
    """Struct-of-arrays TCP header sightings, one row per packet.

    ts float64 seconds; direction int8 index into DIRECTIONS; seq, ack and
    payload_len int64; flags uint8 bitmask over _FLAG_NAMES. SYN and FIN
    carry no application bytes, so progress ignores their payload_len.
    """

    ts: np.ndarray
    direction: np.ndarray
    seq: np.ndarray
    ack: np.ndarray
    payload_len: np.ndarray
    flags: np.ndarray

    def __post_init__(self) -> None:
        for column, dtype in zip(fields(self), _COLUMN_DTYPES):
            setattr(self, column.name, np.asarray(getattr(self, column.name), dtype=dtype))
        if len({len(getattr(self, column.name)) for column in fields(self)}) != 1:
            raise ValueError("packet table columns differ in length")

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, rows) -> "PacketTable":
        """The rows picked by a mask or an index array, as a new table."""
        return PacketTable(*(getattr(self, column.name)[rows] for column in fields(self)))

    def __eq__(self, other) -> bool:
        return isinstance(other, PacketTable) and all(
            np.array_equal(getattr(self, column.name), getattr(other, column.name))
            for column in fields(self)
        )


@dataclass
class EndpointTrace:
    """Time-ordered observations of one flow at one vantage."""

    vantage_id: str
    observations: PacketTable


@dataclass
class ByteProgressSeries:
    """Per-bin byte deltas of cumulative progress, aligned at t0."""

    bin_width: float
    t0: float
    deltas: np.ndarray

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.deltas)

    @property
    def total_bytes(self) -> float:
        return float(self.deltas.sum())


@dataclass
class MatchResult:
    client_id: str
    matched_server_id: str | None
    coefficient: float | None
    scenario: str
    tie: bool = False


@dataclass
class AccuracyReport:
    """Matches of n clients among m servers. accuracy, false_negative_rate and
    misattribution_rate are shares of the n clients; false_positive_rate is
    a share of the n * (m - 1) (client, wrong server) trials, counted as at
    least 1 and at least the false positives (a client whose partner is
    absent can still match a lone server)."""

    n_clients: int
    correct: int
    false_negatives: int
    false_positives: int
    n_servers: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.n_clients if self.n_clients else 0.0

    @property
    def false_negative_rate(self) -> float:
        return self.false_negatives / self.n_clients if self.n_clients else 0.0

    @property
    def misattribution_rate(self) -> float:
        return self.false_positives / self.n_clients if self.n_clients else 0.0

    @property
    def false_positive_trials(self) -> int:
        return max(self.n_clients * (self.n_servers - 1), self.false_positives, 1)

    @property
    def false_positive_rate(self) -> float:
        return self.false_positives / self.false_positive_trials


def unwrap_cumulative(values) -> np.ndarray:
    """Undo 32-bit wraparound of a cumulative counter sequence.

    Successive differences are interpreted mod 2**32, choosing the signed
    representative in (-2**31, 2**31]; output is an int64 array anchored
    at the first input value.
    """
    arr = np.asarray(values, dtype=np.int64)
    if len(arr) == 0:
        raise ValueError("empty input")
    steps = np.mod(np.diff(arr), WRAP)
    steps[steps > WRAP // 2] -= WRAP
    return arr[0] + np.concatenate(([0], np.cumsum(steps)))


def pick_direction(trace: EndpointTrace, kind: SignalKind) -> Direction:
    """Choose the direction carrying the requested signal.

    DATA wants the direction with the most payload bytes; ACK wants the
    one whose acknowledgment counter advances the furthest. Ties break on
    Direction declaration order so the choice is deterministic.
    """
    obs = trace.observations
    if not len(obs):
        raise EmptyDirectionError(f"trace {trace.vantage_id} is empty")
    scores = []
    for code in np.flatnonzero(np.bincount(obs.direction)):
        mask = obs.direction == code
        if kind is SignalKind.DATA:
            score = float(obs.payload_len[mask].sum())
        else:
            acks = unwrap_cumulative(obs.ack[mask])
            score = float(acks.max() - acks[0])
        scores.append((-score, int(code)))
    return DIRECTIONS[min(scores)[1]]


def extract_progress(
    trace: EndpointTrace,
    kind: SignalKind,
    direction: Direction | None = None,
    bin_width: float = 1.0,
    window: float | None = None,
    t0: float | None = None,
) -> ByteProgressSeries:
    """Bin cumulative byte progress for one trace.

    Progress at time t is the running maximum of unwrapped(seq)+payload
    (DATA) or unwrapped(ack) (ACK) over observations up to t, minus the
    first observation's counter value; the running maximum makes
    retransmissions count once. Bins with no observations carry delta 0,
    including leading bins before the first packet, which keeps series
    from different vantages aligned when t0 is a shared epoch.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if direction is None:
        direction = pick_direction(trace, kind)
    obs = trace.observations[trace.observations.direction == DIRECTIONS.index(direction)]
    if not len(obs):
        raise EmptyDirectionError(
            f"no {direction.value} packets in trace {trace.vantage_id}"
        )
    ts = obs.ts
    if kind is SignalKind.DATA:
        seqs = unwrap_cumulative(obs.seq)
        # SYN/FIN consume a sequence number but carry no application bytes
        metric = seqs + np.where(obs.flags & _SYN_FIN, 0, obs.payload_len)
        initial = seqs[0]
    else:
        metric = unwrap_cumulative(obs.ack)
        initial = metric[0]
    progress = np.maximum.accumulate(metric) - initial

    if t0 is None:
        t0 = float(ts[0])
    if window is None:
        window = max(float(ts[-1]) - t0, bin_width)
    n_bins = max(1, math.ceil(round(window / bin_width, 9)))
    edges = t0 + bin_width * np.arange(1, n_bins + 1)
    idx = np.searchsorted(ts, edges, side="right") - 1
    at_edges = np.where(idx >= 0, progress[np.clip(idx, 0, None)], 0)
    deltas = np.diff(at_edges, prepend=0).astype(np.float64)
    return ByteProgressSeries(bin_width=bin_width, t0=t0, deltas=deltas)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by the mean rank of their run."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    new_run = np.r_[True, ordered[1:] != ordered[:-1]]
    run_id = np.cumsum(new_run) - 1
    counts = np.bincount(run_id)
    ends = np.cumsum(counts)
    starts = ends - counts
    avg = (starts + 1 + ends) / 2.0
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = avg[run_id]
    return ranks


def spearman(x, y) -> float:
    """Spearman's rank coefficient: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatchError(f"lengths differ: {x.shape} vs {y.shape}")
    if x.size < 3:
        raise LengthMismatchError("need at least 3 samples")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        raise ConstantInputError("constant input vector")
    return float(rx @ ry) / denom


def _rank_zscores(series_list: list[ByteProgressSeries]) -> np.ndarray:
    """Stack rank-transformed, zero-mean, unit-norm rows; constant rows NaN."""
    n = len(series_list[0].deltas)
    rows = np.empty((len(series_list), n), dtype=np.float64)
    for i, series in enumerate(series_list):
        if len(series.deltas) != n:
            raise LengthMismatchError("series lengths differ")
        ranks = _average_ranks(np.asarray(series.deltas, dtype=np.float64))
        ranks -= ranks.mean()
        norm = math.sqrt(float(ranks @ ranks))
        rows[i] = ranks / norm if norm > 0 else np.nan
    return rows


def correlate_all(
    clients: list[ByteProgressSeries],
    servers: list[ByteProgressSeries],
    max_lag_bins: int = 0,
) -> np.ndarray:
    """Pairwise Spearman matrix; entry (i, j) correlates client i with
    server j. Constant series yield NaN rows/columns (not comparable)
    rather than aborting the sweep. With max_lag_bins > 0 the best
    coefficient over integer bin shifts of the server series is kept.
    """
    if not clients or not servers:
        return np.zeros((len(clients), len(servers)))
    for series in clients + servers:
        if series.bin_width != clients[0].bin_width:
            raise LengthMismatchError("bin widths differ across series")
    n = len(clients[0].deltas)
    best = np.full((len(clients), len(servers)), -np.inf)
    for lag in range(-max_lag_bins, max_lag_bins + 1):
        c_lo, c_hi = max(0, lag), n + min(0, lag)
        if c_hi - c_lo < 3:
            continue
        c_cut = [
            ByteProgressSeries(s.bin_width, s.t0, s.deltas[c_lo:c_hi]) for s in clients
        ]
        s_cut = [
            ByteProgressSeries(s.bin_width, s.t0, s.deltas[c_lo - lag : c_hi - lag])
            for s in servers
        ]
        matrix = _rank_zscores(c_cut) @ _rank_zscores(s_cut).T
        best = np.fmax(best, matrix)
    best[np.isneginf(best)] = np.nan
    return best


def match(
    coefficients: np.ndarray,
    threshold: float,
    client_ids: list[str] | None = None,
    server_ids: list[str] | None = None,
    scenario: str = "",
) -> list[MatchResult]:
    """Per client row, pick the argmax server; below threshold means no
    match. Exact ties go to the lowest server index and are flagged."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    n_clients, n_servers = coefficients.shape
    client_ids = client_ids or [str(i) for i in range(n_clients)]
    server_ids = server_ids or [str(j) for j in range(n_servers)]
    results = []
    for i in range(n_clients):
        row = coefficients[i]
        finite = np.where(np.isnan(row), -np.inf, row)
        j = int(np.argmax(finite))
        coeff = finite[j]
        if not np.isfinite(coeff) or coeff < threshold:
            results.append(MatchResult(client_ids[i], None, None, scenario))
            continue
        tie = bool(np.sum(finite == coeff) > 1)
        results.append(MatchResult(client_ids[i], server_ids[j], float(coeff), scenario, tie))
    return results


def evaluate(matches: list[MatchResult], truth: dict[str, str], n_servers: int) -> AccuracyReport:
    """Score matches against the true pairing, among n_servers servers.

    accuracy counts clients matched to their true partner, false negatives
    clients with a partner that got no match, false positives clients
    matched to a wrong server. accuracy, false_negative_rate and
    misattribution_rate share the number of clients evaluated as their
    denominator, so they sum to 1 when every client has a partner.
    """
    correct = fn = fp = 0
    for result in matches:
        expected = truth.get(result.client_id)
        if result.matched_server_id is None:
            if expected is not None:
                fn += 1
        elif result.matched_server_id == expected:
            correct += 1
        else:
            fp += 1
    return AccuracyReport(len(matches), correct, fn, fp, n_servers)


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), via log-space term summation."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    log_p, log_q = math.log(p), math.log(1.0 - p)
    total = 0.0
    for i in range(0, k + 1):
        total += math.exp(_log_binom(n, i) + i * log_p + (n - i) * log_q)
    return min(total, 1.0)


def clopper_pearson(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for successes/trials.

    Bounds are found by bisection on the exact binomial tail sums, which
    keeps this implementation independent of beta-quantile libraries.
    """
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence

    def bisect(func, increasing: bool) -> float:
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = (lo + hi) / 2.0
            if (func(mid) < 0.0) == increasing:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    if successes == 0:
        lower = 0.0
    else:
        # P(X >= successes | p) == alpha/2, left endpoint
        lower = bisect(
            lambda p: (1.0 - _binom_cdf(successes - 1, trials, p)) - alpha / 2.0,
            increasing=True,
        )
    if successes == trials:
        upper = 1.0
    else:
        # P(X <= successes | p) == alpha/2, right endpoint
        upper = bisect(
            lambda p: alpha / 2.0 - _binom_cdf(successes, trials, p),
            increasing=True,
        )
    return lower, upper
