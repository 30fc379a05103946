"""Packet traces as JSONL files, by columns: write_trace_jsonl renders a
PacketTable as one JSON object per packet, and read_trace_jsonl reads
back exactly what it writes, rejecting any line off its grammar.
"""

from __future__ import annotations

import json

import numpy as np

from .artifacts import replacing
from .core import InputError, load_json, reading
from .correlation import _FLAG_NAMES, DIRECTIONS, EndpointTrace, PacketTable
from .textcols import _POW10, PAD, _digit_values, starts_with, windows


def _first_decrease(ts: np.ndarray) -> int | None:
    """Index of the first timestamp below its predecessor, if any."""
    down = np.flatnonzero(ts[1:] < ts[:-1])
    return int(down[0]) + 1 if len(down) else None


# --- flow-record serialization ---------------------------------------------
#
# One JSON object per packet, keys sorted: {"ack", "dir", "flags"?, "len",
# "seq", "ts"}, ts rounded to 6 decimals, flags (only when set) a sorted
# list of _FLAG_NAMES. Both directions work on whole columns.
#
# The writer is a column kernel. It renders up to _BLOCK_ROWS rows at a
# time as a character matrix, one row per record, in one buffer per file,
# and writes the non-NUL bytes chars[chars != 0]. Each key's field is a
# (rows, n) array of uint32 words of four NUL-padded characters: a
# literal is one constant row, the "dir"/"flags" middle a row of a
# 64-entry table indexed by direction * 16 + flags, cut to the widest
# middle in the block, and an integer a sign word (in blocks with a
# negative value) and its base-10**4 digits looked up in a word table,
# leading zeros as NUL.
#
# Timestamps follow one exact-rounding rule. round(t, 6) is the double
# nearest k / 10**6, k being t * 10**6 rounded half-even, and
# k = rint(t * 10**6) in floating point unless the product lands exactly
# on a half: rounding is monotone and every half below 2**52 is a double,
# so a product off the halves lies on the same side of each as the exact
# value. Below 1e9, where doubles are closer than 10**-6, json spells
# k / 10**6 as k // 10**6, a point, and the six fraction digits without
# trailing zeros (one kept). Every other timestamp (product on a half,
# below 1e-4 where json switches to an exponent, from 1e9 on, negative,
# -0.0, NaN, infinite) takes json.dumps of round(t, 6) instead.

_BLOCK_ROWS = 1 << 13  # rows rendered or lines decoded at once; bounds the matrix memory
_ROW_WORDS = 51  # the widest record: keys 8 words, three int64 6 each, middle 19, ts 6
_N_FLAG_SETS = 1 << len(_FLAG_NAMES)


def _words(texts: list[str]) -> np.ndarray:
    """ASCII texts NUL-padded to whole 4-byte words, one uint32 row each."""
    raw = np.array([text.encode() for text in texts], dtype=bytes)
    n_words = -(-raw.itemsize // 4)
    return raw.astype(f"S{4 * n_words}").view(np.uint32).reshape(len(texts), n_words)


def _as_words(chars: np.ndarray) -> np.ndarray:
    """Rows of four characters as one uint32 word each."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


_QUAD = 10**4
_DIGITS = (  # row q: the four digits of q, zero padded
    np.arange(_QUAD, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
    + ord("0")
).astype(np.uint8)
_NONZERO = _DIGITS != ord("0")
# q alone (leading zeros NUL, the last digit kept), then q in full
_LOW_QUADS = np.concatenate([
    _as_words(np.where(np.logical_or.accumulate(_NONZERO, axis=1) | (np.arange(4) == 3),
                       _DIGITS, 0)),
    _as_words(_DIGITS),
])
_HIGH_QUADS = _LOW_QUADS.copy()
_HIGH_QUADS[0] = 0  # a zero quad above the number's top digit is not spelled
# a point and the first two fraction digits: in full before nonzero later
# ones, else without trailing zeros but with one digit; then the last four
# fraction digits without trailing zeros
_HUNDREDTHS = _words([f".{h:02d}" for h in range(100)]
                     + [f".{h:02d}".rstrip("0").ljust(2, "0") for h in range(100)]).ravel()
_FRACTION_TAIL = _as_words(
    np.where(np.logical_or.accumulate(_NONZERO[:, ::-1], axis=1)[:, ::-1], _DIGITS, 0)
)
_SIGN = _words(["", "-"]).ravel()
_MIDDLE = _words([
    f', "dir": {json.dumps(d.value)}, '
    + (f'"flags": {json.dumps(sorted(n for i, n in enumerate(_FLAG_NAMES) if bits >> i & 1))}, '
       if bits else "")
    + '"len": '
    for d in DIRECTIONS
    for bits in range(_N_FLAG_SETS)
])
_MIDDLE_WORDS = (_MIDDLE != 0).sum(axis=1)  # words of each middle before its NUL padding
_ACK_KEY, _SEQ_KEY, _TS_KEY, _END = (
    _words([text]) for text in ('{"ack": ', ', "seq": ', ', "ts": ', "}\n")
)


def _digits(magnitude: np.ndarray) -> np.ndarray:
    """Decimal uint64 values right-aligned in words, leading zeros NUL."""
    n_words = -(-len(str(int(magnitude.max()))) // 4)
    words = np.empty((len(magnitude), n_words), dtype=np.uint32)
    for column in range(n_words - 1, -1, -1):
        higher = magnitude // _QUAD
        index = magnitude - higher * _QUAD
        index[higher != 0] += _QUAD
        words[:, column] = (_LOW_QUADS if column == n_words - 1 else _HIGH_QUADS)[index]
        magnitude = higher
    return words


def _integer(values: np.ndarray) -> np.ndarray:
    """Decimal int64 values, after a sign word when any is negative."""
    words = _digits(np.abs(values).view(np.uint64))  # abs wraps int64 min onto itself: 2**63
    negative = values < 0
    if negative.any():
        words = np.column_stack([_SIGN[negative.view(np.uint8)], words])
    return words


def _timestamp(ts: np.ndarray) -> np.ndarray:
    """json spellings of round(t, 6)."""
    with np.errstate(all="ignore"):
        scaled = ts * 1e6
        k = np.rint(scaled)
        at_half = scaled - np.floor(scaled) == 0.5
        plain = ~np.signbit(ts) & ~at_half & (((k >= 100) & (k < 1e15)) | (k == 0))
    whole, fraction = np.divmod(np.where(plain, k, 0).astype(np.uint64), np.uint64(10**6))
    hundredths, tail = np.divmod(fraction, np.uint64(_QUAD))
    hundredths[tail == 0] += 100
    words = np.column_stack([_digits(whole), _HUNDREDTHS[hundredths], _FRACTION_TAIL[tail]])
    other = np.flatnonzero(~plain)
    if len(other):
        spelled = _words(json.dumps([round(t, 6) for t in ts[other].tolist()])[1:-1].split(", "))
        words = np.pad(words, ((0, 0), (0, max(0, spelled.shape[1] - words.shape[1]))))
        words[other] = 0
        words[other, :spelled.shape[1]] = spelled
    return words


def _render_rows(rows: PacketTable, matrix: np.ndarray) -> np.ndarray:
    """The JSONL text of a block of rows, as a uint8 array. Its character
    matrix is laid out at the start of matrix, a uint32 array of at least
    len(rows) * _ROW_WORDS words."""
    if ((rows.direction < 0) | (rows.direction >= len(DIRECTIONS))
            | (rows.flags >= _N_FLAG_SETS)).any():
        raise ValueError("direction or flag code out of range")
    code = rows.direction.astype(np.intp) * _N_FLAG_SETS + rows.flags
    fields = [
        _ACK_KEY,
        _integer(rows.ack),
        _MIDDLE[code, :_MIDDLE_WORDS[code].max()],
        _integer(rows.payload_len),
        _SEQ_KEY,
        _integer(rows.seq),
        _TS_KEY,
        _timestamp(rows.ts),
        _END,
    ]
    width = sum(field.shape[1] for field in fields)
    words = matrix[:len(rows) * width].reshape(len(rows), width)
    np.concatenate(
        [np.broadcast_to(field, (len(rows), field.shape[1])) for field in fields],
        axis=1, out=words,
    )
    chars = words.view(np.uint8)
    return chars[chars != 0]


def write_trace_jsonl(path, trace: EndpointTrace) -> None:
    obs = trace.observations
    # one matrix for all blocks: a fresh one per block maps and faults in new pages each time
    matrix = np.empty(min(len(obs), _BLOCK_ROWS) * _ROW_WORDS, dtype=np.uint32)
    with replacing(path) as handle:
        for start in range(0, len(obs), _BLOCK_ROWS):
            handle.buffer.write(_render_rows(obs[start:start + _BLOCK_ROWS], matrix))


# --- reading: the writer's grammar, decoded by columns ----------------------
#
# read_trace_jsonl accepts what write_trace_jsonl can write and nothing
# else, parsed from the file's bytes with the writer's own literals:
#
#   _ACK_KEY INT _MIDDLE[direction * 16 + flags] INT _SEQ_KEY INT _TS_KEY TS _END
#
# A block of lines is decoded field by field: one uint8 window per line,
# gathered at the field's start, holds a literal and the token after it.
# INT is -?(0|[1-9][0-9]*) within int64, valued digit column by digit
# column. The 64 middles are prefix-free (each ends at its only
# '"len": '), so the spans [text, text padded with 0xff] are disjoint and
# ordered: one searchsorted over their bounds finds the text a line's
# middle starts with, which decodes and checks direction, flags and the
# "len" key together. TS is plain W.F below 1e9 with one to six fraction
# digits, no trailing zero but a lone one, and k = W * 10**6 +
# F * 10**(6 - len(F)) zero or at least 100: k / 1e6 is then exactly
# float(TS), as k < 2**53. Any other TS must be what json.dumps writes
# for a value round(., 6) keeps (the writer's other branch), and is
# decoded by float().

_INT_WINDOW = 20  # a run of up to 19 digits (int64) and the byte after it
_TS_WINDOW = 17  # a plain timestamp (up to 9 + 1 + 6 bytes) and the byte after it
_FLOAT_SPELLING = 24  # the longest json.dumps of a float, "-2.2250738585072014e-308"
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b" \t\r\x0b\x0c")] = True  # what bytes.strip() strips, \n aside
_ACK_TEXT, _SEQ_TEXT, _TS_TEXT = (
    key.tobytes().rstrip(b"\0") for key in (_ACK_KEY, _SEQ_KEY, _TS_KEY)
)
_CLOSE, _NEWLINE = _END.tobytes().rstrip(b"\0")  # the byte values of "}" and "\n"
_MIDDLE_TEXTS = [row.tobytes().rstrip(b"\0") for row in _MIDDLE]
_MIDDLE_LEN = np.array([len(text) for text in _MIDDLE_TEXTS])
_MIDDLE_WINDOW = int(_MIDDLE_LEN.max()) + 1  # a text, then the INT after it
_MIDDLE_ORDER = np.argsort(np.array(_MIDDLE_TEXTS, dtype=f"S{_MIDDLE_WINDOW}"))
_MIDDLE_BOUNDS = np.array(
    [bound for code in _MIDDLE_ORDER
     for bound in (_MIDDLE_TEXTS[code], _MIDDLE_TEXTS[code].ljust(_MIDDLE_WINDOW, b"\xff"))],
    dtype=f"S{_MIDDLE_WINDOW}",
)


def _read_int(window: np.ndarray):
    """The INT at the start of each row of a uint8 window _INT_WINDOW + 1
    bytes wide: int64 values, token lengths, and the rows where no
    canonical int64 starts. The digits of negative rows are shifted onto
    the sign in place."""
    negative = window[:, 0] == ord("-")
    if negative.any():
        window[negative, :-1] = window[negative, 1:]
    digits = window - np.uint8(ord("0"))  # contiguous: argmin reads its rows in place
    is_digit = digits < 10
    n = np.argmin(is_digit, axis=1)  # 20 digits read as 20, more as 0
    bad = (n == 0) | (n == _INT_WINDOW) | ((digits[:, 0] == 0) & (n > 1))
    n = np.clip(n, 1, _INT_WINDOW - 1)
    magnitude = _digit_values(digits * is_digit, n)
    bad |= magnitude - negative > np.uint64(2**63 - 1)  # -0 wraps above it too
    values = magnitude.view(np.int64)
    if negative.any():
        values = np.where(negative, -values, values)  # -(2**63) wraps onto itself
    return values, n + negative, bad


def _plain_timestamps(window: np.ndarray, length: np.ndarray):
    """k / 1e6 for the rows of a uint8 window _TS_WINDOW bytes wide with a
    plain W.F timestamp of the given length at its start, and those rows."""
    digits = window - np.uint8(ord("0"))  # contiguous: argmin reads its rows in place
    is_digit = digits < 10
    values = digits * is_digit  # the point reads as a 0 digit
    whole = np.argmin(is_digit, axis=1)
    fraction = length - whole - 1
    point = np.arange(0, digits.size, digits.shape[1]) + whole  # flat index
    plain = (
        (digits.ravel()[point] == (ord(".") - ord("0")) % 256)
        & (whole >= 1) & (whole <= 9) & (fraction >= 1) & (fraction <= 6)
        & ((digits[:, 0] != 0) | (whole == 1))
    )
    is_digit.ravel()[point] = True
    plain &= np.argmin(is_digit, axis=1) == length  # digits to the end
    fraction = np.where(plain, fraction, 1)
    last = np.where(plain, point + fraction, point)
    plain &= (digits.ravel()[last] != 0) | (fraction == 1)
    scaled = _digit_values(values, np.where(plain, length, 3))
    upper, lower = np.divmod(scaled, _POW10[fraction + 1])
    k = upper * np.uint64(10**6) + lower * _POW10[6 - fraction]
    plain &= (k == 0) | (k >= 100)
    return k / 1e6, plain


def _spelled_timestamp(token: bytes) -> float | None:
    """float(token) if the writer's json.dumps branch writes exactly token."""
    if len(token) > _FLOAT_SPELLING:
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    if json.dumps(value).encode() != token or (value == value and round(value, 6) != value):
        return None
    return value


def _decode_lines(raw: bytes, data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Columns of the lines [starts, ends) of data, and in the order of the
    fields a list of (rows failing, reason)."""

    head = windows(data, starts, len(_ACK_TEXT) + _INT_WINDOW + 1)
    checks = [(~starts_with(head, _ACK_TEXT), "expected '{\"ack\": '")]
    ack, n, bad = _read_int(head[:, len(_ACK_TEXT):])
    checks.append((bad, '"ack" is not a canonical int64'))
    pos = starts + len(_ACK_TEXT) + n
    middle = windows(data, pos, _MIDDLE_WINDOW).view(f"S{_MIDDLE_WINDOW}").ravel()
    bound = np.searchsorted(_MIDDLE_BOUNDS, middle, side="right")
    checks.append((bound % 2 == 0, '"dir", "flags" and "len" not as the writer spells them'))
    code = _MIDDLE_ORDER[np.minimum(bound // 2, len(_MIDDLE_ORDER) - 1)]
    pos = pos + _MIDDLE_LEN[code]
    payload_len, n, bad = _read_int(windows(data, pos, _INT_WINDOW + 1))
    checks.append((bad, '"len" is not a canonical int64'))
    pos = pos + n
    sequence = windows(data, pos, len(_SEQ_TEXT) + _INT_WINDOW + 1)
    checks.append((~starts_with(sequence, _SEQ_TEXT), "expected ', \"seq\": '"))
    seq, n, bad = _read_int(sequence[:, len(_SEQ_TEXT):])
    checks.append((bad, '"seq" is not a canonical int64'))
    pos = pos + len(_SEQ_TEXT) + n
    tail = windows(data, pos, len(_TS_TEXT) + _TS_WINDOW)
    pos = pos + len(_TS_TEXT)
    close = ends - 1
    checks += [
        (~starts_with(tail, _TS_TEXT), "expected ', \"ts\": '"),
        ((data[close] != _CLOSE) | (close <= pos), "expected a timestamp and '}' to end the line"),
    ]
    ts, plain = _plain_timestamps(tail[:, len(_TS_TEXT):], close - pos)
    spelled = np.ones(len(ts), dtype=bool)
    for row in np.flatnonzero(~plain & ~np.logical_or.reduce([fail for fail, _ in checks])):
        value = _spelled_timestamp(raw[pos[row]:close[row]])
        spelled[row] = value is not None
        ts[row] = value if value is not None else 0.0
    checks.append((~spelled, '"ts" is not spelled as the writer spells a timestamp'))
    direction, flags = np.divmod(code, _N_FLAG_SETS)
    return (ts, direction, seq, ack, payload_len, flags), checks


def _data_lines(path, raw: bytes, data: np.ndarray, size: int):
    """Start, end and 1-based number of every line of raw[:size] that holds
    a record: blank lines and a leading {"_meta": ...} line are skipped."""
    ends = np.flatnonzero(data[:size] == _NEWLINE)
    if size == 0 or raw[size - 1] != _NEWLINE:
        ends = np.append(ends, size)  # a last line without its newline
    starts = np.concatenate(([0], ends[:-1] + 1))
    numbers = np.arange(1, len(starts) + 1)
    blank = ends == starts
    for line in np.flatnonzero(~blank & _SPACE[data[starts]]):
        blank[line] = not raw[starts[line]:ends[line]].strip()
    if blank.any():
        starts, ends, numbers = starts[~blank], ends[~blank], numbers[~blank]
    if len(starts) and raw.startswith(b'{"_meta":', starts[0]):
        load_json(raw[starts[0]:ends[0]], path, int(numbers[0]))
        starts, ends, numbers = starts[1:], ends[1:], numbers[1:]
    return starts, ends, numbers


def read_trace_jsonl(path, vantage_id: str) -> EndpointTrace:
    """Read a whole trace file at once.

    The file must hold what write_trace_jsonl writes (see above). Any
    other line, or a timestamp below the previous one, raises InputError
    naming the file and line.
    """
    with reading(path, "trace file", "rb") as handle:
        raw = handle.read()
    size = len(raw)
    raw += bytes(PAD)
    data = np.frombuffer(raw, dtype=np.uint8)
    starts, ends, numbers = _data_lines(path, raw, data, size)
    blocks = []
    for first in range(0, max(len(starts), 1), _BLOCK_ROWS):  # one block when empty
        rows = slice(first, first + _BLOCK_ROWS)
        columns, checks = _decode_lines(raw, data, starts[rows], ends[rows])
        failing = np.logical_or.reduce([fail for fail, _ in checks])
        if failing.any():
            row = int(np.argmax(failing))
            reason = next(reason for fail, reason in checks if fail[row])
            line = raw[starts[rows][row]:ends[rows][row]]
            raise InputError(f"{path}:{numbers[rows][row]}: {reason}: {line[:120]!r}")
        blocks.append(columns)
    table = PacketTable(*map(np.concatenate, zip(*blocks)))
    row = _first_decrease(table.ts)
    if row is not None:
        raise InputError(f"{path}:{numbers[row]}: timestamp decreases")
    return EndpointTrace(vantage_id, table)
