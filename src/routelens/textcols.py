"""Line-oriented text as numpy columns: the byte primitives that decode a
whole file at once, and the frame the update and traceroute readers
share (the packet-trace codec, tracefile, is built on the primitives).

A reader takes the file's bytes with PAD zero bytes after them, so that
a fixed-width window at any position stays inside the buffer, and works
on uint8 windows gathered at each line's fields: starts_with compares a
literal and _digit_values reads a run of digits. text_lines splits lines
as text mode does. The update and traceroute readers share one frame
and one Texts interner (below).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .core import reading

PAD = 256  # zero bytes after the file; the windows of a bad line stay inside


def windows(data: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of a contiguous uint8 array from each position, one
    row each."""
    return np.ndarray((len(data) - width + 1, width), np.uint8, data, strides=(1, 1))[pos]


def starts_with(window: np.ndarray, text: bytes) -> np.ndarray:
    """Rows of a uint8 window that begin with text, compared 8 bytes at a time."""
    whole = len(text) // 8 * 8
    ok = (window[:, :whole].view(np.uint64) == np.frombuffer(text[:whole], np.uint64)).all(axis=1)
    for column in range(whole, len(text)):
        ok &= window[:, column] == text[column]
    return ok


_POW10 = 10 ** np.arange(20, dtype=np.uint64)


def _digit_values(digits: np.ndarray, n: np.ndarray) -> np.ndarray:
    """uint64 values of the runs of n[i] (1..19) digits that start the rows
    of a window of byte values minus ord("0") with non-digits zeroed. The
    bytes past a run are at most 9 each, so they add less than one unit of
    its last digit and floor division drops them."""
    width = int(n.max(initial=1))
    value = digits[:, 0].astype(np.uint64)
    for column in range(1, width):
        value *= np.uint64(10)
        value += digits[:, column]
    return value // _POW10[width - n]


_LF, _CR = b"\n\r"


def text_lines(data: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each line of data[:size] as text mode splits it:
    "\\n", "\\r" and "\\r\\n" each end a line, which excludes them, and the
    last line may lack an end. data must run on past size (PAD)."""
    breaks = np.flatnonzero(data[:size] <= max(_LF, _CR))  # one pass; then drop tabs and such
    breaks = breaks[(data[breaks] == _LF) | (data[breaks] == _CR)]
    ends = breaks[~((data[breaks] == _LF) & (data[breaks - 1] == _CR))]  # CR LF ends one line
    starts = np.concatenate(([0], ends + 1 + ((data[ends] == _CR) & (data[ends + 1] == _LF))))
    ends = np.append(ends, size)
    if starts[-1] == size:  # nothing after the last break
        starts, ends = starts[:-1], ends[:-1]
    return starts, ends


# --- the line-reader frame: fast-shape lines by columns, the rest by line ----
#
# bgp.parse_updates and paths.load_traceroutes read a file alike: read_lines
# checks it is UTF-8 and splits its lines, fast_rows decodes fast-shape
# lines a block at a time, one Texts per field codes its texts across
# blocks and files, and by_line merges fast and per-line rows by line.

_BLOCK_LINES = 1 << 12  # lines decoded at once; a block's arrays stay near a MiB
_MAX_FIELD = 240  # bytes of the longest field field_windows takes
_TAIL = np.tri(_MAX_FIELD + 2, _MAX_FIELD + 8, -1, dtype=np.uint8)  # [n, :w] keeps n bytes


@contextmanager
def read_lines(path, what: str):
    """raw, the file's bytes and PAD zero bytes, data, raw as uint8, and
    the start and end of each line (text_lines), in core.reading's with
    block; a file that is not UTF-8 fails as text mode fails, at once."""
    with reading(path, what, "rb") as handle:
        raw = handle.read() + bytes(PAD)
        size = len(raw) - PAD
        data = np.frombuffer(raw, dtype=np.uint8)
        if data.max() >= 0x80:
            str(memoryview(raw)[:size], "utf-8")
        yield (raw, data, *text_lines(data, size))


def fast_rows(decode, starts: np.ndarray, ends: np.ndarray, dtypes: tuple) -> list[np.ndarray]:
    """Which lines hold a fast row (with a slot past the last line), and
    the line (an index into starts) and columns of the fast rows, which
    decode(starts, ends) gives as (line, *columns) for each block of
    _BLOCK_LINES lines; dtypes are the columns' when there is no line."""
    blocks = [tuple(np.empty(0, dtype) for dtype in (np.int64, *dtypes))]
    for first in range(0, len(starts), _BLOCK_LINES):
        block = slice(first, first + _BLOCK_LINES)
        line, *columns = decode(starts[block], ends[block])
        blocks.append((line + first, *columns))
    line, *columns = map(np.concatenate, zip(*blocks))
    is_fast = np.zeros(len(starts) + 1, dtype=bool)
    is_fast[line] = True
    return [is_fast, line, *columns]


def by_line(fast_line: np.ndarray, fast: list, slow_line, slow: list) -> list[np.ndarray]:
    """The columns of the fast rows, at lines fast_line, and of the slow
    rows, at lines slow_line (sequences of one value per row), as one set
    of columns in line order, each of its fast column's dtype."""
    if not len(slow_line):
        return list(fast)
    order = np.argsort(np.concatenate([fast_line, slow_line]), kind="stable")
    return [np.concatenate([f, np.asarray(s, dtype=f.dtype)])[order] for f, s in zip(fast, slow)]


def field_windows(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The fields [starts, starts + lengths) of data as uint8 rows of the
    fewest whole 8-byte words that leave a NUL after the longest field,
    NUL after each field."""
    width = (int(lengths.max(initial=0)) // 8 + 1) * 8
    rows = windows(data, starts, width)  # a fancy-indexed copy
    rows *= _TAIL[lengths, :width]
    return rows


class Texts:
    """The distinct texts of one field and their decoded values, by code.

    by_window holds each fast-shape text met so far, as its exact bytes,
    with its code (-1 for a text off the fast shape, whose lines go to
    the per-line grammar); by_text holds that grammar's texts. While
    injective, no two codes have one value."""

    def __init__(self, decode_rows) -> None:
        # rows, lengths -> the rows that decode, their values in that
        # order, and whether the texts of distinct values are distinct
        self.decode_rows = decode_rows
        self.by_window: dict[bytes, int] = {}
        self.by_text: dict[str, int] = {}
        self.values: list = []
        self.injective = True

    def of_rows(self, rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The code of each field, given as field_windows rows."""
        # a field is printable ASCII padded with NULs, which the S view
        # strips: each key is the field's text whatever the block's width
        keys, first, inverse = np.unique(
            rows.view(f"S{rows.shape[1]}").ravel(), return_index=True, return_inverse=True
        )
        keys = keys.tolist()
        codes = np.array([self.by_window.get(key, -2) for key in keys], dtype=np.int64)
        new = np.flatnonzero(codes == -2)  # texts not met yet
        if len(new):
            new = new[np.argsort(first[new])]
            decoded, values, injective = self.decode_rows(rows[first[new]], lengths[first[new]])
            codes[new] = -1
            codes[new[decoded]] = np.arange(len(self.values), len(self.values) + len(values))
            self.values += values
            self.injective &= injective
            self.by_window.update(zip(map(keys.__getitem__, new.tolist()), codes[new].tolist()))
        return codes[inverse]

    def of_text(self, text: str, decode) -> int:
        """The code of a text, decode(text) the first time (which may raise)."""
        code = self.by_text.get(text)
        if code is None:
            value = decode(text)
            code = self.by_text[text] = len(self.values)
            self.values.append(value)
            self.injective = False
        return code

    def ids(self, codes: np.ndarray) -> tuple[np.ndarray, tuple]:
        """Per code its value's id, and the distinct values in id order:
        the order of each value's first appearance in codes, in which
        code -1 stays -1."""
        n = len(codes)
        first = np.full(len(self.values) + 1, n)  # the last slot is code -1's
        np.minimum.at(first, codes, np.arange(n))
        first = first[:-1]
        if self.injective and (first[1:] > first[:-1]).all() and (first[-1:] < n).all():
            return codes, tuple(self.values)  # already numbered so
        seen = np.flatnonzero(first < n)
        seen = seen[np.argsort(first[seen])]
        values = list(map(self.values.__getitem__, seen.tolist()))
        distinct = dict.fromkeys(values)
        ids = np.full(len(self.values) + 1, -1, dtype=np.int64)
        if len(distinct) == len(values):
            ids[seen] = np.arange(len(seen))
        else:  # texts with one value, such as "100 100 200" and "100 200"
            for i, value in enumerate(distinct):
                distinct[value] = i
            ids[seen] = list(map(distinct.__getitem__, values))
        return ids[codes], tuple(distinct)


def text_rows(rows: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, list[str], bool]:
    """Every field and its text as its value, for a field whose texts are
    its values."""
    texts = rows.view(f"S{rows.shape[1]}").ravel().tolist()
    return np.arange(len(texts)), [text.decode() for text in texts], True
