"""Shared domain types for AS-level anonymity analysis.

IPv4 prefixes, relay descriptors, AS paths, interval-annotated route
entries, and a longest-prefix-match table with a build-then-freeze
lifecycle. All analysis modules treat these as value objects; only
PrefixTable is mutable, and only until it is frozen. Every input file is
read here too, and every JSON document field is checked by its one rule.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import reprlib
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cache, lru_cache
from typing import Any, Callable, ClassVar, Iterable

import numpy as np

from .artifacts import replacing


class InputError(ValueError):
    """An input file is unusable; the message names the file (and line)."""


@contextmanager
def reading(path, what: str, mode: str = "r"):
    """Handle onto the input file path, the read side of artifacts.replacing:
    a missing, unreadable or non-UTF-8 file, a directory and a csv.Error
    become InputError naming the file, e.g. "relay list not found: <path>"."""
    text = "b" not in mode
    try:
        handle = open(path, mode, encoding="utf-8" if text else None, newline="" if text else None)
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except IsADirectoryError:
        raise InputError(f"{what} is a directory: {path}") from None
    except OSError as exc:
        raise InputError(f"{what} unreadable: {path}: {exc.strerror}") from None
    with handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {what} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise InputError(f"{path}: {what} is not CSV: {exc}") from None


def read_json(path, what: str):
    """The JSON document in path; a syntax error is reported at file:line."""
    with reading(path, what) as handle:
        return load_json(handle.read(), path)


def load_json(text, path, line: int = 1):
    """json.loads(text), where text starts at line `line` of path. Text that
    is not JSON, or nests too deep to parse, raises InputError at its line."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}:{line - 1 + getattr(exc, 'lineno', 1)}: not JSON: {exc}") from None


def csv_records(path, what: str, columns: Iterable[str], convert: Callable[[dict], Any]) -> list:
    """convert(row) for each data row of a headed CSV, # lines skipped; no
    header, no records. A header lacking one of columns is reported at its
    line; a row shorter than the header or whose convert raises ValueError,
    KeyError or TypeError as "<file>:<line>: bad <first word of what> row"."""
    records = []
    with reading(path, what) as handle:
        numbered = [(no, line) for no, line in enumerate(handle, 1) if not line.startswith("#")]
        reader = csv.DictReader(line for _, line in numbered)
        if reader.fieldnames is None:
            return records
        missing = sorted(set(columns) - set(reader.fieldnames))
        if missing:
            raise InputError(f"{path}:{numbered[0][0]}: {what} header lacks {', '.join(missing)}")
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("too few fields")
                records.append(convert(row))
            except (ValueError, KeyError, TypeError) as exc:
                line_no = numbered[reader.line_num - 1][0]
                raise InputError(f"{path}:{line_no}: bad {what.split()[0]} row: {exc}") from None
    return records


def ip_to_int(text: str) -> int:
    """The address of a dotted quad: four dot-separated octets of ASCII
    digits (leading zeros allowed), each at most 255, with surrounding
    whitespace ignored. This is the one address grammar; ip_to_int_many
    parses the same language."""
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        # int() alone would also take a sign, "_" separators and non-ASCII digits
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"not a dotted quad: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def quads_at(chars: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The addresses of the spans [starts, ends) of a uint8 array that hold
    a canonical quad (four octets of 1-3 ASCII digits at most 255, three
    dots, no other byte), as int64, and which spans do; the value of any
    other span is 0."""
    dots = np.append(np.flatnonzero(chars == ord(".")), [len(chars)] * 4)  # then none
    first_dot = np.searchsorted(dots, starts)
    canonical = (dots[first_dot + 2] < ends) & (dots[first_dot + 3] >= ends)
    rows = np.flatnonzero(canonical)
    at = first_dot[rows]
    digit = chars - np.uint8(ord("0"))  # wraps past 9 for every byte but a digit
    exact = np.ones(len(rows), dtype=bool)
    value = np.zeros(len(rows), dtype=np.int64)
    begin = starts[rows]
    for end in (dots[at], dots[at + 1], dots[at + 2], ends[rows]):
        size = end - begin
        # the tens and hundreds reads may fall before the octet (even wrap
        # to the array's end, as a span holds three dots); the size masks zero them
        ones = digit[end - 1]
        tens = digit[end - 2] * (size > 1)
        hundreds = digit[end - 3] * (size > 2)
        exact &= (size - 1).view(np.uint64) < 3
        exact &= np.maximum(np.maximum(ones, tens), hundreds) <= 9
        octet = ones + tens * np.int16(10) + hundreds * np.int16(100)
        exact &= octet <= 255
        value = (value << 8) | octet
        begin = end + 1
    canonical[rows[~exact]] = False
    values = np.zeros(len(starts), dtype=np.int64)
    values[rows[exact]] = value[exact]
    return values, canonical


def ip_to_int_many(texts: list[str]) -> np.ndarray:
    """ip_to_int of every text, as int64 in order. The canonical spelling
    is decoded by quads_at from the uint8 characters of all texts at once;
    any other text goes through ip_to_int, which either accepts it or
    raises its ValueError."""
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    # one byte per character: a non-ASCII character becomes "?", which no quad holds
    chars = np.frombuffer("".join(texts).encode("ascii", "replace"), dtype=np.uint8)
    ends = np.cumsum(lengths)
    values, canonical = quads_at(chars, ends - lengths, ends)
    for i in np.flatnonzero(~canonical).tolist():
        values[i] = ip_to_int(texts[i])
    return values


def int_to_ip(value: int) -> str:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


# network mask of each prefix length 0..32
_MASKS = (0,) + tuple((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(1, 33))
# each spelling of a prefix length: 1-2 ASCII digits, as ip_to_int reads an octet (int() would
# also take "+16", "1_6" and " 16")
_LENGTHS = {spelling: n for n in range(33) for spelling in (str(n), f"{n:02d}")}


@dataclass(frozen=True, order=True)
class IpPrefix:
    """IPv4 prefix. The base address is normalized (host bits zeroed) on
    construction, so normalization is idempotent by construction."""

    base: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if not 0 <= self.base <= 0xFFFFFFFF:
            raise ValueError(f"base address out of range: {self.base}")
        object.__setattr__(self, "base", self.base & _MASKS[self.length])

    @classmethod
    def parse(cls, text: str) -> "IpPrefix":
        addr, _, length = text.strip().partition("/")
        if length not in _LENGTHS:
            raise ValueError(f"not a prefix length in {text!r}")
        return cls(ip_to_int(addr), _LENGTHS[length])

    @property
    def last_address(self) -> int:
        return self.base | (0xFFFFFFFF >> self.length)

    def covers(self, address: int) -> bool:
        return (address & _MASKS[self.length]) == self.base

    def __str__(self) -> str:
        return f"{int_to_ip(self.base)}/{self.length}"


# --- JSON field rules -----------------------------------------------------------
#
# A JSON field's rule is (kind, limit), declared on its dataclass field by
# rule(). A kind is one of the scalars below, [kind] (a list of any length,
# read as a tuple), a tuple of kinds (a list of exactly those), OrNull(kind)
# or a dataclass (the list of its fields in order). decode checks a value's
# kind, and every number read must be finite; Document.validate applies the
# limits: a RANGES limit bounds a number, and a tuple limit lists the strings
# allowed.
INTEGER, NUMBER, STRING = "an integer", "a number", "a string"  # not a bool; read as float
FLAG, ADDRESS, PREFIX = "0 or 1", "a dotted quad", "an IPv4 prefix"  # bool; ip_to_int; str
RANGES = {
    "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
    "in (0, 1)": lambda v: 0 < v < 1, "in [0, 1)": lambda v: 0 <= v < 1,
}


class FieldError(ValueError):
    """A value against its field rule, or a document failing a cross-field
    check; the message names the field by its JSON path."""


@dataclass(frozen=True)
class OrNull:
    kind: Any


def rule(kind, limit: str | tuple | None = None, **field_args):
    return field(metadata={"rule": (kind, limit)}, **field_args)


@cache
def _rules(cls) -> tuple[tuple[str, Any, Any], ...]:
    """(name, kind, limit) of each field of a dataclass, in order."""
    return tuple((f.name, *f.metadata["rule"]) for f in fields(cls))


def _fail(what: str, value, where: str = "") -> FieldError:
    return FieldError(f"{where} must be {what}, not {reprlib.repr(value)}")


def _finite(limit: str | None) -> str:
    return "finite" + (f" and {limit}" if limit else "")


def cast(value, kind: str, where: str = ""):
    """value read as the scalar kind, before its limit; a prefix is read in
    its canonical spelling, so one prefix is one string however written."""
    t = type(value)
    if (t is str and kind == STRING) or (t is int and kind == INTEGER):
        return value
    if kind == NUMBER and (t is float or t is int):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            raise _fail("finite", value, where) from None
    if kind == FLAG and (t is int or t is bool) and value in (0, 1):
        return bool(value)
    if t is str and kind in (ADDRESS, PREFIX):
        try:
            return ip_to_int(value) if kind == ADDRESS else _canonical_prefix(value)
        except ValueError:
            pass
    raise _fail(kind, value, where)


@lru_cache(maxsize=1 << 14)  # a routing scenario names each prefix in many routes
def _canonical_prefix(text: str) -> str:
    return str(IpPrefix.parse(text))


def bound(value, limit: str | tuple | None, where: str = ""):
    """value when it is one of a tuple limit's strings, or a finite number
    within the RANGES limit (any finite number when limit is None)."""
    if type(limit) is tuple:
        if value in limit:
            return value
        raise _fail(" or ".join(map(repr, limit)), value, where)
    # an int is finite, and math.isfinite cannot take one past the float range
    if (type(value) is int or math.isfinite(value)) and (limit is None or RANGES[limit](value)):
        return value
    raise _fail(_finite(limit), value, where)


def decode(value, kind, limit=None):
    """value read by kind, a number only when finite; limit only words that
    message, as validate() applies it. A FieldError names the JSON path
    below value, e.g. "[3][1] must be 0 or 1, not 'no'"."""
    if type(kind) is str:
        value = cast(value, kind)
        if kind == NUMBER and not math.isfinite(value):
            raise _fail(_finite(limit), value)
        return value
    if type(kind) is OrNull:
        return None if value is None else decode(value, kind.kind, limit)
    if type(kind) is list:
        if type(value) is not list:
            raise _fail("a list", value)
        rules = [(kind[0], None)] * len(value)
    else:
        rules = [(k, None) for k in kind] if type(kind) is tuple else [r[1:] for r in _rules(kind)]
        if type(value) is not list or len(value) != len(rules):
            raise _fail(f"a list of {len(rules)}", value)
    items: list = []
    try:
        for v, (k, r) in zip(value, rules):
            items.append(decode(v, k, r))
    except FieldError as exc:
        exc.args = (f"[{len(items)}]{exc.args[0]}",)
        raise
    return tuple(items) if type(kind) in (list, tuple) else kind(*items)


_WRITE = {FLAG: int, ADDRESS: int_to_ip}  # the scalars that are not their own JSON


def encode(value, kind):
    """The JSON value that decode reads as value by kind."""
    if type(kind) is str:
        return _WRITE[kind](value) if kind in _WRITE else value
    if type(kind) is OrNull:
        return None if value is None else encode(value, kind.kind)
    if type(kind) is list:
        return [encode(v, kind[0]) for v in value]
    if type(kind) is tuple:
        return [encode(v, k) for v, k in zip(value, kind)]
    return [encode(getattr(value, name), k) for name, k, _ in _rules(kind)]


class Document:
    """A dataclass read from and written to a JSON object of its fields, each
    by its rule, plus "kind": KIND when KIND is set."""

    KIND: ClassVar[str] = ""

    def to_dict(self) -> dict:
        fields_ = {name: encode(getattr(self, name), kind) for name, kind, _ in _rules(type(self))}
        return {"kind": self.KIND, **fields_} if self.KIND else fields_

    @classmethod
    def from_dict(cls, data, where: str = ""):
        """The document of a JSON object whose fields left out take their
        defaults, each value of its field's kind; validate() applies the
        limits. The "kind" key is the caller's, and where, e.g. "timing",
        names the object in the JSON path of a bad field."""
        prefix = f"{where}." if where else ""
        if type(data) is not dict:
            raise _fail("a JSON object", data, where or "the document")
        rules = {name: (kind, limit) for name, kind, limit in _rules(cls)}
        for key in data:
            if key not in rules and not (key == "kind" and cls.KIND):
                raise FieldError(f"unknown key {prefix + key!r}")
        values = {}
        for f in fields(cls):
            if f.name in data:
                try:
                    values[f.name] = decode(data[f.name], *rules[f.name])
                except FieldError as exc:
                    raise FieldError(prefix + f.name + exc.args[0]) from None
            elif f.default is MISSING:
                raise FieldError(f"missing key {prefix + f.name!r}")
        return cls(**values)

    def validate(self, where: str = "") -> None:
        """Apply every field's limit, in the records of list fields too, naming
        a field as from_dict does; a document type adds its cross-field
        checks after."""
        for name, kind, limit in _rules(type(self)):
            _check_limit(getattr(self, name), kind, limit, f"{where}.{name}" if where else name)


def _check_limit(value, kind, limit, where: str) -> None:
    if limit is not None:
        bound(value, limit, where)
    elif type(kind) is list and isinstance(kind[0], type) and any(r[2] for r in _rules(kind[0])):
        for j, record in enumerate(value):
            for i, (name, k, r) in enumerate(_rules(kind[0])):
                _check_limit(getattr(record, name), k, r, f"{where}[{j}][{i}]")


@dataclass(frozen=True)
class RelayDescriptor:
    """One relay from a consensus-style listing.

    Bandwidth is in arbitrary consensus units; circuit analyses only admit
    relays with at least one of the guard/exit flags set.
    """

    address: int = rule(ADDRESS)
    is_guard: bool = rule(FLAG)
    is_exit: bool = rule(FLAG)
    bandwidth: float = rule(NUMBER)
    nickname: str = rule(STRING, default="")


def load_relays(path) -> list[RelayDescriptor]:
    """Read a relay list CSV with header address,is_guard,is_exit,bandwidth,nickname."""
    return csv_records(
        path, "relay list", ("address", "is_guard", "is_exit", "bandwidth"),
        lambda row: RelayDescriptor(
            ip_to_int(row["address"]), _parse_bool(row["is_guard"]), _parse_bool(row["is_exit"]),
            float(row["bandwidth"]), row.get("nickname") or "",
        ),
    )


def write_relays(path, relays: Iterable[RelayDescriptor]) -> None:
    """The relay list CSV, each row a relay's fields as a scenario's relays list spells them."""
    with replacing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f.name for f in fields(RelayDescriptor)])
        writer.writerows(encode(list(relays), [RelayDescriptor]))


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no", ""):
        return False
    raise ValueError(f"not a boolean: {text!r}")


MAX_ASN = 2**32 - 1


def parse_asn(text: str) -> int:
    """An AS number: ASCII digits (leading zeros allowed), at most MAX_ASN,
    with surrounding whitespace ignored, as ip_to_int reads an octet. This
    is the one AS-number grammar. int() alone would also take a sign, "_"
    separators and non-ASCII digits; text that int() rejects keeps its
    message."""
    digits = text.strip()
    if digits.isdigit() and digits.isascii():
        value = int(digits)
        if value <= MAX_ASN:
            return value
    else:
        int(text)  # raises int()'s own message for text it rejects
    raise ValueError(f"not an AS number in 0..{MAX_ASN}: {text!r}")


def path_ases(ases: Iterable[int]) -> tuple[int, ...]:
    """ases as an AS path: a non-empty tuple with consecutive repeats
    (prepend padding) collapsed."""
    ases = tuple(ases)
    if not ases:
        raise ValueError("empty AS path")
    if any(map(operator.eq, ases, ases[1:])):
        ases = tuple(asn for i, asn in enumerate(ases) if i == 0 or asn != ases[i - 1])
    return ases


def parse_path(text: str) -> tuple[int, ...]:
    """The path_ases of whitespace-separated AS numbers (parse_asn)."""
    tokens = text.split()
    if text.isascii() and "".join(tokens).isdigit():  # one check for every token
        ases = tuple(map(int, tokens))
        if max(ases) <= MAX_ASN:
            return path_ases(ases)
    return path_ases(map(parse_asn, tokens))  # names the bad token, or the empty path


@dataclass(frozen=True)
class VantageSession:
    """A BGP session acting as a stand-in for clients/destinations behind it."""

    session_id: str
    local_as: int


def merge_intervals_grouped(
    group: np.ndarray, start: np.ndarray, end: np.ndarray, gap: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union of each group's closed spans, spans at most gap
    apart fusing too: the (group, start, end) columns of the merged spans,
    by group, then start.

    Spans sort by (group, start, end); a span opens a merged span unless
    start <= E + gap, E being the running maximum of its group's earlier
    ends, in floating point as a span-by-span merge computes it. That
    maximum is kept as a rank into the sorted times (equal times share the
    rank of the first), offset per group so that it never carries over
    from an earlier group, so every merged end is exact.
    """
    order = np.lexsort((end, start, group))
    group, start, end = group[order], start[order], end[order]
    if not len(group):
        return group, start, end
    times = np.sort(np.concatenate((start, end)))
    first = np.ones(len(group), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    offset = (np.cumsum(first) - 1) * len(times)
    reach = np.maximum.accumulate(np.searchsorted(times, end) + offset) - offset
    opens = first.copy()
    opens[1:] |= start[1:] > times[reach[:-1]] + gap
    heads = np.flatnonzero(opens)
    tails = np.append(heads[1:], len(group)) - 1
    return group[heads], start[heads], times[reach[tails]]


@dataclass
class RouteEntry:
    """Interval during which a session forwarded a relay-hosting prefix
    via a given AS path. t_end is None while the entry is active."""

    t_start: float
    t_end: float | None
    prefix: IpPrefix
    path: tuple[int, ...]  # the path's ASes, prepends collapsed


class PrefixTable:
    """Longest-prefix-match table with opaque payloads.

    Filled by insert (a re-inserted prefix keeps its last payload), then
    frozen: freeze() sorts the entries by prefix and keeps, per length
    present, the sorted base addresses of that length's entries. Queries
    read those arrays, one searchsorted per length present (at most 33)
    for a whole address array; a frozen table is immutable, so it can be
    shared across concurrent readers.
    """

    def __init__(self) -> None:
        self._payloads: dict[IpPrefix, Any] = {}
        self._entries: tuple[tuple[IpPrefix, Any], ...] | None = None  # set by freeze
        self._levels: list[tuple[int, np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._payloads)

    def insert(self, prefix: IpPrefix, payload: Any) -> None:
        if self._entries is not None:
            raise RuntimeError("PrefixTable is frozen")
        self._payloads[prefix] = payload

    def freeze(self) -> "PrefixTable":
        if self._entries is None:
            entries = sorted(self._payloads.items(), key=lambda e: (e[0].base, e[0].length))
            self._entries = tuple(entries)
            pairs = [(prefix.base, prefix.length) for prefix, _ in entries]
            base, length = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            # (length, bases of that length ascending, their entry indices), longest first
            for size in sorted(set(length.tolist()), reverse=True):
                at = np.flatnonzero(length == size)
                self._levels.append((size, base[at], at))
        return self

    def entries(self) -> tuple[tuple[IpPrefix, Any], ...]:
        """Every (prefix, payload) in prefix order; the queries index this tuple."""
        return self._frozen()._entries

    def _frozen(self) -> "PrefixTable":
        if self._entries is None:
            raise RuntimeError("PrefixTable queries need a frozen table")
        return self

    def _matches(self, addresses) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per length present, longest first: the positions of the addresses
        some entry of that length covers, and that entry's index."""
        addresses = np.asarray(addresses, dtype=np.int64)
        found = []
        for size, bases, index in self._frozen()._levels:
            masked = addresses & _MASKS[size]
            at = np.minimum(np.searchsorted(bases, masked), len(bases) - 1)
            hit = np.flatnonzero(bases[at] == masked)
            found.append((hit, index[at[hit]]))
        return found

    def lookup_many(self, addresses) -> np.ndarray:
        """For each address of an integer array (or list), the index into
        entries() of its most specific covering entry, or -1 where none
        covers it."""
        found = np.full(len(addresses), -1, dtype=np.int64)
        for hit, entry in reversed(self._matches(addresses)):  # a longer cover overwrites
            found[hit] = entry
        return found

    def covering_many(self, addresses) -> tuple[np.ndarray, np.ndarray]:
        """Every entry covering each address of an integer array (or list):
        aligned (address position, entry index) arrays, by address position
        and, for one address, longest prefix first."""
        matches = self._matches(addresses)
        position = np.concatenate([hit for hit, _ in matches] + [np.empty(0, np.int64)])
        entry = np.concatenate([e for _, e in matches] + [np.empty(0, np.int64)])
        order = np.argsort(position, kind="stable")
        return position[order], entry[order]


def load_prefix_origins(path) -> PrefixTable:
    """Read a prefix,asn CSV into a frozen PrefixTable keyed by origin AS
    number. # lines are skipped, and a first other row whose first cell
    is "prefix" is the header; a headerless file starts with data.

    A bad prefix, AS number or missing column raises InputError naming
    the file and line.
    """
    table = PrefixTable()
    with reading(path, "prefix-to-AS mapping") as handle:
        reader = csv.reader(handle)
        rows = (row for row in reader if row and not row[0].startswith("#"))
        for i, row in enumerate(rows):
            if i == 0 and row[0].strip().lower() == "prefix":
                continue
            try:
                table.insert(IpPrefix.parse(row[0]), parse_asn(row[1]))
            except (ValueError, IndexError) as exc:
                raise InputError(f"{path}:{reader.line_num}: bad prefix row: {exc}") from None
    return table.freeze()


class RelayIndex:
    """Relays sorted by address, and their addresses as one sorted int64
    array for prefix-coverage queries."""

    def __init__(self, relays: Iterable[RelayDescriptor]) -> None:
        self.relays = sorted(relays, key=lambda r: r.address)
        self.addresses = np.array([relay.address for relay in self.relays], dtype=np.int64)

    @classmethod
    def of(cls, relays: "Iterable[RelayDescriptor] | RelayIndex") -> "RelayIndex":
        """The index itself, or a new index over a relay list."""
        return relays if isinstance(relays, RelayIndex) else cls(relays)

    def __len__(self) -> int:
        return len(self.relays)

    def covered_by(self, prefix: IpPrefix) -> list[RelayDescriptor]:
        lo, hi = np.searchsorted(self.addresses, (prefix.base, prefix.last_address + 1)).tolist()
        return self.relays[lo:hi]
