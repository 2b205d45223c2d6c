"""Log ingestion and data preparation.

Raw CSV logs (five columns: Timestamp, CAN_ID, DLC, Data_Field, Label) are
parsed into columns with a per-field missing mask, cleaned, and turned into
length-16 feature vectors with deterministic train/validation/test splits.
Preparation runs in the fixed order cleaning -> integration -> transformation,
and normalization statistics always come from the training partition alone.

``parse_log`` returns a ``canbus.TrafficLog``, the simulator's log type,
whose columns ``impute_missing`` keeps and ``RecordTable.from_raw``
tabulates. A parsed log's columns lie within these bounds:
  timestamp    float64, finite
  can_id       int64, at most 0x1FFFFFFF (the 29-bit CAN 2.0B extended maximum)
  dlc          int64 in [0, MAX_PAYLOAD_BYTES] (64, the CAN FD maximum), not
               checked against the payload length
  payload      uint8 (n, width): each payload's bytes, zero padded; width is
               at least PAYLOAD_WIDTH and at most MAX_PAYLOAD_BYTES
  payload_len  int64, the payload length in bytes (0 for an empty payload)
  label        uint8, 0 or 1
  kind         uint8, 0 (normal) until a ``.kinds`` sidecar's codes replace it
  missing      bool (n, 5), one flag per field above but kind (payload and
               payload_len as one); a missing field's columns hold 0
A cell that does not parse (non-hex or signed digits, an over-long
identifier or data field, a DLC above 64, a non-finite timestamp, ...) is
missing.

In ``TrafficLog``, ``RecordTable`` and ``PreparedDataset`` an attack kind is
a uint8 code into ``canbus.KIND_NAMES`` (0 is normal traffic); names appear
only in the ``.kinds`` files, whose lines ``canbus.KIND_LINES`` defines and
``read_kinds`` reads, for a log's sidecar and a container's alike.

A row in the form ``canbus.write_log`` writes takes a vectorized fast
path: five cells split by commas and ended by a line feed, a timestamp of
at most 32 characters from [0-9.eE+-], 1 to 8 uppercase hex digits of
identifier, a DLC of 1 or 2 decimal digits, at most 64 uppercase two-digit
hex bytes joined by single spaces, and the label 0 or 1. Every other row
(quotes, carriage returns, lowercase, "0x"-prefixed or padded cells, label
words, bad tokens, long payloads, a last line with no line feed) goes
through csv and the per-cell parsers into the same columns. A log holding
a quote character goes that way whole, because a quoted cell may span
lines.

Feature layout (all components in [0, 1]):
  position 0      identifier, min-max normalized over the training split
  position 1      DLC, min-max normalized over the training split
  positions 2-9   first eight payload bytes scaled by 1/255 (zero padded)
  positions 10-15 zero padding up to the model input width
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import os
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .bounds import SEED, OutOfRange, Range
from .canbus import (_DATA, _DLC, _FIELDS, _ID, _LABEL, _TS, KIND_LINES, KIND_NAMES, MAX_CAN_ID, MAX_PAYLOAD_BYTES,
                     TrafficLog, write_kind_lines)

N_FEATURES = 16
PARTITIONS = ("train", "validation", "test")
PAYLOAD_WIDTH = 8

CONTAINER_MAGIC = b"CANIDS1"

IMPUTE_POLICIES = ("droprow", "fieldmean")


class EmptyInput(ValueError):
    """No data rows in the input."""


class TooFewValues(ValueError):
    """Sample too small for the outlier test."""


class AllRowsMissing(ValueError):
    """A column required for mean imputation has no observed values."""


class LengthMismatch(ValueError):
    """Sequences that must align one to one differ in length; ``metrics`` raises this class too."""


class ZeroVariance(ValueError):
    """Correlation undefined for a constant sequence."""


class EmptyColumn(ValueError):
    """Normalization fit needs at least one value per feature."""


class CorruptContainer(ValueError):
    """Dataset container fails structural validation."""


class UnknownKind(ValueError):
    """A kind name or code outside ``KIND_NAMES``."""


class IdOutOfRange(ValueError):
    """An identifier exceeds the 29-bit ``MAX_CAN_ID``."""


class PayloadTooLong(ValueError):
    """A data field holds more than ``MAX_PAYLOAD_BYTES`` bytes."""


class NotText(ValueError):
    """A log or kinds sidecar that is not UTF-8 text, or text that cannot be written as one line of UTF-8."""


# ---------------------------------------------------------------------------
# Reading files: one text decoder and one binary reader for every input
# ---------------------------------------------------------------------------


def decode_text(path: str | Path | None, data: bytes | memoryview, error: type[ValueError], at: int = 0) -> str:
    """``data`` decoded as UTF-8 whatever the locale, or ``error`` naming the file and its first bad byte.

    ``at`` is where ``data`` begins in the file, so the offset named is the file's. A ``path`` of
    None leaves the file unnamed, for a caller that names it.
    """
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        fault = f"not UTF-8 text ({exc.reason} at byte {at + exc.start})"
        raise error(fault if path is None else f"{path}: {fault}") from None


def read_utf8(path: str | Path, error: type[ValueError]) -> str:
    return decode_text(path, Path(path).read_bytes(), error)


def read_kinds(path: str | Path, prefixes: Sequence[str], error: type[ValueError]) -> tuple[np.ndarray, list[str]]:
    """A ``.kinds`` sidecar's lines looked up in ``KIND_LINES`` after each prefix, and its text lines if any is not.

    A line ends with a line feed, optionally after a carriage return; the last may lack one. ``KIND_LINES[code]``
    after ``prefixes[i]`` reads as the uint8 ``len(KIND_NAMES) * i + code`` and any other line as 255; only then is
    the file decoded, and a byte that is not UTF-8 raises ``error`` naming the file and the byte's offset.
    """
    data = Path(path).read_bytes()
    inverse = {(prefix + line).encode()[:-1] + end: len(KIND_NAMES) * i + code for i, prefix in enumerate(prefixes)
               for code, line in enumerate(KIND_LINES) for end in (b"\n", b"\r\n", b"")}
    values = np.fromiter(map(inverse.get, io.BytesIO(data), itertools.repeat(255)), np.uint8)
    return values, decode_text(path, data, error).replace("\r\n", "\n").split("\n") if 255 in values else []


class BinaryReader:
    """Bounds-checked little-endian reads through an open file; every fault raises ``error`` naming the file.

    Use it in a ``with`` block, which closes the file. Each read is checked against the bytes left before
    anything is read or allocated.
    """

    def __init__(self, path: str | Path, error: type[ValueError]):
        self.path, self.error = path, error
        self.file = open(path, "rb")
        self.remaining = os.fstat(self.file.fileno()).st_size

    def __enter__(self) -> "BinaryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def corrupt(self, message: str) -> ValueError:
        return self.error(f"{self.path}: {message}")

    def need(self, size: int) -> None:
        """``corrupt`` unless at least ``size`` bytes are left."""
        if size > self.remaining:
            raise self.corrupt("unexpected end of file")

    def take(self, size: int) -> bytes:
        return self.array(np.uint8, (size,)).tobytes()

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape: tuple[int, ...]) -> np.ndarray:
        """The next array, read straight from the file into memory of its own."""
        size = np.dtype(dtype).itemsize * math.prod(shape)
        self.need(size)
        out = np.empty(shape, dtype)
        read = self.file.readinto(out.reshape(-1).view(np.uint8))
        self.remaining -= size
        if read != size:  # the file shrank while open
            raise self.corrupt("unexpected end of file")
        return out

    def text(self) -> str:
        """A u32-length-prefixed UTF-8 string."""
        (size,) = self.unpack("<I")
        return decode_text(self.path, self.take(size), self.error, at=self.file.tell() - size)

    def pairs(self, count: int) -> NormalizationParams:
        """``count`` (min, max) float64 pairs."""
        mins, maxs = self.array("<f8", (count, 2)).T.copy()
        try:
            return NormalizationParams(mins, maxs)
        except ValueError as exc:
            raise self.corrupt(f"normalization pairs: {exc}") from None

    def finish(self) -> None:
        if self.remaining:
            raise self.corrupt(f"{self.remaining} trailing bytes")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _is_hex(text: str) -> bool:
    """Non-empty and ASCII hex digits only (``int(text, 16)`` also takes signs and ``_``)."""
    return bool(text) and _HEX_DIGITS.issuperset(text)


def _parse_timestamp(cell: str | bytes) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@functools.lru_cache(maxsize=4096)  # a log repeats a few thousand identifiers
def _parse_can_id(cell: str) -> int | None:
    cell = cell.strip()
    if cell.lower().startswith("0x"):
        cell = cell[2:]
    if not _is_hex(cell):
        return None
    value = int(cell, 16)
    return value if value <= MAX_CAN_ID else None


def _parse_dlc(cell: str) -> int | None:
    try:
        value = int(cell)
    except ValueError:
        return None
    return value if 0 <= value <= MAX_PAYLOAD_BYTES else None


def _parse_data(cell: str, dlc: int | None) -> bytes | None:
    cell = cell.strip()
    if not cell:
        # an empty data field is legitimate only for a zero-length payload
        return b"" if dlc == 0 else None
    try:
        data = bytes.fromhex(cell)
        if data.hex(" ").upper() == cell:
            return data if len(data) <= MAX_PAYLOAD_BYTES else None  # already canonical
    except ValueError:
        pass
    tokens = cell.split()
    if len(tokens) > MAX_PAYLOAD_BYTES or not all(len(tok) <= 2 and _is_hex(tok) for tok in tokens):
        return None
    return bytes(int(tok, 16) for tok in tokens)


def _parse_label(cell: str) -> int | None:
    cell = cell.strip().lower()
    if cell in ("0", "normal"):
        return 0
    if cell in ("1", "attack"):
        return 1
    return None


def _parse_rows(text: str, at_start: bool) -> TrafficLog:
    """The rows of ``text`` through csv and the per-cell parsers; ``at_start`` if it begins the log."""
    rows = []
    for i, row in enumerate(csv.reader(io.StringIO(text, newline=""))):
        if not any(map(str.strip, row)):
            continue
        if at_start and i == 0 and row[0].strip().lower() == "timestamp":
            continue
        if len(row) < 5:
            row += [""] * (5 - len(row))
        dlc = _parse_dlc(row[2])
        rows.append((_parse_timestamp(row[0]), _parse_can_id(row[1]), dlc, _parse_data(row[3], dlc),
                     _parse_label(row[4])))

    n = len(rows)
    timestamp, can_id, dlc, data, label = zip(*rows) if rows else [()] * len(_FIELDS)
    payloads = [d or b"" for d in data]
    width = max([PAYLOAD_WIDTH, *map(len, payloads)])

    def column(values, dtype):
        return np.array([0 if v is None else v for v in values], dtype=dtype).reshape(n)

    return TrafficLog(
        timestamp=column(timestamp, np.float64),
        can_id=column(can_id, np.int64),
        dlc=column(dlc, np.int64),
        payload=np.frombuffer(bytearray(b"".join(p.ljust(width, b"\0") for p in payloads)),
                              dtype=np.uint8).reshape(n, width),
        payload_len=column(map(len, payloads), np.int64),
        label=column(label, np.uint8),
        kind=np.zeros(n, dtype=np.uint8),
        missing=np.array([[v is None for v in row] for row in rows], dtype=bool).reshape(n, len(_FIELDS)),
    )


def _byte_set(chars: bytes) -> np.ndarray:
    table = np.zeros(256, dtype=bool)
    table[list(chars)] = True
    return table


_HEX_UPPER = _byte_set(b"0123456789ABCDEF")
_DECIMAL = _byte_set(b"0123456789")
_TIMESTAMP_BYTES = _byte_set(b"0123456789.eE+-")
_NIBBLE = np.zeros(256, dtype=np.uint8)
_NIBBLE[list(b"0123456789ABCDEF")] = np.arange(16)

_BLOCK_ROWS = 65_536  # lines the fast path takes at once, which bounds its temporaries
_MAX_TIMESTAMP_CHARS = 32
_MAX_ID_DIGITS = 8  # enough for MAX_CAN_ID


def _number_cells(buf: np.ndarray, begin: np.ndarray, size: np.ndarray, allowed: np.ndarray,
                  base: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell ``buf[begin:begin + size]`` as a number in ``base``, and whether its bytes are all ``allowed``."""
    value = np.zeros(len(begin), dtype=np.int64)
    valid = np.ones(len(begin), dtype=bool)
    for j in range(int(size.max(initial=0))):
        byte = buf.take(begin + j, mode="clip")
        here = j < size
        valid &= allowed[byte] | ~here
        value = np.where(here, value * base + _NIBBLE[byte], value)
    return value, valid


def _payload_cells(buf: np.ndarray, begin: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of each data cell of ``length`` "XX" pairs joined by spaces, and whether it has that form."""
    data = np.zeros((len(begin), max(PAYLOAD_WIDTH, int(length.max(initial=0)))), dtype=np.uint8)
    valid = np.ones(len(begin), dtype=bool)
    for k in range(int(length.max(initial=0))):
        here = k < length
        high, low = buf.take(begin + 3 * k, mode="clip"), buf.take(begin + 3 * k + 1, mode="clip")
        valid &= (_HEX_UPPER[high] & _HEX_UPPER[low]) | ~here
        if k:
            valid &= (buf.take(begin + 3 * k - 1, mode="clip") == ord(" ")) | ~here
        data[:, k] = np.where(here, (_NIBBLE[high] << 4) | _NIBBLE[low], 0)
    return data, valid


def _timestamp_cells(buf: np.ndarray, begin: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each timestamp cell as float64 (NaN if it does not parse), and whether its bytes are [0-9.eE+-]."""
    text = np.zeros((int(size.max(initial=1)), len(begin)), dtype=np.uint8)  # one row per character
    valid = np.ones(len(begin), dtype=bool)
    for j in range(len(text)):
        byte = buf.take(begin + j, mode="clip")
        here = j < size
        valid &= _TIMESTAMP_BYTES[byte] | ~here
        text[j] = np.where(here, byte, 0)
    cells = np.ascontiguousarray(text.T).view(f"S{len(text)}").ravel()
    try:
        return cells.astype(np.float64), valid
    except ValueError:  # a cell such as "1e" or "1.2.3"; float() agrees with numpy on the rest
        return np.array([_parse_timestamp(c) for c in cells.tolist()], dtype=np.float64), valid


def _canonical_rows(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, TrafficLog]:
    """Which of the consecutive lines ``buf[starts:ends]`` are canonical rows, and those rows parsed."""
    comma = np.flatnonzero(buf[starts[0] : ends[-1]] == ord(",")) + starts[0]
    first = np.searchsorted(comma, starts)
    ok = np.diff(first, append=len(comma)) == 4
    rows = np.flatnonzero(ok)
    at = first[rows]
    begin = [starts[rows], *(comma[at + k] + 1 for k in range(4))]  # where each of the five cells begins
    size = [stop - start - 1 for start, stop in zip(begin, [*begin[1:], ends[rows] + 1])]
    fits = (
        (size[_TS] >= 1) & (size[_TS] <= _MAX_TIMESTAMP_CHARS)
        & (size[_ID] >= 1) & (size[_ID] <= _MAX_ID_DIGITS)
        & (size[_DLC] >= 1) & (size[_DLC] <= 2)
        & ((size[_DATA] == 0) | ((size[_DATA] % 3 == 2) & (size[_DATA] <= 3 * MAX_PAYLOAD_BYTES - 1)))
        & (size[_LABEL] == 1)
    )
    rows = rows[fits]
    begin = [b[fits] for b in begin]
    size = [s[fits] for s in size]

    timestamp, valid = _timestamp_cells(buf, begin[_TS], size[_TS])
    can_id, valid_id = _number_cells(buf, begin[_ID], size[_ID], _HEX_UPPER, 16)
    dlc, valid_dlc = _number_cells(buf, begin[_DLC], size[_DLC], _DECIMAL, 10)
    payload_len = (size[_DATA] + 1) // 3
    payload, valid_data = _payload_cells(buf, begin[_DATA], payload_len)
    label = buf[begin[_LABEL]] - np.uint8(ord("0"))
    valid &= valid_id & valid_dlc & valid_data & (label <= 1)
    ok[:] = False
    ok[rows[valid]] = True

    missing = np.column_stack((
        ~np.isfinite(timestamp),
        can_id > MAX_CAN_ID,
        dlc > MAX_PAYLOAD_BYTES,
        (payload_len == 0) & (dlc != 0),  # a DLC above 64 is missing, so not 0 either
        np.zeros(len(label), dtype=bool),
    ))[valid]
    return ok, TrafficLog(
        timestamp=np.where(missing[:, _TS], 0.0, timestamp[valid]),
        can_id=np.where(missing[:, _ID], 0, can_id[valid]),
        dlc=np.where(missing[:, _DLC], 0, dlc[valid]),
        payload=payload[valid],
        payload_len=payload_len[valid],
        label=label[valid],
        kind=np.zeros(len(missing), dtype=np.uint8),
        missing=missing,
    )


def parse_log(source: bytes | str | IO[str]) -> TrafficLog:
    """Parse comma-separated rows into a ``TrafficLog`` of kind 0, row order preserved.

    ``source`` is the log as UTF-8 bytes, as text, or as a text stream. Lines
    end at a line feed, a carriage return or both. The header row is
    optional. Malformed cells become missing flags instead of aborting; rows
    with neither an identifier nor a data field are dropped. Bytes that are
    not UTF-8, or text holding a lone surrogate (as ``surrogateescape``
    decoding leaves for such bytes), raise ``NotText`` naming the byte offset
    of the first bad one.
    """
    if not isinstance(source, (bytes, str)):
        source = source.read()
    if isinstance(source, str):
        try:
            source = source.encode()
        except UnicodeEncodeError as exc:
            at = len(source[: exc.start].encode())
            raise NotText(f"not UTF-8 text ({exc.reason} at byte {at})") from None
    buf = np.frombuffer(source, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    fast_lines = 0 if b'"' in source else len(ends)
    if len(source) > (ends[-1] + 1 if len(ends) else 0):  # a last line with no line feed
        ends = np.append(ends, len(source))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1

    slow = np.ones(len(ends), dtype=bool)
    parts, keys = [], []  # rows in the order parsed, keyed by the line each part's row starts on
    for lo in range(0, fast_lines, _BLOCK_ROWS):
        block = slice(lo, min(lo + _BLOCK_ROWS, fast_lines))
        ok, part = _canonical_rows(buf, starts[block], ends[block])
        slow[block] = ~ok
        parts.append(part)
        keys.append(np.flatnonzero(ok) + lo)
    lines = np.flatnonzero(slow)
    for run in np.split(lines, np.flatnonzero(np.diff(lines) != 1) + 1) if len(lines) else []:
        # fast-path lines are ASCII and runs are decoded in file order, so the first fault is the file's
        at = int(starts[run[0]])
        text = decode_text(None, source[at : ends[run[-1]] + 1], NotText, at=at)
        part = _parse_rows(text, at_start=run[0] == 0)
        parts.append(part)
        keys.append(np.full(len(part), run[0]))
    for i, part in enumerate(parts):
        dropped = part.missing[:, _ID] & (part.missing[:, _DATA] | (part.payload_len == 0))
        if dropped.any():
            parts[i], keys[i] = part.take(~dropped), keys[i][~dropped]
    if not sum(map(len, parts)):
        raise EmptyInput("no data rows found")
    return TrafficLog.concat(parts, key=np.concatenate(keys) if len(lines) else None)


# ---------------------------------------------------------------------------
# Cleaning
# ---------------------------------------------------------------------------


ALPHA = Range("alpha", 0, 1, "()", integer=False)
MAX_OUTLIERS = Range("max_outliers", 1)  # and at most n - 2, which the rows decide


def rosner_outliers(values: Sequence[float], max_outliers: int, alpha: float = 0.05) -> set[int]:
    """Indices flagged by the generalized extreme Studentized deviate test.

    Iteratively removes the point with the largest |x - mean| / sd, compares
    each test statistic against the Student-t critical value, and flags the
    largest prefix of removals whose statistic exceeds it. A sample with zero
    variance yields the empty set.
    """
    from scipy import special  # on first use: it takes longer to load than all of canids

    ALPHA.check(alpha)
    MAX_OUTLIERS.check(max_outliers)
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 25:
        raise TooFewValues(f"need at least 25 values, got {n}")
    Range(MAX_OUTLIERS.name, 1, n - 2, "[]").check(max_outliers)

    keep = np.ones(n, dtype=bool)  # x[keep] keeps the order the removals left
    removed: list[int] = []
    statistics: list[tuple[float, float]] = []
    for i in range(1, max_outliers + 1):
        sub = x[keep]
        sd = sub.std(ddof=1)
        if sd == 0:
            break
        dev = np.abs(sub - sub.mean())
        j = int(np.argmax(dev))
        r_i = dev[j] / sd
        m = n - i + 1  # sample size the statistic was computed on
        p = 1 - alpha / (2 * m)
        t = special.stdtrit(m - 2, p)  # the Student-t quantile, as scipy.stats.t.ppf(p, m - 2) computes it
        lam = (m - 1) * t / math.sqrt((m - 2 + t * t) * m)
        statistics.append((r_i, lam))
        removed.append(int(np.flatnonzero(keep)[j]))
        keep[removed[-1]] = False

    flagged = 0
    for i, (r_i, lam) in enumerate(statistics, start=1):
        if r_i > lam:
            flagged = i
    return set(removed[:flagged])


def _mean_or_raise(values: np.ndarray, column: str) -> float:
    if not len(values):
        raise AllRowsMissing(f"cannot impute {column}: no observed values")
    return float(np.mean(values))


def _payload_means(log: TrafficLog) -> list[int]:
    """Rounded mean of each payload position, over the rows long enough to have it.

    Bytes are at most 255, so the integer sums are exact and ``total / count``
    is the correctly rounded mean ``np.mean`` gives.
    """
    seen = ~log.missing[:, _DATA] & (log.payload_len > 0)
    lengths = log.payload_len[seen]
    width = int(lengths.max(initial=0))
    totals = log.payload[seen, :width].sum(axis=0, dtype=np.int64)  # bytes past a row's length are 0
    counts = (lengths[:, None] > np.arange(width)).sum(axis=0)
    return [round(total / count) for total, count in zip(totals.tolist(), counts.tolist())]


def impute_missing(log: TrafficLog, policy: str = "droprow") -> TrafficLog:
    """Resolve missing flags: drop flagged rows, or fill them with column means.

    ``fieldmean`` imputes the timestamp, identifier, DLC, and label from
    rounded column means, and the data field byte-wise from per-position
    means (positions never observed fall back to zero). Rows keep their
    kinds. A log with nothing missing comes back as itself. Each mean is
    computed only if a row needs it, so ``AllRowsMissing`` names a column
    some row lacks; when several fail, it names the one a row-by-row fill
    would reach first.
    """
    if policy not in IMPUTE_POLICIES:
        raise ValueError(f"unknown imputation policy {policy!r}")
    missing = log.missing
    incomplete = missing.any(axis=1)
    if not incomplete.any():
        return log
    if policy == "droprow":
        return log.take(~incomplete)

    seen = ~missing
    dlc = log.dlc
    if missing[:, _DLC].any():
        dlc = np.where(missing[:, _DLC], round(_mean_or_raise(dlc[seen[:, _DLC]], "DLC")), dlc)
    payload, payload_len = log.payload, log.payload_len
    fill = missing[:, _DATA]
    payload_gap = None  # the first row needing payload bytes when no row has any
    if fill.any():
        means = _payload_means(log)
        needy = np.flatnonzero(fill & (dlc > 0))
        if len(needy) and not means:
            payload_gap = int(needy[0])
        width = max(payload.shape[1], int(dlc[fill].max()))
        row = np.zeros(width, dtype=np.uint8)
        row[: len(means)] = means
        payload = np.pad(payload, ((0, 0), (0, width - payload.shape[1])))
        payload[fill] = np.where(np.arange(width) < dlc[fill, None], row, 0)
        payload_len = np.where(fill, dlc, payload_len)
    # every row lacks an all-missing column, so that error belongs to row 0,
    # where a row-by-row fill checks DLC, Data_Field, Label, CAN_ID, Timestamp in turn
    if payload_gap == 0:
        raise AllRowsMissing("cannot impute Data_Field: no observed values")
    label, can_id, timestamp = log.label, log.can_id, log.timestamp
    if missing[:, _LABEL].any():
        mean = _mean_or_raise(label[seen[:, _LABEL]], "Label")
        label = np.where(missing[:, _LABEL], np.uint8(mean >= 0.5), label)
    if missing[:, _ID].any():
        can_id = np.where(missing[:, _ID], round(_mean_or_raise(can_id[seen[:, _ID]], "CAN_ID")), can_id)
    if missing[:, _TS].any():
        timestamp = np.where(missing[:, _TS], _mean_or_raise(timestamp[seen[:, _TS]], "Timestamp"), timestamp)
    if payload_gap is not None:
        raise AllRowsMissing("cannot impute Data_Field: no observed values")
    return replace(log, timestamp=timestamp, can_id=can_id, dlc=dlc, payload=payload, payload_len=payload_len,
                   label=label, missing=np.zeros_like(missing))


# ---------------------------------------------------------------------------
# Integration (correlation analysis)
# ---------------------------------------------------------------------------


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Product-moment correlation sum((x-mx)(y-my)) / sqrt(ssx * ssy)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"lengths differ: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatch("need at least two observations")
    dx = x - x.mean()
    dy = y - y.mean()
    ssx = float(dx @ dx)
    ssy = float(dy @ dy)
    if ssx == 0 or ssy == 0:
        raise ZeroVariance("correlation undefined for a constant sequence")
    return float(dx @ dy) / math.sqrt(ssx * ssy)


@dataclass(frozen=True)
class CorrelationResult:
    names: tuple[str, ...]
    r: np.ndarray  # symmetric, unit diagonal
    p: np.ndarray  # two-sided t-test p-values, zero diagonal
    significant: np.ndarray  # p < CORRELATION_ALPHA, diagonal excluded


CORRELATION_ALPHA = 0.05


def correlation_matrix(columns: Mapping[str, Sequence[float]]) -> CorrelationResult:
    """Pairwise correlations with two-sided significance flags (p < ``CORRELATION_ALPHA``)."""
    from scipy import special  # imported on first use, as in rosner_outliers

    names = tuple(columns)
    arrays = [np.asarray(columns[name], dtype=np.float64) for name in names]
    k = len(names)
    n = len(arrays[0]) if arrays else 0
    r = np.eye(k)
    p = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            rij = pearson(arrays[i], arrays[j])
            t = rij * math.sqrt((n - 2) / max(1 - rij * rij, 1e-300))
            pij = 2 * float(special.stdtr(n - 2, -abs(t)))  # Student-t survival, as scipy.stats.t.sf computes it
            r[i, j] = r[j, i] = rij
            p[i, j] = p[j, i] = pij
    significant = (p < CORRELATION_ALPHA) & ~np.eye(k, dtype=bool)
    return CorrelationResult(names, r, p, significant)


# ---------------------------------------------------------------------------
# Transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature (min, max) pairs for min-max scaling."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", np.asarray(self.mins, dtype=np.float64))
        object.__setattr__(self, "maxs", np.asarray(self.maxs, dtype=np.float64))
        if self.mins.shape != self.maxs.shape:
            raise ValueError("mins and maxs must have matching shapes")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise ValueError("feature mins and maxs must be finite")
        if np.any(self.maxs < self.mins):
            raise ValueError("feature max must be >= feature min")


def _big_endian_values(data: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Each row's first ``length`` bytes of ``data`` as one big-endian number, rounded to float64."""
    value = np.zeros(len(length), dtype=np.uint64)
    for j in range(min(8, data.shape[1])):  # Horner's rule over the bytes a uint64 holds
        value = np.where(j < length, (value << np.uint64(8)) | data[:, j], value)
    out = value.astype(np.float64)  # correctly rounded, as float(int) is
    for i in np.flatnonzero(length > 8).tolist():
        out[i] = float(int.from_bytes(data[i, : length[i]].tobytes(), "big"))
    return out


@dataclass
class RecordTable:
    """Columnar view of cleaned records; payload truncated/padded to 8 bytes.

    ``data_value`` keeps the full data field as one decimal number (float64)
    for correlation analysis, independent of the truncated byte matrix.
    """

    timestamp: np.ndarray
    can_id: np.ndarray
    dlc: np.ndarray
    payload: np.ndarray
    data_value: np.ndarray
    label: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.label)

    @classmethod
    def from_raw(cls, log: TrafficLog) -> "RecordTable":
        """Tabulate a cleaned ``TrafficLog``, parsed or simulated, with its kind column.

        A row with a missing field or a label other than 0/1 raises a plain
        ``ValueError``, an identifier above ``MAX_CAN_ID`` ``IdOutOfRange``,
        a data field longer than ``MAX_PAYLOAD_BYTES`` ``PayloadTooLong``, a
        kind column of another length ``LengthMismatch``, and a kind code
        outside ``KIND_NAMES`` ``UnknownKind``.
        """
        if not len(log):
            raise EmptyInput("no records to tabulate")
        if len(log.kind) != len(log):
            raise LengthMismatch(f"{len(log.kind)} kind codes for {len(log)} rows")
        unknown = np.setdiff1d(log.kind, np.arange(len(KIND_NAMES)))
        if len(unknown):
            raise UnknownKind(f"kind codes {unknown[:5].tolist()} lie outside KIND_NAMES")
        if log.missing.any() or (log.label > 1).any():
            raise ValueError("records must be cleaned before tabulation")
        too_long = np.unique(log.can_id[log.can_id > MAX_CAN_ID])
        if len(too_long):
            raise IdOutOfRange(f"identifiers above 29 bits: {[f'{v:X}' for v in too_long[:5].tolist()]}")
        over = np.flatnonzero(log.payload_len > MAX_PAYLOAD_BYTES)
        if len(over):
            raise PayloadTooLong(
                f"row {over[0]}: {log.payload_len[over[0]]}-byte data field exceeds {MAX_PAYLOAD_BYTES}"
            )
        return cls(
            timestamp=log.timestamp.astype(np.float64),
            can_id=log.can_id.astype(np.int64),
            dlc=log.dlc.astype(np.int64),
            payload=log.payload[:, :PAYLOAD_WIDTH].copy(),
            data_value=_big_endian_values(log.payload, log.payload_len),
            label=log.label.astype(np.uint8),
            kind=log.kind.astype(np.uint8),
        )

    @classmethod
    def from_traffic(cls, log: TrafficLog) -> "RecordTable":
        """``from_raw``, under the second name that benchmark tracing times for simulated logs."""
        return cls.from_raw(log)

    def take(self, idx: np.ndarray) -> "RecordTable":
        return RecordTable(*(getattr(self, f.name)[idx] for f in fields(self)))

    def feature_columns(self) -> dict[str, np.ndarray]:
        """Numeric columns for correlation analysis (data field as one decimal)."""
        return {
            "Timestamp": self.timestamp,
            "CAN_ID": self.can_id.astype(np.float64),
            "DLC": self.dlc.astype(np.float64),
            "Data_Field": self.data_value,
        }


def _fit_features(can_id: np.ndarray, dlc: np.ndarray) -> NormalizationParams:
    """Normalization for the 16-wide layout, fitted on the identifiers and DLCs of the (training) rows.

    Identifier and DLC ranges come from the data; payload byte positions are
    pinned to (0, 255) and the padding positions to (0, 1).
    """
    if len(can_id) == 0:
        raise EmptyColumn("cannot fit normalization on an empty table")
    padding = N_FEATURES - 2 - PAYLOAD_WIDTH
    mins = np.concatenate(([can_id.min(), dlc.min()], np.zeros(PAYLOAD_WIDTH), np.zeros(padding)))
    maxs = np.concatenate(([can_id.max(), dlc.max()], np.full(PAYLOAD_WIDTH, 255.0), np.ones(padding)))
    return NormalizationParams(mins, maxs)


@dataclass
class PreparedDataset:
    """Encoded, normalized partitions plus the parameters that produced them."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    norm: NormalizationParams
    provenance: str = ""
    seed: int = 0
    train_kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    val_kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    test_kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))

    def partitions(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The features, labels and kinds of each partition, keyed by its name in ``PARTITIONS``."""
        return dict(zip(PARTITIONS, ((self.train_x, self.train_y, self.train_kind),
                                     (self.val_x, self.val_y, self.val_kind),
                                     (self.test_x, self.test_y, self.test_kind))))

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train_y), len(self.val_y), len(self.test_y)

    def has_kinds(self) -> bool:
        """Whether the rows hold one kind each; empty kinds mean unknown, other lengths raise ``LengthMismatch``."""
        counts = (len(self.train_kind), len(self.val_kind), len(self.test_kind))
        if any(counts) and counts != self.sizes():
            raise LengthMismatch(f"{counts} kinds per partition for {self.sizes()} rows")
        return any(counts)


TEST_FRACTION = Range("test_fraction", 0, 1, integer=False)
VAL_FRACTION = Range("val_fraction", 0, 1, integer=False)


def split_dataset(
    table: RecordTable,
    test_fraction: float = 0.2,
    val_fraction: float = 0.2,
    seed: int = 0,
    provenance: str = "",
) -> PreparedDataset:
    """Seeded shuffle, then floor-sized test split and validation re-split.

    The first floor(test_fraction * N) shuffled rows form the test set; the
    remainder is the training block, whose first floor(val_fraction * size)
    rows become validation. Normalization is fitted on the final training
    rows only and applied to all partitions.

    Each feature is written once, already scaled and in shuffled order, into
    one (N, 16) buffer; the three partitions are row slices of it.
    """
    TEST_FRACTION.check(test_fraction)
    VAL_FRACTION.check(val_fraction)
    n = len(table)
    if n == 0:
        raise EmptyInput("cannot split an empty table")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = math.floor(test_fraction * n)
    n_val = math.floor(val_fraction * (n - n_test))
    test, val, train = slice(0, n_test), slice(n_test, n_test + n_val), slice(n_test + n_val, n)

    params = _fit_features(table.can_id[perm[train]], table.dlc[perm[train]])
    # Each block is cast into the buffer by assignment and scaled in place there: a ufunc writing through out=
    # would add its casting buffers to the peak that the buffer and one gathered column set.
    x = np.zeros((n, N_FEATURES))  # padding columns stay 0
    for j, column in enumerate((table.can_id, table.dlc)):
        lo, hi = int(params.mins[j]), int(params.maxs[j])
        if hi > lo:  # a constant column stays 0
            # Identifiers (29 bits) and DLCs are exact in float64, so clipping to [lo, hi] and shifting by lo
            # in int64 give clip((v - lo) / (hi - lo), 0, 1) bit for bit.
            shifted = column[perm]
            np.clip(shifted, lo, hi, out=shifted)
            shifted -= lo
            x[:, j] = shifted
            del shifted  # before the next column is gathered
            x[:, j] /= hi - lo
    x[:, 2 : 2 + PAYLOAD_WIDTH] = table.payload[perm]
    x[:, 2 : 2 + PAYLOAD_WIDTH] /= 255.0  # bytes lie in [0, 255]: no clip
    y, kind = table.label[perm], table.kind[perm]
    return PreparedDataset(
        x[train],
        y[train],
        x[val],
        y[val],
        x[test],
        y[test],
        norm=params,
        provenance=provenance,
        seed=seed,
        train_kind=kind[train],
        val_kind=kind[val],
        test_kind=kind[test],
    )


# ---------------------------------------------------------------------------
# Container I/O
# ---------------------------------------------------------------------------


def save_dataset(ds: PreparedDataset, path: str | Path) -> None:
    """Write the flat binary container, a manifest, and (if known) a kinds sidecar.

    Container layout: magic "CANIDS1"; u64 feature count; u64 sizes of the
    train/validation/test partitions; per partition the row-major float64
    feature matrix followed by a uint8 label array; 16 (min, max) float64
    pairs of the normalization parameters. All integers little-endian.
    The manifest and the kinds sidecar are UTF-8 text whatever the locale;
    a container without kinds removes any kinds sidecar left at ``path``.
    Kinds that are not uint8 codes into ``KIND_NAMES`` raise ``UnknownKind``,
    kinds neither empty nor one per row ``LengthMismatch``, a seed outside
    ``bounds.SEED`` ``OutOfRange``, and a provenance that is not one line of
    UTF-8 text ``NotText``, before any file is written.
    """
    path = Path(path)
    SEED.check(ds.seed)
    parts = ds.partitions().values()
    kinds = [kind for _, _, kind in parts] if ds.has_kinds() else []
    for codes in kinds:
        if codes.dtype != np.uint8 or codes.max(initial=0) >= len(KIND_NAMES):
            raise UnknownKind(f"kinds must be uint8 codes into KIND_NAMES, got {codes.dtype} {codes[:5].tolist()}")
    manifest = path.with_name(path.name + ".manifest")
    source = f"source={ds.provenance}"
    if len(source.splitlines()) != 1:
        raise NotText(f"{manifest}: provenance {ds.provenance!r} holds a line break")
    sizes = ds.sizes()
    try:
        manifest_bytes = (
            f"format=CANIDS1\n{source}\nseed={ds.seed}\nfeatures={N_FEATURES}\n"
            + "".join(f"{partition}={size}\n" for partition, size in zip(PARTITIONS, sizes))
        ).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise NotText(f"{manifest}: provenance {ds.provenance!r} is not UTF-8 text ({exc.reason})") from None

    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<4Q", N_FEATURES, *sizes))
        for x, y, _ in parts:
            fh.write(np.ascontiguousarray(x, dtype="<f8").data)
            fh.write(np.ascontiguousarray(y, dtype=np.uint8).data)
        fh.write(np.column_stack([ds.norm.mins, ds.norm.maxs]).astype("<f8").data)
    manifest.write_bytes(manifest_bytes)
    kinds_path = path.with_name(path.name + ".kinds")
    if not kinds:
        kinds_path.unlink(missing_ok=True)  # an earlier container's kinds are not this one's
    else:
        with open(kinds_path, "w", encoding="utf-8") as fh:
            for partition, codes in zip(PARTITIONS, kinds):
                write_kind_lines(codes, fh, f"{partition},")


def load_dataset(path: str | Path) -> PreparedDataset:
    """A container with its manifest and kinds sidecar, if present; any fault raises ``CorruptContainer``.

    Labels must be 0 or 1 and features finite in [0, 1], as ``split_dataset`` encodes them.
    """
    path = Path(path)
    with BinaryReader(path, CorruptContainer) as reader:
        if reader.take(len(CONTAINER_MAGIC)) != CONTAINER_MAGIC:
            raise reader.corrupt("no CANIDS1 magic")
        n_feat, *sizes = reader.unpack("<4Q")
        if n_feat != N_FEATURES:
            raise reader.corrupt(f"unexpected feature width {n_feat}")
        reader.need(sum(sizes) * (8 * n_feat + 1) + 16 * n_feat)  # every array, before any is built
        arrays = []
        for partition, count in zip(PARTITIONS, sizes):
            x = reader.array("<f8", (count, n_feat))
            y = reader.array(np.uint8, (count,))
            if not (x.min(initial=0.0) >= 0 and x.max(initial=0.0) <= 1):  # NaN fails both
                raise reader.corrupt(f"{partition} features must be finite and lie in [0, 1]")
            if y.max(initial=0) > 1:
                raise reader.corrupt(f"{partition} labels must be 0 or 1")
            arrays += [x, y]
        norm = reader.pairs(n_feat)
        reader.finish()

    ds = PreparedDataset(*arrays, norm=norm)
    manifest = path.with_name(path.name + ".manifest")
    if manifest.exists():
        meta = dict(
            line.split("=", 1) for line in read_utf8(manifest, CorruptContainer).splitlines() if "=" in line
        )
        ds.provenance = meta.get("source", "")
        try:
            ds.seed = SEED.check(int(meta.get("seed", 0)))
        except OutOfRange as exc:
            raise CorruptContainer(f"{manifest}: {exc}") from None
        except ValueError:
            raise CorruptContainer(f"{manifest}: seed {meta['seed']!r} is not an integer") from None
    kinds_path = path.with_name(path.name + ".kinds")
    if kinds_path.exists():
        values, lines = read_kinds(kinds_path, [f"{partition}," for partition in PARTITIONS], CorruptContainer)
        if lines:
            lineno = np.flatnonzero(values == 255)[0] + 1
            line = lines[lineno - 1]
            partition, sep, kind = line.partition(",")
            if not sep or partition not in PARTITIONS or "\r" in kind:
                raise CorruptContainer(
                    f"{kinds_path} line {lineno}: expected {'|'.join(PARTITIONS)},<kind>, got {line!r}"
                )
            raise CorruptContainer(f"{kinds_path} line {lineno}: unknown kind {kind!r}")
        part, code = np.divmod(values, len(KIND_NAMES))
        ds.train_kind, ds.val_kind, ds.test_kind = (code[part == i] for i in range(len(PARTITIONS)))
        counts = (len(ds.train_kind), len(ds.val_kind), len(ds.test_kind))
        if ds.sizes() != counts:
            raise CorruptContainer(f"{kinds_path}: {counts} kinds per partition, container holds {ds.sizes()}")
    return ds


def prepare_records(log: TrafficLog, seed: int = 0, provenance: str = "") -> PreparedDataset:
    """Convenience path from a simulated ``TrafficLog`` to a dataset split as ``split_dataset`` does by default."""
    return split_dataset(RecordTable.from_traffic(log), seed=seed, provenance=provenance)
