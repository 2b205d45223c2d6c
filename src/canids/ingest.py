"""Log ingestion and data preparation.

Raw CSV logs (five columns: Timestamp, CAN_ID, DLC, Data_Field, Label) are
parsed into records with per-field missing flags, cleaned, and turned into
length-16 feature vectors with deterministic train/validation/test splits.
Preparation runs in the fixed order cleaning -> integration -> transformation,
and normalization statistics always come from the training partition alone.

A ``RawRecord`` holds each observed field in one canonical form, which
``impute_missing`` keeps and ``RecordTable.from_raw`` relies on:
  timestamp    a finite float
  can_id_hex   uppercase hex digits, no prefix, value at most 0x1FFFFFFF
               (the 29-bit CAN 2.0B extended maximum); leading zeros kept
  dlc          an int in [0, MAX_PAYLOAD_BYTES] (64, the CAN FD maximum),
               not checked against the payload length
  data_hex     uppercase two-digit hex bytes joined by single spaces
               ("0A FF"), at most MAX_PAYLOAD_BYTES of them; "" for an
               empty payload with DLC 0
  label_text   "0" or "1"
A cell that does not parse to this form (non-hex or signed digits, an
over-long identifier or data field, a DLC above 64, a non-finite
timestamp, ...) becomes ``None``.

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
import math
import struct
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from .canbus import ATTACK_KINDS, KIND_NAMES, MAX_DLC, TrafficLog

N_FEATURES = 16
PAYLOAD_WIDTH = 8

CONTAINER_MAGIC = b"CANIDS1"

IMPUTE_POLICIES = ("droprow", "fieldmean")

# largest CAN 2.0B extended (29-bit) identifier
MAX_CAN_ID = 0x1FFFFFFF

# largest payload of a frame (CAN FD); also the largest DLC a log may give
MAX_PAYLOAD_BYTES = 64

# the names a kinds sidecar may hold, one per row
SIDECAR_KINDS = ("normal", *ATTACK_KINDS)


class EmptyInput(ValueError):
    """No data rows in the input."""


class InvalidHexDigit(ValueError):
    """String contains a character outside [0-9A-Fa-f]."""


class TooFewValues(ValueError):
    """Sample too small for the outlier test."""


class AllRowsMissing(ValueError):
    """A column required for mean imputation has no observed values."""


class LengthMismatch(ValueError):
    """Paired sequences differ in length."""


class ZeroVariance(ValueError):
    """Correlation undefined for a constant sequence."""


class EmptyColumn(ValueError):
    """Normalization fit needs at least one value per feature."""


class UnnormalizedInput(ValueError):
    """Normalization parameters do not cover the feature layout."""


class CorruptContainer(ValueError):
    """Dataset container fails structural validation."""


class UnknownKind(ValueError):
    """A kinds sidecar names a kind outside ``SIDECAR_KINDS``."""


class IdOutOfRange(ValueError):
    """An identifier exceeds the 29-bit ``MAX_CAN_ID``."""


class PayloadTooLong(ValueError):
    """A data field holds more than ``MAX_PAYLOAD_BYTES`` bytes."""


class NotText(ValueError):
    """A log or kinds sidecar that is not UTF-8 text."""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


_FIELDS = ("timestamp", "can_id_hex", "dlc", "data_hex", "label_text")
_NOTHING_MISSING: frozenset[str] = frozenset()
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One parsed log row; ``None`` marks a missing/malformed field."""

    timestamp: float | None
    can_id_hex: str | None
    dlc: int | None
    data_hex: str | None
    label_text: str | None

    def missing_fields(self) -> frozenset[str]:
        if (
            self.timestamp is not None
            and self.can_id_hex is not None
            and self.dlc is not None
            and self.data_hex is not None
            and self.label_text is not None
        ):
            return _NOTHING_MISSING
        return frozenset(name for name in _FIELDS if getattr(self, name) is None)


def _is_hex(text: str) -> bool:
    """Non-empty and ASCII hex digits only (``int(text, 16)`` also takes signs and ``_``)."""
    return bool(text) and _HEX_DIGITS.issuperset(text)


def _parse_timestamp(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


@functools.lru_cache(maxsize=4096)  # a log repeats a few thousand identifiers
def _parse_can_id(cell: str) -> str | None:
    cell = cell.strip()
    if cell.lower().startswith("0x"):
        cell = cell[2:]
    if not _is_hex(cell) or int(cell, 16) > MAX_CAN_ID:
        return None
    return cell.upper()


def _parse_dlc(cell: str) -> int | None:
    try:
        value = int(cell)
    except ValueError:
        return None
    return value if 0 <= value <= MAX_PAYLOAD_BYTES else None


def _parse_data(cell: str, dlc: int | None) -> str | None:
    cell = cell.strip()
    if not cell:
        # an empty data field is legitimate only for a zero-length payload
        return "" if dlc == 0 else None
    try:
        data = bytes.fromhex(cell)
        if data.hex(" ").upper() == cell:
            return cell if len(data) <= MAX_PAYLOAD_BYTES else None  # already canonical
    except ValueError:
        pass
    tokens = cell.split()
    if len(tokens) > MAX_PAYLOAD_BYTES or not all(len(tok) <= 2 and _is_hex(tok) for tok in tokens):
        return None
    return " ".join(t.upper().zfill(2) for t in tokens)


def _parse_label(cell: str) -> str | None:
    cell = cell.strip()
    if cell in ("0", "1"):
        return cell
    if cell.lower() == "normal":
        return "0"
    if cell.lower() == "attack":
        return "1"
    return None


def parse_log(source: str | Iterable[str]) -> list[RawRecord]:
    """Parse comma-separated rows into RawRecords, row order preserved.

    The header row is optional. Malformed cells become missing flags instead
    of aborting; rows with neither an identifier nor a data field are dropped.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    records = []
    for i, row in enumerate(csv.reader(source)):
        if not any(map(str.strip, row)):
            continue
        if i == 0 and row[0].strip().lower() == "timestamp":
            continue
        if len(row) < 5:
            row += [""] * (5 - len(row))
        can_id_hex = _parse_can_id(row[1])
        dlc = _parse_dlc(row[2])
        data_hex = _parse_data(row[3], dlc)
        if can_id_hex is None and not data_hex:
            continue
        records.append(
            RawRecord(_parse_timestamp(row[0]), can_id_hex, dlc, data_hex, _parse_label(row[4]))
        )
    if not records:
        raise EmptyInput("no data rows found")
    return records


def hex_to_dec(text: str) -> int:
    """Exact base-16 value of a hex string, ignoring internal spaces.

    Arbitrary precision: payload fields of up to 19 bytes (152 bits) and
    beyond convert without loss. Only bare hex digits are accepted (no
    signs or 0x prefixes), so the result is always nonnegative.
    """
    cleaned = text.replace(" ", "")
    if not _is_hex(cleaned):
        raise InvalidHexDigit(f"invalid hex string {text!r}")
    return int(cleaned, 16)


def data_bytes(data_hex: str) -> bytes:
    """Payload bytes of a canonical data field (``"0A FF"``; ``""`` is empty).

    Its big-endian value equals ``hex_to_dec(data_hex)``.
    """
    try:
        return bytes.fromhex(data_hex)
    except ValueError:
        raise InvalidHexDigit(f"data field {data_hex!r} is not space-separated hex bytes") from None


def dec_to_hex(value: int) -> str:
    """Canonical uppercase hex (no prefix, no leading zeros) of a nonnegative int."""
    if value < 0:
        raise ValueError("negative values have no hex representation here")
    return format(value, "X")


# ---------------------------------------------------------------------------
# Cleaning
# ---------------------------------------------------------------------------


def rosner_outliers(values: Sequence[float], max_outliers: int, alpha: float = 0.05) -> set[int]:
    """Indices flagged by the generalized extreme Studentized deviate test.

    Iteratively removes the point with the largest |x - mean| / sd, compares
    each test statistic against the Student-t critical value, and flags the
    largest prefix of removals whose statistic exceeds it. A sample with zero
    variance yields the empty set.
    """
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 25:
        raise TooFewValues(f"need at least 25 values, got {n}")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not 1 <= max_outliers <= n - 2:
        raise ValueError("max_outliers must lie in [1, n - 2]")

    remaining = list(range(n))
    removed: list[int] = []
    statistics: list[tuple[float, float]] = []
    for i in range(1, max_outliers + 1):
        sub = x[remaining]
        sd = sub.std(ddof=1)
        if sd == 0:
            break
        dev = np.abs(sub - sub.mean())
        j = int(np.argmax(dev))
        r_i = dev[j] / sd
        m = n - i + 1  # sample size the statistic was computed on
        p = 1 - alpha / (2 * m)
        t = stats.t.ppf(p, m - 2)
        lam = (m - 1) * t / math.sqrt((m - 2 + t * t) * m)
        statistics.append((r_i, lam))
        removed.append(remaining.pop(j))

    flagged = 0
    for i, (r_i, lam) in enumerate(statistics, start=1):
        if r_i > lam:
            flagged = i
    return set(removed[:flagged])


def _label_int(text: str | None) -> int | None:
    if text in ("0", "1"):
        return int(text)
    return None


def _mean_or_raise(values: list[float], column: str) -> float:
    if not values:
        raise AllRowsMissing(f"cannot impute {column}: no observed values")
    return float(np.mean(values))


class _ObservedMeans:
    """Means of the observed fields of ``records``, each computed on first use."""

    def __init__(self, records: Sequence[RawRecord]):
        self.records = records

    @functools.cached_property
    def timestamp(self) -> float:
        return _mean_or_raise([r.timestamp for r in self.records if r.timestamp is not None], "Timestamp")

    @functools.cached_property
    def can_id(self) -> float:
        texts = [r.can_id_hex for r in self.records if r.can_id_hex is not None]
        value = {text: hex_to_dec(text) for text in set(texts)}
        return _mean_or_raise([value[text] for text in texts], "CAN_ID")

    @functools.cached_property
    def dlc(self) -> float:
        return _mean_or_raise([r.dlc for r in self.records if r.dlc is not None], "DLC")

    @functools.cached_property
    def label(self) -> float:
        labels = [v for r in self.records if (v := _label_int(r.label_text)) is not None]
        return _mean_or_raise(labels, "Label")

    @functools.cached_property
    def payload(self) -> list[int]:
        """Rounded mean of each payload position, over the rows long enough to have it.

        Bytes are at most 255, so the integer sums are exact in float64 and
        ``total / count`` is the correctly rounded mean ``np.mean`` gives.
        """
        totals: list[int] = []
        counts: list[int] = []
        for text, rows in Counter(r.data_hex for r in self.records if r.data_hex).items():
            data = data_bytes(text)
            if len(data) > len(totals):
                totals += [0] * (len(data) - len(totals))
                counts += [0] * (len(data) - len(counts))
            for pos, byte in enumerate(data):
                totals[pos] += byte * rows
                counts[pos] += rows
        return [round(total / count) for total, count in zip(totals, counts)]


def impute_missing(records: Sequence[RawRecord], policy: str = "droprow") -> list[RawRecord]:
    """Resolve missing flags: drop flagged rows, or fill them with column means.

    ``fieldmean`` imputes the timestamp, identifier, DLC, and label from
    rounded column means, and the data field byte-wise from per-position
    means (positions never observed fall back to zero). Clean rows come back
    as the same objects; each mean is computed once, and only if a row
    needs it, so ``AllRowsMissing`` names a column some row lacks.
    """
    if policy not in IMPUTE_POLICIES:
        raise ValueError(f"unknown imputation policy {policy!r}")
    if policy == "droprow":
        return [r for r in records if not r.missing_fields()]

    out = list(records)
    means = _ObservedMeans(records)
    for i, r in enumerate(records):
        if not r.missing_fields():
            continue
        dlc = r.dlc if r.dlc is not None else round(means.dlc)
        data_hex = r.data_hex
        if data_hex is None:
            if dlc > 0 and not means.payload:
                raise AllRowsMissing("cannot impute Data_Field: no observed values")
            data_hex = bytes(means.payload[:dlc]).ljust(dlc, b"\0").hex(" ").upper()
        label_text = r.label_text
        if label_text is None:
            label_text = "1" if means.label >= 0.5 else "0"
        can_id_hex = r.can_id_hex
        if can_id_hex is None:
            can_id_hex = dec_to_hex(round(means.can_id))
        timestamp = r.timestamp
        if timestamp is None:
            timestamp = means.timestamp
        out[i] = RawRecord(timestamp, can_id_hex, dlc, data_hex, label_text)
    return out


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
    significant: np.ndarray  # p < alpha, diagonal excluded


def correlation_matrix(columns: Mapping[str, Sequence[float]], alpha: float = 0.05) -> CorrelationResult:
    """Pairwise correlations with two-sided significance flags (p < alpha)."""
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
            pij = 2 * float(stats.t.sf(abs(t), n - 2))
            r[i, j] = r[j, i] = rij
            p[i, j] = p[j, i] = pij
    significant = (p < alpha) & ~np.eye(k, dtype=bool)
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
        if np.any(self.maxs < self.mins):
            raise ValueError("feature max must be >= feature min")


def apply_minmax(values: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """(x - min) / (max - min), clamped into [0, 1]; degenerate features map to 0."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != params.mins.shape[0]:
        raise UnnormalizedInput(
            f"params cover {params.mins.shape[0]} features, input has {values.shape[-1]}"
        )
    span = params.maxs - params.mins
    safe = np.where(span == 0, 1.0, span)
    out = (values - params.mins) / safe
    out = np.where(span == 0, 0.0, out)
    return np.clip(out, 0.0, 1.0)


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
    def from_raw(cls, records: Sequence[RawRecord], kinds: Sequence[str] | None = None) -> "RecordTable":
        """Tabulate cleaned records whose fields are in the canonical forms of the module docstring.

        An identifier above ``MAX_CAN_ID`` raises ``IdOutOfRange``, a data
        field that is not hex bytes ``InvalidHexDigit``, one longer than
        ``MAX_PAYLOAD_BYTES`` ``PayloadTooLong``, and a missing field or a
        label other than "0"/"1" a plain ``ValueError``.
        """
        if not records:
            raise EmptyInput("no records to tabulate")
        if kinds is not None and len(kinds) != len(records):
            raise LengthMismatch("kinds sidecar length differs from record count")
        unknown = sorted(set(kinds or ()) - set(SIDECAR_KINDS))
        if unknown:
            raise UnknownKind(f"kinds sidecar names unknown kinds {unknown[:5]}")
        labels = [r.label_text for r in records]
        if any(r.missing_fields() for r in records) or not set(labels) <= {"0", "1"}:
            raise ValueError("records must be cleaned before tabulation")
        id_value = {text: hex_to_dec(text) for text in {r.can_id_hex for r in records}}
        too_long = sorted(text for text, value in id_value.items() if value > MAX_CAN_ID)
        if too_long:
            raise IdOutOfRange(f"identifiers above 29 bits: {too_long[:5]}")
        n = len(records)
        payload = bytearray(n * PAYLOAD_WIDTH)
        data_value = []
        for i, r in enumerate(records):
            data = data_bytes(r.data_hex)
            if len(data) > MAX_PAYLOAD_BYTES:
                raise PayloadTooLong(f"row {i}: {len(data)}-byte data field exceeds {MAX_PAYLOAD_BYTES}")
            head = data[:PAYLOAD_WIDTH]
            payload[i * PAYLOAD_WIDTH : i * PAYLOAD_WIDTH + len(head)] = head
            data_value.append(float(int.from_bytes(data, "big")))
        return cls(
            timestamp=np.array([r.timestamp for r in records], dtype=np.float64),
            can_id=np.array([id_value[r.can_id_hex] for r in records], dtype=np.int64),
            dlc=np.array([r.dlc for r in records], dtype=np.int64),
            payload=np.frombuffer(payload, dtype=np.uint8).reshape(n, PAYLOAD_WIDTH),
            data_value=np.array(data_value, dtype=np.float64),
            label=(np.array(labels) == "1").astype(np.uint8),
            kind=np.array(
                ["" if k == "normal" else k for k in kinds] if kinds is not None else [""] * n,
                dtype="<U8",
            ),
        )

    @classmethod
    def from_traffic(cls, log: TrafficLog) -> "RecordTable":
        """The simulator's columns as a table; ``data_value`` is each payload's big-endian value."""
        if not len(log):
            raise EmptyInput("no records to tabulate")
        value = np.zeros(len(log), dtype=np.uint64)
        for j in range(MAX_DLC):  # Horner's rule over each row's first dlc bytes
            value = np.where(j < log.dlc, (value << np.uint64(8)) | log.payload[:, j], value)
        return cls(
            timestamp=log.timestamp.astype(np.float64),
            can_id=log.can_id.astype(np.int64),
            dlc=log.dlc.astype(np.int64),
            payload=log.payload[:, :PAYLOAD_WIDTH].astype(np.uint8),
            data_value=value.astype(np.float64),  # correctly rounded, as float(int) is
            label=log.label.astype(np.uint8),
            kind=np.array(KIND_NAMES, dtype="<U8")[log.kind],
        )

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


def fit_feature_params(table: RecordTable) -> NormalizationParams:
    """Normalization for the 16-wide layout, fitted on the given (training) rows.

    Identifier and DLC ranges come from the data; payload byte positions are
    pinned to (0, 255) and the padding positions to (0, 1).
    """
    if len(table) == 0:
        raise EmptyColumn("cannot fit normalization on an empty table")
    mins = np.concatenate(
        ([table.can_id.min(), table.dlc.min()], np.zeros(PAYLOAD_WIDTH), np.zeros(6))
    )
    maxs = np.concatenate(
        ([table.can_id.max(), table.dlc.max()], np.full(PAYLOAD_WIDTH, 255.0), np.ones(6))
    )
    return NormalizationParams(mins, maxs)


def encode_table(table: RecordTable, params: NormalizationParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized record encoding: (n, 16) float64 features plus uint8 labels."""
    if params.mins.shape[0] != N_FEATURES:
        raise UnnormalizedInput(f"params must cover {N_FEATURES} features")
    n = len(table)
    raw = np.zeros((n, N_FEATURES))
    raw[:, 0] = table.can_id
    raw[:, 1] = table.dlc
    raw[:, 2 : 2 + PAYLOAD_WIDTH] = table.payload
    return apply_minmax(raw, params), table.label.copy()


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
    train_kind: np.ndarray = field(default_factory=lambda: np.array([], dtype="<U8"))
    val_kind: np.ndarray = field(default_factory=lambda: np.array([], dtype="<U8"))
    test_kind: np.ndarray = field(default_factory=lambda: np.array([], dtype="<U8"))

    def sizes(self) -> tuple[int, int, int]:
        return len(self.train_y), len(self.val_y), len(self.test_y)

    def has_kinds(self) -> bool:
        return len(self.train_kind) == len(self.train_y) and len(self.train_y) > 0


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
    """
    n = len(table)
    if n == 0:
        raise EmptyInput("cannot split an empty table")
    if not 0 <= test_fraction < 1 or not 0 <= val_fraction < 1:
        raise ValueError("fractions must lie in [0, 1)")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = math.floor(test_fraction * n)
    test_idx = perm[:n_test]
    rest = perm[n_test:]
    n_val = math.floor(val_fraction * len(rest))
    val_idx = rest[:n_val]
    train_idx = rest[n_val:]

    train = table.take(train_idx)
    val = table.take(val_idx)
    test = table.take(test_idx)
    params = fit_feature_params(train)
    train_x, train_y = encode_table(train, params)
    val_x, val_y = encode_table(val, params)
    test_x, test_y = encode_table(test, params)
    return PreparedDataset(
        train_x,
        train_y,
        val_x,
        val_y,
        test_x,
        test_y,
        norm=params,
        provenance=provenance,
        seed=seed,
        train_kind=train.kind,
        val_kind=val.kind,
        test_kind=test.kind,
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
    """
    path = Path(path)
    parts = [
        (ds.train_x, ds.train_y),
        (ds.val_x, ds.val_y),
        (ds.test_x, ds.test_y),
    ]
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC)
        fh.write(struct.pack("<4Q", N_FEATURES, *(len(y) for _, y in parts)))
        for x, y in parts:
            fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(y, dtype=np.uint8).tobytes())
        pairs = np.column_stack([ds.norm.mins, ds.norm.maxs]).ravel()
        fh.write(np.ascontiguousarray(pairs, dtype="<f8").tobytes())

    manifest = path.with_name(path.name + ".manifest")
    sizes = ds.sizes()
    manifest.write_text(
        "format=CANIDS1\n"
        f"source={ds.provenance}\n"
        f"seed={ds.seed}\n"
        f"features={N_FEATURES}\n"
        f"train={sizes[0]}\nvalidation={sizes[1]}\ntest={sizes[2]}\n"
    )
    if ds.has_kinds():
        with open(path.with_name(path.name + ".kinds"), "w") as fh:
            for partition, kinds in (
                ("train", ds.train_kind),
                ("validation", ds.val_kind),
                ("test", ds.test_kind),
            ):
                for kind in kinds:
                    fh.write(f"{partition},{kind or 'normal'}\n")


def _sidecar_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise CorruptContainer(f"{path} is not valid text: {exc.reason} at byte {exc.start}") from None


def load_dataset(path: str | Path) -> PreparedDataset:
    path = Path(path)
    blob = path.read_bytes()
    if blob[: len(CONTAINER_MAGIC)] != CONTAINER_MAGIC:
        raise CorruptContainer(f"{path} has no CANIDS1 magic")
    off = len(CONTAINER_MAGIC)
    try:
        n_feat, n_train, n_val, n_test = struct.unpack_from("<4Q", blob, off)
    except struct.error as exc:
        raise CorruptContainer(str(exc)) from None
    off += 32
    if n_feat != N_FEATURES:
        raise CorruptContainer(f"unexpected feature width {n_feat}")
    expected = off + sum(n * (8 * n_feat + 1) for n in (n_train, n_val, n_test)) + 16 * n_feat
    if len(blob) != expected:
        raise CorruptContainer(f"size mismatch: {len(blob)} bytes, expected {expected}")

    def read_part(count: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal off
        x = np.frombuffer(blob, dtype="<f8", count=count * n_feat, offset=off)
        off += 8 * count * n_feat
        y = np.frombuffer(blob, dtype=np.uint8, count=count, offset=off)
        off += count
        return x.reshape(count, n_feat).copy(), y.copy()

    train_x, train_y = read_part(n_train)
    val_x, val_y = read_part(n_val)
    test_x, test_y = read_part(n_test)
    pairs = np.frombuffer(blob, dtype="<f8", count=2 * n_feat, offset=off).reshape(n_feat, 2)
    norm = NormalizationParams(pairs[:, 0].copy(), pairs[:, 1].copy())

    ds = PreparedDataset(train_x, train_y, val_x, val_y, test_x, test_y, norm=norm)
    manifest = path.with_name(path.name + ".manifest")
    if manifest.exists():
        meta = dict(
            line.split("=", 1) for line in _sidecar_text(manifest).splitlines() if "=" in line
        )
        ds.provenance = meta.get("source", "")
        try:
            ds.seed = int(meta.get("seed", 0))
        except ValueError:
            raise CorruptContainer(f"{manifest}: seed {meta['seed']!r} is not an integer") from None
    kinds_path = path.with_name(path.name + ".kinds")
    if kinds_path.exists():
        per_part: dict[str, list[str]] = {"train": [], "validation": [], "test": []}
        for lineno, line in enumerate(_sidecar_text(kinds_path).splitlines(), 1):
            partition, sep, kind = line.partition(",")
            if not sep or partition not in per_part:
                raise CorruptContainer(
                    f"{kinds_path} line {lineno}: expected train|validation|test,<kind>, got {line!r}"
                )
            if kind not in SIDECAR_KINDS:
                raise CorruptContainer(f"{kinds_path} line {lineno}: unknown kind {kind!r}")
            per_part[partition].append("" if kind == "normal" else kind)
        ds.train_kind = np.array(per_part["train"], dtype="<U8")
        ds.val_kind = np.array(per_part["validation"], dtype="<U8")
        ds.test_kind = np.array(per_part["test"], dtype="<U8")
        if ds.sizes() != tuple(len(per_part[p]) for p in ("train", "validation", "test")):
            raise CorruptContainer("kinds sidecar does not match partition sizes")
    return ds


def prepare_records(
    log: TrafficLog,
    test_fraction: float = 0.2,
    val_fraction: float = 0.2,
    seed: int = 0,
    provenance: str = "",
) -> PreparedDataset:
    """Convenience path from a simulated ``TrafficLog`` straight to a prepared dataset."""
    return split_dataset(
        RecordTable.from_traffic(log),
        test_fraction=test_fraction,
        val_fraction=val_fraction,
        seed=seed,
        provenance=provenance,
    )
