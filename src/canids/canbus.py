"""Logical CAN bus model: frames, CRC-15 codec, and a seeded traffic simulator.

Frames are handled at the data-link logical level: no bit stuffing, no
arbitration timing, standard 11-bit identifiers only. The simulator emits
periodic per-ECU traffic and can inject three attack types (flooding,
fuzzing, spoofing) as labeled records. A record's kind is a uint8 code into
``KIND_NAMES``; only the ``.kinds`` sidecar spells it out by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .bounds import SEED, Range

# CAN generator x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1 (high bit implicit).
CRC15_POLY = 0x4599
CRC15_MASK = 0x7FFF

MAX_STD_ID = 0x7FF
MAX_DLC = 8
FLOODING_ID = 0x000

# largest CAN 2.0B extended (29-bit) identifier, and largest payload (CAN FD), that a log may hold
MAX_CAN_ID = 0x1FFFFFFF
MAX_PAYLOAD_BYTES = 64

# the numeric fields of frames, ECUs, profiles and attacks; a spoof target is an identifier too
IDENTIFIER = Range("identifier", 0, MAX_STD_ID, "[]")
DLC = Range("dlc", 0, MAX_DLC, "[]")
PERIOD = Range("period", 0, math.inf, "()", integer=False)
DURATION = Range("duration", 0, math.inf, "()", integer=False)
JITTER = Range("jitter", 0, 0.5, integer=False)
START = Range("start", -math.inf, math.inf, "()", integer=False)
END = Range("end", -math.inf, math.inf, "()", integer=False)
RATE = Range("rate", 0, math.inf, "()", integer=False)
ATTACK_SEED = Range("seed", 0)  # no upper bound: simulate derives attack seeds as the profile seed + 101 + i

ATTACK_KINDS = ("flooding", "fuzzing", "spoofing")
PAYLOAD_RULES = ("constant", "counter", "sensor")

LOG_HEADER = "Timestamp,CAN_ID,DLC,Data_Field,Label"

# kind codes index this table: 0 is normal traffic, 1.. the attack kinds in order
KIND_NAMES = ("normal",) + ATTACK_KINDS
# each kind code's line in a ``.kinds`` sidecar; a dataset container's puts the row's partition and a comma first
KIND_LINES = tuple(f"{name}\n" for name in KIND_NAMES)

# most records one simulation may hold (~53x the paper's 1,257,303-row log)
MAX_RECORDS = 2**26


class MalformedFrame(ValueError):
    """Bit sequence does not parse as a standard data frame, or a log's rows cannot be extended as such frames."""


class CrcMismatch(ValueError):
    """Recomputed CRC differs from the embedded CRC field."""


class EmptySchedule(ValueError):
    """Simulation profile has no ECUs."""


class WindowOutOfRange(ValueError):
    """Attack window lies outside the log's time span."""


class EmptySpoofTargets(ValueError):
    """Spoofing attack configured without target identifiers."""


class TooManyRecords(ValueError):
    """A profile or an attack would emit more than ``MAX_RECORDS`` records."""


class UnwritableRow(ValueError):
    """A log row holds a value outside what ``write_log`` writes and ``ingest`` reads back."""


def crc15(bits: Sequence[int]) -> int:
    """Polynomial remainder of a bit sequence (MSB first) under generator 0x4599.

    The sequence is read as a polynomial over GF(2) and reduced modulo the
    CAN generator, starting from a zero register. Input must be non-empty.
    """
    if len(bits) == 0:
        raise ValueError("crc15 requires a non-empty bit sequence")
    reg = 0
    for b in bits:
        carry = reg & 0x4000
        reg = ((reg << 1) | (b & 1)) & CRC15_MASK
        if carry:
            reg ^= CRC15_POLY
    return reg


@dataclass(frozen=True)
class CanFrame:
    """One logical CAN data frame (standard format, 11-bit identifier)."""

    identifier: int
    payload: bytes = b""
    rtr: int = 0
    ide: int = 0
    reserved: int = 0

    def __post_init__(self):
        IDENTIFIER.check(self.identifier)
        DLC.check(len(self.payload))
        if self.ide != 0:
            raise ValueError("extended (29-bit) identifiers are not supported")
        if self.rtr not in (0, 1) or self.reserved not in (0, 1):
            raise ValueError("rtr and reserved must be single bits")
        object.__setattr__(self, "payload", bytes(self.payload))

    @property
    def dlc(self) -> int:
        return len(self.payload)


def _int_bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def _bits_int(bits: Iterable[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def _header_and_data_bits(frame: CanFrame) -> list[int]:
    bits = [0]  # start-of-frame, dominant
    bits += _int_bits(frame.identifier, 11)
    bits += [frame.rtr, frame.ide, frame.reserved]
    bits += _int_bits(frame.dlc, 4)
    for byte in frame.payload:
        bits += _int_bits(byte, 8)
    return bits


def encode_frame(frame: CanFrame) -> np.ndarray:
    """Serialize a frame to its 44 + 8*dlc bit sequence (uint8 array of 0/1).

    Layout: SOF | id(11) | RTR | IDE | reserved | DLC(4) | data | CRC(15) |
    CRC delimiter | ACK slot | ACK delimiter | EOF(7), with the ACK slot left
    recessive as transmitted. The CRC covers SOF through the last data bit.
    """
    head = _header_and_data_bits(frame)
    tail = _int_bits(crc15(head), 15) + [1, 1, 1] + [1] * 7
    return np.array(head + tail, dtype=np.uint8)


def decode_frame(bits: Sequence[int]) -> CanFrame:
    """Parse and validate an encoded frame; inverse of :func:`encode_frame`.

    Raises MalformedFrame on structural violations (length, SOF, DLC range,
    non-recessive delimiter/EOF bits) and CrcMismatch when the embedded CRC
    disagrees with the recomputed one.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) < 44:
        raise MalformedFrame(f"need at least 44 bits, got {bits.shape}")
    if np.any(bits > 1):
        raise MalformedFrame("bit sequence contains values other than 0/1")
    if bits[0] != 0:
        raise MalformedFrame("start-of-frame bit must be dominant")
    ide = int(bits[13])
    if ide != 0:
        raise MalformedFrame("extended identifier flag set; only standard frames supported")
    dlc = _bits_int(bits[15:19])
    if dlc > MAX_DLC:
        raise MalformedFrame(f"DLC {dlc} exceeds {MAX_DLC}")
    expected = 44 + 8 * dlc
    if len(bits) != expected:
        raise MalformedFrame(f"expected {expected} bits for DLC {dlc}, got {len(bits)}")
    data_end = 19 + 8 * dlc
    trailer = bits[data_end + 15 :]
    if not np.all(trailer == 1):
        raise MalformedFrame("delimiter/ACK/EOF bits must be recessive")
    embedded = _bits_int(bits[data_end : data_end + 15])
    computed = crc15(bits[:data_end].tolist())
    if embedded != computed:
        raise CrcMismatch(f"embedded CRC {embedded:#06x} != computed {computed:#06x}")
    identifier = _bits_int(bits[1:12])
    payload = bytes(_bits_int(bits[19 + 8 * i : 27 + 8 * i]) for i in range(dlc))
    return CanFrame(
        identifier=identifier,
        payload=payload,
        rtr=int(bits[12]),
        ide=ide,
        reserved=int(bits[14]),
    )


_FIELDS = ("timestamp", "can_id_hex", "dlc", "data_hex", "label_text")
_TS, _ID, _DLC, _DATA, _LABEL = range(len(_FIELDS))  # columns of TrafficLog.missing
_NOTHING_MISSING: frozenset[str] = frozenset()

# rows written or iterated at once, which bounds the text and the objects held at once
_BLOCK_ROWS = 1 << 16
_KIND_BLOCK_ROWS = 1 << 12  # a block's sidecar text and code list stay under ~0.1 MiB


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One row of a ``TrafficLog`` as text fields; ``None`` marks a missing field.

    The identifier is uppercase hex without leading zeros, the data field
    uppercase two-digit hex bytes joined by single spaces ("0A FF", "" for
    an empty payload) and the label "0" or "1".
    """

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


@dataclass(frozen=True, eq=False)
class TrafficLog:
    """The one log type, as columns: simulated, one row per frame in timestamp order, or parsed by ``ingest``.

    ``timestamp`` is float64; ``can_id``, ``dlc`` and ``payload_len`` are int64; ``payload`` is an
    ``(n, width)`` uint8 matrix, zero after each row's ``payload_len`` bytes; ``label`` is uint8 (1 for
    injected frames); ``kind`` a uint8 code into ``KIND_NAMES``; ``missing`` an ``(n, 5)`` bool mask, one
    flag per ``RawRecord`` field. A simulated log is ``MAX_DLC`` wide, its lengths are its DLCs and
    nothing in it is missing; ``ingest`` gives a parsed log's bounds.
    """

    timestamp: np.ndarray
    can_id: np.ndarray
    dlc: np.ndarray
    payload: np.ndarray
    payload_len: np.ndarray
    label: np.ndarray
    kind: np.ndarray
    missing: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self) -> Iterator[RawRecord]:
        """One ``RawRecord`` per row, built on demand a block of rows at a time."""
        width = self.payload.shape[1]
        columns = (self.timestamp, self.can_id, self.dlc, self.payload_len, self.label, self.missing)
        for lo in range(0, len(self), _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            raw = self.payload[block].tobytes()
            for i, (t, c, d, n, y, miss) in enumerate(zip(*(col[block].tolist() for col in columns))):
                yield RawRecord(
                    None if miss[_TS] else t,
                    None if miss[_ID] else f"{c:X}",
                    None if miss[_DLC] else d,
                    None if miss[_DATA] else raw[i * width : i * width + n].hex(" ").upper(),
                    None if miss[_LABEL] else str(y),
                )

    def take(self, rows: np.ndarray) -> TrafficLog:
        """The rows an index array or boolean mask selects, in its order."""
        return TrafficLog(*(getattr(self, f.name)[rows] for f in fields(self)))

    @staticmethod
    def concat(logs: Sequence[TrafficLog], key: np.ndarray | None = None) -> TrafficLog:
        """The rows of ``logs`` in order, as wide as the widest, or stably sorted by ``key``, one value per row.

        Each column is joined and gathered on its own, so at most one column is held twice at a time.
        """
        order = None if key is None else np.argsort(key, kind="stable")
        if len(logs) == 1 and order is None:
            return logs[0]

        def gather(column: np.ndarray) -> np.ndarray:
            return column if order is None else column[order]

        def joined(name: str) -> np.ndarray:
            parts = [getattr(log, name) for log in logs]
            if name == "payload" and len({part.shape[1] for part in parts}) > 1:
                width = max(part.shape[1] for part in parts)
                parts = [np.pad(part, ((0, 0), (0, width - part.shape[1]))) for part in parts]
            return gather(parts[0] if len(parts) == 1 else np.concatenate(parts))

        return TrafficLog(*(joined(f.name) for f in fields(TrafficLog)))


def _block(timestamp: np.ndarray, can_id, dlc, payload: np.ndarray, kind: str) -> TrafficLog:
    """Rows of one kind, labeled 1 unless the kind is "normal".

    A scalar ``can_id`` or ``dlc`` applies to every row.
    """
    n = len(timestamp)
    dlc = np.broadcast_to(np.asarray(dlc, dtype=np.int64), n)
    return TrafficLog(
        timestamp=timestamp,
        can_id=np.broadcast_to(np.asarray(can_id, dtype=np.int64), n),
        dlc=dlc,
        payload=payload,
        payload_len=dlc,
        label=np.full(n, kind != "normal", dtype=np.uint8),
        kind=np.full(n, KIND_NAMES.index(kind), dtype=np.uint8),
        missing=np.zeros((n, len(_FIELDS)), dtype=bool),
    )


@dataclass(frozen=True)
class EcuSpec:
    """One periodic transmitter: identifier, period, and a payload rule.

    Rules: ``constant`` repeats a fixed per-ECU byte pattern; ``counter``
    cycles byte 0 through 0..255; ``sensor`` carries a seeded 16-bit random
    walk in bytes 0-1. Non-varying positions hold the constant pattern.
    """

    identifier: int
    period: float
    dlc: int = 8
    payload_rule: str = "constant"

    def __post_init__(self):
        IDENTIFIER.check(self.identifier)
        PERIOD.check(self.period)
        DLC.check(self.dlc)
        if self.payload_rule not in PAYLOAD_RULES:
            raise ValueError(f"unknown payload rule {self.payload_rule!r}")
        if self.payload_rule == "counter" and self.dlc < 1:
            raise ValueError("counter rule needs dlc >= 1")
        if self.payload_rule == "sensor" and self.dlc < 2:
            raise ValueError("sensor rule needs dlc >= 2")

    def base_pattern(self) -> bytes:
        return bytes((self.identifier + 0x11 * i) & 0xFF for i in range(self.dlc))


@dataclass(frozen=True)
class SimProfile:
    """Normal-traffic model: a set of periodic ECUs over a fixed duration.

    At least one ECU must have a period within the duration, so that a
    profile with ECUs never yields an empty log.
    """

    ecus: tuple[EcuSpec, ...]
    duration: float
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ecus", tuple(self.ecus))
        DURATION.check(self.duration)
        # -0.0 lies in [0, 0.5), but uniform(0.0, -0.0) refuses it as a jitter interval
        object.__setattr__(self, "jitter", abs(JITTER.check(self.jitter)))
        SEED.check(self.seed)
        ids = [e.identifier for e in self.ecus]
        if len(set(ids)) != len(ids):
            raise ValueError("ECU identifiers must be distinct")
        if self.ecus and all(e.period > self.duration for e in self.ecus):
            raise ValueError(f"ECU periods all exceed duration {self.duration!r}, so no record would be emitted")


@dataclass(frozen=True)
class AttackSpec:
    """One injection window: kind, time span, rate, and (spoofing) targets."""

    kind: str
    start: float
    end: float
    rate: float
    spoof_targets: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "spoof_targets", tuple(self.spoof_targets))
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        for bound in (START, END, RATE, ATTACK_SEED):
            bound.check(getattr(self, bound.name))
        if not self.start < self.end:
            raise ValueError("attack window requires start < end")
        for target in self.spoof_targets:
            IDENTIFIER.check(target)


def _check_count(count: float, what: str) -> None:
    """Reject a record count above ``MAX_RECORDS`` (``count`` may be inf) before anything is allocated."""
    if not count <= MAX_RECORDS:
        raise TooManyRecords(f"{what} would emit {count:.4g} records, more than {MAX_RECORDS}")


# steps one segment of ``_clamped_walk`` covers at most, which bounds its temporaries
_WALK_CHUNK = 1 << 16


def _clamped_walk(steps: np.ndarray, start: int, top: int) -> np.ndarray:
    """The int64 walk ``v[k] = min(max(v[k - 1] + steps[k], 0), top)`` from ``v[-1] = start`` in [0, top].

    Until the walk passes ``top`` only the floor binds, and the walk is Lindley's recursion
    ``S + max(v0, -minimum.accumulate(S))`` over the partial sums ``S`` of the steps. At the first
    value above ``top`` it stands at ``top``, and the mirrored walk ``top - v`` carries on until the
    floor binds again. A segment spans at most twice the steps the one before it took, so the work
    stays linear in the steps however often the walk goes from one bound to the other.
    """
    walk = np.empty(len(steps), dtype=np.int64)
    at, value, span, floor = 0, start, _WALK_CHUNK, True  # floor: the floor is the bound that binds
    while at < len(steps):
        sums = np.cumsum(steps[at : at + span] if floor else -steps[at : at + span], dtype=np.int64)
        free = sums + np.maximum(value if floor else top - value, -np.minimum.accumulate(sums))
        over = free > top
        end = int(over.argmax()) if over.any() else len(free)
        walk[at : at + end] = free[:end] if floor else top - free[:end]
        if end == len(free):
            value, span = int(walk[at + end - 1]), min(2 * span, _WALK_CHUNK)
        else:  # the other bound binds at step end
            value = walk[at + end] = top if floor else 0
            end, span, floor = end + 1, 2 * end + 2, not floor
        at += end
    return walk


def _ecu_payloads(ecu: EcuSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    payload = np.zeros((count, MAX_DLC), dtype=np.uint8)
    payload[:, : ecu.dlc] = np.frombuffer(ecu.base_pattern(), dtype=np.uint8)
    if ecu.payload_rule == "counter":
        payload[:, 0] = np.arange(1, count + 1) % 256
    elif ecu.payload_rule == "sensor":
        # 16-bit random walk, clipped to the representable range at every step
        walk = _clamped_walk(rng.integers(-256, 257, size=count), 0x8000, 0xFFFF)
        payload[:, 0] = walk >> 8
        payload[:, 1] = walk & 0xFF
    return payload


def generate_traffic(profile: SimProfile) -> TrafficLog:
    """Emit one normal-labeled record per scheduled ECU transmission.

    Emission k of an ECU with period p lands at ``k*p*(1 + u)`` with u drawn
    uniformly from [-jitter, +jitter]; each ECU emits floor(duration/period)
    records. Output is sorted by timestamp (ties keep profile order) and
    fully determined by the seed. An ECU, or the whole profile, that would
    emit more than ``MAX_RECORDS`` records raises ``TooManyRecords``.
    """
    if not profile.ecus:
        raise EmptySchedule("profile contains no ECUs")
    for ecu in profile.ecus:
        _check_count(profile.duration / ecu.period, f"ECU {ecu.identifier:03X} (period {ecu.period!r})")
    counts = [math.floor(profile.duration / ecu.period) for ecu in profile.ecus]
    _check_count(sum(counts), f"profile of {len(counts)} ECUs")
    rng = np.random.default_rng(profile.seed)
    blocks = []
    for ecu, n in zip(profile.ecus, counts):
        jitter = rng.uniform(-profile.jitter, profile.jitter, size=n)
        timestamp = np.arange(1, n + 1) * ecu.period * (1.0 + jitter)
        payload = _ecu_payloads(ecu, n, rng)
        blocks.append(_block(timestamp, ecu.identifier, ecu.dlc, payload, "normal"))
    # ties keep profile order
    return TrafficLog.concat(blocks, key=np.concatenate([block.timestamp for block in blocks]))


def _inject_flooding(spec: AttackSpec, n: int) -> TrafficLog:
    timestamp = spec.start + np.arange(n) / spec.rate
    return _block(timestamp, FLOODING_ID, MAX_DLC, np.zeros((n, MAX_DLC), dtype=np.uint8), "flooding")


def _random_payloads(dlcs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``MAX_DLC``-wide rows of uniform bytes below each DLC and zeros past it, drawn row-major in one call.

    The draw equals one ``integers(0, 256, size=dlc)`` a row: a range below 2**32 takes one 32-bit
    output a value, and PCG64 keeps the spare half of a 64-bit output across calls.
    """
    payload = np.zeros((len(dlcs), MAX_DLC), dtype=np.uint8)
    payload[np.arange(MAX_DLC) < dlcs[:, None]] = rng.integers(0, 256, size=int(dlcs.sum()))
    return payload


def _perturb_one_byte(payload: np.ndarray, dlcs: np.ndarray, rng: np.random.Generator) -> None:
    """Add a uniform delta in [1, 256), mod 256, at a uniform position below the DLC of each row with one.

    One call draws each such row's position and then its delta, the values and the generator state
    a scalar ``integers(0, dlc)`` and ``integers(1, 256)`` a row give; a DLC of 1 draws no position.
    """
    rows = np.flatnonzero(dlcs)
    high = np.column_stack((dlcs[rows], np.full(len(rows), 256))).ravel()
    pos, delta = rng.integers(np.tile([0, 1], len(rows)), high).reshape(-1, 2).T
    payload[rows, pos] = (payload[rows, pos] + delta) % 256


def _inject_fuzzing(spec: AttackSpec, n: int, rng: np.random.Generator) -> TrafficLog:
    times = rng.uniform(spec.start, spec.end, size=n)
    ids = rng.integers(0, MAX_STD_ID + 1, size=n)
    dlcs = rng.integers(0, MAX_DLC + 1, size=n)
    return _block(times, ids, dlcs, _random_payloads(dlcs, rng), "fuzzing")


def _inject_spoofing(spec: AttackSpec, n: int, rng: np.random.Generator, log: TrafficLog) -> TrafficLog:
    if not spec.spoof_targets:
        raise EmptySpoofTargets("spoofing attack requires at least one target identifier")
    times = rng.uniform(spec.start, spec.end, size=n)
    picks = rng.integers(0, len(spec.spoof_targets), size=n)
    ids = np.array(spec.spoof_targets, dtype=np.int64)[picks]
    dlcs = np.full(n, MAX_DLC, dtype=np.int64)
    payload = np.zeros((n, MAX_DLC), dtype=np.uint8)  # a target never seen replays zeros
    normal = log.label == 0
    for target in set(spec.spoof_targets):
        rows = np.flatnonzero(normal & (log.can_id == target))
        frames = np.flatnonzero(ids == target)
        if len(rows) == 0 or len(frames) == 0:
            continue
        # most recent legitimate payload at each frame's time, else the earliest one
        seen = np.searchsorted(log.timestamp[rows], times[frames], side="right") - 1
        source = rows[np.maximum(seen, 0)]
        dlcs[frames] = log.dlc[source]
        payload[frames] = log.payload[source]
    _perturb_one_byte(payload, dlcs, rng)
    return _block(times, ids, dlcs, payload, "spoofing")


def inject_attack(log: TrafficLog, *specs: AttackSpec) -> TrafficLog:
    """Merge the attack-labeled records of each spec into a log, sorted by timestamp first if it is not.

    Flooding emits identifier 0x000 at fixed spacing; fuzzing draws uniform
    identifiers, DLCs, and payload bytes; spoofing replays each target's most
    recent legitimate payload with one byte perturbed. The injected count is
    floor(rate * (end - start)) and all randomness comes from the attack
    seed, with a fixed draw order (timestamps, then identifiers/targets,
    then per-frame bytes) so a seeded replay reproduces every field.

    Specs are checked and drawn in order from the input log (injected rows
    are labeled 1 and lie in the log's span, so none changes what a later
    spec sees), then one stable merge puts them after existing rows of equal
    timestamp, in spec order: the log one call per spec would give. With no
    spec a log in time order comes back as it is. A window that would take
    the log past ``MAX_RECORDS`` records raises ``TooManyRecords``, and a
    log whose rows are not CAN 2.0 frames (a DLC above ``MAX_DLC``, or a
    payload matrix not ``MAX_DLC`` bytes wide) ``MalformedFrame``; an error
    raised for a spec carries it as ``spec``.
    """
    if not len(log):
        raise WindowOutOfRange("cannot inject into an empty log")
    width, top = log.payload.shape[1], int(log.dlc.max())
    if width != MAX_DLC or top > MAX_DLC:
        raise MalformedFrame(f"cannot extend a log of DLCs up to {top} and {width}-byte payload rows as CAN 2.0 frames")
    if (log.timestamp[1:] < log.timestamp[:-1]).any():  # a parsed log in file order need not be sorted
        log = log.take(np.argsort(log.timestamp, kind="stable"))
    if not specs:
        return log
    first, last = float(log.timestamp[0]), float(log.timestamp[-1])
    blocks, total = [log], len(log)
    for spec in specs:
        try:
            if spec.start < first or spec.end > last:
                raise WindowOutOfRange(f"window [{spec.start}, {spec.end}] outside log span [{first}, {last}]")
            what = f"{spec.kind} attack [{spec.start!r}, {spec.end!r}] at rate {spec.rate!r}"
            count = spec.rate * (spec.end - spec.start)
            _check_count(count, what)
            _check_count(total + count, f"log of {total} records with the {what}")
            rng = np.random.default_rng(spec.seed)
            n = math.floor(count)
            if spec.kind == "flooding":
                blocks.append(_inject_flooding(spec, n))
            elif spec.kind == "fuzzing":
                blocks.append(_inject_fuzzing(spec, n, rng))
            else:
                blocks.append(_inject_spoofing(spec, n, rng, log))
        except ValueError as exc:
            exc.spec = spec
            raise
        total += n
    # injected rows follow equal timestamps, in spec order
    return TrafficLog.concat(blocks, key=np.concatenate([block.timestamp for block in blocks]))


# ASCII digits by value, and each byte's " XX" in a data field
_DIGITS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
_BYTE_TEXT = np.frombuffer(b"".join(b" %02X" % b for b in range(256)), dtype=np.uint8).reshape(256, 3)


def _digit_text(values: np.ndarray, base: int, least: int) -> np.ndarray:
    """Each non-negative value's digits in ``base``, at least ``least`` of them, one ASCII column each.

    There is a column per digit of the largest value; a shorter value's leading columns hold 0.
    """
    places = base ** np.arange(max(least, len(np.base_repr(int(values.max(initial=0)), base))) - 1, -1, -1)
    text = _DIGITS[values[:, None] // places % base]
    lead = len(places) - least
    text[:, :lead][values[:, None] < places[:lead]] = 0
    return text


def _log_lines(log: TrafficLog) -> str:
    """The rows of ``log`` as CSV lines: one uint8 matrix, a line per row, padded with 0 and then taken without it."""
    n, width = log.payload.shape
    # a cell is the float's repr; numpy's astype(str) gives the same text, but slower
    timestamp = np.array(list(map(repr, log.timestamp.tolist())), dtype="S")
    data = _BYTE_TEXT[log.payload]
    data[np.arange(width) >= log.payload_len[:, None]] = 0
    data = data.reshape(n, 3 * width)
    data[:, :1] = 0  # no space before the first byte
    comma = np.full((n, 1), ord(","), dtype=np.uint8)
    lines = np.concatenate((
        timestamp.view(np.uint8).reshape(n, timestamp.itemsize), comma,
        _digit_text(log.can_id, 16, 4), comma,
        _digit_text(log.dlc, 10, 1), comma,
        data, comma,
        _DIGITS[log.label][:, None], np.full((n, 1), ord("\n"), dtype=np.uint8),
    ), axis=1)
    del timestamp, data  # before the take, which sets the block's peak
    lines = lines[lines != 0]
    return str(lines, "ascii")


def _check_lengths(log: TrafficLog, *names: str) -> None:
    """``UnwritableRow`` unless each named column holds one entry a row."""
    for name in names:
        count = len(getattr(log, name))
        if count != len(log):
            raise UnwritableRow(f"{name} column has length {count} for {len(log)} rows")


def _check_range(name: str, column: np.ndarray, top: int) -> None:
    """``UnwritableRow`` naming the first row whose value lies outside ``[0, top]``."""
    if len(column) and (column.min() < 0 or column.max() > top):
        row = int(np.flatnonzero((column < 0) | (column > top))[0])
        raise UnwritableRow(f"row {row}: {name} {column[row]} outside [0, {top}]")


def write_log(log: TrafficLog, stream: IO[str], header: bool = True) -> None:
    """The log as CSV rows under ``LOG_HEADER``, one per frame.

    A row is ``Timestamp,CAN_ID,DLC,Data_Field,Label``: the ``repr`` of the
    timestamp, the identifier as ``%04X``, the DLC in decimal, the first
    ``payload_len`` payload bytes (a simulated log's DLC) as uppercase hex
    pairs joined by single spaces (empty for none), and the label, e.g.
    ``0.123,0130,2,AB CD,0``. Each block of ``_BLOCK_ROWS`` rows is one write.

    Every column it writes must hold one entry a row, and every value must
    lie within the bounds ``ingest`` reads back: a finite timestamp, an
    identifier up to ``MAX_CAN_ID``, a DLC and a payload length up to
    ``MAX_PAYLOAD_BYTES`` (the length also within the payload's width), and
    a label of 0 or 1, with no cell missing (an empty data field reads back
    as no payload, not a missing one). Otherwise it raises ``UnwritableRow``
    naming the column or the first row at fault, before anything is written.
    """
    _check_lengths(log, "can_id", "dlc", "payload", "payload_len", "label", "missing")
    if log.missing.any():
        row, field = np.argwhere(log.missing)[0]
        raise UnwritableRow(f"row {row}: {LOG_HEADER.split(',')[field]} missing")
    if not np.isfinite(log.timestamp).all():
        row = int(np.argmin(np.isfinite(log.timestamp)))
        raise UnwritableRow(f"row {row}: timestamp {log.timestamp[row]} not finite")
    width = log.payload.shape[1]
    for name, column, top in (
        ("identifier", log.can_id, MAX_CAN_ID),
        ("DLC", log.dlc, MAX_PAYLOAD_BYTES),
        ("payload length", log.payload_len, min(width, MAX_PAYLOAD_BYTES)),
        ("label", log.label, 1),
    ):
        _check_range(name, column, top)
    if header:
        stream.write(LOG_HEADER + "\n")
    for start in range(0, len(log), _BLOCK_ROWS):
        stream.write(_log_lines(log.take(slice(start, start + _BLOCK_ROWS))))


def write_kinds(log: TrafficLog, stream: IO[str]) -> None:
    """Sidecar with one ``KIND_LINES`` line per data row, naming its kind ("normal" for label 0).

    A kind column not one code a row, or a code outside ``KIND_NAMES``, raises
    ``UnwritableRow`` before anything is written.
    """
    _check_lengths(log, "kind")
    _check_range("kind code", log.kind, len(KIND_NAMES) - 1)
    write_kind_lines(log.kind, stream)


def write_kind_lines(codes: np.ndarray, stream: IO[str], prefix: str = "") -> None:
    """``KIND_LINES`` indexed by ``codes``, each after ``prefix``, one write per ``_KIND_BLOCK_ROWS`` codes."""
    lines = [prefix + line for line in KIND_LINES]
    for start in range(0, len(codes), _KIND_BLOCK_ROWS):
        stream.write("".join(map(lines.__getitem__, codes[start : start + _KIND_BLOCK_ROWS].tolist())))
